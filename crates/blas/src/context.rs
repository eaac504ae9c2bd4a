//! The calling thread's BLAS execution context.
//!
//! Everything `mkl-lite` remembers between calls — the compute mode, the
//! `MKL_VERBOSE` record ring, the installed device model, the fault plan
//! and the ABFT sampler with their counters — is one [`BlasContext`] in
//! one `thread_local!`, next to the [`crate::workspace`] pool. The public
//! free functions (`set_compute_mode`, `verbose::drain`,
//! `install_fault_plan`, ...) are accessors of the calling thread's
//! context, so a run's bits and records depend on its own thread and on
//! nothing else in the process.
//!
//! The contract that follows:
//!
//! * State is **per thread**. A new thread starts from the environment
//!   (`MKL_BLAS_COMPUTE_MODE`) and does **not**
//!   inherit its parent's overrides, plans or records.
//! * BLAS must be entered from the thread that owns the run. That holds
//!   by construction: the rayon pool is entered only below the entry
//!   points, and its workers run the product's tasks — pack their rows of
//!   A, run their tiles — on the mode, microkernel and scratch the caller
//!   passed in, never reading a context; the workspace pool, ABFT, fault
//!   injection and the call record stay on the caller.
//! * No borrow of the context is held across the product closure, a
//!   [`DeviceTimeModel::gemm_time`] call or any telemetry call, so nested
//!   overrides and a BLAS call made from inside another's product are
//!   re-entrant.

use crate::abft::{AbftScratch, AbftViolation};
use crate::device::DeviceTimeModel;
use crate::fault::FaultPlan;
use crate::mode::ComputeMode;
use crate::verbose::{CallRecord, RECORD_CAPACITY};
use core::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-thread library state; see the module docs for the contract.
pub(crate) struct BlasContext {
    /// `None` until first queried (then read from `MKL_BLAS_COMPUTE_MODE`)
    /// and again after `reset_compute_mode`. Resolved lazily so that an
    /// unparsable value surfaces from `try_compute_mode`, uncached.
    pub mode: Option<ComputeMode>,

    /// Programmatic `verbose::set_recording` flag.
    pub recording: bool,
    /// Most recent call records, oldest first; at most [`RECORD_CAPACITY`].
    pub ring: VecDeque<CallRecord>,
    /// Records evicted from the full ring since the last `verbose::clear`.
    pub dropped: u64,

    /// Installed device time model.
    pub model: Option<Arc<dyn DeviceTimeModel>>,

    /// GEMM calls made by this thread; never reset, so a rollback's replay
    /// gets fresh indices and a one-shot fault does not re-fire.
    pub gemm_calls: u64,
    /// Installed fault plan and the call count at install.
    pub fault: Option<(FaultPlan, u64)>,
    /// Faults injected by this thread.
    pub injected: u64,

    /// ABFT sampling period and the call count at install.
    pub abft: Option<(u64, u64)>,
    /// The sampled checks' sums, reused from check to check.
    pub abft_scratch: AbftScratch,
    /// Checksum verifications performed by this thread.
    pub abft_checks: u64,
    /// Violations detected by this thread.
    pub abft_violations: u64,
    /// First violation since the last `take_abft_violation`.
    pub abft_pending: Option<AbftViolation>,
}

/// What one GEMM call has to do besides its product, decided when the call
/// is counted.
#[derive(Clone, Copy)]
pub(crate) struct GemmTicket {
    /// This call's index in the thread's GEMM sequence.
    pub call: u64,
    /// The ABFT sampler selected this call.
    pub abft_sampled: bool,
}

impl BlasContext {
    fn from_env() -> BlasContext {
        BlasContext {
            mode: None,
            recording: false,
            ring: VecDeque::new(),
            dropped: 0,
            model: None,
            gemm_calls: 0,
            fault: None,
            injected: 0,
            abft: None,
            abft_scratch: AbftScratch::default(),
            abft_checks: 0,
            abft_violations: 0,
            abft_pending: None,
        }
    }

    /// Counts one GEMM call and samples it for ABFT.
    pub fn begin_gemm(&mut self) -> GemmTicket {
        let call = self.gemm_calls;
        self.gemm_calls += 1;
        GemmTicket {
            call,
            abft_sampled: self
                .abft
                .is_some_and(|(period, base)| (call - base).is_multiple_of(period)),
        }
    }

    /// Appends a record, evicting the oldest beyond [`RECORD_CAPACITY`].
    pub fn push_record(&mut self, rec: CallRecord) {
        while self.ring.len() >= RECORD_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }
}

thread_local! {
    static CONTEXT: RefCell<BlasContext> = RefCell::new(BlasContext::from_env());
}

/// Runs `f` on the calling thread's context. `f` must stay short and must
/// not call back into this crate's public API, a device model or telemetry.
pub(crate) fn with<R>(f: impl FnOnce(&mut BlasContext) -> R) -> R {
    CONTEXT.with(|cx| f(&mut cx.borrow_mut()))
}
