//! `dcmesh`: the divide-and-conquer Maxwell–Ehrenfest framework driver.
//!
//! This crate ties the workspace together the way DCMESH ties LFD and
//! QXMD together:
//!
//! * [`config`] — input decks (the stand-ins for the paper's
//!   `PTOquick.dc` / `CONFIG` / `lfd.in`), including the published 40- and
//!   135-atom lead-titanate configurations and laptop-scale variants;
//! * [`runner`] — the production loop: initial SCF, then MD steps each
//!   spanning 500 QD steps of LFD, with an FP64 SCF refresh at every MD
//!   boundary (the multiple-time-scale splitting of §II-C);
//! * [`output`] — the per-QD-step record writer (`ekin epot etot eexc
//!   nexc Aext javg`, the columns the artifact says to read "off the
//!   wall"), console and CSV;
//! * [`analysis`] — deviation-from-reference series, the machinery behind
//!   Figures 1 and 2;
//! * [`perf`] — paper-scale performance assembly on the `xe-gpu` device
//!   model: Figure 3a/3b and Tables VI/VII;
//! * [`shard`] — multi-rank sharded runs (the `dcmesh-shard` binary):
//!   divide-and-conquer domains spread across worker processes with
//!   heartbeat-based failure detection, checkpoint-replay recovery, and
//!   graceful degradation to fewer ranks.
//!
//! Switching BLAS precision requires **no code changes**: set
//! `MKL_BLAS_COMPUTE_MODE=FLOAT_TO_BF16` (etc.) in the environment, or
//! use the scoped [`mkl_lite::with_compute_mode`] the sweep harnesses
//! prefer.

//! ```no_run
//! use dcmesh::config::{RunConfig, SystemPreset};
//! use dcmesh::runner::run_simulation;
//! use mkl_lite::{with_compute_mode, ComputeMode};
//!
//! # fn main() -> Result<(), dcmesh::RunError> {
//! // The paper's experiment in four lines: the same deck under FP32 and
//! // under the BF16 compute mode, ready for deviation analysis.
//! let cfg = RunConfig::preset(SystemPreset::Pto40Small);
//! let reference = with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg))?;
//! let bf16 = with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg))?;
//! let (a, b) = (reference.last().unwrap(), bf16.last().unwrap());
//! println!("Δekin = {:e}", (a.ekin - b.ekin).abs());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod health;
pub mod output;
pub mod perf;
pub mod runner;
pub mod shard;
pub mod supervisor;
pub mod sweep;

pub use checkpoint::Checkpoint;
pub use config::{RunConfig, SystemPreset};
pub use error::RunError;
pub use health::{HealthConfig, HealthMonitor, HealthViolation};
pub use runner::{run_simulation, run_simulation_with_policy, RunResult, DCMESH_RANK_ENV};
pub use shard::{
    run_coordinator, DomainOutcome, RankKillPlan, ShardConfig, ShardError, ShardReport,
};
pub use supervisor::{
    run_supervised, run_supervised_observed, BurstObserver, DeescalationEvent, EscalationEvent,
    SupervisedRun, SupervisorConfig,
};
