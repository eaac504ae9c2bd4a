//! `dcmesh-telemetry`: one telemetry surface for the whole workspace.
//!
//! The paper's methodology is observational: per-call BLAS timings come
//! out of `MKL_VERBOSE=2` dumps (Tables VI/VII, Figure 3b) and per-kernel
//! device timelines out of `unitrace -k` (artifact A1). This crate is the
//! reproduction's single equivalent of both, shared by every layer:
//!
//! * **Spans** ([`span`], [`SpanGuard`]) — enter/exit pairs with typed
//!   attributes (compute mode, burst index, matrix shape), recorded at
//!   `full` only. `mkl-lite` wraps every level-2/3 call in one, LFD wraps
//!   the QD sub-phases (propagate, nonlocal, energy, remap, shadow), QXMD
//!   wraps MD steps and SCF refreshes, and the supervisor wraps bursts —
//!   so a Figure 3a-style cost breakdown falls out of any `full` trace.
//! * **Events** ([`instant`]) — discrete occurrences: health violations,
//!   rollbacks, escalations, checkpoint writes.
//! * **Device timeline** ([`device_complete`]) — the `xe-gpu` simulated
//!   kernel clock, kept as a separate track so host spans and modelled
//!   kernels can be read side by side in one Perfetto view.
//! * **Metrics** ([`metrics`]) — process-wide counters and gauges,
//!   dumped in Prometheus text format.
//! * **Exporters** ([`export`]) — JSONL event log, Chrome trace-event
//!   JSON (loadable in Perfetto / `chrome://tracing`), Prometheus text.
//! * **Callsite identity** ([`callsite`]) — stable `{phase}/{routine}`
//!   IDs for every BLAS call, minted from RAII phase scopes.
//! * **Accuracy/cost ledger** ([`ledger`]) — streaming per-(callsite,
//!   shape-class, mode) statistics (calls, wall/device seconds, ABFT
//!   residual histograms, escalations/rollbacks), exported as
//!   `ledger.json` and labelled Prometheus series. It counts every call
//!   at every level above `off`, so it — not the span stream — is the
//!   one record of how many calls ran and what they cost.
//!
//! Control mirrors the `MKL_VERBOSE` convention: the `TELEMETRY`
//! environment variable (`off` | `events` | `full`) or the programmatic
//! [`set_level`]. `off` is the default and costs one thread-local read
//! per instrumentation point — the disabled path allocates nothing and
//! takes no locks (the `telemetry_check --overhead-gate` bench enforces
//! this stays below 2% of a QD step).
//!
//! **Whose record.** The level, the event ring and the live ledger are
//! one `Recorder` owned by the calling thread (DESIGN.md
//! "Whose state"), as `mkl-lite`'s BLAS state is one `BlasContext`: a new
//! thread starts from the environment, and two runs in one process do not
//! see each other. Only what is not per run stays process-wide: the clock
//! epoch, thread ids, the string interner and the metric registry.
//!
//! ```
//! use dcmesh_telemetry as telemetry;
//! use telemetry::{AttrValue, TelemetryLevel};
//!
//! telemetry::with_level(TelemetryLevel::Full, || {
//!     let _burst = telemetry::span("burst")
//!         .attr("mode", AttrValue::Str("FLOAT_TO_BF16"))
//!         .attr("burst_index", AttrValue::U64(0));
//!     {
//!         let _call = telemetry::span("SGEMM")
//!             .attr("m", AttrValue::U64(128))
//!             .attr("n", AttrValue::U64(896));
//!     } // SGEMM span ends here, nested inside the burst span
//! });
//! let events = telemetry::sink::drain();
//! assert_eq!(events.len(), 4); // B/E for the burst, B/E for the call
//! println!("{}", telemetry::export::chrome_trace(&events));
//! ```

pub mod callsite;
pub mod event;
pub mod export;
pub mod json;
pub mod ledger;
pub mod level;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;

pub use callsite::{callsite_for, current_phase, phase_scope, PhaseScope};
pub use event::{Attr, AttrValue, Event, EventKind, Track};
pub use level::{
    events_enabled, level, set_level, spans_enabled, with_level, TelemetryLevel,
};
pub use span::{device_complete, instant, span, SpanGuard};

/// The environment variable selecting the telemetry level
/// (`off` | `events` | `full`), read when a thread first touches
/// telemetry, like `MKL_BLAS_COMPUTE_MODE`.
pub const TELEMETRY_ENV: &str = "TELEMETRY";

/// The environment variable bounding the event sink's ring buffer
/// (events retained per recording thread; oldest are dropped first).
pub const TELEMETRY_BUFFER_ENV: &str = "TELEMETRY_BUFFER";
