//! `dcmesh-profile`: trace analysis over the dcmesh telemetry stream.
//!
//! The telemetry crate records; this crate answers questions. It turns an
//! `events.jsonl` dump (written by `dcmesh-telemetry`'s JSONL exporter)
//! into the three artefacts the paper builds its performance story from:
//!
//! * **Flamegraphs** ([`fold`], [`flame`]) — collapsed-stack folding of
//!   the span forest (`burst;qd_step;CGEMM 1234`) with per-precision-mode
//!   and per-shape grouping, rendered to a self-contained SVG or an ANSI
//!   terminal view — the Figure 3 cost-breakdown picture.
//! * **Attribution tables** ([`table`]) — per-(routine, mode, shape)
//!   mean wall and modelled device times with speedups against the FP32
//!   baseline — the Tables VI/VII shape.
//! * **Merged multi-rank traces** ([`merge`]) — several ranks' dumps
//!   joined into one Chrome trace with per-rank pids, clock-aligned via
//!   the shared `run_epoch` stamped in each stream's `telemetry_meta`
//!   header.
//! * **Differential flamegraphs** ([`diff`]) — two traces compared
//!   frame by frame in the red/blue convention (red = grew, blue =
//!   shrank): the before/after view for compute-mode switches and
//!   kernel changes.
//! * **Live watch** ([`watch`]) — re-read the ledger snapshots a run in
//!   progress keeps (one per shard-rank process, rewritten at every
//!   committed burst) through the archive's loader and render the
//!   merged per-(callsite, shape, mode) precision ledger as it evolves,
//!   exact, with an optional Prometheus scrape file.
//! * **Run archive** ([`archive`]) — fold a finished run directory's
//!   precision ledger, shard manifest, and run report into one line of
//!   an append-only `runs.jsonl`, keyed by a content-hashed run id so
//!   re-archiving is idempotent.
//! * **Regression sentinel** ([`trend`]) — per-(callsite, shape, mode)
//!   baselines over the archive with median/MAD robust statistics;
//!   flags wall-time, time-misfit, escalation-rate, and
//!   residual-histogram-shift regressions, renders ANSI sparkline and
//!   SVG reports, and exits nonzero for CI.
//! * **Offline precision advisor** ([`advise`]) — joins archived
//!   ledger evidence against the `XeStackModel` roofline to emit a
//!   per-callsite recommended-mode plan (`advice.json`) with predicted
//!   cost and error-budget headroom.
//!
//! The span-based views read a `TELEMETRY=full` trace, where every BLAS
//! call and phase is one unsampled span; how many calls a run made and
//! what they cost per callsite is the ledger's to say ([`watch`],
//! [`archive`]). Ingestion ([`ingest`]) is deliberately forgiving:
//! ring-dropped events and truncated tails degrade into counted
//! warnings, not errors. It is also streaming-first:
//! [`ingest::StreamingIngester`] folds a stream line by line in memory
//! bounded by the open-span depth — the one way the CLI reads a trace —
//! and the batch [`ingest_jsonl`] is a thin wrapper over it, so both
//! give bit-identical results by construction.
//!
//! The `profile` binary in this crate exposes all of it as a CLI:
//! `profile flame`, `profile table`, `profile merge`, `profile fold`,
//! `profile diff`, `profile watch`, `profile synth`, `profile archive`,
//! `profile trend`, `profile advise`.

pub mod advise;
pub mod archive;
pub mod diff;
pub mod flame;
pub mod fold;
pub mod ingest;
pub mod merge;
pub mod table;
pub mod trend;
pub mod watch;

pub use advise::{advise, advice_json, Advice, CallsiteAdvice};
pub use archive::{append as archive_append, collect_run, read_archive, RunRecord};
pub use diff::{build_diff_tree, render_diff_ansi, render_diff_svg, to_collapsed_diff};
pub use flame::{build_tree, render_ansi, render_svg, Frame};
pub use fold::{fold, FoldOptions, Folded};
pub use ingest::{coverage_warnings, ingest_jsonl, Meta, Span, StreamingIngester, Trace};
pub use merge::merge_jsonl;
pub use table::{gemm_table, gemm_table_json, phase_table, CallRow, PhaseRow, TableAccum};
