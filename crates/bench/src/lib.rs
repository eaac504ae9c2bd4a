//! The reproduction harness: the paper's claims as one table ([`claims`],
//! rendered by the `study` binary), the harness the layer benchmarks
//! share ([`layer`]) and the span count the telemetry gates read
//! ([`SPANS_PER_QD_STEP`]).

pub mod claims;
pub mod layer;

use std::path::Path;

/// Host spans one QD step opens at level `full`: the step span, six
/// sub-phase spans and nine BLAS call spans. The overhead gate
/// (`telemetry_check`) turns per-span disabled cost into per-step
/// overhead with it, and `tests/telemetry_gates.rs` holds every
/// `qd_step` span of a `full` trace to it.
pub const SPANS_PER_QD_STEP: u64 = 1 + 6 + 9;

/// Writes a report file under `target/reports/`, creating directories as
/// needed, and echoes the path.
pub fn write_report(name: &str, contents: &str) -> std::io::Result<()> {
    let dir = Path::new("target/reports");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    eprintln!("[report written to {}]", path.display());
    Ok(())
}
