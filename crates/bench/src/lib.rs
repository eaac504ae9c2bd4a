//! The reproduction harness: the paper's claims as one table ([`claims`],
//! rendered by the `study` binary) and the harness the layer benchmarks
//! share ([`layer`]).

pub mod claims;
pub mod layer;

use std::path::Path;

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
