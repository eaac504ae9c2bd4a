//! Small reporting helpers shared by `study` and the layer benchmarks.

use std::io::Write;
use std::path::Path;

/// Writes a report file under `target/reports/`, creating directories as
/// needed, and echoes the path.
pub fn write_report(name: &str, contents: &str) -> std::io::Result<()> {
    let dir = Path::new("target/reports");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    eprintln!("[report written to {}]", path.display());
    Ok(())
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, from the system clock —
/// the days-to-civil conversion is the classic era/epoch-shift
/// algorithm, exact over the entire `u64` seconds range used here.
pub fn civil_date_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The dated `history` array of a `BENCH_*.json`, carried forward: the
/// entries already in the file at `path` (none if it is missing or does
/// not parse) followed by `new_entry`, a JSON object carrying
/// `"date":"<today>"`. A same-day rerun replaces its entry
/// instead of stacking up, so the checked-in file accumulates one row
/// per day that `profile trend --bench` can watch.
pub fn merged_history(path: &str, today: &str, new_entry: String) -> Vec<String> {
    let mut history: Vec<String> = std::fs::read_to_string(path)
        .ok()
        .and_then(|old| dcmesh_telemetry::json::parse(&old).ok())
        .and_then(|doc| {
            doc.get("history")
                .and_then(|h| h.as_array())
                .map(|a| a.iter().map(dcmesh_telemetry::json::dump).collect())
        })
        .unwrap_or_default();
    history.retain(|h| !h.contains(&format!("\"date\":\"{today}\"")));
    history.push(new_entry);
    history
}

/// One `--min-speedup SERIES@ENTRY=F` gate of a layer benchmark: this
/// run's row `SERIES` must be at least `F` times faster than the same
/// series of the history entry dated `ENTRY`. A gate names its entry
/// because every perf PR leaves its own `-parent` entry behind.
pub struct SpeedupGate {
    /// The row's history series (`<series>_ns_per_call`).
    pub series: String,
    /// The `date` of the history entry compared against.
    pub entry: String,
    /// The least speed-up that passes.
    pub factor: f64,
}

impl SpeedupGate {
    /// Parses `SERIES@ENTRY=F` with `F > 0`.
    pub fn parse(spec: &str) -> Option<SpeedupGate> {
        let (row, factor) = spec.rsplit_once('=')?;
        let (series, entry) = row.split_once('@')?;
        let factor = factor.parse().ok().filter(|f: &f64| *f > 0.0)?;
        Some(SpeedupGate { series: series.to_string(), entry: entry.to_string(), factor })
    }

    /// Checks `now` (this run's ns per call) against column `mode` of the
    /// entry in the history at `path` — the file as it was before this
    /// run is merged into it — and prints the verdict prefixed by `bin`.
    /// False when the row is too slow or the entry is missing.
    pub fn passes(&self, bin: &str, path: &str, mode: &str, now: f64) -> bool {
        let SpeedupGate { series, entry, factor } = self;
        match recorded_ns(path, entry, series, mode) {
            Some(then) if then / now >= *factor => {
                eprintln!("{series}: {:.2}x the {entry} row", then / now);
                true
            }
            Some(then) => {
                eprintln!(
                    "{bin}: {series} is {:.2}x the {entry} row ({then:.0} ns -> {now:.0} ns), need {factor}x",
                    then / now
                );
                false
            }
            None => {
                eprintln!("{bin}: no history entry {entry} with {series} in {path}");
                false
            }
        }
    }
}

/// `<series>_ns_per_call.<mode>` of the history entry dated `entry` in
/// the file at `path`.
fn recorded_ns(path: &str, entry: &str, series: &str, mode: &str) -> Option<f64> {
    use dcmesh_telemetry::json::{self, JsonValue};
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("history")?
        .as_array()?
        .iter()
        .find(|e| e.get("date").and_then(JsonValue::as_str) == Some(entry))?
        .get(&format!("{series}_ns_per_call"))?
        .get(mode)?
        .as_f64()
}
