//! The `BENCH_*.json` history: the one module that knows its format.
//!
//! A layer benchmark (`gemm_hostperf`, `stencil_hostperf`,
//! `linalg_hostperf`) writes one JSON document per run: a header that
//! describes the run (its rows, its scaling row, host facts) followed by
//! a dated `history` array carried forward from the file it replaces.
//! Each history entry is an object with
//!
//! * `date` — `YYYY-MM-DD`, or `YYYY-MM-DD-<label>` for a labelled run
//!   (`--label parent` keeps a run against the parent library beside the
//!   same day's run of the change);
//! * `threads` — the pool's thread count;
//! * per-binary extras (`k_scale`, `microkernel_f32`, `<series>_defect`, …);
//! * one `<series>_ns_per_call: {column: ns}` member per watched row.
//!
//! This module reads the file (refusing a torn one rather than starting a
//! new history over it), builds entries, applies the same-date-replaces
//! rule, looks up the values a `--min-speedup SERIES@ENTRY=F` gate
//! compares, enumerates the series `profile trend --bench` watches, and
//! writes the file atomically.

use dcmesh_telemetry::export::write_atomic;
use dcmesh_telemetry::json::{self, FieldError, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// The member-name suffix of a watched series.
const SERIES_SUFFIX: &str = "_ns_per_call";

/// Parses the `history` array out of a document's text. A document that
/// does not parse, has no `history` array, or holds an entry that
/// [`series_ns`] refuses is an error naming the member
/// (`history[3].date`).
pub fn parse(text: &str) -> Result<Vec<JsonValue>, String> {
    let doc = json::parse(text).map_err(|e| format!("does not parse: {e}"))?;
    Ok(json::array_field(&doc, "history", |entry| series_ns(entry).map(|_| entry.clone()))?)
}

/// Reads the history of the file at `path`. A missing file starts a new,
/// empty history; one that exists but is torn or foreign is an error
/// naming the file, so the caller can refuse to overwrite it.
pub fn read(path: &Path) -> Result<Vec<JsonValue>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map_err(|e| format!("{} {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, from the system clock.
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_date(secs)
}

/// The civil date of `secs` past the Unix epoch — the classic era/epoch
/// shift days-to-civil conversion, exact over the whole `u64` range used.
fn civil_date(secs: u64) -> String {
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

/// The date a run's entry carries: `today`, or `today-label`.
pub fn entry_date(today: &str, label: Option<&str>) -> String {
    label.map_or(today.to_string(), |l| format!("{today}-{l}"))
}

/// One history entry under construction.
pub struct Entry(BTreeMap<String, JsonValue>);

impl Entry {
    /// An entry dated `date` (see [`entry_date`]) of a run on `threads`
    /// pool threads.
    pub fn new(date: &str, threads: usize) -> Entry {
        let mut members = BTreeMap::new();
        members.insert("date".to_string(), JsonValue::String(date.to_string()));
        members.insert("threads".to_string(), JsonValue::Number(threads as f64));
        Entry(members)
    }

    /// The entry's date.
    pub fn date(&self) -> &str {
        self.0["date"].as_str().expect("an entry is built with its date")
    }

    /// Adds a per-binary member (`k_scale`, `<series>_defect`, …).
    pub fn extra(&mut self, key: &str, value: JsonValue) {
        self.0.insert(key.to_string(), value);
    }

    /// Records `ns` (rounded to 0.1 ns) as column `column` of series
    /// `series`.
    pub fn series(&mut self, series: &str, column: &str, ns: f64) {
        let member = self
            .0
            .entry(format!("{series}{SERIES_SUFFIX}"))
            .or_insert_with(|| JsonValue::Object(BTreeMap::new()));
        if let JsonValue::Object(columns) = member {
            columns.insert(column.to_string(), JsonValue::Number((ns * 10.0).round() / 10.0));
        }
    }

    /// Column `column` of series `series`, if recorded.
    pub fn ns(&self, series: &str, column: &str) -> Option<f64> {
        self.0.get(&format!("{series}{SERIES_SUFFIX}"))?.get(column)?.as_f64()
    }
}

/// `history` with `entry` appended. An entry already dated as `entry` is
/// replaced, so a same-day rerun does not stack up and the file
/// accumulates one entry per date.
pub fn merge(mut history: Vec<JsonValue>, entry: Entry) -> Vec<JsonValue> {
    let date = entry.date().to_string();
    history.retain(|e| e.get("date").and_then(JsonValue::as_str) != Some(date.as_str()));
    history.push(JsonValue::Object(entry.0));
    history
}

/// Every recorded `<series>_ns_per_call` column of a history entry, as
/// (series, column, ns), in key order. An entry is an object with a
/// string `date` whose series are objects of numbers; anything else is
/// an error naming the member.
pub fn series_ns(entry: &JsonValue) -> Result<Vec<(&str, &str, f64)>, FieldError> {
    json::str_field(entry, "date")?;
    let mut out = Vec::new();
    if let JsonValue::Object(members) = entry {
        for (key, value) in members {
            let Some(series) = key.strip_suffix(SERIES_SUFFIX) else { continue };
            let JsonValue::Object(columns) = value else {
                return Err(FieldError::new(key, "an object of numbers"));
            };
            for (column, ns) in columns {
                let refused = || FieldError::new(&format!("{key}.{column}"), "a number");
                out.push((series, column.as_str(), ns.as_f64().ok_or_else(refused)?));
            }
        }
    }
    Ok(out)
}

/// Column `column` of series `series` in the entry of `history` dated
/// `date`.
pub fn recorded_ns(history: &[JsonValue], date: &str, series: &str, column: &str) -> Option<f64> {
    let entry = history.iter().find(|e| e.get("date").and_then(JsonValue::as_str) == Some(date))?;
    entry.get(&format!("{series}{SERIES_SUFFIX}"))?.get(column)?.as_f64()
}

/// One `--min-speedup SERIES@ENTRY=F` gate: this run's series `SERIES`
/// must be at least `F` times faster than the same series of the history
/// entry dated `ENTRY`. A gate names its entry because every perf change
/// leaves its own `-parent` entry behind.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupGate {
    /// The series compared (`<series>_ns_per_call`).
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

    /// Checks `now` (this run's ns per call in `column`) against the entry
    /// of `history` — the file as it was before this run is merged into it.
    /// `Ok` carries the verdict line of a pass, `Err` that of a row too
    /// slow or an entry missing.
    pub fn check(&self, history: &[JsonValue], column: &str, now: f64) -> Result<String, String> {
        let SpeedupGate { series, entry, factor } = self;
        match recorded_ns(history, entry, series, column) {
            Some(then) if then / now >= *factor => {
                Ok(format!("{series}: {:.2}x the {entry} row", then / now))
            }
            Some(then) => Err(format!(
                "{series} is {:.2}x the {entry} row ({then:.0} ns -> {now:.0} ns), need {factor}x",
                then / now
            )),
            None => Err(format!("no history entry {entry} with {series} {column}")),
        }
    }
}

/// Renders a `BENCH_*.json` document: `header`'s members in order, then
/// `history`. Arrays of objects are written one element per line,
/// everything else as compact JSON.
pub fn render(header: &[(&str, JsonValue)], history: &[JsonValue]) -> String {
    let history = ("history", JsonValue::Array(history.to_vec()));
    let members: Vec<String> = header
        .iter()
        .chain([&history])
        .map(|(key, value)| {
            let text = match value {
                JsonValue::Array(items)
                    if items.iter().all(|i| matches!(i, JsonValue::Object(_))) =>
                {
                    let lines: Vec<String> =
                        items.iter().map(|i| format!("    {}", json::dump(i))).collect();
                    format!("[\n{}\n  ]", lines.join(",\n"))
                }
                other => json::dump(other),
            };
            format!("  {}: {text}", json::escape_string(key))
        })
        .collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// Writes [`render`]'s document to `path`. The write is atomic, so an
/// interrupted run leaves the previous file whole.
pub fn write(
    path: &Path,
    header: &[(&str, JsonValue)],
    history: &[JsonValue],
) -> std::io::Result<()> {
    write_atomic(path, &render(header, history))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dcmesh_history_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_test.json")
    }

    fn entry(date: &str, ns: f64) -> Entry {
        let mut e = Entry::new(date, 2);
        e.series("eigh_overlap_64", "f64", ns);
        e
    }

    #[test]
    fn civil_dates_of_known_instants() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_791_158_399), "2026-10-04");
    }

    #[test]
    fn same_date_replaces_and_a_label_dates_beside_it() {
        assert_eq!(entry_date("2026-10-17", None), "2026-10-17");
        assert_eq!(entry_date("2026-10-17", Some("parent")), "2026-10-17-parent");
        let history = merge(Vec::new(), entry("2026-10-16", 300.0));
        let history = merge(history, entry("2026-10-17-parent", 200.0));
        let history = merge(history, entry("2026-10-17", 150.0));
        // A same-day rerun replaces its own entry, not the labelled one.
        let history = merge(history, entry("2026-10-17", 100.0));
        let dates: Vec<&str> =
            history.iter().map(|e| e.get("date").and_then(JsonValue::as_str).unwrap()).collect();
        assert_eq!(dates, ["2026-10-16", "2026-10-17-parent", "2026-10-17"]);
        assert_eq!(recorded_ns(&history, "2026-10-17", "eigh_overlap_64", "f64"), Some(100.0));
        assert_eq!(
            recorded_ns(&history, "2026-10-17-parent", "eigh_overlap_64", "f64"),
            Some(200.0)
        );
    }

    #[test]
    fn a_written_history_reads_back_and_a_missing_file_is_empty() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        assert_eq!(read(&path), Ok(Vec::new()));
        let history = merge(Vec::new(), entry("2026-10-17", 1234.56));
        let header =
            [("bench", JsonValue::String("test".into())), ("threads", JsonValue::Number(2.0))];
        write(&path, &header, &history).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back, history);
        assert_eq!(recorded_ns(&back, "2026-10-17", "eigh_overlap_64", "f64"), Some(1234.6));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_torn_or_foreign_history_is_refused_naming_the_file() {
        let path = temp_path("torn");
        let history = merge(Vec::new(), entry("2026-10-16", 300.0));
        write(&path, &[], &history).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        for text in [
            whole[..whole.len() / 2].to_string(),
            r#"{"history": {"date": "2026-10-16"}}"#.to_string(),
            r#"{"history": [{"date": "2026-10-16"}, 7]}"#.to_string(),
            r#"{"rows": []}"#.to_string(),
        ] {
            std::fs::write(&path, &text).unwrap();
            let err = read(&path).expect_err(&text);
            assert!(err.contains(&path.display().to_string()), "{err}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// An undated entry used to group under date `"-"` in `profile trend`,
    /// and a series column that was not a number was skipped.
    #[test]
    fn an_undated_entry_or_a_series_of_non_numbers_is_refused_by_path() {
        for (text, path) in [
            (r#"{"history": [{"date": "2026-10-16"}, {"threads": 2}]}"#, "history[1].date"),
            (r#"{"history": [{"date": 20261016}]}"#, "history[0].date"),
            (r#"{"history": [{"date": "d", "a_ns_per_call": 7}]}"#, "history[0].a_ns_per_call"),
            (r#"{"history": [{"date": "d", "a_ns_per_call": {"f32": "7"}}]}"#, "a_ns_per_call.f32"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.contains(path), "{text}: {err}");
        }
    }

    #[test]
    fn gates_pass_fail_slow_and_fail_on_a_missing_entry() {
        let history = merge(Vec::new(), entry("2026-10-01-parent", 3000.0));
        let gate = SpeedupGate::parse("eigh_overlap_64@2026-10-01-parent=3").unwrap();
        assert_eq!(gate.factor, 3.0);
        assert!(gate.check(&history, "f64", 1000.0).is_ok());
        let slow = gate.check(&history, "f64", 1001.0).unwrap_err();
        assert!(slow.contains("need 3x"), "{slow}");
        let other = SpeedupGate::parse("eigh_overlap_64@2026-10-02-parent=3").unwrap();
        let missing = other.check(&history, "f64", 1.0).unwrap_err();
        assert!(missing.contains("no history entry 2026-10-02-parent"), "{missing}");
        assert!(gate.check(&history, "f32", 1.0).is_err(), "a column the entry lacks");
        for bad in ["eigh_overlap_64=3", "eigh_overlap_64@x=0", "eigh_overlap_64@x=-1", "a@b=c"] {
            assert_eq!(SpeedupGate::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn series_are_the_ns_per_call_members_only() {
        let mut e = entry("2026-10-17", 10.0);
        e.series("eigh_overlap_64", "f32", 5.0);
        e.extra("eigh_overlap_64_defect", JsonValue::Number(1e-15));
        e.extra("k_scale", JsonValue::Number(64.0));
        let history = merge(Vec::new(), e);
        assert_eq!(
            series_ns(&history[0]).unwrap(),
            [("eigh_overlap_64", "f32", 5.0), ("eigh_overlap_64", "f64", 10.0)]
        );
    }

    /// The checked-in histories read back through this module exactly as
    /// the plain JSON parse of the file sees them, and survive a rewrite.
    #[test]
    fn checked_in_histories_read_back_entry_for_entry() {
        for name in ["BENCH_gemm.json", "BENCH_stencil.json", "BENCH_linalg.json"] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = json::parse(&text).unwrap();
            let plain = doc.get("history").and_then(JsonValue::as_array).unwrap();
            let history = read(&path).unwrap();
            assert!(history.len() >= 4, "{name}");
            assert_eq!(history, plain, "{name}");
            let copy = temp_path(name);
            write(&copy, &[], &history).unwrap();
            assert_eq!(read(&copy).unwrap(), plain, "{name} rewritten");
            std::fs::remove_dir_all(copy.parent().unwrap()).ok();
        }
    }
}
