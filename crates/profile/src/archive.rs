//! The cross-run archive: an append-only `runs.jsonl` store folding
//! finished runs' precision ledgers into one longitudinal record.
//!
//! One line per archived run (schema-versioned, unknown schemas are
//! skipped with a warning, never misread), carrying the run's identity
//! — deck hash, fleet shape, mode policy — next to its full per-
//! (callsite, shape-class, mode) ledger rows. `profile trend` reads
//! this store to compute robust per-key baselines across runs, and
//! `profile advise` joins it against the xe-gpu roofline model to
//! recommend per-callsite modes.
//!
//! [`load_ledger`] — the one reader of a run directory's ledger, live
//! (`profile watch`) and at rest ([`collect_run`]) — understands both
//! layouts the repo produces: a single-process artifact directory
//! (`ledger.json` at the root, as a single-process run writes it) and a
//! sharded run directory (`trace/ledger-rank<r>-inc<i>.json`, one per
//! rank process, rewritten atomically at every committed burst, plus
//! `MANIFEST.json` / `report.json`, as written by `dcmesh-shard`). The
//! snapshots are merged through the order-independent
//! [`ledger::merge_rows`], so the rows are bit-identical no matter how
//! the files are enumerated.
//!
//! Appending is idempotent: the run id is a content fingerprint
//! (directory name + FNV-1a/64 of the merged rows), so re-archiving
//! the same finished run is a no-op rather than a duplicate baseline
//! sample.

use dcmesh_telemetry::json;
use dcmesh_telemetry::ledger::{self, LedgerMeta, Row};
use std::path::{Path, PathBuf};

/// Schema version of a `runs.jsonl` line. v2 dropped the span sampling
/// period; nothing writes v1 any more and [`parse_record`] refuses it.
pub const ARCHIVE_SCHEMA_VERSION: u64 = 2;

/// One archived run: identity, fleet shape, supervision outcome, and
/// the full merged precision-ledger rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Content-derived id (`"{dir_name}-{fnv16}"`), the idempotency key.
    pub run_id: String,
    /// FNV-1a/64 of the canonical deck text (`"0x…"`), `"-"` if unknown.
    pub deck_hash: String,
    /// Fleet rank count (1 for single-process runs).
    pub ranks: u64,
    /// Domain count (0 when the run was not sharded).
    pub domains: u64,
    /// The fleet's start mode from the manifest, e.g. `"FLOAT_TO_BF16"`,
    /// or the caller's override; `"-"` when neither recorded one.
    pub mode_policy: String,
    /// Telemetry level the run recorded at.
    pub telemetry_level: String,
    /// Wall-clock milliseconds of the whole run (0 when unknown).
    pub elapsed_ms: u64,
    /// Rank respawns performed (sharded runs).
    pub restarts: u64,
    /// Heartbeat timeouts declared (sharded runs).
    pub heartbeat_misses: u64,
    /// Total precision escalations across all ledger rows.
    pub escalations: u64,
    /// Total SDC recoveries reported (sharded runs; 0 when unknown).
    pub sdc_recoveries: u64,
    /// The run directory this record was folded from.
    pub source: String,
    /// Merged ledger rows, sorted by (callsite, shape, mode).
    pub entries: Vec<Row>,
}

/// Default archive path under an archive root directory.
pub fn runs_path(archive_dir: &Path) -> PathBuf {
    archive_dir.join("runs.jsonl")
}

/// Reads the file at `path` through `parse`: `None` when it is absent,
/// an error naming the file when it is unreadable, torn or mistyped.
fn read_file<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let text = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        text => text.map_err(|e| e.to_string()),
    };
    text.and_then(|t| parse(&t)).map(Some).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads every rank process's ledger snapshot under `run_dir/trace/`.
fn rank_ledgers(run_dir: &Path) -> Result<Vec<(LedgerMeta, Vec<Row>)>, String> {
    let is_snapshot = |n: &str| n.starts_with("ledger-rank") && n.ends_with(".json");
    let entries = std::fs::read_dir(run_dir.join("trace")).into_iter().flatten().flatten();
    let mut names: Vec<PathBuf> = entries
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_snapshot))
        .collect();
    // Deterministic enumeration; merge_rows is order-independent anyway,
    // but sorted inputs make the whole fold reproducible byte-for-byte.
    names.sort();
    names.iter().filter_map(|p| read_file(p, ledger::parse_ledger).transpose()).collect()
}

/// The precision ledger of a run directory as it stands: the root
/// `ledger.json` (single-process; it wins when both exist — it is the
/// already-merged document), else every `trace/ledger-rank*.json`
/// snapshot merged. `None` when the directory holds neither yet.
pub fn load_ledger(run_dir: &Path) -> Result<Option<(LedgerMeta, Vec<Row>)>, String> {
    if let Some(doc) = read_file(&run_dir.join("ledger.json"), ledger::parse_ledger)? {
        return Ok(Some(doc));
    }
    let per_rank = rank_ledgers(run_dir)?;
    // Any rank's header works for level/deck (stamped identically
    // fleet-wide); take the max rank count seen so a degraded fleet
    // still reports its configured size.
    let Some(meta) = per_rank.iter().map(|(m, _)| m.clone()).max_by_key(|m| m.ranks) else {
        return Ok(None);
    };
    let sources: Vec<Vec<Row>> = per_rank.into_iter().map(|(_, rows)| rows).collect();
    Ok(Some((meta, ledger::merge_rows(&sources))))
}

/// Folds a finished run directory into a [`RunRecord`].
///
/// `mode_policy_override` wins over anything found in the manifest —
/// the hook for single-process runs whose directory carries no
/// `MANIFEST.json` (the caller knows what `MKL_BLAS_COMPUTE_MODE` it
/// ran under).
pub fn collect_run(
    run_dir: &Path,
    mode_policy_override: Option<&str>,
) -> Result<RunRecord, String> {
    let (meta, entries) = load_ledger(run_dir)?.ok_or_else(|| {
        format!(
            "{}: no ledger.json and no trace/ledger-rank*.json — nothing to archive",
            run_dir.display()
        )
    })?;

    let mut rec = RunRecord {
        run_id: String::new(),
        deck_hash: meta.deck_hash,
        ranks: meta.ranks,
        domains: 0,
        mode_policy: "-".to_string(),
        telemetry_level: meta.telemetry_level,
        elapsed_ms: 0,
        restarts: 0,
        heartbeat_misses: 0,
        escalations: entries.iter().map(|r| r.stats.escalations).sum(),
        sdc_recoveries: 0,
        source: run_dir.display().to_string(),
        entries,
    };

    // Sharded-run context: an absent file is an unsharded run, or one with
    // no report yet; a torn or mistyped one is an error.
    let read_manifest = |text: &str| -> Result<_, String> {
        let m = json::parse(text).map_err(|e| e.to_string())?;
        let mode = json::str_field(&m, "start_mode")?.to_string();
        Ok((json::count_field(&m, "n_domains")?, json::count_field(&m, "ranks")?, mode))
    };
    let read_report = |text: &str| -> Result<_, String> {
        let r = json::parse(text).map_err(|e| e.to_string())?;
        let sdc = json::array_field(&r, "domains", |d| json::count_field(d, "sdc_recoveries"))?;
        let count = |f| json::count_field(&r, f);
        Ok([count("elapsed_ms")?, count("restarts")?, count("heartbeat_misses")?, sdc.iter().sum()])
    };
    let manifest = read_file(&run_dir.join("MANIFEST.json"), read_manifest)?;
    if let Some((domains, ranks, mode)) = manifest {
        (rec.domains, rec.ranks, rec.mode_policy) = (domains, ranks, mode);
    }
    let report = read_file(&run_dir.join("report.json"), read_report)?;
    if let Some([elapsed_ms, restarts, misses, sdc]) = report {
        (rec.elapsed_ms, rec.restarts, rec.heartbeat_misses, rec.sdc_recoveries) =
            (elapsed_ms, restarts, misses, sdc);
    }
    if let Some(policy) = mode_policy_override {
        rec.mode_policy = policy.to_string();
    }

    // Content fingerprint: directory name + hash of the serialized rows.
    // Re-archiving the identical finished run reproduces the id.
    let dir_name = run_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "run".to_string());
    let row_bytes: String = rec.entries.iter().map(ledger::row_json).collect();
    rec.run_id = format!("{dir_name}-{:016x}", ledger::fnv1a64(row_bytes.as_bytes()));
    Ok(rec)
}

/// Serialises a record as one `runs.jsonl` line (no trailing newline).
pub fn record_json(r: &RunRecord) -> String {
    let mut out = format!(
        "{{\"schema\":{ARCHIVE_SCHEMA_VERSION},\"run_id\":{},\"deck_hash\":{},\
         \"ranks\":{},\"domains\":{},\"mode_policy\":{},\"telemetry_level\":{},\
         \"elapsed_ms\":{},\"restarts\":{},\
         \"heartbeat_misses\":{},\"escalations\":{},\"sdc_recoveries\":{},\
         \"source\":{},\"entries\":[",
        json::escape_string(&r.run_id),
        json::escape_string(&r.deck_hash),
        r.ranks,
        r.domains,
        json::escape_string(&r.mode_policy),
        json::escape_string(&r.telemetry_level),
        r.elapsed_ms,
        r.restarts,
        r.heartbeat_misses,
        r.escalations,
        r.sdc_recoveries,
        json::escape_string(&r.source),
    );
    for (i, row) in r.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ledger::row_json(row));
    }
    out.push_str("]}");
    out
}

/// Parses one `runs.jsonl` line back into a [`RunRecord`]. Every field
/// [`record_json`] writes is required: a torn or foreign line is a
/// warning for [`read_archive`], never a zero-cost run.
pub fn parse_record(line: &str) -> Result<RunRecord, String> {
    let doc = json::parse(line).map_err(|e| format!("line does not parse: {e}"))?;
    let s = |f| json::str_field(&doc, f).map(str::to_string);
    let n = |f| json::count_field(&doc, f);
    let schema = n("schema")?;
    if schema != ARCHIVE_SCHEMA_VERSION {
        return Err(format!(
            "unknown archive schema {schema} (supported: {ARCHIVE_SCHEMA_VERSION})"
        ));
    }
    Ok(RunRecord {
        run_id: s("run_id")?,
        deck_hash: s("deck_hash")?,
        ranks: n("ranks")?,
        domains: n("domains")?,
        mode_policy: s("mode_policy")?,
        telemetry_level: s("telemetry_level")?,
        elapsed_ms: n("elapsed_ms")?,
        restarts: n("restarts")?,
        heartbeat_misses: n("heartbeat_misses")?,
        escalations: n("escalations")?,
        sdc_recoveries: n("sdc_recoveries")?,
        source: s("source")?,
        entries: ledger::parse_rows(&doc)?,
    })
}

/// Reads every readable record from an archive file, in append order.
/// Unknown schemas and malformed lines become warnings, not errors —
/// a future-schema line must never block reading the rest.
pub fn read_archive(path: &Path) -> Result<(Vec<RunRecord>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(r) => records.push(r),
            Err(e) => warnings.push(format!("{}:{}: {e}", path.display(), i + 1)),
        }
    }
    Ok((records, warnings))
}

/// Appends a record to the archive unless its `run_id` is already
/// present. Returns `true` when the record was written, `false` on the
/// idempotent skip.
pub fn append(path: &Path, rec: &RunRecord) -> Result<bool, String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    if path.is_file() {
        let (existing, _) = read_archive(path)?;
        if existing.iter().any(|r| r.run_id == rec.run_id) {
            return Ok(false);
        }
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", record_json(rec)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_telemetry::ledger::{ResidualHist, Stats};

    fn test_record(run_id: &str) -> RunRecord {
        let mut h = ResidualHist::default();
        h.observe(1e-6);
        RunRecord {
            run_id: run_id.to_string(),
            deck_hash: "0x00000000deadbeef".to_string(),
            ranks: 4,
            domains: 4,
            mode_policy: "FLOAT_TO_BF16".to_string(),
            telemetry_level: "full".to_string(),
            elapsed_ms: 1234,
            restarts: 1,
            heartbeat_misses: 1,
            escalations: 2,
            sdc_recoveries: 0,
            source: "/tmp/run".to_string(),
            entries: vec![Row {
                callsite: "md/cgemm".to_string(),
                shape: "128x1024x4096".to_string(),
                mode: "FLOAT_TO_BF16".to_string(),
                stats: Stats {
                    calls: 10,
                    wall_s: 0.5,
                    device_s: 0.25,
                    device_samples: 10,
                    escalations: 2,
                    residuals: h,
                    ..Stats::default()
                },
            }],
        }
    }

    #[test]
    fn record_round_trips() {
        let rec = test_record("runA-0123");
        let line = record_json(&rec);
        let parsed = parse_record(&line).expect("parses");
        assert_eq!(parsed, rec);
        // And the re-serialisation is byte-identical.
        assert_eq!(record_json(&parsed), line);
    }

    #[test]
    fn unknown_schema_is_a_warning_not_an_error() {
        let dir = std::env::temp_dir().join(format!("dcmesh-archive-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let good = record_json(&test_record("good-run"));
        let v1 = record_json(&test_record("v1-run")).replacen("\"schema\":2", "\"schema\":1", 1);
        std::fs::write(
            &path,
            format!("{good}\n{v1}\n{{\"schema\":99,\"run_id\":\"future\"}}\nnot json\n"),
        )
        .unwrap();
        let (records, warnings) = read_archive(&path).expect("readable");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].run_id, "good-run");
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("unknown archive schema 1"), "{warnings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_is_idempotent_by_run_id() {
        let dir = std::env::temp_dir().join(format!("dcmesh-archive-idem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        std::fs::remove_file(&path).ok();
        let rec = test_record("same-run");
        assert!(append(&path, &rec).expect("first append"));
        assert!(!append(&path, &rec).expect("second append skipped"));
        let mut other = test_record("other-run");
        other.escalations = 9;
        assert!(append(&path, &other).expect("different run appends"));
        let (records, _) = read_archive(&path).expect("readable");
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collect_run_merges_rank_ledgers_order_independently() {
        use dcmesh_telemetry::ledger::{rows_json_with_meta, LedgerMeta};
        let dir = std::env::temp_dir().join(format!("dcmesh-archive-collect-{}", std::process::id()));
        let trace = dir.join("trace");
        std::fs::create_dir_all(&trace).unwrap();
        let meta = LedgerMeta {
            version: ledger::LEDGER_SCHEMA_VERSION,
            deck_hash: "0x1111111111111111".to_string(),
            ranks: 2,
            telemetry_level: "full".to_string(),
            rows: 1,
        };
        let mk = |wall: f64| {
            vec![Row {
                callsite: "md/cgemm".to_string(),
                shape: "64x64x64".to_string(),
                mode: "STANDARD".to_string(),
                stats: Stats {
                    calls: 1,
                    wall_s: wall,
                    ..Stats::default()
                },
            }]
        };
        std::fs::write(trace.join("ledger-rank0.json"), rows_json_with_meta(&meta, &mk(0.25))).unwrap();
        std::fs::write(trace.join("ledger-rank1.json"), rows_json_with_meta(&meta, &mk(1e-9))).unwrap();
        let rec = collect_run(&dir, Some("STANDARD")).expect("collects");
        assert_eq!(rec.ranks, 2);
        assert_eq!(rec.deck_hash, "0x1111111111111111");
        assert_eq!(rec.mode_policy, "STANDARD");
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].stats.calls, 2);
        assert_eq!(rec.entries[0].stats.wall_s.to_bits(), (0.25f64 + 1e-9).to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A run directory with one rank's ledger snapshot and nothing else.
    fn ledger_only_run(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcmesh-{name}-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("trace")).unwrap();
        let rows = test_record("r").entries;
        let meta = LedgerMeta {
            version: ledger::LEDGER_SCHEMA_VERSION,
            deck_hash: "0x2222222222222222".to_string(),
            ranks: 2,
            telemetry_level: "events".to_string(),
            rows: rows.len() as u64,
        };
        let text = ledger::rows_json_with_meta(&meta, &rows);
        std::fs::write(dir.join("trace/ledger-rank0-inc0.json"), text).unwrap();
        dir
    }

    #[test]
    fn a_run_without_manifest_or_report_archives_as_unsharded() {
        let dir = ledger_only_run("archive-unsharded");
        let rec = collect_run(&dir, None).expect("collects");
        assert_eq!((rec.ranks, rec.domains, rec.mode_policy.as_str()), (2, 0, "-"));
        let outcome = (rec.elapsed_ms, rec.restarts, rec.heartbeat_misses, rec.sdc_recoveries);
        assert_eq!(outcome, (0, 0, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn `report.json` used to archive as a run with 0 restarts in
    /// 0 ms, which `trend` and `advise` then believed.
    #[test]
    fn a_torn_or_mistyped_run_file_is_refused_naming_the_file() {
        let dir = ledger_only_run("archive-torn");
        let manifest = r#"{"n_domains":4,"ranks":4,"start_mode":"FLOAT_TO_BF16"}"#;
        let report = r#"{"elapsed_ms":1234,"restarts":1,"heartbeat_misses":2,
                         "domains":[{"sdc_recoveries":3},{"sdc_recoveries":0}]}"#;
        std::fs::write(dir.join("MANIFEST.json"), manifest).unwrap();
        std::fs::write(dir.join("report.json"), report).unwrap();
        let rec = collect_run(&dir, None).expect("collects");
        assert_eq!((rec.ranks, rec.domains, rec.mode_policy.as_str()), (4, 4, "FLOAT_TO_BF16"));
        let outcome = (rec.elapsed_ms, rec.restarts, rec.heartbeat_misses, rec.sdc_recoveries);
        assert_eq!(outcome, (1234, 1, 2, 3));
        for (file, text, member) in [
            ("report.json", &report[..report.len() / 2], "JSON parse error"),
            ("report.json", &report.replace("1234", "-1")[..], "\"elapsed_ms\" is not a count"),
            ("report.json", &report.replace(":0}", ":0.5}")[..], "domains[1].sdc_recoveries"),
            ("MANIFEST.json", "{\"n_domains\":4}", "missing field \"start_mode\""),
        ] {
            let whole = std::fs::read_to_string(dir.join(file)).unwrap();
            std::fs::write(dir.join(file), text).unwrap();
            let err = collect_run(&dir, None).expect_err(text);
            assert!(err.contains(file) && err.contains(member), "{text}: {err}");
            std::fs::write(dir.join(file), whole).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
