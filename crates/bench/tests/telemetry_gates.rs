//! The telemetry gates, run with the tests.
//!
//! A short **fault-injected supervised run** at telemetry level `full` —
//! NaNs injected into CGEMM under `FLOAT_TO_BF16` force one rollback and
//! escalation — is exported and its three artifacts are checked:
//!
//! * `events.jsonl` — every line parses as JSON with the JSONL schema
//!   fields (`seq`, `ts_ns`, `kind`, `name`, `track`, `tid`, `args`), and
//!   the `telemetry_meta` header carries `run_epoch`, `rank` and the
//!   recorder's loss counts `dropped_events` and `truncated_attrs`;
//! * `trace.json` — Chrome trace-event JSON (Perfetto-loadable): valid
//!   JSON, balanced `B`/`E` nesting per `(pid, tid)`, monotonic
//!   timestamps per track, every `qd_step` enclosing
//!   [`SPANS_PER_QD_STEP`] − 1 spans, the escalation instant on record,
//!   BLAS call spans carrying mode/shape attributes, burst spans, and the
//!   simulated `xe-gpu` kernel timeline as a second process track;
//! * `ledger.json` — read back through the ledger's strict reader, it
//!   must name the level its rows were recorded at (`full`, although the
//!   export runs after the level is restored) and must have *attributed*
//!   the injected fault: the CGEMM callsite's FLOAT_TO_BF16 entry carries
//!   the non-finite-output detection and the resulting escalation.
//!
//! The same stream then goes through the profile library: the flamegraph
//! rooted at `burst` and the GEMM attribution table must both show CGEMM,
//! and every table row must carry the mean device time and FP32 speed-up
//! the `xe-gpu` model prices that shape at directly, within
//! [`ATTRIBUTION_TOLERANCE_PCT`].
//!
//! The offline-advisor loop runs end to end too: a clean and a faulted
//! supervised run each leave a `ledger.json`, both run directories are
//! archived, and the advisor's recommendation for the faulted CGEMM
//! callsite must be at least as precise (by escalation rank) as the mode
//! the live supervisor settled on. On the same archive the regression
//! sentinel (`trend::detect`) must flag the 0 → 1 escalation-rate step at
//! a CGEMM callsite.
//!
//! Recorder, sink, ledger, fault plan and device model are all per
//! thread, so each test runs under the parallel harness on its own.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::{run_supervised, SupervisorConfig};
use dcmesh_bench::SPANS_PER_QD_STEP;
use dcmesh_profile::{advise, archive, flame, fold, ingest, table, trend};
use dcmesh_telemetry as telemetry;
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::{
    clear_fault_plan, install_fault_plan, verbose, ComputeMode, FaultKind, FaultPlan,
    FaultSite,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use telemetry::json::JsonValue;
use telemetry::ledger::Row;
use telemetry::{export, sink, TelemetryLevel};

/// How far, in percent, a trace-derived GEMM row's mean device time or
/// speed-up may sit from the device model's direct price.
const ATTRIBUTION_TOLERANCE_PCT: f64 = 5.0;

fn tiny_deck() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 20;
    cfg.laser_duration_fs = 0.03;
    cfg.laser_amplitude = 0.4;
    cfg
}

/// NaNs into every CGEMM that runs under `FLOAT_TO_BF16`.
fn cgemm_fault() -> FaultPlan {
    FaultPlan::new(7).with_site(
        FaultSite::every(1, FaultKind::Nan).on_routine("CGEMM").in_mode(ComputeMode::FloatToBf16),
    )
}

fn fail(problems: &mut Vec<String>, msg: String) {
    eprintln!("FAIL: {msg}");
    problems.push(msg);
}

/// A scratch directory, removed when dropped — also when a test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("dcmesh-telemetry-gates-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale test dir");
        }
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Validates B/E nesting, per-(pid, tid) timestamp monotonicity and the
/// spans each `qd_step` encloses (`SPANS_PER_QD_STEP` − 1) over the
/// non-metadata rows of a parsed Chrome trace.
fn check_trace_rows(rows: &[JsonValue], problems: &mut Vec<String>) {
    // Each open span with the number of spans opened inside it so far.
    let mut stacks: HashMap<(u64, u64), Vec<(String, u64)>> = HashMap::new();
    // The spans each closed `qd_step` enclosed.
    let mut enclosed = Vec::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    for row in rows {
        let ph = row.get("ph").and_then(JsonValue::as_str).unwrap_or("?");
        if ph == "M" {
            continue;
        }
        let key = (
            row.get("pid").and_then(JsonValue::as_f64).unwrap_or(-1.0) as u64,
            row.get("tid").and_then(JsonValue::as_f64).unwrap_or(-1.0) as u64,
        );
        let name = row.get("name").and_then(JsonValue::as_str).unwrap_or("?").to_string();
        let ts = row.get("ts").and_then(JsonValue::as_f64).unwrap_or(-1.0);
        if let Some(prev) = last_ts.insert(key, ts) {
            if ts < prev {
                fail(problems, format!("timestamps regressed on {key:?}: {prev} -> {ts}"));
            }
        }
        match ph {
            "B" => {
                let stack = stacks.entry(key).or_default();
                stack.iter_mut().for_each(|(_, inside)| *inside += 1);
                stack.push((name, 0));
            }
            "E" => match stacks.get_mut(&key).and_then(Vec::pop) {
                Some((top, inside)) if top == name => {
                    if name == "qd_step" {
                        enclosed.push(inside);
                    }
                }
                top => fail(problems, format!("unbalanced E for {name:?} on {key:?} (top {top:?})")),
            },
            _ => {}
        }
    }
    let want = SPANS_PER_QD_STEP - 1;
    let off: Vec<u64> = enclosed.iter().copied().filter(|&n| n != want).collect();
    if enclosed.is_empty() {
        fail(problems, "no qd_step span in trace.json".into());
    } else if !off.is_empty() {
        let (n, all, first) = (off.len(), enclosed.len(), off[0]);
        fail(problems, format!(
            "{n} of {all} qd_step spans do not enclose SPANS_PER_QD_STEP - 1 = {want} spans \
             (the first encloses {first})"
        ));
    }
    for (key, stack) in stacks {
        if !stack.is_empty() {
            fail(problems, format!("unclosed spans {stack:?} on {key:?}"));
        }
    }
}

/// The fault-injected supervised run at level `full`, its export, the
/// schema checks, and the profile library's flamegraph and attribution
/// table over the same stream.
fn run_trace_check() -> Vec<String> {
    let mut problems = Vec::new();

    // A device model makes every logged BLAS call carry a modelled
    // device time, which feeds the simulated kernel track below.
    let _model = xe_gpu::install_default_model();
    verbose::set_recording(true);
    install_fault_plan(cgemm_fault());
    // Recording is over before anything is exported, as in a harness that
    // wraps only the run in `with_level`: the ledger header must still name
    // the level its rows were recorded at (`check_ledger` checks it).
    let (out, records, tracer, events) = telemetry::with_level(TelemetryLevel::Full, || {
        let out = run_supervised::<f32>(
            &tiny_deck(),
            ComputeMode::FloatToBf16,
            &SupervisorConfig::default(),
        );
        // Fold the call record's modelled device times into the
        // unitrace-style tracer: each kernel lands on the telemetry device
        // track too.
        let records = verbose::drain();
        let mut tracer = xe_gpu::Tracer::new();
        tracer.extend(&records);
        (out, records, tracer, sink::drain())
    });
    clear_fault_plan();
    verbose::set_recording(false);
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            fail(&mut problems, format!("supervised run failed: {e:?}"));
            return problems;
        }
    };
    if out.escalations.is_empty() {
        fail(&mut problems, "fault-injected run never escalated".into());
    }
    eprintln!(
        "run: {} escalations, {} BLAS records ({} dropped), {:.3} simulated device seconds",
        out.escalations.len(),
        records.len(),
        verbose::dropped_records(),
        tracer.total_seconds()
    );
    if sink::dropped_events() > 0 {
        eprintln!("note: sink dropped {} events (ring full)", sink::dropped_events());
    }

    // --- export the three artifacts ---
    let jsonl = export::jsonl(&events);
    let trace = export::chrome_trace(&[&jsonl]);
    let ledger_text = telemetry::ledger::ledger_json();

    // --- schema checks ---
    match export::parse_jsonl(&jsonl) {
        Ok(lines) => {
            // Line 0 is the synthetic `telemetry_meta` instant the
            // exporter prepends: the clock key, the rank, and what the
            // recorder lost.
            if lines.len() != events.len() + 1 {
                fail(&mut problems, "JSONL line count != event count + meta line".into());
            }
            match lines.first() {
                Some(meta)
                    if meta.get("name").and_then(JsonValue::as_str) == Some("telemetry_meta") =>
                {
                    let args = meta.get("args");
                    for field in ["run_epoch", "rank", "dropped_events", "truncated_attrs"] {
                        if args.and_then(|a| a.get(field)).is_none() {
                            fail(&mut problems, format!("telemetry_meta missing {field:?}"));
                        }
                    }
                }
                _ => fail(&mut problems, "events.jsonl does not start with telemetry_meta".into()),
            }
            for (i, l) in lines.iter().enumerate() {
                for field in ["seq", "ts_ns", "kind", "name", "track", "tid", "args"] {
                    if l.get(field).is_none() {
                        fail(&mut problems, format!("events.jsonl line {i} missing {field:?}"));
                        break;
                    }
                }
            }
        }
        Err(e) => fail(&mut problems, format!("events.jsonl does not parse: {e:?}")),
    }

    let doc = match telemetry::json::parse(&trace) {
        Ok(d) => d,
        Err(e) => {
            fail(&mut problems, format!("trace.json is not valid JSON: {e:?}"));
            return problems;
        }
    };
    let rows = match doc.get("traceEvents").and_then(JsonValue::as_array) {
        Some(r) => r,
        None => {
            fail(&mut problems, "trace.json has no traceEvents array".into());
            return problems;
        }
    };
    check_trace_rows(rows, &mut problems);

    let has = |pred: &dyn Fn(&JsonValue) -> bool| rows.iter().any(pred);
    let named = |name: &str, r: &JsonValue| {
        r.get("name").and_then(JsonValue::as_str) == Some(name)
            && r.get("ph").and_then(JsonValue::as_str) != Some("M")
    };
    if !has(&|r| named("escalation", r)) {
        fail(&mut problems, "no escalation event in trace.json".into());
    }
    if !has(&|r| named("burst", r)) {
        fail(&mut problems, "no burst span in trace.json".into());
    }
    if !has(&|r| {
        named("CGEMM", r)
            && r.get("args").map(|a| a.get("mode").is_some() && a.get("m").is_some())
                == Some(true)
    }) {
        fail(&mut problems, "no CGEMM span with mode/shape attributes".into());
    }
    if !has(&|r| {
        r.get("pid").and_then(JsonValue::as_f64) == Some(export::device_pid(0) as f64)
            && r.get("ph").and_then(JsonValue::as_str) == Some("X")
    }) {
        fail(&mut problems, "no simulated device kernel track in trace.json".into());
    }
    check_ledger(&ledger_text, &mut problems);

    // --- the profile library over the same stream ---
    let trace = ingest::ingest_jsonl(&jsonl);
    for w in &trace.warnings {
        eprintln!("trace warning: {w}");
    }
    let burst_root = fold::FoldOptions { root: Some("burst".into()), ..Default::default() };
    let svg = flame::render_svg(&flame::build_tree(&fold::fold(&trace, &burst_root)), "events");
    if !svg.contains("CGEMM") {
        fail(&mut problems, "the flamegraph rooted at burst shows no CGEMM frame".into());
    }
    let rows = table::gemm_table(&trace);
    let rendered = table::render_gemm_table(&rows);
    eprint!("{rendered}");
    if !rendered.contains("CGEMM") {
        fail(&mut problems, "the GEMM attribution table has no CGEMM row".into());
    }
    check_attribution(&rows, &mut problems);
    problems
}

/// Element domain of a BLAS routine name, for pricing trace rows.
fn domain_for(routine: &str) -> Option<Domain> {
    match routine {
        "SGEMM" => Some(Domain::Real32),
        "DGEMM" => Some(Domain::Real64),
        "CGEMM" | "CHERK" => Some(Domain::Complex32),
        "ZGEMM" | "ZHERK" | "ZGEMMT" => Some(Domain::Complex64),
        _ => None,
    }
}

/// Checks every trace-derived GEMM row that carries a modelled device
/// time against the direct device-model path: its mean device seconds and
/// its speed-up over FP32 must each agree within
/// [`ATTRIBUTION_TOLERANCE_PCT`]. No checkable row is a problem too.
fn check_attribution(rows: &[table::CallRow], problems: &mut Vec<String>) {
    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let pct = |got: f64, want: f64| 100.0 * (got - want).abs() / want.max(1e-30);
    let mut checked = 0u32;
    for r in rows {
        let (Some(dev), Some(domain), Ok(mode)) =
            (r.mean_device_s, domain_for(&r.routine), ComputeMode::from_env_value(&r.mode))
        else {
            continue;
        };
        let (m, n, k) = (r.m as usize, r.n as usize, r.k as usize);
        let row = format!("{} {} ({m}, {n}, {k})", r.routine, r.mode);
        checked += 1;
        let direct = model.gemm_seconds(&GemmDesc { domain, m, n, k, mode });
        let err = pct(dev, direct);
        eprintln!("attribution {row}: device {dev:.3e}s vs model {direct:.3e}s ({err:.2}%)");
        if err > ATTRIBUTION_TOLERANCE_PCT {
            fail(problems, format!("{row}: trace device time is {err:.2}% off the model"));
        }
        if let Some(speedup) = r.speedup_vs_fp32 {
            let direct = model.gemm_speedup_vs_fp32(domain, m, n, k, mode);
            let err = pct(speedup, direct);
            if err > ATTRIBUTION_TOLERANCE_PCT {
                fail(problems, format!("{row}: trace speedup is {err:.2}% off the model"));
            }
        }
    }
    if checked == 0 {
        fail(problems, "no trace GEMM row carried a modelled device time".into());
    }
}

/// Reads `ledger.json` back through the ledger's own strict reader
/// (`ledger::parse_ledger`: the schema version, every header and entry
/// field, `meta.rows`), then demands the rows were recorded at `full`
/// and the injected CGEMM fault was attributed end to end: the BLAS
/// layer's non-finite probe must have flagged the CGEMM callsite, and the
/// supervisor's escalation must have landed on that same row rather than
/// the anonymous `supervisor/burst` fallback.
fn check_ledger(ledger_text: &str, problems: &mut Vec<String>) {
    let (meta, rows) = match telemetry::ledger::parse_ledger(ledger_text) {
        Ok((meta, rows)) if !rows.is_empty() => (meta, rows),
        Ok(_) => return fail(problems, "ledger.json has no entries".into()),
        Err(e) => return fail(problems, format!("ledger.json: {e}")),
    };
    let level = meta.telemetry_level;
    if level != TelemetryLevel::Full.env_value() {
        fail(problems, format!("ledger.json: rows recorded at full but the header says {level:?}"));
    }
    let cgemm: Vec<&Row> = rows.iter().filter(|r| r.callsite.contains("cgemm")).collect();
    match cgemm.iter().find(|r| r.mode == "FLOAT_TO_BF16").map(|r| r.stats.calls) {
        None => fail(problems, "ledger.json: no cgemm FLOAT_TO_BF16 entry".into()),
        Some(0) => fail(problems, "ledger.json: cgemm FLOAT_TO_BF16 entry has no calls".into()),
        Some(_) => {}
    }
    if !cgemm.iter().any(|r| r.stats.nonfinite_outputs >= 1 && r.stats.escalations >= 1) {
        let none = "no cgemm entry with nonfinite_outputs >= 1 and escalations >= 1";
        fail(problems, format!("ledger.json: injected CGEMM fault was not attributed ({none})"));
    }
}

/// Runs one supervised pass of the tiny deck at level `full` and leaves
/// its precision ledger as `<dir>/ledger.json`, shaped like a run
/// directory `dcmesh_profile::archive::collect_run` can fold. Returns
/// the mode the supervisor settled on.
fn supervised_ledger_run(
    dir: &Path,
    faulted: bool,
    problems: &mut Vec<String>,
) -> Option<ComputeMode> {
    sink::clear();
    telemetry::ledger::clear();
    let _model = xe_gpu::install_default_model();
    if faulted {
        install_fault_plan(cgemm_fault());
    }
    let out = telemetry::with_level(TelemetryLevel::Full, || {
        run_supervised::<f32>(&tiny_deck(), ComputeMode::FloatToBf16, &SupervisorConfig::default())
    });
    clear_fault_plan();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            fail(problems, format!("supervised run in {} failed: {e:?}", dir.display()));
            return None;
        }
    };
    std::fs::create_dir_all(dir).expect("create run dir");
    std::fs::write(dir.join("ledger.json"), telemetry::ledger::ledger_json())
        .expect("write ledger.json");
    eprintln!(
        "{} run settled on {:?} ({} escalation(s))",
        if faulted { "faulted" } else { "clean" },
        out.final_mode,
        out.escalations.len()
    );
    Some(out.final_mode)
}

/// Clean + fault-injected runs of the same deck are archived and
/// advised over: the recommendation for the faulted CGEMM callsite must
/// be at least as precise as the mode the live supervisor settled on,
/// and the sentinel must flag the escalation-rate step at a CGEMM
/// callsite.
fn run_advise_gate(out_dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();

    let clean_dir = out_dir.join("clean");
    let fault_dir = out_dir.join("fault");
    let Some(_clean_mode) = supervised_ledger_run(&clean_dir, false, &mut problems) else {
        return problems;
    };
    let Some(settled) = supervised_ledger_run(&fault_dir, true, &mut problems) else {
        return problems;
    };
    if settled == ComputeMode::FloatToBf16 {
        fail(&mut problems, "faulted run never escalated past FLOAT_TO_BF16".into());
    }

    let runs_path = out_dir.join("archive").join("runs.jsonl");
    for dir in [&clean_dir, &fault_dir] {
        match archive::collect_run(dir, Some("FLOAT_TO_BF16+supervised")) {
            Ok(rec) => {
                if let Err(e) = archive::append(&runs_path, &rec) {
                    fail(&mut problems, format!("append: {e}"));
                }
            }
            Err(e) => fail(&mut problems, format!("collect {}: {e}", dir.display())),
        }
    }
    let (records, warnings) = match archive::read_archive(&runs_path) {
        Ok(rw) => rw,
        Err(e) => {
            fail(&mut problems, format!("read archive: {e}"));
            return problems;
        }
    };
    for w in warnings {
        fail(&mut problems, format!("archive warning: {w}"));
    }
    if records.len() != 2 {
        fail(&mut problems, format!("expected 2 archived runs, got {}", records.len()));
    }

    let plan = advise::advise(&records);
    eprint!("{}", advise::render_advice(&plan));
    let cgemm: Vec<_> = plan.plan.iter().filter(|c| c.callsite.contains("cgemm")).collect();
    if cgemm.is_empty() {
        fail(&mut problems, "no cgemm callsite in the advice plan".into());
    }
    for c in cgemm {
        if c.recommended_mode.escalation_rank() < settled.escalation_rank() {
            fail(
                &mut problems,
                format!(
                    "{} {} recommends {:?} (rank {}), less precise than the supervisor's \
                     settled {:?} (rank {})",
                    c.callsite,
                    c.shape,
                    c.recommended_mode,
                    c.recommended_mode.escalation_rank(),
                    settled,
                    settled.escalation_rank()
                ),
            );
        }
    }

    // The archive holds the clean run (0 escalations) followed by the
    // fault run (>= 1): a missed regression is the failure here.
    let groups = trend::build_groups(&records);
    let regressions = trend::detect(&groups);
    let report = trend::render_report(&groups, &regressions);
    eprint!("{report}");
    if regressions.is_empty() {
        fail(&mut problems, "trend flagged nothing on an archive with an escalation".into());
    }
    if !report.lines().any(|l| l.starts_with("REGRESSION escalation-rate") && l.contains("cgemm")) {
        fail(&mut problems, "trend missed the escalation-rate step at a cgemm callsite".into());
    }
    if trend::render_svg(&groups, &regressions).is_empty() {
        fail(&mut problems, "the trend SVG is empty".into());
    }
    problems
}

#[test]
fn a_fault_injected_full_run_exports_checked_artifacts_and_profiles() {
    let problems = run_trace_check();
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn the_advisor_never_underbids_the_supervisor_and_the_sentinel_flags_the_escalation() {
    let dir = TempDir::new("advise");
    let problems = run_advise_gate(&dir.0);
    assert!(problems.is_empty(), "{problems:#?}");
}

fn row(mode: ComputeMode, device_s: f64, speedup: Option<f64>) -> table::CallRow {
    table::CallRow {
        routine: "CGEMM".to_string(),
        mode: mode.name().to_string(),
        m: 64,
        n: 64,
        k: 1000,
        calls: 3,
        mean_wall_s: 1e-3,
        mean_device_s: Some(device_s),
        speedup_vs_fp32: speedup,
    }
}

#[test]
fn attribution_beyond_five_percent_of_the_model_is_a_problem() {
    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let mode = ComputeMode::FloatToBf16;
    let desc = GemmDesc { domain: Domain::Complex32, m: 64, n: 64, k: 1000, mode };
    let (direct, speedup) = (
        model.gemm_seconds(&desc),
        model.gemm_speedup_vs_fp32(Domain::Complex32, 64, 64, 1000, mode),
    );
    let check = |rows: &[table::CallRow]| {
        let mut problems = Vec::new();
        check_attribution(rows, &mut problems);
        problems
    };
    assert!(check(&[row(mode, direct * 1.04, Some(speedup * 0.96))]).is_empty());
    assert_eq!(check(&[row(mode, direct * 1.06, Some(speedup))]).len(), 1);
    assert_eq!(check(&[row(mode, direct, Some(speedup * 1.06))]).len(), 1);
    assert_eq!(check(&[]).len(), 1, "nothing checked is a problem");
}

/// The gate used to check 11 members of an entry by hand, reading a
/// missing number as 0; the ledger's own reader requires all of them.
#[test]
fn a_ledger_entry_missing_any_field_is_a_problem() {
    use telemetry::ledger::{rows_json_with_meta, LedgerMeta, Stats};
    let row = Row {
        callsite: "lfd::qd_propagate/cgemm".to_string(),
        shape: "16x16x2048".to_string(),
        mode: "FLOAT_TO_BF16".to_string(),
        stats: Stats { calls: 9, nonfinite_outputs: 1, escalations: 1, ..Stats::default() },
    };
    let meta = LedgerMeta {
        version: telemetry::ledger::LEDGER_SCHEMA_VERSION,
        deck_hash: "-".to_string(),
        ranks: 1,
        telemetry_level: "full".to_string(),
        rows: 1,
    };
    let problems = |text: &str| {
        let mut problems = Vec::new();
        check_ledger(text, &mut problems);
        problems
    };
    let text = rows_json_with_meta(&meta, &[row]);
    assert_eq!(problems(&text), Vec::<String>::new());
    let JsonValue::Object(doc) = telemetry::json::parse(&text).unwrap() else {
        panic!("a ledger is an object");
    };
    let JsonValue::Object(entry) = &doc["entries"].as_array().unwrap()[0] else {
        panic!("an entry is an object");
    };
    assert_eq!(entry.len(), 15, "{entry:?}");
    for key in entry.keys() {
        let (mut torn, mut without) = (doc.clone(), entry.clone());
        without.remove(key);
        torn.insert("entries".into(), JsonValue::Array(vec![JsonValue::Object(without)]));
        let found = problems(&telemetry::json::dump(&JsonValue::Object(torn)));
        let named = format!("entries[0].{key}");
        assert!(found.len() == 1 && found[0].contains(&named), "{key}: {found:?}");
    }
}
