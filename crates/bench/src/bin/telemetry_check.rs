//! `telemetry_check`: produces and validates the telemetry artifacts CI
//! gates on.
//!
//! Default mode runs a short **fault-injected supervised run** at
//! telemetry level `full` — NaNs injected into CGEMM under
//! `FLOAT_TO_BF16` force one rollback + escalation — then exports and
//! schema-checks the three artifacts:
//!
//! * `events.jsonl` — every line parses as JSON with the JSONL schema
//!   fields (`seq`, `ts_ns`, `kind`, `name`, `track`, `tid`, `args`);
//! * `trace.json` — Chrome trace-event JSON (Perfetto-loadable): valid
//!   JSON, balanced `B`/`E` nesting per `(pid, tid)`, monotonic
//!   timestamps per track, the escalation instant on record, BLAS call
//!   spans carrying mode/shape attributes, burst spans, and the
//!   simulated `xe-gpu` kernel timeline as a second process track;
//! * `metrics.prom` — Prometheus text dump with the escalation/rollback
//!   counters, workspace-pool gauges, and the per-callsite ledger
//!   series;
//! * `ledger.json` — the per-(callsite, shape-class, mode)
//!   accuracy/cost ledger (schema-versioned; see
//!   `dcmesh_telemetry::ledger`).
//!
//! `--ledger-gate` additionally demands the ledger *attributed* the
//! injected fault: the CGEMM callsite's FLOAT_TO_BF16 entry must carry
//! the non-finite-output detection and the resulting escalation — the
//! end-to-end check that the suspect-attribution chain (BLAS probe →
//! supervisor decision → ledger row) holds together — and that the
//! document's header names the level the run recorded at (`full`), not
//! the level in force when it was exported.
//!
//! `--overhead-gate` instead measures the **disabled path**: per-span
//! cost at `TELEMETRY=off` times the spans-per-QD-step count, as a
//! fraction of the measured QD-step time. CI fails the gate above
//! `--max-overhead-pct` (default 2%).
//!
//! `--advise-gate` runs the offline-advisor loop end to end: a clean
//! supervised run and a fault-injected one (same deck, same
//! `FLOAT_TO_BF16` start mode) each export a `ledger.json`, both run
//! directories are archived into `runs.jsonl`, and
//! `dcmesh_profile::advise` is asked for a plan. The gate demands the
//! advisor's recommendation for the faulted CGEMM callsite is at least
//! as precise (by escalation rank) as the mode the live supervisor
//! actually settled on — the offline plan must never underbid the
//! online escalator. The plan is written to `advice.json`.
//!
//! Usage: `telemetry_check [--out-dir DIR] [--ledger-gate]
//! [--overhead-gate] [--max-overhead-pct F] [--advise-gate]`

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::{run_supervised, SupervisorConfig};
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_telemetry as telemetry;
use mkl_lite::{
    clear_fault_plan, install_fault_plan, verbose, workspace, ComputeMode, FaultKind, FaultPlan,
    FaultSite,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use telemetry::json::JsonValue;
use telemetry::{export, sink, TelemetryLevel};

/// Host spans opened per QD step: the step span, six sub-phase spans,
/// and nine BLAS call spans. Used to convert per-span disabled cost
/// into per-step overhead.
const SPANS_PER_QD_STEP: u64 = 1 + 6 + 9;

struct Options {
    out_dir: String,
    overhead_gate: bool,
    ledger_gate: bool,
    advise_gate: bool,
    max_overhead_pct: f64,
}

fn parse_args() -> Options {
    let mut o = Options {
        out_dir: "telemetry-artifacts".to_string(),
        overhead_gate: false,
        ledger_gate: false,
        advise_gate: false,
        max_overhead_pct: 2.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out-dir" => {
                o.out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --out-dir");
                    std::process::exit(2);
                })
            }
            "--overhead-gate" => o.overhead_gate = true,
            "--ledger-gate" => o.ledger_gate = true,
            "--advise-gate" => o.advise_gate = true,
            "--max-overhead-pct" => {
                o.max_overhead_pct =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("missing/invalid value for --max-overhead-pct");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

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

fn fail(problems: &mut Vec<String>, msg: String) {
    eprintln!("FAIL: {msg}");
    problems.push(msg);
}

/// Validates B/E nesting and per-(pid, tid) timestamp monotonicity over
/// the non-metadata rows of a parsed Chrome trace.
fn check_trace_rows(rows: &[JsonValue], problems: &mut Vec<String>) {
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
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
            "B" => stacks.entry(key).or_default().push(name),
            "E" => {
                let top = stacks.get_mut(&key).and_then(Vec::pop);
                if top.as_deref() != Some(name.as_str()) {
                    fail(problems, format!("unbalanced E for {name:?} on {key:?} (top {top:?})"));
                }
            }
            _ => {}
        }
    }
    for (key, stack) in stacks {
        if !stack.is_empty() {
            fail(problems, format!("unclosed spans {stack:?} on {key:?}"));
        }
    }
}

/// The artifact-producing pass: fault-injected supervised run at level
/// `full`, export, schema-check.
fn run_trace_check(out_dir: &Path, ledger_gate: bool) -> Vec<String> {
    let mut problems = Vec::new();
    telemetry::set_level(TelemetryLevel::Full);

    // A device model makes every logged BLAS call carry a modelled
    // device time, which feeds the simulated kernel track below.
    let _model = xe_gpu::install_default_model();
    verbose::set_recording(true);

    install_fault_plan(FaultPlan::new(7).with_site(
        FaultSite::every(1, FaultKind::Nan)
            .on_routine("CGEMM")
            .in_mode(ComputeMode::FloatToBf16),
    ));
    let cfg = tiny_deck();
    let out = run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
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

    // Fold the call record's modelled device times into the
    // unitrace-style tracer: each kernel lands on the telemetry device
    // track too.
    let records = verbose::drain();
    let mut tracer = xe_gpu::Tracer::new();
    tracer.extend(&records);
    eprintln!(
        "run: {} escalations, {} BLAS records ({} dropped), {:.3} simulated device seconds",
        out.escalations.len(),
        records.len(),
        verbose::dropped_records(),
        tracer.total_seconds()
    );

    workspace::publish_metrics();
    let events = sink::drain();
    // Recording is over before anything is exported, as in a harness that
    // wraps only the run in `with_level`: the ledger header must still name
    // the level its rows were recorded at (`--ledger-gate` checks it).
    telemetry::set_level(TelemetryLevel::Off);
    if sink::dropped_events() > 0 {
        eprintln!("note: sink dropped {} events (ring full)", sink::dropped_events());
    }

    // --- export the four artifacts ---
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let jsonl = export::jsonl(&events);
    let trace = export::chrome_trace(&events);
    // The ledger series ride in the same scrape body as the counters.
    let prom = format!("{}{}", export::prometheus_dump(), telemetry::ledger::prometheus_text());
    let ledger_text = telemetry::ledger::ledger_json();
    std::fs::write(out_dir.join("events.jsonl"), &jsonl).expect("write events.jsonl");
    std::fs::write(out_dir.join("trace.json"), &trace).expect("write trace.json");
    std::fs::write(out_dir.join("metrics.prom"), &prom).expect("write metrics.prom");
    std::fs::write(out_dir.join("ledger.json"), &ledger_text).expect("write ledger.json");
    eprintln!(
        "[wrote {}/{{events.jsonl, trace.json, metrics.prom, ledger.json}}]",
        out_dir.display()
    );

    // --- schema checks ---
    match export::parse_jsonl(&jsonl) {
        Ok(lines) => {
            // Line 0 is the synthetic `telemetry_meta` instant the
            // exporter prepends for the profile tooling.
            if lines.len() != events.len() + 1 {
                fail(&mut problems, "JSONL line count != event count + meta line".into());
            }
            match lines.first() {
                Some(meta)
                    if meta.get("name").and_then(JsonValue::as_str) == Some("telemetry_meta") =>
                {
                    let args = meta.get("args");
                    for field in ["run_epoch", "rank"] {
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
        r.get("pid").and_then(JsonValue::as_f64) == Some(export::DEVICE_PID as f64)
            && r.get("ph").and_then(JsonValue::as_str) == Some("X")
    }) {
        fail(&mut problems, "no simulated device kernel track in trace.json".into());
    }
    if !prom.contains("supervisor_escalations_total")
        || !prom.contains("mkl_pool_bytes_outstanding")
    {
        fail(&mut problems, "metrics.prom missing expected series".into());
    }
    // The loss-accounting gauges the profile ingester's coverage
    // warnings key off must always be present (zero or not).
    for series in
        ["telemetry_dropped_events", "telemetry_truncated_attrs", "mkl_verbose_dropped_records"]
    {
        if !prom.contains(series) {
            fail(&mut problems, format!("metrics.prom missing {series}"));
        }
    }

    check_ledger(&ledger_text, &prom, ledger_gate, &mut problems);
    problems
}

/// Schema-checks `ledger.json` and, under `--ledger-gate`, demands the
/// injected CGEMM fault was attributed end to end: the BLAS layer's
/// non-finite probe must have flagged the CGEMM callsite, and the
/// supervisor's escalation must have landed on that same row rather
/// than the anonymous `supervisor/burst` fallback.
fn check_ledger(ledger_text: &str, prom: &str, ledger_gate: bool, problems: &mut Vec<String>) {
    let doc = match telemetry::json::parse(ledger_text) {
        Ok(d) => d,
        Err(e) => {
            fail(problems, format!("ledger.json is not valid JSON: {e:?}"));
            return;
        }
    };
    if doc.get("version").and_then(JsonValue::as_f64)
        != Some(telemetry::ledger::LEDGER_SCHEMA_VERSION as f64)
    {
        fail(
            problems,
            format!(
                "ledger.json version != {} : {:?}",
                telemetry::ledger::LEDGER_SCHEMA_VERSION,
                doc.get("version")
            ),
        );
    }
    let entries = match doc.get("entries").and_then(JsonValue::as_array) {
        Some(e) if !e.is_empty() => e,
        _ => {
            fail(problems, "ledger.json has no entries".into());
            return;
        }
    };
    for (i, e) in entries.iter().enumerate() {
        for field in [
            "callsite",
            "shape",
            "mode",
            "calls",
            "wall_s",
            "escalations",
            "rollbacks",
            "nonfinite_outputs",
            "abft_checks",
            "abft_violations",
            "residuals",
        ] {
            if e.get(field).is_none() {
                fail(problems, format!("ledger.json entry {i} missing {field:?}"));
                break;
            }
        }
    }
    if !prom.contains("dcmesh_ledger_calls_total") {
        fail(problems, "metrics.prom missing dcmesh_ledger_calls_total".into());
    }
    if !ledger_gate {
        return;
    }
    let header_level =
        doc.get("meta").and_then(|m| m.get("telemetry_level")).and_then(JsonValue::as_str);
    if header_level != Some(TelemetryLevel::Full.env_value()) {
        fail(
            problems,
            format!("ledger-gate: rows recorded at \"full\" but the header says {header_level:?}"),
        );
    }
    let field_str =
        |e: &JsonValue, f: &str| e.get(f).and_then(JsonValue::as_str).unwrap_or("").to_string();
    let field_f64 = |e: &JsonValue, f: &str| e.get(f).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let cgemm_bf16 = entries.iter().find(|e| {
        field_str(e, "callsite").contains("cgemm") && field_str(e, "mode") == "FLOAT_TO_BF16"
    });
    match cgemm_bf16 {
        None => fail(problems, "ledger-gate: no cgemm FLOAT_TO_BF16 entry".into()),
        Some(e) => {
            if field_f64(e, "calls") < 1.0 {
                fail(problems, "ledger-gate: cgemm FLOAT_TO_BF16 entry has no calls".into());
            }
        }
    }
    let attributed = entries.iter().any(|e| {
        field_str(e, "callsite").contains("cgemm")
            && field_f64(e, "nonfinite_outputs") >= 1.0
            && field_f64(e, "escalations") >= 1.0
    });
    if !attributed {
        fail(
            problems,
            "ledger-gate: injected CGEMM fault was not attributed (no cgemm entry with \
             nonfinite_outputs >= 1 and escalations >= 1)"
                .into(),
        );
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
    telemetry::set_level(TelemetryLevel::Full);
    sink::clear();
    telemetry::ledger::clear();
    let _model = xe_gpu::install_default_model();
    if faulted {
        install_fault_plan(FaultPlan::new(7).with_site(
            FaultSite::every(1, FaultKind::Nan)
                .on_routine("CGEMM")
                .in_mode(ComputeMode::FloatToBf16),
        ));
    }
    let cfg = tiny_deck();
    let out = run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
    clear_fault_plan();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            fail(problems, format!("advise-gate: supervised run in {} failed: {e:?}", dir.display()));
            return None;
        }
    };
    std::fs::create_dir_all(dir).expect("create run dir");
    std::fs::write(dir.join("ledger.json"), telemetry::ledger::ledger_json())
        .expect("write ledger.json");
    eprintln!(
        "advise-gate: {} run settled on {:?} ({} escalation(s))",
        if faulted { "faulted" } else { "clean" },
        out.final_mode,
        out.escalations.len()
    );
    Some(out.final_mode)
}

/// The offline-advisor gate: clean + fault-injected runs of the same
/// deck are archived, advised over, and the recommendation for the
/// faulted CGEMM callsite must be at least as precise as the mode the
/// live supervisor settled on.
fn run_advise_gate(out_dir: &Path) -> Vec<String> {
    use dcmesh_profile::{advise, archive};
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
        fail(&mut problems, "advise-gate: faulted run never escalated past FLOAT_TO_BF16".into());
    }

    let runs_path = out_dir.join("archive").join("runs.jsonl");
    for dir in [&clean_dir, &fault_dir] {
        match archive::collect_run(dir, Some("FLOAT_TO_BF16+supervised")) {
            Ok(rec) => match archive::append(&runs_path, &rec) {
                Ok(_) => eprintln!(
                    "advise-gate: archived {} ({} ledger rows)",
                    rec.run_id,
                    rec.entries.len()
                ),
                Err(e) => fail(&mut problems, format!("advise-gate: append: {e}")),
            },
            Err(e) => {
                fail(&mut problems, format!("advise-gate: collect {}: {e}", dir.display()))
            }
        }
    }
    let (records, warnings) = match archive::read_archive(&runs_path) {
        Ok(rw) => rw,
        Err(e) => {
            fail(&mut problems, format!("advise-gate: read archive: {e}"));
            return problems;
        }
    };
    for w in warnings {
        fail(&mut problems, format!("advise-gate: archive warning: {w}"));
    }
    if records.len() != 2 {
        fail(&mut problems, format!("advise-gate: expected 2 archived runs, got {}", records.len()));
    }

    let plan = advise::advise(&records);
    std::fs::write(out_dir.join("advice.json"), advise::advice_json(&plan))
        .expect("write advice.json");
    eprint!("{}", advise::render_advice(&plan));
    let cgemm: Vec<_> = plan.plan.iter().filter(|c| c.callsite.contains("cgemm")).collect();
    if cgemm.is_empty() {
        fail(&mut problems, "advise-gate: no cgemm callsite in the advice plan".into());
    }
    for c in cgemm {
        if c.recommended_mode.escalation_rank() < settled.escalation_rank() {
            fail(
                &mut problems,
                format!(
                    "advise-gate: {} {} recommends {:?} (rank {}), less precise than the \
                     supervisor's settled {:?} (rank {})",
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
    problems
}

/// The disabled-path gate: measures ns/span at `off` and the QD-step
/// time, then bounds instrumentation overhead per step.
fn run_overhead_gate(max_pct: f64) -> Vec<String> {
    let mut problems = Vec::new();
    telemetry::set_level(TelemetryLevel::Off);

    // Per-span disabled cost: construction + drop of an inert guard.
    let reps = 4_000_000u32;
    let t0 = Instant::now();
    for i in 0..reps {
        let g = telemetry::span("overhead_probe");
        black_box(&g);
        drop(g);
        black_box(i);
    }
    let ns_per_span = t0.elapsed().as_nanos() as f64 / reps as f64;

    // QD-step time on the benchmark deck (`benches/qd_step.rs` params).
    let p = LfdParams {
        mesh: Mesh3::cubic(12, 0.6),
        n_orb: 16,
        n_occ: 8,
        dt: 0.02,
        vnl_strength: 0.2,
        taylor_order: 4,
        laser: LaserPulse { amplitude: 0.3, omega: 0.3, duration: 1e6, phase: 0.0 },
        induced_coupling: 0.0,
    };
    let mut st = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.2));
    let mut scratch = QdScratch::new(&p);
    for _ in 0..3 {
        black_box(qd_step(&p, &mut st, &mut scratch));
    }
    let steps = 20u32;
    let t0 = Instant::now();
    for _ in 0..steps {
        black_box(qd_step(&p, &mut st, &mut scratch).ekin);
    }
    let ns_per_step = t0.elapsed().as_nanos() as f64 / steps as f64;

    let overhead_ns = ns_per_span * SPANS_PER_QD_STEP as f64;
    let pct = 100.0 * overhead_ns / ns_per_step;
    eprintln!(
        "disabled path: {ns_per_span:.2} ns/span x {SPANS_PER_QD_STEP} spans/step = \
         {overhead_ns:.0} ns vs {ns_per_step:.0} ns/qd_step = {pct:.4}% (limit {max_pct}%)"
    );
    if !pct.is_finite() || pct > max_pct {
        fail(&mut problems, format!("disabled-path overhead {pct:.4}% exceeds {max_pct}%"));
    }
    problems
}

fn main() {
    let o = parse_args();
    let problems = if o.overhead_gate {
        run_overhead_gate(o.max_overhead_pct)
    } else if o.advise_gate {
        run_advise_gate(Path::new(&o.out_dir))
    } else {
        run_trace_check(Path::new(&o.out_dir), o.ledger_gate)
    };
    if !problems.is_empty() {
        eprintln!("telemetry_check: {} problem(s)", problems.len());
        std::process::exit(1);
    }
    eprintln!("telemetry_check: OK");
}
