//! `telemetry_check`: produces and validates the telemetry artifacts CI
//! gates on.
//!
//! Default mode runs a short **fault-injected supervised run** at
//! telemetry level `full` — NaNs injected into CGEMM under
//! `FLOAT_TO_BF16` force one rollback + escalation — then exports and
//! schema-checks the three artifacts:
//!
//! * `events.jsonl` — every line parses as JSON with the JSONL schema
//!   fields (`seq`, `ts_ns`, `kind`, `name`, `track`, `tid`, `args`), and
//!   the `telemetry_meta` header carries `run_epoch`, `rank` and the
//!   recorder's loss counts `dropped_events` and `truncated_attrs`;
//! * `trace.json` — Chrome trace-event JSON (Perfetto-loadable): valid
//!   JSON, balanced `B`/`E` nesting per `(pid, tid)`, monotonic
//!   timestamps per track, the escalation instant on record, BLAS call
//!   spans carrying mode/shape attributes, burst spans, and the
//!   simulated `xe-gpu` kernel timeline as a second process track;
//! * `ledger.json` — the per-(callsite, shape-class, mode)
//!   accuracy/cost ledger (schema-versioned; see
//!   `dcmesh_telemetry::ledger`).
//!
//! It then checks trace attribution on the very `events.jsonl` it wrote:
//! the per-(routine, mode, shape) GEMM table `profile table` derives from
//! the call spans (through the `dcmesh-profile` ingester) must give every
//! row the mean device time and FP32 speed-up the `xe-gpu` model prices
//! that shape at directly, within [`ATTRIBUTION_TOLERANCE_PCT`].
//!
//! It also demands the ledger *attributed* the injected fault: the CGEMM
//! callsite's FLOAT_TO_BF16 entry must carry the non-finite-output
//! detection and the resulting escalation — the end-to-end check that
//! the suspect-attribution chain (BLAS probe → supervisor decision →
//! ledger row) holds together — and that the document's header names the
//! level the run recorded at (`full`), not the level in force when it was
//! exported.
//!
//! `--overhead-gate` instead measures the **disabled path**: per-span
//! cost at `TELEMETRY=off` times the spans-per-QD-step count, as a
//! fraction of the measured QD-step time, and fails above
//! [`MAX_OVERHEAD_PCT`].
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
//! Usage: `telemetry_check [--out-dir DIR] [--overhead-gate]
//! [--advise-gate]`

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::{run_supervised, SupervisorConfig};
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_profile::{ingest, table};
use dcmesh_telemetry as telemetry;
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::{
    clear_fault_plan, install_fault_plan, verbose, ComputeMode, FaultKind, FaultPlan,
    FaultSite,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use telemetry::json::JsonValue;
use telemetry::ledger::Row;
use telemetry::{export, sink, TelemetryLevel};

/// Host spans opened per QD step: the step span, six sub-phase spans,
/// and nine BLAS call spans. Used to convert per-span disabled cost
/// into per-step overhead; the trace check holds it to every `qd_step`
/// span of the `full` trace.
const SPANS_PER_QD_STEP: u64 = 1 + 6 + 9;

/// How far, in percent, a trace-derived GEMM row's mean device time or
/// speed-up may sit from the device model's direct price.
const ATTRIBUTION_TOLERANCE_PCT: f64 = 5.0;

/// The most the disabled telemetry path may cost, in percent of a QD step.
const MAX_OVERHEAD_PCT: f64 = 2.0;

struct Options {
    out_dir: String,
    overhead_gate: bool,
    advise_gate: bool,
}

fn parse_args() -> Options {
    let mut o = Options {
        out_dir: "telemetry-artifacts".to_string(),
        overhead_gate: false,
        advise_gate: false,
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
            "--advise-gate" => o.advise_gate = true,
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

/// The artifact-producing pass: fault-injected supervised run at level
/// `full`, export, schema-check.
fn run_trace_check(out_dir: &Path) -> Vec<String> {
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

    let events = sink::drain();
    // Recording is over before anything is exported, as in a harness that
    // wraps only the run in `with_level`: the ledger header must still name
    // the level its rows were recorded at (`check_ledger` checks it).
    telemetry::set_level(TelemetryLevel::Off);
    if sink::dropped_events() > 0 {
        eprintln!("note: sink dropped {} events (ring full)", sink::dropped_events());
    }

    // --- export the three artifacts ---
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let jsonl = export::jsonl(&events);
    let trace = export::chrome_trace(&[&jsonl]);
    let ledger_text = telemetry::ledger::ledger_json();
    std::fs::write(out_dir.join("events.jsonl"), &jsonl).expect("write events.jsonl");
    std::fs::write(out_dir.join("trace.json"), &trace).expect("write trace.json");
    std::fs::write(out_dir.join("ledger.json"), &ledger_text).expect("write ledger.json");
    eprintln!("[wrote {}/{{events.jsonl, trace.json, ledger.json}}]", out_dir.display());

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

    let trace = ingest::ingest_jsonl(&jsonl);
    for w in &trace.warnings {
        eprintln!("trace warning: {w}");
    }
    let rows = table::gemm_table(&trace);
    eprint!("{}", table::render_gemm_table(&rows));
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
fn run_overhead_gate() -> Vec<String> {
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
         {overhead_ns:.0} ns vs {ns_per_step:.0} ns/qd_step = {pct:.4}% (limit {MAX_OVERHEAD_PCT}%)"
    );
    if !pct.is_finite() || pct > MAX_OVERHEAD_PCT {
        let limit = MAX_OVERHEAD_PCT;
        fail(&mut problems, format!("disabled-path overhead {pct:.4}% exceeds {limit}%"));
    }
    problems
}

fn main() {
    let o = parse_args();
    let problems = if o.overhead_gate {
        run_overhead_gate()
    } else if o.advise_gate {
        run_advise_gate(Path::new(&o.out_dir))
    } else {
        run_trace_check(Path::new(&o.out_dir))
    };
    if !problems.is_empty() {
        eprintln!("telemetry_check: {} problem(s)", problems.len());
        std::process::exit(1);
    }
    eprintln!("telemetry_check: OK");
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
