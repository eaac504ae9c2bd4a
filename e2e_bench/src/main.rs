//! `e2e_bench`: the repo's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! e2e_bench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! e2e_bench run   [--workload W] [--seed N] [--seconds S] [--out FILE]
//! e2e_bench trace [--workload W] [--seed N] [--seconds S] [--out FILE]
//! e2e_bench compare A.json B.json
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, in
//! this process, result object on the last stdout line. `run` / `trace`
//! start one such process per workload (BLAS and telemetry state is
//! process-global, and `VmHWM` is per process) and collect a dated,
//! host-stamped result set that `compare` reads.

mod compare;
mod e2e;
mod host;
mod layers;
mod report;
mod results;
mod spans;
mod stats;
mod workload;

use dcmesh_telemetry::json::{self, JsonValue};
use report::{Checks, Measured, MetricDef};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, MODES, WORKLOADS};

/// Environment the library reads lazily; a child must not inherit a
/// value that changes what is measured.
const SCRUBBED_ENV: [&str; 7] = [
    "MKL_BLAS_COMPUTE_MODE",
    "MKL_VERBOSE",
    "MKL_VERBOSE_BUFFER",
    "TELEMETRY",
    "TELEMETRY_BUFFER",
    "TELEMETRY_SAMPLE",
    "DCMESH_RANK",
];

/// Scratch lives next to the executable, i.e. inside the build
/// directory, which `.gitignore` already covers.
fn scratch_base() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .expect("executable has a parent directory")
        .join("e2e_bench.scratch")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e_bench --workload W --seed N --seconds S --trace 0|1 [--out FILE]\n\
         \x20      e2e_bench run|trace [--workload W] [--seed N] [--seconds S] [--out FILE]\n\
         \x20      e2e_bench compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::by_name(value)?),
            "--seed" => out.seed = value.parse().ok()?,
            "--seconds" => out.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => out.out = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(out)
}

/// Folds the end-to-end samples into the 14 declared metrics.
fn e2e_metrics(samples: &e2e::E2eSamples) -> Measured {
    let mut m = Measured::default();
    m.set_repeats("setup_s", &samples.setup_s);
    for (i, (_, suffix)) in MODES.iter().enumerate() {
        m.set_repeats(format!("step_ms.{suffix}"), &samples.step_ms[i]);
    }
    // One sweep's wall is the sum of 6 × bursts samples, and on a busy
    // machine hardly any sweep escapes interference whole; so the
    // quiet-machine sweep is assembled from each mode's fastest run.
    // The per-sweep rates as measured are kept as the repeats.
    let rates: Vec<f64> = (0..samples.sweeps)
        .map(|r| samples.sweep_steps / samples.run_wall_s.iter().map(|w| w[r]).sum::<f64>())
        .collect();
    m.set_samples("sweep_steps_per_s", &rates);
    let quiet_sweep_s: f64 = samples.run_wall_s.iter().map(|w| stats::floor(w)).sum();
    m.set("sweep_steps_per_s", samples.sweep_steps / quiet_sweep_s);
    m.repeats.insert("sweep_steps_per_s".to_string(), rates);
    for (i, (_, suffix)) in MODES[1..].iter().enumerate() {
        m.set(format!("ekin_digits.{suffix}"), samples.ekin_digits[i]);
    }
    m.set("peak_rss_mb", samples.peak_rss_mb);
    m
}

/// One pass over one workload in this process.
fn one(workload: &'static Workload, args: &Args) -> ExitCode {
    // The library reads these lazily from the environment; pin them so a
    // stray variable cannot change what is measured.
    mkl_lite::set_compute_mode(mkl_lite::ComputeMode::Standard);
    dcmesh_telemetry::set_level(dcmesh_telemetry::TelemetryLevel::Off);
    if mkl_lite::config::verbose_level() > 0 {
        eprintln!("error: unset MKL_VERBOSE before benchmarking (it prints a line per BLAS call)");
        return ExitCode::from(2);
    }
    let base = scratch_base();
    let scratch = base.join(std::process::id().to_string());
    let mut checks = Checks::default();
    let start = Instant::now();
    let outcome: Result<(Vec<MetricDef>, Measured, String), dcmesh::RunError> = if args.trace {
        layers::run(workload, args.seed, args.seconds, &scratch, &mut checks).and_then(
            |(measured, spans)| {
                let path = base.join(format!("trace-{}.json", workload.name));
                std::fs::write(&path, spans::chrome_trace(&spans))?;
                let note = format!("{} spans -> {}", spans.len(), path.display());
                Ok((report::per_layer_defs(), measured, note))
            },
        )
    } else {
        e2e::run(workload, args.seed, args.seconds, &scratch, &mut checks).map(|samples| {
            checks.bursts(samples.bursts);
            let note = format!(
                "{} sweeps, {} bursts, {:.2} s measured, {} telemetry events dropped",
                samples.sweeps, samples.bursts, samples.measured_s, samples.dropped_events
            );
            (report::end_to_end_defs(), e2e_metrics(&samples), note)
        })
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (defs, measured, note) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "# {} seed {} trace {}: {note}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("# why: {}", workload.why);
    print!("{}", report::human_table(&defs, &measured));
    println!(
        "# checks: {} operations attempted, {} failed{}",
        checks.attempted,
        checks.failed,
        if checks.failed == 0 {
            " - all correctness checks passed"
        } else {
            ""
        }
    );
    for f in &checks.failures {
        println!("FAILED {f}");
    }
    if let Some(path) = &args.out {
        let detail = results::detail(
            workload.name,
            args.seed,
            args.seconds,
            wall_s,
            &defs,
            &measured,
            &checks,
        );
        if let Err(e) = std::fs::write(path, json::dump(&detail)) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&defs, &measured, &checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` / `trace`: one child process per workload, then the result set.
fn set(kind: &str, args: &Args) -> ExitCode {
    let base = scratch_base();
    if let Err(e) = std::fs::create_dir_all(&base) {
        eprintln!("error: {}: {e}", base.display());
        return ExitCode::FAILURE;
    }
    let mut host = host::identity();
    let stream = host::stream(3);
    host.insert(
        "peak_gflops_f32".into(),
        JsonValue::Number(host::peak_gflops_f32(5)),
    );
    host.insert("stream_gbps".into(), JsonValue::Number(stream.gbps));
    host.insert(
        "stream_array_bytes".into(),
        JsonValue::Number(stream.array_bytes as f64),
    );
    host.insert(
        "llc_bytes".into(),
        JsonValue::Number(stream.llc_bytes as f64),
    );

    let exe = std::env::current_exe().expect("current_exe");
    let chosen: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut collected = BTreeMap::new();
    let mut all_ok = true;
    for w in chosen {
        let detail_path = base.join(format!("detail-{kind}-{}.json", w.name));
        let _ = std::fs::remove_file(&detail_path);
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if kind == "trace" { "1" } else { "0" }])
            .arg("--out")
            .arg(&detail_path);
        for var in SCRUBBED_ENV {
            child.env_remove(var);
        }
        // `status` waits for the child; its stdout is ours.
        let ok = child.status().is_ok_and(|s| s.success());
        all_ok &= ok;
        match std::fs::read_to_string(&detail_path)
            .ok()
            .and_then(|t| json::parse(&t).ok())
        {
            Some(detail) => {
                collected.insert(w.name.to_string(), detail);
            }
            None => eprintln!("error: {} produced no result", w.name),
        }
    }
    let set = results::result_set(
        kind,
        args.seed,
        args.seconds,
        JsonValue::Object(host),
        collected,
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| base.join(format!("{kind}-seed{}.json", args.seed)));
    if let Err(e) = std::fs::write(&out, json::dump(&set) + "\n") {
        eprintln!("error: {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("# result set -> {}", out.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        },
        Some(kind @ ("run" | "trace")) => match parse_args(&args[1..]) {
            Some(parsed) => set(kind, &parsed),
            None => usage(),
        },
        _ => match parse_args(&args) {
            Some(parsed) => match parsed.workload {
                Some(w) => one(w, &parsed),
                None => usage(),
            },
            None => usage(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything that touches the BLAS / telemetry process statics lives
    /// in this one sequential test, so the target is green under the
    /// default parallel test harness: every workload, both passes, at
    /// 2 bursts × 2 QD steps.
    #[test]
    fn smoke_every_workload_both_passes() {
        mkl_lite::set_compute_mode(mkl_lite::ComputeMode::Standard);
        dcmesh_telemetry::set_level(dcmesh_telemetry::TelemetryLevel::Off);
        let scratch = scratch_base().join(format!("smoke-{}", std::process::id()));
        let mut calls_per_step = Vec::new();
        // Seed 2 only where it is cheap: the call count must not depend
        // on the seed.
        for (w, seeds) in WORKLOADS.iter().zip([&[1u64, 2][..], &[1], &[1], &[1]]) {
            let tiny = Workload {
                total_qd_steps: 4,
                qd_steps_per_md: 2,
                ..*w
            };
            for &seed in seeds {
                let mut checks = Checks::default();
                let samples = e2e::run(&tiny, seed, 0.01, &scratch, &mut checks)
                    .unwrap_or_else(|e| panic!("{} e2e: {e}", w.name));
                assert_eq!(samples.sweeps, 1, "a 10 ms budget admits exactly one sweep");
                assert_eq!(samples.bursts, 12, "six modes x two bursts");
                checks.bursts(samples.bursts);
                assert_eq!(checks.failures, Vec::<String>::new(), "{} e2e", w.name);
                let line = report::result_line(
                    &report::end_to_end_defs(),
                    &e2e_metrics(&samples),
                    &checks,
                );
                let doc = json::parse(&line).expect("result line is JSON");
                let metrics = doc.get("metrics").expect("metrics");
                for d in report::end_to_end_defs() {
                    let v = metrics
                        .get(&d.name)
                        .and_then(|m| m.get("value"))
                        .and_then(JsonValue::as_f64);
                    assert!(
                        v.is_some_and(|v| v.is_finite() && v > 0.0),
                        "{}: {} = {v:?}",
                        w.name,
                        d.name
                    );
                }

                let mut checks = Checks::default();
                let (measured, spans) = layers::run(&tiny, seed, 0.5, &scratch, &mut checks)
                    .unwrap_or_else(|e| panic!("{} trace: {e}", w.name));
                assert_eq!(checks.failures, Vec::<String>::new(), "{} trace", w.name);
                // Panics if any declared per-layer metric is missing.
                let line = report::result_line(&report::per_layer_defs(), &measured, &checks);
                assert!(line.contains(r#""correct":true"#));
                for (name, v) in &measured.values {
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                let trace = json::parse(&spans::chrome_trace(&spans)).expect("trace is JSON");
                let rows = trace
                    .get("traceEvents")
                    .and_then(JsonValue::as_array)
                    .expect("rows");
                assert_eq!(rows.len(), spans.len());
                if w.name == "pto40-small" {
                    calls_per_step.push(measured.values["blas.calls_per_step.standard"]);
                }
            }
        }
        assert_eq!(
            calls_per_step,
            [9.0, 9.0],
            "BLAS calls per step must not depend on the seed"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn argument_parsing() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload orb-heavy --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.map(|w| w.name), a.seed, a.seconds, a.trace),
            (Some("orb-heavy"), 7, 2.5, true)
        );
        let d = parse_args(&[]).expect("all flags are optional here");
        assert!(d.workload.is_none() && d.seed == 1 && !d.trace);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_none(), "{bad:?} must be rejected");
        }
    }
}
