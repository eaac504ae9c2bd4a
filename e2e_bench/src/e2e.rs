//! The end-to-end pass: supervised runs of one workload, all six modes,
//! rotated sweep after sweep until the time budget is spent, with the
//! harness's own tracing off.

use crate::report::Checks;
use crate::workload::{Workload, MODES};
use dcmesh::analysis::{DeviationSeries, Metric};
use dcmesh::config::RunConfig;
use dcmesh::supervisor::{rollback_counter, run_supervised_observed, BurstObserver};
use dcmesh::RunError;
use dcmesh_lfd::StepObservables;
use dcmesh_telemetry as telemetry;
use mkl_lite::ComputeMode;
use std::path::Path;
use std::time::Instant;

/// Times `burst_starting` → `burst_committed`, the window that holds the
/// supervisor snapshot, the QD steps, the boundary SCF + MD step, the
/// guard rails and the checkpoint write.
struct BurstClock {
    run_start: Instant,
    setup_s: Option<f64>,
    burst_start: Option<(Instant, u64)>,
    /// Milliseconds per QD step, one sample per burst.
    step_ms: Vec<f64>,
}

impl BurstObserver for BurstClock {
    fn burst_starting(&mut self, _burst_index: u64, steps_done: u64) {
        let now = Instant::now();
        self.setup_s
            .get_or_insert((now - self.run_start).as_secs_f64());
        self.burst_start = Some((now, steps_done));
    }

    fn burst_committed(&mut self, _burst_index: u64, steps_done: u64) {
        let (start, steps_before) = self.burst_start.take().expect("committed without starting");
        let steps = steps_done.saturating_sub(steps_before).max(1);
        self.step_ms
            .push(start.elapsed().as_secs_f64() * 1e3 / steps as f64);
    }
}

/// What one supervised mode-run produced.
pub struct ModeRun {
    pub setup_s: f64,
    pub step_ms: Vec<f64>,
    /// Deck parse → run returned and (guarded) artifacts exported.
    pub wall_s: f64,
    pub records: Vec<StepObservables>,
    /// Escalations + rollbacks + SDC recoveries; a clean run has none.
    pub incidents: u64,
    /// `telemetry::sink` events the guard rails dropped (guarded only).
    pub dropped_events: u64,
}

/// Turns the workload's guard rails on for the duration of `f` and back
/// off afterwards, so untimed reference runs in the same process take
/// the plain path.
pub fn with_guard_rails<R>(workload: &Workload, f: impl FnOnce() -> R) -> R {
    if !workload.guarded {
        return f();
    }
    let _model = xe_gpu::install_default_model();
    mkl_lite::verbose::set_recording(true);
    let out = telemetry::with_level(telemetry::TelemetryLevel::Full, f);
    mkl_lite::verbose::set_recording(false);
    mkl_lite::device::clear_device_model();
    out
}

/// Drains what the guard rails collected during one run into
/// `events.jsonl` + `ledger.json` under `dir` — the export a guarded
/// production run pays for — and returns the sink's drop count.
pub fn export_guard_artifacts(dir: &Path) -> std::io::Result<u64> {
    let dropped = telemetry::sink::dropped_events();
    let events = telemetry::sink::drain();
    std::fs::write(dir.join("events.jsonl"), telemetry::export::jsonl(&events))?;
    std::fs::write(dir.join("ledger.json"), telemetry::ledger::ledger_json())?;
    mkl_lite::verbose::clear();
    telemetry::sink::clear();
    telemetry::ledger::clear();
    Ok(dropped)
}

/// One independent supervised run of `deck_text` under `mode`. The clock
/// starts before the deck is parsed; `scratch` receives checkpoints and
/// guard-rail artifacts and is emptied of checkpoints afterwards (a
/// leftover checkpoint would turn the next run into a resume).
pub fn mode_run(
    workload: &Workload,
    deck_text: &str,
    mode: ComputeMode,
    scratch: &Path,
) -> Result<ModeRun, RunError> {
    let ck_dir = scratch.join("ck");
    let rollbacks_before = rollback_counter().get();
    let run_start = Instant::now();
    let cfg = RunConfig::parse(deck_text)?;
    let sup = workload.supervisor_config(&ck_dir);
    let mut clock = BurstClock {
        run_start,
        setup_s: None,
        burst_start: None,
        step_ms: Vec::new(),
    };
    let run = run_supervised_observed::<f32>(&cfg, mode, &sup, &mut clock)?;
    let dropped_events = if workload.guarded {
        export_guard_artifacts(scratch)?
    } else {
        0
    };
    let wall_s = run_start.elapsed().as_secs_f64();
    if workload.checkpoints {
        std::fs::remove_dir_all(&ck_dir)?;
    }
    let incidents = run.escalations.len() as u64
        + run.sdc_recoveries
        + (rollback_counter().get() - rollbacks_before);
    Ok(ModeRun {
        setup_s: clock.setup_s.unwrap_or(wall_s),
        step_ms: clock.step_ms,
        wall_s,
        records: run.result.records,
        incidents,
        dropped_events,
    })
}

/// Decimal digits of agreement of the kinetic-energy trajectory with the
/// STANDARD run's, capped at 17 (bit-identical trajectories).
pub fn ekin_digits(run: &[StepObservables], standard: &[StepObservables]) -> f64 {
    let dev = DeviationSeries::build(Metric::Ekin, run, standard).max_relative();
    if dev > 0.0 {
        (-dev.log10()).min(17.0)
    } else {
        17.0
    }
}

/// Bitwise equality of two run records.
pub fn same_bits(a: &[StepObservables], b: &[StepObservables]) -> bool {
    let bits = |o: &StepObservables| {
        [
            o.ekin, o.epot, o.etot, o.eexc, o.nexc, o.aext, o.javg, o.time_fs,
        ]
        .map(f64::to_bits)
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.step == y.step && bits(x) == bits(y))
}

fn all_finite(records: &[StepObservables]) -> bool {
    records.iter().all(|o| {
        [o.ekin, o.epot, o.etot, o.eexc, o.nexc, o.aext, o.javg]
            .iter()
            .all(|v| v.is_finite())
    })
}

/// Per-mode floors on `ekin_digits` (index-aligned with `MODES[1..]`).
const EKIN_FLOORS: [f64; 5] = [2.5, 4.5, 5.0, 3.0, 5.0];

/// How far BF16X2 may read above BF16X3 before the ordering check fails.
/// The maximum relative deviation over a 10–100 step deck is dominated by
/// rounding noise: over 160 runs (40 seeds per workload) BF16X2 came
/// within 0.19 digits *above* BF16X3, so a slack of 0.3 digits would
/// fail an unlucky seed every few hundred runs.
const EKIN_ORDER_SLACK: f64 = 0.5;

/// Raw samples of the end-to-end pass; `report` turns them into the 14
/// metrics.
pub struct E2eSamples {
    /// Per sweep: one per mode-run.
    pub setup_s: Vec<Vec<f64>>,
    /// Per mode (index into `MODES`), per sweep: one per burst.
    pub step_ms: [Vec<Vec<f64>>; 6],
    /// Per mode, per sweep: the mode-run's full wall (deck parse → run
    /// returned and artifacts exported).
    pub run_wall_s: [Vec<f64>; 6],
    /// QD steps one sweep advances (6 × the deck's `total_qd_steps`).
    pub sweep_steps: f64,
    /// Per alternative mode (`MODES[1..]`), from the first sweep.
    pub ekin_digits: [f64; 5],
    pub peak_rss_mb: f64,
    pub sweeps: usize,
    pub bursts: u64,
    pub dropped_events: u64,
    /// Wall time of the measured sweeps.
    pub measured_s: f64,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Runs the end-to-end pass: sweeps of the six modes until another one
/// would overrun `seconds`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    checks: &mut Checks,
) -> Result<E2eSamples, RunError> {
    std::fs::create_dir_all(scratch)?;
    let deck_text = workload.deck_text(seed, None);
    let total_steps = RunConfig::parse(&deck_text)?.total_qd_steps as f64;

    // Untimed: one 1-burst STANDARD run grows the thread-local BLAS
    // workspace pool, the QD scratch and (guarded) the telemetry statics
    // to the problem size, so no measured run pays first-touch cost.
    let warm_deck = workload.deck_text(seed, Some(1));
    with_guard_rails(workload, || {
        mode_run(workload, &warm_deck, ComputeMode::Standard, scratch)
    })?;

    // Untimed, guarded only: the same deck with the guard rails off is
    // the `pto40-small` run of this seed; guard rails must not move bits.
    let unguarded: Option<Vec<Vec<StepObservables>>> = if workload.guarded {
        let plain = Workload {
            guarded: false,
            ..*workload
        };
        let mut refs = Vec::new();
        for (mode, _) in MODES {
            refs.push(mode_run(&plain, &deck_text, mode, scratch)?.records);
        }
        Some(refs)
    } else {
        None
    };

    let mut samples = E2eSamples {
        setup_s: Vec::new(),
        step_ms: Default::default(),
        run_wall_s: Default::default(),
        sweep_steps: MODES.len() as f64 * total_steps,
        ekin_digits: [0.0; 5],
        peak_rss_mb: 0.0,
        sweeps: 0,
        bursts: 0,
        dropped_events: 0,
        measured_s: 0.0,
    };
    let mut first_records: Vec<Vec<StepObservables>> = vec![Vec::new(); MODES.len()];
    let measure_start = Instant::now();
    loop {
        let sweep = samples.sweeps;
        let sweep_start = Instant::now();
        samples.setup_s.push(Vec::new());
        // Sweep r starts at mode r mod 6, so no mode always runs first
        // (cold caches) or last (after the longest-running neighbour).
        for i in 0..MODES.len() {
            let m = (sweep + i) % MODES.len();
            let (mode, suffix) = MODES[m];
            let run = with_guard_rails(workload, || mode_run(workload, &deck_text, mode, scratch))?;
            samples.run_wall_s[m].push(run.wall_s);
            samples.setup_s[sweep].push(run.setup_s);
            samples.bursts += run.step_ms.len() as u64;
            samples.dropped_events += run.dropped_events;
            samples.step_ms[m].push(run.step_ms);
            checks.incidents(suffix, run.incidents);
            if sweep == 0 {
                checks.check("finite", suffix, all_finite(&run.records));
                if let Some(refs) = &unguarded {
                    checks.check(
                        "guard-rails-keep-bits",
                        suffix,
                        same_bits(&run.records, &refs[m]),
                    );
                }
                first_records[m] = run.records;
            } else {
                // Deterministic program, same input: every sweep must
                // reproduce the first one bit for bit.
                checks.check(
                    "repeats-exactly",
                    suffix,
                    same_bits(&run.records, &first_records[m]),
                );
            }
        }
        samples.sweeps += 1;
        let elapsed = measure_start.elapsed().as_secs_f64();
        // Stop when another sweep like the last one would overrun.
        if elapsed + sweep_start.elapsed().as_secs_f64() > seconds {
            samples.measured_s = elapsed;
            break;
        }
    }

    let standard = &first_records[0];
    for (k, floor) in EKIN_FLOORS.iter().enumerate() {
        let digits = ekin_digits(&first_records[k + 1], standard);
        samples.ekin_digits[k] = digits;
        checks.check("ekin-floor", MODES[k + 1].1, digits >= *floor);
    }
    let [bf16, x2, x3, ..] = samples.ekin_digits;
    checks.check(
        "ekin-order",
        "bf16<bf16x2<=bf16x3+0.5",
        bf16 < x2 && x2 <= x3 + EKIN_ORDER_SLACK,
    );
    samples.peak_rss_mb = peak_rss_mb()?;
    Ok(samples)
}
