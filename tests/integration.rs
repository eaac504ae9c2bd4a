//! Cross-crate integration tests: deck → runner → analysis pipeline,
//! device-model installation, the no-code-change mode switching the
//! paper's methodology rests on, and the isolation of two runs sharing
//! one process.

use dcmesh::analysis::{DeviationSeries, Metric};
use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::output::{read_csv, write_csv};
use dcmesh::runner::run_simulation;
use dcmesh_telemetry::{self as telemetry, EventKind, TelemetryLevel, Track};
use mkl_lite::{verbose, with_compute_mode, ComputeMode};

fn tiny() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 40;
    cfg.qd_steps_per_md = 20;
    cfg.laser_duration_fs = 0.02;
    cfg.laser_amplitude = 0.4;
    cfg
}

#[test]
fn full_pipeline_deck_to_deviations() {
    let deck = "
        system = pto40-small
        mesh = 10
        norb = 8
        nocc = 4
        total_qd_steps = 40
        qd_steps_per_md = 20
        laser_duration_fs = 0.02
        laser_amplitude = 0.4
    ";
    let cfg = RunConfig::parse(deck).expect("deck parses");
    let reference =
        with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg)).expect("run");
    let bf16 =
        with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg)).expect("run");

    for metric in Metric::FIGURE1 {
        let series = DeviationSeries::build(metric, &bf16.records, &reference.records);
        assert!(
            series.max_abs() > 0.0,
            "{} shows no BF16 deviation at all",
            metric.name()
        );
        // Scale against the metric's peak magnitude (pointwise relative
        // error is ill-posed for observables passing through zero).
        let scale = reference
            .records
            .iter()
            .map(|o| metric.get(o).abs())
            .fold(0.0f64, f64::max)
            .max(1e-30);
        assert!(
            series.max_abs() / scale < 0.2,
            "{} BF16 deviation implausibly large: {} of scale {scale}",
            metric.name(),
            series.max_abs()
        );
    }
}

#[test]
fn csv_roundtrip_preserves_run_record() {
    let cfg = tiny();
    let run =
        with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg)).expect("run");
    let mut buf = Vec::new();
    write_csv(&mut buf, &run.records).expect("write");
    let back = read_csv(std::str::from_utf8(&buf).expect("utf8")).expect("parse");
    assert_eq!(back.len(), run.records.len());
    for (a, b) in back.iter().zip(&run.records) {
        assert_eq!(a.step, b.step);
        assert!((a.nexc - b.nexc).abs() <= 1e-10 * (1.0 + b.nexc.abs()));
    }
}

#[test]
fn device_model_prices_every_blas_call() {
    xe_gpu::install_default_model();
    let cfg = tiny();
    verbose::clear();
    verbose::set_recording(true);
    with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg)).expect("run");
    verbose::set_recording(false);
    let calls = verbose::drain();
    mkl_lite::device::clear_device_model();

    assert!(!calls.is_empty());
    let cgemms: Vec<_> = calls.iter().filter(|c| c.routine == "CGEMM").collect();
    assert_eq!(
        cgemms.len(),
        cfg.total_qd_steps * 9,
        "expected 9 CGEMMs per QD step"
    );
    for c in &cgemms {
        assert!(c.device_seconds.is_some(), "call missing modelled device time");
        assert!(c.device_seconds.unwrap() > 0.0);
    }
}

#[test]
fn identical_runs_are_bitwise_reproducible() {
    // Determinism underpins the whole deviation methodology: the same
    // deck under the same mode must reproduce exactly.
    let cfg = tiny();
    let a =
        with_compute_mode(ComputeMode::FloatToTf32, || run_simulation::<f32>(&cfg)).expect("run");
    let b =
        with_compute_mode(ComputeMode::FloatToTf32, || run_simulation::<f32>(&cfg)).expect("run");
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.ekin.to_bits(), y.ekin.to_bits(), "step {}", x.step);
        assert_eq!(x.nexc.to_bits(), y.nexc.to_bits(), "step {}", x.step);
        assert_eq!(x.javg.to_bits(), y.javg.to_bits(), "step {}", x.step);
    }
}

#[test]
fn fp64_run_matches_fp32_closely_but_not_exactly() {
    let cfg = tiny();
    let r32 =
        with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg)).expect("run");
    let r64 =
        with_compute_mode(ComputeMode::Standard, || run_simulation::<f64>(&cfg)).expect("run");
    let last32 = r32.last().expect("records");
    let last64 = r64.last().expect("records");
    let rel = (last32.ekin - last64.ekin).abs() / last64.ekin.abs().max(1e-30);
    assert!(rel < 1e-3, "FP32 vs FP64 kinetic energy differs by {rel}");
    assert_ne!(last32.ekin, last64.ekin, "precision change had no effect at all");
}

#[test]
fn paper_full_scale_decks_validate() {
    // The full-scale decks must construct (we never execute them on CPU,
    // but the performance model consumes their dimensions).
    for preset in [SystemPreset::Pto40, SystemPreset::Pto135] {
        let cfg = RunConfig::preset(preset);
        cfg.validate().expect("paper deck invalid");
        assert_eq!(cfg.lfd_params().validate(), Ok(()));
        assert_eq!(cfg.total_qd_steps, 21_000);
    }
}

#[test]
fn shipped_config_files_parse() {
    for name in ["pto40.in", "pto135.in", "pto40-small.in", "pto135-small.in"] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/");
        let text = std::fs::read_to_string(format!("{path}{name}"))
            .unwrap_or_else(|e| panic!("missing config {name}: {e}"));
        let cfg = RunConfig::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        cfg.validate().unwrap();
    }
}

#[test]
fn schedule_matches_executed_blas_calls_exactly() {
    // The device model prices the schedule; the propagator executes the
    // numerics. Both must describe the *same* nine BLAS calls — same
    // order, shapes and per-site compute modes — or the performance
    // figures would be priced for a different program than the one that
    // produced the accuracy figures.
    use dcmesh_lfd::policy::PrecisionPolicy;
    use dcmesh_lfd::propagator::{qd_step_with_policy, QdScratch};
    use dcmesh_lfd::schedule::{qd_step_schedule_with_policy, LfdPrecision, SystemShape};
    use dcmesh_lfd::state::cosine_potential;
    use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
    use xe_gpu::KernelDesc;

    let params = LfdParams {
        mesh: Mesh3::cubic(9, 0.6),
        n_orb: 6,
        n_occ: 3,
        dt: 0.02,
        vnl_strength: 0.2,
        taylor_order: 4,
        laser: LaserPulse::off(),
        induced_coupling: 0.0,
    };
    let policy = PrecisionPolicy::fast_propagation(ComputeMode::FloatToBf16);

    // Execute one QD step with call recording.
    let mut st = LfdState::<f32>::initialize(&params, cosine_potential(&params.mesh, 0.2));
    let mut scratch = QdScratch::new(&params);
    with_compute_mode(ComputeMode::Standard, || {
        qd_step_with_policy(&params, &mut st, &mut scratch, &policy); // warm-up
        verbose::clear();
        verbose::set_recording(true);
        qd_step_with_policy(&params, &mut st, &mut scratch, &policy);
        verbose::set_recording(false);
    });
    let calls = verbose::drain();

    // The schedule's GEMM entries, in order.
    let shape = SystemShape::of(&params);
    let schedule = qd_step_schedule_with_policy(
        shape,
        LfdPrecision::Fp32(ComputeMode::Standard),
        &policy,
    );
    let gemms: Vec<_> = schedule
        .iter()
        .filter_map(|k| match k {
            KernelDesc::Gemm(name, desc) => Some((*name, *desc)),
            _ => None,
        })
        .collect();

    assert_eq!(calls.len(), gemms.len(), "call count vs schedule");
    for (i, (call, (name, desc))) in calls.iter().zip(&gemms).enumerate() {
        assert_eq!(
            (call.m, call.n, call.k),
            (desc.m, desc.n, desc.k),
            "call {i} ({name}): executed shape differs from schedule"
        );
        assert_eq!(
            call.mode, desc.mode,
            "call {i} ({name}): executed mode differs from schedule"
        );
    }
}

/// What one supervised run leaves behind on its thread.
#[derive(Debug, PartialEq)]
struct RunTrace {
    /// Bit patterns of every recorded observable.
    bits: Vec<u64>,
    sdc_recoveries: u64,
    injected: u64,
    abft_checks: u64,
    /// The thread's call ring: (routine, m, n, k, mode, priced by a device model).
    calls: Vec<(&'static str, usize, usize, usize, ComputeMode, bool)>,
    /// The thread's ledger with its seconds zeroed: counts and attribution
    /// reproduce, times do not.
    ledger: Vec<telemetry::ledger::Row>,
    /// The ledger header's (deck hash, telemetry level), exported after the
    /// run's level override has ended.
    header: (String, String),
    /// The thread's event stream, in order, without its timestamps.
    events: Vec<(&'static str, EventKind, Track)>,
    /// (`B`, `E`) events of BLAS call spans: those named after a routine
    /// in the call ring.
    call_spans: (usize, usize),
}

impl RunTrace {
    fn instants(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.0 == name && e.1 == EventKind::Instant).count()
    }
}

/// Runs the tiny deck supervised at telemetry `level` on a fresh thread —
/// hence a fresh BLAS context and a fresh recorder — with call recording
/// on. `arm` sets up whatever else the run carries on that thread; the run
/// starts once `start` releases.
fn traced_run(
    mode: ComputeMode,
    level: TelemetryLevel,
    sup: dcmesh::SupervisorConfig,
    arm: impl FnOnce() + Send,
    start: &std::sync::Barrier,
) -> RunTrace {
    std::thread::scope(|s| {
        s.spawn(|| {
            arm();
            verbose::set_recording(true);
            start.wait();
            let run =
                telemetry::with_level(level, || dcmesh::run_supervised::<f32>(&tiny(), mode, &sup))
                    .expect("supervised run");
            let mut bits = Vec::new();
            for r in &run.result.records {
                bits.extend([r.ekin, r.epot, r.etot, r.eexc, r.nexc, r.javg].map(f64::to_bits));
            }
            let mut ledger = telemetry::ledger::snapshot();
            for row in &mut ledger {
                row.stats.wall_s = 0.0;
                row.stats.device_s = 0.0;
            }
            let meta = telemetry::ledger::current_meta(ledger.len() as u64);
            let events = telemetry::sink::drain();
            let calls = verbose::drain();
            let routines: std::collections::BTreeSet<_> = calls.iter().map(|c| c.routine).collect();
            let call_span = |kind| {
                events.iter().filter(|e| e.kind == kind && routines.contains(e.name)).count()
            };
            RunTrace {
                bits,
                sdc_recoveries: run.sdc_recoveries,
                injected: mkl_lite::fault::injected_fault_count(),
                abft_checks: mkl_lite::abft_check_count(),
                call_spans: (call_span(EventKind::SpanBegin), call_span(EventKind::SpanEnd)),
                calls: calls
                    .iter()
                    .map(|c| (c.routine, c.m, c.n, c.k, c.mode, c.device_seconds.is_some()))
                    .collect(),
                ledger,
                header: (meta.deck_hash, meta.telemetry_level),
                events: events.iter().map(|e| (e.name, e.kind, e.track)).collect(),
            }
        })
        .join()
        .expect("run thread")
    })
}

#[test]
fn two_concurrent_runs_in_one_process_match_their_solo_runs() {
    use mkl_lite::{FaultKind, FaultPlan, FaultSite};
    use std::sync::Barrier;

    for level in [TelemetryLevel::Full, TelemetryLevel::Events] {
        // B: a clean FP32 run with nothing but recording on.
        let run_b = |start: &Barrier| {
            let sup = dcmesh::SupervisorConfig::default();
            traced_run(ComputeMode::Standard, level, sup, || {}, start)
        };
        let solo = Barrier::new(1);
        let b_solo = run_b(&solo);
        assert_eq!((b_solo.injected, b_solo.abft_checks, b_solo.sdc_recoveries), (0, 0, 0));
        assert!(b_solo.calls.iter().all(|c| !c.5), "no model installed, nothing priced");
        assert_eq!(b_solo.header.1, level.env_value(), "the header names the recording level");
        assert!(b_solo.header.0.starts_with("0x"), "the supervisor stamped the deck hash");
        assert!(!b_solo.ledger.is_empty());
        for row in &b_solo.ledger {
            let s = &row.stats;
            assert_eq!(
                (s.abft_checks, s.abft_violations, s.nonfinite_outputs, s.escalations, s.rollbacks),
                (0, 0, 0, 0, 0),
                "clean run's ledger: {row:?}"
            );
        }
        assert_eq!(b_solo.instants("abft_violation") + b_solo.instants("escalation"), 0);
        // At `full` every call is one span; at `events` no call is a span
        // (the ledger above counts them all at both levels).
        match level {
            TelemetryLevel::Full => {
                let n = b_solo.calls.len();
                assert!(n > 0);
                assert_eq!(b_solo.call_spans, (n, n), "one B/E pair per ring record");
            }
            _ => assert_eq!(b_solo.call_spans, (0, 0), "no BLAS call span below full"),
        }
        let ledger_calls: u64 = b_solo.ledger.iter().map(|r| r.stats.calls).sum();
        assert_eq!(ledger_calls, b_solo.calls.len() as u64, "the ledger counts every call");

        // A: BF16 with every GEMM checksummed and priced, and a NaN planted
        // in a mid-run CGEMM. The routine sequence does not depend on the
        // mode, so B's ring says which GEMM-call index that is.
        let gemms: Vec<_> = b_solo.calls.iter().filter(|c| c.0.ends_with("GEMM")).collect();
        let target = (gemms.len() / 2..gemms.len())
            .find(|&i| gemms[i].0 == "CGEMM")
            .expect("a CGEMM in the second half of the run") as u64;
        let run_a = |start: &Barrier| {
            let sup = dcmesh::SupervisorConfig {
                abft_check_period: Some(1),
                ..dcmesh::SupervisorConfig::default()
            };
            let arm = || {
                xe_gpu::install_default_model();
                mkl_lite::install_fault_plan(FaultPlan::new(11).with_site(
                    FaultSite::once(target, FaultKind::Nan)
                        .on_routine("CGEMM")
                        .in_mode(ComputeMode::FloatToBf16),
                ));
            };
            traced_run(ComputeMode::FloatToBf16, level, sup, arm, start)
        };
        let a_solo = run_a(&solo);
        assert_eq!(a_solo.injected, 1, "the planted NaN must fire exactly once");
        assert!(a_solo.sdc_recoveries >= 1, "the checksum must catch it");
        assert!(a_solo.abft_checks as usize >= gemms.len());
        assert!(a_solo.calls.iter().all(|c| c.5), "every call priced by A's model");
        assert_ne!(a_solo.bits, b_solo.bits, "BF16 and FP32 runs must differ");
        // The ledger attributes the fault to the one row that caused it.
        let faulted: Vec<_> =
            a_solo.ledger.iter().filter(|r| r.stats.nonfinite_outputs > 0).collect();
        assert_eq!(faulted.len(), 1, "{faulted:?}");
        let (row, s) = (faulted[0], &faulted[0].stats);
        assert!(row.callsite.ends_with("/cgemm") && row.mode == "FLOAT_TO_BF16", "{row:?}");
        assert_eq!((s.nonfinite_outputs, s.abft_violations, s.rollbacks), (1, 1, 1), "{row:?}");
        let checks: u64 = a_solo.ledger.iter().map(|r| r.stats.abft_checks).sum();
        assert_eq!(checks + 1, a_solo.abft_checks, "every check is on a row, one as a violation");
        assert_eq!(a_solo.instants("abft_violation"), 1);

        // Both at once, released together. Each must reproduce its solo run
        // to the bit and to the record — BLAS ring, ledger rows, header,
        // event stream and call-span count: B sees none of A's faults,
        // checks, model, calls, rows or instants, and A none of B's.
        let together = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run_a(&together));
            let b = s.spawn(|| run_b(&together));
            (a.join().expect("run A"), b.join().expect("run B"))
        });
        assert_eq!(b, b_solo, "clean run disturbed by its faulty neighbour at {level:?}");
        assert_eq!(a, a_solo, "faulty run disturbed by its clean neighbour at {level:?}");
    }
}
