//! Supervisor end-to-end: fault injection → divergence detection →
//! rollback → precision escalation → completed run with an audit trail.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::runner::run_simulation;
use dcmesh::supervisor::{run_supervised, SupervisorConfig};
use dcmesh::{HealthViolation, RunError};
use mkl_lite::fault::injected_fault_count;
use mkl_lite::{
    clear_fault_plan, install_fault_plan, with_compute_mode, ComputeMode, FaultKind, FaultPlan,
    FaultSite,
};

fn tiny() -> RunConfig {
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

#[test]
fn clean_supervised_run_matches_unsupervised_bit_for_bit() {
    let cfg = tiny();
    let plain = with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg))
        .expect("plain run");
    let sup = run_supervised::<f32>(&cfg, ComputeMode::Standard, &SupervisorConfig::default())
        .expect("supervised run");

    assert!(sup.escalations.is_empty(), "clean run must not escalate: {:?}", sup.escalations);
    assert_eq!(sup.final_mode, ComputeMode::Standard);
    assert_eq!(sup.result.records.len(), plain.records.len());
    for (a, b) in sup.result.records.iter().zip(&plain.records) {
        assert_eq!(a.ekin.to_bits(), b.ekin.to_bits(), "step {}", a.step);
        assert_eq!(a.nexc.to_bits(), b.nexc.to_bits(), "step {}", a.step);
    }
}

/// The acceptance scenario: a NaN injected into a mid-run GEMM under the
/// weak mode trips the health monitor; the supervisor rolls the burst
/// back, escalates one rung, and — because the fault is scoped to the
/// weak mode, modelling a matrix-engine-specific failure — completes the
/// deck cleanly, with the escalation on record.
#[test]
fn nan_injection_rolls_back_escalates_and_completes() {
    let cfg = tiny();
    let clean = with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg))
        .expect("clean FP32 run");

    let injected_before = injected_fault_count();
    install_fault_plan(FaultPlan::new(7).with_site(
        FaultSite::every(1, FaultKind::Nan)
            .on_routine("CGEMM")
            .in_mode(ComputeMode::FloatToBf16),
    ));
    let out = run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
    clear_fault_plan();
    let out = out.expect("supervised run should recover from the injected fault");

    assert!(injected_fault_count() > injected_before, "fault plan never fired");

    // Audit trail: exactly one escalation, off the poisoned mode.
    assert_eq!(out.escalations.len(), 1, "{:?}", out.escalations);
    let ev = &out.escalations[0];
    assert_eq!(ev.from, ComputeMode::FloatToBf16);
    assert_eq!(ev.to, ComputeMode::FloatToBf16x2);
    assert_eq!(ev.attempt, 1);
    assert!(
        matches!(ev.violation, HealthViolation::NonFinite { .. }),
        "expected a NaN detection, got {}",
        ev.violation
    );
    assert_eq!(out.final_mode, ComputeMode::FloatToBf16x2);

    // The completed run is whole, finite, and tracks the clean FP32
    // trajectory within the usual low-precision envelope.
    assert_eq!(out.result.records.len(), cfg.total_qd_steps);
    assert!(out.result.records.iter().all(|o| {
        o.ekin.is_finite() && o.etot.is_finite() && o.nexc.is_finite() && o.javg.is_finite()
    }));
    let got = out.result.last().expect("records");
    let want = clean.last().expect("records");
    let rel = (got.ekin - want.ekin).abs() / want.ekin.abs().max(1e-30);
    assert!(rel < 0.1, "escalated run drifted {rel} from the clean FP32 run");
}

#[test]
fn unescapable_fault_exhausts_the_ladder() {
    let cfg = tiny();

    // No mode scope: the fault follows the run up every rung.
    install_fault_plan(
        FaultPlan::new(11).with_site(FaultSite::every(1, FaultKind::Nan).on_routine("CGEMM")),
    );
    let out = run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
    clear_fault_plan();

    match out {
        Err(RunError::EscalationExhausted { mode, attempts, .. }) => {
            // BF16 -> x2 -> x3 -> TF32 -> FP32, still failing at FP32.
            assert_eq!(mode, ComputeMode::Standard);
            assert_eq!(attempts, 5);
        }
        other => panic!("expected EscalationExhausted, got {other:?}"),
    }
}

/// Satellite acceptance: a fault-injected supervised run at
/// `TELEMETRY=full` leaves the escalation (and its rollback) in the
/// exported Chrome trace, alongside burst spans and BLAS call spans
/// carrying mode/shape attributes.
#[test]
fn fault_injected_run_emits_escalation_in_trace() {
    use dcmesh_telemetry as telemetry;
    let cfg = tiny();
    telemetry::with_level(telemetry::TelemetryLevel::Full, || {
        install_fault_plan(FaultPlan::new(7).with_site(
            FaultSite::every(1, FaultKind::Nan)
                .on_routine("CGEMM")
                .in_mode(ComputeMode::FloatToBf16),
        ));
        let out =
            run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
        clear_fault_plan();
        let out = out.expect("supervised run should recover");
        assert_eq!(out.escalations.len(), 1);

        let events = telemetry::sink::drain();
        let esc = events.iter().find(|e| e.name == "escalation").expect("escalation event");
        assert_eq!(
            esc.attr("from"),
            Some(&telemetry::AttrValue::Str("FLOAT_TO_BF16")),
            "{esc:?}"
        );
        assert_eq!(
            esc.attr("to"),
            Some(&telemetry::AttrValue::Str("FLOAT_TO_BF16X2")),
            "{esc:?}"
        );
        assert!(events.iter().any(|e| e.name == "rollback"), "rollback event missing");
        assert!(events.iter().any(|e| e.name == "health_violation"), "violation event missing");

        let burst = events
            .iter()
            .find(|e| e.name == "burst" && e.kind == telemetry::EventKind::SpanBegin)
            .expect("burst span");
        assert!(burst.attr("burst_index").is_some() && burst.attr("mode").is_some());

        let blas = events
            .iter()
            .find(|e| e.name == "CGEMM" && e.kind == telemetry::EventKind::SpanBegin)
            .expect("BLAS call span");
        assert!(blas.attr("m").is_some() && blas.attr("k").is_some(), "{blas:?}");
        assert!(blas.attr("mode").is_some(), "{blas:?}");

        assert!(
            events
                .iter()
                .any(|e| e.name == "qd_step" && e.kind == telemetry::EventKind::SpanBegin),
            "qd_step spans missing"
        );

        // The whole thing exports to loadable Chrome-trace JSON with the
        // escalation on it.
        let trace = telemetry::export::chrome_trace(&events);
        telemetry::json::parse(&trace).expect("valid Chrome trace JSON");
        assert!(trace.contains("\"escalation\""), "escalation missing from trace");
    });
}

/// Satellite acceptance: with `deescalate_after` set, the supervisor
/// steps back down the ladder after clean bursts at the escalated mode
/// — and because this fault is scoped to the weak mode (it models a
/// persistent matrix-engine defect), the weak mode fails again on
/// re-entry and the supervisor re-escalates: the audit trail records the
/// full down-up-down history, and the default sticky policy stays
/// untouched (covered by the other tests, which never de-escalate).
#[test]
fn deescalation_steps_back_down_after_clean_bursts() {
    use dcmesh_telemetry as telemetry;
    let cfg = tiny(); // 3 bursts of 20 QD steps

    telemetry::with_level(telemetry::TelemetryLevel::Full, || {
        install_fault_plan(FaultPlan::new(7).with_site(
            FaultSite::every(1, FaultKind::Nan)
                .on_routine("CGEMM")
                .in_mode(ComputeMode::FloatToBf16),
        ));
        let sup = SupervisorConfig { deescalate_after: Some(1), ..SupervisorConfig::default() };
        let out = run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &sup);
        clear_fault_plan();
        let out = out.expect("supervised run should complete despite the persistent fault");

        // Every burst: BF16 trips the fault -> escalate to BF16x2 ->
        // clean burst -> step back down. 3 bursts, 3 full cycles.
        assert_eq!(out.escalations.len(), 3, "{:?}", out.escalations);
        assert_eq!(out.deescalations.len(), 3, "{:?}", out.deescalations);
        for de in &out.deescalations {
            assert_eq!(de.from, ComputeMode::FloatToBf16x2);
            assert_eq!(de.to, ComputeMode::FloatToBf16);
            assert_eq!(de.clean_bursts, 1);
        }
        // The second escalation proves the de-escalated mode really ran
        // the next burst (and failed there again).
        assert_eq!(out.escalations[1].from, ComputeMode::FloatToBf16);
        assert_eq!(out.final_mode, ComputeMode::FloatToBf16, "ends stepped-down");
        assert_eq!(out.result.records.len(), cfg.total_qd_steps);
        assert!(out.result.records.iter().all(|o| o.ekin.is_finite() && o.nexc.is_finite()));

        // The de-escalation is on the telemetry stream...
        let events = telemetry::sink::drain();
        let de = events.iter().find(|e| e.name == "deescalation").expect("deescalation event");
        assert_eq!(de.attr("from"), Some(&telemetry::AttrValue::Str("FLOAT_TO_BF16X2")));
        assert_eq!(de.attr("to"), Some(&telemetry::AttrValue::Str("FLOAT_TO_BF16")));

        // ...and in the Prometheus dump.
        let dump = telemetry::export::prometheus_dump();
        assert!(dump.contains("supervisor_deescalations_total"), "{dump}");
    });
}

#[test]
fn supervised_run_resumes_from_its_checkpoints() {
    let cfg = tiny();
    let plain = with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg))
        .expect("plain run");

    let dir = std::env::temp_dir().join(format!("dcmesh-sup-ck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sup = SupervisorConfig { checkpoint_dir: Some(dir.clone()), ..SupervisorConfig::default() };

    let mut first_leg = cfg.clone();
    first_leg.total_qd_steps = 40;
    run_supervised::<f32>(&first_leg, ComputeMode::Standard, &sup).expect("first leg");
    assert!(dir.join("dcmesh-40.ck").exists());

    let second = run_supervised::<f32>(&cfg, ComputeMode::Standard, &sup).expect("second leg");
    assert_eq!(second.result.records.len(), 20, "resume should run only the tail");
    for (got, want) in second.result.records.iter().zip(&plain.records[40..]) {
        assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A NaN that reaches the FP64 boundary is a divergence the caller can
/// handle, not a process abort. Without a health monitor (the plain
/// runner) nothing stops poisoned orbitals before the SCF refresh; its
/// eigensolver used to `assert!` on them.
#[test]
fn non_finite_state_at_the_boundary_is_an_error_not_a_panic() {
    let cfg = tiny();
    install_fault_plan(
        FaultPlan::new(3).with_site(FaultSite::every(1, FaultKind::Nan).on_routine("CGEMM")),
    );
    let out = with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg));
    clear_fault_plan();
    match out {
        Err(RunError::Diverged { violation: HealthViolation::SingularOverlap { detail }, .. }) => {
            assert!(detail.contains("non-finite"), "{detail}");
        }
        other => panic!("expected a structured divergence, got {other:?}"),
    }
}

/// The routine and shape of every call a clean supervised run of `cfg`
/// from `mode` makes through the GEMM pipeline, in order: position `i` is
/// the thread-relative call index a `FaultSite` fires on (the sequence
/// depends on the deck and the mode, not on the data). GEMV is observed
/// but takes no ticket, so it is left out.
fn gemm_call_log(cfg: &RunConfig, mode: ComputeMode) -> Vec<(&'static str, usize)> {
    use mkl_lite::verbose;
    verbose::set_record_capacity(1 << 16);
    verbose::clear();
    verbose::set_recording(true);
    let clean = run_supervised::<f32>(cfg, mode, &SupervisorConfig::default());
    verbose::set_recording(false);
    clean.expect("clean run");
    verbose::drain()
        .into_iter()
        .filter(|r| !r.routine.ends_with("GEMV"))
        .map(|r| (r.routine, r.m))
        .collect()
}

/// Index of the first call at or after the first QD step's CGEMMs that
/// `pick` accepts: a product of the first burst's SCF refresh.
fn first_boundary_call(
    log: &[(&'static str, usize)],
    pick: impl Fn(&(&'static str, usize)) -> bool,
) -> u64 {
    let first_step = log.iter().position(|c| c.0 == "CGEMM").expect("QD steps call CGEMM");
    (first_step + log[first_step..].iter().position(pick).expect("boundary product")) as u64
}

/// The same failure under the supervisor, injected where the step monitor
/// cannot see it: a NaN written into `G = Ψ†H₀Ψ` by the boundary's own
/// ZGEMMT. The refresh must refuse it with the state untouched, and the
/// supervisor must roll the burst back, escalate and finish.
#[test]
fn nan_inside_the_scf_boundary_rolls_back_and_escalates() {
    use dcmesh_telemetry as telemetry;
    let cfg = tiny();
    let log = gemm_call_log(&cfg, ComputeMode::FloatToBf16);
    let boundary = first_boundary_call(&log, |c| c.0 == "ZGEMMT");

    install_fault_plan(
        FaultPlan::new(5)
            .with_site(FaultSite::once(boundary, FaultKind::Nan).on_routine("ZGEMMT")),
    );
    let injected_before = injected_fault_count();
    let (out, events) = telemetry::with_level(telemetry::TelemetryLevel::Events, || {
        let out =
            run_supervised::<f32>(&cfg, ComputeMode::FloatToBf16, &SupervisorConfig::default());
        (out, telemetry::sink::drain())
    });
    clear_fault_plan();
    let out = out.expect("supervised run should recover from a poisoned boundary");
    assert_eq!(injected_fault_count(), injected_before + 1, "the one-shot fault must fire once");

    // A refused overlap is on the timeline like every other violation
    // kind, before the rollback it caused.
    let rollback = events.iter().position(|e| e.name == "rollback").expect("rollback event");
    let refused = events[..rollback].iter().any(|e| match e.attr("detail") {
        Some(telemetry::AttrValue::Text(d)) => {
            e.name == "health_violation" && d.contains("SCF refresh failed")
        }
        _ => false,
    });
    assert!(refused, "no health_violation for the refused overlap before the rollback");

    assert_eq!(out.escalations.len(), 1, "{:?}", out.escalations);
    let ev = &out.escalations[0];
    assert_eq!((ev.from, ev.to), (ComputeMode::FloatToBf16, ComputeMode::FloatToBf16x2));
    match &ev.violation {
        HealthViolation::SingularOverlap { detail } => {
            assert!(detail.contains("non-finite"), "{detail}")
        }
        other => panic!("expected the boundary to refuse the overlap, got {other}"),
    }
    assert_eq!(out.result.records.len(), cfg.total_qd_steps);
    assert!(out.result.records.iter().all(|o| o.ekin.is_finite() && o.nexc.is_finite()));
}

/// The refresh checks the orthonormality it delivers. A finite flip of
/// one exponent bit in the rotation ZGEMM's output — nothing upstream of
/// the rotation can see it, and demoted to `f32` it is a plausible
/// orbital value — used to be written into the state: the run completed
/// on a silently non-orthonormal set. Now the refresh refuses it, the
/// supervisor rolls the burst back and escalates, and since the fault is
/// planted in the first burst of a TF32 run the whole trajectory is then
/// the clean STANDARD one, bit for bit.
#[test]
fn corrupted_rotation_is_refused_by_the_refresh_and_rolled_back() {
    use dcmesh_telemetry as telemetry;
    let cfg = tiny();
    let clean = run_supervised::<f32>(&cfg, ComputeMode::Standard, &SupervisorConfig::default())
        .expect("clean run");
    let ngrid = cfg.mesh_points.pow(3);
    let log = gemm_call_log(&cfg, ComputeMode::FloatToTf32);
    let rotation = first_boundary_call(&log, |c| *c == ("ZGEMM", ngrid));

    // Bit 52 is the lowest exponent bit of an f64: the element doubles or
    // halves.
    install_fault_plan(
        FaultPlan::new(11)
            .with_site(FaultSite::once(rotation, FaultKind::FlipBit(52)).on_routine("ZGEMM")),
    );
    let injected_before = injected_fault_count();
    let (out, events) = telemetry::with_level(telemetry::TelemetryLevel::Events, || {
        let out =
            run_supervised::<f32>(&cfg, ComputeMode::FloatToTf32, &SupervisorConfig::default());
        (out, telemetry::sink::drain())
    });
    clear_fault_plan();
    let out = out.expect("supervised run should recover from a corrupted rotation");
    assert_eq!(injected_fault_count(), injected_before + 1, "the one-shot fault must fire once");

    let named = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!((named("health_violation"), named("rollback")), (1, 1));
    assert_eq!(out.escalations.len(), 1, "{:?}", out.escalations);
    let ev = &out.escalations[0];
    assert_eq!((ev.from, ev.to), (ComputeMode::FloatToTf32, ComputeMode::Standard));
    assert_eq!(ev.step, cfg.qd_steps_per_md as u64, "refused at the first boundary");
    match &ev.violation {
        HealthViolation::SingularOverlap { detail } => {
            assert!(detail.contains("not orthonormal"), "{detail}")
        }
        other => panic!("expected the refresh to refuse its own result, got {other}"),
    }
    assert_eq!(out.result.records.len(), clean.result.records.len());
    for (got, want) in out.result.records.iter().zip(&clean.result.records) {
        assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
        assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {}", got.step);
    }
}

/// Every product of the boundary is a `mkl-lite` call made under the
/// `qxmd::scf_refresh` phase and recorded once under its own name, so the
/// precision ledger attributes it: the two overlap ZHERKs, the ZGEMMT
/// (`Ψ†H₀Ψ`), the ZGEMMs (the subspace products and the rotation) and
/// `eigh`'s back-transform DGEMM.
#[test]
fn scf_boundary_products_land_in_the_ledger_under_their_phase() {
    use dcmesh_telemetry as telemetry;
    let cfg = tiny();
    telemetry::with_level(telemetry::TelemetryLevel::Full, || {
        run_supervised::<f32>(&cfg, ComputeMode::Standard, &SupervisorConfig::default())
            .expect("supervised run");
        let rows = telemetry::ledger::snapshot();
        let calls = |callsite: &str, shape_prefix: &str| -> u64 {
            rows.iter()
                .filter(|r| r.callsite == callsite && r.shape.starts_with(shape_prefix))
                .map(|r| r.stats.calls)
                .sum()
        };
        // One refresh per burst plus the initial SCF's three passes. Each
        // is two overlap ZHERKs, `Ψ†H₀Ψ`, the rotation and four n³
        // subspace products, and `eigh`'s back-transform twice. The
        // ledger is this thread's alone, so the counts are exact.
        let refreshes = (cfg.total_qd_steps / cfg.qd_steps_per_md) as u64 + 3;
        for (routine, per_refresh) in [("zherk", 2), ("zgemmt", 1), ("zgemm", 5), ("dgemm", 2)] {
            let callsite = format!("qxmd::scf_refresh/{routine}");
            assert_eq!(
                calls(&callsite, ""),
                per_refresh * refreshes,
                "{callsite}: {:?}",
                rows.iter().map(|r| (&r.callsite, &r.shape, r.stats.calls)).collect::<Vec<_>>()
            );
        }
        assert_eq!(calls("qxmd::scf_refresh/zgemm", "1024x"), refreshes, "one rotation each");
    });
}
