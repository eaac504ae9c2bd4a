//! Bit-reproducibility gate: the determinism and SDC-defense claims of
//! the stack, asserted end to end.
//!
//! * A full supervised run is **bit-identical across rayon thread
//!   counts** — every order-sensitive sum rides the fixed-shape
//!   reduction tree, so scheduling never changes a result.
//! * The tiny deck's trajectory in every compute mode is **pinned** as a
//!   digest, at one thread and at two, where the GEMMs take the depth
//!   schedule.
//! * A degraded 2-rank fleet and a full 4-rank fleet produce
//!   **bit-identical cross-rank merges** — the domain-id-keyed
//!   reduction tree makes the merge independent of fleet shape.
//! * An injected **silent bit flip** (exponent corruption invisible to
//!   NaN/Inf checks) is detected by the sampled ABFT checksums, rolled
//!   back, and retried at the same mode — recovering bit-identically to
//!   a clean run.
//! * `verify_bursts` replay verification passes on clean runs without
//!   perturbing the result, and catches a mantissa flip no checksum was
//!   looking at: the replayed restart point differs from the primary's.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::shard::ShardConfig;
use dcmesh::{run_coordinator, run_supervised, SupervisedRun, SupervisorConfig};
use mkl_lite::{install_fault_plan, ComputeMode, FaultKind, FaultPlan, FaultSite};
use std::path::PathBuf;
use std::time::Duration;

fn tiny_deck() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 20;
    cfg
}

/// Bit patterns of everything a run records: per-step observables plus
/// the per-burst drift figures. Two runs agree iff these vectors agree.
fn run_bits(run: &SupervisedRun) -> Vec<u64> {
    let mut bits = Vec::new();
    for r in &run.result.records {
        bits.extend([r.ekin, r.epot, r.etot, r.eexc, r.nexc, r.javg].map(f64::to_bits));
    }
    bits.extend(run.result.scf_drift.iter().map(|v| v.to_bits()));
    bits.extend(run.result.shadow_drift.iter().map(|v| v.to_bits()));
    bits.extend(run.result.ion_temperature.iter().map(|v| v.to_bits()));
    bits
}

fn supervised(sup: &SupervisorConfig) -> SupervisedRun {
    run_supervised::<f32>(&tiny_deck(), ComputeMode::Standard, sup).expect("supervised run")
}

#[test]
fn full_supervised_run_is_bit_identical_across_thread_counts() {
    let mut all_bits = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let dir = std::env::temp_dir()
            .join(format!("dcmesh-repro-threads-{threads}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale checkpoint dir");
        }
        let sup =
            SupervisorConfig { checkpoint_dir: Some(dir.clone()), ..SupervisorConfig::default() };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build rayon pool");
        let run = pool.install(|| {
            assert_eq!(rayon::current_num_threads(), threads, "the pool sets the thread count");
            supervised(&sup)
        });
        assert_eq!(run.escalations.len(), 0, "tiny deck must run clean at {threads} threads");
        assert!(!run.result.records.is_empty());

        // The on-disk burst checkpoints, byte for byte.
        let mut cks: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "ck"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).expect("read checkpoint"))
            })
            .collect();
        cks.sort();
        assert!(!cks.is_empty(), "supervised run wrote no checkpoints");
        std::fs::remove_dir_all(&dir).ok();
        all_bits.push((threads, run_bits(&run), cks));
    }
    let (_, ref baseline, ref base_cks) = all_bits[0];
    for (threads, bits, cks) in &all_bits[1..] {
        assert_eq!(
            bits, baseline,
            "run bits diverged between 1 and {threads} rayon threads — an order-sensitive \
             sum escaped the fixed-shape reduction tree"
        );
        assert_eq!(
            cks, base_cks,
            "checkpoint bytes diverged between 1 and {threads} rayon threads"
        );
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of `bits`.
fn fnv1a(bits: &[u64]) -> u64 {
    bits.iter().flat_map(|b| b.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The tiny deck's trajectory in each mode, as the FNV-1a digest of its
/// [`run_bits`] on `x86_64-unknown-linux-gnu`, on every rung of the ISA
/// ladder (the GEMM tiles, the pack and the stencil give the same bits on
/// each). A change that moves a bit of any trajectory changes a constant
/// here, in its own diff.
const TINY_DECK_DIGESTS: [(ComputeMode, u64); 6] = [
    (ComputeMode::Standard, 0xbc94_4c40_a289_6419),
    (ComputeMode::FloatToBf16, 0xf217_482e_590b_d2e8),
    (ComputeMode::FloatToBf16x2, 0x09c7_5f10_3491_5445),
    (ComputeMode::FloatToBf16x3, 0x38bf_122d_570b_b56d),
    (ComputeMode::FloatToTf32, 0x7de0_e231_374c_b5e3),
    (ComputeMode::Complex3m, 0xf2bb_6b91_f15e_d864),
];

/// The digest pins one target's trajectory: the laser's `sin`/`cos` come
/// from the target's libm. `None` when this build is that target.
fn digest_platform_mismatch() -> Option<String> {
    (!cfg!(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))
        .then(|| "the digests are recorded for x86_64-unknown-linux-gnu".into())
}

#[test]
fn tiny_deck_digest_is_pinned_in_every_mode_at_one_and_two_threads() {
    let skip = digest_platform_mismatch();
    let mut moved = Vec::new();
    for (mode, want) in TINY_DECK_DIGESTS {
        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build rayon pool");
            let run = pool.install(|| {
                run_supervised::<f32>(&tiny_deck(), mode, &SupervisorConfig::default())
                    .expect("supervised run")
            });
            let got = fnv1a(&run_bits(&run));
            if got != want {
                moved.push(format!("{mode:?} at {threads} threads: {got:#018x}, pinned {want:#x}"));
            }
        }
    }
    match skip {
        Some(why) => eprintln!("digests not asserted: {why}"),
        None => assert!(moved.is_empty(), "trajectories moved:\n{}", moved.join("\n")),
    }
}

#[test]
fn degraded_two_rank_fleet_merges_bit_identical_to_four_rank_fleet() {
    let fleet = |name: &str, ranks: usize| {
        let dir =
            std::env::temp_dir().join(format!("dcmesh-repro-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale run dir");
        }
        let mut cfg = ShardConfig::new(tiny_deck(), ranks, 4, dir);
        cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_dcmesh-shard")));
        cfg.heartbeat_interval = Duration::from_millis(25);
        cfg.heartbeat_timeout = Duration::from_millis(400);
        cfg.max_wall = Some(Duration::from_secs(120));
        let report = run_coordinator(&cfg).expect("coordinator");
        std::fs::remove_dir_all(&cfg.run_dir).ok();
        assert_eq!(report.failed_domains(), Vec::<usize>::new());
        report
    };

    let full = fleet("full", 4);
    let degraded = fleet("half", 2);

    // Per-domain observables are fleet-shape-independent...
    for (a, b) in full.domains.iter().zip(&degraded.domains) {
        assert_eq!(a.ekin_bits, b.ekin_bits, "domain {} ekin diverged", a.domain);
        assert_eq!(a.nexc_bits, b.nexc_bits, "domain {} nexc diverged", a.domain);
        assert_eq!(a.etot_bits, b.etot_bits, "domain {} etot diverged", a.domain);
    }
    // ...and so is the cross-rank reduction-tree merge.
    assert_eq!(
        full.merged_bits(),
        degraded.merged_bits(),
        "fleet-level merge must be keyed by domain id, not fleet shape"
    );
    // The 2-rank fleet genuinely multiplexed domains over fewer ranks.
    assert!(degraded.domains.iter().all(|d| d.rank < 2));
}

#[test]
fn injected_bit_flip_is_detected_and_recovery_is_bit_identical() {
    let sup = SupervisorConfig { abft_check_period: Some(1), ..SupervisorConfig::default() };

    // Baseline, and the GEMM call budget of one clean run.
    let calls_before = mkl_lite::fault::gemm_call_count();
    let clean = supervised(&sup);
    let calls_per_run = mkl_lite::fault::gemm_call_count() - calls_before;
    assert_eq!(clean.sdc_recoveries, 0);
    assert!(calls_per_run > 16, "deck too small to place a mid-run flip");

    // Corrupt one GEMM output mid-run: flip a high exponent bit (finite,
    // orders of magnitude off — invisible to the NaN/Inf health checks).
    // The flip fires once; the never-reset call counter means the
    // rollback replay re-executes the call cleanly.
    //
    // A flip on a *random* output element is not always detectable: one
    // that shrinks an already-small f32 element sits inside the ABFT
    // rounding envelope, which is exactly the documented coverage
    // boundary (those are `verify_bursts` territory). So scan a few
    // mid-run call indices and assert on the first flip the checksum
    // does catch — for a fixed deck and seed the scan is deterministic.
    let flipped = (0..12)
        .find_map(|j| {
            let call = calls_per_run / 2 + j * 7;
            install_fault_plan(
                FaultPlan::new(7).with_site(FaultSite::once(call, FaultKind::FlipBit(61))),
            );
            let run = supervised(&sup);
            mkl_lite::clear_fault_plan();
            (run.sdc_recoveries >= 1).then_some(run)
        })
        .expect("no scanned exponent flip was caught as silent corruption");
    assert_eq!(
        flipped.escalations.len(),
        0,
        "SDC recovery must retry the same mode, not escalate precision"
    );
    assert_eq!(flipped.final_mode, clean.final_mode);
    assert_eq!(
        run_bits(&flipped),
        run_bits(&clean),
        "post-rollback replay must be bit-identical to the uncorrupted run"
    );
}

#[test]
fn verify_bursts_replay_passes_clean_and_preserves_bits() {
    use dcmesh_telemetry as telemetry;
    // Burst spans opened by one run on this thread: the primary bursts
    // plus, with `verify_bursts`, one replay burst each.
    let burst_spans = |sup: &SupervisorConfig| {
        telemetry::with_level(telemetry::TelemetryLevel::Full, || {
            let run = supervised(sup);
            assert_eq!(telemetry::sink::dropped_events(), 0, "the ring kept every event");
            let spans = telemetry::sink::drain()
                .iter()
                .filter(|e| e.name == "burst" && e.kind == telemetry::EventKind::SpanBegin)
                .count();
            (run, spans)
        })
    };
    let (plain, plain_spans) = burst_spans(&SupervisorConfig::default());
    let sup = SupervisorConfig { verify_bursts: Some(1), ..SupervisorConfig::default() };
    let (verified, verified_spans) = burst_spans(&sup);

    assert_eq!(plain_spans, 3, "the plain run is 3 bursts");
    assert_eq!(verified_spans, 6, "every burst of the 3-burst run must be replay-verified");
    assert_eq!(verified.sdc_recoveries, 0, "clean replays must not flag corruption");
    assert_eq!(
        run_bits(&verified),
        run_bits(&plain),
        "replay verification is an observer — it must not change the result"
    );
}

/// The layer under the checksums: with ABFT off, a one-shot flip of a
/// middle mantissa bit is finite, small and unchecked. The replay is a
/// second run from the same restart point, so the two restart points
/// after the burst differ in some byte; the supervisor retries at the
/// same mode and the run ends on the clean run's bits.
#[test]
fn verify_bursts_replay_catches_an_unchecked_flip_and_recovers_the_bits() {
    let sup = SupervisorConfig { verify_bursts: Some(1), ..SupervisorConfig::default() };
    let calls_before = mkl_lite::fault::gemm_call_count();
    let clean = supervised(&sup);
    let calls_per_run = mkl_lite::fault::gemm_call_count() - calls_before;
    assert_eq!(clean.sdc_recoveries, 0);

    // A flip that lands in a measurement-only GEMM never reaches the
    // state the replay compares — the documented coverage boundary — so
    // scan a few mid-run calls for one that does.
    let flipped = (0..12)
        .find_map(|j| {
            let call = calls_per_run / 2 + j * 7;
            install_fault_plan(
                FaultPlan::new(7).with_site(FaultSite::once(call, FaultKind::FlipMantissaBit(12))),
            );
            let run = supervised(&sup);
            mkl_lite::clear_fault_plan();
            (run.sdc_recoveries >= 1).then_some(run)
        })
        .expect("no scanned mantissa flip reached the propagated state");
    assert_eq!(flipped.escalations.len(), 0, "a replay mismatch retries the same mode");
    assert_eq!(run_bits(&flipped), run_bits(&clean));
}
