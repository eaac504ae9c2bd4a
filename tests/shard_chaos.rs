//! Chaos tests for the multi-rank sharded runner: deterministic rank
//! kills mid-burst, heartbeat-timeout detection, checkpoint-replay
//! recovery, and graceful degradation — asserted against an
//! uninterrupted fleet for bit-exact observables.
//!
//! These spawn real worker processes (the `dcmesh-shard` binary Cargo
//! builds for this package), so they exercise the genuine failure path:
//! a `process::exit` mid-burst, not a simulated error return.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::shard::{RankKillPlan, ShardConfig, ShardReport};
use dcmesh::{run_coordinator, RunError, ShardError};
use mkl_lite::FaultPlan;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

/// Small enough that a 4-rank fleet finishes in seconds, large enough
/// for 3 bursts per domain (so a kill at burst 1 has a burst-0
/// checkpoint to resume from and a burst to replay).
fn tiny_deck() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 20;
    cfg
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcmesh-chaos-{}-{}", name, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

/// Aggressive-but-safe timings: heartbeats every 25ms, death after
/// 400ms of silence.
fn fleet_config(name: &str, kill: &str) -> ShardConfig {
    let mut cfg = ShardConfig::new(tiny_deck(), 4, 4, test_dir(name));
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_dcmesh-shard")));
    cfg.heartbeat_interval = Duration::from_millis(25);
    cfg.heartbeat_timeout = Duration::from_millis(400);
    cfg.max_wall = Some(Duration::from_secs(120));
    cfg.kill_plan = RankKillPlan::parse(kill).expect("kill spec");
    cfg
}

/// Runs a fleet that must finish every domain, and checks the report
/// against `coord.log` — the coordinator's one record of its decisions.
fn run_fleet(cfg: &ShardConfig) -> ShardReport {
    let report = run_coordinator(cfg).expect("coordinator");
    assert_eq!(report.failed_domains(), Vec::<usize>::new(), "no domain may fail");
    assert_eq!(report.domains.len(), 4);
    let log = std::fs::read_to_string(cfg.run_dir.join("coord.log")).expect("coord.log");
    let lines = |event: &str| log.matches(&format!("\"event\":\"{event}\"")).count() as u64;
    assert_eq!(
        lines("rank_spawn") + lines("rank_spawn_failed"),
        cfg.ranks as u64 + report.restarts,
        "one spawn attempt per rank plus one per restart:\n{log}"
    );
    assert_eq!(lines("heartbeat_miss"), report.heartbeat_misses, "{log}");
    assert_eq!(lines("rank_degraded"), report.degraded_ranks.len() as u64, "{log}");
    report
}

/// The uninterrupted reference: 4 ranks, 4 domains, nobody dies — run
/// once for every test that compares against it.
fn clean_fleet() -> &'static ShardReport {
    static CLEAN: OnceLock<ShardReport> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let cfg = fleet_config("clean", "");
        let report = run_fleet(&cfg);
        std::fs::remove_dir_all(&cfg.run_dir).ok();
        report
    })
}

#[test]
fn killed_rank_recovers_from_checkpoint_and_matches_uninterrupted_run() {
    let clean = clean_fleet();
    assert_eq!(clean.restarts, 0);
    assert_eq!(clean.heartbeat_misses, 0);
    for d in &clean.domains {
        assert_eq!(d.rank, d.domain, "initial assignment is deterministic");
        assert_eq!(d.incarnation, 0);
        assert_eq!(d.resumed_from_step, None);
        assert_eq!(d.final_step, 60);
    }

    // Chaos: rank 1 hard-exits at the start of its second burst — after
    // the burst-0 checkpoint (step 20), with burst 1 in flight.
    let chaos_cfg = fleet_config("kill", "1@1");
    let chaos = run_fleet(&chaos_cfg);
    assert!(chaos.heartbeat_misses >= 1, "death must be detected via heartbeat timeout");
    assert!(chaos.restarts >= 1, "the dead rank must be respawned");
    assert_eq!(chaos.degraded_ranks, Vec::<usize>::new(), "one kill is within budget");

    let dom1 = &chaos.domains[1];
    assert_eq!(dom1.rank, 1, "the respawned rank itself finishes its domain");
    assert_eq!(dom1.incarnation, 1, "finished by the second incarnation");
    assert_eq!(
        dom1.resumed_from_step,
        Some(20),
        "recovery resumes from the shared burst-0 checkpoint and replays the killed burst"
    );

    // The whole point of deterministic recovery: every domain's final
    // observables are bit-identical to the uninterrupted fleet's.
    for (a, b) in clean.domains.iter().zip(&chaos.domains) {
        assert_eq!(a.final_step, b.final_step, "domain {}", a.domain);
        assert_eq!(a.ekin_bits, b.ekin_bits, "ekin bits diverged in domain {}", a.domain);
        assert_eq!(a.nexc_bits, b.nexc_bits, "nexc bits diverged in domain {}", a.domain);
        assert_eq!(a.etot_bits, b.etot_bits, "etot bits diverged in domain {}", a.domain);
    }

    // The coordination log tells the recovery story.
    let log = std::fs::read_to_string(chaos_cfg.run_dir.join("coord.log")).expect("coord.log");
    assert!(log.contains("\"heartbeat_miss\""), "log records the heartbeat miss:\n{log}");
    let spawns = log.matches("\"rank_spawn\"").count();
    assert!(spawns >= 5, "4 initial spawns + >=1 respawn, got {spawns}:\n{log}");
    assert!(log.contains("\"run_complete\""));

    // Both processes of the killed rank left their precision ledger:
    // the first its committed burst 0, the second the replay and the rest.
    for name in ["ledger-rank1-inc0.json", "ledger-rank1-inc1.json", "ledger-rank0-inc0.json"] {
        let path = chaos_cfg.run_dir.join("trace").join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        dcmesh_telemetry::ledger::parse_ledger(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    // And the persisted report round-trips.
    let text = std::fs::read_to_string(dcmesh::shard::report_path(&chaos_cfg.run_dir))
        .expect("report.json");
    let parsed = ShardReport::parse(&text).expect("parse report");
    assert_eq!(parsed.domains[1].etot_bits, dom1.etot_bits);
    assert_eq!(parsed.restarts, chaos.restarts);

    std::fs::remove_dir_all(&chaos_cfg.run_dir).ok();
}

#[test]
fn respawn_budget_exhaustion_degrades_to_fewer_ranks() {
    // Rank 1 dies at its first burst in *every* incarnation, with the
    // budget of two respawns: spawn → die → respawn → die → respawn →
    // die → degraded.
    let cfg = fleet_config("degrade", "1@0*");
    let report = run_fleet(&cfg);

    assert_eq!(report.degraded_ranks, vec![1], "rank 1 exhausts its budget and is removed");
    assert!(report.heartbeat_misses >= 3, "all three incarnations die");
    assert_eq!(report.restarts, 2, "exactly the budgeted respawns");
    for d in &report.domains {
        assert_ne!(d.rank, 1, "a surviving rank finishes every domain (incl. the released one)");
    }
    let r1 = report.ranks.iter().find(|r| r.rank == 1).expect("rank 1 summary");
    assert!(r1.degraded);
    assert_eq!(r1.incarnations, 3);

    let log = std::fs::read_to_string(cfg.run_dir.join("coord.log")).expect("coord.log");
    assert!(log.contains("\"rank_degraded\""), "log records the degradation:\n{log}");
    assert!(
        log.contains("\"domain_reassigned\""),
        "the degraded rank's claim returns to the queue:\n{log}"
    );

    std::fs::remove_dir_all(&cfg.run_dir).ok();
}

/// Silent corruption across a fleet armed through its configuration:
/// every worker installs the bit-flip plan the manifest carries, its
/// sampled ABFT checksums catch the flips, and the recovered fleet merges
/// to the clean fleet's bits.
#[test]
fn bit_flipped_fleet_recovers_the_clean_fleets_bits() {
    let mut cfg = fleet_config("sdc", "");
    cfg.bit_flips = Some(FaultPlan::parse("7:250@61,292@61,306@61,355@61").expect("flip spec"));
    cfg.abft_check_period = Some(1);
    let report = run_fleet(&cfg);
    let recoveries: u64 = report.domains.iter().map(|d| d.sdc_recoveries).sum();
    assert!(recoveries >= 1, "no injected flip was caught as silent corruption");
    assert_eq!(report.merged_bits(), clean_fleet().merged_bits());
    std::fs::remove_dir_all(&cfg.run_dir).ok();
}

/// A fault setting the workers could not use is the coordinator's
/// configuration error, raised before anything is spawned — it used to
/// cost every rank its whole respawn budget and end in a dead fleet. The
/// variable is set on the child process only.
#[test]
fn malformed_fault_setting_fails_the_run_before_any_rank_is_spawned() {
    let vars = ["DCMESH_BITFLIP", "DCMESH_ABFT_PERIOD", "DCMESH_VERIFY_BURSTS"];
    for (var, value) in [("DCMESH_BITFLIP", "7:250@sixty-one"), ("DCMESH_ABFT_PERIOD", "abc")] {
        let dir = test_dir(&format!("bad-{var}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcmesh-shard"));
        cmd.arg("--run-dir").arg(&dir).args(["--ranks", "2", "--domains", "2", "--tiny"]);
        cmd.args(["--heartbeat-ms", "50", "--timeout-ms", "2000", "--max-wall-s", "60"]);
        for v in vars {
            cmd.env_remove(v);
        }
        let out = cmd.env(var, value).output().expect("run dcmesh-shard");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value} must fail the run:\n{stderr}");
        assert!(stderr.contains("invalid shard configuration") && stderr.contains(var), "{stderr}");
        let log = std::fs::read_to_string(dir.join("coord.log")).unwrap_or_default();
        assert_eq!(log.matches("\"rank_spawn\"").count(), 0, "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn invalid_rank_env_is_a_structured_error() {
    // Garbage DCMESH_RANK must fail loudly, not silently fall back to
    // rank 0 (which would corrupt multi-rank trace attribution). This
    // lives in the chaos binary because it mutates process environment:
    // the other tests here read it only in freshly spawned workers with
    // explicit overrides.
    std::env::set_var(dcmesh::DCMESH_RANK_ENV, "not-a-rank");
    let out = dcmesh::run_simulation::<f32>(&tiny_deck());
    std::env::remove_var(dcmesh::DCMESH_RANK_ENV);
    match out {
        Err(RunError::InvalidRank { value }) => assert_eq!(value, "not-a-rank"),
        other => panic!("expected InvalidRank, got {other:?}"),
    }
}

#[test]
fn coordinator_rejects_unworkable_configs_up_front() {
    let mut cfg = fleet_config("reject", "");
    cfg.n_domains = 2; // fewer domains than ranks
    match run_coordinator(&cfg) {
        Err(ShardError::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    std::fs::remove_dir_all(&cfg.run_dir).ok();
}
