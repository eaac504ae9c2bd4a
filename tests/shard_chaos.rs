//! Chaos tests for the multi-rank sharded runner: deterministic rank
//! kills mid-burst, heartbeat-timeout detection, checkpoint-replay
//! recovery, and graceful degradation — asserted against an
//! uninterrupted fleet for bit-exact observables.
//!
//! These spawn real worker processes (the `dcmesh-shard` binary Cargo
//! builds for this package), so they exercise the genuine failure path:
//! a `process::exit` mid-burst, not a simulated error return. The fleets
//! whose settings are environment variables run the binary itself as
//! their coordinator, with the variables set on that process only.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::shard::{RankKillPlan, ShardConfig, ShardReport};
use dcmesh::{run_coordinator, RunError, ShardError};
use dcmesh_profile::{archive, watch};
use dcmesh_telemetry::ledger::{parse_ledger, Row};
use dcmesh_telemetry::{export, json};
use std::path::{Path, PathBuf};
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

/// The fault settings `dcmesh-shard` reads from its environment.
const FAULT_VARS: [&str; 3] = ["DCMESH_BITFLIP", "DCMESH_ABFT_PERIOD", "DCMESH_VERIFY_BURSTS"];

/// Checks that a fleet finished every domain, and checks its report
/// against `coord.log` — the coordinator's one record of its decisions.
fn check_fleet(run_dir: &Path, ranks: usize, report: &ShardReport) {
    assert_eq!(report.failed_domains(), Vec::<usize>::new(), "no domain may fail");
    assert_eq!(report.domains.len(), 4);
    let log = std::fs::read_to_string(run_dir.join("coord.log")).expect("coord.log");
    let lines = |event: &str| log.matches(&format!("\"event\":\"{event}\"")).count() as u64;
    assert_eq!(
        lines("rank_spawn") + lines("rank_spawn_failed"),
        ranks as u64 + report.restarts,
        "one spawn attempt per rank plus one per restart:\n{log}"
    );
    assert_eq!(lines("heartbeat_miss"), report.heartbeat_misses, "{log}");
    assert_eq!(lines("rank_degraded"), report.degraded_ranks.len() as u64, "{log}");
}

/// The `report.json` a fleet left in `run_dir`.
fn read_report(run_dir: &Path) -> ShardReport {
    let text = std::fs::read_to_string(dcmesh::shard::report_path(run_dir)).expect("report.json");
    ShardReport::parse(&text).expect("parse report")
}

/// Runs a fleet that must finish every domain, in this process; the
/// report it persisted reads back as the one it returned.
fn run_fleet(cfg: &ShardConfig) -> ShardReport {
    let report = run_coordinator(cfg).expect("coordinator");
    check_fleet(&cfg.run_dir, cfg.ranks, &report);
    let parsed = read_report(&cfg.run_dir);
    assert_eq!(parsed.domains[1].etot_bits, report.domains[1].etot_bits);
    assert_eq!(parsed.restarts, report.restarts);
    report
}

/// Runs `fleet_config`'s fleet through the `dcmesh-shard` binary, with
/// `args` added and `env` set on its process only (its workers inherit
/// it), and reads the report it wrote.
fn run_fleet_binary(run_dir: &Path, args: &[&str], env: &[(&str, &str)]) -> ShardReport {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcmesh-shard"));
    cmd.arg("--run-dir").arg(run_dir).args(["--ranks", "4", "--domains", "4", "--tiny"]);
    cmd.args(["--heartbeat-ms", "25", "--timeout-ms", "400", "--max-wall-s", "120"]).args(args);
    for v in FAULT_VARS {
        cmd.env_remove(v);
    }
    let out = cmd.envs(env.iter().copied()).output().expect("run dcmesh-shard");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "dcmesh-shard {args:?} {env:?} failed:\n{stderr}");
    let report = read_report(run_dir);
    check_fleet(run_dir, 4, &report);
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
    // the burst-0 checkpoint (step 20), with burst 1 in flight. The ranks
    // record events, so each leaves a stream and a ledger with rows.
    let dir = test_dir("kill");
    let chaos = run_fleet_binary(&dir, &["--kill", "1@1"], &[("TELEMETRY", "events")]);
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
    let log = std::fs::read_to_string(dir.join("coord.log")).expect("coord.log");
    assert!(log.contains("\"heartbeat_miss\""), "log records the heartbeat miss:\n{log}");
    let spawns = log.matches("\"rank_spawn\"").count();
    assert!(spawns >= 5, "4 initial spawns + >=1 respawn, got {spawns}:\n{log}");
    assert!(log.contains("\"run_complete\""));

    // Both processes of the killed rank left their precision ledger:
    // the first its committed burst 0, the second the replay and the rest.
    let trace = dir.join("trace");
    let read = |name: &str| {
        std::fs::read_to_string(trace.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    for name in ["ledger-rank1-inc0.json", "ledger-rank1-inc1.json", "ledger-rank0-inc0.json"] {
        parse_ledger(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    // The four ranks' event streams merge into one timeline with every
    // rank present under its own label (`profile merge` is this call).
    let streams: Vec<String> = (0..4).map(|r| read(&format!("events-rank{r}.jsonl"))).collect();
    let merged = export::chrome_trace(&streams.iter().map(String::as_str).collect::<Vec<_>>());
    for r in 0..4 {
        assert!(merged.contains(&format!("rank {r} host")), "rank {r} missing from the merge");
    }

    // The live view of the fleet ledger is what the archive folds from the
    // same directory, row for row, across the kill; and the fleet's call
    // total is the sum over all snapshot files — committed work counted once.
    let view = watch::view(&dir).expect("profile watch");
    assert!(view.dashboard.contains("dcmesh precision observatory"), "{}", view.dashboard);
    assert!(view.dashboard.contains("cgemm"), "{}", view.dashboard);
    let record = archive::collect_run(&dir, None).expect("profile archive");
    let calls = |rows: &[Row]| -> Vec<(String, String, String, u64)> {
        rows.iter()
            .map(|r| (r.callsite.clone(), r.shape.clone(), r.mode.clone(), r.stats.calls))
            .collect()
    };
    assert!(!view.rows.is_empty());
    assert_eq!(calls(&view.rows), calls(&record.entries));
    let fleet: u64 = record.entries.iter().map(|r| r.stats.calls).sum();
    let files: u64 = std::fs::read_dir(&trace)
        .expect("trace dir")
        .map(|e| e.expect("trace entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("ledger-rank") && name.ends_with(".json"))
        .map(|name| {
            let (_, rows) = parse_ledger(&read(&name)).expect("ledger");
            rows.iter().map(|r| r.stats.calls).sum::<u64>()
        })
        .sum();
    assert!(fleet >= 1 && fleet == files, "fleet ledger: {fleet} calls, snapshot files: {files}");

    std::fs::remove_dir_all(&dir).ok();
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

/// Silent corruption across a fleet armed through its environment:
/// `dcmesh-shard` reads the bit-flip plan and the ABFT period once and
/// hands both to every worker in `MANIFEST.json` — finite exponent
/// corruption on four mid-run GEMM outputs of each rank, invisible to
/// NaN/Inf checks. The sampled ABFT checksums catch the flips, and the
/// recovered fleet merges to the clean fleet's bits.
#[test]
fn bit_flipped_fleet_recovers_the_clean_fleets_bits() {
    let dir = test_dir("sdc");
    let flips = "7:250@61,292@61,306@61,355@61";
    let report = run_fleet_binary(
        &dir,
        &[],
        &[("DCMESH_BITFLIP", flips), ("DCMESH_ABFT_PERIOD", "1")],
    );
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).expect("MANIFEST.json");
    let manifest = json::parse(&manifest).expect("MANIFEST.json parses");
    assert_eq!(json::str_field(&manifest, "bit_flips").expect("bit_flips"), flips);
    assert_eq!(json::count_field(&manifest, "abft_check_period").expect("period"), 1);
    let recoveries: u64 = report.domains.iter().map(|d| d.sdc_recoveries).sum();
    assert!(recoveries >= 1, "no injected flip was caught as silent corruption");
    assert_eq!(report.merged_bits(), clean_fleet().merged_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault setting the workers could not use is the coordinator's
/// configuration error, raised before anything is spawned — it used to
/// cost every rank its whole respawn budget and end in a dead fleet. The
/// variable is set on the child process only.
#[test]
fn malformed_fault_setting_fails_the_run_before_any_rank_is_spawned() {
    for (var, value) in [("DCMESH_BITFLIP", "7:250@sixty-one"), ("DCMESH_ABFT_PERIOD", "abc")] {
        let dir = test_dir(&format!("bad-{var}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcmesh-shard"));
        cmd.arg("--run-dir").arg(&dir).args(["--ranks", "2", "--domains", "2", "--tiny"]);
        cmd.args(["--heartbeat-ms", "50", "--timeout-ms", "2000", "--max-wall-s", "60"]);
        for v in FAULT_VARS {
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
