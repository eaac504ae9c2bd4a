//! `dcmesh-shard` — multi-rank sharded DCMESH runs.
//!
//! The coordinator shards the divide-and-conquer domains across worker
//! ranks (real OS processes — this same binary, re-invoked), detects
//! dead ranks by heartbeat timeout, respawns them with bounded retries,
//! and degrades to fewer ranks when a respawn budget runs out. See
//! `dcmesh::shard` for the protocol and `DESIGN.md` § Distributed runs.
//!
//! ```text
//! dcmesh-shard --run-dir out/shard --ranks 4 --domains 4 --tiny
//! dcmesh-shard --run-dir out/shard --ranks 4 --domains 4 --tiny --kill 1@1
//! DCMESH_BITFLIP=7:250@61 DCMESH_ABFT_PERIOD=1 dcmesh-shard --run-dir out/sdc --tiny
//! ```
//!
//! `DCMESH_BITFLIP` (a `mkl_lite::FaultPlan` spec), `DCMESH_ABFT_PERIOD`
//! and `DCMESH_VERIFY_BURSTS` (absent, empty or `0` = off) are read here
//! once and reach every worker through `MANIFEST.json`; a value that does
//! not parse fails the run before any rank is spawned.
//!
//! With `TELEMETRY=events`, per-rank traces land in
//! `<run-dir>/trace/events-rank<r>.jsonl`, ready for `profile merge`.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::shard::{self, RankKillPlan, ShardConfig, ShardError, ShardReport};
use mkl_lite::{ComputeMode, FaultPlan};
use std::path::PathBuf;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("dcmesh-shard: {msg}");
    eprintln!(
        "usage: dcmesh-shard --run-dir DIR [--ranks N] [--domains M] \
         [--preset NAME | --deck FILE] [--tiny] [--mode MODE] [--kill SPEC] \
         [--heartbeat-ms N] [--timeout-ms N] [--max-wall-s N]"
    );
    std::process::exit(2);
}

fn parse_args() -> ShardConfig {
    let mut run_dir: Option<PathBuf> = None;
    let mut ranks = 4usize;
    let mut domains: Option<usize> = None;
    let mut deck = RunConfig::preset(SystemPreset::Pto40Small);
    let mut mode = ComputeMode::Standard;
    let mut kill = RankKillPlan::default();
    let mut heartbeat_ms = None;
    let mut timeout_ms = None;
    let mut max_wall_s = None;
    let mut tiny = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--run-dir" => run_dir = Some(PathBuf::from(value("--run-dir"))),
            "--ranks" => ranks = value("--ranks").parse().unwrap_or_else(|_| fail("bad --ranks")),
            "--domains" => {
                domains = Some(value("--domains").parse().unwrap_or_else(|_| fail("bad --domains")))
            }
            "--preset" => {
                let name = value("--preset");
                let preset = SystemPreset::from_name(&name)
                    .unwrap_or_else(|| fail(&format!("unknown preset {name:?}")));
                deck = RunConfig::preset(preset);
            }
            "--deck" => {
                let path = value("--deck");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("reading deck {path}: {e}")));
                deck = RunConfig::parse(&text)
                    .unwrap_or_else(|e| fail(&format!("parsing deck {path}: {e}")));
            }
            "--tiny" => tiny = true,
            "--mode" => {
                let name = value("--mode");
                mode = name.parse().unwrap_or_else(|_| fail(&format!("unknown mode {name:?}")));
            }
            "--kill" => {
                let spec = value("--kill");
                kill = RankKillPlan::parse(&spec)
                    .unwrap_or_else(|e| fail(&format!("bad --kill: {e}")));
            }
            "--heartbeat-ms" => {
                heartbeat_ms =
                    Some(value("--heartbeat-ms").parse().unwrap_or_else(|_| fail("bad ms")))
            }
            "--timeout-ms" => {
                timeout_ms = Some(value("--timeout-ms").parse().unwrap_or_else(|_| fail("bad ms")))
            }
            "--max-wall-s" => {
                max_wall_s = Some(value("--max-wall-s").parse().unwrap_or_else(|_| fail("bad s")))
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if tiny {
        // The smoke deck: small enough that a 4-rank fleet with an
        // injected kill finishes in seconds, large enough for 3 bursts.
        deck.mesh_points = 10;
        deck.n_orb = 8;
        deck.n_occ = 4;
        deck.total_qd_steps = 60;
        deck.qd_steps_per_md = 20;
    }

    let run_dir = run_dir.unwrap_or_else(|| fail("--run-dir is required"));
    let mut cfg = ShardConfig::new(deck, ranks, domains.unwrap_or(ranks), run_dir);
    cfg.start_mode = mode;
    cfg.kill_plan = kill;
    if let Some(ms) = heartbeat_ms {
        cfg.heartbeat_interval = Duration::from_millis(ms);
    }
    if let Some(ms) = timeout_ms {
        cfg.heartbeat_timeout = Duration::from_millis(ms);
    }
    if let Some(s) = max_wall_s {
        cfg.max_wall = Some(Duration::from_secs(s));
    }
    cfg
}

/// The fleet's fault settings, read once from the coordinator's
/// environment into `cfg`.
fn read_fault_env(cfg: &mut ShardConfig) -> Result<(), ShardError> {
    let period =
        |s: &str| s.parse::<u64>().map(|n| (n > 0).then_some(n)).map_err(|e| e.to_string());
    cfg.bit_flips = env_setting("DCMESH_BITFLIP", FaultPlan::parse)?;
    cfg.abft_check_period = env_setting("DCMESH_ABFT_PERIOD", period)?.flatten();
    cfg.verify_bursts = env_setting("DCMESH_VERIFY_BURSTS", period)?.flatten();
    Ok(())
}

/// `None` when `name` is absent or empty; a value `parse` refuses is a
/// configuration error naming the variable.
fn env_setting<T>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, ShardError> {
    let invalid = |why: String| ShardError::InvalidConfig(format!("{name}: {why}"));
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(invalid(e.to_string())),
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => parse(v.trim()).map(Some).map_err(|e| invalid(format!("{v:?}: {e}"))),
    }
}

fn print_report(report: &ShardReport) {
    println!(
        "shard run complete in {:.2}s: {} domain(s), {} restart(s), {} heartbeat miss(es)",
        report.elapsed.as_secs_f64(),
        report.domains.len(),
        report.restarts,
        report.heartbeat_misses,
    );
    for d in &report.domains {
        let resumed = match d.resumed_from_step {
            Some(s) => format!(" (resumed from step {s})"),
            None => String::new(),
        };
        println!(
            "  domain {}: {} by rank {} inc {}{} final_step {} etot_bits 0x{:016x}",
            d.domain,
            if d.ok { "ok" } else { "FAILED" },
            d.rank,
            d.incarnation,
            resumed,
            d.final_step,
            d.etot_bits,
        );
    }
    if !report.degraded_ranks.is_empty() {
        println!(
            "  degraded rank(s) {:?}: respawn budget exhausted, run completed on fewer ranks",
            report.degraded_ranks
        );
    }
}

fn main() {
    // Worker path: the coordinator re-invokes this binary with
    // DCMESH_SHARD_WORKER=1; this call never returns in that case.
    shard::maybe_run_worker();

    let mut cfg = parse_args();
    match read_fault_env(&mut cfg).and_then(|()| shard::run_coordinator(&cfg)) {
        Ok(report) => {
            print_report(&report);
            if !report.failed_domains().is_empty() {
                eprintln!("dcmesh-shard: domain failure(s): {:?}", report.failed_domains());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("dcmesh-shard: {e}");
            std::process::exit(1);
        }
    }
}
