//! The coordinator side of the fleet: seeds the queue, spawns the ranks,
//! watches their heartbeats, respawns or degrades the dead, and keeps one
//! record of what it decided — `coord.log`, flushed per line — beside the
//! final `report.json`.

use super::protocol::{
    self, CoordLog, RankSummary, ShardReport, SHARD_DIR_ENV, SHARD_INCARNATION_ENV,
    SHARD_WORKER_ENV,
};
use super::{ShardConfig, ShardError};
use crate::runner::DCMESH_RANK_ENV;
use dcmesh_telemetry::json;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

/// Respawns allowed per rank before it is degraded away.
const MAX_RESPAWNS: u32 = 2;
/// First respawn delay; doubles per further death of the same rank.
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(5);

/// The delay before respawning a rank after its `deaths`-th death.
pub(super) fn backoff_for(deaths: u32) -> Duration {
    let exp = deaths.saturating_sub(1).min(16);
    BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_MAX)
}

/// Per-rank coordinator-side state machine.
enum RankState {
    Running {
        child: Child,
        incarnation: u32,
        /// Heartbeat-file mtime at the last observed *change* (`None`
        /// until the file is first seen). Only ever compared against the
        /// next observation — never against wall-clock time.
        last_stamp: Option<SystemTime>,
        /// Coordinator-local monotonic instant of that change; the
        /// timeout is measured from here.
        last_change: Instant,
    },
    Backoff {
        incarnation: u32,
        until: Instant,
    },
    Finished,
    Degraded,
}

/// What the coordinator keeps beside the per-rank states: its log and
/// the counts the report states.
struct Fleet<'a> {
    cfg: &'a ShardConfig,
    log: CoordLog,
    deaths: Vec<u32>,
    restarts: u64,
    heartbeat_misses: u64,
    t0: Instant,
}

/// Runs the full sharded run: seeds the queue, spawns the ranks, and
/// supervises them to completion. Returns the aggregated report (also
/// persisted as `report.json`); worker-side domain failures are reported
/// in it, not raised — only coordination-level failures are `Err`.
///
/// Domains `0..ranks` are pre-claimed one per rank so the initial
/// assignment is deterministic; the remainder are open-queue and
/// work-stolen. Re-running a coordinator over a partially complete run
/// directory resumes it: done domains stay done, stale claims return to
/// the queue.
pub fn run_coordinator(cfg: &ShardConfig) -> Result<ShardReport, ShardError> {
    cfg.validate()?;
    let run = cfg.run_dir.as_path();
    let seeded = protocol::prepare_run_dir(run, cfg.n_domains, cfg.ranks)?;
    protocol::write_manifest(cfg)?;
    let mut fleet = Fleet::new(cfg)?;
    fleet.log.log(
        "run_start",
        &[
            ("ranks", cfg.ranks.to_string()),
            ("domains", cfg.n_domains.to_string()),
            ("seeded", seeded.to_string()),
            ("kill_plan", json::escape_string(&cfg.kill_plan.to_spec())),
        ],
    );
    let mut slots =
        (0..cfg.ranks).map(|rank| fleet.spawn(rank, 0)).collect::<Result<Vec<_>, _>>()?;

    loop {
        std::thread::sleep(protocol::poll_interval(cfg.heartbeat_interval));
        let done = protocol::count_done(run)?;
        if done >= cfg.n_domains {
            return Ok(fleet.finalize(&mut slots));
        }
        if let Some(limit) = cfg.max_wall.filter(|&limit| fleet.t0.elapsed() > limit) {
            for s in &mut slots {
                if let RankState::Running { child, .. } = s {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            fleet.log.log("wall_clock_exceeded", &[("done", done.to_string())]);
            return Err(ShardError::WallClockExceeded { limit, unfinished: cfg.n_domains - done });
        }

        for (rank, slot) in slots.iter_mut().enumerate() {
            match slot {
                RankState::Running { child, incarnation, last_stamp, last_change } => {
                    // Clean completion: the exit marker is written before
                    // the process exits, so marker + reaped child is
                    // unambiguous. Death detection itself never trusts
                    // exit status — only the heartbeat.
                    if protocol::exit_path(run, rank).exists()
                        && child.try_wait().ok().flatten().is_some()
                    {
                        fleet.log.log("rank_finished", &[("rank", rank.to_string())]);
                        *slot = RankState::Finished;
                        continue;
                    }
                    let stamp = protocol::read_hb_stamp(run, rank);
                    if stamp != *last_stamp {
                        *last_stamp = stamp;
                        *last_change = Instant::now();
                    } else if last_change.elapsed() > cfg.heartbeat_timeout {
                        // Dead (or wedged): declared via heartbeat
                        // timeout, exactly as a hung-but-running process
                        // would be.
                        let inc = *incarnation;
                        let _ = child.kill();
                        let _ = child.wait();
                        fleet.heartbeat_misses += 1;
                        fleet.log.log(
                            "heartbeat_miss",
                            &[
                                ("rank", rank.to_string()),
                                ("incarnation", inc.to_string()),
                                ("stale_ms", last_change.elapsed().as_millis().to_string()),
                            ],
                        );
                        *slot = fleet.died(rank, inc)?;
                    }
                }
                RankState::Backoff { incarnation, until } => {
                    if Instant::now() >= *until {
                        let inc = *incarnation;
                        fleet.restarts += 1;
                        *slot = fleet.spawn(rank, inc)?;
                    }
                }
                RankState::Finished | RankState::Degraded => {}
            }
        }

        let any_alive = slots
            .iter()
            .any(|s| matches!(s, RankState::Running { .. } | RankState::Backoff { .. }));
        // Ranks may all have finished during this scan, after the done
        // count at the loop top went stale — recount before declaring the
        // fleet exhausted.
        if !any_alive {
            let done = protocol::count_done(run)?;
            if done < cfg.n_domains {
                fleet.log.log("ranks_exhausted", &[("done", done.to_string())]);
                return Err(ShardError::RanksExhausted { unfinished: cfg.n_domains - done });
            }
        }
    }
}

impl<'a> Fleet<'a> {
    fn new(cfg: &'a ShardConfig) -> Result<Fleet<'a>, ShardError> {
        Ok(Fleet {
            cfg,
            log: CoordLog::open(&cfg.run_dir)?,
            deaths: vec![0; cfg.ranks],
            restarts: 0,
            heartbeat_misses: 0,
            t0: Instant::now(),
        })
    }

    /// Spawns rank `rank` at `incarnation` with nothing but its identity
    /// in the environment it adds; a spawn failure is a death like any
    /// other.
    fn spawn(&mut self, rank: usize, incarnation: u32) -> Result<RankState, ShardError> {
        let exe = self.cfg.worker_exe.clone().map_or_else(std::env::current_exe, Ok);
        let child = exe.and_then(|exe| {
            Command::new(exe)
                .env(SHARD_WORKER_ENV, "1")
                .env(SHARD_DIR_ENV, &self.cfg.run_dir)
                .env(DCMESH_RANK_ENV, rank.to_string())
                .env(SHARD_INCARNATION_ENV, incarnation.to_string())
                .stdout(Stdio::null())
                .spawn()
        });
        let rank_field = ("rank", rank.to_string());
        match child {
            Ok(child) => {
                self.log.log("rank_spawn", &[rank_field, ("incarnation", incarnation.to_string())]);
                Ok(RankState::Running {
                    child,
                    incarnation,
                    last_stamp: None,
                    last_change: Instant::now(),
                })
            }
            Err(e) => {
                self.log.log(
                    "rank_spawn_failed",
                    &[rank_field, ("error", json::escape_string(&e.to_string()))],
                );
                self.died(rank, incarnation)
            }
        }
    }

    /// The one death path, for a heartbeat timeout and a failed spawn
    /// alike. Within the respawn budget the rank backs off and its claims
    /// are kept — the respawn adopts its in-flight domain and replays it
    /// from the shared checkpoint; past it the rank is degraded and its
    /// claims return to the queue for the survivors.
    fn died(&mut self, rank: usize, incarnation: u32) -> Result<RankState, ShardError> {
        self.deaths[rank] += 1;
        let deaths = self.deaths[rank];
        if deaths <= MAX_RESPAWNS {
            let delay = backoff_for(deaths);
            self.log.log(
                "rank_backoff",
                &[("rank", rank.to_string()), ("delay_ms", delay.as_millis().to_string())],
            );
            return Ok(RankState::Backoff {
                incarnation: incarnation + 1,
                until: Instant::now() + delay,
            });
        }
        self.log
            .log("rank_degraded", &[("rank", rank.to_string()), ("deaths", deaths.to_string())]);
        for d in protocol::release_claims(&self.cfg.run_dir, rank)? {
            self.log.log(
                "domain_reassigned",
                &[("domain", d.to_string()), ("from_rank", rank.to_string())],
            );
        }
        Ok(RankState::Degraded)
    }

    fn finalize(&mut self, slots: &mut [RankState]) -> ShardReport {
        let cfg = self.cfg;
        let run = cfg.run_dir.as_path();
        // Workers exit on their own once they observe the full done set;
        // give them a grace period, then insist.
        let deadline = Instant::now() + cfg.heartbeat_timeout;
        for (rank, slot) in slots.iter_mut().enumerate() {
            if let RankState::Running { child, .. } = slot {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() > deadline => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        _ => std::thread::sleep(protocol::poll_interval(cfg.heartbeat_interval)),
                    }
                }
                self.log.log("rank_finished", &[("rank", rank.to_string())]);
                *slot = RankState::Finished;
            }
        }

        let domains = (0..cfg.n_domains).map(|d| protocol::read_done(run, d)).collect();
        let degraded_ranks: Vec<usize> =
            (0..cfg.ranks).filter(|&r| matches!(slots[r], RankState::Degraded)).collect();
        let ranks = (0..cfg.ranks)
            .map(|r| RankSummary {
                rank: r,
                incarnations: self.deaths[r].min(MAX_RESPAWNS) + 1,
                degraded: degraded_ranks.contains(&r),
            })
            .collect();
        let report = ShardReport {
            domains,
            ranks,
            heartbeat_misses: self.heartbeat_misses,
            restarts: self.restarts,
            degraded_ranks,
            elapsed: self.t0.elapsed(),
        };
        self.log.log(
            "run_complete",
            &[
                ("restarts", self.restarts.to_string()),
                ("heartbeat_misses", self.heartbeat_misses.to_string()),
                ("failed_domains", report.failed_domains().len().to_string()),
            ],
        );
        let _ = protocol::write_report(run, &report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunConfig, SystemPreset};

    /// A rank whose last respawn cannot even be spawned is degraded the
    /// way a heartbeat death is: logged, and its claims back in the queue
    /// — the survivors used to idle-poll for its domain until `max_wall`.
    #[test]
    fn a_rank_degraded_by_spawn_failure_returns_its_claims() {
        let dir = std::env::temp_dir().join(format!("dcmesh-spawn-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let deck = RunConfig::preset(SystemPreset::Pto40Small);
        let mut cfg = ShardConfig::new(deck, 1, 1, dir.clone());
        cfg.worker_exe = Some(dir.join("no-such-worker"));
        protocol::prepare_run_dir(&dir, 1, 1).expect("seed the queue");
        assert!(protocol::claimed_path(&dir, 0, 0).exists(), "domain 0 is pre-claimed");

        let mut fleet = Fleet::new(&cfg).expect("open coord.log");
        fleet.deaths[0] = MAX_RESPAWNS;
        let state = fleet.spawn(0, MAX_RESPAWNS).expect("a failed spawn is not an error");
        assert!(matches!(state, RankState::Degraded));
        assert!(protocol::todo_path(&dir, 0).exists(), "the claim returned to the queue");
        assert!(!protocol::claimed_path(&dir, 0, 0).exists());
        let log = std::fs::read_to_string(protocol::coord_log_path(&dir)).expect("coord.log");
        for event in ["\"rank_spawn_failed\"", "\"rank_degraded\"", "\"domain_reassigned\""] {
            assert!(log.contains(event), "coord.log lacks {event}:\n{log}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
