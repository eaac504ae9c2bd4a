//! The worker side of the fleet: a rank process that takes its identity
//! from four environment variables and everything else from
//! `MANIFEST.json`, claims domains from the queue and runs each under the
//! full per-rank supervisor with shared checkpoints.

use super::protocol::{
    self, adopt_own_claim, claim_next, count_done, DomainOutcome, HbState, SHARD_DIR_ENV,
    SHARD_INCARNATION_ENV, SHARD_WORKER_ENV,
};
use super::{domain_config, ShardConfig, ShardError};
use crate::runner::DCMESH_RANK_ENV;
use crate::supervisor::{run_supervised_observed, BurstObserver, SupervisorConfig};
use dcmesh_telemetry::{instant, sink, Attr, AttrValue};
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exit code of a worker dying to an injected [`super::RankKillPlan`]
/// kill — distinguishable in logs from a clean exit or a panic.
pub const KILL_EXIT_CODE: i32 = 86;

/// If this process was launched as a shard worker (the coordinator set
/// `DCMESH_SHARD_WORKER=1`), runs the worker protocol to completion and
/// **exits the process**; returns immediately otherwise. Worker-capable
/// binaries (`dcmesh-shard`) call this first thing in `main`.
pub fn maybe_run_worker() {
    if std::env::var(SHARD_WORKER_ENV).as_deref() != Ok("1") {
        return;
    }
    let identity = || -> Result<(PathBuf, usize, u32), ShardError> {
        Ok((
            identity_var(SHARD_DIR_ENV)?,
            identity_var(DCMESH_RANK_ENV)?,
            identity_var(SHARD_INCARNATION_ENV)?,
        ))
    };
    match identity().and_then(|(run, rank, incarnation)| worker_main(&run, rank, incarnation)) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("shard worker: fatal: {e}");
            std::process::exit(1);
        }
    }
}

/// One of the identity variables the coordinator spawns a worker with —
/// the only environment a worker reads.
fn identity_var<T: FromStr>(key: &str) -> Result<T, ShardError> {
    let value =
        std::env::var(key).map_err(|_| ShardError::Worker(format!("missing environment {key}")))?;
    value.parse().map_err(|_| ShardError::Worker(format!("bad {key}")))
}

/// The burst observer a worker attaches to each supervised domain run:
/// bumps the heartbeat's progress counters, fires the deterministic
/// kill point, and at every commit flushes the rank's accumulated
/// telemetry — events appended to its stream, the ledger snapshot
/// rewritten — so `profile watch` reads the run live and a rank that
/// dies later has already left its committed work on disk. Burst
/// counting spans domains within one incarnation.
pub(super) struct WorkerObserver {
    pub(super) hb: Arc<HbState>,
    pub(super) kill_at: Option<u64>,
    pub(super) rank: usize,
    pub(super) incarnation: u32,
    pub(super) run: PathBuf,
}

impl BurstObserver for WorkerObserver {
    fn burst_starting(&mut self, _burst_index: u64, _steps_done: u64) {
        let n = self.hb.bursts.fetch_add(1, Ordering::Relaxed);
        if self.kill_at == Some(n) {
            // A real death, not an error return: the heartbeat thread
            // dies with the process and the coordinator must notice via
            // the timeout. The burst that was about to run is in flight
            // and uncheckpointed — recovery replays it.
            eprintln!("shard worker rank {}: injected kill at burst {n}", self.rank);
            std::process::exit(KILL_EXIT_CODE);
        }
    }

    fn burst_committed(&mut self, _burst_index: u64, _steps_done: u64) {
        // Telemetry loss here only degrades the live view; the run
        // itself must not fail over an observability write.
        let _ = protocol::flush_rank_trace(&self.run, self.rank, self.incarnation);
    }
}

/// The worker protocol: adopt own orphaned claims, then claim domains
/// from the queue until every domain is done, idling (rather than
/// exiting) while other ranks hold unfinished claims so released work
/// can still be picked up. Runs domains under the full per-rank
/// supervisor with shared checkpoints, with the manifest's bit flips
/// (if any) installed on the calling thread's BLAS for the worker's
/// lifetime.
fn worker_main(run_dir: &Path, rank: usize, incarnation: u32) -> Result<(), ShardError> {
    let m = protocol::read_manifest(run_dir)?;
    if rank >= m.ranks {
        return Err(ShardError::Worker(format!(
            "rank {rank} out of range for a {}-rank fleet",
            m.ranks
        )));
    }
    if let Some(plan) = m.bit_flips.clone() {
        mkl_lite::install_fault_plan(plan);
    }
    let hb = Arc::new(HbState { domain: AtomicU64::new(u64::MAX), ..HbState::default() });
    let pid = std::process::id();

    // Liveness heartbeat: a killed or wedged-at-exit process stops
    // bumping `seq`; the coordinator's timeout does the rest.
    protocol::write_heartbeat(run_dir, rank, pid, &hb);
    let hb_thread = {
        let hb = hb.clone();
        let run = run_dir.to_path_buf();
        let interval = m.heartbeat_interval;
        std::thread::spawn(move || {
            while !hb.stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                protocol::write_heartbeat(&run, rank, pid, &hb);
            }
        })
    };

    // Stamp this process's rank into the telemetry metadata before the
    // stream header is written, so tailers and the merger can tell the
    // per-rank streams apart without trusting filenames. The fleet size
    // goes into the ledger header the same way — each rank's ledger
    // snapshot then documents the fleet it was part of.
    sink::set_rank(rank as u64);
    dcmesh_telemetry::ledger::set_rank_count(m.ranks as u64);
    instant(
        "worker_start",
        vec![
            Attr { key: "rank", value: AttrValue::U64(rank as u64) },
            Attr { key: "incarnation", value: AttrValue::U64(incarnation as u64) },
        ],
    );
    let _ = protocol::start_rank_events(run_dir, rank);

    loop {
        if count_done(run_dir)? >= m.n_domains {
            break;
        }
        let claimed = match adopt_own_claim(run_dir, rank)? {
            Some(d) => Some(d),
            None => claim_next(run_dir, m.n_domains, rank)?,
        };
        match claimed {
            Some(domain) => run_domain(&m, domain, rank, incarnation, &hb)?,
            // Nothing claimable right now — but unfinished domains may
            // return to the queue if their rank dies, so wait, don't exit.
            None => std::thread::sleep(protocol::poll_interval(m.heartbeat_interval)),
        }
    }

    // Clean completion: stop the heartbeat, flush what this rank
    // recorded since its last commit, and leave the completion marker so
    // the coordinator can tell "finished" from "died quietly".
    hb.stop.store(true, Ordering::Relaxed);
    let _ = hb_thread.join();
    protocol::flush_rank_trace(run_dir, rank, incarnation)?;
    protocol::write_exit_marker(run_dir, rank)?;
    Ok(())
}

/// Runs `domain` of the manifest `m` describes and leaves its done file.
fn run_domain(
    m: &ShardConfig,
    domain: usize,
    rank: usize,
    incarnation: u32,
    hb: &Arc<HbState>,
) -> Result<(), ShardError> {
    let run = m.run_dir.as_path();
    let cfg = domain_config(&m.deck, domain, m.n_domains)?;
    let sup = SupervisorConfig {
        checkpoint_dir: Some(protocol::ck_dir(run, domain)),
        abft_check_period: m.abft_check_period,
        verify_bursts: m.verify_bursts,
    };
    hb.domain.store(domain as u64, Ordering::Relaxed);
    let kill_at = m.kill_plan.kill_burst_for(rank, incarnation);
    let mut observer =
        WorkerObserver { hb: hb.clone(), kill_at, rank, incarnation, run: run.to_path_buf() };
    // Element width f32: the paper's mixed-precision configuration (the
    // FP64 baseline has no low-precision modes to escalate between).
    let out = run_supervised_observed::<f32>(&cfg, m.start_mode, &sup, &mut observer);
    hb.domain.store(u64::MAX, Ordering::Relaxed);

    let outcome = match &out {
        Ok(run_out) => {
            // A resumed invocation records only the tail; the boundary
            // observables still come from the final step either way.
            let last = run_out.result.records.last();
            let bits = |f: fn(&dcmesh_lfd::StepObservables) -> f64| last.map_or(0.0, f).to_bits();
            DomainOutcome {
                domain,
                ok: true,
                rank,
                incarnation,
                resumed_from_step: run_out.resumed_from_step,
                final_step: last.map_or(0, |o| o.step),
                ekin_bits: bits(|o| o.ekin),
                nexc_bits: bits(|o| o.nexc),
                etot_bits: bits(|o| o.etot),
                escalations: run_out.escalations.len() as u64,
                sdc_recoveries: run_out.sdc_recoveries,
                error: None,
            }
        }
        Err(e) => DomainOutcome::failed(domain, rank, incarnation, e.to_string()),
    };
    protocol::write_done(run, &outcome)?;
    instant(
        if out.is_ok() { "domain_done" } else { "domain_failed" },
        vec![
            Attr { key: "domain", value: AttrValue::U64(domain as u64) },
            Attr { key: "rank", value: AttrValue::U64(rank as u64) },
        ],
    );
    // Claim marker last: even if the process dies between the done write
    // and this removal, a re-run of the domain is deterministic and the
    // done rewrite is idempotent.
    let _ = fs::remove_file(protocol::claimed_path(run, domain, rank));
    Ok(())
}
