//! Multi-rank sharded execution with rank-failure detection and
//! checkpoint-replay recovery — the divide-and-conquer in DCMESH's name,
//! as this repository honours it.
//!
//! A **coordinator** process ([`run_coordinator`]) shards the
//! divide-and-conquer domains — contiguous blocks of the orbital space,
//! each an independently propagated sub-deck ([`domain_config`]) — across
//! N **worker ranks**, real OS processes, and coordinates them through a
//! shared run directory. The directory's layout and every file's writer
//! and strict reader live in `shard::protocol`; `shard::coordinator` and
//! `shard::worker` are the two sides. A worker's only input besides its
//! identity (four environment variables) is `MANIFEST.json`.
//!
//! Robustness is the headline:
//!
//! * **Dead-rank detection** is by heartbeat timeout: every worker runs a
//!   heartbeat thread atomically rewriting its heartbeat file; the
//!   coordinator declares a rank dead when the file's *mtime* stops
//!   changing for [`ShardConfig::heartbeat_timeout`] of its own monotonic
//!   clock. A killed *or hung* process looks the same either way; exit
//!   status alone is never trusted as liveness.
//! * **Bounded respawn, then graceful degradation**: a dead rank — or one
//!   that failed to spawn — is relaunched up to twice, 100 ms · 2^k apart
//!   (capped at 5 s), adopts its own claims and replays the in-flight
//!   burst from the newest shared checkpoint; past that budget its claims
//!   return to the queue and the run completes on fewer ranks.
//! * **Deterministic fault injection**: a [`RankKillPlan`] ("kill rank r
//!   at burst b" — the process-level counterpart of the call-level
//!   `mkl_lite::FaultPlan`, which [`ShardConfig::bit_flips`] arms in
//!   every worker) makes every recovery path testable — the chaos tests
//!   assert bit-identical observables against an uninterrupted run.
//!
//! Each worker keeps the full per-rank supervisor (health monitoring,
//! burst rollback, the BF16→…→FP32 escalation ladder) via
//! [`crate::supervisor::run_supervised_observed`]; domain results are
//! fully determined by the domain deck, so *which* rank completes a domain
//! never changes the numbers — that is what makes work stealing and
//! replay safe.

mod coordinator;
mod protocol;
mod worker;

use crate::config::RunConfig;
use mkl_lite::{ComputeMode, FaultPlan};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

pub use coordinator::run_coordinator;
pub use protocol::{report_path, DomainOutcome, RankSummary, ShardReport};
pub use worker::{maybe_run_worker, KILL_EXIT_CODE};

/// Any failure of the sharded-run machinery itself (worker-side numeric
/// failures are *not* here — they land in the affected domain's
/// [`DomainOutcome`] so one bad domain cannot abort the fleet).
#[derive(Debug)]
pub enum ShardError {
    /// Run-directory or coordination-file I/O failed.
    Io(std::io::Error),
    /// The shard configuration is unusable.
    InvalidConfig(String),
    /// `MANIFEST.json` (or another coordination file) did not parse.
    Manifest(String),
    /// Every rank is dead with its respawn budget exhausted while
    /// domains remain unfinished.
    RanksExhausted {
        /// Domains still without a done record.
        unfinished: usize,
    },
    /// The coordinator hit [`ShardConfig::max_wall`].
    WallClockExceeded {
        /// Configured limit.
        limit: Duration,
        /// Domains still without a done record.
        unfinished: usize,
    },
    /// A worker-side error outside any domain run (bad manifest, bad
    /// identity).
    Worker(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O: {e}"),
            ShardError::InvalidConfig(m) => write!(f, "invalid shard configuration: {m}"),
            ShardError::Manifest(m) => write!(f, "shard manifest: {m}"),
            ShardError::RanksExhausted { unfinished } => write!(
                f,
                "all ranks dead with respawn budgets exhausted; {unfinished} domain(s) unfinished"
            ),
            ShardError::WallClockExceeded { limit, unfinished } => write!(
                f,
                "sharded run exceeded the {:.1}s wall-clock limit with {unfinished} domain(s) \
                 unfinished",
                limit.as_secs_f64()
            ),
            ShardError::Worker(m) => write!(f, "shard worker: {m}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<dcmesh_telemetry::json::FieldError> for ShardError {
    fn from(e: dcmesh_telemetry::json::FieldError) -> Self {
        ShardError::Manifest(e.to_string())
    }
}

/// One scheduled rank death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankKill {
    /// Rank to kill.
    pub rank: usize,
    /// 0-based index of the burst — counted across all domains the rank
    /// executes within one incarnation — at whose start the process
    /// hard-exits. The burst is in flight (not yet checkpointed) when
    /// the kill fires, so recovery must replay it.
    pub burst: u64,
    /// Kill **every** incarnation at that burst (exhausts the respawn
    /// budget and forces the degradation path) instead of only the
    /// first.
    pub every_incarnation: bool,
}

/// Deterministic "kill rank r at burst b" schedules — rank-level fault
/// injection beside the call-level `mkl_lite::FaultPlan`, so every
/// recovery path is testable. The spec grammar
/// is a comma list of `r@b` (first incarnation only) or `r@b*` (every
/// incarnation), e.g. `"1@2,3@0*"`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankKillPlan {
    /// Scheduled kills; empty = never kill.
    pub kills: Vec<RankKill>,
}

impl RankKillPlan {
    /// Parses the `r@b[*][,r@b[*]...]` spec; an empty string is the
    /// empty plan.
    pub fn parse(spec: &str) -> Result<RankKillPlan, ShardError> {
        let mut kills = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (body, every) = match part.strip_suffix('*') {
                Some(b) => (b, true),
                None => (part, false),
            };
            let (r, b) = body.split_once('@').ok_or_else(|| {
                ShardError::InvalidConfig(format!("kill spec {part:?}: expected r@b or r@b*"))
            })?;
            let rank = r.trim().parse::<usize>().map_err(|_| {
                ShardError::InvalidConfig(format!("kill spec {part:?}: bad rank {r:?}"))
            })?;
            let burst = b.trim().parse::<u64>().map_err(|_| {
                ShardError::InvalidConfig(format!("kill spec {part:?}: bad burst {b:?}"))
            })?;
            kills.push(RankKill { rank, burst, every_incarnation: every });
        }
        Ok(RankKillPlan { kills })
    }

    /// Renders back to the spec grammar (for `MANIFEST.json`).
    pub fn to_spec(&self) -> String {
        self.kills
            .iter()
            .map(|k| {
                format!("{}@{}{}", k.rank, k.burst, if k.every_incarnation { "*" } else { "" })
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The burst at which `rank` (in the given incarnation) should die,
    /// if any.
    pub fn kill_burst_for(&self, rank: usize, incarnation: u32) -> Option<u64> {
        self.kills
            .iter()
            .find(|k| k.rank == rank && (k.every_incarnation || incarnation == 0))
            .map(|k| k.burst)
    }
}

/// Everything a sharded run needs. The deck, fleet shape, heartbeat
/// cadence and fault settings reach the workers through `MANIFEST.json`;
/// the rest is the coordinator's.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The global deck; domains are carved out of its orbital space by
    /// [`domain_config`].
    pub deck: RunConfig,
    /// Worker processes to spawn.
    pub ranks: usize,
    /// Divide-and-conquer domains to shard. Must be ≥ `ranks` for every
    /// rank to get initial work, and ≤ `deck.n_occ` so every domain
    /// holds at least one occupied orbital.
    pub n_domains: usize,
    /// Compute mode each per-rank supervisor starts in (its escalation
    /// ladder still applies on divergence).
    pub start_mode: ComputeMode,
    /// Shared coordination directory.
    pub run_dir: PathBuf,
    /// Worker executable; defaults to `current_exe()` (the coordinator
    /// binary doubles as the worker via [`maybe_run_worker`]). Tests
    /// point this at the `dcmesh-shard` binary.
    pub worker_exe: Option<PathBuf>,
    /// How often workers bump their heartbeat; both sides poll the run
    /// directory at this cadence, at most every 50 ms.
    pub heartbeat_interval: Duration,
    /// Heartbeat silence after which a rank is declared dead. Must
    /// comfortably exceed `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Hard wall-clock limit for the whole run (`None` = unlimited).
    /// Keeps a wedged fleet from hanging CI forever.
    pub max_wall: Option<Duration>,
    /// Deterministic rank-death schedule (testing only; default never
    /// kills).
    pub kill_plan: RankKillPlan,
    /// Bit flips every worker installs on its BLAS for its lifetime —
    /// silent-data-corruption injection for the chaos tests. Must stay
    /// inside [`FaultPlan::parse`]'s grammar to travel in the manifest.
    pub bit_flips: Option<FaultPlan>,
    /// Each worker's [`crate::SupervisorConfig::abft_check_period`].
    pub abft_check_period: Option<u64>,
    /// Each worker's [`crate::SupervisorConfig::verify_bursts`].
    pub verify_bursts: Option<u64>,
}

impl ShardConfig {
    /// A configuration with production-lean timing defaults.
    pub fn new(deck: RunConfig, ranks: usize, n_domains: usize, run_dir: PathBuf) -> ShardConfig {
        ShardConfig {
            deck,
            ranks,
            n_domains,
            start_mode: ComputeMode::Standard,
            run_dir,
            worker_exe: None,
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_timeout: Duration::from_secs(3),
            max_wall: Some(Duration::from_secs(600)),
            kill_plan: RankKillPlan::default(),
            bit_flips: None,
            abft_check_period: None,
            verify_bursts: None,
        }
    }

    fn validate(&self) -> Result<(), ShardError> {
        let err = |m: String| Err(ShardError::InvalidConfig(m));
        if self.ranks == 0 {
            return err("ranks must be positive".into());
        }
        if self.n_domains < self.ranks {
            return err(format!(
                "{} domains cannot feed {} ranks (every rank needs initial work)",
                self.n_domains, self.ranks
            ));
        }
        if self.heartbeat_timeout < self.heartbeat_interval * 2 {
            return err("heartbeat_timeout must be at least 2x heartbeat_interval".into());
        }
        if self.bit_flips.as_ref().is_some_and(|p| p.to_spec().is_none()) {
            return err("bit_flips has a site outside the spec grammar the manifest carries".into());
        }
        // Validates domain count against the deck (and each sub-deck).
        for d in 0..self.n_domains {
            domain_config(&self.deck, d, self.n_domains)?;
        }
        Ok(())
    }
}

/// Balanced contiguous split: part `idx` of `total` split `parts` ways
/// (remainder front-loaded).
fn split_part(total: usize, parts: usize, idx: usize) -> usize {
    total / parts + usize::from(idx < total % parts)
}

/// The deck for divide-and-conquer domain `domain` of `n_domains`: a
/// balanced contiguous block of the orbital space, propagated as an
/// independent sub-deck (block orthonormalisation — the approximation a
/// divide-and-conquer solver's divide step makes spatially). Because
/// `n_occ ≤ n_orb` and both splits front-load their remainders, every
/// domain keeps `n_occ ≤ n_orb`.
pub fn domain_config(
    base: &RunConfig,
    domain: usize,
    n_domains: usize,
) -> Result<RunConfig, ShardError> {
    if n_domains == 0 || domain >= n_domains {
        return Err(ShardError::InvalidConfig(format!(
            "domain {domain} out of range for {n_domains} domain(s)"
        )));
    }
    if n_domains > base.n_occ {
        return Err(ShardError::InvalidConfig(format!(
            "{} domains but only {} occupied orbitals — every domain needs at least one",
            n_domains, base.n_occ
        )));
    }
    let mut cfg = base.clone();
    cfg.label = format!("{}~dom{domain}", base.label);
    cfg.n_orb = split_part(base.n_orb, n_domains, domain);
    cfg.n_occ = split_part(base.n_occ, n_domains, domain);
    cfg.validate().map_err(|e| ShardError::InvalidConfig(format!("domain {domain} deck: {e}")))?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::coordinator::backoff_for;
    use super::protocol::{
        adopt_own_claim, claim_next, merge_domain_bits, queue_dir, read_manifest, todo_path,
        trace_dir, write_manifest, HbState,
    };
    use super::worker::WorkerObserver;
    use super::*;
    use crate::config::SystemPreset;
    use crate::supervisor::BurstObserver;
    use dcmesh_numerics::reduce;
    use dcmesh_telemetry::export::write_atomic;
    use dcmesh_telemetry::json;
    use std::fs;
    use std::sync::Arc;

    fn tiny_deck() -> RunConfig {
        let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
        cfg.mesh_points = 10;
        cfg.n_orb = 8;
        cfg.n_occ = 4;
        cfg.total_qd_steps = 60;
        cfg.qd_steps_per_md = 20;
        cfg
    }

    #[test]
    fn kill_plan_spec_roundtrips() {
        let plan = RankKillPlan::parse("1@2, 3@0*").expect("parse");
        assert_eq!(
            plan.kills,
            vec![
                RankKill { rank: 1, burst: 2, every_incarnation: false },
                RankKill { rank: 3, burst: 0, every_incarnation: true },
            ]
        );
        assert_eq!(RankKillPlan::parse(&plan.to_spec()).expect("reparse"), plan);
        assert_eq!(RankKillPlan::parse("").expect("empty"), RankKillPlan::default());
        assert!(RankKillPlan::parse("nope").is_err());
        assert!(RankKillPlan::parse("1@x").is_err());

        assert_eq!(plan.kill_burst_for(1, 0), Some(2));
        assert_eq!(plan.kill_burst_for(1, 1), None, "plain kills hit only incarnation 0");
        assert_eq!(plan.kill_burst_for(3, 5), Some(0), "starred kills hit every incarnation");
        assert_eq!(plan.kill_burst_for(0, 0), None);
    }

    #[test]
    fn domain_split_is_balanced_and_valid() {
        let deck = tiny_deck();
        let mut orb = 0;
        let mut occ = 0;
        for d in 0..4 {
            let cfg = domain_config(&deck, d, 4).expect("domain deck");
            assert!(cfg.n_occ >= 1 && cfg.n_occ <= cfg.n_orb);
            assert_eq!(cfg.label, format!("{}~dom{d}", deck.label));
            orb += cfg.n_orb;
            occ += cfg.n_occ;
        }
        assert_eq!(orb, deck.n_orb, "orbital blocks must partition the space");
        assert_eq!(occ, deck.n_occ);

        // Uneven splits stay valid for every (orb, occ, parts) we allow.
        for parts in 1..=4 {
            for d in 0..parts {
                let cfg = domain_config(&deck, d, parts).expect("deck");
                assert!(cfg.n_occ <= cfg.n_orb);
            }
        }
        assert!(domain_config(&deck, 0, 5).is_err(), "more domains than occupied orbitals");
        assert!(domain_config(&deck, 4, 4).is_err(), "domain index out of range");
    }

    #[test]
    fn manifest_roundtrips_through_the_run_dir() {
        let dir = std::env::temp_dir().join(format!("dcmesh-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("dir");
        let mut cfg = ShardConfig::new(tiny_deck(), 2, 4, dir.clone());
        cfg.start_mode = ComputeMode::FloatToBf16;
        cfg.kill_plan = RankKillPlan::parse("1@1,0@2*").expect("kill spec");
        cfg.bit_flips = Some(FaultPlan::parse("7:250@61,292@61").expect("flip spec"));
        cfg.abft_check_period = Some(1);
        cfg.verify_bursts = Some(3);
        write_manifest(&cfg).expect("write");
        let m = read_manifest(&dir).expect("read");
        assert_eq!(m.n_domains, 4);
        assert_eq!(m.ranks, 2);
        assert_eq!(m.start_mode, ComputeMode::FloatToBf16);
        assert_eq!(m.heartbeat_interval, cfg.heartbeat_interval);
        assert_eq!(m.deck.n_orb, 8);
        assert_eq!(m.deck.total_qd_steps, 60);
        assert_eq!(m.kill_plan, cfg.kill_plan);
        assert_eq!(m.bit_flips, cfg.bit_flips);
        assert_eq!((m.abft_check_period, m.verify_bursts), (Some(1), Some(3)));

        // Off is an explicit `null`, and reads back as off.
        let cfg = ShardConfig::new(tiny_deck(), 2, 4, dir.clone());
        write_manifest(&cfg).expect("write");
        let m = read_manifest(&dir).expect("read");
        assert_eq!(m.kill_plan, RankKillPlan::default());
        assert_eq!((m.bit_flips, m.abft_check_period, m.verify_bursts), (None, None, None));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claims_are_atomic_and_adoption_prefers_own_rank() {
        let dir = std::env::temp_dir().join(format!("dcmesh-claim-{}", std::process::id()));
        fs::create_dir_all(queue_dir(&dir)).expect("dir");
        for d in 0..3 {
            write_atomic(&todo_path(&dir, d), "{}").expect("seed");
        }
        assert_eq!(claim_next(&dir, 3, 0).expect("claim"), Some(0));
        assert_eq!(claim_next(&dir, 3, 1).expect("claim"), Some(1));
        // Rank 0's claim survives; adoption finds it, not rank 1's.
        assert_eq!(adopt_own_claim(&dir, 0).expect("adopt"), Some(0));
        assert_eq!(adopt_own_claim(&dir, 2).expect("adopt"), None);
        // Only one todo left.
        assert_eq!(claim_next(&dir, 3, 2).expect("claim"), Some(2));
        assert_eq!(claim_next(&dir, 3, 2).expect("claim"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_incarnation_snapshots_its_own_ledger_at_every_commit() {
        use dcmesh_telemetry::ledger::{self, Key};
        let dir = std::env::temp_dir().join(format!("dcmesh-snap-{}", std::process::id()));
        fs::create_dir_all(trace_dir(&dir)).expect("dir");
        let observer = |incarnation| WorkerObserver {
            hb: Arc::new(HbState::default()),
            kill_at: None,
            rank: 1,
            incarnation,
            run: dir.clone(),
        };
        let calls_in = |name: &str| {
            let text = fs::read_to_string(trace_dir(&dir).join(name)).expect(name);
            let (_, rows) = ledger::parse_ledger(&text).expect("snapshot parses");
            rows.iter().map(|r| r.stats.calls).sum::<u64>()
        };
        let key = Key::for_call("CGEMM", 8, 8, 64, "FLOAT_TO_BF16");
        dcmesh_telemetry::with_level(dcmesh_telemetry::TelemetryLevel::Events, || {
            // First process of rank 1: the snapshot is there after the
            // first committed burst and follows the ledger at the second.
            let mut first = observer(0);
            ledger::record_call(key, 1e-3, None);
            first.burst_committed(0, 20);
            assert_eq!(calls_in("ledger-rank1-inc0.json"), 1);
            ledger::record_call(key, 1e-3, None);
            first.burst_committed(1, 40);
            assert_eq!(calls_in("ledger-rank1-inc0.json"), 2);
            // It dies with a burst in flight: calls it never committed.
            ledger::record_call(key, 1e-3, None);

            // The respawn is a new process — an empty ledger — resuming
            // after burst 1. Its file sits beside its predecessor's.
            ledger::clear();
            let mut second = observer(1);
            ledger::record_call(key, 1e-3, None);
            second.burst_committed(2, 60);
        });
        assert_eq!(calls_in("ledger-rank1-inc0.json"), 2, "the dead incarnation's work stays");
        assert_eq!(calls_in("ledger-rank1-inc1.json"), 1, "the replayed burst counts once");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_json_roundtrips_bit_patterns() {
        let report = ShardReport {
            domains: vec![DomainOutcome {
                domain: 0,
                ok: true,
                rank: 1,
                incarnation: 2,
                resumed_from_step: Some(20),
                final_step: 60,
                ekin_bits: 0x3ff5_5555_5555_5555,
                nexc_bits: f64::to_bits(-0.0),
                etot_bits: u64::MAX,
                escalations: 1,
                sdc_recoveries: 2,
                error: None,
            }],
            ranks: vec![RankSummary { rank: 0, incarnations: 1, degraded: false }],
            heartbeat_misses: 1,
            restarts: 2,
            degraded_ranks: vec![3],
            elapsed: Duration::from_millis(1234),
        };
        let back = ShardReport::parse(&report.to_json()).expect("parse");
        let d = &back.domains[0];
        assert_eq!(d.ekin_bits, 0x3ff5_5555_5555_5555);
        assert_eq!(d.nexc_bits, f64::to_bits(-0.0));
        assert_eq!(d.etot_bits, u64::MAX, "NaN patterns survive the hex encoding");
        assert_eq!(d.resumed_from_step, Some(20));
        assert_eq!(d.sdc_recoveries, 2);
        assert_eq!(back.restarts, 2);
        assert_eq!(back.degraded_ranks, vec![3]);
        assert!(back.failed_domains().is_empty());
        assert_eq!(back.merged_bits(), report.merged_bits(), "merge survives the roundtrip");
    }

    /// A reader that cannot fail reads a torn or foreign file as a clean
    /// fleet: `{}` used to parse as zero domains, and a domain that lost
    /// its bit patterns as a successful +0.0.
    #[test]
    fn report_and_outcome_readers_reject_missing_and_mistyped_fields() {
        let manifest = |r: Result<ShardReport, ShardError>, what: &str| match r {
            Err(ShardError::Manifest(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected a Manifest error naming {what}, got {other:?}"),
        };
        manifest(ShardReport::parse("{}"), "domains");

        let good = DomainOutcome::failed(0, 1, 2, "boom".into());
        let report = |domain: &str| {
            let zero = "\"0x0000000000000000\"";
            format!(
                "{{\"completed\":false,\"heartbeat_misses\":0,\"restarts\":0,\
                 \"degraded_ranks\":[],\"elapsed_ms\":5,\"merged_ekin_bits\":{zero},\
                 \"merged_nexc_bits\":{zero},\"merged_etot_bits\":{zero},\
                 \"domains\":[{domain}],\"ranks\":[]}}"
            )
        };
        let back = ShardReport::parse(&report(&good.to_json())).expect("complete outcome");
        assert_eq!(back.failed_domains(), vec![0]);
        assert_eq!(back.domains[0].error.as_deref(), Some("boom"));

        let without_etot = good.to_json().replace("\"etot_bits\":\"0x0000000000000000\",", "");
        assert!(!without_etot.contains("etot_bits"));
        manifest(ShardReport::parse(&report(&without_etot)), "etot_bits");
        let stringly_ok = good.to_json().replace("\"ok\":false", "\"ok\":\"true\"");
        manifest(ShardReport::parse(&report(&stringly_ok)), "ok");
        // The done file a worker used to be able to leave behind.
        let doc = json::parse("{\"status\":\"ok\"}").expect("json");
        assert!(matches!(DomainOutcome::from_json(&doc), Err(e) if e.path == "domain"));
    }

    #[test]
    fn merged_bits_depend_only_on_domain_observables() {
        let outcome = |domain: usize, rank: usize, v: f64| DomainOutcome {
            domain,
            ok: true,
            rank,
            incarnation: rank as u32,
            resumed_from_step: None,
            final_step: 60,
            ekin_bits: v.to_bits(),
            nexc_bits: (v * 0.25).to_bits(),
            etot_bits: (-v).to_bits(),
            escalations: 0,
            sdc_recoveries: 0,
            error: None,
        };
        let vals: Vec<f64> = (0..6).map(|i| 0.1 + (i as f64) * 0.7).collect();
        // A healthy fleet: each domain done by its own rank...
        let healthy: Vec<_> = vals.iter().enumerate().map(|(d, &v)| outcome(d, d % 4, v)).collect();
        // ...and a degraded fleet where two survivors finished everything
        // (different ranks/incarnations, same observables).
        let degraded: Vec<_> =
            vals.iter().enumerate().map(|(d, &v)| outcome(d, d % 2, v)).collect();
        let m = |d: &[DomainOutcome]| {
            (
                merge_domain_bits(d, |o| o.ekin_bits),
                merge_domain_bits(d, |o| o.nexc_bits),
                merge_domain_bits(d, |o| o.etot_bits),
            )
        };
        assert_eq!(m(&healthy), m(&degraded), "merge must ignore which rank did the work");
        // The merge is the fixed-shape tree over domain-id order.
        assert_eq!(m(&healthy).0, reduce::sum_f64(&vals).to_bits());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff_for(1), Duration::from_millis(100));
        assert_eq!(backoff_for(2), Duration::from_millis(200));
        assert_eq!(backoff_for(3), Duration::from_millis(400));
        assert_eq!(backoff_for(7), Duration::from_secs(5), "capped");
        assert_eq!(backoff_for(u32::MAX), Duration::from_secs(5), "no overflow");
    }

    #[test]
    fn config_validation_rejects_unworkable_fleets() {
        let deck = tiny_deck();
        assert!(ShardConfig::new(deck.clone(), 0, 4, PathBuf::new()).validate().is_err());
        assert!(
            ShardConfig::new(deck.clone(), 4, 2, PathBuf::new()).validate().is_err(),
            "fewer domains than ranks"
        );
        let mut cfg = ShardConfig::new(deck.clone(), 2, 4, PathBuf::new());
        cfg.heartbeat_timeout = cfg.heartbeat_interval;
        assert!(cfg.validate().is_err(), "timeout must exceed the interval");
        let mut cfg = ShardConfig::new(deck.clone(), 2, 4, PathBuf::new());
        cfg.bit_flips = Some(
            FaultPlan::new(1).with_site(mkl_lite::FaultSite::once(3, mkl_lite::FaultKind::Nan)),
        );
        assert!(cfg.validate().is_err(), "a plan the manifest cannot carry");
        assert!(ShardConfig::new(deck, 2, 4, PathBuf::new()).validate().is_ok());
    }
}
