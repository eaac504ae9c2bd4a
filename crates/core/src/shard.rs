//! Multi-rank sharded execution with rank-failure detection and
//! checkpoint-replay recovery.
//!
//! The paper ran DCMESH on a single GPU stack; `ext_multistack` only
//! *models* multi-stack scaling. This module actually runs distributed:
//! a **coordinator** process shards the divide-and-conquer domains
//! (contiguous blocks of the orbital space, each an independently
//! propagated sub-deck) across N **worker ranks** — real OS processes —
//! and coordinates them through a shared run directory:
//!
//! ```text
//! run_dir/
//!   MANIFEST.json            deck + shard parameters (workers read this)
//!   coord.log                append-only coordination log (JSONL)
//!   queue/domain-<d>.todo            unclaimed domain
//!   queue/domain-<d>.claimed.rank<r> domain claimed by rank r
//!   done/domain-<d>.json             completed domain + final observables
//!   ck/domain-<d>/dcmesh-<step>.ck   shared v2 checkpoints (crash-atomic)
//!   hb/rank-<r>.hb           heartbeat (atomically renamed; mtime = liveness)
//!   hb/rank-<r>.exit         clean-completion marker
//!   trace/events-rank<r>.jsonl       per-rank telemetry for `profile merge`
//!   trace/ledger-rank<r>-inc<i>.json precision ledger of rank r's i-th process,
//!                                    rewritten at every committed burst
//!   trace/events-coord.jsonl         coordinator lifecycle events
//!   trace/metrics-coord.prom         heartbeat-miss / restart / degraded counters
//!   report.json              final [`ShardReport`]
//! ```
//!
//! Robustness is the headline:
//!
//! * **Dead-rank detection** is by heartbeat timeout: every worker runs a
//!   heartbeat thread atomically rewriting its heartbeat file; the
//!   coordinator watches the file's *mtime* for change and declares a
//!   rank dead when it stops changing for
//!   [`ShardConfig::heartbeat_timeout`], measured on the coordinator's
//!   own monotonic clock. Stamps are compared only against the previous
//!   stamp — never against wall-clock time — so worker and coordinator
//!   clocks need not agree, and a worker whose heartbeat *content* is
//!   torn or unparsable but still being rewritten counts as alive. A
//!   killed *or hung* process looks the same either way. Process exit
//!   status alone is never trusted as liveness.
//! * **Respawn with bounded retries and exponential backoff**: a dead
//!   rank is relaunched up to [`ShardConfig::max_respawns`] times, with
//!   `backoff_base · 2^k` (capped) between attempts. Its claimed domains
//!   stay claimed across the respawn, so the recovered rank adopts them,
//!   resumes from the newest shared checkpoint (through the existing
//!   quarantine-and-fallback loader) and replays the in-flight burst.
//! * **Graceful degradation**: a rank that exhausts its respawn budget is
//!   marked degraded and its claimed domains are returned to the queue,
//!   where the surviving ranks pick them up — the run completes on fewer
//!   ranks instead of hanging or aborting.
//! * **Deterministic fault injection**: a [`RankKillPlan`] ("kill rank r
//!   at burst b" — the process-level counterpart of the call-level
//!   `mkl_lite::FaultPlan`) makes every recovery path testable — the
//!   chaos tests assert bit-identical observables against an
//!   uninterrupted run.
//!
//! Each worker keeps the full per-rank supervisor (health monitoring,
//! burst rollback, the BF16→…→FP32 escalation ladder) via
//! [`run_supervised_observed`]; domain results are fully determined by
//! the domain deck, so *which* rank completes a domain never changes the
//! numbers — that is what makes work stealing and replay safe.

use crate::config::RunConfig;
use crate::runner::DCMESH_RANK_ENV;
use crate::supervisor::{run_supervised_observed, BurstObserver, SupervisorConfig};
use dcmesh_numerics::reduce;
use dcmesh_telemetry::json::{self, JsonValue};
use dcmesh_telemetry::export::{self, write_atomic};
use dcmesh_telemetry::{instant, metrics, sink, Attr, AttrValue};
use mkl_lite::ComputeMode;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Set to `1` in a worker process's environment by the coordinator.
/// Binaries that can serve as workers call [`maybe_run_worker`] first
/// thing in `main`.
pub const SHARD_WORKER_ENV: &str = "DCMESH_SHARD_WORKER";
/// The shared run directory.
pub const SHARD_DIR_ENV: &str = "DCMESH_SHARD_DIR";
/// 0-based incarnation of this rank process (0 = first spawn).
pub const SHARD_INCARNATION_ENV: &str = "DCMESH_SHARD_INCARNATION";
/// [`RankKillPlan`] spec passed through to workers.
pub const SHARD_KILL_ENV: &str = "DCMESH_SHARD_KILL";
/// Optional bit-flip spec ([`mkl_lite::FaultPlan::parse`]) every worker
/// installs at startup — silent-data-corruption injection for the CI
/// chaos smoke.
/// Workers inherit the coordinator's environment, so exporting this on
/// the coordinator arms the whole fleet.
pub const SHARD_BITFLIP_ENV: &str = "DCMESH_BITFLIP";
/// Optional ABFT sampling period ([`SupervisorConfig::abft_check_period`])
/// applied in every worker's supervisor; unset, empty or `0` = off.
pub const SHARD_ABFT_ENV: &str = "DCMESH_ABFT_PERIOD";
/// Optional replay-verification cadence
/// ([`SupervisorConfig::verify_bursts`]) applied in every worker's
/// supervisor; unset, empty or `0` = off.
pub const SHARD_VERIFY_ENV: &str = "DCMESH_VERIFY_BURSTS";

/// Exit code of a worker dying to an injected [`RankKillPlan`] kill —
/// distinguishable in logs from a clean exit or a panic.
pub const KILL_EXIT_CODE: i32 = 86;

// ---------------------------------------------------------------------------
// Errors

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
    /// environment).
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

// ---------------------------------------------------------------------------
// Rank-kill fault injection

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

    /// Renders back to the spec grammar (for the worker environment).
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

// ---------------------------------------------------------------------------
// Configuration

/// Everything a sharded run needs. Durations are coordinator-side knobs;
/// the deck and domain count are shared with workers via the manifest.
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
    /// How often workers bump their heartbeat.
    pub heartbeat_interval: Duration,
    /// Heartbeat silence after which a rank is declared dead. Must
    /// comfortably exceed `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Coordinator poll cadence (and worker idle-wait cadence).
    pub poll_interval: Duration,
    /// Respawns allowed per rank before it is degraded away.
    pub max_respawns: u32,
    /// First respawn delay; doubles per subsequent respawn of the same
    /// rank.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Hard wall-clock limit for the whole run (`None` = unlimited).
    /// Keeps a wedged fleet from hanging CI forever.
    pub max_wall: Option<Duration>,
    /// Deterministic rank-death schedule (testing only; default never
    /// kills).
    pub kill_plan: RankKillPlan,
    /// Passed through to each worker's [`SupervisorConfig`].
    pub deescalate_after: Option<u32>,
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
            poll_interval: Duration::from_millis(50),
            max_respawns: 2,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            max_wall: Some(Duration::from_secs(600)),
            kill_plan: RankKillPlan::default(),
            deescalate_after: None,
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
/// independent sub-deck (block orthonormalisation — the same
/// approximation the divide step of the DC solver makes spatially).
/// Because `n_occ ≤ n_orb` and both splits front-load their remainders,
/// every domain keeps `n_occ ≤ n_orb`.
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
    cfg.validate()
        .map_err(|e| ShardError::InvalidConfig(format!("domain {domain} deck: {e}")))?;
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// Run-directory layout

fn queue_dir(run: &Path) -> PathBuf {
    run.join("queue")
}
fn done_dir(run: &Path) -> PathBuf {
    run.join("done")
}
fn hb_dir(run: &Path) -> PathBuf {
    run.join("hb")
}
fn trace_dir(run: &Path) -> PathBuf {
    run.join("trace")
}
fn ck_dir(run: &Path, domain: usize) -> PathBuf {
    run.join("ck").join(format!("domain-{domain}"))
}
fn todo_path(run: &Path, domain: usize) -> PathBuf {
    queue_dir(run).join(format!("domain-{domain}.todo"))
}
fn claimed_path(run: &Path, domain: usize, rank: usize) -> PathBuf {
    queue_dir(run).join(format!("domain-{domain}.claimed.rank{rank}"))
}
fn done_path(run: &Path, domain: usize) -> PathBuf {
    done_dir(run).join(format!("domain-{domain}.json"))
}
fn hb_path(run: &Path, rank: usize) -> PathBuf {
    hb_dir(run).join(format!("rank-{rank}.hb"))
}
fn exit_path(run: &Path, rank: usize) -> PathBuf {
    hb_dir(run).join(format!("rank-{rank}.exit"))
}
fn manifest_path(run: &Path) -> PathBuf {
    run.join("MANIFEST.json")
}
/// Path of the per-rank telemetry dump `profile merge` consumes.
pub fn rank_events_path(run: &Path, rank: usize) -> PathBuf {
    trace_dir(run).join(format!("events-rank{rank}.jsonl"))
}
/// Path of one rank process's precision-ledger snapshot; `profile
/// watch` and `profile archive` merge every `ledger-rank*.json` here.
/// Named per incarnation: a process's ledger starts empty and a respawn
/// resumes after the last committed burst, so the files of a rank's
/// incarnations partition its committed work — none replaces another.
fn rank_ledger_path(run: &Path, rank: usize, incarnation: u32) -> PathBuf {
    trace_dir(run).join(format!("ledger-rank{rank}-inc{incarnation}.json"))
}
/// Path of the final machine-readable [`ShardReport`].
pub fn report_path(run: &Path) -> PathBuf {
    run.join("report.json")
}

/// Parses `domain-<d>.<suffix>` names back to the domain id.
fn domain_of(name: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix("domain-")?.strip_suffix(suffix)?.parse().ok()
}

fn count_done(run: &Path) -> Result<usize, std::io::Error> {
    let mut n = 0;
    for entry in fs::read_dir(done_dir(run))? {
        let name = entry?.file_name();
        if domain_of(&name.to_string_lossy(), ".json").is_some() {
            n += 1;
        }
    }
    Ok(n)
}

/// Required-field readers for the coordination files (`MANIFEST.json`,
/// done files, `report.json`): a missing or mistyped field is a
/// [`ShardError::Manifest`], never a default — a reader that cannot fail
/// turns a torn or foreign file into a clean-looking fleet.
fn field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ShardError> {
    doc.get(key).ok_or_else(|| ShardError::Manifest(format!("missing field {key:?}")))
}

fn as_count(v: &JsonValue, key: &str) -> Result<u64, ShardError> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| ShardError::Manifest(format!("{key} is not a non-negative integer")))
}

fn count_field(doc: &JsonValue, key: &str) -> Result<u64, ShardError> {
    as_count(field(doc, key)?, key)
}

/// `Some(count)`, or `None` for an explicit `null`.
fn optional_count_field(doc: &JsonValue, key: &str) -> Result<Option<u64>, ShardError> {
    match field(doc, key)? {
        JsonValue::Null => Ok(None),
        v => as_count(v, key).map(Some),
    }
}

fn bool_field(doc: &JsonValue, key: &str) -> Result<bool, ShardError> {
    match field(doc, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(ShardError::Manifest(format!("{key} is not a boolean"))),
    }
}

fn array_field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ShardError> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| ShardError::Manifest(format!("{key} is not an array")))
}

// ---------------------------------------------------------------------------
// Manifest

struct Manifest {
    deck: RunConfig,
    n_domains: usize,
    ranks: usize,
    start_mode: ComputeMode,
    heartbeat_interval: Duration,
    poll_interval: Duration,
    deescalate_after: Option<u32>,
}

impl Manifest {
    fn write(cfg: &ShardConfig) -> Result<(), ShardError> {
        let deck_text = cfg
            .deck
            .to_deck_text()
            .map_err(|e| ShardError::InvalidConfig(format!("deck does not round-trip: {e}")))?;
        let deesc = match cfg.deescalate_after {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let body = format!(
            "{{\"deck\":{},\"n_domains\":{},\"ranks\":{},\"start_mode\":{},\
             \"heartbeat_interval_ms\":{},\"poll_interval_ms\":{},\"deescalate_after\":{}}}",
            json::escape_string(&deck_text),
            cfg.n_domains,
            cfg.ranks,
            json::escape_string(cfg.start_mode.name()),
            cfg.heartbeat_interval.as_millis(),
            cfg.poll_interval.as_millis(),
            deesc,
        );
        write_atomic(&manifest_path(&cfg.run_dir), &body)?;
        Ok(())
    }

    fn read(run: &Path) -> Result<Manifest, ShardError> {
        let text = fs::read_to_string(manifest_path(run))?;
        let doc = json::parse(&text)
            .map_err(|e| ShardError::Manifest(format!("MANIFEST.json does not parse: {e:?}")))?;
        let deck_text = field(&doc, "deck")?
            .as_str()
            .ok_or_else(|| ShardError::Manifest("deck is not a string".into()))?;
        let deck = RunConfig::parse(deck_text)
            .map_err(|e| ShardError::Manifest(format!("embedded deck: {e}")))?;
        let num = |k: &str| count_field(&doc, k);
        let mode_s = field(&doc, "start_mode")?
            .as_str()
            .ok_or_else(|| ShardError::Manifest("start_mode is not a string".into()))?;
        let start_mode = ComputeMode::from_env_value(mode_s)
            .map_err(|e| ShardError::Manifest(format!("start_mode: {e}")))?;
        Ok(Manifest {
            deck,
            n_domains: num("n_domains")? as usize,
            ranks: num("ranks")? as usize,
            start_mode,
            heartbeat_interval: Duration::from_millis(num("heartbeat_interval_ms")?),
            poll_interval: Duration::from_millis(num("poll_interval_ms")?),
            deescalate_after: optional_count_field(&doc, "deescalate_after")?.map(|n| n as u32),
        })
    }
}

// ---------------------------------------------------------------------------
// Telemetry

/// Heartbeat timeouts declared by the coordinator across this process.
pub fn heartbeat_miss_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        metrics::counter(
            "shard_heartbeat_misses_total",
            "rank deaths declared via heartbeat timeout",
        )
    })
}

/// Rank respawns performed by the coordinator across this process.
pub fn rank_restart_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        metrics::counter("shard_rank_restarts_total", "dead ranks respawned by the coordinator")
    })
}

/// Ranks degraded away (respawn budget exhausted) across this process.
pub fn rank_degraded_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        metrics::counter(
            "shard_ranks_degraded_total",
            "ranks removed after exhausting their respawn budget",
        )
    })
}

fn rank_instant(name: &'static str, rank: usize, incarnation: u32) {
    instant(
        name,
        vec![
            Attr { key: "rank", value: AttrValue::U64(rank as u64) },
            Attr { key: "incarnation", value: AttrValue::U64(incarnation as u64) },
        ],
    );
}

// ---------------------------------------------------------------------------
// Coordination log

/// Append-only JSONL coordination log (`coord.log`). One writer (the
/// coordinator); workers never touch it — their channel is the queue and
/// heartbeat files.
struct CoordLog {
    file: fs::File,
    t0: Instant,
}

impl CoordLog {
    fn open(run: &Path) -> Result<CoordLog, std::io::Error> {
        let file = fs::OpenOptions::new().create(true).append(true).open(run.join("coord.log"))?;
        Ok(CoordLog { file, t0: Instant::now() })
    }

    /// `fields` are pre-rendered JSON values (numbers or quoted strings).
    fn log(&mut self, event: &str, fields: &[(&str, String)]) {
        let mut line = format!(
            "{{\"t_ms\":{},\"event\":{}",
            self.t0.elapsed().as_millis(),
            json::escape_string(event)
        );
        for (k, v) in fields {
            line.push_str(&format!(",{}:{}", json::escape_string(k), v));
        }
        line.push_str("}\n");
        // A lost log line must not take the run down.
        let _ = self.file.write_all(line.as_bytes());
        let _ = self.file.flush();
    }
}

// ---------------------------------------------------------------------------
// Worker

/// If this process was launched as a shard worker (the coordinator set
/// [`SHARD_WORKER_ENV`]), runs the worker protocol to completion and
/// **exits the process**; returns immediately otherwise. Worker-capable
/// binaries (`dcmesh-shard`) call this first thing in `main`.
pub fn maybe_run_worker() {
    if std::env::var(SHARD_WORKER_ENV).as_deref() != Ok("1") {
        return;
    }
    match worker_main_from_env() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("shard worker: fatal: {e}");
            std::process::exit(1);
        }
    }
}

fn req_env(key: &str) -> Result<String, ShardError> {
    std::env::var(key).map_err(|_| ShardError::Worker(format!("missing environment {key}")))
}

/// An optional positive-integer knob from the environment (absent,
/// empty, unparsable, or zero all mean "off").
fn env_period(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse::<u64>().ok().filter(|&v| v > 0)
}

fn worker_main_from_env() -> Result<(), ShardError> {
    let run_dir = PathBuf::from(req_env(SHARD_DIR_ENV)?);
    let rank: usize = req_env(DCMESH_RANK_ENV)?
        .trim()
        .parse()
        .map_err(|_| ShardError::Worker(format!("bad {DCMESH_RANK_ENV}")))?;
    let incarnation: u32 = req_env(SHARD_INCARNATION_ENV)?
        .trim()
        .parse()
        .map_err(|_| ShardError::Worker(format!("bad {SHARD_INCARNATION_ENV}")))?;
    let kill = RankKillPlan::parse(&std::env::var(SHARD_KILL_ENV).unwrap_or_default())?;
    // CI chaos smoke: a bit-flip spec in the environment arms the GEMM
    // injector in this worker; the supervisor's ABFT sampling and rollback
    // must then recover to the same bits as a clean fleet.
    let bit_flips = match std::env::var(SHARD_BITFLIP_ENV) {
        Ok(spec) if !spec.trim().is_empty() => Some(
            mkl_lite::FaultPlan::parse(&spec)
                .map_err(|e| ShardError::Worker(format!("bad {SHARD_BITFLIP_ENV}: {e}")))?,
        ),
        _ => None,
    };
    worker_main(&run_dir, rank, incarnation, &kill, bit_flips)
}

/// Shared worker progress the heartbeat thread publishes.
struct HbState {
    seq: AtomicU64,
    bursts: AtomicU64,
    /// Current domain, `u64::MAX` when idle.
    domain: AtomicU64,
    stop: AtomicBool,
}

fn write_heartbeat(run: &Path, rank: usize, pid: u32, hb: &HbState) {
    let seq = hb.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let domain = hb.domain.load(Ordering::Relaxed);
    let body = format!(
        "{{\"seq\":{seq},\"pid\":{pid},\"bursts\":{},\"domain\":{}}}",
        hb.bursts.load(Ordering::Relaxed),
        if domain == u64::MAX { "null".to_string() } else { domain.to_string() },
    );
    let _ = write_atomic(&hb_path(run, rank), &body);
}

/// The burst observer a worker attaches to each supervised domain run:
/// bumps the heartbeat's progress counters, fires the deterministic
/// kill point, and at every commit flushes the rank's accumulated
/// telemetry — events appended to its stream, the ledger snapshot
/// rewritten — so `profile watch` reads the run live and a rank that
/// dies later has already left its committed work on disk. Burst
/// counting spans domains within one incarnation.
struct WorkerObserver {
    hb: Arc<HbState>,
    kill_at: Option<u64>,
    rank: usize,
    incarnation: u32,
    run: PathBuf,
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
        let _ = flush_worker_trace(&self.run, self.rank, self.incarnation);
    }
}

/// The worker protocol: adopt own orphaned claims, then claim domains
/// from the queue until every domain is done, idling (rather than
/// exiting) while other ranks hold unfinished claims so released work
/// can still be picked up. Runs domains under the full per-rank
/// supervisor with shared checkpoints, with `faults` (if any) installed
/// on the calling thread's BLAS for the worker's lifetime.
pub fn worker_main(
    run_dir: &Path,
    rank: usize,
    incarnation: u32,
    kill: &RankKillPlan,
    faults: Option<mkl_lite::FaultPlan>,
) -> Result<(), ShardError> {
    let m = Manifest::read(run_dir)?;
    if rank >= m.ranks {
        return Err(ShardError::Worker(format!(
            "rank {rank} out of range for a {}-rank fleet",
            m.ranks
        )));
    }
    if let Some(plan) = faults {
        mkl_lite::install_fault_plan(plan);
    }
    let hb = Arc::new(HbState {
        seq: AtomicU64::new(0),
        bursts: AtomicU64::new(0),
        domain: AtomicU64::new(u64::MAX),
        stop: AtomicBool::new(false),
    });
    let pid = std::process::id();

    // Liveness heartbeat: a killed or wedged-at-exit process stops
    // bumping `seq`; the coordinator's timeout does the rest.
    write_heartbeat(run_dir, rank, pid, &hb);
    let hb_thread = {
        let hb = hb.clone();
        let run = run_dir.to_path_buf();
        let interval = m.heartbeat_interval;
        std::thread::spawn(move || {
            while !hb.stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                write_heartbeat(&run, rank, pid, &hb);
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
    rank_instant("worker_start", rank, incarnation);
    // Start this incarnation's event stream fresh: its `telemetry_meta`
    // header carries *this* process's run epoch, and a dead
    // incarnation's tail must not prefix it (the clocks would not
    // align).
    let _ = fs::write(rank_events_path(run_dir, rank), export::jsonl(&sink::drain()));
    let kill_at = kill.kill_burst_for(rank, incarnation);

    loop {
        if count_done(run_dir)? >= m.n_domains {
            break;
        }
        let claimed = match adopt_own_claim(run_dir, rank)? {
            Some(d) => Some(d),
            None => claim_next(run_dir, m.n_domains, rank)?,
        };
        match claimed {
            Some(domain) => run_domain(run_dir, &m, domain, rank, incarnation, kill_at, &hb)?,
            // Nothing claimable right now — but unfinished domains may
            // return to the queue if their rank dies, so wait, don't exit.
            None => std::thread::sleep(m.poll_interval),
        }
    }

    // Clean completion: stop the heartbeat, flush what this rank
    // recorded since its last commit, and leave the completion marker so
    // the coordinator can tell "finished" from "died quietly".
    hb.stop.store(true, Ordering::Relaxed);
    let _ = hb_thread.join();
    flush_worker_trace(run_dir, rank, incarnation)?;
    write_atomic(&exit_path(run_dir, rank), "{\"status\":\"complete\"}")?;
    Ok(())
}

/// A respawned rank re-adopts a domain it already claimed (its claim
/// marker survives the respawn), resuming from the shared checkpoint.
fn adopt_own_claim(run: &Path, rank: usize) -> Result<Option<usize>, std::io::Error> {
    let suffix = format!(".claimed.rank{rank}");
    let mut found: Vec<usize> = Vec::new();
    for entry in fs::read_dir(queue_dir(run))? {
        let name = entry?.file_name();
        if let Some(d) = domain_of(&name.to_string_lossy(), &suffix) {
            found.push(d);
        }
    }
    found.sort_unstable();
    Ok(found.first().copied())
}

/// Claims the lowest-numbered unclaimed domain by atomic rename —
/// exactly one contender can win each `todo` file.
fn claim_next(run: &Path, n_domains: usize, rank: usize) -> Result<Option<usize>, std::io::Error> {
    let mut todos: Vec<usize> = Vec::new();
    for entry in fs::read_dir(queue_dir(run))? {
        let name = entry?.file_name();
        if let Some(d) = domain_of(&name.to_string_lossy(), ".todo") {
            if d < n_domains {
                todos.push(d);
            }
        }
    }
    todos.sort_unstable();
    for d in todos {
        if fs::rename(todo_path(run, d), claimed_path(run, d, rank)).is_ok() {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

#[allow(clippy::too_many_arguments)]
fn run_domain(
    run: &Path,
    m: &Manifest,
    domain: usize,
    rank: usize,
    incarnation: u32,
    kill_at: Option<u64>,
    hb: &Arc<HbState>,
) -> Result<(), ShardError> {
    let cfg = domain_config(&m.deck, domain, m.n_domains)?;
    let sup = SupervisorConfig {
        checkpoint_dir: Some(ck_dir(run, domain)),
        deescalate_after: m.deescalate_after,
        abft_check_period: env_period(SHARD_ABFT_ENV),
        verify_bursts: env_period(SHARD_VERIFY_ENV),
        ..SupervisorConfig::default()
    };
    hb.domain.store(domain as u64, Ordering::Relaxed);
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
    write_atomic(&done_path(run, domain), &outcome.to_json())?;
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
    let _ = fs::remove_file(claimed_path(run, domain, rank));
    Ok(())
}

/// `f64` bit pattern as a hex-string JSON value — JSON numbers are f64
/// and cannot carry 64 significant bits losslessly.
fn bits_hex(bits: u64) -> String {
    format!("\"0x{bits:016x}\"")
}

fn bits_field(doc: &JsonValue, key: &str) -> Result<u64, ShardError> {
    field(doc, key)?
        .as_str()
        .and_then(|s| u64::from_str_radix(s.strip_prefix("0x")?, 16).ok())
        .ok_or_else(|| ShardError::Manifest(format!("{key} is not a \"0x…\" bit pattern")))
}

/// Puts what this rank process has recorded so far on disk, after every
/// committed burst and once more at clean worker exit. Its precision
/// ledger is rewritten whole and atomically — the live `profile watch`
/// and the end-of-run `profile archive` read the same file and neither
/// sees a torn one. Its events are appended to the rank's stream: the
/// first flush of an incarnation writes the `telemetry_meta` header,
/// later ones body lines only, so the stream stays one well-formed JSONL
/// dump for `profile merge`.
fn flush_worker_trace(run: &Path, rank: usize, incarnation: u32) -> Result<(), std::io::Error> {
    write_atomic(
        &rank_ledger_path(run, rank, incarnation),
        &dcmesh_telemetry::ledger::ledger_json(),
    )?;
    let events = sink::drain();
    let path = rank_events_path(run, rank);
    let fresh = !path.exists();
    if !fresh && events.is_empty() {
        return Ok(());
    }
    let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
    let text =
        if fresh { export::jsonl(&events) } else { export::jsonl_body(&events) };
    f.write_all(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Coordinator

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
    Backoff { incarnation: u32, until: Instant },
    Finished,
    Degraded,
}

/// Final outcome of one domain: what the worker writes to the done file,
/// the coordinator reads back, and `report.json` lists — one encoding
/// (`DomainOutcome::to_json` / `DomainOutcome::from_json`) for both.
#[derive(Clone, Debug)]
pub struct DomainOutcome {
    /// Domain id.
    pub domain: usize,
    /// Whether the domain's supervised run succeeded.
    pub ok: bool,
    /// Rank that produced the done record.
    pub rank: usize,
    /// That rank's incarnation (> 0 means a respawned process finished
    /// the domain).
    pub incarnation: u32,
    /// Checkpoint step the finishing invocation resumed from (`Some` ⇒
    /// the domain replayed from the shared checkpoint).
    pub resumed_from_step: Option<u64>,
    /// Final QD step recorded.
    pub final_step: u64,
    /// Bit patterns of the final observables — bit-exact comparison is
    /// the whole point of deterministic recovery.
    pub ekin_bits: u64,
    /// Final `nexc` bit pattern.
    pub nexc_bits: u64,
    /// Final `etot` bit pattern.
    pub etot_bits: u64,
    /// Escalations the per-rank supervisor performed on this domain.
    pub escalations: u64,
    /// Silent-data-corruption rollbacks (ABFT checksum violations or
    /// replay mismatches) the supervisor recovered from on this domain.
    pub sdc_recoveries: u64,
    /// Error text for failed domains.
    pub error: Option<String>,
}

impl DomainOutcome {
    /// A domain with no usable result: zeroed observables (they merge as
    /// +0.0) and the reason.
    fn failed(domain: usize, rank: usize, incarnation: u32, error: String) -> DomainOutcome {
        DomainOutcome {
            domain,
            ok: false,
            rank,
            incarnation,
            resumed_from_step: None,
            final_step: 0,
            ekin_bits: 0,
            nexc_bits: 0,
            etot_bits: 0,
            escalations: 0,
            sdc_recoveries: 0,
            error: Some(error),
        }
    }

    fn to_json(&self) -> String {
        let resumed = self.resumed_from_step.map_or("null".to_string(), |s| s.to_string());
        let error = self.error.as_deref().map_or("null".to_string(), json::escape_string);
        format!(
            "{{\"domain\":{},\"ok\":{},\"rank\":{},\"incarnation\":{},\
             \"resumed_from_step\":{resumed},\"final_step\":{},\"ekin_bits\":{},\
             \"nexc_bits\":{},\"etot_bits\":{},\"escalations\":{},\
             \"sdc_recoveries\":{},\"error\":{error}}}",
            self.domain,
            self.ok,
            self.rank,
            self.incarnation,
            self.final_step,
            bits_hex(self.ekin_bits),
            bits_hex(self.nexc_bits),
            bits_hex(self.etot_bits),
            self.escalations,
            self.sdc_recoveries,
        )
    }

    /// Every field is required: a document that lacks or mistypes one is
    /// not an outcome (and must not merge as a successful +0.0 domain).
    fn from_json(doc: &JsonValue) -> Result<DomainOutcome, ShardError> {
        Ok(DomainOutcome {
            domain: count_field(doc, "domain")? as usize,
            ok: bool_field(doc, "ok")?,
            rank: count_field(doc, "rank")? as usize,
            incarnation: count_field(doc, "incarnation")? as u32,
            resumed_from_step: optional_count_field(doc, "resumed_from_step")?,
            final_step: count_field(doc, "final_step")?,
            ekin_bits: bits_field(doc, "ekin_bits")?,
            nexc_bits: bits_field(doc, "nexc_bits")?,
            etot_bits: bits_field(doc, "etot_bits")?,
            escalations: count_field(doc, "escalations")?,
            sdc_recoveries: count_field(doc, "sdc_recoveries")?,
            error: match field(doc, "error")? {
                JsonValue::Null => None,
                v => Some(
                    v.as_str()
                        .ok_or_else(|| ShardError::Manifest("error is not a string".into()))?
                        .to_string(),
                ),
            },
        })
    }
}

/// Per-rank summary.
#[derive(Clone, Debug)]
pub struct RankSummary {
    /// Rank id.
    pub rank: usize,
    /// Incarnations spawned (1 = never died).
    pub incarnations: u32,
    /// Whether the rank was degraded away.
    pub degraded: bool,
}

/// What a sharded run did, written to `report.json` and returned by
/// [`run_coordinator`].
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Every domain's outcome, ordered by domain id.
    pub domains: Vec<DomainOutcome>,
    /// Every rank's lifecycle summary.
    pub ranks: Vec<RankSummary>,
    /// Heartbeat timeouts declared.
    pub heartbeat_misses: u64,
    /// Respawns performed.
    pub restarts: u64,
    /// Ranks degraded away.
    pub degraded_ranks: Vec<usize>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Cross-rank deterministic merge of one per-domain observable: the
/// domains' final values combined through the fixed-shape reduction tree
/// **in domain-id order**. The tree's shape depends only on the domain
/// count — never on which ranks produced the outcomes, how many ranks
/// survived, or in what order domains finished — so a degraded 2-rank
/// fleet merges to exactly the same bits as a healthy 4-rank one.
/// Failed domains contribute their zeroed bit pattern (+0.0).
fn merge_domain_bits(domains: &[DomainOutcome], field: fn(&DomainOutcome) -> u64) -> u64 {
    debug_assert!(domains.windows(2).all(|w| w[0].domain < w[1].domain));
    reduce::sum_with(domains.len(), |i| f64::from_bits(field(&domains[i]))).to_bits()
}

impl ShardReport {
    /// The fleet-level merged observables `(ekin, nexc, etot)` as bit
    /// patterns — see [`merge_domain_bits`]. Derived from the domain
    /// outcomes, so a parsed report agrees with the one that was written.
    pub fn merged_bits(&self) -> (u64, u64, u64) {
        (
            merge_domain_bits(&self.domains, |d| d.ekin_bits),
            merge_domain_bits(&self.domains, |d| d.nexc_bits),
            merge_domain_bits(&self.domains, |d| d.etot_bits),
        )
    }
    /// Domains whose supervised run failed (not rank deaths — those are
    /// recovered; these are numeric/IO failures reported by the worker).
    pub fn failed_domains(&self) -> Vec<usize> {
        self.domains.iter().filter(|d| !d.ok).map(|d| d.domain).collect()
    }

    fn to_json(&self) -> String {
        let domains: Vec<String> = self.domains.iter().map(DomainOutcome::to_json).collect();
        let ranks: Vec<String> = self
            .ranks
            .iter()
            .map(|r| {
                format!(
                    "{{\"rank\":{},\"incarnations\":{},\"degraded\":{}}}",
                    r.rank, r.incarnations, r.degraded
                )
            })
            .collect();
        let (me, mn, mt) = self.merged_bits();
        format!(
            "{{\"completed\":{},\"heartbeat_misses\":{},\"restarts\":{},\
             \"degraded_ranks\":[{}],\"elapsed_ms\":{},\
             \"merged_ekin_bits\":{},\"merged_nexc_bits\":{},\"merged_etot_bits\":{},\
             \"domains\":[{}],\"ranks\":[{}]}}",
            self.failed_domains().is_empty(),
            self.heartbeat_misses,
            self.restarts,
            self.degraded_ranks.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
            self.elapsed.as_millis(),
            bits_hex(me),
            bits_hex(mn),
            bits_hex(mt),
            domains.join(","),
            ranks.join(","),
        )
    }

    /// Parses a `report.json` written by [`run_coordinator`]. Strict: a
    /// document without its domain and rank lists, or with a field missing
    /// or mistyped, is an error — `{}` must not read as a clean fleet.
    pub fn parse(text: &str) -> Result<ShardReport, ShardError> {
        let doc = json::parse(text)
            .map_err(|e| ShardError::Manifest(format!("report.json does not parse: {e:?}")))?;
        let domains = array_field(&doc, "domains")?
            .iter()
            .map(DomainOutcome::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let ranks = array_field(&doc, "ranks")?
            .iter()
            .map(|r| {
                Ok(RankSummary {
                    rank: count_field(r, "rank")? as usize,
                    incarnations: count_field(r, "incarnations")? as u32,
                    degraded: bool_field(r, "degraded")?,
                })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let degraded_ranks = array_field(&doc, "degraded_ranks")?
            .iter()
            .map(|v| as_count(v, "degraded_ranks").map(|r| r as usize))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardReport {
            domains,
            ranks,
            heartbeat_misses: count_field(&doc, "heartbeat_misses")?,
            restarts: count_field(&doc, "restarts")?,
            degraded_ranks,
            elapsed: Duration::from_millis(count_field(&doc, "elapsed_ms")?),
        })
    }
}

fn spawn_worker(cfg: &ShardConfig, rank: usize, incarnation: u32) -> Result<Child, std::io::Error> {
    let exe = match &cfg.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()?,
    };
    Command::new(exe)
        .env(SHARD_WORKER_ENV, "1")
        .env(SHARD_DIR_ENV, &cfg.run_dir)
        .env(DCMESH_RANK_ENV, rank.to_string())
        .env(SHARD_INCARNATION_ENV, incarnation.to_string())
        .env(SHARD_KILL_ENV, cfg.kill_plan.to_spec())
        .stdout(Stdio::null())
        .spawn()
}

/// Reads a heartbeat file's modification stamp (`None` when absent).
/// Liveness is *mtime-change detection*: each atomic rewrite of the
/// heartbeat bumps the mtime, so a stamp different from the last one
/// observed means the worker made progress — even if the file content is
/// torn or unparsable. The stamp is never compared against the
/// coordinator's wall clock (filesystem and coordinator clocks need not
/// agree); staleness is judged by the coordinator-local monotonic delta
/// since the last observed change.
fn read_hb_stamp(run: &Path, rank: usize) -> Option<SystemTime> {
    fs::metadata(hb_path(run, rank)).and_then(|m| m.modified()).ok()
}

/// Returns the dead rank's claimed domains to the open queue (used on
/// degradation — while a respawn is still pending, claims are *kept* so
/// the recovered rank adopts its own in-flight work).
fn release_claims(
    run: &Path,
    rank: usize,
    log: &mut CoordLog,
) -> Result<Vec<usize>, std::io::Error> {
    let suffix = format!(".claimed.rank{rank}");
    let mut released = Vec::new();
    for entry in fs::read_dir(queue_dir(run))? {
        let name = entry?.file_name();
        if let Some(d) = domain_of(&name.to_string_lossy(), &suffix) {
            // The domain may already be done (death after done-write but
            // before marker removal): drop the stale claim instead of
            // re-queueing finished work.
            if done_path(run, d).exists() {
                let _ = fs::remove_file(claimed_path(run, d, rank));
                continue;
            }
            if fs::rename(claimed_path(run, d, rank), todo_path(run, d)).is_ok() {
                released.push(d);
                log.log(
                    "domain_reassigned",
                    &[("domain", d.to_string()), ("from_rank", rank.to_string())],
                );
                instant(
                    "domain_reassigned",
                    vec![
                        Attr { key: "domain", value: AttrValue::U64(d as u64) },
                        Attr { key: "rank", value: AttrValue::U64(rank as u64) },
                    ],
                );
            }
        }
    }
    Ok(released)
}

fn backoff_for(cfg: &ShardConfig, deaths: u32) -> Duration {
    let exp = deaths.saturating_sub(1).min(16);
    cfg.backoff_base.saturating_mul(1u32 << exp).min(cfg.backoff_max)
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
    for d in [run.to_path_buf(), queue_dir(run), done_dir(run), hb_dir(run), trace_dir(run)] {
        fs::create_dir_all(d)?;
    }
    let mut log = CoordLog::open(run)?;
    Manifest::write(cfg)?;
    // Register the shard counters up front so the final Prometheus dump
    // always carries all three series, zeros included.
    heartbeat_miss_counter();
    rank_restart_counter();
    rank_degraded_counter();

    // Stale state from a previous coordinator over this directory.
    for entry in fs::read_dir(hb_dir(run))? {
        let _ = fs::remove_file(entry?.path());
    }
    for entry in fs::read_dir(queue_dir(run))? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if let Some(at) = name.find(".claimed.rank") {
            if let Some(d) = domain_of(&format!("{}.todo", &name[..at]), ".todo") {
                let _ = fs::rename(&path, todo_path(run, d));
            }
        }
    }

    // Seed the queue. Initial assignment is deterministic: domain r is
    // pre-claimed for rank r; the tail is open for work stealing.
    let mut seeded = 0usize;
    for d in 0..cfg.n_domains {
        if done_path(run, d).exists() {
            continue;
        }
        // A todo recovered from a previous coordinator stays open-queue;
        // pre-claiming it too would double-run the domain.
        let todo = todo_path(run, d);
        let target = if d < cfg.ranks && !todo.exists() { claimed_path(run, d, d) } else { todo };
        if !target.exists() {
            write_atomic(&target, "{}")?;
        }
        seeded += 1;
    }
    log.log(
        "run_start",
        &[
            ("ranks", cfg.ranks.to_string()),
            ("domains", cfg.n_domains.to_string()),
            ("seeded", seeded.to_string()),
            ("kill_plan", json::escape_string(&cfg.kill_plan.to_spec())),
        ],
    );

    let t0 = Instant::now();
    let mut slots: Vec<RankState> = Vec::with_capacity(cfg.ranks);
    let mut deaths: Vec<u32> = vec![0; cfg.ranks];
    let mut restarts = 0u64;
    let mut heartbeat_misses = 0u64;
    for rank in 0..cfg.ranks {
        slots.push(spawn_slot(cfg, rank, 0, &mut log, &mut deaths)?);
    }

    let report = loop {
        std::thread::sleep(cfg.poll_interval);
        let done = count_done(run)?;
        if done >= cfg.n_domains {
            break finalize(cfg, run, &mut slots, &mut log, t0, heartbeat_misses, restarts, &deaths);
        }
        if let Some(limit) = cfg.max_wall {
            if t0.elapsed() > limit {
                for s in &mut slots {
                    if let RankState::Running { child, .. } = s {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
                log.log("wall_clock_exceeded", &[("done", done.to_string())]);
                return Err(ShardError::WallClockExceeded {
                    limit,
                    unfinished: cfg.n_domains - done,
                });
            }
        }

        let mut any_alive = false;
        for rank in 0..cfg.ranks {
            match &mut slots[rank] {
                RankState::Running { child, incarnation, last_stamp, last_change } => {
                    // Clean completion: the exit marker is written before
                    // the process exits, so marker + reaped child is
                    // unambiguous. Death detection itself never trusts
                    // exit status — only the heartbeat.
                    if exit_path(run, rank).exists()
                        && child.try_wait().ok().flatten().is_some()
                    {
                        log.log("rank_finished", &[("rank", rank.to_string())]);
                        rank_instant("rank_finished", rank, *incarnation);
                        slots[rank] = RankState::Finished;
                        continue;
                    }
                    let stamp = read_hb_stamp(run, rank);
                    if stamp != *last_stamp {
                        *last_stamp = stamp;
                        *last_change = Instant::now();
                    } else if last_change.elapsed() > cfg.heartbeat_timeout {
                        // Dead (or wedged): declared via heartbeat
                        // timeout, exactly as a hung-but-running process
                        // would be.
                        heartbeat_misses += 1;
                        heartbeat_miss_counter().inc();
                        let inc = *incarnation;
                        let _ = child.kill();
                        let _ = child.wait();
                        log.log(
                            "heartbeat_miss",
                            &[
                                ("rank", rank.to_string()),
                                ("incarnation", inc.to_string()),
                                ("stale_ms", last_change.elapsed().as_millis().to_string()),
                            ],
                        );
                        rank_instant("heartbeat_miss", rank, inc);
                        rank_instant("rank_dead", rank, inc);
                        deaths[rank] += 1;
                        if deaths[rank] <= cfg.max_respawns {
                            // Claims are kept: the respawned rank adopts
                            // its in-flight domain and replays it from
                            // the shared checkpoint.
                            let until = Instant::now() + backoff_for(cfg, deaths[rank]);
                            log.log(
                                "rank_backoff",
                                &[
                                    ("rank", rank.to_string()),
                                    (
                                        "delay_ms",
                                        backoff_for(cfg, deaths[rank]).as_millis().to_string(),
                                    ),
                                ],
                            );
                            slots[rank] = RankState::Backoff { incarnation: inc + 1, until };
                        } else {
                            rank_degraded_counter().inc();
                            log.log(
                                "rank_degraded",
                                &[("rank", rank.to_string()), ("deaths", deaths[rank].to_string())],
                            );
                            rank_instant("rank_degraded", rank, inc);
                            release_claims(run, rank, &mut log)?;
                            slots[rank] = RankState::Degraded;
                        }
                    }
                    any_alive = true;
                }
                RankState::Backoff { incarnation, until } => {
                    any_alive = true;
                    if Instant::now() >= *until {
                        let inc = *incarnation;
                        restarts += 1;
                        rank_restart_counter().inc();
                        rank_instant("rank_respawn", rank, inc);
                        slots[rank] = spawn_slot(cfg, rank, inc, &mut log, &mut deaths)?;
                    }
                }
                RankState::Finished | RankState::Degraded => {}
            }
        }

        if !any_alive {
            // Ranks may all have finished during this scan, after the
            // done count at the loop top went stale — recount before
            // declaring the fleet exhausted.
            let done = count_done(run)?;
            if done >= cfg.n_domains {
                continue;
            }
            log.log("ranks_exhausted", &[("done", done.to_string())]);
            return Err(ShardError::RanksExhausted { unfinished: cfg.n_domains - done });
        }
    };

    Ok(report)
}

/// Spawns rank `rank` at `incarnation`; a spawn failure is treated like
/// an immediate death (backoff or degradation) rather than aborting the
/// fleet.
fn spawn_slot(
    cfg: &ShardConfig,
    rank: usize,
    incarnation: u32,
    log: &mut CoordLog,
    deaths: &mut [u32],
) -> Result<RankState, ShardError> {
    match spawn_worker(cfg, rank, incarnation) {
        Ok(child) => {
            log.log(
                "rank_spawn",
                &[("rank", rank.to_string()), ("incarnation", incarnation.to_string())],
            );
            rank_instant("rank_spawn", rank, incarnation);
            Ok(RankState::Running {
                child,
                incarnation,
                last_stamp: None,
                last_change: Instant::now(),
            })
        }
        Err(e) => {
            log.log(
                "rank_spawn_failed",
                &[("rank", rank.to_string()), ("error", json::escape_string(&e.to_string()))],
            );
            deaths[rank] += 1;
            if deaths[rank] <= cfg.max_respawns {
                Ok(RankState::Backoff {
                    incarnation: incarnation + 1,
                    until: Instant::now() + backoff_for(cfg, deaths[rank]),
                })
            } else {
                rank_degraded_counter().inc();
                rank_instant("rank_degraded", rank, incarnation);
                Ok(RankState::Degraded)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize(
    cfg: &ShardConfig,
    run: &Path,
    slots: &mut [RankState],
    log: &mut CoordLog,
    t0: Instant,
    heartbeat_misses: u64,
    restarts: u64,
    deaths: &[u32],
) -> ShardReport {
    // Workers exit on their own once they observe the full done set;
    // give them a grace period, then insist.
    let deadline = Instant::now() + cfg.heartbeat_timeout;
    for (rank, slot) in slots.iter_mut().enumerate() {
        if let RankState::Running { child, incarnation, .. } = slot {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    _ if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    _ => std::thread::sleep(cfg.poll_interval),
                }
            }
            log.log("rank_finished", &[("rank", rank.to_string())]);
            rank_instant("rank_finished", rank, *incarnation);
            *slot = RankState::Finished;
        }
    }

    // A done file that is missing, torn or not a complete outcome for its
    // own domain is a failed domain, not a zeroed success.
    let domains: Vec<DomainOutcome> = (0..cfg.n_domains)
        .map(|d| {
            let read = fs::read_to_string(done_path(run, d))
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text).map_err(|e| format!("{e:?}")))
                .and_then(|doc| DomainOutcome::from_json(&doc).map_err(|e| e.to_string()))
                .and_then(|o| {
                    if o.domain == d { Ok(o) } else { Err(format!("names domain {}", o.domain)) }
                });
            read.unwrap_or_else(|why| {
                DomainOutcome::failed(d, 0, 0, format!("done file missing or unparsable: {why}"))
            })
        })
        .collect();

    let degraded_ranks: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, RankState::Degraded))
        .map(|(r, _)| r)
        .collect();
    let ranks: Vec<RankSummary> = (0..cfg.ranks)
        .map(|r| RankSummary {
            rank: r,
            incarnations: deaths[r].min(cfg.max_respawns) + 1,
            degraded: degraded_ranks.contains(&r),
        })
        .collect();
    let report = ShardReport {
        domains,
        ranks,
        heartbeat_misses,
        restarts,
        degraded_ranks,
        elapsed: t0.elapsed(),
    };
    log.log(
        "run_complete",
        &[
            ("restarts", restarts.to_string()),
            ("heartbeat_misses", heartbeat_misses.to_string()),
            ("failed_domains", report.failed_domains().len().to_string()),
        ],
    );
    instant(
        "shard_complete",
        vec![
            Attr { key: "restarts", value: AttrValue::U64(restarts) },
            Attr { key: "heartbeat_misses", value: AttrValue::U64(heartbeat_misses) },
        ],
    );

    let _ = write_atomic(&report_path(run), &report.to_json());
    // The coordinator's own lifecycle telemetry, for `telemetry_check
    // --shard-dir` and dashboards.
    let events = sink::drain();
    let _ = fs::write(trace_dir(run).join("events-coord.jsonl"), export::jsonl(&events));
    let _ = fs::write(trace_dir(run).join("metrics-coord.prom"), export::prometheus_dump());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;

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
        cfg.deescalate_after = Some(3);
        Manifest::write(&cfg).expect("write");
        let m = Manifest::read(&dir).expect("read");
        assert_eq!(m.n_domains, 4);
        assert_eq!(m.ranks, 2);
        assert_eq!(m.start_mode, ComputeMode::FloatToBf16);
        assert_eq!(m.deescalate_after, Some(3));
        assert_eq!(m.heartbeat_interval, cfg.heartbeat_interval);
        assert_eq!(m.deck.n_orb, 8);
        assert_eq!(m.deck.total_qd_steps, 60);
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
            hb: Arc::new(HbState {
                seq: AtomicU64::new(0),
                bursts: AtomicU64::new(0),
                domain: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
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
            format!(
                "{{\"heartbeat_misses\":0,\"restarts\":0,\"degraded_ranks\":[],\
                 \"elapsed_ms\":5,\"domains\":[{domain}],\"ranks\":[]}}"
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
        assert!(matches!(DomainOutcome::from_json(&doc), Err(ShardError::Manifest(_))));
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
        let healthy: Vec<_> =
            vals.iter().enumerate().map(|(d, &v)| outcome(d, d % 4, v)).collect();
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
        let mut cfg = ShardConfig::new(tiny_deck(), 1, 1, PathBuf::from("/nonexistent"));
        cfg.backoff_base = Duration::from_millis(100);
        cfg.backoff_max = Duration::from_millis(450);
        assert_eq!(backoff_for(&cfg, 1), Duration::from_millis(100));
        assert_eq!(backoff_for(&cfg, 2), Duration::from_millis(200));
        assert_eq!(backoff_for(&cfg, 3), Duration::from_millis(400));
        assert_eq!(backoff_for(&cfg, 4), Duration::from_millis(450), "capped");
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
        assert!(ShardConfig::new(deck, 2, 4, PathBuf::new()).validate().is_ok());
    }
}
