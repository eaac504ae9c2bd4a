//! The run directory — the only channel between the coordinator and its
//! workers — and every file in it: its path, its writer and its strict
//! reader.
//!
//! ```text
//! run_dir/
//!   MANIFEST.json            deck, fleet shape, heartbeat cadence, kill plan
//!                            and fault settings: what every worker reads
//!   coord.log                append-only JSONL record of every coordinator
//!                            decision, flushed per line
//!   queue/domain-<d>.todo            unclaimed domain
//!   queue/domain-<d>.claimed.rank<r> domain claimed by rank r
//!   done/domain-<d>.json             completed domain + final observables
//!   ck/domain-<d>/dcmesh-<step>.ck   shared checkpoints (crash-atomic)
//!   hb/rank-<r>.hb           heartbeat (atomically renamed; mtime = liveness)
//!   hb/rank-<r>.exit         clean-completion marker
//!   trace/events-rank<r>.jsonl       per-rank telemetry for `profile merge`
//!   trace/ledger-rank<r>-inc<i>.json precision ledger of rank r's i-th process,
//!                                    rewritten at every committed burst
//!   report.json              final [`ShardReport`]
//! ```
//!
//! Readers are strict: a missing or mistyped field is a
//! [`ShardError::Manifest`], never a default — a reader that cannot fail
//! turns a torn or foreign file into a clean-looking fleet.

use super::{RankKillPlan, ShardConfig, ShardError};
use crate::config::RunConfig;
use dcmesh_numerics::reduce;
use dcmesh_telemetry::export::{self, write_atomic};
use dcmesh_telemetry::json::{self, JsonValue};
use dcmesh_telemetry::sink;
use mkl_lite::{ComputeMode, FaultPlan};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// Set to `1` in a worker process's environment by the coordinator.
/// Binaries that can serve as workers call [`super::maybe_run_worker`]
/// first thing in `main`.
pub const SHARD_WORKER_ENV: &str = "DCMESH_SHARD_WORKER";
/// The shared run directory.
pub const SHARD_DIR_ENV: &str = "DCMESH_SHARD_DIR";
/// 0-based incarnation of this rank process (0 = first spawn).
pub const SHARD_INCARNATION_ENV: &str = "DCMESH_SHARD_INCARNATION";

/// How often either side polls the run directory: the heartbeat cadence,
/// at most every 50 ms.
pub(super) fn poll_interval(heartbeat_interval: Duration) -> Duration {
    heartbeat_interval.min(Duration::from_millis(50))
}

// ---------------------------------------------------------------------------
// Paths

pub(super) fn queue_dir(run: &Path) -> PathBuf {
    run.join("queue")
}
fn done_dir(run: &Path) -> PathBuf {
    run.join("done")
}
fn hb_dir(run: &Path) -> PathBuf {
    run.join("hb")
}
pub(super) fn trace_dir(run: &Path) -> PathBuf {
    run.join("trace")
}
pub(super) fn ck_dir(run: &Path, domain: usize) -> PathBuf {
    run.join("ck").join(format!("domain-{domain}"))
}
pub(super) fn todo_path(run: &Path, domain: usize) -> PathBuf {
    queue_dir(run).join(format!("domain-{domain}.todo"))
}
pub(super) fn claimed_path(run: &Path, domain: usize, rank: usize) -> PathBuf {
    queue_dir(run).join(format!("domain-{domain}.claimed.rank{rank}"))
}
fn done_path(run: &Path, domain: usize) -> PathBuf {
    done_dir(run).join(format!("domain-{domain}.json"))
}
fn hb_path(run: &Path, rank: usize) -> PathBuf {
    hb_dir(run).join(format!("rank-{rank}.hb"))
}
pub(super) fn exit_path(run: &Path, rank: usize) -> PathBuf {
    hb_dir(run).join(format!("rank-{rank}.exit"))
}
fn manifest_path(run: &Path) -> PathBuf {
    run.join("MANIFEST.json")
}
pub(super) fn coord_log_path(run: &Path) -> PathBuf {
    run.join("coord.log")
}
fn rank_events_path(run: &Path, rank: usize) -> PathBuf {
    trace_dir(run).join(format!("events-rank{rank}.jsonl"))
}
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

/// Parses `domain-<d><suffix>` names back to the domain id.
fn domain_of(name: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix("domain-")?.strip_suffix(suffix)?.parse().ok()
}

/// Domain ids of the `queue/` entries named `domain-<d><suffix>`, sorted.
fn queued(run: &Path, suffix: &str) -> Result<Vec<usize>, io::Error> {
    let mut found = Vec::new();
    for entry in fs::read_dir(queue_dir(run))? {
        if let Some(d) = domain_of(&entry?.file_name().to_string_lossy(), suffix) {
            found.push(d);
        }
    }
    found.sort_unstable();
    Ok(found)
}

// ---------------------------------------------------------------------------
// Queue

/// Creates the directory tree, clears what a previous coordinator over
/// this directory left (heartbeats; claims return to the queue) and seeds
/// the queue: domain `r < ranks` is pre-claimed for rank `r` so the
/// initial assignment is deterministic, the tail is open for work
/// stealing, done domains stay done. Returns the number seeded.
pub(super) fn prepare_run_dir(
    run: &Path,
    n_domains: usize,
    ranks: usize,
) -> Result<usize, io::Error> {
    for d in [run.to_path_buf(), queue_dir(run), done_dir(run), hb_dir(run), trace_dir(run)] {
        fs::create_dir_all(d)?;
    }
    for entry in fs::read_dir(hb_dir(run))? {
        let _ = fs::remove_file(entry?.path());
    }
    for entry in fs::read_dir(queue_dir(run))? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if let Some(d) = name.split_once(".claimed.rank").and_then(|(head, _)| domain_of(head, ""))
        {
            let _ = fs::rename(&path, todo_path(run, d));
        }
    }
    let mut seeded = 0;
    for d in (0..n_domains).filter(|&d| !done_path(run, d).exists()) {
        // A todo recovered from a previous coordinator stays open-queue;
        // pre-claiming it too would double-run the domain.
        let todo = todo_path(run, d);
        let target = if d < ranks && !todo.exists() { claimed_path(run, d, d) } else { todo };
        if !target.exists() {
            write_atomic(&target, "{}")?;
        }
        seeded += 1;
    }
    Ok(seeded)
}

/// A respawned rank re-adopts a domain it already claimed (its claim
/// marker survives the respawn), resuming from the shared checkpoint.
pub(super) fn adopt_own_claim(run: &Path, rank: usize) -> Result<Option<usize>, io::Error> {
    Ok(queued(run, &format!(".claimed.rank{rank}"))?.first().copied())
}

/// Claims the lowest-numbered unclaimed domain by atomic rename —
/// exactly one contender can win each `todo` file.
pub(super) fn claim_next(
    run: &Path,
    n_domains: usize,
    rank: usize,
) -> Result<Option<usize>, io::Error> {
    for d in queued(run, ".todo")?.into_iter().filter(|&d| d < n_domains) {
        if fs::rename(todo_path(run, d), claimed_path(run, d, rank)).is_ok() {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

/// Returns a degraded rank's claimed domains to the open queue and
/// lists them (while a respawn is still pending, claims are *kept* so
/// the recovered rank adopts its own in-flight work).
pub(super) fn release_claims(run: &Path, rank: usize) -> Result<Vec<usize>, io::Error> {
    let mut released = Vec::new();
    for d in queued(run, &format!(".claimed.rank{rank}"))? {
        // The domain may already be done (death after done-write but
        // before marker removal): drop the stale claim instead of
        // re-queueing finished work.
        if done_path(run, d).exists() {
            let _ = fs::remove_file(claimed_path(run, d, rank));
        } else if fs::rename(claimed_path(run, d, rank), todo_path(run, d)).is_ok() {
            released.push(d);
        }
    }
    Ok(released)
}

pub(super) fn count_done(run: &Path) -> Result<usize, io::Error> {
    let mut n = 0;
    for entry in fs::read_dir(done_dir(run))? {
        if domain_of(&entry?.file_name().to_string_lossy(), ".json").is_some() {
            n += 1;
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Strict field readers

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

fn str_field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, ShardError> {
    field(doc, key)?.as_str().ok_or_else(|| ShardError::Manifest(format!("{key} is not a string")))
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

fn parse_doc(text: &str, file: &str) -> Result<JsonValue, ShardError> {
    json::parse(text).map_err(|e| ShardError::Manifest(format!("{file} does not parse: {e:?}")))
}

// ---------------------------------------------------------------------------
// MANIFEST.json

/// Writes the part of `cfg` the fleet shares: everything but the
/// coordinator's own `run_dir`, `worker_exe`, `heartbeat_timeout` and
/// `max_wall`.
pub(super) fn write_manifest(cfg: &ShardConfig) -> Result<(), ShardError> {
    let deck_text = cfg
        .deck
        .to_deck_text()
        .map_err(|e| ShardError::InvalidConfig(format!("deck does not round-trip: {e}")))?;
    // `ShardConfig::validate` keeps every plan inside the spec grammar.
    let bit_flips = cfg.bit_flips.as_ref().and_then(FaultPlan::to_spec);
    let period = |p: Option<u64>| p.map_or("null".to_string(), |n| n.to_string());
    let body = format!(
        "{{\"deck\":{},\"n_domains\":{},\"ranks\":{},\"start_mode\":{},\
         \"heartbeat_interval_ms\":{},\"kill_plan\":{},\"bit_flips\":{},\
         \"abft_check_period\":{},\"verify_bursts\":{}}}",
        json::escape_string(&deck_text),
        cfg.n_domains,
        cfg.ranks,
        json::escape_string(cfg.start_mode.name()),
        cfg.heartbeat_interval.as_millis(),
        json::escape_string(&cfg.kill_plan.to_spec()),
        bit_flips.map_or("null".to_string(), |s| json::escape_string(&s)),
        period(cfg.abft_check_period),
        period(cfg.verify_bursts),
    );
    write_atomic(&manifest_path(&cfg.run_dir), &body)?;
    Ok(())
}

/// The configuration a worker runs under, read back from `run`'s
/// manifest; the coordinator-only fields hold their defaults.
pub(super) fn read_manifest(run: &Path) -> Result<ShardConfig, ShardError> {
    parse_manifest(&fs::read_to_string(manifest_path(run))?, run)
}

fn parse_manifest(text: &str, run: &Path) -> Result<ShardConfig, ShardError> {
    let doc = parse_doc(text, "MANIFEST.json")?;
    let bad = |key: &str, e: &dyn std::fmt::Display| ShardError::Manifest(format!("{key}: {e}"));
    let deck = RunConfig::parse(str_field(&doc, "deck")?).map_err(|e| bad("deck", &e))?;
    let (n_domains, ranks) = (count_field(&doc, "n_domains")?, count_field(&doc, "ranks")?);
    let mut cfg = ShardConfig::new(deck, ranks as usize, n_domains as usize, run.to_path_buf());
    cfg.start_mode = ComputeMode::from_env_value(str_field(&doc, "start_mode")?)
        .map_err(|e| bad("start_mode", &e))?;
    cfg.heartbeat_interval = Duration::from_millis(count_field(&doc, "heartbeat_interval_ms")?);
    cfg.kill_plan =
        RankKillPlan::parse(str_field(&doc, "kill_plan")?).map_err(|e| bad("kill_plan", &e))?;
    cfg.bit_flips = match field(&doc, "bit_flips")? {
        JsonValue::Null => None,
        _ => Some(
            FaultPlan::parse(str_field(&doc, "bit_flips")?).map_err(|e| bad("bit_flips", &e))?,
        ),
    };
    cfg.abft_check_period = optional_count_field(&doc, "abft_check_period")?;
    cfg.verify_bursts = optional_count_field(&doc, "verify_bursts")?;
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// coord.log

/// Append-only JSONL coordination log: the coordinator's one record of
/// what it decided and when. One writer (the coordinator); workers never
/// touch it — their channel is the queue and heartbeat files.
pub(super) struct CoordLog {
    file: fs::File,
    t0: Instant,
}

impl CoordLog {
    pub(super) fn open(run: &Path) -> Result<CoordLog, io::Error> {
        let file = fs::OpenOptions::new().create(true).append(true).open(coord_log_path(run))?;
        Ok(CoordLog { file, t0: Instant::now() })
    }

    /// `fields` are pre-rendered JSON values (numbers or quoted strings).
    pub(super) fn log(&mut self, event: &str, fields: &[(&str, String)]) {
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
// Heartbeats and exit markers

/// The progress a worker's heartbeat publishes.
#[derive(Default)]
pub(super) struct HbState {
    pub(super) seq: AtomicU64,
    pub(super) bursts: AtomicU64,
    /// Current domain, `u64::MAX` when idle.
    pub(super) domain: AtomicU64,
    pub(super) stop: AtomicBool,
}

pub(super) fn write_heartbeat(run: &Path, rank: usize, pid: u32, hb: &HbState) {
    let seq = hb.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let domain = hb.domain.load(Ordering::Relaxed);
    let body = format!(
        "{{\"seq\":{seq},\"pid\":{pid},\"bursts\":{},\"domain\":{}}}",
        hb.bursts.load(Ordering::Relaxed),
        if domain == u64::MAX { "null".to_string() } else { domain.to_string() },
    );
    let _ = write_atomic(&hb_path(run, rank), &body);
}

/// Reads a heartbeat file's modification stamp (`None` when absent).
/// Liveness is *mtime-change detection*: each atomic rewrite of the
/// heartbeat bumps the mtime, so a stamp different from the last one
/// observed means the worker made progress — even if the file content is
/// torn or unparsable. The stamp is never compared against the
/// coordinator's wall clock (filesystem and coordinator clocks need not
/// agree); staleness is judged by the coordinator-local monotonic delta
/// since the last observed change.
pub(super) fn read_hb_stamp(run: &Path, rank: usize) -> Option<SystemTime> {
    fs::metadata(hb_path(run, rank)).and_then(|m| m.modified()).ok()
}

/// Written before a cleanly finishing worker exits, so marker + reaped
/// child tells "finished" from "died quietly".
pub(super) fn write_exit_marker(run: &Path, rank: usize) -> Result<(), io::Error> {
    write_atomic(&exit_path(run, rank), "{\"status\":\"complete\"}")
}

// ---------------------------------------------------------------------------
// Telemetry

/// Starts an incarnation's event stream fresh: its `telemetry_meta`
/// header carries *this* process's run epoch, and a dead incarnation's
/// tail must not prefix it (the clocks would not align).
pub(super) fn start_rank_events(run: &Path, rank: usize) -> Result<(), io::Error> {
    fs::write(rank_events_path(run, rank), export::jsonl(&sink::drain()))
}

/// Puts what this rank process has recorded so far on disk, after every
/// committed burst and once more at clean worker exit. Its precision
/// ledger is rewritten whole and atomically — the live `profile watch`
/// and the end-of-run `profile archive` read the same file and neither
/// sees a torn one. Its events are appended to the rank's stream: the
/// first flush of an incarnation writes the `telemetry_meta` header,
/// later ones body lines only, so the stream stays one well-formed JSONL
/// dump for `profile merge`.
pub(super) fn flush_rank_trace(run: &Path, rank: usize, incarnation: u32) -> Result<(), io::Error> {
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
    let text = if fresh { export::jsonl(&events) } else { export::jsonl_body(&events) };
    f.write_all(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Done files and report.json

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
    pub(super) fn failed(domain: usize, rank: usize, incarnation: u32, error: String) -> Self {
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

    pub(super) fn to_json(&self) -> String {
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
    pub(super) fn from_json(doc: &JsonValue) -> Result<DomainOutcome, ShardError> {
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
                _ => Some(str_field(doc, "error")?.to_string()),
            },
        })
    }

    fn parse(text: &str) -> Result<DomainOutcome, ShardError> {
        DomainOutcome::from_json(&parse_doc(text, "done file")?)
    }
}

pub(super) fn write_done(run: &Path, outcome: &DomainOutcome) -> Result<(), io::Error> {
    write_atomic(&done_path(run, outcome.domain), &outcome.to_json())
}

/// Domain `d`'s done file. One that is missing, torn or not a complete
/// outcome for its own domain is a failed domain, not a zeroed success.
pub(super) fn read_done(run: &Path, d: usize) -> DomainOutcome {
    let text = fs::read_to_string(done_path(run, d)).map_err(ShardError::from);
    match text.and_then(|t| DomainOutcome::parse(&t)) {
        Ok(outcome) if outcome.domain == d => outcome,
        Ok(o) => DomainOutcome::failed(d, 0, 0, format!("done file names domain {}", o.domain)),
        Err(e) => DomainOutcome::failed(d, 0, 0, format!("done file missing or unparsable: {e}")),
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
/// [`super::run_coordinator`].
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
pub(super) fn merge_domain_bits(
    domains: &[DomainOutcome],
    field: fn(&DomainOutcome) -> u64,
) -> u64 {
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

    pub(super) fn to_json(&self) -> String {
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

    /// Parses a `report.json` written by [`super::run_coordinator`].
    /// Strict: a document without its domain and rank lists, or with a
    /// field missing or mistyped, is an error — `{}` must not read as a
    /// clean fleet.
    pub fn parse(text: &str) -> Result<ShardReport, ShardError> {
        let doc = parse_doc(text, "report.json")?;
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

pub(super) fn write_report(run: &Path, report: &ShardReport) -> Result<(), io::Error> {
    write_atomic(&report_path(run), &report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;

    /// A `MANIFEST.json` with every optional setting on, as the
    /// coordinator writes it.
    fn manifest_text(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("dcmesh-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("dir");
        let deck = RunConfig::preset(SystemPreset::Pto40Small);
        let mut cfg = ShardConfig::new(deck, 2, 4, dir.clone());
        cfg.kill_plan = RankKillPlan::parse("1@1").expect("kill spec");
        cfg.bit_flips = Some(FaultPlan::parse("7:250@61").expect("flip spec"));
        cfg.abft_check_period = Some(1);
        cfg.verify_bursts = Some(2);
        write_manifest(&cfg).expect("write");
        let text = fs::read_to_string(manifest_path(&dir)).expect("read");
        fs::remove_dir_all(&dir).ok();
        text
    }

    #[test]
    fn manifest_rejects_a_document_missing_any_field() {
        let JsonValue::Object(members) = json::parse(&manifest_text("fields")).expect("json")
        else {
            panic!("MANIFEST.json is not an object");
        };
        for key in ["kill_plan", "bit_flips", "abft_check_period", "verify_bursts"] {
            assert!(members.contains_key(key), "the manifest carries {key}");
        }
        for key in members.keys() {
            let mut without = members.clone();
            without.remove(key);
            match parse_manifest(&json::dump(&JsonValue::Object(without)), Path::new("")) {
                Err(ShardError::Manifest(m)) => assert!(m.contains(key.as_str()), "{key}: {m}"),
                other => panic!("a manifest without {key} was not refused: {:?}", other.err()),
            }
        }
    }

    fn assert_prefixes_refused(file: &str, text: &str, reads: impl Fn(&str) -> bool) {
        assert!(reads(text), "{file}: the whole file reads");
        for (i, _) in text.char_indices() {
            assert!(!reads(&text[..i]), "{file}: the {i}-byte prefix was accepted");
        }
    }

    /// A torn write must read as an error, never as a shorter valid
    /// document and never as a panic.
    #[test]
    fn every_strict_prefix_of_a_coordination_file_is_an_error() {
        let outcome = DomainOutcome {
            domain: 0,
            ok: true,
            rank: 1,
            incarnation: 1,
            resumed_from_step: Some(20),
            final_step: 60,
            ekin_bits: 0x3ff5_5555_5555_5555,
            nexc_bits: 1,
            etot_bits: u64::MAX,
            escalations: 2,
            sdc_recoveries: 3,
            error: None,
        };
        let report = ShardReport {
            domains: vec![outcome.clone(), DomainOutcome::failed(1, 0, 2, "boom".into())],
            ranks: vec![RankSummary { rank: 0, incarnations: 3, degraded: true }],
            heartbeat_misses: 3,
            restarts: 2,
            degraded_ranks: vec![0],
            elapsed: Duration::from_millis(1234),
        };
        let manifest = manifest_text("prefixes");
        assert_prefixes_refused("MANIFEST.json", &manifest, |t| {
            parse_manifest(t, Path::new("")).is_ok()
        });
        assert_prefixes_refused("done file", &outcome.to_json(), |t| {
            DomainOutcome::parse(t).is_ok()
        });
        assert_prefixes_refused("report.json", &report.to_json(), |t| {
            ShardReport::parse(t).is_ok()
        });
    }
}
