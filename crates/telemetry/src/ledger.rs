//! The accuracy/cost ledger: streaming per-(callsite, shape-class, mode)
//! statistics folding every signal the future precision autotuner needs.
//!
//! The live ledger is part of the calling thread's [`crate::recorder`]:
//! a run's rows are what its own thread recorded. Producers feed it
//! directly on the hot path (one `BTreeMap` update per BLAS call under a
//! [`Key`] the call resolved once, only when `TELEMETRY != off`):
//!
//! * `mkl_lite::verbose::observe` — call counts, wall seconds, modelled
//!   device seconds (→ observed-vs-model time misfit).
//! * `mkl_lite::abft` — row-checksum residual ratios (defect/bound) into
//!   a log₁₀-decade histogram, plus violation counts.
//! * the GEMM wrappers — non-finite output detections, which also mark
//!   the callsite as the *suspect* for the next rollback/escalation.
//! * the supervisor — rollbacks, escalations (attributed to the suspect
//!   callsite when one is pending), health violations, and the SCF
//!   defect trend.
//!
//! Consumers: [`ledger_json`] (the `ledger.json` artifact, schema
//! version 3, documented in DESIGN.md), [`rows_prometheus`] (labelled
//! gauge/counter series, behind `profile watch --prom`), and the shared
//! plain-text renderer [`render_rows`] reused by `profile watch` for its
//! live dashboard.
//!
//! The document is **self-describing**: a `meta` header ([`LedgerMeta`])
//! stamps the deck hash, fleet rank count, telemetry level the rows were
//! recorded at and row count into the artifact, so an archived run needs
//! no side-channel context. [`parse_ledger`] reads a document back into
//! its header and [`Row`]s — the round-trip the cross-run archive
//! (`profile archive`) is built on — and requires every field either
//! writes.
//!
//! A key is a memoised callsite ID, three numbers and the `&'static str`
//! the compute mode owns, so steady-state recording allocates nothing per
//! call; the shape class is spelled out only at export.

use crate::callsite::{callsite_for, intern};
use crate::json::{self, FieldError};
use crate::recorder;
use std::collections::BTreeMap;

/// Number of log₁₀ decade buckets in a [`ResidualHist`]: upper bounds
/// 1e-12, 1e-11, …, 1e4 (everything above — or NaN — lands in +Inf).
pub const RESIDUAL_DECADES: usize = 17;

const RESIDUAL_MIN_EXP: i32 = -12;

/// Upper-bound label for residual bucket `i` (`"1e-12"` … `"1e4"`,
/// then `"+Inf"`).
pub fn residual_bucket_label(i: usize) -> String {
    if i >= RESIDUAL_DECADES {
        "+Inf".to_string()
    } else {
        format!("1e{}", RESIDUAL_MIN_EXP + i as i32)
    }
}

fn residual_bucket_index(v: f64) -> usize {
    if v.is_nan() || v.is_infinite() {
        return RESIDUAL_DECADES;
    }
    for i in 0..RESIDUAL_DECADES {
        if v <= 10f64.powi(RESIDUAL_MIN_EXP + i as i32) {
            return i;
        }
    }
    RESIDUAL_DECADES
}

/// A fixed-size log₁₀-decade histogram of dimensionless residual ratios
/// (ABFT defect/bound, SCF defect). NaN and +Inf observations land in
/// the overflow bucket, so a poisoned residual is never silently lost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResidualHist {
    /// Total observations.
    pub count: u64,
    /// Largest finite observation (0 when none).
    pub max: f64,
    /// Per-decade counts, index `RESIDUAL_DECADES` = overflow/+Inf.
    pub buckets: [u64; RESIDUAL_DECADES + 1],
}

impl ResidualHist {
    /// Records one ratio.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.buckets[residual_bucket_index(v)] += 1;
        if v.is_finite() && v > self.max {
            self.max = v;
        }
    }

    /// Non-empty `(bucket_label, count)` pairs in ascending order.
    pub fn nonzero_buckets(&self) -> Vec<(String, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (residual_bucket_label(i), n))
            .collect()
    }

    /// Folds another histogram into this one (cross-rank merging).
    pub fn merge(&mut self, other: &ResidualHist) {
        self.count += other.count;
        if other.max > self.max {
            self.max = other.max;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// Ledger key: who called, at what shape class, in which mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Interned callsite ID (`"{phase}/{routine}"`).
    pub callsite: &'static str,
    /// Shape class: pow2-ceiling `[m, n, k]`, exported as
    /// `"128x1024x262144"`; `None` (exported as `"-"`) for shapeless
    /// entries like supervisor rows.
    pub shape: Option<[usize; 3]>,
    /// Compute-mode label (`"STANDARD"`, `"FLOAT_TO_BF16"`, …).
    pub mode: &'static str,
}

impl Key {
    /// The key of a BLAS call made from the current phase: the one place
    /// a call's ledger row is named. `mkl-lite` resolves it once per call
    /// and hands it to every `record_*` the call ends up making.
    pub fn for_call(
        routine: &'static str,
        m: usize,
        n: usize,
        k: usize,
        mode: &'static str,
    ) -> Key {
        Key { callsite: callsite_for(routine), shape: Some(pow2_class(m, n, k)), mode }
    }
}

fn pow2_class(m: usize, n: usize, k: usize) -> [usize; 3] {
    [m, n, k].map(|v| v.max(1).next_power_of_two())
}

/// The exported spelling of a key's shape class.
fn shape_label(shape: Option<[usize; 3]>) -> String {
    match shape {
        Some([m, n, k]) => format!("{m}x{n}x{k}"),
        None => "-".to_string(),
    }
}

/// Streaming statistics accumulated under one [`Key`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// BLAS calls recorded (every call counts).
    pub calls: u64,
    /// Total host wall seconds across those calls.
    pub wall_s: f64,
    /// Total modelled device seconds (when the device model ran).
    pub device_s: f64,
    /// Calls that carried a device-model prediction.
    pub device_samples: u64,
    /// Precision escalations attributed to this key.
    pub escalations: u64,
    /// Burst rollbacks attributed to this key.
    pub rollbacks: u64,
    /// Supervisor health violations attributed to this key.
    pub health_violations: u64,
    /// Non-finite GEMM outputs detected at this key.
    pub nonfinite_outputs: u64,
    /// ABFT row-checksum verifications performed.
    pub abft_checks: u64,
    /// ABFT verifications that exceeded the error bound.
    pub abft_violations: u64,
    /// Residual-ratio histogram (ABFT defect/bound, or SCF defect for
    /// the `supervisor/scf` row).
    pub residuals: ResidualHist,
}

impl Stats {
    /// Observed-vs-device-model time misfit: wall ÷ modelled seconds.
    /// `None` when no device-model sample exists.
    pub fn time_misfit(&self) -> Option<f64> {
        if self.device_samples > 0 && self.device_s > 0.0 {
            Some(self.wall_s / self.device_s)
        } else {
            None
        }
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &Stats) {
        self.calls += other.calls;
        self.wall_s += other.wall_s;
        self.device_s += other.device_s;
        self.device_samples += other.device_samples;
        self.escalations += other.escalations;
        self.rollbacks += other.rollbacks;
        self.health_violations += other.health_violations;
        self.nonfinite_outputs += other.nonfinite_outputs;
        self.abft_checks += other.abft_checks;
        self.abft_violations += other.abft_violations;
        self.residuals.merge(&other.residuals);
    }
}

/// One exported ledger row: a [`Key`] plus its [`Stats`]. What
/// [`parse_ledger`] reads back is the same shape, so the live ledger, a
/// snapshot on disk and a merge of several ranks' snapshots share the
/// JSON/Prometheus/dashboard renderers below.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Callsite ID.
    pub callsite: String,
    /// Shape class.
    pub shape: String,
    /// Compute-mode label.
    pub mode: String,
    /// Accumulated statistics.
    pub stats: Stats,
}

/// The self-describing header of a `ledger.json` document.
/// Every field an archived run would otherwise need side-channel
/// context for: which deck produced it, how many ranks contributed,
/// and how the telemetry layer was configured when it recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerMeta {
    /// Schema version of the document ([`LEDGER_SCHEMA_VERSION`]).
    pub version: u64,
    /// FNV-1a/64 hash of the canonical deck text as `"0x{:016x}"`, or
    /// `"-"` when the producer never stamped one.
    pub deck_hash: String,
    /// Ranks contributing to the document (1 for single-process runs).
    pub ranks: u64,
    /// Highest telemetry level the rows were recorded at
    /// (`"off"`/`"events"`/`"full"`).
    pub telemetry_level: String,
    /// Number of ledger rows in the document.
    pub rows: u64,
}

/// FNV-1a/64, byte by byte: the one hash of a ledger identity.
/// `RunConfig::deck_hash` stamps it over the canonical deck text into the
/// header ([`set_deck_hash`]), and the run archive's record id hashes a
/// run's merged [`row_json`] bytes with it.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stamps the deck hash (`"0x{:016x}"` form) the next exported ledger
/// header will carry. The supervisor calls this at run start.
pub fn set_deck_hash(hash: &str) {
    recorder::with(|r| r.deck_hash = Some(hash.to_string()));
}

/// Stamps the fleet rank count for the exported header. Shard workers
/// call this after reading the manifest; single-process runs leave the
/// default of 1.
pub fn set_rank_count(ranks: u64) {
    recorder::with(|r| r.rank_count = Some(ranks));
}

/// The header the live ledger would export right now: the stamped
/// deck hash / rank count, the highest telemetry level a row was
/// recorded at since the last [`clear`] (the current level while there
/// are no rows), with `rows` set to `row_count`.
pub fn current_meta(row_count: u64) -> LedgerMeta {
    recorder::with(|r| LedgerMeta {
        version: LEDGER_SCHEMA_VERSION,
        deck_hash: r.deck_hash.clone().unwrap_or_else(|| "-".to_string()),
        ranks: r.rank_count.unwrap_or(1),
        telemetry_level: r.ledger_level.unwrap_or(r.level).env_value().to_string(),
        rows: row_count,
    })
}

/// Records one BLAS call: wall time and (when available) the modelled
/// device time. Called from `mkl_lite::verbose::observe` for *every* call
/// when telemetry is on.
pub fn record_call(key: Key, wall_s: f64, device_s: Option<f64>) {
    recorder::with(|r| {
        let s = r.stats(key);
        s.calls += 1;
        s.wall_s += wall_s;
        if let Some(d) = device_s {
            s.device_s += d;
            s.device_samples += 1;
        }
    });
}

/// Records one ABFT row-checksum verification and its worst
/// defect/bound ratio across the checked rows.
pub fn record_abft_check(key: Key, max_ratio: f64) {
    recorder::with(|r| {
        let s = r.stats(key);
        s.abft_checks += 1;
        s.residuals.observe(max_ratio);
    });
}

/// Records an ABFT violation (bound exceeded) and marks this key as the
/// suspect for the next rollback/escalation.
pub fn record_abft_violation(key: Key, max_ratio: f64) {
    recorder::with(|r| {
        let s = r.stats(key);
        s.abft_violations += 1;
        s.residuals.observe(max_ratio);
        r.suspect = Some(key);
    });
}

/// Records a non-finite GEMM output detected at a callsite, and marks
/// it as the suspect for the next rollback/escalation.
pub fn record_nonfinite_output(key: Key) {
    recorder::with(|r| {
        r.stats(key).nonfinite_outputs += 1;
        r.suspect = Some(key);
    });
}

fn supervisor_key(site: &'static str, mode: &'static str) -> Key {
    Key { callsite: site, shape: None, mode }
}

/// Records a burst rollback. Attributed to the pending suspect callsite
/// when one exists (the suspect is *kept* — the escalation decision
/// follows the rollback), else to `supervisor/burst`.
pub fn record_rollback(mode: &'static str) {
    recorder::with(|r| {
        let k = r.suspect.unwrap_or_else(|| supervisor_key("supervisor/burst", mode));
        r.stats(k).rollbacks += 1;
    });
}

/// Records a precision escalation away from `from_mode`, consuming the
/// pending suspect callsite when one exists (else `supervisor/burst`
/// under `from_mode`).
pub fn record_escalation(from_mode: &'static str) {
    recorder::with(|r| {
        let k = r.suspect.take().unwrap_or_else(|| supervisor_key("supervisor/burst", from_mode));
        r.stats(k).escalations += 1;
    });
}

/// Records a supervisor health violation. Attributed to the pending
/// suspect when one exists, else to `supervisor/{kind}`.
pub fn record_health_violation(kind: &str, mode: &'static str) {
    let site = intern(&format!("supervisor/{}", kind.to_lowercase()));
    recorder::with(|r| {
        let k = r.suspect.unwrap_or_else(|| supervisor_key(site, mode));
        r.stats(k).health_violations += 1;
    });
}

/// Records one committed-burst SCF defect under the `supervisor/scf`
/// row — the accuracy trend the autotuner will read.
pub fn record_scf_defect(mode: &'static str, defect: f64) {
    recorder::with(|r| r.stats(supervisor_key("supervisor/scf", mode)).residuals.observe(defect));
}

/// Clears this thread's ledger including the pending suspect, the level
/// its rows were recorded at and the stamped run metadata (tests, per-run
/// harnesses).
pub fn clear() {
    recorder::with(|r| {
        r.ledger.clear();
        r.ledger_level = None;
        r.suspect = None;
        r.deck_hash = None;
        r.rank_count = None;
    });
}

/// Snapshot of every row, sorted by (callsite, shape, mode) as exported.
pub fn snapshot() -> Vec<Row> {
    let mut rows: Vec<Row> = recorder::with(|r| {
        r.ledger
            .iter()
            .map(|(k, s)| Row {
                callsite: k.callsite.to_string(),
                shape: shape_label(k.shape),
                mode: k.mode.to_string(),
                stats: s.clone(),
            })
            .collect()
    });
    // The map orders shape classes numerically; documents order them as
    // the strings they are written as.
    rows.sort_by(|a, b| (&a.callsite, &a.shape, &a.mode).cmp(&(&b.callsite, &b.shape, &b.mode)));
    rows
}

/// Current ledger schema version (see DESIGN.md "Observability").
/// v2 added the self-describing `meta` header and v3 dropped its span
/// sampling period; nothing writes either older version and
/// [`parse_ledger`] refuses them.
pub const LEDGER_SCHEMA_VERSION: u64 = 3;

/// Renders one row as its compact `ledger.json` entry object. The same
/// fragment is embedded verbatim in the cross-run archive's
/// `runs.jsonl`, so both artifacts share one row schema.
pub fn row_json(r: &Row) -> String {
    let mut out = String::from("{");
    let s = &r.stats;
    out.push_str(&format!(
        "\"callsite\":{},\"shape\":{},\"mode\":{},",
        json::escape_string(&r.callsite),
        json::escape_string(&r.shape),
        json::escape_string(&r.mode)
    ));
    out.push_str(&format!(
        "\"calls\":{},\"wall_s\":{},\"device_s\":{},\"device_samples\":{},",
        s.calls,
        json::number(s.wall_s),
        json::number(s.device_s),
        s.device_samples
    ));
    let misfit = match s.time_misfit() {
        Some(m) => json::number(m),
        None => "null".to_string(),
    };
    out.push_str(&format!("\"time_misfit\":{misfit},"));
    out.push_str(&format!(
        "\"escalations\":{},\"rollbacks\":{},\"health_violations\":{},\
         \"nonfinite_outputs\":{},\"abft_checks\":{},\"abft_violations\":{},",
        s.escalations,
        s.rollbacks,
        s.health_violations,
        s.nonfinite_outputs,
        s.abft_checks,
        s.abft_violations
    ));
    out.push_str(&format!(
        "\"residuals\":{{\"count\":{},\"max\":{},\"buckets\":[",
        s.residuals.count,
        json::number(s.residuals.max)
    ));
    for (j, (le, n)) in s.residuals.nonzero_buckets().iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{}]", json::escape_string(le), n));
    }
    out.push_str("]}}");
    out
}

/// Renders the `meta` header object of a document.
pub fn meta_json(meta: &LedgerMeta) -> String {
    format!(
        "{{\"deck_hash\":{},\"ranks\":{},\"telemetry_level\":{},\"rows\":{}}}",
        json::escape_string(&meta.deck_hash),
        meta.ranks,
        json::escape_string(&meta.telemetry_level),
        meta.rows
    )
}

/// Renders rows under an explicit header as the `ledger.json`
/// document: `{"version": 3, "meta": {...}, "entries": [...]}`.
pub fn rows_json_with_meta(meta: &LedgerMeta, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"version\": {LEDGER_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"meta\": {},\n", meta_json(meta)));
    out.push_str("  \"entries\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&row_json(r));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Parses one entry object back into a [`Row`]. Every field [`row_json`]
/// writes is required — a torn or foreign row must not read as a clean,
/// zero-cost one — and the derived `time_misfit` must equal its
/// derivation from the parsed stats; unknown fields are ignored for
/// forward tolerance. Errors name the member's path within the row.
pub fn parse_row(e: &json::JsonValue) -> Result<Row, FieldError> {
    let num = |f: &str| json::count_field(e, f);
    let res = json::field(e, "residuals")?;
    let mut residuals = ResidualHist {
        count: json::count_field(res, "residuals.count")?,
        max: json::real_field(res, "residuals.max")?,
        ..ResidualHist::default()
    };
    let bucket = |pair: &json::JsonValue| {
        let Some([label, n]) = pair.as_array() else {
            return Err(FieldError::new("", "a [label, count] pair"));
        };
        let known = |i: &usize| label.as_str() == Some(residual_bucket_label(*i).as_str());
        let idx = (0..=RESIDUAL_DECADES).find(known);
        Ok((idx.ok_or(FieldError::new("", "a residual bucket label"))?, json::as_count(n, "")?))
    };
    for (idx, n) in json::array_field(res, "residuals.buckets", bucket)? {
        residuals.buckets[idx] = n;
    }
    let stats = Stats {
        calls: num("calls")?,
        wall_s: json::real_field(e, "wall_s")?,
        device_s: json::real_field(e, "device_s")?,
        device_samples: num("device_samples")?,
        escalations: num("escalations")?,
        rollbacks: num("rollbacks")?,
        health_violations: num("health_violations")?,
        nonfinite_outputs: num("nonfinite_outputs")?,
        abft_checks: num("abft_checks")?,
        abft_violations: num("abft_violations")?,
        residuals,
    };
    let misfit = stats.time_misfit().filter(|m| m.is_finite()).unwrap_or(f64::NAN);
    if json::real_field(e, "time_misfit")?.to_bits() != misfit.to_bits() {
        return Err(FieldError::new("time_misfit", "wall_s / device_s"));
    }
    Ok(Row {
        callsite: json::str_field(e, "callsite")?.to_string(),
        shape: json::str_field(e, "shape")?.to_string(),
        mode: json::str_field(e, "mode")?.to_string(),
        stats,
    })
}

/// Parses a `ledger.json` document back into its header and rows. Any
/// version other than [`LEDGER_SCHEMA_VERSION`] is an error: the caller
/// should warn and skip rather than misread fields it does not
/// understand. Every header field [`meta_json`] writes is required, as
/// every entry field is — a headerless document must not read as deck
/// `"-"` on one rank and be grouped under the wrong deck — and
/// `meta.rows` must be the entry count.
pub fn parse_ledger(text: &str) -> Result<(LedgerMeta, Vec<Row>), String> {
    let doc = json::parse(text).map_err(|e| format!("ledger does not parse: {e}"))?;
    let version = json::count_field(&doc, "version")?;
    if version != LEDGER_SCHEMA_VERSION {
        return Err(format!(
            "ledger schema v{version} is not the supported v{LEDGER_SCHEMA_VERSION}"
        ));
    }
    let rows = parse_rows(&doc)?;
    let m = json::field(&doc, "meta")?;
    let meta = LedgerMeta {
        version,
        deck_hash: json::str_field(m, "meta.deck_hash")?.to_string(),
        ranks: json::count_field(m, "meta.ranks")?,
        telemetry_level: json::str_field(m, "meta.telemetry_level")?.to_string(),
        rows: json::count_field(m, "meta.rows")?,
    };
    if meta.rows != rows.len() as u64 {
        return Err(format!("ledger meta says {} rows but has {} entries", meta.rows, rows.len()));
    }
    Ok((meta, rows))
}

/// The `entries` array of a ledger document or an archive record, each
/// row's errors named by its index (`entries[3].calls`).
pub fn parse_rows(doc: &json::JsonValue) -> Result<Vec<Row>, FieldError> {
    json::array_field(doc, "entries", parse_row)
}

/// Merges ledger rows from several sources (per-rank documents, or the
/// same run re-read) into one sorted row set keyed by (callsite, shape,
/// mode). Merging goes through the commutative [`Stats::merge`] /
/// [`ResidualHist::merge`] folds over a sorted map, so the result is
/// **bit-identical under any permutation of the sources** — the same
/// guarantee the cross-rank observable merge gives (PR 8), now for the
/// observability plane.
pub fn merge_rows(sources: &[Vec<Row>]) -> Vec<Row> {
    let mut merged: BTreeMap<(String, String, String), Stats> = BTreeMap::new();
    for rows in sources {
        for r in rows {
            merged
                .entry((r.callsite.clone(), r.shape.clone(), r.mode.clone()))
                .or_default()
                .merge(&r.stats);
        }
    }
    merged
        .into_iter()
        .map(|((callsite, shape, mode), stats)| Row { callsite, shape, mode, stats })
        .collect()
}

/// Escapes a string for use inside a Prometheus label value: backslash,
/// double quote, and newline get escaped per the text exposition format
/// (`\\`, `\"`, `\n`). Everything else passes through unchanged.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders rows as Prometheus text: labelled counter/gauge families
/// keyed by `callsite`/`shape`/`mode`, label values escaped via
/// [`escape_label_value`].
pub fn rows_prometheus(rows: &[Row]) -> String {
    fn labels(r: &Row) -> String {
        format!(
            "{{callsite=\"{}\",shape=\"{}\",mode=\"{}\"}}",
            escape_label_value(&r.callsite),
            escape_label_value(&r.shape),
            escape_label_value(&r.mode)
        )
    }
    struct Family {
        name: &'static str,
        kind: &'static str,
        help: &'static str,
        get: fn(&Stats) -> Option<f64>,
    }
    let families = [
        Family {
            name: "dcmesh_ledger_calls_total",
            kind: "counter",
            help: "BLAS calls recorded per (callsite, shape, mode)",
            get: |s| Some(s.calls as f64),
        },
        Family {
            name: "dcmesh_ledger_wall_seconds_total",
            kind: "counter",
            help: "host wall seconds per (callsite, shape, mode)",
            get: |s| Some(s.wall_s),
        },
        Family {
            name: "dcmesh_ledger_device_seconds_total",
            kind: "counter",
            help: "modelled device seconds per (callsite, shape, mode)",
            get: |s| (s.device_samples > 0).then_some(s.device_s),
        },
        Family {
            name: "dcmesh_ledger_time_misfit_ratio",
            kind: "gauge",
            help: "observed wall / modelled device seconds",
            get: |s| s.time_misfit(),
        },
        Family {
            name: "dcmesh_ledger_escalations_total",
            kind: "counter",
            help: "precision escalations attributed to the key",
            get: |s| Some(s.escalations as f64),
        },
        Family {
            name: "dcmesh_ledger_rollbacks_total",
            kind: "counter",
            help: "burst rollbacks attributed to the key",
            get: |s| Some(s.rollbacks as f64),
        },
        Family {
            name: "dcmesh_ledger_health_violations_total",
            kind: "counter",
            help: "supervisor health violations attributed to the key",
            get: |s| Some(s.health_violations as f64),
        },
        Family {
            name: "dcmesh_ledger_nonfinite_outputs_total",
            kind: "counter",
            help: "non-finite GEMM outputs detected at the key",
            get: |s| Some(s.nonfinite_outputs as f64),
        },
        Family {
            name: "dcmesh_ledger_abft_checks_total",
            kind: "counter",
            help: "ABFT row-checksum verifications",
            get: |s| Some(s.abft_checks as f64),
        },
        Family {
            name: "dcmesh_ledger_abft_violations_total",
            kind: "counter",
            help: "ABFT verifications exceeding the error bound",
            get: |s| Some(s.abft_violations as f64),
        },
        Family {
            name: "dcmesh_ledger_residual_max",
            kind: "gauge",
            help: "largest finite residual ratio observed",
            get: |s| (s.residuals.count > 0).then_some(s.residuals.max),
        },
    ];
    let mut out = String::new();
    for fam in &families {
        let mut lines = Vec::new();
        for r in rows {
            if let Some(v) = (fam.get)(&r.stats) {
                lines.push(format!("{}{} {}\n", fam.name, labels(r), v));
            }
        }
        if lines.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
        out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind));
        for l in lines {
            out.push_str(&l);
        }
    }
    out
}

/// Renders rows as the fixed-width plain-text table shared by
/// `ledger.json` printouts and the `profile watch` dashboard.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>20} {:<14} {:>8} {:>10} {:>7} {:>4} {:>4} {:>5} {:>5} {:>7} {:>9}\n",
        "CALLSITE",
        "SHAPE",
        "MODE",
        "CALLS",
        "WALL_S",
        "MISFIT",
        "ESC",
        "RB",
        "ABFT",
        "VIOL",
        "NONFIN",
        "RES_MAX"
    ));
    for r in rows {
        let s = &r.stats;
        let misfit = match s.time_misfit() {
            Some(m) => format!("{m:.2}"),
            None => "-".to_string(),
        };
        let res_max =
            if s.residuals.count > 0 { format!("{:.2e}", s.residuals.max) } else { "-".into() };
        out.push_str(&format!(
            "{:<34} {:>20} {:<14} {:>8} {:>10.4} {:>7} {:>4} {:>4} {:>5} {:>5} {:>7} {:>9}\n",
            r.callsite,
            r.shape,
            r.mode,
            s.calls,
            s.wall_s,
            misfit,
            s.escalations,
            s.rollbacks,
            s.abft_checks,
            s.abft_violations,
            s.nonfinite_outputs,
            res_max
        ));
    }
    out
}

/// The live ledger as `ledger.json` text, under the header
/// [`current_meta`] gives it.
pub fn ledger_json() -> String {
    let rows = snapshot();
    rows_json_with_meta(&current_meta(rows.len() as u64), &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::callsite::phase_scope;
    use crate::level::{with_level, TelemetryLevel};

    // Each test runs on its own thread, hence on its own empty ledger.

    #[test]
    fn fnv1a64_matches_the_standard_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The exported shape class of a GEMM problem: pow2 ceilings, so
    /// the ledger stays bounded across jittering dimensions.
    fn shape_class(m: usize, n: usize, k: usize) -> String {
        shape_label(Some(pow2_class(m, n, k)))
    }

    /// The key a `routine` call of shape `m x n x k` resolves to inside
    /// `phase`.
    fn key(
        phase: &'static str,
        routine: &'static str,
        (m, n, k): (usize, usize, usize),
        mode: &'static str,
    ) -> Key {
        let _phase = phase_scope(phase);
        Key::for_call(routine, m, n, k, mode)
    }

    #[test]
    fn shape_class_buckets_pow2() {
        assert_eq!(shape_class(128, 896, 262144), "128x1024x262144");
        assert_eq!(shape_class(100, 1000, 250000), "128x1024x262144");
        assert_eq!(shape_class(1, 1, 1), "1x1x1");
        assert_eq!(shape_class(0, 3, 5), "1x4x8");
    }

    #[test]
    fn residual_hist_buckets_decades() {
        let mut h = ResidualHist::default();
        h.observe(5e-13); // <= 1e-12
        h.observe(0.5); // <= 1e0
        h.observe(f64::NAN); // overflow
        h.observe(1e9); // overflow
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 1e9);
        let nz = h.nonzero_buckets();
        assert_eq!(
            nz,
            vec![("1e-12".into(), 1), ("1e0".into(), 1), ("+Inf".into(), 2)]
        );
    }

    #[test]
    fn calls_accumulate_and_misfit_computes() {
        let k = key("ledger_test::calls", "SGEMM", (128, 896, 4096), "STANDARD");
        record_call(k, 0.5, Some(0.25));
        record_call(k, 0.5, Some(0.25));
        record_call(k, 0.25, None);
        let rows = snapshot();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.callsite, "ledger_test::calls/sgemm");
        assert_eq!(r.stats.calls, 3);
        assert_eq!(r.stats.device_samples, 2);
        assert!((r.stats.wall_s - 1.25).abs() < 1e-12);
        assert_eq!(r.stats.time_misfit(), Some(2.5));
        assert_eq!(r.shape, "128x1024x4096");
    }

    #[test]
    fn suspect_flows_from_violation_to_escalation() {
        let k = key("ledger_test::suspect", "CGEMM", (64, 64, 64), "FLOAT_TO_BF16");
        record_abft_violation(k, 12.0);
        record_rollback("FLOAT_TO_BF16"); // peeks, keeps suspect
        record_escalation("FLOAT_TO_BF16"); // consumes
        record_escalation("FLOAT_TO_BF16X2"); // no suspect
        let rows = snapshot();
        assert_eq!(rows.len(), 2);
        let r = &rows[0];
        assert_eq!(r.callsite, k.callsite);
        assert_eq!(r.stats.abft_violations, 1);
        assert_eq!(r.stats.rollbacks, 1);
        assert_eq!(r.stats.escalations, 1);
        // The second escalation fell back to the supervisor row.
        let sup = &rows[1];
        assert_eq!(
            (sup.callsite.as_str(), sup.mode.as_str()),
            ("supervisor/burst", "FLOAT_TO_BF16X2")
        );
        assert_eq!(sup.stats.escalations, 1);
    }

    #[test]
    fn snapshot_orders_shape_classes_as_exported_strings() {
        let phase = "ledger_test::order";
        record_call(key(phase, "SGEMM", (16, 8, 8), "STANDARD"), 0.1, None);
        record_call(key(phase, "SGEMM", (128, 8, 8), "STANDARD"), 0.1, None);
        record_call(key(phase, "SGEMM", (2, 8, 8), "STANDARD"), 0.1, None);
        let shapes: Vec<String> = snapshot().into_iter().map(|r| r.shape).collect();
        assert_eq!(shapes, ["128x8x8", "16x8x8", "2x8x8"]);
    }

    #[test]
    fn header_reports_the_level_rows_were_recorded_at_not_the_level_at_export() {
        with_level(TelemetryLevel::Off, || {
            let k = key("ledger_test::header", "CGEMM", (8, 8, 8), "STANDARD");
            with_level(TelemetryLevel::Events, || record_call(k, 0.1, None));
            with_level(TelemetryLevel::Full, || record_call(k, 0.1, None));
            with_level(TelemetryLevel::Events, || record_call(k, 0.1, None));
            // Exported after the override ended, as a guarded harness does.
            let (meta, rows) = parse_ledger(&ledger_json()).expect("parses");
            assert_eq!(rows[0].stats.calls, 3);
            assert_eq!(meta.telemetry_level, "full");
            // With no rows there is nothing recorded to report on.
            clear();
            assert_eq!(current_meta(0).telemetry_level, "off");
        });
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("line1\nline2"), r"line1\nline2");
        // Combined: every special character in one value, in order.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
        // Idempotence is NOT expected: escaping an escaped string
        // escapes the backslashes again.
        assert_eq!(escape_label_value(r"\n"), r"\\n");
    }

    #[test]
    fn json_and_prometheus_render() {
        let k = key("ledger_test::render", "ZGEMM", (32, 32, 32), "BF16X2");
        let cs = k.callsite;
        record_call(k, 0.125, Some(0.1));
        record_abft_check(k, 1e-3);
        let rows = snapshot();
        let parsed = json::parse(&ledger_json()).expect("ledger.json parses");
        assert_eq!(
            parsed.get("version").unwrap().as_f64(),
            Some(LEDGER_SCHEMA_VERSION as f64)
        );
        let meta = parsed.get("meta").expect("meta header");
        assert_eq!(meta.get("rows").unwrap().as_f64(), Some(1.0));
        assert!(meta.get("deck_hash").unwrap().as_str().is_some());
        let entries = parsed.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("callsite").unwrap().as_str(), Some(cs));
        assert_eq!(e.get("calls").unwrap().as_f64(), Some(1.0));
        assert_eq!(e.get("abft_checks").unwrap().as_f64(), Some(1.0));
        let prom = rows_prometheus(&rows);
        assert!(prom.contains("# TYPE dcmesh_ledger_calls_total counter"), "{prom}");
        assert!(
            prom.contains(&format!(
                "dcmesh_ledger_calls_total{{callsite=\"{cs}\",shape=\"32x32x32\",mode=\"BF16X2\"}} 1"
            )),
            "{prom}"
        );
        let table = render_rows(&rows);
        assert!(table.contains("CALLSITE"), "{table}");
        assert!(table.contains(cs), "{table}");
    }

    #[test]
    fn scf_defect_lands_under_supervisor_row() {
        record_scf_defect("STANDARD", 3.5e-13);
        let rows = snapshot();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.callsite.as_str(), r.mode.as_str()), ("supervisor/scf", "STANDARD"));
        assert_eq!(r.stats.residuals.count, 1);
        assert_eq!(r.shape, "-");
    }

    /// Deterministic synthetic rows exercising every stats field,
    /// including awkward f64s (subnormal-adjacent, many digits) and
    /// residual observations in several decades.
    fn synthetic_rows() -> Vec<Row> {
        let mut h = ResidualHist::default();
        h.observe(3.141592653589793e-9);
        h.observe(0.7);
        h.observe(f64::INFINITY);
        let mut rows = vec![
            Row {
                callsite: "md/cgemm".to_string(),
                shape: "128x1024x4096".to_string(),
                mode: "FLOAT_TO_BF16".to_string(),
                stats: Stats {
                    calls: 180,
                    wall_s: 0.123456789012345,
                    device_s: 0.0456,
                    device_samples: 180,
                    escalations: 1,
                    rollbacks: 1,
                    health_violations: 0,
                    nonfinite_outputs: 2,
                    abft_checks: 90,
                    abft_violations: 1,
                    residuals: h,
                },
            },
            Row {
                callsite: "supervisor/scf".to_string(),
                shape: "-".to_string(),
                mode: "STANDARD".to_string(),
                stats: Stats { calls: 0, wall_s: 0.0, ..Stats::default() },
            },
        ];
        rows.sort_by(|a, b| {
            (&a.callsite, &a.shape, &a.mode).cmp(&(&b.callsite, &b.shape, &b.mode))
        });
        rows
    }

    #[test]
    fn v2_document_round_trips_bit_identically() {
        let rows = synthetic_rows();
        let meta = LedgerMeta {
            version: LEDGER_SCHEMA_VERSION,
            deck_hash: "0x00c0ffee00c0ffee".to_string(),
            ranks: 4,
            telemetry_level: "full".to_string(),
            rows: rows.len() as u64,
        };
        let doc = rows_json_with_meta(&meta, &rows);
        let (meta2, rows2) = parse_ledger(&doc).expect("v3 parses");
        assert_eq!(meta2, meta);
        assert_eq!(rows2, rows);
        // f64 fields must round-trip to the exact bit pattern, not just
        // PartialEq (which the struct comparison above already implies
        // for non-NaN values — make the bit claim explicit anyway).
        assert_eq!(
            rows2[0].stats.wall_s.to_bits(),
            rows[0].stats.wall_s.to_bits()
        );
        assert_eq!(
            rows2[0].stats.residuals.max.to_bits(),
            rows[0].stats.residuals.max.to_bits()
        );
        // And the re-render of the parse is byte-identical.
        assert_eq!(rows_json_with_meta(&meta2, &rows2), doc);
    }

    /// A torn or foreign row used to read as a clean one (every missing
    /// number 0), and a non-finite value written as `null` came back 0.
    #[test]
    fn rows_missing_any_field_are_refused_by_name_and_null_reads_back_as_nan() {
        let mut row = synthetic_rows().remove(0);
        row.stats.residuals.max = f64::NAN;
        let text = row_json(&row);
        let back = parse_row(&json::parse(&text).expect("row parses")).expect("row reads");
        assert!(back.stats.residuals.max.is_nan(), "{text}");

        let refused = |doc: json::JsonValue, name: &str| {
            let err = parse_row(&doc).expect_err(name).to_string();
            assert!(err.contains(name), "{name}: {err}");
        };
        let json::JsonValue::Object(members) = json::parse(&text).expect("json") else {
            panic!("a row is an object");
        };
        for key in members.keys() {
            let mut without = members.clone();
            without.remove(key);
            refused(json::JsonValue::Object(without), key);
        }
        let json::JsonValue::Object(res) = &members["residuals"] else {
            panic!("residuals is an object");
        };
        for key in res.keys() {
            let (mut without, mut inner) = (members.clone(), res.clone());
            inner.remove(key);
            without.insert("residuals".into(), json::JsonValue::Object(inner));
            refused(json::JsonValue::Object(without), &format!("residuals.{key}"));
        }
    }

    /// A header that lost a field used to read as deck `"-"` on one rank
    /// at level `"-"`, and be archived under the wrong deck.
    #[test]
    fn headers_missing_any_field_are_refused_by_name() {
        let rows = synthetic_rows();
        let meta = LedgerMeta {
            version: LEDGER_SCHEMA_VERSION,
            deck_hash: "0x00c0ffee00c0ffee".to_string(),
            ranks: 4,
            telemetry_level: "events".to_string(),
            rows: rows.len() as u64,
        };
        let json::JsonValue::Object(doc) = json::parse(&rows_json_with_meta(&meta, &rows))
            .expect("json")
        else {
            panic!("a ledger is an object");
        };
        let json::JsonValue::Object(header) = &doc["meta"] else {
            panic!("meta is an object");
        };
        let refused = |doc: BTreeMap<String, json::JsonValue>, name: &str| {
            let err = parse_ledger(&json::dump(&json::JsonValue::Object(doc))).expect_err(name);
            assert!(err.contains(name), "{name}: {err}");
        };
        assert_eq!(header.len(), 4, "{header:?}");
        for key in header.keys() {
            let (mut without, mut inner) = (doc.clone(), header.clone());
            inner.remove(key);
            without.insert("meta".into(), json::JsonValue::Object(inner));
            refused(without, &format!("meta.{key}"));
        }
        let mut without = doc.clone();
        without.remove("meta");
        refused(without, "meta");
    }

    #[test]
    fn other_schema_versions_are_refused_not_misread() {
        // The headerless v1 and the v2 that carried a span sampling
        // period have no producer left...
        for old in [1, 2] {
            let doc = format!(r#"{{"version": {old}, "entries": []}}"#);
            let err = parse_ledger(&doc).expect_err("an old version is refused");
            assert!(err.contains(&format!("v{old}")) && err.contains("v3"), "{err}");
        }
        // ...and future schemas are unknown.
        assert!(parse_ledger(r#"{"version": 99, "entries": []}"#).is_err());
    }

    /// A document of the current schema with its version spelled `version`.
    fn with_version(version: &str) -> String {
        let doc = rows_json_with_meta(&current_meta(0), &[]);
        let current = format!("\"version\": {LEDGER_SCHEMA_VERSION},");
        assert!(doc.contains(&current), "{doc}");
        doc.replace(&current, &format!("\"version\": {version},"))
    }

    #[test]
    fn a_fractional_version_is_refused_not_truncated() {
        assert!(parse_ledger(&with_version(&LEDGER_SCHEMA_VERSION.to_string())).is_ok());
        let err = parse_ledger(&with_version(&format!("{LEDGER_SCHEMA_VERSION}.5")))
            .expect_err("a fractional version is not a schema version");
        assert!(err.contains("\"version\" is not a count"), "{err}");
    }

    #[test]
    fn residual_bucket_counts_must_be_counts() {
        let mut h = ResidualHist::default();
        h.observe(1e-7);
        let row = Row {
            callsite: "lfd::qd_propagate/cgemm".to_string(),
            shape: "16x16x2048".to_string(),
            mode: "STANDARD".to_string(),
            stats: Stats { calls: 1, residuals: h, ..Stats::default() },
        };
        let text = row_json(&row);
        let bucket = format!("[\"{}\",1]", residual_bucket_label(residual_bucket_index(1e-7)));
        assert!(text.contains(&bucket), "{text}");
        let parse = |t: &str| parse_row(&json::parse(t).unwrap());
        assert_eq!(parse(&text).unwrap().stats.residuals, row.stats.residuals);
        for bad in ["-1", "2.5"] {
            let torn = text.replace(&bucket, &bucket.replace(",1]", &format!(",{bad}]")));
            let err = parse(&torn).expect_err(bad).to_string();
            assert!(err.contains("is not a count"), "{bad}: {err}");
        }
    }

    #[test]
    fn merge_rows_is_order_independent() {
        // Three per-rank row sets with overlapping keys and f64 stats
        // chosen so naive different-order summation WOULD diverge in
        // the last bit if merge_rows didn't canonicalise the fold order.
        let mk = |cs: &str, wall: f64, dev: f64, res: &[f64]| {
            let mut h = ResidualHist::default();
            for &v in res {
                h.observe(v);
            }
            Row {
                callsite: cs.to_string(),
                shape: "128x128x128".to_string(),
                mode: "FLOAT_TO_BF16X2".to_string(),
                stats: Stats {
                    calls: 1,
                    wall_s: wall,
                    device_s: dev,
                    device_samples: 1,
                    residuals: h,
                    ..Stats::default()
                },
            }
        };
        let ranks = [
            vec![mk("a/sgemm", 0.1, 0.3, &[1e-7]), mk("b/cgemm", 1e-9, 1e-9, &[2.5])],
            vec![mk("b/cgemm", 1e9, 0.125, &[f64::NAN]), mk("c/zgemm", 0.7, 0.2, &[])],
            vec![mk("a/sgemm", 3.0, 1e-3, &[1e-13, 1e3])],
        ];
        let reference = merge_rows(&ranks);
        // Every permutation of the three sources must give byte-identical
        // serialized rows (bit-identical f64s included).
        let ref_bytes: Vec<String> = reference.iter().map(row_json).collect();
        let perms: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for p in perms {
            let permuted: Vec<Vec<Row>> = p.iter().map(|&i| ranks[i].clone()).collect();
            let merged = merge_rows(&permuted);
            let bytes: Vec<String> = merged.iter().map(row_json).collect();
            assert_eq!(bytes, ref_bytes, "permutation {p:?} diverged");
            for (a, b) in merged.iter().zip(reference.iter()) {
                assert_eq!(a.stats.wall_s.to_bits(), b.stats.wall_s.to_bits());
                assert_eq!(a.stats.device_s.to_bits(), b.stats.device_s.to_bits());
            }
        }
    }

    #[test]
    fn stats_and_hist_merge_are_commutative() {
        let mut h1 = ResidualHist::default();
        h1.observe(1e-5);
        h1.observe(f64::INFINITY);
        let mut h2 = ResidualHist::default();
        h2.observe(0.25);
        let mut ab = h1.clone();
        ab.merge(&h2);
        let mut ba = h2.clone();
        ba.merge(&h1);
        assert_eq!(ab, ba);
        assert_eq!(ab.max.to_bits(), ba.max.to_bits());

        let s1 = Stats { calls: 3, wall_s: 0.1, device_s: 1e-9, device_samples: 3, ..Stats::default() };
        let s2 = Stats { calls: 5, wall_s: 1e9, device_s: 0.3, device_samples: 5, ..Stats::default() };
        let mut m1 = s1.clone();
        m1.merge(&s2);
        let mut m2 = s2.clone();
        m2.merge(&s1);
        assert_eq!(m1.wall_s.to_bits(), m2.wall_s.to_bits());
        assert_eq!(m1.device_s.to_bits(), m2.device_s.to_bits());
        assert_eq!(m1, m2);
    }

    // Property tests over shape_class boundaries: a pseudo-random dim
    // sweep plus the exact edges. (proptest resolves to the vendored
    // shim offline, so the sweep is a deterministic LCG, same idea.)

    #[test]
    fn shape_class_pow2_fixed_points_and_boundaries() {
        for e in 0..20u32 {
            let p = 1usize << e;
            // An exact power of two is its own bucket...
            assert_eq!(shape_class(p, 1, 1), format!("{p}x1x1").as_str());
            // ...one above rounds up to the next...
            assert_eq!(shape_class(p + 1, 1, 1), format!("{}x1x1", p << 1).as_str());
            // ...and one below (when not itself a power of two) rounds
            // up to p.
            if p > 2 {
                assert_eq!(shape_class(p - 1, 1, 1), format!("{p}x1x1").as_str());
            }
        }
    }

    #[test]
    fn shape_class_zero_dims_do_not_panic() {
        assert_eq!(shape_class(0, 0, 0), "1x1x1");
        assert_eq!(shape_class(0, 17, 0), "1x32x1");
    }

    #[test]
    fn shape_class_labels_round_trip_through_json() {
        let mut lcg = 0x2545f4914f6cdd1du64;
        for _ in 0..200 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let m = (lcg >> 33) as usize % 5000;
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let n = (lcg >> 33) as usize % 5000;
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (lcg >> 33) as usize % 5000;
            let label = shape_class(m, n, k);
            // Each dim in the label is a power of two >= the (nonzero-
            // clamped) input dim, and < 2x it.
            let dims: Vec<usize> =
                label.split('x').map(|d| d.parse().expect("numeric dim")).collect();
            assert_eq!(dims.len(), 3);
            for (d, orig) in dims.iter().zip([m, n, k]) {
                let orig = orig.max(1);
                assert!(d.is_power_of_two(), "{label}");
                assert!(*d >= orig && *d < 2 * orig.next_power_of_two(), "{label}");
            }
            // And the label survives the JSON exporter byte-for-byte.
            let row = Row {
                callsite: "prop/sgemm".to_string(),
                shape: label.clone(),
                mode: "STANDARD".to_string(),
                stats: Stats::default(),
            };
            let parsed = parse_row(&json::parse(&row_json(&row)).expect("row parses"))
                .expect("row round-trips");
            assert_eq!(parsed.shape, label);
        }
    }
}
