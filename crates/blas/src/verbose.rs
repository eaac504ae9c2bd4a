//! `MKL_VERBOSE`-style call logging.
//!
//! The paper extracts per-call BLAS timings and matrix dimensions from
//! `MKL_VERBOSE=2` output (Tables VI/VII, Figure 3b). This module provides
//! the equivalent: every level-3 call appends a [`CallRecord`] carrying the
//! routine name, `op` letters, `m/n/k`, the active compute mode, the
//! measured host wall time, and — when a device model is installed — the
//! modelled GPU execution time.
//!
//! Recording is enabled either by `MKL_VERBOSE >= 1` in the environment or
//! programmatically via [`set_recording`]; harnesses use the latter so they
//! work without touching the environment. Printing of per-call lines (the
//! actual `MKL_VERBOSE` behaviour) happens at env level >= 1.
//!
//! The record store is a **bounded ring** owned by the calling thread's
//! [`crate::context`]: each thread records, drains and clears only its own
//! calls, and a new thread starts with recording off and an empty ring. A
//! run that makes millions of calls keeps only the most recent
//! [`RECORD_CAPACITY`] records and counts the rest in
//! [`dropped_records`].
//!
//! Independently of recording, every call at `TELEMETRY=events` or above
//! is folded into its callsite's ledger row — the one record of how many
//! calls ran and what they cost — and at `full` it also becomes a
//! telemetry span (shape/mode attributes on the begin event; wall time,
//! modelled device time, and pool-traffic deltas on the end event) that
//! places it in time. Below `full` no call span is recorded.

use crate::config::verbose_level;
use crate::context;
use crate::device::{Domain, GemmDesc};
use crate::mode::ComputeMode;
use crate::Op;
use dcmesh_telemetry as telemetry;
use dcmesh_telemetry::{ledger, AttrValue};
use std::time::Duration;

/// Record-ring capacity.
pub const RECORD_CAPACITY: usize = 1 << 16; // 65 536 records

/// One logged BLAS call.
#[derive(Clone, Debug)]
pub struct CallRecord {
    /// BLAS routine name (`SGEMM`, `CGEMM`, ...).
    pub routine: &'static str,
    /// `op(A)` letter.
    pub transa: char,
    /// `op(B)` letter.
    pub transb: char,
    /// Rows of C.
    pub m: usize,
    /// Columns of C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Compute mode in effect.
    pub mode: ComputeMode,
    /// Element domain.
    pub domain: Domain,
    /// Host wall time of the (emulated) computation.
    pub wall: Duration,
    /// Modelled device execution time, if a device model is installed.
    pub device_seconds: Option<f64>,
}

impl CallRecord {
    /// Formats the record like an `MKL_VERBOSE` line.
    pub fn to_verbose_line(&self) -> String {
        let dev = match self.device_seconds {
            Some(s) => format!(" dev:{:.3}ms", s * 1e3),
            None => String::new(),
        };
        format!(
            "MKL_VERBOSE {}({},{},{},{},{}) mode:{} {:.3}ms{}",
            self.routine,
            self.transa,
            self.transb,
            self.m,
            self.n,
            self.k,
            self.mode.name(),
            self.wall.as_secs_f64() * 1e3,
            dev
        )
    }
}

/// Enables or disables in-memory call recording on the calling thread.
pub fn set_recording(on: bool) {
    context::with(|cx| cx.recording = on);
}

/// True when calls are being recorded (programmatic or via `MKL_VERBOSE`).
pub fn recording() -> bool {
    context::with(|cx| cx.recording) || verbose_level() >= 1
}

/// Records discarded because the ring was full (oldest-first policy).
pub fn dropped_records() -> u64 {
    context::with(|cx| cx.dropped)
}

/// Appends a record to the calling thread's ring, evicting the oldest
/// records beyond [`RECORD_CAPACITY`].
fn record(rec: CallRecord) {
    if verbose_level() >= 1 {
        eprintln!("{}", rec.to_verbose_line());
    }
    context::with(|cx| cx.push_record(rec));
}

/// Removes and returns the calling thread's recorded calls, oldest first.
pub fn drain() -> Vec<CallRecord> {
    context::with(|cx| cx.ring.drain(..).collect())
}

/// Clears the log and the dropped-records counter.
pub fn clear() {
    context::with(|cx| {
        cx.ring.clear();
        cx.dropped = 0;
    });
}

/// `&'static str` spelling of an op letter, for zero-allocation span
/// attributes.
fn op_str(op: Op) -> &'static str {
    match op.letter() {
        'N' => "N",
        'T' => "T",
        _ => "C",
    }
}

/// Combined pool traffic of the calling thread, for span deltas.
fn pool_traffic() -> (u64, u64) {
    let s = crate::workspace::combined_stats();
    (s.takes, s.misses)
}

/// The observe half of the call pipeline, shared by every level-3 routine
/// through `gemm_call`: times `f` and emits the one [`CallRecord`] from which the ledger row,
/// the telemetry span's end attributes and the ring entry are all written.
///
/// Returns the call's ledger key — resolved here, once, and only when
/// telemetry events are on — so that whatever the caller checks about the
/// output afterwards lands on the same row.
///
/// The disabled path (no recording, `TELEMETRY=off`) is two thread-local
/// reads and a branch — measured by `telemetry_check`'s overhead gate.
pub(crate) fn observe(
    routine: &'static str,
    transa: Op,
    transb: Op,
    desc: GemmDesc,
    f: impl FnOnce(),
) -> Option<ledger::Key> {
    let events = telemetry::events_enabled();
    let recording = recording();
    if !recording && !events {
        f();
        return None;
    }
    let mode_str = desc.mode.name();
    let key = events.then(|| ledger::Key::for_call(routine, desc.m, desc.n, desc.k, mode_str));
    let mut span = telemetry::span(routine);
    let pool_before = if span.armed() {
        span = span
            .attr("transa", AttrValue::Str(op_str(transa)))
            .attr("transb", AttrValue::Str(op_str(transb)))
            .attr("m", AttrValue::U64(desc.m as u64))
            .attr("n", AttrValue::U64(desc.n as u64))
            .attr("k", AttrValue::U64(desc.k as u64))
            .attr("mode", AttrValue::Str(mode_str));
        if let Some(key) = key {
            span = span.attr("callsite", AttrValue::Str(key.callsite));
        }
        span = span.enter();
        Some(pool_traffic())
    } else {
        None
    };
    let start = std::time::Instant::now();
    f();
    let wall = start.elapsed();
    let rec = CallRecord {
        routine,
        transa: transa.letter(),
        transb: transb.letter(),
        m: desc.m,
        n: desc.n,
        k: desc.k,
        mode: desc.mode,
        domain: desc.domain,
        wall,
        device_seconds: crate::device::modelled_gemm_time(&desc),
    };
    if let Some(key) = key {
        ledger::record_call(key, rec.wall.as_secs_f64(), rec.device_seconds);
    }
    if let Some((takes0, misses0)) = pool_before {
        let (takes1, misses1) = pool_traffic();
        span.end_attr("wall_s", AttrValue::F64(rec.wall.as_secs_f64()));
        if let Some(dev) = rec.device_seconds {
            span.end_attr("device_s", AttrValue::F64(dev));
        }
        span.end_attr("pool_takes", AttrValue::U64(takes1.saturating_sub(takes0)));
        span.end_attr("pool_misses", AttrValue::U64(misses1.saturating_sub(misses0)));
    }
    drop(span);
    if recording {
        record(rec);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(routine: &'static str, secs: f64) -> CallRecord {
        CallRecord {
            routine,
            transa: 'N',
            transb: 'N',
            m: 2,
            n: 3,
            k: 4,
            mode: ComputeMode::Standard,
            domain: Domain::Real32,
            wall: Duration::from_secs_f64(secs),
            device_seconds: None,
        }
    }

    #[test]
    fn verbose_line_format() {
        let mut r = rec("CGEMM", 0.001);
        r.mode = ComputeMode::FloatToBf16;
        r.device_seconds = Some(0.0005);
        let line = r.to_verbose_line();
        assert!(line.contains("CGEMM(N,N,2,3,4)"), "{line}");
        assert!(line.contains("FLOAT_TO_BF16"), "{line}");
        assert!(line.contains("dev:0.500ms"), "{line}");
    }

    #[test]
    fn record_ring_bounds_and_counts_drops() {
        for i in 0..RECORD_CAPACITY + 2 {
            record(rec("SGEMM", i as f64));
        }
        assert_eq!(dropped_records(), 2);
        let kept = drain();
        assert_eq!(kept.len(), RECORD_CAPACITY, "ring keeps only the newest records");
        // Oldest-first drain: the survivors are calls 2 onwards.
        assert!((kept[0].wall.as_secs_f64() - 2.0).abs() < 1e-12);
        let last = (RECORD_CAPACITY + 1) as f64;
        assert!((kept[RECORD_CAPACITY - 1].wall.as_secs_f64() - last).abs() < 1e-12);
        clear();
        assert_eq!(dropped_records(), 0);
    }

    #[test]
    fn drain_preserves_insertion_order() {
        record(rec("SGEMM", 1.0));
        record(rec("CGEMM", 2.0));
        let out = drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].routine, "SGEMM");
        assert_eq!(out[1].routine, "CGEMM");
        assert!(drain().is_empty());
    }

    #[test]
    fn another_threads_calls_stay_out_of_this_ring() {
        set_recording(true);
        std::thread::spawn(|| {
            assert_eq!(recording(), verbose_level() >= 1, "the programmatic flag is not inherited");
            record(rec("ZGEMM", 1.0));
        })
        .join()
        .expect("child thread");
        record(rec("SGEMM", 1.0));
        let out = drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].routine, "SGEMM");
    }
}
