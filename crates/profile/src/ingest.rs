//! JSONL trace ingestion: events back into a validated span forest.
//!
//! The telemetry exporter writes one JSON object per line
//! ([`export::jsonl`]): a `telemetry_meta` header (run epoch, rank)
//! followed by `B`/`E` span pairs, `i` instants, and `X` device slices.
//! Every line is read through the exporter's own lenient reader
//! ([`export::read_line`]); ingestion keeps the header and the host span
//! forest. Real dumps are imperfect — the sink ring drops the oldest
//! events under pressure and a crashed run truncates the tail mid-span —
//! so ingestion is **tolerant**:
//!
//! * a line that fails to parse, or whose kind is not `B`/`E`/`i`/`X`,
//!   is counted and skipped (truncated tails);
//! * an `E` with no matching open `B` is counted as an orphan;
//! * an `E` that matches a deeper frame closes the intervening frames at
//!   the same timestamp and marks them truncated (their own `E`s were
//!   dropped);
//! * frames still open at end-of-stream are closed at the last observed
//!   timestamp and marked truncated.
//!
//! Every reconstructed [`Span`] carries its ancestor path (so folding is a
//! string join) and its **self time** (duration minus children), computed
//! incrementally during the stack replay. Spans are recorded at
//! `TELEMETRY=full` only and never sampled, so every span stands for one
//! occurrence.
//!
//! Ingestion is **streaming-first**: [`StreamingIngester`] folds one line
//! at a time in bounded memory (the only retained state is the open-frame
//! stacks plus whatever closed spans the consumer hasn't drained via
//! [`StreamingIngester::take_closed_spans`]), and the batch entry point
//! [`ingest_jsonl`] is a thin wrapper that feeds every line and calls
//! [`StreamingIngester::finish`] — so the batch and streaming paths are
//! bit-identical by construction.

use dcmesh_telemetry::export::{self, Line, Row};
use dcmesh_telemetry::json::JsonValue;
use dcmesh_telemetry::{EventKind, Track};
use std::collections::BTreeMap;

/// Stream metadata from the `telemetry_meta` header line.
#[derive(Clone, Debug, Default)]
pub struct Meta {
    /// Wall-clock UNIX ns of the producer's telemetry epoch (`ts_ns` zero).
    pub run_epoch_unix_ns: u64,
    /// Producing process's rank / divide-and-conquer domain id.
    pub rank: u64,
    /// False when the stream had no `telemetry_meta` line (legacy dump).
    pub present: bool,
}

/// One reconstructed host span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`burst`, `qd_step`, `CGEMM`, ...).
    pub name: String,
    /// Telemetry thread id of the recording thread.
    pub tid: u64,
    /// Begin timestamp (ns since the producer's epoch).
    pub start_ns: u64,
    /// End timestamp.
    pub end_ns: u64,
    /// Ancestor names, root first, excluding this span.
    pub stack: Vec<String>,
    /// Begin and end attributes, merged (end wins on key collision).
    pub attrs: BTreeMap<String, JsonValue>,
    /// Nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// True when the matching `E` was missing (dropped or truncated).
    pub truncated: bool,
    /// Compute mode of the enclosing `burst` span (or of this span, if
    /// it *is* a burst), resolved from the open-frame stack at close
    /// time. Stack-based so streaming consumers never need to retain
    /// closed bursts for time-containment lookups.
    pub burst_mode: Option<String>,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Numeric attribute, if present.
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attrs.get(key).and_then(JsonValue::as_f64)
    }

    /// String attribute, if present.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).and_then(JsonValue::as_str)
    }
}

/// Maximum offending lines identified individually in the skip report;
/// beyond this only the total is kept (a corrupt multi-GB stream must
/// not grow an unbounded report).
pub const MAX_SKIP_REPORT: usize = 8;

/// Location of one malformed input line, for the skip report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipRecord {
    /// 1-based line number in the stream.
    pub line_no: u64,
    /// Byte offset of the line's first byte (assumes LF line endings).
    pub byte_offset: u64,
}

/// A fully ingested trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Stream metadata (default/absent for legacy dumps).
    pub meta: Meta,
    /// Reconstructed host spans, in close order.
    pub spans: Vec<Span>,
    /// Human-readable ingestion warnings (coverage, recovery actions).
    pub warnings: Vec<String>,
    /// Lines that failed to parse as JSON or had an unknown kind.
    pub skipped_lines: u64,
    /// Locations of the first [`MAX_SKIP_REPORT`] malformed lines.
    pub skipped: Vec<SkipRecord>,
    /// `E` events with no open frame to close.
    pub orphan_ends: u64,
    /// Spans closed without their own `E` (dropped events or truncation).
    pub truncated_spans: u64,
}

impl Trace {
    /// Spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// An open frame during stack replay.
struct OpenFrame {
    name: String,
    start_ns: u64,
    attrs: BTreeMap<String, JsonValue>,
    /// Sum of direct children's inclusive durations.
    children_ns: u64,
}

/// Parses a Prometheus text dump and returns the value of `series`
/// (first sample wins), if present.
pub fn prom_value(dump: &str, series: &str) -> Option<f64> {
    dump.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            (name == series || name.starts_with(&format!("{series}{{")))
                .then(|| value.trim().parse::<f64>().ok())
                .flatten()
        })
        .next()
}

/// Ingests a JSONL event dump. Never fails: malformed input degrades into
/// counted warnings rather than errors, because a truncated trace from a
/// crashed run is exactly what one most wants to profile.
///
/// This is the batch convenience over [`StreamingIngester`]: every line
/// is fed through the same incremental machinery, so the result is
/// bit-identical to a chunked streaming run over the same bytes.
pub fn ingest_jsonl(text: &str) -> Trace {
    let mut ing = StreamingIngester::new();
    for line in text.lines() {
        ing.feed_line(line);
    }
    ing.finish()
}

/// Incremental JSONL ingestion in bounded memory.
///
/// Feed one line at a time with [`feed_line`](Self::feed_line); closed
/// spans accumulate in the internal [`Trace`] until drained with
/// [`take_closed_spans`](Self::take_closed_spans). A consumer that
/// drains after every chunk holds only the open-frame stacks — O(max
/// span depth × threads) — no matter how many gigabytes flow through.
/// [`finish`](Self::finish) closes still-open frames as truncated and
/// returns the trace with the end-of-stream warnings attached.
#[derive(Default)]
pub struct StreamingIngester {
    trace: Trace,
    /// Per-tid stacks of open frames.
    stacks: BTreeMap<u64, Vec<OpenFrame>>,
    /// Maximum host-track timestamp observed (close point for truncated
    /// frames at end of stream).
    last_ts: u64,
    /// 1-based number of the next line to be fed.
    next_line_no: u64,
    /// Byte offset of the next line's first byte (LF endings assumed).
    byte_offset: u64,
}

impl StreamingIngester {
    /// A fresh ingester at line 1, byte 0.
    pub fn new() -> Self {
        StreamingIngester::default()
    }

    /// Spans closed so far, draining them from the internal trace.
    pub fn take_closed_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.trace.spans)
    }

    /// Feeds one line (without its trailing newline). Malformed lines
    /// are counted — and the first [`MAX_SKIP_REPORT`] located by line
    /// number and byte offset — never fatal.
    pub fn feed_line(&mut self, line: &str) {
        self.next_line_no += 1;
        let line_no = self.next_line_no;
        let line_start = self.byte_offset;
        self.byte_offset += line.len() as u64 + 1;
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            return;
        }
        let row = match export::read_line(line) {
            Some(Line::Row(row)) => row,
            Some(Line::Meta { run_epoch, rank }) => {
                let rank = rank.unwrap_or(0);
                self.trace.meta = Meta { run_epoch_unix_ns: run_epoch, rank, present: true };
                return;
            }
            None => {
                self.record_skip(line_no, line_start);
                return;
            }
        };
        let Row { name, ts_ns, tid, args: attrs, track, kind, .. } = row;
        if track == Track::Host {
            self.last_ts = self.last_ts.max(ts_ns);
        }

        match kind {
            Some(EventKind::SpanBegin) => self.stacks.entry(tid).or_default().push(OpenFrame {
                name,
                start_ns: ts_ns,
                attrs,
                children_ns: 0,
            }),
            Some(EventKind::SpanEnd) => {
                let stack = self.stacks.entry(tid).or_default();
                match stack.iter().rposition(|f| f.name == name) {
                    None => self.trace.orphan_ends += 1,
                    Some(pos) => {
                        // Frames above `pos` lost their own E events: close
                        // them at this timestamp, innermost first.
                        while stack.len() > pos + 1 {
                            close_frame(&mut self.trace, stack, tid, ts_ns, BTreeMap::new(), true);
                        }
                        close_frame(&mut self.trace, stack, tid, ts_ns, attrs, false);
                    }
                }
            }
            Some(EventKind::Instant | EventKind::Complete { .. }) => {}
            None => self.record_skip(line_no, line_start),
        }
    }

    fn record_skip(&mut self, line_no: u64, byte_offset: u64) {
        self.trace.skipped_lines += 1;
        if self.trace.skipped.len() < MAX_SKIP_REPORT {
            self.trace.skipped.push(SkipRecord { line_no, byte_offset });
        }
    }

    /// Closes still-open frames as truncated, attaches the end-of-stream
    /// warnings, and returns the trace (minus anything already drained).
    pub fn finish(mut self) -> Trace {
        for (&tid, stack) in self.stacks.iter_mut() {
            while !stack.is_empty() {
                close_frame(&mut self.trace, stack, tid, self.last_ts, BTreeMap::new(), true);
            }
        }
        let trace = &mut self.trace;
        if trace.skipped_lines > 0 {
            let mut w = format!(
                "{} malformed line(s) skipped (truncated dump?); first at {}",
                trace.skipped_lines,
                trace
                    .skipped
                    .iter()
                    .map(|s| format!("line {} (byte {})", s.line_no, s.byte_offset))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            if trace.skipped_lines > trace.skipped.len() as u64 {
                w.push_str(", ...");
            }
            trace.warnings.push(w);
        }
        if trace.orphan_ends > 0 {
            trace.warnings.push(format!(
                "{} span end(s) had no matching begin (ring dropped the begins)",
                trace.orphan_ends
            ));
        }
        if trace.truncated_spans > 0 {
            trace.warnings.push(format!(
                "{} span(s) closed without their end event (dropped or truncated)",
                trace.truncated_spans
            ));
        }
        if !trace.meta.present {
            trace.warnings.push(
                "no telemetry_meta header: rank defaults to 0 and clocks cannot be aligned"
                    .to_string(),
            );
        }
        self.trace
    }
}

/// Pops the innermost open frame on `stack` into `trace.spans`.
fn close_frame(
    trace: &mut Trace,
    stack: &mut Vec<OpenFrame>,
    tid: u64,
    end_ns: u64,
    end_attrs: BTreeMap<String, JsonValue>,
    truncated: bool,
) {
    let frame = stack.pop().expect("caller checked non-empty");
    let dur = end_ns.saturating_sub(frame.start_ns);
    if let Some(parent) = stack.last_mut() {
        parent.children_ns = parent.children_ns.saturating_add(dur);
    }
    let mut attrs = frame.attrs;
    attrs.extend(end_attrs);
    if truncated {
        trace.truncated_spans += 1;
    }
    // Resolve the enclosing burst's compute mode from the open-frame
    // stack (innermost burst wins; the span's own mode if it *is* a
    // burst). Doing this at close time keeps the streaming path free of
    // any need to retain closed bursts.
    let burst_mode = if frame.name == "burst" {
        attrs.get("mode").and_then(JsonValue::as_str).map(str::to_string)
    } else {
        stack
            .iter()
            .rev()
            .find(|f| f.name == "burst")
            .and_then(|f| f.attrs.get("mode"))
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    trace.spans.push(Span {
        name: frame.name,
        tid,
        start_ns: frame.start_ns,
        end_ns,
        stack: stack.iter().map(|f| f.name.clone()).collect(),
        attrs,
        self_ns: dur.saturating_sub(frame.children_ns),
        truncated,
        burst_mode,
    });
}

/// Coverage diagnostics combining the ingested stream's own counters with
/// the producer-side drop counters from a `metrics.prom` dump, when one is
/// available next to the trace.
pub fn coverage_warnings(trace: &Trace, metrics_prom: Option<&str>) -> Vec<String> {
    let mut out = trace.warnings.clone();
    if let Some(dump) = metrics_prom {
        for (series, what) in [
            ("telemetry_dropped_events", "sink ring dropped event(s)"),
            ("telemetry_truncated_attrs", "attribute(s) were truncated"),
            ("mkl_verbose_dropped_records", "verbose call record(s) dropped"),
        ] {
            if let Some(v) = prom_value(dump, series) {
                if v > 0.0 {
                    out.push(format!(
                        "producer reported {v} {what} ({series}); totals underestimate the run"
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, kind: &str, name: &str, ts: u64, extra: &str) -> String {
        format!(
            "{{\"seq\":{seq},\"ts_ns\":{ts},\"kind\":\"{kind}\",\"name\":\"{name}\",\
             \"track\":\"host\",\"tid\":0,\"args\":{{{extra}}}}}"
        )
    }

    #[test]
    fn balanced_stream_reconstructs_forest() {
        let text = [
            line(0, "B", "burst", 0, "\"mode\":\"STANDARD\""),
            line(1, "B", "qd_step", 10, ""),
            line(2, "B", "CGEMM", 20, "\"m\":8"),
            line(3, "E", "CGEMM", 30, "\"wall_s\":0.5"),
            line(4, "E", "qd_step", 90, ""),
            line(5, "E", "burst", 100, ""),
        ]
        .join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.spans.len(), 3);
        let gemm = t.spans_named("CGEMM").next().unwrap();
        assert_eq!(gemm.stack, vec!["burst".to_string(), "qd_step".to_string()]);
        assert_eq!(gemm.dur_ns(), 10);
        assert_eq!(gemm.attr_f64("m"), Some(8.0));
        assert_eq!(gemm.attr_f64("wall_s"), Some(0.5), "end attrs merged in");
        let step = t.spans_named("qd_step").next().unwrap();
        assert_eq!(step.self_ns, 80 - 10, "self excludes the CGEMM child");
        let burst = t.spans_named("burst").next().unwrap();
        assert_eq!(burst.self_ns, 100 - 80);
        assert_eq!(t.truncated_spans, 0);
        assert!(t.warnings.iter().any(|w| w.contains("telemetry_meta")), "{:?}", t.warnings);
    }

    #[test]
    fn truncated_tail_closes_open_spans() {
        let text = [
            line(0, "B", "burst", 0, ""),
            line(1, "B", "qd_step", 10, ""),
            "{\"seq\":2,\"ts_ns\":20,\"ki".to_string(), // torn final line
        ]
        .join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.skipped_lines, 1);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.iter().all(|s| s.truncated));
        assert!(t.spans.iter().all(|s| s.end_ns == 10), "closed at last seen ts");
    }

    #[test]
    fn dropped_begin_counts_orphan_end() {
        let text = [line(5, "E", "CGEMM", 50, ""), line(6, "B", "x", 60, ""), line(7, "E", "x", 70, "")]
            .join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.orphan_ends, 1);
        assert_eq!(t.spans.len(), 1);
    }

    #[test]
    fn dropped_end_recovers_via_outer_close() {
        // CGEMM's E was dropped; qd_step's E closes both.
        let text = [
            line(0, "B", "qd_step", 0, ""),
            line(1, "B", "CGEMM", 10, ""),
            line(2, "E", "qd_step", 40, ""),
        ]
        .join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.spans.len(), 2);
        let gemm = t.spans_named("CGEMM").next().unwrap();
        assert!(gemm.truncated);
        assert_eq!(gemm.end_ns, 40);
        let step = t.spans_named("qd_step").next().unwrap();
        assert!(!step.truncated);
        assert_eq!(t.truncated_spans, 1);
    }

    #[test]
    fn meta_line_populates_meta() {
        let meta = "{\"seq\":0,\"ts_ns\":0,\"kind\":\"i\",\"name\":\"telemetry_meta\",\
                    \"track\":\"host\",\"tid\":0,\"args\":{\"run_epoch\":123456,\"rank\":3}}";
        let t = ingest_jsonl(meta);
        assert!(t.meta.present);
        assert_eq!(t.meta.run_epoch_unix_ns, 123_456);
        assert_eq!(t.meta.rank, 3);
        assert!(t.warnings.is_empty());
    }

    #[test]
    fn zero_length_span_is_kept() {
        let text = [line(0, "B", "noop", 5, ""), line(1, "E", "noop", 5, "")].join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].dur_ns(), 0);
        assert_eq!(t.spans[0].self_ns, 0);
    }

    #[test]
    fn extreme_child_timestamps_saturate_the_parents_self_time() {
        let end = |seq: u64, name: &str| {
            line(seq, "E", name, 0, "").replace("\"ts_ns\":0", "\"ts_ns\":1e300")
        };
        let text = [
            line(0, "B", "qd_step", 0, ""),
            line(1, "B", "CGEMM", 0, ""),
            end(2, "CGEMM"),
            line(3, "B", "CGEMM", 0, ""),
            end(4, "CGEMM"),
            end(5, "qd_step"),
        ]
        .join("\n");
        assert!(text.contains("1e300"));
        let t = ingest_jsonl(&text);
        let step = t.spans_named("qd_step").next().unwrap();
        assert_eq!((step.dur_ns(), step.self_ns), (u64::MAX, 0));
    }

    #[test]
    fn skip_report_locates_malformed_lines() {
        let good = line(0, "B", "burst", 0, "");
        let bad1 = "not json at all";
        let good2 = line(1, "E", "burst", 10, "");
        let bad2 = "{torn";
        let text = [good.as_str(), bad1, good2.as_str(), bad2].join("\n");
        let t = ingest_jsonl(&text);
        assert_eq!(t.skipped_lines, 2);
        assert_eq!(
            t.skipped,
            vec![
                SkipRecord { line_no: 2, byte_offset: good.len() as u64 + 1 },
                SkipRecord {
                    line_no: 4,
                    byte_offset: (good.len() + 1 + bad1.len() + 1 + good2.len() + 1) as u64,
                },
            ]
        );
        let w = t.warnings.iter().find(|w| w.contains("malformed")).unwrap();
        assert!(w.contains("line 2 (byte"), "{w}");
        assert!(w.contains("line 4 (byte"), "{w}");
        assert!(!w.contains(", ..."), "all offenders listed: {w}");
    }

    #[test]
    fn skip_report_caps_at_max() {
        let text: Vec<String> = (0..MAX_SKIP_REPORT + 3).map(|i| format!("junk {i}")).collect();
        let t = ingest_jsonl(&text.join("\n"));
        assert_eq!(t.skipped_lines, (MAX_SKIP_REPORT + 3) as u64);
        assert_eq!(t.skipped.len(), MAX_SKIP_REPORT);
        let w = t.warnings.iter().find(|w| w.contains("malformed")).unwrap();
        assert!(w.ends_with(", ..."), "overflow marker present: {w}");
    }

    #[test]
    fn streaming_drains_match_batch() {
        let text = [
            line(0, "B", "burst", 0, "\"mode\":\"BF16X2\""),
            line(1, "B", "CGEMM", 10, "\"m\":8"),
            line(2, "E", "CGEMM", 30, ""),
            line(3, "i", "escalation", 40, ""),
            line(4, "E", "burst", 100, ""),
            line(5, "B", "qd_step", 110, ""), // left open: truncated
        ]
        .join("\n");
        let batch = ingest_jsonl(&text);

        let mut ing = StreamingIngester::new();
        let mut spans = Vec::new();
        for l in text.lines() {
            ing.feed_line(l);
            // Drain after every line — the harshest bounded-memory mode.
            spans.extend(ing.take_closed_spans());
        }
        let tail = ing.finish();
        spans.extend(tail.spans);

        assert_eq!(spans.len(), batch.spans.len());
        for (a, b) in spans.iter().zip(&batch.spans) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.end_ns, b.end_ns);
            assert_eq!(a.self_ns, b.self_ns);
            assert_eq!(a.stack, b.stack);
            assert_eq!(a.truncated, b.truncated);
            assert_eq!(a.burst_mode, b.burst_mode);
        }
        assert_eq!(tail.warnings, batch.warnings);
    }

    #[test]
    fn burst_mode_resolves_from_open_stack() {
        let text = [
            line(0, "B", "burst", 0, "\"mode\":\"BF16X2\""),
            line(1, "B", "qd_step", 5, ""),
            line(2, "B", "qd_propagate", 10, ""),
            line(3, "E", "qd_propagate", 20, ""),
            line(4, "E", "qd_step", 25, ""),
            line(5, "E", "burst", 30, ""),
            line(6, "B", "orphan_phase", 40, ""),
            line(7, "E", "orphan_phase", 50, ""),
        ]
        .join("\n");
        let t = ingest_jsonl(&text);
        let prop = t.spans_named("qd_propagate").next().unwrap();
        assert_eq!(prop.burst_mode.as_deref(), Some("BF16X2"));
        let burst = t.spans_named("burst").next().unwrap();
        assert_eq!(burst.burst_mode.as_deref(), Some("BF16X2"), "a burst carries its own mode");
        let orphan = t.spans_named("orphan_phase").next().unwrap();
        assert_eq!(orphan.burst_mode, None, "no enclosing burst");
    }

    #[test]
    fn prom_value_reads_series() {
        let dump = "# HELP x y\n# TYPE x gauge\ntelemetry_dropped_events 42\nother 7\n";
        assert_eq!(prom_value(dump, "telemetry_dropped_events"), Some(42.0));
        assert_eq!(prom_value(dump, "missing"), None);
        let t = ingest_jsonl("");
        let warns = coverage_warnings(&t, Some(dump));
        assert!(warns.iter().any(|w| w.contains("sink ring dropped")), "{warns:?}");
    }
}
