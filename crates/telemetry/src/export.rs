//! The event stream's one schema: the JSONL event log (`events.jsonl`),
//! its one lenient line reader, and the Chrome trace-event JSON built
//! from one or more logs.
//!
//! [`jsonl_line`] writes a stream line and [`read_line`] reads one back,
//! so this module is the only place that spells the field names. A log's
//! `telemetry_meta` header carries the producer's loss counts, so a
//! stream is its own record of how complete it is.
//! [`chrome_trace`] reads whole streams through [`read_line`]: one run's
//! `trace.json` is the one-stream case of the multi-rank merge. Each
//! stream (rank) gets a pid pair, so Perfetto / `chrome://tracing`
//! renders its host spans and its simulated `xe-gpu` kernel timeline as
//! separate process tracks: [`host_pid`] is host wall-clock,
//! [`device_pid`] the simulated device clock. Both are microsecond
//! timestamps as the format requires.

use crate::event::{AttrValue, Event, EventKind, Track};
use crate::json::{self, JsonValue, ParseError};
use crate::sink;
use std::collections::{BTreeMap, BTreeSet};

fn attrs_json(ev: &Event) -> String {
    let mut out = String::from("{");
    for (i, a) in ev.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::escape_string(a.key));
        out.push(':');
        match &a.value {
            AttrValue::U64(v) => out.push_str(&v.to_string()),
            AttrValue::F64(v) => out.push_str(&json::number(*v)),
            AttrValue::Str(s) => out.push_str(&json::escape_string(s)),
            AttrValue::Text(s) => out.push_str(&json::escape_string(s)),
        }
    }
    out.push('}');
    out
}

fn micros(ts_ns: u64) -> String {
    // Microseconds with nanosecond precision kept in the fraction.
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// One event as a single-line JSON object (the JSONL schema).
///
/// Fields: `seq`, `ts_ns` (u64), `kind` (`B|E|i|X`), `name`, `track`
/// (`host|device`), `tid`, `args` (object), and `dur_ns` for `X` events.
pub fn jsonl_line(ev: &Event) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(&format!(
        "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"name\":{},\"track\":\"{}\",\"tid\":{}",
        ev.seq,
        ev.ts_ns,
        ev.kind.phase(),
        json::escape_string(ev.name),
        ev.track.as_str(),
        ev.tid
    ));
    if let EventKind::Complete { dur_ns } = ev.kind {
        out.push_str(&format!(",\"dur_ns\":{dur_ns}"));
    }
    out.push_str(&format!(",\"args\":{}}}", attrs_json(ev)));
    out
}

/// Serialises events as JSONL: one stream-metadata line (the
/// `telemetry_meta` event carrying `run_epoch`, `rank`, `dropped_events`
/// and `truncated_attrs` — see [`sink::run_meta_event`]) followed by one
/// JSON object per event.
/// The metadata line has the same schema as every other line, so
/// consumers that don't care about it parse it like any instant event.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str(&jsonl_line(&sink::run_meta_event()));
    out.push('\n');
    out.push_str(&jsonl_body(events));
    out
}

/// The JSONL body alone — no `telemetry_meta` header. For appending
/// incremental batches to a stream whose header was already written
/// (the shard worker's per-burst flush), so a rank that dies mid-run
/// leaves a well-formed stream up to its last committed burst.
pub fn jsonl_body(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&jsonl_line(ev));
        out.push('\n');
    }
    out
}

/// Writes `content` to `path` through a sibling temp file and a rename,
/// so a concurrent reader (a Prometheus scraper, `profile watch`, the
/// shard coordinator) sees the old document or the new one, never a
/// torn one.
pub fn write_atomic(path: &std::path::Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".wtmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Parses a JSONL document back into one [`JsonValue`] per line
/// (skipping blank lines). The inverse of [`jsonl`] up to JSON value
/// equality — used by the round-trip tests and `telemetry_check`.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, ParseError> {
    input.lines().filter(|l| !l.trim().is_empty()).map(json::parse).collect()
}

/// One line of an event stream, as [`read_line`] reads it.
#[derive(Clone, Debug)]
pub enum Line {
    /// The `telemetry_meta` header.
    Meta {
        /// Wall-clock UNIX ns of the producer's telemetry epoch.
        run_epoch: u64,
        /// The producer's rank; `None` when absent or not a count.
        rank: Option<u64>,
        /// Events the producer's full ring dropped; 0 when absent or not
        /// a count.
        dropped_events: u64,
        /// Attributes the producer cut beyond `MAX_ATTRS`; 0 when absent
        /// or not a count.
        truncated_attrs: u64,
    },
    /// Any other event.
    Row(Row),
}

/// One event line of a stream. The reader is lenient: a missing or
/// mistyped number reads as 0 and a fractional or out-of-range one
/// saturates (`-1 → 0`, `3.5 → 3`, `1e300 → u64::MAX`), a missing name
/// as `""`, missing args as empty, and any track but `device` as host.
#[derive(Clone, Debug)]
pub struct Row {
    /// Sequence number.
    pub seq: u64,
    /// Timestamp (ns since the producer's epoch, or simulated-clock zero
    /// on the device track).
    pub ts_ns: u64,
    /// `B`, `E`, `i` or `X` (with its `dur_ns`); `None` for any other
    /// kind, which no reader uses.
    pub kind: Option<EventKind>,
    /// Event name.
    pub name: String,
    /// Timeline.
    pub track: Track,
    /// Recording thread.
    pub tid: u64,
    /// Attributes.
    pub args: BTreeMap<String, JsonValue>,
}

/// Nesting depth of a JSON value: 0 for a scalar, one more than its
/// deepest member for an array or object.
fn depth(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        JsonValue::Object(members) => 1 + members.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// Reads one stream line; `None` when it is not a JSON object (a torn
/// or blank line). Never panics, whatever the line holds. An `args`
/// object that takes the line deeper than `json::MAX_DEPTH − 2` levels
/// reads as empty: [`chrome_trace`] writes `args` two levels deeper than
/// the line does, and its document must stay parseable.
pub fn read_line(line: &str) -> Option<Line> {
    let Ok(JsonValue::Object(mut m)) = json::parse(line) else { return None };
    let number = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).map_or(0, |n| n as u64);
    // The line is one level and `args` a second; its members add theirs.
    let args = match m.remove("args") {
        Some(JsonValue::Object(args))
            if 2 + args.values().map(depth).max().unwrap_or(0) <= json::MAX_DEPTH - 2 =>
        {
            args
        }
        _ => BTreeMap::new(),
    };
    let name = match m.remove("name") {
        Some(JsonValue::String(name)) => name,
        _ => String::new(),
    };
    if name == "telemetry_meta" {
        let count = |key| args.get(key).and_then(|v| json::as_count(v, key).ok());
        return Some(Line::Meta {
            run_epoch: number(args.get("run_epoch")),
            rank: count("rank"),
            dropped_events: count("dropped_events").unwrap_or(0),
            truncated_attrs: count("truncated_attrs").unwrap_or(0),
        });
    }
    let kind = match m.get("kind").and_then(JsonValue::as_str) {
        Some("B") => Some(EventKind::SpanBegin),
        Some("E") => Some(EventKind::SpanEnd),
        Some("i") => Some(EventKind::Instant),
        Some("X") => Some(EventKind::Complete { dur_ns: number(m.get("dur_ns")) }),
        _ => None,
    };
    let track = match m.get("track").and_then(JsonValue::as_str) {
        Some("device") => Track::Device,
        _ => Track::Host,
    };
    Some(Line::Row(Row {
        seq: number(m.get("seq")),
        ts_ns: number(m.get("ts_ns")),
        kind,
        name,
        track,
        tid: number(m.get("tid")),
        args,
    }))
}

/// Chrome-trace pid of a rank's host track.
pub fn host_pid(rank: u64) -> u64 {
    rank * 2 + 1
}

/// Chrome-trace pid of a rank's device track.
pub fn device_pid(rank: u64) -> u64 {
    rank * 2 + 2
}

/// The first `telemetry_meta` header of a stream, as (epoch, rank).
fn stream_meta(text: &str) -> (u64, Option<u64>) {
    text.lines()
        .find_map(|l| match read_line(l) {
            Some(Line::Meta { run_epoch, rank, .. }) => Some((run_epoch, rank)),
            _ => None,
        })
        .unwrap_or((0, None))
}

/// Writes one or more event streams as one Chrome trace-event JSON
/// document (the "JSON Array Format" with a `traceEvents` wrapper),
/// loadable in Perfetto and `chrome://tracing`.
///
/// Each stream is one rank: its host events land on [`host_pid`] with
/// their recording thread's tid, its device events on [`device_pid`],
/// each pid labelled by a `process_name` row. The rank is the stream's
/// `telemetry_meta` rank; a stream whose rank is missing or already
/// claimed by an earlier stream takes the smallest rank no stream claims,
/// so every stream keeps its own pids. Clocks are aligned by shifting each
/// stream by its `run_epoch` minus the earliest one — no cross-process
/// synchronisation at run time. Lines that do not parse and rows of an
/// unknown kind are left out.
pub fn chrome_trace(streams: &[&str]) -> String {
    let metas: Vec<(u64, Option<u64>)> = streams.iter().map(|s| stream_meta(s)).collect();
    let min_epoch = metas.iter().map(|&(epoch, _)| epoch).min().unwrap_or(0);
    let mut claimed = BTreeSet::new();
    let ranks: Vec<Option<u64>> =
        metas.iter().map(|&(_, rank)| rank.filter(|&r| claimed.insert(r))).collect();
    let mut unclaimed = (0u64..).filter(|r| !claimed.contains(r));
    let ranks: Vec<u64> = ranks
        .into_iter()
        .map(|r| r.or_else(|| unclaimed.next()).expect("more ranks than streams"))
        .collect();

    let mut rows: Vec<String> = Vec::new();
    for &rank in &ranks {
        for (pid, track) in [(host_pid(rank), "host"), (device_pid(rank), "xe-gpu (modelled)")] {
            rows.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"rank {rank} {track}\"}}}}"
            ));
        }
    }
    for ((text, &(epoch, _)), &rank) in streams.iter().zip(&metas).zip(&ranks) {
        let offset_ns = epoch - min_epoch;
        for line in text.lines() {
            let Some(Line::Row(row)) = read_line(line) else { continue };
            let Some(kind) = row.kind else { continue };
            let (pid, tid) = match row.track {
                Track::Host => (host_pid(rank), row.tid),
                Track::Device => (device_pid(rank), 0),
            };
            let mut out = format!(
                "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":{}",
                kind.phase(),
                micros(row.ts_ns.saturating_add(offset_ns)),
                json::escape_string(&row.name)
            );
            if let EventKind::Complete { dur_ns } = kind {
                out.push_str(&format!(",\"dur\":{}", micros(dur_ns)));
            } else if kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\""); // a thread-scoped instant
            }
            out.push_str(&format!(",\"cat\":\"{}\"", row.track.as_str()));
            if !row.args.is_empty() {
                out.push_str(&format!(",\"args\":{}", json::dump(&JsonValue::Object(row.args))));
            }
            out.push('}');
            rows.push(out);
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attr;

    fn ev(seq: u64, name: &'static str, kind: EventKind, track: Track, ts_ns: u64) -> Event {
        Event {
            seq,
            ts_ns,
            name,
            kind,
            track,
            tid: 3,
            attrs: vec![
                Attr { key: "m", value: AttrValue::U64(128) },
                Attr { key: "mode", value: AttrValue::Str("FLOAT_TO_BF16") },
                Attr { key: "secs", value: AttrValue::F64(0.25) },
            ],
        }
    }

    #[test]
    fn jsonl_parses_back_field_for_field() {
        let events = vec![
            ev(0, "SGEMM", EventKind::SpanBegin, Track::Host, 1_234),
            ev(1, "SGEMM", EventKind::SpanEnd, Track::Host, 9_999),
            ev(2, "kernel", EventKind::Complete { dur_ns: 777 }, Track::Device, 10),
        ];
        let text = jsonl(&events);
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), 4, "meta line + 3 events");
        let meta = &parsed[0];
        assert_eq!(meta.get("name").unwrap().as_str(), Some("telemetry_meta"));
        assert!(meta.get("args").unwrap().get("run_epoch").unwrap().as_f64().unwrap() > 0.0);
        assert!(meta.get("args").unwrap().get("rank").is_some());
        for (p, e) in parsed[1..].iter().zip(&events) {
            assert_eq!(p.get("seq").unwrap().as_f64(), Some(e.seq as f64));
            assert_eq!(p.get("ts_ns").unwrap().as_f64(), Some(e.ts_ns as f64));
            assert_eq!(p.get("name").unwrap().as_str(), Some(e.name));
            assert_eq!(p.get("track").unwrap().as_str(), Some(e.track.as_str()));
            assert_eq!(
                p.get("kind").unwrap().as_str(),
                Some(e.kind.phase().to_string().as_str())
            );
            let args = p.get("args").unwrap();
            assert_eq!(args.get("m").unwrap().as_f64(), Some(128.0));
            assert_eq!(args.get("mode").unwrap().as_str(), Some("FLOAT_TO_BF16"));
            assert_eq!(args.get("secs").unwrap().as_f64(), Some(0.25));
        }
        assert_eq!(parsed[3].get("dur_ns").unwrap().as_f64(), Some(777.0));
    }

    #[test]
    fn read_line_reads_back_what_jsonl_line_wrote() {
        let events = vec![
            ev(7, "SGEMM", EventKind::SpanBegin, Track::Host, 1_234),
            ev(8, "kernel", EventKind::Complete { dur_ns: 777 }, Track::Device, 10),
        ];
        for e in &events {
            let Some(Line::Row(row)) = read_line(&jsonl_line(e)) else { panic!("{e:?}") };
            assert_eq!((row.seq, row.ts_ns, row.tid), (e.seq, e.ts_ns, e.tid));
            assert_eq!((row.kind, row.name.as_str(), row.track), (Some(e.kind), e.name, e.track));
            assert_eq!(row.args.get("mode").and_then(JsonValue::as_str), Some("FLOAT_TO_BF16"));
        }
        let header = jsonl(&[]);
        let Some(Line::Meta { run_epoch, rank, .. }) = read_line(header.trim_end()) else {
            panic!("{header}")
        };
        assert!(run_epoch > 0 && rank.is_some());
    }

    #[test]
    fn read_line_is_lenient() {
        assert!(read_line("{\"seq\":1,\"ts_ns\":2,\"ki").is_none(), "torn");
        assert!(read_line("[1,2]").is_none(), "not an object");
        let Some(Line::Row(row)) = read_line("{\"kind\":\"Q\",\"ts_ns\":-1,\"tid\":3.5}") else {
            panic!("an object is a row")
        };
        assert_eq!((row.kind, row.ts_ns, row.tid, row.name.as_str()), (None, 0, 3, ""));
        assert_eq!(row.track, Track::Host);
        let meta = "{\"name\":\"telemetry_meta\",\"args\":{\"run_epoch\":5,\"rank\":2.5}}";
        assert!(matches!(
            read_line(meta),
            Some(Line::Meta { run_epoch: 5, rank: None, dropped_events: 0, truncated_attrs: 0 })
        ));
        let odd = "{\"name\":\"telemetry_meta\",\"args\":{\"dropped_events\":-1,\
                   \"truncated_attrs\":\"7\"}}";
        assert!(matches!(
            read_line(odd),
            Some(Line::Meta { dropped_events: 0, truncated_attrs: 0, .. })
        ));
    }

    /// The header's two loss counts, as `read_line` reads them back.
    fn header_counts(stream: &str) -> (u64, u64) {
        match stream.lines().next().and_then(read_line) {
            Some(Line::Meta { dropped_events, truncated_attrs, .. }) => {
                (dropped_events, truncated_attrs)
            }
            other => panic!("no header: {other:?}"),
        }
    }

    #[test]
    fn the_header_carries_what_the_recorder_lost() {
        assert_eq!(header_counts(&jsonl(&[])), (0, 0), "a clean run");
        for _ in 0..sink::CAPACITY + 2 {
            sink::publish("overflow", EventKind::Instant, Track::Host, 0, vec![]);
        }
        let wide = (0..crate::event::MAX_ATTRS + 3)
            .map(|i| Attr { key: "k", value: AttrValue::U64(i as u64) })
            .collect();
        sink::publish("wide", EventKind::Instant, Track::Host, 0, wide);
        let events = sink::drain();
        let stream = jsonl(&events[events.len() - 2..]);
        assert_eq!(header_counts(&stream), (3, 3));
        sink::clear();
        assert_eq!(header_counts(&jsonl(&[])), (0, 0), "clear resets both counts");
    }

    /// An instant line whose `args` holds `arrays` nested arrays.
    fn nested_args_line(arrays: usize) -> String {
        format!(
            "{{\"seq\":1,\"ts_ns\":0,\"kind\":\"i\",\"name\":\"deep\",\"track\":\"host\",\
             \"tid\":0,\"args\":{{\"a\":{}1{}}}}}",
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    }

    #[test]
    fn args_too_deep_for_the_chrome_trace_read_as_empty() {
        for (arrays, kept) in [(60, true), (61, false)] {
            let line = nested_args_line(arrays);
            assert!(json::parse(&line).is_ok(), "{arrays} arrays parse as a line");
            let Some(Line::Row(row)) = read_line(&line) else { panic!("{line}") };
            assert_eq!(row.args.contains_key("a"), kept, "{arrays} arrays");
            let doc = json::parse(&chrome_trace(&[&line])).expect("the trace parses");
            let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
            let deep = rows.iter().find(|r| r.get("name").unwrap().as_str() == Some("deep"));
            assert_eq!(deep.unwrap().get("args").is_some(), kept);
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_tracks() {
        let events = vec![
            ev(0, "burst", EventKind::SpanBegin, Track::Host, 0),
            ev(1, "burst", EventKind::SpanEnd, Track::Host, 2_000),
            ev(2, "zgemm_bf16", EventKind::Complete { dur_ns: 500 }, Track::Device, 0),
        ];
        let text = chrome_trace(&[&jsonl(&events)]);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + 3 events.
        assert_eq!(rows.len(), 5);
        let pids: Vec<f64> =
            rows.iter().map(|r| r.get("pid").unwrap().as_f64().unwrap()).collect();
        assert!(pids.contains(&(host_pid(0) as f64)));
        assert!(pids.contains(&(device_pid(0) as f64)));
        // The X row carries a dur in microseconds.
        let x = rows.iter().find(|r| r.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn timestamps_render_as_microseconds() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(999), "0.999");
    }

    fn stream(rank: u64, epoch: u64, name: &str, ts: u64) -> String {
        [
            format!(
                "{{\"seq\":0,\"ts_ns\":0,\"kind\":\"i\",\"name\":\"telemetry_meta\",\
                 \"track\":\"host\",\"tid\":0,\"args\":{{\"run_epoch\":{epoch},\
                 \"rank\":{rank}}}}}"
            ),
            format!(
                "{{\"seq\":1,\"ts_ns\":{ts},\"kind\":\"B\",\"name\":\"{name}\",\
                 \"track\":\"host\",\"tid\":0,\"args\":{{}}}}"
            ),
            format!(
                "{{\"seq\":2,\"ts_ns\":{},\"kind\":\"E\",\"name\":\"{name}\",\
                 \"track\":\"host\",\"tid\":0,\"args\":{{}}}}",
                ts + 1_000
            ),
        ]
        .join("\n")
    }

    fn trace_rows(streams: &[&str]) -> Vec<JsonValue> {
        let doc = json::parse(&chrome_trace(streams)).expect("a Chrome trace is valid JSON");
        doc.get("traceEvents").unwrap().as_array().unwrap().to_vec()
    }

    fn pids(rows: &[JsonValue], ph: &str) -> Vec<u64> {
        rows.iter()
            .filter(|r| r.get("ph").unwrap().as_str() == Some(ph))
            .map(|r| r.get("pid").unwrap().as_f64().unwrap() as u64)
            .collect()
    }

    #[test]
    fn two_ranks_merge_with_aligned_clocks() {
        // Rank 1 started 5µs after rank 0: its events shift right by 5µs.
        let r0 = stream(0, 1_000_000, "burst", 2_000);
        let r1 = stream(1, 1_005_000, "burst", 2_000);
        let rows = trace_rows(&[&r0, &r1]);

        let pids: BTreeSet<u64> =
            rows.iter().map(|r| r.get("pid").unwrap().as_f64().unwrap() as u64).collect();
        assert!(pids.contains(&host_pid(0)) && pids.contains(&host_pid(1)), "{pids:?}");

        let begin_ts = |pid: u64| {
            rows.iter()
                .find(|r| {
                    r.get("pid").unwrap().as_f64() == Some(pid as f64)
                        && r.get("ph").unwrap().as_str() == Some("B")
                })
                .unwrap()
                .get("ts")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(begin_ts(host_pid(0)), 2.0, "earliest rank keeps its own clock");
        assert_eq!(begin_ts(host_pid(1)), 7.0, "5µs skew applied to the later rank");
    }

    #[test]
    fn duplicate_ranks_fall_back_to_index() {
        let r0 = stream(0, 100, "a", 0);
        let dup = stream(0, 100, "b", 0);
        let pids: BTreeSet<u64> = pids(&trace_rows(&[&r0, &dup]), "B").into_iter().collect();
        assert!(pids.contains(&host_pid(0)) && pids.contains(&host_pid(1)));
    }

    #[test]
    fn a_rank_claimed_twice_gives_the_second_stream_its_own_pids() {
        let streams = [stream(1, 100, "a", 0), stream(1, 100, "b", 0)];
        let rows = trace_rows(&[&streams[0], &streams[1]]);
        assert_eq!(pids(&rows, "B"), vec![host_pid(1), host_pid(0)]);
        assert_eq!(pids(&rows, "M"), vec![host_pid(1), device_pid(1), host_pid(0), device_pid(0)]);
    }

    #[test]
    fn a_duplicate_rank_never_takes_a_rank_a_later_stream_claims() {
        let streams = [stream(0, 100, "a", 0), stream(0, 100, "b", 0), stream(1, 100, "c", 0)];
        let rows = trace_rows(&[&streams[0], &streams[1], &streams[2]]);
        assert_eq!(pids(&rows, "B"), vec![host_pid(0), host_pid(2), host_pid(1)]);
        let labels: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("args").and_then(|a| a.get("name")).and_then(JsonValue::as_str))
            .filter(|l| l.ends_with(" host"))
            .collect();
        assert_eq!(labels, ["rank 0 host", "rank 2 host", "rank 1 host"]);
    }

    #[test]
    fn device_rows_keep_their_duration() {
        let text = [
            "{\"seq\":0,\"ts_ns\":0,\"kind\":\"i\",\"name\":\"telemetry_meta\",\"track\":\"host\",\
             \"tid\":0,\"args\":{\"run_epoch\":1,\"rank\":0}}",
            "{\"seq\":1,\"ts_ns\":500,\"kind\":\"X\",\"name\":\"zgemm_kernel\",\
             \"track\":\"device\",\"tid\":0,\"dur_ns\":2500,\"args\":{\"mode\":\"TF32\"}}",
        ]
        .join("\n");
        let rows = trace_rows(&[&text]);
        let x = rows.iter().find(|r| r.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("pid").unwrap().as_f64(), Some(device_pid(0) as f64));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(x.get("args").unwrap().get("mode").unwrap().as_str(), Some("TF32"));
    }

    #[test]
    fn meta_lines_never_leak_into_output() {
        let r0 = stream(0, 1, "a", 0);
        assert!(!chrome_trace(&[&r0]).contains("telemetry_meta"));
    }

    #[test]
    fn an_extreme_timestamp_on_a_later_rank_saturates() {
        let r0 = stream(0, 1_000, "a", 0);
        let begin = "\"ts_ns\":0,\"kind\":\"B";
        let r1 = stream(1, 2_000, "b", 0).replacen(begin, "\"ts_ns\":1e300,\"kind\":\"B", 1);
        assert!(r1.contains("1e300"));
        let rows = trace_rows(&[&r0, &r1]);
        let late = rows.iter().find(|r| r.get("name").unwrap().as_str() == Some("b")).unwrap();
        assert_eq!(late.get("ts").unwrap().as_f64(), Some(u64::MAX as f64 / 1e3));
    }
}
