//! Exporters: JSONL event log, Chrome trace-event JSON, and the
//! Prometheus text dump re-exported from [`crate::metrics`].
//!
//! The Chrome trace uses two `pid`s so Perfetto / `chrome://tracing`
//! renders the host spans and the simulated `xe-gpu` kernel timeline as
//! separate process tracks: pid 1 is host wall-clock, pid 2 is the
//! simulated device clock. Both are microsecond timestamps as the format
//! requires.

use crate::event::{AttrValue, Event, EventKind, Track};
use crate::json::{self, JsonValue, ParseError};
use crate::sink;

/// Chrome-trace pid for host wall-clock events.
pub const HOST_PID: u64 = 1;
/// Chrome-trace pid for the simulated device timeline.
pub const DEVICE_PID: u64 = 2;

/// Renders every registered metric in Prometheus text format, after
/// refreshing the sink-health gauges (`telemetry_dropped_events`,
/// `telemetry_truncated_attrs`) so a scrape — or the `profile` ingester
/// reading `metrics.prom` — can judge trace coverage without access to
/// the process.
pub fn prometheus_dump() -> String {
    use crate::metrics::gauge;
    gauge("telemetry_dropped_events", "events discarded because the sink ring was full")
        .set(sink::dropped_events() as f64);
    gauge("telemetry_truncated_attrs", "attributes discarded because an event exceeded MAX_ATTRS")
        .set(sink::truncated_attrs() as f64);
    crate::metrics::prometheus_dump()
}

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
/// `telemetry_meta` event carrying `run_epoch` and `rank` —
/// see [`sink::run_meta_event`]) followed by one JSON object per event.
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

/// Serialises events as Chrome trace-event JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper), loadable in Perfetto and
/// `chrome://tracing`. Host events land on pid [`HOST_PID`] with their
/// recording thread's tid; device events land on pid [`DEVICE_PID`].
pub fn chrome_trace(events: &[Event]) -> String {
    let mut rows: Vec<String> = Vec::with_capacity(events.len() + 4);
    rows.push(format!(
        "{{\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"dcmesh host\"}}}}"
    ));
    rows.push(format!(
        "{{\"ph\":\"M\",\"pid\":{DEVICE_PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"xe-gpu simulated device\"}}}}"
    ));
    rows.push(format!(
        "{{\"ph\":\"M\",\"pid\":{DEVICE_PID},\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"L0 queue (modelled)\"}}}}"
    ));
    for ev in events {
        let (pid, tid) = match ev.track {
            Track::Host => (HOST_PID, ev.tid),
            Track::Device => (DEVICE_PID, 0),
        };
        let mut row = format!(
            "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":{}",
            ev.kind.phase(),
            micros(ev.ts_ns),
            json::escape_string(ev.name)
        );
        match ev.kind {
            EventKind::Complete { dur_ns } => {
                row.push_str(&format!(",\"dur\":{}", micros(dur_ns)));
            }
            EventKind::Instant => {
                // Thread-scoped instant marker.
                row.push_str(",\"s\":\"t\"");
            }
            _ => {}
        }
        row.push_str(&format!(",\"cat\":\"{}\"", ev.track.as_str()));
        if !ev.attrs.is_empty() {
            row.push_str(&format!(",\"args\":{}", attrs_json(ev)));
        }
        row.push('}');
        rows.push(row);
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
    fn chrome_trace_is_valid_json_with_both_tracks() {
        let events = vec![
            ev(0, "burst", EventKind::SpanBegin, Track::Host, 0),
            ev(1, "burst", EventKind::SpanEnd, Track::Host, 2_000),
            ev(2, "zgemm_bf16", EventKind::Complete { dur_ns: 500 }, Track::Device, 0),
        ];
        let text = chrome_trace(&events);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 3 metadata + 3 events.
        assert_eq!(rows.len(), 6);
        let pids: Vec<f64> =
            rows.iter().map(|r| r.get("pid").unwrap().as_f64().unwrap()).collect();
        assert!(pids.contains(&(HOST_PID as f64)));
        assert!(pids.contains(&(DEVICE_PID as f64)));
        // The X row carries a dur in microseconds.
        let x = rows.iter().find(|r| r.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn timestamps_render_as_microseconds() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(999), "0.999");
    }
}
