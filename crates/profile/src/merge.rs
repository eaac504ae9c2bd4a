//! Multi-rank trace merging into one Chrome trace-event document.
//!
//! Each rank of a divide-and-conquer run exports its own `events.jsonl`
//! with timestamps measured from its own process epoch. The
//! `telemetry_meta` header stamps that epoch as wall-clock UNIX ns
//! (`run_epoch`), so merging aligns clocks by offsetting every rank's
//! stream by `run_epoch − min(run_epochs)` — rank clocks land on one
//! shared timeline without any cross-process synchronisation at runtime.
//!
//! Each rank maps to a pid pair (`rank*2+1` host, `rank*2+2` device) with
//! `process_name` metadata rows, so Perfetto renders an N-rank run as N
//! labelled process groups.

use dcmesh_telemetry::json::{self, JsonValue};

/// One input stream, parsed.
struct RankStream {
    rank: u64,
    /// Nanosecond offset to add to every timestamp.
    offset_ns: u64,
    /// Non-meta event rows in stream order.
    rows: Vec<JsonValue>,
}

/// Chrome-trace pid of a rank's host track.
pub fn host_pid(rank: u64) -> u64 {
    rank * 2 + 1
}

/// Chrome-trace pid of a rank's device track.
pub fn device_pid(rank: u64) -> u64 {
    rank * 2 + 2
}

fn meta_of(rows: &[JsonValue]) -> (u64, u64) {
    for row in rows {
        if row.get("name").and_then(JsonValue::as_str) == Some("telemetry_meta") {
            let args = row.get("args");
            let epoch = args
                .and_then(|a| a.get("run_epoch"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64;
            let rank =
                args.and_then(|a| a.get("rank")).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
            return (epoch, rank);
        }
    }
    (0, 0)
}

fn micros(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// Merges several ranks' JSONL dumps into one Chrome trace-event JSON
/// document with per-rank pids and epoch-aligned timestamps. Inputs with
/// duplicate or missing rank ids fall back to their index so pids stay
/// unique. Unparseable lines are skipped (same tolerance as ingestion).
pub fn merge_jsonl(inputs: &[&str]) -> String {
    let mut streams: Vec<RankStream> = Vec::with_capacity(inputs.len());
    for (idx, text) in inputs.iter().enumerate() {
        let rows: Vec<JsonValue> =
            text.lines().filter(|l| !l.trim().is_empty()).filter_map(|l| json::parse(l).ok()).collect();
        let (epoch, mut rank) = meta_of(&rows);
        if streams.iter().any(|s| s.rank == rank) {
            rank = idx as u64;
        }
        let rows = rows
            .into_iter()
            .filter(|r| r.get("name").and_then(JsonValue::as_str) != Some("telemetry_meta"))
            .collect();
        streams.push(RankStream { rank, offset_ns: epoch, rows });
    }
    let min_epoch = streams.iter().map(|s| s.offset_ns).min().unwrap_or(0);
    for s in &mut streams {
        s.offset_ns -= min_epoch;
    }

    let mut out_rows: Vec<String> = Vec::new();
    for s in &streams {
        out_rows.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"rank {} host\"}}}}",
            host_pid(s.rank),
            s.rank
        ));
        out_rows.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"rank {} xe-gpu (modelled)\"}}}}",
            device_pid(s.rank),
            s.rank
        ));
    }
    for s in &streams {
        for row in &s.rows {
            let kind = row.get("kind").and_then(JsonValue::as_str).unwrap_or("");
            if !matches!(kind, "B" | "E" | "i" | "X") {
                continue;
            }
            let track = row.get("track").and_then(JsonValue::as_str).unwrap_or("host");
            let (pid, tid) = if track == "device" {
                (device_pid(s.rank), 0)
            } else {
                (
                    host_pid(s.rank),
                    row.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                )
            };
            let ts_ns = row.get("ts_ns").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
                + s.offset_ns;
            let name = row.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            let mut line = format!(
                "{{\"ph\":\"{kind}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":{}",
                micros(ts_ns),
                json::escape_string(name)
            );
            if kind == "X" {
                let dur_ns = row.get("dur_ns").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
                line.push_str(&format!(",\"dur\":{}", micros(dur_ns)));
            }
            if kind == "i" {
                line.push_str(",\"s\":\"t\"");
            }
            line.push_str(&format!(",\"cat\":\"{track}\""));
            if let Some(JsonValue::Object(args)) = row.get("args") {
                if !args.is_empty() {
                    let body: Vec<String> = args
                        .iter()
                        .map(|(k, v)| {
                            let val = match v {
                                JsonValue::String(sv) => json::escape_string(sv),
                                JsonValue::Number(n) => json::number(*n),
                                JsonValue::Bool(b) => b.to_string(),
                                _ => "null".to_string(),
                            };
                            format!("{}:{}", json::escape_string(k), val)
                        })
                        .collect();
                    line.push_str(&format!(",\"args\":{{{}}}", body.join(",")));
                }
            }
            line.push('}');
            out_rows.push(line);
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", out_rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn two_ranks_merge_with_aligned_clocks() {
        // Rank 1 started 5µs after rank 0: its events shift right by 5µs.
        let r0 = stream(0, 1_000_000, "burst", 2_000);
        let r1 = stream(1, 1_005_000, "burst", 2_000);
        let merged = merge_jsonl(&[&r0, &r1]);
        let doc = json::parse(&merged).expect("merged trace is valid JSON");
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();

        let pids: std::collections::BTreeSet<u64> = rows
            .iter()
            .map(|r| r.get("pid").unwrap().as_f64().unwrap() as u64)
            .collect();
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
        let merged = merge_jsonl(&[&r0, &dup]);
        let doc = json::parse(&merged).unwrap();
        let pids: std::collections::BTreeSet<u64> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.get("pid").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert!(pids.contains(&host_pid(0)) && pids.contains(&host_pid(1)));
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
        let merged = merge_jsonl(&[&text]);
        let doc = json::parse(&merged).unwrap();
        let x = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(x.get("pid").unwrap().as_f64(), Some(device_pid(0) as f64));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(x.get("args").unwrap().get("mode").unwrap().as_str(), Some("TF32"));
    }

    #[test]
    fn meta_lines_never_leak_into_output() {
        let r0 = stream(0, 1, "a", 0);
        let merged = merge_jsonl(&[&r0]);
        assert!(!merged.contains("telemetry_meta"));
    }
}
