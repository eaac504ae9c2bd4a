//! End-to-end profile coverage: real telemetry streams produced through
//! the span API, exported to JSONL, and pushed through ingestion,
//! folding, tables, and merging — flame root within 1% of summed burst
//! spans, two-rank merges with skewed clocks — a CLI smoke test, and the
//! lenient stream readers fed every prefix, odd numbers and byte flips
//! of a real stream.

use dcmesh_profile::{flame, fold, ingest, table};
use dcmesh_telemetry as telemetry;
use proptest::prelude::*;
use telemetry::{export, sink, AttrValue, TelemetryLevel};

/// Produces a two-burst workload through the real span API and returns
/// its JSONL dump.
fn produce_jsonl() -> String {
    telemetry::with_level(TelemetryLevel::Full, || {
        for (burst_idx, mode) in [(0u64, "STANDARD"), (1u64, "FLOAT_TO_BF16")] {
            let _burst = telemetry::span("burst")
                .attr("burst_index", AttrValue::U64(burst_idx))
                .attr("mode", AttrValue::Str(mode))
                .enter();
            for _step in 0..3 {
                let _qd = telemetry::span("qd_step").enter();
                {
                    let mut g = telemetry::span("CGEMM")
                        .attr("m", AttrValue::U64(128))
                        .attr("n", AttrValue::U64(896))
                        .attr("k", AttrValue::U64(4096))
                        .attr("mode", AttrValue::Str(mode))
                        .enter();
                    g.end_attr("wall_s", AttrValue::F64(2e-3));
                    g.end_attr(
                        "device_s",
                        AttrValue::F64(if mode == "STANDARD" { 4e-3 } else { 1e-3 }),
                    );
                    std::hint::black_box((0..500).sum::<u64>());
                }
            }
        }
        let events = sink::drain();
        export::jsonl(&events)
    })
}

#[test]
fn flame_root_matches_summed_burst_spans_within_1pct() {
    let jsonl = produce_jsonl();
    let trace = ingest::ingest_jsonl(&jsonl);
    let burst_total: f64 = trace.spans_named("burst").map(|s| s.dur_ns() as f64).sum();
    assert!(burst_total > 0.0);

    let folded = fold::fold(
        &trace,
        &fold::FoldOptions { root: Some("burst".into()), ..Default::default() },
    );
    let tree = flame::build_tree(&folded);
    let rel = (tree.total_ns - burst_total).abs() / burst_total;
    assert!(
        rel < 0.01,
        "flame root {} vs summed bursts {} ({}% off)",
        tree.total_ns,
        burst_total,
        rel * 100.0
    );

    // The SVG really renders that root.
    let svg = flame::render_svg(&tree, "acceptance");
    assert!(svg.contains("burst") && svg.contains("qd_step") && svg.contains("CGEMM"));
}

#[test]
fn table_speedups_from_real_stream() {
    let trace = ingest::ingest_jsonl(&produce_jsonl());
    let rows = table::gemm_table(&trace);
    let bf16 = rows
        .iter()
        .find(|r| r.mode == "FLOAT_TO_BF16")
        .expect("bf16 rows present");
    assert_eq!(bf16.calls, 3);
    // device_s 4e-3 baseline vs 1e-3: exactly 4x on modelled device time.
    assert!((bf16.speedup_vs_fp32.unwrap() - 4.0).abs() < 1e-9, "{bf16:?}");
    let phases = table::phase_table(&trace);
    assert!(phases.iter().all(|p| p.phase != "burst"), "bursts are not phases");
}

#[test]
fn two_rank_merge_aligns_skewed_clocks() {
    // Two synthetic rank dumps whose epochs differ by 2ms; both record a
    // burst starting at local ts 1µs.
    let mk = |rank: u64, epoch: u64| {
        format!(
            "{{\"seq\":0,\"ts_ns\":0,\"kind\":\"i\",\"name\":\"telemetry_meta\",\
             \"track\":\"host\",\"tid\":0,\"args\":{{\"run_epoch\":{epoch},\"rank\":{rank}}}}}\n\
             {{\"seq\":1,\"ts_ns\":1000,\"kind\":\"B\",\"name\":\"burst\",\"track\":\"host\",\
             \"tid\":0,\"args\":{{}}}}\n\
             {{\"seq\":2,\"ts_ns\":51000,\"kind\":\"E\",\"name\":\"burst\",\"track\":\"host\",\
             \"tid\":0,\"args\":{{}}}}"
        )
    };
    let r0 = mk(0, 10_000_000);
    let r1 = mk(1, 12_000_000);
    let merged = export::chrome_trace(&[&r0, &r1]);
    let doc = telemetry::json::parse(&merged).expect("valid Chrome trace JSON");
    let rows = doc.get("traceEvents").unwrap().as_array().unwrap();

    // Two host pids, each with a labelled process_name metadata row.
    for rank in [0u64, 1] {
        let pid = export::host_pid(rank) as f64;
        assert!(
            rows.iter().any(|r| r.get("pid").unwrap().as_f64() == Some(pid)
                && r.get("ph").unwrap().as_str() == Some("M")),
            "missing process_name for rank {rank}"
        );
        let b = rows
            .iter()
            .find(|r| {
                r.get("pid").unwrap().as_f64() == Some(pid)
                    && r.get("ph").unwrap().as_str() == Some("B")
            })
            .unwrap();
        let ts = b.get("ts").unwrap().as_f64().unwrap();
        // Rank 0: 1µs. Rank 1: 1µs local + 2000µs epoch skew.
        let expect = 1.0 + rank as f64 * 2000.0;
        assert_eq!(ts, expect, "rank {rank} begin at {ts}");
    }
}

#[test]
fn truncated_real_stream_still_folds() {
    let jsonl = produce_jsonl();
    // Cut the dump mid-way through: drop the last 40% of lines plus tear
    // the final kept line in half.
    let lines: Vec<&str> = jsonl.lines().collect();
    let keep = lines.len() * 6 / 10;
    let mut torn = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);

    let trace = ingest::ingest_jsonl(&torn);
    assert!(trace.skipped_lines >= 1, "torn line counted");
    assert!(trace.truncated_spans > 0, "open spans closed at the tail");
    assert!(!trace.warnings.is_empty());
    let folded = fold::fold(&trace, &fold::FoldOptions::default());
    assert!(folded.total_ns() > 0.0, "partial trace still yields a flamegraph");
}

#[test]
fn cli_flame_table_and_merge_smoke() {
    let dir = std::env::temp_dir().join(format!("dcmesh_profile_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    std::fs::write(&events, produce_jsonl()).unwrap();

    let bin = env!("CARGO_BIN_EXE_profile");
    let svg = dir.join("flame.svg");
    let out = std::process::Command::new(bin)
        .args([
            "flame",
            events.to_str().unwrap(),
            "--root",
            "burst",
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .expect("run profile flame");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg") && svg_text.contains("CGEMM"));

    let json = dir.join("table.json");
    let out = std::process::Command::new(bin)
        .args(["table", events.to_str().unwrap(), "--json", json.to_str().unwrap()])
        .output()
        .expect("run profile table");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CGEMM") && stdout.contains("speedup"), "{stdout}");
    assert!(std::fs::read_to_string(&json).unwrap().contains("\"routine\":\"CGEMM\""));

    // The producer's losses ride in the stream's header, and the CLI
    // reports them with nothing else to read.
    let lossy = dir.join("lossy.jsonl");
    let text = produce_jsonl();
    assert!(text.contains("\"dropped_events\":0"), "{}", text.lines().next().unwrap());
    std::fs::write(&lossy, text.replacen("\"dropped_events\":0", "\"dropped_events\":5", 1))
        .unwrap();
    let out = std::process::Command::new(bin)
        .args(["table", lossy.to_str().unwrap()])
        .output()
        .expect("run profile table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && stderr.contains("producer reported 5 event(s)"), "{stderr}");

    let merged = dir.join("merged.json");
    let out = std::process::Command::new(bin)
        .args([
            "merge",
            events.to_str().unwrap(),
            events.to_str().unwrap(),
            "--out",
            merged.to_str().unwrap(),
        ])
        .output()
        .expect("run profile merge");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = telemetry::json::parse(&std::fs::read_to_string(&merged).unwrap()).unwrap();
    assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() > 4);

    std::fs::remove_dir_all(&dir).ok();
}

/// A small real stream with every kind of line a run writes: the
/// `telemetry_meta` header, a burst around two sibling CGEMM spans, an
/// instant with a quoted text attribute, and a device slice.
fn every_kind_stream() -> &'static str {
    static STREAM: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    STREAM.get_or_init(|| {
        telemetry::with_level(TelemetryLevel::Full, || {
            {
                let mode = AttrValue::Str("BF16X2");
                let _burst = telemetry::span("burst").attr("mode", mode).enter();
                for _ in 0..2 {
                    let _call = telemetry::span("CGEMM").attr("m", AttrValue::U64(96)).enter();
                }
                let why = AttrValue::Text("a \"quoted\" reason".into());
                telemetry::instant("escalation", vec![telemetry::Attr { key: "why", value: why }]);
            }
            telemetry::device_complete("cgemm_kernel", 0.0, 2.5e-6, vec![]);
            export::jsonl(&sink::drain())
        })
    })
}

/// Byte ranges of the numbers in a JSONL stream: every value that
/// follows a `:` outside a string and starts like a number.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let numeric = |c: u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
    let (mut spans, mut in_string, mut escaped) = (Vec::new(), false, false);
    for (i, &c) in b.iter().enumerate() {
        match c {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b':' if !in_string => {
                let end = (i + 1..b.len()).find(|&j| !numeric(b[j])).unwrap_or(b.len());
                if end > i + 1 {
                    spans.push((i + 1, end));
                }
            }
            _ => {}
        }
    }
    spans
}

/// Feeds `text` to both lenient readers of the event stream: ingestion,
/// and the Chrome writer merging it with the untouched stream. Neither
/// may panic, and the trace must be JSON.
fn read_leniently(text: &str) {
    ingest::ingest_jsonl(text);
    let trace = export::chrome_trace(&[text, every_kind_stream()]);
    assert!(telemetry::json::parse(&trace).is_ok(), "Chrome trace of {text:?} is not JSON");
}

#[test]
fn lenient_readers_survive_every_prefix_and_an_odd_number() {
    let text = every_kind_stream();
    for i in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        read_leniently(&text[..i]);
    }
    let spans = number_spans(text);
    assert!(spans.len() > 30, "{spans:?}");
    for (start, end) in spans {
        for odd in ["1e300", "-1", "3.5"] {
            read_leniently(&format!("{}{odd}{}", &text[..start], &text[end..]));
        }
    }
    // An instant whose args hold 61 nested arrays is one level short of
    // the parser's limit as a line; the Chrome writer nests args two
    // levels deeper than the line does.
    let (open, close) = ("[".repeat(61), "]".repeat(61));
    let deep = format!(
        "{{\"seq\":9,\"ts_ns\":9,\"kind\":\"i\",\"name\":\"deep\",\"track\":\"host\",\
         \"tid\":0,\"args\":{{\"a\":{open}1{close}}}}}"
    );
    assert!(telemetry::json::parse(&deep).is_ok());
    read_leniently(&format!("{text}{deep}\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lenient_readers_survive_a_flipped_byte(at in 0usize..1 << 16, xor in 1u8..=255) {
        let mut bytes = every_kind_stream().as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= xor;
        read_leniently(&String::from_utf8_lossy(&bytes));
    }
}
