//! End-to-end exporter coverage: events produced through the real span
//! API must export to Chrome trace-event JSON that parses as valid JSON
//! with correctly nested `B`/`E` pairs and monotonically ordered
//! per-thread timestamps, and to JSONL that parses back line-for-line.

use dcmesh_telemetry as telemetry;
use telemetry::json::JsonValue;
use telemetry::{export, sink, AttrValue, Event, TelemetryLevel};

/// Runs a little three-level instrumented workload and returns its
/// events: burst → qd_step → 2 BLAS spans, plus an escalation instant
/// and two device kernels.
fn produce_events() -> Vec<Event> {
    telemetry::with_level(TelemetryLevel::Full, || {
        {
            let _burst = telemetry::span("burst")
                .attr("burst_index", AttrValue::U64(0))
                .attr("mode", AttrValue::Str("FLOAT_TO_BF16"))
                .enter();
            {
                let _step = telemetry::span("qd_step").enter();
                for routine in ["ZGEMM", "ZGEMM"] {
                    let _call = telemetry::span(routine)
                        .attr("m", AttrValue::U64(128))
                        .attr("n", AttrValue::U64(896))
                        .attr("k", AttrValue::U64(4096))
                        .enter();
                }
            }
            telemetry::instant(
                "escalation",
                vec![telemetry::Attr {
                    key: "from",
                    value: AttrValue::Str("FLOAT_TO_BF16"),
                }],
            );
        }
        telemetry::device_complete("zgemm_kernel", 0.0, 1.5e-3, vec![]);
        telemetry::device_complete("stencil", 1.5e-3, 2.0e-3, vec![]);
        sink::drain()
    })
}

/// Validates B/E nesting per (pid, tid): every E must match the name of
/// the most recent unclosed B, and all stacks must end empty.
fn check_nesting(rows: &[&JsonValue]) {
    use std::collections::HashMap;
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    for row in rows {
        let ph = row.get("ph").unwrap().as_str().unwrap();
        let key = (
            row.get("pid").unwrap().as_f64().unwrap() as u64,
            row.get("tid").unwrap().as_f64().unwrap() as u64,
        );
        let name = row.get("name").unwrap().as_str().unwrap().to_string();
        match ph {
            "B" => stacks.entry(key).or_default().push(name),
            "E" => {
                let top = stacks.get_mut(&key).and_then(Vec::pop);
                assert_eq!(top.as_deref(), Some(name.as_str()), "unbalanced E for {name}");
            }
            _ => {}
        }
    }
    for (key, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on {key:?}");
    }
}

#[test]
fn chrome_trace_parses_nests_and_orders() {
    let events = produce_events();
    let text = export::chrome_trace(&events);

    let doc = telemetry::json::parse(&text).expect("chrome trace must be valid JSON");
    let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
    let non_meta: Vec<&JsonValue> =
        rows.iter().filter(|r| r.get("ph").unwrap().as_str() != Some("M")).collect();

    // B/E nesting: burst ⊃ qd_step ⊃ ZGEMM, all balanced.
    check_nesting(&non_meta);

    // Monotonic timestamps per (pid, tid) in file order.
    use std::collections::HashMap;
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    for row in &non_meta {
        let key = (
            row.get("pid").unwrap().as_f64().unwrap() as u64,
            row.get("tid").unwrap().as_f64().unwrap() as u64,
        );
        let ts = row.get("ts").unwrap().as_f64().unwrap();
        if let Some(prev) = last_ts.insert(key, ts) {
            assert!(ts >= prev, "timestamps regressed: {prev} -> {ts}");
        }
    }

    // Both tracks are present: host spans and the simulated kernel
    // timeline as a separate pid.
    let host = non_meta
        .iter()
        .filter(|r| r.get("pid").unwrap().as_f64() == Some(export::HOST_PID as f64))
        .count();
    let device: Vec<&&JsonValue> = non_meta
        .iter()
        .filter(|r| r.get("pid").unwrap().as_f64() == Some(export::DEVICE_PID as f64))
        .collect();
    assert!(host >= 9, "expected the burst/step/BLAS span pairs, got {host}");
    assert_eq!(device.len(), 2, "expected two device kernels");
    for d in &device {
        assert_eq!(d.get("ph").unwrap().as_str(), Some("X"));
        assert!(d.get("dur").unwrap().as_f64().unwrap() > 0.0);
    }

    // BLAS span attributes survive into args.
    let zgemm_b = non_meta
        .iter()
        .find(|r| {
            r.get("name").unwrap().as_str() == Some("ZGEMM")
                && r.get("ph").unwrap().as_str() == Some("B")
        })
        .expect("a ZGEMM begin event");
    let args = zgemm_b.get("args").unwrap();
    assert_eq!(args.get("m").unwrap().as_f64(), Some(128.0));
    assert_eq!(args.get("k").unwrap().as_f64(), Some(4096.0));
}

#[test]
fn jsonl_round_trips() {
    let events = produce_events();
    let text = export::jsonl(&events);
    let parsed = export::parse_jsonl(&text).expect("every JSONL line parses");
    assert_eq!(parsed.len(), events.len() + 1, "meta line + one line per event");
    let meta = &parsed[0];
    assert_eq!(meta.get("name").unwrap().as_str(), Some("telemetry_meta"));
    assert!(meta.get("args").unwrap().get("run_epoch").unwrap().as_f64().unwrap() > 0.0);
    for (p, e) in parsed[1..].iter().zip(&events) {
        assert_eq!(p.get("seq").unwrap().as_f64(), Some(e.seq as f64));
        assert_eq!(p.get("ts_ns").unwrap().as_f64(), Some(e.ts_ns as f64));
        assert_eq!(p.get("name").unwrap().as_str(), Some(e.name));
        assert_eq!(p.get("tid").unwrap().as_f64(), Some(e.tid as f64));
        assert_eq!(p.get("track").unwrap().as_str(), Some(e.track.as_str()));
        assert_eq!(p.get("args").unwrap().as_array(), None, "args is an object");
        for a in &e.attrs {
            let got = p.get("args").unwrap().get(a.key).expect("attr present");
            match &a.value {
                AttrValue::U64(v) => assert_eq!(got.as_f64(), Some(*v as f64)),
                AttrValue::F64(v) => assert_eq!(got.as_f64(), Some(*v)),
                AttrValue::Str(s) => assert_eq!(got.as_str(), Some(*s)),
                AttrValue::Text(s) => assert_eq!(got.as_str(), Some(s.as_str())),
            }
        }
    }
    // Serialising the parsed form again is bytewise stable for a simple
    // seq filter: spot-check one line re-renders identically.
    let line1 = text.lines().nth(1).unwrap();
    let reparsed = telemetry::json::parse(line1).unwrap();
    assert_eq!(reparsed.get("kind").unwrap().as_str(), Some("B"));
}

#[test]
fn prometheus_dump_renders_counters() {
    let c = telemetry::metrics::counter("exporter_test_total", "integration test counter");
    c.add(3);
    let dump = export::prometheus_dump();
    assert!(dump.contains("exporter_test_total"), "{dump}");
}
