//! The harness's own in-memory span recorder.
//!
//! Spans are opened from the benchmark's files around each call into a
//! layer (spans inside the program are a later change), kept in memory,
//! and written out as Chrome-trace JSON when the pass ends. A disabled
//! tracer makes `open`/`close` a branch, so the traced and the untraced
//! loop are the same code.

use dcmesh_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Which layer's time this is: `lfd`, `blas`, `qxmd`, `core`, or
    /// `harness` for the loop's own bookkeeping spans (run, burst, step).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one harness-driven run share an identifier.
    pub run: u32,
    /// GEMM shape for BLAS-call spans.
    pub shape: Option<(usize, usize, usize)>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    stack: Vec<usize>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run identifier for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(SpanRec {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
            shape: None,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its index.
    pub fn close(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.stack.pop().expect("close without open");
        self.spans[idx].end_ns = self.now_ns();
        Some(idx)
    }

    /// Adds already-measured child spans (BLAS calls taken from the
    /// `mkl_lite::verbose` ring, which stamps a duration but no start)
    /// under the closed span `parent`, laid out back to back from the
    /// parent's start. Their durations are measured; their offsets inside
    /// the parent are not.
    pub fn add_measured_children(
        &mut self,
        parent: usize,
        layer: &'static str,
        children: impl Iterator<Item = (&'static str, u64, (usize, usize, usize))>,
    ) {
        let (mut cursor, end, run) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.run)
        };
        for (name, dur_ns, shape) in children {
            let stop = (cursor + dur_ns).min(end);
            self.spans.push(SpanRec {
                layer,
                name,
                start_ns: cursor,
                end_ns: stop,
                parent: Some(parent),
                run,
                shape: Some(shape),
            });
            cursor = stop;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`X`) event per span, one track per run identifier.
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let rows: Vec<JsonValue> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = BTreeMap::new();
            args.insert("id".to_string(), JsonValue::Number(i as f64));
            if let Some(p) = s.parent {
                args.insert("parent".to_string(), JsonValue::Number(p as f64));
            }
            if let Some((m, n, k)) = s.shape {
                args.insert(
                    "shape".to_string(),
                    JsonValue::String(format!("{m}x{n}x{k}")),
                );
            }
            let mut row = BTreeMap::new();
            row.insert(
                "name".to_string(),
                JsonValue::String(format!("{}.{}", s.layer, s.name)),
            );
            row.insert("cat".to_string(), JsonValue::String(s.layer.to_string()));
            row.insert("ph".to_string(), JsonValue::String("X".to_string()));
            row.insert("ts".to_string(), JsonValue::Number(s.start_ns as f64 / 1e3));
            row.insert(
                "dur".to_string(),
                JsonValue::Number(s.dur_ns() as f64 / 1e3),
            );
            row.insert("pid".to_string(), JsonValue::Number(1.0));
            row.insert("tid".to_string(), JsonValue::Number(s.run as f64));
            row.insert("args".to_string(), JsonValue::Object(args));
            JsonValue::Object(row)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_string(), JsonValue::Array(rows));
    doc.insert(
        "displayTimeUnit".to_string(),
        JsonValue::String("ms".to_string()),
    );
    dcmesh_telemetry::json::dump(&JsonValue::Object(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            layer: "lfd",
            name: "x",
            start_ns,
            end_ns,
            parent,
            run: 0,
            shape: None,
        }
    }

    #[test]
    fn self_time_with_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child with a nested grandchild
            span(15, 25, Some(1)),  // 2: grandchild — must not count against the root
            span(40, 60, Some(0)),  // 3: adjacent to 1
            span(55, 70, Some(0)),  // 4: overlaps 3 by 5
            span(90, 120, Some(0)), // 5: runs past the root's end, clipped
        ];
        // Root: 100 − (30 + 20 + 10 + 10) = 30.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 20, 15, 30]);
    }

    #[test]
    fn tracer_nests_and_lays_out_measured_children() {
        let mut t = Tracer::new(true);
        t.open("harness", "step");
        t.open("lfd", "nonlocal");
        let phase = t.close().expect("enabled");
        t.close();
        t.spans[phase].start_ns = 1_000;
        t.spans[phase].end_ns = 2_000;
        t.add_measured_children(
            phase,
            "blas",
            [("CGEMM", 300, (4, 4, 64)), ("CGEMM", 900, (64, 4, 4))].into_iter(),
        );
        assert_eq!(t.spans[phase].parent, Some(0));
        let kids: Vec<_> = t.spans[2..]
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(
            kids,
            vec![(1_000, 1_300), (1_300, 2_000)],
            "second child clipped to parent"
        );
        assert_eq!(self_times_ns(&t.spans)[phase], 0);

        let doc = dcmesh_telemetry::json::parse(&chrome_trace(&t.spans)).expect("valid JSON");
        let rows = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("rows");
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[2].get("name").and_then(JsonValue::as_str),
            Some("blas.CGEMM")
        );

        let mut off = Tracer::new(false);
        off.open("lfd", "x");
        assert_eq!(off.close(), None);
        assert!(off.spans.is_empty());
    }
}
