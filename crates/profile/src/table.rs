//! Per-phase / per-mode attribution tables from a span trace.
//!
//! Reproduces the shape of the paper's Tables VI/VII from a recorded
//! `events.jsonl` instead of a live run: every BLAS call span (identified
//! by its `m`/`n`/`k`/`mode` attributes) is grouped by
//! (routine, mode, shape) with call counts, mean host wall time,
//! mean modelled device time, and the speedup against the FP32
//! (`STANDARD`) baseline of the same routine and shape. A second table
//! attributes phase-level wall time (`qd_propagate`, `scf_refresh`, ...)
//! to the precision mode of the enclosing `burst` — the Figure 3a view.

use crate::ingest::{Span, Trace};
use dcmesh_telemetry::json;
use std::collections::BTreeMap;

/// The `mode` attribute value of the FP32 baseline.
pub const BASELINE_MODE: &str = "STANDARD";

/// One (routine, mode, shape) row of the GEMM attribution table.
#[derive(Clone, Debug)]
pub struct CallRow {
    /// BLAS routine name.
    pub routine: String,
    /// Compute-mode attribute value.
    pub mode: String,
    /// Rows of C.
    pub m: u64,
    /// Columns of C.
    pub n: u64,
    /// Inner dimension.
    pub k: u64,
    /// Call spans in the group.
    pub calls: u64,
    /// Mean host wall seconds per call.
    pub mean_wall_s: f64,
    /// Mean modelled device seconds per call, when the producer had a
    /// device model installed.
    pub mean_device_s: Option<f64>,
    /// Baseline mean device (or wall) seconds divided by this row's —
    /// >1 means the mode is faster than FP32. `None` without a baseline.
    pub speedup_vs_fp32: Option<f64>,
}

impl CallRow {
    /// The per-call timing to attribute: modelled device time when
    /// available, host wall time otherwise (mirrors
    /// `CallRecord::effective_seconds`).
    pub fn effective_s(&self) -> f64 {
        self.mean_device_s.unwrap_or(self.mean_wall_s)
    }
}

/// One (phase, mode) row of the phase attribution table.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase span name.
    pub phase: String,
    /// Mode of the enclosing `burst` (or `-` outside any burst).
    pub mode: String,
    /// Inclusive nanoseconds.
    pub total_ns: f64,
    /// Share of the summed phase time.
    pub share: f64,
}

/// True when a span looks like a BLAS call (carries the shape + mode
/// attributes `mkl_lite::verbose::observe` stamps).
fn is_blas_call(span: &Span) -> bool {
    span.attr_f64("m").is_some()
        && span.attr_f64("n").is_some()
        && span.attr_f64("k").is_some()
        && span.attr_str("mode").is_some()
}

/// Incremental table building: feed spans one at a time (streaming
/// ingestion) and materialise the GEMM and phase tables at the end.
/// [`gemm_table`] / [`phase_table`] are batch wrappers over this, so
/// both paths produce identical rows. Memory is bounded by the number
/// of distinct (routine, shape, mode) and (phase, mode) groups, never
/// by the stream length.
#[derive(Clone, Debug, Default)]
pub struct TableAccum {
    gemm_groups: BTreeMap<(String, u64, u64, u64, String), GemmAcc>,
    phase_groups: BTreeMap<(String, String), f64>,
}

#[derive(Clone, Debug, Default)]
struct GemmAcc {
    calls: u64,
    wall_s: f64,
    device_s: f64,
    device_samples: u64,
}

impl TableAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        TableAccum::default()
    }

    /// Folds one span into both tables.
    pub fn add(&mut self, span: &Span) {
        if is_blas_call(span) {
            let key = (
                span.name.clone(),
                span.attr_f64("m").unwrap_or(0.0) as u64,
                span.attr_f64("n").unwrap_or(0.0) as u64,
                span.attr_f64("k").unwrap_or(0.0) as u64,
                span.attr_str("mode").unwrap_or("-").to_string(),
            );
            let wall = span.attr_f64("wall_s").unwrap_or(span.dur_ns() as f64 / 1e9);
            let acc = self.gemm_groups.entry(key).or_default();
            acc.calls += 1;
            acc.wall_s += wall;
            if let Some(dev) = span.attr_f64("device_s") {
                acc.device_s += dev;
                acc.device_samples += 1;
            }
        }
        if PHASES.contains(&span.name.as_str()) {
            let mode = span.burst_mode.as_deref().unwrap_or("-");
            *self.phase_groups.entry((span.name.clone(), mode.to_string())).or_insert(0.0) +=
                span.dur_ns() as f64;
        }
    }

    /// The per-(routine, mode, shape) call table, baseline speedups
    /// included. Rows are sorted by routine, then shape, then mode, so
    /// the FP32 baseline and its low-precision variants sit adjacent.
    pub fn gemm_rows(&self) -> Vec<CallRow> {
        let mut rows: Vec<CallRow> = self
            .gemm_groups
            .iter()
            .map(|((routine, m, n, k, mode), acc)| CallRow {
                routine: routine.clone(),
                mode: mode.clone(),
                m: *m,
                n: *n,
                k: *k,
                calls: acc.calls,
                mean_wall_s: acc.wall_s / acc.calls as f64,
                mean_device_s: (acc.device_samples > 0)
                    .then(|| acc.device_s / acc.device_samples as f64),
                speedup_vs_fp32: None,
            })
            .collect();

        // Baseline per (routine, shape): the STANDARD row's effective time.
        let baselines: BTreeMap<(String, u64, u64, u64), f64> = rows
            .iter()
            .filter(|r| r.mode == BASELINE_MODE)
            .map(|r| ((r.routine.clone(), r.m, r.n, r.k), r.effective_s()))
            .collect();
        for row in &mut rows {
            if let Some(base) = baselines.get(&(row.routine.clone(), row.m, row.n, row.k)) {
                let own = row.effective_s();
                if own > 0.0 {
                    row.speedup_vs_fp32 = Some(base / own);
                }
            }
        }
        rows.sort_by(|a, b| {
            (&a.routine, a.m, a.n, a.k, &a.mode).cmp(&(&b.routine, b.m, b.n, b.k, &b.mode))
        });
        rows
    }

    /// The per-(phase, mode) wall-time attribution table, sorted by
    /// descending total.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let grand: f64 = self.phase_groups.values().sum();
        let mut rows: Vec<PhaseRow> = self
            .phase_groups
            .iter()
            .map(|((phase, mode), total_ns)| PhaseRow {
                phase: phase.clone(),
                mode: mode.clone(),
                total_ns: *total_ns,
                share: total_ns / grand.max(1.0),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_ns.partial_cmp(&a.total_ns).unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }
}

/// Builds the per-(routine, mode, shape) call table from a full trace.
pub fn gemm_table(trace: &Trace) -> Vec<CallRow> {
    let mut acc = TableAccum::new();
    for span in &trace.spans {
        acc.add(span);
    }
    acc.gemm_rows()
}

/// Phase span names attributed in the Figure 3a-style table.
pub const PHASES: &[&str] = &[
    "qd_propagate",
    "qd_nonlocal",
    "qd_energy",
    "qd_remap_occ",
    "qd_shadow",
    "qd_field",
    "scf_refresh",
    "initial_scf",
    "md_step",
];

/// Builds the per-(phase, mode) wall-time attribution table from a full
/// trace. Attribution uses the span's stack-resolved `burst_mode`, so
/// the streaming path needs no retained burst spans.
pub fn phase_table(trace: &Trace) -> Vec<PhaseRow> {
    let mut acc = TableAccum::new();
    for span in &trace.spans {
        acc.add(span);
    }
    acc.phase_rows()
}

/// Renders the GEMM table as aligned text (the Tables VI/VII layout).
pub fn render_gemm_table(rows: &[CallRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<16} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>9}\n",
        "routine", "mode", "m", "n", "k", "calls", "wall ms", "device ms", "speedup"
    ));
    for r in rows {
        let dev = r
            .mean_device_s
            .map(|d| format!("{:.4}", d * 1e3))
            .unwrap_or_else(|| "-".to_string());
        let spd = r
            .speedup_vs_fp32
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<8} {:<16} {:>6} {:>6} {:>6} {:>10} {:>12.4} {:>12} {:>9}\n",
            r.routine,
            r.mode,
            r.m,
            r.n,
            r.k,
            r.calls,
            r.mean_wall_s * 1e3,
            dev,
            spd
        ));
    }
    out
}

/// Renders the phase table as aligned text (the Figure 3a layout).
pub fn render_phase_table(rows: &[PhaseRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14} {:<16} {:>12} {:>8}\n", "phase", "mode", "total ms", "share"));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<16} {:>12.3} {:>7.1}%\n",
            r.phase,
            r.mode,
            r.total_ns / 1e6,
            r.share * 100.0
        ));
    }
    out
}

/// Serialises the GEMM table as a JSON array for machine comparison
/// (`gemm_hostperf --from-trace` consumes this).
pub fn gemm_table_json(rows: &[CallRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"routine\":{},\"mode\":{},\"m\":{},\"n\":{},\"k\":{},\"calls\":{},\
             \"mean_wall_s\":{},\"mean_device_s\":{},\"speedup_vs_fp32\":{}}}",
            json::escape_string(&r.routine),
            json::escape_string(&r.mode),
            r.m,
            r.n,
            r.k,
            r.calls,
            json::number(r.mean_wall_s),
            r.mean_device_s.map(json::number).unwrap_or_else(|| "null".to_string()),
            r.speedup_vs_fp32.map(json::number).unwrap_or_else(|| "null".to_string()),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_jsonl;

    fn call(ts: u64, routine: &str, mode: &str, dev_ms: f64) -> String {
        [
            format!(
                "{{\"seq\":0,\"ts_ns\":{ts},\"kind\":\"B\",\"name\":\"{routine}\",\
                 \"track\":\"host\",\"tid\":0,\"args\":{{\"m\":128,\"n\":896,\"k\":4096,\
                 \"mode\":\"{mode}\"}}}}"
            ),
            format!(
                "{{\"seq\":1,\"ts_ns\":{},\"kind\":\"E\",\"name\":\"{routine}\",\
                 \"track\":\"host\",\"tid\":0,\"args\":{{\"wall_s\":0.002,\"device_s\":{}}}}}",
                ts + 1000,
                dev_ms / 1e3
            ),
        ]
        .join("\n")
    }

    #[test]
    fn gemm_table_groups_and_computes_speedup() {
        let text = [
            call(0, "CGEMM", "STANDARD", 4.0),
            call(2000, "CGEMM", "STANDARD", 4.0),
            call(4000, "CGEMM", "FLOAT_TO_BF16", 1.0),
        ]
        .join("\n");
        let rows = gemm_table(&ingest_jsonl(&text));
        assert_eq!(rows.len(), 2);
        let std = rows.iter().find(|r| r.mode == "STANDARD").unwrap();
        assert_eq!(std.calls, 2);
        assert!((std.mean_device_s.unwrap() - 4e-3).abs() < 1e-12);
        assert!((std.speedup_vs_fp32.unwrap() - 1.0).abs() < 1e-9);
        let bf16 = rows.iter().find(|r| r.mode == "FLOAT_TO_BF16").unwrap();
        assert!((bf16.speedup_vs_fp32.unwrap() - 4.0).abs() < 1e-9, "{bf16:?}");
    }

    #[test]
    fn phase_table_attributes_burst_mode() {
        let text = [
            "{\"seq\":0,\"ts_ns\":0,\"kind\":\"B\",\"name\":\"burst\",\"track\":\"host\",\
             \"tid\":0,\"args\":{\"mode\":\"BF16X2\"}}"
                .to_string(),
            "{\"seq\":1,\"ts_ns\":10,\"kind\":\"B\",\"name\":\"qd_propagate\",\
             \"track\":\"host\",\"tid\":0,\"args\":{}}"
                .to_string(),
            "{\"seq\":2,\"ts_ns\":60,\"kind\":\"E\",\"name\":\"qd_propagate\",\
             \"track\":\"host\",\"tid\":0,\"args\":{}}"
                .to_string(),
            "{\"seq\":3,\"ts_ns\":100,\"kind\":\"E\",\"name\":\"burst\",\"track\":\"host\",\
             \"tid\":0,\"args\":{}}"
                .to_string(),
        ]
        .join("\n");
        let rows = phase_table(&ingest_jsonl(&text));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, "qd_propagate");
        assert_eq!(rows[0].mode, "BF16X2");
        assert_eq!(rows[0].total_ns, 50.0);
        assert!((rows[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renderers_and_json_are_parseable() {
        let text = call(0, "ZGEMM", "STANDARD", 2.0);
        let trace = ingest_jsonl(&text);
        let rows = gemm_table(&trace);
        let rendered = render_gemm_table(&rows);
        assert!(rendered.contains("ZGEMM"));
        assert!(rendered.contains("1.00x"));
        let js = gemm_table_json(&rows);
        let doc = json::parse(&js).expect("table JSON parses");
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("routine").unwrap().as_str(), Some("ZGEMM"));
        assert_eq!(arr[0].get("mean_device_s").unwrap().as_f64(), Some(2e-3));
        let _ = render_phase_table(&phase_table(&trace));
    }
}
