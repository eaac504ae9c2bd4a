//! The regression sentinel: per-(callsite, shape-class, mode) baselines
//! across archived runs, with robust statistics and CI exit semantics.
//!
//! For every key present in at least two archived runs the sentinel
//! compares the **newest** run against the median/MAD of all prior
//! runs (robust to one historic outlier — a single bad run does not
//! poison the baseline the way a mean would):
//!
//! * **wall-time** — newest wall seconds *per call* beyond 1.5× the
//!   prior median AND 4 scaled-MADs above it (both conditions, so a
//!   noisy-but-flat series is not flagged on variance alone);
//! * **time-misfit** — same rule on observed/modelled seconds: the
//!   kernel got slower *relative to the roofline model*, the signature
//!   of a software regression rather than a bigger problem size;
//! * **escalation-rate** — newest per-run escalation count at least
//!   `max(1, 4·MAD)` above the prior median: a run that newly needs
//!   stronger precision is flagged even when the absolute counts are
//!   tiny (the floor of 1 keeps a 0→1 step visible);
//! * **residual-shift** — the residual histogram's weighted-mean decade
//!   moved a full decade up from the prior median: accuracy decayed
//!   even if nothing escalated yet.
//!
//! The `history` arrays of `BENCH_gemm.json` and `BENCH_stencil.json`
//! join the same machinery as synthetic per-mode groups, so the
//! host-perf history of each layer is watched by the same thresholds.
//!
//! Reports render as ANSI text with Unicode sparklines or as a
//! self-contained SVG; the CLI exits 1 when any regression is flagged
//! (2 on usage/IO errors), so CI can gate on it directly.

use crate::archive::RunRecord;
use crate::flame::svg_escape;
use dcmesh_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Newest/median ratio beyond which wall-per-call and misfit count as
/// regressed (combined with the MAD condition below).
pub const RATIO_THRESHOLD: f64 = 1.5;
/// How many scaled MADs above the prior median the newest sample must
/// sit (MAD × 1.4826 estimates σ for normal noise).
pub const MAD_K: f64 = 4.0;
const MAD_SCALE: f64 = 1.4826;
/// Decades the residual-histogram center must rise to count as shifted.
pub const RESIDUAL_SHIFT_DECADES: f64 = 1.0;

/// One key's longitudinal series across the archive, oldest first.
/// Only runs in which the key appears contribute a sample.
#[derive(Clone, Debug)]
pub struct TrendGroup {
    /// Callsite ID.
    pub callsite: String,
    /// Shape class.
    pub shape: String,
    /// Compute-mode label.
    pub mode: String,
    /// Run ids contributing samples, aligned with the series below.
    pub run_ids: Vec<String>,
    /// Wall seconds per call.
    pub wall_per_call: Vec<f64>,
    /// Observed/modelled time misfit (`None` when no device sample).
    pub misfit: Vec<Option<f64>>,
    /// Escalations attributed to the key, per run.
    pub escalations: Vec<f64>,
    /// Residual-histogram weighted-mean decade (`None` when empty).
    pub residual_center: Vec<Option<f64>>,
}

/// What regressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegressionKind {
    /// Wall seconds per call grew.
    WallTime,
    /// Observed/modelled misfit grew.
    TimeMisfit,
    /// Escalation count stepped up.
    EscalationRate,
    /// Residual histogram shifted toward larger errors.
    ResidualShift,
}

impl RegressionKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RegressionKind::WallTime => "wall-time",
            RegressionKind::TimeMisfit => "time-misfit",
            RegressionKind::EscalationRate => "escalation-rate",
            RegressionKind::ResidualShift => "residual-shift",
        }
    }
}

/// One flagged regression.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Callsite ID.
    pub callsite: String,
    /// Shape class.
    pub shape: String,
    /// Compute-mode label.
    pub mode: String,
    /// Which metric regressed.
    pub kind: RegressionKind,
    /// Prior-runs median of the metric.
    pub baseline: f64,
    /// Newest run's value.
    pub newest: f64,
}

/// Median of a non-empty slice (midpoint average for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in series"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median absolute deviation around the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Weighted-mean bucket decade of a residual histogram: the scalar
/// "center of mass" the residual-shift rule compares across runs.
/// Bucket `i` has upper bound `1e(i-12)`; the overflow bucket counts as
/// one decade above the last finite one.
fn residual_center(h: &dcmesh_telemetry::ledger::ResidualHist) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let total: u64 = h.buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let weighted: f64 = h
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| i as f64 * n as f64)
        .sum();
    Some(weighted / total as f64)
}

/// Folds archived runs (append order — oldest first) into per-key
/// longitudinal groups.
pub fn build_groups(records: &[RunRecord]) -> Vec<TrendGroup> {
    let mut groups: BTreeMap<(String, String, String), TrendGroup> = BTreeMap::new();
    for rec in records {
        for row in &rec.entries {
            if row.stats.calls == 0 && row.stats.escalations == 0 && row.stats.residuals.count == 0
            {
                continue;
            }
            let key = (row.callsite.clone(), row.shape.clone(), row.mode.clone());
            let g = groups.entry(key).or_insert_with(|| TrendGroup {
                callsite: row.callsite.clone(),
                shape: row.shape.clone(),
                mode: row.mode.clone(),
                run_ids: Vec::new(),
                wall_per_call: Vec::new(),
                misfit: Vec::new(),
                escalations: Vec::new(),
                residual_center: Vec::new(),
            });
            g.run_ids.push(rec.run_id.clone());
            g.wall_per_call.push(if row.stats.calls > 0 {
                row.stats.wall_s / row.stats.calls as f64
            } else {
                0.0
            });
            g.misfit.push(row.stats.time_misfit());
            g.escalations.push(row.stats.escalations as f64);
            g.residual_center.push(residual_center(&row.stats.residuals));
        }
    }
    groups.into_values().collect()
}

/// The ratio+MAD rule shared by wall-time and misfit: newest beyond
/// `RATIO_THRESHOLD`× the prior median AND `MAD_K` scaled MADs above it.
fn ratio_mad_regressed(priors: &[f64], newest: f64) -> Option<f64> {
    if priors.is_empty() {
        return None;
    }
    let m = median(priors);
    if m <= 0.0 {
        return None;
    }
    let sigma = MAD_SCALE * mad(priors);
    (newest > m * RATIO_THRESHOLD && newest > m + MAD_K * sigma).then_some(m)
}

/// Flags regressions in the newest run of every group with at least
/// one prior sample.
pub fn detect(groups: &[TrendGroup]) -> Vec<Regression> {
    let mut out = Vec::new();
    for g in groups {
        let n = g.wall_per_call.len();
        if n < 2 {
            continue;
        }
        let mut flag = |kind, baseline, newest| {
            out.push(Regression {
                callsite: g.callsite.clone(),
                shape: g.shape.clone(),
                mode: g.mode.clone(),
                kind,
                baseline,
                newest,
            })
        };

        let (priors, newest) = g.wall_per_call.split_at(n - 1);
        if newest[0] > 0.0 {
            if let Some(m) = ratio_mad_regressed(priors, newest[0]) {
                flag(RegressionKind::WallTime, m, newest[0]);
            }
        }

        let misfits: Vec<f64> = g.misfit[..n - 1].iter().copied().flatten().collect();
        if let Some(newest_misfit) = g.misfit[n - 1] {
            if let Some(m) = ratio_mad_regressed(&misfits, newest_misfit) {
                flag(RegressionKind::TimeMisfit, m, newest_misfit);
            }
        }

        let (esc_priors, esc_newest) = g.escalations.split_at(n - 1);
        let em = median(esc_priors);
        let floor = (MAD_K * MAD_SCALE * mad(esc_priors)).max(1.0);
        if esc_newest[0] >= em + floor {
            flag(RegressionKind::EscalationRate, em, esc_newest[0]);
        }

        let centers: Vec<f64> = g.residual_center[..n - 1].iter().copied().flatten().collect();
        if let (Some(newest_c), false) = (g.residual_center[n - 1], centers.is_empty()) {
            let cm = median(&centers);
            if newest_c >= cm + RESIDUAL_SHIFT_DECADES {
                flag(RegressionKind::ResidualShift, cm, newest_c);
            }
        }
    }
    out
}

/// Parses the dated `history` array of a `BENCH_*.json` (every
/// `<series>_ns_per_call: {mode: ns}` member of every entry) into
/// synthetic trend groups (`bench/<series>` callsites, one mode per
/// group), so the host-perf history rides the same sentinel.
pub fn bench_history_groups(bench_json: &str) -> Result<Vec<TrendGroup>, String> {
    let doc = json::parse(bench_json).map_err(|e| format!("BENCH json does not parse: {e}"))?;
    let Some(history) = doc.get("history").and_then(JsonValue::as_array) else {
        return Ok(Vec::new());
    };
    // (series, mode) -> (dates, values)
    let mut groups: BTreeMap<(String, String), (Vec<String>, Vec<f64>)> = BTreeMap::new();
    for entry in history {
        let date = entry
            .get("date")
            .and_then(JsonValue::as_str)
            .unwrap_or("-")
            .to_string();
        let JsonValue::Object(members) = entry else { continue };
        for (key, val) in members {
            let Some(series) = key.strip_suffix("_ns_per_call") else { continue };
            let JsonValue::Object(modes) = val else { continue };
            for (mode, ns) in modes {
                if let Some(ns) = ns.as_f64() {
                    let g = groups
                        .entry((series.to_string(), mode.clone()))
                        .or_default();
                    g.0.push(date.clone());
                    g.1.push(ns * 1e-9);
                }
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|((series, mode), (dates, secs))| {
            let len = secs.len();
            TrendGroup {
                callsite: format!("bench/{series}"),
                shape: "-".to_string(),
                mode,
                run_ids: dates,
                wall_per_call: secs,
                misfit: vec![None; len],
                escalations: vec![0.0; len],
                residual_center: vec![None; len],
            }
        })
        .collect())
}

const SPARK_CHARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a numeric series as a Unicode sparkline (min→max scaled).
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span * 7.0).round() as usize;
            SPARK_CHARS[t.min(7)]
        })
        .collect()
}

/// Renders the ANSI trend report: every multi-run group with its
/// wall-per-call sparkline, regressions flagged inline in red.
pub fn render_report(groups: &[TrendGroup], regressions: &[Regression]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "dcmesh trend sentinel — {} group(s), {} regression(s)\n",
        groups.iter().filter(|g| g.wall_per_call.len() >= 2).count(),
        regressions.len()
    ));
    out.push_str(&format!(
        "{:<34} {:>20} {:<16} {:>5} {:>12} {:<14} {}\n",
        "CALLSITE", "SHAPE", "MODE", "RUNS", "WALL/CALL", "SPARK", "FLAGS"
    ));
    for g in groups {
        let n = g.wall_per_call.len();
        if n < 2 {
            continue;
        }
        let flags: Vec<String> = regressions
            .iter()
            .filter(|r| r.callsite == g.callsite && r.shape == g.shape && r.mode == g.mode)
            .map(|r| {
                format!(
                    "\x1b[31m{}: {:.3} -> {:.3}\x1b[0m",
                    r.kind.label(),
                    r.baseline,
                    r.newest
                )
            })
            .collect();
        out.push_str(&format!(
            "{:<34} {:>20} {:<16} {:>5} {:>12.3e} {:<14} {}\n",
            g.callsite,
            g.shape,
            g.mode,
            n,
            g.wall_per_call[n - 1],
            sparkline(&g.wall_per_call),
            flags.join("  ")
        ));
    }
    for r in regressions {
        out.push_str(&format!(
            "REGRESSION {} at {} {} {}: baseline {:.4} newest {:.4}\n",
            r.kind.label(),
            r.callsite,
            r.shape,
            r.mode,
            r.baseline,
            r.newest
        ));
    }
    out
}

/// Renders a self-contained SVG trend report: one sparkline polyline
/// per multi-run group, flagged groups drawn in red with their
/// regression labels.
pub fn render_svg(groups: &[TrendGroup], regressions: &[Regression]) -> String {
    let rows: Vec<&TrendGroup> = groups.iter().filter(|g| g.wall_per_call.len() >= 2).collect();
    let row_h = 26.0;
    let label_w = 560.0;
    let spark_w = 260.0;
    let width = label_w + spark_w + 20.0;
    let height = 40.0 + rows.len() as f64 * row_h;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         font-family=\"monospace\" font-size=\"12\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n\
         <text x=\"10\" y=\"20\" font-size=\"14\">dcmesh trend sentinel — {} regression(s)</text>\n",
        regressions.len()
    );
    for (i, g) in rows.iter().enumerate() {
        let y = 40.0 + i as f64 * row_h;
        let flagged: Vec<&Regression> = regressions
            .iter()
            .filter(|r| r.callsite == g.callsite && r.shape == g.shape && r.mode == g.mode)
            .collect();
        let color = if flagged.is_empty() { "#2a6fdb" } else { "#cc2222" };
        let flags = if flagged.is_empty() {
            String::new()
        } else {
            let kinds: Vec<&str> = flagged.iter().map(|r| r.kind.label()).collect();
            format!(" [{}]", kinds.join(","))
        };
        out.push_str(&format!(
            "<text x=\"10\" y=\"{:.0}\" fill=\"{color}\">{}</text>\n",
            y + 14.0,
            svg_escape(&format!("{} {} {}{}", g.callsite, g.shape, g.mode, flags))
        ));
        // Polyline over the series, min→max normalised into the row box.
        let vals = &g.wall_per_call;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in vals {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let pts: Vec<String> = vals
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let x = label_w
                    + spark_w * (j as f64 / (vals.len() - 1).max(1) as f64);
                let py = y + 18.0 - 14.0 * ((v - lo) / span);
                format!("{x:.1},{py:.1}")
            })
            .collect();
        out.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>\n",
            pts.join(" ")
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::RunRecord;
    use dcmesh_telemetry::ledger::{ResidualHist, Stats};

    fn record(run_id: &str, rows: Vec<(&str, u64, f64, u64)>) -> RunRecord {
        // rows: (callsite, calls, wall_s, escalations)
        RunRecord {
            run_id: run_id.to_string(),
            deck_hash: "0x0".to_string(),
            ranks: 1,
            domains: 0,
            mode_policy: "FLOAT_TO_BF16".to_string(),
            telemetry_level: "full".to_string(),
            elapsed_ms: 0,
            restarts: 0,
            heartbeat_misses: 0,
            escalations: rows.iter().map(|r| r.3).sum(),
            sdc_recoveries: 0,
            source: "-".to_string(),
            entries: rows
                .into_iter()
                .map(|(cs, calls, wall, esc)| dcmesh_telemetry::ledger::Row {
                    callsite: cs.to_string(),
                    shape: "128x128x128".to_string(),
                    mode: "FLOAT_TO_BF16".to_string(),
                    stats: Stats {
                        calls,
                        wall_s: wall,
                        escalations: esc,
                        ..Stats::default()
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn planted_slowdown_flags_exactly_that_callsite() {
        // Two runs; md/cgemm slows 3x in the second, md/sgemm stays flat.
        let runs = vec![
            record("run1", vec![("md/cgemm", 100, 1.0, 0), ("md/sgemm", 100, 2.0, 0)]),
            record("run2", vec![("md/cgemm", 100, 3.0, 0), ("md/sgemm", 100, 2.0, 0)]),
        ];
        let groups = build_groups(&runs);
        let regs = detect(&groups);
        let wall: Vec<&Regression> =
            regs.iter().filter(|r| r.kind == RegressionKind::WallTime).collect();
        assert_eq!(wall.len(), 1, "{regs:?}");
        assert_eq!(wall[0].callsite, "md/cgemm");
        assert!((wall[0].newest / wall[0].baseline - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_to_one_escalation_step_is_flagged() {
        let runs = vec![
            record("clean", vec![("md/cgemm", 100, 1.0, 0)]),
            record("fault", vec![("md/cgemm", 100, 1.0, 1)]),
        ];
        let regs = detect(&build_groups(&runs));
        assert!(
            regs.iter()
                .any(|r| r.kind == RegressionKind::EscalationRate && r.callsite == "md/cgemm"),
            "{regs:?}"
        );
    }

    #[test]
    fn flat_series_is_not_flagged() {
        let runs = vec![
            record("a", vec![("md/cgemm", 100, 1.00, 0)]),
            record("b", vec![("md/cgemm", 100, 1.02, 0)]),
            record("c", vec![("md/cgemm", 100, 0.99, 0)]),
            record("d", vec![("md/cgemm", 100, 1.01, 0)]),
        ];
        assert!(detect(&build_groups(&runs)).is_empty());
    }

    #[test]
    fn robust_baseline_survives_one_historic_outlier() {
        // One freak-slow historic run must not raise the baseline enough
        // to hide a real 3x regression against the typical value.
        let runs = vec![
            record("a", vec![("md/cgemm", 100, 1.0, 0)]),
            record("freak", vec![("md/cgemm", 100, 40.0, 0)]),
            record("c", vec![("md/cgemm", 100, 1.0, 0)]),
            record("d", vec![("md/cgemm", 100, 1.1, 0)]),
            record("bad", vec![("md/cgemm", 100, 3.0, 0)]),
        ];
        let regs = detect(&build_groups(&runs));
        assert!(
            regs.iter().any(|r| r.kind == RegressionKind::WallTime),
            "median/MAD baseline should still catch the 3x step: {regs:?}"
        );
    }

    #[test]
    fn residual_shift_detected() {
        let mk = |exp: i32| {
            let mut h = ResidualHist::default();
            for _ in 0..50 {
                h.observe(10f64.powi(exp));
            }
            let mut rec = record("r", vec![]);
            rec.entries.push(dcmesh_telemetry::ledger::Row {
                callsite: "md/cgemm".to_string(),
                shape: "64x64x64".to_string(),
                mode: "FLOAT_TO_BF16".to_string(),
                stats: Stats { abft_checks: 50, residuals: h, ..Stats::default() },
            });
            rec
        };
        let mut a = mk(-8);
        a.run_id = "a".to_string();
        let mut b = mk(-5);
        b.run_id = "b".to_string();
        let regs = detect(&build_groups(&[a, b]));
        assert!(
            regs.iter().any(|r| r.kind == RegressionKind::ResidualShift),
            "3-decade shift should flag: {regs:?}"
        );
    }

    #[test]
    fn bench_history_parses_into_groups() {
        let text = r#"{
            "history": [
                {"date":"2026-08-06","hit_ratio":0.98,
                 "sgemm_128x1920_ns_per_call":{"STANDARD":100.0,"FLOAT_TO_BF16X2":190.0}},
                {"date":"2026-08-07","hit_ratio":0.98,
                 "sgemm_128x1920_ns_per_call":{"STANDARD":102.0,"FLOAT_TO_BF16X2":500.0}}
            ]
        }"#;
        let groups = bench_history_groups(text).expect("parses");
        assert_eq!(groups.len(), 2);
        let x2 = groups
            .iter()
            .find(|g| g.mode == "FLOAT_TO_BF16X2")
            .expect("x2 group");
        assert_eq!(x2.callsite, "bench/sgemm_128x1920");
        assert_eq!(x2.wall_per_call.len(), 2);
        let regs = detect(&groups);
        assert!(
            regs.iter()
                .any(|r| r.kind == RegressionKind::WallTime && r.mode == "FLOAT_TO_BF16X2"),
            "2.6x bench step should flag: {regs:?}"
        );
        assert!(!regs.iter().any(|r| r.mode == "STANDARD"), "{regs:?}");
    }

    #[test]
    fn sparkline_and_reports_render() {
        let runs = vec![
            record("a", vec![("md/cgemm", 100, 1.0, 0)]),
            record("b", vec![("md/cgemm", 100, 3.0, 1)]),
        ];
        let groups = build_groups(&runs);
        let regs = detect(&groups);
        assert!(!regs.is_empty());
        let spark = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(spark.chars().count(), 3);
        let report = render_report(&groups, &regs);
        assert!(report.contains("md/cgemm"), "{report}");
        assert!(report.contains("REGRESSION"), "{report}");
        let svg = render_svg(&groups, &regs);
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("polyline"), "{svg}");
        assert!(svg.contains("md/cgemm"), "{svg}");
    }
}
