//! The offline precision advisor: archived accuracy evidence joined
//! against the xe-gpu roofline model into a per-callsite mode plan.
//!
//! For every (callsite, shape-class) key in the archive the advisor
//! splits the observed modes into **failed** (any escalation, rollback,
//! ABFT violation, health violation, or non-finite output attributed to
//! the key) and **clean**, derives the *minimum safe rank* on the
//! supervisor's escalation ladder — one rung above the strongest mode
//! that ever failed — and then prices every ladder mode at or above
//! that rank with [`XeStackModel::mode_predictions`], recommending the
//! cheapest. That is exactly the decision the run supervisor reaches
//! *reactively* (fail → rollback → escalate); the advisor reaches it
//! offline from history, so the next run can start there and skip the
//! failures. The emitted `advice.json` (schema v1) is the artifact the
//! ROADMAP's online mode autotuner will consume.
//!
//! Accuracy headroom is reported per key as
//! `log10(budget / residual_max)` over the ABFT defect/bound histogram
//! of the recommended mode (budget 1.0 = the ABFT bound itself): how
//! many decades the observed worst residual sits below the acceptance
//! threshold. Negative headroom means the mode has already violated
//! the bound — such a mode is also marked failed.

use crate::archive::RunRecord;
use dcmesh_telemetry::json;
use dcmesh_telemetry::ledger::Row;
use mkl_lite::device::Domain;
use mkl_lite::ComputeMode;
use std::collections::BTreeMap;
use xe_gpu::{XeStackModel, MAX_1550_STACK};

/// Schema version of `advice.json`.
pub const ADVICE_SCHEMA_VERSION: u64 = 1;

/// Residual-ratio acceptance budget: ABFT ratios are defect/bound, so
/// 1.0 is the bound itself.
pub const RESIDUAL_BUDGET: f64 = 1.0;

/// Evidence about one mode observed at a (callsite, shape) key.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeEvidence {
    /// The mode's ledger label (`"FLOAT_TO_BF16"`, `"STANDARD"`, …).
    pub mode: String,
    /// BLAS calls recorded in the mode.
    pub calls: u64,
    /// Whether the mode ever failed at this key (escalation, rollback,
    /// ABFT/health violation, or non-finite output attributed to it).
    pub failed: bool,
    /// Largest finite residual ratio observed (0 when none recorded).
    pub residual_max: f64,
    /// ABFT checks backing the residual evidence.
    pub abft_checks: u64,
}

/// The advisor's plan for one (callsite, shape-class) key.
#[derive(Clone, Debug)]
pub struct CallsiteAdvice {
    /// Callsite ID.
    pub callsite: String,
    /// Shape class (`"MxNxK"`).
    pub shape: String,
    /// Everything the archive observed per mode, ladder order.
    pub observed: Vec<ModeEvidence>,
    /// Weakest ladder mode the failure evidence allows.
    pub min_safe_mode: ComputeMode,
    /// Recommended mode: cheapest predicted among rank ≥ min safe.
    pub recommended_mode: ComputeMode,
    /// Modelled seconds per call in the recommended mode.
    pub predicted_seconds: f64,
    /// Modelled speedup of the recommendation over FP32.
    pub predicted_speedup_vs_fp32: f64,
    /// `log10(budget / residual_max)` for the recommended mode's
    /// observed residuals (`None` without residual evidence).
    pub headroom_decades: Option<f64>,
}

/// A full advisory plan plus its provenance.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Runs the evidence was drawn from.
    pub runs: u64,
    /// Per-key plans, sorted by (callsite, shape).
    pub plan: Vec<CallsiteAdvice>,
}

/// Maps a callsite's routine suffix to its BLAS domain (`md/cgemm` →
/// complex32). Unknown routines price as Real32 — the conservative
/// single-plane case.
fn domain_of_callsite(callsite: &str) -> Domain {
    let routine = callsite.rsplit('/').next().unwrap_or(callsite).to_ascii_lowercase();
    match routine.chars().next() {
        Some('c') => Domain::Complex32,
        Some('z') => Domain::Complex64,
        Some('d') => Domain::Real64,
        _ => Domain::Real32,
    }
}

/// Parses a `"MxNxK"` shape class back to dims.
fn parse_shape(shape: &str) -> Option<(usize, usize, usize)> {
    let mut it = shape.split('x').map(|d| d.parse::<usize>().ok());
    Some((it.next()??, it.next()??, it.next()??))
}

fn failed(r: &Row) -> bool {
    let s = &r.stats;
    s.escalations > 0
        || s.rollbacks > 0
        || s.abft_violations > 0
        || s.health_violations > 0
        || s.nonfinite_outputs > 0
        || (s.residuals.count > 0 && s.residuals.max > RESIDUAL_BUDGET)
}

/// Builds the advisory plan from archived runs. Only GEMM-shaped keys
/// (a parseable `MxNxK` shape class) are planned — supervisor rows and
/// other shapeless entries carry attribution evidence but are not
/// themselves mode choices.
pub fn advise(records: &[RunRecord]) -> Advice {
    // Fold evidence across runs per (callsite, shape, mode).
    let mut evidence: BTreeMap<(String, String), BTreeMap<String, ModeEvidence>> = BTreeMap::new();
    for rec in records {
        for row in &rec.entries {
            if parse_shape(&row.shape).is_none() {
                continue;
            }
            let key = (row.callsite.clone(), row.shape.clone());
            let e = evidence
                .entry(key)
                .or_default()
                .entry(row.mode.clone())
                .or_insert_with(|| ModeEvidence {
                    mode: row.mode.clone(),
                    calls: 0,
                    failed: false,
                    residual_max: 0.0,
                    abft_checks: 0,
                });
            e.calls += row.stats.calls;
            e.failed |= failed(row);
            e.abft_checks += row.stats.abft_checks;
            if row.stats.residuals.max > e.residual_max {
                e.residual_max = row.stats.residuals.max;
            }
        }
    }

    let model = XeStackModel::new(MAX_1550_STACK);
    let mut plan = Vec::new();
    for ((callsite, shape), modes) in evidence {
        let (m, n, k) = parse_shape(&shape).expect("filtered above");
        // Ladder-ordered evidence; unparseable mode labels are kept in
        // the evidence list but cannot constrain the ladder choice.
        let mut observed: Vec<(Option<ComputeMode>, ModeEvidence)> = modes
            .into_values()
            .map(|e| (ComputeMode::from_env_value(&e.mode).ok(), e))
            .collect();
        observed.sort_by_key(|(mode, _)| mode.map(|m| m.escalation_rank()).unwrap_or(usize::MAX));

        // One rung above the strongest mode that ever failed. The
        // supervisor would have settled exactly there after walking the
        // ladder reactively.
        let min_rank = observed
            .iter()
            .filter(|(mode, e)| e.failed && mode.is_some())
            .map(|(mode, _)| mode.expect("filtered").escalation_rank() + 1)
            .max()
            .unwrap_or(0);
        let min_safe_mode = *ComputeMode::ESCALATION_LADDER
            .iter()
            .find(|m| m.escalation_rank() >= min_rank)
            .unwrap_or(&ComputeMode::Standard);

        let preds = model.mode_predictions(domain_of_callsite(&callsite), m, n, k);
        let best = preds
            .iter()
            .filter(|p| p.mode.escalation_rank() >= min_rank)
            .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite model times"))
            .copied()
            .unwrap_or_else(|| *preds.last().expect("ladder nonempty"));

        let headroom = observed
            .iter()
            .find(|(mode, e)| *mode == Some(best.mode) && e.residual_max > 0.0)
            .map(|(_, e)| (RESIDUAL_BUDGET / e.residual_max).log10());

        plan.push(CallsiteAdvice {
            callsite,
            shape,
            observed: observed.into_iter().map(|(_, e)| e).collect(),
            min_safe_mode,
            recommended_mode: best.mode,
            predicted_seconds: best.seconds,
            predicted_speedup_vs_fp32: best.speedup_vs_fp32,
            headroom_decades: headroom,
        });
    }
    Advice { runs: records.len() as u64, plan }
}

/// Serialises a plan as the `advice.json` document (schema v1).
pub fn advice_json(a: &Advice) -> String {
    let mut out = format!(
        "{{\n  \"schema\": {ADVICE_SCHEMA_VERSION},\n  \"runs\": {},\n  \"plan\": [",
        a.runs
    );
    for (i, p) in a.plan.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let headroom = match p.headroom_decades {
            Some(h) => json::number(h),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{\"callsite\":{},\"shape\":{},\"min_safe_mode\":{},\
             \"recommended_mode\":{},\"predicted_seconds\":{},\
             \"predicted_speedup_vs_fp32\":{},\"headroom_decades\":{headroom},\
             \"observed\":[",
            json::escape_string(&p.callsite),
            json::escape_string(&p.shape),
            json::escape_string(p.min_safe_mode.name()),
            json::escape_string(p.recommended_mode.name()),
            json::number(p.predicted_seconds),
            json::number(p.predicted_speedup_vs_fp32),
        ));
        for (j, e) in p.observed.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"mode\":{},\"calls\":{},\"failed\":{},\"residual_max\":{},\"abft_checks\":{}}}",
                json::escape_string(&e.mode),
                e.calls,
                e.failed,
                json::number(e.residual_max),
                e.abft_checks
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the plan as a fixed-width terminal table.
pub fn render_advice(a: &Advice) -> String {
    let mut out = format!("dcmesh precision advisor — evidence from {} run(s)\n", a.runs);
    out.push_str(&format!(
        "{:<34} {:>20} {:<16} {:<16} {:>12} {:>8} {:>9}\n",
        "CALLSITE", "SHAPE", "MIN_SAFE", "RECOMMEND", "PRED_S", "SPEEDUP", "HEADROOM"
    ));
    for p in &a.plan {
        let headroom = match p.headroom_decades {
            Some(h) => format!("{h:.1}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<34} {:>20} {:<16} {:<16} {:>12.3e} {:>8.2} {:>9}\n",
            p.callsite,
            p.shape,
            p.min_safe_mode.name(),
            p.recommended_mode.name(),
            p.predicted_seconds,
            p.predicted_speedup_vs_fp32,
            headroom
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_telemetry::ledger::{ResidualHist, Stats};

    fn record(entries: Vec<Row>) -> RunRecord {
        RunRecord {
            run_id: "r".to_string(),
            deck_hash: "0x0".to_string(),
            ranks: 1,
            domains: 0,
            mode_policy: "FLOAT_TO_BF16".to_string(),
            telemetry_level: "full".to_string(),
            elapsed_ms: 0,
            restarts: 0,
            heartbeat_misses: 0,
            escalations: 0,
            sdc_recoveries: 0,
            source: "-".to_string(),
            entries,
        }
    }

    fn row(cs: &str, mode: &str, esc: u64, nonfin: u64, residual: Option<f64>) -> Row {
        let mut h = ResidualHist::default();
        if let Some(r) = residual {
            h.observe(r);
        }
        Row {
            callsite: cs.to_string(),
            shape: "128x1024x4096".to_string(),
            mode: mode.to_string(),
            stats: Stats {
                calls: 100,
                wall_s: 1.0,
                escalations: esc,
                nonfinite_outputs: nonfin,
                abft_checks: if residual.is_some() { 10 } else { 0 },
                residuals: h,
                ..Stats::default()
            },
        }
    }

    #[test]
    fn failed_bf16_recommends_at_least_the_settled_rung() {
        // BF16 failed (escalated away, non-finite outputs); BF16x2 ran
        // clean. The supervisor settled at x2, so the advisor must not
        // recommend anything weaker.
        let rec = record(vec![
            row("md/cgemm", "FLOAT_TO_BF16", 1, 2, None),
            row("md/cgemm", "FLOAT_TO_BF16X2", 0, 0, Some(1e-6)),
        ]);
        let a = advise(&[rec]);
        assert_eq!(a.plan.len(), 1);
        let p = &a.plan[0];
        assert_eq!(p.min_safe_mode, ComputeMode::FloatToBf16x2);
        assert!(
            p.recommended_mode.escalation_rank() >= ComputeMode::FloatToBf16x2.escalation_rank(),
            "recommended {:?} weaker than the settled rung",
            p.recommended_mode
        );
        // The model prices TF32 below BF16x2 at this DCMESH shape, and
        // TF32 also ranks above x2 on the ladder — faster AND stronger,
        // so the advisor prefers it over merely settling at x2.
        assert_eq!(p.recommended_mode, ComputeMode::FloatToTf32);
        assert!(p.predicted_speedup_vs_fp32 > 1.0);
        // Headroom comes from the recommended mode's own residual
        // evidence; TF32 never ran, so there is none yet.
        assert!(p.headroom_decades.is_none());
    }

    #[test]
    fn clean_history_recommends_the_cheapest_mode() {
        let rec = record(vec![row("md/cgemm", "FLOAT_TO_BF16", 0, 0, Some(1e-8))]);
        let a = advise(&[rec]);
        let p = &a.plan[0];
        assert_eq!(p.min_safe_mode, ComputeMode::FloatToBf16);
        // No failures anywhere: the cheapest predicted ladder mode wins,
        // and at the DCMESH shape that is BF16 itself.
        assert_eq!(p.recommended_mode, ComputeMode::FloatToBf16);
        // Recommended mode has residual evidence: 8 decades of headroom.
        let h = p.headroom_decades.expect("bf16 residual evidence");
        assert!((h - 8.0).abs() < 0.5, "headroom {h} decades");
    }

    #[test]
    fn residual_over_budget_counts_as_failure() {
        let rec = record(vec![row("md/cgemm", "FLOAT_TO_BF16", 0, 0, Some(2.0))]);
        let a = advise(&[rec]);
        assert!(a.plan[0].observed[0].failed);
        assert!(a.plan[0].min_safe_mode.escalation_rank() >= 1);
    }

    #[test]
    fn shapeless_rows_are_not_planned() {
        let mut r = row("supervisor/burst", "FLOAT_TO_BF16", 1, 0, None);
        r.shape = "-".to_string();
        let a = advise(&[record(vec![r])]);
        assert!(a.plan.is_empty());
    }

    #[test]
    fn advice_json_renders_and_is_valid() {
        let rec = record(vec![
            row("md/cgemm", "FLOAT_TO_BF16", 1, 1, None),
            row("md/cgemm", "FLOAT_TO_BF16X2", 0, 0, Some(1e-6)),
        ]);
        let a = advise(&[rec]);
        let text = advice_json(&a);
        let doc = json::parse(&text).expect("advice.json parses");
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(1.0));
        let plan = doc.get("plan").unwrap().as_array().unwrap();
        assert_eq!(plan.len(), 1);
        let p = &plan[0];
        assert_eq!(p.get("recommended_mode").unwrap().as_str(), Some("FLOAT_TO_TF32"));
        assert_eq!(p.get("min_safe_mode").unwrap().as_str(), Some("FLOAT_TO_BF16X2"));
        let observed = p.get("observed").unwrap().as_array().unwrap();
        assert_eq!(observed.len(), 2);
        let table = render_advice(&a);
        assert!(table.contains("md/cgemm"), "{table}");
    }

    #[test]
    fn domain_inference_from_routine_name() {
        assert_eq!(domain_of_callsite("md/cgemm"), Domain::Complex32);
        assert_eq!(domain_of_callsite("scf/zgemm"), Domain::Complex64);
        assert_eq!(domain_of_callsite("x/dgemm"), Domain::Real64);
        assert_eq!(domain_of_callsite("x/sgemm"), Domain::Real32);
    }
}
