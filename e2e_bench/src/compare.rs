//! `compare A.json B.json`: one row per (metric, workload) between two
//! result sets, judged against the bound the benchmark fixed.

use crate::report::{end_to_end_defs, per_layer_defs, Better, MetricDef};
use crate::stats::{median, quartiles};
use dcmesh_telemetry::json::{self, JsonValue};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    NoChange,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
    /// Per-layer metric: reported, never judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::NoChange => "no change",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One side of a comparison: the reported value and, when the pass
/// repeated itself, one value per repeat.
pub struct Side {
    pub value: f64,
    pub repeats: Vec<f64>,
}

/// Relative spread of the repeats: interquartile range over median.
fn spread(repeats: &[f64]) -> f64 {
    match quartiles(repeats) {
        Some((q1, q3)) => ((q3 - q1) / median(repeats)).abs(),
        None => 0.0,
    }
}

fn overlap(a: &[f64], b: &[f64]) -> bool {
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    a_lo <= b_hi && b_lo <= a_hi
}

/// How much worse `new` is than `base` as a share of `base` (negative =
/// better), and the verdict against `bound`.
pub fn judge(better: Better, bound: Option<f64>, base: &Side, new: &Side) -> (f64, Verdict) {
    let rel = (new.value - base.value) / base.value.abs();
    let worse_by = if better == Better::Lower { rel } else { -rel };
    let Some(bound) = bound else {
        return (worse_by, Verdict::Info);
    };
    let noisy = spread(&base.repeats).max(spread(&new.repeats)) > bound
        && overlap(&base.repeats, &new.repeats);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::NoChange
    };
    (worse_by, verdict)
}

fn side(metric: &JsonValue) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let repeats = metric
        .get("repeats")
        .and_then(JsonValue::as_array)
        .map_or(Vec::new(), |a| {
            a.iter().filter_map(JsonValue::as_f64).collect()
        });
    Some(Side { value, repeats })
}

fn failed_share(workload: &JsonValue) -> f64 {
    let get = |k: &str| workload.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when B regressed (a `worse`
/// end-to-end row, or a higher failed share on some workload).
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &JsonValue| match doc.get("workloads") {
        Some(JsonValue::Object(m)) => Ok(m.clone()),
        _ => Err("not a result set (no \"workloads\" object)".to_string()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let defs: Vec<MetricDef> = end_to_end_defs()
        .into_iter()
        .chain(per_layer_defs())
        .collect();
    let stamp = |doc: &JsonValue, k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "A: {path_a}  ({} @ {})",
        stamp(&a, "date"),
        stamp(&a, "git_commit")
    );
    println!(
        "B: {path_b}  ({} @ {})",
        stamp(&b, "date"),
        stamp(&b, "git_commit")
    );
    println!(
        "{:<12} {:<34} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B worse by", "bound"
    );
    let mut regressed = false;
    for (name, work_a) in &wa {
        let Some(work_b) = wb.get(name) else { continue };
        for d in &defs {
            let metric =
                |w: &JsonValue| w.get("metrics").and_then(|m| m.get(&d.name)).and_then(side);
            let (Some(base), Some(new)) = (metric(work_a), metric(work_b)) else {
                continue;
            };
            let (worse_by, verdict) = judge(d.better, d.bound, &base, &new);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{:<12} {:<34} {:>13.5} {:>13.5} {:>+8.2}% {:>7}  {}",
                name,
                d.name,
                base.value,
                new.value,
                worse_by * 100.0,
                d.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                verdict.as_str()
            );
        }
        let (fa, fb) = (failed_share(work_a), failed_share(work_b));
        if fb > fa {
            println!("{name:<12} failed share rose from {fa:.4} to {fb:.4}  worse");
            regressed = true;
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(better: Better, base: (f64, &[f64]), new: (f64, &[f64])) -> Verdict {
        let side = |(value, repeats): (f64, &[f64])| Side {
            value,
            repeats: repeats.to_vec(),
        };
        judge(better, Some(0.08), &side(base), &side(new)).1
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        use Better::*;
        let tight = [10.0, 10.1, 9.9, 10.05];
        // 20 % slower, tight runs: worse. 20 % faster: better.
        assert_eq!(
            judged(Lower, (10.0, &tight), (12.0, &[12.0, 12.1, 11.9])),
            Verdict::Worse
        );
        assert_eq!(
            judged(Lower, (10.0, &tight), (8.0, &[8.0, 8.1, 7.9])),
            Verdict::Better
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            judged(Higher, (10.0, &tight), (12.0, &[12.0, 12.1, 11.9])),
            Verdict::Better
        );
        assert_eq!(
            judged(Lower, (10.0, &tight), (10.3, &[10.3, 10.2, 10.4])),
            Verdict::NoChange
        );
        // Wide, overlapping runs cannot resolve a 20 % move...
        let wide = [8.0, 10.0, 12.5, 9.0, 13.0];
        assert_eq!(
            judged(Lower, (10.0, &wide), (12.0, &[12.0, 9.5, 14.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judged(Lower, (10.0, &wide), (10.0, &wide)),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        assert_eq!(
            judged(Lower, (10.0, &wide), (20.0, &[20.0, 19.0, 24.0])),
            Verdict::Worse
        );
        // Deterministic metrics have no repeats: the bound alone decides.
        assert_eq!(judged(Higher, (3.5, &[]), (3.1, &[])), Verdict::Worse);
        assert_eq!(judged(Higher, (3.5, &[]), (3.5, &[])), Verdict::NoChange);
        // Unbounded (per-layer) metrics are never judged.
        let side = |value| Side {
            value,
            repeats: vec![],
        };
        assert_eq!(judge(Lower, None, &side(1.0), &side(9.0)).1, Verdict::Info);
    }
}
