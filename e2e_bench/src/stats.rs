//! Order statistics the benchmark reports: the fastest sample, the
//! median, the highest percentile that still has ten samples beyond it,
//! and quartiles for `compare`.

/// Sorts a copy of `values` (total order; the harness never produces NaN
/// timings, and a NaN would sort last rather than panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (panics on an empty sample — every metric the
/// harness reports has at least one).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The fastest sample: what a timing costs on a quiet machine.
///
/// The sandbox is shared, and neighbours add time in bursts that last
/// from seconds to a whole run. Measured over ten runs per workload, the
/// spread (interquartile range over median) of a run's *median* burst
/// time was 4–8 % in a calm hour and 13–21 % in a busy one; of its 10th
/// percentile 2–3 % and 4–15 %; of its minimum 1–2 % and 4–12 %.
/// Interference only ever adds time, so the minimum is the steadiest
/// estimate of the program's own cost, and it is what the end-to-end
/// timings report and their bounds apply to. The median and the tail are
/// printed and stored next to it, so a change that only fattens the tail
/// stays visible.
pub fn floor(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile, by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `compare` computes the
/// same spread the benchmark's acceptance check does. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // 1-based rank k·(n+1)/4; the neighbours are clamped into the
        // sample but the weight is not, so tiny samples extrapolate
        // exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The highest of p75 / p90 / p95 / p99 / p99.9 with at least ten
/// samples beyond it, as `(percent, value)`; `None` under 40 samples,
/// where even p75 has fewer than ten beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile_sorted(&s, p / 100.0)))
}

/// A timing summarised the way every report prints it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        tail: tail_percentile(values),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // n = 6 and n = 20: not even p75 has ten samples above it.
        assert_eq!(tail_percentile(&ramp(6)), None);
        assert_eq!(tail_percentile(&ramp(20)), None);
        // n = 60: p75 leaves 15 beyond, p90 only 6.
        let (p, v) = tail_percentile(&ramp(60)).expect("p75 at n=60");
        assert_eq!(p, 75.0);
        assert!((v - 45.25).abs() < 1e-12, "{v}");
        // n = 100 reaches p90 exactly (10 beyond); n = 200 reaches p95.
        assert_eq!(tail_percentile(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(
            summarize(&ramp(6)),
            Summary {
                median: 3.5,
                tail: None,
                n: 6
            }
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).expect("n >= 2");
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(floor(&[4.0, 1.5, 3.0]), 1.5);
    }
}
