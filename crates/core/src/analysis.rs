//! Deviation-from-reference analysis (Figures 1 and 2).
//!
//! The paper's accuracy results plot, per compute mode, the difference
//! between an observable's trajectory and the FP32 reference trajectory
//! over simulation time — with "the exact same computations performed in
//! each" run so that the BLAS mode is the only varying factor. This
//! module aligns two run records and produces those series plus summary
//! statistics.

use dcmesh_lfd::StepObservables;

/// Which observable a deviation series tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Number of excited electrons (Figure 1a).
    Nexc,
    /// Average current density (Figures 1b and 2).
    Javg,
    /// Kinetic energy (Figure 1c).
    Ekin,
    /// Excitation energy.
    Eexc,
    /// Total energy.
    Etot,
}

impl Metric {
    /// Extracts the metric from a record.
    pub fn get(self, o: &StepObservables) -> f64 {
        match self {
            Metric::Nexc => o.nexc,
            Metric::Javg => o.javg,
            Metric::Ekin => o.ekin,
            Metric::Eexc => o.eexc,
            Metric::Etot => o.etot,
        }
    }

    /// The three metrics of Figure 1, in the paper's panel order.
    pub const FIGURE1: [Metric; 3] = [Metric::Nexc, Metric::Javg, Metric::Ekin];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Nexc => "nexc",
            Metric::Javg => "javg",
            Metric::Ekin => "ekin",
            Metric::Eexc => "eexc",
            Metric::Etot => "etot",
        }
    }
}

/// The largest of `values`, from 0 — NaN if any value is NaN, where
/// `fold(0.0, f64::max)` would drop it and report a diverged run as
/// deviation 0.
pub fn nan_max(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |m, v| if m.is_nan() || v.is_nan() { f64::NAN } else { m.max(v) })
}

/// One deviation point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviationPoint {
    /// Time in femtoseconds.
    pub time_fs: f64,
    /// `|x_mode − x_ref|`.
    pub abs_deviation: f64,
    /// Reference value at the same step (for relative error).
    pub reference: f64,
}

/// The deviation series of one metric for one mode.
#[derive(Clone, Debug)]
pub struct DeviationSeries {
    /// Metric tracked.
    pub metric: Metric,
    /// Points over simulation time.
    pub points: Vec<DeviationPoint>,
}

impl DeviationSeries {
    /// Builds the series from a run and its reference. Records are
    /// aligned by step index; both runs must have recorded the same
    /// steps ("the exact same computations were performed in each").
    pub fn build(metric: Metric, run: &[StepObservables], reference: &[StepObservables]) -> DeviationSeries {
        assert_eq!(run.len(), reference.len(), "runs recorded different step counts");
        let points = run
            .iter()
            .zip(reference)
            .map(|(a, b)| {
                assert_eq!(a.step, b.step, "misaligned records");
                DeviationPoint {
                    time_fs: b.time_fs,
                    abs_deviation: (metric.get(a) - metric.get(b)).abs(),
                    reference: metric.get(b),
                }
            })
            .collect();
        DeviationSeries { metric, points }
    }

    /// Maximum absolute deviation over the run.
    pub fn max_abs(&self) -> f64 {
        nan_max(self.points.iter().map(|p| p.abs_deviation))
    }

    /// Final-time absolute deviation.
    pub fn final_abs(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.abs_deviation)
    }

    /// Maximum deviation relative to the reference magnitude (the paper's
    /// "deviations relative to the absolute values ... in the order of
    /// 1%" check).
    pub fn max_relative(&self) -> f64 {
        nan_max(
            self.points
                .iter()
                .filter(|p| p.reference.abs() > 0.0)
                .map(|p| p.abs_deviation / p.reference.abs()),
        )
    }

    /// log₁₀ of the deviations (Figure 2's y-axis); zero deviations clamp
    /// to the given floor.
    pub fn log10_series(&self, floor: f64) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.time_fs, p.abs_deviation.max(floor).log10()))
            .collect()
    }

    /// Mean deviation over the last quarter of the run divided by the
    /// mean over the first quarter; NaN for a series too short to have
    /// quarters (fewer than 8 points) or with a NaN in either.
    pub fn growth_ratio(&self) -> f64 {
        let n = self.points.len();
        if n < 8 {
            return f64::NAN;
        }
        let q = n / 4;
        let mean = |s: &[DeviationPoint]| s.iter().map(|p| p.abs_deviation).sum::<f64>() / s.len() as f64;
        mean(&self.points[n - q..]) / mean(&self.points[..q])
    }

    /// Whether the deviation grows over the run — Figure 1's qualitative
    /// "deviation increases over the course of the simulation".
    pub fn grows_over_time(&self) -> bool {
        self.growth_ratio() > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_run(offset: f64, slope: f64) -> Vec<StepObservables> {
        (1..=100u64)
            .map(|i| StepObservables {
                step: i,
                time_fs: i as f64 * 0.01,
                ekin: 10.0 + offset + slope * i as f64,
                epot: -1.0,
                etot: 9.0,
                eexc: 0.0,
                nexc: 0.1,
                aext: 0.0,
                javg: 1e-4,
            })
            .collect()
    }

    #[test]
    fn zero_deviation_for_identical_runs() {
        let a = make_run(0.0, 0.0);
        let s = DeviationSeries::build(Metric::Ekin, &a, &a);
        assert_eq!(s.max_abs(), 0.0);
        assert!(!s.grows_over_time());
    }

    #[test]
    fn constant_offset_detected() {
        let reference = make_run(0.0, 0.0);
        let run = make_run(0.5, 0.0);
        let s = DeviationSeries::build(Metric::Ekin, &run, &reference);
        assert!((s.max_abs() - 0.5).abs() < 1e-12);
        assert!((s.final_abs() - 0.5).abs() < 1e-12);
        assert!((s.max_relative() - 0.05).abs() < 1e-3);
    }

    #[test]
    fn growing_deviation_detected() {
        let reference = make_run(0.0, 0.0);
        let run = make_run(0.0, 0.01);
        let s = DeviationSeries::build(Metric::Ekin, &run, &reference);
        assert!(s.grows_over_time());
        assert!((s.final_abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_nan_point_makes_the_maxima_nan_not_zero() {
        let reference = make_run(0.0, 0.0);
        let mut run = make_run(0.5, 0.0);
        run[40].ekin = f64::NAN;
        let s = DeviationSeries::build(Metric::Ekin, &run, &reference);
        assert!(s.max_abs().is_nan(), "max_abs dropped the NaN: {}", s.max_abs());
        assert!(s.max_relative().is_nan(), "max_relative dropped the NaN: {}", s.max_relative());
        // A NaN that is not the last point must survive the later finite ones.
        assert!(nan_max([1.0, f64::NAN, 2.0].into_iter()).is_nan());
        assert_eq!(nan_max([1.0, 3.0, 2.0].into_iter()), 3.0);
    }

    #[test]
    fn log_series_clamps_zeros() {
        let a = make_run(0.0, 0.0);
        let s = DeviationSeries::build(Metric::Javg, &a, &a);
        let log = s.log10_series(1e-12);
        assert!(log.iter().all(|&(_, y)| (y + 12.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "different step counts")]
    fn misaligned_runs_rejected() {
        let a = make_run(0.0, 0.0);
        let b = &a[..50];
        DeviationSeries::build(Metric::Ekin, &a, b);
    }

    #[test]
    fn figure1_metric_set() {
        assert_eq!(Metric::FIGURE1.map(|m| m.name()), ["nexc", "javg", "ekin"]);
    }
}
