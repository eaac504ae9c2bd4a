//! Mode sweeps: the paper's experimental protocol as a library call.
//!
//! The paper's method is always the same loop — run the identical deck
//! once per compute mode, subtract the FP32 reference, analyse the
//! deviations. This module provides that loop once, with the reference
//! run shared; `dcmesh-bench`'s claims table runs its accuracy deck
//! through it and reads every Figure 1/2 row off the result.

use crate::analysis::{DeviationSeries, Metric};
use crate::config::RunConfig;
use crate::error::RunError;
use crate::runner::{run_simulation, RunResult};
use dcmesh_lfd::nonlocal::LfdScalar;
use mkl_lite::{with_compute_mode, ComputeMode};

/// The outcome of one full mode sweep.
#[derive(Clone, Debug)]
pub struct ModeSweep {
    /// The FP32 reference run.
    pub reference: RunResult,
    /// One run per alternative mode, in [`ComputeMode::ALTERNATIVE`] order.
    pub runs: Vec<(ComputeMode, RunResult)>,
}

impl ModeSweep {
    /// Deviation series of `metric` for every alternative mode.
    pub fn deviations(&self, metric: Metric) -> Vec<(ComputeMode, DeviationSeries)> {
        self.runs
            .iter()
            .map(|(mode, run)| {
                (*mode, DeviationSeries::build(metric, &run.records, &self.reference.records))
            })
            .collect()
    }

    /// Max |deviation| of `metric` for one mode, or `None` if the mode
    /// is not part of the sweep.
    pub fn max_deviation(&self, mode: ComputeMode, metric: Metric) -> Option<f64> {
        self.runs.iter().find(|(m, _)| *m == mode).map(|(_, run)| {
            DeviationSeries::build(metric, &run.records, &self.reference.records).max_abs()
        })
    }

    /// The summary rows of Figure 1: `(mode, max|Δnexc|, max|Δjavg|,
    /// max|Δekin|)`.
    pub fn figure1_summary(&self) -> Vec<(ComputeMode, f64, f64, f64)> {
        self.runs
            .iter()
            .map(|(mode, run)| {
                let max =
                    |metric| DeviationSeries::build(metric, &run.records, &self.reference.records)
                        .max_abs();
                (*mode, max(Metric::Nexc), max(Metric::Javg), max(Metric::Ekin))
            })
            .collect()
    }
}

/// Runs the deck once at FP32 and once per alternative compute mode —
/// "the exact same computations were performed in each, to ensure a fair
/// comparison" (§V-A). `progress` is invoked with each configuration's
/// label before its run starts (for harness logging; pass `|_| {}` to
/// silence).
pub fn run_mode_sweep<T: LfdScalar>(
    cfg: &RunConfig,
    mut progress: impl FnMut(&str),
) -> Result<ModeSweep, RunError> {
    progress("FP32");
    let reference = with_compute_mode(ComputeMode::Standard, || run_simulation::<T>(cfg))?;
    let runs = ComputeMode::ALTERNATIVE
        .iter()
        .map(|&mode| {
            progress(mode.label());
            with_compute_mode(mode, || run_simulation::<T>(cfg)).map(|run| (mode, run))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ModeSweep { reference, runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;

    fn tiny() -> RunConfig {
        let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
        cfg.mesh_points = 10;
        cfg.n_orb = 8;
        cfg.n_occ = 4;
        cfg.total_qd_steps = 30;
        cfg.qd_steps_per_md = 15;
        cfg.laser_duration_fs = 0.015;
        cfg.laser_amplitude = 0.4;
        cfg
    }

    #[test]
    fn sweep_covers_all_modes_and_aligns_records() {
        let mut labels = Vec::new();
        let sweep = run_mode_sweep::<f32>(&tiny(), |l| labels.push(l.to_string())).expect("sweep");
        assert_eq!(sweep.runs.len(), ComputeMode::ALTERNATIVE.len());
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], "FP32");
        for (_, run) in &sweep.runs {
            assert_eq!(run.records.len(), sweep.reference.records.len());
        }
    }

    #[test]
    fn figure1_summary_shape_and_positivity() {
        let sweep = run_mode_sweep::<f32>(&tiny(), |_| {}).expect("sweep");
        let summary = sweep.figure1_summary();
        assert_eq!(summary.len(), 5);
        for (mode, nexc, javg, ekin) in summary {
            assert!(nexc >= 0.0 && javg >= 0.0 && ekin >= 0.0, "{mode:?}");
            // Every alternative mode must differ from FP32 in at least one
            // observable over a driven run.
            assert!(
                nexc > 0.0 || javg > 0.0 || ekin > 0.0,
                "{mode:?} bit-identical to the reference"
            );
        }
    }

    #[test]
    fn deviations_accessor_matches_direct_build() {
        let sweep = run_mode_sweep::<f32>(&tiny(), |_| {}).expect("sweep");
        let via_list = &sweep.deviations(Metric::Ekin)[0];
        let direct = sweep.max_deviation(via_list.0, Metric::Ekin);
        assert_eq!(Some(via_list.1.max_abs()), direct);
        // A mode outside the sweep is None, not a panic.
        assert_eq!(sweep.max_deviation(ComputeMode::Standard, Metric::Ekin), None);
    }
}
