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
        let per_metric = Metric::FIGURE1.map(|metric| sweep.deviations(metric));
        for (i, &mode) in ComputeMode::ALTERNATIVE.iter().enumerate() {
            let maxima = per_metric.each_ref().map(|d| {
                assert_eq!(d[i].0, mode);
                d[i].1.max_abs()
            });
            assert!(maxima.iter().all(|&m| m >= 0.0), "{mode:?}: {maxima:?}");
            // Every alternative mode must differ from FP32 in at least one
            // observable over a driven run.
            assert!(maxima.iter().any(|&m| m > 0.0), "{mode:?} bit-identical to the reference");
        }
    }

    #[test]
    fn deviations_accessor_matches_direct_build() {
        let sweep = run_mode_sweep::<f32>(&tiny(), |_| {}).expect("sweep");
        let (reference, deviations) = (&sweep.reference.records, sweep.deviations(Metric::Ekin));
        for ((mode, via_list), (run_mode, run)) in deviations.iter().zip(&sweep.runs) {
            assert_eq!(mode, run_mode);
            let direct = DeviationSeries::build(Metric::Ekin, &run.records, reference);
            assert_eq!(via_list.max_abs().to_bits(), direct.max_abs().to_bits(), "{mode:?}");
        }
    }
}
