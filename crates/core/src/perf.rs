//! Paper-scale performance assembly on the device model.
//!
//! These functions regenerate the paper's performance artifacts at the
//! *published* problem sizes by pricing the LFD kernel schedule with the
//! `xe-gpu` model — the substitution for the Max 1550 stack the paper
//! measured on. Nothing here executes wave-function arithmetic.

use dcmesh_lfd::schedule::{price_qd_step, qd_step_schedule, LfdPrecision, SystemShape};
use mkl_lite::device::Domain;
use mkl_lite::ComputeMode;
use xe_gpu::{Tracer, XeStackModel, MAX_1550_STACK};

/// One bar of Figure 3a.
#[derive(Clone, Debug)]
pub struct Fig3aPoint {
    /// Precision label (FP64, FP32, BF16, ...).
    pub label: &'static str,
    /// Modelled seconds for 500 QD steps.
    pub seconds_500_steps: f64,
}

/// Figure 3a: time to complete 500 QD steps, per precision, for one
/// system. `supercell_atoms` picks 40 or 135.
pub fn figure3a(shape: SystemShape) -> Vec<Fig3aPoint> {
    let model = XeStackModel::new(MAX_1550_STACK);
    LfdPrecision::figure3a_set()
        .iter()
        .map(|&p| Fig3aPoint {
            label: p.label(),
            seconds_500_steps: 500.0 * price_qd_step(&model, &qd_step_schedule(shape, p), None),
        })
        .collect()
}

/// One curve point of Figure 3b: BLAS speedup vs FP32 for the
/// `remap_occ` GEMM at a given orbital count.
#[derive(Clone, Debug)]
pub struct Fig3bPoint {
    /// Orbital count (x-axis).
    pub n_orb: usize,
    /// GEMM dimensions (Table VII row).
    pub mnk: (usize, usize, usize),
    /// Modelled speedup vs FP32.
    pub speedup: f64,
}

/// The orbital counts of the paper's 40-atom sweep.
pub const FIG3B_ORBITALS: [usize; 4] = [256, 1024, 2048, 4096];

/// Figure 3b: per-call speedups across the 40-atom orbital sweep for one
/// compute mode.
pub fn figure3b(mode: ComputeMode) -> Vec<Fig3bPoint> {
    let model = XeStackModel::new(MAX_1550_STACK);
    let n_grid = 64 * 64 * 64;
    let n_occ = 128;
    FIG3B_ORBITALS
        .iter()
        .map(|&n_orb| {
            let (m, n, k) = dcmesh_lfd::remap::remap_gemm_shape(n_grid, n_orb, n_occ);
            Fig3bPoint {
                n_orb,
                mnk: (m, n, k),
                speedup: model.gemm_speedup_vs_fp32(Domain::Complex32, m, n, k, mode),
            }
        })
        .collect()
}

/// One row of Table VI: maximum observed vs theoretical speedup.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Compute mode.
    pub mode: ComputeMode,
    /// Maximum speedup observed across the sweep.
    pub max_observed: f64,
    /// Peak theoretical speedup (Table II).
    pub theoretical: f64,
}

/// Table VI: max observed BLAS speedups over the Figure 3b sweep.
pub fn table6() -> Vec<Table6Row> {
    ComputeMode::ALTERNATIVE
        .iter()
        .map(|&mode| {
            let max_observed = figure3b(mode)
                .iter()
                .map(|p| p.speedup)
                .fold(0.0, f64::max);
            Table6Row {
                mode,
                max_observed,
                theoretical: MAX_1550_STACK.theoretical_speedup(mode),
            }
        })
        .collect()
}

/// Prices a full 500-step burst into a unitrace-style dump (the artifact
/// A1 workflow: `unitrace -k ../../../bin/dcehd` and read Total L0 Time).
pub fn unitrace_500_steps(shape: SystemShape, precision: LfdPrecision) -> Tracer {
    let model = XeStackModel::new(MAX_1550_STACK);
    let mut tracer = Tracer::new();
    let schedule = qd_step_schedule(shape, precision);
    for _ in 0..500 {
        price_qd_step(&model, &schedule, Some(&mut tracer));
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3a_has_all_seven_bars() {
        let pts = figure3a(SystemShape::pto135());
        assert_eq!(pts.len(), 7);
        let labels: Vec<_> = pts.iter().map(|p| p.label).collect();
        assert!(labels.contains(&"FP64") && labels.contains(&"BF16"));
    }

    #[test]
    fn figure3b_monotone_for_bf16() {
        let pts = figure3b(ComputeMode::FloatToBf16);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].speedup > w[0].speedup, "{pts:?}");
        }
        // Table VII shapes embedded.
        assert_eq!(pts[0].mnk, (128, 128, 262_144));
        assert_eq!(pts[1].mnk, (128, 896, 262_144));
    }

    #[test]
    fn table6_bf16_row_matches_paper() {
        let rows = table6();
        let bf16 = rows.iter().find(|r| r.mode == ComputeMode::FloatToBf16).unwrap();
        assert!((3.4..=4.4).contains(&bf16.max_observed), "BF16 max {}", bf16.max_observed);
        // 419/26 ≈ 16.1; the paper rounds to 16x.
        assert!((bf16.theoretical - 16.0).abs() < 0.2, "{}", bf16.theoretical);
        for r in &rows {
            assert!(r.max_observed <= r.theoretical, "{:?}", r);
            assert!(r.max_observed >= 1.0, "{:?}", r);
        }
    }

    #[test]
    fn unitrace_totals_match_figure3a() {
        let shape = SystemShape::pto40();
        let p = LfdPrecision::Fp32(ComputeMode::Standard);
        let tracer = unitrace_500_steps(shape, p);
        let fig = figure3a(shape);
        let fp32 = fig.iter().find(|x| x.label == "FP32").unwrap();
        assert!(
            (tracer.total_seconds() - fp32.seconds_500_steps).abs() < 1e-9 * fp32.seconds_500_steps,
            "{} vs {}",
            tracer.total_seconds(),
            fp32.seconds_500_steps
        );
        // 17 kernels per step.
        assert_eq!(tracer.event_count(), 500 * 17);
    }
}
