//! The device-kernel schedule of one QD step.
//!
//! This module is the single source of truth connecting the numerical
//! propagator to the `xe-gpu` performance model: it enumerates, for a
//! given system size and precision, exactly the kernels
//! [`crate::propagator::qd_step`] launches — five stencil sweeps (four
//! Taylor applications of H plus the kinetic sweep of `calc_energy`), the
//! current/potential reductions, and the nine BLAS calls. The Figure 3a
//! harness prices this schedule at the paper's full 40/135-atom sizes
//! without executing the arithmetic; the accuracy runner executes the same
//! structure numerically at reduced size.

use crate::state::LfdParams;
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::ComputeMode;
use xe_gpu::kernels::{KernelDesc, StreamKernel, STENCIL_BW_EFF};

/// Precision configuration of an LFD run, as in the paper's sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LfdPrecision {
    /// Everything at FP64 (the paper's `LFD_ENABLE_MIXED_PRECISION=OFF`
    /// build).
    Fp64,
    /// State at FP32, BLAS calls in the given compute mode (`Standard`
    /// reproduces the paper's FP32 baseline).
    Fp32(ComputeMode),
}

impl LfdPrecision {
    /// Bytes per complex state element.
    pub fn element_bytes(self) -> f64 {
        match self {
            LfdPrecision::Fp64 => 16.0,
            LfdPrecision::Fp32(_) => 8.0,
        }
    }

    /// GEMM element domain.
    pub fn domain(self) -> Domain {
        match self {
            LfdPrecision::Fp64 => Domain::Complex64,
            LfdPrecision::Fp32(_) => Domain::Complex32,
        }
    }

    /// Effective compute mode of the BLAS calls.
    pub fn mode(self) -> ComputeMode {
        match self {
            LfdPrecision::Fp64 => ComputeMode::Standard,
            LfdPrecision::Fp32(m) => m,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            LfdPrecision::Fp64 => "FP64",
            LfdPrecision::Fp32(m) => m.label(),
        }
    }

    /// The seven configurations of Figure 3a, in the paper's order.
    pub fn figure3a_set() -> [LfdPrecision; 7] {
        [
            LfdPrecision::Fp64,
            LfdPrecision::Fp32(ComputeMode::Standard),
            LfdPrecision::Fp32(ComputeMode::FloatToBf16),
            LfdPrecision::Fp32(ComputeMode::FloatToBf16x2),
            LfdPrecision::Fp32(ComputeMode::FloatToBf16x3),
            LfdPrecision::Fp32(ComputeMode::FloatToTf32),
            LfdPrecision::Fp32(ComputeMode::Complex3m),
        ]
    }
}

/// System dimensions relevant to the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemShape {
    /// Grid points (`N_grid`).
    pub n_grid: usize,
    /// Orbitals (`N_orb`).
    pub n_orb: usize,
    /// Occupied orbitals (`N_occ`).
    pub n_occ: usize,
}

impl SystemShape {
    /// Extracts the shape from run parameters.
    pub fn of(params: &LfdParams) -> SystemShape {
        SystemShape { n_grid: params.mesh.len(), n_orb: params.n_orb, n_occ: params.n_occ }
    }

    /// The paper's 40-atom lead-titanate system (Table V).
    pub fn pto40() -> SystemShape {
        SystemShape { n_grid: 64 * 64 * 64, n_orb: 256, n_occ: 128 }
    }

    /// The paper's 135-atom lead-titanate system (Table V).
    pub fn pto135() -> SystemShape {
        SystemShape { n_grid: 96 * 96 * 96, n_orb: 1024, n_occ: 432 }
    }
}

/// Effective HBM passes of one high-order stencil sweep over the state:
/// the ±4 x-taps reach across planes larger than L2, so the read side
/// streams ~7 effective passes, plus the accumulate read and the write.
const STENCIL_PASSES: f64 = 9.0;

/// Occupancy derating for small problems: a sweep over `w` state elements
/// only saturates the stack's bandwidth once `w` comfortably exceeds the
/// thread capacity.
fn occupancy(w: f64) -> f64 {
    w / (w + 3.0e7)
}

/// Builds the device-kernel schedule of one QD step.
pub fn qd_step_schedule(shape: SystemShape, precision: LfdPrecision) -> Vec<KernelDesc> {
    qd_step_schedule_with_policy(shape, precision, &crate::policy::PrecisionPolicy::Ambient)
}

/// [`qd_step_schedule`] with a per-call-site [`crate::policy::PrecisionPolicy`]:
/// each of the nine GEMMs gets the mode its site is assigned, so mixed-
/// precision configurations can be priced at paper scale.
pub fn qd_step_schedule_with_policy(
    shape: SystemShape,
    precision: LfdPrecision,
    policy: &crate::policy::PrecisionPolicy,
) -> Vec<KernelDesc> {
    let SystemShape { n_grid, n_orb, n_occ } = shape;
    let w = (n_grid * n_orb) as f64; // complex state elements
    let eb = precision.element_bytes();
    let fp64 = matches!(precision, LfdPrecision::Fp64);
    let occ_f = occupancy(w);
    let domain = precision.domain();
    let mode = precision.mode();

    let stencil = |name: &'static str, flops_per_elem: f64| {
        let mut k = StreamKernel::stencil(name, w, eb, STENCIL_PASSES, flops_per_elem, fp64);
        k.bandwidth_efficiency = STENCIL_BW_EFF * occ_f;
        KernelDesc::Stream(k)
    };
    let pointwise = |name: &'static str, passes: f64, flops_per_elem: f64| {
        let mut k = StreamKernel::pointwise(name, w, eb, passes, flops_per_elem, fp64);
        k.bandwidth_efficiency *= occ_f;
        KernelDesc::Stream(k)
    };
    let site_mode = |site: crate::policy::CallSite| match precision {
        // An FP64 build runs everything at FP64 regardless of policy.
        LfdPrecision::Fp64 => ComputeMode::Standard,
        LfdPrecision::Fp32(_) => policy.mode_for(site).unwrap_or(mode),
    };
    let gemm = |name: &'static str, site: crate::policy::CallSite, m: usize, n: usize, k: usize| {
        KernelDesc::Gemm(name, GemmDesc { domain, m, n, k, mode: site_mode(site) })
    };

    let n_virt = n_orb - n_occ;
    vec![
        // Local propagation: 4 Taylor applications of H.
        stencil("taylor_h_apply_1", 180.0),
        stencil("taylor_h_apply_2", 180.0),
        stencil("taylor_h_apply_3", 180.0),
        stencil("taylor_h_apply_4", 180.0),
        // Nonlocal correction (nlp_prop): BLAS 1-3.
        gemm("nlp_project", crate::policy::CallSite::NlpProject, n_orb, n_orb, n_grid),
        gemm("nlp_phase", crate::policy::CallSite::NlpPhase, n_orb, n_orb, n_orb),
        gemm("nlp_expand", crate::policy::CallSite::NlpExpand, n_grid, n_orb, n_orb),
        // calc_energy: kinetic sweep + BLAS 4-6 + potential reduction.
        stencil("energy_kinetic_apply", 150.0),
        gemm("energy_kinetic_subspace", crate::policy::CallSite::EnergyKinetic, n_orb, n_orb, n_grid),
        gemm("energy_nonlocal_subspace", crate::policy::CallSite::EnergyNonlocal, n_orb, n_orb, n_orb),
        gemm("energy_eexc_subspace", crate::policy::CallSite::EnergyEexc, n_orb, n_orb, n_orb),
        pointwise("energy_potential_reduce", 1.25, 10.0),
        // remap_occ: BLAS 7-8.
        gemm("remap_projection", crate::policy::CallSite::RemapProjection, n_occ, n_virt.max(1), n_grid),
        gemm("remap_weights", crate::policy::CallSite::RemapWeights, n_virt.max(1), n_virt.max(1), n_occ),
        // Shadow dynamics: BLAS 9.
        gemm("shadow_update", crate::policy::CallSite::ShadowUpdate, n_orb, n_orb, n_orb),
        // Current density + induced-field update.
        stencil("current_density", 40.0),
        pointwise("field_update", 0.01, 4.0),
    ]
}

/// Prices one QD step with the given device model, returning total
/// seconds (also recording each kernel into `tracer` when provided).
pub fn price_qd_step(
    model: &xe_gpu::XeStackModel,
    schedule: &[KernelDesc],
    mut tracer: Option<&mut xe_gpu::Tracer>,
) -> f64 {
    let mut total = 0.0;
    for k in schedule {
        let t = match k {
            KernelDesc::Gemm(_, desc) => model.gemm_seconds(desc),
            KernelDesc::Stream(s) => model.stream_seconds(s),
        };
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(k.name(), t);
        }
        total += t;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xe_gpu::{XeStackModel, MAX_1550_STACK};

    fn model() -> XeStackModel {
        XeStackModel::new(MAX_1550_STACK)
    }

    fn step_seconds(shape: SystemShape, p: LfdPrecision) -> f64 {
        price_qd_step(&model(), &qd_step_schedule(shape, p), None)
    }

    #[test]
    fn schedule_contains_exactly_nine_gemms() {
        let sched = qd_step_schedule(SystemShape::pto40(), LfdPrecision::Fp32(ComputeMode::Standard));
        let gemms = sched.iter().filter(|k| matches!(k, KernelDesc::Gemm(..))).count();
        assert_eq!(gemms, 9, "artifact: each QD step contains 9 BLAS calls");
    }

    #[test]
    fn fig3a_135_atom_absolute_times() {
        // Paper §V-C: "over 2800 seconds at FP64 precision, 1472 seconds
        // at FP32, and 972 seconds when using the BF16 compute mode" for
        // 500 QD steps of the 135-atom system. The FP32 point anchors the
        // calibration; FP64 and BF16 are emergent. Bands: FP32 ±20%, FP64
        // ±30%, BF16 ±25% — the tolerances `REPRO.json`'s fig3a rows carry.
        let s = SystemShape::pto135();
        let t32 = 500.0 * step_seconds(s, LfdPrecision::Fp32(ComputeMode::Standard));
        let t64 = 500.0 * step_seconds(s, LfdPrecision::Fp64);
        let tbf = 500.0 * step_seconds(s, LfdPrecision::Fp32(ComputeMode::FloatToBf16));
        assert!((1472.0 * 0.8..=1472.0 * 1.2).contains(&t32), "FP32 500-step time {t32}");
        assert!((2800.0 * 0.7..=2800.0 * 1.3).contains(&t64), "FP64 500-step time {t64}");
        assert!((972.0 * 0.75..=972.0 * 1.25).contains(&tbf), "BF16 500-step time {tbf}");
    }

    #[test]
    fn fig3a_135_atom_mode_ordering() {
        // Artifact A1: fastest BF16, then TF32, BF16X2, BF16X3,
        // Complex_3M, FP32, FP64.
        let s = SystemShape::pto135();
        let times: Vec<(String, f64)> = LfdPrecision::figure3a_set()
            .iter()
            .map(|&p| (p.label().to_string(), step_seconds(s, p)))
            .collect();
        let get = |label: &str| times.iter().find(|(l, _)| l == label).expect("label").1;
        let order = ["BF16", "TF32", "BF16x2", "BF16x3", "Complex_3m", "FP32", "FP64"];
        for w in order.windows(2) {
            assert!(
                get(w[0]) < get(w[1]),
                "{} ({}) should be faster than {} ({})",
                w[0],
                get(w[0]),
                w[1],
                get(w[1])
            );
        }
    }

    #[test]
    fn fig3a_40_atom_modes_change_little() {
        // Paper: "In the 40 atom system, very little performance change is
        // observed between FP32 and the runs with different BLAS compute
        // modes" while FP64 is clearly slower.
        let s = SystemShape::pto40();
        let t32 = step_seconds(s, LfdPrecision::Fp32(ComputeMode::Standard));
        for mode in ComputeMode::ALTERNATIVE {
            let t = step_seconds(s, LfdPrecision::Fp32(mode));
            let rel = (t32 - t).abs() / t32;
            assert!(rel < 0.15, "{mode:?} changes 40-atom time by {rel}");
        }
        let t64 = step_seconds(s, LfdPrecision::Fp64);
        assert!(t64 / t32 > 1.5, "FP64/FP32 at 40 atoms only {}", t64 / t32);
    }

    #[test]
    fn bf16_speedup_at_135_atoms_matches_paper_band() {
        let s = SystemShape::pto135();
        let t32 = step_seconds(s, LfdPrecision::Fp32(ComputeMode::Standard));
        let tbf = step_seconds(s, LfdPrecision::Fp32(ComputeMode::FloatToBf16));
        let speedup = t32 / tbf;
        // Paper quotes 1.35x in the abstract and 1472/972 = 1.51x in §V-C.
        assert!((1.3..=1.7).contains(&speedup), "end-to-end BF16 speedup {speedup}");
    }

    #[test]
    fn pricing_records_into_tracer() {
        let mut tracer = xe_gpu::Tracer::new();
        let sched = qd_step_schedule(SystemShape::pto40(), LfdPrecision::Fp32(ComputeMode::Standard));
        let total = price_qd_step(&model(), &sched, Some(&mut tracer));
        assert_eq!(tracer.event_count(), sched.len());
        assert!((tracer.total_seconds() - total).abs() < 1e-12);
    }

    #[test]
    fn schedule_scales_with_system() {
        let small = step_seconds(SystemShape::pto40(), LfdPrecision::Fp32(ComputeMode::Standard));
        let large = step_seconds(SystemShape::pto135(), LfdPrecision::Fp32(ComputeMode::Standard));
        assert!(large > 5.0 * small, "135-atom step must dwarf 40-atom step");
    }
}
