//! `nlp_prop`: the BLASified nonlocal correction (paper Eq. 1).
//!
//! The nonlocal pseudopotential is awkward on the finite-difference mesh,
//! so DCMESH applies it in the vector space spanned by the Kohn–Sham
//! reference orbitals Ψ(0): with `P = Ψ(0)Ψ†(0)·ΔV` a projector
//! (Ψ(0) orthonormal), the propagator factor is exactly
//!
//! ```text
//! e^{−i·dt·v·P} = 1 + (e^{−i·dt·v} − 1)·P
//! ```
//!
//! which is Eq. 1's `Ψ(t) ← Ψ(t) + c·Ψ(0)(Ψ†(0)Ψ(t))` with the complex
//! scalar `c = e^{−i·dt·v} − 1`. Per-orbital strengths `v_i` generalise
//! `c` to a diagonal subspace matrix without changing the GEMM structure.
//!
//! Three BLAS calls implement it (all routed through `mkl-lite`, so the
//! active compute mode applies — this is where the precision study bites):
//!
//! 1. **project** — `C = Ψ†(0)·Ψ(t)·ΔV`  (`n_orb × n_orb × N_grid`)
//! 2. **phase**  — `C ← D·C`, `D = diag(e^{−i dt v_i} − 1)` (subspace-sized)
//! 3. **expand** — `Ψ(t) ← Ψ(t) + Ψ(0)·C`  (`N_grid × n_orb × n_orb`)

use crate::policy::{CallSite, PrecisionPolicy};
use crate::state::{LfdParams, LfdState};
use dcmesh_numerics::{Complex, Real};
use mkl_lite::Op;

/// GEMM dispatch for the two LFD element widths: `f32` state goes through
/// CGEMM (and therefore honours every alternative compute mode), `f64`
/// state through ZGEMM (3M only), exactly mirroring oneMKL's behaviour.
pub trait LfdScalar: Real {
    /// `C ← α·op(A)·op(B) + β·C` on row-major complex matrices.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        transa: Op,
        transb: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: Complex<Self>,
        a: &[Complex<Self>],
        lda: usize,
        b: &[Complex<Self>],
        ldb: usize,
        beta: Complex<Self>,
        c: &mut [Complex<Self>],
        ldc: usize,
    );
}

impl LfdScalar for f32 {
    #[inline]
    fn gemm(
        transa: Op,
        transb: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: Complex<f32>,
        a: &[Complex<f32>],
        lda: usize,
        b: &[Complex<f32>],
        ldb: usize,
        beta: Complex<f32>,
        c: &mut [Complex<f32>],
        ldc: usize,
    ) {
        mkl_lite::cgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
}

impl LfdScalar for f64 {
    #[inline]
    fn gemm(
        transa: Op,
        transb: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: Complex<f64>,
        a: &[Complex<f64>],
        lda: usize,
        b: &[Complex<f64>],
        ldb: usize,
        beta: Complex<f64>,
        c: &mut [Complex<f64>],
        ldc: usize,
    ) {
        mkl_lite::zgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
}

/// Reusable subspace buffers for [`nlp_prop_with_scratch`]: the
/// projection `C`, the diagonal phase matrix `D` and the product `D·C`,
/// all `n_orb × n_orb`. Small individually, but three fresh heap
/// allocations per QD step add up over a 500-step burst — the same
/// steady-state-allocation discipline the BLAS workspace pool enforces
/// one layer down.
#[derive(Clone, Debug, Default)]
pub struct NlpScratch<T: Real> {
    /// The step's projection `C = Ψ†(0)Ψ·ΔV` *before* the phase factor.
    /// Valid after [`nlp_prop_with_scratch`] returns; `calc_energy` and
    /// the shadow update consume it without re-projecting.
    pub projection: Vec<Complex<T>>,
    d: Vec<Complex<T>>,
    dc: Vec<Complex<T>>,
}

/// Applies the nonlocal correction for one QD step (in place on
/// `state.psi`). Returns the subspace projection matrix `C = Ψ†(0)Ψ·ΔV`
/// *before* the phase factor, which `calc_energy` reuses for the nonlocal
/// energy. Uses the globally active compute mode for all three calls.
pub fn nlp_prop<T: LfdScalar>(params: &LfdParams, state: &mut LfdState<T>) -> Vec<Complex<T>> {
    nlp_prop_with_policy(params, state, &PrecisionPolicy::Ambient)
}

/// [`nlp_prop`] with a per-call-site [`PrecisionPolicy`] — the mixed-
/// precision capability the paper defers to future work. Allocates fresh
/// subspace buffers; the run loop uses [`nlp_prop_with_scratch`].
pub fn nlp_prop_with_policy<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    policy: &PrecisionPolicy,
) -> Vec<Complex<T>> {
    let mut scratch = NlpScratch::default();
    nlp_prop_with_scratch(params, state, policy, &mut scratch);
    scratch.projection
}

/// [`nlp_prop_with_policy`] writing into caller-owned [`NlpScratch`]:
/// zero heap allocation once the scratch has reached the problem size.
/// The projection lands in `scratch.projection` instead of a returned
/// `Vec`.
pub fn nlp_prop_with_scratch<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    policy: &PrecisionPolicy,
    scratch: &mut NlpScratch<T>,
) {
    let n_orb = params.n_orb;
    let ngrid = params.mesh.len();
    let dv = Complex::from_real(T::from_f64(params.mesh.dv()));
    let sub = n_orb * n_orb;
    scratch.projection.resize(sub, Complex::zero());
    scratch.d.resize(sub, Complex::zero());
    scratch.dc.resize(sub, Complex::zero());

    // (1) project: C = Ψ†(0) Ψ(t) · ΔV (β = 0 overwrites stale contents).
    let c = &mut scratch.projection;
    policy.run(CallSite::NlpProject, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n_orb,
        n_orb,
        ngrid,
        dv,
        &state.psi0,
        n_orb,
        &state.psi,
        n_orb,
        Complex::zero(),
        c,
        n_orb,
    ));

    // (2) phase: C ← D·C with D = diag(e^{−i dt v_i} − 1), done as a
    // subspace GEMM (DCMESH keeps this on the device as a BLAS call; the
    // diagonal matrix is materialised once per step).
    scratch.d.fill(Complex::zero());
    for i in 0..n_orb {
        let v_i = params.vnl_strength * projector_weight(i, n_orb);
        let phase = Complex::<T>::cis(T::from_f64(-params.dt * v_i)) - Complex::one();
        scratch.d[i * n_orb + i] = phase;
    }
    policy.run(CallSite::NlpPhase, || T::gemm(
        Op::None,
        Op::None,
        n_orb,
        n_orb,
        n_orb,
        Complex::one(),
        &scratch.d,
        n_orb,
        &scratch.projection,
        n_orb,
        Complex::zero(),
        &mut scratch.dc,
        n_orb,
    ));

    // (3) expand: Ψ ← Ψ + Ψ(0)·(D·C)
    policy.run(CallSite::NlpExpand, || T::gemm(
        Op::None,
        Op::None,
        ngrid,
        n_orb,
        n_orb,
        Complex::one(),
        &state.psi0,
        n_orb,
        &scratch.dc,
        n_orb,
        Complex::one(),
        &mut state.psi,
        n_orb,
    ));
}

/// Relative strength of the i-th reference projector. The lowest (most
/// core-like) orbitals couple hardest to the nonlocal pseudopotential;
/// the tail decays smoothly. Normalised so weight(0) = 1.
pub fn projector_weight(i: usize, n_orb: usize) -> f64 {
    let x = i as f64 / n_orb as f64;
    1.0 / (1.0 + 4.0 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::LaserPulse;
    use crate::mesh::Mesh3;
    use crate::state::cosine_potential;
    use mkl_lite::ComputeMode;

    fn params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(9, 0.7),
            n_orb: 6,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.4,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn preserves_orthonormality() {
        // The correction is unitary (projector exponential), so the
        // orbital set must remain orthonormal.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        for _ in 0..25 {
            nlp_prop(&p, &mut st);
        }
        let n = st.electron_count(&p);
        assert!((n - p.n_electrons()).abs() < 1e-9, "electron count drifted: {n}");
    }

    #[test]
    fn identity_when_strength_zero() {
        let mut p = params();
        p.vnl_strength = 0.0;
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let before = st.psi.clone();
        nlp_prop(&p, &mut st);
        for (a, b) in st.psi.iter().zip(&before) {
            assert!((*a - *b).abs() < 1e-13);
        }
    }

    #[test]
    fn projection_matrix_is_identity_at_t0() {
        // At t = 0, Ψ = Ψ(0), so C = Ψ†(0)Ψ(0)ΔV = I.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let c = nlp_prop(&p, &mut st);
        for i in 0..p.n_orb {
            for j in 0..p.n_orb {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = c[i * p.n_orb + j];
                assert!(
                    (got.re - want).abs() < 1e-10 && got.im.abs() < 1e-10,
                    "C[{i},{j}] = {got:?}"
                );
            }
        }
    }

    #[test]
    fn matches_direct_projector_exponential() {
        // For a state inside the reference span, nlp_prop must multiply
        // each reference component by e^{-i dt v_i}.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        nlp_prop(&p, &mut st);
        // Ψ started equal to Ψ0, so column i must now be e^{-i dt v_i} φ_i.
        for o in 0..p.n_orb {
            let v = p.vnl_strength * projector_weight(o, p.n_orb);
            let expect = dcmesh_numerics::C64::cis(-p.dt * v);
            for g in (0..p.mesh.len()).step_by(53) {
                let got = st.psi[g * p.n_orb + o];
                let reference = st.psi0[g * p.n_orb + o] * expect;
                assert!((got - reference).abs() < 1e-10, "orb {o}, g {g}");
            }
        }
    }

    #[test]
    fn f32_bf16_mode_perturbs_but_preserves_norm_scale() {
        let p = params();
        let v = cosine_potential::<f32>(&p.mesh, 0.1);
        let mut st_std = LfdState::<f32>::initialize(&p, v.clone());
        let mut st_bf = LfdState::<f32>::initialize(&p, v);
        mkl_lite::with_compute_mode(ComputeMode::Standard, || {
            nlp_prop(&p, &mut st_std);
        });
        mkl_lite::with_compute_mode(ComputeMode::FloatToBf16, || {
            nlp_prop(&p, &mut st_bf);
        });
        let mut max_d = 0.0f64;
        for (a, b) in st_std.psi.iter().zip(&st_bf.psi) {
            max_d = max_d.max((a.to_c64() - b.to_c64()).abs());
        }
        assert!(max_d > 0.0, "BF16 mode produced identical results — mode not applied?");
        assert!(max_d < 1e-2, "BF16 deviation implausibly large: {max_d}");
        let n = st_bf.electron_count(&p);
        assert!((n - p.n_electrons()).abs() < 1e-2, "norm broke: {n}");
    }

    #[test]
    fn projector_weights_decay() {
        assert_eq!(projector_weight(0, 100), 1.0);
        for i in 1..100 {
            assert!(projector_weight(i, 100) < projector_weight(i - 1, 100));
        }
        assert!(projector_weight(99, 100) > 0.1);
    }
}
