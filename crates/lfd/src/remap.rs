//! `remap_occ`: remapping wave functions to occupation numbers.
//!
//! The number of excited electrons is the occupied-subspace weight that
//! has leaked into the initially *unoccupied* reference orbitals. By
//! unitarity this can be measured on the virtual block alone, which is
//! exactly the GEMM shape the paper reports in Table VII
//! (`m = N_occ = 128`, `n = N_orb − N_occ`, `k = N_grid`):
//!
//! ```text
//! R   = Φ_occ†(0) · Ψ_virt(t) · ΔV          (N_occ × N_virt × N_grid)
//! W   = R†·R                                 (subspace-sized)
//! nexc = Σ_a f̄ · W_aa
//! ```
//!
//! where `f̄` is the occupation carried per orbital (2 for a closed
//! shell). Both GEMMs run through `mkl-lite`, so `nexc` inherits the
//! active compute mode's rounding — the second observable of Figure 1.

use crate::nonlocal::LfdScalar;
use crate::policy::{CallSite, PrecisionPolicy};
use crate::state::{LfdParams, LfdState};
use dcmesh_numerics::{reduce, Complex};
use mkl_lite::Op;

/// The GEMM dimensions `(m, n, k)` of the remap projection for a given
/// system size — the row generator of paper Table VII.
pub fn remap_gemm_shape(n_grid: usize, n_orb: usize, n_occ: usize) -> (usize, usize, usize) {
    (n_occ, n_orb - n_occ, n_grid)
}

/// Computes the number of excited electrons.
pub fn remap_occ<T: LfdScalar>(params: &LfdParams, state: &LfdState<T>) -> f64 {
    remap_occ_with_policy(params, state, &PrecisionPolicy::Ambient)
}

/// [`remap_occ`] with a per-call-site [`PrecisionPolicy`].
pub fn remap_occ_with_policy<T: LfdScalar>(
    params: &LfdParams,
    state: &LfdState<T>,
    policy: &PrecisionPolicy,
) -> f64 {
    remap_occ_in(params, state, &mut Default::default(), policy)
}

/// [`remap_occ_with_policy`] writing `R` and `W` into the caller's `sub`:
/// no allocation once the buffers have grown to the problem size.
pub(crate) fn remap_occ_in<T: LfdScalar>(
    params: &LfdParams,
    state: &LfdState<T>,
    sub: &mut [Vec<Complex<T>>; 2],
    policy: &PrecisionPolicy,
) -> f64 {
    let n_orb = params.n_orb;
    let n_occ = params.n_occ;
    let n_virt = n_orb - n_occ;
    let ngrid = params.mesh.len();
    if n_virt == 0 {
        // No virtual space: nothing can be excited by construction.
        return 0.0;
    }

    // Strided views: Φ_occ(0) = first n_occ columns of Ψ(0), Ψ_virt(t) =
    // last n_virt columns of Ψ(t). Row-major layout makes both plain
    // leading-dimension tricks.
    let phi_occ0 = &state.psi0; // n_grid × n_occ with ld = n_orb
    let psi_virt = &state.psi[n_occ..]; // n_grid × n_virt with ld = n_orb

    // (1) R = Φ_occ†(0)·Ψ_virt(t)·ΔV — the Table VII call.
    let (m, n, k) = remap_gemm_shape(ngrid, n_orb, n_occ);
    let [r, w] = sub;
    r.resize(m * n, Complex::zero());
    w.resize(n * n, Complex::zero());
    policy.run(CallSite::RemapProjection, || T::gemm(
        Op::ConjTrans,
        Op::None,
        m,
        n,
        k,
        Complex::from_real(T::from_f64(params.mesh.dv())),
        phi_occ0,
        n_orb,
        psi_virt,
        n_orb,
        Complex::zero(),
        r,
        n,
    ));

    // (2) W = R†·R (n_virt × n_virt × n_occ); diag gives per-virtual
    // excited weight.
    policy.run(CallSite::RemapWeights, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n,
        n,
        m,
        Complex::one(),
        r,
        n,
        r,
        n,
        Complex::zero(),
        w,
        n,
    ));

    let per_orbital_occ = 2.0;
    reduce::sum_with(n, |a| per_orbital_occ * w[a * n + a].re.to_f64())
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
            mesh: Mesh3::cubic(9, 0.6),
            n_orb: 8,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.2,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn table_vii_shapes() {
        // Paper Table VII, 40-atom system (N_grid = 64³ = 262144,
        // N_occ = 128).
        assert_eq!(remap_gemm_shape(262_144, 256, 128), (128, 128, 262_144));
        assert_eq!(remap_gemm_shape(262_144, 1024, 128), (128, 896, 262_144));
        assert_eq!(remap_gemm_shape(262_144, 2048, 128), (128, 1920, 262_144));
        // The paper quotes n = 3978 for N_orb = 4096 (a handful of
        // orbitals dropped in their run); the ideal shape is 3968.
        assert_eq!(remap_gemm_shape(262_144, 4096, 128), (128, 3968, 262_144));
    }

    #[test]
    fn zero_at_t0() {
        let p = params();
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let nexc = remap_occ(&p, &st);
        assert!(nexc.abs() < 1e-12, "nexc at t=0 must vanish, got {nexc}");
    }

    #[test]
    fn full_swap_excites_all_electrons() {
        // Swap an occupied orbital into a virtual column: its 2 electrons'
        // worth of occupied-reference weight now sits in the virtual block.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let n_orb = p.n_orb;
        for g in 0..p.mesh.len() {
            let row = &mut st.psi[g * n_orb..(g + 1) * n_orb];
            row.swap(0, p.n_occ); // occupied column 0 <-> first virtual
        }
        let nexc = remap_occ(&p, &st);
        assert!((nexc - 2.0).abs() < 1e-10, "expected 2 excited electrons, got {nexc}");
    }

    #[test]
    fn partial_mixing_gives_fractional_nexc() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let n_orb = p.n_orb;
        // Rotate occupied 0 and virtual n_occ by angle θ.
        let theta = 0.3f64;
        let (c, s) = (theta.cos(), theta.sin());
        for g in 0..p.mesh.len() {
            let row = &mut st.psi[g * n_orb..(g + 1) * n_orb];
            let a = row[0];
            let b = row[p.n_occ];
            row[0] = a.scale(c) + b.scale(s);
            row[p.n_occ] = b.scale(c) - a.scale(s);
        }
        let nexc = remap_occ(&p, &st);
        let expect = 2.0 * s * s;
        assert!((nexc - expect).abs() < 1e-10, "nexc {nexc} vs {expect}");
    }

    #[test]
    fn nexc_bounded_by_electron_count() {
        let p = params();
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let nexc = remap_occ(&p, &st);
        assert!(nexc >= -1e-12 && nexc <= p.n_electrons());
    }

    #[test]
    fn no_virtuals_means_no_excitation() {
        let mut p = params();
        p.n_occ = p.n_orb;
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        assert_eq!(remap_occ(&p, &st), 0.0);
    }

    #[test]
    fn mode_sensitivity() {
        let p = params();
        let v = cosine_potential::<f32>(&p.mesh, 0.1);
        let mut st = LfdState::<f32>::initialize(&p, v);
        // Mix some occupied weight into the virtual block so nexc != 0.
        let n_orb = p.n_orb;
        for g in 0..p.mesh.len() {
            let row = &mut st.psi[g * n_orb..(g + 1) * n_orb];
            let a = row[1];
            row[p.n_occ + 1] = row[p.n_occ + 1].scale(0.8) + a.scale(0.6);
        }
        let std = mkl_lite::with_compute_mode(ComputeMode::Standard, || remap_occ(&p, &st));
        let bf = mkl_lite::with_compute_mode(ComputeMode::FloatToBf16, || remap_occ(&p, &st));
        assert_ne!(std, bf, "nexc insensitive to compute mode");
        assert!((std - bf).abs() / std < 0.05, "BF16 nexc error too large");
    }
}
