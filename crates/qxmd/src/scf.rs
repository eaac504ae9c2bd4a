//! The FP64 SCF wave-function refresh.
//!
//! Every 500 QD steps DCMESH executes "Self-Consistent Field (SCF) at
//! FP64 to update the wave function ... Updating the wavefunction with
//! FP64 precision prevents the buildup of truncation errors which may
//! otherwise accumulate through the use of lower precision calculations.
//! This is the fundamental reason why the code is able to run with
//! alternative BLAS precision modes" (paper §V). This module implements
//! that mechanism:
//!
//! 1. promote Ψ to complex double,
//! 2. form the overlap `S = Ψ†Ψ` and the subspace matrix `G = Ψ†(H₀Ψ)`
//!    from that *raw* Ψ,
//! 3. Löwdin and Rayleigh–Ritz in the subspace: `T = S^{-1/2}`,
//!    `H_sub = T·G·T`, `H_sub = V·ε·V†`,
//! 4. one rotation `Ψ ← Ψ·(T·V)`, demote back to the LFD element width
//!    and refresh the Ψ(0) reference and its eigenvalues.
//!
//! Orthonormalise-then-diagonalise would rotate Ψ twice (`Ψ·T`, then
//! `·V`) and apply `H₀` to the orthonormalised set. `H₀` is linear, so
//! `(ΨT)†H₀(ΨT) = T·(Ψ†H₀Ψ)·T`: the Löwdin factor moves into the
//! `n_orb × n_orb` subspace and the two rotations fuse into one. Per
//! refresh that is four grid-sized BLAS calls — `zherk` for `S`,
//! `zgemmt` for `G` (Hermitian because `H₀` is), the rotation `zgemm`,
//! `zherk` for `defect_after`; three of the four have Hermitian
//! `n × n` outputs and compute one triangle — a handful of n³ ones, and
//! two `eigh` — every product a `mkl-lite` call recorded under the
//! `qxmd::scf_refresh` phase.
//!
//! The refresh is the error-resetting step, so it checks its own result:
//! the rotated set's measured defect must be finite and under `1e-8`
//! before `state.psi` is written.
//!
//! The subspace Hamiltonian uses the field-free `H₀` (the laser enters
//! only the real-time propagation). Everything here runs on the "CPU
//! side" of the model at full double precision, regardless of the LFD
//! compute mode.

use dcmesh_lfd::hamiltonian::apply_h;
use dcmesh_lfd::state::{LfdParams, LfdState};
use dcmesh_linalg::hermitian::try_eigh;
use dcmesh_linalg::ops::matmul;
use dcmesh_linalg::orth::{inverse_sqrt, orthonormality_defect, overlap, overlap_defect, OrthError};
use dcmesh_numerics::{c64, Complex, Real, C64};
use mkl_lite::workspace::take_scratch;
use mkl_lite::{zgemm, zgemmt, Op, Uplo};
use rayon::prelude::*;

/// Ceiling on [`ScfReport::defect_after`]. A healthy refresh delivers
/// `n·ε`-class defects (≤ 1e-13 on every shipped deck); past this the
/// rotation was corrupted on the way — the inputs already passed the
/// overlap checks — and the refresh refuses to write it.
const MAX_DEFECT_AFTER: f64 = 1e-8;

/// Diagnostics of one SCF refresh.
#[derive(Clone, Debug)]
pub struct ScfReport {
    /// `|Ψ†Ψ·ΔV − I|_max` before the refresh — the accumulated
    /// low-precision drift this refresh absorbed.
    pub defect_before: f64,
    /// Same measure after the refresh (≈ machine epsilon).
    pub defect_after: f64,
    /// Kohn–Sham eigenvalues after diagonalisation (Hartree).
    pub eigenvalues: Vec<f64>,
    /// Max |ΔΨ| the refresh applied (how much correction was needed).
    pub max_correction: f64,
}

/// Performs one FP64 refresh of the propagated orbitals.
///
/// Fails with [`OrthError`] when the orbital overlap matrix has gone
/// numerically singular or the orbitals hold a NaN or an infinity — the
/// signature of a state already destroyed by accumulated low-precision
/// error (or an injected fault) — or when the refreshed set fails its own
/// orthonormality check (`defect_after` not finite or above `1e-8`:
/// [`OrthError::NotOrthonormal`]). The state is left untouched in every
/// such case so a supervisor can roll back to a checkpoint and escalate
/// the compute mode.
pub fn scf_refresh<T: Real>(
    params: &LfdParams,
    state: &mut LfdState<T>,
) -> Result<ScfReport, OrthError> {
    let _span = dcmesh_telemetry::span("scf_refresh")
        .attr("n_orb", dcmesh_telemetry::AttrValue::U64(params.n_orb as u64))
        .enter();
    let _phase = dcmesh_telemetry::phase_scope("qxmd::scf_refresh");
    let n_orb = params.n_orb;
    let ngrid = params.mesh.len();
    let dv = params.mesh.dv();
    let sqrt_dv = dv.sqrt();

    // The two state-sized FP64 arrays come from the calling thread's
    // workspace pool, as the Löwdin panel does: a burst's refresh then
    // reuses the last one's storage instead of mapping fresh pages, and
    // both start on a cache line. (The grid-sized potential and the
    // per-plane maxima stay small heap `Vec`s: checked out of the `f64`
    // pool they would pop a GEMM pack buffer and make the pack regrow
    // another: +2.5 MiB of peak RSS at 64 and 96 orbitals.) Elementwise
    // passes run on the rayon pool, one x-plane of the state per item.
    let plane = ngrid / params.mesh.nx * n_orb;

    // (1) Promote, folding in √ΔV so plain l2 orthonormality equals the
    // physical ⟨·|·⟩ΔV inner product.
    let mut psi64 = take_scratch::<C64>(ngrid * n_orb);
    psi64.par_chunks_mut(plane).enumerate().for_each(|(ix, dst)| {
        for (d, z) in dst.iter_mut().zip(&state.psi[ix * plane..]) {
            *d = c64(z.re.to_f64() * sqrt_dv, z.im.to_f64() * sqrt_dv);
        }
    });

    // (2) The overlap of the raw orbitals: the drift the refresh is about
    // to absorb is read off it, and a singular or non-finite one aborts
    // the refresh before `state.psi` is written.
    let s = overlap(&psi64, ngrid, n_orb);
    let defect_before = overlap_defect(&s, n_orb);
    let s_inv_half = inverse_sqrt(&s, n_orb)?;

    // G = Ψ†(H₀Ψ), also on the raw orbitals.
    let vloc64: Vec<f64> = state.vloc.iter().map(|v| v.to_f64()).collect();
    let mut h_psi = take_scratch::<C64>(ngrid * n_orb);
    apply_h(&params.mesh, n_orb, &vloc64, 0.0, &psi64, &mut h_psi);
    let mut g = vec![C64::zero(); n_orb * n_orb];
    zgemmt(
        Uplo::Upper,
        Op::ConjTrans,
        Op::None,
        n_orb,
        ngrid,
        C64::one(),
        &psi64,
        n_orb,
        &h_psi,
        n_orb,
        C64::zero(),
        &mut g,
        n_orb,
    );

    // (3) H_sub = S^{-1/2}·G·S^{-1/2} is the Hamiltonian in the Löwdin
    // basis. `try_eigh` reads the upper triangle, so averaging it with
    // the conjugated lower one is the symmetrisation.
    let mut h_sub = matmul(&matmul(&s_inv_half, &g, n_orb, n_orb, n_orb), &s_inv_half, n_orb, n_orb, n_orb);
    for i in 0..n_orb {
        for j in i + 1..n_orb {
            h_sub[i * n_orb + j] = (h_sub[i * n_orb + j] + h_sub[j * n_orb + i].conj()).scale(0.5);
        }
    }
    let eig = try_eigh(&h_sub, n_orb)?;

    // (4) Ψ ← Ψ·(S^{-1/2}·V): orthonormalisation and Ritz rotation in
    // one product, written over H₀Ψ, which is dead by now.
    let rotation = matmul(&s_inv_half, &eig.eigenvectors, n_orb, n_orb, n_orb);
    let mut rotated = h_psi;
    zgemm(
        Op::None,
        Op::None,
        ngrid,
        n_orb,
        n_orb,
        C64::one(),
        &psi64,
        n_orb,
        &rotation,
        n_orb,
        C64::zero(),
        &mut rotated,
        n_orb,
    );
    let defect_after = orthonormality_defect(&rotated, ngrid, n_orb);
    if !defect_after.is_finite() || defect_after > MAX_DEFECT_AFTER {
        return Err(OrthError::NotOrthonormal { defect: defect_after });
    }

    // Demote (undoing the √ΔV fold) and refresh the reference. Each
    // x-plane keeps its own largest correction; a max is the same
    // whichever order the planes are folded in.
    let inv_sqrt_dv = 1.0 / sqrt_dv;
    let mut plane_max = vec![0.0f64; params.mesh.nx];
    state.psi.par_chunks_mut(plane).zip(plane_max.par_iter_mut()).enumerate().for_each(
        |(ix, (dst, max))| {
            for (dst, src) in dst.iter_mut().zip(&rotated[ix * plane..]) {
                let new = Complex {
                    re: T::from_f64(src.re * inv_sqrt_dv),
                    im: T::from_f64(src.im * inv_sqrt_dv),
                };
                let d = (dst.re.to_f64() - new.re.to_f64()).abs()
                    .max((dst.im.to_f64() - new.im.to_f64()).abs());
                *max = max.max(d);
                *dst = new;
            }
        },
    );
    let max_correction = plane_max.iter().fold(0.0f64, |m, d| m.max(*d));
    state.refresh_reference();
    state.eps = eig.eigenvalues.clone();

    Ok(ScfReport {
        defect_before,
        defect_after,
        eigenvalues: eig.eigenvalues,
        max_correction,
    })
}

/// Initial SCF: iterates refresh passes until the eigenvalues settle,
/// producing the Kohn–Sham ground state the dynamics starts from ("the
/// wavefunction is initialized by the SCF method", paper §IV-C). With a
/// fixed (density-independent) Hamiltonian two passes converge exactly;
/// the loop guards the general case.
pub fn initial_scf<T: Real>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    max_iterations: usize,
    tolerance: f64,
) -> Result<ScfReport, OrthError> {
    assert!(max_iterations >= 1);
    let _span = dcmesh_telemetry::span("initial_scf").enter();
    let _phase = dcmesh_telemetry::phase_scope("qxmd::initial_scf");
    let mut report = scf_refresh(params, state)?;
    for _ in 1..max_iterations {
        let next = scf_refresh(params, state)?;
        let delta = next
            .eigenvalues
            .iter()
            .zip(&report.eigenvalues)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        report = next;
        if delta < tolerance {
            break;
        }
    }
    // Ground-state occupations fill from the bottom of the new spectrum;
    // plane-wave initialisation already orders them, the rotation keeps
    // the convention.
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_lfd::propagator::{qd_step, QdScratch};
    use dcmesh_lfd::state::cosine_potential;
    use dcmesh_lfd::{LaserPulse, Mesh3};
    use mkl_lite::{with_compute_mode, ComputeMode};

    fn params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(9, 0.7),
            n_orb: 6,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.1,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn refresh_restores_orthonormality() {
        let p = params();
        let mut st = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.3));
        // Damage the state with a noticeable perturbation.
        for (i, z) in st.psi.iter_mut().enumerate() {
            if i % 7 == 0 {
                z.re += 1e-3;
            }
        }
        let rep = scf_refresh(&p, &mut st).expect("overlap healthy");
        assert!(rep.defect_before > 1e-5, "perturbation not visible: {}", rep.defect_before);
        assert!(rep.defect_after < 1e-10, "refresh left defect {}", rep.defect_after);
        let n = st.electron_count(&p);
        assert!((n - p.n_electrons()).abs() < 1e-4, "electron count {n}");
    }

    #[test]
    fn initial_scf_finds_eigenstates() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.3));
        let rep = initial_scf(&p, &mut st, 4, 1e-12).expect("overlap healthy");
        // Eigenvalues sorted ascending and reproducible under one more
        // refresh (fixed point).
        for w in rep.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let rep2 = scf_refresh(&p, &mut st).expect("overlap healthy");
        for (a, b) in rep.eigenvalues.iter().zip(&rep2.eigenvalues) {
            assert!((a - b).abs() < 1e-9, "not converged: {a} vs {b}");
        }
        // Note: max_correction need not vanish — the plane-wave spectrum
        // is degenerate, and any rotation within a degenerate eigenspace
        // is a fixed point of the refresh.
        assert!(rep2.defect_after < 1e-10);
    }

    #[test]
    fn scf_reduces_field_free_excitation() {
        // Ritz states of H are far closer to stationary than the raw
        // plane waves: under field-free propagation, the SCF-initialised
        // run must show much less spurious "excitation" from the
        // potential's orbital coupling.
        let p = params();
        let run = |do_scf: bool| -> f64 {
            let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.3));
            if do_scf {
                initial_scf(&p, &mut st, 4, 1e-12).expect("overlap healthy");
            }
            let mut scratch = QdScratch::new(&p);
            let mut last = qd_step(&p, &mut st, &mut scratch);
            for _ in 0..30 {
                last = qd_step(&p, &mut st, &mut scratch);
            }
            last.nexc
        };
        let raw = run(false);
        let scf = run(true);
        assert!(
            scf < raw * 0.2 + 1e-12,
            "SCF did not suppress spurious excitation: raw {raw}, scf {scf}"
        );
    }

    #[test]
    fn refresh_resets_low_precision_drift() {
        // The paper's central mechanism: run at BF16 until the
        // orthonormality defect accumulates, refresh at FP64, and verify
        // the defect collapses.
        let p = params();
        let mut st = LfdState::<f32>::initialize(
            &p,
            cosine_potential(&p.mesh, 0.3),
        );
        with_compute_mode(ComputeMode::FloatToBf16, || {
            let mut scratch = QdScratch::new(&p);
            for _ in 0..30 {
                qd_step(&p, &mut st, &mut scratch);
            }
        });
        let rep = scf_refresh(&p, &mut st).expect("overlap healthy");
        assert!(
            rep.defect_before > rep.defect_after * 10.0,
            "no drift to absorb: before {} after {}",
            rep.defect_before,
            rep.defect_after
        );
        assert!(rep.defect_after < 1e-9);
    }

    #[test]
    fn eps_updated_by_refresh() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.4));
        let plane_wave_eps = st.eps.clone();
        let rep = initial_scf(&p, &mut st, 3, 1e-12).expect("overlap healthy");
        assert_eq!(st.eps, rep.eigenvalues);
        // The potential must shift the spectrum away from the free values.
        let moved = st
            .eps
            .iter()
            .zip(&plane_wave_eps)
            .any(|(a, b)| (a - b).abs() > 1e-6);
        assert!(moved, "SCF did not move the eigenvalues off the free spectrum");
    }

    /// The test deck with libm-free contents: orbitals from an LCG, a
    /// polynomial potential (so recorded bits do not hinge on a
    /// platform's `sin`/`cos`).
    fn lcg_state(p: &LfdParams) -> LfdState<f32> {
        let mut st = LfdState::<f32>::initialize(p, cosine_potential(&p.mesh, 0.3));
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        };
        for z in st.psi.iter_mut() {
            *z = Complex { re: next(), im: next() };
        }
        for (i, v) in st.vloc.iter_mut().enumerate() {
            let t = (i % 17) as f32 / 17.0 - 0.5;
            *v = 0.3 * t * t - 0.1 * t;
        }
        st
    }

    /// FNV-1a over the bit patterns of a state's orbitals.
    fn psi_hash(st: &LfdState<f32>) -> u64 {
        st.psi.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).fold(
            0xcbf2_9ce4_8422_2325u64,
            |h, w| (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3),
        )
    }

    #[test]
    fn refresh_report_bits_rerecorded_once_per_summation_order() {
        // The boundary is not bit-stable across a change of summation
        // order, and is not meant to be; what this test pins is that
        // nothing *else* moves it. Recorded twice so far, each time on
        // purpose and once:
        //
        // 1. when the boundary moved onto level-3 BLAS (Householder + QL
        //    instead of Jacobi, `S^{-1/2}` and the rotation as GEMMs, one
        //    fused rotation instead of two);
        // 2. when the complex driver went to one pack per k-block (`Re`
        //    now sums `ArBr` and `−AiBi` k-block by k-block instead of
        //    one after the other) and the `f64` tiles to fused
        //    multiply-add: eigenvalues moved by 0–8 ulp, `defect_after`
        //    1.0e-15 → 2.4e-15, and `defect_before`, `max_correction`
        //    and the demoted orbitals not at all.
        //
        // What is pinned from here on is the current order — blocked GEMM
        // accumulation and the fixed-lane loops in `eigh`. That the
        // numbers are no worse is shown separately:
        // `fused_refresh_equals_orthonormalise_then_ritz` and the
        // residual tables in DESIGN.md. (The defects go through `hypot`;
        // the bits assume a correctly rounded one, as glibc's.)
        let p = params();
        let mut st = lcg_state(&p);
        let rep = scf_refresh(&p, &mut st).expect("overlap healthy");
        assert_eq!(rep.defect_before.to_bits(), 0x4044_ec0e_f533_3ede);
        assert_eq!(rep.defect_after.to_bits(), 0x3ce6_0000_0000_0000);
        assert_eq!(rep.max_correction.to_bits(), 0x3fe3_c56d_e000_0000);
        let eigenvalues: Vec<u64> = rep.eigenvalues.iter().map(|e| e.to_bits()).collect();
        assert_eq!(
            eigenvalues,
            [
                0x4020_415c_5f19_771e,
                0x4020_ca73_cf76_4260,
                0x4021_4e69_49ff_dd27,
                0x4021_8206_bc2b_1d59,
                0x4022_2a02_4f7e_7ff0,
                0x4022_6f11_d55c_5268,
            ]
        );
        assert_eq!(psi_hash(&st), 0x370e_ee53_63a2_f3c9);
    }

    /// The two-rotation refresh the fused one replaced, on the public
    /// pieces: Löwdin-orthonormalise, apply `H₀` to the orthonormal set,
    /// diagonalise `Ψ†H₀Ψ`, rotate.
    fn orthonormalise_then_ritz(p: &LfdParams, st: &LfdState<f64>) -> (Vec<C64>, Vec<f64>) {
        let (n_orb, ngrid) = (p.n_orb, p.mesh.len());
        let sqrt_dv = p.mesh.dv().sqrt();
        let mut psi: Vec<C64> = st.psi.iter().map(|z| z.scale(sqrt_dv)).collect();
        dcmesh_linalg::lowdin_orthonormalize(&mut psi, ngrid, n_orb).expect("overlap healthy");
        let mut h_psi = vec![C64::zero(); ngrid * n_orb];
        apply_h(&p.mesh, n_orb, &st.vloc, 0.0, &psi, &mut h_psi);
        let h_sub = dcmesh_linalg::ops::matmul_hermitian_left(&psi, &h_psi, n_orb, ngrid, n_orb);
        let eig = dcmesh_linalg::eigh(&h_sub, n_orb);
        let rotated = matmul(&psi, &eig.eigenvectors, ngrid, n_orb, n_orb);
        (rotated.iter().map(|z| z.scale(1.0 / sqrt_dv)).collect(), eig.eigenvalues)
    }

    /// An `f64` deck with nothing degenerate about it: LCG orbitals over
    /// the polynomial potential of [`lcg_state`].
    fn lcg_state_f64(p: &LfdParams) -> LfdState<f64> {
        let single = lcg_state(p);
        let mut st = LfdState::<f64>::initialize(p, single.vloc.iter().map(|&v| v as f64).collect());
        for (dst, src) in st.psi.iter_mut().zip(&single.psi) {
            *dst = Complex { re: src.re as f64, im: src.im as f64 };
        }
        st
    }

    #[test]
    fn fused_refresh_equals_orthonormalise_then_ritz() {
        // `H₀` is linear, so forming `G = Ψ†H₀Ψ` on the raw orbitals and
        // moving `S^{-1/2}` into the subspace must give the orbitals and
        // eigenvalues of the two-rotation sequence. The spectrum here has
        // gaps ≥ 0.1, so eigenvectors are determined to ~ε·‖H‖/gap and
        // the phase convention removes the remaining freedom.
        let p = params();
        let mut st = lcg_state_f64(&p);
        let (want_psi, want_eps) = orthonormalise_then_ritz(&p, &st);
        let rep = scf_refresh(&p, &mut st).expect("overlap healthy");
        assert!(rep.defect_after < 1e-10, "defect_after {}", rep.defect_after);
        for (got, want) in rep.eigenvalues.iter().zip(&want_eps) {
            assert!((got - want).abs() < 1e-12, "eigenvalue {got} vs {want}");
        }
        let diff = st.psi.iter().zip(&want_psi).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
        assert!(diff < 1e-12, "fused and two-rotation orbitals differ by {diff:e}");
    }

    #[test]
    fn second_refresh_of_a_converged_state_is_a_fixed_point() {
        // Ritz vectors of a non-degenerate subspace Hamiltonian are
        // unique up to phase, and `eigh` fixes the phase: refreshing a
        // refreshed state must hand the same orbitals back.
        let p = params();
        let mut st = lcg_state_f64(&p);
        scf_refresh(&p, &mut st).expect("overlap healthy");
        let rep = scf_refresh(&p, &mut st).expect("overlap healthy");
        assert!(rep.defect_before < 1e-12, "first refresh left {}", rep.defect_before);
        assert!(rep.max_correction < 1e-9, "second refresh moved Ψ by {}", rep.max_correction);
    }

    #[test]
    fn non_finite_orbitals_are_an_error_and_leave_the_state_untouched() {
        use dcmesh_linalg::EighError;
        let p = params();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut st = lcg_state(&p);
            st.psi[1234].im = poison;
            let snapshot = |st: &LfdState<f32>| -> (Vec<u32>, Vec<u32>, Vec<u64>) {
                let bits = |v: &[Complex<f32>]| {
                    v.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
                };
                (bits(&st.psi), bits(&st.psi0), st.eps.iter().map(|e| e.to_bits()).collect())
            };
            let before = snapshot(&st);
            let err = scf_refresh(&p, &mut st).expect_err("poisoned orbitals must not refresh");
            assert_eq!(err, OrthError::Eigensolve(EighError::NonFinite), "{poison}");
            assert_eq!(snapshot(&st), before, "state written on the error path ({poison})");
        }
    }

    #[test]
    fn second_refresh_takes_every_buffer_from_the_pool() {
        // The BLAS scratch and the refresh's two state-sized FP64 arrays,
        // the promoted Ψ and H₀Ψ: the `C64` pool's only two checkouts per
        // refresh.
        use mkl_lite::workspace::{combined_stats, stats, with_fresh_workspace};
        let p = params();
        with_fresh_workspace(|| {
            let mut st = lcg_state(&p);
            scf_refresh(&p, &mut st).expect("overlap healthy");
            let (warm, warm_c64) = (combined_stats(), stats::<C64>());
            scf_refresh(&p, &mut st).expect("overlap healthy");
            let (after, after_c64) = (combined_stats(), stats::<C64>());
            assert!(after.takes > warm.takes, "the refresh makes BLAS calls");
            assert_eq!(after_c64.takes - warm_c64.takes, 2, "Ψ and H₀Ψ come from the pool");
            assert_eq!(after.misses, warm.misses, "steady-state refresh allocated pool storage");
            assert_eq!(after.grows, warm.grows, "steady-state refresh regrew pool storage");
            assert_eq!(after.bytes_outstanding, 0, "every array went back");
        });
    }
}
