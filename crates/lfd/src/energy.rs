//! `calc_energy`: the BLASified energy evaluation.
//!
//! Kinetic energy is evaluated through the Kohn–Sham subspace: the mesh
//! kernel computes `TΨ`, then one large CGEMM forms
//! `M = Ψ†·(TΨ)·ΔV` (`n_orb × n_orb × N_grid`) whose weighted diagonal is
//! `E_kin = Σ_o f_o·M_oo` — this is the BLAS call whose precision the
//! paper probes through the kinetic-energy observable. The nonlocal
//! energy reuses the `nlp_prop` projection matrix in a subspace-sized
//! GEMM, and the potential energy is a pointwise mesh reduction (not
//! BLAS, so identical across compute modes).

use crate::hamiltonian::apply_kinetic;
use crate::nonlocal::{projector_weight, LfdScalar};
use crate::policy::{CallSite, PrecisionPolicy};
use crate::state::{LfdParams, LfdState};
use dcmesh_numerics::{reduce, Complex};
use mkl_lite::Op;

/// Energy breakdown for one QD step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Energies {
    /// Kinetic energy (Hartree) — BLAS-dependent.
    pub ekin: f64,
    /// Local potential energy (Hartree) — mesh reduction.
    pub epot: f64,
    /// Nonlocal pseudopotential energy (Hartree) — BLAS-dependent.
    pub enl: f64,
    /// Total electronic energy.
    pub etot: f64,
    /// Excitation energy measured in the frozen reference spectrum
    /// (Hartree): `Σ_o f_o (P† diag(ε) P)_oo − Σ_occ f·ε` — zero at t = 0,
    /// BLAS-dependent.
    pub eexc: f64,
}

/// Evaluates the energies. `projection` is the `C = Ψ†(0)Ψ·ΔV` matrix
/// returned by the step's `nlp_prop` call (reused to avoid a second
/// grid-sized projection, as DCMESH does); `scratch` holds `TΨ`.
pub fn calc_energy<T: LfdScalar>(
    params: &LfdParams,
    state: &LfdState<T>,
    projection: &[Complex<T>],
    scratch: &mut Vec<Complex<T>>,
) -> Energies {
    calc_energy_with_policy(params, state, projection, scratch, &PrecisionPolicy::Ambient)
}

/// [`calc_energy`] with a per-call-site [`PrecisionPolicy`].
pub fn calc_energy_with_policy<T: LfdScalar>(
    params: &LfdParams,
    state: &LfdState<T>,
    projection: &[Complex<T>],
    scratch: &mut Vec<Complex<T>>,
    policy: &PrecisionPolicy,
) -> Energies {
    let n_orb = params.n_orb;
    let ngrid = params.mesh.len();
    let dv = params.mesh.dv();
    assert_eq!(projection.len(), n_orb * n_orb, "projection shape mismatch");

    // Mesh kernel: TΨ (the sweep overwrites every element, so a scratch
    // that already has the right length is not cleared first).
    scratch.resize(ngrid * n_orb, Complex::zero());
    apply_kinetic(&params.mesh, n_orb, &state.psi, scratch);

    // BLAS: M = Ψ†(TΨ)·ΔV  (n_orb × n_orb × N_grid).
    let mut m = vec![Complex::<T>::zero(); n_orb * n_orb];
    policy.run(CallSite::EnergyKinetic, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n_orb,
        n_orb,
        ngrid,
        Complex::from_real(T::from_f64(dv)),
        &state.psi,
        n_orb,
        scratch,
        n_orb,
        Complex::zero(),
        &mut m,
        n_orb,
    ));
    let ekin =
        reduce::sum_with(n_orb, |o| state.occ[o].to_f64() * m[o * n_orb + o].re.to_f64());

    // BLAS (subspace): E_nl matrix = C†·(W·C) with W the projector
    // weights; diag gives the per-orbital nonlocal energies.
    let mut wc = vec![Complex::<T>::zero(); n_orb * n_orb];
    for i in 0..n_orb {
        let w = T::from_f64(params.vnl_strength * projector_weight(i, n_orb));
        for j in 0..n_orb {
            wc[i * n_orb + j] = projection[i * n_orb + j].scale(w);
        }
    }
    let mut enl_m = vec![Complex::<T>::zero(); n_orb * n_orb];
    policy.run(CallSite::EnergyNonlocal, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n_orb,
        n_orb,
        n_orb,
        Complex::one(),
        projection,
        n_orb,
        &wc,
        n_orb,
        Complex::zero(),
        &mut enl_m,
        n_orb,
    ));
    let enl =
        reduce::sum_with(n_orb, |o| state.occ[o].to_f64() * enl_m[o * n_orb + o].re.to_f64());

    // BLAS (subspace): excitation-energy transform E = P†·(diag(ε)·P);
    // the weighted diagonal measures the energy of the propagated state
    // in the frozen reference spectrum.
    let mut eps_p = vec![Complex::<T>::zero(); n_orb * n_orb];
    for i in 0..n_orb {
        let e = T::from_f64(state.eps[i]);
        for j in 0..n_orb {
            eps_p[i * n_orb + j] = projection[i * n_orb + j].scale(e);
        }
    }
    let mut exc_m = vec![Complex::<T>::zero(); n_orb * n_orb];
    policy.run(CallSite::EnergyEexc, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n_orb,
        n_orb,
        n_orb,
        Complex::one(),
        projection,
        n_orb,
        &eps_p,
        n_orb,
        Complex::zero(),
        &mut exc_m,
        n_orb,
    ));
    let eexc = reduce::sum_with(n_orb, |o| {
        state.occ[o].to_f64() * (exc_m[o * n_orb + o].re.to_f64() - state.eps[o])
    });

    // Mesh reduction: E_pot = Σ_g V(g)·ρ(g)·ΔV (identical in all modes).
    let epot = dv
        * reduce::sum_with(ngrid, |g| {
            let v = state.vloc[g].to_f64();
            if v == 0.0 {
                return 0.0;
            }
            let mut rho = 0.0f64;
            for o in 0..n_orb {
                let f = state.occ[o].to_f64();
                if f != 0.0 {
                    rho += f * state.psi[g * n_orb + o].norm_sqr().to_f64();
                }
            }
            v * rho
        });

    Energies { ekin, epot, enl, etot: ekin + epot + enl, eexc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::LaserPulse;
    use crate::mesh::Mesh3;
    use crate::nonlocal::nlp_prop;
    use crate::state::cosine_potential;
    use mkl_lite::ComputeMode;

    fn params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(10, 0.6),
            n_orb: 8,
            n_occ: 4,
            dt: 0.02,
            vnl_strength: 0.3,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn plane_wave_kinetic_energy_analytic() {
        // Initial orbitals are plane waves with known kinetic energies
        // ½|k|²; occupations 2 each.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let c = nlp_prop(&p, &mut st); // also gives the projection at t=0
        // Undo the nlp kick so psi is exactly the plane waves again.
        let mut st2 = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        st2.psi0 = st.psi0.clone();
        let mut scratch = Vec::new();
        let e = calc_energy(&p, &st2, &c, &mut scratch);
        // Occupied modes: k = 0 and the three lowest nonzero |k|² = 1
        // (in units of 2π/L). E = 2·Σ ½k².
        let l = p.mesh.nx as f64 * p.mesh.spacing;
        let k1 = core::f64::consts::TAU / l;
        let expect = 2.0 * (0.0 + 3.0 * 0.5 * k1 * k1);
        assert!(
            (e.ekin - expect).abs() < 1e-4 * expect,
            "ekin {} vs analytic {expect}",
            e.ekin
        );
        assert_eq!(e.epot, 0.0);
    }

    #[test]
    fn potential_energy_of_uniform_density() {
        // With only the k=0 orbital occupied, ρ is uniform: E_pot equals
        // the mean of V times the electron count.
        let mut p = params();
        p.n_occ = 1;
        let v = cosine_potential::<f64>(&p.mesh, 0.5);
        let mean_v: f64 = v.iter().sum::<f64>() / v.len() as f64;
        let st = LfdState::<f64>::initialize(&p, v);
        let c = dcmesh_linalg::ops::identity(p.n_orb).to_vec();
        let mut scratch = Vec::new();
        let e = calc_energy(&p, &st, &c, &mut scratch);
        assert!(
            (e.epot - 2.0 * mean_v).abs() < 1e-10 + 1e-10 * mean_v.abs(),
            "epot {} vs {}",
            e.epot,
            2.0 * mean_v
        );
    }

    #[test]
    fn nonlocal_energy_at_t0() {
        // At t = 0 the projection is the identity, so
        // E_nl = Σ_occ f·v·w_i.
        let p = params();
        let st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let c: Vec<_> = dcmesh_linalg::ops::identity(p.n_orb);
        let mut scratch = Vec::new();
        let e = calc_energy(&p, &st, &c, &mut scratch);
        let expect: f64 = (0..p.n_occ)
            .map(|i| 2.0 * p.vnl_strength * projector_weight(i, p.n_orb))
            .sum();
        assert!((e.enl - expect).abs() < 1e-9, "enl {} vs {expect}", e.enl);
    }

    #[test]
    fn etot_is_sum_of_parts() {
        let p = params();
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let c = dcmesh_linalg::ops::identity(p.n_orb);
        let mut scratch = Vec::new();
        let e = calc_energy(&p, &st, &c, &mut scratch);
        assert!((e.etot - (e.ekin + e.epot + e.enl)).abs() < 1e-12);
    }

    #[test]
    fn bf16_mode_changes_only_blas_outputs() {
        // epot comes from the mesh reduction, so it must be bit-identical
        // across compute modes; ekin (BLAS) must differ.
        let p = params();
        let v = cosine_potential::<f32>(&p.mesh, 0.2);
        let st = LfdState::<f32>::initialize(&p, v);
        let c: Vec<Complex<f32>> = dcmesh_linalg::ops::identity(p.n_orb)
            .iter()
            .map(|z| z.to_c32())
            .collect();
        let mut scratch = Vec::new();
        let e_std = mkl_lite::with_compute_mode(ComputeMode::Standard, || {
            calc_energy(&p, &st, &c, &mut scratch)
        });
        let e_bf = mkl_lite::with_compute_mode(ComputeMode::FloatToBf16, || {
            calc_energy(&p, &st, &c, &mut scratch)
        });
        assert_eq!(e_std.epot, e_bf.epot, "non-BLAS output changed with mode");
        assert_ne!(e_std.ekin, e_bf.ekin, "BLAS output did not change with mode");
        let rel = (e_std.ekin - e_bf.ekin).abs() / e_std.ekin.abs();
        assert!(rel < 0.05, "BF16 kinetic energy off by {rel}");
    }
}
