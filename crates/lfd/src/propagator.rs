//! The quantum-dynamical step.
//!
//! One QD step applies, in order:
//!
//! 1. the local Hamiltonian through a 4th-order Taylor expansion of
//!    `e^{−i·dt·H}` (four mesh-kernel applications of H — not BLAS);
//! 2. the nonlocal correction [`crate::nonlocal::nlp_prop`] (BLAS 1–3);
//! 3. [`crate::energy::calc_energy`] (BLAS 4–6, plus one kinetic sweep);
//! 4. [`crate::remap::remap_occ`] (BLAS 7–8);
//! 5. the shadow-dynamics subspace update (BLAS 9), whose coefficients
//!    QXMD consumes for force extrapolation between SCF refreshes;
//! 6. the current-density reduction and the induced-field leapfrog.
//!
//! Nine BLAS calls per QD step, exactly as the paper's artifact reports
//! for DCMESH.

use crate::energy::{calc_energy_with_policy, Energies};
use crate::field::advance_induced_field;
use crate::hamiltonian::taylor_term;
use crate::laser::AU_PER_FS;
use crate::nonlocal::{nlp_prop_with_scratch, LfdScalar, NlpScratch};
use crate::observables::current_density;
use crate::policy::{CallSite, PrecisionPolicy};
use crate::remap::remap_occ_with_policy;
use crate::state::{LfdParams, LfdState, StepObservables};
use dcmesh_numerics::Complex;
use mkl_lite::Op;

/// Reusable buffers for one QD step: the two state-sized arrays the
/// Taylor propagator ping-pongs its terms between and the subspace-sized
/// [`NlpScratch`]. With these held here the propagate and nonlocal phases
/// of a step never touch the allocator once the buffers have grown to the
/// problem size (the BLAS-internal scratch is pooled by `mkl-lite`'s
/// thread-local workspace); DESIGN.md, "Mesh kernels", lists the small
/// allocations the other phases still make.
#[derive(Clone, Debug, Default)]
pub struct QdScratch<T: dcmesh_numerics::Real> {
    term: Vec<Complex<T>>,
    h_out: Vec<Complex<T>>,
    nlp: NlpScratch<T>,
}

impl<T: dcmesh_numerics::Real> QdScratch<T> {
    /// Allocates scratch for the given problem size.
    pub fn new(params: &LfdParams) -> Self {
        let len = params.mesh.len() * params.n_orb;
        QdScratch {
            term: vec![Complex::zero(); len],
            h_out: vec![Complex::zero(); len],
            nlp: NlpScratch::default(),
        }
    }
}

/// Applies the Taylor-expanded local propagator
/// `ψ ← Σ_{n=0}^{order} (−i·dt·H)ⁿ/n!·ψ` in place. Each order is one
/// stencil sweep whose store forms `term ← (−i·dt/n)·H·term` and adds it
/// to ψ, so the only other state-sized pass is the initial `term ← ψ`.
pub fn taylor_propagate<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    a_total: f64,
    scratch: &mut QdScratch<T>,
) {
    let len = state.psi.len();
    scratch.term.resize(len, Complex::zero());
    scratch.h_out.resize(len, Complex::zero());

    scratch.term.copy_from_slice(&state.psi);
    for n in 1..=params.taylor_order {
        taylor_term(
            &params.mesh,
            params.n_orb,
            &state.vloc,
            a_total,
            T::from_f64(params.dt / n as f64),
            &scratch.term,
            &mut scratch.h_out,
            &mut state.psi,
        );
        core::mem::swap(&mut scratch.term, &mut scratch.h_out);
    }
}

/// Shadow-dynamics subspace update (BLAS call 9): `S ← C†·C` where `C`
/// is the step's reference projection. QXMD extrapolates Ehrenfest
/// forces from `S` without pulling Ψ back to the host — the paper's
/// "CPU–GPU data transfers are minimized through the use of shadow
/// dynamics".
pub fn shadow_update<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    projection: &[Complex<T>],
) {
    shadow_update_with_policy(params, state, projection, &PrecisionPolicy::Ambient)
}

/// [`shadow_update`] with a per-call-site [`PrecisionPolicy`].
pub fn shadow_update_with_policy<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    projection: &[Complex<T>],
    policy: &PrecisionPolicy,
) {
    let n = params.n_orb;
    assert_eq!(projection.len(), n * n);
    state.shadow.resize(n * n, Complex::zero());
    policy.run(CallSite::ShadowUpdate, || T::gemm(
        Op::ConjTrans,
        Op::None,
        n,
        n,
        n,
        Complex::one(),
        projection,
        n,
        projection,
        n,
        Complex::zero(),
        &mut state.shadow,
        n,
    ));
}

/// Advances one full QD step and returns the step's observables.
pub fn qd_step<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    scratch: &mut QdScratch<T>,
) -> StepObservables {
    qd_step_with_policy(params, state, scratch, &PrecisionPolicy::Ambient)
}

/// [`qd_step`] with a per-call-site [`PrecisionPolicy`]: every one of the
/// nine BLAS calls runs in the mode the policy assigns it — the mixed-
/// precision configuration space the paper leaves to future work.
pub fn qd_step_with_policy<T: LfdScalar>(
    params: &LfdParams,
    state: &mut LfdState<T>,
    scratch: &mut QdScratch<T>,
    policy: &PrecisionPolicy,
) -> StepObservables {
    let _step_span = dcmesh_telemetry::span("qd_step")
        .attr("step", dcmesh_telemetry::AttrValue::U64(state.step + 1))
        .enter();
    let t_mid = state.time + 0.5 * params.dt;
    let a_mid = state.a_total(params, t_mid);

    // (1) Local propagation — mesh kernels only.
    {
        let _s = dcmesh_telemetry::span("qd_propagate").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_propagate");
        taylor_propagate(params, state, a_mid, scratch);
    }

    // (2) Nonlocal correction — BLAS 1–3. The projection stays in the
    // scratch so steps (3) and (5) read it without a per-step allocation.
    {
        let _s = dcmesh_telemetry::span("qd_nonlocal").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_nonlocal");
        nlp_prop_with_scratch(params, state, policy, &mut scratch.nlp);
    }

    // (3) Energies — BLAS 4–6 (+ one kinetic mesh sweep).
    let e: Energies = {
        let _s = dcmesh_telemetry::span("qd_energy").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_energy");
        calc_energy_with_policy(params, state, &scratch.nlp.projection, &mut scratch.h_out, policy)
    };

    // (4) Occupation remap — BLAS 7–8.
    let nexc = {
        let _s = dcmesh_telemetry::span("qd_remap_occ").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_remap_occ");
        remap_occ_with_policy(params, state, policy)
    };

    // (5) Shadow dynamics — BLAS 9.
    {
        let _s = dcmesh_telemetry::span("qd_shadow").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_shadow");
        shadow_update_with_policy(params, state, &scratch.nlp.projection, policy);
    }

    // (6) Current density and the Maxwell feedback.
    let t_next = state.time + params.dt;
    let a_now = state.a_total(params, t_next);
    let javg = {
        let _s = dcmesh_telemetry::span("qd_field").enter();
        let _p = dcmesh_telemetry::phase_scope("lfd::qd_field");
        let javg = current_density(params, state, a_now);
        advance_induced_field(params, state, javg);
        javg
    };

    state.time = t_next;
    state.step += 1;

    StepObservables {
        step: state.step,
        time_fs: state.time / AU_PER_FS,
        ekin: e.ekin,
        epot: e.epot,
        etot: e.etot,
        eexc: e.eexc,
        nexc,
        aext: params.laser.vector_potential(state.time),
        javg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::apply_h;
    use crate::laser::LaserPulse;
    use crate::mesh::Mesh3;
    use crate::state::cosine_potential;

    fn params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(9, 0.6),
            n_orb: 6,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.1,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    /// The formulation the fused store replaced, written out: copy ψ into
    /// `term` and `acc`, then per order `h ← H·term`,
    /// `term ← (−i·dt/n)·h`, `acc += term`; finally `ψ ← acc`.
    fn unfused_taylor<T: LfdScalar>(p: &LfdParams, st: &mut LfdState<T>, a_total: f64) {
        let mut term = st.psi.clone();
        let mut acc = st.psi.clone();
        let mut h = vec![Complex::zero(); term.len()];
        for n in 1..=p.taylor_order {
            apply_h(&p.mesh, p.n_orb, &st.vloc, a_total, &term, &mut h);
            let c = T::from_f64(p.dt / n as f64);
            for (t, h) in term.iter_mut().zip(&h) {
                *t = Complex { re: h.im * c, im: -(h.re * c) };
            }
            for (a, t) in acc.iter_mut().zip(&term) {
                *a += *t;
            }
        }
        st.psi.copy_from_slice(&acc);
    }

    fn fused_equals_unfused<T: LfdScalar>() {
        let mut p = params();
        p.n_orb = 17; // one full register block and a remainder
        p.n_occ = 8;
        let mut fused = LfdState::<T>::initialize(&p, cosine_potential(&p.mesh, 0.3));
        let mut unfused = fused.clone();
        let mut scratch = QdScratch::default(); // grows on first use
        for step in 0..20 {
            let a_total = 0.03 * step as f64; // zero on the first step only
            taylor_propagate(&p, &mut fused, a_total, &mut scratch);
            unfused_taylor(&p, &mut unfused, a_total);
            for (i, (f, u)) in fused.psi.iter().zip(&unfused.psi).enumerate() {
                assert!(
                    f.re.to_f64().to_bits() == u.re.to_f64().to_bits()
                        && f.im.to_f64().to_bits() == u.im.to_f64().to_bits(),
                    "step {step} element {i}: fused {f:?}, unfused {u:?}"
                );
            }
        }
    }

    #[test]
    fn fused_taylor_matches_unfused_formulation_bitwise() {
        fused_equals_unfused::<f32>();
        fused_equals_unfused::<f64>();
    }

    #[test]
    fn norm_conserved_over_many_steps() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        for _ in 0..50 {
            qd_step(&p, &mut st, &mut scratch);
        }
        let n = st.electron_count(&p);
        assert!(
            (n - p.n_electrons()).abs() < 1e-6,
            "electron count drifted to {n} after 50 steps"
        );
    }

    #[test]
    fn field_free_stationary_state_conserves_energy() {
        // Without a laser, etot must be constant to propagator accuracy.
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        let first = qd_step(&p, &mut st, &mut scratch);
        let mut last = first;
        for _ in 0..30 {
            last = qd_step(&p, &mut st, &mut scratch);
        }
        // Taylor-4 is not exactly unitary; per-step error ~ (dt·||H||)^5
        // accumulates to the 1e-5 scale over 30 steps at this dt.
        let drift = (last.etot - first.etot).abs() / (1.0 + first.etot.abs());
        assert!(drift < 3e-5, "energy drift {drift}");
    }

    #[test]
    fn laser_excites_electrons() {
        let mut p = params();
        p.laser = LaserPulse { amplitude: 0.5, omega: 0.3, duration: 200.0, phase: 0.0 };
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.3));
        let mut scratch = QdScratch::new(&p);
        let mut nexc_end = 0.0;
        let mut ekin_start = 0.0;
        let mut ekin_end = 0.0;
        for i in 0..120 {
            let obs = qd_step(&p, &mut st, &mut scratch);
            if i == 0 {
                ekin_start = obs.ekin;
            }
            nexc_end = obs.nexc;
            ekin_end = obs.ekin;
        }
        assert!(nexc_end > 1e-4, "laser produced no excitation: nexc {nexc_end}");
        assert!(ekin_end > ekin_start, "laser did not heat the electrons");
    }

    #[test]
    fn no_laser_means_no_excitation() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let mut scratch = QdScratch::new(&p);
        let mut last = qd_step(&p, &mut st, &mut scratch);
        for _ in 0..20 {
            last = qd_step(&p, &mut st, &mut scratch);
        }
        // Plane waves are exact eigenstates of the free Hamiltonian;
        // without V or laser nothing moves between orbitals.
        assert!(last.nexc.abs() < 1e-9, "spurious excitation {}", last.nexc);
        assert!(last.eexc.abs() < 1e-9, "spurious excitation energy {}", last.eexc);
    }

    #[test]
    fn taylor_order_convergence() {
        // Higher Taylor order conserves energy better for the same dt.
        let drift = |order: usize| -> f64 {
            let mut p = params();
            p.taylor_order = order;
            p.dt = 0.08; // exaggerate the integrator error
            let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.4));
            let mut scratch = QdScratch::new(&p);
            let first = qd_step(&p, &mut st, &mut scratch);
            let mut last = first;
            for _ in 0..20 {
                last = qd_step(&p, &mut st, &mut scratch);
            }
            (last.etot - first.etot).abs()
        };
        let d2 = drift(2);
        let d4 = drift(4);
        assert!(d4 < d2, "order 4 drift {d4} not below order 2 drift {d2}");
    }

    #[test]
    fn exactly_nine_blas_calls_per_qd_step() {
        // The artifact description: "Each QD step contains 9 BLAS calls".
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        qd_step(&p, &mut st, &mut scratch); // warm-up outside recording
        mkl_lite::verbose::clear();
        mkl_lite::verbose::set_recording(true);
        qd_step(&p, &mut st, &mut scratch);
        mkl_lite::verbose::set_recording(false);
        let calls = mkl_lite::verbose::drain();
        assert_eq!(calls.len(), 9, "expected 9 BLAS calls, got {}", calls.len());
        // All are complex GEMMs (ZGEMM for the f64 instantiation).
        for c in &calls {
            assert_eq!(c.routine, "ZGEMM");
        }
    }

    #[test]
    fn shadow_matrix_is_near_identity_early() {
        let p = params();
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.1));
        let mut scratch = QdScratch::new(&p);
        qd_step(&p, &mut st, &mut scratch);
        // S = C†C with C near-unitary, so S ≈ I.
        for i in 0..p.n_orb {
            for j in 0..p.n_orb {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = st.shadow[i * p.n_orb + j];
                assert!(
                    (got.re - want).abs() < 1e-3 && got.im.abs() < 1e-3,
                    "S[{i},{j}] = {got:?}"
                );
            }
        }
    }
}
