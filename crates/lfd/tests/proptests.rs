//! Property-based tests of the LFD physics invariants: the quantities
//! exact quantum dynamics conserves must survive our discretisation (to
//! integrator accuracy) for *any* admissible parameter set, not just the
//! hand-picked test decks.

use dcmesh_lfd::hamiltonian::apply_h;
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_numerics::{c64, C64};
use mkl_lite::{with_compute_mode, ComputeMode};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = LfdParams> {
    (
        9usize..12,          // mesh points per axis
        2usize..8,           // n_orb
        0.3f64..0.8,         // spacing
        0.0f64..0.5,         // vnl strength
        0.0f64..0.5,         // laser amplitude
        0.05f64..0.6,        // potential depth (through cosine_potential)
    )
        .prop_map(|(mesh_n, n_orb, spacing, vnl, amp, _depth)| LfdParams {
            mesh: Mesh3::cubic(mesh_n, spacing),
            n_orb,
            n_occ: (n_orb / 2).max(1),
            dt: 0.02,
            vnl_strength: vnl,
            taylor_order: 4,
            laser: LaserPulse { amplitude: amp, omega: 0.4, duration: 50.0, phase: 0.0 },
            induced_coupling: 0.0,
        })
}

/// A mesh, an orbital count on either side of the stencil's 16-orbital
/// register block, a vector potential (zero half the time, so both the
/// gradient-free and the gradient sweep are drawn) and a state seed.
fn stencil_case() -> impl Strategy<Value = (Mesh3, usize, f64, u64)> {
    (9usize..13, 9usize..13, 9usize..13, 0.3f64..0.8, 1usize..36, -0.4f64..0.4, any::<u64>()).prop_map(
        |(nx, ny, nz, spacing, n_orb, a, seed)| {
            (Mesh3 { nx, ny, nz, spacing }, n_orb, if seed % 2 == 0 { 0.0 } else { a }, seed)
        },
    )
}

fn random_state(len: usize, seed: u64) -> Vec<C64> {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..len).map(|_| c64(next(), next())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn apply_h_is_hermitian((mesh, n_orb, a_total, seed) in stencil_case()) {
        // Σ_o <φ_o|Hψ_o> == conj(Σ_o <ψ_o|Hφ_o>) for the discrete operator.
        let n = mesh.len() * n_orb;
        let (phi, psi) = (random_state(n, seed), random_state(n, seed ^ 0x9e37_79b9));
        let vloc: Vec<f64> = (0..mesh.len()).map(|g| (g % 7) as f64 * 0.1 - 0.3).collect();
        let (mut h_psi, mut h_phi) = (vec![C64::zero(); n], vec![C64::zero(); n]);
        apply_h(&mesh, n_orb, &vloc, a_total, &psi, &mut h_psi);
        apply_h(&mesh, n_orb, &vloc, a_total, &phi, &mut h_phi);
        let dot = |a: &[C64], b: &[C64]| a.iter().zip(b).fold(C64::zero(), |s, (x, y)| s + x.conj() * *y);
        let (lhs, rhs) = (dot(&phi, &h_psi), dot(&psi, &h_phi).conj());
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn multi_orbital_matches_single((mesh, n_orb, a_total, seed) in stencil_case()) {
        // H acts on each orbital independently: column o of the blocked
        // sweep equals the one-orbital sweep of that column, to the bit,
        // wherever o falls relative to a register block.
        let ngrid = mesh.len();
        let psi = random_state(ngrid * n_orb, seed);
        let vloc: Vec<f64> = (0..ngrid).map(|g| (g % 5) as f64 * 0.07).collect();
        let mut all = vec![C64::zero(); psi.len()];
        apply_h(&mesh, n_orb, &vloc, a_total, &psi, &mut all);
        let mut one = vec![C64::zero(); ngrid];
        for o in [0, n_orb / 2, n_orb - 1] {
            let column: Vec<C64> = (0..ngrid).map(|g| psi[g * n_orb + o]).collect();
            apply_h(&mesh, 1, &vloc, a_total, &column, &mut one);
            for g in 0..ngrid {
                let (got, want) = (all[g * n_orb + o], one[g]);
                prop_assert!(
                    got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                    "orbital {} of {} at point {}: {:?} vs {:?}", o, n_orb, g, got, want
                );
            }
        }
    }

    #[test]
    fn electron_count_conserved(p in params_strategy(), depth in 0.05f64..0.5) {
        with_compute_mode(ComputeMode::Standard, || {
            let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, depth));
            let mut scratch = QdScratch::new(&p);
            for _ in 0..10 {
                qd_step(&p, &mut st, &mut scratch);
            }
            let n = st.electron_count(&p);
            prop_assert!(
                (n - p.n_electrons()).abs() < 1e-7 * p.n_electrons().max(1.0),
                "count {} vs {}", n, p.n_electrons()
            );
            Ok(())
        })?;
    }

    #[test]
    fn nexc_physical_bounds(p in params_strategy(), depth in 0.05f64..0.5) {
        with_compute_mode(ComputeMode::Standard, || {
            let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, depth));
            let mut scratch = QdScratch::new(&p);
            for _ in 0..8 {
                let obs = qd_step(&p, &mut st, &mut scratch);
                prop_assert!(obs.nexc >= -1e-9, "negative nexc {}", obs.nexc);
                prop_assert!(obs.nexc <= p.n_electrons() + 1e-9, "nexc over count");
                prop_assert!(obs.ekin.is_finite() && obs.javg.is_finite());
            }
            Ok(())
        })?;
    }

    #[test]
    fn all_modes_stay_finite_and_close(p in params_strategy(), depth in 0.05f64..0.5) {
        // Robustness sweep: no mode may blow up or drift grossly from the
        // FP32 trajectory over a short burst.
        let run = |mode: ComputeMode| -> f64 {
            with_compute_mode(mode, || {
                let mut st = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, depth));
                let mut scratch = QdScratch::new(&p);
                let mut last = 0.0;
                for _ in 0..6 {
                    last = qd_step(&p, &mut st, &mut scratch).ekin;
                }
                last
            })
        };
        let reference = run(ComputeMode::Standard);
        prop_assert!(reference.is_finite());
        for mode in ComputeMode::ALTERNATIVE {
            let v = run(mode);
            prop_assert!(v.is_finite(), "{mode:?} diverged");
            let rel = (v - reference).abs() / (1.0 + reference.abs());
            prop_assert!(rel < 0.05, "{mode:?} ekin off by {rel}");
        }
    }

    #[test]
    fn time_axis_and_step_counter(p in params_strategy(), depth in 0.05f64..0.5) {
        with_compute_mode(ComputeMode::Standard, || {
            let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, depth));
            let mut scratch = QdScratch::new(&p);
            let mut prev_t = -1.0;
            for i in 1..=5u64 {
                let obs = qd_step(&p, &mut st, &mut scratch);
                prop_assert_eq!(obs.step, i);
                prop_assert!(obs.time_fs > prev_t);
                prev_t = obs.time_fs;
            }
            Ok(())
        })?;
    }
}
