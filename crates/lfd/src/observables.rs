//! Non-BLAS observables: the average current density.
//!
//! `javg` is "not directly computed through BLAS, but is still influenced
//! by computations within BLAS calls" (paper §V-A) — the propagated Ψ
//! carries the BLAS rounding, while the reduction itself is a mesh
//! kernel. In the velocity gauge the z-component of the average current
//! density is
//!
//! ```text
//! j_z = (1/Ω)·Σ_o f_o ∫ [ Im(ψ_o* ∂z ψ_o) + A·|ψ_o|² ] dV
//! ```

use crate::hamiltonian::{wrap_table, C1, RADIUS};
use crate::state::{LfdParams, LfdState};
use dcmesh_numerics::{reduce, Real};

/// Average current density along z (a.u.), including the diamagnetic
/// `A·n/Ω` term.
pub fn current_density<T: Real>(params: &LfdParams, state: &LfdState<T>, a_total: f64) -> f64 {
    current_density_in(params, state, a_total, &mut Vec::new(), &mut Vec::new())
}

/// [`current_density`] with the occupied list and the per-plane partials
/// in caller-owned buffers: no allocation once they have grown.
pub(crate) fn current_density_in<T: Real>(
    params: &LfdParams,
    state: &LfdState<T>,
    a_total: f64,
    occupied: &mut Vec<(usize, f64)>,
    partials: &mut Vec<f64>,
) -> f64 {
    let mesh = &params.mesh;
    let n_orb = params.n_orb;
    let (nx, ny, nz) = (mesh.nx, mesh.ny, mesh.nz);
    let h_inv = 1.0 / mesh.spacing;
    let psi = &state.psi;
    // Only occupied orbitals carry current; listing them (index, f) once
    // keeps the test out of the innermost loop.
    occupied.clear();
    occupied.extend(state.occ.iter().map(|f| f.to_f64()).enumerate().filter(|&(_, f)| f != 0.0));

    // Paramagnetic term: Σ f·Im(ψ* ∂z ψ), accumulated in f64. Per-yz
    // planes are computed in parallel, but the plane partials are folded
    // through the fixed reduction tree in ix order — bit-identical at
    // any rayon thread count (scheduling only decides *when* a plane is
    // computed, never how the sum is grouped).
    let occupied = &occupied[..];
    let para: f64 = reduce::par_map_sum(partials, nx, |ix| {
        let mut acc = 0.0f64;
        for iy in 0..ny {
            let pencil = (ix * ny + iy) * nz;
            for iz in 0..nz {
                let zw = wrap_table(iz, nz);
                let row = &psi[(pencil + iz) * n_orb..][..n_orb];
                for s in 1..=RADIUS {
                    let c = C1[s] * h_inv;
                    let plus = &psi[(pencil + zw[RADIUS + s]) * n_orb..][..n_orb];
                    let minus = &psi[(pencil + zw[RADIUS - s]) * n_orb..][..n_orb];
                    for &(o, f) in occupied {
                        let d_re = (plus[o].re - minus[o].re).to_f64();
                        let d_im = (plus[o].im - minus[o].im).to_f64();
                        // Im(ψ*·dψ) = re·d_im − im·d_re
                        acc += f * c * (row[o].re.to_f64() * d_im - row[o].im.to_f64() * d_re);
                    }
                }
            }
        }
        acc
    });

    let n_elec = state.electron_count(params);
    let volume = mesh.volume();
    (para * mesh.dv() + a_total * n_elec) / volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::LaserPulse;
    use crate::mesh::Mesh3;
    use crate::state::LfdState;
    use dcmesh_numerics::Complex;

    fn params(n: usize) -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(n, 0.5),
            n_orb: 2,
            n_occ: 2,
            dt: 0.02,
            vnl_strength: 0.0,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn ground_state_carries_no_current() {
        // Real-valued (k = 0) and ±k paired plane waves give zero net
        // paramagnetic current; with A = 0 the total vanishes. Our init
        // takes the two lowest modes: k = 0 and one k ≠ 0, so restrict to
        // the k = 0 orbital.
        let mut p = params(10);
        p.n_orb = 1;
        p.n_occ = 1;
        let st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let j = current_density(&p, &st, 0.0);
        assert!(j.abs() < 1e-12, "ground-state current {j}");
    }

    #[test]
    fn plane_wave_current_is_k_density() {
        // A single orbital e^{ikz} carries current f·k/Ω per electron:
        // j = f·k/Ω (paramagnetic only).
        let mut p = params(12);
        p.n_orb = 1;
        p.n_occ = 1;
        let mut st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let l = p.mesh.nz as f64 * p.mesh.spacing;
        let k = core::f64::consts::TAU / l;
        let norm = 1.0 / p.mesh.volume().sqrt();
        for g in 0..p.mesh.len() {
            let (_, _, iz) = p.mesh.coords(g);
            st.psi[g] = Complex::cis(k * iz as f64 * p.mesh.spacing).scale(norm);
        }
        let j = current_density(&p, &st, 0.0);
        let expect = 2.0 * k / p.mesh.volume();
        assert!(
            (j - expect).abs() < 1e-4 * expect.abs(),
            "plane-wave current {j} vs {expect}"
        );
    }

    #[test]
    fn diamagnetic_term_scales_with_a() {
        let mut p = params(10);
        p.n_orb = 1;
        p.n_occ = 1;
        let st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let a = 0.25;
        let j = current_density(&p, &st, a);
        let expect = a * 2.0 / p.mesh.volume();
        assert!((j - expect).abs() < 1e-12, "{j} vs {expect}");
    }

    #[test]
    fn matches_the_per_orbital_walk_bitwise() {
        // The formulation this module and `electron_count` replaced:
        // `Mesh3::wrap` per neighbour, every orbital visited and the empty
        // ones skipped, the count as one strided column walk per orbital.
        // Occupations with a hole, more orbitals than one count block.
        let mut p = params(9);
        p.n_orb = 20;
        p.n_occ = 20;
        let mut st = LfdState::<f32>::initialize(&p, vec![0.0; p.mesh.len()]);
        for (o, f) in st.occ.iter_mut().enumerate() {
            *f = [2.0, 0.0, 1.5][o % 3];
        }
        let (mesh, n_orb) = (p.mesh, p.n_orb);
        let h_inv = 1.0 / mesh.spacing;
        let mut para = vec![0.0f64; mesh.nx];
        for g in 0..mesh.len() {
            let (ix, _, iz) = mesh.coords(g);
            #[allow(clippy::needless_range_loop)]
            for s in 1..=RADIUS {
                let zp = g - iz + Mesh3::wrap(iz, s as isize, mesh.nz);
                let zm = g - iz + Mesh3::wrap(iz, -(s as isize), mesh.nz);
                for o in 0..n_orb {
                    let f = st.occ[o] as f64;
                    if f == 0.0 {
                        continue;
                    }
                    let (c, plus, minus) = (st.psi[g * n_orb + o], st.psi[zp * n_orb + o], st.psi[zm * n_orb + o]);
                    let (d_re, d_im) = ((plus.re - minus.re) as f64, (plus.im - minus.im) as f64);
                    para[ix] += f * (C1[s] * h_inv) * (c.re as f64 * d_im - c.im as f64 * d_re);
                }
            }
        }
        let mut n_elec = 0.0f64;
        for o in 0..n_orb {
            if st.occ[o] != 0.0 {
                let s: f64 = (0..mesh.len()).fold(0.0, |s, g| s + st.psi[g * n_orb + o].norm_sqr() as f64);
                n_elec += st.occ[o] as f64 * s * mesh.dv();
            }
        }
        assert_eq!(st.electron_count(&p).to_bits(), n_elec.to_bits());
        let want = (reduce::sum_f64(&para) * mesh.dv() + 0.1 * n_elec) / mesh.volume();
        // The nx plane partials computed on any number of threads.
        for threads in [1, 2, 3, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let got = pool.install(|| {
                assert_eq!(rayon::current_num_threads(), threads);
                current_density(&p, &st, 0.1)
            });
            assert_eq!(got.to_bits(), want.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn current_linear_in_occupation() {
        let p = params(10);
        let mut st = LfdState::<f64>::initialize(&p, vec![0.0; p.mesh.len()]);
        let j2 = current_density(&p, &st, 0.1);
        st.occ[0] = 1.0;
        st.occ[1] = 1.0;
        let j1 = current_density(&p, &st, 0.1);
        assert!((j2 - 2.0 * j1).abs() < 1e-12);
    }
}
