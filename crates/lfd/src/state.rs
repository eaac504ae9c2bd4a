//! LFD parameters, state, and per-step observable records.

use crate::laser::LaserPulse;
use crate::mesh::Mesh3;
use dcmesh_numerics::{AlignedVec, Complex, Real};

/// Static parameters of an LFD run.
#[derive(Clone, Debug)]
pub struct LfdParams {
    /// The finite-difference mesh (`N_grid = mesh.len()`).
    pub mesh: Mesh3,
    /// Number of Kohn–Sham orbitals propagated (`N_orb`).
    pub n_orb: usize,
    /// Number of initially occupied orbitals (`N_occ`; the paper's
    /// 40-atom system has 128).
    pub n_occ: usize,
    /// QD time step in a.u. (paper Table III: 0.02).
    pub dt: f64,
    /// Strength of the nonlocal pseudopotential correction (Hartree).
    pub vnl_strength: f64,
    /// Order of the Taylor propagator (4 in production).
    pub taylor_order: usize,
    /// The external laser pulse.
    pub laser: LaserPulse,
    /// Coupling of the induced (Maxwell) field to the average current;
    /// zero disables local-field feedback.
    pub induced_coupling: f64,
}

impl LfdParams {
    /// Consistency checks: `Err` names the first parameter a run cannot
    /// start from ([`LfdState::initialize`] panics on one). A deck reaches
    /// the simulation only through this check (`RunConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        let Mesh3 { nx, ny, nz, spacing } = self.mesh;
        let points = nx.checked_mul(ny).and_then(|p| p.checked_mul(nz));
        let (orb, occ, dt, order) = (self.n_orb, self.n_occ, self.dt, self.taylor_order);
        let check = |ok: bool, why: &dyn Fn() -> String| if ok { Ok(()) } else { Err(why()) };
        check(orb > 0, &|| "n_orb must be positive".into())?;
        check(occ <= orb, &|| format!("n_occ {occ} > n_orb {orb}"))?;
        let grid = || format!("more orbitals ({orb}) than grid points ({nx}x{ny}x{nz})");
        check(points.is_some_and(|p| orb <= p), &grid)?;
        check(dt > 0.0 && dt.is_finite(), &|| format!("bad dt {dt}"))?;
        check((1..=8).contains(&order), &|| format!("taylor order {order} out of range 1..=8"))?;
        check(spacing > 0.0 && spacing.is_finite(), &|| format!("bad mesh spacing {spacing}"))
    }

    /// Electrons in the system (closed shell: 2 per occupied orbital).
    pub fn n_electrons(&self) -> f64 {
        2.0 * self.n_occ as f64
    }
}

/// Orbitals [`LfdState::electron_count`] sums per pass over the grid.
const COUNT_BLOCK: usize = 16;

/// The propagating state at element precision `T` (`f32` for the paper's
/// mixed-precision runs, `f64` for its FP64 baseline). `clone_from` a
/// state of the same shape copies into the arrays it has.
#[derive(Debug)]
pub struct LfdState<T: Real> {
    /// Wave-function matrix Ψ(t): row-major `N_grid × N_orb`, starting on
    /// a cache line (as every copy of it does: see [`AlignedVec`]).
    pub psi: AlignedVec<Complex<T>>,
    /// Reference orbitals Ψ(0) used by the nonlocal correction and
    /// `remap_occ`; refreshed by each SCF update. On a cache line too.
    pub psi0: AlignedVec<Complex<T>>,
    /// Occupation numbers per orbital (2 for occupied, 0 for virtual).
    pub occ: Vec<T>,
    /// Kohn–Sham eigenvalues of the reference orbitals (Hartree), set by
    /// the SCF; used by the excitation-energy subspace transform.
    pub eps: Vec<f64>,
    /// Shadow-dynamics subspace coefficients (`n_orb × n_orb`), updated
    /// each QD step and consumed by QXMD's force extrapolation between
    /// SCF refreshes.
    pub shadow: Vec<Complex<T>>,
    /// Local potential on the mesh (Hartree).
    pub vloc: Vec<T>,
    /// Induced vector potential and its time derivative (Maxwell side).
    pub a_induced: f64,
    /// d(A_induced)/dt.
    pub a_induced_dot: f64,
    /// Simulation time in a.u.
    pub time: f64,
    /// QD steps taken.
    pub step: u64,
}

impl<T: Real> Clone for LfdState<T> {
    fn clone(&self) -> Self {
        let LfdState { psi, psi0, occ, eps, shadow, vloc, a_induced, a_induced_dot, time, step } = self;
        LfdState {
            psi: psi.clone(),
            psi0: psi0.clone(),
            occ: occ.clone(),
            eps: eps.clone(),
            shadow: shadow.clone(),
            vloc: vloc.clone(),
            a_induced: *a_induced,
            a_induced_dot: *a_induced_dot,
            time: *time,
            step: *step,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let LfdState { psi, psi0, occ, eps, shadow, vloc, a_induced, a_induced_dot, time, step } = self;
        psi.clone_from(&source.psi);
        psi0.clone_from(&source.psi0);
        occ.clone_from(&source.occ);
        eps.clone_from(&source.eps);
        shadow.clone_from(&source.shadow);
        vloc.clone_from(&source.vloc);
        (*a_induced, *a_induced_dot) = (source.a_induced, source.a_induced_dot);
        (*time, *step) = (source.time, source.step);
    }
}

/// Per-QD-step output record — the columns DCMESH "prints to the wall"
/// (artifact A2: ekin, epot, etot, eexc, nexc, Aext, javg).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepObservables {
    /// QD step index.
    pub step: u64,
    /// Time in femtoseconds.
    pub time_fs: f64,
    /// Electronic kinetic energy (Hartree) — from `calc_energy`.
    pub ekin: f64,
    /// Local potential energy (Hartree).
    pub epot: f64,
    /// Total electronic energy (Hartree).
    pub etot: f64,
    /// Excitation energy relative to t = 0 (Hartree).
    pub eexc: f64,
    /// Number of excited electrons — from `remap_occ`.
    pub nexc: f64,
    /// External vector potential (a.u.).
    pub aext: f64,
    /// Average current density along z (a.u.).
    pub javg: f64,
}

impl<T: Real> LfdState<T> {
    /// Builds the initial state: orthonormal plane-wave orbitals (the
    /// lowest `n_orb` reciprocal-lattice modes — exact eigenstates of the
    /// kinetic operator, exactly orthonormal on the discrete mesh) over
    /// the supplied local potential. QXMD's SCF then relaxes these into
    /// Kohn–Sham eigenstates of the full Hamiltonian.
    pub fn initialize(params: &LfdParams, vloc: Vec<T>) -> LfdState<T> {
        params.validate().unwrap_or_else(|e| panic!("invalid LFD parameters: {e}"));
        let ngrid = params.mesh.len();
        assert_eq!(vloc.len(), ngrid, "potential size mismatch");
        let n_orb = params.n_orb;

        let kvecs = lowest_k_modes(&params.mesh, n_orb);
        let norm = T::from_f64(1.0 / params.mesh.volume().sqrt());
        let mut psi = AlignedVec::filled(ngrid * n_orb, Complex::<T>::zero());
        let (nx, ny, nz) = (params.mesh.nx, params.mesh.ny, params.mesh.nz);
        for g in 0..ngrid {
            let (ix, iy, iz) = params.mesh.coords(g);
            for (o, &(kx, ky, kz)) in kvecs.iter().enumerate() {
                let phase = core::f64::consts::TAU
                    * (kx as f64 * ix as f64 / nx as f64
                        + ky as f64 * iy as f64 / ny as f64
                        + kz as f64 * iz as f64 / nz as f64);
                psi[g * n_orb + o] = Complex::cis(T::from_f64(phase)).scale(norm);
            }
        }

        let mut occ = vec![T::ZERO; n_orb];
        for f in occ.iter_mut().take(params.n_occ) {
            *f = T::from_f64(2.0);
        }

        // Reference eigenvalues: plane-wave kinetic energies ½|k|² until
        // the SCF replaces them with Kohn–Sham values.
        let two_pi = core::f64::consts::TAU;
        let (lx, ly, lz) = (
            nx as f64 * params.mesh.spacing,
            ny as f64 * params.mesh.spacing,
            nz as f64 * params.mesh.spacing,
        );
        let eps: Vec<f64> = kvecs
            .iter()
            .map(|&(kx, ky, kz)| {
                let k2 = (two_pi * kx as f64 / lx).powi(2)
                    + (two_pi * ky as f64 / ly).powi(2)
                    + (two_pi * kz as f64 / lz).powi(2);
                0.5 * k2
            })
            .collect();

        LfdState {
            psi0: psi.clone(),
            psi,
            occ,
            eps,
            shadow: vec![Complex::zero(); n_orb * n_orb],
            vloc,
            a_induced: 0.0,
            a_induced_dot: 0.0,
            time: 0.0,
            step: 0,
        }
    }

    /// Total vector potential seen by the electrons at time `t`.
    pub fn a_total(&self, params: &LfdParams, t: f64) -> f64 {
        params.laser.vector_potential(t) + self.a_induced
    }

    /// Sum of squared norms weighted by occupation: the electron count,
    /// conserved by exact propagation.
    ///
    /// One row-major pass per block of [`COUNT_BLOCK`] orbitals, each
    /// orbital summed into its own f64 accumulator in grid order, then
    /// the occupied ones folded in orbital order.
    pub fn electron_count(&self, params: &LfdParams) -> f64 {
        let n_orb = params.n_orb;
        let dv = params.mesh.dv();
        let mut total = 0.0f64;
        for o0 in (0..n_orb).step_by(COUNT_BLOCK) {
            let occ = &self.occ[o0..(o0 + COUNT_BLOCK).min(n_orb)];
            if occ.iter().all(|f| f.to_f64() == 0.0) {
                continue;
            }
            let mut sums = [0.0f64; COUNT_BLOCK];
            for row in self.psi[..params.mesh.len() * n_orb].chunks_exact(n_orb) {
                for (s, z) in sums.iter_mut().zip(&row[o0..o0 + occ.len()]) {
                    *s += z.norm_sqr().to_f64();
                }
            }
            for (f, s) in occ.iter().zip(sums) {
                let f = f.to_f64();
                if f != 0.0 {
                    total += f * s * dv;
                }
            }
        }
        total
    }

    /// Copies the current orbitals into the Ψ(0) reference (done by the
    /// SCF refresh).
    pub fn refresh_reference(&mut self) {
        self.psi0.copy_from_slice(&self.psi);
    }
}

/// Enumerates the `n` smallest |k|² integer reciprocal modes, ties broken
/// deterministically.
fn lowest_k_modes(mesh: &Mesh3, n: usize) -> Vec<(i32, i32, i32)> {
    let half = |len: usize| -> i32 { (len as i32) / 2 };
    let (hx, hy, hz) = (half(mesh.nx), half(mesh.ny), half(mesh.nz));
    let mut modes: Vec<(i64, (i32, i32, i32))> = Vec::new();
    for kx in -hx..=hx {
        for ky in -hy..=hy {
            for kz in -hz..=hz {
                let k2 = (kx as i64).pow(2) + (ky as i64).pow(2) + (kz as i64).pow(2);
                modes.push((k2, (kx, ky, kz)));
            }
        }
    }
    modes.sort_by_key(|&(k2, (a, b, c))| (k2, a, b, c));
    assert!(modes.len() >= n, "mesh too small for {n} orbitals");
    modes.truncate(n);
    modes.into_iter().map(|(_, k)| k).collect()
}

/// Convenience: a smooth model potential (sum of cosines) for tests and
/// standalone examples; QXMD supplies the physical ionic potential.
pub fn cosine_potential<T: Real>(mesh: &Mesh3, depth: f64) -> Vec<T> {
    let mut v = vec![T::ZERO; mesh.len()];
    for (g, val) in v.iter_mut().enumerate() {
        let (ix, iy, iz) = mesh.coords(g);
        let f = |i: usize, n: usize| (core::f64::consts::TAU * i as f64 / n as f64).cos();
        *val = T::from_f64(
            -depth * (f(ix, mesh.nx) + f(iy, mesh.ny) + f(iz, mesh.nz)) / 3.0,
        );
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(8, 0.6),
            n_orb: 10,
            n_occ: 4,
            dt: 0.02,
            vnl_strength: 0.05,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        }
    }

    #[test]
    fn initial_orbitals_orthonormal() {
        let p = small_params();
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let ngrid = p.mesh.len();
        let dv = p.mesh.dv();
        for a in 0..p.n_orb {
            for b in a..p.n_orb {
                let mut s = dcmesh_numerics::C64::zero();
                for g in 0..ngrid {
                    s += st.psi[g * p.n_orb + a].conj() * st.psi[g * p.n_orb + b];
                }
                let s = s.scale(dv);
                let want = if a == b { 1.0 } else { 0.0 };
                assert!(
                    (s.re - want).abs() < 1e-12 && s.im.abs() < 1e-12,
                    "<{a}|{b}> = {s:?}"
                );
            }
        }
    }

    #[test]
    fn electron_count_matches_occupations() {
        let p = small_params();
        let st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        assert!((st.electron_count(&p) - p.n_electrons()).abs() < 1e-10);
    }

    #[test]
    fn k_modes_distinct_and_sorted() {
        let mesh = Mesh3::cubic(8, 1.0);
        let modes = lowest_k_modes(&mesh, 27);
        let mut seen = std::collections::HashSet::new();
        for &m in &modes {
            assert!(seen.insert(m), "duplicate mode {m:?}");
        }
        // First mode is k = 0, lowest possible.
        assert_eq!(modes[0], (0, 0, 0));
    }

    #[test]
    fn f32_initialisation_close_to_f64() {
        let p = small_params();
        let s32 = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let s64 = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        for (a, b) in s32.psi.iter().zip(&s64.psi) {
            assert!((a.re as f64 - b.re).abs() < 1e-6);
            assert!((a.im as f64 - b.im).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "n_occ")]
    fn invalid_occupation_rejected() {
        let mut p = small_params();
        p.n_occ = 11;
        assert!(p.validate().is_err());
        LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
    }

    #[test]
    fn a_total_combines_external_and_induced() {
        let mut p = small_params();
        p.laser = LaserPulse { amplitude: 0.3, omega: 0.5, duration: 100.0, phase: 0.0 };
        let mut st = LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        st.a_induced = 0.01;
        let t = 20.0;
        assert!(
            (st.a_total(&p, t) - (p.laser.vector_potential(t) + 0.01)).abs() < 1e-15
        );
    }
}
