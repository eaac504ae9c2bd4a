//! Lead-titanate supercells and the ionic local potential.
//!
//! PbTiO₃ is a cubic perovskite (paper §IV-E: "Exposing a material such
//! as lead titanate to laser-induced excitation dynamics..."): Pb on the
//! corner, Ti at the body centre, O on the three face centres. The
//! paper's two systems are the 2×2×2 (40-atom) and 3×3×3 (135-atom)
//! supercells.

use crate::species::Species;
use dcmesh_lfd::Mesh3;
use dcmesh_numerics::Real;
use rayon::prelude::*;

/// A periodic collection of atoms in a cubic box. `clone_from` a system
/// of the same size copies into the arrays it has.
#[derive(Debug)]
pub struct AtomicSystem {
    /// Species per atom.
    pub species: Vec<Species>,
    /// Positions in bohr, flattened `[x0, y0, z0, x1, ...]`.
    pub positions: Vec<f64>,
    /// Velocities in a.u., same layout.
    pub velocities: Vec<f64>,
    /// Cubic box edge in bohr.
    pub box_length: f64,
}

impl Clone for AtomicSystem {
    fn clone(&self) -> Self {
        let AtomicSystem { species, positions, velocities, box_length } = self;
        AtomicSystem {
            species: species.clone(),
            positions: positions.clone(),
            velocities: velocities.clone(),
            box_length: *box_length,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let AtomicSystem { species, positions, velocities, box_length } = self;
        species.clone_from(&source.species);
        positions.clone_from(&source.positions);
        velocities.clone_from(&source.velocities);
        *box_length = source.box_length;
    }
}

/// Cubic PbTiO₃ lattice constant in bohr (≈ 3.9 Å).
pub const PTO_LATTICE_BOHR: f64 = 7.37;

/// Builds an `n×n×n` PbTiO₃ supercell (5n³ atoms).
pub fn pto_supercell(n: usize) -> AtomicSystem {
    assert!(n > 0, "supercell multiplicity must be positive");
    let a = PTO_LATTICE_BOHR;
    // Fractional basis of the perovskite cell.
    let basis: [(Species, [f64; 3]); 5] = [
        (Species::Pb, [0.0, 0.0, 0.0]),
        (Species::Ti, [0.5, 0.5, 0.5]),
        (Species::O, [0.5, 0.5, 0.0]),
        (Species::O, [0.5, 0.0, 0.5]),
        (Species::O, [0.0, 0.5, 0.5]),
    ];
    let mut species = Vec::with_capacity(5 * n * n * n);
    let mut positions = Vec::with_capacity(15 * n * n * n);
    for cx in 0..n {
        for cy in 0..n {
            for cz in 0..n {
                for (sp, frac) in basis {
                    species.push(sp);
                    positions.push((cx as f64 + frac[0]) * a);
                    positions.push((cy as f64 + frac[1]) * a);
                    positions.push((cz as f64 + frac[2]) * a);
                }
            }
        }
    }
    let n_atoms = species.len();
    AtomicSystem {
        species,
        positions,
        velocities: vec![0.0; 3 * n_atoms],
        box_length: n as f64 * a,
    }
}

impl AtomicSystem {
    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True when the system has no atoms.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Total valence electrons.
    pub fn n_electrons(&self) -> u32 {
        self.species.iter().map(|s| s.valence()).sum()
    }

    /// Number of doubly occupied orbitals.
    pub fn n_occupied(&self) -> usize {
        (self.n_electrons() / 2) as usize
    }

    /// Builds the ionic local potential on an LFD mesh: a sum of soft
    /// Gaussian wells, `v(r) = −Z_eff·exp(−|r−R|²/2σ²)/norm`, minimum
    /// image, evaluated in parallel. Generic over the LFD element width.
    pub fn local_potential<T: Real>(&self, mesh: &Mesh3, depth_scale: f64) -> Vec<T> {
        let l = self.box_length;
        let mut v = vec![T::ZERO; mesh.len()];
        v.par_iter_mut().enumerate().for_each(|(g, out)| {
            let (px, py, pz) = mesh.position(g);
            // Map mesh coordinates onto the atomic box (the mesh spans it).
            let scale = l / (mesh.nx as f64 * mesh.spacing);
            let (px, py, pz) = (px * scale, py * scale, pz * scale);
            let mut acc = 0.0f64;
            for (a, sp) in self.species.iter().enumerate() {
                let sigma = sp.core_radius();
                let cutoff2 = (5.0 * sigma) * (5.0 * sigma);
                let mut dx = self.positions[3 * a] - px;
                let mut dy = self.positions[3 * a + 1] - py;
                let mut dz = self.positions[3 * a + 2] - pz;
                dx -= l * (dx / l).round();
                dy -= l * (dy / l).round();
                dz -= l * (dz / l).round();
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < cutoff2 {
                    acc -= sp.z_eff() * (-r2 / (2.0 * sigma * sigma)).exp();
                }
            }
            *out = T::from_f64(acc * depth_scale);
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_atom_counts() {
        // Table V: 40 and 135 atoms.
        assert_eq!(pto_supercell(2).len(), 40);
        assert_eq!(pto_supercell(3).len(), 135);
    }

    #[test]
    fn paper_occupation_counts() {
        assert_eq!(pto_supercell(2).n_occupied(), 128);
        assert_eq!(pto_supercell(3).n_occupied(), 432);
    }

    #[test]
    fn stoichiometry() {
        let s = pto_supercell(2);
        let count = |sp: Species| s.species.iter().filter(|&&x| x == sp).count();
        assert_eq!(count(Species::Pb), 8);
        assert_eq!(count(Species::Ti), 8);
        assert_eq!(count(Species::O), 24);
    }

    #[test]
    fn atoms_inside_box() {
        let s = pto_supercell(3);
        for (i, &p) in s.positions.iter().enumerate() {
            assert!(p >= 0.0 && p < s.box_length, "coordinate {i} = {p} outside box");
        }
    }

    #[test]
    fn potential_is_negative_and_periodic() {
        let s = pto_supercell(2);
        let mesh = Mesh3::cubic(12, s.box_length / 12.0);
        let v: Vec<f64> = s.local_potential(&mesh, 0.05);
        assert!(v.iter().all(|&x| x <= 0.0), "wells must be attractive");
        assert!(v.iter().any(|&x| x < -1e-4), "potential vanished");
    }

    #[test]
    fn deeper_scale_deepens_wells() {
        let s = pto_supercell(2);
        let mesh = Mesh3::cubic(10, s.box_length / 10.0);
        let v1: Vec<f64> = s.local_potential(&mesh, 0.05);
        let v2: Vec<f64> = s.local_potential(&mesh, 0.10);
        let min1 = v1.iter().cloned().fold(0.0f64, f64::min);
        let min2 = v2.iter().cloned().fold(0.0f64, f64::min);
        assert!((min2 - 2.0 * min1).abs() < 1e-12);
    }
}
