//! Atomic species of lead titanate.

/// The three species of PbTiO₃.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Species {
    /// Lead.
    Pb,
    /// Titanium.
    Ti,
    /// Oxygen.
    O,
}

/// Atomic mass unit in electron masses (a.u.).
pub const AMU: f64 = 1_822.888_486;

impl Species {
    /// Mass in atomic units (electron masses).
    pub fn mass(self) -> f64 {
        match self {
            Species::Pb => 207.2 * AMU,
            Species::Ti => 47.867 * AMU,
            Species::O => 15.999 * AMU,
        }
    }

    /// Valence electrons contributed by the pseudopotential. Chosen so a
    /// PbTiO₃ formula unit carries 32 electrons: the paper's 40-atom
    /// (8-cell) system then has 256 electrons → N_occ = 128, matching the
    /// m = 128 of Table VII; the 135-atom (27-cell) system has 864 →
    /// N_occ = 432.
    pub fn valence(self) -> u32 {
        match self {
            Species::Pb => 4,  // 6s² 6p²
            Species::Ti => 10, // 3p⁶ 3d² 4s²
            Species::O => 6,   // 2s² 2p⁴
        }
    }

    /// Effective ionic charge for the local pseudopotential well (same as
    /// the valence for a norm-conserving local part).
    pub fn z_eff(self) -> f64 {
        self.valence() as f64
    }

    /// Gaussian width (bohr) of the soft local pseudopotential.
    pub fn core_radius(self) -> f64 {
        match self {
            Species::Pb => 2.2,
            Species::Ti => 1.8,
            Species::O => 1.2,
        }
    }

    /// Born–Mayer short-range repulsion prefactor (Hartree).
    pub fn repulsion_a(self) -> f64 {
        match self {
            Species::Pb => 12.0,
            Species::Ti => 9.0,
            Species::O => 5.0,
        }
    }

    /// Born–Mayer decay length (bohr).
    pub fn repulsion_rho(self) -> f64 {
        match self {
            Species::Pb => 0.62,
            Species::Ti => 0.55,
            Species::O => 0.45,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_unit_has_32_valence_electrons() {
        let cell = Species::Pb.valence() + Species::Ti.valence() + 3 * Species::O.valence();
        assert_eq!(cell, 32);
    }

    #[test]
    fn paper_system_electron_counts() {
        let per_cell = 32;
        assert_eq!(8 * per_cell / 2, 128, "40-atom system must give N_occ = 128");
        assert_eq!(27 * per_cell / 2, 432, "135-atom system must give N_occ = 432");
    }

    #[test]
    fn masses_ordered() {
        assert!(Species::Pb.mass() > Species::Ti.mass());
        assert!(Species::Ti.mass() > Species::O.mass());
        // Pb in electron masses is ~3.8e5.
        assert!((Species::Pb.mass() / AMU - 207.2).abs() < 1e-9);
    }
}
