//! The external laser pulse.
//!
//! DCMESH studies laser-induced excitation dynamics in lead titanate; the
//! driving field enters in the velocity gauge through a spatially uniform
//! vector potential `A(t)` polarised along z. We use the standard
//! sin²-envelope pulse of TDDFT codes. Atomic units throughout
//! (ħ = e = mₑ = 1; 1 fs ≈ 41.341 a.u. of time).

/// Conversion factor: atomic units of time per femtosecond.
pub const AU_PER_FS: f64 = 41.341_374_575_751;

/// A sin²-envelope laser pulse, linearly polarised along z.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaserPulse {
    /// Peak vector-potential amplitude (a.u.).
    pub amplitude: f64,
    /// Carrier angular frequency (Hartree).
    pub omega: f64,
    /// Pulse duration (a.u. of time); the envelope is zero outside
    /// `[0, duration]`.
    pub duration: f64,
    /// Carrier-envelope phase (radians).
    pub phase: f64,
}

impl LaserPulse {
    /// A pulse specified in experimental units: intensity-equivalent
    /// amplitude (a.u.), photon energy in eV, duration in fs.
    pub fn from_ev_fs(amplitude: f64, photon_ev: f64, duration_fs: f64) -> LaserPulse {
        LaserPulse {
            amplitude,
            omega: photon_ev / 27.211_386,
            duration: duration_fs * AU_PER_FS,
            phase: 0.0,
        }
    }

    /// External vector potential `A_ext(t)` (a.u.).
    pub fn vector_potential(&self, t: f64) -> f64 {
        if t <= 0.0 || t >= self.duration || self.duration <= 0.0 {
            return 0.0;
        }
        let env = (core::f64::consts::PI * t / self.duration).sin().powi(2);
        self.amplitude * env * (self.omega * t + self.phase).cos()
    }

    /// A pulse that is identically zero (field-free propagation).
    pub fn off() -> LaserPulse {
        LaserPulse { amplitude: 0.0, omega: 1.0, duration: 0.0, phase: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse() -> LaserPulse {
        LaserPulse::from_ev_fs(0.2, 3.1, 5.0)
    }

    #[test]
    fn zero_outside_support() {
        let p = pulse();
        assert_eq!(p.vector_potential(-1.0), 0.0);
        assert_eq!(p.vector_potential(0.0), 0.0);
        assert_eq!(p.vector_potential(p.duration), 0.0);
        assert_eq!(p.vector_potential(p.duration + 5.0), 0.0);
    }

    #[test]
    fn peak_is_near_midpoint_and_bounded() {
        let p = pulse();
        let mut max = 0.0f64;
        for i in 0..10_000 {
            let t = p.duration * i as f64 / 10_000.0;
            max = max.max(p.vector_potential(t).abs());
        }
        assert!(max <= p.amplitude * 1.000_001, "envelope exceeded amplitude: {max}");
        assert!(max >= p.amplitude * 0.9, "peak far below amplitude: {max}");
    }

    #[test]
    fn off_pulse_is_zero_everywhere() {
        let p = LaserPulse::off();
        for t in [-1.0, 0.0, 0.5, 100.0] {
            assert_eq!(p.vector_potential(t), 0.0);
        }
    }

    #[test]
    fn photon_energy_conversion() {
        let p = LaserPulse::from_ev_fs(0.1, 27.211_386, 1.0);
        assert!((p.omega - 1.0).abs() < 1e-9);
        assert!((p.duration - AU_PER_FS).abs() < 1e-9);
    }
}
