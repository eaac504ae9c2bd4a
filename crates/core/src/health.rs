//! Numerical health checks.
//!
//! Low-precision compute modes fail in recognisable ways: NaN/Inf from
//! overflowed BF16 products, excitation counts blowing past the
//! electron count, or a non-finite orthonormality defect at the MD
//! boundary. `check_step` runs on every QD step's observables and
//! `check_boundary` on every boundary's SCF defect; the
//! [`crate::supervisor`] turns a violation into a rollback plus
//! precision escalation instead of a corrupted (or crashed) run.
//!
//! Step checks run **before** the observables enter the run record and
//! before the FP64 SCF refresh touches the state — a NaN wave function
//! must never reach the eigensolver.

use dcmesh_lfd::StepObservables;
use std::fmt;

/// Upper bound on `|nexc|` as a multiple of the deck's electron count
/// (occupied orbitals × 2). `nexc` beyond the electron count is
/// unphysical; 2× leaves slack for transient remap overshoot.
pub const MAX_NEXC_FRACTION: f64 = 2.0;

/// A specific bound violation.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthViolation {
    /// An observable is NaN or Inf.
    NonFinite {
        /// Which observable.
        what: &'static str,
        /// QD step where it appeared.
        step: u64,
    },
    /// `|nexc|` exceeded [`MAX_NEXC_FRACTION`] × the electron count.
    ExcitationBlowup {
        /// QD step.
        step: u64,
        /// Observed value.
        nexc: f64,
        /// The bound (absolute).
        bound: f64,
    },
    /// The SCF refresh reported a non-finite orthonormality defect.
    ScfDefectRunaway {
        /// Observed defect.
        defect: f64,
    },
    /// The FP64 SCF refresh found the orbital overlap matrix numerically
    /// singular — the state was already destroyed when the boundary was
    /// reached (accumulated low-precision error or an injected fault).
    SingularOverlap {
        /// The orthonormalisation error, including the eigenvalue evidence.
        detail: String,
    },
    /// Silent data corruption: an ABFT row-checksum on a sampled GEMM
    /// failed, or a `verify_bursts` replay produced different bits.
    /// Unlike the divergence violations this is *not* a precision
    /// problem — the supervisor rolls back and retries at the **same**
    /// compute mode instead of escalating.
    SilentCorruption {
        /// What was detected and where (checksum defect, routine, call
        /// index, or the replay mismatch evidence).
        detail: String,
    },
}

impl HealthViolation {
    /// Stable snake_case kind label, used as the ledger attribution key
    /// and in telemetry attributes.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthViolation::NonFinite { .. } => "non_finite",
            HealthViolation::ExcitationBlowup { .. } => "excitation_blowup",
            HealthViolation::ScfDefectRunaway { .. } => "scf_defect_runaway",
            HealthViolation::SingularOverlap { .. } => "singular_overlap",
            HealthViolation::SilentCorruption { .. } => "silent_corruption",
        }
    }
}

impl fmt::Display for HealthViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthViolation::NonFinite { what, step } => {
                write!(f, "non-finite {what} at QD step {step}")
            }
            HealthViolation::ExcitationBlowup { step, nexc, bound } => {
                write!(f, "nexc = {nexc:e} exceeds bound {bound:e} at QD step {step}")
            }
            HealthViolation::ScfDefectRunaway { defect } => {
                write!(f, "non-finite SCF orthonormality defect {defect}")
            }
            HealthViolation::SingularOverlap { detail } => {
                write!(f, "SCF refresh failed: {detail}")
            }
            HealthViolation::SilentCorruption { detail } => {
                write!(f, "silent data corruption: {detail}")
            }
        }
    }
}

/// Checks one QD step's observables for a deck with `n_electrons`
/// electrons: every observable finite, `|nexc|` within
/// [`MAX_NEXC_FRACTION`] × `n_electrons`.
pub(crate) fn check_step(obs: &StepObservables, n_electrons: f64) -> Result<(), HealthViolation> {
    for (what, value) in [
        ("ekin", obs.ekin),
        ("etot", obs.etot),
        ("nexc", obs.nexc),
        ("javg", obs.javg),
    ] {
        if !value.is_finite() {
            return Err(HealthViolation::NonFinite { what, step: obs.step });
        }
    }
    let bound = MAX_NEXC_FRACTION * n_electrons;
    if obs.nexc.abs() > bound {
        return Err(HealthViolation::ExcitationBlowup { step: obs.step, nexc: obs.nexc, bound });
    }
    Ok(())
}

/// Checks the orthonormality defect the SCF refresh absorbed at an MD
/// boundary: any finite defect passes, a NaN or Inf is a violation.
pub(crate) fn check_boundary(defect: f64) -> Result<(), HealthViolation> {
    if defect.is_finite() {
        Ok(())
    } else {
        Err(HealthViolation::ScfDefectRunaway { defect })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(step: u64, nexc: f64) -> StepObservables {
        StepObservables {
            step,
            time_fs: step as f64 * 0.01,
            ekin: 1.0,
            epot: -2.0,
            etot: -1.0,
            eexc: 0.1,
            nexc,
            aext: 0.0,
            javg: 0.01,
        }
    }

    #[test]
    fn finite_physical_steps_pass() {
        for step in 0..10 {
            check_step(&obs(step, 0.1 * step as f64), 8.0).expect("healthy step");
        }
        check_boundary(1e-7).expect("healthy boundary");
    }

    #[test]
    fn nan_and_inf_detected() {
        let mut bad = obs(3, 0.1);
        bad.nexc = f64::NAN;
        assert_eq!(check_step(&bad, 8.0), Err(HealthViolation::NonFinite { what: "nexc", step: 3 }));
        let mut inf = obs(4, 0.1);
        inf.ekin = f64::INFINITY;
        assert_eq!(check_step(&inf, 8.0), Err(HealthViolation::NonFinite { what: "ekin", step: 4 }));
    }

    #[test]
    fn excitation_blowup_detected() {
        let e = check_step(&obs(5, 17.0), 8.0).unwrap_err();
        assert!(matches!(e, HealthViolation::ExcitationBlowup { step: 5, .. }), "{e}");
    }

    #[test]
    fn boundary_bounds_enforced() {
        for defect in [0.0, 1e-4, 1e-2, 1e300] {
            assert!(check_boundary(defect).is_ok(), "finite defect {defect} must pass");
        }
        for defect in [f64::NAN, f64::INFINITY] {
            let e = check_boundary(defect).unwrap_err();
            assert_eq!(e.kind(), "scf_defect_runaway");
            let msg = e.to_string();
            assert!(msg.contains("non-finite") && !msg.contains("bound"), "{msg}");
        }
    }
}
