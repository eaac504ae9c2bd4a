//! Structured run errors.
//!
//! Production runs previously panicked on bad input, missing records or
//! unrecoverable numerics. Every failure a run can hit is now a
//! [`RunError`] variant, threaded through the runner, the sweep harness
//! and the supervisor, so callers (the bench binaries, batch drivers)
//! can distinguish "fix your deck" from "the numerics diverged" from
//! "the filesystem failed" without parsing panic messages.

use crate::checkpoint::CheckpointError;
use crate::config::DeckError;
use crate::health::HealthViolation;
use dcmesh_telemetry::{Attr, AttrValue};
use mkl_lite::{ComputeMode, ParseModeError};
use std::fmt;

/// Any failure of a simulation run.
#[derive(Debug)]
pub enum RunError {
    /// The deck failed validation before the run started.
    InvalidConfig(DeckError),
    /// `MKL_BLAS_COMPUTE_MODE` holds an unrecognised value. Surfaced
    /// before any BLAS call runs, so a typo in the environment cannot
    /// silently compute at the wrong precision (or crash mid-run).
    InvalidComputeMode(ParseModeError),
    /// `DCMESH_RANK` holds a value that does not parse as a rank id. A
    /// mis-launched rank must fail fast instead of silently running (and
    /// stamping its telemetry) as rank 0.
    InvalidRank {
        /// The offending environment value.
        value: String,
    },
    /// Checkpoint I/O failed (directory creation, write, rename).
    Io(std::io::Error),
    /// A checkpoint decoded but could not be used.
    Checkpoint(CheckpointError),
    /// The numerical health monitor detected divergence.
    Diverged {
        /// QD step at which the violation was detected.
        step: u64,
        /// Compute mode active when it happened.
        mode: ComputeMode,
        /// What tripped.
        violation: HealthViolation,
    },
    /// The supervisor ran out of escalation ladder or retry budget.
    EscalationExhausted {
        /// QD step of the final, fatal violation.
        step: u64,
        /// The strongest mode tried.
        mode: ComputeMode,
        /// The violation that still fired there.
        violation: HealthViolation,
        /// Re-run attempts consumed.
        attempts: u32,
    },
}

impl RunError {
    /// The one place a divergence is recorded: builds
    /// [`RunError::Diverged`] under the calling thread's compute mode and
    /// leaves the `health_violation` instant in the trace, so every
    /// violation kind — the step and boundary checks, an ABFT checksum, a
    /// refused SCF overlap, a replay mismatch — is on the timeline before
    /// the rollback it causes.
    pub(crate) fn diverged(step: u64, violation: HealthViolation) -> RunError {
        dcmesh_telemetry::instant(
            "health_violation",
            vec![
                Attr { key: "step", value: AttrValue::U64(step) },
                Attr { key: "detail", value: AttrValue::Text(violation.to_string()) },
            ],
        );
        RunError::Diverged { step, mode: mkl_lite::compute_mode(), violation }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RunError::InvalidComputeMode(e) => write!(f, "invalid compute mode: {e}"),
            RunError::InvalidRank { value } => write!(
                f,
                "invalid {}: {value:?} does not parse as a rank id (unset the variable \
                 for a single-rank run)",
                crate::runner::DCMESH_RANK_ENV
            ),
            RunError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            RunError::Checkpoint(e) => write!(f, "{e}"),
            RunError::Diverged { step, mode, violation } => {
                write!(f, "run diverged at QD step {step} under {mode}: {violation}")
            }
            RunError::EscalationExhausted { step, mode, violation, attempts } => write!(
                f,
                "escalation exhausted after {attempts} attempts; still diverging at QD step \
                 {step} under {mode}: {violation}"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidConfig(e) => Some(e),
            RunError::InvalidComputeMode(e) => Some(e),
            RunError::Io(e) => Some(e),
            RunError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeckError> for RunError {
    fn from(e: DeckError) -> Self {
        RunError::InvalidConfig(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

impl From<ParseModeError> for RunError {
    fn from(e: ParseModeError) -> Self {
        RunError::InvalidComputeMode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RunError::Diverged {
            step: 42,
            mode: ComputeMode::FloatToBf16,
            violation: HealthViolation::NonFinite { what: "nexc", step: 42 },
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("BF16") && s.contains("nexc"), "{s}");

        let io: RunError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
