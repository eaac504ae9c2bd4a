//! Library configuration: compute mode and verbosity.
//!
//! oneMKL keeps the compute mode process-global; here it belongs to the
//! calling thread's [`crate::context`]. It is initialised lazily from
//! `MKL_BLAS_COMPUTE_MODE` and can be overridden at runtime (oneMKL's
//! dedicated APIs). A new thread starts from the environment and does not
//! inherit its parent's override. [`with_compute_mode`] provides scoped
//! overrides for experiments that sweep all modes in one process — the
//! paper had to re-launch the binary per mode; a library can do better.

use crate::context;
use crate::mode::{ComputeMode, ParseModeError};
use crate::{COMPUTE_MODE_ENV, VERBOSE_ENV};
use std::sync::OnceLock;

static VERBOSE: OnceLock<u8> = OnceLock::new();

/// Returns the calling thread's compute mode, initialising it from
/// `MKL_BLAS_COMPUTE_MODE` on first use.
///
/// An unparsable environment value panics: silently computing at the wrong
/// precision is the worst possible failure mode for a precision study.
/// Runners that want to surface the problem as a structured error instead
/// (so a supervisor can report it without killing the process) should call
/// [`try_compute_mode`] up front.
pub fn compute_mode() -> ComputeMode {
    try_compute_mode().unwrap_or_else(|e| panic!("invalid {COMPUTE_MODE_ENV}: {e}"))
}

/// Fallible variant of [`compute_mode`]: returns the parse error (which
/// lists the valid values) instead of panicking when the environment holds
/// an unrecognised `MKL_BLAS_COMPUTE_MODE`. The mode is **not** cached on
/// failure, so a corrected environment or an explicit
/// [`set_compute_mode`] recovers.
pub fn try_compute_mode() -> Result<ComputeMode, ParseModeError> {
    if let Some(mode) = context::with(|cx| cx.mode) {
        return Ok(mode);
    }
    let mode = match std::env::var(COMPUTE_MODE_ENV) {
        Ok(s) => ComputeMode::from_env_value(&s)?,
        Err(_) => ComputeMode::Standard,
    };
    set_compute_mode(mode);
    Ok(mode)
}

/// Sets the calling thread's compute mode (overrides the environment).
pub fn set_compute_mode(mode: ComputeMode) {
    context::with(|cx| cx.mode = Some(mode));
}

/// Clears any runtime override so the next call re-reads the environment.
pub fn reset_compute_mode() {
    context::with(|cx| cx.mode = None);
}

/// Runs `f` with the compute mode temporarily set to `mode`, restoring the
/// previous mode afterwards (also on panic). The override is the calling
/// thread's own: other threads neither see it nor wait for it, and nested
/// overrides are fine.
pub fn with_compute_mode<R>(mode: ComputeMode, f: impl FnOnce() -> R) -> R {
    let previous = compute_mode();
    set_compute_mode(mode);
    struct Restore(ComputeMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_compute_mode(self.0);
        }
    }
    let _restore = Restore(previous);
    f()
}

/// The `MKL_VERBOSE` level: 0 = off, 1 = log calls, 2 = log calls with
/// timing detail (the paper uses `MKL_VERBOSE=2`).
pub fn verbose_level() -> u8 {
    *VERBOSE.get_or_init(|| {
        std::env::var(VERBOSE_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<u8>().ok())
            .unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        for m in ComputeMode::ALL {
            set_compute_mode(m);
            assert_eq!(compute_mode(), m);
        }
    }

    #[test]
    fn try_compute_mode_reports_the_set_mode() {
        set_compute_mode(ComputeMode::FloatToBf16x2);
        assert_eq!(try_compute_mode(), Ok(ComputeMode::FloatToBf16x2));
    }

    #[test]
    fn override_is_thread_scoped_and_not_inherited() {
        let from_env = compute_mode();
        let other = ComputeMode::ALL.into_iter().find(|&m| m != from_env).expect("six modes");
        with_compute_mode(other, || {
            // A new thread starts from the environment, and what it sets
            // stays its own.
            let seen = std::thread::spawn(|| {
                let seen = compute_mode();
                set_compute_mode(ComputeMode::Complex3m);
                seen
            })
            .join()
            .expect("child thread");
            assert_eq!(seen, from_env);
            assert_eq!(compute_mode(), other);
        });
    }

    #[test]
    fn scoped_override_restores() {
        set_compute_mode(ComputeMode::Standard);
        let inside = with_compute_mode(ComputeMode::FloatToTf32, compute_mode);
        assert_eq!(inside, ComputeMode::FloatToTf32);
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }

    #[test]
    fn scoped_override_restores_on_panic() {
        set_compute_mode(ComputeMode::Standard);
        let r = std::panic::catch_unwind(|| {
            with_compute_mode(ComputeMode::FloatToBf16, || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }

    #[test]
    fn nested_scoped_overrides() {
        set_compute_mode(ComputeMode::Standard);
        with_compute_mode(ComputeMode::FloatToBf16, || {
            assert_eq!(compute_mode(), ComputeMode::FloatToBf16);
            with_compute_mode(ComputeMode::Complex3m, || {
                assert_eq!(compute_mode(), ComputeMode::Complex3m);
            });
            assert_eq!(compute_mode(), ComputeMode::FloatToBf16);
        });
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }
}
