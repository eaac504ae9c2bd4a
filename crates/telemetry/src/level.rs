//! The telemetry level of the calling thread's [`crate::recorder`],
//! mirroring the `MKL_VERBOSE` / `MKL_BLAS_COMPUTE_MODE` conventions of
//! `mkl-lite`: read from the environment when the thread first touches
//! telemetry, a runtime setter that overrides the environment, and a scoped
//! override for in-process sweeps and tests. Like every other piece of
//! recorder state it is per thread: an override is seen by the thread that
//! made it and by no other, and a new thread starts from `TELEMETRY`.

use crate::recorder;

/// How much the telemetry layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// Nothing is recorded. Every instrumentation point reduces to one
    /// thread-local read and a branch.
    #[default]
    Off = 0,
    /// Discrete events (escalations, health violations, checkpoints) and
    /// ledger rows are recorded; high-frequency spans are skipped.
    Events = 1,
    /// Everything: events, ledger rows, per-call BLAS spans, QD sub-phase
    /// spans, and the simulated device kernel timeline.
    Full = 2,
}

impl TelemetryLevel {
    /// Parses an environment value. Accepts `off`/`0`, `events`/`1`,
    /// `full`/`2` (case-insensitive).
    pub fn from_env_value(s: &str) -> Option<TelemetryLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TelemetryLevel::Off),
            "events" | "1" => Some(TelemetryLevel::Events),
            "full" | "2" => Some(TelemetryLevel::Full),
            _ => None,
        }
    }

    /// The environment value that selects this level.
    pub fn env_value(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Events => "events",
            TelemetryLevel::Full => "full",
        }
    }
}

/// Returns the calling thread's current level.
pub fn level() -> TelemetryLevel {
    recorder::with(|r| r.level)
}

/// Sets the calling thread's level (overrides the environment).
pub fn set_level(lvl: TelemetryLevel) {
    recorder::with(|r| r.level = lvl);
}

/// Runs `f` with the calling thread's level temporarily set to `lvl`,
/// restoring the previous level afterwards (also on panic). Overrides nest;
/// the recorder is not borrowed while `f` runs.
pub fn with_level<R>(lvl: TelemetryLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(TelemetryLevel);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_level(self.0);
        }
    }
    let _restore = Restore(recorder::with(|r| std::mem::replace(&mut r.level, lvl)));
    f()
}

/// True when discrete events and ledger rows should be recorded
/// (`Events` or `Full`). The hot-path check: one thread-local read.
#[inline]
pub fn events_enabled() -> bool {
    level() >= TelemetryLevel::Events
}

/// True when high-frequency spans (per-BLAS-call, per-QD-sub-phase) and
/// the device kernel timeline should be recorded (`Full` only).
#[inline]
pub fn spans_enabled() -> bool {
    level() == TelemetryLevel::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse() {
        assert_eq!(TelemetryLevel::from_env_value("off"), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::from_env_value("EVENTS"), Some(TelemetryLevel::Events));
        assert_eq!(TelemetryLevel::from_env_value("full"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::from_env_value("2"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::from_env_value("banana"), None);
    }

    #[test]
    fn scoped_override_restores() {
        with_level(TelemetryLevel::Off, || {
            assert!(!events_enabled() && !spans_enabled());
            with_level(TelemetryLevel::Events, || {
                assert!(events_enabled() && !spans_enabled());
                with_level(TelemetryLevel::Full, || {
                    assert!(events_enabled() && spans_enabled());
                });
                assert_eq!(level(), TelemetryLevel::Events);
            });
            assert_eq!(level(), TelemetryLevel::Off);
        });
    }

    #[test]
    fn scoped_override_restores_on_panic() {
        with_level(TelemetryLevel::Off, || {
            let r = std::panic::catch_unwind(|| {
                with_level(TelemetryLevel::Full, || panic!("boom"))
            });
            assert!(r.is_err());
            assert_eq!(level(), TelemetryLevel::Off);
        });
    }

    #[test]
    fn a_new_thread_starts_from_the_environment_not_its_parents_override() {
        // What a thread that never overrode anything sees is what the
        // environment gives (whatever the harness was started with).
        let from_env = || (level(), crate::sink::rank());
        let baseline = std::thread::spawn(from_env).join().expect("baseline thread");
        with_level(TelemetryLevel::Full, || {
            crate::sink::set_rank(7);
            assert_eq!(from_env(), (TelemetryLevel::Full, 7));
            let child = std::thread::spawn(from_env).join().expect("child thread");
            assert_eq!(child, baseline, "overrides are not inherited");
        });
    }
}
