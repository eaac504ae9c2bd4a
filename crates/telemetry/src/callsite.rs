//! Callsite identity: stable IDs for every BLAS call's provenance.
//!
//! The per-callsite autotuner (ROADMAP) needs to know *which* call in
//! the program issued a GEMM, not just its shape — `lfd::qd_energy`
//! can afford a different precision than `lfd::qd_propagate`. The paper
//! family this follows ("Tunable Precision Emulation via Automatic BLAS
//! Offloading", PAPERS.md) keys its decisions on exactly this
//! (call-phase, routine) pair.
//!
//! A callsite ID is `"{phase}/{routine}"`, e.g. `lfd::qd_energy/cgemm`
//! or `qxmd::scf_refresh/dgemm`. The **phase** half is set by the
//! enclosing code via [`phase_scope`] — an RAII guard holding a
//! thread-local `&'static str` — and the **routine** half is supplied by
//! `mkl_lite::verbose::observe` at the call chokepoint. IDs are interned
//! to `&'static str` so they can ride in [`crate::AttrValue::Str`] span
//! attributes and key the [`crate::ledger`], and each thread remembers the
//! IDs it has minted, so naming a call neither allocates nor takes the
//! interner's lock after the first call from that (phase, routine).
//!
//! Phase scoping is *unconditional* (one `Cell` swap, no atomics, no
//! branches on telemetry level) so the phase is always correct even if
//! telemetry is enabled mid-run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Phase used when no [`phase_scope`] is active.
pub const DEFAULT_PHASE: &str = "app";

thread_local! {
    static CURRENT_PHASE: Cell<&'static str> = const { Cell::new(DEFAULT_PHASE) };
    /// `(phase, routine, id)` for every callsite this thread has minted.
    static MINTED: RefCell<Vec<(&'static str, &'static str, &'static str)>> =
        const { RefCell::new(Vec::new()) };
}

/// RAII guard restoring the previous phase on drop. Created by
/// [`phase_scope`].
pub struct PhaseScope {
    prev: &'static str,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        CURRENT_PHASE.with(|c| c.set(self.prev));
    }
}

/// Enters a named phase on this thread (e.g. `"lfd::qd_energy"`).
/// Nested scopes shadow outer ones; the guard restores the outer phase
/// on drop. Cost is one thread-local `Cell` swap regardless of
/// telemetry level.
#[must_use = "the phase ends when the returned guard is dropped"]
pub fn phase_scope(name: &'static str) -> PhaseScope {
    CURRENT_PHASE.with(|c| {
        let prev = c.get();
        c.set(name);
        PhaseScope { prev }
    })
}

/// The phase currently active on this thread ([`DEFAULT_PHASE`] when no
/// scope is active).
pub fn current_phase() -> &'static str {
    CURRENT_PHASE.with(|c| c.get())
}

/// Interns an arbitrary string, returning a `&'static str` that lives
/// for the process. Each unique string leaks exactly once; repeated
/// calls return the existing interned copy. The one process-wide table in
/// this module: leaked strings are process-lifetime by construction.
pub fn intern(s: &str) -> &'static str {
    static REGISTRY: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(existing) = reg.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    reg.insert(leaked);
    leaked
}

/// Mints the callsite ID for a routine called from the current phase:
/// `"{phase}/{routine-lowercased}"`, interned. After the first call from
/// a (phase, routine) pair the ID comes from the thread's own short list:
/// no lock, no allocation.
pub fn callsite_for(routine: &'static str) -> &'static str {
    let phase = current_phase();
    MINTED.with_borrow_mut(|minted| {
        if let Some(&(_, _, id)) = minted.iter().find(|&&(p, r, _)| p == phase && r == routine) {
            return id;
        }
        let id = intern(&format!("{phase}/{}", routine.to_lowercase()));
        minted.push((phase, routine, id));
        id
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_phase_is_app() {
        // Other tests on this thread may have scopes open; run in a
        // fresh thread to observe the default.
        std::thread::spawn(|| {
            assert_eq!(current_phase(), DEFAULT_PHASE);
            assert_eq!(callsite_for("SGEMM"), "app/sgemm");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scopes_nest_and_restore() {
        std::thread::spawn(|| {
            let _outer = phase_scope("lfd::qd_energy");
            assert_eq!(current_phase(), "lfd::qd_energy");
            assert_eq!(callsite_for("CGEMM"), "lfd::qd_energy/cgemm");
            {
                let _inner = phase_scope("lfd::qd_propagate");
                assert_eq!(callsite_for("ZGEMM"), "lfd::qd_propagate/zgemm");
            }
            assert_eq!(current_phase(), "lfd::qd_energy");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn interning_is_stable() {
        let a = callsite_for("DGEMM_callsite_test");
        let b = callsite_for("DGEMM_callsite_test");
        assert!(std::ptr::eq(a, b), "same pointer for repeated interns");
        // Another thread minting the same ID gets the same interned copy.
        let c = std::thread::spawn(|| callsite_for("DGEMM_callsite_test")).join().unwrap();
        assert!(std::ptr::eq(a, c));
    }

    #[test]
    fn phase_is_thread_local() {
        let _scope = phase_scope("qxmd::md_step");
        let other = std::thread::spawn(current_phase).join().unwrap();
        assert_eq!(other, DEFAULT_PHASE);
    }
}
