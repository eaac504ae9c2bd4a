//! Offline API-subset shim for `parking_lot` (see `shims/README.md`).
//!
//! Wraps `std::sync::Mutex` with parking_lot's signature: a `const`
//! constructor and no lock poisoning (a poisoned std lock is recovered
//! transparently). [`Mutex`] is all the workspace takes from it.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Mutual exclusion without poisoning.
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates the mutex (usable in statics).
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(StdMutexGuard<'a, T>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excludes_other_threads() {
        let shared = std::sync::Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut g = shared.lock();
                    let v = *g;
                    std::thread::yield_now();
                    *g = v + 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*shared.lock(), 400);
    }

    #[test]
    fn a_panic_while_locked_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
