//! Offline *sequential* shim for the `rayon` crate (see
//! `shims/README.md`).
//!
//! The `par_*` entry points used by this workspace are provided with
//! identical signatures but execute on the calling thread. All real call
//! sites either write disjoint chunks or perform order-insensitive
//! reductions, so results are identical to the parallel versions.

/// The traits the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    /// `into_par_iter()` — sequential shim returning the std iterator.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// Returns the (sequential) iterator.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_chunks_mut()` — sequential shim over `chunks_mut`.
    pub trait ParallelSliceMut<T> {
        /// Mutable chunks of `size` elements.
        fn par_chunks_mut(&mut self, size: usize) -> core::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> core::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }

    /// `par_iter_mut()` — sequential shim over `iter_mut`.
    pub trait IntoParallelRefMutIterator<T> {
        /// Mutable element iterator.
        fn par_iter_mut(&mut self) -> core::slice::IterMut<'_, T>;
    }

    impl<T> IntoParallelRefMutIterator<T> for [T] {
        fn par_iter_mut(&mut self) -> core::slice::IterMut<'_, T> {
            self.iter_mut()
        }
    }
}

/// `rayon::current_num_threads()` — the workers a `par_*` call can
/// spread over: one, the calling thread.
pub fn current_num_threads() -> usize {
    1
}

/// `rayon::ThreadPoolBuilder` — sequential shim. Built pools carry no
/// threads; [`ThreadPool::install`] runs the closure on the calling
/// thread. Thread-count reproducibility tests thus hold trivially under
/// the shim and remain meaningful when the real crate is swapped in.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default (ignored) settings.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Records the requested thread count (informational only).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Builds the (threadless) pool; never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads.max(1) })
    }
}

/// A pool built by [`ThreadPoolBuilder`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` "inside" the pool — on the calling thread in the shim.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        op()
    }

    /// The thread count the pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never constructed by the
/// shim, kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl core::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("thread pool build failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pool_install_runs_on_calling_thread() {
        let pool = super::ThreadPoolBuilder::new().num_threads(4).build().expect("build");
        assert_eq!(pool.current_num_threads(), 4);
        let here = std::thread::current().id();
        let (val, tid) = pool.install(|| (21 * 2, std::thread::current().id()));
        assert_eq!(val, 42);
        assert_eq!(tid, here, "sequential shim must not spawn");
    }

    #[test]
    fn shims_behave_like_std() {
        let sum: usize = (0..10usize).into_par_iter().map(|x| x * 2).sum();
        assert_eq!(sum, 90);

        let mut v = vec![0usize; 6];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert_eq!(v, [0, 1, 2, 3, 4, 5]);

        let mut w = vec![0usize; 6];
        w.par_chunks_mut(2).enumerate().for_each(|(i, c)| c.fill(i));
        assert_eq!(w, [0, 0, 1, 1, 2, 2]);
    }
}
