//! Reusable GEMM workspaces: thread-local scratch-buffer pools.
//!
//! Every level-3 call needs dense scratch — the packed A and B blocks of
//! one k-block (rounded BF16/TF32 copies and split component planes
//! included) and the product accumulator(s). Allocating those per call
//! taxes exactly the host-side path the paper times (Figure 3b, Tables
//! VI–VII), so this module keeps them in a per-thread free list: after
//! warm-up, steady-state QD stepping performs **zero heap allocations per
//! BLAS call**.
//!
//! Design notes:
//!
//! * One [`GemmWorkspace`] per thread (a `thread_local!`), holding an
//!   independent [`BufferPool`] per scalar type. Thread-locality means no
//!   locking on the hot path and no cross-thread buffer churn.
//! * Checkout is size-aware LIFO: the most recently returned buffer whose
//!   capacity already fits is taken, so repeated identical call sequences
//!   (a QD step makes the same BLAS calls with the same shapes every step)
//!   stop allocating and stop growing capacities after the first step.
//! * [`PooledBuf`] returns its storage on drop. If the thread-local has
//!   already been torn down (thread exit), the storage is simply freed.
//! * Every checkout starts on a cache line: storage is over-allocated by
//!   [`CACHE_LINE`] bytes and the [`PooledBuf`] window begins at the first
//!   64-byte boundary inside it. A packed panel then never straddles one
//!   more line than it has to, and a call's time no longer depends on
//!   where `malloc` happened to put the buffer (a 16-orbital ZGEMM read
//!   160 or 190 µs by heap placement).
//! * [`with_fresh_workspace`] swaps in an empty workspace for the duration
//!   of a closure — the injection point tests use to measure pool traffic
//!   in isolation (see [`PoolStats`]).

use core::cell::RefCell;
use core::ops::{Deref, DerefMut};
use dcmesh_numerics::C64;

/// Pool traffic counters, used by tests and the `gemm_hostperf` bench as
/// an allocation proxy: in steady state `misses` and `grows` stay flat
/// while `takes` keeps counting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers checked out.
    pub takes: u64,
    /// Checkouts that found the free list empty and allocated a fresh `Vec`.
    pub misses: u64,
    /// Checkouts whose recycled buffer had to grow its capacity.
    pub grows: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
    /// Bytes currently checked out of the pool (capacity of live
    /// [`PooledBuf`]s); buffers freed at thread teardown stay counted.
    pub bytes_outstanding: u64,
}

impl PoolStats {
    /// Checkouts served from the free list.
    pub fn hits(&self) -> u64 {
        self.takes.saturating_sub(self.misses)
    }

    /// Fraction of checkouts served from the free list (1.0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        if self.takes == 0 {
            1.0
        } else {
            self.hits() as f64 / self.takes as f64
        }
    }
}

/// Alignment of every checked-out window, in bytes: the one
/// [`dcmesh_numerics::aligned`] defines, whose [`window_start`] places both
/// these windows and every [`dcmesh_numerics::AlignedVec`].
pub use dcmesh_numerics::aligned::CACHE_LINE;
use dcmesh_numerics::aligned::{pad, window_start};

/// A free list of scratch buffers for one scalar type.
#[derive(Debug, Default)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
    stats: PoolStats,
}

impl<T: Copy + Default> BufferPool<T> {
    /// Storage for a `len`-element window: `len + pad` elements, so the
    /// window can start on a cache line wherever the allocation landed.
    fn take(&mut self, len: usize, zeroed: bool) -> Vec<T> {
        self.stats.takes += 1;
        // Zero-length checkouts (e.g. unused split planes) must not consume
        // a pooled buffer: popping one here would starve a later same-call
        // checkout and re-miss on every call, for a buffer nobody reads.
        if len == 0 {
            return Vec::new();
        }
        let len = len + pad::<T>();
        // Prefer the most recently returned buffer that already fits:
        // plain LIFO can pair a small buffer with a large request forever
        // when a call mixes sizes (m·k vs k·n planes), re-growing on every
        // call. The free list stays small (peak checkout concurrency of
        // one GEMM), so the scan is a handful of pointer reads.
        let mut buf = match self.free.iter().rposition(|b| b.capacity() >= len) {
            Some(i) => self.free.remove(i),
            None => match self.free.pop() {
                Some(b) => b,
                None => {
                    self.stats.misses += 1;
                    Vec::new()
                }
            },
        };
        if buf.capacity() < len {
            self.stats.grows += 1;
            // Grow to the request, not to `Vec`'s doubling: a pool buffer
            // settles at the largest window ever asked of it, and twice
            // that would be resident for the rest of the run.
            buf.clear();
            buf.reserve_exact(len);
        }
        // `resize` only writes elements beyond the current length, so a
        // recycled buffer that is already long enough costs nothing here;
        // `zeroed` callers pay one fill over the logical window.
        buf.truncate(len);
        buf.resize(len, T::default());
        if zeroed {
            buf.fill(T::default());
        }
        // Ledger the checked-out capacity (post-resize, so grows are
        // counted at their real size). `put` reverses this.
        self.stats.bytes_outstanding += (buf.capacity() * core::mem::size_of::<T>()) as u64;
        buf
    }

    fn put(&mut self, buf: Vec<T>) {
        self.stats.returns += 1;
        self.stats.bytes_outstanding = self
            .stats
            .bytes_outstanding
            .saturating_sub((buf.capacity() * core::mem::size_of::<T>()) as u64);
        self.free.push(buf);
    }
}

/// The per-thread workspace: one buffer pool per scalar type used by the
/// level-3 scratch paths. Complex GEMMs pack into separated real planes,
/// so the routines themselves only draw on the real pools; the `C64` pool
/// serves callers that apply a ZGEMM in place by row panels and need an
/// interleaved output panel (`dcmesh-linalg`'s Löwdin step).
#[derive(Debug, Default)]
pub struct GemmWorkspace {
    f32_pool: BufferPool<f32>,
    f64_pool: BufferPool<f64>,
    c64_pool: BufferPool<C64>,
}

thread_local! {
    static WORKSPACE: RefCell<GemmWorkspace> = RefCell::new(GemmWorkspace::default());
}

/// Scalar types that have a thread-local scratch pool.
pub trait Poolable: Copy + Default + Sized + 'static {
    /// Runs `f` with the calling thread's pool for this type. Returns
    /// `None` only during thread teardown, after the thread-local has been
    /// destroyed (buffers dropped then are freed instead of recycled).
    fn with_pool<R>(f: impl FnOnce(&mut BufferPool<Self>) -> R) -> Option<R>;
}

impl Poolable for f32 {
    fn with_pool<R>(f: impl FnOnce(&mut BufferPool<f32>) -> R) -> Option<R> {
        WORKSPACE.try_with(|w| f(&mut w.borrow_mut().f32_pool)).ok()
    }
}

impl Poolable for f64 {
    fn with_pool<R>(f: impl FnOnce(&mut BufferPool<f64>) -> R) -> Option<R> {
        WORKSPACE.try_with(|w| f(&mut w.borrow_mut().f64_pool)).ok()
    }
}

impl Poolable for C64 {
    fn with_pool<R>(f: impl FnOnce(&mut BufferPool<C64>) -> R) -> Option<R> {
        WORKSPACE.try_with(|w| f(&mut w.borrow_mut().c64_pool)).ok()
    }
}

/// A scratch buffer checked out of the calling thread's pool; returns its
/// storage to the pool on drop. Dereferences to a slice that starts on a
/// [`CACHE_LINE`] boundary.
#[derive(Debug)]
pub struct PooledBuf<T: Poolable> {
    buf: Vec<T>,
    /// The window `buf[start..start + len]`.
    start: usize,
    len: usize,
}

impl<T: Poolable> PooledBuf<T> {
    /// The first cache-line-aligned `len` elements of `buf`, which holds
    /// `len + pad` (or nothing, for an empty window).
    fn window(buf: Vec<T>, len: usize) -> Self {
        let start = window_start(buf.as_ptr(), buf.len(), len);
        PooledBuf { buf, start, len }
    }
}

impl<T: Poolable> Deref for PooledBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T: Poolable> DerefMut for PooledBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl<T: Poolable> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        let buf = core::mem::take(&mut self.buf);
        if buf.capacity() > 0 {
            // `with_pool` is None during thread teardown; then the Vec
            // drops normally.
            let _ = T::with_pool(move |p| p.put(buf));
        }
    }
}

fn take<T: Poolable>(len: usize, zeroed: bool) -> PooledBuf<T> {
    let buf = T::with_pool(|p| p.take(len, zeroed))
        // Thread teardown: fall back to a plain allocation.
        .unwrap_or_else(|| vec![T::default(); if len == 0 { 0 } else { len + pad::<T>() }]);
    PooledBuf::window(buf, len)
}

/// Checks out a buffer of `len` elements, all `T::default()` (zero for the
/// float types). Use for accumulators the GEMM kernels add into.
pub fn take_zeroed<T: Poolable>(len: usize) -> PooledBuf<T> {
    take(len, true)
}

/// Checks out a buffer of `len` elements with **unspecified (stale but
/// valid) contents** — the zero-cost variant for buffers the caller fully
/// overwrites (the packed operand blocks).
pub fn take_scratch<T: Poolable>(len: usize) -> PooledBuf<T> {
    take(len, false)
}

/// A copy of the calling thread's pool counters for `T`.
pub fn stats<T: Poolable>() -> PoolStats {
    T::with_pool(|p| p.stats).unwrap_or_default()
}

/// Clears the calling thread's free list and counters for `T`.
pub fn reset<T: Poolable>() {
    let _ = T::with_pool(|p| *p = BufferPool::default());
}

/// Runs `f` against a fresh, empty [`GemmWorkspace`], restoring the
/// previous workspace afterwards (also on panic). Buffers returned while
/// `f` runs go to the fresh workspace and are freed when it is discarded,
/// so tests observe pool traffic in isolation.
pub fn with_fresh_workspace<R>(f: impl FnOnce() -> R) -> R {
    let saved = WORKSPACE.with(|w| core::mem::take(&mut *w.borrow_mut()));
    struct Restore(Option<GemmWorkspace>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(ws) = self.0.take() {
                let _ = WORKSPACE.try_with(|w| *w.borrow_mut() = ws);
            }
        }
    }
    let _restore = Restore(Some(saved));
    f()
}

/// Pool stats of the calling thread summed over every scalar type.
pub fn combined_stats() -> PoolStats {
    [stats::<f32>(), stats::<f64>(), stats::<C64>()].iter().fold(PoolStats::default(), |t, s| {
        PoolStats {
            takes: t.takes + s.takes,
            misses: t.misses + s.misses,
            grows: t.grows + s.grows,
            returns: t.returns + s.returns,
            bytes_outstanding: t.bytes_outstanding + s.bytes_outstanding,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_take_reuses_first_buffer() {
        with_fresh_workspace(|| {
            {
                let mut b = take_zeroed::<f32>(100);
                b[0] = 42.0;
            }
            let s = stats::<f32>();
            assert_eq!((s.takes, s.misses, s.returns), (1, 1, 1));
            let b = take_zeroed::<f32>(100);
            let s = stats::<f32>();
            assert_eq!((s.takes, s.misses), (2, 1), "second take must hit the free list");
            assert_eq!(s.grows, 1, "no regrowth on a same-size reuse");
            assert!(b.iter().all(|&x| x == 0.0), "take_zeroed must clear recycled contents");
        });
    }

    #[test]
    fn every_checkout_starts_on_a_cache_line() {
        // Fresh and recycled storage, sizes that leave every residue of
        // the line, all three element pools, both take flavours — and the
        // pool's own accounting must not notice the slack.
        fn check<T: Poolable + PartialEq + core::fmt::Debug>() {
            for len in [1usize, 3, 15, 16, 17, 63, 64, 100, 4097] {
                for round in 0..2 {
                    let (z, s) = (take_zeroed::<T>(len), take_scratch::<T>(len + round));
                    for b in [&z, &s] {
                        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "len {len} round {round}");
                    }
                    assert_eq!((z.len(), s.len()), (len, len + round));
                    assert!(z.iter().all(|x| *x == T::default()));
                }
            }
            assert_eq!(take_scratch::<T>(0).len(), 0);
        }
        with_fresh_workspace(|| {
            check::<f32>();
            check::<f64>();
            check::<C64>();
            let s = combined_stats();
            assert_eq!(s.takes, s.returns + 3, "all but the three empty windows went back: {s:?}");
            assert_eq!(s.misses, 3 * 2, "two live buffers per pool, recycled ever after: {s:?}");
            assert_eq!(s.bytes_outstanding, 0);
        });
    }

    #[test]
    fn scratch_take_does_not_clear() {
        with_fresh_workspace(|| {
            {
                let mut b = take_scratch::<f64>(8);
                b.fill(7.0);
            }
            let b = take_scratch::<f64>(8);
            assert!(b.iter().all(|&x| x == 7.0), "stale contents expected");
        });
    }

    #[test]
    fn lifo_checkout_converges_capacities() {
        with_fresh_workspace(|| {
            // Simulate two steps of an identical two-buffer call pattern.
            for _ in 0..2 {
                let _a = take_scratch::<f32>(64);
                let _b = take_scratch::<f32>(256);
            }
            let s = stats::<f32>();
            assert_eq!(s.takes, 4);
            assert_eq!(s.misses, 2, "only the first step allocates");
        });
    }

    #[test]
    fn bytes_outstanding_tracks_live_checkouts() {
        with_fresh_workspace(|| {
            let a = take_zeroed::<f32>(100);
            let s = stats::<f32>();
            assert!(s.bytes_outstanding >= 400, "100 f32s are out: {s:?}");
            drop(a);
            let s = stats::<f32>();
            assert_eq!(s.bytes_outstanding, 0, "returned buffers leave the ledger");
            assert_eq!(s.hits(), 0);
            assert_eq!(s.hit_ratio(), 0.0, "the only take was a miss");
        });
    }

    #[test]
    fn idle_pool_hit_ratio_is_nan_safe() {
        // With zero takes the ratio must be a well-defined 1.0 (vacuous
        // truth: every checkout so far was served), never NaN or 0 —
        // gemm_hostperf writes it through `{:.4}` into JSON, where a
        // NaN would corrupt the report.
        let s = PoolStats::default();
        assert_eq!(s.takes, 0);
        assert_eq!(s.hit_ratio(), 1.0);
        assert!(s.hit_ratio().is_finite());
        with_fresh_workspace(|| {
            let live = stats::<f32>();
            assert_eq!(live.takes, 0, "fresh workspace has no takes");
            assert_eq!(live.hit_ratio(), 1.0);
        });
    }

    #[test]
    fn fresh_workspace_isolates_and_restores() {
        reset::<f32>();
        let _outer = take_zeroed::<f32>(4);
        let outer_stats = stats::<f32>();
        with_fresh_workspace(|| {
            assert_eq!(stats::<f32>(), PoolStats::default(), "fresh workspace starts empty");
            let _b = take_zeroed::<f32>(4);
            assert_eq!(stats::<f32>().takes, 1);
        });
        assert_eq!(stats::<f32>(), outer_stats, "outer workspace restored");
    }
}
