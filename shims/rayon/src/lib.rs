//! Offline shim for the `rayon` crate (see `shims/README.md`): the subset
//! of rayon's API this workspace calls, run on a small persistent pool of
//! `std` threads.
//!
//! A *region* is one `for_each` over a parallel iterator. The thread that
//! starts it publishes it to the pool and then works in it itself: every
//! participant repeatedly splits a run of items off the front of the
//! region's remainder, under a lock, and runs them until none are left. A
//! worker that wakes late finds the remainder empty, so the caller never
//! waits on a worker to take part; it waits only for the workers that
//! joined to leave, and, in a region that spawned workers, for their
//! threads to start. Which thread runs an item never changes what the
//! item computes, so a call site that writes disjoint chunks gets the same
//! bits at every thread count.
//!
//! * **Workers.** `available_parallelism() − 1` by default, read once and
//!   spawned on the first region; a [`ThreadPool::install`] asking for
//!   more spawns the rest. Between regions each worker spins for `SPIN`,
//!   then parks. Workers are never joined: they serve until the process
//!   exits, and a panic in a region never unwinds out of one.
//! * **Inline regions.** A region runs on its caller alone when the thread
//!   count is 1, when it has fewer than two items, or when the pool is
//!   already serving a region — a nested one (started on a worker or on a
//!   caller inside its own region) or another thread's.
//! * **Thread count.** [`current_num_threads`] is what
//!   [`ThreadPool::install`] set on this thread, else the machine's. No
//!   environment variable is read.
//! * **Panics** are caught on the thread that hit them and resumed on the
//!   caller once every participant has left; the pool stays usable.
//! * **No allocation** per region on any thread: its state lives on the
//!   caller's stack. A worker's one start-up allocation is over before
//!   the region that spawned it returns.

use std::any::Any;
use std::cell::Cell;
use std::hint::spin_loop;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// The traits the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use super::{IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut};
}

/// How long a worker spins for the next region before it parks.
const SPIN: Duration = Duration::from_micros(200);

/// An indexed parallel iterator: a run of items that can be split at any
/// index and handed out in pieces.
pub trait ParallelIterator: Sized + Send {
    /// What the iterator yields.
    type Item;
    /// The sequential iterator over one piece.
    #[doc(hidden)]
    type Seq: Iterator<Item = Self::Item>;

    /// Items left.
    #[doc(hidden)]
    fn len(&self) -> usize;

    /// No items left.
    #[doc(hidden)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `index` items (`index ≤ len`) and the rest.
    #[doc(hidden)]
    fn split_at(self, index: usize) -> (Self, Self);

    /// The items in order, on the calling thread.
    #[doc(hidden)]
    fn into_seq(self) -> Self::Seq;

    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Pairs items of `self` and `other` up to the shorter one's end.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Runs `f` on every item, exactly once, as one region.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        let len = self.len();
        let threads = current_num_threads();
        if threads < 2 || len < 2 {
            return self.into_seq().for_each(f);
        }
        let batch = (len / (4 * threads)).max(1);
        let rest = Mutex::new(Some(self));
        let work = || loop {
            let front = {
                let mut rest = rest
                    .lock()
                    .expect("the remainder lock guards a split that cannot panic");
                let Some(all) = rest.take() else { break };
                let take = batch.min(all.len());
                let (front, back) = all.split_at(take);
                if !back.is_empty() {
                    *rest = Some(back);
                }
                front
            };
            front.into_seq().for_each(&f);
        };
        if !POOL.run(threads, &work) {
            work();
        }
    }
}

/// `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Mutable chunks of `chunk_size` elements (the last may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        ChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// `par_iter_mut()` on mutable slices.
pub trait IntoParallelRefMutIterator<T: Send> {
    /// One item per element.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;
}

impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }
}

/// See [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = core::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (front, back) = self
            .slice
            .split_at_mut((index * self.size).min(self.slice.len()));
        (
            ChunksMut {
                slice: front,
                size: self.size,
            },
            ChunksMut {
                slice: back,
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

/// See [`IntoParallelRefMutIterator::par_iter_mut`].
pub struct IterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = core::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (front, back) = self.slice.split_at_mut(index);
        (IterMut { slice: front }, IterMut { slice: back })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = core::iter::Zip<core::ops::RangeFrom<usize>, P::Seq>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (front, back) = self.base.split_at(index);
        (
            Enumerate {
                base: front,
                offset: self.offset,
            },
            Enumerate {
                base: back,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.into_seq())
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = core::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.a.split_at(index), self.b.split_at(index));
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

thread_local! {
    /// The thread count [`ThreadPool::install`] set on this thread; 0 = none.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// The machine's thread count, read once: `available_parallelism()` reads
/// cgroup files on every call.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `rayon::current_num_threads()`: how many threads a region started on
/// this thread uses.
pub fn current_num_threads() -> usize {
    match INSTALLED.with(Cell::get) {
        0 => machine_threads(),
        n => n,
    }
}

/// One published region.
struct Job<'a> {
    /// Runs items until the region has none left.
    work: &'a (dyn Fn() + Sync),
    /// Workers with an index below this take part.
    helpers: usize,
    /// The first panic a participant hit.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    fn participate(&self) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(self.work)) {
            // Only a store happens under this lock: it is never poisoned.
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }
}

/// The process's workers and the one region they serve at a time.
struct Pool {
    /// Held by the caller of the region being served, from publishing it
    /// until the last worker that joined has left.
    busy: AtomicBool,
    /// The published region; null between regions.
    job: AtomicPtr<Job<'static>>,
    /// Bumped once per published region; what an idle worker watches.
    epoch: AtomicUsize,
    /// Workers between announcing themselves and leaving a region.
    active: AtomicUsize,
    /// Workers parked or about to park.
    parked: AtomicUsize,
    /// Workers whose thread has started running [`Pool::serve`].
    started: AtomicUsize,
    /// Every worker spawned, in index order.
    workers: Mutex<Vec<Thread>>,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    job: AtomicPtr::new(ptr::null_mut()),
    epoch: AtomicUsize::new(0),
    active: AtomicUsize::new(0),
    parked: AtomicUsize::new(0),
    started: AtomicUsize::new(0),
    workers: Mutex::new(Vec::new()),
};

impl Pool {
    /// Runs `work` on the caller and on up to `threads − 1` workers, and
    /// returns once every one of them has left it. `false` (nothing run)
    /// when the pool is serving another region or has no worker.
    fn run(&'static self, threads: usize, work: &(dyn Fn() + Sync)) -> bool {
        if self
            .busy
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_err()
        {
            return false;
        }
        let job;
        {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            while workers.len() < threads - 1 {
                let (index, seen) = (workers.len(), self.epoch.load(SeqCst));
                let spawned = thread::Builder::new()
                    .name(format!("rayon-shim-{index}"))
                    .spawn(move || POOL.serve(index, seen));
                match spawned {
                    Ok(handle) => workers.push(handle.thread().clone()),
                    Err(_) => break,
                }
            }
            // A new thread's start-up allocates on that thread (std's
            // stack-overflow handler). Wait it out here, so that it lands
            // in the region that spawned the worker, not in whatever the
            // caller does after it, which may count allocations.
            while self.started.load(SeqCst) < workers.len() {
                thread::yield_now();
            }
            let helpers = workers.len().min(threads - 1);
            if helpers == 0 {
                self.busy.store(false, SeqCst);
                return false;
            }
            job = Job {
                work,
                helpers,
                panic: Mutex::new(None),
            };
            self.job
                .store(&job as *const Job<'_> as *mut Job<'static>, SeqCst);
            self.epoch.fetch_add(1, SeqCst);
            // A worker counts itself parked before its last look at the
            // epoch, so either it saw the bump or it is unparked here.
            if self.parked.load(SeqCst) > 0 {
                workers[..helpers].iter().for_each(Thread::unpark);
            }
        }
        job.participate();
        self.job.store(ptr::null_mut(), SeqCst);
        let mut spins = 0u32;
        while self.active.load(SeqCst) != 0 {
            spins += 1;
            if spins < 1 << 10 {
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
        self.busy.store(false, SeqCst);
        if let Some(payload) = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        true
    }

    /// A worker's life: wait for a region, take part if it is one of the
    /// region's helpers, leave, repeat.
    fn serve(&self, index: usize, mut seen: usize) {
        self.started.fetch_add(1, SeqCst);
        loop {
            seen = self.next_epoch(seen);
            self.active.fetch_add(1, SeqCst);
            let job = self.job.load(SeqCst);
            if !job.is_null() {
                // SAFETY: the pointer erases the lifetime of a `Job` on its
                // caller's stack. The invariant: the caller neither returns
                // nor unwinds until every worker that saw the job has left
                // it. This worker counted itself in `active` before loading
                // the pointer, and `Pool::run` clears the pointer before it
                // waits for `active` to reach zero (all `SeqCst`): either
                // the load above saw null, or the caller is still waiting
                // for the `fetch_sub` below, and its `Job` — with the work
                // closure and everything that borrows — is alive until then.
                let job = unsafe { &*job };
                if index < job.helpers {
                    job.participate();
                }
            }
            self.active.fetch_sub(1, SeqCst);
        }
    }

    /// Waits for an epoch other than `seen`: spins for [`SPIN`], then parks.
    fn next_epoch(&self, seen: usize) -> usize {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let epoch = self.epoch.load(SeqCst);
            if epoch != seen {
                return epoch;
            }
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(64) || start.elapsed() < SPIN {
                spin_loop();
                continue;
            }
            self.parked.fetch_add(1, SeqCst);
            if self.epoch.load(SeqCst) == seen {
                thread::park();
            }
            self.parked.fetch_sub(1, SeqCst);
        }
    }
}

/// `rayon::ThreadPoolBuilder`: sets the thread count of a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for the machine's thread count.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Regions started inside [`ThreadPool::install`] use `n` threads (0:
    /// the machine's count).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// The pool; never fails here.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            machine_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A thread count for the regions an [`install`](ThreadPool::install)ed
/// closure starts. Every pool shares the process's workers, spawning more
/// when one asks for more threads than exist.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's thread count as
    /// [`current_num_threads`], restored afterwards (also on unwind).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|n| n.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|n| n.replace(self.num_threads)));
        op()
    }

    /// The thread count the pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never constructed here,
/// kept for signature compatibility).
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
    use super::ThreadPoolBuilder;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    fn pool(n: usize) -> super::ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("build")
    }

    /// Runs one region over `n` items under `threads` threads and returns
    /// each item's run count.
    fn runs_per_item(threads: usize, n: usize) -> Vec<usize> {
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let mut slots = vec![0usize; n];
        pool(threads).install(|| {
            slots.par_iter_mut().enumerate().for_each(|(i, slot)| {
                counts[i].fetch_add(1, Ordering::SeqCst);
                *slot = i;
            })
        });
        assert!(
            slots.iter().enumerate().all(|(i, &s)| s == i),
            "an item wrote the wrong slot"
        );
        counts.into_iter().map(AtomicUsize::into_inner).collect()
    }

    /// Notes the running thread in `seen`, then waits (20 ms at most) for
    /// a second thread to arrive, so a region's first items cannot all
    /// finish on its caller before a worker wakes.
    fn rendezvous(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(thread::current().id());
        let t0 = std::time::Instant::now();
        while seen.lock().unwrap().len() < 2 && t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_two_thread_region_runs_on_more_than_one_thread_including_the_caller() {
        let caller = thread::current().id();
        // A concurrent test's region may hold the pool, which runs this
        // one inline: try a few times.
        let both = (0..50).any(|_| {
            let seen = Mutex::new(HashSet::new());
            let mut items = [0u8; 64];
            pool(2).install(|| items.par_iter_mut().for_each(|_| rendezvous(&seen)));
            let seen = seen.into_inner().unwrap();
            seen.len() >= 2 && seen.contains(&caller)
        });
        assert!(
            both,
            "a 2-thread region never ran on a worker beside its caller"
        );
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for n in [0, 1, 2, 7, 1000] {
                assert!(
                    runs_per_item(threads, n).iter().all(|&c| c == 1),
                    "{n} items at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_panic_in_a_task_reaches_the_caller_and_the_next_region_works() {
        let mut v = vec![0usize; 100];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool(2).install(|| {
                v.par_iter_mut().enumerate().for_each(|(i, _)| {
                    if i == 57 {
                        panic!("task 57 failed");
                    }
                })
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 57 failed"));
        assert!(
            runs_per_item(2, 100).iter().all(|&c| c == 1),
            "pool unusable after a panic"
        );
    }

    #[test]
    fn a_nested_region_runs_inline() {
        // Only an outer region the pool served shows anything (one that
        // ran inline leaves the pool free for its inner regions), so
        // retry until one ran on two threads.
        let served = (0..50).any(|_| {
            let seen = Mutex::new(HashSet::new());
            let mut outer = vec![0usize; 8];
            pool(2).install(|| {
                outer.par_iter_mut().for_each(|o| {
                    rendezvous(&seen);
                    let here = thread::current().id();
                    let mut inner = [None; 16];
                    inner
                        .par_iter_mut()
                        .for_each(|t| *t = Some(thread::current().id()));
                    *o = inner.iter().filter(|t| **t == Some(here)).count();
                })
            });
            if seen.into_inner().unwrap().len() < 2 {
                return false;
            }
            assert_eq!(outer, [16; 8], "a nested region left its thread");
            true
        });
        assert!(served, "no outer region ran on two threads");
    }

    #[test]
    fn eight_threads_starting_regions_at_once_all_finish_correctly() {
        let start = Barrier::new(8);
        thread::scope(|s| {
            let runs: Vec<_> = (0..8)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let mut w = vec![0usize; 4096];
                        for _ in 0..20 {
                            pool(2).install(|| {
                                w.par_chunks_mut(64).enumerate().for_each(|(ci, c)| {
                                    for (j, x) in c.iter_mut().enumerate() {
                                        *x += ci * 64 + j + t;
                                    }
                                })
                            });
                        }
                        w.iter().enumerate().all(|(i, &x)| x == 20 * (i + t))
                    })
                })
                .collect();
            for (t, run) in runs.into_iter().enumerate() {
                assert!(
                    run.join().expect("region thread"),
                    "thread {t} got wrong results"
                );
            }
        });
    }

    #[test]
    fn install_reports_its_thread_count() {
        for n in [1, 2, 4, 8] {
            let pool = pool(n);
            assert_eq!(pool.current_num_threads(), n);
            assert_eq!(pool.install(super::current_num_threads), n);
        }
        let outside = super::current_num_threads();
        assert!(outside >= 1);
        assert_eq!(
            pool(3).install(|| pool(5).install(super::current_num_threads)),
            5
        );
        assert_eq!(
            super::current_num_threads(),
            outside,
            "install leaked its count"
        );
    }

    #[test]
    fn shims_behave_like_std() {
        pool(3).install(|| {
            let mut v = vec![0usize; 6];
            v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
            assert_eq!(v, [0, 1, 2, 3, 4, 5]);

            // Chunks with a short last one, zipped up to the shorter side.
            let (mut a, mut b) = (vec![0usize; 10], vec![0usize; 7]);
            a.par_chunks_mut(3)
                .zip(b.par_chunks_mut(2))
                .enumerate()
                .for_each(|(i, (x, y))| {
                    x.fill(i);
                    y.fill(10 + i);
                });
            assert_eq!(a, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
            assert_eq!(b, [10, 10, 11, 11, 12, 12, 13]);
        });
    }
}
