//! A run's BLAS and telemetry state belongs to the thread that owns the
//! run (DESIGN.md, "Whose state"), and the rayon pool's workers inherit
//! none of it. A guarded `pto40-small`-shaped run — `TELEMETRY=full`, an
//! ABFT check on every call, call recording and the device model — under a
//! 2-thread pool must leave what it leaves under one thread: the same
//! records, call ring and ledger rows, and an event stream whose every
//! event carries the run thread's id. And once warm, no region allocates:
//! a counting allocator that sees every thread finds no allocation on any
//! thread but the run's, and the run's own count per burst unchanged.
//!
//! One test in its own binary, so no other test's thread allocates while
//! it counts.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::{run_supervised_observed, BurstObserver, SupervisorConfig};
use dcmesh_telemetry as telemetry;
use mkl_lite::{verbose, ComputeMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocator calls of every thread, and of each thread apart.
struct CountingAlloc;

fn count() {
    ALL_THREADS.fetch_add(1, Ordering::SeqCst);
    let _ = THIS_THREAD.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per burst: allocations on the run's thread, and on every other thread.
#[derive(Default)]
struct AllocsPerBurst {
    at_start: (u64, u64),
    bursts: Vec<(u64, u64)>,
}

fn counts() -> (u64, u64) {
    (
        THIS_THREAD.with(Cell::get),
        ALL_THREADS.load(Ordering::SeqCst),
    )
}

impl BurstObserver for AllocsPerBurst {
    fn burst_starting(&mut self, _: u64, _: u64) {
        self.at_start = counts();
    }

    fn burst_committed(&mut self, _: u64, _: u64) {
        let ((mine0, all0), (mine, all)) = (self.at_start, counts());
        self.bursts
            .push((mine - mine0, (all - all0) - (mine - mine0)));
    }
}

/// Everything a run leaves behind, with wall seconds zeroed.
struct Left {
    records: Vec<u64>,
    calls: Vec<String>,
    ledger: Vec<telemetry::ledger::Row>,
    events: Vec<(&'static str, String)>,
}

/// The guarded run on a fresh thread (fresh BLAS context and recorder)
/// with `threads` as its rayon thread count.
fn guarded_run(threads: usize) -> (Left, AllocsPerBurst) {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 15;
    let sup = SupervisorConfig {
        abft_check_period: Some(1),
        ..SupervisorConfig::default()
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    std::thread::scope(|s| {
        s.spawn(|| {
            let _model = xe_gpu::install_default_model();
            verbose::set_recording(true);
            let mut allocs = AllocsPerBurst::default();
            let run = pool.install(|| {
                assert_eq!(rayon::current_num_threads(), threads);
                telemetry::with_level(telemetry::TelemetryLevel::Full, || {
                    run_supervised_observed::<f32>(&cfg, ComputeMode::Standard, &sup, &mut allocs)
                })
            });
            let run = run.expect("guarded run");
            assert_eq!(
                run.escalations.len() as u64 + run.sdc_recoveries,
                0,
                "the run must be clean"
            );
            let records = run
                .result
                .records
                .iter()
                .flat_map(|r| [r.ekin, r.epot, r.etot, r.eexc, r.nexc, r.javg].map(f64::to_bits))
                .collect();
            let calls = verbose::drain()
                .iter()
                .map(|c| {
                    format!(
                        "{:?}",
                        (
                            c.routine,
                            c.transa,
                            c.transb,
                            c.m,
                            c.n,
                            c.k,
                            c.mode,
                            c.device_seconds
                        )
                    )
                })
                .collect();
            let mut ledger = telemetry::ledger::snapshot();
            for row in &mut ledger {
                row.stats.wall_s = 0.0;
            }
            let me = telemetry::sink::thread_id();
            let events = telemetry::sink::drain();
            let strangers: Vec<_> = events
                .iter()
                .filter(|e| e.tid != me)
                .map(|e| e.name)
                .collect();
            assert!(
                strangers.is_empty(),
                "{threads} threads: events from another thread: {strangers:?}"
            );
            let events = events
                .iter()
                .map(|e| (e.name, format!("{:?}", e.kind)))
                .collect();
            (
                Left {
                    records,
                    calls,
                    ledger,
                    events,
                },
                allocs,
            )
        })
        .join()
        .expect("run thread")
    })
}

#[test]
fn a_run_keeps_its_state_on_its_thread_under_a_two_thread_pool() {
    let (one, one_allocs) = guarded_run(1);
    let (two, two_allocs) = guarded_run(2);
    assert!(!one.calls.is_empty() && !one.ledger.is_empty() && !one.events.is_empty());
    assert!(
        two.records == one.records,
        "records differ between 1 and 2 threads"
    );
    assert!(
        two.calls == one.calls,
        "call rings differ between 1 and 2 threads"
    );
    assert!(
        two.ledger == one.ledger,
        "ledger rows differ between 1 and 2 threads"
    );
    assert!(
        two.events == one.events,
        "event streams differ between 1 and 2 threads: {} vs {} events",
        two.events.len(),
        one.events.len()
    );

    // The first burst warms the pools (and, at 2 threads, may spawn the
    // worker); from the second on nothing may allocate off the run's
    // thread, and the run's thread allocates what it does at 1 thread.
    assert_eq!(two_allocs.bursts.len(), one_allocs.bursts.len());
    for (b, (&(mine2, others2), &(mine1, _))) in two_allocs
        .bursts
        .iter()
        .zip(&one_allocs.bursts)
        .enumerate()
        .skip(1)
    {
        assert_eq!(
            others2, 0,
            "burst {b}: {others2} allocations off the run's thread"
        );
        assert_eq!(
            mine2, mine1,
            "burst {b}: the run's thread allocates differently at 2 threads"
        );
    }
}
