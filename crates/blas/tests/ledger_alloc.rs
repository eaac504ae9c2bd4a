//! At `TELEMETRY=events` every BLAS call folds into the ledger and none
//! becomes a span (spans are `full`'s). The whole observed call must not
//! cost a heap allocation once its row exists: the callsite ID is memoised
//! per thread, the shape class is three numbers, the mode label is a
//! `&'static str`, and no span attributes are built.

use dcmesh_telemetry as telemetry;
use mkl_lite::{sgemm, ComputeMode, Op};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocator calls per thread, so the harness's own threads do not
/// show up in the test's count.
struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

#[test]
fn steady_state_call_at_events_allocates_nothing_for_its_ledger_row() {
    let (m, n, k) = (24, 40, 56);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut call = || sgemm(Op::None, Op::None, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);

    telemetry::with_level(telemetry::TelemetryLevel::Events, || {
        mkl_lite::with_compute_mode(ComputeMode::FloatToBf16x2, || {
            let _phase = telemetry::phase_scope("ledger_alloc_test");
            for _ in 0..3 {
                call(); // warm: the row, the callsite memo, the workspace pool
            }
            let before = ALLOCS.with(Cell::get);
            for _ in 0..100 {
                call();
            }
            assert_eq!(ALLOCS.with(Cell::get) - before, 0, "allocations in 100 observed calls");
        });
    });

    assert!(telemetry::sink::drain().is_empty(), "no call span at events");
    let rows = telemetry::ledger::snapshot();
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert_eq!(
        (r.callsite.as_str(), r.shape.as_str(), r.mode.as_str(), r.stats.calls),
        ("ledger_alloc_test/sgemm", "32x64x64", "FLOAT_TO_BF16X2", 103)
    );
}
