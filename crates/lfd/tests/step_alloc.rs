//! A steady-state QD step allocates nothing: the state-sized arrays, the
//! subspace buffers of the nine BLAS calls and the partials of the two
//! mesh reductions all live in `QdScratch`, and the BLAS scratch in the
//! workspace pool. A counting allocator that sees every thread — the
//! rayon pool's workers included — counts the steps after warm-up.
//!
//! One test in its own binary, so no other test's thread allocates while
//! it counts.

use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts allocator calls of every thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `steps` QD steps after two warm-up steps, on a
/// laser-driven 10³ deck with a register block and a remainder of
/// orbitals and an induced field (so every phase of the step runs).
fn allocations_per_step<T: LfdScalar>(threads: usize, steps: u64) -> u64 {
    let p = LfdParams {
        mesh: Mesh3::cubic(10, 0.6),
        n_orb: 20,
        n_occ: 8,
        dt: 0.02,
        vnl_strength: 0.1,
        taylor_order: 4,
        laser: LaserPulse {
            amplitude: 0.3,
            omega: 0.4,
            duration: 100.0,
            phase: 0.0,
        },
        induced_coupling: 1e-4,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        let mut state = LfdState::<T>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        for _ in 0..2 {
            qd_step(&p, &mut state, &mut scratch);
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..steps {
            std::hint::black_box(qd_step(&p, &mut state, &mut scratch));
        }
        ALLOCATIONS.load(Ordering::SeqCst) - before
    })
}

#[test]
fn a_steady_state_qd_step_allocates_nothing() {
    for threads in [1, 2] {
        assert_eq!(
            allocations_per_step::<f32>(threads, 5),
            0,
            "f32, {threads} threads"
        );
        assert_eq!(
            allocations_per_step::<f64>(threads, 5),
            0,
            "f64, {threads} threads"
        );
    }
}
