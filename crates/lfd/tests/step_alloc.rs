//! A steady-state QD step allocates nothing: the state-sized arrays, the
//! subspace buffers of the nine BLAS calls and the partials of the two
//! mesh reductions all live in `QdScratch`, the BLAS scratch in the
//! workspace pool, and a sampled ABFT check's sums with its sampler. A
//! counting allocator that sees every thread — the rayon pool's workers
//! included — counts the steps after warm-up, and names the thread of
//! the first allocation it counted.
//!
//! One test in its own binary, so no other test's thread allocates while
//! it counts.

use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

mod alloc_probe;
use alloc_probe::{clear_first, harness_asleep, note_first, take_first};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocator call of `size` bytes, and notes its thread when it
/// is the first since the count was last reset.
fn note(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    note_first(size);
}

/// Counts allocator calls of every thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note(new);
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `steps` QD steps after two warm-up steps, on a
/// laser-driven 10³ deck with a register block and a remainder of
/// orbitals and an induced field (so every phase of the step runs), with
/// every BLAS call ABFT-checked when `abft` is set; and where the first
/// went.
fn allocations_per_step<T: LfdScalar>(threads: usize, steps: u64, abft: bool) -> (u64, String) {
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
        if abft {
            mkl_lite::install_abft(1);
        } else {
            mkl_lite::clear_abft();
        }
        let mut state = LfdState::<T>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        for _ in 0..2 {
            qd_step(&p, &mut state, &mut scratch);
        }
        let checks = mkl_lite::abft_check_count();
        harness_asleep();
        clear_first();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..steps {
            std::hint::black_box(qd_step(&p, &mut state, &mut scratch));
        }
        let counted = (ALLOCATIONS.load(Ordering::SeqCst) - before, take_first());
        assert_eq!(mkl_lite::abft_check_count() > checks, abft, "ABFT checked the steps: {abft}");
        assert_eq!(mkl_lite::abft_violation_count(), 0, "a clean step tripped ABFT");
        counted
    })
}

#[test]
fn a_steady_state_qd_step_allocates_nothing() {
    for abft in [false, true] {
        for threads in [1, 2] {
            let (count, first) = allocations_per_step::<f32>(threads, 5, abft);
            assert_eq!(count, 0, "f32, {threads} threads, ABFT {abft}{first}");
            let (count, first) = allocations_per_step::<f64>(threads, 5, abft);
            assert_eq!(count, 0, "f64, {threads} threads, ABFT {abft}{first}");
        }
    }
}
