//! The supervisor's burst snapshot and a rollback allocate nothing: both
//! are `Checkpoint::clone_from` between two restart points of the same
//! run, which copies into the storage already there — Ψ, Ψ(0), the
//! occupations, eigenvalues, shadow coefficients, local potential and
//! the atoms. A counting allocator that sees every thread counts the
//! copies, and names the thread of the first allocation it counted.
//!
//! One test in its own binary, so no other test's thread allocates while
//! it counts.

use dcmesh::checkpoint::Checkpoint;
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "../../lfd/tests/alloc_probe/mod.rs"]
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

/// Allocations `f` makes on any thread, and where the first of them went.
fn allocations(f: impl FnOnce()) -> (u64, String) {
    clear_first();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, take_first())
}

#[test]
fn the_burst_snapshot_and_a_rollback_copy_into_the_storage_they_have() {
    let p = LfdParams {
        mesh: Mesh3::cubic(8, 0.5),
        n_orb: 6,
        n_occ: 3,
        dt: 0.02,
        vnl_strength: 0.1,
        taylor_order: 4,
        laser: LaserPulse::off(),
        induced_coupling: 0.0,
    };
    let state = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.1));
    let mut run = Checkpoint { state, system: dcmesh_qxmd::pto_supercell(1), steps_done: 0, nexc: 0.0 };
    // The snapshot the supervisor takes before the first burst.
    let mut snapshot = run.clone();
    harness_asleep();
    for burst in 1..=3u64 {
        // A burst moves every part of the restart point.
        let st = &mut run.state;
        for z in st.psi.iter_mut().chain(st.psi0.iter_mut()).chain(&mut st.shadow) {
            z.re += 0.25;
        }
        st.occ.iter_mut().chain(&mut st.vloc).for_each(|x| *x *= 0.5);
        st.eps.iter_mut().for_each(|e| *e -= 0.125);
        (st.a_induced, st.a_induced_dot, st.time, st.step) = (0.5, -0.5, 2.0, 100 * burst);
        run.system.positions.iter_mut().chain(&mut run.system.velocities).for_each(|x| *x += 0.01);
        (run.steps_done, run.nexc) = (100 * burst, 0.375);

        let storage = |ck: &Checkpoint<f32>| [ck.state.psi.as_ptr(), ck.state.psi0.as_ptr()];
        let (kept, held) = (storage(&snapshot), storage(&run));
        let (count, first) = allocations(|| snapshot.clone_from(&run));
        assert_eq!(count, 0, "burst {burst}: the snapshot allocated{first}");
        assert_eq!(snapshot.encode().as_ref(), run.encode().as_ref(), "burst {burst}: the snapshot is the restart point");
        // A burst that diverged moves the state again; the rollback
        // restores the snapshot to the byte.
        run.state.psi.iter_mut().for_each(|z| z.im = f32::NAN);
        run.system.positions[0] = f64::NAN;
        run.steps_done += 7;
        let (count, first) = allocations(|| run.clone_from(&snapshot));
        assert_eq!(count, 0, "burst {burst}: the rollback allocated{first}");
        assert_eq!(run.encode().as_ref(), snapshot.encode().as_ref(), "burst {burst}: the rollback restored the restart point");
        assert_eq!((storage(&snapshot), storage(&run)), (kept, held), "burst {burst}: storage moved");
    }
}
