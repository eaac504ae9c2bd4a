//! What the allocation-counting tests share: `step_alloc.rs` here, and
//! dcmesh's `snapshot_alloc.rs` and `pool_state.rs`, which include this
//! file by `#[path]`. Each keeps its own counting allocator, because each
//! counts differently; this is the note of where the first counted
//! allocation went, and the wait for the test harness to go quiet.

use std::cell::Cell;
use std::sync::Mutex;

/// Where the first allocation since [`clear_first`] was last called went:
/// its thread's name (truncated) and its size. Written by the allocator,
/// so it is a fixed-size buffer under a lock that never allocates.
static FIRST: Mutex<Option<([u8; 32], usize, usize)>> = Mutex::new(None);

thread_local! {
    /// Set while this thread is inside [`note_first`]: an allocation made
    /// by the lookup itself is counted but not looked up again.
    static NOTING: Cell<bool> = const { Cell::new(false) };
}

/// Notes the thread of an allocator call of `size` bytes when it is the
/// first since [`clear_first`] was last called. For a counting allocator
/// to call on each allocation it counts.
pub fn note_first(size: usize) {
    if NOTING.with(|n| n.replace(true)) {
        return;
    }
    if let Ok(mut first) = FIRST.try_lock() {
        if first.is_none() {
            let current = std::thread::current();
            let name = current.name().unwrap_or("<unnamed>").as_bytes();
            let mut buf = [0u8; 32];
            let len = name.len().min(buf.len());
            buf[..len].copy_from_slice(&name[..len]);
            *first = Some((buf, len, size));
        }
    }
    NOTING.with(|n| n.set(false));
}

/// Forgets the allocation noted last, without allocating: the next one
/// counted is noted.
pub fn clear_first() {
    *FIRST.lock().unwrap() = None;
}

/// Where the first allocation noted since [`clear_first`] went, as a
/// clause for a failure message (" (first: 7 bytes on thread \"x\")"),
/// or "" when there was none. The clause itself allocates, so call it
/// once the count is read.
pub fn take_first() -> String {
    let first = FIRST.lock().unwrap().take();
    first.map_or(String::new(), |(buf, len, size)| {
        format!(" (first: {size} bytes on thread {:?})", String::from_utf8_lossy(&buf[..len]))
    })
}

/// Waits until the test harness's main thread sleeps. libtest spawns the
/// test's thread and then allocates on its main thread (its bookkeeping
/// of the running test, its first blocking receive); under load that can
/// come after a warm-up and land in a count (seen in `step_alloc`: 148
/// bytes on "main", 1 run in 300 beside two CPU hogs). Once the main
/// thread sleeps it stays asleep until the test ends. Reads `/proc`, so
/// Linux only; a test run on the main thread has nothing to wait for.
pub fn harness_asleep() {
    if !cfg!(target_os = "linux") || std::thread::current().name() == Some("main") {
        return;
    }
    let stat = format!("/proc/self/task/{}/stat", std::process::id());
    for _ in 0..10_000 {
        // The state is the first field after the parenthesised name.
        let Ok(line) = std::fs::read_to_string(&stat) else { return };
        if line.rsplit_once(')').is_some_and(|(_, rest)| rest.trim_start().starts_with('S')) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
}
