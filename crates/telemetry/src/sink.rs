//! The event sink: the bounded, in-memory ring of [`Event`]s owned by the
//! calling thread's [`crate::recorder`].
//!
//! Each thread publishes into, drains and clears only its own ring, so a
//! run's event stream is exactly what its own thread emitted, in
//! publication order (`seq` numbers the recorder's events from 0). A
//! publish is a short `RefCell` borrow and a ring push: no lock, and no
//! allocation in steady state (the ring reuses its storage once warm).
//!
//! The sink is **bounded**: when the ring holds [`CAPACITY`] events the
//! oldest is dropped and counted, so a million-call run cannot grow memory
//! without limit (the same policy the `mkl_lite::verbose` ring buffer
//! adopts), and one producer thread gets all of it. The counts are the
//! stream's own: [`run_meta_event`] writes them into the header of every
//! exported dump.
//!
//! The clock epoch and the dense thread-id allocator below are the two
//! things here that are process-wide: neither belongs to a run.

use crate::event::{Attr, AttrValue, Event, EventKind, Track};
use crate::recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Event capacity of a recorder's ring.
pub const CAPACITY: usize = 1 << 18; // 262 144 events

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's small dense telemetry thread id.
pub fn thread_id() -> u64 {
    TID.try_with(|t| *t).unwrap_or(u64::MAX)
}

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_ns)
    })
}

/// Nanoseconds since the process telemetry epoch (set on first use).
pub fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Wall-clock UNIX time (ns) at which this process's telemetry epoch —
/// the zero of every host `ts_ns` — was captured. Shared `run_epoch`
/// key: two ranks' traces are aligned by offsetting each stream by the
/// difference of their run epochs.
pub fn run_epoch_unix_ns() -> u64 {
    epoch().1
}

/// Sets the rank / domain id of the run on this thread, stamped into the
/// exported metadata event so the multi-rank merger can tell streams
/// apart (the run entry points set it from `DCMESH_RANK`).
pub fn set_rank(rank: u64) {
    recorder::with(|r| r.rank = rank);
}

/// This thread's rank / domain id (0 unless [`set_rank`] was called).
pub fn rank() -> u64 {
    recorder::with(|r| r.rank)
}

/// The stream-metadata event exporters prepend to serialised dumps: the
/// shared `run_epoch` clock key, the rank, and what this thread's recorder
/// lost since the last [`clear`] — [`dropped_events`] and
/// [`truncated_attrs`] — so the stream says how complete it is.
/// Synthetic — it never sits in the ring — so its `seq` is 0 and its
/// timestamp is the epoch itself (`ts_ns` 0).
pub fn run_meta_event() -> Event {
    Event {
        seq: 0,
        ts_ns: 0,
        name: "telemetry_meta",
        kind: EventKind::Instant,
        track: Track::Host,
        tid: 0,
        attrs: vec![
            Attr { key: "run_epoch", value: AttrValue::U64(run_epoch_unix_ns()) },
            Attr { key: "rank", value: AttrValue::U64(rank()) },
            Attr { key: "dropped_events", value: AttrValue::U64(dropped_events()) },
            Attr { key: "truncated_attrs", value: AttrValue::U64(truncated_attrs()) },
        ],
    }
}

/// Events discarded because the ring was full.
pub fn dropped_events() -> u64 {
    recorder::with(|r| r.dropped)
}

/// Attributes discarded because an event carried more than
/// [`crate::event::MAX_ATTRS`].
pub fn truncated_attrs() -> u64 {
    recorder::with(|r| r.truncated_attrs)
}

/// Publishes one event. Callers are expected to have checked the level
/// gate already ([`crate::spans_enabled`] / [`crate::events_enabled`]);
/// publishing is unconditional so export-time tooling can inject
/// synthetic events.
pub fn publish(name: &'static str, kind: EventKind, track: Track, ts_ns: u64, attrs: Vec<Attr>) {
    let ev = Event { seq: 0, ts_ns, name, kind, track, tid: thread_id(), attrs };
    recorder::with(|r| r.publish(ev));
}

/// Removes and returns this thread's buffered events in publication
/// order.
pub fn drain() -> Vec<Event> {
    recorder::with(|r| r.ring.drain(..).collect())
}

/// Returns a copy of this thread's buffered events without clearing.
pub fn snapshot() -> Vec<Event> {
    recorder::with(|r| r.ring.iter().cloned().collect())
}

/// Clears this thread's buffered events and the drop counters.
pub fn clear() {
    recorder::with(|r| {
        r.ring.clear();
        r.dropped = 0;
        r.truncated_attrs = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MAX_ATTRS;

    fn attr(key: &'static str, v: u64) -> Attr {
        Attr { key, value: AttrValue::U64(v) }
    }

    fn publish_instant(name: &'static str) {
        publish(name, EventKind::Instant, Track::Host, now_ns(), vec![]);
    }

    #[test]
    fn publish_drain_orders_by_seq() {
        publish_instant("sink_test_a");
        publish_instant("sink_test_b");
        let evs = drain();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].seq < evs[1].seq);
        assert_eq!(evs[0].name, "sink_test_a");
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        for _ in 0..CAPACITY + 3 {
            publish_instant("sink_cap_test");
        }
        assert_eq!(dropped_events(), 3);
        let kept = drain();
        assert_eq!(kept.len(), CAPACITY);
        assert_eq!((kept[0].seq, kept[CAPACITY - 1].seq), (3, CAPACITY as u64 + 2));
        clear();
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn one_thread_keeps_the_whole_configured_capacity() {
        for _ in 0..CAPACITY {
            publish_instant("sink_whole_ring_test");
        }
        assert_eq!(dropped_events(), 0);
        assert_eq!(snapshot().len(), CAPACITY);
        publish_instant("sink_whole_ring_test");
        assert_eq!(dropped_events(), 1);
        assert_eq!(drain().len(), CAPACITY);
    }

    #[test]
    fn oversized_attr_lists_truncate() {
        let attrs: Vec<Attr> = (0..MAX_ATTRS + 3).map(|i| attr("k", i as u64)).collect();
        publish("sink_attr_test", EventKind::Instant, Track::Host, 0, attrs);
        assert_eq!(truncated_attrs(), 3);
        assert_eq!(drain()[0].attrs.len(), MAX_ATTRS);
    }

    #[test]
    fn another_threads_events_stay_out_of_this_ring() {
        set_rank(3);
        std::thread::spawn(|| {
            assert_eq!(rank(), 0, "the rank stamp is not inherited");
            publish_instant("sink_other_thread");
            assert_eq!(snapshot().len(), 1);
        })
        .join()
        .expect("child thread");
        publish_instant("sink_this_thread");
        let evs = drain();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].name, evs[0].seq), ("sink_this_thread", 0));
    }
}
