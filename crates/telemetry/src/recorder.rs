//! The calling thread's telemetry recorder.
//!
//! Everything the telemetry layer remembers about a run — the level, the
//! event ring with its counters, the rank stamp and the live
//! accuracy/cost ledger — is one `Recorder` in one
//! `thread_local!`, the observability twin of `mkl-lite`'s `BlasContext`.
//! The public free functions ([`mod@crate::level`], [`crate::sink`],
//! [`mod@crate::span`], the live half of [`crate::ledger`]) are accessors of
//! the calling thread's recorder, so a run's trace and ledger depend on its
//! own thread and on nothing else in the process.
//!
//! The contract that follows (DESIGN.md, "Whose state"):
//!
//! * A run's record is **per thread**. A new thread starts from the
//!   environment (`TELEMETRY`, `TELEMETRY_BUFFER`) and
//!   does **not** inherit its parent's overrides, events or ledger rows.
//! * Telemetry is emitted from the thread that owns the run; parallel
//!   regions sit below the span boundaries.
//! * No borrow of the recorder is held across user code — a
//!   [`crate::with_level`] closure, the lifetime of a
//!   [`crate::SpanGuard`] — so overrides nest and spans open inside them.
//! * A guard dropped while the thread's storage is being torn down writes
//!   to a throwaway recorder instead of panicking.

use crate::event::{Event, MAX_ATTRS};
use crate::ledger::{Key, Stats};
use crate::level::TelemetryLevel;
use crate::sink::DEFAULT_CAPACITY;
use crate::{TELEMETRY_BUFFER_ENV, TELEMETRY_ENV};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// Per-thread telemetry state; see the module docs for the contract.
#[derive(Default)]
pub(crate) struct Recorder {
    /// How much is recorded right now.
    pub level: TelemetryLevel,

    /// Buffered events, oldest first, in publication order.
    pub ring: VecDeque<Event>,
    /// Ring bound in events (at least one).
    pub capacity: usize,
    /// Sequence number of the next published event.
    pub seq: u64,
    /// Events evicted from the full ring since the last `sink::clear`.
    pub dropped: u64,
    /// Attributes cut off beyond `MAX_ATTRS` since the last `sink::clear`.
    pub truncated_attrs: u64,
    /// Rank / domain id stamped into exported stream metadata.
    pub rank: u64,

    /// The live ledger.
    pub ledger: BTreeMap<Key, Stats>,
    /// Highest level a ledger row was recorded at since the last
    /// `ledger::clear` — what the exported header reports, whatever the
    /// level is by the time the document is rendered.
    pub ledger_level: Option<TelemetryLevel>,
    /// Callsite the next rollback/escalation is attributed to.
    pub suspect: Option<Key>,
    /// Deck hash stamped for the exported header.
    pub deck_hash: Option<String>,
    /// Fleet rank count stamped for the exported header.
    pub rank_count: Option<u64>,
}

/// A positive count from the environment; unset, unparsable or zero gives
/// `default`.
fn env_count(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl Recorder {
    /// An unrecognised `TELEMETRY` value falls back to `Off` with a
    /// warning — telemetry must never abort a physics run.
    fn from_env() -> Recorder {
        let level = match std::env::var(TELEMETRY_ENV) {
            Ok(s) => TelemetryLevel::from_env_value(&s).unwrap_or_else(|| {
                eprintln!("warning: unrecognised {TELEMETRY_ENV}={s:?}; telemetry stays off");
                TelemetryLevel::Off
            }),
            Err(_) => TelemetryLevel::Off,
        };
        Recorder {
            level,
            capacity: env_count(TELEMETRY_BUFFER_ENV, DEFAULT_CAPACITY as u64) as usize,
            ..Recorder::default()
        }
    }

    /// Appends an event, numbering it and evicting the oldest beyond the
    /// ring capacity.
    pub fn publish(&mut self, mut ev: Event) {
        if ev.attrs.len() > MAX_ATTRS {
            self.truncated_attrs += (ev.attrs.len() - MAX_ATTRS) as u64;
            ev.attrs.truncate(MAX_ATTRS);
        }
        ev.seq = self.seq;
        self.seq += 1;
        while self.ring.len() >= self.capacity && self.ring.pop_front().is_some() {
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// The ledger row under `key`, remembering the level it is written at.
    pub fn stats(&mut self, key: Key) -> &mut Stats {
        self.ledger_level = self.ledger_level.max(Some(self.level));
        self.ledger.entry(key).or_default()
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::from_env());
}

/// Runs `f` on the calling thread's recorder. `f` must stay short and must
/// not call back into this crate's public API.
pub(crate) fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut f = Some(f);
    let mut run = |r: &mut Recorder| f.take().expect("runs once")(r);
    match RECORDER.try_with(|cell| run(&mut cell.borrow_mut())) {
        Ok(out) => out,
        // Thread teardown: the recorder is already gone.
        Err(_) => run(&mut Recorder { capacity: 1, ..Recorder::default() }),
    }
}
