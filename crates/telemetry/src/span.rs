//! Span and instant-event producer API.
//!
//! A [`SpanGuard`] publishes a `SpanBegin` when armed and the matching
//! `SpanEnd` on drop, so nesting is enforced by scope — exactly the
//! `B`/`E` pairing Chrome trace-event JSON wants. When spans are
//! disabled the guard is inert: construction is one thread-local read of
//! the level and drop does nothing. A live guard holds no borrow of the
//! thread's [`crate::recorder`]; it touches it only to publish.
//!
//! The 1-in-N sampler for high-frequency call spans ([`sampled_span`])
//! is part of the recorder too, so which calls a run's trace contains
//! depends on that run's own call sequence and on nothing else.

use crate::event::{Attr, AttrValue, EventKind, Track};
use crate::level::{events_enabled, level, spans_enabled, TelemetryLevel};
use crate::recorder::{self, Recorder};
use crate::sink;

/// RAII span: `Begin` on creation (when enabled), `End` on drop.
///
/// Attributes added with [`attr`](SpanGuard::attr) *before the guard is
/// dropped but after creation* attach to the **begin** event if added
/// via the builder chain, because the begin event is published lazily on
/// the first non-builder use or at drop. In practice: chain `.attr(...)`
/// immediately after [`span`], then let the guard live to the end of
/// scope.
#[must_use = "a span ends when the guard drops; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    /// `Some` while the begin event is still pending publication.
    pending: Option<Vec<Attr>>,
    /// Attributes attached to the end event (results known at exit:
    /// wall time, pool-traffic deltas, modelled device seconds).
    end_attrs: Vec<Attr>,
    armed: bool,
}

impl SpanGuard {
    /// Adds an attribute to the span's begin event. No-op when disabled.
    pub fn attr(mut self, key: &'static str, value: AttrValue) -> SpanGuard {
        if let Some(attrs) = self.pending.as_mut() {
            attrs.push(Attr { key, value });
        }
        self
    }

    /// True when this guard will publish events (level was `Full` at
    /// creation). Lets callers skip computing end-attribute values.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Adds an attribute to the span's **end** event. No-op when
    /// disabled.
    pub fn end_attr(&mut self, key: &'static str, value: AttrValue) {
        if self.armed {
            self.end_attrs.push(Attr { key, value });
        }
    }

    /// Publishes the begin event now (normally it is published when the
    /// builder chain ends via [`enter`](SpanGuard::enter) or at drop).
    fn flush_begin(&mut self) {
        if let Some(attrs) = self.pending.take() {
            sink::publish(self.name, EventKind::SpanBegin, Track::Host, sink::now_ns(), attrs);
        }
    }

    /// Ends the builder chain, publishing the begin event. Optional —
    /// dropping the guard publishes both events — but calling it keeps
    /// the begin timestamp next to the work rather than at first attr.
    pub fn enter(mut self) -> SpanGuard {
        if self.armed {
            self.flush_begin();
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.flush_begin();
        let end_attrs = std::mem::take(&mut self.end_attrs);
        sink::publish(self.name, EventKind::SpanEnd, Track::Host, sink::now_ns(), end_attrs);
    }
}

fn guard(name: &'static str, armed: bool) -> SpanGuard {
    SpanGuard { name, pending: armed.then(Vec::new), end_attrs: Vec::new(), armed }
}

/// Opens a span named `name` on the host track. Inert unless the level
/// is `Full`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    guard(name, spans_enabled())
}

/// Default sampling interval for high-frequency spans at the `events`
/// level: 1 call span recorded per [`DEFAULT_SAMPLE_INTERVAL`] calls.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 16;

/// The calling thread's sampling interval N for [`sampled_span`] at the
/// `events` level: `TELEMETRY_SAMPLE` (default
/// [`DEFAULT_SAMPLE_INTERVAL`]) unless [`set_sample_interval`] overrode it.
pub fn sample_interval() -> u64 {
    recorder::with(|r| r.sample_n)
}

/// Sets the sampling interval (overrides the environment; values < 1
/// clamp to 1). N = 1 records every call span at the `events` level.
pub fn set_sample_interval(n: u64) {
    recorder::with(|r| r.sample_n = n.max(1));
}

/// Resets the deterministic sample counter so the next sampled call
/// site is recorded first — test harnesses use this to make weighted
/// totals exactly reproducible.
pub fn reset_sample_counter() {
    recorder::with(|r| r.sample_counter = 0);
}

/// Opens a span for a **high-frequency** call site (per-BLAS-call).
///
/// * `Full` — identical to [`span`]: every call is recorded, weight 1.
/// * `Events` — span-aware sampling: the recorder's deterministic call
///   counter records 1 call in N ([`sample_interval`], env
///   `TELEMETRY_SAMPLE`, default 16), and the recorded span carries a
///   `sample_weight = N` begin attribute that the trace folder and
///   attribution tables use to rescale totals. Long runs stay bounded
///   but representative instead of losing the call population entirely.
/// * `Off` — inert, same one-read cost as [`span`].
#[inline]
pub fn sampled_span(name: &'static str) -> SpanGuard {
    match level() {
        TelemetryLevel::Full => guard(name, true),
        TelemetryLevel::Off => guard(name, false),
        TelemetryLevel::Events => match recorder::with(Recorder::sample) {
            Some(n) => guard(name, true).attr("sample_weight", AttrValue::F64(n as f64)),
            None => guard(name, false),
        },
    }
}

/// Publishes an instant event on the host track. Inert unless the level
/// is `Events` or `Full`.
#[inline]
pub fn instant(name: &'static str, attrs: Vec<Attr>) {
    if !events_enabled() {
        return;
    }
    sink::publish(name, EventKind::Instant, Track::Host, sink::now_ns(), attrs);
}

/// Publishes a complete slice on the **device** track: `start_s` and
/// `dur_s` are read off the simulated device clock, not the host clock.
/// Inert unless the level is `Full`.
#[inline]
pub fn device_complete(name: &'static str, start_s: f64, dur_s: f64, attrs: Vec<Attr>) {
    if !spans_enabled() {
        return;
    }
    let ts_ns = (start_s * 1e9).max(0.0) as u64;
    let dur_ns = (dur_s * 1e9).max(0.0) as u64;
    sink::publish(name, EventKind::Complete { dur_ns }, Track::Device, ts_ns, attrs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{with_level, TelemetryLevel};
    use crate::sink::drain;

    #[test]
    fn span_emits_nested_begin_end_pairs() {
        with_level(TelemetryLevel::Full, || {
            {
                let _outer = span("span_test_outer").attr("i", AttrValue::U64(1)).enter();
                let _inner = span("span_test_inner").enter();
            }
            let evs: Vec<_> =
                drain().into_iter().filter(|e| e.name.starts_with("span_test_")).collect();
            assert_eq!(evs.len(), 4);
            assert_eq!(evs[0].name, "span_test_outer");
            assert_eq!(evs[0].kind, EventKind::SpanBegin);
            assert_eq!(evs[0].attr("i"), Some(&AttrValue::U64(1)));
            assert_eq!(evs[1].name, "span_test_inner");
            // Inner ends before outer.
            assert_eq!(evs[2].name, "span_test_inner");
            assert_eq!(evs[2].kind, EventKind::SpanEnd);
            assert_eq!(evs[3].name, "span_test_outer");
            assert!(evs[0].ts_ns <= evs[1].ts_ns && evs[2].ts_ns <= evs[3].ts_ns);
        });
    }

    #[test]
    fn span_inside_with_level_inside_span_nests() {
        with_level(TelemetryLevel::Full, || {
            let outer = span("span_test_outer").enter();
            with_level(TelemetryLevel::Events, || drop(span("span_test_hidden").enter()));
            with_level(TelemetryLevel::Full, || drop(span("span_test_inner").enter()));
            drop(outer);
            let names: Vec<_> = drain().iter().map(|e| (e.name, e.kind)).collect();
            assert_eq!(
                names,
                [
                    ("span_test_outer", EventKind::SpanBegin),
                    ("span_test_inner", EventKind::SpanBegin),
                    ("span_test_inner", EventKind::SpanEnd),
                    ("span_test_outer", EventKind::SpanEnd),
                ]
            );
        });
    }

    #[test]
    fn disabled_span_publishes_nothing() {
        with_level(TelemetryLevel::Events, || {
            let _g = span("span_test_disabled").attr("x", AttrValue::U64(9)).enter();
            drop(_g);
            assert!(drain().iter().all(|e| e.name != "span_test_disabled"));
        });
    }

    #[test]
    fn instant_respects_events_level() {
        with_level(TelemetryLevel::Off, || {
            instant("span_test_instant", vec![]);
            assert!(drain().iter().all(|e| e.name != "span_test_instant"));
        });
        with_level(TelemetryLevel::Events, || {
            instant("span_test_instant", vec![]);
            let evs = drain();
            assert!(evs.iter().any(|e| e.name == "span_test_instant"));
        });
    }

    #[test]
    fn sampled_span_records_one_in_n_with_weight() {
        with_level(TelemetryLevel::Events, || {
            set_sample_interval(4);
            for _ in 0..16 {
                let _g = sampled_span("span_test_sampled").enter();
            }
            let begins: Vec<_> = drain()
                .into_iter()
                .filter(|e| e.name == "span_test_sampled" && e.kind == EventKind::SpanBegin)
                .collect();
            assert_eq!(begins.len(), 4, "16 calls at 1-in-4 -> 4 spans");
            for b in &begins {
                assert_eq!(b.attr("sample_weight"), Some(&AttrValue::F64(4.0)), "{b:?}");
            }
        });
    }

    #[test]
    fn sampled_span_is_unsampled_at_full() {
        with_level(TelemetryLevel::Full, || {
            for _ in 0..6 {
                let _g = sampled_span("span_test_full_sampled").enter();
            }
            let evs: Vec<_> = drain()
                .into_iter()
                .filter(|e| e.name == "span_test_full_sampled")
                .collect();
            assert_eq!(evs.len(), 12, "every call span recorded at full");
            assert!(
                evs.iter().all(|e| e.attr("sample_weight").is_none()),
                "no weight attr at full level"
            );
        });
    }

    #[test]
    fn sampled_span_inert_when_off() {
        with_level(TelemetryLevel::Off, || {
            let _g = sampled_span("span_test_sampled_off").enter();
            drop(_g);
            assert!(drain().iter().all(|e| e.name != "span_test_sampled_off"));
        });
    }

    #[test]
    fn device_complete_lands_on_device_track() {
        with_level(TelemetryLevel::Full, || {
            device_complete("span_test_kernel", 1.5, 0.25, vec![]);
            let ev = drain().into_iter().find(|e| e.name == "span_test_kernel").unwrap();
            assert_eq!(ev.track, Track::Device);
            assert_eq!(ev.ts_ns, 1_500_000_000);
            assert_eq!(ev.kind, EventKind::Complete { dur_ns: 250_000_000 });
        });
    }
}
