//! Span and instant-event producer API.
//!
//! A [`SpanGuard`] publishes a `SpanBegin` when armed and the matching
//! `SpanEnd` on drop, so nesting is enforced by scope — exactly the
//! `B`/`E` pairing Chrome trace-event JSON wants. When spans are
//! disabled the guard is inert: construction is one thread-local read of
//! the level and drop does nothing. A live guard holds no borrow of the
//! thread's [`crate::recorder`]; it touches it only to publish.
//!
//! Spans say *where in time* work ran; they are recorded at `full` only
//! and never sampled. *How much* ran — calls and seconds per callsite —
//! is the [`crate::ledger`]'s, which counts every call at every level.

use crate::event::{Attr, AttrValue, EventKind, Track};
use crate::level::{events_enabled, spans_enabled};
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
