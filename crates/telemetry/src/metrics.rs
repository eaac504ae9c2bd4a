//! The metrics registry: named counters and gauges with a
//! Prometheus-style text dump.
//!
//! Handles are `Arc`s handed out once per call site (cache them in a
//! `OnceLock`); updates are single atomic operations, so a counter
//! increment on the BLAS hot path costs the same as the pool's existing
//! `PoolStats` bookkeeping. Registration is idempotent: asking for the
//! same name returns the same underlying metric.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run harnesses).
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn get_or_insert<T: Default>(
    name: &'static str,
    help: &'static str,
    wrap: fn(Arc<T>) -> Metric,
    select: fn(&Metric) -> Option<&Arc<T>>,
) -> Arc<T> {
    let mut reg = REGISTRY.lock();
    if let Some(e) = reg.iter().find(|e| e.name == name) {
        return select(&e.metric).cloned().unwrap_or_else(|| {
            panic!("telemetry metric {name:?} already registered with a different type")
        });
    }
    let handle = Arc::new(T::default());
    reg.push(Entry { name, help, metric: wrap(handle.clone()) });
    handle
}

/// Gets or creates the counter `name`.
pub fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    get_or_insert(name, help, Metric::Counter, |m| match m {
        Metric::Counter(c) => Some(c),
        _ => None,
    })
}

/// Gets or creates the gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    get_or_insert(name, help, Metric::Gauge, |m| match m {
        Metric::Gauge(g) => Some(g),
        _ => None,
    })
}

/// Escapes a string for use inside a Prometheus label value: backslash,
/// double quote, and newline get escaped per the text exposition format
/// (`\\`, `\"`, `\n`). Everything else passes through unchanged.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders every registered metric in Prometheus text exposition format.
pub fn prometheus_dump() -> String {
    let reg = REGISTRY.lock();
    let mut out = String::new();
    for e in reg.iter() {
        if !e.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
        }
        match &e.metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {} counter\n{} {}\n", e.name, e.name, c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {} gauge\n{} {}\n", e.name, e.name, g.get()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_is_idempotent() {
        let a = counter("metrics_test_counter", "a test counter");
        let b = counter("metrics_test_counter", "a test counter");
        a.reset();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit the same counter");
    }

    #[test]
    fn gauge_set_get() {
        let g = gauge("metrics_test_gauge", "a test gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn prometheus_dump_contains_registered_metrics() {
        let c = counter("metrics_test_dump_total", "dump test");
        c.reset();
        c.add(7);
        let dump = prometheus_dump();
        assert!(dump.contains("# TYPE metrics_test_dump_total counter"), "{dump}");
        assert!(dump.contains("metrics_test_dump_total 7"), "{dump}");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        counter("metrics_test_confused", "as counter");
        gauge("metrics_test_confused", "as gauge");
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("line1\nline2"), r"line1\nline2");
        // Combined: every special character in one value, in order.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
        // Idempotence is NOT expected: escaping an escaped string
        // escapes the backslashes again.
        assert_eq!(escape_label_value(r"\n"), r"\\n");
    }
}
