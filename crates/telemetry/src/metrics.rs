//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with a Prometheus-style text dump.
//!
//! Handles are `Arc`s handed out once per call site (cache them in a
//! `OnceLock`); updates are single atomic operations, so a counter
//! increment on the BLAS hot path costs the same as the pool's existing
//! `PoolStats` bookkeeping. Registration is idempotent: asking for the
//! same name returns the same underlying metric.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets: values up to 2⁶³ land in a bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

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

/// A log₂-bucketed histogram of `u64` observations (typically
/// nanoseconds). Bucket `i` counts values whose upper bound is `2^i − 1`
/// (bucket 0 holds zero), so 64 buckets cover the full range with one
/// `leading_zeros` per observation — no configuration, no allocation.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, otherwise `64 − leading_zeros`
    /// capped to the last bucket.
    fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Snapshot of non-empty `(upper_bound, cumulative_count)` pairs, in
    /// ascending bucket order — the Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                let upper = if i == 0 { 0 } else { (1u64 << i).saturating_sub(1) };
                out.push((upper, cum));
            }
        }
        out
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
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

/// Gets or creates the histogram `name`.
pub fn histogram(name: &'static str, help: &'static str) -> Arc<Histogram> {
    get_or_insert(name, help, Metric::Histogram, |m| match m {
        Metric::Histogram(h) => Some(h),
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
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {} histogram\n", e.name));
                for (upper, cum) in h.cumulative_buckets() {
                    out.push_str(&format!("{}_bucket{{le=\"{upper}\"}} {cum}\n", e.name));
                }
                out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", e.name, h.count()));
                out.push_str(&format!("{}_sum {}\n", e.name, h.sum()));
                out.push_str(&format!("{}_count {}\n", e.name, h.count()));
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
    fn histogram_buckets_accumulate() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(3);
        h.observe(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1004);
        assert_eq!(h.mean(), 251.0);
        let buckets = h.cumulative_buckets();
        // 0 → bucket 0 (le 0); 1 → le 1; 3 → le 3; 1000 → le 1023.
        assert_eq!(buckets, vec![(0, 1), (1, 2), (3, 3), (1023, 4)]);
    }

    #[test]
    fn prometheus_dump_contains_registered_metrics() {
        let c = counter("metrics_test_dump_total", "dump test");
        c.reset();
        c.add(7);
        let h = histogram("metrics_test_dump_ns", "dump histogram");
        h.observe(5);
        let dump = prometheus_dump();
        assert!(dump.contains("# TYPE metrics_test_dump_total counter"), "{dump}");
        assert!(dump.contains("metrics_test_dump_total 7"), "{dump}");
        assert!(dump.contains("metrics_test_dump_ns_bucket{le=\"7\"}"), "{dump}");
        assert!(dump.contains("metrics_test_dump_ns_count"), "{dump}");
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

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        // A value exactly on a bucket's upper bound must land in that
        // bucket (`le` semantics), not the next one up.
        let h = Histogram::default();
        h.observe(1); // upper bound of bucket 1 is 2^1 - 1 = 1
        assert_eq!(h.cumulative_buckets(), vec![(1, 1)]);
        let h = Histogram::default();
        h.observe(3); // upper bound of bucket 2 is 2^2 - 1 = 3
        assert_eq!(h.cumulative_buckets(), vec![(3, 1)]);
        let h = Histogram::default();
        h.observe(4); // first value of bucket 3 (le 7)
        assert_eq!(h.cumulative_buckets(), vec![(7, 1)]);
        let h = Histogram::default();
        h.observe(1023);
        h.observe(1024);
        assert_eq!(h.cumulative_buckets(), vec![(1023, 1), (2047, 2)]);
    }

    #[test]
    fn prometheus_dump_emits_inf_bucket_equal_to_count() {
        let h = histogram("metrics_test_inf_bucket_ns", "inf bucket test");
        h.observe(0);
        h.observe(u64::MAX); // saturates into the last bucket
        let dump = prometheus_dump();
        let inf_line = dump
            .lines()
            .find(|l| l.starts_with("metrics_test_inf_bucket_ns_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket line present");
        assert_eq!(inf_line, "metrics_test_inf_bucket_ns_bucket{le=\"+Inf\"} 2");
        // The +Inf bucket must equal _count per the exposition format.
        assert!(dump.contains("metrics_test_inf_bucket_ns_count 2"), "{dump}");
    }
}
