//! A unitrace-style kernel tracer over the simulated device timeline.
//!
//! The paper uses Intel PTI-GPU's `unitrace -k` to record per-kernel
//! GPU-side (Level-Zero) timings and reads the "Total L0 Time" off the top
//! of the dump (artifact A1). This tracer plays that role for the device
//! model: kernels are appended with their modelled durations on a
//! monotonically advancing simulated clock, and the dump offers the same
//! aggregates — total device time and a per-kernel breakdown. It is a
//! plain fold: whoever owns the tracer feeds it, kernel by kernel or a
//! run's [`CallRecord`]s at once through [`Extend`].

use mkl_lite::verbose::CallRecord;

/// One kernel execution on the simulated timeline.
#[derive(Clone, Debug)]
pub struct KernelEvent {
    /// Kernel name.
    pub name: &'static str,
    /// Start timestamp on the simulated device clock, seconds.
    pub start: f64,
    /// Duration, seconds.
    pub duration: f64,
}

/// Per-kernel aggregate, like a unitrace summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: &'static str,
    /// Number of executions.
    pub calls: usize,
    /// Total device seconds.
    pub total: f64,
}

/// Simulated-timeline tracer.
#[derive(Default)]
pub struct Tracer {
    clock: f64,
    events: Vec<KernelEvent>,
}

impl Tracer {
    /// Creates an empty tracer with the clock at zero.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records a kernel of `duration` seconds, advancing the clock.
    /// Returns the kernel's start timestamp. When the telemetry level is
    /// `full` the kernel also lands on the Chrome-trace device track as a
    /// complete (`X`) slice, mirroring `unitrace -k`'s per-kernel rows.
    pub fn record(&mut self, name: &'static str, duration: f64) -> f64 {
        assert!(duration >= 0.0 && duration.is_finite(), "bad kernel duration {duration}");
        let start = self.clock;
        self.clock += duration;
        self.events.push(KernelEvent { name, start, duration });
        dcmesh_telemetry::device_complete(name, start, duration, Vec::new());
        start
    }

    /// Total simulated device time ("Total L0 Time").
    pub fn total_seconds(&self) -> f64 {
        self.clock
    }

    /// Number of recorded kernel events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Returns a copy of the raw event list.
    pub fn events(&self) -> Vec<KernelEvent> {
        self.events.clone()
    }

    /// Per-kernel aggregates, sorted by descending total time.
    pub fn summary(&self) -> Vec<KernelSummary> {
        let mut rows: Vec<KernelSummary> = Vec::new();
        for ev in &self.events {
            match rows.iter_mut().find(|r| r.name == ev.name) {
                Some(r) => {
                    r.calls += 1;
                    r.total += ev.duration;
                }
                None => rows.push(KernelSummary { name: ev.name, calls: 1, total: ev.duration }),
            }
        }
        rows.sort_by(|a, b| b.total.partial_cmp(&a.total).expect("finite totals"));
        rows
    }

    /// Clears all events and resets the clock.
    pub fn reset(&mut self) {
        self.clock = 0.0;
        self.events.clear();
    }

    /// Formats a unitrace-style dump: total first, then the breakdown.
    pub fn dump(&self) -> String {
        let mut out = format!("Total L0 Time: {:.6} s\n", self.total_seconds());
        out.push_str("Kernel                              Calls      Total(s)\n");
        for row in self.summary() {
            out.push_str(&format!("{:<36}{:>5}  {:>12.6}\n", row.name, row.calls, row.total));
        }
        out
    }
}

/// The device timeline of a run's BLAS call record: each call the
/// device model priced becomes one kernel under its routine name; a
/// call recorded without a model has no device time and is skipped.
impl<'a> Extend<&'a CallRecord> for Tracer {
    fn extend<I: IntoIterator<Item = &'a CallRecord>>(&mut self, records: I) {
        for r in records {
            if let Some(device_seconds) = r.device_seconds {
                self.record(r.routine, device_seconds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut t = Tracer::new();
        let s0 = t.record("a", 1.0);
        let s1 = t.record("b", 2.0);
        let s2 = t.record("a", 0.5);
        assert_eq!((s0, s1, s2), (0.0, 1.0, 3.0));
        assert_eq!(t.total_seconds(), 3.5);
        assert_eq!(t.event_count(), 3);
    }

    #[test]
    fn summary_aggregates_and_sorts() {
        let mut t = Tracer::new();
        t.record("gemm", 5.0);
        t.record("stencil", 1.0);
        t.record("stencil", 1.5);
        let s = t.summary();
        assert_eq!(s[0].name, "gemm");
        assert_eq!(s[1], KernelSummary { name: "stencil", calls: 2, total: 2.5 });
    }

    #[test]
    fn dump_leads_with_total() {
        let mut t = Tracer::new();
        t.record("x", 0.25);
        let d = t.dump();
        assert!(d.starts_with("Total L0 Time: 0.250000 s"), "{d}");
        assert!(d.contains('x'));
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = Tracer::new();
        t.record("x", 1.0);
        t.reset();
        assert_eq!(t.total_seconds(), 0.0);
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    #[should_panic(expected = "bad kernel duration")]
    fn negative_duration_rejected() {
        Tracer::new().record("x", -1.0);
    }

    #[test]
    fn record_emits_device_telemetry_at_full() {
        use dcmesh_telemetry as telemetry;
        telemetry::with_level(telemetry::TelemetryLevel::Full, || {
            let mut t = Tracer::new();
            t.record("trace_test_kernel", 0.002);
            let evs = telemetry::sink::drain();
            let ev = evs.iter().find(|e| e.name == "trace_test_kernel").expect("kernel event");
            assert_eq!(ev.track, telemetry::Track::Device);
            assert_eq!(ev.kind, telemetry::EventKind::Complete { dur_ns: 2_000_000 });
        });
    }

    #[test]
    fn extend_folds_priced_call_records_and_skips_unpriced_ones() {
        use mkl_lite::device::Domain;
        let rec = |routine, device_seconds| CallRecord {
            routine,
            transa: 'N',
            transb: 'N',
            m: 8,
            n: 8,
            k: 8,
            mode: mkl_lite::ComputeMode::Standard,
            domain: Domain::Complex32,
            wall: std::time::Duration::from_millis(1),
            device_seconds,
        };
        let records = [rec("CGEMM", Some(0.5)), rec("ZGEMM", None), rec("CGEMM", Some(0.25))];
        let mut t = Tracer::new();
        t.extend(&records);
        assert_eq!(t.total_seconds(), 0.75);
        assert_eq!(t.summary(), vec![KernelSummary { name: "CGEMM", calls: 2, total: 0.75 }]);
        assert_eq!(t.events()[1].start, 0.5, "the unpriced call did not advance the clock");
    }
}
