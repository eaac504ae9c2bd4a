//! A unitrace-style kernel tracer over the simulated device timeline.
//!
//! The paper uses Intel PTI-GPU's `unitrace -k` to record per-kernel
//! GPU-side (Level-Zero) timings and reads the "Total L0 Time" off the top
//! of the dump (artifact A1). This tracer plays that role for the device
//! model: kernels are appended with their modelled durations on a
//! monotonically advancing simulated clock, whose reading is that total.
//! It is a plain fold: whoever owns the tracer feeds it, kernel by kernel
//! or a run's [`CallRecord`]s at once through [`Extend`].

use mkl_lite::verbose::CallRecord;

/// Simulated-timeline tracer.
#[derive(Default)]
pub struct Tracer {
    clock: f64,
    kernels: usize,
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
        self.kernels += 1;
        dcmesh_telemetry::device_complete(name, start, duration, Vec::new());
        start
    }

    /// Total simulated device time ("Total L0 Time").
    pub fn total_seconds(&self) -> f64 {
        self.clock
    }

    /// Number of recorded kernel events.
    pub fn event_count(&self) -> usize {
        self.kernels
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
        assert_eq!(t.event_count(), 2, "the unpriced call is not a kernel");
    }
}
