//! `telemetry_check`: the disabled-path overhead gate.
//!
//! Measures the per-span cost of the telemetry layer at level `off` (the
//! construction and drop of an inert span guard), multiplies it by
//! [`SPANS_PER_QD_STEP`], and fails when that is more than
//! [`MAX_OVERHEAD_PCT`] of a QD step measured in the same run. It takes
//! no options and exits 1 on failure.
//!
//! The untimed telemetry checks — the fault-injected run's exported
//! artifacts, their trace and ledger attribution, the profile tables and
//! the offline advisor — are `crates/bench/tests/telemetry_gates.rs`.
//!
//! ```text
//! cargo run --release -p dcmesh-bench --bin telemetry_check
//! ```

use dcmesh_bench::SPANS_PER_QD_STEP;
use dcmesh_lfd::propagator::{qd_step, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_telemetry as telemetry;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use telemetry::TelemetryLevel;

/// The most the disabled telemetry path may cost, in percent of a QD step.
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// Measures ns/span at `off` and the QD-step time, and returns the
/// instrumentation overhead per step in percent.
fn disabled_overhead_pct() -> f64 {
    telemetry::set_level(TelemetryLevel::Off);

    // Per-span disabled cost: construction + drop of an inert guard.
    let reps = 4_000_000u32;
    let t0 = Instant::now();
    for i in 0..reps {
        let g = telemetry::span("overhead_probe");
        black_box(&g);
        drop(g);
        black_box(i);
    }
    let ns_per_span = t0.elapsed().as_nanos() as f64 / reps as f64;

    // QD-step time on the benchmark deck (`benches/qd_step.rs` params).
    let p = LfdParams {
        mesh: Mesh3::cubic(12, 0.6),
        n_orb: 16,
        n_occ: 8,
        dt: 0.02,
        vnl_strength: 0.2,
        taylor_order: 4,
        laser: LaserPulse { amplitude: 0.3, omega: 0.3, duration: 1e6, phase: 0.0 },
        induced_coupling: 0.0,
    };
    let mut st = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.2));
    let mut scratch = QdScratch::new(&p);
    for _ in 0..3 {
        black_box(qd_step(&p, &mut st, &mut scratch));
    }
    let steps = 20u32;
    let t0 = Instant::now();
    for _ in 0..steps {
        black_box(qd_step(&p, &mut st, &mut scratch).ekin);
    }
    let ns_per_step = t0.elapsed().as_nanos() as f64 / steps as f64;

    let overhead_ns = ns_per_span * SPANS_PER_QD_STEP as f64;
    let pct = 100.0 * overhead_ns / ns_per_step;
    eprintln!(
        "disabled path: {ns_per_span:.2} ns/span x {SPANS_PER_QD_STEP} spans/step = \
         {overhead_ns:.0} ns vs {ns_per_step:.0} ns/qd_step = {pct:.4}% (limit {MAX_OVERHEAD_PCT}%)"
    );
    pct
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("telemetry_check takes no options: it runs the overhead gate, every time");
        return ExitCode::from(2);
    }
    let pct = disabled_overhead_pct();
    if !pct.is_finite() || pct > MAX_OVERHEAD_PCT {
        eprintln!("FAIL: disabled-path overhead {pct:.4}% exceeds {MAX_OVERHEAD_PCT}%");
        return ExitCode::from(1);
    }
    eprintln!("telemetry_check: OK");
    ExitCode::SUCCESS
}
