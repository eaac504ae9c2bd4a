//! ISSUE acceptance: span-aware sampling at `TELEMETRY=events` must not
//! distort attribution — the weighted folded totals of a 1-in-16 sampled
//! run stay within 10% of the unsampled (`full`) run.
//!
//! The comparison is on **modelled device seconds**, which the installed
//! `xe-gpu` model computes deterministically per call shape, so the only
//! error source is the sampling itself (which calls the stride lands on),
//! not timer noise.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::runner::run_simulation;
use dcmesh_profile::ingest;
use dcmesh_telemetry as telemetry;
use mkl_lite::{with_compute_mode, ComputeMode};
use telemetry::{export, sink, TelemetryLevel};

fn tiny() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 40;
    cfg.qd_steps_per_md = 20;
    cfg.laser_duration_fs = 0.03;
    cfg.laser_amplitude = 0.4;
    cfg
}

/// Sum of `weight x device_s` over every BLAS call span in a JSONL dump
/// — the quantity the flamegraph folder and the attribution tables both
/// integrate.
fn weighted_device_total(jsonl: &str) -> f64 {
    let trace = ingest::ingest_jsonl(jsonl);
    trace
        .spans
        .iter()
        .filter_map(|s| s.attr_f64("device_s").map(|d| d * s.weight))
        .sum()
}

#[test]
fn sampled_weighted_totals_match_full_run_within_10pct() {
    let _model = xe_gpu::install_default_model();
    let cfg = tiny();

    let full = telemetry::with_level(TelemetryLevel::Full, || {
        with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg))
            .expect("full-telemetry run");
        export::jsonl(&sink::drain())
    });

    let sampled = telemetry::with_level(TelemetryLevel::Events, || {
        telemetry::set_sample_interval(16);
        with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg))
            .expect("sampled run");
        export::jsonl(&sink::drain())
    });

    let t_full = weighted_device_total(&full);
    let t_sampled = weighted_device_total(&sampled);
    assert!(t_full > 0.0, "full run recorded no modelled device time");

    let full_trace = ingest::ingest_jsonl(&full);
    let sampled_trace = ingest::ingest_jsonl(&sampled);
    assert!(
        sampled_trace.spans.len() * 8 < full_trace.spans.len(),
        "sampling did not thin the stream: {} vs {} spans",
        sampled_trace.spans.len(),
        full_trace.spans.len()
    );
    assert_eq!(sampled_trace.meta.sample_n, 16, "meta line carries the interval");

    let rel = (t_sampled - t_full).abs() / t_full;
    assert!(
        rel < 0.10,
        "weighted sampled total {t_sampled:.6e}s deviates {:.1}% from full total {t_full:.6e}s",
        rel * 100.0
    );
}
