//! `MKL_VERBOSE`-style BLAS call inspection (the artifact A3 workflow).
//!
//! Runs a handful of QD steps with call recording on and prints the
//! per-call log — routine, op letters, m/n/k, compute mode, and (with the
//! device model installed) the modelled GPU time — then the ledger's
//! per-(callsite, shape, mode) rows, the one aggregate of BLAS calls the
//! paper's Tables VI/VII are summed from.
//!
//! ```text
//! cargo run --release --example verbose_blas
//! MKL_BLAS_COMPUTE_MODE=FLOAT_TO_TF32 cargo run --release --example verbose_blas
//! ```

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::runner::run_simulation;
use dcmesh_telemetry::{self as telemetry, ledger, TelemetryLevel};
use mkl_lite::verbose;

fn main() {
    // Install the Max 1550 device model so every call also gets a
    // modelled device time, like unitrace + MKL_VERBOSE together.
    xe_gpu::install_default_model();

    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.total_qd_steps = 3;
    cfg.qd_steps_per_md = 3;

    verbose::clear();
    verbose::set_recording(true);
    telemetry::with_level(TelemetryLevel::Events, || run_simulation::<f32>(&cfg)).expect("run");
    verbose::set_recording(false);

    let calls = verbose::drain();
    println!("recorded {} BLAS calls (3 QD steps + initial SCF):\n", calls.len());
    for c in calls.iter().take(30) {
        println!("  {}", c.to_verbose_line());
    }
    if calls.len() > 30 {
        println!("  ... {} more", calls.len() - 30);
    }

    println!("\nledger rows:");
    print!("{}", ledger::render_rows(&ledger::snapshot()));

    // The QD-step calls alone: exactly 9 per step, as the artifact says.
    let qd_calls: Vec<_> = calls.iter().filter(|c| c.routine == "CGEMM").collect();
    println!(
        "\nCGEMM calls from the LFD loop: {} over 3 QD steps ({} per step)",
        qd_calls.len(),
        qd_calls.len() / 3
    );
}
