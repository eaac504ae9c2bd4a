//! `xe-gpu`: an analytical device model of one stack of the Intel Data
//! Center GPU Max Series 1550 ("Ponte Vecchio", Xe-HPC).
//!
//! The paper's performance results were measured on real hardware that a
//! reproduction cannot assume; this crate substitutes a calibrated
//! analytical model. It prices every device kernel DCMESH launches —
//! GEMMs through a roofline-plus-systolic-efficiency model, mesh kernels
//! through a bandwidth/occupancy model — and exposes a `unitrace`-style
//! tracer that accumulates the resulting simulated Level-Zero timeline.
//!
//! What is modelled (all terms documented on [`perf::XeStackModel`]):
//!
//! * vector-engine vs XMX matrix-engine peak throughput per precision
//!   (paper Table I),
//! * sustained-vs-peak derating for power/frequency throttling,
//! * shape-dependent systolic utilisation (small `m` starves the arrays),
//! * HBM traffic incl. the FP32→BF16/TF32 conversion passes of the
//!   alternative compute modes,
//! * per-kernel launch latency, and
//! * reduced effective bandwidth at low occupancy (small meshes).
//!
//! The model implements [`mkl_lite::device::DeviceTimeModel`], so once
//! installed every BLAS call in the process is automatically priced and
//! logged — exactly how `MKL_VERBOSE` timing drove the paper's Tables VI
//! and VII and Figure 3b.

//! ```
//! use mkl_lite::device::{Domain, GemmDesc};
//! use mkl_lite::ComputeMode;
//! use xe_gpu::{XeStackModel, MAX_1550_STACK};
//!
//! // Price the paper's remap_occ GEMM (Table VII, N_orb = 4096) in FP32
//! // and BF16: the modelled speedup reproduces the ~3.9x of Table VI.
//! let model = XeStackModel::new(MAX_1550_STACK);
//! let speedup = model.gemm_speedup_vs_fp32(
//!     Domain::Complex32, 128, 3968, 262_144, ComputeMode::FloatToBf16);
//! assert!(speedup > 3.4 && speedup < 4.4);
//! ```

pub mod derive;
pub mod device;
pub mod kernels;
pub mod perf;
pub mod trace;

pub use device::{DeviceSpec, Engine, MAX_1550_STACK};
pub use kernels::{KernelDesc, StreamKernel};
pub use perf::{ModePrediction, XeStackModel};
pub use trace::Tracer;

/// Installs a [`XeStackModel`] for [`MAX_1550_STACK`] as the calling
/// thread's BLAS device model and returns it.
pub fn install_default_model() -> std::sync::Arc<XeStackModel> {
    let model = std::sync::Arc::new(XeStackModel::new(MAX_1550_STACK));
    mkl_lite::device::install_device_model(model.clone());
    model
}
