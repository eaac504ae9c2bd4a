//! `mkl-lite`: a oneMKL-like BLAS with *alternative compute modes*.
//!
//! This crate is the stand-in for Intel oneMKL in the DCMESH precision
//! study. It provides level-3 BLAS routines over `f32`/`f64`
//! and their complex counterparts, written in safe Rust and parallelised
//! with rayon, plus faithful software implementations of oneMKL's
//! alternative compute modes:
//!
//! | Mode | Env value | Input representation | Products kept |
//! |---|---|---|---|
//! | Standard (FP32/FP64) | unset | native | 1 |
//! | BF16 | `FLOAT_TO_BF16` | 1 BF16 term | 1 |
//! | BF16x2 | `FLOAT_TO_BF16X2` | 2 BF16 terms | 3 |
//! | BF16x3 | `FLOAT_TO_BF16X3` | 3 BF16 terms | 6 |
//! | TF32 | `FLOAT_TO_TF32` | 1 TF32 term | 1 |
//! | Complex 3M | `COMPLEX_3M` | native | 3 real GEMMs |
//!
//! As in oneMKL, the mode is selected either through a runtime API
//! ([`set_compute_mode`]) or through the `MKL_BLAS_COMPUTE_MODE`
//! environment variable, and requires **no changes to call sites** — the
//! whole point of the paper's methodology. An `MKL_VERBOSE`-equivalent
//! call log ([`verbose`]) records routine name, dimensions, mode and both
//! measured wall time and (when a device model is installed, see
//! [`device`]) the modelled GPU execution time.
//!
//! Unlike oneMKL's, none of this state is process-global. The mode, the
//! call log, the device model, the fault plan and the ABFT sampler are
//! **per thread**: the free functions below read and write the calling
//! thread's context. A new thread starts from the environment and does
//! not inherit its parent's overrides, so two runs on two threads of one
//! process cannot disturb each other — and BLAS must be entered from the
//! thread that owns the run. The rayon pool's workers run only the
//! product's tasks, below the entry points, on values the caller passed
//! in (`crates/core/tests/pool_state.rs`).
//!
//! Matrices are **row-major** with an explicit leading dimension (`ld` =
//! elements between consecutive rows). Transposition/conjugation follow
//! the BLAS `op()` convention.
//!
//! ```
//! use dcmesh_numerics::{c32, C32};
//! use mkl_lite::{cgemm, with_compute_mode, ComputeMode, Op};
//!
//! // C = A·B for 2x2 complex matrices, first at standard FP32...
//! let a = [c32(1.0, 0.0), c32(0.0, 1.0), c32(0.0, -1.0), c32(1.0, 0.0)];
//! let b = [c32(0.5, 0.5), c32(0.0, 0.0), c32(0.0, 0.0), c32(0.5, 0.5)];
//! let mut c_std = [C32::zero(); 4];
//! cgemm(Op::None, Op::None, 2, 2, 2, C32::one(), &a, 2, &b, 2, C32::zero(), &mut c_std, 2);
//!
//! // ...then in the BF16 compute mode — same call sites, no code changes.
//! let mut c_bf16 = [C32::zero(); 4];
//! with_compute_mode(ComputeMode::FloatToBf16, || {
//!     cgemm(Op::None, Op::None, 2, 2, 2, C32::one(), &a, 2, &b, 2, C32::zero(), &mut c_bf16, 2);
//! });
//! // These inputs are exactly representable in BF16, so the results agree.
//! assert_eq!(c_std, c_bf16);
//! ```

pub mod abft;
pub mod config;
pub(crate) mod context;
pub mod device;
pub mod fault;
pub mod gemm;
pub mod herk;
pub mod layout;
pub mod mode;
pub mod verbose;
pub mod workspace;

pub use config::{
    compute_mode, reset_compute_mode, set_compute_mode, try_compute_mode, with_compute_mode,
};
pub use abft::{
    abft_check_count, abft_installed, abft_violation_count, clear_abft, install_abft,
    take_abft_violation, AbftViolation,
};
pub use fault::{
    clear_fault_plan, install_fault_plan, FaultKind, FaultPlan, FaultSite, Trigger,
};
pub use gemm::{cgemm, dgemm, sgemm, zgemm, zgemmt};
pub use herk::{cherk, zherk};
pub use layout::{Op, Uplo};
pub use mode::{ComputeMode, ParseModeError};

/// The environment variable oneMKL (and this crate) reads the compute mode
/// from.
pub const COMPUTE_MODE_ENV: &str = "MKL_BLAS_COMPUTE_MODE";

/// The environment variable enabling verbose call logging (`MKL_VERBOSE`).
pub const VERBOSE_ENV: &str = "MKL_VERBOSE";
