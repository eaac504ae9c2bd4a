//! Software-emulated low-precision numeric formats for the DCMESH
//! BLAS-precision study.
//!
//! Intel oneMKL's *alternative compute modes* (`FLOAT_TO_BF16`,
//! `FLOAT_TO_BF16X2`, `FLOAT_TO_BF16X3`, `FLOAT_TO_TF32`, `COMPLEX_3M`)
//! change how single-precision GEMM inputs are represented on the device:
//! each FP32 value is converted to a sum of one, two or three BF16 terms
//! (or rounded to TF32), the component matrices are multiplied on the
//! systolic matrix engines, and products are accumulated back in FP32.
//!
//! This crate provides everything those modes need, with bit-exact
//! round-to-nearest-even semantics, so that the numerical behaviour of the
//! modes can be studied on ordinary CPUs:
//!
//! * [`Bf16`] — bfloat16 (8 exponent bits, 7 mantissa bits) stored in 16 bits.
//! * [`Tf32`] — TensorFloat-32 (8 exponent bits, 10 mantissa bits) stored as
//!   an `f32` whose low mantissa bits are zero.
//! * [`split`] — decomposition of `f32` values/slices into sums of `D`
//!   BF16 terms, the core of the `FLOAT_TO_BF16{,X2,X3}` modes.
//! * [`Complex`] — a minimal complex type with both the conventional 4-real-
//!   multiplication product and the 3M (Karatsuba) product used by the
//!   `COMPLEX_3M` mode.
//! * [`format`] — descriptors for each precision format (paper Table IV).
//! * [`error_model`] — the paper's §V-B proxy error model (relative GEMM
//!   error ≈ 2⁻ⁿ, independent of input magnitude).

//! ```
//! use dcmesh_numerics::{split::split, Bf16, Tf32};
//!
//! let x = core::f32::consts::PI;
//! // One BF16 term keeps ~8 significand bits...
//! assert!((Bf16::round_f32(x) - x).abs() < x * 2f32.powi(-8));
//! // ...TF32 keeps ~11...
//! assert!((Tf32::round_f32(x) - x).abs() < x * 2f32.powi(-11));
//! // ...and three BF16 terms recover full single precision.
//! let [hi, mid, lo] = split::<3>(x);
//! assert_eq!(hi + mid + lo, x);
//! ```

pub mod bf16;
pub mod complex;
pub mod error_model;
pub mod format;
pub mod real;
pub mod reduce;
pub mod split;
pub mod tf32;

pub use bf16::Bf16;
pub use complex::{c32, c64, Complex, C32, C64};
pub use format::{PrecisionFormat, FORMATS};
pub use real::Real;
pub use tf32::Tf32;
