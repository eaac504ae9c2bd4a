//! The element types of the level-3 routines, and the rule their calls
//! run by.
//!
//! A call's element type decides everything about it that its routine
//! does not: the [`Domain`] it is logged and priced under, the compute
//! mode it runs in, and whether its product is one real product or the
//! complex 4M/3M structure. The mode follows oneMKL: the `FLOAT_TO_*`
//! modes re-represent single-precision data only, and `COMPLEX_3M`
//! restructures complex products only.
//!
//! | Element | Routines | Domain | Mode the call runs in |
//! |---|---|---|---|
//! | `f32` | SGEMM | `Real32` | the thread's |
//! | `f64` | DGEMM | `Real64` | `STANDARD` |
//! | `C32` | CGEMM, CHERK | `Complex32` | the thread's |
//! | `C64` | ZGEMM, ZGEMMT, ZHERK | `Complex64` | `COMPLEX_3M` if the thread's is, else `STANDARD` |
//!
//! A DGEMM never reads the thread's mode, so an invalid
//! `MKL_BLAS_COMPUTE_MODE` cannot make it panic.

use crate::config::compute_mode;
use crate::device::Domain;
use crate::fault::FaultKind;
use crate::gemm::kernel::{real_product, Exec, MicroArch};
use crate::gemm::{complex_product_3m, complex_product_4m, op_srcs, GemmArgs};
use crate::mode::ComputeMode;
use core::ops::{Add, Mul};
use dcmesh_numerics::{Complex, Real, C64};

/// The mode a call over `domain` data runs in (the table above).
pub(crate) fn executed_mode(domain: Domain) -> ComputeMode {
    match domain {
        Domain::Real32 | Domain::Complex32 => compute_mode(),
        Domain::Complex64 if compute_mode() == ComputeMode::Complex3m => ComputeMode::Complex3m,
        Domain::Real64 | Domain::Complex64 => ComputeMode::Standard,
    }
}

/// An element type of the level-3 routines (see the module docs). The
/// hidden methods are the product structure the one level-3 body runs;
/// the rest is what the body, the ABFT checksum and the fault plan need
/// of an element.
pub trait Element: Copy + PartialEq + Add<Output = Self> + Mul<Output = Self> + 'static {
    /// The real type the products run on.
    type Real: MicroArch;
    /// The domain of a call over this type.
    const DOMAIN: Domain;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Real outputs per element of `P = op(A)·op(B)` in `mode`: row `i`
    /// of the product's accumulator is that many runs of `n`.
    #[doc(hidden)]
    fn outputs(mode: ComputeMode) -> usize;

    /// Accumulates `P` in `mode` into the zeroed accumulator.
    #[doc(hidden)]
    fn product(
        mode: ComputeMode,
        g: &GemmArgs<'_, Self>,
        acc: &mut [Self::Real],
        exec: Exec<Self::Real>,
    );

    /// `P[i][j]` out of row `i` of the accumulator; `#[inline(always)]`
    /// in the impls, as an out-of-line call per element tripled the
    /// writeback's time on the apply shapes.
    #[doc(hidden)]
    fn element(mode: ComputeMode, row: &[Self::Real], n: usize, j: usize) -> Self;

    /// The complex conjugate; a real value as it is.
    fn conj(self) -> Self {
        self
    }

    /// The value with its imaginary part zeroed; a real value as it is.
    fn real_part(self) -> Self {
        self
    }

    /// The value as a complex `f64` (a real one with a zero imaginary
    /// part): what the checksum accumulates.
    fn widen(self) -> C64;

    /// `|x|` in `f64`: what the magnitude checksum accumulates. A real
    /// value's is exact. A complex value's is `√(re² + im²)` in `f64`
    /// wherever that sum is a normal number, and `f64::hypot` where it is
    /// not (it overflowed, underflowed or is NaN); zero is zero. The
    /// squares of `f32` parts are exact in `f64` and never leave its
    /// normal range, so a finite `C32` never takes `hypot`. The root of the
    /// sum is within 1 ulp of `hypot` for `f32` parts (two roundings,
    /// the sum and the root) and within 2 ulp for `f64` parts (the
    /// squares round too); on a non-finite part both give the same value.
    fn magnitude(self) -> f64;

    /// The value after applying `kind`; `entropy` breaks ties (e.g.
    /// which complex component to hit).
    fn corrupted(self, kind: FaultKind, entropy: u64) -> Self;
}

/// A real type, over the unsigned integer of its bit pattern.
macro_rules! real_element {
    ($t:ty, $bits:ty, $domain:expr) => {
        impl Element for $t {
            type Real = $t;
            const DOMAIN: Domain = $domain;
            const ZERO: $t = 0.0;
            const ONE: $t = 1.0;

            fn outputs(_: ComputeMode) -> usize {
                1
            }

            fn product(mode: ComputeMode, g: &GemmArgs<'_, $t>, acc: &mut [$t], exec: Exec<$t>) {
                let ((a, _), (b, _)) = op_srcs(g);
                real_product(mode, &a, &b, acc, g.m, g.n, g.k, exec);
            }

            #[inline(always)]
            fn element(_: ComputeMode, row: &[$t], _: usize, j: usize) -> $t {
                row[j]
            }

            #[inline]
            fn widen(self) -> C64 {
                C64 { re: self.to_f64(), im: 0.0 }
            }

            #[inline]
            fn magnitude(self) -> f64 {
                self.to_f64().abs()
            }

            fn corrupted(self, kind: FaultKind, _entropy: u64) -> $t {
                let flip = |bit: u32| <$t>::from_bits(self.to_bits() ^ (1 << bit));
                match kind {
                    FaultKind::FlipMantissaBit(bit) => flip(bit % (<$t>::MANTISSA_DIGITS - 1)),
                    FaultKind::FlipBit(bit) => flip(bit % <$bits>::BITS),
                    FaultKind::Nan => <$t>::NAN,
                    FaultKind::Inf => <$t>::INFINITY,
                }
            }
        }
    };
}

real_element!(f32, u32, Domain::Real32);
real_element!(f64, u64, Domain::Real64);

/// A complex type over a real one: the 4M structure, or 3M under
/// `COMPLEX_3M`, both packed straight from the interleaved storage.
impl<T: MicroArch + Element> Element for Complex<T> {
    type Real = T;
    const DOMAIN: Domain = match T::DOMAIN {
        Domain::Real32 => Domain::Complex32,
        _ => Domain::Complex64,
    };
    const ZERO: Self = Complex { re: <T as Real>::ZERO, im: <T as Real>::ZERO };
    const ONE: Self = Complex { re: <T as Real>::ONE, im: <T as Real>::ZERO };

    fn outputs(mode: ComputeMode) -> usize {
        if mode == ComputeMode::Complex3m { 3 } else { 2 }
    }

    fn product(mode: ComputeMode, g: &GemmArgs<'_, Self>, acc: &mut [T], exec: Exec<T>) {
        if mode == ComputeMode::Complex3m {
            complex_product_3m(g, acc, exec);
        } else {
            complex_product_4m(mode, g, acc, exec);
        }
    }

    /// Row `i` is `[Re | Im]`, or under `COMPLEX_3M` `[T1 | T2 | T3]`
    /// with `Re = T1 − T3`, `Im = T1 + T2`.
    #[inline(always)]
    fn element(mode: ComputeMode, row: &[T], n: usize, j: usize) -> Self {
        if mode == ComputeMode::Complex3m {
            Complex { re: row[j] - row[2 * n + j], im: row[j] + row[n + j] }
        } else {
            Complex { re: row[j], im: row[n + j] }
        }
    }

    fn conj(self) -> Self {
        Complex::conj(self)
    }

    fn real_part(self) -> Self {
        Complex { im: <T as Real>::ZERO, ..self }
    }

    #[inline]
    fn widen(self) -> C64 {
        C64 { re: self.re.to_f64(), im: self.im.to_f64() }
    }

    /// Not `hypot` throughout: a libm call per operand element made an
    /// ABFT check cost 10× the 16-orbital projection it checked.
    #[inline]
    fn magnitude(self) -> f64 {
        let C64 { re, im } = self.widen();
        let sum = re * re + im * im;
        if sum.is_normal() {
            sum.sqrt()
        } else if re == 0.0 && im == 0.0 {
            0.0
        } else {
            re.hypot(im)
        }
    }

    fn corrupted(mut self, kind: FaultKind, entropy: u64) -> Self {
        if entropy & 1 == 0 {
            self.re = self.re.corrupted(kind, entropy >> 1);
        } else {
            self.im = self.im.corrupted(kind, entropy >> 1);
        }
        self
    }
}
