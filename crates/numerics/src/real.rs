//! A small real-scalar abstraction over `f32`/`f64`.
//!
//! The kernels in this workspace are generic over the two IEEE binary
//! formats only, so rather than pull in a trait-ecosystem dependency we
//! define exactly the operations the code uses.

/// Real scalar: `f32` or `f64`.
pub trait Real:
    Copy
    + PartialOrd
    + Default
    + Send
    + Sync
    + core::fmt::Debug
    + core::fmt::Display
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the format.
    const EPSILON: Self;

    /// `self · a + b` rounded once (fused multiply-add). One instruction
    /// where the target has FMA; a libm call on the x86-64 baseline.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `sqrt(self² + other²)` without intermediate overflow.
    fn hypot(self, other: Self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Two-argument arctangent.
    fn atan2(self, other: Self) -> Self;
    /// Larger of two values (NaN-propagating like `f64::max` is not needed).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
    /// True if NaN.
    fn is_nan(self) -> bool;
    /// True if finite.
    fn is_finite(self) -> bool;
    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Lossless widening to `f64`.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `usize`.
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                self.hypot(other)
            }
            #[inline]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn atan2(self, other: Self) -> Self {
                self.atan2(other)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                if self > other { self } else { other }
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                if self < other { self } else { other }
            }
            #[inline]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_quadrature<T: Real>(n: usize) -> T {
        // ∫₀^π sin ≈ 2 by midpoint rule — exercises the trait surface.
        let h = T::from_f64(core::f64::consts::PI / n as f64);
        let mut acc = T::ZERO;
        for i in 0..n {
            let x = h * (T::from_usize(i) + T::from_f64(0.5));
            acc += x.sin() * h;
        }
        acc
    }

    #[test]
    fn trait_surface_works_for_both_widths() {
        assert!((generic_quadrature::<f64>(1000) - 2.0).abs() < 1e-5);
        assert!((generic_quadrature::<f32>(1000) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn min_max_total_on_ordinary_values() {
        assert_eq!(Real::max(1.0f64, 2.0), 2.0);
        assert_eq!(Real::min(1.0f32, 2.0), 1.0);
    }
}
