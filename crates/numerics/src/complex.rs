//! Minimal complex arithmetic for the DCMESH kernels.
//!
//! The electronic wave functions in LFD are complex single-precision
//! matrices, so the precision study lives almost entirely in CGEMM. This
//! module provides a plain `#[repr(C)]` complex type (interleaved
//! real/imag, the BLAS memory layout) generic over `f32`/`f64`, plus both
//! multiplication algorithms that matter for the study:
//!
//! * the conventional product (4 real multiplies, 2 adds), and
//! * the **3M** product (3 real multiplies, 5 adds — Karatsuba), which is
//!   what oneMKL's `COMPLEX_3M` compute mode uses to trade multiplier
//!   throughput for extra additions (and different cancellation behaviour).

use crate::real::Real;

/// A complex number with interleaved storage, layout-compatible with the
/// `(re, im)` pairs BLAS expects.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex, the CGEMM element type.
pub type C32 = Complex<f32>;
/// Double-precision complex, the ZGEMM element type.
pub type C64 = Complex<f64>;

/// Shorthand constructor for [`C32`].
#[inline]
pub const fn c32(re: f32, im: f32) -> C32 {
    Complex { re, im }
}

/// Shorthand constructor for [`C64`].
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    Complex { re, im }
}

impl<T: Real> Complex<T> {
    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Complex { re: T::ZERO, im: T::ZERO }
    }

    /// One.
    #[inline]
    pub fn one() -> Self {
        Complex { re: T::ONE, im: T::ZERO }
    }

    /// The imaginary unit.
    #[inline]
    pub fn i() -> Self {
        Complex { re: T::ZERO, im: T::ONE }
    }

    /// Builds from a real value.
    #[inline]
    pub fn from_real(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed without intermediate overflow via `hypot`.
    #[inline]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }

    /// `e^{iθ}` for a real phase θ.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex { re: r * self.im.cos(), im: r * self.im.sin() }
    }

    /// The conventional 4-multiplication complex product.
    ///
    /// `(a+bi)(c+di) = (ac - bd) + (ad + bc)i`
    #[inline]
    pub fn mul_4m(self, rhs: Self) -> Self {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }

    /// The 3M (Karatsuba) complex product used by `COMPLEX_3M`.
    ///
    /// ```text
    /// t1 = c (a + b);  t2 = a (d - c);  t3 = b (c + d)
    /// re = t1 - t3;    im = t1 + t2
    /// ```
    ///
    /// Mathematically identical to [`Complex::mul_4m`], but with different
    /// rounding/cancellation behaviour — exactly the numerical distinction
    /// the paper's `COMPLEX_3M` results probe.
    #[inline]
    pub fn mul_3m(self, rhs: Self) -> Self {
        let (a, b) = (self.re, self.im);
        let (c, d) = (rhs.re, rhs.im);
        let t1 = c * (a + b);
        let t2 = a * (d - c);
        let t3 = b * (c + d);
        Complex { re: t1 - t3, im: t1 + t2 }
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex { re: self.re / d, im: -self.im / d }
    }
}

impl C32 {
    /// Widens to double precision.
    #[inline]
    pub fn to_c64(self) -> C64 {
        c64(self.re as f64, self.im as f64)
    }
}

impl C64 {
    /// Narrows to single precision (rounding each component).
    #[inline]
    pub fn to_c32(self) -> C32 {
        c32(self.re as f32, self.im as f32)
    }
}

impl<T: Real> core::ops::Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<T: Real> core::ops::Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<T: Real> core::ops::Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_4m(rhs)
    }
}

impl<T: Real> core::ops::Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.mul_4m(rhs.inv())
    }
}

impl<T: Real> core::ops::Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Complex { re: -self.re, im: -self.im }
    }
}

impl<T: Real> core::ops::AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re = self.re + rhs.re;
        self.im = self.im + rhs.im;
    }
}

impl<T: Real> core::ops::SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re = self.re - rhs.re;
        self.im = self.im - rhs.im;
    }
}

impl<T: Real> core::ops::MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = self.mul_4m(rhs);
    }
}

impl<T: Real> core::ops::Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:?}, {:?}i)", self.re, self.im)
    }
}

impl<T: core::fmt::Display + Real> core::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, -self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < EPS * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_identities() {
        let z = c64(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.inv(), Complex::one()));
        assert!(close(z + (-z), Complex::zero()));
        assert!(close(z.conj().conj(), z));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = C64::i();
        assert!(close(i * i, -Complex::one()));
    }

    #[test]
    fn mul_3m_equals_4m_exactly_on_integers() {
        // With integer-valued components, both algorithms are exact.
        for a in -5..5i32 {
            for b in -5..5i32 {
                let x = c64(a as f64, b as f64);
                let y = c64((a + 2) as f64, (b - 3) as f64);
                assert_eq!(x.mul_3m(y), x.mul_4m(y));
            }
        }
    }

    #[test]
    fn mul_3m_close_to_4m_on_reals() {
        let x = c32(0.123_456_7, -9.876_543);
        let y = c32(core::f32::consts::PI, core::f32::consts::E);
        let p3 = x.mul_3m(y);
        let p4 = x.mul_4m(y);
        let d = (p3 - p4).abs();
        assert!(d <= 1e-4 * p4.abs(), "3M deviates too much: {d}");
        // ... but the bit patterns generally differ — that is the point.
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..32 {
            let t = k as f64 * 0.196_349_54;
            let z = C64::cis(t);
            assert!((z.abs() - 1.0).abs() < EPS);
            // arg is the phase folded into (-pi, pi].
            let expected = (t + core::f64::consts::PI).rem_euclid(core::f64::consts::TAU)
                - core::f64::consts::PI;
            assert!((z.arg() - expected).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = c64(0.0, core::f64::consts::PI).exp();
        assert!(close(z, c64(-1.0, 0.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let x = c64(1.5, -2.5);
        let y = c64(-0.75, 4.0);
        assert!(close((x * y) / y, x));
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let z = c32(1.25, -0.5); // exactly representable
        assert_eq!(z.to_c64().to_c32(), z);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1+2i");
    }
}
