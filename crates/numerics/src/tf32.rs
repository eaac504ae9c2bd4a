//! TensorFloat-32: 8 exponent bits, 10 explicit mantissa bits.
//!
//! TF32 is the 19-bit format used by matrix engines (Nvidia Ampere tensor
//! cores, Intel XMX in `FLOAT_TO_TF32` mode). It has the dynamic range of
//! `f32`/BF16 and the mantissa width of FP16 (`format::TF32`).
//! Implementations keep TF32 values inside 32-bit registers, so we store it
//! as an `f32` whose low 13 mantissa bits are zero.

use crate::format::{FP32, TF32};

/// A TF32 value, stored as an `f32` with the low 13 mantissa bits cleared.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct Tf32(f32);

impl Tf32 {
    /// Number of low f32 mantissa bits dropped by the format.
    const DROPPED_BITS: u32 = FP32.mantissa_bits - TF32.mantissa_bits;

    /// Converts an `f32` to TF32 with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Tf32 {
        Tf32(round_f32_mantissa(x, Self::DROPPED_BITS))
    }

    /// Converts to `f32` (exact).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0
    }

    /// Rounds an `f32` to the nearest TF32 and returns it as an `f32`.
    #[inline]
    pub fn round_f32(x: f32) -> f32 {
        Tf32::from_f32(x).to_f32()
    }
}

/// Rounds an `f32` to a reduced-mantissa format by clearing the low
/// `dropped` mantissa bits with round-to-nearest-even.
///
/// This is the §V-B "proxy model" operation: `dropped = 23 - n` keeps `n`
/// mantissa bits. Shared by [`Tf32`] and the error-model experiments.
#[inline]
pub fn round_f32_mantissa(x: f32, dropped: u32) -> f32 {
    debug_assert!(dropped < 24, "cannot drop more bits than the mantissa has");
    if dropped == 0 || !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let mask = (1u32 << dropped) - 1;
    let lsb = (bits >> dropped) & 1;
    let rounded = bits.wrapping_add((mask >> 1) + lsb);
    f32::from_bits(rounded & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2⁻¹⁰: the distance from 1.0 to the next TF32.
    const EPSILON: f32 = 0.000_976_562_5;

    #[test]
    fn representable_values_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32 / 4.0;
            assert_eq!(Tf32::round_f32(x), x, "{x} must be exact in tf32");
        }
    }

    #[test]
    fn low_mantissa_bits_cleared() {
        let r = Tf32::round_f32(core::f32::consts::PI);
        assert_eq!(r.to_bits() & 0x1FFF, 0, "low 13 bits must be zero");
    }

    #[test]
    fn round_to_nearest_even_at_tie() {
        assert_eq!(EPSILON as f64, TF32.epsilon());
        // Halfway between 1.0 and 1+eps: tie, round to even (1.0).
        assert_eq!(Tf32::round_f32(1.0 + EPSILON / 2.0), 1.0);
        // Halfway between 1+eps and 1+2eps: round to even (1+2eps).
        assert_eq!(Tf32::round_f32(1.0 + 1.5 * EPSILON), 1.0 + 2.0 * EPSILON);
    }

    #[test]
    fn relative_error_bounded() {
        let mut x = 3.33e-8_f32;
        while x < 1.0e8 {
            let rel = ((Tf32::round_f32(x) - x) / x).abs();
            assert!(rel <= 2f32.powi(-11) * 1.0001, "x={x}");
            x *= 9.173;
        }
    }

    #[test]
    fn tf32_more_precise_than_bf16() {
        // TF32 keeps strictly more mantissa bits, so its rounding error on a
        // generic value must not exceed BF16's.
        let vals = [0.1f32, 1.2345, 777.77, 1.0e-3, 9.999e5];
        for &x in &vals {
            let tf = (Tf32::round_f32(x) - x).abs();
            let bf = (crate::Bf16::round_f32(x) - x).abs();
            assert!(tf <= bf, "x={x}: tf32 err {tf} > bf16 err {bf}");
        }
    }

    #[test]
    fn specials_pass_through() {
        assert!(Tf32::round_f32(f32::NAN).is_nan());
        assert_eq!(Tf32::round_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(Tf32::round_f32(0.0), 0.0);
        assert_eq!(Tf32::round_f32(-0.0), -0.0);
    }

    #[test]
    fn round_f32_mantissa_zero_drop_is_identity() {
        for &x in &[1.234f32, -9.87e-5, 3.4e37] {
            assert_eq!(round_f32_mantissa(x, 0), x);
        }
    }
}
