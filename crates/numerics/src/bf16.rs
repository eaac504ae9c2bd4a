//! bfloat16: the 16-bit truncated form of IEEE-754 binary32.
//!
//! BF16 keeps the full 8-bit exponent of `f32` (so its dynamic range equals
//! single precision) but only 7 explicit mantissa bits (`format::BF16`).
//! Conversion from `f32` uses round-to-nearest-even, matching both Intel
//! AMX/XMX and the conversion oneMKL performs inside its `FLOAT_TO_BF16*`
//! compute modes.

/// A bfloat16 value, stored as its 16-bit pattern (the upper half of the
/// corresponding `f32` bit pattern).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// Converts an `f32` to BF16 with round-to-nearest-even.
    ///
    /// NaN payloads are preserved in the upper bits (quietened if truncation
    /// would produce an infinity pattern). Overflow rounds to infinity,
    /// matching hardware `VCVTNEPS2BF16` semantics.
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        let bits = x.to_bits();
        if x.is_nan() {
            // Force a quiet NaN; keep the sign and top payload bits.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even on the 16 truncated bits.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x0000_7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts back to `f32` (exact: BF16 values are a subset of `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Rounds an `f32` to the nearest BF16 and returns it as an `f32`.
    ///
    /// This is the "quantise in place" operation the split-precision
    /// decompositions use.
    #[inline]
    pub fn round_f32(x: f32) -> f32 {
        Bf16::from_f32(x).to_f32()
    }
}

/// Rounds every element of `src` to BF16 (kept as `f32` values) into
/// `dst`, splitting the work over rayon tasks. Rounding is a pure
/// per-element function, so the result is [`Bf16::round_f32`] of each
/// element at any thread count.
pub fn round_slice_into(src: &[f32], dst: &mut [f32]) {
    use rayon::prelude::*;
    assert_eq!(src.len(), dst.len(), "round_slice_into length mismatch");
    dst.par_chunks_mut(crate::split::PAR_CHUNK).enumerate().for_each(|(ci, chunk)| {
        let base = ci * crate::split::PAR_CHUNK;
        let len = chunk.len();
        for (d, &s) in chunk.iter_mut().zip(&src[base..base + len]) {
            *d = Bf16::round_f32(s);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2⁻⁷: the distance from 1.0 to the next BF16.
    const EPSILON: f32 = 0.007_812_5;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -256..=256 {
            let x = i as f32;
            assert_eq!(Bf16::round_f32(x), x, "integer {i} must be exact in bf16");
        }
    }

    #[test]
    fn one_plus_epsilon_rounds_to_even() {
        assert_eq!(EPSILON as f64, crate::format::BF16.epsilon());
        // 1 + eps/2 is exactly halfway between 1.0 and 1+eps; RNE keeps 1.0.
        let half_ulp = 1.0 + EPSILON / 2.0;
        assert_eq!(Bf16::round_f32(half_ulp), 1.0);
        // 1 + 3*eps/2 is halfway between 1+eps and 1+2eps; RNE picks 1+2eps
        // (even mantissa).
        let x = 1.0 + 1.5 * EPSILON;
        assert_eq!(Bf16::round_f32(x), 1.0 + 2.0 * EPSILON);
    }

    #[test]
    fn relative_error_bounded_by_half_ulp() {
        let mut x = 1.000_123_4e-10_f32;
        while x < 1.0e10 {
            let r = Bf16::round_f32(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 2f32.powi(-8) * 1.0001, "x={x} r={r} rel={rel}");
            x *= 7.345;
        }
    }

    #[test]
    fn nan_and_infinity_preserved() {
        assert!(Bf16::round_f32(f32::NAN).is_nan());
        assert_eq!(Bf16::round_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(Bf16::round_f32(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // A large-but-finite f32 that exceeds BF16 max rounds to infinity.
        assert_eq!(Bf16::round_f32(f32::MAX), f32::INFINITY);
    }

    #[test]
    fn sign_handling() {
        assert_eq!(Bf16::round_f32(-1.5), -1.5);
        assert_eq!(Bf16::round_f32(-1.0), -1.0);
        assert_eq!(Bf16::from_f32(-0.0).0, 0x8000);
    }

    #[test]
    fn epsilon_is_next_representable_gap() {
        let one = Bf16::from_f32(1.0);
        assert_eq!(Bf16(one.0 + 1).to_f32() - one.to_f32(), EPSILON);
    }

    #[test]
    fn round_slice_into_matches_quantize_slice() {
        let src: Vec<f32> = (0..crate::split::PAR_CHUNK + 13)
            .map(|i| ((i * 13) as f32).cos() * 512.0)
            .collect();
        // The slice quantised one element at a time, in order.
        let seq: Vec<f32> = src.iter().map(|&s| Bf16::round_f32(s)).collect();
        let mut par = vec![1.0f32; src.len()];
        round_slice_into(&src, &mut par);
        assert_eq!(seq, par);
    }
}
