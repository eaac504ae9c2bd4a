//! Property-based tests for the low-precision numeric substrate.

use dcmesh_numerics::{
    bf16::Bf16,
    complex::{c64, Complex},
    split::{split, split_relative_error_bound},
    tf32::Tf32,
};
use proptest::prelude::*;

/// Finite, normal-range f32s (the error bounds exclude denormals).
fn normal_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        1.0e-20f32..1.0e20f32,
        (1.0e-20f32..1.0e20f32).prop_map(|x| -x),
    ]
}

proptest! {
    #[test]
    fn bf16_roundtrip_is_idempotent(x in normal_f32()) {
        let once = Bf16::round_f32(x);
        prop_assert_eq!(Bf16::round_f32(once), once);
    }

    #[test]
    fn bf16_rounding_is_monotone(a in normal_f32(), b in normal_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::round_f32(lo) <= Bf16::round_f32(hi));
    }

    #[test]
    fn bf16_relative_error_half_ulp(x in normal_f32()) {
        let r = Bf16::round_f32(x);
        if r.is_finite() {
            let rel = ((r - x) / x).abs();
            prop_assert!(rel <= 2f32.powi(-8), "x={} r={} rel={}", x, r, rel);
        }
    }

    #[test]
    fn tf32_relative_error_half_ulp(x in normal_f32()) {
        let r = Tf32::round_f32(x);
        let rel = ((r - x) / x).abs();
        prop_assert!(rel <= 2f32.powi(-11), "x={} r={} rel={}", x, r, rel);
    }

    #[test]
    fn tf32_never_less_accurate_than_bf16(x in normal_f32()) {
        let tf = (Tf32::round_f32(x) as f64 - x as f64).abs();
        let bf = (Bf16::round_f32(x) as f64 - x as f64).abs();
        prop_assert!(tf <= bf);
    }

    #[test]
    fn split2_error_bound(x in normal_f32()) {
        let [hi, lo] = split::<2>(x);
        if hi.is_finite() {
            let rel = ((hi + lo - x) / x).abs();
            prop_assert!(rel <= split_relative_error_bound(2), "x={} rel={}", x, rel);
        }
    }

    #[test]
    fn split3_error_bound(x in normal_f32()) {
        let [hi, mid, lo] = split::<3>(x);
        if hi.is_finite() {
            let rel = ((hi + mid + lo - x) / x).abs();
            prop_assert!(rel <= split_relative_error_bound(3), "x={} rel={}", x, rel);
        }
    }

    #[test]
    fn split_terms_are_bf16_fixed_points(x in normal_f32()) {
        for t in split::<3>(x) {
            prop_assert_eq!(Bf16::round_f32(t), t);
        }
    }

    #[test]
    fn split3_strictly_tighter_than_split2(x in normal_f32()) {
        let value = |terms: &[f32]| terms.iter().sum::<f32>() as f64;
        let e2 = (value(&split::<2>(x)) - x as f64).abs();
        let e3 = (value(&split::<3>(x)) - x as f64).abs();
        prop_assert!(e3 <= e2 + f32::EPSILON as f64 * x.abs() as f64);
    }

    #[test]
    fn complex_3m_matches_4m_within_cancellation_bound(
        a in -1.0e3f64..1.0e3, b in -1.0e3f64..1.0e3,
        c in -1.0e3f64..1.0e3, d in -1.0e3f64..1.0e3,
    ) {
        let x = c64(a, b);
        let y = c64(c, d);
        let p3 = x.mul_3m(y);
        let p4 = x.mul_4m(y);
        // 3M has a worse worst-case, but it is still bounded by a small
        // multiple of eps times the input magnitudes.
        let scale = x.abs() * y.abs() + 1.0;
        prop_assert!((p3 - p4).abs() <= 16.0 * f64::EPSILON * scale,
            "x={:?} y={:?} d={}", x, y, (p3 - p4).abs());
    }

    #[test]
    fn complex_conj_distributes_over_product(
        a in -1.0e3f64..1.0e3, b in -1.0e3f64..1.0e3,
        c in -1.0e3f64..1.0e3, d in -1.0e3f64..1.0e3,
    ) {
        let x = c64(a, b);
        let y = c64(c, d);
        let lhs = (x * y).conj();
        let rhs = x.conj() * y.conj();
        prop_assert!((lhs - rhs).abs() <= 8.0 * f64::EPSILON * (x.abs() * y.abs() + 1.0));
    }

    #[test]
    fn complex_norm_is_multiplicative(
        a in -1.0e3f64..1.0e3, b in -1.0e3f64..1.0e3,
        c in -1.0e3f64..1.0e3, d in -1.0e3f64..1.0e3,
    ) {
        let x = c64(a, b);
        let y = c64(c, d);
        let lhs = (x * y).abs();
        let rhs = x.abs() * y.abs();
        prop_assert!((lhs - rhs).abs() <= 8.0 * f64::EPSILON * (rhs + 1.0));
    }

    #[test]
    fn cis_is_a_group_homomorphism(s in -6.0f64..6.0, t in -6.0f64..6.0) {
        let lhs = Complex::cis(s) * Complex::cis(t);
        let rhs = Complex::<f64>::cis(s + t);
        prop_assert!((lhs - rhs).abs() < 1e-12);
    }
}
