//! The paper's §V-B proxy error model.
//!
//! To explain why the relative BLAS error is independent of matrix size,
//! the paper considers rounding off all but the lowest `n` mantissa bits of
//! the GEMM inputs. For non-denormal inputs this perturbs each input by at
//! most `2^{-n-1}` relative, and the relative error of a product
//! `(a+Δa)(b+Δb)` is bounded by
//!
//! ```text
//! |Δa/a| + |Δb/b| + |Δa·Δb / ab|  ≤  2^{-n} + o(2^{-n})
//! ```
//!
//! independent of `a` and `b`. Each entry of `AB` is a sum of such products,
//! so when all products share a sign (no cancellation) the bound carries
//! over to the matrix product — hence "relative error of BLAS compute in
//! BF16 ... is independent of matrix size".

use crate::tf32::round_f32_mantissa;

/// Bound on the relative error of a product of two values each carrying `n`
/// effective mantissa bits: `2^{-n} + 2^{-2n-2}` (the exact form of the
/// paper's `2^{-n} + o(2^{-n})`).
pub fn product_relative_error_bound(mantissa_bits: u32) -> f64 {
    let n = mantissa_bits as i32;
    2f64.powi(-n) + 2f64.powi(-2 * n - 2)
}

/// Empirically measures the maximum relative error of scalar products when
/// both factors are rounded to `n` explicit mantissa bits, over `samples`
/// logarithmically spaced magnitudes.
///
/// Returns `(max_relative_error, bound)`; the model predicts
/// `max ≤ bound` and (crucially) no dependence on magnitude.
pub fn measure_product_error(n_mantissa_bits: u32, samples: usize) -> (f64, f64) {
    assert!(n_mantissa_bits <= 23);
    let dropped = 23 - n_mantissa_bits;
    let mut max_rel = 0.0f64;
    // Deterministic low-discrepancy sweep over magnitudes and mantissas.
    let mut x = 1.234_567e-6_f64;
    for i in 0..samples {
        let a = (x * (1.0 + 0.618_033_99 * ((i % 89) as f64) / 89.0)) as f32;
        let b = (x * 3.7 * (1.0 + 0.414_213_56 * ((i % 97) as f64) / 97.0)) as f32;
        let ra = round_f32_mantissa(a, dropped);
        let rb = round_f32_mantissa(b, dropped);
        let exact = a as f64 * b as f64;
        let approx = ra as f64 * rb as f64;
        if exact != 0.0 {
            let rel = ((approx - exact) / exact).abs();
            if rel > max_rel {
                max_rel = rel;
            }
        }
        x *= 1.37;
        if x > 1.0e6 {
            x = 2.345_678e-6;
        }
    }
    // With n explicit mantissa bits the significand carries n+1 bits, so
    // each rounded input is perturbed by at most 2^-(n+1) relative — the
    // paper's 2^-n-1 with its n equal to our explicit bit count.
    (max_rel, product_relative_error_bound(n_mantissa_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_error_within_bound_bf16() {
        let (max_rel, bound) = measure_product_error(7, 4096);
        assert!(max_rel <= bound, "bf16: {max_rel} > {bound}");
        // And not absurdly loose: max observed should be within 100x.
        assert!(max_rel >= bound / 100.0, "bf16 bound far from tight: {max_rel} vs {bound}");
    }

    #[test]
    fn measured_error_within_bound_tf32() {
        let (max_rel, bound) = measure_product_error(10, 4096);
        assert!(max_rel <= bound, "tf32: {max_rel} > {bound}");
    }

    #[test]
    fn error_independent_of_magnitude() {
        // The §V-B claim: the relative product error does not depend on the
        // input magnitude. Compare small- and large-magnitude sweeps.
        let dropped = 23 - 7;
        let mut worst_small = 0.0f64;
        let mut worst_large = 0.0f64;
        for i in 0..2000 {
            let frac = 1.0 + (i as f32) / 2000.0; // mantissas in [1,2)
            for (scale, worst) in [(1e-12f32, &mut worst_small), (1e12f32, &mut worst_large)] {
                let a = frac * scale;
                let b = (2.0 - frac / 2.0) * scale;
                let ra = round_f32_mantissa(a, dropped);
                let rb = round_f32_mantissa(b, dropped);
                let exact = a as f64 * b as f64;
                let rel = ((ra as f64 * rb as f64 - exact) / exact).abs();
                if rel > *worst {
                    *worst = rel;
                }
            }
        }
        let ratio = worst_small / worst_large;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "magnitude dependence detected: small={worst_small} large={worst_large}"
        );
    }

    #[test]
    fn bound_shrinks_exponentially() {
        let b8 = product_relative_error_bound(8);
        let b16 = product_relative_error_bound(16);
        let b24 = product_relative_error_bound(24);
        assert!(b8 / b16 > 200.0 && b16 / b24 > 200.0);
    }
}
