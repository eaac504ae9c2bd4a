//! Low-precision (systolic-emulated) real GEMM paths.
//!
//! In the `FLOAT_TO_*` modes, oneMKL converts FP32 inputs to BF16/TF32
//! component matrices, multiplies the components on the XMX systolic
//! arrays and accumulates in FP32. Because BF16×BF16 and TF32×TF32
//! products are *exactly representable* in `f32` (8+8 and 11+11 significand
//! bits both fit in 24), running the component products through the regular
//! `f32` kernel reproduces the hardware arithmetic faithfully — the only
//! freedom left is summation order, which BLAS never specifies anyway.
//!
//! A mode splits its inputs into `d` terms (`ComputeMode::systolic`) and
//! covers the component products `AᵢBⱼ` with `i + j < d` (subscripts are
//! split-term indices, 0 = leading; term `(i, j)` weighs ~`2^{-8(i+j)}`):
//!
//! * BF16 (`d = 1`):   A₀B₀
//! * BF16x2 (`d = 2`): A₀B₀ + A₀B₁ + A₁B₀            (3 of 4; drops A₁B₁ ~ 2⁻¹⁶)
//! * BF16x3 (`d = 3`): A₀B₀ + A₀B₁ + A₁B₀ + A₀B₂ + A₁B₁ + A₂B₀
//!   (6 of 9; dropped terms are ~2⁻²⁴ and below)
//! * TF32 (`d = 1`):   A₀B₀ with TF32 rounding
//!
//! Execution does *not* run one GEMM pass per covered term. Following the
//! cascaded-GEMM regrouping, the B operand is packed as partial-sum
//! planes `BSₜ = fl(Σ_{j ≤ d-1-t} bⱼ)` and only the `d` diagonal products
//! `Aₜ·BSₜ` run (see the `pack` module docs and `kernel::Product`, whose
//! `depth` is exactly these diagonals): the same covered term set in `d`
//! kernel passes, with all passes sharing one packed buffer set and one
//! FP32 register accumulator per C tile. The partial-sum rounding
//! perturbs each covered term by ≤ 2⁻²⁴ relative — below every mode's
//! split-residual floor, as the error-ordering tests pin down.

use super::kernel::{real_product, Exec};
use super::pack::OpSrc;
use crate::mode::ComputeMode;

/// The `(a_component, b_component)` products *covered* by a split of
/// `depth` terms, `{(i, j) : i + j < depth}`, in decreasing order of
/// magnitude. This is the mathematical contract of each mode; the
/// executed products are the `depth` cascade diagonals.
pub fn product_terms(depth: usize) -> Vec<(usize, usize)> {
    (0..depth).flat_map(|weight| (0..=weight).map(move |i| (i, weight - i))).collect()
}

/// `acc += A · B` computed in the given low-precision mode.
///
/// `a` is dense `m × k`, `b` dense `k × n`, `acc` dense `m × n`; all
/// row-major without padding. Rounding and splitting happen inside the
/// pack step of the blocked kernel, so every source element is converted
/// exactly once per k-block and all product terms read the same packed
/// planes. All scratch comes from the thread-local workspace pool.
/// `Standard` and `Complex3m` run native FP32 element arithmetic (3M only
/// changes the complex product structure, a level above).
pub fn matmul_acc_lowp(
    mode: ComputeMode,
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(acc.len(), m * n, "C shape mismatch");
    let (a, b) = (OpSrc::dense_a(a, k), OpSrc::dense_b(b, n));
    real_product(mode, &a, &b, acc, m, n, k, Exec::host());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::kernel::matmul_reference;
    use dcmesh_numerics::split::{split_slice_into, MAX_SPLIT_DEPTH};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(0.1..1.0f32)).collect()
    }

    /// Max relative elementwise error of `mode` vs the f64 exact product.
    fn mode_error(mode: ComputeMode, m: usize, n: usize, k: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(&mut rng, m * k);
        let b = random(&mut rng, k * n);
        let a64: Vec<f64> = a.iter().map(|&x| x as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&x| x as f64).collect();
        let exact = matmul_reference(&a64, &b64, m, n, k);
        let mut acc = vec![0.0f32; m * n];
        matmul_acc_lowp(mode, &a, &b, &mut acc, m, n, k);
        acc.iter()
            .zip(&exact)
            .map(|(&x, &y)| ((x as f64 - y) / y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn standard_mode_is_plain_f32() {
        let err = mode_error(ComputeMode::Standard, 16, 16, 32, 3);
        assert!(err < 1e-5, "fp32 err {err}");
    }

    #[test]
    fn error_ordering_bf16_tf32_x2_x3() {
        // Positive inputs => no cancellation => §V-B bound applies and the
        // mode ordering must be strict.
        let (m, n, k) = (24, 24, 64);
        let e_bf16 = mode_error(ComputeMode::FloatToBf16, m, n, k, 7);
        let e_tf32 = mode_error(ComputeMode::FloatToTf32, m, n, k, 7);
        let e_x2 = mode_error(ComputeMode::FloatToBf16x2, m, n, k, 7);
        let e_x3 = mode_error(ComputeMode::FloatToBf16x3, m, n, k, 7);
        assert!(e_bf16 > e_tf32, "bf16 {e_bf16} vs tf32 {e_tf32}");
        assert!(e_tf32 > e_x2, "tf32 {e_tf32} vs x2 {e_x2}");
        assert!(e_x2 > e_x3, "x2 {e_x2} vs x3 {e_x3}");
        // And the absolute levels sit near the §V-B predictions.
        assert!(e_bf16 < 2f64.powi(-6), "bf16 too wrong: {e_bf16}");
        assert!(e_x3 < 1e-5, "x3 must be f32-class: {e_x3}");
    }

    #[test]
    fn bf16_error_independent_of_matrix_size() {
        // The paper's §V-B claim, verified on the real GEMM path: relative
        // error does not grow with k for sign-uniform data.
        let e_small = mode_error(ComputeMode::FloatToBf16, 8, 8, 16, 11);
        let e_large = mode_error(ComputeMode::FloatToBf16, 8, 8, 1024, 11);
        assert!(
            e_large < e_small * 4.0,
            "bf16 error grew with k: {e_small} -> {e_large}"
        );
    }

    #[test]
    fn split_products_match_documented_counts() {
        assert_eq!(product_terms(1).len(), 1);
        assert_eq!(product_terms(2).len(), 3);
        assert_eq!(product_terms(3).len(), 6);
        for mode in ComputeMode::ALL {
            if let Some(depth) = mode.split_depth() {
                assert_eq!(product_terms(depth).len(), mode.component_products(), "{mode:?}");
            }
        }
        for depth in 1..=MAX_SPLIT_DEPTH {
            let terms = product_terms(depth);
            assert!(terms.iter().all(|&(i, j)| i + j < depth), "depth {depth}: {terms:?}");
            // Magnitude ordering: term (i, j) has weight ~2^{-8(i+j)}.
            let weights: Vec<usize> = terms.iter().map(|&(i, j)| i + j).collect();
            let mut sorted = weights.clone();
            sorted.sort_unstable();
            assert_eq!(weights, sorted, "terms must be in decreasing magnitude order");
        }
    }

    #[test]
    fn cascade_agrees_with_per_term_reference() {
        // The executed diagonal products over cascaded B planes must agree
        // with literally running every covered term as its own product
        // pass, up to the 2⁻²⁴-relative partial-sum rounding.
        let (m, n, k) = (9, 13, 40);
        let mut rng = StdRng::seed_from_u64(21);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
            let depth = mode.split_depth().unwrap();
            let split = |src: &[f32]| {
                let mut planes = vec![vec![0.0f32; src.len()]; depth];
                let mut views: Vec<&mut [f32]> = planes.iter_mut().map(|p| &mut p[..]).collect();
                split_slice_into(src, &mut views);
                planes
            };
            let ap = split(&a);
            let bp = split(&b);
            // Term-by-term reference in f64 (summation-order differences
            // are below the comparison tolerance).
            let mut reference = vec![0.0f64; m * n];
            for (ia, ib) in product_terms(depth) {
                let a64: Vec<f64> = ap[ia].iter().map(|&x| x as f64).collect();
                let b64: Vec<f64> = bp[ib].iter().map(|&x| x as f64).collect();
                for (r, p) in reference.iter_mut().zip(matmul_reference(&a64, &b64, m, n, k)) {
                    *r += p;
                }
            }
            let mut acc = vec![0.0f32; m * n];
            matmul_acc_lowp(mode, &a, &b, &mut acc, m, n, k);
            for (i, (&x, &y)) in acc.iter().zip(&reference).enumerate() {
                let tol = 2f64.powi(-14) * (1.0 + y.abs());
                assert!(
                    ((x as f64) - y).abs() < tol,
                    "{mode:?} i={i}: cascade {x} vs per-term {y}"
                );
            }
        }
    }

    #[test]
    fn split_modes_propagate_nonfinite() {
        // A zero row of A times an Inf in B must still produce NaN through
        // the split-plane cascade (0·Inf), and a nonzero row must surface
        // the Inf itself — in every split mode.
        let (m, n, k) = (2, 3, 4);
        let mut a = vec![0.5f32; m * k];
        for v in &mut a[k..] {
            *v = 0.0; // row 1 all zero
        }
        for mode in [
            ComputeMode::FloatToBf16,
            ComputeMode::FloatToTf32,
            ComputeMode::FloatToBf16x2,
            ComputeMode::FloatToBf16x3,
        ] {
            for bad in [f32::INFINITY, f32::NAN] {
                let mut b = vec![1.0f32; k * n];
                b[n + 2] = bad;
                let mut acc = vec![0.0f32; m * n];
                matmul_acc_lowp(mode, &a, &b, &mut acc, m, n, k);
                assert!(
                    !acc[2].is_finite(),
                    "{mode:?}: nonzero row lost {bad} (got {})",
                    acc[2]
                );
                assert!(
                    acc[n + 2].is_nan(),
                    "{mode:?}: zero row × {bad} must be NaN, got {}",
                    acc[n + 2]
                );
                assert!(acc[0].is_finite(), "{mode:?}: finite column corrupted");
            }
        }
    }

    #[test]
    fn nonfinite_in_a_propagates_through_splits() {
        // Inf/NaN on the A side: the raw split planes carry the value in
        // plane 0 with zeroed corrections; products must surface it.
        let (m, n, k) = (2, 2, 3);
        for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
            for bad in [f32::INFINITY, f32::NAN] {
                let mut a = vec![1.0f32; m * k];
                a[1] = bad; // row 0
                let b = vec![1.0f32; k * n];
                let mut acc = vec![0.0f32; m * n];
                matmul_acc_lowp(mode, &a, &b, &mut acc, m, n, k);
                assert!(!acc[0].is_finite(), "{mode:?}: {bad} in A lost ({})", acc[0]);
                assert!(acc[n].is_finite(), "{mode:?}: clean row corrupted");
            }
        }
    }

    #[test]
    fn bf16_exact_for_bf16_inputs() {
        // Inputs already representable in BF16 suffer no conversion loss,
        // and products/accumulation are exact in f32 for small k.
        let a = vec![1.5f32, 2.0, 0.25, 3.0];
        let b = vec![0.5f32, 1.0, 2.0, 4.0];
        let mut acc = vec![0.0f32; 4];
        matmul_acc_lowp(ComputeMode::FloatToBf16, &a, &b, &mut acc, 2, 2, 2);
        let exact = matmul_reference(&a, &b, 2, 2, 2);
        assert_eq!(acc, exact);
    }
}
