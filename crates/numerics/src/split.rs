//! Split-precision decomposition of `f32` into sums of BF16 terms.
//!
//! oneMKL's `FLOAT_TO_BF16` / `FLOAT_TO_BF16X2` / `FLOAT_TO_BF16X3` modes
//! are one scheme at split depth `d = 1, 2, 3`: each single-precision
//! input becomes a sum of `d` bfloat16 values, each term the rounding of
//! what the earlier ones left over,
//!
//! ```text
//! x ≈ t₀ + t₁ + … + t_{d-1},   t₀ = bf16(x),   tᵢ = bf16(x − t₀ − … − t_{i-1})
//! ```
//!
//! Each extra term recovers roughly 8 more mantissa bits, so the three-term
//! split carries ~24 bits — comparable to a full `f32` mantissa — which is
//! why the paper observes BF16x3 accuracy "comparable to standard
//! single-precision arithmetic". A GEMM on split inputs multiplies the
//! component matrices pairwise on the systolic arrays and accumulates in
//! FP32, keeping the `d(d+1)/2` products `AᵢBⱼ` with `i + j < d` — hence
//! the (16/3)x and (8/3)x theoretical speedups in paper Table II.

use crate::bf16::Bf16;
use crate::format;

/// The deepest split any compute mode runs (`FLOAT_TO_BF16X3`): it sizes
/// the GEMM kernel's per-product term list and the chunked slice split.
pub const MAX_SPLIT_DEPTH: usize = 3;

/// Splits `x` into `D` BF16 terms, leading term first; every term is
/// BF16-representable and stored as an `f32`.
#[inline(always)]
pub fn split<const D: usize>(x: f32) -> [f32; D] {
    split_by(x, Bf16::round_f32)
}

/// [`split`] into the terms of any format whose round-to-nearest is
/// `round` (`Tf32::round_f32` for TF32). The residuals are formed in
/// `f32`, left to right: `r₀ = x`, `tᵢ = round(rᵢ)`, `rᵢ₊₁ = rᵢ − tᵢ`. A
/// non-finite leading term (Inf, NaN, or a finite `x` that rounds to Inf)
/// gets zero corrections, so the value rides in the leading term alone.
#[inline(always)]
pub fn split_by<const D: usize>(x: f32, round: impl Fn(f32) -> f32) -> [f32; D] {
    const { assert!(D >= 1, "a split has at least one term") };
    let mut t = [0.0; D];
    t[0] = round(x);
    if t[0].is_finite() {
        let mut r = x;
        for i in 1..D {
            r -= t[i - 1];
            t[i] = round(r);
        }
    }
    t
}

/// Elements per rayon task in the chunk-parallel quantisation paths
/// ([`split_slice_into`], `bf16::round_slice_into`).
/// 16Ki elements (64 KiB of `f32`) amortises task overhead while keeping
/// enough chunks to load-balance the large Table VII operands.
pub const PAR_CHUNK: usize = 1 << 14;

/// Decomposes `src` into `components.len()` BF16 term planes — plane `t`
/// holds term `t` of [`split`] of each element — splitting the work over
/// rayon tasks.
///
/// A single fused pass computes all terms of each element at once. The
/// terms of a shallower split are the leading terms of a deeper one, so
/// every depth takes the [`MAX_SPLIT_DEPTH`] split and keeps the planes it
/// was given. Each rayon task owns the same-index chunk of every plane:
/// disjoint writes, race-free.
pub fn split_slice_into(src: &[f32], components: &mut [&mut [f32]]) {
    use rayon::prelude::*;
    let depth = components.len();
    assert!(
        (1..=MAX_SPLIT_DEPTH).contains(&depth),
        "split depth {depth} outside 1..={MAX_SPLIT_DEPTH}"
    );
    for c in components.iter() {
        assert_eq!(c.len(), src.len(), "component length mismatch");
    }
    let mut tasks: Vec<Vec<&mut [f32]>> = src.chunks(PAR_CHUNK).map(|_| Vec::new()).collect();
    for plane in components.iter_mut() {
        for (task, chunk) in tasks.iter_mut().zip(plane.chunks_mut(PAR_CHUNK)) {
            task.push(chunk);
        }
    }
    tasks.par_iter_mut().enumerate().for_each(|(ci, planes)| {
        for (i, &x) in src[ci * PAR_CHUNK..].iter().take(PAR_CHUNK).enumerate() {
            for (plane, term) in planes.iter_mut().zip(split::<MAX_SPLIT_DEPTH>(x)) {
                plane[i] = term;
            }
        }
    });
}

/// Worst-case relative representation error of a `depth`-term BF16 split,
/// ignoring denormals (§V-B of the paper: dropping all but `n` mantissa
/// bits induces at most a `2^{-n-1}` relative input perturbation): the
/// BF16 unit roundoff to the `depth`, `2^{-8·depth}`.
pub fn split_relative_error_bound(depth: usize) -> f32 {
    format::BF16.unit_roundoff().powi(depth as i32) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(x: f32, approx: f32) -> f32 {
        if x == 0.0 {
            approx.abs()
        } else {
            ((approx - x) / x).abs()
        }
    }

    #[test]
    fn split2_recovers_16_bits() {
        let vals = [core::f32::consts::PI, 0.1, -1234.5678, 3.77e-6, 8.9e12];
        for &x in &vals {
            let [hi, lo] = split::<2>(x);
            assert!(
                rel_err(x, hi + lo) <= split_relative_error_bound(2),
                "x={x} err={}",
                rel_err(x, hi + lo)
            );
        }
    }

    #[test]
    fn split3_is_near_exact_for_f32() {
        // Three BF16 terms carry >= 24 mantissa bits, so reconstruction is
        // exact for almost all f32 values (residual below half an f32 ulp).
        let vals = [core::f32::consts::E, -0.333_333_34, 99999.99, 1.0e-20];
        for &x in &vals {
            let [hi, mid, lo] = split::<3>(x);
            assert!(
                rel_err(x, hi + mid + lo) <= split_relative_error_bound(3),
                "x={x} hi={hi} mid={mid} lo={lo}"
            );
        }
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn splits_are_bf16_representable() {
        let x = 7.123_456_7e-3_f32;
        for (i, t) in split::<3>(x).into_iter().enumerate() {
            assert_eq!(Bf16::round_f32(t), t, "term {i} not bf16-exact");
        }
    }

    #[test]
    fn terms_decrease_in_magnitude() {
        let x = 1.234_567_8_f32;
        let [hi, mid, lo] = split::<3>(x);
        assert!(hi.abs() > mid.abs() || mid == 0.0);
        assert!(mid.abs() > lo.abs() || lo == 0.0);
    }

    #[test]
    fn exact_bf16_values_have_zero_tail() {
        let x = 1.5f32; // exactly representable in bf16
        assert_eq!(split::<3>(x), [1.5, 0.0, 0.0]);
    }

    #[test]
    fn infinity_split_has_zero_corrections() {
        let [hi, mid, lo] = split::<3>(f32::MAX); // rounds to +inf in bf16
        assert!(hi.is_infinite());
        assert_eq!((mid, lo), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "split depth")]
    fn zero_depth_panics() {
        split_slice_into(&[1.0], &mut []);
    }

    #[test]
    fn split_slice_into_matches_sequential() {
        // Length chosen to span several PAR_CHUNK boundaries would be slow
        // in a unit test; a ragged non-multiple length still exercises the
        // chunk-edge arithmetic. Include non-finite and huge values so the
        // saturation guard paths are compared too. The sequential side is
        // `split::<D>` element by element, at each depth's own `D`.
        let mut src: Vec<f32> = (0..PAR_CHUNK + 37)
            .map(|i| ((i * 29) as f32).sin() * 1e3 + (i as f32) * 1e-3)
            .collect();
        src[7] = f32::MAX; // rounds to +inf in bf16
        src[11] = f32::INFINITY;
        src[13] = -0.0;
        let seq: [Vec<Vec<f32>>; 3] = [
            src.iter().map(|&x| split::<1>(x).to_vec()).collect(),
            src.iter().map(|&x| split::<2>(x).to_vec()).collect(),
            src.iter().map(|&x| split::<3>(x).to_vec()).collect(),
        ];
        for (depth, seq) in (1..=MAX_SPLIT_DEPTH).zip(&seq) {
            let mut par: Vec<Vec<f32>> = (0..depth).map(|_| vec![9.9; src.len()]).collect();
            {
                let mut views: Vec<&mut [f32]> = par.iter_mut().map(|p| &mut p[..]).collect();
                split_slice_into(&src, &mut views);
            }
            for (c, p) in par.iter().enumerate() {
                for i in 0..src.len() {
                    assert!(
                        seq[i][c].to_bits() == p[i].to_bits(),
                        "depth {depth} component {c} element {i}: {} vs {}",
                        seq[i][c],
                        p[i]
                    );
                }
            }
        }
    }
}
