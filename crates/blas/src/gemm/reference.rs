//! Test-only reference for the fused complex driver: the structure it
//! replaced. `op()` and the complex planes are separated into dense
//! scratch first (`deinterleave_op`), then the complex product runs as
//! *independent* real GEMMs — per `KC`-deep k-block four of them, one
//! after the other (`Ar·Br` and `(−Ai)·Bi` into `Re`, `Ar·Bi` and `Ai·Br`
//! into `Im`), the subtraction through a negated copy of `Ai`; under
//! COMPLEX_3M three over the whole depth. The fused driver must reproduce
//! this bit for bit — it packs straight from the interleaved storage,
//! once per k-block, and shares that packed block between the products,
//! but every C element still sees the same (k-block, product, kk) order.

use super::kernel::{real_product, Exec, MicroArch, KC};
use super::pack::OpSrc;
use super::{stored_shapes, GemmArgs};
use crate::layout::{check_matrix, Op};
use crate::mode::ComputeMode;
use dcmesh_numerics::{Complex, Real};

/// Applies `op` and separates the complex planes in one pass: writes dense
/// (`ld = cols`-of-the-applied-shape) real and imaginary planes of `op(A)`
/// into `re` / `im`, which must each hold `as_rows * as_cols` elements.
/// `ConjTrans` negates the imaginary plane. Returns the applied shape.
pub(crate) fn deinterleave_op<T: Real>(
    op: Op,
    a: &[Complex<T>],
    as_rows: usize,
    as_cols: usize,
    lda: usize,
    re: &mut [T],
    im: &mut [T],
) -> (usize, usize) {
    check_matrix("A", as_rows, as_cols, lda, a.len());
    let (r, c) = op.applied_shape(as_rows, as_cols);
    assert_eq!(re.len(), r * c, "re plane length mismatch");
    assert_eq!(im.len(), r * c, "im plane length mismatch");
    for i in 0..as_rows {
        for j in 0..as_cols {
            let z = a[i * lda + j];
            let (at, im_v) = match op {
                Op::None => (i * as_cols + j, z.im),
                Op::Trans => (j * as_rows + i, z.im),
                Op::ConjTrans => (j * as_rows + i, -z.im),
            };
            re[at] = z.re;
            im[at] = im_v;
        }
    }
    (r, c)
}

/// Bit equality, with every NaN equal to every other: which operand's
/// payload an instruction propagates is not part of the contract.
pub(crate) fn same_bits<T: Real>(x: T, y: T) -> bool {
    let (x, y) = (x.to_f64(), y.to_f64());
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// One independent real GEMM `acc += a[:, ks]·b[ks, :]` in `mode` over
/// the depth slice `ks` of dense `m × k` / `k × n` operands.
fn real_gemm<T: MicroArch>(
    mode: ComputeMode,
    a: &[T],
    b: &[T],
    acc: &mut [T],
    (m, n, k): (usize, usize, usize),
    ks: core::ops::Range<usize>,
    exec: Exec<T>,
) {
    let (a, b) = (OpSrc::dense_a(&a[ks.start..], k), OpSrc::dense_b(&b[ks.start * n..], n));
    real_product(mode, &a, &b, acc, m, n, ks.len(), exec);
}

/// `C ← α·op(A)·op(B) + β·C` through the deinterleave-then-real-GEMMs
/// structure (same argument checks and α/β handling as the driver; the
/// full product, whatever `g.uplo` says).
pub(crate) fn complex_gemm<T: MicroArch>(
    mode: ComputeMode,
    g: &GemmArgs<'_, Complex<T>>,
    c: &mut [Complex<T>],
    exec: Exec<T>,
) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, .. } = *g;
    let ((ar, ac), (br, bc)) = stored_shapes(transa, transb, m, n, k);
    let dims = (m, n, k);
    let (mut are, mut aim) = (vec![T::ZERO; m * k], vec![T::ZERO; m * k]);
    deinterleave_op(transa, a, ar, ac, lda, &mut are, &mut aim);
    let (mut bre, mut bim) = (vec![T::ZERO; k * n], vec![T::ZERO; k * n]);
    deinterleave_op(transb, b, br, bc, ldb, &mut bre, &mut bim);

    let (mut pre, mut pim) = (vec![T::ZERO; m * n], vec![T::ZERO; m * n]);
    if mode == ComputeMode::Complex3m {
        // T1 = (Ar + Ai)·Br;  T2 = Ar·(Bi − Br);  T3 = Ai·(Br + Bi)
        let a_sum: Vec<T> = are.iter().zip(&aim).map(|(&r, &i)| r + i).collect();
        let b_diff: Vec<T> = bre.iter().zip(&bim).map(|(&r, &i)| i - r).collect();
        let b_sum: Vec<T> = bre.iter().zip(&bim).map(|(&r, &i)| r + i).collect();
        let (mut t1, mut t2, mut t3) = (pre.clone(), pre.clone(), pre.clone());
        real_gemm(mode, &a_sum, &bre, &mut t1, dims, 0..k, exec);
        real_gemm(mode, &are, &b_diff, &mut t2, dims, 0..k, exec);
        real_gemm(mode, &aim, &b_sum, &mut t3, dims, 0..k, exec);
        for (i, (p, q)) in pre.iter_mut().zip(pim.iter_mut()).enumerate() {
            *p = t1[i] - t3[i];
            *q = t1[i] + t2[i];
        }
    } else {
        // Per k-block: Re += Ar·Br ; Re += (−Ai)·Bi ; Im += Ar·Bi ;
        // Im += Ai·Br.
        let aim_neg: Vec<T> = aim.iter().map(|&x| -x).collect();
        for k0 in (0..k).step_by(KC) {
            let ks = k0..k.min(k0 + KC);
            real_gemm(mode, &are, &bre, &mut pre, dims, ks.clone(), exec);
            real_gemm(mode, &aim_neg, &bim, &mut pre, dims, ks.clone(), exec);
            real_gemm(mode, &are, &bim, &mut pim, dims, ks.clone(), exec);
            real_gemm(mode, &aim, &bre, &mut pim, dims, ks, exec);
        }
    }

    for i in 0..m {
        for (j, cv) in c[i * ldc..i * ldc + n].iter_mut().enumerate() {
            let p = Complex { re: pre[i * n + j], im: pim[i * n + j] };
            let ap = alpha.mul_4m(p);
            *cv = if beta == Complex::zero() { ap } else { ap + beta.mul_4m(*cv) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::c32;

    #[test]
    fn deinterleave_op_matches_materialize_then_deinterleave() {
        // 2x3 complex matrix with lda = 4 (one padding column), imaginary
        // part = -real part.
        let a = [
            c32(1.0, -1.0), c32(2.0, -2.0), c32(3.0, -3.0), c32(99.0, 99.0),
            c32(4.0, -4.0), c32(5.0, -5.0), c32(6.0, -6.0), c32(99.0, 99.0),
        ];
        // What materialising op(A) densely and then splitting its planes
        // gives, written out: (op, real plane, sign of the imaginary one).
        let as_stored = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let transposed = [1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0];
        for (op, want_re, im_sign) in [
            (Op::None, as_stored, -1.0f32),
            (Op::Trans, transposed, -1.0),
            (Op::ConjTrans, transposed, 1.0),
        ] {
            let (r, c) = op.applied_shape(2, 3);
            let mut re = vec![0.0f32; r * c];
            let mut im = vec![0.0f32; r * c];
            assert_eq!(deinterleave_op(op, &a, 2, 3, 4, &mut re, &mut im), (r, c));
            assert_eq!(re, want_re, "{op:?} re");
            assert_eq!(im, want_re.map(|v| im_sign * v), "{op:?} im");
        }
    }
}
