//! Level-2 BLAS: matrix–vector products.
//!
//! DCMESH's per-orbital operations (applying the subspace phase matrix to
//! a single orbital's coefficient vector, projecting one wave function)
//! are GEMV-shaped. Level-2 routines are bandwidth-bound, so oneMKL's
//! alternative compute modes do not accelerate them — like oneMKL, these
//! run at native precision regardless of the compute mode, and the
//! verbose log records them with `mode = STANDARD`. For the same reason
//! they never touch the [`crate::workspace`] pool: the kernels stream
//! straight from the caller's matrix with no low-precision scratch to
//! materialise.

use crate::device::{Domain, GemmDesc};
use crate::layout::{check_matrix, Op};
use crate::mode::ComputeMode;
use crate::verbose::observe;
use dcmesh_numerics::{Complex, Real, C32, C64};

/// `y ← α·op(A)·x + β·y` for a real matrix.
#[allow(clippy::too_many_arguments)]
pub fn sgemv(
    trans: Op,
    m: usize,
    n: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    x: &[f32],
    beta: f32,
    y: &mut [f32],
) {
    let desc = gemv_desc(Domain::Real32, trans, m, n);
    observe("SGEMV", trans, Op::None, desc, || {
        gemv_real(trans, m, n, alpha, a, lda, x, beta, y);
    });
}

/// `y ← α·op(A)·x + β·y` for a double-precision matrix.
#[allow(clippy::too_many_arguments)]
pub fn dgemv(
    trans: Op,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    let desc = gemv_desc(Domain::Real64, trans, m, n);
    observe("DGEMV", trans, Op::None, desc, || {
        gemv_real(trans, m, n, alpha, a, lda, x, beta, y);
    });
}

/// `y ← α·op(A)·x + β·y` for a complex single-precision matrix.
#[allow(clippy::too_many_arguments)]
pub fn cgemv(
    trans: Op,
    m: usize,
    n: usize,
    alpha: C32,
    a: &[C32],
    lda: usize,
    x: &[C32],
    beta: C32,
    y: &mut [C32],
) {
    let desc = gemv_desc(Domain::Complex32, trans, m, n);
    observe("CGEMV", trans, Op::None, desc, || {
        gemv_complex(trans, m, n, alpha, a, lda, x, beta, y);
    });
}

/// `y ← α·op(A)·x + β·y` for a complex double-precision matrix.
#[allow(clippy::too_many_arguments)]
pub fn zgemv(
    trans: Op,
    m: usize,
    n: usize,
    alpha: C64,
    a: &[C64],
    lda: usize,
    x: &[C64],
    beta: C64,
    y: &mut [C64],
) {
    let desc = gemv_desc(Domain::Complex64, trans, m, n);
    observe("ZGEMV", trans, Op::None, desc, || {
        gemv_complex(trans, m, n, alpha, a, lda, x, beta, y);
    });
}

fn gemv_desc(domain: Domain, trans: Op, m: usize, n: usize) -> GemmDesc {
    let (rows, cols) = trans.applied_shape(m, n);
    // A GEMV is a GEMM with n = 1; level-2 is mode-exempt.
    GemmDesc { domain, m: rows, n: 1, k: cols, mode: ComputeMode::Standard }
}

/// Expected x/y lengths for the stored `m × n` matrix under `trans`.
fn xy_lens(trans: Op, m: usize, n: usize) -> (usize, usize) {
    match trans {
        Op::None => (n, m),
        Op::Trans | Op::ConjTrans => (m, n),
    }
}

#[allow(clippy::too_many_arguments)]
fn gemv_real<T: Real>(
    trans: Op,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    check_matrix("A", m, n, lda, a.len());
    let (xl, yl) = xy_lens(trans, m, n);
    assert_eq!(x.len(), xl, "x length");
    assert_eq!(y.len(), yl, "y length");
    for (i, yv) in y.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        match trans {
            Op::None => {
                let row = &a[i * lda..i * lda + n];
                for (av, &xv) in row.iter().zip(x) {
                    acc += *av * xv;
                }
            }
            Op::Trans | Op::ConjTrans => {
                for (k, &xv) in x.iter().enumerate() {
                    acc += a[k * lda + i] * xv;
                }
            }
        }
        *yv = if beta == T::ZERO { alpha * acc } else { alpha * acc + beta * *yv };
    }
}

#[allow(clippy::too_many_arguments)]
fn gemv_complex<T: Real>(
    trans: Op,
    m: usize,
    n: usize,
    alpha: Complex<T>,
    a: &[Complex<T>],
    lda: usize,
    x: &[Complex<T>],
    beta: Complex<T>,
    y: &mut [Complex<T>],
) {
    check_matrix("A", m, n, lda, a.len());
    let (xl, yl) = xy_lens(trans, m, n);
    assert_eq!(x.len(), xl, "x length");
    assert_eq!(y.len(), yl, "y length");
    for (i, yv) in y.iter_mut().enumerate() {
        let mut acc = Complex::<T>::zero();
        match trans {
            Op::None => {
                let row = &a[i * lda..i * lda + n];
                for (av, &xv) in row.iter().zip(x) {
                    acc += av.mul_4m(xv);
                }
            }
            Op::Trans => {
                for (k, &xv) in x.iter().enumerate() {
                    acc += a[k * lda + i].mul_4m(xv);
                }
            }
            Op::ConjTrans => {
                for (k, &xv) in x.iter().enumerate() {
                    acc += a[k * lda + i].conj().mul_4m(xv);
                }
            }
        }
        let scaled = alpha.mul_4m(acc);
        *yv = if beta == Complex::zero() { scaled } else { scaled + beta.mul_4m(*yv) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::with_compute_mode;
    use dcmesh_numerics::c32;

    #[test]
    fn sgemv_matches_manual() {
        // A = [1 2; 3 4; 5 6] (3x2), x = [1, -1].
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0f32, -1.0];
        let mut y = [10.0f32, 10.0, 10.0];
        sgemv(Op::None, 3, 2, 2.0, &a, 2, &x, 1.0, &mut y);
        assert_eq!(y, [8.0, 8.0, 8.0]); // 2*(-1)+10, 2*(-1)+10, 2*(-1)+10
    }

    #[test]
    fn transpose_gemv() {
        let a = [1.0f64, 2.0, 3.0, 4.0]; // 2x2
        let x = [1.0f64, 1.0];
        let mut y = [0.0f64, 0.0];
        dgemv(Op::Trans, 2, 2, 1.0, &a, 2, &x, 0.0, &mut y);
        assert_eq!(y, [4.0, 6.0]); // columns summed
    }

    #[test]
    fn conj_trans_conjugates() {
        let a = [c32(0.0, 1.0)]; // 1x1 = i
        let x = [c32(1.0, 0.0)];
        let mut y = [C32::zero()];
        cgemv(Op::ConjTrans, 1, 1, C32::one(), &a, 1, &x, C32::zero(), &mut y);
        assert_eq!(y[0], c32(0.0, -1.0));
    }

    #[test]
    fn gemv_ignores_compute_mode() {
        // Level-2 is mode-exempt: results identical in BF16 mode.
        let a: Vec<C32> = (0..12).map(|i| c32(i as f32 * 0.371, -0.5 + i as f32 * 0.11)).collect();
        let x: Vec<C32> = (0..4).map(|i| c32(0.3 - i as f32 * 0.07, i as f32 * 0.05)).collect();
        let run = |mode| {
            let mut y = vec![C32::zero(); 3];
            with_compute_mode(mode, || {
                cgemv(Op::None, 3, 4, C32::one(), &a, 4, &x, C32::zero(), &mut y);
            });
            y
        };
        assert_eq!(run(ComputeMode::Standard), run(ComputeMode::FloatToBf16));
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = [1.0f32];
        let x = [2.0f32];
        let mut y = [f32::NAN];
        sgemv(Op::None, 1, 1, 1.0, &a, 1, &x, 0.0, &mut y);
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn gemv_matches_gemm_column() {
        // GEMV must agree with GEMM at n=1.
        let m = 5;
        let k = 7;
        let a: Vec<C32> = (0..m * k).map(|i| c32((i as f32).sin(), (i as f32).cos())).collect();
        let x: Vec<C32> = (0..k).map(|i| c32(0.1 * i as f32, -0.2)).collect();
        let mut y_gemv = vec![C32::zero(); m];
        let mut y_gemm = vec![C32::zero(); m];
        with_compute_mode(ComputeMode::Standard, || {
            cgemv(Op::None, m, k, C32::one(), &a, k, &x, C32::zero(), &mut y_gemv);
            crate::gemm::cgemm(
                Op::None,
                Op::None,
                m,
                1,
                k,
                C32::one(),
                &a,
                k,
                &x,
                1,
                C32::zero(),
                &mut y_gemm,
                1,
            );
        });
        for (a, b) in y_gemv.iter().zip(&y_gemm) {
            assert!((a.to_c64() - b.to_c64()).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_vector_length_panics() {
        let a = [1.0f32, 2.0];
        let x = [1.0f32];
        let mut y = [0.0f32];
        sgemv(Op::None, 1, 2, 1.0, &a, 2, &x, 0.0, &mut y);
    }
}
