//! Hermitian rank-k updates (`CHERK`/`ZHERK`).
//!
//! The subspace projections DCMESH builds (`S = Ψ†Ψ`, `W = R†R`) are
//! Hermitian by construction, so only one triangle is computed and the
//! other mirrored: a rank-k update is the [`crate::gemm`] product
//! `A·A†` / `A†·A` run with an [`Uplo`] tile filter. `herk` honours the
//! same compute modes as `gemm` (it is a level-3 routine), and guarantees
//! an exactly Hermitian result with a real diagonal — which the
//! eigensolver downstream appreciates.
//!
//! A rank-k update enters [`gemm_call`] as itself: one call counted, one
//! record, one ABFT sample, and fault injection, the non-finite probe and
//! the checksum all see the mirrored `n × n` output under the routine's
//! own name. Its scratch comes from the thread-local
//! [`crate::workspace`] pool like every other product's.

use crate::gemm::{gemm_call, GemmArgs};
use crate::layout::{Op, Uplo};
use dcmesh_numerics::{Complex, Real, C32, C64};

/// Single-precision complex Hermitian rank-k update:
///
/// * `trans = Op::None`:      `C ← α·A·A† + β·C` with `A: n × k`
/// * `trans = Op::ConjTrans`: `C ← α·A†·A + β·C` with `A: k × n`
///
/// `alpha`/`beta` are real (BLAS herk semantics); `C` is `n × n` and its
/// imaginary diagonal is forced to zero, as the standard requires. With
/// `β ≠ 0`, `C` must arrive holding both triangles, as it is returned.
#[allow(clippy::too_many_arguments)]
pub fn cherk(
    uplo: Uplo,
    trans: Op,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[C32],
    lda: usize,
    beta: f32,
    c: &mut [C32],
    ldc: usize,
) {
    gemm_call("CHERK", &herk_args(uplo, trans, n, k, alpha, a, lda, beta, ldc), c);
}

/// Double-precision complex Hermitian rank-k update (see [`cherk`]).
#[allow(clippy::too_many_arguments)]
pub fn zherk(
    uplo: Uplo,
    trans: Op,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[C64],
    lda: usize,
    beta: f64,
    c: &mut [C64],
    ldc: usize,
) {
    gemm_call("ZHERK", &herk_args(uplo, trans, n, k, alpha, a, lda, beta, ldc), c);
}

/// A rank-k update as the triangle-filtered product it is: `B = A`, one
/// side conjugate-transposed, and the Hermitian contract enforced
/// exactly on the diagonal.
#[allow(clippy::too_many_arguments)]
fn herk_args<T: Real>(
    uplo: Uplo,
    trans: Op,
    n: usize,
    k: usize,
    alpha: T,
    a: &[Complex<T>],
    lda: usize,
    beta: T,
    ldc: usize,
) -> GemmArgs<'_, Complex<T>> {
    let (transa, transb) = match trans {
        Op::None => (Op::None, Op::ConjTrans),
        Op::ConjTrans => (Op::ConjTrans, Op::None),
        Op::Trans => panic!("herk trans must be N or C (Op::Trans is the *symmetric* update)"),
    };
    let (alpha, beta) = (Complex::from_real(alpha), Complex::from_real(beta));
    let (m, b, ldb, uplo, real_diag) = (n, a, lda, Some(uplo), true);
    GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::with_compute_mode;
    use crate::mode::ComputeMode;
    use dcmesh_numerics::c32;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_c32(rng: &mut StdRng, len: usize) -> Vec<C32> {
        (0..len).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn aha_is_hermitian_psd() {
        let mut rng = StdRng::seed_from_u64(1);
        let (n, k) = (6, 20);
        let a = rand_c32(&mut rng, k * n); // A: k x n, use A†A
        let mut c = vec![C32::zero(); n * n];
        with_compute_mode(ComputeMode::Standard, || {
            cherk(Uplo::Upper, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
        });
        for i in 0..n {
            assert_eq!(c[i * n + i].im, 0.0, "diagonal must be real");
            assert!(c[i * n + i].re >= 0.0, "A†A diagonal must be non-negative");
            for j in 0..n {
                let d = (c[i * n + j] - c[j * n + i].conj()).abs();
                assert_eq!(d, 0.0, "exact Hermitian symmetry required");
            }
        }
    }

    #[test]
    fn matches_explicit_gemm() {
        let mut rng = StdRng::seed_from_u64(2);
        let (n, k) = (5, 12);
        let a = rand_c32(&mut rng, n * k); // A: n x k, use A·A†
        let mut c_herk = vec![C32::zero(); n * n];
        let mut c_gemm = vec![C32::zero(); n * n];
        with_compute_mode(ComputeMode::Standard, || {
            cherk(Uplo::Lower, Op::None, n, k, 2.0, &a, k, 0.0, &mut c_herk, n);
            crate::gemm::cgemm(
                Op::None,
                Op::ConjTrans,
                n,
                n,
                k,
                c32(2.0, 0.0),
                &a,
                k,
                &a,
                k,
                C32::zero(),
                &mut c_gemm,
                n,
            );
        });
        for (x, y) in c_herk.iter().zip(&c_gemm) {
            assert!((x.to_c64() - y.to_c64()).abs() < 1e-5, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn beta_accumulates_hermitian_part() {
        let n = 3;
        let a = vec![c32(1.0, 0.0), c32(0.0, 1.0), c32(1.0, 1.0)]; // 1 x 3 (k=1)
        let mut c = vec![C32::zero(); n * n];
        for i in 0..n {
            c[i * n + i] = c32(10.0, 0.0);
        }
        with_compute_mode(ComputeMode::Standard, || {
            cherk(Uplo::Upper, Op::ConjTrans, n, 1, 1.0, &a, n, 1.0, &mut c, n);
        });
        assert_eq!(c[0], c32(11.0, 0.0)); // 10 + |1|²
        assert_eq!(c[4], c32(11.0, 0.0)); // 10 + |i|²
        assert_eq!(c[8], c32(12.0, 0.0)); // 10 + |1+i|²
    }

    #[test]
    fn honours_compute_modes() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, k) = (8, 64);
        let a = rand_c32(&mut rng, k * n);
        let run = |mode| {
            let mut c = vec![C32::zero(); n * n];
            with_compute_mode(mode, || {
                cherk(Uplo::Upper, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
            });
            c
        };
        let std = run(ComputeMode::Standard);
        let bf = run(ComputeMode::FloatToBf16);
        let max_d = std
            .iter()
            .zip(&bf)
            .map(|(x, y)| (x.to_c64() - y.to_c64()).abs())
            .fold(0.0, f64::max);
        assert!(max_d > 0.0, "BF16 mode ignored by cherk");
        assert!(max_d < 0.5, "BF16 cherk error implausible: {max_d}");
    }

    #[test]
    fn zherk_matches_f64_reference() {
        let n = 4;
        let k = 7;
        let a: Vec<C64> = (0..k * n)
            .map(|i| dcmesh_numerics::c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut c = vec![C64::zero(); n * n];
        with_compute_mode(ComputeMode::Standard, || {
            zherk(Uplo::Upper, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
        });
        for i in 0..n {
            for j in 0..n {
                let mut s = C64::zero();
                for kk in 0..k {
                    s += a[kk * n + i].conj() * a[kk * n + j];
                }
                assert!((c[i * n + j] - s).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "herk trans")]
    fn plain_transpose_rejected() {
        let a = vec![C32::zero(); 4];
        let mut c = vec![C32::zero(); 4];
        cherk(Uplo::Upper, Op::Trans, 2, 2, 1.0, &a, 2, 0.0, &mut c, 2);
    }
}
