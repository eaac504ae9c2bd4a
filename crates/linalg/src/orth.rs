//! Orthonormalisation of wave-function column sets.
//!
//! QXMD's SCF refresh re-orthonormalises the propagated orbitals at FP64
//! before the Rayleigh–Ritz step. Two schemes are provided:
//!
//! * **Löwdin (symmetric) orthonormalisation** — `Ψ ← Ψ S^{-1/2}` with
//!   `S = Ψ†Ψ`; the unique orthonormal set closest to the input in the
//!   Frobenius sense, which is why quantum-dynamics codes prefer it (it
//!   perturbs the propagated state least). This is the boundary's path
//!   and it is level-3 BLAS end to end: `S` by `zherk` (one triangle
//!   computed, the other mirrored),
//!   `S^{-1/2} = (V·λ^{-1/2})·V†` by one n³ `zgemm`, and the apply by
//!   `zgemm` on row panels. [`overlap`], [`overlap_defect`] and
//!   [`inverse_sqrt`] are public so `scf_refresh` can fold the Löwdin
//!   factor into its Ritz rotation instead of applying it on its own.
//! * **Cholesky orthonormalisation** — `Ψ ← Ψ L^{-†}`; cheaper, not
//!   minimal-perturbation. Factor and triangular solve are scalar loops.
//!
//! Matrices are row-major `rows × cols`, orbitals stored as **columns**.
//!
//! Determinism: every product on the Löwdin path is a `mkl-lite` GEMM,
//! whose blocked accumulation order is fixed by the shape alone
//! (k-blocks, then the complex product's four real products, then the
//! packed microkernel's `kk` loop, multiply-add fused) whichever threads
//! run its tasks — so results are a function of the input bits, and
//! the same on every host whose GEMM runs a SIMD tile (the portable
//! fallback does not fuse and agrees to `k·ε`). They are *not* the bits
//! of the pre-level-3 code, which summed over `reduce`'s pairwise trees;
//! that order survives only in the `#[cfg(test)]` reference the tests
//! compare against.

use crate::cholesky::{cholesky_factor, trsm_right_lower_conjtrans};
use crate::hermitian::{try_eigh, EighError};
use dcmesh_numerics::C64;
use mkl_lite::{workspace, zgemm, zherk, Op, Uplo};
use std::fmt;

/// Why an orthonormalisation could not be performed.
///
/// A degenerate overlap matrix means the orbital set has already collapsed
/// — typically the footprint of accumulated low-precision error — so the
/// caller must treat it as a health violation (roll back, escalate the
/// compute mode), not paper over it.
#[derive(Clone, Debug, PartialEq)]
pub enum OrthError {
    /// The overlap matrix `S = A†A` is numerically singular: its smallest
    /// eigenvalue is below `1e-12` of the largest.
    SingularOverlap {
        /// Smallest eigenvalue of the overlap matrix.
        min_eigenvalue: f64,
        /// Largest eigenvalue of the overlap matrix.
        max_eigenvalue: f64,
    },
    /// The Cholesky factorisation found the overlap matrix not positive
    /// definite.
    NotPositiveDefinite {
        /// Description from the factorisation (pivot index and value).
        detail: String,
    },
    /// A subspace matrix could not be diagonalised: it holds a NaN or an
    /// infinity (so the orbitals do), or QL hit its iteration limit.
    Eigensolve(EighError),
    /// The column set an orthonormalisation produced is not orthonormal:
    /// its measured `|A†A − I|_max` is not finite or above the caller's
    /// ceiling. The inputs passed every check, so the arithmetic in
    /// between went wrong (a corrupted product).
    NotOrthonormal {
        /// The measured defect of the result.
        defect: f64,
    },
}

impl fmt::Display for OrthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrthError::SingularOverlap { min_eigenvalue, max_eigenvalue } => write!(
                f,
                "overlap matrix numerically singular (min ev {min_eigenvalue}, max ev {max_eigenvalue})"
            ),
            OrthError::NotPositiveDefinite { detail } => {
                write!(f, "overlap matrix not positive definite ({detail})")
            }
            OrthError::Eigensolve(e) => write!(f, "subspace eigensolve failed: {e}"),
            OrthError::NotOrthonormal { defect } => {
                write!(f, "orthonormalised set is not orthonormal (defect {defect:e})")
            }
        }
    }
}

impl std::error::Error for OrthError {}

impl From<EighError> for OrthError {
    fn from(e: EighError) -> Self {
        OrthError::Eigensolve(e)
    }
}

/// The overlap matrix `S = A†A` (`cols × cols`, exactly Hermitian with a
/// real diagonal) of a column set, by `zherk`.
pub fn overlap(a: &[C64], rows: usize, cols: usize) -> Vec<C64> {
    assert_eq!(a.len(), rows * cols, "overlap: shape mismatch");
    let mut s = vec![C64::zero(); cols * cols];
    if cols > 0 {
        zherk(Uplo::Upper, Op::ConjTrans, cols, rows, 1.0, a, cols, 0.0, &mut s, cols);
    }
    s
}

/// `|S − I|_max` of an overlap matrix.
pub fn overlap_defect(s: &[C64], cols: usize) -> f64 {
    let mut d = 0.0f64;
    for i in 0..cols {
        for j in 0..cols {
            let target = if i == j { C64::one() } else { C64::zero() };
            d = d.max((s[i * cols + j] - target).abs());
        }
    }
    d
}

/// `S^{-1/2} = (V·diag λ^{-1/2})·V†` of a Hermitian positive-definite
/// `n × n` matrix: one eigendecomposition and one n³ `zgemm`.
///
/// Fails with [`OrthError::SingularOverlap`] if the smallest eigenvalue
/// is below `1e-12` of the largest, and with [`OrthError::Eigensolve`] if
/// `s` is not finite.
pub fn inverse_sqrt(s: &[C64], n: usize) -> Result<Vec<C64>, OrthError> {
    let eig = try_eigh(s, n)?;
    let (Some(&min_ev), Some(&max_ev)) = (eig.eigenvalues.first(), eig.eigenvalues.last()) else {
        return Ok(Vec::new());
    };
    if min_ev <= 1e-12 * max_ev.max(1e-300) {
        return Err(OrthError::SingularOverlap { min_eigenvalue: min_ev, max_eigenvalue: max_ev });
    }
    let v = &eig.eigenvectors;
    let inv_sqrt: Vec<f64> = eig.eigenvalues.iter().map(|ev| 1.0 / ev.sqrt()).collect();
    let scaled: Vec<C64> =
        v.chunks_exact(n).flat_map(|row| row.iter().zip(&inv_sqrt).map(|(z, w)| z.scale(*w))).collect();
    let mut out = vec![C64::zero(); n * n];
    zgemm(Op::None, Op::ConjTrans, n, n, n, C64::one(), &scaled, n, v, n, C64::zero(), &mut out, n);
    Ok(out)
}

/// Rows of `a` multiplied per `zgemm` call by [`apply_right_in_place`]:
/// large enough that packing the `cols × cols` factor is under 1 % of a
/// panel's work, small enough that the output panel is a few hundred
/// KiB rather than a second copy of `a`.
const PANEL_ROWS: usize = 256;

/// `A ← A·T` for `T: cols × cols`, in place: each panel of rows goes
/// through `zgemm` into one pooled output panel and is copied back.
fn apply_right_in_place(a: &mut [C64], cols: usize, t: &[C64]) {
    let mut panel = workspace::take_scratch::<C64>((PANEL_ROWS * cols).min(a.len()));
    for rows in a.chunks_mut(PANEL_ROWS * cols) {
        let out = &mut panel[..rows.len()];
        let m = rows.len() / cols;
        zgemm(Op::None, Op::None, m, cols, cols, C64::one(), rows, cols, t, cols, C64::zero(), out, cols);
        rows.copy_from_slice(out);
    }
}

/// Löwdin symmetric orthonormalisation: `A ← A·S^{-1/2}`, `S = A†A`.
///
/// Fails with [`OrthError::SingularOverlap`] if the overlap matrix is
/// numerically singular (smallest eigenvalue below `1e-12` of the
/// largest): a collapsed orbital set indicates the propagation has already
/// failed, and the error carries the eigenvalue evidence so a supervisor
/// can roll back and escalate instead of crashing. A NaN or infinity in
/// `a` surfaces as [`OrthError::Eigensolve`]. On error `a` is left
/// unmodified.
pub fn lowdin_orthonormalize(a: &mut [C64], rows: usize, cols: usize) -> Result<(), OrthError> {
    assert_eq!(a.len(), rows * cols, "lowdin: shape mismatch");
    if cols == 0 {
        return Ok(());
    }
    let s_inv_half = inverse_sqrt(&overlap(a, rows, cols), cols)?;
    apply_right_in_place(a, cols, &s_inv_half);
    Ok(())
}

/// Cholesky orthonormalisation: `A ← A·L^{-†}` with `S = A†A = L·L†`.
///
/// Cheaper than Löwdin (one factorisation + triangular solve instead of
/// an eigendecomposition) and the usual production choice when the
/// minimal-perturbation property is not needed. Fails with
/// [`OrthError::NotPositiveDefinite`] if the overlap is not numerically
/// positive definite; `a` is left unmodified in that case.
pub fn cholesky_orthonormalize(a: &mut [C64], rows: usize, cols: usize) -> Result<(), OrthError> {
    assert_eq!(a.len(), rows * cols, "cholesky orth: shape mismatch");
    if cols == 0 {
        return Ok(());
    }
    let s = overlap(a, rows, cols);
    let l = cholesky_factor(&s, cols)
        .map_err(|e| OrthError::NotPositiveDefinite { detail: e.to_string() })?;
    trsm_right_lower_conjtrans(&l, cols, a, rows);
    Ok(())
}

/// Measures `|A†A − I|_max` of a column set — 0 for perfectly orthonormal.
pub fn orthonormality_defect(a: &[C64], rows: usize, cols: usize) -> f64 {
    overlap_defect(&overlap(a, rows, cols), cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::{c64, reduce};

    fn skewed_columns(rows: usize, cols: usize) -> Vec<C64> {
        let mut a = vec![C64::zero(); rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                let t = (i as f64 + 1.0) * (j as f64 + 1.0);
                a[i * cols + j] = c64((t * 0.37).sin() + 0.1, (t * 0.11).cos() * 0.3);
            }
        }
        a
    }

    #[test]
    fn lowdin_orthonormalises() {
        let (rows, cols) = (50, 8);
        let mut a = skewed_columns(rows, cols);
        lowdin_orthonormalize(&mut a, rows, cols).unwrap();
        assert!(orthonormality_defect(&a, rows, cols) < 1e-11);
    }

    /// The scalar Löwdin the level-3 path replaced: Jacobi eigenvectors,
    /// `S^{-1/2}` and the row-by-row apply summed over `reduce`'s trees.
    fn lowdin_reference(a: &mut [C64], rows: usize, cols: usize) -> (f64, f64) {
        let n = cols;
        let s = crate::ops::matmul_hermitian_left(a, a, n, rows, n);
        let eig = crate::hermitian::jacobi::eigh_jacobi(&s, n);
        let v = &eig.eigenvectors;
        let mut s_inv_half = vec![C64::zero(); n * n];
        for i in 0..n {
            for j in 0..n {
                s_inv_half[i * n + j] = reduce::sum_with(n, |k| {
                    let w = 1.0 / eig.eigenvalues[k].sqrt();
                    v[i * n + k].scale(w).mul_4m(v[j * n + k].conj())
                });
            }
        }
        let mut row_buf = vec![C64::zero(); n];
        for r in 0..rows {
            let row = &a[r * n..(r + 1) * n];
            for (j, out) in row_buf.iter_mut().enumerate() {
                *out = reduce::sum_with(n, |k| row[k].mul_4m(s_inv_half[k * n + j]));
            }
            a[r * n..(r + 1) * n].copy_from_slice(&row_buf);
        }
        (eig.eigenvalues[0], eig.eigenvalues[n - 1])
    }

    #[test]
    fn level3_lowdin_matches_the_scalar_reference() {
        // Shapes on both sides of one row panel; the last is the
        // scf-churn boundary's.
        for (rows, cols) in [(50usize, 8usize), (300, 5), (700, 24), (1728, 64)] {
            let a0 = skewed_columns(rows, cols);
            let mut want = a0.clone();
            let (min_ev, max_ev) = lowdin_reference(&mut want, rows, cols);
            let mut got = a0;
            lowdin_orthonormalize(&mut got, rows, cols).unwrap();
            assert!(orthonormality_defect(&got, rows, cols) < 1e-11, "{rows}x{cols}");
            // Both are A·S^{-1/2} with S^{-1/2} computed to n·ε relative
            // to its norm λ_min^{-1/2}; a row of A has entries O(1) that
            // combine to an output entry O(λ_max^{1/2}·λ_min^{-1/2}/√rows)
            // at most — so entries agree to n·ε·κ(S)^{1/2}.
            let bound = cols as f64 * f64::EPSILON * (max_ev / min_ev).sqrt();
            let diff = crate::ops::max_abs_diff(&got, &want);
            assert!(diff <= bound, "{rows}x{cols}: |Δ| {diff:e} over n·ε·√κ = {bound:e}");
        }
    }

    #[test]
    fn lowdin_rejects_non_finite_input_and_leaves_it_untouched() {
        let (rows, cols) = (40, 6);
        for poison in [f64::NAN, f64::INFINITY] {
            let mut a = skewed_columns(rows, cols);
            a[17].im = poison;
            let bits = |x: &[C64]| -> Vec<(u64, u64)> {
                x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            let before = bits(&a);
            let err = lowdin_orthonormalize(&mut a, rows, cols).unwrap_err();
            assert_eq!(err, OrthError::Eigensolve(crate::hermitian::EighError::NonFinite));
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert_eq!(bits(&a), before, "input must be untouched on error");
        }
    }

    #[test]
    fn lowdin_preserves_span() {
        // Orthonormalising [e1, e1 + 0.1 e2] must keep span{e1, e2}.
        let rows = 4;
        let cols = 2;
        let mut a = vec![C64::zero(); rows * cols];
        a[0] = c64(1.0, 0.0); // col 0 = e1
        a[1] = c64(1.0, 0.0); // col 1 = e1 + 0.1 e2
        a[cols + 1] = c64(0.1, 0.0);
        lowdin_orthonormalize(&mut a, rows, cols).unwrap();
        assert!(orthonormality_defect(&a, rows, cols) < 1e-12);
        // Rows 2, 3 (outside the span) stay zero.
        for i in 2..rows {
            for j in 0..cols {
                assert_eq!(a[i * cols + j], C64::zero());
            }
        }
    }

    #[test]
    fn lowdin_rejects_rank_deficient() {
        let rows = 6;
        let cols = 2;
        let mut a = vec![C64::zero(); rows * cols];
        for i in 0..rows {
            a[i * cols] = c64(1.0, 0.0);
            a[i * cols + 1] = c64(1.0, 0.0);
        }
        let before = a.clone();
        let err = lowdin_orthonormalize(&mut a, rows, cols).unwrap_err();
        match err {
            OrthError::SingularOverlap { min_eigenvalue, max_eigenvalue } => {
                assert!(min_eigenvalue <= 1e-12 * max_eigenvalue, "{min_eigenvalue} vs {max_eigenvalue}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(a, before, "input must be untouched on error");
        assert!(err.to_string().contains("singular"), "{err}");
    }

    #[test]
    fn cholesky_orthonormalises() {
        let (rows, cols) = (40, 7);
        let mut a = skewed_columns(rows, cols);
        cholesky_orthonormalize(&mut a, rows, cols).unwrap();
        assert!(orthonormality_defect(&a, rows, cols) < 1e-10);
    }

    #[test]
    fn cholesky_orth_preserves_span() {
        // Same span as Lowdin: project one result onto the other's
        // orthogonal complement -> zero.
        let (rows, cols) = (30, 4);
        let mut via_chol = skewed_columns(rows, cols);
        let mut via_lowdin = via_chol.clone();
        cholesky_orthonormalize(&mut via_chol, rows, cols).unwrap();
        lowdin_orthonormalize(&mut via_lowdin, rows, cols).unwrap();
        // Overlap matrix between the two bases must be unitary.
        let mut overlap = vec![C64::zero(); cols * cols];
        for i in 0..cols {
            for j in 0..cols {
                let mut s = C64::zero();
                for r in 0..rows {
                    s += via_chol[r * cols + i].conj().mul_4m(via_lowdin[r * cols + j]);
                }
                overlap[i * cols + j] = s;
            }
        }
        let defect = crate::ops::unitarity_defect(&overlap, cols);
        assert!(defect < 1e-10, "span differs: unitarity defect {defect}");
    }

    #[test]
    fn cholesky_orth_rejects_rank_deficient() {
        let rows = 6;
        let cols = 2;
        let mut a = vec![C64::zero(); rows * cols];
        for i in 0..rows {
            a[i * cols] = c64(1.0, 0.0);
            a[i * cols + 1] = c64(1.0, 0.0);
        }
        let before = a.clone();
        let err = cholesky_orthonormalize(&mut a, rows, cols).unwrap_err();
        assert!(matches!(err, OrthError::NotPositiveDefinite { .. }), "{err:?}");
        assert_eq!(a, before, "input must be untouched on error");
        assert!(err.to_string().contains("positive definite"), "{err}");
    }
}
