//! Cyclic Jacobi with complex rotations — the test oracle for
//! [`super::try_eigh`], compiled only under `#[cfg(test)]`.
//!
//! Each rotation exactly diagonalises one 2×2 Hermitian block
//! `[[α, β], [β̄, γ]]` with the closed-form unitary
//! `R = [v | w]`, `v = (β, r−δ)/‖·‖`, `w = (−(r−δ), β̄)/‖·‖` where
//! `δ = (α−γ)/2`, `r = √(δ² + |β|²)`; sweeps repeat until the
//! off-diagonal Frobenius mass is negligible. Roughly eight sweeps of
//! `n²/2` rotations with three length-`n` updates each: ten times the
//! operations of tridiagonalise-then-QL, which is why it left the hot
//! path, and independent of it, which is why it stays as the reference.

use super::EighResult;
use dcmesh_numerics::{c64, C64};

/// Off-diagonal squared Frobenius mass.
fn off_diagonal_mass(a: &[C64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += a[i * n + j].norm_sqr();
            }
        }
    }
    s
}

/// The eigensolver [`super::try_eigh`] replaced, same contract: upper
/// triangle read, eigenvalues ascending, eigenvectors as columns (their
/// phases are whatever the rotations leave). Panics on non-finite input.
pub(crate) fn eigh_jacobi(a: &[C64], n: usize) -> EighResult {
    assert_eq!(a.len(), n * n, "eigh_jacobi: matrix shape mismatch");
    if n == 0 {
        return EighResult {
            eigenvalues: Vec::new(),
            eigenvectors: Vec::new(),
        };
    }

    // Work on a symmetrised copy.
    let mut m = vec![C64::zero(); n * n];
    for i in 0..n {
        m[i * n + i] = c64(a[i * n + i].re, 0.0);
        for j in (i + 1)..n {
            let v = a[i * n + j];
            m[i * n + j] = v;
            m[j * n + i] = v.conj();
        }
    }
    for z in &m {
        assert!(z.is_finite(), "eigh_jacobi: non-finite input entry");
    }

    let mut v = crate::ops::identity(n);
    let scale: f64 = m.iter().map(|z| z.norm_sqr()).sum::<f64>().max(1e-300);
    let tol = scale * 1e-28;

    const MAX_SWEEPS: usize = 64;
    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        if off_diagonal_mass(&m, n) <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let beta = m[p * n + q];
                if beta.norm_sqr() <= tol / (n * n) as f64 {
                    continue;
                }
                let alpha = m[p * n + p].re;
                let gamma = m[q * n + q].re;
                let delta = (alpha - gamma) / 2.0;
                let r = (delta * delta + beta.norm_sqr()).sqrt();
                // Eigenvector (β, r−δ) of the 2x2 block for λ = (α+γ)/2 + r.
                // Pick the branch avoiding cancellation when δ > 0.
                let (v1, v2) = if delta >= 0.0 {
                    // r − δ may cancel; use (β(r+δ), |β|²)/… equivalent form.
                    (beta.scale(r + delta), c64(beta.norm_sqr(), 0.0))
                } else {
                    (beta, c64(r - delta, 0.0))
                };
                let norm = (v1.norm_sqr() + v2.norm_sqr()).sqrt();
                if norm == 0.0 {
                    continue;
                }
                let v1 = v1.scale(1.0 / norm);
                let v2 = v2.scale(1.0 / norm);
                // Unitary R columns: u = (v1, v2), w = (−v̄2, v̄1).
                let w1 = -v2.conj();
                let w2 = v1.conj();

                // A ← R† A R: first columns (A R), then rows (R† ·).
                for i in 0..n {
                    let aip = m[i * n + p];
                    let aiq = m[i * n + q];
                    m[i * n + p] = aip.mul_4m(v1) + aiq.mul_4m(v2);
                    m[i * n + q] = aip.mul_4m(w1) + aiq.mul_4m(w2);
                }
                for j in 0..n {
                    let apj = m[p * n + j];
                    let aqj = m[q * n + j];
                    m[p * n + j] = v1.conj().mul_4m(apj) + v2.conj().mul_4m(aqj);
                    m[q * n + j] = w1.conj().mul_4m(apj) + w2.conj().mul_4m(aqj);
                }
                // Clean the annihilated pair and enforce real diagonal.
                m[p * n + q] = C64::zero();
                m[q * n + p] = C64::zero();
                m[p * n + p] = c64(m[p * n + p].re, 0.0);
                m[q * n + q] = c64(m[q * n + q].re, 0.0);

                // V ← V R (columns p, q).
                for i in 0..n {
                    let vip = v[i * n + p];
                    let viq = v[i * n + q];
                    v[i * n + p] = vip.mul_4m(v1) + viq.mul_4m(v2);
                    v[i * n + q] = vip.mul_4m(w1) + viq.mul_4m(w2);
                }
            }
        }
    }
    assert!(
        converged || off_diagonal_mass(&m, n) <= tol * 1e4,
        "eigh_jacobi: failed to converge"
    );

    // Extract and sort ascending.
    let mut order: Vec<usize> = (0..n).collect();
    let evals: Vec<f64> = (0..n).map(|i| m[i * n + i].re).collect();
    order.sort_by(|&i, &j| evals[i].partial_cmp(&evals[j]).expect("finite eigenvalues"));

    let eigenvalues: Vec<f64> = order.iter().map(|&i| evals[i]).collect();
    let mut eigenvectors = vec![C64::zero(); n * n];
    for (new_col, &old_col) in order.iter().enumerate() {
        for i in 0..n {
            eigenvectors[i * n + new_col] = v[i * n + old_col];
        }
    }
    EighResult {
        eigenvalues,
        eigenvectors,
    }
}
