//! Hermitian eigendecomposition: Householder reduction to a real
//! symmetric tridiagonal, implicit-shift QL on it, one GEMM back.
//!
//! `A = Q·T·Q†` with `Q` a product of `n − 1` complex reflectors and `T`
//! real (each reflector is chosen so the surviving off-diagonal entry is
//! real); `T = Z·Λ·Zᵀ` by QL with Wilkinson shifts, the rotations
//! accumulated into `Zᵀ` so each touches two contiguous rows; `V = Q·Z` as
//! one `dgemm` on `[Re Q; Im Q]`. About `16/3·n³` multiplications plus the
//! QL sweep, against cyclic Jacobi's roughly eight sweeps of `n²/2`
//! rotations with three length-`n` updates each — a tenth of the work.
//!
//! Both stages are backward stable (unitary similarity transforms
//! throughout): computed eigenpairs are exact for `A + E` with
//! `‖E‖ = O(n·ε·‖A‖)`, which is all the error-resetting SCF step needs —
//! its input carries 10⁻³…10⁻⁷ of low-precision drift. What Jacobi adds on
//! top (high *relative* accuracy of tiny eigenvalues of graded matrices)
//! the boundary never uses: Löwdin rejects overlaps whose smallest
//! eigenvalue is below 10⁻¹² of the largest. Measured residuals sit at or
//! below Jacobi's (table in DESIGN.md, rows in `BENCH_linalg.json`);
//! Jacobi itself survives as the `#[cfg(test)]` oracle in `jacobi.rs`.
//!
//! Eigenvectors are returned with a fixed phase — the largest-modulus
//! component of each is real and positive — so a matrix that is already
//! diagonal, with a sorted non-degenerate spectrum, returns `V ≈ I` and a
//! Rayleigh–Ritz rotation of converged orbitals is a no-op.
//!
//! The work matrix lives in separate real and imaginary planes, so every
//! inner loop is a run of real multiplies and adds over contiguous slices
//! in a fixed order (dot products over four fixed lanes): results depend
//! on the input alone, not on the host's vector width.
//!
//! Domain: entries whose squares neither overflow nor underflow (no
//! rescaling is done; the boundary's matrices are `O(1)`).

#[cfg(test)]
pub(crate) mod jacobi;

use dcmesh_numerics::{c64, C64};
use mkl_lite::{dgemm, workspace, Op};
use std::fmt;

/// Result of [`eigh`]: eigenvalues ascending, eigenvectors as columns.
#[derive(Clone, Debug)]
pub struct EighResult {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Row-major `n × n` matrix whose **columns** are the corresponding
    /// orthonormal eigenvectors, each with its largest-modulus component
    /// real and positive.
    pub eigenvectors: Vec<C64>,
}

/// Why [`try_eigh`] could not decompose its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EighError {
    /// The upper triangle holds a NaN or an infinity, or entries so large
    /// that the reduction overflowed.
    NonFinite,
    /// QL spent [`MAX_QL_ITERATIONS`] shifts on one eigenvalue without
    /// deflating it (not observed on finite input; the limit is what
    /// keeps a corrupted matrix from hanging the run).
    NoConvergence {
        /// Index of the eigenvalue being isolated.
        index: usize,
    },
}

impl fmt::Display for EighError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EighError::NonFinite => write!(f, "non-finite input entry"),
            EighError::NoConvergence { index } => write!(
                f,
                "QL did not isolate eigenvalue {index} in {MAX_QL_ITERATIONS} iterations"
            ),
        }
    }
}

impl std::error::Error for EighError {}

/// QL shifts allowed per eigenvalue (EISPACK's limit; two is typical).
pub const MAX_QL_ITERATIONS: usize = 30;

/// Lanes of the fixed-shape dot products below.
const LANES: usize = 4;

/// Eigendecomposition of a Hermitian matrix (row-major `n × n`).
///
/// The input must be Hermitian to machine precision; the strictly lower
/// triangle is ignored in favour of the conjugated upper triangle, so
/// tiny asymmetries are harmless. Panics on non-finite input — callers
/// that can meet one (the SCF boundary) use [`try_eigh`].
pub fn eigh(a: &[C64], n: usize) -> EighResult {
    try_eigh(a, n).unwrap_or_else(|e| panic!("eigh: {e}"))
}

/// [`eigh`] with non-finite input and a stalled QL iteration returned as
/// errors instead of panics.
pub fn try_eigh(a: &[C64], n: usize) -> Result<EighResult, EighError> {
    assert_eq!(a.len(), n * n, "eigh: matrix shape mismatch");
    if n == 0 {
        return Ok(EighResult {
            eigenvalues: Vec::new(),
            eigenvectors: Vec::new(),
        });
    }
    let nn = n * n;

    // Lower-triangle rows of the matrix the upper triangle defines, as
    // [Re | Im] planes: row i's entries left of the diagonal are
    // contiguous, which is what the bottom-up reduction walks.
    let mut planes = workspace::take_scratch::<f64>(2 * nn);
    let (mr, mi) = planes.split_at_mut(nn);
    let mut finite = true;
    for i in 0..n {
        for j in 0..i {
            let z = a[j * n + i];
            finite &= z.is_finite();
            mr[i * n + j] = z.re;
            mi[i * n + j] = -z.im;
        }
        finite &= a[i * n + i].re.is_finite();
        mr[i * n + i] = a[i * n + i].re;
    }
    if !finite {
        return Err(EighError::NonFinite);
    }

    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    let mut tau = vec![C64::zero(); n];
    tridiagonalize(mr, mi, n, &mut d, &mut e, &mut tau);
    if d.iter().chain(&e).any(|t| !t.is_finite()) {
        return Err(EighError::NonFinite);
    }

    // Q = P_{n−1}···P_1 as stacked planes [Re Q; Im Q] (2n × n).
    let mut q = workspace::take_zeroed::<f64>(2 * nn);
    form_q(mr, mi, &tau, n, &mut q);

    // T = Z·Λ·Zᵀ; row i of `zt` is eigenvector i of T.
    let mut zt = workspace::take_zeroed::<f64>(nn);
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }
    tridiagonal_ql(&mut d, &mut e, &mut zt, n)?;

    // [Re V; Im V] = [Re Q; Im Q]·Z, columns still in QL's order.
    let mut v = workspace::take_scratch::<f64>(2 * nn);
    dgemm(
        Op::None,
        Op::Trans,
        2 * n,
        n,
        n,
        1.0,
        &q,
        n,
        &zt,
        n,
        0.0,
        &mut v,
        n,
    );
    let (vr, vi) = v.split_at(nn);

    // Ascending order (stable, so an already sorted diagonal keeps its
    // columns in place), and the phase that makes each column's largest
    // component real positive.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let mut largest = vec![(0.0f64, 0usize); n];
    for r in 0..n {
        for (c, best) in largest.iter_mut().enumerate() {
            let m2 = vr[r * n + c] * vr[r * n + c] + vi[r * n + c] * vi[r * n + c];
            if m2 > best.0 {
                *best = (m2, r);
            }
        }
    }
    let mut eigenvectors = vec![C64::zero(); nn];
    for (new_col, &old_col) in order.iter().enumerate() {
        let (m2, r) = largest[old_col];
        let pivot = c64(vr[r * n + old_col], vi[r * n + old_col]);
        let phase = pivot.conj().scale(1.0 / m2.sqrt());
        for r in 0..n {
            eigenvectors[r * n + new_col] =
                c64(vr[r * n + old_col], vi[r * n + old_col]).mul_4m(phase);
        }
    }
    Ok(EighResult {
        eigenvalues: order.iter().map(|&i| d[i]).collect(),
        eigenvectors,
    })
}

/// `Σ row[c]·v[c]` over four fixed lanes, and `p[c] += conj(row[c])·x`
/// in the same pass: one walk over a strictly-lower row serves both
/// halves of the Hermitian matrix–vector product.
#[inline]
#[allow(clippy::too_many_arguments)]
fn dot_and_axpy_conj(
    row_r: &[f64],
    row_i: &[f64],
    v_r: &[f64],
    v_i: &[f64],
    p_r: &mut [f64],
    p_i: &mut [f64],
    x: C64,
) -> C64 {
    let len = row_r.len();
    let (row_i, v_r, v_i) = (&row_i[..len], &v_r[..len], &v_i[..len]);
    let (p_r, p_i) = (&mut p_r[..len], &mut p_i[..len]);
    let (mut sr, mut si) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut step = |c: usize, lane: usize| {
        let (ar, ai) = (row_r[c], row_i[c]);
        sr[lane] += ar * v_r[c] - ai * v_i[c];
        si[lane] += ar * v_i[c] + ai * v_r[c];
        p_r[c] += ar * x.re + ai * x.im;
        p_i[c] += ar * x.im - ai * x.re;
    };
    let head = len - len % LANES;
    for c0 in (0..head).step_by(LANES) {
        for lane in 0..LANES {
            step(c0 + lane, lane);
        }
    }
    for c in head..len {
        step(c, c - head);
    }
    c64(
        (sr[0] + sr[1]) + (sr[2] + sr[3]),
        (si[0] + si[1]) + (si[2] + si[3]),
    )
}

/// Reduces the Hermitian matrix held as lower-triangle planes to real
/// symmetric tridiagonal form, bottom row first. On return `d` is the
/// diagonal, `e[i]` couples `i − 1` and `i` (`e[0] = 0`), and row `i ≥ 1`
/// of the planes holds, in columns `0..i`, the vector `v` of the
/// reflector `H_i = I − τ_i·v·v†` (last component 1) that acted on
/// indices `0..i`.
fn tridiagonalize(
    mr: &mut [f64],
    mi: &mut [f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    tau: &mut [C64],
) {
    let mut p_r = vec![0.0f64; n];
    let mut p_i = vec![0.0f64; n];
    for i in (1..n).rev() {
        let (br, rest_r) = mr.split_at_mut(i * n);
        let (bi, rest_i) = mi.split_at_mut(i * n);
        d[i] = rest_r[i];
        let (v_r, v_i) = (&mut rest_r[..i], &mut rest_i[..i]);

        // x = (row i)† is the column the reflector must map onto
        // β·e_{i−1} with β real: H†x = β·e, so (row i)·H = β·eᵀ.
        let alpha = c64(v_r[i - 1], -v_i[i - 1]);
        let xnorm2: f64 = v_r[..i - 1]
            .iter()
            .zip(&v_i[..i - 1])
            .map(|(r, i)| r * r + i * i)
            .sum();
        if xnorm2 == 0.0 && alpha.im == 0.0 {
            e[i] = alpha.re;
            continue;
        }
        let beta = -(alpha.norm_sqr() + xnorm2).sqrt().copysign(alpha.re);
        tau[i] = c64((beta - alpha.re) / beta, -alpha.im / beta);
        e[i] = beta;
        // v = x / (α − β), v_{i−1} = 1.
        let denom = c64(alpha.re - beta, alpha.im);
        let s = denom.conj().scale(1.0 / denom.norm_sqr());
        for (r, i) in v_r[..i - 1].iter_mut().zip(v_i[..i - 1].iter_mut()) {
            (*r, *i) = (*r * s.re + *i * s.im, *r * s.im - *i * s.re);
        }
        (v_r[i - 1], v_i[i - 1]) = (1.0, 0.0);
        let (v_r, v_i) = (&*v_r, &*v_i);

        // p = τ·B·v over the lower triangle of the leading i × i block B.
        p_r[..i].fill(0.0);
        p_i[..i].fill(0.0);
        for r in 0..i {
            let x = c64(v_r[r], v_i[r]);
            let (row_r, row_i) = (&br[r * n..r * n + r], &bi[r * n..r * n + r]);
            let dot = dot_and_axpy_conj(row_r, row_i, v_r, v_i, &mut p_r, &mut p_i, x);
            let diag = br[r * n + r];
            p_r[r] += dot.re + diag * x.re;
            p_i[r] += dot.im + diag * x.im;
        }
        let t = tau[i];
        let mut pv = C64::zero(); // p†v
        for c in 0..i {
            let p = t.mul_4m(c64(p_r[c], p_i[c]));
            (p_r[c], p_i[c]) = (p.re, p.im);
            pv += p.conj().mul_4m(c64(v_r[c], v_i[c]));
        }
        // w = p − ½·τ·(p†v)·v, then B ← B − v·w† − w·v† = H†·B·H.
        let half = t.mul_4m(pv).scale(-0.5);
        for c in 0..i {
            let w = c64(p_r[c], p_i[c]) + half.mul_4m(c64(v_r[c], v_i[c]));
            (p_r[c], p_i[c]) = (w.re, w.im);
        }
        let (w_r, w_i) = (&p_r[..i], &p_i[..i]);
        for r in 0..i {
            let (x, y) = (c64(v_r[r], v_i[r]), c64(w_r[r], w_i[r]));
            let row_r = &mut br[r * n..r * n + r + 1];
            let row_i = &mut bi[r * n..r * n + r];
            for c in 0..r {
                row_r[c] -= (x.re * w_r[c] + x.im * w_i[c]) + (y.re * v_r[c] + y.im * v_i[c]);
                row_i[c] -= (x.im * w_r[c] - x.re * w_i[c]) + (y.im * v_r[c] - y.re * v_i[c]);
            }
            row_r[r] -= 2.0 * (x.re * y.re + x.im * y.im);
        }
    }
    d[0] = mr[0];
}

/// Accumulates `Q = P_{n−1}···P_1` from the reflectors
/// [`tridiagonalize`] left in the planes, smallest first: step `k`
/// multiplies the leading `k × k` block (all of `P_{k−1}···P_1` that
/// differs from the identity) by `H_k` from the left.
fn form_q(mr: &[f64], mi: &[f64], tau: &[C64], n: usize, q: &mut [f64]) {
    let (qr, qi) = q.split_at_mut(n * n);
    for i in 0..n {
        qr[i * n + i] = 1.0;
    }
    let mut g_r = vec![0.0f64; n];
    let mut g_i = vec![0.0f64; n];
    for k in 1..n {
        let t = tau[k];
        if t == C64::zero() {
            continue;
        }
        let (v_r, v_i) = (&mr[k * n..k * n + k], &mi[k * n..k * n + k]);
        // g = v†·X, then X ← X − τ·v·g.
        let (g_r, g_i) = (&mut g_r[..k], &mut g_i[..k]);
        g_r.fill(0.0);
        g_i.fill(0.0);
        for r in 0..k {
            let (x_r, x_i) = (&qr[r * n..r * n + k], &qi[r * n..r * n + k]);
            let (ar, ai) = (v_r[r], v_i[r]);
            for c in 0..k {
                g_r[c] += ar * x_r[c] + ai * x_i[c];
                g_i[c] += ar * x_i[c] - ai * x_r[c];
            }
        }
        for r in 0..k {
            let s = t.mul_4m(c64(v_r[r], v_i[r]));
            let (x_r, x_i) = (&mut qr[r * n..r * n + k], &mut qi[r * n..r * n + k]);
            for c in 0..k {
                x_r[c] -= s.re * g_r[c] - s.im * g_i[c];
                x_i[c] -= s.re * g_i[c] + s.im * g_r[c];
            }
        }
    }
}

/// Implicit-shift QL on the symmetric tridiagonal `(d, e)` (EISPACK
/// `tql2`): `d` becomes the eigenvalues, unsorted, and each plane
/// rotation is applied to the two rows of `zt` it mixes. `e[i]` couples
/// `i − 1` and `i` on entry and is destroyed.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize) -> Result<(), EighError> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0f64;
    let mut scale = 0.0f64;
    for l in 0..n {
        // Deflate at the first negligible off-diagonal at or after l
        // (e[n − 1] = 0 always qualifies).
        scale = scale.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * scale;
        let m = (l..n)
            .find(|&m| e[m].abs() <= small)
            .expect("e[n-1] is zero");
        if m > l {
            for iteration in 0.. {
                if iteration == MAX_QL_ITERATIONS {
                    return Err(EighError::NoConvergence { index: l });
                }
                // Wilkinson shift from the leading 2 × 2.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = (p * p + 1.0).sqrt().copysign(p);
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                shift += h;

                // One implicit QL sweep from m up to l.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0f64, 1.0f64, 1.0f64);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0f64, 0.0f64);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = (p * p + e[i] * e[i]).sqrt();
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = zt[i * n..(i + 2) * n].split_at_mut(n);
                    for (a, b) in lo.iter_mut().zip(hi) {
                        let h = *b;
                        *b = s * *a + c * h;
                        *a = c * *a - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= small {
                    break;
                }
            }
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::jacobi::eigh_jacobi;
    use super::*;
    use crate::ops::{
        dagger, frobenius_norm, hermitian_from_fn, identity, matmul, max_abs_diff, unitarity_defect,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A Hermitian matrix with entries uniform in `amplitude·[−½, ½)²`.
    fn random_hermitian(rng: &mut StdRng, n: usize, amplitude: f64) -> Vec<C64> {
        hermitian_from_fn(n, |_, _| {
            c64(
                amplitude * rng.gen_range(-0.5..0.5),
                amplitude * rng.gen_range(-0.5..0.5),
            )
        })
    }

    /// `‖AV − VΛ‖_max`.
    fn eigen_residual(a: &[C64], r: &EighResult, n: usize) -> f64 {
        let av = matmul(a, &r.eigenvectors, n, n, n);
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let want = r.eigenvectors[i * n + j].scale(r.eigenvalues[j]);
                worst = worst.max((av[i * n + j] - want).abs());
            }
        }
        worst
    }

    /// The input classes the SCF boundary meets, plus the awkward ones.
    fn input_classes(n: usize, seed: u64) -> Vec<(&'static str, Vec<C64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let random = random_hermitian(&mut rng, n, 1.0);
        // An overlap matrix after a burst of low-precision steps.
        let mut near_identity = random_hermitian(&mut rng, n, 1e-3);
        for i in 0..n {
            near_identity[i * n + i] += C64::one();
        }
        let mut diagonal = vec![C64::zero(); n * n];
        for i in 0..n {
            diagonal[i * n + i] = c64(rng.gen_range(-0.5..0.5), 0.0);
        }
        // I + u·u†: one eigenvalue 1 + ‖u‖², the rest exactly 1.
        let u: Vec<C64> = (0..n)
            .map(|_| c64(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        let rank_one = hermitian_from_fn(n, |i, j| {
            u[i].mul_4m(u[j].conj()) + if i == j { C64::one() } else { C64::zero() }
        });
        // Four-fold-degenerate levels in a random unitary basis: what
        // Rayleigh–Ritz sees on plane waves.
        let basis = eigh_jacobi(&random, n).eigenvectors;
        let mut scaled = basis.clone();
        for row in scaled.chunks_exact_mut(n) {
            for (k, z) in row.iter_mut().enumerate() {
                *z = z.scale(0.5 * (k / 4) as f64);
            }
        }
        let product = matmul(&scaled, &dagger(&basis, n, n), n, n, n);
        let degenerate = hermitian_from_fn(n, |i, j| product[i * n + j]);
        vec![
            ("random", random),
            ("near-identity", near_identity),
            ("exactly diagonal", diagonal),
            ("rank-one plus identity", rank_one),
            ("four-fold degenerate", degenerate),
        ]
    }

    #[test]
    fn agrees_with_the_jacobi_oracle_on_every_input_class() {
        for n in [1usize, 2, 3, 16, 64, 96] {
            for (class, a) in input_classes(n, 17 + n as u64) {
                let tag = format!("{class}, n = {n}");
                let norm = frobenius_norm(&a);
                let bound = 8.0 * n as f64 * f64::EPSILON * norm;
                let got = eigh(&a, n);
                let oracle = eigh_jacobi(&a, n);

                for w in got.eigenvalues.windows(2) {
                    assert!(w[0] <= w[1], "{tag}: not ascending: {:?}", got.eigenvalues);
                }
                for (g, o) in got.eigenvalues.iter().zip(&oracle.eigenvalues) {
                    assert!(
                        (g - o).abs() <= bound,
                        "{tag}: eigenvalue {g} vs oracle {o}"
                    );
                }
                // Under the a-priori bound, and no worse than four times
                // the oracle. "Worse" means nothing below the √n·ε that n
                // independent roundings add up to, which Jacobi often
                // beats (exact to the last bit at n ≤ 3, one sweep on
                // rank-one-plus-identity), so that is the floor.
                let roundings = 4.0 * (n as f64).sqrt() * f64::EPSILON;
                let floor = roundings * norm.max(1.0);
                let (res, res_oracle) =
                    (eigen_residual(&a, &got, n), eigen_residual(&a, &oracle, n));
                assert!(res <= bound, "{tag}: residual {res:e} over bound {bound:e}");
                assert!(
                    res <= 4.0 * res_oracle + floor,
                    "{tag}: residual {res:e} vs oracle {res_oracle:e}"
                );
                let unit_bound = 8.0 * n as f64 * f64::EPSILON;
                let (uni, uni_oracle) = (
                    unitarity_defect(&got.eigenvectors, n),
                    unitarity_defect(&oracle.eigenvectors, n),
                );
                assert!(
                    uni <= unit_bound,
                    "{tag}: unitarity {uni:e} over bound {unit_bound:e}"
                );
                assert!(
                    uni <= 4.0 * uni_oracle + roundings,
                    "{tag}: unitarity {uni:e} vs oracle {uni_oracle:e}"
                );

                // Phase convention: the largest component of every
                // eigenvector is real and positive.
                for col in 0..n {
                    let pivot = (0..n).map(|r| got.eigenvectors[r * n + col]).fold(
                        C64::zero(),
                        |best, z| {
                            if z.norm_sqr() > best.norm_sqr() {
                                z
                            } else {
                                best
                            }
                        },
                    );
                    assert!(
                        pivot.re > 0.0 && pivot.im.abs() <= 4.0 * f64::EPSILON,
                        "{tag}: column {col} pivot {pivot:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn near_diagonal_input_returns_near_identity_vectors() {
        // Sorted, well-separated diagonal plus a 10⁻⁹ coupling — H_sub of
        // orbitals that are already Ritz vectors. With the phase fixed,
        // V − I is first-order perturbation theory: coupling / gap.
        for n in [2usize, 16, 64] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut a = random_hermitian(&mut rng, n, 1e-9);
            for i in 0..n {
                a[i * n + i] = c64(i as f64 + 0.25 * rng.gen_range(-0.5..0.5), 0.0);
            }
            let r = eigh(&a, n);
            let off = max_abs_diff(&r.eigenvectors, &identity(n));
            assert!(off < 1e-8, "n = {n}: |V − I| = {off:e}");
        }
        // Exactly diagonal and already sorted, ties included: V = I to the bit.
        let n = 8;
        let mut a = vec![C64::zero(); n * n];
        for (i, lam) in [-1.0, 0.5, 0.5, 0.5, 2.0, 2.0, 3.0, 7.0].iter().enumerate() {
            a[i * n + i] = c64(*lam, 0.0);
        }
        assert_eq!(eigh(&a, n).eigenvectors, identity(n));
    }

    #[test]
    fn try_eigh_reports_non_finite_input_and_overflow() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = random_hermitian(&mut StdRng::seed_from_u64(7), 5, 1.0);
            a[5 + 3].re = poison; // upper triangle
            assert_eq!(try_eigh(&a, 5).unwrap_err(), EighError::NonFinite);
            // The strictly lower triangle is never read.
            let mut b = random_hermitian(&mut StdRng::seed_from_u64(7), 5, 1.0);
            b[3 * 5 + 1].im = poison;
            try_eigh(&b, 5).expect("lower triangle ignored");
        }
        // Finite entries whose squares are not.
        let huge = random_hermitian(&mut StdRng::seed_from_u64(9), 6, 1e200);
        assert_eq!(try_eigh(&huge, 6).unwrap_err(), EighError::NonFinite);
    }

    fn reconstruct(r: &EighResult, n: usize) -> Vec<C64> {
        // A = V diag(λ) V†
        let mut vl = r.eigenvectors.clone();
        for i in 0..n {
            for j in 0..n {
                vl[i * n + j] = vl[i * n + j].scale(r.eigenvalues[j]);
            }
        }
        let vh = crate::ops::dagger(&r.eigenvectors, n, n);
        matmul(&vl, &vh, n, n, n)
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let n = 4;
        let mut a = vec![C64::zero(); n * n];
        for (i, lam) in [3.0, -1.0, 2.0, 0.5].iter().enumerate() {
            a[i * n + i] = c64(*lam, 0.0);
        }
        let r = eigh(&a, n);
        assert_eq!(r.eigenvalues, vec![-1.0, 0.5, 2.0, 3.0]);
        assert!(unitarity_defect(&r.eigenvectors, n) < 1e-14);
    }

    #[test]
    fn known_2x2_complex() {
        // [[0, -i], [i, 0]] has eigenvalues ±1.
        let a = vec![c64(0.0, 0.0), c64(0.0, -1.0), c64(0.0, 1.0), c64(0.0, 0.0)];
        let r = eigh(&a, 2);
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        for n in [1usize, 2, 3, 8, 24] {
            let a = hermitian_from_fn(n, |i, j| {
                let x = ((3 * i + 7 * j + 1) % 13) as f64 / 13.0 - 0.5;
                let y = if i == j {
                    0.0
                } else {
                    ((5 * i + 2 * j) % 11) as f64 / 11.0 - 0.5
                };
                c64(x, y)
            });
            let r = eigh(&a, n);
            assert!(unitarity_defect(&r.eigenvectors, n) < 1e-12, "n={n}");
            let back = reconstruct(&r, n);
            assert!(max_abs_diff(&a, &back) < 1e-11, "n={n}");
            for w in r.eigenvalues.windows(2) {
                assert!(w[0] <= w[1], "eigenvalues not sorted: {:?}", r.eigenvalues);
            }
        }
    }

    #[test]
    fn trace_preserved() {
        let n = 16;
        let a = hermitian_from_fn(n, |i, j| {
            c64((i * j % 7) as f64, (i as f64 - j as f64) / 4.0)
        });
        let tr: f64 = (0..n).map(|i| a[i * n + i].re).sum();
        let r = eigh(&a, n);
        let sum: f64 = r.eigenvalues.iter().sum();
        assert!((tr - sum).abs() < 1e-10 * (1.0 + tr.abs()));
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // 3x3 with a double eigenvalue: A = diag(1,1,2) rotated.
        let n = 3;
        let a = hermitian_from_fn(n, |i, j| {
            // Projector-based: A = I + P where P = vv†, v = (1,1,1)/sqrt 3.
            let base = if i == j { 1.0 } else { 0.0 };
            c64(base + 1.0 / 3.0, 0.0)
        });
        let r = eigh(&a, n);
        // Eigenvalues: 1 (x2) and 2.
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[2] - 2.0).abs() < 1e-12);
        assert!(unitarity_defect(&r.eigenvectors, n) < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let r = eigh(&[], 0);
        assert!(r.eigenvalues.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let a = vec![c64(f64::NAN, 0.0)];
        eigh(&a, 1);
    }
}
