//! Property-based tests for the FP64 dense substrate.

use dcmesh_linalg::cholesky::{cholesky_factor, cholesky_solve};
use dcmesh_linalg::hermitian::eigh;
use dcmesh_linalg::ops::{dagger, hermitian_from_fn, matmul, max_abs_diff, unitarity_defect};
use dcmesh_linalg::orth::{cholesky_orthonormalize, lowdin_orthonormalize, orthonormality_defect};
use dcmesh_numerics::{c64, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random complex matrix from a seeded RNG.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Builds a deterministic Hermitian matrix from a seed.
fn hermitian(n: usize, seed: u64) -> Vec<C64> {
    hermitian_from_fn(n, |i, j| {
        let h = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((i * 131 + j * 17) as u64)
            .wrapping_mul(2862933555777941757);
        let re = ((h >> 16) % 2000) as f64 / 1000.0 - 1.0;
        let im = if i == j { 0.0 } else { ((h >> 40) % 2000) as f64 / 1000.0 - 1.0 };
        c64(re, im)
    })
}

/// A well-conditioned HPD matrix: H†H + n·I.
fn hpd(n: usize, seed: u64) -> Vec<C64> {
    let h = hermitian(n, seed);
    let hh = dagger(&h, n, n);
    let mut a = matmul(&hh, &h, n, n, n);
    for i in 0..n {
        a[i * n + i] += c64(n as f64, 0.0);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eigh_reconstructs(n in 1usize..14, seed in 0u64..1000) {
        let a = hermitian(n, seed);
        let r = eigh(&a, n);
        prop_assert!(unitarity_defect(&r.eigenvectors, n) < 1e-11);
        // A·V = V·diag(λ)
        let av = matmul(&a, &r.eigenvectors, n, n, n);
        let mut vl = r.eigenvectors.clone();
        for i in 0..n {
            for j in 0..n {
                vl[i * n + j] = vl[i * n + j].scale(r.eigenvalues[j]);
            }
        }
        prop_assert!(max_abs_diff(&av, &vl) < 1e-10 * (n as f64));
    }

    #[test]
    fn eigh_trace_and_ordering(n in 1usize..14, seed in 0u64..1000) {
        let a = hermitian(n, seed);
        let r = eigh(&a, n);
        let tr: f64 = (0..n).map(|i| a[i * n + i].re).sum();
        let sum: f64 = r.eigenvalues.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-9 * (1.0 + tr.abs()));
        for w in r.eigenvalues.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn cholesky_roundtrip_and_solve(n in 1usize..12, seed in 0u64..1000) {
        let a = hpd(n, seed);
        let l = cholesky_factor(&a, n).expect("HPD by construction");
        let lh = dagger(&l, n, n);
        let back = matmul(&l, &lh, n, n, n);
        prop_assert!(max_abs_diff(&a, &back) < 1e-9 * (n as f64));
        // Solve against a known x.
        let x: Vec<C64> = (0..n).map(|i| c64(i as f64 - 1.5, 0.25 * i as f64)).collect();
        let mut b = vec![C64::zero(); n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i * n + j] * x[j];
            }
        }
        cholesky_solve(&l, n, &mut b);
        for (g, w) in b.iter().zip(&x) {
            prop_assert!((*g - *w).abs() < 1e-8 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn lowdin_orthonormalises(rows in 8usize..30, cols in 1usize..6, seed in 0u64..500) {
        let mut a = random_matrix(rows, cols, seed);
        lowdin_orthonormalize(&mut a, rows, cols).expect("random matrix is full rank");
        prop_assert!(orthonormality_defect(&a, rows, cols) < 1e-10);
    }

    #[test]
    fn lowdin_preserves_already_orthonormal(rows in 8usize..24, cols in 1usize..5, seed in 0u64..500) {
        let mut a = random_matrix(rows, cols, seed.wrapping_add(7777));
        cholesky_orthonormalize(&mut a, rows, cols).expect("random matrix is full rank");
        let before = a.clone();
        lowdin_orthonormalize(&mut a, rows, cols).expect("orthonormal set is full rank");
        // Already orthonormal input is a fixed point of Löwdin.
        let d: f64 = a.iter().zip(&before).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max);
        prop_assert!(d < 1e-10, "lowdin moved an orthonormal set by {}", d);
    }
}
