//! Fixed-shape deterministic reductions.
//!
//! Floating-point addition is not associative, so the value of a sum
//! depends on the order *and grouping* in which the terms are combined.
//! Naive accumulation loops tie that grouping to iteration order, and
//! parallel reductions tie it to scheduling — which is why the same run
//! can produce different bits at different thread counts, and why a
//! degraded 2-rank fleet could drift from a 4-rank one.
//!
//! This module fixes the grouping instead: every reduction is evaluated
//! over a **fixed-shape blocked pairwise tree** whose shape depends only
//! on the number of terms. Leaves of up to [`BLOCK`] terms are summed
//! sequentially in index order; longer ranges split at the midpoint and
//! combine the two halves' results. The shape (and therefore the result,
//! bit for bit) is identical whether the terms were produced by one
//! thread or sixteen, on one rank or four — the OzBLAS / HPR-BLAS
//! reproducibility discipline applied to every order-sensitive sum in
//! the stack (see SNIPPETS.md).
//!
//! As a bonus, the pairwise tree has O(log n) worst-case error growth
//! versus O(n) for the running loop, so routing a sum through here never
//! costs accuracy.
//!
//! ```
//! use dcmesh_numerics::reduce;
//!
//! let v: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
//! // Same slice, same bits — regardless of who computed the elements.
//! assert_eq!(reduce::sum_f64(&v).to_bits(), reduce::sum_f64(&v).to_bits());
//! ```

use crate::complex::C64;

/// Leaf width of the reduction tree: ranges of at most this many terms
/// are summed sequentially in index order. Part of the reduction's
/// *shape contract* — changing it changes every sum's bit pattern, so it
/// is a compile-time constant, never a tunable.
pub const BLOCK: usize = 32;

/// Values that can ride the fixed-shape tree: addition must be
/// commutative-ish floating point (f64 or componentwise complex).
pub trait TreeSum: Copy {
    /// Additive identity (the empty-sum result).
    fn tree_zero() -> Self;
    /// Single combination step.
    fn tree_add(self, rhs: Self) -> Self;
}

impl TreeSum for f64 {
    #[inline]
    fn tree_zero() -> Self {
        0.0
    }
    #[inline]
    fn tree_add(self, rhs: Self) -> Self {
        self + rhs
    }
}

impl TreeSum for C64 {
    #[inline]
    fn tree_zero() -> Self {
        C64::zero()
    }
    #[inline]
    fn tree_add(self, rhs: Self) -> Self {
        self + rhs
    }
}

/// Sums `f(start)..f(start+len)` over the fixed tree. `f` is invoked
/// exactly once per index, in index order within each leaf.
fn tree_with<T: TreeSum, F: FnMut(usize) -> T>(start: usize, len: usize, f: &mut F) -> T {
    if len <= BLOCK {
        let mut acc = T::tree_zero();
        for i in start..start + len {
            acc = acc.tree_add(f(i));
        }
        acc
    } else {
        // Midpoint split, left-biased: the shape is a function of `len`
        // alone.
        let half = len / 2;
        let lo = tree_with(start, half, f);
        let hi = tree_with(start + half, len - half, f);
        lo.tree_add(hi)
    }
}

/// Deterministic sum of `f(0)..f(n)` — the allocation-free workhorse for
/// hot inner loops. The closure is called once per index; leaves are
/// evaluated in index order.
#[inline]
pub fn sum_with<T: TreeSum, F: FnMut(usize) -> T>(n: usize, mut f: F) -> T {
    tree_with(0, n, &mut f)
}

/// Deterministic sum of a real slice.
#[inline]
pub fn sum_f64(v: &[f64]) -> f64 {
    sum_with(v.len(), |i| v[i])
}

/// Deterministic sum of a complex slice (componentwise, same tree).
#[inline]
pub fn sum_c64(v: &[C64]) -> C64 {
    sum_with(v.len(), |i| v[i])
}

/// Deterministic conjugated dot product `Σᵢ conj(a[i])·b[i]` (the BLAS
/// `dotc` convention), with the 4-multiplication product.
#[inline]
pub fn dot_c64(a: &[C64], b: &[C64]) -> C64 {
    debug_assert_eq!(a.len(), b.len());
    sum_with(a.len(), |i| a[i].conj().mul_4m(b[i]))
}

/// Deterministic sum of squared moduli `Σᵢ |v[i]|²` (the `nrm2`
/// radicand; take `.sqrt()` for the norm itself — a single well-defined
/// rounding on top of a deterministic sum).
#[inline]
pub fn sum_norm_sqr(v: &[C64]) -> f64 {
    sum_with(v.len(), |i| v[i].norm_sqr())
}

/// Deterministic parallel map-reduce: computes `f(i)` for `i in 0..n`
/// across the current rayon pool into slot `i` of `parts` (resized to
/// `n`; a caller that keeps it allocates nothing once it has grown), then
/// folds the slots through the same fixed tree **in index order**.
/// Scheduling decides only *when* each term is produced, never how the
/// sum is grouped, so the result is bit-identical from 1 to N threads.
pub fn par_map_sum<T, F>(parts: &mut Vec<T>, n: usize, f: F) -> T
where
    T: TreeSum + Send,
    F: Fn(usize) -> T + Sync,
{
    use rayon::prelude::*;
    parts.resize(n, T::tree_zero());
    // Term `i` lands in slot `i`, whichever thread computes it.
    parts.par_iter_mut().enumerate().for_each(|(i, p)| *p = f(i));
    sum_with(n, |i| parts[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn terms(n: usize) -> Vec<f64> {
        // Magnitudes spread over ~12 decades so grouping really matters.
        (0..n).map(|i| ((i * 2654435761) % 97) as f64 * 10f64.powi((i % 12) as i32 - 6)).collect()
    }

    #[test]
    fn matches_naive_loop_to_roundoff_and_is_stable() {
        for n in [0, 1, 31, 32, 33, 64, 100, 1000, 4097] {
            let v = terms(n);
            let naive: f64 = v.iter().sum();
            let tree = sum_f64(&v);
            assert!(
                (tree - naive).abs() <= 1e-12 * naive.abs().max(1.0),
                "n={n}: tree {tree} vs naive {naive}"
            );
            assert_eq!(tree.to_bits(), sum_f64(&v).to_bits(), "same input, same bits");
        }
    }

    #[test]
    fn shape_depends_only_on_length() {
        // The closure-based and slice-based paths must agree bit for bit
        // (they share the tree), and chunked production must not matter.
        let v = terms(777);
        let via_closure = sum_with(v.len(), |i| v[i]);
        assert_eq!(sum_f64(&v).to_bits(), via_closure.to_bits());
    }

    #[test]
    fn tree_differs_from_running_sum_on_adversarial_input() {
        // Sanity check that the tree is *actually* a different grouping:
        // for a large cancellation-heavy input the running loop and the
        // tree disagree in the low bits. (Not a guarantee for every
        // input — just evidence the fixture exercises non-associativity.)
        let v = terms(4097);
        let naive: f64 = v.iter().sum();
        assert_ne!(sum_f64(&v).to_bits(), naive.to_bits());
    }

    #[test]
    fn par_map_sum_is_bit_identical_across_thread_counts() {
        let v = terms(2048);
        let mut bits = Vec::new();
        for threads in [1, 2, 4, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build pool");
            let s = pool.install(|| {
                assert_eq!(rayon::current_num_threads(), threads);
                par_map_sum(&mut Vec::new(), v.len(), |i| v[i] * v[(i * 31) % v.len()])
            });
            bits.push(s.to_bits());
        }
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "bits varied across pools: {bits:?}");
    }

    #[test]
    fn complex_reductions_are_componentwise_deterministic() {
        let v: Vec<_> = (0..513).map(|i| c64(terms(i + 1)[i], -(i as f64) * 0.37)).collect();
        let s1 = sum_c64(&v);
        let s2 = sum_with(v.len(), |i| v[i]);
        assert_eq!(s1.re.to_bits(), s2.re.to_bits());
        assert_eq!(s1.im.to_bits(), s2.im.to_bits());

        let d = dot_c64(&v, &v);
        assert!((d.re - sum_norm_sqr(&v)).abs() <= 1e-9 * d.re.abs());
        assert!(d.im.abs() <= 1e-9 * d.re.abs(), "self dot is (numerically) real");
    }

    #[test]
    fn empty_and_singleton_sums() {
        assert_eq!(sum_f64(&[]), 0.0);
        assert_eq!(sum_f64(&[42.5]), 42.5);
        let z = sum_c64(&[]);
        assert_eq!((z.re, z.im), (0.0, 0.0));
    }
}
