//! Matrix layout conventions and the BLAS `op()` argument.
//!
//! All matrices in this crate are **row-major** with an explicit leading
//! dimension `ld`: element `(i, j)` of an `m × n` matrix lives at index
//! `i * ld + j`, and `ld >= n`. This is the natural Rust layout; the GEMM
//! semantics (`m`, `n`, `k`, `op(A)`, `op(B)`) are the standard BLAS ones,
//! so the paper's dimension tables translate directly.

use dcmesh_numerics::Complex;
use dcmesh_numerics::Real;

/// The BLAS transposition argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Op {
    /// `op(X) = X`.
    #[default]
    None,
    /// `op(X) = Xᵀ`.
    Trans,
    /// `op(X) = X†` (conjugate transpose; equals `Trans` for real types).
    ConjTrans,
}

impl Op {
    /// One-letter BLAS spelling (`N`, `T`, `C`).
    pub fn letter(self) -> char {
        match self {
            Op::None => 'N',
            Op::Trans => 'T',
            Op::ConjTrans => 'C',
        }
    }

    /// The `(rows, cols)` of `op(X)` given the stored shape of `X`.
    pub fn applied_shape(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Op::None => (rows, cols),
            Op::Trans | Op::ConjTrans => (cols, rows),
        }
    }
}

/// Validates that a row-major `rows × cols` matrix with leading dimension
/// `ld` fits within `len` elements. Panics with a BLAS-style message if not.
#[track_caller]
pub fn check_matrix(name: &str, rows: usize, cols: usize, ld: usize, len: usize) {
    assert!(ld >= cols.max(1), "{name}: leading dimension {ld} < cols {cols}");
    if rows == 0 {
        return;
    }
    let needed = (rows - 1) * ld + cols;
    assert!(
        len >= needed,
        "{name}: buffer too small: need {needed} elements for {rows}x{cols} (ld {ld}), got {len}"
    );
}

/// Copies `op(A)` (where `A` is the stored `as_rows × as_cols` matrix) into
/// a dense row-major `out` buffer of shape `(out_rows, out_cols)` with
/// `ld = out_cols`. For real element types `ConjTrans` equals `Trans`.
pub fn materialize_op_real<T: Real>(
    op: Op,
    a: &[T],
    as_rows: usize,
    as_cols: usize,
    lda: usize,
    out: &mut Vec<T>,
) -> (usize, usize) {
    check_matrix("A", as_rows, as_cols, lda, a.len());
    let (r, c) = op.applied_shape(as_rows, as_cols);
    out.clear();
    out.reserve(r * c);
    match op {
        Op::None => {
            for i in 0..as_rows {
                out.extend_from_slice(&a[i * lda..i * lda + as_cols]);
            }
        }
        Op::Trans | Op::ConjTrans => {
            for j in 0..as_cols {
                for i in 0..as_rows {
                    out.push(a[i * lda + j]);
                }
            }
        }
    }
    (r, c)
}

/// Complex variant of [`materialize_op_real`]; `ConjTrans` conjugates.
pub fn materialize_op_complex<T: Real>(
    op: Op,
    a: &[Complex<T>],
    as_rows: usize,
    as_cols: usize,
    lda: usize,
    out: &mut Vec<Complex<T>>,
) -> (usize, usize) {
    check_matrix("A", as_rows, as_cols, lda, a.len());
    let (r, c) = op.applied_shape(as_rows, as_cols);
    out.clear();
    out.reserve(r * c);
    match op {
        Op::None => {
            for i in 0..as_rows {
                out.extend_from_slice(&a[i * lda..i * lda + as_cols]);
            }
        }
        Op::Trans => {
            for j in 0..as_cols {
                for i in 0..as_rows {
                    out.push(a[i * lda + j]);
                }
            }
        }
        Op::ConjTrans => {
            for j in 0..as_cols {
                for i in 0..as_rows {
                    out.push(a[i * lda + j].conj());
                }
            }
        }
    }
    (r, c)
}

/// Splits an interleaved complex matrix (row-major, leading dimension
/// `lda`) into separate dense real and imaginary planes with `ld = cols`.
pub fn deinterleave<T: Real>(
    a: &[Complex<T>],
    rows: usize,
    cols: usize,
    lda: usize,
    re: &mut Vec<T>,
    im: &mut Vec<T>,
) {
    check_matrix("A", rows, cols, lda, a.len());
    re.clear();
    im.clear();
    re.reserve(rows * cols);
    im.reserve(rows * cols);
    for i in 0..rows {
        for z in &a[i * lda..i * lda + cols] {
            re.push(z.re);
            im.push(z.im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::c32;

    #[test]
    fn op_shapes() {
        assert_eq!(Op::None.applied_shape(3, 5), (3, 5));
        assert_eq!(Op::Trans.applied_shape(3, 5), (5, 3));
        assert_eq!(Op::ConjTrans.applied_shape(3, 5), (5, 3));
    }

    #[test]
    fn materialize_transpose_real() {
        // A = [1 2 3; 4 5 6] stored with lda = 4 (one padding column).
        let a = [1.0f32, 2.0, 3.0, 99.0, 4.0, 5.0, 6.0, 99.0];
        let mut out = Vec::new();
        let (r, c) = materialize_op_real(Op::Trans, &a, 2, 3, 4, &mut out);
        assert_eq!((r, c), (3, 2));
        assert_eq!(out, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn materialize_none_strips_padding() {
        let a = [1.0f64, 2.0, -1.0, 3.0, 4.0, -1.0];
        let mut out = Vec::new();
        let (r, c) = materialize_op_real(Op::None, &a, 2, 2, 3, &mut out);
        assert_eq!((r, c), (2, 2));
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conj_trans_conjugates_complex() {
        let a = [c32(1.0, 2.0), c32(3.0, -4.0)];
        let mut out = Vec::new();
        let (r, c) = materialize_op_complex(Op::ConjTrans, &a, 1, 2, 2, &mut out);
        assert_eq!((r, c), (2, 1));
        assert_eq!(out, vec![c32(1.0, -2.0), c32(3.0, 4.0)]);
    }

    #[test]
    fn deinterleave_planes() {
        let a = [c32(1.0, -1.0), c32(2.0, -2.0), c32(3.0, -3.0), c32(4.0, -4.0)];
        let (mut re, mut im) = (Vec::new(), Vec::new());
        deinterleave(&a, 2, 2, 2, &mut re, &mut im);
        assert_eq!(re, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(im, vec![-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn undersized_buffer_panics() {
        check_matrix("A", 4, 4, 4, 15);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn bad_ld_panics() {
        check_matrix("B", 2, 8, 4, 64);
    }

    #[test]
    fn empty_matrix_is_fine() {
        check_matrix("A", 0, 5, 5, 0);
    }
}
