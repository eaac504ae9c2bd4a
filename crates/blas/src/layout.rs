//! Matrix layout conventions and the BLAS `op()` argument.
//!
//! All matrices in this crate are **row-major** with an explicit leading
//! dimension `ld`: element `(i, j)` of an `m × n` matrix lives at index
//! `i * ld + j`, and `ld >= n`. This is the natural Rust layout; the GEMM
//! semantics (`m`, `n`, `k`, `op(A)`, `op(B)`) are the standard BLAS ones,
//! so the paper's dimension tables translate directly.

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

/// Which triangle of a Hermitian `n × n` output a routine *computes*
/// (`herk`, `gemmt`). This crate's convention: both triangles are filled
/// on return — the other one is the exact conjugate mirror of the
/// computed one — so callers never need to know which was picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Uplo {
    /// Compute the upper triangle, mirror into the lower.
    #[default]
    Upper,
    /// Compute the lower triangle, mirror into the upper.
    Lower,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_shapes() {
        assert_eq!(Op::None.applied_shape(3, 5), (3, 5));
        assert_eq!(Op::Trans.applied_shape(3, 5), (5, 3));
        assert_eq!(Op::ConjTrans.applied_shape(3, 5), (5, 3));
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
