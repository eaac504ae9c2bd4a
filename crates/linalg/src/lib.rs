//! `dcmesh-linalg`: dense double-precision linear algebra for the CPU
//! (QXMD) side of DCMESH.
//!
//! The paper's accuracy mechanism hinges on a *full-precision* SCF refresh
//! every 500 QD steps: the wave function is re-orthonormalised and
//! re-diagonalised in FP64, which stops the low-precision BLAS error from
//! accumulating. This crate provides that substrate:
//!
//! * [`hermitian::eigh`] — eigendecomposition of a Hermitian complex
//!   matrix: Householder reduction to a real tridiagonal, implicit-shift
//!   QL, eigenvectors back-transformed by one GEMM and returned with a
//!   fixed phase. Backward stable; cyclic Jacobi is kept only as the test
//!   oracle.
//! * [`orth`] — Löwdin (S^{-1/2}) symmetric orthonormalisation on
//!   `zherk`/`zgemm`, Cholesky orthonormalisation.
//! * [`cholesky`] — Hermitian positive-definite factorisation and solves.
//! * [`ops`] — small dense helpers shared by the above (products on
//!   `zgemm`).
//!
//! The refresh path (Löwdin, `eigh`, the subspace products) is level-3
//! BLAS, so its products appear in the precision ledger by callsite and
//! are deterministic in the sense `mkl-lite`'s GEMM is: a fixed blocked
//! accumulation order, the same bits at any thread count.
//!
//! Matrices are row-major `Vec<C64>` slices with explicit dimension, the
//! same convention as `mkl-lite`.

pub mod cholesky;
pub mod hermitian;
pub mod ops;
pub mod orth;

pub use cholesky::{cholesky_factor, cholesky_solve, trsm_right_lower_conjtrans};
pub use hermitian::{eigh, try_eigh, EighError, EighResult};
pub use orth::{cholesky_orthonormalize, lowdin_orthonormalize, OrthError};
