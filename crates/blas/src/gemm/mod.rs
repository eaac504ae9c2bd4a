//! Level-3 GEMM routines with alternative-compute-mode dispatch.
//!
//! All four precision/domain combinations are provided with the standard
//! BLAS semantics `C ← α·op(A)·op(B) + β·C` on row-major matrices:
//!
//! * [`sgemm`] — `f32`; honours the `FLOAT_TO_*` modes.
//! * [`dgemm`] — `f64`; alternative modes do not apply (as in oneMKL,
//!   which only accelerates single-precision data types).
//! * [`cgemm`] — complex `f32`; honours `FLOAT_TO_*` *and* `COMPLEX_3M`.
//!   This is the routine DCMESH's nonlocal correction lives in.
//! * [`zgemm`] — complex `f64`; honours `COMPLEX_3M` only.
//! * [`zgemmt`] — [`zgemm`] for a product the caller knows to be
//!   Hermitian (`Ψ†·(HΨ)`): one triangle computed, the other mirrored.
//!   [`crate::herk`]'s rank-k updates are the same call with `B = A`.
//!
//! The routines only marshal their arguments into a [`GemmArgs`];
//! everything a call does besides its product — counting, ABFT sampling,
//! timing and logging through [`crate::verbose`], fault injection, the
//! non-finite probe and the checksum — happens once, in [`gemm_call`],
//! and every level-3 routine enters it under its own name.
//!
//! A complex product packs each operand once per k-block — real and
//! imaginary planes out of the interleaved storage in one gather — and
//! runs all of its real products off that packed block
//! ([`complex_product_4m`], [`complex_product_3m`]).

pub mod kernel;
pub mod lowp;
pub(crate) mod pack;
#[cfg(test)]
mod reference;

use crate::abft::{self, AbftElem};
use crate::config::compute_mode;
use crate::context;
use crate::device::{Domain, GemmDesc};
use crate::fault::{self, FaultTarget};
use crate::layout::{check_matrix, Op, Uplo};
use crate::mode::ComputeMode;
use crate::verbose::observe;
use crate::workspace;
use dcmesh_numerics::{Complex, Real, C32, C64};
use kernel::{gemm_packed, real_product, Exec, MicroArch, Product};
use pack::{gather, OpSrc, Side};

/// The operands of one `C ← α·op(A)·op(B) + β·C` call, minus the output.
/// With `uplo` set (complex routines only, `m == n`) the product is
/// Hermitian by the caller's word: that triangle is computed and the
/// other is its conjugate mirror.
#[derive(Clone, Copy)]
pub(crate) struct GemmArgs<'a, T> {
    pub transa: Op,
    pub transb: Op,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub alpha: T,
    pub a: &'a [T],
    pub lda: usize,
    pub b: &'a [T],
    pub ldb: usize,
    pub beta: T,
    pub ldc: usize,
    pub uplo: Option<Uplo>,
}

/// Validates GEMM dimensions and returns the stored shapes of A and B.
#[track_caller]
fn stored_shapes(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
) -> ((usize, usize), (usize, usize)) {
    let a_shape = match transa {
        Op::None => (m, k),
        Op::Trans | Op::ConjTrans => (k, m),
    };
    let b_shape = match transb {
        Op::None => (k, n),
        Op::Trans | Op::ConjTrans => (n, k),
    };
    (a_shape, b_shape)
}

/// The one GEMM call pipeline. In order: count the call on the thread's
/// [`context`] and sample it for ABFT (capturing β·C row sums before they
/// are overwritten); run `product` in `mode` under [`observe`], which
/// times it, emits the call's record and names its ledger row; apply the
/// fault plan, scoped on the mode the call executed in; probe the output
/// for non-finite values; verify the checksum — after injection, so an
/// injected flip lands between the product and its check. Both checks
/// report to the row `observe` named, and both see a triangle routine's
/// output after its mirror: the whole `n × n` matrix the caller gets.
pub(crate) fn gemm_call<T: AbftElem + FaultTarget>(
    routine: &'static str,
    domain: Domain,
    mode: ComputeMode,
    g: &GemmArgs<'_, T>,
    c: &mut [T],
    product: fn(ComputeMode, &GemmArgs<'_, T>, &mut [T]),
) {
    let GemmArgs { transa, transb, m, n, k, beta, ldc, .. } = *g;
    let desc = GemmDesc { domain, m, n, k, mode };
    let ticket = context::with(|cx| cx.begin_gemm());
    let pre = if ticket.abft_sampled {
        abft::pre_sums(ticket.call, beta, c, m, n, ldc)
    } else {
        None
    };
    let key = observe(routine, transa, transb, desc, || product(mode, g, c));
    fault::inject(routine, mode, ticket.call, c, m, n, ldc);
    abft::probe_nonfinite(routine, key, c, m, n, ldc);
    if let Some(pre) = pre {
        abft::check_gemm(routine, key, pre, g, c, mode);
    }
}

/// The mode a double-precision complex call executes in: `COMPLEX_3M` is
/// the only alternative mode that applies to FP64 data.
pub(crate) fn f64_mode() -> ComputeMode {
    match compute_mode() {
        ComputeMode::Complex3m => ComputeMode::Complex3m,
        _ => ComputeMode::Standard,
    }
}

/// Single-precision real GEMM: `C ← α·op(A)·op(B) + β·C`.
///
/// Honours the calling thread's compute mode: in the `FLOAT_TO_*` modes the
/// product is computed on BF16/TF32 component matrices with FP32
/// accumulation.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo: None };
    gemm_call("SGEMM", Domain::Real32, compute_mode(), &g, c, real_gemm_impl);
}

/// Double-precision real GEMM. Alternative compute modes do not apply.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo: None };
    gemm_call("DGEMM", Domain::Real64, ComputeMode::Standard, &g, c, real_gemm_impl);
}

fn real_gemm_impl<T: MicroArch>(mode: ComputeMode, g: &GemmArgs<'_, T>, c: &mut [T]) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, .. } = *g;
    let ((ar, ac), (br, bc)) = stored_shapes(transa, transb, m, n, k);
    check_matrix("A", ar, ac, lda, a.len());
    check_matrix("B", br, bc, ldb, b.len());
    check_matrix("C", m, n, ldc, c.len());
    if m == 0 || n == 0 {
        return;
    }

    // Fast path: alpha == 0 only scales C.
    if alpha == T::ZERO {
        scale_rows(c, m, n, ldc, beta);
        return;
    }

    // The pack reads `op(A)`/`op(B)` straight from the caller's storage;
    // the product accumulator is pooled, so the steady state allocates
    // nothing.
    let mut product = workspace::take_zeroed::<T>(m * n);
    let (asrc, bsrc) = (OpSrc::a(transa, a, lda), OpSrc::b(transb, b, ldb));
    real_product(mode, &asrc, &bsrc, &mut product, m, n, k, Exec::host());

    combine_rows(c, &product, m, n, ldc, alpha, beta);
}

/// `C_block *= beta` over the logical m×n window of a padded matrix.
fn scale_rows<T: Real>(c: &mut [T], m: usize, n: usize, ldc: usize, beta: T) {
    if beta == T::ONE {
        return;
    }
    for i in 0..m {
        for v in &mut c[i * ldc..i * ldc + n] {
            // beta == 0 must overwrite (it may NOT read C, which can hold
            // uninitialised NaNs under BLAS semantics).
            *v = if beta == T::ZERO { T::ZERO } else { *v * beta };
        }
    }
}

/// `C ← α·P + β·C` over the logical window.
fn combine_rows<T: Real>(
    c: &mut [T],
    product: &[T],
    m: usize,
    n: usize,
    ldc: usize,
    alpha: T,
    beta: T,
) {
    for i in 0..m {
        let crow = &mut c[i * ldc..i * ldc + n];
        let prow = &product[i * n..i * n + n];
        if beta == T::ZERO {
            for (cv, &pv) in crow.iter_mut().zip(prow) {
                *cv = alpha * pv;
            }
        } else {
            for (cv, &pv) in crow.iter_mut().zip(prow) {
                *cv = alpha * pv + beta * *cv;
            }
        }
    }
}

/// Single-precision complex GEMM — the routine at the heart of the paper.
///
/// Honours every compute mode: `FLOAT_TO_*` modes quantise the real and
/// imaginary planes and run the four-product complex structure on the
/// emulated systolic arrays; `COMPLEX_3M` runs the three-multiplication
/// structure at native FP32 element precision.
#[allow(clippy::too_many_arguments)]
pub fn cgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: C32,
    a: &[C32],
    lda: usize,
    b: &[C32],
    ldb: usize,
    beta: C32,
    c: &mut [C32],
    ldc: usize,
) {
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo: None };
    gemm_call("CGEMM", Domain::Complex32, compute_mode(), &g, c, complex_gemm_impl);
}

/// Double-precision complex GEMM. Honours `COMPLEX_3M` only.
#[allow(clippy::too_many_arguments)]
pub fn zgemm(
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: C64,
    a: &[C64],
    lda: usize,
    b: &[C64],
    ldb: usize,
    beta: C64,
    c: &mut [C64],
    ldc: usize,
) {
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo: None };
    gemm_call("ZGEMM", Domain::Complex64, f64_mode(), &g, c, complex_gemm_impl);
}

/// [`zgemm`] for an `n × n` product that is Hermitian by construction
/// (oneMKL's `?gemmt`, with this crate's [`Uplo`] convention): only the
/// `uplo` triangle of `C ← α·op(A)·op(B) + β·C` is computed — the tiles
/// of the blocked driver that touch it, each bit-identical to the same
/// tile of the full product — and the other triangle is filled with its
/// conjugate. The diagonal is stored as computed: its imaginary part is
/// the rounding noise of a Hermitian product, not zero by definition as
/// [`crate::zherk`]'s is. With `β ≠ 0`, `C` must arrive holding both
/// triangles, as every routine here returns it.
#[allow(clippy::too_many_arguments)]
pub fn zgemmt(
    uplo: Uplo,
    transa: Op,
    transb: Op,
    n: usize,
    k: usize,
    alpha: C64,
    a: &[C64],
    lda: usize,
    b: &[C64],
    ldb: usize,
    beta: C64,
    c: &mut [C64],
    ldc: usize,
) {
    let g =
        GemmArgs { transa, transb, m: n, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo: Some(uplo) };
    gemm_call("ZGEMMT", Domain::Complex64, f64_mode(), &g, c, complex_gemm_impl);
}

/// Bench hook behind `gemm_hostperf`'s pack-share column: the product
/// `C ← op(A)·op(B)` exactly as `cgemm` / `zgemm` / `zgemmt` / `?herk`
/// would run it in `mode` — same scratch, same gather and conversion,
/// same accumulator zero-fill and writeback — with the microkernel
/// stubbed out, so `C` is garbage and the time is everything that is not
/// arithmetic. Not a BLAS call: nothing is counted, recorded or checked.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn complex_gemm_sans_microkernel<T: MicroArch>(
    mode: ComputeMode,
    uplo: Option<Uplo>,
    transa: Op,
    transb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[Complex<T>],
    lda: usize,
    b: &[Complex<T>],
    ldb: usize,
    c: &mut [Complex<T>],
    ldc: usize,
) {
    let (alpha, beta) = (Complex::from_real(T::ONE), Complex::zero());
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo };
    complex_gemm_with(mode, &g, c, Exec::sans_microkernel());
}

pub(crate) fn complex_gemm_impl<T: MicroArch>(
    mode: ComputeMode,
    g: &GemmArgs<'_, Complex<T>>,
    c: &mut [Complex<T>],
) {
    complex_gemm_with(mode, g, c, Exec::host());
}

fn complex_gemm_with<T: MicroArch>(
    mode: ComputeMode,
    g: &GemmArgs<'_, Complex<T>>,
    c: &mut [Complex<T>],
    exec: Exec<T>,
) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo } = *g;
    let ((ar, ac), (br, bc)) = stored_shapes(transa, transb, m, n, k);
    check_matrix("A", ar, ac, lda, a.len());
    check_matrix("B", br, bc, ldb, b.len());
    check_matrix("C", m, n, ldc, c.len());
    if m == 0 || n == 0 {
        return;
    }
    if alpha == Complex::zero() {
        for i in 0..m {
            for v in &mut c[i * ldc..i * ldc + n] {
                *v = if beta == Complex::zero() { Complex::zero() } else { *v * beta };
            }
        }
        return;
    }

    // The real products of P = op(A)·op(B), row-interleaved: row i of
    // `acc` is [Re | Im] (or [T1 | T2 | T3] under COMPLEX_3M).
    let three_m = mode == ComputeMode::Complex3m;
    let nout = if three_m { 3 } else { 2 };
    let mut acc = workspace::take_zeroed::<T>(nout * m * n);
    let asrc = (OpSrc::a(transa, a, lda), transa == Op::ConjTrans);
    let bsrc = (OpSrc::b(transb, b, ldb), transb == Op::ConjTrans);
    if three_m {
        complex_product_3m(asrc, bsrc, &mut acc, m, n, k, uplo, exec);
    } else {
        complex_product_4m(mode, asrc, bsrc, &mut acc, m, n, k, uplo, exec);
    }

    // C ← α·P + β·C on the interleaved output — of a Hermitian product,
    // on the computed triangle only (the rest of `acc` holds whatever
    // the diagonal tiles spilled over it).
    for (i, (crow, prow)) in c.chunks_mut(ldc).zip(acc.chunks_exact(nout * n)).enumerate() {
        let cols = match uplo {
            None => 0..n,
            Some(Uplo::Lower) => 0..i + 1,
            Some(Uplo::Upper) => i..n,
        };
        for (j, cv) in cols.clone().zip(&mut crow[cols]) {
            let p = if three_m {
                // Re = T1 − T3, Im = T1 + T2.
                Complex { re: prow[j] - prow[2 * n + j], im: prow[j] + prow[n + j] }
            } else {
                Complex { re: prow[j], im: prow[n + j] }
            };
            let ap = alpha.mul_4m(p);
            *cv = if beta == Complex::zero() { ap } else { ap + beta.mul_4m(*cv) };
        }
    }
    if let Some(uplo) = uplo {
        for i in 0..n {
            for j in i + 1..n {
                match uplo {
                    Uplo::Upper => c[j * ldc + i] = c[i * ldc + j].conj(),
                    Uplo::Lower => c[i * ldc + j] = c[j * ldc + i].conj(),
                }
            }
        }
    }
}

/// One complex operand of the fused driver: where `op(X)` is read from,
/// and whether `op()` conjugates.
type ComplexSrc<'a, T> = (OpSrc<'a, Complex<T>>, bool);

/// `z.im`, negated when `op()` conjugates.
#[inline(always)]
fn im_of<T: Real>(z: Complex<T>, conj: bool) -> T {
    if conj {
        -z.im
    } else {
        z.im
    }
}

/// Conventional complex product structure — `Re = ArBr − AiBi`,
/// `Im = ArBi + AiBr`, each component product running at the selected
/// low-precision mode — off one pack of the interleaved operands per
/// k-block. `acc` rows are `[Re | Im]` and must arrive zeroed.
///
/// Per k-block the A planes `[Ar | Ai]` and the B planes
/// `[Br | Bi | −Bi]` are gathered and converted once, and the four real
/// products run off them: `Ar·Br → Re`, `Ai·(−Bi) → Re`, `Ar·Bi → Im`,
/// `Ai·Br → Im`. A C element's sum is therefore ordered (k-block,
/// product, term, kk) — the retained test `reference` restates exactly
/// that with four independent real GEMMs per k-block. The subtraction
/// rides on a negated plane so the kernel stays add-only, like the
/// hardware's signed accumulate, and on B's because B is the small
/// operand of both application shapes (`n = n_orb`): the extra plane
/// costs `n·KC` elements of scratch where a third accumulator output
/// would cost `m·n`. Negating before or after the conversion is the same
/// bits — rounding, splitting and cascading are odd functions — and
/// `Ai·(−Bi)` equals `(−Ai)·Bi` because a product's sign is exact.
#[allow(clippy::too_many_arguments)]
fn complex_product_4m<T: MicroArch>(
    mode: ComputeMode,
    (asrc, conj_a): ComplexSrc<'_, T>,
    (bsrc, conj_b): ComplexSrc<'_, T>,
    acc: &mut [T],
    m: usize,
    n: usize,
    k: usize,
    uplo: Option<Uplo>,
    exec: Exec<T>,
) {
    let (d, rung) = (mode.split_depth().unwrap_or(1), exec.kern.rung);
    let (a_re, a_im) = (0, d);
    let (b_re, b_im, b_im_neg) = (0, d, 2 * d);
    let products = [
        Product { a: a_re, b: b_re, depth: d, out: 0 },     // Ar·Br → Re
        Product { a: a_im, b: b_im_neg, depth: d, out: 0 }, // Ai·(−Bi) → Re
        Product { a: a_re, b: b_im, depth: d, out: 1 },     // Ar·Bi → Im
        Product { a: a_im, b: b_re, depth: d, out: 1 },     // Ai·Br → Im
    ];
    gemm_packed(
        acc,
        2,
        m,
        n,
        k,
        &products,
        uplo,
        move |r0, rows, k0, kc, mr, dst: &mut [T], stride| {
            let len = gather(rung, &asrc.offset(r0), rows, k0, kc, mr, dst, d * stride, |z| {
                [z.re, im_of(z, conj_a)]
            });
            for planes in dst.chunks_mut(d * stride) {
                T::convert(rung, mode, Side::A, planes, stride, len);
            }
        },
        |k0, kc, nr, dst: &mut [T], stride| {
            let len = gather(rung, &bsrc, n, k0, kc, nr, dst, d * stride, |z| {
                let im = im_of(z, conj_b);
                [z.re, im, -im]
            });
            for planes in dst.chunks_mut(d * stride) {
                T::convert(rung, mode, Side::B, planes, stride, len);
            }
        },
        exec,
    );
}

/// 3M complex product structure: three real products at native element
/// precision, all accumulated off one packed k-block.
///
/// ```text
/// T1 = (Ar + Ai)·Br;  T2 = Ar·(Bi − Br);  T3 = Ai·(Br + Bi)
/// Re = T1 − T3;       Im = T1 + T2
/// ```
///
/// `acc` rows are `[T1 | T2 | T3]` and must arrive zeroed; the plane sums
/// are formed as the operands are packed.
#[allow(clippy::too_many_arguments)]
fn complex_product_3m<T: MicroArch>(
    (asrc, conj_a): ComplexSrc<'_, T>,
    (bsrc, conj_b): ComplexSrc<'_, T>,
    acc: &mut [T],
    m: usize,
    n: usize,
    k: usize,
    uplo: Option<Uplo>,
    exec: Exec<T>,
) {
    let products = [0, 1, 2].map(|t| Product { a: t, b: t, depth: 1, out: t });
    let rung = exec.kern.rung;
    gemm_packed(
        acc,
        3,
        m,
        n,
        k,
        &products,
        uplo,
        move |r0, rows, k0, kc, mr, dst: &mut [T], stride| {
            gather(rung, &asrc.offset(r0), rows, k0, kc, mr, dst, stride, |z| {
                let im = im_of(z, conj_a);
                [z.re + im, z.re, im]
            });
        },
        |k0, kc, nr, dst: &mut [T], stride| {
            gather(rung, &bsrc, n, k0, kc, nr, dst, stride, |z| {
                let im = im_of(z, conj_b);
                [z.re, im - z.re, z.re + im]
            });
        },
        exec,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::kernel::Schedule;
    use super::reference::same_bits;
    use crate::config::with_compute_mode;
    use dcmesh_numerics::{c32, c64, Rung};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_c32(rng: &mut StdRng, len: usize) -> Vec<C32> {
        (0..len).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    fn rand_c64(rng: &mut StdRng, len: usize) -> Vec<C64> {
        (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    /// Naive reference cgemm in f64 for validation.
    #[allow(clippy::too_many_arguments)]
    fn ref_cgemm(
        transa: Op,
        transb: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: C64,
        a: &[C64],
        lda: usize,
        b: &[C64],
        ldb: usize,
        beta: C64,
        c: &mut [C64],
        ldc: usize,
    ) {
        let geta = |i: usize, kk: usize| match transa {
            Op::None => a[i * lda + kk],
            Op::Trans => a[kk * lda + i],
            Op::ConjTrans => a[kk * lda + i].conj(),
        };
        let getb = |kk: usize, j: usize| match transb {
            Op::None => b[kk * ldb + j],
            Op::Trans => b[j * ldb + kk],
            Op::ConjTrans => b[j * ldb + kk].conj(),
        };
        for i in 0..m {
            for j in 0..n {
                let mut s = C64::zero();
                for kk in 0..k {
                    s += geta(i, kk) * getb(kk, j);
                }
                let cv = &mut c[i * ldc + j];
                *cv = alpha * s + beta * *cv;
            }
        }
    }

    #[test]
    fn sgemm_matches_reference_all_ops() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m, n, k) = (7, 9, 11);
        for &ta in &[Op::None, Op::Trans] {
            for &tb in &[Op::None, Op::Trans] {
                let (a_shape, b_shape) = super::stored_shapes(ta, tb, m, n, k);
                let a: Vec<f32> =
                    (0..a_shape.0 * a_shape.1).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let b: Vec<f32> =
                    (0..b_shape.0 * b_shape.1).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut c: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let c0 = c.clone();
                sgemm(ta, tb, m, n, k, 2.0, &a, a_shape.1, &b, b_shape.1, 0.5, &mut c, n);

                // reference in f64
                let a64: Vec<C64> = a.iter().map(|&x| c64(x as f64, 0.0)).collect();
                let b64: Vec<C64> = b.iter().map(|&x| c64(x as f64, 0.0)).collect();
                let mut c64v: Vec<C64> = c0.iter().map(|&x| c64(x as f64, 0.0)).collect();
                ref_cgemm(
                    ta,
                    tb,
                    m,
                    n,
                    k,
                    c64(2.0, 0.0),
                    &a64,
                    a_shape.1,
                    &b64,
                    b_shape.1,
                    c64(0.5, 0.0),
                    &mut c64v,
                    n,
                );
                for (i, (&x, &y)) in c.iter().zip(&c64v).enumerate() {
                    assert!(
                        (x as f64 - y.re).abs() < 1e-5,
                        "op({ta:?},{tb:?}) i={i}: {x} vs {}",
                        y.re
                    );
                }
            }
        }
    }

    #[test]
    fn cgemm_matches_reference_all_ops_and_modes() {
        let mut rng = StdRng::seed_from_u64(6);
        let (m, n, k) = (6, 5, 8);
        for &ta in &[Op::None, Op::Trans, Op::ConjTrans] {
            for &tb in &[Op::None, Op::Trans, Op::ConjTrans] {
                let (a_shape, b_shape) = super::stored_shapes(ta, tb, m, n, k);
                let a = rand_c32(&mut rng, a_shape.0 * a_shape.1);
                let b = rand_c32(&mut rng, b_shape.0 * b_shape.1);
                let c0 = rand_c32(&mut rng, m * n);
                let alpha = c32(1.25, -0.5);
                let beta = c32(0.25, 0.75);

                let a64: Vec<C64> = a.iter().map(|z| z.to_c64()).collect();
                let b64: Vec<C64> = b.iter().map(|z| z.to_c64()).collect();
                let mut cref: Vec<C64> = c0.iter().map(|z| z.to_c64()).collect();
                ref_cgemm(
                    ta,
                    tb,
                    m,
                    n,
                    k,
                    alpha.to_c64(),
                    &a64,
                    a_shape.1,
                    &b64,
                    b_shape.1,
                    beta.to_c64(),
                    &mut cref,
                    n,
                );

                for mode in ComputeMode::ALL {
                    let tol = match mode {
                        ComputeMode::FloatToBf16 => 0.1,
                        ComputeMode::FloatToTf32 => 0.02,
                        ComputeMode::FloatToBf16x2 => 1e-3,
                        _ => 1e-4,
                    };
                    let mut c = c0.clone();
                    with_compute_mode(mode, || {
                        cgemm(ta, tb, m, n, k, alpha, &a, a_shape.1, &b, b_shape.1, beta, &mut c, n);
                    });
                    for (i, (x, y)) in c.iter().zip(&cref).enumerate() {
                        let d = (x.to_c64() - *y).abs();
                        assert!(
                            d < tol,
                            "{mode:?} op({ta:?},{tb:?}) i={i}: {:?} vs {:?} (d={d})",
                            x,
                            y
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zgemm_standard_and_3m_agree_to_f64_accuracy() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, n, k) = (5, 6, 7);
        let a = rand_c64(&mut rng, m * k);
        let b = rand_c64(&mut rng, k * n);
        let mut c_std = vec![C64::zero(); m * n];
        let mut c_3m = vec![C64::zero(); m * n];
        with_compute_mode(ComputeMode::Standard, || {
            zgemm(Op::None, Op::None, m, n, k, C64::one(), &a, k, &b, n, C64::zero(), &mut c_std, n);
        });
        with_compute_mode(ComputeMode::Complex3m, || {
            zgemm(Op::None, Op::None, m, n, k, C64::one(), &a, k, &b, n, C64::zero(), &mut c_3m, n);
        });
        let mut max_d = 0.0f64;
        let mut any_diff = false;
        for (x, y) in c_std.iter().zip(&c_3m) {
            let d = (*x - *y).abs();
            max_d = max_d.max(d);
            if x != y {
                any_diff = true;
            }
        }
        assert!(max_d < 1e-13, "3M deviates too much: {max_d}");
        // The two algorithms round differently; identical output would
        // suggest 3M was not actually taken.
        assert!(any_diff, "3M path produced bit-identical results — suspicious");
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [f32::NAN];
        sgemm(Op::None, Op::None, 1, 1, 2, 1.0, &a, 2, &b, 1, 0.0, &mut c, 1);
        assert_eq!(c[0], 11.0);

        let mut cz = [c32(f32::NAN, f32::NAN)];
        let az = [c32(1.0, 0.0)];
        let bz = [c32(2.0, 0.0)];
        cgemm(Op::None, Op::None, 1, 1, 1, C32::one(), &az, 1, &bz, 1, C32::zero(), &mut cz, 1);
        assert_eq!(cz[0], c32(2.0, 0.0));
    }

    #[test]
    fn alpha_zero_skips_product() {
        // A deliberately contains NaN: with alpha == 0 BLAS must not touch it.
        let a = [f32::NAN];
        let b = [f32::NAN];
        let mut c = [7.0f32];
        sgemm(Op::None, Op::None, 1, 1, 1, 0.0, &a, 1, &b, 1, 2.0, &mut c, 1);
        assert_eq!(c[0], 14.0);
    }

    #[test]
    fn leading_dimension_padding_respected() {
        // C has ldc = 3 with a padding column that must survive untouched.
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [0.0f32, 0.0, -9.0, 0.0, 0.0, -9.0];
        sgemm(Op::None, Op::None, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 3);
        assert_eq!(c, [1.0, 2.0, -9.0, 3.0, 4.0, -9.0]);
    }

    #[test]
    fn dgemm_ignores_low_precision_modes() {
        let a = vec![0.123456789012345f64; 16];
        let b = vec![0.987654321098765f64; 16];
        let run = |mode| {
            let mut c = vec![0.0f64; 16];
            with_compute_mode(mode, || {
                dgemm(Op::None, Op::None, 4, 4, 4, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
            });
            c
        };
        assert_eq!(run(ComputeMode::Standard), run(ComputeMode::FloatToBf16));
    }

    #[test]
    fn steady_state_reuses_workspace_buffers() {
        // After warm-up calls per mode, repeated identical calls must not
        // grow the pool: no fresh Vecs (misses) and no capacity growth
        // (grows). This is the in-process proxy for the counting-allocator
        // gate in the `gemm_hostperf` bench. Two warm-up calls: the first
        // sizes the buffers, the second settles the LIFO pairing when the
        // pool was seeded by a different mode's checkout pattern. Both
        // application call shapes (project `Ψ†·X`, apply `Ψ·S`) and both
        // complex routines; k = 300 spans two k-blocks.
        let mut rng = StdRng::seed_from_u64(42);
        let (grid, orb) = (300, 12);
        let psi = rand_c32(&mut rng, grid * orb);
        let sub = rand_c32(&mut rng, orb * orb);
        let psi64 = rand_c64(&mut rng, grid * orb);
        let mut small = vec![C32::zero(); orb * orb];
        let mut tall = vec![C32::zero(); grid * orb];
        let mut small64 = vec![C64::zero(); orb * orb];
        let mut calls = |single: bool| {
            if single {
                let (one, zero) = (C32::one(), C32::zero());
                cgemm(Op::ConjTrans, Op::None, orb, orb, grid, one, &psi, orb, &psi, orb, zero, &mut small, orb);
                cgemm(Op::None, Op::None, grid, orb, orb, one, &psi, orb, &sub, orb, zero, &mut tall, orb);
            } else {
                let (one, zero) = (C64::one(), C64::zero());
                zgemm(Op::ConjTrans, Op::None, orb, orb, grid, one, &psi64, orb, &psi64, orb, zero, &mut small64, orb);
            }
        };
        crate::workspace::with_fresh_workspace(|| {
            for mode in ComputeMode::ALL {
                with_compute_mode(mode, || {
                    for single in [true, false] {
                        for _ in 0..2 {
                            calls(single);
                        }
                        let warm = crate::workspace::combined_stats();
                        for _ in 0..3 {
                            calls(single);
                        }
                        let after = crate::workspace::combined_stats();
                        let what = if single { "cgemm" } else { "zgemm" };
                        assert_eq!(after.misses, warm.misses, "{mode:?} {what}: pool missed in steady state");
                        assert_eq!(after.grows, warm.grows, "{mode:?} {what}: pool grew in steady state");
                        assert!(after.takes > warm.takes, "{mode:?} {what}: pool not used at all");
                    }
                });
            }
        });
    }

    /// Calls `check(mode, g, c0)` on every case of
    /// [`fused_matches_reference`]: all 9 `op` pairs, padded
    /// `lda`/`ldb`/`ldc`, a shape inside one k-block, one straddling `KC`
    /// and one taller than a row block (A packed in several pieces), β = 0
    /// and β ≠ 0, in every mode of `modes`.
    fn each_case<T: MicroArch>(
        modes: &[ComputeMode],
        mut check: impl FnMut(ComputeMode, &GemmArgs<'_, Complex<T>>, &[Complex<T>]),
    ) {
        let mut rng = StdRng::seed_from_u64(15);
        let mut rand = |len: usize| -> Vec<Complex<T>> {
            (0..len)
                .map(|_| Complex {
                    re: T::from_f64(rng.gen_range(-1.0..1.0)),
                    im: T::from_f64(rng.gen_range(-1.0..1.0)),
                })
                .collect()
        };
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let cx = |re: f64, im: f64| Complex { re: T::from_f64(re), im: T::from_f64(im) };
        for (m, n, k) in [(7, 5, 9), (13, 34, 300), (300, 6, 17)] {
            for transa in ops {
                for transb in ops {
                    let ((ar, ac), (br, bc)) = stored_shapes(transa, transb, m, n, k);
                    let (lda, ldb, ldc) = (ac + 3, bc + 1, n + 2);
                    let a = rand(ar * lda);
                    let b = rand(br * ldb);
                    let c0 = rand(m * ldc);
                    for (alpha, beta) in [(cx(1.25, -0.5), cx(0.25, 0.75)), (cx(1.0, 0.0), cx(0.0, 0.0))] {
                        let g = GemmArgs { transa, transb, m, n, k, alpha, a: &a, lda, b: &b, ldb, beta, ldc, uplo: None };
                        for &mode in modes {
                            check(mode, &g, &c0);
                        }
                    }
                }
            }
        }
    }

    /// The tile of every rung this host runs, widest first.
    fn tiles<T: MicroArch>() -> impl Iterator<Item = kernel::MicroKernel<T>> {
        Rung::ALL.into_iter().filter(|r| r.available()).map(T::tile)
    }

    /// Whether two complex results agree bit for bit (NaNs of any payload
    /// agreeing).
    fn same_complex<T: Real>(x: Complex<T>, y: Complex<T>) -> bool {
        same_bits(x.re, y.re) && same_bits(x.im, y.im)
    }

    /// The fused driver against the retained four-call reference, bit for
    /// bit, on every case of [`each_case`], every rung's kernel, and the
    /// sequential and rayon schedules.
    fn fused_matches_reference<T: MicroArch>(modes: &[ComputeMode]) {
        each_case::<T>(modes, |mode, g, c0| {
            let GemmArgs { transa, transb, m, n, k, beta, .. } = *g;
            for kern in tiles::<T>() {
                let mut want = c0.to_vec();
                reference::complex_gemm(mode, g, &mut want, Exec { kern, schedule: Some(Schedule::One) });
                for schedule in [Schedule::One, Schedule::Rows, Schedule::Depth] {
                    let mut got = c0.to_vec();
                    complex_gemm_with(mode, g, &mut got, Exec { kern, schedule: Some(schedule) });
                    for (i, (&x, &y)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            same_complex(x, y),
                            "{mode:?} op({transa:?},{transb:?}) ({m},{n},{k}) `{}` \
                             {schedule:?} β={beta:?} i={i}: {x:?} vs {y:?}",
                            kern.name
                        );
                    }
                }
            }
        });
    }

    /// A call pinned to each rung — its tile, gather and conversion — is
    /// the host's call bit for bit, on every case of [`each_case`].
    fn rungs_match_the_host<T: MicroArch>(modes: &[ComputeMode]) {
        each_case::<T>(modes, |mode, g, c0| {
            let GemmArgs { transa, transb, m, n, k, .. } = *g;
            let run = |exec| {
                let mut c = c0.to_vec();
                complex_gemm_with(mode, g, &mut c, exec);
                c
            };
            let host = run(Exec::host());
            for kern in tiles::<T>() {
                let got = run(Exec { kern, ..Exec::host() });
                for (i, (&x, &y)) in got.iter().zip(&host).enumerate() {
                    assert!(
                        same_complex(x, y),
                        "{mode:?} op({transa:?},{transb:?}) ({m},{n},{k}) `{}` i={i}: {x:?} vs {y:?}",
                        kern.name
                    );
                }
            }
        });
    }

    #[test]
    fn every_rung_bit_identical_to_the_host_in_every_mode() {
        rungs_match_the_host::<f32>(&ComputeMode::ALL);
        // The two modes that apply to FP64 data (see `f64_mode`).
        rungs_match_the_host::<f64>(&[ComputeMode::Standard, ComputeMode::Complex3m]);
    }

    #[test]
    fn fused_cgemm_bit_identical_to_four_call_reference() {
        fused_matches_reference::<f32>(&ComputeMode::ALL);
    }

    #[test]
    fn fused_zgemm_bit_identical_to_four_call_reference() {
        // The two modes that apply to FP64 data (see `f64_mode`).
        fused_matches_reference::<f64>(&[ComputeMode::Standard, ComputeMode::Complex3m]);
    }

    #[test]
    fn nonfinite_in_any_complex_plane_surfaces() {
        // 0·Inf / 0·NaN must reach C wherever the non-finite value sits:
        // in B's imaginary plane (packed twice, as is and negated, and
        // met by A's zero real and imaginary planes), in A's imaginary
        // plane, and next to an edge panel's pad lanes — in every mode,
        // with every shape dimension ragged for any tile in use.
        let (m, n, k) = (5, 9, 7);
        for mode in ComputeMode::ALL {
            for bad in [f32::INFINITY, f32::NAN] {
                with_compute_mode(mode, || {
                    let run = |a: &[C32], b: &[C32]| {
                        let mut c = vec![C32::zero(); m * n];
                        cgemm(Op::None, Op::None, m, n, k, C32::one(), a, k, b, n, C32::zero(), &mut c, n);
                        c
                    };
                    // B's imaginary plane, last (pad-side) column; A zero.
                    let a = vec![C32::zero(); m * k];
                    let mut b = vec![c32(1.0, 1.0); k * n];
                    b[3 * n + n - 1] = c32(1.0, bad);
                    let c = run(&a, &b);
                    for i in 0..m {
                        let z = c[i * n + n - 1];
                        assert!(z.re.is_nan() && z.im.is_nan(), "{mode:?} {bad}: B.im lost in row {i}: {z:?}");
                        assert_eq!(c[i * n], C32::zero(), "{mode:?}: clean column corrupted");
                    }
                    // A's imaginary plane, last (pad-side) row; B zero.
                    let mut a = vec![c32(1.0, 1.0); m * k];
                    a[(m - 1) * k + 2] = c32(1.0, bad);
                    let b = vec![C32::zero(); k * n];
                    let c = run(&a, &b);
                    for j in 0..n {
                        let z = c[(m - 1) * n + j];
                        assert!(z.re.is_nan() && z.im.is_nan(), "{mode:?} {bad}: A.im lost in col {j}: {z:?}");
                        assert_eq!(c[j], C32::zero(), "{mode:?}: clean row corrupted");
                    }
                });
            }
        }
    }

    #[test]
    fn fault_injected_inf_in_b_survives_zero_rows_of_a() {
        // End-to-end version of the kernel zero-skip regression: a
        // FaultPlan corrupts B with +Inf (via a GEMM writing into B's
        // buffer), and a downstream GEMM whose A has an all-zero row must
        // still surface the non-finite value in C as NaN — the pattern the
        // supervisor's health checks rely on.
        let k = 4;
        let n = 3;
        // B: k×n, finite, then corrupt one element with Inf the same way
        // fault::inject does.
        let mut b = vec![1.0f32; k * n];
        b[n + 2] = f32::INFINITY;
        // A: m×k with row 1 all zeros (e.g. an empty orbital block).
        let m = 2;
        let mut a = vec![0.5f32; m * k];
        for v in &mut a[k..2 * k] {
            *v = 0.0;
        }
        let mut c = vec![0.0f32; m * n];
        sgemm(Op::None, Op::None, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        assert!(c[2].is_infinite(), "nonzero row: Inf must reach C, got {}", c[2]);
        assert!(
            c[n + 2].is_nan(),
            "zero row of A times Inf in B must be NaN (0·Inf), got {}",
            c[n + 2]
        );
    }

    #[test]
    fn cgemm_bf16_less_accurate_than_tf32() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, n, k) = (8, 8, 32);
        let a = rand_c32(&mut rng, m * k);
        let b = rand_c32(&mut rng, k * n);
        let mut exact = vec![C64::zero(); m * n];
        let a64: Vec<C64> = a.iter().map(|z| z.to_c64()).collect();
        let b64: Vec<C64> = b.iter().map(|z| z.to_c64()).collect();
        ref_cgemm(Op::None, Op::None, m, n, k, C64::one(), &a64, k, &b64, n, C64::zero(), &mut exact, n);

        let err = |mode| {
            let mut c = vec![C32::zero(); m * n];
            with_compute_mode(mode, || {
                cgemm(Op::None, Op::None, m, n, k, C32::one(), &a, k, &b, n, C32::zero(), &mut c, n);
            });
            c.iter()
                .zip(&exact)
                .map(|(x, y)| (x.to_c64() - *y).abs())
                .fold(0.0, f64::max)
        };
        let e_bf16 = err(ComputeMode::FloatToBf16);
        let e_tf32 = err(ComputeMode::FloatToTf32);
        let e_x3 = err(ComputeMode::FloatToBf16x3);
        assert!(e_bf16 > e_tf32, "bf16 {e_bf16} <= tf32 {e_tf32}");
        assert!(e_tf32 > e_x3, "tf32 {e_tf32} <= x3 {e_x3}");
    }
}
