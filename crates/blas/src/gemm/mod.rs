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
//! and every level-3 routine enters it under its own name. The call's
//! element type ([`Element`]) decides its domain, the mode it runs in and
//! its product's structure; everything around the product — the shape
//! checks, α = 0, the accumulator and the writeback — is one body,
//! [`level3`], for all seven routines.
//!
//! A complex product packs each operand once per k-block — real and
//! imaginary planes out of the interleaved storage in one gather — and
//! runs all of its real products off that packed block
//! ([`complex_product_4m`], [`complex_product_3m`]).

pub mod kernel;
pub(crate) mod pack;
#[cfg(test)]
mod reference;

use crate::abft;
use crate::context;
use crate::device::GemmDesc;
use crate::element::{executed_mode, Element};
use crate::fault;
use crate::layout::{check_matrix, Op, Uplo};
use crate::mode::ComputeMode;
use crate::verbose::observe;
use crate::workspace;
use dcmesh_numerics::{Complex, Real, C32, C64};
use kernel::{gemm_packed, Exec, MicroArch, Product};
use pack::{gather, OpSrc, Side};

/// The operands of one `C ← α·op(A)·op(B) + β·C` call, minus the output.
/// With `uplo` set (complex routines only, `m == n`) the product is
/// Hermitian by the caller's word: that triangle is computed and the
/// other is its conjugate mirror. With `real_diag` (the rank-k updates)
/// the output's diagonal is then made exactly real.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct GemmArgs<'a, T> {
    pub(crate) transa: Op,
    pub(crate) transb: Op,
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) alpha: T,
    pub(crate) a: &'a [T],
    pub(crate) lda: usize,
    pub(crate) b: &'a [T],
    pub(crate) ldb: usize,
    pub(crate) beta: T,
    pub(crate) ldc: usize,
    pub(crate) uplo: Option<Uplo>,
    pub(crate) real_diag: bool,
}

/// The one GEMM call pipeline. In order: find the mode the call runs in
/// from its element type; count the call on the thread's [`context`] and
/// sample it for ABFT (capturing β·C row sums before they are
/// overwritten); run [`level3`] in that mode under [`observe`], which
/// times it, emits the call's record and names its ledger row; apply the
/// fault plan, scoped on the mode the call executed in; probe the output
/// for non-finite values; verify the checksum — after injection, so an
/// injected flip lands between the product and its check. Both checks
/// report to the row `observe` named, and both see a triangle routine's
/// output after its mirror: the whole `n × n` matrix the caller gets.
pub(crate) fn gemm_call<E: Element>(routine: &'static str, g: &GemmArgs<'_, E>, c: &mut [E]) {
    let GemmArgs { transa, transb, m, n, k, beta, ldc, .. } = *g;
    let mode = executed_mode(E::DOMAIN);
    let desc = GemmDesc { domain: E::DOMAIN, m, n, k, mode };
    let ticket = context::with(|cx| cx.begin_gemm());
    let pre = if ticket.abft_sampled {
        abft::pre_sums(ticket.call, beta, c, m, n, ldc)
    } else {
        None
    };
    let key = observe(routine, transa, transb, desc, || level3(mode, g, c, Exec::host(m)));
    fault::inject(routine, mode, ticket.call, c, m, n, ldc);
    abft::probe_nonfinite(routine, key, c, m, n, ldc);
    if let Some(pre) = pre {
        abft::check_gemm(routine, key, pre, g, c, mode);
    }
}

/// The one level-3 body: `C ← α·op(A)·op(B) + β·C` in `mode`, the
/// product run on `exec`. After the shape checks, an empty output is
/// left alone and α = 0 only applies β to C. Otherwise the element
/// type's product runs into one zeroed pooled accumulator, and `α·P +
/// β·C` is written over the logical window — of a Hermitian output, the
/// computed triangle only — before the conjugate mirror. Last, a rank-k
/// update's diagonal is made real. β follows reference BLAS for every
/// element type: β = 0 never reads C (it may hold NaNs), β = 1 takes C
/// as it is, any other β scales it.
pub(crate) fn level3<E: Element>(
    mode: ComputeMode,
    g: &GemmArgs<'_, E>,
    c: &mut [E],
    exec: Exec<E::Real>,
) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag } = *g;
    let ((ar, ac), (br, bc)) = (transa.applied_shape(m, k), transb.applied_shape(k, n));
    check_matrix("A", ar, ac, lda, a.len());
    check_matrix("B", br, bc, ldb, b.len());
    check_matrix("C", m, n, ldc, c.len());
    if m == 0 || n == 0 {
        return;
    }
    let plus_beta_c = |x: E, cv: E| {
        if beta == E::ZERO {
            x
        } else if beta == E::ONE {
            x + cv
        } else {
            x + beta * cv
        }
    };
    if alpha == E::ZERO {
        if beta != E::ONE {
            for i in 0..m {
                for v in &mut c[i * ldc..i * ldc + n] {
                    *v = if beta == E::ZERO { E::ZERO } else { beta * *v };
                }
            }
        }
    } else {
        let nout = E::outputs(mode);
        let mut acc = workspace::take_zeroed::<E::Real>(nout * m * n);
        E::product(mode, g, &mut acc, exec);
        for (i, (crow, prow)) in c.chunks_mut(ldc).zip(acc.chunks_exact(nout * n)).enumerate() {
            let cols = match uplo {
                None => 0..n,
                Some(Uplo::Lower) => 0..i + 1,
                Some(Uplo::Upper) => i..n,
            };
            for (j, cv) in cols.clone().zip(&mut crow[cols]) {
                *cv = plus_beta_c(alpha * E::element(mode, prow, n, j), *cv);
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
    if real_diag {
        for i in 0..n {
            c[i * ldc + i] = c[i * ldc + i].real_part();
        }
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
    let (uplo, real_diag) = (None, false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    gemm_call("SGEMM", &g, c);
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
    let (uplo, real_diag) = (None, false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    gemm_call("DGEMM", &g, c);
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
    let (uplo, real_diag) = (None, false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    gemm_call("CGEMM", &g, c);
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
    let (uplo, real_diag) = (None, false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    gemm_call("ZGEMM", &g, c);
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
    let (m, uplo, real_diag) = (n, Some(uplo), false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    gemm_call("ZGEMMT", &g, c);
}

/// Bench hook behind `gemm_hostperf`'s pack-share column: the product
/// `C ← op(A)·op(B)` exactly as `cgemm` / `zgemm` / `zgemmt` / `?herk`
/// would run it in `mode` — same body, scratch, gather and conversion,
/// accumulator zero-fill and writeback — with the microkernel stubbed
/// out, so `C` is garbage and the time is everything that is not
/// arithmetic. Not a BLAS call: nothing is counted, recorded or checked.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn complex_gemm_sans_microkernel<T: MicroArch + Element>(
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
    let (alpha, beta, real_diag) = (Complex::ONE, Complex::ZERO, false);
    let g = GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, uplo, real_diag };
    level3(mode, &g, c, Exec::sans_microkernel(m));
}

/// Where the driver reads `op(A)` and `op(B)` from, each with whether
/// its `op()` conjugates.
pub(crate) fn op_srcs<'a, T>(g: &GemmArgs<'a, T>) -> ((OpSrc<'a, T>, bool), (OpSrc<'a, T>, bool)) {
    let conj = |op| op == Op::ConjTrans;
    let a = (OpSrc::a(g.transa, g.a, g.lda), conj(g.transa));
    (a, (OpSrc::b(g.transb, g.b, g.ldb), conj(g.transb)))
}

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
pub(crate) fn complex_product_4m<T: MicroArch>(
    mode: ComputeMode,
    g: &GemmArgs<'_, Complex<T>>,
    acc: &mut [T],
    exec: Exec<T>,
) {
    let (((asrc, conj_a), (bsrc, conj_b)), GemmArgs { m, n, k, uplo, .. }) = (op_srcs(g), *g);
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
pub(crate) fn complex_product_3m<T: MicroArch>(
    g: &GemmArgs<'_, Complex<T>>,
    acc: &mut [T],
    exec: Exec<T>,
) {
    let (((asrc, conj_a), (bsrc, conj_b)), GemmArgs { m, n, k, uplo, .. }) = (op_srcs(g), *g);
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
                let (a_shape, b_shape) = (ta.applied_shape(m, k), tb.applied_shape(k, n));
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
                let (a_shape, b_shape) = (ta.applied_shape(m, k), tb.applied_shape(k, n));
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
    fn every_routine_runs_in_its_element_types_domain_and_mode() {
        // The element rule, whole: for each routine in each ambient mode,
        // the call's record carries the domain and the mode it executed in.
        use crate::device::Domain;
        use crate::{cherk, verbose, zherk};
        use ComputeMode::{Complex3m, Standard};
        let thread: fn(ComputeMode) -> ComputeMode = |mode| mode;
        let standard: fn(ComputeMode) -> ComputeMode = |_| Standard;
        let three_m: fn(ComputeMode) -> ComputeMode = |mode| if mode == Complex3m { mode } else { Standard };
        const N: Op = Op::None;
        const C: Op = Op::ConjTrans;
        const U: Uplo = Uplo::Upper;
        let (r32, r64, z32, z64) = ([1.0f32; 4], [1.0f64; 4], [C32::one(); 4], [C64::one(); 4]);
        #[allow(clippy::type_complexity)]
        let rows: [(&str, Domain, fn(ComputeMode) -> ComputeMode, &dyn Fn()); 7] = [
            ("SGEMM", Domain::Real32, thread, &|| sgemm(N, N, 2, 2, 2, 1.0, &r32, 2, &r32, 2, 0.0, &mut [0.0; 4], 2)),
            ("DGEMM", Domain::Real64, standard, &|| dgemm(N, N, 2, 2, 2, 1.0, &r64, 2, &r64, 2, 0.0, &mut [0.0; 4], 2)),
            ("CGEMM", Domain::Complex32, thread, &|| {
                cgemm(N, N, 2, 2, 2, C32::one(), &z32, 2, &z32, 2, C32::zero(), &mut [C32::zero(); 4], 2)
            }),
            ("CHERK", Domain::Complex32, thread, &|| cherk(U, C, 2, 2, 1.0, &z32, 2, 0.0, &mut [C32::zero(); 4], 2)),
            ("ZGEMM", Domain::Complex64, three_m, &|| {
                zgemm(N, N, 2, 2, 2, C64::one(), &z64, 2, &z64, 2, C64::zero(), &mut [C64::zero(); 4], 2)
            }),
            ("ZGEMMT", Domain::Complex64, three_m, &|| {
                zgemmt(U, C, N, 2, 2, C64::one(), &z64, 2, &z64, 2, C64::zero(), &mut [C64::zero(); 4], 2)
            }),
            ("ZHERK", Domain::Complex64, three_m, &|| zherk(U, C, 2, 2, 1.0, &z64, 2, 0.0, &mut [C64::zero(); 4], 2)),
        ];
        verbose::set_recording(true);
        for ambient in ComputeMode::ALL {
            for (routine, domain, executed, call) in rows {
                verbose::clear();
                with_compute_mode(ambient, call);
                let records = verbose::drain();
                assert_eq!(records.len(), 1, "{routine} in {ambient:?}: {records:?}");
                let got = (records[0].routine, records[0].domain, records[0].mode);
                assert_eq!(got, (routine, domain, executed(ambient)), "ambient {ambient:?}");
            }
        }
        verbose::set_recording(false);
    }

    #[test]
    fn beta_one_takes_c_as_it_is_in_every_complex_routine() {
        // Reference BLAS's rule for every element type: β = 1 adds α·P to
        // C as it is, and with α = 0 leaves C untouched. Multiplying C by
        // (1, 0) instead would turn (±Inf, 0) into (±Inf, NaN) and
        // (−0, y < 0) into (+0, y).
        fn check<T: MicroArch + Element>(
            routine: &str,
            triangle: bool,
            gemm: impl Fn(Complex<T>, Complex<T>, &[Complex<T>], &mut [Complex<T>]),
        ) {
            let cx = |re: f64, im: f64| Complex { re: T::from_f64(re), im: T::from_f64(im) };
            let inf = f64::INFINITY;
            // A is 1 × 2 and the product A†·A, so C is Hermitian as
            // ZGEMMT wants it.
            let a = [cx(1.0, 2.0), cx(0.5, -1.0)];
            let c0 = [cx(inf, 0.0), cx(-0.0, -1.0), cx(-0.0, 1.0), cx(-inf, 0.0)];
            let (zero, one) = (Complex::ZERO, Complex::ONE);
            let mut c = c0;
            gemm(zero, one, &a, &mut c);
            for (i, (&x, &y)) in c.iter().zip(&c0).enumerate() {
                assert!(same_complex(x, y), "{routine} α = 0, β = 1, i={i}: {x:?} vs {y:?}");
            }
            let mut alpha_p = c0;
            gemm(one, zero, &a, &mut alpha_p);
            let mut c = c0;
            gemm(one, one, &a, &mut c);
            for (i, (&x, (&p, &y))) in c.iter().zip(alpha_p.iter().zip(&c0)).enumerate() {
                // ZGEMMT computes the upper triangle and mirrors it.
                let want = if triangle && i == 2 { c[1].conj() } else { p + y };
                assert!(same_complex(x, want), "{routine} α = 1, β = 1, i={i}: {x:?} vs {want:?}");
            }
        }
        let (ct, no) = (Op::ConjTrans, Op::None);
        check::<f32>("CGEMM", false, |alpha, beta, a, c| cgemm(ct, no, 2, 2, 1, alpha, a, 2, a, 2, beta, c, 2));
        check::<f64>("ZGEMM", false, |alpha, beta, a, c| zgemm(ct, no, 2, 2, 1, alpha, a, 2, a, 2, beta, c, 2));
        check::<f64>("ZGEMMT", true, |alpha, beta, a, c| {
            zgemmt(Uplo::Upper, ct, no, 2, 1, alpha, a, 2, a, 2, beta, c, 2)
        });
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
    fn each_case<T: MicroArch + Element>(
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
                    let ((ar, ac), (br, bc)) = (transa.applied_shape(m, k), transb.applied_shape(k, n));
                    let (lda, ldb, ldc) = (ac + 3, bc + 1, n + 2);
                    let a = rand(ar * lda);
                    let b = rand(br * ldb);
                    let c0 = rand(m * ldc);
                    for (alpha, beta) in [(cx(1.25, -0.5), cx(0.25, 0.75)), (cx(1.0, 0.0), cx(0.0, 0.0))] {
                        let (uplo, real_diag) = (None, false);
                        let g = GemmArgs { transa, transb, m, n, k, alpha, a: &a, lda, b: &b, ldb, beta, ldc, uplo, real_diag };
                        for &mode in modes {
                            check(mode, &g, &c0);
                        }
                    }
                }
            }
        }
    }

    /// Every tile of every rung this host runs — each height of a rung —
    /// widest rung first.
    fn tiles<T: MicroArch>() -> impl Iterator<Item = kernel::MicroKernel<T>> {
        Rung::ALL.into_iter().filter(|r| r.available()).flat_map(kernel::heights::<T>)
    }

    /// Whether two complex results agree bit for bit (NaNs of any payload
    /// agreeing).
    fn same_complex<T: Real>(x: Complex<T>, y: Complex<T>) -> bool {
        same_bits(x.re, y.re) && same_bits(x.im, y.im)
    }

    /// The fused driver against the retained four-call reference, bit for
    /// bit, on every case of [`each_case`], every rung's kernel, and the
    /// sequential and rayon schedules.
    fn fused_matches_reference<T: MicroArch + Element>(modes: &[ComputeMode]) {
        each_case::<T>(modes, |mode, g, c0| {
            let GemmArgs { transa, transb, m, n, k, beta, .. } = *g;
            for kern in tiles::<T>() {
                let mut want = c0.to_vec();
                reference::complex_gemm(mode, g, &mut want, Exec { kern, schedule: Some(Schedule::One) });
                for schedule in [Schedule::One, Schedule::Rows, Schedule::Depth] {
                    let mut got = c0.to_vec();
                    level3(mode, g, &mut got, Exec { kern, schedule: Some(schedule) });
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
    fn rungs_match_the_host<T: MicroArch + Element>(modes: &[ComputeMode]) {
        each_case::<T>(modes, |mode, g, c0| {
            let GemmArgs { transa, transb, m, n, k, .. } = *g;
            let run = |exec| {
                let mut c = c0.to_vec();
                level3(mode, g, &mut c, exec);
                c
            };
            let host = run(Exec::host(m));
            for kern in tiles::<T>() {
                let got = run(Exec { kern, ..Exec::host(m) });
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

    /// Every height of every rung against the generic tile, bit for bit,
    /// under pools of 1 and 2 threads on the schedule the shape takes: a
    /// CGEMM for every `m` from 1 to 50 (edge panels of every fill, a
    /// 24-row one with up to 23 pad rows) and both triangles of a 50 × 50
    /// CHERK output, whose 24-row tiles the diagonal crosses, in every mode.
    fn every_height_matches_the_generic_tile() {
        let under_pool = |threads, f: &dyn Fn() -> Vec<C32>| {
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
        };
        let mut rng = StdRng::seed_from_u64(16);
        let (n, k) = (20, 300);
        let generic = Exec { kern: f32::tile(Rung::Portable, 0), schedule: None };
        let check = |g: &GemmArgs<'_, C32>, c0: &[C32], what: &str| {
            for mode in ComputeMode::ALL {
                let run = |exec, threads| {
                    under_pool(threads, &|| {
                        let mut c = c0.to_vec();
                        level3(mode, g, &mut c, exec);
                        c
                    })
                };
                let want = run(generic, 1);
                for kern in tiles::<f32>() {
                    for threads in [1, 2] {
                        let got = run(Exec { kern, schedule: None }, threads);
                        for (i, (&x, &y)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                same_complex(x, y),
                                "{what} {mode:?} `{}` {threads} threads i={i}: {x:?} vs {y:?}",
                                kern.name
                            );
                        }
                    }
                }
            }
        };
        let (one, half) = (C32::one(), c32(0.5, 0.0));
        let (uplo, real_diag) = (None, false);
        for m in 1..=50 {
            let (a, b, c0) = (rand_c32(&mut rng, k * m), rand_c32(&mut rng, k * n), rand_c32(&mut rng, m * n));
            let (transa, transb, lda, ldb, ldc) = (Op::ConjTrans, Op::None, m, n, n);
            let g = GemmArgs { transa, transb, m, n, k, alpha: one, a: &a, lda, b: &b, ldb, beta: half, ldc, uplo, real_diag };
            check(&g, &c0, &format!("CGEMM ({m},{n},{k})"));
        }
        let m = 50;
        let a = rand_c32(&mut rng, k * m);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let (uplo, real_diag, transa, transb) = (Some(uplo), true, Op::ConjTrans, Op::None);
            let zero = C32::zero();
            let g = GemmArgs { transa, transb, m, n: m, k, alpha: one, a: &a, lda: m, b: &a, ldb: m, beta: zero, ldc: m, uplo, real_diag };
            check(&g, &vec![zero; m * m], &format!("CHERK {uplo:?} ({m},{k})"));
        }
    }

    #[test]
    fn every_rung_bit_identical_to_the_host_in_every_mode() {
        rungs_match_the_host::<f32>(&ComputeMode::ALL);
        // The two modes that apply to FP64 data (see `executed_mode`).
        rungs_match_the_host::<f64>(&[ComputeMode::Standard, ComputeMode::Complex3m]);
        every_height_matches_the_generic_tile();
    }

    #[test]
    fn fused_cgemm_bit_identical_to_four_call_reference() {
        fused_matches_reference::<f32>(&ComputeMode::ALL);
    }

    #[test]
    fn fused_zgemm_bit_identical_to_four_call_reference() {
        // The two modes that apply to FP64 data (see `executed_mode`).
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

/// The `FLOAT_TO_*` modes' arithmetic, through [`sgemm`]. BF16×BF16 and
/// TF32×TF32 products are exact in `f32` (8+8 and 11+11 significand bits
/// fit in 24), so a mode's error is that of its input representation:
/// the split depth, the covered term set and the cascade of the pack
/// (see [`pack`]).
#[cfg(test)]
mod lowp {
    mod tests {
        use crate::config::with_compute_mode;
        use crate::gemm::kernel::matmul_reference;
        use crate::gemm::sgemm;
        use crate::layout::Op;
        use crate::mode::ComputeMode;
        use dcmesh_numerics::split::{split_slice_into, MAX_SPLIT_DEPTH};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// The `(a_component, b_component)` products *covered* by a split
        /// of `depth` terms, `{(i, j) : i + j < depth}`, in decreasing
        /// order of magnitude. This is the mathematical contract of each
        /// mode; the executed products are the `depth` cascade diagonals.
        fn product_terms(depth: usize) -> Vec<(usize, usize)> {
            (0..depth).flat_map(|weight| (0..=weight).map(move |i| (i, weight - i))).collect()
        }

        /// `a·b` in `mode` through `sgemm` with α = 1, β = 0; `a` is dense
        /// `m × k`, `b` dense `k × n`.
        fn product(mode: ComputeMode, a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
            let mut c = vec![0.0f32; m * n];
            with_compute_mode(mode, || sgemm(Op::None, Op::None, m, n, k, 1.0, a, k, b, n, 0.0, &mut c, n));
            c
        }

        fn random(rng: &mut StdRng, len: usize) -> Vec<f32> {
            (0..len).map(|_| rng.gen_range(0.1..1.0f32)).collect()
        }

        /// Max relative elementwise error of `mode` vs the f64 exact product.
        fn mode_error(mode: ComputeMode, m: usize, n: usize, k: usize, seed: u64) -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random(&mut rng, m * k);
            let b = random(&mut rng, k * n);
            let a64: Vec<f64> = a.iter().map(|&x| x as f64).collect();
            let b64: Vec<f64> = b.iter().map(|&x| x as f64).collect();
            let exact = matmul_reference(&a64, &b64, m, n, k);
            product(mode, &a, &b, m, n, k)
                .iter()
                .zip(&exact)
                .map(|(&x, &y)| ((x as f64 - y) / y).abs())
                .fold(0.0, f64::max)
        }

        #[test]
        fn standard_mode_is_plain_f32() {
            let err = mode_error(ComputeMode::Standard, 16, 16, 32, 3);
            assert!(err < 1e-5, "fp32 err {err}");
        }

        #[test]
        fn error_ordering_bf16_tf32_x2_x3() {
            // Positive inputs => no cancellation => §V-B bound applies and
            // the mode ordering must be strict.
            let (m, n, k) = (24, 24, 64);
            let e_bf16 = mode_error(ComputeMode::FloatToBf16, m, n, k, 7);
            let e_tf32 = mode_error(ComputeMode::FloatToTf32, m, n, k, 7);
            let e_x2 = mode_error(ComputeMode::FloatToBf16x2, m, n, k, 7);
            let e_x3 = mode_error(ComputeMode::FloatToBf16x3, m, n, k, 7);
            assert!(e_bf16 > e_tf32, "bf16 {e_bf16} vs tf32 {e_tf32}");
            assert!(e_tf32 > e_x2, "tf32 {e_tf32} vs x2 {e_x2}");
            assert!(e_x2 > e_x3, "x2 {e_x2} vs x3 {e_x3}");
            // And the absolute levels sit near the §V-B predictions.
            assert!(e_bf16 < 2f64.powi(-6), "bf16 too wrong: {e_bf16}");
            assert!(e_x3 < 1e-5, "x3 must be f32-class: {e_x3}");
        }

        #[test]
        fn bf16_error_independent_of_matrix_size() {
            // The paper's §V-B claim, verified on the real GEMM path:
            // relative error does not grow with k for sign-uniform data.
            let e_small = mode_error(ComputeMode::FloatToBf16, 8, 8, 16, 11);
            let e_large = mode_error(ComputeMode::FloatToBf16, 8, 8, 1024, 11);
            assert!(e_large < e_small * 4.0, "bf16 error grew with k: {e_small} -> {e_large}");
        }

        #[test]
        fn split_products_match_documented_counts() {
            assert_eq!(product_terms(1).len(), 1);
            assert_eq!(product_terms(2).len(), 3);
            assert_eq!(product_terms(3).len(), 6);
            for mode in ComputeMode::ALL {
                if let Some(depth) = mode.split_depth() {
                    assert_eq!(product_terms(depth).len(), mode.component_products(), "{mode:?}");
                }
            }
            for depth in 1..=MAX_SPLIT_DEPTH {
                let terms = product_terms(depth);
                assert!(terms.iter().all(|&(i, j)| i + j < depth), "depth {depth}: {terms:?}");
                // Magnitude ordering: term (i, j) has weight ~2^{-8(i+j)}.
                let weights: Vec<usize> = terms.iter().map(|&(i, j)| i + j).collect();
                let mut sorted = weights.clone();
                sorted.sort_unstable();
                assert_eq!(weights, sorted, "terms must be in decreasing magnitude order");
            }
        }

        #[test]
        fn cascade_agrees_with_per_term_reference() {
            // The executed diagonal products over cascaded B planes must
            // agree with literally running every covered term as its own
            // product pass, up to the 2⁻²⁴-relative partial-sum rounding.
            let (m, n, k) = (9, 13, 40);
            let mut rng = StdRng::seed_from_u64(21);
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
                let depth = mode.split_depth().unwrap();
                let split = |src: &[f32]| {
                    let mut planes = vec![vec![0.0f32; src.len()]; depth];
                    let mut views: Vec<&mut [f32]> = planes.iter_mut().map(|p| &mut p[..]).collect();
                    split_slice_into(src, &mut views);
                    planes
                };
                let ap = split(&a);
                let bp = split(&b);
                // Term-by-term reference in f64 (summation-order
                // differences are below the comparison tolerance).
                let mut reference = vec![0.0f64; m * n];
                for (ia, ib) in product_terms(depth) {
                    let a64: Vec<f64> = ap[ia].iter().map(|&x| x as f64).collect();
                    let b64: Vec<f64> = bp[ib].iter().map(|&x| x as f64).collect();
                    for (r, p) in reference.iter_mut().zip(matmul_reference(&a64, &b64, m, n, k)) {
                        *r += p;
                    }
                }
                let acc = product(mode, &a, &b, m, n, k);
                for (i, (&x, &y)) in acc.iter().zip(&reference).enumerate() {
                    let tol = 2f64.powi(-14) * (1.0 + y.abs());
                    assert!(((x as f64) - y).abs() < tol, "{mode:?} i={i}: cascade {x} vs per-term {y}");
                }
            }
        }

        #[test]
        fn split_modes_propagate_nonfinite() {
            // A zero row of A times an Inf in B must still produce NaN
            // through the split-plane cascade (0·Inf), and a nonzero row
            // must surface the Inf itself — in every split mode.
            let (m, n, k) = (2, 3, 4);
            let mut a = vec![0.5f32; m * k];
            for v in &mut a[k..] {
                *v = 0.0; // row 1 all zero
            }
            for mode in [
                ComputeMode::FloatToBf16,
                ComputeMode::FloatToTf32,
                ComputeMode::FloatToBf16x2,
                ComputeMode::FloatToBf16x3,
            ] {
                for bad in [f32::INFINITY, f32::NAN] {
                    let mut b = vec![1.0f32; k * n];
                    b[n + 2] = bad;
                    let acc = product(mode, &a, &b, m, n, k);
                    assert!(!acc[2].is_finite(), "{mode:?}: nonzero row lost {bad} (got {})", acc[2]);
                    assert!(acc[n + 2].is_nan(), "{mode:?}: zero row × {bad} must be NaN, got {}", acc[n + 2]);
                    assert!(acc[0].is_finite(), "{mode:?}: finite column corrupted");
                }
            }
        }

        #[test]
        fn nonfinite_in_a_propagates_through_splits() {
            // Inf/NaN on the A side: the raw split planes carry the value
            // in plane 0 with zeroed corrections; products must surface it.
            let (m, n, k) = (2, 2, 3);
            for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
                for bad in [f32::INFINITY, f32::NAN] {
                    let mut a = vec![1.0f32; m * k];
                    a[1] = bad; // row 0
                    let b = vec![1.0f32; k * n];
                    let acc = product(mode, &a, &b, m, n, k);
                    assert!(!acc[0].is_finite(), "{mode:?}: {bad} in A lost ({})", acc[0]);
                    assert!(acc[n].is_finite(), "{mode:?}: clean row corrupted");
                }
            }
        }

        #[test]
        fn bf16_exact_for_bf16_inputs() {
            // Inputs already representable in BF16 suffer no conversion
            // loss, and products/accumulation are exact in f32 for small k.
            let a = vec![1.5f32, 2.0, 0.25, 3.0];
            let b = vec![0.5f32, 1.0, 2.0, 4.0];
            let acc = product(ComputeMode::FloatToBf16, &a, &b, 2, 2, 2);
            assert_eq!(acc, matmul_reference(&a, &b, 2, 2, 2));
        }
    }
}
