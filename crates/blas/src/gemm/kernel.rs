//! The packed, blocked GEMM core shared by every dense path.
//!
//! Every level-3 routine reduces to one or more *products*
//! `out += op(A)·op(B)` run by a single BLIS-style blocked driver
//! ([`gemm_packed`]):
//!
//! * the k dimension is tiled into `KC`-deep blocks;
//! * per k-block, B is packed into `nr`-column panels on the calling
//!   thread and A — one task's rows at a time, right before that task
//!   runs — into `mr`-row panels ([`super::pack`]), both held in scratch
//!   pooled on the calling thread and read straight from the caller's
//!   strided (for the complex routines: interleaved) storage — `op()`,
//!   plane separation and
//!   precision conversion (BF16/TF32 rounding, split-plane
//!   decomposition) all happen during this pack, once per source element
//!   per call;
//! * a register-blocked `mr × nr` microkernel accumulates every term of a
//!   product for a C tile in registers before a single writeback, so the
//!   split-precision modes share both the packed operands *and* the
//!   accumulator across their plane products, and the complex routines
//!   run all their real products off one packed k-block.
//!
//! The microkernel is chosen at runtime by [`MicroArch::ladder`]:
//! `avx512f → avx2(+fma) → generic`, for both element widths. One
//! contract for both: the SIMD tiles fuse multiply and add, the portable
//! tile does not. So within one element width the SIMD instantiations are
//! bit-identical to each other — each accumulates a C element's `kk`
//! products in one register lane in the same order, and tile geometry
//! never shows in the result — and agree with `micro_generic` to the
//! `k·ε` of one rounding saved per multiply-add, not to the bit.
//!
//! A Hermitian output (`herk`, `gemmt`) passes an [`Uplo`] and the driver
//! skips every tile lying strictly in the other triangle. That filter is
//! the only triangle logic there is: the tiles that do run read the same
//! packed panels through the same microkernel in the same order as the
//! full product's, so the computed triangle is the full product's, bit
//! for bit.
//!
//! Parallelism splits C into *tasks*, contiguous runs of `mr`-row panels,
//! that the rayon pool runs on every thread it has, the caller included
//! ([`task_shape`]). A task packs its own rows of A into its own slice of
//! the scratch the caller took, then runs its tiles. Each C element is
//! accumulated by exactly one microkernel call per (product, k-block), in
//! a fixed (k-block, product, term, kk) order that does not depend on the
//! thread count or the task cut — runs at any thread count are
//! bit-identical by construction (asserted by
//! `seq_and_par_paths_bit_identical`).

use super::pack::{self, OpSrc, Side};
use crate::layout::Uplo;
use crate::mode::ComputeMode;
use crate::workspace::{take_scratch, Poolable};
use dcmesh_numerics::split::MAX_SPLIT_DEPTH;
use dcmesh_numerics::Real;
use rayon::prelude::*;

/// When a product of `panels` row panels splits into tasks: when its
/// output is tall (at least [`PAR_PANELS`] panels), or when `m·n·k` reaches
/// [`PAR_THRESHOLD`] MACs. Measured on the application shapes at 1 and 2
/// threads (EXPERIMENTS.md): a tall apply product (`1728 × n_orb × n_orb`,
/// 108–216 panels) ran faster split at every `n_orb` from 16 to 96; a
/// short project product (`n_orb × n_orb × 1728`, 2–12 panels) ran up to
/// 2× slower split below ~4 M MACs and faster at 16 M.
fn splits(panels: usize, m: usize, n: usize, k: usize) -> bool {
    panels >= 2 && (panels >= PAR_PANELS || m * n * k >= PAR_THRESHOLD)
}

/// Row panels from which a product always splits (see [`splits`]).
const PAR_PANELS: usize = 2 * MC_PANELS;

/// `m·n·k` from which a short product splits (see [`splits`]).
const PAR_THRESHOLD: usize = 1 << 22;

/// Depth of one packed k-block.
pub(crate) const KC: usize = 256;

/// Row panels per task at most: a task's packed A panels stay L2-resident
/// while the packed B panels go past them.
const MC_PANELS: usize = 16;

/// How `panels` row panels are cut into tasks for `threads` threads:
/// `(panels per task, tasks packed per round)`. Tasks are balanced over
/// the threads and hold at most [`MC_PANELS`] panels, so a product of at
/// most `MC_PANELS` panels is one task on one thread and `threads` tasks
/// on `threads`. A Hermitian output's tiles thin out towards one corner,
/// so under threads it is cut into twice as many tasks, claimed as threads
/// come free. The packed A scratch holds one round — at most
/// `threads · MC_PANELS` panels, bounded by the task size, not by `m`.
fn task_shape(panels: usize, threads: usize, triangle: bool) -> (usize, usize) {
    let per_thread = if triangle && threads > 1 { 2 } else { 1 };
    let per_task = panels.div_ceil(threads * per_thread * panels.div_ceil(threads * MC_PANELS));
    (per_task, threads * (MC_PANELS / per_task).max(1))
}

/// The microkernel signature: accumulate one product's terms into one
/// `rows × cols` tile of `ctile` (a row-panel slice of the accumulator,
/// leading dimension `ldc`, tile origin column `j0`).
///
/// Each term is the pair of element offsets of this tile's packed panels:
/// the `mr × kc` A panel starts at `pa[term.0]` with element `(i, kk)` at
/// `+ kk·mr + i`; the `kc × nr` B panel starts at `pb[term.1]` with
/// element `(kk, j)` at `+ kk·nr + j`.
type MicroFn<T> = fn(
    terms: &[(usize, usize)],
    pa: &[T],
    pb: &[T],
    kc: usize,
    ctile: &mut [T],
    ldc: usize,
    j0: usize,
    rows: usize,
    cols: usize,
);

/// A register-blocking choice plus the matching microkernel.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct MicroKernel<T: 'static> {
    pub(crate) name: &'static str,
    pub(crate) mr: usize,
    pub(crate) nr: usize,
    pub(crate) micro: MicroFn<T>,
}

/// Scalar types the packed driver can run on (`f32`/`f64`, mirroring
/// [`Poolable`]): everything element-width-specific about it. The methods
/// are implementation details of the kernel dispatch and not part of the
/// crate's supported API.
pub trait MicroArch: Real + Poolable {
    /// Every microkernel instantiation this host can run, widest first:
    /// `[avx512f, avx2, generic]`, `None` where the host lacks the ISA.
    /// The generic entry is always present.
    #[doc(hidden)]
    fn ladder() -> [Option<MicroKernel<Self>>; 3];

    /// The pack-time precision conversion of `mode`: turns the raw values
    /// in `planes[..len]` into the mode's `split_depth` planes, plane `t`
    /// at `planes[t·stride..][..len]`, in place.
    #[doc(hidden)]
    fn convert(mode: ComputeMode, side: Side, planes: &mut [Self], stride: usize, len: usize);
}

/// A SIMD ladder entry: `x86::$f::<MR, NV>` is an `MR × NV·LANES` tile.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_tile {
    ($name:literal, $f:ident, $mr:literal, $nv:literal, $lanes:literal) => {
        MicroKernel { name: $name, mr: $mr, nr: $nv * $lanes, micro: x86::$f::<$mr, $nv> }
    };
}

impl MicroArch for f32 {
    fn ladder() -> [Option<MicroKernel<f32>>; 3] {
        #[cfg(target_arch = "x86_64")]
        let (wide, mid) = (
            std::arch::is_x86_feature_detected!("avx512f")
                .then_some(simd_tile!("avx512f fma 16x16", f32_avx512, 16, 1, 16)),
            (std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            .then_some(simd_tile!("avx2 fma 6x16", f32_avx2, 6, 2, 8)),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (wide, mid) = (None, None);
        let generic =
            MicroKernel { name: "generic 4x8", mr: 4, nr: 8, micro: micro_generic::<f32, 4, 8> };
        [wide, mid, Some(generic)]
    }

    fn convert(mode: ComputeMode, side: Side, planes: &mut [f32], stride: usize, len: usize) {
        pack::convert_f32(mode, side, planes, stride, len);
    }
}

impl MicroArch for f64 {
    fn ladder() -> [Option<MicroKernel<f64>>; 3] {
        #[cfg(target_arch = "x86_64")]
        let (wide, mid) = (
            std::arch::is_x86_feature_detected!("avx512f")
                .then_some(simd_tile!("avx512f fma 8x16", f64_avx512, 8, 2, 8)),
            (std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            .then_some(simd_tile!("avx2 fma 4x8", f64_avx2, 4, 2, 4)),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (wide, mid) = (None, None);
        let generic =
            MicroKernel { name: "generic 4x4", mr: 4, nr: 4, micro: micro_generic::<f64, 4, 4> };
        [wide, mid, Some(generic)]
    }

    fn convert(mode: ComputeMode, _: Side, _: &mut [f64], _: usize, _: usize) {
        // The FLOAT_TO_* modes re-represent single-precision data only.
        debug_assert!(mode.split_depth().is_none(), "{mode:?} does not apply to f64");
    }
}

/// How one driver run executes: which microkernel, and whether tasks go to
/// the rayon pool (`None` = size heuristic). Everything outside tests uses
/// [`Exec::host`]; tests pin a ladder entry or a schedule to compare them
/// bit for bit on identical inputs.
#[derive(Clone, Copy)]
pub(crate) struct Exec<T: 'static> {
    pub kern: MicroKernel<T>,
    pub parallel: Option<bool>,
}

impl<T: MicroArch> Exec<T> {
    /// The widest kernel the host offers, size-heuristic threading.
    pub fn host() -> Self {
        let kern = T::ladder().into_iter().flatten().next().expect("generic kernel always present");
        Exec { kern, parallel: None }
    }

    /// The host's tile geometry around a microkernel that does nothing:
    /// what is left of a product is its pack (see
    /// [`super::complex_gemm_sans_microkernel`]).
    pub fn sans_microkernel() -> Self {
        let host = Self::host();
        let kern = MicroKernel { name: "none", micro: |_, _, _, _, _, _, _, _, _| {}, ..host.kern };
        Exec { kern, ..host }
    }
}

/// Name of the microkernel GEMMs over `T` dispatch to on this host
/// (ISA, arithmetic, tile), for bench headers and job logs.
pub fn dispatched_kernel<T: MicroArch>() -> &'static str {
    Exec::<T>::host().kern.name
}

/// One accumulated product run off every packed k-block: the `depth`
/// diagonal plane products `A[a+t]·B[b+t]`, `t < depth ≤
/// MAX_SPLIT_DEPTH`, summed in one register accumulator per C tile and
/// added to output `out`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Product {
    pub a: usize,
    pub b: usize,
    pub depth: usize,
    pub out: usize,
}

/// `acc += op(A) · op(B)` in `mode`: the single-product instance of the
/// driver. `a` is `op(A)` (`m × k`), `b` is `op(B)` (`k × n`), both read
/// straight from their strided storage; `acc` is dense `m × n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn real_product<T: MicroArch>(
    mode: ComputeMode,
    a: &OpSrc<'_, T>,
    b: &OpSrc<'_, T>,
    acc: &mut [T],
    m: usize,
    n: usize,
    k: usize,
    exec: Exec<T>,
) {
    let depth = mode.split_depth().unwrap_or(1);
    gemm_packed(
        acc,
        1,
        m,
        n,
        k,
        &[Product { a: 0, b: 0, depth, out: 0 }],
        None,
        move |r0, rows, k0, kc, mr, dst: &mut [T], stride| {
            let len = pack::gather(&a.offset(r0), rows, k0, kc, mr, dst, stride, |x| [x]);
            T::convert(mode, Side::A, dst, stride, len);
        },
        |k0, kc, nr, dst: &mut [T], stride| {
            let len = pack::gather(b, n, k0, kc, nr, dst, stride, |x| [x]);
            T::convert(mode, Side::B, dst, stride, len);
        },
        exec,
    );
}

/// `acc += a · b` for dense row-major operands at native precision.
///
/// * `a`: `m × k` (ld = k)
/// * `b`: `k × n` (ld = n)
/// * `acc`: `m × n` (ld = n), accumulated in place
pub fn matmul_acc<T: MicroArch>(a: &[T], b: &[T], acc: &mut [T], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(acc.len(), m * n, "C shape mismatch");
    let (a, b) = (OpSrc::dense_a(a, k), OpSrc::dense_b(b, n));
    real_product(ComputeMode::Standard, &a, &b, acc, m, n, k, Exec::host());
}

/// The blocked driver. `acc` holds `nout` row-interleaved outputs: it is
/// an `m × (nout·n)` matrix whose columns `[o·n, (o+1)·n)` are output
/// `o`. For every k-block the caller's closures pack it — each operand
/// element gathered and converted once per call — and every entry of
/// `products` is accumulated from that one packed block.
///
/// `pack_b(k0, kc, nr, dst, stride)` must fill every B plane the products
/// read (plane `t` at `dst[t·stride..]`) with the `nr`-column panel
/// layout of the k-slice `[k0, k0+kc)`; it runs on the calling thread,
/// once per k-block. `pack_a(r0, rows, k0, kc, mr, dst, stride)` does the
/// same in `mr`-row panels for rows `[r0, r0+rows)` of `op(A)` only: each
/// task packs its own rows right before its tiles run, on whichever
/// thread runs it (so `pack_a` holds the mode and source views by value
/// and reads no thread's state), into its own slice of the scratch the
/// caller took — so
/// the packed A scratch is bounded by a round of tasks instead of by `m`,
/// is still in L2 when the microkernel reads it, and no worker touches
/// the workspace pool.
///
/// `uplo` is the tile filter of a Hermitian output (`m == n`): a tile
/// with no element in that triangle is skipped and its part of `acc`
/// left as it arrived. A tile the diagonal crosses runs whole. Nothing
/// else is ever skipped: IEEE demands 0·Inf = 0·NaN = NaN, so skipping
/// zero entries (or empty planes) would silently launder non-finite
/// values out of the product and hide them from the health checks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed<T, PA, PB>(
    acc: &mut [T],
    nout: usize,
    m: usize,
    n: usize,
    k: usize,
    products: &[Product],
    uplo: Option<Uplo>,
    pack_a: PA,
    mut pack_b: PB,
    exec: Exec<T>,
) where
    T: MicroArch,
    PA: Fn(usize, usize, usize, usize, usize, &mut [T], usize) + Sync,
    PB: FnMut(usize, usize, usize, &mut [T], usize),
{
    let ldc = nout * n;
    assert_eq!(acc.len(), m * ldc, "accumulator shape mismatch");
    assert!(uplo.is_none() || m == n, "a triangle needs a square output");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let Exec { kern, parallel } = exec;
    let (mr, nr) = (kern.mr, kern.nr);
    let kc_max = KC.min(k);
    let npan = n.div_ceil(nr);
    let panels = m.div_ceil(mr);
    let threads = match parallel.unwrap_or_else(|| splits(panels, m, n, k)) {
        true => rayon::current_num_threads(),
        false => 1,
    };
    let (per_task, per_round) = task_shape(panels, threads, uplo.is_some());
    let task_rows = per_task * mr;
    let a_stride = task_rows * kc_max;
    let b_stride = npan * nr * kc_max;
    let planes =
        |last: fn(&Product) -> usize| products.iter().map(last).max().unwrap_or(0);
    // One slot of packed A planes per task of a round.
    let a_slot = planes(|pr| pr.a + pr.depth) * a_stride;
    let mut pa_buf = take_scratch::<T>(per_round.min(panels.div_ceil(per_task)) * a_slot);
    let mut pb_buf = take_scratch::<T>(planes(|pr| pr.b + pr.depth) * b_stride);

    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        pack_b(k0, kc, nr, &mut pb_buf, b_stride);
        let pb: &[T] = &pb_buf;
        for (ri, round) in acc.chunks_mut(per_round * task_rows * ldc).enumerate() {
            // One task: pack its rows of A, then run its tiles. Looping q
            // (B panel) outside the row panels keeps each B panel hot in
            // L1 while the task's L2-resident A panels stream past it.
            let task = |(ti, (cblk, pa)): (usize, (&mut [T], &mut [T]))| {
                let t0 = (ri * per_round + ti) * task_rows;
                let rows_total = cblk.len() / ldc;
                pack_a(t0, rows_total, k0, kc, mr, pa, a_stride);
                let pa: &[T] = pa;
                for q in 0..npan {
                    let j0 = q * nr;
                    let cols = nr.min(n - j0);
                    let b_off = q * nr * kc;
                    for (ir, r0) in (0..rows_total).step_by(mr).enumerate() {
                        let rows = mr.min(rows_total - r0);
                        // The tile spans rows [i0, i0+rows) × columns
                        // [j0, j0+cols) of the output.
                        let i0 = t0 + r0;
                        let outside = match uplo {
                            None => false,
                            Some(Uplo::Lower) => j0 >= i0 + rows,
                            Some(Uplo::Upper) => j0 + cols <= i0,
                        };
                        if outside {
                            continue;
                        }
                        let a_off = ir * mr * kc;
                        for pr in products {
                            let mut terms = [(0usize, 0usize); MAX_SPLIT_DEPTH];
                            for (t, term) in terms.iter_mut().enumerate().take(pr.depth) {
                                *term = (
                                    (pr.a + t) * a_stride + a_off,
                                    (pr.b + t) * b_stride + b_off,
                                );
                            }
                            (kern.micro)(
                                &terms[..pr.depth],
                                pa,
                                pb,
                                kc,
                                &mut cblk[r0 * ldc..],
                                ldc,
                                pr.out * n + j0,
                                rows,
                                cols,
                            );
                        }
                    }
                }
            };
            round
                .par_chunks_mut(task_rows * ldc)
                .zip(pa_buf.par_chunks_mut(a_slot))
                .enumerate()
                .for_each(task);
        }
    }
}

/// Safe register-blocked microkernel — the portable fallback, and the
/// oracle the SIMD tiles are tested against to `k·ε`. Separate multiply
/// and add; the compiler unrolls the constant `MR × NR` tile and
/// vectorises the inner loop for the baseline target.
#[allow(clippy::too_many_arguments)]
fn micro_generic<T: Real, const MR: usize, const NR: usize>(
    terms: &[(usize, usize)],
    pa: &[T],
    pb: &[T],
    kc: usize,
    ctile: &mut [T],
    ldc: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[T::ZERO; NR]; MR];
    for &(ao, bo) in terms {
        let ap = &pa[ao..ao + MR * kc];
        let bp = &pb[bo..bo + NR * kc];
        for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            for (accr, &aik) in acc.iter_mut().zip(arow) {
                for (av, &bv) in accr.iter_mut().zip(brow) {
                    *av += aik * bv;
                }
            }
        }
    }
    for (i, accr) in acc.iter().enumerate().take(rows) {
        let crow = &mut ctile[i * ldc + j0..i * ldc + j0 + cols];
        for (cv, &av) in crow.iter_mut().zip(&accr[..cols]) {
            *cv += av;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The SIMD tiles: one body, instantiated per (ISA, element width).
    //! An `MR × NV·LANES` tile keeps `MR·NV` vector accumulators; per k
    //! step it loads `NV` B vectors and broadcasts `MR` A elements.
    use core::arch::x86_64::*;

    /// Widest tile row any instantiation uses, in elements (the stack
    /// spill row of the ragged writeback).
    const MAX_NR: usize = 64;

    macro_rules! simd_micro {
        (
            $(#[$doc:meta])*
            $name:ident / $imp:ident: $t:ty, $feat:literal, $lanes:literal,
            $zero:ident, $load:ident, $store:ident, $set1:ident, $add:ident,
            |$a:ident, $b:ident, $c:ident| $mac:expr
        ) => {
            $(#[$doc])*
            #[allow(clippy::too_many_arguments)]
            pub(super) fn $name<const MR: usize, const NV: usize>(
                terms: &[(usize, usize)],
                pa: &[$t],
                pb: &[$t],
                kc: usize,
                ctile: &mut [$t],
                ldc: usize,
                j0: usize,
                rows: usize,
                cols: usize,
            ) {
                const { assert!(NV * $lanes <= MAX_NR) };
                let nr = NV * $lanes;
                assert!(rows <= MR && cols <= nr && j0 + cols <= ldc);
                assert!(rows == 0 || ctile.len() >= (rows - 1) * ldc + j0 + cols);
                for &(ao, bo) in terms {
                    assert!(pa.len() >= ao + MR * kc, "packed A panel out of range");
                    assert!(pb.len() >= bo + nr * kc, "packed B panel out of range");
                }
                // SAFETY: `MicroArch::ladder` only hands out this fn
                // pointer after `is_x86_feature_detected!` confirmed the
                // target features; the body reads `MR·kc` / `nr·kc`
                // elements from each term's offsets and touches
                // `rows × cols` elements of `ctile` from column `j0` at
                // row pitch `ldc` — all inside the ranges asserted above.
                unsafe {
                    $imp::<MR, NV>(
                        terms,
                        pa.as_ptr(),
                        pb.as_ptr(),
                        kc,
                        ctile.as_mut_ptr().add(j0),
                        ldc,
                        rows,
                        cols,
                    )
                }
            }

            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $imp<const MR: usize, const NV: usize>(
                terms: &[(usize, usize)],
                pa: *const $t,
                pb: *const $t,
                kc: usize,
                c: *mut $t,
                ldc: usize,
                rows: usize,
                cols: usize,
            ) {
                let nr = NV * $lanes;
                let mut acc = [[$zero(); NV]; MR];
                for &(ao, bo) in terms {
                    let (ap, bp) = (pa.add(ao), pb.add(bo));
                    for kk in 0..kc {
                        let mut bv = [$zero(); NV];
                        for (v, b) in bv.iter_mut().enumerate() {
                            *b = $load(bp.add(kk * nr + v * $lanes));
                        }
                        for (i, accr) in acc.iter_mut().enumerate() {
                            let $a = $set1(*ap.add(kk * MR + i));
                            for (av, &$b) in accr.iter_mut().zip(&bv) {
                                let $c = *av;
                                *av = $mac;
                            }
                        }
                    }
                }
                if cols == nr {
                    for (i, accr) in acc.iter().enumerate().take(rows) {
                        for (v, &av) in accr.iter().enumerate() {
                            let p = c.add(i * ldc + v * $lanes);
                            $store(p, $add($load(p), av));
                        }
                    }
                } else {
                    let mut tmp = [0.0; MAX_NR];
                    for (i, accr) in acc.iter().enumerate().take(rows) {
                        for (v, &av) in accr.iter().enumerate() {
                            $store(tmp.as_mut_ptr().add(v * $lanes), av);
                        }
                        for (j, &t) in tmp.iter().enumerate().take(cols) {
                            *c.add(i * ldc + j) += t;
                        }
                    }
                }
            }
        };
    }

    simd_micro! {
        /// AVX-512 `f32` tile, fused multiply-add (bit-identical to
        /// [`f32_avx2`]).
        f32_avx512 / f32_avx512_impl: f32, "avx512f", 16,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_add_ps,
        |a, b, c| _mm512_fmadd_ps(a, b, c)
    }
    simd_micro! {
        /// AVX2 `f32` tile, fused multiply-add.
        f32_avx2 / f32_avx2_impl: f32, "avx2,fma", 8,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_add_ps,
        |a, b, c| _mm256_fmadd_ps(a, b, c)
    }
    simd_micro! {
        /// AVX-512 `f64` tile, fused multiply-add (bit-identical to
        /// [`f64_avx2`]).
        f64_avx512 / f64_avx512_impl: f64, "avx512f", 8,
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_add_pd,
        |a, b, c| _mm512_fmadd_pd(a, b, c)
    }
    simd_micro! {
        /// AVX2 `f64` tile, fused multiply-add.
        f64_avx2 / f64_avx2_impl: f64, "avx2,fma", 4,
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_add_pd,
        |a, b, c| _mm256_fmadd_pd(a, b, c)
    }
}

/// Reference (naive, sequential, jik-order) matmul for testing: returns
/// `A · B` as a fresh matrix. Kept deliberately different in loop order
/// and memory layout from the packed production kernel so the two are
/// independent implementations.
pub fn matmul_reference<T: Real>(a: &[T], b: &[T], m: usize, n: usize, k: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![T::ZERO; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut s = T::ZERO;
            for kk in 0..k {
                s += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = s;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference::same_bits;
    use crate::layout::Op;
    use dcmesh_numerics::{c64, Complex, C32, C64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matches_reference_small() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, n, k) in &[(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 1, 9), (1, 8, 3)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut acc = vec![0.0; m * n];
            matmul_acc(&a, &b, &mut acc, m, n, k);
            let refc = matmul_reference(&a, &b, m, n, k);
            for (x, y) in acc.iter().zip(&refc) {
                assert!((x - y).abs() < 1e-12, "({m},{n},{k})");
            }
        }
    }

    #[test]
    fn matches_reference_ragged_shapes() {
        // m, n, k deliberately not multiples of any mr/nr/KC in use, plus
        // shapes that straddle the KC boundary, on both element widths.
        let shapes = [
            (13, 17, 130),
            (6, 16, 256),
            (7, 31, 257),
            (5, 33, 511),
            (23, 7, 300),
            (3, 66, 513),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for &(m, n, k) in &shapes {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut acc = vec![0.0; m * n];
            matmul_acc(&a, &b, &mut acc, m, n, k);
            let refc = matmul_reference(&a, &b, m, n, k);
            for (i, (x, y)) in acc.iter().zip(&refc).enumerate() {
                assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "f64 ({m},{n},{k}) i={i}");
            }

            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let mut acc32 = vec![0.0f32; m * n];
            matmul_acc(&a32, &b32, &mut acc32, m, n, k);
            for (i, (x, y)) in acc32.iter().zip(&refc).enumerate() {
                // f32 accumulation (possibly FMA-fused) vs the f64 reference.
                let tol = 1e-4 * (1.0 + y.abs());
                assert!((*x as f64 - y).abs() < tol, "f32 ({m},{n},{k}) i={i}: {x} vs {y}");
            }
        }
    }

    /// The pool sizes the thread-count tests run under.
    const POOLS: [usize; 5] = [1, 2, 3, 4, 8];

    /// Runs `f` with `threads` as the rayon thread count, checked.
    fn under_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(|| {
            assert_eq!(rayon::current_num_threads(), threads);
            f()
        })
    }

    /// The host's schedule with the task split forced on (`true`) or off.
    fn sched<T: MicroArch>(parallel: bool) -> Exec<T> {
        Exec { parallel: Some(parallel), ..Exec::host() }
    }

    #[test]
    fn matches_reference_parallel_path() {
        // Several tasks and several k-blocks.
        let (m, n, k) = (70, 65, 300);
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let acc = under_pool(2, || product_with(ComputeMode::Standard, &a, &b, m, n, k, sched(true)));
        let refc = matmul_reference(&a, &b, m, n, k);
        for (i, (x, y)) in acc.iter().zip(&refc).enumerate() {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "i={i}: {x} vs {y}");
        }
    }

    /// `acc += a·b` in `mode` on dense operands under an explicit [`Exec`].
    #[allow(clippy::too_many_arguments)]
    fn product_with<T: MicroArch>(
        mode: ComputeMode,
        a: &[T],
        b: &[T],
        m: usize,
        n: usize,
        k: usize,
        exec: Exec<T>,
    ) -> Vec<T> {
        let mut acc = vec![T::ZERO; m * n];
        let (a, b) = (OpSrc::dense_a(a, k), OpSrc::dense_b(b, n));
        real_product(mode, &a, &b, &mut acc, m, n, k, exec);
        acc
    }

    /// One complex product of every shape below, in every mode in
    /// `modes`, on one thread and under each of [`POOLS`], bit for bit.
    fn pools_match_one_thread<T: MicroArch>(modes: &[ComputeMode]) {
        use crate::gemm::{complex_gemm_with, stored_shapes, GemmArgs};
        let mut rng = StdRng::seed_from_u64(3);
        let (ct, no) = (Op::ConjTrans, Op::None);
        // The application's project and apply products at 96 orbitals,
        // panels ragged in m and n with k straddling KC, and a Hermitian
        // output of each triangle.
        let shapes: [(Op, Op, usize, usize, usize, Option<Uplo>); 5] = [
            (ct, no, 96, 96, 1728, None),
            (no, no, 1728, 96, 96, None),
            (no, Op::Trans, 301, 37, 300, None),
            (ct, no, 96, 96, 1728, Some(Uplo::Upper)),
            (no, ct, 96, 96, 300, Some(Uplo::Lower)),
        ];
        for (transa, transb, m, n, k, uplo) in shapes {
            let panels = m.div_ceil(Exec::<T>::host().kern.mr);
            let ((ar, ac), (br, bc)) = stored_shapes(transa, transb, m, n, k);
            let mut rand = |len: usize| -> Vec<Complex<T>> {
                let mut x = || T::from_f64(rng.gen_range(-1.0..1.0));
                (0..len).map(|_| Complex { re: x(), im: x() }).collect()
            };
            let (a, b, c0) = (rand(ar * ac), rand(br * bc), rand(m * n));
            let alpha = Complex { re: T::from_f64(0.75), im: T::from_f64(-0.5) };
            let beta = Complex { re: T::from_f64(0.5), im: T::ZERO };
            let g = GemmArgs { transa, transb, m, n, k, alpha, a: &a, lda: ac, b: &b, ldb: bc, beta, ldc: n, uplo };
            for &mode in modes {
                let run = |exec| {
                    let mut c = c0.clone();
                    complex_gemm_with(mode, &g, &mut c, exec);
                    c
                };
                let one = run(sched(false));
                for threads in POOLS {
                    let (per_task, _) = task_shape(panels, threads, uplo.is_some());
                    assert!(threads == 1 || panels.div_ceil(per_task) >= 2, "({m},{n},{k}) is one task");
                    let got = under_pool(threads, || run(sched(true)));
                    for (i, (x, y)) in got.iter().zip(&one).enumerate() {
                        assert!(
                            [x.re, x.im].map(|v| v.to_f64().to_bits())
                                == [y.re, y.im].map(|v| v.to_f64().to_bits()),
                            "{mode:?} ({m},{n},{k}) {uplo:?} {threads} threads i={i}: {x:?} vs {y:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seq_and_par_paths_bit_identical() {
        pools_match_one_thread::<f32>(&ComputeMode::ALL);
        // The two modes that apply to FP64 data.
        pools_match_one_thread::<f64>(&[ComputeMode::Standard, ComputeMode::Complex3m]);
        // And the Hermitian routines themselves, which take the pool's
        // thread count through the size heuristic.
        let mut rng = StdRng::seed_from_u64(4);
        let (n, k) = (96, 1728);
        let a64: Vec<C64> =
            (0..k * n).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let a32: Vec<C32> = a64.iter().map(|z| z.to_c32()).collect();
        let hermitian = |mode| {
            crate::config::with_compute_mode(mode, || {
                let (ct, one) = (Op::ConjTrans, C64::one());
                let mut herk32 = vec![C32::zero(); n * n];
                let (mut herk64, mut gemmt) = (vec![C64::zero(); n * n], vec![C64::zero(); n * n]);
                crate::cherk(Uplo::Lower, ct, n, k, 1.0, &a32, n, 0.0, &mut herk32, n);
                crate::zherk(Uplo::Upper, ct, n, k, 1.0, &a64, n, 0.0, &mut herk64, n);
                crate::zgemmt(Uplo::Lower, ct, Op::None, n, k, one, &a64, n, &a64, n, one, &mut gemmt, n);
                let bits32 = herk32.iter().flat_map(|z| [z.re, z.im].map(|v| u64::from(v.to_bits())));
                let bits64 = herk64.iter().chain(&gemmt).flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                bits32.chain(bits64).collect::<Vec<u64>>()
            })
        };
        for mode in ComputeMode::ALL {
            let one = under_pool(1, || hermitian(mode));
            for threads in POOLS {
                assert!(under_pool(threads, || hermitian(mode)) == one, "{mode:?} at {threads} threads");
            }
        }
    }

    /// Inputs with non-finite and subnormal lanes sprinkled in, so whole
    /// tiles stay finite while some rows/columns carry each special.
    fn spiked<T: Real>(rng: &mut StdRng, len: usize, tiny: T) -> Vec<T> {
        let specials = [T::from_f64(f64::NAN), T::from_f64(f64::INFINITY), tiny, T::ZERO];
        (0..len)
            .map(|i| {
                if rng.gen_range(0..97) == 0 {
                    specials[i % specials.len()]
                } else {
                    T::from_f64(rng.gen_range(-1.0..1.0))
                }
            })
            .collect()
    }

    /// Every kernel in `kernels` against the last one (the oracle), over
    /// `modes`, on shapes ragged in m and n and straddling `KC`, with and
    /// without special-value lanes.
    fn kernels_match<T: MicroArch>(kernels: &[MicroKernel<T>], modes: &[ComputeMode], tiny: T) {
        let (oracle, rest) = match kernels.split_last() {
            Some((oracle, rest)) if !rest.is_empty() => (oracle, rest),
            _ => {
                eprintln!("host offers {} of these kernels; nothing to compare", kernels.len());
                return;
            }
        };
        let shapes =
            [(16, 16, 1728), (96, 96, 600), (300, 16, 16), (37, 29, 513), (7, 33, 257)];
        let mut rng = StdRng::seed_from_u64(77);
        for &(m, n, k) in &shapes {
            for spikes in [false, true] {
                let (a, b): (Vec<T>, Vec<T>) = if spikes {
                    (spiked(&mut rng, m * k, tiny), spiked(&mut rng, k * n, tiny))
                } else {
                    let mut dense = |len: usize| -> Vec<T> {
                        (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect()
                    };
                    (dense(m * k), dense(k * n))
                };
                for &mode in modes {
                    let run = |kern: MicroKernel<T>| {
                        product_with(mode, &a, &b, m, n, k, Exec { kern, parallel: Some(false) })
                    };
                    let want = run(*oracle);
                    assert!(spikes || want.iter().all(|x| x.to_f64().is_finite()));
                    for kern in rest {
                        let got = run(*kern);
                        for (i, (&x, &y)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                same_bits(x, y),
                                "`{}` vs `{}` {mode:?} ({m},{n},{k}) spikes={spikes} i={i}: \
                                 {x} vs {y}",
                                kern.name,
                                oracle.name
                            );
                        }
                    }
                }
            }
        }
    }

    /// The SIMD tiers of one element width (widest first) and its generic
    /// kernel. One contract for both widths: the SIMD tiles fuse
    /// multiply-add and are bit-identical to each other; the generic tile
    /// does not, so it is outside their class.
    fn simd_and_generic<T: MicroArch>() -> (Vec<MicroKernel<T>>, MicroKernel<T>) {
        let [wide, mid, generic] = T::ladder();
        let simd = [wide, mid].into_iter().flatten().collect();
        (simd, generic.expect("generic kernel always present"))
    }

    #[test]
    fn f64_simd_kernels_bit_identical_and_within_k_eps_of_generic() {
        let (simd, generic) = simd_and_generic::<f64>();
        kernels_match(&simd, &[ComputeMode::Standard], f64::MIN_POSITIVE / 4.0);
        // Fused against unfused: both are a length-k dot product in some
        // order, each within γ_k·Σ|a||b| of the exact value.
        let mut rng = StdRng::seed_from_u64(78);
        for &(m, n, k) in &[(16, 16, 1728), (37, 29, 513), (7, 33, 257)] {
            let (a, b) = (random_matrix(&mut rng, m * k), random_matrix(&mut rng, k * n));
            let abs = |v: &[f64]| v.iter().map(|x| x.abs()).collect::<Vec<_>>();
            let mag = matmul_reference(&abs(&a), &abs(&b), m, n, k);
            let run = |kern| {
                let exec = Exec { kern, parallel: Some(false) };
                product_with(ComputeMode::Standard, &a, &b, m, n, k, exec)
            };
            let want = run(generic);
            for kern in &simd {
                let (got, mut moved) = (run(*kern), false);
                for (i, ((x, y), mag)) in got.iter().zip(&want).zip(&mag).enumerate() {
                    let bound = 2.0 * k as f64 * f64::EPSILON * mag;
                    assert!((x - y).abs() <= bound, "`{}` ({m},{n},{k}) i={i}: {x} vs {y}", kern.name);
                    moved |= x != y;
                }
                assert!(moved, "`{}` equals the unfused kernel bit for bit: not fused?", kern.name);
            }
        }
    }

    #[test]
    fn f32_simd_kernels_bit_identical_in_every_mode() {
        let (simd, _generic) = simd_and_generic::<f32>();
        kernels_match(&simd, &ComputeMode::ALL, 1.0e-42);
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // I2
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut acc = [100.0f32, 100.0, 100.0, 100.0];
        matmul_acc(&a, &b, &mut acc, 2, 2, 2);
        assert_eq!(acc, [105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut acc: Vec<f32> = vec![3.0; 6];
        // m == 0: A and C are empty, B still has its k*n elements.
        matmul_acc(&[], &[0.0; 15], &mut acc[..0], 0, 3, 5);
        // k == 0: nothing to accumulate.
        matmul_acc(&[], &[], &mut acc, 2, 3, 0);
        assert!(acc.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn zero_row_times_inf_propagates_nan() {
        // A's only row is all zeros; B holds an Inf. IEEE: 0·Inf = NaN,
        // and the kernel must not optimise it away.
        let a = [0.0f32, 0.0];
        let b = [1.0f32, f32::INFINITY, 2.0, 3.0];
        let mut acc = [0.0f32; 2];
        matmul_acc(&a, &b, &mut acc, 1, 2, 2);
        assert_eq!(acc[0], 0.0);
        assert!(acc[1].is_nan(), "0·Inf must produce NaN, got {}", acc[1]);
        // And the reference agrees.
        let r = matmul_reference(&a, &b, 1, 2, 2);
        assert!(r[1].is_nan());
    }

    #[test]
    fn zero_row_times_nan_propagates_on_parallel_path() {
        // Same property with the rows split into tasks over two threads.
        let (m, n, k) = (64, 64, 64);
        let a = vec![0.0f64; m * k];
        let mut b = vec![1.0f64; k * n];
        b[5 * n + 7] = f64::NAN;
        let acc = under_pool(2, || product_with(ComputeMode::Standard, &a, &b, m, n, k, sched(true)));
        for i in 0..m {
            assert!(acc[i * n + 7].is_nan(), "row {i} lost the NaN");
        }
        assert_eq!(acc[0], 0.0, "columns without NaN stay zero");
    }

    #[test]
    fn edge_panel_padding_cannot_launder_nonfinite() {
        // Shapes with ragged edge panels where the padded lanes multiply
        // real non-finite data: the pad results are discarded, the real
        // outputs must still carry the NaN/Inf.
        let (m, n, k) = (5, 9, 7); // all ragged for any mr/nr in use
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        b[3 * n + (n - 1)] = f32::INFINITY; // last (padded-side) column
        a[(m - 1) * k] = 1.0; // last (padded-side) row is non-zero
        let mut acc = vec![0.0f32; m * n];
        matmul_acc(&a, &b, &mut acc, m, n, k);
        for i in 0..m {
            assert!(acc[i * n + n - 1].is_nan() || acc[i * n + n - 1].is_infinite(),
                "row {i}: non-finite lost at ragged edge: {}", acc[i * n + n - 1]);
        }
        assert_eq!(acc[(m - 1) * n], 1.0, "real edge-row output wrong");
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn shape_mismatch_panics() {
        let mut acc = vec![0.0f32; 4];
        matmul_acc(&[1.0; 3], &[1.0; 4], &mut acc, 2, 2, 2);
    }
}
