//! The packed, blocked GEMM core shared by every dense path.
//!
//! Every level-3 routine reduces to one or more *products*
//! `out += op(A)·op(B)` run by a single BLIS-style blocked driver
//! ([`gemm_packed`]):
//!
//! * the k dimension is tiled into `KC`-deep blocks;
//! * per k-block, B is packed into `nr`-column panels and A into `mr`-row
//!   panels ([`super::pack`]), both into scratch pooled on the calling
//!   thread and read straight from the caller's strided (for the complex
//!   routines: interleaved) storage — `op()`, plane separation and
//!   precision conversion (BF16/TF32 rounding, split-plane decomposition)
//!   all happen during this pack, once per source element per k-block;
//! * a register-blocked `mr × nr` microkernel accumulates every term of a
//!   product for a C tile in registers before a single writeback, so the
//!   split-precision modes share both the packed operands *and* the
//!   accumulator across their plane products, and the complex routines
//!   run all their real products off one packed k-block.
//!
//! The microkernel is a tile of a [`Rung`] ([`MicroArch::tile`]):
//! `avx512f → avx2(+fma) → generic`, for both element widths, and a call
//! runs the widest its CPU has. On `avx512f` the `f32` tile's height is
//! the product's own: 24 rows where that pads `m` no more than 16 do,
//! else 16. The rung is the whole call's: the pack closures carry it to
//! the gather and the conversion. One contract for every tile: it fuses
//! each multiply and add (the portable one through [`Real::mul_add`]) and
//! accumulates a C element's `kk` products in one lane in the same order,
//! so tile geometry never shows in the result and every tile gives the
//! same bits.
//!
//! A Hermitian output (`herk`, `gemmt`) passes an [`Uplo`] and the driver
//! skips every tile lying strictly in the other triangle. That filter is
//! the only triangle logic there is: the tiles that do run read the same
//! packed panels through the same microkernel in the same order as the
//! full product's, so the computed triangle is the full product's, bit
//! for bit.
//!
//! Parallelism deals a product to the rayon pool's threads, the caller
//! included, on one of two [`Schedule`]s, or runs it on one. *Rows* cuts C into tasks,
//! contiguous runs of `mr`-row panels ([`task_shape`], at most
//! [`task_panels`] each, so a 24-row task keeps a 16-row one's L2
//! budget): per k-block B is packed on the calling thread, and each task
//! packs its own rows of A into its own slice of the scratch, then runs
//! its tiles. *Depth*, for
//! the short, deep products rows would not cut, deals the k-blocks to the
//! tasks in contiguous runs ([`depth_runs`]): a task packs its own A and B
//! blocks and runs all their tiles, the first task into the accumulator
//! and every other one into a slot per (k-block, product) that starts at
//! −0, the exact additive identity; after the join the caller adds the
//! slots into the accumulator in (k-block, product) order. Either way each
//! C element gets one microkernel sum per (product, k-block), added in a
//! fixed (k-block, product, term, kk) order that depends on neither the
//! schedule nor the thread count nor the task cut — runs are bit-identical
//! by construction (asserted by `seq_and_par_paths_bit_identical`).

use super::pack::{self, OpSrc, Side};
use crate::layout::Uplo;
use crate::mode::ComputeMode;
use crate::workspace::{take_scratch, Poolable};
use dcmesh_numerics::split::MAX_SPLIT_DEPTH;
use dcmesh_numerics::{Real, Rung};
use rayon::prelude::*;
use std::sync::Mutex;

/// Whether a product of `panels` row panels of `mr` rows takes the row
/// schedule: when its output is tall (at least two full tasks,
/// `2 ·` [`task_panels`]), or when `m·n·k` reaches [`PAR_THRESHOLD`] MACs.
/// Measured on the application shapes at 1 and 2 threads (EXPERIMENTS.md):
/// a tall apply product (`1728 × n_orb × n_orb`, 72–216 panels) ran faster
/// cut by rows at every `n_orb` from 16 to 96; a short project product
/// (`n_orb × n_orb × 1728`, 1–12 panels) ran up to 2× slower cut by rows
/// below ~4 M MACs and faster at 16 M. Below that, a short product with
/// several k-blocks is cut by depth instead ([`Schedule::choose`]).
fn splits(panels: usize, mr: usize, m: usize, n: usize, k: usize) -> bool {
    panels >= 2 && (panels >= 2 * task_panels(mr) || m * n * k >= PAR_THRESHOLD)
}

/// `m·n·k` from which a short product splits (see [`splits`]).
const PAR_THRESHOLD: usize = 1 << 22;

/// Depth of one packed k-block.
pub(crate) const KC: usize = 256;

/// Row panels of `mr` rows per task at most: a task's packed A panels stay
/// L2-resident while the packed B panels go past them. [`MC_PANELS`]
/// panels, and no more than [`MC_ROWS`] rows, which only the 24-row tile
/// reaches: at BF16x3 its A block stays within the 16-row tile's, 6
/// planes of 256 rows × `KC` `f32` = 1.5 MiB (sixteen 24-row panels would
/// be 2.4 MB against a 2 MiB L2). Every other tile keeps its sixteen panels.
fn task_panels(mr: usize) -> usize {
    MC_PANELS.min(MC_ROWS / mr)
}

/// Row panels per task at most (see [`task_panels`]).
const MC_PANELS: usize = 16;

/// Output rows per task at most (see [`task_panels`]).
const MC_ROWS: usize = 256;

/// How one product is dealt to the rayon pool's threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Every tile on the calling thread.
    One,
    /// C cut into tasks of contiguous `mr`-row panels ([`task_shape`]).
    Rows,
    /// The k-blocks dealt to tasks in contiguous runs ([`depth_runs`]).
    Depth,
}

impl Schedule {
    /// The schedule of a product of `m` rows, in panels of `mr`, on
    /// `threads` threads: rows where [`splits`] says so; otherwise depth
    /// when `k` spans at least two k-blocks and `m·n·k` is below
    /// [`PAR_THRESHOLD`], which bounds the slots at about
    /// `2·PAR_THRESHOLD / KC` elements per product; otherwise one thread.
    /// Depth needs no crossover of its own: at 2 threads it beat one thread
    /// on every application shape measured, down to the 8-orbital deck's
    /// (EXPERIMENTS.md).
    fn choose(mr: usize, m: usize, n: usize, k: usize, threads: usize) -> Schedule {
        if threads < 2 {
            Schedule::One
        } else if splits(m.div_ceil(mr), mr, m, n, k) {
            Schedule::Rows
        } else if k > KC && m * n * k < PAR_THRESHOLD {
            Schedule::Depth
        } else {
            Schedule::One
        }
    }
}

/// How `panels` row panels of `mr` rows are cut into tasks for `threads`
/// threads: `(panels per task, tasks packed per round)`. Tasks are
/// balanced over the threads and hold at most [`task_panels`] panels, so
/// a product of at most that many panels is one task on one thread and
/// `threads` tasks on `threads`. A Hermitian output's tiles thin out
/// towards one corner, so under threads it is cut into twice as many
/// tasks, claimed as threads come free. The packed A scratch holds one
/// round — at most `threads · task_panels(mr)` panels, bounded by the task
/// size, not by `m`.
fn task_shape(panels: usize, mr: usize, threads: usize, triangle: bool) -> (usize, usize) {
    let most = task_panels(mr);
    let per_thread = if triangle && threads > 1 { 2 } else { 1 };
    let per_task = panels.div_ceil(threads * per_thread * panels.div_ceil(threads * most));
    (per_task, threads * (most / per_task).max(1))
}

/// How `blocks ≥ 1` k-blocks are dealt to `threads` threads: `(k-blocks
/// per task, tasks)`. Runs are contiguous and all full but the last, so
/// the first task — the one that writes straight into the accumulator —
/// takes the longest (blocks 0–3 and 4–6 of a 1728-deep product on two).
fn depth_runs(blocks: usize, threads: usize) -> (usize, usize) {
    let run = blocks.div_ceil(threads.clamp(1, blocks));
    (run, blocks.div_ceil(run))
}

/// The microkernel signature: accumulate one product's terms into one
/// `rows × cols` tile of `ctile` (a row-panel slice of the accumulator or
/// of a depth slot, leading dimension `ldc`, tile origin column `j0`).
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

/// A register-blocking choice plus the matching microkernel, and the rung
/// it is compiled for.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct MicroKernel<T: 'static> {
    pub(crate) rung: Rung,
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
    /// The tile `rung` runs for a product of `m` output rows (`Portable`:
    /// the generic tile) — the one place a tile is chosen. Panics when
    /// this CPU lacks the rung.
    #[doc(hidden)]
    fn tile(rung: Rung, m: usize) -> MicroKernel<Self>;

    /// The pack-time precision conversion of `mode` on `rung`: turns the
    /// raw values in `planes[..len]` into the mode's `split_depth` planes,
    /// plane `t` at `planes[t·stride..][..len]`, in place.
    #[doc(hidden)]
    fn convert(
        rung: Rung,
        mode: ComputeMode,
        side: Side,
        planes: &mut [Self],
        stride: usize,
        len: usize,
    );
}

/// The widest rung the tiles and the pack conversion are compiled for.
const TOP: Rung = Rung::Avx512f;

/// `rung`, which this CPU must run.
fn checked(rung: Rung) -> Rung {
    assert!(rung.available(), "{} is not available on this CPU", rung.name());
    rung
}

/// Whether `tall`-row panels pad `m` rows no more than `short`-row ones:
/// the height rule (a tie goes to the taller tile, which runs more FMAs
/// per B load).
fn pads_no_more(tall: usize, short: usize, m: usize) -> bool {
    m.div_ceil(tall) * tall - m <= m.div_ceil(short) * short - m
}

/// A SIMD tile: `x86::$f::<MR, NV>` is an `MR × NV·LANES` tile.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_tile {
    ($rung:expr, $name:literal, $f:ident, $mr:literal, $nv:literal, $lanes:literal) => {{
        let micro = x86::$f::<$mr, $nv>;
        MicroKernel { rung: $rung, name: $name, mr: $mr, nr: $nv * $lanes, micro }
    }};
}

impl MicroArch for f32 {
    fn tile(rung: Rung, m: usize) -> MicroKernel<f32> {
        match checked(rung) {
            // 24 of the 32 zmm registers accumulate where the output is
            // tall enough to fill the rows; 16 where 24 would pad more.
            #[cfg(target_arch = "x86_64")]
            Rung::Avx512f if pads_no_more(24, 16, m) => {
                simd_tile!(rung, "avx512f fma 24x16", f32_avx512, 24, 1, 16)
            }
            #[cfg(target_arch = "x86_64")]
            Rung::Avx512f => simd_tile!(rung, "avx512f fma 16x16", f32_avx512, 16, 1, 16),
            #[cfg(target_arch = "x86_64")]
            Rung::Avx2 => simd_tile!(rung, "avx2 fma 6x16", f32_avx2, 6, 2, 8),
            _ => {
                let micro = micro_generic::<f32, 4, 8>;
                MicroKernel { rung: Rung::Portable, name: "generic fma 4x8", mr: 4, nr: 8, micro }
            }
        }
    }

    fn convert(
        rung: Rung,
        mode: ComputeMode,
        side: Side,
        planes: &mut [f32],
        stride: usize,
        len: usize,
    ) {
        pack::convert_f32_at(rung, mode, side, planes, stride, len);
    }
}

impl MicroArch for f64 {
    fn tile(rung: Rung, _m: usize) -> MicroKernel<f64> {
        match checked(rung) {
            #[cfg(target_arch = "x86_64")]
            Rung::Avx512f => simd_tile!(rung, "avx512f fma 8x16", f64_avx512, 8, 2, 8),
            #[cfg(target_arch = "x86_64")]
            Rung::Avx2 => simd_tile!(rung, "avx2 fma 4x8", f64_avx2, 4, 2, 4),
            _ => {
                let micro = micro_generic::<f64, 4, 4>;
                MicroKernel { rung: Rung::Portable, name: "generic fma 4x4", mr: 4, nr: 4, micro }
            }
        }
    }

    fn convert(_: Rung, mode: ComputeMode, _: Side, _: &mut [f64], _: usize, _: usize) {
        // The FLOAT_TO_* modes re-represent single-precision data only.
        debug_assert!(mode.split_depth().is_none(), "{mode:?} does not apply to f64");
    }
}

/// Every tile `rung` runs, one per height, tallest first: the tiles
/// [`MicroArch::tile`] picks over `m` from 1 to 96, which covers every
/// residue of the heights in use.
#[cfg(test)]
pub(crate) fn heights<T: MicroArch>(rung: Rung) -> Vec<MicroKernel<T>> {
    let mut tiles: Vec<MicroKernel<T>> = Vec::new();
    for kern in (1..=96).map(|m| T::tile(rung, m)) {
        if tiles.iter().all(|t| t.mr != kern.mr) {
            tiles.push(kern);
        }
    }
    tiles.sort_by_key(|t| core::cmp::Reverse(t.mr));
    tiles
}

/// How one driver run executes: which microkernel — whose rung the pack
/// runs on too — and which [`Schedule`] (`None` = [`Schedule::choose`]).
/// Everything outside tests uses [`Exec::host`]; tests pin a rung or a
/// schedule to compare them bit for bit on identical inputs.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct Exec<T: 'static> {
    pub(crate) kern: MicroKernel<T>,
    pub(crate) schedule: Option<Schedule>,
}

impl<T: MicroArch> Exec<T> {
    /// The tile of the widest rung the host runs for a product of `m`
    /// output rows, the schedule by shape.
    pub(crate) fn host(m: usize) -> Self {
        Exec { kern: T::tile(Rung::at_most(TOP), m), schedule: None }
    }

    /// The host's tile geometry for `m` rows around a microkernel that
    /// does nothing: what is left of a product is its pack (see
    /// [`super::complex_gemm_sans_microkernel`]).
    pub(crate) fn sans_microkernel(m: usize) -> Self {
        let host = Self::host(m);
        let kern = MicroKernel { name: "none", micro: |_, _, _, _, _, _, _, _, _| {}, ..host.kern };
        Exec { kern, ..host }
    }
}

/// Name of the microkernel a GEMM over `T` with `m` output rows
/// dispatches to on this host (ISA, arithmetic, tile), for bench rows.
pub fn dispatched_kernel<T: MicroArch>(m: usize) -> &'static str {
    Exec::<T>::host(m).kern.name
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
    let (depth, rung) = (mode.split_depth().unwrap_or(1), exec.kern.rung);
    gemm_packed(
        acc,
        1,
        m,
        n,
        k,
        &[Product { a: 0, b: 0, depth, out: 0 }],
        None,
        move |r0, rows, k0, kc, mr, dst: &mut [T], stride| {
            let len = pack::gather(rung, &a.offset(r0), rows, k0, kc, mr, dst, stride, |x| [x]);
            T::convert(rung, mode, Side::A, dst, stride, len);
        },
        |k0, kc, nr, dst: &mut [T], stride| {
            let len = pack::gather(rung, b, n, k0, kc, nr, dst, stride, |x| [x]);
            T::convert(rung, mode, Side::B, dst, stride, len);
        },
        exec,
    );
}

/// The blocked driver. `acc` holds `nout` row-interleaved outputs: it is
/// an `m × (nout·n)` matrix whose columns `[o·n, (o+1)·n)` are output
/// `o`. For every k-block the caller's closures pack it — each operand
/// element gathered and converted once per call — and every entry of
/// `products` is accumulated from that one packed block.
///
/// `pack_b(k0, kc, nr, dst, stride)` must fill every B plane the products
/// read (plane `t` at `dst[t·stride..]`) with the `nr`-column panel
/// layout of the k-slice `[k0, k0+kc)`. `pack_a(r0, rows, k0, kc, mr, dst,
/// stride)` does the same in `mr`-row panels for rows `[r0, r0+rows)` of
/// `op(A)` only. Each runs on whichever thread the [`Schedule`] gives that
/// work to — so both hold the mode and source views by value and read no
/// thread's state — into a slice of the scratch the caller took: the
/// packed scratch is bounded by a round of tasks instead of by the
/// operands, is still in cache when the microkernel reads it, and no
/// worker touches the workspace pool.
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
    pack_b: PB,
    exec: Exec<T>,
) where
    T: MicroArch,
    PA: Fn(usize, usize, usize, usize, usize, &mut [T], usize) + Sync,
    PB: Fn(usize, usize, usize, &mut [T], usize) + Sync,
{
    let ldc = nout * n;
    assert_eq!(acc.len(), m * ldc, "accumulator shape mismatch");
    assert!(uplo.is_none() || m == n, "a triangle needs a square output");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let Exec { kern, schedule } = exec;
    let threads = rayon::current_num_threads();
    let schedule =
        schedule.unwrap_or_else(|| Schedule::choose(kern.mr, m, n, k, threads));
    let driver = Driver { kern, products, uplo, m, n, k, pack_a, pack_b };
    match schedule {
        Schedule::One => driver.by_rows(acc, ldc, 1),
        Schedule::Rows => driver.by_rows(acc, ldc, threads),
        Schedule::Depth => driver.by_depth(acc, ldc, threads),
    }
}

/// One [`gemm_packed`] call: what every schedule shares.
struct Driver<'p, T: 'static, PA, PB> {
    kern: MicroKernel<T>,
    products: &'p [Product],
    uplo: Option<Uplo>,
    m: usize,
    n: usize,
    k: usize,
    pack_a: PA,
    pack_b: PB,
}

/// One packed k-block: the A planes of some rows (plane `t` at
/// `pa[t·a_stride..]`) and the B planes (`pb[t·b_stride..]`), `kc` deep.
struct Block<'b, T> {
    pa: &'b [T],
    a_stride: usize,
    pb: &'b [T],
    b_stride: usize,
    kc: usize,
}

impl<T, PA, PB> Driver<'_, T, PA, PB>
where
    T: MicroArch,
    PA: Fn(usize, usize, usize, usize, usize, &mut [T], usize) + Sync,
    PB: Fn(usize, usize, usize, &mut [T], usize) + Sync,
{
    /// Planes of packed A and of packed B the products read.
    fn planes(&self) -> (usize, usize) {
        let last = |side: fn(&Product) -> usize| self.products.iter().map(side).max().unwrap_or(0);
        (last(|pr| pr.a + pr.depth), last(|pr| pr.b + pr.depth))
    }

    /// Elements of one packed B plane.
    fn b_stride(&self) -> usize {
        self.n.div_ceil(self.kern.nr) * self.kern.nr * KC.min(self.k)
    }

    /// Every tile of one packed k-block whose A planes hold the output's
    /// rows from `i0` on, added into `out`: as many of those rows as it
    /// holds, leading dimension `ldo`. Product `p` adds into column block
    /// `p` of `out` when `per_product` (a slot group), else into its
    /// output's. Looping q (B panel) outside the row panels keeps each B
    /// panel hot in L1 while the L2-resident A panels stream past it.
    fn tiles(&self, out: &mut [T], ldo: usize, per_product: bool, i0: usize, blk: &Block<'_, T>) {
        let Block { pa, a_stride, pb, b_stride, kc } = *blk;
        let (mr, nr, n) = (self.kern.mr, self.kern.nr, self.n);
        let rows_total = out.len() / ldo;
        for q in 0..n.div_ceil(nr) {
            let j0 = q * nr;
            let cols = nr.min(n - j0);
            let b_off = q * nr * kc;
            for (ir, r0) in (0..rows_total).step_by(mr).enumerate() {
                let rows = mr.min(rows_total - r0);
                // The tile spans rows [i, i+rows) × columns [j0, j0+cols)
                // of the output.
                let i = i0 + r0;
                let outside = match self.uplo {
                    None => false,
                    Some(Uplo::Lower) => j0 >= i + rows,
                    Some(Uplo::Upper) => j0 + cols <= i,
                };
                if outside {
                    continue;
                }
                let a_off = ir * mr * kc;
                for (p, pr) in self.products.iter().enumerate() {
                    let mut terms = [(0usize, 0usize); MAX_SPLIT_DEPTH];
                    for (t, term) in terms.iter_mut().enumerate().take(pr.depth) {
                        *term = ((pr.a + t) * a_stride + a_off, (pr.b + t) * b_stride + b_off);
                    }
                    let col = if per_product { p } else { pr.out };
                    (self.kern.micro)(
                        &terms[..pr.depth],
                        pa,
                        pb,
                        kc,
                        &mut out[r0 * ldo..],
                        ldo,
                        col * n + j0,
                        rows,
                        cols,
                    );
                }
            }
        }
    }

    /// The row schedule (on one thread when `threads == 1`): per k-block,
    /// B packed on the calling thread, then each task packs its rows of A
    /// and runs their tiles.
    fn by_rows(&self, acc: &mut [T], ldc: usize, threads: usize) {
        let (mr, nr, k) = (self.kern.mr, self.kern.nr, self.k);
        let panels = self.m.div_ceil(mr);
        let (per_task, per_round) = task_shape(panels, mr, threads, self.uplo.is_some());
        let task_rows = per_task * mr;
        let (a_planes, b_planes) = self.planes();
        let (a_stride, b_stride) = (task_rows * KC.min(k), self.b_stride());
        // The packed A planes of each task of a round.
        let a_len = a_planes * a_stride;
        let mut pa_buf = take_scratch::<T>(per_round.min(panels.div_ceil(per_task)) * a_len);
        let mut pb_buf = take_scratch::<T>(b_planes * b_stride);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            (self.pack_b)(k0, kc, nr, &mut pb_buf, b_stride);
            let pb: &[T] = &pb_buf;
            for (ri, round) in acc.chunks_mut(per_round * task_rows * ldc).enumerate() {
                round
                    .par_chunks_mut(task_rows * ldc)
                    .zip(pa_buf.par_chunks_mut(a_len))
                    .enumerate()
                    .for_each(|(ti, (cblk, pa))| {
                        let i0 = (ri * per_round + ti) * task_rows;
                        (self.pack_a)(i0, cblk.len() / ldc, k0, kc, mr, pa, a_stride);
                        self.tiles(cblk, ldc, false, i0, &Block { pa, a_stride, pb, b_stride, kc });
                    });
            }
        }
    }

    /// The depth schedule: each task packs and runs a contiguous run of
    /// k-blocks, all rows. The first task adds into `acc`; every other
    /// adds each (k-block, product) sum `P` into its own slot, filled with
    /// −0 first so that it holds `−0 + P = P` exactly, whatever `P` is.
    /// After the join the slots are added into `acc` in (k-block, product)
    /// order — each `acc` element sees the additions the row schedule makes,
    /// in the same order, so the bits are the same.
    fn by_depth(&self, acc: &mut [T], ldc: usize, threads: usize) {
        let (mr, nr, m, n, k) = (self.kern.mr, self.kern.nr, self.m, self.n, self.k);
        let blocks = k.div_ceil(KC);
        let (run, tasks) = depth_runs(blocks, threads);
        let (a_planes, b_planes) = self.planes();
        let (a_stride, b_stride) = (m.div_ceil(mr) * mr * KC.min(k), self.b_stride());
        let (a_len, b_len) = (a_planes * a_stride, b_planes * b_stride);
        // A slot group holds one k-block's sums: row i is one n-column
        // block per product. A task's slots follow its packed B.
        let ldg = self.products.len() * n;
        let group = m * ldg;
        let bs_len = b_len + run * group;
        // The larger checkout first: the pool hands each checkout the most
        // recently returned buffer that fits, and in this order the pools
        // of a 16-orbital deck settle ~80 KiB smaller.
        let mut pbs_buf = take_scratch::<T>(tasks * bs_len);
        let mut pa_buf = take_scratch::<T>(tasks * a_len);
        let first = Mutex::new(acc);
        pa_buf.par_chunks_mut(a_len).zip(pbs_buf.par_chunks_mut(bs_len)).enumerate().for_each(
            |(ti, (pa, pbs))| {
                let (pb, slots) = pbs.split_at_mut(b_len);
                let mut acc = (ti == 0).then(|| first.lock().expect("only task 0 locks it"));
                for (bi, k0) in (ti * run * KC..k).step_by(KC).take(run).enumerate() {
                    let kc = KC.min(k - k0);
                    (self.pack_b)(k0, kc, nr, pb, b_stride);
                    (self.pack_a)(0, m, k0, kc, mr, pa, a_stride);
                    let blk = Block { pa, a_stride, pb, b_stride, kc };
                    match acc.as_deref_mut() {
                        Some(acc) => self.tiles(acc, ldc, false, 0, &blk),
                        None => {
                            let slot = &mut slots[bi * group..][..group];
                            slot.fill(-T::ZERO);
                            self.tiles(slot, ldg, true, 0, &blk);
                        }
                    }
                }
            },
        );
        // A task that panicked has already unwound this frame.
        let acc = first.into_inner().expect("every task returned");
        // Every run but the last is full, so the later tasks' slot groups,
        // task by task, are k-blocks `run..blocks` in order.
        let later = pbs_buf.chunks(bs_len).skip(1).flat_map(|pbs| pbs[b_len..].chunks(group));
        for slot in later.take(blocks - run) {
            for (arow, srow) in acc.chunks_exact_mut(ldc).zip(slot.chunks_exact(ldg)) {
                for (pr, sums) in self.products.iter().zip(srow.chunks_exact(n)) {
                    for (a, &s) in arow[pr.out * n..][..n].iter_mut().zip(sums) {
                        *a += s;
                    }
                }
            }
        }
    }
}

/// Safe register-blocked microkernel — the portable rung, and the oracle
/// the SIMD tiles are tested against bit for bit. Each multiply and add
/// is one [`Real::mul_add`], in the SIMD tiles' order: one instruction
/// where the target has FMA, a libm call on the x86-64 baseline (an `f32`
/// tile ran at 0.7 GFLOP/s there against 23 unfused on an AVX-512 Xeon;
/// EXPERIMENTS.md).
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
                    *av = aik.mul_add(bv, *av);
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
                // SAFETY: `MicroArch::tile` only hands out this fn
                // pointer after asserting `rung.available()`, which
                // detected the target features; the body reads `MR·kc` / `nr·kc`
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
            add_product(&a, &b, &mut acc, m, n, k);
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
            add_product(&a, &b, &mut acc, m, n, k);
            let refc = matmul_reference(&a, &b, m, n, k);
            for (i, (x, y)) in acc.iter().zip(&refc).enumerate() {
                assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "f64 ({m},{n},{k}) i={i}");
            }

            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let mut acc32 = vec![0.0f32; m * n];
            add_product(&a32, &b32, &mut acc32, m, n, k);
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

    /// The host's kernel for `m` rows under a forced schedule.
    fn sched<T: MicroArch>(schedule: Schedule, m: usize) -> Exec<T> {
        Exec { schedule: Some(schedule), ..Exec::host(m) }
    }

    /// Tasks `schedule` cuts a product of `panels` row panels of `mr` rows
    /// and depth `k` into on `threads` threads.
    fn tasks(schedule: Schedule, (panels, mr): (usize, usize), k: usize, threads: usize, triangle: bool) -> usize {
        match schedule {
            Schedule::One => 1,
            Schedule::Rows => panels.div_ceil(task_shape(panels, mr, threads, triangle).0),
            Schedule::Depth => depth_runs(k.div_ceil(KC), threads).1,
        }
    }

    #[test]
    fn matches_reference_parallel_path() {
        // Several tasks and several k-blocks, under both schedules.
        let (m, n, k) = (70, 65, 300);
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let refc = matmul_reference(&a, &b, m, n, k);
        for schedule in [Schedule::Rows, Schedule::Depth] {
            let acc =
                under_pool(2, || product_with(ComputeMode::Standard, &a, &b, m, n, k, sched(schedule, m)));
            for (i, (x, y)) in acc.iter().zip(&refc).enumerate() {
                assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "{schedule:?} i={i}: {x} vs {y}");
            }
        }
    }

    /// `a·b` in `mode` on dense operands under an explicit [`Exec`].
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
        let (a, b) = (OpSrc::a(Op::None, a, k), OpSrc::b(Op::None, b, n));
        real_product(mode, &a, &b, &mut acc, m, n, k, exec);
        acc
    }

    /// `acc += a·b` at native precision on the host's kernel, for dense
    /// row-major operands: `a` is `m × k`, `b` is `k × n`, `acc` is
    /// `m × n`.
    fn add_product<T: MicroArch>(a: &[T], b: &[T], acc: &mut [T], m: usize, n: usize, k: usize) {
        assert_eq!(a.len(), m * k, "A shape mismatch");
        assert_eq!(b.len(), k * n, "B shape mismatch");
        assert_eq!(acc.len(), m * n, "C shape mismatch");
        let (a, b) = (OpSrc::a(Op::None, a, k), OpSrc::b(Op::None, b, n));
        real_product(ComputeMode::Standard, &a, &b, acc, m, n, k, Exec::host(m));
    }

    /// One complex product of every shape below, in every mode in
    /// `modes`, on one thread and under both schedules at each of
    /// [`POOLS`], bit for bit. Each shape names the schedule it is here
    /// for, which must cut it into at least two tasks on two threads or
    /// more.
    fn pools_match_one_thread<T: MicroArch + crate::element::Element>(modes: &[ComputeMode]) {
        use crate::gemm::{level3, GemmArgs};
        use Schedule::{Depth, Rows};
        let mut rng = StdRng::seed_from_u64(3);
        let (ct, no) = (Op::ConjTrans, Op::None);
        let (up, lo) = (Some(Uplo::Upper), Some(Uplo::Lower));
        // Cut by rows: the application's project and apply products at 96
        // orbitals, panels ragged in m and n with k straddling KC, and a
        // Hermitian output of each triangle. Cut by depth: the short, deep
        // products of the decks — the project at 16, 32 and 48 orbitals,
        // the 8-orbital remap on ld-16 views with B at column offset 8
        // (`view`), and the 16-orbital Hermitian outputs of ZHERK/ZGEMMT.
        #[allow(clippy::type_complexity)]
        let shapes: [(Op, Op, usize, usize, usize, Option<Uplo>, Schedule, bool); 11] = [
            (ct, no, 96, 96, 1728, None, Rows, false),
            (no, no, 1728, 96, 96, None, Rows, false),
            (no, Op::Trans, 301, 37, 300, None, Rows, false),
            (ct, no, 96, 96, 1728, up, Rows, false),
            (no, ct, 96, 96, 300, lo, Rows, false),
            (ct, no, 16, 16, 1728, None, Depth, false),
            (ct, no, 8, 8, 1728, None, Depth, true),
            (ct, no, 32, 32, 1728, None, Depth, false),
            (ct, no, 48, 48, 1728, None, Depth, false),
            (ct, no, 16, 16, 1728, up, Depth, false),
            (ct, no, 16, 16, 1728, lo, Depth, false),
        ];
        for (transa, transb, m, n, k, uplo, under_test, view) in shapes {
            let mr = Exec::<T>::host(m).kern.mr;
            let panels = (m.div_ceil(mr), mr);
            let ((ar, ac), (br, bc)) = (transa.applied_shape(m, k), transb.applied_shape(k, n));
            let (lda, ldb, b_col) = if view { (2 * ac, 2 * bc, bc) } else { (ac, bc, 0) };
            let mut rand = |len: usize| -> Vec<Complex<T>> {
                let mut x = || T::from_f64(rng.gen_range(-1.0..1.0));
                (0..len).map(|_| Complex { re: x(), im: x() }).collect()
            };
            let (a, b, c0) = (rand(ar * lda), rand(br * ldb), rand(m * n));
            let alpha = Complex { re: T::from_f64(0.75), im: T::from_f64(-0.5) };
            let beta = Complex { re: T::from_f64(0.5), im: T::from_f64(0.0) };
            let b = &b[b_col..];
            let real_diag = false;
            let g = GemmArgs { transa, transb, m, n, k, alpha, a: &a, lda, b, ldb, beta, ldc: n, uplo, real_diag };
            for &mode in modes {
                let run = |exec| {
                    let mut c = c0.clone();
                    level3(mode, &g, &mut c, exec);
                    c
                };
                let one = run(sched(Schedule::One, m));
                for threads in POOLS {
                    let cut = tasks(under_test, panels, k, threads, uplo.is_some());
                    assert!(threads == 1 || cut >= 2, "({m},{n},{k}) is {cut} {under_test:?} task");
                    for schedule in [Rows, Depth] {
                        let got = under_pool(threads, || run(sched(schedule, m)));
                        for (i, (x, y)) in got.iter().zip(&one).enumerate() {
                            assert!(
                                [x.re, x.im].map(|v| v.to_f64().to_bits())
                                    == [y.re, y.im].map(|v| v.to_f64().to_bits()),
                                "{mode:?} ({m},{n},{k}) {uplo:?} {schedule:?} {threads} threads \
                                 i={i}: {x:?} vs {y:?}"
                            );
                        }
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
        // And the Hermitian routines themselves, which take their schedule
        // by shape: by rows at 96 orbitals, by depth at 16.
        let mut rng = StdRng::seed_from_u64(4);
        for n in [16, 96] {
            hermitian_pools_match_one_thread(&mut rng, n, 1728);
        }
    }

    /// CHERK, ZHERK and ZGEMMT of `A† · A` (`A: k × n`) in every mode, at
    /// each of [`POOLS`] against one thread, bit for bit.
    fn hermitian_pools_match_one_thread(rng: &mut StdRng, n: usize, k: usize) {
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
                assert!(under_pool(threads, || hermitian(mode)) == one, "{mode:?} n={n} at {threads} threads");
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
    /// `modes`, on shapes ragged in m and n and straddling `KC` — every `m`
    /// from 1 to 50, so each height meets edge panels of every fill, a
    /// 24-row one with up to 23 pad rows — with and without special-value
    /// lanes.
    fn kernels_match<T: MicroArch>(kernels: &[MicroKernel<T>], modes: &[ComputeMode], tiny: T) {
        let (oracle, rest) = kernels.split_last().expect("the portable rung always runs");
        let mut shapes =
            vec![(16, 16, 1728), (96, 96, 600), (300, 16, 16), (37, 29, 513), (7, 33, 257)];
        shapes.extend((1..=50).map(|m| (m, 19, 300)));
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
                        product_with(mode, &a, &b, m, n, k, Exec { kern, schedule: Some(Schedule::One) })
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

    /// Every tile of every rung this host runs — each height of a rung —
    /// widest rung first: the generic tile last.
    fn ladder<T: MicroArch>() -> Vec<MicroKernel<T>> {
        Rung::ALL.into_iter().filter(|r| r.available()).flat_map(heights::<T>).collect()
    }

    #[test]
    fn the_height_rule_pads_least_and_ties_go_to_24_rows() {
        if !Rung::Avx512f.available() {
            eprintln!("skipped: this CPU has no avx512f");
            return;
        }
        let f32_rows = [
            (1, 16), (8, 16), (16, 16), (17, 24), (23, 24), (24, 24),
            (32, 16), (48, 24), (64, 16), (96, 24), (128, 16), (1728, 24),
        ];
        for (m, mr) in f32_rows {
            let kern = f32::tile(Rung::Avx512f, m);
            assert_eq!((kern.mr, kern.nr), (mr, 16), "m = {m}: `{}`", kern.name);
            assert_eq!(f64::tile(Rung::Avx512f, m).mr, 8, "the f64 tile has one height");
        }
        let names: Vec<&str> = heights::<f32>(Rung::Avx512f).iter().map(|t| t.name).collect();
        assert_eq!(names, ["avx512f fma 24x16", "avx512f fma 16x16"]);
        assert_eq!(dispatched_kernel::<f32>(96), "avx512f fma 24x16");
        assert_eq!(dispatched_kernel::<f64>(96), "avx512f fma 8x16");
    }

    /// The fusion witness, on every rung: with `x = 1 + 2⁻ʰ`, the 1×1×2
    /// product of A = [1, x] and B = [−(1 + 2¹⁻ʰ), x] is `x² − (1 + 2¹⁻ʰ)
    /// = 2⁻²ʰ` when the multiply and add are fused, and 0 when `x²` is
    /// rounded first (`2⁻²ʰ` is at most half its ulp).
    fn fuses_on_every_rung<T: MicroArch>(h: i32) {
        let pow2 = |e: i32| T::from_f64(2f64.powi(e));
        let x = T::ONE + pow2(-h);
        let (a, b) = ([T::ONE, x], [-(T::ONE + pow2(1 - h)), x]);
        for kern in ladder::<T>() {
            let exec = Exec { kern, schedule: Some(Schedule::One) };
            let got = product_with(ComputeMode::Standard, &a, &b, 1, 1, 2, exec)[0];
            assert!(same_bits(got, pow2(-2 * h)), "`{}` gives {got}: not fused?", kern.name);
        }
    }

    #[test]
    fn f64_simd_kernels_bit_identical_and_within_k_eps_of_generic() {
        // Bit-identical to the generic tile, which is the old bound's
        // k·ε with nothing left over.
        kernels_match(&ladder::<f64>(), &[ComputeMode::Standard], f64::MIN_POSITIVE / 4.0);
        fuses_on_every_rung::<f64>(27);
    }

    #[test]
    fn f32_simd_kernels_bit_identical_in_every_mode() {
        // Every mode: the pinned tile pins the call's gather and
        // conversion too.
        kernels_match(&ladder::<f32>(), &ComputeMode::ALL, 1.0e-42);
        fuses_on_every_rung::<f32>(12);
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // I2
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut acc = [100.0f32, 100.0, 100.0, 100.0];
        add_product(&a, &b, &mut acc, 2, 2, 2);
        assert_eq!(acc, [105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut acc: Vec<f32> = vec![3.0; 6];
        // m == 0: A and C are empty, B still has its k*n elements.
        add_product(&[], &[0.0; 15], &mut acc[..0], 0, 3, 5);
        // k == 0: nothing to accumulate.
        add_product(&[], &[], &mut acc, 2, 3, 0);
        assert!(acc.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn zero_row_times_inf_propagates_nan() {
        // A's only row is all zeros; B holds an Inf. IEEE: 0·Inf = NaN,
        // and the kernel must not optimise it away.
        let a = [0.0f32, 0.0];
        let b = [1.0f32, f32::INFINITY, 2.0, 3.0];
        let mut acc = [0.0f32; 2];
        add_product(&a, &b, &mut acc, 1, 2, 2);
        assert_eq!(acc[0], 0.0);
        assert!(acc[1].is_nan(), "0·Inf must produce NaN, got {}", acc[1]);
        // And the reference agrees.
        let r = matmul_reference(&a, &b, 1, 2, 2);
        assert!(r[1].is_nan());
    }

    #[test]
    fn zero_row_times_nan_propagates_on_parallel_path() {
        // Same property with the product cut into tasks over two threads,
        // by rows and by depth: one NaN lands in the first depth task's
        // k-blocks (0 and 1), one in the second's (2).
        let (m, n, k) = (64, 64, 600);
        let a = vec![0.0f64; m * k];
        let mut b = vec![1.0f64; k * n];
        b[5 * n + 7] = f64::NAN;
        b[550 * n + 9] = f64::NAN;
        for schedule in [Schedule::Rows, Schedule::Depth] {
            let acc =
                under_pool(2, || product_with(ComputeMode::Standard, &a, &b, m, n, k, sched(schedule, m)));
            for i in 0..m {
                for j in [7, 9] {
                    assert!(acc[i * n + j].is_nan(), "{schedule:?}: row {i} lost the NaN of column {j}");
                }
            }
            assert_eq!(acc[0].to_bits(), 0.0f64.to_bits(), "{schedule:?}: columns without NaN stay +0");
        }
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
        add_product(&a, &b, &mut acc, m, n, k);
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
        add_product(&[1.0; 3], &[1.0; 4], &mut acc, 2, 2, 2);
    }
}
