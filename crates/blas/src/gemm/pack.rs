//! Operand packing for the blocked GEMM driver.
//!
//! The microkernel consumes *panels*: A is repacked into `mr`-row panels
//! where element `(i, kk)` of panel `p` lives at `p·mr·kc + kk·mr + i`, and
//! B into `nr`-column panels with element `(kk, j)` of panel `q` at
//! `q·nr·kc + kk·nr + j`. The two layouts are one: a `w`-wide panel is a
//! `kc × w` row-major tile, `w` consecutive rows of `op(A)` or columns of
//! `op(B)` across, the k-slice down. Both make the microkernel's inner
//! loop a pair of contiguous streams regardless of the original leading
//! dimensions. Edge panels (when `m % mr != 0` or `n % nr != 0`) are
//! zero-padded; the padded lanes only ever touch accumulator rows/columns
//! that the writeback discards, so padding can never launder a non-finite
//! value into (or out of) a real output element.
//!
//! Packing is two steps per k-block, both over cache-resident panels:
//!
//! 1. [`gather`] reads the caller's storage — strided, `op()`-ed, and for
//!    the complex routines interleaved — and writes *raw* real planes in
//!    panel layout, every plane wanted of a complex operand (`re`, `im`,
//!    `−im`, the COMPLEX_3M sums) in the same pass. B is packed whole per
//!    k-block, A a block of rows at a time ([`OpSrc::offset`]). [`OpSrc`]
//!    says which way the storage runs: when it is contiguous across the
//!    panel (`op(B) = B`, `op(A) = Aᵀ/A†`) panel rows are copied row by
//!    row; when it runs along k (`op(A) = A`, `op(B) = Bᵀ/B†`) each
//!    source row is read once, contiguously, and transposed into the
//!    panel.
//! 2. [`convert_f32_at`] applies the compute mode *in place* over the
//!    packed plane — a contiguous, panel-layout-agnostic run that splits
//!    each element into the mode's `depth` terms of its format
//!    (`ComputeMode::systolic`; depth 1 is plain BF16/TF32 rounding).
//!    Each source element is gathered and converted exactly once per call
//!    no matter how many products and product terms later read the
//!    packed planes.
//!
//! Both steps are one scalar body compiled per [`Rung`] under
//! `#[target_feature]` (the compiler vectorises it), and both run on the
//! rung of the GEMM call's microkernel, which the pack closures carry:
//! the rung changes speed, never bits.
//!
//! The two operands are converted differently:
//!
//! * A-side ([`Side::A`]): the raw split planes `a₀ … a_{d-1}` of
//!   `numerics::split` (each representable in the format).
//! * B-side ([`Side::B`]): *cascaded partial sums* ([`cascade`])
//!   `BS_t = fl(b₀ + … + b_{d-1-t})`, i.e. for depth 3 the planes
//!   `[b₀+b₁+b₂, b₀+b₁, b₀]`.
//!
//! Running only the diagonal products `Aₜ·BSₜ` then covers exactly the
//! documented term set (`i + j < d`; `product_terms` in
//! `gemm::lowp::tests`) with `d` GEMM passes instead of `d(d+1)/2`:
//! `a₀·(b₀+b₁+b₂) + a₁·(b₀+b₁) + a₂·b₀` expands to
//! `{00,01,02,10,11,20}`. The partial sums are rounded to `f32` (relative
//! perturbation ≤ 2⁻²⁴), which sits below the 2⁻¹⁶ / ≈2⁻²⁴
//! split-residual floors of the x2/x3 modes — the error-ordering tests
//! there pin this down empirically.

use crate::layout::Op;
use crate::mode::ComputeMode;
use dcmesh_numerics::bf16::Bf16;
use dcmesh_numerics::format::TF32;
use dcmesh_numerics::split::{split_by, MAX_SPLIT_DEPTH};
use dcmesh_numerics::tf32::Tf32;
use dcmesh_numerics::{Real, Rung};

/// Which operand a plane belongs to (the split modes convert them
/// differently, see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Left operand: raw split planes.
    A,
    /// Right operand: cascaded partial-sum planes.
    B,
}

/// Where the driver reads one operand from: the caller's row-major
/// storage plus the direction `op()` makes it run. Element `(p, kk)` —
/// `p` a row of `op(A)` or a column of `op(B)`, `kk` the depth index — is
/// `data[kk·ld + p]` when the storage is contiguous `along` the panel and
/// `data[p·ld + kk]` when it runs along k.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpSrc<'a, E> {
    data: &'a [E],
    ld: usize,
    along: bool,
}

impl<'a, E> OpSrc<'a, E> {
    /// `op(A)` (`m × k`) over `a` with leading dimension `lda`.
    pub fn a(op: Op, a: &'a [E], lda: usize) -> Self {
        OpSrc { data: a, ld: lda, along: op != Op::None }
    }

    /// `op(B)` (`k × n`) over `b` with leading dimension `ldb`.
    pub fn b(op: Op, b: &'a [E], ldb: usize) -> Self {
        OpSrc { data: b, ld: ldb, along: op == Op::None }
    }

    /// The same operand from its row (of `op(A)`) / column (of `op(B)`)
    /// `p0` on: element `(p, kk)` of the result is `(p0 + p, kk)` of
    /// `self`.
    pub fn offset(&self, p0: usize) -> Self {
        let skip = if self.along { p0 } else { p0 * self.ld };
        OpSrc { data: &self.data[skip..], ..*self }
    }
}

/// Packs the `[k0, k0+kc)` depth slice of all `count` rows/columns of
/// `src` into `w`-wide panels. One pass over the source fills `P` planes:
/// `f` maps each element to its `P` values (the planes of a complex
/// operand), plane `p` going to `dst[p·pitch..]`; the edge panel's pad
/// lanes are zero-filled. Returns the packed length of one plane,
/// `count.div_ceil(w)·w·kc`.
///
/// Compiled twice, for the baseline target and for AVX2 (wider copies and
/// deinterleave shuffles from the same source): `rung` picks, and
/// `avx512f` runs the AVX2 instantiation, the gather's top rung.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather<E: Copy, T: Real, const P: usize>(
    rung: Rung,
    src: &OpSrc<'_, E>,
    count: usize,
    k0: usize,
    kc: usize,
    w: usize,
    dst: &mut [T],
    pitch: usize,
    f: impl Fn(E) -> [T; P],
) -> usize {
    assert!(rung.available(), "{} is not available on this CPU", rung.name());
    #[cfg(target_arch = "x86_64")]
    if rung != Rung::Portable {
        // SAFETY: `rung.available()` was asserted just above, and every
        // rung above `Portable` has AVX2.
        return unsafe { gather_avx2(src, count, k0, kc, w, dst, pitch, f) };
    }
    gather_body(src, count, k0, kc, w, dst, pitch, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gather_avx2<E: Copy, T: Real, const P: usize>(
    src: &OpSrc<'_, E>,
    count: usize,
    k0: usize,
    kc: usize,
    w: usize,
    dst: &mut [T],
    pitch: usize,
    f: impl Fn(E) -> [T; P],
) -> usize {
    gather_body(src, count, k0, kc, w, dst, pitch, f)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gather_body<E: Copy, T: Real, const P: usize>(
    src: &OpSrc<'_, E>,
    count: usize,
    k0: usize,
    kc: usize,
    w: usize,
    dst: &mut [T],
    pitch: usize,
    f: impl Fn(E) -> [T; P],
) -> usize {
    let len = count.div_ceil(w) * w * kc;
    let mut chunks = dst.chunks_mut(pitch.max(len));
    let mut planes: [&mut [T]; P] =
        core::array::from_fn(|_| &mut chunks.next().expect("dst holds P planes")[..len]);
    for p0 in (0..count).step_by(w) {
        let live = w.min(count - p0);
        let mut panel = planes.each_mut().map(|pl| &mut pl[p0 * kc..(p0 + w) * kc]);
        // The arms below are one loop written for each plane count, so
        // every plane is filled from a single read of the source and the
        // compiler sees plain zipped slices (P is a constant per
        // instantiation; the other arms fold away).
        if src.along {
            // Storage is contiguous across the panel: copy row by row.
            for kk in 0..kc {
                let s = &src.data[(k0 + kk) * src.ld + p0..][..live];
                let mut rows = panel.each_mut().map(|pl| &mut pl[kk * w..][..live]);
                match &mut rows[..] {
                    [r0] => {
                        for (d0, &e) in r0.iter_mut().zip(s) {
                            *d0 = f(e)[0];
                        }
                    }
                    [r0, r1] => {
                        for ((d0, d1), &e) in r0.iter_mut().zip(r1.iter_mut()).zip(s) {
                            let v = f(e);
                            (*d0, *d1) = (v[0], v[1]);
                        }
                    }
                    [r0, r1, r2] => {
                        let it = r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut());
                        for (((d0, d1), d2), &e) in it.zip(s) {
                            let v = f(e);
                            (*d0, *d1, *d2) = (v[0], v[1], v[2]);
                        }
                    }
                    _ => unreachable!("the driver packs at most three planes per pass"),
                }
            }
        } else {
            // Storage runs along k: read each of the panel's source rows
            // once, contiguously, and transpose it into the panel.
            for i in 0..live {
                let s = &src.data[(p0 + i) * src.ld + k0..][..kc];
                match &mut panel[..] {
                    [c0] => {
                        for (r0, &e) in c0.chunks_exact_mut(w).zip(s) {
                            r0[i] = f(e)[0];
                        }
                    }
                    [c0, c1] => {
                        let it = c0.chunks_exact_mut(w).zip(c1.chunks_exact_mut(w));
                        for ((r0, r1), &e) in it.zip(s) {
                            let v = f(e);
                            (r0[i], r1[i]) = (v[0], v[1]);
                        }
                    }
                    [c0, c1, c2] => {
                        let it = c0.chunks_exact_mut(w).zip(c1.chunks_exact_mut(w));
                        for (((r0, r1), r2), &e) in it.zip(c2.chunks_exact_mut(w)).zip(s) {
                            let v = f(e);
                            (r0[i], r1[i], r2[i]) = (v[0], v[1], v[2]);
                        }
                    }
                    _ => unreachable!("the driver packs at most three planes per pass"),
                }
            }
        }
        if live < w {
            for pl in &mut panel {
                for drow in pl.chunks_exact_mut(w) {
                    drow[live..].fill(T::ZERO);
                }
            }
        }
    }
    len
}

/// Applies `mode`'s pack-time conversion in place on `rung`: the raw
/// values in `planes[..len]` become plane 0, and for the split modes
/// planes `1..depth` are written at `planes[t·stride..][..len]`. Every
/// rung runs the one scalar loop of [`convert_body`], so the rung never
/// changes results, only speed. Zero pad lanes convert to zero planes.
pub(crate) fn convert_f32_at(
    rung: Rung,
    mode: ComputeMode,
    side: Side,
    planes: &mut [f32],
    stride: usize,
    len: usize,
) {
    let Some((format, depth)) = mode.systolic() else { return };
    assert!(rung.available(), "{} is not available on this CPU", rung.name());
    assert!(depth == 1 || len <= stride, "plane run longer than the plane stride");
    let tf32 = format == TF32;
    // The one place a runtime depth becomes a compile-time one: an arm
    // per depth up to the ceiling.
    const _: () = assert!(MAX_SPLIT_DEPTH == 3, "one arm per depth");
    match depth {
        1 => convert_planes::<1>(rung, tf32, side, planes, stride, len),
        2 => convert_planes::<2>(rung, tf32, side, planes, stride, len),
        3 => convert_planes::<3>(rung, tf32, side, planes, stride, len),
        _ => unreachable!("{mode:?} splits deeper than MAX_SPLIT_DEPTH"),
    }
}

/// [`convert_f32_at`] at a compile-time depth `D`, the format and side
/// made compile-time too.
fn convert_planes<const D: usize>(
    rung: Rung,
    tf32: bool,
    side: Side,
    planes: &mut [f32],
    stride: usize,
    len: usize,
) {
    let mut chunks = planes.chunks_mut(stride.max(len));
    let p: [&mut [f32]; D] =
        core::array::from_fn(|_| &mut chunks.next().expect("planes holds D planes")[..len]);
    match (tf32, side) {
        (false, Side::A) => convert_run::<false, false, D>(rung, p),
        (false, Side::B) => convert_run::<false, true, D>(rung, p),
        (true, Side::A) => convert_run::<true, false, D>(rung, p),
        (true, Side::B) => convert_run::<true, true, D>(rung, p),
    }
}

/// [`convert_body`] on `rung`'s instantiation.
fn convert_run<const TF32: bool, const CASCADE: bool, const D: usize>(
    rung: Rung,
    p: [&mut [f32]; D],
) {
    #[cfg(target_arch = "x86_64")]
    match rung {
        // SAFETY: `convert_f32_at` asserted `rung.available()`, which
        // detected the features each wrapper is compiled for.
        Rung::Avx512f => return unsafe { convert_avx512::<TF32, CASCADE, D>(p) },
        Rung::Avx2 => return unsafe { convert_avx2::<TF32, CASCADE, D>(p) },
        Rung::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = rung; // `available` admits only `Portable` here
    convert_body::<TF32, CASCADE, D>(p)
}

/// [`convert_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn convert_avx512<const TF32: bool, const CASCADE: bool, const D: usize>(p: [&mut [f32]; D]) {
    convert_body::<TF32, CASCADE, D>(p)
}

/// [`convert_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn convert_avx2<const TF32: bool, const CASCADE: bool, const D: usize>(p: [&mut [f32]; D]) {
    convert_body::<TF32, CASCADE, D>(p)
}

/// The conversion, one element at a time: plane `t` of each element of
/// `p[0]` becomes term `t` of its split into TF32 or BF16 terms, or with
/// `CASCADE` (side B) the partial sum [`cascade`] makes of them.
#[inline(always)]
fn convert_body<const TF32: bool, const CASCADE: bool, const D: usize>(p: [&mut [f32]; D]) {
    let round = |x| if TF32 { Tf32::round_f32(x) } else { Bf16::round_f32(x) };
    // Every plane cut to `len` where the compiler sees it, so the loop
    // keeps no bounds check per plane (they cost up to 1.3× on the
    // 256-element runs of a 16-orbital call, on an AVX-512 Xeon).
    let len = p[0].len();
    let mut p = p.map(|pl| &mut pl[..len]);
    for j in 0..len {
        let terms = split_by::<D>(p[0][j], round);
        let t = if CASCADE { cascade(terms) } else { terms };
        for (pl, v) in p.iter_mut().zip(t) {
            pl[j] = v;
        }
    }
}

/// Cascaded partial sums of one element's split terms: plane `t` holds
/// `fl(b₀ + … + b_{D-1-t})`, summed left to right. Non-finite values ride
/// along unchanged: the split puts Inf/NaN in the leading term with zero
/// corrections, so every cascade plane is Inf/NaN too and 0·Inf / 0·NaN
/// still fire in all `D` products.
#[inline(always)]
fn cascade<const D: usize>(terms: [f32; D]) -> [f32; D] {
    let mut sums = terms;
    let mut s = terms[0];
    sums[D - 1] = s;
    for i in 1..D {
        s += terms[i];
        sums[D - 1 - i] = s;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::c32;
    use dcmesh_numerics::format::BF16;
    use dcmesh_numerics::split::split;

    /// Every rung this CPU runs, widest first.
    fn rungs() -> impl Iterator<Item = Rung> {
        Rung::ALL.into_iter().filter(|r| r.available())
    }

    /// The rung a GEMM call on this CPU packs on.
    fn host() -> Rung {
        Rung::at_most(Rung::Avx512f)
    }

    #[test]
    fn a_panel_layout_and_padding() {
        // 3×4 matrix, mr = 2 → two panels, second padded by one row.
        let a: Vec<f32> = (1..=12).map(|x| x as f32).collect();
        let (m, k, mr, kc) = (3, 4, 2, 4);
        let mut dst = vec![f32::NAN; 2 * mr * kc];
        assert_eq!(gather(host(), &OpSrc::a(Op::None, &a, k), m, 0, kc, mr, &mut dst, 0, |x| [x]), dst.len());
        // Panel 0, kk = 0 holds column 0 of rows 0..2.
        assert_eq!(&dst[0..2], &[1.0, 5.0]);
        // Panel 1, kk = 3 holds column 3 of row 2 plus a zero pad lane.
        assert_eq!(&dst[mr * kc + 3 * mr..mr * kc + 4 * mr], &[12.0, 0.0]);
    }

    #[test]
    fn b_panel_layout_and_padding() {
        // 2×5 matrix, nr = 4 → two panels, second padded by three columns.
        let b: Vec<f32> = (1..=10).map(|x| x as f32).collect();
        let (n, nr, kc) = (5, 4, 2);
        let mut dst = vec![f32::NAN; 2 * nr * kc];
        gather(host(), &OpSrc::b(Op::None, &b, n), n, 0, kc, nr, &mut dst, 0, |x| [x]);
        // Panel 0, kk = 1 holds columns 0..4 of row 1.
        assert_eq!(&dst[nr..2 * nr], &[6.0, 7.0, 8.0, 9.0]);
        // Panel 1, kk = 0 holds column 4 then zero padding.
        assert_eq!(&dst[nr * kc..nr * kc + nr], &[5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn k_slice_offsets_respected() {
        let a: Vec<f32> = (0..8).map(|x| x as f32).collect(); // 1×8
        let mut dst = vec![0.0f32; 4];
        gather(host(), &OpSrc::a(Op::None, &a, 8), 1, 4, 4, 1, &mut dst, 0, |x| [x]);
        assert_eq!(dst, [4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_reads_every_op_from_padded_interleaved_storage() {
        // X is 3×2 complex with ld = 3 (one padding column of poison).
        // As op(A) = X (3×2), op(A) = Xᵀ (2×3), op(B) = X (3×2) and
        // op(B) = Xᵀ (2×3), both planes must land at `kk·w + p` of their
        // own plane, `pitch` apart, in one pass.
        let z = |r: usize, c: usize| c32((10 * r + c) as f32, -((10 * r + c) as f32) - 0.5);
        let poison = c32(f32::NAN, f32::NAN);
        let x: Vec<_> = (0..3).flat_map(|r| [z(r, 0), z(r, 1), poison]).collect();
        let w = 4;
        for (rung, op) in rungs().flat_map(|r| [(r, Op::None), (r, Op::Trans)]) {
            // (source, count, depth, whether element (p, kk) of op(X) is
            // stored at (kk, p) rather than (p, kk))
            let cases = if op == Op::None {
                [(OpSrc::a(op, &x, 3), 3, 2, false), (OpSrc::b(op, &x, 3), 2, 3, true)]
            } else {
                [(OpSrc::a(op, &x, 3), 2, 3, true), (OpSrc::b(op, &x, 3), 3, 2, false)]
            };
            for (src, count, depth, swapped) in cases {
                let pitch = w * depth + 5;
                let mut dst = vec![f32::NAN; 2 * pitch];
                let len = gather(rung, &src, count, 0, depth, w, &mut dst, pitch, |z| [z.re, -z.im]);
                assert_eq!(len, w * depth);
                for kk in 0..depth {
                    for p in 0..w {
                        let want = if p < count {
                            let (r, c) = if swapped { (kk, p) } else { (p, kk) };
                            [z(r, c).re, -z(r, c).im]
                        } else {
                            [0.0, 0.0]
                        };
                        let got = [dst[kk * w + p], dst[pitch + kk * w + p]];
                        assert_eq!(got, want, "{rung:?} {op:?} along={} p={p} kk={kk}", src.along);
                    }
                }
                assert!(dst[len..pitch].iter().all(|x| x.is_nan()), "wrote past plane 0");
            }
        }
    }

    #[test]
    fn cascade_planes_cover_term_sums() {
        let x = 0.1234567f32;
        let [hi, mid, lo] = split::<3>(x);
        assert_eq!(cascade([hi, mid, lo]), [(hi + mid) + lo, hi + mid, hi]);
        let [hi, lo] = split::<2>(x);
        assert_eq!(cascade([hi, lo]), [hi + lo, hi]);
        assert_eq!(cascade([hi]), [hi]);
    }

    #[test]
    fn cascade_preserves_nonfinite() {
        fn planes<const D: usize>(x: f32) -> [f32; D] {
            cascade(split::<D>(x))
        }
        for x in [f32::INFINITY, f32::NAN] {
            let (two, three) = (planes::<2>(x), planes::<3>(x));
            for t in two.into_iter().chain(three) {
                assert_eq!(t.is_nan(), x.is_nan(), "{x}: plane {t}");
                assert!(!t.is_finite(), "{x}: plane {t}");
            }
        }
    }

    /// One element's planes with the two- and three-term split and its
    /// cascade written out literally: the reference the generic
    /// `split_by` / [`cascade`] must reproduce bit for bit on every rung.
    fn literal(x: f32, depth: usize, side: Side) -> Vec<f32> {
        let hi = Bf16::round_f32(x);
        let (mid, lo) = if hi.is_finite() {
            let r1 = x - hi;
            let mid = Bf16::round_f32(r1);
            (mid, Bf16::round_f32(r1 - mid))
        } else {
            (0.0, 0.0)
        };
        match (depth, side) {
            (1, _) => vec![hi],
            (2, Side::A) => vec![hi, mid],
            (2, Side::B) => vec![hi + mid, hi],
            (3, Side::A) => vec![hi, mid, lo],
            (3, Side::B) => vec![hi + mid + lo, hi + mid, hi],
            _ => unreachable!("depth {depth}"),
        }
    }

    /// Every 4099th f32 bit pattern — NaNs of both signs, infinities,
    /// subnormals, both zeros and values that round to Inf among them —
    /// plus the specials.
    fn every_4099th_pattern() -> Vec<f32> {
        let mut src: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        src.extend(special_values(45));
        src
    }

    #[test]
    fn split_and_cascade_match_literal_formulas() {
        // Those patterns at every depth, on both sides and on every rung
        // the host runs.
        let src = every_4099th_pattern();
        for depth in 1..=MAX_SPLIT_DEPTH {
            let mode = ComputeMode::ALL
                .into_iter()
                .find(|m| m.systolic() == Some((BF16, depth)))
                .expect("a BF16 mode at every depth");
            for side in [Side::A, Side::B] {
                let got = converted(mode, side, &src);
                for (j, &x) in src.iter().enumerate() {
                    let want = literal(x, depth, side);
                    for (t, want) in want.iter().enumerate() {
                        assert_eq!(
                            got[t][j].to_bits(),
                            want.to_bits(),
                            "depth {depth} {side:?} x={x:e} ({:#x}) plane {t}",
                            x.to_bits()
                        );
                    }
                }
            }
        }
        for &x in &src {
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split::<1>(x)), bits(&literal(x, 1, Side::A)), "{x:e}");
            assert_eq!(bits(&split::<2>(x)), bits(&literal(x, 2, Side::A)), "{x:e}");
            assert_eq!(bits(&split::<3>(x)), bits(&literal(x, 3, Side::A)), "{x:e}");
        }
    }

    fn special_values(len: usize) -> Vec<f32> {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1.0e-42,  // subnormal
            f32::MAX, // rounds to Inf in BF16
            -f32::MAX,
            1.0,
            -1.5,
            0.1234567,
            3.9999998,
            -2.7182817,
            65504.0,
            1.0e30,
        ];
        (0..len)
            .map(|i| specials[i % specials.len()] * if i % 3 == 0 { 1.0 } else { 0.731 })
            .collect()
    }

    /// Runs the conversion over `src` on every rung the host runs, checks
    /// they agree bit for bit, and returns the `depth` planes.
    fn converted(mode: ComputeMode, side: Side, src: &[f32]) -> Vec<Vec<f32>> {
        let depth = mode.split_depth().unwrap();
        // A stride longer than the run, poisoned, so a write outside
        // `[t·stride, t·stride + len)` shows.
        let stride = src.len() + 3;
        let bits = |buf: &[f32]| buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut agreed: Option<Vec<f32>> = None;
        for rung in rungs() {
            let mut buf = vec![f32::NAN; depth * stride];
            buf[..src.len()].copy_from_slice(src);
            convert_f32_at(rung, mode, side, &mut buf, stride, src.len());
            for t in 0..depth {
                assert!(buf[t * stride + src.len()..(t + 1) * stride].iter().all(|x| x.is_nan()));
            }
            if let Some(prev) = &agreed {
                assert_eq!(bits(&buf), bits(prev), "{rung:?} differs from a wider rung");
            }
            agreed = Some(buf);
        }
        let buf = agreed.expect("portable always runs");
        (0..depth).map(|t| buf[t * stride..t * stride + src.len()].to_vec()).collect()
    }

    #[test]
    fn vector_cascade_matches_scalar() {
        // 48 elements are whole vector groups at either width; the
        // planes must match the scalar per-element cascade bit for bit,
        // including NaN/Inf/subnormal/zero/overflow lanes.
        let b = special_values(48);
        for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
            let depth = mode.split_depth().unwrap();
            let got = converted(mode, Side::B, &b);
            for (j, &x) in b.iter().enumerate() {
                let expect = literal(x, depth, Side::B);
                for d in 0..depth {
                    assert_eq!(
                        got[d][j].to_bits(),
                        expect[d].to_bits(),
                        "depth {depth} j={j} plane {d}: {} vs {}",
                        got[d][j],
                        expect[d]
                    );
                }
            }
        }
    }

    #[test]
    fn vector_b_round_matches_scalar() {
        // The rounded run must match scalar Bf16/Tf32 rounding bit for
        // bit, including NaN payloads (BF16 quietens, TF32 passes
        // through), on either side, over every 4099th pattern and on
        // every rung.
        let b = every_4099th_pattern();
        for side in [Side::A, Side::B] {
            let got = converted(ComputeMode::FloatToBf16, side, &b);
            for (j, &x) in b.iter().enumerate() {
                assert_eq!(got[0][j].to_bits(), Bf16::round_f32(x).to_bits(), "bf16 {side:?} j={j}");
            }
            let got = converted(ComputeMode::FloatToTf32, side, &b);
            for (j, &x) in b.iter().enumerate() {
                assert_eq!(got[0][j].to_bits(), Tf32::round_f32(x).to_bits(), "tf32 {side:?} j={j}");
            }
        }
    }

    #[test]
    fn vector_split_pack_matches_scalar() {
        // 48 elements are all vector groups; 45 leave a scalar tail.
        for len in [48usize, 45] {
            let a = special_values(len);
            for mode in [ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3] {
                let depth = mode.split_depth().unwrap();
                let got = converted(mode, Side::A, &a);
                for (j, &x) in a.iter().enumerate() {
                    let expect = literal(x, depth, Side::A);
                    for d in 0..depth {
                        assert_eq!(
                            got[d][j].to_bits(),
                            expect[d].to_bits(),
                            "depth {depth} len {len} j={j} plane {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_pack_matches_scalar_split() {
        // Gather + convert, the way the driver packs an A block: the
        // split planes land in the panel layout, plane t at t·stride.
        let a: Vec<f32> = (0..12).map(|i| (i as f32 * 0.731).sin()).collect(); // 3×4
        let (m, k, mr, kc) = (3, 4, 4, 4);
        let stride = mr * kc;
        let mut buf = vec![f32::NAN; 3 * stride];
        let len = gather(host(), &OpSrc::a(Op::None, &a, k), m, 0, kc, mr, &mut buf, 0, |x| [x]);
        convert_f32_at(host(), ComputeMode::FloatToBf16x3, Side::A, &mut buf, stride, len);
        for r in 0..m {
            for kk in 0..k {
                let idx = kk * mr + r;
                assert_eq!(
                    [buf[idx], buf[stride + idx], buf[2 * stride + idx]],
                    split::<3>(a[r * k + kk])
                );
            }
        }
    }
}
