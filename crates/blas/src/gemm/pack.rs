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
//! 2. [`convert_f32`] applies the compute mode *in place* over the packed
//!    plane — a contiguous, panel-layout-agnostic, vectorised run that
//!    splits each element into the mode's `depth` terms of its format
//!    (`ComputeMode::systolic`; depth 1 is plain BF16/TF32 rounding).
//!    Each source element is gathered and converted exactly once per call
//!    no matter how many products and product terms later read the
//!    packed planes.
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
//! documented term set (`lowp::product_terms`, `i + j < d`) with `d` GEMM
//! passes instead of `d(d+1)/2`: `a₀·(b₀+b₁+b₂) + a₁·(b₀+b₁) + a₂·b₀`
//! expands to `{00,01,02,10,11,20}`. The partial sums are rounded to
//! `f32` (relative perturbation ≤ 2⁻²⁴), which sits below the 2⁻¹⁶ /
//! ≈2⁻²⁴ split-residual floors of the x2/x3 modes — the error-ordering
//! tests in `lowp` pin this down empirically.

use crate::layout::Op;
use crate::mode::ComputeMode;
use dcmesh_numerics::bf16::Bf16;
use dcmesh_numerics::format::TF32;
use dcmesh_numerics::split::{split_by, MAX_SPLIT_DEPTH};
use dcmesh_numerics::tf32::Tf32;
use dcmesh_numerics::Real;

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

    /// Dense untransposed `m × k` left operand.
    pub fn dense_a(a: &'a [E], k: usize) -> Self {
        Self::a(Op::None, a, k)
    }

    /// Dense untransposed `k × n` right operand.
    pub fn dense_b(b: &'a [E], n: usize) -> Self {
        Self::b(Op::None, b, n)
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
/// deinterleave shuffles from the same source); the host picks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather<E: Copy, T: Real, const P: usize>(
    src: &OpSrc<'_, E>,
    count: usize,
    k0: usize,
    kc: usize,
    w: usize,
    dst: &mut [T],
    pitch: usize,
    f: impl Fn(E) -> [T; P],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2 support was just verified; that is the function's
        // only precondition (its body is the safe `gather_body`).
        return unsafe { gather_avx2(src, count, k0, kc, w, dst, pitch, f) };
    }
    gather_body(src, count, k0, kc, w, dst, pitch, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_avx2<E: Copy, T: Real, const P: usize>(
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

/// The vector width the pack-time conversions run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// 16-lane AVX-512.
    Avx512,
    /// 8-lane AVX2.
    Avx2,
    /// One element at a time.
    Scalar,
}

impl Lanes {
    /// Every width this host can run, widest first (`Scalar` always).
    pub fn available() -> impl Iterator<Item = Lanes> {
        #[cfg(target_arch = "x86_64")]
        let simd = [
            std::arch::is_x86_feature_detected!("avx512f").then_some(Lanes::Avx512),
            std::arch::is_x86_feature_detected!("avx2").then_some(Lanes::Avx2),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let simd = [None, None];
        simd.into_iter().flatten().chain([Lanes::Scalar])
    }
}

/// Applies `mode`'s pack-time conversion in place: the raw values in
/// `planes[..len]` become plane 0, and for the split modes planes
/// `1..depth` are written at `planes[t·stride..][..len]`. Runs at the
/// host's widest vector width; the vector conversions are bit-identical
/// to the scalar ones (asserted by the `vector_*` tests below), so the
/// width never changes results, only speed. Zero pad lanes convert to
/// zero planes.
pub(crate) fn convert_f32(
    mode: ComputeMode,
    side: Side,
    planes: &mut [f32],
    stride: usize,
    len: usize,
) {
    let lanes = Lanes::available().next().expect("scalar always available");
    convert_f32_at(lanes, mode, side, planes, stride, len);
}

/// [`convert_f32`] at an explicit width, which the host must support
/// (one of [`Lanes::available`]).
fn convert_f32_at(
    lanes: Lanes,
    mode: ComputeMode,
    side: Side,
    planes: &mut [f32],
    stride: usize,
    len: usize,
) {
    let Some((format, depth)) = mode.systolic() else { return };
    assert!(depth == 1 || len <= stride, "plane run longer than the plane stride");
    let tf32 = format == TF32;
    // The one place a runtime depth becomes a compile-time one: an arm
    // per depth up to the ceiling.
    const _: () = assert!(MAX_SPLIT_DEPTH == 3, "one arm per depth");
    match depth {
        1 => convert_planes::<1>(lanes, tf32, side, planes, stride, len),
        2 => convert_planes::<2>(lanes, tf32, side, planes, stride, len),
        3 => convert_planes::<3>(lanes, tf32, side, planes, stride, len),
        _ => unreachable!("{mode:?} splits deeper than MAX_SPLIT_DEPTH"),
    }
}

/// [`convert_f32_at`] at a compile-time depth `D`: plane `t` of each
/// element is term `t` of its split into TF32 or BF16 terms (side A), or
/// the partial sum [`cascade`] makes of them (side B). Whole vector
/// groups run at `lanes`, the tail in scalar code.
fn convert_planes<const D: usize>(
    lanes: Lanes,
    tf32: bool,
    side: Side,
    planes: &mut [f32],
    stride: usize,
    len: usize,
) {
    assert!(Lanes::available().any(|l| l == lanes), "host cannot run {lanes:?} conversions");
    let mut chunks = planes.chunks_mut(stride.max(len));
    let mut p: [&mut [f32]; D] =
        core::array::from_fn(|_| &mut chunks.next().expect("planes holds D planes")[..len]);
    #[cfg(target_arch = "x86_64")]
    let done = {
        let ptrs = p.each_mut().map(|pl| pl.as_mut_ptr());
        macro_rules! run {
            ($isa:ident, $width:literal) => {{
                let done = len - len % $width;
                // SAFETY: the ISA was asserted available just above;
                // `done` is a multiple of the vector width and each of
                // the `D` planes behind `ptrs` was sliced to `len ≥ done`
                // elements.
                unsafe {
                    match (tf32, side) {
                        (false, Side::A) => x86::$isa::convert_run::<false, false, D>(ptrs, done),
                        (false, Side::B) => x86::$isa::convert_run::<false, true, D>(ptrs, done),
                        (true, Side::A) => x86::$isa::convert_run::<true, false, D>(ptrs, done),
                        (true, Side::B) => x86::$isa::convert_run::<true, true, D>(ptrs, done),
                    }
                }
                done
            }};
        }
        match lanes {
            Lanes::Avx512 => run!(avx512, 16),
            Lanes::Avx2 => run!(avx2, 8),
            Lanes::Scalar => 0,
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    let round = if tf32 { Tf32::round_f32 } else { Bf16::round_f32 };
    for j in done..len {
        let terms = split_by::<D>(p[0][j], round);
        let t = if side == Side::B { cascade(terms) } else { terms };
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Vector replicas of the scalar split (BF16 or TF32 terms) and
    //! cascade, at 8 (AVX2) and 16 (AVX-512) lanes. Exact
    //! bit-compatibility with the scalar path is a hard requirement (the
    //! pack must not depend on the host's ISA beyond speed); the rounding
    //! uses the same integer round-to-nearest-even trick as
    //! `Bf16::from_f32`, including its NaN-quieting behaviour.

    /// The in-place run over packed planes, written once over an ISA's
    /// `LANES`, load/store/add and its `split` (defined beside the
    /// invocation).
    macro_rules! runs {
        ($feat:literal, $lanes:literal, $load:ident, $store:ident, $add:ident) => {
            /// Converts `len` (a multiple of the lane count) raw elements
            /// at `p[0]` into `D` planes in place, plane `t` at `p[t]`:
            /// the split terms, TF32 or BF16, or with `CASCADE` their
            /// partial sums — lane for lane the scalar `split_by` and
            /// `cascade`.
            ///
            /// # Safety
            /// Caller must have verified the ISA and that each `p[t]`
            /// addresses at least `len` readable and writable elements.
            #[target_feature(enable = $feat)]
            pub(in super::super) unsafe fn convert_run<
                const TF32: bool,
                const CASCADE: bool,
                const D: usize,
            >(
                p: [*mut f32; D],
                len: usize,
            ) {
                debug_assert!(len.is_multiple_of($lanes));
                for j in (0..len).step_by($lanes) {
                    let terms = split::<TF32, D>($load(p[0].add(j)));
                    let mut out = terms;
                    if CASCADE {
                        let mut s = terms[0];
                        out[D - 1] = s;
                        for i in 1..D {
                            s = $add(s, terms[i]);
                            out[D - 1 - i] = s;
                        }
                    }
                    for (pl, v) in p.iter().zip(out) {
                        $store(pl.add(j), v);
                    }
                }
            }
        };
    }

    pub(super) mod avx2 {
        use core::arch::x86_64::*;

        /// Vector `Bf16::round_f32`: RNE truncation to the high 16 bits,
        /// NaN lanes quietened exactly like the scalar
        /// (`(bits>>16)|0x0040`).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn round_bf16(x: __m256) -> __m256 {
            let bits = _mm256_castps_si256(x);
            let lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(1));
            let rounded =
                _mm256_add_epi32(_mm256_add_epi32(bits, _mm256_set1_epi32(0x7FFF)), lsb);
            let kept = _mm256_and_si256(rounded, _mm256_set1_epi32(0xFFFF_0000u32 as i32));
            let quiet = _mm256_or_si256(
                _mm256_and_si256(bits, _mm256_set1_epi32(0xFFFF_0000u32 as i32)),
                _mm256_set1_epi32(0x0040_0000),
            );
            let nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
            _mm256_blendv_ps(_mm256_castsi256_ps(kept), _mm256_castsi256_ps(quiet), nan)
        }

        /// Vector `Tf32::round_f32`: RNE truncation of the low 13
        /// mantissa bits. Unlike BF16, the scalar TF32 rounding passes
        /// non-finite values through untouched (no NaN quieting) —
        /// replicated here by blending on an all-ones-exponent test.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn round_tf32(x: __m256) -> __m256 {
            let bits = _mm256_castps_si256(x);
            let lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 13), _mm256_set1_epi32(1));
            let rounded = _mm256_and_si256(
                _mm256_add_epi32(_mm256_add_epi32(bits, _mm256_set1_epi32(0xFFF)), lsb),
                _mm256_set1_epi32(!0x1FFF),
            );
            let expmask = _mm256_set1_epi32(0x7F80_0000);
            let special = _mm256_cmpeq_epi32(_mm256_and_si256(bits, expmask), expmask);
            _mm256_blendv_ps(_mm256_castsi256_ps(rounded), x, _mm256_castsi256_ps(special))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn round<const TF32: bool>(x: __m256) -> __m256 {
            if TF32 {
                round_tf32(x)
            } else {
                round_bf16(x)
            }
        }

        /// Vector `split_by::<D>` with TF32 or BF16 rounding: the terms,
        /// corrections zeroed on non-finite leads, exactly like the
        /// scalar.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn split<const TF32: bool, const D: usize>(x: __m256) -> [__m256; D] {
            let mut t = [round::<TF32>(x); D];
            let abs_hi = _mm256_and_ps(t[0], _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF)));
            let finite = _mm256_cmp_ps(abs_hi, _mm256_set1_ps(f32::INFINITY), _CMP_LT_OQ);
            let mut r = x;
            for i in 1..D {
                r = _mm256_sub_ps(r, t[i - 1]);
                t[i] = _mm256_and_ps(round::<TF32>(r), finite);
            }
            t
        }

        runs!("avx2", 8, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps);
    }

    pub(super) mod avx512 {
        use core::arch::x86_64::*;

        /// 16-lane [`super::avx2`]`::round_bf16`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn round_bf16(x: __m512) -> __m512 {
            let bits = _mm512_castps_si512(x);
            let high = _mm512_set1_epi32(0xFFFF_0000u32 as i32);
            let lsb = _mm512_and_si512(_mm512_srli_epi32::<16>(bits), _mm512_set1_epi32(1));
            let rounded =
                _mm512_add_epi32(_mm512_add_epi32(bits, _mm512_set1_epi32(0x7FFF)), lsb);
            let kept = _mm512_and_si512(rounded, high);
            let quiet =
                _mm512_or_si512(_mm512_and_si512(bits, high), _mm512_set1_epi32(0x0040_0000));
            let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
            _mm512_castsi512_ps(_mm512_mask_mov_epi32(kept, nan, quiet))
        }

        /// 16-lane [`super::avx2`]`::round_tf32`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn round_tf32(x: __m512) -> __m512 {
            let bits = _mm512_castps_si512(x);
            let lsb = _mm512_and_si512(_mm512_srli_epi32::<13>(bits), _mm512_set1_epi32(1));
            let rounded = _mm512_and_si512(
                _mm512_add_epi32(_mm512_add_epi32(bits, _mm512_set1_epi32(0xFFF)), lsb),
                _mm512_set1_epi32(!0x1FFF),
            );
            let expmask = _mm512_set1_epi32(0x7F80_0000);
            let special = _mm512_cmpeq_epi32_mask(_mm512_and_si512(bits, expmask), expmask);
            _mm512_castsi512_ps(_mm512_mask_mov_epi32(rounded, special, bits))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn round<const TF32: bool>(x: __m512) -> __m512 {
            if TF32 {
                round_tf32(x)
            } else {
                round_bf16(x)
            }
        }

        /// 16-lane [`super::avx2`]`::split`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn split<const TF32: bool, const D: usize>(x: __m512) -> [__m512; D] {
            let mut t = [round::<TF32>(x); D];
            let finite =
                _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(t[0]), _mm512_set1_ps(f32::INFINITY));
            let mut r = x;
            for i in 1..D {
                r = _mm512_sub_ps(r, t[i - 1]);
                t[i] = _mm512_maskz_mov_ps(finite, round::<TF32>(r));
            }
            t
        }

        runs!("avx512f", 16, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::c32;
    use dcmesh_numerics::format::BF16;
    use dcmesh_numerics::split::split;

    #[test]
    fn a_panel_layout_and_padding() {
        // 3×4 matrix, mr = 2 → two panels, second padded by one row.
        let a: Vec<f32> = (1..=12).map(|x| x as f32).collect();
        let (m, k, mr, kc) = (3, 4, 2, 4);
        let mut dst = vec![f32::NAN; 2 * mr * kc];
        assert_eq!(gather(&OpSrc::dense_a(&a, k), m, 0, kc, mr, &mut dst, 0, |x| [x]), dst.len());
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
        gather(&OpSrc::dense_b(&b, n), n, 0, kc, nr, &mut dst, 0, |x| [x]);
        // Panel 0, kk = 1 holds columns 0..4 of row 1.
        assert_eq!(&dst[nr..2 * nr], &[6.0, 7.0, 8.0, 9.0]);
        // Panel 1, kk = 0 holds column 4 then zero padding.
        assert_eq!(&dst[nr * kc..nr * kc + nr], &[5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn k_slice_offsets_respected() {
        let a: Vec<f32> = (0..8).map(|x| x as f32).collect(); // 1×8
        let mut dst = vec![0.0f32; 4];
        gather(&OpSrc::dense_a(&a, 8), 1, 4, 4, 1, &mut dst, 0, |x| [x]);
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
        for op in [Op::None, Op::Trans] {
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
                let len = gather(&src, count, 0, depth, w, &mut dst, pitch, |z| [z.re, -z.im]);
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
                        assert_eq!(got, want, "{op:?} along={} p={p} kk={kk}", src.along);
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
    /// `split_by` / [`cascade`] and their vector replicas must reproduce
    /// bit for bit.
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

    #[test]
    fn split_and_cascade_match_literal_formulas() {
        // Every 4099th f32 bit pattern — NaNs, infinities, subnormals and
        // both zeros among them — plus the specials, at every depth, on
        // both sides and at every width the host runs.
        let mut src: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        src.extend(special_values(45));
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

    /// Runs the conversion over `src` at every width the host offers,
    /// checks they agree bit for bit, and returns the `depth` planes.
    fn converted(mode: ComputeMode, side: Side, src: &[f32]) -> Vec<Vec<f32>> {
        let depth = mode.split_depth().unwrap();
        // A stride longer than the run, poisoned, so a write outside
        // `[t·stride, t·stride + len)` shows.
        let stride = src.len() + 3;
        let bits = |buf: &[f32]| buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut agreed: Option<Vec<f32>> = None;
        for lanes in Lanes::available() {
            let mut buf = vec![f32::NAN; depth * stride];
            buf[..src.len()].copy_from_slice(src);
            convert_f32_at(lanes, mode, side, &mut buf, stride, src.len());
            for t in 0..depth {
                assert!(buf[t * stride + src.len()..(t + 1) * stride].iter().all(|x| x.is_nan()));
            }
            if let Some(prev) = &agreed {
                assert_eq!(bits(&buf), bits(prev), "{lanes:?} differs from a wider width");
            }
            agreed = Some(buf);
        }
        let buf = agreed.expect("scalar always runs");
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
        // through), on either side.
        let b = special_values(64);
        for side in [Side::A, Side::B] {
            let got = converted(ComputeMode::FloatToBf16, side, &b);
            for (j, &x) in b.iter().enumerate() {
                assert_eq!(got[0][j].to_bits(), Bf16::round_f32(x).to_bits(), "bf16 j={j}");
            }
            let got = converted(ComputeMode::FloatToTf32, side, &b);
            for (j, &x) in b.iter().enumerate() {
                assert_eq!(got[0][j].to_bits(), Tf32::round_f32(x).to_bits(), "tf32 j={j}");
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
        let len = gather(&OpSrc::dense_a(&a, k), m, 0, kc, mr, &mut buf, 0, |x| [x]);
        convert_f32(ComputeMode::FloatToBf16x3, Side::A, &mut buf, stride, len);
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
