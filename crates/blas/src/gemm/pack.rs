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
//!    plane — a contiguous, panel-layout-agnostic, 8-lane-vectorised run:
//!    BF16/TF32 rounding, or the split into `depth` planes. Each source
//!    element is gathered and converted exactly once per call no matter
//!    how many products and product terms later read the packed planes.
//!
//! For the BF16 split modes the two operands are converted differently:
//!
//! * A-side ([`Side::A`]): the raw split planes `a₀, a₁, a₂` from
//!   [`Split2`]/[`Split3`] (each BF16-representable).
//! * B-side ([`Side::B`]): *cascaded partial sums*
//!   `BS_t = fl(b₀ + … + b_{d-1-t})`, i.e. for depth 3 the planes
//!   `[b₀+b₁+b₂, b₀+b₁, b₀]` and for depth 2 `[b₀+b₁, b₀]`.
//!
//! Running only the diagonal products `Aₜ·BSₜ` then covers exactly the
//! documented term sets (`lowp::product_terms`) with `d` GEMM passes
//! instead of `3`/`6`: `a₀·(b₀+b₁+b₂) + a₁·(b₀+b₁) + a₂·b₀` expands to
//! `{00,01,02,10,11,20}`. The partial sums are rounded to `f32`
//! (relative perturbation ≤ 2⁻²⁴), which sits below the 2⁻¹⁶ / ≈2⁻²⁴
//! split-residual floors of the x2/x3 modes — the error-ordering tests
//! in `lowp` pin this down empirically.

use crate::layout::Op;
use crate::mode::ComputeMode;
use dcmesh_numerics::bf16::Bf16;
use dcmesh_numerics::split::{Split2, Split3};
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
    let depth = match mode {
        ComputeMode::Standard | ComputeMode::Complex3m => return,
        ComputeMode::FloatToBf16 | ComputeMode::FloatToTf32 => 1,
        ComputeMode::FloatToBf16x2 => 2,
        ComputeMode::FloatToBf16x3 => 3,
    };
    assert!(depth == 1 || len <= stride, "plane run longer than the plane stride");
    let (p0, rest): (&mut [f32], &mut [f32]) =
        if depth == 1 { (planes, &mut []) } else { planes.split_at_mut(stride) };
    let p0 = &mut p0[..len];
    let (p1, p2): (&mut [f32], &mut [f32]) = match depth {
        1 => (&mut [], &mut []),
        2 => (&mut rest[..len], &mut []),
        _ => {
            let (p1, p2) = rest.split_at_mut(stride);
            (&mut p1[..len], &mut p2[..len])
        }
    };
    assert!(Lanes::available().any(|l| l == lanes), "host cannot run {lanes:?} conversions");
    // Whole vector groups first, then the scalar tail.
    #[cfg(target_arch = "x86_64")]
    let done = {
        let (q0, q1, q2) = (p0.as_mut_ptr(), p1.as_mut_ptr(), p2.as_mut_ptr());
        macro_rules! run {
            ($isa:ident, $width:literal) => {{
                let done = len - len % $width;
                // SAFETY: the ISA was asserted available just above;
                // `done` is a multiple of the vector width and every
                // plane the chosen instantiation touches (`p0`, and
                // `p1`/`p2` up to `depth`) was sliced to `len ≥ done`
                // elements.
                unsafe {
                    match (mode, side) {
                        (ComputeMode::FloatToBf16, _) => x86::$isa::round_run::<false>(q0, done),
                        (ComputeMode::FloatToTf32, _) => x86::$isa::round_run::<true>(q0, done),
                        (ComputeMode::FloatToBf16x2, Side::A) => {
                            x86::$isa::split_run::<false, 2>(q0, q1, q2, done)
                        }
                        (ComputeMode::FloatToBf16x2, Side::B) => {
                            x86::$isa::split_run::<true, 2>(q0, q1, q2, done)
                        }
                        (_, Side::A) => x86::$isa::split_run::<false, 3>(q0, q1, q2, done),
                        (_, Side::B) => x86::$isa::split_run::<true, 3>(q0, q1, q2, done),
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
    for j in done..len {
        let x = p0[j];
        let t = match (mode, side) {
            (ComputeMode::FloatToBf16, _) => [Bf16::round_f32(x), 0.0, 0.0],
            (ComputeMode::FloatToTf32, _) => [Tf32::round_f32(x), 0.0, 0.0],
            (_, Side::A) => split_planes(x, depth),
            (_, Side::B) => cascade_planes(x, depth),
        };
        p0[j] = t[0];
        if depth > 1 {
            p1[j] = t[1];
        }
        if depth > 2 {
            p2[j] = t[2];
        }
    }
}

/// Raw BF16 split planes of one element: `[a₀, a₁, a₂]` (unused planes 0).
#[inline(always)]
fn split_planes(x: f32, depth: usize) -> [f32; 3] {
    if depth == 2 {
        let s = Split2::new(x);
        [s.hi, s.lo, 0.0]
    } else {
        let s = Split3::new(x);
        [s.hi, s.mid, s.lo]
    }
}

/// Cascaded partial-sum planes of one element: plane `t` holds
/// `fl(b₀ + … + b_{depth-1-t})`. Non-finite values ride along unchanged:
/// `Split*::new` puts Inf/NaN in the leading term with zero corrections,
/// so every cascade plane is Inf/NaN too and 0·Inf / 0·NaN still fire in
/// all `d` products.
#[inline(always)]
fn cascade_planes(x: f32, depth: usize) -> [f32; 3] {
    if depth == 2 {
        let s = Split2::new(x);
        [s.hi + s.lo, s.hi, 0.0]
    } else {
        let s = Split3::new(x);
        let s01 = s.hi + s.mid;
        [s01 + s.lo, s01, s.hi]
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Vector replicas of the scalar BF16/TF32 rounding and BF16
    //! split/cascade, at 8 (AVX2) and 16 (AVX-512) lanes. Exact
    //! bit-compatibility with the scalar path is a hard requirement (the
    //! pack must not depend on the host's ISA beyond speed); the rounding
    //! uses the same integer round-to-nearest-even trick as
    //! `Bf16::from_f32`, including its NaN-quieting behaviour.

    /// The two in-place runs over packed planes, written once over an
    /// ISA's `LANES`, load/store/add and its `round_bf16` / `round_tf32` /
    /// `split` (defined beside the invocation).
    macro_rules! runs {
        ($feat:literal, $lanes:literal, $load:ident, $store:ident, $add:ident) => {
            /// Rounds `len` (a multiple of the lane count) elements in
            /// place, to TF32 or BF16.
            ///
            /// # Safety
            /// Caller must have verified the ISA and that `p` addresses
            /// at least `len` readable and writable elements.
            #[target_feature(enable = $feat)]
            pub(in super::super) unsafe fn round_run<const TF32: bool>(p: *mut f32, len: usize) {
                debug_assert!(len.is_multiple_of($lanes));
                for j in (0..len).step_by($lanes) {
                    let x = $load(p.add(j));
                    $store(p.add(j), if TF32 { round_tf32(x) } else { round_bf16(x) });
                }
            }

            /// Converts `len` (a multiple of the lane count) raw elements
            /// at `p0` into `DEPTH` split planes in place: the raw planes
            /// (`CASCADE = false`) or the cascaded partial sums. `p2` is
            /// only touched for depth 3.
            ///
            /// # Safety
            /// Caller must have verified the ISA and that `p0`, `p1` and
            /// — for depth 3 — `p2` each address at least `len` readable
            /// and writable elements.
            #[target_feature(enable = $feat)]
            pub(in super::super) unsafe fn split_run<const CASCADE: bool, const DEPTH: usize>(
                p0: *mut f32,
                p1: *mut f32,
                p2: *mut f32,
                len: usize,
            ) {
                debug_assert!(len.is_multiple_of($lanes));
                for j in (0..len).step_by($lanes) {
                    // For depth 2, `mid` holds the single correction term.
                    let (hi, mid, lo) = split($load(p0.add(j)), DEPTH);
                    let (o0, o1, o2) = if !CASCADE {
                        (hi, mid, lo)
                    } else if DEPTH == 2 {
                        ($add(hi, mid), hi, lo)
                    } else {
                        let s01 = $add(hi, mid);
                        ($add(s01, lo), s01, hi)
                    };
                    $store(p0.add(j), o0);
                    $store(p1.add(j), o1);
                    if DEPTH > 2 {
                        $store(p2.add(j), o2);
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

        /// Vector `Split3::new` (depth 3) / `Split2::new` (depth 2):
        /// returns the raw planes with corrections zeroed on non-finite
        /// leads, exactly like the scalar constructors.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn split(x: __m256, depth: usize) -> (__m256, __m256, __m256) {
            let hi = round_bf16(x);
            let abs_hi = _mm256_and_ps(hi, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF)));
            let finite = _mm256_cmp_ps(abs_hi, _mm256_set1_ps(f32::INFINITY), _CMP_LT_OQ);
            let r1 = _mm256_sub_ps(x, hi);
            let mid = _mm256_and_ps(round_bf16(r1), finite);
            if depth == 2 {
                (hi, mid, _mm256_setzero_ps())
            } else {
                let lo = _mm256_and_ps(round_bf16(_mm256_sub_ps(r1, mid)), finite);
                (hi, mid, lo)
            }
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

        /// 16-lane [`super::avx2`]`::split`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn split(x: __m512, depth: usize) -> (__m512, __m512, __m512) {
            let hi = round_bf16(x);
            let finite =
                _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(hi), _mm512_set1_ps(f32::INFINITY));
            let r1 = _mm512_sub_ps(x, hi);
            let mid = _mm512_maskz_mov_ps(finite, round_bf16(r1));
            if depth == 2 {
                (hi, mid, _mm512_setzero_ps())
            } else {
                let lo = _mm512_maskz_mov_ps(finite, round_bf16(_mm512_sub_ps(r1, mid)));
                (hi, mid, lo)
            }
        }

        runs!("avx512f", 16, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::c32;

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
        let s = Split3::new(x);
        let c = cascade_planes(x, 3);
        assert_eq!(c[0], (s.hi + s.mid) + s.lo);
        assert_eq!(c[1], s.hi + s.mid);
        assert_eq!(c[2], s.hi);
        let s2 = Split2::new(x);
        let c2 = cascade_planes(x, 2);
        assert_eq!(c2[0], s2.hi + s2.lo);
        assert_eq!(c2[1], s2.hi);
    }

    #[test]
    fn cascade_preserves_nonfinite() {
        for depth in [2, 3] {
            let inf = cascade_planes(f32::INFINITY, depth);
            let nan = cascade_planes(f32::NAN, depth);
            for t in 0..depth {
                assert!(inf[t].is_infinite(), "depth {depth} plane {t}");
                assert!(nan[t].is_nan(), "depth {depth} plane {t}");
            }
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
                let expect = cascade_planes(x, depth);
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
                    let expect = split_planes(x, depth);
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
                let s = Split3::new(a[r * k + kk]);
                let idx = kk * mr + r;
                assert_eq!(
                    [buf[idx], buf[stride + idx], buf[2 * stride + idx]],
                    [s.hi, s.mid, s.lo]
                );
            }
        }
    }
}
