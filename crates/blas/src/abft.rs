//! ABFT-style row-checksum verification of GEMM outputs.
//!
//! Algorithm-based fault tolerance for `C ← α·op(A)·op(B) + β·C`: the
//! row sums of the output are linearly determined by the inputs,
//!
//! ```text
//! Σ_j C[i][j] = α·Σ_t op(A)[i][t]·(Σ_j op(B)[t][j]) + β·Σ_j C_pre[i][j]
//! ```
//!
//! so an O(m·n + m·k + k·n) check covers the O(m·n·k) product. A silent
//! bit flip in the output (or in the accumulator state that produced it)
//! breaks the identity by roughly the magnitude of the flipped value,
//! while legitimate rounding stays within a mode-aware bound derived
//! from the magnitude checksum `Σ|a|·|b|`.
//!
//! The bound is deliberately loose (large safety factor, linear in
//! `k + n`): a false positive here is *systematic* — the same data
//! re-trips the check after every rollback, so the supervisor would loop
//! forever. The price is that low-order mantissa flips hide inside the
//! rounding envelope of the active compute mode; those are the domain of
//! the supervisor's `verify_bursts` bit-compare, not of this check (see
//! DESIGN.md, "coverage boundaries").
//!
//! The sampler, its counters and the pending violation belong to the
//! calling thread's [`crate::context`]. Checks are sampled 1-in-N by the
//! thread's GEMM call counter (shared with [`crate::fault`], so
//! fault-plan triggers and check indices line up in tests). Verification
//! runs *after* fault injection so an injected flip lands between the
//! product and its checksum.

use crate::context;
use crate::element::Element;
use crate::gemm::GemmArgs;
use crate::layout::Op;
use crate::mode::ComputeMode;
use dcmesh_numerics::{Real, C64};
use dcmesh_telemetry::{self as telemetry, ledger, Attr, AttrValue};

/// Safety factor on the rounding bound. Generous on purpose: a missed
/// small-mantissa flip costs one extra `verify_bursts` replay, a false
/// positive costs the run.
const SAFETY: f64 = 64.0;

/// One detected checksum violation.
#[derive(Clone, Debug)]
pub struct AbftViolation {
    /// Routine whose output failed the check (`"SGEMM"`, ...).
    pub routine: &'static str,
    /// Absolute GEMM call index (the calling thread's counter).
    pub call: u64,
    /// Output row with the worst checksum defect.
    pub row: usize,
    /// Observed row sum `Σ_j C[i][j]`.
    pub observed: C64,
    /// Expected row sum from the input checksums.
    pub expected: C64,
    /// The rounding bound the defect exceeded.
    pub tolerance: f64,
    /// Compute mode active at the call.
    pub mode: ComputeMode,
}

impl core::fmt::Display for AbftViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} call {} row {}: row-sum {:.6e}{:+.6e}i, checksum expects {:.6e}{:+.6e}i \
             (defect {:.3e} > bound {:.3e}, mode {:?})",
            self.routine,
            self.call,
            self.row,
            self.observed.re,
            self.observed.im,
            self.expected.re,
            self.expected.im,
            (self.observed - self.expected).magnitude(),
            self.tolerance,
            self.mode,
        )
    }
}

/// Enables checksum verification of every `period`-th GEMM call the
/// calling thread makes (counted from now; `1` checks every call).
/// Replaces any previous installation and drops a pending violation.
pub fn install_abft(period: u64) {
    assert!(period > 0, "ABFT period must be non-zero");
    context::with(|cx| {
        cx.abft = Some((period, cx.gemm_calls));
        cx.abft_pending = None;
    });
}

/// Disables checksum verification and drops a pending violation. The
/// checks' sums stay with the context for the next installation.
pub fn clear_abft() {
    context::with(|cx| {
        cx.abft = None;
        cx.abft_pending = None;
    });
}

/// True while verification is installed.
pub fn abft_installed() -> bool {
    context::with(|cx| cx.abft.is_some())
}

/// Total checksum verifications performed on this thread.
pub fn abft_check_count() -> u64 {
    context::with(|cx| cx.abft_checks)
}

/// Total violations detected on this thread.
pub fn abft_violation_count() -> u64 {
    context::with(|cx| cx.abft_violations)
}

/// Takes the pending violation, if any. The first violation after the
/// last take is kept; later ones only bump the counter (the supervisor
/// rolls back past all of them anyway).
pub fn take_abft_violation() -> Option<AbftViolation> {
    context::with(|cx| cx.abft_pending.take())
}

/// Scans a GEMM output for non-finite values (cheap O(m·n) pass, only
/// when telemetry events are on — which is when the call has a ledger
/// `key`) and, on the first hit, records it in the ledger under that key
/// and marks the callsite as the suspect for whatever
/// rollback/escalation the supervisor decides next. Runs after fault
/// injection so injected NaNs are attributed to the callsite that
/// produced them — the supervisor's own health check sees only the
/// recorded wavefunction, long after call context is gone.
pub(crate) fn probe_nonfinite<T: Element>(
    routine: &'static str,
    key: Option<ledger::Key>,
    c: &[T],
    m: usize,
    n: usize,
    ldc: usize,
) {
    let Some(key) = key else { return };
    if m == 0 || n == 0 || c.len() < (m - 1) * ldc + n {
        return;
    }
    let hit = (0..m).any(|i| {
        c[i * ldc..i * ldc + n].iter().any(|v| {
            let z = v.widen();
            !z.re.is_finite() || !z.im.is_finite()
        })
    });
    if hit {
        ledger::record_nonfinite_output(key);
        telemetry::instant("nonfinite_output", site_attrs(routine, key));
    }
}

/// The attributes that tie an instant event to the call that raised it.
fn site_attrs(routine: &'static str, key: ledger::Key) -> Vec<Attr> {
    vec![
        Attr { key: "routine", value: AttrValue::Str(routine) },
        Attr { key: "callsite", value: AttrValue::Str(key.callsite) },
        Attr { key: "mode", value: AttrValue::Str(key.mode) },
    ]
}

/// Unit roundoff of the product under `mode`: that of its input
/// representation — `depth` terms of a format, `u^depth` — never smaller
/// than the element type's own.
fn mode_eps(mode: ComputeMode, elem_eps: f64) -> f64 {
    mode.systolic()
        .map_or(elem_eps, |(format, depth)| format.unit_roundoff().powi(depth as i32))
        .max(elem_eps)
}

/// Logical `op(X)[r][c]` of a stored matrix with leading dimension `ld`.
fn op_elem<T: Element>(op: Op, s: &[T], ld: usize, r: usize, c: usize) -> T {
    match op {
        Op::None => s[r * ld + c],
        Op::Trans => s[c * ld + r],
        Op::ConjTrans => s[c * ld + r].conj(),
    }
}

/// The per-check sums, kept with the sampler in the thread's context and
/// reused, so a sampled check allocates nothing once they have grown to
/// its shape. Not taken from the workspace pool: its best-fit hand-out
/// could give one of them a GEMM pack buffer.
#[derive(Default)]
pub(crate) struct AbftScratch {
    /// `β·Σ_j C_pre[i][j]` per row.
    sums: Vec<C64>,
    /// `|β|·Σ_j |C_pre[i][j]|` per row.
    mags: Vec<f64>,
    /// `Σ_j op(B)[t][j]` per `t`.
    bsum: Vec<C64>,
    /// `Σ_j |op(B)[t][j]|` per `t`.
    bmag: Vec<f64>,
}

/// `v` cleared and refilled with `len` copies of `x`, in its capacity.
fn refill<V: Copy>(v: &mut Vec<V>, len: usize, x: V) {
    v.clear();
    v.resize(len, x);
}

/// The β·C contribution captured before the product overwrites C, in the
/// context's scratch, which [`check_gemm`] puts back.
pub(crate) struct PreSums {
    call: u64,
    scratch: AbftScratch,
}

/// Captures the β-scaled row sums of C for sampled call `call`. Must run
/// before the product is computed. `None` (no check) for an empty output
/// or storage too short for it.
pub(crate) fn pre_sums<T: Element>(
    call: u64,
    beta: T,
    c: &[T],
    m: usize,
    n: usize,
    ldc: usize,
) -> Option<PreSums> {
    // Let the GEMM's own shape validation report malformed storage.
    if m == 0 || n == 0 || c.len() < (m - 1) * ldc + n {
        return None;
    }
    let mut scratch = context::with(|cx| core::mem::take(&mut cx.abft_scratch));
    refill(&mut scratch.sums, m, C64::zero());
    refill(&mut scratch.mags, m, 0.0);
    if beta != T::ZERO {
        let (beta_acc, beta_abs) = (beta.widen(), beta.magnitude());
        for i in 0..m {
            let mut s = C64::zero();
            let mut mag = 0.0f64;
            for &v in &c[i * ldc..i * ldc + n] {
                s += v.widen();
                mag += v.magnitude();
            }
            scratch.sums[i] = beta_acc * s;
            scratch.mags[i] = beta_abs * mag;
        }
    }
    Some(PreSums { call, scratch })
}

/// The arithmetic of one check: the sampled call's output against the
/// input checksums. Returns the violating row with the largest defect (a
/// NaN defect outranks any finite one; ties keep the first row) and the
/// largest defect/bound ratio over all rows, NaN when any row's is.
/// Writes nothing but `pre`'s column sums.
pub(crate) fn verdict<T: Element>(
    routine: &'static str,
    mode: ComputeMode,
    pre: &mut PreSums,
    g: &GemmArgs<'_, T>,
    c: &[T],
) -> (Option<AbftViolation>, f64) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, ldc, .. } = *g;
    let AbftScratch { sums, mags, bsum, bmag } = &mut pre.scratch;
    let (alpha_acc, alpha_abs) = (alpha.widen(), alpha.magnitude());

    // Column sums of op(B): v[t] = Σ_j op(B)[t][j].
    refill(bsum, k, C64::zero());
    refill(bmag, k, 0.0);
    if alpha != T::ZERO {
        for t in 0..k {
            let mut s = C64::zero();
            let mut mag = 0.0f64;
            for j in 0..n {
                let v = op_elem(transb, b, ldb, t, j);
                s += v.widen();
                mag += v.magnitude();
            }
            bsum[t] = s;
            bmag[t] = mag;
        }
    }

    let eps_total = SAFETY * mode_eps(mode, T::Real::EPSILON.to_f64()) * (k + n) as f64;
    let mut worst: Option<(AbftViolation, f64)> = None;
    // Worst defect/bound ratio across the checked rows, for the ledger's
    // residual histogram. NaN is sticky: a poisoned row must reach the
    // overflow bucket, not be masked by a later finite row.
    let mut max_ratio = 0.0f64;
    let mut ratio_nan = false;
    for i in 0..m {
        let mut lhs = C64::zero();
        let mut mag = 0.0f64;
        if alpha != T::ZERO {
            for t in 0..k {
                let av = op_elem(transa, a, lda, i, t);
                lhs += av.widen() * bsum[t];
                mag += av.magnitude() * bmag[t];
            }
        }
        let expected = alpha_acc * lhs + sums[i];
        let bound = eps_total * (alpha_abs * mag + mags[i]);
        let mut observed = C64::zero();
        for j in 0..n {
            observed += c[i * ldc + j].widen();
        }
        let defect = (observed - expected).magnitude();
        let ratio = if bound > 0.0 { defect / bound } else if defect > 0.0 { f64::INFINITY } else { 0.0 };
        if ratio.is_nan() {
            ratio_nan = true;
        } else if ratio > max_ratio {
            max_ratio = ratio;
        }
        // NaN/Inf in the row sum always violates, and a NaN defect
        // outranks any finite one (comparisons with NaN are false, so
        // check the complement).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let worse = !(defect <= bound) && worst.as_ref().is_none_or(|&(_, wd)| !(defect <= wd));
        if worse {
            let v = AbftViolation {
                routine,
                call: pre.call,
                row: i,
                observed,
                expected,
                tolerance: bound,
                mode,
            };
            worst = Some((v, defect));
        }
    }
    (worst.map(|(v, _)| v), if ratio_nan { f64::NAN } else { max_ratio })
}

/// Verifies the sampled call's output against the input checksums. Runs
/// after the product *and* after fault injection, so injected flips are
/// inside the checked window. The outcome is recorded under the call's
/// ledger `key` (present when telemetry events are on).
pub(crate) fn check_gemm<T: Element>(
    routine: &'static str,
    key: Option<ledger::Key>,
    mut pre: PreSums,
    g: &GemmArgs<'_, T>,
    c: &[T],
    mode: ComputeMode,
) {
    let (worst, ratio) = verdict(routine, mode, &mut pre, g, c);
    if let Some(key) = key {
        match &worst {
            Some(v) => {
                ledger::record_abft_violation(key, ratio);
                let mut attrs = site_attrs(routine, key);
                attrs.push(Attr { key: "call", value: AttrValue::U64(v.call) });
                attrs.push(Attr { key: "detail", value: AttrValue::Text(v.to_string()) });
                telemetry::instant("abft_violation", attrs);
            }
            None => ledger::record_abft_check(key, ratio),
        }
    }
    context::with(|cx| {
        cx.abft_scratch = pre.scratch;
        cx.abft_checks += 1;
        if let Some(v) = worst {
            cx.abft_violations += 1;
            cx.abft_pending.get_or_insert(v);
        }
    });
}

#[cfg(test)]
mod tests {
    // End-to-end detection lives in the `abft_detection` integration
    // binary; here, the pure parts.
    use super::*;
    use crate::fault::FaultKind;
    use crate::gemm::kernel::Exec;
    use crate::gemm::level3;
    use crate::layout::Uplo;
    use dcmesh_numerics::{C32, Complex};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn chance(rng: &mut StdRng, p: f64) -> bool {
        rng.gen_range(0.0..1.0) < p
    }

    #[test]
    fn mode_eps_is_monotone_in_precision() {
        let e32 = f32::EPSILON as f64;
        assert!(mode_eps(ComputeMode::FloatToBf16, e32) > mode_eps(ComputeMode::FloatToTf32, e32));
        assert!(
            mode_eps(ComputeMode::FloatToTf32, e32) > mode_eps(ComputeMode::FloatToBf16x2, e32)
        );
        // Never below the element type's own roundoff.
        assert_eq!(mode_eps(ComputeMode::FloatToBf16x3, e32), e32.max(2f64.powi(-23)));
        assert_eq!(mode_eps(ComputeMode::Standard, f64::EPSILON), f64::EPSILON);
        // The exact value per mode, in `ALL` order.
        let eps = ComputeMode::ALL.map(|mode| mode_eps(mode, e32));
        assert_eq!(eps, [-23, -8, -16, -23, -11, -23].map(|e| 2f64.powi(e)));
    }

    /// Distance in units in the last place between two non-negative
    /// finite `f64`s.
    fn ulps(x: f64, y: f64) -> u64 {
        x.to_bits().abs_diff(y.to_bits())
    }

    #[test]
    fn magnitude_is_within_an_ulp_or_two_of_hypot_and_equal_off_the_normal_range() {
        let mut rng = StdRng::seed_from_u64(0xab);
        let (mut worst32, mut worst64) = (0, 0);
        for _ in 0..200_000 {
            let z = Complex { re: rng.gen_range(-1e3f32..1e3), im: rng.gen_range(-1e3f32..1e3) };
            let w = z.widen();
            worst32 = worst32.max(ulps(z.magnitude(), w.re.hypot(w.im)));
            let scale = 2f64.powi(rng.gen_range(-500..500));
            let z = C64 { re: scale * rng.gen_range(-1.0..1.0), im: scale * rng.gen_range(-1.0..1.0) };
            worst64 = worst64.max(ulps(z.magnitude(), z.re.hypot(z.im)));
        }
        assert!(worst32 <= 1, "C32: {worst32} ulp from hypot");
        assert!(worst64 <= 2, "C64: {worst64} ulp from hypot");
        // Off the normal range of the squares, and on non-finite parts,
        // `hypot` itself.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (re, im) in [
            (1e160, 1e160),
            (-1e-160, 3e-170),
            (1e-170, 0.0),
            (f64::MAX, 1.0),
            (inf, nan),
            (nan, -inf),
            (nan, 1.0),
            (-inf, 2.0),
            (0.0, -0.0),
        ] {
            let (got, want) = (C64 { re, im }.magnitude(), re.hypot(im));
            assert!(got.to_bits() == want.to_bits(), "({re:e}, {im:e}): {got:e} vs {want:e}");
        }
        assert!(Complex { re: f32::INFINITY, im: f32::NAN }.magnitude().is_infinite());
        assert_eq!((-2.5f32).magnitude(), 2.5);
        assert!(f64::NAN.magnitude().is_nan());
    }

    /// The check as it was first written — each operand read through a
    /// widening `op(X)[r][c]`, every modulus `f64::hypot`, fresh buffers —
    /// against which the verdicts of [`verdict`] are held.
    fn oracle<T: Element>(
        mode: ComputeMode,
        g: &GemmArgs<'_, T>,
        c_pre: &[T],
        c: &[T],
    ) -> (Option<AbftViolation>, f64) {
        let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, ldc, .. } = *g;
        let op = |op: Op, s: &[T], ld: usize, r: usize, c: usize| -> C64 {
            match op {
                Op::None => s[r * ld + c].widen(),
                Op::Trans => s[c * ld + r].widen(),
                Op::ConjTrans => s[c * ld + r].widen().conj(),
            }
        };
        let (alpha_acc, beta_acc) = (alpha.widen(), beta.widen());
        let mut sums = vec![C64::zero(); m];
        let mut mags = vec![0.0f64; m];
        if beta_acc != C64::zero() {
            for i in 0..m {
                for j in 0..n {
                    let v = c_pre[i * ldc + j].widen();
                    sums[i] += v;
                    mags[i] += v.abs();
                }
                sums[i] = beta_acc * sums[i];
                mags[i] *= beta_acc.abs();
            }
        }
        let mut bsum = vec![C64::zero(); k];
        let mut bmag = vec![0.0f64; k];
        if alpha_acc != C64::zero() {
            for t in 0..k {
                for j in 0..n {
                    let v = op(transb, b, ldb, t, j);
                    bsum[t] += v;
                    bmag[t] += v.abs();
                }
            }
        }
        let eps_total = SAFETY * mode_eps(mode, T::Real::EPSILON.to_f64()) * (k + n) as f64;
        let mut worst: Option<AbftViolation> = None;
        let (mut max_ratio, mut ratio_nan) = (0.0f64, false);
        for i in 0..m {
            let mut lhs = C64::zero();
            let mut mag = 0.0f64;
            if alpha_acc != C64::zero() {
                for t in 0..k {
                    let av = op(transa, a, lda, i, t);
                    lhs += av * bsum[t];
                    mag += av.abs() * bmag[t];
                }
            }
            let expected = alpha_acc * lhs + sums[i];
            let bound = eps_total * (alpha_acc.abs() * mag + mags[i]);
            let mut observed = C64::zero();
            for j in 0..n {
                observed += c[i * ldc + j].widen();
            }
            let defect = (observed - expected).abs();
            let ratio =
                if bound > 0.0 { defect / bound } else if defect > 0.0 { f64::INFINITY } else { 0.0 };
            if ratio.is_nan() {
                ratio_nan = true;
            } else if ratio > max_ratio {
                max_ratio = ratio;
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(defect <= bound)
                && worst.as_ref().is_none_or(|w| !(defect <= (w.observed - w.expected).abs()))
            {
                let v = AbftViolation {
                    routine: "ORACLE",
                    call: 0,
                    row: i,
                    observed,
                    expected,
                    tolerance: bound,
                    mode,
                };
                worst = Some(v);
            }
        }
        (worst, if ratio_nan { f64::NAN } else { max_ratio })
    }

    /// An element type the cases are drawn in.
    trait Draw: Element {
        /// The modes a call over this type runs in.
        const MODES: &'static [ComputeMode];
        /// `z` in this type (a real one takes `re`).
        fn from(z: C64) -> Self;
    }

    const ALL_FLOAT: &[ComputeMode] = &[
        ComputeMode::Standard,
        ComputeMode::FloatToBf16,
        ComputeMode::FloatToBf16x2,
        ComputeMode::FloatToBf16x3,
        ComputeMode::FloatToTf32,
    ];

    impl Draw for f32 {
        const MODES: &'static [ComputeMode] = ALL_FLOAT;
        fn from(z: C64) -> f32 {
            z.re as f32
        }
    }
    impl Draw for f64 {
        const MODES: &'static [ComputeMode] = &[ComputeMode::Standard];
        fn from(z: C64) -> f64 {
            z.re
        }
    }
    impl Draw for C32 {
        const MODES: &'static [ComputeMode] = &ComputeMode::ALL;
        fn from(z: C64) -> C32 {
            Complex { re: z.re as f32, im: z.im as f32 }
        }
    }
    impl Draw for C64 {
        const MODES: &'static [ComputeMode] = &[ComputeMode::Standard, ComputeMode::Complex3m];
        fn from(z: C64) -> C64 {
            z
        }
    }

    /// What a case plants in its data besides uniform values.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Plant {
        /// Nothing.
        Clean,
        /// A random bit of one output element flipped after the product.
        Flip,
        /// ±Inf, NaN or (Inf, NaN) in one element of A, B, C before the
        /// product, or of the output after it.
        NonFinite,
        /// Parts near 1e±160 (whose squares leave `f64`'s normal range) in
        /// A, B and C.
        Extreme,
    }

    /// One random case of `T`: its shape, ops, α, β, padding and plant
    /// drawn from `rng`; the product run through [`level3`], then
    /// [`verdict`] and [`oracle`] compared. Returns the verdict: whether
    /// a row violated, and whether the ratio is NaN.
    fn one_case<T: Draw>(
        rng: &mut StdRng,
        transa: Op,
        transb: Op,
        plant: Plant,
        hermitian: bool,
    ) -> (bool, bool) {
        let complex = T::DOMAIN.is_complex();
        let value = |rng: &mut StdRng| {
            let re = rng.gen_range(-1.0..1.0);
            let im = if complex { rng.gen_range(-1.0..1.0) } else { 0.0 };
            let scale = match plant {
                Plant::Extreme if chance(rng, 0.3) => {
                    if chance(rng, 0.5) { 1e160 } else { 1e-160 }
                }
                _ => 1.0,
            };
            T::from(C64 { re: re * scale, im: im * scale })
        };
        let (m, k) = (rng.gen_range(1..14), rng.gen_range(1..30));
        let n = if hermitian { m } else { rng.gen_range(1..14) };
        let (ar, ac) = transa.applied_shape(m, k);
        let (br, bc) = transb.applied_shape(k, n);
        let pad = |rng: &mut StdRng| if chance(rng, 0.5) { rng.gen_range(1..4) } else { 0 };
        let lda = ac + pad(rng);
        let ldb = if hermitian { lda } else { bc + pad(rng) };
        let ldc = n + pad(rng);
        let mut a: Vec<T> = (0..ar * lda).map(|_| value(rng)).collect();
        let mut b: Vec<T> = if hermitian { a.clone() } else { (0..br * ldb).map(|_| value(rng)).collect() };
        let mut c: Vec<T> = (0..m * ldc).map(|_| value(rng)).collect();
        let uplo = hermitian.then(|| if chance(rng, 0.5) { Uplo::Upper } else { Uplo::Lower });
        if hermitian {
            // A Hermitian C, so the mirrored output keeps the identity.
            for i in 0..m {
                c[i * ldc + i] = c[i * ldc + i].real_part();
                for j in 0..i {
                    c[j * ldc + i] = c[i * ldc + j].conj();
                }
            }
        }
        let other = value(rng);
        let alpha = if chance(rng, 0.2) { T::ZERO } else { other };
        let beta = match rng.gen_range(0..3) {
            0 => T::ZERO,
            1 => T::ONE,
            _ if hermitian => other.real_part(),
            _ => value(rng),
        };
        let nonfinite = |rng: &mut StdRng| {
            let parts = [(f64::INFINITY, 0.0), (f64::NEG_INFINITY, 1.0), (f64::NAN, 0.0), (f64::INFINITY, f64::NAN)];
            let (re, im) = parts[rng.gen_range(0..parts.len())];
            T::from(C64 { re, im })
        };
        if plant == Plant::NonFinite && chance(rng, 0.75) {
            let x = nonfinite(rng);
            let target = match rng.gen_range(0..3) {
                0 => &mut a,
                1 => &mut b,
                _ => &mut c,
            };
            let at = rng.gen_range(0..target.len());
            target[at] = x;
            if hermitian {
                b.clone_from(&a);
            }
        }
        let mode = T::MODES[rng.gen_range(0..T::MODES.len())];
        let g = GemmArgs {
            transa,
            transb,
            m,
            n,
            k,
            alpha,
            a: &a,
            lda,
            b: &b,
            ldb,
            beta,
            ldc,
            uplo,
            real_diag: false,
        };
        let c_pre = c.clone();
        let mut pre = pre_sums(7, beta, &c, m, n, ldc).expect("a non-empty output");
        level3(mode, &g, &mut c, Exec::host(m));
        let at = rng.gen_range(0..m) * ldc + rng.gen_range(0..n);
        match plant {
            Plant::Flip => c[at] = c[at].corrupted(FaultKind::FlipBit(rng.gen_range(0..64)), rng.next_u64()),
            Plant::NonFinite if chance(rng, 0.25) => c[at] = nonfinite(rng),
            _ => {}
        }
        let (got, got_ratio) = verdict("TEST", mode, &mut pre, &g, &c);
        let (want, want_ratio) = oracle(mode, &g, &c_pre, &c);
        let case = format!(
            "{} {transa:?}/{transb:?} {m}x{n}x{k} ld {lda}/{ldb}/{ldc} {mode:?} {plant:?} \
             hermitian {hermitian} alpha {:?} beta {:?}",
            core::any::type_name::<T>(),
            alpha.widen(),
            beta.widen(),
        );
        assert_eq!(got.as_ref().map(|v| v.row), want.as_ref().map(|v| v.row), "worst row: {case}");
        assert_eq!(got_ratio.is_nan(), want_ratio.is_nan(), "ratio {got_ratio} vs {want_ratio}: {case}");
        let close = got_ratio == want_ratio
            || (got_ratio - want_ratio).abs() <= 4.0 * f64::EPSILON * got_ratio.abs().max(want_ratio.abs());
        assert!(got_ratio.is_nan() || close, "ratio {got_ratio:e} vs {want_ratio:e}: {case}");
        (got.is_some(), got_ratio.is_nan())
    }

    const OPS: [Op; 3] = [Op::None, Op::Trans, Op::ConjTrans];

    /// Every op pair under every plant, `cases` times each; the verdicts
    /// seen are added to `seen` as (passed, violated, NaN ratio).
    fn every_case<T: Draw>(rng: &mut StdRng, plants: &[Plant], cases: usize, seen: &mut [u32; 3]) {
        for transa in OPS {
            for transb in OPS {
                for &plant in plants {
                    for _ in 0..cases {
                        tally(seen, one_case::<T>(rng, transa, transb, plant, false));
                    }
                }
            }
        }
    }

    fn tally(seen: &mut [u32; 3], (violated, nan): (bool, bool)) {
        seen[usize::from(violated)] += 1;
        seen[2] += u32::from(nan);
    }

    #[test]
    fn verdicts_match_the_hypot_formulation_in_every_element_type_and_op_pair() {
        let mut rng = StdRng::seed_from_u64(0xabf7);
        let mut seen = [0; 3];
        let plants = [Plant::Clean, Plant::Flip, Plant::NonFinite];
        every_case::<f32>(&mut rng, &plants, 12, &mut seen);
        every_case::<C32>(&mut rng, &plants, 12, &mut seen);
        let plants = [Plant::Clean, Plant::Flip, Plant::NonFinite, Plant::Extreme];
        every_case::<f64>(&mut rng, &plants, 12, &mut seen);
        every_case::<C64>(&mut rng, &plants, 12, &mut seen);
        // Hermitian outputs: `Ψ†Ψ` with one triangle computed, the other
        // mirrored.
        for plant in [Plant::Clean, Plant::Flip, Plant::NonFinite] {
            for _ in 0..24 {
                tally(&mut seen, one_case::<C32>(&mut rng, Op::ConjTrans, Op::None, plant, true));
                tally(&mut seen, one_case::<C64>(&mut rng, Op::ConjTrans, Op::None, plant, true));
            }
        }
        // Both verdicts and the NaN ratio were reached, in numbers.
        assert!(seen.iter().all(|&n| n >= 50), "passed, violated, NaN: {seen:?}");
    }
}
