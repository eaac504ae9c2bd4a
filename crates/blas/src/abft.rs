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
use crate::gemm::GemmArgs;
use crate::layout::Op;
use crate::mode::ComputeMode;
use dcmesh_numerics::{Complex, C64};
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
            (self.observed - self.expected).abs(),
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

/// Disables checksum verification and drops a pending violation.
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

/// Element types the checksum accumulates: everything is promoted to a
/// complex f64 (reals with a zero imaginary part).
pub(crate) trait AbftElem: Copy {
    /// The value as a complex f64.
    fn acc(self) -> C64;
    /// Unit roundoff of the element type.
    fn elem_eps() -> f64;
}

impl AbftElem for f32 {
    fn acc(self) -> C64 {
        C64 { re: self as f64, im: 0.0 }
    }
    fn elem_eps() -> f64 {
        f32::EPSILON as f64
    }
}

impl AbftElem for f64 {
    fn acc(self) -> C64 {
        C64 { re: self, im: 0.0 }
    }
    fn elem_eps() -> f64 {
        f64::EPSILON
    }
}

impl<T: AbftElem> AbftElem for Complex<T> {
    fn acc(self) -> C64 {
        C64 { re: self.re.acc().re, im: self.im.acc().re }
    }
    fn elem_eps() -> f64 {
        T::elem_eps()
    }
}

/// Scans a GEMM output for non-finite values (cheap O(m·n) pass, only
/// when telemetry events are on — which is when the call has a ledger
/// `key`) and, on the first hit, records it in the ledger under that key
/// and marks the callsite as the suspect for whatever
/// rollback/escalation the supervisor decides next. Runs after fault
/// injection so injected NaNs are attributed to the callsite that
/// produced them — the supervisor's own health check sees only the
/// recorded wavefunction, long after call context is gone.
pub(crate) fn probe_nonfinite<T: AbftElem>(
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
            let z = v.acc();
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
fn op_elem<T: AbftElem>(op: Op, s: &[T], ld: usize, r: usize, c: usize) -> C64 {
    match op {
        Op::None => s[r * ld + c].acc(),
        Op::Trans => s[c * ld + r].acc(),
        Op::ConjTrans => s[c * ld + r].acc().conj(),
    }
}

/// The β·C contribution captured before the product overwrites C.
pub(crate) struct PreSums {
    call: u64,
    /// `β·Σ_j C_pre[i][j]` per row.
    sums: Vec<C64>,
    /// `|β|·Σ_j |C_pre[i][j]|` per row.
    mags: Vec<f64>,
}

/// Captures the β-scaled row sums of C for sampled call `call`. Must run
/// before the product is computed. `None` (no check) for an empty output
/// or storage too short for it.
pub(crate) fn pre_sums<T: AbftElem>(
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
    let beta_acc = beta.acc();
    let mut sums = vec![C64::zero(); m];
    let mut mags = vec![0.0f64; m];
    if beta_acc != C64::zero() {
        let beta_abs = beta_acc.abs();
        for i in 0..m {
            let mut s = C64::zero();
            let mut mag = 0.0f64;
            for j in 0..n {
                let v = c[i * ldc + j].acc();
                s += v;
                mag += v.abs();
            }
            sums[i] = beta_acc * s;
            mags[i] = beta_abs * mag;
        }
    }
    Some(PreSums { call, sums, mags })
}

/// Verifies the sampled call's output against the input checksums. Runs
/// after the product *and* after fault injection, so injected flips are
/// inside the checked window. The outcome is recorded under the call's
/// ledger `key` (present when telemetry events are on).
pub(crate) fn check_gemm<T: AbftElem>(
    routine: &'static str,
    key: Option<ledger::Key>,
    pre: PreSums,
    g: &GemmArgs<'_, T>,
    c: &[T],
    mode: ComputeMode,
) {
    let GemmArgs { transa, transb, m, n, k, alpha, a, lda, b, ldb, ldc, .. } = *g;
    let alpha_acc = alpha.acc();
    let alpha_abs = alpha_acc.abs();

    // Column sums of op(B): v[t] = Σ_j op(B)[t][j].
    let mut bsum = vec![C64::zero(); k];
    let mut bmag = vec![0.0f64; k];
    if alpha_acc != C64::zero() {
        for t in 0..k {
            let mut s = C64::zero();
            let mut mag = 0.0f64;
            for j in 0..n {
                let v = op_elem(transb, b, ldb, t, j);
                s += v;
                mag += v.abs();
            }
            bsum[t] = s;
            bmag[t] = mag;
        }
    }

    let eps_total = SAFETY * mode_eps(mode, T::elem_eps()) * (k + n) as f64;
    let mut worst: Option<AbftViolation> = None;
    // Worst defect/bound ratio across the checked rows, for the ledger's
    // residual histogram. NaN is sticky: a poisoned row must reach the
    // overflow bucket, not be masked by a later finite row.
    let mut max_ratio = 0.0f64;
    let mut ratio_nan = false;
    for i in 0..m {
        let mut lhs = C64::zero();
        let mut mag = 0.0f64;
        if alpha_acc != C64::zero() {
            for t in 0..k {
                let av = op_elem(transa, a, lda, i, t);
                lhs += av * bsum[t];
                mag += av.abs() * bmag[t];
            }
        }
        let expected = alpha_acc * lhs + pre.sums[i];
        let bound = eps_total * (alpha_abs * mag + pre.mags[i]);
        let mut observed = C64::zero();
        for j in 0..n {
            observed += c[i * ldc + j].acc();
        }
        let defect = (observed - expected).abs();
        let ratio = if bound > 0.0 { defect / bound } else if defect > 0.0 { f64::INFINITY } else { 0.0 };
        if ratio.is_nan() {
            ratio_nan = true;
        } else if ratio > max_ratio {
            max_ratio = ratio;
        }
        // NaN/Inf in the row sum always violates (comparisons with NaN
        // are false, so check the complement).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(defect <= bound) {
            let v = AbftViolation {
                routine,
                call: pre.call,
                row: i,
                observed,
                expected,
                tolerance: bound,
                mode,
            };
            // A NaN defect outranks any finite one (same complement trick).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let worse = match &worst {
                None => true,
                Some(w) => {
                    let wd = (w.observed - w.expected).abs();
                    !(defect <= wd)
                }
            };
            if worse {
                worst = Some(v);
            }
        }
    }

    if let Some(key) = key {
        let final_ratio = if ratio_nan { f64::NAN } else { max_ratio };
        match &worst {
            Some(v) => {
                ledger::record_abft_violation(key, final_ratio);
                let mut attrs = site_attrs(routine, key);
                attrs.push(Attr { key: "call", value: AttrValue::U64(v.call) });
                attrs.push(Attr { key: "detail", value: AttrValue::Text(v.to_string()) });
                telemetry::instant("abft_violation", attrs);
            }
            None => ledger::record_abft_check(key, final_ratio),
        }
    }
    context::with(|cx| {
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
    // binary; only pure functions are tested here.
    use super::*;

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
}
