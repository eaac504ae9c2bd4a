//! Deterministic fault injection into GEMM outputs.
//!
//! Supports the robustness test harness: a seeded [`FaultPlan`]
//! corrupts one output element of chosen GEMM calls — flipping a
//! mantissa bit, or overwriting with NaN/Inf — so that detection,
//! rollback and precision-escalation paths can be exercised
//! reproducibly, with no randomness at run time.
//!
//! The plan, like all library state, belongs to the calling thread's
//! [`crate::context`]. Every GEMM call a thread makes increments its
//! monotonic call counter (faults themselves cost nothing while no plan
//! is installed). A plan's triggers are indexed *relative to the
//! counter value at install time*, so a test gets stable indices
//! regardless of what the thread ran earlier. The counter is never
//! reset: after a rollback the re-run's calls have fresh indices, so a
//! [`Trigger::Once`] fault does not re-fire on the retry.
//!
//! Sites can be scoped to a routine (`"CGEMM"`) and/or to the compute
//! mode the call *executes* in — `STANDARD` for every DGEMM, and for a
//! ZGEMM unless `COMPLEX_3M`, whatever the ambient mode. Mode scoping
//! models a fault specific to the low-precision matrix engines: after
//! the supervisor escalates to a stronger mode the fault stops firing,
//! and the FP64 SCF boundary never sees it.
//!
//! Plans of raw one-shot bit flips — the silent-data-corruption model,
//! finite but wildly wrong values that only the ABFT checksum or a
//! `verify_bursts` replay can catch — have a text grammar so
//! coordinators can pass them to worker processes through the
//! environment (see [`FaultPlan::parse`]).

use crate::context;
use crate::mode::ComputeMode;
use dcmesh_numerics::Complex;

/// What to do to the targeted output element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR one mantissa bit of the value (bit index taken modulo the
    /// mantissa width of the element type). Bounded corruption: the
    /// value changes by at most a factor of 2.
    FlipMantissaBit(u32),
    /// XOR one bit anywhere in the element word (bit index modulo the
    /// full bit width), exponent and sign included — the silent-data-
    /// corruption model, where a flipped high exponent bit changes the
    /// value by hundreds of orders of magnitude without any NaN/Inf
    /// signature for the non-finite health checks to see.
    FlipBit(u32),
    /// Overwrite with NaN.
    Nan,
    /// Overwrite with +Inf.
    Inf,
}

/// When a fault site fires, in GEMM calls counted from plan install.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Exactly at the given relative call index.
    Once(u64),
    /// At every `offset + i·period` relative call index.
    Every {
        /// Distance between firings (must be non-zero to ever fire).
        period: u64,
        /// First relative call index that fires.
        offset: u64,
    },
}

impl Trigger {
    fn fires(self, rel_call: u64) -> bool {
        match self {
            Trigger::Once(k) => rel_call == k,
            Trigger::Every { period, offset } => {
                period > 0 && rel_call >= offset && (rel_call - offset).is_multiple_of(period)
            }
        }
    }
}

/// One fault-injection rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// When the site fires.
    pub trigger: Trigger,
    /// The corruption applied.
    pub kind: FaultKind,
    /// Restrict to one routine name (`"SGEMM"`, `"CGEMM"`, ...); `None`
    /// matches all.
    pub routine: Option<&'static str>,
    /// Restrict to calls that execute in this compute mode (see the
    /// module docs); `None` matches all modes.
    pub mode: Option<ComputeMode>,
}

impl FaultSite {
    /// A site firing once at relative call `call`.
    pub fn once(call: u64, kind: FaultKind) -> FaultSite {
        FaultSite { trigger: Trigger::Once(call), kind, routine: None, mode: None }
    }

    /// A site firing every `period` calls starting at relative call 0.
    pub fn every(period: u64, kind: FaultKind) -> FaultSite {
        FaultSite { trigger: Trigger::Every { period, offset: 0 }, kind, routine: None, mode: None }
    }

    /// Restricts the site to one routine.
    pub fn on_routine(mut self, routine: &'static str) -> FaultSite {
        self.routine = Some(routine);
        self
    }

    /// Restricts the site to calls that execute in `mode`.
    pub fn in_mode(mut self, mode: ComputeMode) -> FaultSite {
        self.mode = Some(mode);
        self
    }
}

/// A seeded, deterministic set of fault sites.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// An empty plan; the seed picks which output element each firing
    /// corrupts.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, sites: Vec::new() }
    }

    /// Adds a site (builder style).
    pub fn with_site(mut self, site: FaultSite) -> FaultPlan {
        self.sites.push(site);
        self
    }

    /// The configured sites.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Parses a plan of one-shot raw bit flips:
    ///
    /// ```text
    /// <seed>:<call>@<bit>[,<call>@<bit>...]      e.g.  "7:12@62,40@30"
    /// ```
    ///
    /// Each item becomes an unscoped [`Trigger::Once`] /
    /// [`FaultKind::FlipBit`] site. The `<seed>:` prefix is optional
    /// (defaults to 0); an empty list is allowed (`"7:"` never fires).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed, items) = match spec.split_once(':') {
            Some((s, rest)) => {
                let seed = s
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad bit-flip seed {s:?} in {spec:?}"))?;
                (seed, rest)
            }
            None => (0, spec),
        };
        let mut plan = FaultPlan::new(seed);
        for item in items.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let (call, bit) = item
                .split_once('@')
                .ok_or_else(|| format!("bad bit-flip item {item:?} (want <call>@<bit>)"))?;
            let call = call
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad call index in bit-flip item {item:?}"))?;
            let bit = bit
                .trim()
                .parse::<u32>()
                .map_err(|_| format!("bad bit index in bit-flip item {item:?}"))?;
            plan = plan.with_site(FaultSite::once(call, FaultKind::FlipBit(bit)));
        }
        Ok(plan)
    }

    /// The spec string [`FaultPlan::parse`] round-trips, or `None` when a
    /// site is outside the grammar (scoped, periodic, or not a raw flip).
    pub fn to_spec(&self) -> Option<String> {
        let items = self
            .sites
            .iter()
            .map(|s| match (s.trigger, s.kind, s.routine, s.mode) {
                (Trigger::Once(call), FaultKind::FlipBit(bit), None, None) => {
                    Some(format!("{call}@{bit}"))
                }
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(format!("{}:{}", self.seed, items.join(",")))
    }
}

/// Installs `plan` on the calling thread, replacing any previous one.
/// Trigger indices count the thread's GEMM calls from this moment.
pub fn install_fault_plan(plan: FaultPlan) {
    context::with(|cx| cx.fault = Some((plan, cx.gemm_calls)));
}

/// Removes the installed plan (normal, fault-free operation).
pub fn clear_fault_plan() {
    context::with(|cx| cx.fault = None);
}

/// Total GEMM calls made by this thread.
pub fn gemm_call_count() -> u64 {
    context::with(|cx| cx.gemm_calls)
}

/// Total faults injected on this thread.
pub fn injected_fault_count() -> u64 {
    context::with(|cx| cx.injected)
}

/// Element types a fault can corrupt.
pub trait FaultTarget: Copy {
    /// The value after applying `kind`; `entropy` breaks ties (e.g.
    /// which complex component to hit).
    fn corrupted(self, kind: FaultKind, entropy: u64) -> Self;
}

impl FaultTarget for f32 {
    fn corrupted(self, kind: FaultKind, _entropy: u64) -> f32 {
        match kind {
            FaultKind::FlipMantissaBit(bit) => f32::from_bits(self.to_bits() ^ (1 << (bit % 23))),
            FaultKind::FlipBit(bit) => f32::from_bits(self.to_bits() ^ (1 << (bit % 32))),
            FaultKind::Nan => f32::NAN,
            FaultKind::Inf => f32::INFINITY,
        }
    }
}

impl FaultTarget for f64 {
    fn corrupted(self, kind: FaultKind, _entropy: u64) -> f64 {
        match kind {
            FaultKind::FlipMantissaBit(bit) => {
                f64::from_bits(self.to_bits() ^ (1u64 << (bit % 52)))
            }
            FaultKind::FlipBit(bit) => f64::from_bits(self.to_bits() ^ (1u64 << (bit % 64))),
            FaultKind::Nan => f64::NAN,
            FaultKind::Inf => f64::INFINITY,
        }
    }
}

impl<T: FaultTarget> FaultTarget for Complex<T> {
    fn corrupted(mut self, kind: FaultKind, entropy: u64) -> Complex<T> {
        if entropy & 1 == 0 {
            self.re = self.re.corrupted(kind, entropy >> 1);
        } else {
            self.im = self.im.corrupted(kind, entropy >> 1);
        }
        self
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies the installed plan's matching sites to the logical m×n window
/// of `c`. `call` is the call's index from [`context::GemmTicket`]; `mode`
/// is the mode the call executed in, not the ambient one.
pub(crate) fn inject<T: FaultTarget>(
    routine: &'static str,
    mode: ComputeMode,
    call: u64,
    c: &mut [T],
    m: usize,
    n: usize,
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    context::with(|cx| {
        let Some((plan, base_call)) = &cx.fault else { return };
        let rel_call = call - base_call;
        for site in &plan.sites {
            if !site.trigger.fires(rel_call)
                || site.routine.is_some_and(|r| r != routine)
                || site.mode.is_some_and(|sm| sm != mode)
            {
                continue;
            }
            let h = mix(plan.seed ^ mix(call));
            let (i, j) = (h as usize % m, (h >> 20) as usize % n);
            c[i * ldc + j] = c[i * ldc + j].corrupted(site.kind, h >> 40);
            cx.injected += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_at_expected_indices() {
        assert!(Trigger::Once(3).fires(3));
        assert!(!Trigger::Once(3).fires(4));
        let every = Trigger::Every { period: 5, offset: 2 };
        for call in 0..20 {
            assert_eq!(every.fires(call), call >= 2 && (call - 2) % 5 == 0, "call {call}");
        }
        assert!(!Trigger::Every { period: 0, offset: 0 }.fires(0));
    }

    #[test]
    fn corruption_kinds() {
        let x = 1.5f32;
        assert!(x.corrupted(FaultKind::Nan, 0).is_nan());
        assert_eq!(x.corrupted(FaultKind::Inf, 0), f32::INFINITY);
        let flipped = x.corrupted(FaultKind::FlipMantissaBit(22), 0);
        assert!(flipped != x && flipped.is_finite());
        // Flipping the same bit twice restores the value.
        assert_eq!(flipped.corrupted(FaultKind::FlipMantissaBit(22), 0), x);
        // Complex corruption hits exactly one component.
        let z = Complex { re: 1.0f32, im: 2.0f32 };
        let zc = z.corrupted(FaultKind::Nan, 0);
        assert!(zc.re.is_nan() ^ zc.im.is_nan());
        let zc1 = z.corrupted(FaultKind::Nan, 1);
        assert!(zc1.im.is_nan() && !zc1.re.is_nan());
    }

    #[test]
    fn flip_bit_reaches_exponent_and_sign() {
        let x = 1.5f64;
        // Bit 61 is a high stored exponent bit: clearing it rescales the
        // value by 2^-512 — enormous corruption, yet finite, so invisible
        // to NaN/Inf checks.
        let flipped = x.corrupted(FaultKind::FlipBit(61), 0);
        assert!(flipped.is_finite() && flipped != x);
        assert!(flipped.abs() < 1e-100, "1.5 with exponent bit 61 cleared: {flipped}");
        assert_eq!(flipped.corrupted(FaultKind::FlipBit(61), 0), x);
        // Bit 63 is the sign.
        assert_eq!(x.corrupted(FaultKind::FlipBit(63), 0), -1.5);
        let y = 2.0f32;
        assert_eq!(y.corrupted(FaultKind::FlipBit(31), 0), -2.0);
    }

    #[test]
    fn bit_flip_spec_roundtrips() {
        let flip = |call, bit| FaultSite::once(call, FaultKind::FlipBit(bit));
        let plan = FaultPlan::new(7).with_site(flip(12, 62)).with_site(flip(40, 30));
        assert_eq!(plan.to_spec().as_deref(), Some("7:12@62,40@30"));
        assert_eq!(FaultPlan::parse("7:12@62,40@30").unwrap(), plan);
        // Seedless form, whitespace tolerance, empty list.
        assert_eq!(FaultPlan::parse("3@5").unwrap(), FaultPlan::new(0).with_site(flip(3, 5)));
        assert_eq!(
            FaultPlan::parse(" 9 : 1@2 , 3@4 ").unwrap_or_else(|e| panic!("{e}")),
            FaultPlan::new(9).with_site(flip(1, 2)).with_site(flip(3, 4))
        );
        assert_eq!(FaultPlan::parse("7:").unwrap(), FaultPlan::new(7));
        assert!(FaultPlan::parse("x:1@2").is_err());
        assert!(FaultPlan::parse("1@").is_err());
        assert!(FaultPlan::parse("12").is_err());
        // Sites the grammar cannot express have no spec.
        assert_eq!(FaultPlan::new(1).with_site(flip(0, 1).on_routine("CGEMM")).to_spec(), None);
        assert_eq!(FaultPlan::new(1).with_site(FaultSite::once(0, FaultKind::Nan)).to_spec(), None);
    }

    #[test]
    fn site_builders_scope_correctly() {
        let site = FaultSite::once(7, FaultKind::Nan)
            .on_routine("CGEMM")
            .in_mode(ComputeMode::FloatToBf16);
        assert_eq!(site.trigger, Trigger::Once(7));
        assert_eq!(site.routine, Some("CGEMM"));
        assert_eq!(site.mode, Some(ComputeMode::FloatToBf16));
        let plan = FaultPlan::new(42).with_site(site).with_site(FaultSite::every(3, FaultKind::Inf));
        assert_eq!(plan.sites().len(), 2);
    }
}
