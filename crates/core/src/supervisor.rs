//! The run supervisor: health checks, rollback and automatic
//! precision escalation.
//!
//! The paper's methodology assumes each compute mode either completes
//! the deck or is discarded by hand when it diverges (§IV). Production
//! runs need the middle path: detect divergence *as it happens*, roll
//! the burst back, and re-run it under the next-stronger mode on the
//! escalation ladder `BF16 → BF16x2 → BF16x3 → TF32 → FP32` — paying
//! full precision only where the physics demands it, and recording an
//! audit trail of every escalation so the accuracy analysis knows which
//! bursts ran in which mode. Escalation is sticky: the ladder is climbed,
//! never descended. A rollback restores the pre-burst state; the FP64
//! SCF refresh at every MD boundary stays the paper's only error reset.
//!
//! Rollback granularity is one MD burst. The supervisor drives the same
//! `Run` the plain runner does: before each burst it copies the run's
//! [`Checkpoint`] — the restart point — into its snapshot (the same
//! storage every burst), a rollback copies it back (`Run::rollback`),
//! neither allocating, a `verify_bursts` replay is a
//! second `Run` resumed from it, and with a checkpoint directory the
//! same value is what `Run::commit` writes and `Run::start` resumes
//! from. A restored burst re-runs bit-for-bit identically under the same
//! mode — the guarantee the checkpoint tests establish — so escalation
//! changes results only through the precision change itself.

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::error::RunError;
use crate::health::HealthViolation;
use crate::runner::{ResultMark, Run, RunResult};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::policy::PrecisionPolicy;
use dcmesh_telemetry::{instant, ledger, Attr, AttrValue};
use mkl_lite::{with_compute_mode, ComputeMode};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A count of supervisor actions across all supervised runs in this
/// process. A run's own record of them is its `SupervisedRun` and its
/// ledger rows.
#[derive(Debug)]
pub struct ProcessCount(AtomicU64);

impl ProcessCount {
    fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static ESCALATIONS: ProcessCount = ProcessCount(AtomicU64::new(0));
static ROLLBACKS: ProcessCount = ProcessCount(AtomicU64::new(0));

/// Escalations performed across all supervised runs in this process.
pub fn escalation_counter() -> &'static ProcessCount {
    &ESCALATIONS
}

/// Burst rollbacks performed across all supervised runs in this process.
pub fn rollback_counter() -> &'static ProcessCount {
    &ROLLBACKS
}

/// Re-run budget for a single burst — one attempt per rung of
/// [`ComputeMode::ESCALATION_LADDER`]. Escalation runs out of ladder
/// first; the budget is what bounds same-mode silent-corruption retries.
/// Exceeding it fails the run with [`RunError::EscalationExhausted`].
const MAX_RETRIES_PER_BURST: u32 = ComputeMode::ESCALATION_LADDER.len() as u32;

/// Supervisor settings; by default everything optional is off.
/// Divergence escalates along [`ComputeMode::next_stronger`].
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// When set, a [`Checkpoint`] is written to `dir/dcmesh-<step>.ck` at
    /// every MD boundary and the run **resumes** from the newest one that
    /// loads and matches the deck, continuing bit-for-bit identically to
    /// an uninterrupted run — so the paper's 2-day-per-mode accuracy runs
    /// survive job-time limits without corrupting the deviation analysis.
    /// A checkpoint that fails to load (truncated, corrupted, wrong deck)
    /// is quarantined to `<name>.ck.bad` and the next-newest is tried,
    /// falling back to a fresh start when none survive. A resumed run's
    /// record covers only the steps executed in this invocation.
    pub checkpoint_dir: Option<PathBuf>,
    /// Silent-data-corruption defense, part 1: `Some(n)` installs ABFT
    /// row-checksum verification on every `n`-th GEMM call for the
    /// duration of the run (an O(n²) check of O(n³) work, see
    /// [`mkl_lite::abft`]). A checksum violation surfaces as
    /// [`HealthViolation::SilentCorruption`]: the supervisor rolls the
    /// burst back and retries at the **same** mode — corruption is
    /// transient, not a precision problem. `None` (default) disables.
    pub abft_check_period: Option<u64>,
    /// Silent-data-corruption defense, part 2: `Some(n)` replays every
    /// `n`-th clean burst from its pre-burst snapshot and bit-compares
    /// the resulting state. A mismatch means one of the two executions
    /// was corrupted (this catches flips *below* the ABFT rounding
    /// bound); it is handled exactly like a checksum violation. `None`
    /// (default) disables.
    pub verify_bursts: Option<u64>,
}

/// One entry of the escalation audit trail.
#[derive(Clone, Debug)]
pub struct EscalationEvent {
    /// QD step at which the violation was detected.
    pub step: u64,
    /// Mode that diverged.
    pub from: ComputeMode,
    /// Mode the burst was re-run under.
    pub to: ComputeMode,
    /// What tripped the health check.
    pub violation: HealthViolation,
    /// Retry attempt number for the burst (1-based).
    pub attempt: u32,
}

impl EscalationEvent {
    /// Counter, ledger row and `escalation` instant of this entry.
    fn record(&self) {
        escalation_counter().inc();
        if dcmesh_telemetry::events_enabled() {
            ledger::record_escalation(self.from.name());
        }
        instant(
            "escalation",
            vec![
                Attr { key: "step", value: AttrValue::U64(self.step) },
                Attr { key: "from", value: AttrValue::Str(self.from.name()) },
                Attr { key: "to", value: AttrValue::Str(self.to.name()) },
                Attr { key: "attempt", value: AttrValue::U64(self.attempt as u64) },
            ],
        );
    }
}

impl fmt::Display for EscalationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} -> {} (attempt {}): {}",
            self.step,
            self.from.label(),
            self.to.label(),
            self.attempt,
            self.violation
        )
    }
}

/// A completed supervised run.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    /// The run record (same shape as an unsupervised run's).
    pub result: RunResult,
    /// Every escalation that occurred, in order.
    pub escalations: Vec<EscalationEvent>,
    /// The mode the run finished in — `start_mode` if it never
    /// escalated.
    pub final_mode: ComputeMode,
    /// The QD-step count of the checkpoint this invocation resumed from,
    /// or `None` for a fresh start. Shard workers report this so a
    /// recovered rank can prove it replayed from the shared checkpoint.
    pub resumed_from_step: Option<u64>,
    /// Same-mode rollbacks after detected silent data corruption (ABFT
    /// checksum violations and `verify_bursts` replay mismatches).
    pub sdc_recoveries: u64,
}

/// Hooks a caller can attach to the supervised burst loop. The shard
/// worker uses this to stamp its heartbeat with run progress and to fire
/// deterministic [`crate::shard::RankKillPlan`] kill points; tests can
/// use it to observe the loop without patching the supervisor.
///
/// Both hooks default to no-ops, and `()` is the canonical do-nothing
/// observer.
pub trait BurstObserver {
    /// Called once per burst, just before its pre-burst snapshot is
    /// taken (so the burst about to run is *not yet* checkpointed —
    /// dying here leaves it in-flight). `burst_index` counts MD bursts
    /// from the start of the deck; a resumed run starts mid-sequence.
    fn burst_starting(&mut self, _burst_index: u64, _steps_done: u64) {}
    /// Called after a burst completed cleanly and — when a checkpoint
    /// directory is configured — its checkpoint reached disk.
    fn burst_committed(&mut self, _burst_index: u64, _steps_done: u64) {}
}

impl BurstObserver for () {}

/// Runs the deck under `start_mode` with health checks, burst-level
/// rollback and automatic precision escalation. Escalation is sticky:
/// once a burst needed a stronger mode, the remaining bursts keep it —
/// the conservative choice for a trajectory that has entered a regime
/// the weak mode cannot represent.
pub fn run_supervised<T: LfdScalar>(
    cfg: &RunConfig,
    start_mode: ComputeMode,
    sup: &SupervisorConfig,
) -> Result<SupervisedRun, RunError> {
    run_supervised_observed::<T>(cfg, start_mode, sup, &mut ())
}

/// [`run_supervised`] with a [`BurstObserver`] attached to the burst
/// loop — the entry point shard workers use for heartbeat progress
/// stamping and deterministic rank-kill injection.
pub fn run_supervised_observed<T: LfdScalar>(
    cfg: &RunConfig,
    start_mode: ComputeMode,
    sup: &SupervisorConfig,
    observer: &mut dyn BurstObserver,
) -> Result<SupervisedRun, RunError> {
    // SDC defense: sampled GEMM checksums for the duration of the run.
    // The guard clears this thread's installation on every exit
    // path so an error return cannot leak checks into later runs.
    struct AbftGuard;
    impl Drop for AbftGuard {
        fn drop(&mut self) {
            mkl_lite::clear_abft();
        }
    }
    let _abft_guard = sup.abft_check_period.map(|period| {
        mkl_lite::install_abft(period.max(1));
        AbftGuard
    });
    let policy = PrecisionPolicy::Ambient;
    let mut run = Run::<T>::start(cfg, &policy, Some(start_mode), sup.checkpoint_dir.as_deref())?;
    if let Some(hash) = cfg.deck_hash() {
        ledger::set_deck_hash(&hash);
    }

    let mut current = start_mode;
    let mut escalations: Vec<EscalationEvent> = Vec::new();
    let mut sdc_recoveries = 0u64;
    // Burst-boundary snapshot: everything a rollback must restore. The
    // first burst clones the restart point; every later one copies into
    // that storage.
    let mut held: Option<Checkpoint<T>> = None;

    while !run.done() {
        let burst_index = run.burst_index();
        observer.burst_starting(burst_index, run.ck.steps_done);

        match &mut held {
            Some(snapshot) => snapshot.clone_from(&run.ck),
            None => held = Some(run.ck.clone()),
        }
        let snapshot = held.as_ref().expect("taken above");
        let mark = ResultMark::take(&run.result);
        // SDC defense, part 2: replay sampled clean bursts from the
        // snapshot and demand identical bits.
        let verify =
            sup.verify_bursts.is_some_and(|every| every > 0 && burst_index.is_multiple_of(every));

        let mut attempt = 0u32;
        loop {
            let burst_out = with_compute_mode(current, || {
                run.burst(true)?;
                if verify {
                    verify_burst_replay(&run, snapshot)?;
                }
                Ok(())
            });
            let (step, mode, violation) = match burst_out {
                Ok(()) => break,
                Err(RunError::Diverged { step, mode, violation }) => (step, mode, violation),
                Err(other) => return Err(other),
            };
            run.rollback(snapshot, &mark);
            record_rollback(step, mode, &violation);

            attempt += 1;
            // Silent corruption is transient, not a precision problem:
            // retry the burst at the *same* mode. The GEMM call counter is
            // never reset, so a one-shot injected flip does not re-fire on
            // the retry — the recovered burst is bit-identical to a clean
            // run.
            let transient = matches!(violation, HealthViolation::SilentCorruption { .. });
            let next = if transient {
                sdc_recoveries += 1;
                record_sdc_rollback(step, &violation, attempt);
                Some(current)
            } else {
                current.next_stronger()
            };
            let next = match next {
                Some(n) if attempt <= MAX_RETRIES_PER_BURST => n,
                _ => {
                    return Err(RunError::EscalationExhausted {
                        step,
                        mode,
                        violation,
                        attempts: attempt,
                    })
                }
            };
            if !transient {
                let event = EscalationEvent { step, from: current, to: next, violation, attempt };
                event.record();
                escalations.push(event);
                current = next;
            }
        }

        // The burst completed cleanly: feed the ledger's SCF-defect row.
        if dcmesh_telemetry::events_enabled() {
            let defect = run.result.scf_drift.last().copied().unwrap_or(0.0);
            ledger::record_scf_defect(current.name(), defect);
        }

        if let Some(dir) = &sup.checkpoint_dir {
            run.commit(dir)?;
        }
        observer.burst_committed(burst_index, run.ck.steps_done);
    }

    Ok(SupervisedRun {
        resumed_from_step: run.resumed_from_step,
        result: run.result,
        escalations,
        final_mode: current,
        sdc_recoveries,
    })
}

/// Counter, ledger rows and `rollback` instant of one rolled-back burst,
/// from the fields of the [`RunError::Diverged`] that caused it. The
/// ledger attributes the violation and the rollback to the suspect
/// callsite when the BLAS layer flagged one (ABFT violation or non-finite
/// output), else to a supervisor row; the suspect is kept until the
/// escalation that follows consumes it.
fn record_rollback(step: u64, mode: ComputeMode, violation: &HealthViolation) {
    rollback_counter().inc();
    if dcmesh_telemetry::events_enabled() {
        ledger::record_health_violation(violation.kind(), mode.name());
        ledger::record_rollback(mode.name());
    }
    instant(
        "rollback",
        vec![
            Attr { key: "step", value: AttrValue::U64(step) },
            Attr { key: "mode", value: AttrValue::Str(mode.name()) },
        ],
    );
}

/// The `sdc_rollback` instant of one same-mode retry.
fn record_sdc_rollback(step: u64, violation: &HealthViolation, attempt: u32) {
    instant(
        "sdc_rollback",
        vec![
            Attr { key: "step", value: AttrValue::U64(step) },
            Attr { key: "detail", value: AttrValue::Text(violation.to_string()) },
            Attr { key: "attempt", value: AttrValue::U64(attempt as u64) },
        ],
    );
}

/// Replays the burst `run` just completed as a second [`Run`] resumed
/// from its pre-burst `snapshot`, under the calling thread's compute
/// mode, and compares the two restart points byte for byte. Resuming
/// from a restart point is bit-exact, so any difference means one of the
/// two executions was silently corrupted.
fn verify_burst_replay<T: LfdScalar>(
    run: &Run<'_, T>,
    snapshot: &Checkpoint<T>,
) -> Result<(), RunError> {
    let mode = mkl_lite::compute_mode();
    let mut replay = Run::resume(run.cfg, run.params.clone(), run.policy, snapshot.clone(), mode);
    replay.burst(false)?;
    // A checksum violation during the (unchecked) replay must not
    // linger into the next checked step.
    let detail = if let Some(v) = mkl_lite::take_abft_violation() {
        format!("burst replay tripped the GEMM checksum: {v}")
    } else {
        let (primary, replayed) = (run.ck.encode(), replay.ck.encode());
        let (primary, replayed) = (primary.as_ref(), replayed.as_ref());
        if primary == replayed {
            return Ok(());
        }
        let at = primary.iter().zip(replayed).position(|(a, b)| a != b);
        format!(
            "burst replay produced a different restart point: first differing byte {at:?} of {}",
            primary.len()
        )
    };
    let step = replay.ck.steps_done;
    instant(
        "verify_burst_mismatch",
        vec![
            Attr { key: "step", value: AttrValue::U64(step) },
            Attr { key: "detail", value: AttrValue::Text(detail.clone()) },
        ],
    );
    Err(RunError::diverged(step, HealthViolation::SilentCorruption { detail }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_event_displays_the_transition() {
        let ev = EscalationEvent {
            step: 40,
            from: ComputeMode::FloatToBf16,
            to: ComputeMode::FloatToBf16x2,
            violation: HealthViolation::NonFinite { what: "nexc", step: 40 },
            attempt: 1,
        };
        let s = ev.to_string();
        assert!(s.contains("BF16") && s.contains("BF16x2") && s.contains("nexc"), "{s}");
    }
}
