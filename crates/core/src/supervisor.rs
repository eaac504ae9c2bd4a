//! The run supervisor: health monitoring, rollback and automatic
//! precision escalation.
//!
//! The paper's methodology assumes each compute mode either completes
//! the deck or is discarded by hand when it diverges (§IV). Production
//! runs need the middle path: detect divergence *as it happens*, roll
//! the burst back, and re-run it under the next-stronger mode on the
//! escalation ladder `BF16 → BF16x2 → BF16x3 → TF32 → FP32` — paying
//! full precision only where the physics demands it, and recording an
//! audit trail of every escalation so the accuracy analysis knows which
//! bursts ran in which mode.
//!
//! Rollback granularity is one MD burst: before each burst the
//! supervisor snapshots the electronic and ionic state in memory (and
//! optionally persists checkpoints to disk, sharing the
//! [`crate::runner::run_with_checkpoints`] format and resume scan). A
//! restored burst re-runs bit-for-bit identically under the same mode —
//! the same guarantee the checkpoint tests establish — so escalation
//! changes results only through the precision change itself.

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::error::RunError;
use crate::health::{HealthConfig, HealthMonitor, HealthViolation};
use crate::runner::{
    excitation_fraction, fresh_start, run_burst, scan_and_load, ResultMark, RunResult,
};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::policy::PrecisionPolicy;
use dcmesh_lfd::propagator::QdScratch;
use dcmesh_qxmd::MdIntegrator;
use mkl_lite::{with_compute_mode, ComputeMode};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Escalations performed across all supervised runs in this process.
pub fn escalation_counter() -> &'static Arc<dcmesh_telemetry::metrics::Counter> {
    static C: OnceLock<Arc<dcmesh_telemetry::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        dcmesh_telemetry::metrics::counter(
            "supervisor_escalations_total",
            "precision escalations performed by the supervisor",
        )
    })
}

/// Burst rollbacks performed across all supervised runs in this process.
pub fn rollback_counter() -> &'static Arc<dcmesh_telemetry::metrics::Counter> {
    static C: OnceLock<Arc<dcmesh_telemetry::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        dcmesh_telemetry::metrics::counter(
            "supervisor_rollbacks_total",
            "burst rollbacks performed by the supervisor",
        )
    })
}

/// De-escalations performed across all supervised runs in this process.
pub fn deescalation_counter() -> &'static Arc<dcmesh_telemetry::metrics::Counter> {
    static C: OnceLock<Arc<dcmesh_telemetry::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        dcmesh_telemetry::metrics::counter(
            "supervisor_deescalations_total",
            "precision de-escalations performed by the supervisor",
        )
    })
}

/// Silent-data-corruption recoveries (same-mode rollbacks) performed
/// across all supervised runs in this process.
pub fn sdc_recovery_counter() -> &'static Arc<dcmesh_telemetry::metrics::Counter> {
    static C: OnceLock<Arc<dcmesh_telemetry::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        dcmesh_telemetry::metrics::counter(
            "supervisor_sdc_recoveries_total",
            "same-mode rollbacks after detected silent data corruption",
        )
    })
}

/// Burst replays performed by the `verify_bursts` sampler.
pub fn burst_verification_counter() -> &'static Arc<dcmesh_telemetry::metrics::Counter> {
    static C: OnceLock<Arc<dcmesh_telemetry::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        dcmesh_telemetry::metrics::counter(
            "supervisor_burst_verifications_total",
            "bursts replayed from snapshot and bit-compared by verify_bursts",
        )
    })
}

/// Per-burst SCF orthonormality defect, observed in picounits (defect ×
/// 1e12) so the log₂ buckets resolve the 1e-12…1e-3 range the study
/// spans. The de-escalation policy reads its own recent window; the
/// histogram is the cross-run view a Prometheus scrape sees.
pub fn scf_defect_histogram() -> &'static Arc<dcmesh_telemetry::metrics::Histogram> {
    static H: OnceLock<Arc<dcmesh_telemetry::metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        dcmesh_telemetry::metrics::histogram(
            "supervisor_scf_defect_picounits",
            "per-burst SCF orthonormality defect (defect * 1e12)",
        )
    })
}

/// Supervisor policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Bounds the health monitor enforces.
    pub health: HealthConfig,
    /// Modes available for escalation, weakest to strongest. On
    /// divergence the supervisor moves to the first entry strictly
    /// stronger (by [`ComputeMode::escalation_rank`]) than the mode
    /// that failed. Defaults to the full ladder ending at FP32.
    pub ladder: Vec<ComputeMode>,
    /// Re-run budget for a single burst; exceeding it fails the run
    /// with [`RunError::EscalationExhausted`].
    pub max_retries_per_burst: u32,
    /// When set, checkpoints are written here at every MD boundary and
    /// the run resumes from the newest loadable checkpoint, exactly as
    /// [`crate::runner::run_with_checkpoints`] does.
    pub checkpoint_dir: Option<PathBuf>,
    /// Metrics-driven de-escalation: after `Some(n)` consecutive clean
    /// bursts at an escalated mode — with the per-burst SCF-defect trend
    /// over those bursts not increasing — the supervisor steps back
    /// *down* one ladder rung (never below the run's start mode). Any
    /// rollback resets the streak, so a mode that still misbehaves is
    /// re-escalated by the ordinary machinery. `None` (the default)
    /// keeps escalation sticky, the conservative paper-faithful policy.
    pub deescalate_after: Option<u32>,
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

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            health: HealthConfig::default(),
            ladder: ComputeMode::ESCALATION_LADDER.to_vec(),
            max_retries_per_burst: ComputeMode::ESCALATION_LADDER.len() as u32,
            checkpoint_dir: None,
            deescalate_after: None,
            abft_check_period: None,
            verify_bursts: None,
        }
    }
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
    /// What tripped the monitor.
    pub violation: HealthViolation,
    /// Retry attempt number for the burst (1-based).
    pub attempt: u32,
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

/// One entry of the de-escalation audit trail.
#[derive(Clone, Debug)]
pub struct DeescalationEvent {
    /// QD step count at the boundary where the step-down happened.
    pub step: u64,
    /// Escalated mode being stepped down from.
    pub from: ComputeMode,
    /// Weaker mode the next bursts run under.
    pub to: ComputeMode,
    /// Clean-burst streak that justified the step-down.
    pub clean_bursts: u32,
}

impl fmt::Display for DeescalationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} -> {} after {} clean burst(s)",
            self.step,
            self.from.label(),
            self.to.label(),
            self.clean_bursts
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
    /// Every de-escalation that occurred, in order (empty unless
    /// [`SupervisorConfig::deescalate_after`] is set).
    pub deescalations: Vec<DeescalationEvent>,
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
    /// Eigensolver blocks whose Löwdin orthonormalisation collapsed and
    /// fell back to modified Gram–Schmidt during this run (counter delta
    /// of `orth_lowdin_fallbacks_total`). Nonzero values mean the
    /// orthonormality the SCF refresh reports was maintained by the
    /// fallback path — worth knowing when reading the drift columns.
    pub lowdin_fallbacks: u64,
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

/// Runs the deck under `start_mode` with health monitoring, burst-level
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
    cfg.validate()?;
    crate::runner::init_rank_from_env()?;
    mkl_lite::try_compute_mode().map_err(RunError::InvalidComputeMode)?;
    if let Some(hash) = cfg.deck_hash() {
        dcmesh_telemetry::ledger::set_deck_hash(&hash);
    }
    let params = cfg.lfd_params();
    params.validate();

    // SDC defense: sampled GEMM checksums for the duration of the run.
    // The guard clears this thread's installation on every exit
    // path so an error return cannot leak checks into later runs.
    struct AbftGuard(bool);
    impl Drop for AbftGuard {
        fn drop(&mut self) {
            if self.0 {
                mkl_lite::clear_abft();
            }
        }
    }
    let _abft_guard = match sup.abft_check_period {
        Some(period) => {
            mkl_lite::install_abft(period.max(1));
            AbftGuard(true)
        }
        None => AbftGuard(false),
    };
    let lowdin_base = dcmesh_lfd::eigensolve::lowdin_fallback_counter().get();

    if let Some(dir) = &sup.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }
    let resumed = match &sup.checkpoint_dir {
        Some(dir) => scan_and_load::<T>(dir, &params)?,
        None => None,
    };
    let resumed_from_step = resumed.as_ref().map(|(_, _, steps, _)| *steps as u64);
    let (mut system, mut state, mut steps_done, mut last_nexc) = match resumed {
        Some(r) => r,
        None => {
            let (system, state, steps) = fresh_start::<T>(cfg, &params)?;
            (system, state, steps, 0.0)
        }
    };

    let md_dt = cfg.qd_steps_per_md as f64 * cfg.dt;
    // Seed the integrator's force field with the (checkpointed)
    // excitation so a resumed run is bit-exact; zero on a fresh start.
    let mut md = MdIntegrator::resume(
        &system,
        md_dt,
        cfg.ehrenfest_softening,
        excitation_fraction(last_nexc, &params),
    );
    let mut scratch = QdScratch::new(&params);

    let policy = PrecisionPolicy::Ambient;
    let mut current = start_mode;
    let mut result =
        RunResult::new(&cfg.label, current, cfg.total_qd_steps / cfg.record_every + 1);
    let mut monitor = HealthMonitor::new(sup.health.clone(), params.n_electrons());
    let mut escalations: Vec<EscalationEvent> = Vec::new();
    let mut deescalations: Vec<DeescalationEvent> = Vec::new();
    // Per-burst SCF defects observed since the last rollback or mode
    // change — the window the de-escalation trend check reads.
    let mut clean_defects: Vec<f64> = Vec::new();
    let mut sdc_recoveries = 0u64;

    while steps_done < cfg.total_qd_steps {
        let burst_index = (steps_done / cfg.qd_steps_per_md.max(1)) as u64;
        observer.burst_starting(burst_index, steps_done as u64);

        // Burst-boundary snapshot: everything a rollback must restore.
        let snap_state = state.clone();
        let snap_system = system.clone();
        let snap_steps = steps_done;
        let snap_nexc = last_nexc;
        let mark = ResultMark::take(&result);

        let mut attempt = 0u32;
        loop {
            let burst_out = with_compute_mode(current, || {
                run_burst(
                    cfg,
                    &params,
                    &policy,
                    &mut system,
                    &mut state,
                    &mut md,
                    &mut scratch,
                    &mut steps_done,
                    &mut last_nexc,
                    &mut result,
                    Some(&mut monitor),
                )
            });
            // SDC defense, part 2: replay sampled clean bursts from the
            // snapshot and demand identical bits.
            let burst_out = burst_out.and_then(|()| {
                let sampled = sup
                    .verify_bursts
                    .is_some_and(|every| every > 0 && burst_index.is_multiple_of(every));
                if !sampled {
                    return Ok(());
                }
                verify_burst_replay(
                    cfg,
                    &params,
                    &policy,
                    current,
                    md_dt,
                    &snap_state,
                    &snap_system,
                    snap_steps,
                    snap_nexc,
                    &state,
                    &system,
                    &mut scratch,
                )
            });
            match burst_out {
                Ok(()) => break,
                Err(RunError::Diverged { step, mode, violation }) => {
                    // Roll the burst back to the snapshot. Rebuilding
                    // the integrator from the restored system — seeded
                    // with the snapshot excitation — is the checkpoint
                    // resume path, which is bit-exact.
                    state = snap_state.clone();
                    system = snap_system.clone();
                    steps_done = snap_steps;
                    last_nexc = snap_nexc;
                    mark.restore(&mut result);
                    md = MdIntegrator::resume(
                        &system,
                        md_dt,
                        cfg.ehrenfest_softening,
                        excitation_fraction(snap_nexc, &params),
                    );
                    monitor.reset();
                    clean_defects.clear();
                    rollback_counter().inc();
                    // Feed the ledger: the violation and the rollback are
                    // attributed to the suspect callsite when the BLAS
                    // layer flagged one (ABFT violation or non-finite
                    // output), else to a supervisor row. The suspect is
                    // kept until the escalation decision below consumes
                    // it.
                    if dcmesh_telemetry::events_enabled() {
                        let mode_label = mode.name();
                        dcmesh_telemetry::ledger::record_health_violation(
                            violation.kind(),
                            mode_label,
                        );
                        dcmesh_telemetry::ledger::record_rollback(mode_label);
                    }
                    dcmesh_telemetry::instant(
                        "rollback",
                        vec![
                            dcmesh_telemetry::Attr {
                                key: "step",
                                value: dcmesh_telemetry::AttrValue::U64(step),
                            },
                            dcmesh_telemetry::Attr {
                                key: "mode",
                                value: dcmesh_telemetry::AttrValue::Str(
                                    mode.name(),
                                ),
                            },
                        ],
                    );

                    attempt += 1;
                    // Silent corruption is transient, not a precision
                    // problem: retry the burst at the *same* mode. The
                    // GEMM call counter is never reset, so a one-shot
                    // injected flip does not re-fire on the retry — the
                    // recovered burst is bit-identical to a clean run.
                    if matches!(violation, HealthViolation::SilentCorruption { .. }) {
                        sdc_recoveries += 1;
                        sdc_recovery_counter().inc();
                        dcmesh_telemetry::instant(
                            "sdc_rollback",
                            vec![
                                dcmesh_telemetry::Attr {
                                    key: "step",
                                    value: dcmesh_telemetry::AttrValue::U64(step),
                                },
                                dcmesh_telemetry::Attr {
                                    key: "detail",
                                    value: dcmesh_telemetry::AttrValue::Text(
                                        violation.to_string(),
                                    ),
                                },
                                dcmesh_telemetry::Attr {
                                    key: "attempt",
                                    value: dcmesh_telemetry::AttrValue::U64(attempt as u64),
                                },
                            ],
                        );
                        if attempt > sup.max_retries_per_burst {
                            return Err(RunError::EscalationExhausted {
                                step,
                                mode,
                                violation,
                                attempts: attempt,
                            });
                        }
                        continue;
                    }
                    let next = sup
                        .ladder
                        .iter()
                        .copied()
                        .find(|m| m.escalation_rank() > current.escalation_rank());
                    let next = match next {
                        Some(n) if attempt <= sup.max_retries_per_burst => n,
                        _ => {
                            return Err(RunError::EscalationExhausted {
                                step,
                                mode,
                                violation,
                                attempts: attempt,
                            })
                        }
                    };
                    escalation_counter().inc();
                    if dcmesh_telemetry::events_enabled() {
                        dcmesh_telemetry::ledger::record_escalation(current.name());
                    }
                    dcmesh_telemetry::instant(
                        "escalation",
                        vec![
                            dcmesh_telemetry::Attr {
                                key: "step",
                                value: dcmesh_telemetry::AttrValue::U64(step),
                            },
                            dcmesh_telemetry::Attr {
                                key: "from",
                                value: dcmesh_telemetry::AttrValue::Str(
                                    current.name(),
                                ),
                            },
                            dcmesh_telemetry::Attr {
                                key: "to",
                                value: dcmesh_telemetry::AttrValue::Str(
                                    next.name(),
                                ),
                            },
                            dcmesh_telemetry::Attr {
                                key: "attempt",
                                value: dcmesh_telemetry::AttrValue::U64(attempt as u64),
                            },
                        ],
                    );
                    escalations.push(EscalationEvent {
                        step,
                        from: current,
                        to: next,
                        violation,
                        attempt,
                    });
                    current = next;
                }
                Err(other) => return Err(other),
            }
        }

        // The burst completed cleanly: feed the SCF-defect histogram and
        // the de-escalation policy.
        let defect = result.scf_drift.last().copied().unwrap_or(0.0);
        scf_defect_histogram().observe((defect.max(0.0) * 1e12) as u64);
        if dcmesh_telemetry::events_enabled() {
            dcmesh_telemetry::ledger::record_scf_defect(
                current.name(),
                defect,
            );
        }
        if let Some(next) = consider_deescalation(sup, start_mode, current, defect, &mut clean_defects)
        {
            deescalation_counter().inc();
            let n = sup.deescalate_after.unwrap_or(0);
            dcmesh_telemetry::instant(
                "deescalation",
                vec![
                    dcmesh_telemetry::Attr {
                        key: "step",
                        value: dcmesh_telemetry::AttrValue::U64(steps_done as u64),
                    },
                    dcmesh_telemetry::Attr {
                        key: "from",
                        value: dcmesh_telemetry::AttrValue::Str(
                            current.name(),
                        ),
                    },
                    dcmesh_telemetry::Attr {
                        key: "to",
                        value: dcmesh_telemetry::AttrValue::Str(
                            next.name(),
                        ),
                    },
                    dcmesh_telemetry::Attr {
                        key: "clean_bursts",
                        value: dcmesh_telemetry::AttrValue::U64(n as u64),
                    },
                ],
            );
            deescalations.push(DeescalationEvent {
                step: steps_done as u64,
                from: current,
                to: next,
                clean_bursts: n,
            });
            current = next;
            clean_defects.clear();
        }

        if let Some(dir) = &sup.checkpoint_dir {
            let ck = Checkpoint {
                state: state.clone(),
                system: system.clone(),
                steps_done: steps_done as u64,
                nexc: last_nexc,
            };
            ck.save(&dir.join(format!("dcmesh-{steps_done}.ck")))?;
            dcmesh_telemetry::instant(
                "checkpoint",
                vec![dcmesh_telemetry::Attr {
                    key: "step",
                    value: dcmesh_telemetry::AttrValue::U64(steps_done as u64),
                }],
            );
        }
        observer.burst_committed(burst_index, steps_done as u64);
    }

    Ok(SupervisedRun {
        result,
        escalations,
        deescalations,
        final_mode: current,
        resumed_from_step,
        sdc_recoveries,
        lowdin_fallbacks: dcmesh_lfd::eigensolve::lowdin_fallback_counter()
            .get()
            .saturating_sub(lowdin_base),
    })
}

/// Replays a just-completed burst from its pre-burst snapshot and
/// bit-compares the resulting electronic and ionic state against the
/// primary execution. The replay rebuilds its integrator from the
/// snapshot system — the checkpoint resume path, which is bit-exact — so
/// any difference means one of the two executions was silently
/// corrupted.
#[allow(clippy::too_many_arguments)]
fn verify_burst_replay<T: LfdScalar>(
    cfg: &RunConfig,
    params: &dcmesh_lfd::LfdParams,
    policy: &PrecisionPolicy,
    mode: ComputeMode,
    md_dt: f64,
    snap_state: &dcmesh_lfd::LfdState<T>,
    snap_system: &dcmesh_qxmd::AtomicSystem,
    snap_steps: usize,
    snap_nexc: f64,
    state: &dcmesh_lfd::LfdState<T>,
    system: &dcmesh_qxmd::AtomicSystem,
    scratch: &mut QdScratch<T>,
) -> Result<(), RunError> {
    burst_verification_counter().inc();
    let mut v_state = snap_state.clone();
    let mut v_system = snap_system.clone();
    let mut v_steps = snap_steps;
    let mut v_nexc = snap_nexc;
    let mut v_md = MdIntegrator::resume(
        &v_system,
        md_dt,
        cfg.ehrenfest_softening,
        excitation_fraction(snap_nexc, params),
    );
    let mut v_result = RunResult::new(&cfg.label, mode, 0);
    with_compute_mode(mode, || {
        run_burst(
            cfg,
            params,
            policy,
            &mut v_system,
            &mut v_state,
            &mut v_md,
            scratch,
            &mut v_steps,
            &mut v_nexc,
            &mut v_result,
            None,
        )
    })?;
    // A checksum violation during the (unmonitored) replay must not
    // linger into the next monitored step.
    let detail = if let Some(v) = mkl_lite::take_abft_violation() {
        Some(format!("burst replay tripped the GEMM checksum: {v}"))
    } else {
        replay_mismatch(state, system, &v_state, &v_system)
    };
    if let Some(detail) = detail {
        dcmesh_telemetry::instant(
            "verify_burst_mismatch",
            vec![
                dcmesh_telemetry::Attr {
                    key: "step",
                    value: dcmesh_telemetry::AttrValue::U64(v_steps as u64),
                },
                dcmesh_telemetry::Attr {
                    key: "detail",
                    value: dcmesh_telemetry::AttrValue::Text(detail.clone()),
                },
            ],
        );
        return Err(RunError::Diverged {
            step: v_steps as u64,
            mode,
            violation: HealthViolation::SilentCorruption { detail },
        });
    }
    Ok(())
}

/// Bit-compares the evolving state of the primary execution against the
/// replay: wave function, ionic positions and velocities. (Occupations,
/// reference spectrum and the local potential are derived from these.)
fn replay_mismatch<T: LfdScalar>(
    state: &dcmesh_lfd::LfdState<T>,
    system: &dcmesh_qxmd::AtomicSystem,
    v_state: &dcmesh_lfd::LfdState<T>,
    v_system: &dcmesh_qxmd::AtomicSystem,
) -> Option<String> {
    for (i, (a, b)) in state.psi.iter().zip(&v_state.psi).enumerate() {
        if a.re.to_f64().to_bits() != b.re.to_f64().to_bits()
            || a.im.to_f64().to_bits() != b.im.to_f64().to_bits()
        {
            return Some(format!(
                "burst replay produced different bits at psi[{i}]: \
                 primary ({:e}, {:e}) vs replay ({:e}, {:e})",
                a.re.to_f64(),
                a.im.to_f64(),
                b.re.to_f64(),
                b.im.to_f64()
            ));
        }
    }
    for (name, prim, rep) in [
        ("position", &system.positions, &v_system.positions),
        ("velocity", &system.velocities, &v_system.velocities),
    ] {
        for (i, (a, b)) in prim.iter().zip(rep.iter()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Some(format!(
                    "burst replay produced different bits at {name}[{i}]: \
                     primary {a:e} vs replay {b:e}"
                ));
            }
        }
    }
    None
}

/// Decides whether the supervisor should step down one ladder rung after
/// a clean burst. Pushes `defect` into the streak window and, once the
/// streak reaches [`SupervisorConfig::deescalate_after`] with a
/// non-increasing defect trend (last ≤ 1.1 × first of the window), picks
/// the strongest ladder mode strictly weaker than `current` but no
/// weaker than `start_mode`.
fn consider_deescalation(
    sup: &SupervisorConfig,
    start_mode: ComputeMode,
    current: ComputeMode,
    defect: f64,
    clean_defects: &mut Vec<f64>,
) -> Option<ComputeMode> {
    let n = sup.deescalate_after? as usize;
    if current.escalation_rank() <= start_mode.escalation_rank() {
        clean_defects.clear();
        return None;
    }
    clean_defects.push(defect);
    if clean_defects.len() < n.max(1) {
        return None;
    }
    let window = &clean_defects[clean_defects.len() - n.max(1)..];
    let first = window.first().copied().unwrap_or(0.0);
    let last = window.last().copied().unwrap_or(0.0);
    if last > first * 1.1 + f64::EPSILON {
        return None; // defect is trending up: hold the strong mode
    }
    sup.ladder
        .iter()
        .copied()
        .filter(|m| {
            m.escalation_rank() < current.escalation_rank()
                && m.escalation_rank() >= start_mode.escalation_rank()
        })
        .max_by_key(|m| m.escalation_rank())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_ends_at_fp32() {
        let sup = SupervisorConfig::default();
        assert_eq!(sup.ladder.last(), Some(&ComputeMode::Standard));
        assert!(sup.max_retries_per_burst >= sup.ladder.len() as u32 - 1);
    }

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
