//! The production run loop.
//!
//! Mirrors DCMESH's multiple-time-scale splitting: the wave function is
//! initialised by SCF at FP64, then each MD step runs 500 QD steps of LFD
//! (at FP32 plus the active BLAS compute mode — or all-FP64), executes the
//! FP64 SCF refresh, and advances the ions on the shadow potential. The
//! per-QD-step observables form the run record that the Figure 1/2
//! analysis consumes.
//!
//! Every entry point returns [`RunError`] instead of panicking, and the
//! shared burst body ([`run_burst`]) optionally feeds a
//! [`HealthMonitor`] so the [`crate::supervisor`] can detect divergence
//! mid-burst and roll back.

use crate::config::RunConfig;
use crate::error::RunError;
use crate::health::{HealthMonitor, HealthViolation};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::policy::PrecisionPolicy;
use dcmesh_lfd::propagator::{qd_step_with_policy, QdScratch};
use dcmesh_lfd::{LfdParams, LfdState, StepObservables};
use dcmesh_qxmd::scf::{initial_scf, scf_refresh};
use dcmesh_qxmd::shadow::{shadow_drift, sync_with_shadow, TransferLedger};
use dcmesh_qxmd::{pto_supercell, AtomicSystem, MdIntegrator};
use mkl_lite::ComputeMode;
use std::path::Path;

/// Environment variable carrying this process's rank / divide-and-conquer
/// domain id. Stamped into the telemetry stream's metadata so the
/// `profile merge` multi-rank merger can tell the streams apart.
pub const DCMESH_RANK_ENV: &str = "DCMESH_RANK";

/// Reads `DCMESH_RANK` into the telemetry sink's rank field. Called by
/// every run entry point. An absent variable leaves the default rank 0;
/// a malformed value is a structured [`RunError::InvalidRank`] so a
/// mis-launched rank fails fast instead of masquerading as rank-unset
/// and polluting another rank's merged timeline.
pub(crate) fn init_rank_from_env() -> Result<(), RunError> {
    match std::env::var(DCMESH_RANK_ENV) {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(rank) => {
                dcmesh_telemetry::sink::set_rank(rank);
                Ok(())
            }
            Err(_) => Err(RunError::InvalidRank { value: raw }),
        },
        Err(std::env::VarError::NotPresent) => Ok(()),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(RunError::InvalidRank { value: v.to_string_lossy().into_owned() })
        }
    }
}

/// Everything a finished run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Label echoed from the configuration plus the compute mode.
    pub label: String,
    /// Compute mode the BLAS calls ran in.
    pub mode: ComputeMode,
    /// Per-QD-step observables (every `record_every`-th step).
    pub records: Vec<StepObservables>,
    /// Orthonormality defect absorbed by each SCF refresh — the
    /// accumulated low-precision drift per 500-step burst.
    pub scf_drift: Vec<f64>,
    /// Shadow-matrix drift sampled at each MD boundary.
    pub shadow_drift: Vec<f64>,
    /// Ionic temperature (K) per MD step.
    pub ion_temperature: Vec<f64>,
    /// CPU↔GPU transfer ledger (shadow-dynamics accounting).
    pub transfers: TransferLedger,
}

impl RunResult {
    pub(crate) fn new(label: &str, mode: ComputeMode, capacity: usize) -> RunResult {
        RunResult {
            label: format!("{label}/{}", mode.label()),
            mode,
            records: Vec::with_capacity(capacity),
            scf_drift: Vec::new(),
            shadow_drift: Vec::new(),
            ion_temperature: Vec::new(),
            transfers: TransferLedger::default(),
        }
    }

    /// The last recorded observables, or `None` for a run that recorded
    /// nothing (e.g. a resume that found the deck already complete).
    pub fn last(&self) -> Option<&StepObservables> {
        self.records.last()
    }
}

/// Lengths of the result vectors plus the transfer ledger — enough to
/// roll a [`RunResult`] back to an MD-boundary snapshot.
pub(crate) struct ResultMark {
    records: usize,
    scf_drift: usize,
    shadow_drift: usize,
    ion_temperature: usize,
    transfers: TransferLedger,
}

impl ResultMark {
    pub(crate) fn take(result: &RunResult) -> ResultMark {
        ResultMark {
            records: result.records.len(),
            scf_drift: result.scf_drift.len(),
            shadow_drift: result.shadow_drift.len(),
            ion_temperature: result.ion_temperature.len(),
            transfers: result.transfers,
        }
    }

    pub(crate) fn restore(&self, result: &mut RunResult) {
        result.records.truncate(self.records);
        result.scf_drift.truncate(self.scf_drift);
        result.shadow_drift.truncate(self.shadow_drift);
        result.ion_temperature.truncate(self.ion_temperature);
        result.transfers = self.transfers;
    }
}

/// Surfaces a pending ABFT checksum violation as a
/// [`HealthViolation::SilentCorruption`] divergence. Polled after every
/// QD step and after the boundary SCF refresh in supervised runs, so a
/// corrupted GEMM output is caught within one step of the sampled call
/// that detected it — before the next checkpoint can absorb it.
pub(crate) fn poll_abft(step: u64) -> Result<(), RunError> {
    let Some(v) = mkl_lite::take_abft_violation() else { return Ok(()) };
    let violation = HealthViolation::SilentCorruption { detail: v.to_string() };
    dcmesh_telemetry::instant(
        "health_violation",
        vec![
            dcmesh_telemetry::Attr {
                key: "step",
                value: dcmesh_telemetry::AttrValue::U64(step),
            },
            dcmesh_telemetry::Attr {
                key: "detail",
                value: dcmesh_telemetry::AttrValue::Text(violation.to_string()),
            },
        ],
    );
    Err(RunError::Diverged { step, mode: mkl_lite::compute_mode(), violation })
}

/// The excitation fraction the ionic integrator softens its forces
/// with: the latest shadow-channel excitation count over the electron
/// count. Every site that (re)builds an [`MdIntegrator`] mid-trajectory
/// must seed it with this exact value ([`MdIntegrator::resume`]) or the
/// rebuild is not bit-exact.
pub(crate) fn excitation_fraction(last_nexc: f64, params: &LfdParams) -> f64 {
    (last_nexc / params.n_electrons()).clamp(0.0, 1.0)
}

/// One MD burst: `qd_steps_per_md` QD steps (with record thinning),
/// then the boundary work — shadow sync, FP64 SCF refresh, ionic step,
/// potential update. The operation order is exactly the historical run
/// loop's, so checkpointed and supervised runs stay bit-for-bit
/// compatible with straight runs.
///
/// With a monitor attached, each step's observables are checked
/// *before* they are recorded (a diverged step never enters the run
/// record) and the boundary drift figures are checked after the SCF
/// refresh reports them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_burst<T: LfdScalar>(
    cfg: &RunConfig,
    params: &LfdParams,
    policy: &PrecisionPolicy,
    system: &mut AtomicSystem,
    state: &mut LfdState<T>,
    md: &mut MdIntegrator,
    scratch: &mut QdScratch<T>,
    steps_done: &mut usize,
    last_nexc: &mut f64,
    result: &mut RunResult,
    mut monitor: Option<&mut HealthMonitor>,
) -> Result<(), RunError> {
    let burst = cfg.qd_steps_per_md.min(cfg.total_qd_steps - *steps_done);
    let burst_index = *steps_done / cfg.qd_steps_per_md.max(1);
    let mut _burst_span = dcmesh_telemetry::span("burst")
        .attr("burst_index", dcmesh_telemetry::AttrValue::U64(burst_index as u64))
        .attr("qd_steps", dcmesh_telemetry::AttrValue::U64(burst as u64))
        .attr(
            "mode",
            dcmesh_telemetry::AttrValue::Str(
                mkl_lite::compute_mode().name(),
            ),
        )
        .enter();

    // --- LFD: one burst of QD steps on the "GPU" ---
    for s in 0..burst {
        let obs = qd_step_with_policy(params, state, scratch, policy);
        if let Some(mon) = monitor.as_deref_mut() {
            // ABFT first: a corrupted GEMM also corrupts the observables,
            // and the downstream symptom (blowup, NaN) must not be
            // misattributed as a precision problem — SilentCorruption
            // retries the same mode, the health violations escalate.
            poll_abft(obs.step)?;
            mon.check_step(&obs).map_err(|violation| {
                dcmesh_telemetry::instant(
                    "health_violation",
                    vec![
                        dcmesh_telemetry::Attr {
                            key: "step",
                            value: dcmesh_telemetry::AttrValue::U64(obs.step),
                        },
                        dcmesh_telemetry::Attr {
                            key: "detail",
                            value: dcmesh_telemetry::AttrValue::Text(violation.to_string()),
                        },
                    ],
                );
                RunError::Diverged {
                    step: obs.step,
                    mode: mkl_lite::compute_mode(),
                    violation,
                }
            })?;
        }
        *last_nexc = obs.nexc;
        if (*steps_done + s).is_multiple_of(cfg.record_every) {
            result.records.push(obs);
        }
    }
    *steps_done += burst;

    // --- boundary: shadow sync, FP64 SCF refresh, ionic step ---
    let drift = shadow_drift(state, params.n_orb);
    result.shadow_drift.push(drift);
    sync_with_shadow(&mut result.transfers, params.mesh.len(), params.n_orb, system.len());

    // A singular overlap means the state was already destroyed when the
    // boundary arrived; surface it as a divergence so the supervisor's
    // rollback-and-escalate machinery handles it like any other blowup.
    let report = scf_refresh(params, state).map_err(|e| RunError::Diverged {
        step: *steps_done as u64,
        mode: mkl_lite::compute_mode(),
        violation: HealthViolation::SingularOverlap { detail: e.to_string() },
    })?;
    _burst_span.end_attr("scf_drift", dcmesh_telemetry::AttrValue::F64(report.defect_before));
    _burst_span.end_attr("shadow_drift", dcmesh_telemetry::AttrValue::F64(drift));
    result.scf_drift.push(report.defect_before);
    if let Some(mon) = monitor.as_mut() {
        // Same ordering as the step check: checksum evidence outranks
        // the boundary drift symptoms it may have caused.
        poll_abft(*steps_done as u64)?;
        mon.check_boundary(report.defect_before, drift).map_err(|violation| {
            dcmesh_telemetry::instant(
                "health_violation",
                vec![dcmesh_telemetry::Attr {
                    key: "detail",
                    value: dcmesh_telemetry::AttrValue::Text(violation.to_string()),
                }],
            );
            RunError::Diverged {
                step: *steps_done as u64,
                mode: mkl_lite::compute_mode(),
                violation,
            }
        })?;
    }

    md.step(system, excitation_fraction(*last_nexc, params));
    result.ion_temperature.push(md.temperature(system));

    // Ion motion updates the potential the electrons feel.
    state.vloc = system.local_potential(&params.mesh, cfg.vloc_depth);
    Ok(())
}

/// Runs the full simulation at element width `T` (`f32` for the paper's
/// mixed-precision configurations, `f64` for its FP64 baseline) under the
/// *currently active* compute mode. Sweeps use
/// [`mkl_lite::with_compute_mode`] around this call.
pub fn run_simulation<T: LfdScalar>(cfg: &RunConfig) -> Result<RunResult, RunError> {
    run_simulation_with_policy::<T>(cfg, &PrecisionPolicy::Ambient)
}

/// [`run_simulation`] with a per-call-site [`PrecisionPolicy`] — each of
/// the nine BLAS calls per QD step runs in the mode the policy assigns
/// it. This is the mixed-precision configuration space the paper's
/// env-var methodology could not reach (§IV-D).
pub fn run_simulation_with_policy<T: LfdScalar>(
    cfg: &RunConfig,
    policy: &PrecisionPolicy,
) -> Result<RunResult, RunError> {
    cfg.validate()?;
    init_rank_from_env()?;
    // Fail fast on a malformed MKL_BLAS_COMPUTE_MODE before any state is
    // built — a typo'd mode must be a structured error, not a panic deep
    // inside the first BLAS call.
    mkl_lite::try_compute_mode()?;
    let params = cfg.lfd_params();
    params.validate();

    let (mut system, mut state, mut steps_done) = fresh_start::<T>(cfg, &params)?;
    let mut md = MdIntegrator::new(
        &system,
        cfg.qd_steps_per_md as f64 * cfg.dt,
        cfg.ehrenfest_softening,
    );
    let mut scratch = QdScratch::new(&params);

    let mode = mkl_lite::compute_mode();
    let mut result =
        RunResult::new(&cfg.label, mode, cfg.total_qd_steps / cfg.record_every + 1);

    let mut last_nexc = 0.0f64;
    while steps_done < cfg.total_qd_steps {
        run_burst(
            cfg,
            &params,
            policy,
            &mut system,
            &mut state,
            &mut md,
            &mut scratch,
            &mut steps_done,
            &mut last_nexc,
            &mut result,
            None,
        )?;
    }
    Ok(result)
}

/// When (if ever) a checkpointed run should pretend the process died:
/// after the Nth checkpoint write of this invocation, the run stops with
/// [`RunError::SimulatedCrash`], checkpoints intact on disk. The default
/// never crashes. Exists so restart-robustness tests exercise the real
/// resume path instead of hand-built checkpoint files.
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    /// Crash after this many MD-boundary checkpoint writes (counted per
    /// invocation, not per deck); `None` disables.
    pub crash_after_bursts: Option<u32>,
}

/// Runs the simulation with periodic checkpointing: a
/// [`crate::checkpoint::Checkpoint`] is written to `dir/dcmesh-<step>.ck`
/// at every MD boundary, and — if a newer checkpoint for this deck shape
/// already exists in `dir` — the run **resumes** from it instead of
/// starting over. Resumed runs continue bit-for-bit identically to an
/// uninterrupted run (guaranteed by the checkpoint tests), so the paper's
/// 2-day-per-mode accuracy runs survive job-time limits without
/// corrupting the deviation analysis.
///
/// A checkpoint that fails to load (truncated, corrupted, wrong deck) is
/// **quarantined** — renamed to `<name>.ck.bad` with a warning — and the
/// next-newest checkpoint is tried, falling back to a fresh start only
/// when none survive.
///
/// Returns the run result covering only the steps executed *in this
/// invocation* (records from before the resume point live in the earlier
/// invocation's output).
pub fn run_with_checkpoints<T: LfdScalar>(
    cfg: &RunConfig,
    policy: &PrecisionPolicy,
    dir: &Path,
) -> Result<RunResult, RunError> {
    run_with_checkpoints_crashing::<T>(cfg, policy, dir, &CrashPlan::default())
}

/// [`run_with_checkpoints`] with a [`CrashPlan`] — the fault-injection
/// entry point restart tests use to kill the run at a chosen boundary.
pub fn run_with_checkpoints_crashing<T: LfdScalar>(
    cfg: &RunConfig,
    policy: &PrecisionPolicy,
    dir: &Path,
    crash: &CrashPlan,
) -> Result<RunResult, RunError> {
    use crate::checkpoint::Checkpoint;

    cfg.validate()?;
    init_rank_from_env()?;
    mkl_lite::try_compute_mode()?;
    let params = cfg.lfd_params();
    params.validate();
    std::fs::create_dir_all(dir)?;

    let (mut system, mut state, mut steps_done, mut last_nexc) =
        match scan_and_load::<T>(dir, &params)? {
            Some(resumed) => resumed,
            None => {
                let (system, state, steps) = fresh_start::<T>(cfg, &params)?;
                (system, state, steps, 0.0)
            }
        };

    // Reseed the integrator's force field with the checkpointed
    // excitation so resume is bit-exact (zero on a fresh start).
    let mut md = MdIntegrator::resume(
        &system,
        cfg.qd_steps_per_md as f64 * cfg.dt,
        cfg.ehrenfest_softening,
        excitation_fraction(last_nexc, &params),
    );
    let mut scratch = QdScratch::new(&params);
    let mode = mkl_lite::compute_mode();
    let mut result = RunResult::new(&cfg.label, mode, 0);

    let mut bursts_this_invocation = 0u32;
    while steps_done < cfg.total_qd_steps {
        run_burst(
            cfg,
            &params,
            policy,
            &mut system,
            &mut state,
            &mut md,
            &mut scratch,
            &mut steps_done,
            &mut last_nexc,
            &mut result,
            None,
        )?;

        // Checkpoint the boundary state.
        let ck = Checkpoint {
            state: state.clone(),
            system: system.clone(),
            steps_done: steps_done as u64,
            nexc: last_nexc,
        };
        ck.save(&dir.join(format!("dcmesh-{steps_done}.ck")))?;

        bursts_this_invocation += 1;
        if crash.crash_after_bursts == Some(bursts_this_invocation) {
            return Err(RunError::SimulatedCrash { steps_done: steps_done as u64 });
        }
    }
    Ok(result)
}

/// Scans `dir` for `dcmesh-<step>.ck` files and loads the newest that
/// decodes and matches the deck. Failures are quarantined (renamed to
/// `.ck.bad`) so a corrupt newest checkpoint cannot wedge every future
/// resume, and older checkpoints are tried in turn.
/// A restart point as the run loops consume it: ionic state, electronic
/// state, QD steps completed, and the boundary excitation count that
/// reseeds the integrator's force field.
pub(crate) type ResumePoint<T> = (AtomicSystem, LfdState<T>, usize, f64);

pub(crate) fn scan_and_load<T: LfdScalar>(
    dir: &Path,
    params: &LfdParams,
) -> Result<Option<ResumePoint<T>>, RunError> {
    use crate::checkpoint::Checkpoint;

    let mut found: Vec<(u64, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(step) = name
            .strip_prefix("dcmesh-")
            .and_then(|r| r.strip_suffix(".ck"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            found.push((step, path));
        }
    }
    found.sort_by_key(|e| std::cmp::Reverse(e.0));

    for (_, path) in found {
        let problem = match Checkpoint::<T>::load(&path) {
            Ok(ck) => match ck.validate(params) {
                Ok(()) => {
                    return Ok(Some((ck.system, ck.state, ck.steps_done as usize, ck.nexc)))
                }
                Err(e) => e.to_string(),
            },
            Err(e) => e.to_string(),
        };
        quarantine(&path, &problem);
    }
    Ok(None)
}

/// Renames a bad checkpoint out of the resume scan's pattern space.
fn quarantine(path: &Path, why: &str) {
    let bad = path.with_extension("ck.bad");
    eprintln!(
        "warning: quarantining unusable checkpoint {} -> {}: {why}",
        path.display(),
        bad.display()
    );
    if let Err(e) = std::fs::rename(path, &bad) {
        eprintln!("warning: could not quarantine {}: {e}", path.display());
    }
}

pub(crate) fn fresh_start<T: LfdScalar>(
    cfg: &RunConfig,
    params: &dcmesh_lfd::LfdParams,
) -> Result<(dcmesh_qxmd::AtomicSystem, LfdState<T>, usize), RunError> {
    let system = pto_supercell(cfg.supercell);
    let vloc: Vec<T> = system.local_potential(&params.mesh, cfg.vloc_depth);
    let mut state = LfdState::<T>::initialize(params, vloc);
    // The plane-wave initial guess always has a well-conditioned overlap,
    // so a singular overlap here points at the deck, not the run — but it
    // must still be an error, not a panic.
    initial_scf(params, &mut state, 3, 1e-10).map_err(|e| RunError::Diverged {
        step: 0,
        mode: mkl_lite::compute_mode(),
        violation: HealthViolation::SingularOverlap { detail: e.to_string() },
    })?;
    Ok((system, state, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemPreset;
    use mkl_lite::with_compute_mode;

    fn tiny_config() -> RunConfig {
        let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
        cfg.mesh_points = 10;
        cfg.n_orb = 8;
        cfg.n_occ = 4;
        cfg.total_qd_steps = 60;
        cfg.qd_steps_per_md = 20;
        cfg.laser_duration_fs = 0.03;
        cfg.laser_amplitude = 0.4;
        cfg
    }

    #[test]
    fn run_produces_complete_record() {
        let cfg = tiny_config();
        let r = run_simulation::<f32>(&cfg).expect("run");
        assert_eq!(r.records.len(), 60);
        assert_eq!(r.scf_drift.len(), 3);
        assert_eq!(r.ion_temperature.len(), 3);
        assert_eq!(r.last().expect("records").step, 60);
        // Monotone time axis.
        for w in r.records.windows(2) {
            assert!(w[1].time_fs > w[0].time_fs);
        }
        // Shadow dynamics kept transfers far below one full Ψ round trip.
        let psi_bytes = (cfg.mesh_points.pow(3) * cfg.n_orb * 8) as u64;
        assert!(r.transfers.total() < psi_bytes, "transfers {}", r.transfers.total());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = tiny_config();
        cfg.n_occ = cfg.n_orb + 1;
        let e = run_simulation::<f32>(&cfg).unwrap_err();
        assert!(matches!(e, RunError::InvalidConfig(_)), "{e}");
    }

    #[test]
    fn empty_result_has_no_last_record() {
        let r = RunResult::new("x", ComputeMode::Standard, 0);
        assert!(r.last().is_none());
    }

    #[test]
    fn laser_run_is_physical() {
        let cfg = tiny_config();
        let r = run_simulation::<f64>(&cfg).expect("run");
        let first = &r.records[0];
        let last = r.last().expect("records");
        assert!(last.nexc > first.nexc, "no excitation built up");
        assert!(last.nexc < 2.0 * cfg.n_occ as f64, "nexc exceeds electron count");
        assert!(last.ekin > 0.0);
        assert!(r.records.iter().all(|o| o.nexc >= -1e-6), "negative nexc");
    }

    #[test]
    fn modes_produce_distinct_but_close_observables() {
        let cfg = tiny_config();
        let base =
            with_compute_mode(ComputeMode::Standard, || run_simulation::<f32>(&cfg))
                .expect("fp32 run");
        let bf16 =
            with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg))
                .expect("bf16 run");
        let base_ekin = base.last().expect("records").ekin;
        let d_ekin = (base_ekin - bf16.last().expect("records").ekin).abs();
        assert!(d_ekin > 0.0, "BF16 produced identical kinetic energy");
        let rel = d_ekin / base_ekin.abs().max(1e-30);
        assert!(rel < 0.1, "BF16 kinetic energy deviates {rel}");
    }

    #[test]
    fn record_every_thins_output() {
        let mut cfg = tiny_config();
        cfg.record_every = 5;
        let r = run_simulation::<f32>(&cfg).expect("run");
        assert_eq!(r.records.len(), 12);
    }

    #[test]
    fn scf_drift_nonzero_under_low_precision() {
        let cfg = tiny_config();
        let r = with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&cfg))
            .expect("run");
        assert!(
            r.scf_drift.iter().all(|&d| d > 0.0),
            "BF16 bursts should leave measurable drift: {:?}",
            r.scf_drift
        );
    }

    #[test]
    fn checkpointed_run_matches_straight_run() {
        let cfg = tiny_config(); // 60 steps, 20 per MD
        let policy = dcmesh_lfd::PrecisionPolicy::Ambient;
        let straight = run_simulation::<f32>(&cfg).expect("straight run");

        let dir = std::env::temp_dir().join(format!("dcmesh-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First invocation: stop after 40 steps by shortening the deck.
        let mut first_leg = cfg.clone();
        first_leg.total_qd_steps = 40;
        run_with_checkpoints::<f32>(&first_leg, &policy, &dir).expect("first leg");
        // Second invocation: full deck resumes from the 40-step checkpoint.
        let second = run_with_checkpoints::<f32>(&cfg, &policy, &dir).expect("second leg");
        assert_eq!(second.records.len(), 20, "resume should run only the tail");

        // The tail must match the straight run bit-for-bit.
        for (got, want) in second.records.iter().zip(&straight.records[40..]) {
            assert_eq!(got.step, want.step);
            assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
            assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {}", got.step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_stops_after_the_requested_burst() {
        let cfg = tiny_config();
        let policy = dcmesh_lfd::PrecisionPolicy::Ambient;
        let dir = std::env::temp_dir().join(format!("dcmesh-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let crash = CrashPlan { crash_after_bursts: Some(1) };
        let e = run_with_checkpoints_crashing::<f32>(&cfg, &policy, &dir, &crash).unwrap_err();
        assert!(matches!(e, RunError::SimulatedCrash { steps_done: 20 }), "{e}");
        assert!(dir.join("dcmesh-20.ck").exists(), "crash must leave the checkpoint behind");

        // The straight resume completes the deck and matches an
        // uninterrupted run bit-for-bit.
        let straight = run_simulation::<f32>(&cfg).expect("straight run");
        let resumed = run_with_checkpoints::<f32>(&cfg, &policy, &dir).expect("resume");
        assert_eq!(resumed.records.len(), 40);
        for (got, want) in resumed.records.iter().zip(&straight.records[20..]) {
            assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
