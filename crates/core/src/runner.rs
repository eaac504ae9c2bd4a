//! The production run loop.
//!
//! Mirrors DCMESH's multiple-time-scale splitting: the wave function is
//! initialised by SCF at FP64, then each MD step runs 500 QD steps of LFD
//! (at FP32 plus the active BLAS compute mode — or all-FP64), executes the
//! FP64 SCF refresh, and advances the ions on the shadow potential. The
//! per-QD-step observables form the run record that the Figure 1/2
//! analysis consumes.
//!
//! There is one burst driver, `Run`: a [`Checkpoint`] — the restart
//! point, the only state that crosses an MD boundary — plus what is
//! rebuilt from it (the ionic integrator, the QD scratch) and the record
//! so far. [`run_simulation_with_policy`] is `start` + `burst` until the
//! deck is done; the [`crate::supervisor`] drives the same `burst` with
//! a [`HealthMonitor`] attached and clones / restores / saves `ck` to
//! snapshot, roll back, replay and checkpoint. Every entry point returns
//! [`RunError`] instead of panicking.

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::error::RunError;
use crate::health::{HealthMonitor, HealthViolation};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::policy::PrecisionPolicy;
use dcmesh_lfd::propagator::{qd_step_with_policy, QdScratch};
use dcmesh_lfd::{LfdParams, LfdState, StepObservables};
use dcmesh_qxmd::scf::{initial_scf, scf_refresh};
use dcmesh_qxmd::shadow::{shadow_drift, sync_with_shadow, TransferLedger};
use dcmesh_qxmd::{pto_supercell, MdIntegrator};
use dcmesh_telemetry::{Attr, AttrValue};
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
fn init_rank_from_env() -> Result<(), RunError> {
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
    pub(crate) fn new(label: &str, mode: ComputeMode) -> RunResult {
        RunResult {
            label: format!("{label}/{}", mode.label()),
            mode,
            records: Vec::new(),
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
fn poll_abft(step: u64) -> Result<(), RunError> {
    match mkl_lite::take_abft_violation() {
        Some(v) => Err(RunError::diverged(
            step,
            HealthViolation::SilentCorruption { detail: v.to_string() },
        )),
        None => Ok(()),
    }
}

/// The one burst driver. The plain run, the supervised run and the
/// supervisor's verify replay all advance a trajectory through
/// [`Run::burst`], so they cannot drift apart in operation order.
pub(crate) struct Run<'a, T: LfdScalar> {
    pub(crate) cfg: &'a RunConfig,
    pub(crate) policy: &'a PrecisionPolicy,
    pub(crate) params: LfdParams,
    /// The restart point: everything that crosses an MD boundary. A
    /// snapshot is a clone of it, a rollback assigns it back, a
    /// checkpoint saves it, a resume or replay starts from one.
    pub(crate) ck: Checkpoint<T>,
    /// Derived from `ck` by [`Run::integrator`]; never restored, always
    /// rebuilt.
    md: MdIntegrator,
    scratch: QdScratch<T>,
    /// The record of the steps executed by this `Run`.
    pub(crate) result: RunResult,
    /// QD-step count of the checkpoint [`Run::start`] resumed from.
    pub(crate) resumed_from_step: Option<u64>,
}

impl<'a, T: LfdScalar> Run<'a, T> {
    /// Validates the deck, the rank and the ambient compute mode (a
    /// typo'd `MKL_BLAS_COMPUTE_MODE` must be a structured error before
    /// any state is built, not a panic deep inside the first BLAS call),
    /// then resumes from the newest usable checkpoint in
    /// `checkpoint_dir` or starts fresh. The record is labelled with
    /// `mode`, or with the ambient mode when `None`.
    pub(crate) fn start(
        cfg: &'a RunConfig,
        policy: &'a PrecisionPolicy,
        mode: Option<ComputeMode>,
        checkpoint_dir: Option<&Path>,
    ) -> Result<Run<'a, T>, RunError> {
        cfg.validate()?;
        init_rank_from_env()?;
        let ambient = mkl_lite::try_compute_mode()?;
        let params = cfg.lfd_params();
        let resumed = match checkpoint_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                scan_and_load::<T>(dir, &params)?
            }
            None => None,
        };
        let resumed_from_step = resumed.as_ref().map(|ck| ck.steps_done);
        let ck = match resumed {
            Some(ck) => ck,
            None => fresh_start(cfg, &params)?,
        };
        let mut run = Run::resume(cfg, params, policy, ck, mode.unwrap_or(ambient));
        // Sized once, up front: a record grown by doubling interleaves its
        // reallocations with telemetry's per-event allocations, and the
        // holes cost the `guarded` benchmark +1 MiB (+10 %) of peak RSS.
        let remaining = cfg.total_qd_steps.saturating_sub(run.ck.steps_done as usize);
        run.result.records.reserve(remaining / cfg.record_every + 1);
        run.resumed_from_step = resumed_from_step;
        Ok(run)
    }

    /// A run continuing from `ck` with an empty record — the one
    /// constructor behind a fresh start, a checkpoint resume and a verify
    /// replay.
    pub(crate) fn resume(
        cfg: &'a RunConfig,
        params: LfdParams,
        policy: &'a PrecisionPolicy,
        ck: Checkpoint<T>,
        mode: ComputeMode,
    ) -> Run<'a, T> {
        let md = Run::integrator(cfg, &params, &ck);
        let scratch = QdScratch::new(&params);
        let result = RunResult::new(&cfg.label, mode);
        Run { cfg, policy, params, ck, md, scratch, result, resumed_from_step: None }
    }

    /// The ionic integrator a restart point implies. Its force field is
    /// softened by the excitation fraction — the boundary `nexc` over the
    /// electron count — and every (re)build must seed it with exactly that
    /// value ([`MdIntegrator::resume`]; zero on a fresh start) or resume,
    /// rollback and replay are not bit-exact.
    fn integrator(cfg: &RunConfig, params: &LfdParams, ck: &Checkpoint<T>) -> MdIntegrator {
        MdIntegrator::resume(
            &ck.system,
            cfg.qd_steps_per_md as f64 * cfg.dt,
            cfg.ehrenfest_softening,
            excitation_fraction(ck.nexc, params),
        )
    }

    /// True once the deck's QD steps are all executed.
    pub(crate) fn done(&self) -> bool {
        self.ck.steps_done as usize >= self.cfg.total_qd_steps
    }

    /// Index of the next MD burst, counted from the start of the deck.
    pub(crate) fn burst_index(&self) -> u64 {
        self.ck.steps_done / self.cfg.qd_steps_per_md.max(1) as u64
    }

    /// One MD burst: `qd_steps_per_md` QD steps (with record thinning),
    /// then the boundary work — shadow sync, FP64 SCF refresh, ionic step,
    /// potential update — in exactly the historical run loop's operation
    /// order, so resumed, supervised and replayed bursts stay bit-for-bit
    /// compatible with a straight run.
    ///
    /// With a monitor attached, each step's observables are checked
    /// *before* they are recorded (a diverged step never enters the run
    /// record) and the boundary drift figures are checked after the SCF
    /// refresh reports them. On `Err` the restart point is mid-burst
    /// garbage: roll back or drop the run.
    pub(crate) fn burst(
        &mut self,
        mut monitor: Option<&mut HealthMonitor>,
    ) -> Result<(), RunError> {
        let (cfg, params, burst_index) = (self.cfg, &self.params, self.burst_index());
        let Checkpoint { state, system, steps_done, nexc } = &mut self.ck;
        let start = *steps_done as usize;
        let burst = cfg.qd_steps_per_md.min(cfg.total_qd_steps - start);
        let mut _burst_span = dcmesh_telemetry::span("burst")
            .attr("burst_index", AttrValue::U64(burst_index))
            .attr("qd_steps", AttrValue::U64(burst as u64))
            .attr("mode", AttrValue::Str(mkl_lite::compute_mode().name()))
            .enter();

        // --- LFD: one burst of QD steps on the "GPU" ---
        for s in 0..burst {
            let obs = qd_step_with_policy(params, state, &mut self.scratch, self.policy);
            if let Some(mon) = monitor.as_deref_mut() {
                // ABFT first: a corrupted GEMM also corrupts the observables,
                // and the downstream symptom (blowup, NaN) must not be
                // misattributed as a precision problem — SilentCorruption
                // retries the same mode, the health violations escalate.
                poll_abft(obs.step)?;
                mon.check_step(&obs).map_err(|v| RunError::diverged(obs.step, v))?;
            }
            *nexc = obs.nexc;
            if (start + s).is_multiple_of(cfg.record_every) {
                self.result.records.push(obs);
            }
        }
        *steps_done += burst as u64;

        // --- boundary: shadow sync, FP64 SCF refresh, ionic step ---
        let drift = shadow_drift(state, params.n_orb);
        self.result.shadow_drift.push(drift);
        sync_with_shadow(&mut self.result.transfers, params.mesh.len(), params.n_orb, system.len());

        // A singular overlap means the state was already destroyed when the
        // boundary arrived; surface it as a divergence so the supervisor's
        // rollback-and-escalate machinery handles it like any other blowup.
        let report = scf_refresh(params, state).map_err(|e| scf_failed(*steps_done, e))?;
        _burst_span.end_attr("scf_drift", AttrValue::F64(report.defect_before));
        _burst_span.end_attr("shadow_drift", AttrValue::F64(drift));
        self.result.scf_drift.push(report.defect_before);
        if let Some(mon) = monitor.as_mut() {
            // Same ordering as the step check: checksum evidence outranks
            // the boundary drift symptoms it may have caused.
            poll_abft(*steps_done)?;
            mon.check_boundary(report.defect_before, drift)
                .map_err(|v| RunError::diverged(*steps_done, v))?;
        }

        self.md.step(system, excitation_fraction(*nexc, params));
        self.result.ion_temperature.push(self.md.temperature(system));

        // Ion motion updates the potential the electrons feel.
        state.vloc = system.local_potential(&params.mesh, cfg.vloc_depth);
        Ok(())
    }

    /// Restores the restart point and the record to a pre-burst
    /// `snapshot` / `mark` pair and rebuilds the integrator from it — the
    /// checkpoint resume path, which is bit-exact.
    pub(crate) fn rollback(&mut self, snapshot: &Checkpoint<T>, mark: &ResultMark) {
        self.ck = snapshot.clone();
        mark.restore(&mut self.result);
        self.md = Run::integrator(self.cfg, &self.params, &self.ck);
    }

    /// Writes the restart point to `dir/dcmesh-<step>.ck` (crash-atomic,
    /// see [`Checkpoint::save`]); returns once it reached disk.
    pub(crate) fn commit(&self, dir: &Path) -> Result<(), RunError> {
        let step = self.ck.steps_done;
        self.ck.save(&dir.join(format!("dcmesh-{step}.ck")))?;
        let attrs = vec![Attr { key: "step", value: AttrValue::U64(step) }];
        dcmesh_telemetry::instant("checkpoint", attrs);
        Ok(())
    }
}

/// The ionic force field's softening input: excitation count over
/// electron count, clamped to a fraction.
fn excitation_fraction(nexc: f64, params: &LfdParams) -> f64 {
    (nexc / params.n_electrons()).clamp(0.0, 1.0)
}

/// An SCF pass that refused its overlap, as a divergence at `step`.
fn scf_failed(step: u64, e: impl std::fmt::Display) -> RunError {
    RunError::diverged(step, HealthViolation::SingularOverlap { detail: e.to_string() })
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
    let mut run = Run::<T>::start(cfg, policy, None, None)?;
    while !run.done() {
        run.burst(None)?;
    }
    Ok(run.result)
}

/// Scans `dir` for `dcmesh-<step>.ck` files and loads the newest that
/// decodes and matches the deck. Failures are quarantined (renamed to
/// `.ck.bad`) so a corrupt newest checkpoint cannot wedge every future
/// resume, and older checkpoints are tried in turn.
pub(crate) fn scan_and_load<T: LfdScalar>(
    dir: &Path,
    params: &LfdParams,
) -> Result<Option<Checkpoint<T>>, RunError> {
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
                Ok(()) => return Ok(Some(ck)),
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

/// The restart point of a run that has not stepped yet: the deck's
/// supercell and the FP64 initial SCF on the plane-wave guess.
fn fresh_start<T: LfdScalar>(
    cfg: &RunConfig,
    params: &LfdParams,
) -> Result<Checkpoint<T>, RunError> {
    let system = pto_supercell(cfg.supercell);
    let vloc: Vec<T> = system.local_potential(&params.mesh, cfg.vloc_depth);
    let mut state = LfdState::<T>::initialize(params, vloc);
    // The plane-wave initial guess always has a well-conditioned overlap,
    // so a singular overlap here points at the deck, not the run — but it
    // must still be an error, not a panic.
    initial_scf(params, &mut state, 3, 1e-10).map_err(|e| scf_failed(0, e))?;
    Ok(Checkpoint { state, system, steps_done: 0, nexc: 0.0 })
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

    /// Ψ and Ψ(0) start on a cache line however they were made: a fresh
    /// start, a burst (whose SCF refresh writes Ψ), a checkpoint load and
    /// a rollback to a cloned snapshot. (The propagator's ping-pong arrays
    /// are checked in `dcmesh-lfd`.)
    #[test]
    fn state_sized_arrays_start_on_a_cache_line() {
        use dcmesh_numerics::aligned::CACHE_LINE;
        fn check<T: LfdScalar>(run: &Run<'_, T>, when: &str) {
            let st = &run.ck.state;
            for (name, v) in [("psi", &st.psi), ("psi0", &st.psi0)] {
                assert_eq!(v.len(), run.params.mesh.len() * run.params.n_orb, "{name} {when}");
                assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "{name} after {when}");
            }
        }
        let cfg = tiny_config();
        let policy = PrecisionPolicy::Ambient;
        let mut run = Run::<f32>::start(&cfg, &policy, None, None).expect("start");
        check(&run, "initialize");
        let snapshot = run.ck.clone();
        let mark = ResultMark::take(&run.result);
        run.burst(None).expect("burst");
        check(&run, "a burst");
        let loaded = Checkpoint::<f32>::decode(run.ck.encode()).expect("decode");
        let resumed = Run::resume(&cfg, run.params.clone(), &policy, loaded, ComputeMode::Standard);
        check(&resumed, "checkpoint load");
        run.rollback(&snapshot, &mark);
        check(&run, "rollback");
        assert!(run.ck.state.psi[..] == snapshot.state.psi[..], "the rollback restored Ψ");
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
        let r = RunResult::new("x", ComputeMode::Standard);
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
        use crate::supervisor::{run_supervised, SupervisorConfig};
        let cfg = tiny_config(); // 60 steps, 20 per MD
        let straight = run_simulation::<f32>(&cfg).expect("straight run");

        let dir = std::env::temp_dir().join(format!("dcmesh-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sup =
            SupervisorConfig { checkpoint_dir: Some(dir.clone()), ..SupervisorConfig::default() };

        // First invocation: stop after 40 steps by shortening the deck.
        let mut first_leg = cfg.clone();
        first_leg.total_qd_steps = 40;
        run_supervised::<f32>(&first_leg, ComputeMode::Standard, &sup).expect("first leg");
        // Second invocation: full deck resumes from the 40-step checkpoint.
        let second = run_supervised::<f32>(&cfg, ComputeMode::Standard, &sup).expect("second leg");
        assert_eq!(second.resumed_from_step, Some(40));
        let second = second.result;
        assert_eq!(second.records.len(), 20, "resume should run only the tail");

        // The tail must match the straight run bit-for-bit.
        for (got, want) in second.records.iter().zip(&straight.records[40..]) {
            assert_eq!(got.step, want.step);
            assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
            assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {}", got.step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The restart point is one value, so a rollback can be checked as
    /// one: after a burst that diverged on an injected NaN, the run's
    /// checkpoint encodes to exactly the snapshot's bytes and the record
    /// is back at the mark — whatever fields the state has.
    #[test]
    fn rollback_restores_the_restart_point_to_the_byte() {
        use crate::health::HealthConfig;
        use mkl_lite::fault::Trigger;
        use mkl_lite::{FaultKind, FaultPlan, FaultSite};
        let cfg = tiny_config();
        let policy = PrecisionPolicy::Ambient;
        let mut run = Run::<f32>::start(&cfg, &policy, None, None).expect("start");
        run.burst(None).expect("clean first burst");

        let snapshot = run.ck.clone();
        let mark = ResultMark::take(&run.result);
        let bytes = snapshot.encode();

        // Poison every CGEMM from a few steps into the second burst on.
        let mut monitor = HealthMonitor::new(HealthConfig::default(), run.params.n_electrons());
        let mut site = FaultSite::every(1, FaultKind::Nan).on_routine("CGEMM");
        site.trigger = Trigger::Every { period: 1, offset: 40 };
        mkl_lite::install_fault_plan(FaultPlan::new(3).with_site(site));
        let out = run.burst(Some(&mut monitor));
        mkl_lite::clear_fault_plan();
        assert!(matches!(out, Err(RunError::Diverged { .. })), "{out:?}");
        assert!(run.result.records.len() > mark.records, "the burst recorded steps before dying");
        assert_ne!(run.ck.encode().as_ref(), bytes.as_ref(), "the burst moved the state");

        run.rollback(&snapshot, &mark);
        assert_eq!(run.ck.encode().as_ref(), bytes.as_ref());
        let r = &run.result;
        assert_eq!(
            (r.records.len(), r.scf_drift.len(), r.shadow_drift.len(), r.ion_temperature.len()),
            (mark.records, mark.scf_drift, mark.shadow_drift, mark.ion_temperature)
        );
        assert_eq!(r.transfers.total(), mark.transfers.total());

        // And the rolled-back run continues as if nothing had happened.
        let straight = run_simulation::<f32>(&cfg).expect("straight run");
        while !run.done() {
            run.burst(None).expect("clean burst");
        }
        assert_eq!(run.result.records.len(), straight.records.len());
        for (got, want) in run.result.records.iter().zip(&straight.records) {
            assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
            assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {}", got.step);
        }
    }
}
