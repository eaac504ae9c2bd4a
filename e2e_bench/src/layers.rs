//! The traced pass: per-layer metrics, outside in.
//!
//! For STANDARD and BF16X3 the harness drives the burst loop itself, in
//! exactly `runner::run_burst`'s order, opening a span around each call
//! into a layer and taking BLAS-call child spans from the public
//! `mkl_lite::verbose` ring. The same loop with the tracer off gives the
//! tracing overhead, with a telemetry level or ABFT on gives their
//! overheads, and a supervised run of the same deck gives both the
//! bit-identity reference and the supervisor's own cost. Direct timed
//! calls into each layer at the workload's shapes fill in the rest.

use crate::e2e::{export_guard_artifacts, mode_run, same_bits};
use crate::host;
use crate::report::{Checks, Measured, TRACED_MODES};
use crate::spans::{self_times_ns, SpanRec, Tracer};
use crate::stats::{floor, median};
use crate::workload::{Workload, GUARDED_ABFT_PERIOD, MODES};
use dcmesh::checkpoint::Checkpoint;
use dcmesh::config::RunConfig;
use dcmesh::RunError;
use dcmesh_lfd::energy::calc_energy_with_policy;
use dcmesh_lfd::field::advance_induced_field;
use dcmesh_lfd::laser::AU_PER_FS;
use dcmesh_lfd::nonlocal::{nlp_prop_with_scratch, NlpScratch};
use dcmesh_lfd::observables::current_density;
use dcmesh_lfd::policy::{PrecisionPolicy, N_CALL_SITES};
use dcmesh_lfd::propagator::{shadow_update_with_policy, taylor_propagate, QdScratch};
use dcmesh_lfd::remap::remap_occ_with_policy;
use dcmesh_lfd::{LfdParams, LfdState, StepObservables};
use dcmesh_numerics::{Complex, C32, C64};
use dcmesh_qxmd::shadow::shadow_drift;
use dcmesh_qxmd::{initial_scf, pto_supercell, scf_refresh, AtomicSystem, MdIntegrator};
use dcmesh_telemetry::{self as telemetry, AttrValue, TelemetryLevel};
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::{verbose, with_compute_mode, workspace, ComputeMode, Op};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Which of the program's guard rails a harness-driven loop runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Rails {
    level: TelemetryLevel,
    abft: bool,
    /// Device model installed and call recording on (the `guarded`
    /// workload's other two rails).
    model_and_ring: bool,
}

impl Rails {
    const NONE: Rails = Rails {
        level: TelemetryLevel::Off,
        abft: false,
        model_and_ring: false,
    };

    fn of(workload: &Workload) -> Rails {
        if workload.guarded {
            Rails {
                level: TelemetryLevel::Full,
                abft: true,
                model_and_ring: true,
            }
        } else {
            Rails::NONE
        }
    }
}

/// Deck, parameters and the post-SCF starting point every loop clones.
struct Sim {
    cfg: RunConfig,
    params: LfdParams,
    system: AtomicSystem,
    state: LfdState<f32>,
}

/// `runner::fresh_start` by its public parts, each under a span.
fn fresh_start(deck_text: &str, tr: &mut Tracer) -> Result<Sim, RunError> {
    let cfg = RunConfig::parse(deck_text)?;
    let params = cfg.lfd_params();
    params.validate();
    let system = pto_supercell(cfg.supercell);
    tr.open("qxmd", "local_potential");
    let vloc: Vec<f32> = system.local_potential(&params.mesh, cfg.vloc_depth);
    tr.close();
    tr.open("lfd", "initialize");
    let mut state = LfdState::<f32>::initialize(&params, vloc);
    tr.close();
    tr.open("qxmd", "initial_scf");
    let scf = initial_scf(&params, &mut state, 3, 1e-10);
    end_span_with_blas(tr);
    scf.map_err(|e| RunError::Diverged {
        step: 0,
        mode: ComputeMode::Standard,
        violation: dcmesh::HealthViolation::SingularOverlap {
            detail: e.to_string(),
        },
    })?;
    Ok(Sim {
        cfg,
        params,
        system,
        state,
    })
}

/// Closes the innermost span and hangs the BLAS calls the ring collected
/// during it underneath.
fn end_span_with_blas(tr: &mut Tracer) {
    let Some(idx) = tr.close() else { return };
    let calls = verbose::drain();
    tr.add_measured_children(
        idx,
        "blas",
        calls
            .iter()
            .map(|r| (r.routine, r.wall.as_nanos() as u64, (r.m, r.n, r.k))),
    );
}

/// What one harness-driven run of the deck produced.
struct LoopOut {
    records: Vec<StepObservables>,
    /// Milliseconds per QD step, one sample per burst (boundary included),
    /// directly comparable with the supervised run's samples.
    step_ms: Vec<f64>,
    wall_s: f64,
    electron_count: f64,
    pool_takes: u64,
    pool_misses: u64,
    abft_checks: u64,
    abft_violation: bool,
}

/// Drives the whole deck from `sim`'s starting point under `mode`: the
/// body of `qd_step_with_policy` and `run_burst`, call for call, with the
/// same telemetry spans and phase scopes, so the bits and the guard-rail
/// costs match the program's own loop.
fn drive(sim: &Sim, mode: ComputeMode, rails: Rails, tr: &mut Tracer) -> Result<LoopOut, RunError> {
    let (cfg, params) = (&sim.cfg, &sim.params);
    let mut state = sim.state.clone();
    let mut system = sim.system.clone();
    let mut md = MdIntegrator::new(
        &system,
        cfg.qd_steps_per_md as f64 * cfg.dt,
        cfg.ehrenfest_softening,
    );
    let mut scratch = QdScratch::new(params);
    let mut nlp = NlpScratch::<f32>::default();
    let mut t_psi: Vec<C32> = Vec::new();
    let policy = PrecisionPolicy::Ambient;
    let mut out = LoopOut {
        records: Vec::with_capacity(cfg.total_qd_steps),
        step_ms: Vec::new(),
        wall_s: 0.0,
        electron_count: 0.0,
        pool_takes: 0,
        pool_misses: 0,
        abft_checks: 0,
        abft_violation: false,
    };

    let _model = rails.model_and_ring.then(xe_gpu::install_default_model);
    // The tracer takes its BLAS children from the ring, so tracing turns
    // recording on; that cost is part of `trace.overhead_pct`.
    verbose::set_recording(rails.model_and_ring || tr.enabled());
    verbose::clear();
    if rails.abft {
        mkl_lite::install_abft(GUARDED_ABFT_PERIOD);
    }
    let pool_before = workspace::combined_stats();
    let abft_before = mkl_lite::abft_check_count();
    tr.next_run();

    let mut body = |out: &mut LoopOut, tr: &mut Tracer| -> Result<(), RunError> {
        let run_start = Instant::now();
        tr.open("harness", "run");
        let mut steps_done = 0usize;
        let mut last_nexc = 0.0f64;
        while steps_done < cfg.total_qd_steps {
            let burst = cfg.qd_steps_per_md.min(cfg.total_qd_steps - steps_done);
            let burst_start = Instant::now();
            tr.open("harness", "burst");
            let mut burst_span = telemetry::span("burst")
                .attr(
                    "burst_index",
                    AttrValue::U64((steps_done / cfg.qd_steps_per_md) as u64),
                )
                .attr("qd_steps", AttrValue::U64(burst as u64))
                .attr(
                    "mode",
                    AttrValue::Str(mode.env_value().unwrap_or("STANDARD")),
                )
                .enter();
            for _ in 0..burst {
                tr.open("harness", "step");
                let obs = qd_step(
                    params,
                    &mut state,
                    &mut scratch,
                    &mut nlp,
                    &mut t_psi,
                    &policy,
                    tr,
                );
                tr.close();
                if rails.abft && mkl_lite::take_abft_violation().is_some() {
                    out.abft_violation = true;
                }
                last_nexc = obs.nexc;
                out.records.push(obs);
            }
            steps_done += burst;

            tr.open("qxmd", "shadow_drift");
            let drift = shadow_drift(&state, params.n_orb);
            tr.close();
            tr.open("qxmd", "scf_refresh");
            let report = scf_refresh(params, &mut state);
            end_span_with_blas(tr);
            let report = report.map_err(|e| RunError::Diverged {
                step: steps_done as u64,
                mode,
                violation: dcmesh::HealthViolation::SingularOverlap {
                    detail: e.to_string(),
                },
            })?;
            burst_span.end_attr("scf_drift", AttrValue::F64(report.defect_before));
            burst_span.end_attr("shadow_drift", AttrValue::F64(drift));
            tr.open("qxmd", "md_step");
            md.step(
                &mut system,
                (last_nexc / params.n_electrons()).clamp(0.0, 1.0),
            );
            black_box(md.temperature(&system));
            tr.close();
            tr.open("qxmd", "local_potential");
            state.vloc = system.local_potential(&params.mesh, cfg.vloc_depth);
            tr.close();
            drop(burst_span);
            tr.close();
            out.step_ms
                .push(burst_start.elapsed().as_secs_f64() * 1e3 / burst as f64);
        }
        tr.close();
        out.wall_s = run_start.elapsed().as_secs_f64();
        Ok(())
    };
    let result = telemetry::with_level(rails.level, || {
        with_compute_mode(mode, || body(&mut out, tr))
    });

    let pool_after = workspace::combined_stats();
    out.pool_takes = pool_after.takes - pool_before.takes;
    out.pool_misses = pool_after.misses - pool_before.misses;
    out.abft_checks = mkl_lite::abft_check_count() - abft_before;
    out.electron_count = state.electron_count(params);
    if rails.abft {
        mkl_lite::clear_abft();
    }
    verbose::set_recording(false);
    verbose::clear();
    if rails.model_and_ring {
        mkl_lite::device::clear_device_model();
    }
    result.map(|()| out)
}

/// One QD step: `propagator::qd_step_with_policy`, phase by phase.
fn qd_step(
    params: &LfdParams,
    state: &mut LfdState<f32>,
    scratch: &mut QdScratch<f32>,
    nlp: &mut NlpScratch<f32>,
    t_psi: &mut Vec<C32>,
    policy: &PrecisionPolicy,
    tr: &mut Tracer,
) -> StepObservables {
    let _step_span = telemetry::span("qd_step")
        .attr("step", AttrValue::U64(state.step + 1))
        .enter();
    let a_mid = state.a_total(params, state.time + 0.5 * params.dt);

    tr.open("lfd", "propagate");
    {
        let _s = telemetry::span("qd_propagate").enter();
        let _p = telemetry::phase_scope("lfd::qd_propagate");
        taylor_propagate(params, state, a_mid, scratch);
    }
    end_span_with_blas(tr);

    tr.open("lfd", "nonlocal");
    {
        let _s = telemetry::span("qd_nonlocal").enter();
        let _p = telemetry::phase_scope("lfd::qd_nonlocal");
        nlp_prop_with_scratch(params, state, policy, nlp);
    }
    end_span_with_blas(tr);

    tr.open("lfd", "energy");
    let e = {
        let _s = telemetry::span("qd_energy").enter();
        let _p = telemetry::phase_scope("lfd::qd_energy");
        calc_energy_with_policy(params, state, &nlp.projection, t_psi, policy)
    };
    end_span_with_blas(tr);

    tr.open("lfd", "remap");
    let nexc = {
        let _s = telemetry::span("qd_remap_occ").enter();
        let _p = telemetry::phase_scope("lfd::qd_remap_occ");
        remap_occ_with_policy(params, state, policy)
    };
    end_span_with_blas(tr);

    tr.open("lfd", "shadow");
    {
        let _s = telemetry::span("qd_shadow").enter();
        let _p = telemetry::phase_scope("lfd::qd_shadow");
        shadow_update_with_policy(params, state, &nlp.projection, policy);
    }
    end_span_with_blas(tr);

    let t_next = state.time + params.dt;
    let a_now = state.a_total(params, t_next);
    tr.open("lfd", "field");
    let javg = {
        let _s = telemetry::span("qd_field").enter();
        let _p = telemetry::phase_scope("lfd::qd_field");
        let javg = current_density(params, state, a_now);
        advance_induced_field(params, state, javg);
        javg
    };
    end_span_with_blas(tr);

    state.time = t_next;
    state.step += 1;
    StepObservables {
        step: state.step,
        time_fs: state.time / AU_PER_FS,
        ekin: e.ekin,
        epot: e.epot,
        etot: e.etot,
        eexc: e.eexc,
        nexc,
        aext: params.laser.vector_potential(state.time),
        javg,
    }
}

/// Real floating-point operations of a GEMM call by the standard count
/// (8 per complex multiply-add, 2 per real one), whatever the compute
/// mode does internally — so rates compare across modes as useful work.
fn gemm_flops(routine: &str, (m, n, k): (usize, usize, usize)) -> f64 {
    let per_mac = if routine.starts_with('C') || routine.starts_with('Z') {
        8.0
    } else {
        2.0
    };
    per_mac * m as f64 * n as f64 * k as f64
}

/// Runs `f` at least `min_reps` times and then until `budget_s` is spent
/// (at most `max_reps`); returns seconds per call.
fn probe(budget_s: f64, min_reps: usize, max_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && start.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

fn scaled(samples: &[f64], scale: f64) -> Vec<f64> {
    samples.iter().map(|s| s * scale).collect()
}

/// The recorded spans with their self times, ready to be folded.
struct Folded<'a> {
    spans: &'a [SpanRec],
    selves: &'a [u64],
    params: &'a LfdParams,
}

impl Folded<'_> {
    /// Folds the traced loops `runs` of one mode into the suffixed
    /// `lfd.*` / `blas.*` metrics.
    fn mode_metrics(
        &self,
        m: &mut Measured,
        checks: &mut Checks,
        suffix: &str,
        runs: &[u32],
        peak_gflops: f64,
    ) {
        let (spans, params) = (self.spans, self.params);
        let of_run = |s: &SpanRec| runs.contains(&s.run);
        let ms = |ns: u64| ns as f64 / 1e6;
        let total_ns = |layer: &str, name: &str| -> u64 {
            spans
                .iter()
                .filter(|s| of_run(s) && s.layer == layer && s.name == name)
                .map(SpanRec::dur_ns)
                .sum()
        };
        let steps = spans
            .iter()
            .filter(|s| of_run(s) && s.name == "step")
            .count() as f64;
        let step_ns = total_ns("harness", "step");

        for phase in [
            "propagate",
            "nonlocal",
            "energy",
            "remap",
            "shadow",
            "field",
        ] {
            m.set(
                format!("lfd.{phase}_ms.{suffix}"),
                ms(total_ns("lfd", phase)) / steps,
            );
        }
        let points = params.mesh.len() as f64 * params.n_orb as f64 * params.taylor_order as f64;
        m.set(
            format!("lfd.propagate_mpts_per_s.{suffix}"),
            points * steps / (total_ns("lfd", "propagate") as f64 / 1e9) / 1e6,
        );
        let lfd_self: u64 = spans
            .iter()
            .zip(self.selves)
            .filter(|(s, _)| of_run(s) && s.layer == "lfd")
            .map(|(_, &t)| t)
            .sum();
        m.set(
            format!("lfd.self_share.{suffix}"),
            lfd_self as f64 / step_ns as f64,
        );

        // BLAS calls made from inside QD steps (boundary ZGEMMs are qxmd's).
        let calls: Vec<(&SpanRec, f64)> = spans
            .iter()
            .filter(|s| of_run(s) && s.layer == "blas")
            .filter(|s| s.parent.is_some_and(|p| spans[p].layer == "lfd"))
            .map(|s| {
                (
                    s,
                    gemm_flops(s.name, s.shape.expect("BLAS spans carry a shape")),
                )
            })
            .collect();
        let busy_ns: u64 = calls.iter().map(|(s, _)| s.dur_ns()).sum();
        let flops: f64 = calls.iter().map(|(_, f)| f).sum();
        let n_grid = params.mesh.len();
        let (grid_ns, grid_flops) = calls
            .iter()
            .filter(|(s, _)| s.shape.is_some_and(|(_, _, k)| k == n_grid))
            .fold((0u64, 0.0), |(ns, fl), (s, f)| (ns + s.dur_ns(), fl + f));
        let n = params.n_orb;
        let subspace_us: Vec<f64> = calls
            .iter()
            .filter(|(s, _)| s.shape == Some((n, n, n)))
            .map(|(s, _)| s.dur_ns() as f64 / 1e3)
            .collect();
        let calls_per_step = calls.len() as f64 / steps;
        checks.check(
            "blas-calls-per-step",
            suffix,
            calls_per_step == N_CALL_SITES as f64,
        );
        m.set(format!("blas.calls_per_step.{suffix}"), calls_per_step);
        m.set(
            format!("blas.busy_ms_per_step.{suffix}"),
            ms(busy_ns) / steps,
        );
        m.set(
            format!("blas.share.{suffix}"),
            busy_ns as f64 / step_ns as f64,
        );
        m.set(format!("blas.gflops.{suffix}"), flops / busy_ns as f64);
        m.set(
            format!("blas.grid_gemm_gflops.{suffix}"),
            grid_flops / grid_ns as f64,
        );
        m.set_samples(format!("blas.subspace_gemm_us.{suffix}"), &subspace_us);
        m.set(
            format!("blas.peak_frac.{suffix}"),
            flops / busy_ns as f64 / peak_gflops,
        );
    }
}

/// What one traced pass works on.
struct Pass<'a> {
    workload: &'a Workload,
    deck_text: &'a str,
    sim: &'a Sim,
    scratch: &'a Path,
}

/// What the cycles of supervised / untraced / traced loops collect. The
/// arrays are indexed like [`TRACED_MODES`]; step times are ms per QD
/// step, one sample per burst.
#[derive(Default)]
struct Cycles {
    supervised_step_ms: [Vec<f64>; 2],
    plain_step_ms: [Vec<f64>; 2],
    traced_step_ms: [Vec<f64>; 2],
    /// Run identifiers of the traced loops.
    traced_runs: [Vec<u32>; 2],
    /// Workspace-pool (takes, misses) over the traced loops.
    pool: [(u64, u64); 2],
    /// Mean ms per QD step of one whole STANDARD loop per cycle: bare,
    /// and with one guard rail on.
    bare_ms: Vec<f64>,
    events_ms: Vec<f64>,
    full_ms: Vec<f64>,
    abft_ms: Vec<f64>,
    abft_checks_per_step: f64,
    export: ExportProbe,
}

impl Cycles {
    /// One cycle: per traced mode a supervised run, the untraced loop and
    /// the traced loop; for STANDARD also the guard-rail variants.
    fn cycle(&mut self, pass: &Pass, tr: &mut Tracer, checks: &mut Checks) -> Result<(), RunError> {
        let Pass {
            workload,
            deck_text,
            sim,
            scratch,
        } = *pass;
        let base = Rails::of(workload);
        let mut off = Tracer::new(false);
        let n_electrons = sim.params.n_electrons();
        let steps = sim.cfg.total_qd_steps as f64;
        let mean_ms = |o: &LoopOut| o.wall_s * 1e3 / steps;
        for (slot, &mi) in TRACED_MODES.iter().enumerate() {
            let (mode, suffix) = MODES[mi];
            let supervised = crate::e2e::with_guard_rails(workload, || {
                mode_run(workload, deck_text, mode, scratch)
            })?;
            checks.bursts(supervised.step_ms.len() as u64);
            checks.incidents(suffix, supervised.incidents);

            let plain = drive(sim, mode, base, &mut off)?;
            if workload.guarded {
                export_guard_artifacts(scratch)?;
            }
            let traced = drive(sim, mode, base, tr)?;
            if workload.guarded {
                export_guard_artifacts(scratch)?;
            }
            self.traced_runs[slot].push(tr.spans.last().map_or(0, |s| s.run));
            for (what, o) in [("untraced", &plain), ("traced", &traced)] {
                checks.bursts(o.step_ms.len() as u64);
                checks.check(
                    &format!("{what}-loop-mirrors-supervised-bits"),
                    suffix,
                    same_bits(&o.records, &supervised.records),
                );
                checks.check(
                    &format!("{what}-electron-count"),
                    suffix,
                    (o.electron_count - n_electrons).abs() <= 1e-4 * n_electrons,
                );
                checks.check(
                    &format!("{what}-no-abft-violation"),
                    suffix,
                    !o.abft_violation,
                );
            }
            self.supervised_step_ms[slot].extend_from_slice(&supervised.step_ms);
            self.plain_step_ms[slot].extend_from_slice(&plain.step_ms);
            self.traced_step_ms[slot].extend_from_slice(&traced.step_ms);
            self.pool[slot].0 += traced.pool_takes;
            self.pool[slot].1 += traced.pool_misses;

            if mode != ComputeMode::Standard {
                continue;
            }
            // Guard-rail variants against the bare loop.
            let bare = if base == Rails::NONE {
                plain
            } else {
                drive(sim, mode, Rails::NONE, &mut off)?
            };
            let events = drive(
                sim,
                mode,
                Rails {
                    level: TelemetryLevel::Events,
                    ..Rails::NONE
                },
                &mut off,
            )?;
            telemetry::sink::clear();
            telemetry::ledger::clear();
            let full = drive(
                sim,
                mode,
                Rails {
                    level: TelemetryLevel::Full,
                    ..Rails::NONE
                },
                &mut off,
            )?;
            self.export.measure(scratch, steps)?;
            let abft = drive(
                sim,
                mode,
                Rails {
                    abft: true,
                    ..Rails::NONE
                },
                &mut off,
            )?;
            self.abft_checks_per_step = abft.abft_checks as f64 / steps;
            for (what, o) in [("events", &events), ("full", &full), ("abft", &abft)] {
                checks.bursts(o.step_ms.len() as u64);
                checks.check(
                    "guard-rails-keep-bits",
                    what,
                    same_bits(&o.records, &bare.records) && !o.abft_violation,
                );
            }
            self.bare_ms.push(mean_ms(&bare));
            self.events_ms.push(mean_ms(&events));
            self.full_ms.push(mean_ms(&full));
            self.abft_ms.push(mean_ms(&abft));
        }
        Ok(())
    }

    /// Everything that is a difference or ratio of two loops. Each side
    /// is taken by its fastest sample, like the end-to-end timings the
    /// loops are compared with.
    fn report(&self, m: &mut Measured, sim: &Sim) {
        for (slot, &mi) in TRACED_MODES.iter().enumerate() {
            let suffix = MODES[mi].1;
            let (takes, misses) = self.pool[slot];
            m.set(format!("blas.pool_misses.{suffix}"), misses as f64);
            m.set(
                format!("blas.pool_hit_ratio.{suffix}"),
                if takes == 0 {
                    1.0
                } else {
                    (takes - misses) as f64 / takes as f64
                },
            );
            m.set(
                format!("trace.loop_step_ms.{suffix}"),
                floor(&self.plain_step_ms[slot]),
            );
        }
        let pooled = |v: &[Vec<f64>; 2]| median(&[floor(&v[0]), floor(&v[1])]);
        m.set(
            "trace.overhead_pct",
            (pooled(&self.traced_step_ms) / pooled(&self.plain_step_ms) - 1.0) * 100.0,
        );
        let steps_per_burst = sim.cfg.qd_steps_per_md.min(sim.cfg.total_qd_steps) as f64;
        m.set(
            "core.supervisor_ms_per_burst",
            (floor(&self.supervised_step_ms[0]) - floor(&self.plain_step_ms[0])) * steps_per_burst,
        );
        let pct = |on: &[f64]| (floor(on) / floor(&self.bare_ms) - 1.0) * 100.0;
        m.set("telemetry.overhead_pct_events", pct(&self.events_ms));
        m.set("telemetry.overhead_pct_full", pct(&self.full_ms));
        m.set("abft.overhead_pct", pct(&self.abft_ms));
        m.set("abft.checks_per_step", self.abft_checks_per_step);
        self.export.report(m);
    }
}

/// The traced pass for one workload. Returns the per-layer metrics and
/// the spans for `trace-<workload>.json`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    checks: &mut Checks,
) -> Result<(Measured, Vec<SpanRec>), RunError> {
    std::fs::create_dir_all(scratch)?;
    let mut m = Measured::default();
    let pass_start = Instant::now();
    let deck_text = workload.deck_text(seed, None);

    // The machine, first, while nothing else has touched the caches.
    let peak = host::peak_gflops_f32(5);
    let stream = host::stream(3);
    m.set("host.peak_gflops_f32", peak);
    m.set("host.stream_gbps", stream.gbps);
    m.set(
        "host.stream_array_mib",
        stream.array_bytes as f64 / (1 << 20) as f64,
    );
    m.set("host.llc_mib", stream.llc_bytes as f64 / (1 << 20) as f64);

    // Set-up under spans (run 0); every loop below clones this state.
    let mut tr = Tracer::new(true);
    verbose::set_recording(true);
    verbose::clear();
    let sim = fresh_start(&deck_text, &mut tr)?;
    verbose::set_recording(false);

    // Cycles for 70 % of the budget; the direct probes get the rest.
    let pass = Pass {
        workload,
        deck_text: &deck_text,
        sim: &sim,
        scratch,
    };
    let mut cycles = Cycles::default();
    loop {
        let cycle_start = Instant::now();
        cycles.cycle(&pass, &mut tr, checks)?;
        let next_end = pass_start.elapsed() + cycle_start.elapsed();
        if next_end.as_secs_f64() > seconds * 0.7 {
            break;
        }
    }

    // Fold the spans.
    let params = &sim.params;
    let selves = self_times_ns(&tr.spans);
    let folded = Folded {
        spans: &tr.spans,
        selves: &selves,
        params,
    };
    for (slot, &mi) in TRACED_MODES.iter().enumerate() {
        folded.mode_metrics(&mut m, checks, MODES[mi].1, &cycles.traced_runs[slot], peak);
    }
    let qxmd_ms = |name: &str| -> Vec<f64> {
        tr.spans
            .iter()
            .filter(|s| s.layer == "qxmd" && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    m.set_samples("qxmd.initial_scf_ms", &qxmd_ms("initial_scf"));
    m.set_samples("qxmd.scf_refresh_ms", &qxmd_ms("scf_refresh"));
    m.set_samples("qxmd.local_potential_ms", &qxmd_ms("local_potential"));
    m.set_samples("qxmd.md_step_us", &scaled(&qxmd_ms("md_step"), 1e3));
    let standard_runs = &cycles.traced_runs[0];
    let total_ns = |name: &str| -> u64 {
        tr.spans
            .iter()
            .filter(|s| standard_runs.contains(&s.run) && s.name == name)
            .map(SpanRec::dur_ns)
            .sum()
    };
    m.set(
        "qxmd.scf_share",
        total_ns("scf_refresh") as f64 / total_ns("burst") as f64,
    );

    // What the named layers account for: self time of every non-harness
    // span over the wall of the loops they were recorded in.
    let in_loop = |s: &SpanRec| s.run != 0;
    let wall_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| in_loop(s) && s.name == "run")
        .map(SpanRec::dur_ns)
        .sum();
    let layer_ns: u64 = tr
        .spans
        .iter()
        .zip(&selves)
        .filter(|(s, _)| in_loop(s) && s.layer != "harness")
        .map(|(_, &t)| t)
        .sum();
    let sum_over_wall = layer_ns as f64 / wall_ns as f64;
    checks.check(
        "layers-sum-over-wall",
        "0.95..1.05",
        (0.95..=1.05).contains(&sum_over_wall),
    );
    m.set("layers.sum_over_wall", sum_over_wall);
    m.set(
        "core.rollbacks",
        dcmesh::supervisor::rollback_counter().get() as f64,
    );
    m.set(
        "core.escalations",
        dcmesh::supervisor::escalation_counter().get() as f64,
    );
    cycles.report(&mut m, &sim);

    // xe-gpu: one QD step's nine BLAS calls priced by the device model.
    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let step_shapes: Vec<(usize, usize, usize)> = tr
        .spans
        .iter()
        .filter(|s| s.layer == "blas" && s.run == standard_runs[0])
        .filter(|s| s.parent.is_some_and(|p| tr.spans[p].layer == "lfd"))
        .take(N_CALL_SITES)
        .map(|s| s.shape.expect("BLAS spans carry a shape"))
        .collect();
    for (mode, suffix) in [
        (ComputeMode::Standard, "standard"),
        (ComputeMode::FloatToBf16, "bf16"),
    ] {
        let modelled: f64 = step_shapes
            .iter()
            .map(|&(m, n, k)| {
                model.gemm_seconds(&GemmDesc {
                    domain: Domain::Complex32,
                    m,
                    n,
                    k,
                    mode,
                })
            })
            .sum();
        m.set(format!("xegpu.modelled_step_us.{suffix}"), modelled * 1e6);
    }

    // Direct timed calls at the workload's shapes.
    let budget = (seconds - pass_start.elapsed().as_secs_f64()).max(1.0) / 40.0;
    direct_probes(&mut m, &sim, &deck_text, &model, scratch, budget)?;
    Ok((m, tr.spans))
}

/// Export of one `TELEMETRY=full` loop's events: how many there were,
/// how long the export took, and how fast `dcmesh-profile` reads it back.
#[derive(Default)]
struct ExportProbe {
    events_per_step: f64,
    dropped: f64,
    ledger_rows: f64,
    export_ms: Vec<f64>,
    ingest_mb_per_s: Vec<f64>,
    table_ms: Vec<f64>,
}

impl ExportProbe {
    fn measure(&mut self, scratch: &Path, steps: f64) -> std::io::Result<()> {
        self.dropped = telemetry::sink::dropped_events() as f64;
        self.events_per_step = (telemetry::sink::snapshot().len() as f64 + self.dropped) / steps;
        self.ledger_rows = telemetry::ledger::snapshot().len() as f64;
        let t = Instant::now();
        export_guard_artifacts(scratch)?;
        self.export_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let text = std::fs::read_to_string(scratch.join("events.jsonl"))?;
        let t = Instant::now();
        let trace = dcmesh_profile::ingest_jsonl(&text);
        self.ingest_mb_per_s
            .push(text.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(dcmesh_profile::gemm_table(&trace));
        black_box(dcmesh_profile::phase_table(&trace));
        self.table_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    fn report(&self, m: &mut Measured) {
        m.set("telemetry.events_per_step", self.events_per_step);
        m.set("telemetry.dropped_events", self.dropped);
        m.set("telemetry.ledger_rows", self.ledger_rows);
        m.set_samples("telemetry.export_ms", &self.export_ms);
        m.set_samples("profile.ingest_mb_per_s", &self.ingest_mb_per_s);
        m.set_samples("profile.table_ms", &self.table_ms);
    }
}

/// Direct timed calls into `mkl-lite`, `numerics`, `linalg`, `dcmesh`
/// core, `telemetry` and `xe-gpu` on the workload's own data and shapes.
fn direct_probes(
    m: &mut Measured,
    sim: &Sim,
    deck_text: &str,
    model: &xe_gpu::XeStackModel,
    scratch: &Path,
    budget: f64,
) -> Result<(), RunError> {
    let (n_grid, n_orb) = (sim.params.mesh.len(), sim.params.n_orb);
    let (psi0, psi) = (&sim.state.psi0, &sim.state.psi);
    let (one, zero) = (C32::one(), C32::zero());

    // mkl-lite: the step's two dominant CGEMM shapes under every mode.
    let mut sub = vec![zero; n_orb * n_orb];
    let mut grid_out = vec![zero; n_grid * n_orb];
    for (mode, suffix) in MODES {
        let project = with_compute_mode(mode, || {
            probe(budget, 3, 200, || {
                mkl_lite::cgemm(
                    Op::ConjTrans,
                    Op::None,
                    n_orb,
                    n_orb,
                    n_grid,
                    one,
                    psi0,
                    n_orb,
                    psi,
                    n_orb,
                    zero,
                    &mut sub,
                    n_orb,
                );
            })
        });
        m.set_samples(format!("gemm.cgemm_us.{suffix}"), &scaled(&project, 1e6));
        let apply = with_compute_mode(mode, || {
            probe(budget, 3, 200, || {
                mkl_lite::cgemm(
                    Op::None,
                    Op::None,
                    n_grid,
                    n_orb,
                    n_orb,
                    one,
                    psi0,
                    n_orb,
                    &sub,
                    n_orb,
                    zero,
                    &mut grid_out,
                    n_orb,
                );
            })
        });
        m.set_samples(
            format!("gemm.cgemm_apply_us.{suffix}"),
            &scaled(&apply, 1e6),
        );
    }
    // ...and the FP64 projection the SCF boundary runs.
    let psi64: Vec<C64> = psi
        .iter()
        .map(|z| Complex {
            re: z.re as f64,
            im: z.im as f64,
        })
        .collect();
    let mut sub64 = vec![C64::zero(); n_orb * n_orb];
    let zgemm = probe(budget, 3, 200, || {
        mkl_lite::zgemm(
            Op::ConjTrans,
            Op::None,
            n_orb,
            n_orb,
            n_grid,
            C64::one(),
            &psi64,
            n_orb,
            &psi64,
            n_orb,
            C64::zero(),
            &mut sub64,
            n_orb,
        );
    });
    m.set_samples("gemm.zgemm_us", &scaled(&zgemm, 1e6));

    // numerics: pack-time splitting / rounding of an n_grid×n_orb panel.
    // Bytes are computed (source read once, each plane written once).
    let panel: Vec<f32> = psi.iter().flat_map(|z| [z.re, z.im]).collect();
    let mut planes = vec![vec![0.0f32; panel.len()]; 3];
    let bytes = |arrays: usize| (arrays * panel.len() * 4) as f64;
    let split = probe(budget, 3, 500, || {
        let mut views: Vec<&mut [f32]> = planes.iter_mut().map(Vec::as_mut_slice).collect();
        dcmesh_numerics::split::split_slice_into(&panel, &mut views);
    });
    let gbps = |secs: &[f64], b: f64| secs.iter().map(|s| b / s / 1e9).collect::<Vec<_>>();
    m.set_samples("numerics.split3_gbps", &gbps(&split, bytes(4)));
    let round = probe(budget, 3, 500, || {
        dcmesh_numerics::bf16::round_slice_into(&panel, &mut planes[0]);
    });
    m.set_samples("numerics.round_bf16_gbps", &gbps(&round, bytes(2)));

    // linalg at n_orb: the subspace eigenproblem and both orthonormalisers.
    mkl_lite::zgemm(
        Op::ConjTrans,
        Op::None,
        n_orb,
        n_orb,
        n_grid,
        C64::one(),
        &psi64,
        n_orb,
        &psi64,
        n_orb,
        C64::zero(),
        &mut sub64,
        n_orb,
    );
    let eigh = probe(budget, 3, 100, || {
        black_box(dcmesh_linalg::eigh(&sub64, n_orb));
    });
    m.set_samples("linalg.eigh_ms", &scaled(&eigh, 1e3));
    // Orthonormalisers work in place; the copy they need is made outside
    // the clock.
    let timed_orth = |f: fn(&mut [C64], usize, usize) -> Result<(), dcmesh_linalg::OrthError>| {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < 3 || (samples.len() < 100 && start.elapsed().as_secs_f64() < budget) {
            let mut a = psi64.clone();
            let t = Instant::now();
            let ok = f(&mut a, n_grid, n_orb);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            ok.expect("SCF orbitals have a non-singular overlap");
        }
        samples
    };
    m.set_samples(
        "linalg.cholesky_orth_ms",
        &timed_orth(dcmesh_linalg::cholesky_orthonormalize),
    );
    m.set_samples(
        "linalg.lowdin_orth_ms",
        &timed_orth(dcmesh_linalg::lowdin_orthonormalize),
    );

    // dcmesh core: what the supervisor adds around a burst.
    let clone = probe(budget, 3, 200, || {
        black_box((sim.state.clone(), sim.system.clone()));
    });
    m.set_samples("core.snapshot_clone_ms", &scaled(&clone, 1e3));
    let ck = Checkpoint {
        state: sim.state.clone(),
        system: sim.system.clone(),
        steps_done: 0,
        nexc: 0.0,
    };
    let encode = probe(budget, 3, 200, || {
        black_box(ck.encode());
    });
    m.set_samples("core.ckpt_encode_ms", &scaled(&encode, 1e3));
    m.set("core.ckpt_bytes", ck.encode().as_ref().len() as f64);
    let ck_path = scratch.join("probe.ck");
    let mut io_err = None;
    let save = probe(budget, 3, 50, || {
        if let Err(e) = ck.save(&ck_path) {
            io_err = Some(e);
        }
    });
    if let Some(e) = io_err {
        return Err(e.into());
    }
    m.set_samples("core.ckpt_save_ms", &scaled(&save, 1e3));
    let load = probe(budget, 3, 50, || {
        black_box(Checkpoint::<f32>::load(&ck_path).expect("just saved"));
    });
    m.set_samples("core.ckpt_load_ms", &scaled(&load, 1e3));
    let parse = probe(budget, 10, 10_000, || {
        black_box(RunConfig::parse(black_box(deck_text)).expect("generated deck"));
    });
    m.set_samples("core.deck_parse_us", &scaled(&parse, 1e6));

    // telemetry: the disabled span path, in batches to beat the clock's
    // resolution.
    const BATCH: usize = 10_000;
    let off = probe(budget, 5, 1_000, || {
        for _ in 0..BATCH {
            drop(black_box(telemetry::span("e2e_bench_probe").enter()));
        }
    });
    m.set_samples("telemetry.span_ns_off", &scaled(&off, 1e9 / BATCH as f64));

    // xe-gpu: one pricing call.
    let desc = GemmDesc {
        domain: Domain::Complex32,
        m: n_orb,
        n: n_orb,
        k: n_grid,
        mode: ComputeMode::FloatToBf16,
    };
    let price = probe(budget, 5, 1_000, || {
        for _ in 0..BATCH {
            black_box(model.gemm_seconds(black_box(&desc)));
        }
    });
    m.set_samples(
        "xegpu.model_ns_per_call",
        &scaled(&price, 1e9 / BATCH as f64),
    );
    Ok(())
}
