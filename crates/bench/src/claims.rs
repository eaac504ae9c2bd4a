//! The paper's claims as one table.
//!
//! Every number or ordering the paper states (Tables I–VII, Figures 1–3,
//! §V-B) and every ablation DESIGN.md commits to is one [`Claim`]: an id,
//! what the paper says, what this repository computes, a tolerance kept
//! as data, and the verdict. [`evaluate`] computes them all, once; the
//! `study` binary renders the result to `REPRO.json` and
//! `target/reports/study.md` and exits 1 if any row fails, and
//! `tests/accuracy_study.rs` asserts rows of the same table by id.
//!
//! Two kinds of value never share a column ([`Ours`]): *modelled* —
//! device seconds, speedups and peaks from the `xe-gpu` model at the
//! paper's published sizes — and *measured* — numerics produced by
//! executing this repository's code on the host (trajectory deviations
//! of the laptop-scale [`accuracy_deck`], GEMM errors against an `f64`
//! product, shapes read from the live call log, deck and format fields).
//! A non-finite value fails its row whatever the comparator, so a
//! trajectory that went NaN cannot read as "deviation 0".

use dcmesh::analysis::{nan_max, DeviationSeries, Metric};
use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::perf::{figure3a, figure3b, table6, unitrace_500_steps};
use dcmesh::runner::{run_simulation, run_simulation_with_policy, RunResult};
use dcmesh::sweep::{run_mode_sweep, ModeSweep};
use dcmesh::RunError;
use dcmesh_lfd::remap::remap_occ;
use dcmesh_lfd::schedule::{
    price_qd_step, qd_step_schedule_with_policy, LfdPrecision, SystemShape,
};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{CallSite, LaserPulse, LfdParams, LfdState, Mesh3, PrecisionPolicy};
use dcmesh_numerics::error_model::product_relative_error_bound;
use dcmesh_numerics::{c32, PrecisionFormat, C32};
use dcmesh_telemetry::json;
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::gemm::kernel::matmul_reference;
use mkl_lite::{cgemm, sgemm, verbose, with_compute_mode, ComputeMode, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xe_gpu::{Engine, XeStackModel, MAX_1550_STACK};

use Check::{Above, AtMost, Recorded, Within};
use Ours::{Measured, Modelled};

/// How a row's value is compared; the tolerance is part of the row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// `|ours − paper| ≤ rel · |paper|`.
    Within { paper: f64, rel: f64 },
    /// `ours > bound`. Orderings are rows of this kind: the value is the
    /// `*_margin`, the smallest ratio between neighbours in the claimed order.
    Above(f64),
    /// `ours ≤ bound`.
    AtMost(f64),
    /// No comparison — the number is kept so the next run can be held
    /// against it.
    Recorded,
}

/// This repository's value, in the column its kind belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ours {
    /// From the `xe-gpu` device model at the paper's sizes.
    Modelled(f64),
    /// From executing this repository's code on the host.
    Measured(f64),
}

impl Ours {
    fn value(self) -> f64 {
        match self {
            Modelled(v) | Measured(v) => v,
        }
    }
}

/// A row's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Pass,
    Fail,
    Recorded,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Fail => "fail",
            Status::Recorded => "recorded",
        }
    }
}

/// One paper claim.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Stable key, `<artifact>.<what>`.
    pub id: String,
    /// The table, figure, section or ablation the row belongs to.
    pub artifact: &'static str,
    /// The paper's number or ordering.
    pub paper: String,
    /// Ours.
    pub ours: Ours,
    /// Comparator and tolerance.
    pub check: Check,
}

impl Claim {
    /// The verdict. A non-finite value is a `Fail` under every
    /// comparator, `Recorded` included.
    pub fn status(&self) -> Status {
        let v = self.ours.value();
        let holds = match self.check {
            Within { paper, rel } => (v - paper).abs() <= rel * paper.abs(),
            Above(bound) => v > bound,
            AtMost(bound) => v <= bound,
            Recorded => return if v.is_finite() { Status::Recorded } else { Status::Fail },
        };
        if holds && v.is_finite() {
            Status::Pass
        } else {
            Status::Fail
        }
    }

    fn tolerance(&self) -> String {
        match self.check {
            Within { paper, rel } if rel > 0.0 => {
                format!("{} ± {}%", number(paper), number(100.0 * rel))
            }
            Within { paper, .. } => format!("= {}", number(paper)),
            Above(bound) => format!("> {}", number(bound)),
            AtMost(bound) => format!("≤ {}", number(bound)),
            Recorded => "—".into(),
        }
    }
}

/// The evaluated table plus the one mode sweep behind its accuracy rows
/// (kept so `study` can write the Figure 1/2 series without re-running).
pub struct Study {
    pub claims: Vec<Claim>,
    pub sweep: ModeSweep,
}

/// Figure 2's y-axis floor: a zero deviation plots as `log10` of this.
pub const LOG10_FLOOR: f64 = 1e-18;

/// 1 if any row failed, else 0 — `study`'s exit status.
pub fn exit_code(claims: &[Claim]) -> u8 {
    u8::from(claims.iter().any(|c| c.status() == Status::Fail))
}

/// The accuracy deck: long enough for drift to develop (two MD steps, the
/// laser pumping throughout so the dynamics stays "highly dynamical" as
/// in the paper), small enough that the ten simulations of the table run
/// in seconds.
pub fn accuracy_deck() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 10;
    cfg.n_occ = 5;
    cfg.total_qd_steps = 300;
    cfg.qd_steps_per_md = 150;
    cfg.laser_duration_fs = 0.2;
    cfg.laser_amplitude = 0.35;
    cfg
}

/// Rows under construction; `artifact` is the section being filled.
struct Table {
    artifact: &'static str,
    rows: Vec<Claim>,
}

impl Table {
    fn row(&mut self, id: impl Into<String>, paper: impl ToString, ours: Ours, check: Check) {
        let (id, artifact, paper) = (id.into(), self.artifact, paper.to_string());
        self.rows.push(Claim { id, artifact, paper, ours, check });
    }

    /// A row whose paper value is a number matched exactly.
    fn exact(&mut self, id: impl Into<String>, paper: f64, ours: Ours) {
        self.row(id, number(paper), ours, Within { paper, rel: 0.0 });
    }
}

fn tag(label: &str) -> String {
    label.to_lowercase()
}

/// An ordering's margin — the smallest `later / earlier` over neighbours
/// of `ascending`: above 1 exactly when the sequence strictly increases;
/// NaN if any entry is.
fn min_adjacent_ratio(ascending: &[f64]) -> f64 {
    1.0 / nan_max(ascending.windows(2).map(|w| w[0] / w[1]))
}

/// Evaluates every claim. The only error is a simulation that could not
/// run at all; a run that finishes with non-finite observables fails its
/// rows instead.
pub fn evaluate() -> Result<Study, RunError> {
    let mut t = Table { artifact: "", rows: Vec::new() };
    static_tables(&mut t);
    table7(&mut t);
    let sweep = accuracy(&mut t)?;
    device_model(&mut t);
    gemm_error(&mut t);
    ablations(&mut t);
    Ok(Study { claims: t.rows, sweep })
}

/// Tables I–VI: device constants, the mode registry, decks, formats.
fn static_tables(t: &mut Table) {
    t.artifact = "Table I";
    let peaks = [
        ("FP64", 26.0),
        ("FP32", 26.0),
        ("TF32", 209.0),
        ("BF16", 419.0),
        ("FP16", 419.0),
        ("INT8", 839.0),
    ];
    let mut on_matrix_engines = 0;
    for (name, paper) in peaks {
        let (peak, engine) = MAX_1550_STACK.table1_row(name).expect("a Table I precision");
        on_matrix_engines += usize::from(engine == Engine::Matrix);
        t.exact(format!("table1.peak_tera_ops_{}", tag(name)), paper, Modelled(peak / 1e12));
    }
    t.exact("table1.matrix_engine_precisions", 4.0, Modelled(on_matrix_engines as f64));

    t.artifact = "Table II";
    let modes = [
        (ComputeMode::FloatToBf16, "FLOAT_TO_BF16", 16.0),
        (ComputeMode::FloatToBf16x2, "FLOAT_TO_BF16X2", 16.0 / 3.0),
        (ComputeMode::FloatToBf16x3, "FLOAT_TO_BF16X3", 8.0 / 3.0),
        (ComputeMode::FloatToTf32, "FLOAT_TO_TF32", 8.0),
        (ComputeMode::Complex3m, "COMPLEX_3M", 4.0 / 3.0),
    ];
    let mut env_values_parsed = 0;
    for (mode, env, paper) in modes {
        env_values_parsed += usize::from(ComputeMode::from_env_value(env) == Ok(mode));
        // Table I peaks over the product count: BF16 is 419/26 = 16.1.
        let id = format!("table2.peak_speedup_{}", tag(mode.label()));
        let speedup = Modelled(MAX_1550_STACK.theoretical_speedup(mode));
        t.row(id, number(paper), speedup, Within { paper, rel: 0.01 });
    }
    t.exact("table2.env_values_parsed", 5.0, Measured(env_values_parsed as f64));

    t.artifact = "Table III";
    let deck = RunConfig::preset(SystemPreset::Pto135);
    t.exact("table3.timestep_au", 0.02, Measured(deck.dt));
    t.exact("table3.total_qd_steps", 21_000.0, Measured(deck.total_qd_steps as f64));
    // 21 000 × 0.02 a.u. = 10.16 fs; the paper rounds to 10.
    let check = Within { paper: 10.0, rel: 0.02 };
    t.row("table3.total_time_fs", "10", Measured(deck.total_time_fs()), check);

    t.artifact = "Table IV";
    for (name, exponent, mantissa) in
        [("FP64", 11, 52), ("FP32", 8, 23), ("TF32", 8, 10), ("BF16", 8, 7)]
    {
        let f = PrecisionFormat::by_name(name).expect("a Table IV format");
        let id = |field: &str| format!("table4.{}_{field}_bits", tag(name));
        t.exact(id("exponent"), f64::from(exponent), Measured(f64::from(f.exponent_bits)));
        t.exact(id("mantissa"), f64::from(mantissa), Measured(f64::from(f.mantissa_bits)));
    }

    t.artifact = "Table V";
    for (preset, atoms, mesh, n_orb) in
        [(SystemPreset::Pto40, 40.0, 64.0, 256.0), (SystemPreset::Pto135, 135.0, 96.0, 1024.0)]
    {
        let deck = RunConfig::preset(preset);
        let built = dcmesh_qxmd::pto_supercell(deck.supercell).len();
        t.exact(format!("table5.pto{atoms}_atoms"), atoms, Measured(built as f64));
        t.exact(
            format!("table5.pto{atoms}_mesh_per_axis"),
            mesh,
            Measured(deck.mesh_points as f64),
        );
        t.exact(format!("table5.pto{atoms}_n_orb"), n_orb, Measured(deck.n_orb as f64));
    }

    t.artifact = "Table VI";
    for r in table6() {
        let id = format!("table6.{}_max_observed_speedup", tag(r.mode.label()));
        let paper = format!("≤ theoretical {:.2}x", r.theoretical);
        t.row(id, paper, Modelled(r.max_observed), AtMost(r.theoretical));
        if r.mode == ComputeMode::FloatToBf16 {
            let check = Within { paper: 3.91, rel: 0.13 };
            t.row("table6.bf16_speedup_vs_paper", "3.91x", Modelled(r.max_observed), check);
        }
    }
}

/// Table VII: m, n, k of the `remap_occ` projection, read from the live
/// `MKL_VERBOSE`-style call log of the real code path at 1/16 of the
/// orbitals on a 16³ mesh, then scaled back to the 40-atom system. The
/// paper logged n = 3978 at N_orb = 4096 where the structural value is
/// N_orb − N_occ = 3968; that row's tolerance is the difference.
fn table7(t: &mut Table) {
    t.artifact = "Table VII";
    const SCALE: usize = 16;
    const MESH: usize = 16;
    for (n_orb, paper_n, rel) in
        [(256, 128.0, 0.0), (1024, 896.0, 0.0), (2048, 1920.0, 0.0), (4096, 3978.0, 0.003)]
    {
        let params = LfdParams {
            mesh: Mesh3::cubic(MESH, 0.6),
            n_orb: n_orb / SCALE,
            n_occ: 128 / SCALE,
            dt: 0.02,
            vnl_strength: 0.1,
            taylor_order: 4,
            laser: LaserPulse::off(),
            induced_coupling: 0.0,
        };
        let state = LfdState::<f32>::initialize(&params, cosine_potential(&params.mesh, 0.1));
        verbose::clear();
        verbose::set_recording(true);
        let _ = remap_occ(&params, &state);
        verbose::set_recording(false);
        let logged = verbose::drain().into_iter().next().expect("the projection is logged first");
        let id = |dim: &str| format!("table7.n_orb{n_orb}_{dim}");
        t.exact(id("m"), 128.0, Measured((logged.m * SCALE) as f64));
        let n = Measured((logged.n * SCALE) as f64);
        t.row(id("n"), number(paper_n), n, Within { paper: paper_n, rel });
        t.exact(id("k"), 262_144.0, Measured((logged.k * (64 / MESH).pow(3)) as f64));
    }
}

/// Figures 1 and 2, the SCF-interval ablation and the per-callsite
/// policies: ten simulations of [`accuracy_deck`] — one mode sweep, one
/// BF16 run refreshed more often, three mixed policies.
fn accuracy(t: &mut Table) -> Result<ModeSweep, RunError> {
    let deck = accuracy_deck();
    let sweep = run_mode_sweep::<f32>(&deck, |_| {})?;
    let run_of = |mode: ComputeMode| -> &RunResult {
        &sweep.runs.iter().find(|(m, _)| *m == mode).expect("an alternative mode").1
    };
    let bf16_run = run_of(ComputeMode::FloatToBf16);

    t.artifact = "Fig. 1";
    for metric in Metric::FIGURE1 {
        let name = metric.name();
        let devs = sweep.deviations(metric);
        for (mode, series) in &devs {
            let id = format!("fig1.{name}.max_abs_{}", tag(mode.label()));
            t.row(id, "—", Measured(series.max_abs()), Recorded);
        }
        let series = |mode| &devs.iter().find(|(m, _)| *m == mode).expect("an alternative mode").1;
        let bf16 = series(ComputeMode::FloatToBf16);
        let order = [
            ComputeMode::FloatToBf16x3,
            ComputeMode::FloatToBf16x2,
            ComputeMode::FloatToTf32,
            ComputeMode::FloatToBf16,
        ];
        let paper = "deviation: BF16 > TF32 > BF16x2 > BF16x3";
        let margin = Measured(min_adjacent_ratio(&order.map(|mode| series(mode).max_abs())));
        t.row(format!("fig1.{name}.ordering_margin"), paper, margin, Above(1.0));
        let paper = "BF16x3 is the most accurate, BF16 clearly the least";
        let ratio = bf16.max_abs() / series(ComputeMode::FloatToBf16x3).max_abs();
        t.row(format!("fig1.{name}.bf16_over_bf16x3"), paper, Measured(ratio), Above(10.0));

        let paper = "deviation grows over the simulation";
        let growth = Measured(bf16.growth_ratio());
        t.row(format!("fig1.{name}.bf16_last_over_first_quarter"), paper, growth, Above(1.0));
        // Peak deviation over peak signal: nexc starts at 0 and javg
        // crosses it, so a pointwise ratio has no meaning there.
        let signal = nan_max(bf16.points.iter().map(|p| p.reference.abs()));
        let paper = "relative deviations in the order of 1%";
        let relative = Measured(bf16.max_abs() / signal);
        t.row(format!("fig1.{name}.bf16_over_signal"), paper, relative, AtMost(0.05));
    }
    // 3M keeps FP32 element precision, so its per-step seed is ~eps_f32;
    // compared early, before trajectory divergence amplifies every seed
    // to a similar level (far stronger on this deck than at 1024 orbitals).
    let reference = &sweep.reference.records[..100];
    let early = |run: &RunResult| {
        DeviationSeries::build(Metric::Ekin, &run.records[..100], reference).max_abs()
    };
    let (c3m, bf16) = (early(run_of(ComputeMode::Complex3m)), early(bf16_run));
    let paper = "a different rounding path: nonzero";
    t.row("fig1.ekin.complex_3m_early_max_abs", paper, Measured(c3m), Above(0.0));
    let paper = "3M stays near FP32";
    t.row("fig1.ekin.complex_3m_over_bf16_early", paper, Measured(c3m / bf16), AtMost(1.0 / 3.0));

    t.artifact = "Fig. 2";
    let mut nonfinite = 0;
    for (mode, series) in &sweep.deviations(Metric::Javg) {
        nonfinite += series.points.iter().filter(|p| !p.abs_deviation.is_finite()).count();
        let log = series.log10_series(LOG10_FLOOR);
        let last = log.last().expect("a recorded step").1;
        t.row(format!("fig2.final_log10_{}", tag(mode.label())), "—", Measured(last), Recorded);
        if *mode == ComputeMode::FloatToTf32 {
            let tail = log[log.len() / 2..].iter().map(|&(_, y)| y).fold(f64::MIN, f64::max);
            t.row("fig2.tf32_tail_max_log10", "above the floor", Measured(tail), Above(-17.0));
        }
    }
    t.row("fig2.nonfinite_points", "no divergence", Measured(nonfinite as f64), AtMost(0.0));

    t.artifact = "Ablation: SCF interval";
    let mut frequent = deck.clone();
    frequent.qd_steps_per_md = 30;
    let frequent_run =
        with_compute_mode(ComputeMode::FloatToBf16, || run_simulation::<f32>(&frequent))?;
    let drift = |run: &RunResult| nan_max(run.scf_drift.iter().copied());
    let (rare, often) = (drift(bf16_run), drift(&frequent_run));
    for (interval, value) in [(deck.qd_steps_per_md, rare), (frequent.qd_steps_per_md, often)] {
        let id = format!("ablate_scf_interval.max_overlap_defect_every_{interval}");
        t.row(id, "—", Measured(value), Recorded);
    }
    let paper = "the FP64 refresh bounds the drift: longer bursts absorb more";
    t.row("ablate_scf_interval.drift_ratio", paper, Measured(rare / often), Above(1.0));

    // §IV-D's "left to future work": accuracy measured on the deck, speed
    // modelled at 135 atoms, one row each. Uniform BF16 is the sweep's run.
    t.artifact = "Per-callsite policy";
    let bf16 = ComputeMode::FloatToBf16;
    let fp32_remap = PrecisionPolicy::uniform(bf16)
        .with_site(CallSite::RemapProjection, ComputeMode::Standard)
        .with_site(CallSite::RemapWeights, ComputeMode::Standard);
    let policies = [
        ("uniform", PrecisionPolicy::uniform(bf16)),
        ("fast_propagation", PrecisionPolicy::fast_propagation(bf16)),
        ("safe_observables", PrecisionPolicy::safe_observables(bf16)),
        ("fp32_remap", fp32_remap),
    ];
    let model = XeStackModel::new(MAX_1550_STACK);
    let step_seconds = |policy: &PrecisionPolicy| {
        let fp32 = LfdPrecision::Fp32(ComputeMode::Standard);
        let schedule = qd_step_schedule_with_policy(SystemShape::pto135(), fp32, policy);
        price_qd_step(&model, &schedule, None)
    };
    let fp32_step = step_seconds(&PrecisionPolicy::uniform(ComputeMode::Standard));
    for (name, policy) in &policies {
        let mixed;
        let run = if *policy == PrecisionPolicy::uniform(bf16) {
            bf16_run
        } else {
            let run_mixed = || run_simulation_with_policy::<f32>(&deck, policy);
            mixed = with_compute_mode(ComputeMode::Standard, run_mixed)?;
            &mixed
        };
        let reference = &sweep.reference.records;
        for metric in [Metric::Ekin, Metric::Nexc] {
            let dev = DeviationSeries::build(metric, &run.records, reference).max_abs();
            t.row(format!("policy.{name}.max_abs_{}", metric.name()), "—", Measured(dev), Recorded);
        }
        let speedup = Modelled(fp32_step / step_seconds(policy));
        t.row(format!("policy.{name}.speedup_135_atoms"), "—", speedup, Recorded);
    }
    Ok(sweep)
}

/// Figures 3a and 3b on the device model at the published sizes.
fn device_model(t: &mut Table) {
    t.artifact = "Fig. 3a";
    for (system, shape) in [("pto40", SystemShape::pto40()), ("pto135", SystemShape::pto135())] {
        let bars = figure3a(shape);
        let seconds = |label: &str| {
            bars.iter().find(|b| b.label == label).expect("a Figure 3a bar").seconds_500_steps
        };
        for bar in &bars {
            // §V-C quotes three 135-atom times; FP32 anchors the model's
            // one calibrated constant, FP64 and BF16 are emergent.
            let (paper, check) = match (system, bar.label) {
                ("pto135", "FP64") => ("> 2800", Within { paper: 2800.0, rel: 0.30 }),
                ("pto135", "FP32") => ("1472", Within { paper: 1472.0, rel: 0.20 }),
                ("pto135", "BF16") => ("972", Within { paper: 972.0, rel: 0.25 }),
                _ => ("—", Recorded),
            };
            let id = format!("fig3a.{system}.seconds_500_steps_{}", tag(bar.label));
            t.row(id, paper, Modelled(bar.seconds_500_steps), check);
        }
        let (fp32, fp64_over_fp32) = (seconds("FP32"), Modelled(seconds("FP64") / seconds("FP32")));
        if system == "pto135" {
            let order = ["BF16", "TF32", "BF16x2", "BF16x3", "Complex_3m", "FP32", "FP64"];
            let ratio = Modelled(min_adjacent_ratio(&order.map(seconds)));
            t.row("fig3a.pto135.ordering_margin", order.join(" < "), ratio, Above(1.0));
            let paper = "1.35x (abstract), 1472/972 = 1.51x (§V-C)";
            let check = Within { paper: 1.51, rel: 0.14 };
            t.row("fig3a.pto135.bf16_speedup", paper, Modelled(fp32 / seconds("BF16")), check);
            let check = Within { paper: 1.9, rel: 0.2 };
            t.row("fig3a.pto135.fp64_over_fp32", "≈ 2x slower (2800/1472)", fp64_over_fp32, check);
        } else {
            let change = nan_max(
                ComputeMode::ALTERNATIVE.iter().map(|m| (fp32 - seconds(m.label())).abs() / fp32),
            );
            let paper = "very little change between FP32 and the compute modes";
            t.row("fig3a.pto40.max_mode_change_over_fp32", paper, Modelled(change), AtMost(0.15));
            let paper = "only FP64 vs FP32 changes significantly";
            t.row("fig3a.pto40.fp64_over_fp32", paper, fp64_over_fp32, Above(1.5));
            // Artifact A1's route: the unitrace total of 500 priced steps.
            let tracer = unitrace_500_steps(shape, LfdPrecision::Fp32(ComputeMode::Standard));
            let mismatch = Modelled((tracer.total_seconds() - fp32).abs() / fp32);
            let paper = "Total L0 time is the bar";
            t.row("fig3a.pto40.unitrace_total_mismatch", paper, mismatch, AtMost(1e-9));
        }
    }

    t.artifact = "Fig. 3b";
    for mode in ComputeMode::ALTERNATIVE {
        let label = tag(mode.label());
        let points = figure3b(mode);
        for p in &points {
            let id = format!("fig3b.{label}.speedup_n_orb{}", p.n_orb);
            t.row(id, "—", Modelled(p.speedup), Recorded);
        }
        let speedups: Vec<f64> = points.iter().map(|p| p.speedup).collect();
        // 3M removes a quarter of the multiplications at every size.
        if mode.uses_matrix_engines() {
            let paper = "least improvement at the smallest N_orb, most at the largest";
            let ratio = Modelled(min_adjacent_ratio(&speedups));
            t.row(format!("fig3b.{label}.rise_margin"), paper, ratio, Above(1.0));
        }
    }
}

/// Max relative elementwise error of an `m × n × k` real GEMM in `mode`
/// against the `f64` product. Inputs are positive — the no-cancellation
/// regime of the §V-B model — so the error reflects the format, not the
/// data.
fn gemm_max_rel_error(mode: ComputeMode, m: usize, n: usize, k: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(0.1f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(0.1f32..1.0)).collect();
    let widen = |x: &[f32]| x.iter().map(|&v| f64::from(v)).collect::<Vec<f64>>();
    let exact = matmul_reference(&widen(&a), &widen(&b), m, n, k);
    let mut c = vec![0.0f32; m * n];
    with_compute_mode(mode, || sgemm(Op::None, Op::None, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n));
    nan_max(c.iter().zip(&exact).map(|(&x, &y)| ((f64::from(x) - y) / y).abs()))
}

/// §V-B and the split-depth ablation: measured GEMM error per mode under
/// the a-priori bound — `error_model`'s `2⁻ⁿ + o(2⁻ⁿ)` for inputs of `n`
/// explicit mantissa bits, plus `k·2⁻²⁴` for the FP32 accumulation every
/// mode shares — and, where the input rounding dominates, not rising
/// with `k`.
fn gemm_error(t: &mut Table) {
    let (m, n, k) = (48, 48, 1024);
    let modes = [
        ComputeMode::Standard,
        ComputeMode::FloatToBf16,
        ComputeMode::FloatToTf32,
        ComputeMode::FloatToBf16x2,
        ComputeMode::FloatToBf16x3,
    ];
    let errors = modes.map(|mode| gemm_max_rel_error(mode, m, n, k));
    let [fp32, x1, _, x2, x3] = errors;

    t.artifact = "§V-B";
    for (mode, error) in modes.iter().zip(errors) {
        let bits = mode.effective_mantissa_bits() - 1;
        let bound = product_relative_error_bound(bits) + k as f64 * 2f64.powi(-24);
        let id = format!("sec5b.{}_max_rel_error_k{k}", tag(mode.label()));
        t.row(id, format!("≤ 2^-{bits} + k·2^-24"), Measured(error), AtMost(bound));
    }
    for mode in [ComputeMode::FloatToBf16, ComputeMode::FloatToTf32] {
        let growth = gemm_max_rel_error(mode, m, n, 4096) / gemm_max_rel_error(mode, m, n, 64);
        let id = format!("sec5b.{}_error_k4096_over_k64", tag(mode.label()));
        t.row(id, "independent of matrix size", Measured(growth), AtMost(2.0));
    }

    t.artifact = "Ablation: split depth";
    let paper = "each split term buys ~8 bits, down to the FP32 accumulation floor";
    t.row("ablate_split_depth.bf16_over_bf16x2_error", paper, Measured(x1 / x2), Above(128.0));
    t.row("ablate_split_depth.bf16x3_over_bf16x2_error", paper, Measured(x3 / x2), AtMost(1.0));
    let paper = "BF16x3 comparable to FP32";
    t.row("ablate_split_depth.bf16x3_over_fp32_error", paper, Measured(x3 / fp32), AtMost(4.0));
    let model = XeStackModel::new(MAX_1550_STACK);
    let depths = [ComputeMode::FloatToBf16x3, ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16];
    let speedups =
        depths.map(|mode| model.gemm_speedup_vs_fp32(Domain::Complex32, 128, 3968, 262_144, mode));
    for (mode, speedup) in depths.iter().zip(speedups) {
        let id = format!("ablate_split_depth.{}_speedup", tag(mode.label()));
        let paper = format!("{} component products", mode.component_products());
        t.row(id, paper, Modelled(speedup), Recorded);
    }
    let (paper, margin) = ("every extra term costs speed", Modelled(min_adjacent_ratio(&speedups)));
    t.row("ablate_split_depth.speedup_fall_margin", paper, margin, Above(1.0));
}

/// The 3M-vs-4M and m-dimension ablations.
fn ablations(t: &mut Table) {
    let model = XeStackModel::new(MAX_1550_STACK);

    t.artifact = "Ablation: 3M vs 4M";
    let mut rng = StdRng::seed_from_u64(11);
    let (m, n, k) = (40, 40, 2048);
    let mut random = |len: usize| -> Vec<C32> {
        (0..len).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    };
    let (a, b) = (random(m * k), random(k * n));
    let product = |mode| {
        let mut c = vec![C32::zero(); m * n];
        with_compute_mode(mode, || {
            cgemm(Op::None, Op::None, m, n, k, C32::one(), &a, k, &b, n, C32::zero(), &mut c, n)
        });
        c
    };
    let (c4, c3) = (product(ComputeMode::Standard), product(ComputeMode::Complex3m));
    let diff = nan_max(c4.iter().zip(&c3).map(|(x, y)| (x.to_c64() - y.to_c64()).abs()));
    let scale = nan_max(c4.iter().map(|z| z.to_c64().abs()));
    let paper = "different rounding paths: never bit-identical";
    t.row("ablate_3m.max_abs_diff", paper, Measured(diff), Above(0.0));
    let paper = "the same result up to cancellation";
    t.row("ablate_3m.max_diff_over_output_scale", paper, Measured(diff / scale), AtMost(1e-5));
    for (name, (m, n, k)) in
        [("remap_sweep", (128, 3968, 262_144)), ("nlp_project_135", (1024, 1024, 884_736))]
    {
        let speedup =
            model.gemm_speedup_vs_fp32(Domain::Complex32, m, n, k, ComputeMode::Complex3m);
        let check = Within { paper: 4.0 / 3.0, rel: 0.01 };
        t.row(format!("ablate_3m.speedup_{name}"), "4/3", Modelled(speedup), check);
    }

    // The paper blames 3.91x-of-16x on m = 128 keeping the call
    // bandwidth-bound: hold n, k at the remap shape and vary m.
    t.artifact = "Ablation: m dimension";
    let bf16 = ComputeMode::FloatToBf16;
    let sizes = [32, 64, 128, 256, 512, 1024, 2048, 4096];
    let speedups =
        sizes.map(|m| model.gemm_speedup_vs_fp32(Domain::Complex32, m, 3968, 262_144, bf16));
    for (m, speedup) in sizes.iter().zip(speedups) {
        t.row(format!("ablate_m_dim.bf16_speedup_m{m}"), "—", Modelled(speedup), Recorded);
    }
    let ratio = Modelled(min_adjacent_ratio(&speedups));
    t.row("ablate_m_dim.rise_margin", "small m starves the arrays", ratio, Above(1.0));
    let memory_over_compute = |m| {
        let d = GemmDesc { domain: Domain::Complex32, m, n: 3968, k: 262_144, mode: bf16 };
        Modelled(model.gemm_memory_seconds(&d) / model.gemm_compute_seconds(&d))
    };
    let paper = "m = 128 is bandwidth-bound";
    t.row("ablate_m_dim.memory_over_compute_m128", paper, memory_over_compute(128), Above(1.0));
    let paper = "a fat panel reaches the compute roof";
    t.row("ablate_m_dim.memory_over_compute_m512", paper, memory_over_compute(512), AtMost(1.0));
}

/// A value as the reports print it: integers plainly, the rest to four
/// significant digits.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e9 {
        format!("{v:.0}")
    } else if (1e-3..1e6).contains(&v.abs()) {
        let digits = (3 - v.abs().log10().floor().clamp(-3.0, 3.0) as i32) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// `REPRO.json`: one object per claim under a date, the counts on top.
pub fn to_json(claims: &[Claim], date: &str) -> String {
    let count = |s: Status| claims.iter().filter(|c| c.status() == s).count();
    let rows: Vec<String> = claims
        .iter()
        .map(|c| {
            let (modelled, measured) = match c.ours {
                Modelled(v) => (json::number(v), "null".to_string()),
                Measured(v) => ("null".to_string(), json::number(v)),
            };
            let (kind, data) = match c.check {
                Within { paper, rel } => {
                    ("within", format!(",\"paper\":{},\"rel\":{}", json::number(paper), json::number(rel)))
                }
                Above(bound) => ("above", format!(",\"bound\":{}", json::number(bound))),
                AtMost(bound) => ("at_most", format!(",\"bound\":{}", json::number(bound))),
                Recorded => ("recorded", String::new()),
            };
            format!(
                "    {{\"id\":{},\"artifact\":{},\"paper\":{},\"modelled\":{modelled},\
                 \"measured\":{measured},\"check\":{{\"kind\":\"{kind}\"{data}}},\"status\":\"{}\"}}",
                json::escape_string(&c.id),
                json::escape_string(c.artifact),
                json::escape_string(&c.paper),
                c.status().name()
            )
        })
        .collect();
    format!(
        "{{\n  \"study\": \"Impact of Varying BLAS Precision on DCMESH\",\n  \"date\": \"{date}\",\n  \
         \"columns\": \"modelled = xe-gpu device model at the paper's sizes; measured = this \
         repository's numerics executed on the host at laptop scale\",\n  \
         \"pass\": {}, \"fail\": {}, \"recorded\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        count(Status::Pass),
        count(Status::Fail),
        count(Status::Recorded),
        rows.join(",\n")
    )
}

/// `study.md`: one table per artifact, in evaluation order.
pub fn to_markdown(claims: &[Claim], date: &str) -> String {
    let mut out = format!("# Reproduction study — {date}\n");
    for (i, c) in claims.iter().enumerate() {
        if i == 0 || claims[i - 1].artifact != c.artifact {
            out.push_str(&format!("\n## {}\n\n", c.artifact));
            out.push_str("| claim | paper | modelled | measured | tolerance | status |\n|---|---|---|---|---|---|\n");
        }
        let (modelled, measured) = match c.ours {
            Modelled(v) => (number(v), String::new()),
            Measured(v) => (String::new(), number(v)),
        };
        let (id, paper, tolerance, status) = (&c.id, &c.paper, c.tolerance(), c.status().name());
        out.push_str(&format!(
            "| {id} | {paper} | {modelled} | {measured} | {tolerance} | {status} |\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh::analysis::DeviationPoint;

    fn claim(id: &str, value: f64, check: Check) -> Claim {
        Claim {
            id: id.into(), artifact: "Fig. 1", paper: "—".into(), ours: Measured(value), check
        }
    }

    #[test]
    fn every_comparator_passes_inside_and_fails_outside_its_band() {
        let within = Check::Within { paper: 1472.0, rel: 0.2 };
        for (value, check, expected) in [
            (1472.0 * 1.19, within, Status::Pass),
            (1472.0 * 0.81, within, Status::Pass),
            (1472.0 * 1.21, within, Status::Fail),
            (1472.0 * 0.79, within, Status::Fail),
            (3968.0, Check::Within { paper: 3978.0, rel: 0.003 }, Status::Pass),
            (3960.0, Check::Within { paper: 3978.0, rel: 0.003 }, Status::Fail),
            (1.0 + 1e-9, Check::Above(1.0), Status::Pass),
            (1.0, Check::Above(1.0), Status::Fail),
            (0.05, Check::AtMost(0.05), Status::Pass),
            (0.05 + 1e-9, Check::AtMost(0.05), Status::Fail),
            (123.0, Check::Recorded, Status::Recorded),
        ] {
            assert_eq!(claim("x", value, check).status(), expected, "{value} under {check:?}");
        }
    }

    #[test]
    fn a_non_finite_value_fails_under_every_comparator() {
        let checks = [
            Check::Within { paper: 1.0, rel: 0.5 },
            Check::Above(0.0),
            Check::AtMost(1.0),
            Check::Recorded,
        ];
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for check in checks {
                assert_eq!(
                    claim("x", value, check).status(),
                    Status::Fail,
                    "{value} under {check:?}"
                );
            }
        }
    }

    /// Fails at the parent: `max_abs` folded with `f64::max`, which drops
    /// NaN, so a diverged TF32 run read as deviation 0 and `bf16 > tf32`
    /// passed.
    #[test]
    fn a_series_with_one_nan_point_has_a_nan_maximum_and_fails_its_row() {
        let point = |abs_deviation| DeviationPoint { time_fs: 0.0, abs_deviation, reference: 1.0 };
        let tf32 = DeviationSeries {
            metric: Metric::Ekin,
            points: vec![point(1e-4), point(f64::NAN), point(2e-4)],
        };
        assert!(tf32.max_abs().is_nan());
        let bf16_over_tf32 =
            claim("fig1.ekin.bf16_over_tf32", 1e-3 / tf32.max_abs(), Check::Above(1.0));
        assert_eq!(bf16_over_tf32.status(), Status::Fail);
        assert_eq!(
            claim("fig1.ekin.max_abs_tf32", tf32.max_abs(), Check::Recorded).status(),
            Status::Fail
        );
        // An ordering with a NaN member fails as a whole.
        assert!(min_adjacent_ratio(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(min_adjacent_ratio(&[1.0, 2.0, 3.0]) > 1.0);
        assert!(min_adjacent_ratio(&[1.0, 3.0, 2.0]) < 1.0);
    }

    #[test]
    fn ids_are_unique() {
        // Every section but the ten simulations (tests/accuracy_study.rs
        // checks the whole table, which it has to evaluate anyway).
        let mut t = Table { artifact: "", rows: Vec::new() };
        static_tables(&mut t);
        table7(&mut t);
        device_model(&mut t);
        gemm_error(&mut t);
        ablations(&mut t);
        let ids: std::collections::BTreeSet<&str> = t.rows.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), t.rows.len());
        assert!(t.rows.iter().all(|c| c.status() != Status::Fail));
    }

    #[test]
    fn a_failed_row_makes_the_exit_status_one() {
        let good = vec![claim("a", 2.0, Check::Above(1.0)), claim("b", 7.0, Check::Recorded)];
        assert_eq!(exit_code(&good), 0);
        let mut doctored = good.clone();
        doctored[0].ours = Measured(0.5);
        assert_eq!(exit_code(&doctored), 1);
    }

    #[test]
    fn repro_json_round_trips_and_keeps_the_columns_apart() {
        let mut claims = vec![
            claim("fig1.ekin.bf16_over_tf32", 7.25, Check::Above(1.0)),
            claim("fig1.\"quoted\"", f64::NAN, Check::Recorded),
            claim("table7.n_orb4096_n", 3968.0, Check::Within { paper: 3978.0, rel: 0.003 }),
        ];
        claims[2].ours = Modelled(3968.0);
        let text = to_json(&claims, "2026-10-05");
        let doc = json::parse(&text).expect("REPRO.json parses");
        assert_eq!(json::parse(&json::dump(&doc)).expect("re-parses"), doc);
        assert_eq!(doc.get("date").and_then(|d| d.as_str()), Some("2026-10-05"));
        assert_eq!(doc.get("fail").and_then(|n| n.as_f64()), Some(1.0));
        let rows = doc.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(rows.len(), claims.len());
        for (row, c) in rows.iter().zip(&claims) {
            assert_eq!(row.get("id").and_then(|v| v.as_str()), Some(c.id.as_str()));
            assert_eq!(row.get("status").and_then(|v| v.as_str()), Some(c.status().name()));
            let (modelled, measured) = (row.get("modelled").unwrap(), row.get("measured").unwrap());
            let filled = [modelled, measured].iter().filter(|v| v.as_f64().is_some()).count();
            assert!(filled <= 1, "row {} mixes modelled and measured", c.id);
        }
        assert_eq!(rows[0].get("measured").and_then(|v| v.as_f64()), Some(7.25));
        assert_eq!(rows[2].get("modelled").and_then(|v| v.as_f64()), Some(3968.0));
        assert_eq!(
            rows[2].get("check").and_then(|c| c.get("rel")).and_then(|v| v.as_f64()),
            Some(0.003)
        );
    }

    #[test]
    fn markdown_groups_rows_by_artifact() {
        let mut claims = vec![claim("a", 1.5, Check::Above(1.0)), claim("b", 2.0, Check::Recorded)];
        claims[1].artifact = "Fig. 2";
        let md = to_markdown(&claims, "2026-10-05");
        assert!(md.contains("## Fig. 1\n") && md.contains("## Fig. 2\n"), "{md}");
        assert!(md.contains("| a | — |  | 1.500 | > 1 | pass |"), "{md}");
    }
}
