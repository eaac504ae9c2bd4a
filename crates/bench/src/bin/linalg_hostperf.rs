//! `linalg_hostperf`: host-side FP64-boundary baseline (`BENCH_linalg.json`).
//!
//! The layer benchmark under `linalg.*_ms` / `qxmd.scf_refresh_ms` of the
//! end-to-end trace: the public entry points the SCF boundary is made of,
//! at 16, 64, 96 and 256 orbitals on the 12³ mesh (256: `eigh` only —
//! 256 orbitals are past what the mesh decks run).
//!
//! * `eigh` on two inputs: `overlap`, a near-identity `S = I + 10⁻³·N`
//!   (what Löwdin diagonalises), and `ritz`, a four-fold-degenerate
//!   diagonal plus a 10⁻³ coupling (what Rayleigh–Ritz sees on plane
//!   waves in a weak potential).
//! * `lowdin_orthonormalize` / `cholesky_orthonormalize` on an
//!   orthonormal 1728 × n column set with 10⁻³ noise.
//! * a whole `scf_refresh` of a drifted `f32` state.
//!
//! Per row: ns per call (fastest and median of at least five single-call
//! batches, input copies made off the clock) and the accuracy the call
//! delivered next to the bound it must meet — for `eigh` the
//! eigen-residual `‖AV − VΛ‖_max` and unitarity defect `‖V†V − I‖_max`
//! against `8·n·ε·‖A‖_F`, for the orthonormalisers and the refresh the
//! output's `‖Ψ†Ψ − I‖_max`. Speed without that column would not be a
//! result: this is the error-resetting step of the precision study.
//!
//! Every row runs on the rayon pool at the machine's thread count, which
//! the report records (`threads`): `eigh` is sequential, the level-3 calls
//! of Löwdin, Cholesky-QR and the refresh split where the GEMM driver
//! splits them.
//!
//! Usage: `linalg_hostperf [--out PATH] [--seconds-per-row F] [--label L]
//! [--enforce-bounds] [--min-speedup SERIES@ENTRY=F]...`
//!
//! `--label L` dates the history entry `<today>-L`, so a run against the
//! parent library (`--label parent`) stays in the history beside the same
//! day's run of the change. `--min-speedup SERIES@ENTRY=F` (repeatable)
//! fails unless row `SERIES` (`eigh_overlap_64`, `scf_refresh_12x96`, …)
//! is at least `F` times faster than the same series of the history
//! entry dated `ENTRY` already in `--out`. A gate names its entry because
//! every perf PR leaves its own `-parent` entry behind: the 3× `eigh`
//! gate is against the cyclic-Jacobi library (`2026-10-01-parent`), the
//! 1.2× `scf_refresh` gate against the full-product ZHERK one
//! (`2026-10-02-parent`).

use dcmesh_bench::report::{civil_date_utc, merged_history};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_linalg::ops::{frobenius_norm, hermitian_from_fn, matmul, unitarity_defect};
use dcmesh_linalg::orth::orthonormality_defect;
use dcmesh_linalg::{cholesky_orthonormalize, eigh, lowdin_orthonormalize};
use dcmesh_numerics::{c64, Complex, C64};
use dcmesh_qxmd::scf_refresh;
use dcmesh_telemetry::json::{self, JsonValue};
use std::hint::black_box;
use std::time::Instant;

const MESH_POINTS: usize = 12;
const EIGH_ORBITALS: [usize; 4] = [16, 64, 96, 256];
const MESH_ORBITALS: [usize; 3] = [16, 64, 96];
/// The documented ceilings of the orthonormalisers' and the refresh's
/// output defect (the unit tests assert the same numbers).
const LOWDIN_BOUND: f64 = 1e-11;
const CHOLESKY_BOUND: f64 = 1e-10;
const REFRESH_BOUND: f64 = 1e-10;

/// Uniform values in [−½, ½) from a fixed-seed LCG: the inputs are the
/// same bytes on every host and every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

struct Row {
    kernel: &'static str,
    input: &'static str,
    n_orb: usize,
    min_ns: f64,
    median_ns: f64,
    samples: usize,
    /// `‖AV − VΛ‖_max` for `eigh`, the output's `‖Ψ†Ψ − I‖_max` otherwise.
    residual: f64,
    /// `‖V†V − I‖_max`; `None` where the residual already is the
    /// orthonormality measure.
    unitarity: Option<f64>,
    bound: f64,
}

impl Row {
    /// The row's name in the dated history (`<series>_ns_per_call`).
    fn series(&self) -> String {
        match self.kernel {
            "eigh" => format!("eigh_{}_{}", self.input, self.n_orb),
            kernel => format!("{kernel}_{MESH_POINTS}x{}", self.n_orb),
        }
    }

    fn within_bound(&self) -> bool {
        self.residual <= self.bound && self.unitarity.is_none_or(|u| u <= self.bound)
    }
}

/// Times single calls of `f` on a fresh `input()` for about `seconds`, at
/// least five samples after one warm-up call; the input is made and the
/// output dropped off the clock. Returns (fastest, median, samples) in ns
/// and the last output.
fn sample<X, Y>(
    seconds: f64,
    mut input: impl FnMut() -> X,
    mut f: impl FnMut(X) -> Y,
) -> ((f64, f64, usize), Y) {
    let mut last = f(input());
    let mut ns = Vec::new();
    let begin = Instant::now();
    while ns.len() < 5 || begin.elapsed().as_secs_f64() < seconds {
        let x = input();
        let t0 = Instant::now();
        let y = f(x);
        ns.push(t0.elapsed().as_secs_f64() * 1e9);
        last = y;
    }
    ns.sort_by(f64::total_cmp);
    ((ns[0], ns[ns.len() / 2], ns.len()), last)
}

/// `diag(level) + 10⁻³·N`, `N` Hermitian with entries in the unit box.
fn noisy_diagonal(n: usize, seed: u64, level: impl Fn(usize) -> f64) -> Vec<C64> {
    let mut rng = Lcg(seed);
    hermitian_from_fn(n, |i, j| {
        let noise = c64(1e-3 * rng.next(), 1e-3 * rng.next());
        if i == j {
            c64(level(i) + noise.re, 0.0)
        } else {
            noise
        }
    })
}

/// `I + 10⁻³·N`: an overlap matrix after a burst of low-precision steps.
fn overlap_like(n: usize) -> Vec<C64> {
    noisy_diagonal(n, 0x9e37_79b9_7f4a_7c15, |_| 1.0)
}

/// Four-fold-degenerate ascending levels `½·⌊i/4⌋` plus a 10⁻³ coupling.
fn ritz_like(n: usize) -> Vec<C64> {
    noisy_diagonal(n, 0x2545_f491_4f6c_dd1d, |i| 0.5 * (i / 4) as f64)
}

fn eigh_row(input: &'static str, a: &[C64], n: usize, seconds: f64) -> Row {
    let ((min_ns, median_ns, samples), r) = sample(seconds, || (), |()| eigh(black_box(a), n));
    let av = matmul(a, &r.eigenvectors, n, n, n);
    let mut residual = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let want = r.eigenvectors[i * n + j].scale(r.eigenvalues[j]);
            residual = residual.max((av[i * n + j] - want).abs());
        }
    }
    Row {
        kernel: "eigh",
        input,
        n_orb: n,
        min_ns,
        median_ns,
        samples,
        residual,
        unitarity: Some(unitarity_defect(&r.eigenvectors, n)),
        bound: 8.0 * n as f64 * f64::EPSILON * frobenius_norm(a),
    }
}

/// An orthonormal `rows × cols` column set with 10⁻³ noise on top: what
/// the boundary receives after a burst of low-precision steps.
fn drifted_columns(rows: usize, cols: usize) -> Vec<C64> {
    let mut rng = Lcg(0xd1b5_4a32_d192_ed03);
    let mut a: Vec<C64> = (0..rows * cols)
        .map(|_| c64(rng.next(), rng.next()))
        .collect();
    cholesky_orthonormalize(&mut a, rows, cols).expect("random columns are independent");
    let amp = 1e-3 / (rows as f64).sqrt();
    for z in a.iter_mut() {
        *z += c64(amp * rng.next(), amp * rng.next());
    }
    a
}

fn orth_row(
    kernel: &'static str,
    bound: f64,
    f: fn(&mut [C64], usize, usize) -> Result<(), dcmesh_linalg::OrthError>,
    a0: &[C64],
    rows: usize,
    cols: usize,
    seconds: f64,
) -> Row {
    let ((min_ns, median_ns, samples), out) = sample(
        seconds,
        || a0.to_vec(),
        |mut a| {
            f(&mut a, rows, cols).expect("drifted columns have a healthy overlap");
            a
        },
    );
    Row {
        kernel,
        input: "drifted",
        n_orb: cols,
        min_ns,
        median_ns,
        samples,
        residual: orthonormality_defect(&out, rows, cols),
        unitarity: None,
        bound,
    }
}

fn refresh_row(n_orb: usize, seconds: f64) -> Row {
    let params = LfdParams {
        mesh: Mesh3::cubic(MESH_POINTS, 1.2),
        n_orb,
        n_occ: n_orb / 2,
        dt: 0.02,
        vnl_strength: 0.1,
        taylor_order: 4,
        laser: LaserPulse::off(),
        induced_coupling: 0.0,
    };
    let mut state0 = LfdState::<f32>::initialize(&params, cosine_potential(&params.mesh, 0.3));
    let mut rng = Lcg(0x94d0_49bb_1331_11eb);
    let amp = 1e-3 / params.mesh.volume().sqrt();
    for z in state0.psi.iter_mut() {
        *z += Complex {
            re: (amp * rng.next()) as f32,
            im: (amp * rng.next()) as f32,
        };
    }
    let ((min_ns, median_ns, samples), (_, defect_after)) = sample(
        seconds,
        || state0.clone(),
        |mut st| {
            let report = scf_refresh(&params, &mut st).expect("drifted state is healthy");
            (st, report.defect_after)
        },
    );
    Row {
        kernel: "scf_refresh",
        input: "drifted",
        n_orb,
        min_ns,
        median_ns,
        samples,
        residual: defect_after,
        unitarity: None,
        bound: REFRESH_BOUND,
    }
}

/// `<series>_ns_per_call.f64` of the history entry dated `entry` in the
/// file at `path`.
fn recorded_ns(path: &str, entry: &str, series: &str) -> Option<f64> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("history")?
        .as_array()?
        .iter()
        .find(|e| e.get("date").and_then(JsonValue::as_str) == Some(entry))?
        .get(&format!("{series}_ns_per_call"))?
        .get("f64")?
        .as_f64()
}

/// One `--min-speedup SERIES@ENTRY=F` gate.
struct SpeedupGate {
    series: String,
    entry: String,
    factor: f64,
}

impl SpeedupGate {
    fn parse(spec: &str) -> Option<SpeedupGate> {
        let (row, factor) = spec.rsplit_once('=')?;
        let (series, entry) = row.split_once('@')?;
        let factor = factor.parse().ok().filter(|f: &f64| *f > 0.0)?;
        Some(SpeedupGate { series: series.to_string(), entry: entry.to_string(), factor })
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: linalg_hostperf [--out PATH] [--seconds-per-row F] [--label L] \
         [--enforce-bounds] [--min-speedup SERIES@ENTRY=F]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut out_path = "BENCH_linalg.json".to_string();
    let mut seconds = 0.5f64;
    let mut label: Option<String> = None;
    let mut enforce_bounds = false;
    let mut gates: Vec<SpeedupGate> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("linalg_hostperf: {arg} needs a value");
                std::process::exit(2);
            })
        };
        let positive = |v: String| {
            v.parse()
                .ok()
                .filter(|s: &f64| *s > 0.0)
                .unwrap_or_else(|| {
                    eprintln!("linalg_hostperf: {arg} needs a positive number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--out" => out_path = value(),
            "--seconds-per-row" => seconds = positive(value()),
            "--label" => label = Some(value()),
            "--enforce-bounds" => enforce_bounds = true,
            "--min-speedup" => gates.push(SpeedupGate::parse(&value()).unwrap_or_else(|| {
                eprintln!("linalg_hostperf: --min-speedup takes SERIES@ENTRY=F with F > 0");
                std::process::exit(2);
            })),
            _ => usage(),
        }
    }

    let ngrid = MESH_POINTS.pow(3);
    let mut rows = Vec::new();
    for n in EIGH_ORBITALS {
        rows.push(eigh_row("overlap", &overlap_like(n), n, seconds));
        rows.push(eigh_row("ritz", &ritz_like(n), n, seconds));
    }
    for n in MESH_ORBITALS {
        let a0 = drifted_columns(ngrid, n);
        rows.push(orth_row(
            "lowdin",
            LOWDIN_BOUND,
            lowdin_orthonormalize,
            &a0,
            ngrid,
            n,
            seconds,
        ));
        rows.push(orth_row(
            "cholesky",
            CHOLESKY_BOUND,
            cholesky_orthonormalize,
            &a0,
            ngrid,
            n,
            seconds,
        ));
        rows.push(refresh_row(n, seconds));
    }
    for r in &rows {
        eprintln!(
            "{:<12} {:<8} n_orb {:<3} {:>12.1} us (median {:>12.1}, {:>4} calls)  residual {:.1e}{}  bound {:.1e}{}",
            r.kernel,
            r.input,
            r.n_orb,
            r.min_ns / 1e3,
            r.median_ns / 1e3,
            r.samples,
            r.residual,
            r.unitarity.map_or(String::new(), |u| format!("  unitarity {u:.1e}")),
            r.bound,
            if r.within_bound() { "" } else { "  OVER BOUND" },
        );
    }

    let today = civil_date_utc();
    let date = label.map_or(today.clone(), |l| format!("{today}-{l}"));
    let threads = rayon::current_num_threads();
    let opt = |u: Option<f64>| u.map_or("null".to_string(), |u| format!("{u:.3e}"));
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"input\": \"{}\", \"mesh\": \"{MESH_POINTS}^3\", \
                 \"n_orb\": {}, \"threads\": {threads}, \"ns_per_call_min\": {:.0}, \
                 \"ns_per_call_median\": {:.0}, \"samples\": {}, \"residual\": {:.3e}, \
                 \"unitarity\": {}, \"bound\": {:.3e}}}",
                r.kernel,
                r.input,
                r.n_orb,
                r.min_ns,
                r.median_ns,
                r.samples,
                r.residual,
                opt(r.unitarity),
                r.bound
            )
        })
        .collect();
    // One history series per kernel, input and size, one "mode" (f64):
    // the shape `profile trend --bench` already reads from
    // BENCH_gemm.json. The accuracy columns ride along so a parent entry
    // keeps its residuals beside its times.
    let series: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{0}_ns_per_call\":{{\"f64\":{1:.0}}},\"{0}_defect\":{{\"residual\":{2:.3e},\"unitarity\":{3}}}",
                r.series(),
                r.min_ns,
                r.residual,
                opt(r.unitarity)
            )
        })
        .collect();
    let new_entry = format!("{{\"date\":\"{date}\",\"threads\":{threads},{}}}", series.join(","));

    // Gates read the file as it was before this run is merged into it.
    let mut failed = false;
    for SpeedupGate { series, entry, factor } in &gates {
        let Some(now) = rows.iter().find(|r| r.series() == *series).map(|r| r.min_ns) else {
            eprintln!("linalg_hostperf: --min-speedup names no row of this run: {series}");
            std::process::exit(2);
        };
        match recorded_ns(&out_path, entry, series) {
            Some(then) if then / now >= *factor => {
                eprintln!("{series}: {:.2}x the {entry} row", then / now)
            }
            Some(then) => {
                eprintln!(
                    "linalg_hostperf: {series} is {:.2}x the {entry} row ({then:.0} ns -> {now:.0} ns), need {factor}x",
                    then / now
                );
                failed = true;
            }
            None => {
                eprintln!("linalg_hostperf: no history entry {entry} with {series} in {out_path}");
                failed = true;
            }
        }
    }
    if enforce_bounds {
        for r in rows.iter().filter(|r| !r.within_bound()) {
            eprintln!(
                "linalg_hostperf: {} exceeds its bound {:.1e} (residual {:.1e}, unitarity {})",
                r.series(),
                r.bound,
                r.residual,
                opt(r.unitarity)
            );
            failed = true;
        }
    }

    let history = merged_history(&out_path, &date, new_entry);
    let json = format!(
        "{{\n  \"bench\": \"linalg_hostperf\",\n  \"threads\": {threads},\n  \
         \"accuracy_note\": \"eigh rows: residual = max|AV - V diag(lambda)|, unitarity = max|V^H V - I|, \
         bound = 8 n eps |A|_F; other rows: residual = max|Psi^H Psi - I| of the output, bound = the documented ceiling\",\n  \
         \"rows\": [\n{}\n  ],\n  \"history\": [\n    {}\n  ]\n}}\n",
        row_json.join(",\n"),
        history.join(",\n    ")
    );
    std::fs::write(&out_path, json).expect("write BENCH_linalg.json");
    eprintln!(
        "[wrote {out_path} ({} history entr{})]",
        history.len(),
        if history.len() == 1 { "y" } else { "ies" }
    );
    if failed {
        std::process::exit(1);
    }
}
