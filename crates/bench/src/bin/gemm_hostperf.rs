//! `gemm_hostperf`: host-side GEMM cost baseline (`BENCH_gemm.json`).
//!
//! The emulated compute modes pay a host-side tax on every call — the
//! pack from strided/interleaved storage, rounded copies, BF16 split
//! planes, the product accumulator. This binary pins that tax down so
//! every future PR has a perf baseline to compare against:
//!
//! * **Table VII rows:** `ns/call` for `sgemm` across the Table VII
//!   `remap_occ` shapes in every real compute mode, with `k` scaled down
//!   by `--k-scale` so the software kernel finishes in bench time (the
//!   paper's shapes are GPU-scale). The default scale measures at
//!   `k = 4096 = 16·KC`.
//! * **Application rows:** what the program actually calls, at its real
//!   `k` — `cgemm` in all six modes and `zgemm` (the FP64 SCF boundary)
//!   at the *project* shape `Ψ†·X` (`ConjTrans·None`,
//!   n_orb × n_orb × 1728, k = 6.75·KC) and the *apply* shape `Ψ·S`
//!   (1728 × n_orb × n_orb), n_orb ∈ {16, 96} — the 12³ mesh of the
//!   shipped decks — plus the boundary's two Hermitian-output projections,
//!   `zherk` (`Ψ†Ψ`) and `zgemmt` (`Ψ†·HΨ`), beside the `zgemm` they
//!   compute one triangle of. `--k-scale` does not touch them.
//! * **GFLOP/s** per row (2·m·n·k real, 8·m·n·k complex, 4·n·(n+1)·k for
//!   the triangle a `zherk`/`zgemmt` is defined to compute), and the
//!   microkernel each element width dispatched to on this host, in the
//!   header, the job log and the dated history entry.
//! * **pack share** per application row: the time of the same product
//!   with the microkernel stubbed out (`mkl-lite`'s bench hook: gather,
//!   conversion, accumulator zero-fill and writeback) over the time of
//!   the call.
//! * **allocs/call** over the timed steady-state calls, counted by a
//!   `#[global_allocator]` wrapper — the workspace pool's contract is
//!   that this is exactly zero.
//!
//! Every row runs on the rayon pool at the machine's thread count, which
//! the report records (`threads`). One **scaling row** times the 96-orbital
//! `cgemm` apply product (`1728 × 96 × 96`, STANDARD) at one thread and at
//! that count.
//!
//! Every `calls[]` row also carries the **modelled device time** on the
//! `xe-gpu` stack model, plus the modelled speedup over FP32 — the
//! quantities behind Tables VI/VII (priced at the full Table VII `k` for
//! the Table VII rows, at the measured shape for the application rows).
//!
//! Usage: `gemm_hostperf [--k-scale N] [--reps N]
//! [--warmup N] [--out PATH] [--enforce-zero-alloc]
//! [--max-bf16x2-ratio F] [--max-bf16x3-ratio F] [--max-herk-over-gemm F]`
//!
//! `--enforce-zero-alloc` exits non-zero if any steady-state call
//! allocated — the CI regression gate, over every row.
//!
//! `--max-herk-over-gemm` gates the 96-orbital `zherk` and `zgemmt`
//! project rows at that fraction of the `zgemm` row: a Hermitian output
//! computes a little over half the tiles, and must cost accordingly.
//!
//! `--max-bf16x2-ratio` / `--max-bf16x3-ratio` gate the measured
//! BF16x2/STANDARD and BF16x3/STANDARD `ns_per_call` ratios at the
//! 128×1920 Table VII shape *and* at the 96-orbital `cgemm` project
//! shape: if a split mode costs more than the given multiple of
//! STANDARD, the run exits non-zero. This is the CI tripwire against
//! regressing to per-plane passes (historically 3×/6–7×; the packed
//! kernel holds ~1.5–2×/2–3×).
//!
//! **k labeling:** every measured number is labeled with the `k` it was
//! taken at (`k_measured`). For the Table VII rows that is
//! `262144 / k_scale`, while `modelled_device_s` /
//! `modelled_speedup_vs_fp32` price the *full* shape
//! (`k_table7 = 262144`) and `ns_per_call_table7_est` bridges the two
//! with an explicit linear-in-k extrapolation (`ns_per_call × k_scale`).
//! For the application rows `k_table7 == k_measured`: nothing is scaled
//! or extrapolated.
//!
//! **`--from-trace events.jsonl`** switches to trace-replay mode: instead
//! of running the sweep, the per-call attribution table is recomputed
//! from a telemetry JSONL dump (the `telemetry_check` artifact) through
//! the `dcmesh-profile` ingester, and every trace-derived mean device
//! time and speedup is checked against the direct device-model path
//! within `--tolerance-pct` (default 5%). Exits non-zero on
//! disagreement, so CI can gate on trace attribution staying honest.

use dcmesh_bench::report::{civil_date_utc, merged_history};
use dcmesh_numerics::{c32, c64, C32, C64};
use dcmesh_profile::{ingest, table};
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::gemm::complex_gemm_sans_microkernel;
use mkl_lite::gemm::kernel::dispatched_kernel;
use mkl_lite::workspace;
use mkl_lite::{cgemm, sgemm, with_compute_mode, zgemm, zgemmt, zherk, ComputeMode, Op, Uplo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper counting every allocation (not bytes — the
/// pool's promise is *zero calls*, so a count is the sharpest signal).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The Table VII remap GEMM shapes: m = N_occ = 128, n = N_orb − N_occ,
/// k = N_grid = 64³.
const TABLE7_K: usize = 262_144;
const TABLE7_SHAPES: [(usize, usize); 4] = [(128, 128), (128, 896), (128, 1920), (128, 3968)];
/// The ratio-gate shape among them.
const GATE_SHAPE: (usize, usize) = (128, 1920);

/// The application shapes: the 12³ mesh of the shipped decks at the
/// `pto40-small` and `orb-heavy` orbital counts.
const APP_GRID: usize = 12 * 12 * 12;
const APP_ORBITALS: [usize; 2] = [16, 96];
/// The ratio-gate orbital count among them (GEMM-bound).
const GATE_ORBITALS: usize = 96;

/// Every row is timed in batches of `--reps` calls — at least
/// [`MIN_BATCHES`], and until this long has elapsed — and reports its
/// fastest batch: a 60 µs call cannot be timed from two samples, and on a
/// shared host one slow batch should not become the baseline.
const MIN_ROW_SECONDS: f64 = 0.1;
const MIN_BATCHES: usize = 3;

const SGEMM_MODES: [ComputeMode; 5] = [
    ComputeMode::Standard,
    ComputeMode::FloatToTf32,
    ComputeMode::FloatToBf16,
    ComputeMode::FloatToBf16x2,
    ComputeMode::FloatToBf16x3,
];

struct Options {
    k_scale: usize,
    reps: usize,
    warmup: usize,
    out: String,
    enforce_zero_alloc: bool,
    max_x2_ratio: Option<f64>,
    max_x3_ratio: Option<f64>,
    max_herk_over_gemm: Option<f64>,
    from_trace: Option<String>,
    tolerance_pct: f64,
}

fn parse_args() -> Options {
    let mut o = Options {
        k_scale: 64,
        reps: 2,
        warmup: 2,
        out: "BENCH_gemm.json".to_string(),
        enforce_zero_alloc: false,
        max_x2_ratio: None,
        max_x3_ratio: None,
        max_herk_over_gemm: None,
        from_trace: None,
        tolerance_pct: 5.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let num = |a: &mut dyn Iterator<Item = String>| -> usize {
            a.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("missing/invalid value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--k-scale" => o.k_scale = num(&mut args).max(1),
            "--reps" => o.reps = num(&mut args).max(1),
            "--warmup" => o.warmup = num(&mut args),
            "--out" => {
                o.out = args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    std::process::exit(2);
                })
            }
            "--enforce-zero-alloc" => o.enforce_zero_alloc = true,
            "--max-bf16x2-ratio" | "--max-bf16x3-ratio" | "--max-herk-over-gemm" => {
                let v: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("missing/invalid value for {flag}");
                    std::process::exit(2);
                });
                match flag.as_str() {
                    "--max-bf16x2-ratio" => o.max_x2_ratio = Some(v),
                    "--max-bf16x3-ratio" => o.max_x3_ratio = Some(v),
                    _ => o.max_herk_over_gemm = Some(v),
                }
            }
            "--from-trace" => {
                o.from_trace = Some(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --from-trace");
                    std::process::exit(2);
                }))
            }
            "--tolerance-pct" => {
                o.tolerance_pct =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("missing/invalid value for --tolerance-pct");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

/// One JSON entry of the end-to-end sweep.
struct Entry {
    routine: &'static str,
    /// `table7`, `project` or `apply`.
    shape: &'static str,
    mode: ComputeMode,
    m: usize,
    n: usize,
    k_table: usize,
    k_measured: usize,
    ns_per_call: f64,
    allocs_per_call: f64,
    /// Achieved GFLOP/s at the measured shape.
    gflops: f64,
    /// Share of the call that is not the microkernel (application rows).
    pack_share: Option<f64>,
    /// Modelled device seconds for the `k_table` shape on the `xe-gpu`
    /// stack model (the Tables VI/VII quantity).
    modelled_device_s: f64,
    /// Modelled speedup of this mode over FP32 at the full shape.
    modelled_speedup_vs_fp32: f64,
}

/// Element domain of a BLAS routine name, for pricing trace rows.
fn domain_for(routine: &str) -> Option<Domain> {
    match routine {
        "SGEMM" => Some(Domain::Real32),
        "DGEMM" => Some(Domain::Real64),
        "CGEMM" | "CHERK" => Some(Domain::Complex32),
        "ZGEMM" | "ZHERK" | "ZGEMMT" => Some(Domain::Complex64),
        _ => None,
    }
}

/// `--from-trace`: recompute the per-call attribution from a telemetry
/// JSONL dump and check it against the direct device-model path.
fn run_from_trace(path: &str, tolerance_pct: f64) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let trace = ingest::ingest_jsonl(&text);
    for w in &trace.warnings {
        eprintln!("trace warning: {w}");
    }
    let rows = table::gemm_table(&trace);
    if rows.is_empty() {
        eprintln!("no GEMM call spans in {path}");
        std::process::exit(1);
    }
    println!("{}", table::render_gemm_table(&rows));

    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let mut checked = 0u32;
    let mut problems = 0u32;
    for r in &rows {
        let (Some(dev), Some(domain), Ok(mode)) = (
            r.mean_device_s,
            domain_for(&r.routine),
            ComputeMode::from_env_value(&r.mode),
        ) else {
            continue;
        };
        let (m, n, k) = (r.m as usize, r.n as usize, r.k as usize);
        let direct = model.gemm_seconds(&GemmDesc { domain, m, n, k, mode });
        let dev_err = 100.0 * (dev - direct).abs() / direct.max(1e-30);
        checked += 1;
        let mut verdicts = format!("device {dev:.3e}s vs model {direct:.3e}s ({dev_err:.2}%)");
        if dev_err > tolerance_pct {
            problems += 1;
        }
        if let Some(speedup) = r.speedup_vs_fp32 {
            let direct_speedup = model.gemm_speedup_vs_fp32(domain, m, n, k, mode);
            let sp_err = 100.0 * (speedup - direct_speedup).abs() / direct_speedup.max(1e-30);
            verdicts.push_str(&format!(
                ", speedup {speedup:.2}x vs model {direct_speedup:.2}x ({sp_err:.2}%)"
            ));
            if sp_err > tolerance_pct {
                problems += 1;
            }
        }
        eprintln!("check {} {:>16} ({m}, {n}, {k}): {verdicts}", r.routine, r.mode);
    }
    if checked == 0 {
        eprintln!("no rows carried modelled device times; nothing to check");
        std::process::exit(1);
    }
    if problems > 0 {
        eprintln!(
            "from-trace: {problems} disagreement(s) beyond {tolerance_pct}% across {checked} rows"
        );
        std::process::exit(1);
    }
    eprintln!("from-trace: {checked} rows agree with the direct path within {tolerance_pct}%");
    std::process::exit(0);
}

/// Times steady-state calls of `f` (after `warmup` unmeasured ones) in
/// batches of `reps` — [`MIN_BATCHES`] at least, and until
/// [`MIN_ROW_SECONDS`] have elapsed — and returns (ns/call of the fastest
/// batch, allocs/call over all batches).
fn measure(warmup: usize, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let start = Instant::now();
    let (mut best, mut calls) = (f64::INFINITY, 0usize);
    while calls < MIN_BATCHES * reps || start.elapsed().as_secs_f64() < MIN_ROW_SECONDS {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / reps as f64);
        calls += reps;
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    (best, allocs as f64 / calls as f64)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() { format!("{v:.1}") } else { "null".to_string() }
}

fn main() {
    let o = parse_args();
    if let Some(path) = &o.from_trace {
        run_from_trace(path, o.tolerance_pct);
    }
    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let mut rng = StdRng::seed_from_u64(0xbea7);
    let mut entries: Vec<Entry> = Vec::new();
    let mut dirty_modes: Vec<String> = Vec::new();
    let kernels = (dispatched_kernel::<f32>(), dispatched_kernel::<f64>());
    eprintln!("microkernel f32: {}", kernels.0);
    eprintln!("microkernel f64: {}", kernels.1);
    let threads = rayon::current_num_threads();
    eprintln!("threads: {threads} (every row; the scaling row also at 1)");

    // Measures one row under `mode` and files it. `sans_kernel` is the
    // same product through the bench hook that stubs the microkernel out.
    let mut record = |routine: &'static str,
                      domain: Domain,
                      shape: &'static str,
                      mode: ComputeMode,
                      (m, n, k_meas, k_table): (usize, usize, usize, usize),
                      call: &mut dyn FnMut(),
                      sans_kernel: Option<&mut dyn FnMut()>| {
        let (ns, allocs) = with_compute_mode(mode, || measure(o.warmup, o.reps, &mut *call));
        let pack_share = sans_kernel.map(|f| measure(o.warmup, o.reps, f).0 / ns);
        let flops = match routine {
            "SGEMM" => 2.0 * (m * n * k_meas) as f64,
            "ZHERK" | "ZGEMMT" => 4.0 * (n * (n + 1) * k_meas) as f64,
            _ => 8.0 * (m * n * k_meas) as f64,
        };
        let gflops = flops / ns;
        eprintln!(
            "{:<6} {shape:<7} {:>16} ({m}, {n}, {k_meas}): {ns:>12.0} ns/call {gflops:>7.2} GFLOP/s, \
             pack {}, {allocs} allocs/call",
            routine.to_lowercase(),
            mode.name(),
            pack_share.map_or("   -".to_string(), |p| format!("{:>3.0}%", 100.0 * p)),
        );
        if allocs > 0.0 {
            dirty_modes.push(format!("{routine}/{} {shape} ({m},{n},{k_meas})", mode.name()));
        }
        entries.push(Entry {
            routine,
            shape,
            mode,
            m,
            n,
            k_table,
            k_measured: k_meas,
            ns_per_call: ns,
            allocs_per_call: allocs,
            gflops,
            pack_share,
            modelled_device_s: model.gemm_seconds(&GemmDesc { domain, m, n, k: k_table, mode }),
            modelled_speedup_vs_fp32: model.gemm_speedup_vs_fp32(domain, m, n, k_table, mode),
        });
    };

    // --- Table VII rows: sgemm over the remap shapes × real modes ---
    let k_meas = (TABLE7_K / o.k_scale).max(1);
    eprintln!(
        "k-scale {}: Table VII rows measured at k = {k_meas} (Table VII k = {TABLE7_K}); \
         their modelled_* columns price the full shape",
        o.k_scale
    );
    let nmax = TABLE7_SHAPES.iter().map(|s| s.1).max().unwrap();
    let a_full: Vec<f32> = (0..128 * k_meas).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b_full: Vec<f32> = (0..k_meas * nmax).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for &(m, n) in &TABLE7_SHAPES {
        let a = &a_full[..m * k_meas];
        let b = &b_full[..k_meas * n];
        let mut c = vec![0.0f32; m * n];
        for mode in SGEMM_MODES {
            let shape = (m, n, k_meas, TABLE7_K);
            record("SGEMM", Domain::Real32, "table7", mode, shape, &mut || {
                sgemm(Op::None, Op::None, m, n, k_meas, 1.0, a, k_meas, b, n, 0.0, &mut c, n);
            }, None);
            black_box(&c[0]);
        }
    }

    // --- application rows: what the program calls, at its real k ---
    for orb in APP_ORBITALS {
        let mut rand = |len: usize| -> Vec<C32> {
            (0..len).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
        };
        let double =
            |v: &[C32]| -> Vec<C64> { v.iter().map(|z| c64(z.re as f64, z.im as f64)).collect() };
        let (psi32, sub32) = (rand(APP_GRID * orb), rand(orb * orb));
        let (psi64, sub64) = (double(&psi32), double(&sub32));
        let (mut small32, mut tall32) = (vec![C32::zero(); orb * orb], vec![C32::zero(); APP_GRID * orb]);
        let (mut small64, mut tall64) = (vec![C64::zero(); orb * orb], vec![C64::zero(); APP_GRID * orb]);
        // What the stubbed-out products write: garbage, never read.
        let (mut junk32, mut junk64) = (tall32.clone(), tall64.clone());
        let project = (orb, orb, APP_GRID, APP_GRID);
        let apply = (APP_GRID, orb, orb, orb);
        let (ct, no) = (Op::ConjTrans, Op::None);
        for mode in ComputeMode::ALL {
            record("CGEMM", Domain::Complex32, "project", mode, project, &mut || {
                cgemm(ct, no, orb, orb, APP_GRID, C32::one(), &psi32, orb, &psi32, orb, C32::zero(), &mut small32, orb);
            }, Some(&mut || {
                complex_gemm_sans_microkernel(mode, None, ct, no, orb, orb, APP_GRID, &psi32, orb, &psi32, orb, &mut junk32, orb);
            }));
            record("CGEMM", Domain::Complex32, "apply", mode, apply, &mut || {
                cgemm(no, no, APP_GRID, orb, orb, C32::one(), &psi32, orb, &sub32, orb, C32::zero(), &mut tall32, orb);
            }, Some(&mut || {
                complex_gemm_sans_microkernel(mode, None, no, no, APP_GRID, orb, orb, &psi32, orb, &sub32, orb, &mut junk32, orb);
            }));
        }
        let std = ComputeMode::Standard;
        let mut sans_kernel = |uplo| {
            complex_gemm_sans_microkernel(std, uplo, ct, no, orb, orb, APP_GRID, &psi64, orb, &psi64, orb, &mut junk64, orb);
        };
        record("ZGEMM", Domain::Complex64, "project", std, project, &mut || {
            zgemm(ct, no, orb, orb, APP_GRID, C64::one(), &psi64, orb, &psi64, orb, C64::zero(), &mut small64, orb);
        }, Some(&mut || sans_kernel(None)));
        record("ZHERK", Domain::Complex64, "project", std, project, &mut || {
            zherk(Uplo::Upper, ct, orb, APP_GRID, 1.0, &psi64, orb, 0.0, &mut small64, orb);
        }, Some(&mut || sans_kernel(Some(Uplo::Upper))));
        record("ZGEMMT", Domain::Complex64, "project", std, project, &mut || {
            zgemmt(Uplo::Upper, ct, no, orb, APP_GRID, C64::one(), &psi64, orb, &psi64, orb, C64::zero(), &mut small64, orb);
        }, Some(&mut || sans_kernel(Some(Uplo::Upper))));
        record("ZGEMM", Domain::Complex64, "apply", std, apply, &mut || {
            zgemm(no, no, APP_GRID, orb, orb, C64::one(), &psi64, orb, &sub64, orb, C64::zero(), &mut tall64, orb);
        }, Some(&mut || {
            complex_gemm_sans_microkernel(std, None, no, no, APP_GRID, orb, orb, &psi64, orb, &sub64, orb, &mut junk64, orb);
        }));
        black_box((&small32[0], &tall32[0], &small64[0], &tall64[0], &junk32[0], &junk64[0]));
    }

    // --- thread scaling: one application row at 1 thread and at `threads` ---
    let scaling = {
        let (orb, std) = (GATE_ORBITALS, ComputeMode::Standard);
        let psi: Vec<C32> = (0..APP_GRID * orb).map(|i| c32((i as f32).sin(), (i as f32).cos())).collect();
        let sub: Vec<C32> = (0..orb * orb).map(|i| c32((i as f32).cos(), 0.5)).collect();
        let mut tall = vec![C32::zero(); APP_GRID * orb];
        let mut at = |n: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("thread pool");
            pool.install(|| {
                with_compute_mode(std, || {
                    measure(o.warmup, o.reps, || {
                        cgemm(Op::None, Op::None, APP_GRID, orb, orb, C32::one(), &psi, orb, &sub, orb, C32::zero(), &mut tall, orb)
                    })
                })
            })
        };
        let ((one, one_allocs), (all, all_allocs)) = (at(1), at(threads));
        black_box(&tall[0]);
        eprintln!(
            "scaling cgemm apply STANDARD ({APP_GRID}, {orb}, {orb}): {one:.0} ns/call at 1 thread, \
             {all:.0} at {threads}: {:.2}x",
            one / all
        );
        if one_allocs + all_allocs > 0.0 {
            dirty_modes.push(format!("scaling CGEMM apply ({APP_GRID},{orb},{orb})"));
        }
        (one, all)
    };

    // --- workspace-pool traffic, through the telemetry registry ---
    // `publish_metrics` snapshots this thread's pool counters into
    // telemetry gauges; the report reads them back from the registry so
    // the numbers printed here are exactly the ones a Prometheus scrape
    // (or the `telemetry_check` artifact) would carry.
    workspace::publish_metrics();
    let pool = workspace::combined_stats();
    let hit_ratio = pool.hit_ratio();
    // The ratio is a fraction by contract — an idle pool reports 1.0,
    // never NaN — and a violation here means the JSON below (and every
    // dashboard reading it) would carry garbage.
    assert!(
        hit_ratio.is_finite() && (0.0..=1.0).contains(&hit_ratio),
        "pool hit_ratio must be a finite fraction in [0, 1], got {hit_ratio}"
    );
    eprintln!(
        "pool  takes {} misses {} grows {} returns {} bytes_outstanding {} hit_ratio {:.4}",
        pool.takes, pool.misses, pool.grows, pool.returns, pool.bytes_outstanding, hit_ratio
    );
    eprintln!("--- telemetry metrics ---\n{}", dcmesh_telemetry::export::prometheus_dump());

    // --- BENCH_gemm.json ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"gemm_hostperf\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"scaling\": {{\"routine\": \"CGEMM\", \"shape\": \"apply\", \"mode\": \"STANDARD\", \
         \"m\": {APP_GRID}, \"n\": {GATE_ORBITALS}, \"k\": {GATE_ORBITALS}, \
         \"ns_per_call_1_thread\": {}, \"threads\": {threads}, \"ns_per_call\": {}, \"speedup\": {:.2}}},\n",
        json_f64(scaling.0),
        json_f64(scaling.1),
        scaling.0 / scaling.1
    ));
    json.push_str(&format!(
        "  \"microkernel\": {{\"f32\": \"{}\", \"f64\": \"{}\"}},\n",
        kernels.0, kernels.1
    ));
    json.push_str(&format!("  \"k_scale\": {},\n", o.k_scale));
    json.push_str(&format!("  \"k_table7\": {TABLE7_K},\n"));
    json.push_str(&format!("  \"k_measured\": {k_meas},\n"));
    json.push_str(
        "  \"k_note\": \"ns_per_call and gflops are measured at each row's k_measured; table7 rows \
         price modelled_* at the full k_table7 shape and ns_per_call_table7_est = ns_per_call * \
         k_table7 / k_measured (linear-in-k extrapolation); project/apply rows are the \
         application's calls at their real k (k_table7 == k_measured, nothing scaled)\",\n",
    );
    json.push_str(&format!(
        "  \"pool\": {{\"takes\": {}, \"misses\": {}, \"grows\": {}, \"returns\": {}, \
         \"bytes_outstanding\": {}, \"hit_ratio\": {:.4}}},\n",
        pool.takes, pool.misses, pool.grows, pool.returns, pool.bytes_outstanding, hit_ratio
    ));
    json.push_str("  \"calls\": [\n");
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"routine\": \"{}\", \"shape\": \"{}\", \"mode\": \"{}\", \"m\": {}, \
                 \"n\": {}, \"k_table7\": {}, \"k_measured\": {}, \"threads\": {threads}, \
                 \"ns_per_call\": {}, \"gflops\": {:.2}, \"pack_share\": {}, \
                 \"ns_per_call_table7_est\": {}, \
                 \"allocs_per_call\": {}, \"modelled_device_s\": {:.6e}, \
                 \"modelled_speedup_vs_fp32\": {:.4}}}",
                e.routine,
                e.shape,
                e.mode.name(),
                e.m,
                e.n,
                e.k_table,
                e.k_measured,
                json_f64(e.ns_per_call),
                e.gflops,
                e.pack_share.map_or("null".to_string(), |p| format!("{p:.3}")),
                json_f64(e.ns_per_call * (e.k_table as f64 / e.k_measured as f64)),
                e.allocs_per_call,
                e.modelled_device_s,
                e.modelled_speedup_vs_fp32
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // --- dated history: carry prior runs' summary rows forward ---
    // Each run appends (or, same-day, replaces) one compact entry, so
    // the checked-in baseline accumulates a trend line CI can plot
    // without any external storage.
    // One `<series>_ns_per_call: {mode: ns}` member per watched shape —
    // the form `profile trend --bench` reads. The Table VII series
    // carries its k, so runs at different `--k-scale` never share one.
    let today = civil_date_utc();
    let series = |routine: &str, shape: &str, m: usize, n: usize, modes: &[ComputeMode]| {
        let members: Vec<String> = modes
            .iter()
            .filter_map(|&mode| {
                entries
                    .iter()
                    .find(|e| (e.routine, e.shape, e.m, e.n, e.mode) == (routine, shape, m, n, mode))
                    .map(|e| format!("\"{}\":{}", mode.name(), json_f64(e.ns_per_call)))
            })
            .collect();
        format!("{{{}}}", members.join(","))
    };
    let gate_modes =
        [ComputeMode::Standard, ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3];
    let mut members = vec![format!(
        "\"sgemm_{}x{}_k{k_meas}_ns_per_call\":{}",
        GATE_SHAPE.0,
        GATE_SHAPE.1,
        series("SGEMM", "table7", GATE_SHAPE.0, GATE_SHAPE.1, &gate_modes)
    )];
    for orb in APP_ORBITALS {
        for (shape, (m, n)) in [("project", (orb, orb)), ("apply", (APP_GRID, orb))] {
            members.push(format!(
                "\"cgemm_{shape}_{orb}_ns_per_call\":{}",
                series("CGEMM", shape, m, n, &ComputeMode::ALL)
            ));
            members.push(format!(
                "\"zgemm_{shape}_{orb}_ns_per_call\":{}",
                series("ZGEMM", shape, m, n, &[ComputeMode::Standard])
            ));
        }
        for routine in ["ZHERK", "ZGEMMT"] {
            members.push(format!(
                "\"{}_project_{orb}_ns_per_call\":{}",
                routine.to_lowercase(),
                series(routine, "project", orb, orb, &[ComputeMode::Standard])
            ));
        }
    }
    members.push(format!(
        "\"cgemm_apply_{GATE_ORBITALS}_1_thread_ns_per_call\":{{\"STANDARD\":{}}}",
        json_f64(scaling.0)
    ));
    let new_entry = format!(
        "{{\"date\":\"{today}\",\"threads\":{threads},\"k_scale\":{},\"hit_ratio\":{hit_ratio:.4},\
         \"microkernel_f32\":\"{}\",\"microkernel_f64\":\"{}\",{}}}",
        o.k_scale,
        kernels.0,
        kernels.1,
        members.join(",")
    );
    let history = merged_history(&o.out, &today, new_entry);
    json.push_str("  \"history\": [\n    ");
    json.push_str(&history.join(",\n    "));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&o.out, &json).expect("write BENCH_gemm.json");
    eprintln!("[wrote {} ({} history entr{})]", o.out, history.len(),
        if history.len() == 1 { "y" } else { "ies" });

    if o.enforce_zero_alloc && !dirty_modes.is_empty() {
        eprintln!("steady-state allocations detected in: {}", dirty_modes.join(", "));
        std::process::exit(1);
    }

    // --- split-mode perf-ratio gate ---
    // The tripwire against regressing the packed split-plane kernel back
    // to independent per-plane passes: BF16x2 / BF16x3 must stay within
    // the given multiple of STANDARD at the same measured shape — the
    // 128×1920 Table VII SGEMM and the 96-orbital CGEMM projection.
    let gates = [
        ("SGEMM", "table7", GATE_SHAPE),
        ("CGEMM", "project", (GATE_ORBITALS, GATE_ORBITALS)),
    ];
    let mut failures = 0u32;
    for (routine, shape, (gm, gn)) in gates {
        let ns_of = |mode: ComputeMode| {
            entries
                .iter()
                .find(|e| (e.routine, e.shape, e.m, e.n, e.mode) == (routine, shape, gm, gn, mode))
                .map(|e| (e.ns_per_call, e.k_measured))
        };
        for (mode, max) in [
            (ComputeMode::FloatToBf16x2, o.max_x2_ratio),
            (ComputeMode::FloatToBf16x3, o.max_x3_ratio),
        ] {
            let Some(max) = max else { continue };
            let (Some((std_ns, k)), Some((ns, _))) = (ns_of(ComputeMode::Standard), ns_of(mode))
            else {
                eprintln!("perf-ratio gate: {routine} {shape} ({gm}, {gn}) rows missing");
                failures += 1;
                continue;
            };
            let ratio = ns / std_ns;
            let verdict = if ratio <= max { "ok" } else { "FAIL" };
            eprintln!(
                "perf-ratio {routine} {shape} {}/STANDARD ({gm}, {gn}, {k}): {ratio:.2}x \
                 (max {max:.2}x) {verdict}",
                mode.name()
            );
            if ratio > max {
                failures += 1;
            }
        }
    }
    // --- triangle gate: a Hermitian output must cost like one ---
    if let Some(max) = o.max_herk_over_gemm {
        let ns_of = |routine: &str| {
            let row = (routine, "project", GATE_ORBITALS, GATE_ORBITALS);
            entries.iter().find(|e| (e.routine, e.shape, e.m, e.n) == row).map(|e| e.ns_per_call)
        };
        let full = ns_of("ZGEMM").expect("the ZGEMM project row was measured");
        for routine in ["ZHERK", "ZGEMMT"] {
            let ratio = ns_of(routine).expect("the triangle rows were measured") / full;
            let verdict = if ratio <= max { "ok" } else { "FAIL" };
            eprintln!(
                "triangle {routine}/ZGEMM project ({GATE_ORBITALS}, {GATE_ORBITALS}, {APP_GRID}): \
                 {ratio:.2}x (max {max:.2}x) {verdict}"
            );
            if ratio > max {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("perf gates: {failures} row(s) over threshold");
        std::process::exit(1);
    }
}
