//! `gemm_hostperf`: host-side GEMM cost baseline (`BENCH_gemm.json`).
//!
//! The emulated compute modes pay a host-side tax on every call —
//! op-materialisation, rounded copies, BF16 split planes, the product
//! accumulator. This binary pins that tax down so every future PR has a
//! perf baseline to compare against:
//!
//! * **end-to-end** `ns/call` for `sgemm` across the Table VII `remap_occ`
//!   shapes in every real compute mode (plus `cgemm` in `COMPLEX_3M`),
//!   with `k` scaled down by `--k-scale` so the software kernel finishes
//!   in bench time (the paper's shapes are GPU-scale);
//! * **allocs/call** over the timed steady-state calls, counted by a
//!   `#[global_allocator]` wrapper — the workspace pool's contract is
//!   that this is exactly zero.
//!
//! Every `calls[]` row also carries the **modelled device time** for the
//! full Table VII shape on the `xe-gpu` stack model, plus the modelled
//! speedup over FP32 — the quantities behind Tables VI/VII.
//!
//! Usage: `gemm_hostperf [--k-scale N] [--reps N]
//! [--warmup N] [--out PATH] [--enforce-zero-alloc]
//! [--max-bf16x2-ratio F] [--max-bf16x3-ratio F]`
//!
//! `--enforce-zero-alloc` exits non-zero if any steady-state call
//! allocated — the CI regression gate.
//!
//! `--max-bf16x2-ratio` / `--max-bf16x3-ratio` gate the measured
//! BF16x2/STANDARD and BF16x3/STANDARD `ns_per_call` ratios at the
//! 128×1920 Table VII shape: if a split mode costs more than the given
//! multiple of STANDARD, the run exits non-zero. This is the CI tripwire
//! against regressing to per-plane `matmul_acc` passes (historically
//! 3×/6–7×; the packed kernel holds ~1.5–2×/2–3×).
//!
//! **k labeling:** every measured number is taken at
//! `k_measured = 262144 / k_scale` and labeled as such — `ns_per_call`
//! is at `k_measured`, while `modelled_device_s` /
//! `modelled_speedup_vs_fp32` always price the *full* Table VII shape
//! (`k_table7 = 262144`). `ns_per_call_table7_est` bridges the two with
//! an explicit linear-in-k extrapolation (`ns_per_call × k_scale`).
//!
//! **`--from-trace events.jsonl`** switches to trace-replay mode: instead
//! of running the sweep, the per-call attribution table is recomputed
//! from a telemetry JSONL dump (the `telemetry_check` artifact) through
//! the `dcmesh-profile` ingester, and every trace-derived mean device
//! time and speedup is checked against the direct device-model path
//! within `--tolerance-pct` (default 5%). Exits non-zero on
//! disagreement, so CI can gate on trace attribution staying honest.

use dcmesh_bench::report::{civil_date_utc, merged_history};
use dcmesh_numerics::{c32, C32};
use dcmesh_profile::{ingest, table};
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::workspace;
use mkl_lite::{cgemm, sgemm, with_compute_mode, ComputeMode, Op};
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
/// The acceptance-criterion shape (N_orb = 1024 row of Table VII).
const ACCEPTANCE_SHAPE: (usize, usize) = (128, 896);

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
            "--max-bf16x2-ratio" | "--max-bf16x3-ratio" => {
                let v: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("missing/invalid value for {flag}");
                    std::process::exit(2);
                });
                if flag == "--max-bf16x2-ratio" {
                    o.max_x2_ratio = Some(v);
                } else {
                    o.max_x3_ratio = Some(v);
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

fn mode_label(mode: ComputeMode) -> &'static str {
    mode.env_value().unwrap_or("STANDARD")
}

/// One JSON entry of the end-to-end sweep.
struct Entry {
    routine: &'static str,
    mode: ComputeMode,
    m: usize,
    n: usize,
    k_table: usize,
    k_measured: usize,
    ns_per_call: f64,
    allocs_per_call: f64,
    /// Modelled device seconds for the *full* Table VII shape on the
    /// `xe-gpu` stack model (the Tables VI/VII quantity).
    modelled_device_s: f64,
    /// Modelled speedup of this mode over FP32 at the full shape.
    modelled_speedup_vs_fp32: f64,
}

/// Element domain of a BLAS routine name, for pricing trace rows.
fn domain_for(routine: &str) -> Option<Domain> {
    match routine {
        "SGEMM" => Some(Domain::Real32),
        "DGEMM" => Some(Domain::Real64),
        "CGEMM" => Some(Domain::Complex32),
        "ZGEMM" => Some(Domain::Complex64),
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

/// Times `reps` steady-state calls of `f` (after `warmup` unmeasured
/// ones) and returns (ns/call, allocs/call).
fn measure(warmup: usize, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let elapsed = t0.elapsed();
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    (elapsed.as_nanos() as f64 / reps as f64, allocs as f64 / reps as f64)
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

    // --- end-to-end sweep: sgemm over Table VII shapes × real modes ---
    let k_meas = (TABLE7_K / o.k_scale).max(1);
    eprintln!(
        "k-scale {}: ns/call measured at k = {k_meas} (Table VII k = {TABLE7_K}); \
         modelled_* columns always price the full Table VII shape",
        o.k_scale
    );
    let kmax = k_meas;
    let nmax = TABLE7_SHAPES.iter().map(|s| s.1).max().unwrap();
    let a_full: Vec<f32> = (0..128 * kmax).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b_full: Vec<f32> = (0..kmax * nmax).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for &(m, n) in &TABLE7_SHAPES {
        let a = &a_full[..m * k_meas];
        let b = &b_full[..k_meas * n];
        let mut c = vec![0.0f32; m * n];
        for mode in SGEMM_MODES {
            let (ns, allocs) = with_compute_mode(mode, || {
                measure(o.warmup, o.reps, || {
                    sgemm(Op::None, Op::None, m, n, k_meas, 1.0, a, k_meas, b, n, 0.0, &mut c, n);
                })
            });
            black_box(&c[0]);
            eprintln!(
                "sgemm {:>16} ({m}, {n}, {k_meas}): {:>12.0} ns/call, {allocs} allocs/call",
                mode_label(mode),
                ns
            );
            if allocs > 0.0 {
                dirty_modes.push(format!("SGEMM/{} ({m},{n},{k_meas})", mode_label(mode)));
            }
            let desc =
                GemmDesc { domain: Domain::Real32, m, n, k: TABLE7_K, mode };
            entries.push(Entry {
                routine: "SGEMM",
                mode,
                m,
                n,
                k_table: TABLE7_K,
                k_measured: k_meas,
                ns_per_call: ns,
                allocs_per_call: allocs,
                modelled_device_s: model.gemm_seconds(&desc),
                modelled_speedup_vs_fp32: model
                    .gemm_speedup_vs_fp32(Domain::Real32, m, n, TABLE7_K, mode),
            });
        }
    }

    // cgemm COMPLEX_3M at the acceptance shape, so the complex pooled path
    // (separated real planes + 3M temporaries) is in the baseline too.
    {
        let (m, n) = ACCEPTANCE_SHAPE;
        let ac: Vec<C32> =
            (0..m * k_meas).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let bc: Vec<C32> =
            (0..k_meas * n).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let mut cc = vec![C32::zero(); m * n];
        for mode in [ComputeMode::Standard, ComputeMode::Complex3m] {
            let (ns, allocs) = with_compute_mode(mode, || {
                measure(o.warmup, o.reps, || {
                    cgemm(
                        Op::None,
                        Op::None,
                        m,
                        n,
                        k_meas,
                        C32::one(),
                        &ac,
                        k_meas,
                        &bc,
                        n,
                        C32::zero(),
                        &mut cc,
                        n,
                    );
                })
            });
            black_box(&cc[0]);
            eprintln!(
                "cgemm {:>16} ({m}, {n}, {k_meas}): {:>12.0} ns/call, {allocs} allocs/call",
                mode_label(mode),
                ns
            );
            if allocs > 0.0 {
                dirty_modes.push(format!("CGEMM/{} ({m},{n},{k_meas})", mode_label(mode)));
            }
            let desc =
                GemmDesc { domain: Domain::Complex32, m, n, k: TABLE7_K, mode };
            entries.push(Entry {
                routine: "CGEMM",
                mode,
                m,
                n,
                k_table: TABLE7_K,
                k_measured: k_meas,
                ns_per_call: ns,
                allocs_per_call: allocs,
                modelled_device_s: model.gemm_seconds(&desc),
                modelled_speedup_vs_fp32: model
                    .gemm_speedup_vs_fp32(Domain::Complex32, m, n, TABLE7_K, mode),
            });
        }
    }

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
    json.push_str(&format!("  \"k_scale\": {},\n", o.k_scale));
    json.push_str(&format!("  \"k_table7\": {TABLE7_K},\n"));
    json.push_str(&format!("  \"k_measured\": {k_meas},\n"));
    json.push_str(
        "  \"k_note\": \"ns_per_call is measured at k_measured; modelled_* price the full \
         k_table7 shape; ns_per_call_table7_est = ns_per_call * k_table7 / k_measured \
         (linear-in-k extrapolation)\",\n",
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
                "    {{\"routine\": \"{}\", \"mode\": \"{}\", \"m\": {}, \"n\": {}, \
                 \"k_table7\": {}, \"k_measured\": {}, \"ns_per_call\": {}, \
                 \"ns_per_call_table7_est\": {}, \
                 \"allocs_per_call\": {}, \"modelled_device_s\": {:.6e}, \
                 \"modelled_speedup_vs_fp32\": {:.4}}}",
                e.routine,
                mode_label(e.mode),
                e.m,
                e.n,
                e.k_table,
                e.k_measured,
                json_f64(e.ns_per_call),
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
    let today = civil_date_utc();
    let gate_ns = |mode: ComputeMode| {
        entries
            .iter()
            .find(|e| e.routine == "SGEMM" && e.mode == mode && e.m == 128 && e.n == 1920)
            .map(|e| e.ns_per_call)
            .unwrap_or(f64::NAN)
    };
    let new_entry = format!(
        "{{\"date\":\"{today}\",\"k_scale\":{},\"hit_ratio\":{:.4},\
         \"sgemm_128x1920_ns_per_call\":{{\"STANDARD\":{},\"FLOAT_TO_BF16X2\":{},\
         \"FLOAT_TO_BF16X3\":{}}}}}",
        o.k_scale,
        hit_ratio,
        json_f64(gate_ns(ComputeMode::Standard)),
        json_f64(gate_ns(ComputeMode::FloatToBf16x2)),
        json_f64(gate_ns(ComputeMode::FloatToBf16x3)),
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

    // --- split-mode perf-ratio gate (128×1920 Table VII shape) ---
    // The tripwire against regressing the packed split-plane kernel back
    // to independent per-plane passes: BF16x2 / BF16x3 must stay within
    // the given multiple of STANDARD at the same measured shape.
    if o.max_x2_ratio.is_some() || o.max_x3_ratio.is_some() {
        let (gm, gn) = (128usize, 1920usize);
        let ns_of = |mode: ComputeMode| {
            entries
                .iter()
                .find(|e| e.routine == "SGEMM" && e.mode == mode && e.m == gm && e.n == gn)
                .map(|e| e.ns_per_call)
        };
        let Some(std_ns) = ns_of(ComputeMode::Standard).filter(|ns| *ns > 0.0) else {
            eprintln!("perf-ratio gate: no STANDARD ({gm}, {gn}) row to compare against");
            std::process::exit(1);
        };
        let mut failures = 0u32;
        for (mode, max) in [
            (ComputeMode::FloatToBf16x2, o.max_x2_ratio),
            (ComputeMode::FloatToBf16x3, o.max_x3_ratio),
        ] {
            let Some(max) = max else { continue };
            let Some(ns) = ns_of(mode) else {
                eprintln!("perf-ratio gate: no {} ({gm}, {gn}) row", mode_label(mode));
                failures += 1;
                continue;
            };
            let ratio = ns / std_ns;
            let verdict = if ratio <= max { "ok" } else { "FAIL" };
            eprintln!(
                "perf-ratio {}/STANDARD ({gm}, {gn}, {k_meas}): {ratio:.2}x (max {max:.2}x) \
                 {verdict}",
                mode_label(mode)
            );
            if ratio > max {
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("perf-ratio gate: {failures} mode(s) over threshold");
            std::process::exit(1);
        }
    }
}
