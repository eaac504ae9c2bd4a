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
//!   compute one triangle of. Beside them, the two other `orb-heavy`
//!   `cgemm` shapes at STANDARD and BF16x3: the *remap* projection
//!   `Φ_occ†(0)·Ψ_virt(t)` (48 × 48 × 1728 on ld-96 views) and the
//!   *subspace* product `D·C` (96³). `--k-scale` does not touch them.
//! * **GFLOP/s** per row (2·m·n·k real, 8·m·n·k complex, 4·n·(n+1)·k for
//!   the triangle a `zherk`/`zgemmt` is defined to compute), and the
//!   microkernel the row's element width and `m` dispatched to on this
//!   host (`tile`, on stderr and in the JSON rows).
//! * **pack share** per application row: the time of the same product
//!   with the microkernel stubbed out (`mkl-lite`'s bench hook: gather,
//!   conversion, accumulator zero-fill and writeback) over the time of
//!   the call.
//! * **allocs/call** over the timed steady-state calls, counted by
//!   [`CountingAlloc`] — the workspace pool's contract is that this is
//!   exactly zero, and a row that allocates fails the run.
//!
//! Every row runs on the rayon pool at the machine's thread count, which
//! the report records (`threads`). Two **scaling rows** time a STANDARD
//! `cgemm` at one thread and at that count, one per schedule of the
//! driver: the 96-orbital apply product (`1728 × 96 × 96`, cut by rows;
//! `scaling`) and the 16-orbital project product (`16 × 16 × 1728`, cut
//! by depth; `scaling_project`).
//!
//! Every `calls[]` row also carries the **modelled device time** on the
//! `xe-gpu` stack model, plus the modelled speedup over FP32 — the
//! quantities behind Tables VI/VII (priced at the full Table VII `k` for
//! the Table VII rows, at the measured shape for the application rows).
//!
//! Usage: `gemm_hostperf [--out PATH] [--seconds-per-row F] [--label L]
//! [--min-speedup SERIES@ENTRY=F]... [--k-scale N]` — the options of
//! [`dcmesh_bench::layer`] (default 0.1 s per row, `BENCH_gemm.json`, gates
//! on the `STANDARD` column) plus the Table VII `k` divisor (default 64).
//!
//! Four checks run on every invocation and fail the run (exit 1, after
//! the file is written). Each ratio check times its numerator and its
//! denominator interleaved, call for call, in one sampler of its own, so
//! the two see the same moment of a shared host:
//!
//! * **zero allocation** — any row whose timed calls allocated;
//! * **split ratios** — the measured BF16x2/STANDARD and BF16x3/STANDARD
//!   `ns_per_call` ratios at the 128×1920 Table VII shape *and* at the
//!   96-orbital `cgemm` project shape above [`MAX_BF16X2_RATIO`] /
//!   [`MAX_BF16X3_RATIO`]: the tripwire against regressing to per-plane
//!   passes (historically 3×/6–7×; the packed kernel holds ~1.5–2×/2–3×);
//! * **triangle** — the 96-orbital `zherk` and `zgemmt` project rows above
//!   [`MAX_HERK_OVER_GEMM`] of the `zgemm` row: a Hermitian output
//!   computes a little over half the tiles, and must cost accordingly;
//! * **ABFT** — a STANDARD `cgemm` at the 16- and 96-orbital project and
//!   apply shapes, checked by ABFT at period 1, above
//!   [`MAX_ABFT_OVER_GEMM`] of the same call unchecked: the row checksum
//!   is O(m·n + m·k + k·n) work over an O(m·n·k) product, and must cost
//!   accordingly. The checked calls' ns/call are kept as the
//!   `cgemm_abft_{project,apply}_{16,96}` series.
//!
//! **k labeling:** every measured number is labeled with the `k` it was
//! taken at (`k_measured`). For the Table VII rows that is
//! `262144 / k_scale`, while `modelled_device_s` /
//! `modelled_speedup_vs_fp32` price the *full* shape
//! (`k_table7 = 262144`) and `ns_per_call_table7_est` bridges the two
//! with an explicit linear-in-k extrapolation (`ns_per_call × k_scale`).
//! For the application rows `k_table7 == k_measured`: nothing is scaled
//! or extrapolated.

use dcmesh_bench::layer::{fixed, interleaved, object, sample, scaling, text, Cli, CountingAlloc};
use dcmesh_numerics::{c32, c64, C32, C64};
use dcmesh_telemetry::json::JsonValue;
use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::gemm::complex_gemm_sans_microkernel;
use mkl_lite::gemm::kernel::dispatched_kernel;
use mkl_lite::workspace;
use mkl_lite::{
    cgemm, clear_abft, install_abft, sgemm, with_compute_mode, zgemm, zgemmt, zherk, ComputeMode,
    Op, Uplo,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

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
/// The ratio-gate orbital count among them (GEMM-bound), also that of the
/// scaling row the driver cuts by rows.
const GATE_ORBITALS: usize = 96;
/// The orbital count of the scaling row the driver cuts by depth.
const DEPTH_ORBITALS: usize = 16;

/// The most BF16x2 / BF16x3 may cost as a multiple of STANDARD at the
/// gate shapes. The packed kernel holds ~1.9×/2.7× on the SGEMM and
/// ~2.2×/3.2× on the CGEMM projection, where both complex operands are
/// converted; the ceilings leave headroom for runner noise.
const MAX_BF16X2_RATIO: f64 = 2.8;
const MAX_BF16X3_RATIO: f64 = 4.5;
/// The most the 96-orbital ZHERK / ZGEMMT projection may cost as a
/// fraction of the ZGEMM it is one triangle of (42 of 72 tiles: ~0.63×
/// measured).
const MAX_HERK_OVER_GEMM: f64 = 0.8;
/// The most an application `cgemm` ABFT-checked at period 1 may cost as a
/// multiple of the same call unchecked, at the 16- and 96-orbital project
/// and apply shapes. Measured on a 2-vCPU AVX-512 host: 6.0× at the
/// 16-orbital project, 1.8–2.9× at the other three; with a libm `hypot`
/// per operand element, as the check was first written, 10.1× at the
/// 16-orbital project.
const MAX_ABFT_OVER_GEMM: f64 = 8.0;

const SGEMM_MODES: [ComputeMode; 5] = [
    ComputeMode::Standard,
    ComputeMode::FloatToTf32,
    ComputeMode::FloatToBf16,
    ComputeMode::FloatToBf16x2,
    ComputeMode::FloatToBf16x3,
];

/// One measured call shape.
struct Entry {
    routine: &'static str,
    /// `table7`, `project`, `apply`, `remap` or `subspace`.
    shape: &'static str,
    mode: ComputeMode,
    /// The tile the call's `m` dispatched to.
    tile: &'static str,
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

fn main() {
    let cli = Cli::from_env("gemm_hostperf", "BENCH_gemm.json", 0.1, &["--k-scale"]);
    let k_scale = match cli.value("--k-scale").map(str::parse::<usize>) {
        None => 64,
        Some(Ok(k)) if k > 0 => k,
        Some(_) => {
            eprintln!("gemm_hostperf: --k-scale needs a positive integer");
            std::process::exit(2);
        }
    };
    let history = cli.history();
    let seconds = cli.seconds_per_row;
    let model = xe_gpu::XeStackModel::new(xe_gpu::MAX_1550_STACK);
    let mut rng = StdRng::seed_from_u64(0xbea7);
    let mut entries: Vec<Entry> = Vec::new();
    let mut dirty_modes: Vec<String> = Vec::new();
    let threads = rayon::current_num_threads();
    eprintln!("threads: {threads} (every row; the scaling rows also at 1)");

    // Measures one row under `mode` and files it. `sans_kernel` is the
    // same product through the bench hook that stubs the microkernel out.
    let mut record = |routine: &'static str,
                      domain: Domain,
                      shape: &'static str,
                      mode: ComputeMode,
                      (m, n, k_meas, k_table): (usize, usize, usize, usize),
                      call: &mut dyn FnMut(),
                      sans_kernel: Option<&mut dyn FnMut()>| {
        let timing = with_compute_mode(mode, || sample(seconds, || (), |()| call()).0);
        let ns = timing.min_ns;
        let pack_share = sans_kernel.map(|f| sample(seconds, || (), |()| f()).0.min_ns / ns);
        let flops = match routine {
            "SGEMM" => 2.0 * (m * n * k_meas) as f64,
            "ZHERK" | "ZGEMMT" => 4.0 * (n * (n + 1) * k_meas) as f64,
            _ => 8.0 * (m * n * k_meas) as f64,
        };
        let gflops = flops / ns;
        let allocs = timing.allocs_per_call;
        let tile = match domain {
            Domain::Real32 | Domain::Complex32 => dispatched_kernel::<f32>(m),
            Domain::Real64 | Domain::Complex64 => dispatched_kernel::<f64>(m),
        };
        eprintln!(
            "{:<6} {shape:<8} {:>16} ({m}, {n}, {k_meas}): {ns:>12.0} ns/call {gflops:>7.2} GFLOP/s, \
             pack {}, {allocs} allocs/call, {tile}",
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
            tile,
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
    let k_meas = (TABLE7_K / k_scale).max(1);
    eprintln!(
        "k-scale {}: Table VII rows measured at k = {k_meas} (Table VII k = {TABLE7_K}); \
         their modelled_* columns price the full shape",
        k_scale
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
    // The other two `orb-heavy` shapes: the remap projection `Φ_occ†(0) ·
    // Ψ_virt(t)` — the occupied and the virtual half of the orbitals, read
    // as ld-96 views — and the `96³` subspace product `D·C`.
    {
        let orb = GATE_ORBITALS;
        let occ = orb / 2;
        let mut rand = |len: usize| -> Vec<C32> {
            (0..len).map(|_| c32(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
        };
        let (psi, d, proj) = (rand(APP_GRID * orb), rand(orb * orb), rand(orb * orb));
        let (mut r, mut dc, mut junk) = (vec![C32::zero(); occ * occ], vec![C32::zero(); orb * orb], vec![C32::zero(); orb * orb]);
        let (ct, no, one, zero) = (Op::ConjTrans, Op::None, C32::one(), C32::zero());
        let virt = &psi[occ..];
        for mode in [ComputeMode::Standard, ComputeMode::FloatToBf16x3] {
            record("CGEMM", Domain::Complex32, "remap", mode, (occ, occ, APP_GRID, APP_GRID), &mut || {
                cgemm(ct, no, occ, occ, APP_GRID, one, &psi, orb, virt, orb, zero, &mut r, occ);
            }, Some(&mut || {
                complex_gemm_sans_microkernel(mode, None, ct, no, occ, occ, APP_GRID, &psi, orb, virt, orb, &mut junk, occ);
            }));
            record("CGEMM", Domain::Complex32, "subspace", mode, (orb, orb, orb, orb), &mut || {
                cgemm(no, no, orb, orb, orb, one, &d, orb, &proj, orb, zero, &mut dc, orb);
            }, Some(&mut || {
                complex_gemm_sans_microkernel(mode, None, no, no, orb, orb, orb, &d, orb, &proj, orb, &mut junk, orb);
            }));
        }
        black_box((&r[0], &dc[0], &junk[0]));
    }

    // --- thread scaling: two application rows at 1 thread and at `threads`:
    // the 96-orbital apply, which the driver cuts by rows, and the
    // 16-orbital project, which it cuts by depth ---
    let std = ComputeMode::Standard;
    let mut scaling_row = |shape: &str, (m, n, k): (usize, usize, usize), call: &mut dyn FnMut()| {
        let [one, all] = with_compute_mode(std, || scaling(seconds, threads, call));
        eprintln!(
            "scaling cgemm {shape} STANDARD ({m}, {n}, {k}): {:.0} ns/call at 1 thread, \
             {:.0} at {threads}: {:.2}x",
            one.min_ns,
            all.min_ns,
            one.min_ns / all.min_ns
        );
        if one.allocs_per_call + all.allocs_per_call > 0.0 {
            dirty_modes.push(format!("scaling CGEMM {shape} ({m},{n},{k})"));
        }
        let row = object([
            ("routine", text("CGEMM")),
            ("shape", text(shape)),
            ("mode", text("STANDARD")),
            ("m", fixed(m as f64, 0)),
            ("n", fixed(n as f64, 0)),
            ("k", fixed(k as f64, 0)),
            ("ns_per_call_1_thread", fixed(one.min_ns, 1)),
            ("threads", fixed(threads as f64, 0)),
            ("ns_per_call", fixed(all.min_ns, 1)),
            ("speedup", fixed(one.min_ns / all.min_ns, 2)),
        ]);
        (one.min_ns, row)
    };
    let wave = |len: usize| -> Vec<C32> {
        (0..len).map(|i| c32((i as f32).sin(), (i as f32).cos())).collect()
    };
    let (apply_1_thread, apply_row) = {
        let orb = GATE_ORBITALS;
        let psi = wave(APP_GRID * orb);
        let sub: Vec<C32> = (0..orb * orb).map(|i| c32((i as f32).cos(), 0.5)).collect();
        let mut tall = vec![C32::zero(); APP_GRID * orb];
        let row = scaling_row("apply", (APP_GRID, orb, orb), &mut || {
            cgemm(Op::None, Op::None, APP_GRID, orb, orb, C32::one(), &psi, orb, &sub, orb, C32::zero(), &mut tall, orb)
        });
        black_box(&tall[0]);
        row
    };
    let (project_1_thread, project_row) = {
        let orb = DEPTH_ORBITALS;
        let psi = wave(APP_GRID * orb);
        let mut small = vec![C32::zero(); orb * orb];
        let row = scaling_row("project", (orb, orb, APP_GRID), &mut || {
            cgemm(Op::ConjTrans, Op::None, orb, orb, APP_GRID, C32::one(), &psi, orb, &psi, orb, C32::zero(), &mut small, orb)
        });
        black_box(&small[0]);
        row
    };

    // --- ratio gates: each numerator timed interleaved with its
    // denominator, so both see the same moment of a shared host ---
    // The numerator's ns/call is returned.
    let mut gates: Vec<(String, f64, f64)> = Vec::new();
    let mut gate = |name: String, max: f64, num: &mut dyn FnMut(), den: &mut dyn FnMut()| {
        let [n, d] = interleaved(seconds, num, den);
        if n.allocs_per_call + d.allocs_per_call > 0.0 {
            dirty_modes.push(format!("gate {name}"));
        }
        gates.push((name, n.min_ns / d.min_ns, max));
        n.min_ns
    };
    let split_modes = [
        (ComputeMode::FloatToBf16x2, MAX_BF16X2_RATIO),
        (ComputeMode::FloatToBf16x3, MAX_BF16X3_RATIO),
    ];
    {
        let (m, n) = GATE_SHAPE;
        let (a, b) = (&a_full[..m * k_meas], &b_full[..k_meas * n]);
        let sgemm_in = |mode, c: &mut [f32]| {
            with_compute_mode(mode, || sgemm(Op::None, Op::None, m, n, k_meas, 1.0, a, k_meas, b, n, 0.0, c, n))
        };
        let (mut c1, mut c2) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        for (mode, max) in split_modes {
            let name = format!("perf-ratio SGEMM table7 {}/STANDARD ({m}, {n})", mode.name());
            gate(name, max, &mut || sgemm_in(mode, &mut c1), &mut || sgemm_in(std, &mut c2));
        }
        black_box((&c1[0], &c2[0]));
    }
    {
        let orb = GATE_ORBITALS;
        let psi32 = wave(APP_GRID * orb);
        let psi64: Vec<C64> = psi32.iter().map(|z| c64(z.re as f64, z.im as f64)).collect();
        let (ct, no) = (Op::ConjTrans, Op::None);
        let (one32, zero32, one64, zero64) = (C32::one(), C32::zero(), C64::one(), C64::zero());
        let cgemm_in = |mode, c: &mut [C32]| {
            with_compute_mode(mode, || cgemm(ct, no, orb, orb, APP_GRID, one32, &psi32, orb, &psi32, orb, zero32, c, orb))
        };
        let (mut c1, mut c2) = (vec![zero32; orb * orb], vec![zero32; orb * orb]);
        for (mode, max) in split_modes {
            let name = format!("perf-ratio CGEMM project {}/STANDARD ({orb}, {orb})", mode.name());
            gate(name, max, &mut || cgemm_in(mode, &mut c1), &mut || cgemm_in(std, &mut c2));
        }
        let zgemm_in = |c: &mut [C64]| {
            zgemm(ct, no, orb, orb, APP_GRID, one64, &psi64, orb, &psi64, orb, zero64, c, orb)
        };
        let (mut z1, mut z2) = (vec![zero64; orb * orb], vec![zero64; orb * orb]);
        let triangle = format!("({orb}, {orb}, {APP_GRID})");
        gate(format!("triangle ZHERK/ZGEMM project {triangle}"), MAX_HERK_OVER_GEMM, &mut || {
            zherk(Uplo::Upper, ct, orb, APP_GRID, 1.0, &psi64, orb, 0.0, &mut z1, orb)
        }, &mut || zgemm_in(&mut z2));
        gate(format!("triangle ZGEMMT/ZGEMM project {triangle}"), MAX_HERK_OVER_GEMM, &mut || {
            zgemmt(Uplo::Upper, ct, no, orb, APP_GRID, one64, &psi64, orb, &psi64, orb, zero64, &mut z1, orb)
        }, &mut || zgemm_in(&mut z2));
        black_box((&c1[0], &c2[0], &z1[0], &z2[0]));
    }
    // ABFT's cost: the application's CGEMMs checked at period 1 against the
    // same calls unchecked; the checked ns/call is kept as a series.
    let mut abft_checked: Vec<(String, f64)> = Vec::new();
    for orb in APP_ORBITALS {
        let psi = wave(APP_GRID * orb);
        let sub: Vec<C32> = (0..orb * orb).map(|i| c32((i as f32).cos(), 0.5)).collect();
        let (ct, no, one, zero) = (Op::ConjTrans, Op::None, C32::one(), C32::zero());
        let project = |c: &mut [C32]| cgemm(ct, no, orb, orb, APP_GRID, one, &psi, orb, &psi, orb, zero, c, orb);
        let apply = |c: &mut [C32]| cgemm(no, no, APP_GRID, orb, orb, one, &psi, orb, &sub, orb, zero, c, orb);
        for (shape, (m, n, k), call) in [
            ("project", (orb, orb, APP_GRID), &project as &dyn Fn(&mut [C32])),
            ("apply", (APP_GRID, orb, orb), &apply),
        ] {
            let (mut c1, mut c2) = (vec![zero; m * n], vec![zero; m * n]);
            let name = format!("abft CGEMM {shape} checked/unchecked ({m}, {n}, {k})");
            let checked = with_compute_mode(std, || {
                gate(name, MAX_ABFT_OVER_GEMM, &mut || {
                    install_abft(1);
                    call(&mut c1);
                    clear_abft();
                }, &mut || call(&mut c2))
            });
            abft_checked.push((format!("cgemm_abft_{shape}_{orb}"), checked));
            black_box((&c1[0], &c2[0]));
        }
    }

    // --- workspace-pool traffic ---
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

    // --- BENCH_gemm.json ---
    let calls: Vec<JsonValue> = entries
        .iter()
        .map(|e| {
            object([
                ("routine", text(e.routine)),
                ("shape", text(e.shape)),
                ("mode", text(e.mode.name())),
                ("tile", text(e.tile)),
                ("m", fixed(e.m as f64, 0)),
                ("n", fixed(e.n as f64, 0)),
                ("k_table7", fixed(e.k_table as f64, 0)),
                ("k_measured", fixed(e.k_measured as f64, 0)),
                ("threads", fixed(threads as f64, 0)),
                ("ns_per_call", fixed(e.ns_per_call, 1)),
                ("gflops", fixed(e.gflops, 2)),
                ("pack_share", e.pack_share.map_or(JsonValue::Null, |p| fixed(p, 3))),
                (
                    "ns_per_call_table7_est",
                    fixed(e.ns_per_call * (e.k_table as f64 / e.k_measured as f64), 1),
                ),
                ("allocs_per_call", JsonValue::Number(e.allocs_per_call)),
                ("modelled_device_s", JsonValue::Number(e.modelled_device_s)),
                ("modelled_speedup_vs_fp32", fixed(e.modelled_speedup_vs_fp32, 4)),
            ])
        })
        .collect();

    // --- dated history: one `<series>_ns_per_call: {mode: ns}` member per
    // watched shape. The Table VII series carries its k, so runs at
    // different `--k-scale` never share one.
    let mut entry = cli.entry(threads);
    entry.extra("k_scale", fixed(k_scale as f64, 0));
    entry.extra("hit_ratio", fixed(hit_ratio, 4));
    let mut series =
        |name: &str, routine: &str, shape: &str, (m, n): (usize, usize), modes: &[ComputeMode]| {
            for e in
                entries.iter().filter(|e| (e.routine, e.shape, e.m, e.n) == (routine, shape, m, n))
            {
                if modes.contains(&e.mode) {
                    entry.series(name, e.mode.name(), e.ns_per_call);
                }
            }
        };
    let gate_modes =
        [ComputeMode::Standard, ComputeMode::FloatToBf16x2, ComputeMode::FloatToBf16x3];
    let (gm, gn) = GATE_SHAPE;
    series(&format!("sgemm_{gm}x{gn}_k{k_meas}"), "SGEMM", "table7", GATE_SHAPE, &gate_modes);
    for orb in APP_ORBITALS {
        for (shape, dims) in [("project", (orb, orb)), ("apply", (APP_GRID, orb))] {
            series(&format!("cgemm_{shape}_{orb}"), "CGEMM", shape, dims, &ComputeMode::ALL);
            series(&format!("zgemm_{shape}_{orb}"), "ZGEMM", shape, dims, &[ComputeMode::Standard]);
        }
        for routine in ["ZHERK", "ZGEMMT"] {
            let name = format!("{}_project_{orb}", routine.to_lowercase());
            series(&name, routine, "project", (orb, orb), &[ComputeMode::Standard]);
        }
    }
    let (orb, split) = (GATE_ORBITALS, [ComputeMode::Standard, ComputeMode::FloatToBf16x3]);
    series(&format!("cgemm_remap_{orb}"), "CGEMM", "remap", (orb / 2, orb / 2), &split);
    series(&format!("cgemm_subspace_{orb}"), "CGEMM", "subspace", (orb, orb), &split);
    entry.series(&format!("cgemm_apply_{GATE_ORBITALS}_1_thread"), "STANDARD", apply_1_thread);
    entry.series(&format!("cgemm_project_{DEPTH_ORBITALS}_1_thread"), "STANDARD", project_1_thread);
    for (name, ns) in &abft_checked {
        entry.series(name, "STANDARD", *ns);
    }

    let header = [
        ("bench", text("gemm_hostperf")),
        ("threads", fixed(threads as f64, 0)),
        ("scaling", apply_row),
        ("scaling_project", project_row),
        ("k_scale", fixed(k_scale as f64, 0)),
        ("k_table7", fixed(TABLE7_K as f64, 0)),
        ("k_measured", fixed(k_meas as f64, 0)),
        (
            "k_note",
            text(
                "ns_per_call and gflops are measured at each row's k_measured; table7 rows \
                 price modelled_* at the full k_table7 shape and ns_per_call_table7_est = ns_per_call * \
                 k_table7 / k_measured (linear-in-k extrapolation); project/apply rows are the \
                 application's calls at their real k (k_table7 == k_measured, nothing scaled)",
            ),
        ),
        (
            "pool",
            object([
                ("takes", fixed(pool.takes as f64, 0)),
                ("misses", fixed(pool.misses as f64, 0)),
                ("grows", fixed(pool.grows as f64, 0)),
                ("returns", fixed(pool.returns as f64, 0)),
                ("bytes_outstanding", fixed(pool.bytes_outstanding as f64, 0)),
                ("hit_ratio", fixed(hit_ratio, 4)),
            ]),
        ),
        ("calls", JsonValue::Array(calls)),
    ];
    let mut failures = u32::from(!cli.finish(history, &header, entry, "STANDARD"));

    if !dirty_modes.is_empty() {
        eprintln!("steady-state allocations detected in: {}", dirty_modes.join(", "));
        failures += 1;
    }

    // --- ratio gates ---
    // The split-mode tripwire against regressing the packed split-plane
    // kernel back to independent per-plane passes: BF16x2 / BF16x3 must
    // stay within their multiple of STANDARD at the same shape — the
    // 128×1920 Table VII SGEMM and the 96-orbital CGEMM projection. And a
    // Hermitian output must cost like one: ZHERK / ZGEMMT against the ZGEMM
    // they compute a triangle of.
    for (name, ratio, max) in gates {
        let verdict = if ratio <= max { "ok" } else { "FAIL" };
        eprintln!("{name}: {ratio:.2}x (max {max:.2}x, timed interleaved) {verdict}");
        failures += u32::from(ratio > max);
    }
    if failures > 0 {
        eprintln!("gemm_hostperf: {failures} check(s) failed");
        std::process::exit(1);
    }
}
