//! `stencil_hostperf`: host-side mesh-kernel baseline (`BENCH_stencil.json`).
//!
//! The layer benchmark under `lfd.propagate_ms` / `lfd.energy_ms` of the
//! end-to-end trace: the three public entry points of the stencil —
//! `apply_h` with a vector potential (so the gradient taps run),
//! `apply_kinetic`, and a whole `taylor_propagate` (four fused sweeps) —
//! on the 12³ mesh at 16 and 96 orbitals, in `f32` and `f64`.
//!
//! Per row: the ladder rung the sweep dispatched to (`avx512f`, `avx2`
//! or `portable`, per element width and store mode — the first stderr
//! lines name them, as `gemm_hostperf` names its microkernels), µs per
//! call (fastest and median sample), Mpt/s where a point is one orbital at
//! one grid point in one sweep, **computed** flops and bytes per point
//! (counted from the kernel's source, not measured — see
//! [`Kernel::flops_per_point`]), and the achieved GFLOP/s over a
//! separate-multiply-and-add peak measured in the same run at that rung's
//! vector width on the same threads. The kernel never contracts `a*b + c`
//! into an FMA (that is what keeps it bit-identical across
//! instantiations), so the FMA peak is twice what it can reach; the
//! mul+add peak is the honest ceiling.
//!
//! Every row runs its x-slabs on the rayon pool at the machine's thread
//! count, which the report records (`threads`). One **scaling row** times
//! `taylor_propagate` `f32` at 12³×16 (the `pto40-small` deck) at one
//! thread and at that count.
//!
//! Usage: `stencil_hostperf [--out PATH] [--seconds-per-row F] [--label L]
//! [--min-speedup SERIES@ENTRY=F]...` (the options of
//! [`dcmesh_bench::layer`]; default 0.5 s per row, `BENCH_stencil.json`).
//! The gates compare the `f32` column of a series
//! (`taylor_propagate_12x16`, `apply_kinetic_12x96`, …).

use dcmesh_bench::layer::{fixed, object, sample, scaling, text, Cli, Timing};
use dcmesh_lfd::hamiltonian::{apply_h, apply_kinetic, dispatched_rungs};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::propagator::{taylor_propagate, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_numerics::{Complex, Real, Rung};
use dcmesh_telemetry::json::JsonValue;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const MESH_POINTS: usize = 12;
const ORBITALS: [usize; 2] = [16, 96];
const A_TOTAL: f64 = 0.1;

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    ApplyH,
    ApplyKinetic,
    TaylorPropagate,
}

impl Kernel {
    const ALL: [Kernel; 3] = [
        Kernel::ApplyH,
        Kernel::ApplyKinetic,
        Kernel::TaylorPropagate,
    ];

    fn name(self) -> &'static str {
        match self {
            Kernel::ApplyH => "apply_h",
            Kernel::ApplyKinetic => "apply_kinetic",
            Kernel::TaylorPropagate => "taylor_propagate",
        }
    }

    /// The ladder rung this kernel's sweeps over `T` dispatch to: the
    /// plain store's for `apply_h` / `apply_kinetic`, the Taylor stores'
    /// for `taylor_propagate`.
    fn rung<T: Real>(self) -> Rung {
        let [plain, taylor] = dispatched_rungs::<T>();
        if self == Kernel::TaylorPropagate {
            taylor
        } else {
            plain
        }
    }

    /// Stencil sweeps per call.
    fn sweeps(self, taylor_order: usize) -> usize {
        match self {
            Kernel::TaylorPropagate => taylor_order,
            _ => 1,
        }
    }

    /// Real floating-point operations per orbital per grid point per
    /// sweep, counted from `Stencil::block`: the centre tap is 2
    /// multiplies, each of the 24 Laplacian taps 2 multiplies + 2 adds,
    /// each of the 4 gradient pairs 2 subtracts + 2 multiplies + 2 adds,
    /// the Taylor store 2 multiplies + 2 adds. Sign flips are not counted.
    fn flops_per_point(self) -> f64 {
        let kinetic = 2.0 + 24.0 * 4.0;
        match self {
            Kernel::ApplyKinetic => kinetic,
            Kernel::ApplyH => kinetic + 4.0 * 6.0,
            Kernel::TaylorPropagate => kinetic + 4.0 * 6.0 + 4.0,
        }
    }

    /// Compulsory bytes per orbital per grid point per sweep if every
    /// array element moves once: a plain sweep reads ψ and writes Hψ; a
    /// Taylor propagation of order ≥ 2 moves 13 state-sized streams at
    /// order 4 — `2 + 4·(order − 2) + 3` in general: order 1 reads ψ and
    /// writes t₁, the middle orders read a term, write the next and
    /// read-modify-write ψ, the last skips its store — spread over its
    /// sweeps. The neighbour re-reads are served from cache at these sizes
    /// and the potential is one real per *grid point*, so neither is
    /// counted.
    fn bytes_per_point(self, complex_bytes: usize, taylor_order: usize) -> f64 {
        let z = complex_bytes as f64;
        match self {
            Kernel::TaylorPropagate => {
                let streams = 2 + 4 * taylor_order.saturating_sub(2) + 3;
                streams as f64 * z / taylor_order as f64
            }
            _ => 2.0 * z,
        }
    }
}

struct Row {
    kernel: Kernel,
    scalar: &'static str,
    rung: Rung,
    n_orb: usize,
    timing: Timing,
    mpts_per_s: f64,
    flops_per_point: f64,
    bytes_per_point: f64,
    gflops: f64,
    peak_frac: f64,
}

/// Independent chains of `v = v·a + b` with a *separate* multiply and
/// add, each `LANES` wide (one vector register of the rung: zmm, ymm or
/// xmm): enough chains to cover both latencies on two ports, few enough
/// to stay in registers.
const CHAINS: usize = 10;

#[inline(always)]
fn chains<T: Real, const LANES: usize>(iters: u64, acc: &mut [[T; LANES]; CHAINS], a: T, b: T) {
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = *v * a + b;
            }
        }
    }
}

/// The chains in zmm registers, written with intrinsics: under
/// `avx512f` LLVM vectorises the generic `f32` loop with gathers and it
/// runs at ~2 GFLOP/s, a thirtieth of what the same multiplies and adds
/// reach one register per chain.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chains_avx512<T: Real, const LANES: usize>(
    iters: u64,
    acc: &mut [[T; LANES]; CHAINS],
    a: T,
    b: T,
) {
    use std::arch::x86_64::*;
    assert_eq!(core::mem::size_of::<[T; LANES]>(), 64, "one zmm register per chain");
    if core::mem::size_of::<T>() == 4 {
        let p = acc.as_mut_ptr().cast::<f32>();
        let (va, vb) = (_mm512_set1_ps(a.to_f64() as f32), _mm512_set1_ps(b.to_f64() as f32));
        let mut r = [_mm512_setzero_ps(); CHAINS];
        for (c, x) in r.iter_mut().enumerate() {
            *x = unsafe { _mm512_loadu_ps(p.add(16 * c)) };
        }
        for _ in 0..iters {
            for x in r.iter_mut() {
                *x = _mm512_add_ps(_mm512_mul_ps(*x, va), vb);
            }
        }
        for (c, x) in r.iter().enumerate() {
            unsafe { _mm512_storeu_ps(p.add(16 * c), *x) };
        }
    } else {
        let p = acc.as_mut_ptr().cast::<f64>();
        let (va, vb) = (_mm512_set1_pd(a.to_f64()), _mm512_set1_pd(b.to_f64()));
        let mut r = [_mm512_setzero_pd(); CHAINS];
        for (c, x) in r.iter_mut().enumerate() {
            *x = unsafe { _mm512_loadu_pd(p.add(8 * c)) };
        }
        for _ in 0..iters {
            for x in r.iter_mut() {
                *x = _mm512_add_pd(_mm512_mul_pd(*x, va), vb);
            }
        }
        for (c, x) in r.iter().enumerate() {
            unsafe { _mm512_storeu_pd(p.add(8 * c), *x) };
        }
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chains_avx2<T: Real, const LANES: usize>(
    iters: u64,
    acc: &mut [[T; LANES]; CHAINS],
    a: T,
    b: T,
) {
    chains(iters, acc, a, b)
}

/// Runs the chains compiled for `rung`.
fn run_chains<T: Real, const LANES: usize>(
    rung: Rung,
    iters: u64,
    acc: &mut [[T; LANES]; CHAINS],
    a: T,
    b: T,
) {
    assert!(rung.available(), "{} is not available", rung.name());
    #[cfg(target_arch = "x86_64")]
    match rung {
        // SAFETY: the assertion above detected the rung's features.
        Rung::Avx512f => return unsafe { chains_avx512(iters, acc, a, b) },
        Rung::Avx2 => return unsafe { chains_avx2(iters, acc, a, b) },
        Rung::Portable => {}
    }
    chains(iters, acc, a, b)
}

/// Measured multiply-then-add rate in GFLOP/s of `threads` threads at
/// `rung`'s vector width: 64, 32 or 16 bytes of `T` per chain.
fn mul_add_peak<T: Real>(rung: Rung, threads: usize) -> f64 {
    let bytes = match rung {
        Rung::Avx512f => 64,
        Rung::Avx2 => 32,
        Rung::Portable => 16,
    };
    match bytes / core::mem::size_of::<T>() {
        16 => mul_add_peak_lanes::<T, 16>(rung, threads),
        8 => mul_add_peak_lanes::<T, 8>(rung, threads),
        4 => mul_add_peak_lanes::<T, 4>(rung, threads),
        2 => mul_add_peak_lanes::<T, 2>(rung, threads),
        lanes => unreachable!("{lanes} lanes"),
    }
}

/// [`mul_add_peak`] with `LANES` elements per chain. Best of five.
fn mul_add_peak_lanes<T: Real, const LANES: usize>(rung: Rung, threads: usize) -> f64 {
    const ITERS: u64 = 1_000_000;
    let (a, b) = (
        black_box(T::from_f64(0.999_999)),
        black_box(T::from_f64(1.0e-7)),
    );
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut accs = vec![[[T::ONE; LANES]; CHAINS]; threads];
        let start = Instant::now();
        accs.par_iter_mut().for_each(|acc| run_chains(rung, ITERS, acc, a, b));
        let secs = start.elapsed().as_secs_f64();
        black_box(&accs);
        best = best.max(2.0 * (threads * ITERS as usize * CHAINS * LANES) as f64 / secs / 1e9);
    }
    best
}

/// The 12³ deck the rows run on, at `n_orb` orbitals.
fn deck(n_orb: usize) -> LfdParams {
    LfdParams {
        mesh: Mesh3::cubic(MESH_POINTS, 1.2),
        n_orb,
        n_occ: n_orb / 2,
        dt: 0.02,
        vnl_strength: 0.1,
        taylor_order: 4,
        laser: LaserPulse::off(),
        induced_coupling: 0.0,
    }
}

/// The mul+add peak of every rung `T`'s sweeps dispatch to, measured once
/// per rung.
fn peaks<T: Real>(threads: usize) -> Vec<(Rung, f64)> {
    let mut peaks: Vec<(Rung, f64)> = Vec::new();
    for rung in dispatched_rungs::<T>() {
        if peaks.iter().all(|(r, _)| *r != rung) {
            peaks.push((rung, mul_add_peak::<T>(rung, threads)));
        }
    }
    peaks
}

fn rows_for<T: LfdScalar>(
    scalar: &'static str,
    peaks: &[(Rung, f64)],
    seconds: f64,
    rows: &mut Vec<Row>,
) {
    for n_orb in ORBITALS {
        let params = deck(n_orb);
        let mut state = LfdState::<T>::initialize(&params, cosine_potential(&params.mesh, 0.3));
        let mut out = vec![Complex::<T>::zero(); state.psi.len()];
        let mut scratch = QdScratch::<T>::new(&params);
        for kernel in Kernel::ALL {
            let (timing, ()) = match kernel {
                Kernel::ApplyH => sample(
                    seconds,
                    || (),
                    |()| {
                        apply_h(
                            &params.mesh,
                            n_orb,
                            &state.vloc,
                            A_TOTAL,
                            black_box(&state.psi),
                            &mut out,
                        )
                    },
                ),
                Kernel::ApplyKinetic => sample(
                    seconds,
                    || (),
                    |()| apply_kinetic(&params.mesh, n_orb, black_box(&state.psi), &mut out),
                ),
                Kernel::TaylorPropagate => sample(
                    seconds,
                    || (),
                    |()| taylor_propagate(&params, black_box(&mut state), A_TOTAL, &mut scratch),
                ),
            };
            black_box(&out);
            let points = (params.mesh.len() * n_orb * kernel.sweeps(params.taylor_order)) as f64;
            let flops_per_point = kernel.flops_per_point();
            let gflops = points * flops_per_point / timing.min_ns;
            let rung = kernel.rung::<T>();
            let peak = peaks.iter().find(|(r, _)| *r == rung).expect("peak of every rung").1;
            let row = Row {
                kernel,
                scalar,
                rung,
                n_orb,
                timing,
                mpts_per_s: points / timing.min_ns * 1e3,
                flops_per_point,
                bytes_per_point: kernel
                    .bytes_per_point(core::mem::size_of::<Complex<T>>(), params.taylor_order),
                gflops,
                peak_frac: gflops / peak,
            };
            eprintln!(
                "{:<17} {scalar} 12^3x{n_orb:<3} {:<8} {:>9.1} us (median {:>9.1})  {:>6.1} Mpt/s  \
                 {:>5.2} GFLOP/s = {:.2} of mul+add peak",
                kernel.name(),
                rung.name(),
                row.timing.min_ns / 1e3,
                row.timing.median_ns / 1e3,
                row.mpts_per_s,
                row.gflops,
                row.peak_frac
            );
            rows.push(row);
        }
    }
}

fn main() {
    let cli = Cli::from_env("stencil_hostperf", "BENCH_stencil.json", 0.5, &[]);
    let history = cli.history();
    let seconds = cli.seconds_per_row;
    let threads = rayon::current_num_threads();
    let rung_names = |[plain, taylor]: [Rung; 2]| (plain.name(), taylor.name());
    let (rungs32, rungs64) =
        (rung_names(dispatched_rungs::<f32>()), rung_names(dispatched_rungs::<f64>()));
    eprintln!(
        "stencil rungs: f32 plain {}, f32 taylor {}, f64 plain {}, f64 taylor {}",
        rungs32.0, rungs32.1, rungs64.0, rungs64.1
    );
    let (peaks32, peaks64) = (peaks::<f32>(threads), peaks::<f64>(threads));
    let peak_text = |peaks: &[(Rung, f64)]| {
        let each: Vec<String> =
            peaks.iter().map(|(r, p)| format!("{p:.1} GFLOP/s at {}", r.name())).collect();
        each.join(", ")
    };
    eprintln!(
        "measured mul+add peak ({threads} threads): f32 {}; f64 {}",
        peak_text(&peaks32),
        peak_text(&peaks64),
    );
    let mut rows = Vec::new();
    rows_for::<f32>("f32", &peaks32, seconds, &mut rows);
    rows_for::<f64>("f64", &peaks64, seconds, &mut rows);

    // Thread scaling: the pto40-small propagation at 1 thread and at `threads`.
    let [one, all] = {
        let params = deck(ORBITALS[0]);
        let mut state = LfdState::<f32>::initialize(&params, cosine_potential(&params.mesh, 0.3));
        let mut scratch = QdScratch::<f32>::new(&params);
        scaling(seconds, threads, || {
            taylor_propagate(&params, black_box(&mut state), A_TOTAL, &mut scratch)
        })
    };
    let (one_us, all_us) = (one.min_ns / 1e3, all.min_ns / 1e3);
    eprintln!(
        "scaling taylor_propagate f32 12^3x{}: {one_us:.1} us at 1 thread, {all_us:.1} at {threads}: {:.2}x",
        ORBITALS[0],
        one_us / all_us
    );

    let row_json: Vec<JsonValue> = rows
        .iter()
        .map(|r| {
            object([
                ("kernel", text(r.kernel.name())),
                ("scalar", text(r.scalar)),
                ("rung", text(r.rung.name())),
                ("mesh", text(&format!("{MESH_POINTS}^3"))),
                ("n_orb", fixed(r.n_orb as f64, 0)),
                ("threads", fixed(threads as f64, 0)),
                ("us_per_call_min", fixed(r.timing.min_ns / 1e3, 1)),
                ("us_per_call_median", fixed(r.timing.median_ns / 1e3, 1)),
                ("mpts_per_s", fixed(r.mpts_per_s, 1)),
                ("computed_flops_per_point", fixed(r.flops_per_point, 0)),
                ("computed_bytes_per_point", fixed(r.bytes_per_point, 0)),
                ("gflops", fixed(r.gflops, 2)),
                ("frac_of_mul_add_peak", fixed(r.peak_frac, 3)),
            ])
        })
        .collect();
    // One history series per kernel and size, one column per scalar type:
    // the shape `profile trend --bench` reads.
    let mut entry = cli.entry(threads);
    for r in &rows {
        let series = format!("{}_{MESH_POINTS}x{}", r.kernel.name(), r.n_orb);
        entry.series(&series, r.scalar, r.timing.min_ns);
    }
    let one_thread = format!("taylor_propagate_{MESH_POINTS}x{}_1_thread", ORBITALS[0]);
    entry.series(&one_thread, "f32", one.min_ns);

    let rung_json =
        |(plain, taylor): (&str, &str)| object([("plain", text(plain)), ("taylor", text(taylor))]);
    let peak_json =
        |peaks: &[(Rung, f64)]| object(peaks.iter().map(|&(r, p)| (r.name(), fixed(p, 1))));
    let header = [
        ("bench", text("stencil_hostperf")),
        ("threads", fixed(threads as f64, 0)),
        ("point", text("one orbital at one grid point in one stencil sweep")),
        (
            "counts_note",
            text(
                "computed_* are counted from the kernel source (compulsory traffic: \
                 every array element moves once), not measured",
            ),
        ),
        ("rungs", object([("f32", rung_json(rungs32)), ("f64", rung_json(rungs64))])),
        (
            "mul_add_peak_gflops",
            object([("f32", peak_json(&peaks32)), ("f64", peak_json(&peaks64))]),
        ),
        (
            "scaling",
            object([
                ("kernel", text("taylor_propagate")),
                ("scalar", text("f32")),
                ("n_orb", fixed(ORBITALS[0] as f64, 0)),
                ("us_per_call_1_thread", fixed(one_us, 1)),
                ("threads", fixed(threads as f64, 0)),
                ("us_per_call", fixed(all_us, 1)),
                ("speedup", fixed(one_us / all_us, 2)),
            ]),
        ),
        ("rows", JsonValue::Array(row_json)),
    ];
    if !cli.finish(history, &header, entry, "f32") {
        std::process::exit(1);
    }
}
