//! `stencil_hostperf`: host-side mesh-kernel baseline (`BENCH_stencil.json`).
//!
//! The layer benchmark under `lfd.propagate_ms` / `lfd.energy_ms` of the
//! end-to-end trace: the three public entry points of the stencil —
//! `apply_h` with a vector potential (so the gradient taps run),
//! `apply_kinetic`, and a whole `taylor_propagate` (four fused sweeps) —
//! on the 12³ mesh at 16 and 96 orbitals, in `f32` and `f64`.
//!
//! Per row: µs per call (fastest and median sample), Mpt/s where a point
//! is one orbital at one grid point in one sweep, **computed** flops and
//! bytes per point (counted from the kernel's source, not measured — see
//! [`Kernel::flops_per_point`]), and the achieved GFLOP/s over a
//! separate-multiply-and-add peak measured in the same run with the same
//! vector units on the same threads. The kernel never contracts `a*b + c`
//! into an FMA (that is what keeps it bit-identical across
//! instantiations), so the FMA peak is twice what it can reach; the
//! mul+add peak is the honest ceiling.
//!
//! Every row runs its x-slabs on the rayon pool at the machine's thread
//! count, which the report records (`threads`). One **scaling row** times
//! `taylor_propagate` `f32` at 12³×16 (the `pto40-small` deck) at one
//! thread and at that count.
//!
//! Usage: `stencil_hostperf [--out PATH] [--seconds-per-row F]`

use dcmesh_bench::report::{civil_date_utc, merged_history};
use dcmesh_lfd::hamiltonian::{apply_h, apply_kinetic};
use dcmesh_lfd::nonlocal::LfdScalar;
use dcmesh_lfd::propagator::{taylor_propagate, QdScratch};
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_numerics::{Complex, Real};
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
    /// Taylor sweep reads the term, writes the next one and
    /// read-modify-writes ψ, and the call's initial `term ← ψ` copy (one
    /// read, one write) is spread over its sweeps. The neighbour re-reads
    /// are served from cache at these sizes and the potential is one real
    /// per *grid point*, so neither is counted.
    fn bytes_per_point(self, complex_bytes: usize, taylor_order: usize) -> f64 {
        let z = complex_bytes as f64;
        match self {
            Kernel::TaylorPropagate => 4.0 * z + 2.0 * z / taylor_order as f64,
            _ => 2.0 * z,
        }
    }
}

struct Row {
    kernel: Kernel,
    scalar: &'static str,
    n_orb: usize,
    min_us: f64,
    median_us: f64,
    mpts_per_s: f64,
    flops_per_point: f64,
    bytes_per_point: f64,
    gflops: f64,
    peak_frac: f64,
}

/// Independent chains of `v = v·a + b` with a *separate* multiply and
/// add, each `LANES` wide (one ymm: 8 `f32` or 4 `f64`): enough chains to
/// cover both latencies on two ports, few enough to stay in registers.
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

/// Runs the chains on the vector units the stencil dispatches to.
fn run_chains<T: Real, const LANES: usize>(iters: u64, acc: &mut [[T; LANES]; CHAINS], a: T, b: T) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: both features were detected on the line above.
        return unsafe { chains_avx2(iters, acc, a, b) };
    }
    chains(iters, acc, a, b)
}

/// Measured multiply-then-add rate in GFLOP/s of `threads` threads, each
/// running its own chains. Best of five.
fn mul_add_peak<T: Real, const LANES: usize>(threads: usize) -> f64 {
    const ITERS: u64 = 1_000_000;
    let (a, b) = (
        black_box(T::from_f64(0.999_999)),
        black_box(T::from_f64(1.0e-7)),
    );
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut accs = vec![[[T::ONE; LANES]; CHAINS]; threads];
        let start = Instant::now();
        accs.par_iter_mut().for_each(|acc| run_chains(ITERS, acc, a, b));
        let secs = start.elapsed().as_secs_f64();
        black_box(&accs);
        best = best.max(2.0 * (threads * ITERS as usize * CHAINS * LANES) as f64 / secs / 1e9);
    }
    best
}

/// Times single calls of `f` for about `seconds` (at least 20 samples)
/// after three warm-up calls; returns (fastest, median) in µs.
fn sample(seconds: f64, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..3 {
        f();
    }
    let mut us = Vec::new();
    let begin = Instant::now();
    while us.len() < 20 || begin.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        f();
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    (us[0], us[us.len() / 2])
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

fn rows_for<T: LfdScalar>(scalar: &'static str, peak: f64, seconds: f64, rows: &mut Vec<Row>) {
    for n_orb in ORBITALS {
        let params = deck(n_orb);
        let mut state = LfdState::<T>::initialize(&params, cosine_potential(&params.mesh, 0.3));
        let mut out = vec![Complex::<T>::zero(); state.psi.len()];
        let mut scratch = QdScratch::<T>::new(&params);
        for kernel in Kernel::ALL {
            let (min_us, median_us) = match kernel {
                Kernel::ApplyH => sample(seconds, || {
                    apply_h(
                        &params.mesh,
                        n_orb,
                        &state.vloc,
                        A_TOTAL,
                        black_box(&state.psi),
                        &mut out,
                    )
                }),
                Kernel::ApplyKinetic => sample(seconds, || {
                    apply_kinetic(&params.mesh, n_orb, black_box(&state.psi), &mut out)
                }),
                Kernel::TaylorPropagate => sample(seconds, || {
                    taylor_propagate(&params, black_box(&mut state), A_TOTAL, &mut scratch)
                }),
            };
            black_box(&out);
            let points = (params.mesh.len() * n_orb * kernel.sweeps(params.taylor_order)) as f64;
            let flops_per_point = kernel.flops_per_point();
            let gflops = points * flops_per_point / min_us / 1e3;
            let row = Row {
                kernel,
                scalar,
                n_orb,
                min_us,
                median_us,
                mpts_per_s: points / min_us,
                flops_per_point,
                bytes_per_point: kernel
                    .bytes_per_point(core::mem::size_of::<Complex<T>>(), params.taylor_order),
                gflops,
                peak_frac: gflops / peak,
            };
            eprintln!(
                "{:<17} {scalar} 12^3x{n_orb:<3} {:>9.1} us (median {:>9.1})  {:>6.1} Mpt/s  \
                 {:>5.2} GFLOP/s = {:.2} of mul+add peak",
                kernel.name(),
                row.min_us,
                row.median_us,
                row.mpts_per_s,
                row.gflops,
                row.peak_frac
            );
            rows.push(row);
        }
    }
}

fn main() {
    let mut out_path = "BENCH_stencil.json".to_string();
    let mut seconds = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("stencil_hostperf: {arg} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value(),
            "--seconds-per-row" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("stencil_hostperf: --seconds-per-row needs a positive number");
                        std::process::exit(2);
                    })
            }
            _ => {
                eprintln!("usage: stencil_hostperf [--out PATH] [--seconds-per-row F]");
                std::process::exit(2);
            }
        }
    }

    let threads = rayon::current_num_threads();
    let (peak32, peak64) = (mul_add_peak::<f32, 8>(threads), mul_add_peak::<f64, 4>(threads));
    eprintln!(
        "measured mul+add peak: {peak32:.1} GFLOP/s f32, {peak64:.1} GFLOP/s f64 ({threads} threads)"
    );
    let mut rows = Vec::new();
    rows_for::<f32>("f32", peak32, seconds, &mut rows);
    rows_for::<f64>("f64", peak64, seconds, &mut rows);

    // Thread scaling: the pto40-small propagation at 1 thread and at `threads`.
    let scaling = {
        let params = deck(ORBITALS[0]);
        let mut state = LfdState::<f32>::initialize(&params, cosine_potential(&params.mesh, 0.3));
        let mut scratch = QdScratch::<f32>::new(&params);
        let mut at = |n: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("thread pool");
            pool.install(|| {
                sample(seconds, || taylor_propagate(&params, black_box(&mut state), A_TOTAL, &mut scratch)).0
            })
        };
        let (one, all) = (at(1), at(threads));
        eprintln!(
            "scaling taylor_propagate f32 12^3x{}: {one:.1} us at 1 thread, {all:.1} at {threads}: {:.2}x",
            ORBITALS[0],
            one / all
        );
        (one, all)
    };

    let today = civil_date_utc();
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"scalar\": \"{}\", \"mesh\": \"{MESH_POINTS}^3\", \
                 \"n_orb\": {}, \"threads\": {threads}, \"us_per_call_min\": {:.1}, \
                 \"us_per_call_median\": {:.1}, \"mpts_per_s\": {:.1}, \
                 \"computed_flops_per_point\": {:.0}, \"computed_bytes_per_point\": {:.0}, \
                 \"gflops\": {:.2}, \"frac_of_mul_add_peak\": {:.3}}}",
                r.kernel.name(),
                r.scalar,
                r.n_orb,
                r.min_us,
                r.median_us,
                r.mpts_per_s,
                r.flops_per_point,
                r.bytes_per_point,
                r.gflops,
                r.peak_frac
            )
        })
        .collect();
    // One history series per kernel and size, one "mode" per scalar type:
    // the shape `profile trend --bench` already reads from BENCH_gemm.json.
    let series: Vec<String> = Kernel::ALL
        .iter()
        .flat_map(|k| ORBITALS.iter().map(move |n| (*k, *n)))
        .map(|(k, n)| {
            let ns = |scalar: &str| {
                rows.iter()
                    .find(|r| r.kernel == k && r.n_orb == n && r.scalar == scalar)
                    .map_or(f64::NAN, |r| r.min_us * 1e3)
            };
            format!(
                "\"{}_{MESH_POINTS}x{n}_ns_per_call\":{{\"f32\":{:.1},\"f64\":{:.1}}}",
                k.name(),
                ns("f32"),
                ns("f64")
            )
        })
        .collect();
    let new_entry = format!(
        "{{\"date\":\"{today}\",\"threads\":{threads},{},\
         \"taylor_propagate_{MESH_POINTS}x{}_1_thread_ns_per_call\":{{\"f32\":{:.1}}}}}",
        series.join(","),
        ORBITALS[0],
        scaling.0 * 1e3
    );
    let history = merged_history(&out_path, &today, new_entry);

    let json = format!(
        "{{\n  \"bench\": \"stencil_hostperf\",\n  \"threads\": {threads},\n  \
         \"point\": \"one orbital at one grid point in one stencil sweep\",\n  \
         \"counts_note\": \"computed_* are counted from the kernel source (compulsory traffic: \
         every array element moves once), not measured\",\n  \
         \"mul_add_peak_gflops\": {{\"f32\": {peak32:.1}, \"f64\": {peak64:.1}}},\n  \
         \"scaling\": {{\"kernel\": \"taylor_propagate\", \"scalar\": \"f32\", \"n_orb\": {}, \
         \"us_per_call_1_thread\": {:.1}, \"threads\": {threads}, \"us_per_call\": {:.1}, \
         \"speedup\": {:.2}}},\n  \
         \"rows\": [\n{}\n  ],\n  \"history\": [\n    {}\n  ]\n}}\n",
        ORBITALS[0],
        scaling.0,
        scaling.1,
        scaling.0 / scaling.1,
        row_json.join(",\n"),
        history.join(",\n    ")
    );
    std::fs::write(&out_path, json).expect("write BENCH_stencil.json");
    eprintln!(
        "[wrote {out_path} ({} history entr{})]",
        history.len(),
        if history.len() == 1 { "y" } else { "ies" }
    );
}
