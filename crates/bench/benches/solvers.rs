//! Criterion benchmarks of the dense and iterative solvers: the FP64
//! substrate the SCF refresh leans on, and the CheFSI/divide-and-conquer
//! machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcmesh_lfd::divide::{dc_ground_state, well_per_domain_potential, DcConfig};
use dcmesh_lfd::eigensolve::lowest_eigenpairs;
use dcmesh_lfd::Mesh3;
use dcmesh_linalg::hermitian::eigh;
use dcmesh_linalg::ops::hermitian_from_fn;
use dcmesh_linalg::orth::{cholesky_orthonormalize, lowdin_orthonormalize};
use dcmesh_numerics::{c32, c64, C32};
use mkl_lite::{cherk, Op, Uplo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_eigh(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigh");
    for n in [8usize, 16, 32, 64] {
        let a = hermitian_from_fn(n, |i, j| {
            c64(((i * 7 + j * 3) % 11) as f64 / 11.0, if i == j { 0.0 } else { ((i + 5 * j) % 13) as f64 / 13.0 - 0.5 })
        });
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let r = eigh(black_box(&a), n);
                black_box(r.eigenvalues[0]);
            });
        });
    }
    group.finish();
}

fn bench_orthonormalisation(c: &mut Criterion) {
    let (rows, cols) = (2048usize, 24usize);
    // Random columns: generic full-rank input (deterministic trig patterns
    // can be numerically rank-deficient at this aspect ratio).
    let mut rng = StdRng::seed_from_u64(99);
    let base: Vec<_> = (0..rows * cols)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let mut group = c.benchmark_group("orthonormalise_2048x24");
    group.bench_function("lowdin", |b| {
        b.iter(|| {
            let mut a = base.clone();
            lowdin_orthonormalize(&mut a, rows, cols).expect("full-rank input");
            black_box(a[0]);
        });
    });
    group.bench_function("cholesky", |b| {
        b.iter(|| {
            let mut a = base.clone();
            cholesky_orthonormalize(&mut a, rows, cols).expect("full-rank input");
            black_box(a[0]);
        });
    });
    group.finish();
}

fn bench_cherk(c: &mut Criterion) {
    let (n, k) = (24usize, 4096usize);
    let a: Vec<C32> = (0..k * n)
        .map(|i| c32((i as f32 * 0.21).sin(), (i as f32 * 0.13).cos()))
        .collect();
    c.bench_function("cherk_overlap_24x4096", |b| {
        let mut out = vec![C32::zero(); n * n];
        b.iter(|| {
            cherk(Uplo::Upper, Op::ConjTrans, n, k, 1.0, black_box(&a), n, 0.0, &mut out, n);
            black_box(out[0]);
        });
    });
}

fn bench_chefsi(c: &mut Criterion) {
    let mesh = Mesh3::cubic(10, 0.6);
    let vloc: Vec<f64> = dcmesh_lfd::state::cosine_potential(&mesh, 0.4);
    c.bench_function("chefsi_10cube_4states", |b| {
        b.iter(|| {
            let sol = lowest_eigenpairs(black_box(&mesh), &vloc, 4, 20, 1e-9, None);
            black_box(sol.eigenvalues[0]);
        });
    });
}

fn bench_dc_solver(c: &mut Criterion) {
    let mesh = Mesh3::cubic(12, 0.8);
    let cfg = DcConfig { divisions: 2, buffer: 2, states_per_domain: 2, solver_iterations: 40 };
    let vloc = well_per_domain_potential(&mesh, &cfg, 2.0, 1.2);
    c.bench_function("dc_ground_state_12cube_8domains", |b| {
        b.iter(|| {
            let dc = dc_ground_state(black_box(&mesh), &vloc, 16, &cfg);
            black_box(dc.band_energy);
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_eigh, bench_orthonormalisation, bench_cherk, bench_chefsi, bench_dc_solver
);
criterion_main!(benches);
