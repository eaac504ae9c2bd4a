//! End-to-end ABFT checksum verification against injected bit flips.
//!
//! The fault plan, the ABFT sampler and the GEMM call counter they share
//! are per thread, and the harness gives every test its own: each test
//! starts with nothing installed and a call count of its own.

use mkl_lite::{
    abft_check_count, cgemm, dgemm, install_abft, install_fault_plan, sgemm, take_abft_violation,
    with_compute_mode, zgemm, ComputeMode, FaultKind, FaultPlan, FaultSite, Op,
};

use dcmesh_numerics::{c32, c64, C32, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Installs a plan flipping `bit` of one output element of relative call `call`.
fn install_flip(seed: u64, call: u64, bit: u32) {
    install_fault_plan(
        FaultPlan::new(seed).with_site(FaultSite::once(call, FaultKind::FlipBit(bit))),
    );
}

fn rand_f64(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn rand_c64(rng: &mut StdRng, len: usize) -> Vec<C64> {
    (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn rand_c32(rng: &mut StdRng, len: usize) -> Vec<C32> {
    (0..len)
        .map(|_| c32(rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)))
        .collect()
}

#[test]
fn clean_gemms_pass_in_every_mode() {
    install_abft(1);
    let mut rng = StdRng::seed_from_u64(11);
    let (m, n, k) = (13, 9, 40);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for mode in ComputeMode::ALL {
        let mut c: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        with_compute_mode(mode, || {
            sgemm(Op::None, Op::Trans, m, n, k, 1.5, &a, k, &b, k, 0.75, &mut c, n);
        });
        assert!(take_abft_violation().is_none(), "false positive in mode {mode:?}");
    }
    // Complex path, conjugate transpose, beta accumulation.
    let za = rand_c32(&mut rng, 8 * 6);
    let zb = rand_c32(&mut rng, 8 * 7);
    for mode in ComputeMode::ALL {
        let mut zc = rand_c32(&mut rng, 6 * 7);
        with_compute_mode(mode, || {
            cgemm(
                Op::ConjTrans,
                Op::None,
                6,
                7,
                8,
                c32(0.5, -1.0),
                &za,
                6,
                &zb,
                7,
                c32(-0.25, 0.5),
                &mut zc,
                7,
            );
        });
        assert!(take_abft_violation().is_none(), "complex false positive in mode {mode:?}");
    }
}

#[test]
fn exponent_flip_is_detected_and_reported() {
    install_abft(1);
    // Flip a high exponent bit of one output element of the next call:
    // finite but ~2^512 off — invisible to non-finite health checks.
    install_flip(3, 0, 61);
    let mut rng = StdRng::seed_from_u64(12);
    let (m, n, k) = (8, 8, 16);
    let a = rand_f64(&mut rng, m * k);
    let b = rand_f64(&mut rng, k * n);
    let mut c = vec![0.0f64; m * n];
    dgemm(Op::None, Op::None, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);
    let v = take_abft_violation().expect("exponent flip must trip the checksum");
    assert_eq!(v.routine, "DGEMM");
    assert!(v.to_string().contains("DGEMM"), "display: {v}");
    assert!(c.iter().all(|x| x.is_finite()), "flip was supposed to stay finite");
    // Taking the violation clears the pending slot.
    assert!(take_abft_violation().is_none());
}

#[test]
fn exponent_flip_is_detected_under_every_op_pair() {
    install_abft(1);
    let mut rng = StdRng::seed_from_u64(14);
    let (m, n, k) = (7, 5, 12);
    // Entries in [0.5, 1): every output is ~k/2, far above the rounding
    // bound, so flipping a high exponent bit (×2^±64 in `f32`, ×2^±512 in
    // `f64`) moves its row sum by about the element itself.
    let mut pos = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(0.5..1.0)).collect() };
    let (a, b, ai, bi) = (pos(m * k), pos(k * n), pos(m * k), pos(k * n));
    let single = |v: &[f64]| -> Vec<f32> { v.iter().map(|&x| x as f32).collect() };
    let (za, zb): (Vec<C64>, Vec<C64>) = (
        a.iter().zip(&ai).map(|(&re, &im)| c64(re, im)).collect(),
        b.iter().zip(&bi).map(|(&re, &im)| c64(re, im)).collect(),
    );
    let narrow = |v: &[C64]| -> Vec<C32> { v.iter().map(|z| c32(z.re as f32, z.im as f32)).collect() };
    let (sa, sb, ca, cb) = (single(&a), single(&b), narrow(&za), narrow(&zb));
    let ops = [Op::None, Op::Trans, Op::ConjTrans];
    for (transa, transb) in ops.into_iter().flat_map(|x| ops.map(|y| (x, y))) {
        let lda = if transa == Op::None { k } else { m };
        let ldb = if transb == Op::None { n } else { k };
        let expect = |routine: &str| {
            let v = take_abft_violation();
            assert!(
                v.as_ref().is_some_and(|v| v.routine == routine),
                "{routine} {transa:?}/{transb:?}: exponent flip escaped ({v:?})"
            );
        };
        with_compute_mode(ComputeMode::Standard, || {
            install_flip(21, 0, 29);
            let mut c = vec![0.0f32; m * n];
            sgemm(transa, transb, m, n, k, 1.0, &sa, lda, &sb, ldb, 0.0, &mut c, n);
            expect("SGEMM");
            install_flip(22, 0, 61);
            let mut c = vec![0.0f64; m * n];
            dgemm(transa, transb, m, n, k, 1.0, &a, lda, &b, ldb, 0.0, &mut c, n);
            expect("DGEMM");
            install_flip(23, 0, 29);
            let mut c = vec![C32::zero(); m * n];
            cgemm(transa, transb, m, n, k, C32::one(), &ca, lda, &cb, ldb, C32::zero(), &mut c, n);
            expect("CGEMM");
            install_flip(24, 0, 61);
            let mut c = vec![C64::zero(); m * n];
            zgemm(transa, transb, m, n, k, C64::one(), &za, lda, &zb, ldb, C64::zero(), &mut c, n);
            expect("ZGEMM");
        });
    }
}

#[test]
fn complex_flip_detected_with_beta_accumulation() {
    install_abft(1);
    install_flip(9, 0, 61);
    let mut rng = StdRng::seed_from_u64(13);
    let (m, n, k) = (6, 7, 9);
    let a = rand_c64(&mut rng, k * m);
    let b = rand_c64(&mut rng, k * n);
    let mut c = rand_c64(&mut rng, m * n);
    zgemm(
        Op::ConjTrans,
        Op::None,
        m,
        n,
        k,
        c64(0.5, -0.25),
        &a,
        m,
        &b,
        n,
        c64(0.25, 0.5),
        &mut c,
        n,
    );
    assert!(take_abft_violation().is_some(), "complex flip escaped the checksum");
}

#[test]
fn sampling_period_skips_unsampled_calls() {
    install_abft(3);
    let a = vec![1.0f64; 4];
    let b = vec![1.0f64; 4];
    let before = abft_check_count();
    for _ in 0..6 {
        let mut c = vec![0.0f64; 4];
        dgemm(Op::None, Op::None, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
    }
    let checked = abft_check_count() - before;
    assert_eq!(checked, 2, "period-3 sampling over 6 calls must check 2");
}

#[test]
fn unsampled_flip_escapes_sampled_check() {
    // The documented coverage boundary: 1-in-N sampling misses flips on
    // unchecked calls. (Those are the domain of verify_bursts.)
    install_abft(2); // checks relative calls 0, 2, 4, ...
    install_flip(1, 1, 61);
    let a = vec![1.0f64; 9];
    let b = vec![0.5f64; 9];
    for _ in 0..4 {
        let mut c = vec![0.0f64; 9];
        dgemm(Op::None, Op::None, 3, 3, 3, 1.0, &a, 3, &b, 3, 0.0, &mut c, 3);
    }
    assert!(take_abft_violation().is_none(), "flip on an unsampled call must escape");
}

#[test]
fn nan_in_output_violates() {
    install_abft(1);
    install_fault_plan(FaultPlan::new(1).with_site(FaultSite::once(0, FaultKind::Nan)));
    let a = vec![1.0f64; 9];
    let b = vec![1.0f64; 9];
    let mut c = vec![0.0f64; 9];
    dgemm(Op::None, Op::None, 3, 3, 3, 1.0, &a, 3, &b, 3, 0.0, &mut c, 3);
    assert!(take_abft_violation().is_some(), "NaN row sum must violate");
}
