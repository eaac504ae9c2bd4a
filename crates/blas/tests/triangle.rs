//! The Hermitian-output routines against the full product.
//!
//! `zherk` and `zgemmt` run the blocked driver with a tile filter; the
//! tiles that run are the full product's, so the computed triangle must
//! equal `zgemm`'s on the same operands bit for bit, the other triangle
//! must be its exact conjugate, and a rank-k update's diagonal must be
//! real — for every size around the tile and k-block edges, padded `ldc`,
//! with and without a `β·C` term, in both modes that apply to FP64 data.

use dcmesh_numerics::{c64, C64};
use mkl_lite::{cherk, with_compute_mode, zgemm, zgemmt, zherk, ComputeMode, Op, Uplo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 7] = [1, 7, 16, 17, 33, 64, 97];
const DEPTHS: [usize; 5] = [1, 255, 256, 257, 1728];

fn rand_c64(rng: &mut StdRng, len: usize) -> Vec<C64> {
    (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// A Hermitian `n × n` matrix in padded storage; the padding is NaN, so a
/// routine that reads or writes it shows.
fn hermitian_padded(rng: &mut StdRng, n: usize, ldc: usize) -> Vec<C64> {
    let mut c = vec![c64(f64::NAN, f64::NAN); n * ldc];
    for i in 0..n {
        c[i * ldc + i] = c64(rng.gen_range(-1.0..1.0), 0.0);
        for j in i + 1..n {
            let z = c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            (c[i * ldc + j], c[j * ldc + i]) = (z, z.conj());
        }
    }
    c
}

fn bits(z: C64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// `got`'s `uplo` triangle is `full`'s bit for bit (the diagonal too,
/// except that `real_diagonal` zeroes its imaginary part), the other
/// triangle its exact conjugate, the padding untouched.
fn assert_triangle_of(
    got: &[C64],
    full: &[C64],
    (n, ldc): (usize, usize),
    uplo: Uplo,
    real_diagonal: bool,
    what: &str,
) {
    for i in 0..n {
        for j in 0..n {
            let computed = match uplo {
                Uplo::Upper => i <= j,
                Uplo::Lower => i >= j,
            };
            let mut want = if computed { full[i * ldc + j] } else { full[j * ldc + i].conj() };
            if i == j && real_diagonal {
                want.im = 0.0;
            }
            assert_eq!(bits(got[i * ldc + j]), bits(want), "{what} ({i},{j})");
        }
        assert!(got[i * ldc + n..(i + 1) * ldc].iter().all(|z| z.re.is_nan()), "{what}: padding");
    }
}

#[test]
fn herk_and_gemmt_are_the_matching_triangle_of_gemm_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(19);
    for mode in [ComputeMode::Standard, ComputeMode::Complex3m] {
        with_compute_mode(mode, || {
            for n in SIZES {
                for k in DEPTHS {
                    let ldc = n + 3;
                    // A and B are k × n: the application's `Ψ†·X` shape.
                    let (a, b) = (rand_c64(&mut rng, k * n), rand_c64(&mut rng, k * n));
                    let c0 = hermitian_padded(&mut rng, n, ldc);
                    for beta in [0.0, 1.0, 0.5] {
                        let what = |r: &str, u: Uplo| format!("{r}({u:?}) {mode:?} n={n} k={k} β={beta}");
                        let (alpha, (ca, cb)) = (1.25, (Op::ConjTrans, Op::None));

                        let mut full = c0.clone();
                        zgemm(ca, cb, n, n, k, c64(alpha, 0.0), &a, n, &a, n, c64(beta, 0.0), &mut full, ldc);
                        for uplo in [Uplo::Lower, Uplo::Upper] {
                            let mut c = c0.clone();
                            zherk(uplo, Op::ConjTrans, n, k, alpha, &a, n, beta, &mut c, ldc);
                            assert_triangle_of(&c, &full, (n, ldc), uplo, true, &what("zherk", uplo));
                        }

                        let (alpha, beta) = (c64(alpha, -0.5), c64(beta, 0.0));
                        let mut full = c0.clone();
                        zgemm(ca, cb, n, n, k, alpha, &a, n, &b, n, beta, &mut full, ldc);
                        for uplo in [Uplo::Lower, Uplo::Upper] {
                            let mut c = c0.clone();
                            zgemmt(uplo, ca, cb, n, k, alpha, &a, n, &b, n, beta, &mut c, ldc);
                            assert_triangle_of(&c, &full, (n, ldc), uplo, false, &what("zgemmt", uplo));
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn outer_product_herk_is_the_matching_triangle_too() {
    // `trans = N`: C ← α·A·A† with A n × k, the other operand order —
    // and one output taller than a row block of the driver, whose tiles
    // are filtered by their row in C, not in the block.
    let mut rng = StdRng::seed_from_u64(23);
    for (n, k) in [(7, 257), (33, 300), (97, 64), (300, 40)] {
        let a = rand_c64(&mut rng, n * k);
        let mut full = vec![C64::zero(); n * n];
        zgemm(Op::None, Op::ConjTrans, n, n, k, C64::one(), &a, k, &a, k, C64::zero(), &mut full, n);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut c = vec![C64::zero(); n * n];
            zherk(uplo, Op::None, n, k, 1.0, &a, k, 0.0, &mut c, n);
            assert_triangle_of(&c, &full, (n, n), uplo, true, &format!("zherk N ({uplo:?}) n={n} k={k}"));
        }
    }
}

#[test]
fn nonfinite_in_any_plane_reaches_the_computed_triangle_and_its_mirror() {
    // A NaN or Inf in one element of A (either plane) poisons row and
    // column `col` of A†A — through the tiles on the diagonal and the
    // mirror alike — in every mode, and nothing else.
    use dcmesh_numerics::{c32, C32};
    let (n, k, col) = (37, 300, 20);
    for mode in ComputeMode::ALL {
        for bad in [f32::NAN, f32::INFINITY] {
            for in_re in [true, false] {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    let mut a = vec![c32(0.5, -0.25); k * n];
                    a[123 * n + col] = if in_re { c32(bad, 1.0) } else { c32(1.0, bad) };
                    let mut c = vec![C32::zero(); n * n];
                    with_compute_mode(mode, || {
                        cherk(uplo, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
                    });
                    for i in 0..n {
                        for j in 0..n {
                            let z = c[i * n + j];
                            let finite = z.re.is_finite() && z.im.is_finite();
                            assert_eq!(
                                finite,
                                i != col && j != col,
                                "{mode:?} {bad} re={in_re} {uplo:?} ({i},{j}): {z:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn one_herk_is_one_call_one_record() {
    // A rank-k update used to wrap the public GEMM: timed and recorded
    // twice, counted under the inner routine's name.
    use mkl_lite::fault::gemm_call_count;
    use mkl_lite::verbose;
    let (n, k) = (5, 12);
    let a = vec![c64(0.5, 0.25); k * n];
    let mut c = vec![C64::zero(); n * n];
    verbose::clear();
    verbose::set_recording(true);
    let before = gemm_call_count();
    zherk(Uplo::Upper, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
    zgemmt(Uplo::Upper, Op::ConjTrans, Op::None, n, k, C64::one(), &a, n, &a, n, C64::zero(), &mut c, n);
    verbose::set_recording(false);
    assert_eq!(gemm_call_count(), before + 2);
    let log: Vec<_> = verbose::drain().into_iter().map(|r| (r.routine, r.m, r.n, r.k)).collect();
    assert_eq!(log, [("ZHERK", n, n, k), ("ZGEMMT", n, n, k)]);
}

#[test]
fn a_fault_site_on_zherk_fires_and_the_checksum_sees_the_mirrored_output() {
    use mkl_lite::fault::injected_fault_count;
    use mkl_lite::{
        clear_abft, clear_fault_plan, install_abft, install_fault_plan, take_abft_violation,
        FaultKind, FaultPlan, FaultSite,
    };
    let (n, k) = (24, 300);
    let mut rng = StdRng::seed_from_u64(29);
    let a = rand_c64(&mut rng, k * n);
    let mut c = vec![C64::zero(); n * n];

    // Clean: the row checksums of a mirrored triangle are the full
    // product's, to rounding.
    install_abft(1);
    zherk(Uplo::Lower, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
    assert!(take_abft_violation().is_none(), "clean ZHERK tripped its checksum");

    // Exponent flip planted by name: it lands after the mirror, inside
    // the checked window.
    install_fault_plan(
        FaultPlan::new(3).with_site(FaultSite::once(0, FaultKind::FlipBit(62)).on_routine("ZHERK")),
    );
    let injected = injected_fault_count();
    zherk(Uplo::Lower, Op::ConjTrans, n, k, 1.0, &a, n, 0.0, &mut c, n);
    clear_fault_plan();
    let violation = take_abft_violation();
    clear_abft();
    assert_eq!(injected_fault_count(), injected + 1, "the ZHERK site never fired");
    assert_eq!(violation.expect("flipped ZHERK output passed its checksum").routine, "ZHERK");
}
