//! End-to-end guarantee behind the zero-skip removal in the GEMM kernel:
//! a fault-injected Inf must stay visible through downstream products,
//! even when the row of A multiplying it is all zeros (0·Inf = NaN).
//!
//! Also pins what a mode-scoped [`FaultSite`] scopes on: the mode a call
//! executes in, not the ambient one.

use dcmesh_numerics::{C32, C64};
use mkl_lite::fault::injected_fault_count;
use mkl_lite::{
    cgemm, clear_fault_plan, install_fault_plan, sgemm, with_compute_mode, zgemm, ComputeMode,
    FaultKind, FaultPlan, FaultSite, Op,
};

#[test]
fn fault_plan_inf_visible_through_downstream_gemm() {
    let n = 3;
    let ident: Vec<f32> = (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 }).collect();
    let ones = vec![1.0f32; n * n];

    // Inject +Inf into the output of the next SGEMM, exactly as the
    // robustness harness does between propagation steps.
    install_fault_plan(
        FaultPlan::new(7).with_site(FaultSite::once(0, FaultKind::Inf).on_routine("SGEMM")),
    );
    let mut b = vec![0.0f32; n * n];
    sgemm(Op::None, Op::None, n, n, n, 1.0, &ident, n, &ones, n, 0.0, &mut b, n);
    clear_fault_plan();
    assert!(b.iter().any(|x| x.is_infinite()), "fault plan did not fire");

    // Feed the corrupted matrix into a downstream product whose A has an
    // all-zero row. Every output row must carry Inf (nonzero rows) or NaN
    // (the zero row, via 0·Inf) — nothing may launder the fault away.
    let mut a = vec![1.0f32; n * n];
    for v in &mut a[..n] {
        *v = 0.0;
    }
    let mut c = vec![0.0f32; n * n];
    sgemm(Op::None, Op::None, n, n, n, 1.0, &a, n, &b, n, 0.0, &mut c, n);
    for i in 0..n {
        assert!(
            c[i * n..(i + 1) * n].iter().any(|x| !x.is_finite()),
            "row {i} lost the injected Inf: {c:?}"
        );
    }
}

/// Under ambient BF16 the FP64 boundary's ZGEMMs still execute STANDARD:
/// a site scoped to the low-precision engine must leave them alone, and a
/// site scoped to STANDARD must reach them.
#[test]
fn mode_scoped_site_follows_the_executed_mode_not_the_ambient_one() {
    let (a32, b32) = ([C32::one()], [C32::one()]);
    let (a64, b64) = ([C64::one()], [C64::one()]);
    let products_under_bf16 = |scope: ComputeMode| {
        install_fault_plan(
            FaultPlan::new(3).with_site(FaultSite::every(1, FaultKind::Nan).in_mode(scope)),
        );
        let (mut c32, mut c64) = ([C32::zero()], [C64::zero()]);
        with_compute_mode(ComputeMode::FloatToBf16, || {
            cgemm(Op::None, Op::None, 1, 1, 1, C32::one(), &a32, 1, &b32, 1, C32::zero(), &mut c32, 1);
            zgemm(Op::None, Op::None, 1, 1, 1, C64::one(), &a64, 1, &b64, 1, C64::zero(), &mut c64, 1);
        });
        (c32[0], c64[0])
    };

    let (c, z) = products_under_bf16(ComputeMode::FloatToBf16);
    assert!(c.re.is_nan() || c.im.is_nan(), "BF16-scoped site must hit the BF16 CGEMM: {c:?}");
    assert_eq!(z, C64::one(), "BF16-scoped site fired on a ZGEMM that executed STANDARD");
    assert_eq!(injected_fault_count(), 1);

    let (c, z) = products_under_bf16(ComputeMode::Standard);
    assert_eq!(c, C32::one(), "STANDARD-scoped site fired on a CGEMM that executed BF16");
    assert!(z.re.is_nan() || z.im.is_nan(), "STANDARD-scoped site must hit the ZGEMM: {z:?}");
    assert_eq!(injected_fault_count(), 2);
}
