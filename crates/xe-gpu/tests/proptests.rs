//! Property-based tests of the device model: physical sanity over the
//! whole shape space, not just the paper's points.

use mkl_lite::device::{Domain, GemmDesc};
use mkl_lite::ComputeMode;
use proptest::prelude::*;
use xe_gpu::{XeStackModel, MAX_1550_STACK};

fn model() -> XeStackModel {
    XeStackModel::new(MAX_1550_STACK)
}

fn mode_strategy() -> impl Strategy<Value = ComputeMode> {
    prop::sample::select(ComputeMode::ALL.to_vec())
}

fn domain_strategy() -> impl Strategy<Value = Domain> {
    prop::sample::select(vec![Domain::Real32, Domain::Real64, Domain::Complex32, Domain::Complex64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gemm_time_positive_and_finite(
        m in 1usize..5000, n in 1usize..5000, k in 1usize..500_000,
        mode in mode_strategy(), domain in domain_strategy(),
    ) {
        let d = GemmDesc { domain, m, n, k, mode };
        let t = model().gemm_seconds(&d);
        prop_assert!(t.is_finite() && t > 0.0, "t = {t}");
        // Never faster than the absolute rooflines.
        let flops = 2.0 * d.real_macs();
        let absolute_floor = flops / 419.0e12;
        prop_assert!(t >= absolute_floor * 0.99, "t {t} beats the systolic peak");
    }

    #[test]
    fn speedup_never_exceeds_theoretical(
        m in 1usize..4096, n in 1usize..4096, k in 64usize..500_000,
    ) {
        let mdl = model();
        for mode in ComputeMode::ALTERNATIVE {
            let s = mdl.gemm_speedup_vs_fp32(Domain::Complex32, m, n, k, mode);
            let t = MAX_1550_STACK.theoretical_speedup(mode);
            prop_assert!(s <= t * 1.0001, "{mode:?} at ({m},{n},{k}): {s} > {t}");
        }
    }

    #[test]
    fn gemm_time_monotone_in_each_dimension(
        m in 1usize..2048, n in 1usize..2048, k in 1usize..100_000,
        mode in mode_strategy(),
    ) {
        let mdl = model();
        let t = |m, n, k| mdl.gemm_seconds(&GemmDesc { domain: Domain::Complex32, m, n, k, mode });
        let base = t(m, n, k);
        prop_assert!(t(2 * m, n, k) >= base);
        prop_assert!(t(m, 2 * n, k) >= base);
        prop_assert!(t(m, n, 2 * k) >= base);
    }

    #[test]
    fn traffic_at_least_native_operands(
        m in 1usize..2048, n in 1usize..2048, k in 1usize..100_000,
        mode in mode_strategy(),
    ) {
        let mdl = model();
        let d = GemmDesc { domain: Domain::Complex32, m, n, k, mode };
        let base = GemmDesc { mode: ComputeMode::Standard, ..d };
        prop_assert!(mdl.gemm_traffic_bytes(&d) >= mdl.gemm_traffic_bytes(&base));
    }

    #[test]
    fn fp64_never_faster_than_fp32(
        m in 1usize..2048, n in 1usize..2048, k in 1usize..100_000,
    ) {
        let mdl = model();
        let t32 = mdl.gemm_seconds(&GemmDesc {
            domain: Domain::Complex32, m, n, k, mode: ComputeMode::Standard,
        });
        let t64 = mdl.gemm_seconds(&GemmDesc {
            domain: Domain::Complex64, m, n, k, mode: ComputeMode::Standard,
        });
        prop_assert!(t64 >= t32 * 0.999, "ZGEMM {t64} beat CGEMM {t32}");
    }
}
