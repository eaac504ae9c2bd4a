//! The paper's accuracy study (Figures 1 and 2) at laptop scale.
//!
//! These tests verify the *qualitative claims* of §V on real emergent
//! numerics — the deviations are produced by genuinely propagating wave
//! functions through BF16/TF32/3M-emulated CGEMMs, not synthesised:
//!
//! * deviations from FP32 are nonzero for every alternative mode and grow
//!   over the simulation;
//! * the accuracy ordering is BF16 worst, then TF32, BF16x2, with BF16x3
//!   comparable to FP32;
//! * relative deviations stay at the ~1% level ("roughly equivalent to
//!   each other, in the order of 1%");
//! * the FP64 SCF refresh is what keeps drift bounded (ablation).
//!
//! Each is a row of the one claims table (`dcmesh_bench::claims`), the
//! table `study` writes to `REPRO.json`; it is evaluated once per test
//! process — ten simulations — and every test asserts its rows by id.

use dcmesh_bench::claims::{evaluate, Claim, Status};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn table() -> &'static [Claim] {
    static TABLE: OnceLock<Vec<Claim>> = OnceLock::new();
    TABLE.get_or_init(|| evaluate().expect("the accuracy deck runs").claims)
}

#[track_caller]
fn assert_pass(ids: &[&str]) {
    for id in ids {
        let claim = table().iter().find(|c| c.id == *id).unwrap_or_else(|| panic!("no claim {id}"));
        assert_eq!(claim.status(), Status::Pass, "{claim:?}");
    }
}

#[test]
fn figure1_deviation_ordering_and_growth() {
    // Paper: BF16 deviates most; TF32 "contains slightly higher precision
    // than BF16 and this is also revealed in our results"; BF16x3 is "the
    // most accurate".
    assert_pass(&[
        "fig1.nexc.ordering_margin",
        "fig1.javg.ordering_margin",
        "fig1.ekin.ordering_margin",
        "fig1.nexc.bf16_over_bf16x3",
        "fig1.javg.bf16_over_bf16x3",
        "fig1.ekin.bf16_over_bf16x3",
    ]);
}

#[test]
fn figure1_deviations_grow_over_time() {
    assert_pass(&[
        "fig1.nexc.bf16_last_over_first_quarter",
        "fig1.javg.bf16_last_over_first_quarter",
        "fig1.ekin.bf16_last_over_first_quarter",
    ]);
}

#[test]
fn relative_deviations_stay_small() {
    // Paper §V-A: "The deviations relative to the absolute values of each
    // metric are roughly equivalent to each other, in the order of 1%."
    // A few percent are allowed at this scale; the point is boundedness.
    assert_pass(&[
        "fig1.nexc.bf16_over_signal",
        "fig1.javg.bf16_over_signal",
        "fig1.ekin.bf16_over_signal",
    ]);
}

#[test]
fn figure2_log_deviation_series_is_well_formed() {
    assert_pass(&["fig2.nonfinite_points", "fig2.tf32_tail_max_log10"]);
}

#[test]
fn complex_3m_deviates_least_among_alternatives() {
    assert_pass(&["fig1.ekin.complex_3m_early_max_abs", "fig1.ekin.complex_3m_over_bf16_early"]);
}

#[test]
fn ablation_scf_refresh_bounds_drift() {
    assert_pass(&["ablate_scf_interval.drift_ratio"]);
}

#[test]
fn the_table_covers_every_artifact_under_unique_ids_and_nothing_fails() {
    let ids: BTreeSet<&str> = table().iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids.len(), table().len(), "duplicate claim ids");
    let artifacts: BTreeSet<&str> = table().iter().map(|c| c.artifact).collect();
    for artifact in [
        "Table I",
        "Table II",
        "Table III",
        "Table IV",
        "Table V",
        "Table VI",
        "Table VII",
        "Fig. 1",
        "Fig. 2",
        "Fig. 3a",
        "Fig. 3b",
        "§V-B",
        "Ablation: split depth",
        "Ablation: SCF interval",
        "Ablation: 3M vs 4M",
        "Ablation: m dimension",
        "Per-callsite policy",
    ] {
        assert!(artifacts.contains(artifact), "no row for {artifact}");
    }
    let failed: Vec<&Claim> = table().iter().filter(|c| c.status() == Status::Fail).collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
