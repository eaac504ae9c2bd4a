//! The four workloads and the seeded deck generator.
//!
//! Every workload is the shipped `pto40-small` deck with a few dimension
//! and run-control overrides, rendered to deck text and re-read through
//! `RunConfig::parse`, so the program only ever receives generated input.
//! The seed jitters three physical parameters by at most ±1 %: none of
//! them changes an operation count, so timings are comparable across
//! seeds while no run can be special-cased by its inputs.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::SupervisorConfig;
use mkl_lite::ComputeMode;
use std::path::Path;

/// The six compute modes every workload runs, with the suffix their
/// metrics carry (`step_ms.<suffix>`, `ekin_digits.<suffix>`).
pub const MODES: [(ComputeMode, &str); 6] = [
    (ComputeMode::Standard, "standard"),
    (ComputeMode::FloatToBf16, "bf16"),
    (ComputeMode::FloatToBf16x2, "bf16x2"),
    (ComputeMode::FloatToBf16x3, "bf16x3"),
    (ComputeMode::FloatToTf32, "tf32"),
    (ComputeMode::Complex3m, "complex3m"),
];

/// ABFT sampling period of the `guarded` workload.
pub const GUARDED_ABFT_PERIOD: u64 = 4;

/// One benchmark workload: deck overrides plus which guard rails are on.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — one line, echoed into `BENCHMARK.json`.
    pub why: &'static str,
    pub mesh_points: usize,
    pub n_orb: usize,
    pub n_occ: usize,
    pub total_qd_steps: usize,
    pub qd_steps_per_md: usize,
    /// Supervisor writes a checkpoint at every MD boundary.
    pub checkpoints: bool,
    /// `TELEMETRY=full`, device model, call recording and ABFT on; the
    /// harness exports `events.jsonl` + `ledger.json` after each run.
    pub guarded: bool,
}

/// Sized so that one sweep of the six modes takes 2.5–6 s on the 2-core
/// sandbox: several rotated sweeps then fit in one `run_seconds` window
/// (README "Workloads").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pto40-small",
        why: "shipped 12^3x16 deck: stencil is ~55% of a step, the 9 CGEMMs/step are tiny, so it shows mesh-kernel work and per-BLAS-call fixed cost and hides microkernel throughput",
        mesh_points: 12,
        n_orb: 16,
        n_occ: 8,
        total_qd_steps: 100,
        qd_steps_per_md: 25,
        checkpoints: false,
        guarded: false,
    },
    Workload {
        name: "orb-heavy",
        why: "12^3 mesh x 96 orbitals: 96x96x1728 CGEMMs (k = 6.75 KC) make BLAS 49% (STANDARD) to 72% (BF16X3) of a step and FP64 SCF set-up ~0.45 s, so pack/microkernel/split-depth work and set-up cost show here",
        mesh_points: 12,
        n_orb: 96,
        n_occ: 48,
        total_qd_steps: 10,
        qd_steps_per_md: 10,
        checkpoints: false,
        guarded: false,
    },
    Workload {
        name: "scf-churn",
        why: "3 QD steps per MD step with checkpoints on: ~60% of a burst is the FP64 boundary (ZGEMM + linalg) plus snapshot and checkpoint I/O, which alternative modes cannot speed up",
        mesh_points: 12,
        n_orb: 64,
        n_occ: 32,
        total_qd_steps: 12,
        qd_steps_per_md: 3,
        checkpoints: true,
        guarded: false,
    },
    Workload {
        name: "guarded",
        why: "pto40-small deck through the other BLAS entry path (TELEMETRY=full + ABFT + call ring + ledger + device model): observability refactors move only this one",
        mesh_points: 12,
        n_orb: 16,
        n_occ: 8,
        total_qd_steps: 100,
        qd_steps_per_md: 25,
        checkpoints: false,
        guarded: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's deck for `seed`, as the text the program parses.
    /// `bursts` overrides the run length (the untimed warm-up runs one
    /// burst, the unit-test smoke two).
    pub fn deck_text(&self, seed: u64, bursts: Option<usize>) -> String {
        let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
        cfg.label = self.name.to_string();
        cfg.mesh_points = self.mesh_points;
        cfg.n_orb = self.n_orb;
        cfg.n_occ = self.n_occ;
        cfg.qd_steps_per_md = self.qd_steps_per_md;
        cfg.total_qd_steps = match bursts {
            Some(b) => b * self.qd_steps_per_md,
            None => self.total_qd_steps,
        };
        let mut rng = SplitMix64(seed);
        cfg.laser_amplitude *= rng.jitter();
        cfg.laser_photon_ev *= rng.jitter();
        cfg.vloc_depth *= rng.jitter();
        cfg.to_deck_text()
            .expect("workload labels contain no '#' or newline")
    }

    /// `SupervisorConfig::default()` plus the workload's stated extras.
    pub fn supervisor_config(&self, checkpoint_dir: &Path) -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_dir: self.checkpoints.then(|| checkpoint_dir.to_path_buf()),
            abft_check_period: self.guarded.then_some(GUARDED_ABFT_PERIOD),
            ..SupervisorConfig::default()
        }
    }
}

/// SplitMix64 — enough for three jitter factors; keeps the generator
/// independent of the repo's `rand` shim.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A factor in [0.99, 1.01): enough that no two seeds share a deck,
    /// small enough that `ekin_digits.*` moves by a few hundredths of a
    /// digit across seeds (at ±5 % it moved by up to 0.2).
    fn jitter(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        0.99 + 0.02 * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_generator_is_deterministic_and_seeded() {
        for w in &WORKLOADS {
            let a = w.deck_text(7, None);
            assert_eq!(a, w.deck_text(7, None), "{}: same seed, same deck", w.name);
            assert_ne!(
                a,
                w.deck_text(8, None),
                "{}: seed must reach the deck",
                w.name
            );
            let cfg = RunConfig::parse(&a).expect("generated deck parses");
            assert_eq!(cfg.total_qd_steps, w.total_qd_steps);
            // Jitter stays within ±1 % and never touches a dimension.
            let base = RunConfig::preset(SystemPreset::Pto40Small);
            for (got, want) in [
                (cfg.laser_amplitude, base.laser_amplitude),
                (cfg.laser_photon_ev, base.laser_photon_ev),
                (cfg.vloc_depth, base.vloc_depth),
            ] {
                assert!((got / want - 1.0).abs() <= 0.01, "{got} vs {want}");
            }
            assert_eq!(
                (cfg.mesh_points, cfg.n_orb, cfg.n_occ),
                (w.mesh_points, w.n_orb, w.n_occ)
            );
        }
        let short = RunConfig::parse(&WORKLOADS[0].deck_text(1, Some(2))).expect("parses");
        assert_eq!(short.md_steps(), 2);
    }

    #[test]
    fn guarded_is_the_pto40_small_deck() {
        let (small, guarded) = (&WORKLOADS[0], &WORKLOADS[3]);
        let strip = |s: String| s.replace("label = guarded", "label = pto40-small");
        assert_eq!(small.deck_text(3, None), strip(guarded.deck_text(3, None)));
    }
}
