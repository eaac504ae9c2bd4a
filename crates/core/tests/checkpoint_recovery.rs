//! Checkpoint corruption and recovery.
//!
//! A long run's resume path must survive whatever the filesystem does
//! to its newest checkpoint: truncation (death mid-write), header
//! damage, and silent payload bit rot (caught by the format's
//! checksum). In every case the corrupt file is quarantined to
//! `.ck.bad` and the run falls back to the next-newest checkpoint — or
//! a fresh start — and still reproduces the uninterrupted trajectory
//! bit-for-bit.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::runner::{run_simulation, RunResult};
use dcmesh::supervisor::{run_supervised, SupervisorConfig};
use mkl_lite::ComputeMode;
use std::path::{Path, PathBuf};

fn tiny() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 20;
    cfg.laser_duration_fs = 0.03;
    cfg.laser_amplitude = 0.4;
    cfg
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcmesh-recov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One invocation of the checkpointing run over `dir`: resumes from the
/// newest usable checkpoint there, writes one at every MD boundary.
fn checkpointed(cfg: &RunConfig, dir: &Path) -> RunResult {
    let sup = SupervisorConfig { checkpoint_dir: Some(dir.into()), ..SupervisorConfig::default() };
    run_supervised::<f32>(cfg, ComputeMode::Standard, &sup).expect("checkpointed run").result
}

/// Writes checkpoints for the first 40 of 60 steps: dcmesh-20.ck and
/// dcmesh-40.ck.
fn first_leg(cfg: &RunConfig, dir: &Path) {
    let mut leg = cfg.clone();
    leg.total_qd_steps = 40;
    checkpointed(&leg, dir);
    assert!(dir.join("dcmesh-20.ck").exists() && dir.join("dcmesh-40.ck").exists());
}

fn flip_byte(path: &Path, idx_from_end: usize) {
    let mut raw = std::fs::read(path).expect("read checkpoint");
    let idx = raw.len() - 1 - idx_from_end;
    raw[idx] ^= 0x10;
    std::fs::write(path, raw).expect("rewrite checkpoint");
}

#[test]
fn payload_bitflip_quarantines_newest_and_resumes_from_older() {
    let cfg = tiny();
    let straight = run_simulation::<f32>(&cfg).expect("straight run");
    let dir = scratch_dir("payload");
    first_leg(&cfg, &dir);

    // Rot a bit deep in the newest checkpoint's payload. Only the
    // checksum can notice — every field still parses.
    flip_byte(&dir.join("dcmesh-40.ck"), 200);

    let resumed = checkpointed(&cfg, &dir);
    assert!(dir.join("dcmesh-40.ck.bad").exists(), "corrupt checkpoint not quarantined");
    // (a fresh, valid dcmesh-40.ck reappears — the resumed run rewrites
    // its own boundary checkpoints)
    assert_eq!(resumed.records.len(), 40, "should resume from step 20, not 40");

    // The recovered trajectory matches the uninterrupted run exactly.
    for (got, want) in resumed.records.iter().zip(&straight.records[20..]) {
        assert_eq!(got.step, want.step);
        assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
        assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {}", got.step);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_bad_magic_checkpoints_force_fresh_start() {
    let cfg = tiny();
    let straight = run_simulation::<f32>(&cfg).expect("straight run");
    let dir = scratch_dir("fresh");
    first_leg(&cfg, &dir);

    // Newest: cut off mid-write. Older: magic destroyed.
    let newest = dir.join("dcmesh-40.ck");
    let raw = std::fs::read(&newest).expect("read");
    std::fs::write(&newest, &raw[..raw.len() / 2]).expect("truncate");
    let older = dir.join("dcmesh-20.ck");
    let mut raw = std::fs::read(&older).expect("read");
    raw[0] ^= 0xFF;
    std::fs::write(&older, raw).expect("rewrite");

    let rerun = checkpointed(&cfg, &dir);
    assert!(dir.join("dcmesh-40.ck.bad").exists() && dir.join("dcmesh-20.ck.bad").exists());
    assert_eq!(rerun.records.len(), 60, "no usable checkpoint means a full fresh run");
    for (got, want) in rerun.records.iter().zip(&straight.records) {
        assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {}", got.step);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_version_rejected_and_older_used() {
    let cfg = tiny();
    let dir = scratch_dir("version");
    first_leg(&cfg, &dir);

    // Byte 8 is the low byte of the little-endian version field.
    let newest = dir.join("dcmesh-40.ck");
    let mut raw = std::fs::read(&newest).expect("read");
    raw[8] ^= 0xFF;
    std::fs::write(&newest, raw).expect("rewrite");

    let resumed = checkpointed(&cfg, &dir);
    assert!(dir.join("dcmesh-40.ck.bad").exists());
    assert_eq!(resumed.records.len(), 40, "should fall back to the step-20 checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
