//! The profile CLI's two process-level gates: the regression sentinel
//! must flag a planted slowdown at exactly the callsite it was planted at
//! (exit code included), and the streaming readers must fold a ≥100 MiB
//! trace under an address-space cap that a whole-file load cannot fit.
//! Both spawn the `profile` binary Cargo builds for this package.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The address-space cap, in KiB, the streaming readers run under:
/// 256 MiB, less than a whole-file load of `synth`'s 100 MiB dump needs.
const CAP_KIB: u64 = 262_144;

/// A scratch directory, removed when dropped — also when a test panics,
/// so the 100 MiB dump never outlives its test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("dcmesh-profile-gates-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale test dir");
        }
        std::fs::create_dir_all(&dir).expect("create test dir");
        TempDir(dir)
    }

    /// The path of `name` inside the directory.
    fn join(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn profile(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(args)
        .output()
        .expect("run profile");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    out
}

/// `profile` with `args`, which must exit 0.
fn profile_ok(args: &[&str]) -> Output {
    let out = profile(args);
    assert!(out.status.success(), "profile {args:?} exited {:?}", out.status.code());
    out
}

/// Two synthetic run directories, identical except one callsite's wall
/// time scaled 3x in the second. The checked-in host-perf histories ride
/// along as `bench/<series>` groups, so a GEMM, stencil or linalg row that
/// regressed against its own history is one of the "other" callsites and
/// fails this test by name.
#[test]
fn trend_flags_exactly_the_callsite_a_planted_slowdown_slowed() {
    let dir = TempDir::new("sentinel");
    let (clean, slow) = (dir.join("synth-clean"), dir.join("synth-slow"));
    let runs = dir.join("runs.jsonl");
    let slowed = "lfd::qd_propagate/cgemm";
    profile_ok(&["synth", "--ledger-dir", &clean]);
    profile_ok(&["synth", "--ledger-dir", &slow, "--slow-callsite", slowed, "--slow-factor", "3"]);
    profile_ok(&["archive", &clean, "--archive", &runs]);
    profile_ok(&["archive", &slow, "--archive", &runs]);

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bench = |name: &str| root.join(name).to_str().expect("utf-8 repo path").to_string();
    let (gemm, stencil, linalg) =
        (bench("BENCH_gemm.json"), bench("BENCH_stencil.json"), bench("BENCH_linalg.json"));
    let out = profile(&[
        "trend", "--archive", &runs, "--bench", &gemm, "--bench", &stencil, "--bench", &linalg,
    ]);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "trend exited 0 on a 3x planted slowdown:\n{report}");
    assert!(report.contains(&format!("REGRESSION wall-time at {slowed}")), "{report}");
    let others: Vec<&str> =
        report.lines().filter(|l| l.starts_with("REGRESSION") && !l.contains(slowed)).collect();
    assert!(others.is_empty(), "sentinel flagged a callsite other than the slowed one: {others:?}");
}

/// `profile synth` writes a deterministic ≥100 MiB `events.jsonl`
/// (fixed-seed LCG, one torn line). `profile table` and `profile flame`
/// must read it under a 256 MiB address-space cap, set on their own
/// process only: the CLI's one read path is bounded by the open-frame
/// depth, not the trace length. That it equals the library's batch
/// `ingest_jsonl` is `streaming_drains_match_batch`.
#[test]
fn table_and_flame_stream_a_100_mib_trace_under_a_256_mib_cap() {
    let dir = TempDir::new("stream");
    let events = dir.join("synth-events.jsonl");
    profile_ok(&["synth", "--out", &events]);
    let bytes = std::fs::metadata(&events).expect("synth dump").len();
    assert!(bytes >= 100 * 1024 * 1024, "synth wrote {bytes} bytes");

    let capped = |cmd: &str| {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!("ulimit -v {CAP_KIB} && exec \"$0\" \"$1\" \"$2\""))
            .arg(env!("CARGO_BIN_EXE_profile"))
            .arg(cmd)
            .arg(&events)
            .output()
            .expect("run sh");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "profile {cmd} under a {CAP_KIB} KiB cap:\n{stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let table = capped("table");
    assert!(table.contains("CGEMM"), "{table}");
    let folded = capped("flame");
    assert!(!folded.is_empty(), "profile flame printed no collapsed stacks");
}
