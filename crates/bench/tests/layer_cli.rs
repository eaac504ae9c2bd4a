//! The layer benchmarks' shared command line, driven as a user would:
//! a bad option and a torn `--out` history are refused with exit 2 before
//! anything is timed, and the torn file is left exactly as it was.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BINS: [(&str, &str, &str); 3] = [
    ("gemm_hostperf", env!("CARGO_BIN_EXE_gemm_hostperf"), "BENCH_gemm.json"),
    ("stencil_hostperf", env!("CARGO_BIN_EXE_stencil_hostperf"), "BENCH_stencil.json"),
    ("linalg_hostperf", env!("CARGO_BIN_EXE_linalg_hostperf"), "BENCH_linalg.json"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run the layer benchmark")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcmesh_layer_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn options_beyond_the_shared_four_exit_2() {
    for (name, bin, _) in BINS {
        for args in [
            &["--batch", "2"][..],
            &["--strict"],
            &["--out"],
            &["--seconds-per-row", "0"],
            &["--min-speedup", "taylor_propagate_12x16=1.05"],
        ] {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{name} {args:?}: {stderr}");
        }
    }
    let out = run(BINS[1].1, &["--k-scale", "64"]);
    assert_eq!(out.status.code(), Some(2), "--k-scale is gemm_hostperf's alone");
    let out = run(BINS[0].1, &["--k-scale", "0"]);
    assert_eq!(out.status.code(), Some(2), "--k-scale 0");
}

#[test]
fn a_torn_history_is_refused_and_left_untouched() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, bin, file) in BINS {
        let dir = scratch(name);
        let whole = std::fs::read(root.join(file)).unwrap();
        let foreign = br#"{"bench": "x", "history": [{"date": "2026-10-01"}, "torn"]}"#;
        for (what, bytes) in [("torn", &whole[..2000]), ("foreign", &foreign[..])] {
            let out_path = dir.join(format!("{what}.json"));
            std::fs::write(&out_path, bytes).unwrap();
            let out = run(bin, &["--out", out_path.to_str().unwrap()]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {what}: {stderr}");
            assert!(stderr.contains(out_path.to_str().unwrap()), "{name} {what}: {stderr}");
            assert_eq!(std::fs::read(&out_path).unwrap(), bytes, "{name} rewrote a {what} file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
