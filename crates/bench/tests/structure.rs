//! The structure guards (`scripts/structure.sh`) run with the tests: each
//! keeps one deleted mechanism deleted, and a tree that brings one back
//! fails here.

use std::path::Path;
use std::process::Command;

#[test]
fn structure_guards_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new("bash")
        .arg("scripts/structure.sh")
        .current_dir(&root)
        .output()
        .expect("run bash scripts/structure.sh");
    assert!(
        out.status.success(),
        "scripts/structure.sh exited {:?}:\n{}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}
