//! The figure binaries print their checked-in results byte for byte.
//!
//! Each of `fig7`, `fig8`, `fig10` and `fig11` is run as built for this
//! test, and its stdout must equal `docs/results/<fig>.txt`. Their
//! stdout is a function of the code alone: the `simhec` model's tables,
//! and for `fig11` the read-op counts of its functional check (its
//! wall-clock read times go to stderr). A change that moves any printed
//! number fails here, and the regenerated file shows the move as a diff
//! in the same change.
//!
//! `fig9` and `ablation` stay out: they print measured times, which
//! differ between runs.

use std::path::Path;
use std::process::Command;

fn assert_prints_its_result(fig: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{fig}: cannot run {exe}: {e}"));
    assert!(out.status.success(), "{fig} exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/results")
        .join(format!("{fig}.txt"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = String::from_utf8_lossy(&out.stdout);
    assert!(
        got == want,
        "{fig} stdout differs from {}\n--- printed:\n{got}--- expected:\n{want}\n\
         (if the change is intended, regenerate the file with \
         `cargo run --release -p predata-bench --bin {fig} > docs/results/{fig}.txt`)",
        path.display(),
    );
}

#[test]
fn fig7_prints_its_result() {
    assert_prints_its_result("fig7", env!("CARGO_BIN_EXE_fig7"));
}

#[test]
fn fig8_prints_its_result() {
    assert_prints_its_result("fig8", env!("CARGO_BIN_EXE_fig8"));
}

#[test]
fn fig10_prints_its_result() {
    assert_prints_its_result("fig10", env!("CARGO_BIN_EXE_fig10"));
}

#[test]
fn fig11_prints_its_result() {
    assert_prints_its_result("fig11", env!("CARGO_BIN_EXE_fig11"));
}
