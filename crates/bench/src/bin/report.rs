//! `predata-report` — render an `obs` JSON snapshot as step-by-step
//! timing tables (the stage breakdowns of the paper's Fig. 7–9) plus
//! per-chunk critical-path, straggler, and perturbation views.
//!
//! Usage:
//!
//! ```text
//! predata-report <snapshot.json>
//! predata-report -              # read the snapshot from stdin
//! predata-report --check <dir>  # render every *.json in <dir>; fail on any
//! ```
//!
//! `--check` is the CI schema gate: it renders each checked-in sample
//! snapshot and exits nonzero if any fails, so exporter drift against
//! `crates/bench/testdata/` is caught at build time.
//!
//! Snapshots come from `StagingArea::join`, which exports the staging
//! endpoints' registry (for the global one, to `PREDATA_METRICS=/path`;
//! for any other, to its `Registry::set_export_path`), or from any
//! registry's `snapshot().to_json()`.

use std::io::Read;
use std::process::ExitCode;

fn render_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    predata_bench::report::render_snapshot_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Render every `*.json` under `dir`; report per-file pass/fail.
fn check_dir(dir: &str) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("predata-report: reading dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("predata-report: no *.json snapshots under {dir}");
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for p in &paths {
        match render_file(&p.to_string_lossy()) {
            Ok(_) => eprintln!("predata-report: ok {}", p.display()),
            Err(e) => {
                eprintln!("predata-report: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "predata-report: {failed}/{} snapshot(s) failed schema check",
            paths.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [flag, dir] if flag == "--check" => return check_dir(dir),
        [p] if p != "--help" && p != "-h" => p.clone(),
        _ => {
            eprintln!("usage: predata-report <snapshot.json | -> | --check <dir>");
            return ExitCode::from(2);
        }
    };

    let result = if path == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => {
                predata_bench::report::render_snapshot_str(&buf).map_err(|e| format!("stdin: {e}"))
            }
            Err(e) => Err(format!("reading stdin: {e}")),
        }
    } else {
        render_file(&path)
    };

    match result {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("predata-report: {e}");
            ExitCode::FAILURE
        }
    }
}
