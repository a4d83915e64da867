//! Invariants of the source tree itself: each test keeps a deleted
//! mechanism gone or a shape fixed, so that `cargo test` fails the
//! moment one comes back.
//!
//! - **One lock layer.** Every `Mutex`, `RwLock` and `Condvar` under
//!   `crates/` comes from `shims/parking_lot`, which recovers from
//!   poisoning and parks only in `wait_while*`. No file under `crates/`
//!   names `std::sync`'s locks, its condvar or `PoisonError`.
//! - **One queue.** `transport::evq::EventQueue` carries every hand-off
//!   (fabric requests and completions, query jobs, replies and
//!   continuous updates). A channel crate, an event-graph stone, a
//!   put-level subscription, a dirty read of the pending plane or a
//!   second discrete-event queue comes back only with this test changed
//!   in the same commit.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (relative to the repository root) that `keep`
/// accepts, skipping build output.
fn files(dir: &str, keep: &dyn Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut todo = vec![root().join(dir)];
    while let Some(d) = todo.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str());
                if !matches!(name, Some("target" | ".bench_build" | ".git")) {
                    todo.push(path);
                }
            } else if keep(&path) {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn read(path: &Path) -> String {
    String::from_utf8_lossy(&std::fs::read(path).expect("readable file")).into_owned()
}

fn shown(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Every line of every file under `dir` that `bad` flags, as `path:line: text`.
fn offending_lines(
    dir: &str,
    keep: &dyn Fn(&Path) -> bool,
    bad: &dyn Fn(&str) -> bool,
) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files(dir, keep) {
        for (i, line) in read(&path).lines().enumerate() {
            if bad(line) {
                hits.push(format!("{}:{}: {}", shown(&path), i + 1, line.trim()));
            }
        }
    }
    hits
}

fn any_file(_: &Path) -> bool {
    true
}

fn is_rust(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rs")
}

/// The names a source file takes from `std::sync`: the item after each
/// `std::sync::`, or every item of a `std::sync::{…}` group, which may
/// span lines and nest. A glob import is reported as `*`.
fn std_sync_names(src: &str) -> Vec<String> {
    const PATH: &str = "std::sync::";
    let mut names = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find(PATH) {
        rest = &rest[at + PATH.len()..];
        let item = if rest.starts_with('{') {
            let mut depth = 0;
            let end = rest
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(rest.len(), |(i, _)| i);
            &rest[..end]
        } else {
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '*'))
                .unwrap_or(rest.len());
            &rest[..end]
        };
        names.extend(
            item.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '*'))
                .filter(|n| !n.is_empty())
                .map(str::to_string),
        );
    }
    names
}

#[test]
fn one_lock_layer() {
    let banned = |name: &str| {
        name == "*"
            || ["Mutex", "RwLock", "Condvar", "PoisonError"]
                .iter()
                .any(|b| name.starts_with(b))
    };
    let mut hits = Vec::new();
    for path in files("crates", &is_rust) {
        let src = read(&path);
        let names: Vec<_> = std_sync_names(&src)
            .into_iter()
            .filter(|n| banned(n))
            .collect();
        if !names.is_empty() {
            hits.push(format!("{} takes std::sync::{names:?}", shown(&path)));
        }
        if src.contains("PoisonError") {
            hits.push(format!("{} names PoisonError", shown(&path)));
        }
    }
    assert!(
        hits.is_empty(),
        "locks under crates/ come from the parking_lot shim:\n{}",
        hits.join("\n")
    );
}

#[test]
fn std_sync_names_reads_paths_and_groups() {
    let src = "use std::sync::{\n    atomic::{AtomicU64, Ordering},\n    Arc, Condvar,\n};\n\
               let m = std::sync::Mutex::new(());\nuse std::sync::*;";
    assert_eq!(
        std_sync_names(src),
        [
            "atomic",
            "AtomicU64",
            "Ordering",
            "Arc",
            "Condvar",
            "Mutex",
            "*"
        ]
    );
}

#[test]
fn one_queue() {
    let manifests = offending_lines(
        ".",
        &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"),
        &|line| line.contains("crossbeam"),
    );
    assert!(
        manifests.is_empty(),
        "a manifest names crossbeam:\n{}",
        manifests.join("\n")
    );
    assert!(
        files("shims/crossbeam", &any_file).is_empty(),
        "shims/crossbeam is back"
    );

    let second_paths = [
        "struct Stone",
        "fn subscribe(",
        "Notification",
        "get_nowait",
        "read_dirty",
        "mod events",
    ];
    let hits = offending_lines("crates", &any_file, &|line| {
        second_paths.iter().any(|p| line.contains(p))
    });
    assert!(
        hits.is_empty(),
        "a second queue or continuous-query path is back:\n{}",
        hits.join("\n")
    );

    let condvars: Vec<_> = files("crates/transport/src", &any_file)
        .into_iter()
        .filter(|p| !p.ends_with("crates/transport/src/evq.rs"))
        .filter(|p| read(p).contains("Condvar::new()"))
        .map(|p| shown(&p))
        .collect();
    assert!(
        condvars.is_empty(),
        "a condvar outside evq.rs: {condvars:?}"
    );
}
