//! Invariants of the source tree itself: each test keeps a deleted
//! mechanism gone or a shape fixed, so that `cargo test` fails the
//! moment one comes back.
//!
//! - **One lock layer.** Every `Mutex`, `RwLock` and `Condvar` under
//!   `crates/` comes from `shims/parking_lot`, which recovers from
//!   poisoning and parks only in `wait_while*`. No file under `crates/`
//!   names `std::sync`'s locks, its condvar or `PoisonError`.
//! - **One queue.** `transport::evq::EventQueue` carries every hand-off
//!   (fabric requests and completions, a client's free header buffers,
//!   query jobs, replies and continuous updates). A channel crate, an event-graph stone, a
//!   put-level subscription, a dirty read of the pending plane or a
//!   second discrete-event queue comes back only with this test changed
//!   in the same commit.
//! - **One environment reader.** `obs::Config::from_env` is the one
//!   function under `crates/*/src` that reads the process environment;
//!   every `PREDATA_*` name in `crates/` is a row of `docs/OPERATIONS.md`
//!   and is read in `obs::Config::from_lookup`, and the table has no
//!   other rows. Fault plans are constructor arguments, not knobs.
//! - **One retry rule, one step deadline.** `transport::retry` is one
//!   fixed rule (four attempts, a doubling backoff) with no value to set,
//!   and a staging step waits under one deadline,
//!   `StagingConfig::step_timeout`, fixed when `run_step` starts. A
//!   `RetryPolicy`, its builders, a `gather_timeout`, a second step clock
//!   (`StageTimes`) or a retried receive in `gather` comes back only with
//!   this test changed in the same commit.
//! - **No unpriced subsystem.** A subsystem the paper does not have —
//!   elastic membership, a live telemetry plane, admission shedding, an
//!   automatic in-compute fallback — and the code only tests and
//!   `cargo bench` ran — the filter and moments operators, the sizing
//!   model, Criterion benches and the `criterion` shim — come back only
//!   with a `benchmark/` workload that prices them, and with this test
//!   changed in the same commit; so does a fourth `PREDATA_*` knob.
//! - **`minimpi` keeps only what the pipeline calls.** One communicator
//!   per world, point-to-point messages private to the collectives and
//!   matched by source alone, one barrier per world, and the collectives
//!   a step enters (gather, allgather, alltoall). A split, a tag, a
//!   wildcard, a timed or probing receive, a scatter / scan / exscan /
//!   alltoallv, a reduce / allreduce / bcast, a public send / recv, or a
//!   collective-entry hook (`CollectiveGate`, `set_collective_gate`)
//!   comes back only with a caller outside the crate's own tests.
//! - **A fault is injected in the call that fails.** Pull and pin faults
//!   are consulted inside the fabric (`StagingEndpoint::rdma_get`,
//!   `ComputeEndpoint::expose`), put and query faults in
//!   `transport::retry::guard`. No `FaultKind::Collective` comes back,
//!   and the non-test code of `crates/core/src` names no `FaultPlan`,
//!   `FaultKind` or `fault_plan`: the staging runtime only retries.
//! - **One exposure form and one pull path.** Every exposure is a
//!   `transport::Gather` the fabric owns until its completion carries it
//!   home, and every pull lands in a `Vec<u8>` the puller owns: no
//!   `enum Exposed` or `fn expose_bytes` in `fabric.rs`, no `bytes`
//!   dependency of `transport`, and `rdma_get_batch` is a loop over
//!   `rdma_get` that never locks the registry itself. A header buffer
//!   has one owner at a time, so no `is_unique` test comes back under
//!   `crates/`, `shims/` or `tests/`.
//! - **One exchange per step.** Every operator's intermediates travel in
//!   one `alltoall` and no `finalize` enters a collective: the collective
//!   counts of `op::tests::four_gtc_operators_share_one_alltoall`,
//!   `staging::tests::a_gtc_step_enters_gather_allgather_and_alltoall_only`
//!   and `incompute::tests::sort_in_compute_produces_global_order` hold
//!   that; here only the per-operator back half stays deleted.
//! - **Range answers written once.** `Session::get` appends a range
//!   answer in answer order into a buffer it never zeroes (DESIGN.md
//!   §3.5): `steady_state_alloc::a_warm_range_answer_is_one_unzeroed_block`
//!   counts the one unzeroed block, and here no zero fill in the non-test
//!   part of `session.rs` and no block-by-block `copy_to` come back.
//! - **Particle stats fold in plain compares.** `attach_particle_stats`
//!   updates its lanes by strict compares, which vectorise to bare
//!   `minpd` / `maxpd`; `f64::min` / `max` there pays a NaN fix-up on
//!   every element inside `write_pg` (DESIGN.md §3.6).
//! - **`write_pg` copies no payload.** It exposes the process group's own
//!   arrays as a gather (DESIGN.md §3.4): the non-test part of
//!   `client.rs` packs no contiguous copy, and
//!   `steady_state_alloc::a_warm_dump_allocates_nothing_proportional_to_the_data`
//!   sees no chunk-sized block on the simulation's thread.
//! - **Operators share one kit.** One `BpWriter::create` and one bin
//!   formula under `crates/core/src/ops`, both in the private `kit`, and
//!   no separate 2-D histogram operator: a second writer is a `finalize`
//!   that can lose a file without `staging.output_errors` saying so, a
//!   second bin formula a histogram and an index that can disagree about
//!   an edge value.
//! - **Stage 3 spawns no thread.** Outside its tests, `staging.rs`
//!   spawns one kind of thread — a staging rank, in `StagingArea::spawn`
//!   — and enters no thread scope.
//! - **One decoder and a kept chunk.** `ProcessGroup::decode` is
//!   `decode_into` on a fresh group and `PackedChunk::unpack` is
//!   `unpack_into` on a fresh chunk, so each format has one decoder; the
//!   staging loop (`pull_map`) unpacks every pull into the rank's kept
//!   chunk, and the in-compute dump write decodes every gathered block
//!   into one group (DESIGN.md §3.4): a warm chunk's arrays are reused,
//!   which `steady_state_alloc::a_warm_dump_allocates_nothing_proportional_to_the_data`
//!   counts.
//! - **One registry per run.** Under `crates/*/src`, only the `obs`
//!   crate and the default constructors (`Fabric::new`,
//!   `DataSpaces::new`, a `minimpi` world's `Comm::new`) name
//!   `obs::global()`; everything else records into the registry it was
//!   built with.

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

/// Every `PREDATA_*` name in `text`, in order of appearance.
fn knob_names(text: &str) -> Vec<String> {
    const PREFIX: &str = "PREDATA_";
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        rest = &rest[at + PREFIX.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len());
        if end > 0 {
            names.push(format!("{PREFIX}{}", &rest[..end]));
        }
    }
    names
}

/// The first column of the knob table in `docs/OPERATIONS.md`.
fn documented_knobs() -> Vec<String> {
    read(&root().join("docs/OPERATIONS.md"))
        .lines()
        .filter(|line| line.starts_with("| `PREDATA_"))
        .flat_map(|line| knob_names(line).into_iter().take(1))
        .collect()
}

/// The body of the `fn` named `name` in `src`: from its signature to the
/// first line that closes at the signature's indentation.
fn fn_body<'a>(src: &'a str, name: &str) -> &'a str {
    let sig = format!("fn {name}(");
    let at = src.find(&sig).unwrap_or_else(|| panic!("no `{sig}`"));
    let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
    let indent = &src[line_start..at];
    let indent = &indent[..indent.len() - indent.trim_start().len()];
    let close = format!("\n{indent}}}");
    let end = src[at..].find(&close).map_or(src.len(), |i| at + i);
    &src[at..end]
}

#[test]
fn one_environment_reader() {
    let readers = offending_lines(
        "crates",
        &|p| is_rust(p) && shown(p).split('/').nth(2) == Some("src"),
        &|line| line.contains("env::var"),
    );
    assert_eq!(
        readers.len(),
        1,
        "the workspace reads the environment in exactly one function:\n{}",
        readers.join("\n")
    );
    assert!(
        readers[0].starts_with("crates/obs/src/lib.rs:")
            && readers[0].contains("Config::from_lookup(|name| std::env::var(name).ok())"),
        "the one reader is obs::Config::from_env: {}",
        readers[0]
    );

    let mut in_crates: Vec<String> = files("crates", &any_file)
        .iter()
        .flat_map(|p| knob_names(&read(p)))
        .collect();
    in_crates.sort();
    in_crates.dedup();
    let mut documented = documented_knobs();
    assert_eq!(
        documented.len(),
        3,
        "docs/OPERATIONS.md has {} knob rows, not 3: {documented:?}",
        documented.len()
    );
    documented.sort();
    assert_eq!(
        in_crates, documented,
        "the PREDATA_* names in crates/ are exactly the rows of docs/OPERATIONS.md"
    );

    let obs = read(&root().join("crates/obs/src/lib.rs"));
    let lookup = fn_body(&obs, "from_lookup");
    let unread: Vec<_> = documented
        .iter()
        .filter(|name| !lookup.contains(&format!("var(\"{name}\")")))
        .collect();
    assert!(
        unread.is_empty(),
        "knobs obs::Config::from_lookup does not read: {unread:?}"
    );
}

#[test]
fn one_retry_rule_and_one_step_deadline() {
    const GONE: [&str; 7] = [
        "RetryPolicy",
        "fn attempts(",
        "fn base_backoff(",
        "fn max_backoff(",
        "fn step_deadline(",
        "gather_timeout",
        "StageTimes",
    ];
    let this = root().join(file!());
    let hits = offending_lines(".", &|p| is_rust(p) && p != this, &|line| {
        GONE.iter().any(|name| line.contains(name))
    });
    assert!(
        hits.is_empty(),
        "a retry knob or a second step budget is back:\n{}",
        hits.join("\n")
    );

    let staging = read(&root().join("crates/core/src/staging.rs"));
    let gather = fn_body(&staging, "gather");
    assert!(
        !gather.contains("retry"),
        "gather retries its receives again:\n{gather}"
    );
    let run_step = fn_body(&staging, "run_step");
    assert_eq!(
        run_step.matches("Instant::now()").count(),
        1,
        "run_step reads the clock once, for its deadline:\n{run_step}"
    );
}

#[test]
fn knob_names_and_fn_bodies_read_the_source() {
    assert_eq!(
        knob_names("`PREDATA_*` knobs: PREDATA_TRACE=path, \"PREDATA_METRICS\""),
        ["PREDATA_TRACE", "PREDATA_METRICS"]
    );
    let src = "impl C {\n    fn a() {\n        b();\n    }\n    fn c() {}\n}\n";
    assert_eq!(fn_body(src, "a"), "fn a() {\n        b();");
}

#[test]
fn no_unpriced_subsystem() {
    let deleted = |p: &Path| {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        ["membership.rs", "live.rs", "admit.rs", "resilient.rs"].contains(&name)
    };
    let back: Vec<_> = files(".", &deleted).iter().map(|p| shown(p)).collect();
    assert!(back.is_empty(), "deleted subsystem is back: {back:?}");

    let mut unpriced: Vec<_> = [
        "crates/core/src/ops/filter.rs",
        "crates/core/src/ops/moments.rs",
        "crates/simhec/src/sizing.rs",
        "shims/criterion",
    ]
    .into_iter()
    .filter(|p| root().join(p).exists())
    .map(str::to_string)
    .collect();
    unpriced.extend(
        files("crates", &|p| {
            p.components().any(|c| c.as_os_str() == "benches")
        })
        .iter()
        .map(|p| shown(p)),
    );
    assert!(
        unpriced.is_empty(),
        "code no workload prices is back: {unpriced:?}"
    );

    let manifests = offending_lines(
        ".",
        &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"),
        &|line| line.contains("criterion"),
    );
    assert!(
        manifests.is_empty(),
        "a manifest names criterion:\n{}",
        manifests.join("\n")
    );
}

/// The part of a source file before its first `#[cfg(test)]` line.
fn non_test(src: &str) -> &str {
    src.find("\n#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// `(public, name)` of the `fn` a line declares, if it declares one:
/// `pub` alone counts as public, `pub(crate)` does not.
fn declared_fn(line: &str) -> Option<(bool, &str)> {
    let line = line.trim_start();
    let at = line.find("fn ")?;
    let words: Vec<&str> = line[..at].split_whitespace().collect();
    let qualifier = |w: &&str| w.starts_with("pub") || ["const", "unsafe", "async"].contains(w);
    if !words.iter().all(qualifier) {
        return None;
    }
    let rest = &line[at + 3..];
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some((words.contains(&"pub"), &rest[..end]))
}

#[test]
fn minimpi_keeps_only_what_the_pipeline_calls() {
    const GONE: [&str; 12] = [
        "split",
        "scatter",
        "scan",
        "exscan",
        "alltoallv",
        "recv_timeout",
        "probe",
        "reduce",
        "allreduce",
        "bcast",
        "set_collective_gate",
        "gate_collective",
    ];
    const PRIVATE: [&str; 2] = ["send", "recv"];
    const NAMES: [&str; 6] = [
        "ANY_SOURCE",
        "ANY_TAG",
        "RESERVED_TAGS",
        "comm_id",
        "CollectiveGate",
        "coll_seq",
    ];
    let mut hits = Vec::new();
    let mut barriers = 0;
    for path in files("crates/minimpi/src", &is_rust) {
        let src = read(&path);
        for (i, line) in non_test(&src).lines().enumerate() {
            let grown = declared_fn(line).is_some_and(|(public, name)| {
                GONE.contains(&name) || (public && PRIVATE.contains(&name))
            });
            if grown || NAMES.iter().any(|n| line.contains(n)) {
                hits.push(format!("{}:{}: {}", shown(&path), i + 1, line.trim()));
            }
            barriers += line.matches("Barrier::new(").count();
        }
    }
    assert!(
        hits.is_empty(),
        "minimpi has grown surface the pipeline does not call:\n{}",
        hits.join("\n")
    );
    assert_eq!(barriers, 1, "one barrier per world");
}

#[test]
fn faults_are_injected_in_the_call_that_fails() {
    let this = root().join(file!());
    let mut hits = offending_lines(".", &|p| is_rust(p) && p != this, &|line| {
        line.contains("FaultKind::Collective")
    });
    for path in files("crates/core/src", &is_rust) {
        for (i, line) in non_test(&read(&path)).lines().enumerate() {
            if ["FaultPlan", "FaultKind", "fault_plan"]
                .iter()
                .any(|name| line.contains(name))
            {
                hits.push(format!("{}:{}: {}", shown(&path), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "a fault is consulted outside the fabric call or the guard that fails:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_exposure_form_and_one_pull_path() {
    let this = root().join(file!());
    let mut hits = Vec::new();
    for dir in ["crates", "shims", "tests"] {
        hits.extend(offending_lines(
            dir,
            &|p| is_rust(p) && p != this,
            &|line| line.contains("is_unique"),
        ));
    }
    let fabric = read(&root().join("crates/transport/src/fabric.rs"));
    for gone in ["enum Exposed", "fn expose_bytes"] {
        if fabric.contains(gone) {
            hits.push(format!("crates/transport/src/fabric.rs: `{gone}`"));
        }
    }
    if read(&root().join("crates/transport/Cargo.toml")).contains("bytes") {
        hits.push("crates/transport/Cargo.toml: `bytes`".into());
    }
    assert!(
        hits.is_empty(),
        "a second exposure form or a shared, uniqueness-tested buffer is back:\n{}",
        hits.join("\n")
    );
    let batch = fn_body(&fabric, "rdma_get_batch");
    assert!(
        batch.contains("rdma_get(") && !batch.contains("registry"),
        "rdma_get_batch is a second pull path again:\n{batch}"
    );
}

#[test]
fn declared_fn_reads_visibility_and_name() {
    assert_eq!(declared_fn("    pub fn exscan<T>("), Some((true, "exscan")));
    assert_eq!(declared_fn("pub(crate) fn send<T>("), Some((false, "send")));
    assert_eq!(declared_fn("    const fn bcast()"), Some((false, "bcast")));
    assert_eq!(declared_fn("    // the fn scan is gone"), None);
    assert_eq!(declared_fn("let f = |x| x; // no fn here"), None);
    let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn exscan() {} }";
    assert_eq!(non_test(src), "fn a() {}");
}

#[test]
fn one_exchange_per_step() {
    let hits = offending_lines("crates", &any_file, &|line| {
        line.contains("complete_pipeline_traced") || line.contains("shuffle_tagged")
    });
    assert!(
        hits.is_empty(),
        "the per-operator back half is back:\n{}",
        hits.join("\n")
    );
}

/// Every line of the non-test part of `file` that `bad` flags.
fn non_test_lines(file: &str, bad: &dyn Fn(&str) -> bool) -> Vec<String> {
    let src = read(&root().join(file));
    non_test(&src)
        .lines()
        .enumerate()
        .filter(|(_, line)| bad(line))
        .map(|(i, line)| format!("{file}:{}: {}", i + 1, line.trim()))
        .collect()
}

#[test]
fn range_answers_written_once() {
    let mut hits = non_test_lines("crates/dataspaces/src/session.rs", &|line| {
        line.contains("DataArray::zeros(")
    });
    hits.extend(offending_lines(
        "crates/dataspaces/src",
        &is_rust,
        &|line| line.contains("fn copy_to"),
    ));
    assert!(
        hits.is_empty(),
        "a range answer is zero-filled or copied block by block again:\n{}",
        hits.join("\n")
    );
}

#[test]
fn particle_stats_fold_in_plain_compares() {
    let kit = read(&root().join("crates/core/src/ops/kit.rs"));
    let body = fn_body(&kit, "attach_particle_stats");
    let folds: Vec<_> = body
        .lines()
        .filter(|line| line.contains(".min(") || line.contains(".max("))
        .map(str::trim)
        .collect();
    assert!(
        folds.is_empty(),
        "attach_particle_stats folds with f64::min/max again: {folds:?}"
    );
}

#[test]
fn write_pg_copies_no_payload() {
    let packs = non_test_lines("crates/core/src/client.rs", &|line| {
        ["pack_into", "encode_into", ".pack("]
            .iter()
            .any(|p| line.contains(p))
    });
    assert!(
        packs.is_empty(),
        "write_pg packs a contiguous copy again:\n{}",
        packs.join("\n")
    );
}

#[test]
fn operators_share_one_kit() {
    let in_ops = |pattern: &'static str| {
        offending_lines("crates/core/src/ops", &is_rust, &move |line| {
            line.contains(pattern)
        })
    };
    for pattern in ["BpWriter::create", "as f64) as i64"] {
        let hits = in_ops(pattern);
        assert!(
            hits.len() == 1 && hits[0].starts_with("crates/core/src/ops/kit.rs:"),
            "`{pattern}` appears once under ops/, in kit.rs:\n{}",
            hits.join("\n")
        );
    }
    assert!(
        !root().join("crates/core/src/ops/histogram2d.rs").exists(),
        "a separate 2-D histogram operator is back"
    );
}

#[test]
fn stage_3_spawns_no_thread() {
    let src = read(&root().join("crates/core/src/staging.rs"));
    let src = non_test(&src);
    assert_eq!(src.matches("thread::scope").count(), 0, "a thread scope");
    let spawns = src.matches("thread::spawn").count() + src.matches(".spawn(").count();
    assert_eq!(spawns, 1, "staging.rs spawns one kind of thread");
    let builder = src
        .find("thread::Builder::new()")
        .expect("the staging rank's thread is built by name");
    let next: String = src[builder..].lines().take(3).collect();
    assert!(
        next.contains(".name(format!(\"staging{}\""),
        "the one spawned thread is a staging rank: {next}"
    );
}

#[test]
fn one_decoder_and_a_kept_chunk() {
    let body = |file: &str, name: &str| fn_body(&read(&root().join(file)), name).to_string();
    for (file, wrapper, decoder) in [
        ("crates/bpio/src/pg.rs", "decode", "decode_into("),
        ("crates/core/src/chunk.rs", "unpack", "unpack_into("),
    ] {
        let wrapper = body(file, wrapper);
        assert!(
            wrapper.contains(decoder),
            "{file}: a second decoder, not a call of `{decoder}`:\n{wrapper}"
        );
    }
    let pull_map = body("crates/core/src/staging.rs", "pull_map");
    assert!(
        pull_map.contains("unpack_into(") && !pull_map.contains("unpack("),
        "pull_map unpacks into a fresh chunk again:\n{pull_map}"
    );
    let dump = body("crates/core/src/incompute.rs", "write_dump_collective");
    assert!(
        dump.contains("decode_into(") && !dump.contains("decode("),
        "the in-compute dump decodes into a fresh group per block again:\n{dump}"
    );
}

/// The `fn` whose body holds line `at` of `src`: the nearest line at or
/// above it that declares one.
fn enclosing_fn(src: &str, at: usize) -> Option<&str> {
    src.lines()
        .take(at + 1)
        .filter_map(declared_fn)
        .last()
        .map(|(_, name)| name)
}

#[test]
fn one_registry_per_run() {
    const DEFAULT_CONSTRUCTORS: [(&str, &str); 3] = [
        ("crates/transport/src/fabric.rs", "new"),
        ("crates/dataspaces/src/space.rs", "new"),
        ("crates/minimpi/src/comm.rs", "new"),
    ];
    let mut hits = Vec::new();
    let mut defaults = Vec::new();
    for path in files("crates", &|p| {
        is_rust(p)
            && shown(p).split('/').nth(2) == Some("src")
            && !shown(p).starts_with("crates/obs/")
    }) {
        let src = read(&path);
        let file = shown(&path);
        for (i, line) in src.lines().enumerate() {
            if !line.contains("obs::global()") {
                continue;
            }
            let site = (file.as_str(), enclosing_fn(&src, i).unwrap_or(""));
            if DEFAULT_CONSTRUCTORS.contains(&site) {
                defaults.push(site.0.to_string());
            } else {
                hits.push(format!("{file}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "only obs and the default constructors name obs::global():\n{}",
        hits.join("\n")
    );
    assert_eq!(
        defaults.len(),
        DEFAULT_CONSTRUCTORS.len(),
        "each default constructor passes the global registry once: {defaults:?}"
    );
}

#[test]
fn enclosing_fn_reads_the_nearest_declaration() {
    let src = "impl A {\n    pub fn new() -> A {\n        x(obs::global())\n    }\n\n    fn b() {\n        y();\n    }\n}";
    assert_eq!(enclosing_fn(src, 2), Some("new"));
    assert_eq!(enclosing_fn(src, 6), Some("b"));
    assert_eq!(enclosing_fn(src, 0), None);
}

#[test]
fn every_crate_warns_unreachable_pub() {
    let roots = files("crates", &|p| {
        p.ends_with("src/lib.rs") && shown(p).split('/').count() == 4
    });
    assert!(roots.len() >= 10, "crate roots found: {roots:?}");
    let quiet: Vec<String> = roots
        .iter()
        .filter(|p| {
            !read(p)
                .lines()
                .any(|l| l.trim() == "#![warn(unreachable_pub)]")
        })
        .map(|p| shown(p))
        .collect();
    assert!(
        quiet.is_empty(),
        "a crate root without `#![warn(unreachable_pub)]` can export what nothing calls:\n{}",
        quiet.join("\n")
    );
}

/// The `run:` lines of the CI step whose name starts with `step`, with
/// `\` continuations joined: one string per shell command.
fn ci_step_commands(ci: &str, step: &str) -> Vec<String> {
    let mut lines = ci
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(&format!("- name: {step}")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with("- name:"))
        .skip_while(|l| !l.trim_start().starts_with("run:"))
        .skip(1);
    let mut commands = Vec::new();
    let mut current = String::new();
    for line in lines.by_ref() {
        let line = line.trim();
        match line.strip_suffix('\\') {
            Some(head) => current.push_str(head),
            None => {
                current.push_str(line);
                commands.push(std::mem::take(&mut current));
            }
        }
    }
    commands.retain(|c| !c.is_empty());
    commands
}

/// Every unit test of the package named `package` as the harness names
/// it: module path, the inline module around it, and the function.
fn unit_test_paths(package: &str) -> Vec<String> {
    let dir = files("crates", &|p| p.ends_with("Cargo.toml"))
        .into_iter()
        .find(|m| read(m).contains(&format!("name = \"{package}\"")))
        .unwrap_or_else(|| panic!("no crate is named {package}"));
    let src = dir.parent().expect("crate dir").join("src");
    let mut paths = Vec::new();
    for file in files(&shown(&src), &is_rust) {
        let rel = file
            .strip_prefix(&src)
            .expect("under src")
            .with_extension("");
        let mut module: Vec<String> = rel.iter().map(|c| c.to_string_lossy().into()).collect();
        if matches!(module.last().map(String::as_str), Some("lib" | "mod")) {
            module.pop();
        }
        if module.first().map(String::as_str) == Some("bin") {
            continue;
        }
        let text = read(&file);
        let lines: Vec<&str> = text.lines().collect();
        let mut inline = String::new();
        for (i, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            if let Some(name) = t.strip_prefix("mod ").and_then(|r| r.strip_suffix(" {")) {
                inline = name.to_string();
            }
            if t == "#[test]" {
                let next = lines[i + 1..]
                    .iter()
                    .find(|l| !l.trim_start().starts_with("#["));
                if let Some((_, name)) = next.and_then(|l| declared_fn(l)) {
                    let mut path = module.clone();
                    path.extend([inline.clone(), name.to_string()]);
                    paths.push(path.join("::"));
                }
            }
        }
    }
    paths
}

#[test]
fn ci_test_filters_match_a_test() {
    let ci = read(&root().join(".github/workflows/ci.yml"));
    let commands = ci_step_commands(&ci, "Row-kernel oracles and output bytes");
    let mut checked = 0;
    let mut dead = Vec::new();
    for command in &commands {
        let Some((head, filters)) = command.split_once(" -- ") else {
            continue;
        };
        let words: Vec<&str> = head.split_whitespace().collect();
        let tests: Vec<String> = words
            .windows(2)
            .filter(|w| w[0] == "-p")
            .flat_map(|w| unit_test_paths(w[1]))
            .collect();
        assert!(!tests.is_empty(), "no unit tests under `{head}`");
        for filter in filters.split_whitespace() {
            checked += 1;
            if !tests.iter().any(|t| t.contains(filter)) {
                dead.push(format!("`{filter}` in `{head}`"));
            }
        }
    }
    assert!(checked >= 14, "filter words read from CI: {checked}");
    assert!(
        dead.is_empty(),
        "a CI test filter that matches no test passes silently:\n{}",
        dead.join("\n")
    );
}
