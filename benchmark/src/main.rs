//! `predata-benchmark` — the one benchmark every performance or
//! simplicity claim about this repository is measured with.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--repeat N]
//! ```
//!
//! The process started by that command is the *parent*: for each
//! workload it starts a fresh *child* (this same binary) under a
//! watchdog, with every `PREDATA_*` variable removed from the child's
//! environment so the program runs on its defaults, in a scratch
//! directory of the child's own that the parent removes on every exit
//! path. The child runs the workload, checks its outputs and prints a
//! record; the parent adds provenance, prints every metric by name with
//! its unit, writes `benchmark/out/result-*.json`, and ends its standard
//! output with the one-line result of the benchmark contract. See
//! `benchmark/README.md`.

mod common;
mod incompute;
mod probes;
mod query;
mod report;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use report::{contract_line, full_record, parse_record, print_table, RunOutput};
use serde_json::{json, Map, Value};
use workloads::{Ctx, WORKLOADS};

const DEFAULT_SEED: u64 = 20_100_419;
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;
/// A child still running after this long is killed: it hangs (a rank
/// parked on a dead peer's message, ROADMAP item 0) or the host cannot
/// run the workload at all.
const WATCHDOG: Duration = Duration::from_secs(150);

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out_dir: PathBuf,
    /// Set on the child's command line only.
    child_scratch: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds T] [--trace 0|1] [--repeat N] [--out DIR]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        child_scratch: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "run" => {}
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload `{w}`\n{}", usage()));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => a.out_dir = PathBuf::from(value()?),
            "--child-scratch" => a.child_scratch = Some(PathBuf::from(value()?)),
            "--manifest" => {
                println!("{}", report::manifest());
                std::process::exit(0);
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(scratch) = args.child_scratch.clone() {
        return child(&args, scratch);
    }
    parent(&args)
}

// ---------------------------------------------------------------- child

/// Run one workload and print its record. Standard output carries
/// heartbeat lines (`HB attempted finished`) while the workload runs and
/// ends with `RECORD {json}`.
fn child(args: &Args, scratch: PathBuf) -> ExitCode {
    let workload = args
        .workload
        .clone()
        .expect("the parent names the workload");
    std::thread::Builder::new()
        .name("heartbeat".into())
        .spawn(|| loop {
            std::thread::sleep(Duration::from_millis(500));
            let mut out = std::io::stdout().lock();
            let _ = writeln!(
                out,
                "HB {} {}",
                common::ATTEMPTED.load(Ordering::Relaxed),
                common::FINISHED.load(Ordering::Relaxed)
            );
            let _ = out.flush();
        })
        .expect("spawn heartbeat");
    let ctx = Ctx {
        workload: workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch,
        out_dir: args.out_dir.clone(),
    };
    match workloads::run(&ctx) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(
                stdout,
                "RECORD {}",
                full_record(&workload, args.trace, &out)
            );
            let _ = stdout.flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("workload {workload} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

// --------------------------------------------------------------- parent

/// A scratch directory that exists for exactly as long as the guard.
/// Unique per parent process, workload and start instant — never the
/// bare `temp_dir().join(format!(..pid..))` pattern two runs can share.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path, workload: &str) -> std::io::Result<Scratch> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = out_dir.join(format!(
            "scratch-{}-{workload}-{nonce:x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Facts about the host and the build that hold for every run of this
/// process (two of them cost a subprocess, so they are gathered once).
fn host_facts() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_output(
        "git",
        &[
            "-C",
            &repo.display().to_string(),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".into(), nproc),
        (
            "rustc".into(),
            command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        ("build_profile".into(), profile.into()),
        ("commit".into(), commit.unwrap_or_else(|| "unknown".into())),
    ]
}

/// What the parent learned from a child's standard output.
struct Watched {
    record: Option<RunOutput>,
    /// Last heartbeat: operations started / finished.
    attempted: u64,
    finished: u64,
    timed_out: bool,
    exited_ok: bool,
}

/// Read a child's heartbeats and record until it ends; kill it when it
/// outlives `limit`. Always waits for the child, so none is left behind.
fn watch(mut child: std::process::Child, limit: Duration) -> Watched {
    let started = Instant::now();
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut w = Watched {
        record: None,
        attempted: 0,
        finished: 0,
        timed_out: false,
        exited_ok: false,
    };
    loop {
        match rx.recv_timeout(limit.saturating_sub(started.elapsed())) {
            Ok(line) => {
                if let Some(hb) = line.strip_prefix("HB ") {
                    let mut f = hb.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
                    w.attempted = f.next().unwrap_or(w.attempted);
                    w.finished = f.next().unwrap_or(w.finished);
                } else if let Some(rec) = line.strip_prefix("RECORD ") {
                    w.record = serde_json::from_str(rec)
                        .ok()
                        .as_ref()
                        .and_then(parse_record);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                w.timed_out = true;
                let _ = child.kill();
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    w.exited_ok = child.wait().is_ok_and(|s| s.success());
    let _ = reader.join();
    w
}

/// Start one child for `workload`, watch it, and return its record —
/// or, when it had to be killed or died, a record that counts whatever
/// was outstanding as failed.
fn run_child(args: &Args, host: &[(String, String)], workload: &str, seed: u64) -> RunOutput {
    let started = Instant::now();
    let failed_run = |why: String, attempted: u64, finished: u64| {
        eprintln!("{workload}: {why}");
        RunOutput {
            attempted: attempted.max(1),
            failed: attempted.saturating_sub(finished).max(1),
            facts: vec![("failure".into(), why)],
            ..Default::default()
        }
    };
    let scratch = match Scratch::create(&args.out_dir, workload) {
        Ok(s) => s,
        Err(e) => return failed_run(format!("cannot create scratch directory: {e}"), 0, 0),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed_run(format!("cannot locate this executable: {e}"), 0, 0),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--child-scratch")
        .arg(&scratch.0)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    // The program under test runs on its defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PREDATA_") {
            cmd.env_remove(key);
        }
    }
    let mut facts = host.to_vec();
    facts.extend([
        ("seed".into(), seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("scratch_fs".into(), common::fs_type_of(&scratch.0)),
        ("load_average_at_start".into(), common::load_average()),
    ]);
    let watched = match cmd.spawn() {
        Ok(child) => watch(child, WATCHDOG),
        Err(e) => return failed_run(format!("cannot start the child: {e}"), 0, 0),
    };
    let (attempted, finished) = (watched.attempted, watched.finished);
    let mut out = match watched.record {
        Some(out) if !watched.timed_out && watched.exited_ok => out,
        _ if watched.timed_out => failed_run(
            format!(
                "watchdog: killed after {} s with {} of {attempted} operations outstanding",
                WATCHDOG.as_secs(),
                attempted.saturating_sub(finished)
            ),
            attempted,
            finished,
        ),
        _ => failed_run(
            "the child ended without a record".into(),
            attempted,
            finished,
        ),
    };
    facts.push((
        "run_wall_s".into(),
        format!("{:.3}", started.elapsed().as_secs_f64()),
    ));
    facts.append(&mut out.facts);
    out.facts = facts;
    out
}

fn print_run(workload: &str, traced: bool, out: &RunOutput) {
    println!(
        "== {workload}{} — {} ==",
        if traced { " (traced)" } else { "" },
        if out.correct() { "correct" } else { "FAILED" }
    );
    println!(
        "  operations: {} attempted, {} failed; reference checks: {} made, {} mismatched; fail_frac {}",
        out.attempted,
        out.failed,
        out.checks,
        out.mismatches,
        (out.failed + out.mismatches) as f64 / (out.attempted + out.checks).max(1) as f64
    );
    print_table(
        if traced {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &out.metrics,
    );
    print_table("workload detail", &out.detail);
    println!("  provenance");
    for (k, v) in &out.facts {
        println!("    {k:<44} {v}");
    }
}

fn write_record(args: &Args, workload: &str, out: &RunOutput) {
    let name = format!(
        "result-{workload}{}.json",
        if args.trace { "-trace" } else { "" }
    );
    let path = args.out_dir.join(name);
    let write = std::fs::create_dir_all(&args.out_dir)
        .and_then(|_| std::fs::write(&path, full_record(workload, args.trace, out).to_string()));
    if let Err(e) = write {
        eprintln!("warning: cannot write {path:?}: {e}");
    }
}

/// `--repeat N`: per metric the median, the quartiles and the distance
/// between them as a share of the median, over N whole runs on N seeds.
fn noise_report(workload: &str, runs: &[RunOutput]) -> Value {
    let mut rows = Map::new();
    let names: Vec<(String, String)> = runs[0]
        .metrics
        .iter()
        .chain(&runs[0].detail)
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    println!("== {workload}: spread over {} runs ==", runs.len());
    println!(
        "    {:<44} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit) in names {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(&name)).collect();
        if values.len() < 2 {
            continue;
        }
        let (q1, q2, q3) = stats::quartiles(&values);
        let spread = stats::relative_iqr(&values);
        println!("    {name:<44} {q1:>14.5} {q2:>14.5} {q3:>14.5} {spread:>9.4} {unit}");
        if runs[0].metrics.iter().any(|m| m.name == name) {
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("      runs: {}", listed.join(" "));
        }
        rows.insert(
            name,
            json!({"q1": q1, "median": q2, "q3": q3, "relative_iqr": spread, "unit": unit, "n": values.len()}),
        );
    }
    Value::Object(rows)
}

fn parent(args: &Args) -> ExitCode {
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let host = host_facts();
    let mut all_correct = true;
    let mut last_line = Value::Null;
    let mut summary = Map::new();
    for workload in &selected {
        let runs: Vec<RunOutput> = (0..args.repeat)
            .map(|i| {
                let out = run_child(args, &host, workload, args.seed + i as u64);
                print_run(workload, args.trace, &out);
                all_correct &= out.correct();
                out
            })
            .collect();
        let last = runs.last().expect("repeat is at least 1");
        write_record(args, workload, last);
        last_line = contract_line(last);
        if args.repeat > 1 {
            summary.insert(workload.to_string(), noise_report(workload, &runs));
        } else {
            summary.insert(workload.to_string(), last_line.clone());
        }
    }
    // One workload, one run: the benchmark contract's result line.
    // Otherwise: one object keyed by workload.
    if selected.len() == 1 && args.repeat == 1 {
        println!("{last_line}");
    } else {
        println!("{}", Value::Object(summary));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload query_scan --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("query_scan"));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 12.0, true, 1));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.trace, d.workload), (DEFAULT_SEED, false, None));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }

    #[test]
    fn scratch_directories_are_unique_and_removed() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let a = Scratch::create(&base, "unit").unwrap();
        let b = Scratch::create(&base, "unit").unwrap();
        assert_ne!(a.0, b.0);
        let (pa, pb) = (a.0.clone(), b.0.clone());
        assert!(pa.is_dir() && pb.is_dir());
        drop((a, b));
        assert!(!pa.exists() && !pb.exists());
    }

    #[test]
    fn watchdog_kills_a_hung_child_and_keeps_its_last_heartbeat() {
        let child = Command::new("sh")
            .args(["-c", "echo HB 5 3; exec sleep 30"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let t = Instant::now();
        let w = watch(child, Duration::from_millis(300));
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "killed, not waited out"
        );
        assert!(w.timed_out && !w.exited_ok && w.record.is_none());
        assert_eq!((w.attempted, w.finished), (5, 3));
        // A child that ends by itself is not a timeout.
        let child = Command::new("sh")
            .args(["-c", "echo HB 2 2"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let w = watch(child, Duration::from_secs(10));
        assert!(!w.timed_out && w.exited_ok);
    }

    #[test]
    fn a_killed_child_reports_its_outstanding_operations_as_failed() {
        let line = contract_line(&RunOutput {
            attempted: 40,
            failed: 7,
            ..Default::default()
        });
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(7));
    }
}
