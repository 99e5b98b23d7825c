//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--aa] [--quick]
//! ```
//!
//! With `--workload` it runs that one workload and ends with the result
//! object on the last line of standard output; without, it runs all
//! five. It builds `bqs` from the checkout it is started in, spawns
//! only that binary, and reads and writes only inside the checkout.

mod driver;
mod gen;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use driver::{Res, Scratch};
use report::{RunResult, END_TO_END};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Ctx, Workload};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: bqs-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--aa] [--quick]
  --workload NAME  one of solo_compress net_ingest churn_spill query_scan mixed_rw (default: all)
  --seed N         input seed (default 1)
  --seconds S      how long a timed section measures at the parent commit's speed (default 10)
  --trace [0|1]    1: the traced pass (per-layer metrics, spans, budget tables)
  --aa             run the untraced suite twice and compare against each metric's bound
  --quick          1/20-size smoke run";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !workloads::ALL.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 60.0) {
                    return Err(format!(
                        "--seconds must be within 1..=60, got {}",
                        out.seconds
                    ));
                }
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => out.aa = true,
            "--quick" => out.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if out.aa && out.trace {
        return Err("--aa compares untraced runs; drop --trace".to_string());
    }
    Ok(out)
}

/// Where cargo puts build output for this checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `bqs` from the checkout in the working directory; compile
/// time depends on the state of cargo's cache, so it is printed
/// (`build_s`) and never tracked.
fn build_bqs() -> Res<PathBuf> {
    if !(Path::new("Cargo.toml").is_file() && Path::new("crates/cli").is_dir()) {
        return Err("run from the root of a checkout (Cargo.toml and crates/ expected)".into());
    }
    let start = Instant::now();
    let status = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "bqs-cli",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p bqs-cli failed with {status}"));
    }
    let bqs = target_dir().join("release").join("bqs");
    if !bqs.is_file() {
        return Err(format!("{} was not built", bqs.display()));
    }
    println!("build_s {:.3} (untracked)", start.elapsed().as_secs_f64());
    std::fs::canonicalize(&bqs).map_err(|e| format!("{}: {e}", bqs.display()))
}

fn workload(name: &str) -> &'static Workload {
    workloads::ALL
        .iter()
        .find(|w| w.name == name)
        .expect("names are checked at parse time")
}

/// The traced pass for one workload: staged replay rounds for about
/// half of `--seconds`, then the served observations.
fn run_traced(w: &Workload, ctx: &Ctx) -> Res<RunResult> {
    let input = (w.replay_input)(ctx)?;
    let mut rec = Recorder::new();
    let (mut rounds, mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let begin = Instant::now();
    let budget_s = ctx.seconds * 0.45;
    let mut last_traced_round = 0;
    while rounds.len() < 4 || (begin.elapsed().as_secs_f64() < budget_s && rounds.len() < 16) {
        let r = rounds.len();
        let scratch = Scratch::new(ctx.scratch_root, w.name, 800 + r)?;
        rec.round = r as u32;
        // Even rounds carry per-call spans, odd rounds only stage spans:
        // the ratio of their wall times prices the tracing.
        rec.calls = r % 2 == 0;
        let (values, wall_ns) = replay::replay_round(&input, &mut rec, scratch.path())?;
        if rec.calls {
            traced_wall.push(wall_ns);
            last_traced_round = r as u32;
        } else {
            untraced_wall.push(wall_ns);
        }
        rounds.push((values, wall_ns));
    }
    let replay_calls = rec.spans().len() as u64;

    // The workload itself, shorter: its tail latencies, and — when it
    // spawns a server — what that server showed from outside. A
    // workload without a server has its replay input served as-is.
    let shorter = Ctx {
        seconds: (ctx.seconds * 0.4).max(1.0),
        ..*ctx
    };
    let outcome = (w.run)(&shorter)?;
    let served = match outcome.served {
        Some(served) => served,
        None => replay::served_pass(ctx, &input)?,
    };
    let (attempted, failed) = (outcome.result.attempted, outcome.result.failed);
    let mut notes = outcome.result.notes;
    let mut metrics =
        replay::per_layer_metrics(&input, &rounds, &traced_wall, &untraced_wall, &rec, &served);
    metrics.extend(outcome.tails);
    let out = Path::new("benchmark/out").join(format!("trace-{}.jsonl", w.name));
    rec.write_jsonl(&out, w.name)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    notes.push(format!(
        "{} replay rounds, {} spans -> {}",
        rounds.len(),
        rec.spans().len(),
        out.display()
    ));
    print!("{}", replay::budget_table(&input, &rec, last_traced_round));
    Ok(RunResult {
        workload: w.name,
        attempted: attempted + replay_calls,
        failed,
        metrics,
        notes,
    })
}

fn run_one(w: &Workload, ctx: &Ctx, traced: bool) -> Res<RunResult> {
    let start = Instant::now();
    let result = if traced {
        run_traced(w, ctx)?
    } else {
        (w.run)(ctx)?.result
    };
    result.validate(traced)?;
    println!(
        "== {} (seed {}, {}) finished in {:.1} s: {} of {} operations failed",
        w.name,
        ctx.seed,
        if traced { "traced" } else { "untraced" },
        start.elapsed().as_secs_f64(),
        result.failed,
        result.attempted
    );
    for note in &result.notes {
        println!("   {note}");
    }
    for (name, value) in &result.metrics {
        let unit = report::declared(name, traced).map_or("", |(_, unit)| unit);
        println!("   {name:<42} {value:>16.4} {unit}");
    }
    Ok(result)
}

/// Runs every workload once, each in a process of its own — this
/// binary again, called the way the driver calls it — so a workload
/// measures the same whether it runs alone or in the suite (peak RSS of
/// the in-process workloads would otherwise depend on what ran before).
fn run_suite(args: &Args, traced: bool) -> Res<Vec<RunResult>> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    workloads::ALL
        .iter()
        .map(|w| {
            let name = w.name;
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("run {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            RunResult::from_json(name, last, traced)
                .map_err(|e| format!("{name} ({}): {e}", output.status))
        })
        .collect()
}

/// `--aa`: the same code measured twice; every workload × end-to-end
/// metric must agree within the metric's own bound.
fn compare_aa(first: &[RunResult], second: &[RunResult]) -> bool {
    println!(
        "\nA/A  {:<14} {:<24} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut pass = true;
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            // Positive = the second run reads worse than the first.
            let diff = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let ok = diff.abs() <= m.bound;
            pass &= ok;
            println!(
                "A/A  {:<14} {:<24} {:>16.4} {:>16.4} {:>+7.1}% {:>5.1}%  {}",
                a.workload,
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("A/A  {}", if pass { "PASS" } else { "FAIL" });
    pass
}

fn real_main(args: &Args) -> Res<bool> {
    let bqs = build_bqs()?;
    let scratch_root = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(target_dir())
        .join("bqs-benchmark-scratch");
    std::fs::create_dir_all(&scratch_root)
        .map_err(|e| format!("create {}: {e}", scratch_root.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        bqs: &bqs,
        scratch_root: &scratch_root,
    };
    println!(
        "bqs-benchmark: seed {} seconds {} cores {} ({}); server --workers 2, pool runtime, \
         fsync off, loopback, page-cache reads",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.quick { "quick" } else { "full" },
    );
    if let Some(name) = &args.workload {
        // The driver's mode: the result object is the last line.
        let result = run_one(workload(name), &ctx, args.trace)?;
        println!("{}", result.to_json(args.trace));
        return Ok(result.correct());
    }
    let first = run_suite(args, args.trace)?;
    let mut ok = first.iter().all(RunResult::correct);
    if args.aa {
        let second = run_suite(args, false)?;
        ok &= second.iter().all(RunResult::correct);
        ok &= compare_aa(&first, &second);
    }
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match real_main(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("error: an output check or the A/A comparison failed");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&args("--workload mixed_rw --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("mixed_rw"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse_args(&args(
            "--workload solo_compress --seed 1 --seconds 5 --trace 0",
        ))
        .unwrap();
        assert!(!a.trace);
        // A bare --trace means the traced pass.
        assert!(parse_args(&args("--trace")).unwrap().trace);
        assert!(parse_args(&args("--trace --quick")).unwrap().quick);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed abc")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seconds")).is_err());
        assert!(parse_args(&args("--aa --trace")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn aa_flags_a_difference_beyond_the_bound() {
        let result = |throughput: f64| RunResult {
            workload: "w",
            attempted: 1,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        if m.name == "throughput_pts_s" {
                            throughput
                        } else {
                            1.0
                        },
                    )
                })
                .collect(),
            notes: vec![],
        };
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_pts_s")
            .expect("declared")
            .bound;
        assert!(compare_aa(
            &[result(100.0)],
            &[result(100.0 * (1.0 - bound / 2.0))]
        ));
        assert!(!compare_aa(
            &[result(100.0)],
            &[result(100.0 * (1.0 - bound - 0.05))]
        ));
        assert!(!compare_aa(
            &[result(100.0)],
            &[result(100.0 * (1.0 + bound + 0.05))]
        ));
    }
}
