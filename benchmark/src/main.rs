//! The repo benchmark: five layer-isolating workloads over the UniDM
//! reproduction, driven through the program's public functions from one
//! process and one driving thread.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mix_batch --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! layer metrics with `--trace 1`). See `README.md`.

mod aa;
mod gen;
mod harness;
mod metrics;
mod replay;
mod steps;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Ctx, Outcome};

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

const USAGE: &str = "usage: unidm-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--keep-out]\n       unidm-benchmark --aa N [--seconds S]\n\
                     workloads: mix_batch lake_stream replay_warm store_churn serve_fleet";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    keep_out: bool,
    aa: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        keep_out: false,
        aa: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                parsed.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                }
            }
            "--aa" => {
                parsed.aa = Some(
                    value("a run count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--aa: needs at least 2 runs per set")?,
                )
            }
            "--keep-out" => parsed.keep_out = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (&parsed.workload, parsed.aa) {
        (None, None) => Err("one of --workload and --aa is required".into()),
        (Some(w), _) if !WORKLOADS.contains(&w.as_str()) => Err(format!("unknown workload {w:?}")),
        _ => Ok(parsed),
    }
}

/// The package directory: where `cargo run` says the manifest is, else
/// where it was at build time.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The per-run scratch directory; removed on drop unless kept.
struct RunDir {
    path: PathBuf,
    keep: bool,
}

impl RunDir {
    fn create(keep: bool) -> std::io::Result<RunDir> {
        let path = package_dir()
            .join("out")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path, keep })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn run_workload(name: &str, trace: bool, ctx: &Ctx<'_>) -> Outcome {
    use workloads::{lake_stream, mix_batch, replay_warm, serve_fleet, store_churn};
    type Run = fn(&Ctx<'_>) -> Outcome;
    let (untraced, traced): (Run, Run) = match name {
        "mix_batch" => (mix_batch::run, mix_batch::run_traced),
        "lake_stream" => (lake_stream::run, lake_stream::run_traced),
        "replay_warm" => (replay_warm::run, replay_warm::run_traced),
        "store_churn" => (store_churn::run, store_churn::run_traced),
        "serve_fleet" => (serve_fleet::run, serve_fleet::run_traced),
        _ => unreachable!("workload names are checked while parsing"),
    };
    if !trace {
        return untraced(ctx);
    }
    let mut outcome = traced(ctx);
    outcome.fill_unhosted_layers();
    outcome
}

/// `"name": {"value": v, "unit": "u"}` for each listed metric, in
/// registry order. A metric the run did not produce is a bug, and a value
/// JSON cannot carry makes the run incorrect.
fn metrics_json(outcome: &mut Outcome, listed: &[(&'static str, &'static str)]) -> String {
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                outcome
                    .problems
                    .push(format!("metric {name} is {other:?}, not a finite number"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!("{{{}}}", fields.join(", "))
}

fn report(workload: &str, args: &Args, dir: &Path, mut outcome: Outcome) {
    println!(
        "# {workload} seed={} seconds={} trace={} threads_available={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let listed: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = metrics_json(&mut outcome, &listed);
    let value_of = |name: &str| outcome.metrics.get(name).copied().unwrap_or(0.0);
    if args.trace {
        for m in &PER_LAYER {
            println!(
                "{} {} {}  [{} is better; measured on: {}; moves: {}]",
                m.name,
                value_of(m.name),
                m.unit,
                m.better.as_str(),
                m.hosts,
                m.moves
            );
        }
    } else {
        for m in &END_TO_END {
            println!(
                "{} {} {}  [{} is better; bound {}%]",
                m.name,
                value_of(m.name),
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.problems.is_empty()
    );
    for problem in &outcome.problems {
        println!("# INCORRECT: {problem}");
    }
    if args.keep_out {
        println!("# scratch kept in {}", dir.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.aa {
        return aa::run(runs, args.seconds);
    }
    let workload = args.workload.clone().expect("checked while parsing");
    let dir = match RunDir::create(args.keep_out) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        dir: &dir.path,
    };
    let outcome = run_workload(&workload, args.trace, &ctx);
    report(&workload, &args, &dir.path, outcome);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "lake_stream",
            "--seed",
            "17",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("lake_stream"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 12.0, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "mix_batch", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "mix_batch", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "mix_batch", "--frobnicate"]).is_err());
        assert!(args(&["--aa", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn unproduced_or_non_finite_metrics_fail_the_run() {
        let mut outcome = Outcome::default();
        outcome.set("ops_per_s", f64::INFINITY);
        let json = metrics_json(&mut outcome, &[("ops_per_s", "op/s"), ("setup_s", "s")]);
        assert_eq!(outcome.problems.len(), 2);
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
