//! `--aa N`: two alternating sets of N runs of every workload on the same
//! build, to show what the benchmark reads when nothing changed.
//!
//! Run `i` of both sets uses seed `i`, so every count metric must agree
//! exactly between the sets; a timing's two medians must agree within the
//! metric's bound. Each run is a child process of this binary, one at a
//! time, waited for before the next starts.

use std::process::{Command, ExitCode};

use crate::harness::quartiles;
use crate::metrics::{Better, END_TO_END, WORKLOADS};

/// Metrics whose value depends on the machine's pace, not only on the
/// program and the seed.
const TIMINGS: [&str; 3] = ["setup_s", "ops_per_s", "cpu_us_per_op"];

/// The value of metric `name` in a result line this binary printed.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// One child run: the end-to-end metric values in registry order, or why
/// there are none.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: status {}, result {line:?}",
            output.status
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            metric_value(line, m.name).ok_or_else(|| format!("{}: missing in {line:?}", m.name))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction
/// that counts as a regression (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    (q3 - q1) / median
}

/// Runs the A/A comparison and prints one row per workload and metric.
pub fn run(runs: usize, seconds: f64) -> ExitCode {
    let mut failures = 0usize;
    println!(
        "{:<12} {:<18} {:>16} {:>16} {:>9} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "iqr A", "iqr B"
    );
    for workload in WORKLOADS {
        // sets[s][metric][run]
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for run in 0..runs {
            // Alternate which set goes first, so drift over the session
            // lands on both.
            let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match run_once(workload, run as u64 + 1, seconds) {
                    Ok(values) => {
                        for (column, value) in sets[set].iter_mut().zip(values) {
                            column.push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let (med_a, med_b) = (quartiles(a)[1], quartiles(b)[1]);
            let change = worsening(m.better, med_a, med_b);
            let ok = if TIMINGS.contains(&m.name) {
                change <= m.bound
            } else {
                a == b
            };
            failures += usize::from(!ok);
            println!(
                "{workload:<12} {:<18} {med_a:>16.6} {med_b:>16.6} {:>+8.2}% {:>8.1}% {:>6.2}% {:>6.2}%  {}",
                m.name,
                change * 100.0,
                m.bound * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                match (ok, TIMINGS.contains(&m.name)) {
                    (true, true) => "within bound",
                    (true, false) => "identical",
                    (false, true) => "TIMING DIFFERS BEYOND BOUND",
                    (false, false) => "COUNT DIFFERS",
                },
            );
        }
    }
    if failures == 0 {
        println!("A/A: every count identical, every timing within its bound ({runs} runs per set, {seconds} s each)");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {failures} metric(s) disagree between two sets of runs of the same build");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 2.5185, \"unit\": \"s\"}, \
                    \"ops_per_s\": {\"value\": 5309.6627, \"unit\": \"op/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(2.5185));
        assert_eq!(metric_value(line, "ops_per_s"), Some(5309.6627));
        assert_eq!(metric_value(line, "cpu_us_per_op"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
