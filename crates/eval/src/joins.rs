//! Figure 5 — join discovery: precision/recall/F1 versus threshold,
//! WarpGate against UniDM.

use std::fmt;

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::warpgate;
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{joins, JoinDiscoveryDataset};
use unidm_tablestore::DataLake;
use unidm_world::World;

use crate::metrics::{sweep, Confusion};
use crate::ExperimentConfig;

/// One system's sweep curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// System name.
    pub system: String,
    /// `(threshold, confusion)` points.
    pub points: Vec<(f64, Confusion)>,
}

/// The Figure 5 artifact: sweep curves for both systems.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Title.
    pub title: String,
    /// One series per system.
    pub series: Vec<SweepSeries>,
}

impl SweepReport {
    /// The series for `system`, if present.
    pub fn series(&self, system: &str) -> Option<&SweepSeries> {
        self.series.iter().find(|s| s.system == system)
    }

    /// Mean F1 across the sweep for `system`.
    pub fn mean_f1(&self, system: &str) -> Option<f64> {
        let s = self.series(system)?;
        let sum: f64 = s.points.iter().map(|(_, c)| c.f1()).sum();
        Some(sum / s.points.len().max(1) as f64)
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(
            f,
            "{:<10}{:<12}{:>10}{:>10}{:>10}",
            "System", "Threshold", "Precision", "Recall", "F1"
        )?;
        writeln!(f, "{}", "-".repeat(52))?;
        for s in &self.series {
            for (t, c) in &s.points {
                writeln!(
                    f,
                    "{:<10}{:<12.2}{:>10.3}{:>10.3}{:>10.3}",
                    s.system,
                    t,
                    c.precision(),
                    c.recall(),
                    c.f1()
                )?;
            }
        }
        Ok(())
    }
}

/// Joinability scores of the UniDM pipeline over a dataset's pairs (runs
/// as one batch).
pub fn unidm_scores(
    llm: &dyn LanguageModel,
    ds: &JoinDiscoveryDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> Vec<(f64, bool)> {
    let lake = DataLake::new();
    let pairs = &ds.pairs[..queries.min(ds.pairs.len())];
    let tasks: Vec<Task> = pairs
        .iter()
        .map(|pair| Task::JoinDiscovery {
            left_name: pair.left_name.clone(),
            left_values: pair.left_values.clone(),
            right_name: pair.right_name.clone(),
            right_values: pair.right_values.clone(),
        })
        .collect();
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    answers
        .iter()
        .zip(pairs)
        .map(|(answer, pair)| (parse_joinability(answer), pair.joinable))
        .collect()
}

/// Parses "Yes (joinability: 83%)" into `0.83`. Total: the result is
/// always a finite value in `[0, 1]`, and a reply without a percentage in
/// 0–100 (none at all, `NaN`, an infinity, `-20%`, `250%`) reads as the
/// fallback 0.0 — not joinable at any threshold.
pub fn parse_joinability(answer: &str) -> f64 {
    answer
        .split("joinability:")
        .nth(1)
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches(')')
                .trim_end_matches('%')
                .trim()
                .parse::<f64>()
                .ok()
        })
        .filter(|p| (0.0..=100.0).contains(p))
        .map(|p| p / 100.0)
        .unwrap_or(0.0)
}

/// WarpGate scores over a dataset's pairs.
pub fn warpgate_scores(ds: &JoinDiscoveryDataset, queries: usize) -> Vec<(f64, bool)> {
    ds.pairs
        .iter()
        .take(queries)
        .map(|p| (warpgate::score(&p.left_values, &p.right_values), p.joinable))
        .collect()
}

/// The thresholds of Figure 5.
pub fn fig5_thresholds() -> Vec<f64> {
    (0..=12).map(|i| 0.35 + f64::from(i) * 0.05).collect()
}

/// Runs Figure 5: the P/R/F1 sweep of WarpGate vs UniDM on the NextiaJD
/// subset.
pub fn fig5(config: ExperimentConfig) -> SweepReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("fig5-seed{}", config.seed), backend.model());
    let llm = cached.model();
    // The paper uses 4404 pairs; scale with the configured query budget.
    let n_pairs = (config.queries * 4).clamp(80, 4404);
    let ds = joins::nextiajd(&world, config.seed, n_pairs);
    let thresholds = fig5_thresholds();
    let wg = sweep(&warpgate_scores(&ds, n_pairs), &thresholds);
    let ud = sweep(
        &unidm_scores(
            llm,
            &ds,
            PipelineConfig::paper_default().with_seed(config.seed),
            n_pairs,
        ),
        &thresholds,
    );
    SweepReport {
        title: "Figure 5. F1-score, precision and recall on join discovery (NextiaJD subset)."
            .to_string(),
        series: vec![
            SweepSeries {
                system: "WarpGate".into(),
                points: wg,
            },
            SweepSeries {
                system: "UniDM".into(),
                points: ud,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_joinability_cases() {
        assert!((parse_joinability("Yes (joinability: 83%)") - 0.83).abs() < 1e-9);
        assert!((parse_joinability("No (joinability: 5%)") - 0.05).abs() < 1e-9);
        assert_eq!(parse_joinability("Yes (joinability: 100%)"), 1.0);
        assert_eq!(parse_joinability("garbled"), 0.0);
        // Rust's float parser reads these; a joinability they are not.
        assert_eq!(parse_joinability("Yes (joinability: NaN%)"), 0.0);
        assert_eq!(parse_joinability("Yes (joinability: inf%)"), 0.0);
        assert_eq!(parse_joinability("joinability: 250%"), 0.0);
        assert_eq!(parse_joinability("No (joinability: -20%)"), 0.0);
    }

    /// 10^4 seeded mutants of the model's own join replies: whatever the
    /// text, the parse stays a finite value in `[0, 1]`.
    #[test]
    fn mutated_join_replies_parse_into_the_unit_interval() {
        const JUNK: [&str; 14] = [
            "NaN",
            "inf",
            "-inf",
            "-20",
            "250",
            "1e308",
            "1e999",
            "-0",
            "+5",
            "e",
            "%",
            ")",
            "joinability:",
            " ",
        ];
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
        let ds = joins::nextiajd(&world, 7, 40);
        let lake = DataLake::new();
        let tasks: Vec<Task> = ds
            .pairs
            .iter()
            .map(|pair| Task::JoinDiscovery {
                left_name: pair.left_name.clone(),
                left_values: pair.left_values.clone(),
                right_name: pair.right_name.clone(),
                right_values: pair.right_values.clone(),
            })
            .collect();
        let replies =
            BatchRunner::new(&llm, PipelineConfig::paper_default()).answers(&lake, &tasks);
        assert!(replies
            .iter()
            .all(|r| r.contains("joinability:") && r.is_ascii()));
        // xorshift64: the crate has no RNG dependency.
        let mut state = 0x6a6f_696e_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for k in 0..10_000 {
            let mut text = replies[k % replies.len()].clone();
            for _ in 0..1 + next(3) {
                let from = next(text.len() + 1);
                let to = from + next(text.len() - from + 1);
                let junk = JUNK[next(JUNK.len())];
                text = match next(3) {
                    0 => format!("{}{junk}{}", &text[..from], &text[to..]),
                    1 => format!("{}{}", &text[..from], &text[to..]),
                    _ => format!("{}{junk}{}", &text[..from], &text[from..]),
                };
            }
            let p = parse_joinability(&text);
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{text:?} parsed to {p}"
            );
        }
    }

    #[test]
    fn fig5_unidm_dominates_sweep() {
        let report = fig5(ExperimentConfig::quick());
        let wg = report.mean_f1("WarpGate").unwrap();
        let ud = report.mean_f1("UniDM").unwrap();
        assert!(
            ud > wg,
            "UniDM mean F1 {ud:.3} should beat WarpGate {wg:.3}"
        );
        assert!(ud > 0.7, "UniDM should be strong: {ud:.3}");
    }

    #[test]
    fn fig5_report_prints_all_points() {
        let report = fig5(ExperimentConfig::quick());
        let text = report.to_string();
        assert!(text.contains("WarpGate"));
        assert!(text.contains("UniDM"));
        assert_eq!(report.series("UniDM").unwrap().points.len(), 13);
    }
}
