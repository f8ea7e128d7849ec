//! Tables 8–10 — component ablations.
//!
//! Each row toggles a subset of {instance-wise retrieval, meta-wise
//! retrieval, target prompt construction, context data parsing}, exactly as
//! the paper's checkmark tables do.

use unidm::PipelineConfig;
use unidm_llm::{LlmProfile, MockLlm};
use unidm_synthdata::{imputation, transformation};
use unidm_world::World;

use crate::imputation::unidm_accuracy;
use crate::report::TableReport;
use crate::transformation::unidm_accuracy as unidm_transform_accuracy;
use crate::ExperimentConfig;

/// One ablation row: which components are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationRow {
    /// Instance-wise retrieval on.
    pub instance: bool,
    /// Meta-wise retrieval on.
    pub meta: bool,
    /// Target prompt construction on.
    pub prompt: bool,
    /// Context data parsing on.
    pub parsing: bool,
}

impl AblationRow {
    /// The paper's six imputation-ablation rows (Tables 8 and 9), in order.
    pub fn imputation_rows() -> Vec<AblationRow> {
        vec![
            AblationRow {
                instance: false,
                meta: false,
                prompt: false,
                parsing: false,
            },
            AblationRow {
                instance: true,
                meta: false,
                prompt: false,
                parsing: false,
            },
            AblationRow {
                instance: false,
                meta: true,
                prompt: false,
                parsing: false,
            },
            AblationRow {
                instance: true,
                meta: true,
                prompt: false,
                parsing: false,
            },
            AblationRow {
                instance: true,
                meta: true,
                prompt: true,
                parsing: false,
            },
            AblationRow {
                instance: true,
                meta: true,
                prompt: true,
                parsing: true,
            },
        ]
    }

    /// The paper's four transformation-ablation rows (Table 10).
    pub fn transformation_rows() -> Vec<AblationRow> {
        vec![
            AblationRow {
                instance: false,
                meta: false,
                prompt: false,
                parsing: false,
            },
            AblationRow {
                instance: false,
                meta: false,
                prompt: true,
                parsing: false,
            },
            AblationRow {
                instance: false,
                meta: false,
                prompt: false,
                parsing: true,
            },
            AblationRow {
                instance: false,
                meta: false,
                prompt: true,
                parsing: true,
            },
        ]
    }

    /// The pipeline configuration for this row.
    pub fn config(&self, seed: u64) -> PipelineConfig {
        PipelineConfig {
            instance_retrieval: self.instance,
            meta_retrieval: self.meta,
            prompt_construction: self.prompt,
            context_parsing: self.parsing,
            ..PipelineConfig::paper_default()
        }
        .with_seed(seed)
    }

    /// Checkmark label like "I+M+T+C" (empty set = "none").
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.instance {
            parts.push("I");
        }
        if self.meta {
            parts.push("M");
        }
        if self.prompt {
            parts.push("T");
        }
        if self.parsing {
            parts.push("C");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

fn imputation_ablation(config: ExperimentConfig, dataset: &str, title: &str) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config.cache.attach(
        &format!("ablation-{dataset}-seed{}", config.seed),
        backend.model(),
    );
    let llm = cached.model();
    let ds = match dataset {
        "Restaurant" => imputation::restaurant(&world, config.seed, config.queries),
        _ => imputation::buy(&world, config.seed, config.queries),
    };
    let mut report = TableReport::new(title, vec!["Acc".into()]);
    for row in AblationRow::imputation_rows() {
        let acc = unidm_accuracy(llm, &ds, row.config(config.seed), config.queries);
        report.push(row.label(), vec![acc.percent()]);
    }
    report
}

/// Runs Table 8: imputation ablation on Restaurant.
pub fn table8(config: ExperimentConfig) -> TableReport {
    imputation_ablation(
        config,
        "Restaurant",
        "Table 8. Ablation of UniDM on data imputation (Restaurant). I=instance-wise, \
         M=meta-wise, T=target prompt construction, C=context data parsing.",
    )
}

/// Runs Table 9: imputation ablation on Buy.
pub fn table9(config: ExperimentConfig) -> TableReport {
    imputation_ablation(
        config,
        "Buy",
        "Table 9. Ablation of UniDM on data imputation (Buy). I=instance-wise, M=meta-wise, \
         T=target prompt construction, C=context data parsing.",
    )
}

/// Runs Table 10: transformation ablation (target prompt construction ×
/// context data parsing) on StackOverflow and Bing-QueryLogs.
pub fn table10(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table10-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let datasets = [
        transformation::stackoverflow(&world, config.seed, config.queries),
        transformation::bing_querylogs(&world, config.seed, config.queries),
    ];
    let mut report = TableReport::new(
        "Table 10. Ablation of UniDM on data transformation. T=target prompt construction, \
         C=context data parsing.",
        vec!["StackOverflow".into(), "Bing-QueryLogs".into()],
    );
    for row in AblationRow::transformation_rows() {
        let cells: Vec<f64> = datasets
            .iter()
            .map(|ds| {
                unidm_transform_accuracy(llm, ds, row.config(config.seed), config.queries).percent()
            })
            .collect();
        report.push(row.label(), cells);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_paper_layout() {
        assert_eq!(AblationRow::imputation_rows().len(), 6);
        assert_eq!(AblationRow::transformation_rows().len(), 4);
        assert_eq!(
            AblationRow {
                instance: true,
                meta: true,
                prompt: true,
                parsing: true
            }
            .label(),
            "I+M+T+C"
        );
        assert_eq!(AblationRow::imputation_rows()[0].label(), "none");
    }

    #[test]
    fn table8_full_config_best() {
        let report = table8(ExperimentConfig::quick());
        let none = report.cell("none", "Acc").unwrap();
        let full = report.cell("I+M+T+C", "Acc").unwrap();
        assert!(
            full + 1e-9 >= none,
            "full pipeline should not lose to the bare one: {full} vs {none}"
        );
    }

    #[test]
    fn table10_components_help() {
        let report = table10(ExperimentConfig::quick());
        let none = report.cell("none", "StackOverflow").unwrap();
        let full = report.cell("T+C", "StackOverflow").unwrap();
        assert!(full + 5.0 >= none, "T+C {full} vs none {none}");
    }
}
