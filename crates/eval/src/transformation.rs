//! Table 2 — accuracy on the data transformation task.

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::{fm, tde};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{transformation, TransformationDataset};
use unidm_tablestore::DataLake;
use unidm_world::World;

use crate::metrics::Accuracy;
use crate::report::TableReport;
use crate::ExperimentConfig;

/// Exact-match accuracy of the UniDM pipeline on a transformation dataset
/// (runs batched across the worker pool).
pub fn unidm_accuracy(
    llm: &dyn LanguageModel,
    ds: &TransformationDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> Accuracy {
    let lake = DataLake::new();
    let cases = &ds.cases[..queries.min(ds.cases.len())];
    let tasks: Vec<Task> = cases
        .iter()
        .map(|case| Task::Transformation {
            examples: case.examples.clone(),
            input: case.input.clone(),
        })
        .collect();
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    let mut acc = Accuracy::default();
    for (answer, case) in answers.iter().zip(cases) {
        acc.record(*answer == case.truth);
    }
    acc
}

/// Exact-match accuracy of the FM baseline.
pub fn fm_accuracy(
    llm: &dyn LanguageModel,
    ds: &TransformationDataset,
    queries: usize,
    seed: u64,
) -> Accuracy {
    let runner = fm::Fm::new(llm, fm::ContextStrategy::Random, seed);
    let mut acc = Accuracy::default();
    for case in ds.cases.iter().take(queries) {
        let answer = runner
            .transform(&case.examples, &case.input)
            .unwrap_or_default();
        acc.record(answer == case.truth);
    }
    acc
}

/// Exact-match accuracy of TDE.
pub fn tde_accuracy(ds: &TransformationDataset, queries: usize) -> Accuracy {
    let mut acc = Accuracy::default();
    for case in ds.cases.iter().take(queries) {
        acc.record(tde::transform(&case.examples, &case.input) == case.truth);
    }
    acc
}

/// Runs Table 2: TDE, FM, UniDM on StackOverflow and Bing-QueryLogs.
pub fn table2(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table2-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let datasets = [
        transformation::stackoverflow(&world, config.seed, config.queries),
        transformation::bing_querylogs(&world, config.seed, config.queries),
    ];
    let mut report = TableReport::new(
        "Table 2. Accuracy (%) on data transformation task with SOTA.",
        vec!["StackOverflow".into(), "Bing-QueryLogs".into()],
    );
    let q = config.queries;
    report.push(
        "TDE",
        datasets
            .iter()
            .map(|ds| tde_accuracy(ds, q).percent())
            .collect(),
    );
    report.push(
        "FM",
        datasets
            .iter()
            .map(|ds| fm_accuracy(llm, ds, q, config.seed).percent())
            .collect(),
    );
    report.push(
        "UniDM",
        datasets
            .iter()
            .map(|ds| {
                unidm_accuracy(
                    llm,
                    ds,
                    PipelineConfig::paper_default().with_seed(config.seed),
                    q,
                )
                .percent()
            })
            .collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let report = table2(ExperimentConfig::quick());
        let tde_so = report.cell("TDE", "StackOverflow").unwrap();
        let tde_bing = report.cell("TDE", "Bing-QueryLogs").unwrap();
        let unidm_so = report.cell("UniDM", "StackOverflow").unwrap();
        let unidm_bing = report.cell("UniDM", "Bing-QueryLogs").unwrap();
        // TDE collapses on the semantic-heavy dataset; UniDM stays ahead of
        // TDE on both.
        assert!(tde_so > tde_bing, "TDE SO {tde_so} vs Bing {tde_bing}");
        assert!(unidm_so > tde_so, "UniDM {unidm_so} vs TDE {tde_so}");
        assert!(
            unidm_bing > tde_bing,
            "UniDM {unidm_bing} vs TDE {tde_bing}"
        );
    }
}
