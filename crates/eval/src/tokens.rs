//! Table 7 — per-query token consumption.

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::fm;
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{imputation, ImputationDataset};
use unidm_world::World;

use crate::report::TableReport;
use crate::ExperimentConfig;

/// Mean tokens per query for the UniDM pipeline.
///
/// Per-run cost comes from each run's own [`unidm::RunOutput`] meter, so
/// the figure is exact even though the batch executes in parallel against
/// the shared model.
pub fn unidm_tokens(
    llm: &dyn LanguageModel,
    ds: &ImputationDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> f64 {
    let lake: unidm_tablestore::DataLake = [ds.table.clone()].into_iter().collect();
    let tasks: Vec<Task> = ds
        .targets
        .iter()
        .take(queries)
        .map(|t| {
            Task::imputation(
                ds.table.name(),
                t.row,
                ds.target_attr.clone(),
                ds.key_attr.clone(),
            )
        })
        .collect();
    let outputs = BatchRunner::new(llm, pipeline).run(&lake, &tasks);
    let mut total = 0usize;
    let mut n = 0usize;
    for out in outputs.into_iter().flatten() {
        total += out.usage.total();
        n += 1;
    }
    total as f64 / n.max(1) as f64
}

/// Mean tokens per query for the FM baseline.
pub fn fm_tokens(
    llm: &dyn LanguageModel,
    ds: &ImputationDataset,
    queries: usize,
    seed: u64,
) -> f64 {
    let runner = fm::Fm::new(llm, fm::ContextStrategy::Manual, seed);
    let mut total = 0usize;
    let mut n = 0usize;
    for t in ds.targets.iter().take(queries) {
        let before = llm.usage().total();
        if runner.impute(&ds.table, t.row, &ds.target_attr).is_ok() {
            total += llm.usage().total() - before;
            n += 1;
        }
    }
    total as f64 / n.max(1) as f64
}

/// Runs Table 7: token consumption of FM, UniDM without retrieval, and full
/// UniDM on Restaurant and Buy.
pub fn table7(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table7-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let q = config.queries.min(40);
    let datasets = [
        imputation::restaurant(&world, config.seed, q),
        imputation::buy(&world, config.seed, q),
    ];
    let mut report = TableReport::new(
        "Table 7. Token consumption (per-query) comparison with FM.",
        vec!["Restaurant".into(), "Buy".into()],
    );
    report.push(
        "FM",
        datasets
            .iter()
            .map(|ds| fm_tokens(llm, ds, q, config.seed))
            .collect(),
    );
    report.push(
        "UniDM (w/o retrieval)",
        datasets
            .iter()
            .map(|ds| {
                unidm_tokens(
                    llm,
                    ds,
                    PipelineConfig::random_context().with_seed(config.seed),
                    q,
                )
            })
            .collect(),
    );
    report.push(
        "UniDM",
        datasets
            .iter()
            .map(|ds| {
                unidm_tokens(
                    llm,
                    ds,
                    PipelineConfig::paper_default().with_seed(config.seed),
                    q,
                )
            })
            .collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_shape_holds() {
        let report = table7(ExperimentConfig::quick());
        for ds in ["Restaurant", "Buy"] {
            let fm = report.cell("FM", ds).unwrap();
            let no_retrieval = report.cell("UniDM (w/o retrieval)", ds).unwrap();
            let full = report.cell("UniDM", ds).unwrap();
            // The paper's ordering: FM ≪ UniDM w/o retrieval ≪ UniDM, with
            // the full pipeline an order of magnitude above FM.
            assert!(
                fm < no_retrieval,
                "{ds}: fm {fm} vs w/o retrieval {no_retrieval}"
            );
            assert!(no_retrieval < full, "{ds}: {no_retrieval} vs full {full}");
            assert!(full > fm * 5.0, "{ds}: full {full} should dwarf fm {fm}");
        }
    }
}
