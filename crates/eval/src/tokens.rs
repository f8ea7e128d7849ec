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
    use crate::CacheConfig;
    use unidm::CanonLevel;

    #[test]
    fn cached_per_query_tokens_are_exact_at_verbatim_and_for_fm_above_it() {
        let plain = table7(ExperimentConfig::quick());
        let verbatim = table7(ExperimentConfig::quick().with_cache(CacheConfig {
            level: CanonLevel::Verbatim,
            ..CacheConfig::enabled()
        }));
        // TableStem: a lookup reports the canonical prompt's usage, which
        // moves the UniDM rows (their retrieval preambles fold) but not FM.
        let stem = table7(ExperimentConfig::quick().with_cache(CacheConfig::enabled()));
        for ds in ["Restaurant", "Buy"] {
            for row in ["FM", "UniDM (w/o retrieval)", "UniDM"] {
                assert_eq!(
                    verbatim.cell(row, ds),
                    plain.cell(row, ds),
                    "{row} on {ds}: a Verbatim cache must not move per-run usage"
                );
            }
            assert_eq!(stem.cell("FM", ds), plain.cell("FM", ds), "FM on {ds}");
        }
    }
}
