//! Table 6 — UniDM imputation accuracy across base LLM variants.

use unidm::PipelineConfig;
use unidm_llm::{LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_world::World;

use crate::imputation::unidm_accuracy;
use crate::report::TableReport;
use crate::ExperimentConfig;

/// Runs Table 6: UniDM on Restaurant and Buy over the model zoo.
pub fn table6(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let datasets = [
        imputation::restaurant(&world, config.seed, config.queries),
        imputation::buy(&world, config.seed, config.queries),
    ];
    let mut report = TableReport::new(
        "Table 6. UniDM accuracy (%) on data imputation with LLM variants.",
        vec!["Restaurant".into(), "Buy".into()],
    );
    for profile in LlmProfile::zoo() {
        let llm = MockLlm::new(&world, profile.clone(), config.seed);
        let backend = config.backend.wrap(&llm);
        let cached = config.cache.attach(
            &format!("table6-{}-seed{}", profile.name, config.seed),
            backend.model(),
        );
        let llm = cached.model();
        let cells: Vec<f64> = datasets
            .iter()
            .map(|ds| {
                unidm_accuracy(
                    llm,
                    ds,
                    PipelineConfig::paper_default().with_seed(config.seed),
                    config.queries,
                )
                .percent()
            })
            .collect();
        report.push(profile.name, cells);
    }
    report
}
