//! Table 1 — accuracy on the data imputation task.

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::{cmi::Cmi, fm, holoclean, imp::Imp};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{imputation, ImputationDataset};
use unidm_tablestore::DataLake;
use unidm_world::World;

use crate::metrics::{answers_match, Accuracy};
use crate::report::TableReport;
use crate::ExperimentConfig;

/// Accuracy of the UniDM pipeline on an imputation dataset (runs batched
/// across the worker pool).
pub fn unidm_accuracy(
    llm: &dyn LanguageModel,
    ds: &ImputationDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> Accuracy {
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let targets = &ds.targets[..queries.min(ds.targets.len())];
    let tasks: Vec<Task> = targets
        .iter()
        .map(|t| {
            Task::imputation(
                ds.table.name(),
                t.row,
                ds.target_attr.clone(),
                ds.key_attr.clone(),
            )
        })
        .collect();
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    let mut acc = Accuracy::default();
    for (answer, t) in answers.iter().zip(targets) {
        acc.record(answers_match(answer, &t.truth.to_string()));
    }
    acc
}

/// Accuracy of the FM baseline on an imputation dataset.
pub fn fm_accuracy(
    llm: &dyn LanguageModel,
    ds: &ImputationDataset,
    strategy: fm::ContextStrategy,
    queries: usize,
    seed: u64,
) -> Accuracy {
    let runner = fm::Fm::new(llm, strategy, seed);
    let mut acc = Accuracy::default();
    for t in ds.targets.iter().take(queries) {
        let answer = runner
            .impute(&ds.table, t.row, &ds.target_attr)
            .unwrap_or_default();
        acc.record(answers_match(&answer, &t.truth.to_string()));
    }
    acc
}

/// Accuracy of a `fn(row) -> String` imputer on a dataset.
fn classic_accuracy(
    ds: &ImputationDataset,
    queries: usize,
    mut impute: impl FnMut(usize) -> String,
) -> Accuracy {
    let mut acc = Accuracy::default();
    for t in ds.targets.iter().take(queries) {
        acc.record(answers_match(&impute(t.row), &t.truth.to_string()));
    }
    acc
}

/// Runs Table 1: HoloClean, CMI, IMP, FM (random/manual), UniDM
/// (random/full) on Restaurant and Buy.
pub fn table1(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table1-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let datasets = [
        imputation::restaurant(&world, config.seed, config.queries),
        imputation::buy(&world, config.seed, config.queries),
    ];
    let mut report = TableReport::new(
        "Table 1. Accuracy (%) on data imputation task with SOTA.",
        vec!["Restaurant".into(), "Buy".into()],
    );
    let q = config.queries;

    let row = |name: &str,
               f: &mut dyn FnMut(&ImputationDataset) -> Accuracy,
               report: &mut TableReport| {
        let cells: Vec<f64> = datasets.iter().map(|ds| f(ds).percent()).collect();
        report.push(name, cells);
    };

    row(
        "HoloClean",
        &mut |ds| {
            classic_accuracy(ds, q, |r| {
                holoclean::impute(&ds.table, r, &ds.target_attr).unwrap_or_default()
            })
        },
        &mut report,
    );
    row(
        "CMI",
        &mut |ds| {
            let model =
                Cmi::fit(&ds.table, &ds.target_attr, None, config.seed).expect("valid dataset");
            classic_accuracy(ds, q, |r| {
                model
                    .impute(&ds.table, r, &ds.target_attr)
                    .unwrap_or_default()
            })
        },
        &mut report,
    );
    row(
        "IMP",
        &mut |ds| {
            let model = Imp::fit(&ds.table, &ds.target_attr, 9).expect("valid dataset");
            classic_accuracy(ds, q, |r| model.impute(r).unwrap_or_default())
        },
        &mut report,
    );
    row(
        "FM (random)",
        &mut |ds| fm_accuracy(llm, ds, fm::ContextStrategy::Random, q, config.seed),
        &mut report,
    );
    row(
        "FM (manual)",
        &mut |ds| fm_accuracy(llm, ds, fm::ContextStrategy::Manual, q, config.seed),
        &mut report,
    );
    row(
        "UniDM (random)",
        &mut |ds| {
            unidm_accuracy(
                llm,
                ds,
                PipelineConfig::random_context().with_seed(config.seed),
                q,
            )
        },
        &mut report,
    );
    row(
        "UniDM",
        &mut |ds| {
            unidm_accuracy(
                llm,
                ds,
                PipelineConfig::paper_default().with_seed(config.seed),
                q,
            )
        },
        &mut report,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    /// Byte length of every store file under `dir`, by file name. A rerun
    /// that leaves these unchanged made no model call: every completion
    /// the model returns is offered to the (unbounded) store and appended.
    fn store_sizes(dir: &std::path::Path) -> std::collections::BTreeMap<String, u64> {
        std::fs::read_dir(dir)
            .expect("store dir exists")
            .map(|entry| {
                let entry = entry.unwrap();
                (
                    entry.file_name().to_string_lossy().into_owned(),
                    entry.metadata().unwrap().len(),
                )
            })
            .collect()
    }

    #[test]
    fn table1_with_cache_warm_starts_and_reproduces_itself() {
        let dir = std::env::temp_dir().join(format!("unidm-table1-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::quick().with_cache(CacheConfig {
            store_dir: Some(dir.clone()),
            ..CacheConfig::enabled()
        });

        let cold = table1(config.clone());
        let after_cold = store_sizes(&dir);
        let warm = table1(config.clone());
        for ds in ["Restaurant", "Buy"] {
            for row in ["UniDM", "UniDM (random)", "FM (random)", "FM (manual)"] {
                assert_eq!(
                    cold.cell(row, ds),
                    warm.cell(row, ds),
                    "{row}/{ds}: a warm-started rerun must reproduce the cold run"
                );
            }
            let unidm = cold.cell("UniDM", ds).unwrap();
            let holoclean = cold.cell("HoloClean", ds).unwrap();
            assert!(
                unidm > holoclean,
                "{ds}: cached UniDM must stay ahead of HoloClean: {unidm} vs {holoclean}"
            );
        }
        assert!(
            after_cold["table1-seed42.udmstore"] > 0,
            "store persisted per scenario"
        );
        assert_eq!(store_sizes(&dir), after_cold, "the rerun is model-free");

        // Table 6 runs one model per variant: each needs its own
        // model-guarded file for its rerun to start warm.
        let cold = crate::zoo::table6(config.clone());
        let after_cold = store_sizes(&dir);
        let warm = crate::zoo::table6(config);
        assert_eq!(cold, warm, "a warm-started rerun reproduces Table 6");
        for profile in unidm_llm::LlmProfile::zoo() {
            let file = format!("table6-{}-seed42.udmstore", profile.name);
            assert!(
                after_cold.get(&file).is_some_and(|len| *len > 0),
                "{file}: every variant persists its own store"
            );
        }
        assert_eq!(
            store_sizes(&dir),
            after_cold,
            "every variant's rerun is model-free"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table1_under_routed_backend_reproduces_plain_cells() {
        // A replica fleet with per-endpoint breakers and fault injection
        // must leave every LLM-backed cell byte-identical: routing spreads
        // traffic but never changes answers.
        use unidm::route::RoutePlan;
        use unidm_llm::FaultPlan;

        use crate::BackendConfig;

        let plain = table1(ExperimentConfig::quick());
        let routed_config = ExperimentConfig::quick().with_backend(
            BackendConfig::resilient(42)
                .with_faults(FaultPlan::moderate(42))
                .with_route(RoutePlan::replicas(3)),
        );
        let routed = table1(routed_config);
        for ds in ["Restaurant", "Buy"] {
            for row in ["UniDM", "UniDM (random)", "FM (random)", "FM (manual)"] {
                assert_eq!(
                    plain.cell(row, ds),
                    routed.cell(row, ds),
                    "{row}/{ds}: routed fleet must reproduce the direct run"
                );
            }
        }
    }

    #[test]
    fn table1_shape_holds() {
        let report = table1(ExperimentConfig::quick());
        // Paper orderings that must survive: UniDM tops the chart, the
        // statistical baseline trails everything, FM(manual) ≥ FM(random).
        for ds in ["Restaurant", "Buy"] {
            let unidm = report.cell("UniDM", ds).unwrap();
            let holoclean = report.cell("HoloClean", ds).unwrap();
            let fm_rand = report.cell("FM (random)", ds).unwrap();
            let fm_man = report.cell("FM (manual)", ds).unwrap();
            assert!(
                unidm > holoclean,
                "{ds}: unidm {unidm} vs holoclean {holoclean}"
            );
            assert!(
                unidm + 1e-9 >= fm_rand,
                "{ds}: unidm {unidm} vs fm-random {fm_rand}"
            );
            assert!(
                fm_man + 10.0 >= fm_rand,
                "{ds}: manual {fm_man} vs random {fm_rand}"
            );
        }
    }
}
