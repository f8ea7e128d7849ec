//! Table 4 — F1 on the entity resolution task.

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::{ditto::Ditto, fm, magellan::Magellan};
use unidm_llm::protocol::SerializedRecord;
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{matching, MatchingDataset};
use unidm_tablestore::{DataLake, Record, Schema};
use unidm_world::World;

use crate::metrics::Confusion;
use crate::report::TableReport;
use crate::ExperimentConfig;

/// Converts a record to the serialized form prompts use.
pub fn to_serialized(schema: &Schema, record: &Record) -> SerializedRecord {
    SerializedRecord::new(
        schema
            .names()
            .zip(record.values())
            .filter(|(_, v)| !v.is_null())
            .map(|(a, v)| (a.to_string(), v.to_string()))
            .collect(),
    )
}

/// F1 of the UniDM pipeline on an ER dataset (runs as one batch).
pub fn unidm_f1(
    llm: &dyn LanguageModel,
    ds: &MatchingDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> Confusion {
    let lake = DataLake::new();
    // Demonstration pool: a slice of the labelled training pairs.
    let pool: Vec<(SerializedRecord, SerializedRecord, bool)> = ds
        .train
        .iter()
        .take(40)
        .map(|p| {
            (
                to_serialized(&ds.schema, &p.a),
                to_serialized(&ds.schema, &p.b),
                p.is_match,
            )
        })
        .collect();
    let pairs = &ds.pairs[..queries.min(ds.pairs.len())];
    let tasks: Vec<Task> = pairs
        .iter()
        .map(|pair| Task::EntityResolution {
            a: to_serialized(&ds.schema, &pair.a),
            b: to_serialized(&ds.schema, &pair.b),
            pool: pool.clone(),
        })
        .collect();
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    let mut c = Confusion::default();
    for (answer, pair) in answers.iter().zip(pairs) {
        c.record(answer.trim().eq_ignore_ascii_case("yes"), pair.is_match);
    }
    c
}

/// F1 of the FM baseline on an ER dataset.
pub fn fm_f1(
    llm: &dyn LanguageModel,
    ds: &MatchingDataset,
    strategy: fm::ContextStrategy,
    queries: usize,
    seed: u64,
) -> Confusion {
    let runner = fm::Fm::new(llm, strategy, seed);
    let pool: Vec<(SerializedRecord, SerializedRecord, bool)> = ds
        .train
        .iter()
        .take(40)
        .map(|p| {
            (
                to_serialized(&ds.schema, &p.a),
                to_serialized(&ds.schema, &p.b),
                p.is_match,
            )
        })
        .collect();
    let mut c = Confusion::default();
    for pair in ds.pairs.iter().take(queries) {
        let predicted = runner
            .resolve(
                &to_serialized(&ds.schema, &pair.a),
                &to_serialized(&ds.schema, &pair.b),
                &pool,
            )
            .unwrap_or(false);
        c.record(predicted, pair.is_match);
    }
    c
}

/// Runs Table 4: Magellan, Ditto, FM (random/manual), UniDM on the four
/// Magellan-benchmark datasets.
pub fn table4(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table4-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let datasets = [
        matching::beer(&world, config.seed),
        matching::amazon_google(&world, config.seed),
        matching::itunes_amazon(&world, config.seed),
        matching::walmart_amazon(&world, config.seed),
    ];
    let mut report = TableReport::new(
        "Table 4. F1-score (%) on entity resolution task with SOTA.",
        vec![
            "Beer".into(),
            "Amazon-Google".into(),
            "iTunes-Amazon".into(),
            "Walmart-Amazon".into(),
        ],
    );
    let q = config.queries.max(60);
    report.push(
        "Magellan",
        datasets
            .iter()
            .map(|ds| {
                let model = Magellan::train(&ds.train);
                let mut c = Confusion::default();
                for p in ds.pairs.iter().take(q) {
                    c.record(model.matches(&p.a, &p.b), p.is_match);
                }
                c.f1() * 100.0
            })
            .collect(),
    );
    report.push(
        "Ditto",
        datasets
            .iter()
            .map(|ds| {
                let model = Ditto::train(&ds.train);
                let mut c = Confusion::default();
                for p in ds.pairs.iter().take(q) {
                    c.record(model.matches(&p.a, &p.b), p.is_match);
                }
                c.f1() * 100.0
            })
            .collect(),
    );
    report.push(
        "FM (random)",
        datasets
            .iter()
            .map(|ds| fm_f1(llm, ds, fm::ContextStrategy::Random, q, config.seed).f1() * 100.0)
            .collect(),
    );
    report.push(
        "FM (manual)",
        datasets
            .iter()
            .map(|ds| fm_f1(llm, ds, fm::ContextStrategy::Manual, q, config.seed).f1() * 100.0)
            .collect(),
    );
    report.push(
        "UniDM",
        datasets
            .iter()
            .map(|ds| {
                unidm_f1(
                    llm,
                    ds,
                    PipelineConfig::paper_default().with_seed(config.seed),
                    q,
                )
                .f1()
                    * 100.0
            })
            .collect(),
    );
    report
}
