//! Table 11 — text F1 on the information-extraction task (SWDE NBA).

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::evaporate;
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{extraction, ExtractionDataset};
use unidm_tablestore::DataLake;
use unidm_world::World;

use crate::metrics::text_f1;
use crate::report::TableReport;
use crate::ExperimentConfig;

/// Mean text F1 of the UniDM pipeline over documents × attributes (runs
/// as one batch).
pub fn unidm_f1(
    llm: &dyn LanguageModel,
    ds: &ExtractionDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> f64 {
    let lake = DataLake::new();
    let mut tasks = Vec::new();
    let mut truths: Vec<&String> = Vec::new();
    for (doc, truth) in ds.docs.iter().zip(&ds.truth).take(queries) {
        for attr in &ds.attrs {
            tasks.push(Task::Extraction {
                document: doc.text.clone(),
                attr: attr.clone(),
            });
            truths.push(&truth[attr]);
        }
    }
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    let mut sum = 0.0;
    for (answer, truth) in answers.iter().zip(&truths) {
        let answer = if answer == "unknown" {
            ""
        } else {
            answer.as_str()
        };
        sum += text_f1(answer, truth);
    }
    sum / tasks.len().max(1) as f64
}

/// Mean text F1 of an Evaporate extraction result.
fn evaporate_f1(
    preds: &[std::collections::BTreeMap<String, String>],
    ds: &ExtractionDataset,
    queries: usize,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (pred, truth) in preds.iter().zip(&ds.truth).take(queries) {
        for attr in &ds.attrs {
            let p = pred.get(attr).map(String::as_str).unwrap_or("");
            sum += text_f1(p, &truth[attr]);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Runs Table 11: Evaporate-code, Evaporate-code+, UniDM on NBA players.
pub fn table11(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table11-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let ds = extraction::nba_players(&world, config.seed);
    let q = config.queries.min(ds.len());
    let sample = &ds.docs[..10.min(ds.docs.len())];
    let mut report = TableReport::new(
        "Table 11. Text F1-score (%) on information extraction task (NBA players).",
        vec!["NBA player".into()],
    );
    let single = evaporate::extract_single(sample, &ds.docs, &ds.attrs);
    report.push(
        "Evaporate-code",
        vec![evaporate_f1(&single, &ds, q) * 100.0],
    );
    let ensemble = evaporate::extract_ensemble(sample, &ds.docs, &ds.attrs);
    report.push(
        "Evaporate-code+",
        vec![evaporate_f1(&ensemble, &ds, q) * 100.0],
    );
    report.push(
        "UniDM",
        vec![
            unidm_f1(
                llm,
                &ds,
                PipelineConfig::paper_default().with_seed(config.seed),
                q,
            ) * 100.0,
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table11_shape_holds() {
        let report = table11(ExperimentConfig::quick());
        let single = report.cell("Evaporate-code", "NBA player").unwrap();
        let ensemble = report.cell("Evaporate-code+", "NBA player").unwrap();
        let unidm = report.cell("UniDM", "NBA player").unwrap();
        // The paper's ordering: code < UniDM < code+.
        assert!(ensemble > single, "code+ {ensemble} vs code {single}");
        assert!(unidm > single, "unidm {unidm} vs code {single}");
        assert!(
            ensemble > unidm - 8.0,
            "code+ {ensemble} should rival unidm {unidm}"
        );
    }
}
