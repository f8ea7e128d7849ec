//! Table 3 — F1 on the error detection task.

use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_baselines::{fm, holoclean, holodetect::HoloDetect};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::{errors, ErrorDetectionDataset};
use unidm_tablestore::DataLake;
use unidm_world::World;

use crate::metrics::Confusion;
use crate::report::TableReport;
use crate::ExperimentConfig;

/// F1 of the UniDM pipeline on an error-detection dataset (runs batched
/// across the worker pool).
pub fn unidm_f1(
    llm: &dyn LanguageModel,
    ds: &ErrorDetectionDataset,
    pipeline: PipelineConfig,
    queries: usize,
) -> Confusion {
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let cells = &ds.cells[..queries.min(ds.cells.len())];
    let tasks: Vec<Task> = cells
        .iter()
        .map(|cell| Task::error_detection(ds.table.name(), cell.row, cell.attr.clone()))
        .collect();
    let answers = BatchRunner::new(llm, pipeline).answers(&lake, &tasks);
    let mut c = Confusion::default();
    for (answer, cell) in answers.iter().zip(cells) {
        let predicted = answer.trim().eq_ignore_ascii_case("yes");
        c.record(predicted, cell.is_error);
    }
    c
}

/// F1 of the FM baseline (few-shot demonstrations from the labelled seed).
pub fn fm_f1(
    llm: &dyn LanguageModel,
    ds: &ErrorDetectionDataset,
    queries: usize,
    seed: u64,
) -> Confusion {
    let runner = fm::Fm::new(llm, fm::ContextStrategy::Random, seed);
    // Few-shot demos: two errors and two clean cells from the tail (not the
    // evaluated head).
    let mut demos = Vec::new();
    for cell in ds.cells.iter().rev() {
        let value = ds
            .table
            .cell_value(cell.row, &cell.attr)
            .map(|v| v.to_string())
            .unwrap_or_default();
        if cell.is_error && demos.iter().filter(|(_, _, e)| *e).count() < 2 {
            demos.push((cell.attr.clone(), value, true));
        } else if !cell.is_error && demos.iter().filter(|(_, _, e)| !*e).count() < 2 {
            demos.push((cell.attr.clone(), value, false));
        }
        if demos.len() >= 4 {
            break;
        }
    }
    let mut c = Confusion::default();
    for cell in ds.cells.iter().take(queries) {
        let predicted = runner
            .detect_error(&ds.table, cell.row, &cell.attr, &demos)
            .unwrap_or(false);
        c.record(predicted, cell.is_error);
    }
    c
}

/// Runs Table 3: HoloClean, HoloDetect, FM, UniDM on Hospital and Adult.
pub fn table3(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let backend = config.backend.wrap(&llm);
    let cached = config
        .cache
        .attach(&format!("table3-seed{}", config.seed), backend.model());
    let llm = cached.model();
    let datasets = [
        errors::hospital(&world, config.seed, 0.05),
        errors::adult(&world, config.seed, 250, 0.05),
    ];
    // Error cells are sparse (5%); evaluate enough cells to see them.
    let q = (config.queries * 10).max(400);
    let mut report = TableReport::new(
        "Table 3. F1-score (%) on error detection task with SOTA.",
        vec!["Hospital".into(), "Adult".into()],
    );
    report.push(
        "HoloClean",
        datasets
            .iter()
            .map(|ds| {
                let mut c = Confusion::default();
                for cell in ds.cells.iter().take(q) {
                    let p =
                        holoclean::detect_error(&ds.table, cell.row, &cell.attr).unwrap_or(false);
                    c.record(p, cell.is_error);
                }
                c.f1() * 100.0
            })
            .collect(),
    );
    report.push(
        "HoloDetect",
        datasets
            .iter()
            .map(|ds| {
                // Few-shot seed: a stratified mix — labelled cells are
                // ordered errors-first, so take some of each end.
                let seed: Vec<_> = ds
                    .cells
                    .iter()
                    .take(30)
                    .chain(ds.cells.iter().rev().take(70))
                    .map(|c| (c.row, c.attr.clone(), c.is_error))
                    .collect();
                let model = HoloDetect::fit(&ds.table, &ds.attrs, &seed).expect("fit");
                let mut c = Confusion::default();
                for cell in ds.cells.iter().take(q) {
                    let p = model
                        .detect(&ds.table, cell.row, &cell.attr)
                        .unwrap_or(false);
                    c.record(p, cell.is_error);
                }
                c.f1() * 100.0
            })
            .collect(),
    );
    report.push(
        "FM",
        datasets
            .iter()
            .map(|ds| fm_f1(llm, ds, q, config.seed).f1() * 100.0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        let report = table3(ExperimentConfig::quick());
        for ds in ["Hospital", "Adult"] {
            let unidm = report.cell("UniDM", ds).unwrap();
            let holoclean = report.cell("HoloClean", ds).unwrap();
            let holodetect = report.cell("HoloDetect", ds).unwrap();
            assert!(
                unidm > holoclean,
                "{ds}: unidm {unidm} vs holoclean {holoclean}"
            );
            assert!(
                unidm + 12.0 >= holodetect,
                "{ds}: unidm {unidm} vs holodetect {holodetect}"
            );
            assert!(unidm > 70.0, "{ds}: unidm too weak {unidm}");
        }
    }
}
