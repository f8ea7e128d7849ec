//! Imputation and error-detection tasks re-driven step by step through
//! the program's public step functions, with a span around each step.
//!
//! `UniDm::run` composes the same five calls privately; driving them from
//! here is how a traced run attributes a task's time to `retrieval`,
//! `parsing` and `prompting` without spans inside the program. The answer
//! must equal `UniDm::run`'s, which the callers check.

use unidm::{parsing, prompting, retrieval, PipelineConfig, Task, UniDmError};
use unidm_llm::protocol::{claim_query_imputation, Claim, SerializedRecord, TaskKind};
use unidm_llm::LanguageModel;
use unidm_tablestore::{DataLake, Table};

use crate::trace::Tracer;

/// What one stepped task produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stepped {
    /// The final answer.
    pub answer: String,
    /// Context records instance-wise retrieval kept.
    pub records_kept: usize,
}

/// The target record as the pipeline serializes it: every non-empty cell
/// of the row but the attribute under imputation.
fn target_record(table: &Table, row: usize, attr: &str) -> Result<SerializedRecord, UniDmError> {
    let record = table.row_at(row)?;
    let mut pairs = Vec::new();
    for (i, name) in table.schema().names().enumerate() {
        let value = record.get(i).map(|v| v.to_string()).unwrap_or_default();
        if name.eq_ignore_ascii_case(attr) || value.is_empty() {
            continue;
        }
        pairs.push((name.to_string(), value));
    }
    Ok(SerializedRecord::new(pairs))
}

/// Drives `task` through meta-wise retrieval, instance-wise retrieval,
/// context parsing, target-prompt construction and answering, one span
/// each under a `pipeline.steps` span for operation `op`. Task kinds that
/// do not run all five steps over a table return `None`.
pub fn drive(
    tracer: &Tracer,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    lake: &DataLake,
    task: &Task,
    op: u64,
) -> Option<Result<Stepped, UniDmError>> {
    let (kind, table, row, attr, key_attr) = match task {
        Task::Imputation {
            table,
            row,
            attr,
            key_attr,
        } => (TaskKind::Imputation, table, *row, attr, Some(key_attr)),
        Task::ErrorDetection { table, row, attr } => {
            (TaskKind::ErrorDetection, table, *row, attr, None)
        }
        _ => return None,
    };
    Some(tracer.span("pipeline.steps", op, || {
        let table = lake.require(table)?;
        let (meta_query, query, key_attr) = match key_attr {
            Some(key_attr) => {
                table.schema().require(attr)?;
                let record = target_record(table, row, attr)?;
                let key = record.get(key_attr).unwrap_or_default().to_string();
                (
                    format!("{key}, {attr}"),
                    claim_query_imputation(&record, attr),
                    key_attr.clone(),
                )
            }
            None => {
                let value = table.cell_value(row, attr)?.to_string();
                let query = format!("{attr}: {value}?");
                let first = table.schema().names().next().unwrap_or(attr).to_string();
                (query.clone(), query, first)
            }
        };
        let attrs = tracer.span("retrieval.meta_wise", op, || {
            retrieval::meta_wise(llm, config, kind, &meta_query, table, attr)
        })?;
        let context = tracer.span("retrieval.instance_wise", op, || {
            retrieval::instance_wise(
                llm,
                config,
                kind,
                &query,
                table,
                Some(row),
                &attrs,
                attr,
                &key_attr,
            )
        })?;
        let context_text = tracer.span("parsing.parse_context", op, || {
            parsing::parse_context(llm, config, &context.records)
        })?;
        let claim = Claim {
            task: kind,
            context: context_text,
            query,
        };
        let target_prompt = tracer.span("prompting.build_target_prompt", op, || {
            prompting::build_target_prompt(llm, config, &claim)
        })?;
        let answer = tracer.span("prompting.answer", op, || {
            prompting::answer(llm, &target_prompt)
        })?;
        Ok(Stepped {
            answer,
            records_kept: context.records.len(),
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm::UniDm;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    use crate::gen::scenario_group;
    use crate::trace::by_name;

    #[test]
    fn stepped_answers_equal_unidm_run_and_every_step_is_spanned() {
        let world = World::generate(9);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 9);
        let config = PipelineConfig::paper_default().with_seed(9);
        let unidm = UniDm::new(&llm, config);
        let tracer = Tracer::new(true);
        let mut stepped = 0u64;
        // Restaurant imputation, Hospital error detection, and a kind the
        // stepper leaves alone.
        for index in [0usize, 2, 1] {
            let group = scenario_group(&world, 9, index, 8);
            for task in &group.tasks {
                match drive(&tracer, &llm, &config, &group.lake, task, stepped) {
                    Some(result) => {
                        let want = unidm.run(&group.lake, task).unwrap();
                        assert_eq!(result.unwrap().answer, want.answer, "{}", group.scenario);
                        stepped += 1;
                    }
                    None => assert_eq!(index, 1, "only transformation is skipped"),
                }
            }
        }
        assert_eq!(stepped, 16);
        let names = by_name(&tracer.spans());
        for step in [
            "pipeline.steps",
            "retrieval.meta_wise",
            "retrieval.instance_wise",
            "parsing.parse_context",
            "prompting.build_target_prompt",
            "prompting.answer",
        ] {
            assert_eq!(names[step].count, stepped, "{step}");
        }
    }
}
