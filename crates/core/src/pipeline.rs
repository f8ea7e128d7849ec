//! The UniDM pipeline: Algorithm 1 of the paper, written once.
//!
//! [`UniDm::run`] is the whole procedure for all seven task kinds. A task
//! is first lowered (`task.rs`) to the unified form of paper §3 — the kind
//! `T`, the claim query `Q`, and the source step 1 reads its candidates
//! from — and then goes through the same steps whatever its kind:
//! meta-wise retrieval, instance-wise retrieval, context parsing, claim,
//! target prompt, answer. A step is skipped when the *source* has nothing
//! for it (a labelled pool has no attributes to pick among; text the task
//! brought needs neither retrieval nor parsing), never because of the
//! kind, so this file does not match on [`Task`].
//!
//! A [`UniDm`] holds a `&dyn LanguageModel`, so the whole pipeline composes
//! with the execution substrates in [`crate::exec`]: hand it a
//! [`crate::PromptCache`] to deduplicate the retrieval/parsing prompts
//! shared across runs, and drive many runs at once with
//! [`crate::BatchRunner`]. Per-run token cost is metered locally (see
//! [`UniDm::run`]), so neither caching nor scheduling changes what a run
//! reports.
//!
//! A `UniDm` also owns the record frame (`frame.rs`): what it has
//! serialized of a table (or of an entity-resolution pool) for one task it
//! reuses for the next, without ever changing a prompt.

use unidm_llm::protocol::Claim;
use unidm_llm::{LanguageModel, Usage, UsageMeter};
use unidm_tablestore::DataLake;

use crate::frame::{FrameRow, Frames};
use crate::retrieval::{instance_wise_in, meta_wise, score_candidates};
use crate::task::{demonstrations, versus, Source, Task, Unified};
use crate::{parsing, prompting, PipelineConfig, UniDmError};

/// What the pipeline did on one run — retrieved attributes and records, the
/// parsed context, the final prompt. Useful for debugging and for the
/// paper's worked examples (appendix B).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Attributes selected by meta-wise retrieval.
    pub selected_attrs: Vec<String>,
    /// Retrieved context records, serialized.
    pub context_records: Vec<String>,
    /// The context text fed into the claim (`C'` or `V`).
    pub context_text: String,
    /// The final target prompt (`p_as`).
    pub target_prompt: String,
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// The model's answer `Y`.
    pub answer: String,
    /// Tokens consumed by this run (all pipeline calls included).
    pub usage: Usage,
    /// The run trace.
    pub trace: Trace,
}

/// The UniDM pipeline bound to a language model and a configuration.
#[derive(Clone)]
pub struct UniDm<'a> {
    llm: &'a dyn LanguageModel,
    config: PipelineConfig,
    frames: Frames,
}

impl std::fmt::Debug for UniDm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniDm")
            .field("llm", &self.llm.name())
            .field("config", &self.config)
            .finish()
    }
}

impl<'a> UniDm<'a> {
    /// Creates a pipeline.
    pub fn new(llm: &'a dyn LanguageModel, config: PipelineConfig) -> Self {
        UniDm {
            llm,
            config,
            frames: Frames::default(),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The record frame's footprint for the table named `table`: the
    /// [`unidm_tablestore::Table::version`] its rows were serialized at
    /// and how many rows each projection holds. `None` until a run has
    /// sampled the table.
    pub fn frame_rows(&self, table: &str) -> Option<(u64, Vec<usize>)> {
        self.frames.footprint(table)
    }

    /// Runs the pipeline on `task` over `lake` (Algorithm 1).
    ///
    /// Per-run token cost is metered locally: every LLM call of this run
    /// goes through a fresh [`UsageMeter`] that sums the per-call usage
    /// reported inside each [`unidm_llm::Completion`]. The shared model's
    /// cumulative counter is never read, so concurrent runs against one
    /// model each report exactly their own cost.
    ///
    /// # Errors
    ///
    /// Returns [`UniDmError::InvalidTask`] for references outside the lake,
    /// and propagates LLM/table errors.
    pub fn run(&self, lake: &DataLake, task: &Task) -> Result<RunOutput, UniDmError> {
        let meter = UsageMeter::new(self.llm);
        let llm: &dyn LanguageModel = &meter;
        let config = &self.config;
        let Unified {
            kind,
            query,
            source,
        } = task.lower(lake, config.seed)?;

        // Step 1 — context retrieval, over whatever the source offers to
        // choose among. A kept record is its frame row's rendered line
        // from here on: nothing below renders or clones a record.
        let (selected_attrs, context_records, brought) = match source {
            Source::Table {
                table,
                meta_query,
                exclude_row,
                roles,
            } => {
                let meta_query = meta_query.as_deref().unwrap_or(&query);
                let target = roles.map_or("", |(target, _)| target);
                let attrs = meta_wise(llm, config, kind, meta_query, table, target)?;
                // A task that names no target and key (table QA) takes the
                // last and the first pick.
                let picks = attrs.last().zip(attrs.first());
                let (target, key) = roles
                    .or(picks.map(|(last, first)| (last.as_str(), first.as_str())))
                    .ok_or_else(|| {
                        UniDmError::InvalidTask("no attributes selected for table QA".into())
                    })?;
                let records = instance_wise_in(
                    &self.frames,
                    llm,
                    config,
                    kind,
                    &query,
                    table,
                    exclude_row,
                    &attrs,
                    target,
                    key,
                    line,
                )?;
                (attrs, records, None)
            }
            Source::Pool { pool, pair } => {
                let demos = self
                    .frames
                    .demos(pool, || demonstrations(pool, config.seed));
                let records = if demos.is_empty() {
                    Vec::new()
                } else if config.instance_retrieval {
                    // Entity pairs are long: scoring respects the context
                    // window.
                    let sampled = &demos[..config.sample_size.min(demos.len())];
                    let query = versus(&pair.0, &pair.1);
                    let kept = score_candidates(llm, config, kind, &query, sampled)?;
                    kept.into_iter().map(|at| line(&sampled[at])).collect()
                } else {
                    demos.iter().take(config.top_k).map(line).collect()
                };
                (Vec::new(), records, None)
            }
            Source::Records(records) => (Vec::new(), records, None),
            Source::Text(text) => (Vec::new(), Vec::new(), Some(text)),
        };

        // Step 2 — context parsing; text the task brought is its own `C'`.
        let context = match brought {
            Some(text) => text,
            None => parsing::parse_lines(llm, config, &context_records)?,
        };

        // Step 3 — the claim `(T, C', Q)`, its target prompt, the answer.
        let claim = Claim {
            task: kind,
            context,
            query,
        };
        let target_prompt = prompting::build_target_prompt(llm, config, &claim)?;
        let answer = prompting::answer(llm, &target_prompt)?;
        Ok(RunOutput {
            answer,
            usage: meter.used(),
            trace: Trace {
                selected_attrs,
                context_records,
                context_text: claim.context,
                target_prompt,
            },
        })
    }
}

/// A kept row as the rest of a run holds it: its rendered line.
fn line(kept: &FrameRow) -> String {
    kept.line.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_synthdata::{imputation, tableqa};
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    #[test]
    fn imputation_end_to_end() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 20);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let mut correct = 0;
        for t in &ds.targets {
            let task = Task::imputation("restaurants", t.row, "city", "name");
            let out = unidm.run(&lake, &task).unwrap();
            if out.answer.to_lowercase() == t.truth.to_string().to_lowercase() {
                correct += 1;
            }
        }
        assert!(
            correct >= 15,
            "GPT-4-level pipeline should be strong: {correct}/20"
        );
    }

    #[test]
    fn trace_records_pipeline_steps() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 5);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let out = unidm
            .run(
                &lake,
                &Task::imputation("restaurants", ds.targets[0].row, "city", "name"),
            )
            .unwrap();
        assert!(!out.trace.selected_attrs.is_empty());
        assert_eq!(out.trace.context_records.len(), 3);
        assert!(out.trace.target_prompt.contains("__"));
        assert!(out.usage.total() > 0);
    }

    #[test]
    fn transformation_end_to_end() {
        let (_, llm) = setup();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let task = Task::Transformation {
            examples: vec![
                ("20000101".into(), "2000-01-01".into()),
                ("19991231".into(), "1999-12-31".into()),
            ],
            input: "20210315".into(),
        };
        let out = unidm.run(&DataLake::new(), &task).unwrap();
        assert_eq!(out.answer, "2021-03-15");
    }

    #[test]
    fn tableqa_end_to_end() {
        let (world, llm) = setup();
        let ds = tableqa::medals(&world, 3, 8, 5);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let mut correct = 0;
        for q in &ds.questions {
            let task = Task::TableQa {
                table: "medals".into(),
                question: q.question.clone(),
            };
            let out = unidm.run(&lake, &task).unwrap();
            if out.answer == q.answer.to_string() {
                correct += 1;
            }
        }
        assert!(correct >= 3, "tableqa correct {correct}/5");
    }

    #[test]
    fn join_discovery_end_to_end() {
        let (_, llm) = setup();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let task = Task::JoinDiscovery {
            left_name: "fifa_ranking.country_abrv".into(),
            left_values: vec!["GER".into(), "ITA".into(), "FRA".into(), "ESP".into()],
            right_name: "countries.ISO".into(),
            right_values: vec!["GER".into(), "ITA".into(), "FRA".into(), "IND".into()],
        };
        let out = unidm.run(&DataLake::new(), &task).unwrap();
        assert!(out.answer.starts_with("Yes"), "{}", out.answer);
    }

    #[test]
    fn extraction_end_to_end() {
        let (world, llm) = setup();
        let ds = unidm_synthdata::extraction::nba_players(&world, 3);
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let doc = &ds.docs[0];
        let task = Task::Extraction {
            document: doc.text.clone(),
            attr: "height".into(),
        };
        let out = unidm.run(&DataLake::new(), &task).unwrap();
        // Height extraction should succeed on most documents; check shape.
        assert!(out.answer == ds.truth[0]["height"] || out.answer == "unknown");
    }

    #[test]
    fn unknown_table_is_invalid_task() {
        let (_, llm) = setup();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let err = unidm
            .run(&DataLake::new(), &Task::imputation("nope", 0, "a", "b"))
            .unwrap_err();
        assert!(matches!(err, UniDmError::Table(_)));
    }
}
