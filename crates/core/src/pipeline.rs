//! The UniDM pipeline: Algorithm 1 of the paper.
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

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    claim_query_er, claim_query_imputation, naturalize_record, Claim, SerializedRecord,
};
use unidm_llm::{LanguageModel, Usage, UsageMeter};
use unidm_tablestore::{DataLake, Table};

use crate::frame::{FrameRow, Frames, LabelledPair};
use crate::retrieval::{instance_wise_in, meta_wise, score_candidates, Context};
use crate::task::Task;
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
    /// [`Table::version`] its rows were serialized at and how many rows
    /// each projection holds. `None` until a run has sampled the table.
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
        let (answer, trace) = self.dispatch(&meter, lake, task)?;
        Ok(RunOutput {
            answer,
            usage: meter.used(),
            trace,
        })
    }

    fn dispatch(
        &self,
        llm: &dyn LanguageModel,
        lake: &DataLake,
        task: &Task,
    ) -> Result<(String, Trace), UniDmError> {
        match task {
            Task::Imputation {
                table,
                row,
                attr,
                key_attr,
            } => self.run_imputation(llm, lake, table, *row, attr, key_attr),
            Task::Transformation { examples, input } => {
                self.run_transformation(llm, examples, input)
            }
            Task::ErrorDetection { table, row, attr } => {
                self.run_error_detection(llm, lake, table, *row, attr)
            }
            Task::EntityResolution { a, b, pool } => self.run_er(llm, a, b, pool),
            Task::TableQa { table, question } => self.run_tableqa(llm, lake, table, question),
            Task::JoinDiscovery {
                left_name,
                left_values,
                right_name,
                right_values,
            } => self.run_join(llm, left_name, left_values, right_name, right_values),
            Task::Extraction { document, attr } => self.run_extraction(llm, document, attr),
        }
    }

    fn finish(
        &self,
        llm: &dyn LanguageModel,
        claim: Claim,
        selected_attrs: Vec<String>,
        context: &Context,
    ) -> Result<(String, Trace), UniDmError> {
        let target_prompt = prompting::build_target_prompt(llm, &self.config, &claim)?;
        let answer = prompting::answer(llm, &target_prompt)?;
        Ok((
            answer,
            Trace {
                selected_attrs,
                context_records: context
                    .records
                    .iter()
                    .map(SerializedRecord::render)
                    .collect(),
                context_text: claim.context,
                target_prompt,
            },
        ))
    }

    fn target_record(
        table: &Table,
        row: usize,
        attr: &str,
    ) -> Result<SerializedRecord, UniDmError> {
        let rec = table.row_at(row)?;
        let mut pairs = Vec::new();
        for (i, name) in table.schema().names().enumerate() {
            let v = rec.get(i).map(|v| v.to_string()).unwrap_or_default();
            if name.eq_ignore_ascii_case(attr) || v.is_empty() {
                continue;
            }
            pairs.push((name.to_string(), v));
        }
        Ok(SerializedRecord::new(pairs))
    }

    fn run_imputation(
        &self,
        llm: &dyn LanguageModel,
        lake: &DataLake,
        table: &str,
        row: usize,
        attr: &str,
        key_attr: &str,
    ) -> Result<(String, Trace), UniDmError> {
        let table = lake.require(table)?;
        table.schema().require(attr)?;
        let record = Self::target_record(table, row, attr)?;
        let key = record.get(key_attr).unwrap_or_default().to_string();
        let meta_query = format!("{key}, {attr}");
        let attrs = meta_wise(
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::Imputation,
            &meta_query,
            table,
            attr,
        )?;
        let instance_query = claim_query_imputation(&record, attr);
        let context = instance_wise_in(
            &self.frames,
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::Imputation,
            &instance_query,
            table,
            Some(row),
            &attrs,
            attr,
            key_attr,
        )?;
        let context_text = parsing::parse_context(llm, &self.config, &context.records)?;
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::Imputation,
            context: context_text,
            query: instance_query,
        };
        self.finish(llm, claim, attrs, &context)
    }

    fn run_transformation(
        &self,
        llm: &dyn LanguageModel,
        examples: &[(String, String)],
        input: &str,
    ) -> Result<(String, Trace), UniDmError> {
        let records: Vec<SerializedRecord> = examples
            .iter()
            .map(|(i, o)| {
                SerializedRecord::new(vec![
                    ("before".to_string(), i.clone()),
                    ("after".to_string(), o.clone()),
                ])
            })
            .collect();
        let context = Context {
            attrs: Vec::new(),
            records,
        };
        let context_text = parsing::parse_context(llm, &self.config, &context.records)?;
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::Transformation,
            context: context_text,
            query: format!("{input}: ?"),
        };
        self.finish(llm, claim, Vec::new(), &context)
    }

    fn run_error_detection(
        &self,
        llm: &dyn LanguageModel,
        lake: &DataLake,
        table: &str,
        row: usize,
        attr: &str,
    ) -> Result<(String, Trace), UniDmError> {
        let table = lake.require(table)?;
        let value = table.cell_value(row, attr)?.to_string();
        let query = format!("{attr}: {value}?");
        let attrs = meta_wise(
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::ErrorDetection,
            &query,
            table,
            attr,
        )?;
        let key_attr = table.schema().names().next().unwrap_or(attr).to_string();
        let context = instance_wise_in(
            &self.frames,
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::ErrorDetection,
            &query,
            table,
            Some(row),
            &attrs,
            attr,
            &key_attr,
        )?;
        let context_text = parsing::parse_context(llm, &self.config, &context.records)?;
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::ErrorDetection,
            context: context_text,
            query,
        };
        self.finish(llm, claim, attrs, &context)
    }

    fn run_er(
        &self,
        llm: &dyn LanguageModel,
        a: &SerializedRecord,
        b: &SerializedRecord,
        pool: &[LabelledPair],
    ) -> Result<(String, Trace), UniDmError> {
        let nat = |r: &SerializedRecord| {
            let mut text = naturalize_record(r);
            text.truncate(text.trim_end_matches('.').len());
            text
        };
        let (a, b) = (nat(a), nat(b));
        // Demonstration retrieval: the labelled pool plays the role of the
        // data lake; pick the pairs most relevant to the query pair. The
        // candidates and their seeded order depend on the pool alone.
        let demos = self.frames.demos(pool, || {
            let mut demos: Vec<FrameRow> = pool
                .iter()
                .map(|(da, db, label)| {
                    let label = if *label { "the same" } else { "different" };
                    FrameRow::new(SerializedRecord::new(vec![
                        (
                            "entities".to_string(),
                            format!("{} versus {}", nat(da), nat(db)),
                        ),
                        ("label".to_string(), label.to_string()),
                    ]))
                })
                .collect();
            demos.shuffle(&mut StdRng::seed_from_u64(self.config.seed ^ 0xE12));
            demos
        });
        let records = if demos.is_empty() {
            Vec::new()
        } else if self.config.instance_retrieval {
            // Entity pairs are long: scoring respects the context window.
            score_candidates(
                llm,
                &self.config,
                unidm_llm::protocol::TaskKind::EntityResolution,
                &format!("{a} versus {b}"),
                &demos[..self.config.sample_size.min(demos.len())],
            )?
        } else {
            let kept = demos.iter().take(self.config.top_k);
            kept.map(|demo| demo.record.clone()).collect()
        };
        let context = Context {
            attrs: Vec::new(),
            records,
        };
        let context_text = parsing::parse_context(llm, &self.config, &context.records)?;
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::EntityResolution,
            context: context_text,
            query: claim_query_er(&a, &b),
        };
        self.finish(llm, claim, Vec::new(), &context)
    }

    fn run_tableqa(
        &self,
        llm: &dyn LanguageModel,
        lake: &DataLake,
        table: &str,
        question: &str,
    ) -> Result<(String, Trace), UniDmError> {
        let table = lake.require(table)?;
        let attrs = meta_wise(
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::TableQa,
            question,
            table,
            "",
        )?;
        let (key, target) = match attrs.as_slice() {
            [] => {
                return Err(UniDmError::InvalidTask(
                    "no attributes selected for table QA".into(),
                ))
            }
            [only] => (only.clone(), only.clone()),
            [first, .., last] => (first.clone(), last.clone()),
        };
        let context = instance_wise_in(
            &self.frames,
            llm,
            &self.config,
            unidm_llm::protocol::TaskKind::TableQa,
            question,
            table,
            None,
            &attrs,
            &target,
            &key,
        )?;
        let context_text = parsing::parse_context(llm, &self.config, &context.records)?;
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::TableQa,
            context: context_text,
            query: question.to_string(),
        };
        self.finish(llm, claim, attrs, &context)
    }

    fn run_join(
        &self,
        llm: &dyn LanguageModel,
        left_name: &str,
        left_values: &[String],
        right_name: &str,
        right_values: &[String],
    ) -> Result<(String, Trace), UniDmError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x7014);
        let sample = |vals: &[String], rng: &mut StdRng| -> Vec<String> {
            let mut v: Vec<String> = vals.to_vec();
            v.shuffle(rng);
            v.truncate(20);
            v
        };
        let left_sample = sample(left_values, &mut rng);
        let right_sample = sample(right_values, &mut rng);
        let context_text = format!(
            "Column \"{left_name}\" contains {}.\nColumn \"{right_name}\" contains {}.",
            left_sample.join("; "),
            right_sample.join("; "),
        );
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::JoinDiscovery,
            context: context_text,
            query: format!("{left_name} VERSUS {right_name}"),
        };
        self.finish(llm, claim, Vec::new(), &Context::default())
    }

    fn run_extraction(
        &self,
        llm: &dyn LanguageModel,
        document: &str,
        attr: &str,
    ) -> Result<(String, Trace), UniDmError> {
        let text = crate::html::strip_tags(document);
        let claim = Claim {
            task: unidm_llm::protocol::TaskKind::Extraction,
            context: text,
            query: attr.to_string(),
        };
        self.finish(llm, claim, Vec::new(), &Context::default())
    }
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
