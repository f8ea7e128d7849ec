//! The UniDM pipeline: Algorithm 1 of the paper, written once, as a step
//! machine.
//!
//! A task is first lowered (`task.rs`) to the unified form of paper §3 —
//! the kind `T`, the claim query `Q`, and the source step 1 reads its
//! candidates from — and then goes through the same steps whatever its
//! kind: meta-wise retrieval (`p_rm`), instance-wise retrieval (`p_ri`),
//! context parsing (`p_dp`), claim and target prompt (`p_cq`), answer
//! (`p_as`). A step is skipped when the *source* has nothing for it (a
//! labelled pool has no attributes to pick among; text the task brought
//! needs neither retrieval nor parsing), or computed without the model when
//! the configuration turns it off — never because of the kind, so this
//! file does not match on [`Task`].
//!
//! [`UniDm::start`] gives a [`Run`] that hands out each prompt it waits on
//! ([`Run::next`]) and is fed the reply ([`Run::feed`]), so one thread can
//! keep many runs in flight ([`crate::BatchRunner::with_pipeline`]);
//! [`UniDm::run`] is the blocking loop over it. Each step's render and
//! read halves live in its own module, whose public step function is
//! render, complete, read. Per-run token cost is metered from the
//! completions a run is fed, so neither caching nor scheduling changes
//! what a run reports.
//!
//! A `UniDm` also owns the record frame (`frame.rs`): what it has
//! serialized of a table (or of an entity-resolution pool) for one task it
//! reuses for the next, without ever changing a prompt.

use std::sync::Arc;

use unidm_llm::protocol::{render_simple, Claim, TaskKind};
use unidm_llm::{Completion, LanguageModel, LlmError, Usage};
use unidm_tablestore::DataLake;

use crate::frame::{FrameRow, Frames};
use crate::parsing::{join_lines, pdp_prompt};
use crate::prompting::pcq_prompt;
use crate::retrieval::{pri_prompt, prm_prompt, read_pri, read_prm, Sample};
use crate::task::{demonstrations, versus, Source, Task, Unified, DEMO_HEADER};
use crate::{PipelineConfig, UniDmError};

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

    /// The record frame's footprint for the table named `table`: the
    /// [`unidm_tablestore::Table::version`] its rows were serialized at
    /// and how many rows each projection holds. `None` until a run has
    /// sampled the table.
    pub fn frame_rows(&self, table: &str) -> Option<(u64, Vec<usize>)> {
        self.frames.footprint(table)
    }

    /// Runs the pipeline on `task` over `lake` (Algorithm 1): the blocking
    /// loop over [`UniDm::start`], completing each prompt with this
    /// pipeline's model.
    ///
    /// # Errors
    ///
    /// Returns [`UniDmError::InvalidTask`] for references outside the lake,
    /// and propagates LLM/table errors.
    pub fn run(&self, lake: &DataLake, task: &Task) -> Result<RunOutput, UniDmError> {
        let mut run = self.start(lake, task)?;
        loop {
            let reply = match run.next()? {
                Step::Prompt(prompt) => self.llm.complete(prompt),
                Step::Done(output) => return Ok(output),
            };
            run.feed(reply);
        }
    }

    /// Starts Algorithm 1 on `task` over `lake` as a step machine. The runs
    /// of one pipeline share its record frame.
    ///
    /// # Errors
    ///
    /// The [`UniDmError::Table`] of a table, attribute or row the lake does
    /// not have.
    pub fn start<'r>(&'r self, lake: &'r DataLake, task: &'r Task) -> Result<Run<'r>, UniDmError> {
        let Unified {
            kind,
            query,
            source,
        } = task.lower(lake, self.config.seed)?;
        Ok(Run {
            unidm: self,
            kind,
            query,
            stage: Stage::Retrieve(source),
            prompt: String::new(),
            reply: None,
            usage: Usage::default(),
            trace: Trace::default(),
        })
    }
}

/// What a [`Run`] needs next.
#[derive(Debug)]
pub enum Step<'r> {
    /// The model's completion of this prompt: [`Run::feed`] it.
    Prompt(&'r str),
    /// The run is over.
    Done(RunOutput),
}

/// One run of Algorithm 1 (see the [module docs](self)).
pub struct Run<'r> {
    unidm: &'r UniDm<'r>,
    kind: TaskKind,
    /// The claim query `Q`, until the claim takes it.
    query: String,
    stage: Stage<'r>,
    /// The prompt out while a `…Sent` stage waits on its reply; the
    /// target prompt once the claim is built.
    prompt: String,
    reply: Option<Result<Arc<Completion>, LlmError>>,
    usage: Usage,
    trace: Trace,
}

impl std::fmt::Debug for Run<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("kind", &self.kind)
            .field("prompt", &self.prompt)
            .field("usage", &self.usage)
            .finish()
    }
}

/// Where a [`Run`] is. A `…Sent` stage has a prompt out and holds what
/// reading its reply needs.
enum Stage<'r> {
    /// Step 1, over the lowered task's source.
    Retrieve(Source<'r>),
    /// `p_rm` over these candidate attributes, borrowed from the schema.
    AttrsSent(OnTable<'r>, Vec<&'r str>),
    /// `p_ri` over the first `shown` rows of a table sample.
    RowsSent(Sample<'r>, usize),
    /// `p_ri` over the first `shown` demonstrations.
    DemosSent(Arc<[FrameRow]>, usize),
    /// Step 2, over the kept records.
    Parse,
    ParseSent,
    /// Step 3, over the context `C'` — or the text the task brought.
    Construct(String),
    ConstructSent(Claim),
    /// The target prompt `p_as`.
    AnswerSent,
    Answered(String),
    /// [`Step::Done`] was handed out.
    Finished,
}

/// Step 1 over a table, between meta-wise and instance-wise retrieval.
struct OnTable<'r> {
    table: &'r unidm_tablestore::Table,
    exclude_row: Option<usize>,
    roles: Option<(&'r str, &'r str)>,
}

impl<'r> Run<'r> {
    /// Reads the reply fed for the prompt out, then runs the steps that need
    /// no model until one needs a prompt completed or the run is over. An
    /// unfed prompt is handed out again.
    ///
    /// # Errors
    ///
    /// A fed [`LlmError`], or a table or task error; either ends the run.
    ///
    /// # Panics
    ///
    /// Once [`Step::Done`] was handed out.
    // A prompt borrows the run, which `Iterator::next` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Step<'_>, UniDmError> {
        if let Some(reply) = self.reply.take() {
            self.read(&reply?.text)?;
        }
        let config = &self.unidm.config;
        loop {
            match std::mem::replace(&mut self.stage, Stage::Finished) {
                Stage::Retrieve(source) => self.retrieve(source)?,
                // Step 2 — context parsing.
                Stage::Parse => match pdp_prompt(config, &self.trace.context_records) {
                    Some(prompt) => self.send(prompt, Stage::ParseSent),
                    None => {
                        let context = join_lines(&self.trace.context_records);
                        self.stage = Stage::Construct(context);
                    }
                },
                // Step 3 — the claim `(T, C', Q)` and its target prompt.
                Stage::Construct(context) => {
                    let query = std::mem::take(&mut self.query);
                    let claim = Claim {
                        task: self.kind,
                        context,
                        query,
                    };
                    match pcq_prompt(config, &claim) {
                        Some(prompt) => self.send(prompt, Stage::ConstructSent(claim)),
                        None => self.answer(render_simple(&claim), claim),
                    }
                }
                Stage::Answered(answer) => {
                    let mut trace = std::mem::take(&mut self.trace);
                    trace.target_prompt = std::mem::take(&mut self.prompt);
                    let usage = self.usage;
                    return Ok(Step::Done(RunOutput {
                        answer,
                        usage,
                        trace,
                    }));
                }
                Stage::Finished => panic!("a finished run has no next step"),
                sent => {
                    self.stage = sent;
                    return Ok(Step::Prompt(&self.prompt));
                }
            }
        }
    }

    /// Feeds the model's reply to the prompt [`Run::next`] handed out,
    /// metering a completion's usage into the run's.
    pub fn feed(&mut self, reply: Result<Arc<Completion>, LlmError>) {
        if let Ok(completion) = &reply {
            self.usage.add(completion.usage);
        }
        self.reply = Some(reply);
    }

    fn send(&mut self, prompt: String, stage: Stage<'r>) {
        self.prompt = prompt;
        self.stage = stage;
    }

    /// Asks the answer with `target`, the target prompt of `claim`.
    fn answer(&mut self, target: String, claim: Claim) {
        self.trace.context_text = claim.context;
        self.send(target, Stage::AnswerSent);
    }

    /// The read half of the step whose prompt is out.
    fn read(&mut self, reply: &str) -> Result<(), UniDmError> {
        let (config, frames) = (&self.unidm.config, &self.unidm.frames);
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::AttrsSent(on, candidates) => {
                self.trace.selected_attrs = read_prm(&candidates, reply);
                return self.instances(on);
            }
            Stage::RowsSent(sample, shown) => {
                let kept = read_pri(config, reply, shown);
                self.trace.context_records = sample.keep(frames, kept.iter().copied(), line)?;
                self.stage = Stage::Parse;
            }
            Stage::DemosSent(demos, shown) => {
                let kept = read_pri(config, reply, shown);
                self.trace.context_records = kept.into_iter().map(|at| line(&demos[at])).collect();
                self.stage = Stage::Parse;
            }
            Stage::ParseSent => self.stage = Stage::Construct(reply.to_string()),
            Stage::ConstructSent(claim) => self.answer(reply.to_string(), claim),
            Stage::AnswerSent => self.stage = Stage::Answered(reply.to_string()),
            _ => panic!("a reply was fed with no prompt out"),
        }
        Ok(())
    }

    /// Step 1 — context retrieval, over whatever the source offers to
    /// choose among. A kept record is its frame row's rendered line from
    /// here on: nothing below renders or clones a record.
    fn retrieve(&mut self, source: Source<'r>) -> Result<(), UniDmError> {
        let unidm = self.unidm;
        let config = &unidm.config;
        self.stage = Stage::Parse;
        match source {
            Source::Table {
                table,
                meta_query,
                exclude_row,
                roles,
            } => {
                let on = OnTable {
                    table,
                    exclude_row,
                    roles,
                };
                let meta_query = meta_query.as_deref().unwrap_or(&self.query);
                let target = roles.map_or("", |(target, _)| target);
                match prm_prompt(config, self.kind, meta_query, table, target) {
                    (Some(prompt), candidates) => {
                        self.send(prompt, Stage::AttrsSent(on, candidates));
                    }
                    (None, picks) => {
                        self.trace.selected_attrs = picks.into_iter().map(str::to_string).collect();
                        return self.instances(on);
                    }
                }
            }
            Source::Pool { pool, pair } => {
                let demos = unidm
                    .frames
                    .demos(pool, || demonstrations(pool, config.seed));
                if config.instance_retrieval && !demos.is_empty() {
                    // Entity pairs are long: scoring respects the context
                    // window.
                    let sampled = &demos[..config.sample_size.min(demos.len())];
                    let query = versus(&pair.0, &pair.1);
                    let window = unidm.llm.context_window();
                    let header = DEMO_HEADER.into_iter();
                    let (prompt, shown) =
                        pri_prompt(window, self.kind, &query, header, sampled.iter());
                    self.send(prompt, Stage::DemosSent(demos, shown));
                } else {
                    let records = demos.iter().take(config.top_k).map(line);
                    self.trace.context_records = records.collect();
                }
            }
            Source::Records(records) => self.trace.context_records = records,
            // Text the task brought is its own `C'`.
            Source::Text(text) => self.stage = Stage::Construct(text),
        }
        Ok(())
    }

    /// Step 1 over a table, once meta-wise retrieval has picked its
    /// attributes: instance-wise retrieval.
    fn instances(&mut self, on: OnTable<'r>) -> Result<(), UniDmError> {
        let unidm = self.unidm;
        let attrs = &self.trace.selected_attrs;
        // A task that names no target and key (table QA) takes the last
        // and the first pick.
        let picks = attrs.last().zip(attrs.first());
        let (target, key) = on
            .roles
            .or(picks.map(|(last, first)| (last.as_str(), first.as_str())))
            .ok_or_else(|| UniDmError::InvalidTask("no attributes selected for table QA".into()))?;
        let config = &unidm.config;
        let sample = Sample::draw(config, on.table, on.exclude_row, attrs, target, key);
        let window = unidm.llm.context_window();
        match sample.prompt(&unidm.frames, window, config, self.kind, &self.query)? {
            Some((prompt, shown)) => self.send(prompt, Stage::RowsSent(sample, shown)),
            None => {
                let all = 0..sample.len();
                self.trace.context_records = sample.keep(&unidm.frames, all, line)?;
                self.stage = Stage::Parse;
            }
        }
        Ok(())
    }
}

/// A kept row as the rest of a run holds it: its `attr: value` line.
fn line(kept: &FrameRow) -> String {
    kept.line().to_string()
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
