//! Batch execution: [`UniDm`] runs over many tasks, on the calling thread.
//!
//! The paper's experiments (Tables 1–11) execute thousands of independent
//! pipeline runs per dataset. Each run is a pure function of `(model,
//! config, lake, task)`, so [`BatchRunner`] may interleave them in any
//! order and still return bit-identical answers and per-run usage, in task
//! order. Before anything executes, a dedup planner groups
//! byte-identical tasks, runs one representative per group and copies its
//! output to every duplicate slot — duplicates never reach the cache, which
//! handles the near-identical prompts *between* runs one layer down.
//! [`BatchRunner::run_streaming`] is the same batch run once per partition
//! of a task stream, so what it holds live is bounded by the partition.
//!
//! A runner without a pipeline is the serial loop over [`UniDm::run`]: one
//! representative after another, whatever [`BatchRunner::with_workers`]
//! says. It is the reference every other schedule must match. Concurrency
//! needs no thread: in **pipelined mode** ([`BatchRunner::with_pipeline`])
//! one thread keeps a window of up to `with_workers` [`Run`]s in flight
//! over the [`RoutedBackend`] reactor. It submits every run's pending
//! prompt, steps the reactor once, feeds each resolved run its reply and
//! submits that run's next prompt at once — hundreds of requests in
//! flight, no thread spawned.
//!
//! ```
//! use unidm::{BatchRunner, PipelineConfig, PromptCache, Task};
//! use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
//! use unidm_tablestore::{DataLake, Table, Value};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//! let cache = PromptCache::unbounded(&llm);
//!
//! let mut cities = Table::builder("cities").columns(["city", "country", "timezone"]).build();
//! cities.push_row(vec![
//!     Value::text("Florence"), Value::text("Italy"), Value::text("Central European Time"),
//! ]).unwrap();
//! cities.push_row(vec![Value::text("Copenhagen"), Value::text("Denmark"), Value::Null]).unwrap();
//! let lake: DataLake = [cities].into_iter().collect();
//!
//! let tasks = vec![Task::imputation("cities", 1, "timezone", "city")];
//! let runner = BatchRunner::new(&cache, PipelineConfig::paper_default());
//! let outputs = runner.run(&lake, &tasks);
//! assert_eq!(outputs[0].as_ref().unwrap().answer, "Central European Time");
//! ```

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use unidm_llm::{Completion, LanguageModel, LlmError};
use unidm_tablestore::DataLake;

use crate::cache::{Lookup, Miss, PromptCache};
use crate::dispatch::{Reply, Ticket};
use crate::pipeline::{Run, RunOutput, Step, UniDm};
use crate::route::RoutedBackend;
use crate::task::Task;
use crate::{PipelineConfig, UniDmError};

/// What the pre-dispatch planner did for one batch, alongside the
/// per-task results.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per task, in task order — bit-for-bit identical to a
    /// serial loop over [`UniDm::run`].
    pub results: Vec<Result<RunOutput, UniDmError>>,
    /// Distinct task groups the planner found (each executed exactly
    /// once).
    pub unique_tasks: usize,
    /// Tasks that duplicated an earlier task byte-for-byte and received a
    /// copy of its representative's output instead of executing.
    pub coalesced_tasks: usize,
    /// Always 0: one thread runs the batch, and nothing is stolen. The
    /// field is kept only because the repository benchmark (`benchmark/`)
    /// reads it.
    pub steals: usize,
}

/// What [`BatchRunner::run_streaming`] planned and executed across all
/// partitions: the sums of the [`BatchReport`] counters of the
/// [`BatchRunner::run_report`] each partition ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// Total tasks consumed from the source.
    pub tasks: usize,
    /// Partitions the task stream was split into.
    pub partitions: usize,
    /// Tasks that actually executed: [`BatchReport::unique_tasks`] summed
    /// over the partitions.
    pub unique_tasks: usize,
    /// Tasks answered from an identical task's output in the same
    /// partition without executing: [`BatchReport::coalesced_tasks`]
    /// summed over the partitions.
    pub coalesced_tasks: usize,
}

/// A task as the dedup planner's map keys it: hashed by
/// [`Task::fingerprint`], compared whole.
///
/// The planner hashes every task of every batch and almost never finds a
/// duplicate, so the hash is what it costs; the fingerprint skips the one
/// expensive part (an entity-resolution task's labelled pool). Tasks that
/// differ only there share a bucket and are told apart by `Eq`, which is
/// the derived `Task: Eq` — grouping is exactly what hashing whole tasks
/// gave.
#[derive(PartialEq, Eq)]
struct TaskKey<'t>(&'t Task);

impl Hash for TaskKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.fingerprint(state);
    }
}

/// A batch executor for [`UniDm`] runs (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use unidm::{BackendConfig, BatchRunner, PipelineConfig, RoutedBackend, Task};
/// use unidm_llm::{LlmProfile, MockLlm};
/// use unidm_tablestore::{DataLake, Table, Value};
/// use unidm_world::World;
///
/// let world = World::generate(42);
/// let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
/// let mut cities = Table::builder("cities").columns(["city", "country", "timezone"]).build();
/// cities.push_row(vec![
///     Value::text("Florence"), Value::text("Italy"), Value::text("Central European Time"),
/// ]).unwrap();
/// cities.push_row(vec![Value::text("Copenhagen"), Value::text("Denmark"), Value::Null]).unwrap();
/// let lake: DataLake = [cities].into_iter().collect();
///
/// let tasks = vec![Task::imputation("cities", 1, "timezone", "city")];
/// let serial = BatchRunner::new(&llm, PipelineConfig::paper_default());
/// let dispatcher = RoutedBackend::single(&llm, BackendConfig::resilient(7).with_pipelined());
/// let window = BatchRunner::new(&dispatcher, PipelineConfig::paper_default())
///     .with_workers(4)
///     .with_pipeline(&dispatcher, None);
/// assert_eq!(
///     serial.answers(&lake, &tasks),
///     window.answers(&lake, &tasks),
///     "scheduling must not change answers",
/// );
/// ```
#[derive(Clone, Copy)]
pub struct BatchRunner<'a> {
    llm: &'a dyn LanguageModel,
    config: PipelineConfig,
    workers: usize,
    dedup: bool,
    /// Pipelined mode's dispatcher, and the cache above it if any.
    pipeline: Option<(&'a RoutedBackend<'a>, Option<&'a PromptCache<'a>>)>,
    partition_tasks: usize,
}

impl std::fmt::Debug for BatchRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("llm", &self.llm.name())
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("dedup", &self.dedup)
            .field("pipelined", &self.pipeline.is_some())
            .field("partition_tasks", &self.partition_tasks)
            .finish()
    }
}

/// Default tasks-per-partition window for [`BatchRunner::run_streaming`].
pub const DEFAULT_PARTITION_TASKS: usize = 256;

impl<'a> BatchRunner<'a> {
    /// Creates a serial runner (a window of one) with the dedup planner
    /// enabled.
    pub fn new(llm: &'a dyn LanguageModel, config: PipelineConfig) -> Self {
        BatchRunner {
            llm,
            config,
            workers: 1,
            dedup: true,
            pipeline: None,
            partition_tasks: DEFAULT_PARTITION_TASKS,
        }
    }

    /// Overrides the tasks-per-partition window
    /// [`BatchRunner::run_streaming`] plans and dispatches at a time
    /// (default [`DEFAULT_PARTITION_TASKS`], minimum 1). Smaller windows
    /// lower the peak of live bytes; larger ones give the dedup planner and
    /// a pipelined window more tasks to work on at once.
    pub fn with_partition_tasks(mut self, tasks: usize) -> Self {
        self.partition_tasks = tasks.max(1);
        self
    }

    /// Sets the width of the pipelined window: how many runs
    /// [`BatchRunner::with_pipeline`] keeps in flight (default and minimum
    /// `1`). A runner without a pipeline runs its tasks one after another
    /// whatever this says.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables or disables the pre-dispatch dedup planner (enabled by
    /// default). With it off, duplicate tasks execute individually — their
    /// results are still identical, they just pay for their own runs
    /// (modulo prompt-cache hits further down the stack).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Runs the batch in **pipelined mode** (see the [module docs](self))
    /// against `dispatcher`, through `cache` when a [`PromptCache`] sits
    /// directly above it; the runner's own model is not used. The virtual
    /// timeline (makespan, hedges, every counter) is a function of the task
    /// list and the window. The dedup planner still runs first, so
    /// duplicate tasks never reach the dispatcher at all.
    pub fn with_pipeline(
        mut self,
        dispatcher: &'a RoutedBackend<'a>,
        cache: Option<&'a PromptCache<'a>>,
    ) -> Self {
        self.pipeline = Some((dispatcher, cache));
        self
    }

    /// The dispatcher batches run against in pipelined mode, if any.
    pub fn pipeline(&self) -> Option<&'a RoutedBackend<'a>> {
        self.pipeline.map(|(dispatcher, _)| dispatcher)
    }

    /// The configured window width (see [`BatchRunner::with_workers`]).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the pre-dispatch dedup planner is enabled.
    pub fn dedup(&self) -> bool {
        self.dedup
    }

    /// Runs every task over `lake`, returning one result per task in task
    /// order.
    ///
    /// Individual task failures do not abort the batch: each slot carries
    /// its own `Result`, mirroring what a serial loop over
    /// [`UniDm::run`] would collect.
    pub fn run(&self, lake: &DataLake, tasks: &[Task]) -> Vec<Result<RunOutput, UniDmError>> {
        self.run_report(lake, tasks).results
    }

    /// Like [`BatchRunner::run`], but also reports what the planner did.
    pub fn run_report(&self, lake: &DataLake, tasks: &[Task]) -> BatchReport {
        // Pre-dispatch dedup: group byte-identical tasks so each group
        // executes exactly once. The plan depends only on the task list,
        // never on scheduling. `assign` (each task's representative) is
        // read only when something coalesced, so it stays empty without
        // dedup.
        let mut reps: Vec<usize> = Vec::new();
        let mut assign: Vec<usize> = Vec::new();
        if self.dedup {
            assign.reserve_exact(tasks.len());
            // Sized up front: growing re-hashes every key.
            let mut positions: HashMap<TaskKey, usize> = HashMap::with_capacity(tasks.len());
            for (index, task) in tasks.iter().enumerate() {
                // One hash per task: the entry is both the lookup and the
                // insert.
                match positions.entry(TaskKey(task)) {
                    Entry::Occupied(seen) => assign.push(*seen.get()),
                    Entry::Vacant(first) => {
                        first.insert(reps.len());
                        assign.push(reps.len());
                        reps.push(index);
                    }
                }
            }
        } else {
            reps = (0..tasks.len()).collect();
        }
        let unique_tasks = reps.len();
        let coalesced_tasks = tasks.len() - unique_tasks;

        let rep_results = self.execute_reps(lake, tasks, &reps);

        let results = if coalesced_tasks == 0 {
            rep_results
        } else {
            assign
                .iter()
                .map(|&position| rep_results[position].clone())
                .collect()
        };
        BatchReport {
            results,
            unique_tasks,
            coalesced_tasks,
            steals: 0,
        }
    }

    /// Executes the representative tasks `reps` (indices into `tasks`),
    /// returning one result per representative in representative order.
    fn execute_reps(
        &self,
        lake: &DataLake,
        tasks: &[Task],
        reps: &[usize],
    ) -> Vec<Result<RunOutput, UniDmError>> {
        if let Some((dispatcher, cache)) = self.pipeline {
            return self.execute_pipelined(dispatcher, cache, lake, tasks, reps);
        }
        let unidm = UniDm::new(self.llm, self.config);
        reps.iter()
            .map(|&index| unidm.run(lake, &tasks[index]))
            .collect()
    }

    /// [`BatchRunner::execute_reps`] in pipelined mode (see
    /// [`BatchRunner::with_pipeline`]).
    fn execute_pipelined(
        &self,
        dispatcher: &RoutedBackend<'_>,
        cache: Option<&PromptCache<'_>>,
        lake: &DataLake,
        tasks: &[Task],
        reps: &[usize],
    ) -> Vec<Result<RunOutput, UniDmError>> {
        let model: &dyn LanguageModel = match cache {
            Some(cache) => cache,
            None => dispatcher,
        };
        let unidm = UniDm::new(model, self.config);
        let mut results = vec![None; reps.len()];
        let mut flights: Vec<Flight<'_, '_>> = Vec::new();
        let mut claims = reps.iter().enumerate();
        loop {
            // Runs fed a reply go on to their next prompt, and a free slot
            // claims the next representative, until every run waits.
            loop {
                flights.retain_mut(|flight| {
                    flight.waiting.is_some() || flight.advance(dispatcher, cache, &mut results)
                });
                let claim = (flights.len() < self.workers).then(|| claims.next());
                let Some(Some((position, &index))) = claim else {
                    break;
                };
                match unidm.start(lake, &tasks[index]) {
                    Ok(run) => flights.push(Flight {
                        position,
                        run,
                        waiting: None,
                    }),
                    Err(err) => results[position] = Some(Err(err)),
                }
            }
            if flights.is_empty() {
                break;
            }
            dispatcher.step();
            for flight in &mut flights {
                if let Some((ticket, miss)) = flight.waiting.take() {
                    match dispatcher.redeem(ticket) {
                        Reply::Pending(ticket) => flight.waiting = Some((ticket, miss)),
                        Reply::Ready(result) => flight.run.feed(fill(cache, miss, result)),
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every representative ran"))
            .collect()
    }

    /// Runs a task **stream** partition-by-partition in bounded space
    /// instead of materializing the full task vector: at most
    /// [`BatchRunner::with_partition_tasks`] tasks are resident at a time, each
    /// window is one [`BatchRunner::run_report`], and every result is
    /// handed to `sink` by value with its global task index, in task order,
    /// as soon as its partition completes.
    ///
    /// The dedup planner sees one partition at a time: a task repeated in
    /// a later partition runs again (through whatever cache sits below)
    /// with the same answer, so what the stream holds live is bounded by
    /// the partition whether dedup is on or off.
    pub fn run_streaming<I, F>(&self, lake: &DataLake, tasks: I, mut sink: F) -> StreamReport
    where
        I: IntoIterator<Item = Task>,
        F: FnMut(usize, Result<RunOutput, UniDmError>),
    {
        let mut source = tasks.into_iter();
        let mut buffer: Vec<Task> = Vec::with_capacity(self.partition_tasks);
        let mut stream = StreamReport {
            tasks: 0,
            partitions: 0,
            unique_tasks: 0,
            coalesced_tasks: 0,
        };
        loop {
            buffer.clear();
            buffer.extend(source.by_ref().take(self.partition_tasks));
            if buffer.is_empty() {
                return stream;
            }
            let report = self.run_report(lake, &buffer);
            stream.partitions += 1;
            stream.unique_tasks += report.unique_tasks;
            stream.coalesced_tasks += report.coalesced_tasks;
            for result in report.results {
                sink(stream.tasks, result);
                stream.tasks += 1;
            }
        }
    }

    /// Like [`BatchRunner::run`], but flattens each result to its answer
    /// text (empty string on error) — the shape the accuracy harnesses
    /// consume.
    pub fn answers(&self, lake: &DataLake, tasks: &[Task]) -> Vec<String> {
        self.run(lake, tasks)
            .into_iter()
            .map(|r| r.map(|o| o.answer).unwrap_or_default())
            .collect()
    }
}

/// A run in a pipelined window: the representative it answers and, while
/// it waits, its ticket and the cache miss the reply fills.
struct Flight<'r, 'c> {
    position: usize,
    run: Run<'r>,
    waiting: Option<(Ticket, Option<Miss<'c>>)>,
}

impl<'c> Flight<'_, 'c> {
    /// Runs until the run waits on a pending request (`true`) or is over,
    /// its result in `results`. A reply served at once — a cache hit, a
    /// dispatcher memo hit — is fed straight back.
    fn advance(
        &mut self,
        dispatcher: &RoutedBackend<'_>,
        cache: Option<&'c PromptCache<'_>>,
        results: &mut [Option<Result<RunOutput, UniDmError>>],
    ) -> bool {
        loop {
            let (reply, miss) = match self.run.next() {
                Ok(Step::Prompt(prompt)) => match cache.map(|cache| cache.lookup(prompt, true)) {
                    Some(Lookup::Hit(answer)) => (Reply::Ready(Ok(answer)), None),
                    Some(Lookup::Miss(miss, canonical)) => {
                        (dispatcher.submit(canonical.text()), Some(miss))
                    }
                    None => (dispatcher.submit(prompt), None),
                },
                Ok(Step::Done(output)) => {
                    results[self.position] = Some(Ok(output));
                    return false;
                }
                Err(err) => {
                    results[self.position] = Some(Err(err));
                    return false;
                }
            };
            match reply {
                Reply::Ready(result) => self.run.feed(fill(cache, miss, result)),
                Reply::Pending(ticket) => {
                    self.waiting = Some((ticket, miss));
                    return true;
                }
            }
        }
    }
}

/// The reply a run is fed: `result`, filled into `cache` when it completes
/// a cache miss.
fn fill(
    cache: Option<&PromptCache<'_>>,
    miss: Option<Miss<'_>>,
    result: Result<Arc<Completion>, LlmError>,
) -> Result<Arc<Completion>, LlmError> {
    match (cache, miss) {
        (Some(cache), Some(miss)) => cache.fill(miss, result),
        _ => result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PromptCache;
    use unidm_llm::protocol::SerializedRecord;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_synthdata::{imputation, tableqa};
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    fn imputation_tasks(ds: &unidm_synthdata::ImputationDataset, n: usize) -> Vec<Task> {
        ds.targets
            .iter()
            .take(n)
            .map(|t| Task::imputation(ds.table.name(), t.row, "city", "name"))
            .collect()
    }

    /// The window widths the pipelined tests sweep: one run in flight,
    /// a few, and more than any batch here has tasks.
    const WIDTHS: [usize; 3] = [1, 8, 64];

    /// A fault-free pipelined dispatcher over `llm`.
    fn dispatcher(llm: &dyn LanguageModel) -> RoutedBackend<'_> {
        let backend = crate::BackendConfig::resilient(7)
            .without_breaker()
            .with_pipelined();
        RoutedBackend::single(llm, backend)
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 30);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 30);
        let config = PipelineConfig::paper_default();

        let serial = BatchRunner::new(&llm, config).run(&lake, &tasks);
        for width in WIDTHS {
            let dispatcher = dispatcher(&llm);
            let windowed = BatchRunner::new(&dispatcher, config)
                .with_workers(width)
                .with_pipeline(&dispatcher, None)
                .run(&lake, &tasks);
            assert_eq!(serial.len(), windowed.len());
            for (s, p) in serial.iter().zip(&windowed) {
                let s = s.as_ref().expect("serial run ok");
                let p = p.as_ref().expect("windowed run ok");
                assert_eq!(s.answer, p.answer, "window {width}");
                assert_eq!(
                    s.usage, p.usage,
                    "per-run usage must not depend on scheduling (window {width})"
                );
            }
        }
    }

    /// A model that records every prompt it is sent, in order.
    struct Recorder<'a> {
        inner: &'a MockLlm,
        prompts: std::sync::Mutex<Vec<String>>,
    }

    impl LanguageModel for Recorder<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            self.prompts.lock().unwrap().push(prompt.to_string());
            self.inner.complete(prompt)
        }

        fn usage(&self) -> unidm_llm::Usage {
            self.inner.usage()
        }

        fn reset_usage(&self) {
            self.inner.reset_usage();
        }
    }

    #[test]
    fn a_plain_runner_sends_the_serial_prompt_sequence_at_any_worker_count() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 12);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 12);
        let config = PipelineConfig::paper_default();
        let recorder = || Recorder {
            inner: &llm,
            prompts: Default::default(),
        };

        let serial = recorder();
        let unidm = UniDm::new(&serial, config);
        let reference: Vec<_> = tasks.iter().map(|task| unidm.run(&lake, task)).collect();
        let eight = recorder();
        let results = BatchRunner::new(&eight, config)
            .with_workers(8)
            .run(&lake, &tasks);
        assert_eq!(results, reference);
        let sent = eight.prompts.into_inner().unwrap();
        assert!(!sent.is_empty());
        assert!(
            sent == serial.prompts.into_inner().unwrap(),
            "eight workers without a pipeline send the serial run's prompts, in its order"
        );
    }

    #[test]
    fn per_run_usage_ignores_other_runs_on_shared_model() {
        // Run the same task twice against a model whose global counter
        // already moved: metered per-run usage must be identical, proving
        // it is not derived from the global counter.
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 5);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
        let task = Task::imputation("restaurants", ds.targets[0].row, "city", "name");
        let first = unidm.run(&lake, &task).unwrap();
        llm.complete("unrelated traffic from another tenant")
            .unwrap();
        let second = unidm.run(&lake, &task).unwrap();
        assert_eq!(first.usage, second.usage);
        assert!(first.usage.total() > 0);
    }

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 6);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let mut tasks = imputation_tasks(&ds, 6);
        // Poison the middle of the batch with a reference to a missing
        // table; its neighbours must still succeed.
        tasks.insert(3, Task::imputation("no_such_table", 0, "a", "b"));
        for width in WIDTHS {
            let dispatcher = dispatcher(&llm);
            let results = BatchRunner::new(&dispatcher, PipelineConfig::paper_default())
                .with_workers(width)
                .with_pipeline(&dispatcher, None)
                .run(&lake, &tasks);
            assert_eq!(results.len(), 7);
            assert!(matches!(results[3], Err(UniDmError::Table(_))));
            for (i, r) in results.iter().enumerate() {
                if i != 3 {
                    assert!(
                        r.is_ok(),
                        "slot {i} should have survived the poisoned slot (window {width})"
                    );
                }
            }
        }
    }

    #[test]
    fn dedup_planner_folds_duplicate_tasks() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 8);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let base = imputation_tasks(&ds, 8);
        // Interleave three copies of the workload: 24 tasks, 8 unique.
        let mut tasks = Vec::new();
        for i in 0..24 {
            tasks.push(base[i % 8].clone());
        }
        let config = PipelineConfig::paper_default();

        // Reference: planner off, serial.
        llm.reset_usage();
        let plain = BatchRunner::new(&llm, config)
            .with_workers(1)
            .with_dedup(false)
            .run(&lake, &tasks);
        let plain_tokens = llm.usage().total();

        llm.reset_usage();
        let report = BatchRunner::new(&llm, config).run_report(&lake, &tasks);
        let dedup_tokens = llm.usage().total();

        assert_eq!(report.unique_tasks, 8);
        assert_eq!(report.coalesced_tasks, 16);
        assert_eq!(report.results.len(), 24);
        for (a, b) in plain.iter().zip(&report.results) {
            let a = a.as_ref().unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(a.answer, b.answer, "copied results must be identical");
            assert_eq!(a.usage, b.usage, "copied usage must be identical");
        }
        assert_eq!(
            dedup_tokens * 3,
            plain_tokens,
            "deduped batch pays for each unique task exactly once"
        );

        // The planner runs before a pipelined window, whatever its width.
        for width in WIDTHS {
            let dispatcher = dispatcher(&llm);
            let windowed = BatchRunner::new(&dispatcher, config)
                .with_workers(width)
                .with_pipeline(&dispatcher, None)
                .run_report(&lake, &tasks);
            assert_eq!((windowed.unique_tasks, windowed.coalesced_tasks), (8, 16));
            assert_eq!(windowed.results, report.results, "window {width}");
        }
    }

    #[test]
    fn pipelined_batch_matches_serial_and_accounts_exactly() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 20);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 20);
        let config = PipelineConfig::paper_default();

        let reference = BatchRunner::new(&llm, config)
            .with_workers(1)
            .answers(&lake, &tasks);

        let backend = crate::BackendConfig::resilient(7)
            .without_breaker()
            .with_pipelined();
        let dispatcher = RoutedBackend::single(&llm, backend);
        let cache = PromptCache::unbounded(&dispatcher);
        let report = BatchRunner::new(&cache, config)
            .with_workers(4)
            .with_pipeline(&dispatcher, Some(&cache))
            .run_report(&lake, &tasks);
        let answers: Vec<String> = report
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().answer.clone())
            .collect();
        assert_eq!(
            answers, reference,
            "pipelined continuous admission must not change answers"
        );

        // Exact accounting through the stack: every cache miss became one
        // dispatcher call, every leading one an endpoint attempt, and every
        // call either launched a fresh request or coalesced onto a
        // pending/memoized one — nothing double-fires.
        let stats = dispatcher.backend_stats();
        let cached = cache.stats();
        assert_eq!(stats.calls, stats.attempts + stats.dispatch_coalesced);
        assert_eq!(stats.calls as usize, cached.misses + cached.coalesced);
        assert_eq!(stats.attempts as usize, cached.misses);
        assert!(stats.attempts > 0);
        assert_eq!(stats.failures, 0);
    }

    /// A model that rejects, as too long for its window, every prompt
    /// naming one of `marks`.
    struct Rejects<'a> {
        inner: &'a MockLlm,
        marks: Vec<String>,
    }

    impl LanguageModel for Rejects<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            if self.marks.iter().any(|mark| prompt.contains(mark.as_str())) {
                return Err(LlmError::PromptTooLong {
                    tokens: unidm_text::count_tokens(prompt),
                    limit: 0,
                });
            }
            self.inner.complete(prompt)
        }

        fn usage(&self) -> unidm_llm::Usage {
            self.inner.usage()
        }

        fn reset_usage(&self) {
            self.inner.reset_usage();
        }
    }

    #[test]
    fn a_failing_run_does_not_stall_its_window() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 24);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 24);
        // Every fourth task's meta-wise query ("<name>, city") is rejected
        // for good: its run fails at its first prompt.
        let marks = ds.targets.iter().step_by(4).map(|target| {
            let name = ds.table.cell_value(target.row, "name").unwrap();
            format!("{name}, city")
        });
        let rejects = Rejects {
            inner: &llm,
            marks: marks.collect(),
        };
        let config = PipelineConfig::paper_default();
        let serial = BatchRunner::new(&rejects, config).run(&lake, &tasks);
        let failed = serial.iter().filter(|result| result.is_err()).count();
        assert_eq!(failed, 6, "one failing run in four");

        for window in [1, 8, 64] {
            for cached in [false, true] {
                let backend = crate::BackendConfig::resilient(7)
                    .without_breaker()
                    .with_pipelined();
                let dispatcher = RoutedBackend::single(&rejects, backend);
                let cache = cached.then(|| PromptCache::unbounded(&dispatcher));
                let pipelined = BatchRunner::new(&rejects, config)
                    .with_workers(window)
                    .with_pipeline(&dispatcher, cache.as_ref())
                    .run(&lake, &tasks);
                assert_eq!(
                    pipelined, serial,
                    "window {window}, cached: {cached}: every slot as the serial runner left it"
                );
                assert_eq!(dispatcher.backend_stats().failures, 6);
            }
        }
    }

    #[test]
    fn runner_defaults_to_one_worker_whatever_the_machine() {
        let (_, llm) = setup();
        let runner = BatchRunner::new(&llm, PipelineConfig::paper_default());
        assert_eq!(runner.workers(), 1);
        assert!(runner.dedup());
        assert!(runner.pipeline().is_none());
    }

    #[test]
    fn every_worker_count_and_mode_matches_the_serial_run() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 6);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 6);
        let config = PipelineConfig::paper_default();
        let serial = BatchRunner::new(&llm, config).run(&lake, &tasks);
        assert_eq!(serial.len(), tasks.len());
        assert!(BatchRunner::new(&llm, config).run(&lake, &[]).is_empty());

        // The widest window holds more runs than there are tasks.
        for width in WIDTHS {
            let dispatcher = dispatcher(&llm);
            let pipelined = BatchRunner::new(&dispatcher, config)
                .with_workers(width)
                .with_pipeline(&dispatcher, None);
            assert_eq!(pipelined.run(&lake, &tasks), serial, "window {width}");
            assert!(pipelined.run(&lake, &[]).is_empty(), "zero tasks, {width}");
            let stats = dispatcher.backend_stats();
            assert!(stats.calls > 0 && stats.failures == 0, "{stats:?}");
        }
    }

    #[test]
    fn cached_batch_same_answers_fewer_model_tokens() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 25);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 25);
        let config = PipelineConfig::paper_default();

        llm.reset_usage();
        let plain = BatchRunner::new(&llm, config).run(&lake, &tasks);
        let plain_tokens = llm.usage().total();

        for width in WIDTHS {
            llm.reset_usage();
            let dispatcher = dispatcher(&llm);
            let cache = PromptCache::unbounded(&dispatcher);
            let cached = BatchRunner::new(&cache, config)
                .with_workers(width)
                .with_pipeline(&dispatcher, Some(&cache))
                .run(&lake, &tasks);
            let cached_tokens = llm.usage().total();

            for (a, b) in plain.iter().zip(&cached) {
                assert_eq!(a.as_ref().unwrap().answer, b.as_ref().unwrap().answer);
            }
            let stats = cache.stats();
            assert!(
                stats.hits + stats.coalesced > 0,
                "tasks on one table must share prompts (window {width})"
            );
            assert!(
                cached_tokens < plain_tokens,
                "cache should save model tokens at window {width}: {cached_tokens} vs {plain_tokens}"
            );
        }
    }

    #[test]
    fn concurrency_smoke_all_task_kinds_share_one_model() {
        let (world, llm) = setup();
        let imp = imputation::restaurant(&world, 3, 4);
        let qa = tableqa::medals(&world, 3, 8, 3);
        let docs = unidm_synthdata::extraction::nba_players(&world, 3);
        let lake: DataLake = [imp.table.clone(), qa.table.clone()].into_iter().collect();

        let rec = |pairs: &[(&str, &str)]| {
            SerializedRecord::new(
                pairs
                    .iter()
                    .map(|(a, v)| ((*a).to_string(), (*v).to_string()))
                    .collect(),
            )
        };
        let mut tasks = vec![
            Task::Transformation {
                examples: vec![
                    ("20000101".into(), "2000-01-01".into()),
                    ("19991231".into(), "1999-12-31".into()),
                ],
                input: "20210315".into(),
            },
            Task::ErrorDetection {
                table: "restaurants".into(),
                row: 0,
                attr: "city".into(),
            },
            Task::EntityResolution {
                a: rec(&[("name", "Blue Bottle"), ("city", "Oakland")]),
                b: rec(&[("name", "Blue Bottle Coffee"), ("city", "Oakland")]),
                pool: vec![(
                    rec(&[("name", "Ritual")]),
                    rec(&[("name", "Ritual Coffee")]),
                    true,
                )],
            },
            Task::JoinDiscovery {
                left_name: "fifa_ranking.country_abrv".into(),
                left_values: vec!["GER".into(), "ITA".into(), "FRA".into()],
                right_name: "countries.ISO".into(),
                right_values: vec!["GER".into(), "ITA".into(), "IND".into()],
            },
            Task::Extraction {
                document: docs.docs[0].text.clone(),
                attr: "height".into(),
            },
            Task::TableQa {
                table: "medals".into(),
                question: qa.questions[0].question.clone(),
            },
        ];
        tasks.extend(imputation_tasks(&imp, 4));

        let config = PipelineConfig::paper_default();
        let cache = PromptCache::new(&llm, 256);
        let serial = BatchRunner::new(&cache, config).run(&lake, &tasks);
        for width in WIDTHS {
            let dispatcher = dispatcher(&llm);
            let cache = PromptCache::new(&dispatcher, 256);
            let windowed = BatchRunner::new(&cache, config)
                .with_workers(width)
                .with_pipeline(&dispatcher, Some(&cache))
                .run(&lake, &tasks);
            for (kind, (s, p)) in tasks
                .iter()
                .map(Task::kind)
                .zip(serial.iter().zip(&windowed))
            {
                let s = s
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{kind:?} serial failed: {e}"));
                let p = p
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{kind:?} window {width} failed: {e}"));
                assert_eq!(
                    s.answer, p.answer,
                    "{kind:?} answer must not depend on scheduling (window {width})"
                );
                assert_eq!(
                    s.usage, p.usage,
                    "{kind:?} usage must not depend on scheduling (window {width})"
                );
            }
        }
    }
}
