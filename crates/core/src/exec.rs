//! Parallel batch execution: a worker pool fanning [`UniDm`] runs over
//! many tasks.
//!
//! The paper's experiments (Tables 1–11) execute thousands of independent
//! pipeline runs per dataset. Each run is a pure function of `(model,
//! config, lake, task)`, so runs can execute on any thread in any order
//! and still produce bit-identical answers and per-run usage
//! ([`BatchRunner`]). The redundancy between runs — tasks on the same
//! table issue near-identical retrieval and parsing prompts — is handled
//! one layer down, by putting a [`crate::PromptCache`] under the runner.
//!
//! [`BatchRunner`] adds scheduler-level deduplication on top: a
//! pre-dispatch planner groups byte-identical tasks, runs one
//! representative per group on the pool, and copies the representative's
//! output to every duplicate slot — so duplicate tasks never even reach
//! the cache.
//!
//! The pool is one loop whatever the mode: each worker builds its own
//! [`UniDm`], claims the next representative from a shared cursor
//! (`fetch_add`) and fills that representative's slot. One worker runs the
//! loop on the calling thread; more run it under [`std::thread::scope`];
//! in pipelined mode ([`BatchRunner::with_pipeline`]) each worker also
//! holds a [`Dispatcher`] registration while it runs, taken before any
//! worker starts.
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

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use unidm_llm::LanguageModel;
use unidm_tablestore::DataLake;

use crate::dispatch::Dispatcher;
use crate::pipeline::{RunOutput, UniDm};
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
    /// Always 0: workers claim tasks from one shared cursor, and nothing
    /// is stolen. The field is kept only because the repository benchmark
    /// (`benchmark/`, which a PR may not edit) reads it.
    pub steals: usize,
}

/// What [`BatchRunner::run_streaming`] planned and executed across all
/// partitions. The dedup counters are exact-equal to the
/// [`BatchReport`] counters [`BatchRunner::run_report`] would produce for
/// the same task sequence, whatever the partition size — duplicates are
/// coalesced across partition boundaries through a global memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// Total tasks consumed from the source.
    pub tasks: usize,
    /// Partitions the task stream was split into.
    pub partitions: usize,
    /// Distinct tasks that actually executed (equals
    /// [`BatchReport::unique_tasks`] over the whole sequence).
    pub unique_tasks: usize,
    /// Tasks answered from an earlier identical task's output without
    /// executing (equals [`BatchReport::coalesced_tasks`]).
    pub coalesced_tasks: usize,
}

/// A task as the dedup planner's maps key it: hashed by
/// [`Task::fingerprint`], compared whole.
///
/// The planner hashes every task of every batch and almost never finds a
/// duplicate, so the hash is what it costs; the fingerprint skips the one
/// expensive part (an entity-resolution task's labelled pool). Tasks that
/// differ only there share a bucket and are told apart by `Eq`, which is
/// the derived `Task: Eq` — grouping is exactly what hashing whole tasks
/// gave. Borrowed in a per-batch plan, owned in the streaming memo.
#[derive(PartialEq, Eq)]
struct TaskKey<'t>(Cow<'t, Task>);

impl Hash for TaskKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.fingerprint(state);
    }
}

/// A parallel batch executor for [`UniDm`] runs.
///
/// Before anything executes, a **dedup planner** groups byte-identical
/// tasks: each run is a pure function of `(model, config, lake, task)`, so
/// one representative per group executes and every duplicate slot receives
/// a copy of its output — duplicate tasks cost zero model calls and zero
/// cache lookups. The representatives then fan out across a pool of scoped
/// worker threads sharing one model reference and one **cursor**: a worker
/// claims the next unique task the moment it finishes its previous one, so
/// a straggler task cannot serialize the tail of a batch. Results come
/// back in task order, each carrying its own
/// [`RunOutput::usage`] metered per run — never diffed from the model's
/// global counter — so the output is bit-for-bit identical to running the
/// same tasks serially, whatever the interleaving.
///
/// # Examples
///
/// ```
/// use unidm::{BatchRunner, PipelineConfig, Task};
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
/// let serial = BatchRunner::new(&llm, PipelineConfig::paper_default()).with_workers(1);
/// let parallel = serial.with_workers(4);
/// assert_eq!(
///     serial.answers(&lake, &tasks),
///     parallel.answers(&lake, &tasks),
///     "scheduling must not change answers",
/// );
/// ```
#[derive(Clone, Copy)]
pub struct BatchRunner<'a> {
    llm: &'a dyn LanguageModel,
    config: PipelineConfig,
    workers: usize,
    dedup: bool,
    pipeline: Option<&'a Dispatcher<'a>>,
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

/// The worker count new runners start with: the `UNIDM_WORKERS`
/// environment variable when set to a positive integer is authoritative
/// (no cap — an override means the operator knows the machine); otherwise
/// one worker per available CPU, capped at 16 — the pipeline is
/// compute-light, so past that point more threads only add contention on
/// the shared model.
fn default_workers() -> usize {
    std::env::var("UNIDM_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        })
}

impl<'a> BatchRunner<'a> {
    /// Creates a runner with the self-tuned worker count (`UNIDM_WORKERS`
    /// when set; otherwise one per available CPU, capped at 16) and the
    /// dedup planner enabled.
    pub fn new(llm: &'a dyn LanguageModel, config: PipelineConfig) -> Self {
        BatchRunner {
            llm,
            config,
            workers: default_workers(),
            dedup: true,
            pipeline: None,
            partition_tasks: DEFAULT_PARTITION_TASKS,
        }
    }

    /// Overrides the tasks-per-partition window
    /// [`BatchRunner::run_streaming`] plans and dispatches at a time
    /// (default [`DEFAULT_PARTITION_TASKS`], minimum 1). Smaller windows
    /// lower peak memory; larger windows give each dispatch wave more
    /// parallelism to chew on.
    pub fn with_partition_tasks(mut self, tasks: usize) -> Self {
        self.partition_tasks = tasks.max(1);
        self
    }

    /// The tasks-per-partition window streaming runs use.
    pub fn partition_tasks(&self) -> usize {
        self.partition_tasks
    }

    /// Overrides the worker count (`1` executes serially on the calling
    /// thread).
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

    /// Runs the batch in **pipelined mode** against an event-driven
    /// [`Dispatcher`]: every worker registers with the dispatcher for the
    /// whole batch and claims the next unique task from a shared cursor
    /// the moment its previous one finishes — continuous admission into
    /// the dispatcher's in-flight window instead of whole-batch barriers.
    /// No worker issues a call until all of them are registered, so the
    /// dispatcher's virtual timeline (makespan, hedges, every counter) is a
    /// function of the task list and the worker count, never of the order
    /// the OS started the threads in. The dedup planner still runs first,
    /// so duplicate tasks never reach the dispatcher at all.
    ///
    /// The `llm` this runner drives must bottom out in `dispatcher` — that
    /// is how worker calls become reactor events. A [`crate::PromptCache`]
    /// may sit between them as it is: a seated worker never waits in the
    /// cache's in-flight slot, and the dispatcher coalesces duplicate
    /// prompts itself.
    pub fn with_pipeline(mut self, dispatcher: &'a Dispatcher<'a>) -> Self {
        self.pipeline = Some(dispatcher);
        self
    }

    /// The dispatcher batches run against in pipelined mode, if any.
    pub fn pipeline(&self) -> Option<&'a Dispatcher<'a>> {
        self.pipeline
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the pre-dispatch dedup planner is enabled.
    pub fn dedup(&self) -> bool {
        self.dedup
    }

    /// The pipeline configuration the workers run with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
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
        // Pre-dispatch dedup: group byte-identical tasks (`Task: Eq +
        // Hash`) so each group executes exactly once. The plan depends
        // only on the task list, never on scheduling.
        let mut reps: Vec<usize> = Vec::new();
        let mut assign: Vec<usize> = Vec::with_capacity(tasks.len());
        if self.dedup {
            // Sized up front: growing re-hashes every key.
            let mut positions: HashMap<TaskKey, usize> = HashMap::with_capacity(tasks.len());
            for (index, task) in tasks.iter().enumerate() {
                // One hash per task: the entry is both the lookup and the
                // insert.
                match positions.entry(TaskKey(Cow::Borrowed(task))) {
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
            assign = (0..tasks.len()).collect();
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
    /// Shared by the materialized ([`BatchRunner::run_report`]) and
    /// streaming ([`BatchRunner::run_streaming`]) drivers, which is what
    /// keeps their answers byte-identical.
    fn execute_reps(
        &self,
        lake: &DataLake,
        tasks: &[Task],
        reps: &[usize],
    ) -> Vec<Result<RunOutput, UniDmError>> {
        let slots: Vec<OnceLock<Result<RunOutput, UniDmError>>> =
            reps.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        // A shared cursor hands each worker the next unique task as soon
        // as it finishes the previous one, so a freshly ready task flows
        // into an open in-flight slot while stragglers are still pending.
        // In pipelined mode a worker holds its dispatcher registration for
        // the whole batch, so the reactor only advances virtual time when
        // every worker is parked inside it (quiescence) — and no worker
        // issues a call until all of them are seated: a worker that ran
        // ahead of its unspawned peers would be quiescent alone and drive
        // the clock on an OS-scheduling-dependent request set.
        let workers = self.workers.min(reps.len()).max(1);
        let seated = Barrier::new(workers);
        let worker = || {
            let _registration = self.pipeline.map(|dispatcher| {
                let registration = dispatcher.register();
                seated.wait();
                registration
            });
            let unidm = UniDm::new(self.llm, self.config);
            loop {
                let position = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = reps.get(position) else {
                    break;
                };
                let result = unidm.run(lake, &tasks[index]);
                slots[position]
                    .set(result)
                    .expect("slot claimed exactly once");
            }
        };
        match workers {
            1 => worker(),
            workers => std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            }),
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }

    /// Runs a task **stream** partition-by-partition under bounded memory
    /// instead of materializing the full task vector: at most
    /// [`BatchRunner::partition_tasks`] tasks are resident at a time, each
    /// window is planned and dispatched on the same execution path as
    /// [`BatchRunner::run_report`], and every result is handed to `sink`
    /// with its global task index, in task order, as soon as its partition
    /// completes.
    ///
    /// With the dedup planner enabled, duplicates are coalesced across
    /// partition boundaries through a memo of each distinct task's output,
    /// so the [`StreamReport`] counters — and every answer — are
    /// exact-equal to what `run_report` would produce for the same
    /// sequence. The memo grows with the number of *distinct* tasks; for
    /// strictly row-count-independent memory over a lake-sized stream,
    /// disable dedup ([`BatchRunner::with_dedup`]) and rely on the prompt
    /// cache below.
    pub fn run_streaming<I, F>(&self, lake: &DataLake, tasks: I, mut sink: F) -> StreamReport
    where
        I: IntoIterator<Item = Task>,
        F: FnMut(usize, Result<RunOutput, UniDmError>),
    {
        enum Plan {
            /// Answered by a previous partition's representative.
            Memo(Arc<Result<RunOutput, UniDmError>>),
            /// Position in this partition's representative list.
            Rep(usize),
        }

        let mut memo: HashMap<TaskKey<'static>, Arc<Result<RunOutput, UniDmError>>> =
            HashMap::new();
        let mut source = tasks.into_iter();
        let mut buffer: Vec<Task> = Vec::with_capacity(self.partition_tasks);
        let mut next_index = 0usize;
        let mut partitions = 0usize;
        let mut unique_tasks = 0usize;
        loop {
            buffer.clear();
            while buffer.len() < self.partition_tasks {
                match source.next() {
                    Some(task) => buffer.push(task),
                    None => break,
                }
            }
            if buffer.is_empty() {
                break;
            }
            partitions += 1;

            if !self.dedup {
                // Every task runs and nothing else reads its output: each
                // goes to the sink by value, never copied.
                let reps: Vec<usize> = (0..buffer.len()).collect();
                unique_tasks += reps.len();
                for result in self.execute_reps(lake, &buffer, &reps) {
                    sink(next_index, result);
                    next_index += 1;
                }
                continue;
            }

            // Per-partition plan: same first-occurrence-is-representative
            // rule as the materialized planner, with the memo extending it
            // across partition boundaries.
            let mut plan: Vec<Plan> = Vec::with_capacity(buffer.len());
            let mut reps: Vec<usize> = Vec::new();
            let mut local: HashMap<TaskKey, usize> = HashMap::with_capacity(buffer.len());
            for (i, task) in buffer.iter().enumerate() {
                let key = TaskKey(Cow::Borrowed(task));
                if let Some(cached) = memo.get(&key) {
                    plan.push(Plan::Memo(cached.clone()));
                    continue;
                }
                match local.entry(key) {
                    Entry::Occupied(seen) => plan.push(Plan::Rep(*seen.get())),
                    Entry::Vacant(first) => {
                        first.insert(reps.len());
                        plan.push(Plan::Rep(reps.len()));
                        reps.push(i);
                    }
                }
            }
            unique_tasks += reps.len();

            let rep_results: Vec<Arc<Result<RunOutput, UniDmError>>> = self
                .execute_reps(lake, &buffer, &reps)
                .into_iter()
                .map(Arc::new)
                .collect();
            memo.reserve(reps.len());
            for (position, &i) in reps.iter().enumerate() {
                let key = TaskKey(Cow::Owned(buffer[i].clone()));
                memo.insert(key, rep_results[position].clone());
            }

            for slot in plan {
                let result = match slot {
                    Plan::Memo(cached) => (*cached).clone(),
                    Plan::Rep(position) => (*rep_results[position]).clone(),
                };
                sink(next_index, result);
                next_index += 1;
            }
        }
        StreamReport {
            tasks: next_index,
            partitions,
            unique_tasks,
            coalesced_tasks: next_index - unique_tasks,
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

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 30);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 30);
        let config = PipelineConfig::paper_default();

        let serial = BatchRunner::new(&llm, config)
            .with_workers(1)
            .run(&lake, &tasks);
        let parallel = BatchRunner::new(&llm, config)
            .with_workers(6)
            .run(&lake, &tasks);

        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("serial run ok");
            let p = p.as_ref().expect("parallel run ok");
            assert_eq!(s.answer, p.answer);
            assert_eq!(
                s.usage, p.usage,
                "per-run usage must not depend on scheduling"
            );
        }
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
        let results = BatchRunner::new(&llm, PipelineConfig::paper_default())
            .with_workers(4)
            .run(&lake, &tasks);
        assert_eq!(results.len(), 7);
        assert!(matches!(results[3], Err(UniDmError::Table(_))));
        for (i, r) in results.iter().enumerate() {
            if i != 3 {
                assert!(r.is_ok(), "slot {i} should have survived the poisoned slot");
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
        let report = BatchRunner::new(&llm, config)
            .with_workers(4)
            .run_report(&lake, &tasks);
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
        let dispatcher = Dispatcher::new(&llm, backend);
        let cache = PromptCache::unbounded(&dispatcher);
        let report = BatchRunner::new(&cache, config)
            .with_workers(4)
            .with_pipeline(&dispatcher)
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
        // dispatcher call, and every call either launched a fresh request
        // or coalesced onto a pending/memoized one — nothing double-fires.
        let stats = dispatcher.stats();
        assert_eq!(stats.calls, stats.attempts + stats.dispatch_coalesced);
        assert_eq!(stats.calls as usize, cache.stats().misses);
        assert!(stats.attempts > 0);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn runner_defaults_self_tune_from_the_machine() {
        let (_, llm) = setup();
        let runner = BatchRunner::new(&llm, PipelineConfig::paper_default());
        assert_eq!(runner.workers(), default_workers());
        assert!(runner.workers() >= 1);
        assert!(runner.pipeline().is_none());
    }

    #[test]
    fn every_worker_count_and_mode_matches_the_serial_run() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 6);
        let lake: DataLake = [ds.table.clone()].into_iter().collect();
        let tasks = imputation_tasks(&ds, 6);
        let config = PipelineConfig::paper_default();
        let serial = BatchRunner::new(&llm, config)
            .with_workers(1)
            .run(&lake, &tasks);
        assert_eq!(serial.len(), tasks.len());

        // 1, 2 and 8 workers, and more workers than there are tasks.
        for workers in [1, 2, 8, tasks.len() + 3] {
            let pool = BatchRunner::new(&llm, config).with_workers(workers);
            assert_eq!(pool.run(&lake, &tasks), serial, "pool, {workers} workers");
            assert!(pool.run(&lake, &[]).is_empty(), "zero tasks, {workers}");

            let backend = crate::BackendConfig::resilient(7)
                .without_breaker()
                .with_pipelined();
            let dispatcher = Dispatcher::new(&llm, backend);
            let pipelined = BatchRunner::new(&dispatcher, config)
                .with_workers(workers)
                .with_pipeline(&dispatcher);
            assert_eq!(
                pipelined.run(&lake, &tasks),
                serial,
                "pipelined, {workers} workers"
            );
            assert!(
                pipelined.run(&lake, &[]).is_empty(),
                "zero tasks, {workers}"
            );
            let stats = dispatcher.stats();
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
        let plain = BatchRunner::new(&llm, config)
            .with_workers(4)
            .run(&lake, &tasks);
        let plain_tokens = llm.usage().total();

        llm.reset_usage();
        let cache = PromptCache::unbounded(&llm);
        let cached = BatchRunner::new(&cache, config)
            .with_workers(4)
            .run(&lake, &tasks);
        let cached_tokens = llm.usage().total();

        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.as_ref().unwrap().answer, b.as_ref().unwrap().answer);
        }
        let stats = cache.stats();
        assert!(
            stats.hits + stats.coalesced > 0,
            "tasks on one table must share prompts"
        );
        assert!(
            cached_tokens < plain_tokens,
            "cache should save model tokens: {cached_tokens} vs {plain_tokens}"
        );
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

        let cache = PromptCache::new(&llm, 256);
        let runner = BatchRunner::new(&cache, PipelineConfig::paper_default()).with_workers(7);
        let serial = runner.with_workers(1).run(&lake, &tasks);
        let parallel = runner.run(&lake, &tasks);
        for (kind, (s, p)) in tasks
            .iter()
            .map(Task::kind)
            .zip(serial.iter().zip(&parallel))
        {
            let s = s
                .as_ref()
                .unwrap_or_else(|e| panic!("{kind:?} serial failed: {e}"));
            let p = p
                .as_ref()
                .unwrap_or_else(|e| panic!("{kind:?} parallel failed: {e}"));
            assert_eq!(
                s.answer, p.answer,
                "{kind:?} answer must not depend on scheduling"
            );
            assert_eq!(
                s.usage, p.usage,
                "{kind:?} usage must not depend on scheduling"
            );
        }
    }
}
