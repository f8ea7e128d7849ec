//! Golden acceptance tests for streaming batch execution: for the same
//! task sequence, [`BatchRunner::run_streaming`] must give the outputs of
//! the materialized [`BatchRunner::run_report`] — full
//! [`unidm::RunOutput`] equality (answers, per-run usage, trace prompts)
//! and identical cache keys — at every partition size, with dedup on and
//! off, under both dispatch modes (blocking and pipelined), and under
//! seeded fault injection. Its dedup counters are per partition: the sums
//! of `run_report` over the task list's partitions.
//!
//! The cache-key test sweeps 1 and 8 cache shards itself, and the
//! fault-schedule seed honors `UNIDM_FAULT_SEED` (the CI matrix runs seeds
//! 7/1337), so both axes are exercised on every push.

use unidm::{
    BackendConfig, BatchRunner, CanonLevel, Dispatcher, PipelineConfig, PromptCache, RunOutput,
    Task, UniDmError,
};
use unidm_llm::{FaultPlan, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 30;

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set (the CI matrix
/// runs 7 and 1337), 7 otherwise.
fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// An imputation workload with duplicates interleaved so that repeated
/// tasks land in different partitions at small partition sizes.
fn workload() -> (MockLlm, DataLake, Vec<Task>) {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let ds = imputation::restaurant(&world, 42, WORKLOAD);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let base: Vec<Task> = ds
        .targets
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
    // Every third task repeats later in the stream, far enough away that
    // partitions of <= 16 tasks see the duplicate in a *later* partition,
    // where it runs again.
    let mut tasks = base.clone();
    tasks.extend(base.iter().step_by(3).cloned());
    (llm, lake, tasks)
}

/// `(unique_tasks, coalesced_tasks)` summed over `run_report` on each
/// `partition_tasks`-sized window of `tasks`.
fn per_partition_counts(
    runner: &BatchRunner<'_>,
    lake: &DataLake,
    tasks: &[Task],
    partition_tasks: usize,
) -> (usize, usize) {
    tasks
        .chunks(partition_tasks)
        .map(|window| runner.run_report(lake, window))
        .fold((0, 0), |(unique, coalesced), report| {
            (
                unique + report.unique_tasks,
                coalesced + report.coalesced_tasks,
            )
        })
}

/// Collects `run_streaming` outputs, asserting the sink sees results in
/// task order.
fn stream_all(
    runner: &BatchRunner<'_>,
    lake: &DataLake,
    tasks: &[Task],
) -> (Vec<Result<RunOutput, UniDmError>>, unidm::StreamReport) {
    let mut out = Vec::with_capacity(tasks.len());
    let report = runner.run_streaming(lake, tasks.iter().cloned(), |i, result| {
        assert_eq!(i, out.len(), "sink must be called in task order");
        out.push(result);
    });
    (out, report)
}

#[test]
fn streaming_equals_materialized_at_every_partition_size() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    for dedup in [true, false] {
        let reference = BatchRunner::new(&llm, pipeline)
            .with_workers(1)
            .with_dedup(dedup);
        let report = reference.run_report(&lake, &tasks);
        for partition_tasks in [1, 3, 16, 64, 1000] {
            let runner = BatchRunner::new(&llm, pipeline)
                .with_workers(1)
                .with_dedup(dedup)
                .with_partition_tasks(partition_tasks);
            let (streamed, stream_report) = stream_all(&runner, &lake, &tasks);
            assert_eq!(
                streamed, report.results,
                "streaming (dedup {dedup}, partition {partition_tasks}) diverged"
            );
            assert_eq!(stream_report.tasks, tasks.len());
            assert_eq!(
                (stream_report.unique_tasks, stream_report.coalesced_tasks),
                per_partition_counts(&reference, &lake, &tasks, partition_tasks),
                "dedup counters are run_report's, partition by partition \
                 (dedup {dedup}, partition {partition_tasks})"
            );
            assert_eq!(
                stream_report.partitions,
                tasks.len().div_ceil(partition_tasks.max(1))
            );
        }
    }
}

#[test]
fn streaming_produces_identical_cache_keys_and_stats() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);

    // Materialized run over a fresh cache at the default 8 shards.
    let reference_cache = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::TableStem);
    let report = BatchRunner::new(&reference_cache, pipeline)
        .with_workers(1)
        .with_dedup(true)
        .run_report(&lake, &tasks);

    // Streaming runs over fresh caches of 1 and 8 shards: same canonical
    // keys, same misses, same outputs. A task repeated in a later
    // partition runs again and hits the cache, so hits may only rise.
    for shards in [1, 8] {
        let streaming_cache = PromptCache::unbounded(&llm)
            .with_shards(shards)
            .with_canonicalization(CanonLevel::TableStem);
        let runner = BatchRunner::new(&streaming_cache, pipeline)
            .with_workers(1)
            .with_dedup(true)
            .with_partition_tasks(8);
        let (streamed, _) = stream_all(&runner, &lake, &tasks);
        assert_eq!(streamed, report.results, "{shards} shards");
        assert_eq!(
            streaming_cache.canonical_prompts(),
            reference_cache.canonical_prompts(),
            "streaming must produce byte-identical canonical cache keys ({shards} shards)"
        );
        let (streamed, reference) = (streaming_cache.stats(), reference_cache.stats());
        assert_eq!(
            streamed.misses, reference.misses,
            "the model sees the same prompts ({shards} shards)"
        );
        assert!(
            streamed.hits >= reference.hits,
            "cross-partition repeats hit the cache ({shards} shards): {streamed:?} vs {reference:?}"
        );
    }
}

#[test]
fn streaming_on_eight_workers_matches_the_serial_run() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let serial = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .with_dedup(true)
        .run_report(&lake, &tasks);
    let runner = BatchRunner::new(&llm, pipeline)
        .with_workers(8)
        .with_dedup(true)
        .with_partition_tasks(16);
    let (streamed, stream_report) = stream_all(&runner, &lake, &tasks);
    assert_eq!(
        streamed, serial.results,
        "8-worker streaming partitions must match the serial materialized run"
    );
    assert_eq!(
        (stream_report.unique_tasks, stream_report.coalesced_tasks),
        per_partition_counts(&runner, &lake, &tasks, 16)
    );
}

#[test]
fn streaming_under_faults_matches_the_fault_free_run() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let fault_free = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .with_dedup(true)
        .run_report(&lake, &tasks);
    let fault_free_answers: Vec<Option<String>> = fault_free
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|o| o.answer.clone()))
        .collect();

    let base = fault_seed();
    for seed in [base, 1337] {
        let backend = BackendConfig::resilient(seed)
            .with_faults(FaultPlan::moderate(seed))
            .wrap(&llm);
        let runner = BatchRunner::new(backend.model(), pipeline)
            .with_workers(1)
            .with_dedup(true)
            .with_partition_tasks(8);
        let (streamed, stream_report) = stream_all(&runner, &lake, &tasks);
        let streamed_answers: Vec<Option<String>> = streamed
            .iter()
            .map(|r| r.as_ref().ok().map(|o| o.answer.clone()))
            .collect();
        assert_eq!(
            streamed_answers, fault_free_answers,
            "faults (seed {seed}) must never change streamed answers"
        );
        assert_eq!(
            (stream_report.unique_tasks, stream_report.coalesced_tasks),
            per_partition_counts(&BatchRunner::new(&llm, pipeline), &lake, &tasks, 8)
        );
        let stats = backend.stats().expect("backend attached");
        assert_eq!(stats.failures, 0, "every faulty call must complete");
    }
}

#[test]
fn streaming_through_the_pipelined_dispatcher_matches_blocking() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let blocking = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .with_dedup(true)
        .run_report(&lake, &tasks);
    let blocking_answers: Vec<Option<String>> = blocking
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|o| o.answer.clone()))
        .collect();

    let seed = fault_seed();
    let dispatcher = Dispatcher::new(
        &llm,
        BackendConfig::resilient(seed)
            .without_breaker()
            .with_faults(FaultPlan::heavy_tail(seed))
            .with_pipelined(),
    );
    // One thread keeps the window in flight; a lookup of a key already in
    // flight is coalesced by the reactor below.
    let cache = PromptCache::unbounded(&dispatcher).with_canonicalization(CanonLevel::TableStem);
    let runner = BatchRunner::new(&cache, pipeline)
        .with_workers(8)
        .with_dedup(true)
        .with_partition_tasks(16)
        .with_pipeline(&dispatcher, Some(&cache));
    let (streamed, stream_report) = stream_all(&runner, &lake, &tasks);
    let streamed_answers: Vec<Option<String>> = streamed
        .iter()
        .map(|r| r.as_ref().ok().map(|o| o.answer.clone()))
        .collect();
    assert_eq!(
        streamed_answers, blocking_answers,
        "pipelined streaming answers must be bit-identical to blocking"
    );
    assert_eq!(
        (stream_report.unique_tasks, stream_report.coalesced_tasks),
        per_partition_counts(&BatchRunner::new(&llm, pipeline), &lake, &tasks, 16)
    );
    assert_eq!(dispatcher.stats().failures, 0);
}
