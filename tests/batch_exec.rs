//! Acceptance test for the parallel batch execution engine: a 50+-task
//! imputation workload run serially, batched, and batched+cached must
//! produce identical answers, with the cached path consuming strictly
//! fewer model tokens — and per-run usage must come from the run's own
//! meter, never from the model's global counter.

mod common;

use common::{task_mix, PromptLog};
use unidm::{BatchRunner, PipelineConfig, PromptCache, RunOutput, Task, UniDm};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 60;

fn workload() -> (MockLlm, DataLake, Vec<Task>) {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let ds = imputation::restaurant(&world, 42, WORKLOAD);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let tasks: Vec<Task> = ds
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
    (llm, lake, tasks)
}

#[test]
fn batched_cached_workload_saves_tokens_with_identical_answers() {
    let (llm, lake, tasks) = workload();
    assert!(tasks.len() >= 50, "workload must be at least 50 tasks");
    let config = PipelineConfig::paper_default().with_seed(42);

    // Serial reference: workers = 1, no cache.
    llm.reset_usage();
    let serial = BatchRunner::new(&llm, config)
        .with_workers(1)
        .run(&lake, &tasks);
    let serial_tokens = llm.usage().total();

    // Batched + cached: shared worker pool over a prompt cache.
    llm.reset_usage();
    let cache = PromptCache::unbounded(&llm);
    let cached = BatchRunner::new(&cache, config).run(&lake, &tasks);
    let cached_tokens = llm.usage().total();

    // Identical answers and identical per-run usage, slot by slot.
    assert_eq!(serial.len(), cached.len());
    for (s, c) in serial.iter().zip(&cached) {
        let s = s.as_ref().expect("serial run ok");
        let c = c.as_ref().expect("cached run ok");
        assert_eq!(s.answer, c.answer);
        assert_eq!(
            s.usage, c.usage,
            "per-run usage must be schedule- and cache-invariant"
        );
    }

    // The cache must have deduplicated cross-task prompts.
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "expected cache hits across {} tasks: {stats:?}",
        tasks.len()
    );
    assert!(
        cached_tokens < serial_tokens,
        "batched+cached must consume fewer model tokens: {cached_tokens} vs {serial_tokens}"
    );
    assert_eq!(
        serial_tokens,
        cached_tokens + stats.tokens_saved,
        "every token must be either paid to the model or accounted as saved"
    );
}

#[test]
fn per_run_usage_is_independent_of_global_counter() {
    let (llm, lake, tasks) = workload();
    let unidm = UniDm::new(&llm, PipelineConfig::paper_default().with_seed(42));

    // Pollute the global counter between two identical runs; the per-run
    // meter must not notice.
    let first = unidm.run(&lake, &tasks[0]).expect("run ok");
    for _ in 0..5 {
        llm.complete("background traffic that a global diff would misattribute")
            .unwrap();
    }
    let second = unidm.run(&lake, &tasks[0]).expect("run ok");
    assert!(first.usage.total() > 0);
    assert_eq!(first.usage, second.usage);
    assert_eq!(first.answer, second.answer);
}

#[test]
fn parallel_equals_serial_on_the_workload() {
    let (llm, lake, tasks) = workload();
    let config = PipelineConfig::paper_default().with_seed(42);
    let serial = BatchRunner::new(&llm, config)
        .with_workers(1)
        .run(&lake, &tasks);
    let parallel = BatchRunner::new(&llm, config)
        .with_workers(8)
        .run(&lake, &tasks);
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.as_ref().expect("serial ok");
        let p = p.as_ref().expect("parallel ok");
        assert_eq!(s.answer, p.answer);
        assert_eq!(s.usage, p.usage);
    }
}

/// The record frame's identity promise: a `UniDm` that has served a
/// hundred tasks sends the model exactly what a new one would.
#[test]
fn long_lived_pipeline_sends_the_prompts_a_fresh_one_would() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let (lake, grouped) = task_mix(&world, 42, 10);
    // Kind after kind every frame and the pool memo hit; striding by 11
    // switches table, projection and pool on nearly every task.
    let strided = (0..grouped.len()).map(|i| grouped[i * 11 % grouped.len()].clone());
    let tasks: Vec<Task> = grouped.iter().cloned().chain(strided).collect();
    let kinds: std::collections::HashSet<_> = tasks.iter().map(std::mem::discriminant).collect();
    assert_eq!(
        (kinds.len(), grouped.len()),
        (7, 80),
        "ten a kind, ER twice"
    );
    for config in [PipelineConfig::paper_default(), PipelineConfig::all_off()] {
        let config = config.with_seed(42);
        let shared_log = PromptLog::new(&llm);
        let shared = UniDm::new(&shared_log, config);
        let kept: Vec<RunOutput> = tasks
            .iter()
            .map(|t| shared.run(&lake, t).expect("shared run ok"))
            .collect();
        let fresh_log = PromptLog::new(&llm);
        let fresh: Vec<RunOutput> = tasks
            .iter()
            .map(|t| {
                UniDm::new(&fresh_log, config)
                    .run(&lake, t)
                    .expect("fresh run ok")
            })
            .collect();
        assert!(
            shared_log.prompts() == fresh_log.prompts(),
            "prompts differ"
        );
        assert!(kept == fresh, "outputs differ");
        for workers in [1, 8] {
            let batched = BatchRunner::new(&llm, config)
                .with_workers(workers)
                .run(&lake, &tasks);
            let batched: Vec<RunOutput> = batched.into_iter().map(|r| r.expect("ok")).collect();
            assert!(batched == kept, "{workers} workers differ");
        }
    }
}
