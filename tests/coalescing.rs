//! Acceptance tests for single-flight request coalescing: a
//! duplicate-heavy workload in pipelined windows of 1/8/64 runs over 1/8
//! cache shards must issue **exactly one** endpoint call per unique
//! canonical key, produce answers bit-identical to serial, and report exact
//! `CacheStats`; and two threads racing blocking lookups on one key set
//! keep `misses`, `tokens_saved` and the resident keys exact.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use unidm::backend::BackendConfig;
use unidm::RoutedBackend;
use unidm::{BatchRunner, CanonLevel, PipelineConfig, PromptCache, Task};
use unidm_llm::{Completion, LanguageModel, LlmError, LlmProfile, MockLlm, Usage};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

/// Wraps a model and counts endpoint calls per prompt — the ground truth
/// for "exactly one call per unique canonical key".
struct CountingModel<'a> {
    inner: &'a MockLlm,
    calls: Mutex<HashMap<String, usize>>,
}

impl<'a> CountingModel<'a> {
    fn new(inner: &'a MockLlm) -> Self {
        CountingModel {
            inner,
            calls: Mutex::new(HashMap::new()),
        }
    }

    fn per_prompt_calls(&self) -> HashMap<String, usize> {
        self.calls.lock().unwrap().clone()
    }

    fn calls(&self) -> usize {
        self.calls.lock().unwrap().values().sum()
    }
}

impl LanguageModel for CountingModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        *self
            .calls
            .lock()
            .unwrap()
            .entry(prompt.to_string())
            .or_insert(0) += 1;
        // Give up the time slice while the key is in flight, so a racing
        // thread gets to look it up meanwhile.
        std::thread::yield_now();
        self.inner.complete(prompt)
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage();
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

fn duplicate_heavy_workload() -> (MockLlm, DataLake, Vec<Task>) {
    let world = World::generate(1301);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1301);
    let ds = imputation::restaurant(&world, 1301, 12);
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
    // Each task four times, interleaved: the duplicate-heavy shape.
    let tasks = (0..base.len() * 4)
        .map(|i| base[i % base.len()].clone())
        .collect();
    (llm, lake, tasks)
}

#[test]
fn one_endpoint_call_per_unique_canonical_key_across_worker_counts() {
    let (llm, lake, tasks) = duplicate_heavy_workload();
    let config = PipelineConfig::paper_default().with_seed(1301);

    // Serial reference with the dedup planner off: every duplicate task
    // runs, so the cache sees the full duplicate-heavy lookup stream and
    // its miss count is the number of unique canonical keys.
    let serial_model = CountingModel::new(&llm);
    let serial_cache =
        PromptCache::unbounded(&serial_model).with_canonicalization(CanonLevel::TableStem);
    let serial_answers = BatchRunner::new(&serial_cache, config)
        .with_workers(1)
        .with_dedup(false)
        .answers(&lake, &tasks);
    let serial_stats = serial_cache.stats();
    let unique_keys = serial_stats.misses;
    assert!(unique_keys > 0);
    assert_eq!(serial_stats.coalesced, 0, "serial runs can never coalesce");
    for (prompt, calls) in serial_model.per_prompt_calls() {
        assert_eq!(calls, 1, "serial: duplicate call for {prompt:?}");
    }

    // A window of one run never coalesces; 64 runs hold every task of a
    // round in flight at once. One shard puts every key on one lock; eight
    // is the default.
    for (width, shards) in [(1usize, 1usize), (8, 1), (8, 8), (64, 1), (64, 8)] {
        let model = CountingModel::new(&llm);
        let dispatcher = RoutedBackend::single(
            &model,
            BackendConfig::resilient(1301)
                .without_breaker()
                .with_pipelined(),
        );
        let cache = PromptCache::unbounded(&dispatcher)
            .with_shards(shards)
            .with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, config)
            .with_workers(width)
            .with_dedup(false)
            .with_pipeline(&dispatcher, Some(&cache))
            .answers(&lake, &tasks);
        assert_eq!(
            answers, serial_answers,
            "window {width}, {shards} shards: answers must be bit-identical to serial"
        );
        let per_prompt = model.per_prompt_calls();
        assert_eq!(
            per_prompt.len(),
            unique_keys,
            "window {width}, {shards} shards: endpoint must see exactly the unique canonical keys"
        );
        for (prompt, calls) in per_prompt {
            assert_eq!(
                calls, 1,
                "window {width}, {shards} shards: single-flight must fold duplicate calls for {prompt:?}"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.misses, unique_keys,
            "window {width}, {shards} shards: misses count leaders only, one per unique key"
        );
        assert_eq!(
            stats.lookups(),
            serial_stats.lookups(),
            "window {width}, {shards} shards: total lookups are schedule-independent"
        );
        assert_eq!(
            stats.hits + stats.coalesced,
            serial_stats.hits,
            "window {width}, {shards} shards: every duplicate lookup is served without an endpoint call"
        );
        assert_eq!(
            stats.tokens_saved, serial_stats.tokens_saved,
            "window {width}, {shards} shards: tokens saved are exact whatever the hit/coalesce split"
        );
    }
}

/// Two threads race blocking lookups over one key set, in the same order
/// and with no gate: a lookup that finds its key in flight on the other
/// thread fetches it itself. However the race falls, the counters stay
/// exact.
#[test]
fn racing_blocking_lookups_fetch_for_themselves_and_keep_the_counters_exact() {
    const KEYS: usize = 64;
    const ROUNDS: usize = 3;
    let world = World::generate(7);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
    let model = CountingModel::new(&llm);
    let cache = PromptCache::unbounded(&model).with_shards(2);
    let prompts: Vec<String> = (0..KEYS)
        .map(|k| format!("contended prompt number {k}"))
        .collect();
    let usages = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (cache, prompts, usages) = (&cache, &prompts, &usages);
            scope.spawn(move || {
                for i in 0..ROUNDS * KEYS {
                    let reply = cache.complete(&prompts[i % KEYS]).expect("completes");
                    usages.lock().unwrap().push(reply.usage.total());
                }
            });
        }
    });
    let usages = usages.into_inner().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.lookups(), usages.len(), "every lookup counted");
    assert_eq!(stats.coalesced, 0, "a blocking lookup never coalesces");
    assert_eq!(stats.misses, model.calls(), "one inner call per miss");
    assert_eq!(
        stats.tokens_saved + llm.usage().total(),
        usages.iter().sum::<usize>(),
        "every lookup's tokens were either processed below or saved"
    );
    assert_eq!(cache.len(), KEYS, "one resident entry per distinct key");
}
