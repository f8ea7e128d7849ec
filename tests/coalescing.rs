//! Acceptance tests for single-flight request coalescing: a
//! duplicate-heavy workload across 1/2/8 workers and 1/8 cache shards must
//! issue **exactly one** endpoint call per unique canonical key, produce answers
//! bit-identical to serial, and report exact `CacheStats` — including the
//! new `coalesced` counter, pinned precisely under a forced-overlap
//! schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

    // One shard puts every leader and waiter on one lock; eight is the
    // default.
    for (workers, shards) in [(2usize, 1usize), (2, 8), (8, 1), (8, 8)] {
        let model = CountingModel::new(&llm);
        let cache = PromptCache::unbounded(&model)
            .with_shards(shards)
            .with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, config)
            .with_workers(workers)
            .with_dedup(false)
            .answers(&lake, &tasks);
        assert_eq!(
            answers, serial_answers,
            "{workers} workers, {shards} shards: answers must be bit-identical to serial"
        );
        let per_prompt = model.per_prompt_calls();
        assert_eq!(
            per_prompt.len(),
            unique_keys,
            "{workers} workers, {shards} shards: endpoint must see exactly the unique canonical keys"
        );
        for (prompt, calls) in per_prompt {
            assert_eq!(
                calls, 1,
                "{workers} workers, {shards} shards: single-flight must fold duplicate calls for {prompt:?}"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.misses, unique_keys,
            "{workers} workers, {shards} shards: misses count leaders only, one per unique key"
        );
        assert_eq!(
            stats.lookups(),
            serial_stats.lookups(),
            "{workers} workers, {shards} shards: total lookups are schedule-independent"
        );
        assert_eq!(
            stats.hits + stats.coalesced,
            serial_stats.hits,
            "{workers} workers, {shards} shards: every duplicate lookup is served without an endpoint call"
        );
        assert_eq!(
            stats.tokens_saved, serial_stats.tokens_saved,
            "{workers} workers, {shards} shards: tokens saved are exact whatever the hit/coalesce split"
        );
    }
}

/// A model whose completions block until the test opens the gate — this
/// pins the coalesced counter exactly: with the leader parked inside the
/// endpoint, every other thread *must* join its in-flight slot.
struct GateModel<'a> {
    inner: &'a MockLlm,
    open: Mutex<bool>,
    opened: Condvar,
    calls: AtomicUsize,
    fail: bool,
}

impl<'a> GateModel<'a> {
    fn new(inner: &'a MockLlm, fail: bool) -> Self {
        GateModel {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            calls: AtomicUsize::new(0),
            fail,
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl LanguageModel for GateModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        if self.fail {
            return Err(LlmError::Transient { status: 503 });
        }
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

fn spin_until(deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < deadline,
            "condition not reached within {deadline:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn forced_overlap_pins_the_coalesced_counter_exactly() {
    const FOLLOWERS: usize = 5;
    let world = World::generate(7);
    let inner = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
    let gate = GateModel::new(&inner, false);
    let cache = PromptCache::unbounded(&gate);
    let prompt = "the capital of Denmark is __.";

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..1 + FOLLOWERS {
            handles.push(scope.spawn(|| cache.complete(prompt).unwrap()));
        }
        // The leader is parked inside the endpoint; every follower must
        // have joined its slot before we open the gate — so the coalesced
        // count is exact, not a race.
        spin_until(Duration::from_secs(10), || {
            cache.stats().coalesced == FOLLOWERS
        });
        assert_eq!(gate.calls(), 1, "only the leader may reach the endpoint");
        gate.open();
        let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for reply in &replies {
            assert_eq!(reply, &replies[0], "all callers share one completion");
        }
    });

    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.coalesced, stats.hits),
        (1, FOLLOWERS, 0),
        "exact stats under the forced overlap"
    );
    assert_eq!(gate.calls(), 1, "exactly one endpoint call in total");
    // Follow-up lookups are plain hits.
    cache.complete(prompt).unwrap();
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn leader_errors_propagate_to_coalesced_waiters_and_are_not_memoized() {
    const FOLLOWERS: usize = 3;
    let world = World::generate(7);
    let inner = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
    let gate = GateModel::new(&inner, true);
    let cache = PromptCache::unbounded(&gate);
    let prompt = "doomed prompt";

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..1 + FOLLOWERS {
            handles.push(scope.spawn(|| cache.complete(prompt)));
        }
        spin_until(Duration::from_secs(10), || {
            cache.stats().coalesced == FOLLOWERS
        });
        gate.open();
        for handle in handles {
            assert_eq!(
                handle.join().unwrap(),
                Err(LlmError::Transient { status: 503 }),
                "waiters share the leader's error"
            );
        }
    });
    assert_eq!(gate.calls(), 1, "the error cost one endpoint call, not 4");
    assert!(cache.is_empty(), "errors must not be memoized");
    // The slot was cleared: a retry reaches the endpoint again.
    let _ = cache.complete(prompt);
    assert_eq!(gate.calls(), 2, "retry after error leads afresh");
}
