//! Acceptance tests for the resilient backend substrate under seeded
//! fault injection.
//!
//! The contract (ISSUE 3): under any seeded fault schedule — timeouts,
//! 429 rate limits, transient 5xx errors, latency spikes — a batched run
//! through [`SimBackend`] completes with answers bit-identical to the
//! fault-free serial run; re-running the same seed reproduces identical
//! retry/breaker statistics; and cache hits consume zero rate-limit
//! budget.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (CI runs the suite at
//! two distinct seeds), so schedule sensitivity is exercised on every
//! push.

use unidm::backend::{BackendConfig, BackendStats, RetryPolicy};
use unidm::{BatchRunner, CacheStore, CanonLevel, PipelineConfig, PromptCache, StoreConfig, Task};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm, Usage};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 40;

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set (the CI matrix
/// runs two), 7 otherwise.
fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

fn workload() -> (World, MockLlm, DataLake, Vec<Task>) {
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
    (world, llm, lake, tasks)
}

/// A full protection stack for tests: default breaker, a rate limit, and
/// a retry budget deep enough that no interleaving of breaker fast-fails
/// can exhaust it (virtual-clock backoff is free).
fn stack_config(seed: u64, plan: FaultPlan) -> BackendConfig {
    BackendConfig::resilient(seed)
        .with_faults(plan)
        .with_rate_limit(500, 50)
        .with_retry(RetryPolicy {
            max_retries: 32,
            ..RetryPolicy::default()
        })
}

#[test]
fn batched_faulty_answers_are_bit_identical_to_fault_free_serial() {
    let (_, llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let baseline = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);

    let base_seed = fault_seed();
    for seed in [base_seed, base_seed + 1] {
        for plan in [
            FaultPlan::light(seed),
            FaultPlan::moderate(seed),
            FaultPlan::heavy(seed),
            FaultPlan::always_faulty(seed, 5),
        ] {
            let backend = stack_config(seed, plan).wrap(&llm);
            let cache = PromptCache::unbounded(backend.model())
                .with_canonicalization(CanonLevel::TableStem);
            let answers = BatchRunner::new(&cache, pipeline)
                .with_workers(4)
                .answers(&lake, &tasks);
            assert_eq!(
                answers, baseline,
                "plan {plan:?} changed answers despite retries"
            );
            let stats = backend.stats().expect("backend enabled");
            assert_eq!(stats.failures, 0, "plan {plan:?}: every call completes");
            if plan.timeout_permille + plan.rate_limit_permille + plan.transient_permille > 100 {
                assert!(
                    stats.retries > 0,
                    "plan {plan:?} should actually have injected faults: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn rerunning_the_same_seed_reproduces_identical_statistics() {
    let (_, llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let seed = fault_seed();
    let run = || {
        let backend = stack_config(seed, FaultPlan::heavy(seed)).wrap(&llm);
        let cache =
            PromptCache::unbounded(backend.model()).with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, pipeline)
            .with_workers(1)
            .answers(&lake, &tasks);
        (
            answers,
            backend.stats().expect("backend enabled"),
            backend.fault_stats().expect("faults configured"),
            backend.elapsed_us(),
            cache.stats(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "a serial re-run of the same seed must reproduce every retry, trip, \
         wait and injection counter exactly"
    );
    assert!(
        first.1.retries > 0,
        "heavy plan must exercise the retry loop"
    );
}

#[test]
fn aggregate_retry_statistics_are_scheduling_independent() {
    // Fault outcomes are consumed from a fixed per-prompt schedule, so the
    // schedule-driven counters must not depend on thread interleaving.
    // (Breaker and throttle counters are order-sensitive, so this runs
    // breaker-less and compares only the schedule-driven ones.)
    let (_, llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let seed = fault_seed();
    let run = |workers: usize| {
        let config = stack_config(seed, FaultPlan::moderate(seed)).without_breaker();
        let backend = config.wrap(&llm);
        let answers = BatchRunner::new(backend.model(), pipeline)
            .with_workers(workers)
            .answers(&lake, &tasks);
        (answers, backend.stats().expect("backend enabled"))
    };
    let (serial_answers, serial) = run(1);
    let (parallel_answers, parallel) = run(6);
    assert_eq!(serial_answers, parallel_answers);
    for (name, a, b) in [
        ("calls", serial.calls, parallel.calls),
        ("attempts", serial.attempts, parallel.attempts),
        ("retries", serial.retries, parallel.retries),
        ("timeouts", serial.timeouts, parallel.timeouts),
        ("rate_limited", serial.rate_limited, parallel.rate_limited),
        ("transients", serial.transients, parallel.transients),
        ("failures", serial.failures, parallel.failures),
    ] {
        assert_eq!(a, b, "{name} must be scheduling-independent");
    }
}

#[test]
fn cache_hits_consume_zero_rate_limit_budget() {
    let (world, llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let seed = fault_seed();

    let path = std::env::temp_dir().join(format!(
        "unidm-fault-injection-{}.udmstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let open_store =
        || CacheStore::open(&path, llm.name(), StoreConfig::default()).expect("store opens");

    // Cold run: populate the cache, and the store beneath it, through the
    // full faulty stack.
    let cold_backend = stack_config(seed, FaultPlan::moderate(seed)).wrap(&llm);
    let cold_cache = PromptCache::unbounded(cold_backend.model())
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(open_store());
    let cold = BatchRunner::new(&cold_cache, pipeline)
        .with_workers(4)
        .answers(&lake, &tasks);
    assert!(cold_backend.stats().expect("enabled").attempts > 0);
    drop(cold_cache);

    // Warm run: a fresh model, backend and cache over the same store
    // file. Every lookup is served by tier 0 or the store, so nothing may
    // reach the backend — no calls, no attempts, no rate-limit tokens, no
    // retries.
    let fresh_llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let warm_backend = stack_config(seed, FaultPlan::moderate(seed)).wrap(&fresh_llm);
    let warm_cache = PromptCache::unbounded(warm_backend.model())
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(open_store());
    let warm = BatchRunner::new(&warm_cache, pipeline)
        .with_workers(4)
        .answers(&lake, &tasks);

    assert_eq!(warm, cold, "warm answers match the cold faulty run");
    let store_stats = warm_cache.store_stats().expect("store attached");
    assert!(store_stats.hits > 0, "warm run must hit");
    assert_eq!(store_stats.misses, 0, "fully warm replay");
    assert_eq!(
        warm_backend.stats().expect("enabled"),
        BackendStats::default(),
        "cache hits must consume zero backend budget of any kind"
    );
    assert_eq!(
        fresh_llm.usage(),
        Usage::default(),
        "the inner model is never consulted on a warm run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn eval_tables_survive_fault_injection() {
    // The eval wiring: a driver run with ExperimentConfig::backend enabled
    // reproduces the fault-free table exactly.
    use unidm_eval::{imputation::table1, ExperimentConfig};

    let seed = fault_seed();
    let plain = table1(ExperimentConfig::quick());
    let faulty = table1(
        ExperimentConfig::quick().with_backend(stack_config(seed, FaultPlan::moderate(seed))),
    );
    for ds in ["Restaurant", "Buy"] {
        for row in ["UniDM", "UniDM (random)", "FM (random)", "FM (manual)"] {
            assert_eq!(
                plain.cell(row, ds),
                faulty.cell(row, ds),
                "{row}/{ds}: fault injection must not move a paper number"
            );
        }
    }
}

#[test]
fn batch_isolates_per_task_failures_under_faults() {
    // A poisoned task (missing table) fails cleanly while its neighbours
    // complete with correct answers through the faulty stack.
    let (_, llm, lake, mut tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let baseline = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .run(&lake, &tasks);
    tasks.insert(5, Task::imputation("no_such_table", 0, "a", "b"));

    let seed = fault_seed();
    let backend = stack_config(seed, FaultPlan::heavy(seed)).wrap(&llm);
    let results = BatchRunner::new(backend.model(), pipeline)
        .with_workers(4)
        .run(&lake, &tasks);
    assert!(results[5].is_err(), "poisoned slot fails");
    for (i, r) in results.iter().enumerate() {
        if i == 5 {
            continue;
        }
        let baseline_i = if i < 5 { i } else { i - 1 };
        assert_eq!(
            r.as_ref().expect("healthy slot completes").answer,
            baseline[baseline_i].as_ref().unwrap().answer,
            "slot {i} answer must survive faults around a poisoned neighbour"
        );
    }
}
