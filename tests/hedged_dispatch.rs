//! Acceptance tests for the event-driven dispatcher's hedged requests.
//!
//! The contract (ISSUE 6): hedging a straggler — duplicating an attempt
//! once it exceeds the observed latency quantile, first response wins —
//! must be invisible everywhere except the tail. Answers stay
//! bit-identical to the fault-free serial run at every worker count and
//! fault seed; losing copies are cancelled, never delivered and never
//! memoized (neither in the dispatcher's memo nor in a `PromptCache`
//! above it); a hedge duplicate consumes **no** rate-limit token, so the
//! budget is charged exactly once per winner;
//! and because the reactor only advances virtual time at quiescence, the
//! aggregate hedge counters are a pure function of the request set —
//! independent of OS thread scheduling.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (CI runs the suite
//! at two distinct seeds), so schedule sensitivity is exercised on every
//! push.

use unidm::backend::BackendConfig;
use unidm::dispatch::{Dispatcher, HedgePolicy};
use unidm::{BatchRunner, CacheStore, CanonLevel, PipelineConfig, PromptCache, StoreConfig, Task};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 30;

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set (the CI matrix
/// runs two), 7 otherwise.
fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

fn workload() -> (MockLlm, DataLake, Vec<Task>) {
    workload_of(WORKLOAD)
}

fn workload_of(queries: usize) -> (MockLlm, DataLake, Vec<Task>) {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let ds = imputation::restaurant(&world, 42, queries);
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

/// A hedged pipelined config on a heavy-tail latency plan: no injected
/// errors, 3% of attempts stall at 40× the base latency — the regime
/// where hedging is the whole story.
fn hedged_config(seed: u64) -> BackendConfig {
    BackendConfig::resilient(seed)
        .without_breaker()
        .with_faults(FaultPlan::heavy_tail(seed))
        .with_pipelined()
        .with_hedge(HedgePolicy::at_quantile(900).with_min_samples(8))
}

/// Warms the dispatcher's latency estimator with `n` distinct throwaway
/// prompts so the measured workload can arm hedge timers from its very
/// first wave, then clears the inner model's usage ledger.
fn warm_estimator(dispatcher: &Dispatcher<'_>, llm: &MockLlm, n: u64) {
    for i in 0..n {
        dispatcher
            .complete(&format!("latency estimator warmup {i}"))
            .expect("warmup prompt completes");
    }
    llm.reset_usage();
}

/// Spawns `workers` registered threads that all pass a barrier before
/// touching the dispatcher, then run `work(worker_index)` — the
/// registered-worker shape `BatchRunner`'s pipelined mode uses.
fn fan_out(dispatcher: &Dispatcher<'_>, workers: usize, work: impl Fn(usize) + Sync) {
    let barrier = std::sync::Barrier::new(workers);
    std::thread::scope(|scope| {
        for t in 0..workers {
            let (d, b, work) = (dispatcher, &barrier, &work);
            scope.spawn(move || {
                let _registration = d.register();
                b.wait();
                work(t);
            });
        }
    });
}

/// First-response-wins determinism: the full production shape
/// (`BatchRunner` pipelined mode → `PromptCache` →
/// `Dispatcher` with hedging → heavy-tail `SimBackend`) returns answers
/// bit-identical to the fault-free serial run at 1 and 8 workers and at
/// two fault seeds.
#[test]
fn hedged_answers_bit_identical_across_seeds_and_worker_counts() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default();
    let reference = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);

    let base = fault_seed();
    for seed in [base, base.wrapping_mul(31).wrapping_add(1000)] {
        for workers in [1usize, 8] {
            let dispatcher = Dispatcher::new(&llm, hedged_config(seed));
            warm_estimator(&dispatcher, &llm, 8);
            let cache =
                PromptCache::unbounded(&dispatcher).with_canonicalization(CanonLevel::TableStem);
            let report = BatchRunner::new(&cache, pipeline)
                .with_workers(workers)
                .with_pipeline(&dispatcher)
                .run_report(&lake, &tasks);
            let answers: Vec<String> = report
                .results
                .iter()
                .map(|r| r.as_ref().expect("task completes").answer.clone())
                .collect();
            assert_eq!(
                answers, reference,
                "hedging must never change answers (seed {seed}, {workers} workers)"
            );
            let stats = dispatcher.stats();
            assert_eq!(stats.failures, 0, "heavy-tail injects no errors");
            assert_eq!(
                stats.hedges_cancelled, stats.hedges_issued,
                "no errors, so every issued hedge has exactly one cancelled loser"
            );
        }
    }
}

/// Answers, virtual makespan and the full `BackendStats` of one batch.
type Timeline = (Vec<String>, u64, unidm::BackendStats);

/// One pipelined batch of `tasks` on 64 seated workers over a fresh,
/// warmed dispatcher, driven directly or through a cache keyed at `cache`.
fn timeline(
    (llm, lake, tasks): &(MockLlm, DataLake, Vec<Task>),
    hedged: bool,
    cache: Option<CanonLevel>,
) -> Timeline {
    let seed = fault_seed();
    let mut config = BackendConfig::resilient(seed)
        .without_breaker()
        .with_faults(FaultPlan::heavy_tail(seed))
        .with_pipelined();
    if hedged {
        config = config.with_hedge(HedgePolicy::at_quantile(900).with_min_samples(8));
    }
    let dispatcher = Dispatcher::new(llm, config);
    warm_estimator(&dispatcher, llm, 8);
    let cache = cache.map(|level| PromptCache::unbounded(&dispatcher).with_canonicalization(level));
    let model: &dyn LanguageModel = match &cache {
        Some(cache) => cache,
        None => &dispatcher,
    };
    let answers = BatchRunner::new(model, PipelineConfig::paper_default())
        .with_workers(64)
        .with_pipeline(&dispatcher)
        .answers(lake, tasks);
    (answers, dispatcher.clock().now_micros(), dispatcher.stats())
}

/// Under a cache, woken workers race the winner's cache insert: a repeat
/// of a resolved prompt is a cache hit or a dispatcher memo hit, both
/// immediate. Only their sum is a function of the request set (with no
/// cache it is the memo's alone), so the repeats are folded out.
fn without_repeats((answers, makespan_us, mut stats): Timeline) -> Timeline {
    stats.calls -= stats.dispatch_coalesced;
    stats.dispatch_coalesced = 0;
    (answers, makespan_us, stats)
}

/// Seats precede work: a pipelined `BatchRunner` registers all 64 workers
/// with the dispatcher before any of them issues a call, so the virtual
/// timeline — makespan and the full `BackendStats`, latency sketches
/// included — is a function of the request set, not of which OS thread
/// started first. Plain and hedged, straight onto the dispatcher and
/// through the cache the ledger's regimes use, five runs each, all
/// identical.
#[test]
fn pipelined_batch_timeline_is_identical_across_runs() {
    // One task per worker, so all 64 are spawned.
    let workload = workload_of(64);
    for cache in [None, Some(CanonLevel::TableStem)] {
        for hedged in [false, true] {
            let run = || match cache {
                None => timeline(&workload, hedged, None),
                Some(_) => without_repeats(timeline(&workload, hedged, cache)),
            };
            let first = run();
            for rerun in 1..5 {
                assert_eq!(
                    run(),
                    first,
                    "rerun {rerun} (hedged: {hedged}, {cache:?}) moved the virtual timeline"
                );
            }
        }
    }
}

/// A cache nobody configured (`Verbatim` is the level it starts at: exact
/// keys, so the dispatcher sees the prompts a direct run sends it) sits
/// above a pipelined dispatcher without being told to: its seated workers
/// never wait in an in-flight slot, so the reactor reaches quiescence on
/// its own and the batch is the batch a direct run produces — answers,
/// makespan and every backend counter — plain and hedged, five runs each.
#[test]
fn default_cache_above_a_pipelined_dispatcher_keeps_the_direct_timeline() {
    let workload = workload_of(64);
    for hedged in [false, true] {
        let direct = without_repeats(timeline(&workload, hedged, None));
        let default_cache = Some(CanonLevel::Verbatim);
        for run in 0..5 {
            assert_eq!(
                without_repeats(timeline(&workload, hedged, default_cache)),
                direct,
                "run {run} (hedged: {hedged}) through a default cache left the direct timeline"
            );
        }
    }
}

/// Losers are never memoized: after a hedged batch, the store the
/// `PromptCache` persisted to, replayed over the bare model, answers the
/// whole workload with **zero** model calls and answers bit-identical to
/// the fault-free reference — so everything the hedged run memoized is a
/// winner's completion, and nothing else was inserted.
#[test]
fn losing_copies_are_never_memoized() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default();
    let reference = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);

    let seed = fault_seed();
    let dispatcher = Dispatcher::new(&llm, hedged_config(seed));
    warm_estimator(&dispatcher, &llm, 8);
    let path = std::env::temp_dir().join(format!(
        "unidm-hedged-dispatch-{}.udmstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let open_store =
        || CacheStore::open(&path, llm.name(), StoreConfig::default()).expect("store opens");
    let cache = PromptCache::unbounded(&dispatcher)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(open_store());
    BatchRunner::new(&cache, pipeline)
        .with_workers(8)
        .with_pipeline(&dispatcher)
        .run_report(&lake, &tasks);
    let stats = dispatcher.stats();
    assert_eq!(stats.failures, 0);

    // Requests the dispatcher resolved stay memoized as the winner's
    // bytes: replaying a unique prompt adds zero endpoint attempts.
    let attempts_before = stats.attempts;
    let memo_hit = dispatcher.stats().dispatch_coalesced;
    let direct = llm.complete("The capital of Denmark is __.").unwrap();
    let first = dispatcher
        .complete("The capital of Denmark is __.")
        .unwrap();
    let replay = dispatcher
        .complete("The capital of Denmark is __.")
        .unwrap();
    assert_eq!(first, direct, "the winner's completion is the model's");
    assert_eq!(replay, first, "the memo serves the winner verbatim");
    assert_eq!(
        dispatcher.stats().attempts,
        attempts_before + 1,
        "one fresh prompt dispatches once; the replay is pure memo"
    );
    assert_eq!(dispatcher.stats().dispatch_coalesced, memo_hit + 1);

    // The cache above the dispatcher holds only winners too: what it
    // persisted, replayed over the *bare* model, serves the entire
    // workload without a single model call, bit-identical to the
    // fault-free reference.
    drop(cache);
    let warm = PromptCache::unbounded(&llm)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(open_store());
    llm.reset_usage();
    let warm_answers = BatchRunner::new(&warm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    assert_eq!(
        warm_answers, reference,
        "everything memoized by the hedged run is a winner's completion"
    );
    assert_eq!(
        llm.usage().total(),
        0,
        "the warm replay never reaches the model"
    );
    let _ = std::fs::remove_file(&path);
}

/// Hedge duplicates take no rate-limit token: with
/// a limiter configured, `rate_tokens` is exactly one per logical request
/// (per winner), however many hedges were issued.
#[test]
fn hedges_consume_rate_limit_budget_once_per_winner() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let seed = fault_seed();
    let config = hedged_config(seed).with_rate_limit(500, 50);
    let dispatcher = Dispatcher::new(&llm, config);
    warm_estimator(&dispatcher, &llm, 8);
    let before = dispatcher.stats();

    const PROMPTS_PER_WORKER: usize = 40;
    fan_out(&dispatcher, 8, |t| {
        for i in 0..PROMPTS_PER_WORKER {
            dispatcher
                .complete(&format!("budget probe {t}-{i}"))
                .expect("prompt completes");
        }
    });

    let stats = dispatcher.stats();
    let unique = (8 * PROMPTS_PER_WORKER) as u64;
    assert!(
        stats.hedges_issued > before.hedges_issued,
        "a 3% tail over {unique} prompts must arm hedges: {stats:?}"
    );
    assert_eq!(
        stats.rate_tokens - before.rate_tokens,
        unique,
        "exactly one rate-limit token per winner — hedge copies are free"
    );
    assert_eq!(
        stats.attempts - before.attempts,
        unique + (stats.hedges_issued - before.hedges_issued),
        "every extra endpoint attempt is an accounted hedge duplicate"
    );
    assert_eq!(stats.failures, 0, "heavy-tail injects no errors");
}

/// The aggregate hedge counters are a pure function of the request set:
/// re-running the same registered-worker workload reproduces the whole
/// `BackendStats` (latency sketches included — integer micros only) and
/// the injector's `FaultStats` bit-for-bit, at 1 worker and at 8.
#[test]
fn hedge_counters_are_scheduling_independent() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let seed = fault_seed();
    for workers in [1usize, 8] {
        let run = || {
            let dispatcher = Dispatcher::new(&llm, hedged_config(seed));
            warm_estimator(&dispatcher, &llm, 8);
            fan_out(&dispatcher, workers, |t| {
                for i in 0..24 {
                    dispatcher
                        .complete(&format!("schedule probe {t}-{i}"))
                        .expect("prompt completes");
                }
            });
            (dispatcher.stats(), dispatcher.fault_stats().unwrap())
        };
        let (stats_a, faults_a) = run();
        let (stats_b, faults_b) = run();
        assert_eq!(
            stats_a, stats_b,
            "every backend counter (incl. sketches) must reproduce at {workers} workers"
        );
        assert_eq!(
            faults_a, faults_b,
            "the injector's schedule must reproduce at {workers} workers"
        );
        if workers > 1 {
            assert!(
                stats_a.hedges_issued > 0,
                "overlapped waves over a 3% tail must hedge: {stats_a:?}"
            );
        }
    }
}

/// Hedging moves the observed tail, not just counters: on the same
/// heavy-tail schedule, the hedged dispatcher's request-latency P99 (from
/// the exact integer `LatencySketch`) beats the unhedged dispatcher's.
#[test]
fn hedging_cuts_the_observed_p99() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let seed = fault_seed();
    let run = |hedge: bool| {
        let mut config = BackendConfig::resilient(seed)
            .without_breaker()
            .with_faults(FaultPlan::heavy_tail(seed))
            .with_pipelined();
        if hedge {
            config = config.with_hedge(HedgePolicy::at_quantile(900).with_min_samples(8));
        }
        let dispatcher = Dispatcher::new(&llm, config);
        warm_estimator(&dispatcher, &llm, 8);
        fan_out(&dispatcher, 8, |t| {
            for i in 0..40 {
                dispatcher
                    .complete(&format!("tail probe {t}-{i}"))
                    .expect("prompt completes");
            }
        });
        dispatcher.stats()
    };
    let plain = run(false);
    let hedged = run(true);
    assert_eq!(plain.hedges_issued, 0, "no policy, no hedges");
    assert!(hedged.hedges_issued > 0);
    let plain_p99 = plain.request_latency.quantile_us(990);
    let hedged_p99 = hedged.request_latency.quantile_us(990);
    assert!(
        hedged_p99 < plain_p99,
        "hedged P99 {hedged_p99}us must beat unhedged P99 {plain_p99}us"
    );
}
