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
//! and because the reactor only advances virtual time inside a step, and a
//! pipelined batch steps it from one thread, the aggregate hedge counters
//! are a pure function of the request set.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (CI runs the suite
//! at two distinct seeds), so schedule sensitivity is exercised on every
//! push.

use unidm::backend::BackendConfig;
use unidm::dispatch::{HedgePolicy, Reply, Ticket};
use unidm::{
    BatchRunner, CacheStats, CacheStore, CanonLevel, PipelineConfig, PromptCache, StoreConfig, Task,
};
use unidm::{RoutePlan, RoutedBackend};
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

/// Distinct throwaway prompts each dispatcher completes before the
/// measured workload.
const WARMUP: u64 = 8;

/// Warms the dispatcher's latency estimator with [`WARMUP`] distinct
/// throwaway prompts so the measured workload can arm hedge timers from
/// its very first wave, then clears the inner model's usage ledger.
fn warm_estimator(dispatcher: &RoutedBackend<'_>, llm: &MockLlm) {
    for i in 0..WARMUP {
        dispatcher
            .complete(&format!("latency estimator warmup {i}"))
            .expect("warmup prompt completes");
    }
    llm.reset_usage();
}

/// Runs `lanes` sequences of `per_lane` prompts on the calling thread:
/// every lane's first prompt is submitted before the first step, and a
/// lane submits its next prompt the moment its previous one resolves — the
/// shape `BatchRunner`'s pipelined mode drives the dispatcher in.
fn fan_out(
    dispatcher: &RoutedBackend<'_>,
    lanes: usize,
    per_lane: usize,
    prompt: impl Fn(usize, usize) -> String,
) {
    let mut sent = vec![0; lanes];
    let mut pending: Vec<Option<Ticket>> = (0..lanes).map(|_| None).collect();
    loop {
        for (lane, slot) in pending.iter_mut().enumerate() {
            while slot.is_none() && sent[lane] < per_lane {
                match dispatcher.submit(&prompt(lane, sent[lane])) {
                    Reply::Ready(result) => drop(result.expect("prompt completes")),
                    Reply::Pending(ticket) => *slot = Some(ticket),
                }
                sent[lane] += 1;
            }
        }
        if pending.iter().all(Option::is_none) {
            return;
        }
        dispatcher.step();
        for slot in &mut pending {
            if let Some(ticket) = slot.take() {
                match dispatcher.redeem(ticket) {
                    Reply::Ready(result) => drop(result.expect("prompt completes")),
                    Reply::Pending(ticket) => *slot = Some(ticket),
                }
            }
        }
    }
}

/// First-response-wins determinism: the full production shape
/// (`BatchRunner` pipelined mode → `PromptCache` →
/// `RoutedBackend` with hedging → heavy-tail `SimBackend`) returns answers
/// bit-identical to the fault-free serial run at windows of 1 and 8 runs
/// and at two fault seeds. The cache leads each unique canonical key once,
/// and each leader costs the endpoint one attempt plus its hedges.
#[test]
fn hedged_answers_bit_identical_across_seeds_and_worker_counts() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default();
    let reference = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    let unique = {
        let serial = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::TableStem);
        BatchRunner::new(&serial, pipeline).answers(&lake, &tasks);
        serial.stats().misses
    };

    let base = fault_seed();
    for seed in [base, base.wrapping_mul(31).wrapping_add(1000)] {
        for workers in [1usize, 8] {
            let dispatcher = RoutedBackend::single(&llm, hedged_config(seed));
            warm_estimator(&dispatcher, &llm);
            let cache =
                PromptCache::unbounded(&dispatcher).with_canonicalization(CanonLevel::TableStem);
            let report = BatchRunner::new(&cache, pipeline)
                .with_workers(workers)
                .with_pipeline(&dispatcher, Some(&cache))
                .run_report(&lake, &tasks);
            let answers: Vec<String> = report
                .results
                .iter()
                .map(|r| r.as_ref().expect("task completes").answer.clone())
                .collect();
            assert_eq!(
                answers, reference,
                "hedging must never change answers (seed {seed}, window {workers})"
            );
            let stats = dispatcher.backend_stats();
            assert_eq!(stats.failures, 0, "heavy-tail injects no errors");
            assert_eq!(
                stats.hedges_cancelled, stats.hedges_issued,
                "no errors, so every issued hedge has exactly one cancelled loser"
            );
            assert_eq!(cache.stats().misses, unique, "one leader per canonical key");
            assert_eq!(
                stats.attempts - WARMUP - stats.hedges_issued,
                unique as u64,
                "one endpoint attempt per leader, beside warmup and hedges"
            );
        }
    }
}

/// Answers, virtual makespan, the full `BackendStats` and, under a cache,
/// its `CacheStats` of one batch.
type Timeline = (Vec<String>, u64, unidm::BackendStats, Option<CacheStats>);

/// One pipelined batch of `tasks` in a window of `window` runs over a
/// fresh, warmed dispatcher, driven directly or through a cache keyed at
/// `cache`.
fn timeline(
    (llm, lake, tasks): &(MockLlm, DataLake, Vec<Task>),
    window: usize,
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
    let dispatcher = RoutedBackend::single(llm, config);
    warm_estimator(&dispatcher, llm);
    let cache = cache.map(|level| PromptCache::unbounded(&dispatcher).with_canonicalization(level));
    let answers = BatchRunner::new(llm, PipelineConfig::paper_default())
        .with_workers(window)
        .with_pipeline(&dispatcher, cache.as_ref())
        .answers(lake, tasks);
    let cached = cache.as_ref().map(PromptCache::stats);
    (
        answers,
        dispatcher.clock().now_micros(),
        dispatcher.backend_stats(),
        cached,
    )
}

/// The pipelined batch runs on one thread, so its whole virtual timeline —
/// answers, makespan, the full `BackendStats` (latency sketches included)
/// and the cache's counters — is a function of the request set and the
/// window. Plain and hedged, straight onto the dispatcher and through the
/// cache the ledger's regimes use, at windows of 1, 8 and 64 runs: five
/// runs each, all identical.
#[test]
fn pipelined_batch_timeline_is_identical_across_runs() {
    let workload = workload_of(64);
    for window in [1, 8, 64] {
        for cache in [None, Some(CanonLevel::TableStem)] {
            for hedged in [false, true] {
                let first = timeline(&workload, window, hedged, cache);
                for rerun in 1..5 {
                    assert_eq!(
                        timeline(&workload, window, hedged, cache),
                        first,
                        "rerun {rerun} (window {window}, hedged: {hedged}, {cache:?}) moved the \
                         virtual timeline"
                    );
                }
            }
        }
    }
}

/// A cache nobody configured (`Verbatim` is the level it starts at: exact
/// keys, so the dispatcher sees the prompts a direct run sends it) keeps
/// the batch a direct run produces — answers, makespan and every backend
/// counter — plain and hedged, five runs each. Its one visible trace: each
/// cache hit is a dispatcher memo hit the direct run takes instead.
#[test]
fn default_cache_above_a_pipelined_dispatcher_keeps_the_direct_timeline() {
    let workload = workload_of(64);
    for hedged in [false, true] {
        let (answers, makespan, direct, _) = timeline(&workload, 64, hedged, None);
        for run in 0..5 {
            let (cached_answers, cached_makespan, mut stats, cached) =
                timeline(&workload, 64, hedged, Some(CanonLevel::Verbatim));
            let hits = cached.expect("a cache sits above").hits as u64;
            stats.calls += hits;
            stats.dispatch_coalesced += hits;
            assert_eq!(
                (cached_answers, cached_makespan, stats),
                (answers.clone(), makespan, direct),
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
    let dispatcher = RoutedBackend::single(&llm, hedged_config(seed));
    warm_estimator(&dispatcher, &llm);
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
        .with_pipeline(&dispatcher, Some(&cache))
        .run_report(&lake, &tasks);
    let stats = dispatcher.backend_stats();
    assert_eq!(stats.failures, 0);

    // Requests the dispatcher resolved stay memoized as the winner's
    // bytes: replaying a unique prompt adds zero endpoint attempts.
    let attempts_before = stats.attempts;
    let memo_hit = dispatcher.backend_stats().dispatch_coalesced;
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
        dispatcher.backend_stats().attempts,
        attempts_before + 1,
        "one fresh prompt dispatches once; the replay is pure memo"
    );
    assert_eq!(dispatcher.backend_stats().dispatch_coalesced, memo_hit + 1);

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
    let dispatcher = RoutedBackend::single(&llm, config);
    warm_estimator(&dispatcher, &llm);
    let before = dispatcher.backend_stats();

    const PROMPTS_PER_WORKER: usize = 40;
    fan_out(&dispatcher, 8, PROMPTS_PER_WORKER, |t, i| {
        format!("budget probe {t}-{i}")
    });

    let stats = dispatcher.backend_stats();
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
/// re-running the same lanes of prompts reproduces the whole
/// `BackendStats` (latency sketches included — integer micros only) and
/// the injector's `FaultStats` bit-for-bit, at 1 lane and at 8.
#[test]
fn hedge_counters_are_scheduling_independent() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let seed = fault_seed();
    for lanes in [1usize, 8] {
        let run = || {
            let dispatcher = RoutedBackend::single(&llm, hedged_config(seed));
            warm_estimator(&dispatcher, &llm);
            fan_out(&dispatcher, lanes, 24, |t, i| {
                format!("schedule probe {t}-{i}")
            });
            (
                dispatcher.backend_stats(),
                dispatcher.fault_stats().unwrap(),
            )
        };
        let (stats_a, faults_a) = run();
        let (stats_b, faults_b) = run();
        assert_eq!(
            stats_a, stats_b,
            "every backend counter (incl. sketches) must reproduce at {lanes} lanes"
        );
        assert_eq!(
            faults_a, faults_b,
            "the injector's schedule must reproduce at {lanes} lanes"
        );
        if lanes > 1 {
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
        let dispatcher = RoutedBackend::single(&llm, config);
        warm_estimator(&dispatcher, &llm);
        fan_out(&dispatcher, 8, 40, |t, i| format!("tail probe {t}-{i}"));
        dispatcher.backend_stats()
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

/// A routed fleet with a hedge policy hedges across its replicas: in a
/// window of 64, stragglers get copies on another replica, answers stay
/// the bare model's, and a rerun reproduces every counter.
#[test]
fn a_routed_hedged_fleet_hedges_across_replicas() {
    let (llm, lake, tasks) = workload_of(150);
    let pipeline = PipelineConfig::paper_default();
    let reference = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    let seed = fault_seed();
    let config = BackendConfig::resilient(seed)
        .without_breaker()
        .with_faults(FaultPlan::heavy_tail(seed))
        .with_route(RoutePlan::replicas(3))
        .with_hedge(HedgePolicy::at_quantile(900));
    let run = || {
        let fleet = RoutedBackend::from_plan(&llm, config);
        let answers = BatchRunner::new(&fleet, pipeline)
            .with_workers(64)
            .with_pipeline(&fleet, None)
            .answers(&lake, &tasks);
        (answers, fleet.stats())
    };
    let (answers, stats) = run();
    assert_eq!(
        answers, reference,
        "hedging across replicas changed an answer"
    );
    assert!(
        stats.hedges_issued > 0,
        "the heavy tail must arm hedges: {stats:?}"
    );
    assert!(
        stats.hedges_won + stats.hedges_cancelled > 0,
        "every issued hedge races its primary: {stats:?}"
    );
    assert_eq!(run().1, stats, "a rerun reproduces every counter");
}
