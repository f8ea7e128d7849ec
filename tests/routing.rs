//! Acceptance tests for the multi-endpoint router (`unidm::route`).
//!
//! The contract (ISSUE 7): a `RoutedBackend` fleet — uniformly routed endpoints,
//! per-endpoint breakers, AIMD rate adaptation, endpoint-aware fault
//! schedules — returns answers bit-identical to a fault-free direct run
//! whatever the fleet does, across fault seeds, worker counts and both
//! dispatch modes; a permanently faulty endpoint loses all traffic once
//! its breaker opens and is probed again after the cooldown; and a serial
//! rerun reproduces per-endpoint call counts exactly.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (the CI matrix runs
//! two), so schedule sensitivity is exercised on every push.

use unidm::backend::{BackendConfig, BreakerPolicy};
use unidm::dispatch::Dispatcher;
use unidm::route::{EndpointConfig, RoutePlan, RoutedBackend};
use unidm::{BatchRunner, CanonLevel, PipelineConfig, PromptCache, Task};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 30;

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set, 7 otherwise.
fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

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

/// A three-replica fleet over `llm`, every replica behind its own
/// moderate fault injector and breaker.
fn fleet(llm: &MockLlm, seed: u64) -> RoutedBackend<'_> {
    RoutedBackend::from_plan(
        llm,
        BackendConfig::resilient(seed)
            .with_faults(FaultPlan::moderate(seed))
            .with_route(RoutePlan::replicas(3)),
    )
}

/// Answers are bit-identical to the fault-free serial run across 2 fault
/// seeds × {1, 8} workers × {blocking, pipelined} dispatch, with zero
/// failed calls.
#[test]
fn routed_answers_bit_identical_across_seeds_workers_and_modes() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let reference = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);

    let base = fault_seed();
    for seed in [base, base.wrapping_mul(31).wrapping_add(1000)] {
        for workers in [1usize, 8] {
            // Blocking: cache → router → per-endpoint breaker/injector.
            let router = fleet(&llm, seed);
            let cache =
                PromptCache::unbounded(&router).with_canonicalization(CanonLevel::TableStem);
            let answers = BatchRunner::new(&cache, pipeline)
                .with_workers(workers)
                .answers(&lake, &tasks);
            assert_eq!(
                answers, reference,
                "blocking routed run changed answers (seed {seed}, {workers} workers)"
            );
            let stats = router.stats();
            assert_eq!(stats.failures, 0, "every routed call completes");
            assert!(
                stats.endpoints.iter().all(|e| e.calls > 0),
                "uniform routing must spread traffic over all replicas: {stats:?}"
            );

            // Pipelined: the event-driven dispatcher drives the same
            // fleet (faults live inside the router, so the dispatcher
            // itself is fault-free).
            let router = fleet(&llm, seed);
            let dispatcher =
                Dispatcher::new(&router, BackendConfig::resilient(seed).with_pipelined());
            let cache =
                PromptCache::unbounded(&dispatcher).with_canonicalization(CanonLevel::TableStem);
            let answers = BatchRunner::new(&cache, pipeline)
                .with_workers(workers)
                .with_pipeline(&dispatcher)
                .answers(&lake, &tasks);
            assert_eq!(
                answers, reference,
                "pipelined routed run changed answers (seed {seed}, {workers} workers)"
            );
            assert_eq!(dispatcher.stats().failures, 0);
            assert_eq!(router.stats().failures, 0);
        }
    }
}

/// A permanently faulty endpoint loses **all** traffic once its breaker
/// opens, and is probed again (regains traffic) after the cooldown.
#[test]
fn dead_endpoint_sheds_all_traffic_then_recovers_a_probe_after_cooldown() {
    let llm = {
        let world = World::generate(42);
        MockLlm::new(&world, LlmProfile::gpt3_175b(), 42)
    };
    let dead_plan = FaultPlan {
        timeout_permille: 1000,
        rate_limit_permille: 0,
        transient_permille: 0,
        slow_permille: 0,
        max_consecutive_faults: u32::MAX,
        ..FaultPlan::none(fault_seed())
    };
    let breaker = BreakerPolicy {
        failure_threshold: 2,
        cooldown_us: 3_600_000_000, // one virtual hour
    };
    let router = RoutedBackend::new(fault_seed())
        .endpoint(
            &llm,
            EndpointConfig::new()
                .with_faults(dead_plan)
                .with_breaker(breaker),
        )
        // The healthy peer is injector-free, so only the dead endpoint's
        // timeouts and the retry backoffs advance the virtual clock —
        // nowhere near the one-hour cooldown.
        .endpoint(&llm, EndpointConfig::new().with_breaker(breaker));

    // Phase A: drive traffic until the dead endpoint's breaker trips.
    for i in 0..25 {
        router.complete(&format!("phase-a prompt {i}")).unwrap();
    }
    let a = router.stats();
    assert_eq!(a.failures, 0, "the healthy peer absorbs everything");
    assert_eq!(a.endpoints[0].breaker_trips, 1, "the dead endpoint trips");
    assert_eq!(
        a.endpoints[0].attempts, 2,
        "exactly threshold-many attempts reach a permanently dead endpoint"
    );

    // Phase B: with the breaker open, the dead endpoint receives zero
    // further attempts — every selection skips it.
    for i in 0..25 {
        router.complete(&format!("phase-b prompt {i}")).unwrap();
    }
    let b = router.stats();
    assert_eq!(
        b.endpoints[0].attempts, a.endpoints[0].attempts,
        "an open breaker must shed all traffic"
    );
    assert!(
        b.endpoints[0].breaker_open_skips > a.endpoints[0].breaker_open_skips,
        "selections keep skipping the open endpoint"
    );
    assert_eq!(b.endpoints[1].successes, 50);

    // Phase C: after the cooldown the breaker half-opens and the endpoint
    // regains traffic (probe attempts resume).
    router.clock().sleep_micros(breaker.cooldown_us);
    for i in 0..25 {
        router.complete(&format!("phase-c prompt {i}")).unwrap();
    }
    let c = router.stats();
    assert!(
        c.endpoints[0].attempts > b.endpoints[0].attempts,
        "the cooled-down endpoint must be probed again: {c:?}"
    );
    assert_eq!(c.failures, 0, "probe failures still land on the peer");
}

/// A serial rerun of the same routed workload reproduces `RouterStats` —
/// per-endpoint call counts included — bit-for-bit.
#[test]
fn per_endpoint_call_counts_reproduce_exactly_on_serial_rerun() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let seed = fault_seed();
    let run = || {
        let router = fleet(&llm, seed);
        let cache = PromptCache::unbounded(&router).with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, pipeline)
            .with_workers(1)
            .answers(&lake, &tasks);
        (answers, router.stats())
    };
    let (answers_a, stats_a) = run();
    let (answers_b, stats_b) = run();
    assert_eq!(answers_a, answers_b);
    assert_eq!(
        stats_a, stats_b,
        "a serial rerun must reproduce every router counter exactly"
    );
    let calls: Vec<u64> = stats_a.endpoints.iter().map(|e| e.calls).collect();
    assert_eq!(calls.len(), 3);
    assert_eq!(calls.iter().sum::<u64>(), stats_a.calls);
    assert!(
        calls.iter().all(|&c| c > 0),
        "every replica takes first-attempt traffic: {calls:?}"
    );
}

/// Replicas sharing one fault plan draw distinct schedules end-to-end:
/// the same eval workload leaves different fault footprints on different
/// endpoints (the endpoint-aware slot keying at work above the unit
/// tests).
#[test]
fn replica_fault_footprints_differ_on_the_eval_workload() {
    let (llm, lake, tasks) = workload();
    let pipeline = PipelineConfig::paper_default().with_seed(42);
    let router = fleet(&llm, fault_seed());
    let cache = PromptCache::unbounded(&router).with_canonicalization(CanonLevel::TableStem);
    BatchRunner::new(&cache, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    let stats = router.stats();
    let footprints: Vec<(u64, u64, u64)> = stats
        .endpoints
        .iter()
        .map(|e| (e.timeouts, e.rate_limited, e.transients))
        .collect();
    assert!(
        footprints.windows(2).any(|w| w[0] != w[1]),
        "replicas must not fault in lockstep: {footprints:?}"
    );
}
