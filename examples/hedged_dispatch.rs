//! Hedged-dispatch quickstart: run a batched workload through the
//! reactor with hedging on, against an endpoint with a heavy latency tail,
//! and watch hedged requests cut the virtual-time P99 and makespan — with
//! answers bit-identical to the synchronous path.
//!
//! The stack assembled here is the pipelined production shape:
//!
//! ```text
//! BatchRunner (pipelined) → PromptCache → RoutedBackend (reactor) → SimBackend → MockLlm
//!    one thread, a window    lookup / fill:  reactor:     3% of       inner
//!    of runs in flight,      a key already   pacing,      attempts    model
//!    continuous admission    in flight is    retry,       stall 40×
//!                            coalesced below hedge
//! ```
//!
//! Everything runs on a virtual clock: the reactor advances time deadline
//! by deadline, so overlapped requests overlap (elapsed virtual time is
//! the makespan, not the latency sum) and the multi-second stalls replay
//! in milliseconds of wall time. The whole timeline is deterministic, so
//! this example *asserts* its output.
//!
//! ```text
//! cargo run --example hedged_dispatch
//! ```

use unidm::backend::BackendConfig;
use unidm::dispatch::HedgePolicy;
use unidm::RoutedBackend;
use unidm::{BatchRunner, CanonLevel, PipelineConfig, PromptCache, Task};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);

    // The same 40-row imputation workload as `resilient_backend`.
    let ds = imputation::restaurant(&world, 42, 40);
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
    let pipeline = PipelineConfig::paper_default().with_seed(42);

    // Ground truth: the fault-free serial run.
    let baseline = BatchRunner::new(&llm, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);

    // A heavy-tail endpoint: every attempt succeeds, but 3% of them stall
    // for 2 virtual seconds against a 50ms base — a 40× straggler tail.
    let seed = 7;
    let tail = FaultPlan::heavy_tail(seed);

    // Regime 1 — synchronous: the blocking resilient backend, one
    // round-trip per call. Concurrent virtual sleeps *sum*, so elapsed
    // virtual time is total latency, and every straggler lands in the P99.
    let sync_backend = BackendConfig::resilient(seed)
        .without_breaker()
        .with_faults(tail)
        .wrap(&llm);
    let sync_cache =
        PromptCache::unbounded(sync_backend.model()).with_canonicalization(CanonLevel::TableStem);
    let sync_answers = BatchRunner::new(&sync_cache, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    let sync_stats = sync_backend.stats().expect("backend enabled");
    let sync_makespan = sync_backend.elapsed_us();
    let sync_p99 = sync_stats.request_latency.quantile_us(990);

    // Regimes 2 and 3 — the event-driven dispatcher, without and with
    // hedging. One thread keeps a window of 8 runs in flight: it submits
    // each run's pending prompt, steps the reactor, and feeds each
    // resolved run its reply (continuous admission, no barriers);
    // completions are timer-wheel events, so overlapped attempts overlap
    // in virtual time. With a `HedgePolicy`, a straggler exceeding the
    // observed P90 attempt latency gets a duplicate — first response
    // wins, the loser is cancelled and never memoized.
    let run_dispatched = |hedge: Option<HedgePolicy>| {
        let mut config = BackendConfig::resilient(seed)
            .without_breaker()
            .with_faults(tail)
            .with_pipelined();
        if let Some(policy) = hedge {
            config = config.with_hedge(policy);
        }
        let dispatcher = RoutedBackend::single(&llm, config);
        // Warm the latency estimator so the first wave can arm hedges.
        for i in 0..8 {
            dispatcher
                .complete(&format!("latency estimator warmup {i}"))
                .expect("warmup completes");
        }
        // The runs look prompts up in the cache without waiting: a key
        // already in flight is submitted below, where the reactor attaches
        // it to the leader's request.
        let cache =
            PromptCache::unbounded(&dispatcher).with_canonicalization(CanonLevel::TableStem);
        let report = BatchRunner::new(&cache, pipeline)
            .with_workers(8)
            .with_pipeline(&dispatcher, Some(&cache))
            .run_report(&lake, &tasks);
        let answers: Vec<String> = report
            .results
            .iter()
            .map(|r| r.as_ref().expect("task completes").answer.clone())
            .collect();
        (
            answers,
            dispatcher.backend_stats(),
            dispatcher.clock().now_micros(),
        )
    };

    let (pipe_answers, pipe_stats, pipe_makespan) = run_dispatched(None);
    let hedge_policy = HedgePolicy::at_quantile(900).with_min_samples(8);
    let (hedged_answers, hedged_stats, hedged_makespan) = run_dispatched(Some(hedge_policy));
    let pipe_p99 = pipe_stats.request_latency.quantile_us(990);
    let hedged_p99 = hedged_stats.request_latency.quantile_us(990);

    println!("Heavy-tail endpoint (seed {seed}): 3% of attempts stall 2s vs 50ms base\n");
    println!(
        "  synchronous:      makespan {:>8.3}s   P99 {:>6.3}s   ({} attempts)",
        sync_makespan as f64 / 1e6,
        sync_p99 as f64 / 1e6,
        sync_stats.attempts,
    );
    println!(
        "  pipelined:        makespan {:>8.3}s   P99 {:>6.3}s   ({} attempts)",
        pipe_makespan as f64 / 1e6,
        pipe_p99 as f64 / 1e6,
        pipe_stats.attempts,
    );
    println!(
        "  pipelined+hedged: makespan {:>8.3}s   P99 {:>6.3}s   ({} attempts: {} hedges issued, {} won, {} cancelled)",
        hedged_makespan as f64 / 1e6,
        hedged_p99 as f64 / 1e6,
        hedged_stats.attempts,
        hedged_stats.hedges_issued,
        hedged_stats.hedges_won,
        hedged_stats.hedges_cancelled,
    );

    // The whole timeline is deterministic — assert the story, don't just
    // print it.
    assert_eq!(sync_answers, baseline, "faults never change answers");
    assert_eq!(pipe_answers, baseline, "pipelining never changes answers");
    assert_eq!(hedged_answers, baseline, "hedging never changes answers");
    assert!(
        pipe_makespan < sync_makespan,
        "overlapping in-flight requests must beat blocking round-trips"
    );
    assert!(
        hedged_makespan < sync_makespan && hedged_p99 < sync_p99,
        "hedged stragglers must cut both the makespan and the P99"
    );
    assert!(
        hedged_stats.hedges_issued > 0,
        "the 3% tail must arm hedges"
    );
    assert_eq!(
        hedged_stats.hedges_cancelled, hedged_stats.hedges_issued,
        "no injected errors: every hedge pair has exactly one cancelled loser"
    );
    assert_eq!(hedged_stats.failures, 0, "every call completed");

    // Re-running the hedged regime reproduces the timeline bit-for-bit:
    // every endpoint attempt, every hedge decision, every latency sample,
    // every counter and the makespan.
    let (replay_answers, replay_stats, replay_makespan) = run_dispatched(Some(hedge_policy));
    assert_eq!(replay_answers, hedged_answers);
    assert_eq!(
        replay_stats, hedged_stats,
        "every backend counter reproduces"
    );
    assert_eq!(
        replay_makespan, hedged_makespan,
        "the virtual timeline reproduces"
    );

    println!(
        "\nAll {} answers bit-identical across every regime; hedged replay \
         reproduced every counter exactly.",
        baseline.len()
    );
    Ok(())
}
