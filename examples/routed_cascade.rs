//! Routing and cascading quickstart: spread a batched workload uniformly
//! over a multi-endpoint fleet (per-endpoint breakers, fault schedules
//! and AIMD rate adaptation), then cut its bill with a small→large model
//! cascade — all on the virtual clock, all deterministic, all asserted.
//!
//! The routed stack assembled here:
//!
//! ```text
//! BatchRunner → PromptCache → RoutedBackend ─┬─ breaker ─ SimBackend e0 ─┐
//!                 canonical     seeded        ├─ breaker ─ SimBackend e1 ─┼─ MockLlm
//!                 single-flight uniform pick  ├─ breaker ─ SimBackend e2 ─┘
//!                               AIMD buckets  └─ (each its own schedule)
//! ```
//!
//! Every replica shares one fault *plan* but draws its own fault
//! *schedule* (slot keying mixes in the endpoint id), so the fleet
//! degrades like real replicas do: independently. Rate limits observed at
//! one endpoint halve only that endpoint's AIMD bucket; successes earn
//! the rate back additively. The fleet's virtual-time makespan beats a
//! single endpoint of the same per-endpoint capacity — with answers
//! bit-identical to a fault-free run.
//!
//! The cascade then routes each prompt to GPT-J-6B first and escalates to
//! GPT-3-175B only when the cheap answer is unparseable or hedged below a
//! confidence gate — strictly fewer large-model tokens, strictly lower
//! billed cost per answer.
//!
//! ```text
//! cargo run --example routed_cascade
//! ```

use unidm::backend::BackendConfig;
use unidm::route::{AimdPolicy, CascadeBackend, CascadePolicy, RoutePlan, RoutedBackend};
use unidm::{BatchRunner, CanonLevel, PipelineConfig, PromptCache, Task};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);

    // The same 40-row imputation workload as `hedged_dispatch`.
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

    // ── A routed fleet vs a single endpoint ─────────────────────────────
    // Every replica: moderate faults (timeouts, 429s, 5xxs, stragglers),
    // its own breaker, and an adaptive AIMD token bucket seeded at
    // 5 attempts/sec. `run(1)` is the single-endpoint reference; `run(3)`
    // the fleet. Identical per-endpoint capacity — only the replica count
    // differs. The batch keeps a window of 16 runs in flight through the
    // router, so the buckets throttle it and capacity, not the fault
    // draws, decides the makespan (one run at a time, the draws did).
    let seed = 7;
    let run_fleet = |replicas: u32| {
        let router = RoutedBackend::from_plan(
            &llm,
            BackendConfig::resilient(seed)
                .with_faults(FaultPlan::moderate(seed))
                .with_pipelined()
                .with_route(RoutePlan::replicas(replicas).with_aimd(AimdPolicy::per_sec(5))),
        );
        let cache = PromptCache::unbounded(&router).with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, pipeline)
            .with_pipeline(&router, Some(&cache))
            .with_workers(16)
            .answers(&lake, &tasks);
        let makespan = router.clock().now_micros();
        (answers, router.stats(), makespan)
    };
    let (single_answers, single_stats, single_makespan) = run_fleet(1);
    let (fleet_answers, fleet_stats, fleet_makespan) = run_fleet(3);

    println!("Routed fleet (moderate faults, AIMD from 5 attempts/sec per endpoint):\n");
    println!(
        "  1 endpoint:  makespan {:>8.3}s   {} attempts, {} rate-limited, {} throttle waits",
        single_makespan as f64 / 1e6,
        single_stats.attempts(),
        single_stats.endpoints[0].rate_limited,
        single_stats.endpoints[0].throttle_waits,
    );
    println!(
        "  3 replicas:  makespan {:>8.3}s   {} attempts, per-endpoint calls {:?}, {} trips",
        fleet_makespan as f64 / 1e6,
        fleet_stats.attempts(),
        fleet_stats
            .endpoints
            .iter()
            .map(|e| e.calls)
            .collect::<Vec<_>>(),
        fleet_stats.breaker_trips(),
    );

    assert_eq!(single_answers, baseline, "faults never change answers");
    assert_eq!(fleet_answers, baseline, "routing never changes answers");
    assert_eq!(fleet_stats.failures, 0, "every routed call completed");
    assert!(
        fleet_stats.endpoints.iter().all(|e| e.calls > 0),
        "uniform routing spreads traffic over every replica"
    );
    assert!(
        fleet_makespan < single_makespan,
        "three token buckets refill three times faster than one"
    );

    // Replicas draw independent fault schedules from the shared plan.
    let footprints: Vec<(u64, u64)> = fleet_stats
        .endpoints
        .iter()
        .map(|e| (e.timeouts, e.rate_limited))
        .collect();
    assert!(
        footprints.windows(2).any(|w| w[0] != w[1]),
        "replicas must not fault in lockstep: {footprints:?}"
    );

    // ── The small→large cascade ─────────────────────────────────────────
    // The pipeline's prompts depend on its answers, so fix the stream
    // first: record every unique canonical prompt of a large-only run,
    // then replay it through the cascade. Cheap answers that clear a 600‰
    // confidence gate are served as-is; unparseable or hedged ones
    // escalate to the large tier.
    let cheap = MockLlm::new(&world, LlmProfile::gptj_6b(), 42);
    let large = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let recording = PromptCache::unbounded(&large).with_canonicalization(CanonLevel::TableStem);
    BatchRunner::new(&recording, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    let prompts = recording.canonical_prompts();
    let large_cost = LlmProfile::gpt3_175b().cost_micro_per_token();
    let large_only_tokens = large.usage().total() as u64;
    let large_only_billed = large_only_tokens * large_cost;

    let cascade = CascadeBackend::new(&cheap, &large)
        .with_policy(CascadePolicy { gate_permille: 600 })
        .with_costs_of(&LlmProfile::gptj_6b(), &LlmProfile::gpt3_175b());
    for prompt in &prompts {
        cascade.complete(prompt)?;
    }
    let stats = cascade.stats();
    let large_only_per_answer = large_only_billed / stats.answers;

    println!(
        "\nCascade {} → {} over {} unique prompts (gate 600‰):",
        cheap.name(),
        large.name(),
        prompts.len(),
    );
    println!(
        "  {} escalated ({} unparseable, {} low-confidence); large-tier tokens {} \
         vs {} large-only",
        stats.escalations,
        stats.unparseable,
        stats.low_confidence,
        stats.endpoints[1].tokens(),
        large_only_tokens,
    );
    println!(
        "  billed per answer: {}µ vs {}µ large-only ({}% of the bill)",
        stats.billed_per_answer_micro(),
        large_only_per_answer,
        100 * stats.billed_per_answer_micro() / large_only_per_answer.max(1),
    );

    assert!(
        stats.escalations > 0 && stats.escalations < stats.calls,
        "the gate must escalate some prompts and clear others"
    );
    assert!(
        stats.billed_per_answer_micro() < large_only_per_answer,
        "the cascade must be strictly cheaper per answer"
    );
    assert_eq!(
        stats.escalations,
        stats.unparseable + stats.low_confidence + stats.error_escalations,
        "escalation causes decompose exactly"
    );

    println!("\nAll answers bit-identical to the fault-free serial run; cascade strictly cheaper.");
    Ok(())
}
