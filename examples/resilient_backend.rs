//! Resilience quickstart: run a batched workload through the full backend
//! substrate — prompt cache over rate limiter, retry loop and circuit
//! breaker over a seeded fault injector — and verify that a hostile
//! endpoint changes *nothing* about the answers.
//!
//! The stack assembled here is the production shape:
//!
//! ```text
//! BatchRunner → PromptCache → RoutedBackend::single → SimBackend → MockLlm
//!                  (hits)         limiter/retry/         seeded       inner
//!                  stop here        breaker              faults       model
//! ```
//!
//! Everything timing-related runs on a virtual clock, so the multi-second
//! stalls the fault plan injects replay in milliseconds of wall time.
//!
//! ```text
//! cargo run --example resilient_backend
//! ```

use unidm::backend::BackendConfig;
use unidm::{BatchRunner, CanonLevel, PipelineConfig, PromptCache, Task};
use unidm_llm::{FaultPlan, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);

    // The same 40-row imputation workload as `batch_quickstart`.
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

    // A hostile endpoint: ~45% of attempts time out, get rate limited or
    // fail transiently, plus a client-side budget of 200 attempts/sec.
    let config = BackendConfig::resilient(7)
        .with_faults(FaultPlan::heavy(7))
        .with_rate_limit(200, 20);
    let backend = config.wrap(&llm);
    let cache =
        PromptCache::unbounded(backend.model()).with_canonicalization(CanonLevel::TableStem);

    println!(
        "Running {} tasks through a heavy fault schedule...\n",
        tasks.len()
    );
    let answers = BatchRunner::new(&cache, pipeline).answers(&lake, &tasks);

    let stats = backend.stats().expect("backend enabled");
    let faults = backend.fault_stats().expect("faults configured");
    println!("Endpoint behaviour (injected by SimBackend, seed 7):");
    println!(
        "  {} attempts: {} clean, {} slow, {} timeouts, {} rate limits, {} transient 5xx",
        faults.attempts,
        faults.clean,
        faults.slow,
        faults.timeouts,
        faults.rate_limits,
        faults.transients,
    );
    println!("\nWhat the resilient layer did about it:");
    println!(
        "  {} calls -> {} attempts ({} retries), {} breaker trips, {} fast-fails",
        stats.calls, stats.attempts, stats.retries, stats.breaker_trips, stats.breaker_fast_fails,
    );
    println!(
        "  {} throttle waits ({:.2}s virtual); {:.2} virtual seconds total",
        stats.throttle_waits,
        stats.throttle_wait_us as f64 / 1e6,
        backend.elapsed_us() as f64 / 1e6,
    );
    println!(
        "  cache: {} hits / {} misses — hits never touched the backend at all",
        cache.stats().hits,
        cache.stats().misses,
    );

    assert_eq!(
        answers, baseline,
        "faults, throttling and breaker trips must never change answers"
    );
    assert_eq!(stats.failures, 0, "every call completed");
    println!(
        "\nAll {} answers bit-identical to the fault-free serial run.",
        answers.len()
    );
    Ok(())
}
