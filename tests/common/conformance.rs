//! Backend-conformance suite: the invariants every `LanguageModel`
//! wrapper in this repository must uphold, written once and run against
//! each wrapper (`RoutedBackend::single`, `Dispatcher`, `RoutedBackend` — and
//! whatever comes next).
//!
//! A wrapper under test is built by a [`Factory`]: a function from
//! `(inner model, Scenario)` to a boxed [`BackendUnderTest`]. Each check
//! constructs its own inner model and scenario, so a new wrapper gets the
//! whole suite by supplying one factory function.
//!
//! The invariants:
//!
//! 1. **Determinism & transparency** — under a seeded fault schedule,
//!    answers are bit-identical to the inner model's direct answers, and
//!    a serial rerun reproduces the wrapper's stats exactly.
//! 2. **Error propagation** — permanent inner errors surface unchanged,
//!    uncounted as retries.
//! 3. **No memoized errors** — a failing prompt reaches the inner model
//!    on every call; errors are never served from any memo.
//! 4. **Rate-token exactness** — with a rate limit configured, a
//!    fault-free serial workload consumes exactly one token per attempt,
//!    one attempt per call.
//! 5. **Stats-merge commutativity** — the latency sketches in a
//!    wrapper's stats merge exactly and commutatively, with `default()`
//!    as identity.
//! 6. **Pinned counters** — one fixed serial workload reproduces a
//!    committed golden ledger (every counter, the injector's, the clock),
//!    so a change that shifts every run the same way is still caught.
//!
//! Invariants 1–5 run at the fault seed in `UNIDM_FAULT_SEED` (the CI
//! matrix runs two), 7 otherwise; the golden ledger is pinned at seed 9.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unidm::backend::{BackendStats, LatencySketch};
use unidm_llm::{Completion, FaultPlan, LanguageModel, LlmError, LlmProfile, MockLlm, Usage};
use unidm_world::World;

use super::fault_seed;

/// What a conformance check asks of the wrapper it drives.
pub trait BackendUnderTest {
    /// The wrapped model calls go through.
    fn model(&self) -> &dyn LanguageModel;
    /// The wrapper's counters in the flat `BackendStats` shape.
    fn stats(&self) -> BackendStats;
    /// Everything the wrapper counted, rendered for the golden pin: its
    /// own stats, its fault injectors' and its clock.
    fn ledger(&self) -> String;
}

/// The knobs a check turns; factories translate these into their
/// wrapper's own configuration (a router maps `rate` onto per-endpoint
/// AIMD buckets, the blocking stack onto its token bucket, and so on).
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Seed for jitter, routing draws and fault schedules.
    pub seed: u64,
    /// Fault-injection plan to interpose, if any.
    pub faults: Option<FaultPlan>,
    /// Rate limit as `(tokens_per_sec, burst)`, if any.
    pub rate: Option<(u64, u64)>,
}

/// Builds a wrapper over `inner` per a [`Scenario`].
pub type Factory = for<'a> fn(&'a dyn LanguageModel, Scenario) -> Box<dyn BackendUnderTest + 'a>;

/// An inner model that counts how many completions actually reach it —
/// the probe behind the no-memoized-errors check.
pub struct CountingModel<'a> {
    inner: &'a dyn LanguageModel,
    calls: AtomicU64,
}

impl<'a> CountingModel<'a> {
    /// Wraps `inner` with a call counter.
    pub fn new(inner: &'a dyn LanguageModel) -> Self {
        CountingModel {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Completions that reached the inner model.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

impl LanguageModel for CountingModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
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

    fn latency_profile(&self) -> unidm_llm::LatencyProfile {
        self.inner.latency_profile()
    }
}

fn inner_model() -> MockLlm {
    MockLlm::new(&World::generate(42), LlmProfile::gpt3_175b(), 42)
}

fn prompts(tag: &str, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("conformance {tag} prompt {i}"))
        .collect()
}

/// Invariant 1: under a seeded fault schedule the wrapper's answers are
/// bit-identical to the inner model's, and a serial rerun reproduces the
/// wrapper's stats exactly.
pub fn check_determinism_and_transparency(factory: Factory, label: &str) {
    let llm = inner_model();
    let workload = prompts("determinism", 25);
    let direct: Vec<String> = workload
        .iter()
        .map(|p| llm.complete(p).expect("direct call succeeds").text.clone())
        .collect();
    let seed = fault_seed();
    let scenario = Scenario {
        seed,
        faults: Some(FaultPlan::moderate(seed)),
        rate: None,
    };
    let run = || {
        let wrapper = factory(&llm, scenario);
        let answers: Vec<String> = workload
            .iter()
            .map(|p| {
                wrapper
                    .model()
                    .complete(p)
                    .unwrap_or_else(|e| panic!("{label}: {p:?} must survive faults: {e}"))
                    .text
                    .clone()
            })
            .collect();
        (answers, wrapper.stats())
    };
    let (answers, stats) = run();
    assert_eq!(answers, direct, "{label}: faults must never change answers");
    assert_eq!(stats.calls, workload.len() as u64, "{label}");
    assert_eq!(stats.failures, 0, "{label}: every call completes");
    assert!(
        stats.attempts > stats.calls,
        "{label}: a moderate schedule must actually inject faults: {stats:?}"
    );
    let (answers2, stats2) = run();
    assert_eq!(answers2, answers, "{label}: rerun answers");
    assert_eq!(
        stats2, stats,
        "{label}: serial rerun reproduces every counter"
    );
}

/// Invariant 2: a permanent inner error surfaces unchanged — counted as a
/// failure, never retried.
pub fn check_error_propagation(factory: Factory, label: &str) {
    let llm = inner_model();
    let scenario = Scenario {
        seed: fault_seed(),
        faults: None,
        rate: None,
    };
    let wrapper = factory(&llm, scenario);
    assert_eq!(
        wrapper.model().complete("   "),
        Err(LlmError::EmptyPrompt),
        "{label}: permanent errors surface unchanged"
    );
    let stats = wrapper.stats();
    assert_eq!(stats.calls, 1, "{label}");
    assert_eq!(stats.failures, 1, "{label}");
    assert_eq!(
        stats.retries, 0,
        "{label}: permanent errors are not retried"
    );
}

/// Invariant 3: errors are never memoized — a failing prompt reaches the
/// inner model on every call.
pub fn check_no_memoized_errors(factory: Factory, label: &str) {
    let llm = inner_model();
    let counter = CountingModel::new(&llm);
    let scenario = Scenario {
        seed: fault_seed(),
        faults: None,
        rate: None,
    };
    let wrapper = factory(&counter, scenario);
    for i in 0..2 {
        assert_eq!(
            wrapper.model().complete("   "),
            Err(LlmError::EmptyPrompt),
            "{label}: call {i}"
        );
    }
    assert_eq!(
        counter.calls(),
        2,
        "{label}: both failing calls must reach the endpoint — errors are never memoized"
    );
    assert_eq!(wrapper.stats().failures, 2, "{label}");
}

/// Invariant 4: with a rate limit configured, a fault-free serial
/// workload of N unique prompts consumes exactly N tokens over exactly N
/// attempts.
pub fn check_rate_token_exactness(factory: Factory, label: &str) {
    let llm = inner_model();
    let scenario = Scenario {
        seed: fault_seed(),
        faults: None,
        rate: Some((500, 10)),
    };
    let wrapper = factory(&llm, scenario);
    let workload = prompts("rate", 30);
    for p in &workload {
        wrapper
            .model()
            .complete(p)
            .unwrap_or_else(|e| panic!("{label}: fault-free call failed: {e}"));
    }
    let stats = wrapper.stats();
    let n = workload.len() as u64;
    assert_eq!(stats.calls, n, "{label}");
    assert_eq!(
        stats.attempts, n,
        "{label}: fault-free means one attempt per call"
    );
    assert_eq!(
        stats.rate_tokens, n,
        "{label}: exactly one token per attempt: {stats:?}"
    );
}

/// Invariant 5: the latency sketches in two runs' stats merge exactly and
/// commutatively, with the default as identity — so pooling latencies
/// across wrappers is order-free.
pub fn check_stats_merge_commutativity(factory: Factory, label: &str) {
    let llm = inner_model();
    let stats_for = |tag: &str, seed: u64| {
        let wrapper = factory(
            &llm,
            Scenario {
                seed,
                faults: Some(FaultPlan::moderate(seed)),
                rate: None,
            },
        );
        for p in &prompts(tag, 12) {
            wrapper
                .model()
                .complete(p)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        wrapper.stats()
    };
    let a = stats_for("merge-a", fault_seed());
    let b = stats_for("merge-b", fault_seed() ^ 0x5eed);
    for (x, y) in [
        (a.attempt_latency, b.attempt_latency),
        (a.request_latency, b.request_latency),
    ] {
        let (mut xy, mut yx) = (x, y);
        xy.merge(&y);
        yx.merge(&x);
        assert_eq!(xy, yx, "{label}: merge must be commutative");
        assert_eq!(
            xy.samples(),
            x.samples() + y.samples(),
            "{label}: sketches merge exactly"
        );
        let mut id = x;
        id.merge(&LatencySketch::default());
        assert_eq!(id, x, "{label}: merging a default is the identity");
    }
}

/// Invariant 6: a fixed serial workload — 40 prompts under
/// `FaultPlan::heavy(9)` — reproduces the committed golden ledgers
/// exactly: first behind a 50/s burst-10 rate limit (never throttles, so
/// retries and breakers set the timeline), then behind 4/s burst 2
/// (the bucket sets it).
pub fn check_pinned_counters(factory: Factory, label: &str, goldens: [&str; 2]) {
    let llm = inner_model();
    for (rate, golden) in [(50, 10), (4, 2)].into_iter().zip(goldens) {
        let wrapper = factory(
            &llm,
            Scenario {
                seed: 9,
                faults: Some(FaultPlan::heavy(9)),
                rate: Some(rate),
            },
        );
        for p in &prompts("pinned", 40) {
            wrapper
                .model()
                .complete(p)
                .unwrap_or_else(|e| panic!("{label}: {p:?} must survive faults: {e}"));
        }
        assert_eq!(
            wrapper.ledger(),
            golden,
            "{label}: pinned ledger moved at rate {rate:?}"
        );
    }
}
