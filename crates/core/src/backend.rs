//! The resilient backend substrate: a production-grade client layer
//! between the prompt cache and the model endpoint.
//!
//! The paper assumes a well-behaved LLM endpoint; a deployed system must
//! survive timeouts, 429 rate limits and transient 5xx errors without
//! corrupting results. [`BackendConfig::wrap`] puts any [`LanguageModel`]
//! behind the protection stack a hosted deployment needs, composed in this
//! order:
//!
//! ```text
//! PromptCache                  (hits stop here: zero rate-limit budget)
//!   └─ RoutedBackend::single   (the router over one untagged endpoint)
//!        ├─ circuit breaker    (fail fast while the endpoint is down)
//!        ├─ token bucket       (client-side rate limiting, waits not errors)
//!        └─ retry loop         (exponential backoff, seeded jitter)
//!             └─ endpoint      (SimBackend fault injector → MockLlm, offline)
//! ```
//!
//! Breaker, bucket and backoff come from the crate's one resilience
//! kernel, and the loop that drives them is [`RoutedBackend`]'s; the
//! [`Dispatcher`] schedules the same decisions on a timer wheel.
//!
//! The cache sits *above* the backend, so hits never consume rate-limit
//! budget or retry attempts; misses flow down through the stack. Because
//! fault injection ([`unidm_llm::SimBackend`]) decides each attempt's fate
//! as a pure function of `(seed, prompt, attempt index)`, and successes
//! always return the inner model's deterministic completion, a faulty run
//! produces answers bit-identical to a fault-free run — serial, parallel,
//! cached or not — and aggregate endpoint-attempt counts are a pure
//! function of the workload and the plan, independent of thread
//! scheduling (retry counts too, unless the breaker is enabled — its
//! fast-fails consume retries in an order-sensitive way).
//!
//! All timing — token refill, backoff, breaker cooldown, injected latency
//! — runs on the stack's one [`unidm_llm::VirtualClock`], so tests replay
//! multi-second fault schedules in microseconds of wall time and no stack
//! reads the host's clock. A [`crate::BatchRunner`] runs one worker unless
//! told otherwise, so an eval run's backend counters are the serial run's
//! on every host.
//!
//! # Examples
//!
//! ```
//! use unidm::backend::BackendConfig;
//! use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//! let config = BackendConfig::resilient(7)
//!     .with_faults(FaultPlan::heavy(7))
//!     .with_rate_limit(50, 10);
//! let backend = config.wrap(&llm);
//!
//! let reply = backend.model().complete("The capital of Denmark is __.").unwrap();
//! assert_eq!(reply, llm.complete("The capital of Denmark is __.").unwrap(),
//!            "faults and throttling never change the answer");
//! let stats = backend.stats().unwrap();
//! assert_eq!(stats.calls, 1);
//! assert!(stats.attempts >= 1);
//! ```

use unidm_llm::{FaultPlan, FaultStats, LanguageModel};

use crate::dispatch::{Dispatcher, HedgePolicy};
use crate::route::{AimdPolicy, RoutePlan, RoutedBackend, RouterStats};

/// Retry policy: bounded exponential backoff with seeded jitter.
///
/// [`RetryPolicy::default()`] is the one schedule every stack runs
/// ([`RoutedBackend`] and the [`Dispatcher`] alike); the type names its
/// numbers for the backoff kernel and the tests that re-derive it.
///
/// Backoff for retry `n` (1-based) doubles from
/// [`RetryPolicy::base_backoff_us`] up to [`RetryPolicy::max_backoff_us`],
/// then is jittered into `[50%, 100%]` of that value by a deterministic
/// draw keyed on `(seed, prompt, n)` — different prompts desynchronize,
/// identical runs reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Maximum retries per call (0 disables retrying). The default (32)
    /// covers every stock [`FaultPlan`]'s consecutive-fault cap with room
    /// for breaker fast-fails, whose count under parallel contention is
    /// interleaving-dependent (each is preceded by a cooldown-length
    /// sleep, so a deep budget costs nothing on a virtual clock).
    pub max_retries: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Upper bound on a single backoff, in microseconds.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 32,
            base_backoff_us: 100_000,
            max_backoff_us: 10_000_000,
        }
    }
}

/// Circuit-breaker policy: after `failure_threshold` consecutive attempt
/// failures the breaker opens for `cooldown_us`, rejecting calls without
/// touching the endpoint; the first call after the cooldown half-opens the
/// breaker as a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open, in microseconds.
    pub cooldown_us: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown_us: 1_000_000,
        }
    }
}

/// Configuration of the resilient backend layer.
///
/// Every enabled stack retries on the one schedule,
/// [`RetryPolicy::default()`], and [`BackendConfig::breaker`] is the one
/// circuit-breaker switch, for the single stack and for each replica of
/// a [`BackendConfig::route`] fleet alike.
///
/// Integer-only fields keep the config `Eq`/`Hash` and every timing
/// decision exactly reproducible. The derived default is **disabled**
/// (`enabled: false`, no rate limit, no breaker, no faults) — wrapping
/// with a disabled config is a pass-through, so existing eval paths are
/// byte-identical unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BackendConfig {
    /// Whether [`BackendConfig::wrap`] builds the protection stack at all.
    pub enabled: bool,
    /// Seed for backoff jitter (and anything else the backend randomizes).
    pub seed: u64,
    /// Client-side rate limit, a fixed token bucket ([`AimdPolicy::fixed`];
    /// `None` = unlimited). One token is consumed per attempt that reaches
    /// the endpoint; an empty bucket makes the caller *wait* on the clock
    /// (it never errors), so client-side throttling cannot change answers.
    pub rate: Option<AimdPolicy>,
    /// Circuit breaker (`None` = disabled): the blocking stack's one
    /// breaker, or each replica's under [`BackendConfig::route`].
    pub breaker: Option<BreakerPolicy>,
    /// Optional fault-injection plan: when set, [`BackendConfig::wrap`]
    /// interposes a [`unidm_llm::SimBackend`] between the retry loop and
    /// the inner model, sharing the backend's clock.
    pub faults: Option<FaultPlan>,
    /// Route calls through the event-driven dispatcher
    /// ([`crate::dispatch::Dispatcher`]) instead of the blocking stack:
    /// completions become scheduled events on a timer wheel, so concurrent
    /// requests overlap in virtual time instead of summing it. The
    /// dispatcher implements rate pacing, retries and request coalescing;
    /// the breaker applies only to the blocking loop ([`RoutedBackend`]).
    pub pipelined: bool,
    /// Hedged-request policy (implies the dispatcher): stragglers
    /// exceeding the observed attempt-latency quantile get a duplicate
    /// attempt, first response wins, the loser is cancelled.
    pub hedge: Option<HedgePolicy>,
    /// Replica-routing plan (`None` = single endpoint): when set,
    /// [`BackendConfig::wrap`] builds a [`RoutedBackend`] fleet over the
    /// inner model — N replicas, each with its own copy of
    /// [`BackendConfig::breaker`], an AIMD bucket and an endpoint-aware
    /// fault injector. Routing takes precedence
    /// over [`BackendConfig::pipelined`]; to pipeline *over* a fleet,
    /// build the router explicitly and hand it to a
    /// [`crate::dispatch::Dispatcher`].
    pub route: Option<RoutePlan>,
}

impl BackendConfig {
    /// An enabled stack with default retrying and a default circuit
    /// breaker — the baseline a hosted deployment would start from.
    pub fn resilient(seed: u64) -> Self {
        BackendConfig {
            enabled: true,
            seed,
            breaker: Some(BreakerPolicy::default()),
            ..BackendConfig::default()
        }
    }

    /// Adds a token-bucket rate limit of `tokens_per_sec` sustained with
    /// `burst` headroom, both clamped to at least 1 (builder-style).
    pub fn with_rate_limit(mut self, tokens_per_sec: u64, burst: u64) -> Self {
        self.rate = Some(AimdPolicy::fixed(tokens_per_sec, burst));
        self
    }

    /// Replaces the circuit-breaker policy (builder-style).
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Disables the circuit breaker (builder-style).
    pub fn without_breaker(mut self) -> Self {
        self.breaker = None;
        self
    }

    /// Interposes a seeded fault injector (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Routes calls through the event-driven dispatcher (builder-style).
    pub fn with_pipelined(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Enables hedged requests under the dispatcher (builder-style).
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Routes calls over a replica fleet per `plan` (builder-style).
    pub fn with_route(mut self, plan: RoutePlan) -> Self {
        self.route = Some(plan);
        self
    }

    /// Wraps `inner` according to this configuration: a pass-through when
    /// disabled, a [`RoutedBackend`] replica fleet when
    /// [`BackendConfig::route`] is set, the event-driven dispatcher when
    /// [`BackendConfig::pipelined`] or a hedge policy is set, the blocking
    /// protection stack ([`RoutedBackend::single`]) otherwise — each on a
    /// fresh [`unidm_llm::VirtualClock`].
    pub fn wrap<'a>(&self, inner: &'a dyn LanguageModel) -> AttachedBackend<'a> {
        if !self.enabled {
            return AttachedBackend::Passthrough(inner);
        }
        if self.route.is_some() {
            return AttachedBackend::Routed(Box::new(RoutedBackend::from_plan(inner, *self)));
        }
        if self.pipelined || self.hedge.is_some() {
            return AttachedBackend::Dispatched(Box::new(Dispatcher::new(inner, *self)));
        }
        AttachedBackend::Routed(Box::new(RoutedBackend::single(inner, *self)))
    }
}

/// Bucket count of a [`LatencySketch`]: 1 zero bucket plus 4 sub-buckets
/// per power of two, covering up to ~2^32 microseconds (larger samples
/// saturate into the last bucket).
const SKETCH_BUCKETS: usize = 128;

/// A streaming latency quantile estimator over **integer microseconds** —
/// the online P99 source the hedged-request timer arms from.
///
/// The sketch is a fixed histogram of base-√√2 log buckets (four
/// sub-buckets per power of two, ≤ 25% relative quantile error), so it is
/// `Copy`, `Eq`, allocation-free, and merges *exactly*: merging two
/// sketches is integer bucket addition, bit-identical regardless of merge
/// order. No floats are stored anywhere, which is what keeps hedging
/// decisions — and therefore whole virtual timelines — deterministic.
///
/// # Examples
///
/// ```
/// use unidm::backend::LatencySketch;
///
/// let mut sketch = LatencySketch::default();
/// for _ in 0..99 {
///     sketch.record(50_000); // 99 fast attempts
/// }
/// sketch.record(2_000_000); // one straggler
/// assert!(sketch.quantile_us(500) < 100_000, "the median is fast");
/// assert!(sketch.quantile_us(995) >= 2_000_000, "the tail is visible");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencySketch {
    counts: [u64; SKETCH_BUCKETS],
    total: u64,
    max_us: u64,
    /// Smallest sample, exactly; `u64::MAX` while empty so that merging an
    /// empty sketch is the identity (`min` folds through unchanged).
    min_us: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch {
            counts: [0; SKETCH_BUCKETS],
            total: 0,
            max_us: 0,
            min_us: u64::MAX,
        }
    }
}

impl std::fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencySketch")
            .field("samples", &self.total)
            .field("min_us", &self.min_us())
            .field("p50_us", &self.quantile_us(500))
            .field("p99_us", &self.quantile_us(990))
            .field("max_us", &self.max_us)
            .finish()
    }
}

impl LatencySketch {
    fn bucket(us: u64) -> usize {
        if us == 0 {
            return 0;
        }
        let e = 63 - us.leading_zeros() as usize;
        let q = if e >= 2 {
            ((us >> (e - 2)) & 3) as usize
        } else {
            0
        };
        (1 + e * 4 + q).min(SKETCH_BUCKETS - 1)
    }

    /// Upper bound of bucket `idx` (the value a quantile in it reports).
    fn bucket_upper(idx: usize) -> u64 {
        if idx == 0 {
            return 0;
        }
        let e = (idx - 1) / 4;
        if e < 2 {
            // Below 4 µs a power of two is one bucket, `[2^e, 2^(e+1))`.
            return (2 << e) - 1;
        }
        let q = ((idx - 1) % 4) as u64;
        let base = 1u64 << e;
        base + ((q + 1) * base) / 4
    }

    /// Records one latency sample, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.max_us = self.max_us.max(us);
        self.min_us = self.min_us.min(us);
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The largest sample recorded, exactly.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The smallest sample recorded, exactly. Returns 0 when empty.
    pub fn min_us(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// The `permille`-th quantile (e.g. 990 = P99) in microseconds: the
    /// upper bound of the bucket holding that rank, clamped to the exact
    /// observed extremes. Returns 0 when empty.
    ///
    /// Rank 1 (permille 0, and any permille small enough that the rank
    /// rounds down to the first sample) is the observed minimum and is
    /// returned exactly — not the upper bound of the first occupied
    /// bucket, which would overestimate low quantiles by up to a bucket
    /// width.
    pub fn quantile_us(&self, permille: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total * u64::from(permille.min(1000))).div_ceil(1000);
        if rank <= 1 {
            return self.min_us;
        }
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(idx).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }

    /// Adds every sample of `other` into this sketch — exact integer
    /// bucket addition, associative and commutative, so per-shard or
    /// per-dispatcher sketches fold into the same aggregate in any order.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max_us = self.max_us.max(other.max_us);
        self.min_us = self.min_us.min(other.min_us);
    }
}

/// Counters of everything the backend layer did.
///
/// With a deterministic endpoint and fault schedule, re-running the same
/// serial workload reproduces these counters exactly. Under parallelism
/// the schedule-driven counters (`attempts` and the per-kind fault
/// tallies) stay workload-determined, while timing- and order-sensitive
/// ones (`breaker_*`, `throttle_*`) may vary with interleaving —
/// `retries` is schedule-driven only with the breaker disabled, because
/// each breaker fast-fail also consumes a retry.
///
/// The hedge counters (`hedges_*`, `dispatch_coalesced`) are produced by
/// the event-driven dispatcher (`unidm::dispatch`) and stay zero under
/// the blocking [`RoutedBackend`]; under the dispatcher's pipelined
/// mode they are fully deterministic. The two [`LatencySketch`] fields
/// aggregate exactly (see [`LatencySketch::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Logical `complete` calls that entered the backend.
    pub calls: u64,
    /// Attempts that reached the endpoint (each consumes one rate-limit
    /// token).
    pub attempts: u64,
    /// Retries across all calls (`attempts + breaker fast-fails - calls`
    /// for fully successful runs).
    pub retries: u64,
    /// Timeout errors observed from the endpoint.
    pub timeouts: u64,
    /// 429-style rate-limit rejections observed from the endpoint.
    pub rate_limited: u64,
    /// Transient 5xx-style errors observed from the endpoint.
    pub transients: u64,
    /// Closed→open breaker transitions.
    pub breaker_trips: u64,
    /// Calls rejected while the breaker was open (no endpoint attempt, no
    /// rate-limit token).
    pub breaker_fast_fails: u64,
    /// Attempts that had to wait for a rate-limit token.
    pub throttle_waits: u64,
    /// Total clock time spent waiting for tokens, in microseconds.
    pub throttle_wait_us: u64,
    /// Rate-limit tokens actually consumed. One per *logical* attempt:
    /// hedge duplicates never take a token, so under hedging this stays
    /// exactly one per winner (pinned by `tests/hedged_dispatch.rs`).
    pub rate_tokens: u64,
    /// Calls that ultimately returned an error.
    pub failures: u64,
    /// Hedge duplicates issued (straggler exceeded the armed quantile).
    pub hedges_issued: u64,
    /// Hedges whose duplicate finished first (first-response-wins).
    pub hedges_won: u64,
    /// Attempts cancelled because the other copy won — the "losers", never
    /// delivered and never memoized.
    pub hedges_cancelled: u64,
    /// Logical calls the dispatcher served without a new endpoint
    /// dispatch: attached to an already-pending identical request
    /// (request-level single-flight) or answered from the dispatcher's
    /// memo of resolved prompts.
    pub dispatch_coalesced: u64,
    /// Latencies of successful endpoint attempts, the estimator hedge
    /// timers arm from. Exact under the event-driven dispatcher; under the
    /// blocking backend on a shared virtual clock, concurrent sleeps bleed
    /// into each other's measurements (informational there).
    pub attempt_latency: LatencySketch,
    /// End-to-end latencies of successful logical calls (submit → deliver).
    pub request_latency: LatencySketch,
}

/// A model reference optionally wrapped in a configured backend stack (see
/// [`BackendConfig::wrap`]) — the shape the eval drivers thread between
/// their raw model and their prompt cache.
pub enum AttachedBackend<'a> {
    /// Backend disabled: calls go straight to the inner model.
    Passthrough(&'a dyn LanguageModel),
    /// The event-driven dispatcher ([`BackendConfig::pipelined`] or a
    /// hedge policy): completions are scheduled events on a timer wheel,
    /// concurrent requests overlap in virtual time, and stragglers can be
    /// hedged. Calls through [`AttachedBackend::model`] use the
    /// dispatcher's self-driving mode, so existing eval drivers work
    /// unchanged.
    Dispatched(Box<Dispatcher<'a>>),
    /// The blocking stack (boxed — it carries limiter, breaker and stats
    /// state the pass-through should not pay for): the protection stack
    /// over one endpoint, or a replica-routing fleet
    /// ([`BackendConfig::route`]) spreading calls uniformly over N
    /// endpoints, each with its own breaker, AIMD bucket and
    /// endpoint-aware fault injector.
    Routed(Box<RoutedBackend<'a>>),
}

impl<'a> AttachedBackend<'a> {
    /// The model callers should talk to (and, typically, layer a
    /// [`crate::PromptCache`] over).
    pub fn model(&self) -> &dyn LanguageModel {
        match self {
            AttachedBackend::Passthrough(m) => *m,
            AttachedBackend::Dispatched(d) => d.as_ref(),
            AttachedBackend::Routed(r) => r.as_ref(),
        }
    }

    /// Backend counters, when the stack is enabled (for a router: its
    /// counters projected into the flat shape, per
    /// [`RouterStats::backend_stats`]).
    pub fn stats(&self) -> Option<BackendStats> {
        match self {
            AttachedBackend::Passthrough(_) => None,
            AttachedBackend::Dispatched(d) => Some(d.stats()),
            AttachedBackend::Routed(r) => Some(r.backend_stats()),
        }
    }

    /// Per-endpoint router counters, when this backend is a
    /// [`RoutedBackend`].
    pub fn router_stats(&self) -> Option<RouterStats> {
        match self {
            AttachedBackend::Routed(r) => Some(r.stats()),
            _ => None,
        }
    }

    /// Fault-injection counters, when a [`FaultPlan`] is configured (for
    /// a router: merged across all endpoint injectors).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            AttachedBackend::Passthrough(_) => None,
            AttachedBackend::Dispatched(d) => d.fault_stats(),
            AttachedBackend::Routed(r) => r.fault_stats(),
        }
    }

    /// Virtual elapsed time of the backend's clock, in microseconds (0
    /// for a pass-through).
    pub fn elapsed_us(&self) -> u64 {
        match self {
            AttachedBackend::Passthrough(_) => 0,
            AttachedBackend::Dispatched(d) => d.clock().now_micros(),
            AttachedBackend::Routed(r) => r.clock().now_micros(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmError, LlmProfile, MockLlm, Usage};
    use unidm_world::World;

    fn model() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
    }

    #[test]
    fn disabled_config_is_a_pass_through() {
        let llm = model();
        let attached = BackendConfig::default().wrap(&llm);
        assert!(attached.stats().is_none());
        assert!(attached.fault_stats().is_none());
        assert_eq!(attached.elapsed_us(), 0);
        let direct = llm.complete("hello world").unwrap();
        assert_eq!(attached.model().complete("hello world").unwrap(), direct);
    }

    #[test]
    fn faulty_backend_returns_the_inner_answer() {
        let llm = model();
        let truth = llm.complete("The capital of Denmark is __.").unwrap();
        for seed in [1, 2, 3] {
            let backend = RoutedBackend::single(
                &llm,
                BackendConfig::resilient(seed).with_faults(FaultPlan::heavy(seed)),
            );
            let reply = backend.complete("The capital of Denmark is __.").unwrap();
            assert_eq!(reply, truth, "seed {seed}");
            let stats = backend.backend_stats();
            assert_eq!(stats.calls, 1);
            assert_eq!(stats.failures, 0);
            assert_eq!(
                stats.retries,
                stats.attempts + stats.breaker_fast_fails - stats.calls,
                "every non-final attempt or fast-fail is a retry"
            );
        }
    }

    #[test]
    fn retries_are_reproducible_per_seed() {
        let llm = model();
        let run = || {
            let backend = RoutedBackend::single(
                &llm,
                BackendConfig::resilient(9).with_faults(FaultPlan::heavy(9)),
            );
            for i in 0..25 {
                backend.complete(&format!("prompt number {i}")).unwrap();
            }
            (backend.backend_stats(), backend.fault_stats().unwrap())
        };
        assert_eq!(run(), run(), "same seed must reproduce every counter");
    }

    #[test]
    fn rate_limiter_paces_attempts_on_the_clock() {
        let llm = model();
        // 10 attempts/sec, burst 1: 20 calls need >= 1.9 virtual seconds.
        let backend =
            RoutedBackend::single(&llm, BackendConfig::resilient(1).with_rate_limit(10, 1));
        for i in 0..20 {
            backend.complete(&format!("paced prompt {i}")).unwrap();
        }
        let stats = backend.backend_stats();
        assert_eq!(stats.attempts, 20);
        assert_eq!(stats.throttle_waits, 19, "everything after the burst waits");
        assert!(
            backend.clock().now_micros() >= 1_900_000,
            "virtual time must cover the token deficit: {}us",
            backend.clock().now_micros()
        );
        assert!(stats.throttle_wait_us >= 1_900_000);
    }

    #[test]
    fn any_rate_limit_builds_a_bucket_that_never_throttles() {
        // `--rate-limit N` passes any u64 through: the largest rate and
        // burst must still build a bucket, not overflow its micro-tokens.
        let llm = model();
        let config = BackendConfig::resilient(1).with_rate_limit(u64::MAX, u64::MAX);
        let wrapped = config.wrap(&llm);
        wrapped.model().complete("unthrottled prompt").unwrap();
        let dispatcher = Dispatcher::new(&llm, config);
        dispatcher.complete("unthrottled prompt").unwrap();
        for stats in [wrapped.stats().unwrap(), dispatcher.stats()] {
            let (calls, tokens, waits) = (stats.calls, stats.rate_tokens, stats.throttle_waits);
            assert_eq!((calls, tokens, waits), (1, 1, 0), "{stats:?}");
        }
    }

    #[test]
    fn rate_limited_errors_honor_retry_after() {
        let llm = model();
        let plan = FaultPlan {
            rate_limit_permille: 1000,
            timeout_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: 2,
            ..FaultPlan::none(3)
        };
        let config = BackendConfig::resilient(3)
            .without_breaker()
            .with_faults(plan);
        let backend = RoutedBackend::single(&llm, config);
        backend.complete("throttled prompt").unwrap();
        let stats = backend.backend_stats();
        assert_eq!(stats.rate_limited, 2, "two 429s before the forced success");
        // Each retry slept at least the server's retry-after hint.
        let base_backoff_us = RetryPolicy::default().base_backoff_us;
        assert!(backend.clock().now_micros() >= 2 * base_backoff_us.min(250_000));
    }

    #[test]
    fn breaker_trips_fast_fails_and_recovers() {
        let llm = model();
        let backend = RoutedBackend::single(
            &llm,
            BackendConfig::resilient(5)
                .with_breaker(BreakerPolicy {
                    failure_threshold: 2,
                    cooldown_us: 500_000,
                })
                .with_faults(FaultPlan::always_faulty(5, 4)),
        );
        // Every prompt needs 4 faults absorbed; threshold 2 trips the
        // breaker mid-call, fast-fails once, then recovers via a probe.
        for i in 0..6 {
            backend.complete(&format!("stormy prompt {i}")).unwrap();
        }
        let stats = backend.backend_stats();
        assert!(stats.breaker_trips >= 1, "breaker must trip: {stats:?}");
        assert!(
            stats.breaker_fast_fails >= 1,
            "open breaker must fast-fail: {stats:?}"
        );
        assert_eq!(stats.failures, 0, "every call still completes");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let llm = model();
        let backend = RoutedBackend::single(&llm, BackendConfig::resilient(1));
        assert_eq!(backend.complete("  "), Err(LlmError::EmptyPrompt));
        let stats = backend.backend_stats();
        assert_eq!((stats.attempts, stats.retries), (1, 0));
        assert_eq!(stats.failures, 1);
    }

    #[test]
    fn backend_forwards_identity_and_usage() {
        let llm = model();
        let backend = RoutedBackend::single(&llm, BackendConfig::resilient(1));
        assert_eq!(backend.name(), llm.name());
        assert_eq!(backend.context_window(), llm.context_window());
        backend.complete("hello").unwrap();
        assert_eq!(backend.usage(), llm.usage());
        backend.reset_usage();
        assert_eq!(llm.usage(), Usage::default());
    }

    #[test]
    fn latency_sketch_quantiles_bound_the_samples() {
        let mut sketch = LatencySketch::default();
        assert_eq!(sketch.quantile_us(990), 0, "empty sketch reports zero");
        for us in [0u64, 1, 50_000, 50_000, 50_000, 2_000_000] {
            sketch.record(us);
        }
        assert_eq!(sketch.samples(), 6);
        assert_eq!(sketch.max_us(), 2_000_000);
        assert_eq!(sketch.quantile_us(1000), 2_000_000, "P100 is the exact max");
        // Bucket upper bounds: a reported quantile never undershoots the
        // true rank value by more than one sub-bucket (≤25% relative).
        let p50 = sketch.quantile_us(500);
        assert!((50_000..=62_500).contains(&p50), "P50 ~50ms, got {p50}");
        assert!(sketch.quantile_us(990) >= 2_000_000, "the tail is visible");
    }

    #[test]
    fn latency_sketch_merge_is_exact_and_order_independent() {
        let samples: Vec<u64> = (0..200u64).map(|i| (i * i * 997) % 3_000_000).collect();
        let mut whole = LatencySketch::default();
        for &us in &samples {
            whole.record(us);
        }
        // Split the samples three ways, merge the parts in two different
        // orders: integer bucket addition must reproduce the whole sketch
        // bit-for-bit (`Eq`, no floats anywhere).
        let mut parts = [LatencySketch::default(); 3];
        for (i, &us) in samples.iter().enumerate() {
            parts[i % 3].record(us);
        }
        let mut forward = LatencySketch::default();
        for part in &parts {
            forward.merge(part);
        }
        let mut backward = LatencySketch::default();
        for part in parts.iter().rev() {
            backward.merge(part);
        }
        assert_eq!(forward, whole, "merge must equal recording everything");
        assert_eq!(backward, whole, "merge must be order-independent");
        assert_eq!(forward.quantile_us(990), whole.quantile_us(990));
    }

    #[test]
    fn latency_sketch_matches_sorted_sample_oracle() {
        // Four sample shapes: uniform spread, heavy-tailed, a single-bucket
        // cluster (where the old rank math overshot p0), and samples in the
        // unsplit 2..4 µs bucket (whose bound was once reported as 2).
        let shapes: [Vec<u64>; 4] = [
            (0..500u64).map(|i| 17 + i * 911).collect(),
            (0..300u64)
                .map(|i| {
                    if i % 50 == 0 {
                        2_000_000 + i
                    } else {
                        40_000 + (i % 7)
                    }
                })
                .collect(),
            vec![50_001; 64],
            vec![2, 3, 3, 100],
        ];
        for samples in &shapes {
            let mut sketch = LatencySketch::default();
            for &us in samples {
                sketch.record(us);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let min = sorted[0];
            let max = *sorted.last().unwrap();
            assert_eq!(sketch.min_us(), min, "p0 must be the exact minimum");
            assert_eq!(sketch.quantile_us(0), min, "p0 must be the exact minimum");
            assert_eq!(sketch.quantile_us(1000), max, "p100 is the exact maximum");
            for permille in [1u32, 10, 100, 250, 500, 750, 900, 990, 999] {
                let rank = ((sorted.len() as u64) * u64::from(permille)).div_ceil(1000);
                let oracle = sorted[rank.max(1) as usize - 1];
                let got = sketch.quantile_us(permille);
                // The sketch reports the upper bound of the oracle's
                // bucket: never below the true value, never more than one
                // sub-bucket (≤25% relative, +2 for integer rounding)
                // above it.
                assert!(
                    got >= oracle,
                    "p{permille} undershoots: {got} < oracle {oracle}"
                );
                assert!(
                    got <= oracle + oracle / 4 + 2,
                    "p{permille} overshoots its bucket: {got} vs oracle {oracle}"
                );
            }
        }
    }

    #[test]
    fn latency_sketch_min_tracking_survives_merge_identity() {
        let mut sketch = LatencySketch::default();
        sketch.record(700);
        sketch.record(90);
        let snapshot = sketch;
        // Merging an empty sketch is the identity (min folds through the
        // u64::MAX sentinel), and min merges exactly in either direction.
        sketch.merge(&LatencySketch::default());
        assert_eq!(sketch, snapshot);
        let mut other = LatencySketch::default();
        other.record(40);
        sketch.merge(&other);
        assert_eq!(sketch.min_us(), 40);
        assert_eq!(LatencySketch::default().min_us(), 0, "empty reports zero");
    }
}
