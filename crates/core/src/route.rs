//! Multi-endpoint routing and model cascades: `RoutedBackend` and
//! `CascadeBackend`.
//!
//! A deployed UniDM instance does not talk to one endpoint. It talks to a
//! *fleet* — N replicas of the workhorse model behind a load balancer,
//! plus a cheap small model that can answer most prompts at a fraction of
//! the large model's cost. This module is that layer:
//!
//! ```text
//! PromptCache                       (hits stop here)
//!   └─ CascadeBackend              (cheap tier first, escalate on weak answers)
//!        ├─ RoutedBackend[cheap]   (N replicas)
//!        └─ RoutedBackend[large]   (prompt table: one StackPrompt per distinct prompt)
//!             ├─ endpoint 0: breaker ── AIMD bucket ── SimBackend ── model
//!             ├─ endpoint 1: breaker ── AIMD bucket ── SimBackend ── model
//!             └─ endpoint 2: ...
//! ```
//!
//! [`RoutedBackend`] implements [`LanguageModel`] over N endpoints, and
//! its `complete` is the crate's one blocking attempt loop
//! (the single-endpoint protection stack is this router built by
//! [`RoutedBackend::single`]). Each endpoint carries its own circuit breaker, latency
//! sketch and an AIMD-adapted token bucket — the resilience kernel's state
//! machines, which the router feeds the clock and sleeps on. Observed
//! `RateLimited` (429) errors halve the endpoint's admission rate
//! (multiplicative decrease, floored), successes add it back one step at
//! a time (additive increase, capped) — all in integer micro-tokens, so
//! rate trajectories are exactly reproducible. A prompt is routed by a
//! seeded uniform draw over the endpoints whose breakers admit it;
//! retries re-draw with the attempt index mixed in, so a failing endpoint
//! sheds traffic to its healthy peers even before its breaker opens.
//!
//! [`CascadeBackend`] stacks the cost policy on top: every prompt goes to
//! the cheap tier first, and escalates to the large tier only when the
//! cheap answer is unparseable or falls below a confidence gate
//! ([`answer_confidence_permille`]) — the paper-adjacent "model cascade"
//! that buys most of the large model's accuracy at a fraction of its
//! billed cost ([`LlmProfile::cost_micro_per_token`]).
//!
//! # One copy of a prompt per stack
//!
//! A router that owns a fault injector keeps a private prompt table: a
//! call probes it once (one content hash and one compare) for the stack's
//! [`StackPrompt`] — the prompt's one owned text and the router's dice with
//! it absorbed — and lends that to the routing draw, every backoff and the
//! routed endpoint's injector, which keys its own state by the same text.
//! A distinct prompt is therefore copied once per stack however many
//! replicas see it, and read for a draw once per stack however many calls
//! repeat it (the injectors share the absorption when they are on the
//! router's seed, as every [`BackendConfig::with_faults`] stack in the
//! tree is). The table grows with the distinct prompts seen, exactly as
//! the injectors' schedule state already does. A router over bare models
//! keeps no table and no text: it absorbs a prompt lazily, at most once
//! per call, and a live stack never grows per distinct prompt.
//!
//! # Determinism
//!
//! Routing decisions are pure functions of `(seed, prompt, attempt)`;
//! fault schedules are endpoint-aware (each replica's
//! [`unidm_llm::SimBackend`] mixes its endpoint id into the slot draw);
//! successes always return the inner model's completion. Answers are
//! therefore bit-identical to a direct call whatever the fleet does, and a
//! serial rerun reproduces [`RouterStats`] — including per-endpoint call
//! counts — exactly.
//!
//! # Examples
//!
//! ```
//! use unidm::route::{AimdPolicy, EndpointConfig, RoutedBackend};
//! use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//! let router = RoutedBackend::new(7)
//!     .endpoint(&llm, EndpointConfig::new().with_faults(FaultPlan::moderate(7)))
//!     .endpoint(&llm, EndpointConfig::new().with_faults(FaultPlan::moderate(7)));
//!
//! let reply = router.complete("The capital of Denmark is __.").unwrap();
//! assert_eq!(reply, llm.complete("The capital of Denmark is __.").unwrap(),
//!            "routing never changes answers");
//! let stats = router.stats();
//! assert_eq!(stats.calls, 1);
//! assert_eq!(stats.endpoints.len(), 2);
//! ```

use std::cell::OnceCell;
use std::sync::{Arc, Mutex, MutexGuard};

use unidm_llm::{
    Clock, Completion, Dice, DiceContext, FaultPlan, FaultStats, LanguageModel, LlmError,
    LlmProfile, StackPrompt, Usage, VirtualClock,
};
use unidm_text::hash::PromptMap;

use crate::backend::{BackendConfig, BackendStats, BreakerPolicy, LatencySketch, RetryPolicy};
use crate::resilience::{backoff_us, tally_fault, Breaker, Bucket, Endpoint};

/// AIMD rate-adaptation policy for one endpoint: a token bucket whose
/// sustained rate moves between `min_per_sec` and `max_per_sec` — halved
/// on every observed 429 ([`LlmError::RateLimited`]), raised by
/// `increase_per_sec` on every success. All fields are integers, so the
/// rate trajectory is exact and the policy stays `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AimdPolicy {
    /// Rate the endpoint starts at, in attempts per second.
    pub initial_per_sec: u64,
    /// Floor of the multiplicative decrease.
    pub min_per_sec: u64,
    /// Ceiling of the additive increase.
    pub max_per_sec: u64,
    /// Attempts-per-second added per successful attempt (0 freezes the
    /// rate — a plain fixed token bucket).
    pub increase_per_sec: u64,
    /// Bucket capacity (burst headroom), in attempts.
    pub burst: u64,
}

impl AimdPolicy {
    /// An adaptive policy starting at `initial` attempts/sec: floor
    /// `initial/8`, ceiling `initial*4`, +1/sec per success, burst
    /// `initial/10` (all clamped to at least 1).
    pub fn per_sec(initial: u64) -> Self {
        let initial = initial.max(1);
        AimdPolicy {
            initial_per_sec: initial,
            min_per_sec: (initial / 8).max(1),
            max_per_sec: initial.saturating_mul(4),
            increase_per_sec: 1,
            burst: (initial / 10).max(1),
        }
    }

    /// A non-adaptive policy: a plain token bucket of `per_sec` sustained
    /// with `burst` headroom (no increases, no decreases).
    pub fn fixed(per_sec: u64, burst: u64) -> Self {
        let rate = per_sec.max(1);
        AimdPolicy {
            initial_per_sec: rate,
            min_per_sec: rate,
            max_per_sec: rate,
            increase_per_sec: 0,
            burst: burst.max(1),
        }
    }
}

/// A `Copy` description of a replica-routing fleet, carried inside
/// [`BackendConfig`] so the eval drivers opt into routing without any
/// wiring changes: [`BackendConfig::wrap`] fans the single inner model out
/// into `replicas` endpoints, each with its own breaker, AIMD bucket and
/// (when [`BackendConfig::faults`] is set) an endpoint-aware fault
/// injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutePlan {
    /// Number of replica endpoints (at least 1).
    pub replicas: u32,
    /// Per-endpoint circuit breaker (`None` disables breakers).
    pub breaker: Option<BreakerPolicy>,
    /// Per-endpoint AIMD rate adaptation (`None` = unlimited).
    pub aimd: Option<AimdPolicy>,
}

impl RoutePlan {
    /// A fleet of `n` replicas (at least 1) with default per-endpoint
    /// breakers and no rate adaptation.
    pub fn replicas(n: u32) -> Self {
        RoutePlan {
            replicas: n.max(1),
            breaker: Some(BreakerPolicy::default()),
            aimd: None,
        }
    }

    /// Disables per-endpoint breakers (builder-style).
    pub fn without_breaker(mut self) -> Self {
        self.breaker = None;
        self
    }

    /// Adds per-endpoint AIMD rate adaptation (builder-style).
    pub fn with_aimd(mut self, aimd: AimdPolicy) -> Self {
        self.aimd = Some(aimd);
        self
    }
}

/// Configuration of one endpoint added to a [`RoutedBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EndpointConfig {
    /// Fault-injection plan: when set, the router owns a
    /// [`unidm_llm::SimBackend`] over the endpoint's model, tagged with
    /// this endpoint's id so replicas sharing a plan draw independent
    /// fault schedules.
    pub faults: Option<FaultPlan>,
    /// Circuit breaker for this endpoint (`None` = none).
    pub breaker: Option<BreakerPolicy>,
    /// AIMD rate adaptation for this endpoint (`None` = unlimited).
    pub aimd: Option<AimdPolicy>,
}

impl EndpointConfig {
    /// A bare endpoint: no faults, no breaker, no rate adaptation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interposes a seeded, endpoint-aware fault injector (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Adds a circuit breaker (builder-style).
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Adds AIMD rate adaptation (builder-style).
    pub fn with_aimd(mut self, aimd: AimdPolicy) -> Self {
        self.aimd = Some(aimd);
        self
    }
}

/// Exact counters for one endpoint of a router (or one tier of a
/// cascade). Every field is an integer (the sketch is integer buckets),
/// so [`EndpointStats::merge`] is exact and order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointStats {
    /// Logical calls whose *first* attempt was routed to this endpoint.
    pub calls: u64,
    /// Attempts that reached this endpoint (first tries and retries).
    pub attempts: u64,
    /// Attempts that returned a completion.
    pub successes: u64,
    /// Timeout errors observed from this endpoint.
    pub timeouts: u64,
    /// 429-style rate-limit rejections observed from this endpoint.
    pub rate_limited: u64,
    /// Transient 5xx-style errors observed from this endpoint.
    pub transients: u64,
    /// Closed→open transitions of this endpoint's breaker.
    pub breaker_trips: u64,
    /// Selections that skipped this endpoint because its breaker was open
    /// (traffic shed to its peers, no attempt consumed).
    pub breaker_open_skips: u64,
    /// Attempts that waited for an AIMD token.
    pub throttle_waits: u64,
    /// Total clock time spent waiting for AIMD tokens, microseconds.
    pub throttle_wait_us: u64,
    /// AIMD tokens consumed (one per attempt when a bucket is configured).
    pub rate_tokens: u64,
    /// Additive rate increases applied (successes below the ceiling).
    pub aimd_increases: u64,
    /// Multiplicative rate decreases applied (429s above the floor).
    pub aimd_decreases: u64,
    /// Prompt tokens of completions served by this endpoint.
    pub prompt_tokens: u64,
    /// Completion tokens of completions served by this endpoint.
    pub completion_tokens: u64,
    /// Billed cost of those tokens, in integer micro-units.
    pub billed_micro: u64,
    /// Latencies of successful attempts on this endpoint.
    pub latency: LatencySketch,
}

impl EndpointStats {
    /// Folds `other` into `self` — exact integer addition on every field.
    pub fn merge(&mut self, other: &EndpointStats) {
        self.calls += other.calls;
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.timeouts += other.timeouts;
        self.rate_limited += other.rate_limited;
        self.transients += other.transients;
        self.breaker_trips += other.breaker_trips;
        self.breaker_open_skips += other.breaker_open_skips;
        self.throttle_waits += other.throttle_waits;
        self.throttle_wait_us += other.throttle_wait_us;
        self.rate_tokens += other.rate_tokens;
        self.aimd_increases += other.aimd_increases;
        self.aimd_decreases += other.aimd_decreases;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.billed_micro += other.billed_micro;
        self.latency.merge(&other.latency);
    }

    /// Total tokens billed to this endpoint.
    pub fn tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Bills `completion`'s tokens at `cost_micro_per_token`.
    fn bill(&mut self, completion: &Completion, cost_micro_per_token: u64) {
        self.prompt_tokens += completion.usage.prompt_tokens as u64;
        self.completion_tokens += completion.usage.completion_tokens as u64;
        self.billed_micro += completion.usage.total() as u64 * cost_micro_per_token;
    }
}

/// Exact counters of everything a router (or cascade) did, mirroring
/// [`BackendStats`]: every field is an integer, [`RouterStats::merge`] is
/// commutative bucket-and-counter addition, and a serial rerun of the
/// same workload reproduces the whole struct bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Logical `complete` calls that entered the router.
    pub calls: u64,
    /// Calls that returned a completion.
    pub answers: u64,
    /// Calls that ultimately returned an error.
    pub failures: u64,
    /// Retries across all calls.
    pub retries: u64,
    /// Selections that found *every* endpoint's breaker open (the call
    /// backs off for the shortest remaining cooldown and retries).
    pub all_open: u64,
    /// Cascade: prompts escalated from the cheap tier to the large tier.
    pub escalations: u64,
    /// Cascade: escalations triggered by an unparseable cheap answer
    /// (confidence 0).
    pub unparseable: u64,
    /// Cascade: escalations triggered by a parseable but low-confidence
    /// cheap answer.
    pub low_confidence: u64,
    /// Cascade: escalations triggered by a cheap-tier error.
    pub error_escalations: u64,
    /// End-to-end latencies of successful calls (router only; a cascade
    /// has no clock of its own and leaves this empty).
    pub request_latency: LatencySketch,
    /// Per-endpoint counters, indexed by endpoint id (for a cascade:
    /// index 0 is the cheap tier, index 1 the large tier).
    pub endpoints: Vec<EndpointStats>,
}

impl RouterStats {
    /// Folds `other` into `self` — exact integer addition on every
    /// counter, endpoint-wise on the per-endpoint vectors (shorter
    /// vectors are padded), commutative like [`BackendStats::merge`].
    pub fn merge(&mut self, other: &RouterStats) {
        self.calls += other.calls;
        self.answers += other.answers;
        self.failures += other.failures;
        self.retries += other.retries;
        self.all_open += other.all_open;
        self.escalations += other.escalations;
        self.unparseable += other.unparseable;
        self.low_confidence += other.low_confidence;
        self.error_escalations += other.error_escalations;
        self.request_latency.merge(&other.request_latency);
        if self.endpoints.len() < other.endpoints.len() {
            self.endpoints
                .resize(other.endpoints.len(), EndpointStats::default());
        }
        for (mine, theirs) in self.endpoints.iter_mut().zip(other.endpoints.iter()) {
            mine.merge(theirs);
        }
    }

    /// Total attempts across all endpoints.
    pub fn attempts(&self) -> u64 {
        self.endpoints.iter().map(|e| e.attempts).sum()
    }

    /// Total tokens across all endpoints.
    pub fn tokens(&self) -> u64 {
        self.endpoints.iter().map(EndpointStats::tokens).sum()
    }

    /// Total billed cost across all endpoints, integer micro-units.
    pub fn billed_micro(&self) -> u64 {
        self.endpoints.iter().map(|e| e.billed_micro).sum()
    }

    /// Total breaker trips across all endpoints.
    pub fn breaker_trips(&self) -> u64 {
        self.endpoints.iter().map(|e| e.breaker_trips).sum()
    }

    /// Tokens per answered call, in milli-tokens (exact integer:
    /// `tokens * 1000 / answers`; 0 when nothing was answered).
    pub fn tokens_per_answer_milli(&self) -> u64 {
        if self.answers == 0 {
            return 0;
        }
        self.tokens() * 1000 / self.answers
    }

    /// Billed micro-units per answered call (0 when nothing was
    /// answered).
    pub fn billed_per_answer_micro(&self) -> u64 {
        if self.answers == 0 {
            return 0;
        }
        self.billed_micro() / self.answers
    }

    /// The router's counters folded into the flat [`BackendStats`] shape,
    /// so routers aggregate alongside dispatchers
    /// (open-breaker skips map to `breaker_fast_fails`).
    pub fn backend_stats(&self) -> BackendStats {
        let mut out = BackendStats {
            calls: self.calls,
            retries: self.retries,
            failures: self.failures,
            request_latency: self.request_latency,
            ..BackendStats::default()
        };
        for e in &self.endpoints {
            out.attempts += e.attempts;
            out.timeouts += e.timeouts;
            out.rate_limited += e.rate_limited;
            out.transients += e.transients;
            out.breaker_trips += e.breaker_trips;
            out.breaker_fast_fails += e.breaker_open_skips;
            out.throttle_waits += e.throttle_waits;
            out.throttle_wait_us += e.throttle_wait_us;
            out.rate_tokens += e.rate_tokens;
            out.attempt_latency.merge(&e.latency);
        }
        out
    }
}

struct EndpointState<'a> {
    model: Endpoint<'a>,
    /// Address of the caller-supplied model, for usage deduplication:
    /// replicas over one shared inner model share one usage counter.
    origin: usize,
    breaker: Option<Mutex<Breaker>>,
    bucket: Option<Mutex<Bucket>>,
    stats: Mutex<EndpointStats>,
}

impl EndpointState<'_> {
    fn lock_stats(&self) -> MutexGuard<'_, EndpointStats> {
        self.stats.lock().expect("endpoint stats lock poisoned")
    }
}

/// Locks an endpoint's optional breaker or bucket.
fn lock<T>(slot: &Option<Mutex<T>>) -> Option<MutexGuard<'_, T>> {
    Some(slot.as_ref()?.lock().expect("endpoint lock poisoned"))
}

/// A call's hold on its prompt, for the routing draw, the backoffs and the
/// endpoint.
enum CallPrompt<'p> {
    /// The stack's handle, out of the router's prompt table: absorbed at
    /// the prompt's first sight, so no draw of the call reads its bytes.
    Shared(StackPrompt),
    /// The caller's text, under a router that keeps no table: absorbed at
    /// most once per call, by the first routing draw or backoff that needs
    /// it.
    Lent {
        text: &'p str,
        absorbed: OnceCell<DiceContext>,
    },
}

impl CallPrompt<'_> {
    fn draws(&self, dice: &Dice) -> DiceContext {
        match self {
            CallPrompt::Shared(shared) => shared.draws(dice),
            CallPrompt::Lent { text, absorbed } => *absorbed.get_or_init(|| dice.context(text)),
        }
    }
}

/// A multi-endpoint router implementing [`LanguageModel`].
///
/// See the [module docs](self) for the layering and determinism story.
/// Build one endpoint at a time with [`RoutedBackend::endpoint`], or let
/// [`BackendConfig::wrap`] fan a single model out into replicas via
/// [`RoutePlan`].
pub struct RoutedBackend<'a> {
    name: String,
    endpoints: Vec<EndpointState<'a>>,
    retry: RetryPolicy,
    dice: Dice,
    clock: Arc<dyn Clock>,
    /// The stack's prompt table: its one copy of every distinct prompt,
    /// absorbed into `dice`. Present iff the router built a fault injector
    /// — per-prompt state that grows without bound already, and keys off
    /// these copies; a router over direct endpoints retains no prompt.
    prompts: Option<Mutex<PromptMap<StackPrompt, Arc<str>>>>,
    scalars: Mutex<RouterStats>,
}

impl std::fmt::Debug for RoutedBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedBackend")
            .field("name", &self.name)
            .field("endpoints", &self.endpoints.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'a> RoutedBackend<'a> {
    /// An empty router on a fresh [`VirtualClock`]; add endpoints with
    /// [`RoutedBackend::endpoint`]. `seed` drives routing draws and
    /// backoff jitter.
    pub fn new(seed: u64) -> Self {
        RoutedBackend {
            name: "routed[]".to_string(),
            endpoints: Vec::new(),
            retry: RetryPolicy::default(),
            dice: Dice::new(seed),
            clock: Arc::new(VirtualClock::new()),
            prompts: None,
            scalars: Mutex::new(RouterStats::default()),
        }
    }

    /// Replaces the cross-endpoint retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds an endpoint (builder-style). The endpoint id is its index in
    /// insertion order; a [`FaultPlan`] in `config` becomes an owned
    /// [`unidm_llm::SimBackend`] tagged with that id, so replicas sharing
    /// a plan draw independent fault schedules.
    pub fn endpoint(mut self, model: &'a dyn LanguageModel, config: EndpointConfig) -> Self {
        let id = self.endpoints.len() as u64;
        self.push(model, config, Some(id));
        self.name = self.display_name();
        self
    }

    fn push(&mut self, model: &'a dyn LanguageModel, config: EndpointConfig, tag: Option<u64>) {
        let now = self.clock.now_micros();
        if config.faults.is_some() {
            self.prompts.get_or_insert_with(Mutex::default);
        }
        self.endpoints.push(EndpointState {
            model: Endpoint::new(model, config.faults, self.clock.clone(), tag),
            origin: model as *const dyn LanguageModel as *const () as usize,
            breaker: config
                .breaker
                .map(|policy| Mutex::new(Breaker::new(policy))),
            bucket: config
                .aimd
                .map(|policy| Mutex::new(Bucket::new(policy, now))),
            stats: Mutex::new(EndpointStats::default()),
        });
    }

    /// Builds a replica fleet over one shared `inner` model from
    /// `config.route` (identity plan when unset), on `config`'s seed and
    /// retry policy: each replica gets the plan's breaker and AIMD
    /// policies plus an endpoint-aware copy of `config.faults`.
    pub fn from_plan(inner: &'a dyn LanguageModel, config: BackendConfig) -> Self {
        let plan = config.route.unwrap_or_else(|| RoutePlan::replicas(1));
        let mut router = RoutedBackend::new(config.seed).with_retry(config.retry);
        for _ in 0..plan.replicas.max(1) {
            let endpoint = EndpointConfig {
                faults: config.faults,
                breaker: plan.breaker,
                aimd: plan.aimd,
            };
            router = router.endpoint(inner, endpoint);
        }
        router
    }

    /// The blocking protection stack over one endpoint, on a fresh
    /// [`VirtualClock`] and `config`'s seed and retry policy: one
    /// *untagged* endpoint (fault-slot keys carry no endpoint id) named
    /// after `inner`, with `config`'s breaker and rate-limit bucket.
    pub fn single(inner: &'a dyn LanguageModel, config: BackendConfig) -> Self {
        let mut router = RoutedBackend::new(config.seed).with_retry(config.retry);
        let endpoint = EndpointConfig {
            faults: config.faults,
            breaker: config.breaker,
            aimd: config.rate,
        };
        router.push(inner, endpoint, None);
        router.name = inner.name().to_string();
        router
    }

    fn display_name(&self) -> String {
        let names: Vec<&str> = self
            .endpoints
            .iter()
            .map(|e| e.model.model().name())
            .collect();
        match names.split_first() {
            None => "routed[]".to_string(),
            Some((first, rest)) if rest.iter().all(|n| n == first) => {
                format!("routed[{first}x{}]", names.len())
            }
            _ => format!("routed[{}]", names.join("+")),
        }
    }

    /// The clock every routing decision and wait runs on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// A snapshot of the router counters, per-endpoint stats included.
    pub fn stats(&self) -> RouterStats {
        let mut stats = self.lock_scalars().clone();
        stats.endpoints = self.endpoints.iter().map(|e| *e.lock_stats()).collect();
        stats
    }

    /// The router's counters in the flat [`BackendStats`] shape.
    pub fn backend_stats(&self) -> BackendStats {
        self.stats().backend_stats()
    }

    /// Merged fault-injection counters across all endpoint injectors
    /// (`None` when no endpoint has a fault plan).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.endpoints
            .iter()
            .filter_map(|e| e.model.fault_stats())
            .reduce(|mut merged, stats| {
                merged.merge(&stats);
                merged
            })
    }

    /// The current AIMD rate of endpoint `index`, attempts per second
    /// (`None` when the endpoint has no bucket or does not exist).
    pub fn current_rate_per_sec(&self, index: usize) -> Option<u64> {
        Some(lock(&self.endpoints.get(index)?.bucket)?.rate_per_sec())
    }

    fn lock_scalars(&self) -> MutexGuard<'_, RouterStats> {
        self.scalars.lock().expect("router stats lock poisoned")
    }

    /// Picks an endpoint for attempt `retry` (0-based) of a prompt: a
    /// seeded uniform draw over the endpoints whose breakers admit
    /// traffic — `draws` yields the router's dice with the prompt absorbed,
    /// and is only asked when there is a choice to make.
    /// `Err(min remaining cooldown)` when every breaker is open.
    fn select(&self, draws: impl Fn() -> DiceContext, retry: u32) -> Result<usize, u64> {
        let now = self.clock.now_micros();
        // Open breakers are the exception, so the *skipped* endpoints are
        // what gets collected: a healthy fleet selects without allocating.
        let mut skipped: Vec<usize> = Vec::new();
        let mut min_cooldown = u64::MAX;
        for (i, endpoint) in self.endpoints.iter().enumerate() {
            let admitted = lock(&endpoint.breaker).map_or(Ok(()), |mut b| b.admit(now));
            if let Err(remaining) = admitted {
                endpoint.lock_stats().breaker_open_skips += 1;
                min_cooldown = min_cooldown.min(remaining);
                skipped.push(i);
            }
        }
        let mut admissible = (0..self.endpoints.len()).filter(|i| !skipped.contains(i));
        match (self.endpoints.len() - skipped.len()) as u64 {
            0 => Err(min_cooldown),
            // One candidate decides the draw; `Dice` draws are stateless,
            // so skipping this one moves no other.
            1 => Ok(admissible.next().expect("one endpoint is admissible")),
            n => {
                let draw = draws().uniform(format_args!("route-{retry}"));
                let pick = ((draw * n as f64) as u64).min(n - 1);
                Ok(admissible.nth(pick as usize).expect("the pick is below n"))
            }
        }
    }

    /// The call's hold on `prompt`. With a table: one probe per call and,
    /// on first sight, the stack's one copy and one absorption — made
    /// outside the lock, and absorbed before it is filed so every later
    /// clone carries the context. Of two racing first sights the first
    /// filed stays: the injectors may already key by its text.
    fn hold<'p>(&self, prompt: &'p str) -> CallPrompt<'p> {
        let Some(table) = &self.prompts else {
            return CallPrompt::Lent {
                text: prompt,
                absorbed: OnceCell::new(),
            };
        };
        let lock = || table.lock().expect("prompt table lock poisoned");
        let seen = lock().get(prompt).cloned();
        CallPrompt::Shared(seen.unwrap_or_else(|| {
            let fresh = StackPrompt::new(prompt, self.dice);
            fresh.draws(&self.dice);
            lock().entry(fresh.text().clone()).or_insert(fresh).clone()
        }))
    }

    /// One attempt of `prompt` on `endpoint`: wait for a rate token, call,
    /// and feed the outcome to the endpoint's breaker, bucket and
    /// counters. `first` marks the call's first attempt.
    fn attempt(
        &self,
        endpoint: &EndpointState<'_>,
        prompt: &CallPrompt<'_>,
        first: bool,
    ) -> Result<Arc<Completion>, LlmError> {
        let now = self.clock.now_micros();
        let waited = lock(&endpoint.bucket).map_or(0, |mut b| b.grant(now) - now);
        if waited > 0 {
            self.clock.sleep_micros(waited);
        }
        {
            let mut stats = endpoint.lock_stats();
            stats.calls += u64::from(first);
            stats.throttle_waits += u64::from(waited > 0);
            stats.throttle_wait_us += waited;
            stats.rate_tokens += u64::from(endpoint.bucket.is_some());
            stats.attempts += 1;
        }
        let attempt_start = self.clock.now_micros();
        let result = match prompt {
            CallPrompt::Shared(shared) => endpoint.model.complete(shared),
            // No table means no injector: every endpoint is the bare model.
            CallPrompt::Lent { text, .. } => endpoint.model.model().complete(text),
        };
        let end = self.clock.now_micros();
        match &result {
            Ok(completion) => {
                if let Some(mut breaker) = lock(&endpoint.breaker) {
                    breaker.success();
                }
                let increased = lock(&endpoint.bucket).is_some_and(|mut b| b.on_success());
                let mut stats = endpoint.lock_stats();
                stats.aimd_increases += u64::from(increased);
                stats.successes += 1;
                stats.latency.record(end - attempt_start);
                // A router bills nothing: cost is the cascade's to track.
                stats.bill(completion, 0);
            }
            Err(e) if e.is_transient() => {
                let decreased = matches!(e, LlmError::RateLimited { .. })
                    && lock(&endpoint.bucket).is_some_and(|mut b| b.on_rate_limited());
                let tripped = lock(&endpoint.breaker).is_some_and(|mut b| b.failure(end));
                let mut stats = endpoint.lock_stats();
                let s = &mut *stats;
                tally_fault(e, &mut s.timeouts, &mut s.rate_limited, &mut s.transients);
                s.aimd_decreases += u64::from(decreased);
                s.breaker_trips += u64::from(tripped);
            }
            Err(_) => {}
        }
        result
    }
}

impl LanguageModel for RoutedBackend<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    /// The blocking attempt loop: breaker-aware endpoint selection, one
    /// attempt, then — on a transient failure with retries left — a kernel
    /// backoff slept on the clock.
    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        assert!(
            !self.endpoints.is_empty(),
            "RoutedBackend requires at least one endpoint"
        );
        self.lock_scalars().calls += 1;
        let start = self.clock.now_micros();
        let prompt = self.hold(prompt);
        let draws = || prompt.draws(&self.dice);
        let mut retry = 0u32;
        loop {
            let err = match self.select(draws, retry) {
                Err(cooldown_us) => {
                    self.lock_scalars().all_open += 1;
                    LlmError::CircuitOpen { cooldown_us }
                }
                Ok(index) => match self.attempt(&self.endpoints[index], &prompt, retry == 0) {
                    Ok(completion) => {
                        let mut scalars = self.lock_scalars();
                        scalars.answers += 1;
                        let elapsed = self.clock.now_micros() - start;
                        scalars.request_latency.record(elapsed);
                        return Ok(completion);
                    }
                    Err(e) if e.is_transient() => e,
                    Err(e) => {
                        // Permanent: no endpoint can succeed on the
                        // identical call, so surface it immediately.
                        self.lock_scalars().failures += 1;
                        return Err(e);
                    }
                },
            };
            if retry >= self.retry.max_retries {
                self.lock_scalars().failures += 1;
                return Err(err);
            }
            retry += 1;
            self.lock_scalars().retries += 1;
            self.clock
                .sleep_micros(backoff_us(self.retry, &draws(), retry, &err));
        }
    }

    fn usage(&self) -> Usage {
        let mut seen: Vec<usize> = Vec::with_capacity(self.endpoints.len());
        let mut total = Usage::default();
        for endpoint in &self.endpoints {
            if seen.contains(&endpoint.origin) {
                continue;
            }
            seen.push(endpoint.origin);
            total.add(endpoint.model.model().usage());
        }
        total
    }

    fn reset_usage(&self) {
        for endpoint in &self.endpoints {
            endpoint.model.model().reset_usage();
        }
    }

    fn context_window(&self) -> usize {
        self.endpoints
            .iter()
            .map(|e| e.model.model().context_window())
            .min()
            .unwrap_or(usize::MAX)
    }

    fn latency_profile(&self) -> unidm_llm::LatencyProfile {
        self.endpoints
            .first()
            .map(|e| e.model.model().latency_profile())
            .unwrap_or_default()
    }
}

/// Deterministic confidence of a model answer, in permille.
///
/// The cascade has no log-probabilities to gate on, so confidence is a
/// pure function of the answer text: known failure markers (`unknown`,
/// "I'm not sure", `n/a`, empty) score 0 (*unparseable*); hedging
/// language, question marks and rambling length each subtract from a
/// base of 1000. Integer arithmetic only, so escalation decisions are
/// exactly reproducible.
///
/// # Examples
///
/// ```
/// use unidm::route::answer_confidence_permille;
///
/// assert_eq!(answer_confidence_permille("Central European Time"), 1000);
/// assert_eq!(answer_confidence_permille("unknown"), 0);
/// assert_eq!(answer_confidence_permille("I'm not sure."), 0);
/// assert!(answer_confidence_permille("It might be Paris?") < 500);
/// ```
pub fn answer_confidence_permille(text: &str) -> u32 {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return 0;
    }
    let lower = trimmed.to_lowercase();
    let unparseable = lower == "unknown"
        || lower == "unknown."
        || lower == "n/a"
        || lower == "n/a."
        || lower.starts_with("i'm not sure")
        || lower.starts_with("i am not sure");
    if unparseable {
        return 0;
    }
    let mut score: i64 = 1000;
    for hedge in ["probably", "perhaps", "possibly", "might", "maybe"] {
        if lower.contains(hedge) {
            score -= 300;
        }
    }
    score -= 250 * lower.matches('?').count() as i64;
    if trimmed.len() > 240 {
        score -= 200;
    }
    score.clamp(0, 1000) as u32
}

/// Escalation policy of a [`CascadeBackend`]: escalate when the cheap
/// answer's [`answer_confidence_permille`] falls below `gate_permille`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CascadePolicy {
    /// Minimum cheap-tier confidence (permille) served without
    /// escalation.
    pub gate_permille: u32,
}

impl Default for CascadePolicy {
    fn default() -> Self {
        CascadePolicy { gate_permille: 500 }
    }
}

/// A small→large model cascade implementing [`LanguageModel`].
///
/// Every prompt goes to the cheap tier first. The completion is served
/// as-is when its confidence clears [`CascadePolicy::gate_permille`];
/// otherwise the prompt escalates to the large tier and *its* completion
/// is served — so on the escalated subset the cascade's answers are
/// byte-identical to a large-model-only run. Cheap-tier errors also
/// escalate (a prompt too long for the small model's window is exactly
/// what the large model is for), except [`LlmError::EmptyPrompt`], which
/// no tier can fix and surfaces immediately.
///
/// Either tier can be a raw model or a [`RoutedBackend`] (one endpoint or
/// a fleet). [`CascadeBackend::stats`] reports the same
/// exact [`RouterStats`] shape as the router, with endpoint 0 = cheap
/// tier and endpoint 1 = large tier.
pub struct CascadeBackend<'a> {
    cheap: &'a dyn LanguageModel,
    large: &'a dyn LanguageModel,
    policy: CascadePolicy,
    cheap_cost_micro: u64,
    large_cost_micro: u64,
    name: String,
    scalars: Mutex<RouterStats>,
    tiers: [Mutex<EndpointStats>; 2],
}

impl std::fmt::Debug for CascadeBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeBackend")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'a> CascadeBackend<'a> {
    /// A cascade from `cheap` to `large` with the default confidence
    /// gate and untracked costs.
    pub fn new(cheap: &'a dyn LanguageModel, large: &'a dyn LanguageModel) -> Self {
        CascadeBackend {
            name: format!("cascade[{}->{}]", cheap.name(), large.name()),
            cheap,
            large,
            policy: CascadePolicy::default(),
            cheap_cost_micro: 0,
            large_cost_micro: 0,
            scalars: Mutex::new(RouterStats::default()),
            tiers: [
                Mutex::new(EndpointStats::default()),
                Mutex::new(EndpointStats::default()),
            ],
        }
    }

    /// Replaces the escalation policy (builder-style).
    pub fn with_policy(mut self, policy: CascadePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets per-token billing costs from the two tiers' model profiles
    /// (builder-style).
    pub fn with_costs_of(mut self, cheap: &LlmProfile, large: &LlmProfile) -> Self {
        self.cheap_cost_micro = cheap.cost_micro_per_token();
        self.large_cost_micro = large.cost_micro_per_token();
        self
    }

    /// The escalation policy in force.
    pub fn policy(&self) -> CascadePolicy {
        self.policy
    }

    /// A snapshot of the cascade counters: endpoint 0 is the cheap tier,
    /// endpoint 1 the large tier.
    pub fn stats(&self) -> RouterStats {
        let mut stats = self
            .scalars
            .lock()
            .expect("cascade stats lock poisoned")
            .clone();
        stats.endpoints = self
            .tiers
            .iter()
            .map(|t| *t.lock().expect("cascade tier lock poisoned"))
            .collect();
        stats
    }

    fn lock_scalars(&self) -> MutexGuard<'_, RouterStats> {
        self.scalars.lock().expect("cascade stats lock poisoned")
    }

    fn tier(&self, index: usize) -> MutexGuard<'_, EndpointStats> {
        self.tiers[index]
            .lock()
            .expect("cascade tier lock poisoned")
    }
}

/// Cheap tier index in [`CascadeBackend::stats`].
const CHEAP: usize = 0;
/// Large tier index in [`CascadeBackend::stats`].
const LARGE: usize = 1;

impl LanguageModel for CascadeBackend<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        self.lock_scalars().calls += 1;
        {
            let mut tier = self.tier(CHEAP);
            tier.calls += 1;
            tier.attempts += 1;
        }
        match self.cheap.complete(prompt) {
            Ok(completion) => {
                self.tier(CHEAP).bill(&completion, self.cheap_cost_micro);
                let confidence = answer_confidence_permille(&completion.text);
                if confidence >= self.policy.gate_permille {
                    self.tier(CHEAP).successes += 1;
                    self.lock_scalars().answers += 1;
                    return Ok(completion);
                }
                let mut scalars = self.lock_scalars();
                scalars.escalations += 1;
                if confidence == 0 {
                    scalars.unparseable += 1;
                } else {
                    scalars.low_confidence += 1;
                }
            }
            Err(LlmError::EmptyPrompt) => {
                self.lock_scalars().failures += 1;
                return Err(LlmError::EmptyPrompt);
            }
            Err(_) => {
                let mut scalars = self.lock_scalars();
                scalars.escalations += 1;
                scalars.error_escalations += 1;
            }
        }
        {
            let mut tier = self.tier(LARGE);
            tier.calls += 1;
            tier.attempts += 1;
        }
        match self.large.complete(prompt) {
            Ok(completion) => {
                self.tier(LARGE).bill(&completion, self.large_cost_micro);
                self.tier(LARGE).successes += 1;
                self.lock_scalars().answers += 1;
                Ok(completion)
            }
            Err(e) => {
                self.lock_scalars().failures += 1;
                Err(e)
            }
        }
    }

    fn usage(&self) -> Usage {
        let mut total = self.cheap.usage();
        total.add(self.large.usage());
        total
    }

    fn reset_usage(&self) {
        self.cheap.reset_usage();
        self.large.reset_usage();
    }

    fn context_window(&self) -> usize {
        // A prompt too long for the cheap tier escalates, so the
        // cascade's effective window is the large tier's.
        self.large.context_window()
    }

    fn latency_profile(&self) -> unidm_llm::LatencyProfile {
        self.large.latency_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::MockLlm;
    use unidm_world::World;

    fn model() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
    }

    fn faulty_router<'m>(llm: &'m MockLlm, seed: u64, replicas: usize) -> RoutedBackend<'m> {
        let mut router = RoutedBackend::new(seed);
        for _ in 0..replicas {
            router = router.endpoint(
                llm,
                EndpointConfig::new()
                    .with_faults(FaultPlan::moderate(seed))
                    .with_breaker(BreakerPolicy::default()),
            );
        }
        router
    }

    #[test]
    fn routing_never_changes_answers() {
        let llm = model();
        let truth = llm.complete("The capital of Denmark is __.").unwrap();
        for seed in [1, 7, 1337] {
            let router = faulty_router(&llm, seed, 3);
            let reply = router.complete("The capital of Denmark is __.").unwrap();
            assert_eq!(reply, truth, "seed {seed}");
            let stats = router.stats();
            assert_eq!(stats.calls, 1);
            assert_eq!(stats.answers, 1);
            assert_eq!(stats.failures, 0);
        }
    }

    #[test]
    fn serial_rerun_reproduces_router_stats_exactly() {
        let llm = model();
        let run = || {
            let router = faulty_router(&llm, 9, 3);
            for i in 0..40 {
                router.complete(&format!("routed prompt {i}")).unwrap();
            }
            router.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "serial rerun must reproduce every counter");
        assert!(
            a.endpoints.iter().all(|e| e.calls > 0),
            "uniform routing must spread calls over all endpoints: {a:?}"
        );
    }

    #[test]
    fn replicas_draw_distinct_fault_schedules() {
        let llm = model();
        let router = faulty_router(&llm, 5, 2);
        for i in 0..60 {
            router.complete(&format!("replica prompt {i}")).unwrap();
        }
        let stats = router.stats();
        let faults = |e: &EndpointStats| e.timeouts + e.rate_limited + e.transients;
        // Two replicas share plan and seed; endpoint-aware slot keying
        // must still desynchronize their schedules.
        assert_ne!(
            (
                stats.endpoints[0].attempts,
                faults(&stats.endpoints[0]),
                stats.endpoints[0].timeouts
            ),
            (
                stats.endpoints[1].attempts,
                faults(&stats.endpoints[1]),
                stats.endpoints[1].timeouts
            ),
            "replicas must not fault in lockstep: {stats:?}"
        );
    }

    #[test]
    fn aimd_rate_halves_on_429_and_recovers_additively() {
        let llm = model();
        let plan = FaultPlan {
            rate_limit_permille: 1000,
            timeout_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: 3,
            ..FaultPlan::none(11)
        };
        let aimd = AimdPolicy {
            initial_per_sec: 64,
            min_per_sec: 4,
            max_per_sec: 128,
            increase_per_sec: 1,
            burst: 4,
        };
        let router = RoutedBackend::new(11).endpoint(
            &llm,
            EndpointConfig::new().with_faults(plan).with_aimd(aimd),
        );
        router.complete("throttled prompt").unwrap();
        let stats = router.stats();
        assert_eq!(stats.endpoints[0].rate_limited, 3, "three 429s injected");
        assert_eq!(stats.endpoints[0].aimd_decreases, 3);
        assert_eq!(stats.endpoints[0].aimd_increases, 1, "the success recovers");
        // 64 → 32 → 16 → 8, then +1 on the forced success.
        assert_eq!(router.current_rate_per_sec(0), Some(9));
        assert_eq!(stats.endpoints[0].rate_tokens, stats.endpoints[0].attempts);
    }

    #[test]
    fn aimd_rate_never_leaves_its_bounds() {
        let llm = model();
        let plan = FaultPlan {
            rate_limit_permille: 1000,
            timeout_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: 2,
            ..FaultPlan::none(13)
        };
        let aimd = AimdPolicy {
            initial_per_sec: 8,
            min_per_sec: 4,
            max_per_sec: 10,
            increase_per_sec: 1,
            burst: 2,
        };
        let router = RoutedBackend::new(13).endpoint(
            &llm,
            EndpointConfig::new().with_faults(plan).with_aimd(aimd),
        );
        for i in 0..30 {
            router.complete(&format!("bounded prompt {i}")).unwrap();
        }
        let rate = router.current_rate_per_sec(0).unwrap();
        assert!(
            (aimd.min_per_sec..=aimd.max_per_sec).contains(&rate),
            "rate {rate} escaped [{}, {}]",
            aimd.min_per_sec,
            aimd.max_per_sec
        );
    }

    #[test]
    fn open_breaker_sheds_traffic_to_peers() {
        let llm = model();
        let dead = FaultPlan {
            timeout_permille: 1000,
            rate_limit_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: u32::MAX,
            ..FaultPlan::none(1)
        };
        let breaker = BreakerPolicy {
            failure_threshold: 2,
            cooldown_us: 3_600_000_000, // one virtual hour: stays open
        };
        let router = RoutedBackend::new(1)
            .endpoint(
                &llm,
                EndpointConfig::new()
                    .with_faults(dead)
                    .with_breaker(breaker),
            )
            .endpoint(&llm, EndpointConfig::new().with_breaker(breaker));
        for i in 0..50 {
            router.complete(&format!("shedding prompt {i}")).unwrap();
        }
        let stats = router.stats();
        assert_eq!(stats.failures, 0, "healthy peer absorbs everything");
        assert_eq!(stats.endpoints[0].breaker_trips, 1);
        assert!(
            stats.endpoints[0].attempts <= 2,
            "dead endpoint must lose traffic once tripped: {stats:?}"
        );
        assert!(stats.endpoints[0].breaker_open_skips > 40);
        assert!(stats.endpoints[1].successes >= 48);
    }

    #[test]
    fn all_breakers_open_backs_off_and_recovers() {
        let llm = model();
        let dead = FaultPlan {
            timeout_permille: 1000,
            rate_limit_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: 2,
            ..FaultPlan::none(2)
        };
        let breaker = BreakerPolicy {
            failure_threshold: 1,
            cooldown_us: 200_000,
        };
        let router = RoutedBackend::new(2).endpoint(
            &llm,
            EndpointConfig::new()
                .with_faults(dead)
                .with_breaker(breaker),
        );
        // Single endpoint, always faulty until the cap: the breaker opens,
        // the call backs off through CircuitOpen and the forced success
        // lands after the cooldown.
        router.complete("lonely prompt").unwrap();
        let stats = router.stats();
        assert!(stats.all_open >= 1, "must observe an all-open window");
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn router_stats_merge_is_commutative_and_exact() {
        let llm = model();
        let run = |seed: u64| {
            let router = faulty_router(&llm, seed, 2);
            for i in 0..15 {
                router.complete(&format!("merge probe {seed}-{i}")).unwrap();
            }
            router.stats()
        };
        let a = run(7);
        let b = run(1337);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.calls, a.calls + b.calls);
        assert_eq!(ab.attempts(), a.attempts() + b.attempts());
        assert_eq!(ab.tokens(), a.tokens() + b.tokens());
        let mut id = a.clone();
        id.merge(&RouterStats::default());
        assert_eq!(id, a, "merging a default is the identity");
        // Padded merge: fewer endpoints fold into more.
        let mut wide = a.clone();
        let mut narrow = RouterStats::default();
        narrow.endpoints.push(b.endpoints[0]);
        wide.merge(&narrow);
        assert_eq!(wide.endpoints.len(), 2);
        assert_eq!(
            wide.endpoints[0].attempts,
            a.endpoints[0].attempts + b.endpoints[0].attempts
        );
    }

    #[test]
    fn backend_stats_projection_adds_up() {
        let llm = model();
        let router = faulty_router(&llm, 3, 3);
        for i in 0..20 {
            router.complete(&format!("projection prompt {i}")).unwrap();
        }
        let router_stats = router.stats();
        let flat = router.backend_stats();
        assert_eq!(flat.calls, router_stats.calls);
        assert_eq!(flat.attempts, router_stats.attempts());
        assert_eq!(flat.breaker_trips, router_stats.breaker_trips());
        assert_eq!(
            flat.attempt_latency.samples(),
            router_stats
                .endpoints
                .iter()
                .map(|e| e.latency.samples())
                .sum::<u64>()
        );
    }

    #[test]
    fn permanent_errors_surface_immediately() {
        // Fault-free endpoints: the first attempt reaches the inner model
        // and its permanent error must surface without any retry.
        let llm = model();
        let router = RoutedBackend::new(1)
            .endpoint(&llm, EndpointConfig::new())
            .endpoint(&llm, EndpointConfig::new());
        assert_eq!(router.complete("  "), Err(LlmError::EmptyPrompt));
        let stats = router.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.retries, 0, "permanent errors are not retried");
    }

    #[test]
    fn usage_deduplicates_shared_inner_models() {
        let llm = model();
        let router = RoutedBackend::new(1)
            .endpoint(&llm, EndpointConfig::new())
            .endpoint(&llm, EndpointConfig::new());
        router.reset_usage();
        router.complete("usage probe").unwrap();
        assert_eq!(
            router.usage(),
            llm.usage(),
            "replicas over one model share one usage counter"
        );
    }

    #[test]
    fn confidence_scores_are_deterministic_and_ordered() {
        assert_eq!(answer_confidence_permille(""), 0);
        assert_eq!(answer_confidence_permille("   "), 0);
        assert_eq!(answer_confidence_permille("unknown"), 0);
        assert_eq!(answer_confidence_permille("Unknown."), 0);
        assert_eq!(answer_confidence_permille("I'm not sure."), 0);
        assert_eq!(answer_confidence_permille("n/a"), 0);
        assert_eq!(answer_confidence_permille("Copenhagen"), 1000);
        let hedged = answer_confidence_permille("It is probably Copenhagen");
        assert!(hedged < 1000 && hedged > 0);
        assert!(answer_confidence_permille("maybe Paris? or Rome?") < hedged);
    }

    #[test]
    fn cascade_serves_cheap_answers_and_escalates_weak_ones() {
        let world = World::generate(7);
        let cheap = MockLlm::new(&world, LlmProfile::gptj_6b(), 7);
        let large = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
        let cascade = CascadeBackend::new(&cheap, &large)
            .with_costs_of(&LlmProfile::gptj_6b(), &LlmProfile::gpt3_175b());
        let prompts: Vec<String> = (0..30)
            .map(|i| format!("The capital of country number {i} is __."))
            .collect();
        let mut expected_escalations = 0u64;
        for prompt in &prompts {
            let cheap_answer = cheap.complete(prompt).unwrap();
            let escalates =
                answer_confidence_permille(&cheap_answer.text) < cascade.policy().gate_permille;
            if escalates {
                expected_escalations += 1;
            }
            let served = cascade.complete(prompt).unwrap();
            if escalates {
                assert_eq!(
                    served,
                    large.complete(prompt).unwrap(),
                    "escalated prompts serve the large tier's answer"
                );
            } else {
                assert_eq!(served.text, cheap_answer.text);
            }
        }
        let stats = cascade.stats();
        assert_eq!(stats.calls, 30);
        assert_eq!(stats.escalations, expected_escalations);
        assert_eq!(
            stats.escalations,
            stats.unparseable + stats.low_confidence + stats.error_escalations
        );
        assert_eq!(stats.endpoints[CHEAP].calls, 30);
        assert_eq!(stats.endpoints[LARGE].calls, stats.escalations);
    }

    #[test]
    fn cascade_empty_prompt_surfaces_without_escalating() {
        let world = World::generate(7);
        let cheap = MockLlm::new(&world, LlmProfile::llama2_7b(), 7);
        let large = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
        let cascade = CascadeBackend::new(&cheap, &large);
        assert_eq!(cascade.complete("  "), Err(LlmError::EmptyPrompt));
        let stats = cascade.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.escalations, 0);
        assert_eq!(stats.endpoints[LARGE].calls, 0);
    }

    #[test]
    fn route_plan_wires_through_backend_config() {
        let llm = model();
        let config = BackendConfig::resilient(7)
            .with_faults(FaultPlan::moderate(7))
            .with_route(RoutePlan::replicas(3).with_aimd(AimdPolicy::per_sec(100)));
        let attached = config.wrap(&llm);
        let truth = llm.complete("The capital of Denmark is __.").unwrap();
        assert_eq!(
            attached
                .model()
                .complete("The capital of Denmark is __.")
                .unwrap(),
            truth
        );
        let router_stats = attached.router_stats().expect("routed stats");
        assert_eq!(router_stats.endpoints.len(), 3);
        assert_eq!(router_stats.calls, 1);
        let flat = attached.stats().expect("flat stats");
        assert_eq!(flat.calls, 1);
        assert!(attached.fault_stats().is_some());
        assert!(attached.elapsed_us() > 0);
    }
}
