//! Multi-endpoint routing and model cascades: the fleet a
//! [`RoutedBackend`] serves, and `CascadeBackend`.
//!
//! A deployed UniDM instance talks to a *fleet*: N replicas of the
//! workhorse model, and possibly a cheap small model in front of the large
//! one. This module describes that layer; the reactor that runs it is
//! [`crate::dispatch`]:
//!
//! ```text
//! PromptCache                       (hits stop here)
//!   └─ CascadeBackend              (cheap tier first, escalate on weak answers)
//!        ├─ RoutedBackend[cheap]   (a reactor over N replicas)
//!        └─ RoutedBackend[large]   (a reactor: one mutex, one timer wheel, one prompt table)
//!             ├─ replica 0: breaker · AIMD bucket · SimBackend → model
//!             └─ replica 1..N: ...
//! ```
//!
//! Each replica carries its own circuit breaker, latency sketch and
//! AIMD-adapted token bucket: an observed 429 halves its admission rate
//! (floored), a success adds one step back (capped), all in integer
//! micro-tokens. A prompt is routed by a seeded uniform draw over the
//! replicas whose breakers admit it, a pure function of `(seed, prompt,
//! attempt)`; retries re-draw, so a failing replica sheds traffic before
//! its breaker opens, and a hedge copy goes to another admitting replica.
//! Replicas sharing a fault plan draw independent schedules (each
//! injector mixes in its endpoint id). Successes always return the inner
//! model's completion, so answers are bit-identical to a direct call, and
//! a rerun reproduces [`RouterStats`] exactly. A stack that injects faults
//! or memoizes keeps one copy of each distinct prompt, a
//! [`unidm_llm::StackPrompt`] lent to every draw and injector; any other
//! stack copies a prompt for its request's life.
//!
//! [`CascadeBackend`] stacks a cost policy on top: every prompt goes to
//! the cheap tier first, and escalates to the large tier only when the
//! cheap answer is unparseable or falls below a confidence gate
//! ([`answer_confidence_permille`]). How much of the large model's accuracy
//! that keeps depends on the pairing. On Table 1 at seed 42 (150 queries,
//! gate 600), GPT-J-6B → GPT-3-175B scores 72.0 / 66.7 on Restaurant / Buy
//! against 96.7 / 92.7 for GPT-3-175B alone, at 27–28 % of the large-only
//! bill ([`LlmProfile::cost_micro_per_token`]); LLaMA2-7B → GPT-3-175B
//! scores 94.7 / 90.0 at about 13 %.
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

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{
    AttemptSample, Completion, DiceContext, FaultPlan, LanguageModel, LlmError, LlmProfile, Usage,
};

use crate::backend::{BackendStats, BreakerPolicy, LatencySketch};
pub use crate::dispatch::RoutedBackend;
use crate::resilience::{Breaker, Bucket};

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
/// [`crate::BackendConfig`]: its `wrap` fans the single inner model out
/// into `replicas` endpoints, each with its own copy of the config's
/// breaker, an AIMD bucket and an endpoint-aware copy of its faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutePlan {
    /// Number of replica endpoints (at least 1).
    pub replicas: u32,
    /// Per-endpoint AIMD rate adaptation (`None` = unlimited).
    pub aimd: Option<AimdPolicy>,
}

impl RoutePlan {
    /// A fleet of `n` replicas (at least 1) with no rate adaptation. Each
    /// replica's breaker is the config's.
    pub fn replicas(n: u32) -> Self {
        RoutePlan {
            replicas: n.max(1),
            aimd: None,
        }
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
/// cascade). Every field is an integer (the sketch is integer buckets).
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
/// [`BackendStats`]: every field is an integer, and a serial rerun of the
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
    /// Hedge copies issued (a straggler outlived the armed quantile).
    pub hedges_issued: u64,
    /// Hedges whose copy finished first (first response wins).
    pub hedges_won: u64,
    /// Copies cancelled because the other copy won.
    pub hedges_cancelled: u64,
    /// Calls served without a new request: attached to a pending identical
    /// one, or answered from the memo of resolved prompts.
    pub dispatch_coalesced: u64,
    /// End-to-end latencies of successful calls (router only; a cascade
    /// has no clock of its own and leaves this empty).
    pub request_latency: LatencySketch,
    /// Per-endpoint counters, indexed by endpoint id (for a cascade:
    /// index 0 is the cheap tier, index 1 the large tier).
    pub endpoints: Vec<EndpointStats>,
}

impl RouterStats {
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

    /// The router's counters folded into the flat [`BackendStats`] shape
    /// (open-breaker skips map to `breaker_fast_fails`).
    pub fn backend_stats(&self) -> BackendStats {
        let mut out = BackendStats {
            calls: self.calls,
            retries: self.retries,
            failures: self.failures,
            hedges_issued: self.hedges_issued,
            hedges_won: self.hedges_won,
            hedges_cancelled: self.hedges_cancelled,
            dispatch_coalesced: self.dispatch_coalesced,
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

/// The state an attempt on one replica moves, as plain fields under the
/// reactor's one mutex (its endpoint lives beside the mutex: it only
/// reads).
pub(crate) struct Replica {
    /// Address of the caller-supplied model, for usage deduplication:
    /// replicas over one shared inner model share one usage counter.
    pub(crate) origin: usize,
    pub(crate) breaker: Option<Breaker>,
    pub(crate) bucket: Option<Bucket>,
    pub(crate) stats: EndpointStats,
}

impl Replica {
    pub(crate) fn new(model: &dyn LanguageModel, config: EndpointConfig, now_us: u64) -> Self {
        Replica {
            origin: model as *const dyn LanguageModel as *const () as usize,
            breaker: config.breaker.map(Breaker::new),
            bucket: config.aimd.map(|policy| Bucket::new(policy, now_us)),
            stats: EndpointStats::default(),
        }
    }

    /// Takes a rate token and returns when the attempt may start: `now_us`
    /// without a bucket or with a token in it, the drip-in time otherwise.
    pub(crate) fn pace(&mut self, now_us: u64) -> u64 {
        let Some(bucket) = self.bucket.as_mut() else {
            return now_us;
        };
        let grant = bucket.grant(now_us);
        self.stats.rate_tokens += 1;
        if grant > now_us {
            self.stats.throttle_waits += 1;
            self.stats.throttle_wait_us += grant - now_us;
        }
        grant
    }

    /// Feeds a finished attempt's outcome to this replica's breaker, bucket
    /// and counters, at the attempt's end `now_us`.
    pub(crate) fn observe(&mut self, sample: &AttemptSample, now_us: u64) {
        match &sample.result {
            Ok(completion) => {
                if let Some(breaker) = &mut self.breaker {
                    breaker.success();
                }
                let increased = self.bucket.as_mut().is_some_and(Bucket::on_success);
                self.stats.aimd_increases += u64::from(increased);
                self.stats.successes += 1;
                self.stats.latency.record(sample.latency_us);
                // A router bills nothing: cost is the cascade's to track.
                self.stats.bill(completion, 0);
            }
            Err(e) if e.is_transient() => {
                let decreased = matches!(e, LlmError::RateLimited { .. })
                    && self.bucket.as_mut().is_some_and(Bucket::on_rate_limited);
                let tripped = self.breaker.as_mut().is_some_and(|b| b.failure(now_us));
                self.stats.aimd_decreases += u64::from(decreased);
                self.stats.breaker_trips += u64::from(tripped);
            }
            Err(_) => {}
        }
    }
}

/// Picks a replica for attempt `retry` of a prompt: a seeded uniform draw,
/// tagged `{tag}-{retry}`, over the replicas whose breakers admit traffic,
/// leaving out `exclude`. `draws` yields the stack's dice with the prompt
/// absorbed and is only asked when there is a choice to make.
/// `Err(min remaining cooldown)` when no replica admits.
pub(crate) fn select(
    replicas: &mut [Replica],
    now_us: u64,
    draws: impl FnOnce() -> DiceContext,
    tag: &str,
    retry: u32,
    exclude: Option<usize>,
) -> Result<usize, u64> {
    let mut min_cooldown = u64::MAX;
    for (i, replica) in replicas.iter_mut().enumerate() {
        let breaker = replica.breaker.as_mut().filter(|_| Some(i) != exclude);
        if let Some(Err(remaining)) = breaker.map(|b| b.admit(now_us)) {
            replica.stats.breaker_open_skips += 1;
            min_cooldown = min_cooldown.min(remaining);
        }
    }
    // After the admissions above, a breaker is open exactly when it refused.
    let mut admissible = replicas.iter().enumerate().filter_map(|(i, replica)| {
        let open = replica.breaker.as_ref().is_some_and(Breaker::is_open);
        (Some(i) != exclude && !open).then_some(i)
    });
    match admissible.clone().count() as u64 {
        0 => Err(min_cooldown),
        // One candidate decides the draw; `Dice` draws are stateless, so
        // skipping this one moves no other.
        1 => Ok(admissible.next().expect("one replica is admissible")),
        n => {
            let draw = draws().uniform(format_args!("{tag}-{retry}"));
            let pick = ((draw * n as f64) as u64).min(n - 1);
            Ok(admissible.nth(pick as usize).expect("the pick is below n"))
        }
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
    // An ASCII answer of at most 1 KiB lowercases on the stack. Allocating
    // it was 0.63 of `serve_fleet`'s 0.74 allocations per op.
    let mut stack = [0u8; 1024];
    let owned;
    let lower: &str = match stack.get_mut(..trimmed.len()) {
        Some(buf) if trimmed.is_ascii() => {
            buf.copy_from_slice(trimmed.as_bytes());
            buf.make_ascii_lowercase();
            std::str::from_utf8(buf).expect("ASCII is UTF-8")
        }
        _ => {
            owned = trimmed.to_lowercase();
            &owned
        }
    };
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
/// The gate reads the reply's phrasing, and a wrong cheap answer is rarely
/// hedged, so the cheap tier decides the accuracy. Measured on Table 1 at
/// seed 42 with gate 600: GPT-J-6B → GPT-3-175B scores 72.0 / 66.7
/// (Restaurant / Buy) against 96.7 / 92.7 for the large model alone, at
/// 27–28 % of its bill; LLaMA2-7B → GPT-3-175B scores 94.7 / 90.0 at about
/// 13 %.
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
    /// Endpoint 0 is the cheap tier, endpoint 1 the large tier.
    stats: Mutex<RouterStats>,
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
            stats: Mutex::new(RouterStats {
                endpoints: vec![EndpointStats::default(); 2],
                ..RouterStats::default()
            }),
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
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, RouterStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One call to tier `index`, counted and, when it answers, billed.
    fn ask(&self, index: usize, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let tiers = [
            (self.cheap, self.cheap_cost_micro),
            (self.large, self.large_cost_micro),
        ];
        let (model, cost_micro_per_token) = tiers[index];
        let result = model.complete(prompt);
        let tier = &mut self.lock().endpoints[index];
        tier.calls += 1;
        tier.attempts += 1;
        if let Ok(completion) = &result {
            tier.bill(completion, cost_micro_per_token);
        }
        result
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
        self.lock().calls += 1;
        match self.ask(CHEAP, prompt) {
            Ok(completion) => {
                let confidence = answer_confidence_permille(&completion.text);
                let mut stats = self.lock();
                if confidence >= self.policy.gate_permille {
                    stats.endpoints[CHEAP].successes += 1;
                    stats.answers += 1;
                    return Ok(completion);
                }
                stats.escalations += 1;
                if confidence == 0 {
                    stats.unparseable += 1;
                } else {
                    stats.low_confidence += 1;
                }
            }
            Err(LlmError::EmptyPrompt) => {
                self.lock().failures += 1;
                return Err(LlmError::EmptyPrompt);
            }
            Err(_) => {
                let mut stats = self.lock();
                stats.escalations += 1;
                stats.error_escalations += 1;
            }
        }
        let result = self.ask(LARGE, prompt);
        let mut stats = self.lock();
        match &result {
            Ok(_) => {
                stats.endpoints[LARGE].successes += 1;
                stats.answers += 1;
            }
            Err(_) => stats.failures += 1,
        }
        result
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
    use crate::backend::BackendConfig;
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

    /// `answer_confidence_permille` as it was before an ASCII answer
    /// lowercased on the stack: every answer through `to_lowercase`.
    fn confidence_through_to_lowercase(text: &str) -> u32 {
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

    #[test]
    fn confidence_agrees_with_lowercasing_every_answer() {
        let markers = [
            "unknown",
            "UNKNOWN.",
            "N/A",
            "n/a.",
            "I'm Not Sure",
            "I AM NOT SURE, sorry",
        ];
        let hedges = ["Probably", "PERHAPS", "possibly", "Might", "mayBe"];
        let mut answers: Vec<String> = Vec::new();
        for word in markers.iter().chain(&hedges) {
            answers.push(word.to_string());
            answers.push(format!("  \t{word} Paris? \n"));
            answers.push(format!("It is {word} Rome"));
        }
        // Letters whose lowercase is longer, ASCII or context-dependent:
        // capital I with dot, the Kelvin sign, a final sigma.
        for odd in ["İ", "\u{212A}", "ΟΔΟΣ", "UN\u{212A}NOWN", "\u{212A}elvin?"] {
            answers.push(odd.to_string());
            answers.push(format!(" Maybe {odd} "));
        }
        // Around the 1 KiB stack buffer, and past the 240-byte ramble.
        for len in [240, 241, 1023, 1024, 1025, 4096] {
            answers.push("A".repeat(len));
            answers.push(format!(" {}? ", "b".repeat(len)));
            answers.push(format!("maybe {}", "ä".repeat(len / 2)));
        }
        answers.extend(["", " ", "?", "Copenhagen", "I'm not sure."].map(String::from));
        for answer in &answers {
            assert_eq!(
                answer_confidence_permille(answer),
                confidence_through_to_lowercase(answer),
                "{answer:?}"
            );
        }
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

    #[test]
    fn fleet_breakers_follow_the_backend_config() {
        // Every replica carries `BackendConfig::breaker`: the resilient
        // default trips each of them under an always-faulty plan, and
        // `without_breaker` leaves the whole fleet without one.
        let llm = model();
        let run = |config: BackendConfig| {
            let config = config
                .with_faults(FaultPlan::always_faulty(11, 6))
                .with_route(RoutePlan::replicas(3));
            let router = RoutedBackend::from_plan(&llm, config);
            for i in 0..12 {
                router
                    .complete(&format!("stormy fleet prompt {i}"))
                    .unwrap();
            }
            router.stats()
        };
        let guarded = run(BackendConfig::resilient(11));
        for (id, endpoint) in guarded.endpoints.iter().enumerate() {
            assert!(endpoint.breaker_trips > 0, "replica {id}: {guarded:?}");
        }
        let bare = run(BackendConfig::resilient(11).without_breaker());
        assert_eq!((bare.breaker_trips(), bare.all_open), (0, 0), "{bare:?}");
    }

    #[test]
    fn routed_replicas_keep_the_configured_rate_limit() {
        let llm = model();
        let attached = BackendConfig::resilient(7)
            .with_rate_limit(10, 1)
            .with_route(RoutePlan::replicas(2))
            .wrap(&llm);
        for i in 0..20 {
            attached
                .model()
                .complete(&format!("routed paced prompt {i}"))
                .unwrap();
        }
        let stats = attached.stats().expect("flat stats");
        assert_eq!(
            stats.rate_tokens, stats.attempts,
            "every attempt takes a token"
        );
        assert!(
            stats.throttle_waits > 0,
            "a burst past 1 token waits: {stats:?}"
        );
    }
}
