//! `SimBackend`: a deterministic fault-injecting simulated endpoint.
//!
//! The resilient backend layer (`unidm::backend`) exists to survive the
//! failure modes of hosted LLM endpoints — timeouts, 429 rate limits,
//! transient 5xx errors, latency spikes — but this repository is offline.
//! [`SimBackend`] closes the gap: it wraps any inner [`LanguageModel`] and
//! injects a **seeded schedule** of faults in front of it, over a
//! [`VirtualClock`] (so multi-second stalls replay in microseconds).
//!
//! # Determinism
//!
//! Every injection decision is a pure function of `(plan seed, prompt,
//! attempt index)` via [`crate::Dice`] — there is no hidden RNG state and
//! no dependence on time or thread scheduling. Each prompt owns an attempt
//! counter: attempt `i` of a prompt always yields the same outcome, and
//! consecutive injected faults per prompt are capped by
//! [`FaultPlan::max_consecutive_faults`], so a retry loop with at least
//! that budget always completes.
//!
//! Because the outcome *sequence* per prompt is fixed, aggregate statistics
//! are scheduling-independent: however a batch interleaves its calls, the
//! total number of injected faults (and therefore retries upstream) for a
//! given set of logical calls is identical — which is what lets the
//! fault-injection test suite assert bit-identical answers *and*
//! reproducible retry counts across serial, parallel and re-run executions.
//!
//! # One copy of a prompt per stack
//!
//! The injector keeps per-prompt state, so it holds every distinct
//! prompt's text and that text absorbed into its [`Dice`]. Called with a
//! `&str` it makes both itself. A serving stack that owns injectors makes
//! them once at its root instead, as a [`StackPrompt`], and hands that down
//! ([`SimBackend::sample_prompt`]): every
//! replica's injector, the router's routing draws and every backoff then
//! share one allocation and — when the stack is built on one seed — one
//! pass over the prompt's bytes. The two ways in consume one attempt
//! counter per prompt; the draws are bit-identical either way.
//!
//! ```
//! use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm, SimBackend};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//! let sim = SimBackend::new(&llm, FaultPlan::heavy(7));
//! // Attempts fail per the seeded schedule; retrying eventually yields the
//! // inner model's (deterministic) completion.
//! let mut reply = sim.complete("The capital of Denmark is __.");
//! while reply.is_err() {
//!     reply = sim.complete("The capital of Denmark is __.");
//! }
//! assert_eq!(reply.unwrap().text, llm.complete("The capital of Denmark is __.").unwrap().text);
//! ```

use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use unidm_text::hash::PromptMap;

use crate::clock::VirtualClock;
use crate::model::{Completion, LanguageModel, Usage};
use crate::{Dice, DiceContext, LlmError};

/// A seeded schedule of injected faults.
///
/// Rates are in permille (parts per thousand) of attempts, drawn
/// independently per `(prompt, attempt)`; integer fields keep the plan
/// `Eq`/`Hash` and the schedule exactly reproducible. The same plan over
/// the same prompts always injects the same faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the injection schedule. Two plans differing only in seed
    /// inject different (but individually reproducible) fault sequences.
    pub seed: u64,
    /// Permille of attempts that time out.
    pub timeout_permille: u32,
    /// Permille of attempts rejected with a 429-style rate limit.
    pub rate_limit_permille: u32,
    /// Permille of attempts failing with a transient 5xx-style error.
    pub transient_permille: u32,
    /// Permille of attempts that succeed slowly (latency spike).
    pub slow_permille: u32,
    /// Hard cap on consecutive injected faults per prompt: after this many
    /// failures in a row the next attempt is forced clean, so any retry
    /// budget of at least this size completes. Must be at least 1.
    pub max_consecutive_faults: u32,
    /// Virtual latency of a clean (or rejected) attempt, in microseconds.
    pub base_latency_us: u64,
    /// Virtual latency of a slow successful attempt, in microseconds.
    pub slow_latency_us: u64,
    /// Virtual time an attempt runs before timing out, in microseconds.
    pub timeout_latency_us: u64,
    /// The `Retry-After` hint attached to injected rate limits, in
    /// microseconds.
    pub retry_after_us: u64,
}

impl FaultPlan {
    /// A fault-free plan: every attempt succeeds at base latency. Useful
    /// as a latency-only simulation and as the baseline in tests.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            timeout_permille: 0,
            rate_limit_permille: 0,
            transient_permille: 0,
            slow_permille: 0,
            max_consecutive_faults: 1,
            base_latency_us: 50_000,
            slow_latency_us: 2_000_000,
            timeout_latency_us: 1_000_000,
            retry_after_us: 250_000,
        }
    }

    /// Light degradation: ~7% of attempts fault, short failure runs.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            timeout_permille: 20,
            rate_limit_permille: 25,
            transient_permille: 25,
            slow_permille: 40,
            max_consecutive_faults: 3,
            ..FaultPlan::none(seed)
        }
    }

    /// Moderate degradation: ~25% of attempts fault.
    pub fn moderate(seed: u64) -> Self {
        FaultPlan {
            timeout_permille: 60,
            rate_limit_permille: 100,
            transient_permille: 90,
            slow_permille: 80,
            max_consecutive_faults: 4,
            ..FaultPlan::none(seed)
        }
    }

    /// Heavy degradation: ~45% of attempts fault, long failure runs — the
    /// regime that exercises breaker trips.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            timeout_permille: 120,
            rate_limit_permille: 180,
            transient_permille: 150,
            slow_permille: 100,
            max_consecutive_faults: 6,
            ..FaultPlan::none(seed)
        }
    }

    /// Every attempt faults (cycling through the fault kinds) until the
    /// consecutive cap forces a success — the worst case a retry budget
    /// must absorb.
    pub fn always_faulty(seed: u64, max_consecutive_faults: u32) -> Self {
        FaultPlan {
            timeout_permille: 333,
            rate_limit_permille: 333,
            transient_permille: 334,
            slow_permille: 0,
            max_consecutive_faults: max_consecutive_faults.max(1),
            ..FaultPlan::none(seed)
        }
    }

    /// A latency-only heavy-tail plan: every attempt succeeds, but 3% of
    /// them stall at [`FaultPlan::slow_latency_us`] (2s against a 50ms
    /// base — a 40× tail). No errors are ever injected, so retry budgets
    /// and attempt counts stay trivially exact; this is the regime that
    /// isolates what request hedging buys.
    pub fn heavy_tail(seed: u64) -> Self {
        FaultPlan {
            slow_permille: 30,
            ..FaultPlan::none(seed)
        }
    }

    /// The plan named by `name` (`none`, `light`, `moderate`, `heavy`,
    /// `heavy-tail`), for CLI flags.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(FaultPlan::none(seed)),
            "light" => Some(FaultPlan::light(seed)),
            "moderate" => Some(FaultPlan::moderate(seed)),
            "heavy" => Some(FaultPlan::heavy(seed)),
            "heavy-tail" => Some(FaultPlan::heavy_tail(seed)),
            _ => None,
        }
    }
}

/// What the schedule injected for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Clean { forced: bool },
    Slow,
    Timeout,
    RateLimited,
    Transient { status: u16 },
}

/// Counters of everything a [`SimBackend`] injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Attempts that reached the simulated endpoint.
    pub attempts: u64,
    /// Attempts that succeeded at base latency.
    pub clean: u64,
    /// Attempts that succeeded slowly.
    pub slow: u64,
    /// Injected timeouts.
    pub timeouts: u64,
    /// Injected 429-style rate limits.
    pub rate_limits: u64,
    /// Injected transient 5xx-style errors.
    pub transients: u64,
    /// Successes forced by the consecutive-fault cap.
    pub forced_successes: u64,
}

impl FaultStats {
    /// Total injected faults (timeouts + rate limits + transients).
    pub fn injected(&self) -> u64 {
        self.timeouts + self.rate_limits + self.transients
    }

    /// Folds `other` into `self` — exact integer addition on every field,
    /// commutative, so per-endpoint injectors aggregate like backend
    /// stats.
    pub fn merge(&mut self, other: &FaultStats) {
        self.attempts += other.attempts;
        self.clean += other.clean;
        self.slow += other.slow;
        self.timeouts += other.timeouts;
        self.rate_limits += other.rate_limits;
        self.transients += other.transients;
        self.forced_successes += other.forced_successes;
    }
}

/// One sampled endpoint attempt: the virtual latency it will take and the
/// result it will deliver once that latency has elapsed.
///
/// Produced by [`SimBackend::sample_attempt`], which commits a schedule
/// slot **without sleeping** — the reactor
/// (`unidm::dispatch`) uses this to place the attempt's completion on a
/// timer wheel at `now + latency_us` and keep hundreds of attempts in
/// flight on one thread, instead of blocking a worker per round-trip.
#[derive(Debug, Clone)]
pub struct AttemptSample {
    /// Virtual time the attempt takes, in microseconds.
    pub latency_us: u64,
    /// What the attempt delivers when it completes.
    pub result: Result<Arc<Completion>, LlmError>,
}

/// A serving stack's one copy of a prompt, with the stack's draws over it.
///
/// The layer at the root of a stack (the reactor) copies a
/// distinct prompt once and hands this handle down instead of `&str`:
/// every layer below keys its per-prompt state by a clone of
/// [`StackPrompt::text`] — one allocation per stack, not one per layer —
/// and takes its draw context from [`StackPrompt::draws`], which reads the
/// prompt's bytes at most once for the [`Dice`] the handle was made with.
/// A stack built from one seed (`BackendConfig::resilient(seed)` with
/// `FaultPlan::…(seed)`) therefore absorbs a prompt once, however many
/// injectors, routes and backoffs draw over it.
///
/// Dereferences to the prompt text. A clone shares the text and carries the
/// context if it was absorbed by then.
///
/// ```
/// use unidm_llm::{Dice, StackPrompt};
///
/// let dice = Dice::new(7);
/// let prompt = StackPrompt::new("a long prompt, read once", dice);
/// assert_eq!(&*prompt, "a long prompt, read once");
/// assert_eq!(prompt.draws(&dice), dice.context(&*prompt));
/// // Another seed's draws are its own: absorbed afresh, never stored.
/// let other = Dice::new(8);
/// assert_eq!(prompt.draws(&other), other.context(&*prompt));
/// ```
#[derive(Debug, Clone)]
pub struct StackPrompt {
    text: Arc<str>,
    dice: Dice,
    /// `dice` with `text` absorbed, filled by the first draw that asks.
    draws: OnceLock<DiceContext>,
}

impl StackPrompt {
    /// Copies `text` — the stack's one copy — for a stack drawing from
    /// `dice`. Nothing is absorbed until [`StackPrompt::draws`] asks.
    pub fn new(text: &str, dice: Dice) -> Self {
        StackPrompt {
            text: Arc::from(text),
            dice,
            draws: OnceLock::new(),
        }
    }

    /// The shared text, for keying per-prompt state without another copy.
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// `dice` with this prompt absorbed: [`Dice::context`] of the text, to
    /// the bit. Kept after the first call when `dice` is the handle's own;
    /// any other dice reads the text again.
    pub fn draws(&self, dice: &Dice) -> DiceContext {
        if *dice == self.dice {
            *self.draws.get_or_init(|| dice.context(&self.text))
        } else {
            dice.context(&self.text)
        }
    }
}

impl Deref for StackPrompt {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

/// Per-prompt schedule state: the prompt's absorbed draw context (so no
/// attempt after the first reads the prompt's bytes for a draw), the next
/// attempt index and the current run of consecutive injected faults.
#[derive(Debug, Clone, Copy)]
struct PromptState {
    draws: DiceContext,
    next_attempt: u64,
    consecutive_faults: u32,
}

/// A deterministic fault-injecting simulated endpoint over any inner
/// [`LanguageModel`].
///
/// See the [module docs](self) for the determinism contract. The backend
/// layer stacks on top of this exactly as it would on a real endpoint:
///
/// ```text
/// PromptCache → RoutedBackend (reactor: limiter/retry/breaker) → SimBackend → MockLlm
///               prompt table: StackPrompt ─────────────▶ state keyed by its Arc<str>
/// ```
pub struct SimBackend<'a> {
    inner: &'a dyn LanguageModel,
    plan: FaultPlan,
    dice: Dice,
    clock: Arc<VirtualClock>,
    /// Endpoint id mixed into every schedule draw. `None` preserves the
    /// historical `(seed, prompt, attempt)` keying byte-for-byte; `Some`
    /// desynchronizes replicas that share a plan (see
    /// [`SimBackend::with_endpoint`]).
    endpoint: Option<u64>,
    /// Keyed by the stack's copy of the prompt when a caller hands one
    /// down ([`SimBackend::sample_prompt`]), by the injector's own otherwise.
    state: Mutex<PromptMap<PromptState, Arc<str>>>,
    stats: Mutex<FaultStats>,
}

impl std::fmt::Debug for SimBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBackend")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'a> SimBackend<'a> {
    /// Wraps `inner` behind `plan`, on a fresh [`VirtualClock`].
    pub fn new(inner: &'a dyn LanguageModel, plan: FaultPlan) -> Self {
        Self::with_clock(inner, plan, Arc::new(VirtualClock::new()))
    }

    /// Wraps `inner` behind `plan` on a shared clock (so injected latency
    /// and the client's rate limiter see the same timeline).
    pub fn with_clock(
        inner: &'a dyn LanguageModel,
        plan: FaultPlan,
        clock: Arc<VirtualClock>,
    ) -> Self {
        SimBackend {
            inner,
            plan,
            dice: Dice::new(plan.seed),
            clock,
            endpoint: None,
            state: Mutex::new(PromptMap::default()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// Tags this injector as endpoint `id` (builder-style): the id is
    /// mixed into every fault-slot draw, so two replicas sharing one
    /// [`FaultPlan`] (same seed) commit *independent* schedules instead of
    /// faulting in lockstep. Untagged backends keep the historical
    /// `(seed, prompt, attempt)` keying exactly.
    pub fn with_endpoint(mut self, id: u64) -> Self {
        self.endpoint = Some(id);
        self
    }

    /// The plan driving the injection schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The clock injected latency is charged to.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// A snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().expect("sim stats lock poisoned")
    }

    /// Decides (and commits) the outcome of the next attempt of `prompt`.
    ///
    /// The decision is made under the state lock so attempt indices are
    /// allocated exactly once; the outcome for index `i` is a pure
    /// function of `(seed, prompt, i)` and the (deterministic) run of
    /// consecutive faults before it. The prompt's bytes are read once per
    /// attempt, by the map probe's content hash; a prompt's first attempt
    /// also files it under the key and draw context `first_sight` yields.
    fn next_outcome(
        &self,
        prompt: &str,
        first_sight: impl FnOnce() -> (Arc<str>, DiceContext),
    ) -> Outcome {
        let mut state = self.state.lock().expect("sim state lock poisoned");
        let entry = match state.get_mut(prompt) {
            Some(entry) => entry,
            None => {
                let (key, draws) = first_sight();
                state.entry(key).or_insert(PromptState {
                    draws,
                    next_attempt: 0,
                    consecutive_faults: 0,
                })
            }
        };
        let attempt = entry.next_attempt;
        entry.next_attempt += 1;

        if entry.consecutive_faults >= self.plan.max_consecutive_faults {
            entry.consecutive_faults = 0;
            return Outcome::Clean { forced: true };
        }
        // Fault-slot tags are endpoint-aware when tagged, the historical
        // form otherwise.
        let draw = match self.endpoint {
            Some(id) => entry.draws.uniform(format_args!("e{id}-fault-{attempt}")),
            None => entry.draws.uniform(format_args!("fault-{attempt}")),
        };
        let roll = (draw * 1000.0) as u32;
        let mut threshold = self.plan.timeout_permille;
        let outcome = if roll < threshold {
            Outcome::Timeout
        } else {
            threshold += self.plan.rate_limit_permille;
            if roll < threshold {
                Outcome::RateLimited
            } else {
                threshold += self.plan.transient_permille;
                if roll < threshold {
                    let pick = match self.endpoint {
                        Some(id) => entry.draws.pick(format_args!("e{id}-status"), 3),
                        None => entry.draws.pick("status", 3),
                    };
                    Outcome::Transient {
                        status: [500u16, 502, 503][pick],
                    }
                } else {
                    threshold += self.plan.slow_permille;
                    if roll < threshold {
                        Outcome::Slow
                    } else {
                        Outcome::Clean { forced: false }
                    }
                }
            }
        };
        entry.consecutive_faults = match outcome {
            Outcome::Timeout | Outcome::RateLimited | Outcome::Transient { .. } => {
                entry.consecutive_faults + 1
            }
            Outcome::Clean { .. } | Outcome::Slow => 0,
        };
        outcome
    }

    /// Commits the next attempt of `prompt` and returns what it will do —
    /// **without sleeping**.
    ///
    /// The schedule slot is consumed exactly as [`SimBackend::complete`]
    /// would consume it (the two draw from the same per-prompt attempt
    /// counter and update the same [`FaultStats`]), but injected latency is
    /// *reported* instead of charged to the clock. Blocking callers get the
    /// classic behaviour from `complete`; an event-driven caller samples
    /// here and schedules the completion at `now + latency_us` itself, so
    /// overlapped attempts overlap in virtual time.
    ///
    /// The injector copies and absorbs a prompt it has not seen; a stack
    /// that already holds both hands them down through
    /// [`SimBackend::sample_prompt`].
    pub fn sample_attempt(&self, prompt: &str) -> AttemptSample {
        self.sample(prompt, || (Arc::from(prompt), self.dice.context(prompt)))
    }

    /// [`SimBackend::sample_attempt`] for a prompt the stack above already
    /// holds: the same schedule slot from the same per-prompt attempt
    /// counter, whichever entry point consumed the slots before it — but a
    /// first sight keys the state by the handle's text instead of a copy,
    /// and takes the handle's draw context, which reads no byte when the
    /// handle was made with this plan's seed.
    pub fn sample_prompt(&self, prompt: &StackPrompt) -> AttemptSample {
        self.sample(prompt, || (prompt.text().clone(), prompt.draws(&self.dice)))
    }

    fn sample(
        &self,
        prompt: &str,
        first_sight: impl FnOnce() -> (Arc<str>, DiceContext),
    ) -> AttemptSample {
        let outcome = self.next_outcome(prompt, first_sight);
        let mut stats = self.stats.lock().expect("sim stats lock poisoned");
        stats.attempts += 1;
        match outcome {
            Outcome::Clean { forced } => {
                stats.clean += 1;
                if forced {
                    stats.forced_successes += 1;
                }
                drop(stats);
                AttemptSample {
                    latency_us: self.plan.base_latency_us,
                    result: self.inner.complete(prompt),
                }
            }
            Outcome::Slow => {
                stats.slow += 1;
                drop(stats);
                AttemptSample {
                    latency_us: self.plan.slow_latency_us,
                    result: self.inner.complete(prompt),
                }
            }
            Outcome::Timeout => {
                stats.timeouts += 1;
                AttemptSample {
                    latency_us: self.plan.timeout_latency_us,
                    result: Err(LlmError::Timeout {
                        elapsed_us: self.plan.timeout_latency_us,
                    }),
                }
            }
            Outcome::RateLimited => {
                stats.rate_limits += 1;
                AttemptSample {
                    latency_us: self.plan.base_latency_us,
                    result: Err(LlmError::RateLimited {
                        retry_after_us: self.plan.retry_after_us,
                    }),
                }
            }
            Outcome::Transient { status } => {
                stats.transients += 1;
                AttemptSample {
                    latency_us: self.plan.base_latency_us,
                    result: Err(LlmError::Transient { status }),
                }
            }
        }
    }
}

impl LanguageModel for SimBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// [`SimBackend::sample_attempt`], then the injected latency slept on
    /// the clock: the same schedule slots as sampling, so a caller that
    /// blocks and one that schedules see identical outcomes per prompt.
    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let sample = self.sample_attempt(prompt);
        self.clock.sleep_micros(sample.latency_us);
        sample.result
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

    fn latency_profile(&self) -> crate::LatencyProfile {
        self.inner.latency_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn inner() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
        (world, llm)
    }

    /// Drives one prompt to success, returning (injected faults, answer).
    fn run_to_success(sim: &SimBackend<'_>, prompt: &str) -> (u32, String) {
        let mut faults = 0;
        loop {
            match sim.complete(prompt) {
                Ok(c) => return (faults, c.text.clone()),
                Err(e) => {
                    assert!(e.is_transient(), "injected faults are transient: {e}");
                    faults += 1;
                }
            }
        }
    }

    #[test]
    fn fault_free_plan_is_transparent_apart_from_latency() {
        let (_, llm) = inner();
        let sim = SimBackend::new(&llm, FaultPlan::none(3));
        let direct = llm.complete("The capital of Denmark is __.").unwrap();
        let via_sim = sim.complete("The capital of Denmark is __.").unwrap();
        assert_eq!(direct, via_sim);
        let stats = sim.stats();
        assert_eq!((stats.attempts, stats.clean, stats.injected()), (1, 1, 0));
        assert_eq!(sim.clock().now_micros(), sim.plan().base_latency_us);
    }

    #[test]
    fn schedule_is_reproducible_per_seed_and_differs_across_seeds() {
        let (_, llm) = inner();
        let prompts: Vec<String> = (0..30)
            .map(|i| format!("deterministic prompt {i}"))
            .collect();
        let trace = |seed: u64| -> (Vec<u32>, FaultStats) {
            let sim = SimBackend::new(&llm, FaultPlan::heavy(seed));
            let faults = prompts.iter().map(|p| run_to_success(&sim, p).0).collect();
            (faults, sim.stats())
        };
        let (a, a_stats) = trace(1);
        let (b, b_stats) = trace(1);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a_stats, b_stats);
        let (c, _) = trace(2);
        assert_ne!(a, c, "different seeds inject different schedules");
    }

    #[test]
    fn answers_survive_every_fault_schedule() {
        let (_, llm) = inner();
        let prompt = "The capital of Denmark is __.";
        let truth = llm.complete(prompt).unwrap().text.clone();
        for plan in [
            FaultPlan::light(9),
            FaultPlan::moderate(9),
            FaultPlan::heavy(9),
            FaultPlan::always_faulty(9, 4),
        ] {
            let sim = SimBackend::new(&llm, plan);
            let (_, answer) = run_to_success(&sim, prompt);
            assert_eq!(answer, truth, "plan {plan:?} must not change answers");
        }
    }

    #[test]
    fn consecutive_faults_are_capped() {
        let (_, llm) = inner();
        let sim = SimBackend::new(&llm, FaultPlan::always_faulty(11, 3));
        for i in 0..20 {
            let (faults, _) = run_to_success(&sim, &format!("prompt {i}"));
            assert!(faults <= 3, "prompt {i} injected {faults} > cap");
        }
        assert!(sim.stats().forced_successes > 0, "cap must have engaged");
    }

    #[test]
    fn aggregate_attempts_are_scheduling_independent() {
        // Two logical calls per prompt, issued in different interleavings,
        // must consume the same total number of schedule slots.
        let (_, llm) = inner();
        let prompts: Vec<String> = (0..10).map(|i| format!("shared prompt {i}")).collect();
        let total_attempts = |order: &[usize]| -> u64 {
            let sim = SimBackend::new(&llm, FaultPlan::heavy(5));
            for &i in order {
                run_to_success(&sim, &prompts[i]);
            }
            sim.stats().attempts
        };
        let forward: Vec<usize> = (0..10).chain(0..10).collect();
        let interleaved: Vec<usize> = (0..10).flat_map(|i| [i, i]).collect();
        assert_eq!(total_attempts(&forward), total_attempts(&interleaved));
    }

    #[test]
    fn permanent_inner_errors_pass_through() {
        let (_, llm) = inner();
        // A fault-free schedule: the empty prompt reaches the inner model
        // and its permanent error surfaces unchanged.
        let sim = SimBackend::new(&llm, FaultPlan::none(1));
        assert_eq!(sim.complete("  "), Err(LlmError::EmptyPrompt));
    }

    #[test]
    fn sampling_and_blocking_draw_the_same_schedule() {
        // Interleaving sample_attempt and complete over one prompt must
        // walk a single attempt sequence: outcome i is the same whichever
        // API consumes slot i.
        let (_, llm) = inner();
        let prompt = "shared schedule prompt";
        let via_sample: Vec<(u64, bool)> = {
            let sim = SimBackend::new(&llm, FaultPlan::heavy(5));
            (0..12)
                .map(|_| {
                    let s = sim.sample_attempt(prompt);
                    (s.latency_us, s.result.is_ok())
                })
                .collect()
        };
        let via_complete: Vec<(u64, bool)> = {
            let sim = SimBackend::new(&llm, FaultPlan::heavy(5));
            (0..12)
                .map(|_| {
                    let before = sim.clock().now_micros();
                    let ok = sim.complete(prompt).is_ok();
                    (sim.clock().now_micros() - before, ok)
                })
                .collect()
        };
        assert_eq!(via_sample, via_complete);
    }

    #[test]
    fn sampling_does_not_touch_the_clock() {
        let (_, llm) = inner();
        let sim = SimBackend::new(&llm, FaultPlan::heavy_tail(7));
        for i in 0..20 {
            let s = sim.sample_attempt(&format!("prompt {i}"));
            assert!(s.result.is_ok(), "heavy-tail injects latency, not errors");
        }
        assert_eq!(sim.clock().now_micros(), 0, "sampling must not sleep");
        assert_eq!(sim.stats().attempts, 20);
        assert_eq!(sim.stats().injected(), 0);
    }

    #[test]
    fn heavy_tail_is_latency_only_with_a_real_tail() {
        let (_, llm) = inner();
        let plan = FaultPlan::heavy_tail(42);
        assert_eq!(
            plan.timeout_permille + plan.rate_limit_permille + plan.transient_permille,
            0
        );
        let sim = SimBackend::new(&llm, plan);
        let latencies: Vec<u64> = (0..500)
            .map(|i| sim.sample_attempt(&format!("tail probe {i}")).latency_us)
            .collect();
        let slow = latencies
            .iter()
            .filter(|&&l| l == plan.slow_latency_us)
            .count();
        assert!(slow > 0, "the tail must occur at this scale");
        assert!(slow < 50, "the tail must stay a tail: {slow}/500");
        assert!(latencies
            .iter()
            .all(|&l| l == plan.base_latency_us || l == plan.slow_latency_us));
    }

    #[test]
    fn endpoint_tags_desynchronize_replica_schedules() {
        // Two replicas sharing one plan (same seed) must not fault in
        // lockstep: the endpoint id is mixed into the slot commitment.
        let (_, llm) = inner();
        let prompts: Vec<String> = (0..40).map(|i| format!("replica prompt {i}")).collect();
        let trace = |endpoint: Option<u64>| -> Vec<u32> {
            let mut sim = SimBackend::new(&llm, FaultPlan::heavy(5));
            if let Some(id) = endpoint {
                sim = sim.with_endpoint(id);
            }
            prompts.iter().map(|p| run_to_success(&sim, p).0).collect()
        };
        let untagged = trace(None);
        let e0 = trace(Some(0));
        let e1 = trace(Some(1));
        assert_ne!(e0, e1, "replicas 0 and 1 must draw distinct schedules");
        assert_ne!(untagged, e0, "tagging changes the schedule");
        // Same endpoint id remains exactly reproducible.
        assert_eq!(e1, trace(Some(1)));
    }

    #[test]
    fn fault_stats_merge_is_commutative_and_exact() {
        let (_, llm) = inner();
        let stats_for = |seed: u64| {
            let sim = SimBackend::new(&llm, FaultPlan::heavy(seed));
            for i in 0..15 {
                run_to_success(&sim, &format!("merge probe {seed}-{i}"));
            }
            sim.stats()
        };
        let a = stats_for(7);
        let b = stats_for(1337);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.attempts, a.attempts + b.attempts);
        assert_eq!(ab.injected(), a.injected() + b.injected());
        let mut id = a;
        id.merge(&FaultStats::default());
        assert_eq!(id, a, "merging a default is the identity");
    }

    #[test]
    fn named_plans_resolve() {
        assert_eq!(FaultPlan::named("none", 1), Some(FaultPlan::none(1)));
        assert_eq!(FaultPlan::named("light", 2), Some(FaultPlan::light(2)));
        assert_eq!(
            FaultPlan::named("moderate", 3),
            Some(FaultPlan::moderate(3))
        );
        assert_eq!(FaultPlan::named("heavy", 4), Some(FaultPlan::heavy(4)));
        assert_eq!(
            FaultPlan::named("heavy-tail", 6),
            Some(FaultPlan::heavy_tail(6))
        );
        assert_eq!(FaultPlan::named("total-chaos", 5), None);
    }
}
