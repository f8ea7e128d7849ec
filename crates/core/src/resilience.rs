//! The resilience kernel: every retry, breaker, rate and endpoint decision
//! of the serving stacks, held once.
//!
//! Each piece is a pure, clock-parameterised state machine: it takes no
//! locks, never sleeps, and receives `now_us` from its caller. The stacks
//! are drivers over it: [`crate::route::RoutedBackend`] sleeps on these
//! decisions in the one blocking attempt loop, and
//! [`crate::dispatch::Dispatcher`] schedules them on its timer wheel.

use std::sync::Arc;

use unidm_llm::{
    AttemptSample, Clock, Completion, DiceContext, FaultPlan, FaultStats, LanguageModel, LlmError,
    SimBackend, StackPrompt,
};

use crate::backend::{BreakerPolicy, RetryPolicy};
use crate::route::AimdPolicy;

/// One micro-token: buckets account in millionths of a token so refill
/// arithmetic is exact integers at any rate.
const TOKEN: u64 = 1_000_000;

/// How long to wait before retry `retry` (1-based) of a prompt after
/// `err`: exponential from the policy base, capped, jittered into
/// `[50%, 100%]` by a draw keyed on `(seed, prompt, retry)` — `draws` is
/// the stack's dice with the prompt absorbed — then raised to the server's
/// retry-after hint or the breaker's remaining cooldown, since waiting
/// less than either burns a retry on a sure rejection.
pub(crate) fn backoff_us(
    policy: RetryPolicy,
    draws: &DiceContext,
    retry: u32,
    err: &LlmError,
) -> u64 {
    let doubled = policy
        .base_backoff_us
        .saturating_mul(1u64 << (retry - 1).min(32));
    let ceiling = doubled.min(policy.max_backoff_us);
    let jitter = draws.uniform(format_args!("backoff-{retry}"));
    let backoff = ceiling / 2 + ((ceiling / 2) as f64 * jitter) as u64;
    match *err {
        LlmError::RateLimited { retry_after_us } => backoff.max(retry_after_us),
        LlmError::CircuitOpen { cooldown_us } => backoff.max(cooldown_us),
        _ => backoff,
    }
}

/// Counts `err` into the matching per-kind fault counter; errors that are
/// not endpoint faults count nowhere.
pub(crate) fn tally_fault(
    err: &LlmError,
    timeouts: &mut u64,
    rate_limited: &mut u64,
    transients: &mut u64,
) {
    match err {
        LlmError::Timeout { .. } => *timeouts += 1,
        LlmError::RateLimited { .. } => *rate_limited += 1,
        LlmError::Transient { .. } => *transients += 1,
        _ => {}
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Closed,
    Open,
    HalfOpen,
}

/// A circuit breaker: `failure_threshold` consecutive failures open it
/// for `cooldown_us`; the first admission after the cooldown half-opens
/// it as a probe, whose failure re-opens it at once.
#[derive(Debug)]
pub(crate) struct Breaker {
    policy: BreakerPolicy,
    health: Health,
    consecutive_failures: u32,
    open_until_us: u64,
}

impl Breaker {
    pub(crate) fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            policy,
            health: Health::Closed,
            consecutive_failures: 0,
            open_until_us: 0,
        }
    }

    /// `Ok` to proceed, `Err(remaining cooldown)` to fail fast. An expired
    /// cooldown half-opens the breaker, admitting the caller as a probe.
    pub(crate) fn admit(&mut self, now_us: u64) -> Result<(), u64> {
        if self.health == Health::Open {
            if now_us < self.open_until_us {
                return Err(self.open_until_us - now_us);
            }
            self.health = Health::HalfOpen;
        }
        Ok(())
    }

    pub(crate) fn success(&mut self) {
        self.health = Health::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failure; returns whether the breaker tripped
    /// (transitioned to open) on this failure.
    pub(crate) fn failure(&mut self, now_us: u64) -> bool {
        self.consecutive_failures += 1;
        let should_open = self.health == Health::HalfOpen
            || self.consecutive_failures >= self.policy.failure_threshold;
        if !should_open {
            return false;
        }
        let tripped = self.health != Health::Open;
        self.health = Health::Open;
        self.open_until_us = now_us + self.policy.cooldown_us;
        tripped
    }
}

/// A token bucket with AIMD rate adaptation and a grant-time API.
///
/// [`Bucket::grant`] always reserves a token and answers *when* it is
/// available, so one bucket serves both kinds of caller: a blocking one
/// sleeps `at_us - now_us`, the reactor schedules the dispatch at `at_us`.
/// A fixed-rate bucket is the degenerate policy `min == max`,
/// `increase 0` ([`AimdPolicy::fixed`]).
#[derive(Debug)]
pub(crate) struct Bucket {
    rate_per_sec: u64,
    min: u64,
    max: u64,
    increase: u64,
    burst: u64,
    /// Content in micro-tokens as of `horizon_us`.
    units: u64,
    /// The time the bucket is accounted through. Grants issued into the
    /// future push it ahead of `now`, and it never rewinds: tokens
    /// committed to future grants stay committed.
    horizon_us: u64,
}

impl Bucket {
    /// A full bucket at the policy's initial rate.
    pub(crate) fn new(policy: AimdPolicy, now_us: u64) -> Self {
        let burst = policy.burst.max(1);
        Bucket {
            rate_per_sec: policy.initial_per_sec.max(1),
            min: policy.min_per_sec,
            max: policy.max_per_sec,
            increase: policy.increase_per_sec,
            burst,
            units: burst * TOKEN,
            horizon_us: now_us,
        }
    }

    /// The current sustained rate, in tokens per second.
    pub(crate) fn rate_per_sec(&self) -> u64 {
        self.rate_per_sec
    }

    /// Reserves one token and returns the time it is available: `now_us`
    /// (or the horizon, if earlier grants already run ahead) when the
    /// bucket holds one, the exact drip-in time otherwise.
    pub(crate) fn grant(&mut self, now_us: u64) -> u64 {
        let rate = u128::from(self.rate_per_sec);
        let cap = u128::from(self.burst) * u128::from(TOKEN);
        if now_us > self.horizon_us {
            let refill = u128::from(now_us - self.horizon_us) * rate;
            self.units = (u128::from(self.units) + refill).min(cap) as u64;
            self.horizon_us = now_us;
        }
        if self.units >= TOKEN {
            self.units -= TOKEN;
        } else {
            let wait = (TOKEN - self.units).div_ceil(self.rate_per_sec);
            // Consume the token that will have dripped in by the grant.
            let dripped = u128::from(self.units) + u128::from(wait) * rate;
            self.units = dripped.min(cap) as u64 - TOKEN;
            self.horizon_us += wait;
        }
        self.horizon_us
    }

    /// Additive increase on a success; returns whether the rate moved.
    pub(crate) fn on_success(&mut self) -> bool {
        if self.increase == 0 || self.rate_per_sec >= self.max {
            return false;
        }
        self.rate_per_sec = (self.rate_per_sec + self.increase).min(self.max);
        true
    }

    /// Multiplicative decrease on an observed 429; returns whether the
    /// rate moved.
    pub(crate) fn on_rate_limited(&mut self) -> bool {
        if self.rate_per_sec <= self.min {
            return false;
        }
        self.rate_per_sec = (self.rate_per_sec / 2).max(self.min).max(1);
        true
    }
}

/// The endpoint under a stack: the caller's model directly, or a fault
/// injector the stack owns.
pub(crate) enum Endpoint<'a> {
    Direct(&'a dyn LanguageModel),
    // Boxed: the injector carries its plan and counters, and the direct
    // path should not pay its footprint.
    Sim(Box<SimBackend<'a>>),
}

impl<'a> Endpoint<'a> {
    /// `inner` itself, or — with a fault plan — a [`SimBackend`] over it on
    /// `clock`. `id` tags the injector's fault slots so replicas sharing a
    /// plan draw independent schedules; `None` keeps the untagged keying.
    pub(crate) fn new(
        inner: &'a dyn LanguageModel,
        faults: Option<FaultPlan>,
        clock: Arc<dyn Clock>,
        id: Option<u64>,
    ) -> Self {
        let Some(plan) = faults else {
            return Endpoint::Direct(inner);
        };
        let sim = SimBackend::with_clock(inner, plan, clock);
        Endpoint::Sim(Box::new(match id {
            Some(id) => sim.with_endpoint(id),
            None => sim,
        }))
    }

    pub(crate) fn model(&self) -> &dyn LanguageModel {
        match self {
            Endpoint::Direct(model) => *model,
            Endpoint::Sim(sim) => sim.as_ref(),
        }
    }

    /// One blocking attempt of the stack's `prompt`: the injector's next
    /// schedule slot slept on its clock, or a direct call.
    pub(crate) fn complete(&self, prompt: &StackPrompt) -> Result<Arc<Completion>, LlmError> {
        match self {
            Endpoint::Sim(sim) => sim.complete_prompt(prompt),
            Endpoint::Direct(model) => model.complete(prompt),
        }
    }

    /// Commits one attempt without sleeping: the injector's next schedule
    /// slot, or a direct call whose virtual latency comes from the model's
    /// latency profile.
    pub(crate) fn sample(&self, prompt: &StackPrompt) -> AttemptSample {
        match self {
            Endpoint::Sim(sim) => sim.sample_prompt(prompt),
            Endpoint::Direct(model) => {
                let profile = model.latency_profile();
                let result = model.complete(prompt);
                let latency_us = match &result {
                    Ok(c) => profile.latency_us(c.usage),
                    Err(_) => profile.base_us,
                };
                AttemptSample { latency_us, result }
            }
        }
    }

    /// Injection counters of the owned fault injector, if any.
    pub(crate) fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            Endpoint::Sim(sim) => Some(sim.stats()),
            Endpoint::Direct(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{Dice, VirtualClock};

    #[test]
    fn backoff_values_are_pinned_per_seed_prompt_and_retry() {
        // Recorded from the three pre-kernel copies (they agreed).
        let golden: [u64; 20] = [
            70398, 171467, 295862, 5592781, 5641197, 91517, 142687, 204095, 6900102, 7615483,
            68959, 188758, 335720, 9061178, 6616877, 70219, 156510, 365876, 6556278, 6385126,
        ];
        let policy = RetryPolicy::default();
        let plain = LlmError::Timeout { elapsed_us: 0 };
        let mut got = Vec::new();
        for seed in [7u64, 1337] {
            for prompt in ["alpha", "The capital of Denmark is __."] {
                for retry in [1u32, 2, 3, 8, 40] {
                    let draws = Dice::new(seed).context(prompt);
                    got.push(backoff_us(policy, &draws, retry, &plain));
                }
            }
        }
        assert_eq!(got, golden);
    }

    #[test]
    fn backoff_never_undercuts_a_server_hint_or_a_cooldown() {
        let (policy, draws) = (RetryPolicy::default(), Dice::new(7).context("alpha"));
        let backoff = |err| backoff_us(policy, &draws, 1, &err);
        assert_eq!(backoff(LlmError::Transient { status: 503 }), 70398);
        let hint = LlmError::RateLimited {
            retry_after_us: 250_000,
        };
        assert_eq!(backoff(hint), 250_000);
        assert_eq!(backoff(LlmError::RateLimited { retry_after_us: 9 }), 70398);
        let open = LlmError::CircuitOpen {
            cooldown_us: 1_000_000,
        };
        assert_eq!(backoff(open), 1_000_000);
    }

    #[test]
    fn breaker_transition_table() {
        let mut breaker = Breaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown_us: 500,
        });
        // Closed: failures below the threshold keep admitting, a success
        // resets the run.
        assert_eq!(breaker.admit(0), Ok(()));
        assert!(!breaker.failure(10));
        breaker.success();
        assert!(!breaker.failure(20));
        assert_eq!(breaker.admit(25), Ok(()));
        // Closed → Open on the threshold failure: a trip.
        assert!(breaker.failure(30));
        assert_eq!(breaker.admit(31), Err(499));
        assert_eq!(breaker.admit(529), Err(1));
        // Open: a late failure re-arms the cooldown without a second trip.
        assert!(!breaker.failure(100));
        assert_eq!(breaker.admit(530), Err(70));
        // Open → HalfOpen once the cooldown has passed: one probe admitted.
        assert_eq!(breaker.admit(600), Ok(()));
        // HalfOpen → Open on the probe's failure: a re-trip, at once.
        assert!(breaker.failure(610));
        assert_eq!(breaker.admit(611), Err(499));
        // HalfOpen → Closed on the probe's success, with the run reset.
        assert_eq!(breaker.admit(1110), Ok(()));
        breaker.success();
        assert!(!breaker.failure(1120));
        assert_eq!(breaker.admit(1121), Ok(()));
    }

    /// Drives `bucket` the way a blocking caller does — idle `gap`, grant,
    /// sleep until the grant, then apply `event` (1 success, 2 rate-limited)
    /// — and returns `(waited, now, rate, rate moved)` per step.
    fn take_or_wait(mut bucket: Bucket, script: &[(u64, u8)]) -> Vec<(u64, u64, u64, bool)> {
        let clock = VirtualClock::new();
        let mut steps = Vec::new();
        for &(gap, event) in script {
            clock.sleep_micros(gap);
            let now = clock.now_micros();
            let waited = bucket.grant(now) - now;
            clock.sleep_micros(waited);
            let moved = match event {
                1 => bucket.on_success(),
                2 => bucket.on_rate_limited(),
                _ => false,
            };
            steps.push((waited, clock.now_micros(), bucket.rate_per_sec(), moved));
        }
        steps
    }

    #[test]
    fn fixed_bucket_grants_reproduce_the_old_take_or_wait_sequence() {
        // 3/s burst 2; `(waited, now)` recorded from the pre-kernel
        // blocking backend's `acquire_token` over the same idle gaps.
        let gaps = [0, 0, 0, 100_000, 0, 700_000, 0, 0, 2_000_000, 0, 0, 0];
        let golden = [
            (0, 0),
            (0, 0),
            (333334, 333334),
            (233333, 666667),
            (333333, 1000000),
            (0, 1700000),
            (0, 1700000),
            (333334, 2033334),
            (0, 4033334),
            (0, 4033334),
            (333334, 4366668),
            (333333, 4700001),
        ];
        let script: Vec<(u64, u8)> = gaps.iter().map(|&gap| (gap, 1)).collect();
        let steps = take_or_wait(Bucket::new(AimdPolicy::fixed(3, 2), 0), &script);
        let timeline: Vec<(u64, u64)> = steps.iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(timeline, golden);
        assert!(
            steps.iter().all(|s| s.2 == 3 && !s.3),
            "a fixed rate never moves"
        );
    }

    #[test]
    fn aimd_bucket_grants_reproduce_the_old_take_or_wait_sequence() {
        // Recorded from the pre-kernel router's `acquire_token` /
        // `aimd_success` / `aimd_decrease` over the same script.
        let policy = AimdPolicy {
            initial_per_sec: 8,
            min_per_sec: 2,
            max_per_sec: 10,
            increase_per_sec: 1,
            burst: 2,
        };
        let script = [
            (0, 1),
            (0, 2),
            (0, 2),
            (0, 0),
            (50_000, 1),
            (0, 2),
            (0, 2),
            (900_000, 1),
            (0, 1),
            (0, 1),
            (0, 1),
            (0, 0),
        ];
        let golden = [
            (0, 0, 9, true),
            (0, 0, 4, true),
            (250000, 250000, 2, true),
            (500000, 750000, 2, false),
            (450000, 1250000, 3, true),
            (333334, 1583334, 2, true),
            (499999, 2083333, 2, false),
            (0, 2983333, 3, true),
            (66667, 3050000, 4, true),
            (250000, 3300000, 5, true),
            (200000, 3500000, 6, true),
            (166667, 3666667, 6, false),
        ];
        assert_eq!(take_or_wait(Bucket::new(policy, 0), &script), golden);
    }

    #[test]
    fn grants_issued_ahead_of_the_clock_queue_behind_each_other() {
        // The reactor's use: many grants at one `now`, none slept on.
        let mut bucket = Bucket::new(AimdPolicy::fixed(10, 1), 0);
        let grants: Vec<u64> = (0..4).map(|_| bucket.grant(0)).collect();
        assert_eq!(grants, [0, 100_000, 200_000, 300_000]);
        // The horizon never rewinds: a grant at an earlier `now` still
        // queues behind the reserved tokens.
        assert_eq!(bucket.grant(50_000), 400_000);
    }
}
