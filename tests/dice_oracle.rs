//! Oracle tests for the absorbed draw context: `Dice::uniform` as it was
//! before the split at the `0xff` separator is kept below as
//! [`reference_uniform`], and every draw the program now makes through a
//! `DiceContext` — plain tags, numbered tags rendered without a
//! `String`, the whole fault schedule of a [`SimBackend`], and every
//! route, backoff and hedge of a serving stack that hands one
//! [`StackPrompt`] down its layers — must equal what the one-loop version
//! yields, to the bit.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (the CI matrix runs
//! two).

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{fault_seed, Gen, ANY};
use unidm::backend::{BackendConfig, LatencySketch, RetryPolicy};
use unidm::dispatch::HedgePolicy;
use unidm::route::{RoutePlan, RoutedBackend};
use unidm_llm::{
    Completion, Dice, FaultPlan, LanguageModel, LatencyProfile, LlmError, SimBackend, StackPrompt,
    Usage,
};

/// `Dice::uniform` as of PR 18: one chain over `context ‖ 0xff ‖ tag`.
fn reference_uniform(seed: u64, context: &str, tag: &str) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in context.bytes().chain([0xff]).chain(tag.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// PR 18's `pick` over [`reference_uniform`].
fn reference_pick(seed: u64, context: &str, tag: &str, n: usize) -> usize {
    (reference_uniform(seed, context, tag) * n as f64) as usize % n
}

/// Contexts the draws must agree on: empty, short, multi-byte, and long
/// enough (4 kB) that a word-sized shortcut would show.
fn contexts(g: &mut Gen) -> Vec<String> {
    let mut contexts = vec![
        String::new(),
        "ctx".to_string(),
        "日本語 é ü ñ".to_string(),
        "\u{ff}".to_string(),
        "x".repeat(4096),
    ];
    for _ in 0..40 {
        contexts.push(g.string(ANY, 200));
    }
    for _ in 0..4 {
        contexts.push(g.chars_from(ANY, 4096));
    }
    contexts
}

#[test]
fn absorbed_context_draws_equal_the_one_loop_draw_to_the_bit() {
    let mut g = Gen::new(0xd1ce);
    let contexts = contexts(&mut g);
    for case in 0..400 {
        let seed = if case % 7 == 0 { 0 } else { g.u64() };
        let context = &contexts[case % contexts.len()];
        let tag = match case % 5 {
            0 => String::new(),
            1 => "日本語".to_string(),
            _ => g.string(ANY, 24),
        };
        let dice = Dice::new(seed);
        let draws = dice.context(context);
        let want = reference_uniform(seed, context, &tag);
        assert_eq!(draws.uniform(&tag).to_bits(), want.to_bits(), "case {case}");
        assert_eq!(
            dice.uniform(context, &tag).to_bits(),
            want.to_bits(),
            "case {case}"
        );

        let p = g.f64(-0.2, 1.2);
        let chance = want < p.clamp(0.0, 1.0);
        assert_eq!(draws.chance(&tag, p), chance, "case {case}");
        assert_eq!(dice.chance(context, &tag, p), chance, "case {case}");

        let n = g.usize(1, 1 << 17);
        let pick = reference_pick(seed, context, &tag, n);
        assert_eq!(draws.pick(&tag, n), pick, "case {case}");
        assert_eq!(dice.pick(context, &tag, n), pick, "case {case}");
    }
}

#[test]
fn numbered_tags_draw_as_their_formatted_text() {
    // The tags the stacks number: rendered straight into the draw, they
    // must read as the `String` that `format!` used to build.
    let mut g = Gen::new(0x7a65);
    let numbers = [0, 9, 10, 99, u64::from(u32::MAX), u64::MAX];
    let endpoints = [0, 7, u64::MAX];
    for context in contexts(&mut g).iter().take(12) {
        let seed = g.u64();
        let draws = Dice::new(seed).context(context);
        let want = |tag: String| reference_uniform(seed, context, &tag).to_bits();
        for n in numbers {
            assert_eq!(
                draws.uniform(format_args!("fault-{n}")).to_bits(),
                want(format!("fault-{n}"))
            );
            assert_eq!(
                draws.uniform(format_args!("route-{n}")).to_bits(),
                want(format!("route-{n}"))
            );
            assert_eq!(
                draws.uniform(format_args!("backoff-{n}")).to_bits(),
                want(format!("backoff-{n}"))
            );
            for id in endpoints {
                assert_eq!(
                    draws.uniform(format_args!("e{id}-fault-{n}")).to_bits(),
                    want(format!("e{id}-fault-{n}"))
                );
            }
        }
        for id in endpoints {
            assert_eq!(
                draws.pick(format_args!("e{id}-status"), 3),
                reference_pick(seed, context, &format!("e{id}-status"), 3)
            );
        }
    }
}

/// Answers every prompt with its length; never fails.
struct LengthModel;

impl LanguageModel for LengthModel {
    fn name(&self) -> &str {
        "length"
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        Ok(Completion::shared(
            prompt.len().to_string(),
            Usage::default(),
        ))
    }

    fn usage(&self) -> Usage {
        Usage::default()
    }

    fn reset_usage(&self) {}
}

/// What one attempt did: its virtual latency and its answer or error.
type Attempt = (u64, Result<String, LlmError>);

/// The attempts of `prompt` under `plan` in order, re-derived from the
/// one-loop draw and `format!`-built tags: PR 18's `next_outcome` and
/// `sample_attempt`, consecutive-fault cap included.
struct ReferenceSchedule<'p> {
    plan: FaultPlan,
    endpoint: Option<u64>,
    prompt: &'p str,
    attempt: u64,
    consecutive: u32,
}

impl<'p> ReferenceSchedule<'p> {
    fn new(plan: &FaultPlan, endpoint: Option<u64>, prompt: &'p str) -> Self {
        ReferenceSchedule {
            plan: *plan,
            endpoint,
            prompt,
            attempt: 0,
            consecutive: 0,
        }
    }
}

impl Iterator for ReferenceSchedule<'_> {
    type Item = Attempt;

    fn next(&mut self) -> Option<Attempt> {
        let (plan, prompt) = (&self.plan, self.prompt);
        let attempt = self.attempt;
        self.attempt += 1;
        let clean = |latency_us| Some((latency_us, Ok(prompt.len().to_string())));
        if self.consecutive >= plan.max_consecutive_faults {
            self.consecutive = 0;
            return clean(plan.base_latency_us);
        }
        let (fault_tag, status_tag) = match self.endpoint {
            Some(id) => (format!("e{id}-fault-{attempt}"), format!("e{id}-status")),
            None => (format!("fault-{attempt}"), "status".to_string()),
        };
        let roll = (reference_uniform(plan.seed, prompt, &fault_tag) * 1000.0) as u32;
        let timeout = plan.timeout_permille;
        let rate_limit = timeout + plan.rate_limit_permille;
        let transient = rate_limit + plan.transient_permille;
        let slow = transient + plan.slow_permille;
        if roll >= transient {
            self.consecutive = 0;
            return clean(if roll < slow {
                plan.slow_latency_us
            } else {
                plan.base_latency_us
            });
        }
        self.consecutive += 1;
        Some(if roll < timeout {
            let elapsed_us = plan.timeout_latency_us;
            (elapsed_us, Err(LlmError::Timeout { elapsed_us }))
        } else if roll < rate_limit {
            let retry_after_us = plan.retry_after_us;
            (
                plan.base_latency_us,
                Err(LlmError::RateLimited { retry_after_us }),
            )
        } else {
            let status = [500u16, 502, 503][reference_pick(plan.seed, prompt, &status_tag, 3)];
            (plan.base_latency_us, Err(LlmError::Transient { status }))
        })
    }
}

/// The first `attempts` attempts of `prompt` under `plan`.
fn reference_schedule(
    plan: &FaultPlan,
    endpoint: Option<u64>,
    prompt: &str,
    attempts: u64,
) -> Vec<Attempt> {
    ReferenceSchedule::new(plan, endpoint, prompt)
        .take(attempts as usize)
        .collect()
}

/// Stream-sized prompts (a kilobyte or two) beside short ones.
fn stream_prompts(g: &mut Gen) -> Vec<String> {
    (0..50)
        .map(|i| {
            let len = if i % 2 == 0 { 1500 + i * 20 } else { 10 + i };
            format!("{i}: {}", g.chars_from(ANY, len))
        })
        .collect()
}

fn sample(sim: &SimBackend<'_>, prompt: &str) -> Attempt {
    let sample = sim.sample_attempt(prompt);
    (sample.latency_us, sample.result.map(|c| c.text.clone()))
}

#[test]
fn sim_backend_schedules_equal_their_rederivation_in_any_interleaving() {
    const ATTEMPTS: u64 = 64;
    let mut g = Gen::new(fault_seed());
    let prompts = stream_prompts(&mut g);
    let model = LengthModel;
    let mut faults = 0;
    for plan in [
        FaultPlan::moderate(fault_seed()),
        FaultPlan::heavy_tail(fault_seed()),
    ] {
        for endpoint in [None, Some(3)] {
            let build = || {
                let sim = SimBackend::new(&model, plan);
                match endpoint {
                    Some(id) => sim.with_endpoint(id),
                    None => sim,
                }
            };
            let want: Vec<Vec<Attempt>> = prompts
                .iter()
                .map(|p| reference_schedule(&plan, endpoint, p, ATTEMPTS))
                .collect();
            faults += want.iter().flatten().filter(|a| a.1.is_err()).count();

            // Prompt by prompt…
            let sim = build();
            for (prompt, want) in prompts.iter().zip(&want) {
                let got: Vec<Attempt> = (0..ATTEMPTS).map(|_| sample(&sim, prompt)).collect();
                assert_eq!(&got, want, "{plan:?} endpoint {endpoint:?}");
            }
            // …and round-robin over the prompts: no prompt's sequence
            // depends on what was asked between its attempts.
            let sim = build();
            let mut got: Vec<Vec<Attempt>> = vec![Vec::new(); prompts.len()];
            for _ in 0..ATTEMPTS {
                for (prompt, got) in prompts.iter().zip(&mut got) {
                    got.push(sample(&sim, prompt));
                }
            }
            assert_eq!(got, want, "interleaved, {plan:?} endpoint {endpoint:?}");
        }
    }
    assert!(faults > 500, "the moderate plan must fault: {faults}");
}

#[test]
fn str_and_handle_entry_points_walk_one_schedule() {
    // One injector, one prompt, three ways in: whichever entry point sees
    // the prompt first, and whether or not the handle's dice is the
    // plan's, attempt `i` in call order is slot `i` of the one schedule.
    const ATTEMPTS: u64 = 64;
    let mut g = Gen::new(fault_seed());
    let prompts = stream_prompts(&mut g);
    let model = LengthModel;
    let plan = FaultPlan::moderate(fault_seed());
    for (case, prompt) in prompts.iter().enumerate().take(12) {
        let endpoint = (case % 2 == 1).then_some(3);
        let handle_seed = plan.seed + (case as u64 / 2) % 2;
        let sim = SimBackend::new(&model, plan);
        let sim = match endpoint {
            Some(id) => sim.with_endpoint(id),
            None => sim,
        };
        let handle = StackPrompt::new(prompt, Dice::new(handle_seed));
        let text = |result: Result<Arc<Completion>, LlmError>| result.map(|c| c.text.clone());
        let got: Vec<Attempt> = (0..ATTEMPTS as usize)
            .map(|i| {
                let before = sim.clock().now_micros();
                // `case / 4` rotates which entry point has the first sight.
                match (i + case / 4) % 3 {
                    0 => sample(&sim, prompt),
                    1 => {
                        let sample = sim.sample_prompt(&handle);
                        (sample.latency_us, text(sample.result))
                    }
                    _ => {
                        let result = text(sim.complete(prompt));
                        (sim.clock().now_micros() - before, result)
                    }
                }
            })
            .collect();
        let want = reference_schedule(&plan, endpoint, prompt, ATTEMPTS);
        assert_eq!(got, want, "case {case}");
        assert_eq!(sim.stats().attempts, ATTEMPTS);
    }
}

/// `resilience::backoff_us` over the one-loop draw (no breaker, so no
/// cooldown to honor).
fn reference_backoff(
    seed: u64,
    policy: RetryPolicy,
    prompt: &str,
    retry: u32,
    err: &LlmError,
) -> u64 {
    let doubled = policy
        .base_backoff_us
        .saturating_mul(1u64 << (retry - 1).min(32));
    let ceiling = doubled.min(policy.max_backoff_us);
    let jitter = reference_uniform(seed, prompt, &format!("backoff-{retry}"));
    let backoff = ceiling / 2 + ((ceiling / 2) as f64 * jitter) as u64;
    match *err {
        LlmError::RateLimited { retry_after_us } => backoff.max(retry_after_us),
        _ => backoff,
    }
}

/// One fault injector's reference state: every prompt's schedule,
/// consumed in call order.
struct ReferenceInjector<'p> {
    plan: FaultPlan,
    endpoint: Option<u64>,
    schedules: HashMap<&'p str, ReferenceSchedule<'p>>,
}

impl<'p> ReferenceInjector<'p> {
    fn new(plan: FaultPlan, endpoint: Option<u64>) -> Self {
        ReferenceInjector {
            plan,
            endpoint,
            schedules: HashMap::new(),
        }
    }

    fn attempt(&mut self, prompt: &'p str) -> Attempt {
        self.schedules
            .entry(prompt)
            .or_insert_with(|| ReferenceSchedule::new(&self.plan, self.endpoint, prompt))
            .next()
            .expect("a schedule never ends")
    }
}

/// The blocking attempt loop without breakers or buckets: route by the
/// one-loop draw, consume the routed injector's next slot, back off by the
/// one-loop draw — all charged to one clock. `route` is the cumulative
/// weighted roll the router used before it lost its weights; at unit
/// weights it must pick what the router's uniform pick does.
struct ReferenceRouter<'p> {
    seed: u64,
    retry: RetryPolicy,
    weights: Vec<u64>,
    injectors: Vec<ReferenceInjector<'p>>,
    clock_us: u64,
    attempts: Vec<u64>,
}

impl<'p> ReferenceRouter<'p> {
    /// `weights.len()` replicas tagged `0..n`, or — for one weight and
    /// `tagged == false` — the untagged single endpoint.
    fn new(config: &BackendConfig, weights: &[u64], tagged: bool) -> Self {
        let plan = config.faults.expect("the oracle stacks inject faults");
        ReferenceRouter {
            seed: config.seed,
            retry: RetryPolicy::default(),
            weights: weights.to_vec(),
            injectors: (0..weights.len() as u64)
                .map(|id| ReferenceInjector::new(plan, tagged.then_some(id)))
                .collect(),
            clock_us: 0,
            attempts: vec![0; weights.len()],
        }
    }

    fn route(&self, prompt: &str, retry: u32) -> usize {
        if self.weights.len() == 1 {
            return 0;
        }
        let total: u64 = self.weights.iter().sum();
        let draw = reference_uniform(self.seed, prompt, &format!("route-{retry}"));
        let roll = ((draw * total as f64) as u64).min(total - 1);
        let mut cumulative = 0;
        self.weights
            .iter()
            .position(|weight| {
                cumulative += weight;
                roll < cumulative
            })
            .expect("the roll is below the total weight")
    }

    fn complete(&mut self, prompt: &'p str) -> Result<String, LlmError> {
        let mut retry = 0u32;
        loop {
            let index = self.route(prompt, retry);
            let (latency_us, result) = self.injectors[index].attempt(prompt);
            self.attempts[index] += 1;
            self.clock_us += latency_us;
            let err = match result {
                Ok(text) => return Ok(text),
                Err(err) => err,
            };
            if retry >= self.retry.max_retries {
                return Err(err);
            }
            retry += 1;
            self.clock_us += reference_backoff(self.seed, self.retry, prompt, retry, &err);
        }
    }
}

/// What a stack shows after a call: the answer, its clock and its
/// per-endpoint attempt counts (for a dispatcher: attempts, retries,
/// hedges issued / won / cancelled).
type Observed = (Result<String, LlmError>, u64, Vec<u64>);

/// One attempt copy in flight (or, for `None`, the armed hedge timer) of
/// the reference dispatcher: deadline, scheduling order, what it delivers
/// and whether it is a hedge.
type Timer = (u64, u32, Option<(Attempt, bool)>);

/// The dispatcher's hedge delay floor, in microseconds.
const HEDGE_MIN_DELAY_US: u64 = 1_000;

/// Duplicates the dispatcher issues per request.
const MAX_HEDGES: u32 = 1;

/// The event-driven dispatcher under one serial caller: memo, attempt
/// waves with at most one hedge per request, first response wins, backoff
/// by the one-loop draw. Timers fire earliest deadline first, ties in
/// scheduling order, as the timer wheel pops them.
struct ReferenceDispatcher<'p, E: FnMut(&'p str) -> Attempt> {
    seed: u64,
    retry: RetryPolicy,
    hedge: HedgePolicy,
    endpoint: E,
    memo: HashMap<&'p str, String>,
    latency: LatencySketch,
    clock_us: u64,
    /// attempts, retries, hedges issued, won, cancelled.
    counters: [u64; 5],
    scheduled: u32,
}

impl<'p, E: FnMut(&'p str) -> Attempt> ReferenceDispatcher<'p, E> {
    fn new(config: &BackendConfig, endpoint: E) -> Self {
        ReferenceDispatcher {
            seed: config.seed,
            retry: RetryPolicy::default(),
            hedge: config.hedge.expect("the oracle dispatchers hedge"),
            endpoint,
            memo: HashMap::new(),
            latency: LatencySketch::default(),
            clock_us: 0,
            counters: [0; 5],
            scheduled: 0,
        }
    }

    fn schedule(&mut self, timers: &mut Vec<Timer>, after_us: u64, fires: Option<(Attempt, bool)>) {
        timers.push((self.clock_us + after_us, self.scheduled, fires));
        self.scheduled += 1;
    }

    fn launch(&mut self, timers: &mut Vec<Timer>, prompt: &'p str, is_hedge: bool) {
        self.counters[0] += 1;
        let attempt = (self.endpoint)(prompt);
        self.schedule(timers, attempt.0, Some((attempt, is_hedge)));
    }

    fn complete(&mut self, prompt: &'p str) -> Result<String, LlmError> {
        if let Some(hit) = self.memo.get(prompt) {
            return Ok(hit.clone());
        }
        let (mut retries, mut hedged) = (0u32, 0u32);
        loop {
            let mut timers: Vec<Timer> = Vec::new();
            self.launch(&mut timers, prompt, false);
            if self.latency.samples() >= self.hedge.min_samples && hedged < MAX_HEDGES {
                let delay = self
                    .latency
                    .quantile_us(self.hedge.quantile_permille)
                    .max(HEDGE_MIN_DELAY_US);
                self.schedule(&mut timers, delay, None);
            }
            let err = loop {
                let next = (0..timers.len())
                    .min_by_key(|&i| (timers[i].0, timers[i].1))
                    .expect("an unresolved wave has a timer pending");
                let (deadline_us, _, fired) = timers.remove(next);
                self.clock_us = deadline_us;
                let racing = timers.iter().filter(|t| t.2.is_some()).count() as u64;
                match fired {
                    None => {
                        hedged += 1;
                        self.counters[2] += 1;
                        self.launch(&mut timers, prompt, true);
                    }
                    Some(((latency_us, Ok(text)), is_hedge)) => {
                        self.counters[3] += u64::from(is_hedge);
                        self.counters[4] += racing;
                        self.latency.record(latency_us);
                        self.memo.insert(prompt, text.clone());
                        return Ok(text);
                    }
                    Some(((_, Err(err)), _)) if racing == 0 => break err,
                    Some(_) => {}
                }
            };
            if retries >= self.retry.max_retries {
                return Err(err);
            }
            retries += 1;
            self.counters[1] += 1;
            self.clock_us += reference_backoff(self.seed, self.retry, prompt, retries, &err);
        }
    }
}

fn observe_router(
    router: &RoutedBackend<'_>,
    result: Result<Arc<Completion>, LlmError>,
) -> Observed {
    let attempts = router
        .stats()
        .endpoints
        .iter()
        .map(|e| e.attempts)
        .collect();
    (
        result.map(|c| c.text.clone()),
        router.clock().now_micros(),
        attempts,
    )
}

fn observe_dispatcher(
    dispatcher: &RoutedBackend<'_>,
    result: Result<Arc<Completion>, LlmError>,
) -> Observed {
    let stats = dispatcher.backend_stats();
    (
        result.map(|c| c.text.clone()),
        dispatcher.clock().now_micros(),
        vec![
            stats.attempts,
            stats.retries,
            stats.hedges_issued,
            stats.hedges_won,
            stats.hedges_cancelled,
        ],
    )
}

#[test]
fn stack_draws_equal_their_rederivation_whichever_layer_absorbed_the_prompt() {
    // Every stack shape that hands a `StackPrompt` down, with the injectors
    // on the stack's seed (one absorption serves every layer) and on
    // another (each layer's draws are its own): after every one of 50 × 40
    // calls, the answer, the clock and the per-endpoint attempt counts —
    // so every outcome, injected latency, routed endpoint and backoff —
    // equal the reference's.
    const ROUNDS: usize = 40;
    let mut g = Gen::new(fault_seed());
    let prompts = stream_prompts(&mut g);
    let model = LengthModel;
    let seed = fault_seed();
    let fleet_weights = [1u64, 1, 1];
    let fleet = RoutePlan::replicas(3);
    let hedge = HedgePolicy::at_quantile(900).with_min_samples(8);
    let calls = || (0..ROUNDS).flat_map(|_| prompts.iter());
    let (mut retried, mut hedges) = (0, 0);
    for plan_seed in [seed, seed + 1] {
        let blocking = BackendConfig::resilient(seed)
            .without_breaker()
            .with_faults(FaultPlan::moderate(plan_seed));
        let pipelined = blocking.with_pipelined().with_hedge(hedge);

        // Blocking, untagged: the single-endpoint protection stack.
        let router = RoutedBackend::single(&model, blocking);
        let mut want = ReferenceRouter::new(&blocking, &[1], false);
        for (call, prompt) in calls().enumerate() {
            let got = observe_router(&router, router.complete(prompt));
            let want = (want.complete(prompt), want.clock_us, want.attempts.clone());
            assert_eq!(got, want, "single, plan seed {plan_seed}, call {call}");
        }
        retried += want.attempts[0] - (ROUNDS * prompts.len()) as u64;

        // Blocking, tagged: three replicas, routed uniformly.
        let router = RoutedBackend::from_plan(&model, blocking.with_route(fleet));
        let mut want = ReferenceRouter::new(&blocking, &fleet_weights, true);
        for (call, prompt) in calls().enumerate() {
            let got = observe_router(&router, router.complete(prompt));
            let want = (want.complete(prompt), want.clock_us, want.attempts.clone());
            assert_eq!(got, want, "fleet, plan seed {plan_seed}, call {call}");
        }
        assert!(want.attempts.iter().all(|&n| n > 0), "every replica served");

        // Pipelined and hedged, untagged: the dispatcher over its injector.
        let dispatcher = RoutedBackend::single(&model, pipelined);
        let mut injector = ReferenceInjector::new(FaultPlan::moderate(plan_seed), None);
        let mut want = ReferenceDispatcher::new(&pipelined, |prompt| injector.attempt(prompt));
        for (call, prompt) in calls().enumerate() {
            let got = observe_dispatcher(&dispatcher, dispatcher.complete(prompt));
            let want = (want.complete(prompt), want.clock_us, want.counters.to_vec());
            assert_eq!(got, want, "dispatcher, plan seed {plan_seed}, call {call}");
        }
        hedges += want.counters[2];

        // Pipelined and hedged over the tagged fleet: the dispatcher's
        // endpoint is the router, whose calls take the model's profile
        // latency on the dispatcher's clock and their own on the router's.
        let router = RoutedBackend::from_plan(&model, blocking.with_route(fleet));
        let over_fleet = BackendConfig::resilient(seed)
            .without_breaker()
            .with_pipelined()
            .with_hedge(hedge);
        let dispatcher = RoutedBackend::single(&router, over_fleet);
        let mut below = ReferenceRouter::new(&blocking, &fleet_weights, true);
        let profile_us = LatencyProfile::default().latency_us(Usage::default());
        let mut want =
            ReferenceDispatcher::new(&over_fleet, |prompt| (profile_us, below.complete(prompt)));
        for (call, prompt) in calls().enumerate() {
            let got = observe_dispatcher(&dispatcher, dispatcher.complete(prompt));
            let want = (want.complete(prompt), want.clock_us, want.counters.to_vec());
            assert_eq!(
                got, want,
                "dispatcher over fleet, plan seed {plan_seed}, call {call}"
            );
        }
        drop(want);
        let attempts: Vec<u64> = router
            .stats()
            .endpoints
            .iter()
            .map(|e| e.attempts)
            .collect();
        assert_eq!(
            (router.clock().now_micros(), attempts),
            (below.clock_us, below.attempts),
            "fleet under the dispatcher, plan seed {plan_seed}"
        );
    }
    assert!(
        retried > 500,
        "the moderate plan must force retries: {retried}"
    );
    assert!(hedges > 0, "the slow attempts must draw hedges");
}
