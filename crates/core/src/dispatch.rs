//! The event-driven dispatcher: a hand-rolled reactor over a
//! [`VirtualClock`] that overlaps hundreds of in-flight requests in
//! virtual time — no async runtime, fully deterministic offline.
//!
//! # Why a reactor
//!
//! The blocking [`crate::route::RoutedBackend`] parks one worker
//! thread per round-trip, so in-flight concurrency is capped by thread
//! count, and on a [`VirtualClock`] every concurrent sleep *adds* (elapsed
//! virtual time is total latency, never the makespan). The [`Dispatcher`]
//! replaces sleeping with scheduling: each attempt is *sampled*
//! ([`unidm_llm::SimBackend::sample_attempt`] commits a fault-schedule
//! slot without sleeping) and its completion is placed on a [`TimerWheel`] at
//! `now + latency_us`; the reactor advances the clock with
//! [`VirtualClock::advance_to_micros`] to the next pending deadline, so
//! overlapped requests overlap and elapsed time measures the makespan.
//! Every admitted request dispatches at its pacing grant: concurrency is
//! bounded by the rate-limit bucket and the callers, not by a thread count.
//!
//! What it schedules is decided elsewhere: retry backoff, rate-limit grant
//! times, endpoint sampling and fault tallies come from the resilience
//! kernel the blocking attempt loop sleeps on, so the two cannot disagree.
//!
//! A request owns the stack's one copy of its prompt, as a
//! [`StackPrompt`]: the memo's key and the fault injector's per-prompt
//! state share its text, and the injector's first sight and every retry
//! backoff share its one absorption into the stack's dice. Over an
//! endpoint with no injector nothing draws until a retry does, so a
//! request that never backs off never reads its prompt for a draw.
//!
//! # Submit, step, redeem
//!
//! There is no reactor thread and no parking protocol: a caller
//! [`Dispatcher::submit`]s prompts, [`Dispatcher::step`]s the reactor and
//! [`Dispatcher::redeem`]s its tickets. Time moves only inside a step, and
//! a step admits its fresh requests in canonical (prompt-sorted) order, so
//! the whole virtual timeline (dispatch times, hedge decisions, every
//! counter) is a pure function of what was submitted before each step.
//! [`crate::BatchRunner::with_pipeline`] drives a window of runs this way
//! on one thread; [`LanguageModel::complete`] is the one-request case —
//! submit, then step until its own ticket resolves, under the dispatcher's
//! one mutex — so any caller, on any thread, is self-driving.
//!
//! # Hedged requests
//!
//! With a [`HedgePolicy`] configured, every dispatched attempt arms a hedge
//! timer at the observed attempt-latency quantile (the streaming
//! [`crate::backend::LatencySketch`] in [`BackendStats`], integer
//! microseconds only). If the attempt is still running when the timer
//! fires, one duplicate attempt is issued — consuming **no** rate-limit
//! token — and the first response wins: the loser's completion timer is
//! cancelled, its (identical) result is never delivered and never
//! memoized. Hedging is fully accounted by the
//! `hedges_*` counters and bit-for-bit deterministic under the seeded sim.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{
    AttemptSample, Completion, Dice, FaultStats, LanguageModel, LatencyProfile, LlmError,
    StackPrompt, TimerWheel, Usage, VirtualClock,
};
use unidm_text::hash::PromptMap;

use crate::backend::{BackendConfig, BackendStats, RetryPolicy};
use crate::resilience::{backoff_us, tally_fault, Bucket, Endpoint};

/// When to issue a hedged duplicate for a straggling attempt.
///
/// The timer arms at the `quantile_permille`-th quantile of *observed*
/// successful attempt latencies (at least 1 ms), once at least
/// `min_samples` latencies have been recorded; a request is hedged at most
/// once. Pick an arming quantile **above** the workload's tail mass:
/// against a 3% heavy tail, a P99 estimate sits *on* the 2-second
/// stragglers (hedging would arm too late to help), while P90 sits on the
/// fast mode and catches every straggler — see `FaultPlan::heavy_tail`.
///
/// Integer-only fields keep the policy `Eq`/`Hash` and hedging decisions
/// exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HedgePolicy {
    /// The armed latency quantile, in permille (990 = P99).
    pub quantile_permille: u32,
    /// Successful attempts observed before hedging arms at all.
    pub min_samples: u64,
}

/// Lower bound on a hedge delay, in microseconds.
const HEDGE_MIN_DELAY_US: u64 = 1_000;

/// Duplicates a logical request may issue.
const MAX_HEDGES: u32 = 1;

impl HedgePolicy {
    /// Hedge at an arbitrary observed quantile, in permille.
    pub fn at_quantile(quantile_permille: u32) -> Self {
        HedgePolicy {
            quantile_permille: quantile_permille.min(1000),
            min_samples: 32,
        }
    }

    /// Replaces the warm-up sample count (builder-style).
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }
}

/// One attempt copy in flight: its completion timer and what it will
/// deliver when that timer fires.
struct InFlightCopy {
    timer: u64,
    sample: AttemptSample,
    is_hedge: bool,
}

/// One logical request: submitted once, possibly coalescing several
/// tickets, retried and hedged as needed, resolved exactly once.
struct Request {
    /// The stack's copy of the prompt, shared with the request's key in
    /// [`Core::prompts`] and lent to the endpoint and the retry backoff;
    /// absorbed by whichever of them draws first, so a request over a
    /// direct endpoint that never retries never is.
    prompt: StackPrompt,
    submitted_us: u64,
    retries: u32,
    hedged: u32,
    copies: Vec<InFlightCopy>,
    hedge_timer: Option<u64>,
    /// Tickets not yet redeemed; the request is dropped with the last.
    tickets: usize,
    resolved: Option<Result<Arc<Completion>, LlmError>>,
}

/// What the dispatcher holds for a prompt.
enum PromptSlot {
    /// The unresolved request identical prompts attach to (request-level
    /// single-flight).
    Pending(u64),
    /// The memoized success late arrivals are answered from, which keeps
    /// endpoint calls == unique prompts even with no cache above.
    Done(Arc<Completion>),
}

/// What a popped timer means.
enum Event {
    /// Start the request's next logical attempt (pacing grant reached).
    Dispatch(u64),
    /// A copy's completion deadline fired.
    Complete(u64),
    /// The request's hedge timer fired while it was still pending.
    Hedge(u64),
    /// The request's retry backoff elapsed: re-admit it.
    Retry(u64),
}

/// Everything the reactor mutates, under one mutex.
struct Core {
    wheel: TimerWheel<Event>,
    requests: HashMap<u64, Request>,
    /// Every prompt pending or resolved successfully (an error leaves no
    /// entry). Unbounded, like the fault injector's per-prompt state.
    prompts: PromptMap<PromptSlot, Arc<str>>,
    /// Newly submitted request ids, admitted in canonical (prompt-sorted)
    /// order at the next reactor step.
    fresh: Vec<u64>,
    /// Rate-limit bucket; its grant times become `Dispatch` events.
    bucket: Option<Bucket>,
    stats: BackendStats,
    next_id: u64,
}

impl Core {
    fn request(&mut self, id: u64) -> &mut Request {
        self.requests.get_mut(&id).expect("live request")
    }
}

/// The event-driven dispatcher (see the [module docs](self)).
///
/// Exposes [`LanguageModel`], so it slots in exactly where the blocking
/// [`crate::route::RoutedBackend`] does:
///
/// ```text
/// PromptCache → Dispatcher (reactor: pacing, retry, hedge) → SimBackend → MockLlm
///               Request: StackPrompt ─── memo key · backoff draws ──▶ state keyed by its Arc<str>
/// ```
///
/// Built by [`BackendConfig::wrap`] when
/// [`pipelined`](BackendConfig::pipelined) or a [`HedgePolicy`] is set.
pub struct Dispatcher<'a> {
    endpoint: Endpoint<'a>,
    config: BackendConfig,
    clock: Arc<VirtualClock>,
    dice: Dice,
    core: Mutex<Core>,
}

impl std::fmt::Debug for Dispatcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("endpoint", &self.endpoint.model().name())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'a> Dispatcher<'a> {
    /// Builds a dispatcher over `inner` on a fresh [`VirtualClock`]. When
    /// [`BackendConfig::faults`] is set, a [`unidm_llm::SimBackend`] sharing
    /// that clock is interposed and attempts are sampled from its schedule;
    /// otherwise latencies come from the model's [`LatencyProfile`].
    pub fn new(inner: &'a dyn LanguageModel, config: BackendConfig) -> Self {
        let clock = Arc::new(VirtualClock::new());
        Dispatcher {
            endpoint: Endpoint::new(inner, config.faults, clock.clone(), None),
            clock,
            dice: Dice::new(config.seed),
            core: Mutex::new(Core {
                wheel: TimerWheel::new(),
                requests: HashMap::new(),
                prompts: PromptMap::default(),
                fresh: Vec::new(),
                bucket: config.rate.map(|policy| Bucket::new(policy, 0)),
                stats: BackendStats::default(),
                next_id: 0,
            }),
            config,
        }
    }

    /// The virtual clock the reactor advances; its elapsed time is the
    /// makespan of everything dispatched so far.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// A snapshot of the backend counters (including the latency sketches
    /// and hedge counters).
    pub fn stats(&self) -> BackendStats {
        self.lock().stats
    }

    /// Injection counters of the owned fault injector, when
    /// [`BackendConfig::faults`] is set.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.endpoint.fault_stats()
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes one rate-limit token, returning the virtual time at which
    /// the dispatch may start (`now` when a token is available, the future
    /// drip-in time otherwise — the event-driven analogue of sleeping on
    /// the bucket).
    fn pace_grant(&self, core: &mut Core) -> u64 {
        let now = self.clock.now_micros();
        let Some(bucket) = core.bucket.as_mut() else {
            return now;
        };
        let grant = bucket.grant(now);
        core.stats.rate_tokens += 1;
        if grant > now {
            core.stats.throttle_waits += 1;
            core.stats.throttle_wait_us += grant - now;
        }
        grant
    }

    /// Admits `id`: its next logical attempt dispatches at its pacing
    /// grant.
    fn admit(&self, core: &mut Core, id: u64) {
        let grant = self.pace_grant(core);
        core.wheel.schedule(grant, Event::Dispatch(id));
    }

    /// Samples one attempt copy of `id` and schedules its completion.
    fn launch_copy(&self, core: &mut Core, id: u64, is_hedge: bool) {
        core.stats.attempts += 1;
        let sample = self.endpoint.sample(&core.requests[&id].prompt);
        if let Err(err) = &sample.result {
            let s = &mut core.stats;
            tally_fault(err, &mut s.timeouts, &mut s.rate_limited, &mut s.transients);
        }
        let deadline = self.clock.now_micros() + sample.latency_us;
        let timer = core.wheel.schedule(deadline, Event::Complete(id));
        core.request(id).copies.push(InFlightCopy {
            timer,
            sample,
            is_hedge,
        });
    }

    /// A logical attempt's pacing grant arrived: launch the primary copy
    /// and arm the hedge timer when the estimator is warm.
    fn on_dispatch(&self, core: &mut Core, id: u64) {
        self.launch_copy(core, id, false);
        let Some(policy) = self.config.hedge else {
            return;
        };
        let warm = core.stats.attempt_latency.samples() >= policy.min_samples;
        if !warm || core.request(id).hedged >= MAX_HEDGES {
            return;
        }
        let delay = core
            .stats
            .attempt_latency
            .quantile_us(policy.quantile_permille)
            .max(HEDGE_MIN_DELAY_US);
        let seq = core
            .wheel
            .schedule(self.clock.now_micros() + delay, Event::Hedge(id));
        core.request(id).hedge_timer = Some(seq);
    }

    /// The hedge timer fired while the request was still pending: issue a
    /// duplicate (no rate-limit token is taken).
    fn on_hedge(&self, core: &mut Core, id: u64) {
        core.request(id).hedge_timer = None;
        core.stats.hedges_issued += 1;
        core.request(id).hedged += 1;
        self.launch_copy(core, id, true);
    }

    /// A copy's completion deadline fired. Returns how many requests
    /// resolved (0 or 1).
    fn on_complete(&self, core: &mut Core, id: u64, timer: u64) -> usize {
        let mut req = core
            .requests
            .remove(&id)
            .expect("completing request exists");
        let idx = req
            .copies
            .iter()
            .position(|c| c.timer == timer)
            .expect("completion timer matches a copy");
        let copy = req.copies.swap_remove(idx);

        let resolutions = match copy.sample.result {
            Ok(completion) => {
                // First response wins: cancel the losing copies — their
                // results are never delivered and never memoized.
                if copy.is_hedge {
                    core.stats.hedges_won += 1;
                }
                for loser in req.copies.drain(..) {
                    core.wheel.cancel(loser.timer);
                    core.stats.hedges_cancelled += 1;
                }
                self.cancel_hedge_timer(core, &mut req);
                core.stats.attempt_latency.record(copy.sample.latency_us);
                core.stats
                    .request_latency
                    .record(self.clock.now_micros() - req.submitted_us);
                *core
                    .prompts
                    .get_mut(&*req.prompt)
                    .expect("pending prompt has a slot") = PromptSlot::Done(completion.clone());
                req.resolved = Some(Ok(completion));
                1
            }
            Err(_) if !req.copies.is_empty() => {
                // Another copy of the same attempt wave is still racing;
                // drop this one quietly and let the race finish.
                0
            }
            Err(err) if err.is_transient() && req.retries < RetryPolicy::default().max_retries => {
                req.retries += 1;
                core.stats.retries += 1;
                self.cancel_hedge_timer(core, &mut req);
                let draws = req.prompt.draws(&self.dice);
                let backoff = backoff_us(RetryPolicy::default(), &draws, req.retries, &err);
                core.wheel
                    .schedule(self.clock.now_micros() + backoff, Event::Retry(id));
                0
            }
            Err(err) => {
                // Permanent, or out of retries: resolve with the error.
                // Errors are never memoized — a later identical call gets
                // a fresh request.
                self.cancel_hedge_timer(core, &mut req);
                core.stats.failures += 1;
                core.prompts.remove(&*req.prompt);
                req.resolved = Some(Err(err));
                1
            }
        };
        core.requests.insert(id, req);
        resolutions
    }

    fn cancel_hedge_timer(&self, core: &mut Core, req: &mut Request) {
        if let Some(seq) = req.hedge_timer.take() {
            core.wheel.cancel(seq);
        }
    }

    fn drive(&self, core: &mut Core) {
        if !core.fresh.is_empty() {
            let mut fresh = std::mem::take(&mut core.fresh);
            fresh.sort_unstable_by(|a, b| core.requests[a].prompt.cmp(&*core.requests[b].prompt));
            for id in fresh {
                self.admit(core, id);
            }
        }
        let mut resolutions = 0usize;
        while resolutions == 0 {
            // Every unresolved request owns a pending event, so an empty
            // wheel means nothing is in flight.
            let Some(deadline) = core.wheel.next_deadline() else {
                return;
            };
            self.clock.advance_to_micros(deadline);
            while core.wheel.next_deadline() == Some(deadline) {
                let (_, seq, event) = core.wheel.pop_next().expect("peeked deadline pops");
                match event {
                    Event::Dispatch(id) => self.on_dispatch(core, id),
                    Event::Retry(id) => self.admit(core, id),
                    Event::Hedge(id) => self.on_hedge(core, id),
                    Event::Complete(id) => resolutions += self.on_complete(core, id, seq),
                }
            }
        }
    }

    /// Submits `prompt`: the memoized completion of an identical prompt,
    /// or a ticket on the pending request an identical prompt opened
    /// (request-level single-flight) or on a fresh one the next
    /// [`Dispatcher::step`] admits.
    pub fn submit(&self, prompt: &str) -> Reply {
        self.submit_in(&mut self.lock(), prompt)
    }

    /// One reactor run: admits every fresh request in canonical order, then
    /// advances virtual time until at least one request resolves (at once
    /// when nothing is in flight).
    pub fn step(&self) {
        self.drive(&mut self.lock());
    }

    /// The result of `ticket`'s request once a [`Dispatcher::step`] has
    /// resolved it, or the ticket back while it is pending.
    pub fn redeem(&self, ticket: Ticket) -> Reply {
        self.redeem_in(&mut self.lock(), ticket)
    }

    fn submit_in(&self, core: &mut Core, prompt: &str) -> Reply {
        core.stats.calls += 1;
        let id = match core.prompts.get(prompt) {
            Some(PromptSlot::Done(hit)) => {
                let hit = hit.clone();
                core.stats.dispatch_coalesced += 1;
                return Reply::Ready(Ok(hit));
            }
            Some(&PromptSlot::Pending(id)) => {
                core.stats.dispatch_coalesced += 1;
                id
            }
            None => {
                let id = core.next_id;
                core.next_id += 1;
                // The stack's one copy of the prompt: the request, its
                // slot's key and the injector's state share it.
                let prompt = StackPrompt::new(prompt, self.dice);
                core.prompts
                    .insert(prompt.text().clone(), PromptSlot::Pending(id));
                core.requests.insert(
                    id,
                    Request {
                        prompt,
                        submitted_us: self.clock.now_micros(),
                        retries: 0,
                        hedged: 0,
                        copies: Vec::new(),
                        hedge_timer: None,
                        tickets: 0,
                        resolved: None,
                    },
                );
                core.fresh.push(id);
                id
            }
        };
        core.request(id).tickets += 1;
        Reply::Pending(Ticket(id))
    }

    fn redeem_in(&self, core: &mut Core, ticket: Ticket) -> Reply {
        let req = core.request(ticket.0);
        let Some(result) = req.resolved.clone() else {
            return Reply::Pending(ticket);
        };
        req.tickets -= 1;
        if req.tickets == 0 {
            core.requests.remove(&ticket.0);
        }
        Reply::Ready(result)
    }
}

/// A submitted prompt's claim on its request's result (see
/// [`Dispatcher::submit`]); [`Dispatcher::redeem`] consumes it once the
/// request resolves.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a ticket's result is only delivered by redeeming it"]
pub struct Ticket(u64);

/// What [`Dispatcher::submit`] and [`Dispatcher::redeem`] return.
#[derive(Debug)]
pub enum Reply {
    /// The result: a memoized completion, or the resolved request's.
    Ready(Result<Arc<Completion>, LlmError>),
    /// Not resolved yet: [`Dispatcher::step`], then redeem the ticket.
    Pending(Ticket),
}

impl LanguageModel for Dispatcher<'_> {
    fn name(&self) -> &str {
        self.endpoint.model().name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let mut core = self.lock();
        let mut reply = self.submit_in(&mut core, prompt);
        loop {
            match reply {
                Reply::Ready(result) => return result,
                Reply::Pending(ticket) => {
                    self.drive(&mut core);
                    reply = self.redeem_in(&mut core, ticket);
                }
            }
        }
    }

    fn usage(&self) -> Usage {
        self.endpoint.model().usage()
    }

    fn reset_usage(&self) {
        self.endpoint.model().reset_usage();
    }

    fn context_window(&self) -> usize {
        self.endpoint.model().context_window()
    }

    fn latency_profile(&self) -> LatencyProfile {
        self.endpoint.model().latency_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use unidm_llm::{FaultPlan, LlmProfile, MockLlm};
    use unidm_world::World;

    fn model() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
    }

    fn pipelined(seed: u64) -> BackendConfig {
        BackendConfig::resilient(seed)
            .without_breaker()
            .with_pipelined()
    }

    #[test]
    fn self_driving_serial_calls_resolve_and_overlap_nothing() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(1).with_faults(FaultPlan::none(1)));
        let direct = llm.complete("The capital of Denmark is __.").unwrap();
        let reply = dispatcher
            .complete("The capital of Denmark is __.")
            .unwrap();
        assert_eq!(reply, direct);
        // Serial requests cannot overlap: elapsed == the one base latency.
        assert_eq!(dispatcher.clock().now_micros(), 50_000);
        let stats = dispatcher.stats();
        assert_eq!((stats.calls, stats.attempts, stats.failures), (1, 1, 0));
    }

    /// Runs `lanes` sequences of `per_lane` prompts on the calling thread:
    /// every lane's first prompt is submitted before the first step, and a
    /// lane submits its next prompt the moment its previous one resolves —
    /// so every first submission lands in the same reactor step.
    fn fan_out(
        dispatcher: &Dispatcher<'_>,
        lanes: usize,
        per_lane: usize,
        prompt: impl Fn(usize, usize) -> String,
    ) {
        let mut sent = vec![0; lanes];
        let mut pending: Vec<Option<Ticket>> = (0..lanes).map(|_| None).collect();
        loop {
            for (lane, slot) in pending.iter_mut().enumerate() {
                while slot.is_none() && sent[lane] < per_lane {
                    match dispatcher.submit(&prompt(lane, sent[lane])) {
                        Reply::Ready(result) => drop(result.unwrap()),
                        Reply::Pending(ticket) => *slot = Some(ticket),
                    }
                    sent[lane] += 1;
                }
            }
            if pending.iter().all(Option::is_none) {
                return;
            }
            dispatcher.step();
            for slot in &mut pending {
                if let Some(ticket) = slot.take() {
                    match dispatcher.redeem(ticket) {
                        Reply::Ready(result) => drop(result.unwrap()),
                        Reply::Pending(ticket) => *slot = Some(ticket),
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_requests_share_virtual_time() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(2).with_faults(FaultPlan::none(2)));
        fan_out(&dispatcher, 16, 1, |i, _| format!("overlapped prompt {i}"));
        // 16 concurrent 50ms attempts: the blocking stack would charge
        // 800ms of virtual time; the reactor overlaps them into one wave.
        assert_eq!(dispatcher.clock().now_micros(), 50_000);
        assert_eq!(dispatcher.stats().attempts, 16);
    }

    #[test]
    fn identical_pending_prompts_coalesce_and_memoize() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(3).with_faults(FaultPlan::none(3)));
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| match dispatcher.submit("the one shared prompt") {
                Reply::Pending(ticket) => ticket,
                Reply::Ready(_) => panic!("nothing has resolved yet"),
            })
            .collect();
        dispatcher.step();
        for ticket in tickets {
            assert!(matches!(dispatcher.redeem(ticket), Reply::Ready(Ok(_))));
        }
        // A late arrival after resolution hits the memo.
        dispatcher.complete("the one shared prompt").unwrap();
        let stats = dispatcher.stats();
        assert_eq!(stats.calls, 9);
        assert_eq!(stats.attempts, 1, "one endpoint attempt for nine calls");
        assert_eq!(stats.dispatch_coalesced, 8);
        assert_eq!(dispatcher.fault_stats().unwrap().attempts, 1);
    }

    #[test]
    fn pacing_grants_are_virtual_not_blocking() {
        let llm = model();
        let dispatcher = Dispatcher::new(
            &llm,
            pipelined(5)
                .with_faults(FaultPlan::none(5))
                .with_rate_limit(10, 1),
        );
        fan_out(&dispatcher, 20, 1, |i, _| format!("paced prompt {i}"));
        let stats = dispatcher.stats();
        assert_eq!(stats.rate_tokens, 20, "one token per logical attempt");
        assert_eq!(stats.throttle_waits, 19, "everything after the burst waits");
        assert!(
            dispatcher.clock().now_micros() >= 1_900_000,
            "virtual time must cover the token deficit: {}us",
            dispatcher.clock().now_micros()
        );
    }

    #[test]
    fn faulty_attempts_retry_to_the_same_answer() {
        let llm = model();
        let truth = llm.complete("The capital of Denmark is __.").unwrap();
        let dispatcher = Dispatcher::new(&llm, pipelined(9).with_faults(FaultPlan::heavy(9)));
        let reply = dispatcher
            .complete("The capital of Denmark is __.")
            .unwrap();
        assert_eq!(reply, truth);
        let stats = dispatcher.stats();
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.retries, stats.attempts - stats.calls);
    }

    #[test]
    fn permanent_errors_resolve_without_retry_or_memo() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(1).with_faults(FaultPlan::none(1)));
        assert_eq!(dispatcher.complete("  "), Err(LlmError::EmptyPrompt));
        assert_eq!(dispatcher.complete("  "), Err(LlmError::EmptyPrompt));
        let stats = dispatcher.stats();
        assert_eq!(stats.failures, 2, "errors are not memoized");
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn hedging_cuts_the_tail_and_accounts_exactly() {
        let llm = model();
        let config = pipelined(11)
            .with_faults(FaultPlan::heavy_tail(11))
            .with_hedge(HedgePolicy::at_quantile(900).with_min_samples(16));
        // 10 lanes × 30 sequential prompts: submissions trickle in
        // waves, so the latency estimator warms up and later stragglers
        // get hedged.
        let run = || {
            let dispatcher = Dispatcher::new(&llm, config);
            fan_out(&dispatcher, 10, 30, |t, i| format!("tail prompt {t}-{i}"));
            (dispatcher.stats(), dispatcher.fault_stats().unwrap())
        };
        let (stats, faults) = run();
        assert!(stats.hedges_issued > 0, "the 3% tail must trigger hedges");
        assert_eq!(stats.hedges_cancelled, stats.hedges_issued);
        assert_eq!(
            faults.attempts,
            300 + stats.hedges_issued,
            "every endpoint attempt is a unique prompt or an accounted hedge"
        );
        assert_eq!(stats.rate_tokens, 0, "no rate limit configured");
        // Hedged stragglers resolve at ~(hedge delay + base), far below 2s.
        assert!(
            stats.request_latency.quantile_us(990) < 500_000,
            "hedging must cut the observed P99: {:?}",
            stats.request_latency
        );
        // The whole timeline is deterministic: repeat and compare counters.
        let (stats2, faults2) = run();
        assert_eq!(stats, stats2);
        assert_eq!(faults, faults2);
    }

    #[test]
    fn direct_endpoint_derives_latency_from_the_profile() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(1));
        let reply = dispatcher
            .complete("The capital of Denmark is __.")
            .unwrap();
        let expected = llm.latency_profile().latency_us(reply.usage);
        assert_eq!(dispatcher.clock().now_micros(), expected);
        assert!(dispatcher.fault_stats().is_none());
    }

    #[test]
    fn concurrent_callers_each_drive_their_own_calls() {
        let llm = model();
        let dispatcher = Dispatcher::new(&llm, pipelined(6).with_faults(FaultPlan::light(6)));
        // Plain threads: each call steps the reactor until it resolves.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let d = &dispatcher;
                scope.spawn(move || {
                    for i in 0..10 {
                        d.complete(&format!("transient {t}-{i}")).unwrap();
                    }
                });
            }
        });
        let stats = dispatcher.stats();
        assert_eq!(stats.calls, 40);
        assert_eq!(stats.failures, 0);
    }
}
