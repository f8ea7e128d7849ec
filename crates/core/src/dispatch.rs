//! The reactor: the one attempt loop under every serving stack, as
//! [`RoutedBackend`].
//!
//! A [`RoutedBackend`] holds N replica endpoints (one for
//! [`RoutedBackend::single`]) and runs every attempt on them as events on
//! a [`TimerWheel`] over its [`VirtualClock`]: no thread, no async
//! runtime, no sleep. An attempt is *sampled* (an injector commits its
//! fault-schedule slot; a bare model's latency comes from its
//! [`LatencyProfile`]) and completes at `now + latency_us`; the clock
//! jumps from deadline to deadline, so overlapped requests overlap and
//! elapsed time is the makespan.
//!
//! ```text
//! PromptCache                    (hits stop here: zero rate-limit budget)
//!   └─ RoutedBackend             (the reactor: one mutex, one timer wheel)
//!        ├─ admit                (routing draw over admitting breakers, then
//!        │                        the replica's bucket grant: a time, not a wait)
//!        ├─ dispatch → complete  (the sampled attempt, done at now + latency)
//!        ├─ retry                (kernel backoff with seeded jitter, re-admit)
//!        ├─ hedge                (a straggler's copy, on another replica if any)
//!        └─ replica 0..N         (breaker · AIMD bucket · SimBackend → model)
//! ```
//!
//! A caller [`RoutedBackend::submit`]s prompts, [`RoutedBackend::step`]s
//! the reactor and [`RoutedBackend::redeem`]s its tickets. Time moves only
//! inside a step, and a step admits its fresh requests in canonical
//! (prompt-sorted) order, so the virtual timeline (dispatch times, hedge
//! decisions, every counter) is a pure function of what was submitted
//! before each step. [`crate::BatchRunner::with_pipeline`] drives a window
//! of runs this way on one thread. [`LanguageModel::complete`] is the
//! one-request case: submit, then step until its own ticket resolves,
//! under the reactor's one mutex, so concurrent blocking callers take
//! turns, the inner model's work included.
//!
//! Rules, each stated once:
//! - **Memo.** With [`BackendConfig::pipelined`] or a hedge, a prompt
//!   identical to a pending request attaches to it, and one identical to a
//!   resolved success is answered from the memo. Otherwise every call
//!   reaches an endpoint.
//! - **Breaker.** A configured breaker acts under every stack. A request
//!   that finds every breaker open waits out the shortest cooldown and
//!   routes again; the wait is not charged against its retries.
//! - **Hedges.** With a [`HedgePolicy`], a dispatched attempt arms a timer
//!   at its replica's observed latency quantile; if it fires first, one
//!   copy goes to another admitting replica (the same one without a
//!   fleet) and takes **no** rate token. The first response wins; the
//!   loser is cancelled, never delivered and never memoized.
//! - **Fault keys.** The single stack's endpoint is untagged, so its fault
//!   slots keep the `(seed, prompt, attempt)` keying.
//! - **Latency.** A bare endpoint's attempt costs its model's
//!   [`LatencyProfile`] in virtual time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{
    AttemptSample, Completion, Dice, FaultStats, LanguageModel, LatencyProfile, LlmError,
    StackPrompt, TimerWheel, Usage, VirtualClock,
};
use unidm_text::hash::PromptMap;

use crate::backend::{BackendConfig, BackendStats, RetryPolicy};
use crate::resilience::{backoff_us, Endpoint};
use crate::route::{select, EndpointConfig, Replica, RoutePlan, RouterStats};

/// When to issue a hedged duplicate for a straggling attempt: at the
/// `quantile_permille`-th quantile of the replica's *observed* successful
/// attempt latencies (at least 1 ms), once `min_samples` are recorded; a
/// request is hedged at most once. Pick an arming quantile **above** the
/// workload's tail mass: against a 3% heavy tail a P99 estimate sits *on*
/// the 2-second stragglers, while P90 sits on the fast mode and catches
/// every one (see `FaultPlan::heavy_tail`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HedgePolicy {
    /// The armed latency quantile, in permille (990 = P99).
    pub quantile_permille: u32,
    /// Successful attempts observed before hedging arms at all.
    pub min_samples: u64,
}

/// Lower bound on a hedge delay, in microseconds.
const HEDGE_MIN_DELAY_US: u64 = 1_000;

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

/// One logical request: submitted once, possibly coalescing several
/// tickets, retried and hedged as needed, resolved exactly once.
struct Request {
    /// The stack's copy of the prompt: a clone of the prompt table's, or
    /// the request's own when the stack keeps no table.
    prompt: StackPrompt,
    submitted_us: u64,
    /// Retries so far; the index every routing and backoff draw is keyed on.
    retries: u32,
    /// Retries charged against [`RetryPolicy::max_retries`]: those after a
    /// failed attempt, not the waits on an open circuit.
    charged: u32,
    /// Whether the request has had its one hedge.
    hedged: bool,
    /// The replica the current attempt's primary copy runs on.
    replica: usize,
    /// Completion timers of the copies in flight: the primary and at most
    /// one hedge, inline so a request allocates nothing.
    copies: [Option<u64>; 2],
    hedge_timer: Option<u64>,
    /// Tickets not yet redeemed; the request is dropped with the last.
    tickets: usize,
    resolved: Option<Result<Arc<Completion>, LlmError>>,
}

/// What the prompt table holds for a prompt.
struct Slot {
    /// The stack's one copy of the prompt, with the stack's dice absorbed.
    prompt: StackPrompt,
    state: SlotState,
}

/// No request open (or no memo), the pending request identical prompts
/// attach to, or the memoized success.
enum SlotState {
    Idle,
    Pending(usize),
    Done(Arc<Completion>),
}

/// An attempt copy in flight: what it delivers when its timer fires.
struct InFlight {
    id: usize,
    replica: usize,
    is_hedge: bool,
    sample: AttemptSample,
}

/// What a popped timer means: a retry's backoff elapsed (fresh requests
/// are admitted by the step itself), a pacing grant was reached, a copy's
/// latency elapsed, or a straggler's hedge timer fired.
enum Event {
    Admit(usize),
    Dispatch(usize),
    Complete(InFlight),
    Hedge(usize),
}

/// Everything the reactor mutates, under one mutex.
struct Core {
    /// Per-replica state, indexed like [`RoutedBackend`]'s endpoints.
    replicas: Vec<Replica>,
    wheel: TimerWheel<Event>,
    /// Requests by id: an id is a slot, reused once its request is
    /// redeemed, so requests come and go without allocating.
    requests: Vec<Option<Request>>,
    /// Ids whose request was redeemed.
    free: Vec<usize>,
    /// The prompt table: present when a replica injects faults or the
    /// stack memoizes. Unbounded, like the injectors' per-prompt state.
    prompts: Option<PromptMap<Slot, Arc<str>>>,
    /// Newly submitted request ids, admitted in canonical (prompt-sorted)
    /// order at the next reactor step.
    fresh: Vec<usize>,
    /// The router's scalar counters (`endpoints` stays empty: each
    /// replica keeps its own).
    scalars: RouterStats,
}

/// The reactor over N replica endpoints, implementing [`LanguageModel`]
/// (see the [module docs](self), and [`crate::route`] for the fleet).
/// Build it one endpoint at a time with [`RoutedBackend::endpoint`], or
/// from a [`BackendConfig`] with [`RoutedBackend::from_plan`] (a
/// [`RoutePlan`] fleet) or [`RoutedBackend::single`].
pub struct RoutedBackend<'a> {
    name: String,
    endpoints: Vec<Endpoint<'a>>,
    dice: Dice,
    clock: Arc<VirtualClock>,
    hedge: Option<HedgePolicy>,
    /// Whether identical prompts coalesce and resolved ones are memoized.
    memo: bool,
    core: Mutex<Core>,
}

impl std::fmt::Debug for RoutedBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("RoutedBackend")
            .field("name", &self.name)
            .field("stats", &stats)
            .finish()
    }
}

impl<'a> RoutedBackend<'a> {
    /// An empty router on a fresh [`VirtualClock`]; add endpoints with
    /// [`RoutedBackend::endpoint`]. `seed` drives routing draws and
    /// backoff jitter. It neither hedges nor memoizes.
    pub fn new(seed: u64) -> Self {
        RoutedBackend {
            name: "routed[]".to_string(),
            dice: Dice::new(seed),
            clock: Arc::new(VirtualClock::new()),
            endpoints: Vec::new(),
            hedge: None,
            memo: false,
            // Room for one blocking call's request and events.
            core: Mutex::new(Core {
                replicas: Vec::new(),
                wheel: TimerWheel::with_capacity(4),
                requests: Vec::with_capacity(1),
                free: Vec::with_capacity(1),
                prompts: None,
                fresh: Vec::with_capacity(1),
                scalars: RouterStats::default(),
            }),
        }
    }

    /// Adds an endpoint (builder-style). The endpoint id is its index in
    /// insertion order; a [`unidm_llm::FaultPlan`] in `config` becomes an
    /// owned [`unidm_llm::SimBackend`] tagged with that id, so replicas
    /// sharing a plan draw independent fault schedules.
    pub fn endpoint(mut self, model: &'a dyn LanguageModel, config: EndpointConfig) -> Self {
        let id = self.endpoints.len() as u64;
        self.push(model, config, Some(id));
        let names: Vec<&str> = self.endpoints.iter().map(|e| e.model().name()).collect();
        self.name = match names.split_first() {
            Some((first, rest)) if rest.iter().all(|n| n == first) => {
                format!("routed[{first}x{}]", names.len())
            }
            _ => format!("routed[{}]", names.join("+")),
        };
        self
    }

    fn push(&mut self, model: &'a dyn LanguageModel, config: EndpointConfig, tag: Option<u64>) {
        let now = self.clock.now_micros();
        let core = self.core.get_mut().unwrap_or_else(PoisonError::into_inner);
        if config.faults.is_some() {
            core.prompts.get_or_insert_with(PromptMap::default);
        }
        core.replicas.push(Replica::new(model, config, now));
        let endpoint = Endpoint::new(model, config.faults, self.clock.clone(), tag);
        self.endpoints.push(endpoint);
    }

    /// Takes `config`'s hedge policy, and memoizes when it is pipelined or
    /// hedged.
    fn serving(mut self, config: BackendConfig) -> Self {
        self.hedge = config.hedge;
        self.memo = config.pipelined || config.hedge.is_some();
        if self.memo {
            let core = self.core.get_mut().unwrap_or_else(PoisonError::into_inner);
            core.prompts.get_or_insert_with(PromptMap::default);
        }
        self
    }

    /// Builds a replica fleet over one shared `inner` model from
    /// `config.route` (identity plan when unset), on `config`'s seed: each
    /// replica gets `config.breaker`, the plan's AIMD policy or else
    /// `config`'s rate limit, and an endpoint-aware copy of
    /// `config.faults`. `config`'s hedge and memo rules apply.
    pub fn from_plan(inner: &'a dyn LanguageModel, config: BackendConfig) -> Self {
        let plan = config.route.unwrap_or_else(|| RoutePlan::replicas(1));
        let mut router = RoutedBackend::new(config.seed).serving(config);
        for _ in 0..plan.replicas.max(1) {
            let endpoint = EndpointConfig {
                faults: config.faults,
                breaker: config.breaker,
                aimd: plan.aimd.or(config.rate),
            };
            router = router.endpoint(inner, endpoint);
        }
        router
    }

    /// The protection stack over one endpoint, on a fresh [`VirtualClock`]
    /// and `config`'s seed: one *untagged* endpoint (fault-slot keys carry
    /// no endpoint id) named after `inner`, with `config`'s breaker and
    /// rate-limit bucket. `config`'s hedge and memo rules apply.
    pub fn single(inner: &'a dyn LanguageModel, config: BackendConfig) -> Self {
        let mut router = RoutedBackend::new(config.seed).serving(config);
        let endpoint = EndpointConfig {
            faults: config.faults,
            breaker: config.breaker,
            aimd: config.rate,
        };
        router.push(inner, endpoint, None);
        router.name = inner.name().to_string();
        router
    }

    /// The clock every routing decision and event runs on; its elapsed
    /// time is the makespan of everything dispatched so far.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// A snapshot of the router counters, per-endpoint stats included.
    pub fn stats(&self) -> RouterStats {
        let core = self.lock();
        let mut stats = core.scalars.clone();
        stats.endpoints = core.replicas.iter().map(|r| r.stats).collect();
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
            .filter_map(Endpoint::fault_stats)
            .reduce(|mut merged, stats| {
                merged.merge(&stats);
                merged
            })
    }

    /// The current AIMD rate of endpoint `index`, attempts per second
    /// (`None` when the endpoint has no bucket or does not exist).
    pub fn current_rate_per_sec(&self, index: usize) -> Option<u64> {
        let core = self.lock();
        Some(core.replicas.get(index)?.bucket.as_ref()?.rate_per_sec())
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submits `prompt`: the memoized completion of an identical prompt,
    /// or a ticket on the pending request an identical prompt opened, or on
    /// a fresh one the next [`RoutedBackend::step`] admits.
    pub fn submit(&self, prompt: &str) -> Reply {
        self.submit_in(&mut self.lock(), prompt)
    }

    /// One reactor run: admits every fresh request in canonical order, then
    /// advances virtual time until at least one request resolves (at once
    /// when nothing is in flight).
    pub fn step(&self) {
        self.drive(&mut self.lock());
    }

    /// The result of `ticket`'s request once a [`RoutedBackend::step`] has
    /// resolved it, or the ticket back while it is pending.
    pub fn redeem(&self, ticket: Ticket) -> Reply {
        self.redeem_in(&mut self.lock(), ticket)
    }

    /// Opens (or, memoizing, finds) the request for `prompt`.
    fn submit_in(&self, core: &mut Core, prompt: &str) -> Reply {
        assert!(
            !self.endpoints.is_empty(),
            "RoutedBackend requires at least one endpoint"
        );
        core.scalars.calls += 1;
        // The id the request opened below takes.
        let id = core.free.last().copied().unwrap_or(core.requests.len());
        let held = match &mut core.prompts {
            None => StackPrompt::new(prompt, self.dice),
            Some(table) => {
                let slot = match table.get_mut(prompt) {
                    Some(slot) => slot,
                    None => {
                        // The stack's one copy, absorbed before it is filed
                        // so every clone carries the draws.
                        let fresh = StackPrompt::new(prompt, self.dice);
                        fresh.draws(&self.dice);
                        table.entry(fresh.text().clone()).or_insert(Slot {
                            prompt: fresh,
                            state: SlotState::Idle,
                        })
                    }
                };
                if self.memo {
                    match &slot.state {
                        SlotState::Done(hit) => {
                            let hit = hit.clone();
                            core.scalars.dispatch_coalesced += 1;
                            return Reply::Ready(Ok(hit));
                        }
                        &SlotState::Pending(pending) => {
                            core.scalars.dispatch_coalesced += 1;
                            live(&mut core.requests, pending).tickets += 1;
                            return Reply::Pending(Ticket(pending));
                        }
                        SlotState::Idle => slot.state = SlotState::Pending(id),
                    }
                }
                slot.prompt.clone()
            }
        };
        let request = Request {
            prompt: held,
            submitted_us: self.clock.now_micros(),
            retries: 0,
            charged: 0,
            hedged: false,
            replica: 0,
            copies: [None; 2],
            hedge_timer: None,
            tickets: 1,
            resolved: None,
        };
        match core.free.pop() {
            Some(free) => core.requests[free] = Some(request),
            None => core.requests.push(Some(request)),
        }
        core.fresh.push(id);
        Reply::Pending(Ticket(id))
    }

    fn redeem_in(&self, core: &mut Core, ticket: Ticket) -> Reply {
        let req = live(&mut core.requests, ticket.0);
        if req.resolved.is_none() {
            return Reply::Pending(ticket);
        }
        req.tickets -= 1;
        if req.tickets > 0 {
            return Reply::Ready(req.resolved.clone().expect("a resolved request"));
        }
        let req = core.requests[ticket.0].take().expect("live request");
        core.free.push(ticket.0);
        Reply::Ready(req.resolved.expect("a resolved request"))
    }

    /// Admits fresh requests, then pops events until one request resolves
    /// or nothing is in flight.
    fn drive(&self, core: &mut Core) {
        let mut resolutions = 0;
        if !core.fresh.is_empty() {
            let mut fresh = std::mem::take(&mut core.fresh);
            let requests = &core.requests;
            let text = |id: &usize| &*requests[*id].as_ref().expect("live request").prompt;
            fresh.sort_unstable_by(|a, b| text(a).cmp(text(b)).then(a.cmp(b)));
            let alone = fresh.len() == 1;
            for id in fresh.drain(..) {
                resolutions += self.admit(core, id, alone);
            }
            core.fresh = fresh;
        }
        while resolutions == 0 {
            // Every unresolved request owns a pending event, so an empty
            // wheel means nothing is in flight.
            let Some(deadline) = core.wheel.next_deadline() else {
                return;
            };
            self.clock.advance_to_micros(deadline);
            while core.wheel.next_deadline() == Some(deadline) {
                let (_, timer, event) = core.wheel.pop_next().expect("peeked deadline pops");
                resolutions += match event {
                    Event::Admit(id) => self.admit(core, id, true),
                    Event::Dispatch(id) => self.on_dispatch(core, id),
                    Event::Hedge(id) => self.on_hedge(core, id),
                    Event::Complete(copy) => self.on_complete(core, copy, timer),
                };
            }
        }
    }

    /// Routes `id`'s next attempt and schedules its dispatch at the chosen
    /// replica's pacing grant; with every breaker open, the attempt fails
    /// as [`LlmError::CircuitOpen`]. A request `alone` in its step, granted
    /// now with nothing else pending, dispatches at once: the event would
    /// pop next anyway. Returns how many requests resolved.
    fn admit(&self, core: &mut Core, id: usize, alone: bool) -> usize {
        let now = self.clock.now_micros();
        let req = live(&mut core.requests, id);
        let retry = req.retries;
        let draws = || req.prompt.draws(&self.dice);
        match select(&mut core.replicas, now, draws, "route", retry, None) {
            Ok(replica) => {
                req.replica = replica;
                let grant = core.replicas[replica].pace(now);
                if grant == now && alone && core.wheel.is_empty() {
                    return self.on_dispatch(core, id);
                }
                core.wheel.schedule(grant, Event::Dispatch(id));
                0
            }
            Err(cooldown_us) => {
                core.scalars.all_open += 1;
                self.fail(core, id, LlmError::CircuitOpen { cooldown_us })
            }
        }
    }

    /// The pacing grant arrived: launch the primary copy and arm the hedge
    /// timer when the replica's estimator is warm.
    fn on_dispatch(&self, core: &mut Core, id: usize) -> usize {
        let replica = live(&mut core.requests, id).replica;
        self.launch(core, id, replica, false);
        let Some(policy) = self.hedge else {
            return 0;
        };
        let sketch = &core.replicas[replica].stats.latency;
        let req = live(&mut core.requests, id);
        if sketch.samples() < policy.min_samples || req.hedged {
            return 0;
        }
        let delay = sketch
            .quantile_us(policy.quantile_permille)
            .max(HEDGE_MIN_DELAY_US);
        let deadline = self.clock.now_micros() + delay;
        req.hedge_timer = Some(core.wheel.schedule(deadline, Event::Hedge(id)));
        0
    }

    /// The hedge timer fired while the request was still pending: issue a
    /// copy on another admitting replica, or on the primary's when there
    /// is none (no rate-limit token is taken).
    fn on_hedge(&self, core: &mut Core, id: usize) -> usize {
        let now = self.clock.now_micros();
        let req = live(&mut core.requests, id);
        req.hedge_timer = None;
        req.hedged = true;
        core.scalars.hedges_issued += 1;
        let (primary, retry) = (req.replica, req.retries);
        let draws = || req.prompt.draws(&self.dice);
        let pick = select(
            &mut core.replicas,
            now,
            draws,
            "hedge",
            retry,
            Some(primary),
        );
        self.launch(core, id, pick.unwrap_or(primary), true);
        0
    }

    /// Samples one attempt copy of `id` on `replica` and schedules its
    /// completion.
    fn launch(&self, core: &mut Core, id: usize, replica: usize, is_hedge: bool) {
        let req = live(&mut core.requests, id);
        let r = &mut core.replicas[replica];
        r.stats.attempts += 1;
        r.stats.calls += u64::from(!is_hedge && req.retries == 0);
        let endpoint = &self.endpoints[replica];
        let sample = endpoint.sample(&req.prompt);
        match &sample.result {
            Err(LlmError::Timeout { .. }) => r.stats.timeouts += 1,
            Err(LlmError::RateLimited { .. }) => r.stats.rate_limited += 1,
            Err(LlmError::Transient { .. }) => r.stats.transients += 1,
            _ => {}
        }
        let deadline = self.clock.now_micros() + sample.latency_us;
        let copy = InFlight {
            id,
            replica,
            is_hedge,
            sample,
        };
        let timer = core.wheel.schedule(deadline, Event::Complete(copy));
        let free = req.copies.iter_mut().find(|c| c.is_none());
        *free.expect("a request runs at most two copies") = Some(timer);
    }

    /// A copy's completion deadline fired: feed its replica, then resolve,
    /// wait for the other copy, or retry. Returns how many requests
    /// resolved (0 or 1).
    fn on_complete(&self, core: &mut Core, copy: InFlight, timer: u64) -> usize {
        let now = self.clock.now_micros();
        core.replicas[copy.replica].observe(&copy.sample, now);
        let req = live(&mut core.requests, copy.id);
        let own = req.copies.iter_mut().find(|c| **c == Some(timer));
        *own.expect("completion timer matches a copy") = None;
        match copy.sample.result {
            Ok(completion) => {
                // First response wins: cancel the losing copy — its result
                // is never delivered and never memoized.
                core.scalars.hedges_won += u64::from(copy.is_hedge);
                for loser in req.copies.iter_mut().filter_map(Option::take) {
                    core.wheel.cancel(loser);
                    core.scalars.hedges_cancelled += 1;
                }
                if let Some(timer) = req.hedge_timer.take() {
                    core.wheel.cancel(timer);
                }
                core.scalars.answers += 1;
                core.scalars.request_latency.record(now - req.submitted_us);
                if self.memo {
                    let done = SlotState::Done(completion.clone());
                    file(&mut core.prompts, req, done);
                }
                req.resolved = Some(Ok(completion));
                1
            }
            // The other copy of the same attempt is still racing.
            Err(_) if req.copies.iter().any(Option::is_some) => 0,
            Err(err) => self.fail(core, copy.id, err),
        }
    }

    /// An attempt of `id` failed with `err` and no copy is left racing:
    /// schedule a retry after the kernel backoff, or resolve with the
    /// error when it is permanent or the retries are spent. A wait on an
    /// open circuit always retries and spends nothing: it ends with the
    /// cooldown, and only a failed attempt re-opens a breaker, so a window
    /// of requests queued on one cannot use up its budget. Errors are
    /// never memoized. Returns how many requests resolved.
    fn fail(&self, core: &mut Core, id: usize, err: LlmError) -> usize {
        let policy = RetryPolicy::default();
        let req = live(&mut core.requests, id);
        if let Some(timer) = req.hedge_timer.take() {
            core.wheel.cancel(timer);
        }
        let open = matches!(err, LlmError::CircuitOpen { .. });
        if open || (err.is_transient() && req.charged < policy.max_retries) {
            req.charged += u32::from(!open);
            req.retries += 1;
            core.scalars.retries += 1;
            let draws = req.prompt.draws(&self.dice);
            let backoff = backoff_us(policy, &draws, req.retries, &err);
            core.wheel
                .schedule(self.clock.now_micros() + backoff, Event::Admit(id));
            return 0;
        }
        core.scalars.failures += 1;
        if self.memo {
            file(&mut core.prompts, req, SlotState::Idle);
        }
        req.resolved = Some(Err(err));
        1
    }
}

/// The live request `id`.
fn live(requests: &mut [Option<Request>], id: usize) -> &mut Request {
    requests[id].as_mut().expect("live request")
}

/// Sets a memoizing stack's slot for `req`'s prompt.
fn file(prompts: &mut Option<PromptMap<Slot, Arc<str>>>, req: &Request, state: SlotState) {
    let slot = prompts
        .as_mut()
        .and_then(|table| table.get_mut(&*req.prompt));
    slot.expect("a memoizing stack files its pending prompts")
        .state = state;
}

/// A submitted prompt's claim on its request's result (see
/// [`RoutedBackend::submit`]); [`RoutedBackend::redeem`] consumes it once
/// the request resolves.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a ticket's result is only delivered by redeeming it"]
pub struct Ticket(usize);

/// What [`RoutedBackend::submit`] and [`RoutedBackend::redeem`] return.
#[derive(Debug)]
pub enum Reply {
    /// The result: a memoized completion, or the resolved request's.
    Ready(Result<Arc<Completion>, LlmError>),
    /// Not resolved yet: [`RoutedBackend::step`], then redeem the ticket.
    Pending(Ticket),
}

impl LanguageModel for RoutedBackend<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    /// Submit, then step until this call's own ticket resolves, under the
    /// reactor's one mutex.
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
        let core = self.lock();
        let mut seen: Vec<usize> = Vec::with_capacity(core.replicas.len());
        let mut total = Usage::default();
        for (replica, endpoint) in core.replicas.iter().zip(&self.endpoints) {
            if !seen.contains(&replica.origin) {
                seen.push(replica.origin);
                total.add(endpoint.model().usage());
            }
        }
        total
    }

    fn reset_usage(&self) {
        for endpoint in &self.endpoints {
            endpoint.model().reset_usage();
        }
    }

    fn context_window(&self) -> usize {
        let windows = self.endpoints.iter().map(|e| e.model().context_window());
        windows.min().unwrap_or(usize::MAX)
    }

    fn latency_profile(&self) -> LatencyProfile {
        let first = self.endpoints.first();
        first.map_or_else(LatencyProfile::default, |e| e.model().latency_profile())
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
        let dispatcher = RoutedBackend::single(&llm, pipelined(1).with_faults(FaultPlan::none(1)));
        let direct = llm.complete("The capital of Denmark is __.").unwrap();
        let reply = dispatcher
            .complete("The capital of Denmark is __.")
            .unwrap();
        assert_eq!(reply, direct);
        // Serial requests cannot overlap: elapsed == the one base latency.
        assert_eq!(dispatcher.clock().now_micros(), 50_000);
        let stats = dispatcher.backend_stats();
        assert_eq!((stats.calls, stats.attempts, stats.failures), (1, 1, 0));
    }

    /// Runs `lanes` sequences of `per_lane` prompts on the calling thread:
    /// every lane's first prompt is submitted before the first step, and a
    /// lane submits its next prompt the moment its previous one resolves —
    /// so every first submission lands in the same reactor step.
    fn fan_out(
        dispatcher: &RoutedBackend<'_>,
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
        let dispatcher = RoutedBackend::single(&llm, pipelined(2).with_faults(FaultPlan::none(2)));
        fan_out(&dispatcher, 16, 1, |i, _| format!("overlapped prompt {i}"));
        // 16 concurrent 50ms attempts: one after another they would take
        // 800ms of virtual time; the reactor overlaps them into one wave.
        assert_eq!(dispatcher.clock().now_micros(), 50_000);
        assert_eq!(dispatcher.backend_stats().attempts, 16);
    }

    #[test]
    fn identical_pending_prompts_coalesce_and_memoize() {
        let llm = model();
        let dispatcher = RoutedBackend::single(&llm, pipelined(3).with_faults(FaultPlan::none(3)));
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
        let stats = dispatcher.backend_stats();
        assert_eq!(stats.calls, 9);
        assert_eq!(stats.attempts, 1, "one endpoint attempt for nine calls");
        assert_eq!(stats.dispatch_coalesced, 8);
        assert_eq!(dispatcher.fault_stats().unwrap().attempts, 1);
    }

    #[test]
    fn pacing_grants_are_virtual_not_blocking() {
        let llm = model();
        let dispatcher = RoutedBackend::single(
            &llm,
            pipelined(5)
                .with_faults(FaultPlan::none(5))
                .with_rate_limit(10, 1),
        );
        fan_out(&dispatcher, 20, 1, |i, _| format!("paced prompt {i}"));
        let stats = dispatcher.backend_stats();
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
        let dispatcher = RoutedBackend::single(&llm, pipelined(9).with_faults(FaultPlan::heavy(9)));
        let reply = dispatcher
            .complete("The capital of Denmark is __.")
            .unwrap();
        assert_eq!(reply, truth);
        let stats = dispatcher.backend_stats();
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.retries, stats.attempts - stats.calls);
    }

    #[test]
    fn permanent_errors_resolve_without_retry_or_memo() {
        let llm = model();
        let dispatcher = RoutedBackend::single(&llm, pipelined(1).with_faults(FaultPlan::none(1)));
        assert_eq!(dispatcher.complete("  "), Err(LlmError::EmptyPrompt));
        assert_eq!(dispatcher.complete("  "), Err(LlmError::EmptyPrompt));
        let stats = dispatcher.backend_stats();
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
            let dispatcher = RoutedBackend::single(&llm, config);
            fan_out(&dispatcher, 10, 30, |t, i| format!("tail prompt {t}-{i}"));
            (
                dispatcher.backend_stats(),
                dispatcher.fault_stats().unwrap(),
            )
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
        let dispatcher = RoutedBackend::single(&llm, pipelined(1));
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
        let dispatcher = RoutedBackend::single(&llm, pipelined(6).with_faults(FaultPlan::light(6)));
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
        let stats = dispatcher.backend_stats();
        assert_eq!(stats.calls, 40);
        assert_eq!(stats.failures, 0);
    }
}
