//! Open-loop serving simulator with SLO accounting.
//!
//! All other benches in this repo are *closed-loop*: a fixed batch of
//! tasks is pushed through the stack as fast as it will go, and the
//! number reported is makespan. That is the wrong lens for a serving
//! layer — under open-loop load, requests arrive on their own schedule
//! whether or not the backend has caught up, so queueing delay compounds
//! and the p99/p999 tail is what users actually experience.
//!
//! [`ServeSim`] closes that gap without touching a wall clock:
//!
//! * **Arrival processes** ([`ArrivalProcess`]) are sampled with pure
//!   integer micro-time math from a seeded [`Dice`] — exponential gaps
//!   via a Q16 fixed-point `-ln` table, fixed-size bursts, and a
//!   16-segment diurnal curve applied by thinning. No floats anywhere on
//!   the sampling path, so schedules are bit-identical across platforms.
//! * **Multi-tenant mixes** ([`TenantSpec`]) draw prompts from recorded
//!   canonical prompt streams (the eval crate records the ten paper
//!   scenarios' streams), each tenant with its own arrival process, rate
//!   and SLO.
//! * **The event loop** is a single-threaded discrete-event simulation
//!   over the sim's own [`VirtualClock`] + [`TimerWheel`]: an arrival
//!   either seizes a free server or queues FIFO; service time is the
//!   driven stack's *own* virtual-clock delta around the `complete` call
//!   (so retries, hedges, breaker waits and fault injection all count),
//!   falling back to the model's [`LatencyProfile`](unidm_llm::LatencyProfile) for stacks that do
//!   not meter time. Completions at tick `t` are processed before
//!   arrivals at tick `t`, which pins the event order exactly.
//! * **Worker counts don't change results**: the measurement pass is
//!   serial by construction, and the `workers` knob instead drives a
//!   parallel *replay verification* — requests are partitioned by prompt
//!   hash (preserving per-prompt call order), re-issued, and compared
//!   against the measured answers. The partition is a property of the
//!   tenants' prompt streams, not of the requests: each stream prompt is
//!   hashed once into a `prompt index → owner worker` table, and a worker
//!   walks the request list skipping what the table gives to another.
//!   Worker 0's share runs on the calling thread; only workers `1..n` are
//!   spawned. The report is computed before the replay runs, so traces
//!   and stats are byte-identical at any worker count;
//!   `replay_mismatches` stays 0 for any prompt-deterministic stack.
//!
//! Reported per tenant: p50/p99/p999 end-to-end latency (via the exact
//! [`LatencySketch`]), SLO attainment, and goodput (SLO-satisfying
//! answers per 1000 virtual seconds) under whatever faults the attached
//! stack injects.
//!
//! # Examples
//!
//! ```
//! use unidm::serve::{ArrivalProcess, ServeConfig, ServeSim, TenantSpec};
//! use unidm::BackendConfig;
//! use unidm_llm::{LlmProfile, MockLlm};
//! use unidm_world::World;
//!
//! let world = World::generate(42);
//! let sim = ServeSim::new(ServeConfig::new(7).with_servers(2)).tenant(
//!     TenantSpec::new(
//!         "docs",
//!         vec!["What is the capital of region 3?".into()],
//!     )
//!     .with_arrival(ArrivalProcess::Poisson)
//!     .with_rate_milli_per_s(2_000)
//!     .with_requests(40)
//!     .with_slo_us(400_000),
//! );
//!
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
//! let stack = BackendConfig::default().wrap(&llm);
//! let report = sim.run(&stack);
//! assert_eq!(report.requests, 40);
//!
//! // Rerunning against a fresh stack reproduces the trace bit for bit.
//! let fresh = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
//! let stack = BackendConfig::default().wrap(&fresh);
//! let rerun = sim.run(&stack);
//! assert_eq!(report, rerun);
//! assert_eq!(report.trace_fnv(), rerun.trace_fnv());
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use unidm_llm::{Completion, Dice, LanguageModel, TimerWheel, VirtualClock};
use unidm_text::hash::fnv1a64;

use crate::backend::{AttachedBackend, LatencySketch};

/// `ln 2` in Q16 fixed point.
const LN2_Q16: u64 = 45_426;

/// `ln(1 + k/16) * 2^16` for `k = 0..=16`; the mantissa table for the
/// fixed-point natural log. The last entry is [`LN2_Q16`].
const LN_MANTISSA_Q16: [u64; 17] = [
    0, 3_973, 7_719, 11_262, 14_624, 17_822, 20_870, 23_784, 26_573, 29_248, 31_818, 34_292,
    36_675, 38_975, 41_196, 43_345, 45_426,
];

/// Per-segment load as a permille of peak rate over one diurnal period:
/// a quiet night, a morning ramp, a midday peak and an evening falloff.
/// Sums to 8000 over 16 segments, so the *average* rate is exactly half
/// the peak — which is why diurnal sampling thins candidates drawn at
/// `2x` the requested average rate.
const DIURNAL_PERMILLE_OF_PEAK: [u64; 16] = [
    120, 80, 60, 80, 150, 300, 520, 730, 880, 960, 1000, 950, 850, 700, 480, 140,
];

/// Gap between requests inside one burst of [`ArrivalProcess::Bursty`].
const INTRA_BURST_GAP_US: u64 = 1_000;

/// Service-time floor: a completion can never take zero virtual time.
const MIN_SERVICE_US: u64 = 1;

/// Assumed service time for an error returned by a stack that does not
/// meter virtual time (no retries, no backoff — a plain refusal).
const UNMETERED_ERROR_SERVICE_US: u64 = 20_000;

/// `-ln(r / 2^16)` in Q16 fixed point, for `r` in `1..=2^16`.
///
/// Exact at the table knots and piecewise-linear between them; the
/// relative error is far below what any latency assertion can see, and —
/// unlike `f64::ln` — the result is bit-identical on every platform.
fn neg_ln_q16(r: u32) -> u64 {
    let r = u64::from(r.clamp(1, 1 << 16));
    let e = 63 - r.leading_zeros() as u64; // floor(log2 r)
    let frac = ((r << 16) >> e) - (1 << 16); // r / 2^e - 1, Q16 in [0, 1)
    let idx = (frac >> 12) as usize; // 16 segments over [0, 1)
    let t = frac & 0xFFF; // position inside the segment, Q12
    let lo = LN_MANTISSA_Q16[idx];
    let hi = LN_MANTISSA_Q16[idx + 1];
    let ln_r = e * LN2_Q16 + lo + (((hi - lo) * t) >> 12);
    (16 * LN2_Q16).saturating_sub(ln_r)
}

/// An exponentially distributed gap with the given mean, driven by a
/// uniform draw `r` in `1..=2^16`. Inverse-CDF sampling: the gap is
/// `mean * -ln(r / 2^16)`, floored at one microsecond so virtual time
/// always advances.
fn exp_gap_us(mean_us: u64, r: u32) -> u64 {
    let gap = (u128::from(mean_us) * u128::from(neg_ln_q16(r))) >> 16;
    (gap as u64).max(1)
}

/// SLO attainment as a permille of all requests (0 when empty).
fn attainment_permille(slo_met: u64, requests: u64) -> u64 {
    (slo_met * 1000).checked_div(requests).unwrap_or(0)
}

/// SLO-satisfying answers per 1000 virtual seconds (0 for an empty run).
fn goodput_per_ks(slo_met: u64, makespan_us: u64) -> u64 {
    (u128::from(slo_met) * 1_000_000_000)
        .checked_div(u128::from(makespan_us))
        .unwrap_or(0) as u64
}

/// How a tenant's requests arrive in virtual time.
///
/// All three processes are sampled with integer micro-time math from the
/// simulation's seeded [`Dice`] — no floats, no wall clock — so a fixed
/// seed pins the full arrival schedule bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: independent exponential inter-arrival gaps
    /// at the tenant's average rate.
    Poisson,
    /// Requests arrive in fixed-size bursts: inside a burst they are
    /// spaced a fixed 1ms apart, and bursts themselves arrive
    /// with exponential gaps scaled so the *average* rate matches the
    /// tenant's configured rate.
    Bursty {
        /// Requests per burst (clamped to at least 1).
        burst: u32,
    },
    /// Day/night load: candidates are drawn at twice the average rate
    /// and thinned through a 16-segment permille-of-peak
    /// curve, producing a quiet trough and a peak around "midday" of
    /// each virtual period.
    Diurnal {
        /// Virtual length of one day, in microseconds.
        period_us: u64,
    },
}

/// One tenant of the serving mix: a named prompt stream plus an arrival
/// process, average rate, request count and latency SLO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    name: String,
    prompts: Vec<String>,
    arrival: ArrivalProcess,
    rate_milli_per_s: u64,
    requests: u32,
    slo_us: u64,
}

impl TenantSpec {
    /// A tenant drawing uniformly (seeded) from `prompts`, defaulting to
    /// Poisson arrivals at 10 requests per virtual second, 100 requests,
    /// and a 1-second latency SLO.
    pub fn new(name: impl Into<String>, prompts: Vec<String>) -> Self {
        TenantSpec {
            name: name.into(),
            prompts,
            arrival: ArrivalProcess::Poisson,
            rate_milli_per_s: 10_000,
            requests: 100,
            slo_us: 1_000_000,
        }
    }

    /// Sets the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the average arrival rate in milli-requests per virtual
    /// second (so `2_500` is 2.5 requests/s); clamped to at least 1.
    pub fn with_rate_milli_per_s(mut self, rate_milli_per_s: u64) -> Self {
        self.rate_milli_per_s = rate_milli_per_s.max(1);
        self
    }

    /// Sets how many requests this tenant injects over the run.
    pub fn with_requests(mut self, requests: u32) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the end-to-end latency SLO in virtual microseconds.
    pub fn with_slo_us(mut self, slo_us: u64) -> Self {
        self.slo_us = slo_us;
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The prompt request `prompt_index` sends (empty for a tenant with
    /// no prompts).
    fn prompt(&self, prompt_index: usize) -> &str {
        self.prompts.get(prompt_index).map_or("", String::as_str)
    }

    /// Mean inter-arrival gap implied by the configured rate.
    fn mean_gap_us(&self) -> u64 {
        (1_000_000_000 / self.rate_milli_per_s.max(1)).max(1)
    }

    /// Samples this tenant's full arrival schedule: `(arrival_us,
    /// prompt_index)` pairs, strictly increasing in time.
    fn sample_arrivals(&self, dice: &Dice) -> Vec<(u64, usize)> {
        // The tenant context is absorbed once; every draw renders its
        // numbered tag straight into it.
        let ctx = dice.context(&format!("serve-{}", self.name));
        let mean = self.mean_gap_us();
        let mut schedule = Vec::with_capacity(self.requests as usize);
        let mut at_us = 0u64;
        let mut draws = 0u64;
        let draw = |tag: &str, n: usize, draws: &mut u64| {
            let pick = ctx.pick(format_args!("{tag}-{draws}"), n);
            *draws += 1;
            pick
        };
        for i in 0..self.requests as usize {
            match self.arrival {
                ArrivalProcess::Poisson => {
                    let r = draw("gap", 1 << 16, &mut draws) as u32 + 1;
                    at_us += exp_gap_us(mean, r);
                }
                ArrivalProcess::Bursty { burst } => {
                    let burst = burst.max(1) as usize;
                    if i % burst == 0 {
                        let r = draw("gap", 1 << 16, &mut draws) as u32 + 1;
                        at_us += exp_gap_us(mean.saturating_mul(burst as u64), r);
                    } else {
                        at_us += INTRA_BURST_GAP_US;
                    }
                }
                ArrivalProcess::Diurnal { period_us } => {
                    let period = period_us.max(16);
                    // Candidates at 2x the average rate, thinned by the
                    // curve (which averages 500 permille of peak).
                    loop {
                        let r = draw("gap", 1 << 16, &mut draws) as u32 + 1;
                        at_us += exp_gap_us((mean / 2).max(1), r);
                        let segment = ((at_us % period) * 16 / period) as usize;
                        let keep = draw("keep", 1000, &mut draws) as u64;
                        if keep < DIURNAL_PERMILLE_OF_PEAK[segment] {
                            break;
                        }
                    }
                }
            }
            let prompt = if self.prompts.is_empty() {
                0
            } else {
                ctx.pick(format_args!("prompt-{i}"), self.prompts.len())
            };
            schedule.push((at_us, prompt));
        }
        schedule
    }
}

/// Global knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    seed: u64,
    servers: u32,
    workers: usize,
}

impl ServeConfig {
    /// A single-server, single-worker simulation at the given seed.
    pub fn new(seed: u64) -> Self {
        ServeConfig {
            seed,
            servers: 1,
            workers: 1,
        }
    }

    /// Sets how many requests the driven stack serves concurrently
    /// (clamped to at least 1). Arrivals beyond this queue FIFO.
    pub fn with_servers(mut self, servers: u32) -> Self {
        self.servers = servers.max(1);
        self
    }

    /// Sets the replay-verification worker count (clamped to at least
    /// 1). Worker count never changes the report — that is the point —
    /// it only parallelizes the post-hoc answer re-check.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// What happened at one instant of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The request entered the system (and queued, or seized a server).
    Arrival,
    /// The request began service on a free server.
    Start,
    /// The request finished service.
    Done {
        /// Whether the stack returned an answer (as opposed to an error).
        ok: bool,
    },
}

/// One entry of the simulation's event trace, totally ordered by
/// occurrence: the trace is the simulator's determinism contract, and
/// [`ServeReport::trace_fnv`] digests it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    /// Virtual timestamp, microseconds.
    pub at_us: u64,
    /// Index of the tenant in the simulation's tenant list.
    pub tenant: u32,
    /// Per-tenant request sequence number, in arrival order.
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Per-tenant outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name, copied from the spec.
    pub name: String,
    /// Requests injected.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests that came back as errors (faults the stack did not
    /// absorb).
    pub errors: u64,
    /// The tenant's latency SLO, µs.
    pub slo_us: u64,
    /// Successful requests whose end-to-end latency met the SLO.
    pub slo_met: u64,
    /// `slo_met * 1000 / requests` — errors count against attainment.
    pub attainment_permille: u64,
    /// SLO-satisfying answers per 1000 virtual seconds of makespan.
    pub goodput_per_ks: u64,
    /// End-to-end latency distribution (queueing + service).
    pub latency: LatencySketch,
}

/// The full result of one [`ServeSim::run`]: per-tenant stats, global
/// counters, and the event trace.
///
/// Two reports from the same sim at the same seed against identically
/// constructed stacks compare equal — including across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-tenant outcomes, in tenant declaration order.
    pub tenants: Vec<TenantReport>,
    /// Total requests injected.
    pub requests: u64,
    /// Total requests that came back as errors.
    pub errors: u64,
    /// Total requests that met their tenant's SLO.
    pub slo_met: u64,
    /// Virtual time from the first arrival draw to the last completion.
    pub makespan_us: u64,
    /// Replay answers that disagreed with the measured answers; 0 for
    /// any prompt-deterministic stack.
    pub replay_mismatches: u64,
    /// The full event trace, in processing order.
    pub trace: Vec<ServeEvent>,
}

impl ServeReport {
    /// [`fnv1a64`] digest of the event trace — the cheap handle for "these
    /// two runs were bit-identical".
    pub fn trace_fnv(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.trace.len() * 18);
        for event in &self.trace {
            bytes.extend_from_slice(&event.at_us.to_le_bytes());
            bytes.extend_from_slice(&event.tenant.to_le_bytes());
            bytes.extend_from_slice(&event.seq.to_le_bytes());
            let kind = match event.kind {
                EventKind::Arrival => 0u8,
                EventKind::Start => 1,
                EventKind::Done { ok: true } => 2,
                EventKind::Done { ok: false } => 3,
            };
            bytes.push(kind);
        }
        fnv1a64(&bytes)
    }

    /// Overall SLO attainment, permille of all requests.
    pub fn attainment_permille(&self) -> u64 {
        attainment_permille(self.slo_met, self.requests)
    }

    /// Overall goodput: SLO-satisfying answers per 1000 virtual seconds.
    pub fn goodput_per_ks(&self) -> u64 {
        goodput_per_ks(self.slo_met, self.makespan_us)
    }
}

/// One fully sampled request, ready for the event loop.
struct Request {
    tenant: u32,
    seq: u32,
    at_us: u64,
    prompt_index: usize,
}

/// Measured outcome of one request. The answer is the completion the
/// stack handed back, shared rather than copied.
#[derive(Clone, Default)]
struct Outcome {
    ok: bool,
    answer: Option<Arc<Completion>>,
    done_us: u64,
}

/// The open-loop serving simulator. See the [module docs](self) for the
/// full protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSim {
    config: ServeConfig,
    tenants: Vec<TenantSpec>,
}

impl ServeSim {
    /// An empty simulation with the given knobs; add tenants with
    /// [`ServeSim::tenant`].
    pub fn new(config: ServeConfig) -> Self {
        ServeSim {
            config,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant to the mix.
    #[must_use]
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// The configured tenants, in declaration order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Samples every tenant's arrival schedule and merges them into one
    /// globally ordered request list. Ties break by tenant declaration
    /// order, then per-tenant sequence — fully deterministic.
    fn sample_requests(&self, dice: &Dice) -> Vec<Request> {
        let mut requests = Vec::new();
        for (tenant_index, tenant) in self.tenants.iter().enumerate() {
            for (seq, (at_us, prompt_index)) in tenant.sample_arrivals(dice).into_iter().enumerate()
            {
                requests.push(Request {
                    tenant: tenant_index as u32,
                    seq: seq as u32,
                    at_us,
                    prompt_index,
                });
            }
        }
        requests.sort_by_key(|r| (r.at_us, r.tenant, r.seq));
        requests
    }

    /// Runs the open-loop simulation against `stack` and returns the
    /// report. The stack is driven serially in event order; see the
    /// module docs for why `workers` cannot change the result.
    pub fn run(&self, stack: &AttachedBackend<'_>) -> ServeReport {
        let dice = Dice::new(self.config.seed);
        let requests = self.sample_requests(&dice);
        let model = stack.model();

        let clock = VirtualClock::new();
        // Completion timers, each carrying the index of its request.
        let mut wheel: TimerWheel<usize> = TimerWheel::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut free_servers = self.config.servers;
        let mut trace: Vec<ServeEvent> = Vec::with_capacity(requests.len() * 3);
        let mut outcomes: Vec<Outcome> = vec![Outcome::default(); requests.len()];

        // Begins service for request `index` at virtual `now_us`: issues
        // the (blocking, serial) completion, measures its virtual-time
        // cost, and schedules the completion event.
        let start_service = |index: usize,
                             now_us: u64,
                             wheel: &mut TimerWheel<usize>,
                             trace: &mut Vec<ServeEvent>,
                             outcomes: &mut Vec<Outcome>| {
            let request = &requests[index];
            trace.push(ServeEvent {
                at_us: now_us,
                tenant: request.tenant,
                seq: request.seq,
                kind: EventKind::Start,
            });
            let prompt = self.tenants[request.tenant as usize].prompt(request.prompt_index);
            let before_us = stack.elapsed_us();
            let result = model.complete(prompt);
            let metered_us = stack.elapsed_us().saturating_sub(before_us);
            let service_us = match &result {
                _ if metered_us > 0 => metered_us,
                Ok(completion) => model.latency_profile().latency_us(completion.usage),
                Err(_) => UNMETERED_ERROR_SERVICE_US,
            }
            .max(MIN_SERVICE_US);
            match result {
                Ok(completion) => {
                    outcomes[index].ok = true;
                    outcomes[index].answer = Some(completion);
                }
                Err(_) => outcomes[index].ok = false,
            }
            wheel.schedule(now_us + service_us, index);
        };

        let mut next_arrival = 0usize;
        loop {
            let arrival_at = requests.get(next_arrival).map(|r| r.at_us);
            let completion_at = wheel.next_deadline();
            // Completions at tick t are processed before arrivals at
            // tick t: a freed server is visible to a same-tick arrival.
            let take_completion = match (arrival_at, completion_at) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(a), Some(c)) => c <= a,
            };
            if take_completion {
                let (deadline_us, _, index) = wheel.pop_next().expect("deadline was pending");
                clock.advance_to_micros(deadline_us);
                let request = &requests[index];
                outcomes[index].done_us = deadline_us;
                trace.push(ServeEvent {
                    at_us: deadline_us,
                    tenant: request.tenant,
                    seq: request.seq,
                    kind: EventKind::Done {
                        ok: outcomes[index].ok,
                    },
                });
                if let Some(next) = queue.pop_front() {
                    start_service(next, deadline_us, &mut wheel, &mut trace, &mut outcomes);
                } else {
                    free_servers += 1;
                }
            } else {
                let index = next_arrival;
                next_arrival += 1;
                let request = &requests[index];
                clock.advance_to_micros(request.at_us);
                trace.push(ServeEvent {
                    at_us: request.at_us,
                    tenant: request.tenant,
                    seq: request.seq,
                    kind: EventKind::Arrival,
                });
                if free_servers > 0 {
                    free_servers -= 1;
                    start_service(index, request.at_us, &mut wheel, &mut trace, &mut outcomes);
                } else {
                    queue.push_back(index);
                }
            }
        }

        let makespan_us = clock.elapsed_micros();
        let mut tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.name.clone(),
                requests: 0,
                ok: 0,
                errors: 0,
                slo_us: t.slo_us,
                slo_met: 0,
                attainment_permille: 0,
                goodput_per_ks: 0,
                latency: LatencySketch::default(),
            })
            .collect();
        for (request, outcome) in requests.iter().zip(&outcomes) {
            let report = &mut tenants[request.tenant as usize];
            report.requests += 1;
            let latency_us = outcome.done_us.saturating_sub(request.at_us);
            report.latency.record(latency_us);
            if outcome.ok {
                report.ok += 1;
                if latency_us <= report.slo_us {
                    report.slo_met += 1;
                }
            } else {
                report.errors += 1;
            }
        }
        for report in &mut tenants {
            report.attainment_permille = attainment_permille(report.slo_met, report.requests);
            report.goodput_per_ks = goodput_per_ks(report.slo_met, makespan_us);
        }

        // The report is complete before the replay runs: worker count
        // can only affect `replay_mismatches`, and per-prompt call order
        // is preserved by the hash partition, so even that is stable.
        let replay_mismatches = self.replay(model, &requests, &outcomes);

        ServeReport {
            requests: requests.len() as u64,
            errors: tenants.iter().map(|t| t.errors).sum(),
            slo_met: tenants.iter().map(|t| t.slo_met).sum(),
            makespan_us,
            replay_mismatches,
            trace,
            tenants,
        }
    }

    /// Re-issues every successfully answered prompt and counts answers
    /// that differ from the measured run. Requests are partitioned
    /// across `workers` threads by prompt hash, so all requests for one
    /// prompt replay on one thread in original order — the partition is
    /// schedule-independent by construction.
    fn replay(&self, model: &dyn LanguageModel, requests: &[Request], outcomes: &[Outcome]) -> u64 {
        if requests.is_empty() {
            return 0;
        }
        let workers = self.config.workers.max(1) as u64;
        // Which worker owns each stream prompt, per tenant: hashed once
        // per prompt here, looked up per request below. A tenant with no
        // prompts sends the empty prompt at index 0. One worker owns every
        // prompt, whatever it hashes to.
        let owner = |prompt: &str| match workers {
            1 => 0,
            _ => fnv1a64(prompt.as_bytes()) % workers,
        };
        let owners: Vec<Vec<u64>> = self
            .tenants
            .iter()
            .map(|tenant| {
                (0..tenant.prompts.len().max(1))
                    .map(|index| owner(tenant.prompt(index)))
                    .collect()
            })
            .collect();
        let share = |worker: u64| {
            let mut mismatches = 0u64;
            for (request, outcome) in requests.iter().zip(outcomes) {
                let tenant = request.tenant as usize;
                if owners[tenant][request.prompt_index] != worker {
                    continue;
                }
                let Some(expected) = &outcome.answer else {
                    continue;
                };
                let prompt = self.tenants[tenant].prompt(request.prompt_index);
                if let Ok(got) = model.complete(prompt) {
                    // A stack that memoizes hands back the very completion
                    // it measured; only distinct ones need their text read.
                    if !Arc::ptr_eq(&got, expected) && got.text != expected.text {
                        mismatches += 1;
                    }
                }
            }
            mismatches
        };
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || share(worker)))
                .collect();
            let own = share(0);
            spawned
                .into_iter()
                .map(|handle| handle.join().expect("replay worker panicked"))
                .sum::<u64>()
                + own
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use std::collections::HashMap;
    use std::sync::Mutex;
    use unidm_llm::{LatencyProfile, LlmError, LlmProfile, Usage};
    use unidm_world::World;

    /// A prompt-pure model with a constant, profile-driven latency.
    struct StubModel {
        latency: LatencyProfile,
    }

    impl StubModel {
        fn instant() -> Self {
            StubModel {
                latency: LatencyProfile {
                    base_us: 10_000,
                    per_prompt_token_us: 0,
                    per_completion_token_us: 0,
                },
            }
        }
    }

    impl LanguageModel for StubModel {
        fn name(&self) -> &str {
            "stub"
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            Ok(Completion::shared(
                format!("echo {prompt}"),
                Usage {
                    prompt_tokens: 3,
                    completion_tokens: 2,
                },
            ))
        }

        fn usage(&self) -> Usage {
            Usage::default()
        }

        fn reset_usage(&self) {}

        fn latency_profile(&self) -> LatencyProfile {
            self.latency
        }
    }

    fn prompts() -> Vec<String> {
        (0..8).map(|i| format!("prompt number {i}")).collect()
    }

    #[test]
    fn neg_ln_fixed_point_tracks_the_real_log() {
        // Exact at both ends of the domain...
        assert_eq!(neg_ln_q16(1 << 16), 0, "-ln(1) = 0");
        assert_eq!(neg_ln_q16(1), 16 * LN2_Q16, "-ln(2^-16) = 16 ln 2");
        // ...and within interpolation error everywhere else (floats are
        // fine in a test oracle — the production path never touches them).
        for r in [2u32, 7, 100, 1_000, 9_999, 32_768, 50_000, 65_535] {
            let exact = -(f64::from(r) / 65_536.0).ln();
            let approx = neg_ln_q16(r) as f64 / 65_536.0;
            assert!(
                (exact - approx).abs() < 0.002,
                "r={r}: exact {exact} vs fixed-point {approx}"
            );
        }
    }

    #[test]
    fn arrival_schedules_are_deterministic_and_monotone() {
        let dice = Dice::new(99);
        for arrival in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { burst: 5 },
            ArrivalProcess::Diurnal {
                period_us: 3_000_000,
            },
        ] {
            let spec = TenantSpec::new("t", prompts())
                .with_arrival(arrival)
                .with_rate_milli_per_s(5_000)
                .with_requests(200);
            let a = spec.sample_arrivals(&dice);
            let b = spec.sample_arrivals(&dice);
            assert_eq!(a, b, "{arrival:?}: same dice, same schedule");
            assert_eq!(a.len(), 200);
            for pair in a.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{arrival:?}: time must advance");
            }
        }
    }

    #[test]
    fn poisson_mean_gap_lands_near_the_configured_rate() {
        let dice = Dice::new(4);
        let spec = TenantSpec::new("rate", prompts())
            .with_rate_milli_per_s(10_000) // 10/s -> mean gap 100ms
            .with_requests(2_000);
        let schedule = spec.sample_arrivals(&dice);
        let span_us = schedule.last().unwrap().0;
        let mean_gap = span_us / 2_000;
        assert!(
            (70_000..130_000).contains(&mean_gap),
            "mean gap {mean_gap}us should be near 100ms"
        );
    }

    #[test]
    fn open_loop_queueing_shows_up_in_the_tail() {
        // 200 req/s against a 10ms service time: one server is 2x
        // overloaded and the queue (hence latency) grows without bound;
        // four servers are 2x overprovisioned and latency stays near
        // service time.
        let sim = |servers| {
            let stub = StubModel::instant();
            let stack = BackendConfig::default().wrap(&stub);
            ServeSim::new(ServeConfig::new(11).with_servers(servers))
                .tenant(
                    TenantSpec::new("load", prompts())
                        .with_rate_milli_per_s(200_000)
                        .with_requests(400)
                        .with_slo_us(50_000),
                )
                .run(&stack)
        };
        let overloaded = sim(1);
        let provisioned = sim(4);
        let p99_over = overloaded.tenants[0].latency.quantile_us(990);
        let p99_prov = provisioned.tenants[0].latency.quantile_us(990);
        assert!(
            p99_over > 10 * p99_prov,
            "overload tail {p99_over}us should dwarf provisioned tail {p99_prov}us"
        );
        assert!(
            overloaded.slo_met < provisioned.slo_met,
            "overload must cost SLO attainment: {} vs {}",
            overloaded.slo_met,
            provisioned.slo_met
        );
        assert_eq!(provisioned.tenants[0].attainment_permille, 1000);
        assert_eq!(overloaded.replay_mismatches, 0);
    }

    #[test]
    fn reports_are_bit_identical_across_workers_and_reruns() {
        let world = World::generate(21);
        let run = |workers| {
            let llm = unidm_llm::MockLlm::new(&world, LlmProfile::gpt3_175b(), 21);
            let stack = BackendConfig::resilient(21)
                .with_faults(unidm_llm::FaultPlan::moderate(7))
                .wrap(&llm);
            ServeSim::new(ServeConfig::new(5).with_servers(3).with_workers(workers))
                .tenant(
                    TenantSpec::new("poisson", prompts())
                        .with_rate_milli_per_s(20_000)
                        .with_requests(120),
                )
                .tenant(
                    TenantSpec::new("bursty", prompts())
                        .with_arrival(ArrivalProcess::Bursty { burst: 8 })
                        .with_rate_milli_per_s(10_000)
                        .with_requests(80),
                )
                .run(&stack)
        };
        let serial = run(1);
        let parallel = run(8);
        let rerun = run(8);
        assert_eq!(serial, parallel, "worker count must not change the report");
        assert_eq!(parallel, rerun, "rerun at the same seed must reproduce");
        assert_eq!(serial.trace_fnv(), parallel.trace_fnv());
        assert_eq!(serial.requests, 200);
        assert!(!serial.trace.is_empty());
    }

    /// Answers with how many times the prompt has been asked, modulo 3 —
    /// deliberately *not* prompt-deterministic.
    #[derive(Default)]
    struct CountingModel {
        asked: Mutex<HashMap<String, u64>>,
    }

    impl LanguageModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            let mut asked = self.asked.lock().expect("counting model lock");
            let count = asked.entry(prompt.to_string()).or_default();
            *count += 1;
            Ok(Completion::shared(
                (*count % 3).to_string(),
                Usage::default(),
            ))
        }

        fn usage(&self) -> Usage {
            Usage::default()
        }

        fn reset_usage(&self) {}
    }

    #[test]
    fn replay_still_sees_a_stack_whose_answers_depend_on_call_order() {
        // A prompt asked n times in the measured run is asked n more times
        // by the replay, in the same order on one worker: its i-th replayed
        // answer is (n + i) % 3 against a measured i % 3, so exactly the
        // prompts with n % 3 != 0 mismatch, on every request. Two tenants
        // share the stream, so the partition has to be by prompt text; a
        // prompt split across workers, replayed out of order or skipped
        // would change the count.
        let run = |workers| {
            let model = CountingModel::default();
            let stack = BackendConfig::default().wrap(&model);
            let report = ServeSim::new(ServeConfig::new(5).with_servers(3).with_workers(workers))
                .tenant(TenantSpec::new("poisson", prompts()).with_requests(120))
                .tenant(
                    TenantSpec::new("bursty", prompts())
                        .with_arrival(ArrivalProcess::Bursty { burst: 8 })
                        .with_requests(80),
                )
                .run(&stack);
            let asked = model.asked.into_inner().expect("counting model lock");
            let expected: u64 = asked
                .values()
                .map(|total| total / 2)
                .filter(|measured| measured % 3 != 0)
                .sum();
            assert_eq!(report.replay_mismatches, expected, "{workers} workers");
            report
        };
        let serial = run(1);
        assert!(serial.replay_mismatches > 0, "the check must not be blind");
        assert!(serial.replay_mismatches < serial.requests);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }
}
