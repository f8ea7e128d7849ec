//! `serve_fleet` — the serving layers under arrivals. Op = request;
//! **open loop**.
//!
//! Arrivals follow `ServeSim`'s seeded virtual schedule (ten tenants,
//! Poisson / bursty / diurnal, 16 servers, SLOs cycling 0.3 / 1 / 5 s);
//! latency counts from each request's due time on the program's virtual
//! clock. One pass is three simulations over the same schedule: the
//! blocking `ResilientBackend` under `FaultPlan::moderate`; a 3-replica
//! `RoutedBackend` (AIMD from 5/s) under the same faults whose replicas
//! front a GPT-J → GPT-3 `CascadeBackend`; and the hedged, pipelined
//! `Dispatcher` under `FaultPlan::heavy_tail`. This is the only place
//! `backend`, `dispatch`, `route` and `serve` run; pipeline, cache and
//! storage are bypassed.

use std::hint::black_box;

use unidm::backend::LatencySketch;
use unidm::{
    AimdPolicy, ArrivalProcess, AttachedBackend, BackendConfig, BackendStats, CascadeBackend,
    HedgePolicy, RoutePlan, RoutedBackend, RouterStats, ServeConfig, ServeReport, ServeSim,
    TenantSpec, UniDm,
};
use unidm_llm::{FaultPlan, LanguageModel, LlmProfile, MockLlm};

use super::mix_batch::fresh_cache;
use super::{permille, timed_setups, Ctx, Outcome, Scene, REFERENCE_PASSES};
use crate::harness::{measure, observe, probe_ns, MIN_PASSES};
use crate::replay::{EndpointCounts, Recorder, ReplayEndpoint};
use crate::trace::{by_name, SpanModel, Tracer};

/// Tenants: the ten paper scenarios.
pub const TENANTS: usize = 10;
/// Eval items each tenant's prompt stream is recorded from.
pub const STREAM_QUERIES: usize = 30;
/// Requests each tenant injects per simulation.
pub const REQUESTS_PER_TENANT: u32 = 1000;
/// Concurrent service slots: about 50 % utilisation at rate x1.
pub const SERVERS: u32 = 16;
/// Per-tenant SLOs cycle through tight / standard / relaxed, µs.
pub const SLOS_US: [u64; 3] = [300_000, 1_000_000, 5_000_000];
/// Simulations per pass.
pub const SIMS: usize = 3;

/// One tenant's recorded canonical prompt stream.
pub struct Stream {
    /// The scenario the stream was recorded from.
    pub scenario: &'static str,
    /// Its canonical prompts, sorted.
    pub prompts: Vec<String>,
}

/// Everything a pass needs, built once per set-up.
pub struct Fixture {
    /// `--seed`, which also seeds schedules and fault plans.
    pub seed: u64,
    /// The tenants' prompt streams.
    pub streams: Vec<Stream>,
    /// The GPT-3-class endpoint, recorded over every stream prompt.
    pub large: ReplayEndpoint,
    /// The GPT-J-class endpoint (the cascade's cheap tier), likewise.
    pub cheap: ReplayEndpoint,
}

impl Fixture {
    /// What reached both endpoints since their last reset.
    pub fn endpoint_counts(&self) -> EndpointCounts {
        let (large, cheap) = (self.large.counts(), self.cheap.counts());
        EndpointCounts {
            calls: large.calls + cheap.calls,
            fallthrough: large.fallthrough + cheap.fallthrough,
            tokens: large.tokens + cheap.tokens,
        }
    }

    /// Zeroes both endpoints' counters.
    pub fn reset_endpoints(&self) {
        self.large.reset();
        self.cheap.reset();
    }
}

/// The ten-tenant mix at `rate_percent` of the nominal arrival rates.
pub fn build_sim(fx: &Fixture, requests_per_tenant: u32, rate_percent: u64) -> ServeSim {
    let mut sim = ServeSim::new(
        ServeConfig::new(fx.seed)
            .with_servers(SERVERS)
            .with_workers(1),
    );
    for (i, stream) in fx.streams.iter().enumerate() {
        let arrival = match i % 3 {
            0 => ArrivalProcess::Poisson,
            1 => ArrivalProcess::Bursty {
                burst: 4 + i as u32,
            },
            _ => ArrivalProcess::Diurnal {
                period_us: 60_000_000,
            },
        };
        sim = sim.tenant(
            TenantSpec::new(stream.scenario, stream.prompts.clone())
                .with_arrival(arrival)
                .with_rate_milli_per_s((400 + i as u64 * 150) * rate_percent / 100)
                .with_requests(requests_per_tenant)
                .with_slo_us(SLOS_US[i % SLOS_US.len()]),
        );
    }
    sim
}

/// Scenario tasks + one recording run per tenant (a serial `UniDm::run`
/// loop through a TableStem cache, whose sorted canonical keys are the
/// tenant's stream) + the cheap tier's answers to the same prompts.
pub fn setup(seed: u64) -> Fixture {
    let scene = Scene::build(seed, 1, TENANTS, &[STREAM_QUERIES; TENANTS]);
    let recorder = Recorder::new(&scene.mock);
    let streams: Vec<Stream> = scene
        .groups
        .iter()
        .map(|group| {
            let cache = fresh_cache(&recorder);
            let unidm = UniDm::new(&cache, scene.pipeline);
            for task in &group.tasks {
                let _ = unidm.run(&group.lake, task);
            }
            Stream {
                scenario: group.scenario,
                prompts: cache.canonical_prompts(),
            }
        })
        .collect();
    let small = MockLlm::new(&scene.world, LlmProfile::gptj_6b(), seed);
    let cheap = Recorder::new(&small);
    for prompt in streams.iter().flat_map(|s| &s.prompts) {
        let _ = cheap.complete(prompt);
    }
    Fixture {
        seed,
        streams,
        large: recorder.into_replay(),
        cheap: cheap.into_replay(),
    }
}

/// The blocking stack of simulation 1.
pub fn resilient_config(seed: u64) -> BackendConfig {
    BackendConfig::resilient(seed).with_faults(FaultPlan::moderate(seed))
}

/// The fleet of simulation 2, `replicas` wide.
pub fn routed_config(seed: u64, replicas: u32) -> BackendConfig {
    BackendConfig::resilient(seed)
        .with_faults(FaultPlan::moderate(seed))
        .with_route(RoutePlan::replicas(replicas).with_aimd(AimdPolicy::per_sec(5)))
}

/// The hedged dispatcher of simulation 3.
pub fn hedged_config(seed: u64) -> BackendConfig {
    BackendConfig::resilient(seed)
        .without_breaker()
        .with_faults(FaultPlan::heavy_tail(seed))
        .with_pipelined()
        .with_hedge(HedgePolicy::at_quantile(900))
}

/// The GPT-J → GPT-3 cascade the fleet's replicas front.
pub fn cascade<'a>(
    cheap: &'a dyn LanguageModel,
    large: &'a dyn LanguageModel,
) -> CascadeBackend<'a> {
    CascadeBackend::new(cheap, large)
        .with_costs_of(&LlmProfile::gptj_6b(), &LlmProfile::gpt3_175b())
}

/// What one pass leaves behind: the three reports and each stack's own
/// counters.
#[derive(Debug, PartialEq)]
pub struct PassOutput {
    /// Reports of the resilient, routed and hedged simulations.
    pub reports: [ServeReport; SIMS],
    /// Counters of the blocking stack.
    pub resilient: BackendStats,
    /// Counters of the router.
    pub routed: RouterStats,
    /// Counters of the cascade behind the router (tier billing).
    pub cascade: RouterStats,
    /// Counters of the hedged dispatcher.
    pub hedged: BackendStats,
    /// Virtual makespan of each stack's own clock, µs.
    pub stack_elapsed_us: [u64; SIMS],
}

/// One pass: three simulations over the same schedule, fresh stacks over
/// the `large` and `cheap` endpoints; `tracer` wraps each in a span.
pub fn pass(
    seed: u64,
    sim: &ServeSim,
    large: &dyn LanguageModel,
    cheap: &dyn LanguageModel,
    tracer: &Tracer,
) -> PassOutput {
    let resilient = resilient_config(seed).wrap(large);
    let first = tracer.span("serve.sim.resilient", 1, || sim.run(&resilient));

    let tiers = cascade(cheap, large);
    let routed = AttachedBackend::Routed(Box::new(RoutedBackend::from_plan(
        &tiers,
        routed_config(seed, 3),
    )));
    let second = tracer.span("serve.sim.routed", 2, || sim.run(&routed));

    let hedged = hedged_config(seed).wrap(large);
    let third = tracer.span("serve.sim.hedged", 3, || sim.run(&hedged));

    PassOutput {
        reports: [first, second, third],
        resilient: resilient.stats().expect("resilient stack is enabled"),
        routed: routed.router_stats().expect("routed stack is a router"),
        cascade: tiers.stats(),
        hedged: hedged.stats().expect("dispatcher is enabled"),
        stack_elapsed_us: [
            resilient.elapsed_us(),
            routed.elapsed_us(),
            hedged.elapsed_us(),
        ],
    }
}

/// Latency sketch pooled over every tenant of every report.
pub fn pooled_latency(reports: &[ServeReport]) -> LatencySketch {
    let mut pooled = LatencySketch::default();
    for tenant in reports.iter().flat_map(|r| &r.tenants) {
        pooled.merge(&tenant.latency);
    }
    pooled
}

/// `(requests, errors, slo_met, replay_mismatches)` summed over reports.
pub fn totals(reports: &[ServeReport]) -> (u64, u64, u64, u64) {
    reports.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.requests,
            acc.1 + r.errors,
            acc.2 + r.slo_met,
            acc.3 + r.replay_mismatches,
        )
    })
}

/// Checks shared by the untraced and traced runs; fills the counters of
/// the first pass.
pub fn verify(
    fx: &Fixture,
    index: usize,
    got: &PassOutput,
    first: &Option<PassOutput>,
    out: &mut Outcome,
) {
    let (requests, errors, _, mismatches) = totals(&got.reports);
    let fallthrough = fx.endpoint_counts().fallthrough;
    out.gate(fallthrough == 0, || {
        format!("pass {index}: {fallthrough} replay fall-throughs")
    });
    out.gate(mismatches == 0, || {
        format!("pass {index}: {mismatches} replay mismatches")
    });
    match first {
        None => {
            out.attempted = requests;
            out.failed = errors;
            out.set(
                "accuracy_permille",
                permille(requests - errors - mismatches, requests),
            );
        }
        // Each simulation rerun against a fresh, identical stack must
        // reproduce its report — trace included — and its counters.
        Some(first) => {
            for (k, (a, b)) in first.reports.iter().zip(&got.reports).enumerate() {
                out.gate(a.trace_fnv() == b.trace_fnv() && a == b, || {
                    format!("pass {index}: simulation {k} did not rerun to an equal report")
                });
            }
            out.gate(first == got, || {
                format!("pass {index}: stack counters differ from pass 0")
            });
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (fx, setups_s) = timed_setups(|| setup(ctx.seed));
    let sim = build_sim(&fx, REQUESTS_PER_TENANT, 100);
    let mut out = Outcome::default();
    let ops = (SIMS * TENANTS) as u64 * u64::from(REQUESTS_PER_TENANT);
    let mut first: Option<PassOutput> = None;
    let off = Tracer::new(false);
    let measured = measure(
        ctx.seconds,
        MIN_PASSES,
        || fx.reset_endpoints(),
        |()| pass(fx.seed, &sim, &fx.large, &fx.cheap, &off),
        |index, got| {
            verify(&fx, index, &got, &first, &mut out);
            if first.is_none() {
                let (requests, errors, slo_met, _) = totals(&got.reports);
                let EndpointCounts { calls, tokens, .. } = fx.endpoint_counts();
                out.notes.push(format!(
                    "serve_fleet: {requests} requests ({SIMS} sims x {TENANTS} tenants x \
                     {REQUESTS_PER_TENANT}, {} stream prompts), {errors} errors, {slo_met} within SLO; \
                     {calls} endpoint calls, {tokens} endpoint tokens; pooled virtual p99 {} us (n={}); \
                     trace fnv {:#018x} {:#018x} {:#018x}",
                    fx.streams.iter().map(|s| s.prompts.len()).sum::<usize>(),
                    pooled_latency(&got.reports).quantile_us(990),
                    pooled_latency(&got.reports).samples(),
                    got.reports[0].trace_fnv(),
                    got.reports[1].trace_fnv(),
                    got.reports[2].trace_fnv(),
                ));
                first = Some(got);
            }
        },
    );
    out.set_common(&setups_s, ops, &measured);
    out
}

/// Per-call cost of each stack above a bare endpoint call, over the
/// stream prompts, under the workload's own fault plans.
fn probe_stacks(fx: &Fixture, out: &mut Outcome) {
    let prompts: Vec<&String> = fx.streams.iter().flat_map(|s| &s.prompts).collect();
    let calls = 4000;
    let direct = probe_ns(3, calls, |i| {
        let _ = black_box(fx.large.complete(prompts[i % prompts.len()]));
    });
    let through = |model: &dyn LanguageModel| {
        probe_ns(1, calls, |i| {
            let _ = black_box(model.complete(prompts[i % prompts.len()]));
        })
    };
    let resilient = resilient_config(fx.seed).wrap(&fx.large);
    out.set(
        "backend.call_overhead_ns",
        through(resilient.model()) - direct,
    );
    let hedged = hedged_config(fx.seed).wrap(&fx.large);
    out.set(
        "dispatch.call_overhead_ns",
        through(hedged.model()) - direct,
    );
    let tiers = cascade(&fx.cheap, &fx.large);
    let routed = RoutedBackend::from_plan(&tiers, routed_config(fx.seed, 3));
    out.set("route.call_overhead_ns", through(&routed) - direct);
}

/// The traced run: layer metrics.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let fx = setup(ctx.seed);
    let sim = build_sim(&fx, REQUESTS_PER_TENANT, 100);
    let mut out = Outcome::default();
    let ops = (SIMS * TENANTS) as u64 * u64::from(REQUESTS_PER_TENANT);
    let off = Tracer::new(false);
    let mut first: Option<PassOutput> = None;
    let reference = measure(
        ctx.seconds / 3.0,
        REFERENCE_PASSES,
        || fx.reset_endpoints(),
        |()| pass(fx.seed, &sim, &fx.large, &fx.cheap, &off),
        |_, got| first = first.take().or(Some(got)),
    );

    // Traced pass: a span per simulation, an `endpoint` span per call that
    // reaches either replay endpoint.
    let tracer = Tracer::new(true);
    fx.reset_endpoints();
    let large = SpanModel::named("endpoint", &fx.large, &tracer);
    let cheap = SpanModel::named("endpoint", &fx.cheap, &tracer);
    let (got, traced_s, _, _) = observe(|| pass(fx.seed, &sim, &large, &cheap, &tracer));
    verify(&fx, 1, &got, &first, &mut out);
    let counts = fx.endpoint_counts();
    let spans = tracer.spans();
    let (requests, errors, slo_met, _) = totals(&got.reports);
    out.attempted = requests;
    out.failed = errors;
    out.set_cost(counts, ops, requests - errors);
    out.set_trace_shares(&spans, ops, traced_s, reference.fast_wall());
    let sim_ns: u64 = by_name(&spans)
        .iter()
        .filter(|(name, _)| name.starts_with("serve.sim."))
        .flat_map(|(_, stats)| &stats.durations_ns)
        .sum();
    out.set(
        "serve.sim_requests_per_s",
        requests as f64 / (sim_ns as f64 * 1e-9),
    );

    // The program's own virtual-time and cost accounting.
    let pooled = pooled_latency(&got.reports);
    let makespan_us: u64 = got.reports.iter().map(|r| r.makespan_us).sum();
    out.set("serve.virt_p50_us", pooled.quantile_us(500) as f64);
    out.set("serve.virt_p99_us", pooled.quantile_us(990) as f64);
    out.set("serve.virt_p999_us", pooled.quantile_us(999) as f64);
    out.set("serve.slo_attainment_permille", permille(slo_met, requests));
    out.set(
        "serve.goodput_per_ks",
        slo_met as f64 * 1e9 / makespan_us.max(1) as f64,
    );
    // Arrivals are events on the simulator's virtual schedule: a request's
    // arrival time *is* its due time, so the generator cannot run late.
    out.set("serve.generator_lag_us_max", 0.0);

    out.set(
        "backend.attempts_per_call",
        got.resilient.attempts as f64 / got.resilient.calls.max(1) as f64,
    );
    out.set("backend.virt_makespan_us", got.stack_elapsed_us[0] as f64);
    out.set(
        "backend.virt_p99_us",
        got.resilient.request_latency.quantile_us(990) as f64,
    );
    out.set("dispatch.virt_makespan_us", got.stack_elapsed_us[2] as f64);
    out.set(
        "dispatch.virt_p99_us",
        got.hedged.request_latency.quantile_us(990) as f64,
    );
    out.set("dispatch.hedges_issued", got.hedged.hedges_issued as f64);
    out.set("dispatch.hedges_won", got.hedged.hedges_won as f64);
    out.set("dispatch.endpoint_calls", got.hedged.attempts as f64);
    out.set("route.virt_makespan_us", got.stack_elapsed_us[1] as f64);
    out.set("route.attempts", got.routed.attempts() as f64);
    out.set(
        "route.rate_limited",
        got.routed
            .endpoints
            .iter()
            .map(|e| e.rate_limited)
            .sum::<u64>() as f64,
    );
    out.set("route.breaker_trips", got.routed.breaker_trips() as f64);
    let per_endpoint: Vec<u64> = got.routed.endpoints.iter().map(|e| e.calls).collect();
    let (most, least) = (
        per_endpoint.iter().copied().max().unwrap_or(0),
        per_endpoint.iter().copied().min().unwrap_or(0),
    );
    out.set(
        "route.endpoint_call_skew_permille",
        permille(
            (most - least) * per_endpoint.len() as u64,
            per_endpoint.iter().sum(),
        ),
    );
    out.set(
        "route.cascade.escalation_permille",
        permille(got.cascade.escalations, got.cascade.calls),
    );
    out.set(
        "route.cascade.large_tier_token_share_permille",
        permille(got.cascade.endpoints[1].tokens(), got.cascade.tokens()),
    );
    out.set(
        "cost.billed_micro_per_answer",
        got.cascade.billed_micro() as f64 / got.cascade.answers.max(1) as f64,
    );

    // Latency rises before goodput stops rising: the blocking stack at
    // half, nominal and double the arrival rate.
    for (metric, rate_percent) in [
        ("serve.slo_permille.rate_x05", 50),
        ("serve.slo_permille.rate_x1", 100),
        ("serve.slo_permille.rate_x2", 200),
    ] {
        let stack = resilient_config(fx.seed).wrap(&fx.large);
        let report = build_sim(&fx, REQUESTS_PER_TENANT / 2, rate_percent).run(&stack);
        out.set(metric, report.attainment_permille() as f64);
    }

    out.keep_spans(ctx.dir, "spans-sims.tsv", &spans);
    out.notes.push(format!(
        "serve_fleet traced: {requests} requests, {errors} errors, {slo_met} within SLO, traced pass \
         {traced_s:.4}s vs untraced p10 {:.4}s; cascade {:?}",
        reference.fast_wall(),
        (got.cascade.calls, got.cascade.escalations, got.cascade.billed_micro()),
    ));
    probe_stacks(&fx, &mut out);
    out
}
