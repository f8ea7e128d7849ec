//! Runs the backend-conformance suite (`common::conformance`) against
//! every `LanguageModel` wrapper in the repository: the blocking
//! single-endpoint stack (`RoutedBackend::single`), the event-driven
//! `Dispatcher`, and the multi-endpoint `RoutedBackend`.
//!
//! Each wrapper supplies one [`Factory`] translating the suite's
//! [`Scenario`] knobs into its own configuration; the suite then holds
//! all three to the same invariants — determinism under faults, permanent
//! error propagation, no memoized errors, rate-token exactness, exact
//! commutative stats merging, and a golden ledger of one pinned workload. A future wrapper earns the same
//! coverage by adding a factory and a `conformance_suite!` line.

mod common;

use common::conformance::{self as conf, BackendUnderTest, Scenario};
use unidm::backend::{BackendConfig, BackendStats};
use unidm::dispatch::Dispatcher;
use unidm::route::{AimdPolicy, RoutePlan, RoutedBackend};
use unidm_llm::LanguageModel;

struct Resilient<'a>(RoutedBackend<'a>);

impl BackendUnderTest for Resilient<'_> {
    fn model(&self) -> &dyn LanguageModel {
        &self.0
    }
    fn stats(&self) -> BackendStats {
        self.0.backend_stats()
    }
    fn ledger(&self) -> String {
        let now = self.0.clock().now_micros();
        format!(
            "{:?}\n{:?}\nnow={now}",
            self.0.backend_stats(),
            self.0.fault_stats()
        )
    }
}

struct Dispatched<'a>(Dispatcher<'a>);

impl BackendUnderTest for Dispatched<'_> {
    fn model(&self) -> &dyn LanguageModel {
        &self.0
    }
    fn stats(&self) -> BackendStats {
        self.0.stats()
    }
    fn ledger(&self) -> String {
        let now = self.0.clock().now_micros();
        format!(
            "{:?}\n{:?}\nnow={now}",
            self.0.stats(),
            self.0.fault_stats()
        )
    }
}

struct Routed<'a>(RoutedBackend<'a>);

impl BackendUnderTest for Routed<'_> {
    fn model(&self) -> &dyn LanguageModel {
        &self.0
    }
    fn stats(&self) -> BackendStats {
        self.0.backend_stats()
    }
    fn ledger(&self) -> String {
        // Scalars by name, so the pin survives a new `RouterStats` field.
        let s = self.0.stats();
        format!(
            "calls={} answers={} failures={} retries={} all_open={}\n{:?}\n{:?}\n{:?}\n{:?}\nnow={}",
            s.calls,
            s.answers,
            s.failures,
            s.retries,
            s.all_open,
            s.endpoints[0],
            s.endpoints[1],
            s.backend_stats(),
            self.0.fault_stats(),
            self.0.clock().now_micros()
        )
    }
}

fn base_config(s: Scenario) -> BackendConfig {
    let mut config = BackendConfig::resilient(s.seed);
    if let Some(faults) = s.faults {
        config = config.with_faults(faults);
    }
    if let Some((per_sec, burst)) = s.rate {
        config = config.with_rate_limit(per_sec, burst);
    }
    config
}

fn resilient(inner: &dyn LanguageModel, s: Scenario) -> Box<dyn BackendUnderTest + '_> {
    Box::new(Resilient(RoutedBackend::single(inner, base_config(s))))
}

fn dispatched(inner: &dyn LanguageModel, s: Scenario) -> Box<dyn BackendUnderTest + '_> {
    Box::new(Dispatched(Dispatcher::new(
        inner,
        base_config(s).with_pipelined(),
    )))
}

fn routed(inner: &dyn LanguageModel, s: Scenario) -> Box<dyn BackendUnderTest + '_> {
    // The suite's rate knob maps onto per-endpoint buckets: two replicas,
    // each a fixed (non-adaptive) AIMD bucket at the scenario's rate.
    let mut plan = RoutePlan::replicas(2);
    if let Some((per_sec, burst)) = s.rate {
        plan = plan.with_aimd(AimdPolicy::fixed(per_sec, burst));
    }
    Box::new(Routed(RoutedBackend::from_plan(
        inner,
        base_config(s).with_route(plan),
    )))
}

macro_rules! conformance_suite {
    ($name:ident, $factory:path, $golden:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn determinism_and_transparency() {
                conf::check_determinism_and_transparency($factory, stringify!($name));
            }

            #[test]
            fn error_propagation() {
                conf::check_error_propagation($factory, stringify!($name));
            }

            #[test]
            fn no_memoized_errors() {
                conf::check_no_memoized_errors($factory, stringify!($name));
            }

            #[test]
            fn rate_token_exactness() {
                conf::check_rate_token_exactness($factory, stringify!($name));
            }

            #[test]
            fn stats_merge_commutativity() {
                conf::check_stats_merge_commutativity($factory, stringify!($name));
            }

            #[test]
            fn pinned_counters() {
                conf::check_pinned_counters($factory, stringify!($name), $golden);
            }
        }
    };
}

// Golden ledgers of `check_pinned_counters`, recorded on the commit before
// the three stacks became drivers over one resilience kernel (rate 50/10
// first, then 4/2). They move only when behaviour does.
const RESILIENT_PINNED: [&str; 2] = [
    "BackendStats { calls: 40, attempts: 68, retries: 28, timeouts: 11, rate_limited: 11, transients: 6, breaker_trips: 0, breaker_fast_fails: 0, throttle_waits: 0, throttle_wait_us: 0, rate_tokens: 68, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 229376, p99_us: 3091203, max_us: 3091203 } }\n\
         Some(FaultStats { attempts: 68, clean: 33, slow: 7, timeouts: 11, rate_limits: 11, transients: 6, forced_successes: 0 })\n\
         now=32235488",
    "BackendStats { calls: 40, attempts: 68, retries: 28, timeouts: 11, rate_limited: 11, transients: 6, breaker_trips: 0, breaker_fast_fails: 0, throttle_waits: 26, throttle_wait_us: 4278176, rate_tokens: 68, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 393216, p99_us: 3091203, max_us: 3091203 } }\n\
         Some(FaultStats { attempts: 68, clean: 33, slow: 7, timeouts: 11, rate_limits: 11, transients: 6, forced_successes: 0 })\n\
         now=36513664",
];

const DISPATCHER_PINNED: [&str; 2] = [
    "BackendStats { calls: 40, attempts: 68, retries: 28, timeouts: 11, rate_limited: 11, transients: 6, breaker_trips: 0, breaker_fast_fails: 0, throttle_waits: 0, throttle_wait_us: 0, rate_tokens: 68, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 229376, p99_us: 3091203, max_us: 3091203 } }\n\
         Some(FaultStats { attempts: 68, clean: 33, slow: 7, timeouts: 11, rate_limits: 11, transients: 6, forced_successes: 0 })\n\
         now=32235488",
    "BackendStats { calls: 40, attempts: 68, retries: 28, timeouts: 11, rate_limited: 11, transients: 6, breaker_trips: 0, breaker_fast_fails: 0, throttle_waits: 26, throttle_wait_us: 4278176, rate_tokens: 68, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 393216, p99_us: 3091203, max_us: 3091203 } }\n\
         Some(FaultStats { attempts: 68, clean: 33, slow: 7, timeouts: 11, rate_limits: 11, transients: 6, forced_successes: 0 })\n\
         now=36513664",
];

const ROUTED_PINNED: [&str; 2] = [
    "calls=40 answers=40 failures=0 retries=29 all_open=0\n\
         EndpointStats { calls: 26, attempts: 40, successes: 21, timeouts: 5, rate_limited: 4, transients: 10, breaker_trips: 2, breaker_open_skips: 6, throttle_waits: 0, throttle_wait_us: 0, rate_tokens: 40, aimd_increases: 0, aimd_decreases: 0, prompt_tokens: 168, completion_tokens: 126, billed_micro: 0, latency: LatencySketch { samples: 21, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 } }\n\
         EndpointStats { calls: 14, attempts: 29, successes: 19, timeouts: 3, rate_limited: 6, transients: 1, breaker_trips: 0, breaker_open_skips: 0, throttle_waits: 0, throttle_wait_us: 0, rate_tokens: 29, aimd_increases: 0, aimd_decreases: 0, prompt_tokens: 152, completion_tokens: 114, billed_micro: 0, latency: LatencySketch { samples: 19, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 } }\n\
         BackendStats { calls: 40, attempts: 69, retries: 29, timeouts: 8, rate_limited: 10, transients: 11, breaker_trips: 2, breaker_fast_fails: 6, throttle_waits: 0, throttle_wait_us: 0, rate_tokens: 69, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 3062520, max_us: 3062520 } }\n\
         Some(FaultStats { attempts: 69, clean: 36, slow: 4, timeouts: 8, rate_limits: 10, transients: 11, forced_successes: 0 })\n\
         now=25100238",
    "calls=40 answers=40 failures=0 retries=29 all_open=0\n\
         EndpointStats { calls: 26, attempts: 40, successes: 21, timeouts: 5, rate_limited: 4, transients: 10, breaker_trips: 2, breaker_open_skips: 6, throttle_waits: 9, throttle_wait_us: 1068770, rate_tokens: 40, aimd_increases: 0, aimd_decreases: 0, prompt_tokens: 168, completion_tokens: 126, billed_micro: 0, latency: LatencySketch { samples: 21, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 } }\n\
         EndpointStats { calls: 14, attempts: 29, successes: 19, timeouts: 3, rate_limited: 6, transients: 1, breaker_trips: 0, breaker_open_skips: 0, throttle_waits: 4, throttle_wait_us: 450505, rate_tokens: 29, aimd_increases: 0, aimd_decreases: 0, prompt_tokens: 152, completion_tokens: 114, billed_micro: 0, latency: LatencySketch { samples: 19, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 } }\n\
         BackendStats { calls: 40, attempts: 69, retries: 29, timeouts: 8, rate_limited: 10, transients: 11, breaker_trips: 2, breaker_fast_fails: 6, throttle_waits: 13, throttle_wait_us: 1519275, rate_tokens: 69, failures: 0, hedges_issued: 0, hedges_won: 0, hedges_cancelled: 0, dispatch_coalesced: 0, attempt_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 57344, p99_us: 2000000, max_us: 2000000 }, request_latency: LatencySketch { samples: 40, min_us: 50000, p50_us: 114688, p99_us: 3062520, max_us: 3062520 } }\n\
         Some(FaultStats { attempts: 69, clean: 36, slow: 4, timeouts: 8, rate_limits: 10, transients: 11, forced_successes: 0 })\n\
         now=26619513",
];

conformance_suite!(resilient_backend, super::resilient, RESILIENT_PINNED);
conformance_suite!(dispatcher, super::dispatched, DISPATCHER_PINNED);
conformance_suite!(routed_backend, super::routed, ROUTED_PINNED);
