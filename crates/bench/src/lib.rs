//! Benchmark harness for the UniDM reproduction.
//!
//! One binary per paper table/figure — `table1` through `table11` plus
//! `fig5` — each printing the regenerated rows:
//!
//! ```text
//! cargo run -p unidm-bench --release --bin table1            # paper scale
//! cargo run -p unidm-bench --release --bin table1 -- --quick # smoke scale
//! ```
//!
//! `all_tables` runs everything in sequence. The Criterion benches
//! (`pipeline`, `substrates`, `canon`) measure wall-clock costs of the
//! pipeline stages, substrate operations, and the canonicalizer hot path.
//!
//! The crate also hosts the instrumentation the `throughput` binary uses
//! to emit the committed exact-counter ledger `BENCH_<pr>.json`: a counting
//! global allocator ([`alloc_counter`]), an endpoint-call counter
//! ([`CallCounter`]), and a dependency-free JSON writer ([`JsonObject`]).

// `deny` rather than `forbid`: the counting global allocator must
// implement `GlobalAlloc`, which is an unsafe trait; that one module opts
// in explicitly and nothing else may.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unidm_eval::{BackendConfig, CacheConfig, ExperimentConfig, RoutePlan};
use unidm_llm::{Completion, FaultPlan, LanguageModel, LlmError, Usage};

pub mod alloc_counter;

/// The PR whose ledger the `throughput` binary emits: it stamps it into
/// the document and defaults `--bench-json` to `BENCH_<BASELINE_PR>.json`,
/// so a run without the flag can never overwrite an earlier PR's committed
/// baseline.
pub const BASELINE_PR: u64 = 26;

/// Route every allocation of the bench binaries through the counting
/// allocator, so perf regimes can assert exact allocation counts (the
/// overhead is two relaxed atomic increments per allocation).
#[global_allocator]
static GLOBAL_ALLOCATOR: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// A pass-through model wrapper that counts how many `complete` calls
/// reach the wrapped endpoint — the ground truth for "model calls" in the
/// perf baseline (usage counters measure tokens, not calls).
pub struct CallCounter<'a> {
    inner: &'a dyn LanguageModel,
    calls: AtomicU64,
}

impl<'a> CallCounter<'a> {
    /// Wraps `inner` with a fresh call counter.
    pub fn new(inner: &'a dyn LanguageModel) -> Self {
        CallCounter {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Completions forwarded to the wrapped endpoint so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Resets the call counter to zero.
    pub fn reset_calls(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }
}

impl LanguageModel for CallCounter<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.complete(prompt)
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
}

/// A minimal JSON object writer (the workspace has no serde): fields are
/// appended in call order, strings are escaped, nested objects and arrays
/// are spliced in raw.
#[derive(Debug)]
pub struct JsonObject {
    out: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(&json_escape(name));
        self.out.push_str("\":");
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        self.out.push_str(&value.to_string());
        self
    }

    /// Adds a string field (escaped).
    pub fn field_str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.out.push('"');
        self.out.push_str(&json_escape(value));
        self.out.push('"');
        self
    }

    /// Adds a pre-rendered JSON value (object or array) verbatim.
    pub fn field_raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.out.push_str(value);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn json_array(elements: &[String]) -> String {
    format!("[{}]", elements.join(","))
}

/// Escapes a string for a JSON literal.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses the common CLI of the bench binaries:
///
/// * `--quick` selects the smoke configuration;
/// * `--seed N` overrides the seed;
/// * `--cache` routes driver traffic through a canonicalizing sharded
///   prompt cache (in-memory);
/// * `--cache-dir DIR` additionally persists per-scenario store files
///   under `DIR`, so repeating the same bench invocation starts warm;
/// * `--faults [none|light|moderate|heavy]` routes driver traffic through
///   the resilient backend over a seeded fault injector (`moderate` when
///   the level is omitted);
/// * `--fault-seed N` seeds the fault schedule independently of the world
///   seed;
/// * `--rate-limit N` adds a client-side token bucket of `N` attempts per
///   second (burst `N/10`, at least 1) to the backend;
/// * `--route [N]` routes backend traffic through an `N`-replica
///   `RoutedBackend` fleet (3 when `N` is omitted) — each replica behind
///   its own breaker and, under `--faults`, its own fault schedule.
pub fn config_from_args() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        if let Some(seed) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            config.seed = seed;
        }
    }
    if args.iter().any(|a| a == "--cache") {
        config.cache = CacheConfig::enabled();
    }
    if let Some(pos) = args.iter().position(|a| a == "--cache-dir") {
        match args.get(pos + 1) {
            Some(dir) if !dir.starts_with("--") => {
                config.cache = CacheConfig {
                    store_dir: Some(dir.into()),
                    ..CacheConfig::enabled()
                };
            }
            _ => eprintln!(
                "warning: --cache-dir requires a directory argument; \
                 persistence disabled"
            ),
        }
    }
    let fault_seed = args
        .iter()
        .position(|a| a == "--fault-seed")
        .and_then(|pos| args.get(pos + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(config.seed);
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        let plan = args
            .get(pos + 1)
            .filter(|level| !level.starts_with("--"))
            .map(|level| {
                FaultPlan::named(level, fault_seed).unwrap_or_else(|| {
                    eprintln!("warning: unknown fault level {level:?}; using moderate");
                    FaultPlan::moderate(fault_seed)
                })
            })
            .unwrap_or_else(|| FaultPlan::moderate(fault_seed));
        config.backend = BackendConfig::resilient(fault_seed).with_faults(plan);
    }
    if let Some(pos) = args.iter().position(|a| a == "--rate-limit") {
        match args.get(pos + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(per_sec) if per_sec > 0 => {
                if !config.backend.enabled {
                    config.backend = BackendConfig::resilient(fault_seed);
                }
                config.backend = config
                    .backend
                    .with_rate_limit(per_sec, (per_sec / 10).max(1));
            }
            _ => eprintln!(
                "warning: --rate-limit requires a positive attempts/sec argument; \
                 rate limiting disabled"
            ),
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--route") {
        let replicas = args
            .get(pos + 1)
            .filter(|v| !v.starts_with("--"))
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(3);
        if !config.backend.enabled {
            config.backend = BackendConfig::resilient(fault_seed);
        }
        config.backend = config.backend.with_route(RoutePlan::replicas(replicas));
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_scale() {
        // Without --quick in the test binary args, the parser should fall
        // back to the paper configuration (args may contain test flags).
        let c = config_from_args();
        assert!(c.queries >= ExperimentConfig::quick().queries);
    }
}
