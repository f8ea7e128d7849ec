//! UniDM: a unified framework for data manipulation with large language
//! models (MLSys 2024 reproduction).
//!
//! UniDM formalizes a data-manipulation task `T` over a data lake `D` as a
//! function `Y = F_T(R, S, D)` and solves *every* such task with one
//! three-step, LLM-driven pipeline (paper §4, Algorithm 1):
//!
//! 1. **Automatic context retrieval** ([`retrieval`]) — prompt `p_rm` picks
//!    helpful attributes (meta-wise), prompt `p_ri` scores sampled records
//!    0–3 (instance-wise), and the top-k projected records become the
//!    tabular context `C`.
//! 2. **Context data parsing** ([`parsing`]) — `serialize()` produces
//!    `attr: value` text, prompt `p_dp` rewrites it into fluent sentences
//!    `C'`.
//! 3. **Target prompt construction** ([`prompting`]) — prompt `p_cq`
//!    rewrites the claim `(T, C', Q)` into a cloze question, which the LLM
//!    completes to produce `Y`.
//!
//! Each step can be disabled through [`PipelineConfig`], reproducing the
//! paper's ablations (Tables 8–10).
//!
//! # Batch execution
//!
//! One evaluation regenerates thousands of independent pipeline runs, so
//! the crate ships a parallel batch engine ([`exec`]) over a two-tier
//! prompt cache ([`cache`], [`store`]):
//!
//! * [`BatchRunner`] fans a `Vec<Task>` out across a scoped worker pool
//!   sharing one `&dyn LanguageModel` (the trait requires `Send + Sync`).
//!   Results return in task order and are bit-for-bit identical to a
//!   serial loop — including per-run [`RunOutput`] usage, which is metered
//!   locally per run (via [`unidm_llm::UsageMeter`]) rather than diffed
//!   from the model's global counter.
//! * [`PromptCache`] memoizes prompt → completion pairs behind the same
//!   `LanguageModel` trait. Tasks over the same table repeat most of their
//!   retrieval (`p_rm`, `p_ri`) and parsing (`p_dp`) prompts, so layering
//!   the cache under a batch deduplicates those calls; [`CacheStats`]
//!   reports hits, misses, evictions and tokens saved — per shard and in
//!   aggregate.
//! * [`canon`] canonicalizes prompts into cache keys
//!   ([`CanonicalPrompt`]): whitespace normalization and (at
//!   [`CanonLevel::TableStem`]) generalization of per-row retrieval
//!   queries, which lifts imputation-workload hit rates from ~2% to ≥20%;
//!   [`CanonLevel::Semantic`] additionally folds `p_dp` record blocks that
//!   differ only in row order and reorderings of `p_ri` instance lists.
//!   The cache is sharded across independently locked maps keyed by
//!   [`CanonicalPrompt::hash64`].
//! * [`store`] is the disk tier beneath the in-memory shards: a
//!   versioned, checksummed, append-only `UDMCACHE3` segment
//!   ([`CacheStore`]) with TinyLFU admission control (so a table scan
//!   cannot flush the hot set) and compaction.
//!   Attach it with [`PromptCache::with_store`]; misses probe the disk
//!   tier before reaching the model, so a warm replay — even into a cold
//!   process — uses zero model calls. It is the only way a completion
//!   outlives the process.
//! * [`backend`] is the resilient client layer beneath the cache:
//!   token-bucket rate limiting, exponential-backoff retry with seeded
//!   jitter and a circuit breaker over any `LanguageModel` — blocking, or
//!   as events on the [`dispatch`] reactor with optional hedging — all on
//!   a virtual clock, and testable offline against the seeded fault injector
//!   [`unidm_llm::SimBackend`]. Cache hits never reach the backend, so
//!   they consume zero rate-limit budget; faulty runs return answers
//!   bit-identical to fault-free ones.
//! * [`route`] spreads traffic over a fleet: [`RoutedBackend`] routes
//!   each call uniformly to one of N endpoints — per-endpoint circuit
//!   breakers, latency sketches and AIMD rate adaptation driven by
//!   observed 429s — and [`CascadeBackend`] sends every prompt to a cheap
//!   model first, escalating to the large model only when the answer is
//!   unparseable or below a confidence gate. Both report exact
//!   [`RouterStats`] and keep answers byte-identical to a direct call.
//!
//! The eval harness (`unidm-eval`) drives every per-table accuracy loop
//! through this engine (opt into caching with
//! `unidm_eval::CacheConfig`, into the backend with
//! `ExperimentConfig::backend`), and `cargo run -p unidm-bench --bin
//! throughput` writes the counters-only ledger `BENCH_<n>.json`: exact
//! model calls, tokens, cache and backend counters and virtual-time
//! timelines for every regime, byte-reproducible from the tree.
//!
//! # Quickstart
//!
//! ```
//! use unidm::{PipelineConfig, Task, UniDm};
//! use unidm_llm::{LlmProfile, MockLlm};
//! use unidm_tablestore::{DataLake, Table, Value};
//! use unidm_world::World;
//!
//! # fn main() -> Result<(), unidm::UniDmError> {
//! let world = World::generate(42);
//! let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
//!
//! let mut cities = Table::builder("cities")
//!     .columns(["city", "country", "timezone"])
//!     .build();
//! cities.push_row(vec![
//!     Value::text("Florence"),
//!     Value::text("Italy"),
//!     Value::text("Central European Time"),
//! ]).unwrap();
//! cities.push_row(vec![
//!     Value::text("Copenhagen"),
//!     Value::text("Denmark"),
//!     Value::Null,
//! ]).unwrap();
//! let lake: DataLake = [cities].into_iter().collect();
//!
//! let unidm = UniDm::new(&llm, PipelineConfig::paper_default());
//! let task = Task::imputation("cities", 1, "timezone", "city");
//! let output = unidm.run(&lake, &task)?;
//! assert_eq!(output.answer, "Central European Time");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod canon;
mod config;
pub mod dispatch;
mod error;
pub mod exec;
mod frame;
pub mod html;
pub mod parsing;
pub mod pipeline;
pub mod prompting;
mod resilience;
pub mod retrieval;
pub mod route;
pub mod serve;
pub mod store;
mod task;

pub use backend::{
    AttachedBackend, BackendConfig, BackendStats, BreakerPolicy, LatencySketch, RetryPolicy,
};
pub use cache::{CacheStats, PromptCache};
pub use canon::{CanonLevel, CanonicalPrompt, ReplayFold};
pub use config::PipelineConfig;
pub use dispatch::{DispatchRegistration, Dispatcher, HedgePolicy};
pub use error::UniDmError;
pub use exec::{BatchReport, BatchRunner, StreamReport, DEFAULT_PARTITION_TASKS};
pub use pipeline::{RunOutput, Trace, UniDm};
pub use route::{
    AimdPolicy, CascadeBackend, CascadePolicy, EndpointConfig, EndpointStats, RoutePlan,
    RoutedBackend, RouterStats,
};
pub use serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim, TenantReport, TenantSpec};
pub use store::{CacheStore, StoreConfig, StoreError, StoreStats};
pub use task::Task;
