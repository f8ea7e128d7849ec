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
//! the crate ships an execution stack, each layer behind the same
//! `LanguageModel` trait and documented in its module:
//!
//! * [`exec`] — [`BatchRunner`] runs a `Vec<Task>` serially, on a scoped
//!   worker pool, or as a window of [`Run`] step machines on one thread
//!   over the [`dispatch`] reactor; results are bit-for-bit those of a
//!   serial loop, per-run [`RunOutput`] usage included.
//! * [`cache`], [`canon`], [`store`] — [`PromptCache`] memoizes
//!   completions under [`CanonicalPrompt`] keys (whitespace, per-row
//!   retrieval preambles and, at [`CanonLevel::Semantic`], list order
//!   folded), single-flight and sharded, over an optional `UDMCACHE3`
//!   disk tier ([`CacheStore`], TinyLFU admission) through which a warm
//!   replay into a cold process makes zero model calls.
//! * [`backend`], [`dispatch`], [`route`] — rate limiting, seeded-jitter
//!   retry, circuit breaking, hedging, fleet routing and model cascades on
//!   a virtual clock, testable offline against [`unidm_llm::SimBackend`];
//!   faulty runs answer bit-identically to fault-free ones.
//!
//! The eval harness (`unidm-eval`) drives every per-table accuracy loop
//! through this stack, and `cargo run -p unidm-bench --bin throughput`
//! writes the counters-only ledger `BENCH_<n>.json`, byte-reproducible
//! from the tree.
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
pub use dispatch::{Dispatcher, HedgePolicy, Reply, Ticket};
pub use error::UniDmError;
pub use exec::{BatchReport, BatchRunner, StreamReport, DEFAULT_PARTITION_TASKS};
pub use pipeline::{Run, RunOutput, Step, Trace, UniDm};
pub use route::{
    AimdPolicy, CascadeBackend, CascadePolicy, EndpointConfig, EndpointStats, RoutePlan,
    RoutedBackend, RouterStats,
};
pub use serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim, TenantReport, TenantSpec};
pub use store::{CacheStore, StoreConfig, StoreError, StoreStats};
pub use task::Task;
