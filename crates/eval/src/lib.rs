//! Experiment runners regenerating every table and figure of the UniDM
//! paper, plus the metrics they report.
//!
//! Each `table*` function returns a [`report::TableReport`] whose rows
//! mirror the paper's rows, and [`joins::fig5`] a [`joins::SweepReport`].
//! [`TABLES`] lists them all once, in print order; `all_tables` prints
//! them. Runners are deterministic functions of an [`ExperimentConfig`].
//!
//! Drivers route their LLM traffic through the batch engine's prompt
//! cache when [`ExperimentConfig::cache`] opts in (see [`CacheConfig`]):
//! with a store directory configured, a repeated run of the same
//! table/seed/model scenario starts warm and serves its repeated prompts
//! without touching the model.
//!
//! [`ExperimentConfig::backend`] additionally threads every driver's
//! model through the resilient backend substrate
//! (`unidm::backend`) — rate limiting, retry, circuit breaking, and
//! optionally a seeded fault injector — *under* the cache, so cache hits
//! never consume rate-limit budget and a faulty run reproduces the
//! fault-free tables bit-for-bit.
//!
//! | Function | Paper object |
//! |---|---|
//! | [`imputation::table1`] | Table 1 — imputation accuracy |
//! | [`transformation::table2`] | Table 2 — transformation accuracy |
//! | [`errors::table3`] | Table 3 — error-detection F1 |
//! | [`matching::table4`] | Table 4 — entity-resolution F1 |
//! | [`finetune::table5`] | Table 5 — fine-tuning F1 |
//! | [`zoo::table6`] | Table 6 — imputation across LLM variants |
//! | [`tokens::table7`] | Table 7 — token consumption per query |
//! | [`ablation::table8`] / [`ablation::table9`] / [`ablation::table10`] | Tables 8–10 — component ablations |
//! | [`extraction::table11`] | Table 11 — information-extraction F1 |
//! | [`joins::fig5`] | Figure 5 — join-discovery sweep |
//! | [`TABLES`] | every row above as (name, driver), in print order |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod errors;
pub mod extraction;
pub mod finetune;
pub mod imputation;
pub mod joins;
pub mod matching;
pub mod metrics;
pub mod report;
pub mod streams;
pub mod tokens;
pub mod transformation;
pub mod zoo;

pub use cache::{AttachedCache, CacheConfig};
use report::Report;
pub use unidm::backend::BackendConfig;
pub use unidm::dispatch::HedgePolicy;
pub use unidm::route::{AimdPolicy, RoutePlan};

/// Shared configuration of an experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// World seed (datasets and the model's knowledge derive from it).
    pub seed: u64,
    /// Number of evaluation queries per dataset (tables cap at the dataset
    /// size). The paper-scale default is 100+; CI uses less.
    pub queries: usize,
    /// Prompt-cache settings (disabled by default — enable for warm
    /// repeated runs).
    pub cache: CacheConfig,
    /// Resilient-backend settings (disabled by default). When enabled,
    /// every driver threads its model through
    /// [`unidm::backend::BackendConfig::wrap`] *under* the prompt cache,
    /// so cache hits bypass rate limiting and fault injection entirely.
    pub backend: BackendConfig,
}

impl ExperimentConfig {
    /// Paper-scale run: a few hundred queries per cell.
    pub fn paper() -> Self {
        ExperimentConfig {
            seed: 42,
            queries: 150,
            cache: CacheConfig::default(),
            backend: BackendConfig::default(),
        }
    }

    /// Quick run for tests and smoke checks.
    pub fn quick() -> Self {
        ExperimentConfig {
            seed: 42,
            queries: 30,
            cache: CacheConfig::default(),
            backend: BackendConfig::default(),
        }
    }

    /// Replaces the cache settings (builder-style).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the backend settings (builder-style).
    pub fn with_backend(mut self, backend: BackendConfig) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A table or figure's driver: one run of its experiment.
pub type Driver = fn(ExperimentConfig) -> Report;

/// Every table and figure of the paper as (name, driver), in the order
/// `all_tables` prints them. The names are what `all_tables --only` takes.
pub const TABLES: &[(&str, Driver)] = &[
    ("table1", |c| Report::Table(imputation::table1(c))),
    ("table2", |c| Report::Table(transformation::table2(c))),
    ("table3", |c| Report::Table(errors::table3(c))),
    ("table4", |c| Report::Table(matching::table4(c))),
    ("table5", |c| Report::Table(finetune::table5(c))),
    ("table6", |c| Report::Table(zoo::table6(c))),
    ("table7", |c| Report::Table(tokens::table7(c))),
    ("table8", |c| Report::Table(ablation::table8(c))),
    ("table9", |c| Report::Table(ablation::table9(c))),
    ("table10", |c| Report::Table(ablation::table10(c))),
    ("table11", |c| Report::Table(extraction::table11(c))),
    ("fig5", |c| Report::Sweep(joins::fig5(c))),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_differ_in_scale() {
        assert!(ExperimentConfig::paper().queries > ExperimentConfig::quick().queries);
    }
}
