//! Opt-in prompt caching for the experiment runners.
//!
//! Every table driver builds its model, then calls
//! [`CacheConfig::attach`] with a scenario name. When caching is enabled
//! the driver's LLM traffic flows through a sharded, canonicalizing
//! [`PromptCache`]; when a store directory is configured the cache sits
//! over a per-scenario [`CacheStore`] file, so repeating an eval run
//! answers its repeated prompts before any model call.
//!
//! Store files are keyed by scenario name — which embeds the table, the
//! model, and the seed — and additionally carry the model name inside the
//! file, so completions recorded over one model are never served to
//! another (see [`unidm::StoreError::ModelMismatch`]).
//!
//! Caching is off by default: the paper tables are regenerated with exact
//! memoization semantics unless the caller opts in (the bench binaries
//! expose this as `--cache` / `--cache-dir`).

use std::path::PathBuf;

use unidm::{CacheStats, CacheStore, CanonLevel, PromptCache, StoreConfig, StoreStats};
use unidm_llm::LanguageModel;

/// Prompt-cache settings shared by every experiment driver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Whether drivers route their model traffic through a [`PromptCache`].
    pub enabled: bool,
    /// Canonicalization level of the attached caches.
    pub level: CanonLevel,
    /// Directory of per-scenario `UDMCACHE2` store files (created on first
    /// use); `None` keeps caches in-memory only.
    pub store_dir: Option<PathBuf>,
}

impl CacheConfig {
    /// Caching enabled at [`CanonLevel::TableStem`] — the level that folds
    /// per-row retrieval prompts and lifts imputation hit rates an order
    /// of magnitude — with no persistence.
    pub fn enabled() -> Self {
        CacheConfig {
            enabled: true,
            level: CanonLevel::TableStem,
            ..CacheConfig::default()
        }
    }

    /// Wraps `llm` according to this configuration.
    ///
    /// `scenario` names the workload (e.g. `"table1-seed42"`) and becomes
    /// the store file name, `<store_dir>/<scenario>.udmstore`; completions
    /// an earlier run appended there are served before any model call.
    /// Open failures (unwritable directory, mismatched model, corrupt
    /// file) fall back to a cold in-memory cache — a warm start is an
    /// optimization, never a correctness requirement.
    pub fn attach<'a>(&self, scenario: &str, llm: &'a dyn LanguageModel) -> AttachedCache<'a> {
        if !self.enabled {
            return AttachedCache {
                fallback: llm,
                cache: None,
            };
        }
        let mut cache = PromptCache::unbounded(llm).with_canonicalization(self.level);
        if let Some(dir) = &self.store_dir {
            let path = dir.join(format!("{scenario}.udmstore"));
            // `open` creates missing parent directories, so a directory
            // that cannot be created surfaces here too.
            match CacheStore::open(&path, llm.name(), StoreConfig::default()) {
                Ok(store) => cache = cache.with_store(store),
                Err(e) => eprintln!(
                    "warning: disk tier disabled for {scenario} ({}): {e}",
                    path.display()
                ),
            }
        }
        AttachedCache {
            fallback: llm,
            cache: Some(cache),
        }
    }
}

/// A model reference optionally wrapped in a configured [`PromptCache`]
/// (see [`CacheConfig::attach`]).
pub struct AttachedCache<'a> {
    fallback: &'a dyn LanguageModel,
    cache: Option<PromptCache<'a>>,
}

impl<'a> AttachedCache<'a> {
    /// The model the driver should talk to: the cache when enabled, the
    /// bare model otherwise.
    pub fn model(&self) -> &dyn LanguageModel {
        match &self.cache {
            Some(cache) => cache,
            None => self.fallback,
        }
    }

    /// Aggregated cache statistics, when caching is enabled.
    pub fn stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(PromptCache::stats)
    }

    /// Disk-tier statistics, when a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.as_ref().and_then(PromptCache::store_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn llm() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
    }

    fn persisted(dir: &std::path::Path) -> CacheConfig {
        CacheConfig {
            store_dir: Some(dir.to_path_buf()),
            ..CacheConfig::enabled()
        }
    }

    #[test]
    fn disabled_config_passes_the_model_through() {
        let model = llm();
        let attached = CacheConfig::default().attach("t", &model);
        assert!(attached.stats().is_none());
        attached.model().complete("hello").unwrap();
        assert!(model.usage().total() > 0);
    }

    #[test]
    fn enabled_config_caches_and_persists_per_scenario() {
        let dir = std::env::temp_dir().join(format!("unidm-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = persisted(&dir);

        let model = llm();
        let cold = config.attach("scenario-a", &model);
        cold.model().complete("a repeated prompt").unwrap();
        cold.model().complete("a repeated prompt").unwrap();
        assert_eq!(cold.stats().unwrap().hits, 1);
        let stats = cold.store_stats().unwrap();
        assert_eq!(
            (stats.hits, stats.admitted),
            (0, 1),
            "first run starts cold"
        );
        drop(cold);

        let fresh = llm();
        let warm = config.attach("scenario-a", &fresh);
        warm.model().complete("a repeated prompt").unwrap();
        assert_eq!(
            fresh.usage().total(),
            0,
            "warm run answers before any model call"
        );
        assert_eq!(
            warm.store_stats().unwrap().hits,
            1,
            "second run reads what the first persisted"
        );

        // A different scenario does not see scenario-a's completions.
        let other = config.attach("scenario-b", &fresh);
        other.model().complete("a repeated prompt").unwrap();
        assert_eq!(other.store_stats().unwrap().hits, 0);
        assert!(fresh.usage().total() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_model_snapshot_falls_back_to_cold() {
        let dir = std::env::temp_dir().join(format!("unidm-cache-mm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = persisted(&dir);
        let gpt3 = llm();
        let first = config.attach("shared", &gpt3);
        first.model().complete("alpha").unwrap();
        drop(first);

        let gpt4 = MockLlm::new(&World::generate(7), LlmProfile::gpt4_turbo(), 7);
        let second = config.attach("shared", &gpt4);
        assert!(
            second.store_stats().is_none(),
            "a store written over another model must not attach"
        );
        second.model().complete("alpha").unwrap();
        assert!(gpt4.usage().total() > 0, "the run proceeds cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncreatable_store_dir_runs_cold_with_correct_answers() {
        let dir = std::env::temp_dir().join(format!("unidm-cache-nodir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("a-regular-file");
        std::fs::write(&blocker, b"not a directory").unwrap();

        let model = llm();
        let expected = model.complete("a repeated prompt").unwrap();
        model.reset_usage();

        let attached = persisted(&blocker.join("stores")).attach("scenario-a", &model);
        assert!(attached.store_stats().is_none(), "no disk tier attached");
        let first = attached.model().complete("a repeated prompt").unwrap();
        let second = attached.model().complete("a repeated prompt").unwrap();
        assert_eq!(first, expected);
        assert_eq!(second, expected);
        assert_eq!(attached.stats().unwrap().hits, 1, "tier 0 still caches");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
