//! Batched quickstart: run a whole imputation workload through the
//! batch engine with a canonicalizing prompt cache, then rerun it warm
//! from the cache's disk tier.
//!
//! Where `quickstart` runs one task through `UniDm::run`, this example
//! builds a batch of tasks over one table, layers a [`PromptCache`] over
//! the model — sharded, and canonicalized at [`CanonLevel::TableStem`] so
//! every row shares the table-level retrieval entry — and runs the batch
//! with [`BatchRunner`], deduplicated, on one worker. The cache sits over a
//! [`CacheStore`] file, so replaying the same workload through a fresh
//! cache over the same file answers entirely from the store, before any
//! model call.
//!
//! ```text
//! cargo run --example batch_quickstart
//! ```

use unidm::{BatchRunner, CacheStore, CanonLevel, PipelineConfig, PromptCache, StoreConfig, Task};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);

    // A 40-row imputation workload over the Restaurant benchmark table:
    // every target row is missing its city.
    let ds = imputation::restaurant(&world, 42, 40);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let tasks: Vec<Task> = ds
        .targets
        .iter()
        .map(|t| {
            Task::imputation(
                ds.table.name(),
                t.row,
                ds.target_attr.clone(),
                ds.key_attr.clone(),
            )
        })
        .collect();

    // The cache is itself a `LanguageModel`, so the runner drives it
    // like any model. Table-stem canonicalization folds
    // the per-row retrieval preambles into shared entries. The store
    // beneath it appends every fresh completion to a model-guarded file.
    let store_path = std::env::temp_dir().join(format!(
        "unidm-batch-quickstart-{}.udmstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);
    let cache = PromptCache::unbounded(&llm)
        .with_shards(8)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(CacheStore::open(
            &store_path,
            llm.name(),
            StoreConfig::default(),
        )?);
    let runner = BatchRunner::new(&cache, PipelineConfig::paper_default().with_seed(42));
    println!(
        "Running {} imputation tasks on the calling thread...\n",
        tasks.len()
    );
    let outputs = runner.run(&lake, &tasks);

    let mut correct = 0usize;
    let mut run_tokens = 0usize;
    for (out, target) in outputs.iter().zip(&ds.targets) {
        let out = out.as_ref().map_err(Clone::clone)?;
        if out.answer.eq_ignore_ascii_case(&target.truth.to_string()) {
            correct += 1;
        }
        // Per-run cost comes from the run's own meter, not a global diff.
        run_tokens += out.usage.total();
    }

    let stats = cache.stats();
    println!("Accuracy: {correct}/{} correct", outputs.len());
    println!("Logical tokens across runs: {run_tokens}");
    println!(
        "Tokens the model actually processed: {}",
        llm.usage().total()
    );
    println!(
        "Prompt cache ({} shards, {} canonicalization): {} hits / {} misses \
         ({:.0}% hit rate), {} tokens saved",
        cache.shards(),
        cache.level(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.tokens_saved,
    );

    // Warm-start a second run — fresh model, fresh tier 0 — from the same
    // store file: what a repeated eval run does with `--cache-dir`.
    drop(cache);
    println!("\nCompletions persisted to {}", store_path.display());

    let fresh_llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let warm = PromptCache::unbounded(&fresh_llm)
        .with_shards(8)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(CacheStore::open(
            &store_path,
            fresh_llm.name(),
            StoreConfig::default(),
        )?);
    let warm_runner = BatchRunner::new(&warm, PipelineConfig::paper_default().with_seed(42));
    let warm_outputs = warm_runner.run(&lake, &tasks);
    let store_stats = warm.store_stats().expect("store attached");
    println!(
        "Warm start: {} entries on disk; rerun hit the store {} times / missed {} \
         with {} model tokens",
        warm.store().expect("store attached").len(),
        store_stats.hits,
        store_stats.misses,
        fresh_llm.usage().total(),
    );
    assert_eq!(
        fresh_llm.usage().total(),
        0,
        "the rerun costs 0 model tokens"
    );
    for (cold, warm) in outputs.iter().zip(&warm_outputs) {
        assert_eq!(
            cold.as_ref().map_err(Clone::clone)?.answer,
            warm.as_ref().map_err(Clone::clone)?.answer,
            "warm answers must match the cold run bit-for-bit"
        );
    }
    let _ = std::fs::remove_file(&store_path);
    Ok(())
}
