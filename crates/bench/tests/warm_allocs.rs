//! The warm hit path allocates nothing, at every canonicalization level:
//! re-looking up a cache's own canonical texts must not touch the heap.
//! Counted by `unidm_bench`'s global counting allocator, which is why this
//! lives here (`unidm` itself forbids the `unsafe` an allocator needs).
//!
//! One test function on purpose: the counters are process-global, so a
//! second test running beside it would show up in the count.

use unidm::{CanonLevel, PromptCache};
use unidm_bench::alloc_counter::AllocationDelta;
use unidm_llm::protocol::{
    render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_world::World;

#[test]
fn warm_hits_allocate_nothing_at_any_level() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    // Unsorted lists (so `Semantic` folds them on the way in), a
    // per-row retrieval query (so `TableStem` rewrites it) and loose
    // whitespace (so `Whitespace` normalizes it): every level stores a
    // canonical text that differs from what it was sent.
    let records: Vec<SerializedRecord> = [
        ("Florence", "Italy"),
        ("Cork", "Ireland"),
        ("Bergen", "Norway"),
    ]
    .into_iter()
    .map(|(city, country)| {
        SerializedRecord::new(vec![
            ("city".into(), city.into()),
            ("country".into(), country.into()),
        ])
    })
    .collect();
    let candidates = ["country".to_string(), "population".to_string()];
    let prompts = [
        render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates),
        render_pri(TaskKind::Imputation, "Copenhagen, timezone", &records),
        render_pdp(&records),
        render_pcq(&Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy.".into(),
            query: "city: Copenhagen; country: ?".into(),
        }),
        "Copenhagen  belongs to\tthe country __. ".to_string(),
    ];
    for level in [
        CanonLevel::Verbatim,
        CanonLevel::Whitespace,
        CanonLevel::TableStem,
        CanonLevel::Semantic,
    ] {
        let cache = PromptCache::unbounded(&llm).with_canonicalization(level);
        for prompt in &prompts {
            cache.complete(prompt).expect("prompt completes");
        }
        let canonical = cache.canonical_prompts();
        assert_eq!(canonical.len(), prompts.len());
        let before = cache.stats();
        // The harness's own threads may allocate beside a pass; they can
        // only add, so one clean pass proves the path.
        let fewest = (0..3)
            .map(|_| {
                let section = AllocationDelta::start();
                for text in &canonical {
                    let _ = std::hint::black_box(cache.complete(text));
                }
                section.allocations()
            })
            .min();
        assert_eq!(fewest, Some(0), "warm hits allocated at {level}");
        let after = cache.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses),
            (3 * canonical.len(), before.misses),
            "every re-lookup hit at {level}"
        );
    }
}
