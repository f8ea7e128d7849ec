//! The warm paths allocate nothing. Re-looking up a cache's own canonical
//! texts must not touch the heap, at every canonicalization level; and a
//! repeat attempt on a prompt the fault injector has already seen adds no
//! allocation to the inner model's own, whatever the schedule makes of it —
//! nor does a repeat call through a routed fleet of injectors, which keeps
//! one copy of a prompt however many replicas see it, and none at all when
//! it owns no injector. The disk tier holds a prompt once as well: a hit
//! copies out the completion and nothing of the prompt, and compaction
//! streams the file instead of building it in memory.
//! Counted by `unidm_bench`'s global counting allocator, which is why this
//! lives here (`unidm` itself forbids the `unsafe` an allocator needs).
//!
//! The counters are process-global, so the tests take turns
//! ([`QUIESCENT`]): one running beside another would show up in its count.

use std::sync::{Arc, Mutex, PoisonError};

use unidm::{
    BackendConfig, CacheStore, CanonLevel, PromptCache, RoutePlan, RoutedBackend, StoreConfig,
};
use unidm_bench::alloc_counter::{
    live_bytes, peak_live_bytes, reset_peak_to_live, AllocationDelta,
};
use unidm_llm::protocol::{
    render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
};
use unidm_llm::{
    Completion, FaultPlan, LanguageModel, LlmError, LlmProfile, MockLlm, SimBackend, Usage,
};
use unidm_world::World;

/// Held by each test for its whole body.
static QUIESCENT: Mutex<()> = Mutex::new(());

#[test]
fn warm_hits_allocate_nothing_at_any_level() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
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

/// Hands every prompt the same shared completion: a model whose own
/// allocation count is zero, so whatever a call through the injector
/// allocates is the injector's.
struct SharedAnswer(Arc<Completion>);

impl LanguageModel for SharedAnswer {
    fn name(&self) -> &str {
        "shared-answer"
    }

    fn complete(&self, _prompt: &str) -> Result<Arc<Completion>, LlmError> {
        Ok(self.0.clone())
    }

    fn usage(&self) -> Usage {
        Usage::default()
    }

    fn reset_usage(&self) {}
}

/// `count` distinct stream-sized (2 kB) prompts, told apart by `tag`.
fn stream_prompts(tag: &str, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut prompt = format!("{tag} {i}: ");
            while prompt.len() < 2048 {
                prompt.push_str("Claim: the record's timezone is __. ");
            }
            prompt
        })
        .collect()
}

#[test]
fn repeat_attempts_through_the_fault_injector_allocate_nothing() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let model = SharedAnswer(Completion::shared("yes".to_string(), Usage::default()));
    // Stream-sized prompts: a copy or a `format!` per attempt would show.
    let prompts = stream_prompts("attempt", 24);
    for endpoint in [None, Some(3)] {
        let sim = SimBackend::new(&model, FaultPlan::moderate(7));
        let sim = match endpoint {
            Some(id) => sim.with_endpoint(id),
            None => sim,
        };
        // A prompt's first attempt files it; every later one is a repeat.
        for prompt in &prompts {
            let _ = sim.sample_attempt(prompt);
        }
        let before = sim.stats();
        // The harness's own threads may allocate beside a pass; they can
        // only add, so one clean pass proves the path. Every pass walks
        // fresh schedule slots, 40 per prompt.
        let fewest = (0..3)
            .map(|_| {
                let section = AllocationDelta::start();
                for _ in 0..40 {
                    for prompt in &prompts {
                        let _ = std::hint::black_box(sim.sample_attempt(prompt));
                    }
                }
                section.allocations()
            })
            .min();
        assert_eq!(
            fewest,
            Some(0),
            "repeat attempts allocated, endpoint {endpoint:?}"
        );
        let after = sim.stats();
        assert!(
            after.clean > before.clean
                && after.slow > before.slow
                && after.timeouts > before.timeouts
                && after.rate_limits > before.rate_limits
                && after.transients > before.transients
                && after.forced_successes > before.forced_successes,
            "every outcome kind was probed: {before:?} -> {after:?}"
        );
    }
}

/// Three replicas behind `FaultPlan::moderate`, or — without `faults` —
/// behind nothing. No breaker: a skipped replica is collected in a `Vec`.
fn fleet(model: &dyn LanguageModel, faults: bool) -> RoutedBackend<'_> {
    let config = BackendConfig::resilient(7).with_route(RoutePlan::replicas(3).without_breaker());
    let faults = faults.then(|| FaultPlan::moderate(7));
    RoutedBackend::from_plan(model, BackendConfig { faults, ..config })
}

#[test]
fn repeat_calls_through_a_routed_fleet_allocate_nothing() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let model = SharedAnswer(Completion::shared("yes".to_string(), Usage::default()));
    let prompts = stream_prompts("repeat", 24);
    let router = fleet(&model, true);
    // Retries re-route, so enough rounds file every prompt with every
    // replica that will ever see it in the passes below.
    for _ in 0..60 {
        for prompt in &prompts {
            router
                .complete(prompt)
                .expect("the retry budget covers the plan");
        }
    }
    let before = router.stats();
    let fewest = (0..3)
        .map(|_| {
            let section = AllocationDelta::start();
            for _ in 0..10 {
                for prompt in &prompts {
                    let _ = std::hint::black_box(router.complete(prompt));
                }
            }
            section.allocations()
        })
        .min();
    assert_eq!(fewest, Some(0), "repeat routed calls allocated");
    let after = router.stats();
    assert!(
        after.retries > before.retries
            && (0..3).all(|i| after.endpoints[i].attempts > before.endpoints[i].attempts),
        "every replica and the backoff were probed: {before:?} -> {after:?}"
    );
}

#[test]
fn a_routed_fleet_keeps_one_copy_of_a_prompt_and_a_direct_one_keeps_none() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let model = SharedAnswer(Completion::shared("yes".to_string(), Usage::default()));
    // The harness's own threads may allocate beside a pass; they can only
    // add, so the smallest growth over three fresh stacks is the stack's.
    let growth = |faults: bool| {
        (0..3)
            .map(|pass| {
                let prompts = stream_prompts(&format!("pass {pass}"), 200);
                let text_bytes: usize = prompts.iter().map(String::len).sum();
                let router = fleet(&model, faults);
                let before = live_bytes();
                // Sixty calls each: retries re-route, so every replica's
                // injector comes to see nearly every prompt.
                for _ in 0..60 {
                    for prompt in &prompts {
                        let _ = std::hint::black_box(router.complete(prompt));
                    }
                }
                let grown = live_bytes().saturating_sub(before);
                if faults {
                    let seen: Vec<u64> = router
                        .stats()
                        .endpoints
                        .iter()
                        .map(|e| e.attempts)
                        .collect();
                    assert!(
                        seen.iter().all(|&n| n > 200),
                        "every replica served: {seen:?}"
                    );
                }
                (grown, text_bytes as u64)
            })
            .min()
            .expect("three passes")
    };
    let (grown, text_bytes) = growth(true);
    assert!(
        grown > text_bytes && grown < 2 * text_bytes,
        "a stack with injectors holds one copy of each prompt: {grown} B over {text_bytes} B of text"
    );
    let (grown, _) = growth(false);
    assert_eq!(grown, 0, "a router over direct endpoints retains no prompt");
}

/// A fresh store at a per-process scratch path tagged `tag`.
fn scratch_store(tag: &str) -> (CacheStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("unidm-warm-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{tag}.udmstore"));
    let _ = std::fs::remove_file(&path);
    let store = CacheStore::open(&path, "shared-answer", StoreConfig::default()).expect("opens");
    (store, path)
}

#[test]
fn a_disk_hit_allocates_nothing_for_the_prompt() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let prompts = stream_prompts("disk hit", 16);
    let answer = Completion::shared("yes".to_string(), Usage::default());
    let (store, path) = scratch_store("hit");
    for prompt in &prompts {
        assert!(store.offer(prompt, &answer));
    }
    // The first read sizes the store's frame buffer.
    assert!(store.get(&prompts[0]).is_some());
    // The harness's own threads may allocate beside a pass; they can only
    // add, so one clean pass proves the path.
    let (allocations, bytes) = (0..3)
        .map(|_| {
            let section = AllocationDelta::start();
            for prompt in &prompts {
                let hit = std::hint::black_box(store.get(prompt));
                assert_eq!(hit.expect("resident").text, "yes");
            }
            (section.allocations(), section.bytes())
        })
        .min()
        .expect("three passes");
    // Per hit: the completion's text and the `Arc` it is returned in.
    assert_eq!(
        allocations,
        2 * prompts.len() as u64,
        "a hit allocated more than its completion"
    );
    assert!(
        bytes < prompts[0].len() as u64,
        "{} hits allocated {bytes} B, more than one {}-byte prompt",
        prompts.len(),
        prompts[0].len()
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compaction_streams_the_file_instead_of_holding_it() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let prompts = stream_prompts("compacted", 3_072);
    let answer = Completion::shared("yes".to_string(), Usage::default());
    // The harness's own threads may allocate beside a pass; they can only
    // add, so the smallest rise over three fresh stores is compaction's.
    let (rise, file_bytes) = (0..3)
        .map(|pass| {
            let (store, path) = scratch_store(&format!("compact-{pass}"));
            for prompt in &prompts {
                store.offer(prompt, &answer);
            }
            let file_bytes = std::fs::metadata(&path).expect("store file").len();
            let baseline = reset_peak_to_live();
            assert_eq!(store.compact().expect("compacts"), 0);
            let rise = peak_live_bytes().saturating_sub(baseline);
            assert_eq!(store.len(), prompts.len());
            drop(store);
            let _ = std::fs::remove_file(&path);
            (rise, file_bytes)
        })
        .min()
        .expect("three passes");
    assert!(
        rise < file_bytes,
        "compacting a {file_bytes} B store raised peak live bytes by {rise} B"
    );
}
