//! The fold memo against a memo-free reference. At
//! [`CanonLevel::Semantic`] a cache remembers, per reordered raw prompt,
//! what its fold produced; a repeat is served from that memo instead of
//! folding again. The reference is a twin cache fed each lookup's
//! canonical text — which never folds, so never touches the memo — with
//! its reply adapted by the lookup's own [`ReplayFold::adapt`]: the
//! folding path, spelled out.
//!
//! Seeded operation sequences mix canonical texts, reordered `p_ri` and
//! `p_dp` variants (every rotation and the reversal) and a plain prompt,
//! with repeats, over capacities {1, 4, unbounded} × shards {1, 8}. The
//! stub model's answer to a text changes on every call, so a canonical
//! entry evicted and refilled holds a new completion, and a memo that
//! served its old adaptation would show. After every operation the
//! answer (text and usage), every `CacheStats` field and the resident
//! keys must equal the reference's.
//!
//! [`ReplayFold::adapt`]: unidm::ReplayFold::adapt

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unidm::{CanonLevel, CanonicalPrompt, PromptCache};
use unidm_llm::protocol::TaskKind;
use unidm_llm::protocol::{parse_pdp, parse_pri, render_pdp, render_pri, SerializedRecord};
use unidm_llm::{Completion, LanguageModel, LlmError, Usage};

/// Answers a `p_ri` prompt with one score per instance and a `p_dp`
/// prompt with one line per record, both drawn from the element's text,
/// so a reordered request's adapted answer differs from the canonical
/// one. With `varies`, every answer also carries the call's number.
struct Stub {
    varies: bool,
    calls: AtomicUsize,
    tokens: AtomicUsize,
}

impl Stub {
    fn new(varies: bool) -> Stub {
        Stub {
            varies,
            calls: AtomicUsize::new(0),
            tokens: AtomicUsize::new(0),
        }
    }
}

impl LanguageModel for Stub {
    fn name(&self) -> &str {
        "fold-stub"
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        let tag = if self.varies { call } else { 0 };
        let text = if let Some(request) = parse_pri(prompt) {
            let scores: Vec<String> = request
                .instances
                .iter()
                .enumerate()
                .map(|(i, record)| format!("{}:{}", i + 1, (record.render().len() + tag) % 4))
                .collect();
            scores.join(", ")
        } else if let Some(request) = parse_pdp(prompt) {
            let lines: Vec<String> = request
                .records
                .iter()
                .map(|record| format!("{} (call {tag})", record.render()))
                .collect();
            lines.join("\n")
        } else {
            format!("answer {tag}")
        };
        let usage = Usage {
            prompt_tokens: prompt.len() / 4,
            completion_tokens: 1 + tag % 5,
        };
        self.tokens.fetch_add(usage.total(), Ordering::SeqCst);
        Ok(Completion::shared(text, usage))
    }

    fn usage(&self) -> Usage {
        Usage::default()
    }

    fn reset_usage(&self) {}
}

fn record(city: &str, country: &str, population: &str) -> SerializedRecord {
    SerializedRecord::new(vec![
        ("city".into(), city.into()),
        ("country".into(), country.into()),
        ("population".into(), population.into()),
    ])
}

/// Every rotation + the reversal of `items`.
fn orderings(items: &[SerializedRecord]) -> Vec<Vec<SerializedRecord>> {
    let mut out = Vec::new();
    for start in 0..items.len() {
        let mut rotated = items.to_vec();
        rotated.rotate_left(start);
        out.push(rotated);
    }
    let mut reversed = items.to_vec();
    reversed.reverse();
    out.push(reversed);
    out
}

/// The prompts the sequences draw from: every ordering of three record
/// sets as `p_ri` and `p_dp`, their canonical texts, and a plain prompt.
fn pool() -> Vec<String> {
    let sets = [
        vec![
            record("Cork", "Ireland", "210000"),
            record("Alicante", "Spain", "337000"),
            record("Bergen", "Norway", "285000"),
        ],
        vec![
            record("Turku", "Finland", "195000"),
            record("Graz", "Austria", "291000"),
            record("Lyon", "France", "516000"),
            record("Porto", "Portugal", "232000"),
        ],
        vec![
            record("Split", "Croatia", "178000"),
            record("Aarhus", "Denmark", "285000"),
        ],
    ];
    let mut prompts = vec!["Copenhagen belongs to the country __.".to_string()];
    for set in &sets {
        for order in orderings(set) {
            prompts.push(render_pri(
                TaskKind::Imputation,
                "Copenhagen, Denmark",
                &order,
            ));
            prompts.push(render_pdp(&order));
        }
    }
    let canonical: Vec<String> = prompts
        .iter()
        .map(|p| {
            CanonicalPrompt::canonicalize(p, CanonLevel::Semantic)
                .text()
                .to_string()
        })
        .collect();
    prompts.extend(canonical);
    prompts.sort();
    prompts.dedup();
    prompts
}

fn semantic(model: &dyn LanguageModel, capacity: Option<usize>, shards: usize) -> PromptCache<'_> {
    let cache = match capacity {
        Some(capacity) => PromptCache::new(model, capacity),
        None => PromptCache::unbounded(model),
    };
    cache
        .with_shards(shards)
        .with_canonicalization(CanonLevel::Semantic)
}

/// What the folding path answers for `prompt`: `reference` completes its
/// canonical text, and the fold (if it reordered the prompt) adapts it.
fn folded_reply(reference: &PromptCache<'_>, prompt: &str) -> Completion {
    let canonical = CanonicalPrompt::canonicalize(prompt, CanonLevel::Semantic);
    let reply = reference
        .complete(canonical.text())
        .expect("the stub answers everything");
    match canonical.replay() {
        Some(fold) => fold.adapt(&reply),
        None => (*reply).clone(),
    }
}

#[test]
fn the_fold_memo_answers_and_counts_like_the_folding_path() {
    let prompts = pool();
    let folding = prompts
        .iter()
        .filter(|p| {
            CanonicalPrompt::canonicalize(p, CanonLevel::Semantic)
                .replay()
                .is_some()
        })
        .count();
    assert!(
        folding >= 12,
        "the pool must hold reordered variants: {folding}"
    );
    for capacity in [Some(1), Some(4), None] {
        for shards in [1, 8] {
            for seed in 0..4u64 {
                let (model, twin_model) = (Stub::new(true), Stub::new(true));
                let cache = semantic(&model, capacity, shards);
                let reference = semantic(&twin_model, capacity, shards);
                let mut rng = StdRng::seed_from_u64(seed);
                for op in 0..400 {
                    // A short run of one prompt now and then, so repeats
                    // meet a warm memo as well as a cold one.
                    let prompt = &prompts[rng.gen_range(0..prompts.len())];
                    for _ in 0..rng.gen_range(1..3usize) {
                        let got = cache.complete(prompt).expect("the stub answers");
                        let want = folded_reply(&reference, prompt);
                        let at =
                            format!("capacity {capacity:?}, {shards} shards, seed {seed}, op {op}");
                        assert_eq!(*got, want, "answer drifted at {at}: {prompt:?}");
                        assert_eq!(cache.stats(), reference.stats(), "stats drifted at {at}");
                        assert_eq!(cache.len(), reference.len(), "len drifted at {at}");
                    }
                }
                assert_eq!(cache.canonical_prompts(), reference.canonical_prompts());
                let stats = cache.stats();
                assert!(stats.hits > 0, "the sequence repeats: {stats:?}");
                if capacity.is_some() {
                    assert!(stats.evictions > 0, "a bounded cache evicts: {stats:?}");
                }
            }
        }
    }
}

#[test]
fn two_threads_on_one_key_set_are_served_like_the_folding_path() {
    let prompts = pool();
    // Answers that depend on the text alone: whichever thread fills an
    // entry, every reply is what the folding path gives.
    let model = Stub::new(false);
    let direct = Stub::new(false);
    let cache = semantic(&model, Some(4), 8);
    let lookups = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for seed in [11u64, 12] {
            let (cache, prompts, lookups, direct) = (&cache, &prompts, &lookups, &direct);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..2_000 {
                    let prompt = &prompts[rng.gen_range(0..prompts.len())];
                    let got = cache.complete(prompt).expect("the stub answers");
                    let canonical = CanonicalPrompt::canonicalize(prompt, CanonLevel::Semantic);
                    let reply = direct.complete(canonical.text()).expect("answers");
                    let want = match canonical.replay() {
                        Some(fold) => fold.adapt(&reply),
                        None => (*reply).clone(),
                    };
                    assert_eq!(*got, want, "answer drifted: {prompt:?}");
                    lookups
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(reply.usage.total());
                }
            });
        }
    });
    let lookups = lookups.into_inner().unwrap_or_else(PoisonError::into_inner);
    let stats = cache.stats();
    assert_eq!(stats.lookups(), lookups.len());
    // One model call per miss, and every other lookup saved exactly the
    // tokens of the call that filled its entry.
    assert_eq!(stats.misses, model.calls.load(Ordering::SeqCst));
    assert_eq!(
        stats.tokens_saved + model.tokens.load(Ordering::SeqCst),
        lookups.iter().sum::<usize>()
    );
    assert!(stats.evictions > 0 && stats.hits > 0, "{stats:?}");
}
