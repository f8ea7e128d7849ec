//! The cache's warm paths against a probe-free model. A lookup first
//! probes the resident keys with the raw prompt — a prompt equal to a
//! resident key is its own canonical form — and, at
//! [`CanonLevel::Semantic`], the fold memo, which remembers per rewritten
//! raw prompt what canonicalization produced. The model does neither: it
//! keys a `BTreeMap` per shard by [`CanonicalPrompt::canonicalize`]'s
//! text, evicts with the cache's second-chance clock, and adapts a reply
//! with the lookup's own [`ReplayFold::adapt`].
//!
//! Seeded operation sequences, at all four levels, mix canonical texts,
//! whitespace variants, per-row `p_rm` queries (imputation and error
//! detection, rendered and oddly spaced), reordered `p_ri` and `p_dp`
//! lists (every rotation and the reversal), a plain prompt and two texts
//! built to share a content hash, with repeats, over capacities
//! {1, 4, unbounded} × shards {1, 8}. The sequence seeds derive from
//! `UNIDM_FAULT_SEED`. The stub model's answer to a text changes on every
//! call, so a canonical entry evicted and refilled holds a new completion,
//! and a memo that served its old answer would show. After every
//! operation the answer (text and usage), every `CacheStats` field and
//! `len()` must equal the model's; after every sequence the resident keys
//! must, and each must re-canonicalize, borrowed, to itself.
//!
//! [`ReplayFold::adapt`]: unidm::ReplayFold::adapt

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unidm::{CacheStats, CanonLevel, CanonicalPrompt, PromptCache};
use unidm_llm::protocol::{
    render_pdp, render_pri, render_prm, PdpPrompt, PriPrompt, SerializedRecord, TaskKind,
};
use unidm_llm::{Completion, LanguageModel, LlmError, Usage};
use unidm_text::hash::content_hash;

const LEVELS: [CanonLevel; 4] = [
    CanonLevel::Verbatim,
    CanonLevel::Whitespace,
    CanonLevel::TableStem,
    CanonLevel::Semantic,
];

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
        let text = if let Some(request) = PriPrompt::read(prompt) {
            let mut lines = String::new();
            request.lines_into(&mut lines);
            let scores: Vec<String> = (lines.lines())
                .filter_map(SerializedRecord::parse)
                .enumerate()
                .map(|(i, record)| format!("{}:{}", i + 1, (record.render().len() + tag) % 4))
                .collect();
            scores.join(", ")
        } else if let Some(request) = PdpPrompt::read(prompt) {
            let lines: Vec<String> = (request.lines())
                .filter_map(SerializedRecord::parse)
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

/// `folded_multiply` of [`content_hash`]'s fold, replicated to build a
/// collision; [`colliding_pair`] checks the result against the real hash.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// The content hash's four multipliers.
const HASH_KEYS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// The `n`th word of eight bytes from `'!'..='~'`: printable, no blank.
fn printable_word(mut n: u64) -> [u8; 8] {
    let mut word = [0u8; 8];
    for byte in &mut word {
        *byte = b'!' + (n % 94) as u8;
        n /= 94;
    }
    word
}

fn is_printable(word: u64) -> bool {
    word.to_le_bytes().iter().all(|b| (b'!'..=b'~').contains(b))
}

/// A printable first block (starting the search at `start`) after which
/// both lanes of the fold hold printable words, for a text of `len`
/// bytes. The second block then opens with those words, which zeroes
/// both lanes whatever came before: texts that agree from the third
/// block on hash equal.
fn blinding_prefix(len: usize, start: u64) -> Vec<u8> {
    let keys = HASH_KEYS;
    let seeds = [keys[0] ^ len as u64, keys[1]];
    // Lane `l` folds words `2l` and `2l + 1` of the block.
    let lane = |l: usize| {
        let partner = printable_word(start + 7 + l as u64);
        let partner_key = u64::from_le_bytes(partner) ^ keys[2 + l];
        (start..)
            .map(printable_word)
            .find_map(|word| {
                let state = folded_multiply(u64::from_le_bytes(word) ^ seeds[l], partner_key);
                is_printable(state).then_some((word, partner, state))
            })
            .expect("the search is unbounded")
    };
    let (a, b) = (lane(0), lane(1));
    let mut prefix = Vec::with_capacity(64);
    for word in [a.0, a.1, b.0, b.1] {
        prefix.extend_from_slice(&word);
    }
    for word in [a.2.to_le_bytes(), [b'-'; 8], b.2.to_le_bytes(), [b'-'; 8]] {
        prefix.extend_from_slice(&word);
    }
    prefix
}

/// Two distinct printable, whitespace-normal texts with one content hash:
/// each is its own canonical form at every level, so both are resident
/// keys on one probe chain.
fn colliding_pair() -> [String; 2] {
    const TAIL: &str = " is one of two prompts sharing a content hash.";
    let len = 64 + TAIL.len();
    let text = |start| {
        let mut bytes = blinding_prefix(len, start);
        bytes.extend_from_slice(TAIL.as_bytes());
        String::from_utf8(bytes).expect("printable ASCII")
    };
    let pair = [text(0), text(1 << 40)];
    assert_ne!(pair[0], pair[1]);
    assert_eq!(
        content_hash(&pair[0]),
        content_hash(&pair[1]),
        "the replica of the content hash's fold is stale"
    );
    for level in LEVELS {
        for text in &pair {
            let canonical = CanonicalPrompt::canonicalize(text, level);
            assert!(canonical.is_borrowed(), "{level}: {text:?}");
        }
    }
    pair
}

/// The prompts the sequences draw from: reordered `p_ri` and `p_dp`
/// lists, per-row `p_rm` queries, whitespace variants, a plain prompt,
/// a colliding pair, and the canonical text of each at every level.
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
    let plain = "Copenhagen belongs to the country __.";
    let mut prompts = vec![
        plain.to_string(),
        format!("  {}\t", plain.replace(' ', "  ")),
        plain.replace("the country", "the\ncountry"),
    ];
    prompts.extend(colliding_pair());
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
    let candidates = ["country".to_string(), "population".to_string()];
    for city in ["Copenhagen", "Florence", "Cork", "*"] {
        for attr in ["timezone", "population"] {
            let prm = render_prm(
                TaskKind::Imputation,
                &format!("{city}, {attr}"),
                &candidates,
            );
            // Oddly spaced: the exact scanner refuses it, and the
            // canonicalizer re-renders it.
            prompts.push(prm.replace("The target query is", "The target  query is"));
            prompts.push(prm);
        }
    }
    for value in ["sheffxeld", "chicago", "*"] {
        let query = format!("city: {value}?");
        prompts.push(render_prm(TaskKind::ErrorDetection, &query, &candidates));
    }
    let canonical: Vec<String> = LEVELS
        .iter()
        .flat_map(|&level| {
            prompts
                .iter()
                .map(move |p| CanonicalPrompt::canonicalize(p, level).into_text())
        })
        .collect();
    prompts.extend(canonical);
    prompts.sort();
    prompts.dedup();
    prompts
}

/// One shard of the model: canonical text → completion and its
/// second-chance bit, plus the clock ring and its hand.
#[derive(Default)]
struct ModelShard {
    entries: BTreeMap<String, (Arc<Completion>, bool)>,
    ring: Vec<String>,
    hand: usize,
}

impl ModelShard {
    /// The clock hand's sweep: clears reference bits until it finds an
    /// unreferenced entry, removes it and returns its ring slot.
    fn evict_one(&mut self) -> usize {
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let slot = self.hand;
            self.hand += 1;
            let entry = self.entries.get_mut(&self.ring[slot]).expect("ring key");
            if entry.1 {
                entry.1 = false;
            } else {
                self.entries.remove(&self.ring[slot]);
                return slot;
            }
        }
    }
}

/// A cache with no raw probe and no fold memo: every lookup
/// canonicalizes, and is a hit or a miss on the canonical text alone.
struct Model<'m> {
    stub: &'m Stub,
    level: CanonLevel,
    shard_capacity: usize,
    shards: Vec<ModelShard>,
    stats: CacheStats,
}

impl<'m> Model<'m> {
    fn new(stub: &'m Stub, level: CanonLevel, capacity: Option<usize>, shards: usize) -> Self {
        Model {
            stub,
            level,
            shard_capacity: capacity.map_or(usize::MAX, |c| c.div_ceil(shards).max(1)),
            shards: (0..shards).map(|_| ModelShard::default()).collect(),
            stats: CacheStats::default(),
        }
    }

    fn complete(&mut self, prompt: &str) -> Completion {
        let canonical = CanonicalPrompt::canonicalize(prompt, self.level);
        let text = canonical.text();
        let index = (canonical.hash64() as usize) & (self.shards.len() - 1);
        let shard = &mut self.shards[index];
        let reply = if let Some((completion, referenced)) = shard.entries.get_mut(text) {
            *referenced = true;
            self.stats.hits += 1;
            self.stats.tokens_saved += completion.usage.total();
            completion.clone()
        } else {
            self.stats.misses += 1;
            let completion = self.stub.complete(text).expect("the stub answers");
            if shard.entries.len() >= self.shard_capacity {
                let slot = shard.evict_one();
                self.stats.evictions += 1;
                shard.ring[slot] = text.to_string();
            } else {
                shard.ring.push(text.to_string());
            }
            shard
                .entries
                .insert(text.to_string(), (completion.clone(), false));
            completion
        };
        match canonical.replay() {
            Some(fold) => fold.adapt(&reply),
            None => (*reply).clone(),
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    fn canonical_prompts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.entries.keys().cloned())
            .collect();
        texts.sort();
        texts
    }
}

fn cache_at(
    model: &dyn LanguageModel,
    level: CanonLevel,
    capacity: Option<usize>,
    shards: usize,
) -> PromptCache<'_> {
    let cache = match capacity {
        Some(capacity) => PromptCache::new(model, capacity),
        None => PromptCache::unbounded(model),
    };
    cache.with_shards(shards).with_canonicalization(level)
}

/// Three sequence seeds drawn from the fault seed.
fn sequence_seeds() -> impl Iterator<Item = u64> {
    let base = common::fault_seed().wrapping_mul(0x9e37_79b9);
    (0..3).map(move |i| base.wrapping_add(i))
}

#[test]
fn the_fold_memo_answers_and_counts_like_the_folding_path() {
    let prompts = pool();
    let rewritten = |level| {
        prompts
            .iter()
            .filter(|p| !CanonicalPrompt::canonicalize(p, level).is_borrowed())
            .count()
    };
    let reordered = prompts
        .iter()
        .filter(|p| {
            CanonicalPrompt::canonicalize(p, CanonLevel::Semantic)
                .replay()
                .is_some()
        })
        .count();
    assert!(
        reordered >= 12 && rewritten(CanonLevel::TableStem) >= 12,
        "the pool must hold reordered and per-row variants: {reordered}"
    );
    for level in LEVELS {
        for capacity in [Some(1), Some(4), None] {
            for shards in [1, 8] {
                for seed in sequence_seeds() {
                    check_sequence(&prompts, level, capacity, shards, seed);
                }
            }
        }
    }
}

/// One seeded sequence through a cache and the model side by side.
fn check_sequence(
    prompts: &[String],
    level: CanonLevel,
    capacity: Option<usize>,
    shards: usize,
    seed: u64,
) {
    let (stub, model_stub) = (Stub::new(true), Stub::new(true));
    let cache = cache_at(&stub, level, capacity, shards);
    let mut model = Model::new(&model_stub, level, capacity, shards);
    let mut rng = StdRng::seed_from_u64(seed);
    let at = format!("{level}, capacity {capacity:?}, {shards} shards, seed {seed}");
    for op in 0..400 {
        // A short run of one prompt now and then, so repeats meet a warm
        // memo as well as a cold one.
        let prompt = &prompts[rng.gen_range(0..prompts.len())];
        for _ in 0..rng.gen_range(1..3usize) {
            let got = cache.complete(prompt).expect("the stub answers");
            let want = model.complete(prompt);
            assert_eq!(*got, want, "answer drifted at {at}, op {op}: {prompt:?}");
            assert_eq!(cache.stats(), model.stats, "stats drifted at {at}, op {op}");
            assert_eq!(cache.len(), model.len(), "len drifted at {at}, op {op}");
        }
    }
    let resident = cache.canonical_prompts();
    assert_eq!(resident, model.canonical_prompts(), "keys drifted at {at}");
    for key in &resident {
        let again = CanonicalPrompt::canonicalize(key, level);
        assert!(
            again.is_borrowed() && again.text() == key,
            "a resident key is not its own canonical form at {at}: {key:?}"
        );
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "the sequence repeats at {at}: {stats:?}");
    if capacity.is_some() {
        assert!(
            stats.evictions > 0,
            "a bounded cache evicts at {at}: {stats:?}"
        );
    }
}

#[test]
fn two_threads_on_one_key_set_are_served_like_the_folding_path() {
    let prompts = pool();
    // Answers that depend on the text alone: whichever thread fills an
    // entry, every reply is what the folding path gives.
    let model = Stub::new(false);
    let direct = Stub::new(false);
    let cache = cache_at(&model, CanonLevel::Semantic, Some(4), 8);
    let lookups = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for seed in sequence_seeds().take(2) {
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

/// The tail table's cases: `p_ri` prompts that differ only in their query
/// line, two keys with one first line and different tails, single-line
/// keys, and the colliding pair as tails, under one first line and under
/// two.
fn tail_pool() -> Vec<String> {
    let rows = [
        record("Cork", "Ireland", "210000"),
        record("Alicante", "Spain", "337000"),
        record("Bergen", "Norway", "285000"),
    ];
    let mut prompts: Vec<String> = ["Copenhagen, Denmark", "Florence, Italy", "Turku, Finland"]
        .iter()
        .map(|query| render_pri(TaskKind::Imputation, query, &rows))
        .collect();
    prompts.push(render_pri(
        TaskKind::Imputation,
        "Copenhagen, Denmark",
        &rows[..2],
    ));
    prompts.push("Copenhagen belongs to the country __.".to_string());
    prompts.push("Florence belongs to the country __.".to_string());
    for head in ["One first line.", "Another first line."] {
        for tail in colliding_pair() {
            prompts.push(format!("{head}\n{tail}"));
        }
    }
    prompts
}

#[test]
fn keys_that_share_a_tail_answer_and_count_like_whole_keys() {
    let prompts = tail_pool();
    let split = |p: &str| -> (String, String) {
        let (head, tail) = p.split_once('\n').expect("two lines");
        (head.to_string(), tail.to_string())
    };
    let (pri, colliding) = (&prompts[..4], &prompts[6..]);
    for w in pri[..3].windows(2) {
        let (a, b) = (split(&w[0]), split(&w[1]));
        assert!(a.0 != b.0 && a.1 == b.1, "only the query line differs");
    }
    let (a, b) = (split(&pri[0]), split(&pri[3]));
    assert!(a.0 == b.0 && a.1 != b.1, "one first line, two tails");
    assert!(prompts[4..6].iter().all(|p| !p.contains('\n')));
    let tails: Vec<String> = colliding.iter().map(|p| split(p).1).collect();
    assert_ne!(tails[0], tails[1]);
    assert_eq!(content_hash(&tails[0]), content_hash(&tails[1]));
    for level in LEVELS {
        for text in colliding {
            let canonical = CanonicalPrompt::canonicalize(text, level);
            assert!(canonical.is_borrowed(), "{level}: {text:?}");
        }
    }
    for level in LEVELS {
        for capacity in [Some(1), Some(4), None] {
            for shards in [1, 8] {
                for seed in sequence_seeds() {
                    check_sequence(&prompts, level, capacity, shards, seed);
                }
            }
        }
    }
}
