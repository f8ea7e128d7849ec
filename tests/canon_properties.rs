//! Property tests for `unidm::canon`: seeded-generator checks that
//! canonicalization is idempotent, insensitive to insignificant whitespace
//! at `CanonLevel::Whitespace` and above, and that
//! `CanonicalPrompt::hash64` is a pure, stable function of the canonical
//! text — equal for equal keys, unchanged by cache configuration such as
//! shard count, and pinned to golden values so cross-run (and
//! cross-platform) stability cannot silently regress.

mod common;

use common::{mangle_whitespace, random_prompt, Gen};

use unidm::{CanonLevel, CanonicalPrompt, PromptCache};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_world::World;

const CASES: usize = 128;

/// What the cache keys an entry by: the canonical text and its hash.
fn key(prompt: &str, level: CanonLevel) -> (String, u64) {
    let canon = CanonicalPrompt::canonicalize(prompt, level);
    (canon.text().to_string(), canon.hash64())
}

#[test]
fn canonicalization_is_idempotent_on_random_prompts() {
    let mut g = Gen::new(0xca01);
    for _ in 0..CASES {
        let prompt = random_prompt(&mut g);
        for level in [
            CanonLevel::Verbatim,
            CanonLevel::Whitespace,
            CanonLevel::TableStem,
            CanonLevel::Semantic,
        ] {
            let once = key(&prompt, level);
            let again = CanonicalPrompt::canonicalize(&once.0, level);
            assert_eq!(once.0, again.text(), "idempotence at {level}: {prompt:?}");
            assert_eq!(once.1, again.hash64(), "equal keys hash equal at {level}");
            assert!(
                again.is_borrowed(),
                "a canonical text is borrowed at {level}"
            );
        }
    }
}

#[test]
fn whitespace_mangling_never_changes_the_key() {
    let mut g = Gen::new(0xca02);
    for _ in 0..CASES {
        let prompt = random_prompt(&mut g);
        let mangled = mangle_whitespace(&mut g, &prompt);
        for level in [
            CanonLevel::Whitespace,
            CanonLevel::TableStem,
            CanonLevel::Semantic,
        ] {
            assert_eq!(
                key(&prompt, level),
                key(&mangled, level),
                "{level}: whitespace noise must fold away\n  clean: {prompt:?}\n  noisy: {mangled:?}"
            );
        }
    }
}

#[test]
fn hash_is_equal_for_equal_keys_and_separates_distinct_ones() {
    let mut g = Gen::new(0xca04);
    let mut seen: Vec<(String, u64)> = Vec::new();
    for _ in 0..CASES {
        let prompt = random_prompt(&mut g);
        let (text, hash) = key(&prompt, CanonLevel::TableStem);
        assert_eq!(hash, key(&prompt, CanonLevel::TableStem).1, "pure");
        for (other, other_hash) in &seen {
            if *other == text {
                assert_eq!(hash, *other_hash, "equal keys, equal hashes");
            } else {
                // A 64-bit hash over distinct strings: collisions are
                // astronomically unlikely at this sample size, and any
                // real one would repro deterministically from the seed.
                assert_ne!(
                    hash, *other_hash,
                    "distinct keys collided: {text:?} vs {other:?}"
                );
            }
        }
        seen.push((text, hash));
    }
}

#[test]
fn hash_is_pinned_to_golden_values() {
    // Cross-run and cross-platform stability: `hash64` is the unkeyed
    // content hash of the canonical text's bytes, read as little-endian
    // words (canonicalization is idempotent, so the text determines the
    // key). Nothing persists it — the store keeps canonical text under its
    // own checksum — but it selects the shard, and a bounded cache evicts
    // per shard, so a drift would change which entries survive from one
    // platform or build to the next.
    let fox = key("The quick  brown fox", CanonLevel::Whitespace);
    assert_eq!(fox.1, 0xbfb4_4517_61f2_3313);
    let unidm = key("unidm", CanonLevel::Whitespace);
    assert_eq!(unidm.1, 0xd4a3_551e_1d05_7518);
    // Longer than one 32-byte step, with a partial tail.
    let long = key(&"0123456789abcdef".repeat(5)[..75], CanonLevel::Verbatim);
    assert_eq!(long.1, 0x7518_3882_1b0e_603f);
}

#[test]
fn hash_tells_apart_single_byte_and_length_only_changes() {
    let hash = |text: &str| CanonicalPrompt::canonicalize(text, CanonLevel::Verbatim).hash64();
    // The tail of a text is zero-padded to a whole step; the length keeps
    // padding from colliding with real NULs.
    assert_ne!(hash("a"), hash("a\0"));
    assert_ne!(hash("a\0"), hash("a\0\0"));
    assert_ne!(hash(""), hash("\0"));
    let mut g = Gen::new(0xca08);
    for _ in 0..CASES {
        let prompt = random_prompt(&mut g);
        let base = hash(&prompt);
        let at = g.usize(0, prompt.len());
        let mut bytes = prompt.clone().into_bytes();
        bytes[at] ^= 1;
        if let Ok(changed) = String::from_utf8(bytes) {
            assert_ne!(hash(&changed), base, "byte {at} of {prompt:?}");
        }
        assert_ne!(hash(&prompt[..prompt.len() - 1]), base, "one byte shorter");
        assert_ne!(hash(&format!("{prompt}\0")), base, "one NUL longer");
    }
}

#[test]
fn hash_spreads_rendered_prompts_over_shards_without_collisions() {
    // 4 096 distinct canonical texts: no two share a 64-bit hash, and
    // the low bits the cache masks for shard selection put every one of 8
    // shards within 2x of an even share.
    let mut g = Gen::new(0xca09);
    let mut hash_of = std::collections::BTreeMap::new();
    while hash_of.len() < 4096 {
        let (text, hash) = key(&random_prompt(&mut g), CanonLevel::TableStem);
        hash_of.insert(text, hash);
    }
    let distinct: std::collections::HashSet<u64> = hash_of.values().copied().collect();
    assert_eq!(distinct.len(), hash_of.len(), "a 64-bit collision");
    let mut per_shard = [0usize; 8];
    for hash in &distinct {
        per_shard[(hash & 7) as usize] += 1;
    }
    let even = distinct.len() / 8;
    assert!(
        per_shard.iter().all(|&n| n >= even / 2 && n <= even * 2),
        "shard occupancy {per_shard:?} strays beyond 2x of {even}"
    );
}

#[test]
fn hash_is_stable_across_shard_counts() {
    // The same workload memoized into caches of every shard width must
    // hold identical contents (entries keyed and hashed identically);
    // only the shard *mask* changes with the count, never the hash.
    let world = World::generate(11);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 11);
    let mut g = Gen::new(0xca05);
    let prompts: Vec<String> = (0..24).map(|_| random_prompt(&mut g)).collect();

    let contents_at = |shards: usize| {
        let cache = PromptCache::unbounded(&llm)
            .with_shards(shards)
            .with_canonicalization(CanonLevel::Whitespace);
        for p in &prompts {
            cache.complete(p).expect("prompt completes");
        }
        let keys = cache.canonical_prompts();
        let completions: Vec<_> = keys
            .iter()
            .map(|key| cache.complete(key).expect("memoized key hits"))
            .collect();
        assert_eq!(cache.stats().misses, keys.len(), "re-lookups all hit");
        (keys, completions)
    };
    let one = contents_at(1);
    assert_eq!(one, contents_at(2));
    assert_eq!(one, contents_at(8));
    assert_eq!(one, contents_at(64));

    // And the canonical keys themselves spread over shards rather than
    // piling onto one (masking a uniform 64-bit hash).
    let distinct: std::collections::HashSet<u64> = prompts
        .iter()
        .map(|p| key(p, CanonLevel::Whitespace).1 & 7)
        .collect();
    assert!(
        distinct.len() >= 3,
        "24 random keys should touch several of 8 shards: {distinct:?}"
    );
}
