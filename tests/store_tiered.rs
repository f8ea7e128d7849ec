//! Acceptance tests for the tiered cache store (`unidm::store`): a full
//! one-touch scan over a 10^5-row synthetic lake must not displace the
//! hot set (pinned hit-rate floor, deterministic across shard counts and
//! reruns), corrupt store files — a flipped bit anywhere, a torn tail, the
//! header of an earlier version — must surface a clean [`StoreError`] —
//! never a panic — and leave the file untouched, the persisted frame
//! checksum is pinned, compaction copies live frames byte for byte and a
//! failed one leaves the store as it was, repeated runs of one scenario
//! must not grow its file, and the cache's statistics
//! ([`unidm::CacheStats`]) must merge exactly across its shards.

use std::path::PathBuf;
use std::sync::Arc;

use unidm::{CacheStats, CacheStore, CanonLevel, PromptCache, StoreConfig, StoreError, StoreStats};
use unidm_eval::CacheConfig;
use unidm_llm::{Completion, LanguageModel, LlmProfile, MockLlm, Usage};
use unidm_text::hash::checksum64;
use unidm_world::World;

/// Hot working set the scan must not displace.
const HOT_SET: usize = 64;
/// One-touch keys in the synthetic lake scan.
const SCAN_KEYS: usize = 100_000;
/// Pinned acceptance floor for the post-scan hot-set hit rate. The
/// admission filter is deterministic, so the observed rate is exactly
/// 1.0; the floor leaves headroom only for intentional future retuning.
const HOT_FLOOR: f64 = 0.95;

fn llm() -> MockLlm {
    MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 7)
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "unidm-store-tiered-{}-{tag}.udmstore",
        std::process::id()
    ))
}

fn hot_prompt(i: usize) -> String {
    format!("hot working-set query number {i} over the resident table")
}

/// What one full scan-resistance experiment observed: the final store
/// counters plus the post-scan hot-set hit rate.
#[derive(Debug, PartialEq)]
struct ScanOutcome {
    stats: StoreStats,
    hot_hits: usize,
    warm_model_tokens: usize,
}

/// Establishes a hot set through sharded tiered caches, scans 10^5
/// one-touch synthetic lake rows against the disk tier, then measures
/// whether a cold tier 0 still finds the hot set on disk.
fn run_scan_experiment(tag: &str, shards: usize) -> ScanOutcome {
    let path = temp_store(tag);
    let _ = std::fs::remove_file(&path);
    let model = llm();
    let store = CacheStore::open(
        &path,
        model.name(),
        StoreConfig::default().with_max_entries(HOT_SET),
    )
    .expect("store opens");

    // Pass A: a tiered cache populates the store (first touch each).
    let warm = PromptCache::new(&model, HOT_SET)
        .with_shards(shards)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store.clone());
    for i in 0..HOT_SET {
        warm.complete(&hot_prompt(i)).expect("hot prompt completes");
    }
    // Pass B: a fresh tier 0 over the same store — every lookup falls
    // through to the disk tier (second touch: the set is now frequent).
    let replay = PromptCache::new(&model, HOT_SET)
        .with_shards(shards)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store.clone());
    let before = model.usage();
    for i in 0..HOT_SET {
        replay.complete(&hot_prompt(i)).expect("replay completes");
    }
    assert_eq!(model.usage(), before, "disk-tier replay is model-free");

    // The scan: one pass over a synthetic 10^5-row lake, each row seen
    // exactly once (probe, miss, offer) — the B-side of every tier-0
    // miss. A recency cache would evict the entire hot set here.
    let row = Arc::new(Completion {
        text: "scan row".to_string(),
        usage: Usage {
            prompt_tokens: 7,
            completion_tokens: 3,
        },
    });
    for i in 0..SCAN_KEYS {
        let prompt = format!("synthetic lake row {i} swept once by the scan");
        assert!(store.get(&prompt).is_none(), "scan rows start cold");
        store.offer(&prompt, &row);
    }

    // A cold tier 0 afterwards: the hot set must still answer from disk.
    let cold = PromptCache::new(&model, HOT_SET)
        .with_shards(shards)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store.clone());
    let before = model.usage();
    let hits_before = store.stats().hits;
    for i in 0..HOT_SET {
        cold.complete(&hot_prompt(i)).expect("post-scan completes");
    }
    let hot_hits = store.stats().hits - hits_before;
    let warm_model_tokens = model.usage().total() - before.total();

    let outcome = ScanOutcome {
        stats: store.stats(),
        hot_hits,
        warm_model_tokens,
    };
    let _ = std::fs::remove_file(&path);
    outcome
}

#[test]
fn lake_scan_does_not_displace_the_hot_set() {
    let outcome = run_scan_experiment("scan", 1);
    let rate = outcome.hot_hits as f64 / HOT_SET as f64;
    assert!(
        rate >= HOT_FLOOR,
        "post-scan hot-set hit rate {rate:.3} fell below the pinned floor {HOT_FLOOR}"
    );
    assert_eq!(
        outcome.warm_model_tokens, 0,
        "surviving hot entries answer without model calls"
    );
    assert_eq!(
        outcome.stats.rejected, SCAN_KEYS,
        "every one-touch scan key is rejected at capacity"
    );
    assert_eq!(outcome.stats.evicted, 0, "no resident entry is displaced");
    assert_eq!(outcome.stats.admitted, HOT_SET);
}

#[test]
fn scan_outcome_is_deterministic_across_shard_counts_and_reruns() {
    // The store sits below the sharded tier, so the shard count (8 by
    // default) must not leak into admission decisions —
    // and a rerun at the same seed must reproduce every counter.
    let one = run_scan_experiment("det-1", 1);
    let eight = run_scan_experiment("det-8", 8);
    let rerun = run_scan_experiment("det-rerun", 8);
    assert_eq!(one, eight, "shard count must not change the outcome");
    assert_eq!(eight, rerun, "rerun must reproduce the outcome exactly");
}

// ── Corruption robustness ──────────────────────────────────────────────

/// A store file holding three completions, returned as raw bytes.
fn populated_store_bytes(tag: &str) -> Vec<u8> {
    let path = temp_store(tag);
    let _ = std::fs::remove_file(&path);
    let model = llm();
    let store = CacheStore::open(&path, model.name(), StoreConfig::default()).expect("opens");
    let cache = PromptCache::unbounded(&model).with_store(store);
    for prompt in [
        "alpha prompt",
        "beta prompt\nwith a second line",
        "gamma prompt with \\ escapes",
    ] {
        cache.complete(prompt).unwrap();
    }
    let bytes = std::fs::read(&path).expect("store file readable");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Byte offsets at which a truncation leaves a structurally complete
/// document: the end of the header and the end of every frame.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let u32_at = |pos: usize| u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    // magic(8) + version(4) + model length prefix(4) + model bytes.
    let mut pos = 8 + 4 + 4 + u32_at(12);
    let mut boundaries = vec![pos];
    while pos < bytes.len() {
        pos += 4 + u32_at(pos) + 8; // length prefix + payload + checksum
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    boundaries
}

#[test]
fn truncation_at_every_byte_is_a_clean_error_or_a_valid_prefix() {
    let bytes = populated_store_bytes("trunc");
    let boundaries = record_boundaries(&bytes);
    assert_eq!(boundaries.len(), 4, "header + three frames");
    let model = llm();
    let path = temp_store("trunc-cut");
    for cut in 0..=bytes.len() {
        let truncated = &bytes[..cut];
        std::fs::write(&path, truncated).unwrap();
        match CacheStore::open(&path, model.name(), StoreConfig::default()) {
            // A cut exactly at a record boundary is the append-only
            // contract at work: the surviving prefix of frames serves.
            Ok(store) => {
                assert!(
                    boundaries.contains(&cut),
                    "open succeeded at non-boundary offset {cut}"
                );
                let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(store.len(), expected, "prefix entries at offset {cut}");
                if expected >= 1 {
                    assert!(store.get("alpha prompt").is_some());
                }
            }
            // Any mid-record cut must be a clean, printable error that
            // does not rewrite the evidence.
            Err(err) => {
                assert!(
                    !boundaries.contains(&cut),
                    "boundary offset {cut} must open cleanly: {err}"
                );
                assert!(!err.to_string().is_empty());
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    truncated,
                    "failed open must not modify the file (offset {cut})"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Asserts that opening `bytes` fails with `expect` and leaves the file
/// byte-identical.
fn assert_rejected_and_untouched(tag: &str, bytes: &[u8], expect: impl Fn(&StoreError) -> bool) {
    let model = llm();
    let path = temp_store(tag);
    std::fs::write(&path, bytes).unwrap();
    let err = CacheStore::open(&path, model.name(), StoreConfig::default())
        .expect_err("corrupt store must fail to open");
    assert!(expect(&err), "unexpected error class: {err}");
    assert!(!err.to_string().is_empty(), "errors must be printable");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "failed open must not modify the file"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_wrong_model_and_garbled_frames_are_clean_errors() {
    let bytes = populated_store_bytes("garble");

    // Version bump in the fixed header.
    let mut wrong_version = bytes.clone();
    wrong_version[8] = wrong_version[8].wrapping_add(1);
    assert_rejected_and_untouched("garble-version", &wrong_version, |e| {
        matches!(e, StoreError::Version { .. })
    });

    // Foreign model name (same length, so framing stays intact).
    let model_name = llm().name().to_string();
    let foreign_name: String = model_name.chars().rev().collect();
    let header_end = 16 + model_name.len();
    let mut foreign = bytes.clone();
    foreign[16..header_end].copy_from_slice(foreign_name.as_bytes());
    assert_rejected_and_untouched("garble-model", &foreign, |e| {
        matches!(e, StoreError::ModelMismatch { .. })
    });

    // Bad magic.
    let mut magicless = bytes.clone();
    magicless[0] = b'X';
    assert_rejected_and_untouched("garble-magic", &magicless, |e| {
        matches!(e, StoreError::Format(_))
    });

    // One flipped payload byte in the first frame: checksum mismatch.
    let mut flipped = bytes.clone();
    let frame_payload = header_end + 4; // past the length prefix
    flipped[frame_payload + 4] ^= 0x01; // a byte of the prompt
    assert_rejected_and_untouched("garble-checksum", &flipped, |e| {
        matches!(e, StoreError::Format(_))
    });

    // The pristine bytes still open with all three entries — corruption
    // handling must not depend on mutated leftovers.
    let path = temp_store("garble-pristine");
    std::fs::write(&path, &bytes).unwrap();
    let store = CacheStore::open(&path, &model_name, StoreConfig::default()).expect("opens");
    assert_eq!(store.len(), 3);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_flipped_bit_anywhere_is_a_clean_error_and_leaves_the_file() {
    // Every bit of the header and of all three frames: magic, version and
    // model fail their checks, a length prefix frames the wrong bytes, and
    // a payload or checksum bit fails the frame's checksum.
    let bytes = populated_store_bytes("flip");
    assert_eq!(record_boundaries(&bytes).len(), 4, "header + three frames");
    let model = llm();
    let path = temp_store("flip-open");
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &flipped).unwrap();
        let err = CacheStore::open(&path, model.name(), StoreConfig::default())
            .expect_err("a flipped bit must fail the open");
        assert!(
            !matches!(err, StoreError::Io(_)),
            "bit {bit}: a corrupt file is a format error, not {err}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            flipped,
            "failed open must not modify the file (bit {bit})"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn earlier_version_stores_are_refused_and_left_as_they_are() {
    // `UDMCACHE1` sealed its frames with FNV-1a and `UDMCACHE2` led each
    // payload with a generation: both are refused by version before any
    // frame is read.
    let bytes = populated_store_bytes("old");
    assert_eq!(&bytes[..12], b"UDMCACHE\x03\0\0\0", "written as UDMCACHE3");
    for version in [1u32, 2] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        assert_rejected_and_untouched(
            &format!("v{version}-open"),
            &old,
            |e| matches!(e, StoreError::Version { found } if *found == version),
        );
    }
}

#[test]
fn the_persisted_frame_checksum_is_pinned() {
    // The function: golden values on fixed inputs.
    for (bytes, want) in [
        (&b""[..], 0xadb9_abd8_ee60_6148u64),
        (b"a", 0x85ec_83dc_8b40_a532),
        (b"hello world", 0xf0e5_f28a_1ca8_c95b),
    ] {
        assert_eq!(checksum64(bytes), want, "checksum64 of {bytes:?}");
    }
    // The file: every frame is sealed with it, and one fixed frame is
    // pinned whole.
    let path = temp_store("golden");
    let _ = std::fs::remove_file(&path);
    let store = CacheStore::open(&path, "golden-model", StoreConfig::default()).expect("opens");
    let answer = Arc::new(Completion {
        text: "Rome".to_string(),
        usage: Usage {
            prompt_tokens: 5,
            completion_tokens: 1,
        },
    });
    assert!(store.offer("capital of Italy?", &answer));
    drop(store);
    let bytes = std::fs::read(&path).unwrap();
    let boundaries = record_boundaries(&bytes);
    assert_eq!(boundaries.len(), 2, "header + one frame");
    let frame = &bytes[boundaries[0]..];
    let sealed = frame.len() - 8;
    let checksum = u64::from_le_bytes(frame[sealed..].try_into().unwrap());
    assert_eq!(checksum, checksum64(&frame[4..sealed]));
    assert_eq!(checksum, 0x7cd0_2edf_7eb1_678c, "the pinned frame checksum");
    let _ = std::fs::remove_file(&path);
}

// ── Compaction ─────────────────────────────────────────────────────────

#[test]
fn compaction_copies_live_frames_byte_for_byte() {
    // A frame is immutable once appended: reopening the store and hitting
    // an entry rewrites nothing, so the compacted file is the header plus
    // the live frames exactly as they were first appended.
    let path = temp_store("compact-copy");
    let _ = std::fs::remove_file(&path);
    let config = StoreConfig::default().with_max_entries(2);
    let answer = |text: &str| {
        Arc::new(Completion {
            text: text.to_string(),
            usage: Usage {
                prompt_tokens: 3,
                completion_tokens: 1,
            },
        })
    };
    let appended = |store: &CacheStore, prompt: &str| {
        let before = std::fs::read(&path).unwrap().len();
        assert!(store.offer(prompt, &answer(&prompt.to_uppercase())));
        std::fs::read(&path).unwrap()[before..].to_vec()
    };
    let store = CacheStore::open(&path, "m", config).expect("opens");
    appended(&store, "b");
    let a = appended(&store, "a");
    drop(store);

    let store = CacheStore::open(&path, "m", config).expect("reopens");
    assert_eq!(store.get("a").unwrap().text, "A");
    // Three sightings earn "c" admission at capacity; it displaces "b".
    for _ in 0..3 {
        assert!(store.get("c").is_none());
    }
    let c = appended(&store, "c");
    let header_end = record_boundaries(&std::fs::read(&path).unwrap())[0];
    assert_eq!(store.compact().expect("compacts"), 1);

    let compacted = std::fs::read(&path).unwrap();
    let boundaries = record_boundaries(&compacted);
    assert_eq!(boundaries[0], header_end, "the header is unchanged");
    let frames: Vec<&[u8]> = boundaries
        .windows(2)
        .map(|w| &compacted[w[0]..w[1]])
        .collect();
    assert_eq!(frames, [&a[..], &c[..]], "live frames, sorted, as appended");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failed_compaction_leaves_the_store_serving_and_the_file_unchanged() {
    let path = temp_store("compact-fail");
    let tmp = path.with_extension("compact-tmp");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&tmp);
    let config = StoreConfig::default().with_max_entries(2);
    let store = CacheStore::open(&path, "m", config).expect("opens");
    let answer = |text: &str| {
        Arc::new(Completion {
            text: text.to_string(),
            usage: Usage::default(),
        })
    };
    store.offer("a", &answer("A"));
    store.offer("b", &answer("B"));
    // Three sightings earn "c" admission at capacity; it displaces "a".
    for _ in 0..3 {
        assert!(store.get("c").is_none());
    }
    assert!(store.offer("c", &answer("C")));
    assert_eq!(store.dead_frames(), 1);
    let before = std::fs::read(&path).unwrap();

    // A directory where the temp file goes: the write cannot start.
    std::fs::create_dir_all(&tmp).unwrap();
    assert!(
        store.compact().is_err(),
        "compaction into a directory fails"
    );
    assert!(tmp.is_dir(), "the directory is not the store's to remove");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "store file unchanged"
    );
    assert_eq!(store.dead_frames(), 1, "index unchanged");
    assert_eq!(store.stats().compactions, 0);
    assert_eq!(store.get("b").unwrap().text, "B");
    assert_eq!(store.get("c").unwrap().text, "C");

    std::fs::remove_dir(&tmp).unwrap();
    assert_eq!(store.compact().expect("compacts once the path is free"), 1);
    assert!(!tmp.exists(), "the temp file was renamed over the store");
    assert_eq!(store.get("b").unwrap().text, "B");
    assert_eq!(store.get("c").unwrap().text, "C");
    drop(store);
    let reopened = CacheStore::open(&path, "m", config).expect("reopens");
    assert_eq!(reopened.canonical_prompts(), vec!["b", "c"]);
    let _ = std::fs::remove_file(&path);
}

// ── Bounded growth across reruns ───────────────────────────────────────

#[test]
fn repeated_scenario_runs_do_not_grow_the_store_file() {
    // The append-only file must only grow by completions it does not hold
    // yet: rerunning a deterministic scenario finds every prompt on disk,
    // so nothing is admitted and the file keeps its length.
    let dir = std::env::temp_dir().join(format!("unidm-store-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CacheConfig {
        store_dir: Some(dir.clone()),
        ..CacheConfig::enabled()
    };
    let file = dir.join("rerun-scenario.udmstore");
    let model = llm();

    let mut lengths = Vec::new();
    for run in 0..4 {
        let attached = config.attach("rerun-scenario", &model);
        for i in 0..15 {
            attached
                .model()
                .complete(&hot_prompt(i))
                .expect("scenario prompt completes");
        }
        let stats = attached.store_stats().expect("store attached");
        if run == 0 {
            assert_eq!(stats.admitted, 15, "the first run persists every prompt");
        } else {
            assert_eq!(
                (stats.admitted, stats.hits),
                (0, 15),
                "run {run} is a replay"
            );
        }
        drop(attached);
        lengths.push(std::fs::metadata(&file).expect("store file exists").len());
    }
    assert!(
        lengths.iter().all(|len| *len == lengths[0]),
        "reruns must not grow the file: {lengths:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ── Order-independent tier statistics ──────────────────────────────────

#[test]
fn store_and_cache_stats_merge_exactly_in_any_order() {
    // A sharded tiered run's aggregate CacheStats (the shards' stats
    // merged) is exact, and folds like any other snapshot.
    let model = llm();
    let path = temp_store("stats");
    let _ = std::fs::remove_file(&path);
    let store = CacheStore::open(&path, model.name(), StoreConfig::default()).expect("opens");
    let cache = PromptCache::unbounded(&model)
        .with_shards(8)
        .with_store(store);
    for _round in 0..3 {
        for i in 0..24 {
            cache
                .complete(&format!("stats workload prompt {}", i % 16))
                .expect("completes");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.lookups(), 72, "every lookup counted");
    assert_eq!((stats.misses, stats.hits, stats.coalesced), (16, 56, 0));
    let mut folded = CacheStats::default();
    folded.merge(stats);
    assert_eq!(folded, stats);
    let _ = std::fs::remove_file(&path);
}
