//! `store_churn` — the cache's write-heavy side, over the disk tier.
//! Op = one `complete` through `PromptCache::with_store`.
//!
//! Zipf(0.9) lookups over a working set 16 times tier 0 and 4 times the
//! store's capacity, a one-touch scan of fresh keys mid-pass, `compact()`
//! at pass end; the store file is a fresh copy of the seeded one and is
//! reopened at pass start. `store` get / offer / TinyLFU / evict /
//! compact / open do most of the work; it writes the cache `replay_warm`
//! only reads.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use unidm::{
    CacheStats, CacheStore, CanonLevel, CanonicalPrompt, PromptCache, StoreConfig, StoreStats,
};
use unidm_llm::protocol::{render_pdp, SerializedRecord};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::scale::ScaleSpec;
use unidm_world::World;

use super::{permille, timed_setups, Ctx, Outcome, REFERENCE_PASSES};
use crate::gen::{churn_sequence, Lookup};
use crate::harness::{best_of_s, measure, observe, probe_ns, MIN_PASSES};
use crate::replay::{Recorder, ReplayEndpoint};
use crate::trace::{SpanModel, Tracer, ROOT};

/// Canonical keys of the working set. Not a power of two, so neither is
/// the store's capacity: `compact()` grows its output buffer by doubling
/// from the first frame's length, and with 2^k live frames of about that
/// length the last doubling happens or not as the seed's first frame is
/// shorter or longer than the mean — `peak_live_bytes` then reads 13 MB or
/// 16 MB by coin flip. At three quarters of a power of two every seed
/// stops at the same doubling.
pub const KEYS: usize = 12_288;
/// Tier-0 capacity: a sixteenth of the working set.
pub const TIER0_ENTRIES: usize = KEYS / 16;
/// Disk-tier capacity: a quarter of the working set.
pub const STORE_ENTRIES: usize = KEYS / 4;
/// Zipf lookups per pass.
pub const LOOKUPS: usize = 64_000;
/// Fresh keys of the one-touch scan.
pub const SCAN_KEYS: usize = KEYS / 2;
/// Zipf exponent of the key popularity.
pub const ZIPF_EXPONENT: f64 = 0.9;
/// Records rendered into one key's `p_dp` prompt.
const RECORDS_PER_KEY: usize = 3;

/// Everything a pass needs, built once per set-up.
pub struct Fixture {
    /// Working-set keys: TableStem-canonical `p_dp` prompts.
    pub hot: Vec<String>,
    /// Scan keys, same shape, disjoint from `hot`.
    pub scan: Vec<String>,
    /// The pass's key stream.
    pub sequence: Vec<Lookup>,
    /// The recorded endpoint.
    pub endpoint: ReplayEndpoint,
    /// The seeded store file every pass starts from a copy of.
    pub seeded: PathBuf,
    /// Where a pass's copy goes.
    pub working: PathBuf,
}

fn key_of<'k>(hot: &'k [String], scan: &'k [String], lookup: Lookup) -> &'k str {
    match lookup {
        Lookup::Hot(i) => &hot[i as usize],
        Lookup::Scan(i) => &scan[i as usize],
    }
}

impl Fixture {
    /// The prompt of one step of the key stream.
    pub fn key(&self, lookup: Lookup) -> &str {
        key_of(&self.hot, &self.scan, lookup)
    }
}

/// Key `index`: a `p_dp` prompt over three generated user records, in its
/// TableStem-canonical form.
fn key_prompt(spec: &ScaleSpec, index: usize) -> String {
    let names = ["user_id", "name", "city", "country", "plan", "age"];
    let records: Vec<SerializedRecord> = (0..RECORDS_PER_KEY)
        .map(|k| {
            let row = spec.row(index * RECORDS_PER_KEY + k);
            SerializedRecord::new(
                names
                    .iter()
                    .zip(&row)
                    .filter(|(_, v)| !v.is_null())
                    .map(|(n, v)| (n.to_string(), v.to_string()))
                    .collect(),
            )
        })
        .collect();
    CanonicalPrompt::canonicalize(&render_pdp(&records), CanonLevel::TableStem).into_text()
}

/// The two-tier cache a pass (or the recording run) drives.
pub fn tiered_cache<'a>(inner: &'a dyn LanguageModel, store: CacheStore) -> PromptCache<'a> {
    PromptCache::new(inner, TIER0_ENTRIES)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(store)
}

/// Opens the store file at `path` with the workload's capacity.
pub fn open_store(path: &Path, model: &str) -> CacheStore {
    CacheStore::open(
        path,
        model,
        StoreConfig::default().with_max_entries(STORE_ENTRIES),
    )
    .expect("a store file written by this run opens")
}

/// Keys + key stream + the recording run, which also leaves the seeded
/// store file behind: the stream driven once over an empty store against
/// `MockLlm`, then compacted.
pub fn setup(seed: u64, dir: &Path) -> Fixture {
    let spec = ScaleSpec::new(0, seed);
    let hot: Vec<String> = (0..KEYS).map(|i| key_prompt(&spec, i)).collect();
    let scan: Vec<String> = (KEYS..KEYS + SCAN_KEYS)
        .map(|i| key_prompt(&spec, i))
        .collect();
    let sequence = churn_sequence(seed, KEYS, LOOKUPS, SCAN_KEYS, ZIPF_EXPONENT);

    let world = World::generate(seed);
    let mock = MockLlm::new(&world, LlmProfile::gpt3_175b(), seed);
    let seeded = dir.join("churn-seeded.udmstore");
    let working = dir.join("churn-working.udmstore");
    let _ = std::fs::remove_file(&seeded);
    let recorder = Recorder::new(&mock);
    {
        let store = open_store(&seeded, mock.name());
        let cache = tiered_cache(&recorder, store.clone());
        for &lookup in &sequence {
            cache
                .complete(key_of(&hot, &scan, lookup))
                .expect("the stand-in completes every key");
        }
        store.compact().expect("seeded store compacts");
    }
    Fixture {
        hot,
        scan,
        sequence,
        endpoint: recorder.into_replay(),
        seeded,
        working,
    }
}

/// What one pass leaves behind for verification.
pub struct PassOutput {
    /// Completions whose text differed from the recorded one.
    pub mismatches: u64,
    /// Lookups that returned an error.
    pub errors: u64,
    /// Tier-0 counters.
    pub cache: CacheStats,
    /// Disk-tier counters.
    pub store: StoreStats,
    /// Dead frames `compact()` reclaimed.
    pub reclaimed: usize,
}

/// One pass: reopen the working copy, drive the key stream, compact.
pub fn pass(fx: &Fixture) -> PassOutput {
    let store = open_store(&fx.working, fx.endpoint.name());
    let cache = tiered_cache(&fx.endpoint, store.clone());
    let (mut mismatches, mut errors) = (0u64, 0u64);
    for &lookup in &fx.sequence {
        let key = fx.key(lookup);
        match cache.complete(key) {
            Ok(got) => {
                let recorded =
                    matches!(fx.endpoint.recorded(key), Some(Ok(want)) if want.text == got.text);
                mismatches += u64::from(!recorded);
            }
            Err(_) => errors += 1,
        }
    }
    let reclaimed = store.compact().expect("working store compacts");
    PassOutput {
        mismatches,
        errors,
        cache: cache.stats(),
        store: store.stats(),
        reclaimed,
    }
}

/// Puts a fresh copy of the seeded store where the next pass opens it.
pub fn fresh_copy(fx: &Fixture) {
    std::fs::copy(&fx.seeded, &fx.working).expect("seeded store copies");
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (fx, setups_s) = timed_setups(|| setup(ctx.seed, ctx.dir));
    let mut out = Outcome::default();
    let ops = fx.sequence.len() as u64;
    let mut first: Option<(CacheStats, StoreStats, u64)> = None;
    let measured = measure(
        ctx.seconds,
        MIN_PASSES,
        || {
            fx.endpoint.reset();
            fresh_copy(&fx);
        },
        |()| pass(&fx),
        |index, got| {
            let counts = fx.endpoint.counts();
            out.gate(got.mismatches == 0, || {
                format!(
                    "pass {index}: {} completions differ from the recorded ones",
                    got.mismatches
                )
            });
            out.gate(counts.fallthrough == 0, || {
                format!("pass {index}: {} replay fall-throughs", counts.fallthrough)
            });
            match &first {
                None => {
                    out.attempted = ops;
                    out.failed = got.errors;
                    out.set(
                        "accuracy_permille",
                        permille(ops - got.errors - got.mismatches, ops),
                    );
                    out.notes.push(format!(
                        "store_churn: {ops} lookups ({LOOKUPS} Zipf({ZIPF_EXPONENT}) over {KEYS} keys + \
                         {SCAN_KEYS}-key scan), tier 0 {TIER0_ENTRIES}, store {STORE_ENTRIES}; \
                         {} endpoint calls, {} endpoint tokens; cache {:?}; store {:?}; \
                         compaction reclaimed {}",
                        counts.calls, counts.tokens, got.cache, got.store, got.reclaimed,
                    ));
                    first = Some((got.cache, got.store, counts.calls));
                }
                Some(first) => out.gate(*first == (got.cache, got.store, counts.calls), || {
                    format!(
                        "pass {index}: counters differ from pass 0: {:?} {:?}",
                        got.cache, got.store
                    )
                }),
            }
        },
    );
    out.set_common(&setups_s, ops, &measured);
    out
}

/// Direct probes of `CacheStore` over copies of the seeded file.
fn probe_store(fx: &Fixture, dir: &Path, out: &mut Outcome) {
    let model = fx.endpoint.name();
    let copy = dir.join("churn-probe.udmstore");
    std::fs::copy(&fx.seeded, &copy).expect("seeded store copies");

    let entries = open_store(&copy, model).len();
    let open_s = best_of_s(5, || {
        black_box(open_store(&copy, model).len());
    });
    out.set(
        "store.open_ms_per_k_entries",
        open_s * 1e3 / (entries as f64 / 1000.0),
    );

    let store = open_store(&copy, model);
    let resident = store.canonical_prompts();
    out.set(
        "store.get_hit_us",
        probe_ns(1, resident.len().max(1000), |i| {
            black_box(store.get(&resident[i % resident.len()]).is_some());
        }) / 1e3,
    );
    out.set(
        "store.get_miss_ns",
        probe_ns(1, fx.scan.len().max(1000), |i| {
            black_box(store.get(&fx.scan[i % fx.scan.len()]).is_none());
        }),
    );
    // Space: the compacted file against the prompt and completion bytes
    // it holds.
    let payload: usize = resident
        .iter()
        .map(|key| {
            key.len()
                + match fx.endpoint.recorded(key) {
                    Some(Ok(completion)) => completion.text.len(),
                    _ => 0,
                }
        })
        .sum();
    let file_bytes = std::fs::metadata(&fx.seeded).map_or(0, |m| m.len());
    out.set(
        "store.file_bytes_per_payload_byte",
        file_bytes as f64 / payload.max(1) as f64,
    );
    drop(store);

    // Write cost: appends to an empty, unbounded store.
    let fresh = dir.join("churn-offer.udmstore");
    let _ = std::fs::remove_file(&fresh);
    let unbounded = CacheStore::open(&fresh, model, StoreConfig::default()).expect("fresh store");
    let offers: Vec<(&String, &Arc<unidm_llm::Completion>)> = fx
        .hot
        .iter()
        .filter_map(|key| match fx.endpoint.recorded(key) {
            Some(Ok(completion)) => Some((key, completion)),
            _ => None,
        })
        .take(4000)
        .collect();
    out.gate(offers.len() >= 1000, || {
        format!("only {} recorded keys to offer", offers.len())
    });
    out.set(
        "store.offer_ns",
        probe_ns(1, offers.len().max(1000), |i| {
            let (key, completion) = offers[i % offers.len()];
            black_box(unbounded.offer(key, completion));
        }),
    );
}

/// The traced run: layer metrics.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let fx = setup(ctx.seed, ctx.dir);
    let mut out = Outcome::default();
    let ops = fx.sequence.len() as u64;
    let reference = measure(
        ctx.seconds / 3.0,
        REFERENCE_PASSES,
        || fresh_copy(&fx),
        |()| pass(&fx),
        |_, _| {},
    );

    // Traced pass: open, one span per lookup with an `endpoint` child
    // whenever both tiers missed, compact.
    let tracer = Tracer::new(true);
    fresh_copy(&fx);
    fx.endpoint.reset();
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let (traced, traced_s, _, _) = observe(|| {
        let store = tracer.span("store.open", 0, || {
            open_store(&fx.working, fx.endpoint.name())
        });
        let cache = tiered_cache(&boundary, store.clone());
        let mut mismatches = 0u64;
        for (op, &lookup) in fx.sequence.iter().enumerate() {
            let key = fx.key(lookup);
            let got = tracer.span("exec.cache.complete", op as u64 + 1, || cache.complete(key));
            let recorded = matches!(
                (&got, fx.endpoint.recorded(key)),
                (Ok(got), Some(Ok(want))) if want.text == got.text
            );
            mismatches += u64::from(!recorded);
        }
        let live = store.len();
        let started = Instant::now();
        let reclaimed = tracer.span("store.compact", 0, || store.compact());
        let compact_s = started.elapsed().as_secs_f64();
        (
            mismatches,
            cache.stats(),
            store.stats(),
            live,
            reclaimed,
            compact_s,
        )
    });
    let (mismatches, cache_stats, store_stats, live, reclaimed, compact_s) = traced;
    let counts = fx.endpoint.counts();
    let spans = tracer.spans();
    out.attempted = ops;
    out.failed = 0;
    out.gate(mismatches == 0 && reclaimed.is_ok(), || {
        format!("traced pass: {mismatches} completions differ from the recorded ones, compact {reclaimed:?}")
    });
    out.set_cost(counts, ops, ops);
    out.set_trace_shares(&spans, ops, traced_s, reference.fast_wall());
    out.set("exec.cache.bounded_hit_rate", cache_stats.hit_rate());
    out.set("exec.cache.evictions", cache_stats.evictions as f64);
    out.set("store.hit_rate_permille", store_stats.hit_rate() * 1000.0);
    out.set("store.admitted", store_stats.admitted as f64);
    out.set("store.rejected", store_stats.rejected as f64);
    out.set("store.evicted", store_stats.evicted as f64);
    out.set(
        "store.compact_ms_per_k_entries",
        compact_s * 1e3 / (live.max(1) as f64 / 1000.0),
    );
    // Scan resistance: of the working-set lookups after the scan, the
    // share neither tier had to send to the endpoint.
    let scan_end = (LOOKUPS / 2 + SCAN_KEYS) as u64;
    let after_scan = ops - scan_end;
    let sent_after_scan = spans
        .iter()
        .filter(|s| s.name == "endpoint" && s.parent != ROOT && s.op > scan_end)
        .count() as u64;
    out.set(
        "store.scan_hot_rate_permille",
        permille(after_scan - sent_after_scan, after_scan),
    );
    out.keep_spans(ctx.dir, "spans-lookups.tsv", &spans);
    out.notes.push(format!(
        "store_churn traced: {ops} lookups, cache {cache_stats:?}, store {store_stats:?}, traced pass \
         {traced_s:.4}s vs untraced p10 {:.4}s",
        reference.fast_wall(),
    ));
    probe_store(&fx, ctx.dir, &mut out);
    out
}
