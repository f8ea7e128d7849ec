//! The exact-counter ledger: one pass of this binary writes the committed
//! `BENCH_<pr>.json`, and every field in it is an integer (or a name) that
//! is a pure function of the source tree — no wall time, no float, nothing
//! that depends on the host or on OS scheduling. Regenerate it anywhere
//! and `cmp` it with the committed file. Timing has its own authority:
//! `BENCHMARK.json` + `benchmark/`.
//!
//! Every regime runs on **one worker** on the calling thread (so its
//! allocation count is exact) except the two pipelined ones, whose 64
//! workers are seated with the [`Dispatcher`] before any of them issues a
//! call and which report only what the reactor makes schedule-independent.
//!
//! * **serial / cold cache / warm cache** — no cache, a cold
//!   [`PromptCache`] at [`CanonLevel::TableStem`], and the same cache warm.
//! * **dup serial / dup planner** (`duplicate_heavy`, `warm_lookups`) —
//!   every task `DUP_FACTOR` times, interleaved: with the planner off the
//!   cache's miss count *is* the number of unique canonical keys; with it
//!   on, duplicates never reach the cache. Re-looking up the canonical
//!   texts afterwards must allocate nothing.
//! * **cold store / warm store** (`store`) — a [`CacheStore`] disk tier
//!   under the cache: the cold run admits every unique key, the warm run
//!   reopens the file under a fresh tier 0 and answers with zero model
//!   calls. Each regime's `served` object splits its lookups into disjoint
//!   outcomes (tier-0 hit / store hit / coalesced / model call). A scan of
//!   10^5 one-touch keys must not displace the hot set; compaction must
//!   reclaim every displaced frame.
//! * **canon v2** — the recorded `p_dp`/`p_ri` prompts plus a reordered
//!   variant of each: [`CanonLevel::Semantic`] folds every variant into a
//!   hit, `TableStem` none; warm `Semantic` lookups allocate nothing.
//! * **sync / pipelined / pipelined hedged heavy-tail** — 3% of attempts
//!   take 2 s of virtual time; blocking, through the event-driven
//!   dispatcher, and with P90 hedge timers. Answers identical, endpoint
//!   calls == unique keys (hedges accounted separately), makespan and P99
//!   beat the blocking path.
//! * **routed** — a pinned 3-replica [`RoutedBackend`] fleet under heavy
//!   tail + timeouts/429s/5xxs against a single endpoint of the same
//!   per-endpoint capacity, at two fault seeds: the fleet's makespan beats
//!   every single-endpoint run.
//! * **cascade** — GPT-J-6B escalating to GPT-3-175B below a confidence
//!   gate versus large-only: fewer large-tier tokens, lower bill.
//! * **scale** — a 10^6-row lake (10^5 under `--quick`) spilled to a disk
//!   segment and streamed through [`BatchRunner::run_streaming`]: peak
//!   live allocation stays under a budget that does not grow with rows.
//! * **serving** — the open-loop ten-tenant simulation of `unidm::serve`
//!   under moderate faults, one replay worker.
//!
//! What the deleted regimes and flags asserted is held by tier-1 tests:
//! parallel == serial (`tests/batch_exec.rs`), one endpoint call per key
//! at 2/8 workers × 1/8 shards (`tests/coalescing.rs`), faulty and routed
//! answers (`tests/fault_injection.rs`, `tests/routing.rs`), streaming ==
//! materialized (`tests/streaming_exec.rs`), serving reports identical
//! across worker counts and reruns (`tests/serving.rs`).
//!
//! ```text
//! cargo run -p unidm-bench --release --bin throughput            # paper scale
//! cargo run -p unidm-bench --release --bin throughput -- --quick # smoke scale
//! cargo run -p unidm-bench --release --bin throughput -- --bench-json out/BENCH.json
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use unidm::serve::{ArrivalProcess, ServeConfig, ServeSim, TenantSpec};
use unidm::{
    AimdPolicy, BackendConfig, BackendStats, BatchReport, BatchRunner, CacheStats, CacheStore,
    CanonLevel, CascadeBackend, CascadePolicy, Dispatcher, HedgePolicy, PipelineConfig,
    PromptCache, RoutePlan, RoutedBackend, RouterStats, StoreConfig, StoreStats, Task,
};
use unidm_bench::alloc_counter::{self, AllocationDelta};
use unidm_bench::{config_from_args, json_array, CallCounter, JsonObject, BASELINE_PR};
use unidm_eval::streams::record_streams;
use unidm_llm::{Clock, Completion, FaultPlan, LanguageModel, LlmProfile, MockLlm, Usage};
use unidm_synthdata::imputation;
use unidm_synthdata::scale::{ScaleSpec, TABLE_NAME as SCALE_TABLE};
use unidm_tablestore::DataLake;
use unidm_text::hash::{fnv1a64, fnv1a64_extend};
use unidm_world::World;

/// How many times each task repeats in the duplicate-heavy regimes.
const DUP_FACTOR: usize = 4;

/// Imputation tasks dispatched by the out-of-core `scale` regime, spread
/// evenly over the whole row range so the pager pages across the segment.
const SCALE_TASKS: usize = 96;
/// Rows per sealed chunk of the scale table.
const SCALE_CHUNK_ROWS: usize = 1024;
/// Chunks the pager may keep resident while streaming.
const SCALE_PAGE_BUDGET: usize = 8;
/// Tasks per streaming partition.
const SCALE_PARTITION_TASKS: usize = 32;
/// Peak live-byte budget for the whole out-of-core section — segment
/// generation included. A fixed constant: a 10^6-row lake held in memory
/// in chunked columnar form alone exceeds it, so staying under proves the
/// streaming run never materializes the lake.
const SCALE_PEAK_BUDGET_BYTES: u64 = 32 * 1024 * 1024;

/// Hot keys the scan-resistance pass must keep resident.
const HOT_SET: usize = 64;
/// Distinct one-touch keys the scan streams past them.
const SCAN_KEYS: usize = 100_000;
/// Capacity of the store the churn pass displaces entries from.
const CHURN_CAP: usize = 8;

/// Concurrent service slots of the simulated deployment — provisioned so
/// the paper-scale mix runs near 50% utilization: queueing and fault tails
/// are visible in the p99/p999 without drowning every tenant in saturation.
const SERVERS: u32 = 16;
/// Per-tenant SLOs cycle through tight / standard / relaxed, µs.
const SLOS_US: [u64; 3] = [300_000, 1_000_000, 5_000_000];
/// Seed of the serving section's moderate fault schedule.
const SERVING_FAULT_SEED: u64 = 7;

/// What every section runs against: the endpoint behind a call counter
/// ("model calls" means completions that reached the model) and the
/// Restaurant imputation workload.
struct Bench<'a> {
    llm: &'a CallCounter<'a>,
    world: &'a World,
    seed: u64,
    lake: DataLake,
    tasks: Vec<Task>,
    pipeline: PipelineConfig,
}

/// One one-worker pass over a task list and the counters it moved.
struct Pass {
    answers: Vec<String>,
    report: BatchReport,
    model_tokens: u64,
    model_calls: u64,
    cache: Option<CacheStats>,
    allocs_per_task: u64,
}

impl<'a> Bench<'a> {
    fn new(llm: &'a CallCounter<'a>, world: &'a World, seed: u64, n_tasks: usize) -> Self {
        let ds = imputation::restaurant(world, seed, n_tasks);
        let tasks = ds
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
        Bench {
            llm,
            world,
            seed,
            lake: [ds.table].into_iter().collect(),
            tasks,
            pipeline: PipelineConfig::paper_default().with_seed(seed),
        }
    }

    /// A cold `TableStem` cache over `model`.
    fn cache<'m>(&self, model: &'m dyn LanguageModel) -> PromptCache<'m> {
        PromptCache::unbounded(model).with_canonicalization(CanonLevel::TableStem)
    }

    /// Runs `tasks` on one worker through `cache` (or straight at the
    /// endpoint). Counters are per pass, so a pass over an already-used
    /// cache shows only its own traffic.
    fn pass(&self, cache: Option<&PromptCache<'_>>, tasks: &[Task], dedup: bool) -> Pass {
        self.llm.reset_usage();
        self.llm.reset_calls();
        let before = cache.map(PromptCache::stats);
        let model: &dyn LanguageModel = match cache {
            Some(cache) => cache,
            None => self.llm,
        };
        let runner = BatchRunner::new(model, self.pipeline)
            .with_workers(1)
            .with_dedup(dedup);
        let section = AllocationDelta::start();
        let report = runner.run_report(&self.lake, tasks);
        let allocs_per_task = section.allocations() / tasks.len().max(1) as u64;
        Pass {
            answers: answers_of(&report),
            report,
            model_tokens: self.llm.usage().total() as u64,
            model_calls: self.llm.calls(),
            cache: cache.zip(before).map(|(cache, before)| {
                let after = cache.stats();
                CacheStats {
                    hits: after.hits - before.hits,
                    misses: after.misses - before.misses,
                    coalesced: after.coalesced - before.coalesced,
                    evictions: after.evictions - before.evictions,
                    tokens_saved: after.tokens_saved - before.tokens_saved,
                }
            }),
            allocs_per_task,
        }
    }
}

fn answers_of(report: &BatchReport) -> Vec<String> {
    report
        .results
        .iter()
        .map(|r| r.as_ref().map(|o| o.answer.clone()).unwrap_or_default())
        .collect()
}

impl Pass {
    /// The regime's entry in the ledger, left open for section extras.
    fn regime(&self, name: &str) -> JsonObject {
        let mut obj = JsonObject::new()
            .field_str("name", name)
            .field_u64("model_tokens", self.model_tokens)
            .field_u64("model_calls", self.model_calls);
        if let Some(stats) = self.cache {
            obj = obj
                .field_u64("cache_hits", stats.hits as u64)
                .field_u64("cache_misses", stats.misses as u64)
                .field_u64("cache_coalesced", stats.coalesced as u64)
                .field_u64("tokens_saved", stats.tokens_saved as u64);
        }
        obj.field_u64("allocs_per_task", self.allocs_per_task)
    }
}

/// serial, cold cache, warm cache. Returns the serial answers — the
/// reference every later section must reproduce bit for bit.
fn ladder(bench: &Bench<'_>, regimes: &mut Vec<String>) -> Vec<String> {
    let serial = bench.pass(None, &bench.tasks, false);
    let cache = bench.cache(bench.llm);
    let cold = bench.pass(Some(&cache), &bench.tasks, false);
    let warm = bench.pass(Some(&cache), &bench.tasks, false);
    assert_eq!(cold.answers, serial.answers, "the cache changed an answer");
    assert_eq!(warm.answers, serial.answers, "the warm cache diverged");
    assert!(
        cold.model_tokens < serial.model_tokens,
        "a cold cache must still save tokens across tasks"
    );
    assert_eq!(warm.model_calls, 0, "a warm cache never reaches the model");
    regimes.push(serial.regime("serial").finish());
    regimes.push(cold.regime("cold cache").finish());
    regimes.push(warm.regime("warm cache").finish());
    serial.answers
}

/// Every task `DUP_FACTOR` times, interleaved — the shape a service sees
/// when many users ask the same questions — planner off over `cache`, then
/// planner on over a fresh one.
fn duplicate_heavy(
    bench: &Bench<'_>,
    cache: &PromptCache<'_>,
    regimes: &mut Vec<String>,
) -> String {
    let unique = bench.tasks.len();
    let dup_tasks: Vec<Task> = (0..unique * DUP_FACTOR)
        .map(|i| bench.tasks[i % unique].clone())
        .collect();

    // Planner off: every duplicate runs, so the cache's miss count *is*
    // the number of unique canonical keys.
    let serial = bench.pass(Some(cache), &dup_tasks, false);
    let stats = serial.cache.expect("cached pass");
    assert_eq!(
        serial.model_calls, stats.misses as u64,
        "every endpoint call is a unique-key miss"
    );
    assert_eq!(stats.coalesced, 0, "a serial run can never coalesce");

    // Planner on: each unique task runs once and its output is copied.
    let planner_cache = bench.cache(bench.llm);
    let planner = bench.pass(Some(&planner_cache), &dup_tasks, true);
    assert_eq!(
        planner.answers, serial.answers,
        "planner-copied outputs must be bit-identical to serial"
    );
    assert_eq!(planner.report.unique_tasks, unique);
    assert_eq!(planner.report.coalesced_tasks, dup_tasks.len() - unique);
    assert_eq!(
        planner.model_calls, serial.model_calls,
        "planner: one endpoint call per unique canonical key"
    );
    regimes.push(serial.regime("dup serial").finish());
    regimes.push(planner.regime("dup planner").finish());
    JsonObject::new()
        .field_u64("tasks", dup_tasks.len() as u64)
        .field_u64("unique_tasks", unique as u64)
        .field_u64("dup_factor", DUP_FACTOR as u64)
        .field_u64("unique_canonical_keys", stats.misses as u64)
        .field_u64("endpoint_calls", serial.model_calls)
        .field_u64(
            "planner_coalesced_tasks",
            planner.report.coalesced_tasks as u64,
        )
        .finish()
}

/// Re-looks up every canonical text of a warm cache: each is already
/// canonical, so the whole lookup — canonicalize, hash, shard probe,
/// recency refresh, `Arc` bump — must not touch the heap.
fn warm_lookups(cache: &PromptCache<'_>) -> String {
    let texts = cache.canonical_prompts();
    let hits_before = cache.stats().hits;
    let section = AllocationDelta::start();
    for text in &texts {
        let _ = cache.complete(text);
    }
    let (allocations, bytes) = (section.allocations(), section.bytes());
    assert_eq!(
        cache.stats().hits - hits_before,
        texts.len(),
        "every canonical text must hit the warm cache"
    );
    assert_eq!(
        allocations, 0,
        "warm-path lookups must perform zero heap allocations ({bytes} bytes)"
    );
    JsonObject::new()
        .field_u64("lookups", texts.len() as u64)
        .field_u64("allocations", allocations)
        .field_u64("bytes", bytes)
        .finish()
}

fn store_stats_json(s: &StoreStats) -> String {
    JsonObject::new()
        .field_u64("hits", s.hits as u64)
        .field_u64("misses", s.misses as u64)
        .field_u64("admitted", s.admitted as u64)
        .field_u64("rejected", s.rejected as u64)
        .field_u64("evicted", s.evicted as u64)
        .field_u64("expired", s.expired as u64)
        .field_u64("compactions", s.compactions as u64)
        .field_u64("compacted_frames", s.compacted_frames as u64)
        .finish()
}

/// The workload with a disk tier beneath the cache, cold then warm, plus
/// the scan-resistance and compaction passes.
fn tiered_store(bench: &Bench<'_>, reference: &[String], regimes: &mut Vec<String>) -> String {
    // Fixed-width scratch name: a path's length must not reach a counter.
    let dir = std::env::temp_dir().join(format!("unidm-bench-store-{:010}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store scratch dir");
    let file = dir.join("throughput.udmstore");
    let name = bench.llm.name();

    // One regime over a store-backed cache, with its lookups split into
    // disjoint outcomes: a warm store reads 0 model calls *because* every
    // tier-0 miss was a store hit.
    let mut run = |regime: &str| {
        let store = CacheStore::open(&file, name, StoreConfig::default()).expect("store opens");
        let cache = bench.cache(bench.llm).with_store(store.clone());
        let pass = bench.pass(Some(&cache), &bench.tasks, false);
        assert_eq!(pass.answers, reference, "the disk tier changed an answer");
        let (tier0, disk) = (pass.cache.expect("cached pass"), store.stats());
        assert_eq!(
            tier0.hits + disk.hits + tier0.coalesced + pass.model_calls as usize,
            tier0.lookups(),
            "{regime}: every lookup has exactly one outcome"
        );
        let served = JsonObject::new()
            .field_u64("tier0_hits", tier0.hits as u64)
            .field_u64("store_hits", disk.hits as u64)
            .field_u64("coalesced", tier0.coalesced as u64)
            .field_u64("model_calls", pass.model_calls);
        regimes.push(
            pass.regime(regime)
                .field_raw("served", &served.finish())
                .finish(),
        );
        (pass, disk, cache)
    };
    let (cold_pass, cold, _) = run("cold store");
    assert_eq!(cold.hits, 0, "a fresh store has nothing to hit");
    assert_eq!(
        cold.misses as u64, cold_pass.model_calls,
        "cold store: every disk miss becomes exactly one model call"
    );
    assert_eq!(
        (cold.admitted, cold.rejected),
        (cold.misses, 0),
        "below capacity every completion is admitted"
    );
    // Reopened under a fresh tier 0 — a cold process image.
    let (warm_pass, warm, warm_cache) = run("warm store");
    assert_eq!(
        warm_pass.model_calls, 0,
        "warm replay from the disk tier must use zero model calls"
    );
    assert_eq!(
        warm.hits, cold.misses,
        "every unique canonical key replays from disk"
    );
    // Tier-0 hits never touch the disk tier, so the store field leaves the
    // zero-allocation warm path as it was.
    let json = JsonObject::new()
        .field_raw("cold", &store_stats_json(&cold))
        .field_raw("warm", &store_stats_json(&warm))
        .field_u64("warm_model_calls", warm_pass.model_calls)
        .field_raw("warm_lookups", &warm_lookups(&warm_cache))
        .field_raw("scan", &store_scan(&dir.join("scan.udmstore"), name))
        .field_raw(
            "compaction",
            &store_compaction(&dir.join("churn.udmstore"), name),
        )
        .finish();
    let _ = std::fs::remove_dir_all(&dir);
    json
}

fn filler(text: String) -> Arc<Completion> {
    Arc::new(Completion {
        text,
        usage: Usage::default(),
    })
}

/// Scan resistance: a capacity-bounded store holding a twice-touched hot
/// set, then one pass of distinct one-touch keys — the table-scan shape.
/// TinyLFU must reject every scan key (estimate < 3 at capacity), so the
/// hot set survives at a 100% hit rate.
fn store_scan(file: &Path, model: &str) -> String {
    let config = StoreConfig::default().with_max_entries(HOT_SET);
    let store = CacheStore::open(file, model, config).expect("scan store");
    let hot_key = |i: usize| format!("hot key {i:03}");
    for i in 0..HOT_SET {
        assert!(
            store.offer(&hot_key(i), &filler(format!("hot value {i}"))),
            "hot set admits below capacity"
        );
    }
    // Second sighting: the hot keys now clear the admission estimate.
    assert!((0..HOT_SET).all(|i| store.get(&hot_key(i)).is_some()));
    let scan_value = filler("scan value".into());
    let admitted = (0..SCAN_KEYS)
        .filter(|k| store.offer(&format!("scan key {k:06}"), &scan_value))
        .count();
    assert_eq!(
        admitted, 0,
        "one-touch scan keys must not displace the hot set"
    );
    let hot_hits = (0..HOT_SET)
        .filter(|&i| store.get(&hot_key(i)).is_some())
        .count();
    assert_eq!(
        hot_hits, HOT_SET,
        "hot-set hit rate must stay at 100% after the scan"
    );
    let stats = store.stats();
    assert_eq!((stats.rejected, stats.evicted), (SCAN_KEYS, 0));
    JsonObject::new()
        .field_u64("hot_set", HOT_SET as u64)
        .field_u64("scan_keys", SCAN_KEYS as u64)
        .field_u64("scan_admitted", admitted as u64)
        .field_u64("hot_hits", hot_hits as u64)
        .field_u64("hot_hit_rate_permille", (hot_hits * 1000 / HOT_SET) as u64)
        .field_u64("rejected", stats.rejected as u64)
        .field_u64("evicted", stats.evicted as u64)
        .finish()
}

/// Churn + compaction: at capacity, candidates that earn admission
/// displace the FIFO-oldest resident, leaving dead frames the append-only
/// file cannot reuse — compaction must reclaim every one.
fn store_compaction(file: &Path, model: &str) -> String {
    let config = StoreConfig::default().with_max_entries(CHURN_CAP);
    let store = CacheStore::open(file, model, config).expect("churn store");
    let value = filler("scan value".into());
    for i in 0..CHURN_CAP {
        store.offer(&format!("resident {i}"), &value);
    }
    for i in 0..CHURN_CAP {
        // Four sightings: doorkeeper, two sketch bumps, then estimate 3
        // ⇒ admit (each rejected offer still teaches the filter).
        for _ in 0..4 {
            store.offer(&format!("challenger {i}"), &value);
        }
    }
    let dead_before = store.dead_frames();
    assert_eq!(
        dead_before, CHURN_CAP,
        "every admitted challenger leaves one displaced frame behind"
    );
    let reclaimed = store.compact().expect("compaction succeeds");
    assert_eq!((reclaimed, store.dead_frames()), (dead_before, 0));
    let stats = store.stats();
    JsonObject::new()
        .field_u64("capacity", CHURN_CAP as u64)
        .field_u64("dead_before", dead_before as u64)
        .field_u64("reclaimed", reclaimed as u64)
        .field_u64("compactions", stats.compactions as u64)
        .field_u64("compacted_frames", stats.compacted_frames as u64)
        .finish()
}

/// A deterministically reordered variant of a `p_dp` prompt (record lines
/// reversed) or a `p_ri` prompt (instance list reversed and renumbered);
/// `None` for any other prompt or when reordering changes nothing.
fn reordered(text: &str) -> Option<String> {
    const PDP_OPEN: &str = "logical order: [";
    if let Some(pos) = text.find(PDP_OPEN) {
        let splice = pos + PDP_OPEN.len();
        if !text.ends_with(']') || splice >= text.len() - 1 {
            return None;
        }
        let body = &text[splice..text.len() - 1];
        let mut lines: Vec<&str> = body.split('\n').collect();
        lines.reverse();
        let reversed = lines.join("\n");
        return (reversed != body).then(|| format!("{}{reversed}]", &text[..splice]));
    }
    if !text.contains("Score the relevance") {
        return None;
    }
    let (header, rest) = text.split_once('\n')?;
    let mut bodies: Vec<&str> = Vec::new();
    for (i, line) in rest.split('\n').enumerate() {
        let (number, body) = line.split_once(". ")?;
        if number.parse::<usize>().ok()? != i + 1 {
            return None;
        }
        bodies.push(body);
    }
    let mut out = String::from(header);
    for (i, body) in bodies.iter().rev().enumerate() {
        out.push_str(&format!("\n{}. {body}", i + 1));
    }
    (out != text).then_some(out)
}

/// Canon v2: `TableStem` keys every reordered variant separately; the
/// `Semantic` fold must map each onto its original — a strictly higher
/// hit rate on the same stream.
fn canon_v2(bench: &Bench<'_>, canonical_texts: &[String]) -> String {
    let foldable: Vec<(&String, String)> = canonical_texts
        .iter()
        .filter_map(|t| reordered(t).map(|v| (t, v)))
        .collect();
    assert!(
        !foldable.is_empty(),
        "the workload must contain reorderable p_dp/p_ri prompts"
    );
    let stream = |level| {
        let cache = PromptCache::unbounded(bench.llm).with_canonicalization(level);
        for (original, _) in &foldable {
            let _ = cache.complete(original);
        }
        for (_, variant) in &foldable {
            let _ = cache.complete(variant);
        }
        cache
    };
    let stem = stream(CanonLevel::TableStem).stats();
    let semantic_cache = stream(CanonLevel::Semantic);
    let semantic = semantic_cache.stats();
    assert!(
        semantic.hits >= foldable.len(),
        "Semantic must fold every reordered variant onto its original"
    );
    assert!(
        semantic.hits > stem.hits && semantic.misses < stem.misses,
        "canon v2 must strictly beat TableStem on the reordered stream: \
         {semantic:?} vs {stem:?}"
    );
    // A text the fold produced is already sorted, which the fold must
    // notice before it allocates anything. Rounded up, so one stray
    // allocation anywhere reads 1, not 0.
    let folded_texts = semantic_cache.canonical_prompts();
    let section = AllocationDelta::start();
    for text in &folded_texts {
        let _ = semantic_cache.complete(text);
    }
    let warm_allocs = section
        .allocations()
        .div_ceil(folded_texts.len().max(1) as u64);
    assert_eq!(
        warm_allocs, 0,
        "warm Semantic lookups must perform zero heap allocations"
    );
    // The reordered variants again: each folds on the way in and replays
    // on the way out — the fold's scratch and text, the replay's, and the
    // adapted completion: a handful, not one per list element.
    let section = AllocationDelta::start();
    for (_, variant) in &foldable {
        let _ = semantic_cache.complete(variant);
    }
    let fold_allocs = section.allocations().div_ceil(foldable.len() as u64);
    let level_json = |s: &CacheStats| {
        JsonObject::new()
            .field_u64("hits", s.hits as u64)
            .field_u64("misses", s.misses as u64)
            .finish()
    };
    JsonObject::new()
        .field_u64("foldable_prompts", foldable.len() as u64)
        .field_raw("tablestem", &level_json(&stem))
        .field_raw("semantic", &level_json(&semantic))
        .field_u64("semantic_warm_allocs_per_lookup", warm_allocs)
        .field_u64("semantic_fold_allocs_per_lookup", fold_allocs)
        .finish()
}

/// What one pipelined batch through a fresh dispatcher produced.
struct Dispatched {
    answers: Vec<String>,
    model_tokens: u64,
    model_calls: u64,
    stats: BackendStats,
    fault_attempts: u64,
    makespan_us: u64,
}

/// The workload through an event-driven dispatcher built from `config`, on
/// `slots` seated workers, after `warmup` distinct prompts complete
/// serially so even the first wave of dispatches can arm hedge timers.
fn dispatched(bench: &Bench<'_>, config: BackendConfig, warmup: u64, slots: usize) -> Dispatched {
    let dispatcher = Dispatcher::new(bench.llm, config);
    for i in 0..warmup {
        dispatcher
            .complete(&format!("latency estimator warmup {i}"))
            .expect("warmup prompt completes");
    }
    bench.llm.reset_usage();
    bench.llm.reset_calls();
    // Seated workers never wait in the cache's in-flight slot: they
    // complete below and the reactor coalesces duplicate prompts itself.
    // The cache's hit/miss split then counts timing-dependent co-leaders,
    // so the ledger reports the dispatcher's schedule-independent
    // accounting instead.
    let cache = bench.cache(&dispatcher);
    let report = BatchRunner::new(&cache, bench.pipeline)
        .with_workers(slots)
        .with_pipeline(&dispatcher)
        .run_report(&bench.lake, &bench.tasks);
    Dispatched {
        answers: answers_of(&report),
        model_tokens: bench.llm.usage().total() as u64,
        model_calls: bench.llm.calls(),
        stats: dispatcher.stats(),
        fault_attempts: dispatcher.fault_stats().expect("faults attached").attempts,
        makespan_us: dispatcher.clock().now_micros(),
    }
}

impl Dispatched {
    fn regime(&self, name: &str) -> String {
        JsonObject::new()
            .field_str("name", name)
            .field_u64("model_tokens", self.model_tokens)
            .field_u64("model_calls", self.model_calls)
            .finish()
    }

    fn timeline(&self) -> JsonObject {
        JsonObject::new()
            .field_u64("makespan_us", self.makespan_us)
            .field_u64("p99_us", self.stats.request_latency.quantile_us(990))
            .field_u64("endpoint_calls", self.stats.attempts)
    }
}

/// The workload against an endpoint whose attempts carry a 3% /
/// 2-virtual-second latency tail, three ways. The fault schedule is
/// deterministic and the pipelined workers are seated before they run, so
/// every relation below is an exact assertion, not a threshold.
fn heavy_tail(bench: &Bench<'_>, reference: &[String], regimes: &mut Vec<String>) -> String {
    let hedge_policy = HedgePolicy::at_quantile(900);
    let warmup = hedge_policy.min_samples;
    let slots = bench.tasks.len().clamp(2, 64);

    // Synchronous: every miss blocks through the resilient backend —
    // virtual elapsed time is the *sum* of attempt latencies.
    let config = BackendConfig::resilient(bench.seed)
        .without_breaker()
        .with_faults(FaultPlan::heavy_tail(bench.seed));
    let backend = config.wrap(bench.llm);
    let cache = bench.cache(backend.model());
    let sync = bench.pass(Some(&cache), &bench.tasks, false);
    let sync_makespan = backend.elapsed_us();
    let sync_p99 = backend
        .stats()
        .expect("backend attached")
        .request_latency
        .quantile_us(990);
    let unique = cache.stats().misses as u64;
    assert_eq!(sync.answers, reference, "latency changed an answer");
    assert_eq!(
        sync.model_calls, unique,
        "sync: one endpoint call per unique canonical key"
    );

    let pipe = dispatched(bench, config.with_pipelined(), warmup, slots);
    assert_eq!(pipe.answers, reference, "pipelining changed an answer");
    assert_eq!(pipe.stats.hedges_issued, 0, "no hedge policy, no hedges");
    assert_eq!(
        pipe.stats.attempts,
        unique + warmup,
        "pipelined: one endpoint dispatch per unique canonical key (plus warmup)"
    );
    assert_eq!(
        (pipe.fault_attempts, pipe.stats.failures),
        (pipe.stats.attempts, 0),
        "every dispatched copy reaches the fault injector exactly once"
    );
    assert!(
        pipe.makespan_us < sync_makespan,
        "pipelined makespan {}us must beat synchronous {sync_makespan}us",
        pipe.makespan_us
    );

    let hedged_config = config.with_pipelined().with_hedge(hedge_policy);
    let hedged = dispatched(bench, hedged_config, warmup, slots);
    let stats = &hedged.stats;
    assert_eq!(hedged.answers, reference, "hedging changed an answer");
    assert!(
        stats.hedges_issued > 0,
        "a 3% tail over {unique} unique keys must arm hedges"
    );
    assert_eq!(
        stats.attempts - stats.hedges_issued,
        unique + warmup,
        "hedged: hedge duplicates are accounted separately from primaries"
    );
    assert_eq!(
        (hedged.fault_attempts, stats.failures),
        (stats.attempts, 0),
        "every primary and every hedge copy reaches the injector exactly once"
    );
    assert_eq!(
        stats.hedges_cancelled, stats.hedges_issued,
        "heavy-tail injects no errors, so every hedge pair has exactly one loser"
    );
    assert!(
        hedged.makespan_us < sync_makespan && stats.request_latency.quantile_us(990) < sync_p99,
        "hedged makespan and P99 must beat synchronous {sync_makespan}us / {sync_p99}us"
    );

    regimes.push(sync.regime("sync heavy-tail").finish());
    regimes.push(pipe.regime("pipelined heavy-tail"));
    regimes.push(hedged.regime("pipelined hedged"));
    let sync_json = JsonObject::new()
        .field_u64("makespan_us", sync_makespan)
        .field_u64("p99_us", sync_p99)
        .field_u64("endpoint_calls", sync.model_calls);
    let hedged_json = hedged
        .timeline()
        .field_u64("hedges_issued", stats.hedges_issued)
        .field_u64("hedges_won", stats.hedges_won)
        .field_u64("hedges_cancelled", stats.hedges_cancelled);
    JsonObject::new()
        .field_u64("unique_canonical_keys", unique)
        .field_u64("warmup_prompts", warmup)
        .field_u64("pipeline_slots", slots as u64)
        .field_raw("sync", &sync_json.finish())
        .field_raw("pipelined", &pipe.timeline().finish())
        .field_raw("hedged", &hedged_json.finish())
        .finish()
}

fn rate_limited(stats: &RouterStats) -> u64 {
    stats.endpoints.iter().map(|e| e.rate_limited).sum()
}

/// Routed fleet vs any single endpoint. Every replica carries its own
/// fault schedule, breaker, and adaptive AIMD token bucket seeded at
/// 5 attempts/sec — a throttle-bound regime, so aggregate fleet capacity
/// (not scheduling luck) decides the virtual-time makespan. The fleet size
/// is pinned so that "beats every single endpoint" is a property of the
/// committed configuration.
fn routed(bench: &Bench<'_>, reference: &[String]) -> String {
    let replicas: u32 = 3;
    let aimd = AimdPolicy::per_sec(5);
    let run = |replicas: u32, seed: u64| {
        let faults = FaultPlan {
            timeout_permille: 40,
            rate_limit_permille: 80,
            transient_permille: 60,
            max_consecutive_faults: 4,
            ..FaultPlan::heavy_tail(seed)
        };
        let router = RoutedBackend::from_plan(
            bench.llm,
            BackendConfig::resilient(seed)
                .with_faults(faults)
                .with_route(RoutePlan::replicas(replicas).with_aimd(aimd)),
        );
        let answers = BatchRunner::new(&bench.cache(&router), bench.pipeline)
            .with_workers(1)
            .answers(&bench.lake, &bench.tasks);
        let stats = router.stats();
        assert_eq!(
            answers, reference,
            "routing changed an answer (seed {seed})"
        );
        assert_eq!(
            stats.failures, 0,
            "every routed call completes (seed {seed})"
        );
        (seed, stats, router.clock().now_micros())
    };
    let seeds = [bench.seed, bench.seed.wrapping_mul(31).wrapping_add(1000)];
    let singles = seeds.map(|seed| run(1, seed));
    let fleets = seeds.map(|seed| run(replicas, seed));
    let best_single = singles.iter().map(|(_, _, m)| *m).min().expect("two runs");
    for (seed, stats, makespan) in &fleets {
        assert!(
            stats.endpoints.iter().all(|e| e.calls > 0),
            "uniform routing must spread traffic over all {replicas} replicas: {stats:?}"
        );
        let aimd_decreases: u64 = stats.endpoints.iter().map(|e| e.aimd_decreases).sum();
        assert!(
            rate_limited(stats) > 0 && aimd_decreases > 0,
            "the 429 schedule must actually drive AIMD adaptation: {stats:?}"
        );
        assert!(
            *makespan < best_single,
            "fleet makespan {makespan}us (seed {seed}) must beat every single \
             endpoint (best single {best_single}us)"
        );
    }
    let entries = |runs: &[(u64, RouterStats, u64)]| {
        let entries: Vec<String> = runs
            .iter()
            .map(|(seed, stats, makespan)| {
                let calls: Vec<String> = stats
                    .endpoints
                    .iter()
                    .map(|e| e.calls.to_string())
                    .collect();
                JsonObject::new()
                    .field_u64("fault_seed", *seed)
                    .field_u64("makespan_us", *makespan)
                    .field_u64("answers", stats.answers)
                    .field_u64("attempts", stats.attempts())
                    .field_u64("rate_limited", rate_limited(stats))
                    .field_u64("breaker_trips", stats.breaker_trips())
                    .field_u64("tokens_per_answer_milli", stats.tokens_per_answer_milli())
                    .field_raw("endpoint_calls", &json_array(&calls))
                    .finish()
            })
            .collect();
        json_array(&entries)
    };
    JsonObject::new()
        .field_u64("replicas", u64::from(replicas))
        .field_u64("aimd_initial_per_sec", aimd.initial_per_sec)
        .field_raw("single_endpoint", &entries(&singles))
        .field_raw("fleet", &entries(&fleets))
        .finish()
}

/// Cascade: the workload's unique prompt stream (recorded from a serial
/// large-only run — the pipeline's prompts are answer-dependent, so the
/// stream must be fixed before the models can be compared) through a
/// GPT-J-6B → GPT-3-175B cascade with a 600‰ confidence gate, against the
/// large-model-only bill.
fn cascade(bench: &Bench<'_>, reference: &[String]) -> String {
    const GATE_PERMILLE: u32 = 600;
    let (small, large) = (LlmProfile::gptj_6b(), LlmProfile::gpt3_175b());
    let cheap = MockLlm::new(bench.world, small.clone(), bench.seed);
    let large_tier = MockLlm::new(bench.world, large.clone(), bench.seed);
    let large_only = MockLlm::new(bench.world, large.clone(), bench.seed);

    let large_cache = bench.cache(&large_only);
    let large_answers = BatchRunner::new(&large_cache, bench.pipeline)
        .with_workers(1)
        .answers(&bench.lake, &bench.tasks);
    assert_eq!(
        large_answers, reference,
        "the large-only reference is the serial regime's model"
    );
    let large_only_tokens = large_only.usage().total() as u64;
    let large_only_billed = large_only_tokens * large.cost_micro_per_token();

    let backend = CascadeBackend::new(&cheap, &large_tier)
        .with_policy(CascadePolicy {
            gate_permille: GATE_PERMILLE,
        })
        .with_costs_of(&small, &large);
    let prompts = large_cache.canonical_prompts();
    for prompt in &prompts {
        backend
            .complete(prompt)
            .expect("every eval prompt completes through the cascade");
    }
    let stats = backend.stats();
    let large_tier_tokens = stats.endpoints[1].tokens();
    let large_only_per_answer = large_only_billed / stats.answers;
    assert_eq!(stats.answers, prompts.len() as u64);
    assert!(
        stats.escalations > 0 && stats.escalations < stats.calls,
        "the gate must escalate some prompts and clear others: {stats:?}"
    );
    assert!(
        large_tier_tokens < large_only_tokens,
        "cascade large-tier tokens {large_tier_tokens} must be below large-only {large_only_tokens}"
    );
    assert!(
        stats.billed_micro() < large_only_billed
            && stats.billed_per_answer_micro() < large_only_per_answer,
        "the cascade must bill strictly less than large-only: {stats:?}"
    );
    JsonObject::new()
        .field_str("cheap_model", cheap.name())
        .field_str("large_model", large_tier.name())
        .field_u64("gate_permille", u64::from(GATE_PERMILLE))
        .field_u64("prompts", stats.calls)
        .field_u64("escalations", stats.escalations)
        .field_u64("unparseable", stats.unparseable)
        .field_u64("low_confidence", stats.low_confidence)
        .field_u64("large_tier_tokens", large_tier_tokens)
        .field_u64("large_only_tokens", large_only_tokens)
        .field_u64("cascade_billed_micro", stats.billed_micro())
        .field_u64("large_only_billed_micro", large_only_billed)
        .field_u64("billed_per_answer_micro", stats.billed_per_answer_micro())
        .field_u64("large_only_billed_per_answer_micro", large_only_per_answer)
        .field_u64("tokens_per_answer_milli", stats.tokens_per_answer_milli())
        .finish()
}

/// The out-of-core regime: stream `rows` rows from a disk segment under
/// the counting allocator and assert the peak is bounded by a constant.
fn scale(bench: &Bench<'_>, rows: usize) -> String {
    let pipeline = PipelineConfig {
        // The paper-default 50-record sample is tuned for hundred-row
        // eval tables; against a 10^6-row lake it would dominate run
        // time without changing what the regime measures.
        sample_size: 8,
        ..bench.pipeline
    };
    let spec = ScaleSpec::new(rows, bench.seed).with_chunk_rows(SCALE_CHUNK_ROWS);
    let stride = (rows / 10 / SCALE_TASKS).max(1);
    // Fixed-width scratch name: the pager keeps the path, so its length
    // is part of the peak.
    let seg_path = std::env::temp_dir().join(format!("unidm-scale-{:010}.seg", std::process::id()));
    bench.llm.reset_calls();

    let baseline = alloc_counter::reset_peak_to_live();
    let spilled = spec
        .users_segment(&seg_path, SCALE_PAGE_BUDGET)
        .expect("scale segment written");
    let lake: DataLake = [spilled].into_iter().collect();
    let tasks = spec
        .target_rows()
        .step_by(stride)
        .take(SCALE_TASKS)
        .map(|row| Task::imputation(SCALE_TABLE, row, "city", "name"));
    let runner = BatchRunner::new(bench.llm, pipeline)
        .with_workers(1)
        // Dedup off: the cross-partition memo grows with unique tasks,
        // and strict row-count independence is the property under test.
        .with_dedup(false)
        .with_partition_tasks(SCALE_PARTITION_TASKS);
    let section = AllocationDelta::start();
    let (mut answers, mut errors) = (0u64, 0u64);
    let mut answer_fnv = fnv1a64(b"");
    let report = runner.run_streaming(&lake, tasks, |_, result| match result {
        Ok(output) => {
            answers += 1;
            answer_fnv = fnv1a64_extend(answer_fnv, output.answer.as_bytes());
        }
        Err(_) => errors += 1,
    });
    let allocs_per_task = section.allocations() / SCALE_TASKS as u64;
    let peak = alloc_counter::peak_live_bytes().saturating_sub(baseline);
    let resident = lake
        .table(SCALE_TABLE)
        .expect("scale table in lake")
        .resident_chunks();
    std::fs::remove_file(&seg_path).ok();

    assert_eq!(report.tasks, SCALE_TASKS, "task stream ran dry early");
    assert_eq!(
        report.partitions,
        SCALE_TASKS.div_ceil(SCALE_PARTITION_TASKS)
    );
    assert!(
        resident <= SCALE_PAGE_BUDGET,
        "pager exceeded its budget: {resident} chunks resident"
    );
    assert!(
        peak < SCALE_PEAK_BUDGET_BYTES,
        "out-of-core peak {peak} bytes exceeds the {SCALE_PEAK_BUDGET_BYTES}-byte \
         budget at {rows} rows — streaming is holding row-count-proportional state"
    );
    JsonObject::new()
        .field_u64("rows", rows as u64)
        .field_u64("chunk_rows", SCALE_CHUNK_ROWS as u64)
        .field_u64("page_budget", SCALE_PAGE_BUDGET as u64)
        .field_u64("partition_tasks", SCALE_PARTITION_TASKS as u64)
        .field_u64("tasks", report.tasks as u64)
        .field_u64("partitions", report.partitions as u64)
        .field_u64("unique_tasks", report.unique_tasks as u64)
        .field_u64("coalesced_tasks", report.coalesced_tasks as u64)
        .field_u64("answers", answers)
        .field_u64("errors", errors)
        .field_u64("model_calls", bench.llm.calls())
        .field_u64("answer_fnv", answer_fnv)
        .field_u64("allocs_per_task", allocs_per_task)
        .field_u64("peak_live_bytes", peak)
        .field_u64("peak_budget_bytes", SCALE_PEAK_BUDGET_BYTES)
        .finish()
}

/// The open-loop serving section: a ten-tenant mix of the paper
/// scenarios' recorded canonical prompt streams — arrival process, rate
/// and SLO assigned by stream position, so the workload is a pure function
/// of the seed — through the resilient backend under moderate faults, on
/// one replay worker so `allocs_per_request` (model included) is exact.
fn serving(bench: &Bench<'_>, quick: bool) -> String {
    let (stream_queries, requests_per_tenant) = if quick { (3, 30) } else { (6, 150) };
    let streams = record_streams(bench.seed, stream_queries);
    let mut sim = ServeSim::new(
        ServeConfig::new(bench.seed)
            .with_servers(SERVERS)
            .with_workers(1),
    );
    for (i, stream) in streams.iter().enumerate() {
        let arrival = match i % 3 {
            0 => ArrivalProcess::Poisson,
            1 => ArrivalProcess::Bursty {
                burst: 4 + i as u32,
            },
            _ => ArrivalProcess::Diurnal {
                period_us: 60_000_000,
            },
        };
        sim = sim.tenant(
            TenantSpec::new(stream.scenario, stream.prompts.clone())
                .with_arrival(arrival)
                .with_rate_milli_per_s(400 + i as u64 * 150)
                .with_requests(requests_per_tenant)
                .with_slo_us(SLOS_US[i % SLOS_US.len()]),
        );
    }
    let llm = MockLlm::new(bench.world, LlmProfile::gpt3_175b(), bench.seed);
    let stack = BackendConfig::resilient(bench.seed)
        .with_faults(FaultPlan::moderate(SERVING_FAULT_SEED))
        .wrap(&llm);
    // Stack construction excluded from the count.
    let section = AllocationDelta::start();
    let report = sim.run(&stack);
    let allocs_per_request = section.allocations() / report.requests.max(1);
    assert_eq!(
        report.replay_mismatches, 0,
        "the resilient stack is prompt-deterministic"
    );
    let tenants: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            JsonObject::new()
                .field_str("name", &t.name)
                .field_u64("requests", t.requests)
                .field_u64("ok", t.ok)
                .field_u64("errors", t.errors)
                .field_u64("slo_us", t.slo_us)
                .field_u64("slo_met", t.slo_met)
                .field_u64("attainment_permille", t.attainment_permille)
                .field_u64("goodput_per_ks", t.goodput_per_ks)
                .field_u64("min_us", t.latency.min_us())
                .field_u64("p50_us", t.latency.quantile_us(500))
                .field_u64("p99_us", t.latency.quantile_us(990))
                .field_u64("p999_us", t.latency.quantile_us(999))
                .field_u64("max_us", t.latency.quantile_us(1000))
                .finish()
        })
        .collect();
    JsonObject::new()
        .field_u64("seed", bench.seed)
        .field_u64("fault_seed", SERVING_FAULT_SEED)
        .field_u64("servers", u64::from(SERVERS))
        .field_u64("requests", report.requests)
        .field_u64("errors", report.errors)
        .field_u64("slo_met", report.slo_met)
        .field_u64("attainment_permille", report.attainment_permille())
        .field_u64("goodput_per_ks", report.goodput_per_ks())
        .field_u64("replay_mismatches", report.replay_mismatches)
        .field_u64("makespan_us", report.makespan_us)
        .field_u64("trace_fnv", report.trace_fnv())
        .field_u64("allocs_per_request", allocs_per_request)
        .field_raw("tenants", &json_array(&tenants))
        .finish()
}

/// `--bench-json PATH`, or `BENCH_<BASELINE_PR>.json`.
fn ledger_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--bench-json")
        .and_then(|pos| args.get(pos + 1))
        .filter(|path| !path.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{BASELINE_PR}.json")))
}

fn main() {
    let config = config_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let world = World::generate(config.seed);
    let mock = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let llm = CallCounter::new(&mock);
    let bench = Bench::new(&llm, &world, config.seed, config.queries.max(50));

    let mut regimes = Vec::new();
    let reference = ladder(&bench, &mut regimes);
    let dup_cache = bench.cache(&llm);
    let duplicate_heavy = duplicate_heavy(&bench, &dup_cache, &mut regimes);
    let warm_lookups = warm_lookups(&dup_cache);
    let store = tiered_store(&bench, &reference, &mut regimes);
    let pipelined = heavy_tail(&bench, &reference, &mut regimes);
    let scale_rows = if quick { 100_000 } else { 1_000_000 };
    let sections = [
        ("regimes", json_array(&regimes)),
        ("duplicate_heavy", duplicate_heavy),
        ("warm_lookups", warm_lookups),
        ("pipelined_heavy_tail", pipelined),
        ("routed", routed(&bench, &reference)),
        ("cascade", cascade(&bench, &reference)),
        ("scale", scale(&bench, scale_rows)),
        ("store", store),
        ("canon_v2", canon_v2(&bench, &dup_cache.canonical_prompts())),
        ("serving", serving(&bench, quick)),
    ];

    let mut doc = JsonObject::new()
        .field_u64("pr", BASELINE_PR)
        .field_str("bench", "throughput")
        .field_str("model", llm.name())
        .field_u64("seed", config.seed)
        .field_u64("tasks", bench.tasks.len() as u64)
        .field_u64("workers", 1);
    for (name, json) in &sections {
        println!("{name}: {json}\n");
        doc = doc.field_raw(name, json);
    }
    let path = ledger_path();
    std::fs::write(&path, doc.finish() + "\n").expect("ledger written");
    println!("(wrote the ledger to {})", path.display());
}
