//! Throughput of the batch execution engine — and the machine-readable
//! perf baseline (the committed `BENCH_<pr>.json`) every future PR has to
//! beat.
//!
//! Regimes:
//!
//! * **serial / batched / cold cache / warm cache** — the classic ladder:
//!   one worker, the worker pool, the pool over a cold sharded
//!   [`PromptCache`] at [`CanonLevel::TableStem`], and a second pass of
//!   the pool over that now-warm cache.
//! * **cold store / warm store** — the tiered store: the same workload
//!   with a [`CacheStore`] disk tier beneath the cache. The cold run
//!   populates a fresh `UDMCACHE1` file (every unique key admitted); the
//!   warm run reopens it under a *fresh* tier 0 — a cold process image —
//!   and must answer entirely from disk: **zero** model calls. A
//!   scan-resistance pass then streams 10^5 distinct one-touch keys at a
//!   capacity-bounded store and asserts the TinyLFU filter rejects every
//!   one, keeping the hot set's hit rate at 100%; a churn pass displaces
//!   entries and verifies compaction reclaims every dead frame.
//! * **canon v2** — the workload's recorded `p_dp`/`p_ri` prompts plus a
//!   deterministically reordered variant of each, completed at
//!   [`CanonLevel::TableStem`] and [`CanonLevel::Semantic`]: the v2 fold
//!   must turn every reordered variant into a hit, strictly beating the
//!   TableStem hit rate on the same stream. The Semantic cache then
//!   re-looks up its own canonical texts (**zero** allocations, asserted)
//!   and the reordered variants (allocations per folded lookup, pinned in
//!   the baseline).
//! * **sync / pipelined / pipelined hedged heavy-tail** — the same
//!   workload against an endpoint where 3% of attempts take 2s of virtual
//!   time. The synchronous path blocks through the resilient backend one
//!   call at a time; the pipelined path runs continuous batch admission
//!   through the event-driven [`Dispatcher`]; the hedged path additionally
//!   arms a P90 hedge timer per request. Answers must stay bit-identical,
//!   endpoint calls must equal unique canonical keys (hedge duplicates
//!   accounted separately and exactly), and both virtual-time makespan and
//!   P99 must beat the synchronous path.
//! * **duplicate-heavy** — the same workload with every task repeated
//!   `DUP_FACTOR` times, interleaved. Run serially (planner off) to count
//!   the unique canonical keys, in parallel at 1 and 8 cache shards
//!   (planner off — duplicate prompts hit the single-flight table), and
//!   with the dedup planner on (duplicates never reach the cache). The
//!   binary *asserts* that total endpoint calls equal the number of unique
//!   canonical keys and that every regime's answers are bit-identical to
//!   serial — exact equalities, not thresholds, because the whole stack is
//!   deterministic.
//! * **warm-path allocation budget** — re-looks up the canonical texts of
//!   the duplicate-heavy workload against a warm cache under a counting
//!   allocator and asserts **zero** heap allocations.
//!
//! * **routed heavy-tail fleet** — the cached workload against a
//!   [`RoutedBackend`] fleet (a pinned 3-replica configuration, so the
//!   fleet-beats-every-single guarantee below is a deterministic property
//!   of the committed benchmark — `--route N` instead wraps the *standard*
//!   regimes above in a routed fleet) where every replica carries its own
//!   fault injector (heavy tail plus
//!   timeouts/429s/5xxs), breaker and adaptive AIMD token bucket. Run at
//!   two fault seeds and {1, 8} workers against a single-endpoint
//!   reference with the identical per-endpoint capacity: answers must be
//!   bit-identical to the fault-free serial run in every combination, and
//!   the fleet's virtual-time makespan must strictly beat **every**
//!   single-endpoint run (goodput under faults above any single
//!   endpoint).
//! * **cascade** — the same prompt stream through a small→large
//!   [`CascadeBackend`] (GPT-J-6B escalating to GPT-3-175B below a
//!   confidence gate) versus a large-model-only run: strictly fewer
//!   large-tier tokens and strictly lower billed cost per answer.
//!
//! With `--faults` (and optionally `--rate-limit`) a faulty regime runs
//! the cached workload through the resilient backend over a seeded fault
//! injector, reporting retries, breaker trips and goodput on the virtual
//! clock — and cross-checking that the faulty answers are bit-identical to
//! the fault-free serial run.
//!
//! * **scale (out-of-core)** — a `--scale-rows` synthetic lake
//!   ([`ScaleSpec`], 10^5 in CI smoke, 10^6 by default) spilled to a disk
//!   segment and streamed through [`BatchRunner::run_streaming`] under the
//!   counting allocator. The binary first proves streaming ==
//!   materialized at small scale (full [`unidm::RunOutput`] equality plus
//!   exact dedup counters, with duplicates spanning partitions), then
//!   asserts the large run's peak live allocation stays under a fixed
//!   budget that is independent of the row count — a materialized lake at
//!   10^6 rows would not fit it. `--scale-only` runs just this regime.
//!
//! ```text
//! cargo run -p unidm-bench --release --bin throughput            # paper scale
//! cargo run -p unidm-bench --release --bin throughput -- --quick # smoke scale
//! cargo run -p unidm-bench --release --bin throughput -- --bench-json out/BENCH.json
//! cargo run -p unidm-bench --release --bin throughput -- --faults heavy --rate-limit 200
//! cargo run -p unidm-bench --release --bin throughput -- --route 4 # fleet behind the standard regimes
//! cargo run -p unidm-bench --release --bin throughput -- --scale-only --scale-rows 100000
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use unidm::{
    AimdPolicy, BackendConfig, BatchRunner, CacheStore, CanonLevel, CascadeBackend, CascadePolicy,
    Dispatcher, HedgePolicy, PipelineConfig, PromptCache, RoutePlan, RoutedBackend, StoreConfig,
    Task,
};
use unidm_bench::alloc_counter::{self, AllocationDelta};
use unidm_bench::{config_from_args, CallCounter, JsonObject, BASELINE_PR};
use unidm_llm::{Clock, Completion, FaultPlan, LanguageModel, LlmProfile, MockLlm, Usage};
use unidm_synthdata::imputation;
use unidm_synthdata::scale::{ScaleSpec, TABLE_NAME as SCALE_TABLE};
use unidm_tablestore::DataLake;
use unidm_world::World;

/// How many times each task repeats in the duplicate-heavy regime.
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
/// generation included. The bound is a fixed constant: it does not scale
/// with `--scale-rows`, which is the point. A 10^6-row lake held in
/// memory in chunked columnar form alone exceeds it, so staying under
/// proves the streaming run never materializes the lake.
const SCALE_PEAK_BUDGET_BYTES: u64 = 32 * 1024 * 1024;

struct Regime {
    name: &'static str,
    answers: Vec<String>,
    elapsed_secs: f64,
    model_tokens: usize,
    model_calls: u64,
    stats: Option<unidm::CacheStats>,
    shard_stats: Vec<unidm::CacheStats>,
    /// Heap allocations per task, for one-worker regimes only: there the
    /// whole pass runs on the calling thread and the count is exact.
    allocs_per_task: Option<u64>,
}

impl Regime {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .field_str("name", self.name)
            .field_f64("wall_s", self.elapsed_secs)
            .field_f64(
                "tasks_per_s",
                self.answers.len() as f64 / self.elapsed_secs.max(1e-9),
            )
            .field_u64("model_tokens", self.model_tokens as u64)
            .field_u64("model_calls", self.model_calls);
        if let Some(stats) = self.stats {
            obj = obj
                .field_u64("cache_hits", stats.hits as u64)
                .field_u64("cache_misses", stats.misses as u64)
                .field_u64("cache_coalesced", stats.coalesced as u64)
                .field_u64("tokens_saved", stats.tokens_saved as u64);
        }
        if let Some(allocs) = self.allocs_per_task {
            obj = obj.field_u64("allocs_per_task", allocs);
        }
        obj.finish()
    }
}

/// What one pass added to a cache's counters: `after - before`, field by
/// field.
fn stats_since(after: unidm::CacheStats, before: unidm::CacheStats) -> unidm::CacheStats {
    unidm::CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        evictions: after.evictions - before.evictions,
        tokens_saved: after.tokens_saved - before.tokens_saved,
    }
}

fn print_shards(shards: &[unidm::CacheStats]) {
    for (i, s) in shards.iter().enumerate() {
        if s.lookups() == 0 {
            continue;
        }
        println!(
            "{:<16}shard {i}: {} hits / {} coalesced / {} misses ({:.0}% hit rate), \
             {} tokens saved",
            "",
            s.hits,
            s.coalesced,
            s.misses,
            s.hit_rate() * 100.0,
            s.tokens_saved,
        );
    }
}

fn bench_json_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--bench-json")
        .and_then(|pos| args.get(pos + 1))
        .filter(|path| !path.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{BASELINE_PR}.json")))
}

/// Parses `--scale-only` and `--scale-rows N` (default 10^6, or 10^5
/// under `--quick`).
fn scale_args() -> (bool, usize) {
    let args: Vec<String> = std::env::args().collect();
    let only = args.iter().any(|a| a == "--scale-only");
    let default_rows = if args.iter().any(|a| a == "--quick") {
        100_000
    } else {
        1_000_000
    };
    let rows = args
        .iter()
        .position(|a| a == "--scale-rows")
        .and_then(|pos| args.get(pos + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_rows);
    (only, rows)
}

/// The out-of-core `scale` regime: prove streaming == materialized at
/// small scale, then stream `rows` rows from a disk segment under the
/// counting allocator and assert the peak is bounded and row-count
/// independent. Returns the regime's JSON section.
fn run_scale(llm: &CallCounter<'_>, seed: u64, rows: usize) -> String {
    let pipeline = PipelineConfig {
        // The paper-default 50-record sample is tuned for hundred-row
        // eval tables; against a 10^6-row lake it would dominate run
        // time without changing what the regime measures.
        sample_size: 8,
        ..PipelineConfig::paper_default().with_seed(seed)
    };
    let task_for = |row: usize| Task::imputation(SCALE_TABLE, row, "city", "name");

    // ── Streaming == materialized (small scale) ─────────────────────────
    // Full RunOutput equality (answers, per-run usage, trace prompts) and
    // exact dedup counters, with duplicate tasks spanning partition
    // boundaries so the cross-partition memo is exercised.
    let small = ScaleSpec::new(4_000, seed).with_chunk_rows(256);
    let small_lake: DataLake = [small.users_table()].into_iter().collect();
    let mut small_tasks: Vec<Task> = small.target_rows().take(60).map(task_for).collect();
    let dups: Vec<Task> = small_tasks.iter().step_by(7).cloned().collect();
    small_tasks.extend(dups);
    let runner = BatchRunner::new(llm, pipeline)
        .with_workers(1)
        .with_dedup(true)
        .with_partition_tasks(16);
    let report = runner.run_report(&small_lake, &small_tasks);
    let mut streamed = Vec::with_capacity(small_tasks.len());
    let stream_report =
        runner.run_streaming(&small_lake, small_tasks.iter().cloned(), |i, result| {
            assert_eq!(i, streamed.len(), "sink must see results in task order");
            streamed.push(result);
        });
    assert_eq!(
        streamed, report.results,
        "streamed outputs must be identical to the materialized run"
    );
    assert_eq!(stream_report.tasks, small_tasks.len());
    assert_eq!(stream_report.unique_tasks, report.unique_tasks);
    assert_eq!(stream_report.coalesced_tasks, report.coalesced_tasks);

    // ── Out-of-core streaming under the allocation meter ────────────────
    let spec = ScaleSpec::new(rows, seed).with_chunk_rows(SCALE_CHUNK_ROWS);
    let stride = (rows / 10 / SCALE_TASKS).max(1);
    let mut seg_path = std::env::temp_dir();
    seg_path.push(format!("unidm-scale-{}-{rows}.seg", std::process::id()));
    llm.reset_calls();
    llm.reset_usage();

    let baseline = alloc_counter::reset_peak_to_live();
    let spilled = spec
        .users_segment(&seg_path, SCALE_PAGE_BUDGET)
        .expect("scale segment written");
    let lake: DataLake = [spilled].into_iter().collect();
    let tasks = spec
        .target_rows()
        .step_by(stride)
        .take(SCALE_TASKS)
        .map(task_for);
    let runner = BatchRunner::new(llm, pipeline)
        .with_workers(1)
        // Dedup off: the cross-partition memo grows with unique tasks,
        // and strict row-count independence is the property under test.
        .with_dedup(false)
        .with_partition_tasks(SCALE_PARTITION_TASKS);
    let start = Instant::now();
    let stream_allocs = AllocationDelta::start();
    let (mut answers, mut errors) = (0u64, 0u64);
    let mut answer_fnv = 0xcbf2_9ce4_8422_2325u64;
    let scale_report = runner.run_streaming(&lake, tasks, |_, result| match result {
        Ok(output) => {
            answers += 1;
            for byte in output.answer.bytes() {
                answer_fnv ^= u64::from(byte);
                answer_fnv = answer_fnv.wrapping_mul(0x100_0000_01b3);
            }
        }
        Err(_) => errors += 1,
    });
    let allocs_per_task = stream_allocs.allocations() / SCALE_TASKS as u64;
    let elapsed_secs = start.elapsed().as_secs_f64();
    let peak = alloc_counter::peak_live_bytes().saturating_sub(baseline);
    let resident = lake
        .table(SCALE_TABLE)
        .expect("scale table in lake")
        .resident_chunks();
    std::fs::remove_file(&seg_path).ok();

    assert_eq!(scale_report.tasks, SCALE_TASKS, "task stream ran dry early");
    assert_eq!(
        scale_report.partitions,
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

    println!(
        "\nScale regime (out-of-core): {rows} rows spilled to disk, {} chunks of \
         {SCALE_CHUNK_ROWS} rows, pager budget {SCALE_PAGE_BUDGET};",
        rows.div_ceil(SCALE_CHUNK_ROWS),
    );
    println!(
        "  {} tasks in {} partitions of {SCALE_PARTITION_TASKS}: {answers} answers, \
         {errors} errors, {} model calls in {elapsed_secs:.3}s ({:.1} tasks/s)",
        scale_report.tasks,
        scale_report.partitions,
        llm.calls(),
        scale_report.tasks as f64 / elapsed_secs.max(1e-9),
    );
    println!(
        "  {allocs_per_task} allocations per task; peak live allocation {:.2} MiB \
         (budget {} MiB, row-count independent); \
         streaming == materialized verified at 4000 rows ({} tasks, {} coalesced).",
        peak as f64 / (1024.0 * 1024.0),
        SCALE_PEAK_BUDGET_BYTES / (1024 * 1024),
        stream_report.tasks,
        stream_report.coalesced_tasks,
    );

    JsonObject::new()
        .field_u64("rows", rows as u64)
        .field_u64("chunk_rows", SCALE_CHUNK_ROWS as u64)
        .field_u64("page_budget", SCALE_PAGE_BUDGET as u64)
        .field_u64("partition_tasks", SCALE_PARTITION_TASKS as u64)
        .field_u64("tasks", scale_report.tasks as u64)
        .field_u64("partitions", scale_report.partitions as u64)
        .field_u64("unique_tasks", scale_report.unique_tasks as u64)
        .field_u64("coalesced_tasks", scale_report.coalesced_tasks as u64)
        .field_u64("answers", answers)
        .field_u64("errors", errors)
        .field_u64("model_calls", llm.calls())
        .field_u64("answer_fnv", answer_fnv)
        .field_u64("allocs_per_task", allocs_per_task)
        .field_u64("peak_live_bytes", peak)
        .field_u64("peak_budget_bytes", SCALE_PEAK_BUDGET_BYTES)
        .field_f64("wall_s", elapsed_secs)
        .finish()
}

fn main() {
    let config = config_from_args();
    let n_tasks = config.queries.max(50);
    let world = World::generate(config.seed);
    let mock = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    // Every regime talks to the endpoint through a call counter: "model
    // calls" in the baseline means completions that actually reached the
    // model, the quantity coalescing exists to minimize.
    let llm = CallCounter::new(&mock);
    let (scale_only, scale_rows) = scale_args();
    if scale_only {
        run_scale(&llm, config.seed, scale_rows);
        return;
    }
    let ds = imputation::restaurant(&world, config.seed, n_tasks);
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
    let pipeline = PipelineConfig::paper_default().with_seed(config.seed);
    let workers = BatchRunner::new(&llm, pipeline).workers();

    println!(
        "Batch throughput: {} imputation tasks (Restaurant), {} workers, model {}, \
         cache level {}.",
        tasks.len(),
        workers,
        llm.name(),
        CanonLevel::TableStem,
    );

    let run = |name: &'static str,
               cache: Option<&PromptCache<'_>>,
               task_list: &[Task],
               workers: usize,
               dedup: bool|
     -> (Regime, unidm::BatchReport) {
        llm.reset_usage();
        llm.reset_calls();
        // Counters are reported per pass, so a regime that re-runs over an
        // already-used cache shows only its own traffic.
        let shards_before = cache.map(PromptCache::shard_stats).unwrap_or_default();
        let model: &dyn LanguageModel = match cache {
            Some(cache) => cache,
            None => &llm,
        };
        let runner = BatchRunner::new(model, pipeline)
            .with_workers(workers)
            .with_dedup(dedup);
        let section = AllocationDelta::start();
        let start = Instant::now();
        let report = runner.run_report(&lake, task_list);
        let elapsed_secs = start.elapsed().as_secs_f64();
        let allocs_per_task =
            (workers == 1).then(|| section.allocations() / task_list.len().max(1) as u64);
        let answers = report
            .results
            .iter()
            .map(|r| r.as_ref().map(|o| o.answer.clone()).unwrap_or_default())
            .collect();
        let shard_stats: Vec<unidm::CacheStats> = cache
            .map(PromptCache::shard_stats)
            .unwrap_or_default()
            .into_iter()
            .zip(shards_before)
            .map(|(after, before)| stats_since(after, before))
            .collect();
        let stats = cache.map(|_| {
            let mut total = unidm::CacheStats::default();
            shard_stats.iter().for_each(|shard| total.merge(*shard));
            total
        });
        (
            Regime {
                name,
                answers,
                elapsed_secs,
                model_tokens: llm.usage().total(),
                model_calls: llm.calls(),
                stats,
                shard_stats,
                allocs_per_task,
            },
            report,
        )
    };

    let (serial, _) = run("serial", None, &tasks, 1, false);
    let (batched, _) = run("batched", None, &tasks, workers, false);

    // Cold cache: canonicalized, sharded, starting empty.
    let cold_cache = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::TableStem);
    let (cold, _) = run("cold cache", Some(&cold_cache), &tasks, workers, false);

    // Warm cache: the same tasks again over the now-populated cache — the
    // tier-0 state a repeated eval run reaches once its store has replayed.
    let (warm, _) = run("warm cache", Some(&cold_cache), &tasks, workers, false);

    // ── Duplicate-heavy regimes ─────────────────────────────────────────
    // The same tasks, each repeated DUP_FACTOR times, interleaved — the
    // shape a service sees when many users ask the same questions.
    let dup_tasks: Vec<Task> = (0..tasks.len() * DUP_FACTOR)
        .map(|i| tasks[i % tasks.len()].clone())
        .collect();

    // Serial reference with the planner off: every duplicate runs, so the
    // cache's miss count *is* the number of unique canonical keys.
    let dup_serial_cache =
        PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::TableStem);
    let (dup_serial, _) = run("dup serial", Some(&dup_serial_cache), &dup_tasks, 1, false);
    let unique_keys = dup_serial_cache.stats().misses;
    assert_eq!(
        dup_serial.model_calls, unique_keys as u64,
        "serial: every endpoint call is a unique-key miss"
    );
    assert_eq!(
        dup_serial_cache.stats().coalesced,
        0,
        "a serial run can never coalesce"
    );

    // Parallel with the planner off, at 1 and 8 shards: duplicate prompts
    // race into the cache and the single-flight table must fold them —
    // exactly one endpoint call per unique canonical key, bit-identical
    // answers, under both shard layouts.
    let mut dup_parallel_regimes = Vec::new();
    for shards in [1usize, 8] {
        let cache = PromptCache::unbounded(&llm)
            .with_shards(shards)
            .with_canonicalization(CanonLevel::TableStem);
        let name: &'static str = if shards == 1 {
            "dup 8w 1shard"
        } else {
            "dup 8w 8shard"
        };
        let (regime, _) = run(name, Some(&cache), &dup_tasks, 8, false);
        let stats = cache.stats();
        assert_eq!(
            regime.answers, dup_serial.answers,
            "{name}: parallel answers must be bit-identical to serial"
        );
        assert_eq!(
            stats.misses, unique_keys,
            "{name}: misses must equal unique canonical keys exactly"
        );
        assert_eq!(
            regime.model_calls, unique_keys as u64,
            "{name}: total endpoint calls must equal unique canonical keys"
        );
        assert_eq!(
            stats.lookups(),
            dup_serial_cache.stats().lookups(),
            "{name}: lookup totals are schedule-independent"
        );
        dup_parallel_regimes.push(regime);
    }

    // The dedup planner: duplicates never even reach the cache — the
    // planner runs each unique task once and copies outputs.
    let planner_cache = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::TableStem);
    let (dup_planner, planner_report) =
        run("dup planner", Some(&planner_cache), &dup_tasks, 8, true);
    assert_eq!(
        dup_planner.answers, dup_serial.answers,
        "planner-copied outputs must be bit-identical to serial"
    );
    assert_eq!(planner_report.unique_tasks, tasks.len());
    assert_eq!(
        planner_report.coalesced_tasks,
        dup_tasks.len() - tasks.len()
    );
    assert_eq!(
        dup_planner.model_calls, unique_keys as u64,
        "planner: one endpoint call per unique canonical key"
    );

    // ── Warm-path allocation budget ─────────────────────────────────────
    // Re-look up every canonical text of the duplicate-heavy workload
    // against the warm cache: each is already canonical, so the whole
    // lookup — canonicalize, hash, shard probe, recency refresh, Arc bump
    // — must perform zero heap allocations.
    let canonical_texts = dup_serial_cache.canonical_prompts();
    let before = dup_serial_cache.stats();
    let section = AllocationDelta::start();
    for text in &canonical_texts {
        let _ = dup_serial_cache.complete(text);
    }
    let warm_allocs = section.allocations();
    let warm_bytes = section.bytes();
    let after = dup_serial_cache.stats();
    assert_eq!(
        after.hits - before.hits,
        canonical_texts.len(),
        "every canonical text must hit the warm cache"
    );
    assert_eq!(
        warm_allocs, 0,
        "warm-path lookups must perform zero heap allocations ({warm_bytes} bytes)"
    );

    // ── Tiered store regimes ────────────────────────────────────────────
    // The same workload with a CacheStore disk tier beneath the cache.
    // Cold: a fresh UDMCACHE1 file — every unique key misses both tiers,
    // reaches the model exactly once, and is admitted to disk. Warm: the
    // file reopened under a *fresh* tier 0 (a cold process image) — the
    // whole workload must replay from disk with zero model calls.
    let store_dir = std::env::temp_dir().join(format!("unidm-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("store scratch dir");
    let store_file = store_dir.join("throughput.udmstore");

    let cold_store =
        CacheStore::open(&store_file, llm.name(), StoreConfig::default()).expect("fresh store");
    let store_cold_cache = PromptCache::unbounded(&llm)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(cold_store.clone());
    let (store_cold, _) = run(
        "cold store",
        Some(&store_cold_cache),
        &tasks,
        workers,
        false,
    );
    assert_eq!(
        store_cold.answers, serial.answers,
        "the disk tier must never change answers"
    );
    let store_cold_stats = cold_store.stats();
    assert_eq!(store_cold_stats.hits, 0, "a fresh store has nothing to hit");
    assert_eq!(
        store_cold_stats.misses as u64, store_cold.model_calls,
        "cold store: every disk miss becomes exactly one model call"
    );
    assert_eq!(
        store_cold_stats.admitted, store_cold_stats.misses,
        "below capacity every completion is admitted"
    );
    assert_eq!(store_cold_stats.rejected, 0);

    drop(store_cold_cache);
    drop(cold_store);
    let warm_store =
        CacheStore::open(&store_file, llm.name(), StoreConfig::default()).expect("store reopens");
    let store_warm_cache = PromptCache::unbounded(&llm)
        .with_canonicalization(CanonLevel::TableStem)
        .with_store(warm_store.clone());
    let (store_warm, _) = run(
        "warm store",
        Some(&store_warm_cache),
        &tasks,
        workers,
        false,
    );
    assert_eq!(store_warm.answers, serial.answers);
    assert_eq!(
        store_warm.model_calls, 0,
        "warm replay from the disk tier must use zero model calls"
    );
    let store_warm_stats = warm_store.stats();
    assert_eq!(
        store_warm_stats.hits, store_cold_stats.misses,
        "every unique canonical key replays from disk"
    );

    // Zero-allocation warm hits with the store attached: tier-0 hits
    // never touch the disk tier, so the counting-allocator budget is
    // unchanged by the store field.
    let store_canonical = store_warm_cache.canonical_prompts();
    let section = AllocationDelta::start();
    for text in &store_canonical {
        let _ = store_warm_cache.complete(text);
    }
    let store_warm_allocs = section.allocations();
    assert_eq!(
        store_warm_allocs, 0,
        "warm hits over a store-backed cache must stay allocation-free"
    );

    // Scan resistance: a capacity-bounded store holding a twice-touched
    // hot set, then one pass of 10^5 distinct one-touch keys — the
    // table-scan shape. TinyLFU must reject every scan key (estimate < 3
    // at capacity), so the hot set survives at a 100% hit rate.
    const HOT_SET: usize = 64;
    const SCAN_KEYS: usize = 100_000;
    let scan_store = CacheStore::open(
        store_dir.join("scan.udmstore"),
        llm.name(),
        StoreConfig::default().with_max_entries(HOT_SET),
    )
    .expect("scan store");
    for i in 0..HOT_SET {
        let completion = Arc::new(Completion {
            text: format!("hot value {i}"),
            usage: Usage::default(),
        });
        assert!(
            scan_store.offer(&format!("hot key {i:03}"), &completion),
            "hot set admits below capacity"
        );
    }
    for i in 0..HOT_SET {
        // Second sighting: the hot keys now clear the admission estimate.
        assert!(scan_store.get(&format!("hot key {i:03}")).is_some());
    }
    let scan_filler = Arc::new(Completion {
        text: "scan value".into(),
        usage: Usage::default(),
    });
    let mut scan_admitted = 0usize;
    for k in 0..SCAN_KEYS {
        if scan_store.offer(&format!("scan key {k:06}"), &scan_filler) {
            scan_admitted += 1;
        }
    }
    assert_eq!(
        scan_admitted, 0,
        "one-touch scan keys must not displace the hot set"
    );
    let mut hot_hits = 0usize;
    for i in 0..HOT_SET {
        if scan_store.get(&format!("hot key {i:03}")).is_some() {
            hot_hits += 1;
        }
    }
    assert_eq!(
        hot_hits, HOT_SET,
        "hot-set hit rate must stay at 100% after the scan"
    );
    let scan_stats = scan_store.stats();
    assert_eq!(scan_stats.rejected, SCAN_KEYS);
    assert_eq!(scan_stats.evicted, 0);

    // Churn + compaction: at capacity, candidates that earn admission
    // displace the FIFO-oldest resident, leaving dead frames the
    // append-only file cannot reuse — compaction must reclaim every one.
    const CHURN_CAP: usize = 8;
    let churn_store = CacheStore::open(
        store_dir.join("churn.udmstore"),
        llm.name(),
        StoreConfig::default().with_max_entries(CHURN_CAP),
    )
    .expect("churn store");
    for i in 0..CHURN_CAP {
        churn_store.offer(&format!("resident {i}"), &scan_filler);
    }
    for i in 0..CHURN_CAP {
        // Four sightings: doorkeeper, two sketch bumps, then estimate 3
        // ⇒ admit (each rejected offer still teaches the filter).
        let key = format!("challenger {i}");
        for _ in 0..4 {
            churn_store.offer(&key, &scan_filler);
        }
    }
    let dead_before = churn_store.dead_frames();
    assert_eq!(
        dead_before, CHURN_CAP,
        "every admitted challenger leaves one displaced frame behind"
    );
    let reclaimed = churn_store.compact().expect("compaction succeeds");
    assert_eq!(reclaimed, dead_before);
    assert_eq!(churn_store.dead_frames(), 0);
    let churn_stats = churn_store.stats();

    println!(
        "\nTiered store: cold run admitted {} keys ({} model calls); warm replay hit \
         {} from disk with 0 model calls; {} warm lookups × 0 allocations.",
        store_cold_stats.admitted,
        store_cold.model_calls,
        store_warm_stats.hits,
        store_canonical.len(),
    );
    println!(
        "  scan resistance: {SCAN_KEYS} one-touch keys rejected ({} admitted), hot-set \
         hit rate {}/{HOT_SET}; churn: compaction reclaimed {reclaimed}/{dead_before} \
         dead frames.",
        scan_admitted, hot_hits,
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    // ── Canon v2: Semantic folds reordered p_dp / p_ri duplicates ───────
    // Take the workload's recorded p_dp and p_ri canonical prompts and
    // build a deterministically reordered variant of each (record lines
    // reversed; instance lists reversed and renumbered). TableStem keys
    // every variant separately; the Semantic fold must map each variant
    // onto its original — a strictly higher hit rate on the same stream.
    let reorder = |text: &str| -> Option<String> {
        if let Some(pos) = text.find("logical order: [") {
            // p_dp: reverse the record lines inside the bracketed block.
            let splice = pos + "logical order: [".len();
            if !text.ends_with(']') || splice >= text.len() - 1 {
                return None;
            }
            let body = &text[splice..text.len() - 1];
            let mut lines: Vec<&str> = body.split('\n').collect();
            lines.reverse();
            let reordered = lines.join("\n");
            if reordered == body {
                return None;
            }
            return Some(format!("{}{}]", &text[..splice], reordered));
        }
        if text.contains("Score the relevance") {
            // p_ri: reverse the numbered instance list and renumber.
            let (header, rest) = text.split_once('\n')?;
            let mut bodies: Vec<&str> = Vec::new();
            for (i, line) in rest.split('\n').enumerate() {
                let (number, body) = line.split_once(". ")?;
                if number.parse::<usize>().ok()? != i + 1 {
                    return None;
                }
                bodies.push(body);
            }
            bodies.reverse();
            let mut out = String::from(header);
            for (i, body) in bodies.iter().enumerate() {
                out.push('\n');
                out.push_str(&(i + 1).to_string());
                out.push_str(". ");
                out.push_str(body);
            }
            if out == text {
                return None;
            }
            return Some(out);
        }
        None
    };
    let foldable: Vec<(&String, String)> = canonical_texts
        .iter()
        .filter_map(|t| reorder(t).map(|v| (t, v)))
        .collect();
    assert!(
        !foldable.is_empty(),
        "the workload must contain reorderable p_dp/p_ri prompts"
    );
    let mut canon_stats = Vec::new();
    let (mut semantic_warm_allocs, mut semantic_fold_allocs) = (0u64, 0u64);
    for level in [CanonLevel::TableStem, CanonLevel::Semantic] {
        let cache = PromptCache::unbounded(&llm).with_canonicalization(level);
        for (original, _) in &foldable {
            let _ = cache.complete(original);
        }
        for (_, variant) in &foldable {
            let _ = cache.complete(variant);
        }
        canon_stats.push(cache.stats());
        if !level.folds_lists() {
            continue;
        }
        // The warm-path allocation budget holds at Semantic too: a text
        // the fold produced is already sorted, which the fold must notice
        // before it allocates anything. Rounded up, so one stray
        // allocation anywhere reads 1, not 0.
        let folded_texts = cache.canonical_prompts();
        let section = AllocationDelta::start();
        for text in &folded_texts {
            let _ = cache.complete(text);
        }
        semantic_warm_allocs = section
            .allocations()
            .div_ceil(folded_texts.len().max(1) as u64);
        assert_eq!(
            semantic_warm_allocs, 0,
            "warm Semantic lookups must perform zero heap allocations"
        );
        // The reordered variants again: each is a hit that folds on the
        // way in and replays on the way out. What that may allocate is
        // the fold's scratch and text, the replay's scratch and text and
        // the adapted completion — a handful, not one per list element.
        let section = AllocationDelta::start();
        for (_, variant) in &foldable {
            let _ = cache.complete(variant);
        }
        semantic_fold_allocs = section.allocations().div_ceil(foldable.len() as u64);
    }
    let (stem_stats2, semantic_stats2) = (canon_stats[0], canon_stats[1]);
    assert!(
        semantic_stats2.hits >= foldable.len(),
        "Semantic must fold every reordered variant onto its original"
    );
    assert!(
        semantic_stats2.hits > stem_stats2.hits && semantic_stats2.misses < stem_stats2.misses,
        "canon v2 must strictly beat TableStem on the reordered stream: \
         {semantic_stats2:?} vs {stem_stats2:?}"
    );
    println!(
        "Canon v2: {} reorderable p_dp/p_ri prompts; TableStem {} hits / {} misses, \
         Semantic {} hits / {} misses on originals + reordered variants; Semantic warm \
         lookups × {semantic_warm_allocs} allocations, folded lookups × \
         {semantic_fold_allocs}.",
        foldable.len(),
        stem_stats2.hits,
        stem_stats2.misses,
        semantic_stats2.hits,
        semantic_stats2.misses,
    );

    let mut regimes = vec![serial, batched, cold, warm, dup_serial];
    regimes.extend(dup_parallel_regimes);
    regimes.push(dup_planner);
    regimes.push(store_cold);
    regimes.push(store_warm);
    println!(
        "{:<16}{:>12}{:>14}{:>16}{:>13}{:>10}",
        "Regime", "Time (s)", "Tasks/sec", "Model tokens", "Model calls", "Speedup"
    );
    println!("{}", "-".repeat(81));
    let baseline = regimes[0].elapsed_secs;
    for r in &regimes {
        println!(
            "{:<16}{:>12.3}{:>14.1}{:>16}{:>13}{:>9.2}x",
            r.name,
            r.elapsed_secs,
            r.answers.len() as f64 / r.elapsed_secs.max(1e-9),
            r.model_tokens,
            r.model_calls,
            baseline / r.elapsed_secs.max(1e-9),
        );
        print_shards(&r.shard_stats);
    }

    let (cold_stats, warm_stats) = (
        regimes[2].stats.expect("cold regime is cached"),
        regimes[3].stats.expect("warm regime is cached"),
    );
    println!(
        "\nCold run:  {:>5.1}% hit rate, {} tokens saved, {} model tokens",
        cold_stats.hit_rate() * 100.0,
        cold_stats.tokens_saved,
        regimes[2].model_tokens,
    );
    println!(
        "Warm run:  {:>5.1}% hit rate, {} tokens saved, {} model tokens",
        warm_stats.hit_rate() * 100.0,
        warm_stats.tokens_saved,
        regimes[3].model_tokens,
    );
    println!(
        "Cold → warm: +{} tokens saved, -{} model tokens",
        warm_stats
            .tokens_saved
            .saturating_sub(cold_stats.tokens_saved),
        regimes[2]
            .model_tokens
            .saturating_sub(regimes[3].model_tokens),
    );
    println!(
        "Duplicate-heavy ({} tasks, {} unique): {} unique canonical keys, exactly {} \
         endpoint calls in every regime; planner coalesced {} tasks; \
         warm-path lookups: {} × 0 allocations.",
        dup_tasks.len(),
        tasks.len(),
        unique_keys,
        unique_keys,
        planner_report.coalesced_tasks,
        canonical_texts.len(),
    );

    let mut faulty_json: Option<String> = None;
    if config.backend.enabled {
        // Faulty regime: the cached workload again, but every miss now
        // crosses the resilient backend (limiter → retry → breaker) and a
        // seeded fault injector. Answers must not move.
        let backend = config.backend.wrap(&llm);
        let faulty_cache =
            PromptCache::unbounded(backend.model()).with_canonicalization(CanonLevel::TableStem);
        let (faulty, _) = run("faulty", Some(&faulty_cache), &tasks, workers, false);
        let stats = backend.stats().expect("backend enabled");
        let virtual_us = backend.elapsed_us();
        let virtual_secs = virtual_us as f64 / 1e6;
        println!(
            "\nFaulty backend regime ({} plan, rate limit {}):",
            config
                .backend
                .faults
                .map(|_| "seeded fault")
                .unwrap_or("fault-free"),
            config
                .backend
                .rate
                .map(|r| format!("{}/s burst {}", r.tokens_per_sec, r.burst))
                .unwrap_or_else(|| "none".into()),
        );
        println!(
            "  {} calls, {} attempts, {} retries, {} breaker trips ({} fast-fails)",
            stats.calls,
            stats.attempts,
            stats.retries,
            stats.breaker_trips,
            stats.breaker_fast_fails,
        );
        println!(
            "  {} timeouts / {} rate-limited / {} transient errors absorbed; \
             {} throttle waits ({:.3}s virtual)",
            stats.timeouts,
            stats.rate_limited,
            stats.transients,
            stats.throttle_waits,
            stats.throttle_wait_us as f64 / 1e6,
        );
        println!(
            "  goodput: {:.1} tasks/virtual-sec over {:.3} virtual secs; \
             attempt efficiency {:.0}%",
            faulty.answers.len() as f64 / virtual_secs.max(1e-9),
            virtual_secs,
            100.0 * stats.calls as f64 / stats.attempts.max(1) as f64,
        );
        assert_eq!(
            faulty.answers, regimes[0].answers,
            "faults and throttling must never change answers"
        );
        assert_eq!(stats.failures, 0, "every faulty call must complete");
        println!("  faulty answers identical to the fault-free serial run.");
        faulty_json = Some(
            JsonObject::new()
                .field_u64("virtual_us", virtual_us)
                .field_u64("calls", stats.calls)
                .field_u64("attempts", stats.attempts)
                .field_u64("retries", stats.retries)
                .field_u64("breaker_trips", stats.breaker_trips)
                .finish(),
        );
        regimes.push(faulty);
    }

    // ── Pipelined dispatcher regimes (heavy tail) ───────────────────────
    // The same workload against an endpoint whose attempts carry a 3% /
    // 2-virtual-second latency tail, three ways: blocking one call at a
    // time, pipelined through the event-driven dispatcher, and pipelined
    // with P90 hedge timers. The fault schedule is deterministic, so every
    // relation below is an exact assertion, not a threshold.
    let heavy = FaultPlan::heavy_tail(config.seed);
    let hedge_policy = HedgePolicy::at_quantile(900);
    // Deterministic estimator warmup: `min_samples` distinct prompts
    // complete serially before the measured batch, so even its first wave
    // of dispatches can arm hedge timers.
    let warmup = hedge_policy.min_samples;
    let pipe_slots = tasks.len().clamp(2, 64);

    // Synchronous: every miss blocks through the resilient backend —
    // virtual elapsed time is the *sum* of attempt latencies.
    let sync_backend = BackendConfig::resilient(config.seed)
        .without_breaker()
        .with_faults(heavy)
        .wrap(&llm);
    let sync_cache =
        PromptCache::unbounded(sync_backend.model()).with_canonicalization(CanonLevel::TableStem);
    let (sync_regime, _) = run("sync heavy-tail", Some(&sync_cache), &tasks, 1, false);
    let sync_stats = sync_backend.stats().expect("backend attached");
    let sync_makespan = sync_backend.elapsed_us();
    let sync_p99 = sync_stats.request_latency.quantile_us(990);
    let tail_unique = sync_cache.stats().misses as u64;
    assert_eq!(
        sync_regime.answers, regimes[0].answers,
        "heavy-tail latency must never change answers"
    );
    assert_eq!(
        sync_regime.model_calls, tail_unique,
        "sync: one endpoint call per unique canonical key"
    );

    let run_dispatched = |name: &'static str, hedge: Option<HedgePolicy>| {
        let mut backend_config = BackendConfig::resilient(config.seed)
            .without_breaker()
            .with_faults(heavy)
            .with_pipelined();
        if let Some(policy) = hedge {
            backend_config = backend_config.with_hedge(policy);
        }
        let dispatcher = Dispatcher::new(&llm, backend_config);
        for i in 0..warmup {
            dispatcher
                .complete(&format!("latency estimator warmup {i}"))
                .expect("warmup prompt completes");
        }
        llm.reset_usage();
        llm.reset_calls();
        // Cache-level single-flight must be off above a pipelined
        // dispatcher: registered workers never block outside the reactor,
        // which coalesces duplicate prompts itself.
        let cache = PromptCache::unbounded(&dispatcher)
            .with_canonicalization(CanonLevel::TableStem)
            .with_single_flight(false);
        let runner = BatchRunner::new(&cache, pipeline)
            .with_workers(pipe_slots)
            .with_pipeline(&dispatcher);
        let start = Instant::now();
        let report = runner.run_report(&lake, &tasks);
        let elapsed_secs = start.elapsed().as_secs_f64();
        let answers: Vec<String> = report
            .results
            .iter()
            .map(|r| r.as_ref().map(|o| o.answer.clone()).unwrap_or_default())
            .collect();
        let stats = dispatcher.stats();
        let fault_attempts = dispatcher.fault_stats().expect("faults attached").attempts;
        let makespan = dispatcher.clock().now_micros();
        (
            Regime {
                name,
                answers,
                elapsed_secs,
                model_tokens: llm.usage().total(),
                model_calls: llm.calls(),
                // Without cache-level single-flight, the hit/miss split
                // counts timing-dependent co-leaders — the exact,
                // schedule-independent accounting lives in the dispatcher
                // stats, so the cache split is omitted from the baseline.
                stats: None,
                shard_stats: Vec::new(),
                allocs_per_task: None,
            },
            stats,
            fault_attempts,
            makespan,
        )
    };

    let (pipe_regime, pipe_stats, pipe_fault_attempts, pipe_makespan) =
        run_dispatched("pipelined heavy-tail", None);
    let pipe_p99 = pipe_stats.request_latency.quantile_us(990);
    assert_eq!(
        pipe_regime.answers, sync_regime.answers,
        "pipelined answers must be bit-identical to the synchronous path"
    );
    assert_eq!(pipe_stats.hedges_issued, 0, "no hedge policy, no hedges");
    assert_eq!(
        pipe_stats.attempts,
        tail_unique + warmup,
        "pipelined: one endpoint dispatch per unique canonical key (plus warmup)"
    );
    assert_eq!(
        pipe_fault_attempts, pipe_stats.attempts,
        "every dispatched copy reaches the fault injector exactly once"
    );
    assert_eq!(pipe_stats.failures, 0);
    assert!(
        pipe_makespan < sync_makespan,
        "pipelined makespan {pipe_makespan}us must beat synchronous {sync_makespan}us"
    );

    let (hedged_regime, hedged_stats, hedged_fault_attempts, hedged_makespan) =
        run_dispatched("pipelined hedged", Some(hedge_policy));
    let hedged_p99 = hedged_stats.request_latency.quantile_us(990);
    assert_eq!(
        hedged_regime.answers, sync_regime.answers,
        "hedged answers must be bit-identical to the synchronous path"
    );
    assert!(
        hedged_stats.hedges_issued > 0,
        "a 3% tail over {tail_unique} unique keys must arm hedges"
    );
    assert_eq!(
        hedged_stats.attempts - hedged_stats.hedges_issued,
        tail_unique + warmup,
        "hedged: hedge duplicates are accounted separately from primaries"
    );
    assert_eq!(
        hedged_fault_attempts, hedged_stats.attempts,
        "every primary and every hedge copy reaches the injector exactly once"
    );
    assert_eq!(
        hedged_stats.hedges_cancelled, hedged_stats.hedges_issued,
        "heavy-tail injects no errors, so every hedge pair has exactly one loser"
    );
    assert_eq!(hedged_stats.failures, 0);
    assert!(
        hedged_makespan < sync_makespan,
        "hedged makespan {hedged_makespan}us must beat synchronous {sync_makespan}us"
    );
    assert!(
        hedged_p99 < sync_p99,
        "hedged virtual-time P99 {hedged_p99}us must beat synchronous {sync_p99}us"
    );

    println!(
        "\nHeavy-tail regimes ({} unique keys + {} warmup, {} pipeline slots):",
        tail_unique, warmup, pipe_slots
    );
    println!(
        "  sync:             makespan {:>10.3}s  P99 {:>9.3}s",
        sync_makespan as f64 / 1e6,
        sync_p99 as f64 / 1e6,
    );
    println!(
        "  pipelined:        makespan {:>10.3}s  P99 {:>9.3}s",
        pipe_makespan as f64 / 1e6,
        pipe_p99 as f64 / 1e6,
    );
    println!(
        "  pipelined hedged: makespan {:>10.3}s  P99 {:>9.3}s  \
         ({} hedges issued, {} won, {} cancelled, {} suppressed)",
        hedged_makespan as f64 / 1e6,
        hedged_p99 as f64 / 1e6,
        hedged_stats.hedges_issued,
        hedged_stats.hedges_won,
        hedged_stats.hedges_cancelled,
        hedged_stats.hedges_suppressed,
    );
    println!(
        "  answers bit-identical across all three; endpoint calls == unique \
         canonical keys, hedge duplicates accounted separately."
    );
    let pipelined_json = JsonObject::new()
        .field_u64("unique_canonical_keys", tail_unique)
        .field_u64("warmup_prompts", warmup)
        .field_u64("pipeline_slots", pipe_slots as u64)
        .field_raw(
            "sync",
            &JsonObject::new()
                .field_u64("makespan_us", sync_makespan)
                .field_u64("p99_us", sync_p99)
                .field_u64("endpoint_calls", tail_unique)
                .finish(),
        )
        .field_raw(
            "pipelined",
            &JsonObject::new()
                .field_u64("makespan_us", pipe_makespan)
                .field_u64("p99_us", pipe_p99)
                .field_u64("endpoint_calls", pipe_stats.attempts)
                .finish(),
        )
        .field_raw(
            "hedged",
            &JsonObject::new()
                .field_u64("makespan_us", hedged_makespan)
                .field_u64("p99_us", hedged_p99)
                .field_u64("endpoint_calls", hedged_stats.attempts)
                .field_u64("hedges_issued", hedged_stats.hedges_issued)
                .field_u64("hedges_won", hedged_stats.hedges_won)
                .field_u64("hedges_cancelled", hedged_stats.hedges_cancelled)
                .field_u64("hedges_suppressed", hedged_stats.hedges_suppressed)
                .finish(),
        )
        .finish();
    regimes.push(sync_regime);
    regimes.push(pipe_regime);
    regimes.push(hedged_regime);

    // ── Routed fleet vs any single endpoint (heavy tail + faults) ───────
    // Every replica carries its own fault schedule (endpoint-aware slot
    // keying), breaker, and adaptive AIMD token bucket seeded at
    // 5 attempts/sec — a throttle-bound regime, so aggregate fleet
    // capacity (not scheduling luck) decides the virtual-time makespan.
    // The single-endpoint reference runs the identical per-endpoint
    // configuration with one replica, at both fault seeds; the fleet must
    // strictly beat every one of them. The fleet size is pinned (the
    // `--route` flag wraps the standard regimes instead) so that strict
    // guarantee is a property of the committed configuration, not of
    // whatever replica count a flag happens to pass.
    let replicas: u32 = 3;
    let routed_aimd = AimdPolicy::per_sec(5);
    let fleet_plan = RoutePlan::replicas(replicas).with_aimd(routed_aimd);
    let single_plan = RoutePlan::replicas(1).with_aimd(routed_aimd);
    let routed_faults = |seed: u64| FaultPlan {
        timeout_permille: 40,
        rate_limit_permille: 80,
        transient_permille: 60,
        max_consecutive_faults: 4,
        ..FaultPlan::heavy_tail(seed)
    };
    let run_routed = |plan: RoutePlan, seed: u64, workers: usize| {
        let router = RoutedBackend::from_plan(
            &llm,
            BackendConfig::resilient(seed)
                .with_faults(routed_faults(seed))
                .with_route(plan),
        );
        let cache = PromptCache::unbounded(&router).with_canonicalization(CanonLevel::TableStem);
        let answers = BatchRunner::new(&cache, pipeline)
            .with_workers(workers)
            .answers(&lake, &tasks);
        let makespan = router.clock().now_micros();
        (answers, router.stats(), makespan)
    };
    let rate_limited = |stats: &unidm::RouterStats| -> u64 {
        stats.endpoints.iter().map(|e| e.rate_limited).sum()
    };

    let route_seeds = [config.seed, config.seed.wrapping_mul(31).wrapping_add(1000)];
    let mut singles = Vec::new();
    for seed in route_seeds {
        let (answers, stats, makespan) = run_routed(single_plan, seed, 1);
        assert_eq!(
            answers, regimes[0].answers,
            "single-endpoint answers must match the fault-free serial run (seed {seed})"
        );
        assert_eq!(stats.failures, 0, "single endpoint: every call completes");
        singles.push((seed, stats, makespan));
    }
    let best_single_makespan = singles
        .iter()
        .map(|(_, _, m)| *m)
        .min()
        .expect("two single-endpoint runs");

    let mut fleets = Vec::new();
    for seed in route_seeds {
        // Byte-identical at both worker counts; the serial run is the
        // measured one (its virtual schedule is fully deterministic).
        let (parallel_answers, parallel_stats, _) = run_routed(fleet_plan, seed, 8);
        assert_eq!(
            parallel_answers, regimes[0].answers,
            "routed answers must survive 8 workers (seed {seed})"
        );
        assert_eq!(parallel_stats.failures, 0);
        let (answers, stats, makespan) = run_routed(fleet_plan, seed, 1);
        assert_eq!(
            answers, regimes[0].answers,
            "routed answers must match the fault-free serial run (seed {seed})"
        );
        assert_eq!(stats.failures, 0, "routed fleet: every call completes");
        assert!(
            stats.endpoints.iter().all(|e| e.calls > 0),
            "equal weights must spread traffic over all {replicas} replicas: {stats:?}"
        );
        let aimd_decreases: u64 = stats.endpoints.iter().map(|e| e.aimd_decreases).sum();
        assert!(
            rate_limited(&stats) > 0 && aimd_decreases > 0,
            "the 429 schedule must actually drive AIMD adaptation: {stats:?}"
        );
        assert!(
            makespan < best_single_makespan,
            "fleet makespan {makespan}us (seed {seed}) must beat every single \
             endpoint (best single {best_single_makespan}us)"
        );
        fleets.push((seed, stats, makespan));
    }

    let goodput_per_vs =
        |answers: u64, makespan: u64| answers as f64 / (makespan as f64 / 1e6).max(1e-9);
    println!(
        "\nRouted fleet regime ({replicas} replicas, AIMD from 5/s per endpoint, \
         heavy tail + timeouts/429s/5xxs):"
    );
    for (seed, stats, makespan) in &singles {
        println!(
            "  single seed {seed:>6}: makespan {:>9.3}s  goodput {:>6.2} answers/vs  \
             ({} attempts, {} rate-limited)",
            *makespan as f64 / 1e6,
            goodput_per_vs(stats.answers, *makespan),
            stats.attempts(),
            rate_limited(stats),
        );
    }
    for (seed, stats, makespan) in &fleets {
        println!(
            "  fleet  seed {seed:>6}: makespan {:>9.3}s  goodput {:>6.2} answers/vs  \
             ({} attempts, {} rate-limited, {} breaker trips, calls {:?})",
            *makespan as f64 / 1e6,
            goodput_per_vs(stats.answers, *makespan),
            stats.attempts(),
            rate_limited(stats),
            stats.breaker_trips(),
            stats.endpoints.iter().map(|e| e.calls).collect::<Vec<_>>(),
        );
    }
    println!(
        "  answers bit-identical to the fault-free serial run across both seeds and \
         both worker counts; fleet goodput beats every single endpoint."
    );
    let routed_entry = |seed: u64, stats: &unidm::RouterStats, makespan: u64| {
        let endpoint_calls: Vec<String> = stats
            .endpoints
            .iter()
            .map(|e| e.calls.to_string())
            .collect();
        JsonObject::new()
            .field_u64("fault_seed", seed)
            .field_u64("makespan_us", makespan)
            .field_u64("answers", stats.answers)
            .field_f64(
                "goodput_answers_per_vs",
                goodput_per_vs(stats.answers, makespan),
            )
            .field_u64("attempts", stats.attempts())
            .field_u64("rate_limited", rate_limited(stats))
            .field_u64("breaker_trips", stats.breaker_trips())
            .field_u64("tokens_per_answer_milli", stats.tokens_per_answer_milli())
            .field_raw("endpoint_calls", &unidm_bench::json_array(&endpoint_calls))
            .finish()
    };
    let singles_json: Vec<String> = singles
        .iter()
        .map(|(seed, stats, makespan)| routed_entry(*seed, stats, *makespan))
        .collect();
    let fleets_json: Vec<String> = fleets
        .iter()
        .map(|(seed, stats, makespan)| routed_entry(*seed, stats, *makespan))
        .collect();
    let routed_json = JsonObject::new()
        .field_u64("replicas", replicas as u64)
        .field_u64("aimd_initial_per_sec", routed_aimd.initial_per_sec)
        .field_raw("single_endpoint", &unidm_bench::json_array(&singles_json))
        .field_raw("fleet", &unidm_bench::json_array(&fleets_json))
        .finish();

    // ── Cascade: small→large escalation vs large-only ───────────────────
    // The eval workload's unique prompt stream (recorded from a serial
    // large-only run — the pipeline's prompts are answer-dependent, so
    // the stream must be fixed before the models can be compared) through
    // a GPT-J-6B → GPT-3-175B cascade: prompts whose cheap answer clears
    // a 600‰ confidence gate are served by the small model; the rest
    // escalate. The cascade must consume strictly fewer large-tier tokens
    // and strictly less billed cost per answer than the large-model-only
    // reference.
    let cheap = MockLlm::new(&world, LlmProfile::gptj_6b(), config.seed);
    let large_tier = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let large_only = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let large_cost = LlmProfile::gpt3_175b().cost_micro_per_token();

    let large_cache =
        PromptCache::unbounded(&large_only).with_canonicalization(CanonLevel::TableStem);
    let large_answers = BatchRunner::new(&large_cache, pipeline)
        .with_workers(1)
        .answers(&lake, &tasks);
    assert_eq!(
        large_answers, regimes[0].answers,
        "the large-only reference is the serial regime's model"
    );
    let eval_prompts = large_cache.canonical_prompts();
    let large_only_tokens = large_only.usage().total() as u64;
    let large_only_billed = large_only_tokens * large_cost;

    let cascade_backend = CascadeBackend::new(&cheap, &large_tier)
        .with_policy(CascadePolicy { gate_permille: 600 })
        .with_costs_of(&LlmProfile::gptj_6b(), &LlmProfile::gpt3_175b());
    for prompt in &eval_prompts {
        cascade_backend
            .complete(prompt)
            .expect("every eval prompt completes through the cascade");
    }
    let cascade_stats = cascade_backend.stats();
    assert_eq!(cascade_stats.answers, eval_prompts.len() as u64);
    assert!(
        cascade_stats.escalations > 0 && cascade_stats.escalations < cascade_stats.calls,
        "the gate must escalate some prompts and clear others: {cascade_stats:?}"
    );
    assert!(
        cascade_stats.endpoints[1].tokens() < large_only_tokens,
        "cascade large-tier tokens {} must be strictly below large-only {}",
        cascade_stats.endpoints[1].tokens(),
        large_only_tokens,
    );
    assert!(
        cascade_stats.billed_micro() < large_only_billed,
        "cascade billed cost {} must be strictly below large-only {}",
        cascade_stats.billed_micro(),
        large_only_billed,
    );
    let large_only_per_answer = large_only_billed / cascade_stats.answers;
    assert!(
        cascade_stats.billed_per_answer_micro() < large_only_per_answer,
        "cascade must be cheaper per answer: {} vs {}",
        cascade_stats.billed_per_answer_micro(),
        large_only_per_answer,
    );
    println!(
        "\nCascade regime ({} → {}, gate 600‰): {} prompts, {} escalated \
         ({} unparseable, {} low-confidence);",
        cheap.name(),
        large_tier.name(),
        cascade_stats.calls,
        cascade_stats.escalations,
        cascade_stats.unparseable,
        cascade_stats.low_confidence,
    );
    println!(
        "  large-tier tokens {} vs large-only {}; billed/answer {}µ vs {}µ \
         (tokens/answer {} milli).",
        cascade_stats.endpoints[1].tokens(),
        large_only_tokens,
        cascade_stats.billed_per_answer_micro(),
        large_only_per_answer,
        cascade_stats.tokens_per_answer_milli(),
    );
    let cascade_json = JsonObject::new()
        .field_str("cheap_model", cheap.name())
        .field_str("large_model", large_tier.name())
        .field_u64("gate_permille", 600)
        .field_u64("prompts", cascade_stats.calls)
        .field_u64("escalations", cascade_stats.escalations)
        .field_u64("unparseable", cascade_stats.unparseable)
        .field_u64("low_confidence", cascade_stats.low_confidence)
        .field_u64("large_tier_tokens", cascade_stats.endpoints[1].tokens())
        .field_u64("large_only_tokens", large_only_tokens)
        .field_u64("cascade_billed_micro", cascade_stats.billed_micro())
        .field_u64("large_only_billed_micro", large_only_billed)
        .field_u64(
            "billed_per_answer_micro",
            cascade_stats.billed_per_answer_micro(),
        )
        .field_u64("large_only_billed_per_answer_micro", large_only_per_answer)
        .field_u64(
            "tokens_per_answer_milli",
            cascade_stats.tokens_per_answer_milli(),
        )
        .finish();

    assert_eq!(
        regimes[1].answers, regimes[0].answers,
        "batched diverged from the serial answers"
    );
    assert_eq!(
        regimes[3].answers, regimes[2].answers,
        "warm cache diverged from the cold cache"
    );
    assert!(
        regimes[2].model_tokens < regimes[0].model_tokens,
        "cold cache should consume fewer model tokens ({} vs {})",
        regimes[2].model_tokens,
        regimes[0].model_tokens,
    );
    assert!(
        regimes[3].model_tokens <= regimes[2].model_tokens,
        "warm cache should consume no more model tokens ({} vs {})",
        regimes[3].model_tokens,
        regimes[2].model_tokens,
    );
    assert!(
        warm_stats.hit_rate() >= cold_stats.hit_rate(),
        "warm hit rate should not trail cold: {:.2} vs {:.2}",
        warm_stats.hit_rate(),
        cold_stats.hit_rate(),
    );
    println!(
        "\nSerial and batched answers identical; cold and warm cached answers identical; \
         cache reduced model tokens by {} (cold) and {} (warm).",
        regimes[0].model_tokens - regimes[2].model_tokens,
        regimes[0].model_tokens - regimes[3].model_tokens,
    );

    // ── Out-of-core scale regime ────────────────────────────────────────
    let scale_json = run_scale(&llm, config.seed, scale_rows);

    // ── BENCH_<pr>.json: the machine-readable baseline ──────────────────
    let store_section = |s: &unidm::StoreStats| {
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
    };
    let store_json = JsonObject::new()
        .field_raw("cold", &store_section(&store_cold_stats))
        .field_raw("warm", &store_section(&store_warm_stats))
        .field_u64("warm_model_calls", 0)
        .field_raw(
            "warm_lookups",
            &JsonObject::new()
                .field_u64("lookups", store_canonical.len() as u64)
                .field_u64("allocations", store_warm_allocs)
                .finish(),
        )
        .field_raw(
            "scan",
            &JsonObject::new()
                .field_u64("hot_set", HOT_SET as u64)
                .field_u64("scan_keys", SCAN_KEYS as u64)
                .field_u64("scan_admitted", scan_admitted as u64)
                .field_u64("hot_hits", hot_hits as u64)
                .field_u64("hot_hit_rate_permille", (hot_hits * 1000 / HOT_SET) as u64)
                .field_u64("rejected", scan_stats.rejected as u64)
                .field_u64("evicted", scan_stats.evicted as u64)
                .finish(),
        )
        .field_raw(
            "compaction",
            &JsonObject::new()
                .field_u64("capacity", CHURN_CAP as u64)
                .field_u64("dead_before", dead_before as u64)
                .field_u64("reclaimed", reclaimed as u64)
                .field_u64("compactions", churn_stats.compactions as u64)
                .field_u64("compacted_frames", churn_stats.compacted_frames as u64)
                .finish(),
        )
        .finish();
    let canon_level_json = |s: &unidm::CacheStats| {
        JsonObject::new()
            .field_u64("hits", s.hits as u64)
            .field_u64("misses", s.misses as u64)
            .finish()
    };
    let canon_json = JsonObject::new()
        .field_u64("foldable_prompts", foldable.len() as u64)
        .field_raw("tablestem", &canon_level_json(&stem_stats2))
        .field_raw("semantic", &canon_level_json(&semantic_stats2))
        .field_u64("semantic_warm_allocs_per_lookup", semantic_warm_allocs)
        .field_u64("semantic_fold_allocs_per_lookup", semantic_fold_allocs)
        .finish();
    let regime_json: Vec<String> = regimes.iter().map(Regime::to_json).collect();
    let mut doc = JsonObject::new()
        .field_u64("pr", BASELINE_PR)
        .field_str("bench", "throughput")
        .field_str("model", llm.name())
        .field_u64("seed", config.seed)
        .field_u64("tasks", tasks.len() as u64)
        .field_u64("workers", workers as u64)
        .field_raw("regimes", &unidm_bench::json_array(&regime_json))
        .field_raw(
            "duplicate_heavy",
            &JsonObject::new()
                .field_u64("tasks", dup_tasks.len() as u64)
                .field_u64("unique_tasks", tasks.len() as u64)
                .field_u64("dup_factor", DUP_FACTOR as u64)
                .field_u64("unique_canonical_keys", unique_keys as u64)
                .field_u64("endpoint_calls", unique_keys as u64)
                .field_u64(
                    "planner_coalesced_tasks",
                    planner_report.coalesced_tasks as u64,
                )
                .finish(),
        )
        .field_raw(
            "warm_lookups",
            &JsonObject::new()
                .field_u64("lookups", canonical_texts.len() as u64)
                .field_u64("allocations", warm_allocs)
                .field_u64("bytes", warm_bytes)
                .finish(),
        )
        .field_raw("pipelined_heavy_tail", &pipelined_json)
        .field_raw("routed", &routed_json)
        .field_raw("cascade", &cascade_json)
        .field_raw("scale", &scale_json)
        .field_raw("store", &store_json)
        .field_raw("canon_v2", &canon_json);
    if let Some(faulty) = faulty_json {
        doc = doc.field_raw("faulty", &faulty);
    }
    let path = bench_json_path();
    match std::fs::write(&path, doc.finish() + "\n") {
        Ok(()) => println!("(wrote perf baseline to {})", path.display()),
        Err(e) => println!("(perf baseline not written: {e})"),
    }
}
