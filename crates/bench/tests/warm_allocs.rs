//! The warm paths allocate nothing. Re-looking up a cache's own canonical
//! texts must not touch the heap, at every canonicalization level, nor
//! must a repeat of a prompt the `Semantic` level has rewritten — a
//! reordered list, a per-row `p_rm` query, loose whitespace; and a
//! repeat attempt on a prompt the fault injector has already seen adds no
//! allocation to the inner model's own, whatever the schedule makes of it —
//! nor does a repeat call through a routed fleet of injectors, which keeps
//! one copy of a prompt however many replicas see it, and none at all when
//! it owns no injector. The disk tier holds a prompt once as well: a hit
//! copies out the completion and nothing of the prompt, and compaction
//! streams the file instead of building it in memory. A streamed batch
//! holds one partition live, whatever the stream's length. A lake row
//! reaches its prompt uncopied: a full pager pages in without allocating,
//! lowering an imputation task allocates its two queries and nothing of
//! the row, and a frame fill allocates one rendered line per row. Lowering
//! borrows what the task brought: a join-discovery task allocates the same
//! whatever its columns' lengths, a transformation task its query, its
//! `Vec` and a line per example; `render_pcq` and `render_prm` allocate
//! once, exactly sized.
//! Counted by `unidm_bench`'s global counting allocator, which is why this
//! lives here (`unidm` itself forbids the `unsafe` an allocator needs).
//!
//! The counters are process-global, so the tests take turns
//! ([`QUIESCENT`]): one running beside another would show up in its count.

use std::sync::{Arc, Mutex, PoisonError};

use unidm::{
    BackendConfig, BatchRunner, CacheStore, CanonLevel, CanonicalPrompt, PipelineConfig,
    PromptCache, RoutePlan, RoutedBackend, StoreConfig, Task, UniDm,
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
use unidm_synthdata::scale::{ScaleSpec, TABLE_NAME};
use unidm_tablestore::{DataLake, Pager, SegmentReader};
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
        if level == CanonLevel::Semantic {
            // The prompts as sent, each rewritten once above — the unsorted
            // lists folded, the per-row `p_rm` query generalized, the loose
            // whitespace normalized — so a repeat is served from the fold
            // memo without canonicalizing again.
            let rewritten: Vec<&String> = prompts
                .iter()
                .filter(|p| !CanonicalPrompt::canonicalize(p, level).is_borrowed())
                .collect();
            assert_eq!(rewritten.len(), 4, "p_rm, p_ri, p_dp and the loose prompt");
            assert!(rewritten.contains(&&prompts[0]), "the per-row p_rm query");
            let fewest = (0..3)
                .map(|_| {
                    let section = AllocationDelta::start();
                    for prompt in &rewritten {
                        let _ = std::hint::black_box(cache.complete(prompt));
                    }
                    section.allocations()
                })
                .min();
            assert_eq!(fewest, Some(0), "repeated rewritten lookups allocated");
        }
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

#[test]
fn a_miss_whose_tail_is_resident_copies_only_its_first_line() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let model = SharedAnswer(Completion::shared("yes".to_string(), Usage::default()));
    let body: Vec<String> = (0..40)
        .map(|i| format!("{i}. row {i} | value {i}"))
        .collect();
    let body = body.join("\n");
    let head = "Candidates for Florence:\n";
    let (first, second) = (
        format!("Candidates for Cork:\n{body}"),
        format!("{head}{body}"),
    );
    let sized = {
        let section = AllocationDelta::start();
        std::hint::black_box(Arc::<str>::from(head));
        (section.allocations(), section.bytes())
    };
    assert_eq!(sized.0, 1);
    for level in [
        CanonLevel::Verbatim,
        CanonLevel::Whitespace,
        CanonLevel::TableStem,
        CanonLevel::Semantic,
    ] {
        let cache = || {
            let cache = PromptCache::unbounded(&model)
                .with_shards(1)
                .with_canonicalization(level);
            // Registers the body as a tail, and sizes the shard's maps.
            cache.complete(&first).expect("completes");
            cache
        };
        // The harness's own threads may allocate beside a miss; they can
        // only add, so one clean miss proves the path.
        let miss = (0..3)
            .map(|_| {
                let cache = cache();
                let section = AllocationDelta::start();
                cache.complete(&second).expect("completes");
                (section.allocations(), section.bytes())
            })
            .min();
        assert_eq!(
            miss,
            Some(sized),
            "the miss copied more than its first line at {level}"
        );
        let cache = cache();
        cache.complete(&second).expect("completes");
        let mut warm = vec![first.clone(), second.clone()];
        if level.folds_lists() {
            // Loose whitespace, rewritten once here: its repeats are served
            // from the fold memo, which shares the resident key.
            let loose = second.replacen("for Florence", "for  Florence", 1);
            cache.complete(&loose).expect("completes");
            warm.push(loose);
        }
        let before = cache.stats();
        let fewest = (0..3)
            .map(|_| {
                let section = AllocationDelta::start();
                for prompt in &warm {
                    let _ = std::hint::black_box(cache.complete(prompt));
                }
                section.allocations()
            })
            .min();
        assert_eq!(
            fewest,
            Some(0),
            "warm hits on a shared tail allocated at {level}"
        );
        let after = cache.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses),
            (3 * warm.len(), before.misses),
            "every re-lookup hit at {level}"
        );
    }
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
    let config = BackendConfig::resilient(7)
        .without_breaker()
        .with_route(RoutePlan::replicas(3));
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

#[test]
fn a_deduplicated_stream_holds_one_partition_whatever_its_length() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let lake = DataLake::new();
    let runner = BatchRunner::new(&llm, PipelineConfig::paper_default())
        .with_dedup(true)
        .with_partition_tasks(8);
    // `count` distinct tasks, none repeated: nothing a run returns is
    // needed once its result reaches the sink, which drops it.
    let tasks = |count: usize| {
        (0..count).map(|i| Task::Transformation {
            examples: vec![
                ("20000101".into(), "2000-01-01".into()),
                ("19991231".into(), "1999-12-31".into()),
            ],
            input: format!("2021{:04}", 101 + i),
        })
    };
    // The harness's own threads may allocate beside a pass; they can only
    // add, so the smallest peak over three passes is the stream's.
    let peak = |count: usize| {
        (0..3)
            .map(|_| {
                let baseline = reset_peak_to_live();
                let report = runner.run_streaming(&lake, tasks(count), |_, result| {
                    drop(std::hint::black_box(result));
                });
                assert_eq!((report.tasks, report.unique_tasks), (count, count));
                peak_live_bytes().saturating_sub(baseline)
            })
            .min()
            .expect("three passes")
    };
    let (short, long) = (peak(64), peak(512));
    assert!(
        long < 2 * short,
        "8x the tasks raised the stream's peak from {short} B to {long} B"
    );
}

/// A scale lake of `chunks` full 1 024-row chunks spilled to a scratch
/// segment (every full chunk packs each column at the same word width),
/// and the segment's path.
fn scale_segment(tag: &str, chunks: usize) -> (ScaleSpec, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("unidm-warm-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{tag}.udmseg"));
    let spec = ScaleSpec::new(chunks * 1024, 42);
    spec.users_segment(&path, 1).expect("segment written");
    (spec, path)
}

#[test]
fn a_full_pager_pages_in_without_allocating() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, path) = scale_segment("pager", 16);
    let pager = Pager::new(SegmentReader::open(&path).expect("reopens"), 4);
    // Sixteen chunks over four slots in order: chunk i always lands in the
    // chunk evicted for it one cycle before, so one cycle fills the pager
    // and sizes every slot's buffers for the chunks it takes.
    for idx in 0..16 {
        pager.chunk(idx).expect("pages in");
    }
    // The harness's own threads may allocate beside a pass; they can only
    // add, so one clean pass proves the path.
    let fewest = (0..3)
        .map(|_| {
            let section = AllocationDelta::start();
            for idx in 0..16 {
                let chunk = std::hint::black_box(pager.chunk(idx).expect("pages in"));
                assert_eq!(chunk.len(), 1024);
            }
            section.allocations()
        })
        .min();
    assert_eq!(fewest, Some(0), "16 page-ins into a full pager allocated");
    assert_eq!(pager.resident_chunks(), 4);
    let _ = std::fs::remove_file(&path);
}

/// The fewest allocations and bytes of three `unidm.start`s of `task`, each
/// run dropped unread: the lowering's.
fn lowering_cost(lake: &DataLake, task: &Task) -> (u64, u64) {
    let model = SharedAnswer(Completion::shared(String::new(), Usage::default()));
    let unidm = UniDm::new(&model, PipelineConfig::paper_default());
    (0..3)
        .map(|_| {
            let section = AllocationDelta::start();
            let run = std::hint::black_box(unidm.start(lake, task).expect("starts"));
            let spent = (section.allocations(), section.bytes());
            drop(run);
            spent
        })
        .min()
        .expect("three starts")
}

#[test]
fn lowering_an_imputation_task_over_a_paged_table_allocates_its_two_queries() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let (spec, path) = scale_segment("lower", 2);
    let table = unidm_tablestore::Table::open_segment(&path, 1).expect("reopens");
    let row = spec.target_rows().nth(3).expect("a target row");
    let record = table.row_at(row).expect("the row reads");
    let lake: DataLake = [table].into_iter().collect();
    let task = Task::imputation(TABLE_NAME, row, "city", "name");
    // What the two queries hold: every known cell but the target's, then
    // `city: ?`; and the row's name with the target.
    let schema = ScaleSpec::schema();
    let known = (schema.names())
        .zip(record.values())
        .filter(|(name, cell)| *name != "city" && !cell.is_null())
        .map(|(name, cell)| name.len() + cell.to_string().len() + 4);
    let claim = known.sum::<usize>() + "city: ?".len();
    let meta = record.values()[1].to_string().len() + ", city".len();
    // The first start pages the row's chunk in; the fewest are the later
    // starts'.
    assert_eq!(
        lowering_cost(&lake, &task),
        (2, (claim + meta) as u64),
        "lowering allocates the claim query and the meta-query, each once, exactly sized"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn render_pcq_and_render_prm_allocate_once_exactly_sized() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let once_exactly_sized = |render: &dyn Fn() -> String| {
        // The harness's own threads may allocate beside a render; they can
        // only add, so the fewest over three renders are the render's.
        let fewest = (0..3)
            .map(|_| {
                let section = AllocationDelta::start();
                let text = std::hint::black_box(render());
                (section.allocations(), section.bytes(), text.len() as u64)
            })
            .min()
            .expect("three renders");
        assert_eq!((fewest.0, fewest.1), (1, fewest.2), "{:?}", render());
    };
    // `p_cq` for every task kind: its one demonstration, or all four.
    for task in TaskKind::ALL {
        let claim = Claim {
            task,
            context: "Florence belongs to the country Italy.".into(),
            query: "city: Copenhagen; country: ?".into(),
        };
        once_exactly_sized(&|| render_pcq(&claim));
    }
    let candidates = ["country".to_string(), "population".to_string()];
    once_exactly_sized(&|| render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates));
}

#[test]
fn lowering_a_join_discovery_task_allocates_the_same_whatever_its_column_lengths() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let lake = DataLake::new();
    let task = |len: usize| Task::JoinDiscovery {
        left_name: "city".into(),
        left_values: (0..len).map(|i| format!("city {i}")).collect(),
        right_name: "town".into(),
        right_values: (0..len).map(|i| format!("town {i}")).collect(),
    };
    let (short, long) = (
        lowering_cost(&lake, &task(30)),
        lowering_cost(&lake, &task(300)),
    );
    // One shuffled order for both columns, the context text and the query.
    assert_eq!(
        (short.0, long.0),
        (3, 3),
        "30 values a column allocate {short:?}, 300 allocate {long:?}"
    );
}

#[test]
fn lowering_a_transformation_task_allocates_its_query_its_vec_and_a_line_per_example() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let lake = DataLake::new();
    let examples: Vec<(String, String)> = vec![
        ("20000101".into(), "2000-01-01".into()),
        ("19991231".into(), String::new()),
        ("19990415".into(), "1999-04-15".into()),
    ];
    let lines: usize = examples
        .iter()
        .map(|(b, a)| {
            SerializedRecord::new(vec![
                ("before".into(), b.clone()),
                ("after".into(), a.clone()),
            ])
        })
        .map(|record| record.render().len())
        .sum();
    let task = Task::Transformation {
        examples,
        input: "20210101".into(),
    };
    let query = "20210101: ?".len();
    let vec = 3 * std::mem::size_of::<String>();
    assert_eq!(
        lowering_cost(&lake, &task),
        (2 + 3, (query + vec + lines) as u64),
        "the query, the Vec of lines and each line, once and exactly sized"
    );
}

#[test]
fn a_frame_fill_allocates_one_line_per_row() {
    let _turn = QUIESCENT.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = ScaleSpec::new(2048, 42);
    let lake: DataLake = [spec.users_table()].into_iter().collect();
    let mut targets = spec.target_rows();
    let (x, y) = (targets.next().unwrap(), targets.last().unwrap());
    let task = |row| Task::imputation(TABLE_NAME, row, "city", "name");
    let (tx, ty) = (task(x), task(y));
    let model = SharedAnswer(Completion::shared(
        "1: 3, 2: 2, 3: 1".to_string(),
        Usage::default(),
    ));
    let config = PipelineConfig::paper_default();
    // Runs `ty` on a pipeline that ran `warm` first: its allocations and
    // the rows its frame gained. The seeded sampler shuffles the rows but
    // the excluded one, so a sampled row between `x` and `y` is one off
    // between the tasks: after `tx` alone the run fills a few rows.
    let run = |warm: &[&Task]| {
        let unidm = UniDm::new(&model, config);
        for t in warm {
            unidm.run(&lake, t).expect("runs");
        }
        let rows = |u: &UniDm<'_>| u.frame_rows(TABLE_NAME).map_or(0, |(_, p)| p.iter().sum());
        let before = rows(&unidm);
        let section = AllocationDelta::start();
        let out = std::hint::black_box(unidm.run(&lake, &ty).expect("runs"));
        let allocations = section.allocations();
        drop(out);
        (allocations, rows(&unidm) - before)
    };
    // The harness's own threads may allocate beside a run; they can only
    // add, so the fewest over three fresh pipelines are the run's.
    let (filling, filled) = (0..3).map(|_| run(&[&tx])).min().expect("three runs");
    let (warm, none) = (0..3).map(|_| run(&[&tx, &ty])).min().expect("three runs");
    assert_eq!(none, 0, "the warm pipeline's frame holds every row");
    assert!(filled > 0, "the sample shifted by no row");
    assert_eq!(
        filling - warm,
        filled as u64,
        "filling {filled} rows cost {} allocations",
        filling - warm
    );
}
