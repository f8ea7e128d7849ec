//! `mix_batch` — the paper-scale batch job. Op = task.
//!
//! All seven task kinds, built from the ten eval scenarios' generators
//! (plus table QA) at several seed offsets, over resident tables, through
//! `BatchRunner::run_report` on one worker over
//! `PromptCache(TableStem, unbounded, fresh per pass) → ReplayEndpoint`. `retrieval`, `parsing`, `prompting`, `llm::protocol`
//! and `text` do most of the work; storage and the resilience stack do
//! none; the cache is used on its write (miss + insert) side.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unidm::{BatchReport, BatchRunner, CanonLevel, PromptCache, RunOutput, UniDm, UniDmError};
use unidm_bench::alloc_counter::AllocationDelta;
use unidm_llm::protocol::{
    parse_pri_response, render_pcq, render_pdp, render_pri, Claim, SerializedRecord, TaskKind,
};
use unidm_llm::LanguageModel;

use super::{
    answer_digest, judge, permille, run_span_name, timed_setups, Ctx, Outcome, Scene,
    REFERENCE_ROUNDS,
};
use crate::harness::{interleave, measure, observe, probe_ns, Digest, MIN_PASSES};
use crate::replay::{Recorder, ReplayEndpoint};
use crate::steps;
use crate::trace::{by_name, SpanModel, Tracer};

/// Everything a pass needs, built once per set-up.
pub struct Fixture {
    /// World, stand-in model and task groups.
    pub scene: Scene,
    /// The recorded endpoint, keyed by TableStem-canonical prompts.
    pub endpoint: ReplayEndpoint,
    /// Digest of the serial reference run's answers.
    pub reference: Digest,
}

/// World + datasets + the recording run: a serial `UniDm::run` loop over
/// the same cache stack the measured passes use, against `MockLlm`.
pub fn setup(seed: u64) -> Fixture {
    let scene = Scene::mix(seed);
    let recorder = Recorder::new(&scene.mock);
    let reference = {
        let cache = fresh_cache(&recorder);
        answer_digest(&scene.run_serial(&cache))
    };
    let endpoint = recorder.into_replay();
    Fixture {
        scene,
        endpoint,
        reference,
    }
}

/// The cache every pass starts from: empty, unbounded, TableStem.
pub fn fresh_cache(inner: &dyn unidm_llm::LanguageModel) -> PromptCache<'_> {
    PromptCache::unbounded(inner).with_canonicalization(CanonLevel::TableStem)
}

/// One pass: every group through the batch runner on one worker.
pub fn pass(fx: &Fixture, cache: &PromptCache<'_>) -> Vec<BatchReport> {
    let runner = BatchRunner::new(cache, fx.scene.pipeline).with_workers(1);
    fx.scene
        .groups
        .iter()
        .map(|g| runner.run_report(&g.lake, &g.tasks))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (fx, setups_s) = timed_setups(|| setup(ctx.seed));
    let mut out = Outcome::default();
    let ops = fx.scene.tasks() as u64;
    let mut first_calls = 0u64;
    let measured = measure(
        ctx.seconds,
        MIN_PASSES,
        || {
            fx.endpoint.reset();
            fresh_cache(&fx.endpoint)
        },
        |cache| {
            let reports = pass(&fx, &cache);
            (reports, cache)
        },
        |index, (reports, cache)| {
            let counts = fx.endpoint.counts();
            let results: Vec<_> = reports
                .into_iter()
                .map(|r| {
                    out.gate(r.coalesced_tasks == 0, || {
                        format!(
                            "pass {index}: planner coalesced {} tasks",
                            r.coalesced_tasks
                        )
                    });
                    r.results
                })
                .collect();
            let digest = answer_digest(&results);
            out.gate(digest == fx.reference, || {
                format!("pass {index}: answers differ from the serial reference")
            });
            out.gate(counts.fallthrough == 0, || {
                format!("pass {index}: {} replay fall-throughs", counts.fallthrough)
            });
            if index == 0 {
                first_calls = counts.calls;
                let (answered, correct) = judge(&fx.scene.groups, &results);
                out.attempted = ops;
                out.failed = ops - answered;
                out.set("accuracy_permille", permille(correct, ops));
                out.notes.push(format!(
                    "mix_batch: {ops} tasks in {} groups, {answered} answered, {correct} correct; \
                     {} endpoint calls ({:.4}/task), {} endpoint tokens ({:.2}/answer); \
                     cache {:?}",
                    fx.scene.groups.len(),
                    counts.calls,
                    counts.calls as f64 / ops as f64,
                    counts.tokens,
                    counts.tokens as f64 / answered.max(1) as f64,
                    cache.stats(),
                ));
            } else {
                out.gate(counts.calls == first_calls, || {
                    format!(
                        "pass {index}: {} endpoint calls, pass 0 had {first_calls}",
                        counts.calls
                    )
                });
            }
        },
    );
    out.set_common(&setups_s, ops, &measured);
    out
}

type GroupResults = Vec<Vec<Result<RunOutput, UniDmError>>>;

/// The pass as a serial loop of `UniDm::run` calls, one span per task
/// (none when `tracer` is off): what `run_report` does on one worker,
/// minus the runner.
fn serial_pass(fx: &Fixture, llm: &dyn LanguageModel, tracer: &Tracer) -> GroupResults {
    let unidm = UniDm::new(llm, fx.scene.pipeline);
    let mut op = 0u64;
    fx.scene
        .groups
        .iter()
        .map(|g| {
            g.tasks
                .iter()
                .map(|t| {
                    op += 1;
                    tracer.span(run_span_name(t), op, || unidm.run(&g.lake, t))
                })
                .collect()
        })
        .collect()
}

/// Direct probes of `text`, `llm::protocol` and the resident table
/// accessors the pipeline leans on, over this seed's own data.
fn probe_layers(fx: &Fixture, out: &mut Outcome) {
    let prompts = fx.endpoint.prompts();
    let sample: Vec<&str> = prompts.iter().copied().take(2000).collect();
    let bytes: usize = sample.iter().map(|p| p.len()).sum();
    let ns = probe_ns(3, sample.len().max(1000), |i| {
        black_box(unidm_text::count_tokens(sample[i % sample.len()]));
    });
    let mean_bytes = bytes as f64 / sample.len() as f64;
    out.set("text.count_tokens.ns_per_kb", ns / mean_bytes * 1024.0);

    // The Restaurant table of the first group, serialized the way
    // instance-wise retrieval serializes its 50 candidates.
    let group = &fx.scene.groups[0];
    let table = group
        .lake
        .iter()
        .next()
        .expect("imputation groups carry their table");
    let names: Vec<String> = table.schema().names().map(str::to_string).collect();
    let records: Vec<SerializedRecord> = (0..50.min(table.row_count()))
        .map(|row| {
            let record = table.row_at(row).expect("row in range");
            SerializedRecord::new(
                names
                    .iter()
                    .zip(record.values())
                    .map(|(n, v)| (n.clone(), v.to_string()))
                    .collect(),
            )
        })
        .collect();
    let query = records[0].render();
    out.set(
        "protocol.render_pri.us",
        probe_ns(3, 1000, |_| {
            black_box(render_pri(TaskKind::Imputation, &query, &records));
        }) / 1e3,
    );
    let scores: String = (1..=records.len())
        .map(|i| format!("{i}:{}", i % 4))
        .collect::<Vec<_>>()
        .join(", ");
    out.set(
        "protocol.parse_pri_response.us",
        probe_ns(3, 2000, |_| {
            black_box(parse_pri_response(&scores));
        }) / 1e3,
    );
    out.set(
        "protocol.render_pdp.us",
        probe_ns(3, 5000, |_| {
            black_box(render_pdp(&records[..3]));
        }) / 1e3,
    );
    let claim = Claim {
        task: TaskKind::Imputation,
        context: records[1..4]
            .iter()
            .map(SerializedRecord::render)
            .collect::<Vec<_>>()
            .join(" "),
        query,
    };
    out.set(
        "protocol.render_pcq.us",
        probe_ns(3, 5000, |_| {
            black_box(render_pcq(&claim));
        }) / 1e3,
    );

    let mut rng = StdRng::seed_from_u64(fx.scene.pipeline.seed);
    out.set(
        "tablestore.sample_rows.resident_us",
        probe_ns(3, 2000, |i| {
            black_box(table.sample_rows(&mut rng, 50, &[i % table.row_count()]));
        }) / 1e3,
    );
    out.set(
        "tablestore.row_at.resident_ns",
        probe_ns(3, 20_000, |i| {
            black_box(table.row_at(i % table.row_count()).is_ok());
        }),
    );
}

/// The traced run: layer metrics.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let fx = setup(ctx.seed);
    let mut out = Outcome::default();
    let ops = fx.scene.tasks() as u64;
    let off = Tracer::new(false);

    // Untraced references, interleaved: the measured pass shape, the same
    // work as a bare serial loop (their difference is the runner), and
    // the measured shape on two workers.
    let (mut coalesced, mut steals) = (0usize, 0usize);
    let mut batch = || {
        let cache = fresh_cache(&fx.endpoint);
        let (reports, wall, _, _) = observe(|| pass(&fx, &cache));
        coalesced = reports.iter().map(|r| r.coalesced_tasks).sum();
        steals = reports.iter().map(|r| r.steals).sum();
        wall
    };
    let mut serial = || {
        let cache = fresh_cache(&fx.endpoint);
        observe(|| serial_pass(&fx, &cache, &off)).1
    };
    let mut two_workers = || {
        let cache = fresh_cache(&fx.endpoint);
        let runner = BatchRunner::new(&cache, fx.scene.pipeline).with_workers(2);
        observe(|| {
            for g in &fx.scene.groups {
                black_box(runner.run_report(&g.lake, &g.tasks));
            }
        })
        .1
    };
    let walls = interleave(
        ctx.seconds / 3.0,
        REFERENCE_ROUNDS,
        &mut [&mut batch, &mut serial, &mut two_workers],
    );
    let (reference_s, serial_s, two_workers_s) = (walls[0], walls[1], walls[2]);
    out.set(
        "exec.runner.overhead_us_per_task",
        (reference_s - serial_s) * 1e6 / ops as f64,
    );
    out.set("exec.runner.planner_coalesced", coalesced as f64);
    out.set("exec.runner.steals", steals as f64);
    out.set(
        "exec.runner.speedup_2w_permille",
        reference_s / two_workers_s * 1000.0,
    );

    // Allocations of a cold imputation task, counted without the tracer.
    {
        let cache = fresh_cache(&fx.endpoint);
        let unidm = UniDm::new(&cache, fx.scene.pipeline);
        let groups = fx
            .scene
            .groups
            .iter()
            .filter(|g| g.scenario.contains("imputation"));
        let (mut tasks, mut allocs) = (0u64, 0u64);
        for g in groups {
            let section = AllocationDelta::start();
            for t in &g.tasks {
                black_box(unidm.run(&g.lake, t).is_ok());
            }
            allocs += section.allocations();
            tasks += g.tasks.len() as u64;
        }
        out.set(
            "pipeline.allocs_per_task.imputation",
            allocs as f64 / tasks.max(1) as f64,
        );
    }

    // Traced pass A: one span per task, children by prompt class above
    // the cache and one `endpoint` span per call below it.
    let tracer = Tracer::new(true);
    fx.endpoint.reset();
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let cache = fresh_cache(&boundary);
    let model = SpanModel::by_class(&cache, &tracer);
    let (results, traced_s, _, _) = observe(|| serial_pass(&fx, &model, &tracer));
    let counts = fx.endpoint.counts();
    let spans = tracer.spans();
    let names = by_name(&spans);
    let (answered, correct) = judge(&fx.scene.groups, &results);
    out.attempted = ops;
    out.failed = ops - answered;
    out.gate(answer_digest(&results) == fx.reference, || {
        "traced pass: answers differ from the serial reference".to_string()
    });
    out.set_cost(counts, ops, answered);
    out.set_trace_shares(&spans, ops, traced_s, reference_s);
    out.set_run_metrics(&names, &model.counts(), ops);
    out.set("exec.cache.hit_rate.cold_pass", cache.stats().hit_rate());
    // A class span with an `endpoint` child is a miss: its self time is
    // canonicalize + probe + insert, with the endpoint's time taken out.
    let selfs = crate::trace::self_times_ns(&spans);
    let (mut miss_self_ns, mut misses) = (0u64, 0u64);
    for span in spans.iter().filter(|s| s.name == "endpoint") {
        miss_self_ns += selfs[span.parent as usize];
        misses += 1;
    }
    out.set(
        "exec.cache.miss_insert_self_ns",
        miss_self_ns as f64 / misses.max(1) as f64,
    );
    out.keep_spans(ctx.dir, "spans-tasks.tsv", &spans);
    out.notes.push(format!(
        "mix_batch traced: {ops} tasks, {answered} answered, {correct} correct, traced pass \
         {traced_s:.4}s vs untraced p10 {reference_s:.4}s (serial loop p10 {serial_s:.4}s)"
    ));

    // Traced pass B: the table-backed kinds step by step, cold cache again.
    let tracer = Tracer::new(true);
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let cache = fresh_cache(&boundary);
    let model = SpanModel::by_class(&cache, &tracer);
    let (mut stepped, mut kept, mut differing) = (0u64, 0u64, 0u64);
    for (g, group_results) in fx.scene.groups.iter().zip(&results) {
        for (t, whole) in g.tasks.iter().zip(group_results) {
            let Some(result) =
                steps::drive(&tracer, &model, &fx.scene.pipeline, &g.lake, t, stepped)
            else {
                break;
            };
            stepped += 1;
            match (&result, whole) {
                (Ok(s), Ok(w)) if s.answer == w.answer => kept += s.records_kept as u64,
                _ => differing += 1,
            }
        }
    }
    out.gate(differing == 0, || {
        format!("{differing} of {stepped} stepped answers differ from UniDm::run")
    });
    let spans = tracer.spans();
    out.set_step_metrics(&by_name(&spans), &model.counts(), stepped, kept);
    out.keep_spans(ctx.dir, "spans-steps.tsv", &spans);

    probe_layers(&fx, &mut out);
    out
}
