//! `lake_stream` — the out-of-core lake. Op = task.
//!
//! Imputation tasks over target rows spread uniformly across a 10^6-row
//! `UDMSEG1` segment (977 chunks against a page budget of 8, so the
//! working set is far larger than the pager), streamed through
//! `BatchRunner::run_streaming` in partitions of 256, dedup off, no cache.
//! `tablestore` (pager fault, `read_chunk` decode, `sample_rows`,
//! `cell_value`) does most of the work; the cache is bypassed, so a cache
//! or canon change must show no move here.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unidm::{BatchRunner, PipelineConfig, RunOutput, StreamReport, Task, UniDm, UniDmError};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::scale::{ScaleSpec, TABLE_NAME};
use unidm_tablestore::{DataLake, Pager, SegmentReader, Table};
use unidm_world::World;

use super::{permille, run_span_name, timed_setups, Ctx, Outcome, REFERENCE_ROUNDS};
use crate::harness::{interleave, measure, observe, probe_ns, MIN_PASSES};
use crate::replay::{Recorder, ReplayEndpoint};
use crate::steps;
use crate::trace::{by_name, SpanModel, Tracer};

/// Rows of the generated lake.
pub const ROWS: usize = 1_000_000;
/// Rows per sealed chunk.
pub const CHUNK_ROWS: usize = 1024;
/// Chunks the pager may keep resident.
pub const PAGE_BUDGET: usize = 8;
/// Tasks per pass.
pub const TASKS: usize = 768;
/// Tasks per streaming partition.
pub const PARTITION_TASKS: usize = 256;
/// Tasks of the streaming == materialised gate.
pub const PREFIX_TASKS: usize = 256;
/// Instance-retrieval sample per task: the paper's 50 is tuned for
/// hundred-row tables; against 10^6 rows it would only multiply the same
/// pager faults. Half again the page budget on purpose: retrieval draws
/// the same sample for every task of a run, so a task touches the
/// sample's chunks plus its own in a fixed cycle, and the pager faults on
/// all of them only while that cycle is longer than the budget. With a
/// sample of 8, one seed in about thirty put two sampled rows into one
/// chunk, the cycle fitted, and the same pass ran four times faster.
pub const SAMPLE_SIZE: usize = 12;

type Results = Vec<Result<RunOutput, UniDmError>>;

/// Everything a pass needs, built once per set-up.
pub struct Fixture {
    /// The lake's generator.
    pub spec: ScaleSpec,
    /// The segment file.
    pub path: PathBuf,
    /// The imputation tasks, in row order.
    pub tasks: Vec<Task>,
    /// The pipeline configuration.
    pub pipeline: PipelineConfig,
    /// The recorded endpoint, keyed by raw prompts (no cache here).
    pub endpoint: ReplayEndpoint,
    /// The serial reference run's answer (or error text) per task. The
    /// generator never stores the cell it blanks, so the lake has no
    /// ground truth to judge against: an answer is right when it is the
    /// one the serial, materialised pipeline gives.
    pub reference: Vec<Result<String, String>>,
    /// Seconds `users_segment` took to generate and write the segment.
    pub ingest_s: f64,
}

fn answer(result: &Result<RunOutput, UniDmError>) -> Result<String, String> {
    match result {
        Ok(output) => Ok(output.answer.clone()),
        Err(e) => Err(e.to_string()),
    }
}

/// A cold view of the segment: nothing paged in.
pub fn open_lake(path: &Path) -> DataLake {
    let table = Table::open_segment(path, PAGE_BUDGET).expect("the segment set-up wrote reopens");
    [table].into_iter().collect()
}

/// Segment file + tasks + the recording run (a serial `UniDm::run` loop
/// over the spilled table against `MockLlm`).
pub fn setup(seed: u64, dir: &Path) -> Fixture {
    let spec = ScaleSpec::new(ROWS, seed).with_chunk_rows(CHUNK_ROWS);
    let path = dir.join("lake.udmseg");
    let ingest = Instant::now();
    let table = spec
        .users_segment(&path, PAGE_BUDGET)
        .expect("segment written into the run directory");
    let ingest_s = ingest.elapsed().as_secs_f64();
    let lake: DataLake = [table].into_iter().collect();

    let targets = spec.target_rows().count();
    let stride = (targets / TASKS).max(1);
    let tasks: Vec<Task> = spec
        .target_rows()
        .step_by(stride)
        .take(TASKS)
        .map(|row| Task::imputation(TABLE_NAME, row, "city", "name"))
        .collect();
    assert_eq!(
        tasks.len(),
        TASKS,
        "10^6 rows hold enough imputation targets"
    );

    let world = World::generate(seed);
    let mock = MockLlm::new(&world, LlmProfile::gpt3_175b(), seed);
    let pipeline = PipelineConfig {
        sample_size: SAMPLE_SIZE,
        ..PipelineConfig::paper_default().with_seed(seed)
    };
    let recorder = Recorder::new(&mock);
    let reference: Results = {
        let unidm = UniDm::new(&recorder, pipeline);
        tasks.iter().map(|t| unidm.run(&lake, t)).collect()
    };
    let endpoint = recorder.into_replay();
    Fixture {
        spec,
        path,
        tasks,
        pipeline,
        endpoint,
        reference: reference.iter().map(answer).collect(),
        ingest_s,
    }
}

impl Fixture {
    /// The runner every pass uses: one worker, dedup off (the memo grows
    /// with unique tasks), partitions of [`PARTITION_TASKS`].
    pub fn runner(&self) -> BatchRunner<'_> {
        BatchRunner::new(&self.endpoint, self.pipeline)
            .with_workers(1)
            .with_dedup(false)
            .with_partition_tasks(PARTITION_TASKS)
    }

    /// `(answered, equal)`: results that are answers, and results equal
    /// to the serial reference's.
    pub fn judge(&self, results: &Results) -> (u64, u64) {
        let answered = results.iter().filter(|r| r.is_ok()).count() as u64;
        let equal = results
            .iter()
            .zip(&self.reference)
            .filter(|(got, want)| answer(got) == **want)
            .count() as u64;
        (answered, equal)
    }
}

/// One pass: the task list streamed over a cold view of the segment.
pub fn pass(fx: &Fixture, lake: &DataLake, results: &mut Results) -> StreamReport {
    fx.runner()
        .run_streaming(lake, fx.tasks.iter().cloned(), |_, result| {
            results.push(result)
        })
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (fx, setups_s) = timed_setups(|| setup(ctx.seed, ctx.dir));
    let mut out = Outcome::default();
    let ops = TASKS as u64;
    let mut first_prefix: Results = Vec::new();
    let measured = measure(
        ctx.seconds,
        MIN_PASSES,
        || {
            fx.endpoint.reset();
            (open_lake(&fx.path), Vec::with_capacity(TASKS))
        },
        |(lake, mut results)| {
            let report = pass(&fx, &lake, &mut results);
            (report, results, lake)
        },
        |index, (report, results, lake)| {
            let counts = fx.endpoint.counts();
            let (answered, equal) = fx.judge(&results);
            out.gate(equal == ops, || {
                format!(
                    "pass {index}: {} answers differ from the serial reference",
                    ops - equal
                )
            });
            out.gate(counts.fallthrough == 0, || {
                format!("pass {index}: {} replay fall-throughs", counts.fallthrough)
            });
            out.gate(
                report.tasks == TASKS && report.partitions == TASKS.div_ceil(PARTITION_TASKS),
                || format!("pass {index}: stream report {report:?}"),
            );
            let resident = lake.table(TABLE_NAME).map_or(0, Table::resident_chunks);
            out.gate(resident <= PAGE_BUDGET, || {
                format!("pass {index}: {resident} chunks resident, budget {PAGE_BUDGET}")
            });
            if index == 0 {
                out.attempted = ops;
                out.failed = ops - answered;
                out.set("accuracy_permille", permille(equal, ops));
                out.notes.push(format!(
                    "lake_stream: {ops} tasks over {ROWS} rows ({} chunks, budget {PAGE_BUDGET}), \
                     {answered} answered, {equal} equal to the serial reference; \
                     {} endpoint calls, {} endpoint tokens; {report:?}",
                    ROWS.div_ceil(CHUNK_ROWS),
                    counts.calls,
                    counts.tokens,
                ));
                first_prefix = results.into_iter().take(PREFIX_TASKS).collect();
            }
        },
    );
    // Streaming == materialised, on a prefix, over a cold view of its own.
    let materialised = fx
        .runner()
        .run_report(&open_lake(&fx.path), &fx.tasks[..PREFIX_TASKS]);
    out.gate(materialised.results == first_prefix, || {
        format!("streamed outputs differ from run_report on the first {PREFIX_TASKS} tasks")
    });
    out.set_common(&setups_s, ops, &measured);
    out
}

/// The pass as a serial loop of `UniDm::run` calls over `lake`, one span
/// per task (none when `tracer` is off).
fn serial_pass(fx: &Fixture, lake: &DataLake, llm: &dyn LanguageModel, tracer: &Tracer) -> Results {
    let unidm = UniDm::new(llm, fx.pipeline);
    fx.tasks
        .iter()
        .enumerate()
        .map(|(op, t)| tracer.span(run_span_name(t), op as u64, || unidm.run(lake, t)))
        .collect()
}

/// Direct probes of `Table` (spilled), `SegmentReader` and `Pager`.
fn probe_tablestore(fx: &Fixture, out: &mut Outcome) {
    let bytes = std::fs::metadata(&fx.path).map_or(0, |m| m.len());
    out.set("tablestore.ingest.rows_per_s", ROWS as f64 / fx.ingest_s);
    out.set(
        "tablestore.segment_bytes_per_row",
        bytes as f64 / ROWS as f64,
    );
    let open_ns = probe_ns(1, 1000, |_| {
        black_box(Table::open_segment(&fx.path, PAGE_BUDGET).is_ok());
    });
    out.set("tablestore.open_segment.ms", open_ns / 1e6);

    let mut rng = StdRng::seed_from_u64(fx.spec.seed ^ 0x7ab1e);
    let reader = SegmentReader::open(&fx.path).expect("segment reopens");
    let chunks = reader.chunk_count();
    out.set(
        "tablestore.read_chunk.us",
        probe_ns(1, 1000, |_| {
            black_box(reader.read_chunk(rng.gen_range(0..chunks)).is_ok());
        }) / 1e3,
    );
    let pager = Pager::new(reader, PAGE_BUDGET);
    pager.chunk(0).expect("chunk 0 pages in");
    out.set(
        "tablestore.pager.hit_ns",
        probe_ns(3, 20_000, |_| {
            black_box(pager.chunk(0).is_ok());
        }),
    );

    // Uniformly random rows: nearly every access faults a chunk in.
    let lake = open_lake(&fx.path);
    let table = lake.table(TABLE_NAME).expect("lake holds the scale table");
    out.set(
        "tablestore.sample_rows.paged_us",
        probe_ns(1, 2000, |i| {
            black_box(table.sample_rows(&mut rng, SAMPLE_SIZE, &[i]));
        }) / 1e3,
    );
    out.set(
        "tablestore.cell_value.paged_us",
        probe_ns(1, 1000, |_| {
            black_box(table.cell_value(rng.gen_range(0..ROWS), "city").is_ok());
        }) / 1e3,
    );
    out.set(
        "tablestore.row_at.paged_us",
        probe_ns(1, 1000, |_| {
            black_box(table.row_at(rng.gen_range(0..ROWS)).is_ok());
        }) / 1e3,
    );
    // `name` is high-cardinality text: no chunk can be pruned by its
    // stats, so this is one decode of every chunk.
    let needle = fx.spec.row(ROWS / 2)[1].clone();
    let start = Instant::now();
    let found = table.find("name", &needle).map_or(0, |rows| rows.len());
    out.set(
        "tablestore.find.paged_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    out.gate(found >= 1, || {
        "find(name) lost the row it was given".to_string()
    });
}

/// The traced run: layer metrics.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let fx = setup(ctx.seed, ctx.dir);
    let mut out = Outcome::default();
    let ops = TASKS as u64;
    let off = Tracer::new(false);

    // Untraced references, interleaved: the streaming pass, and the same
    // tasks as a bare serial loop (their difference is the streaming
    // runner).
    let mut partitions = 0usize;
    let mut allocs = 0u64;
    let mut streaming = || {
        let lake = open_lake(&fx.path);
        let mut results = Vec::with_capacity(TASKS);
        let (report, wall, _, _) = observe(|| pass(&fx, &lake, &mut results));
        partitions = report.partitions;
        wall
    };
    let mut serial = || {
        let lake = open_lake(&fx.path);
        let (_, wall, _, reading) = observe(|| serial_pass(&fx, &lake, &fx.endpoint, &off));
        allocs = reading.allocs;
        wall
    };
    let walls = interleave(
        ctx.seconds / 3.0,
        REFERENCE_ROUNDS,
        &mut [&mut streaming, &mut serial],
    );
    let (reference_s, serial_s) = (walls[0], walls[1]);
    out.set("exec.stream.partitions", partitions as f64);
    out.set(
        "exec.stream.overhead_us_per_task",
        (reference_s - serial_s) * 1e6 / ops as f64,
    );
    out.set(
        "pipeline.allocs_per_task.imputation",
        allocs as f64 / ops as f64,
    );

    // Traced pass A: one span per task over a cold view of the segment.
    let tracer = Tracer::new(true);
    fx.endpoint.reset();
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let model = SpanModel::by_class(&boundary, &tracer);
    let lake = open_lake(&fx.path);
    let (results, traced_s, _, _) = observe(|| serial_pass(&fx, &lake, &model, &tracer));
    let counts = fx.endpoint.counts();
    let spans = tracer.spans();
    let (answered, equal) = fx.judge(&results);
    out.attempted = ops;
    out.failed = ops - answered;
    out.gate(equal == ops, || {
        format!(
            "traced pass: {} answers differ from the serial reference",
            ops - equal
        )
    });
    out.set_cost(counts, ops, answered);
    out.set_trace_shares(&spans, ops, traced_s, reference_s);
    out.set_run_metrics(&by_name(&spans), &model.counts(), ops);
    let resident = lake.table(TABLE_NAME).map_or(0, Table::resident_chunks);
    out.set("tablestore.peak_resident_chunks", resident as f64);
    out.keep_spans(ctx.dir, "spans-tasks.tsv", &spans);
    out.notes.push(format!(
        "lake_stream traced: {ops} tasks, {answered} answered, traced pass \
         {traced_s:.4}s vs untraced p10 {reference_s:.4}s (serial loop p10 {serial_s:.4}s)"
    ));

    // Traced pass B: the same tasks step by step, cold view again.
    let tracer = Tracer::new(true);
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let model = SpanModel::by_class(&boundary, &tracer);
    let lake = open_lake(&fx.path);
    let (mut kept, mut differing) = (0u64, 0u64);
    for (op, (t, whole)) in fx.tasks.iter().zip(&results).enumerate() {
        let stepped = steps::drive(&tracer, &model, &fx.pipeline, &lake, t, op as u64)
            .expect("imputation tasks run all five steps");
        match (&stepped, whole) {
            (Ok(s), Ok(w)) if s.answer == w.answer => kept += s.records_kept as u64,
            _ => differing += 1,
        }
    }
    out.gate(differing == 0, || {
        format!("{differing} of {ops} stepped answers differ from UniDm::run")
    });
    let spans = tracer.spans();
    out.set_step_metrics(&by_name(&spans), &model.counts(), ops, kept);
    out.keep_spans(ctx.dir, "spans-steps.tsv", &spans);

    probe_tablestore(&fx, &mut out);
    out
}
