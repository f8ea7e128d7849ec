//! The five workloads and what they share: the run context, the result
//! shape, set-up timing, and the paper-scenario scene three of them build
//! their inputs from.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use unidm::{PipelineConfig, RunOutput, UniDm, UniDmError};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_world::World;

use crate::gen::{offset_seed, scenario_group, Group, SCENARIOS};
use crate::harness::{quartiles, Digest, Measured, SETUPS_PER_RUN};
use crate::metrics::PER_LAYER;
use crate::replay::EndpointCounts;
use crate::trace::{by_name, write_spans, BoundaryCounts, NameStats, Span};

pub mod lake_stream;
pub mod mix_batch;
pub mod replay_warm;
pub mod serve_fleet;
pub mod store_churn;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// The per-run scratch directory under `benchmark/out/`.
    pub dir: &'a Path,
}

/// What one invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the first measured pass.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Correctness gates that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The five timing/allocator metrics every workload derives the same
    /// way from its measuring loop.
    pub fn set_common(&mut self, setups_s: &[f64], ops: u64, measured: &Measured) {
        let ops = ops as f64;
        self.set("setup_s", quartiles(setups_s)[1]);
        self.notes.push(format!("set-ups s: {setups_s:.4?}"));
        self.set("ops_per_s", ops / measured.fast_wall());
        self.set("cpu_us_per_op", measured.fast_cpu() * 1e6 / ops);
        let counts = measured.counts();
        self.set("peak_live_bytes", counts.peak_live_bytes as f64);
        self.set("allocs_per_op", counts.allocs as f64 / ops);
        self.notes.extend(measured.describe());
    }

    /// A traced run reports every layer metric: the ones this workload's
    /// layers do not produce read 0.
    pub fn fill_unhosted_layers(&mut self) {
        for m in PER_LAYER {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }
}

/// Runs `setup` [`SETUPS_PER_RUN`] times, dropping each fixture before
/// the next is built, and returns the last fixture with every set-up's
/// seconds; `setup_s` is their median.
pub fn timed_setups<F>(mut setup: impl FnMut() -> F) -> (F, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS_PER_RUN);
    let mut fixture = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (fixture.expect("at least one set-up"), times)
}

/// Seed offsets the task mix draws every scenario at.
pub const MIX_OFFSETS: usize = 2;

/// Tasks kept per scenario and seed offset, index-aligned with
/// [`SCENARIOS`]. Constants, never calibrated at run time: a pass is the
/// same work on every machine and commit.
pub const MIX_QUERIES: [usize; 11] = [100, 100, 100, 90, 100, 100, 100, 100, 100, 100, 60];

/// The world, the stand-in model and the paper-scenario task groups that
/// `mix_batch`, `replay_warm` and `serve_fleet` build on.
pub struct Scene {
    /// The synthetic world at `--seed`.
    pub world: World,
    /// The GPT-3-class stand-in, only ever called while recording.
    pub mock: MockLlm,
    /// Task groups, scenario-major within each seed offset.
    pub groups: Vec<Group>,
    /// The paper-default pipeline at `--seed`.
    pub pipeline: PipelineConfig,
}

impl Scene {
    /// Builds `offsets` seed offsets of every scenario in `scenarios`,
    /// `queries[i]` tasks each.
    pub fn build(seed: u64, offsets: usize, scenarios: usize, queries: &[usize]) -> Scene {
        let world = World::generate(seed);
        let mock = MockLlm::new(&world, LlmProfile::gpt3_175b(), seed);
        let mut groups = Vec::with_capacity(offsets * scenarios);
        for offset in 0..offsets {
            for (index, &kept) in queries.iter().enumerate().take(scenarios) {
                groups.push(scenario_group(
                    &world,
                    offset_seed(seed, offset),
                    index,
                    kept,
                ));
            }
        }
        Scene {
            world,
            mock,
            groups,
            pipeline: PipelineConfig::paper_default().with_seed(seed),
        }
    }

    /// The full task mix.
    pub fn mix(seed: u64) -> Scene {
        Scene::build(seed, MIX_OFFSETS, SCENARIOS.len(), &MIX_QUERIES)
    }

    /// Tasks across all groups.
    pub fn tasks(&self) -> usize {
        self.groups.iter().map(|g| g.tasks.len()).sum()
    }

    /// The reference: a serial [`UniDm::run`] loop over every group in
    /// order, against `llm`.
    pub fn run_serial(&self, llm: &dyn LanguageModel) -> Vec<Vec<Result<RunOutput, UniDmError>>> {
        let unidm = UniDm::new(llm, self.pipeline);
        self.groups
            .iter()
            .map(|g| g.tasks.iter().map(|t| unidm.run(&g.lake, t)).collect())
            .collect()
    }
}

/// Digest of the answers (or error texts) of per-group results, in order.
pub fn answer_digest(results: &[Vec<Result<RunOutput, UniDmError>>]) -> Digest {
    let mut digest = Digest::default();
    for result in results.iter().flatten() {
        match result {
            Ok(output) => digest.push(output.answer.as_bytes()),
            Err(e) => digest.push(format!("error: {e}").as_bytes()),
        }
    }
    digest
}

/// `(answered, correct)` over per-group results judged against the
/// groups' ground truth.
pub fn judge(groups: &[Group], results: &[Vec<Result<RunOutput, UniDmError>>]) -> (u64, u64) {
    let (mut answered, mut correct) = (0u64, 0u64);
    for (group, group_results) in groups.iter().zip(results) {
        for (truth, result) in group.truths.iter().zip(group_results) {
            if let Ok(output) = result {
                answered += 1;
                correct += u64::from(truth.holds(&output.answer));
            }
        }
    }
    (answered, correct)
}

/// `part` per thousand of `whole`, as measured (not rounded).
pub fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

/// Untraced passes a traced run takes at least as its reference.
pub const REFERENCE_PASSES: usize = 6;

/// Rounds of interleaved untraced passes a traced run takes at least.
pub const REFERENCE_ROUNDS: usize = 4;

/// Per task kind: the span one `UniDm::run` is recorded under, and the
/// metrics its duration quantiles feed.
const RUN_KINDS: [(&str, &str, Option<&str>); 7] = [
    (
        "pipeline.run.imputation",
        "pipeline.run.p50_us.imputation",
        Some("pipeline.run.p99_us.imputation"),
    ),
    (
        "pipeline.run.transformation",
        "pipeline.run.p50_us.transformation",
        None,
    ),
    ("pipeline.run.errors", "pipeline.run.p50_us.errors", None),
    (
        "pipeline.run.matching",
        "pipeline.run.p50_us.matching",
        Some("pipeline.run.p99_us.matching"),
    ),
    ("pipeline.run.tableqa", "pipeline.run.p50_us.tableqa", None),
    ("pipeline.run.joins", "pipeline.run.p50_us.joins", None),
    (
        "pipeline.run.extraction",
        "pipeline.run.p50_us.extraction",
        None,
    ),
];

/// Prompt classes of the model boundary, with the metric each one's
/// tokens feed.
const TOKEN_CLASSES: [(&str, &str); 5] = [
    ("p_rm", "pipeline.tokens_per_task.p_rm"),
    ("p_ri", "pipeline.tokens_per_task.p_ri"),
    ("p_dp", "pipeline.tokens_per_task.p_dp"),
    ("p_cq", "pipeline.tokens_per_task.p_cq"),
    ("p_as", "pipeline.tokens_per_task.p_as"),
];

/// Span name of one `UniDm::run`, by task kind.
pub fn run_span_name(task: &unidm::Task) -> &'static str {
    use unidm::Task;
    let kind = match task {
        Task::Imputation { .. } => 0,
        Task::Transformation { .. } => 1,
        Task::ErrorDetection { .. } => 2,
        Task::EntityResolution { .. } => 3,
        Task::TableQa { .. } => 4,
        Task::JoinDiscovery { .. } => 5,
        Task::Extraction { .. } => 6,
    };
    RUN_KINDS[kind].0
}

impl Outcome {
    /// `cost.endpoint_calls_per_op` and `cost.tokens_per_answer` from what
    /// reached the endpoint during one pass, plus the fall-through count.
    pub fn set_cost(&mut self, counts: EndpointCounts, ops: u64, answered: u64) {
        self.set(
            "cost.endpoint_calls_per_op",
            counts.calls as f64 / ops as f64,
        );
        self.set(
            "cost.tokens_per_answer",
            counts.tokens as f64 / answered.max(1) as f64,
        );
        self.set("endpoint.replay_fallthrough", counts.fallthrough as f64);
        self.gate(counts.fallthrough == 0, || {
            format!("traced pass: {} replay fall-throughs", counts.fallthrough)
        });
    }

    /// The tracer's own two metrics and the endpoint's share of the pass:
    /// `traced_s` is the traced pass's wall time, `reference_s` the
    /// untraced first-decile pass.
    pub fn set_trace_shares(&mut self, spans: &[Span], ops: u64, traced_s: f64, reference_s: f64) {
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent == crate::trace::ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.set("trace.overhead_share", traced_s / reference_s - 1.0);
        // Self times of a span forest add up to its roots' durations.
        self.set("trace.accounted_share", roots as f64 * 1e-9 / traced_s);
        let endpoint_ns: u64 = by_name(spans)
            .get("endpoint")
            .map_or(0, |e| e.durations_ns.iter().sum());
        self.set(
            "endpoint.busy_us_per_op",
            endpoint_ns as f64 / 1e3 / ops as f64,
        );
    }

    /// `pipeline.run.*` quantiles and the per-prompt-class token split of
    /// a pass whose tasks ran under [`run_span_name`] spans.
    pub fn set_run_metrics(
        &mut self,
        names: &BTreeMap<&'static str, NameStats>,
        boundary: &BTreeMap<&'static str, BoundaryCounts>,
        tasks: u64,
    ) {
        for (span, p50, p99) in RUN_KINDS {
            if let Some(stats) = names.get(span) {
                self.set(p50, stats.quantile_us(500));
                if let Some(p99) = p99 {
                    self.set(p99, stats.quantile_us(990));
                }
            }
        }
        for (class, metric) in TOKEN_CLASSES {
            let tokens = boundary.get(class).map_or(0, BoundaryCounts::tokens);
            self.set(metric, tokens as f64 / tasks as f64);
        }
    }

    /// Step self times and retrieval ratios of a pass driven through
    /// [`crate::steps::drive`].
    pub fn set_step_metrics(
        &mut self,
        names: &BTreeMap<&'static str, NameStats>,
        boundary: &BTreeMap<&'static str, BoundaryCounts>,
        stepped: u64,
        records_kept: u64,
    ) {
        for (metric, span) in [
            (
                "retrieval.meta_wise.self_us_per_task",
                "retrieval.meta_wise",
            ),
            (
                "retrieval.instance_wise.self_us_per_task",
                "retrieval.instance_wise",
            ),
            (
                "parsing.parse_context.self_us_per_task",
                "parsing.parse_context",
            ),
            (
                "prompting.build_target_prompt.self_us_per_task",
                "prompting.build_target_prompt",
            ),
            ("prompting.answer.self_us_per_task", "prompting.answer"),
        ] {
            let self_ns = names.get(span).map_or(0, |s| s.self_ns);
            self.set(metric, self_ns as f64 / 1e3 / stepped as f64);
        }
        if let Some(stats) = names.get("retrieval.instance_wise") {
            self.set("retrieval.instance_wise.p99_us", stats.quantile_us(990));
        }
        let p_ri = boundary.get("p_ri").copied().unwrap_or_default();
        self.set(
            "retrieval.rows_examined_per_record_kept",
            p_ri.instances as f64 / records_kept.max(1) as f64,
        );
        self.set(
            "retrieval.p_ri.prompt_tokens_per_task",
            p_ri.prompt_tokens as f64 / stepped as f64,
        );
    }

    /// Writes `spans` to `file` in the run directory and notes where.
    pub fn keep_spans(&mut self, dir: &Path, file: &str, spans: &[Span]) {
        let path = dir.join(file);
        match write_spans(&path, spans) {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self
                .problems
                .push(format!("span file {}: {e}", path.display())),
        }
    }
}
