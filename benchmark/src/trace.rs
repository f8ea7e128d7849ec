//! Spans recorded from the benchmark's side of the program's public
//! calls: name, start, end, parent, op id.
//!
//! Spans stay in memory while the traced pass runs and are written out
//! once at the end. A span's *self time* is its duration minus the part of
//! that interval its children cover — children may overlap each other, so
//! their cover is the union of their intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use unidm_llm::{Completion, LanguageModel, LlmError};

/// "No parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span sits on (`"retrieval.meta_wise"`, `"p_ri"`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The operation (task, request) the span belongs to.
    pub op: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// An in-memory span recorder. Disabled tracers record nothing and cost
/// one branch per call, so the same driving code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`; the span's
    /// parent is whichever span is open on entry.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.lock().expect("tracer lock poisoned");
            let index = inner.spans.len() as u32;
            let parent = inner.open.last().copied().unwrap_or(ROOT);
            inner.open.push(index);
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            index
        };
        // Clock reads sit innermost, so the tracer's own bookkeeping lands
        // in the parent's self time, not in this span's.
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        let span = &mut inner.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// The operation id of the innermost open span (0 outside any span).
    fn current_op(&self) -> u64 {
        let inner = self.inner.lock().expect("tracer lock poisoned");
        inner
            .open
            .last()
            .map(|&i| inner.spans[i as usize].op)
            .unwrap_or(0)
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in kids {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregates over a span set.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Their durations, ns, unsorted.
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    /// The `permille` quantile of the durations (nearest rank), in µs.
    pub fn quantile_us(&self, permille: usize) -> f64 {
        if self.durations_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.durations_ns.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() * permille)
            .div_ceil(1000)
            .clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e3
    }
}

/// Groups `spans` by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.self_ns += self_ns;
        entry.durations_ns.push(span.end_ns - span.start_ns);
    }
    out
}

/// Writes `spans` as tab-separated text: one header line, then
/// `index name op parent start_ns end_ns self_ns` per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = if span.parent == ROOT {
            "-".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
            span.name, span.op, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// Which pipeline prompt a model-boundary call carries, by the fixed
/// phrases of the protocol's templates.
pub fn classify_prompt(prompt: &str) -> &'static str {
    if prompt.starts_with("Write the claim as a cloze question.") {
        "p_cq"
    } else if prompt.starts_with("Given the data, convert the items") {
        "p_dp"
    } else if prompt.ends_with("Which attributes are helpful for the task and the query?") {
        "p_rm"
    } else if prompt
        .lines()
        .next()
        .is_some_and(|first| first.contains("Score the relevance"))
    {
        "p_ri"
    } else {
        "p_as"
    }
}

/// What one span name moved through a model boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCounts {
    /// Calls under this name that completed.
    pub calls: u64,
    /// Their prompt tokens.
    pub prompt_tokens: u64,
    /// Their completion tokens.
    pub completion_tokens: u64,
    /// Numbered instances listed in their prompts (`p_ri` only): the rows
    /// instance-wise retrieval examined.
    pub instances: u64,
}

impl BoundaryCounts {
    /// Prompt plus completion tokens.
    pub fn tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// A wrapper at a model boundary: every call becomes a child span — named
/// after its prompt class above the cache, `"endpoint"` below it — and
/// the tokens it moved are counted where the call happens.
pub struct SpanModel<'a> {
    inner: &'a dyn LanguageModel,
    tracer: &'a Tracer,
    fixed_name: Option<&'static str>,
    counts: Mutex<BTreeMap<&'static str, BoundaryCounts>>,
}

impl<'a> SpanModel<'a> {
    /// Spans named `p_rm` / `p_ri` / `p_dp` / `p_cq` / `p_as` by prompt
    /// class: the boundary between the pipeline and whatever serves it.
    pub fn by_class(inner: &'a dyn LanguageModel, tracer: &'a Tracer) -> Self {
        SpanModel {
            inner,
            tracer,
            fixed_name: None,
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Spans all named `name`: the boundary in front of the endpoint.
    pub fn named(name: &'static str, inner: &'a dyn LanguageModel, tracer: &'a Tracer) -> Self {
        SpanModel {
            fixed_name: Some(name),
            ..SpanModel::by_class(inner, tracer)
        }
    }

    /// Counts per span name seen so far.
    pub fn counts(&self) -> BTreeMap<&'static str, BoundaryCounts> {
        self.counts
            .lock()
            .expect("span model lock poisoned")
            .clone()
    }
}

impl LanguageModel for SpanModel<'_> {
    crate::replay::forward_to_inner!();

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        let name = self.fixed_name.unwrap_or_else(|| classify_prompt(prompt));
        let op = self.tracer.current_op();
        let result = self.tracer.span(name, op, || self.inner.complete(prompt));
        if let Ok(completion) = &result {
            let mut counts = self.counts.lock().expect("span model lock poisoned");
            let entry = counts.entry(name).or_default();
            entry.calls += 1;
            entry.prompt_tokens += completion.usage.prompt_tokens as u64;
            entry.completion_tokens += completion.usage.completion_tokens as u64;
            if name == "p_ri" {
                entry.instances += prompt.lines().count().saturating_sub(1) as u64;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::Usage;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,30); root also > c [70,90)
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 60, 0),
            span("b", 20, 30, 1),
            span("c", 70, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times of a tree add up to the root");
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Children [10,50) and [30,70) overlap on [30,50): cover is 60,
        // not 80. A third child sticks out past the parent and is clipped.
        let spans = [
            span("root", 0, 100, ROOT),
            span("x", 10, 50, 0),
            span("y", 30, 70, 0),
            span("z", 90, 130, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
        // A child wholly inside an earlier sibling adds nothing.
        let spans = [
            span("root", 0, 100, ROOT),
            span("x", 10, 80, 0),
            span("y", 20, 30, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let tracer = Tracer::new(true);
        let out = tracer.span("outer", 7, || {
            tracer.span("inner", 7, || 1) + tracer.span("inner", 7, || 2)
        });
        assert_eq!(out, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let stats = by_name(&spans);
        assert_eq!(stats["inner"].count, 2);
        assert_eq!(stats["outer"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, || 5), 5);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn prompt_classes_follow_the_protocol_templates() {
        use unidm_llm::protocol::{
            render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
        };
        let rec = SerializedRecord::new(vec![("city".into(), "Florence".into())]);
        assert_eq!(
            classify_prompt(&render_prm(TaskKind::Imputation, "q", &["a".into()])),
            "p_rm"
        );
        assert_eq!(
            classify_prompt(&render_pri(
                TaskKind::Imputation,
                "q",
                std::slice::from_ref(&rec)
            )),
            "p_ri"
        );
        assert_eq!(classify_prompt(&render_pdp(&[rec])), "p_dp");
        let claim = Claim {
            task: TaskKind::Imputation,
            context: "c".into(),
            query: "q".into(),
        };
        assert_eq!(classify_prompt(&render_pcq(&claim)), "p_cq");
        assert_eq!(
            classify_prompt("Florence belongs to the country __."),
            "p_as"
        );
    }

    #[test]
    fn span_model_nests_boundary_spans_and_counts_tokens() {
        use unidm_llm::protocol::{render_pri, SerializedRecord, TaskKind};

        struct Fixed;
        impl LanguageModel for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn complete(&self, _prompt: &str) -> Result<Arc<Completion>, LlmError> {
                Ok(Completion::shared(
                    "1:3, 2:0".into(),
                    Usage {
                        prompt_tokens: 40,
                        completion_tokens: 6,
                    },
                ))
            }
            fn usage(&self) -> Usage {
                Usage::default()
            }
            fn reset_usage(&self) {}
        }

        let tracer = Tracer::new(true);
        let fixed = Fixed;
        let endpoint = SpanModel::named("endpoint", &fixed, &tracer);
        let model = SpanModel::by_class(&endpoint, &tracer);
        let rec = SerializedRecord::new(vec![("city".into(), "Florence".into())]);
        let prompt = render_pri(TaskKind::Imputation, "q", &[rec.clone(), rec]);
        tracer.span("task", 42, || model.complete(&prompt).unwrap());

        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["task", "p_ri", "endpoint"]);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(
            spans.iter().all(|s| s.op == 42),
            "children inherit the op id"
        );
        let p_ri = model.counts()["p_ri"];
        assert_eq!((p_ri.calls, p_ri.tokens(), p_ri.instances), (1, 46, 2));
        assert_eq!(endpoint.counts()["endpoint"].instances, 0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let stats = NameStats {
            count: 4,
            self_ns: 0,
            durations_ns: vec![4000, 1000, 3000, 2000],
        };
        assert_eq!(stats.quantile_us(500), 2.0);
        assert_eq!(stats.quantile_us(990), 4.0);
        assert_eq!(NameStats::default().quantile_us(500), 0.0);
    }
}
