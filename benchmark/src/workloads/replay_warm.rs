//! `replay_warm` — the cache's read side. Op = one `PromptCache::complete`.
//!
//! The *raw* model-boundary prompt sequence captured while the task mix
//! runs (natural repetition and ordering) is replayed several times per
//! pass into a `CanonLevel::Semantic`, 8-shard, unbounded cache warmed in
//! set-up: 100 % hits. `canon` and the tier-0 read path do all the work
//! and the pipeline is bypassed; it reads the cache `mix_batch` writes.
//! Zero endpoint calls is a correctness gate here, not a metric, and
//! `accuracy_permille` is the Semantic replay drift: completions equal to
//! what the model returns for the raw prompt directly.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

use unidm::{CanonLevel, CanonicalPrompt, PromptCache};
use unidm_bench::alloc_counter::AllocationDelta;
use unidm_llm::{Completion, LanguageModel, LlmError};

use super::mix_batch::fresh_cache;
use super::{permille, timed_setups, Ctx, Outcome, Scene, MIX_QUERIES, REFERENCE_PASSES};
use crate::gen::SCENARIOS;
use crate::harness::{measure, observe, probe_ns, MIN_PASSES};
use crate::replay::{Recorder, ReplayEndpoint};
use crate::trace::{SpanModel, Tracer};

/// Times the captured sequence is replayed per pass.
pub const REPEATS: usize = 24;
/// Shards of the measured cache.
pub const SHARDS: usize = 8;

/// The raw prompts crossing the model boundary, in order: distinct texts
/// once, the sequence as indices into them.
#[derive(Debug, Default)]
pub struct RawSequence {
    /// Distinct prompts in first-seen order.
    pub unique: Vec<String>,
    /// The call sequence, as indices into `unique`.
    pub sequence: Vec<u32>,
}

/// A pass-through that captures the prompt sequence it forwards.
struct RawCapture<'a> {
    inner: &'a dyn LanguageModel,
    seen: Mutex<(HashMap<String, u32>, RawSequence)>,
}

impl LanguageModel for RawCapture<'_> {
    crate::replay::forward_to_inner!();

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        {
            let mut guard = self.seen.lock().expect("capture lock poisoned");
            let (index_of, raw) = &mut *guard;
            let index = match index_of.get(prompt) {
                Some(&index) => index,
                None => {
                    let index = raw.unique.len() as u32;
                    index_of.insert(prompt.to_string(), index);
                    raw.unique.push(prompt.to_string());
                    index
                }
            };
            raw.sequence.push(index);
        }
        self.inner.complete(prompt)
    }
}

/// Everything a pass needs, built once per set-up.
pub struct Fixture {
    /// The captured prompt sequence.
    pub raw: RawSequence,
    /// `direct[i]`: what the model answers `raw.unique[i]` asked directly.
    pub direct: Vec<Result<Arc<Completion>, LlmError>>,
    /// The recorded endpoint, keyed by Semantic-canonical prompts.
    pub endpoint: ReplayEndpoint,
}

/// The cache under measurement: Semantic, [`SHARDS`] shards, unbounded.
pub fn semantic_cache(inner: &dyn LanguageModel) -> PromptCache<'_> {
    PromptCache::unbounded(inner)
        .with_shards(SHARDS)
        .with_canonicalization(CanonLevel::Semantic)
}

/// Completes the captured sequence once, in order.
pub fn sweep(cache: &PromptCache<'_>, raw: &RawSequence) {
    for &i in &raw.sequence {
        let _ = black_box(cache.complete(&raw.unique[i as usize]));
    }
}

/// Task mix + capture run + direct completions + the recording warm-up.
pub fn setup(seed: u64) -> Fixture {
    let scene = Scene::build(seed, 1, SCENARIOS.len(), &MIX_QUERIES);
    let mut capture = {
        let cache = fresh_cache(&scene.mock);
        let capture = RawCapture {
            inner: &cache,
            seen: Mutex::new((HashMap::new(), RawSequence::default())),
        };
        scene.run_serial(&capture);
        capture.seen.into_inner().expect("capture lock poisoned").1
    };
    let direct: Vec<_> = capture
        .unique
        .iter()
        .map(|p| scene.mock.complete(p))
        .collect();
    // Errors are never memoized, so a prompt the model refuses could not
    // be a warm hit; the sequence keeps only prompts it answers.
    capture.sequence.retain(|&i| direct[i as usize].is_ok());
    let recorder = Recorder::new(&scene.mock);
    sweep(&semantic_cache(&recorder), &capture);
    Fixture {
        raw: capture,
        direct,
        endpoint: recorder.into_replay(),
    }
}

/// A cache over the replay endpoint, warmed with one sweep.
pub fn warm_cache(fx: &Fixture) -> PromptCache<'_> {
    let cache = semantic_cache(&fx.endpoint);
    sweep(&cache, &fx.raw);
    cache
}

/// `(answered, equal)` over one sweep: completions equal to the direct
/// ones, by text.
pub fn drift(fx: &Fixture, cache: &PromptCache<'_>) -> (u64, u64) {
    let (mut answered, mut equal) = (0u64, 0u64);
    for &i in &fx.raw.sequence {
        let got = cache.complete(&fx.raw.unique[i as usize]);
        if let Ok(got) = &got {
            answered += 1;
            let same = matches!(&fx.direct[i as usize], Ok(want) if want.text == got.text);
            equal += u64::from(same);
        }
    }
    (answered, equal)
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (fx, setups_s) = timed_setups(|| {
        let fx = setup(ctx.seed);
        // Warming is set-up work; the cache itself borrows the fixture,
        // so the one the passes use is warmed again below.
        drop(warm_cache(&fx));
        fx
    });
    let cache = warm_cache(&fx);
    let mut out = Outcome::default();
    let ops = (REPEATS * fx.raw.sequence.len()) as u64;
    let measured = measure(
        ctx.seconds,
        MIN_PASSES,
        || {
            fx.endpoint.reset();
            cache.stats()
        },
        |before| {
            for _ in 0..REPEATS {
                sweep(&cache, &fx.raw);
            }
            before
        },
        |index, before| {
            let after = cache.stats();
            let counts = fx.endpoint.counts();
            out.gate(
                (after.hits - before.hits) as u64 == ops && after.misses == before.misses,
                || format!("pass {index}: not every lookup hit: {before:?} -> {after:?}"),
            );
            out.gate(counts.calls == 0, || {
                format!(
                    "pass {index}: {} endpoint calls on a warm cache",
                    counts.calls
                )
            });
        },
    );
    let per_sweep = fx.raw.sequence.len() as u64;
    let (answered, equal) = drift(&fx, &cache);
    out.attempted = ops;
    out.failed = (per_sweep - answered) * REPEATS as u64;
    out.set("accuracy_permille", permille(equal, per_sweep));
    out.notes.push(format!(
        "replay_warm: {ops} lookups per pass ({REPEATS} x {per_sweep}, {} distinct prompts, \
         {} canonical keys, mean {} prompt bytes); {equal}/{answered} equal to direct completions",
        fx.raw.unique.len(),
        cache.len(),
        fx.raw
            .sequence
            .iter()
            .map(|&i| fx.raw.unique[i as usize].len())
            .sum::<usize>()
            / fx.raw.sequence.len().max(1),
    ));
    out.set_common(&setups_s, ops, &measured);
    out
}

/// Direct probes of `CanonicalPrompt::canonicalize` over the distinct raw
/// prompts, and of the tier-0 hit path over canonical and folded ones.
fn probe_layers(fx: &Fixture, cache: &PromptCache<'_>, out: &mut Outcome) {
    let prompts = &fx.raw.unique;
    let calls = prompts.len().max(1000);
    for (metric, level) in [
        ("canon.ns_per_prompt.whitespace", CanonLevel::Whitespace),
        ("canon.ns_per_prompt.tablestem", CanonLevel::TableStem),
        ("canon.ns_per_prompt.semantic", CanonLevel::Semantic),
    ] {
        let ns = probe_ns(3, calls, |i| {
            black_box(CanonicalPrompt::canonicalize(&prompts[i % prompts.len()], level).hash64());
        });
        out.set(metric, ns);
    }
    // Shares over the call sequence, so repeated prompts weigh as often
    // as the workload sends them.
    let (mut borrowed, mut folded, mut bytes) = (0u64, 0u64, 0u64);
    let mut folding: Vec<&str> = Vec::new();
    for &i in &fx.raw.sequence {
        let prompt = &prompts[i as usize];
        let canonical = CanonicalPrompt::canonicalize(prompt, CanonLevel::Semantic);
        borrowed += u64::from(canonical.is_borrowed());
        if canonical.replay().is_some() {
            folded += 1;
            folding.push(prompt);
        }
        bytes += prompt.len() as u64;
    }
    let sent = fx.raw.sequence.len().max(1) as f64;
    out.set("canon.borrowed_share", borrowed as f64 / sent);
    out.set("canon.fold_share.semantic", folded as f64 / sent);
    out.set("canon.bytes_per_prompt", bytes as f64 / sent);

    // Already-canonical prompts: the borrowed fast path, budgeted at zero
    // allocations.
    let canonical = cache.canonical_prompts();
    let calls = canonical.len().max(1000);
    out.set(
        "exec.cache.hit_ns",
        probe_ns(3, calls, |i| {
            let _ = black_box(cache.complete(&canonical[i % canonical.len()]));
        }),
    );
    let section = AllocationDelta::start();
    for prompt in &canonical {
        let _ = black_box(cache.complete(prompt));
    }
    out.set(
        "exec.cache.hit_allocs",
        section.allocations() as f64 / canonical.len().max(1) as f64,
    );
    if !folding.is_empty() {
        out.set(
            "exec.cache.replay_fold_ns",
            probe_ns(3, folding.len().max(1000), |i| {
                let _ = black_box(cache.complete(folding[i % folding.len()]));
            }),
        );
    }
}

/// The traced run: layer metrics.
pub fn run_traced(ctx: &Ctx<'_>) -> Outcome {
    let fx = setup(ctx.seed);
    let mut out = Outcome::default();
    let ops = (REPEATS * fx.raw.sequence.len()) as u64;
    let reference = {
        let cache = warm_cache(&fx);
        measure(
            ctx.seconds / 4.0,
            REFERENCE_PASSES,
            || (),
            |()| {
                for _ in 0..REPEATS {
                    sweep(&cache, &fx.raw);
                }
            },
            |_, ()| {},
        )
    };

    // Traced pass: one span per lookup; the endpoint boundary below the
    // cache must stay silent.
    let tracer = Tracer::new(true);
    let boundary = SpanModel::named("endpoint", &fx.endpoint, &tracer);
    let cache = semantic_cache(&boundary);
    sweep(&cache, &fx.raw);
    fx.endpoint.reset();
    let before = cache.stats();
    let ((), traced_s, _, _) = observe(|| {
        let mut op = 0u64;
        for _ in 0..REPEATS {
            for &i in &fx.raw.sequence {
                op += 1;
                let _ = black_box(tracer.span("exec.cache.complete", op, || {
                    cache.complete(&fx.raw.unique[i as usize])
                }));
            }
        }
    });
    let after = cache.stats();
    let counts = fx.endpoint.counts();
    out.gate(
        (after.hits - before.hits) as u64 == ops && counts.calls == 0,
        || format!("traced pass: not every lookup hit: {before:?} -> {after:?}, {counts:?}"),
    );
    let spans = tracer.spans();
    let (answered, equal) = drift(&fx, &cache);
    out.attempted = ops;
    out.failed = (fx.raw.sequence.len() as u64 - answered) * REPEATS as u64;
    out.set("endpoint.replay_fallthrough", counts.fallthrough as f64);
    out.set_trace_shares(&spans, ops, traced_s, reference.fast_wall());
    out.keep_spans(ctx.dir, "spans-lookups.tsv", &spans);
    out.notes.push(format!(
        "replay_warm traced: {ops} lookups, {equal}/{answered} of a sweep equal to direct completions, \
         traced pass {traced_s:.4}s vs untraced p10 {:.4}s",
        reference.fast_wall(),
    ));
    probe_layers(&fx, &cache, &mut out);
    out
}
