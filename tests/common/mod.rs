//! Deterministic input generator for the repository's property tests.
//!
//! The offline build has no `proptest`, so the property tests sample their
//! inputs explicitly from a seeded [`StdRng`]: the same coverage style
//! (hundreds of randomized cases per invariant), fully reproducible, with
//! no shrinking. Each helper mirrors a character-class strategy the old
//! proptest version used.

// Shared between independently compiled test binaries; each binary uses
// its own subset of the helpers.
#![allow(dead_code)]

pub mod conformance;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set (the CI matrix
/// runs two), 7 otherwise.
pub fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Character pool approximating proptest's `.` (any char) strategy:
/// printable ASCII plus a few multi-byte code points to exercise UTF-8
/// handling.
pub const ANY: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \
                       .,:;'\"!?/-_()[]{}@#$%&*+=\n\téüñ日本語";

/// Seeded input generator.
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A mutable handle on the underlying RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform u64 over the full range.
    pub fn u64(&mut self) -> u64 {
        self.rng.gen_range(0..u64::MAX)
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A string of `len` chars drawn from `pool`.
    pub fn chars_from(&mut self, pool: &str, len: usize) -> String {
        let chars: Vec<char> = pool.chars().collect();
        (0..len)
            .map(|_| *chars.choose(&mut self.rng).expect("non-empty pool"))
            .collect()
    }

    /// A string of `0..=max` chars drawn from `pool`.
    pub fn string(&mut self, pool: &str, max: usize) -> String {
        let len = self.usize(0, max + 1);
        self.chars_from(pool, len)
    }

    /// Mirrors the `[a-z][a-z_]{0,10}` attribute-name strategy.
    pub fn attr(&mut self) -> String {
        let mut s = self.chars_from("abcdefghijklmnopqrstuvwxyz", 1);
        s.push_str(&self.string("abcdefghijklmnopqrstuvwxyz_", 10));
        s
    }

    /// Mirrors the filtered `[A-Za-z0-9][A-Za-z0-9 .,'/-]{0,24}` value
    /// strategy: trimmed, non-empty, free of the protocol's reserved
    /// separators.
    pub fn value(&mut self) -> String {
        const FIRST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        const REST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .,'/-";
        loop {
            let mut s = self.chars_from(FIRST, 1);
            s.push_str(&self.string(REST, 24));
            let s = s.trim().to_string();
            if !s.is_empty() && !s.contains("; ") && !s.contains(": ") && !s.contains(" and ") {
                return s;
            }
        }
    }
}

/// A random prompt in one of the recognized shapes (or an unstructured
/// one), built from protocol-safe attribute/value strings.
pub fn random_prompt(g: &mut Gen) -> String {
    use unidm_llm::protocol::{
        render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
    };
    let task = *[
        TaskKind::Imputation,
        TaskKind::ErrorDetection,
        TaskKind::TableQa,
    ]
    .get(g.usize(0, 3))
    .unwrap();
    let records = || -> Vec<SerializedRecord> {
        vec![SerializedRecord::new(vec![
            ("city".into(), "Alicante".into()),
            ("country".into(), "Spain".into()),
        ])]
    };
    match g.usize(0, 5) {
        0 => {
            let candidates = vec![g.attr(), g.attr()];
            render_prm(task, &format!("{}, {}", g.value(), g.attr()), &candidates)
        }
        1 => render_pri(task, &g.value(), &records()),
        2 => render_pdp(&records()),
        3 => render_pcq(&Claim {
            task,
            context: format!("{} belongs to the country {}.", g.value(), g.value()),
            query: format!("city: {}; country: ?", g.value()),
        }),
        _ => {
            let mut lines = Vec::new();
            for _ in 0..g.usize(1, 4) {
                lines.push(format!("{} {}", g.value(), g.value()));
            }
            lines.join("\n")
        }
    }
}

/// Mangles only *insignificant* whitespace: inflates blank runs, pads line
/// edges, and wraps the prompt in blank lines — exactly what
/// `CanonLevel::Whitespace` normalization is specified to erase.
pub fn mangle_whitespace(g: &mut Gen, prompt: &str) -> String {
    let mut out = String::new();
    for _ in 0..g.usize(0, 3) {
        out.push('\n');
    }
    for (i, line) in prompt.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        for _ in 0..g.usize(0, 3) {
            out.push(if g.bool() { ' ' } else { '\t' });
        }
        for ch in line.chars() {
            if ch == ' ' {
                for _ in 0..g.usize(1, 4) {
                    out.push(if g.bool() { ' ' } else { '\t' });
                }
            } else {
                out.push(ch);
            }
        }
        for _ in 0..g.usize(0, 3) {
            out.push(' ');
        }
    }
    for _ in 0..g.usize(0, 3) {
        out.push('\n');
    }
    out
}

/// A model wrapper that logs every prompt it forwards, in call order.
pub struct PromptLog<'a> {
    inner: &'a dyn unidm_llm::LanguageModel,
    prompts: std::sync::Mutex<Vec<String>>,
}

impl<'a> PromptLog<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn unidm_llm::LanguageModel) -> Self {
        PromptLog {
            inner,
            prompts: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Every prompt seen so far.
    pub fn prompts(&self) -> Vec<String> {
        self.prompts.lock().expect("log lock").clone()
    }
}

impl unidm_llm::LanguageModel for PromptLog<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(
        &self,
        prompt: &str,
    ) -> Result<std::sync::Arc<unidm_llm::Completion>, unidm_llm::LlmError> {
        self.prompts
            .lock()
            .expect("log lock")
            .push(prompt.to_string());
        self.inner.complete(prompt)
    }

    fn usage(&self) -> unidm_llm::Usage {
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn latency_profile(&self) -> unidm_llm::LatencyProfile {
        self.inner.latency_profile()
    }
}

/// `per_kind` tasks of each of the seven task kinds over one lake
/// (Restaurant, Hospital and the medal table; two entity-resolution
/// datasets with one cloned pool each), kind after kind.
pub fn task_mix(
    world: &unidm_world::World,
    seed: u64,
    per_kind: usize,
) -> (unidm_tablestore::DataLake, Vec<unidm::Task>) {
    use unidm::Task;
    use unidm_eval::matching::to_serialized;
    use unidm_synthdata::{
        errors, extraction, imputation, joins, matching, tableqa, transformation,
    };

    let restaurant = imputation::restaurant(world, seed, per_kind);
    let hospital = errors::hospital(world, seed, 0.05);
    let medals = tableqa::medals(world, seed, 12, per_kind);
    let mut kinds: Vec<Vec<Task>> = Vec::new();
    kinds.push(
        restaurant
            .targets
            .iter()
            .map(|t| {
                Task::imputation(
                    restaurant.table.name(),
                    t.row,
                    restaurant.target_attr.clone(),
                    restaurant.key_attr.clone(),
                )
            })
            .collect(),
    );
    kinds.push(
        transformation::stackoverflow(world, seed, per_kind)
            .cases
            .iter()
            .map(|case| Task::Transformation {
                examples: case.examples.clone(),
                input: case.input.clone(),
            })
            .collect(),
    );
    kinds.push(
        hospital
            .cells
            .iter()
            .map(|cell| Task::error_detection(hospital.table.name(), cell.row, cell.attr.clone()))
            .collect(),
    );
    for ds in [
        matching::beer(world, seed),
        matching::walmart_amazon(world, seed),
    ] {
        let side = |r| to_serialized(&ds.schema, r);
        let pool = ds.train.iter().take(40);
        let pool: Vec<_> = pool.map(|p| (side(&p.a), side(&p.b), p.is_match)).collect();
        kinds.push(
            ds.pairs
                .iter()
                .map(|pair| Task::EntityResolution {
                    a: side(&pair.a),
                    b: side(&pair.b),
                    pool: pool.clone(),
                })
                .collect(),
        );
    }
    kinds.push(
        medals
            .questions
            .iter()
            .map(|q| Task::TableQa {
                table: medals.table.name().to_string(),
                question: q.question.clone(),
            })
            .collect(),
    );
    kinds.push(
        joins::nextiajd(world, seed, per_kind)
            .pairs
            .into_iter()
            .map(|pair| Task::JoinDiscovery {
                left_name: pair.left_name,
                left_values: pair.left_values,
                right_name: pair.right_name,
                right_values: pair.right_values,
            })
            .collect(),
    );
    let documents = extraction::nba_players(world, seed);
    kinds.push(
        documents
            .docs
            .iter()
            .zip(documents.attrs.iter().cycle())
            .map(|(doc, attr)| Task::Extraction {
                document: doc.text.clone(),
                attr: attr.clone(),
            })
            .collect(),
    );

    let tasks = kinds
        .into_iter()
        .flat_map(|kind| kind.into_iter().take(per_kind))
        .collect();
    let lake = [restaurant.table, hospital.table, medals.table]
        .into_iter()
        .collect();
    (lake, tasks)
}
