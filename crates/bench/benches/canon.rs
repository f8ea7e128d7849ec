//! Microbenchmarks of the canonicalizer hot path: the borrowed
//! canonicalization against a reimplementation of the old two-pass scheme
//! (normalize into a fresh `String`, then hash the structured
//! stem/splice/suffix framing separately), and the content hash alone, in
//! ns per kB at three prompt sizes.
//!
//! ```text
//! cargo bench -p unidm-bench --bench canon
//! ```

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use unidm::{CanonLevel, CanonicalPrompt, PromptKey};
use unidm_llm::protocol::{render_pcq, render_prm, Claim, TaskKind};

/// The old two-pass canonicalization, kept here as the baseline the
/// one-pass path is measured against: pass one builds a normalized
/// `String` unconditionally, pass two re-walks the text to hash it.
mod two_pass {
    /// Unconditional copy-normalization (the pre-optimization fallback:
    /// every call allocated, even for already-normal text).
    pub fn normalize_whitespace(prompt: &str) -> String {
        let mut out = String::with_capacity(prompt.len());
        for line in prompt.lines() {
            let mut pending_space = false;
            let start = out.len();
            for ch in line.chars() {
                if ch == ' ' || ch == '\t' {
                    pending_space = out.len() > start;
                    continue;
                }
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(ch);
            }
            out.push('\n');
        }
        while out.ends_with('\n') {
            out.pop();
        }
        let trimmed_start = out.trim_start_matches('\n').len();
        out.split_off(out.len() - trimmed_start)
    }

    /// The old structured hash: FNV-1a over stem, a separator, the splice
    /// offset, a separator, then the suffix — a second full walk over the
    /// text after normalization.
    pub fn structured_hash(stem: &str, splice: usize, suffix: &str) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(stem.as_bytes());
        eat(&[0xff]);
        eat(&(splice as u64).to_le_bytes());
        eat(&[0xff]);
        eat(suffix.as_bytes());
        h
    }
}

fn workload() -> Vec<String> {
    let candidates = vec!["country".to_string(), "population".to_string()];
    vec![
        // A canonical p_rm (the hot shape: spliced suffix + generalized
        // query means the borrowed scanner does the most work here).
        render_prm(TaskKind::Imputation, "*, timezone", &candidates),
        // A large p_cq with the full demonstration block.
        render_pcq(&Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy.".into(),
            query: "city: Copenhagen; country: ?".into(),
        }),
        // An unstructured target prompt.
        "Copenhagen belongs to the country __.".to_string(),
    ]
}

fn bench_canon(c: &mut Criterion) {
    let prompts = workload();

    let mut group = c.benchmark_group("canonicalize");
    group.sample_size(50);
    group.bench_function("one_pass_borrowed", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &prompts {
                let canonical = CanonicalPrompt::canonicalize(p, CanonLevel::TableStem);
                acc ^= canonical.hash64();
                assert!(
                    canonical.is_borrowed(),
                    "workload must stay on the fast path"
                );
            }
            acc
        })
    });
    group.bench_function("two_pass_owned", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &prompts {
                // Old shape: allocate the normalized text, split it (a
                // second allocation pair for stem + suffix in the real old
                // code — approximated by the key build), then hash in a
                // separate walk.
                let norm = two_pass::normalize_whitespace(p);
                let key = PromptKey::canonicalize(&norm, CanonLevel::TableStem);
                acc ^= two_pass::structured_hash(key.stem(), key.suffix().len(), key.suffix());
            }
            acc
        })
    });
    group.finish();

    // The content hash alone: `Verbatim` canonicalization is exactly one
    // hash pass. Every sample hashes 1 000 kB in total, so a median printed
    // in µs reads directly as ns per kB.
    let mut group = c.benchmark_group("content_hash_ns_per_kb");
    group.sample_size(50);
    let line = "city: Alicante; country: Spain; timezone: Central European Time\n";
    for (id, bytes) in [("0.2kB", 200), ("2kB", 2_000), ("6kB", 6_000)] {
        let text: String = line.chars().cycle().take(bytes).collect();
        group.bench_function(id, |b| {
            b.iter(|| {
                (0..1_000_000 / bytes).fold(0u64, |acc, _| {
                    acc ^ CanonicalPrompt::canonicalize(black_box(&text), CanonLevel::Verbatim)
                        .hash64()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_canon);
criterion_main!(benches);
