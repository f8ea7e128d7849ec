//! Microbenchmarks of the canonicalizer hot path: the borrowed
//! canonicalization of already-canonical prompts, and the content hash
//! alone, in ns per kB at three prompt sizes.
//!
//! ```text
//! cargo bench -p unidm-bench --bench canon
//! ```

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use unidm::{CanonLevel, CanonicalPrompt};
use unidm_llm::protocol::{render_pcq, render_prm, Claim, TaskKind};

fn workload() -> Vec<String> {
    let candidates = vec!["country".to_string(), "population".to_string()];
    vec![
        // A canonical p_rm (the hot shape: an already-general query means
        // the borrowed scanner does the most work here).
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
