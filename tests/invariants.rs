//! Property tests over substrate invariants: metrics, distances, the table
//! store, program induction, and the deterministic dice.
//!
//! Inputs are sampled deterministically (see `common::Gen`) — 128
//! randomized cases per invariant, reproducible from the fixed seed.

mod common;

use common::{Gen, PromptLog, ANY};

use unidm::{PipelineConfig, RunOutput, Task, UniDm};
use unidm_baselines::tde;
use unidm_eval::metrics::{at_threshold, text_f1, Confusion};
use unidm_llm::protocol::SerializedRecord;
use unidm_llm::{Dice, KnowledgeBase, LlmProfile, MockLlm};
use unidm_synthdata::{imputation, ScaleSpec};
use unidm_tablestore::{csv, DataLake, Table, Value};
use unidm_text::distance::{jaccard, jaro_winkler, levenshtein, normalized_levenshtein};
use unidm_text::Embedder;

const CASES: usize = 128;

#[test]
fn levenshtein_is_a_metric() {
    let mut g = Gen::new(0x1e7);
    for _ in 0..CASES {
        let a = g.string(ANY, 24);
        let b = g.string(ANY, 24);
        let c = g.string(ANY, 24);
        // Identity, symmetry, triangle inequality.
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }
}

#[test]
fn similarity_scores_bounded() {
    let mut g = Gen::new(0x51);
    for _ in 0..CASES {
        let a = g.string(ANY, 30);
        let b = g.string(ANY, 30);
        for s in [
            normalized_levenshtein(&a, &b),
            jaro_winkler(&a, &b),
            jaccard(&a, &b),
        ] {
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }
}

#[test]
fn embedding_cosine_bounded_and_reflexive() {
    let mut g = Gen::new(0xe3bed);
    let e = Embedder::default();
    for _ in 0..CASES {
        let a = {
            let mut s = g.string(ANY, 39);
            s.push('x');
            s
        };
        let b = {
            let mut s = g.string(ANY, 39);
            s.push('y');
            s
        };
        let ea = e.embed(&a);
        let eb = e.embed(&b);
        let sim = ea.cosine(&eb);
        assert!((-1.0..=1.0).contains(&sim));
        if ea.norm() > 0.0 {
            assert!((ea.cosine(&ea) - 1.0).abs() < 1e-5);
        }
    }
}

#[test]
fn token_count_monotone() {
    let mut g = Gen::new(0x70c);
    for _ in 0..CASES {
        let a = g.string(ANY, 60);
        let b = g.string(ANY, 60);
        let joined = format!("{a}{b}");
        assert!(unidm_text::count_tokens(&joined) + 1 >= unidm_text::count_tokens(&a));
    }
}

/// The streaming counter against the tokens it no longer builds.
#[test]
fn token_count_equals_the_lexed_oracle() {
    let oracle = |s: &str| -> usize {
        let lexed = unidm_text::tokenize::lex(s);
        let cost = |t: &String| t.chars().count().div_ceil(4).max(1);
        lexed.iter().map(cost).sum()
    };
    // ASCII words and digits; multi-byte letters; combining marks (not
    // alphanumeric, so they split words); punctuation and whitespace runs.
    const POOLS: [&str; 4] = [
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
        "éüñßçøаяжλωאب日本語한글０９Ⅻ ",
        "ae\u{301}o\u{308}n\u{303}\u{20dd} ",
        ".,:;!?…—«»()[]{}<>@#$%^&*+=|~ \t\n\u{a0}\u{2003}",
    ];
    let mut g = Gen::new(0x70c2);
    for case in 0..4 * CASES {
        let text = if case % 5 == 4 {
            let mut mixed = String::new();
            for _ in 0..4 {
                let pool = POOLS[g.usize(0, 4)];
                mixed.push_str(&g.string(pool, 12));
            }
            mixed
        } else {
            g.string(POOLS[case % 4], 48)
        };
        assert_eq!(unidm_text::count_tokens(&text), oracle(&text), "{text:?}");
    }
    let long = "supercalifragilisticexpialidocious".repeat(40);
    assert_eq!(unidm_text::count_tokens(&long), oracle(&long));
}

/// Imputation tasks over `rows` of the one table in `lake`.
fn impute_rows(lake: &DataLake, rows: impl Iterator<Item = usize>) -> Vec<Task> {
    let name = lake.names().next().expect("one table");
    rows.map(|row| Task::imputation(name, row, "city", "name"))
        .collect()
}

fn run_all(unidm: &UniDm<'_>, lake: &DataLake, tasks: &[Task]) -> Vec<RunOutput> {
    let run = |task| unidm.run(lake, task).expect("run ok");
    tasks.iter().map(run).collect()
}

/// The record frame's freshness promise: whatever happens to a table
/// between two runs, a long-lived pipeline answers like a new one.
#[test]
fn record_frame_follows_every_table_change() {
    let world = unidm_world::World::generate(3);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 3);
    let log = PromptLog::new(&llm);
    let config = PipelineConfig::paper_default().with_seed(3);
    let ds = imputation::restaurant(&world, 3, 6);
    let name = ds.table.name().to_string();
    let mut lake: DataLake = [ds.table.clone()].into_iter().collect();
    let tasks = impute_rows(&lake, ds.targets.iter().map(|t| t.row));
    let fresh = |lake: &DataLake| run_all(&UniDm::new(&llm, config), lake, &tasks);
    let version = |lake: &DataLake| lake.table(&name).expect("present").version();

    let unidm = UniDm::new(&log, config);
    let first = run_all(&unidm, &lake, &tasks);
    assert!(first == fresh(&lake));
    assert_eq!(unidm.frame_rows(&name).expect("filled").0, version(&lake));

    // `set_cell` on a row the frame holds: task 0 retrieved it.
    let retrieved = SerializedRecord::parse(&first[0].trace.context_records[0]).expect("pairs");
    let key = Value::text(retrieved.get("name").expect("key projected"));
    let row = lake
        .table(&name)
        .expect("present")
        .find("name", &key)
        .unwrap()[0];
    let edit = |lake: &mut DataLake, text: &str| {
        let table = lake.table_mut(&name).expect("present");
        table.set_cell(row, "name", Value::text(text)).unwrap();
    };
    edit(&mut lake, "Edited Diner");
    let edited = run_all(&unidm, &lake, &tasks);
    assert!(edited == fresh(&lake) && edited != first);
    let seen = |text: &str| log.prompts().iter().any(|p| p.contains(text));
    assert!(seen("Edited Diner"), "the edited row was sampled again");
    let (at, rows) = unidm.frame_rows(&name).expect("filled");
    assert_eq!(at, version(&lake), "frames of the old version are gone");
    assert!(
        rows.iter().all(|&n| n <= 2 * config.sample_size),
        "{rows:?}"
    );

    // Clone-then-diverge: two tables, one name, one pipeline, alternating.
    let mut diverged = lake.clone();
    assert_eq!(version(&diverged), version(&lake), "clones share the stamp");
    edit(&mut diverged, "Diverged Diner");
    for _ in 0..2 {
        assert!(run_all(&unidm, &diverged, &tasks) == fresh(&diverged));
        assert_eq!(unidm.frame_rows(&name).unwrap().0, version(&diverged));
        assert!(run_all(&unidm, &lake, &tasks) == edited);
        assert_eq!(unidm.frame_rows(&name).unwrap().0, version(&lake));
    }
    assert!(seen("Diverged Diner"));

    // `push_row`, then `DataLake::add` replacing the table wholesale.
    let appended = vec![Value::text("Appended Diner"); 5];
    lake.table_mut(&name).unwrap().push_row(appended).unwrap();
    assert!(run_all(&unidm, &lake, &tasks) == fresh(&lake));
    let other = imputation::restaurant_table(&unidm_world::World::generate(4));
    assert!(lake.add(other).is_some(), "same name: replaced");
    assert!(run_all(&unidm, &lake, &tasks) == fresh(&lake));
    let (at, rows) = unidm.frame_rows(&name).expect("filled");
    assert_eq!(at, version(&lake));
    assert!(
        rows.iter().all(|&n| n <= 2 * config.sample_size),
        "{rows:?}"
    );
}

/// The record frame's size promise, on both sampler paths: 500 tasks over
/// one table leave at most 2 × `sample_size` rows per projection.
#[test]
fn record_frame_is_bounded_by_the_sample_not_the_task_count() {
    let world = unidm_world::World::generate(5);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 5);
    let config = PipelineConfig::paper_default().with_seed(5);
    let shuffled = imputation::restaurant_table(&world);
    let sparse = ScaleSpec::new(5000, 5).users_table();
    for table in [shuffled, sparse] {
        let (name, rows) = (table.name().to_string(), table.row_count());
        let lake: DataLake = [table].into_iter().collect();
        let tasks = impute_rows(&lake, (0..500).map(|i| (i * 7) % rows));
        let unidm = UniDm::new(&llm, config);
        run_all(&unidm, &lake, &tasks);
        let (_, held) = unidm.frame_rows(&name).expect("filled");
        assert!(!held.is_empty() && held.len() <= 8, "{name}: {held:?}");
        assert!(
            held.iter().all(|&n| n <= 2 * config.sample_size),
            "{name} ({rows} rows): {held:?}"
        );
    }
}

#[test]
fn confusion_f1_bounded() {
    let mut g = Gen::new(0xf1);
    for _ in 0..CASES {
        let c = Confusion {
            tp: g.usize(0, 200),
            fp: g.usize(0, 200),
            fn_: g.usize(0, 200),
            tn: g.usize(0, 200),
        };
        assert!((0.0..=1.0).contains(&c.precision()));
        assert!((0.0..=1.0).contains(&c.recall()));
        assert!((0.0..=1.0).contains(&c.f1()));
        // F1 is the harmonic mean: it lies between precision and recall.
        let lo = c.precision().min(c.recall());
        let hi = c.precision().max(c.recall());
        if c.tp + c.fp + c.fn_ > 0 && c.f1() > 0.0 {
            assert!(c.f1() + 1e-9 >= lo && c.f1() <= hi + 1e-9);
        }
    }
}

#[test]
fn threshold_monotonicity() {
    let mut g = Gen::new(0x7412);
    for _ in 0..CASES {
        let n = g.usize(1, 50);
        let scored: Vec<(f64, bool)> = (0..n).map(|_| (g.f64(0.0, 1.0), g.bool())).collect();
        // Raising the threshold can only reduce predicted positives.
        let low = at_threshold(&scored, 0.2);
        let high = at_threshold(&scored, 0.8);
        assert!(low.tp + low.fp >= high.tp + high.fp);
    }
}

#[test]
fn text_f1_symmetric_and_bounded() {
    let mut g = Gen::new(0x7e8);
    for _ in 0..CASES {
        let a = g.string("abcdefghijklmnopqrstuvwxyz ", 30);
        let b = g.string("abcdefghijklmnopqrstuvwxyz ", 30);
        let f = text_f1(&a, &b);
        assert!((0.0..=1.0).contains(&f));
        assert!(
            (f - text_f1(&b, &a)).abs() < 1e-9,
            "precision/recall swap symmetry"
        );
    }
}

#[test]
fn csv_roundtrip() {
    let mut g = Gen::new(0xc5f);
    const CELL: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ,\"\n.'";
    for _ in 0..CASES {
        let n_rows = g.usize(0, 8);
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|_| (0..3).map(|_| g.string(CELL, 16)).collect())
            .collect();
        let mut t = Table::builder("t").columns(["a", "b", "c"]).build();
        for row in &rows {
            t.push_row(row.iter().map(|c| Value::text(c.clone())).collect())
                .unwrap();
        }
        let text = csv::to_csv(&t);
        let back = csv::from_csv("t", &text).expect("roundtrip parse");
        assert_eq!(back.row_count(), t.row_count());
        for (i, row) in rows.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let attr = ["a", "b", "c"][j];
                // Values re-parse by type; compare canonical text forms.
                let expected = Value::parse(cell);
                assert_eq!(
                    back.cell_value(i, attr).unwrap().answer_key(),
                    expected.answer_key()
                );
            }
        }
    }
}

#[test]
fn dice_is_pure() {
    let mut g = Gen::new(0xd1ce);
    for _ in 0..CASES {
        let seed = g.u64();
        let ctx = g.string(ANY, 20);
        let tag = {
            let mut t = g.chars_from("abcdefghijklmnopqrstuvwxyz", 1);
            t.push_str(&g.string("abcdefghijklmnopqrstuvwxyz", 7));
            t
        };
        let p = g.f64(0.0, 1.0);
        let d1 = Dice::new(seed);
        let d2 = Dice::new(seed);
        assert_eq!(d1.uniform(&ctx, &tag), d2.uniform(&ctx, &tag));
        assert_eq!(d1.chance(&ctx, &tag, p), d2.chance(&ctx, &tag, p));
    }
}

#[test]
fn tde_program_reproduces_its_examples() {
    let mut g = Gen::new(0x7de);
    for _ in 0..CASES {
        let mk = |g: &mut Gen| {
            let y = g.usize(1980, 2024) as u32;
            let m = g.usize(1, 13) as u32;
            let d = g.usize(1, 29) as u32;
            (format!("{y}-{m:02}-{d:02}"), format!("{m:02}/{d:02}/{y}"))
        };
        // Synthesize from two iso→us date examples, then verify the program
        // reproduces both training outputs exactly (soundness of search).
        let examples = vec![mk(&mut g), mk(&mut g)];
        if let Some(prog) = tde::synthesize(&examples) {
            for (i, o) in &examples {
                let got = prog.apply(i);
                assert_eq!(got.as_deref(), Some(o.as_str()));
            }
        }
    }
}

#[test]
fn llm_induction_is_sound() {
    let mut g = Gen::new(0x1d0ce);
    let name = |g: &mut Gen| {
        let len = g.usize(2, 9);
        g.chars_from("abcdefghijklmnopqrstuvwxyz", len)
    };
    for _ in 0..CASES {
        // Whatever program induction finds must reproduce the examples.
        let kb = KnowledgeBase::empty();
        let (first, last) = (name(&mut g), name(&mut g));
        let (first2, last2) = (name(&mut g), name(&mut g));
        let examples = vec![
            (format!("{first} {last}"), format!("{last}, {first}")),
            (format!("{first2} {last2}"), format!("{last2}, {first2}")),
        ];
        if let Some(prog) = unidm_llm::skills::induce::induce(&examples, &kb) {
            for (i, o) in &examples {
                let got = prog.apply(i, &kb);
                assert_eq!(got.as_deref(), Some(o.as_str()));
            }
        }
    }
}
