//! Seed-generated inputs: the paper scenarios' task groups with their
//! ground truth, and the key sequences of the cache-store workload.
//!
//! Everything here is a pure function of `--seed`; the program under test
//! only ever sees what these functions return.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use unidm::Task;
use unidm_eval::joins::parse_joinability;
use unidm_eval::matching::to_serialized;
use unidm_eval::metrics::{answers_match, text_f1};
use unidm_synthdata::{errors, extraction, imputation, joins, matching, tableqa, transformation};
use unidm_tablestore::DataLake;
use unidm_world::World;

/// What a task's answer is judged against, by the rule the eval drivers
/// apply to that task kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Truth {
    /// Imputation / table QA: equal after answer normalisation.
    Value(String),
    /// Transformation: byte-equal.
    Exact(String),
    /// Error detection / entity resolution: a "yes" answer means `true`.
    Yes(bool),
    /// Join discovery: joinability of at least one half means `true`.
    Joinable(bool),
    /// Extraction: every token of the truth and nothing else.
    Tokens(String),
}

impl Truth {
    /// Whether `answer` is correct.
    pub fn holds(&self, answer: &str) -> bool {
        match self {
            Truth::Value(truth) => answers_match(answer, truth),
            Truth::Exact(truth) => answer == truth,
            Truth::Yes(truth) => answer.trim().eq_ignore_ascii_case("yes") == *truth,
            Truth::Joinable(truth) => (parse_joinability(answer) >= 0.5) == *truth,
            Truth::Tokens(truth) => {
                let answer = if answer == "unknown" { "" } else { answer };
                text_f1(answer, truth) >= 0.999
            }
        }
    }
}

/// The paper's ten evaluation scenarios (the tenants of the serving mix)
/// plus appendix C's table QA, which completes the seven task kinds.
pub const SCENARIOS: [&str; 11] = [
    "table1-imputation",
    "table2-transformation",
    "table3-errors",
    "table4-matching",
    "table5-finetune",
    "table6-zoo",
    "table7-tokens",
    "table8-10-ablation",
    "table11-extraction",
    "fig5-joins",
    "appendixC-tableqa",
];

/// One scenario's tasks over its own lake, with ground truth per task.
#[derive(Debug, Clone)]
pub struct Group {
    /// Which of [`SCENARIOS`] built the group.
    pub scenario: &'static str,
    /// The tables the tasks refer to (empty for self-contained kinds).
    pub lake: DataLake,
    /// The tasks, no two byte-identical.
    pub tasks: Vec<Task>,
    /// `truths[i]` judges the answer to `tasks[i]`.
    pub truths: Vec<Truth>,
}

/// Builds scenario `index` of [`SCENARIOS`] from the `synthdata`
/// generator the eval driver of that scenario uses, at dataset seed
/// `seed`, keeping at most `queries` tasks.
pub fn scenario_group(world: &World, seed: u64, index: usize, queries: usize) -> Group {
    let scenario = SCENARIOS[index];
    let mut lake = DataLake::new();
    let mut pairs: Vec<(Task, Truth)> = Vec::new();
    match index {
        // Tables 1, 6 and 7 impute (7 replays Restaurant one seed over,
        // so its stream overlaps Table 1's without repeating it).
        0 | 5 | 6 => {
            let ds = match index {
                0 => imputation::restaurant(world, seed, queries),
                5 => imputation::buy(world, seed, queries),
                _ => imputation::restaurant(world, seed.wrapping_add(1), queries),
            };
            for t in ds.targets.iter().take(queries) {
                pairs.push((
                    Task::imputation(
                        ds.table.name(),
                        t.row,
                        ds.target_attr.clone(),
                        ds.key_attr.clone(),
                    ),
                    Truth::Value(t.truth.to_string()),
                ));
            }
            lake.add(ds.table);
        }
        1 | 7 => {
            let ds = if index == 1 {
                transformation::stackoverflow(world, seed, queries)
            } else {
                transformation::bing_querylogs(world, seed, queries)
            };
            for case in ds.cases.into_iter().take(queries) {
                pairs.push((
                    Task::Transformation {
                        examples: case.examples,
                        input: case.input,
                    },
                    Truth::Exact(case.truth),
                ));
            }
        }
        2 => {
            let ds = errors::hospital(world, seed, 0.05);
            for cell in ds.cells.iter().take(queries) {
                pairs.push((
                    Task::error_detection(ds.table.name(), cell.row, cell.attr.clone()),
                    Truth::Yes(cell.is_error),
                ));
            }
            lake.add(ds.table);
        }
        3 | 4 => {
            let ds = if index == 3 {
                matching::beer(world, seed)
            } else {
                matching::walmart_amazon(world, seed)
            };
            let pool: Vec<_> = ds
                .train
                .iter()
                .take(40)
                .map(|p| {
                    (
                        to_serialized(&ds.schema, &p.a),
                        to_serialized(&ds.schema, &p.b),
                        p.is_match,
                    )
                })
                .collect();
            for pair in ds.pairs.iter().take(queries) {
                pairs.push((
                    Task::EntityResolution {
                        a: to_serialized(&ds.schema, &pair.a),
                        b: to_serialized(&ds.schema, &pair.b),
                        pool: pool.clone(),
                    },
                    Truth::Yes(pair.is_match),
                ));
            }
        }
        8 => {
            let ds = extraction::nba_players(world, seed);
            let docs = queries.div_ceil(ds.attrs.len().max(1));
            for (doc, truth) in ds.docs.iter().zip(&ds.truth).take(docs) {
                for attr in &ds.attrs {
                    pairs.push((
                        Task::Extraction {
                            document: doc.text.clone(),
                            attr: attr.clone(),
                        },
                        Truth::Tokens(truth[attr].clone()),
                    ));
                }
            }
        }
        9 => {
            let ds = joins::nextiajd(world, seed, queries);
            for pair in ds.pairs.into_iter().take(queries) {
                pairs.push((
                    Task::JoinDiscovery {
                        left_name: pair.left_name,
                        left_values: pair.left_values,
                        right_name: pair.right_name,
                        right_values: pair.right_values,
                    },
                    Truth::Joinable(pair.joinable),
                ));
            }
        }
        10 => {
            let ds = tableqa::medals(world, seed, 20, queries);
            for case in ds.questions.iter().take(queries) {
                pairs.push((
                    Task::TableQa {
                        table: ds.table.name().to_string(),
                        question: case.question.clone(),
                    },
                    Truth::Value(case.answer.to_string()),
                ));
            }
            lake.add(ds.table);
        }
        _ => panic!("scenario index {index} out of range"),
    }
    // The dedup planner must have nothing to coalesce: keep the first of
    // any byte-identical tasks a generator happens to emit.
    let mut seen = HashSet::new();
    pairs.retain(|(task, _)| seen.insert(task.clone()));
    let (tasks, truths) = pairs.into_iter().unzip();
    Group {
        scenario,
        lake,
        tasks,
        truths,
    }
}

/// The dataset seed of seed-offset `offset` under run seed `seed`.
pub fn offset_seed(seed: u64, offset: usize) -> u64 {
    seed.wrapping_add(offset as u64 * 7919)
}

/// A Zipf(`exponent`) sample of `len` key indices below `keys`, with the
/// popularity ranks assigned to keys by a seeded shuffle.
pub fn zipf_sequence(seed: u64, keys: usize, len: usize, exponent: f64) -> Vec<u32> {
    assert!(keys > 0 && keys <= u32::MAX as usize);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21bf_5eed);
    let mut key_of_rank: Vec<u32> = (0..keys as u32).collect();
    key_of_rank.shuffle(&mut rng);
    let mut cdf = Vec::with_capacity(keys);
    let mut total = 0.0f64;
    for rank in 1..=keys {
        total += (rank as f64).powf(-exponent);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            let rank = cdf.partition_point(|&c| c <= u).min(keys - 1);
            key_of_rank[rank]
        })
        .collect()
}

/// One step of the cache-store workload's key stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// A Zipf draw over the working set.
    Hot(u32),
    /// The `i`-th key of the one-touch scan.
    Scan(u32),
}

/// `lookups` Zipf draws over `keys` working-set keys with a one-touch
/// scan of `scan` fresh keys spliced in at the midpoint.
pub fn churn_sequence(
    seed: u64,
    keys: usize,
    lookups: usize,
    scan: usize,
    exponent: f64,
) -> Vec<Lookup> {
    let hot = zipf_sequence(seed, keys, lookups, exponent);
    let mid = lookups / 2;
    let mut out = Vec::with_capacity(lookups + scan);
    out.extend(hot[..mid].iter().map(|&k| Lookup::Hot(k)));
    out.extend((0..scan as u32).map(Lookup::Scan));
    out.extend(hot[mid..].iter().map(|&k| Lookup::Hot(k)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_in_seed_and_differs_across_seeds() {
        let a = zipf_sequence(7, 4096, 20_000, 0.9);
        assert_eq!(a, zipf_sequence(7, 4096, 20_000, 0.9));
        assert_ne!(a, zipf_sequence(8, 4096, 20_000, 0.9));
        assert!(a.iter().all(|&k| (k as usize) < 4096));
    }

    #[test]
    fn zipf_is_skewed_but_covers_the_tail() {
        let keys = 1024;
        let sample = zipf_sequence(3, keys, 100_000, 0.9);
        let mut counts = vec![0u32; keys];
        for &k in &sample {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_tenth: u32 = counts[..keys / 10].iter().sum();
        assert!(
            top_tenth > 40_000 && top_tenth < 75_000,
            "the hottest tenth of the keys takes roughly half the draws: {top_tenth}"
        );
        let touched = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            touched > keys * 9 / 10,
            "the tail is sampled too: {touched}"
        );
    }

    #[test]
    fn churn_sequence_splices_one_scan_at_the_midpoint() {
        let seq = churn_sequence(11, 512, 4000, 300, 0.9);
        assert_eq!(seq, churn_sequence(11, 512, 4000, 300, 0.9));
        assert_ne!(seq, churn_sequence(12, 512, 4000, 300, 0.9));
        assert_eq!(seq.len(), 4300);
        let scan: Vec<u32> = seq
            .iter()
            .filter_map(|l| match l {
                Lookup::Scan(i) => Some(*i),
                Lookup::Hot(_) => None,
            })
            .collect();
        assert_eq!(scan, (0..300).collect::<Vec<u32>>(), "each scan key once");
        assert_eq!(seq[2000], Lookup::Scan(0));
        assert!(matches!(seq[1999], Lookup::Hot(_)));
        assert!(matches!(seq[2300], Lookup::Hot(_)));
    }

    #[test]
    fn scenario_groups_are_seeded_and_free_of_duplicate_tasks() {
        let world = World::generate(5);
        for index in 0..SCENARIOS.len() {
            let a = scenario_group(&world, 5, index, 12);
            let b = scenario_group(&world, 5, index, 12);
            assert_eq!(a.tasks, b.tasks, "{}", a.scenario);
            assert_eq!(a.truths, b.truths, "{}", a.scenario);
            assert!(!a.tasks.is_empty(), "{}", a.scenario);
            assert_eq!(a.tasks.len(), a.truths.len());
            let unique: HashSet<_> = a.tasks.iter().collect();
            assert_eq!(unique.len(), a.tasks.len(), "{}", a.scenario);
            let other = scenario_group(&world, offset_seed(5, 1), index, 12);
            assert_ne!(
                a.tasks, other.tasks,
                "{} must move with its seed",
                a.scenario
            );
        }
    }

    #[test]
    fn truths_apply_the_eval_drivers_rules() {
        assert!(Truth::Value("Central European Time".into()).holds("central european time"));
        assert!(!Truth::Exact("2000-01-01".into()).holds("2000-01-01 "));
        assert!(Truth::Yes(true).holds(" Yes"));
        assert!(Truth::Yes(false).holds("No"));
        assert!(Truth::Joinable(true).holds("Yes (joinability: 83%)"));
        assert!(Truth::Joinable(false).holds("No (joinability: 12%)"));
        assert!(Truth::Tokens("LeBron James".into()).holds("LeBron James"));
        assert!(!Truth::Tokens("LeBron James".into()).holds("unknown"));
    }
}
