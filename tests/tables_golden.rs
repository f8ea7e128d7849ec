//! `all_tables --quick` stdout, pinned byte for byte. The test rebuilds
//! every table through the same `unidm_eval` drivers the binary calls, in
//! the same order, and compares against `tests/golden/tables_quick.txt`.
//! A change to any retrieval, prompt, model or metric path that moves a
//! single printed cell fails here, naming the first differing line and
//! the table it sits in.
//!
//! To re-record after a change that is meant to move a cell:
//! `cargo run --release -p unidm-bench --bin all_tables -- --quick > tests/golden/tables_quick.txt`.

use unidm_eval::{
    ablation, errors, extraction, finetune, imputation, joins, matching, tokens, transformation,
    zoo, ExperimentConfig,
};

const GOLDEN: &str = include_str!("golden/tables_quick.txt");

/// What `all_tables --quick` prints: each table's `Display`, then a newline.
fn render_quick() -> String {
    let config = ExperimentConfig::quick();
    let tables = [
        imputation::table1(config.clone()).to_string(),
        transformation::table2(config.clone()).to_string(),
        errors::table3(config.clone()).to_string(),
        matching::table4(config.clone()).to_string(),
        finetune::table5(config.clone()).to_string(),
        zoo::table6(config.clone()).to_string(),
        tokens::table7(config.clone()).to_string(),
        ablation::table8(config.clone()).to_string(),
        ablation::table9(config.clone()).to_string(),
        ablation::table10(config.clone()).to_string(),
        extraction::table11(config.clone()).to_string(),
        joins::fig5(config).to_string(),
    ];
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// The first line of the block (blank-line separated) holding line `at`.
fn header_above<'a>(lines: &[&'a str], at: usize) -> &'a str {
    let at = at.min(lines.len().saturating_sub(1));
    (0..=at)
        .rev()
        .find(|&i| i == 0 || lines[i - 1].is_empty())
        .map_or("", |i| lines[i])
}

#[test]
fn all_tables_quick_matches_golden() {
    let actual = render_quick();
    if actual == GOLDEN {
        return;
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    panic!(
        "all_tables --quick drifted from tests/golden/tables_quick.txt at line {}\n\
         in: {}\n\
         golden: {:?}\n\
         actual: {:?}",
        at + 1,
        header_above(&want, at),
        want.get(at).copied().unwrap_or("<end of golden>"),
        got.get(at).copied().unwrap_or("<end of output>"),
    );
}
