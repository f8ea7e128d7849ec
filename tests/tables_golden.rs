//! `all_tables` stdout, pinned byte for byte at both scales. The tests
//! rebuild every table through the same `unidm_eval` drivers the binary
//! calls, in the same order, and compare against
//! `tests/golden/tables_quick.txt` (`--quick`, one test) and
//! `tests/golden/tables_paper.txt` (paper scale, one test per table).
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

/// Panics unless `actual` equals `golden`, naming the first differing
/// line — numbered from `first_line` — and the table it sits in.
fn assert_matches(what: &str, golden: &str, first_line: usize, actual: &str) {
    if actual == golden {
        return;
    }
    let want: Vec<&str> = golden.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    panic!(
        "{what} at line {}\n\
         in: {}\n\
         golden: {:?}\n\
         actual: {:?}",
        first_line + at,
        header_above(&want, at),
        want.get(at).copied().unwrap_or("<end of golden>"),
        got.get(at).copied().unwrap_or("<end of output>"),
    );
}

#[test]
fn all_tables_quick_matches_golden() {
    assert_matches(
        "all_tables --quick drifted from tests/golden/tables_quick.txt",
        GOLDEN,
        1,
        &render_quick(),
    );
}

/// `all_tables` stdout at paper scale (`ExperimentConfig::paper()`), one
/// block per table. To re-record after a change that is meant to move a
/// cell: `cargo run --release -p unidm-bench --bin all_tables > tests/golden/tables_paper.txt`.
const PAPER: &str = include_str!("golden/tables_paper.txt");

/// Checks the `index`-th block of the paper-scale golden — one table's
/// `Display` and the blank line after it — against `table`.
fn assert_paper_block(index: usize, table: impl std::fmt::Display) {
    let blocks: Vec<&str> = PAPER.split_inclusive("\n\n").collect();
    assert_eq!(
        blocks.len(),
        12,
        "tables_paper.txt holds one block per table"
    );
    let first_line = 1 + blocks[..index]
        .iter()
        .map(|b| b.lines().count())
        .sum::<usize>();
    assert_matches(
        "all_tables drifted from tests/golden/tables_paper.txt",
        blocks[index],
        first_line,
        &format!("{table}\n"),
    );
}

/// One test per driver, so the paper-scale runs share the test threads.
macro_rules! paper_goldens {
    ($($test:ident: $index:expr => $driver:path;)*) => {$(
        #[test]
        fn $test() {
            assert_paper_block($index, $driver(ExperimentConfig::paper()));
        }
    )*};
}

paper_goldens! {
    paper_table1_matches_golden: 0 => imputation::table1;
    paper_table2_matches_golden: 1 => transformation::table2;
    paper_table3_matches_golden: 2 => errors::table3;
    paper_table4_matches_golden: 3 => matching::table4;
    paper_table5_matches_golden: 4 => finetune::table5;
    paper_table6_matches_golden: 5 => zoo::table6;
    paper_table7_matches_golden: 6 => tokens::table7;
    paper_table8_matches_golden: 7 => ablation::table8;
    paper_table9_matches_golden: 8 => ablation::table9;
    paper_table10_matches_golden: 9 => ablation::table10;
    paper_table11_matches_golden: 10 => extraction::table11;
    paper_fig5_matches_golden: 11 => joins::fig5;
}
