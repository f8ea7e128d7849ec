//! `all_tables` stdout, pinned byte for byte at both scales, and the
//! paper's ordering claims, written once as data and checked at paper
//! scale.
//!
//! The tests rebuild every table through [`unidm_eval::TABLES`], the same
//! registry the binary prints, and compare against
//! `tests/golden/tables_quick.txt` (`--quick`, one test) and
//! `tests/golden/tables_paper.txt` (paper scale, one test per table).
//! A change to any retrieval, prompt, model or metric path that moves a
//! single printed cell fails here, naming the first differing line, the
//! table it sits in and, for a table row, the method, column and both
//! values.
//!
//! To re-record after a change that is meant to move a cell:
//! `cargo run --release -p unidm-bench --bin all_tables -- --quick > tests/golden/tables_quick.txt`.

use unidm_eval::report::Report;
use unidm_eval::{ExperimentConfig, TABLES};

const GOLDEN: &str = include_str!("golden/tables_quick.txt");

/// What `all_tables --quick` prints: each table's `Display`, then a newline.
fn render_quick() -> String {
    TABLES
        .iter()
        .map(|(_, driver)| format!("{}\n", driver(ExperimentConfig::quick())))
        .collect()
}

/// The index of the first line of the block (blank-line separated)
/// holding line `at`.
fn block_start(lines: &[&str], at: usize) -> usize {
    (0..=at)
        .rev()
        .find(|&i| i == 0 || lines[i - 1].is_empty())
        .unwrap_or(0)
}

/// A row's fields: columns are padded by at least two spaces, and no
/// method or column name holds two spaces in a row.
fn fields(line: &str) -> Vec<&str> {
    line.split("  ")
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .collect()
}

/// Names the first differing cell of a golden row and its re-render, given
/// the block's title and header lines: "Table 1, UniDM, Restaurant: golden
/// 96.7, actual 96.8". A Figure 5 row is named by system and threshold.
fn cell_diff(title: &str, header: &str, want: &str, got: &str) -> Option<String> {
    let (header, want, got) = (fields(header), fields(want), fields(got));
    if header.len() < 2 || want.len() != header.len() || got.len() != header.len() {
        return None;
    }
    let keys = if header[1] == "Threshold" { 2 } else { 1 };
    let col = (keys..header.len()).find(|&i| want[i] != got[i])?;
    let table = title.split('.').next().unwrap_or(title);
    let row = if keys == 2 {
        format!("{} at threshold {}", want[0], want[1])
    } else {
        want[0].to_string()
    };
    Some(format!(
        "{table}, {row}, {}: golden {}, actual {}",
        header[col], want[col], got[col]
    ))
}

/// Describes the first difference between `golden` and `actual` — the line,
/// numbered from `first_line`, the table it sits in, and the cell when it
/// is a table row — or `None` when they are equal.
fn mismatch(what: &str, golden: &str, first_line: usize, actual: &str) -> Option<String> {
    if actual == golden {
        return None;
    }
    let want: Vec<&str> = golden.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    let start = block_start(&want, at.min(want.len().saturating_sub(1)));
    let title = want.get(start).copied().unwrap_or("");
    let mut message = format!(
        "{what} at line {}\n\
         in: {title}\n\
         golden: {:?}\n\
         actual: {:?}",
        first_line + at,
        want.get(at).copied().unwrap_or("<end of golden>"),
        got.get(at).copied().unwrap_or("<end of output>"),
    );
    // Rows start after the title, the column header and the rule.
    if at >= start + 3 {
        if let (Some(header), Some(w), Some(g)) = (want.get(start + 1), want.get(at), got.get(at)) {
            if let Some(cell) = cell_diff(title, header, w, g) {
                message.push_str(&format!("\ncell: {cell}"));
            }
        }
    }
    Some(message)
}

/// Panics unless `actual` equals `golden`, with [`mismatch`]'s message.
fn assert_matches(what: &str, golden: &str, first_line: usize, actual: &str) {
    if let Some(message) = mismatch(what, golden, first_line, actual) {
        panic!("{message}");
    }
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

/// The paper-scale golden's blocks: one table's `Display` and the blank
/// line after it, in registry order.
fn paper_blocks() -> Vec<&'static str> {
    let blocks: Vec<&str> = PAPER.split_inclusive("\n\n").collect();
    assert_eq!(
        blocks.len(),
        TABLES.len(),
        "tables_paper.txt holds one block per table"
    );
    blocks
}

/// Runs the registered driver `name` once at paper scale, compares its
/// golden block, then checks its ledger entries against the same report.
fn check_paper_table(name: &str) {
    let index = TABLES
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in unidm_eval::TABLES"));
    let report = (TABLES[index].1)(ExperimentConfig::paper());
    let blocks = paper_blocks();
    let first_line = 1 + blocks[..index]
        .iter()
        .map(|b| b.lines().count())
        .sum::<usize>();
    assert_matches(
        "all_tables drifted from tests/golden/tables_paper.txt",
        blocks[index],
        first_line,
        &format!("{report}\n"),
    );
    check_claims(name, LEDGER, &report);
}

/// One test per driver, so the paper-scale runs share the test threads.
/// `PAPER_TESTS` lists the names the tests cover, for the registry test.
macro_rules! paper_tests {
    ($($test:ident => $name:literal;)*) => {
        const PAPER_TESTS: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                check_paper_table($name);
            }
        )*
    };
}

paper_tests! {
    paper_table1_matches_golden => "table1";
    paper_table2_matches_golden => "table2";
    paper_table3_matches_golden => "table3";
    paper_table4_matches_golden => "table4";
    paper_table5_matches_golden => "table5";
    paper_table6_matches_golden => "table6";
    paper_table7_matches_golden => "table7";
    paper_table8_matches_golden => "table8";
    paper_table9_matches_golden => "table9";
    paper_table10_matches_golden => "table10";
    paper_table11_matches_golden => "table11";
    paper_fig5_matches_golden => "fig5";
}

// ---------------------------------------------------------------------
// The fidelity ledger: every ordering claim about a table, once, as data.
// ---------------------------------------------------------------------

/// Whether a claim holds at paper scale today. A `Gap` is a claim the
/// paper makes that this reproduction does not meet yet; it must keep
/// failing, so closing a gap means flipping its entry to `Holds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Holds,
    Gap,
}

/// One side of a claim: `times × term + plus`.
#[derive(Debug, Clone, Copy)]
struct Side {
    term: Term,
    times: f64,
    plus: f64,
}

#[derive(Debug, Clone, Copy)]
enum Term {
    /// A (method, column) cell of a table. For Figure 5 the method is the
    /// system and the column is `mean F1` or `points`.
    Cell(&'static str, &'static str),
    /// A fixed number, such as a floor.
    Const(f64),
}

const fn cell(method: &'static str, column: &'static str) -> Side {
    Side {
        term: Term::Cell(method, column),
        times: 1.0,
        plus: 0.0,
    }
}

const fn num(value: f64) -> Side {
    Side {
        term: Term::Const(value),
        times: 1.0,
        plus: 0.0,
    }
}

impl Side {
    const fn plus(self, plus: f64) -> Side {
        Side { plus, ..self }
    }

    const fn times(self, times: f64) -> Side {
        Side { times, ..self }
    }

    /// The side's value in `report`. A missing table cell, sweep series or
    /// `NaN` panics: a claim must never pass (or stay a gap) vacuously.
    fn value(&self, table: &str, report: &Report) -> f64 {
        let raw = match self.term {
            Term::Const(value) => value,
            Term::Cell(method, column) => {
                let value = match report {
                    Report::Table(t) => t.cell(method, column),
                    Report::Sweep(s) => match column {
                        "mean F1" => s.mean_f1(method),
                        "points" => s.series(method).map(|s| s.points.len() as f64),
                        _ => None,
                    },
                };
                match value {
                    Some(v) if !v.is_nan() => v,
                    _ => panic!("ledger: {table} has no number at ({method:?}, {column:?})"),
                }
            }
        };
        raw * self.times + self.plus
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Gt,
    Ge,
}

/// `lhs op rhs` about registry table `table`, with the paper's wording.
#[derive(Debug, Clone, Copy)]
struct Claim {
    table: &'static str,
    text: &'static str,
    lhs: Side,
    op: Op,
    rhs: Side,
    status: Status,
}

const fn claim(
    table: &'static str,
    text: &'static str,
    lhs: Side,
    op: Op,
    rhs: Side,
    status: Status,
) -> Claim {
    Claim {
        table,
        text,
        lhs,
        op,
        rhs,
        status,
    }
}

use Op::{Ge, Gt};
use Status::{Gap, Holds};

/// Every ordering claim, grouped by table, checked at paper scale. Slack
/// (`plus`) and factors (`times`) are those the quick-scale shape tests in
/// `crates/eval` used; at quick scale the quick golden pins every cell
/// those tests read, so they are gone.
#[rustfmt::skip]
const LEDGER: &[Claim] = &[
    // Table 1: UniDM tops the chart, HoloClean trails, manual ≈ random FM.
    claim("table1", "UniDM tops HoloClean (Restaurant)", cell("UniDM", "Restaurant"), Gt, cell("HoloClean", "Restaurant"), Holds),
    claim("table1", "UniDM tops HoloClean (Buy)", cell("UniDM", "Buy"), Gt, cell("HoloClean", "Buy"), Holds),
    claim("table1", "UniDM tops CMI (Restaurant)", cell("UniDM", "Restaurant"), Ge, cell("CMI", "Restaurant"), Holds),
    claim("table1", "UniDM tops CMI (Buy)", cell("UniDM", "Buy"), Ge, cell("CMI", "Buy"), Holds),
    claim("table1", "UniDM tops IMP (Restaurant)", cell("UniDM", "Restaurant"), Ge, cell("IMP", "Restaurant"), Holds),
    claim("table1", "UniDM tops IMP (Buy)", cell("UniDM", "Buy"), Ge, cell("IMP", "Buy"), Gap),
    claim("table1", "UniDM tops FM (random) (Restaurant)", cell("UniDM", "Restaurant").plus(1e-9), Ge, cell("FM (random)", "Restaurant"), Holds),
    claim("table1", "UniDM tops FM (random) (Buy)", cell("UniDM", "Buy").plus(1e-9), Ge, cell("FM (random)", "Buy"), Holds),
    claim("table1", "UniDM tops FM (manual) (Restaurant)", cell("UniDM", "Restaurant"), Ge, cell("FM (manual)", "Restaurant"), Gap),
    claim("table1", "UniDM tops FM (manual) (Buy)", cell("UniDM", "Buy"), Ge, cell("FM (manual)", "Buy"), Holds),
    claim("table1", "UniDM tops UniDM (random) (Restaurant)", cell("UniDM", "Restaurant"), Ge, cell("UniDM (random)", "Restaurant"), Holds),
    claim("table1", "UniDM tops UniDM (random) (Buy)", cell("UniDM", "Buy"), Ge, cell("UniDM (random)", "Buy"), Gap),
    claim("table1", "FM (manual) rivals FM (random) (Restaurant)", cell("FM (manual)", "Restaurant").plus(10.0), Ge, cell("FM (random)", "Restaurant"), Holds),
    claim("table1", "FM (manual) rivals FM (random) (Buy)", cell("FM (manual)", "Buy").plus(10.0), Ge, cell("FM (random)", "Buy"), Holds),
    // Table 2: TDE collapses on the semantic-heavy dataset; UniDM beats TDE.
    claim("table2", "TDE does better on StackOverflow than Bing", cell("TDE", "StackOverflow"), Gt, cell("TDE", "Bing-QueryLogs"), Holds),
    claim("table2", "UniDM beats TDE (StackOverflow)", cell("UniDM", "StackOverflow"), Gt, cell("TDE", "StackOverflow"), Holds),
    claim("table2", "UniDM beats TDE (Bing-QueryLogs)", cell("UniDM", "Bing-QueryLogs"), Gt, cell("TDE", "Bing-QueryLogs"), Holds),
    // Table 3: UniDM beats HoloClean and rivals HoloDetect.
    claim("table3", "UniDM beats HoloClean (Hospital)", cell("UniDM", "Hospital"), Gt, cell("HoloClean", "Hospital"), Holds),
    claim("table3", "UniDM beats HoloClean (Adult)", cell("UniDM", "Adult"), Gt, cell("HoloClean", "Adult"), Holds),
    claim("table3", "UniDM rivals HoloDetect (Hospital)", cell("UniDM", "Hospital").plus(12.0), Ge, cell("HoloDetect", "Hospital"), Holds),
    claim("table3", "UniDM rivals HoloDetect (Adult)", cell("UniDM", "Adult").plus(12.0), Ge, cell("HoloDetect", "Adult"), Holds),
    claim("table3", "UniDM is strong (Hospital)", cell("UniDM", "Hospital"), Gt, num(70.0), Holds),
    claim("table3", "UniDM is strong (Adult)", cell("UniDM", "Adult"), Gt, num(70.0), Holds),
    // Table 4: Beer is easy; Amazon-Google is hard for zero-shot LLMs and
    // Ditto stays strong there through training.
    claim("table4", "UniDM finds Beer easier than Amazon-Google", cell("UniDM", "Beer"), Gt, cell("UniDM", "Amazon-Google"), Holds),
    claim("table4", "Ditto rivals UniDM on Amazon-Google", cell("Ditto", "Amazon-Google").plus(5.0), Gt, cell("UniDM", "Amazon-Google"), Holds),
    claim("table4", "UniDM nearly solves Beer", cell("UniDM", "Beer"), Gt, num(80.0), Holds),
    // Table 5: fine-tuning lifts small models towards the 175B model.
    claim("table5", "fine-tuning lifts GPT-J-6B", cell("GPT-J-6B (fine-tune)", "UniDM"), Gt, cell("GPT-J-6B", "UniDM").plus(15.0), Holds),
    claim("table5", "fine-tuned LLaMA2-7B approaches GPT-3-175B", cell("LLaMA2-7B (fine-tune)", "UniDM").plus(25.0), Gt, cell("GPT-3-175B", "UniDM"), Holds),
    // Table 6: GPT-4 ≥ GPT-3 ≥ 7B models, and 7B models stay usable.
    claim("table6", "GPT-4-Turbo rivals GPT-3-175B", cell("GPT-4-Turbo", "Restaurant").plus(8.0), Ge, cell("GPT-3-175B", "Restaurant"), Holds),
    claim("table6", "GPT-3-175B rivals LLaMA2-7B", cell("GPT-3-175B", "Restaurant").plus(8.0), Ge, cell("LLaMA2-7B", "Restaurant"), Holds),
    claim("table6", "LLaMA2-7B stays usable", cell("LLaMA2-7B", "Restaurant"), Gt, num(50.0), Holds),
    // Table 7: FM ≪ UniDM w/o retrieval ≪ UniDM, UniDM far above FM.
    claim("table7", "retrieval-free UniDM costs more than FM (Restaurant)", cell("UniDM (w/o retrieval)", "Restaurant"), Gt, cell("FM", "Restaurant"), Holds),
    claim("table7", "retrieval-free UniDM costs more than FM (Buy)", cell("UniDM (w/o retrieval)", "Buy"), Gt, cell("FM", "Buy"), Holds),
    claim("table7", "retrieval costs tokens (Restaurant)", cell("UniDM", "Restaurant"), Gt, cell("UniDM (w/o retrieval)", "Restaurant"), Holds),
    claim("table7", "retrieval costs tokens (Buy)", cell("UniDM", "Buy"), Gt, cell("UniDM (w/o retrieval)", "Buy"), Holds),
    claim("table7", "UniDM dwarfs FM (Restaurant)", cell("UniDM", "Restaurant"), Gt, cell("FM", "Restaurant").times(5.0), Holds),
    claim("table7", "UniDM dwarfs FM (Buy)", cell("UniDM", "Buy"), Gt, cell("FM", "Buy").times(5.0), Holds),
    // Table 8: the full configuration is best; each component helps.
    claim("table8", "full configuration beats none", cell("I+M+T+C", "Acc").plus(1e-9), Ge, cell("none", "Acc"), Holds),
    claim("table8", "full configuration beats I", cell("I+M+T+C", "Acc"), Ge, cell("I", "Acc"), Holds),
    claim("table8", "full configuration beats M", cell("I+M+T+C", "Acc"), Ge, cell("M", "Acc"), Holds),
    claim("table8", "full configuration beats I+M", cell("I+M+T+C", "Acc"), Ge, cell("I+M", "Acc"), Holds),
    claim("table8", "full configuration beats I+M+T", cell("I+M+T+C", "Acc"), Ge, cell("I+M+T", "Acc"), Gap),
    claim("table8", "instance-wise retrieval helps", cell("I", "Acc"), Ge, cell("none", "Acc"), Gap),
    claim("table8", "meta-wise retrieval helps", cell("M", "Acc"), Ge, cell("none", "Acc"), Holds),
    // Table 9: the same ablation on Buy.
    claim("table9", "full configuration beats none", cell("I+M+T+C", "Acc"), Ge, cell("none", "Acc"), Holds),
    claim("table9", "full configuration beats I", cell("I+M+T+C", "Acc"), Ge, cell("I", "Acc"), Holds),
    claim("table9", "full configuration beats M", cell("I+M+T+C", "Acc"), Ge, cell("M", "Acc"), Holds),
    claim("table9", "full configuration beats I+M", cell("I+M+T+C", "Acc"), Ge, cell("I+M", "Acc"), Holds),
    claim("table9", "full configuration beats I+M+T", cell("I+M+T+C", "Acc"), Ge, cell("I+M+T", "Acc"), Gap),
    claim("table9", "instance-wise retrieval helps", cell("I", "Acc"), Ge, cell("none", "Acc"), Holds),
    claim("table9", "meta-wise retrieval helps", cell("M", "Acc"), Ge, cell("none", "Acc"), Holds),
    // Table 10: prompt construction and parsing each help transformation.
    claim("table10", "T+C helps (StackOverflow)", cell("T+C", "StackOverflow").plus(5.0), Ge, cell("none", "StackOverflow"), Holds),
    claim("table10", "T+C helps (Bing-QueryLogs)", cell("T+C", "Bing-QueryLogs"), Ge, cell("none", "Bing-QueryLogs"), Holds),
    claim("table10", "target prompt construction helps (StackOverflow)", cell("T", "StackOverflow"), Ge, cell("none", "StackOverflow"), Holds),
    claim("table10", "target prompt construction helps (Bing-QueryLogs)", cell("T", "Bing-QueryLogs"), Ge, cell("none", "Bing-QueryLogs"), Holds),
    claim("table10", "context data parsing helps (StackOverflow)", cell("C", "StackOverflow"), Ge, cell("none", "StackOverflow"), Holds),
    claim("table10", "context data parsing helps (Bing-QueryLogs)", cell("C", "Bing-QueryLogs"), Ge, cell("none", "Bing-QueryLogs"), Holds),
    // Table 11: Evaporate-code < UniDM < Evaporate-code+.
    claim("table11", "the code ensemble beats one program", cell("Evaporate-code+", "NBA player"), Gt, cell("Evaporate-code", "NBA player"), Holds),
    claim("table11", "UniDM beats one program", cell("UniDM", "NBA player"), Gt, cell("Evaporate-code", "NBA player"), Holds),
    claim("table11", "the code ensemble rivals UniDM", cell("Evaporate-code+", "NBA player"), Gt, cell("UniDM", "NBA player").plus(-8.0), Holds),
    // Figure 5: UniDM dominates WarpGate across the sweep.
    claim("fig5", "UniDM beats WarpGate on mean F1", cell("UniDM", "mean F1"), Gt, cell("WarpGate", "mean F1"), Holds),
    claim("fig5", "UniDM is strong on mean F1", cell("UniDM", "mean F1"), Gt, num(0.7), Holds),
    claim("fig5", "UniDM is swept at all 13 thresholds", cell("UniDM", "points"), Ge, num(13.0), Holds),
    claim("fig5", "WarpGate is swept at all 13 thresholds", cell("WarpGate", "points"), Ge, num(13.0), Holds),
];

/// Checks `table`'s entries of `ledger` against its `report`: a `Holds`
/// entry must hold and a `Gap` entry must still fail. Names every entry
/// that does otherwise.
fn check_claims(table: &str, ledger: &[Claim], report: &Report) {
    let wrong: Vec<String> = ledger
        .iter()
        .filter(|c| c.table == table)
        .filter_map(|c| {
            let (lhs, rhs) = (c.lhs.value(table, report), c.rhs.value(table, report));
            let (holds, op) = match c.op {
                Gt => (lhs > rhs, ">"),
                Ge => (lhs >= rhs, ">="),
            };
            let verdict = match (c.status, holds) {
                (Holds, false) => "is marked Holds but fails",
                (Gap, true) => "is marked Gap but now holds: flip it to Holds",
                _ => return None,
            };
            Some(format!(
                "{table}: {:?} {verdict} ({lhs} {op} {rhs})",
                c.text
            ))
        })
        .collect();
    assert!(wrong.is_empty(), "fidelity ledger:\n{}", wrong.join("\n"));
}

#[test]
fn registry_names_are_unique_and_each_has_one_paper_test() {
    let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate registry name: {names:?}"
    );
    assert_eq!(
        PAPER_TESTS, names,
        "one paper test per registry entry, in order"
    );
}

#[test]
fn every_ledger_entry_names_a_registered_table() {
    for c in LEDGER {
        assert!(
            TABLES.iter().any(|(name, _)| *name == c.table),
            "{:?} names unregistered table {:?}",
            c.text,
            c.table
        );
    }
}

#[test]
#[should_panic(expected = "no number at (\"UniDMM\", \"Buy\")")]
fn a_misspelled_method_panics_rather_than_counting_as_a_gap() {
    let typo = claim(
        "table1",
        "typo",
        cell("UniDMM", "Buy"),
        Ge,
        cell("IMP", "Buy"),
        Gap,
    );
    let mut table = unidm_eval::report::TableReport::new("Table 1.", vec!["Buy".into()]);
    table.push("UniDM", vec![92.7]);
    table.push("IMP", vec![93.3]);
    check_claims("table1", &[typo], &Report::Table(table));
}

#[test]
fn a_golden_mismatch_names_the_cell() {
    let block = paper_blocks()[0];
    let edited = block.replace(
        "UniDM                   96.7",
        "UniDM                   96.8",
    );
    assert_ne!(edited, block, "the edit hits UniDM / Restaurant");
    let message = mismatch("drift", &edited, 1, block).expect("the blocks differ");
    for part in ["Table 1", "UniDM", "Restaurant", "96.7", "96.8"] {
        assert!(message.contains(part), "{part:?} missing from:\n{message}");
    }
    assert!(
        message.contains("cell: Table 1, UniDM, Restaurant: golden 96.8, actual 96.7"),
        "{message}"
    );
}

#[test]
fn a_fig5_mismatch_names_the_system_and_threshold() {
    let block = paper_blocks()[11];
    let edited = block.replacen("0.904     1.000     0.949", "0.904     1.000     0.950", 1);
    let message = mismatch("drift", &edited, 1, block).expect("the blocks differ");
    assert!(
        message
            .contains("cell: Figure 5, WarpGate at threshold 0.40, F1: golden 0.950, actual 0.949"),
        "{message}"
    );
}
