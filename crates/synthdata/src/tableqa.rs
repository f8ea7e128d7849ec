//! Table question answering (appendix C): WikiTableQuestions-style medal
//! tables with aggregation questions.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use unidm_tablestore::{Table, Value};
use unidm_world::World;

/// One question over the table with its ground-truth answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TableQaCase {
    /// Natural-language question.
    pub question: String,
    /// Ground-truth answer.
    pub answer: Value,
    /// The attributes a perfect retrieval would select.
    pub relevant_attrs: Vec<String>,
    /// The row indices a perfect retrieval would select.
    pub relevant_rows: Vec<usize>,
}

/// A TableQA benchmark: one table, several questions.
#[derive(Debug, Clone)]
pub struct TableQaDataset {
    /// The table questions are asked against.
    pub table: Table,
    /// The questions.
    pub questions: Vec<TableQaCase>,
}

/// Builds a medals table (as in the paper's Figure 3) over `n` nations and
/// generates `n_questions` aggregation questions.
pub fn medals(world: &World, seed: u64, n: usize, n_questions: usize) -> TableQaDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::builder("medals")
        .columns(["rank", "nation", "gold", "silver", "bronze", "total"])
        .build();
    let mut countries: Vec<&str> = world
        .geo
        .countries
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    countries.shuffle(&mut rng);
    countries.truncate(n);
    let mut rows: Vec<(String, i64, i64, i64)> = countries
        .iter()
        .map(|c| {
            let g = rng.gen_range(0..6i64);
            let s = rng.gen_range(0..6i64);
            let b = rng.gen_range(0..6i64);
            (c.to_string(), g, s, b)
        })
        .collect();
    rows.sort_by_key(|(_, g, s, b)| std::cmp::Reverse((*g, *s, *b)));
    for (i, (nation, g, s, b)) in rows.iter().enumerate() {
        t.push_row(vec![
            Value::Int((i + 1) as i64),
            Value::text(nation),
            Value::Int(*g),
            Value::Int(*s),
            Value::Int(*b),
            Value::Int(g + s + b),
        ])
        .expect("schema matches");
    }

    let mut questions = Vec::with_capacity(n_questions);
    let medal_cols = ["gold", "silver", "bronze"];
    for _ in 0..n_questions {
        let col = *medal_cols.choose(&mut rng).expect("ne");
        let i = rng.gen_range(0..rows.len());
        let j = loop {
            let j = rng.gen_range(0..rows.len());
            if j != i {
                break j;
            }
        };
        let (na, ..) = &rows[i];
        let (nb, ..) = &rows[j];
        let va = t
            .cell_value(i, col)
            .expect("in range")
            .as_f64()
            .expect("int");
        let vb = t
            .cell_value(j, col)
            .expect("in range")
            .as_f64()
            .expect("int");
        questions.push(TableQaCase {
            question: format!("how many {col} medals did {na} and {nb} total?"),
            answer: Value::Int((va + vb) as i64),
            relevant_attrs: vec!["nation".to_string(), col.to_string()],
            relevant_rows: vec![i, j],
        });
    }
    TableQaDataset {
        table: t,
        questions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_table_and_questions() {
        let w = World::generate(7);
        let ds = medals(&w, 3, 8, 20);
        assert_eq!(ds.table.row_count(), 8);
        assert_eq!(ds.questions.len(), 20);
    }

    #[test]
    fn answers_consistent_with_table() {
        let w = World::generate(7);
        let ds = medals(&w, 3, 8, 30);
        for q in &ds.questions {
            let col = &q.relevant_attrs[1];
            let sum: f64 = q
                .relevant_rows
                .iter()
                .map(|&r| ds.table.cell_value(r, col).unwrap().as_f64().unwrap())
                .sum();
            assert_eq!(q.answer.as_f64().unwrap(), sum);
        }
    }

    #[test]
    fn total_column_consistent() {
        let w = World::generate(7);
        let ds = medals(&w, 5, 10, 1);
        for row in 0..ds.table.row_count() {
            let g = ds.table.cell_value(row, "gold").unwrap().as_f64().unwrap();
            let s = ds
                .table
                .cell_value(row, "silver")
                .unwrap()
                .as_f64()
                .unwrap();
            let b = ds
                .table
                .cell_value(row, "bronze")
                .unwrap()
                .as_f64()
                .unwrap();
            let tot = ds.table.cell_value(row, "total").unwrap().as_f64().unwrap();
            assert_eq!(g + s + b, tot);
        }
    }

    #[test]
    fn ranks_descending_by_gold() {
        let w = World::generate(7);
        let ds = medals(&w, 5, 10, 1);
        let golds: Vec<f64> = (0..ds.table.row_count())
            .map(|r| ds.table.cell_value(r, "gold").unwrap().as_f64().unwrap())
            .collect();
        assert!(golds.windows(2).all(|w| w[0] >= w[1]));
    }
}
