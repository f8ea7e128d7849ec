//! Error-detection benchmarks: Hospital and Adult.
//!
//! Following the paper (and the HoloClean/HoloDetect line of work), errors
//! amount to 5% of cells and ground truth is available for every cell.
//! Injected error kinds mirror the real benchmarks: character typos
//! ("mxrshxll"), out-of-domain category values, and numeric outliers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use unidm_tablestore::{Table, Value};
use unidm_world::{census, names, World};

/// Ground truth for one labelled cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledCell {
    /// Row index.
    pub row: usize,
    /// Attribute name.
    pub attr: String,
    /// Whether the cell currently holds an injected error.
    pub is_error: bool,
    /// The clean value (equal to the current value when `is_error == false`).
    pub clean: Value,
}

/// An error-detection benchmark: a dirtied table plus per-cell labels.
#[derive(Debug, Clone)]
pub struct ErrorDetectionDataset {
    /// The dirtied table.
    pub table: Table,
    /// Labels for every evaluated cell.
    pub cells: Vec<LabeledCell>,
    /// Attributes under evaluation.
    pub attrs: Vec<String>,
}

impl ErrorDetectionDataset {
    /// Number of labelled cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells are labelled.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Fraction of labelled cells that are errors.
    pub fn error_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| c.is_error).count() as f64 / self.cells.len() as f64
    }
}

/// Builds the Hospital benchmark with `error_rate` (paper: 0.05) typos.
pub fn hospital(world: &World, seed: u64, error_rate: f64) -> ErrorDetectionDataset {
    let mut t = Table::builder("hospital")
        .columns([
            "name",
            "address",
            "city",
            "county",
            "state",
            "zip",
            "phone",
            "measure_code",
        ])
        .build();
    for h in &world.hospital.hospitals {
        t.push_row(vec![
            Value::text(&h.name),
            Value::text(&h.address),
            Value::text(&h.city),
            Value::text(&h.county),
            Value::text(&h.state),
            Value::text(&h.zip),
            Value::text(&h.phone),
            Value::text(&h.measure_code),
        ])
        .expect("schema matches");
    }
    let attrs = ["city", "county", "measure_code", "address"];
    inject_typos(t, &attrs, seed, error_rate)
}

/// Builds the Adult benchmark with `n_rows` respondents and `error_rate`
/// errors (typos in categories, plus occasional numeric outliers in `age`).
pub fn adult(world: &World, seed: u64, n_rows: usize, error_rate: f64) -> ErrorDetectionDataset {
    let _ = world; // census domains are global, but keep the uniform signature
    let mut rng = StdRng::seed_from_u64(seed ^ 0xADu64);
    let mut t = Table::builder("adult")
        .columns([
            "age",
            "workclass",
            "education",
            "marital_status",
            "occupation",
            "sex",
            "hours_per_week",
            "income",
        ])
        .build();
    for _ in 0..n_rows {
        let p = census::sample_person(&mut rng);
        t.push_row(vec![
            Value::Int(i64::from(p.age)),
            Value::text(&p.workclass),
            Value::text(&p.education),
            Value::text(&p.marital_status),
            Value::text(&p.occupation),
            Value::text(&p.sex),
            Value::Int(i64::from(p.hours_per_week)),
            Value::text(&p.income),
        ])
        .expect("schema matches");
    }
    let attrs = ["age", "workclass", "education", "occupation", "sex"];
    inject_typos(t, &attrs, seed, error_rate)
}

fn inject_typos(
    mut table: Table,
    attrs: &[&str],
    seed: u64,
    error_rate: f64,
) -> ErrorDetectionDataset {
    assert!((0.0..1.0).contains(&error_rate), "rate must be in [0,1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells = Vec::new();
    let mut all: Vec<(usize, &str)> = Vec::new();
    for row in 0..table.row_count() {
        for attr in attrs {
            all.push((row, attr));
        }
    }
    all.shuffle(&mut rng);
    let n_errors = ((all.len() as f64) * error_rate).round() as usize;
    for (i, (row, attr)) in all.into_iter().enumerate() {
        let clean = table.cell_value(row, attr).expect("in range");
        let is_error = i < n_errors && !clean.is_null();
        if is_error {
            let dirty = corrupt(&mut rng, &clean);
            table.set_cell(row, attr, dirty).expect("in range");
        }
        cells.push(LabeledCell {
            row,
            attr: attr.to_string(),
            is_error,
            clean,
        });
    }
    let attrs = attrs.iter().map(|s| s.to_string()).collect();
    ErrorDetectionDataset {
        table,
        cells,
        attrs,
    }
}

fn corrupt<R: Rng>(rng: &mut R, clean: &Value) -> Value {
    match clean {
        Value::Int(i) => {
            // Numeric outlier: push far outside the plausible range.
            Value::Int(i * 10 + i64::from(rng.gen_range(1..9u8)))
        }
        v => {
            let s = v.to_string();
            let typoed = names::typo(rng, &s);
            if typoed == s {
                Value::text(format!("{s}x"))
            } else {
                Value::text(typoed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(7)
    }

    #[test]
    fn hospital_error_rate_close() {
        let ds = hospital(&world(), 3, 0.05);
        assert!(
            (ds.error_rate() - 0.05).abs() < 0.01,
            "rate {}",
            ds.error_rate()
        );
    }

    #[test]
    fn errors_differ_from_clean() {
        let ds = hospital(&world(), 3, 0.05);
        for c in &ds.cells {
            let current = ds.table.cell_value(c.row, &c.attr).unwrap();
            if c.is_error {
                assert_ne!(current, c.clean);
            } else {
                assert_eq!(current, c.clean);
            }
        }
    }

    #[test]
    fn adult_rows_and_labels() {
        let ds = adult(&world(), 3, 200, 0.05);
        assert_eq!(ds.table.row_count(), 200);
        assert_eq!(ds.cells.len(), 200 * 5);
    }

    #[test]
    fn adult_numeric_outliers_large() {
        let ds = adult(&world(), 3, 400, 0.05);
        for c in &ds.cells {
            if c.is_error && c.attr == "age" {
                let v = ds.table.cell_value(c.row, "age").unwrap().as_f64().unwrap();
                assert!(v > 90.0, "outlier age {v}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let w = world();
        let a = hospital(&w, 9, 0.05);
        let b = hospital(&w, 9, 0.05);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn bad_rate_panics() {
        let _ = hospital(&world(), 3, 1.5);
    }
}
