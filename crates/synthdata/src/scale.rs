//! Scale-parameterized synthetic lake generator for out-of-core benchmarks.
//!
//! The evaluation datasets ([`crate::imputation`] etc.) are sized like the
//! paper's benchmarks — hundreds to thousands of rows. This module
//! generates a *users* table at whatever scale the out-of-core machinery
//! needs (10^4 rows in CI smoke runs, 10^7 locally), fully determined by
//! `(rows, seed)`:
//!
//! * each row is a pure function of its index, so [`ScaleSpec::users_table`]
//!   (in-memory, chunked) and [`ScaleSpec::users_segment`] (drawn into one
//!   reused row and streamed straight to a spill segment, whose writer
//!   holds one chunk's dictionaries and words, never its rows) produce
//!   identical logical rows at any scale;
//! * low-cardinality columns (`city`, `country`, `plan`) exercise
//!   dictionary encoding, `user_id`/`age` exercise integer packing, and
//!   `name` is high-cardinality text;
//! * every tenth-ish row ([`ScaleSpec::is_city_missing`]) has a null
//!   `city`, giving the streaming benchmark a deterministic imputation
//!   workload via [`ScaleSpec::target_rows`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use unidm_tablestore::{Schema, SegmentWriter, Table, TableError, Value};
use unidm_world::names;

/// The generated table's name.
pub const TABLE_NAME: &str = "users_scale";

/// (city, country) pool: small enough to dictionary-encode tightly, large
/// enough that imputation is not trivial.
const CITIES: &[(&str, &str)] = &[
    ("Florence", "Italy"),
    ("Milan", "Italy"),
    ("Alicante", "Spain"),
    ("Seville", "Spain"),
    ("Antwerp", "Belgium"),
    ("Ghent", "Belgium"),
    ("Copenhagen", "Denmark"),
    ("Aarhus", "Denmark"),
    ("Porto", "Portugal"),
    ("Lisbon", "Portugal"),
    ("Graz", "Austria"),
    ("Vienna", "Austria"),
];

const PLANS: &[&str] = &["free", "pro", "team", "enterprise"];

/// Empties `cell` as a text cell, keeping its buffer if it is one, and
/// returns the buffer to write into.
fn text_cell(cell: &mut Value) -> &mut String {
    if !matches!(cell, Value::Text(_)) {
        *cell = Value::Text(String::new());
    }
    let Value::Text(s) = cell else {
        unreachable!("made text above")
    };
    s.clear();
    s
}

/// Parameters of a synthetic scale lake: row count, seed, and the
/// chunk partition size of the generated table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Number of rows to generate.
    pub rows: usize,
    /// Seed all row content derives from.
    pub seed: u64,
    /// Rows per sealed chunk of the generated table.
    pub chunk_rows: usize,
}

impl ScaleSpec {
    /// A spec with the default chunk size (1024 rows per chunk).
    pub fn new(rows: usize, seed: u64) -> Self {
        ScaleSpec {
            rows,
            seed,
            chunk_rows: 1024,
        }
    }

    /// Overrides the chunk partition size.
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows.max(1);
        self
    }

    /// The generated table's schema:
    /// `user_id, name, city, country, plan, age`.
    pub fn schema() -> Schema {
        Schema::from_names(["user_id", "name", "city", "country", "plan", "age"])
            .expect("static names are distinct")
    }

    /// True if row `i` is generated with a null `city` (an imputation
    /// target). Deterministic in `(seed, i)`.
    pub fn is_city_missing(&self, i: usize) -> bool {
        self.row_rng(i).gen_range(0..10usize) == 7
    }

    /// Generates row `i` — a pure function of `(seed, i)`, so any two
    /// materializations (in-memory, spilled, partial) agree cell-for-cell.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let mut row = Vec::new();
        self.row_into(i, &mut row);
        row
    }

    /// Draws row `i` into `row` (the same draws as [`ScaleSpec::row`]),
    /// reusing its cells: a text cell that stays text keeps its buffer, so
    /// drawing row after row into one `Vec` allocates only when a cell
    /// comes back from null or outgrows its buffer.
    pub fn row_into(&self, i: usize, row: &mut Vec<Value>) {
        let mut rng = self.row_rng(i);
        let missing = rng.gen_range(0..10usize) == 7;
        let (city, country) = CITIES[rng.gen_range(0..CITIES.len())];
        row.resize(6, Value::Null);
        row[0] = Value::Int(i as i64);
        names::person_into(&mut rng, text_cell(&mut row[1]));
        if missing {
            row[2] = Value::Null;
        } else {
            text_cell(&mut row[2]).push_str(city);
        }
        text_cell(&mut row[3]).push_str(country);
        text_cell(&mut row[4]).push_str(PLANS[rng.gen_range(0..PLANS.len())]);
        row[5] = Value::Int(rng.gen_range(18..=79i64));
    }

    fn row_rng(&self, i: usize) -> StdRng {
        // Golden-ratio mix decorrelates adjacent row seeds under SplitMix.
        StdRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Builds the table in memory (chunked columnar).
    /// Fine up to ~10^6 rows; beyond that, prefer
    /// [`ScaleSpec::users_segment`].
    pub fn users_table(&self) -> Table {
        let mut t = Table::with_chunk_rows(TABLE_NAME, Self::schema(), self.chunk_rows);
        for i in 0..self.rows {
            t.push_row(self.row(i)).expect("generated arity matches");
        }
        t
    }

    /// Streams the table straight into a spill segment at `path` and
    /// returns the read-only spilled table paging at most `budget` chunks.
    /// Every row is drawn into one reused row ([`ScaleSpec::row_into`]) and
    /// encoded as it arrives; the writer holds one chunk's dictionaries and
    /// words, never its rows, so memory does not grow with `self.rows`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure.
    pub fn users_segment(
        &self,
        path: impl AsRef<Path>,
        budget: usize,
    ) -> Result<Table, TableError> {
        let mut writer = SegmentWriter::create(path, TABLE_NAME, Self::schema(), self.chunk_rows)?;
        let mut row = Vec::new();
        for i in 0..self.rows {
            self.row_into(i, &mut row);
            writer.push_row(&row)?;
        }
        writer.finish(budget)
    }

    /// Row indices with a missing `city`, in order — the deterministic
    /// imputation workload for streaming benchmarks. The iterator is lazy:
    /// consuming it allocates nothing per row beyond the draw.
    pub fn target_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).filter(move |&i| self.is_city_missing(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministic() {
        let spec = ScaleSpec::new(1000, 42);
        assert_eq!(spec.row(17), spec.row(17));
        assert_eq!(spec.row(17), ScaleSpec::new(5000, 42).row(17));
        assert_ne!(spec.row(17), ScaleSpec::new(1000, 43).row(17));
    }

    #[test]
    fn table_matches_per_row_generation() {
        let spec = ScaleSpec::new(300, 7).with_chunk_rows(64);
        let t = spec.users_table();
        assert_eq!(t.row_count(), 300);
        assert_eq!(t.chunk_count(), 4);
        for i in [0, 63, 64, 299] {
            assert_eq!(t.row_at(i).unwrap().values(), spec.row(i).as_slice());
        }
    }

    #[test]
    fn segment_matches_in_memory() {
        let spec = ScaleSpec::new(500, 11).with_chunk_rows(128);
        let mut path = std::env::temp_dir();
        path.push(format!("unidm-scale-seg-{}.seg", std::process::id()));
        let spilled = spec.users_segment(&path, 2).unwrap();
        assert!(spilled.is_spilled());
        assert!(spilled.same_content(&spec.users_table()).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn targets_have_missing_city() {
        let spec = ScaleSpec::new(2000, 3);
        let t = spec.users_table();
        let targets: Vec<usize> = spec.target_rows().collect();
        assert!(
            targets.len() > 100 && targets.len() < 400,
            "~10% of rows should be targets, got {}",
            targets.len()
        );
        for &r in targets.iter().take(20) {
            assert!(t.cell_value(r, "city").unwrap().is_null());
        }
        let non_target = (0..2000).find(|i| !spec.is_city_missing(*i)).unwrap();
        assert!(!t.cell_value(non_target, "city").unwrap().is_null());
    }
}
