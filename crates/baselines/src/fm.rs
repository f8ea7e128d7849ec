//! FM — "Can foundation models wrangle your data?" (Narayan et al. 2022).
//!
//! FM drives the same LLM with hand-built few-shot prompts: serialized
//! demonstration records plus a short question. Context demonstrations are
//! chosen either at random (`ContextStrategy::Random`) or by the guiding
//! rules the paper calls "manual" — in practice, nearest neighbours by
//! lexical similarity (`ContextStrategy::Manual`). Only serialization is
//! applied; there is no context parsing and no cloze construction.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    render_fm_entity_resolution, render_fm_error_detection, render_fm_imputation,
    render_fm_transformation, SerializedRecord,
};
use unidm_llm::{LanguageModel, LlmError};
use unidm_tablestore::Table;
use unidm_text::tfidf::{TfIdf, TfIdfVector};

/// How FM selects its demonstration records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextStrategy {
    /// Uniformly sampled demonstrations ("FM (random)").
    Random,
    /// Similarity-selected demonstrations ("FM (manual)": the costly
    /// human-guided selection, approximated by nearest neighbours).
    Manual,
}

/// The FM baseline bound to a language model.
#[derive(Clone)]
pub struct Fm<'a> {
    llm: &'a dyn LanguageModel,
    strategy: ContextStrategy,
    demos: usize,
    seed: u64,
    /// The manual strategy's imputation pool of the last table and
    /// attribute imputed.
    pool: RefCell<Option<ImputePool>>,
}

/// FM (manual)'s imputation demonstrations for one table version and
/// target attribute: the rows whose target is known, serialized, fitted
/// and vectorized once, since every query of a dataset (a row whose target
/// is missing) draws from the same pool.
#[derive(Debug, Clone)]
struct ImputePool {
    version: u64,
    attr: String,
    /// Row indices, ascending.
    rows: Vec<usize>,
    fitted: Fitted,
}

/// A demonstration pool's serializations, fitted once: the TF-IDF model
/// and each member's vector.
#[derive(Debug, Clone)]
struct Fitted {
    model: TfIdf,
    vectors: Vec<TfIdfVector>,
}

impl Fitted {
    fn fit(texts: &[String]) -> Fitted {
        let model = TfIdf::fit(texts.iter().map(String::as_str));
        let vectors = texts.iter().map(|t| model.vector(t)).collect();
        Fitted { model, vectors }
    }

    /// Positions of the `k` members most similar to `query`, best first,
    /// ties in pool order.
    fn nearest(&self, query: &str, k: usize) -> impl Iterator<Item = usize> {
        let query = self.model.vector(query);
        let mut scored: Vec<(f64, usize)> = (self.vectors.iter().enumerate())
            .map(|(i, v)| (TfIdfVector::cosine(&query, v), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().take(k).map(|(_, i)| i)
    }
}

impl std::fmt::Debug for Fm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fm")
            .field("llm", &self.llm.name())
            .field("strategy", &self.strategy)
            .field("demos", &self.demos)
            .finish()
    }
}

impl<'a> Fm<'a> {
    /// Creates an FM runner with the paper's default of 3 demonstrations.
    pub fn new(llm: &'a dyn LanguageModel, strategy: ContextStrategy, seed: u64) -> Self {
        Fm {
            llm,
            strategy,
            demos: 3,
            seed,
            pool: RefCell::new(None),
        }
    }

    /// Imputes `attr` of row `row` in `table`.
    ///
    /// # Errors
    ///
    /// Propagates LLM and table errors.
    pub fn impute(&self, table: &Table, row: usize, attr: &str) -> Result<String, FmError> {
        let record = serialize_row(table, row, attr)?;
        table.schema().require(attr).map_err(FmError::Table)?;
        let chosen = match self.strategy {
            ContextStrategy::Manual => self.nearest_rows(table, row, attr, &record.render()),
            ContextStrategy::Random => self.random(&known_rows(table, Some(row), attr)),
        };
        let mut demos = Vec::with_capacity(chosen.len());
        for r in chosen {
            let demo_rec = serialize_row(table, r, attr)?;
            let answer = table
                .cell_value(r, attr)
                .map_err(FmError::Table)?
                .to_string();
            demos.push((demo_rec, answer));
        }
        let prompt = render_fm_imputation(&demos, &record, attr);
        Ok(self
            .llm
            .complete(&prompt)
            .map_err(FmError::Llm)?
            .text
            .clone())
    }

    /// Judges whether two records co-refer, using `pool` for demonstrations.
    ///
    /// # Errors
    ///
    /// Propagates LLM errors.
    pub fn resolve(
        &self,
        a: &SerializedRecord,
        b: &SerializedRecord,
        pool: &[(SerializedRecord, SerializedRecord, bool)],
    ) -> Result<bool, FmError> {
        let query = format!("{} {}", a.render(), b.render());
        let indices: Vec<usize> = (0..pool.len()).collect();
        let chosen = self.select(
            &indices,
            |i| format!("{} {}", pool[*i].0.render(), pool[*i].1.render()),
            &query,
        );
        let demos: Vec<(SerializedRecord, SerializedRecord, bool)> =
            chosen.into_iter().map(|i| pool[i].clone()).collect();
        let prompt = render_fm_entity_resolution(&demos, a, b);
        let reply = self.llm.complete(&prompt).map_err(FmError::Llm)?;
        Ok(reply.text.trim().eq_ignore_ascii_case("yes"))
    }

    /// Judges whether cell (`row`, `attr`) holds an error; demonstrations
    /// are `(attr, value, is_error)` triples.
    ///
    /// # Errors
    ///
    /// Propagates LLM and table errors.
    pub fn detect_error(
        &self,
        table: &Table,
        row: usize,
        attr: &str,
        demos: &[(String, String, bool)],
    ) -> Result<bool, FmError> {
        let value = table
            .cell_value(row, attr)
            .map_err(FmError::Table)?
            .to_string();
        let prompt = render_fm_error_detection(demos, attr, &value);
        let reply = self.llm.complete(&prompt).map_err(FmError::Llm)?;
        Ok(reply.text.trim().eq_ignore_ascii_case("yes"))
    }

    /// Transforms `input` following `examples`.
    ///
    /// # Errors
    ///
    /// Propagates LLM errors.
    pub fn transform(&self, examples: &[(String, String)], input: &str) -> Result<String, FmError> {
        let prompt = render_fm_transformation(examples, input);
        Ok(self
            .llm
            .complete(&prompt)
            .map_err(FmError::Llm)?
            .text
            .clone())
    }

    /// Selects up to `self.demos` pool members per the strategy.
    fn select<T: Copy>(&self, pool: &[T], text_of: impl Fn(&T) -> String, query: &str) -> Vec<T> {
        match self.strategy {
            ContextStrategy::Random => self.random(pool),
            ContextStrategy::Manual => {
                let texts: Vec<String> = pool.iter().map(text_of).collect();
                let nearest = Fitted::fit(&texts).nearest(query, self.demos);
                nearest.map(|i| pool[i]).collect()
            }
        }
    }

    /// Up to `self.demos` pool members in seeded random order.
    fn random<T: Copy>(&self, pool: &[T]) -> Vec<T> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut v: Vec<T> = pool.to_vec();
        v.shuffle(&mut rng);
        v.truncate(self.demos);
        v
    }

    /// FM (manual)'s imputation demonstrations for `row`: the rows with a
    /// known `attr` whose serializations are nearest `query`, from the
    /// pool kept for `table`'s version and `attr`. A row whose own target
    /// is known leaves a pool of one row fewer, fitted afresh.
    fn nearest_rows(&self, table: &Table, row: usize, attr: &str, query: &str) -> Vec<usize> {
        let mut memo = self.pool.borrow_mut();
        let kept = memo
            .as_ref()
            .is_some_and(|p| p.version == table.version() && p.attr == attr);
        if !kept {
            let rows = known_rows(table, None, attr);
            let texts: Vec<String> = rows.iter().map(|&r| row_text(table, r, attr)).collect();
            *memo = Some(ImputePool {
                version: table.version(),
                attr: attr.to_string(),
                rows,
                fitted: Fitted::fit(&texts),
            });
        }
        let pool = memo.as_ref().expect("filled above");
        if pool.rows.binary_search(&row).is_ok() {
            let rows = known_rows(table, Some(row), attr);
            return self.select(&rows, |&r| row_text(table, r, attr), query);
        }
        let nearest = pool.fitted.nearest(query, self.demos);
        nearest.map(|i| pool.rows[i]).collect()
    }
}

/// The rows of `table` with a known `attr`, `row` left out: FM's
/// imputation demonstration pool.
fn known_rows(table: &Table, row: Option<usize>, attr: &str) -> Vec<usize> {
    (0..table.row_count())
        .filter(|&r| Some(r) != row)
        .filter(|&r| table.cell_value(r, attr).is_ok_and(|v| !v.is_null()))
        .collect()
}

/// Row `r` as a demonstration is scored: serialized without `attr`.
fn row_text(table: &Table, r: usize, attr: &str) -> String {
    serialize_row(table, r, attr).unwrap_or_default().render()
}

/// Errors from FM runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FmError {
    /// The language model failed.
    Llm(LlmError),
    /// A table reference failed.
    Table(unidm_tablestore::TableError),
}

impl std::fmt::Display for FmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FmError::Llm(e) => write!(f, "llm error: {e}"),
            FmError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for FmError {}

/// Serializes one row without the target attribute (nulls skipped).
fn serialize_row(table: &Table, row: usize, skip_attr: &str) -> Result<SerializedRecord, FmError> {
    let rec = table.row_at(row).map_err(FmError::Table)?;
    let mut pairs = Vec::new();
    for (i, name) in table.schema().names().enumerate() {
        if name.eq_ignore_ascii_case(skip_attr) {
            continue;
        }
        let v = rec.get(i).map(|v| v.to_string()).unwrap_or_default();
        if !v.is_empty() {
            pairs.push((name.to_string(), v));
        }
    }
    Ok(SerializedRecord::new(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_synthdata::imputation;
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    #[test]
    fn fm_manual_imputes_restaurants() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 3, 20);
        let fm = Fm::new(&llm, ContextStrategy::Manual, 5);
        let mut correct = 0;
        for t in &ds.targets {
            let out = fm.impute(&ds.table, t.row, "city").unwrap();
            if out.to_lowercase() == t.truth.to_string().to_lowercase() {
                correct += 1;
            }
        }
        assert!(correct >= 12, "manual FM should be decent: {correct}/20");
    }

    #[test]
    fn fm_manual_beats_random_on_average() {
        let (world, llm) = setup();
        let ds = imputation::restaurant(&world, 4, 40);
        let run = |strategy| {
            let fm = Fm::new(&llm, strategy, 5);
            ds.targets
                .iter()
                .filter(|t| {
                    fm.impute(&ds.table, t.row, "city").unwrap().to_lowercase()
                        == t.truth.to_string().to_lowercase()
                })
                .count()
        };
        let manual = run(ContextStrategy::Manual);
        let random = run(ContextStrategy::Random);
        assert!(manual >= random, "manual {manual} vs random {random}");
    }

    /// The pool kept across queries picks what a fresh fit over the rows
    /// other than the query's would, for every row: the targets (their
    /// city missing, so the kept pool is exactly theirs) and the rows
    /// whose city is known (which leave their own row out).
    #[test]
    fn the_kept_pool_picks_what_a_fresh_fit_picks_for_every_row() {
        let (world, llm) = setup();
        // The first 48 restaurants, every fourth city missing.
        let full = imputation::restaurant_table(&world);
        let city = full.schema().require("city").unwrap();
        let mut table = Table::new("restaurant", full.schema().clone());
        for r in 0..48 {
            let mut values = full.row_at(r).unwrap().into_values();
            if r % 4 == 1 {
                values[city] = unidm_tablestore::Value::Null;
            }
            table.push_row(values).unwrap();
        }
        let table = &table;
        let fm = Fm::new(&llm, ContextStrategy::Manual, 5);
        let mut known = 0;
        for row in 0..table.row_count() {
            let query = serialize_row(table, row, "city").unwrap().render();
            let fresh = fm.select(
                &known_rows(table, Some(row), "city"),
                |&r| row_text(table, r, "city"),
                &query,
            );
            assert_eq!(fresh.len(), 3);
            assert_eq!(
                fm.nearest_rows(table, row, "city", &query),
                fresh,
                "row {row}"
            );
            known += usize::from(!table.cell_value(row, "city").unwrap().is_null());
        }
        assert!(known > 0 && known < table.row_count(), "{known} known");
        assert!(fm.pool.borrow().is_some(), "the pool was kept");
    }

    #[test]
    fn fm_transform() {
        let (_, llm) = setup();
        let fm = Fm::new(&llm, ContextStrategy::Random, 5);
        let out = fm
            .transform(
                &[
                    ("20000101".to_string(), "2000-01-01".to_string()),
                    ("19991231".to_string(), "1999-12-31".to_string()),
                ],
                "20210315",
            )
            .unwrap();
        assert_eq!(out, "2021-03-15");
    }

    #[test]
    fn fm_detect_error() {
        let (world, llm) = setup();
        let ds = unidm_synthdata::errors::hospital(&world, 3, 0.05);
        let fm = Fm::new(&llm, ContextStrategy::Random, 5);
        let demos = vec![
            ("county".to_string(), "mxrshxll".to_string(), true),
            ("city".to_string(), "Boston".to_string(), false),
        ];
        // The labelled cells are ordered errors-first; evaluate a clean
        // slice from the tail and a dirty slice from the head.
        let mut clean_flagged = 0;
        for c in ds.cells.iter().rev().take(30) {
            assert!(!c.is_error, "tail cells are clean by construction");
            if fm.detect_error(&ds.table, c.row, &c.attr, &demos).unwrap() {
                clean_flagged += 1;
            }
        }
        assert!(
            clean_flagged < 10,
            "clean cells mostly pass: {clean_flagged}/30"
        );
        let mut dirty_flagged = 0;
        for c in ds.cells.iter().take(30) {
            assert!(c.is_error, "head cells are errors by construction");
            if fm.detect_error(&ds.table, c.row, &c.attr, &demos).unwrap() {
                dirty_flagged += 1;
            }
        }
        assert!(
            dirty_flagged > 20,
            "errors mostly caught: {dirty_flagged}/30"
        );
    }

    #[test]
    fn fm_resolve_runs() {
        let (world, llm) = setup();
        let ds = unidm_synthdata::matching::beer(&world, 3);
        let fm = Fm::new(&llm, ContextStrategy::Manual, 5);
        let pool: Vec<_> = ds
            .train
            .iter()
            .map(|p| (rec_of(&ds, &p.a), rec_of(&ds, &p.b), p.is_match))
            .collect();
        let p = &ds.pairs[0];
        let _ = fm
            .resolve(&rec_of(&ds, &p.a), &rec_of(&ds, &p.b), &pool)
            .unwrap();
    }

    fn rec_of(
        ds: &unidm_synthdata::MatchingDataset,
        r: &unidm_tablestore::Record,
    ) -> SerializedRecord {
        SerializedRecord::new(
            ds.schema
                .names()
                .zip(r.values())
                .filter(|(_, v)| !v.is_null())
                .map(|(a, v)| (a.to_string(), v.to_string()))
                .collect(),
        )
    }
}
