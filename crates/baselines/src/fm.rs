//! FM — "Can foundation models wrangle your data?" (Narayan et al. 2022).
//!
//! FM drives the same LLM with hand-built few-shot prompts: serialized
//! demonstration records plus a short question. Context demonstrations are
//! chosen either at random (`ContextStrategy::Random`) or by the guiding
//! rules the paper calls "manual" — in practice, nearest neighbours by
//! lexical similarity (`ContextStrategy::Manual`). Only serialization is
//! applied; there is no context parsing and no cloze construction.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    render_fm_entity_resolution, render_fm_error_detection, render_fm_imputation,
    render_fm_transformation, SerializedRecord,
};
use unidm_llm::{LanguageModel, LlmError};
use unidm_tablestore::Table;
use unidm_text::tfidf::TfIdf;

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
        }
    }

    /// Imputes `attr` of row `row` in `table`.
    ///
    /// # Errors
    ///
    /// Propagates LLM and table errors.
    pub fn impute(&self, table: &Table, row: usize, attr: &str) -> Result<String, FmError> {
        let record = serialize_row(table, row, attr)?;
        // Demonstration pool: rows with a known target value.
        table.schema().require(attr).map_err(FmError::Table)?;
        let pool: Vec<usize> = (0..table.row_count())
            .filter(|&r| r != row)
            .filter(|&r| table.cell_value(r, attr).is_ok_and(|v| !v.is_null()))
            .collect();
        let chosen = self.select(
            &pool,
            |r| {
                let rec = serialize_row(table, *r, attr).unwrap_or_default();
                rec.render()
            },
            &record.render(),
        );
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
            ContextStrategy::Random => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut v: Vec<T> = pool.to_vec();
                v.shuffle(&mut rng);
                v.truncate(self.demos);
                v
            }
            ContextStrategy::Manual => {
                let texts: Vec<String> = pool.iter().map(text_of).collect();
                let model = TfIdf::fit(texts.iter().map(String::as_str));
                let mut scored: Vec<(f64, usize)> = texts
                    .iter()
                    .enumerate()
                    .map(|(i, text)| (model.similarity(query, text), i))
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                scored
                    .into_iter()
                    .take(self.demos)
                    .map(|(_, i)| pool[i])
                    .collect()
            }
        }
    }
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
