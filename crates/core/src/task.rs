//! Task specifications: the `(R, S, T)` triples of the unified framework,
//! and their lowering to the one form Algorithm 1 runs on.
//!
//! Everything that differs between the seven task kinds is decided here,
//! in [`Task::lower`]: which query each prompt carries and where step 1
//! finds its candidates ([`Source`]). [`crate::UniDm::run`] sees only the
//! lowered [`Unified`] value and never matches on a `Task`.

use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    claim_query_er, claim_query_imputation, naturalize_record, SerializedRecord, TaskKind,
};
use unidm_tablestore::{DataLake, Table};

use crate::frame::{cell_text, FrameRow, LabelledPair};
use crate::UniDmError;

/// A data-manipulation task in the unified form of paper §3: a task kind
/// plus the records `R` and attributes `S` it touches.
///
/// `Eq + Hash` because the batch dedup planner groups byte-identical
/// tasks (a run is a pure function of the task, so equal tasks produce
/// equal outputs): it compares whole tasks and hashes a cheap fingerprint
/// of each (`Task::fingerprint`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Task {
    /// Fill the missing `attr` of row `row` in table `table`.
    Imputation {
        /// Table name in the lake.
        table: String,
        /// Row index of the record with the missing value.
        row: usize,
        /// The attribute to impute.
        attr: String,
        /// The attribute serving as primary key in prompts.
        key_attr: String,
    },
    /// Transform `input` according to `examples`.
    Transformation {
        /// Demonstration pairs (before, after).
        examples: Vec<(String, String)>,
        /// The value to transform.
        input: String,
    },
    /// Judge whether cell (`row`, `attr`) of `table` holds an error.
    ErrorDetection {
        /// Table name in the lake.
        table: String,
        /// Row index.
        row: usize,
        /// Attribute under judgement.
        attr: String,
    },
    /// Judge whether two records denote the same entity.
    EntityResolution {
        /// Record from catalogue A.
        a: SerializedRecord,
        /// Record from catalogue B.
        b: SerializedRecord,
        /// Labelled pairs available as a retrieval pool for demonstrations.
        pool: Vec<(SerializedRecord, SerializedRecord, bool)>,
    },
    /// Answer `question` over `table`.
    TableQa {
        /// Table name in the lake.
        table: String,
        /// The natural-language question.
        question: String,
    },
    /// Judge whether two columns are joinable.
    JoinDiscovery {
        /// Qualified left column name ("fifa_ranking.country_abrv").
        left_name: String,
        /// Left column values.
        left_values: Vec<String>,
        /// Qualified right column name.
        right_name: String,
        /// Right column values.
        right_values: Vec<String>,
    },
    /// Extract `attr` from a semi-structured document.
    Extraction {
        /// The raw document (HTML-ish).
        document: String,
        /// The attribute to extract.
        attr: String,
    },
}

impl Task {
    /// Convenience constructor for imputation tasks.
    pub fn imputation(
        table: impl Into<String>,
        row: usize,
        attr: impl Into<String>,
        key_attr: impl Into<String>,
    ) -> Self {
        Task::Imputation {
            table: table.into(),
            row,
            attr: attr.into(),
            key_attr: key_attr.into(),
        }
    }

    /// Convenience constructor for error detection tasks.
    pub fn error_detection(table: impl Into<String>, row: usize, attr: impl Into<String>) -> Self {
        Task::ErrorDetection {
            table: table.into(),
            row,
            attr: attr.into(),
        }
    }

    /// The protocol-level task kind.
    pub fn kind(&self) -> TaskKind {
        match self {
            Task::Imputation { .. } => TaskKind::Imputation,
            Task::Transformation { .. } => TaskKind::Transformation,
            Task::ErrorDetection { .. } => TaskKind::ErrorDetection,
            Task::EntityResolution { .. } => TaskKind::EntityResolution,
            Task::TableQa { .. } => TaskKind::TableQa,
            Task::JoinDiscovery { .. } => TaskKind::JoinDiscovery,
            Task::Extraction { .. } => TaskKind::Extraction,
        }
    }

    /// Feeds `state` enough of the task to tell most tasks apart, cheaply:
    /// equal tasks feed it the same, so a map may hash this and compare
    /// with `Eq`. Entity resolution is the one kind whose derived hash is
    /// expensive — every task of a dataset carries the whole labelled pool
    /// — so it hashes the pair under judgement and the pool's length only.
    pub(crate) fn fingerprint<H: Hasher>(&self, state: &mut H) {
        match self {
            Task::EntityResolution { a, b, pool } => (a, b, pool.len()).hash(state),
            other => other.hash(state),
        }
    }

    /// Lowers the task to the unified form `Y = F_T(R, S, D)` of paper §3,
    /// borrowing from the task and from `lake`. `seed` seeds the sampling
    /// a task does of what it brought (join discovery's column values).
    ///
    /// # Errors
    ///
    /// Returns the [`UniDmError::Table`] of a table, attribute or row the
    /// lake does not have, before any prompt is sent.
    pub(crate) fn lower<'t>(
        &'t self,
        lake: &'t DataLake,
        seed: u64,
    ) -> Result<Unified<'t>, UniDmError> {
        let (query, source) = match self {
            Task::Imputation {
                table,
                row,
                attr,
                key_attr,
            } => {
                let table = lake.require(table)?;
                // The attribute is checked before the row is read: a task
                // wrong in both reports the attribute.
                table.schema().require(attr)?;
                let record = target_record(table, *row, attr)?;
                let key = record.get(key_attr).unwrap_or_default();
                let source = Source::Table {
                    table,
                    meta_query: Some(format!("{key}, {attr}")),
                    exclude_row: Some(*row),
                    roles: Some((attr, key_attr)),
                };
                (claim_query_imputation(&record, attr), source)
            }
            Task::Transformation { examples, input } => {
                let line = |(before, after): &(String, String)| {
                    SerializedRecord::new(vec![
                        ("before".to_string(), before.clone()),
                        ("after".to_string(), after.clone()),
                    ])
                    .render()
                };
                let records = examples.iter().map(line).collect();
                (format!("{input}: ?"), Source::Records(records))
            }
            Task::ErrorDetection { table, row, attr } => {
                let table = lake.require(table)?;
                let value = table.cell_value(*row, attr)?;
                // The table's first column names the subject of a row.
                let key = table.schema().names().next().unwrap_or(attr);
                let source = Source::Table {
                    table,
                    meta_query: None,
                    exclude_row: Some(*row),
                    roles: Some((attr, key)),
                };
                (format!("{attr}: {value}?"), source)
            }
            Task::EntityResolution { a, b, pool } => {
                let pair = (naturalized(a), naturalized(b));
                let query = claim_query_er(&pair.0, &pair.1);
                (query, Source::Pool { pool, pair })
            }
            Task::TableQa { table, question } => {
                let source = Source::Table {
                    table: lake.require(table)?,
                    meta_query: None,
                    exclude_row: None,
                    roles: None,
                };
                (question.clone(), source)
            }
            Task::JoinDiscovery {
                left_name,
                left_values,
                right_name,
                right_values,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7014);
                let mut sample = |values: &[String]| {
                    let mut values = values.to_vec();
                    values.shuffle(&mut rng);
                    values.truncate(20);
                    values.join("; ")
                };
                let (left, right) = (sample(left_values), sample(right_values));
                let text = format!(
                    "Column \"{left_name}\" contains {left}.\nColumn \"{right_name}\" contains \
                     {right}."
                );
                let query = format!("{left_name} VERSUS {right_name}");
                (query, Source::Text(text))
            }
            Task::Extraction { document, attr } => {
                let text = crate::html::strip_tags(document);
                (attr.clone(), Source::Text(text))
            }
        };
        Ok(Unified {
            kind: self.kind(),
            query,
            source,
        })
    }
}

/// A task in the unified form Algorithm 1 runs on: the kind `T`, the
/// claim query `Q`, and where step 1 reads its candidates.
pub(crate) struct Unified<'t> {
    pub(crate) kind: TaskKind,
    /// The claim query `Q`. Instance-wise retrieval over a table scores
    /// its rows against it too.
    pub(crate) query: String,
    pub(crate) source: Source<'t>,
}

/// Where step 1 of Algorithm 1 reads its candidates — and so which of
/// steps 1 and 2 have anything to do.
pub(crate) enum Source<'t> {
    /// A lake table: meta-wise retrieval picks among its attributes,
    /// instance-wise retrieval among its rows.
    Table {
        table: &'t Table,
        /// What `p_rm` asks about when that is not `Q` (imputation asks
        /// by row key, its claim by the whole record).
        meta_query: Option<String>,
        /// The row under repair, never its own context.
        exclude_row: Option<usize>,
        /// The `(target, key)` attributes the context is projected on,
        /// the target left out of the meta-wise candidates. `None` when
        /// the task names neither (table QA): the last and the first
        /// meta-wise pick then play the roles.
        roles: Option<(&'t str, &'t str)>,
    },
    /// A labelled pool of entity pairs: the demonstrations most relevant
    /// to the naturalized `pair` under judgement are the context.
    Pool {
        pool: &'t [LabelledPair],
        pair: (String, String),
    },
    /// Records the task brought (transformation's examples), rendered:
    /// nothing to retrieve, only to parse.
    Records(Vec<String>),
    /// Context text the task brought (join discovery's column samples,
    /// extraction's document): nothing to retrieve or to parse.
    Text(String),
}

/// The record of `row` as a claim states it: every non-empty cell but the
/// attribute under imputation.
fn target_record(table: &Table, row: usize, attr: &str) -> Result<SerializedRecord, UniDmError> {
    let cells = table.row_at(row)?.into_values();
    let mut pairs = Vec::with_capacity(cells.len());
    for (name, cell) in table.schema().names().zip(cells) {
        if name.eq_ignore_ascii_case(attr) {
            continue;
        }
        let text = cell_text(cell);
        if !text.is_empty() {
            pairs.push((name.to_string(), text));
        }
    }
    Ok(SerializedRecord::new(pairs))
}

/// An entity as a sentence fragment: naturalized, without the full stop.
fn naturalized(record: &SerializedRecord) -> String {
    let mut text = naturalize_record(record);
    text.truncate(text.trim_end_matches('.').len());
    text
}

/// How an entity pair reads, in a demonstration and in the `p_ri` query
/// the demonstrations are scored against.
pub(crate) fn versus(a: &str, b: &str) -> String {
    format!("{a} versus {b}")
}

/// The candidates of a labelled pool, in scoring order: one labelled
/// `versus` record per pair, shuffled by `seed`. They depend on the pool
/// alone, so [`crate::frame::Frames::demos`] keeps them across tasks.
pub(crate) fn demonstrations(pool: &[LabelledPair], seed: u64) -> Vec<FrameRow> {
    let mut demos: Vec<FrameRow> = pool
        .iter()
        .map(|(a, b, same)| {
            let label = if *same { "the same" } else { "different" };
            FrameRow::new(SerializedRecord::new(vec![
                (
                    "entities".to_string(),
                    versus(&naturalized(a), &naturalized(b)),
                ),
                ("label".to_string(), label.to_string()),
            ]))
        })
        .collect();
    demos.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xE12));
    demos
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether steps 1 and 2 have candidates to retrieve is read off the
    /// lowered source; the prompts that follow are pinned per kind in
    /// `tests/pipeline_goldens.rs`.
    #[test]
    fn kinds_and_retrieval_flags() {
        let lake = DataLake::new();
        let retrieves = |task: &Task| {
            let source = task
                .lower(&lake, 0)
                .expect("nothing read from the lake")
                .source;
            matches!(source, Source::Table { .. } | Source::Pool { .. })
        };

        let t = Task::EntityResolution {
            a: SerializedRecord::default(),
            b: SerializedRecord::default(),
            pool: Vec::new(),
        };
        assert_eq!(t.kind(), TaskKind::EntityResolution);
        assert!(retrieves(&t));

        let t = Task::Transformation {
            examples: vec![],
            input: "x".into(),
        };
        assert_eq!(t.kind(), TaskKind::Transformation);
        assert!(!retrieves(&t));

        let t = Task::Extraction {
            document: "<html/>".into(),
            attr: "player".into(),
        };
        assert!(!retrieves(&t));

        // Join discovery brings its column values: nothing is retrieved.
        let t = Task::JoinDiscovery {
            left_name: "l".into(),
            left_values: vec!["1".into()],
            right_name: "r".into(),
            right_values: vec!["2".into()],
        };
        assert!(!retrieves(&t));
    }

    #[test]
    fn constructors() {
        let t = Task::error_detection("hospital", 3, "city");
        assert_eq!(t.kind(), TaskKind::ErrorDetection);
    }
}
