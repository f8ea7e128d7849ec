//! Task specifications: the `(R, S, T)` triples of the unified framework,
//! and their lowering to the one form Algorithm 1 runs on.
//!
//! Everything that differs between the seven task kinds is decided here,
//! in [`Task::lower`]: which query each prompt carries and where step 1
//! finds its candidates ([`Source`]). [`crate::UniDm::run`] sees only the
//! lowered [`Unified`] value and never matches on a `Task`.

use std::fmt;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    claim_query_er, naturalize_record, render_pairs, SerializedRecord, TaskKind,
};
use unidm_tablestore::{CellRef, DataLake, Table};
use unidm_text::format::format_exact;

use crate::frame::{FrameRow, LabelledPair};
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
    /// borrowing from the task and from `lake`: what the task brought is
    /// written into the queries and the source where it lies, never copied
    /// first. `seed` seeds the sampling a task does of what it brought
    /// (join discovery shuffles the positions of its column values).
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
                // The row is lent, not copied: both queries are written
                // straight from its cells. The claim states every cell but
                // the target's, the empty ones skipped.
                let cells = table.row_ref(*row)?;
                let names = table.schema().names();
                let known = names
                    .zip(cells.cells())
                    .filter(|(name, _)| !name.eq_ignore_ascii_case(attr));
                let key = (known.clone())
                    .find(|(name, cell)| !cell.is_empty() && name.eq_ignore_ascii_case(key_attr))
                    .map_or(CellRef::Null, |(_, cell)| cell);
                let source = Source::Table {
                    table,
                    meta_query: Some(format_exact(format_args!("{key}, {attr}"))),
                    exclude_row: Some(*row),
                    roles: Some((attr, key_attr)),
                };
                (render_pairs(known, Some(attr)), source)
            }
            Task::Transformation { examples, input } => {
                // Each example is rendered where it lies, as the record
                // `before: …; after: …` would render.
                let line = |(before, after): &(String, String)| {
                    render_pairs([("before", before), ("after", after)].into_iter(), None)
                };
                let records = examples.iter().map(line).collect();
                (
                    format_exact(format_args!("{input}: ?")),
                    Source::Records(records),
                )
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
                // Positions are shuffled, not values: Fisher–Yates permutes
                // by length alone, so the sample is the one a shuffled copy
                // of the values gives, and the text is written once.
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7014);
                let mut order: Vec<usize> = (0..left_values.len())
                    .chain(0..right_values.len())
                    .collect();
                let (left, right) = order.split_at_mut(left_values.len());
                left.shuffle(&mut rng);
                right.shuffle(&mut rng);
                let left = ColumnSample(left_values, left);
                let right = ColumnSample(right_values, right);
                let text = format_exact(format_args!(
                    "Column \"{left_name}\" contains {left}.\nColumn \"{right_name}\" contains \
                     {right}."
                ));
                let query = format_exact(format_args!("{left_name} VERSUS {right_name}"));
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

/// Join discovery's sample of a column: the values at its first 20
/// shuffled positions, `"; "`-separated.
struct ColumnSample<'a>(&'a [String], &'a [usize]);

impl fmt::Display for ColumnSample<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, &at) in self.1.iter().take(20).enumerate() {
            if n > 0 {
                f.write_str("; ")?;
            }
            f.write_str(&self.0[at])?;
        }
        Ok(())
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

/// The attributes of a demonstration: the `p_ri` header its rows sit under.
pub(crate) const DEMO_HEADER: [&str; 2] = ["entities", "label"];

/// The candidates of a labelled pool, in scoring order: one labelled
/// `versus` record per pair, shuffled by `seed`. They depend on the pool
/// alone, so [`crate::frame::Frames::demos`] keeps them across tasks.
pub(crate) fn demonstrations(pool: &[LabelledPair], seed: u64) -> Vec<FrameRow> {
    let mut demos: Vec<FrameRow> = pool
        .iter()
        .map(|(a, b, same)| {
            let label = if *same { "the same" } else { "different" };
            let entities = versus(&naturalized(a), &naturalized(b));
            let fields = [entities.as_str(), label].into_iter();
            FrameRow::new(DEMO_HEADER.into_iter(), fields)
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

    /// Join discovery samples positions, not values: its text is the one a
    /// shuffled, truncated and joined copy of each column gives.
    #[test]
    fn join_discovery_samples_as_a_shuffled_copy_would() {
        use rand::Rng;

        let lake = DataLake::new();
        let mut values = StdRng::seed_from_u64(11);
        let mut column = |len: usize| -> Vec<String> {
            (0..len)
                .map(|_| format!("v{}", values.gen_range(0..1000)))
                .collect()
        };
        for (left_len, right_len) in [(0, 0), (5, 20), (20, 300), (300, 5), (300, 0)] {
            let task = Task::JoinDiscovery {
                left_name: "l".into(),
                left_values: column(left_len),
                right_name: "r".into(),
                right_values: column(right_len),
            };
            let Task::JoinDiscovery {
                left_values,
                right_values,
                ..
            } = &task
            else {
                unreachable!()
            };
            for seed in [0, 7, 42] {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7014);
                let mut sample = |values: &[String]| {
                    let mut values = values.to_vec();
                    values.shuffle(&mut rng);
                    values.truncate(20);
                    values.join("; ")
                };
                let (left, right) = (sample(left_values), sample(right_values));
                let oracle =
                    format!("Column \"l\" contains {left}.\nColumn \"r\" contains {right}.");
                let lowered = task.lower(&lake, seed).expect("nothing read from the lake");
                assert_eq!(lowered.query, "l VERSUS r");
                assert!(matches!(lowered.source, Source::Text(t) if t == oracle));
            }
        }
    }

    /// A transformation example renders as the record `before: …; after: …`
    /// does, an empty side skipped.
    #[test]
    fn transformation_lines_render_as_records() {
        let lake = DataLake::new();
        let sides = ["20000101", "", "2000-01-01"];
        let examples: Vec<(String, String)> = (sides.iter())
            .flat_map(|b| sides.iter().map(|a| (b.to_string(), a.to_string())))
            .collect();
        let oracle: Vec<String> = (examples.iter())
            .map(|(b, a)| {
                let pairs = vec![("before".into(), b.clone()), ("after".into(), a.clone())];
                SerializedRecord::new(pairs).render()
            })
            .collect();
        assert!(oracle.contains(&String::new()), "both sides empty");
        let task = Task::Transformation {
            examples,
            input: "19990415".into(),
        };
        let lowered = task.lower(&lake, 0).expect("nothing read from the lake");
        assert_eq!(lowered.query, "19990415: ?");
        assert!(matches!(lowered.source, Source::Records(lines) if lines == oracle));
    }

    #[test]
    fn constructors() {
        let t = Task::error_detection("hospital", 3, "city");
        assert_eq!(t.kind(), TaskKind::ErrorDetection);
    }
}
