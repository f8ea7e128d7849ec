//! The record frame: a lake row serialized once, its tokens counted once.
//!
//! Instance-wise retrieval shows the model `sample_size` candidate rows per
//! task, and everything it needs of a candidate — the projected
//! [`SerializedRecord`], its rendered `attr: value` line, that line's token
//! count — is a function of the *table*, not of the task. A [`Frames`] keeps
//! those per `(table version, projection)`, filled lazily, so the hundreds
//! of tasks that share a table serialize each sampled row once. The
//! entity-resolution demonstration pool gets the same treatment through a
//! one-slot memo.
//!
//! * **Owner.** One `Frames` per [`crate::UniDm`]; [`crate::BatchRunner`]
//!   builds one `UniDm` per worker, so nothing is shared across threads.
//! * **Freshness.** Frames are keyed by [`Table::version`], a stamp that
//!   changes on every `push_row` / `set_cell` and differs between tables
//!   built separately, so a stale row cannot be served; a table name seen
//!   at a new version drops the frames of the old one.
//! * **Size.** The seeded sampler draws the same positions for every task
//!   over one table (only the excluded target row shifts them by one), so a
//!   projection holds at most ~2 × `sample_size` rows whatever the row and
//!   task counts. The demonstration memo holds one pool.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use unidm_llm::protocol::SerializedRecord;
use unidm_tablestore::{Table, TableError};

/// One candidate, as every prompt that shows it needs it.
#[derive(Debug)]
pub(crate) struct FrameRow {
    /// The candidate projected on the task-relevant attributes.
    pub(crate) record: SerializedRecord,
    /// `record.render()`.
    pub(crate) line: String,
    /// `count_tokens(&line)`.
    pub(crate) tokens: usize,
}

impl FrameRow {
    pub(crate) fn new(record: SerializedRecord) -> Self {
        let line = record.render();
        let tokens = unidm_text::count_tokens(&line);
        FrameRow {
            record,
            line,
            tokens,
        }
    }
}

/// A labelled entity pair of an entity-resolution demonstration pool.
pub(crate) type LabelledPair = (SerializedRecord, SerializedRecord, bool);

/// The rows one projection of a table has shown so far, by row index.
type Frame = HashMap<usize, Arc<FrameRow>>;

/// The frames of one table name, all filled at one version.
#[derive(Debug, Clone)]
struct TableFrames {
    version: u64,
    /// Frames by projected column indices (schema order). A table sees a
    /// handful of projections, so a scan beats hashing the key.
    projections: Vec<(Vec<usize>, Frame)>,
}

/// A demonstration pool and its candidates, in scoring order.
#[derive(Debug, Clone)]
struct DemoMemo {
    pool: Vec<LabelledPair>,
    candidates: Arc<[FrameRow]>,
}

/// Every frame one pipeline holds. See the module documentation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frames {
    tables: RefCell<HashMap<String, TableFrames>>,
    /// The last demonstration pool seen.
    demos: RefCell<Option<DemoMemo>>,
}

impl Frames {
    /// Rows `rows` of `table` projected on columns `cols`, serializing the
    /// ones this version of the table has not shown yet.
    pub(crate) fn rows(
        &self,
        table: &Table,
        cols: &[usize],
        rows: &[usize],
    ) -> Result<Vec<Arc<FrameRow>>, TableError> {
        let mut tables = self.tables.borrow_mut();
        if !tables.contains_key(table.name()) {
            let empty = TableFrames {
                version: table.version(),
                projections: Vec::new(),
            };
            tables.insert(table.name().to_string(), empty);
        }
        let frames = tables.get_mut(table.name()).expect("inserted above");
        if frames.version != table.version() {
            frames.version = table.version();
            frames.projections.clear();
        }
        let at = match frames.projections.iter().position(|(key, _)| key == cols) {
            Some(at) => at,
            None => {
                frames.projections.push((cols.to_vec(), HashMap::new()));
                frames.projections.len() - 1
            }
        };
        let frame = &mut frames.projections[at].1;
        let columns = table.schema().columns();
        rows.iter()
            .map(|&row| {
                if let Some(hit) = frame.get(&row) {
                    return Ok(hit.clone());
                }
                let mut pairs = Vec::with_capacity(cols.len());
                for &col in cols {
                    let name = columns[col].name();
                    pairs.push((name.to_string(), table.cell_value(row, name)?.to_string()));
                }
                let filled = Arc::new(FrameRow::new(SerializedRecord::new(pairs)));
                frame.insert(row, filled.clone());
                Ok(filled)
            })
            .collect()
    }

    /// The candidates of demonstration pool `pool`: the memoized ones when
    /// `pool` equals the last pool seen (eval, the streams and the
    /// benchmark clone one pool into every task of a dataset), `build`'s
    /// otherwise.
    pub(crate) fn demos(
        &self,
        pool: &[LabelledPair],
        build: impl FnOnce() -> Vec<FrameRow>,
    ) -> Arc<[FrameRow]> {
        let mut memo = self.demos.borrow_mut();
        match &*memo {
            Some(seen) if seen.pool == pool => seen.candidates.clone(),
            _ => {
                let candidates: Arc<[FrameRow]> = build().into();
                *memo = Some(DemoMemo {
                    pool: pool.to_vec(),
                    candidates: candidates.clone(),
                });
                candidates
            }
        }
    }

    /// The version `table`'s frames were filled at and how many rows each
    /// of its projections holds.
    pub(crate) fn footprint(&self, table: &str) -> Option<(u64, Vec<usize>)> {
        self.tables.borrow().get(table).map(|frames| {
            let rows = frames.projections.iter().map(|(_, f)| f.len());
            (frames.version, rows.collect())
        })
    }
}
