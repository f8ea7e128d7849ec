//! The record frame: a lake row serialized once, its tokens counted once.
//!
//! Instance-wise retrieval shows the model `sample_size` candidate rows per
//! task, and everything it needs of a candidate — the projected row's
//! rendered `attr: value` line and that line's token count — is a function
//! of the *table*, not of the task. A [`Frames`] keeps those per `(table
//! version, projection)`, filled lazily, so the hundreds of tasks that
//! share a table serialize each sampled row once; a row is rendered
//! straight from the cells [`Table::row_ref`] lends, so filling it costs
//! its line and nothing else. The entity-resolution demonstration pool
//! gets the same treatment through a one-slot memo.
//!
//! * **Owner.** One `Frames` per [`crate::UniDm`]; [`crate::BatchRunner`]
//!   builds one `UniDm` per worker, so nothing is shared across threads.
//! * **Access.** Rows are lent, not handed out: [`Frames::with_frame`]
//!   runs its caller over the frame, whose `FrameRow`s stay where they
//!   are, and the caller copies out the little it keeps (a kept row's
//!   rendered line). Showing the model fifty candidates touches no
//!   reference count.
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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use unidm_llm::protocol::{render_pairs, SerializedRecord};
use unidm_tablestore::{Table, TableError};

/// One candidate, as every prompt that shows it needs it.
#[derive(Debug, Clone)]
pub(crate) struct FrameRow {
    /// The candidate projected on the task-relevant attributes, rendered
    /// (`attr: value; attr: value`).
    pub(crate) line: String,
    /// `count_tokens(&line)`.
    pub(crate) tokens: usize,
}

impl FrameRow {
    pub(crate) fn new(line: String) -> Self {
        let tokens = unidm_text::count_tokens(&line);
        FrameRow { line, tokens }
    }
}

/// A labelled entity pair of an entity-resolution demonstration pool.
pub(crate) type LabelledPair = (SerializedRecord, SerializedRecord, bool);

/// Hashes a row index with one multiply. The keys are positions a seeded
/// sampler drew, never outside input, and a frame is probed fifty times a
/// task: SipHash was most of what a lookup cost.
#[derive(Default)]
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a row index hashes through write_usize");
    }

    fn write_usize(&mut self, row: usize) {
        // 2^64 / φ: consecutive rows land far apart in the high bits the
        // table reads its tags from, and stay distinct in the low ones.
        self.0 = (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The rows one projection of a table has shown so far, by row index,
/// held in the map itself: a probe reaches the row without a second hop.
pub(crate) type Frame = HashMap<usize, FrameRow, BuildHasherDefault<RowHasher>>;

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
    /// Lends `read` the frame of `table` projected on columns `cols`,
    /// serializing first the rows of `rows` this version of the table has
    /// not shown yet. The rows stay in the frame — a caller indexes it by
    /// row and copies out what it keeps — and the frame stays borrowed
    /// while `read` runs.
    pub(crate) fn with_frame<T>(
        &self,
        table: &Table,
        cols: &[usize],
        rows: impl IntoIterator<Item = usize>,
        read: impl FnOnce(&Frame) -> T,
    ) -> Result<T, TableError> {
        let mut tables = self.tables.borrow_mut();
        let frames = match tables.get_mut(table.name()) {
            Some(frames) => frames,
            None => tables
                .entry(table.name().to_string())
                .or_insert(TableFrames {
                    version: table.version(),
                    projections: Vec::new(),
                }),
        };
        if frames.version != table.version() {
            frames.version = table.version();
            frames.projections.clear();
        }
        let rows = rows.into_iter();
        let at = match frames.projections.iter().position(|(key, _)| key == cols) {
            Some(at) => at,
            None => {
                // Room for the ~2 samples a projection comes to hold (see
                // "Size"), so a later fill adds its lines and nothing else.
                let room = 2 * rows.size_hint().0;
                let frame = Frame::with_capacity_and_hasher(room, Default::default());
                frames.projections.push((cols.to_vec(), frame));
                frames.projections.len() - 1
            }
        };
        let frame = &mut frames.projections[at].1;
        let columns = table.schema().columns();
        for row in rows {
            if frame.contains_key(&row) {
                continue;
            }
            // One read of the row (one pager visit), rendered projected
            // from the cells it lends.
            let cells = table.row_ref(row)?;
            let pairs = cols
                .iter()
                .map(|&col| (columns[col].name(), cells.cell(col)));
            frame.insert(row, FrameRow::new(render_pairs(pairs, None)));
        }
        Ok(read(frame))
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
