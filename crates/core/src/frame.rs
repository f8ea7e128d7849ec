//! The record frame: a lake row serialized once, its tokens counted once.
//!
//! Instance-wise retrieval shows the model `sample_size` candidate rows per
//! task, and everything it needs of a candidate — the projected row's
//! `p_ri` value row, that row's token count, and the `attr: value` line a
//! kept candidate becomes — is a function of the *table*, not of the task.
//! A [`Frames`] keeps those per `(table version, projection)`, filled
//! lazily, so the hundreds of tasks that share a table serialize each
//! sampled row once; a row is rendered straight from the cells
//! [`Table::row_ref`] lends, each cell formatted once, so filling it costs
//! its one buffer and nothing else. The entity-resolution demonstration
//! pool gets the same treatment through a one-slot memo.
//!
//! * **Owner.** One `Frames` per [`crate::UniDm`]; [`crate::BatchRunner`]
//!   builds one `UniDm` per worker, so nothing is shared across threads.
//! * **Access.** Rows are lent, not handed out: [`Frames::with_frame`]
//!   runs its caller over the frame, whose `FrameRow`s stay where they
//!   are, and the caller copies out the little it keeps (a kept row's
//!   `attr: value` line). Showing the model fifty candidates touches no
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
use std::fmt::Write;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use unidm_llm::protocol::{pri_row, SerializedRecord};
use unidm_tablestore::{Table, TableError};

/// One candidate, as every prompt that shows it needs it: both of its
/// forms in one buffer.
#[derive(Debug, Clone)]
pub(crate) struct FrameRow {
    /// The `p_ri` value row ([`pri_row`]), then the `attr: value` line
    /// ([`unidm_llm::protocol::render_pairs`]) that a kept candidate and
    /// `p_dp` show.
    text: String,
    /// Where the row ends and the line begins.
    row_end: u32,
    /// `count_tokens` of the row.
    pub(crate) tokens: u32,
}

impl FrameRow {
    /// The candidate whose values are `fields`, under attribute `names`.
    pub(crate) fn new<'n, 'f>(
        names: impl Iterator<Item = &'n str> + Clone,
        fields: impl Iterator<Item = &'f str> + Clone,
    ) -> Self {
        let row = pri_row(fields.clone());
        // The line is `render_pairs`' over the fields, written here without
        // its `Display` round trips: a field is a `&str` already.
        let pairs = names.zip(fields).filter(|(_, field)| !field.is_empty());
        let line = pairs
            .clone()
            .map(|(name, field)| name.len() + field.len() + 4);
        let len = row.clone().map(str::len).sum::<usize>() + line.sum::<usize>().saturating_sub(2);
        let mut text = String::with_capacity(len);
        text.extend(row);
        let (row_end, tokens) = (text.len() as u32, unidm_text::count_tokens(&text) as u32);
        for (i, (name, field)) in pairs.enumerate() {
            text.extend([if i == 0 { "" } else { "; " }, name, ": ", field]);
        }
        FrameRow {
            text,
            row_end,
            tokens,
        }
    }

    /// The `p_ri` value row.
    pub(crate) fn row(&self) -> &str {
        &self.text[..self.row_end as usize]
    }

    /// The `attr: value` line.
    pub(crate) fn line(&self) -> &str {
        &self.text[self.row_end as usize..]
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
    /// A row's cells, each formatted once, and where each ends: the
    /// scratch a new [`FrameRow`] is written from.
    cells: RefCell<(String, Vec<usize>)>,
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
        let names = cols.iter().map(|&col| columns[col].name());
        let (text, ends) = &mut *self.cells.borrow_mut();
        for row in rows {
            if frame.contains_key(&row) {
                continue;
            }
            // One read of the row (one pager visit), rendered projected
            // from the cells it lends.
            let cells = table.row_ref(row)?;
            text.clear();
            ends.clear();
            for &col in cols {
                // Writing into a `String` cannot fail.
                let _ = write!(text, "{}", cells.cell(col));
                ends.push(text.len());
            }
            let fields = ends.iter().scan(0, |start, &end| {
                let field = &text[*start..end];
                *start = end;
                Some(field)
            });
            frame.insert(row, FrameRow::new(names.clone(), fields));
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
