//! Tables: named schema + chunked columnar row storage.
//!
//! Rows are sealed into fixed-size columnar [`Chunk`]s ([`DEFAULT_CHUNK_ROWS`]
//! rows each) as they are ingested; a trailing partial chunk stays row-major
//! until it fills. Sealed chunks are immutable and `Arc`-shared, so cloning a
//! table (or refreshing a [`DataLake`](crate::DataLake) entry) bumps
//! reference counts instead of copying cell data. Tables larger than RAM can
//! be spilled to a segment file ([`Table::spill_to`] /
//! [`Table::open_segment`]) after which chunks page in and out through a
//! budget-bounded LRU [`Pager`] — spilled tables are read-only.
//!
//! The owned accessors ([`Table::row_at`], [`Table::cell_value`]) return
//! values decoded on the fly, so memory stays bounded by the pager budget
//! regardless of table size. [`Table::row_ref`] lends a row instead: its
//! cells borrow the chunk the row lives in, so reading a row copies
//! nothing. A scan is a loop over `0..row_count()` through these, so a
//! chunk that cannot be read is a [`TableError::Segment`], never a panic.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::chunk::Chunk;
use crate::segment::{Pager, SegmentReader, SegmentWriter};
use crate::{CellRef, ColumnStats, Record, Schema, TableError, Value};

/// Default number of rows per sealed chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 256;

/// Above this row count, [`Table::sample_rows`] switches from the exact
/// shuffle (which materializes one index per row) to bounded rejection
/// sampling. Kept high enough that every evaluation-scale table takes the
/// shuffle path, so sampled prompts are unchanged by the columnar refactor.
const SAMPLE_SHUFFLE_MAX: usize = 4096;

/// Draws a content stamp no other table state in this process has had.
/// The counter publishes nothing but its own value, hence `Relaxed`.
fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Where a table's sealed chunks live: a table is either all resident or
/// all paged from its spill segment.
#[derive(Debug, Clone)]
enum Sealed {
    /// Chunks live in memory (shared, immutable).
    Resident(Vec<Arc<Chunk>>),
    /// Chunks live in the spill segment; fetched through the pager.
    Paged(Arc<Pager>),
}

/// A named relational table over chunked columnar storage.
///
/// Cloning shares sealed chunks and the pager by reference count — no cell
/// data is copied — and keeps the [`Table::version`] stamp, since the content
/// is the same, which is what lets [`DataLake`](crate::DataLake) refresh
/// entries without deep-copying tables.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    chunk_rows: usize,
    sealed: Sealed,
    sealed_rows: usize,
    tail: Vec<Record>,
    version: u64,
}

impl Table {
    /// Creates an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_chunk_rows(name, schema, DEFAULT_CHUNK_ROWS)
    }

    /// Creates an empty table with an explicit rows-per-chunk partition
    /// size (minimum 1). Smaller chunks lower the paging granularity of a
    /// spilled table; larger chunks amortize encoding overhead.
    pub fn with_chunk_rows(name: impl Into<String>, schema: Schema, chunk_rows: usize) -> Self {
        Table {
            name: name.into(),
            schema,
            chunk_rows: chunk_rows.max(1),
            sealed: Sealed::Resident(Vec::new()),
            sealed_rows: 0,
            tail: Vec::new(),
            version: fresh_version(),
        }
    }

    /// Starts a [`TableBuilder`].
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows per sealed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of sealed chunks (excludes the row-major tail).
    pub fn chunk_count(&self) -> usize {
        match &self.sealed {
            Sealed::Resident(chunks) => chunks.len(),
            Sealed::Paged(pager) => pager.segment().chunk_count(),
        }
    }

    /// True if the table's chunks live in a spill segment (read-only).
    pub fn is_spilled(&self) -> bool {
        matches!(self.sealed, Sealed::Paged(_))
    }

    /// Number of chunks currently resident in memory: all of them for an
    /// in-memory table, the pager's cache occupancy for a spilled one.
    pub fn resident_chunks(&self) -> usize {
        match &self.sealed {
            Sealed::Resident(chunks) => chunks.len(),
            Sealed::Paged(pager) => pager.resident_chunks(),
        }
    }

    /// A process-unique stamp of this table's content: clones share it,
    /// every successful [`Table::push_row`] / [`Table::set_cell`] draws a
    /// fresh one, and no two tables built separately ever share one. Equal
    /// stamps therefore mean equal name, schema and rows (the converse does
    /// not hold), which is what lets a cache keyed by it never go stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.sealed_rows + self.tail.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Appends a row, sealing a columnar chunk whenever the tail fills.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ArityMismatch`] if the value count differs from
    /// the schema width, or [`TableError::SpilledReadOnly`] for a spilled
    /// table.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), TableError> {
        let Sealed::Resident(chunks) = &mut self.sealed else {
            return Err(TableError::SpilledReadOnly);
        };
        if values.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                got: values.len(),
                expected: self.schema.len(),
            });
        }
        self.tail.push(Record::new(values));
        if self.tail.len() >= self.chunk_rows {
            let chunk = Chunk::from_rows(self.schema.len(), &self.tail);
            self.sealed_rows += chunk.len();
            chunks.push(Arc::new(chunk));
            self.tail.clear();
        }
        self.version = fresh_version();
        Ok(())
    }

    /// The chunk behind sealed slot `slot`, paging it in if spilled.
    fn chunk(&self, slot: usize) -> Result<Arc<Chunk>, TableError> {
        match &self.sealed {
            Sealed::Resident(chunks) => Ok(chunks[slot].clone()),
            Sealed::Paged(pager) => pager.chunk(slot),
        }
    }

    /// Splits a validated row index into (sealed slot, offset) or a tail
    /// offset. Valid because every sealed chunk is full except possibly the
    /// last one of a spilled table (which has no tail) — `SegmentReader::open`
    /// rejects a directory that says otherwise.
    fn locate(&self, index: usize) -> Result<RowAddr, TableError> {
        if index < self.sealed_rows {
            Ok(RowAddr::Sealed {
                slot: index / self.chunk_rows,
                offset: index % self.chunk_rows,
            })
        } else if index - self.sealed_rows < self.tail.len() {
            Ok(RowAddr::Tail(index - self.sealed_rows))
        } else {
            Err(TableError::RowOutOfBounds {
                index,
                len: self.row_count(),
            })
        }
    }

    /// The row at `index`, decoded on the fly.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowOutOfBounds`] if `index >= row_count()`, or
    /// [`TableError::Segment`] if a spilled chunk cannot be read.
    pub fn row_at(&self, index: usize) -> Result<Record, TableError> {
        Ok(self.row_ref(index)?.to_record())
    }

    /// The row at `index`, lent as borrowed cells: a view over the chunk
    /// the row lives in (the `Arc` the table or its pager holds), or over
    /// the tail record. Nothing is decoded until a cell is read, and a
    /// text cell is read as the chunk's own string.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowOutOfBounds`] if `index >= row_count()`, or
    /// [`TableError::Segment`] if a spilled chunk cannot be read.
    pub fn row_ref(&self, index: usize) -> Result<RowRef<'_>, TableError> {
        Ok(match self.locate(index)? {
            RowAddr::Sealed { slot, offset } => RowRef::Sealed {
                chunk: self.chunk(slot)?,
                offset,
            },
            RowAddr::Tail(i) => RowRef::Tail(&self.tail[i]),
        })
    }

    /// The cell at (`row`, `attr`), decoded on the fly.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowOutOfBounds`],
    /// [`TableError::UnknownAttribute`], or [`TableError::Segment`].
    pub fn cell_value(&self, row: usize, attr: &str) -> Result<Value, TableError> {
        let col = self.schema.require(attr)?;
        match self.locate(row)? {
            RowAddr::Sealed { slot, offset } => Ok(self.chunk(slot)?.value(offset, col)),
            RowAddr::Tail(i) => Ok(self.tail[i]
                .get(col)
                .cloned()
                .expect("tail row width checked on ingest")),
        }
    }

    /// Overwrites the cell at (`row`, `attr`). A write into a sealed chunk
    /// is copy-on-write ([`Chunk::with_cell`]): the chunk is replaced by one
    /// that re-encodes only the written column and shares every other
    /// column, so tables sharing the old chunk are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowOutOfBounds`],
    /// [`TableError::UnknownAttribute`], or
    /// [`TableError::SpilledReadOnly`] for a spilled table.
    pub fn set_cell(&mut self, row: usize, attr: &str, value: Value) -> Result<(), TableError> {
        let addr = self.locate(row);
        let Sealed::Resident(chunks) = &mut self.sealed else {
            return Err(TableError::SpilledReadOnly);
        };
        match addr? {
            RowAddr::Tail(i) => self.tail[i].set_field(&self.schema, attr, value)?,
            RowAddr::Sealed { slot, offset } => {
                let col = self.schema.require(attr)?;
                chunks[slot] = Arc::new(chunks[slot].with_cell(offset, col, value));
            }
        }
        self.version = fresh_version();
        Ok(())
    }

    /// Statistics over one column, computed by one scan over its cells.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownAttribute`] for an unknown column, or
    /// [`TableError::Segment`] if a spilled chunk cannot be read.
    pub fn column_stats(&self, attr: &str) -> Result<ColumnStats, TableError> {
        let col = self.schema.require(attr)?;
        let mut stats = ColumnStats::default();
        for index in 0..self.row_count() {
            stats.accumulate(&self.row_ref(index)?.cell(col).into());
        }
        Ok(stats)
    }

    /// A new in-memory table with only the given attributes (in the given
    /// order). Sealed chunks share their encoded columns with the source
    /// (`Arc` bumps, no cell copies); projecting a *spilled* table pages
    /// every chunk in, so the projection is fully resident.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownAttribute`] for unknown names,
    /// [`TableError::DuplicateAttribute`] if `attrs` repeats a name, or
    /// [`TableError::Segment`] if a spilled chunk cannot be read.
    pub fn project(&self, attrs: &[&str]) -> Result<Table, TableError> {
        let schema = Schema::from_names(attrs.iter().map(|s| s.to_string()))?;
        let cols: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.require(a))
            .collect::<Result<_, _>>()?;
        let chunks = (0..self.chunk_count())
            .map(|slot| Ok(Arc::new(self.chunk(slot)?.project(&cols))))
            .collect::<Result<_, TableError>>()?;
        let tail = self
            .tail
            .iter()
            .map(|rec| rec.project(&self.schema, attrs))
            .collect::<Result<_, _>>()?;
        Ok(Table {
            sealed: Sealed::Resident(chunks),
            sealed_rows: self.sealed_rows,
            tail,
            ..Table::with_chunk_rows(self.name.clone(), schema, self.chunk_rows)
        })
    }

    /// Uniformly samples up to `k` distinct row indices, excluding
    /// `exclude`.
    ///
    /// Up to `SAMPLE_SHUFFLE_MAX` (4096) rows this shuffles the full index
    /// range (the original, golden-stable draw order); above it, it
    /// switches to rejection sampling so the working set stays `O(k)`
    /// instead of `O(rows)` on out-of-core tables.
    pub fn sample_rows<R: Rng>(&self, rng: &mut R, k: usize, exclude: &[usize]) -> Vec<usize> {
        let n = self.row_count();
        // Call sites exclude zero or one row, so a slice scan beats hashing.
        let excluded = exclude
            .iter()
            .enumerate()
            .filter(|&(at, &i)| i < n && !exclude[..at].contains(&i))
            .count();
        let available = n - excluded;
        let want = k.min(available);
        if n <= SAMPLE_SHUFFLE_MAX || want * 2 >= available {
            // Sized up front: a filtered range has no lower size hint, so
            // `collect` would grow the list by doubling.
            let mut candidates = Vec::with_capacity(available);
            candidates.extend((0..n).filter(|i| !exclude.contains(i)));
            candidates.shuffle(rng);
            candidates.truncate(k);
            return candidates;
        }
        // Sparse draw: want is far below the candidate count, so repeated
        // uniform draws collide rarely and never materialize 0..n.
        let mut chosen = Vec::with_capacity(want);
        let mut seen = HashSet::with_capacity(want * 2);
        while chosen.len() < want {
            let i = rng.gen_range(0..n);
            if !exclude.contains(&i) && seen.insert(i) {
                chosen.push(i);
            }
        }
        chosen
    }

    /// Indices of rows whose `attr` value equals `value` (by answer key),
    /// searched chunk-wise: dictionary columns match against the
    /// dictionary instead of materializing cells.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownAttribute`] for an unknown column, or
    /// [`TableError::Segment`] if a spilled chunk cannot be read.
    pub fn find(&self, attr: &str, value: &Value) -> Result<Vec<usize>, TableError> {
        let col = self.schema.require(attr)?;
        let key = value.answer_key();
        let mut hits = Vec::new();
        let mut base = 0usize;
        for slot in 0..self.chunk_count() {
            let chunk = self.chunk(slot)?;
            hits.extend(
                chunk
                    .column(col)
                    .find_key(&key)
                    .into_iter()
                    .map(|o| base + o),
            );
            base += chunk.len();
        }
        for (i, rec) in self.tail.iter().enumerate() {
            if rec.get(col).is_some_and(|v| v.answer_key() == key) {
                hits.push(base + i);
            }
        }
        Ok(hits)
    }

    /// Writes every chunk (and the tail) to a segment file at `path` and
    /// returns the spilled, read-only table paging at most `budget` chunks
    /// at a time. The source table is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure, or if a chunk of a
    /// spilled source table cannot be read.
    pub fn spill_to(&self, path: impl AsRef<Path>, budget: usize) -> Result<Table, TableError> {
        let mut writer = SegmentWriter::create(
            path,
            self.name.clone(),
            self.schema.clone(),
            self.chunk_rows,
        )?;
        let mut row = Vec::with_capacity(self.schema.len());
        for slot in 0..self.chunk_count() {
            let chunk = self.chunk(slot)?;
            for r in 0..chunk.len() {
                row.clear();
                row.extend((0..chunk.width()).map(|c| chunk.value(r, c)));
                writer.push_row(&row)?;
            }
        }
        for rec in &self.tail {
            writer.push_row(rec.values())?;
        }
        writer.finish(budget)
    }

    /// Opens a previously written segment file as a read-only table whose
    /// chunks page in through an LRU cache of at most `budget` chunks.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure or a malformed file.
    pub fn open_segment(path: impl AsRef<Path>, budget: usize) -> Result<Table, TableError> {
        let reader = SegmentReader::open(path)?;
        Ok(Table {
            name: reader.name().to_string(),
            schema: reader.schema().clone(),
            chunk_rows: reader.chunk_rows(),
            sealed_rows: reader.row_count(),
            tail: Vec::new(),
            sealed: Sealed::Paged(Arc::new(Pager::new(reader, budget))),
            version: fresh_version(),
        })
    }

    /// Logical equality: the same name, schema and rows, cell by cell
    /// (chunking and spill state are representation details).
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] if a spilled chunk of either table
    /// cannot be read.
    pub fn same_content(&self, other: &Table) -> Result<bool, TableError> {
        if self.name != other.name
            || self.schema != other.schema
            || self.row_count() != other.row_count()
        {
            return Ok(false);
        }
        for index in 0..self.row_count() {
            if !self
                .row_ref(index)?
                .cells()
                .eq(other.row_ref(index)?.cells())
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// One row lent by [`Table::row_ref`].
#[derive(Debug, Clone)]
pub enum RowRef<'t> {
    /// Row `offset` of a sealed chunk, held by its `Arc`.
    Sealed {
        /// The chunk the row lives in.
        chunk: Arc<Chunk>,
        /// The row's offset in the chunk.
        offset: usize,
    },
    /// A row of the table's row-major tail.
    Tail(&'t Record),
}

impl RowRef<'_> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            RowRef::Sealed { chunk, .. } => chunk.width(),
            RowRef::Tail(record) => record.len(),
        }
    }

    /// True if the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell of column `col`, borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `col >= len()`.
    pub fn cell(&self, col: usize) -> CellRef<'_> {
        match self {
            RowRef::Sealed { chunk, offset } => chunk.cell(*offset, col),
            RowRef::Tail(record) => record.values()[col].as_cell(),
        }
    }

    /// The cells in schema order, borrowed.
    pub fn cells(&self) -> impl Iterator<Item = CellRef<'_>> + Clone + '_ {
        (0..self.len()).map(|col| self.cell(col))
    }

    /// The row as an owned record.
    pub fn to_record(&self) -> Record {
        match self {
            RowRef::Sealed { chunk, offset } => chunk.record(*offset),
            RowRef::Tail(record) => Record::clone(record),
        }
    }
}

enum RowAddr {
    Sealed { slot: usize, offset: usize },
    Tail(usize),
}

/// Builder for [`Table`], collecting column names before creation.
///
/// # Examples
///
/// ```
/// use unidm_tablestore::Table;
/// let t = Table::builder("people").column("name").column("age").build();
/// assert_eq!(t.schema().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    columns: Vec<String>,
}

impl TableBuilder {
    /// Adds a column.
    pub fn column(mut self, name: impl Into<String>) -> Self {
        self.columns.push(name.into());
        self
    }

    /// Adds several columns.
    pub fn columns<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.columns.extend(names.into_iter().map(Into::into));
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if a column name is duplicated; builders are used with literal
    /// names where a duplicate is a programming error.
    pub fn build(self) -> Table {
        let schema = Schema::from_names(self.columns).expect("duplicate column name in builder");
        Table::new(self.name, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn city_table() -> Table {
        let mut t = Table::builder("cities")
            .columns(["city", "country", "timezone"])
            .build();
        for (c, n, z) in [
            ("Florence", "Italy", "CET"),
            ("Alicante", "Spain", "CET"),
            ("Antwerp", "Belgium", "CET"),
            ("Copenhagen", "Denmark", "CET"),
        ] {
            t.push_row(vec![Value::text(c), Value::text(n), Value::text(z)])
                .unwrap();
        }
        t
    }

    /// The same rows, sealed into 2-row chunks so every accessor crosses
    /// chunk boundaries.
    fn chunked_city_table() -> Table {
        let src = city_table();
        let mut t = Table::with_chunk_rows("cities", src.schema().clone(), 2);
        for i in 0..src.row_count() {
            t.push_row(src.row_at(i).unwrap().into_values()).unwrap();
        }
        t
    }

    #[test]
    fn push_and_access() {
        let t = city_table();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.cell_value(1, "country").unwrap(), Value::text("Spain"));
    }

    #[test]
    fn chunked_accessors_agree_with_row_major() {
        let a = city_table();
        let b = chunked_city_table();
        assert_eq!(b.chunk_count(), 2);
        assert!(b.tail.is_empty());
        for i in 0..a.row_count() {
            assert_eq!(a.row_at(i).unwrap(), b.row_at(i).unwrap());
            assert_eq!(
                b.cell_value(i, "timezone").unwrap(),
                a.cell_value(i, "timezone").unwrap()
            );
        }
        assert!(
            a.same_content(&b).unwrap(),
            "logical equality ignores chunking"
        );
    }

    #[test]
    fn arity_checked() {
        let mut t = city_table();
        assert!(matches!(
            t.push_row(vec![Value::text("x")]),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn row_out_of_bounds() {
        let t = city_table();
        assert!(matches!(
            t.row_at(99),
            Err(TableError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            t.cell_value(99, "city"),
            Err(TableError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn set_cell_roundtrip() {
        let mut t = city_table();
        t.set_cell(3, "timezone", Value::Null).unwrap();
        assert!(t.cell_value(3, "timezone").unwrap().is_null());
    }

    #[test]
    fn set_cell_in_sealed_chunk_is_copy_on_write() {
        let mut t = chunked_city_table();
        let shared = t.clone();
        t.set_cell(0, "timezone", Value::text("WET")).unwrap();
        assert_eq!(t.cell_value(0, "timezone").unwrap(), Value::text("WET"));
        assert_eq!(
            shared.cell_value(0, "timezone").unwrap(),
            Value::text("CET"),
            "clone sharing the old chunk is unaffected"
        );
    }

    #[test]
    fn a_column_reads_cell_by_cell_across_chunks() {
        let t = chunked_city_table();
        let countries: Vec<String> = (0..t.row_count())
            .map(|r| t.cell_value(r, "country").unwrap().to_string())
            .collect();
        assert_eq!(countries, vec!["Italy", "Spain", "Belgium", "Denmark"]);
        assert!(t.cell_value(0, "nope").is_err());
    }

    #[test]
    fn column_stats_fold_matches_compute() {
        let t = chunked_city_table();
        let folded = t.column_stats("timezone").unwrap();
        let whole: Vec<Value> = (0..t.row_count())
            .map(|r| t.cell_value(r, "timezone").unwrap())
            .collect();
        assert_eq!(folded, ColumnStats::compute(whole.iter()));
    }

    #[test]
    fn project_preserves_rows() {
        let t = city_table();
        let p = t.project(&["timezone", "city"]).unwrap();
        assert_eq!(
            p.schema().names().collect::<Vec<_>>(),
            vec!["timezone", "city"]
        );
        assert_eq!(p.row_count(), 4);
        assert_eq!(p.cell_value(0, "city").unwrap(), Value::text("Florence"));
    }

    #[test]
    fn project_shares_sealed_chunks() {
        let t = chunked_city_table();
        let p = t.project(&["city"]).unwrap();
        assert_eq!(p.chunk_count(), t.chunk_count());
        let (orig, proj) = match (&t.sealed, &p.sealed) {
            (Sealed::Resident(a), Sealed::Resident(b)) => (a[0].clone(), b[0].clone()),
            _ => panic!("expected resident chunks"),
        };
        assert!(Arc::ptr_eq(proj.column(0), orig.column(0)));
    }

    #[test]
    fn sample_excludes() {
        let t = city_table();
        let mut rng = StdRng::seed_from_u64(7);
        let s = t.sample_rows(&mut rng, 10, &[0]);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(&0));
    }

    #[test]
    fn sample_truncates() {
        let t = city_table();
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(t.sample_rows(&mut rng, 2, &[]).len(), 2);
    }

    #[test]
    fn sample_large_table_is_bounded_and_distinct() {
        let mut t = Table::with_chunk_rows("big", Schema::from_names(["n"]).unwrap(), 512);
        for i in 0..(SAMPLE_SHUFFLE_MAX + 100) {
            t.push_row(vec![Value::Int(i as i64)]).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(11);
        let s = t.sample_rows(&mut rng, 10, &[0, 1, 2]);
        assert_eq!(s.len(), 10);
        let distinct: HashSet<usize> = s.iter().copied().collect();
        assert_eq!(distinct.len(), 10);
        assert!(s.iter().all(|&i| i > 2 && i < t.row_count()));
    }

    /// Draws recorded from the `HashSet`-filtering implementation: every
    /// sampled prompt downstream depends on this exact order.
    #[test]
    fn sample_draw_order_is_pinned_on_both_paths() {
        let table_of = |n: usize| {
            let mut t = Table::with_chunk_rows("big", Schema::from_names(["n"]).unwrap(), 512);
            for i in 0..n {
                t.push_row(vec![Value::Int(i as i64)]).unwrap();
            }
            t
        };
        let draw = |t: &Table, seed: u64, exclude: &[usize]| {
            t.sample_rows(&mut StdRng::seed_from_u64(seed), 8, exclude)
        };
        let shuffled = table_of(40);
        assert_eq!(draw(&shuffled, 7, &[]), [21, 26, 27, 22, 31, 33, 29, 14]);
        assert_eq!(draw(&shuffled, 7, &[5]), [10, 11, 19, 18, 33, 27, 26, 28]);
        assert_eq!(draw(&shuffled, 11, &[]), [18, 25, 16, 29, 36, 26, 10, 15]);
        assert_eq!(draw(&shuffled, 11, &[5]), [10, 34, 1, 35, 12, 0, 31, 15]);
        // Excluding twice is excluding once.
        assert_eq!(draw(&shuffled, 11, &[5, 5]), draw(&shuffled, 11, &[5]));
        let sparse = table_of(SAMPLE_SHUFFLE_MAX + 100);
        assert_eq!(
            draw(&sparse, 7, &[]),
            [3707, 1504, 2190, 2007, 2014, 1589, 634, 2150]
        );
        // The excluded row is one the seed draws: it is skipped, the rest
        // keep their order and one more draw fills the sample.
        assert_eq!(
            draw(&sparse, 7, &[2190]),
            [3707, 1504, 2007, 2014, 1589, 634, 2150, 781]
        );
        assert_eq!(
            draw(&sparse, 11, &[]),
            [3117, 2317, 1657, 3312, 2076, 262, 852, 490]
        );
        assert_eq!(
            draw(&sparse, 11, &[1657]),
            [3117, 2317, 3312, 2076, 262, 852, 490, 2934]
        );
    }

    #[test]
    fn version_is_shared_by_clones_and_fresh_after_every_write() {
        let mut t = chunked_city_table();
        let clone = t.clone();
        assert_eq!(clone.version(), t.version());
        assert_ne!(chunked_city_table().version(), t.version());
        let before = t.version();
        t.set_cell(0, "timezone", Value::text("WET")).unwrap();
        assert_ne!(t.version(), before);
        assert_eq!(clone.version(), before, "the clone did not change");
        let before = t.version();
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_ne!(t.version(), before);
        let before = t.version();
        assert!(t.set_cell(0, "nope", Value::Null).is_err());
        assert!(t.push_row(vec![Value::Null]).is_err());
        assert_eq!(t.version(), before, "a refused write changes nothing");
        assert_ne!(t.project(&["city"]).unwrap().version(), before);
    }

    #[test]
    fn find_by_answer_key() {
        let t = city_table();
        let hits = t.find("country", &Value::text("italy")).unwrap();
        assert_eq!(hits, vec![0]);
        let chunked = chunked_city_table();
        assert_eq!(
            chunked.find("country", &Value::text("italy")).unwrap(),
            vec![0]
        );
        assert_eq!(
            chunked.find("timezone", &Value::text("cet")).unwrap(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn find_matches_nulls_via_empty_key() {
        let mut t = Table::with_chunk_rows("t", Schema::from_names(["a"]).unwrap(), 2);
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::text("x")]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        assert_eq!(t.find("a", &Value::Null).unwrap(), vec![0, 2]);
    }

    #[test]
    fn clone_shares_chunks() {
        let t = chunked_city_table();
        let c = t.clone();
        let (a, b) = match (&t.sealed, &c.sealed) {
            (Sealed::Resident(a), Sealed::Resident(b)) => (a[0].clone(), b[0].clone()),
            _ => panic!("expected resident chunks"),
        };
        assert!(Arc::ptr_eq(&a, &b), "clone must share sealed chunks");
        assert!(t.same_content(&c).unwrap());
    }

    #[test]
    fn spill_roundtrip_and_read_only() {
        let mut path = std::env::temp_dir();
        path.push(format!("unidm-table-spill-{}.seg", std::process::id()));
        let t = chunked_city_table();
        let mut spilled = t.spill_to(&path, 1).unwrap();
        assert!(spilled.is_spilled());
        assert!(
            spilled.same_content(&t).unwrap(),
            "spill → reload preserves every row"
        );
        assert!(spilled.resident_chunks() <= 1);
        assert!(matches!(
            spilled.push_row(vec![Value::Null, Value::Null, Value::Null]),
            Err(TableError::SpilledReadOnly)
        ));
        assert!(matches!(
            spilled.set_cell(0, "city", Value::Null),
            Err(TableError::SpilledReadOnly)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn builder_duplicate_panics() {
        let _ = Table::builder("t").column("a").column("a").build();
    }
}
