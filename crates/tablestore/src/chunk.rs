//! Chunked columnar storage: the in-memory unit of the out-of-core table.
//!
//! A [`Chunk`] holds one fixed-size row partition of a table, stored
//! column-major: one [`ColumnChunk`] per attribute. Text columns are
//! dictionary-encoded: one `u32` code per cell, the distinct strings stored
//! once in a [`StringPool`] (one UTF-8 blob plus an end-offset array — the
//! bytes a spill segment holds, so paging a chunk in copies the dictionary
//! rather than rebuilding it string by string). Integer columns are flat
//! `i64` arrays with a present-mask, and anything heterogeneous falls back
//! to a plain value vector. Per-column [`ColumnStats`] are computed once
//! when the chunk is
//! sealed at ingest and folded by [`Table::column_stats`] instead of
//! rescanning the column.
//!
//! Chunks are immutable once sealed and shared via `Arc`: cloning a table,
//! projecting columns, or refreshing a lake entry bumps reference counts
//! instead of deep-copying cell data.
//!
//! [`Table::column_stats`]: crate::Table::column_stats

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::value::canonical_key;
use crate::{ColumnStats, Record, Value};

/// Dictionary code marking a null cell in a [`ColumnChunk::Dict`] column.
pub const NULL_CODE: u32 = u32::MAX;

/// The distinct strings of a dictionary column as one allocation pair:
/// string `i` is `blob[ends[i - 1]..ends[i]]` (from `0` for the first).
///
/// The fields are private because every reader slices the blob at the
/// offsets without re-checking them: they ascend, the last one is the blob
/// length, and each falls on a UTF-8 character boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StringPool {
    blob: String,
    ends: Vec<u32>,
}

impl StringPool {
    /// Builds a pool from raw parts (the segment page-in path), checking
    /// everything [`StringPool::get`] relies on.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the parts: invalid UTF-8, descending
    /// offsets, a last offset that is not the blob length, or an offset
    /// inside a multi-byte character.
    pub fn from_parts(blob: Vec<u8>, ends: Vec<u32>) -> Result<StringPool, &'static str> {
        let blob = String::from_utf8(blob).map_err(|_| "invalid utf-8 in dictionary blob")?;
        if !ends.is_sorted() {
            return Err("dictionary end offsets descend");
        }
        if ends.last().map_or(0, |&e| e as usize) != blob.len() {
            return Err("dictionary end offsets do not cover the blob");
        }
        if !ends.iter().all(|&e| blob.is_char_boundary(e as usize)) {
            return Err("dictionary end offset inside a character");
        }
        Ok(StringPool { blob, ends })
    }

    /// Appends `s` and returns its code, or `None` (pool unchanged) when
    /// the blob would outgrow its `u32` offsets.
    fn push(&mut self, s: &str) -> Option<u32> {
        let end = u32::try_from(self.blob.len() + s.len()).ok()?;
        let code = self.ends.len() as u32;
        self.blob.push_str(s);
        self.ends.push(end);
        Some(code)
    }

    /// Number of strings in the pool.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the pool holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string with code `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code >= len()`.
    pub fn get(&self, code: usize) -> &str {
        let start = if code == 0 { 0 } else { self.ends[code - 1] };
        &self.blob[start as usize..self.ends[code] as usize]
    }

    /// The strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|code| self.get(code))
    }

    /// Every string back to back (the segment writes this verbatim).
    pub fn blob(&self) -> &str {
        &self.blob
    }

    /// End offset of each string inside [`StringPool::blob`].
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }
}

/// One column of one row partition, in its most compact encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnChunk {
    /// Dictionary-encoded text: `codes[i]` indexes into `dict`;
    /// [`NULL_CODE`] marks a null cell.
    Dict {
        /// Distinct strings in first-appearance order.
        dict: StringPool,
        /// One code per row.
        codes: Vec<u32>,
    },
    /// Integers with a present-mask (`present[i] == false` means null).
    Ints {
        /// One value per row (`0` where absent).
        values: Vec<i64>,
        /// One presence flag per row.
        present: Vec<bool>,
    },
    /// Heterogeneous fallback: values stored directly.
    Mixed(Vec<Value>),
}

impl ColumnChunk {
    /// Encodes a column of values into the most compact representation:
    /// all-text columns dictionary-encode, all-integer columns pack into
    /// `i64`s, anything mixed (floats, bools, text+numbers) stays as
    /// values — as does a text column whose distinct strings exceed the
    /// pool's 4 GiB of offsets.
    pub fn encode(values: Vec<Value>) -> ColumnChunk {
        let all_text = values
            .iter()
            .all(|v| matches!(v, Value::Null | Value::Text(_)));
        if all_text {
            return Self::encode_dict(&values).unwrap_or(ColumnChunk::Mixed(values));
        }
        let all_int = values
            .iter()
            .all(|v| matches!(v, Value::Null | Value::Int(_)));
        if all_int {
            let mut ints = Vec::with_capacity(values.len());
            let mut present = Vec::with_capacity(values.len());
            for v in &values {
                match v {
                    Value::Int(i) => {
                        ints.push(*i);
                        present.push(true);
                    }
                    _ => {
                        ints.push(0);
                        present.push(false);
                    }
                }
            }
            return ColumnChunk::Ints {
                values: ints,
                present,
            };
        }
        ColumnChunk::Mixed(values)
    }

    /// Dictionary-encodes a column of text and nulls; `None` when the pool
    /// overflows.
    fn encode_dict(values: &[Value]) -> Option<ColumnChunk> {
        let mut dict = StringPool::default();
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            match v {
                Value::Null => codes.push(NULL_CODE),
                Value::Text(s) => {
                    if let Some(&code) = index.get(s.as_str()) {
                        codes.push(code);
                    } else {
                        let code = dict.push(s)?;
                        index.insert(s.as_str(), code);
                        codes.push(code);
                    }
                }
                _ => unreachable!("caller checked the column is text and nulls"),
            }
        }
        Some(ColumnChunk::Dict { dict, codes })
    }

    /// Number of cells in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Dict { codes, .. } => codes.len(),
            ColumnChunk::Ints { values, .. } => values.len(),
            ColumnChunk::Mixed(values) => values.len(),
        }
    }

    /// True if the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the cell at `row` (owned).
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`; chunk-internal offsets are validated by
    /// the table before decoding.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnChunk::Dict { dict, codes } => match codes[row] {
                NULL_CODE => Value::Null,
                code => Value::text(dict.get(code as usize)),
            },
            ColumnChunk::Ints { values, present } => {
                if present[row] {
                    Value::Int(values[row])
                } else {
                    Value::Null
                }
            }
            ColumnChunk::Mixed(values) => values[row].clone(),
        }
    }

    /// Iterator over all cells (owned, decode-on-the-fly).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Offsets of cells equal to `key` (a [`Value::answer_key`]).
    ///
    /// For dictionary columns this matches against the (small) dictionary
    /// first and then scans codes — no per-row string materialization.
    pub fn find_key(&self, key: &str) -> Vec<usize> {
        match self {
            ColumnChunk::Dict { dict, codes } => {
                let matching: Vec<u32> = dict
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| canonical_key(s) == key)
                    .map(|(i, _)| i as u32)
                    .collect();
                if matching.is_empty() && !key.is_empty() {
                    return Vec::new();
                }
                codes
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| {
                        if **c == NULL_CODE {
                            key.is_empty()
                        } else {
                            matching.contains(*c)
                        }
                    })
                    .map(|(i, _)| i)
                    .collect()
            }
            _ => (0..self.len())
                .filter(|&i| self.value(i).answer_key() == key)
                .collect(),
        }
    }

    /// Frequency statistics over the column (same accounting as
    /// [`ColumnStats::compute`]).
    pub fn stats(&self) -> ColumnStats {
        match self {
            ColumnChunk::Dict { dict, codes } => {
                // Count per code first (integer keys), then fold codes that
                // collide under the answer key — cheaper than hashing a
                // string per row.
                let mut per_code = vec![0usize; dict.len()];
                let mut nulls = 0usize;
                for &c in codes {
                    if c == NULL_CODE {
                        nulls += 1;
                    } else {
                        per_code[c as usize] += 1;
                    }
                }
                let mut stats = ColumnStats::with_counts(codes.len(), nulls);
                for (i, &n) in per_code.iter().enumerate() {
                    if n > 0 {
                        stats.add_key(canonical_key(dict.get(i)), n);
                    }
                }
                stats
            }
            _ => {
                let values: Vec<Value> = self.iter().collect();
                ColumnStats::compute(values.iter())
            }
        }
    }
}

/// One sealed row partition of a table: column-major storage plus lazily
/// materialized per-column statistics.
#[derive(Debug)]
pub struct Chunk {
    len: usize,
    columns: Vec<Arc<ColumnChunk>>,
    stats: OnceLock<Vec<Arc<ColumnStats>>>,
}

impl Chunk {
    /// Seals `rows` (all of width `width`) into a columnar chunk.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from `width`; the table checks
    /// arity on ingest.
    pub fn from_rows(width: usize, rows: &[Record]) -> Chunk {
        let mut columns = Vec::with_capacity(width);
        for c in 0..width {
            let col: Vec<Value> = rows
                .iter()
                .map(|r| r.get(c).cloned().expect("row width checked on ingest"))
                .collect();
            columns.push(Arc::new(ColumnChunk::encode(col)));
        }
        Chunk {
            len: rows.len(),
            columns,
            stats: OnceLock::new(),
        }
    }

    /// Builds a chunk directly from encoded columns (segment reload path).
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree on length.
    pub fn from_columns(len: usize, columns: Vec<Arc<ColumnChunk>>) -> Chunk {
        for col in &columns {
            assert_eq!(col.len(), len, "column length mismatch");
        }
        Chunk {
            len,
            columns,
            stats: OnceLock::new(),
        }
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The encoded column at `idx`.
    pub fn column(&self, idx: usize) -> &Arc<ColumnChunk> {
        &self.columns[idx]
    }

    /// Decodes the cell at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Decodes one full row.
    pub fn record(&self, row: usize) -> Record {
        Record::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Decodes every row (the chunk-resident view behind the borrowing
    /// accessors).
    pub fn decode_rows(&self) -> Vec<Record> {
        (0..self.len).map(|r| self.record(r)).collect()
    }

    /// Per-column statistics, computed once on first use (eagerly at seal
    /// time on the ingest path, lazily for chunks paged back from disk).
    pub fn stats(&self, col: usize) -> &Arc<ColumnStats> {
        &self.all_stats()[col]
    }

    /// Statistics for every column, computing them on first call.
    pub fn all_stats(&self) -> &[Arc<ColumnStats>] {
        self.stats
            .get_or_init(|| self.columns.iter().map(|c| Arc::new(c.stats())).collect())
    }

    /// Statistics for `col` only if they are already materialized — used
    /// by `find` to prune chunks without paying for a stats build.
    pub fn stats_if_computed(&self, col: usize) -> Option<&Arc<ColumnStats>> {
        self.stats.get().map(|s| &s[col])
    }

    /// A chunk over a subset of columns, sharing the encoded column data
    /// (`Arc` bumps, no cell copies).
    pub fn project(&self, cols: &[usize]) -> Chunk {
        let columns = cols.iter().map(|&c| self.columns[c].clone()).collect();
        let projected = Chunk {
            len: self.len,
            columns,
            stats: OnceLock::new(),
        };
        if let Some(all) = self.stats.get() {
            let _ = projected
                .stats
                .set(cols.iter().map(|&c| all[c].clone()).collect());
        }
        projected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: Vec<Value>) -> Record {
        Record::new(vals)
    }

    #[test]
    fn text_columns_dictionary_encode() {
        let col = ColumnChunk::encode(vec![
            Value::text("CET"),
            Value::text("GMT"),
            Value::text("CET"),
            Value::Null,
        ]);
        match &col {
            ColumnChunk::Dict { dict, codes } => {
                assert_eq!(dict.iter().collect::<Vec<_>>(), ["CET", "GMT"]);
                assert_eq!((dict.blob(), dict.ends()), ("CETGMT", &[3, 6][..]));
                assert_eq!(codes, &vec![0, 1, 0, NULL_CODE]);
            }
            other => panic!("expected dict encoding, got {other:?}"),
        }
        assert_eq!(col.value(1), Value::text("GMT"));
        assert_eq!(col.value(3), Value::Null);
    }

    #[test]
    fn pool_from_parts_checks_what_get_relies_on() {
        let pool = StringPool::from_parts("éab".into(), vec![2, 2, 4]).unwrap();
        assert_eq!(pool.iter().collect::<Vec<_>>(), ["é", "", "ab"]);
        assert_eq!(
            StringPool::from_parts(Vec::new(), Vec::new()),
            Ok(StringPool::default())
        );
        for (blob, ends) in [
            (&b"\xffab"[..], vec![1, 3]),   // invalid UTF-8
            ("éab".as_bytes(), vec![4, 2]), // descending
            ("éab".as_bytes(), vec![2, 5]), // past the blob
            ("éab".as_bytes(), vec![2, 3]), // short of the blob
            ("éab".as_bytes(), vec![]),     // no offsets for a blob
            ("éab".as_bytes(), vec![1, 4]), // inside 'é'
        ] {
            assert!(
                StringPool::from_parts(blob.to_vec(), ends.clone()).is_err(),
                "{blob:?} {ends:?}"
            );
        }
    }

    #[test]
    fn int_columns_pack() {
        let col = ColumnChunk::encode(vec![Value::Int(7), Value::Null, Value::Int(-3)]);
        assert!(matches!(col, ColumnChunk::Ints { .. }));
        assert_eq!(col.value(0), Value::Int(7));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(-3));
    }

    #[test]
    fn mixed_columns_fall_back() {
        let col = ColumnChunk::encode(vec![Value::Int(1), Value::text("x"), Value::Float(2.5)]);
        assert!(matches!(col, ColumnChunk::Mixed(_)));
        assert_eq!(col.value(2), Value::Float(2.5));
    }

    #[test]
    fn stats_match_row_major_compute() {
        let values = vec![
            Value::text("CET"),
            Value::text("cet"),
            Value::text("GMT"),
            Value::Null,
        ];
        let col = ColumnChunk::encode(values.clone());
        let expect = ColumnStats::compute(values.iter());
        let got = col.stats();
        assert_eq!(got.total(), expect.total());
        assert_eq!(got.null_count(), expect.null_count());
        assert_eq!(got.distinct(), expect.distinct());
        assert_eq!(got.count(&Value::text("CET")), 2);
    }

    #[test]
    fn find_key_on_dict_and_mixed() {
        let dict = ColumnChunk::encode(vec![
            Value::text("Italy"),
            Value::text("Spain"),
            Value::text("ITALY"),
        ]);
        assert_eq!(dict.find_key("italy"), vec![0, 2]);
        assert_eq!(dict.find_key("france"), Vec::<usize>::new());
        let mixed = ColumnChunk::encode(vec![Value::Int(5), Value::text("5")]);
        assert_eq!(mixed.find_key(&Value::Int(5).answer_key()), vec![0, 1]);
    }

    #[test]
    fn chunk_roundtrips_rows() {
        let rows = vec![
            rec(vec![Value::text("a"), Value::Int(1)]),
            rec(vec![Value::Null, Value::Null]),
            rec(vec![Value::text("b"), Value::Int(2)]),
        ];
        let chunk = Chunk::from_rows(2, &rows);
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.width(), 2);
        assert_eq!(chunk.decode_rows(), rows);
        assert_eq!(chunk.record(1), rows[1]);
        assert_eq!(chunk.value(2, 0), Value::text("b"));
    }

    #[test]
    fn projection_shares_columns() {
        let rows = vec![rec(vec![
            Value::text("a"),
            Value::Int(1),
            Value::Bool(true),
        ])];
        let chunk = Chunk::from_rows(3, &rows);
        let proj = chunk.project(&[2, 0]);
        assert!(Arc::ptr_eq(proj.column(0), chunk.column(2)));
        assert!(Arc::ptr_eq(proj.column(1), chunk.column(0)));
        assert_eq!(
            proj.record(0),
            rec(vec![Value::Bool(true), Value::text("a")])
        );
    }

    #[test]
    fn projection_carries_computed_stats() {
        let rows = vec![rec(vec![Value::text("a"), Value::Int(1)])];
        let chunk = Chunk::from_rows(2, &rows);
        chunk.all_stats();
        let proj = chunk.project(&[1]);
        assert!(proj.stats_if_computed(0).is_some());
    }
}
