//! Chunked columnar storage: the in-memory unit of the out-of-core table.
//!
//! A [`Chunk`] holds one fixed-size row partition of a table, stored
//! column-major: one [`ColumnChunk`] per attribute. Text columns are
//! dictionary-encoded: the distinct strings stored once in a [`StringPool`]
//! (one UTF-8 blob plus an end-offset array — the bytes a spill segment
//! holds, so paging a chunk in copies the dictionary rather than
//! rebuilding it string by string) and one code per cell. Integer columns
//! are a base plus one offset per cell. Both keep their per-cell words in
//! [`Words`], at the narrowest width the chunk's data needs, with word 0
//! meaning null; anything heterogeneous falls back to a plain value
//! vector. A chunk is its encoded columns and nothing else;
//! [`Table::column_stats`] scans a column when asked.
//!
//! Sealing is a streaming encode: one column encoder per column is fed
//! each borrowed cell once, in row order, interning text straight from the
//! borrowed string and packing integers from the borrowed value, so it
//! keeps a chunk's dictionary and words and never its rows. The one cell
//! copy left is a `Mixed` column's, which stores its values.
//!
//! Chunks are immutable once sealed and shared via `Arc`: cloning a table,
//! projecting columns, or refreshing a lake entry bumps reference counts
//! instead of deep-copying cell data.
//!
//! [`Table::column_stats`]: crate::Table::column_stats

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use crate::value::canonical_key;
use crate::{CellRef, Record, Value};

/// One unsigned word per cell, stored at the narrowest of 1, 2, 4 or 8
/// bytes that holds the largest word. [`ColumnChunk`] reserves word 0 for
/// null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Words {
    /// Words up to `u8::MAX`.
    U8(Vec<u8>),
    /// Words up to `u16::MAX`.
    U16(Vec<u16>),
    /// Words up to `u32::MAX`.
    U32(Vec<u32>),
    /// Any word.
    U64(Vec<u64>),
}

/// Runs `$body` with `$w` bound to the words' slice, one monomorphic copy
/// per width (no per-word `match`).
macro_rules! per_width {
    ($words:expr, $w:ident => $body:expr) => {
        match $words {
            Words::U8($w) => $body,
            Words::U16($w) => $body,
            Words::U32($w) => $body,
            // Widening a `u64` word to `u64` is a no-op, not a mistake.
            #[allow(clippy::useless_conversion)]
            Words::U64($w) => $body,
        }
    };
}

impl Words {
    /// Packs `words`, none above `max`, at the narrowest width that holds
    /// `max`.
    pub fn pack(max: u64, words: impl Iterator<Item = u64>) -> Words {
        if max <= u64::from(u8::MAX) {
            Words::U8(words.map(|w| w as u8).collect())
        } else if max <= u64::from(u16::MAX) {
            Words::U16(words.map(|w| w as u16).collect())
        } else if max <= u64::from(u32::MAX) {
            Words::U32(words.map(|w| w as u32).collect())
        } else {
            Words::U64(words.collect())
        }
    }

    /// Bytes per word: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        match self {
            Words::U8(_) => 1,
            Words::U16(_) => 2,
            Words::U32(_) => 4,
            Words::U64(_) => 8,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        per_width!(self, w => w.len())
    }

    /// True if there are no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> u64 {
        per_width!(self, w => w[i].into())
    }

    /// The largest word, or 0 if there are none (one branch-free pass; it
    /// vectorizes).
    pub fn max(&self) -> u64 {
        per_width!(self, w => w.iter().fold(0, |m, &x| m.max(x)).into())
    }

    /// Calls `f(i, word)` for every word in order.
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        per_width!(self, w => {
            for (i, &x) in w.iter().enumerate() {
                f(i, x as usize);
            }
        })
    }
}

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
        let pool = StringPool { blob, ends };
        pool.check()?;
        Ok(pool)
    }

    /// Replaces the pool's strings with `blob` cut at `ends`, in the
    /// buffers the pool already has (the segment page-in path), checking
    /// the parts as [`StringPool::from_parts`] does. A refused pool is left
    /// empty.
    pub(crate) fn refill(
        &mut self,
        blob: &[u8],
        ends: impl ExactSizeIterator<Item = u32>,
    ) -> Result<(), &'static str> {
        let text = std::str::from_utf8(blob).map_err(|_| "invalid utf-8 in dictionary blob")?;
        // Exact reservations: a refilled pool keeps the largest dictionary
        // it has held, not twice it.
        self.blob.clear();
        self.blob.reserve_exact(text.len());
        self.blob.push_str(text);
        self.ends.clear();
        self.ends.reserve_exact(ends.len());
        self.ends.extend(ends);
        let checked = self.check();
        if checked.is_err() {
            *self = StringPool::default();
        }
        checked
    }

    /// What [`StringPool::get`] relies on: the offsets ascend, the last one
    /// is the blob length, and each falls on a character boundary.
    fn check(&self) -> Result<(), &'static str> {
        if !self.ends.is_sorted() {
            return Err("dictionary end offsets descend");
        }
        if self.ends.last().map_or(0, |&e| e as usize) != self.blob.len() {
            return Err("dictionary end offsets do not cover the blob");
        }
        if !self
            .ends
            .iter()
            .all(|&e| self.blob.is_char_boundary(e as usize))
        {
            return Err("dictionary end offset inside a character");
        }
        Ok(())
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
    /// Dictionary-encoded text: word `w` of a cell is `dict` string
    /// `w - 1`, and 0 is null.
    Dict {
        /// Distinct strings in first-appearance order.
        dict: StringPool,
        /// One word per row, none above `dict.len()`.
        codes: Words,
    },
    /// Integers as offsets from the smallest: word `w` of a cell is
    /// `base + (w - 1)`, and 0 is null.
    Ints {
        /// The smallest value in the column.
        base: i64,
        /// One word per row.
        words: Words,
    },
    /// Heterogeneous fallback: values stored directly.
    Mixed(Vec<Value>),
}

impl ColumnChunk {
    /// Encodes a column into the most compact representation: all-text
    /// columns dictionary-encode, all-integer columns pack as offsets from
    /// their smallest value, anything mixed (floats, bools, text+numbers)
    /// stays as values — as does a text column whose distinct strings
    /// exceed the pool's 4 GiB of offsets, and an integer column holding
    /// both `i64::MIN` and `i64::MAX` (its offsets and the null word do not
    /// fit 64 bits).
    ///
    /// The cells are borrowed and read once, in order: text is interned
    /// from the borrowed strings and integers are packed from the borrowed
    /// values. Only a `Mixed` column clones its cells, because it stores
    /// them.
    pub fn encode<'a>(cells: impl IntoIterator<Item = &'a Value>) -> ColumnChunk {
        let mut encoder = ColumnEncoder::default();
        for v in cells {
            encoder.push(v);
        }
        encoder.seal()
    }

    /// Number of cells in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Dict { codes, .. } => codes.len(),
            ColumnChunk::Ints { words, .. } => words.len(),
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
        self.cell(row).into()
    }

    /// The cell at `row`, borrowed: a dictionary cell is its pooled string.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn cell(&self, row: usize) -> CellRef<'_> {
        match self {
            ColumnChunk::Dict { dict, codes } => match codes.get(row) {
                0 => CellRef::Null,
                w => CellRef::Text(dict.get(w as usize - 1)),
            },
            ColumnChunk::Ints { base, words } => match words.get(row) {
                0 => CellRef::Null,
                w => CellRef::Int(base.wrapping_add((w - 1) as i64)),
            },
            ColumnChunk::Mixed(values) => values[row].as_cell(),
        }
    }

    /// Offsets of cells equal to `key` (a [`Value::answer_key`]).
    ///
    /// For dictionary columns this matches against the (small) dictionary
    /// first and then scans codes — no per-row string materialization.
    pub fn find_key(&self, key: &str) -> Vec<usize> {
        match self {
            ColumnChunk::Dict { dict, codes } => {
                // hit[w]: whether a cell with word w matches (0 is null).
                let mut hit = Vec::with_capacity(dict.len() + 1);
                hit.push(key.is_empty());
                hit.extend(dict.iter().map(|s| canonical_key(s) == key));
                if !hit.contains(&true) {
                    return Vec::new();
                }
                let mut rows = Vec::new();
                codes.for_each(|i, w| {
                    if hit[w] {
                        rows.push(i);
                    }
                });
                rows
            }
            _ => (0..self.len())
                .filter(|&i| self.value(i).answer_key() == key)
                .collect(),
        }
    }
}

/// What a [`ColumnEncoder`] has seen of its column since the last seal.
#[derive(Debug, Default, Clone, Copy)]
enum Seen {
    /// Text and nulls, or nothing yet: an all-null column is a dictionary.
    #[default]
    Dict,
    /// Integers and nulls, at least one integer, spanning `min..=max`.
    Ints { min: i64, max: i64 },
    /// Anything else: the cells are kept as values.
    Mixed,
}

/// The one column encoder behind [`ColumnChunk::encode`], [`Chunk::from_rows`],
/// [`Chunk::with_cell`] and the segment writer: fed one borrowed cell at a
/// time, it keeps the column's dictionary and words, never its rows, and
/// seals the encoding [`ColumnChunk::encode`] documents.
///
/// A cell the column's encoding so far cannot hold (an integer after text,
/// text after an integer, a float or a bool, a string past the pool's
/// offsets) turns the cells seen so far back into values once; from then
/// on every cell is cloned. Sealing empties the encoder and keeps its
/// buffers for the next chunk.
#[derive(Debug, Default)]
pub(crate) struct ColumnEncoder {
    seen: Seen,
    dict: StringPool,
    index: DictIndex,
    /// `Dict`: one word per cell, dictionary code + 1, 0 for null.
    codes: Vec<u32>,
    /// `Ints`: one per cell, `None` for null.
    ints: Vec<Option<i64>>,
    /// `Mixed`: the cells themselves.
    values: Vec<Value>,
}

impl ColumnEncoder {
    /// Appends one cell.
    pub(crate) fn push(&mut self, v: &Value) {
        match (self.seen, v) {
            (Seen::Dict, Value::Null) => self.codes.push(0),
            (Seen::Dict, Value::Text(s)) => match self.index.intern(&mut self.dict, s) {
                Some(word) => self.codes.push(word),
                None => self.push_mixed(v),
            },
            (Seen::Dict, &Value::Int(i)) if self.dict.is_empty() => {
                // Only nulls so far: the column is integers after all.
                self.ints.resize(self.codes.len(), None);
                self.ints.push(Some(i));
                self.codes.clear();
                self.seen = Seen::Ints { min: i, max: i };
            }
            (Seen::Ints { min, max }, &Value::Int(i)) => {
                self.ints.push(Some(i));
                self.seen = Seen::Ints {
                    min: min.min(i),
                    max: max.max(i),
                };
            }
            (Seen::Ints { .. }, Value::Null) => self.ints.push(None),
            _ => self.push_mixed(v),
        }
    }

    /// Appends `v` as a value, the column being mixed from now on.
    fn push_mixed(&mut self, v: &Value) {
        self.become_mixed();
        self.values.push(v.clone());
    }

    /// Turns the cells seen so far back into values, once.
    fn become_mixed(&mut self) {
        match self.seen {
            Seen::Dict => {
                let dict = &self.dict;
                self.values.extend(self.codes.iter().map(|&w| match w {
                    0 => Value::Null,
                    w => Value::text(dict.get(w as usize - 1)),
                }));
                self.dict = StringPool::default();
            }
            Seen::Ints { .. } => {
                let cells = self.ints.iter().map(|c| c.map_or(Value::Null, Value::Int));
                self.values.extend(cells);
            }
            Seen::Mixed => return,
        }
        self.seen = Seen::Mixed;
        self.clear_words();
    }

    fn clear_words(&mut self) {
        self.index.clear();
        self.codes.clear();
        self.ints.clear();
    }

    /// The column of every cell pushed since the last seal; the encoder is
    /// left empty.
    pub(crate) fn seal(&mut self) -> ColumnChunk {
        let column = match self.seen {
            Seen::Dict => ColumnChunk::Dict {
                codes: Words::pack(
                    self.dict.len() as u64,
                    self.codes.iter().map(|&w| u64::from(w)),
                ),
                dict: std::mem::take(&mut self.dict),
            },
            // Packed unless the span leaves no word for null (`i64::MIN`
            // and `i64::MAX` both present).
            Seen::Ints { min, max } if max.wrapping_sub(min) as u64 != u64::MAX => {
                ColumnChunk::Ints {
                    base: min,
                    words: Words::pack(
                        max.wrapping_sub(min) as u64 + 1,
                        self.ints
                            .iter()
                            .map(|c| c.map_or(0, |i| i.wrapping_sub(min) as u64 + 1)),
                    ),
                }
            }
            Seen::Ints { .. } | Seen::Mixed => {
                self.become_mixed();
                ColumnChunk::Mixed(std::mem::take(&mut self.values))
            }
        };
        self.seen = Seen::Dict;
        self.clear_words();
        column
    }
}

/// A dictionary's index: an open-addressed probe table of pool codes, so
/// no key borrows a cell. Strings are hashed with std's keyed
/// [`RandomState`] (cells are outside input), and a probe compares the
/// stored hash before the pooled string.
///
/// Its cost, measured on two vCPUs: with a `HashMap<Box<str>, u32>` in its
/// place, `lake_stream` `setup_s` rose 20 % (0.371 → 0.446 s).
#[derive(Debug, Default)]
struct DictIndex {
    hasher: RandomState,
    /// The hash of each pooled string, by code.
    hashes: Vec<u64>,
    /// Code + 1 of the string hashed near this slot, 0 for none; a power
    /// of two long and never more than half full.
    slots: Vec<u32>,
}

impl DictIndex {
    /// The word (code + 1) of `s` in `dict`, pooling it if it is new;
    /// `None` (pool unchanged) when the pool's offsets overflow.
    fn intern(&mut self, dict: &mut StringPool, s: &str) -> Option<u32> {
        if self.hashes.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(s);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let word @ 1.. = self.slots[slot] {
            let code = word as usize - 1;
            if self.hashes[code] == hash && dict.get(code) == s {
                return Some(word);
            }
            slot = (slot + 1) & mask;
        }
        let word = dict.push(s)?.checked_add(1)?;
        self.slots[slot] = word;
        self.hashes.push(hash);
        Some(word)
    }

    /// Doubles the table and re-seats every code by its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (code, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (len - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = code as u32 + 1;
        }
    }

    /// Forgets every string, keeping the table's size.
    fn clear(&mut self) {
        self.hashes.clear();
        self.slots.fill(0);
    }
}

/// One sealed row partition of a table: column-major storage.
#[derive(Debug)]
pub struct Chunk {
    len: usize,
    columns: Vec<Arc<ColumnChunk>>,
}

impl Chunk {
    /// Seals `rows` (all of width `width`) into a columnar chunk.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from `width`; the table checks
    /// arity on ingest.
    pub fn from_rows(width: usize, rows: &[Record]) -> Chunk {
        let mut encoders: Vec<ColumnEncoder> =
            (0..width).map(|_| ColumnEncoder::default()).collect();
        for row in rows {
            assert_eq!(row.len(), width, "row width differs from the chunk's");
            for (encoder, v) in encoders.iter_mut().zip(row.values()) {
                encoder.push(v);
            }
        }
        Chunk::seal(rows.len(), &mut encoders)
    }

    /// Seals the `len` rows pushed cell by cell into `encoders`, one per
    /// column, leaving every encoder empty for the next chunk.
    pub(crate) fn seal(len: usize, encoders: &mut [ColumnEncoder]) -> Chunk {
        Chunk {
            len,
            columns: encoders.iter_mut().map(|e| Arc::new(e.seal())).collect(),
        }
    }

    /// A chunk of no rows and no columns: the buffers a page-in decodes
    /// into when it has no evicted chunk to refill.
    pub(crate) fn empty() -> Chunk {
        Chunk::from_columns(0, Vec::new())
    }

    /// The row count and columns, for a page-in to decode over in place.
    /// The caller leaves every column `len` cells long or discards the
    /// chunk.
    pub(crate) fn refill(&mut self) -> (&mut usize, &mut Vec<Arc<ColumnChunk>>) {
        (&mut self.len, &mut self.columns)
    }

    /// Builds a chunk directly from encoded columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree on length.
    pub fn from_columns(len: usize, columns: Vec<Arc<ColumnChunk>>) -> Chunk {
        for col in &columns {
            assert_eq!(col.len(), len, "column length mismatch");
        }
        Chunk { len, columns }
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

    /// The cell at (`row`, `col`), borrowed.
    pub fn cell(&self, row: usize, col: usize) -> CellRef<'_> {
        self.columns[col].cell(row)
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

    /// This chunk with the cell at (`row`, `col`) replaced by `value`.
    ///
    /// Only column `col` is re-encoded, to what [`Chunk::from_rows`] would
    /// build from the edited rows; every other column is shared (`Arc`
    /// bumps).
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()` or `col >= width()`.
    pub fn with_cell(&self, row: usize, col: usize, value: Value) -> Chunk {
        let old = &self.columns[col];
        let mut encoder = ColumnEncoder::default();
        for r in 0..self.len {
            if r == row {
                encoder.push(&value);
            } else {
                encoder.push(&old.value(r));
            }
        }
        let mut columns = self.columns.clone();
        columns[col] = Arc::new(encoder.seal());
        Chunk {
            len: self.len,
            columns,
        }
    }

    /// A chunk over a subset of columns, sharing the encoded column data
    /// (`Arc` bumps, no cell copies).
    pub fn project(&self, cols: &[usize]) -> Chunk {
        Chunk {
            len: self.len,
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
        }
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
        let col = ColumnChunk::encode(&[
            Value::text("CET"),
            Value::text("GMT"),
            Value::text("CET"),
            Value::Null,
        ]);
        match &col {
            ColumnChunk::Dict { dict, codes } => {
                assert_eq!(dict.iter().collect::<Vec<_>>(), ["CET", "GMT"]);
                assert_eq!((dict.blob(), dict.ends()), ("CETGMT", &[3, 6][..]));
                assert_eq!(codes, &Words::U8(vec![1, 2, 1, 0]));
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
        let col = ColumnChunk::encode(&[Value::Int(7), Value::Null, Value::Int(-3)]);
        assert_eq!(
            col,
            ColumnChunk::Ints {
                base: -3,
                words: Words::U8(vec![11, 0, 1])
            }
        );
        assert_eq!(col.value(0), Value::Int(7));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(-3));
    }

    #[test]
    fn mixed_columns_fall_back() {
        let col = ColumnChunk::encode(&[Value::Int(1), Value::text("x"), Value::Float(2.5)]);
        assert!(matches!(col, ColumnChunk::Mixed(_)));
        assert_eq!(col.value(2), Value::Float(2.5));
    }

    #[test]
    fn find_key_on_dict_and_mixed() {
        let dict = ColumnChunk::encode(&[
            Value::text("Italy"),
            Value::text("Spain"),
            Value::text("ITALY"),
        ]);
        assert_eq!(dict.find_key("italy"), vec![0, 2]);
        assert_eq!(dict.find_key("france"), Vec::<usize>::new());
        let mixed = ColumnChunk::encode(&[Value::Int(5), Value::text("5")]);
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
}
