//! Spill-to-disk segment format and the bounded chunk pager.
//!
//! A *segment* is one table's sealed chunks serialized to a single file so
//! a lake larger than RAM can page row partitions in and out on demand:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ magic "UDMSEG2\0" │ u32 header length                            │
//! │ header: table name, schema (names + dtypes), u64 chunk_rows      │
//! │ chunk 0 payload │ chunk 1 payload │ ... │ chunk N payload        │
//! │ directory: u64 chunk count, per chunk (offset, bytes, rows) u64s │
//! │ u64 directory offset (last 8 bytes)                              │
//! └──────────────────────────────────────────────────────────────────┘
//!
//! chunk payload = u64 rows, then one column after another:
//!   0 Dict   u32 n │ u32 end × n │ blob (end[n-1] bytes) │ u32 code × rows
//!   1 Ints   i64 value × rows │ u8 present × rows
//!   2 Mixed  per cell: u8 tag, then nothing / u32 len + bytes / 8 / 8 / 1
//! ```
//!
//! A `Dict` or `Ints` column is the in-memory [`ColumnChunk`] byte for byte
//! (the dictionary is the [`StringPool`]'s blob and end offsets), so paging
//! a chunk in is a few bulk little-endian copies and one UTF-8 pass over
//! the blob, with no per-cell parsing and no per-string allocation. All
//! integers are little-endian; the format is versioned by the magic and
//! dependency-free.
//!
//! A segment is scratch: written by one process, read back by the same
//! build, never committed. The format is therefore *replaced, never
//! migrated* — a file with any other magic (`UDMSEG1` included) is
//! rejected by name, there is no second reader.
//!
//! Everything read from the file is checked before it sizes an allocation
//! or indexes anything, and a failed check is a [`TableError::Segment`]:
//!
//! * open: magic; header length, directory offset and chunk count against
//!   the file length; every chunk inside the payload region; every chunk
//!   but the last exactly `chunk_rows` long, the last at most that;
//! * page-in: payload row count against the directory's, before any
//!   column is decoded; each column against the bytes that remain;
//!   dictionary offsets ascending, ending at the blob length and on
//!   character boundaries; the blob valid UTF-8; every non-null code
//!   inside the dictionary; no bytes left over.
//!
//! [`SegmentWriter`] streams rows chunk-by-chunk (peak memory: one chunk),
//! and [`Pager`] serves random chunk reads through an LRU cache bounded by
//! a configurable chunk *budget* — the knob that caps resident memory for
//! spilled tables regardless of row count.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::chunk::{Chunk, ColumnChunk, StringPool, NULL_CODE};
use crate::{DataType, Record, Schema, TableError, Value};

const MAGIC: &[u8; 8] = b"UDMSEG2\0";
/// Magic plus the header length field.
const PREAMBLE: usize = MAGIC.len() + 4;
/// Bytes of one directory entry: offset, byte length, row count.
const ENTRY_BYTES: usize = 24;

/// Default number of chunks a spilled table keeps resident.
pub const DEFAULT_PAGE_BUDGET: usize = 16;

fn io_err(context: &str, e: std::io::Error) -> TableError {
    TableError::Segment(format!("{context}: {e}"))
}

fn format_err(msg: impl Into<String>) -> TableError {
    TableError::Segment(msg.into())
}

fn to_usize(v: u64) -> Result<usize, TableError> {
    usize::try_from(v).map_err(|_| format_err("segment length exceeds the address space"))
}

// ── Little-endian primitives ────────────────────────────────────────────

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a decoded byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TableError> {
        if n > self.remaining() {
            return Err(format_err("truncated segment payload"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// `n` fixed-width cells as one slice, failing before anything is
    /// allocated for them if the buffer cannot hold that many.
    fn cells(&mut self, n: usize, width: usize) -> Result<&'a [u8], TableError> {
        let bytes = n
            .checked_mul(width)
            .ok_or_else(|| format_err("truncated segment payload"))?;
        self.take(bytes)
    }

    fn finish(self) -> Result<(), TableError> {
        if self.remaining() != 0 {
            return Err(format_err("trailing bytes in segment payload"));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, TableError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, TableError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, TableError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, TableError> {
        let cells = self.cells(n, 4)?.chunks_exact(4);
        Ok(cells
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn i64s(&mut self, n: usize) -> Result<Vec<i64>, TableError> {
        let cells = self.cells(n, 8)?.chunks_exact(8);
        Ok(cells
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn str(&mut self) -> Result<String, TableError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format_err("invalid utf-8 in segment"))
    }
}

// ── Chunk payload encode/decode ─────────────────────────────────────────

const TAG_DICT: u8 = 0;
const TAG_INTS: u8 = 1;
const TAG_MIXED: u8 = 2;

const VTAG_NULL: u8 = 0;
const VTAG_TEXT: u8 = 1;
const VTAG_INT: u8 = 2;
const VTAG_FLOAT: u8 = 3;
const VTAG_BOOL: u8 = 4;

fn encode_column(out: &mut Vec<u8>, col: &ColumnChunk) {
    match col {
        ColumnChunk::Dict { dict, codes } => {
            out.push(TAG_DICT);
            put_u32(out, dict.len() as u32);
            out.extend(dict.ends().iter().flat_map(|e| e.to_le_bytes()));
            out.extend_from_slice(dict.blob().as_bytes());
            out.extend(codes.iter().flat_map(|c| c.to_le_bytes()));
        }
        ColumnChunk::Ints { values, present } => {
            out.push(TAG_INTS);
            out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
            out.extend(present.iter().map(|&p| u8::from(p)));
        }
        ColumnChunk::Mixed(values) => {
            out.push(TAG_MIXED);
            for v in values {
                match v {
                    Value::Null => out.push(VTAG_NULL),
                    Value::Text(s) => {
                        out.push(VTAG_TEXT);
                        put_str(out, s);
                    }
                    Value::Int(i) => {
                        out.push(VTAG_INT);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Float(x) => {
                        out.push(VTAG_FLOAT);
                        put_u64(out, x.to_bits());
                    }
                    Value::Bool(b) => {
                        out.push(VTAG_BOOL);
                        out.push(u8::from(*b));
                    }
                }
            }
        }
    }
}

fn decode_column(cur: &mut Cursor<'_>, rows: usize) -> Result<ColumnChunk, TableError> {
    match cur.u8()? {
        TAG_DICT => {
            let n = cur.u32()? as usize;
            let ends = cur.u32s(n)?;
            let blob = cur.take(ends.last().map_or(0, |&e| e as usize))?;
            let dict = StringPool::from_parts(blob.to_vec(), ends).map_err(format_err)?;
            let codes = cur.u32s(rows)?;
            // One branch-free pass (it vectorizes; a short-circuiting scan
            // does not): `NULL_CODE + 1` wraps to 0, every other code to
            // one past itself, so the largest is the dictionary size a
            // column of these codes needs.
            const _: () = assert!(NULL_CODE == u32::MAX);
            let needs = codes.iter().fold(0, |m, c| c.wrapping_add(1).max(m));
            if needs as usize > dict.len() {
                return Err(format_err("dictionary code out of range"));
            }
            Ok(ColumnChunk::Dict { dict, codes })
        }
        TAG_INTS => {
            let values = cur.i64s(rows)?;
            let present = cur.take(rows)?.iter().map(|&p| p != 0).collect();
            Ok(ColumnChunk::Ints { values, present })
        }
        TAG_MIXED => {
            // A cell is at least its tag byte.
            if rows > cur.remaining() {
                return Err(format_err("truncated segment payload"));
            }
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(match cur.u8()? {
                    VTAG_NULL => Value::Null,
                    VTAG_TEXT => Value::Text(cur.str()?),
                    VTAG_INT => Value::Int(cur.i64()?),
                    VTAG_FLOAT => Value::Float(cur.f64()?),
                    VTAG_BOOL => Value::Bool(cur.u8()? != 0),
                    tag => return Err(format_err(format!("unknown value tag {tag}"))),
                });
            }
            Ok(ColumnChunk::Mixed(values))
        }
        tag => Err(format_err(format!("unknown column tag {tag}"))),
    }
}

/// Serializes one chunk into its segment payload.
fn encode_chunk(chunk: &Chunk) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, chunk.len() as u64);
    for c in 0..chunk.width() {
        encode_column(&mut out, chunk.column(c));
    }
    out
}

/// Decodes a payload the directory says holds `rows` rows of `width`
/// columns.
fn decode_chunk(buf: &[u8], width: usize, rows: usize) -> Result<Chunk, TableError> {
    let mut cur = Cursor::new(buf);
    if cur.u64()? != rows as u64 {
        return Err(format_err(
            "chunk row count differs from its directory entry",
        ));
    }
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        columns.push(Arc::new(decode_column(&mut cur, rows)?));
    }
    cur.finish()?;
    Ok(Chunk::from_columns(rows, columns))
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Text => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType, TableError> {
    Ok(match tag {
        0 => DataType::Text,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Bool,
        t => return Err(format_err(format!("unknown dtype tag {t}"))),
    })
}

/// Magic, header length, header.
fn encode_header(name: &str, schema: &Schema, chunk_rows: usize) -> Vec<u8> {
    let mut header = Vec::new();
    put_str(&mut header, name);
    put_u32(&mut header, schema.len() as u32);
    for col in schema.columns() {
        put_str(&mut header, col.name());
        header.push(dtype_tag(col.dtype()));
    }
    put_u64(&mut header, chunk_rows as u64);
    let mut out = MAGIC.to_vec();
    put_u32(&mut out, header.len() as u32);
    out.extend_from_slice(&header);
    out
}

fn decode_header(buf: &[u8]) -> Result<(String, Schema, usize), TableError> {
    let mut cur = Cursor::new(buf);
    let name = cur.str()?;
    let ncols = cur.u32()? as usize;
    // A column is at least its name length and dtype tag.
    if ncols > cur.remaining() / 5 {
        return Err(format_err("truncated segment payload"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col_name = cur.str()?;
        let dtype = dtype_from_tag(cur.u8()?)?;
        columns.push(crate::Column::typed(col_name, dtype));
    }
    let schema = Schema::new(columns)?;
    let chunk_rows = to_usize(cur.u64()?)?;
    cur.finish()?;
    Ok((name, schema, chunk_rows.max(1)))
}

/// Location of one chunk inside a segment file. A reader's entries have
/// passed [`SegmentReader::open`]'s checks.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    bytes: usize,
    rows: usize,
}

// ── Writer ──────────────────────────────────────────────────────────────

/// Streams rows into a segment file chunk-by-chunk: peak memory is one
/// chunk's rows plus its encoded payload, independent of the total row
/// count. This is the ingest path for lakes larger than RAM — the
/// streaming CSV reader and the synthetic scale generator both bottom out
/// here.
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    name: String,
    schema: Schema,
    chunk_rows: usize,
    buffer: Vec<Record>,
    entries: Vec<ChunkEntry>,
    offset: u64,
}

impl SegmentWriter {
    /// Creates (truncating) the segment file and writes its header.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure.
    pub fn create(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        chunk_rows: usize,
    ) -> Result<Self, TableError> {
        let path = path.as_ref().to_path_buf();
        let name = name.into();
        let file = File::create(&path).map_err(|e| io_err("create segment", e))?;
        let mut file = BufWriter::new(file);
        let header = encode_header(&name, &schema, chunk_rows.max(1));
        file.write_all(&header)
            .map_err(|e| io_err("write header", e))?;
        Ok(SegmentWriter {
            path,
            file,
            name,
            schema,
            chunk_rows: chunk_rows.max(1),
            buffer: Vec::new(),
            entries: Vec::new(),
            offset: header.len() as u64,
        })
    }

    /// The table name the segment is being written under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema rows must conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows accepted so far.
    pub fn rows_written(&self) -> usize {
        self.entries.iter().map(|e| e.rows).sum::<usize>() + self.buffer.len()
    }

    /// Appends one row, sealing and writing a chunk whenever the buffer
    /// fills.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ArityMismatch`] for rows of the wrong width
    /// and [`TableError::Segment`] on I/O failure.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), TableError> {
        if values.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                got: values.len(),
                expected: self.schema.len(),
            });
        }
        self.buffer.push(Record::new(values));
        if self.buffer.len() >= self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TableError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let chunk = Chunk::from_rows(self.schema.len(), &self.buffer);
        let payload = encode_chunk(&chunk);
        self.file
            .write_all(&payload)
            .map_err(|e| io_err("write chunk", e))?;
        self.entries.push(ChunkEntry {
            offset: self.offset,
            bytes: payload.len(),
            rows: chunk.len(),
        });
        self.offset += payload.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Flushes the trailing partial chunk, writes the directory, and
    /// reopens the segment as a spilled [`crate::Table`] paging at most
    /// `budget` chunks at a time.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure.
    pub fn finish(mut self, budget: usize) -> Result<crate::Table, TableError> {
        self.flush_chunk()?;
        let mut dir = Vec::new();
        put_u64(&mut dir, self.entries.len() as u64);
        for e in &self.entries {
            put_u64(&mut dir, e.offset);
            put_u64(&mut dir, e.bytes as u64);
            put_u64(&mut dir, e.rows as u64);
        }
        put_u64(&mut dir, self.offset); // directory offset, last 8 bytes
        self.file
            .write_all(&dir)
            .map_err(|e| io_err("write directory", e))?;
        self.file.flush().map_err(|e| io_err("flush segment", e))?;
        drop(self.file);
        crate::Table::open_segment(&self.path, budget)
    }
}

// ── Reader / pager ──────────────────────────────────────────────────────

/// An open segment file: header metadata plus random chunk reads. Reads
/// are positional (`pread`), so threads faulting different chunks do not
/// wait on one another.
#[derive(Debug)]
pub struct SegmentReader {
    file: File,
    path: PathBuf,
    name: String,
    schema: Schema,
    chunk_rows: usize,
    entries: Vec<ChunkEntry>,
    rows: usize,
}

impl SegmentReader {
    /// Opens a segment and reads its header and directory, reading exactly
    /// those bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure or a malformed file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TableError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| io_err("open segment", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("stat segment", e))?
            .len();
        // Preamble, an empty directory's chunk count, the directory offset.
        if file_len < (PREAMBLE + 16) as u64 {
            return Err(format_err("segment file too short"));
        }
        let read_at = |len: u64, offset: u64, what: &str| -> Result<Vec<u8>, TableError> {
            let mut buf = vec![0u8; to_usize(len)?];
            file.read_exact_at(&mut buf, offset)
                .map_err(|e| io_err(what, e))?;
            Ok(buf)
        };

        let preamble = read_at(PREAMBLE as u64, 0, "read magic")?;
        let (magic, header_len) = preamble.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(format_err(format!(
                "not a UDMSEG2 segment (magic {:?}): segments are scratch files of one \
                 format, spill the table again",
                String::from_utf8_lossy(magic)
            )));
        }
        let header_len = u64::from(u32::from_le_bytes(header_len.try_into().unwrap()));
        let payload_start = PREAMBLE as u64 + header_len;

        // Directory offset in the last 8 bytes; the directory runs from
        // there to them.
        let tail = read_at(8, file_len - 8, "read directory offset")?;
        let dir_offset = u64::from_le_bytes(tail.try_into().unwrap());
        if dir_offset < payload_start || dir_offset > file_len - 16 {
            return Err(format_err("header or directory offset out of range"));
        }
        let (name, schema, chunk_rows) =
            decode_header(&read_at(header_len, PREAMBLE as u64, "read header")?)?;

        let dir = read_at(file_len - 8 - dir_offset, dir_offset, "read directory")?;
        let mut cur = Cursor::new(&dir);
        let nchunks = to_usize(cur.u64()?)?;
        if nchunks.checked_mul(ENTRY_BYTES) != Some(cur.remaining()) {
            return Err(format_err("chunk count differs from the directory's size"));
        }
        let mut entries = Vec::with_capacity(nchunks);
        let mut total_rows = 0usize;
        while cur.remaining() > 0 {
            let (offset, bytes, rows) = (cur.u64()?, cur.u64()?, cur.u64()?);
            if offset < payload_start
                || offset.checked_add(bytes).is_none_or(|end| end > dir_offset)
            {
                return Err(format_err("chunk entry out of range"));
            }
            // `Table` addresses a row as (index / chunk_rows, index %
            // chunk_rows): only the last chunk may be short.
            let last = cur.remaining() == 0;
            if rows > chunk_rows as u64 || (!last && rows != chunk_rows as u64) {
                return Err(format_err("chunk row count differs from chunk_rows"));
            }
            let rows = rows as usize;
            total_rows = total_rows
                .checked_add(rows)
                .ok_or_else(|| format_err("segment row count overflows"))?;
            entries.push(ChunkEntry {
                offset,
                bytes: to_usize(bytes)?,
                rows,
            });
        }

        Ok(SegmentReader {
            file,
            path,
            name,
            schema,
            chunk_rows,
            entries,
            rows: total_rows,
        })
    }

    /// The table name recorded in the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema recorded in the header.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The row-partition size the segment was written with.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks in the segment.
    pub fn chunk_count(&self) -> usize {
        self.entries.len()
    }

    /// Rows in chunk `idx`.
    pub fn chunk_len(&self, idx: usize) -> usize {
        self.entries[idx].rows
    }

    /// Total rows across all chunks.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads and decodes chunk `idx` from disk.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure or a malformed
    /// payload.
    pub fn read_chunk(&self, idx: usize) -> Result<Chunk, TableError> {
        let entry = *self
            .entries
            .get(idx)
            .ok_or_else(|| format_err(format!("chunk {idx} out of range")))?;
        let mut buf = vec![0u8; entry.bytes];
        self.file
            .read_exact_at(&mut buf, entry.offset)
            .map_err(|e| io_err("read chunk", e))?;
        decode_chunk(&buf, self.schema.len(), entry.rows)
    }
}

/// A bounded LRU cache of decoded chunks over a [`SegmentReader`] — the
/// memory budget for a spilled table. At most `budget` chunks are resident
/// at once; a lookup past the budget evicts the least recently used chunk
/// (outstanding `Arc`s keep evicted chunks alive until their readers
/// drop).
#[derive(Debug)]
pub struct Pager {
    segment: SegmentReader,
    budget: usize,
    cache: Mutex<PageCache>,
}

#[derive(Debug, Default)]
struct PageCache {
    resident: HashMap<usize, (Arc<Chunk>, u64)>,
    tick: u64,
}

impl Pager {
    /// Wraps a segment with an LRU budget of `budget` chunks (minimum 1).
    pub fn new(segment: SegmentReader, budget: usize) -> Self {
        Pager {
            segment,
            budget: budget.max(1),
            cache: Mutex::new(PageCache::default()),
        }
    }

    /// The underlying segment.
    pub fn segment(&self) -> &SegmentReader {
        &self.segment
    }

    /// The configured chunk budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Chunks currently resident in the cache.
    pub fn resident_chunks(&self) -> usize {
        self.cache.lock().expect("pager lock").resident.len()
    }

    /// Returns chunk `idx`, reading it from disk on a miss and evicting
    /// the least recently used chunk when over budget.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure.
    pub fn chunk(&self, idx: usize) -> Result<Arc<Chunk>, TableError> {
        {
            let mut cache = self.cache.lock().expect("pager lock");
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((chunk, stamp)) = cache.resident.get_mut(&idx) {
                *stamp = tick;
                return Ok(chunk.clone());
            }
        }
        // Miss: read outside the cache lock (positional reads need no lock
        // of their own), then insert. A racing thread may have inserted
        // the same chunk meanwhile; either copy is identical.
        let chunk = Arc::new(self.segment.read_chunk(idx)?);
        let mut cache = self.cache.lock().expect("pager lock");
        cache.tick += 1;
        let tick = cache.tick;
        cache.resident.insert(idx, (chunk.clone(), tick));
        while cache.resident.len() > self.budget {
            let victim = cache
                .resident
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k)
                .expect("non-empty over-budget cache");
            cache.resident.remove(&victim);
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "unidm-segment-test-{}-{name}.seg",
            std::process::id()
        ));
        p
    }

    fn schema() -> Schema {
        Schema::from_names(["city", "country", "pop"]).unwrap()
    }

    fn row(i: usize) -> Vec<Value> {
        vec![
            Value::text(format!("city-{}", i % 7)),
            Value::text(format!("country-{}", i % 3)),
            Value::Int(i as i64),
        ]
    }

    #[test]
    fn write_read_roundtrip() {
        let path = tmp("roundtrip");
        let mut w = SegmentWriter::create(&path, "cities", schema(), 8).unwrap();
        for i in 0..21 {
            w.push_row(row(i)).unwrap();
        }
        assert_eq!(w.rows_written(), 21);
        let table = w.finish(2).unwrap();
        assert_eq!(table.name(), "cities");
        assert_eq!(table.row_count(), 21);
        for i in 0..21 {
            assert_eq!(table.row_at(i).unwrap(), Record::new(row(i)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pager_respects_budget() {
        let path = tmp("budget");
        let mut w = SegmentWriter::create(&path, "t", schema(), 4).unwrap();
        for i in 0..40 {
            w.push_row(row(i)).unwrap();
        }
        w.finish(16).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.chunk_count(), 10);
        let pager = Pager::new(reader, 3);
        for idx in 0..10 {
            let chunk = pager.chunk(idx).unwrap();
            assert_eq!(chunk.len(), 4);
            assert!(pager.resident_chunks() <= 3);
        }
        // Re-reading a resident chunk does not grow the cache.
        pager.chunk(9).unwrap();
        assert!(pager.resident_chunks() <= 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_files_rejected() {
        let path = tmp("malformed");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(TableError::Segment(_))
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(TableError::Segment(_))
        ));
    }

    #[test]
    fn empty_segment_roundtrip() {
        let path = tmp("empty");
        let w = SegmentWriter::create(&path, "empty", schema(), 8).unwrap();
        let table = w.finish(2).unwrap();
        assert_eq!(table.row_count(), 0);
        assert!(table.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
