//! Spill-to-disk segment format and the bounded chunk pager.
//!
//! A *segment* is one table's sealed chunks serialized to a single file so
//! a lake larger than RAM can page row partitions in and out on demand:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ magic "UDMSEG4\0" │ u32 header length │ u64 header checksum64    │
//! │ header: table name, schema (names + dtypes), u64 chunk_rows      │
//! │ chunk 0 payload │ chunk 1 payload │ ... │ chunk N payload        │
//! │ directory: u64 chunk count, per chunk (offset, bytes, rows,      │
//! │            checksum64 of the payload) u64s                       │
//! │ u64 directory checksum64                                         │
//! │ u64 directory offset (last 8 bytes)                              │
//! └──────────────────────────────────────────────────────────────────┘
//!
//! chunk payload = u64 rows, then one column after another:
//!   0 Dict   u32 n │ u32 end × n │ blob (end[n-1] bytes) │ words
//!   1 Ints   i64 base │ words
//!   2 Mixed  per cell: u8 tag, then nothing / u32 len + bytes / 8 / 8 / 1
//! words = u8 width (1, 2, 4 or 8) │ width-byte word × rows
//! ```
//!
//! A `Dict` or `Ints` column is the in-memory [`ColumnChunk`] byte for byte:
//! the dictionary is the [`StringPool`]'s blob and end offsets, and the
//! words are the [`Words`] at the width the column was sealed with (word 0
//! is null, word `w` dictionary string `w - 1` or the value `base + w -
//! 1`). Paging a chunk in is a few bulk little-endian copies (a `memcpy`
//! for 1-byte words) and one UTF-8 pass over the blob, with no per-cell
//! parsing and no per-string allocation. All integers are little-endian;
//! the format is versioned by the magic.
//!
//! A segment is scratch: written by one process, read back by the same
//! build, never committed. The format is therefore *replaced, never
//! migrated* — a file with any other magic (`UDMSEG1` to `UDMSEG3`
//! included) is rejected by name, there is no second reader.
//!
//! Everything read from the file is checked before it sizes an allocation
//! or indexes anything, and a failed check is a [`TableError::Segment`]:
//!
//! * open: magic; header length and directory offset against the file
//!   length; the header's and the directory's `checksum64`s before either
//!   is decoded, so a flipped bit in them is an error rather than a wrong
//!   name, schema or chunk location; the chunk count against the
//!   directory's size; every chunk inside the payload region; every chunk
//!   but the last exactly `chunk_rows` long, the last at most that;
//! * page-in: the payload's `checksum64` against its directory entry's, so
//!   a flipped bit is an error rather than a wrong cell; then the payload
//!   row count against the directory's, before any column is decoded;
//!   each column against the bytes that remain; every word width 1, 2, 4
//!   or 8; dictionary offsets ascending, ending at the blob length and on
//!   character boundaries; the blob valid UTF-8; every dictionary word
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

use unidm_text::hash::checksum64;

use crate::chunk::{Chunk, ColumnChunk, StringPool, Words};
use crate::codec::{put_str, put_u32, put_u64, Cursor, Truncated};
use crate::{DataType, Record, Schema, TableError, Value};

const MAGIC: &[u8; 8] = b"UDMSEG4\0";
/// Magic, the header length and the header checksum.
const PREAMBLE: usize = MAGIC.len() + 4 + 8;
/// The directory checksum and the directory offset, the file's last bytes.
const TAIL: usize = 16;
/// Bytes of one directory entry: offset, byte length, row count, checksum.
const ENTRY_BYTES: usize = 32;

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

impl From<Truncated> for TableError {
    fn from(_: Truncated) -> Self {
        format_err("truncated segment payload")
    }
}

/// Rejects a payload with bytes after its last field.
fn finish(cur: &Cursor<'_>) -> Result<(), TableError> {
    if cur.remaining() != 0 {
        return Err(format_err("trailing bytes in segment payload"));
    }
    Ok(())
}

/// A length-prefixed string, or the error a garbled one is.
fn read_str(cur: &mut Cursor<'_>) -> Result<String, TableError> {
    let bytes = cur.bytes()?;
    String::from_utf8(bytes.to_vec()).map_err(|_| format_err("invalid utf-8 in segment"))
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

impl Words {
    /// Appends the width byte, then every word at that width.
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.width() as u8);
        match self {
            Words::U8(w) => out.extend_from_slice(w),
            Words::U16(w) => out.extend(w.iter().flat_map(|x| x.to_le_bytes())),
            Words::U32(w) => out.extend(w.iter().flat_map(|x| x.to_le_bytes())),
            Words::U64(w) => out.extend(w.iter().flat_map(|x| x.to_le_bytes())),
        }
    }

    /// Reads `n` words as [`Words::put`] wrote them.
    fn read(cur: &mut Cursor<'_>, n: usize) -> Result<Words, TableError> {
        Ok(match cur.u8()? {
            1 => Words::U8(cur.take(n)?.to_vec()),
            2 => Words::U16(cur.words(n, u16::from_le_bytes)?),
            4 => Words::U32(cur.words(n, u32::from_le_bytes)?),
            8 => Words::U64(cur.words(n, u64::from_le_bytes)?),
            w => return Err(format_err(format!("word width {w} is not 1, 2, 4 or 8"))),
        })
    }
}

fn encode_column(out: &mut Vec<u8>, col: &ColumnChunk) {
    match col {
        ColumnChunk::Dict { dict, codes } => {
            out.push(TAG_DICT);
            put_u32(out, dict.len() as u32);
            out.extend(dict.ends().iter().flat_map(|e| e.to_le_bytes()));
            out.extend_from_slice(dict.blob().as_bytes());
            codes.put(out);
        }
        ColumnChunk::Ints { base, words } => {
            out.push(TAG_INTS);
            out.extend_from_slice(&base.to_le_bytes());
            words.put(out);
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
            let ends = cur.words(n, u32::from_le_bytes)?;
            let blob = cur.take(ends.last().map_or(0, |&e| e as usize))?;
            let dict = StringPool::from_parts(blob.to_vec(), ends).map_err(format_err)?;
            let codes = Words::read(cur, rows)?;
            // Word w is string w - 1, so the largest word is the
            // dictionary size a column of these words needs.
            if codes.max() > dict.len() as u64 {
                return Err(format_err("dictionary code out of range"));
            }
            Ok(ColumnChunk::Dict { dict, codes })
        }
        TAG_INTS => {
            let base = cur.u64()? as i64;
            let words = Words::read(cur, rows)?;
            Ok(ColumnChunk::Ints { base, words })
        }
        TAG_MIXED => {
            // A cell is at least its tag byte.
            if rows > cur.remaining() {
                return Err(Truncated.into());
            }
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(match cur.u8()? {
                    VTAG_NULL => Value::Null,
                    VTAG_TEXT => Value::Text(read_str(cur)?),
                    VTAG_INT => Value::Int(cur.u64()? as i64),
                    VTAG_FLOAT => Value::Float(f64::from_bits(cur.u64()?)),
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
    finish(&cur)?;
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

/// Magic, header length, header checksum, header.
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
    put_u64(&mut out, checksum64(&header));
    out.extend_from_slice(&header);
    out
}

fn decode_header(buf: &[u8]) -> Result<(String, Schema, usize), TableError> {
    let mut cur = Cursor::new(buf);
    let name = read_str(&mut cur)?;
    let ncols = cur.u32()? as usize;
    // A column is at least its name length and dtype tag.
    if ncols > cur.remaining() / 5 {
        return Err(Truncated.into());
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col_name = read_str(&mut cur)?;
        let dtype = dtype_from_tag(cur.u8()?)?;
        columns.push(crate::Column::typed(col_name, dtype));
    }
    let schema = Schema::new(columns)?;
    let chunk_rows = to_usize(cur.u64()?)?;
    finish(&cur)?;
    Ok((name, schema, chunk_rows.max(1)))
}

/// Location of one chunk inside a segment file. A reader's entries have
/// passed [`SegmentReader::open`]'s checks.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    bytes: usize,
    rows: usize,
    /// [`checksum64`] of the payload.
    checksum: u64,
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
            checksum: checksum64(&payload),
        });
        self.offset += payload.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Flushes the trailing partial chunk, writes the directory, syncs the
    /// file's data to disk, and reopens the segment as a spilled
    /// [`crate::Table`] paging at most `budget` chunks at a time.
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
            put_u64(&mut dir, e.checksum);
        }
        let checksum = checksum64(&dir);
        put_u64(&mut dir, checksum);
        put_u64(&mut dir, self.offset); // directory offset, last 8 bytes
        self.file
            .write_all(&dir)
            .map_err(|e| io_err("write directory", e))?;
        self.file.flush().map_err(|e| io_err("flush segment", e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("sync segment", e))?;
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
        // Preamble, an empty directory's chunk count, the tail.
        if file_len < (PREAMBLE + 8 + TAIL) as u64 {
            return Err(format_err("segment file too short"));
        }
        let read_at = |len: u64, offset: u64, what: &str| -> Result<Vec<u8>, TableError> {
            let mut buf = vec![0u8; to_usize(len)?];
            file.read_exact_at(&mut buf, offset)
                .map_err(|e| io_err(what, e))?;
            Ok(buf)
        };

        let preamble = read_at(PREAMBLE as u64, 0, "read magic")?;
        let (magic, rest) = preamble.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(format_err(format!(
                "not a UDMSEG4 segment (magic {:?}): segments are scratch files of one \
                 format, spill the table again",
                String::from_utf8_lossy(magic)
            )));
        }
        let (header_len, header_sum) = rest.split_at(4);
        let header_len = u64::from(u32::from_le_bytes(header_len.try_into().unwrap()));
        let header_sum = u64::from_le_bytes(header_sum.try_into().unwrap());
        let payload_start = PREAMBLE as u64 + header_len;

        // Directory checksum and offset in the last 16 bytes; the
        // directory runs from the offset to them.
        let tail = read_at(TAIL as u64, file_len - TAIL as u64, "read directory offset")?;
        let (dir_sum, dir_offset) = tail.split_at(8);
        let dir_sum = u64::from_le_bytes(dir_sum.try_into().unwrap());
        let dir_offset = u64::from_le_bytes(dir_offset.try_into().unwrap());
        if dir_offset < payload_start || dir_offset > file_len - (8 + TAIL) as u64 {
            return Err(format_err("header or directory offset out of range"));
        }
        let header = read_at(header_len, PREAMBLE as u64, "read header")?;
        if checksum64(&header) != header_sum {
            return Err(format_err("the header fails its checksum"));
        }
        let (name, schema, chunk_rows) = decode_header(&header)?;

        let dir_len = file_len - TAIL as u64 - dir_offset;
        let dir = read_at(dir_len, dir_offset, "read directory")?;
        if checksum64(&dir) != dir_sum {
            return Err(format_err("the directory fails its checksum"));
        }
        let mut cur = Cursor::new(&dir);
        let nchunks = to_usize(cur.u64()?)?;
        if nchunks.checked_mul(ENTRY_BYTES) != Some(cur.remaining()) {
            return Err(format_err("chunk count differs from the directory's size"));
        }
        let mut entries = Vec::with_capacity(nchunks);
        let mut total_rows = 0usize;
        while cur.remaining() > 0 {
            let (offset, bytes, rows, checksum) = (cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?);
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
                checksum,
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

    /// Total rows across all chunks.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads chunk `idx` from disk, checks it against its checksum and
    /// decodes it.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Segment`] on I/O failure, a checksum
    /// mismatch or a malformed payload.
    pub fn read_chunk(&self, idx: usize) -> Result<Chunk, TableError> {
        let entry = *self
            .entries
            .get(idx)
            .ok_or_else(|| format_err(format!("chunk {idx} out of range")))?;
        let mut buf = vec![0u8; entry.bytes];
        self.file
            .read_exact_at(&mut buf, entry.offset)
            .map_err(|e| io_err("read chunk", e))?;
        if checksum64(&buf) != entry.checksum {
            return Err(format_err(format!(
                "chunk {idx} fails its checksum: the payload is corrupt"
            )));
        }
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
    fn all_null_ints_and_full_range_ints_round_trip_through_a_payload() {
        // `encode` seals an all-null column as an empty dictionary, but a
        // file may hold an all-null `Ints` column, and it reads back.
        let columns = vec![
            Arc::new(ColumnChunk::Ints {
                base: 0,
                words: Words::U8(vec![0; 3]),
            }),
            Arc::new(ColumnChunk::encode(&[
                Value::Int(i64::MIN),
                Value::Null,
                Value::Int(i64::MAX),
            ])),
        ];
        let chunk = Chunk::from_columns(3, columns);
        let back = decode_chunk(&encode_chunk(&chunk), 2, 3).unwrap();
        for c in 0..2 {
            assert_eq!(back.column(c), chunk.column(c));
        }
        assert!(matches!(**back.column(1), ColumnChunk::Mixed(_)));
        assert_eq!(back.value(1, 0), Value::Null);
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
