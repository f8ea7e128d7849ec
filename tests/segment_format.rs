//! The `UDMSEG4` spill format, from outside the crate: what a writer
//! spills a reader pages back cell for cell, and a file that is not what a
//! writer wrote — cut short anywhere, a payload bit flipped, or one field
//! changed by hand — is a [`TableError::Segment`], never a panic, a wrong
//! cell or an allocation sized by a garbage length.
//!
//! Generated inputs are seeded from `UNIDM_FAULT_SEED` (the CI matrix runs
//! 7 and 1337); the default is 9 so a plain `cargo test` adds a third.
//!
//! The hand corruptions patch bytes at offsets computed from the layout
//! documented in `crates/tablestore/src/segment.rs`; a layout change has to
//! touch this file too, which is the point. A hand corruption of a
//! payload re-seals the chunk's checksum, and one of the directory the
//! directory's, so the check it names is the one that catches it.

mod common;

use std::path::PathBuf;

use common::{Gen, ANY};
use unidm_tablestore::{Schema, SegmentReader, Table, TableError, Value};
use unidm_text::hash::checksum64;

fn seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9)
}

fn tmp(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("unidm-segfmt-{}-{tag}.seg", std::process::id()));
    path
}

/// Removes its file when the test ends, passed or failed.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// `chunks` full chunks of `chunk_rows` rows and one more row, so the
/// spilled copy ends in a 1-row chunk. Columns: `id` packed ints with
/// nulls; `label` dictionary text over a small pool holding multi-byte
/// strings and the empty string, with nulls; `void` text that is null in
/// every row (a dictionary with an empty pool); `any` every value kind
/// (the `Mixed` encoding).
fn generated_table(gen: &mut Gen, chunks: usize, chunk_rows: usize) -> Table {
    let mut pool = vec![String::new(), "日本語".to_string(), "é".to_string()];
    pool.extend((0..4).map(|_| gen.string(ANY, 12)));
    let schema = Schema::from_names(["id", "label", "void", "any"]).unwrap();
    let mut table = Table::with_chunk_rows("generated", schema, chunk_rows);
    for i in 0..chunks * chunk_rows + 1 {
        let id = match gen.usize(0, 8) {
            0 => Value::Null,
            _ => Value::Int(i as i64 - 3),
        };
        let label = match gen.usize(0, pool.len() + 1) {
            n if n == pool.len() => Value::Null,
            n => Value::text(pool[n].as_str()),
        };
        let any = match gen.usize(0, 5) {
            0 => Value::Null,
            1 => Value::text(gen.string(ANY, 6)),
            2 => Value::Int(gen.usize(0, 100) as i64),
            3 => Value::Float(gen.usize(0, 100) as f64 / 4.0),
            _ => Value::Bool(gen.bool()),
        };
        table.push_row(vec![id, label, Value::Null, any]).unwrap();
    }
    table
}

#[test]
fn spilled_tables_read_back_equal() {
    let mut gen = Gen::new(seed());
    for (case, (chunks, chunk_rows)) in [(0, 5), (1, 1), (3, 7), (2, 64)].into_iter().enumerate() {
        let table = generated_table(&mut gen, chunks, chunk_rows);
        let scratch = Scratch(tmp(&format!("equal-{case}")));
        let spilled = table.spill_to(&scratch.0, 2).unwrap();
        let reopened = Table::open_segment(&scratch.0, 1).unwrap();
        assert_eq!(spilled.chunk_count(), chunks + 1, "1-row trailing chunk");
        for paged in [&spilled, &reopened] {
            assert_eq!(paged, &table, "case {case}: rows differ after spill");
            for attr in ["id", "label", "void", "any"] {
                assert_eq!(
                    paged.column_stats(attr).unwrap(),
                    table.column_stats(attr).unwrap(),
                    "case {case}: column_stats({attr})"
                );
                let mut needles: Vec<Value> = table.column(attr).unwrap().collect();
                needles.truncate(12);
                needles.push(Value::Null);
                needles.push(Value::text("absent from every column"));
                for needle in &needles {
                    assert_eq!(
                        paged.find(attr, needle).unwrap(),
                        table.find(attr, needle).unwrap(),
                        "case {case}: find({attr}, {needle:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_an_error_or_a_correct_prefix() {
    let mut gen = Gen::new(seed() ^ 0x7e57);
    let chunk_rows = 3;
    let table = generated_table(&mut gen, 3, chunk_rows);
    let scratch = Scratch(tmp("truncate"));
    table.spill_to(&scratch.0, 1).unwrap();
    let bytes = std::fs::read(&scratch.0).unwrap();
    for len in 0..bytes.len() {
        std::fs::write(&scratch.0, &bytes[..len]).unwrap();
        let reader = match SegmentReader::open(&scratch.0) {
            Ok(reader) => reader,
            Err(TableError::Segment(_)) => continue,
            Err(other) => panic!("{len} of {} bytes: open failed with {other:?}", bytes.len()),
        };
        for idx in 0..reader.chunk_count() {
            match reader.read_chunk(idx) {
                Ok(chunk) => {
                    for (r, got) in chunk.decode_rows().into_iter().enumerate() {
                        let want = table.row_at(idx * chunk_rows + r).unwrap();
                        assert_eq!(got, want, "{len} bytes: chunk {idx} row {r}");
                    }
                }
                Err(TableError::Segment(_)) => {}
                Err(other) => panic!("{len} bytes: read_chunk({idx}) failed with {other:?}"),
            }
        }
    }
}

// ── One hand-corrupted file per rejected condition ──────────────────────

/// A one-column segment whose bytes the cases below can address: chunk 0
/// is rows `["é", "ab", "é", null]`, chunk 1 the single row `["z"]`.
///
/// ```text
/// chunk 0 payload, from its directory offset `p` (30 bytes):
///   p      u64 rows  = 4
///   p+8    u8  tag   = 0 (Dict)
///   p+9    u32 n     = 2
///   p+13   u32 ends  = [2, 4]
///   p+21   blob      = C3 A9 'a' 'b'
///   p+25   u8  width = 1
///   p+26   u8  words = [1, 2, 1, 0]   (string w - 1; 0 is null)
/// directory, from `dir`:
///   dir    u64 chunk count = 2
///   dir+8  chunk 0: u64 offset, u64 bytes, u64 rows, u64 checksum
///   dir+40 chunk 1: the same
/// ```
struct Specimen {
    scratch: Scratch,
    bytes: Vec<u8>,
    /// Offset of the directory (the `u64` chunk count).
    dir: usize,
    /// Offset of chunk 0's payload.
    p: usize,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn specimen(tag: &str) -> Specimen {
    let s = specimen_of(tag, &[Some("é"), Some("ab"), Some("é"), None]);
    assert_eq!(u64_at(&s.bytes, s.dir + 16), 30, "chunk 0 payload bytes");
    assert_eq!(&s.bytes[s.p + 21..s.p + 25], "éab".as_bytes());
    assert_eq!(&s.bytes[s.p + 25..s.p + 30], [1, 1, 2, 1, 0]);
    s
}

/// A specimen whose chunk 0 is `chunk0` and whose chunk 1 is `["z"]`.
fn specimen_of(tag: &str, chunk0: &[Option<&str>]) -> Specimen {
    let scratch = Scratch(tmp(tag));
    let schema = Schema::from_names(["t"]).unwrap();
    let mut table = Table::with_chunk_rows("specimen", schema, chunk0.len());
    for cell in chunk0.iter().chain([&Some("z")]) {
        table
            .push_row(vec![cell.map_or(Value::Null, Value::text)])
            .unwrap();
    }
    table.spill_to(&scratch.0, 1).unwrap();
    let bytes = std::fs::read(&scratch.0).unwrap();
    let dir = u64_at(&bytes, bytes.len() - 8) as usize;
    assert_eq!(
        u64_at(&bytes, bytes.len() - 16),
        checksum64(&bytes[dir..bytes.len() - 16]),
        "the directory checksum precedes its offset"
    );
    assert_eq!(u64_at(&bytes, dir), 2, "two chunks");
    let p = u64_at(&bytes, dir + 8) as usize;
    Specimen {
        scratch,
        bytes,
        dir,
        p,
    }
}

impl Specimen {
    fn patch(&mut self, at: usize, with: &[u8]) -> &mut Self {
        self.bytes[at..at + with.len()].copy_from_slice(with);
        self
    }

    /// Patches chunk 0's payload at `p + at` and re-seals its checksum.
    fn patch_payload(&mut self, at: usize, with: &[u8]) -> &mut Self {
        self.patch(self.p + at, with);
        let len = u64_at(&self.bytes, self.dir + 16) as usize;
        let checksum = checksum64(&self.bytes[self.p..self.p + len]);
        self.patch_dir(32, &checksum.to_le_bytes())
    }

    /// Patches the directory at `dir + at` and re-seals its checksum.
    fn patch_dir(&mut self, at: usize, with: &[u8]) -> &mut Self {
        self.patch(self.dir + at, with);
        let end = self.bytes.len() - 16;
        let checksum = checksum64(&self.bytes[self.dir..end]);
        self.patch(end, &checksum.to_le_bytes())
    }

    fn write(&self) {
        std::fs::write(&self.scratch.0, &self.bytes).unwrap();
    }

    /// `open` must fail with a `Segment` error mentioning `needle`.
    fn open_fails(&self, needle: &str) {
        self.write();
        match SegmentReader::open(&self.scratch.0) {
            Err(TableError::Segment(msg)) if msg.contains(needle) => {}
            other => panic!("open: wanted a Segment error with {needle:?}, got {other:?}"),
        }
        assert!(matches!(
            Table::open_segment(&self.scratch.0, 1),
            Err(TableError::Segment(_))
        ));
    }

    /// `open` must succeed, chunk 0 must fail to page in with a `Segment`
    /// error mentioning `needle` (through the table as well), and chunk 1
    /// must still read.
    fn chunk0_fails(&self, needle: &str) {
        self.write();
        let reader = SegmentReader::open(&self.scratch.0).expect("the directory is intact");
        match reader.read_chunk(0) {
            Err(TableError::Segment(msg)) if msg.contains(needle) => {}
            other => panic!("read_chunk: wanted a Segment error with {needle:?}, got {other:?}"),
        }
        assert_eq!(reader.read_chunk(1).unwrap().value(0, 0), Value::text("z"));
        let table = Table::open_segment(&self.scratch.0, 1).unwrap();
        assert!(matches!(table.row_at(0), Err(TableError::Segment(_))));
        assert!(matches!(
            table.find("t", &Value::text("z")),
            Err(TableError::Segment(_))
        ));
    }
}

#[test]
fn specimen_reads_back_before_any_patch() {
    let s = specimen("intact");
    let table = Table::open_segment(&s.scratch.0, 1).unwrap();
    let cells: Vec<Value> = table.column("t").unwrap().collect();
    assert_eq!(
        cells,
        [
            Value::text("é"),
            Value::text("ab"),
            Value::text("é"),
            Value::Null,
            Value::text("z")
        ]
    );
}

#[test]
fn every_flipped_payload_bit_fails_the_checksum() {
    let mut s = specimen("flip");
    let len = u64_at(&s.bytes, s.dir + 16) as usize;
    for at in s.p..s.p + len {
        for bit in 0..8 {
            s.bytes[at] ^= 1 << bit;
            s.chunk0_fails("chunk 0 fails its checksum");
            s.bytes[at] ^= 1 << bit;
        }
    }
    // The checksum's own bytes are covered the same way (the directory
    // re-sealed, so the chunk's check is the one that catches it).
    for at in 32..40 {
        let byte = s.bytes[s.dir + at];
        s.patch_dir(at, &[byte ^ 0x10]);
        s.chunk0_fails("chunk 0 fails its checksum");
        s.patch_dir(at, &[byte]);
    }
}

#[test]
fn every_flipped_header_or_directory_bit_fails_at_open() {
    let mut s = specimen("flip-meta");
    let p = s.p;
    let dir = s.dir;
    let len = s.bytes.len();
    // Magic, header length, header checksum and header; then the
    // directory, its checksum and its offset.
    for at in (0..p).chain(dir..len) {
        for bit in 0..8 {
            s.bytes[at] ^= 1 << bit;
            s.write();
            assert!(
                matches!(
                    SegmentReader::open(&s.scratch.0),
                    Err(TableError::Segment(_))
                ),
                "byte {at} bit {bit} opened"
            );
            s.bytes[at] ^= 1 << bit;
        }
    }
    s.write();
    SegmentReader::open(&s.scratch.0).expect("the specimen opens once restored");
}

#[test]
fn a_word_width_other_than_1_2_4_or_8_is_rejected() {
    let mut s = specimen("width");
    s.patch_payload(25, &[3]).chunk0_fails("word width 3");
}

#[test]
fn dictionary_code_past_the_pool_is_rejected() {
    // Width 1: the dictionary holds 2 strings, so word 3 is one past it.
    let mut s = specimen("code");
    s.patch_payload(27, &[3]).chunk0_fails("code out of range");
    // Width 2: 300 four-byte strings, so the words start after the 300
    // ends, the 1 200-byte blob and the width byte.
    let strings: Vec<String> = (0..300).map(|i| format!("w{i:03}")).collect();
    let cells: Vec<Option<&str>> = strings.iter().map(|w| Some(w.as_str())).collect();
    let mut s = specimen_of("code-wide", &cells);
    let words = 13 + 4 * 300 + 1200;
    assert_eq!(s.bytes[s.p + words], 2, "2-byte words");
    assert_eq!(&s.bytes[s.p + words + 1..][..2], 1u16.to_le_bytes());
    s.patch_payload(words + 1, &301u16.to_le_bytes())
        .chunk0_fails("code out of range");
}

#[test]
fn invalid_utf8_in_the_blob_is_rejected() {
    let mut s = specimen("utf8");
    s.patch_payload(21, &[0xFF]).chunk0_fails("utf-8");
}

#[test]
fn descending_end_offsets_are_rejected() {
    let mut s = specimen("descend");
    s.patch_payload(13, &4u32.to_le_bytes())
        .patch_payload(17, &2u32.to_le_bytes())
        .chunk0_fails("descend");
}

#[test]
fn end_offset_past_the_blob_is_rejected() {
    // The last offset *is* the blob length on disk, so one byte more eats
    // into the codes and the payload comes up short.
    let mut s = specimen("past");
    s.patch_payload(17, &5u32.to_le_bytes())
        .chunk0_fails("truncated");
    // Far past: the length is checked against the payload, not allocated.
    s.patch_payload(17, &u32::MAX.to_le_bytes())
        .chunk0_fails("truncated");
    // Same for the dictionary's entry count.
    let mut s = specimen("past-n");
    s.patch_payload(9, &u32::MAX.to_le_bytes())
        .chunk0_fails("truncated");
}

#[test]
fn end_offset_inside_a_character_is_rejected() {
    let mut s = specimen("boundary");
    s.patch_payload(13, &1u32.to_le_bytes())
        .chunk0_fails("inside a character");
}

#[test]
fn payload_rows_must_equal_directory_rows() {
    let mut s = specimen("rows");
    s.patch_payload(0, &3u64.to_le_bytes())
        .chunk0_fails("row count differs");
    // An absurd count is compared, never allocated for.
    s.patch_payload(0, &u64::MAX.to_le_bytes())
        .chunk0_fails("row count differs");
    // And the directory itself: every chunk but the last is chunk_rows long.
    let mut s = specimen("dir-rows");
    s.patch_dir(24, &3u64.to_le_bytes())
        .open_fails("row count differs from chunk_rows");
    s.patch_dir(24, &4u64.to_le_bytes())
        .patch_dir(56, &5u64.to_le_bytes())
        .open_fails("row count differs from chunk_rows");
}

#[test]
fn directory_offset_in_the_last_eight_bytes_is_rejected() {
    let mut s = specimen("dir-offset");
    let len = s.bytes.len();
    for offset in [len - 4, len - 8, len - 1, len, usize::MAX] {
        s.patch(len - 8, &(offset as u64).to_le_bytes())
            .open_fails("out of range");
    }
}

#[test]
fn absurd_chunk_counts_and_lengths_are_rejected() {
    let mut s = specimen("nchunks");
    for nchunks in [3u64, 1 << 40, u64::MAX] {
        s.patch_dir(0, &nchunks.to_le_bytes())
            .open_fails("chunk count differs");
    }
    let mut s = specimen("entry");
    s.patch_dir(16, &(1u64 << 40).to_le_bytes())
        .open_fails("chunk entry out of range");
    let mut s = specimen("header-len");
    s.patch(8, &u32::MAX.to_le_bytes())
        .open_fails("out of range");
}

#[test]
fn the_old_magic_is_rejected_by_name() {
    let mut s = specimen("magic");
    s.patch(0, b"UDMSEG1\0").open_fails("UDMSEG1");
    s.patch(0, b"UDMSEG2\0").open_fails("UDMSEG2");
    s.patch(0, b"UDMSEG3\0").open_fails("UDMSEG3");
    s.patch(0, b"PARQUET1").open_fails("not a UDMSEG4 segment");
}
