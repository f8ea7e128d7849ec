//! The column encoder seals a chunk from borrowed cells, fed one at a time,
//! and what it seals is what the cloning encoder it replaced sealed: the
//! same dictionary in the same order, the same codes and word widths and
//! the same fallbacks — through `encode`, `from_rows`, `with_cell` and the
//! segment writer, at every chunk boundary.
//!
//! The cloning encoder is kept below as the reference, written over the
//! crate's public parts. Generated columns are seeded from
//! `UNIDM_FAULT_SEED` (the CI matrix runs 7 and 1337; 7 otherwise). One
//! scale segment's bytes are pinned by an `fnv1a64` digest recorded with
//! the cloning encoder.

mod common;

use std::collections::HashMap;
use std::path::PathBuf;

use common::{fault_seed, Gen, ANY};
use unidm_synthdata::ScaleSpec;
use unidm_tablestore::{
    Chunk, ColumnChunk, Record, Schema, SegmentReader, SegmentWriter, StringPool, Value, Words,
};
use unidm_text::hash::fnv1a64;

/// `fnv1a64` of the `ScaleSpec::new(20_000, 7)` segment file as the
/// cloning encoder wrote it, in the `UDMSEG4` layout (chunk payloads as
/// before; the header and directory checksums shift every offset).
const SCALE_SEGMENT_FNV: u64 = 0x7930_92d9_d091_08bb;

/// Row counts on each side of the 1-byte word boundary, one full default
/// chunk, and more than one.
const ROW_COUNTS: [usize; 5] = [1, 255, 256, 1024, 3000];

/// The cloning encoder: `Chunk::from_rows` copied each column's cells
/// into a `Vec<Value>` and handed it over by value.
fn reference_encode(values: Vec<Value>) -> ColumnChunk {
    if values
        .iter()
        .all(|v| matches!(v, Value::Null | Value::Text(_)))
    {
        return reference_dict(&values).unwrap_or(ColumnChunk::Mixed(values));
    }
    if values
        .iter()
        .all(|v| matches!(v, Value::Null | Value::Int(_)))
    {
        return reference_ints(&values).unwrap_or(ColumnChunk::Mixed(values));
    }
    ColumnChunk::Mixed(values)
}

/// Strings in first-appearance order, word `code + 1`, 0 for null; `None`
/// past the pool's `u32` offsets.
fn reference_dict(values: &[Value]) -> Option<ColumnChunk> {
    let (mut blob, mut ends) = (String::new(), Vec::new());
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut codes = Vec::with_capacity(values.len());
    for v in values {
        let Value::Text(s) = v else {
            codes.push(0);
            continue;
        };
        let code = match index.get(s.as_str()) {
            Some(&code) => code,
            None => {
                ends.push(u32::try_from(blob.len() + s.len()).ok()?);
                blob.push_str(s);
                let code = ends.len() as u32;
                index.insert(s, code);
                code
            }
        };
        codes.push(code);
    }
    let dict = StringPool::from_parts(blob.into_bytes(), ends).unwrap();
    let codes = Words::pack(dict.len() as u64, codes.into_iter().map(u64::from));
    Some(ColumnChunk::Dict { dict, codes })
}

/// Offsets from the smallest integer, word `offset + 1`, 0 for null;
/// `None` when the span leaves no word for null.
fn reference_ints(values: &[Value]) -> Option<ColumnChunk> {
    let ints = values.iter().filter_map(|v| match *v {
        Value::Int(i) => Some(i),
        _ => None,
    });
    let (min, max) = ints.fold((i64::MAX, i64::MIN), |(lo, hi), i| (lo.min(i), hi.max(i)));
    let top = (max.wrapping_sub(min) as u64).checked_add(1)?;
    let words = values.iter().map(|v| match *v {
        Value::Int(i) => i.wrapping_sub(min) as u64 + 1,
        _ => 0,
    });
    Some(ColumnChunk::Ints {
        base: min,
        words: Words::pack(top, words),
    })
}

/// One generated column of `n` cells, of the shape `kind` names.
fn column(gen: &mut Gen, kind: usize, n: usize) -> Vec<Value> {
    let pool = ["", "é", "日本語", "Zürich", "CET", "cet"];
    (0..n)
        .map(|i| match kind {
            // All null: an empty dictionary.
            0 => Value::Null,
            // Repeated text from a small pool with empty and non-ASCII
            // strings and nulls.
            1 => match gen.usize(0, pool.len() + 1) {
                k if k == pool.len() => Value::Null,
                k => Value::text(pool[k]),
            },
            // Every cell distinct, so the dictionary is as long as the
            // column and its words cross the 1-byte boundary at 256.
            2 => Value::text(format!("{}·{i}", gen.string(ANY, 4))),
            // Integers with nulls.
            3 => match gen.usize(0, 6) {
                0 => Value::Null,
                _ => Value::Int(gen.usize(0, 1 << 20) as i64 - (1 << 19)),
            },
            // Both ends of `i64`: no word left for null, so `Mixed`.
            4 => match i % 3 {
                0 => Value::Int(i64::MIN),
                1 => Value::Int(i64::MAX),
                _ => Value::Null,
            },
            // Text and integers: `Mixed`.
            5 => match gen.usize(0, 3) {
                0 => Value::text(gen.string(ANY, 6)),
                1 => Value::Int(gen.usize(0, 100) as i64),
                _ => Value::Null,
            },
            // Floats and bools: `Mixed`.
            _ => match gen.usize(0, 3) {
                0 => Value::Float(gen.f64(-1e6, 1e6)),
                1 => Value::Bool(gen.bool()),
                _ => Value::Null,
            },
        })
        .collect()
}

const KINDS: usize = 7;

fn generated_columns(gen: &mut Gen, n: usize) -> Vec<Vec<Value>> {
    (0..KINDS).map(|kind| column(gen, kind, n)).collect()
}

fn rows_of(columns: &[Vec<Value>]) -> Vec<Record> {
    let n = columns[0].len();
    (0..n)
        .map(|r| Record::new(columns.iter().map(|c| c[r].clone()).collect()))
        .collect()
}

#[test]
fn encode_matches_the_cloning_encoder() {
    let mut gen = Gen::new(fault_seed());
    for n in ROW_COUNTS {
        for (kind, cells) in generated_columns(&mut gen, n).into_iter().enumerate() {
            let got = ColumnChunk::encode(&cells);
            assert_eq!(
                got,
                reference_encode(cells.clone()),
                "kind {kind}, {n} rows"
            );
        }
    }
}

#[test]
fn generated_columns_reach_every_encoding() {
    let mut gen = Gen::new(fault_seed());
    let columns = generated_columns(&mut gen, 3000);
    let shape = |c: &ColumnChunk| match c {
        ColumnChunk::Dict { codes, .. } => ("dict", codes.width()),
        ColumnChunk::Ints { words, .. } => ("ints", words.width()),
        ColumnChunk::Mixed(_) => ("mixed", 0),
    };
    let shapes: Vec<_> = columns
        .iter()
        .map(|cells| shape(&ColumnChunk::encode(cells)))
        .collect();
    assert_eq!(
        shapes,
        [
            ("dict", 1),
            ("dict", 1),
            ("dict", 2),
            ("ints", 4),
            ("mixed", 0),
            ("mixed", 0),
            ("mixed", 0),
        ]
    );
}

#[test]
fn from_rows_matches_the_cloning_encoder() {
    let mut gen = Gen::new(fault_seed() ^ 0x5eed);
    for n in ROW_COUNTS {
        let columns = generated_columns(&mut gen, n);
        let rows = rows_of(&columns);
        let chunk = Chunk::from_rows(KINDS, &rows);
        assert_eq!((chunk.len(), chunk.width()), (n, KINDS));
        for (c, cells) in columns.iter().enumerate() {
            assert_eq!(
                **chunk.column(c),
                reference_encode(cells.clone()),
                "column {c}, {n} rows"
            );
        }
        assert_eq!(chunk.decode_rows(), rows, "{n} rows: cells");
    }
}

#[test]
fn with_cell_matches_the_cloning_encoder() {
    let mut gen = Gen::new(fault_seed() ^ 0xce11);
    for n in ROW_COUNTS {
        let mut columns = generated_columns(&mut gen, n);
        let mut chunk = Chunk::from_rows(KINDS, &rows_of(&columns));
        for _ in 0..16 {
            let (row, col) = (gen.usize(0, n), gen.usize(0, KINDS));
            // A value of any column's shape, so an edit can also move a
            // column to or from `Mixed`.
            let kind = gen.usize(0, KINDS);
            let value = column(&mut gen, kind, 1).remove(0);
            chunk = chunk.with_cell(row, col, value.clone());
            columns[col][row] = value;
            assert_eq!(
                **chunk.column(col),
                reference_encode(columns[col].clone()),
                "column {col}, row {row} of {n}"
            );
        }
    }
}

#[test]
fn scale_segment_bytes_are_pinned() {
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("unidm-encoder-{}-scale.seg", std::process::id()));
    let spilled = ScaleSpec::new(20_000, 7).users_segment(&path, 1);
    let bytes = std::fs::read(&path);
    std::fs::remove_file(&path).ok();
    spilled.unwrap();
    let digest = fnv1a64(&bytes.unwrap());
    assert_eq!(digest, SCALE_SEGMENT_FNV, "{digest:#018x}");
}

/// Columns of the chunk-boundary test, each a function of the row's place
/// in its chunk, so the type switches inside a chunk and the encoder must
/// start the next chunk afresh.
const BOUNDARY_COLUMNS: [&str; 9] = [
    "null_then_int",
    "text_then_int",
    "int_then_text",
    "all_null",
    "full_span",
    "floats",
    "text_chunk_then_int_chunk",
    "many_strings",
    "ints",
];

fn boundary_row(gen: &mut Gen, i: usize, chunk_rows: usize) -> Vec<Value> {
    let first_half = i % chunk_rows < chunk_rows / 2;
    let int = |gen: &mut Gen| Value::Int(gen.usize(0, 1 << 20) as i64 - (1 << 19));
    let text = |gen: &mut Gen| Value::text(["é", "", "CET", "日本語"][gen.usize(0, 4)]);
    vec![
        if first_half { Value::Null } else { int(gen) },
        if first_half { text(gen) } else { int(gen) },
        if first_half { int(gen) } else { text(gen) },
        Value::Null,
        match i % 3 {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            _ => Value::Null,
        },
        match gen.usize(0, 3) {
            0 => Value::Null,
            _ => Value::Float(gen.f64(-1e6, 1e6)),
        },
        match ((i / chunk_rows) % 2, gen.usize(0, 4)) {
            (_, 0) => Value::Null,
            (0, _) => text(gen),
            _ => int(gen),
        },
        // Past 256 distinct strings in a full chunk, with repeats: the
        // dictionary's probe table grows while it is being hit.
        Value::text(format!("s{}", gen.usize(0, 600))),
        int(gen),
    ]
}

#[test]
fn the_segment_writer_seals_what_the_cloning_encoder_sealed_at_every_chunk_boundary() {
    let mut gen = Gen::new(fault_seed() ^ 0xb0da);
    let schema = Schema::from_names(BOUNDARY_COLUMNS).unwrap();
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!(
        "unidm-encoder-{}-boundaries.seg",
        std::process::id()
    ));
    for chunk_rows in [1, 255, 256, 1024] {
        let rows = (3 * chunk_rows).max(64) + 1;
        let mut writer =
            SegmentWriter::create(&path, "boundaries", schema.clone(), chunk_rows).unwrap();
        let mut columns = vec![Vec::new(); BOUNDARY_COLUMNS.len()];
        for i in 0..rows {
            let row = boundary_row(&mut gen, i, chunk_rows);
            writer.push_row(&row).unwrap();
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v);
            }
        }
        assert_eq!(writer.rows_written(), rows);
        writer.finish(1).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reader.chunk_count(), rows.div_ceil(chunk_rows));
        for k in 0..reader.chunk_count() {
            let chunk = reader.read_chunk(k).unwrap();
            let span = k * chunk_rows..rows.min((k + 1) * chunk_rows);
            for (c, cells) in columns.iter().enumerate() {
                assert_eq!(
                    **chunk.column(c),
                    reference_encode(cells[span.clone()].to_vec()),
                    "{}: chunk {k} of {chunk_rows} rows",
                    BOUNDARY_COLUMNS[c]
                );
            }
        }
        if chunk_rows == 256 {
            // The first chunk reaches every switch the columns name.
            let chunk = reader.read_chunk(0).unwrap();
            let shapes: Vec<_> = (0..chunk.width())
                .map(|c| match **chunk.column(c) {
                    ColumnChunk::Dict { .. } => "dict",
                    ColumnChunk::Ints { .. } => "ints",
                    ColumnChunk::Mixed(_) => "mixed",
                })
                .collect();
            assert_eq!(
                shapes,
                ["ints", "mixed", "mixed", "dict", "mixed", "mixed", "dict", "dict", "ints"]
            );
        }
    }
}
