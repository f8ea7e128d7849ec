//! A sealed `Dict` or `Ints` column stores one word per cell at the
//! narrowest of 1, 2, 4 or 8 bytes its chunk needs. On each side of every
//! width boundary, the column a spill writes and a page-in reads back is
//! the one `Chunk::from_rows` builds, cell for cell.

use std::path::PathBuf;

use unidm_tablestore::{Chunk, ColumnChunk, Record, Schema, SegmentReader, Table, Value, Words};

/// Seals `cells` as the one column of a one-chunk table, spills it, and
/// returns chunk 0 paged back in, after checking it equals the chunk
/// `from_rows` builds and decodes to `cells`.
fn round_trip(cells: &[Value], tag: &str) -> ColumnChunk {
    let rows: Vec<Record> = cells.iter().map(|c| Record::new(vec![c.clone()])).collect();
    let mut table =
        Table::with_chunk_rows("widths", Schema::from_names(["c"]).unwrap(), rows.len());
    for row in &rows {
        table.push_row(row.values().to_vec()).unwrap();
    }
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("unidm-widths-{}-{tag}.seg", std::process::id()));
    table.spill_to(&path, 1).unwrap();
    let paged = SegmentReader::open(&path).unwrap().read_chunk(0);
    std::fs::remove_file(&path).ok();
    let paged = paged.unwrap();
    let expected = Chunk::from_rows(1, &rows);
    assert_eq!(paged.column(0), expected.column(0), "{tag}: encoding");
    assert_eq!(paged.decode_rows(), rows, "{tag}: cells");
    ColumnChunk::clone(paged.column(0))
}

fn width(col: &ColumnChunk) -> usize {
    match col {
        ColumnChunk::Dict { codes, .. } => codes.width(),
        ColumnChunk::Ints { words, .. } => words.width(),
        ColumnChunk::Mixed(_) => panic!("expected words, got {col:?}"),
    }
}

#[test]
fn dictionary_codes_widen_past_255_and_65_535_strings() {
    for (strings, want) in [(255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
        let mut cells: Vec<Value> = (0..strings).map(|i| Value::text(format!("s{i}"))).collect();
        cells.push(Value::Null);
        cells.push(Value::text("s0"));
        let col = round_trip(&cells, &format!("dict-{strings}"));
        assert!(matches!(col, ColumnChunk::Dict { .. }), "{strings} strings");
        assert_eq!(width(&col), want, "{strings} strings");
    }
}

#[test]
fn int_words_widen_with_the_span() {
    // (smallest value, span, width)
    for (low, span, want) in [
        (-100, 254, 1),
        (-100, 255, 2),
        (-100, 65_534, 2),
        (-100, 65_535, 4),
        (-100, u64::from(u32::MAX), 8),
        (i64::MIN, u64::MAX - 1, 8),
    ] {
        let high = low.wrapping_add(span as i64);
        let cells = [
            Value::Int(high),
            Value::Null,
            Value::Int(low),
            Value::Int(low + 1),
        ];
        let col = round_trip(&cells, &format!("ints-{span}"));
        assert!(
            matches!(col, ColumnChunk::Ints { base, .. } if base == low),
            "span {span}"
        );
        assert_eq!(width(&col), want, "span {span}");
    }
}

#[test]
fn the_full_i64_range_stays_mixed() {
    let cells = [Value::Int(i64::MIN), Value::Null, Value::Int(i64::MAX)];
    assert!(matches!(
        round_trip(&cells, "full-range"),
        ColumnChunk::Mixed(_)
    ));
}

#[test]
fn an_all_null_column_is_one_byte_per_row() {
    let col = round_trip(&vec![Value::Null; 5], "all-null");
    match col {
        ColumnChunk::Dict { dict, codes } => {
            assert!(dict.is_empty());
            assert_eq!(codes, Words::U8(vec![0; 5]));
        }
        other => panic!("expected an empty dictionary, got {other:?}"),
    }
}
