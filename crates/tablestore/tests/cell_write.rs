//! A cell write into a sealed chunk re-encodes only the written column.
//! Whatever it shares or rebuilds, the result must be indistinguishable
//! from a table built directly from the edited rows: every cell, every
//! column's statistics, every `find` hit, and the bytes a spill writes.

use std::path::PathBuf;
use std::sync::Arc;

use unidm_tablestore::{Chunk, ColumnChunk, Record, Schema, Table, Value};

const CHUNK_ROWS: usize = 4;
const ATTRS: [&str; 3] = ["dict", "ints", "mixed"];

/// Ten rows: two sealed chunks and a two-row tail. Column `dict` encodes
/// as Dict, `ints` as Ints, `mixed` as Mixed. Chunk 0 holds the only
/// "cyan" in `dict`.
fn seed_rows() -> Vec<Vec<Value>> {
    let dict = [
        "red", "cyan", "red", "blue", "blue", "red", "green", "blue", "red", "cyan",
    ];
    (0..10)
        .map(|i| {
            let mixed = if i % 2 == 0 {
                Value::Float(i as f64 / 2.0)
            } else {
                Value::text(format!("m{i}"))
            };
            vec![Value::text(dict[i]), Value::Int(i as i64 * 10), mixed]
        })
        .collect()
}

fn build(rows: &[Vec<Value>]) -> Table {
    let mut table = Table::with_chunk_rows("edits", Schema::from_names(ATTRS).unwrap(), CHUNK_ROWS);
    for row in rows {
        table.push_row(row.clone()).unwrap();
    }
    table
}

fn spill_bytes(table: &Table, tag: &str) -> Vec<u8> {
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("unidm-cell-write-{}-{tag}.seg", std::process::id()));
    table.spill_to(&path, 2).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Every observable of `table` equals that of a table built from `rows`.
fn assert_same_as_rebuild(table: &Table, rows: &[Vec<Value>], probes: &[Value], what: &str) {
    let rebuilt = build(rows);
    for (r, row) in rows.iter().enumerate() {
        for (c, attr) in ATTRS.iter().enumerate() {
            assert_eq!(
                table.cell_value(r, attr).unwrap(),
                row[c],
                "{what}: cell ({r}, {attr})"
            );
        }
    }
    for attr in ATTRS {
        assert_eq!(
            table.column_stats(attr).unwrap(),
            rebuilt.column_stats(attr).unwrap(),
            "{what}: column_stats({attr})"
        );
        for probe in probes {
            assert_eq!(
                table.find(attr, probe).unwrap(),
                rebuilt.find(attr, probe).unwrap(),
                "{what}: find({attr}, {probe:?})"
            );
        }
    }
    assert_eq!(
        spill_bytes(table, "edited"),
        spill_bytes(&rebuilt, "rebuilt"),
        "{what}: spilled bytes"
    );
}

#[test]
fn cell_writes_match_a_full_rebuild() {
    let writes: [(&str, usize, &str, Value); 14] = [
        ("dict: existing value", 3, "dict", Value::text("red")),
        (
            "dict: value new to the dictionary",
            0,
            "dict",
            Value::text("violet"),
        ),
        ("dict: null", 5, "dict", Value::Null),
        (
            "dict: last occurrence of a string",
            1,
            "dict",
            Value::text("blue"),
        ),
        ("dict: int makes it mixed", 6, "dict", Value::Int(7)),
        ("ints: existing value", 0, "ints", Value::Int(30)),
        ("ints: new value", 4, "ints", Value::Int(-99)),
        ("ints: null", 2, "ints", Value::Null),
        (
            "ints: text makes it mixed",
            7,
            "ints",
            Value::text("seventy"),
        ),
        ("mixed: existing value", 1, "mixed", Value::Float(0.0)),
        ("mixed: new value", 6, "mixed", Value::Bool(true)),
        ("mixed: null", 3, "mixed", Value::Null),
        ("tail row", 8, "dict", Value::text("green")),
        ("write the same value back", 0, "ints", Value::Int(30)),
    ];
    let mut rows = seed_rows();
    let mut probes: Vec<Value> = rows.iter().flatten().cloned().collect();
    probes.extend(writes.iter().map(|(_, _, _, v)| v.clone()));
    probes.push(Value::text("cyan"));
    let mut table = build(&rows);
    assert_same_as_rebuild(&table, &rows, &probes, "seed");

    for (what, row, attr, value) in writes {
        let col = ATTRS.iter().position(|a| *a == attr).unwrap();
        let before = table.clone();
        let before_rows = rows.clone();
        let version = table.version();

        table.set_cell(row, attr, value.clone()).unwrap();
        rows[row][col] = value;

        assert_ne!(table.version(), version, "{what}: version unchanged");
        assert_eq!(before.version(), version, "{what}: clone's version moved");
        assert_same_as_rebuild(&table, &rows, &probes, what);
        assert_same_as_rebuild(
            &before,
            &before_rows,
            &probes,
            &format!("{what} (old clone)"),
        );
    }
    // The one "cyan" in the sealed chunks was overwritten; only the tail's
    // remains.
    assert_eq!(table.find("dict", &Value::text("cyan")).unwrap(), vec![9]);
}

#[test]
fn with_cell_equals_from_rows_and_shares_the_rest() {
    let rows: Vec<Record> = seed_rows()
        .into_iter()
        .take(CHUNK_ROWS)
        .map(Record::new)
        .collect();
    let chunk = Chunk::from_rows(ATTRS.len(), &rows);
    assert!(matches!(**chunk.column(0), ColumnChunk::Dict { .. }));
    assert!(matches!(**chunk.column(1), ColumnChunk::Ints { .. }));
    assert!(matches!(**chunk.column(2), ColumnChunk::Mixed(_)));
    // (row, column, value, whether the column becomes Mixed)
    for (row, col, value, to_mixed) in [
        (1, 0, Value::text("blue"), false), // drops "cyan" from the dictionary
        (2, 0, Value::Null, false),
        (0, 0, Value::Int(1), true),
        (3, 1, Value::Int(5), false),
        (0, 1, Value::text("x"), true),
        (2, 2, Value::Null, true),
    ] {
        let edited = chunk.with_cell(row, col, value.clone());
        let mut edited_rows = rows.clone();
        let mut values = rows[row].values().to_vec();
        values[col] = value;
        edited_rows[row] = Record::new(values);
        let expected = Chunk::from_rows(ATTRS.len(), &edited_rows);
        assert_eq!(
            matches!(**edited.column(col), ColumnChunk::Mixed(_)),
            to_mixed,
            "({row}, {col}) encoding"
        );
        for c in 0..ATTRS.len() {
            assert_eq!(
                edited.column(c),
                expected.column(c),
                "({row}, {col}) column {c}"
            );
            if c != col {
                assert!(Arc::ptr_eq(edited.column(c), chunk.column(c)));
            }
        }
    }
}

#[test]
fn a_write_that_grows_the_dictionary_widens_its_codes() {
    // 255 distinct strings fill 1-byte words (0 is null); a 256th needs 2.
    let mut rows: Vec<Record> = (0..256)
        .map(|i| Record::new(vec![Value::text(format!("s{}", i % 255))]))
        .collect();
    let chunk = Chunk::from_rows(1, &rows);
    let width = |c: &Chunk| match &**c.column(0) {
        ColumnChunk::Dict { dict, codes } => (dict.len(), codes.width()),
        other => panic!("expected dict encoding, got {other:?}"),
    };
    assert_eq!(width(&chunk), (255, 1));
    let edited = chunk.with_cell(255, 0, Value::text("s255"));
    rows[255] = Record::new(vec![Value::text("s255")]);
    let expected = Chunk::from_rows(1, &rows);
    assert_eq!(width(&edited), (256, 2));
    assert_eq!(edited.column(0), expected.column(0));
    assert_eq!(edited.decode_rows(), rows);
}
