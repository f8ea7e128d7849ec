//! Property tests for the chunked columnar storage layer: randomized
//! tables must survive build → spill → reload byte-identically, chunk
//! boundaries must be invisible through every accessor, and the pager
//! must honor its residency budget.
//!
//! The offline build has no `proptest`, so inputs are sampled explicitly
//! from a seeded [`StdRng`] — the same coverage style (many randomized
//! shapes per invariant), fully reproducible, with no shrinking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use unidm_tablestore::{ColumnStats, Schema, Table, TableError, Value, DEFAULT_PAGE_BUDGET};

/// A unique temp path for one spilled segment.
fn segment_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("unidm-columnar-{}-{tag}.seg", std::process::id()));
    path
}

/// Samples a random value: text from a small pool (dictionary-friendly),
/// free text, ints, floats, bools, or null — so columns land in every
/// [`unidm_tablestore::ColumnChunk`] encoding.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6usize) {
        0 => Value::text(["red", "green", "blue", "cyan"][rng.gen_range(0..4usize)]),
        1 => Value::text(format!("item-{}", rng.gen_range(0..1_000_000u64))),
        2 => Value::Int(rng.gen_range(0..10_000u64) as i64 - 5_000),
        3 => Value::Float(rng.gen_range(0..1_000u64) as f64 / 8.0),
        4 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

/// Builds a random table: random width, chunk size, and row count, with
/// some columns kept homogeneous (all-text / all-int) so dictionary and
/// integer encodings are both exercised alongside the mixed fallback.
fn random_table(rng: &mut StdRng, name: &str) -> Table {
    let width = rng.gen_range(1..5usize);
    let chunk_rows = rng.gen_range(1..40usize);
    let rows = rng.gen_range(0..200usize);
    let names: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
    let kinds: Vec<usize> = (0..width).map(|_| rng.gen_range(0..3usize)).collect();
    let mut table = Table::with_chunk_rows(
        name,
        Schema::from_names(names.iter().map(String::as_str)).unwrap(),
        chunk_rows,
    );
    for _ in 0..rows {
        let row: Vec<Value> = kinds
            .iter()
            .map(|kind| match kind {
                0 => random_value(rng),
                1 if rng.gen_bool(0.9) => {
                    Value::text(["ok", "warn", "err"][rng.gen_range(0..3usize)])
                }
                1 => Value::Null,
                _ if rng.gen_bool(0.9) => Value::Int(rng.gen_range(0..1_000u64) as i64),
                _ => Value::Null,
            })
            .collect();
        table.push_row(row).unwrap();
    }
    table
}

#[test]
fn spill_reload_roundtrip_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xC01);
    for case in 0..60 {
        let table = random_table(&mut rng, "roundtrip");
        let path = segment_path(&format!("rt{case}"));
        let budget = rng.gen_range(1..5usize);
        let spilled = table.spill_to(&path, budget).unwrap();
        assert!(spilled.is_spilled());
        assert_eq!(spilled.row_count(), table.row_count());
        assert_eq!(spilled.schema(), table.schema());
        // Row-by-row equality through the owned accessor, then the
        // logical equality (`same_content`, a fallible walk of both).
        for i in 0..table.row_count() {
            assert_eq!(
                spilled.row_at(i).unwrap(),
                table.row_at(i).unwrap(),
                "case {case}: row {i} changed across spill/reload"
            );
        }
        assert!(spilled.same_content(&table).unwrap(), "case {case}");
        // Reopen the segment cold: a fresh reader must agree too.
        let reopened = Table::open_segment(&path, budget).unwrap();
        assert!(
            reopened.same_content(&table).unwrap(),
            "case {case}: cold reopen diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn chunk_boundary_edges() {
    let chunk_rows = 8;
    // Exactly the boundary shapes ISSUE 9 names: empty, a single row,
    // exactly one chunk, an exact multiple of the chunk size, and one
    // row past a boundary.
    for rows in [0usize, 1, 7, 8, 9, 16, 24, 25] {
        let mut table = Table::with_chunk_rows(
            "edges",
            Schema::from_names(["id", "label"]).unwrap(),
            chunk_rows,
        );
        for i in 0..rows {
            table
                .push_row(vec![Value::Int(i as i64), Value::text(format!("r{i}"))])
                .unwrap();
        }
        assert_eq!(table.row_count(), rows);
        assert_eq!(table.chunk_count(), rows / chunk_rows);
        assert_eq!(table.is_empty(), rows == 0);
        // Every accessor agrees at and around the boundaries.
        let collected: Vec<i64> = (0..rows)
            .map(|r| match table.row_at(r).unwrap().values()[0] {
                Value::Int(i) => i,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(collected, (0..rows as i64).collect::<Vec<_>>());
        for i in 0..rows {
            assert_eq!(
                table.cell_value(i, "label").unwrap(),
                Value::text(format!("r{i}"))
            );
        }
        if rows > 0 {
            assert_eq!(
                table.cell_value(rows - 1, "id").unwrap(),
                Value::Int(rows as i64 - 1)
            );
        }
        assert!(matches!(
            table.row_at(rows),
            Err(TableError::RowOutOfBounds { .. })
        ));

        // The same shapes must survive a spill (the final partial chunk
        // of a spilled table is the one place a sealed chunk may be
        // short).
        let path = segment_path(&format!("edge{rows}"));
        let spilled = table.spill_to(&path, 2).unwrap();
        assert!(
            spilled.same_content(&table).unwrap(),
            "spill changed a {rows}-row table"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn incremental_stats_match_whole_column_compute() {
    let mut rng = StdRng::seed_from_u64(0xC02);
    for _ in 0..40 {
        let table = random_table(&mut rng, "stats");
        for col in table.schema().columns() {
            let folded = table.column_stats(col.name()).unwrap();
            let values: Vec<Value> = (0..table.row_count())
                .map(|r| table.cell_value(r, col.name()).unwrap())
                .collect();
            let whole = ColumnStats::compute(&values);
            assert_eq!(
                folded,
                whole,
                "column_stats diverged from compute on column {}",
                col.name()
            );
        }
    }
}

#[test]
fn pager_budget_is_respected_while_scanning() {
    let mut rng = StdRng::seed_from_u64(0xC03);
    let mut table = Table::with_chunk_rows("paged", Schema::from_names(["n", "tag"]).unwrap(), 16);
    for i in 0..400 {
        table
            .push_row(vec![
                Value::Int(i),
                Value::text(["a", "b", "c"][(i % 3) as usize]),
            ])
            .unwrap();
    }
    let path = segment_path("budget");
    for budget in [1usize, 3, DEFAULT_PAGE_BUDGET] {
        let spilled = table.spill_to(&path, budget).unwrap();
        // Random access across the whole range: the cache may never hold
        // more than `budget` chunks, whatever the access pattern.
        for _ in 0..200 {
            let i = rng.gen_range(0..400usize);
            assert_eq!(spilled.cell_value(i, "n").unwrap(), Value::Int(i as i64));
            assert!(
                spilled.resident_chunks() <= budget,
                "budget {budget} exceeded: {} resident",
                spilled.resident_chunks()
            );
        }
        // A full sequential scan pages every chunk through the cache.
        for i in 0..400 {
            assert_eq!(
                spilled.row_ref(i).unwrap().cell(0).to_string(),
                i.to_string()
            );
        }
        assert!(spilled.resident_chunks() <= budget);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn spilled_tables_are_read_only_and_findable() {
    let mut table = Table::with_chunk_rows(
        "frozen",
        Schema::from_names(["city", "country"]).unwrap(),
        4,
    );
    for (city, country) in [
        ("Florence", "Italy"),
        ("Milan", "Italy"),
        ("Graz", "Austria"),
        ("Porto", "Portugal"),
        ("Lisbon", "Portugal"),
    ] {
        table
            .push_row(vec![Value::text(city), Value::text(country)])
            .unwrap();
    }
    let path = segment_path("frozen");
    let mut spilled = table.spill_to(&path, 2).unwrap();
    assert!(matches!(
        spilled.push_row(vec![Value::text("Vienna"), Value::text("Austria")]),
        Err(TableError::SpilledReadOnly)
    ));
    assert!(matches!(
        spilled.set_cell(0, "city", Value::text("Rome")),
        Err(TableError::SpilledReadOnly)
    ));
    // find() works chunk-wise over the paged segment, same answer as the
    // resident table.
    assert_eq!(
        spilled.find("country", &Value::text("Portugal")).unwrap(),
        table.find("country", &Value::text("Portugal")).unwrap(),
    );
    std::fs::remove_file(&path).ok();
}
