//! Imputation benchmarks: Restaurant (impute `city`) and Buy (impute
//! `manufacturer`).
//!
//! Following the paper's protocol, values of the target attribute are
//! manually masked and the pre-mask values serve as ground truth.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_tablestore::{Table, Value};
use unidm_world::World;

/// One masked cell with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputationTarget {
    /// Row index of the masked cell.
    pub row: usize,
    /// The value that was masked out.
    pub truth: Value,
}

/// An imputation benchmark: a table with masked cells plus ground truth.
#[derive(Debug, Clone)]
pub struct ImputationDataset {
    /// The table, with target cells replaced by [`Value::Null`].
    pub table: Table,
    /// Attribute whose values were masked.
    pub target_attr: String,
    /// Attribute serving as the record's primary key in prompts.
    pub key_attr: String,
    /// The masked cells with ground truth.
    pub targets: Vec<ImputationTarget>,
}

impl ImputationDataset {
    /// Number of evaluation targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if there are no targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Builds the full Restaurant table (no masking): name, addr, city, phone, type.
pub fn restaurant_table(world: &World) -> Table {
    let mut t = Table::builder("restaurants")
        .columns(["name", "addr", "city", "phone", "type"])
        .build();
    for r in &world.dining.restaurants {
        let city = &world.geo.cities[r.city];
        t.push_row(vec![
            Value::text(&r.name),
            Value::text(&r.address),
            Value::text(&city.name),
            Value::text(&r.phone),
            Value::text(&r.cuisine),
        ])
        .expect("schema matches");
    }
    t
}

/// Builds the Restaurant imputation benchmark: masks `city` on `n_targets`
/// random rows.
pub fn restaurant(world: &World, seed: u64, n_targets: usize) -> ImputationDataset {
    let table = restaurant_table(world);
    mask(table, "city", "name", seed, n_targets)
}

/// Builds the full Buy table (no masking): name, description, price,
/// manufacturer.
pub fn buy_table(world: &World) -> Table {
    let mut t = Table::builder("buy")
        .columns(["name", "description", "price", "manufacturer"])
        .build();
    for p in &world.products.products {
        let m = world.products.manufacturer_of(p);
        let description = format!("{} {} by {}", p.category, p.model_code, m.name);
        t.push_row(vec![
            Value::text(&p.name),
            Value::text(description),
            Value::Float(p.price),
            Value::text(&m.name),
        ])
        .expect("schema matches");
    }
    t
}

/// Builds the Buy imputation benchmark: masks `manufacturer`.
///
/// The `description` column leaks the manufacturer for most rows — mirroring
/// the real Buy dataset, where imputation accuracy approaches 99% because
/// descriptions mention the maker.
pub fn buy(world: &World, seed: u64, n_targets: usize) -> ImputationDataset {
    let mut table = buy_table(world);
    // The paper's Buy task stays hard only because some descriptions are
    // terse; blank the manufacturer mention in 55% of descriptions.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
    let rows = table.row_count();
    for row in 0..rows {
        if rand::Rng::gen_bool(&mut rng, 0.55) {
            let name = table.cell_value(row, "name").expect("in range").to_string();
            let category = name.split_whitespace().nth(1).unwrap_or("item").to_string();
            table
                .set_cell(
                    row,
                    "description",
                    Value::text(format!("{category} series")),
                )
                .expect("in range");
        }
    }
    mask(table, "manufacturer", "name", seed, n_targets)
}

fn mask(
    mut table: Table,
    target_attr: &str,
    key_attr: &str,
    seed: u64,
    n_targets: usize,
) -> ImputationDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..table.row_count()).collect();
    rows.shuffle(&mut rng);
    rows.truncate(n_targets);
    rows.sort_unstable();
    let mut targets = Vec::with_capacity(rows.len());
    for row in rows {
        let truth = table.cell_value(row, target_attr).expect("in range");
        table
            .set_cell(row, target_attr, Value::Null)
            .expect("in range");
        targets.push(ImputationTarget { row, truth });
    }
    ImputationDataset {
        table,
        target_attr: target_attr.to_string(),
        key_attr: key_attr.to_string(),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(7)
    }

    #[test]
    fn restaurant_masks_requested_cells() {
        let ds = restaurant(&world(), 3, 50);
        assert_eq!(ds.len(), 50);
        for t in &ds.targets {
            assert!(ds.table.cell_value(t.row, "city").unwrap().is_null());
            assert!(!t.truth.is_null());
        }
    }

    #[test]
    fn restaurant_truth_matches_world() {
        let w = world();
        let ds = restaurant(&w, 3, 20);
        let full = restaurant_table(&w);
        for t in &ds.targets {
            assert_eq!(full.cell_value(t.row, "city").unwrap(), t.truth);
        }
    }

    #[test]
    fn buy_masks_manufacturer() {
        let ds = buy(&world(), 3, 40);
        assert_eq!(ds.target_attr, "manufacturer");
        assert_eq!(ds.len(), 40);
        for t in &ds.targets {
            assert!(ds
                .table
                .cell_value(t.row, "manufacturer")
                .unwrap()
                .is_null());
        }
    }

    #[test]
    fn buy_some_descriptions_terse() {
        let ds = buy(&world(), 3, 40);
        let terse = (0..ds.table.row_count())
            .filter(|&r| {
                ds.table
                    .row_ref(r)
                    .unwrap()
                    .cell(1)
                    .to_string()
                    .ends_with("series")
            })
            .count();
        assert!(terse > 0, "masking of descriptions should happen");
        assert!(terse < ds.table.row_count(), "but not everywhere");
    }

    #[test]
    fn deterministic() {
        let w = world();
        let a = restaurant(&w, 5, 30);
        let b = restaurant(&w, 5, 30);
        assert_eq!(a.targets, b.targets);
    }

    #[test]
    fn non_target_rows_untouched() {
        let w = world();
        let ds = restaurant(&w, 5, 10);
        let full = restaurant_table(&w);
        let masked: std::collections::HashSet<usize> = ds.targets.iter().map(|t| t.row).collect();
        for row in 0..full.row_count() {
            if !masked.contains(&row) {
                assert_eq!(
                    ds.table.cell_value(row, "city").unwrap(),
                    full.cell_value(row, "city").unwrap()
                );
            }
        }
    }
}
