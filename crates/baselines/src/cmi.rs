//! CMI (Shichao et al. 2008): missing-value imputation based on data
//! clustering.
//!
//! Records are clustered with k-modes over their categorical answer keys;
//! a missing value is imputed as the mode of its cluster. Works when the
//! clusters align with the target attribute, fails when the evidence is
//! high-cardinality text.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_tablestore::{Table, TableError};

/// A fitted k-modes clustering over a table.
#[derive(Debug, Clone)]
pub struct Cmi {
    /// Cluster assignment per row.
    assignments: Vec<usize>,
    /// Number of clusters.
    k: usize,
}

impl Cmi {
    /// Clusters the table's rows (excluding `target_attr` from the distance)
    /// with k-modes; `k` defaults to `sqrt(rows)` when `None`.
    ///
    /// # Errors
    ///
    /// Returns table errors for invalid references.
    pub fn fit(
        table: &Table,
        target_attr: &str,
        k: Option<usize>,
        seed: u64,
    ) -> Result<Self, TableError> {
        let n = table.row_count();
        let k = k
            .unwrap_or_else(|| ((n as f64).sqrt() * 2.0).round() as usize)
            .clamp(1, n.max(1));
        let target_idx = table.schema().require(target_attr)?;
        let keys: Vec<Vec<String>> = (0..n)
            .map(|r| {
                Ok(table
                    .row_at(r)?
                    .values()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != target_idx)
                    .map(|(_, v)| category_key(&v.to_string()))
                    .collect())
            })
            .collect::<Result<_, TableError>>()?;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroid_rows: Vec<usize> = (0..n).collect();
        centroid_rows.shuffle(&mut rng);
        centroid_rows.truncate(k);
        let mut centroids: Vec<Vec<String>> =
            centroid_rows.iter().map(|&r| keys[r].clone()).collect();

        let mut assignments = vec![0usize; n];
        for _iter in 0..8 {
            let mut changed = false;
            for (row, key) in keys.iter().enumerate() {
                let best = (0..centroids.len())
                    .min_by_key(|&c| hamming(key, &centroids[c]))
                    .unwrap_or(0);
                if assignments[row] != best {
                    assignments[row] = best;
                    changed = true;
                }
            }
            // Recompute modes per cluster and dimension.
            for (c, centroid) in centroids.iter_mut().enumerate() {
                for d in 0..centroid.len() {
                    let mut counts: HashMap<&str, usize> = HashMap::new();
                    for (row, key) in keys.iter().enumerate() {
                        if assignments[row] == c {
                            *counts.entry(key[d].as_str()).or_insert(0) += 1;
                        }
                    }
                    // Sort before taking the max: ties on (count, length)
                    // must not fall back to HashMap iteration order, which
                    // is randomized per process.
                    let mut counts: Vec<(&str, usize)> = counts.into_iter().collect();
                    counts.sort_unstable();
                    if let Some((mode, _)) = counts
                        .into_iter()
                        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v.len())))
                    {
                        centroid[d] = mode.to_string();
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Ok(Cmi { assignments, k })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Imputes `attr` of `row` as the mode of the row's cluster.
    ///
    /// # Errors
    ///
    /// Returns table errors for invalid references.
    pub fn impute(&self, table: &Table, row: usize, attr: &str) -> Result<String, TableError> {
        let target_idx = table.schema().require(attr)?;
        if row >= self.assignments.len() {
            return Err(TableError::RowOutOfBounds {
                index: row,
                len: self.assignments.len(),
            });
        }
        let cluster = self.assignments[row];
        let mut counts: HashMap<String, usize> = HashMap::new();
        for r in 0..table.row_count() {
            let rec = table.row_at(r)?;
            if self.assignments.get(r) == Some(&cluster) && r != row {
                if let Some(v) = rec.get(target_idx) {
                    if !v.is_null() {
                        *counts.entry(v.to_string()).or_insert(0) += 1;
                    }
                }
            }
        }
        // Deterministic tie-break (see `fit`): never let HashMap order pick.
        let mut counts: Vec<(String, usize)> = counts.into_iter().collect();
        counts.sort_unstable();
        if let Some((best, _)) = counts
            .into_iter()
            .max_by_key(|(v, c)| (*c, std::cmp::Reverse(v.len())))
        {
            return Ok(best);
        }
        let stats = table.column_stats(attr)?;
        Ok(stats.mode().unwrap_or("").to_string())
    }
}

/// Reduces a free-text value to a categorical key: its leading
/// alphanumeric token. Phone numbers reduce to their area code, product
/// names to their brand token — the coarse categories k-modes needs.
fn category_key(value: &str) -> String {
    value
        .split(|c: char| !c.is_alphanumeric())
        .find(|t| !t.is_empty())
        .unwrap_or("")
        .to_lowercase()
}

fn hamming(a: &[String], b: &[String]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_tablestore::Value;

    #[test]
    fn clusters_recover_structure() {
        // Two clean clusters on (type, country) determining city.
        let mut t = Table::builder("t")
            .columns(["type", "country", "city"])
            .build();
        for _ in 0..10 {
            t.push_row(vec!["sushi".into(), "Japan".into(), "Tokyo".into()])
                .unwrap();
            t.push_row(vec!["tapas".into(), "Spain".into(), "Madrid".into()])
                .unwrap();
        }
        t.push_row(vec!["sushi".into(), "Japan".into(), Value::Null])
            .unwrap();
        let cmi = Cmi::fit(&t, "city", Some(2), 1).unwrap();
        assert_eq!(cmi.impute(&t, 20, "city").unwrap(), "Tokyo");
    }

    #[test]
    fn k_defaults_to_sqrt() {
        let mut t = Table::builder("t").columns(["a", "b"]).build();
        for i in 0..25 {
            t.push_row(vec![format!("x{}", i % 3).into(), Value::Int(i)])
                .unwrap();
        }
        let cmi = Cmi::fit(&t, "b", None, 1).unwrap();
        assert_eq!(cmi.k(), 10, "2×sqrt(25)");
    }

    #[test]
    fn deterministic_for_seed() {
        let mut t = Table::builder("t").columns(["a", "b"]).build();
        for i in 0..30 {
            t.push_row(vec![
                format!("v{}", i % 4).into(),
                format!("w{}", i % 2).into(),
            ])
            .unwrap();
        }
        let a = Cmi::fit(&t, "b", Some(3), 9).unwrap();
        let b = Cmi::fit(&t, "b", Some(3), 9).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn out_of_range_row_errors() {
        let mut t = Table::builder("t").columns(["a", "b"]).build();
        t.push_row(vec!["x".into(), "y".into()]).unwrap();
        let cmi = Cmi::fit(&t, "b", Some(1), 1).unwrap();
        assert!(cmi.impute(&t, 5, "b").is_err());
    }
}
