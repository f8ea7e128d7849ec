//! HoloClean (Rekatsinas et al. 2017): holistic data repair with
//! probabilistic inference.
//!
//! The imputation side scores candidate values by co-occurrence with the
//! record's evidence attributes; the detection side flags statistically
//! anomalous cells (rare values in low-cardinality columns, numeric
//! outliers). Both are purely statistical — no language model, no world
//! knowledge — which is exactly why they trail the LLM methods on tables
//! whose evidence is lexical (addresses, product names).

use std::collections::HashMap;

use unidm_tablestore::{Table, TableError, Value};

/// Imputes `attr` of row `row` by co-occurrence voting.
///
/// Every other attribute of the record votes for target values it co-occurs
/// with elsewhere in the table; ties and empty evidence fall back to the
/// column mode.
///
/// # Errors
///
/// Returns table errors for invalid references.
pub fn impute(table: &Table, row: usize, attr: &str) -> Result<String, TableError> {
    let target_idx = table.schema().require(attr)?;
    let record = table.row_at(row)?;
    let mut votes: HashMap<String, f64> = HashMap::new();
    for (i, _name) in table.schema().names().enumerate() {
        if i == target_idx {
            continue;
        }
        let Some(evidence) = record.get(i) else {
            continue;
        };
        if evidence.is_null() {
            continue;
        }
        let ev_key = evidence.answer_key();
        // Conditional distribution P(target | evidence attribute value).
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for r in table.iter_rows() {
            let same = r.get(i).is_some_and(|v| v.answer_key() == ev_key);
            if !same {
                continue;
            }
            if let Some(t) = r.get(target_idx) {
                if !t.is_null() {
                    *counts.entry(t.to_string()).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        if total < 2 {
            // Unique evidence value: no statistical signal.
            continue;
        }
        for (value, count) in counts {
            *votes.entry(value).or_insert(0.0) += count as f64 / total as f64;
        }
    }
    // Ties must not fall to HashMap iteration order (randomized per
    // instance): break them lexicographically so repeated runs agree.
    if let Some((best, _)) = votes.into_iter().max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.0.cmp(&a.0))
    }) {
        return Ok(best);
    }
    // Fallback: column mode.
    let stats = table.column_stats(attr)?;
    Ok(stats.mode().unwrap_or("").to_string())
}

/// Flags cell (`row`, `attr`) as erroneous when it is statistically
/// anomalous.
///
/// # Errors
///
/// Returns table errors for invalid references.
pub fn detect_error(table: &Table, row: usize, attr: &str) -> Result<bool, TableError> {
    let value = table.cell_value(row, attr)?;
    if value.is_null() {
        return Ok(false);
    }
    // Numeric columns: flag > 3 sigma outliers.
    if let Some(x) = numeric_only(&value) {
        let nums: Vec<f64> = table
            .column(attr)?
            .filter_map(|v| numeric_only(&v))
            .collect();
        if nums.len() >= 8 {
            let mean = nums.iter().sum::<f64>() / nums.len() as f64;
            let var = nums.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / nums.len() as f64;
            let sd = var.sqrt().max(1e-9);
            return Ok((x - mean).abs() / sd > 3.0);
        }
        return Ok(false);
    }
    // Categorical columns: a unique value in a column where values repeat is
    // suspicious.
    let stats = table.column_stats(attr)?;
    let freq = stats.count(&value);
    let distinct = stats.distinct().max(1);
    let avg_multiplicity = (stats.total() - stats.null_count()) as f64 / distinct as f64;
    Ok(freq <= 1 && avg_multiplicity > 2.0)
}

fn numeric_only(v: &Value) -> Option<f64> {
    match v {
        Value::Int(_) | Value::Float(_) => v.as_f64(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_synthdata::{errors, imputation};
    use unidm_world::World;

    #[test]
    fn imputes_from_cooccurrence_when_present() {
        // Build a table where `country` determines `timezone`.
        let mut t = Table::builder("t")
            .columns(["city", "country", "tz"])
            .build();
        for (c, n, z) in [
            ("A", "Spain", "CET"),
            ("B", "Spain", "CET"),
            ("C", "Spain", "CET"),
            ("D", "Japan", "JST"),
            ("E", "Japan", "JST"),
        ] {
            t.push_row(vec![c.into(), n.into(), z.into()]).unwrap();
        }
        t.push_row(vec!["F".into(), "Spain".into(), Value::Null])
            .unwrap();
        assert_eq!(impute(&t, 5, "tz").unwrap(), "CET");
    }

    #[test]
    fn falls_back_to_mode_without_signal() {
        let mut t = Table::builder("t").columns(["name", "city"]).build();
        for i in 0..6 {
            t.push_row(vec![format!("N{i}").into(), "Springfield".into()])
                .unwrap();
        }
        t.push_row(vec!["X".into(), Value::Null]).unwrap();
        assert_eq!(impute(&t, 6, "city").unwrap().to_lowercase(), "springfield");
    }

    #[test]
    fn restaurant_accuracy_is_low() {
        // The paper reports 33.1% — unique names/addresses starve the
        // co-occurrence model. Verify it is far below the LLM methods.
        let world = World::generate(7);
        let ds = imputation::restaurant(&world, 3, 60);
        let correct = ds
            .targets
            .iter()
            .filter(|t| {
                impute(&ds.table, t.row, "city").unwrap().to_lowercase()
                    == t.truth.to_string().to_lowercase()
            })
            .count();
        let acc = correct as f64 / ds.targets.len() as f64;
        assert!(acc < 0.7, "statistical imputation should struggle: {acc}");
    }

    #[test]
    fn detects_numeric_outliers() {
        let world = World::generate(7);
        let ds = errors::adult(&world, 3, 300, 0.05);
        let mut tp = 0;
        let mut total_err = 0;
        for c in &ds.cells {
            if c.attr == "age" && c.is_error {
                total_err += 1;
                if detect_error(&ds.table, c.row, "age").unwrap() {
                    tp += 1;
                }
            }
        }
        assert!(total_err > 0);
        assert!(
            tp * 2 >= total_err,
            "most age outliers detected: {tp}/{total_err}"
        );
    }

    #[test]
    fn unique_in_repetitive_column_flagged() {
        let mut t = Table::builder("t").columns(["county"]).build();
        for _ in 0..10 {
            t.push_row(vec!["Marshall".into()]).unwrap();
        }
        t.push_row(vec!["Mxrshxll".into()]).unwrap();
        assert!(detect_error(&t, 10, "county").unwrap());
        assert!(!detect_error(&t, 0, "county").unwrap());
    }
}
