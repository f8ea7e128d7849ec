//! HoloDetect (Heidari et al. 2019): few-shot error detection.
//!
//! HoloDetect learns an error model from a handful of labelled examples by
//! featurizing cells (value frequency, format agreement with the column,
//! character-level likelihood under a noisy-channel model) and fitting a
//! classifier. We reproduce the featurization and fit per-feature
//! thresholds that maximize F1 on the labelled seed.

use std::collections::HashMap;

use unidm_tablestore::{Table, TableError};
use unidm_text::format::FormatSignature;

/// A labelled training cell: (row, attr, is_error).
pub type LabeledExample = (usize, String, bool);

/// Cell features used by the error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFeatures {
    /// Relative frequency of the exact value in its column.
    pub frequency: f64,
    /// Format-signature agreement with the column's modal signature.
    pub format_agreement: f64,
    /// Fraction of the value's letter trigrams that are novel for the
    /// column (count ≤ 1 — i.e. contributed only by this cell).
    pub novelty: f64,
    /// Robust z-score for numeric values (0 for text).
    pub numeric_z: f64,
}

/// A fitted HoloDetect model for one table.
#[derive(Debug, Clone)]
pub struct HoloDetect {
    column_models: HashMap<String, ColumnModel>,
    threshold: f64,
    weights: [f64; 4],
}

#[derive(Debug, Clone)]
struct ColumnModel {
    value_freq: HashMap<String, usize>,
    non_null: usize,
    modal_signature: FormatSignature,
    trigram_counts: HashMap<String, usize>,
    mean: f64,
    sd: f64,
}

/// Letter-only character trigrams: digits and punctuation carry format,
/// not spelling, and are covered by the signature feature.
fn letter_trigrams(s: &str) -> Vec<String> {
    let letters: String = s
        .to_lowercase()
        .chars()
        .map(|c| if c.is_alphabetic() { c } else { ' ' })
        .collect();
    letters
        .split_whitespace()
        .flat_map(|w| unidm_text::tokenize::char_ngrams(w, 3))
        .collect()
}

impl ColumnModel {
    fn fit(table: &Table, attr: &str) -> Result<Self, TableError> {
        let mut value_freq: HashMap<String, usize> = HashMap::new();
        let mut signatures: HashMap<String, (FormatSignature, usize)> = HashMap::new();
        let mut trigrams: HashMap<String, usize> = HashMap::new();
        let mut nums: Vec<f64> = Vec::new();
        let mut non_null = 0usize;
        for v in table.column(attr)? {
            if v.is_null() {
                continue;
            }
            non_null += 1;
            let s = v.to_string();
            *value_freq.entry(s.to_lowercase()).or_insert(0) += 1;
            let sig = FormatSignature::of(&s);
            let e = signatures.entry(sig.to_string()).or_insert((sig, 0));
            e.1 += 1;
            for g in letter_trigrams(&s) {
                *trigrams.entry(g).or_insert(0) += 1;
            }
            if let Some(x) = v.as_f64() {
                nums.push(x);
            }
        }
        // Sort by rendered signature before taking the max: ties on count
        // must not fall back to HashMap iteration order, which is
        // randomized per process.
        let mut signatures: Vec<(String, (FormatSignature, usize))> =
            signatures.into_iter().collect();
        signatures.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let modal_signature = signatures
            .into_iter()
            .max_by_key(|(_, (_, c))| *c)
            .map(|(_, (s, _))| s)
            .unwrap_or_default();
        let (mean, sd) = if nums.len() >= 4 {
            let m = nums.iter().sum::<f64>() / nums.len() as f64;
            let var = nums.iter().map(|x| (x - m).powi(2)).sum::<f64>() / nums.len() as f64;
            (m, var.sqrt().max(1e-9))
        } else {
            (0.0, 0.0)
        };
        Ok(ColumnModel {
            value_freq,
            non_null,
            modal_signature,
            trigram_counts: trigrams,
            mean,
            sd,
        })
    }

    fn features(&self, value: &str, numeric: Option<f64>) -> CellFeatures {
        let frequency = self
            .value_freq
            .get(&value.to_lowercase())
            .copied()
            .unwrap_or(0) as f64
            / self.non_null.max(1) as f64;
        let format_agreement = FormatSignature::of(value).agreement(&self.modal_signature);
        let grams = letter_trigrams(value);
        let novelty = if grams.is_empty() {
            0.0
        } else {
            let novel = grams
                .iter()
                .filter(|g| self.trigram_counts.get(*g).copied().unwrap_or(0) <= 1)
                .count();
            novel as f64 / grams.len() as f64
        };
        let numeric_z = match (numeric, self.sd > 0.0) {
            (Some(x), true) => ((x - self.mean) / self.sd).abs(),
            _ => 0.0,
        };
        CellFeatures {
            frequency,
            format_agreement,
            novelty,
            numeric_z,
        }
    }
}

impl HoloDetect {
    /// Fits the model on `table` with the labelled `seed` examples.
    ///
    /// # Errors
    ///
    /// Returns table errors for invalid references.
    pub fn fit(
        table: &Table,
        attrs: &[String],
        seed: &[LabeledExample],
    ) -> Result<Self, TableError> {
        let mut column_models = HashMap::new();
        for attr in attrs {
            column_models.insert(attr.clone(), ColumnModel::fit(table, attr)?);
        }
        let mut model = HoloDetect {
            column_models,
            threshold: 0.5,
            weights: [0.15, 0.1, 0.55, 0.2],
        };
        // Fit the decision threshold on the labelled seed by direct F1
        // search over the scored examples.
        let mut scored: Vec<(f64, bool)> = Vec::new();
        for (row, attr, is_error) in seed {
            if let Ok(score) = model.score(table, *row, attr) {
                scored.push((score, *is_error));
            }
        }
        let mut best = (model.threshold, -1.0f64);
        for i in 0..=40 {
            let th = i as f64 / 40.0;
            let (mut tp, mut fp, mut fn_) = (0.0, 0.0, 0.0);
            for &(s, e) in &scored {
                match (s >= th, e) {
                    (true, true) => tp += 1.0,
                    (true, false) => fp += 1.0,
                    (false, true) => fn_ += 1.0,
                    (false, false) => {}
                }
            }
            let f1 = if tp == 0.0 {
                0.0
            } else {
                2.0 * tp / (2.0 * tp + fp + fn_)
            };
            if f1 > best.1 {
                best = (th, f1);
            }
        }
        model.threshold = best.0;
        Ok(model)
    }

    /// Error score of a cell in `[0, 1]` (higher = more likely an error).
    ///
    /// # Errors
    ///
    /// Returns table errors for invalid references.
    pub fn score(&self, table: &Table, row: usize, attr: &str) -> Result<f64, TableError> {
        let value = table.cell_value(row, attr)?;
        let Some(cm) = self.column_models.get(attr) else {
            return Ok(0.0);
        };
        let f = cm.features(&value.to_string(), value.as_f64());
        let rarity = 1.0 - (f.frequency * 4.0).min(1.0);
        let misformat = 1.0 - f.format_agreement;
        let outlier = (f.numeric_z / 6.0).min(1.0);
        let [w0, w1, w2, w3] = self.weights;
        Ok((w0 * rarity + w1 * misformat + w2 * f.novelty + w3 * outlier).clamp(0.0, 1.0))
    }

    /// Binary decision at the fitted threshold.
    ///
    /// # Errors
    ///
    /// Returns table errors for invalid references.
    pub fn detect(&self, table: &Table, row: usize, attr: &str) -> Result<bool, TableError> {
        Ok(self.score(table, row, attr)? >= self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_synthdata::errors;
    use unidm_world::World;

    fn fitted() -> (unidm_synthdata::ErrorDetectionDataset, HoloDetect) {
        let world = World::generate(7);
        let ds = errors::hospital(&world, 3, 0.05);
        let seed: Vec<LabeledExample> = ds
            .cells
            .iter()
            .take(120)
            .map(|c| (c.row, c.attr.clone(), c.is_error))
            .collect();
        let model = HoloDetect::fit(&ds.table, &ds.attrs, &seed).unwrap();
        (ds, model)
    }

    #[test]
    fn detects_most_typos() {
        let (ds, model) = fitted();
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for c in &ds.cells {
            let pred = model.detect(&ds.table, c.row, &c.attr).unwrap();
            match (pred, c.is_error) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        let f1 = 2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fn_ as f64);
        assert!(
            f1 > 0.7,
            "HoloDetect should reach high F1: {f1:.3} (tp {tp} fp {fp} fn {fn_})"
        );
    }

    #[test]
    fn scores_bounded() {
        let (ds, model) = fitted();
        for c in ds.cells.iter().take(50) {
            let s = model.score(&ds.table, c.row, &c.attr).unwrap();
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn unknown_attr_scores_zero() {
        let (ds, model) = fitted();
        assert_eq!(model.score(&ds.table, 0, "name").unwrap(), 0.0);
    }
}
