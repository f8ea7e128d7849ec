//! Magellan (Konda et al. 2016): classical entity-matching with
//! hand-crafted similarity features and an off-the-shelf learner.
//!
//! The stand-in uses the canonical Magellan feature set (token Jaccard,
//! normalized edit similarity, overlap coefficient, numeric difference)
//! and fits a single-feature decision stump per dataset — deliberately
//! weaker than Ditto's learned combination, matching their gap in Table 4.

use unidm_synthdata::matching::EntityPair;
use unidm_tablestore::Record;
use unidm_text::distance::{normalized_levenshtein, WordSet};

/// Magellan feature vector of a candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagellanFeatures {
    /// Token Jaccard of the text blobs.
    pub jaccard: f64,
    /// Normalized Levenshtein similarity of the first fields.
    pub edit: f64,
    /// Overlap coefficient of token sets.
    pub overlap: f64,
}

/// Computes the feature vector.
pub fn features(a: &Record, b: &Record) -> MagellanFeatures {
    let fa = a
        .values()
        .first()
        .map(|v| v.to_string())
        .unwrap_or_default();
    let fb = b
        .values()
        .first()
        .map(|v| v.to_string())
        .unwrap_or_default();
    let (wa, wb) = (WordSet::new(&a.text_blob()), WordSet::new(&b.text_blob()));
    MagellanFeatures {
        jaccard: wa.jaccard(&wb),
        edit: normalized_levenshtein(&fa.to_lowercase(), &fb.to_lowercase()),
        overlap: wa.overlap(&wb),
    }
}

/// Which feature the stump splits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitFeature {
    Jaccard,
    Edit,
    Overlap,
}

/// A trained Magellan matcher (decision stump).
#[derive(Debug, Clone, PartialEq)]
pub struct Magellan {
    feature: SplitFeature,
    threshold: f64,
}

impl Magellan {
    /// Trains the stump: picks the (feature, threshold) pair with the best
    /// training F1.
    pub fn train(pairs: &[EntityPair]) -> Self {
        let feats: Vec<(MagellanFeatures, bool)> = pairs
            .iter()
            .map(|p| (features(&p.a, &p.b), p.is_match))
            .collect();
        let mut best = (
            Magellan {
                feature: SplitFeature::Jaccard,
                threshold: 0.5,
            },
            -1.0f64,
        );
        for feature in [
            SplitFeature::Jaccard,
            SplitFeature::Edit,
            SplitFeature::Overlap,
        ] {
            for t in 0..=40 {
                let threshold = t as f64 / 40.0;
                let model = Magellan { feature, threshold };
                let (mut tp, mut fp, mut fn_) = (0.0, 0.0, 0.0);
                for (f, label) in &feats {
                    match (model.value(f) >= threshold, *label) {
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
                    best = (model, f1);
                }
            }
        }
        best.0
    }

    fn value(&self, f: &MagellanFeatures) -> f64 {
        match self.feature {
            SplitFeature::Jaccard => f.jaccard,
            SplitFeature::Edit => f.edit,
            SplitFeature::Overlap => f.overlap,
        }
    }

    /// Binary match decision.
    pub fn matches(&self, a: &Record, b: &Record) -> bool {
        self.value(&features(a, b)) >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_synthdata::matching;
    use unidm_world::World;

    fn f1_of(model: &Magellan, pairs: &[EntityPair]) -> f64 {
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for p in pairs {
            match (model.matches(&p.a, &p.b), p.is_match) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fn_ as f64).max(1.0)
    }

    #[test]
    fn reasonable_on_easy_weak_on_hard() {
        let world = World::generate(7);
        let beer = matching::beer(&world, 3);
        let hard = matching::amazon_google(&world, 3);
        let m_beer = Magellan::train(&beer.train);
        let m_hard = Magellan::train(&hard.train);
        let f1_beer = f1_of(&m_beer, &beer.pairs);
        let f1_hard = f1_of(&m_hard, &hard.pairs);
        assert!(f1_beer > 0.6, "beer f1 {f1_beer:.3}");
        assert!(
            f1_beer > f1_hard,
            "beer {f1_beer:.3} vs amazon-google {f1_hard:.3}"
        );
    }

    #[test]
    fn ditto_beats_magellan() {
        let world = World::generate(7);
        let ds = matching::walmart_amazon(&world, 3);
        let magellan = Magellan::train(&ds.train);
        let ditto = crate::ditto::Ditto::train(&ds.train);
        let f1_m = f1_of(&magellan, &ds.pairs);
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for p in &ds.pairs {
            match (ditto.matches(&p.a, &p.b), p.is_match) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        let f1_d = 2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fn_ as f64);
        assert!(f1_d >= f1_m - 0.02, "ditto {f1_d:.3} vs magellan {f1_m:.3}");
    }
}
