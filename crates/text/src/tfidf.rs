//! A small TF-IDF corpus model.
//!
//! Used to weight tokens when matching records: rare tokens ("431") matter
//! more than ubiquitous ones ("the") when deciding whether two product
//! descriptions refer to the same entity.

use std::collections::{BTreeMap, HashMap};

use crate::tokenize::words;

/// TF-IDF statistics over a document corpus.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    doc_freq: HashMap<String, usize>,
    num_docs: usize,
}

impl TfIdf {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a model from an iterator of documents.
    pub fn fit<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut m = Self::new();
        for d in docs {
            m.add_document(d);
        }
        m
    }

    /// Adds one document to the corpus statistics.
    pub fn add_document(&mut self, doc: &str) {
        self.num_docs += 1;
        let mut seen = std::collections::HashSet::new();
        for w in words(doc) {
            if seen.insert(w.clone()) {
                *self.doc_freq.entry(w).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents the model has seen.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Smoothed inverse document frequency of `token` (lowercased).
    ///
    /// Unknown tokens get the maximum IDF, matching the intuition that a
    /// never-seen token is maximally discriminative.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self
            .doc_freq
            .get(&token.to_lowercase())
            .copied()
            .unwrap_or(0) as f64;
        ((1.0 + self.num_docs as f64) / (1.0 + df)).ln() + 1.0
    }

    /// TF-IDF weighted cosine similarity between two texts, in `[0, 1]`.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let va = self.vectorize(a);
        let vb = self.vectorize(b);
        if va.is_empty() || vb.is_empty() {
            return if va.is_empty() && vb.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let mut dot = 0.0;
        for (tok, wa) in &va {
            if let Some(wb) = vb.get(tok) {
                dot += wa * wb;
            }
        }
        let na: f64 = va.values().map(|w| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.values().map(|w| w * w).sum::<f64>().sqrt();
        (dot / (na * nb)).clamp(0.0, 1.0)
    }

    /// Token → weight, in token order: the float sums in
    /// [`TfIdf::similarity`] must add in the same order on every run, or
    /// near-tied scores rank differently from one process to the next.
    fn vectorize(&self, text: &str) -> BTreeMap<String, f64> {
        let mut tf: BTreeMap<String, f64> = BTreeMap::new();
        for w in words(text) {
            *tf.entry(w).or_insert(0.0) += 1.0;
        }
        for (tok, f) in tf.iter_mut() {
            *f *= self.idf(tok);
        }
        tf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TfIdf {
        TfIdf::fit([
            "the quick brown fox",
            "the lazy dog",
            "the quick dog",
            "a rare zebra",
        ])
    }

    #[test]
    fn idf_orders_rarity() {
        let m = model();
        assert!(m.idf("zebra") > m.idf("quick"));
        assert!(m.idf("quick") > m.idf("the"));
    }

    #[test]
    fn unknown_token_max_idf() {
        let m = model();
        assert!(m.idf("quux") >= m.idf("zebra"));
    }

    #[test]
    fn similarity_identity() {
        let m = model();
        assert!((m.similarity("quick brown fox", "quick brown fox") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_rare_tokens_dominate() {
        let m = model();
        // Sharing "zebra" (rare) beats sharing "the" (common).
        let s_rare = m.similarity("rare zebra", "zebra sighting");
        let s_common = m.similarity("the fox", "the dog");
        assert!(s_rare > s_common);
    }

    #[test]
    fn similarity_empty() {
        let m = model();
        assert_eq!(m.similarity("", ""), 1.0);
        assert_eq!(m.similarity("fox", ""), 0.0);
    }

    #[test]
    fn incremental_fit_matches_batch() {
        let mut inc = TfIdf::new();
        inc.add_document("alpha beta");
        inc.add_document("beta gamma");
        let batch = TfIdf::fit(["alpha beta", "beta gamma"]);
        assert_eq!(inc.num_docs(), batch.num_docs());
        assert!((inc.idf("beta") - batch.idf("beta")).abs() < 1e-12);
    }
}
