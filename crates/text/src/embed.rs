//! Deterministic hashed character-n-gram embeddings.
//!
//! The deep-learning baselines in the paper (IMP, Ditto, WarpGate) all reduce
//! to "embed strings, compare vectors, learn a threshold". Since no GPU model
//! is available offline, we use the classic fastText-style trick: hash every
//! character trigram and word into a fixed-dimension vector. The embedding is
//! deterministic, cheap, and — crucially — respects lexical similarity, which
//! is the property those baselines exploit on tabular data.

use crate::tokenize::{char_ngrams, words};

/// Dimensionality used by [`Embedder::default`].
pub const DEFAULT_DIM: usize = 128;

/// A dense embedding vector produced by an [`Embedder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(Vec<f32>);

impl Embedding {
    /// Creates an embedding from raw components.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(values: Vec<f32>) -> Self {
        assert!(
            !values.is_empty(),
            "embedding must have at least one dimension"
        );
        Embedding(values)
    }

    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Cosine similarity with `other`, in `[-1, 1]`; `0.0` if either is zero.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let dot: f32 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            (dot / denom).clamp(-1.0, 1.0)
        }
    }

    /// Adds `other` into `self` (vector sum).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_assign(&mut self, other: &Embedding) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Scales every component by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for a in &mut self.0 {
            *a *= factor;
        }
    }
}

/// FNV-1a in shape but **not** [`crate::hash::fnv1a64`]: the multiplier is
/// `0x1000_0000_01b3`, one digit off the FNV prime `0x100_0000_01b3`, and its
/// values pick every embedding dimension, so they reach table results.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Produces hashed n-gram embeddings of strings.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    ngram: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder {
            dim: DEFAULT_DIM,
            ngram: 3,
        }
    }
}

impl Embedder {
    /// Creates an embedder with explicit dimension and n-gram size.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `ngram` is zero.
    pub fn new(dim: usize, ngram: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(ngram > 0, "n-gram size must be positive");
        Embedder { dim, ngram }
    }

    /// Dimensionality of produced embeddings.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds `text` into a unit-norm vector (zero vector for empty text).
    ///
    /// Character n-grams and whole words both contribute, so the embedding
    /// captures sub-token typos as well as token overlap.
    pub fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let mut any = false;
        for gram in char_ngrams(text, self.ngram) {
            self.bump(&mut v, gram.as_bytes(), 1.0);
            any = true;
        }
        for word in words(text) {
            self.bump(&mut v, word.as_bytes(), 2.0);
            any = true;
        }
        let mut e = Embedding::new(v);
        if any {
            let n = e.norm();
            if n > 0.0 {
                e.scale(1.0 / n);
            }
        }
        e
    }

    /// Embeds a whole record: the mean of the field embeddings, renormalised.
    pub fn embed_fields<'a, I>(&self, fields: I) -> Embedding
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut acc = Embedding::zeros(self.dim);
        let mut n = 0usize;
        for f in fields {
            acc.add_assign(&self.embed(f));
            n += 1;
        }
        if n > 0 {
            acc.scale(1.0 / n as f32);
            let norm = acc.norm();
            if norm > 0.0 {
                acc.scale(1.0 / norm);
            }
        }
        acc
    }

    fn bump(&self, v: &mut [f32], bytes: &[u8], weight: f32) {
        let h = fnv1a(bytes);
        let idx = (h % self.dim as u64) as usize;
        // Second hash bit decides sign, which keeps expectation zero and
        // reduces collisions' systematic bias (feature hashing).
        let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
        v[idx] += sign * weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::default();
        assert_eq!(e.embed("hello world"), e.embed("hello world"));
    }

    #[test]
    fn identical_strings_cosine_one() {
        let e = Embedder::default();
        let a = e.embed("Copenhagen Denmark");
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_strings_high_cosine() {
        let e = Embedder::default();
        let a = e.embed("ruth's chris steak house los angeles");
        let b = e.embed("ruth's chris steak house beverly hills");
        let c = e.embed("completely unrelated text about turtles");
        assert!(a.cosine(&b) > a.cosine(&c));
    }

    #[test]
    fn typo_still_similar() {
        let e = Embedder::default();
        let a = e.embed("sheffield");
        let b = e.embed("sheffxeld");
        assert!(a.cosine(&b) > 0.5, "typos share most trigrams");
    }

    #[test]
    fn empty_text_zero_vector() {
        let e = Embedder::default();
        let z = e.embed("");
        // Only padding bigram contributes; cosine with anything is defined.
        assert!(z.norm() >= 0.0);
    }

    #[test]
    fn unit_norm() {
        let e = Embedder::default();
        let a = e.embed("some nonempty text");
        assert!((a.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn embed_fields_mean() {
        let e = Embedder::default();
        let rec = e.embed_fields(["punch home design", "punch software", "$199.99"]);
        assert_eq!(rec.dim(), DEFAULT_DIM);
        assert!((rec.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_dim_mismatch_panics() {
        let a = Embedding::new(vec![1.0, 0.0]);
        let b = Embedding::new(vec![1.0, 0.0, 0.0]);
        let _ = a.cosine(&b);
    }

    #[test]
    fn fnv_spread() {
        // Hashes of similar strings should not collide into one bucket.
        let h1 = fnv1a(b"abc") % 128;
        let h2 = fnv1a(b"abd") % 128;
        let h3 = fnv1a(b"abe") % 128;
        assert!(!(h1 == h2 && h2 == h3));
    }
}
