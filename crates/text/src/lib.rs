//! Text utilities shared across the UniDM reproduction.
//!
//! This crate provides the low-level lexical machinery every other layer
//! builds on:
//!
//! * [`tokenize`] — word segmentation and a subword-approximating token
//!   counter used for LLM token accounting (paper Table 7).
//! * [`distance`] — classic string distances (Levenshtein, Jaro-Winkler,
//!   Jaccard, Dice) used by retrieval baselines and error detectors.
//! * [`embed`] — deterministic hashed character-n-gram embeddings with cosine
//!   similarity, the substrate for IMP/Ditto/WarpGate-style baselines.
//! * [`tfidf`] — a small TF-IDF corpus model for instance weighting.
//! * [`mod@format`] — string format signatures (digit/letter/punctuation shape)
//!   used by the TDE baseline and the error-detection generators, and
//!   [`format::push_decimal`], decimal integers without `core::fmt`.
//! * [`normalize`] — canonicalisation helpers.
//! * [`hash`] — the workspace's one content hash (word at a time, unkeyed,
//!   in memory only), [`hash::PromptMap`], the map keyed by whole prompts
//!   that hashes with it, [`hash::checksum64`], the same fold under frozen
//!   constants for checksums written to disk, and [`hash::fnv1a64`], the
//!   byte-serial hash for digests committed in ledgers.
//!
//! # Examples
//!
//! ```
//! use unidm_text::distance::normalized_levenshtein;
//! use unidm_text::embed::Embedder;
//!
//! let sim = normalized_levenshtein("holoclean", "holodetect");
//! assert!(sim > 0.3 && sim < 1.0);
//!
//! let e = Embedder::default();
//! let a = e.embed("Central European Time");
//! let b = e.embed("Central European Timezone");
//! assert!(a.cosine(&b) > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod embed;
pub mod format;
pub mod hash;
pub mod normalize;
pub mod tfidf;
pub mod tokenize;

pub use distance::{jaccard, jaro_winkler, levenshtein, normalized_levenshtein};
pub use embed::{Embedder, Embedding};
pub use tokenize::{count_tokens, words};
