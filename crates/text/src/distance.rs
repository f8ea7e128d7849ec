//! Classic string distance and similarity measures.
//!
//! These power the non-LLM baselines (Magellan's feature vector, HoloDetect's
//! noisy-channel features, IMP's neighbour search) and the random/manual
//! context selection strategies of the FM baseline.
//!
//! The word-set measures ([`jaccard`], [`overlap_coefficient`]) go through
//! [`WordSet`]: the distinct lowercase [`words`](crate::tokenize::words) of a
//! text, sorted once, so that a pair costs one merge. A caller comparing one
//! fixed text against many builds its `WordSet` once and calls
//! [`WordSet::jaccard`] / [`WordSet::overlap`] directly.

use std::cmp::Ordering;
use std::ops::Range;

use crate::tokenize::{char_ngrams, raw_words};

/// The distinct lowercase words of a text, sorted by their bytes.
///
/// A word is what [`words`](crate::tokenize::words) yields. The words live
/// back to back in one buffer beside a list of their spans, not in one
/// `String` each.
///
/// # Examples
///
/// ```
/// use unidm_text::distance::WordSet;
/// let a = WordSet::new("Red, blue; RED");
/// let b = WordSet::new("blue green");
/// assert_eq!(a.len(), 2);
/// assert_eq!(a.jaccard(&b), 1.0 / 3.0);
/// assert_eq!(a.overlap(&b), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct WordSet {
    buf: String,
    spans: Vec<Range<usize>>,
}

impl WordSet {
    /// Tokenizes `text` and keeps each distinct lowercase word once.
    pub fn new(text: &str) -> Self {
        let mut buf = String::with_capacity(text.len());
        let mut spans = Vec::new();
        for raw in raw_words(text) {
            let start = buf.len();
            if raw.is_ascii() {
                buf.push_str(raw);
                buf[start..].make_ascii_lowercase();
            } else {
                buf.extend(raw.chars().flat_map(char::to_lowercase));
            }
            spans.push(start..buf.len());
        }
        // `str` orders by its bytes, so byte slices sort the same and skip
        // the char-boundary checks.
        let bytes = buf.as_bytes();
        spans.sort_unstable_by(|x, y| bytes[x.clone()].cmp(&bytes[y.clone()]));
        spans.dedup_by(|x, y| bytes[x.clone()] == bytes[y.clone()]);
        WordSet { buf, spans }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True for a text with no words at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn word(&self, i: usize) -> &[u8] {
        &self.buf.as_bytes()[self.spans[i].clone()]
    }

    /// `|self ∩ other|`, counted in one merge of the two sorted lists.
    fn intersection_len(&self, other: &WordSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.len() && j < other.len() {
            match self.word(i).cmp(other.word(j)) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; two empty sets have `1.0`.
    pub fn jaccard(&self, other: &WordSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let inter = self.intersection_len(other);
        let union = self.len() + other.len() - inter;
        inter as f64 / union as f64
    }

    /// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`; `0.0` if either is empty.
    pub fn overlap(&self, other: &WordSet) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        self.intersection_len(other) as f64 / self.len().min(other.len()) as f64
    }
}

/// Levenshtein edit distance between `a` and `b`.
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space.
///
/// # Examples
///
/// ```
/// assert_eq!(unidm_text::distance::levenshtein("kitten", "sitting"), 3);
/// assert_eq!(unidm_text::distance::levenshtein("", "abc"), 3);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long): (Vec<char>, Vec<char>) = {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        if ac.len() <= bc.len() {
            (ac, bc)
        } else {
            (bc, ac)
        }
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein similarity normalised to `[0, 1]`; `1.0` means equal strings.
///
/// Two empty strings are defined to have similarity `1.0`.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push((i, j));
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: matched characters out of order. `matches_a` is in
    // `a` order, so its `b` offsets are the matches' `b` order read along `a`.
    let b_order: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
    let sorted = {
        let mut s = b_order.clone();
        s.sort_unstable();
        s
    };
    let mut transpositions = 0usize;
    for (x, y) in b_order.iter().zip(sorted.iter()) {
        if x != y {
            transpositions += 1;
        }
    }
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity in `[0, 1]`, boosting common prefixes.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Jaccard similarity of the word-token sets of `a` and `b`.
///
/// Two texts with no tokens at all have similarity `1.0`.
pub fn jaccard(a: &str, b: &str) -> f64 {
    WordSet::new(a).jaccard(&WordSet::new(b))
}

/// Sørensen–Dice coefficient over character bigrams, in `[0, 1]`.
pub fn dice_bigrams(a: &str, b: &str) -> f64 {
    let ga: Vec<String> = char_ngrams(a, 2);
    let gb: Vec<String> = char_ngrams(b, 2);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let mut counts = std::collections::HashMap::new();
    for g in &ga {
        *counts.entry(g.clone()).or_insert(0usize) += 1;
    }
    let mut inter = 0usize;
    for g in &gb {
        if let Some(c) = counts.get_mut(g) {
            if *c > 0 {
                *c -= 1;
                inter += 1;
            }
        }
    }
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Overlap (containment) coefficient of word-token sets: `|A ∩ B| / min(|A|, |B|)`.
///
/// This is the measure WarpGate-style join discovery uses on column values.
pub fn overlap_coefficient(a: &str, b: &str) -> f64 {
    WordSet::new(a).overlap(&WordSet::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::words;
    use std::collections::BTreeSet;

    /// The `BTreeSet<String>` definition [`jaccard`] had before [`WordSet`].
    fn jaccard_oracle(a: &str, b: &str) -> f64 {
        let sa: BTreeSet<String> = words(a).into_iter().collect();
        let sb: BTreeSet<String> = words(b).into_iter().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        inter / union
    }

    /// The `BTreeSet<String>` definition [`overlap_coefficient`] had before
    /// [`WordSet`].
    fn overlap_oracle(a: &str, b: &str) -> f64 {
        let sa: BTreeSet<String> = words(a).into_iter().collect();
        let sb: BTreeSet<String> = words(b).into_iter().collect();
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        let inter = sa.intersection(&sb).count() as f64;
        inter / sa.len().min(sb.len()) as f64
    }

    /// A seeded text: up to eight fragments from a small vocabulary (so
    /// pairs share words) joined by separators, some of them empty.
    fn random_text(state: &mut u64) -> String {
        const FRAGMENTS: &[&str] = &[
            "red",
            "Red",
            "RED",
            "blue",
            "blue",
            "42",
            "4two",
            "007",
            "x",
            "İstanbul",
            "istanbul",
            "İ",
            "ẞ",
            "ß",
            "STRAẞE",
            "straße",
            "Café",
            "CAFÉ",
            "Σίσυφος",
            "ǅemal",
            "!!",
            "...",
            "--",
            "",
        ];
        const SEPARATORS: &[&str] = &[" ", ", ", ".", "-", "", "  ", "/", "\t"];
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let n = next() % 9;
        let mut text = String::new();
        for i in 0..n {
            if i > 0 {
                text.push_str(SEPARATORS[(next() % SEPARATORS.len() as u64) as usize]);
            }
            text.push_str(FRAGMENTS[(next() % FRAGMENTS.len() as u64) as usize]);
        }
        text
    }

    #[test]
    fn word_set_matches_btreeset_definitions_bit_for_bit() {
        let fixed = [
            ("", ""),
            ("", "red"),
            ("!!! ...", ""),
            ("?!", "--"),
            ("red red RED", "Red"),
            ("a1 B2 c3", "C3 b2 9"),
            ("İstanbul", "i̇stanbul"),
            ("ẞ STRAẞE", "ß straße"),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let seeded = (0..10_000).map(|_| (random_text(&mut state), random_text(&mut state)));
        let pairs = fixed
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .chain(seeded);
        let mut nonzero = 0;
        for (a, b) in pairs {
            let (j, o) = (jaccard(&a, &b), overlap_coefficient(&a, &b));
            assert_eq!(
                j.to_bits(),
                jaccard_oracle(&a, &b).to_bits(),
                "{a:?} ~ {b:?}"
            );
            assert_eq!(
                o.to_bits(),
                overlap_oracle(&a, &b).to_bits(),
                "{a:?} ~ {b:?}"
            );
            nonzero += usize::from(j > 0.0 && j < 1.0);
        }
        // The vocabulary is small enough that most pairs overlap partly.
        assert!(nonzero > 3_000, "{nonzero}");
    }

    /// [`jaro`] as it was when it also re-sorted the matched `b` offsets
    /// by their position in the match list.
    fn jaro_oracle(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches_a.push((i, j));
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let mut b_order: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
        let mut sorted = b_order.clone();
        sorted.sort_unstable();
        b_order.sort_by_key(|&j| matches_a.iter().position(|&(_, jj)| jj == j));
        let transpositions = b_order.iter().zip(&sorted).filter(|(x, y)| x != y).count();
        let t = transpositions as f64 / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    #[test]
    fn jaro_matches_its_former_definition_bit_for_bit() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5_000 {
            let (a, b) = (random_text(&mut state), random_text(&mut state));
            assert_eq!(
                jaro(&a, &b).to_bits(),
                jaro_oracle(&a, &b).to_bits(),
                "{a:?} ~ {b:?}"
            );
        }
    }

    #[test]
    fn levenshtein_identity() {
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn levenshtein_symmetry() {
        assert_eq!(levenshtein("flaw", "lawn"), levenshtein("lawn", "flaw"));
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        for (a, b) in [("a", "b"), ("same", "same"), ("", "x"), ("abcd", "wxyz")] {
            let s = normalized_levenshtein(a, b);
            assert!((0.0..=1.0).contains(&s), "{a} vs {b} -> {s}");
        }
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("same", "same"), 1.0);
        assert_eq!(normalized_levenshtein("abcd", "wxyz"), 0.0);
    }

    #[test]
    fn jaro_identity_and_disjoint() {
        assert!((jaro("martha", "martha") - 1.0).abs() < 1e-12);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_prefers_prefix() {
        let jw_prefix = jaro_winkler("prefixed", "prefixes");
        let jw_suffix = jaro_winkler("xprefixed", "yprefixed");
        assert!(jw_prefix > jw_suffix);
    }

    #[test]
    fn jaro_winkler_bounds() {
        for (a, b) in [("dwayne", "duane"), ("dixon", "dicksonx"), ("", "")] {
            let s = jaro_winkler(a, b);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn jaccard_tokens() {
        assert!((jaccard("red blue", "blue red") - 1.0).abs() < 1e-12);
        assert!((jaccard("red blue", "blue green") - (1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("a", ""), 0.0);
    }

    #[test]
    fn dice_bigrams_similar_strings() {
        assert!(dice_bigrams("night", "nacht") > 0.0);
        assert!((dice_bigrams("abc", "abc") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_containment() {
        // All tokens of the smaller set contained in the larger one.
        assert!((overlap_coefficient("GER ITA", "GER ITA FRA ESP") - 1.0).abs() < 1e-12);
        assert_eq!(overlap_coefficient("AAA", "BBB"), 0.0);
        assert_eq!(overlap_coefficient("", "x"), 0.0);
    }
}
