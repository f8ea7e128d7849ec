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
//! [`WordSet::jaccard`] / [`WordSet::overlap`] directly, or
//! [`WordSet::jaccard_text`] with one [`WordScratch`] to build no set for the
//! other side at all.

use std::cmp::Ordering;
use std::ops::Range;

use crate::tokenize::{char_ngrams, raw_words};

/// The distinct lowercase words of a text, ordered by key and then by
/// bytes.
///
/// A word is what [`words`](crate::tokenize::words) yields. The words live
/// back to back in one buffer beside a list of their keys and spans, not in
/// one `String` each. A word's key packs its first eight bytes and its
/// length, so most comparisons between words end at the key.
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
    buf: Vec<u8>,
    words: Vec<(u64, Range<usize>)>,
}

impl WordSet {
    /// Tokenizes `text` and keeps each distinct lowercase word once.
    pub fn new(text: &str) -> Self {
        let mut buf = Vec::with_capacity(text.len());
        let mut words = Vec::new();
        for raw in raw_words(text) {
            let start = buf.len();
            push_lowercase(&mut buf, raw);
            words.push((word_key(&buf[start..]), start..buf.len()));
        }
        let word = |(key, span): &(u64, Range<usize>)| (*key, &buf[span.clone()]);
        words.sort_unstable_by(|x, y| word(x).cmp(&word(y)));
        words.dedup_by(|x, y| word(x) == word(y));
        WordSet { buf, words }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True for a text with no words at all.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The `i`-th word and its key, in the set's order.
    fn word(&self, i: usize) -> (u64, &[u8]) {
        let (key, span) = &self.words[i];
        (*key, &self.buf[span.clone()])
    }

    /// `|self ∩ other|`, counted in one merge of the two sorted lists.
    fn intersection_len(&self, other: &WordSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.len() && j < other.len() {
            match self.word(i).cmp(&other.word(j)) {
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

    /// `self.jaccard(&WordSet::new(text))` to the bit, without building
    /// `text`'s set: `scratch` holds a hash table over `self`'s words, and
    /// each word of `text`, lowercased into `scratch`, is looked up there
    /// and added if new, so each distinct word is counted once and a word
    /// of `self` is recognized with one probe. `text` is split by the rule
    /// of [`words`](crate::tokenize::words). `scratch` keeps its buffers, so
    /// a warm call allocates nothing.
    ///
    /// Its cost, measured on two vCPUs: with `jaccard(&WordSet::new(text))`
    /// in its place, `replay_warm` `setup_s` rose 28 % (0.536 → 0.686 s).
    ///
    /// # Examples
    ///
    /// ```
    /// use unidm_text::distance::{WordScratch, WordSet};
    /// let query = WordSet::new("Red, blue; RED");
    /// let mut scratch = WordScratch::default();
    /// let j = query.jaccard_text("blue green BLUE", &mut scratch);
    /// assert_eq!(j, query.jaccard(&WordSet::new("blue green BLUE")));
    /// ```
    pub fn jaccard_text(&self, text: &str, scratch: &mut WordScratch) -> f64 {
        scratch.start(self, text.len());
        let (mut distinct, mut inter) = (0, 0);
        let mut note = |scratch: &mut WordScratch, start| match scratch.note(self, start) {
            Noted::Again => {}
            Noted::New => distinct += 1,
            Noted::InSet => {
                distinct += 1;
                inter += 1;
            }
        };
        for raw in raw_words(text) {
            let start = scratch.buf.len();
            push_lowercase(&mut scratch.buf, raw);
            note(scratch, start);
        }
        if self.is_empty() && distinct == 0 {
            return 1.0;
        }
        let union = self.len() + distinct - inter;
        inter as f64 / union as f64
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

/// The reusable buffers of [`WordSet::jaccard_text`]: one text's distinct
/// lowercase words, back to back, and a hash table over them and the
/// set's words.
#[derive(Debug, Clone, Default)]
pub struct WordScratch {
    /// The text's distinct words so far, lowercase, back to back.
    buf: Vec<u8>,
    /// The set's words, then the text's: key, span (in the set's buffer or
    /// in `buf`, by origin) and origin.
    words: Vec<(u64, Range<usize>, Origin)>,
    /// Linear-probing table over `words`: an index plus one, 0 when empty.
    slots: Vec<u32>,
}

/// Where a [`WordScratch`] word came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A word of the set the text has not had yet.
    Set,
    /// A word of the set the text has had.
    SetSeen,
    /// A word of the text only.
    Text,
}

/// What [`WordScratch::note`] made of a word.
enum Noted {
    /// The text had the word before.
    Again,
    /// The text's first time with a word the set lacks.
    New,
    /// The text's first time with a word of the set.
    InSet,
}

impl WordScratch {
    /// Empties the scratch for a text of `text_len` bytes and tables
    /// `set`'s words, sized so the table stays at most half full.
    fn start(&mut self, set: &WordSet, text_len: usize) {
        self.buf.clear();
        self.words.clear();
        // A text word is at least a byte and a separator long.
        let most = set.len() + text_len / 2 + 1;
        self.slots.clear();
        self.slots.resize((2 * most).next_power_of_two().max(16), 0);
        for (key, span) in &set.words {
            let mut slot = self.home(*key);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (self.slots.len() - 1);
            }
            self.words.push((*key, span.clone(), Origin::Set));
            self.slots[slot] = self.words.len() as u32;
        }
    }

    /// The slot a key's probe starts at.
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// Looks up the word just appended at `buf[start..]`: kept and tabled
    /// if the text had not had it, dropped from `buf` if it had.
    fn note(&mut self, set: &WordSet, start: usize) -> Noted {
        let key = word_key(&self.buf[start..]);
        let mut slot = self.home(key);
        loop {
            let Some(index) = self.slots[slot].checked_sub(1) else {
                self.words.push((key, start..self.buf.len(), Origin::Text));
                self.slots[slot] = self.words.len() as u32;
                return Noted::New;
            };
            let (k, span, origin) = &mut self.words[index as usize];
            let held = match origin {
                Origin::Text => &self.buf,
                Origin::Set | Origin::SetSeen => &set.buf,
            };
            if *k == key && held[span.clone()] == self.buf[start..] {
                self.buf.truncate(start);
                return match origin {
                    Origin::Set => {
                        *origin = Origin::SetSeen;
                        Noted::InSet
                    }
                    Origin::SetSeen | Origin::Text => Noted::Again,
                };
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }
}

/// A word's key: its first eight bytes and its length, packed. Equal words
/// have equal keys, and unequal short words almost never share one.
fn word_key(word: &[u8]) -> u64 {
    let head = (word.iter().take(8)).fold(0u64, |key, &b| key << 8 | u64::from(b));
    head ^ (word.len() as u64).rotate_right(8)
}

/// Appends `raw`, lowercased as [`words`](crate::tokenize::words) does, to
/// `buf`.
///
/// The ASCII branch's cost, measured on two vCPUs: without it,
/// `replay_warm` `setup_s` rose 22 % (0.521 → 0.637 s, 9 of 10 pairs).
fn push_lowercase(buf: &mut Vec<u8>, raw: &str) {
    if raw.is_ascii() {
        buf.extend(raw.bytes().map(|b| b.to_ascii_lowercase()));
    } else {
        for ch in raw.chars().flat_map(char::to_lowercase) {
            buf.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
        }
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
        // A long text against a short one and against itself, repeats
        // included: far more distinct words than one set of either holds.
        let long: String = (0..600)
            .map(|i| format!("w{} W{} ", i % 400, i % 7))
            .collect();
        let pairs = fixed
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .chain([
                ("w3 w399 x".to_string(), long.clone()),
                (long.clone(), long),
            ])
            .chain(seeded);
        let mut nonzero = 0;
        let mut scratch = WordScratch::default();
        for (a, b) in pairs {
            let (j, o) = (jaccard(&a, &b), overlap_coefficient(&a, &b));
            assert_eq!(
                j.to_bits(),
                jaccard_oracle(&a, &b).to_bits(),
                "{a:?} ~ {b:?}"
            );
            assert_eq!(
                WordSet::new(&a).jaccard_text(&b, &mut scratch).to_bits(),
                j.to_bits(),
                "{a:?} ~ {b:?}, scratch"
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
