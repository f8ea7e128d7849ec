//! Word segmentation and approximate LLM token counting.
//!
//! The token counter approximates byte-pair-encoding behaviour: short common
//! words cost one token, longer words are split into roughly four-character
//! chunks, and punctuation costs one token each. The absolute numbers do not
//! need to match any specific tokenizer — the paper's Table 7 compares
//! *relative* token consumption between methods, which this preserves.

/// Splits `text` into lowercase word tokens.
///
/// A word is a maximal run of alphanumeric characters; everything else is a
/// separator. The output preserves order and keeps duplicates.
///
/// # Examples
///
/// ```
/// let w = unidm_text::tokenize::words("The task is [data imputation].");
/// assert_eq!(w, vec!["the", "task", "is", "data", "imputation"]);
/// ```
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in raw_words(text) {
        let mut word = String::new();
        word.extend(raw.chars().flat_map(char::to_lowercase));
        out.push(word);
    }
    out
}

/// The word rule behind [`words`]: maximal runs of alphanumeric
/// characters, as they appear in `text` (not yet lowercased).
pub(crate) fn raw_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|ch: char| !ch.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// Splits `text` into word and punctuation tokens, preserving case.
///
/// Unlike [`words`], punctuation characters are emitted as single-character
/// tokens rather than dropped. [`count_tokens`] counts exactly these tokens
/// without building them; `lex` is the oracle its tests compare against.
pub fn lex(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.push(ch);
        } else {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            if !ch.is_whitespace() {
                out.push(ch.to_string());
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Number of characters a single subword chunk covers in [`count_tokens`].
const SUBWORD_CHARS: usize = 4;

/// Approximates the number of LLM tokens in `text`.
///
/// Words of up to `SUBWORD_CHARS` (4) characters count as one token; longer
/// words count one token per started four-character chunk. Punctuation
/// characters count one token each. The function is monotone: appending text
/// never decreases the count.
///
/// # Examples
///
/// ```
/// assert_eq!(unidm_text::tokenize::count_tokens(""), 0);
/// assert_eq!(unidm_text::tokenize::count_tokens("city"), 1);
/// assert!(unidm_text::tokenize::count_tokens("Copenhagen, Denmark") >= 4);
/// ```
pub fn count_tokens(text: &str) -> usize {
    // One streaming pass over what [`lex`] would split: a word costs one
    // token per started chunk when it ends, punctuation costs one where it
    // stands, whitespace only ends the word. Nothing is allocated.
    let mut tokens = 0usize;
    let mut word = 0usize;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            word += 1;
        } else {
            tokens += word.div_ceil(SUBWORD_CHARS) + usize::from(!ch.is_whitespace());
            word = 0;
        }
    }
    tokens + word.div_ceil(SUBWORD_CHARS)
}

/// Character n-grams of `text` (including word-boundary padding).
///
/// Used by the embedding layer; exposed here because the tokenizer owns the
/// character-level view of strings.
pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let padded: Vec<char> = std::iter::once(' ')
        .chain(text.chars().flat_map(|c| c.to_lowercase()))
        .chain(std::iter::once(' '))
        .collect();
    if padded.len() < n {
        return vec![padded.iter().collect()];
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_basic() {
        assert_eq!(words("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn words_empty() {
        assert!(words("").is_empty());
        assert!(words("  \t\n").is_empty());
    }

    #[test]
    fn words_numbers_kept() {
        assert_eq!(words("ipv4: 10.0.0.1"), vec!["ipv4", "10", "0", "0", "1"]);
    }

    #[test]
    fn lex_keeps_punctuation() {
        assert_eq!(lex("a,b"), vec!["a", ",", "b"]);
        assert_eq!(lex("x => y"), vec!["x", "=", ">", "y"]);
    }

    #[test]
    fn count_tokens_empty_is_zero() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn count_tokens_short_word() {
        assert_eq!(count_tokens("the"), 1);
        assert_eq!(count_tokens("city"), 1);
    }

    #[test]
    fn count_tokens_long_word_splits() {
        // "Copenhagen" has 10 chars -> ceil(10/4) = 3 tokens.
        assert_eq!(count_tokens("Copenhagen"), 3);
    }

    #[test]
    fn count_tokens_punct_counts() {
        assert_eq!(count_tokens("a,b"), 3);
    }

    #[test]
    fn count_tokens_monotone_under_append() {
        let a = "The task is data imputation.";
        let b = " The context is Florence.";
        let joined = format!("{a}{b}");
        assert!(count_tokens(&joined) >= count_tokens(a));
        assert!(count_tokens(&joined) >= count_tokens(b));
    }

    /// `count_tokens` as [`lex`] defines it: one token per started
    /// four-character chunk of a word, one per punctuation character.
    fn count_tokens_oracle(text: &str) -> usize {
        lex(text)
            .iter()
            .map(|token| {
                let chars = token.chars().count();
                if token.chars().all(char::is_alphanumeric) {
                    chars.div_ceil(SUBWORD_CHARS)
                } else {
                    chars
                }
            })
            .sum()
    }

    #[test]
    fn count_tokens_matches_lex_on_every_ascii_byte() {
        // Every ASCII byte alone, after a word and between two words, and
        // the non-ASCII blanks and letters next to the ASCII rules: NEL
        // (U+0085), NBSP (U+00A0), LINE SEPARATOR (U+2028), a Greek and a
        // Han letter and a combining accent.
        let specials = [
            "\u{85}", "\u{a0}", "\u{2028}", "\u{3a3}", "\u{4e2d}", "e\u{301}",
        ];
        let mut fixed: Vec<String> = (0u8..0x80)
            .map(char::from)
            .flat_map(|ch| {
                [
                    format!("{ch}"),
                    format!("abcde{ch}"),
                    format!("ab{ch}cdefghi"),
                ]
            })
            .collect();
        fixed.extend(
            specials
                .iter()
                .flat_map(|s| [s.to_string(), format!("word{s}word")]),
        );
        // Seeded strings over the same alphabet: ASCII bytes weighted
        // towards letters, digits and the blanks, plus the specials.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let seeded = (0..20_000).map(|_| {
            let len = next() % 24;
            let mut text = String::new();
            for _ in 0..len {
                match next() % 8 {
                    0 => text.push_str(specials[(next() % specials.len() as u64) as usize]),
                    1 => text.push(char::from(
                        b"\t\n\x0b\x0c\r \x1c\x1f"[(next() % 8) as usize],
                    )),
                    2 | 3 => text.push(char::from((next() % 0x80) as u8)),
                    _ => text.push(char::from(b"aZ09xQ"[(next() % 6) as usize])),
                }
            }
            text
        });
        let mut counted = 0;
        for text in fixed.into_iter().chain(seeded) {
            assert_eq!(count_tokens(&text), count_tokens_oracle(&text), "{text:?}");
            counted += usize::from(count_tokens(&text) > 0);
        }
        assert!(counted > 15_000, "{counted}");
        // VT is whitespace to `char` (not to `u8::is_ascii_whitespace`).
        assert_eq!(count_tokens("a\x0bb"), 2);
        assert_eq!(count_tokens("a\x1cb"), 3);
    }

    #[test]
    fn char_ngrams_padding() {
        let grams = char_ngrams("ab", 3);
        assert_eq!(grams, vec![" ab", "ab "]);
    }

    #[test]
    fn char_ngrams_short_string() {
        let grams = char_ngrams("", 3);
        assert_eq!(grams, vec!["  "]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn char_ngrams_zero_panics() {
        let _ = char_ngrams("abc", 0);
    }
}
