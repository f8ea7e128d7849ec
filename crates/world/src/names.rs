//! Deterministic name generators.
//!
//! Synthetic entities need plausible names so that lexical baselines behave
//! realistically: shared prefixes inside a product family, typo-prone city
//! names, street names that repeat across cities. All generators are pure
//! functions of an [`rand::Rng`], so worlds are reproducible from a seed.

use rand::seq::SliceRandom;
use rand::Rng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "kl", "l", "m", "n", "p",
    "pr", "qu", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ia", "io", "ou"];
const CODAS: &[&str] = &[
    "", "n", "r", "s", "l", "m", "nd", "rt", "st", "ck", "th", "x", "ss", "ng",
];

/// Generates a pronounceable lowercase word of `syllables` syllables.
pub fn word<R: Rng>(rng: &mut R, syllables: usize) -> String {
    let mut out = String::new();
    for i in 0..syllables.max(1) {
        out.push_str(ONSETS.choose(rng).expect("non-empty"));
        out.push_str(VOWELS.choose(rng).expect("non-empty"));
        // Codas only at the last syllable keep words pronounceable.
        if i + 1 == syllables {
            out.push_str(CODAS.choose(rng).expect("non-empty"));
        }
    }
    out
}

/// Generates a capitalised proper noun of 2–3 syllables.
pub fn proper<R: Rng>(rng: &mut R) -> String {
    let syl = rng.gen_range(2..=3);
    capitalize(&word(rng, syl))
}

/// Capitalises the first letter of each whitespace-separated word.
pub fn capitalize(s: &str) -> String {
    s.split_whitespace()
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Kevin",
    "Karen",
    "Marcus",
    "Elena",
    "Dirk",
    "Magda",
    "Yao",
    "Lena",
    "Omar",
    "Nina",
    "Pavel",
    "Ingrid",
];

const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Anderson",
    "Taylor",
    "Thomas",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Walker",
    "Hall",
    "Young",
    "Novak",
    "Petrov",
    "Larsen",
    "Okafor",
    "Tanaka",
    "Costa",
    "Weber",
    "Rossi",
    "Dubois",
    "Kim",
];

/// Generates a person name ("First Last").
pub fn person<R: Rng>(rng: &mut R) -> String {
    let mut name = String::new();
    person_into(rng, &mut name);
    name
}

/// Appends the name [`person`] would draw to `out` (the same draws), so a
/// caller generating many names can reuse one buffer.
pub fn person_into<R: Rng>(rng: &mut R, out: &mut String) {
    out.push_str(FIRST_NAMES.choose(rng).expect("non-empty"));
    out.push(' ');
    out.push_str(LAST_NAMES.choose(rng).expect("non-empty"));
}

const STREET_KINDS: &[&str] = &["St.", "Ave.", "Blvd.", "Dr.", "Rd.", "Ln.", "Way"];

/// Generates a street name like "3109 Piedmont Rd.".
pub fn street<R: Rng>(rng: &mut R) -> String {
    let number = rng.gen_range(1..9999);
    let name = proper(rng);
    let kind = STREET_KINDS.choose(rng).expect("non-empty");
    format!("{number} {name} {kind}")
}

/// The street's base name without the house number ("Piedmont Rd.").
pub fn street_base(street: &str) -> String {
    street
        .split_whitespace()
        .skip(1)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generates a US-style phone number with the given area code.
pub fn phone<R: Rng>(rng: &mut R, area: u16) -> String {
    format!(
        "{area}/{:03}-{:04}",
        rng.gen_range(200..999),
        rng.gen_range(0..9999)
    )
}

/// Characters used as typo substitutions (varied, so identical corruptions
/// of the same source value stay rare).
const TYPO_CHARS: &[char] = &['x', 'q', 'z', 'k', 'v', 'j'];

/// Injects a single-character typo into `s` (substitution mid-word).
///
/// Returns the original string unchanged when it has no alphabetic character.
pub fn typo<R: Rng>(rng: &mut R, s: &str) -> String {
    let positions: Vec<usize> = s
        .char_indices()
        .filter(|(_, c)| c.is_alphabetic())
        .map(|(i, _)| i)
        .collect();
    if positions.is_empty() {
        return s.to_string();
    }
    let pos = *positions[positions.len() / 3..]
        .first()
        .unwrap_or(&positions[0]);
    let pos = if positions.len() > 2 {
        positions[rng.gen_range(1..positions.len() - 1)]
    } else {
        pos
    };
    let mut out = String::with_capacity(s.len());
    let replacement = loop {
        let c = *TYPO_CHARS.choose(rng).expect("non-empty");
        if s[pos..]
            .chars()
            .next()
            .is_some_and(|orig| !orig.eq_ignore_ascii_case(&c))
        {
            break c;
        }
    };
    for (i, c) in s.char_indices() {
        if i == pos {
            out.push(replacement);
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn word_deterministic() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(word(&mut a, 2), word(&mut b, 2));
    }

    #[test]
    fn word_nonempty() {
        let mut rng = StdRng::seed_from_u64(1);
        for syl in 1..4 {
            assert!(!word(&mut rng, syl).is_empty());
        }
    }

    #[test]
    fn proper_capitalised() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = proper(&mut rng);
        assert!(p.chars().next().unwrap().is_uppercase());
    }

    #[test]
    fn person_two_words() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(person(&mut rng).split_whitespace().count(), 2);
    }

    #[test]
    fn street_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = street(&mut rng);
        let first = s.split_whitespace().next().unwrap();
        assert!(first.parse::<u32>().is_ok());
        assert!(street_base(&s).split_whitespace().count() >= 2);
    }

    #[test]
    fn phone_format() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = phone(&mut rng, 310);
        assert!(p.starts_with("310/"));
        assert_eq!(p.len(), "310/123-4567".len());
    }

    #[test]
    fn typo_changes_one_char() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = typo(&mut rng, "marshall");
        assert_eq!(t.len(), "marshall".len());
        assert_ne!(t, "marshall");
        let diff = t
            .chars()
            .zip("marshall".chars())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn typo_handles_empty_and_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(typo(&mut rng, ""), "");
        assert_eq!(typo(&mut rng, "12345"), "12345");
    }

    #[test]
    fn capitalize_multiword() {
        assert_eq!(capitalize("los angeles"), "Los Angeles");
    }
}
