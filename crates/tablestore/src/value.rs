//! Dynamically typed cell values.

use std::fmt;

/// A single cell value in a table.
///
/// Values are dynamically typed because data-lake tables are messy: the same
/// column can hold text and numbers, and missing values are first-class
/// ([`Value::Null`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// A missing value. Displayed as an empty string.
    #[default]
    Null,
    /// A text value.
    Text(String),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// True if this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Renders the value as a plain string (empty for null).
    ///
    /// Unlike `to_string` this avoids allocating for text values it can
    /// borrow; use it in hot paths.
    pub fn as_text(&self) -> std::borrow::Cow<'_, str> {
        match self.as_cell() {
            CellRef::Null => "".into(),
            CellRef::Text(s) => s.into(),
            CellRef::Bool(b) => if b { "true" } else { "false" }.into(),
            cell => cell.to_string().into(),
        }
    }

    /// Interprets the value as a float if possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Text(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Parses a string into the most specific value type.
    ///
    /// Empty / whitespace strings parse to [`Value::Null`].
    ///
    /// # Examples
    ///
    /// ```
    /// use unidm_tablestore::Value;
    /// assert_eq!(Value::parse("42"), Value::Int(42));
    /// assert_eq!(Value::parse("3.5"), Value::Float(3.5));
    /// assert_eq!(Value::parse(""), Value::Null);
    /// assert_eq!(Value::parse("Copenhagen"), Value::text("Copenhagen"));
    /// ```
    pub fn parse(s: &str) -> Value {
        let t = s.trim();
        if t.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(x) = t.parse::<f64>() {
            if x.is_finite() {
                return Value::Float(x);
            }
        }
        match t {
            "true" | "TRUE" | "True" => Value::Bool(true),
            "false" | "FALSE" | "False" => Value::Bool(false),
            _ => Value::Text(t.to_string()),
        }
    }

    /// Case- and punctuation-insensitive comparison key used to judge whether
    /// a model answer matches ground truth.
    pub fn answer_key(&self) -> String {
        match self {
            Value::Float(x) => format_float(*x),
            v => canonical_key(&v.as_text()),
        }
    }
}

pub(crate) fn canonical_key(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.trim().chars() {
        if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    // Separators collapse and a lowercased letter is no space, so at most
    // one trailing separator is left to drop.
    if last_space {
        out.pop();
    }
    out
}

fn format_float(x: f64) -> String {
    CellRef::Float(x).to_string()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_cell().fmt(f)
    }
}

impl Value {
    /// The value as a borrowed cell: text is lent, not copied.
    pub fn as_cell(&self) -> CellRef<'_> {
        match self {
            Value::Null => CellRef::Null,
            Value::Text(s) => CellRef::Text(s),
            &Value::Int(i) => CellRef::Int(i),
            &Value::Float(x) => CellRef::Float(x),
            &Value::Bool(b) => CellRef::Bool(b),
        }
    }
}

/// A cell lent by its table: dictionary or value text as `&str`, numbers
/// and booleans by value. It displays exactly as the [`Value`] it stands
/// for, and [`Value::from`] makes that value when one must be owned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRef<'a> {
    /// A missing value. Displayed as an empty string.
    Null,
    /// A text value.
    Text(&'a str),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl CellRef<'_> {
    /// True when the cell displays as nothing: null or empty text.
    pub fn is_empty(&self) -> bool {
        matches!(self, CellRef::Null | CellRef::Text(""))
    }
}

impl fmt::Display for CellRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CellRef::Null => Ok(()),
            CellRef::Text(s) => f.write_str(s),
            CellRef::Int(i) => write!(f, "{i}"),
            CellRef::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            CellRef::Float(x) => write!(f, "{x}"),
            CellRef::Bool(b) => f.write_str(if b { "true" } else { "false" }),
        }
    }
}

impl From<CellRef<'_>> for Value {
    fn from(cell: CellRef<'_>) -> Self {
        match cell {
            CellRef::Null => Value::Null,
            CellRef::Text(s) => Value::text(s),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(x) => Value::Float(x),
            CellRef::Bool(b) => Value::Bool(b),
        }
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_types() {
        assert_eq!(Value::parse("7"), Value::Int(7));
        assert_eq!(Value::parse("-3"), Value::Int(-3));
        assert_eq!(Value::parse("2.25"), Value::Float(2.25));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("  "), Value::Null);
        assert_eq!(Value::parse("10.0.0.1"), Value::text("10.0.0.1"));
    }

    #[test]
    fn display_null_empty() {
        assert_eq!(Value::Null.to_string(), "");
        assert!(Value::Null.is_null());
    }

    #[test]
    fn as_f64_variants() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::text("1.5").as_f64(), Some(1.5));
        assert_eq!(Value::text("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn answer_key_canonicalises() {
        assert_eq!(Value::text("Beverly Hills.").answer_key(), "beverly hills");
        assert_eq!(Value::text("BEVERLY  HILLS").answer_key(), "beverly hills");
        assert_eq!(Value::Int(42).answer_key(), "42");
    }

    #[test]
    fn canonical_key_matches_the_char_by_char_fold() {
        let fold = |s: &str| {
            let mut out = String::new();
            let mut last_space = true;
            for ch in s.trim().chars() {
                if ch.is_alphanumeric() {
                    out.extend(ch.to_lowercase());
                    last_space = false;
                } else if !last_space {
                    out.push(' ');
                    last_space = true;
                }
            }
            out.trim_end().to_string()
        };
        for s in [
            "",
            "  ",
            ".",
            "Beverly Hills.",
            "BEVERLY  HILLS",
            " a-b_c ",
            "x..",
            "..x..",
            "İstanbul",
            "ΣΊΣΥΦΟΣ",
            "Straße 12!",
            "日本 語",
            "Ǆemal\u{2003}",
            "a\u{a0}",
        ] {
            assert_eq!(canonical_key(s), fold(s), "{s:?}");
        }
    }

    #[test]
    fn float_formatting_stable() {
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Float(3.25).to_string(), "3.25");
    }

    #[test]
    fn a_cell_displays_as_its_value_and_converts_back() {
        for v in [
            Value::Null,
            Value::text(""),
            Value::text("Florence"),
            Value::Int(-42),
            Value::Float(3.0),
            Value::Float(3.25),
            Value::Float(1e15),
            Value::Float(f64::NAN),
            Value::Bool(false),
        ] {
            let cell = v.as_cell();
            assert_eq!(cell.to_string(), v.as_text(), "{v:?}");
            assert_eq!(cell.is_empty(), v.to_string().is_empty(), "{v:?}");
            if !matches!(v, Value::Float(x) if x.is_nan()) {
                assert_eq!(Value::from(cell), v);
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
