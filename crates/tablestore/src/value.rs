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
        match self {
            Value::Null => "".into(),
            Value::Text(s) => s.as_str().into(),
            Value::Int(i) => i.to_string().into(),
            Value::Float(x) => format_float(*x).into(),
            Value::Bool(b) => if *b { "true" } else { "false" }.into(),
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
    out.trim_end().to_string()
}

fn format_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_text())
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
    fn float_formatting_stable() {
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Float(3.25).to_string(), "3.25");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
