//! Per-column statistics.
//!
//! These drive the statistics-based baselines (HoloClean's co-occurrence
//! repair, CMI's clustering), which read them through
//! [`Table::column_stats`].
//!
//! [`Table::column_stats`]: crate::Table::column_stats

use std::collections::HashMap;

use crate::Value;

/// Frequency statistics over one column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStats {
    counts: HashMap<String, usize>,
    nulls: usize,
    total: usize,
}

impl ColumnStats {
    /// Computes statistics from an iterator of values.
    pub fn compute<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut s = ColumnStats::default();
        for v in values {
            s.accumulate(v);
        }
        s
    }

    /// Folds one more value into the statistics.
    pub fn accumulate(&mut self, v: &Value) {
        self.total += 1;
        if v.is_null() {
            self.nulls += 1;
        } else {
            *self.counts.entry(v.answer_key()).or_insert(0) += 1;
        }
    }

    /// Total number of cells seen (including nulls).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Number of distinct non-null values (by answer key).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Occurrences of `value` (by answer key).
    pub fn count(&self, value: &Value) -> usize {
        self.counts.get(&value.answer_key()).copied().unwrap_or(0)
    }

    /// The most frequent value key, ties broken lexicographically.
    pub fn mode(&self) -> Option<&str> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(k, _)| k.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ColumnStats {
        let vals = [
            Value::text("CET"),
            Value::text("CET"),
            Value::text("cet"),
            Value::text("GMT"),
            Value::Null,
        ];
        ColumnStats::compute(vals.iter())
    }

    #[test]
    fn counts_case_insensitive() {
        let s = stats();
        assert_eq!(s.total(), 5);
        assert_eq!(s.null_count(), 1);
        assert_eq!(s.distinct(), 2);
        assert_eq!(s.count(&Value::text("CET")), 3);
    }

    #[test]
    fn mode_majority() {
        let s = stats();
        assert_eq!(s.mode(), Some("cet"));
    }

    #[test]
    fn accumulate_matches_compute() {
        let vals = [Value::text("x"), Value::Null, Value::text("X")];
        let mut acc = ColumnStats::default();
        for v in &vals {
            acc.accumulate(v);
        }
        assert_eq!((acc.total(), acc.null_count(), acc.distinct()), (3, 1, 1));
        assert_eq!(acc.count(&Value::text("x")), 2);
        assert_eq!(acc, ColumnStats::compute(vals.iter()));
    }

    #[test]
    fn empty_column() {
        let s = ColumnStats::compute(std::iter::empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.mode(), None);
        assert_eq!(s.count(&Value::text("x")), 0);
    }
}
