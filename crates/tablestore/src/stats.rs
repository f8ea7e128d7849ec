//! Per-column statistics.
//!
//! These drive the statistics-based baselines (HoloClean's co-occurrence
//! repair, CMI's clustering) and the error-detection generators.

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
            s.total += 1;
            if v.is_null() {
                s.nulls += 1;
            } else {
                *s.counts.entry(v.answer_key()).or_insert(0) += 1;
            }
        }
        s
    }

    /// Starts statistics with known totals and no value counts yet — the
    /// chunk-side fast path that counts dictionary codes before folding
    /// them into answer-key buckets.
    pub fn with_counts(total: usize, nulls: usize) -> Self {
        ColumnStats {
            counts: HashMap::new(),
            nulls,
            total,
        }
    }

    /// Adds `n` occurrences of an already-computed answer key (does not
    /// touch the totals — pair with [`ColumnStats::with_counts`]).
    pub fn add_key(&mut self, key: String, n: usize) {
        *self.counts.entry(key).or_insert(0) += n;
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

    /// Takes one value back out of the statistics: the inverse of
    /// [`ColumnStats::accumulate`] for a value that was accumulated.
    pub(crate) fn retract(&mut self, v: &Value) {
        self.total -= 1;
        if v.is_null() {
            self.nulls -= 1;
            return;
        }
        let key = v.answer_key();
        let n = self
            .counts
            .get_mut(&key)
            .expect("retracted value was counted");
        *n -= 1;
        if *n == 0 {
            self.counts.remove(&key);
        }
    }

    /// Merges another column's statistics into this one — the per-chunk
    /// fold behind [`Table::column_stats`]: chunk statistics are computed
    /// once at ingest and summed here instead of rescanning the column.
    ///
    /// [`Table::column_stats`]: crate::Table::column_stats
    pub fn merge(&mut self, other: &ColumnStats) {
        self.total += other.total;
        self.nulls += other.nulls;
        for (key, n) in &other.counts {
            *self.counts.entry(key.clone()).or_insert(0) += n;
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

    /// Relative frequency of `value` among non-null cells, in `[0, 1]`.
    pub fn frequency(&self, value: &Value) -> f64 {
        let non_null = self.total - self.nulls;
        if non_null == 0 {
            return 0.0;
        }
        self.count(value) as f64 / non_null as f64
    }

    /// The most frequent value key, ties broken lexicographically.
    pub fn mode(&self) -> Option<&str> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(k, _)| k.as_str())
    }

    /// All (value key, count) pairs sorted by descending count then key.
    pub fn sorted_counts(&self) -> Vec<(&str, usize)> {
        let mut v: Vec<(&str, usize)> = self.counts.iter().map(|(k, c)| (k.as_str(), *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
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
    fn frequency_excludes_nulls() {
        let s = stats();
        assert!((s.frequency(&Value::text("gmt")) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mode_majority() {
        let s = stats();
        assert_eq!(s.mode(), Some("cet"));
    }

    #[test]
    fn sorted_counts_order() {
        let s = stats();
        let sc = s.sorted_counts();
        assert_eq!(sc[0], ("cet", 3));
        assert_eq!(sc[1], ("gmt", 1));
    }

    #[test]
    fn merge_equals_whole_column_compute() {
        let a = [Value::text("CET"), Value::text("GMT"), Value::Null];
        let b = [Value::text("cet"), Value::Int(3)];
        let mut merged = ColumnStats::compute(a.iter());
        merged.merge(&ColumnStats::compute(b.iter()));
        let whole = ColumnStats::compute(a.iter().chain(b.iter()));
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.null_count(), whole.null_count());
        assert_eq!(merged.sorted_counts(), whole.sorted_counts());
    }

    #[test]
    fn accumulate_matches_compute() {
        let vals = [Value::text("x"), Value::Null, Value::text("X")];
        let mut acc = ColumnStats::default();
        for v in &vals {
            acc.accumulate(v);
        }
        let whole = ColumnStats::compute(vals.iter());
        assert_eq!(acc.sorted_counts(), whole.sorted_counts());
        assert_eq!(acc.total(), whole.total());
        assert_eq!(acc.null_count(), whole.null_count());
    }

    #[test]
    fn empty_column() {
        let s = ColumnStats::compute(std::iter::empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.mode(), None);
        assert_eq!(s.frequency(&Value::text("x")), 0.0);
    }
}
