//! Per-column statistics.

use std::collections::HashSet;
use std::ops::Bound;

use crate::histogram::EquiDepthHistogram;

/// Statistics for one (integer-like) column: min/max, distinct count, null
/// fraction and an equi-depth histogram.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Smallest non-null value (None when all-null or empty).
    pub min: Option<i64>,
    /// Largest non-null value.
    pub max: Option<i64>,
    /// Number of distinct non-null values (exact at analysis time).
    pub distinct: u64,
    /// Fraction of NULLs among all rows.
    pub null_fraction: f64,
    histogram: EquiDepthHistogram,
}

/// Histogram resolution (PostgreSQL's `default_statistics_target`
/// is 100; we keep the same order of magnitude).
pub const DEFAULT_BUCKETS: usize = 100;

impl ColumnStats {
    /// Analyze a column from its non-null values and the total row count.
    pub fn analyze(values: &[i64], total_rows: u64) -> Self {
        let distinct = values.iter().collect::<HashSet<_>>().len() as u64;
        let null_fraction =
            if total_rows == 0 { 0.0 } else { 1.0 - values.len() as f64 / total_rows as f64 };
        ColumnStats {
            min: values.iter().min().copied(),
            max: values.iter().max().copied(),
            distinct,
            null_fraction: null_fraction.clamp(0.0, 1.0),
            histogram: EquiDepthHistogram::build(values, DEFAULT_BUCKETS),
        }
    }

    /// Estimated fraction of *all rows* whose value falls in the range
    /// (NULLs never qualify).
    pub fn range_selectivity(&self, lo: Bound<i64>, hi: Bound<i64>) -> f64 {
        self.histogram.range_fraction(lo, hi) * (1.0 - self.null_fraction)
    }

    /// Estimated fraction of all rows equal to `key` (uniform-per-distinct
    /// assumption when the histogram bucket is coarse).
    pub fn eq_selectivity(&self, key: i64) -> f64 {
        if self.distinct == 0 {
            return 0.0;
        }
        let by_histogram = self.range_selectivity(Bound::Included(key), Bound::Included(key));
        let by_distinct = (1.0 - self.null_fraction) / self.distinct as f64;
        // The histogram may smear a point lookup over a wide bucket; the
        // distinct-count model is usually tighter for point predicates.
        by_histogram.min(by_distinct.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_computes_summary() {
        let vals: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let s = ColumnStats::analyze(&vals, 1000);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(99));
        assert_eq!(s.distinct, 100);
        assert_eq!(s.null_fraction, 0.0);
    }

    #[test]
    fn null_fraction_discounts_selectivity() {
        let vals: Vec<i64> = (0..500).collect();
        let s = ColumnStats::analyze(&vals, 1000); // half the rows NULL
        assert!((s.null_fraction - 0.5).abs() < 1e-9);
        let f = s.range_selectivity(Bound::Unbounded, Bound::Unbounded);
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_uses_distinct_count() {
        let vals: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
        let s = ColumnStats::analyze(&vals, 10_000);
        let f = s.eq_selectivity(42);
        assert!((f - 0.01).abs() < 0.005, "{f}");
        assert_eq!(ColumnStats::analyze(&[], 0).eq_selectivity(1), 0.0);
    }

    #[test]
    fn all_null_column() {
        let s = ColumnStats::analyze(&[], 100);
        assert_eq!(s.min, None);
        assert!((s.null_fraction - 1.0).abs() < 1e-9);
        assert_eq!(s.range_selectivity(Bound::Unbounded, Bound::Unbounded), 0.0);
    }
}
