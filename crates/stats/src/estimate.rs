//! Selectivity arithmetic: how the planner turns statistics into
//! cardinalities.
//!
//! Deliberately textbook — including the attribute-value-independence
//! assumption that the paper calls out as a root cause of mis-estimation
//! ("commercial database management systems often assume uniform data
//! distributions and attribute value independence, which is in reality
//! hardly the case", Section I). Multi-predicate estimates multiply
//! per-column selectivities; correlated predicates therefore get badly
//! underestimated, which is exactly the behaviour the Fig. 1 experiment
//! needs to reproduce.

use std::ops::Bound;

use crate::table::TableStats;

/// A range predicate on one integer-like column: `lo <= col <= hi` with
/// arbitrary open/closed/unbounded ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePredicate {
    /// Column ordinal in the table schema.
    pub column: usize,
    /// Lower bound.
    pub lo: Bound<i64>,
    /// Upper bound.
    pub hi: Bound<i64>,
}

impl RangePredicate {
    /// `col >= lo AND col < hi` — the micro-benchmark's predicate shape.
    pub fn half_open(column: usize, lo: i64, hi: i64) -> Self {
        RangePredicate { column, lo: Bound::Included(lo), hi: Bound::Excluded(hi) }
    }

    /// `col = key`.
    pub fn point(column: usize, key: i64) -> Self {
        RangePredicate { column, lo: Bound::Included(key), hi: Bound::Included(key) }
    }

    /// Whether a concrete value satisfies the predicate.
    pub fn matches(&self, v: i64) -> bool {
        (match self.lo {
            Bound::Unbounded => true,
            Bound::Included(l) => v >= l,
            Bound::Excluded(l) => v > l,
        }) && (match self.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => v <= h,
            Bound::Excluded(h) => v < h,
        })
    }
}

/// Default selectivity when a column has no statistics (PostgreSQL uses
/// 1/3 for inequalities and 0.005 for equality; we take the range figure).
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated fraction of rows matching one range predicate.
pub fn range_fraction(stats: &TableStats, pred: &RangePredicate) -> f64 {
    match stats.column(pred.column) {
        Some(col) => {
            let point =
                matches!((pred.lo, pred.hi), (Bound::Included(a), Bound::Included(b)) if a == b);
            if point {
                if let Bound::Included(k) = pred.lo {
                    return col.eq_selectivity(k);
                }
            }
            col.range_selectivity(pred.lo, pred.hi)
        }
        None => DEFAULT_RANGE_SELECTIVITY,
    }
}

/// Estimated fraction of rows matching *all* predicates, under attribute
/// value independence (selectivities multiply).
pub fn conjunction_fraction(stats: &TableStats, preds: &[RangePredicate]) -> f64 {
    preds.iter().map(|p| range_fraction(stats, p)).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::HeapLoader;
    use smooth_types::{Column, DataType, Row, Schema, Value};

    fn correlated_table() -> TableStats {
        // c1 uniform over [0,100); c2 == c1 (perfectly correlated).
        let schema = Schema::new(vec![
            Column::new("c1", DataType::Int64),
            Column::new("c2", DataType::Int64),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..10_000i64 {
            let v = i % 100;
            l.push(&Row::new(vec![Value::Int(v), Value::Int(v)])).unwrap();
        }
        TableStats::analyze(&l.finish().unwrap()).unwrap()
    }

    #[test]
    fn matches_checks_bounds() {
        let p = RangePredicate::half_open(0, 10, 20);
        assert!(p.matches(10) && p.matches(19));
        assert!(!p.matches(20) && !p.matches(9));
        let q = RangePredicate::point(0, 5);
        assert!(q.matches(5) && !q.matches(6));
    }

    #[test]
    fn independence_underestimates_correlated_conjunctions() {
        let stats = correlated_table();
        let p1 = RangePredicate::half_open(0, 0, 10); // true sel 0.1
        let p2 = RangePredicate::half_open(1, 0, 10); // true sel 0.1, same rows!
        let est = conjunction_fraction(&stats, &[p1, p2]);
        // True fraction is 0.10; independence predicts ~0.01. This gap is
        // the engine of the paper's Fig. 1 mis-estimations.
        assert!(est < 0.02, "{est}");
    }

    #[test]
    fn missing_stats_fall_back_to_default() {
        let stats = correlated_table();
        let p = RangePredicate::half_open(7, 0, 1); // no such column analyzed
        assert_eq!(range_fraction(&stats, &p), DEFAULT_RANGE_SELECTIVITY);
    }

    #[test]
    fn point_predicates_use_distinct_model() {
        let stats = correlated_table();
        let f = range_fraction(&stats, &RangePredicate::point(0, 50));
        assert!((f - 0.01).abs() < 0.005, "{f}");
    }
}
