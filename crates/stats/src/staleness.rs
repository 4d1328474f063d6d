//! Staleness injection: manufacturing the estimation errors the paper
//! studies.
//!
//! The experiments need an optimizer that is *wrong in controlled ways*:
//! Fig. 7b's Optimizer-Driven trigger fires when "the result cardinality
//! exceeds the optimizer's estimate (15 K tuples)"; Fig. 11's Switch Scan
//! (Smooth Scan under the Switch trigger) flips at a 32 K-tuple estimate;
//! Fig. 1's tuned DBMS-X picks index plans off correlation-blind
//! underestimates. [`StatsQuality`] describes how an estimate is damaged,
//! and [`StaleCatalog`] applies it on top of honest [`TableStats`].

use crate::estimate::{conjunction_fraction, RangePredicate};
use crate::table::TableStats;

/// How trustworthy the statistics handed to the planner are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsQuality {
    /// Estimates pass through unchanged.
    Accurate,
    /// Selectivity estimates are multiplied by this factor (values < 1
    /// model correlation-blind underestimation; > 1 overestimation).
    /// The resulting fraction stays clamped to [0, 1].
    ScaledSelectivity(f64),
    /// The estimate is pinned to a fixed row count regardless of the
    /// predicate — "the optimizer's estimated cardinality is 15 K tuples".
    FixedCardinality(u64),
    /// No statistics at all: the planner falls back to default magic
    /// selectivities (uniformity assumption on an unknown domain).
    Missing,
}

/// A table-stats view with a chosen damage model applied.
#[derive(Debug, Clone)]
pub struct StaleCatalog {
    stats: TableStats,
    quality: StatsQuality,
}

impl StaleCatalog {
    /// Wrap honest statistics with a damage model.
    pub fn new(stats: TableStats, quality: StatsQuality) -> Self {
        StaleCatalog { stats, quality }
    }

    /// The underlying (honest) statistics.
    pub fn honest(&self) -> &TableStats {
        &self.stats
    }

    /// The damage model in effect.
    pub fn quality(&self) -> StatsQuality {
        self.quality
    }

    /// Change the damage model.
    pub fn set_quality(&mut self, quality: StatsQuality) {
        self.quality = quality;
    }

    /// Estimated selectivity of a conjunction of predicates, after damage.
    pub fn estimated_selectivity(&self, preds: &[RangePredicate]) -> f64 {
        let honest = conjunction_fraction(&self.stats, preds);
        match self.quality {
            StatsQuality::Accurate => honest,
            StatsQuality::ScaledSelectivity(f) => (honest * f).clamp(0.0, 1.0),
            StatsQuality::FixedCardinality(rows) => {
                if self.stats.row_count == 0 {
                    0.0
                } else {
                    (rows as f64 / self.stats.row_count as f64).clamp(0.0, 1.0)
                }
            }
            StatsQuality::Missing => {
                preds.iter().map(|_| crate::estimate::DEFAULT_RANGE_SELECTIVITY).product()
            }
        }
    }

    /// Estimated result cardinality for the predicates, after damage.
    pub fn estimated_cardinality(&self, preds: &[RangePredicate]) -> f64 {
        self.estimated_selectivity(preds) * self.stats.row_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::HeapLoader;
    use smooth_types::{Column, DataType, Row, Schema, Value};

    fn stats() -> TableStats {
        let schema = Schema::new(vec![Column::new("c", DataType::Int64)]).unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..10_000i64 {
            l.push(&Row::new(vec![Value::Int(i % 1000)])).unwrap();
        }
        TableStats::analyze(&l.finish().unwrap()).unwrap()
    }

    #[test]
    fn accurate_passes_through() {
        let cat = StaleCatalog::new(stats(), StatsQuality::Accurate);
        let p = RangePredicate::half_open(0, 0, 100); // 10%
        let est = cat.estimated_selectivity(&[p]);
        assert!((est - 0.1).abs() < 0.02, "{est}");
        assert!((cat.estimated_cardinality(&[p]) - 1000.0).abs() < 200.0);
    }

    #[test]
    fn scaling_underestimates() {
        let cat = StaleCatalog::new(stats(), StatsQuality::ScaledSelectivity(0.01));
        let p = RangePredicate::half_open(0, 0, 100);
        let est = cat.estimated_selectivity(&[p]);
        assert!(est < 0.002, "{est}");
        // and clamps at 1 for overestimation
        let cat = StaleCatalog::new(stats(), StatsQuality::ScaledSelectivity(1e9));
        assert_eq!(cat.estimated_selectivity(&[p]), 1.0);
    }

    #[test]
    fn fixed_cardinality_ignores_predicates() {
        let cat = StaleCatalog::new(stats(), StatsQuality::FixedCardinality(15_000));
        let narrow = RangePredicate::point(0, 3);
        let wide = RangePredicate::half_open(0, 0, 1000);
        assert_eq!(cat.estimated_cardinality(&[narrow]), 10_000.0); // clamped to table
        assert_eq!(cat.estimated_cardinality(&[narrow]), cat.estimated_cardinality(&[wide]));
        let cat = StaleCatalog::new(stats(), StatsQuality::FixedCardinality(32));
        assert!((cat.estimated_cardinality(&[narrow]) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn missing_stats_use_defaults() {
        let cat = StaleCatalog::new(stats(), StatsQuality::Missing);
        let p = RangePredicate::point(0, 3); // truly 0.1% of rows
        let est = cat.estimated_selectivity(&[p]);
        assert!((est - 1.0 / 3.0).abs() < 1e-9, "default magic number, got {est}");
    }
}
