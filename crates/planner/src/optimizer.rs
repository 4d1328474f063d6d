//! The optimizer: selectivity estimation → cost model → plan choice.
//!
//! Textbook System-R style, on purpose: the estimates come from the
//! (possibly damaged) statistics in the catalog, the costs from the
//! Section-V model. "Even a small estimation error may lead to a
//! drastically different result in terms of performance" (Section I) — the
//! mechanism below is faithful enough to reproduce that: the Full-vs-Index
//! tipping point sits at a fraction of a percent of selectivity, so a
//! correlation-blind estimate flips plans exactly like DBMS-X in Fig. 1.

use smooth_core::{CostModel, TableGeometry};
use smooth_executor::Predicate;
use smooth_stats::{RangePredicate, StaleCatalog, StatsQuality};
use smooth_storage::DeviceProfile;

use crate::catalog::{Catalog, TableEntry};
use crate::plan::{JoinStrategy, LogicalPlan};

/// The access path the optimizer picked for a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPathKind {
    /// Sequential scan of the heap.
    FullScan,
    /// Non-clustered B+-tree scan.
    IndexScan,
    /// Bitmap (sort) scan.
    SortScan,
}

/// Stateless planning routines over a catalog.
pub struct Optimizer;

/// Default selectivity for predicates the statistics cannot price
/// (matches `smooth_stats::estimate::DEFAULT_RANGE_SELECTIVITY`).
const DEFAULT_SEL: f64 = 1.0 / 3.0;

impl Optimizer {
    /// Collect the pieces of a conjunction the statistics can price.
    /// Returns the priceable range predicates and the count of opaque
    /// conjuncts (string predicates, disjunctions, ...).
    fn collect_ranges(pred: &Predicate, out: &mut Vec<RangePredicate>) -> usize {
        match pred {
            Predicate::True => 0,
            Predicate::IntRange { col, lo, hi } => {
                out.push(RangePredicate { column: *col, lo: *lo, hi: *hi });
                0
            }
            Predicate::And(ps) => ps.iter().map(|p| Self::collect_ranges(p, out)).sum(),
            _ => 1,
        }
    }

    /// Estimated selectivity of a predicate under the table's statistics
    /// quality.
    pub fn estimate_selectivity(stats: &StaleCatalog, pred: &Predicate) -> f64 {
        let mut ranges = Vec::new();
        let opaque = Self::collect_ranges(pred, &mut ranges);
        let base = stats.estimated_selectivity(&ranges);
        match stats.quality() {
            // A pinned estimate is already a final answer.
            StatsQuality::FixedCardinality(_) => base,
            _ => base * DEFAULT_SEL.powi(opaque as i32),
        }
    }

    /// Estimated result cardinality for a scan.
    pub fn estimate_scan_rows(entry: &TableEntry, pred: &Predicate) -> f64 {
        Self::estimate_selectivity(&entry.stats, pred) * entry.stats.honest().row_count as f64
    }

    /// The cost model for a table on a device.
    pub fn cost_model(entry: &TableEntry, device: DeviceProfile) -> CostModel {
        let width = entry.heap.schema().estimated_tuple_width(16) as u64;
        CostModel::new(TableGeometry::new(width.max(1), entry.heap.tuple_count().max(1)), device)
    }

    /// Choose the access path for an `Auto` scan: price Full, Index and
    /// Sort Scan at the *estimated* cardinality and take the cheapest.
    /// `ordered` adds a posterior-sort penalty to the order-destroying
    /// paths (Section II).
    pub fn choose_access_path(
        entry: &TableEntry,
        pred: &Predicate,
        ordered: bool,
        device: DeviceProfile,
    ) -> AccessPathKind {
        let indexed_range =
            pred.split_index_range().filter(|(col, _, _, _)| entry.index_on(*col).is_some());
        if indexed_range.is_none() {
            return AccessPathKind::FullScan;
        }
        let model = Self::cost_model(entry, device);
        let est_rows = Self::estimate_scan_rows(entry, pred).max(0.0);
        let card = est_rows.round() as u64;
        // Posterior sort: n log n comparisons at the default 30 ns.
        let sort_penalty =
            if ordered && card > 1 { 30.0 * est_rows * est_rows.log2().max(1.0) } else { 0.0 };
        let full = model.fs_cost_ns() + sort_penalty;
        let index = model.is_cost_ns(card);
        let tid_sort = if card > 1 { 30.0 * est_rows * est_rows.log2().max(1.0) } else { 0.0 };
        let sort = model.sort_scan_cost_ns(card) + tid_sort + sort_penalty;
        if index <= full && index <= sort {
            AccessPathKind::IndexScan
        } else if sort <= full {
            AccessPathKind::SortScan
        } else {
            AccessPathKind::FullScan
        }
    }

    /// Estimated output rows of an arbitrary plan (used for join-strategy
    /// choices). Coarse on purpose — real optimizers are too.
    pub fn estimate_rows(catalog: &Catalog, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan(spec) => match catalog.get(&spec.table) {
                Ok(entry) => Self::estimate_scan_rows(entry, &spec.predicate),
                Err(_) => 0.0,
            },
            LogicalPlan::Join(spec) => {
                let l = Self::estimate_rows(catalog, &spec.left);
                let r = Self::estimate_rows(catalog, &spec.right);
                // Assume a PK-FK equi-join: output ≈ the larger input's
                // qualifying fraction.
                l.max(r).max(1.0).min(l * r)
            }
            LogicalPlan::Aggregate { input, group_cols, .. } => {
                if group_cols.is_empty() {
                    1.0
                } else {
                    Self::estimate_rows(catalog, input).sqrt().max(1.0)
                }
            }
            LogicalPlan::Sort { input, .. } | LogicalPlan::Project { input, .. } => {
                Self::estimate_rows(catalog, input)
            }
            LogicalPlan::Filter { input, .. } => {
                // Opaque filter: apply the default selectivity.
                Self::estimate_rows(catalog, input) * DEFAULT_SEL
            }
        }
    }

    /// Choose between hash and index-nested-loop for an `Auto` join: INLJ
    /// wins when the *estimated* outer cardinality times the per-probe
    /// random cost undercuts scanning the inner table once. An
    /// underestimated outer flips this the wrong way — the Fig. 1 engine.
    pub fn choose_join_strategy(
        catalog: &Catalog,
        left: &LogicalPlan,
        right: &LogicalPlan,
        right_col: usize,
        device: DeviceProfile,
    ) -> JoinStrategy {
        // INLJ is only possible when the inner is a base scan with an
        // index on the join column.
        let LogicalPlan::Scan(rspec) = right else { return JoinStrategy::Hash };
        let Ok(rentry) = catalog.get(&rspec.table) else { return JoinStrategy::Hash };
        if rspec.table_col(right_col).and_then(|key| rentry.index_on(key)).is_none() {
            return JoinStrategy::Hash;
        }
        let outer_rows = Self::estimate_rows(catalog, left);
        let model = Self::cost_model(rentry, device);
        let probes =
            outer_rows * (model.geometry.height() as f64 + 1.0) * device.rand_page_ns as f64;
        let build = model.fs_cost_ns();
        if probes < build {
            JoinStrategy::IndexNestedLoop
        } else {
            JoinStrategy::Hash
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::HeapLoader;
    use smooth_types::{Column, DataType, Row, Schema, Value};

    fn catalog(rows: i64) -> Catalog {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            l.push(&Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10_000),
                Value::str("x".repeat(60)),
            ]))
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(Arc::new(l.finish().unwrap())).unwrap();
        c.create_index("t", 1, "t_c1").unwrap();
        c
    }

    use std::sync::Arc;

    #[test]
    fn narrow_predicates_pick_the_index_wide_ones_the_full_scan() {
        let c = catalog(100_000);
        let e = c.get("t").unwrap();
        let hdd = DeviceProfile::hdd();
        let narrow = Predicate::int_eq(1, 5); // ~10 rows (0.01%)
        let choice = Optimizer::choose_access_path(e, &narrow, false, hdd);
        assert_ne!(choice, AccessPathKind::FullScan);
        let wide = Predicate::int_half_open(1, 0, 9000); // 90%
        let choice = Optimizer::choose_access_path(e, &wide, false, hdd);
        assert_eq!(choice, AccessPathKind::FullScan);
    }

    #[test]
    fn no_index_means_full_scan() {
        let c = catalog(10_000);
        let e = c.get("t").unwrap();
        let pred = Predicate::int_eq(0, 5); // c0 has no index
        assert_eq!(
            Optimizer::choose_access_path(e, &pred, false, DeviceProfile::hdd()),
            AccessPathKind::FullScan
        );
    }

    #[test]
    fn stale_stats_flip_the_choice() {
        let mut c = catalog(100_000);
        let e = c.get("t").unwrap();
        let hdd = DeviceProfile::hdd();
        let wide = Predicate::int_half_open(1, 0, 9000); // truly 90%
        assert_eq!(Optimizer::choose_access_path(e, &wide, false, hdd), AccessPathKind::FullScan);
        // Damage: the optimizer believes almost nothing qualifies.
        c.set_stats_quality("t", smooth_stats::StatsQuality::FixedCardinality(10)).unwrap();
        let e = c.get("t").unwrap();
        let choice = Optimizer::choose_access_path(e, &wide, false, hdd);
        assert_ne!(
            choice,
            AccessPathKind::FullScan,
            "underestimation must flip to an index-based path"
        );
    }

    #[test]
    fn join_strategy_flips_with_outer_estimate() {
        let mut c = catalog(100_000);
        let hdd = DeviceProfile::hdd();
        let outer = LogicalPlan::scan(
            // ~1000 rows: enough probes that an honest optimizer hashes.
            crate::plan::ScanSpec::new("t", Predicate::int_half_open(1, 0, 1000)),
        );
        let inner = LogicalPlan::scan(crate::plan::ScanSpec::new("t", Predicate::True));
        // With honest statistics, ~100 random probes against a ~400-page
        // inner lose to one sequential pass: hash join.
        assert_eq!(Optimizer::choose_join_strategy(&c, &outer, &inner, 1, hdd), JoinStrategy::Hash);
        // A correlation-blind underestimate of the outer flips the choice
        // to index-nested-loop — the Fig. 1 / Q12 failure mode.
        c.set_stats_quality("t", smooth_stats::StatsQuality::FixedCardinality(5)).unwrap();
        assert_eq!(
            Optimizer::choose_join_strategy(&c, &outer, &inner, 1, hdd),
            JoinStrategy::IndexNestedLoop
        );
        // No index on the join column → hash regardless.
        assert_eq!(Optimizer::choose_join_strategy(&c, &outer, &inner, 0, hdd), JoinStrategy::Hash);
    }
}
