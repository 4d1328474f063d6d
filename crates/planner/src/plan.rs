//! Logical plans.
//!
//! Plans are built programmatically (there is no SQL front end — the
//! paper's experiments are a fixed query set, and plan *shapes* are what
//! matters). The planner's job is the two decisions the paper studies:
//! which access path serves each scan, and which join strategy connects
//! inputs.

use smooth_core::SmoothScanConfig;
use smooth_executor::sort::SortKey;
use smooth_executor::{AggFunc, JoinType, Predicate};

/// How a scan's access path is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPathChoice {
    /// Let the optimizer pick from its (possibly stale) statistics.
    Auto,
    /// Force a full table scan.
    ForceFull,
    /// Force a (non-clustered) index scan: Smooth Scan under `Trigger::Never`.
    ForceIndex,
    /// Force a sort (bitmap) scan.
    ForceSort,
    /// Use Smooth Scan with this configuration.
    Smooth(SmoothScanConfig),
    /// Use Switch Scan (Smooth Scan under `Trigger::Switch`) with this cardinality estimate.
    Switch {
        /// Cardinality threshold at which the scan abandons the index.
        estimate: u64,
    },
}

/// One base-table scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    /// Table name.
    pub table: String,
    /// Full predicate (the planner splits an index range out of it).
    pub predicate: Predicate,
    /// Output must be ordered by the predicate's index column.
    pub ordered: bool,
    /// Access-path discipline.
    pub access: AccessPathChoice,
    /// The table columns the scan emits, strictly ascending (`None` =
    /// all). The predicate names *table* ordinals whatever is emitted.
    /// Written by [`crate::prune()`]; a hand-built plan may set it too.
    pub cols: Option<Vec<usize>>,
}

impl ScanSpec {
    /// An auto-planned scan.
    pub fn new(table: impl Into<String>, predicate: Predicate) -> Self {
        let (table, access) = (table.into(), AccessPathChoice::Auto);
        ScanSpec { table, predicate, ordered: false, access, cols: None }
    }

    /// Builder: require key order.
    pub fn with_order(mut self) -> Self {
        self.ordered = true;
        self
    }

    /// Builder: set the access-path discipline.
    pub fn with_access(mut self, access: AccessPathChoice) -> Self {
        self.access = access;
        self
    }

    /// The table ordinal of the scan's output column `out`.
    pub fn table_col(&self, out: usize) -> Option<usize> {
        self.cols.as_ref().map_or(Some(out), |cols| cols.get(out).copied())
    }

    /// Where the scan's output carries table column `col`, if it does.
    pub fn output_col(&self, col: usize) -> Option<usize> {
        self.cols.as_ref().map_or(Some(col), |cols| cols.iter().position(|&c| c == col))
    }
}

/// Join strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Optimizer decides between hash and index-nested-loop.
    Auto,
    /// Hash join (build on the right input).
    Hash,
    /// An equi-join whose rows come in left-key order: within a key,
    /// left-input order, each left row's matches in right-input order.
    /// It runs as a hash join under a sort on the left key.
    Merge,
    /// Index nested-loop: the right side must be a base-table scan whose
    /// join column is indexed.
    IndexNestedLoop,
}

/// One equi-join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Left (outer/probe) input.
    pub left: LogicalPlan,
    /// Right (inner/build) input.
    pub right: LogicalPlan,
    /// Join column ordinal in the left output.
    pub left_col: usize,
    /// Join column ordinal in the right output.
    pub right_col: usize,
    /// Inner or left-semi.
    pub ty: JoinType,
    /// Strategy discipline.
    pub strategy: JoinStrategy,
    /// The columns of `left ++ right` (of `left` alone for a semi join)
    /// the join emits, strictly ascending (`None` = all). Written by
    /// [`crate::prune()`]; a hand-built plan may set it too.
    pub emit: Option<Vec<usize>>,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table access.
    Scan(ScanSpec),
    /// Equi-join of two plans.
    Join(Box<JoinSpec>),
    /// Grouped or scalar aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by column ordinals (empty = scalar).
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggFunc>,
    },
    /// Blocking sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Columns to keep, in order.
        cols: Vec<usize>,
    },
    /// Row filter above another plan (predicates that cannot push into a
    /// scan, e.g. conditions spanning both sides of a join).
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Keep rows where this holds.
        predicate: Predicate,
    },
}

impl LogicalPlan {
    /// Convenience: a scan plan.
    pub fn scan(spec: ScanSpec) -> Self {
        LogicalPlan::Scan(spec)
    }

    /// Convenience: join this plan with another.
    pub fn join(
        self,
        right: LogicalPlan,
        left_col: usize,
        right_col: usize,
        ty: JoinType,
        strategy: JoinStrategy,
    ) -> Self {
        LogicalPlan::Join(Box::new(JoinSpec {
            left: self,
            right,
            left_col,
            right_col,
            ty,
            strategy,
            emit: None,
        }))
    }

    /// Convenience: aggregate this plan.
    pub fn aggregate(self, group_cols: Vec<usize>, aggs: Vec<AggFunc>) -> Self {
        LogicalPlan::Aggregate { input: Box::new(self), group_cols, aggs }
    }

    /// Convenience: sort this plan.
    pub fn sort(self, keys: Vec<SortKey>) -> Self {
        LogicalPlan::Sort { input: Box::new(self), keys }
    }

    /// Convenience: project this plan.
    pub fn project(self, cols: Vec<usize>) -> Self {
        LogicalPlan::Project { input: Box::new(self), cols }
    }

    /// Convenience: filter this plan.
    pub fn filter(self, predicate: Predicate) -> Self {
        LogicalPlan::Filter { input: Box::new(self), predicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = LogicalPlan::scan(ScanSpec::new("a", Predicate::True))
            .join(
                LogicalPlan::scan(ScanSpec::new("b", Predicate::True)),
                0,
                1,
                JoinType::Inner,
                JoinStrategy::Auto,
            )
            .aggregate(vec![0], vec![AggFunc::CountStar])
            .sort(vec![SortKey::asc(0)])
            .project(vec![0]);
        match plan {
            LogicalPlan::Project { input, cols } => {
                assert_eq!(cols, vec![0]);
                assert!(matches!(*input, LogicalPlan::Sort { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_spec_builders() {
        let s = ScanSpec::new("t", Predicate::int_eq(0, 5))
            .with_order()
            .with_access(AccessPathChoice::ForceFull);
        assert!(s.ordered);
        assert_eq!(s.access, AccessPathChoice::ForceFull);
    }
}
