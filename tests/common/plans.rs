//! The random-plan generator the differential suite and the pruning
//! suite share: scan kind × `ordered:` × predicates × join shape ×
//! aggregate shape × root sort over the two-table fixture of
//! [`super::tables`].
#![allow(dead_code)] // each suite uses its own subset

use proptest::prelude::*;
use smooth_planner::{AccessPathChoice, JoinStrategy, LogicalPlan, ScanSpec};
use smoothscan::prelude::{AggFunc, JoinType, PolicyKind, Predicate, SmoothScanConfig, SortKey};

/// One scan-kind choice from the full repertoire.
pub fn access_strategy() -> impl Strategy<Value = AccessPathChoice> {
    prop_oneof![
        Just(AccessPathChoice::ForceFull),
        Just(AccessPathChoice::ForceIndex),
        Just(AccessPathChoice::ForceSort),
        (0usize..3).prop_map(|p| {
            let policy =
                [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic][p];
            AccessPathChoice::Smooth(SmoothScanConfig::default().with_policy(policy))
        }),
        (1u64..400).prop_map(|estimate| AccessPathChoice::Switch { estimate }),
        Just(AccessPathChoice::Auto),
    ]
}

#[derive(Debug, Clone, Copy)]
pub enum JoinShape {
    None,
    HashInner,
    HashSemi,
    /// An index join of `t` with itself on `c1` — a semi join when
    /// `semi` — on the plain inner side, or on the morphing one when
    /// `smooth` (the inner scan's access is then Smooth Scan).
    IndexNested {
        smooth: bool,
        semi: bool,
    },
    /// Merge join on the nullable `c2` of both sides — a semi join when
    /// `semi`: NULL keys must match nothing, and the rows come in key
    /// order.
    MergeNullable {
        semi: bool,
    },
}

pub fn join_strategy() -> impl Strategy<Value = JoinShape> {
    prop_oneof![
        2 => Just(JoinShape::None),
        2 => Just(JoinShape::HashInner),
        1 => Just(JoinShape::HashSemi),
        2 => (any::<bool>(), any::<bool>())
            .prop_map(|(smooth, semi)| JoinShape::IndexNested { smooth, semi }),
        1 => any::<bool>().prop_map(|semi| JoinShape::MergeNullable { semi }),
    ]
}

#[derive(Debug, Clone, Copy)]
pub enum AggShape {
    None,
    ExactGrouped,
    FloatAvg,
    Scalar,
}

pub fn agg_strategy() -> impl Strategy<Value = AggShape> {
    prop_oneof![
        2 => Just(AggShape::None),
        1 => Just(AggShape::ExactGrouped),
        1 => Just(AggShape::FloatAvg),
        1 => Just(AggShape::Scalar),
    ]
}

/// A root sort's keys — `(pick, ascending)`, the pick taken modulo the
/// plan's output width — one or two of them, or none (no sort).
pub fn sort_strategy() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop_oneof![
        2 => Just(Vec::new()),
        1 => proptest::collection::vec((0usize..8, any::<bool>()), 1..3),
    ]
}

/// Assemble the plan under test: a scan of `t` — `ordered:` on its range
/// column when `ordered` — under `join`, under `agg`, under a sort on
/// `sort`'s keys when there are any.
#[allow(clippy::too_many_arguments)]
pub fn plan_for(
    access: &AccessPathChoice,
    ordered: bool,
    lo: i64,
    width: i64,
    residual: Option<i64>,
    join: JoinShape,
    agg: AggShape,
    sort: &[(usize, bool)],
) -> LogicalPlan {
    let mut pred = Predicate::int_half_open(1, lo, lo + width);
    if let Some(hi) = residual {
        pred = Predicate::and(vec![pred, Predicate::int_lt(0, hi)]);
    }
    let mut spec = ScanSpec::new("t", pred).with_access(access.clone());
    if ordered {
        spec = spec.with_order();
    }
    let scan = LogicalPlan::scan(spec);
    let joined = match join {
        JoinShape::None => scan,
        JoinShape::HashInner => scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        ),
        JoinShape::HashSemi => scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::int_lt(2, 200))),
            1,
            0,
            JoinType::LeftSemi,
            JoinStrategy::Hash,
        ),
        JoinShape::IndexNested { smooth, semi } => {
            let access = match smooth {
                true => AccessPathChoice::Smooth(SmoothScanConfig::default()),
                false => AccessPathChoice::Auto,
            };
            let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
            let inner = ScanSpec::new("t", Predicate::int_lt(0, 600)).with_access(access);
            scan.join(LogicalPlan::scan(inner), 1, 1, ty, JoinStrategy::IndexNestedLoop)
        }
        JoinShape::MergeNullable { semi } => scan.join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::int_lt(0, 200))),
            2,
            2,
            if semi { JoinType::LeftSemi } else { JoinType::Inner },
            JoinStrategy::Merge,
        ),
    };
    // Both tables are four columns wide.
    let width = match join {
        JoinShape::None
        | JoinShape::HashSemi
        | JoinShape::IndexNested { semi: true, .. }
        | JoinShape::MergeNullable { semi: true } => 4,
        _ => 8,
    };
    let (plan, width) = match agg {
        AggShape::None => (joined, width),
        AggShape::ExactGrouped => (
            joined.aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)]),
            4,
        ),
        AggShape::FloatAvg => {
            (joined.aggregate(vec![1], vec![AggFunc::Avg(0), AggFunc::CountStar]), 3)
        }
        AggShape::Scalar => {
            (joined.aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]), 2)
        }
    };
    let key = |&(pick, asc): &(usize, bool)| SortKey { column: pick % width, ascending: asc };
    match sort {
        [] => plan,
        keys => plan.sort(keys.iter().map(key).collect()),
    }
}
