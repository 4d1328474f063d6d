//! The Fig. 1 experiment: 19 TPC-H queries, original vs tuned.
//!
//! The paper's Fig. 1 runs TPC-H on DBMS-X twice: *original* (no secondary
//! indexes — plans are scans and hash joins) and *tuned* (the vendor
//! advisor's indexes installed). Tuning should only help; instead several
//! queries regress — catastrophically for Q12 (×400) and Q19 (×20),
//! moderately for Q3/Q18/Q21 — because index-based plans are chosen off
//! mis-estimated cardinalities.
//!
//! Each entry below is one query (simplified to this engine's operator
//! repertoire, with the spec's predicate *structure* preserved) plus the
//! statistics damage that models the estimation error the paper attributes
//! to that query. Queries whose tuned plans were fine carry no damage: for
//! them the optimizer sees honest numbers and tuning helps or is neutral —
//! exactly the mixed picture of Fig. 1. Q15/Q17/Q20 are absent from the
//! paper's figure and therefore absent here.

use smooth_executor::{AggFunc, JoinType, Predicate};
use smooth_planner::{JoinStrategy, LogicalPlan, ScanSpec};
use smooth_stats::StatsQuality;

use super::{c, l, n, o, p, ps, s};

/// One Fig. 1 query: a plan with `Auto` disciplines, plus the statistics
/// damage injected for the tuned configuration.
pub struct Fig1Query {
    /// Paper's query name ("Q12", ...).
    pub name: &'static str,
    /// Plan builder (access paths and join strategies all `Auto`).
    pub build: fn() -> LogicalPlan,
    /// `(table, damage)` pairs applied before planning the tuned run.
    pub tuned_damage: &'static [(&'static str, StatsQuality)],
}

fn scan(table: &str, pred: Predicate) -> LogicalPlan {
    LogicalPlan::Scan(ScanSpec::new(table, pred))
}

fn count_agg(plan: LogicalPlan) -> LogicalPlan {
    plan.aggregate(vec![], vec![AggFunc::CountStar])
}

fn q1() -> LogicalPlan {
    super::queries::q1(smooth_planner::AccessPathChoice::Auto)
}

fn q2() -> LogicalPlan {
    // min-cost supplier: partsupp ⋈ part(size) ⋈ supplier
    scan("partsupp", Predicate::True)
        .join(
            scan("part", Predicate::int_eq(p::SIZE, 15)),
            ps::PARTKEY,
            p::PARTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("supplier", Predicate::True),
            ps::SUPPKEY,
            s::SUPPKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![ps::WIDTH + p::SIZE], vec![AggFunc::Min(ps::SUPPLYCOST)])
}

fn q3() -> LogicalPlan {
    // shipping priority: orders in a quarter ⋈ lineitem shipped after it
    scan("orders", Predicate::int_half_open(o::ORDERDATE, 800, 890))
        .join(
            scan("lineitem", Predicate::int_ge(l::SHIPDATE, 890)),
            o::ORDERKEY,
            l::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(
            vec![o::ORDERDATE],
            vec![AggFunc::SumProduct(o::WIDTH + l::EXTENDEDPRICE, o::WIDTH + l::DISCOUNT)],
        )
}

fn q4() -> LogicalPlan {
    super::queries::q4(smooth_planner::AccessPathChoice::Auto)
}

fn q5() -> LogicalPlan {
    // local supplier volume: one region, one orderdate year
    scan("lineitem", Predicate::True)
        .join(
            scan("orders", Predicate::int_half_open(o::ORDERDATE, 365, 730)),
            l::ORDERKEY,
            o::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("customer", Predicate::True),
            l::WIDTH + o::CUSTKEY,
            c::CUSTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("supplier", Predicate::True),
            l::SUPPKEY,
            s::SUPPKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("nation", Predicate::True),
            l::WIDTH + o::WIDTH + c::NATIONKEY,
            n::NATIONKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("region", Predicate::StrEq { col: super::r::NAME, value: "ASIA".into() }),
            l::WIDTH + o::WIDTH + c::WIDTH + s::WIDTH + n::REGIONKEY,
            super::r::REGIONKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(
            vec![l::WIDTH + o::WIDTH + c::WIDTH + s::WIDTH + n::NAME],
            vec![AggFunc::SumProduct(l::EXTENDEDPRICE, l::DISCOUNT)],
        )
}

fn q6() -> LogicalPlan {
    super::queries::q6(smooth_planner::AccessPathChoice::Auto)
}

fn q7() -> LogicalPlan {
    super::queries::q7(smooth_planner::AccessPathChoice::Auto)
}

fn q8() -> LogicalPlan {
    // national market share: two years, promo parts
    scan("lineitem", Predicate::int_half_open(l::SHIPDATE, 730, 1460))
        .join(
            scan("part", Predicate::int_eq(p::PROMO, 1)),
            l::PARTKEY,
            p::PARTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("orders", Predicate::True),
            l::ORDERKEY,
            o::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(
            vec![l::WIDTH + p::PROMO],
            vec![AggFunc::SumProduct(l::EXTENDEDPRICE, l::DISCOUNT)],
        )
}

fn q9() -> LogicalPlan {
    // product type profit: small parts across suppliers
    scan("lineitem", Predicate::True)
        .join(
            scan("part", Predicate::int_half_open(p::SIZE, 1, 8)),
            l::PARTKEY,
            p::PARTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("supplier", Predicate::True),
            l::SUPPKEY,
            s::SUPPKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(
            vec![l::WIDTH + p::SIZE],
            vec![AggFunc::SumProduct(l::EXTENDEDPRICE, l::DISCOUNT)],
        )
}

fn q10() -> LogicalPlan {
    // returned items: one quarter, returnflag = R
    scan("lineitem", Predicate::StrEq { col: l::RETURNFLAG, value: "R".into() })
        .join(
            scan("orders", Predicate::int_half_open(o::ORDERDATE, 1095, 1185)),
            l::ORDERKEY,
            o::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("customer", Predicate::True),
            l::WIDTH + o::CUSTKEY,
            c::CUSTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(
            vec![l::WIDTH + o::WIDTH + c::NATIONKEY],
            vec![AggFunc::SumProduct(l::EXTENDEDPRICE, l::DISCOUNT)],
        )
}

fn q11() -> LogicalPlan {
    // important stock: one nation's suppliers
    scan("partsupp", Predicate::True)
        .join(
            scan("supplier", Predicate::True),
            ps::SUPPKEY,
            s::SUPPKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("nation", Predicate::StrEq { col: n::NAME, value: "GERMANY".into() }),
            ps::WIDTH + s::NATIONKEY,
            n::NATIONKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![ps::PARTKEY], vec![AggFunc::SumProduct(ps::SUPPLYCOST, ps::AVAILQTY)])
}

fn q12() -> LogicalPlan {
    // shipping modes and delivery priority: one receipt year, two modes,
    // late commits. The famous Fig. 1 victim: its conjunction is heavily
    // correlated, so the tuned optimizer underestimates it and flips both
    // the access path (receiptdate index) and the join (INLJ into orders).
    let pred = Predicate::And(vec![
        Predicate::int_half_open(l::RECEIPTDATE, 1095, 1460),
        Predicate::StrIn { col: l::SHIPMODE, values: vec!["MAIL".into(), "SHIP".into()] },
        Predicate::IntColLt { left: l::COMMITDATE, right: l::RECEIPTDATE },
    ]);
    scan("lineitem", pred)
        .join(
            scan("orders", Predicate::True),
            l::ORDERKEY,
            o::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![l::WIDTH + o::ORDERPRIORITY], vec![AggFunc::CountStar])
}

fn q13() -> LogicalPlan {
    // customer distribution
    count_agg(scan("customer", Predicate::True).join(
        scan("orders", Predicate::True),
        c::CUSTKEY,
        o::CUSTKEY,
        JoinType::Inner,
        JoinStrategy::Auto,
    ))
}

fn q14() -> LogicalPlan {
    super::queries::q14(smooth_planner::AccessPathChoice::Auto)
}

fn q16() -> LogicalPlan {
    // parts/supplier relationship: brand + size set
    scan("partsupp", Predicate::True)
        .join(
            scan(
                "part",
                Predicate::And(vec![
                    Predicate::int_half_open(p::SIZE, 10, 20),
                    Predicate::StrIn {
                        col: p::BRAND,
                        values: vec!["Brand#11".into(), "Brand#22".into()],
                    },
                ]),
            ),
            ps::PARTKEY,
            p::PARTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![ps::WIDTH + p::SIZE], vec![AggFunc::CountStar])
}

fn q18() -> LogicalPlan {
    // large volume customers: orders in a window joined to all their lines
    scan("orders", Predicate::int_half_open(o::ORDERDATE, 600, 780))
        .join(
            scan("lineitem", Predicate::True),
            o::ORDERKEY,
            l::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![o::ORDERKEY], vec![AggFunc::Sum(o::WIDTH + l::QUANTITY)])
}

fn q19() -> LogicalPlan {
    // discounted revenue: OR of brand/container/quantity conjuncts — the
    // second Fig. 1 victim (correlated disjunction, underestimated).
    let pred = Predicate::And(vec![
        // Many distinct quantity values: the index range interleaves their
        // TID runs, so a chosen index scan pays a near-table sweep per
        // value — the paper's ×20 regression pattern.
        Predicate::int_half_open(l::QUANTITY, 1, 20),
        Predicate::Or(vec![
            Predicate::StrIn { col: l::SHIPMODE, values: vec!["AIR".into(), "REG AIR".into()] },
            Predicate::int_half_open(l::DISCOUNT, 0, 3),
        ]),
    ]);
    scan("lineitem", pred)
        .join(
            scan("part", Predicate::True),
            l::PARTKEY,
            p::PARTKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![], vec![AggFunc::SumProduct(l::EXTENDEDPRICE, l::DISCOUNT)])
}

fn q21() -> LogicalPlan {
    // suppliers who kept orders waiting: late lines in an early window
    let pred = Predicate::And(vec![
        Predicate::int_half_open(l::SHIPDATE, 0, 60),
        Predicate::IntColLt { left: l::COMMITDATE, right: l::RECEIPTDATE },
    ]);
    scan("lineitem", pred)
        .join(
            scan("orders", Predicate::StrEq { col: o::ORDERSTATUS, value: "F".into() }),
            l::ORDERKEY,
            o::ORDERKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .join(
            scan("supplier", Predicate::True),
            l::SUPPKEY,
            s::SUPPKEY,
            JoinType::Inner,
            JoinStrategy::Auto,
        )
        .aggregate(vec![l::SUPPKEY], vec![AggFunc::CountStar])
}

fn q22() -> LogicalPlan {
    // global sales opportunity: wealthy customers
    count_agg(scan("customer", Predicate::int_ge(c::ACCTBAL, 600_000)))
}

/// The 19 queries of Fig. 1 with their tuned-run statistics damage.
pub fn fig1_queries() -> Vec<Fig1Query> {
    vec![
        Fig1Query { name: "Q1", build: q1, tuned_damage: &[] },
        Fig1Query { name: "Q2", build: q2, tuned_damage: &[] },
        Fig1Query {
            name: "Q3",
            build: q3,
            // Correlated quarter+segment: the advisor's orderdate index
            // gets picked off a 50× underestimate — a moderate regression.
            tuned_damage: &[("orders", StatsQuality::ScaledSelectivity(0.02))],
        },
        Fig1Query { name: "Q4", build: q4, tuned_damage: &[] },
        Fig1Query { name: "Q5", build: q5, tuned_damage: &[] },
        Fig1Query { name: "Q6", build: q6, tuned_damage: &[] },
        Fig1Query { name: "Q7", build: q7, tuned_damage: &[] },
        Fig1Query { name: "Q8", build: q8, tuned_damage: &[] },
        Fig1Query { name: "Q9", build: q9, tuned_damage: &[] },
        Fig1Query { name: "Q10", build: q10, tuned_damage: &[] },
        Fig1Query { name: "Q11", build: q11, tuned_damage: &[] },
        Fig1Query {
            name: "Q12",
            build: q12,
            // The ×400 catastrophe: shipmode × receipt-year × lateness is
            // so correlated the optimizer predicts almost nothing
            // qualifies → receiptdate index scan + INLJ into orders.
            tuned_damage: &[("lineitem", StatsQuality::FixedCardinality(10))],
        },
        Fig1Query { name: "Q13", build: q13, tuned_damage: &[] },
        Fig1Query { name: "Q14", build: q14, tuned_damage: &[] },
        Fig1Query { name: "Q16", build: q16, tuned_damage: &[] },
        Fig1Query {
            name: "Q18",
            build: q18,
            // Window + FK correlation: orderdate index picked too eagerly.
            tuned_damage: &[("orders", StatsQuality::ScaledSelectivity(0.005))],
        },
        Fig1Query {
            name: "Q19",
            build: q19,
            // The ×20 regression: the OR-of-conjuncts underestimate sends
            // the plan to the quantity index.
            tuned_damage: &[("lineitem", StatsQuality::FixedCardinality(20))],
        },
        Fig1Query {
            name: "Q21",
            build: q21,
            tuned_damage: &[("lineitem", StatsQuality::ScaledSelectivity(0.05))],
        },
        Fig1Query { name: "Q22", build: q22, tuned_damage: &[] },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::gen::{create_tuning_indexes, install, Scale};
    use smooth_planner::Database;
    use smooth_storage::StorageConfig;

    #[test]
    fn all_nineteen_queries_run_on_original_and_tuned() {
        let mut original = Database::new(StorageConfig::default());
        install(&mut original, Scale::tiny()).unwrap();
        let mut tuned = Database::new(StorageConfig::default());
        install(&mut tuned, Scale::tiny()).unwrap();
        create_tuning_indexes(&mut tuned).unwrap();
        let queries = fig1_queries();
        assert_eq!(queries.len(), 19, "Fig. 1 plots 19 queries");
        for q in &queries {
            let plan = (q.build)();
            let a = original.run(&plan).unwrap_or_else(|e| panic!("{} original: {e}", q.name));
            for (table, quality) in q.tuned_damage {
                tuned.set_stats_quality(table, *quality).unwrap();
            }
            let b = tuned.run(&plan).unwrap_or_else(|e| panic!("{} tuned: {e}", q.name));
            for (table, _) in q.tuned_damage {
                tuned.set_stats_quality(table, StatsQuality::Accurate).unwrap();
            }
            assert_eq!(a.rows.len(), b.rows.len(), "{}: tuning must not change results", q.name);
        }
    }

    #[test]
    fn q12_regresses_badly_when_tuned_with_bad_stats() {
        // The cliff ratio is the unbudgeted one: spill I/O on both
        // sides of it would flatten it.
        let mut tuned = Database::new(StorageConfig::default()).with_mem_bytes(0);
        install(&mut tuned, Scale::tiny()).unwrap();
        create_tuning_indexes(&mut tuned).unwrap();
        let plan = q12();
        let honest = tuned.run(&plan).unwrap().stats;
        tuned.set_stats_quality("lineitem", StatsQuality::FixedCardinality(10)).unwrap();
        let damaged = tuned.run(&plan).unwrap().stats;
        assert!(
            damaged.clock.total_ns() > 5 * honest.clock.total_ns(),
            "Q12 cliff: honest {:.3}s vs damaged {:.3}s",
            honest.secs(),
            damaged.secs()
        );
    }
}
