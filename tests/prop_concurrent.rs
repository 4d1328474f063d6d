//! Concurrent-session differential property suite: N threads, each
//! with its own [`smooth_planner::Session`], run proptest-generated
//! random plans against **one shared database** — one buffer pool, one
//! disk arm, one virtual clock, one worker pool — and every session
//! must get back the **exact row sequence** a solo cold run of its plan
//! returns on a fresh database, at every worker-pool width.
//!
//! Why rows only, not clock/I-O: result rows are required to be
//! invariant under concurrency because everything result-bearing is
//! per-query (source locks, morsel sequence numbers, build tables,
//! ordered sinks) and the adaptive scans' morph decisions are pure
//! functions of the query's own observed cardinalities. The
//! *accounting* is not invariant — concurrent queries genuinely share
//! the disk arm (seq/random classification continues across queries)
//! and the buffer pool (residency depends on global access order) — so
//! clock and I/O equality is pinned only single-session, by
//! `prop_differential` and the per-crate suites. Scan statistics
//! (`QueryResult::scan`) stay per-query even here; the suite checks
//! they attribute plausibly (emitted rows match) without demanding
//! interleaving-independence of page counters.
//!
//! `SMOOTH_TEST_SESSIONS` (default 4) sets the number of concurrent
//! sessions; plans replicate round-robin when it exceeds the generated
//! plan count.

use proptest::prelude::*;
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::{CpuCosts, DeviceProfile, StorageConfig};
use smoothscan::prelude::{
    AggFunc, Column, DataType, JoinType, PolicyKind, Predicate, Row, Schema, SmoothScanConfig,
    Value,
};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn sessions() -> usize {
    smooth_types::env_knob("SMOOTH_TEST_SESSIONS", parse_sessions).unwrap_or(4)
}

/// The `SMOOTH_TEST_SESSIONS` syntax: a whole number, clamped to `1..=64`.
fn parse_sessions(text: &str) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("expected a session count ({e})"))?;
    Ok(n.clamp(1, 64))
}

#[test]
fn sessions_knob_takes_whole_numbers_only() {
    assert_eq!(parse_sessions("4"), Ok(4));
    assert_eq!(parse_sessions("0"), Ok(1), "floors at 1");
    assert_eq!(parse_sessions("500"), Ok(64), "caps at 64");
    for bad in ["", "four", "4x", "-1", "2.0"] {
        assert!(parse_sessions(bad).is_err(), "{bad:?}");
    }
}

/// Deterministic pseudo-random column: spreads keys over [0, domain).
fn scramble(i: i64, domain: i64) -> i64 {
    ((i.wrapping_mul(2654435761)) % domain + domain) % domain
}

/// The same two-table database `prop_differential` uses: every
/// construction is deterministic, so each call yields an identical
/// engine whose cold runs are exactly reproducible.
fn database(rows: i64) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::nullable("c2", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    db.load_table(
        "t",
        schema.clone(),
        (0..rows).map(|i| {
            let c2 = if i % 11 == 0 { Value::Null } else { Value::Int(scramble(i * 7, 500)) };
            Row::new(vec![
                Value::Int(i),
                Value::Int(scramble(i, 300)),
                c2,
                Value::str("x".repeat(24)),
            ])
        }),
    )
    .unwrap();
    db.create_index("t", 1, "t_c1").unwrap();
    db.load_table(
        "r",
        schema,
        (0..rows / 3).map(|i| {
            Row::new(vec![
                Value::Int(scramble(i, 300)),
                Value::Int(scramble(i + 13, 300)),
                Value::Int(i),
                Value::str(format!("r{i}")),
            ])
        }),
    )
    .unwrap();
    db.create_index("r", 1, "r_c1").unwrap();
    db
}

#[derive(Debug, Clone)]
struct PlanShape {
    access: AccessPathChoice,
    lo: i64,
    width: i64,
    join: JoinShape,
    agg: AggShape,
}

#[derive(Debug, Clone, Copy)]
enum JoinShape {
    None,
    HashInner,
    HashSemi,
}

#[derive(Debug, Clone, Copy)]
enum AggShape {
    None,
    ExactGrouped,
    FloatAvg,
    Scalar,
}

fn access_strategy() -> impl Strategy<Value = AccessPathChoice> {
    prop_oneof![
        2 => Just(AccessPathChoice::ForceFull),
        1 => Just(AccessPathChoice::ForceIndex),
        1 => Just(AccessPathChoice::ForceSort),
        1 => (0usize..3).prop_map(|p| {
            let policy =
                [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic][p];
            AccessPathChoice::Smooth(SmoothScanConfig::default().with_policy(policy))
        }),
        1 => (1u64..400).prop_map(|estimate| AccessPathChoice::Switch { estimate }),
    ]
}

fn shape_strategy() -> impl Strategy<Value = PlanShape> {
    (
        access_strategy(),
        0i64..300,
        0i64..330,
        prop_oneof![
            2 => Just(JoinShape::None),
            1 => Just(JoinShape::HashInner),
            1 => Just(JoinShape::HashSemi),
        ],
        prop_oneof![
            2 => Just(AggShape::None),
            1 => Just(AggShape::ExactGrouped),
            1 => Just(AggShape::FloatAvg),
            1 => Just(AggShape::Scalar),
        ],
    )
        .prop_map(|(access, lo, width, join, agg)| PlanShape { access, lo, width, join, agg })
}

fn plan_for(shape: &PlanShape) -> LogicalPlan {
    let pred = Predicate::int_half_open(1, shape.lo, shape.lo + shape.width);
    let scan = LogicalPlan::scan(ScanSpec::new("t", pred).with_access(shape.access.clone()));
    let joined = match shape.join {
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
    };
    match shape.agg {
        AggShape::None => joined,
        AggShape::ExactGrouped => {
            joined.aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)])
        }
        AggShape::FloatAvg => joined.aggregate(vec![1], vec![AggFunc::Avg(0), AggFunc::CountStar]),
        AggShape::Scalar => joined.aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent sessions on one shared engine return exactly the rows
    /// a solo run returns, at every worker count.
    #[test]
    fn concurrent_sessions_match_solo_runs(
        shapes in proptest::collection::vec(shape_strategy(), 4..5),
    ) {
        // Solo references: each plan cold-run alone on its own fresh,
        // deterministically identical database, serial driver.
        let solo: Vec<Vec<Row>> = shapes
            .iter()
            .map(|shape| {
                let mut db = database(900);
                db.set_workers(1);
                db.run(&plan_for(shape)).expect("solo run").rows
            })
            .collect();

        let n = sessions();
        for workers in WORKER_GRID {
            // A fresh shared engine per worker count: N sessions fire
            // their queries at it simultaneously. A small admission cap
            // on one leg exercises the FIFO queue.
            let mut db = database(900);
            db.set_workers(workers);
            db.set_max_queries(if workers == 2 { 2 } else { 4 });
            let results: Vec<(usize, Vec<Row>, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|s| {
                        let db = &db;
                        let shapes = &shapes;
                        scope.spawn(move || {
                            let session = db.session();
                            let which = s % shapes.len();
                            let plan = plan_for(&shapes[which]);
                            let out = session.run(&plan).expect("concurrent run");
                            (which, out.rows, out.scan.rows_processed)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("session thread")).collect()
            });
            for (which, rows, _) in &results {
                prop_assert!(
                    rows == &solo[*which],
                    "plan {} diverges from its solo run at {} workers ({:?})",
                    which,
                    workers,
                    shapes[*which]
                );
            }
            // Per-query attribution stays coherent under concurrency:
            // a bare full scan (no join/aggregate) emits exactly
            // `rows_processed` tuples. Adaptive paths are excluded —
            // e.g. a Switch scan that abandons its index mid-flight
            // recounts rows it re-produces, so emitted != processed.
            for (which, rows, processed) in &results {
                let shape = &shapes[*which];
                if matches!(shape.access, AccessPathChoice::ForceFull)
                    && matches!(shape.join, JoinShape::None)
                    && matches!(shape.agg, AggShape::None)
                {
                    prop_assert!(
                        *processed == rows.len() as u64,
                        "scan stats misattributed at {} workers ({:?})",
                        workers,
                        shape
                    );
                }
            }
        }
    }

    /// Spill-forcing leg: the same concurrent race under a tiny
    /// per-operator memory budget. Every join build (and sort) above
    /// the budget spills to charged overflow files, and each session's
    /// rows must still match its budgeted solo run exactly — the grace
    /// trees' probe tallies are order-independent atomic sums, so
    /// worker and session interleavings cannot perturb results.
    #[test]
    fn concurrent_budgeted_sessions_match_solo_runs(
        shapes in proptest::collection::vec(shape_strategy(), 4..5),
    ) {
        const BUDGET: usize = 4096;
        let solo: Vec<Vec<Row>> = shapes
            .iter()
            .map(|shape| {
                let mut db = database(900);
                db.set_workers(1);
                db.set_mem_bytes(BUDGET);
                db.run(&plan_for(shape)).expect("solo budgeted run").rows
            })
            .collect();

        let n = sessions();
        for workers in [2usize, 8] {
            let mut db = database(900);
            db.set_workers(workers);
            db.set_mem_bytes(BUDGET);
            let results: Vec<(usize, Vec<Row>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|s| {
                        let db = &db;
                        let shapes = &shapes;
                        scope.spawn(move || {
                            let session = db.session();
                            let which = s % shapes.len();
                            let plan = plan_for(&shapes[which]);
                            (which, session.run(&plan).expect("concurrent budgeted run").rows)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("session thread")).collect()
            });
            for (which, rows) in &results {
                prop_assert!(
                    rows == &solo[*which],
                    "budgeted plan {} diverges from its solo run at {} workers ({:?})",
                    which,
                    workers,
                    shapes[*which]
                );
            }
        }
    }
}
