//! Concurrent-session differential property suite: N threads — the
//! sessions, each calling [`smooth_planner::Database::run`] — run
//! proptest-generated random plans against **one shared database** —
//! one buffer pool, one disk arm, one virtual clock, one worker pool —
//! and every session must get back the **exact row sequence** a solo cold run of its plan
//! returns on a fresh database, at every worker-pool width — and that
//! solo run is itself held to [`common::reference`], the plan evaluator
//! over the plain `Vec<Row>`s the tables were loaded from, so "what solo
//! returns" is not the engine's word alone.
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

mod common;

use common::reference;
use common::{schema, tables};
use proptest::prelude::*;
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::{CpuCosts, DeviceProfile, StorageConfig};
use smoothscan::prelude::{AggFunc, JoinType, PolicyKind, Predicate, Row, SmoothScanConfig};

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

/// The same two-table database `prop_differential` uses, loaded from
/// [`common::tables`]. Every construction is deterministic, so each call
/// yields an identical engine whose cold runs are exactly reproducible.
fn database(rows: i64) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    let tables = tables(rows);
    for name in ["t", "r"] {
        db.load_table(name, schema(), tables[name].iter().cloned()).unwrap();
        db.create_index(name, 1, &format!("{name}_c1")).unwrap();
    }
    db
}

/// Cold-run `shape`'s plan alone, serial driver, under `budget`, and hold
/// the rows to the reference.
fn solo_run(shape: &PlanShape, budget: usize) -> Vec<Row> {
    let plan = plan_for(shape);
    let mut db = database(900);
    db.set_workers(1);
    db.set_mem_bytes(budget);
    let rows = db.run(&plan).expect("solo run").rows;
    reference::evaluate(&plan, &tables(900)).assert_matches(&rows, &format!("{shape:?}"));
    rows
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
        let budget = smoothscan::planner::db::default_mem_bytes();
        let solo: Vec<Vec<Row>> = shapes.iter().map(|shape| solo_run(shape, budget)).collect();

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
                            let which = s % shapes.len();
                            let plan = plan_for(&shapes[which]);
                            let out = db.run(&plan).expect("concurrent run");
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
        let solo: Vec<Vec<Row>> = shapes.iter().map(|shape| solo_run(shape, BUDGET)).collect();

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
                            let which = s % shapes.len();
                            let plan = plan_for(&shapes[which]);
                            (which, db.run(&plan).expect("concurrent budgeted run").rows)
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
