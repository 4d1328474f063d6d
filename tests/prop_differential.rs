//! Cross-driver differential property suite: proptest-generated random
//! plans — scan kind × predicates × join shapes (the index join on either
//! inner side among them) × aggregates × Smooth/Switch policies — must
//! produce the **exact row sequence**,
//! the **exact virtual CPU/IO clock totals** and the **exact I/O
//! counters** across all three ways a plan is driven:
//!
//! * the Volcano driver — the operator tree's root drained a row at a
//!   time, everything beneath it on `next_columns` (the `max = 1` leg
//!   of batch-size invariance, and what clocks and I/O are compared
//!   against),
//! * the columnar driver — the same operator tree (`Database::build`)
//!   drained by `collect_batches` on the calling thread
//!   (`run_operator_batches`), outside the pool,
//! * `Database::run` — a scheduled query on the worker pool — at pool
//!   widths {1, 2, 4, 8}.
//!
//! The three share every kernel, so agreeing with each other cannot show
//! a kernel right. What the rows *should be* comes from outside the
//! engine: every Volcano run here is first held to
//! [`common::reference`], a plan evaluator over the plain `Vec<Row>`s the
//! tables were loaded from — as a sequence up to ties where the plan
//! defines an order, as a multiset otherwise — and every other driver
//! must then equal the Volcano rows exactly.
//!
//! Every execution strategy in this repo — batching, columnar layout,
//! worker pools, the partitioned parallel hash-join build — is required
//! to be *accounting-invisible*: it may change who does the work, never
//! what work the engine is charged for. This suite pins that invariant
//! end to end through the planner, for plan shapes no single-crate suite
//! composes.

mod common;

use common::plans::{
    access_strategy, agg_strategy, join_strategy, plan_for, sort_strategy, AggShape, JoinShape,
};
use common::reference::{self, Tables};
use common::{schema, scramble, tables};
use proptest::prelude::*;
use smooth_executor::sort::SortKey;
use smooth_executor::{collect_rows_volcano, ParallelSource, PhaseSpec, SinkSpec};
use smooth_planner::{
    AccessPathChoice, Database, JoinStrategy, LogicalPlan, QueryResult, RunStats, ScanSpec,
};
use smooth_storage::{CpuCosts, DeviceProfile, IoStatsDelta, StorageConfig};
use smoothscan::prelude::{
    AggFunc, Column, DataType, JoinType, Predicate, Row, Schema, SmoothScanConfig, Value,
};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// A fresh database over `tables`, every table indexed on `c1`.
fn load(tables: &Tables, schema: &Schema) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    for name in ["t", "r"] {
        db.load_table(name, schema.clone(), tables[name].iter().cloned()).unwrap();
        db.create_index(name, 1, &format!("{name}_c1")).unwrap();
    }
    db
}

fn database(rows: i64) -> Database {
    load(&tables(rows), &schema())
}

/// The per-run I/O counters that must match exactly between drivers
/// (`distinct_pages` is a monotone per-database set, so its *delta*
/// differs between a first and a repeated run of the same query).
fn io_key(io: &IoStatsDelta) -> (u64, u64, u64, u64, u64) {
    (io.io_requests, io.pages_read, io.seq_pages, io.rand_pages, io.buffer_hits)
}

/// Cold-run through the Volcano row-at-a-time oracle on a fresh database.
///
/// Every driver run in this suite gets its own (deterministically
/// identical) database: the disk model classifies a transfer as
/// sequential when it physically continues the previous one, so two runs
/// sharing one database are *not* independent — the second run's first
/// transfer may continue the first run's last page. Fresh databases make
/// each measurement exactly the cold run the serial driver would see.
///
/// Helpers that do not name a budget inherit the process default
/// (`SMOOTH_MEM_BYTES`, 0 when unset) exactly like a fresh `Database`
/// does, so under the CI spill leg the oracle and every driver spill
/// alike; only the `*_budgeted` helpers pin one.
fn run_volcano(plan: &LogicalPlan) -> QueryResult {
    run_volcano_budgeted(plan, smoothscan::planner::db::default_mem_bytes())
}

/// [`run_volcano`] under an explicit per-operator memory budget in
/// bytes (0 = unlimited).
fn run_volcano_budgeted(plan: &LogicalPlan, budget: usize) -> QueryResult {
    let tables = tables(900);
    volcano(load(&tables, &schema()), &tables, plan, budget)
}

/// Cold-run `plan` on `db` through the Volcano driver under `budget`, and
/// hold its rows to the reference evaluation over `tables`.
fn volcano(mut db: Database, tables: &Tables, plan: &LogicalPlan, budget: usize) -> QueryResult {
    db.set_mem_bytes(budget);
    let mut op = db.build(plan).expect("plan builds");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let io0 = db.storage().io_snapshot();
    let rows = collect_rows_volcano(op.as_mut()).expect("volcano run");
    reference::evaluate(plan, tables).assert_matches(&rows, &format!("{plan:?}"));
    let stats = RunStats {
        rows: rows.len() as u64,
        clock: db.storage().clock().snapshot().since(&clock0),
        io: db.storage().io_snapshot().since(&io0),
    };
    QueryResult { rows, stats, scan: Default::default() }
}

/// Cold-run the operator tree itself — `Database::build`, drained by
/// `collect_batches` on this thread, outside the pool — on a fresh
/// database: the columnar leg.
fn run_tree(plan: &LogicalPlan) -> QueryResult {
    run_tree_budgeted(plan, smoothscan::planner::db::default_mem_bytes())
}

/// [`run_tree`] under an explicit per-operator memory budget.
fn run_tree_budgeted(plan: &LogicalPlan, budget: usize) -> QueryResult {
    let mut db = database(900);
    db.set_mem_bytes(budget);
    let mut op = db.build(plan).expect("plan builds");
    db.run_operator(op.as_mut()).expect("tree run")
}

/// Cold-run through `Database::run` — the pool — at a fixed width, again
/// on a fresh database.
fn run_with_workers(plan: &LogicalPlan, workers: usize) -> QueryResult {
    run_budgeted(plan, workers, smoothscan::planner::db::default_mem_bytes())
}

/// [`run_with_workers`] under an explicit per-operator memory budget.
fn run_budgeted(plan: &LogicalPlan, workers: usize, budget: usize) -> QueryResult {
    let mut db = database(900);
    db.set_workers(workers);
    db.set_mem_bytes(budget);
    db.run(plan).expect("driver run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rows, virtual clock and I/O counters are identical across the
    /// Volcano and columnar drains of the tree and the pool at every
    /// width, for random plans.
    #[test]
    fn drivers_agree_on_random_plans(
        access in access_strategy(),
        ordered in any::<bool>(),
        lo in 0i64..300,
        width in 0i64..330,
        residual in prop_oneof![2 => Just(None), 1 => (0i64..900).prop_map(Some)],
        join in join_strategy(),
        agg in agg_strategy(),
        sort in sort_strategy(),
    ) {
        let plan = plan_for(&access, ordered, lo, width, residual, join, agg, &sort);
        let context = format!(
            "{access:?} ordered={ordered} lo={lo} width={width} res={residual:?} {join:?} {agg:?} \
             sort={sort:?}"
        );

        assert_breakers_end_phases(&database(900), &plan, &context);

        // Oracle: the Volcano row-at-a-time driver.
        let volcano = run_volcano(&plan);

        // The operator tree, drained columnar.
        let columnar = run_tree(&plan);
        prop_assert!(columnar.rows == volcano.rows, "columnar rows diverge: {context}");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "columnar clock diverges: {context} ({:?} vs {:?})",
            columnar.stats.clock,
            volcano.stats.clock
        );
        prop_assert!(
            io_key(&columnar.stats.io) == io_key(&volcano.stats.io),
            "columnar I/O diverges: {context}"
        );

        // The pool at every width.
        for workers in WORKER_GRID {
            let parallel = run_with_workers(&plan, workers);
            prop_assert!(
                parallel.rows == volcano.rows,
                "parallel rows diverge at {workers} workers: {context}"
            );
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "parallel clock diverges at {workers} workers: {context} ({:?} vs {:?})",
                parallel.stats.clock,
                volcano.stats.clock
            );
            prop_assert!(
                io_key(&parallel.stats.io) == io_key(&volcano.stats.io),
                "parallel I/O diverges at {workers} workers: {context}"
            );
        }
    }

    /// Ordered Smooth Scan with Result-Cache spilling: the PR 3 latent
    /// divergence regime, pinned across drivers and byte budgets.
    #[test]
    fn drivers_agree_on_ordered_smooth_scan_with_spill(
        lo in 0i64..200,
        width in 1i64..300,
        budget in 512usize..16384,
        partitions in 2usize..24,
    ) {
        let cfg = SmoothScanConfig { result_cache_partitions: partitions, ..Default::default() };
        let plan = plan_for(&AccessPathChoice::Smooth(cfg), true, lo, width, None,
            JoinShape::None, AggShape::None, &[]);
        let volcano = run_volcano_budgeted(&plan, budget);
        let columnar = run_tree_budgeted(&plan, budget);
        prop_assert!(columnar.rows == volcano.rows, "rows diverge (budget={budget})");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "ordered+spill clock diverges (budget={budget}, partitions={partitions}): {:?} vs {:?}",
            columnar.stats.clock,
            volcano.stats.clock
        );
        for workers in [1usize, 2, 8] {
            let parallel = run_budgeted(&plan, workers, budget);
            prop_assert!(parallel.rows == volcano.rows);
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "parallel ordered+spill clock diverges at {workers} workers"
            );
        }
    }

    /// Larger-than-memory legs: tiny per-operator budgets force grace
    /// hash-join spills (and, under the sort wrap, external-sort runs).
    /// Rows must stay byte-identical to the unbudgeted run, and every
    /// driver must charge identical clock and I/O under the *same*
    /// budget — spill accounting may not depend on who does the work.
    #[test]
    fn drivers_agree_under_spilling_budgets(
        budget in prop_oneof![Just(512usize), Just(4096usize), Just(1usize << 20)],
        lo in 0i64..300,
        width in 30i64..330,
        semi in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        let join = if semi { JoinShape::HashSemi } else { JoinShape::HashInner };
        let full = AccessPathChoice::ForceFull;
        let mut plan = plan_for(&full, false, lo, width, None, join, AggShape::None, &[]);
        if sorted {
            plan = plan.sort(vec![SortKey::asc(2), SortKey::asc(0)]);
        }
        let context = format!("budget={budget} lo={lo} width={width} {join:?} sorted={sorted}");

        let free = run_volcano_budgeted(&plan, 0);
        let volcano = run_volcano_budgeted(&plan, budget);
        prop_assert!(volcano.rows == free.rows, "budget changed the rows: {context}");
        prop_assert!(
            volcano.stats.clock.io_ns >= free.stats.clock.io_ns,
            "spill can only add I/O-lane time: {context}"
        );

        let columnar = run_tree_budgeted(&plan, budget);
        prop_assert!(columnar.rows == volcano.rows, "budgeted columnar rows diverge: {context}");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "budgeted columnar clock diverges: {context} ({:?} vs {:?})",
            columnar.stats.clock,
            volcano.stats.clock
        );
        prop_assert!(
            io_key(&columnar.stats.io) == io_key(&volcano.stats.io),
            "budgeted columnar I/O diverges: {context}"
        );
        for workers in WORKER_GRID {
            let parallel = run_budgeted(&plan, workers, budget);
            prop_assert!(
                parallel.rows == volcano.rows,
                "budgeted parallel rows diverge at {workers} workers: {context}"
            );
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "budgeted parallel clock diverges at {workers} workers: {context} ({:?} vs {:?})",
                parallel.stats.clock,
                volcano.stats.clock
            );
            prop_assert!(
                io_key(&parallel.stats.io) == io_key(&volcano.stats.io),
                "budgeted parallel I/O diverges at {workers} workers: {context}"
            );
        }
    }
}

/// `JoinStrategy::Merge` over keys that are NULL on both inputs: every
/// left row with a NULL `c2` meets a run of NULL-keyed right rows at the
/// head of the sorted input and must join none of them (the row merge
/// join this one replaced compared `Value`s with `==` and joined them
/// all). Held to the reference like every Volcano run here, and equal
/// across the drivers.
#[test]
fn merge_join_matches_no_null_keys() {
    let plan = plan_for(
        &AccessPathChoice::ForceFull,
        false,
        0,
        300,
        None,
        JoinShape::MergeNullable { semi: false },
        AggShape::None,
        &[],
    );
    let volcano = run_volcano(&plan);
    assert!(volcano.rows.iter().all(|r| !r.get(2).is_null()) && !volcano.rows.is_empty());
    for workers in [1usize, 2, 4] {
        let got = run_with_workers(&plan, workers);
        assert_eq!(got.rows, volcano.rows, "rows diverge at {workers}w");
        assert_eq!(got.stats.clock, volcano.stats.clock, "clock diverges at {workers}w");
        assert_eq!(io_key(&got.stats.io), io_key(&volcano.stats.io), "I/O diverges at {workers}w");
    }
}

/// `ordered:` heap-range scans no longer take the serial shared-source
/// fallback: the planner lowers them to the partitioned heap source
/// with a `Sort` sink, and rows/clock/IO equal the serial drivers at
/// every worker count.
#[test]
fn ordered_scans_parallelize_with_sort_sink() {
    let plan = LogicalPlan::scan(
        ScanSpec::new("t", Predicate::int_half_open(1, 40, 40 + 220))
            .with_order()
            .with_access(AccessPathChoice::ForceFull),
    );
    let db = database(900);
    let pipeline = db
        .parallel_pipeline(&plan)
        .expect("plan builds")
        .expect("ordered heap scan must produce a parallel pipeline, not the serial fallback");
    assert!(
        matches!(pipeline.phases[0].source, ParallelSource::Heap { .. }),
        "ordered scan must keep the partitioned heap source"
    );
    assert!(
        matches!(pipeline.phases[..], [PhaseSpec { sink: SinkSpec::Sort { .. }, .. }]),
        "ordered scan must merge through the charged sort sink, its one phase"
    );

    let volcano = run_volcano(&plan);
    for workers in WORKER_GRID {
        let got = run_with_workers(&plan, workers);
        assert_eq!(got.rows, volcano.rows, "rows diverge at {workers}w");
        assert_eq!(
            (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
            (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "clock diverges at {workers}w"
        );
        assert_eq!(io_key(&got.stats.io), io_key(&volcano.stats.io), "I/O diverges at {workers}w");
    }
}

/// Pad-heavy database: Text columns dominate every tuple (one fixed
/// 80-byte pad plus one variable-length tail), so these legs push text
/// — arena decode, cross-operator handoff, ordered sink merge — through
/// every driver. Fresh per run, for the same cold-run independence as
/// [`database`].
fn text_tables() -> Tables {
    let t = (0..1000).map(|i| {
        Row::new(vec![
            Value::Int(i),
            Value::Int(scramble(i, 1000)),
            Value::str("p".repeat(80)),
            Value::str(format!("tail-{i:04}-{}", "y".repeat((i % 17) as usize))),
        ])
    });
    let r = (0..300).map(|i| {
        Row::new(vec![
            Value::Int(scramble(i, 1000)),
            Value::Int(i),
            Value::str("q".repeat(64)),
            Value::str(format!("r{i}")),
        ])
    });
    Tables::from([("t", t.collect()), ("r", r.collect())])
}

fn text_schema() -> Schema {
    Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
        Column::new("tail", DataType::Text),
    ])
    .unwrap()
}

fn text_database() -> Database {
    load(&text_tables(), &text_schema())
}

/// Volcano oracle over [`text_database`] under a memory budget
/// (0 = unlimited), held to the reference.
fn text_volcano(plan: &LogicalPlan, budget: usize) -> QueryResult {
    let tables = text_tables();
    volcano(load(&tables, &text_schema()), &tables, plan, budget)
}

/// `Database::run` over [`text_database`] at a worker count and budget.
fn text_run(plan: &LogicalPlan, workers: usize, budget: usize) -> QueryResult {
    let mut db = text_database();
    db.set_workers(workers);
    db.set_mem_bytes(budget);
    db.run(plan).expect("driver run")
}

/// Text-heavy scans at 1% / 10% / 100% selectivity: rows (with their
/// text payloads), virtual clock and I/O counters are identical across
/// the Volcano oracle, the columnar driver and the parallel driver at
/// every worker count — where string bytes live never changes what the
/// query returns or is charged.
#[test]
fn text_heavy_scans_agree_across_drivers() {
    // c1 = scramble(i, 1000) over 1000 rows: width w selects ~w/1000.
    for width in [10i64, 100, 1000] {
        for access in [AccessPathChoice::ForceFull, AccessPathChoice::Auto] {
            let plan = LogicalPlan::scan(
                ScanSpec::new("t", Predicate::int_half_open(1, 0, width))
                    .with_access(access.clone()),
            );
            let context = format!("width={width} {access:?}");
            let volcano = text_volcano(&plan, 0);
            assert!(!volcano.rows.is_empty(), "{context} selects nothing");
            // The text payload really flows through the drivers.
            assert!(volcano.rows.iter().all(|r| r.str(2).unwrap().len() == 80), "{context}");
            for workers in [1usize, 2, 4, 8] {
                let got = text_run(&plan, workers, 0);
                assert_eq!(got.rows, volcano.rows, "text rows diverge at {workers}w: {context}");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "text clock diverges at {workers}w: {context}"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "text I/O diverges at {workers}w: {context}"
                );
            }
        }
    }
}

/// Text-heavy spill legs: a tiny per-operator budget forces the grace
/// hash join (and, sorted, the external sort) to run text through the
/// spill codec. Rows stay byte-identical to the unbudgeted run and
/// every driver charges the same clock and I/O under the same budget.
#[test]
fn text_heavy_spill_legs_agree_under_views() {
    for sorted in [false, true] {
        let mut plan = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, 400))
                .with_access(AccessPathChoice::ForceFull),
        )
        .join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        );
        if sorted {
            plan = plan.sort(vec![SortKey::asc(1), SortKey::asc(0)]);
        }
        let context = format!("sorted={sorted}");
        let free = text_volcano(&plan, 0);
        assert!(!free.rows.is_empty(), "{context} selects nothing");
        let budget = 4096;
        let volcano = text_volcano(&plan, budget);
        assert_eq!(volcano.rows, free.rows, "budget changed the rows: {context}");
        assert!(
            volcano.stats.clock.io_ns > free.stats.clock.io_ns,
            "text join under a 4 KiB budget must actually spill: {context}"
        );
        for workers in [1usize, 2, 4, 8] {
            let got = text_run(&plan, workers, budget);
            assert_eq!(got.rows, volcano.rows, "spill rows diverge at {workers}w: {context}");
            assert_eq!(
                (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "spill clock diverges at {workers}w: {context}"
            );
            assert_eq!(
                io_key(&got.stats.io),
                io_key(&volcano.stats.io),
                "spill I/O diverges at {workers}w: {context}"
            );
        }
    }
}

/// Bushy trees: a hash join whose build side is itself a hash join
/// resolves its nested probe stage inside the build pipeline and
/// parallelizes end to end, byte- and charge-identical to the serial
/// drivers.
///
/// The second shape is the one that can *see* the order sources open
/// in: a self-join whose probe side is a Sort Scan — its `open` drains
/// the index — and whose build side reads the same table, index and
/// heap, through Smooth Scan. Open the probe side before the build
/// instead of after it and the pool holds different pages when each
/// walks them, so a tree and a pool that disagree about open order
/// disagree here about clock and I/O.
///
/// Both shapes also run under a pinned 4 KiB budget, which makes them
/// spill: a nested probe then reads a spilled table, and its deferred
/// grace pass settles when its build phase drains.
#[test]
fn bushy_hash_joins_agree_across_drivers() {
    let t = |lo: i64, hi: i64, access: AccessPathChoice| {
        LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, lo, hi)).with_access(access),
        )
    };
    let r = LogicalPlan::scan(ScanSpec::new("r", Predicate::int_lt(2, 250)));
    let hash = |probe: LogicalPlan, build: LogicalPlan, right_col: usize| {
        probe.join(build, 1, right_col, JoinType::Inner, JoinStrategy::Hash)
    };
    let full_over_full = hash(
        t(30, 230, AccessPathChoice::Auto),
        hash(r.clone(), t(0, 150, AccessPathChoice::Auto), 1),
        0,
    );
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::default());
    let sort_over_smooth =
        hash(t(30, 230, AccessPathChoice::ForceSort), hash(t(0, 150, smooth), r, 1), 1);
    let spill = 4096;
    for (shape, plan) in [("full⋈(r⋈full)", full_over_full), ("sort⋈(smooth⋈r)", sort_over_smooth)]
    {
        let free = run_volcano_budgeted(&plan, 0);
        for budget in [smoothscan::planner::db::default_mem_bytes(), spill] {
            let volcano = run_volcano_budgeted(&plan, budget);
            let shape = format!("{shape} at budget {budget}");
            assert!(!volcano.rows.is_empty(), "{shape} joins something");
            if budget == spill {
                let io = (volcano.stats.clock.io_ns, free.stats.clock.io_ns);
                assert!(io.0 > io.1, "{shape} must spill: io_ns {io:?}");
            }
            for workers in WORKER_GRID {
                let got = run_budgeted(&plan, workers, budget);
                assert_eq!(got.rows, volcano.rows, "{shape} rows at {workers}w");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "{shape} clock at {workers}w"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "{shape} I/O at {workers}w"
                );
            }
        }
    }
}

/// The pinned nested breakers: a sort on a hash join's build side, an
/// aggregate on a join's probe side, an aggregate over a grouped
/// aggregate, a merge join whose emit drops its left key (a `Sort` under
/// the `Project` that drops it) and an `ordered:` full scan under a
/// filter. Each sort and aggregate ends a phase of its own, read by the
/// next through an `Output` source.
fn nested_breaker_plans() -> [(&'static str, LogicalPlan); 5] {
    let t = |lo, hi| {
        LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, lo, hi))
                .with_access(AccessPathChoice::ForceFull),
        )
    };
    let r = || LogicalPlan::scan(ScanSpec::new("r", Predicate::True));
    let hash =
        |l: LogicalPlan, r, left_col| l.join(r, left_col, 0, JoinType::Inner, JoinStrategy::Hash);
    let counted = |p: LogicalPlan| p.aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Sum(0)]);
    let ordered = LogicalPlan::scan(
        ScanSpec::new("t", Predicate::int_half_open(1, 40, 260))
            .with_order()
            .with_access(AccessPathChoice::ForceFull),
    );
    [
        ("t ⋈ sort(r)", hash(t(30, 230), r().sort(vec![SortKey::desc(2)]), 1)),
        ("agg(t) ⋈ r", hash(counted(t(0, 300)), r(), 0)),
        (
            "agg(agg(t ⋈ r))",
            counted(hash(t(0, 200), r(), 1))
                .aggregate(vec![1], vec![AggFunc::Max(2), AggFunc::CountStar]),
        ),
        (
            "merge join, left key dropped",
            t(0, 250).join(r(), 1, 0, JoinType::Inner, JoinStrategy::Merge).project(vec![0, 4]),
        ),
        ("ordered full scan under a filter", ordered.filter(Predicate::int_lt(0, 700))),
    ]
}

/// No `Sort` or `HashAggregate` runs inside a shared source of `plan`'s
/// lowering but within an index join's subtree: wherever else it sits
/// it ends a phase of its own.
fn assert_breakers_end_phases(db: &Database, plan: &LogicalPlan, context: &str) {
    let Some(pipeline) = db.parallel_pipeline(plan).expect("plan lowers") else { return };
    for phase in &pipeline.phases {
        if let ParallelSource::Shared { op } = &phase.source {
            let label = op.label();
            let breaker = label.contains("Sort → ") || label.contains("HashAggregate");
            assert!(!breaker || label.starts_with("IndexNestedLoopJoin"), "{context}: {label}");
        }
    }
}

/// Every pinned nested breaker returns the tree drain's rows, virtual
/// clock and I/O counters at every pool width — unbudgeted, and under a
/// pinned 4 KiB budget the tree spills under — and lowers with no
/// `Sort` or `HashAggregate` left inside a shared source.
#[test]
fn nested_breakers_agree_across_drivers() {
    let spill = 4096;
    for (shape, plan) in nested_breaker_plans() {
        let db = database(900);
        assert_breakers_end_phases(&db, &plan, shape);
        let pipeline = db.parallel_pipeline(&plan).unwrap().expect("fans out");
        assert!(
            pipeline.phases.iter().any(|p| matches!(p.source, ParallelSource::Output)),
            "{shape} reads a breaker's output"
        );
        let free = run_volcano_budgeted(&plan, 0);
        assert!(!free.rows.is_empty(), "{shape} returns rows");
        for budget in [0, spill] {
            let volcano = run_volcano_budgeted(&plan, budget);
            let shape = format!("{shape} at budget {budget}");
            if budget == spill {
                let io = (volcano.stats.clock.io_ns, free.stats.clock.io_ns);
                assert!(io.0 > io.1, "{shape} must spill: io_ns {io:?}");
            }
            for workers in WORKER_GRID {
                let got = run_budgeted(&plan, workers, budget);
                assert_eq!(got.rows, volcano.rows, "{shape} rows at {workers}w");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "{shape} clock at {workers}w"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "{shape} I/O at {workers}w"
                );
            }
        }
    }
}

/// Inside an index join's subtree a breaker is still the tree's: the
/// join and its whole outer side are one shared source.
#[test]
fn a_sort_under_an_index_join_stays_in_its_shared_source() {
    let sorted =
        LogicalPlan::scan(ScanSpec::new("t", Predicate::int_lt(1, 40))).sort(vec![SortKey::asc(0)]);
    let inner = LogicalPlan::scan(ScanSpec::new("t", Predicate::True));
    let plan = sorted.join(inner, 1, 1, JoinType::Inner, JoinStrategy::IndexNestedLoop);
    let db = database(900);
    let label = db.explain(&plan).unwrap();
    assert!(label.starts_with("IndexNestedLoopJoin(Inner) [Sort → "), "{label}");
    assert!(db.parallel_pipeline(&plan).unwrap().is_none(), "one shared source");
    assert_breakers_end_phases(&db, &plan, "sort under an index join");
}
