//! Column pruning, held to the reference evaluator.
//!
//! `prune` rewrites a plan so that every scan decodes, and every join
//! gathers, only the columns the plan reads — and the engine runs
//! nothing but pruned plans, so no engine run can say what the unpruned
//! plan would have returned. The reference evaluator
//! ([`common::reference`]) can: it evaluates any `LogicalPlan`, narrowed
//! scans and emit lists included, over the plain `Vec<Row>`s the tables
//! were loaded from. So the rewrite is tested without executing anything:
//! `evaluate(prune(p)) == evaluate(p)`, row for row and in the same
//! order, `prune` is idempotent, and the root keeps its arity — over the
//! differential suite's random plans, and by hand for the shapes a remap
//! gets wrong. The hand cases also run the plan, which holds the
//! narrowed operators to the same reference.

mod common;

use common::plans::{access_strategy, agg_strategy, join_strategy, plan_for};
use common::reference::{evaluate, Tables};
use common::{schema, tables};
use proptest::prelude::*;
use smooth_planner::{prune, AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::StorageConfig;
use smoothscan::prelude::{AggFunc, JoinType, Predicate, SmoothScanConfig, SortKey};
use smoothscan::workload::{micro, tpch};

/// The fixture tables and a database over them (every table indexed on
/// `c1`, like the differential suite's).
fn fixture(rows: i64) -> (Tables, Database) {
    let tables = tables(rows);
    let mut db = Database::new(StorageConfig::default());
    for name in ["t", "r"] {
        db.load_table(name, schema(), tables[name].iter().cloned()).unwrap();
        db.create_index(name, 1, &format!("{name}_c1")).unwrap();
    }
    (tables, db)
}

/// The three engine-free properties of the rewrite, on one plan.
fn assert_prune_preserves(plan: &LogicalPlan, tables: &Tables, db: &Database) -> LogicalPlan {
    let pruned = prune(db.catalog(), plan);
    let (want, got) = (evaluate(plan, tables), evaluate(&pruned, tables));
    assert_eq!(got.rows, want.rows, "pruning changed the rows: {plan:?}\n→ {pruned:?}");
    assert_eq!(got.order, want.order, "pruning changed the defined order: {plan:?}");
    assert_eq!(prune(db.catalog(), &pruned), pruned, "prune is not idempotent: {plan:?}");
    pruned
}

/// Run `plan` (which the engine prunes) and hold the rows to the
/// reference evaluation of the plan as written.
fn assert_runs_like_reference(plan: &LogicalPlan, tables: &Tables, db: &Database) {
    let got = db.run(plan).unwrap().rows;
    evaluate(plan, tables).assert_matches(&got, &format!("{plan:?}"));
}

/// Something above the generated plan that reads only part of it, so
/// the remaps run: ordinals 0 and 1 exist — and 0 is an integer — under
/// every join and aggregate shape.
fn reader_above(plan: LogicalPlan, reader: usize) -> LogicalPlan {
    match reader {
        0 => plan,
        // The filter reads a column nothing above it reads.
        1 => plan.filter(Predicate::int_ge(0, 3)).project(vec![1]),
        // A projection that reorders, under a reader of its second output.
        2 => plan.project(vec![1, 0]).aggregate(vec![], vec![AggFunc::Count(1)]),
        // Sort keys nobody above reads.
        3 => plan.sort(vec![SortKey::desc(1), SortKey::asc(0)]).project(vec![0]),
        _ => plan.aggregate(vec![0], vec![AggFunc::Count(1)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruning_preserves_the_reference_result(
        access in access_strategy(),
        ordered in any::<bool>(),
        lo in 0i64..300,
        width in 0i64..330,
        residual in prop_oneof![2 => Just(None), 1 => (0i64..300).prop_map(Some)],
        join in join_strategy(),
        agg in agg_strategy(),
        reader in 0usize..5,
    ) {
        let (tables, db) = fixture(300);
        let plan = plan_for(&access, ordered, lo, width, residual, join, agg, &[]);
        let plan = reader_above(plan, reader);
        let pruned = assert_prune_preserves(&plan, &tables, &db);
        // The root needs everything: its operator emits what the
        // reference's rows hold, column for column.
        let arity = evaluate(&plan, &tables).rows.first().map(|r| r.len());
        let built = db.build(&pruned).unwrap();
        prop_assert!(arity.is_none_or(|n| n == built.schema().len()), "root arity: {plan:?}");
    }
}

fn scan(table: &str, pred: Predicate) -> LogicalPlan {
    LogicalPlan::scan(ScanSpec::new(table, pred).with_access(AccessPathChoice::ForceFull))
}

fn scan_cols(plan: &LogicalPlan) -> Option<Vec<usize>> {
    match plan {
        LogicalPlan::Scan(spec) => spec.cols.clone(),
        other => panic!("expected a scan, got {other:?}"),
    }
}

/// A filter above a join reads a column (`r.c2`, ordinal 6) that nothing
/// above the filter reads: the join must still emit it, the filter must
/// find it at its new ordinal, and the projection above must not see it.
#[test]
fn filter_above_a_join_keeps_its_own_column_alive() {
    let (tables, db) = fixture(300);
    for strategy in [JoinStrategy::Hash, JoinStrategy::IndexNestedLoop, JoinStrategy::Merge] {
        let plan = scan("t", Predicate::int_lt(1, 120))
            .join(scan("r", Predicate::True), 1, 1, JoinType::Inner, strategy)
            .filter(Predicate::int_lt(6, 50))
            .project(vec![0]);
        let pruned = assert_prune_preserves(&plan, &tables, &db);
        let LogicalPlan::Project { input, cols } = &pruned else { panic!("{pruned:?}") };
        let LogicalPlan::Filter { input, predicate } = input.as_ref() else { panic!("{pruned:?}") };
        let LogicalPlan::Join(join) = input.as_ref() else { panic!("{pruned:?}") };
        // t keeps c0 and the join key c1; the join emits t.c0 and r.c2.
        assert_eq!(scan_cols(&join.left), Some(vec![0, 1]));
        assert_eq!(join.emit, Some(vec![0, 4]));
        assert_eq!((join.left_col, join.right_col), (1, 1));
        assert_eq!(predicate, &Predicate::int_lt(1, 50));
        assert_eq!(cols, &vec![0]);
        // The staged exception: the right side keeps every column.
        assert_eq!(scan_cols(&join.right), None);
        assert_runs_like_reference(&plan, &tables, &db);
    }
}

/// The same table on both sides (Q7's two `nation`s): `c0` of the left
/// and `c0` of the right are different columns, and an aggregate reading
/// only the right one must not get the left one.
#[test]
fn the_same_table_twice_keeps_its_sides_apart() {
    let (tables, db) = fixture(300);
    let plan = scan("r", Predicate::int_lt(2, 60))
        .join(scan("r", Predicate::True), 0, 1, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![4], vec![AggFunc::Max(6), AggFunc::CountStar]);
    let pruned = assert_prune_preserves(&plan, &tables, &db);
    let LogicalPlan::Aggregate { input, group_cols, aggs } = &pruned else { panic!("{pruned:?}") };
    let LogicalPlan::Join(join) = input.as_ref() else { panic!("{pruned:?}") };
    // The left side is read for its join key alone; both outputs are
    // the right side's.
    assert_eq!(scan_cols(&join.left), Some(vec![0]));
    assert_eq!(join.emit, Some(vec![1, 3]));
    assert_eq!((group_cols, aggs), (&vec![0], &vec![AggFunc::Max(1), AggFunc::CountStar]));
    assert_runs_like_reference(&plan, &tables, &db);
}

/// A left-semi join emits left columns only, whatever its right side
/// carries; its emit list indexes the left side alone.
#[test]
fn a_semi_join_emits_from_its_left_side_only() {
    let (tables, db) = fixture(300);
    for strategy in [JoinStrategy::Hash, JoinStrategy::IndexNestedLoop] {
        let plan = scan("t", Predicate::int_lt(1, 200))
            .join(scan("r", Predicate::int_lt(2, 70)), 1, 1, JoinType::LeftSemi, strategy)
            .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(2)]);
        let pruned = assert_prune_preserves(&plan, &tables, &db);
        let LogicalPlan::Aggregate { input, aggs, .. } = &pruned else { panic!("{pruned:?}") };
        let LogicalPlan::Join(join) = input.as_ref() else { panic!("{pruned:?}") };
        assert_eq!(scan_cols(&join.left), Some(vec![1, 2]));
        assert_eq!((join.left_col, join.emit.clone()), (0, Some(vec![1])));
        assert_eq!(aggs, &vec![AggFunc::CountStar, AggFunc::Sum(0)]);
        assert_runs_like_reference(&plan, &tables, &db);
    }
}

/// An `ordered:` full scan resolves to a `Sort` on its range key: the
/// key survives a parent that never reads it, at whatever ordinal it
/// lands.
#[test]
fn an_ordered_scan_keeps_the_key_its_sort_wrap_needs() {
    let (tables, db) = fixture(300);
    let ordered = |access| {
        LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 40, 160))
                .with_order()
                .with_access(access),
        )
    };
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::default());
    for access in [AccessPathChoice::ForceFull, AccessPathChoice::ForceSort, smooth] {
        let plan = ordered(access.clone()).project(vec![3, 0]);
        let pruned = assert_prune_preserves(&plan, &tables, &db);
        let LogicalPlan::Project { input, cols } = &pruned else { panic!("{pruned:?}") };
        assert_eq!(scan_cols(input), Some(vec![0, 1, 3]), "c1 is the key");
        assert_eq!(cols, &vec![2, 0]);
        // The projection drops the key, so the reference can no longer
        // name the order; the same scan with the key kept can, and the
        // engine (a stable sort over heap order, or the index's order)
        // must emit the same sequence either way.
        let c0 = |p: &LogicalPlan, col: usize| -> Vec<i64> {
            db.run(p).unwrap().rows.iter().map(|r| r.int(col).unwrap()).collect()
        };
        let with_key = ordered(access.clone()).project(vec![0, 1]);
        assert_runs_like_reference(&with_key, &tables, &db);
        assert_eq!(c0(&plan, 1), c0(&with_key, 0), "sequence with the key dropped: {access:?}");
        assert_runs_like_reference(&plan, &tables, &db);
    }
}

/// A projection that reorders (and one that repeats nothing but skips):
/// outputs keep their order while their inputs renumber.
#[test]
fn a_reordering_projection_renumbers_its_inputs_only() {
    let (tables, db) = fixture(300);
    let plan = scan("t", Predicate::int_lt(0, 150)).project(vec![3, 2, 0]).project(vec![2, 0]);
    let pruned = assert_prune_preserves(&plan, &tables, &db);
    let LogicalPlan::Project { input: outer_in, cols: outer } = &pruned else { panic!() };
    let LogicalPlan::Project { input, cols: inner } = outer_in.as_ref() else { panic!() };
    assert_eq!(scan_cols(input), Some(vec![0, 3]));
    assert_eq!((inner, outer), (&vec![1, 0], &vec![1, 0]));
    assert_runs_like_reference(&plan, &tables, &db);
}

/// One column under two aggregates (and as the group key) is one
/// column of the input, named three times.
#[test]
fn an_aggregate_naming_one_column_twice_asks_for_it_once() {
    let (tables, db) = fixture(300);
    let plan = scan("t", Predicate::int_lt(0, 250)).aggregate(
        vec![2],
        vec![AggFunc::Avg(1), AggFunc::Sum(1), AggFunc::Count(2), AggFunc::SumProduct(1, 2)],
    );
    let pruned = assert_prune_preserves(&plan, &tables, &db);
    let LogicalPlan::Aggregate { input, group_cols, aggs } = &pruned else { panic!("{pruned:?}") };
    assert_eq!(scan_cols(input), Some(vec![1, 2]));
    assert_eq!(group_cols, &vec![1]);
    let expected = [AggFunc::Avg(0), AggFunc::Sum(0), AggFunc::Count(1), AggFunc::SumProduct(0, 1)];
    assert_eq!(aggs[..], expected[..]);
    assert_runs_like_reference(&plan, &tables, &db);
}

/// `COUNT(*)` reads no column at all: scans emit zero-width morsels —
/// rows without columns — through every access path, through both join
/// kinds and under both budgets, and the count is still right. An
/// `ordered:` scan keeps only the key it is ordered by.
#[test]
fn count_star_reads_no_column() {
    let (tables, mut db) = fixture(300);
    let range = Predicate::int_half_open(1, 20, 220);
    let accesses = [
        (AccessPathChoice::ForceFull, false),
        (AccessPathChoice::ForceIndex, false),
        (AccessPathChoice::ForceSort, false),
        (AccessPathChoice::Smooth(SmoothScanConfig::default()), false),
        (AccessPathChoice::Smooth(SmoothScanConfig::default()), true),
        (AccessPathChoice::Switch { estimate: 30 }, false),
    ];
    for (access, ordered) in accesses {
        let spec = ScanSpec::new("t", range.clone()).with_access(access);
        let t = LogicalPlan::scan(if ordered { spec.with_order() } else { spec });
        let count = |p: LogicalPlan| p.aggregate(vec![], vec![AggFunc::CountStar]);
        let pruned = assert_prune_preserves(&count(t.clone()), &tables, &db);
        let LogicalPlan::Aggregate { input, .. } = &pruned else { panic!("{pruned:?}") };
        assert_eq!(scan_cols(input), Some(if ordered { vec![1] } else { vec![] }));
        for budget in [0, 2048] {
            db.set_mem_bytes(budget);
            assert_runs_like_reference(&count(t.clone()), &tables, &db);
            for strategy in [JoinStrategy::Hash, JoinStrategy::IndexNestedLoop] {
                for ty in [JoinType::Inner, JoinType::LeftSemi] {
                    let joined = t.clone().join(scan("r", Predicate::True), 1, 1, ty, strategy);
                    assert_runs_like_reference(&count(joined), &tables, &db);
                }
            }
        }
    }
}

/// The root needs every column: a scan at the root is left alone, and so
/// is a plan the pass cannot follow (the run reports its error).
#[test]
fn a_root_scan_and_a_broken_plan_come_back_unchanged() {
    let (tables, db) = fixture(300);
    let root = scan("t", Predicate::int_half_open(1, 10, 90));
    assert_eq!(assert_prune_preserves(&root, &tables, &db), root);
    // A hand-narrowed scan is respected, and full-width lists normalize.
    let LogicalPlan::Scan(spec) = &root else { unreachable!() };
    let narrowed =
        |cols: Vec<usize>| LogicalPlan::Scan(ScanSpec { cols: Some(cols), ..spec.clone() });
    assert_eq!(assert_prune_preserves(&narrowed(vec![1, 3]), &tables, &db), narrowed(vec![1, 3]));
    assert_eq!(prune(db.catalog(), &narrowed(vec![0, 1, 2, 3])), root);
    assert_runs_like_reference(&narrowed(vec![1, 3]), &tables, &db);
    for broken in [
        scan("nope", Predicate::True).project(vec![0]),
        root.clone().project(vec![7]),
        root.clone().filter(Predicate::int_lt(9, 0)).project(vec![0]),
        narrowed(vec![3, 1]).project(vec![0]),
    ] {
        assert_eq!(prune(db.catalog(), &broken), broken);
        assert!(db.run(&broken).is_err(), "{broken:?}");
    }
}

/// `EXPLAIN` shows the narrowing, so a pass that silently stops pruning
/// fails here and not in a benchmark: TPC-H Q7 carries four LINEITEM
/// columns into its five joins, and the micro self-join one.
#[test]
fn explain_pins_the_narrowing_of_q7_and_the_micro_self_join() {
    let mut db = Database::new(StorageConfig::default());
    micro::install(&mut db, 2_000, 7).unwrap();
    tpch::install(&mut db, tpch::Scale::tiny()).unwrap();
    tpch::gen::create_tuning_indexes(&mut db).unwrap();
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    let q7 = db.explain(&tpch::queries::Fig4Query::Q7.plan(smooth)).unwrap();
    let expected = "HashAggregate(groups=[2, 3]) → Filter → \
        HashJoin(Inner, emit 4 of 7) [HashJoin(Inner, emit 4 of 7) [\
        HashJoin(Inner, emit 4 of 7) [HashJoin(Inner, emit 4 of 8) [\
        IndexNestedLoopJoin(Inner, emit 4 of 10) [\
        SmoothScan(lineitem via l_shipdate_idx, Elastic, Eager)\
        [l_orderkey, l_suppkey, l_extendedprice, l_discount] ⋈ orders via orders_pk] \
        ⋈ FullTableScan(customer)] ⋈ FullTableScan(supplier)] \
        ⋈ FullTableScan(nation)] ⋈ FullTableScan(nation)]";
    assert_eq!(q7, expected);
    let probe = micro::query(1.0, false, AccessPathChoice::ForceFull);
    let build = micro::query(0.1, false, AccessPathChoice::ForceFull);
    let join_sel10 = probe
        .join(build, micro::C2, micro::C2, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]);
    let label = db.explain(&join_sel10).unwrap();
    let expected = "HashAggregate(groups=[]) → HashJoin(Inner, emit 1 of 13) \
                    [FullTableScan(micro)[c1, c2] ⋈ FullTableScan(micro)]";
    assert_eq!(label, expected);
}
