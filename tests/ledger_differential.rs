//! THROW-AWAY (ISSUE 15): the scheduler-recorded `ScalingLedger` must
//! equal the one `run_inline` records, field for field, before
//! `run_inline` is deleted. Removed in the same PR.

use std::sync::Arc;

use smooth_executor::operator::ValuesOp;
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    batch_size, run_pipeline_traced, run_pipeline_traced_sched, AggFunc, BuildSpec, FullTableScan,
    JoinType, ParallelPipeline, ParallelSource, Predicate, ScalingLedger, SinkSpec, StageSpec,
    BUILD_PARTITIONS,
};
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};
use smooth_workload::micro;

fn assert_ledgers_equal(what: &str, a: &ScalingLedger, b: &ScalingLedger) {
    assert_eq!(a.prefix_ns, b.prefix_ns, "{what}: prefix_ns");
    assert_eq!(a.build_src_ns, b.build_src_ns, "{what}: build_src_ns");
    assert_eq!(a.build_bounds, b.build_bounds, "{what}: build_bounds");
    assert_eq!(a.build_proc_ns, b.build_proc_ns, "{what}: build_proc_ns");
    assert_eq!(a.src_ns, b.src_ns, "{what}: src_ns");
    assert_eq!(a.proc_ns, b.proc_ns, "{what}: proc_ns");
    assert_eq!(a.sink_ns, b.sink_ns, "{what}: sink_ns");
    assert_eq!(a.suffix_ns, b.suffix_ns, "{what}: suffix_ns");
    assert_eq!(a.build_chunked, b.build_chunked, "{what}: build_chunked");
    assert_eq!(a.src_chunked, b.src_chunked, "{what}: src_chunked");
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 64,
    })
}

fn table(rows: i64) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut loader = HeapLoader::new_mem("t", schema);
    for i in 0..rows {
        let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
        loader
            .push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(30))]))
            .unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

fn float_table() -> Arc<HeapFile> {
    let schema =
        Schema::new(vec![Column::new("g", DataType::Int64), Column::new("v", DataType::Float64)])
            .unwrap();
    let mut loader = HeapLoader::new_mem("f", schema);
    for i in 0..1500i64 {
        let v = (i as f64) * 0.3 + 0.1234567 * ((i % 7) as f64);
        loader.push(&Row::new(vec![Value::Int(i % 13), Value::Float(v)])).unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

/// Pages per heap morsel (2 gives the small tables enough morsels for
/// guided claims to chunk).
static READAHEAD: std::sync::atomic::AtomicU32 =
    std::sync::atomic::AtomicU32::new(FULL_SCAN_READAHEAD);

fn heap_source(heap: &Arc<HeapFile>, predicate: Predicate) -> ParallelSource {
    let readahead = READAHEAD.load(std::sync::atomic::Ordering::Relaxed);
    ParallelSource::Heap { heap: Arc::clone(heap), predicate, readahead }
}

fn heap_pipeline(heap: &Arc<HeapFile>, s: &Storage, stages: Vec<StageSpec>) -> ParallelPipeline {
    ParallelPipeline {
        source: heap_source(heap, Predicate::True),
        builds: Vec::new(),
        stages,
        sink: SinkSpec::Collect,
        storage: s.clone(),
        morsel_rows: batch_size(),
    }
}

fn heap_build(
    heap: &Arc<HeapFile>,
    pred: Predicate,
    ty: JoinType,
    at: usize,
    mem: usize,
) -> BuildSpec {
    BuildSpec {
        source: heap_source(heap, pred),
        stages: Vec::new(),
        right_col: 1,
        left_col: 1,
        ty,
        partitions: BUILD_PARTITIONS,
        mem_bytes: mem,
        open_at: at,
        open_order: at,
    }
}

/// Run `make` on two fresh storages, once per tracer, and compare.
fn check_literal(what: &str, make: impl Fn(&Storage) -> ParallelPipeline) {
    let (sa, sb) = (storage(), storage());
    let (rows_a, inline) = run_pipeline_traced(make(&sa)).unwrap();
    let (rows_b, sched) = run_pipeline_traced_sched(make(&sb)).unwrap();
    assert_eq!(rows_a, rows_b, "{what}: rows");
    assert_eq!(sa.clock().snapshot(), sb.clock().snapshot(), "{what}: clock");
    assert!(!inline.src_ns.is_empty(), "{what}: traced something");
    eprintln!("{what}: {} + {} morsels", inline.build_src_ns.len(), inline.src_ns.len());
    assert_ledgers_equal(what, &inline, &sched);
}

#[test]
fn literal_pipelines_trace_identically() {
    let heap = table(3000);
    let probe = table(900);
    let build_a = table(1500);
    let build_b = table(1200);
    let floats = float_table();
    for (mem, readahead) in
        [(0usize, FULL_SCAN_READAHEAD), (16384, FULL_SCAN_READAHEAD), (0, 2), (16384, 1)]
    {
        READAHEAD.store(readahead, std::sync::atomic::Ordering::Relaxed);
        check_literal("heap", |s| {
            heap_pipeline(&heap, s, vec![StageSpec::Filter(Predicate::int_lt(1, 500))])
        });
        check_literal("shared", |s| ParallelPipeline {
            source: ParallelSource::Shared {
                op: Box::new(FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True)),
            },
            stages: vec![
                StageSpec::Filter(Predicate::int_half_open(1, 100, 700)),
                StageSpec::Project(vec![1, 0]),
            ],
            ..heap_pipeline(&heap, s, Vec::new())
        });
        check_literal("single build", |s| {
            let mut p = heap_pipeline(&probe, s, vec![StageSpec::Probe(0)]);
            p.builds.push(heap_build(
                &build_a,
                Predicate::int_half_open(1, 0, 400),
                JoinType::Inner,
                0,
                mem,
            ));
            p
        });
        check_literal("values build", |s| {
            let schema = Schema::new(vec![
                Column::new("rk", DataType::Int64),
                Column::new("rv", DataType::Int64),
            ])
            .unwrap();
            let rows: Vec<Row> = (0..500)
                .map(|i| Row::new(vec![Value::Int((i * 7) % 1000), Value::Int(i)]))
                .collect();
            let mut p = heap_pipeline(&probe, s, vec![StageSpec::Probe(0)]);
            p.builds.push(BuildSpec {
                source: ParallelSource::Shared { op: Box::new(ValuesOp::new(schema, rows)) },
                right_col: 0,
                ..heap_build(&build_a, Predicate::True, JoinType::LeftSemi, 0, mem)
            });
            p
        });
        check_literal("chained builds", |s| {
            let mut p = heap_pipeline(&probe, s, vec![StageSpec::Probe(0), StageSpec::Probe(1)]);
            for (bi, h) in [&build_a, &build_b].into_iter().enumerate() {
                p.builds.push(heap_build(
                    h,
                    Predicate::int_half_open(1, 0, 40),
                    JoinType::LeftSemi,
                    bi,
                    mem,
                ));
            }
            p
        });
        check_literal("exact agg", |s| ParallelPipeline {
            sink: SinkSpec::Aggregate {
                group_cols: vec![1],
                aggs: vec![AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Min(0), AggFunc::Max(0)],
                merge_exact: true,
            },
            ..heap_pipeline(&heap, s, Vec::new())
        });
        check_literal("ordered float agg", |s| ParallelPipeline {
            sink: SinkSpec::Aggregate {
                group_cols: vec![0],
                aggs: vec![AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::CountStar],
                merge_exact: false,
            },
            ..heap_pipeline(&floats, s, Vec::new())
        });
        check_literal("sort sink", |s| ParallelPipeline {
            source: heap_source(&heap, Predicate::int_half_open(1, 40, 260)),
            sink: SinkSpec::Sort { keys: vec![SortKey::asc(1)], mem_bytes: mem },
            ..heap_pipeline(&heap, s, Vec::new())
        });
    }
}

fn scramble(i: i64, m: i64) -> i64 {
    (i.wrapping_mul(2654435761) % m + m) % m
}

/// The database of `tests/prop_differential.rs`.
fn database(rows: i64, mem: usize) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    })
    .with_mem_bytes(mem);
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

/// Lower `plan` twice on `db`, cold-run it once per tracer, compare.
fn check_plan(what: &str, db: &Database, plan: &LogicalPlan) {
    let lower = || db.parallel_pipeline(plan).expect("plan builds").expect("plan parallelizes");
    db.storage().flush_pool();
    let c0 = db.storage().clock().snapshot();
    let (rows_a, inline) = run_pipeline_traced(lower()).unwrap();
    let c1 = db.storage().clock().snapshot();
    db.storage().flush_pool();
    let (rows_b, sched) = run_pipeline_traced_sched(lower()).unwrap();
    let c2 = db.storage().clock().snapshot();
    assert_eq!(rows_a, rows_b, "{what}: rows");
    assert_eq!(c1.since(&c0), c2.since(&c1), "{what}: clock");
    assert_ledgers_equal(what, &inline, &sched);
}

#[test]
fn lowered_plans_trace_identically() {
    for mem in [0usize, 16384] {
        let db = database(900, mem);
        let ordered = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 40, 40 + 220))
                .with_order()
                .with_access(AccessPathChoice::ForceFull),
        );
        check_plan("ordered scan", &db, &ordered);
        let inner = LogicalPlan::scan(ScanSpec::new("r", Predicate::int_lt(2, 250))).join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 150))),
            1,
            1,
            JoinType::Inner,
            JoinStrategy::Hash,
        );
        let bushy = LogicalPlan::scan(ScanSpec::new(
            "t",
            Predicate::int_half_open(1, 30, 30 + 200),
        ))
        .join(inner, 1, 0, JoinType::Inner, JoinStrategy::Hash);
        check_plan("bushy", &db, &bushy);
        // A shared (Smooth Scan) probe source under an aggregate sink,
        // and a shared build source.
        let smooth = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 10, 120))
                .with_access(AccessPathChoice::Smooth(Default::default())),
        );
        check_plan(
            "smooth agg",
            &db,
            &smooth.clone().aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Sum(0)]),
        );
        check_plan(
            "smooth build",
            &db,
            &LogicalPlan::scan(ScanSpec::new("r", Predicate::True)).join(
                smooth,
                1,
                1,
                JoinType::LeftSemi,
                JoinStrategy::Hash,
            ),
        );
    }
}

#[test]
fn experiment_plans_trace_identically() {
    // The `parallel`, `join` and `serve` experiments' plans, on their
    // NVMe-like profile at the CI smoke scale.
    let rows = 40_000u64;
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("nvme", 3_000, 6_000),
        cpu: CpuCosts::default(),
        pool_pages: ((rows / 90 / 16) as usize).clamp(64, 8192),
    })
    .with_mem_bytes(0);
    micro::install(&mut db, rows, 0xC2).unwrap();
    let scan = micro::query(0.1, false, AccessPathChoice::ForceFull);
    let agg = scan.clone().aggregate(
        vec![],
        vec![AggFunc::CountStar, AggFunc::Sum(2), AggFunc::Min(0), AggFunc::Max(0)],
    );
    let group = micro::query(0.01, false, AccessPathChoice::ForceFull)
        .aggregate(vec![micro::C2], vec![AggFunc::Avg(2), AggFunc::CountStar]);
    let join = micro::query(1.0, false, AccessPathChoice::ForceFull)
        .join(
            LogicalPlan::scan(
                ScanSpec::new(micro::TABLE, micro::predicate(0.1))
                    .with_access(AccessPathChoice::ForceFull),
            ),
            micro::C2,
            micro::C2,
            JoinType::Inner,
            JoinStrategy::Hash,
        )
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]);
    for (what, plan) in [("scan", scan), ("agg", agg), ("group", group), ("join", join)] {
        check_plan(what, &db, &plan);
    }
}
