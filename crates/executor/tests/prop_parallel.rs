//! Property tests for the morsel-driven parallel driver: for arbitrary
//! data, predicates, worker counts and morsel sizes, the parallel
//! pipeline must produce the **exact row sequence** of the
//! single-threaded columnar driver over the equivalent operator tree,
//! and charge the **exact same virtual CPU/IO clock totals** and I/O
//! counters. This extends PR 3's protocol-equivalence harness from
//! iterator protocols to the worker pool: parallelism, like batching,
//! must be an execution-strategy change only.

use std::sync::Arc;

use proptest::prelude::*;
use smooth_executor::operator::ValuesOp;
use smooth_executor::parallel::{
    run_pipeline, ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec, SinkSpec, StageSpec,
};
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::{
    batch_size, collect_rows, AggFunc, Filter, FullTableScan, HashAggregate, HashJoin, JoinType,
    Operator, Predicate, Project, Scheduler,
};
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn build_table(keys: &[i64]) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = smooth_storage::HeapLoader::new_mem("t", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(60))]))
            .unwrap();
    }
    Arc::new(l.finish().unwrap())
}

fn storage(pool: usize) -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: pool,
    })
}

fn heap_source(
    heap: &Arc<HeapFile>,
    s: &Storage,
    predicate: Predicate,
    readahead: u32,
) -> ParallelSource {
    let scan = FullTableScan::new(Arc::clone(heap), s.clone(), predicate);
    ParallelSource::Heap(Box::new(scan.with_readahead(readahead)))
}

/// The last phase: `source` through `stages` into a collect sink.
fn sink_phase(source: ParallelSource, stages: Vec<StageSpec>) -> PhaseSpec {
    PhaseSpec { source, stages, sink: SinkSpec::Collect }
}

/// Drain a serial operator through the columnar protocol at a fixed
/// morsel size (so shared-source comparisons see identical pull
/// boundaries).
fn collect_serial(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        rows.extend(batch.into_rows());
    }
    op.close().unwrap();
    rows
}

/// Assert rows, clock totals and I/O counters all match between a
/// serial run and a parallel run.
fn assert_equal_runs(
    serial: (&[Row], &Storage),
    parallel: (&[Row], &Storage),
    context: &str,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(parallel.0 == serial.0, "row sequence diverges: {context}");
    prop_assert!(
        parallel.1.clock().snapshot() == serial.1.clock().snapshot(),
        "virtual clock totals diverge: {context}"
    );
    prop_assert!(
        parallel.1.io_snapshot() == serial.1.io_snapshot(),
        "I/O counters diverge: {context}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioned heap source with filter + projection stages: parallel
    /// ≡ serial for every worker count and readahead partitioning.
    #[test]
    fn heap_pipeline_equals_serial(
        keys in proptest::collection::vec(0i64..300, 1..1200),
        lo in 0i64..300,
        width in 0i64..330,
        pool in 8usize..64,
        readahead in prop_oneof![Just(1u32), Just(3u32), Just(8u32), Just(FULL_SCAN_READAHEAD)],
    ) {
        let heap = build_table(&keys);
        let hi = lo + width;
        let pred = Predicate::int_half_open(1, lo, hi);
        let s_serial = storage(pool);
        let mut serial_op = Project::new(
            Box::new(Filter::new(
                Box::new(
                    FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)
                        .with_readahead(readahead),
                ),
                pred.clone(),
            )),
            vec![1, 0],
        )
        .unwrap();
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(pool);
            let pipeline = ParallelPipeline {
                phases: vec![sink_phase(
                    heap_source(&heap, &s_par, Predicate::True, readahead),
                    vec![StageSpec::Filter(pred.clone()), StageSpec::Project(vec![1, 0])],
                )],
                storage: s_par.clone(),
                morsel_rows: batch_size(),
                mem_bytes: 0,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("heap pipeline, {workers} workers, readahead {readahead}"),
            )?;
        }
    }

    /// A predicate pushed *into* the partitioned scan (per-worker
    /// ScanFilter state) behaves exactly like the serial pushed-down scan.
    #[test]
    fn pushed_predicate_heap_scan_equals_serial(
        keys in proptest::collection::vec(0i64..200, 1..1000),
        hi in 0i64..220,
        residual_hi in 0i64..900,
    ) {
        let heap = build_table(&keys);
        let pred = Predicate::and(vec![
            Predicate::int_half_open(1, 0, hi),
            Predicate::int_lt(0, residual_hi),
        ]);
        let s_serial = storage(32);
        let mut serial_op =
            FullTableScan::new(Arc::clone(&heap), s_serial.clone(), pred.clone());
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                phases: vec![sink_phase(
                    heap_source(&heap, &s_par, pred.clone(), FULL_SCAN_READAHEAD),
                    Vec::new(),
                )],
                storage: s_par.clone(),
                morsel_rows: batch_size(),
                mem_bytes: 0,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("pushed-predicate scan, {workers} workers"),
            )?;
        }
    }

    /// A whole operator as a *shared* source (the serial-section fallback)
    /// with a filter stage above, across morsel sizes: a full table scan
    /// over the key range, not partitioned. (`prop_parallel_core` covers
    /// Smooth Scan, Index, Sort and Switch Scan included, as a shared
    /// source.)
    #[test]
    fn shared_scan_sources_equal_serial(
        keys in proptest::collection::vec(0i64..150, 1..700),
        lo in 0i64..150,
        width in 0i64..170,
        max in 1usize..90,
    ) {
        let heap = build_table(&keys);
        let (range, residual) = (Predicate::int_half_open(1, lo, lo + width), Predicate::int_ge(0, 0));
        let mk_scan = |s: &Storage| -> Box<dyn Operator + Send> {
            Box::new(FullTableScan::new(Arc::clone(&heap), s.clone(), range.clone()))
        };
        let s_serial = storage(16);
        let mut serial_op = Filter::new(mk_scan(&s_serial), residual.clone());
        let expected = collect_serial(&mut serial_op, max);
        for workers in WORKER_GRID {
            let s_par = storage(16);
            let pipeline = ParallelPipeline {
                phases: vec![sink_phase(
                    ParallelSource::Shared { op: mk_scan(&s_par) },
                    vec![StageSpec::Filter(residual.clone())],
                )],
                storage: s_par.clone(),
                morsel_rows: max,
                mem_bytes: 0,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("shared full scan, {workers} workers, max {max}"),
            )?;
        }
    }

    /// Hash-join probe stage (inner and semi) above the partitioned heap
    /// source ≡ the serial HashJoin over the same inputs.
    #[test]
    fn probe_pipeline_equals_serial_hash_join(
        keys in proptest::collection::vec(0i64..80, 1..600),
        right in proptest::collection::vec((0i64..80, -50i64..50), 0..120),
        semi in any::<bool>(),
    ) {
        let heap = build_table(&keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let right_schema = Schema::new(vec![
            Column::new("rk", DataType::Int64),
            Column::new("rv", DataType::Int64),
        ])
        .unwrap();
        let right_rows: Vec<Row> = right
            .iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
            .collect();
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
            1,
            0,
            ty,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                phases: vec![
                    PhaseSpec {
                        source: ParallelSource::Shared {
                            op: Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
                        },
                        stages: Vec::new(),
                        sink: SinkSpec::Build(PhaseBuild {
                            right_col: 0,
                            left_col: 1,
                            ty,
                            emit: None,
                        }),
                    },
                    sink_phase(
                        heap_source(&heap, &s_par, Predicate::True, FULL_SCAN_READAHEAD),
                        vec![StageSpec::Probe(0)],
                    ),
                ],
                storage: s_par.clone(),
                morsel_rows: batch_size(),
                mem_bytes: smooth_executor::mem_budget_bytes(),
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("{ty:?} probe, {workers} workers"),
            )?;
        }
    }

    /// Partial aggregation with per-worker maps + first-seen merge ≡ the
    /// serial HashAggregate, including group emission order.
    #[test]
    fn partial_aggregate_equals_serial(
        keys in proptest::collection::vec(0i64..40, 1..800),
        scalar in any::<bool>(),
        filtered_hi in 0i64..45,
    ) {
        let heap = build_table(&keys);
        let group_cols: Vec<usize> = if scalar { vec![] } else { vec![1] };
        let aggs = vec![
            AggFunc::CountStar,
            AggFunc::Count(1),
            AggFunc::Sum(0),
            AggFunc::Avg(0),
            AggFunc::Min(0),
            AggFunc::Max(0),
            AggFunc::SumProduct(0, 1),
        ];
        let pred = Predicate::int_lt(1, filtered_hi);
        let s_serial = storage(32);
        let mut serial_op = HashAggregate::new(
            Box::new(Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                pred.clone(),
            )),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                phases: vec![PhaseSpec {
                    sink: SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() },
                    ..sink_phase(
                        heap_source(&heap, &s_par, Predicate::True, FULL_SCAN_READAHEAD),
                        vec![StageSpec::Filter(pred.clone())],
                    )
                }],
                storage: s_par.clone(),
                morsel_rows: batch_size(),
                mem_bytes: 0,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("partial agg (scalar={scalar}), {workers} workers"),
            )?;
        }
    }
}

/// A grouped aggregate below the root hands the next phase its groups in
/// morsels of `morsel_rows`, as the tree's `HashAggregate` emits them, so
/// the stages above it fan out: 300 groups at 64 rows a morsel reach the
/// projection above as five morsels — five collected batches — with the
/// tree's rows, clock and I/O counters.
#[test]
fn a_nested_aggregate_hands_on_its_groups_in_morsels() {
    let heap = build_table(&Vec::from_iter((0..500).map(|i| i % 300)));
    let (group_cols, aggs) = (vec![1], vec![AggFunc::CountStar, AggFunc::Max(0)]);
    let s_serial = storage(16);
    let scan = FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True);
    let agg =
        HashAggregate::new(Box::new(scan), group_cols.clone(), aggs.clone(), s_serial.clone());
    let mut tree = Project::new(Box::new(agg.unwrap()), vec![2, 0]).unwrap();
    let expected = collect_serial(&mut tree, 64);
    for workers in WORKER_GRID {
        let s_par = storage(16);
        let source = heap_source(&heap, &s_par, Predicate::True, FULL_SCAN_READAHEAD);
        let sink = SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() };
        let grouped = PhaseSpec { source, stages: Vec::new(), sink };
        let projected = sink_phase(ParallelSource::Output, vec![StageSpec::Project(vec![2, 0])]);
        let (phases, storage) = (vec![grouped, projected], s_par.clone());
        let pipeline = ParallelPipeline { phases, storage, morsel_rows: 64, mem_bytes: 0 };
        let out = Scheduler::new(workers, 1).submit(pipeline).unwrap().wait().unwrap();
        assert_eq!(out.batches.len(), 5, "{workers} workers");
        let got = out.into_rows();
        assert_equal_runs((&expected, &s_serial), (&got, &s_par), &format!("{workers} workers"))
            .unwrap();
    }
}

/// The tree's `HashAggregate` and the pool's exact-merge aggregate sink
/// over `keys` (rows with `c1 < hi`), grouped by `group_cols`: equal
/// rows in equal order, clock and I/O counters at every worker count.
/// Every aggregate here merges exactly, so the pool folds per-slot
/// partials and merges them partition by partition.
fn assert_exact_merge_equals_tree(keys: &[i64], group_cols: &[usize], hi: i64) -> usize {
    let heap = build_table(keys);
    let aggs = vec![
        AggFunc::CountStar,
        AggFunc::Count(1),
        AggFunc::Sum(0),
        AggFunc::Avg(1),
        AggFunc::Min(0),
        AggFunc::Max(2),
        AggFunc::SumProduct(0, 1),
    ];
    let pred = Predicate::int_lt(1, hi);
    let s_serial = storage(32);
    let scan = FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True);
    let filtered = Box::new(Filter::new(Box::new(scan), pred.clone()));
    let tree = HashAggregate::new(filtered, group_cols.to_vec(), aggs.clone(), s_serial.clone());
    let expected = collect_rows(&mut tree.unwrap()).unwrap();
    for workers in WORKER_GRID {
        let s_par = storage(32);
        let source = heap_source(&heap, &s_par, Predicate::True, FULL_SCAN_READAHEAD);
        let phase = PhaseSpec {
            sink: SinkSpec::Aggregate { group_cols: group_cols.to_vec(), aggs: aggs.clone() },
            ..sink_phase(source, vec![StageSpec::Filter(pred.clone())])
        };
        let (phases, storage) = (vec![phase], s_par.clone());
        let pipeline =
            ParallelPipeline { phases, storage, morsel_rows: batch_size(), mem_bytes: 0 };
        let got = run_pipeline(pipeline, workers).unwrap();
        let context = format!("{} groups by {group_cols:?}, {workers} workers", expected.len());
        assert_equal_runs((&expected, &s_serial), (&got, &s_par), &context).unwrap();
    }
    expected.len()
}

/// Exact-merge partials at group counts from one to well past the
/// partition count — one group per partition at most, about one per
/// partition, many per partition — and past the count at which a slot
/// splits into partitions, so some slots split and some do not (6k) or
/// all do (20k); grouped on an integer and on an integer plus a text
/// column: the tree's rows, first-seen order, clock and I/O.
#[test]
fn exact_merge_aggregate_equals_tree_at_every_group_count() {
    for groups in [1i64, 6, 16, 64, 160, 640, 6_000, 20_000] {
        // A stride coprime to every count shuffles first occurrences
        // across morsels and partitions.
        let rows = groups.max(3_000) + groups / 5;
        let keys = Vec::from_iter((0..rows).map(|i| i * 7_919 % groups));
        for group_cols in [vec![1], vec![1, 2]] {
            let seen = assert_exact_merge_equals_tree(&keys, &group_cols, i64::MAX);
            assert_eq!(seen, groups as usize, "{groups} groups by {group_cols:?}");
        }
    }
}

/// Groups first seen only in the last morsel — every earlier morsel
/// repeats five keys — still take the tree's first-seen places.
#[test]
fn exact_merge_places_groups_first_seen_in_the_last_morsel() {
    let mut keys = Vec::from_iter((0..4_000).map(|i| i % 5));
    keys.extend((0..40).map(|i| 1_000 - i));
    assert_eq!(assert_exact_merge_equals_tree(&keys, &[1], i64::MAX), 45);
}

/// Over empty input a scalar aggregate still yields its one row, and a
/// grouped one none, on the pool as in the tree.
#[test]
fn exact_merge_aggregate_over_empty_input() {
    let keys = Vec::from_iter(0..500);
    assert_eq!(assert_exact_merge_equals_tree(&keys, &[], 0), 1);
    assert_eq!(assert_exact_merge_equals_tree(&keys, &[1], 0), 0);
}
