//! Property tests: the morsel-driven parallel driver over *adaptive*
//! sources. Smooth Scan, under every trigger (Index Scan's, Sort Scan's
//! and Switch Scan's included), runs as the pipeline's serial shared
//! source — its morph decisions,
//! caches and per-probe region accounting stay centralized in the one
//! operator instance — while filter and partial-aggregate stages fan out
//! across the worker pool.
//! For every policy, trigger, order mode, worker count and morsel size,
//! the parallel run must produce the exact row sequence of the
//! single-threaded columnar driver and charge the exact same virtual
//! CPU/IO clock totals, *including across mid-scan mode switches*.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use smooth_core::{PolicyKind, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::parallel::{
    run_pipeline, ParallelPipeline, ParallelSource, PhaseSpec, SinkSpec, StageSpec,
};
use smooth_executor::{AggFunc, BoxedOperator, Filter, HashAggregate, Operator, Predicate};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn build_table(keys: &[i64]) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("t", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(70))]))
            .unwrap();
    }
    let heap = Arc::new(l.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
    (heap, index)
}

fn storage(pool: usize) -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: pool,
    })
}

/// Drain a serial operator columnar-only at a fixed morsel size, so the
/// shared-source parallel run sees identical pull boundaries.
fn collect_serial(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        rows.extend(batch.into_rows());
    }
    op.close().unwrap();
    rows
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Greedy),
        Just(PolicyKind::SelectivityIncrease),
        Just(PolicyKind::Elastic),
    ]
}

/// Run `source` under the parallel driver with a filter stage (and
/// optionally a partial-aggregate sink) at every worker count, asserting
/// rows and clock totals against the serial stack built by `mk_serial`.
#[allow(clippy::type_complexity)]
fn check_against_serial(
    mk_source: &dyn Fn(&Storage) -> BoxedOperator,
    stage_pred: &Predicate,
    aggregate: bool,
    pool: usize,
    max: usize,
) -> std::result::Result<(), TestCaseError> {
    let aggs = vec![AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Min(0), AggFunc::Max(1)];
    let s_serial = storage(pool);
    let filtered: BoxedOperator = Box::new(Filter::new(mk_source(&s_serial), stage_pred.clone()));
    let expected = if aggregate {
        let mut agg =
            HashAggregate::new(filtered, vec![1], aggs.clone(), s_serial.clone()).unwrap();
        collect_serial(&mut agg, max)
    } else {
        let mut op = filtered;
        collect_serial(op.as_mut(), max)
    };
    for workers in WORKER_GRID {
        let s_par = storage(pool);
        let pipeline = ParallelPipeline {
            phases: vec![PhaseSpec {
                source: ParallelSource::Shared { op: mk_source(&s_par) },
                stages: vec![StageSpec::Filter(stage_pred.clone())],
                sink: if aggregate {
                    SinkSpec::Aggregate { group_cols: vec![1], aggs: aggs.clone() }
                } else {
                    SinkSpec::Collect
                },
            }],
            storage: s_par.clone(),
            morsel_rows: max,
            mem_bytes: 0,
        };
        let got = run_pipeline(pipeline, workers).unwrap();
        prop_assert!(got == expected, "rows diverge at {workers} workers (max {max})");
        prop_assert!(
            s_par.clock().snapshot() == s_serial.clock().snapshot(),
            "clock totals diverge at {workers} workers (max {max})"
        );
        prop_assert!(
            s_par.io_snapshot() == s_serial.io_snapshot(),
            "I/O counters diverge at {workers} workers"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Smooth Scan as a shared parallel source across every policy,
    /// trigger and order mode — including OptimizerDriven triggers that
    /// flip Mode 0 → morphing mid-scan, Switch triggers that drop the
    /// cursor for the heap, Never, Index Scan, and Sort, Sort Scan — with
    /// filter / partial-aggregate stages fanning out above it. An ordered
    /// scan refuses the Switch and Sort triggers.
    #[test]
    fn parallel_smooth_scan_equals_serial(
        keys in proptest::collection::vec(0i64..150, 50..900),
        lo in 0i64..150,
        width in 0i64..170,
        policy in arb_policy(),
        ordered in any::<bool>(),
        trigger in prop_oneof![
            Just(Trigger::Eager),
            Just(Trigger::Never),
            Just(Trigger::Sort),
            (0u64..200).prop_map(|c| Trigger::OptimizerDriven {
                estimated_cardinality: c,
                policy: PolicyKind::Elastic,
            }),
            (0u64..200).prop_map(|c| Trigger::Switch { estimated_cardinality: c }),
        ],
        aggregate in any::<bool>(),
        pool in 6usize..48,
        max in 1usize..90,
        stage_hi in 0i64..900,
    ) {
        let (heap, index) = build_table(&keys);
        let hi = lo + width;
        let config = SmoothScanConfig::default().with_policy(policy).with_trigger(trigger);
        let mk_source = |s: &Storage| -> BoxedOperator {
            Box::new(SmoothScan::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                s.clone(),
                1,
                Bound::Included(lo),
                Bound::Excluded(hi),
                Predicate::True,
                config,
            ).with_order(ordered))
        };
        if ordered && matches!(trigger, Trigger::Switch { .. } | Trigger::Sort) {
            let refused = mk_source(&storage(pool)).open().is_err();
            prop_assert!(refused, "an ordered scan cannot switch or sort");
            return Ok(());
        }
        check_against_serial(
            &mk_source,
            &Predicate::int_lt(0, stage_hi),
            aggregate,
            pool,
            max,
        )?;
    }

    /// Switch Scan (Smooth Scan under the Switch trigger) as a shared
    /// parallel source across its index → heap cliff.
    #[test]
    fn parallel_switch_scan_equals_serial(
        keys in proptest::collection::vec(0i64..100, 50..700),
        hi in 0i64..110,
        estimate in 0u64..400,
        aggregate in any::<bool>(),
        max in 1usize..90,
        stage_hi in 0i64..700,
    ) {
        let (heap, index) = build_table(&keys);
        let mk_source = |s: &Storage| -> BoxedOperator {
            let config = SmoothScanConfig::default()
                .with_trigger(Trigger::Switch { estimated_cardinality: estimate });
            let (lo, hi) = (Bound::Included(0), Bound::Excluded(hi));
            let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
            Box::new(SmoothScan::new(h, i, s.clone(), 1, lo, hi, Predicate::True, config))
        };
        check_against_serial(
            &mk_source,
            &Predicate::int_lt(0, stage_hi),
            aggregate,
            16,
            max,
        )?;
    }
}
