//! Property tests: Smooth Scan must return *exactly* the rows a full scan +
//! filter returns — same multiset, no duplicates, no losses — for every
//! policy, trigger, order mode, selectivity, data distribution and buffer
//! pool size. This is the paper's correctness obligation: morphing is an
//! execution-strategy change only, never a semantics change. The
//! columnar iterator protocol carries the same obligation:
//! `next_columns` must yield the identical row sequence as `next`,
//! including across mode switches and with both protocols interleaved on
//! one stream.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use smooth_core::{PolicyKind, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::{collect_rows, collect_rows_volcano, FullTableScan, Operator, Predicate};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Drain through `next_columns(max)` only, checking the batch contract.
fn collect_columnar(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        assert!(!batch.is_empty() && batch.len() <= max);
        rows.extend(batch.into_rows());
    }
    assert!(op.next_columns(max).unwrap().is_none(), "None must be sticky");
    op.close().unwrap();
    rows
}

/// Drain alternating `next()` and `next_columns(max)` on one stream.
fn collect_interleaved(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(row) = op.next().unwrap() {
        rows.push(row);
        match op.next_columns(max).unwrap() {
            Some(batch) => rows.extend(batch.into_rows()),
            None => break,
        }
    }
    op.close().unwrap();
    rows
}

fn build_table(keys: &[i64]) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("t", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(80))]))
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

fn canonical(mut rows: Vec<Row>) -> Vec<(i64, i64)> {
    let mut v: Vec<(i64, i64)> =
        rows.drain(..).map(|r| (r.int(1).unwrap(), r.int(0).unwrap())).collect();
    v.sort_unstable();
    v
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Greedy),
        Just(PolicyKind::SelectivityIncrease),
        Just(PolicyKind::Elastic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn smooth_scan_equals_oracle(
        keys in proptest::collection::vec(0i64..200, 50..1500),
        lo in 0i64..200,
        width in 0i64..220,
        policy in arb_policy(),
        ordered in any::<bool>(),
        pool in 4usize..64,
        max_region in prop_oneof![Just(1u32), Just(4u32), Just(2048u32)],
        trigger_card in prop_oneof![Just(None), (0u64..300).prop_map(Some)],
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(pool);
        let hi = lo + width;
        let mut oracle = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::int_half_open(1, lo, hi),
        );
        let expected = canonical(collect_rows(&mut oracle).unwrap());

        let trigger = match trigger_card {
            None => Trigger::Eager,
            Some(c) => Trigger::OptimizerDriven {
                estimated_cardinality: c,
                policy: PolicyKind::SelectivityIncrease,
            },
        };
        let mut config = SmoothScanConfig::default()
            .with_policy(policy)
            .with_order(ordered)
            .with_trigger(trigger);
        config.max_region_pages = max_region;
        let mut ss = SmoothScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            1,
            Bound::Included(lo),
            Bound::Excluded(hi),
            Predicate::True,
            config,
        );
        let rows = collect_rows(&mut ss).unwrap();
        if ordered {
            let ks: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
            prop_assert!(ks.windows(2).all(|w| w[0] <= w[1]), "ordered mode key order");
        }
        prop_assert_eq!(canonical(rows), expected);
        // Morphing never fetches more pages than the heap holds.
        prop_assert!(ss.metrics().pages_fetched <= heap.page_count() as u64);
    }

    #[test]
    fn switch_scan_equals_oracle(
        keys in proptest::collection::vec(0i64..100, 50..800),
        hi in 0i64..110,
        estimate in 0u64..400,
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(16);
        let mut oracle = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::int_half_open(1, 0, hi),
        );
        let expected = canonical(collect_rows(&mut oracle).unwrap());
        let mut sw = smooth_core::SwitchScan::new(
            heap,
            index,
            s,
            1,
            Bound::Included(0),
            Bound::Excluded(hi),
            Predicate::True,
            estimate,
        );
        let rows = collect_rows(&mut sw).unwrap();
        prop_assert_eq!(canonical(rows), expected);
    }

    #[test]
    fn ordered_smooth_scan_with_spill_equals_oracle(
        keys in proptest::collection::vec(0i64..50, 100..900),
        spill in 1usize..40,
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(32);
        let mut oracle =
            FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::int_lt(1, 25));
        let expected = canonical(collect_rows(&mut oracle).unwrap());
        let mut config = SmoothScanConfig::default().with_order(true);
        config.result_cache_spill = Some(spill);
        let mut ss = SmoothScan::new(
            heap,
            index,
            s,
            1,
            Bound::Unbounded,
            Bound::Excluded(25),
            Predicate::True,
            config,
        );
        let rows = collect_rows(&mut ss).unwrap();
        let ks: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        prop_assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(canonical(rows), expected);
    }

    /// `next_columns` ≡ `next` for Smooth Scan across every policy, order
    /// mode and trigger — in particular across the Mode-0 → morphing
    /// switch an OptimizerDriven trigger fires mid-scan — and for Switch
    /// Scan across its index → full-scan cliff.
    #[test]
    fn batch_protocol_equals_row_protocol_across_mode_switches(
        keys in proptest::collection::vec(0i64..150, 50..1000),
        lo in 0i64..150,
        width in 0i64..170,
        policy in arb_policy(),
        ordered in any::<bool>(),
        trigger_card in prop_oneof![Just(None), (0u64..200).prop_map(Some)],
        estimate in 0u64..300,
        max in 1usize..90,
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(24);
        let hi = lo + width;
        let trigger = match trigger_card {
            None => Trigger::Eager,
            Some(c) => Trigger::OptimizerDriven {
                estimated_cardinality: c,
                policy: PolicyKind::Elastic,
            },
        };
        let config = SmoothScanConfig::default()
            .with_policy(policy)
            .with_order(ordered)
            .with_trigger(trigger);
        let mut ss = SmoothScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            1,
            Bound::Included(lo),
            Bound::Excluded(hi),
            Predicate::True,
            config,
        );
        let volcano = collect_rows_volcano(&mut ss).unwrap();
        prop_assert_eq!(&collect_columnar(&mut ss, max), &volcano);
        prop_assert_eq!(&collect_interleaved(&mut ss, max), &volcano);
        // The emission counter counts each tuple once under every protocol.
        prop_assert_eq!(ss.metrics().tuples_emitted as usize, volcano.len());

        let mut sw = smooth_core::SwitchScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            1,
            Bound::Included(lo),
            Bound::Excluded(hi),
            Predicate::True,
            estimate,
        );
        let volcano = collect_rows_volcano(&mut sw).unwrap();
        prop_assert_eq!(&collect_columnar(&mut sw, max), &volcano);
        prop_assert_eq!(&collect_interleaved(&mut sw, max), &volcano);
    }

    /// `next_columns` ≡ `next` for the morphing INLJ (Section IV-B inner
    /// path), whose harvest cache state evolves with probe order. The
    /// join implements only `next()`, so this pins the trait-default
    /// bridge: same rows and the same clock delta under every drain.
    #[test]
    fn morphing_join_batch_protocol_equals_row_protocol(
        fks in proptest::collection::vec(0i64..60, 0..150),
        max in 1usize..50,
    ) {
        let inner_keys: Vec<i64> = (0..200).map(|i| (i * 7919) % 50).collect();
        let (heap, index) = build_table(&inner_keys);
        let outer_schema =
            Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        let outer_rows: Vec<Row> =
            fks.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect();
        // Fresh join and storage per drain: the harvest cache is
        // cumulative state that a reopen deliberately does not reset.
        let run = |drain: &dyn Fn(&mut dyn Operator) -> Vec<Row>| {
            let s = storage(8);
            let inner = smooth_core::SmoothInnerPath::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                s.clone(),
                1,
                Predicate::True,
            );
            let mut join = smooth_core::SmoothIndexNestedLoopJoin::new(
                Box::new(smooth_executor::operator::ValuesOp::new(
                    outer_schema.clone(),
                    outer_rows.clone(),
                )),
                0,
                inner,
            );
            (drain(&mut join), s.clock().snapshot(), s.io_snapshot())
        };
        let volcano = run(&|op| collect_rows_volcano(op).unwrap());
        prop_assert_eq!(&run(&|op| collect_columnar(op, max)), &volcano);
        prop_assert_eq!(&run(&|op| collect_interleaved(op, max)), &volcano);
    }
}
