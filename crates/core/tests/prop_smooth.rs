//! Property tests: Smooth Scan must return *exactly* the rows the
//! predicate keeps of the `Vec<Row>` the table was loaded from — same
//! multiset, no duplicates, no losses — for every policy, trigger, order
//! mode, selectivity, data distribution and buffer pool size. This is the
//! paper's correctness obligation: morphing is an execution-strategy
//! change only, never a semantics change. The oracle is that filter, not
//! another scan: a `FullTableScan` runs the same `ScanFilter` the morphing
//! scans do. Batch size carries the same obligation — `next()`,
//! `next_columns(1)`, `next_columns(max)` and the two interleaved yield
//! one row sequence, including across mode switches — and the per-tuple
//! charges of Mode 0 (Index Scan being Mode 0 under a trigger that never
//! fires) and of the Switch trigger's heap-order finish are pinned in
//! closed form and against a per-call loop over the storage API.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use smooth_core::{PolicyKind, SmoothInnerPath, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::operator::ValuesOp;
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::{
    collect_rows, collect_rows_volcano, IndexNestedLoopJoin, JoinType, Operator, Predicate,
};
use smooth_index::BTreeIndex;
use smooth_storage::{
    ClockSnapshot, CpuCosts, DeviceProfile, HeapFile, HeapLoader, IoSnapshot, Storage,
    StorageConfig,
};
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Drain through `next_columns(max)` only, checking the batch contract:
/// between one and `max` live rows, `None` sticky.
fn collect_columnar(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        assert!(!batch.is_empty() && batch.len() <= max, "{} rows for max={max}", batch.len());
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

/// The table's rows in load order: `(row number, key, pad)`.
fn table_rows(keys: &[i64]) -> Vec<Row> {
    let row = |(i, &k): (usize, &i64)| {
        Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(80))])
    };
    keys.iter().enumerate().map(row).collect()
}

fn build_table(keys: &[i64]) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("t", schema);
    for r in table_rows(keys) {
        l.push(&r).unwrap();
    }
    let heap = Arc::new(l.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
    (heap, index)
}

/// What any scan of the table under `predicate` must return: the loaded
/// rows it keeps, canonically ordered.
fn oracle(keys: &[i64], predicate: &Predicate) -> Vec<(i64, i64)> {
    canonical(table_rows(keys).into_iter().filter(|r| predicate.eval(r).unwrap()).collect())
}

/// The CPU a bare index cursor charges for the first `entries` entries of
/// `[lo, hi)` — or, for `None`, for the whole range and the probe that
/// finds it exhausted.
fn cursor_cpu(index: &Arc<BTreeIndex>, lo: i64, hi: i64, entries: Option<usize>) -> u64 {
    let s = storage(8);
    let mut cursor = index.range(&s, Bound::Included(lo), Bound::Excluded(hi));
    match entries {
        Some(n) => assert_eq!((0..n).filter_map(|_| cursor.next()).count(), n),
        None => drop(cursor.collect_all()),
    }
    s.clock().snapshot().cpu_ns
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

/// Eager, Never (Index Scan), or a trigger whose index phase ends at a
/// cardinality below `max`: Optimizer-driven (morphing with Elastic
/// afterwards) or Switch.
fn arb_trigger(max: u64) -> impl Strategy<Value = Trigger> {
    prop_oneof![
        Just(Trigger::Eager),
        Just(Trigger::Never),
        (0..max).prop_map(|c| optimizer(c, PolicyKind::Elastic)),
        (0..max).prop_map(|c| Trigger::Switch { estimated_cardinality: c }),
    ]
}

fn optimizer(estimated_cardinality: u64, policy: PolicyKind) -> Trigger {
    Trigger::OptimizerDriven { estimated_cardinality, policy }
}

/// One way of running an opened-and-closed operator to completion.
type Drain<'a> = dyn Fn(&mut dyn Operator) -> Vec<Row> + 'a;

/// What a run shows: its rows, the virtual clock and the I/O counters.
type Observed = (Vec<Row>, ClockSnapshot, IoSnapshot);

fn observe(s: &Storage, rows: Vec<Row>) -> Observed {
    (rows, s.clock().snapshot(), s.io_snapshot())
}

/// Index Scan the per-call way: one `IndexCursor::next` and one
/// `Storage::read_heap_page` per TID, until the range is exhausted or
/// `limit` tuples qualified; the inspect / emit charges in closed form.
fn index_scan_reference(
    s: &Storage,
    (heap, index): (&HeapFile, &Arc<BTreeIndex>),
    (lo, hi): (Bound<i64>, Bound<i64>),
    passes: impl Fn(&Row) -> bool,
    limit: u64,
) -> Observed {
    let (mut rows, mut inspected) = (Vec::new(), 0);
    let mut cursor = index.range(s, lo, hi);
    while (rows.len() as u64) < limit {
        let Some((_, tid)) = cursor.next() else { break };
        let page = s.read_heap_page(heap, tid.page).unwrap();
        let row = heap.decode_slot(&page, tid.slot).unwrap();
        inspected += 1;
        if passes(&row) {
            rows.push(row);
        }
    }
    let cpu = s.cpu();
    s.clock().charge_cpu(cpu.inspect_tuple_ns * inspected + cpu.emit_tuple_ns * rows.len() as u64);
    observe(s, rows)
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
        trigger in prop_oneof![
            Just(Trigger::Eager),
            Just(Trigger::Never),
            (0u64..300).prop_map(|c| optimizer(c, PolicyKind::SelectivityIncrease)),
        ],
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(pool);
        let hi = lo + width;
        let expected = oracle(&keys, &Predicate::int_half_open(1, lo, hi));

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
        let expected = oracle(&keys, &Predicate::int_half_open(1, 0, hi));
        let config = SmoothScanConfig::default()
            .with_trigger(Trigger::Switch { estimated_cardinality: estimate });
        let (lo, hi) = (Bound::Included(0), Bound::Excluded(hi));
        let mut sw = SmoothScan::new(heap, index, s, 1, lo, hi, Predicate::True, config);
        let rows = collect_rows(&mut sw).unwrap();
        prop_assert_eq!(canonical(rows), expected);
    }

    #[test]
    fn ordered_smooth_scan_with_spill_equals_oracle(
        keys in proptest::collection::vec(0i64..50, 100..900),
        budget in 64usize..4096,
    ) {
        let (heap, index) = build_table(&keys);
        let s = storage(32);
        let expected = oracle(&keys, &Predicate::int_lt(1, 25));
        let config = SmoothScanConfig::default().with_order(true);
        let mut ss = SmoothScan::new(
            heap,
            index,
            s,
            1,
            Bound::Unbounded,
            Bound::Excluded(25),
            Predicate::True,
            config,
        )
        .with_mem_budget(budget);
        let rows = collect_rows(&mut ss).unwrap();
        let ks: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        prop_assert!(ks.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(canonical(rows), expected);
    }

    /// Batch-size invariance for Smooth Scan across every policy, order
    /// mode and trigger — in particular across the Mode-0 → morphing
    /// switch an OptimizerDriven trigger fires mid-scan and the index →
    /// heap cliff of the Switch trigger: `next()`, and `next_columns` at
    /// 1, 2, 7, an arbitrary `max` and 4096 rows, alone and interleaved,
    /// yield one row sequence, every batch within `max` — and one clock,
    /// one set of I/O counters and one set of morphing counters (regions,
    /// pages fetched / with results, Mode-1 / Mode-2 pages, largest
    /// region). An ordered scan refuses the Switch trigger at `open`.
    #[test]
    fn batch_protocol_equals_row_protocol_across_mode_switches(
        keys in proptest::collection::vec(0i64..150, 50..1000),
        lo in 0i64..150,
        width in 0i64..170,
        policy in arb_policy(),
        ordered in any::<bool>(),
        trigger in arb_trigger(200),
        max in 1usize..90,
    ) {
        let (heap, index) = build_table(&keys);
        let hi = lo + width;
        let config = SmoothScanConfig::default()
            .with_policy(policy)
            .with_order(ordered)
            .with_trigger(trigger);
        if ordered && matches!(trigger, Trigger::Switch { .. }) {
            let (lo, hi) = (Bound::Included(lo), Bound::Excluded(hi));
            let mut ss = SmoothScan::new(heap, index, storage(24), 1, lo, hi, Predicate::True, config);
            prop_assert!(ss.open().is_err(), "an ordered scan cannot switch");
            return Ok(());
        }
        // A fresh scan over a fresh storage per drain: an unordered region
        // is inspected across calls, so the clock, the I/O counters and
        // the morphing counters must agree as well as the rows.
        let run = |drain: &dyn Fn(&mut dyn Operator) -> Vec<Row>| {
            let s = storage(24);
            let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
            let (lo, hi) = (Bound::Included(lo), Bound::Excluded(hi));
            let mut ss = SmoothScan::new(h, i, s.clone(), 1, lo, hi, Predicate::True, config);
            let rows = drain(&mut ss);
            let m = ss.metrics();
            // The emission counter counts each tuple once under every protocol.
            assert_eq!(m.tuples_emitted as usize, rows.len());
            let pages = (m.pages_fetched, m.pages_with_results, m.mode1_pages, m.mode2_pages);
            (rows, s.clock().snapshot(), s.io_snapshot(), (m.regions, pages, m.max_region_pages))
        };
        let volcano = run(&|op| collect_rows_volcano(op).unwrap());
        for max in [1, 2, 7, max, 4096] {
            prop_assert_eq!(&run(&|op| collect_columnar(op, max)), &volcano);
        }
        prop_assert_eq!(&run(&|op| collect_interleaved(op, max)), &volcano);
    }

    /// Batch-size invariance for the index join on the morphing inner
    /// side (Section IV-B), whose harvest cache state evolves with probe
    /// order: the same rows — the nested-loop join (or semi join) of the
    /// outer keys with the loaded inner rows — and the same clock and I/O
    /// deltas under every drain.
    #[test]
    fn morphing_join_batch_protocol_equals_row_protocol(
        fks in proptest::collection::vec(0i64..60, 0..150),
        max in 1usize..50,
        semi in any::<bool>(),
    ) {
        let inner_keys: Vec<i64> = (0..200).map(|i| (i * 7919) % 50).collect();
        let (heap, index) = build_table(&inner_keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let outer_schema =
            Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        let outer_rows: Vec<Row> =
            fks.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect();
        // Fresh join and storage per drain: the harvest cache is
        // cumulative state that a reopen deliberately does not reset.
        let run = |drain: &dyn Fn(&mut dyn Operator) -> Vec<Row>| {
            let s = storage(8);
            let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
            let inner = Box::new(SmoothInnerPath::new(h, i, 1, Predicate::True));
            let outer = Box::new(ValuesOp::new(outer_schema.clone(), outer_rows.clone()));
            let mut join = IndexNestedLoopJoin::with_inner(outer, 0, inner, ty, s.clone());
            (drain(&mut join), s.clock().snapshot(), s.io_snapshot())
        };
        let volcano = run(&|op| collect_rows_volcano(op).unwrap());
        let inner_rows = table_rows(&inner_keys);
        let matches = |o: &Row| inner_rows.iter().filter(|i| i.get(1) == o.get(0)).count();
        let expected: Vec<Row> = match ty {
            JoinType::Inner => outer_rows
                .iter()
                .flat_map(|o| inner_rows.iter().filter(|i| i.get(1) == o.get(0)).map(|i| o.concat(i)))
                .collect(),
            JoinType::LeftSemi => outer_rows.iter().filter(|o| matches(o) > 0).cloned().collect(),
        };
        prop_assert_eq!(&volcano.0, &expected);
        for max in [1, 2, 7, max, 4096] {
            prop_assert_eq!(&run(&|op| collect_columnar(op, max)), &volcano);
        }
        prop_assert_eq!(&run(&|op| collect_interleaved(op, max)), &volcano);
    }

    /// The traditional phases charge in closed form, every count taken
    /// from the loaded rows: what a bare cursor charges for the index
    /// entries consumed, one pool lookup and one inspect per TID fetched,
    /// one emit per tuple produced. Under the Switch trigger Mode 0
    /// consumes entries up to and including the one that fires it — the
    /// entry after the `estimate`-th qualifier, never fetched — and the
    /// heap-order finish pays one Page-ID-cache check per readahead run,
    /// one pool probe per page, one Tuple-ID-cache check per slot, one
    /// inspect per tuple Mode 0 did not produce and one emit per qualifier
    /// it did not.
    #[test]
    fn traditional_phases_charge_their_closed_form(
        keys in proptest::collection::vec(0i64..100, 50..800),
        lo in 0i64..100,
        width in 0i64..110,
        residual_hi in 0i64..900,
        estimate in 0u64..300,
    ) {
        let (heap, index) = build_table(&keys);
        let (hi, cpu) = (lo + width, CpuCosts::default());
        // The range's index entries in (key, TID) order — TIDs follow load
        // order — and which of them the residual on `c0` keeps.
        let mut entries: Vec<(i64, usize)> =
            (0..keys.len()).filter(|&i| keys[i] >= lo && keys[i] < hi).map(|i| (keys[i], i)).collect();
        entries.sort_unstable();
        let keeps = |&(_, i): &(i64, usize)| (i as i64) < residual_hi;
        let qualifiers = entries.iter().filter(|e| keeps(e)).count() as u64;
        let residual = || Predicate::int_lt(0, residual_hi);
        let (lo_b, hi_b) = (Bound::Included(lo), Bound::Excluded(hi));
        let per_tid = cpu.hash_op_ns + cpu.inspect_tuple_ns;

        let s = storage(16);
        let switch = Trigger::Switch { estimated_cardinality: estimate };
        let config = SmoothScanConfig::default().with_trigger(switch);
        let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
        let mut sw = SmoothScan::new(h, i, s.clone(), 1, lo_b, hi_b, residual(), config);
        let mut produced = 0;
        let fires_at = entries.iter().position(|e| {
            let fires = produced >= estimate;
            produced += u64::from(keeps(e));
            fires
        });
        let (tuples, pages) = (keys.len() as u64, u64::from(heap.page_count()));
        let expected = match fires_at {
            Some(at) => {
                cursor_cpu(&index, lo, hi, Some(at + 1)) + per_tid * at as u64 + cpu.emit_tuple_ns * estimate
                    + cpu.bitmap_op_ns * pages.div_ceil(u64::from(FULL_SCAN_READAHEAD))
                    + cpu.hash_op_ns * pages
                    + cpu.bitmap_op_ns * tuples
                    + cpu.inspect_tuple_ns * (tuples - estimate)
                    + cpu.emit_tuple_ns * (qualifiers - estimate)
            }
            None => cursor_cpu(&index, lo, hi, None) + per_tid * entries.len() as u64 + cpu.emit_tuple_ns * qualifiers,
        };
        prop_assert_eq!(collect_rows(&mut sw).unwrap().len() as u64, qualifiers);
        let m = sw.metrics();
        prop_assert_eq!((m.triggered, m.mode0_tuples), (fires_at.is_some(), qualifiers.min(estimate)));
        prop_assert_eq!(s.clock().snapshot().cpu_ns, expected);
    }

    /// Index Scan's CPU charge in closed form, counts taken from the
    /// loaded rows: what a bare cursor charges over the range, one pool
    /// lookup and one inspect per TID fetched, one emit per qualifier —
    /// through `next()` and at every batch size.
    #[test]
    fn index_scan_charges_its_closed_form(
        keys in proptest::collection::vec(0i64..100, 1..500),
        lo in 0i64..100,
        width in 0i64..110,
        residual_hi in 0i64..600,
        ordered in any::<bool>(),
    ) {
        let (heap, index) = build_table(&keys);
        let hi = lo + width;
        let fetched: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] >= lo && keys[i] < hi).collect();
        let qualifiers = fetched.iter().filter(|&&i| (i as i64) < residual_hi).count() as u64;
        let cpu = CpuCosts::default();
        let expected = cursor_cpu(&index, lo, hi, None)
            + (cpu.hash_op_ns + cpu.inspect_tuple_ns) * fetched.len() as u64
            + cpu.emit_tuple_ns * qualifiers;
        let drains: [&Drain; 3] = [
            &|op| collect_rows_volcano(op).unwrap(),
            &|op| collect_columnar(op, 1),
            &|op| collect_columnar(op, 1024),
        ];
        let config = SmoothScanConfig::default().with_trigger(Trigger::Never).with_order(ordered);
        for drain in drains {
            let (s, h, i) = (storage(16), Arc::clone(&heap), Arc::clone(&index));
            let (lo, hi, residual) = (Bound::Included(lo), Bound::Excluded(hi), Predicate::int_lt(0, residual_hi));
            let mut scan = SmoothScan::new(h, i, s.clone(), 1, lo, hi, residual, config);
            prop_assert_eq!(drain(&mut scan).len() as u64, qualifiers);
            prop_assert_eq!(scan.metrics().mode0_tuples, qualifiers);
            prop_assert_eq!(s.clock().snapshot().cpu_ns, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mode 0 fetches a whole walk's TIDs on one storage session and
    /// inspects them afterwards; that must move no charge. Over a padded
    /// table on a 2–8-page pool — every heap fetch can evict an index
    /// node, so the interleaving of index touches and heap reads decides
    /// every hit, miss and seq / rand verdict — Index Scan, drained
    /// through `next()` and at `max ∈ {1, 2, 7, 1024}`, shows the rows,
    /// clock and I/O counters of the per-call loop. Under an Optimizer
    /// trigger at `k` Mode 0 shows them up to the trigger point — after
    /// `k` rows through `next()`, or one `next_columns(k)` — and every
    /// drain leaves exactly the first `k` qualifiers to Mode 0.
    #[test]
    fn mode0_charges_what_the_per_call_loop_charges(
        keys in proptest::collection::vec(0i64..30, 1..160),
        fanout in 2usize..7,
        pool_pages in 2usize..9,
        residual_hi in 0i64..200,
        lo in 0i64..30,
        width in 0i64..35,
        k in 0u64..40,
    ) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("t", schema);
        let mut entries = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let row = Row::new(vec![Value::Int(i as i64), Value::Int(key), Value::str("p".repeat(900))]);
            entries.push((key, loader.push(&row).unwrap()));
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_with_fanout("i", entries, fanout));
        let range = (Bound::Included(lo), Bound::Excluded(lo + width));
        let passes = |row: &Row| row.int(0).unwrap() < residual_hi;
        let scan = |s: &Storage, trigger| {
            let (h, i, residual) = (Arc::clone(&heap), Arc::clone(&index), Predicate::int_lt(0, residual_hi));
            let config = SmoothScanConfig::default().with_trigger(trigger);
            SmoothScan::new(h, i, s.clone(), 1, range.0, range.1, residual, config)
        };
        let reference = |limit| index_scan_reference(&storage(pool_pages), (&heap, &index), range, passes, limit);
        let drains: [&Drain; 5] = [
            &|op| collect_rows_volcano(op).unwrap(),
            &|op| collect_columnar(op, 1),
            &|op| collect_columnar(op, 2),
            &|op| collect_columnar(op, 7),
            &|op| collect_columnar(op, 1024),
        ];
        let all = reference(u64::MAX);
        for drain in drains {
            let s = storage(pool_pages);
            prop_assert!(observe(&s, drain(&mut scan(&s, Trigger::Never))) == all);
        }
        // Up to the trigger point, a row at a time and in one walk.
        let trigger = optimizer(k, PolicyKind::Elastic);
        let expected = reference(k);
        let s = storage(pool_pages);
        let mut ss = scan(&s, trigger);
        ss.open().unwrap();
        let rows = (0..k).map_while(|_| ss.next().unwrap()).collect();
        prop_assert!(observe(&s, rows) == expected, "{k} rows through next()");
        if k > 0 {
            let s = storage(pool_pages);
            let mut ss = scan(&s, trigger);
            ss.open().unwrap();
            let rows = ss.next_columns(k as usize).unwrap().map_or_else(Vec::new, |b| b.into_rows());
            prop_assert!(observe(&s, rows) == expected, "next_columns({k})");
        }
        // The trigger fires on the first range entry, in (key, TID) order,
        // after the `k`-th qualifier.
        let mut order: Vec<(i64, i64)> = (0..keys.len() as i64)
            .map(|i| (keys[i as usize], i))
            .filter(|&(key, _)| key >= lo && key < lo + width)
            .collect();
        order.sort_unstable();
        let mut produced = 0;
        let fires = order.iter().any(|&(_, i)| {
            let fires = produced >= k;
            produced += u64::from(i < residual_hi);
            fires
        });
        for drain in drains {
            let s = storage(pool_pages);
            let mut ss = scan(&s, trigger);
            prop_assert_eq!(canonical(drain(&mut ss)), canonical(all.0.clone()));
            let m = ss.metrics();
            prop_assert_eq!((m.mode0_tuples, m.triggered), (k.min(produced), fires));
        }
    }
}
