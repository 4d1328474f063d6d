//! Property tests for the executor: join operators must agree with a
//! nested-loop oracle for arbitrary inputs, the full table scan must
//! return the same multiset as the predicate applied to the loaded rows,
//! and every operator's row sequence must be invariant under the batch
//! size it is asked for — `next()` ≡ `next_columns(1)` ≡
//! `next_columns(max)` ≡ the two interleaved on one stream, selection
//! vectors active or not. Since `next()` is the one-row view of
//! `next_columns`, that invariance holds by construction wherever an
//! operator does not override it and is what the `pop_row` overrides are
//! held to. What it no longer is is evidence for the *charges* (both
//! calls run one fill): those are pinned by closed forms instead —
//! `prop_sort`'s, and `prop_smooth`'s for Smooth Scan's Mode 0 (Index
//! Scan among them), with and without the Switch trigger's finish — and
//! the morsel-at-a-time index join, which fetches a whole morsel on one
//! storage session before it inspects it, by a hand-written loop over the
//! per-call storage API ([`morsel_index_paths_charge_what_per_call_loops_charge`]).

mod common;

use std::sync::Arc;

use common::{Morsel, Replay};
use proptest::prelude::*;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    collect_rows, collect_rows_volcano, operator::ValuesOp, AggFunc, BoxedOperator, Filter,
    FullTableScan, HashAggregate, HashJoin, IndexNestedLoopJoin, JoinType, Operator, Predicate,
    Project, Sort,
};
use smooth_index::BTreeIndex;
use smooth_storage::{
    ClockSnapshot, CpuCosts, DeviceProfile, HeapFile, HeapLoader, IoSnapshot, Storage,
    StorageConfig,
};
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Drain an operator through `next_columns(max)` only, checking the
/// batch contract: between one and `max` live rows, and `None` sticky.
fn collect_columnar(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        assert!(!batch.is_empty(), "{}: empty batch", op.label());
        assert!(batch.len() <= max, "{}: {} rows for max={max}", op.label(), batch.len());
        rows.extend(batch.into_rows());
    }
    assert!(op.next_columns(max).unwrap().is_none(), "None must be sticky");
    op.close().unwrap();
    rows
}

/// Drain an operator alternating `next()` and `next_columns(max)` calls —
/// the two share one stream and must compose.
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

/// The batch-size-invariance obligation: the one-row view, one-row
/// batches, `max`-row batches and an interleaved drain of (reopenable)
/// `op` yield the identical sequence.
fn assert_protocols_equivalent(op: &mut dyn Operator, max: usize) {
    let volcano = collect_rows_volcano(op).unwrap();
    for max in [1, max] {
        assert_eq!(collect_columnar(op, max), volcano, "next_columns({max}) ≠ next()");
    }
    assert_eq!(collect_interleaved(op, max), volcano, "interleaved ≠ next() (max={max})");
}

/// One way of running an opened-and-closed operator to completion.
type Drain<'a> = dyn Fn(&mut dyn Operator) -> Vec<Row> + 'a;

/// The same obligation on everything a drain can observe: on a fresh
/// operator over a fresh storage per drain, every drain yields the
/// `next()` row sequence *and* charges the identical virtual clock and
/// I/O counters.
fn assert_drains_charge_identically(mk: &dyn Fn(&Storage) -> BoxedOperator, max: usize) {
    let run = |drain: &Drain| {
        let s = storage();
        let rows = drain(mk(&s).as_mut());
        (rows, s.clock().snapshot(), s.io_snapshot())
    };
    let volcano = run(&|op| collect_rows_volcano(op).unwrap());
    for max in [1, max] {
        assert_eq!(run(&|op| collect_columnar(op, max)), volcano, "next_columns({max}) ≠ next()");
    }
    assert_eq!(run(&|op| collect_interleaved(op, max)), volcano, "interleaved ≠ next()");
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 16,
    })
}

fn two_col_schema(a: &str, b: &str) -> Schema {
    Schema::new(vec![Column::new(a, DataType::Int64), Column::new(b, DataType::Int64)]).unwrap()
}

fn values_op(a: &str, b: &str, rows: &[(i64, i64)]) -> Box<ValuesOp> {
    Box::new(ValuesOp::new(
        two_col_schema(a, b),
        rows.iter().map(|&(x, y)| Row::new(vec![Value::Int(x), Value::Int(y)])).collect(),
    ))
}

/// Nested-loop equi-join oracle over pairs.
fn join_oracle(left: &[(i64, i64)], right: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for &(lk, lv) in left {
        for &(rk, rv) in right {
            if lk == rk {
                out.push(vec![lk, lv, rk, rv]);
            }
        }
    }
    out.sort();
    out
}

fn canonical(rows: Vec<Row>) -> Vec<Vec<i64>> {
    let mut v: Vec<Vec<i64>> =
        rows.iter().map(|r| r.values().iter().map(|x| x.as_int().unwrap()).collect()).collect();
    v.sort();
    v
}

proptest! {
    #[test]
    fn hash_join_matches_oracle(
        left in proptest::collection::vec((0i64..20, any::<i64>()), 0..60),
        right in proptest::collection::vec((0i64..20, any::<i64>()), 0..60),
    ) {
        let expected = join_oracle(&left, &right);
        let mut hj = HashJoin::new(
            values_op("lk", "lv", &left),
            values_op("rk", "rv", &right),
            0,
            0,
            JoinType::Inner,
            storage(),
        );
        prop_assert_eq!(canonical(collect_rows(&mut hj).unwrap()), expected);
    }

    #[test]
    fn semi_join_is_distinct_left_matches(
        left in proptest::collection::vec((0i64..15, 0i64..5), 0..40),
        right in proptest::collection::vec((0i64..15, 0i64..5), 0..40),
    ) {
        let mut hj = HashJoin::new(
            values_op("lk", "lv", &left),
            values_op("rk", "rv", &right),
            0,
            0,
            JoinType::LeftSemi,
            storage(),
        );
        let got = canonical(collect_rows(&mut hj).unwrap());
        let mut expected: Vec<Vec<i64>> = left
            .iter()
            .filter(|(lk, _)| right.iter().any(|(rk, _)| rk == lk))
            .map(|&(k, v)| vec![k, v])
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// The full table scan returns the same multiset as the predicate
    /// applied row-by-row, for arbitrary data and ranges (`prop_smooth`
    /// holds the index-driven paths, Smooth Scan configurations all, to
    /// the same oracle).
    #[test]
    fn scan_paths_agree_with_row_filter(
        keys in proptest::collection::vec(0i64..100, 1..600),
        lo in 0i64..100,
        width in 0i64..110,
    ) {
        let schema = two_col_schema("c0", "c1");
        let mut loader = HeapLoader::new_mem("t", schema);
        for (i, &k) in keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let s = storage();
        let hi = lo + width;
        let expected: Vec<Vec<i64>> = {
            let mut v: Vec<Vec<i64>> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k >= lo && k < hi)
                .map(|(i, &k)| vec![i as i64, k])
                .collect();
            v.sort();
            v
        };
        let mut full = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::int_half_open(1, lo, hi),
        );
        prop_assert_eq!(canonical(collect_rows(&mut full).unwrap()), expected);
    }

    /// Batch-size invariance for the full table scan and the index join,
    /// for arbitrary data, ranges, residuals and batch sizes — for the
    /// scan, of the charged clock and I/O as well as of the rows.
    #[test]
    fn scan_batch_protocol_equals_row_protocol(
        keys in proptest::collection::vec(0i64..100, 1..500),
        lo in 0i64..100,
        width in 0i64..110,
        residual_hi in 0i64..600,
        max in 1usize..80,
    ) {
        let schema = two_col_schema("c0", "c1");
        let mut loader = HeapLoader::new_mem("t", schema);
        for (i, &k) in keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        let s = storage();
        let hi = lo + width;
        let residual = Predicate::int_lt(0, residual_hi);
        // The access paths: rows, clock and I/O, whatever the drain.
        let both = Predicate::and(vec![Predicate::int_half_open(1, lo, hi), residual.clone()]);
        let full = |s: &Storage| FullTableScan::new(Arc::clone(&heap), s.clone(), both.clone());
        assert_drains_charge_identically(&|s| Box::new(full(s)), max);
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let outer_rows: Vec<(i64, i64)> =
                (0..40).map(|i| (i, (i * 13) % 120)).collect();
            let mut inlj = IndexNestedLoopJoin::new(
                values_op("a", "fk", &outer_rows),
                1,
                Arc::clone(&heap),
                Arc::clone(&index),
                residual.clone(),
                ty,
                s.clone(),
            );
            assert_protocols_equivalent(&mut inlj, max);
        }
    }

    /// Batch-size invariance for the relational operators (filter,
    /// projection, sort, aggregation, all joins) over arbitrary inputs.
    #[test]
    fn relational_batch_protocol_equals_row_protocol(
        left in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        right in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        max in 1usize..40,
    ) {
        let mk_left = || values_op("lk", "lv", &left);
        let mk_right = || values_op("rk", "rv", &right);
        let mut filter = Filter::new(mk_left(), Predicate::int_ge(1, 0));
        assert_protocols_equivalent(&mut filter, max);
        let mut project = Project::new(mk_left(), vec![1, 0]).unwrap();
        assert_protocols_equivalent(&mut project, max);
        // Project above Filter: the columnar path carries an *active*
        // selection vector through the column pruning.
        let mut stacked = Project::new(
            Box::new(Filter::new(mk_left(), Predicate::int_ge(1, 0))),
            vec![1, 0],
        )
        .unwrap();
        assert_protocols_equivalent(&mut stacked, max);
        // Filter above Filter: selection vectors refine, never rebuild.
        let mut refined = Filter::new(
            Box::new(Filter::new(mk_left(), Predicate::int_ge(1, -25))),
            Predicate::int_lt(1, 25),
        );
        assert_protocols_equivalent(&mut refined, max);
        let mut sort = Sort::new(mk_left(), storage(), vec![SortKey::asc(0), SortKey::desc(1)]);
        assert_protocols_equivalent(&mut sort, max);
        let mut agg = HashAggregate::new(
            mk_left(),
            vec![0],
            vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Min(1)],
            storage(),
        )
        .unwrap();
        assert_protocols_equivalent(&mut agg, max);
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let mut hj = HashJoin::new(mk_left(), mk_right(), 0, 0, ty, storage());
            assert_protocols_equivalent(&mut hj, max);
        }
        // What a merge join lowers to: a sort on the left key over a hash join.
        let hj = HashJoin::new(mk_left(), mk_right(), 0, 0, JoinType::Inner, storage());
        let mut merge = Sort::new(Box::new(hj), storage(), vec![SortKey::asc(0)]);
        assert_protocols_equivalent(&mut merge, max);
    }

    /// Where a batch boundary falls changes no charge: `ValuesOp`, a
    /// `Sort` over a `HashJoin` (what a merge join lowers to) and the
    /// index join (over an outer that does no I/O)
    /// yield the same rows *and* the same clock and I/O deltas under
    /// every drain, nothing lost or duplicated when the calls interleave.
    #[test]
    fn every_drain_charges_the_same_clock_and_io(
        left in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        right in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        inner_keys in proptest::collection::vec(0i64..25, 1..300),
        max in 1usize..40,
    ) {
        assert_drains_charge_identically(&|_| values_op("lk", "lv", &left), max);
        assert_drains_charge_identically(
            &|s| {
                let (l, r) = (values_op("lk", "lv", &left), values_op("rk", "rv", &right));
                let hj = HashJoin::new(l, r, 0, 0, JoinType::Inner, s.clone());
                Box::new(Sort::new(Box::new(hj), s.clone(), vec![SortKey::asc(0)]))
            },
            max,
        );
        let mut loader = HeapLoader::new_mem("t", two_col_schema("c0", "c1"));
        for (i, &k) in inner_keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            assert_drains_charge_identically(
                &|s| {
                    Box::new(IndexNestedLoopJoin::new(
                        values_op("lk", "lv", &left),
                        0,
                        Arc::clone(&heap),
                        Arc::clone(&index),
                        Predicate::int_lt(0, 200),
                        ty,
                        s.clone(),
                    ))
                },
                max,
            );
        }
    }
}

/// What a run shows: its rows, the virtual clock and the I/O counters.
type Observed = (Vec<Row>, ClockSnapshot, IoSnapshot);

fn observe(s: &Storage, rows: Vec<Row>) -> Observed {
    (rows, s.clock().snapshot(), s.io_snapshot())
}

/// The index join the per-call way: per outer row in order, one
/// `BTreeIndex::probe`, then one `Storage::read_heap_page` per TID; the
/// inspect / emit charges in closed form. NULL keys join nothing.
fn inlj_reference(
    s: &Storage,
    (heap, index): (&HeapFile, &Arc<BTreeIndex>),
    outer: &[Row],
    ty: JoinType,
    passes: impl Fn(&Row) -> bool,
) -> Observed {
    let (mut rows, mut inspected, mut emitted) = (Vec::new(), 0, 0);
    for o in outer {
        let Value::Int(key) = *o.get(0) else { continue };
        for tid in index.probe(s, key) {
            let page = s.read_heap_page(heap, tid.page).unwrap();
            let inner = heap.decode_slot(&page, tid.slot).unwrap();
            inspected += 1;
            if passes(&inner) {
                emitted += 1;
                if ty == JoinType::LeftSemi {
                    rows.push(o.clone());
                    break;
                }
                rows.push(Row::new(o.values().iter().chain(inner.values()).cloned().collect()));
            }
        }
    }
    let cpu = s.cpu();
    s.clock().charge_cpu(cpu.inspect_tuple_ns * inspected + cpu.emit_tuple_ns * emitted);
    observe(s, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The index join fetches a whole morsel's TIDs on one storage session
    /// and inspects them afterwards; that must move no charge. Over a
    /// padded table on a 2–8-page pool — every heap fetch can evict an
    /// index node, so the interleaving of index touches and heap reads
    /// decides every hit, miss and seq / rand verdict — the index join
    /// (inner and semi; duplicate, missing and NULL outer keys; a
    /// residual), drained through `next()` and at `max ∈ {1, 2, 7,
    /// 1024}`, shows the rows, clock and I/O counters of the per-call
    /// loop. (`prop_smooth` holds Index Scan to its own per-call loop.)
    #[test]
    fn morsel_index_paths_charge_what_per_call_loops_charge(
        keys in proptest::collection::vec(0i64..30, 1..160),
        outer in proptest::collection::vec(-1i64..36, 0..70),
        fanout in 2usize..7,
        pool_pages in 2usize..9,
        residual_hi in 0i64..200,
    ) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("t", schema);
        let mut entries = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let row = Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(900))]);
            entries.push((k, loader.push(&row).unwrap()));
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_with_fanout("i", entries, fanout));
        let tables = (heap.as_ref(), &index);
        let storage = || Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages,
        });
        let passes = |row: &Row| row.int(0).unwrap() < residual_hi;
        let (h, i, residual) = (|| Arc::clone(&heap), || Arc::clone(&index), || Predicate::int_lt(0, residual_hi));
        let key = |k: i64| if k < 0 { Value::Null } else { Value::Int(k) };
        let outer: Vec<Row> = outer.iter().map(|&k| Row::new(vec![key(k)])).collect();
        let key_schema = Schema::new(vec![Column::nullable("fk", DataType::Int64)]).unwrap();
        let drains: [&Drain; 5] = [
            &|op| collect_rows_volcano(op).unwrap(),
            &|op| collect_columnar(op, 1),
            &|op| collect_columnar(op, 2),
            &|op| collect_columnar(op, 7),
            &|op| collect_columnar(op, 1024),
        ];
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let expected = inlj_reference(&storage(), tables, &outer, ty, passes);
            for drain in drains {
                let s = storage();
                let values = Box::new(ValuesOp::new(key_schema.clone(), outer.clone()));
                let mut inlj = IndexNestedLoopJoin::new(values, 0, h(), i(), residual(), ty, s.clone());
                prop_assert!(observe(&s, drain(&mut inlj)) == expected, "{ty:?}");
            }
        }
    }

    /// The `max` contract, searched rather than stated: every engine
    /// operator hands back between one and `max` live rows per call for
    /// `max ∈ {1, 2, 7, 4096}` and the same row sequence at each — which
    /// is also its `next()` sequence — over an input that carries
    /// selection vectors and honours `max` itself.
    #[test]
    fn every_operator_honours_max_at_every_chunk_size(
        input in proptest::collection::vec(
            (proptest::collection::vec((0i64..25, -50i64..50), 0..120), any::<bool>(), any::<u64>()),
            0..4,
        ),
        right in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        keys in proptest::collection::vec(0i64..25, 1..400),
        lo in 0i64..25,
        residual_hi in 0i64..500,
    ) {
        let pair = |&(k, v): &(i64, i64)| Row::new(vec![Value::Int(k), Value::Int(v)]);
        let morsels: Vec<Morsel> = input
            .iter()
            .map(|(rows, selected, seed)| Morsel::new(rows.iter().map(pair).collect(), *selected, *seed))
            .collect();
        let replay = || -> BoxedOperator {
            Box::new(Replay::new(two_col_schema("k", "v"), morsels.clone()))
        };
        let mut loader = HeapLoader::new_mem("t", two_col_schema("c0", "c1"));
        for (i, &k) in keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        let (h, i, s) = (|| Arc::clone(&heap), || Arc::clone(&index), storage());
        let residual = || Predicate::int_lt(0, residual_hi);
        let range = Predicate::and(vec![Predicate::int_half_open(1, lo, lo + 9), residual()]);
        let aggs = vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Min(1)];
        let join = |ty| HashJoin::new(replay(), values_op("rk", "rv", &right), 0, 0, ty, s.clone());
        let inlj = |ty| IndexNestedLoopJoin::new(replay(), 0, h(), i(), residual(), ty, s.clone());
        let operators: Vec<BoxedOperator> = vec![
            replay(),
            values_op("rk", "rv", &right),
            Box::new(Filter::new(replay(), Predicate::int_ge(1, 0))),
            Box::new(Project::new(replay(), vec![1, 0]).unwrap()),
            Box::new(Project::new(Box::new(Filter::new(replay(), Predicate::int_lt(1, 9))), vec![1]).unwrap()),
            Box::new(Sort::new(replay(), s.clone(), vec![SortKey::asc(0), SortKey::desc(1)])),
            Box::new(HashAggregate::new(replay(), vec![0], aggs, s.clone()).unwrap()),
            Box::new(join(JoinType::Inner)),
            Box::new(join(JoinType::LeftSemi)),
            Box::new(Sort::new(Box::new(join(JoinType::Inner)), s.clone(), vec![SortKey::asc(0)])),
            Box::new(inlj(JoinType::Inner)),
            Box::new(inlj(JoinType::LeftSemi)),
            Box::new(FullTableScan::new(h(), s.clone(), range)),
        ];
        // The replayed input is its morsels' live rows, at any `max`.
        let live: Vec<Row> = morsels.iter().flat_map(Morsel::live).collect();
        prop_assert!(collect_rows_volcano(replay().as_mut()).unwrap() == live);
        for mut op in operators {
            let by_row = collect_rows_volcano(op.as_mut()).unwrap();
            for max in [1, 2, 7, 4096] {
                prop_assert!(collect_columnar(op.as_mut(), max) == by_row, "{} at max={max}", op.label());
            }
        }
    }
}
