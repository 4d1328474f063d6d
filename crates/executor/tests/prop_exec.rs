//! Property tests for the executor: join operators must agree with a
//! nested-loop oracle for arbitrary inputs, every access path must
//! return the same multiset as a filtered full scan, and the columnar
//! iterator protocol must produce the exact row sequence of the
//! row-at-a-time protocol for every operator — including with selection
//! vectors active and with both protocols interleaved on one stream.

use std::sync::Arc;

use proptest::prelude::*;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    collect_rows, collect_rows_volcano, operator::ValuesOp, AggFunc, BoxedOperator, Filter,
    FullTableScan, HashAggregate, HashJoin, IndexNestedLoopJoin, IndexScan, JoinType, MergeJoin,
    Operator, Predicate, Project, Sort, SortScan,
};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Drain an operator through `next_columns(max)` only, checking the
/// columnar batch contract.
fn collect_columnar(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        assert!(!batch.is_empty(), "empty columnar batch violates the protocol");
        assert!(batch.len() <= max, "columnar batch exceeds max");
        rows.extend(batch.into_rows());
    }
    assert!(op.next_columns(max).unwrap().is_none(), "None must be sticky");
    op.close().unwrap();
    rows
}

/// Drain an operator alternating `next()` and `next_columns(max)` calls —
/// the two protocols share one stream and must compose.
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

/// The protocol-equivalence obligation: row-at-a-time, columnar and
/// interleaved drains of (reopenable) `op` yield the identical sequence.
fn assert_protocols_equivalent(op: &mut dyn Operator, max: usize) {
    let volcano = collect_rows_volcano(op).unwrap();
    assert_eq!(collect_columnar(op, max), volcano, "columnar ≠ row-at-a-time (max={max})");
    assert_eq!(collect_interleaved(op, max), volcano, "interleaved ≠ row-at-a-time (max={max})");
}

/// The row-queue obligation for operators whose unit of work is a row —
/// `next()`-only ones on the trait-default `next_columns`, and
/// `IndexNestedLoopJoin`, whose native one drains the same row queue: on
/// a fresh operator over a fresh storage per drain, a `next_columns`
/// drain (contract checked by [`collect_columnar`]) and an interleaved
/// drain yield the pure-`next()` row sequence *and* charge the identical
/// virtual clock and I/O counters.
fn assert_row_queue_equivalent(mk: &dyn Fn(&Storage) -> BoxedOperator, max: usize) {
    let run = |drain: &dyn Fn(&mut dyn Operator) -> Vec<Row>| {
        let s = storage();
        let rows = drain(mk(&s).as_mut());
        (rows, s.clock().snapshot(), s.io_snapshot())
    };
    let volcano = run(&|op| collect_rows_volcano(op).unwrap());
    assert_eq!(run(&|op| collect_columnar(op, max)), volcano, "bridge ≠ next() (max={max})");
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
    fn hash_and_merge_joins_match_oracle(
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
        prop_assert_eq!(canonical(collect_rows(&mut hj).unwrap()), expected.clone());
        let mut ls = left.clone();
        ls.sort();
        let mut rs = right.clone();
        rs.sort();
        let mut mj = MergeJoin::new(
            values_op("lk", "lv", &ls),
            values_op("rk", "rv", &rs),
            0,
            0,
            storage(),
        );
        prop_assert_eq!(canonical(collect_rows(&mut mj).unwrap()), expected);
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

    /// All three scan paths return the same multiset as the predicate
    /// applied row-by-row, for arbitrary data and ranges.
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
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
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
        prop_assert_eq!(canonical(collect_rows(&mut full).unwrap()), expected.clone());
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            Predicate::True,
        );
        prop_assert_eq!(canonical(collect_rows(&mut is).unwrap()), expected.clone());
        let mut ss = SortScan::new(
            heap,
            index,
            s,
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            Predicate::True,
        );
        prop_assert_eq!(canonical(collect_rows(&mut ss).unwrap()), expected);
    }

    /// `next_columns` ≡ `next` for every access path, for arbitrary data,
    /// ranges, residuals and batch sizes.
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
        let mut full = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::and(vec![Predicate::int_half_open(1, lo, hi), residual.clone()]),
        );
        assert_protocols_equivalent(&mut full, max);
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            residual.clone(),
        );
        assert_protocols_equivalent(&mut is, max);
        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            residual.clone(),
        );
        assert_protocols_equivalent(&mut ss, max);
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

    /// `next_columns` ≡ `next` for the relational operators (filter,
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
        let mut ls = left.clone();
        ls.sort();
        let mut rs = right.clone();
        rs.sort();
        let mut mj =
            MergeJoin::new(values_op("lk", "lv", &ls), values_op("rk", "rv", &rs), 0, 0, storage());
        assert_protocols_equivalent(&mut mj, max);
    }

    /// The `next_columns` trait default (loop `next()`, one row→column
    /// conversion) over the operators that implement only `next()` —
    /// `ValuesOp`, `MergeJoin` — and the INLJ's native
    /// morsel-pulling variant over an outer that does no I/O: batches
    /// non-empty and ≤ `max`, `None` sticky, row sequence and clock delta
    /// equal to the pure-`next()` drain, nothing lost or duplicated when
    /// the protocols interleave.
    #[test]
    fn default_column_bridge_equals_row_protocol(
        left in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        right in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        inner_keys in proptest::collection::vec(0i64..25, 1..300),
        max in 1usize..40,
    ) {
        assert_row_queue_equivalent(&|_| values_op("lk", "lv", &left), max);
        let mut ls = left.clone();
        ls.sort();
        let mut rs = right.clone();
        rs.sort();
        assert_row_queue_equivalent(
            &|s| {
                let (l, r) = (values_op("lk", "lv", &ls), values_op("rk", "rv", &rs));
                Box::new(MergeJoin::new(l, r, 0, 0, s.clone()))
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
            assert_row_queue_equivalent(
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
