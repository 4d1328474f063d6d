//! The decode path under the operators, held to the row-at-a-time
//! reference: the columnar index nested-loop join against a `Row::decode`
//! loop across join types, residuals, NULL and duplicate keys and outer
//! selection vectors — rows, order, clock and I/O — and `ScanFilter` on
//! pages carrying a corrupt tuple.

use std::sync::Arc;

use smooth_executor::operator::ValuesOp;
use smooth_executor::{
    collect_rows_volcano, BoxedOperator, Filter, IndexNestedLoopJoin, JoinType, Operator,
    Predicate, ScanFilter,
};
use smooth_index::BTreeIndex;
use smooth_storage::{
    CpuCosts, DeviceProfile, HeapFile, HeapLoader, PageView, Storage, StorageConfig,
};
use smooth_types::{Column, ColumnBatch, DataType, Error, Row, Schema, Value};

/// Inner table for the INLJ matrix: `k` cycles through 0..20 (so every
/// key is duplicated across pages), `v` is the row number, `pad` is
/// page-backed text, NULL on every ninth row.
fn inlj_inner() -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let inner_schema = Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("v", DataType::Int64),
        Column::nullable("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("inner", inner_schema);
    for i in 0..1200i64 {
        let pad = if i % 9 == 0 { Value::Null } else { Value::str(format!("pad-{i:060}")) };
        l.push(&Row::new(vec![Value::Int(i % 20), Value::Int(i), pad])).unwrap();
    }
    let heap = Arc::new(l.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("inner_k", &heap, 0).unwrap());
    (heap, index)
}

/// Outer side for the INLJ matrix: `fk` hits, misses and is NULL on
/// every fifth row; a filter on `a` above it makes the columnar
/// protocol hand over morsels with an active selection vector.
fn inlj_outer() -> BoxedOperator {
    let outer_schema = Schema::new(vec![
        Column::new("a", DataType::Int64),
        Column::nullable("fk", DataType::Int64),
        Column::new("tag", DataType::Text),
    ])
    .unwrap();
    let rows = (0..150i64).map(|i| {
        let fk = if i % 5 == 0 { Value::Null } else { Value::Int((i * 7) % 26) };
        Row::new(vec![Value::Int(i), fk, Value::str(format!("t{i}"))])
    });
    let values = ValuesOp::new(outer_schema, rows.collect());
    Box::new(Filter::new(Box::new(values), Predicate::int_ge(0, 30)))
}

/// A pool far smaller than the inner heap, so where a semi join stops
/// fetching shows in the I/O counters.
fn small_pool() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 2,
    })
}

#[test]
fn inlj_protocols_match_a_row_decode_reference_loop() {
    let (heap, index) = inlj_inner();
    let residuals = [
        Predicate::True,
        Predicate::int_ge(1, 400),
        Predicate::StrIn { col: 2, values: vec![format!("pad-{:060}", 401), "x".into()] },
    ];
    for ty in [JoinType::Inner, JoinType::LeftSemi] {
        for residual in &residuals {
            // The pre-columnar algorithm, row by row, as the oracle.
            let s = small_pool();
            let cpu = *s.cpu();
            let mut expected = Vec::new();
            for outer_row in collect_rows_volcano(&mut *inlj_outer()).unwrap() {
                let Value::Int(key) = outer_row.get(1) else { continue };
                for tid in index.probe(&s, *key) {
                    let page = s.read_heap_page(&heap, tid.page).unwrap();
                    s.clock().charge_cpu(cpu.inspect_tuple_ns);
                    let tuple = PageView::new(&page).unwrap().get(tid.slot).unwrap();
                    let inner_row = Row::decode(heap.schema(), tuple).unwrap();
                    if !residual.eval(&inner_row).unwrap() {
                        continue;
                    }
                    s.clock().charge_cpu(cpu.emit_tuple_ns);
                    match ty {
                        JoinType::Inner => expected.push(outer_row.concat(&inner_row)),
                        JoinType::LeftSemi => {
                            expected.push(outer_row.clone());
                            break;
                        }
                    }
                }
            }
            assert!(!expected.is_empty(), "{ty:?} {residual:?} joins something");
            let expected = (expected, s.clock().snapshot(), s.io_snapshot());
            let run = |drain: &dyn Fn(&mut dyn Operator) -> Vec<Row>| {
                let s = small_pool();
                let mut join = IndexNestedLoopJoin::new(
                    inlj_outer(),
                    1,
                    Arc::clone(&heap),
                    Arc::clone(&index),
                    residual.clone(),
                    ty,
                    s.clone(),
                );
                (drain(&mut join), s.clock().snapshot(), s.io_snapshot())
            };
            let volcano = run(&|op| collect_rows_volcano(op).unwrap());
            assert_eq!(volcano, expected, "next() {ty:?} {residual:?}");
            for max in [1, 7, 1024] {
                let columnar = run(&|op| {
                    op.open().unwrap();
                    let mut rows = Vec::new();
                    while let Some(batch) = op.next_columns(max).unwrap() {
                        assert!(!batch.is_empty() && batch.len() <= max);
                        rows.extend(batch.into_rows());
                    }
                    op.close().unwrap();
                    rows
                });
                assert_eq!(columnar, expected, "next_columns({max}) {ty:?} {residual:?}");
                let interleaved = run(&|op| {
                    op.open().unwrap();
                    let mut rows = Vec::new();
                    while let Some(row) = op.next().unwrap() {
                        rows.push(row);
                        rows.extend(
                            op.next_columns(max)
                                .unwrap()
                                .into_iter()
                                .flat_map(ColumnBatch::into_rows),
                        );
                    }
                    op.close().unwrap();
                    rows
                });
                assert_eq!(interleaved, expected, "interleaved({max}) {ty:?} {residual:?}");
            }
        }
    }
}

#[test]
fn corrupt_tuples_fail_their_page_in_both_forms() {
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int64),
        Column::new("s", DataType::Text),
        Column::new("t", DataType::Text),
    ])
    .unwrap();
    // Reads `a` and `s`, never `t`.
    let pred = Predicate::And(vec![
        Predicate::int_ge(0, 10),
        Predicate::StrEq { col: 1, value: "x".into() },
    ]);
    let encode = |a: i64| {
        Row::new(vec![Value::Int(a), Value::str("x"), Value::str("tail")]).encode(&schema).unwrap()
    };
    let (miss, hit) = (encode(1), encode(50));
    let with = |bytes: &[u8], at: usize, b: u8| {
        let mut v = bytes.to_vec();
        v[at] = b;
        v
    };
    // bitmap(1) + a(8) + len(2) puts `s` at 11; + "x" + len(2), `t` at 14.
    // Each case: rejected when every column is emitted / when only `a` is
    // (so `t` is neither read nor emitted, and `s` is read, not emitted).
    let cases = [
        ("truncated non-qualifier", miss[..miss.len() - 1].to_vec(), true, true),
        ("trailing byte on a non-qualifier", [&miss[..], &[0]].concat(), true, true),
        // Structure is validated whatever is wanted: `t`'s length prefix.
        ("unwanted text's length past the tuple", with(&miss, 12, 0xff), true, true),
        ("null bit without room for the rest", with(&hit, 0, 0b010), true, true),
        ("non-utf8 in a predicate column", with(&miss, 11, 0xff), true, true),
        // Text is checked where a value is materialized: an unread
        // column's is when it is emitted, and never for a non-qualifier.
        ("non-utf8 in a qualifier's unread column", with(&hit, 14, 0xff), true, false),
        ("non-utf8 in a non-qualifier's unread column", with(&miss, 14, 0xff), false, false),
    ];
    let only_a = schema.narrow(Some(&[0])).unwrap();
    for (what, bad, full_rejects, pruned_rejects) in cases {
        for (out, cols, rejected) in
            [(&schema, None, full_rejects), (&only_a, Some(&[0usize][..]), pruned_rejects)]
        {
            let mut filter = ScanFilter::with_output(pred.clone(), &schema, cols).unwrap();
            // Alone (what an index probe hands over) and amid a page.
            let decoded = filter.fill(&[&bad], &mut ColumnBatch::for_schema(out));
            let page: [&[u8]; 4] = [&hit, &miss, &bad, &hit];
            let mut got = ColumnBatch::for_schema(out);
            let filled = filter.fill(&page, &mut got);
            // Ordered Smooth Scan's form: select, check the text it will
            // decode later, keep the bytes.
            let checked = filter.select(&page).and_then(|_| filter.check_selected_text(&page));
            if rejected {
                assert!(matches!(decoded, Err(Error::Corrupt(_))), "{what} {cols:?}: {decoded:?}");
                assert!(matches!(filled, Err(Error::Corrupt(_))), "{what} {cols:?}: {filled:?}");
                assert!(matches!(checked, Err(Error::Corrupt(_))), "{what} {cols:?}: {checked:?}");
                assert!(Row::decode(&schema, &bad).is_err(), "{what}: the reference agrees");
            } else {
                // The mangled tuple itself qualifies when it was made from `hit`.
                let bad_hits = u64::from(bad[1] == 50);
                assert_eq!(decoded.unwrap(), (1, bad_hits), "{what} {cols:?}");
                assert_eq!(filled.unwrap(), (4, 2 + bad_hits), "{what} {cols:?}");
                checked.unwrap_or_else(|e| panic!("{what} {cols:?}: {e}"));
                let a: Vec<Value> = got.into_rows().iter().map(|r| r.get(0).clone()).collect();
                assert_eq!(a, vec![Value::Int(50); 2 + bad_hits as usize], "{what} {cols:?}");
            }
        }
    }
}
