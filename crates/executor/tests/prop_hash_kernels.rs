//! Property tests for the hash-table kernel ([`KeyTable`]) and the two
//! operators built on it, against naive oracles kept in this file: a
//! `HashMap` over canonical keys for grouping, a nested loop for the
//! join. Inputs mix `Int` / `Float` / `Text` / NULL keys from tiny
//! domains (heavy duplicates; `NaN`, `0.0` and `-0.0` included),
//! multi-column group keys, several morsels and selection vectors.
//! Every property also runs on the degenerate kernel — two initial
//! slots, every key hashing to 0 — so growth and long collision chains
//! are exercised; results must not depend on it.
//!
//! Key equality is the kernel's documented rule: bitwise for floats
//! (`NaN == NaN`, `0.0 != -0.0`), NULL equal only to NULL (and, in the
//! join, to nothing). `Value`'s derived `==` disagrees on floats, so the
//! oracles compare through [`Canon`].

use std::collections::HashMap;

mod common;

use common::{Morsel, Replay};
use proptest::prelude::*;
use smooth_executor::{
    collect_rows, collect_rows_volcano, AggFunc, HashAggregate, JoinBuildTable, JoinType, KeyTable,
};
use smooth_storage::Storage;
use smooth_types::{Column, ColumnBatch, ColumnVector, DataType, Row, Schema, Value};

/// A value under the kernel's equality: floats by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Canon {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
}

fn canon(v: &Value) -> Canon {
    match v {
        Value::Null => Canon::Null,
        Value::Int(x) => Canon::Int(*x),
        Value::Float(x) => Canon::Float(x.to_bits()),
        Value::Str(s) => Canon::Str(s.clone()),
    }
}

fn canon_rows(rows: &[Row]) -> Vec<Vec<Canon>> {
    rows.iter().map(|r| r.values().iter().map(canon).collect()).collect()
}

/// Key values of type `ty` from a tiny domain, NULL one time in six.
fn key_value(ty: DataType) -> BoxedStrategy<Value> {
    let non_null = match ty {
        DataType::Float64 => prop_oneof![
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(1.5)),
            Just(Value::Float(-2.0)),
        ]
        .boxed(),
        DataType::Text => prop_oneof![
            Just(Value::str("")),
            Just(Value::str("a")),
            Just(Value::str("ab")),
            Just(Value::str("0123456789")),
            Just(Value::str("0123456789x")),
        ]
        .boxed(),
        _ => (0i64..7).prop_map(Value::Int).boxed(),
    };
    prop_oneof![5 => non_null, 1 => Just(Value::Null)].boxed()
}

fn key_type() -> impl Strategy<Value = DataType> {
    prop_oneof![Just(DataType::Int64), Just(DataType::Float64), Just(DataType::Text)]
}

/// Morsels of rows `keys ++ [v: Int?, f: Float?]` for the given key
/// column types.
fn morsels(key_types: Vec<DataType>, max_rows: usize) -> impl Strategy<Value = Vec<Morsel>> {
    let row = (
        key_types.into_iter().map(key_value).collect::<Vec<_>>(),
        prop_oneof![4 => (-50i64..50).prop_map(Value::Int), 1 => Just(Value::Null)],
        prop_oneof![
            4 => (-8i64..8).prop_map(|x| Value::Float(x as f64 * 0.37)),
            1 => Just(Value::Null),
        ],
    )
        .prop_map(|(mut keys, v, f)| {
            keys.extend([v, f]);
            Row::new(keys)
        });
    let morsel = (proptest::collection::vec(row, 0..max_rows), any::<bool>(), any::<u64>())
        .prop_map(|(rows, selected, seed)| Morsel::new(rows, selected, seed));
    proptest::collection::vec(morsel, 0..4)
}

fn schema_for(key_types: &[DataType]) -> Schema {
    let mut cols: Vec<Column> = key_types
        .iter()
        .enumerate()
        .map(|(i, &ty)| Column::nullable(format!("k{i}"), ty))
        .collect();
    cols.push(Column::nullable("v", DataType::Int64));
    cols.push(Column::nullable("f", DataType::Float64));
    Schema::new(cols).unwrap()
}

fn float_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Naive grouped aggregation: groups in first-seen order, every
/// accumulator folded row by row in input order.
fn oracle_aggregate(rows: &[Row], group_cols: &[usize], aggs: &[AggFunc]) -> Vec<Row> {
    let mut ids: HashMap<Vec<Canon>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
    for row in rows {
        let key: Vec<Value> = group_cols.iter().map(|&c| row.get(c).clone()).collect();
        let id = *ids.entry(key.iter().map(canon).collect()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[id].1.push(row.clone());
    }
    if group_cols.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    groups
        .into_iter()
        .map(|(mut out, members)| {
            for agg in aggs {
                let non_null =
                    |c: usize| members.iter().map(move |r| r.get(c)).filter(|v| !v.is_null());
                out.push(match *agg {
                    AggFunc::CountStar => Value::Int(members.len() as i64),
                    AggFunc::Count(c) => Value::Int(non_null(c).count() as i64),
                    AggFunc::Sum(c) => {
                        Value::Float(non_null(c).fold(0.0, |s, v| s + float_of(v).unwrap()))
                    }
                    AggFunc::SumProduct(a, b) => Value::Float(
                        members
                            .iter()
                            .filter(|r| !r.get(a).is_null() && !r.get(b).is_null())
                            .fold(0.0, |s, r| {
                                s + float_of(r.get(a)).unwrap() * float_of(r.get(b)).unwrap()
                            }),
                    ),
                    AggFunc::Avg(c) => match non_null(c).count() {
                        0 => Value::Null,
                        n => Value::Float(
                            non_null(c).fold(0.0, |s, v| s + float_of(v).unwrap()) / n as f64,
                        ),
                    },
                    AggFunc::Min(c) => {
                        non_null(c).min_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null)
                    }
                    AggFunc::Max(c) => {
                        // First of equal maxima, like the operator's
                        // strict-improvement rule.
                        non_null(c)
                            .fold(None::<&Value>, |m, v| match m {
                                Some(cur) if !v.total_cmp(cur).is_gt() => Some(cur),
                                _ => Some(v),
                            })
                            .cloned()
                            .unwrap_or(Value::Null)
                    }
                });
            }
            Row::new(out)
        })
        .collect()
}

fn storage() -> Storage {
    Storage::default_hdd()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `KeyTable::intern` numbers distinct (multi-column) keys in
    /// first-seen order and `find` recovers every id — on the normal
    /// and on the degenerate kernel alike.
    #[test]
    fn entry_ids_equal_first_seen_order(
        (key_types, input) in proptest::collection::vec(key_type(), 1..4)
            .prop_flat_map(|t| (Just(t.clone()), morsels(t, 120))),
    ) {
        let schema = schema_for(&key_types);
        let cols: Vec<usize> = (0..key_types.len()).collect();
        for mut table in [
            KeyTable::new(key_types.iter().copied()),
            KeyTable::degenerate(key_types.iter().copied()),
        ] {
            let mut oracle: HashMap<Vec<Canon>, u32> = HashMap::new();
            let mut seen: Vec<(ColumnBatch, usize, u32)> = Vec::new();
            for m in &input {
                let batch = m.batch(&schema);
                let keys: Vec<&ColumnVector> = cols.iter().map(|&c| batch.column(c)).collect();
                for (phys, row) in batch.live_rows().zip(m.live()) {
                    let next = oracle.len() as u32;
                    let want = *oracle
                        .entry(cols.iter().map(|&c| canon(row.get(c))).collect())
                        .or_insert(next);
                    prop_assert_eq!(table.intern(&keys, phys), want);
                    seen.push((batch.clone(), phys, want));
                }
            }
            prop_assert_eq!(table.len(), oracle.len());
            for (batch, phys, want) in &seen {
                let keys: Vec<&ColumnVector> = cols.iter().map(|&c| batch.column(c)).collect();
                prop_assert_eq!(table.find(&keys, *phys), Some(*want));
            }
        }
    }

    /// `HashAggregate` ≡ the naive fold: same groups in the same
    /// (first-seen) order, bit-identical accumulators, under the
    /// columnar and the Volcano protocol, normal and degenerate kernel.
    #[test]
    fn grouped_aggregate_equals_naive_oracle(
        (key_types, input) in proptest::collection::vec(key_type(), 0..3)
            .prop_flat_map(|t| (Just(t.clone()), morsels(t, 150))),
    ) {
        let schema = schema_for(&key_types);
        let group_cols: Vec<usize> = (0..key_types.len()).collect();
        let (v, f) = (key_types.len(), key_types.len() + 1);
        let mut aggs = vec![
            AggFunc::CountStar,
            AggFunc::Count(v),
            AggFunc::Sum(f),
            AggFunc::Avg(v),
            AggFunc::SumProduct(v, f),
            AggFunc::Min(f),
            AggFunc::Max(v),
        ];
        if let Some(&k) = group_cols.first() {
            aggs.push(AggFunc::Max(k));
        }
        let live: Vec<Row> = input.iter().flat_map(Morsel::live).collect();
        let expected = canon_rows(&oracle_aggregate(&live, &group_cols, &aggs));
        for degenerate in [false, true] {
            let make = || {
                let child = Box::new(Replay::new(schema.clone(), input.clone()));
                let op = HashAggregate::new(child, group_cols.clone(), aggs.clone(), storage())
                    .unwrap();
                if degenerate { op.with_degenerate_hash() } else { op }
            };
            prop_assert_eq!(&canon_rows(&collect_rows(&mut make()).unwrap()), &expected);
            prop_assert_eq!(&canon_rows(&collect_rows_volcano(&mut make()).unwrap()), &expected);
        }
    }

    /// `JoinBuildTable` ≡ a nested loop: every probe row's matches in
    /// global build order, NULL keys matching nothing, and exactly
    /// `hash_op_ns · live + emit_tuple_ns · emitted` charged — on the
    /// real kernel and on the degenerate one.
    #[test]
    fn hash_join_equals_nested_loop_oracle(
        (ty, build, probe) in key_type()
            .prop_flat_map(|t| (Just(t), morsels(vec![t], 80), morsels(vec![t], 120))),
        semi in any::<bool>(),
    ) {
        let schema = schema_for(&[ty]);
        let join = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let out_schema = if semi { schema.clone() } else { schema.join(&schema) };
        let build_rows: Vec<Row> =
            build.iter().flat_map(Morsel::live).filter(|r| !r.get(0).is_null()).collect();

        let mut serial = JoinBuildTable::new(&schema, 0);
        let mut degenerate = JoinBuildTable::with_degenerate_hash(&schema, 0);
        for m in &build {
            serial.insert_batch(m.batch(&schema)).unwrap();
            degenerate.insert_batch(m.batch(&schema)).unwrap();
        }

        for table in [&serial, &degenerate] {
            prop_assert_eq!(table.len(), build_rows.len());
            for m in &probe {
                let mut expected: Vec<Row> = Vec::new();
                for left in m.live().iter().filter(|l| !l.get(0).is_null()) {
                    let mut hits =
                        build_rows.iter().filter(|r| canon(r.get(0)) == canon(left.get(0)));
                    if semi {
                        expected.extend(hits.next().map(|_| left.clone()));
                    } else {
                        expected.extend(hits.map(|r| left.concat(r)));
                    }
                }
                let st = storage();
                let batch = m.batch(&schema);
                let mut out = ColumnBatch::for_schema(&out_schema);
                table.probe_columns(&st, &batch, 0, join, &mut out).unwrap();
                prop_assert_eq!(canon_rows(&out.into_rows()), canon_rows(&expected));
                let cpu = *st.cpu();
                let clock = st.clock().snapshot();
                prop_assert_eq!(
                    clock.cpu_ns,
                    cpu.hash_op_ns * batch.len() as u64 + cpu.emit_tuple_ns * expected.len() as u64
                );
                prop_assert_eq!(clock.io_ns, 0);
            }
        }
    }
}

/// The `spill_inputs()` fixture of the join unit tests: 400 build rows
/// over 53 keys, 600 probe rows.
fn spill_fixture() -> (Schema, ColumnBatch, ColumnBatch) {
    let s = Schema::new(vec![Column::new("a", DataType::Int64), Column::new("b", DataType::Int64)])
        .unwrap();
    let pairs = |rows: Vec<(i64, i64)>| {
        let rows: Vec<Row> =
            rows.into_iter().map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)])).collect();
        ColumnBatch::from_rows(&s, &rows).unwrap()
    };
    let probe = pairs((0..600).map(|i| (i, i % 53)).collect());
    let build = pairs((0..400).map(|i| (i % 53, i)).collect());
    (s, build, probe)
}

/// `(spilled partitions, spilled build bytes, spilled build rows, I/O
/// ns charged by the build, I/O ns after finish_probe)`.
type SpillTally = (usize, u64, u64, u64, u64);

/// Spill accounting is a function of the spill partition count and the
/// budget alone. The numbers are the ones the `HashMap`-per-partition
/// build table produced on this fixture before the kernel replaced it,
/// as `(budget, partitions) → tally`.
#[test]
fn budgeted_build_spill_accounting_is_pinned() {
    let pinned: [((usize, usize), SpillTally); 6] = [
        ((2048, 1), (1, 7200, 400, 6_250_000, 22_625_000)),
        ((2048, 7), (5, 5310, 295, 3_125_000, 12_500_000)),
        ((2048, 64), (37, 5184, 288, 23_125_000, 92_500_000)),
        ((1024, 1), (1, 7200, 400, 6_250_000, 22_625_000)),
        ((1024, 7), (6, 6264, 348, 18_125_000, 65_000_000)),
        ((1024, 64), (45, 6192, 344, 28_125_000, 112_500_000)),
    ];
    let (s, build, probe) = spill_fixture();
    for ((budget, partitions), want) in pinned {
        let st = storage();
        let mut table = JoinBuildTable::with_partitions(&s, 0, partitions);
        table.insert_batch(build.clone()).unwrap();
        table.apply_budget(&st, budget).unwrap();
        let build_io = st.clock().snapshot().io_ns;
        let mut out = ColumnBatch::for_schema(&s.join(&s));
        table.probe_columns(&st, &probe, 1, JoinType::Inner, &mut out).unwrap();
        table.finish_probe(&st).unwrap();
        let got = (
            table.spilled_partition_count(),
            table.spilled_build_bytes(),
            table.spilled_build_rows(),
            build_io,
            st.clock().snapshot().io_ns,
        );
        assert_eq!(got, want, "budget {budget}, {partitions} partitions");
        assert_eq!(out.len(), 4536, "spilling never changes the join result");
        assert_eq!(st.clock().snapshot().cpu_ns, 1_170_000, "spill charges the I/O lane only");
    }
}
