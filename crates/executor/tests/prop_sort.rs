//! Property tests for the columnar sort — [`Sort`] and the
//! [`ExternalSorter`] under it — against the row reference it replaced:
//! `Vec<Row>::sort_by(compare_rows)`, a stable sort under
//! `Value::total_cmp`.
//!
//! Inputs are morsels (some with selection vectors) over a generated
//! schema: three nullable columns of `Int` / `Float` / `Text` from tiny
//! domains — heavy duplicates; `NaN`, `±0.0`, `±inf`, the empty string
//! and multi-byte text included — plus a position column that tells
//! equal-keyed rows apart, so a stability bug changes the output. One
//! to three sort keys, directions mixed, at budgets from "spills every
//! dozen rows" to "never spills" and 0 (unlimited). A second domain
//! aims at the sorter's normalized first key: values of every key type
//! that tie on their 8-byte prefix without being equal (integer
//! extremes, text sharing its first 8 bytes, trailing NUL bytes).
//!
//! Rows must equal the reference at every budget (so output order is
//! budget-independent), `next()` and `next_columns` must agree, and the
//! clock must move by the closed form of the row reference: runs cut
//! after the row that takes the working set's `row_len` sum past the
//! budget M (so ⌈bytes / M⌉ of them, give or take the overshoot), each
//! sorted for `sort_cmp_ns · nᵢ⌊log₂ nᵢ⌋`, written once and read once
//! (one merge pass, whatever k is — the external-memory bound's pass
//! count depends on N and M alone), merged for
//! `sort_cmp_ns · n⌈log₂ k⌉`.

mod common;

use common::{Morsel, Replay};
use proptest::prelude::*;
use smooth_executor::sort::{compare_rows, SortKey};
use smooth_executor::{collect_rows, collect_rows_volcano, spill_io_ns, ExternalSorter, Sort};
use smooth_storage::Storage;
use std::cmp::Ordering;

use smooth_types::{
    spill as codec, Column, ColumnBatch, ColumnVector, DataType, Row, Schema, Value,
};

const BUDGETS: [usize; 6] = [0, 512, 4 << 10, 16 << 10, 64 << 10, 1 << 20];

fn value(ty: DataType) -> BoxedStrategy<Value> {
    let non_null = match ty {
        DataType::Float64 => prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1.5),
            Just(-2.0),
        ]
        .prop_map(Value::Float)
        .boxed(),
        DataType::Text => {
            prop_oneof![Just(""), Just("a"), Just("ab"), Just("b"), Just("é"), Just("日本語")]
                .prop_map(Value::str)
                .boxed()
        }
        _ => (-3i64..4).prop_map(Value::Int).boxed(),
    };
    prop_oneof![5 => non_null, 1 => Just(Value::Null)].boxed()
}

#[derive(Debug, Clone)]
struct Case {
    types: Vec<DataType>,
    morsels: Vec<Morsel>,
    keys: Vec<SortKey>,
}

impl Case {
    fn schema(&self) -> Schema {
        let mut cols: Vec<Column> = self
            .types
            .iter()
            .enumerate()
            .map(|(i, &ty)| Column::nullable(format!("c{i}"), ty))
            .collect();
        cols.push(Column::new("pos", DataType::Int64));
        Schema::new(cols).unwrap()
    }

    fn input(&self) -> Vec<Row> {
        self.morsels.iter().flat_map(Morsel::live).collect()
    }
}

/// Values that tie on the sorter's normalized first key
/// ([`ColumnVector::sort_prefix`]) without being equal, or sit at the
/// edges of its image: integer and `Int32` extremes, every float class
/// `total_cmp` orders, text sharing its first 8 bytes — or all of them,
/// up to trailing NUL bytes — and the empty string.
fn tie_value(ty: DataType) -> BoxedStrategy<Value> {
    let non_null = match ty {
        DataType::Float64 => prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            any::<f64>(),
        ]
        .prop_map(Value::Float)
        .boxed(),
        DataType::Text => {
            let ch = prop_oneof![Just('\0'), Just('a'), Just('b'), Just('é')];
            let tail = proptest::collection::vec(ch, 0..6).prop_map(String::from_iter);
            let head = prop_oneof![Just(""), Just("abcdefgh"), Just("abcdefg"), Just("\0\0\0")];
            (head, tail).prop_map(|(head, tail)| Value::str(head.to_owned() + &tail)).boxed()
        }
        DataType::Int32 => {
            prop_oneof![Just(i64::from(i32::MIN)), Just(i64::from(i32::MAX)), -3i64..4]
                .prop_map(Value::Int)
                .boxed()
        }
        _ => prop_oneof![Just(i64::MIN), Just(i64::MIN + 1), Just(i64::MAX), -3i64..4]
            .prop_map(Value::Int)
            .boxed(),
    };
    prop_oneof![5 => non_null, 1 => Just(Value::Null)].boxed()
}

/// Every type a sort key can have.
fn any_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int64),
        Just(DataType::Int32),
        Just(DataType::Date),
        Just(DataType::Float64),
        Just(DataType::Text),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    let ty = prop_oneof![Just(DataType::Int64), Just(DataType::Float64), Just(DataType::Text)];
    case_of(ty.boxed(), value)
}

/// Cases over columns of type `ty` holding values drawn by `value`.
fn case_of(
    ty: BoxedStrategy<DataType>,
    value: fn(DataType) -> BoxedStrategy<Value>,
) -> impl Strategy<Value = Case> {
    let key =
        (0usize..3, any::<bool>()).prop_map(|(column, ascending)| SortKey { column, ascending });
    (proptest::collection::vec(ty, 3..4), proptest::collection::vec(key, 1..4)).prop_flat_map(
        move |(types, keys)| {
            let row = types.iter().copied().map(value).collect::<Vec<_>>();
            let morsel = (proptest::collection::vec(row, 0..260), any::<bool>(), any::<u64>());
            (Just(types), Just(keys), proptest::collection::vec(morsel, 0..5)).prop_map(
                |(types, keys, raw)| {
                    let mut pos = 0i64;
                    let morsels = raw
                        .into_iter()
                        .map(|(rows, selected, seed)| {
                            let rows: Vec<Row> = rows
                                .into_iter()
                                .map(|mut values| {
                                    values.push(Value::Int(pos));
                                    pos += 1;
                                    Row::new(values)
                                })
                                .collect();
                            Morsel::new(rows, selected, seed)
                        })
                        .collect();
                    Case { types, morsels, keys }
                },
            )
        },
    )
}

/// Rows as their spill encoding: floats by bit pattern, so `NaN`
/// equals itself and `0.0` differs from `-0.0` (`Value`'s `==` says
/// otherwise on both counts).
fn canon(rows: &[Row]) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|r| {
            let mut bytes = Vec::new();
            codec::encode_row(r, &mut bytes);
            bytes
        })
        .collect()
}

/// What sorting `input` in rows charged, by closed form: `(runs cut
/// while pushing, cpu ns, io ns)`.
fn reference_charges(st: &Storage, input: &[Row], budget: usize) -> (usize, u64, u64) {
    let cmp_ns = st.cpu().sort_cmp_ns;
    let nlogn = |n: u64| if n > 1 { n * n.ilog2() as u64 } else { 0 };
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let (mut rows, mut bytes) = (0u64, 0u64);
    for row in input {
        rows += 1;
        bytes += codec::row_len(row) as u64;
        if budget > 0 && bytes > budget as u64 {
            runs.push((rows, bytes));
            (rows, bytes) = (0, 0);
        }
    }
    let pushed = runs.len();
    if pushed == 0 {
        return (0, cmp_ns * nlogn(rows), 0);
    }
    if rows > 0 {
        runs.push((rows, bytes));
    }
    let depth = runs.len().next_power_of_two().trailing_zeros() as u64;
    let cpu = runs.iter().map(|&(n, _)| nlogn(n)).sum::<u64>() + input.len() as u64 * depth;
    let io = runs.iter().map(|&(_, b)| 2 * spill_io_ns(&st.device(), b)).sum();
    (pushed, cmp_ns * cpu, io)
}

/// The row shim the benchmark still drives cuts the runs batch ingest
/// cuts and sorts to the same rows.
#[test]
fn row_shim_and_batch_ingest_agree() {
    let keys = vec![SortKey::desc(0), SortKey::asc(1)];
    let schema =
        Schema::new(vec![Column::new("k", DataType::Int64), Column::new("v", DataType::Int64)])
            .unwrap();
    let input: Vec<Row> =
        (0..300).map(|i| Row::new(vec![Value::Int((i * 37) % 10), Value::Int(i)])).collect();
    let mut by_row = ExternalSorter::new(Storage::default_hdd(), keys.clone(), 1024);
    input.iter().cloned().for_each(|r| by_row.push(r).unwrap());
    let mut by_batch = ExternalSorter::new(Storage::default_hdd(), keys, 1024);
    by_batch.push_batch(&ColumnBatch::from_rows(&schema, &input).unwrap()).unwrap();
    assert_eq!(by_row.run_count(), 300 * 18 / (1024 + 18));
    assert_eq!(by_row.run_count(), by_batch.run_count());
    assert_eq!(by_row.finish().unwrap(), by_batch.finish().unwrap());
}

/// The sorter — driven directly, morsel by morsel — returns the
/// reference's rows in the reference's order at each of `budgets`, cuts
/// the runs the cut rule says and charges the closed form.
fn sorter_equals_row_reference(case: &Case, budgets: &[usize]) -> Result<(), TestCaseError> {
    let schema = case.schema();
    let input = case.input();
    let mut expect = input.clone();
    expect.sort_by(|a, b| compare_rows(a, b, &case.keys));
    for &budget in budgets {
        let st = Storage::default_hdd();
        let before = st.clock().snapshot();
        let mut sorter = ExternalSorter::new(st.clone(), case.keys.clone(), budget);
        for m in &case.morsels {
            sorter.push_batch(&m.batch(&schema)).unwrap();
        }
        let (runs, cpu_ns, io_ns) = reference_charges(&st, &input, budget);
        prop_assert!(sorter.run_count() == runs, "runs at budget {}", budget);
        let out = sorter.finish().unwrap();
        prop_assert!(out.iter().all(|b| !b.is_empty() && b.selection().is_none()));
        let rows: Vec<Row> = out.into_iter().flat_map(ColumnBatch::into_rows).collect();
        prop_assert!(canon(&rows) == canon(&expect), "rows at budget {}", budget);
        let delta = st.clock().snapshot().since(&before);
        prop_assert!((delta.cpu_ns, delta.io_ns) == (cpu_ns, io_ns), "clock at budget {}", budget);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorter — driven directly, morsel by morsel — returns the
    /// reference's rows in the reference's order at every budget, cuts
    /// the runs the cut rule says and charges the closed form.
    #[test]
    fn sorter_equals_row_reference_in_rows_runs_and_charges(case in case()) {
        sorter_equals_row_reference(&case, &BUDGETS)?;
    }

    /// Mixed-type, multi-key inputs whose first keys tie on their
    /// normalized prefix without being equal: the sorter falls back to
    /// every key, then to the row, and so still returns the reference's
    /// stable order — unlimited and under a budget that spills.
    #[test]
    fn sorter_breaks_prefix_ties_like_the_row_reference(case in case_of(any_type().boxed(), tie_value)) {
        sorter_equals_row_reference(&case, &[0, 512])?;
    }

    /// The normalized first key never contradicts the comparator: a
    /// smaller image means a smaller value, ascending — and, with the
    /// images complemented, descending — and NULL's image is at or below
    /// every other.
    #[test]
    fn sort_prefix_orders_like_slot_cmp(
        (ty, values) in any_type().prop_flat_map(|ty| (Just(ty), proptest::collection::vec(tie_value(ty), 2..24))),
    ) {
        let mut col = ColumnVector::for_type(ty);
        values.iter().for_each(|v| col.push_value(v).unwrap());
        for i in 0..col.len() {
            for j in 0..col.len() {
                let (a, b, ord) = (col.sort_prefix(i), col.sort_prefix(j), col.slot_cmp(i, &col, j));
                let pair = format!("{:?} vs {:?}", values[i], values[j]);
                prop_assert!(a >= b || ord == Ordering::Less, "ascending: {}", pair);
                prop_assert!(!a >= !b || ord.reverse() == Ordering::Less, "descending: {}", pair);
                prop_assert!(!col.is_null(i) || a <= b, "NULL above a value: {}", pair);
            }
        }
    }

    /// The operator: Volcano `next()` and columnar `next_columns` emit
    /// the same rows — the reference's — for the same charges.
    #[test]
    fn sort_operator_protocols_agree_with_the_reference(case in case()) {
        let input = case.input();
        let mut expect = input.clone();
        expect.sort_by(|a, b| compare_rows(a, b, &case.keys));
        for budget in BUDGETS {
            let st = Storage::default_hdd();
            let sort = || {
                Sort::new(Box::new(Replay::new(case.schema(), case.morsels.clone())), st.clone(), case.keys.clone()).with_mem_budget(budget)
            };
            let before = st.clock().snapshot();
            let columnar = collect_rows(&mut sort()).unwrap();
            let mid = st.clock().snapshot();
            let volcano = collect_rows_volcano(&mut sort()).unwrap();
            let after = st.clock().snapshot();
            prop_assert!(canon(&columnar) == canon(&expect), "columnar at budget {}", budget);
            prop_assert!(canon(&volcano) == canon(&expect), "volcano at budget {}", budget);
            let (_, cpu_ns, io_ns) = reference_charges(&st, &input, budget);
            for delta in [mid.since(&before), after.since(&mid)] {
                prop_assert!((delta.cpu_ns, delta.io_ns) == (cpu_ns, io_ns), "clock at budget {}", budget);
            }
        }
    }
}
