//! Model-based property tests for the batch algebra: random op sequences
//! over [`ColumnBatch`] and [`ColumnBuffer`], held to a `Vec<Row>` model
//! after every step.
//!
//! Schemas are generated (1–5 columns, every type, text anywhere, nullable
//! columns) with a small pool of rows whose text includes empty strings
//! and multi-byte characters; every op draws its rows from the pool, and
//! its indices and sizes are reduced against the state it meets — zero
//! rows included. The batch property drives the appenders (`push_row`,
//! `push_owned_row`, `append_dense`, `append_gather` with repeated and
//! out-of-order indices), `extract_range`, `project`, `set_selection` +
//! `into_rows` and the spill codec; the buffer property drives
//! `ColumnBuffer::fill` after partial `pop_row` / `pop_columns`, with
//! bursts large enough that the consumed-prefix compaction runs
//! mid-stream, and whole-buffer handovers followed by refills.

mod common;

use std::collections::VecDeque;

use common::{arb_type, arb_value_for};
use proptest::prelude::*;
use smooth_types::spill::{batch_row_len, decode_row, encode_batch_row};
use smooth_types::{Column, ColumnBatch, ColumnBuffer, DataType, Row, Schema, Value};

/// One step of a sequence: what to do, a seed for its free choices, and a
/// size (a handful, a morsel's worth, or more than the buffer's
/// compaction threshold).
#[derive(Debug, Clone)]
struct Op {
    kind: u8,
    seed: u64,
    n: usize,
}

#[derive(Debug, Clone)]
struct Case {
    schema: Schema,
    pool: Vec<Row>,
    ops: Vec<Op>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let columns = proptest::collection::vec((arb_type(), any::<bool>()), 1..6);
    (columns, 1usize..12).prop_flat_map(|(cols, pool_rows)| {
        let columns = cols.iter().enumerate().map(|(i, (ty, nullable))| {
            if *nullable {
                Column::nullable(format!("c{i}"), *ty)
            } else {
                Column::new(format!("c{i}"), *ty)
            }
        });
        let schema = Schema::new(columns.collect()).expect("unique names");
        // One text value in five is the empty string.
        let value = |ty, nullable| {
            (arb_value_for(ty, nullable), 0u8..5).prop_map(|(v, blank)| match v {
                Value::Str(_) if blank == 0 => Value::str(""),
                v => v,
            })
        };
        let row = cols.iter().map(|(ty, nullable)| value(*ty, *nullable)).collect::<Vec<_>>();
        let pool = proptest::collection::vec(row.prop_map(Row::new), pool_rows..pool_rows + 1);
        let size = prop_oneof![0usize..4, 0usize..80, 900usize..1700];
        let op = (0u8..10, any::<u64>(), size).prop_map(|(kind, seed, n)| Op { kind, seed, n });
        (pool, proptest::collection::vec(op, 1..32)).prop_map(move |(pool, ops)| Case {
            schema: schema.clone(),
            pool,
            ops,
        })
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` pool indices: repeats and any order.
fn picks(rng: &mut u64, n: usize, pool: usize) -> Vec<u32> {
    (0..n).map(|_| (splitmix(rng) % pool as u64) as u32).collect()
}

fn pooled(pool: &[Row], picks: &[u32]) -> Vec<Row> {
    picks.iter().map(|&p| pool[p as usize].clone()).collect()
}

/// Row-list equality with floats compared by bits (NaN equals itself).
fn same<'a>(a: impl IntoIterator<Item = &'a Row>, b: impl IntoIterator<Item = &'a Row>) -> bool {
    let same_value = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    let same_row = |x: &Row, y: &Row| {
        x.len() == y.len() && x.values().iter().zip(y.values()).all(|(x, y)| same_value(x, y))
    };
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if same_row(x, y) => {}
            _ => return false,
        }
    }
}

/// `batch` (dense) holds exactly `model`, and its text columns are the
/// ones a fresh build of the same rows has: equal content is equal
/// representation, whatever sequence of ops produced it.
fn check(schema: &Schema, batch: &ColumnBatch, model: &[Row]) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.physical_rows(), model.len());
    prop_assert!(same(&batch.clone().into_rows(), model), "{batch:?}\n≠ {model:?}");
    let rebuilt = ColumnBatch::from_rows(schema, model).unwrap();
    for (c, col) in schema.columns().iter().enumerate() {
        if col.ty == DataType::Text {
            prop_assert!(batch.column(c) == rebuilt.column(c), "text column {c}: {batch:?}");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn batch_ops_match_a_row_model(case in arb_case()) {
        let Case { schema, pool, ops } = case;
        let pool_batch = ColumnBatch::from_rows(&schema, &pool).unwrap();
        let mut batch = ColumnBatch::for_schema(&schema);
        let mut model: Vec<Row> = Vec::new();
        for op in &ops {
            let mut rng = op.seed;
            let picks = picks(&mut rng, op.n % 20, pool.len());
            // A (possibly empty) range of the rows held so far.
            let a = splitmix(&mut rng) as usize % (model.len() + 1);
            let b = a + splitmix(&mut rng) as usize % (model.len() - a + 1);
            match op.kind {
                0 => {
                    for row in pooled(&pool, &picks) {
                        batch.push_row(&row).unwrap();
                        model.push(row);
                    }
                }
                1 => {
                    for row in pooled(&pool, &picks) {
                        batch.push_owned_row(row.clone()).unwrap();
                        model.push(row);
                    }
                }
                2 => {
                    let rows = pooled(&pool, &picks);
                    batch.append_dense(ColumnBatch::from_rows(&schema, &rows).unwrap());
                    model.extend(rows);
                }
                3 => {
                    batch.append_gather(&pool_batch, &picks);
                    model.extend(pooled(&pool, &picks));
                }
                4 => {
                    let range = batch.extract_range(a, b);
                    check(&schema, &range, &model[a..b])?;
                }
                5 => {
                    // Carry on from the extracted range.
                    batch = batch.extract_range(a, b);
                    model = model[a..b].to_vec();
                }
                6 => {
                    // Keep some columns, in a scrambled order.
                    let mut cols: Vec<usize> = (0..schema.len()).collect();
                    cols.sort_by_cached_key(|_| splitmix(&mut rng));
                    cols.truncate(1 + splitmix(&mut rng) as usize % schema.len());
                    let projected = batch.clone().project(&cols).unwrap().into_rows();
                    let expected: Vec<Row> = model
                        .iter()
                        .map(|r| Row::new(cols.iter().map(|&c| r.get(c).clone()).collect()))
                        .collect();
                    prop_assert!(same(&projected, &expected), "project {cols:?}");
                }
                7 => {
                    // Distinct physical rows, out of order.
                    let mut sel: Vec<u32> = (0..model.len() as u32).collect();
                    sel.sort_by_cached_key(|_| splitmix(&mut rng));
                    sel.truncate(b - a);
                    let mut selected = batch.clone();
                    selected.set_selection(sel.clone());
                    prop_assert_eq!(selected.len(), sel.len());
                    let expected = sel.iter().map(|&i| &model[i as usize]);
                    prop_assert!(same(&selected.into_rows(), expected), "selection {sel:?}");
                }
                8 => {
                    for (phys, row) in model.iter().enumerate().skip(a).take(b - a) {
                        let mut bytes = Vec::new();
                        encode_batch_row(&batch, phys, &mut bytes);
                        prop_assert_eq!(bytes.len(), batch_row_len(&batch, phys));
                        let (back, used) = decode_row(&bytes, schema.len()).unwrap();
                        prop_assert_eq!(used, bytes.len());
                        prop_assert!(same([&back], [row]), "spill codec, row {phys}");
                    }
                }
                _ => {
                    batch.clear();
                    model.clear();
                }
            }
            check(&schema, &batch, &model)?;
        }
    }

    #[test]
    fn buffer_ops_match_a_fifo_model(case in arb_case()) {
        let Case { schema, pool, ops } = case;
        let pool_batch = ColumnBatch::from_rows(&schema, &pool).unwrap();
        let mut buf = ColumnBuffer::for_schema(&schema);
        let mut model: VecDeque<Row> = VecDeque::new();
        for op in &ops {
            let mut rng = op.seed;
            match op.kind {
                0..=3 => {
                    let picks = picks(&mut rng, op.n, pool.len());
                    let rows = pooled(&pool, &picks);
                    let pending = buf.pending();
                    let tail = buf.fill();
                    // A refill reclaims the consumed prefix once it
                    // dominates: the buffer holds O(pending), not
                    // O(emitted).
                    let consumed = tail.physical_rows() - pending;
                    prop_assert!(consumed < pending.max(1024), "{consumed} dead of {pending}");
                    match op.kind {
                        0 => rows.iter().for_each(|r| tail.push_row(r).unwrap()),
                        1 => rows.iter().for_each(|r| tail.push_owned_row(r.clone()).unwrap()),
                        2 => tail.append_dense(ColumnBatch::from_rows(&schema, &rows).unwrap()),
                        _ => tail.append_gather(&pool_batch, &picks),
                    }
                    model.extend(rows);
                }
                4..=6 => {
                    for _ in 0..op.n.min(model.len()) {
                        let (got, expected) = (buf.pop_row().unwrap(), model.pop_front().unwrap());
                        prop_assert!(same([&got], [&expected]), "pop_row");
                    }
                    prop_assert!(!model.is_empty() || buf.pop_row().is_none());
                }
                7..=8 => {
                    // A partial range, or (8) whatever is pending — the
                    // whole buffer, handed over, when nothing was popped
                    // since the last refill.
                    let max = if op.kind == 7 { op.n.max(1) } else { usize::MAX };
                    let expected: Vec<Row> = model.drain(..max.min(model.len())).collect();
                    match buf.pop_columns(max) {
                        None => prop_assert!(expected.is_empty()),
                        Some(morsel) => check(&schema, &morsel, &expected)?,
                    }
                }
                _ => {
                    buf.reset();
                    model.clear();
                }
            }
            prop_assert_eq!(buf.pending(), model.len());
            prop_assert_eq!(buf.is_drained(), model.is_empty());
        }
        let rest: Vec<Row> = std::iter::from_fn(|| buf.pop_columns(97))
            .flat_map(ColumnBatch::into_rows)
            .collect();
        prop_assert!(same(&rest, &model), "final drain");
    }
}
