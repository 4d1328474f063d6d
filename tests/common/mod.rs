//! Shared by the workspace-level property suites: the reference
//! evaluator, the two-table fixture the suites load and evaluate, and
//! the random-plan generator over it.

pub mod plans;
pub mod reference;

use reference::Tables;
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Deterministic pseudo-random column: spreads keys over [0, domain).
pub fn scramble(i: i64, domain: i64) -> i64 {
    ((i.wrapping_mul(2654435761)) % domain + domain) % domain
}

/// Schema of both fixture tables; `c2` is NULL on every eleventh row of `t`.
pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::nullable("c2", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap()
}

/// The rows of `t` and of `r` (a second, smaller table for build sides),
/// in load order: what the databases are loaded from and what the
/// reference evaluates over.
pub fn tables(rows: i64) -> Tables {
    let t = (0..rows).map(|i| {
        let c2 = if i % 11 == 0 { Value::Null } else { Value::Int(scramble(i * 7, 500)) };
        Row::new(vec![Value::Int(i), Value::Int(scramble(i, 300)), c2, Value::str("x".repeat(24))])
    });
    let r = (0..rows / 3).map(|i| {
        Row::new(vec![
            Value::Int(scramble(i, 300)),
            Value::Int(scramble(i + 13, 300)),
            Value::Int(i),
            Value::str(format!("r{i}")),
        ])
    });
    Tables::from([("t", t.collect()), ("r", r.collect())])
}
