//! A reference evaluator for [`LogicalPlan`] over plain `Vec<Row>` tables:
//! the semantics oracle that is not the engine.
//!
//! Every driver the suites compare — the root-drained Volcano view, the
//! columnar driver, the parallel driver — runs the same kernels
//! (`ScanFilter`, `TupleLayout`, `KeyTable`, `ExternalSorter`), so their
//! agreeing with each other says nothing about a kernel all three share.
//! This file shares no line with them: no pages, no clock, no batches, no
//! hash tables. From the engine it takes only the plan types, `Row` /
//! `Value`, and [`Predicate::eval`] — the row evaluator no operator calls.
//! Scans and filters are `iter().filter(eval)`, joins are nested loops,
//! groups form in first-seen order by linear search, sorts are a stable
//! `sort_by` on [`Value::total_cmp`].

use std::cmp::Ordering;
use std::collections::HashMap;

use smooth_executor::sort::SortKey;
use smooth_executor::{AggFunc, JoinType, Predicate};
use smooth_planner::{JoinStrategy, LogicalPlan};
use smooth_types::{Row, Value};

/// The tables a plan reads: name → rows in load order.
pub type Tables = HashMap<&'static str, Vec<Row>>;

/// What a plan must return.
pub struct Expected {
    /// The rows, in the reference's own order.
    pub rows: Vec<Row>,
    /// The order the plan *defines* (an `ordered:` scan, a `Sort`, a
    /// merge join's left key), as keys over the output columns; empty
    /// when any order is right.
    pub order: Vec<SortKey>,
}

fn compare(a: &Row, b: &Row, keys: &[SortKey]) -> Ordering {
    keys.iter().fold(Ordering::Equal, |ord, k| {
        let by_key = a.get(k.column).total_cmp(b.get(k.column));
        ord.then(if k.ascending { by_key } else { by_key.reverse() })
    })
}

/// The column an `ordered:` scan orders by: its predicate's first range
/// conjunct.
fn order_column(predicate: &Predicate) -> Option<usize> {
    let range = |p: &Predicate| match p {
        Predicate::IntRange { col, .. } => Some(*col),
        _ => None,
    };
    match predicate {
        Predicate::And(ps) => ps.iter().find_map(range),
        p => range(p),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("aggregate over non-numeric {other}"),
    }
}

/// One aggregate over the rows of one group.
fn aggregate(f: &AggFunc, rows: &[&Row]) -> Value {
    let non_null =
        |c: usize| rows.iter().map(move |r| r.get(c)).filter(|v| !v.is_null()).collect::<Vec<_>>();
    let extreme = |c: usize, want: Ordering| {
        let better = |best: &'_ Value, v: &'_ Value| v.total_cmp(best) == want;
        let best = non_null(c).into_iter().reduce(|best, v| if better(best, v) { v } else { best });
        best.cloned().unwrap_or(Value::Null)
    };
    match f {
        AggFunc::CountStar => Value::Int(rows.len() as i64),
        AggFunc::Count(c) => Value::Int(non_null(*c).len() as i64),
        AggFunc::Sum(c) => Value::Float(non_null(*c).into_iter().map(number).sum()),
        AggFunc::SumProduct(a, b) => Value::Float(
            rows.iter()
                .filter(|r| !r.get(*a).is_null() && !r.get(*b).is_null())
                .map(|r| number(r.get(*a)) * number(r.get(*b)))
                .sum(),
        ),
        AggFunc::Avg(c) => match non_null(*c) {
            vs if vs.is_empty() => Value::Null,
            vs => Value::Float(vs.iter().map(|v| number(v)).sum::<f64>() / vs.len() as f64),
        },
        AggFunc::Min(c) => extreme(*c, Ordering::Less),
        AggFunc::Max(c) => extreme(*c, Ordering::Greater),
    }
}

/// The columns `cols` of every row, in that order — a projection, a
/// narrowed scan, a join's emit list.
fn pick(Expected { rows, order }: Expected, cols: &[usize]) -> Expected {
    let pick = |r: &Row| Row::new(cols.iter().map(|&c| r.get(c).clone()).collect());
    // The defined order survives as far as its leading keys do.
    let kept = |k: &SortKey| {
        let column = cols.iter().position(|&c| c == k.column)?;
        Some(SortKey { column, ..*k })
    };
    Expected {
        rows: rows.iter().map(pick).collect(),
        order: order.iter().map_while(kept).collect(),
    }
}

/// Evaluate `plan` over `tables`.
pub fn evaluate(plan: &LogicalPlan, tables: &Tables) -> Expected {
    match plan {
        LogicalPlan::Scan(spec) => {
            let table = tables.get(spec.table.as_str()).expect("reference table");
            let mut rows: Vec<Row> =
                table.iter().filter(|r| spec.predicate.eval(r).unwrap()).cloned().collect();
            let mut order = Vec::new();
            if spec.ordered {
                order.push(SortKey::asc(order_column(&spec.predicate).expect("ordered scan key")));
                rows.sort_by(|a, b| compare(a, b, &order));
            }
            // A narrowed scan emits `cols` of the table's columns.
            match &spec.cols {
                Some(cols) => pick(Expected { rows, order }, cols),
                None => Expected { rows, order },
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut out = evaluate(input, tables);
            out.rows.retain(|r| predicate.eval(r).unwrap());
            out
        }
        LogicalPlan::Project { input, cols } => pick(evaluate(input, tables), cols),
        LogicalPlan::Sort { input, keys } => {
            let mut rows = evaluate(input, tables).rows;
            rows.sort_by(|a, b| compare(a, b, keys));
            Expected { rows, order: keys.clone() }
        }
        LogicalPlan::Join(spec) => {
            let (left, right) =
                (evaluate(&spec.left, tables).rows, evaluate(&spec.right, tables).rows);
            let mut rows = Vec::new();
            for l in &left {
                let lk = l.get(spec.left_col);
                // SQL equality: NULL equals nothing, itself included.
                let mut matches = right.iter().filter(|r| {
                    !lk.is_null() && lk.total_cmp(r.get(spec.right_col)) == Ordering::Equal
                });
                match spec.ty {
                    JoinType::Inner => rows.extend(matches.map(|r| l.concat(r))),
                    JoinType::LeftSemi => rows.extend(matches.next().map(|_| l.clone())),
                }
            }
            // A merge join defines key order; one with an emit list emits
            // those of its columns.
            let order = match spec.strategy {
                JoinStrategy::Merge => vec![SortKey::asc(spec.left_col)],
                _ => Vec::new(),
            };
            match &spec.emit {
                Some(emit) => pick(Expected { rows, order }, emit),
                None => Expected { rows, order },
            }
        }
        LogicalPlan::Aggregate { input, group_cols, aggs } => {
            let input = evaluate(input, tables).rows;
            // Groups in first-seen order; a scalar aggregate is one group,
            // present even over no rows.
            let mut groups: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
            if group_cols.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            for row in &input {
                let key: Vec<Value> = group_cols.iter().map(|&c| row.get(c).clone()).collect();
                let same = |k: &Vec<Value>| k.iter().zip(&key).all(|(a, b)| a.total_cmp(b).is_eq());
                match groups.iter_mut().find(|(k, _)| same(k)) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            let finish = |(key, members): (Vec<Value>, Vec<&Row>)| {
                Row::new(
                    key.into_iter().chain(aggs.iter().map(|f| aggregate(f, &members))).collect(),
                )
            };
            Expected { rows: groups.into_iter().map(finish).collect(), order: Vec::new() }
        }
    }
}

/// Equal, or — the engine's float fold order follows the access path —
/// floats within a relative 1e-9.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a.total_cmp(b).is_eq(),
    }
}

/// `rows` sorted on every column, so equal multisets align pairwise.
fn canonical(rows: &[Row]) -> Vec<&Row> {
    let all: Vec<SortKey> = (0..rows.first().map_or(0, Row::len)).map(SortKey::asc).collect();
    let mut rows: Vec<&Row> = rows.iter().collect();
    rows.sort_by(|a, b| compare(a, b, &all));
    rows
}

impl Expected {
    /// Hold `got` to the reference: the same multiset of rows, and — where
    /// the plan defines an order — sorted under it. (Rows that tie on the
    /// keys may come in any order: the plan does not say.)
    pub fn assert_matches(&self, got: &[Row], context: &str) {
        assert_eq!(got.len(), self.rows.len(), "row count differs from the reference: {context}");
        for (g, want) in canonical(got).into_iter().zip(canonical(&self.rows)) {
            let same = g.len() == want.len()
                && g.values().iter().zip(want.values()).all(|(a, b)| same_value(a, b));
            assert!(same, "rows differ from the reference: {g:?} vs {want:?}: {context}");
        }
        let sorted = got.windows(2).all(|w| compare(&w[0], &w[1], &self.order).is_le());
        assert!(sorted, "rows violate the plan's order {:?}: {context}", self.order);
    }
}
