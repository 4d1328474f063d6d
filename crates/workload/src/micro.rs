//! The micro-benchmark of Section VI-C.
//!
//! "A table with 10 integer columns randomly populated with values from an
//! interval 0–10^5. The first column is the primary key identifier, and is
//! equal to a tuple order number. ... a non-clustered index is created on
//! the second column (c2)." Tuples are padded to ≈ 90 bytes so the
//! page-geometry ratios (tuples/page vs index fanout) match the paper's
//! setup, where Smooth Scan at 100% selectivity lands within ~20% of the
//! full scan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smooth_executor::Predicate;
use smooth_planner::{AccessPathChoice, Database, LogicalPlan, ScanSpec};
use smooth_types::{Column, DataType, Result, Row, Schema, Value};

/// The table name installed by [`install`].
pub const TABLE: &str = "micro";
/// Domain of the non-key columns: `[0, KEY_DOMAIN)`.
pub const KEY_DOMAIN: i64 = 100_000;
/// Ordinal of the indexed column `c2`.
pub const C2: usize = 1;
/// Default row count (≈ 4 K pages of 8 KB at ~90 B/tuple).
pub const DEFAULT_ROWS: u64 = 480_000;

/// The micro table schema: `c1` (pk) … `c10`, plus a pad column.
pub fn schema() -> Schema {
    let mut cols: Vec<Column> =
        (1..=10).map(|i| Column::new(format!("c{i}"), DataType::Int64)).collect();
    cols.push(Column::new("pad", DataType::Text));
    // invariant: eleven distinct, fixed column names — the only thing
    // `Schema::new` rejects is a duplicate.
    Schema::new(cols).expect("static schema")
}

/// Generate the rows (deterministic under `seed`).
pub fn rows(count: u64, seed: u64) -> impl Iterator<Item = Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(move |i| {
        let mut values = Vec::with_capacity(11);
        values.push(Value::Int(i as i64)); // c1 = tuple order number
        for _ in 1..10 {
            values.push(Value::Int(rng.gen_range(0..KEY_DOMAIN)));
        }
        values.push(Value::str("."));
        Row::new(values)
    })
}

/// Load the micro table into `db` and index `c2`.
pub fn install(db: &mut Database, count: u64, seed: u64) -> Result<()> {
    db.load_table(TABLE, schema(), rows(count, seed))?;
    db.create_index(TABLE, C2, "micro_c2")
}

/// The benchmark predicate `c2 >= 0 AND c2 < selectivity·domain`.
pub fn predicate(selectivity: f64) -> Predicate {
    let hi = (selectivity.clamp(0.0, 1.0) * KEY_DOMAIN as f64).round() as i64;
    Predicate::int_half_open(C2, 0, hi)
}

/// The benchmark query as a scan plan.
pub fn query(selectivity: f64, ordered: bool, access: AccessPathChoice) -> LogicalPlan {
    let mut spec = ScanSpec::new(TABLE, predicate(selectivity)).with_access(access);
    if ordered {
        spec = spec.with_order();
    }
    LogicalPlan::Scan(spec)
}

/// The selectivity grid of Figs. 5/6/10 (percent values from the paper's
/// x-axes).
pub fn selectivity_grid() -> Vec<f64> {
    vec![0.0, 0.00001, 0.0001, 0.001, 0.01, 0.05, 0.20, 0.50, 0.75, 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::StorageConfig;

    fn tiny_db() -> Database {
        let mut db = Database::new(StorageConfig::default());
        install(&mut db, 20_000, 42).unwrap();
        db
    }

    #[test]
    fn generation_is_deterministic_and_uniform() {
        let a: Vec<Row> = rows(1000, 7).collect();
        let b: Vec<Row> = rows(1000, 7).collect();
        assert_eq!(a, b);
        let c: Vec<Row> = rows(1000, 8).collect();
        assert_ne!(a, c);
        // c1 is the order number; c2 stays in-domain.
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.int(0).unwrap(), i as i64);
            let c2 = r.int(C2).unwrap();
            assert!((0..KEY_DOMAIN).contains(&c2));
        }
    }

    #[test]
    fn tuple_geometry_matches_the_paper_band() {
        let db = tiny_db();
        let heap = &db.table(TABLE).unwrap().heap;
        let tpp = heap.tuples_per_page();
        assert!((80.0..120.0).contains(&tpp), "≈90 B tuples → ~90–100 tuples/page, got {tpp}");
    }

    #[test]
    fn predicate_selectivity_is_calibrated() {
        let db = tiny_db();
        for sel in [0.01, 0.2, 0.9] {
            let q = query(sel, false, AccessPathChoice::ForceFull);
            let got = db.run(&q).unwrap().rows.len() as f64 / 20_000.0;
            assert!((got - sel).abs() < 0.02, "target {sel}, got {got}");
        }
        assert_eq!(db.run(&query(0.0, false, AccessPathChoice::ForceFull)).unwrap().rows.len(), 0);
    }

    #[test]
    fn ordered_query_orders_by_c2() {
        let db = tiny_db();
        let q = query(0.05, true, AccessPathChoice::Smooth(Default::default()));
        let rows = db.run(&q).unwrap().rows;
        assert!(!rows.is_empty());
        let keys: Vec<i64> = rows.iter().map(|r| r.int(C2).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
