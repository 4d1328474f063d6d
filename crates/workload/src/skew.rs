//! The skewed dataset of Section VI-D ("Adjusting to Skew Distribution").
//!
//! "First 15 M tuples have c2 = 0; afterwards another 0.001% of random
//! tuples have value 0. The result selectivity is slightly above 1%, with
//! most of the tuples coming from the pages placed at the beginning of the
//! relation heap." Scaled down proportionally: the dense head is 1% of the
//! table, the sprinkle is 0.001%.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smooth_executor::Predicate;
use smooth_planner::{AccessPathChoice, Database, LogicalPlan, ScanSpec};
use smooth_types::{Column, DataType, Result, Row, Schema, Value};

/// Installed table name.
pub const TABLE: &str = "skew";
/// Ordinal of the indexed column `c2`.
pub const C2: usize = 1;
/// Domain of the non-zero values.
pub const DOMAIN: i64 = 100_000;
/// Dense-head fraction (the paper's 15 M of 1.5 B).
pub const HEAD_FRACTION: f64 = 0.01;
/// Sprinkle fraction beyond the head.
pub const SPRINKLE_FRACTION: f64 = 0.00001;
/// Default row count (≈ 10 K pages).
pub const DEFAULT_ROWS: u64 = 1_200_000;

/// The table schema (same shape as the micro benchmark).
pub fn schema() -> Schema {
    let mut cols: Vec<Column> =
        (1..=10).map(|i| Column::new(format!("c{i}"), DataType::Int64)).collect();
    cols.push(Column::new("pad", DataType::Text));
    // invariant: eleven distinct, fixed column names — the only thing
    // `Schema::new` rejects is a duplicate.
    Schema::new(cols).expect("static schema")
}

/// Generate the skewed rows.
pub fn rows(count: u64, seed: u64) -> impl Iterator<Item = Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let head = (count as f64 * HEAD_FRACTION) as u64;
    (0..count).map(move |i| {
        // Zero either in the dense head or as part of the sparse sprinkle.
        let c2 =
            if i < head || rng.gen_bool(SPRINKLE_FRACTION) { 0 } else { rng.gen_range(1..DOMAIN) };
        let mut values = Vec::with_capacity(11);
        values.push(Value::Int(i as i64));
        values.push(Value::Int(c2));
        for _ in 2..10 {
            values.push(Value::Int(rng.gen_range(0..DOMAIN)));
        }
        values.push(Value::str("."));
        Row::new(values)
    })
}

/// Load the skew table into `db` and index `c2`.
pub fn install(db: &mut Database, count: u64, seed: u64) -> Result<()> {
    db.load_table(TABLE, schema(), rows(count, seed))?;
    db.create_index(TABLE, C2, "skew_c2")
}

/// The experiment's predicate: `c2 = 0` (all of the dense head plus the
/// sprinkle — selectivity slightly above 1%).
pub fn predicate() -> Predicate {
    Predicate::int_eq(C2, 0)
}

/// The Fig. 8 query under a chosen access path.
pub fn query(access: AccessPathChoice) -> LogicalPlan {
    LogicalPlan::Scan(ScanSpec::new(TABLE, predicate()).with_access(access))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::StorageConfig;

    #[test]
    fn head_is_dense_and_selectivity_is_one_percent_plus() {
        let n = 50_000u64;
        let all: Vec<Row> = rows(n, 3).collect();
        let head = (n as f64 * HEAD_FRACTION) as usize;
        assert!(all[..head].iter().all(|r| r.int(C2).unwrap() == 0));
        let zeros = all.iter().filter(|r| r.int(C2).unwrap() == 0).count() as f64;
        let sel = zeros / n as f64;
        assert!((HEAD_FRACTION..HEAD_FRACTION + 0.001).contains(&sel), "{sel}");
    }

    #[test]
    fn query_returns_the_zero_tuples() {
        let mut db = Database::new(StorageConfig::default());
        install(&mut db, 30_000, 9).unwrap();
        let got = db.run(&query(AccessPathChoice::ForceFull)).unwrap();
        assert!(got.rows.iter().all(|r| r.int(C2).unwrap() == 0));
        assert!(got.rows.len() >= 300);
        let smooth = db.run(&query(AccessPathChoice::Smooth(Default::default()))).unwrap();
        assert_eq!(smooth.rows.len(), got.rows.len());
    }
}
