//! TPC-H-style data generation.
//!
//! Shapes follow the spec where the paper's queries depend on them:
//! uniform dates over seven years, `l_quantity` in 1..=50, discounts
//! 0..=10%, ~4 lineitems per order, `P(l_commitdate < l_receiptdate)` ≈
//! 0.65 (the Q4 predicate's selectivity the paper reports), 20% of parts
//! promotional, 25 nations in 5 regions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smooth_planner::Database;
use smooth_types::{Column, DataType, Result, Row, Schema, Value};

use super::DATE_MAX;

/// Scale factor: row counts relative to TPC-H SF 1.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of SF 1 (e.g. 0.02 → lineitem ≈ 120 K rows).
    pub sf: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// A tiny scale for unit tests.
    pub fn tiny() -> Self {
        Scale { sf: 0.002, seed: 7 }
    }

    fn count(&self, base: u64, min: u64) -> u64 {
        ((base as f64 * self.sf) as u64).max(min)
    }

    /// Customer row count.
    pub fn customers(&self) -> u64 {
        self.count(150_000, 50)
    }

    /// Orders row count.
    pub fn orders(&self) -> u64 {
        self.customers() * 10
    }

    /// Supplier row count.
    pub fn suppliers(&self) -> u64 {
        self.count(10_000, 10)
    }

    /// Part row count.
    pub fn parts(&self) -> u64 {
        self.count(200_000, 50)
    }
}

/// The five market segments.
pub const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
/// The seven ship modes.
pub const SHIPMODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
/// Order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// The 25 nation names (per the spec).
pub const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
/// The five region names.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// Containers.
pub const CONTAINERS: [&str; 8] =
    ["SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "LG CASE", "LG BOX"];

fn int_col(name: &str) -> Column {
    Column::new(name, DataType::Int64)
}

fn text_col(name: &str) -> Column {
    Column::new(name, DataType::Text)
}

/// Install all eight tables into `db` and build the primary-key indexes
/// that model PostgreSQL's PK constraints (`orders`, `customer`,
/// `supplier`, `part`, `nation` — the INLJ inner paths of the paper's
/// plans). Secondary "tuning" indexes are *not* built here; see
/// [`create_tuning_indexes`].
pub fn install(db: &mut Database, scale: Scale) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // region / nation
    db.load_table(
        "region",
        Schema::new(vec![int_col("r_regionkey"), text_col("r_name")])?,
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| Row::new(vec![Value::Int(i as i64), Value::str(*name)])),
    )?;
    db.load_table(
        "nation",
        Schema::new(vec![int_col("n_nationkey"), int_col("n_regionkey"), text_col("n_name")])?,
        NATIONS.iter().enumerate().map(|(i, name)| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int((i % REGIONS.len()) as i64),
                Value::str(*name),
            ])
        }),
    )?;

    // supplier
    let n_supp = scale.suppliers();
    {
        let rows: Vec<Row> = (0..n_supp)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Int(rng.gen_range(-99_999..999_999)),
                ])
            })
            .collect();
        db.load_table(
            "supplier",
            Schema::new(vec![int_col("s_suppkey"), int_col("s_nationkey"), int_col("s_acctbal")])?,
            rows,
        )?;
    }

    // customer
    let n_cust = scale.customers();
    {
        let rows: Vec<Row> = (0..n_cust)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Int(rng.gen_range(-99_999..999_999)),
                    Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                ])
            })
            .collect();
        db.load_table(
            "customer",
            Schema::new(vec![
                int_col("c_custkey"),
                int_col("c_nationkey"),
                int_col("c_acctbal"),
                text_col("c_mktsegment"),
            ])?,
            rows,
        )?;
    }

    // part
    let n_part = scale.parts();
    {
        let rows: Vec<Row> = (0..n_part)
            .map(|i| {
                let promo = rng.gen_bool(0.2);
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(1..=50)),
                    Value::Int(promo as i64),
                    Value::str(format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5))),
                    Value::str(CONTAINERS[rng.gen_range(0..CONTAINERS.len())]),
                ])
            })
            .collect();
        db.load_table(
            "part",
            Schema::new(vec![
                int_col("p_partkey"),
                int_col("p_size"),
                int_col("p_promo"),
                text_col("p_brand"),
                text_col("p_container"),
            ])?,
            rows,
        )?;
    }

    // partsupp
    {
        let rows: Vec<Row> = (0..n_part * 4)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i / 4) as i64),
                    Value::Int(rng.gen_range(0..n_supp) as i64),
                    Value::Int(rng.gen_range(1..10_000)),
                    Value::Int(rng.gen_range(100..100_000)),
                ])
            })
            .collect();
        db.load_table(
            "partsupp",
            Schema::new(vec![
                int_col("ps_partkey"),
                int_col("ps_suppkey"),
                int_col("ps_availqty"),
                int_col("ps_supplycost"),
            ])?,
            rows,
        )?;
    }

    // orders + lineitem (lineitems clustered by order, as dbgen emits them)
    let n_orders = scale.orders();
    let mut order_rows = Vec::with_capacity(n_orders as usize);
    let mut line_rows = Vec::with_capacity(n_orders as usize * 4);
    for okey in 0..n_orders {
        let orderdate = rng.gen_range(0..=DATE_MAX - 180);
        order_rows.push(Row::new(vec![
            Value::Int(okey as i64),
            Value::Int(rng.gen_range(0..n_cust) as i64),
            Value::Int(rng.gen_range(1_000..500_000)),
            Value::Int(orderdate),
            Value::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            Value::str(["O", "F", "P"][rng.gen_range(0..3)]),
        ]));
        let lines = rng.gen_range(1..=7);
        for lineno in 0..lines {
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = shipdate + rng.gen_range(-25..=35);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            line_rows.push(Row::new(vec![
                Value::Int(okey as i64),
                Value::Int(rng.gen_range(0..n_part) as i64),
                Value::Int(rng.gen_range(0..n_supp) as i64),
                Value::Int(lineno),
                Value::Int(rng.gen_range(1..=50)),
                Value::Int(rng.gen_range(1_000..100_000)),
                Value::Int(rng.gen_range(0..=10)),
                Value::Int(rng.gen_range(0..=8)),
                Value::Int(shipdate),
                Value::Int(commitdate),
                Value::Int(receiptdate),
                Value::str(["A", "N", "R"][rng.gen_range(0..3)]),
                Value::str(if shipdate > DATE_MAX * 3 / 4 { "O" } else { "F" }),
                Value::str(SHIPMODES[rng.gen_range(0..SHIPMODES.len())]),
            ]));
        }
    }
    db.load_table(
        "orders",
        Schema::new(vec![
            int_col("o_orderkey"),
            int_col("o_custkey"),
            int_col("o_totalprice"),
            int_col("o_orderdate"),
            text_col("o_orderpriority"),
            text_col("o_orderstatus"),
        ])?,
        order_rows,
    )?;
    db.load_table(
        "lineitem",
        Schema::new(vec![
            int_col("l_orderkey"),
            int_col("l_partkey"),
            int_col("l_suppkey"),
            int_col("l_linenumber"),
            int_col("l_quantity"),
            int_col("l_extendedprice"),
            int_col("l_discount"),
            int_col("l_tax"),
            int_col("l_shipdate"),
            int_col("l_commitdate"),
            int_col("l_receiptdate"),
            text_col("l_returnflag"),
            text_col("l_linestatus"),
            text_col("l_shipmode"),
        ])?,
        line_rows,
    )?;

    // PK indexes (PostgreSQL builds these for PRIMARY KEY constraints).
    db.create_index("orders", super::o::ORDERKEY, "orders_pk")?;
    db.create_index("customer", super::c::CUSTKEY, "customer_pk")?;
    db.create_index("supplier", super::s::SUPPKEY, "supplier_pk")?;
    db.create_index("part", super::p::PARTKEY, "part_pk")?;
    db.create_index("nation", super::n::NATIONKEY, "nation_pk")?;
    Ok(())
}

/// Build the secondary indexes the tuning advisor proposes for this
/// workload (the Fig. 1 "tuned" configuration): range columns of the
/// selection predicates on the two big tables.
pub fn create_tuning_indexes(db: &mut Database) -> Result<()> {
    db.create_index("lineitem", super::l::SHIPDATE, "l_shipdate_idx")?;
    db.create_index("lineitem", super::l::RECEIPTDATE, "l_receiptdate_idx")?;
    db.create_index("lineitem", super::l::QUANTITY, "l_quantity_idx")?;
    db.create_index("orders", super::o::ORDERDATE, "o_orderdate_idx")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::StorageConfig;

    fn tiny_db() -> Database {
        let mut db = Database::new(StorageConfig::default());
        install(&mut db, Scale::tiny()).unwrap();
        db
    }

    #[test]
    fn tables_load_with_foreign_keys_intact() {
        let db = tiny_db();
        let orders = db.table("orders").unwrap();
        let lineitem = db.table("lineitem").unwrap();
        let n_orders = orders.heap.tuple_count();
        assert!(n_orders >= 500);
        let lpo = lineitem.heap.tuple_count() as f64 / n_orders as f64;
        assert!((3.0..5.0).contains(&lpo), "≈4 lineitems/order, got {lpo}");
        // Dense PK domains → every FK resolves.
        let stats = orders.stats.honest();
        let okey = stats.column(super::super::o::ORDERKEY).unwrap();
        assert_eq!(okey.min, Some(0));
        assert_eq!(okey.max, Some(n_orders as i64 - 1));
    }

    #[test]
    fn q4_predicate_selectivity_is_paper_shaped() {
        // P(l_commitdate < l_receiptdate) ≈ 0.65 (Section VI-B: Q4's 65%).
        let db = tiny_db();
        let plan = smooth_planner::LogicalPlan::scan(smooth_planner::ScanSpec::new(
            "lineitem",
            smooth_executor::Predicate::IntColLt {
                left: super::super::l::COMMITDATE,
                right: super::super::l::RECEIPTDATE,
            },
        ));
        let n = db.table("lineitem").unwrap().heap.tuple_count() as f64;
        let got = db.run(&plan).unwrap().rows.len() as f64 / n;
        assert!((got - 0.65).abs() < 0.05, "{got}");
    }

    #[test]
    fn promo_fraction_is_twenty_percent() {
        let db = tiny_db();
        let plan = smooth_planner::LogicalPlan::scan(smooth_planner::ScanSpec::new(
            "part",
            smooth_executor::Predicate::int_eq(super::super::p::PROMO, 1),
        ));
        let n = db.table("part").unwrap().heap.tuple_count() as f64;
        let got = db.run(&plan).unwrap().rows.len() as f64 / n;
        assert!((got - 0.2).abs() < 0.08, "{got}");
    }

    #[test]
    fn tuning_indexes_install() {
        let mut db = tiny_db();
        create_tuning_indexes(&mut db).unwrap();
        let li = db.table("lineitem").unwrap();
        assert!(li.index_on(super::super::l::SHIPDATE).is_some());
        assert!(li.index_on(super::super::l::QUANTITY).is_some());
        assert!(db.table("orders").unwrap().index_on(super::super::o::ORDERDATE).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_db();
        let b = tiny_db();
        assert_eq!(
            a.table("lineitem").unwrap().heap.tuple_count(),
            b.table("lineitem").unwrap().heap.tuple_count()
        );
        let pa = a
            .run(&smooth_planner::LogicalPlan::scan(smooth_planner::ScanSpec::new(
                "lineitem",
                smooth_executor::Predicate::int_lt(super::super::l::SHIPDATE, 500),
            )))
            .unwrap();
        let pb = b
            .run(&smooth_planner::LogicalPlan::scan(smooth_planner::ScanSpec::new(
                "lineitem",
                smooth_executor::Predicate::int_lt(super::super::l::SHIPDATE, 500),
            )))
            .unwrap();
        assert_eq!(pa.rows.len(), pb.rows.len());
    }
}
