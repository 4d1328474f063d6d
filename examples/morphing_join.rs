//! Beyond access paths: a join that morphs (Section IV-B).
//!
//! "By performing caching of additional (qualifying) tuples from the inner
//! input found along the way, INLJ morphs into a variant of Hash Join over
//! time, with the index used only when a tuple is not found in the cache."
//!
//! This example runs one index-nested-loop plan twice against a
//! lineitem-style inner table: once on the plain inner side, once with
//! Smooth Scan as the inner access, which the planner turns into the
//! morphing inner side. Every page fetched for one probe is harvested
//! whole, so high-fan-out FK joins stop touching the disk long before the
//! outer side is exhausted.
//!
//! ```sh
//! cargo run --release --example morphing_join
//! ```

use smoothscan::prelude::*;

fn main() {
    // An unbounded harvest (the paper's setting) on a 64-page pool.
    let mut db = Database::new(StorageConfig { pool_pages: 64, ..StorageConfig::default() })
        .with_mem_bytes(0);
    // Inner: 240k rows, 6 per key, keys scattered across pages (FK order
    // is unrelated to physical placement — the painful real-world case).
    let schema = Schema::new(vec![
        Column::new("fk", DataType::Int64),
        Column::new("amount", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let keys = 40_000i64;
    let rows = (0..6i64).flat_map(|rep| {
        (0..keys).map(move |j| {
            let k = (j.wrapping_mul(7919) + rep * 13) % keys;
            Row::new(vec![Value::Int(k), Value::Int(rep * 100), Value::str("·".repeat(40))])
        })
    });
    db.load_table("lineitems", schema, rows).unwrap();
    db.create_index("lineitems", 0, "fk_idx").unwrap();
    // Outer: every key probed twice.
    let probes = Schema::new(vec![Column::new("k", DataType::Int64)]).unwrap();
    let outer_keys = (0..keys).chain(0..keys).map(|k| Row::new(vec![Value::Int(k)]));
    db.load_table("probes", probes, outer_keys).unwrap();
    let inner = db.table("lineitems").unwrap().heap.clone();
    println!(
        "inner: {} rows over {} pages; outer: every key probed twice\n",
        inner.tuple_count(),
        inner.page_count()
    );

    // The two plans differ only in the inner scan's access path.
    let plan = |access: AccessPathChoice| {
        let outer =
            ScanSpec::new("probes", Predicate::True).with_access(AccessPathChoice::ForceFull);
        let inner = ScanSpec::new("lineitems", Predicate::True).with_access(access);
        LogicalPlan::scan(outer)
            .join(LogicalPlan::scan(inner), 0, 0, JoinType::Inner, JoinStrategy::IndexNestedLoop)
            .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(2)])
    };
    let disciplines = [
        ("plain INLJ", AccessPathChoice::Auto),
        ("morphing INLJ", AccessPathChoice::Smooth(SmoothScanConfig::default())),
    ];
    println!("{:<16} {:>10} {:>12} {:>12}  plan", "join", "time (s)", "pages read", "rows");
    let mut runs = Vec::new();
    for (name, access) in disciplines {
        let plan = plan(access);
        let r = db.run(&plan).unwrap();
        let joined = r.rows[0].int(0).unwrap();
        let (secs, pages) = (r.stats.secs(), r.stats.io.pages_read);
        println!(
            "{name:<16} {secs:>10.2} {pages:>12} {joined:>12}  {}",
            db.explain(&plan).unwrap()
        );
        runs.push((r.rows, secs, pages));
    }
    let [(plain_rows, plain_secs, plain_pages), (morph_rows, morph_secs, morph_pages)] = &runs[..]
    else {
        unreachable!("two disciplines")
    };
    assert_eq!(plain_rows, morph_rows, "both joins return the same count and sum");
    assert!(morph_pages < plain_pages, "harvesting reads fewer pages");
    println!(
        "\nspeedup {:.1}x with {:.0}x less page traffic — the §IV-B \"morphable join\" payoff",
        plain_secs / morph_secs,
        *plain_pages as f64 / *morph_pages as f64
    );
}
