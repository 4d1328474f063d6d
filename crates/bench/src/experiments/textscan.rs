//! Zero-copy Text views vs owned decode on the pad-heavy micro table.
//!
//! Not a paper figure: this experiment pins the invariant that makes
//! the `TextColumn` view layout (spans into pinned page buffers, see
//! `smooth_types::columns`) shippable beside the owned decode path it
//! replaced — **views change allocation behavior only**. One full scan at 10%
//! selectivity (Int predicate on `c2`, so the probe scratch never
//! touches text) runs twice through the columnar driver: once with
//! views (the default), once with `force_text_views(false)` degrading
//! every decoded text value to owned arena bytes.
//!
//! Reported and gated:
//!
//! * **rows equality** — the two modes return byte-identical rows, and
//!   the `(owned, views)` decode counters prove each mode actually took
//!   its path (gated bool).
//! * **driver equality** — rows and virtual clock are identical across
//!   the Volcano, columnar and parallel drivers with views on (gated
//!   bool): views never shift rows, clock or I/O.
//! * **modeled throughput** — scanned krows per virtual-CPU-second
//!   with views, floor-gated as the trajectory number. The virtual
//!   clock charges decode work independent of where string bytes live
//!   (that is what keeps rows/clock/IO byte-identical across modes), so
//!   it has nothing to say about what views save; the measured answer
//!   is `benchmark/`'s `executor.fill_columns_views_ns_per_row.sel10`
//!   beside `executor.fill_columns_owned_ns_per_row.sel10`, and the
//!   allocation bound is `tests/alloc_regression.rs`.

use std::sync::Arc;

use smooth_executor::{collect_batches, collect_rows_volcano, FullTableScan};
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_types::{force_text_views, text_decode_counters, text_views_enabled, ColumnBatch, Row};
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Floor for modeled scan throughput (krows per virtual CPU second)
/// with views. Deterministic at a given scale; observed ≈15,000 at
/// both smoke and default scale (per-row CPU is scale-invariant), so
/// this holds 1.5× headroom.
pub const KROWS_FLOOR: f64 = 10_000.0;

/// Run the views-vs-owned comparison and the driver-equality checks.
pub fn run() {
    // The view latch is process-global: put it back as found.
    let latch = text_views_enabled();
    let db = setup::micro_db(DeviceProfile::hdd());
    let heap = Arc::clone(&db.table(micro::TABLE).expect("micro installed").heap);
    let storage = db.storage().clone();
    let rows_total = heap.tuple_count() as f64;
    let pred = micro::predicate(0.1);

    let mk = || FullTableScan::new(Arc::clone(&heap), storage.clone(), pred.clone());
    let drain = |batches: Vec<ColumnBatch>| -> Vec<Row> {
        batches.into_iter().flat_map(ColumnBatch::into_rows).collect()
    };

    // Mode 1: zero-copy views (the default), cold clock bracketing.
    force_text_views(true);
    db.storage().flush_pool();
    let clock0 = storage.clock().snapshot();
    let (owned0, views0) = text_decode_counters();
    let views_rows = drain(collect_batches(&mut mk()).expect("views scan"));
    let views_clock = storage.clock().snapshot().since(&clock0);
    let (owned1, views1) = text_decode_counters();
    let (views_mode_owned, views_mode_views) = (owned1 - owned0, views1 - views0);

    // Mode 2: every decoded text value degraded to owned arena bytes.
    force_text_views(false);
    db.storage().flush_pool();
    let clock0 = storage.clock().snapshot();
    let owned_rows = drain(collect_batches(&mut mk()).expect("owned scan"));
    let owned_clock = storage.clock().snapshot().since(&clock0);
    let (owned2, _) = text_decode_counters();
    let owned_mode_owned = owned2 - owned1;

    // The modes differ only in where string bytes live.
    assert_eq!(views_rows, owned_rows, "views changed the result rows");
    assert_eq!(
        (views_clock.cpu_ns, views_clock.io_ns),
        (owned_clock.cpu_ns, owned_clock.io_ns),
        "views changed the virtual clock"
    );
    assert_eq!(views_mode_owned, 0, "views mode decoded text owned");
    assert!(views_mode_views > 0, "views mode never took the view path");
    assert_eq!(owned_mode_owned, views_mode_views, "modes decoded different text volumes");
    json_metric(Metric::new("textscan.sel10.views_match_owned", 1.0, "bool", true).with_floor(1.0));

    let modeled_krows = rows_total / (views_clock.cpu_ns.max(1) as f64 / 1e9) / 1e3;
    json_metric(
        Metric::new("textscan.sel10.modeled_krows_s", modeled_krows, "krows_per_s", true)
            .with_floor(KROWS_FLOOR),
    );

    let mut table = Report::new(
        "textscan",
        "zero-copy text views vs owned decode at 10% selectivity (virtual clock)",
        &["mode", "rows_out", "text_decodes", "virtual_cpu_ms"],
    );
    for (mode, rows, decodes, clock) in [
        ("views", &views_rows, views_mode_views, &views_clock),
        ("owned", &owned_rows, owned_mode_owned, &owned_clock),
    ] {
        table.row(vec![
            mode.into(),
            rows.len().to_string(),
            decodes.to_string(),
            format!("{:.3}", clock.cpu_ns as f64 / 1e6),
        ]);
    }
    table.finish();

    // Driver equality with views on: Volcano, columnar and parallel
    // return identical rows and charge the identical virtual clock.
    force_text_views(true);
    let plan = micro::query(0.1, false, AccessPathChoice::ForceFull);
    let mut op = db.build(&plan).expect("plan builds");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let volcano_rows = collect_rows_volcano(op.as_mut()).expect("volcano run");
    let volcano_clock = db.storage().clock().snapshot().since(&clock0);
    for workers in [1usize, 4] {
        let mut dbw = setup::micro_db(DeviceProfile::hdd());
        dbw.set_workers(workers);
        let got = dbw.run(&plan).expect("driver run");
        assert_eq!(got.rows, volcano_rows, "rows diverge at {workers} workers");
        assert_eq!(
            (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
            (volcano_clock.cpu_ns, volcano_clock.io_ns),
            "clock diverges at {workers} workers"
        );
    }
    // Survives to the report only after every assert above held.
    json_metric(Metric::new("textscan.sel10.driver_match", 1.0, "bool", true).with_floor(1.0));
    force_text_views(latch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::Predicate;
    use smooth_storage::{HeapLoader, Storage};
    use smooth_types::{Column, DataType, Schema, Value};

    /// Views on/off produce byte-identical rows, tick the matching
    /// decode counters, and charge the identical virtual clock.
    ///
    /// Counter assertions are one-sided (`>=`): the counters and the
    /// view latch are process-global, and sibling tests in this binary
    /// decode text concurrently. Exact attribution is pinned where runs
    /// are solo — `smooth-types`' unit tests and [`run`].
    #[test]
    fn view_modes_agree_and_counters_attribute() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..3000i64 {
            l.push(&Row::new(vec![Value::Int(i % 100), Value::str("x".repeat(60))])).unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let pred = Predicate::int_half_open(0, 0, 10);

        let latch = text_views_enabled();
        force_text_views(true);
        let s1 = Storage::default_hdd();
        let (o0, v0) = text_decode_counters();
        let mut op = FullTableScan::new(Arc::clone(&heap), s1.clone(), pred.clone());
        let views: Vec<Row> = collect_batches(&mut op)
            .unwrap()
            .into_iter()
            .flat_map(ColumnBatch::into_rows)
            .collect();
        let (o1, v1) = text_decode_counters();
        assert!(o1 >= o0 && v1 - v0 >= views.len() as u64, "views mode never took the view path");

        force_text_views(false);
        let s2 = Storage::default_hdd();
        let mut op = FullTableScan::new(Arc::clone(&heap), s2.clone(), pred);
        let owned: Vec<Row> = collect_batches(&mut op)
            .unwrap()
            .into_iter()
            .flat_map(ColumnBatch::into_rows)
            .collect();
        let (o2, _) = text_decode_counters();
        assert!(o2 - o1 >= owned.len() as u64, "owned mode never decoded owned");

        assert_eq!(views, owned);
        assert!(!views.is_empty());
        assert_eq!(s1.clock().snapshot().cpu_ns, s2.clock().snapshot().cpu_ns);
        assert_eq!(s1.clock().snapshot().io_ns, s2.clock().snapshot().io_ns);
        force_text_views(latch);
    }
}
