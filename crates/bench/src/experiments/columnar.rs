//! Root-drained vs morsel-drained execution on the micro-benchmark table.
//!
//! Not a paper figure. For all four access paths on the 10%-selectivity
//! micro query the virtual-clock totals (CPU and I/O charges) of a run
//! drained a row at a time at the root (`collect_rows_volcano`) must be
//! *identical* to the columnar driver's, byte for byte. Since `next()`
//! became the one-row view of `next_columns` the two runs share every
//! fill, so this holds by construction — a batch-size-invariance check,
//! no longer a cross-check of two implementations; the per-tuple charges
//! are pinned in closed form by `prop_exec`, `prop_smooth` and
//! `prop_sort`. The totals remain the cross-machine trajectory numbers
//! (`virtual.micro.sel10.*`).
//!
//! How fast the host executes it is `benchmark/`'s question: its
//! `executor.driver_volcano_ns_per_row` and
//! `executor.driver_columnar_ns_per_row` kernels time the two drains
//! with warm-up, repetition and a spread.

use smooth_core::SmoothScanConfig;
use smooth_executor::collect_rows_volcano;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Run the clock-equality check across the four access paths.
pub fn run() {
    let db = setup::micro_db(DeviceProfile::hdd());

    // The deterministic virtual-clock trajectory: the four access paths
    // on the 10%-selectivity micro query, charging identical totals (CPU
    // and I/O) however the root is drained.
    let mut virt = Report::new(
        "columnar_virtual",
        "Access paths at 10% selectivity (virtual s, columnar pipeline)",
        &["path", "virtual_s", "cpu_s", "io_s"],
    );
    let paths: [(&str, AccessPathChoice); 4] = [
        ("full", AccessPathChoice::ForceFull),
        ("index", AccessPathChoice::ForceIndex),
        ("sort", AccessPathChoice::ForceSort),
        ("smooth", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
    ];
    for (name, access) in paths {
        let plan = micro::query(0.1, false, access);
        let columnar = db.run(&plan).expect("columnar run").stats;
        // Cold-run the identical plan through the Volcano driver.
        let mut op = db.build(&plan).expect("plan builds");
        db.storage().flush_pool();
        let clock0 = db.storage().clock().snapshot();
        let rows = collect_rows_volcano(op.as_mut()).expect("volcano run");
        let vol_clock = db.storage().clock().snapshot().since(&clock0);
        assert_eq!(rows.len() as u64, columnar.rows, "{name}: row counts diverge");
        assert_eq!(
            (columnar.clock.cpu_ns, columnar.clock.io_ns),
            (vol_clock.cpu_ns, vol_clock.io_ns),
            "{name}: columnar and Volcano virtual-clock totals must be identical"
        );
        virt.row(vec![
            name.to_string(),
            Report::secs(columnar.secs()),
            Report::secs(columnar.clock.cpu_ns as f64 / 1e9),
            Report::secs(columnar.clock.io_ns as f64 / 1e9),
        ]);
        json_metric(Metric::new(
            format!("virtual.micro.sel10.{name}.secs"),
            columnar.secs(),
            "virtual_s",
            false,
        ));
    }
    virt.finish();
    // Survives to the report only after every assert above held.
    json_metric(
        Metric::new("columnar.virtual.sel10.clock_match", 1.0, "bool", true).with_floor(1.0),
    );
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use smooth_executor::{collect_rows, collect_rows_volcano, Filter, FullTableScan, Predicate};
    use smooth_storage::{HeapFile, HeapLoader, Storage};
    use smooth_types::{Column, DataType, Row, Schema, Value};

    fn micro_shaped_heap() -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c1", DataType::Int64),
            Column::new("c2", DataType::Int64),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..5000i64 {
            l.push(&Row::new(vec![Value::Int(i), Value::Int(i % 100)])).unwrap();
        }
        Arc::new(l.finish().unwrap())
    }

    /// The two drivers agree row-for-row and charge the identical
    /// virtual clock on a filter-above-scan plan.
    #[test]
    fn drivers_agree_and_charge_identically() {
        let heap = micro_shaped_heap();
        let mk = |s: &Storage| {
            Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True)),
                Predicate::int_half_open(1, 0, 10),
            )
        };
        let s1 = Storage::default_hdd();
        let vol = collect_rows_volcano(&mut mk(&s1)).unwrap();
        let s2 = Storage::default_hdd();
        let col = collect_rows(&mut mk(&s2)).unwrap();
        assert_eq!(vol, col);
        assert!(!col.is_empty());
        assert_eq!(s1.clock().snapshot(), s2.clock().snapshot());
    }

    /// Same for the predicate pushed into the scan.
    #[test]
    fn protocols_agree_on_micro_shaped_data() {
        let heap = micro_shaped_heap();
        let s = Storage::default_hdd();
        let pred = Predicate::int_half_open(1, 0, 10);
        let mut a = FullTableScan::new(Arc::clone(&heap), s.clone(), pred.clone());
        let mut b = FullTableScan::new(heap, s, pred);
        assert_eq!(collect_rows_volcano(&mut a).unwrap(), collect_rows(&mut b).unwrap());
    }
}
