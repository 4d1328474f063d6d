//! Morsel-driven parallel execution on the micro-benchmark table.
//!
//! Not a paper figure: this experiment records what the parallel
//! pipeline driver (worker pool over columnar morsels, PR 4) buys over
//! the single-worker columnar driver, and proves the two
//! interchangeable. Two shapes at 10% selectivity, both decomposing to
//! the partitioned heap source (per-worker decode of readahead page
//! runs):
//!
//! * **agg** — scalar aggregation above the filtered scan: scan decode
//!   fans out across workers and folds into per-worker partial
//!   aggregates (integer-fed, so the merge is exact). The CI gate holds
//!   a ≥3.0× floor on the 4- and 8-worker *modeled* speedups here.
//! * **scan** — the filtered scan collected as rows (ordered sink
//!   merge).
//!
//! **Why the gated speedup is modeled, not wall-clock.** This repo gates
//! only machine-comparable numbers (see `report.rs`): virtual-clock
//! times and deterministic ratios, never raw wall clock — a wall-clock
//! parallel speedup would be a function of the CI runner's core count
//! (and is physically capped at 1× on a single-core host). The model is
//! a closed form over the virtual-clock ledger the traced single-worker
//! run records ([`smooth_executor::ScalingLedger`]): source sections
//! (page-run I/O) serialize — they share one lock and one disk arm —
//! while decode/filter/aggregate sections spread over the workers, so a
//! phase takes the longer of its summed source sections and its work
//! divided by the worker count. `parallel.<shape>.sel10.serial_share`
//! reports the source's share, the input that caps the speedup. It is
//! bit-stable across machines and reruns. The measured twin is
//! `benchmark/`'s `analytic_parallel` workload
//! (`executor.parallel_speedup_w2`, with `executor.model_error_w2.*`
//! holding this model against it).
//!
//! The experiment runs on a fast-device profile (NVMe-like, 2.7 GB/s
//! sequential) because that is the regime where parallelism pays: on
//! the paper's HDD the virtual time of a full scan is I/O-bound and the
//! serialized disk caps the speedup near 1 — reported here as the
//! `hdd` metric, a finding straight out of the paper's cost model.
//!
//! It also proves driver interchangeability the hard way: for worker
//! counts {2, 4, 8} the rows must be identical to the single-worker run
//! and the virtual CPU/IO clock totals and I/O counters **exactly
//! equal** — morsel-driven parallelism never changes what work the
//! engine is charged for, only who executes it.

use smooth_executor::AggFunc;
use smooth_planner::{AccessPathChoice, LogicalPlan};
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Modeled speedup floor the perf-smoke gate enforces for the
/// aggregate shape at 4 **and** 8 workers. Raised from 1.8 when the
/// per-page hash-lookup CPU moved from the locked source section to
/// the per-worker decode section (where it runs), lifting the modeled
/// source-bound ceiling past 3× at smoke scale.
pub const MODEL_SPEEDUP_FLOOR: f64 = 3.0;

/// The aggregate shape, also the `serve` experiment's `agg` session.
pub fn agg_plan() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull).aggregate(
        vec![],
        vec![AggFunc::CountStar, AggFunc::Sum(2), AggFunc::Min(0), AggFunc::Max(0)],
    )
}

/// The scan shape, also the `serve` experiment's `scan` session.
pub fn scan_plan() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull)
}

/// Run the parallel-scaling experiment and the equality checks.
pub fn run() {
    let mut db = setup::micro_db(setup::nvme());
    let mut table = Report::new(
        "parallel",
        "morsel-driven parallel pipeline at 10% selectivity (modeled speedup from the \
         virtual-clock ledger)",
        &["shape", "device", "w2", "w4", "w8", "virtual_ms_1w"],
    );

    for (shape, plan) in [("agg", agg_plan()), ("scan", scan_plan())] {
        // One-worker reference, the per-morsel ledger the scaling model
        // consumes, and hard equality at every width.
        let (reference, ledger) = setup::traced_reference(&mut db, &plan);
        setup::same_at_every_width(&mut db, &plan, &reference);

        // How source-bound the shape is: the serialized source's share
        // of the run, which caps the modeled speedup.
        json_metric(Metric::new(
            format!("parallel.{shape}.sel10.serial_share"),
            setup::serial_share(std::slice::from_ref(&ledger)),
            "ratio",
            false,
        ));

        let speedups: Vec<f64> = [2, 4, 8].iter().map(|&w| ledger.speedup(w)).collect();
        table.row(vec![
            shape.into(),
            "nvme".into(),
            Report::factor(speedups[0]),
            Report::factor(speedups[1]),
            Report::factor(speedups[2]),
            format!("{:.2}", ledger.total_ns() as f64 / 1e6),
        ]);
        for (w, s) in [(2usize, speedups[0]), (4, speedups[1]), (8, speedups[2])] {
            let id = format!("parallel.{shape}.sel10.model_speedup.w{w}");
            let metric = Metric::new(id, s, "x", true);
            // The headline gates are floored as well as baseline-compared.
            let headline = shape == "agg" && (w == 4 || w == 8);
            json_metric(if headline { metric.with_floor(MODEL_SPEEDUP_FLOOR) } else { metric });
        }
    }

    // The paper's HDD: the virtual clock is I/O-bound, the serialized
    // disk arm caps the model — parallelism cannot buy back random I/O.
    let hdd_db = setup::micro_db(DeviceProfile::hdd()).with_workers(1);
    let (_, _, hdd_ledger) = setup::traced_run(&hdd_db, &agg_plan());
    let hdd_speedup = hdd_ledger.speedup(4);
    table.row(vec![
        "agg".into(),
        "hdd".into(),
        Report::factor(hdd_ledger.speedup(2)),
        Report::factor(hdd_speedup),
        Report::factor(hdd_ledger.speedup(8)),
        format!("{:.2}", hdd_ledger.total_ns() as f64 / 1e6),
    ]);
    json_metric(Metric::new("parallel.agg.sel10.model_speedup_hdd.w4", hdd_speedup, "x", true));

    table.finish();

    // Survives to the report only after every equality assert held.
    json_metric(
        Metric::new("parallel.virtual.sel10.clock_match", 1.0, "bool", true).with_floor(1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::run_pipeline;

    /// The smoke-scale gate invariants: the modeled 4-worker speedup on
    /// the NVMe profile clears the committed floor with margin, and the
    /// N-worker clock totals equal the serial driver's exactly.
    #[test]
    fn model_speedup_clears_floor_and_clocks_match() {
        let mut db = setup::micro_db(setup::nvme());
        let plan = agg_plan();
        let (serial, ledger) = setup::traced_reference(&mut db, &plan);
        assert!(
            ledger.speedup(4) >= MODEL_SPEEDUP_FLOOR,
            "modeled 4-worker speedup {:.2} under the {MODEL_SPEEDUP_FLOOR} floor",
            ledger.speedup(4)
        );
        setup::same_at_every_width(&mut db, &plan, &serial);
        // And the pipeline entry point agrees with the Database wiring.
        let pipeline = db.parallel_pipeline(&plan).unwrap().unwrap();
        db.storage().flush_pool();
        let rows = run_pipeline(pipeline, 4).unwrap();
        assert_eq!(rows, serial.rows);
    }
}
