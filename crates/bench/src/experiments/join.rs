//! Columnar-native hash join with the parallel partitioned build.
//!
//! Not a paper figure: this experiment records what the join phase of
//! PR 5 buys — the build side of a hash join used to drain serially
//! before any worker started; now it is a parallel phase of its own
//! (per-slot partial builds over a shared build source, linked into
//! one table by global build position) and the probe gathers columnar
//! output without materializing a row. The shape is a self-join of the
//! micro table: probe = full scan, build = the 10%-selectivity filtered
//! scan (a partitioned heap source of its own), joined on `c2`, with a
//! scalar aggregate sink so the pipeline stays exact-merge.
//!
//! **Gates.** As everywhere in this repo, only machine-comparable
//! numbers gate (see `report.rs`): the deterministic closed-form speedups
//! from the traced virtual-clock ledger ([`ScalingLedger`]) — the
//! whole-pipeline 4-worker speedup and, the headline of this
//! experiment, the modeled speedup of the **blocking build phase**
//! alone ([`ScalingLedger::build_speedup`]), which the serial build by
//! construction held at 1×. A hard equality assert (the
//! `join.virtual.sel10.clock_match` gate) pins rows, virtual CPU/IO
//! clock totals and I/O counters of every N-worker run to the serial
//! columnar driver — the partitioned build must be an
//! execution-strategy change only. The measured twin is `benchmark/`'s
//! `executor.join_probe_w2_ns_per_row` and `executor.model_error_w2.join_sel10`.
//!
//! [`ScalingLedger`]: smooth_executor::ScalingLedger
//! [`ScalingLedger::build_speedup`]: smooth_executor::ScalingLedger::build_speedup

use smooth_executor::{AggFunc, JoinType};
use smooth_planner::{AccessPathChoice, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Modeled 4-worker speedup floor on the whole join pipeline.
pub const MODEL_SPEEDUP_FLOOR: f64 = 1.8;
/// Modeled 4-worker speedup floor on the build phase alone.
pub const BUILD_SPEEDUP_FLOOR: f64 = 1.5;

/// Self-join of the micro table on `c2`: full-scan probe side, filtered
/// build side at 10% selectivity, scalar aggregate sink (also the
/// `spill` experiment's join shape and the `serve` experiment's `join`
/// session).
pub fn join_plan() -> LogicalPlan {
    let probe = micro::query(1.0, false, AccessPathChoice::ForceFull);
    let build = LogicalPlan::scan(
        ScanSpec::new(micro::TABLE, micro::predicate(0.1)).with_access(AccessPathChoice::ForceFull),
    );
    probe
        .join(build, micro::C2, micro::C2, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)])
}

/// Run the join-scaling experiment and the equality checks.
pub fn run() {
    let mut db = setup::micro_db(setup::nvme());
    let plan = join_plan();
    let mut table = Report::new(
        "join",
        "columnar hash join with the parallel partitioned build at 10% build selectivity \
         (modeled speedups from the virtual-clock ledger)",
        &["shape", "w2", "w4", "w8", "build_w4", "virtual_ms_1w"],
    );

    // One-worker reference, the ledger (build sections included) the
    // model consumes, and hard equality at every width: the partitioned
    // build and parallel probe change who works, not what is charged.
    let (reference, ledger) = setup::traced_reference(&mut db, &plan);
    assert!(ledger.phases[0].src_ns > 0, "build phase must be traced");
    setup::same_at_every_width(&mut db, &plan, &reference);

    let speedups: Vec<f64> = [2, 4, 8].iter().map(|&w| ledger.speedup(w)).collect();
    let build_w4 = ledger.build_speedup(4);
    table.row(vec![
        "self-join".into(),
        Report::factor(speedups[0]),
        Report::factor(speedups[1]),
        Report::factor(speedups[2]),
        Report::factor(build_w4),
        format!("{:.2}", ledger.total_ns() as f64 / 1e6),
    ]);
    for (w, s) in [(2usize, speedups[0]), (4, speedups[1]), (8, speedups[2])] {
        let metric = Metric::new(format!("join.virtual.sel10.model_speedup.w{w}"), s, "x", true);
        json_metric(if w == 4 { metric.with_floor(MODEL_SPEEDUP_FLOOR) } else { metric });
    }
    // The headline: the blocking build phase itself now scales (it was
    // pinned at 1× by the serial build).
    json_metric(
        Metric::new("join.build.sel10.model_speedup.w4", build_w4, "x", true)
            .with_floor(BUILD_SPEEDUP_FLOOR),
    );

    table.finish();

    // Survives to the report only after every equality assert held.
    json_metric(Metric::new("join.virtual.sel10.clock_match", 1.0, "bool", true).with_floor(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-scale gate invariants: the modeled build speedup clears
    /// the committed floor with margin, and the N-worker clock totals
    /// equal the serial driver's exactly.
    #[test]
    fn build_speedup_clears_floor_and_clocks_match() {
        let mut db = setup::micro_db(setup::nvme());
        let plan = join_plan();
        let (serial, ledger) = setup::traced_reference(&mut db, &plan);
        assert!(
            ledger.build_speedup(4) >= BUILD_SPEEDUP_FLOOR,
            "modeled 4-worker build speedup {:.2} under the {BUILD_SPEEDUP_FLOOR} floor",
            ledger.build_speedup(4)
        );
        assert!(
            ledger.speedup(4) >= MODEL_SPEEDUP_FLOOR,
            "modeled 4-worker speedup {:.2} under the {MODEL_SPEEDUP_FLOOR} floor",
            ledger.speedup(4)
        );
        setup::same_at_every_width(&mut db, &plan, &serial);
    }
}
