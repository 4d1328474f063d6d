//! Section V-A: competitive-ratio analysis.
//!
//! For each policy and device, measures Smooth Scan's cost across the
//! selectivity sweep and reports the worst ratio against the best
//! traditional alternative at that selectivity. The paper's results:
//! Elastic's analytical worst case is 5.5 (HDD) / 3 (SSD) with a
//! theoretical bound of ratio+1, and the *empirically observed* CR is ≈ 2.
//!
//! **Gates.** Under `--json` each device × policy's worst empirical ratio
//! is an id (`cr.{hdd,ssd}.{greedy,selectivity_increase,elastic}.max_cr`),
//! and one floor per device holds at any scale:
//!
//! * `cr.<device>.elastic.analytic_over_empirical` — Elastic's analytic
//!   worst case over its empirical maximum. Floor
//!   [`ANALYTIC_OVER_EMPIRICAL_FLOOR`]: the measured ratio never exceeds
//!   the analysis (1.46 on HDD and 1.08 on SSD at smoke scale, 2.43 and
//!   1.10 at paper scale).
//!
//! The gap, written down rather than gated: on SSD, Greedy and
//! Selectivity-Increase exceed the ratio + 1 bound (8.07 and 4.27 against
//! 3.0 at smoke scale; 72.3 and 7.37 at paper scale, where Greedy also
//! exceeds HDD's 11 at 13.2). Section V-A calls both policies unbounded,
//! so no floor claims a bound for them.

use smooth_core::{CostModel, PolicyKind, SmoothScanConfig, TableGeometry};
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Elastic's empirical worst ratio stays at or under its analytic worst case.
pub const ANALYTIC_OVER_EMPIRICAL_FLOOR: f64 = 1.0;

/// Run the CR study on both devices.
pub fn run() {
    let mut report = Report::new(
        "cr",
        "competitive ratio vs best traditional alternative",
        &["device", "policy", "empirical_max_CR", "at_sel_%", "analytic_worst", "bound"],
    );
    for device in [DeviceProfile::hdd(), DeviceProfile::ssd()] {
        let db = setup::micro_db(device);
        let heap = &db.table(micro::TABLE).expect("micro").heap;
        let model = CostModel::new(
            TableGeometry::new(heap.schema().estimated_tuple_width(16) as u64, heap.tuple_count()),
            device,
        );
        for policy in [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic] {
            let mut worst = 0.0f64;
            let mut worst_sel = 0.0f64;
            for sel in micro::selectivity_grid() {
                if sel == 0.0 {
                    continue; // empty result: every path is a no-op probe
                }
                let best_alt = [
                    AccessPathChoice::ForceFull,
                    AccessPathChoice::ForceIndex,
                    AccessPathChoice::ForceSort,
                ]
                .into_iter()
                .map(|a| db.run(&micro::query(sel, false, a)).expect("alt").stats.secs())
                .fold(f64::INFINITY, f64::min);
                let smooth = db
                    .run(&micro::query(
                        sel,
                        false,
                        AccessPathChoice::Smooth(
                            SmoothScanConfig::eager_elastic().with_policy(policy),
                        ),
                    ))
                    .expect("smooth")
                    .stats
                    .secs();
                let ratio = smooth / best_alt.max(1e-12);
                if ratio > worst {
                    worst = ratio;
                    worst_sel = sel;
                }
            }
            let tag = match policy {
                PolicyKind::Greedy => "greedy",
                PolicyKind::SelectivityIncrease => "selectivity_increase",
                PolicyKind::Elastic => "elastic",
            };
            json_metric(Metric::new(format!("cr.{}.{tag}.max_cr", device.name), worst, "x", false));
            let analytic = if policy == PolicyKind::Elastic {
                let analytic = model.elastic_worst_case_cr();
                json_metric(
                    Metric::new(
                        format!("cr.{}.elastic.analytic_over_empirical", device.name),
                        analytic / worst,
                        "x",
                        true,
                    )
                    .with_floor(ANALYTIC_OVER_EMPIRICAL_FLOOR),
                );
                Report::factor(analytic)
            } else {
                "unbounded*".to_string()
            };
            report.row(vec![
                device.name.to_string(),
                format!("{policy:?}"),
                Report::factor(worst),
                format!("{}", worst_sel * 100.0),
                analytic,
                Report::factor(model.cr_theoretical_bound()),
            ]);
        }
    }
    report.finish();
    println!(
        "  [* Greedy/SI CRs grow with table size (soft bounds) — Section V-A; \
         Elastic's analytic worst case assumes the never-morphing alternating pattern]"
    );
}
