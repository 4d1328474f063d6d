//! Fig. 7: impact of morphing policies (7a) and triggering points (7b).
//!
//! 7a — Greedy converges to the full scan fastest (over-fetching at low
//! selectivity); Selectivity-Increase and Elastic stay cheaper early and
//! converge by ~5–10%.
//!
//! 7b — Eager vs Optimizer-driven (traditional index until the optimizer's
//! 0.005%-selectivity estimate is violated, then Selectivity-Increase) vs
//! SLA-driven (model-computed switch point for a 2×-full-scan bound, then
//! Greedy). The SLA bound itself is reported as its own column (the orange
//! dotted line of the paper's plot).
//!
//! **Gates (7a).** Under `--json` every grid point × policy is an id
//! (`virtual.fig7a.<sel>.{greedy,selectivity_increase,elastic}.secs`), and
//! two shape floors hold:
//!
//! * `fig7a.greedy_over_elastic_below_sel1` — the lowest Greedy ÷ Elastic
//!   time below 1 %. Floor [`GREEDY_OVER_ELASTIC_FLOOR`]: Greedy is never
//!   cheaper there (1.0 at smoke and paper scale, where the grid's 0 %
//!   point ties; at 0.01 % Greedy pays 2.2× at smoke scale, 12.3× at paper
//!   scale).
//! * `fig7a.policy_spread_from_sel10` — the lowest fastest ÷ slowest
//!   policy time from 10 % up. Floor [`POLICY_SPREAD_FLOOR`], the paper's
//!   "within 10 %" (0.991 at smoke scale, 1.0 at paper scale).
//!
//! The gap, written down rather than gated: the paper has Elastic and
//! Selectivity-Increase converge with Greedy by 5–10 %. At 5 % Elastic is
//! still the slowest of the three (+5.0 % over Greedy at smoke scale,
//! +4.0 % at paper scale), inside the 10 % band but not converged, so the
//! spread floor starts at 10 %.
//!
//! **Gates (7b).** Under `--json` every grid point × trigger is an id
//! (`virtual.fig7b.<sel>.{eager,optimizer,sla}.secs`), and one floor holds:
//!
//! * `fig7b.sla_bound_over_max` — the SLA bound over the SLA-driven run's
//!   slowest grid point. Floor [`SLA_BOUND_OVER_MAX_FLOOR`], what the
//!   engine does.
//!
//! The gap, written down rather than gated: the paper's SLA-driven run
//! stays under its bound (a ratio of at least 1). At paper scale it does
//! (0.7273 s against 0.7408 s, 1.02). At smoke scale it crosses its own
//! 2×-full-scan bound from 75 % on (0.0667 s against 0.0617 s at 100 %,
//! 0.925), so no floor claims the bound.

use smooth_core::{CostModel, PolicyKind, SmoothScanConfig, TableGeometry, Trigger};
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// The paper's fine-grained x-axis: dense around the trigger region, then
/// coarse to 100%.
fn fine_grid() -> Vec<f64> {
    let mut g: Vec<f64> = (0..=10).map(|i| i as f64 * 0.00001).collect(); // 0 .. 0.01%
    g.extend([0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.75, 1.0]);
    g
}

/// Greedy ÷ Elastic below 1 %: Greedy over-fetches, so it is never faster.
pub const GREEDY_OVER_ELASTIC_FLOOR: f64 = 1.0;
/// Fastest ÷ slowest policy from 10 % up: the paper's "within 10 %".
pub const POLICY_SPREAD_FLOOR: f64 = 1.0 / 1.1;

/// The SLA-driven run's slowest point over its bound (0.925 at smoke scale,
/// 1.02 at paper scale).
pub const SLA_BOUND_OVER_MAX_FLOOR: f64 = 0.9;

/// Fig. 7a: policies.
pub fn run_policies() {
    let db = setup::micro_db(DeviceProfile::hdd());
    let report = Report::new(
        "fig7a",
        "morphing policies (exec time, virtual s)",
        &["sel_%", "greedy", "selectivity_increase", "elastic"],
    );
    let variants = [
        ("greedy", PolicyKind::Greedy),
        ("selectivity_increase", PolicyKind::SelectivityIncrease),
        ("elastic", PolicyKind::Elastic),
    ]
    .map(|(name, policy)| {
        (name, AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic().with_policy(policy)))
    });
    let grid = fine_grid();
    let series = setup::sweep(&db, report, &grid, false, variants, &[]);
    let (mut greedy_over_elastic, mut spread) = (f64::INFINITY, f64::INFINITY);
    for (&sel, secs) in grid.iter().zip(&series) {
        if sel < 0.01 {
            greedy_over_elastic = greedy_over_elastic.min(secs[0] / secs[2]);
        }
        if sel >= 0.1 {
            let (lo, hi) =
                secs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            spread = spread.min(lo / hi);
        }
    }
    println!(
        "  [below 1%: greedy / elastic >= {greedy_over_elastic:.3}; \
         from 10%: fastest / slowest policy >= {spread:.3}]"
    );
    json_metric(
        Metric::new("fig7a.greedy_over_elastic_below_sel1", greedy_over_elastic, "x", true)
            .with_floor(GREEDY_OVER_ELASTIC_FLOOR),
    );
    json_metric(
        Metric::new("fig7a.policy_spread_from_sel10", spread, "x", true)
            .with_floor(POLICY_SPREAD_FLOOR),
    );
}

/// Fig. 7b: triggering points.
pub fn run_triggers() {
    let db = setup::micro_db(DeviceProfile::hdd());
    let rows = setup::micro_rows();
    let heap = &db.table(micro::TABLE).expect("micro").heap;
    let model = CostModel::new(
        TableGeometry::new(heap.schema().estimated_tuple_width(16) as u64, heap.tuple_count()),
        DeviceProfile::hdd(),
    );
    // The optimizer's estimate: 0.005% selectivity (the paper's 15 K of
    // 400 M — cardinality violations start at that point).
    let optimizer_estimate = (rows as f64 * 0.00005) as u64;
    // The SLA: twice the full-scan time.
    let sla_bound_ns = (2.0 * model.fs_cost_ns()) as u64;
    let sla_trigger = model.sla_trigger_cardinality(sla_bound_ns as f64);
    println!(
        "  [optimizer estimate = {optimizer_estimate} tuples; SLA bound = {:.2}s → model \
         switch point = {sla_trigger} tuples]",
        sla_bound_ns as f64 / 1e9
    );
    let report = Report::new(
        "fig7b",
        "triggering points (exec time, virtual s)",
        &["sel_%", "eager", "optimizer_driven", "sla_driven", "sla_bound"],
    );
    let variants = [
        ("eager", Trigger::Eager),
        (
            "optimizer",
            Trigger::OptimizerDriven {
                estimated_cardinality: optimizer_estimate,
                policy: PolicyKind::SelectivityIncrease,
            },
        ),
        ("sla", Trigger::SlaDriven { bound_ns: sla_bound_ns }),
    ]
    .map(|(name, trigger)| {
        (name, AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic().with_trigger(trigger)))
    });
    let sla_bound = sla_bound_ns as f64 / 1e9;
    let series = setup::sweep(&db, report, &fine_grid(), false, variants, &[sla_bound]);
    let sla_max = series.iter().fold(0.0f64, |max, secs| max.max(secs[2]));
    let over_max = sla_bound / sla_max;
    println!("  [SLA bound over the SLA-driven run's slowest point: {over_max:.3}]");
    json_metric(
        Metric::new("fig7b.sla_bound_over_max", over_max, "x", true)
            .with_floor(SLA_BOUND_OVER_MAX_FLOOR),
    );
}
