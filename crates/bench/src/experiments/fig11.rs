//! Fig. 11: the Switch Scan performance cliff.
//!
//! Switch Scan — Smooth Scan under the Switch trigger — runs a plain
//! index scan (Mode 0) until the optimizer's 32 K-tuple estimate is
//! violated, then drops the cursor and reads the whole heap in full-scan
//! readahead runs, skipping what Mode 0 produced. Expected shape: a
//! vertical cliff right past the estimate's selectivity (the time jumps by
//! a whole full-scan), then flat full-scan behaviour — versus Smooth
//! Scan's smooth curve through the same region.
//!
//! **Gates.** Under `--json` every grid point × path is an id
//! (`virtual.fig11.<sel>.{full,switch,smooth}.secs`), and two shape floors
//! hold at any scale:
//!
//! * `fig11.switch.cliff_over_full` — Switch Scan's largest jump between
//!   adjacent grid points over the full-scan time at the point after it.
//!   Floor [`CLIFF_OVER_FULL_FLOOR`]: the paper's "a whole full scan".
//! * `fig11.cliff.switch_over_smooth_jump` — that jump over Smooth Scan's
//!   jump across the same interval. Floor [`SWITCH_OVER_SMOOTH_FLOOR`].
//!
//! The gap, written down rather than gated: Smooth Scan's *own* largest
//! adjacent jump is larger than Switch Scan's cliff. It lies between 0.1 %
//! and 1 % (0.0275 → 0.1130 s at smoke scale, 0.289 → 0.765 s at paper
//! scale), where Elastic costs 2.2–3.8× a full scan on HDD. The paper's
//! "Smooth's largest jump stays under a fraction of Switch's" is not met,
//! so no floor claims it.

use smooth_core::SmoothScanConfig;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Switch Scan's cliff is at least one full-scan time.
pub const CLIFF_OVER_FULL_FLOOR: f64 = 1.0;
/// Switch Scan's cliff is at least this many times Smooth Scan's step
/// over the same grid interval.
pub const SWITCH_OVER_SMOOTH_FLOOR: f64 = 5.0;

/// Run the cliff study.
pub fn run() {
    let db = setup::micro_db(DeviceProfile::hdd());
    let rows = setup::micro_rows();
    // The optimizer's estimate: 0.008% selectivity (the paper's 32 K of
    // 400 M tuples); the cliff appears at the next grid point, 0.009%.
    let estimate = (rows as f64 * 0.00008) as u64;
    println!("  [switch scan estimate = {estimate} tuples]");
    let report = Report::new(
        "fig11",
        "switch scan cliff (exec time, virtual s)",
        &["sel_%", "full_scan", "switch_scan", "smooth_scan"],
    );
    let grid =
        [0.00001, 0.00005, 0.00007, 0.00008, 0.00009, 0.0001, 0.0005, 0.001, 0.01, 0.10, 0.50, 1.0];
    let variants = [
        ("full", AccessPathChoice::ForceFull),
        ("switch", AccessPathChoice::Switch { estimate }),
        ("smooth", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
    ];
    // Per grid point: (full, switch, smooth) seconds.
    let series = setup::sweep(&db, report, &grid, false, variants, &[]);
    // Switch Scan's cliff: its largest step between adjacent grid points.
    let (at, cliff) = series
        .windows(2)
        .map(|w| w[1][1] - w[0][1])
        .enumerate()
        .fold((0, f64::MIN), |best, (i, jump)| if jump > best.1 { (i, jump) } else { best });
    let smooth_jump = series[at + 1][2] - series[at][2];
    let over_full = cliff / series[at + 1][0];
    let over_smooth = cliff / smooth_jump;
    println!(
        "  [switch cliff {:.4} s between {}% and {}%: {over_full:.3}x a full scan, \
         {over_smooth:.1}x smooth scan's step]",
        cliff,
        grid[at] * 100.0,
        grid[at + 1] * 100.0
    );
    json_metric(
        Metric::new("fig11.switch.cliff_over_full", over_full, "x", true)
            .with_floor(CLIFF_OVER_FULL_FLOOR),
    );
    json_metric(
        Metric::new("fig11.cliff.switch_over_smooth_jump", over_smooth, "x", true)
            .with_floor(SWITCH_OVER_SMOOTH_FLOOR),
    );
}
