//! Fig. 6: sensitivity of the Smooth Scan modes.
//!
//! Compares Full Scan, Index Scan, Smooth Scan capped at Mode 1 ("Entire
//! Page Probe") and full Smooth Scan with Mode 2 ("Flattening Access").
//! Expected shape: Mode-1-only beats Index Scan by ~10× at 100% (repeated
//! accesses removed) but stays ~rand/seq above Full Scan; flattening closes
//! that gap to ~20%.
//!
//! **Gates.** Under `--json` every grid point × path is an id
//! (`virtual.fig6.<sel>.{full,index,mode1,flattening}.secs`), and two
//! shape floors hold at 100 %:
//!
//! * `fig6.index_over_mode1` — Index Scan's time over Mode-1-only's.
//!   Floor [`INDEX_OVER_MODE1_FLOOR`] (72× at smoke scale, 80× at paper
//!   scale).
//! * `fig6.full_over_flattening` — Full Scan's time over full Smooth
//!   Scan's. Floor [`FULL_OVER_FLATTENING_FLOOR`], what the engine does.
//!
//! The gap, written down rather than gated: the paper's "flattening stays
//! within 1.3× of a full scan" (a ratio of at least 0.77 here) holds at
//! paper scale (0.4662 s against 0.5712 s, 1.23×) but not at smoke scale
//! (0.0394 s against 0.0599 s, 1.52×), so no floor claims it.

use smooth_core::SmoothScanConfig;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Mode 1 alone removes Index Scan's repeated page visits: at 100 % it is
/// at least this many times faster.
pub const INDEX_OVER_MODE1_FLOOR: f64 = 5.0;
/// Full Scan's time over flattening Smooth Scan's at 100 % (0.66 at smoke
/// scale, 0.82 at paper scale).
pub const FULL_OVER_FLATTENING_FLOOR: f64 = 0.6;

/// Run the mode-sensitivity sweep.
pub fn run() {
    let db = setup::micro_db(DeviceProfile::hdd());
    let report = Report::new(
        "fig6",
        "mode sensitivity (exec time, virtual s)",
        &["sel_%", "full_scan", "index_scan", "ss_entire_page_probe", "ss_flattening"],
    );
    let variants = [
        ("full", AccessPathChoice::ForceFull),
        ("index", AccessPathChoice::ForceIndex),
        ("mode1", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic().mode1_only())),
        ("flattening", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
    ];
    let series = setup::sweep(&db, report, &micro::selectivity_grid(), false, variants, &[]);
    // At the last grid point (100 %).
    let [full, index, mode1, flattening] = series[series.len() - 1];
    println!(
        "  [at 100%: index scan {:.1}x mode 1 only; flattening {:.2}x a full scan]",
        index / mode1,
        flattening / full
    );
    json_metric(
        Metric::new("fig6.index_over_mode1", index / mode1, "x", true)
            .with_floor(INDEX_OVER_MODE1_FLOOR),
    );
    json_metric(
        Metric::new("fig6.full_over_flattening", full / flattening, "x", true)
            .with_floor(FULL_OVER_FLATTENING_FLOOR),
    );
}
