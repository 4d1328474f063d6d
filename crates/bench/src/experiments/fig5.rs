//! Fig. 5: Smooth Scan vs the traditional access paths across the whole
//! selectivity range, with (5a) and without (5b) an ORDER BY clause.
//!
//! Expected shape (paper, Section VI-C): Index Scan degrades by orders of
//! magnitude as selectivity grows; Sort Scan wins below ~1%, loses above
//! ~2.5%; Smooth Scan stays near the best alternative everywhere and wins
//! outright at high selectivity when the order must be preserved (no
//! posterior sort).
//!
//! Under `--json` the whole virtual-clock series (every grid point ×
//! access path) is folded into the perf report as *gated* metrics, so the
//! CI artifact tracks the paper figure point by point and any >25%
//! regression of a single series point fails the perf-smoke job. The
//! virtual clock is deterministic, so these gate cleanly across machines
//! at a fixed scale.

use smooth_core::SmoothScanConfig;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, sel_tag, Metric, Report};
use crate::setup;

/// Run the sweep; `ordered` selects Fig. 5a (true) or Fig. 5b (false).
pub fn run(ordered: bool) {
    let db = setup::micro_db(DeviceProfile::hdd());
    let id = if ordered { "fig5a" } else { "fig5b" };
    let title = if ordered {
        "selectivity sweep WITH order by (exec time, virtual s)"
    } else {
        "selectivity sweep WITHOUT order by (exec time, virtual s)"
    };
    let mut report =
        Report::new(id, title, &["sel_%", "full_scan", "index_scan", "sort_scan", "smooth_scan"]);
    for sel in micro::selectivity_grid() {
        let mut cells = vec![format!("{}", sel * 100.0)];
        for (name, access) in [
            ("full", AccessPathChoice::ForceFull),
            ("index", AccessPathChoice::ForceIndex),
            ("sort", AccessPathChoice::ForceSort),
            ("smooth", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
        ] {
            let plan = micro::query(sel, ordered, access);
            let stats = db.run(&plan).expect("fig5 query").stats;
            cells.push(Report::secs(stats.secs()));
            json_metric(Metric::new(
                format!("virtual.{id}.{}.{name}.secs", sel_tag(sel)),
                stats.secs(),
                "virtual_s",
                false,
            ));
        }
        report.row(cells);
    }
    report.finish();
}
