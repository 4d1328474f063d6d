//! Fig. 10: the Fig. 5 sweep on SSD (rand:seq = 2:1).
//!
//! Expected shape: the narrower random/sequential gap makes index-based
//! paths viable deeper into the selectivity range — Index Scan stays
//! competitive until ~0.1% (vs 0.01% on HDD), Smooth Scan beats Sort Scan
//! above ~0.1% and ends within ~10% of Full Scan at 100%.
//!
//! Under `--json` the virtual-clock series is folded into the perf report
//! as gated metrics, like the Fig. 5 sweeps (see `fig5.rs`).

use smooth_core::SmoothScanConfig;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::{json_metric, sel_tag, Metric, Report};
use crate::setup;

/// Run the SSD sweep (without ORDER BY, as in the paper's Fig. 10).
pub fn run() {
    let db = setup::micro_db(DeviceProfile::ssd());
    let mut report = Report::new(
        "fig10",
        "selectivity sweep on SSD (exec time, virtual s)",
        &["sel_%", "full_scan", "index_scan", "sort_scan", "smooth_scan"],
    );
    for sel in micro::selectivity_grid() {
        let mut cells = vec![format!("{}", sel * 100.0)];
        for (name, access) in [
            ("full", AccessPathChoice::ForceFull),
            ("index", AccessPathChoice::ForceIndex),
            ("sort", AccessPathChoice::ForceSort),
            ("smooth", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
        ] {
            let plan = micro::query(sel, false, access);
            let stats = db.run(&plan).expect("fig10 query").stats;
            cells.push(Report::secs(stats.secs()));
            json_metric(Metric::new(
                format!("virtual.fig10.{}.{name}.secs", sel_tag(sel)),
                stats.secs(),
                "virtual_s",
                false,
            ));
        }
        report.row(cells);
    }
    report.finish();
}
