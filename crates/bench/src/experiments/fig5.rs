//! Fig. 5: Smooth Scan vs the traditional access paths across the whole
//! selectivity range, with (5a) and without (5b) an ORDER BY clause; and
//! Fig. 10, the 5b sweep on SSD (rand:seq = 2:1).
//!
//! Expected shape (paper, Section VI-C): Index Scan degrades by orders of
//! magnitude as selectivity grows; Sort Scan wins below ~1%, loses above
//! ~2.5%; Smooth Scan stays near the best alternative everywhere and wins
//! outright at high selectivity when the order must be preserved (no
//! posterior sort). On SSD the narrower random/sequential gap makes
//! index-based paths viable deeper into the range — Index Scan stays
//! competitive until ~0.1% (vs 0.01% on HDD), Smooth Scan beats Sort Scan
//! above ~0.1% and ends within ~10% of Full Scan at 100%.
//!
//! Under `--json` the whole virtual-clock series (every grid point ×
//! access path) is folded into the perf report as *gated* metrics
//! ([`setup::sweep`]), so the CI artifact tracks the paper figure point
//! by point and any >25% regression of a single series point fails the
//! perf-smoke job. The virtual clock is deterministic, so these gate
//! cleanly across machines at a fixed scale.

use smooth_core::SmoothScanConfig;
use smooth_planner::AccessPathChoice;
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::report::Report;
use crate::setup;

/// Run one sweep: `fig5a` (HDD, ordered), `fig5b` (HDD) or `fig10`
/// (SSD).
pub fn run(id: &str) {
    let (device, ordered, title) = match id {
        "fig5a" => (DeviceProfile::hdd(), true, "selectivity sweep WITH order by"),
        "fig5b" => (DeviceProfile::hdd(), false, "selectivity sweep WITHOUT order by"),
        _ => (DeviceProfile::ssd(), false, "selectivity sweep on SSD"),
    };
    let db = setup::micro_db(device);
    let report = Report::new(
        id,
        format!("{title} (exec time, virtual s)"),
        &["sel_%", "full_scan", "index_scan", "sort_scan", "smooth_scan"],
    );
    let variants = [
        ("full", AccessPathChoice::ForceFull),
        ("index", AccessPathChoice::ForceIndex),
        ("sort", AccessPathChoice::ForceSort),
        ("smooth", AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
    ];
    setup::sweep(&db, report, &micro::selectivity_grid(), ordered, variants, &[]);
}
