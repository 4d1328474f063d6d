//! Morphing triggers: *when* Smooth Scan starts morphing (Section III-C).
//!
//! Every trigger but Eager and Sort starts in Mode 0, the traditional
//! index scan; one that never fires is the engine's Index Scan. The other
//! two traditional paths of Section II are triggers too: Switch Scan drops
//! the cursor for the heap once its estimate is exceeded, and Sort Scan
//! walks the whole range before it fetches a page.

use crate::cost_model::CostModel;
use crate::policy::PolicyKind;

/// When morphing begins, and which policy takes over afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Replace the access path outright: morph from the very first tuple.
    /// No Tuple-ID cache needed (Section III-C, the paper's default).
    Eager,
    /// Run a traditional index scan until the produced cardinality exceeds
    /// the optimizer's estimate — a cardinality violation signals that the
    /// plan choice may be wrong — then morph with `policy`.
    OptimizerDriven {
        /// The optimizer's (possibly wildly wrong) cardinality estimate.
        estimated_cardinality: u64,
        /// Policy after triggering (the paper's Fig. 7b uses
        /// Selectivity-Increase here).
        policy: PolicyKind,
    },
    /// Run a traditional index scan until continuing would jeopardize a
    /// performance SLA; the switch point is precomputed from the cost
    /// model for the worst case (100% selectivity), and morphing proceeds
    /// greedily (Fig. 7b switches straight to Greedy).
    SlaDriven {
        /// The SLA: an upper bound on operator execution time.
        bound_ns: u64,
    },
    /// Never morph: Mode 0 over the whole range — a traditional index scan
    /// (Section II), key-ordered, one heap fetch per index entry.
    Never,
    /// Switch Scan, the binary-decision straw man of Section VI-F: the
    /// Optimizer-driven trigger's index phase, then — instead of morphing —
    /// the cursor is dropped and the whole heap is read from page 0 in
    /// full-scan readahead runs, skipping the tuples already produced.
    /// Unordered only: the Result Cache needs the cursor.
    Switch {
        /// The optimizer's cardinality estimate: the switch fires on the
        /// next index entry once this many tuples have been produced.
        estimated_cardinality: u64,
    },
    /// Sort Scan, PostgreSQL's Bitmap Heap Scan (Section II): `open` walks
    /// the whole range into the Tuple-ID cache without fetching anything,
    /// then the marked pages are read once each, in page order, in runs
    /// coalesced within `SORT_SCAN_PREFETCH_GAP`, and only their marked
    /// slots are inspected. Blocking, and unordered only: page order
    /// destroys key order.
    Sort,
}

impl Trigger {
    /// The cardinality at which the traditional index phase must end
    /// (`None` for Eager and Sort, which never run a traditional phase;
    /// `u64::MAX` for Never, whose traditional phase never ends).
    pub fn trigger_cardinality(&self, model: &CostModel) -> Option<u64> {
        match self {
            Trigger::Eager | Trigger::Sort => None,
            Trigger::Never => Some(u64::MAX),
            Trigger::OptimizerDriven { estimated_cardinality, .. }
            | Trigger::Switch { estimated_cardinality } => Some(*estimated_cardinality),
            Trigger::SlaDriven { bound_ns } => {
                Some(model.sla_trigger_cardinality(*bound_ns as f64))
            }
        }
    }

    /// Policy to morph with once triggered (Never, Switch and Sort do not
    /// morph).
    pub fn post_trigger_policy(&self, default: PolicyKind) -> PolicyKind {
        match self {
            Trigger::Eager | Trigger::Never | Trigger::Switch { .. } | Trigger::Sort => default,
            Trigger::OptimizerDriven { policy, .. } => *policy,
            Trigger::SlaDriven { .. } => PolicyKind::Greedy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::TableGeometry;
    use smooth_storage::DeviceProfile;

    fn model() -> CostModel {
        CostModel::new(TableGeometry::new(64, 480_000), DeviceProfile::hdd())
    }

    #[test]
    fn eager_never_delays() {
        assert_eq!(Trigger::Eager.trigger_cardinality(&model()), None);
        assert_eq!(Trigger::Eager.post_trigger_policy(PolicyKind::Elastic), PolicyKind::Elastic);
    }

    #[test]
    fn optimizer_trigger_uses_the_estimate_verbatim() {
        let t = Trigger::OptimizerDriven {
            estimated_cardinality: 15_000,
            policy: PolicyKind::SelectivityIncrease,
        };
        assert_eq!(t.trigger_cardinality(&model()), Some(15_000));
        assert_eq!(t.post_trigger_policy(PolicyKind::Elastic), PolicyKind::SelectivityIncrease);
    }

    #[test]
    fn sla_trigger_comes_from_the_cost_model_and_switches_to_greedy() {
        let m = model();
        let bound = (2.0 * m.fs_cost_ns()) as u64;
        let t = Trigger::SlaDriven { bound_ns: bound };
        let k = t.trigger_cardinality(&m).unwrap();
        assert!(k > 0 && k < m.geometry.tuples);
        assert_eq!(t.post_trigger_policy(PolicyKind::Elastic), PolicyKind::Greedy);
        // The switch point guarantees the worst case stays under the SLA.
        let worst = m.is_cost_ns(k)
            + m.ss_mode2_cost_ns(m.geometry.pages())
            + m.geometry.leaves() as f64 * DeviceProfile::hdd().seq_page_ns as f64
            + m.geometry.tuples as f64 * CostModel::SLA_CPU_ALLOWANCE_NS;
        assert!(worst <= bound as f64 * 1.001);
    }
}
