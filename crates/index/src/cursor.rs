//! Range cursors over the B+-tree.
//!
//! A cursor yields `(key, tid)` pairs in strict `(key, tid)` order,
//! touching each leaf's virtual page as it enters it — so a long range scan
//! shows up in the device model as `height` random touches (the initial
//! descent) followed by a sequential leaf walk, matching the
//! `#leaves_res × seqcost` term of Eq. (11).
//!
//! The cursor owns an `Arc` of its index, so operators can hold both
//! without self-referential lifetimes.

use std::ops::Bound;
use std::sync::Arc;

use smooth_storage::{Session, Storage};
use smooth_types::Tid;

use crate::btree::BTreeIndex;

/// Iterator state for one index range scan.
pub struct IndexCursor {
    /// What [`IndexCursor::next`] opens its one-step session on.
    storage: Storage,
    walk: Walk,
}

/// Where a cursor stands in the leaf level.
struct Walk {
    index: Arc<BTreeIndex>,
    hi: Bound<i64>,
    leaf: usize,
    pos: usize,
    exhausted: bool,
}

impl IndexCursor {
    pub(crate) fn new(
        index: Arc<BTreeIndex>,
        storage: &Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
    ) -> Self {
        let mut walk = Walk { index, hi, leaf: 0, pos: 0, exhausted: true };
        if !walk.index.is_empty() {
            let s = &mut storage.session();
            // Position at the first entry satisfying the lower bound; an
            // unbounded one touches the leftmost spine.
            let k = match lo {
                Bound::Unbounded => i64::MIN,
                Bound::Included(k) | Bound::Excluded(k) => k,
            };
            walk.leaf = walk.index.descend(s, k);
            walk.pos = walk.index.leaves[walk.leaf].entries.partition_point(|&(key, _)| key < k);
            walk.exhausted = false;
            walk.skip_empty_leaves(s);
            if let Bound::Excluded(k) = lo {
                // Skip the run of duplicates equal to the excluded bound;
                // the run may span leaf boundaries.
                while !walk.exhausted && walk.index.leaves[walk.leaf].entries[walk.pos].0 == k {
                    walk.pos += 1;
                    walk.skip_empty_leaves(s);
                }
            }
        }
        IndexCursor { storage: storage.clone(), walk }
    }

    /// Peek at the next `(key, tid)` without consuming it or charging CPU.
    pub fn peek(&self) -> Option<(i64, Tid)> {
        let w = &self.walk;
        if w.exhausted {
            return None;
        }
        let (key, tid) = w.index.leaves[w.leaf].entries[w.pos];
        w.within_hi(key).then_some((key, tid))
    }

    /// The next `(key, tid)` pair, or `None` past the upper bound: one
    /// leaf step charged to `s`, and a page touch when it crosses into
    /// the next leaf.
    pub fn next_in(&mut self, s: &mut Session) -> Option<(i64, Tid)> {
        self.walk.next_in(s)
    }

    /// [`IndexCursor::next_in`] as a one-step session.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(i64, Tid)> {
        self.walk.next_in(&mut self.storage.session())
    }

    /// Drain the cursor into a vector, on one session (tests).
    pub fn collect_all(mut self) -> Vec<(i64, Tid)> {
        let (mut out, s) = (Vec::new(), &mut self.storage.session());
        while let Some(e) = self.walk.next_in(s) {
            out.push(e);
        }
        out
    }
}

impl Walk {
    /// Advance over exhausted leaves, charging a touch per new leaf.
    fn skip_empty_leaves(&mut self, s: &mut Session) {
        while self.pos >= self.index.leaves[self.leaf].entries.len() {
            if self.leaf + 1 >= self.index.leaves.len() {
                self.exhausted = true;
                return;
            }
            self.leaf += 1;
            self.pos = 0;
            s.touch_index_page(self.index.file_id(), self.index.leaves[self.leaf].page_id);
        }
    }

    fn within_hi(&self, key: i64) -> bool {
        match self.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => key <= h,
            Bound::Excluded(h) => key < h,
        }
    }

    fn next_in(&mut self, s: &mut Session) -> Option<(i64, Tid)> {
        if self.exhausted {
            return None;
        }
        let (key, tid) = self.index.leaves[self.leaf].entries[self.pos];
        if !self.within_hi(key) {
            self.exhausted = true;
            return None;
        }
        s.charge_cpu(s.cpu().index_leaf_step_ns);
        self.pos += 1;
        self.skip_empty_leaves(s);
        Some((key, tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::{CpuCosts, DeviceProfile, StorageConfig};

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 4096,
        })
    }

    fn index(n: i64, fanout: usize) -> Arc<BTreeIndex> {
        let entries = (0..n).map(|i| (i, Tid::new(i as u32, 0))).collect();
        Arc::new(BTreeIndex::build_with_fanout("i", entries, fanout))
    }

    #[test]
    fn full_scan_yields_everything_in_order() {
        let idx = index(1000, 8);
        let s = storage();
        let all = idx.scan_all(&s).collect_all();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all[0].0, 0);
        assert_eq!(all[999].0, 999);
    }

    #[test]
    fn bounds_are_respected() {
        let idx = index(100, 8);
        let s = storage();
        let r = idx.range(&s, Bound::Included(10), Bound::Excluded(20)).collect_all();
        assert_eq!(r.iter().map(|e| e.0).collect::<Vec<_>>(), (10..20).collect::<Vec<_>>());
        let r = idx.range(&s, Bound::Excluded(10), Bound::Included(12)).collect_all();
        assert_eq!(r.iter().map(|e| e.0).collect::<Vec<_>>(), vec![11, 12]);
        let r = idx.range(&s, Bound::Unbounded, Bound::Excluded(3)).collect_all();
        assert_eq!(r.len(), 3);
        let r = idx.range(&s, Bound::Included(98), Bound::Unbounded).collect_all();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_ranges() {
        let idx = index(100, 8);
        let s = storage();
        assert!(idx.range(&s, Bound::Included(200), Bound::Unbounded).collect_all().is_empty());
        assert!(idx.range(&s, Bound::Included(50), Bound::Excluded(50)).collect_all().is_empty());
        assert!(idx.range(&s, Bound::Included(-10), Bound::Excluded(0)).collect_all().is_empty());
    }

    #[test]
    fn duplicates_come_out_tid_ordered_across_leaves() {
        // 300 entries of the same key spread over many 8-entry leaves.
        let entries: Vec<(i64, Tid)> = (0..300).map(|i| (7, Tid::new(i as u32, 0))).collect();
        let idx = Arc::new(BTreeIndex::build_with_fanout("i", entries, 8));
        let s = storage();
        let r = idx.range(&s, Bound::Included(7), Bound::Included(7)).collect_all();
        assert_eq!(r.len(), 300);
        assert!(r.windows(2).all(|w| w[0].1 < w[1].1));
        // Excluded lower bound skips the whole duplicate run.
        let r = idx.range(&s, Bound::Excluded(7), Bound::Unbounded).collect_all();
        assert!(r.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let idx = index(10, 4);
        let s = storage();
        let mut c = idx.scan_all(&s);
        assert_eq!(c.peek(), Some((0, Tid::new(0, 0))));
        assert_eq!(c.peek(), Some((0, Tid::new(0, 0))));
        assert_eq!(c.next(), Some((0, Tid::new(0, 0))));
        assert_eq!(c.peek(), Some((1, Tid::new(1, 0))));
    }

    #[test]
    fn leaf_walk_is_mostly_sequential() {
        let idx = index(10_000, 64);
        let s = storage();
        s.reset_metrics();
        let _ = idx.scan_all(&s).collect_all();
        let io = s.io_snapshot();
        // One random descent, then a sequential walk over the leaves.
        assert!(io.seq_pages >= io.rand_pages * 10);
    }

    #[test]
    fn cursor_on_empty_index() {
        let idx = Arc::new(BTreeIndex::build("i", Vec::new()));
        let s = storage();
        assert!(idx.scan_all(&s).collect_all().is_empty());
        assert!(idx.scan_all(&s).peek().is_none());
    }
}
