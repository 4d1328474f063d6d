//! The Tuple-ID cache: one bit per tuple slot (Section IV-A).
//!
//! Needed only by the triggers that fire after a traditional index scan —
//! Optimizer-driven, SLA-driven and Switch: tuples Mode 0 produced *before*
//! the trigger fires must not be produced again when Smooth Scan later
//! processes their whole page. (With the Eager strategy the cache is
//! unnecessary — a point the paper credits to strict `(indexkey, TID)`
//! ordering — and under Never no later phase revisits a page.)
//!
//! Under the Sort trigger the same bitmap holds Sort Scan's *marked* set
//! instead: every TID of the index range, walked in at `open`. It decides
//! which pages the heap cursor reads and which of their slots are
//! inspected.

use smooth_storage::PageView;
use smooth_types::{PageId, Result, Tid};

/// Bitmap of already-produced tuples: a [`smooth_types::TidBitmap`], one
/// bit per tuple slot, page-major.
pub use smooth_types::TidBitmap as TupleIdCache;

/// Append the tuples of `page` that `produced` does not hold — all of them,
/// in one slot walk, without a cache — to `tuples` in slot order, telling
/// `slot` each one's slot. Returns the bitmap checks made: one per slot with a cache.
pub(crate) fn unproduced<'p>(
    produced: Option<&TupleIdCache>,
    page: PageId,
    view: &PageView<'p>,
    tuples: &mut Vec<&'p [u8]>,
    mut slot: impl FnMut(u16),
) -> Result<u64> {
    let Some(cache) = produced else {
        (0..view.slot_count()).for_each(slot);
        return view.tuples_into(tuples).map(|()| 0);
    };
    for s in (0..view.slot_count()).filter(|&s| !cache.contains(Tid { page, slot: s })) {
        slot(s);
        tuples.push(view.get(s)?);
    }
    Ok(u64::from(view.slot_count()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_membership() {
        let mut c = TupleIdCache::new(100, 120);
        let t = Tid::new(40, 77);
        assert!(!c.contains(t));
        assert!(c.insert(t).unwrap());
        assert!(c.contains(t));
        assert!(!c.insert(t).unwrap());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn distinct_tids_do_not_collide() {
        let mut c = TupleIdCache::new(10, 120);
        c.insert(Tid::new(0, 119)).unwrap();
        assert!(!c.contains(Tid::new(1, 0)));
        c.insert(Tid::new(1, 0)).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn memory_is_one_bit_per_slot() {
        let c = TupleIdCache::new(1000, 128);
        assert_eq!(c.memory_bytes(), (1000 * 128 / 64) * 8);
    }
}
