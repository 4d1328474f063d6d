//! Tuple identifiers: `(heap page, slot)` pairs, exactly as PostgreSQL's
//! `ctid`. Secondary B+-tree leaves store TIDs; Smooth Scan's Page-ID and
//! Tuple-ID caches are keyed by them, and a set of them is a
//! [`TidBitmap`].

use std::fmt;

use crate::error::{Error, Result};

/// Identifier of one heap page within a table (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u32);

impl PageId {
    /// The page number as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next physically adjacent page.
    #[inline]
    pub fn next(self) -> PageId {
        PageId(self.0 + 1)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Slot number of a tuple within its page (0-based).
pub type SlotId = u16;

/// A tuple identifier: heap page plus slot within the page.
///
/// `Ord` follows physical placement (page-major): the order Sort Scan
/// visits the heap in (Section II), walking its [`TidBitmap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid {
    /// The heap page holding the tuple.
    pub page: PageId,
    /// The slot within that page.
    pub slot: SlotId,
}

impl Tid {
    /// Construct from raw parts.
    #[inline]
    pub fn new(page: u32, slot: SlotId) -> Self {
        Tid { page: PageId(page), slot }
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.page.0, self.slot)
    }
}

/// A set of TIDs as a page-major bitmap: `⌈max_slots / 64⌉` words a page,
/// so a page's members come off its own words in ascending slot order.
/// Smooth Scan's Tuple-ID cache (Section IV-A) is one — under the Switch
/// trigger the tuples Mode 0 produced, under Sort the index range Sort
/// Scan walked.
#[derive(Debug, Clone, Default)]
pub struct TidBitmap {
    bits: Vec<u64>,
    words: usize,
    max_slots: SlotId,
    len: u64,
}

impl TidBitmap {
    /// An empty set over `pages` pages of at most `max_slots` tuples each.
    pub fn new(pages: u32, max_slots: SlotId) -> Self {
        let words = usize::from(max_slots).div_ceil(64);
        TidBitmap { bits: vec![0; pages as usize * words], words, max_slots, len: 0 }
    }

    /// `tid`'s word and bit, if it lies within the pages and slots covered.
    #[inline]
    fn at(&self, tid: Tid) -> Option<(usize, u64)> {
        let word = tid.page.0 as usize * self.words + usize::from(tid.slot / 64);
        let inside = tid.slot < self.max_slots && word < self.bits.len();
        inside.then(|| (word, 1 << (tid.slot % 64)))
    }

    /// Add `tid`; `true` if it was not a member. A TID past the pages or
    /// slots covered is [`Error::Corrupt`]: it has no bit of its own.
    #[inline]
    pub fn insert(&mut self, tid: Tid) -> Result<bool> {
        let Some((word, bit)) = self.at(tid) else {
            return Err(Error::corrupt(format!("TID {tid} lies outside the heap")));
        };
        let new = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        self.len += u64::from(new);
        Ok(new)
    }

    /// Whether `tid` is a member; one outside the range covered is not.
    #[inline]
    pub fn contains(&self, tid: Tid) -> bool {
        self.at(tid).is_some_and(|(word, bit)| self.bits[word] & bit != 0)
    }

    fn page(&self, page: u32) -> &[u64] {
        &self.bits[page as usize * self.words..][..self.words]
    }

    /// Whether `page` (one of those covered) holds a member.
    pub fn has_page(&self, page: u32) -> bool {
        self.page(page).iter().any(|&w| w != 0)
    }

    /// The members on `page` (one of those covered), in slot order.
    pub fn slots(&self, page: u32) -> impl Iterator<Item = SlotId> + '_ {
        let words = self.page(page).iter().zip((0..).step_by(64));
        words.flat_map(|(&w, base)| (0..64).filter(move |b| w >> b & 1 != 0).map(move |b| base + b))
    }

    /// Number of members.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when nothing is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_page_major() {
        let a = Tid::new(1, 500);
        let b = Tid::new(2, 0);
        let c = Tid::new(2, 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn tid_bitmap_walks_a_page_in_slot_order_and_rejects_tids_outside_it() {
        let mut set = TidBitmap::new(3, 70);
        for slot in [69, 0, 64, 63] {
            assert!(set.insert(Tid::new(1, slot)).unwrap());
        }
        assert!(!set.insert(Tid::new(1, 0)).unwrap());
        assert_eq!(set.slots(1).collect::<Vec<_>>(), [0, 63, 64, 69]);
        assert!(set.has_page(1) && !set.has_page(0) && !set.has_page(2));
        // Past the heap, past the fullest page, and past the page's words
        // (the next page's first bit): no bit to set, and no member.
        for outside in [Tid::new(3, 0), Tid::new(0, 70), Tid::new(0, 128)] {
            assert!(matches!(set.insert(outside), Err(Error::Corrupt(_))), "{outside}");
            assert!(!set.contains(outside));
        }
        assert_eq!((set.len(), set.slots(2).count()), (4, 0));
    }

    #[test]
    fn page_id_navigation() {
        assert_eq!(PageId(3).next(), PageId(4));
        assert_eq!(PageId(3).index(), 3);
        assert_eq!(PageId(3).to_string(), "p3");
        assert_eq!(Tid::new(3, 9).to_string(), "(3,9)");
    }
}
