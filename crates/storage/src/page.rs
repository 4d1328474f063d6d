//! Slotted heap pages.
//!
//! Classic slotted layout inside an 8 KB buffer (PostgreSQL-style):
//!
//! ```text
//! +--------+----------------+...free space...+----------------+
//! | header |  slot array →  |                |  ← tuple data  |
//! +--------+----------------+----------------+----------------+
//! 0        4                4+4*n                              8192
//! ```
//!
//! * header: `n_slots: u16`, `data_start: u16` (lowest used tuple byte);
//! * slot array: one `(offset: u16, len: u16)` entry per tuple, growing up;
//! * tuple payloads grow down from the end of the page.
//!
//! Pages are immutable once frozen ([`PageBuilder::freeze`] →
//! [`PageBuf`]); the engine is an append-only analytical store, matching
//! the paper's read-only evaluation (cold-run selections and joins).

use std::sync::Arc;

use smooth_types::{Error, Result, SlotId, PAGE_SIZE};

/// Byte offset where the slot array begins.
const HEADER_LEN: usize = 4;
/// Bytes per slot-array entry.
const SLOT_LEN: usize = 4;

/// An immutable, reference-counted page image.
pub type PageBuf = Arc<[u8]>;

/// Builder for one page: accepts tuples until full, then freezes.
#[derive(Debug)]
pub struct PageBuilder {
    buf: Vec<u8>,
    n_slots: u16,
    data_start: u16,
}

impl PageBuilder {
    /// An empty page.
    pub fn new() -> Self {
        PageBuilder { buf: vec![0u8; PAGE_SIZE], n_slots: 0, data_start: PAGE_SIZE as u16 }
    }

    /// Bytes still available for one more tuple (accounting for its slot).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER_LEN + SLOT_LEN * self.n_slots as usize;
        (self.data_start as usize).saturating_sub(slots_end)
    }

    /// Number of tuples inserted so far.
    pub fn slot_count(&self) -> u16 {
        self.n_slots
    }

    /// Try to append a tuple; returns its slot, or `None` if it does not fit.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<SlotId> {
        let need = tuple.len() + SLOT_LEN;
        if self.free_space() < need || tuple.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.n_slots;
        let new_start = self.data_start as usize - tuple.len();
        self.buf[new_start..self.data_start as usize].copy_from_slice(tuple);
        let entry = HEADER_LEN + SLOT_LEN * slot as usize;
        self.buf[entry..entry + 2].copy_from_slice(&(new_start as u16).to_le_bytes());
        self.buf[entry + 2..entry + 4].copy_from_slice(&(tuple.len() as u16).to_le_bytes());
        self.n_slots += 1;
        self.data_start = new_start as u16;
        Some(slot)
    }

    /// Finalize: write the header and return the immutable image.
    pub fn freeze(mut self) -> PageBuf {
        self.buf[0..2].copy_from_slice(&self.n_slots.to_le_bytes());
        self.buf[2..4].copy_from_slice(&self.data_start.to_le_bytes());
        Arc::from(self.buf.into_boxed_slice())
    }
}

impl Default for PageBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Read-only view over a frozen page image. A reader of whole pages takes
/// their tuples in one slot walk ([`PageView::tuples_into`]); a reader of
/// TIDs takes one slot at a time ([`PageView::get`]).
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    bytes: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap a page image, validating its size and header.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(Error::corrupt(format!("page image of {} bytes", bytes.len())));
        }
        let view = PageView { bytes };
        let slots_end = HEADER_LEN + SLOT_LEN * view.slot_count() as usize;
        if slots_end > PAGE_SIZE || (view.data_start() as usize) < slots_end {
            return Err(Error::corrupt("page header out of bounds"));
        }
        Ok(view)
    }

    /// Number of tuples on the page.
    #[inline]
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]])
    }

    fn data_start(&self) -> u16 {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    /// Raw bytes of the tuple in `slot`. A slot past the page's slot
    /// count is [`Error::Corrupt`]: readers address tuples by TID, an
    /// index entry the engine built, so it is the page header that lies.
    pub fn get(&self, slot: SlotId) -> Result<&'a [u8]> {
        if slot >= self.slot_count() {
            return Err(Error::corrupt(format!(
                "slot {slot} out of range (page has {})",
                self.slot_count()
            )));
        }
        let entry = HEADER_LEN + SLOT_LEN * slot as usize;
        let off = u16::from_le_bytes([self.bytes[entry], self.bytes[entry + 1]]) as usize;
        let len = u16::from_le_bytes([self.bytes[entry + 2], self.bytes[entry + 3]]) as usize;
        // Tuple data lives in `[data_start, PAGE_SIZE)`; `new` checked that
        // the slot array ends at or before `data_start`, so a slot that
        // starts below it would alias the header or the slot array.
        if off + len > PAGE_SIZE || off < self.data_start() as usize {
            return Err(outside(slot as usize));
        }
        Ok(&self.bytes[off..off + len])
    }

    /// Append every tuple of the page to `out`, in slot order: one pass
    /// over the slot array, with the slot count and the tuple area's start
    /// read once and every slot checked as [`PageView::get`] checks it, so
    /// the first slot `get` rejects fails the walk with the same
    /// [`Error::Corrupt`]. What was appended before that stays in `out`.
    pub fn tuples_into(&self, out: &mut Vec<&'a [u8]>) -> Result<()> {
        let slots = self.slot_count() as usize;
        let data_start = self.data_start() as usize;
        // `new` checked that the slot array ends inside the page.
        let entries = &self.bytes[HEADER_LEN..HEADER_LEN + SLOT_LEN * slots];
        out.reserve(slots);
        for (slot, e) in entries.chunks_exact(SLOT_LEN).enumerate() {
            let off = u16::from_le_bytes([e[0], e[1]]) as usize;
            let len = u16::from_le_bytes([e[2], e[3]]) as usize;
            match self.bytes.get(off..off + len) {
                Some(tuple) if off >= data_start => out.push(tuple),
                _ => return Err(outside(slot)),
            }
        }
        Ok(())
    }

    /// Iterate over all tuples in slot order, a [`PageView::get`] per slot.
    pub fn iter(&self) -> impl Iterator<Item = Result<&'a [u8]>> + '_ {
        let view = *self;
        (0..self.slot_count()).map(move |s| view.get(s))
    }
}

/// The verdict on a slot whose tuple would lie outside the tuple area.
fn outside(slot: usize) -> Error {
    Error::corrupt(format!("slot {slot} points outside the tuple area"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back() {
        let mut b = PageBuilder::new();
        let s0 = b.insert(b"alpha").unwrap();
        let s1 = b.insert(b"bravo!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        let buf = b.freeze();
        let v = PageView::new(&buf).unwrap();
        assert_eq!(v.slot_count(), 2);
        assert_eq!(v.get(0).unwrap(), b"alpha");
        assert_eq!(v.get(1).unwrap(), b"bravo!");
        assert!(matches!(v.get(2), Err(Error::Corrupt(_))), "a TID past the slot count");
    }

    #[test]
    fn fills_until_capacity() {
        let mut b = PageBuilder::new();
        let tuple = [7u8; 64];
        let mut n = 0;
        while b.insert(&tuple).is_some() {
            n += 1;
        }
        // (8192 - 4) / (64 + 4) = 120 tuples — the paper's §VI-D density.
        assert_eq!(n, 120);
        let buf = b.freeze();
        let v = PageView::new(&buf).unwrap();
        assert_eq!(v.slot_count(), 120);
        assert!(v.iter().all(|t| t.unwrap() == tuple));
    }

    #[test]
    fn rejects_oversized_tuple_but_accepts_next() {
        let mut b = PageBuilder::new();
        assert!(b.insert(&vec![0u8; PAGE_SIZE]).is_none());
        assert!(b.insert(b"ok").is_some());
    }

    #[test]
    fn empty_tuples_are_allowed() {
        let mut b = PageBuilder::new();
        let s = b.insert(b"").unwrap();
        let buf = b.freeze();
        assert_eq!(PageView::new(&buf).unwrap().get(s).unwrap(), b"");
    }

    #[test]
    fn view_validates_image() {
        assert!(PageView::new(&[0u8; 16]).is_err());
        let mut img = vec![0u8; PAGE_SIZE];
        img[0..2].copy_from_slice(&5000u16.to_le_bytes()); // absurd slot count
        assert!(PageView::new(&img).is_err());
    }

    #[test]
    fn slot_aliasing_the_slot_array_is_corrupt() {
        let mut b = PageBuilder::new();
        b.insert(b"alpha").unwrap();
        b.insert(b"bravo").unwrap();
        let mut img = b.freeze().to_vec();
        // Point slot 1 at the slot array itself, then just below the
        // tuple area: both inside the page, both past the header.
        for off in [HEADER_LEN as u16, PAGE_SIZE as u16 - 11] {
            img[HEADER_LEN + SLOT_LEN..HEADER_LEN + SLOT_LEN + 2]
                .copy_from_slice(&off.to_le_bytes());
            let view = PageView::new(&img).unwrap();
            assert_eq!(view.get(0).unwrap(), b"alpha", "intact slots still read");
            assert!(matches!(view.get(1), Err(Error::Corrupt(_))), "offset {off}");
            let mut walked = Vec::new();
            assert!(matches!(view.tuples_into(&mut walked), Err(Error::Corrupt(_))));
            assert_eq!(walked, [b"alpha"], "the walk stops at the slot `get` rejects");
        }
    }

    #[test]
    fn free_space_decreases_by_tuple_plus_slot() {
        let mut b = PageBuilder::new();
        let before = b.free_space();
        b.insert(&[0u8; 10]).unwrap();
        assert_eq!(b.free_space(), before - 14);
    }
}
