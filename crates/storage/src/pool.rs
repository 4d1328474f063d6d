//! Buffer pool with clock (second-chance) eviction.
//!
//! Caches both heap pages (with their images) and *virtual* pages — B+-tree
//! nodes whose bytes live in the index structure itself but whose presence
//! in the pool decides whether touching them costs an I/O. This mirrors the
//! paper's observation that internal index nodes are usually cached ("these
//! pages are usually 1‰ to 1% of data pages", Section IV-A) while leaf and
//! heap pages contend for buffer space.
//!
//! The pool is deliberately small relative to table size in the experiments
//! (cold-run methodology: caches are flushed before each query).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::page::PageBuf;
use crate::storage::FileId;

/// What the pool holds for a cached page.
#[derive(Debug, Clone)]
pub enum Cached {
    /// A heap page image.
    Heap(PageBuf),
    /// A B+-tree node; bytes live in the index, only residency is tracked.
    Virtual,
}

#[derive(Debug)]
struct Frame {
    key: (FileId, u32),
    value: Cached,
    referenced: bool,
}

/// A fixed-capacity page cache with clock eviction.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<(FileId, u32), usize, BuildHasherDefault<PageKeyHasher>>,
    hand: usize,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity.min(4096)),
            map: HashMap::with_capacity_and_hasher(capacity.min(4096), Default::default()),
            hand: 0,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a page, marking it recently used on hit.
    pub fn get(&mut self, file: FileId, page: u32) -> Option<Cached> {
        let idx = *self.map.get(&(file, page))?;
        self.frames[idx].referenced = true;
        Some(self.frames[idx].value.clone())
    }

    /// Residency check without touching recency state.
    pub fn contains(&self, file: FileId, page: u32) -> bool {
        self.map.contains_key(&(file, page))
    }

    /// Insert (or refresh) a page, evicting via the clock hand if full.
    pub fn insert(&mut self, file: FileId, page: u32, value: Cached) {
        let key = (file, page);
        if let Some(&idx) = self.map.get(&key) {
            self.frames[idx].value = value;
            self.frames[idx].referenced = true;
            return;
        }
        if self.frames.len() < self.capacity {
            let idx = self.frames.len();
            self.frames.push(Frame { key, value, referenced: true });
            self.map.insert(key, idx);
            return;
        }
        // Clock sweep: clear reference bits until an unreferenced victim.
        loop {
            let f = &mut self.frames[self.hand];
            if f.referenced {
                f.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                let old = std::mem::replace(f, Frame { key, value, referenced: true });
                self.map.remove(&old.key);
                self.map.insert(key, self.hand);
                self.hand = (self.hand + 1) % self.frames.len();
                return;
            }
        }
    }

    /// Drop everything (cold-run flush).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.hand = 0;
    }
}

/// The hasher of maps whose keys hold numbers the engine assigns itself —
/// the pool's `(file, page)`, the Result Cache's `(key, TID)` — and are
/// looked up once per page access or cached tuple: SipHash's resistance to
/// crafted collisions buys little for such keys. One multiply-rotate per
/// `u32` word (the scheme of rustc's `FxHasher`) mixes them well enough.
/// Neither map is iterated, so no order depends on it.
#[derive(Default)]
pub struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }

    fn write_u16(&mut self, word: u16) {
        self.write_u32(word.into());
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u64(&mut self, word: u64) {
        self.write_u32(word as u32);
        self.write_u32((word >> 32) as u32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FileId {
        FileId(n)
    }

    fn heap_page() -> Cached {
        let b = crate::page::PageBuilder::new();
        Cached::Heap(b.freeze())
    }

    #[test]
    fn hit_and_miss() {
        let mut p = BufferPool::new(4);
        assert!(p.get(fid(1), 0).is_none());
        p.insert(fid(1), 0, heap_page());
        assert!(matches!(p.get(fid(1), 0), Some(Cached::Heap(_))));
        p.insert(fid(2), 0, Cached::Virtual);
        assert!(matches!(p.get(fid(2), 0), Some(Cached::Virtual)));
        assert!(p.get(fid(1), 99).is_none());
    }

    #[test]
    fn evicts_when_full_and_respects_capacity() {
        let mut p = BufferPool::new(3);
        for i in 0..10 {
            p.insert(fid(1), i, Cached::Virtual);
        }
        assert_eq!(p.len(), 3);
        // The most recent insert must be resident.
        assert!(p.contains(fid(1), 9));
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let mut p = BufferPool::new(2);
        p.insert(fid(1), 0, Cached::Virtual);
        p.insert(fid(1), 1, Cached::Virtual);
        // Touch page 0 so it is referenced; inserting a third page should
        // evict page 1 (both start referenced; the sweep clears bits, and
        // the second pass picks the first unreferenced frame).
        p.get(fid(1), 0);
        p.insert(fid(1), 2, Cached::Virtual);
        assert_eq!(p.len(), 2);
        assert!(p.contains(fid(1), 2));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut p = BufferPool::new(2);
        p.insert(fid(1), 0, Cached::Virtual);
        p.insert(fid(1), 0, heap_page());
        assert_eq!(p.len(), 1);
        assert!(matches!(p.get(fid(1), 0), Some(Cached::Heap(_))));
    }

    #[test]
    fn clear_empties_pool() {
        let mut p = BufferPool::new(2);
        p.insert(fid(1), 0, Cached::Virtual);
        p.clear();
        assert!(p.is_empty());
        assert!(p.get(fid(1), 0).is_none());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut p = BufferPool::new(0);
        assert_eq!(p.capacity(), 1);
        p.insert(fid(1), 0, Cached::Virtual);
        p.insert(fid(1), 1, Cached::Virtual);
        assert_eq!(p.len(), 1);
    }
}
