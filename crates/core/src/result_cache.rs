//! The Result Cache: qualifying tuples found ahead of the cursor
//! (Section IV-A).
//!
//! When Smooth Scan must respect an interesting order, tuples discovered on
//! speculatively fetched pages cannot be emitted immediately; they wait in
//! the Result Cache until the index cursor reaches their `(key, tid)`.
//! Following the paper:
//!
//! * the cache is **partitioned by key range**, with boundaries taken from
//!   the index root page ("the root page is a good indicator of the key
//!   value distributions");
//! * emission probes by exact `(key, tid)`;
//! * deletion is **bulk**: once the cursor passes a partition's upper
//!   boundary, the whole partition is dropped at once — and the cursor
//!   bookkeeping itself is *batch-aware*: Ordered Smooth Scan records the
//!   cursor position per probe ([`ResultCache::defer_advance`]) but the
//!   eviction sweep runs once per emitted batch
//!   ([`ResultCache::flush_advance`]), not once per cursor key;
//! * under memory pressure — resident arena bytes over the scan's budget
//!   (`SmoothScan::with_mem_budget`, the planner's `mem_bytes`) —
//!   partitions whose key ranges are furthest from the cursor spill to
//!   overflow files. A spill is its charge, as for the grace join and the
//!   external sort: the arena stays where it is, and the clock pays one
//!   fault-gated write of its bytes ([`smooth_executor::charge_spill_write`]),
//!   one write per tuple appended to a spilled partition, and one re-read
//!   when a probe brings the partition back.
//!
//! What waits is the tuple's **validated encoded bytes**, copied out of
//! the page into the partition's own byte arena — not a `Row`, and not a
//! view of the page. The scan has already walked the tuple's structure
//! and checked its text when it selected it, so a hit decodes straight
//! into the output columns through the scan's compiled
//! `smooth_types::TupleLayout`; an insert is one `memcpy` and one map
//! entry; bulk eviction frees a partition's arena at once. Because the
//! cache owns its bytes, no buffer-pool frame stays pinned on behalf of a
//! tuple that may wait for most of the scan.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

use smooth_storage::{DeviceProfile, PageKeyHasher, Session};
use smooth_types::{Result, Tid};

/// Counters reported by Fig. 9a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Tuples inserted over the operator's lifetime.
    pub inserts: u64,
    /// Probe calls.
    pub requests: u64,
    /// Probes answered from the cache.
    pub hits: u64,
    /// Tuples dropped by bulk partition eviction.
    pub evicted: u64,
    /// High-water mark of resident tuples.
    pub max_resident: u64,
    /// Tuples currently resident.
    pub resident: u64,
    /// Tuples written to overflow files under memory pressure.
    pub spilled: u64,
    /// Tuples read back from overflow files.
    pub unspilled: u64,
}

#[derive(Debug, Default)]
struct Partition {
    /// `(key, tid)` → where the tuple's bytes sit in `bytes` (never
    /// iterated, so the fixed hasher orders nothing).
    slots: HashMap<(i64, Tid), Range<usize>, BuildHasherDefault<PageKeyHasher>>,
    /// The cached tuples' encoded bytes, back to back.
    bytes: Vec<u8>,
    /// Spilled to an overflow file: the arena stays, but access requires
    /// a charged re-read.
    spilled: bool,
}

/// Key-range-partitioned cache of tuples found ahead of the cursor.
pub struct ResultCache {
    /// `bounds[i]` is the *exclusive* upper key of partition `i`;
    /// the last partition is unbounded.
    bounds: Vec<i64>,
    parts: Vec<Partition>,
    /// Lowest partition not yet evicted (cursor position).
    current: usize,
    /// Highest cursor key recorded since the last eviction sweep.
    pending_advance: Option<i64>,
    /// Spill when resident arena bytes exceed this (0 = unbudgeted).
    budget: usize,
    /// Arena bytes of the partitions not spilled.
    resident_bytes: usize,
    /// The scan's device, captured at construction: spills are priced
    /// from it without asking the storage (whose lock a session may hold).
    device: DeviceProfile,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// Build from index-root separator keys, using up to `partitions`
    /// ranges, spilling beyond `budget_bytes` of resident arena (0 =
    /// never) with spill I/O priced on `device`.
    pub fn new(
        separators: &[i64],
        partitions: usize,
        budget_bytes: usize,
        device: DeviceProfile,
    ) -> Self {
        let partitions = partitions.max(1);
        let mut bounds: Vec<i64> = Vec::new();
        if partitions > 1 && !separators.is_empty() {
            // Sample `partitions - 1` boundaries evenly from the separators.
            let want = (partitions - 1).min(separators.len());
            for i in 1..=want {
                let idx = i * separators.len() / (want + 1);
                bounds.push(separators[idx.min(separators.len() - 1)]);
            }
            bounds.dedup();
        }
        let nparts = bounds.len() + 1;
        ResultCache {
            bounds,
            parts: (0..nparts).map(|_| Partition::default()).collect(),
            current: 0,
            pending_advance: None,
            budget: budget_bytes,
            resident_bytes: 0,
            device,
            stats: ResultCacheStats::default(),
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    fn partition_of(&self, key: i64) -> usize {
        // First partition whose exclusive upper bound exceeds the key.
        self.bounds.partition_point(|&b| b <= key)
    }

    /// Insert a tuple found ahead of the cursor: its encoded bytes, which
    /// the caller has validated, are copied into the cache. Fails only if
    /// a charged spill write fails (injected `spill_err` faults).
    pub fn insert(&mut self, s: &mut Session, key: i64, tid: Tid, tuple: &[u8]) -> Result<()> {
        s.charge_cpu(s.cpu().hash_op_ns);
        let p = self.partition_of(key);
        debug_assert!(p >= self.current, "insert behind the cursor");
        if self.parts[p].spilled {
            // Appending to a spilled partition writes the tuple to its file.
            self.charge_write(s, tuple.len(), 1)?;
            self.stats.spilled += 1;
        } else {
            self.resident_bytes += tuple.len();
        }
        let part = &mut self.parts[p];
        let at = part.bytes.len()..part.bytes.len() + tuple.len();
        part.bytes.extend_from_slice(tuple);
        if part.slots.insert((key, tid), at).is_none() {
            self.stats.inserts += 1;
            if !part.spilled {
                self.stats.resident += 1;
                self.stats.max_resident = self.stats.max_resident.max(self.stats.resident);
            }
        }
        self.maybe_spill(s)
    }

    /// Probe for the tuple the cursor just reached; a hit borrows its
    /// encoded bytes.
    pub fn probe(&mut self, s: &mut Session, key: i64, tid: Tid) -> Option<&[u8]> {
        s.charge_cpu(s.cpu().hash_op_ns);
        self.stats.requests += 1;
        let p = self.partition_of(key);
        if self.parts[p].spilled {
            self.unspill(s, p);
        }
        let part = &self.parts[p];
        let tuple = part.slots.get(&(key, tid)).map(|at| &part.bytes[at.clone()]);
        self.stats.hits += u64::from(tuple.is_some());
        tuple
    }

    /// Record the cursor position without sweeping. Probes and inserts
    /// are unaffected by a deferred advance (a key never evicts its own
    /// partition), so the sweep can wait for the next batch boundary.
    pub fn defer_advance(&mut self, key: i64) {
        self.pending_advance = Some(match self.pending_advance {
            Some(prev) => prev.max(key),
            None => key,
        });
    }

    /// Run the eviction sweep for every cursor position recorded since
    /// the last flush — the batch-boundary amortization of the per-key
    /// partition bookkeeping.
    pub fn flush_advance(&mut self) {
        if let Some(key) = self.pending_advance.take() {
            self.advance_to(key);
        }
    }

    /// Advance the cursor to `key`, bulk-dropping every partition whose key
    /// range lies entirely behind it.
    pub fn advance_to(&mut self, key: i64) {
        while self.current < self.bounds.len() && self.bounds[self.current] <= key {
            let part = std::mem::take(&mut self.parts[self.current]);
            let n = part.slots.len() as u64;
            self.stats.evicted += n;
            if !part.spilled {
                self.stats.resident -= n;
                self.resident_bytes -= part.bytes.len();
            }
            self.current += 1;
        }
    }

    /// Drop everything (operator close).
    pub fn clear(&mut self) {
        self.pending_advance = None;
        self.resident_bytes = 0;
        for part in &mut self.parts {
            let n = part.slots.len() as u64;
            self.stats.evicted += n;
            if !part.spilled {
                self.stats.resident = self.stats.resident.saturating_sub(n);
            }
            *part = Partition::default();
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }

    /// Charge one overflow-file write of `bytes` arena bytes holding
    /// `tuples` tuples: fault-gated, priced on the captured device.
    fn charge_write(&self, s: &Session, bytes: usize, tuples: u64) -> Result<()> {
        smooth_executor::charge_spill_write(s.storage(), &self.device, bytes as u64, tuples)
    }

    fn maybe_spill(&mut self, s: &Session) -> Result<()> {
        if self.budget == 0 {
            return Ok(());
        }
        // Sweep any deferred cursor advance *before* the spill decision:
        // the columnar protocol defers the eviction sweep to morsel
        // boundaries, so without this the resident bytes could cross the
        // budget mid-batch and charge spill I/O the row-at-a-time
        // protocol never pays. Evicting first makes the resident bytes at
        // every spill decision identical no matter how the protocol
        // batches its sweeps — the volcano and columnar drivers charge
        // byte-identical spill I/O. (Unbudgeted, the sweep stays at the
        // protocol boundary, unchanged.)
        self.flush_advance();
        while self.resident_bytes > self.budget {
            // Spill the resident partition furthest from the cursor
            // ("caches containing the ranges the furthest from the current
            // key range are spilled into the overflow files").
            let victim = (self.current..self.parts.len())
                .rev()
                .find(|&i| !self.parts[i].spilled && !self.parts[i].slots.is_empty());
            let Some(v) = victim else { return Ok(()) };
            if v == self.current && self.parts.len() == 1 {
                return Ok(()); // never spill the only active partition
            }
            let (n, bytes) = (self.parts[v].slots.len() as u64, self.parts[v].bytes.len());
            self.charge_write(s, bytes, n)?;
            self.parts[v].spilled = true;
            self.stats.spilled += n;
            self.stats.resident -= n;
            self.resident_bytes -= bytes;
        }
        Ok(())
    }

    fn unspill(&mut self, s: &Session, p: usize) {
        let part = &mut self.parts[p];
        let n = part.slots.len() as u64;
        part.spilled = false;
        self.resident_bytes += part.bytes.len();
        self.stats.unspilled += n;
        self.stats.resident += n;
        self.stats.max_resident = self.stats.max_resident.max(self.stats.resident);
        let ns = smooth_executor::spill_io_ns(&self.device, part.bytes.len() as u64);
        s.storage().clock().charge_io(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use smooth_storage::Storage;

    fn storage() -> Storage {
        Storage::default_hdd()
    }

    fn cache(separators: &[i64], partitions: usize) -> ResultCache {
        budgeted(separators, partitions, 0)
    }

    fn budgeted(separators: &[i64], partitions: usize, budget: usize) -> ResultCache {
        ResultCache::new(separators, partitions, budget, DeviceProfile::hdd())
    }

    /// A stand-in encoded tuple (the cache never looks inside one).
    fn row(v: i64) -> [u8; 8] {
        v.to_le_bytes()
    }

    #[test]
    fn insert_probe_roundtrip() {
        let s = storage();
        let mut c = cache(&[100, 200, 300], 4);
        c.insert(&mut s.session(), 150, Tid::new(1, 1), &row(150)).unwrap();
        assert_eq!(c.probe(&mut s.session(), 150, Tid::new(1, 1)), Some(&row(150)[..]));
        assert_eq!(c.probe(&mut s.session(), 150, Tid::new(1, 2)), None);
        let st = c.stats();
        assert_eq!((st.inserts, st.requests, st.hits), (1, 2, 1));
    }

    #[test]
    fn partitions_follow_separators() {
        let c = cache(&(0..100).collect::<Vec<i64>>(), 8);
        assert_eq!(c.partition_count(), 8);
        let c = cache(&[], 8);
        assert_eq!(c.partition_count(), 1);
        let c = cache(&[5], 1);
        assert_eq!(c.partition_count(), 1);
    }

    #[test]
    fn bulk_eviction_on_advance() {
        let s = storage();
        let mut c = cache(&[10, 20, 30], 4);
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5)).unwrap();
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15)).unwrap();
        c.insert(&mut s.session(), 25, Tid::new(0, 2), &row(25)).unwrap();
        c.insert(&mut s.session(), 35, Tid::new(0, 3), &row(35)).unwrap();
        assert_eq!(c.stats().resident, 4);
        c.advance_to(20); // passes partitions [_,10) and [10,20)
        let st = c.stats();
        assert_eq!(st.evicted, 2);
        assert_eq!(st.resident, 2);
        // Items at/ahead of the cursor survive.
        assert_eq!(c.probe(&mut s.session(), 25, Tid::new(0, 2)), Some(&row(25)[..]));
        assert_eq!(c.probe(&mut s.session(), 35, Tid::new(0, 3)), Some(&row(35)[..]));
    }

    #[test]
    fn deferred_advance_sweeps_once_at_flush() {
        let s = storage();
        let mut c = cache(&[10, 20, 30], 4);
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5)).unwrap();
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15)).unwrap();
        c.insert(&mut s.session(), 25, Tid::new(0, 2), &row(25)).unwrap();
        // Recording cursor keys evicts nothing yet …
        c.defer_advance(12);
        c.defer_advance(22);
        assert_eq!(c.stats().evicted, 0);
        // … and a deferred advance never hides a probe of the current key.
        assert_eq!(c.probe(&mut s.session(), 25, Tid::new(0, 2)), Some(&row(25)[..]));
        // The flush sweeps to the highest recorded key.
        c.flush_advance();
        let st = c.stats();
        assert_eq!(st.evicted, 2);
        assert_eq!(st.resident, 1);
        // A second flush is a no-op.
        c.flush_advance();
        assert_eq!(c.stats().evicted, 2);
    }

    #[test]
    fn boundary_key_does_not_evict_its_own_partition() {
        let s = storage();
        let mut c = cache(&[10], 2);
        c.insert(&mut s.session(), 10, Tid::new(0, 0), &row(10)).unwrap();
        c.advance_to(10); // partition [10, ∞) must survive
        assert_eq!(c.probe(&mut s.session(), 10, Tid::new(0, 0)), Some(&row(10)[..]));
        assert_eq!(c.stats().evicted, 0);
    }

    #[test]
    fn spilling_under_pressure_and_transparent_unspill() {
        let s = storage();
        // Two 8-byte tuples fit the budget; a third forces the furthest
        // partition to spill.
        let mut c = budgeted(&[100, 200, 300], 4, 16);
        c.insert(&mut s.session(), 50, Tid::new(0, 0), &row(50)).unwrap();
        c.insert(&mut s.session(), 150, Tid::new(0, 1), &row(150)).unwrap();
        let io_before = s.clock().snapshot().io_ns;
        c.insert(&mut s.session(), 350, Tid::new(0, 2), &row(350)).unwrap(); // over the budget
        let st = c.stats();
        assert_eq!(st.spilled, 1, "furthest partition spilled: {st:?}");
        // The spill is priced by the arena bytes it moves: one 8-byte tuple.
        let write = smooth_executor::spill_io_ns(&DeviceProfile::hdd(), 8);
        assert_eq!(s.clock().snapshot().io_ns - io_before, write, "spill charged its bytes");
        // Probing the spilled partition brings it back (charged) and hits.
        assert_eq!(c.probe(&mut s.session(), 350, Tid::new(0, 2)), Some(&row(350)[..]));
        assert!(c.stats().unspilled >= 1);
    }

    #[test]
    fn deferred_sweep_never_changes_spill_charges() {
        // PR 3 latent divergence, pinned: the same insert/advance key
        // sequence must charge identical spill I/O whether the eviction
        // sweep runs per cursor key (the row-at-a-time protocol) or is
        // deferred to a batch boundary (the columnar protocol). The
        // sweep-before-spill rule in `maybe_spill` makes the resident
        // bytes at every spill decision protocol-independent.
        let bounds = [10i64, 20, 30];
        let budget = 16; // two 8-byte tuples
                         // Per-key sweeps: the cursor advance evicts [_,10) before the
                         // third insert, so resident bytes never cross the budget — no
                         // spill.
        let s_eager = storage();
        let mut eager = budgeted(&bounds, 4, budget);
        eager.insert(&mut s_eager.session(), 5, Tid::new(0, 0), &row(5)).unwrap();
        eager.defer_advance(6);
        eager.flush_advance();
        eager.insert(&mut s_eager.session(), 15, Tid::new(0, 1), &row(15)).unwrap();
        eager.defer_advance(12);
        eager.flush_advance(); // volcano sweeps here, before the next insert
        eager.insert(&mut s_eager.session(), 25, Tid::new(0, 2), &row(25)).unwrap();
        eager.flush_advance();
        // Deferred sweeps: identical sequence, but the sweep for key 12
        // waits for the batch boundary after the third insert.
        let s_deferred = storage();
        let mut deferred = budgeted(&bounds, 4, budget);
        deferred.insert(&mut s_deferred.session(), 5, Tid::new(0, 0), &row(5)).unwrap();
        deferred.defer_advance(6);
        deferred.insert(&mut s_deferred.session(), 15, Tid::new(0, 1), &row(15)).unwrap();
        deferred.defer_advance(12);
        deferred.insert(&mut s_deferred.session(), 25, Tid::new(0, 2), &row(25)).unwrap();
        deferred.flush_advance();
        assert_eq!(
            s_deferred.clock().snapshot(),
            s_eager.clock().snapshot(),
            "deferred sweep must not charge spill I/O the eager sweep never pays: {:?} vs {:?}",
            deferred.stats(),
            eager.stats()
        );
        assert_eq!(deferred.stats().spilled, eager.stats().spilled);
        assert_eq!(eager.stats().spilled, 0, "eviction keeps residency under the budget");
    }

    #[test]
    fn clear_releases_everything() {
        let s = storage();
        let mut c = cache(&[10], 2);
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5)).unwrap();
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15)).unwrap();
        c.clear();
        assert_eq!(c.stats().resident, 0);
        assert_eq!(c.probe(&mut s.session(), 5, Tid::new(0, 0)), None);
    }

    #[test]
    fn max_resident_high_water_mark() {
        let s = storage();
        let mut c = cache(&[10], 2);
        c.insert(&mut s.session(), 1, Tid::new(0, 0), &row(1)).unwrap();
        c.insert(&mut s.session(), 2, Tid::new(0, 1), &row(2)).unwrap();
        c.advance_to(10);
        c.insert(&mut s.session(), 11, Tid::new(0, 2), &row(11)).unwrap();
        assert_eq!(c.stats().max_resident, 2);
    }
}
