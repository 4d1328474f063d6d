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
//! * under memory pressure, partitions whose key ranges are furthest from
//!   the cursor spill to overflow files and are charged sequential I/O to
//!   write and later re-read.
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
use smooth_types::Tid;

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
    /// Spilled to an overflow file: contents kept (simulated file), but
    /// access requires a charged re-read.
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
    /// Spill when resident tuples exceed this (None = unlimited).
    spill_threshold: Option<usize>,
    /// Approximate bytes per row for spill I/O accounting.
    row_bytes: usize,
    /// The scan's device, captured at construction: spills are priced
    /// from it without asking the storage (whose lock a session may hold).
    device: DeviceProfile,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// Build from index-root separator keys, using up to `partitions`
    /// ranges. `row_bytes` sizes spill I/O on `device`.
    pub fn new(
        separators: &[i64],
        partitions: usize,
        row_bytes: usize,
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
            spill_threshold: None,
            row_bytes: row_bytes.max(1),
            device,
            stats: ResultCacheStats::default(),
        }
    }

    /// Enable spilling beyond `max_resident_tuples`.
    pub fn with_spill_threshold(mut self, max_resident_tuples: usize) -> Self {
        self.spill_threshold = Some(max_resident_tuples.max(1));
        self
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
    /// the caller has validated, are copied into the cache.
    pub fn insert(&mut self, s: &mut Session, key: i64, tid: Tid, tuple: &[u8]) {
        s.charge_cpu(s.cpu().hash_op_ns);
        let p = self.partition_of(key);
        debug_assert!(p >= self.current, "insert behind the cursor");
        if self.parts[p].spilled {
            // Appending to a spilled partition keeps it on "disk".
            s.storage().clock().charge_io(self.spill_io_ns(1));
            self.stats.spilled += 1;
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
        self.maybe_spill(s);
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
            }
            self.current += 1;
        }
    }

    /// Drop everything (operator close).
    pub fn clear(&mut self) {
        self.pending_advance = None;
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

    /// Cost of writing or reading `tuples` rows of an overflow file: one
    /// seek plus sequential page transfers on the scan's device.
    ///
    /// Shared invariant: this routes through the engine-wide overflow-file
    /// formula ([`smooth_executor::spill_io_ns`]) so the Result Cache, the
    /// grace hash join and the external sort all price spill bytes
    /// identically — one charged sequential run on the scan's device,
    /// never the disk-arm counters (see `docs/larger_than_memory.md`).
    /// `row_bytes` is clamped to ≥ 1 at construction, so `tuples > 0`
    /// always yields a non-zero transfer.
    fn spill_io_ns(&self, tuples: u64) -> u64 {
        smooth_executor::spill_io_ns(&self.device, tuples * self.row_bytes as u64)
    }

    fn maybe_spill(&mut self, s: &Session) {
        let Some(limit) = self.spill_threshold else { return };
        // Sweep any deferred cursor advance *before* the spill decision:
        // the columnar protocol defers the eviction sweep to morsel
        // boundaries, so without this `resident` could cross the
        // threshold mid-batch and charge spill I/O the row-at-a-time
        // protocol never pays. Evicting first makes the resident count at
        // every spill decision identical no matter how the protocol
        // batches its sweeps — the volcano and columnar drivers charge
        // byte-identical spill I/O. (Without a spill threshold the
        // sweep stays at the protocol boundary, unchanged.)
        self.flush_advance();
        while self.stats.resident as usize > limit {
            // Spill the resident partition furthest from the cursor
            // ("caches containing the ranges the furthest from the current
            // key range are spilled into the overflow files").
            let victim = (self.current..self.parts.len())
                .rev()
                .find(|&i| !self.parts[i].spilled && !self.parts[i].slots.is_empty());
            let Some(v) = victim else { return };
            let n = self.parts[v].slots.len() as u64;
            if v == self.current && self.parts.len() == 1 {
                return; // never spill the only active partition
            }
            self.parts[v].spilled = true;
            self.stats.spilled += n;
            self.stats.resident -= n;
            s.storage().clock().charge_io(self.spill_io_ns(n));
        }
    }

    fn unspill(&mut self, s: &Session, p: usize) {
        let part = &mut self.parts[p];
        let n = part.slots.len() as u64;
        part.spilled = false;
        self.stats.unspilled += n;
        self.stats.resident += n;
        self.stats.max_resident = self.stats.max_resident.max(self.stats.resident);
        s.storage().clock().charge_io(self.spill_io_ns(n));
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
        ResultCache::new(separators, partitions, 64, DeviceProfile::hdd())
    }

    /// A stand-in encoded tuple (the cache never looks inside one).
    fn row(v: i64) -> [u8; 8] {
        v.to_le_bytes()
    }

    #[test]
    fn insert_probe_roundtrip() {
        let s = storage();
        let mut c = cache(&[100, 200, 300], 4);
        c.insert(&mut s.session(), 150, Tid::new(1, 1), &row(150));
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
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5));
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15));
        c.insert(&mut s.session(), 25, Tid::new(0, 2), &row(25));
        c.insert(&mut s.session(), 35, Tid::new(0, 3), &row(35));
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
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5));
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15));
        c.insert(&mut s.session(), 25, Tid::new(0, 2), &row(25));
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
        c.insert(&mut s.session(), 10, Tid::new(0, 0), &row(10));
        c.advance_to(10); // partition [10, ∞) must survive
        assert_eq!(c.probe(&mut s.session(), 10, Tid::new(0, 0)), Some(&row(10)[..]));
        assert_eq!(c.stats().evicted, 0);
    }

    #[test]
    fn spilling_under_pressure_and_transparent_unspill() {
        let s = storage();
        let mut c = cache(&[100, 200, 300], 4).with_spill_threshold(2);
        // Fill three partitions; threshold 2 forces the furthest to spill.
        c.insert(&mut s.session(), 50, Tid::new(0, 0), &row(50));
        c.insert(&mut s.session(), 150, Tid::new(0, 1), &row(150));
        let io_before = s.clock().snapshot().io_ns;
        c.insert(&mut s.session(), 350, Tid::new(0, 2), &row(350)); // exceeds threshold
        let st = c.stats();
        assert!(st.spilled >= 1, "furthest partition spilled: {st:?}");
        assert!(s.clock().snapshot().io_ns > io_before, "spill charged I/O");
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
        // count at every spill decision protocol-independent.
        let bounds = [10i64, 20, 30];
        let limit = 2;
        // Per-key sweeps: the cursor advance evicts [_,10) before the
        // third insert, so resident never crosses the limit — no spill.
        let s_eager = storage();
        let mut eager = cache(&bounds, 4).with_spill_threshold(limit);
        eager.insert(&mut s_eager.session(), 5, Tid::new(0, 0), &row(5));
        eager.defer_advance(6);
        eager.flush_advance();
        eager.insert(&mut s_eager.session(), 15, Tid::new(0, 1), &row(15));
        eager.defer_advance(12);
        eager.flush_advance(); // volcano sweeps here, before the next insert
        eager.insert(&mut s_eager.session(), 25, Tid::new(0, 2), &row(25));
        eager.flush_advance();
        // Deferred sweeps: identical sequence, but the sweep for key 12
        // waits for the batch boundary after the third insert.
        let s_deferred = storage();
        let mut deferred = cache(&bounds, 4).with_spill_threshold(limit);
        deferred.insert(&mut s_deferred.session(), 5, Tid::new(0, 0), &row(5));
        deferred.defer_advance(6);
        deferred.insert(&mut s_deferred.session(), 15, Tid::new(0, 1), &row(15));
        deferred.defer_advance(12);
        deferred.insert(&mut s_deferred.session(), 25, Tid::new(0, 2), &row(25));
        deferred.flush_advance();
        assert_eq!(
            s_deferred.clock().snapshot(),
            s_eager.clock().snapshot(),
            "deferred sweep must not charge spill I/O the eager sweep never pays: {:?} vs {:?}",
            deferred.stats(),
            eager.stats()
        );
        assert_eq!(deferred.stats().spilled, eager.stats().spilled);
        assert_eq!(eager.stats().spilled, 0, "eviction keeps residency under the threshold");
    }

    #[test]
    fn clear_releases_everything() {
        let s = storage();
        let mut c = cache(&[10], 2);
        c.insert(&mut s.session(), 5, Tid::new(0, 0), &row(5));
        c.insert(&mut s.session(), 15, Tid::new(0, 1), &row(15));
        c.clear();
        assert_eq!(c.stats().resident, 0);
        assert_eq!(c.probe(&mut s.session(), 5, Tid::new(0, 0)), None);
    }

    #[test]
    fn max_resident_high_water_mark() {
        let s = storage();
        let mut c = cache(&[10], 2);
        c.insert(&mut s.session(), 1, Tid::new(0, 0), &row(1));
        c.insert(&mut s.session(), 2, Tid::new(0, 1), &row(2));
        c.advance_to(10);
        c.insert(&mut s.session(), 11, Tid::new(0, 2), &row(11));
        assert_eq!(c.stats().max_resident, 2);
    }
}
