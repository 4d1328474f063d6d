//! The storage facade: buffered, accounted page access.
//!
//! One [`Storage`] instance plays the role of PostgreSQL's buffer manager +
//! storage manager for a database: every heap-page or index-node access from
//! any operator funnels through it, consults the buffer pool, and charges
//! the device model on misses. It is cheaply cloneable (shared interior) so
//! each operator in a plan can hold a handle.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smooth_types::{PageId, Result};

use crate::clock::VirtualClock;
use crate::costs::CpuCosts;
use crate::device::DeviceProfile;
use crate::faults::{FaultConfig, FaultInjector};
use crate::heap::HeapFile;
use crate::page::PageBuf;
use crate::pool::BufferPool;
use crate::session::{assert_unlocked, Session};
use crate::stats::IoSnapshot;
use crate::tracker::DiskTracker;

/// Identifier of one on-"disk" file (heap or index) within the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

static NEXT_FILE_ID: AtomicU32 = AtomicU32::new(1);

impl FileId {
    /// A process-unique file id.
    pub fn fresh() -> FileId {
        FileId(NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Tunables for one storage instance.
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Device timing model.
    pub device: DeviceProfile,
    /// CPU cost constants charged by operators.
    pub cpu: CpuCosts,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig { device: DeviceProfile::hdd(), cpu: CpuCosts::default(), pool_pages: 256 }
    }
}

struct Inner {
    clock: VirtualClock,
    cpu: CpuCosts,
    tracker: Mutex<DiskTracker>,
    pool: Mutex<BufferPool>,
    /// Fast-path flag mirroring `faults.is_some()` so the hot read
    /// paths pay one relaxed load when injection is off.
    faulty: AtomicBool,
    faults: Mutex<Option<Arc<FaultInjector>>>,
}

/// Shared storage-manager handle.
#[derive(Clone)]
pub struct Storage {
    inner: Arc<Inner>,
}

impl Storage {
    /// Build a storage manager from a config.
    pub fn new(cfg: StorageConfig) -> Self {
        let storage = Storage {
            inner: Arc::new(Inner {
                clock: VirtualClock::new(),
                cpu: cfg.cpu,
                tracker: Mutex::new(DiskTracker::new(cfg.device)),
                pool: Mutex::new(BufferPool::new(cfg.pool_pages)),
                faulty: AtomicBool::new(false),
                faults: Mutex::new(None),
            }),
        };
        // `SMOOTH_FAULTS` auto-installs an injector on every storage
        // instance (tests and embedders override via `set_faults`).
        if let Some(env) = FaultConfig::from_env() {
            storage.set_faults(Some(env));
        }
        storage
    }

    /// Storage with default config (HDD, 256-page pool).
    pub fn default_hdd() -> Self {
        Self::new(StorageConfig::default())
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// CPU cost constants.
    pub fn cpu(&self) -> &CpuCosts {
        &self.inner.cpu
    }

    /// The current device profile.
    pub fn device(&self) -> DeviceProfile {
        assert_unlocked("Storage::device");
        self.inner.tracker.lock().device()
    }

    /// Swap the device profile (between experiments).
    pub fn set_device(&self, device: DeviceProfile) {
        assert_unlocked("Storage::set_device");
        self.inner.tracker.lock().set_device(device);
    }

    /// Install (or clear, with `None`) a [`FaultInjector`] on this
    /// storage instance. Inactive configs (all probabilities zero)
    /// clear instead of installing, keeping the hot-path flag honest.
    pub fn set_faults(&self, cfg: Option<FaultConfig>) {
        let injector = cfg.filter(FaultConfig::is_active).map(|c| Arc::new(FaultInjector::new(c)));
        self.inner.faulty.store(injector.is_some(), Ordering::Relaxed);
        *self.inner.faults.lock() = injector;
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<Arc<FaultInjector>> {
        if !self.inner.faulty.load(Ordering::Relaxed) {
            return None;
        }
        self.inner.faults.lock().clone()
    }

    /// Fault-gate one heap-page device read (pool misses only): a
    /// no-op without an injector, otherwise the injector's retry /
    /// backoff / fail verdict (see [`FaultInjector::page_read`]).
    #[inline]
    pub(crate) fn page_fault_check(&self, file: FileId, page: u32) -> Result<()> {
        match self.faults() {
            None => Ok(()),
            Some(inj) => inj.page_read(&self.inner.clock, file, page),
        }
    }

    /// Fault-gate one spill write of `bytes`/`rows` (the executor's
    /// overflow files route through this before charging the write).
    pub fn spill_fault_check(&self, bytes: u64, rows: u64) -> Result<()> {
        match self.faults() {
            None => Ok(()),
            Some(inj) => inj.spill_write(&self.inner.clock, bytes, rows),
        }
    }

    /// Whether the worker morsel `(file, key)` should panic under the
    /// installed injector (always `false` without one).
    pub fn morsel_panics(&self, file: Option<FileId>, key: u64) -> bool {
        self.faults().is_some_and(|inj| inj.morsel_panics(file, key))
    }

    /// A [`Session`]: page accesses under one lazily taken lock, charges
    /// flushed when it drops.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// The pool and tracker mutexes, in the order a session takes them.
    pub(crate) fn locks(&self) -> (&Mutex<BufferPool>, &Mutex<DiskTracker>) {
        (&self.inner.pool, &self.inner.tracker)
    }

    /// [`Session::read_heap_page`] as a one-access session.
    pub fn read_heap_page(&self, heap: &HeapFile, page: PageId) -> Result<PageBuf> {
        self.session().read_heap_page(heap, page)
    }

    /// [`Session::read_heap_run`] as a one-access session.
    pub fn read_heap_run(
        &self,
        heap: &HeapFile,
        start: PageId,
        len: u32,
    ) -> Result<Vec<(PageId, PageBuf)>> {
        self.session().read_heap_run(heap, start, len)
    }

    /// [`Session::touch_index_page`] as a one-access session.
    pub fn touch_index_page(&self, file: FileId, node: u32) -> bool {
        self.session().touch_index_page(file, node)
    }

    /// Flush the buffer pool (the paper's cold-run methodology: "we clear
    /// database buffer caches as well as OS file system caches before each
    /// query execution", Section VI-A).
    pub fn flush_pool(&self) {
        assert_unlocked("Storage::flush_pool");
        self.inner.pool.lock().clear();
    }

    /// Zero the clock and all I/O counters (between experiments).
    pub fn reset_metrics(&self) {
        assert_unlocked("Storage::reset_metrics");
        self.inner.clock.reset();
        self.inner.tracker.lock().reset();
    }

    /// Current I/O counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        assert_unlocked("Storage::io_snapshot");
        self.inner.tracker.lock().snapshot()
    }

    /// Distinct pages transferred for `file` since the last reset.
    pub fn distinct_pages_for(&self, file: FileId) -> u64 {
        assert_unlocked("Storage::distinct_pages_for");
        self.inner.tracker.lock().distinct_pages_for(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_types::{Column, DataType, Row, Schema, Value};

    fn small_heap(rows: i64) -> HeapFile {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = crate::heap::HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            l.push(&Row::new(vec![Value::Int(i), Value::str("x".repeat(100))])).unwrap();
        }
        l.finish().unwrap()
    }

    fn storage(pool_pages: usize) -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages,
        })
    }

    #[test]
    fn cold_read_charges_miss_then_hit_is_free() {
        let heap = small_heap(500);
        let s = storage(64);
        s.read_heap_page(&heap, PageId(3)).unwrap();
        let after_first = s.io_snapshot();
        assert_eq!(after_first.pages_read, 1);
        s.read_heap_page(&heap, PageId(3)).unwrap();
        let after_second = s.io_snapshot();
        assert_eq!(after_second.pages_read, 1);
        assert_eq!(after_second.buffer_hits, 1);
    }

    #[test]
    fn run_read_coalesces_around_cached_pages() {
        let heap = small_heap(2000);
        let s = storage(64);
        // Warm page 5 only.
        s.read_heap_page(&heap, PageId(5)).unwrap();
        s.reset_metrics();
        // Run [3, 9): pages 3,4 and 6,7,8 are missing → two requests.
        let pages = s.read_heap_run(&heap, PageId(3), 6).unwrap();
        assert_eq!(pages.len(), 6);
        assert!(pages.windows(2).all(|w| w[0].0 < w[1].0));
        let io = s.io_snapshot();
        assert_eq!(io.io_requests, 2);
        assert_eq!(io.pages_read, 5);
        assert_eq!(io.buffer_hits, 1);
    }

    #[test]
    fn read_bytes_counts_pages_once_per_coalesced_run() {
        // Regression guard for `ScanStatistics.read_bytes`: a coalesced
        // multi-page run must charge each page's bytes exactly once —
        // neither once per *request* (undercounting the run) nor again
        // on pool hits (double-counting warm pages).
        use crate::scanstats::tap_mark;
        use smooth_types::PAGE_SIZE;
        let heap = small_heap(2000);
        let s = storage(64);
        // Cold 5-page run: one seek, five transfers, 5×PAGE_SIZE bytes.
        let mark = tap_mark();
        s.read_heap_run(&heap, PageId(0), 5).unwrap();
        let cold = mark.delta();
        assert_eq!(cold.pages_read, 5);
        assert_eq!(cold.io_requests, 1, "contiguous misses coalesce into one request");
        assert_eq!(cold.read_bytes, 5 * PAGE_SIZE as u64);
        // Warm rerun: all hits, zero device traffic, zero bytes.
        let mark = tap_mark();
        s.read_heap_run(&heap, PageId(0), 5).unwrap();
        let warm = mark.delta();
        assert_eq!((warm.pages_read, warm.io_requests, warm.read_bytes), (0, 0, 0));
        assert_eq!(warm.buffer_hits, 5);
        // Partial warm: pages 0..5 resident, 5..8 missing. The split
        // run still counts each *missed* page's bytes exactly once.
        let mark = tap_mark();
        s.read_heap_run(&heap, PageId(0), 8).unwrap();
        let mixed = mark.delta();
        assert_eq!(mixed.pages_read, 3);
        assert_eq!(mixed.io_requests, 1);
        assert_eq!(mixed.buffer_hits, 5);
        assert_eq!(mixed.read_bytes, 3 * PAGE_SIZE as u64);
        assert_eq!(mixed.mb_read(), 3.0 * PAGE_SIZE as f64 / (1024.0 * 1024.0));
    }

    #[test]
    fn flush_makes_next_read_cold() {
        let heap = small_heap(500);
        let s = storage(64);
        s.read_heap_page(&heap, PageId(0)).unwrap();
        s.flush_pool();
        s.read_heap_page(&heap, PageId(0)).unwrap();
        assert_eq!(s.io_snapshot().pages_read, 2);
    }

    #[test]
    fn index_touch_tracks_residency() {
        let s = storage(64);
        let f = FileId::fresh();
        assert!(!s.touch_index_page(f, 0)); // cold
        assert!(s.touch_index_page(f, 0)); // now cached
        let io = s.io_snapshot();
        assert_eq!(io.pages_read, 1);
        assert_eq!(io.buffer_hits, 1);
    }

    #[test]
    fn tiny_pool_causes_rereads() {
        let heap = small_heap(2000);
        let s = storage(2);
        let n = heap.page_count();
        for p in 0..n {
            s.read_heap_page(&heap, PageId(p)).unwrap();
        }
        // Second sweep: everything was evicted.
        for p in 0..n {
            s.read_heap_page(&heap, PageId(p)).unwrap();
        }
        assert_eq!(s.io_snapshot().pages_read as u32, 2 * n);
        assert_eq!(s.io_snapshot().distinct_pages as u32, n);
    }

    #[test]
    fn faults_fire_on_misses_only_and_clear() {
        use crate::faults::FaultConfig;
        let heap = small_heap(500);
        let s = storage(64);
        // Warm a page fault-free, then poison every device read.
        s.read_heap_page(&heap, PageId(0)).unwrap();
        s.set_faults(Some(FaultConfig::new(1).corrupt(1.0)));
        // Pool hit: no device read, no fault.
        s.read_heap_page(&heap, PageId(0)).unwrap();
        // Miss: injected corruption, and no disk-arm perturbation.
        let io0 = s.io_snapshot();
        assert!(s.read_heap_page(&heap, PageId(1)).is_err());
        assert!(s.read_heap_run(&heap, PageId(1), 3).is_err());
        let io = s.io_snapshot().since(&io0);
        assert_eq!(io.pages_read, 0);
        assert_eq!(io.io_requests, 0);
        s.set_faults(None);
        s.read_heap_page(&heap, PageId(1)).unwrap();
    }

    #[test]
    fn inactive_fault_config_never_installs() {
        let s = storage(8);
        s.set_faults(Some(crate::faults::FaultConfig::new(9)));
        assert!(s.faults().is_none());
        assert!(!s.morsel_panics(None, 0));
        assert!(s.spill_fault_check(1 << 20, 100).is_ok());
    }

    #[test]
    fn a_session_charges_what_one_call_sessions_charge_and_flushes_on_drop() {
        use crate::scanstats::tap_mark;
        let heap = small_heap(2000);
        let f = FileId::fresh();
        // Index touches, page reads and runs over a 4-page pool, so hits,
        // evictions and seq / rand verdicts all depend on the order.
        let pages = [0, 1, 1, 7, 2, 3];
        let (per_call, mark) = (storage(4), tap_mark());
        for p in pages {
            per_call.touch_index_page(f, p);
            per_call.read_heap_page(&heap, PageId(p)).unwrap();
            per_call.read_heap_run(&heap, PageId(p), 3).unwrap();
            per_call.clock().charge_cpu(5);
        }
        let per_call_tap = mark.delta();
        let (batched, mark) = (storage(4), tap_mark());
        let mut session = batched.session();
        for p in pages {
            session.touch_index_page(f, p);
            session.read_heap_page(&heap, PageId(p)).unwrap();
            session.release();
            session.read_heap_run(&heap, PageId(p), 3).unwrap();
            session.charge_cpu(5);
        }
        assert_eq!(batched.clock().snapshot().cpu_ns, 0, "CPU waits for the drop");
        assert_eq!(mark.delta().buffer_hits, 0, "so does the tap");
        drop(session);
        assert_eq!(batched.clock().snapshot(), per_call.clock().snapshot());
        assert_eq!(batched.io_snapshot(), per_call.io_snapshot());
        assert_eq!(mark.delta(), per_call_tap);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Storage::device while this thread's storage session holds")]
    fn a_reentrant_storage_lock_panics_instead_of_hanging() {
        let s = storage(4);
        let mut session = s.session();
        session.touch_index_page(FileId::fresh(), 0);
        s.device();
    }

    #[test]
    fn clock_separates_cpu_and_io() {
        let heap = small_heap(500);
        let s = storage(64);
        s.read_heap_page(&heap, PageId(0)).unwrap();
        let snap = s.clock().snapshot();
        assert!(snap.io_ns > 0);
        assert!(snap.cpu_ns > 0);
        assert_eq!(snap.io_ns, 10); // one random page on the test device
    }
}
