//! Storage sessions: one operator call's page accesses under one lock and
//! one clock charge.
//!
//! Every page access funnels through the buffer pool and the disk tracker,
//! two mutexes, and charges the shared atomic [`VirtualClock`]
//! (`crate::clock`). An index-nested-loop probe touches two B+-tree nodes
//! and fetches one heap page per outer key; paid per access, that is six
//! lock acquisitions and half a dozen atomic adds for a few hundred
//! nanoseconds of modeled work. A [`Session`] pays them once per morsel:
//!
//! * it takes the pool and tracker locks **lazily**, on its first page
//!   access, and holds them until [`Session::release`] or drop;
//! * it adds CPU charges, and the thread-local scan-statistics tap counts
//!   (`crate::scanstats`), into plain local fields and flushes them to the
//!   clock and the tap when it drops.
//!
//! Every charge is a commutative sum and every page access still happens
//! in call order, so pool residency, the disk arm's sequential / random
//! verdicts and every total are exactly what per-access locking gives.
//! Two rules keep it that way. *Flush before return*: an operator drops
//! the session it opened before its call returns, so anything that reads
//! the clock, the tracker or the tap at a morsel boundary sees every
//! charge. *No lock across other work*: a session is released before
//! tuple inspection or decode and before any call that locks storage
//! itself ([`Storage::device`], [`Storage::io_snapshot`],
//! [`Storage::flush_pool`], a second session). The locks are not
//! re-entrant; in debug builds breaking the second rule panics, naming
//! the call, instead of hanging.
//!
//! [`VirtualClock`]: crate::clock::VirtualClock

use std::cell::Cell;
use std::marker::PhantomData;

use parking_lot::MutexGuard;
use smooth_types::{PageId, Result};

use crate::costs::CpuCosts;
use crate::heap::HeapFile;
use crate::page::PageBuf;
use crate::pool::{BufferPool, Cached};
use crate::scanstats::tap_storage;
use crate::storage::{FileId, Storage};
use crate::tracker::DiskTracker;

thread_local! {
    /// Whether this thread holds a storage's pool and tracker locks
    /// through a [`Session`] (maintained in debug builds only).
    static HOLDS_LOCK: Cell<bool> = const { Cell::new(false) };
}

/// Debug builds: panic if this thread already holds the storage lock,
/// naming `caller`, rather than deadlock on the non-re-entrant mutex.
#[inline]
pub(crate) fn assert_unlocked(caller: &str) {
    debug_assert!(
        !HOLDS_LOCK.get(),
        "{caller} while this thread's storage session holds the pool and tracker lock \
         (the lock is not re-entrant: release the session first)"
    );
}

/// The pool and tracker guards a session holds between accesses.
struct Held<'a> {
    pool: MutexGuard<'a, BufferPool>,
    tracker: MutexGuard<'a, DiskTracker>,
}

impl<'a> Held<'a> {
    fn lock(storage: &'a Storage) -> Self {
        assert_unlocked("Session: a page access");
        let (pool, tracker) = storage.locks();
        let held = Held { pool: pool.lock(), tracker: tracker.lock() };
        if cfg!(debug_assertions) {
            HOLDS_LOCK.set(true);
        }
        held
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HOLDS_LOCK.set(false);
        }
    }
}

/// A run of page accesses against one [`Storage`] on one thread, under
/// one lock acquisition and one flush of its charges (see the module
/// docs). Open one with [`Storage::session`]; it flushes when dropped.
pub struct Session<'a> {
    storage: &'a Storage,
    held: Option<Held<'a>>,
    cpu_ns: u64,
    pages_read: u64,
    io_requests: u64,
    buffer_hits: u64,
    /// The tap counts flush into this thread's tap: a session stays on
    /// the thread that opened it.
    _thread: PhantomData<*const ()>,
}

impl<'a> Session<'a> {
    pub(crate) fn new(storage: &'a Storage) -> Self {
        Session {
            storage,
            held: None,
            cpu_ns: 0,
            pages_read: 0,
            io_requests: 0,
            buffer_hits: 0,
            _thread: PhantomData,
        }
    }

    /// The storage this session reads.
    pub fn storage(&self) -> &'a Storage {
        self.storage
    }

    /// The storage's CPU cost constants.
    pub fn cpu(&self) -> &'a CpuCosts {
        self.storage.cpu()
    }

    /// Charge `ns` of CPU work, flushed to the clock when the session
    /// drops.
    #[inline]
    pub fn charge_cpu(&mut self, ns: u64) {
        self.cpu_ns += ns;
    }

    /// Drop the pool and tracker locks (the next page access takes them
    /// again). Charges keep accumulating until the session drops.
    pub fn release(&mut self) {
        self.held = None;
    }

    fn held(&mut self) -> &mut Held<'a> {
        let storage = self.storage;
        self.held.get_or_insert_with(|| Held::lock(storage))
    }

    /// Charge one device request of `len` contiguous pages.
    fn read_run(&mut self, file: FileId, start: u32, len: u32) {
        let clock = self.storage.clock();
        self.held().tracker.read_run(clock, file, start, len);
        self.pages_read += u64::from(len);
        self.io_requests += 1;
    }

    /// Read one heap page through the pool, charging the pool lookup and,
    /// on a miss, the device.
    pub fn read_heap_page(&mut self, heap: &HeapFile, page: PageId) -> Result<PageBuf> {
        self.cpu_ns += self.cpu().hash_op_ns; // pool lookup
        let file = heap.file_id();
        let held = self.held();
        if let Some(Cached::Heap(buf)) = held.pool.get(file, page.0) {
            held.tracker.note_buffer_hit();
            self.buffer_hits += 1;
            return Ok(buf);
        }
        self.storage.page_fault_check(file, page.0)?;
        self.read_run(file, page.0, 1);
        let buf = heap.read_raw(page)?;
        self.held().pool.insert(file, page.0, Cached::Heap(buf.clone()));
        Ok(buf)
    }

    /// Read a contiguous run of heap pages `[start, start+len)` through
    /// the pool, in page order. Resident pages are served from cache; the
    /// missing ones are coalesced into maximal contiguous device requests
    /// (each one seek plus sequential transfers). The per-page pool-probe
    /// CPU (one `hash_op_ns` each) is the caller's to charge.
    pub fn read_heap_run(
        &mut self,
        heap: &HeapFile,
        start: PageId,
        len: u32,
    ) -> Result<Vec<(PageId, PageBuf)>> {
        let file = heap.file_id();
        let mut out = Vec::with_capacity(len as usize);
        let mut missing: Vec<u32> = Vec::new();
        let held = self.held();
        for p in start.0..start.0 + len {
            match held.pool.get(file, p) {
                Some(Cached::Heap(buf)) => {
                    held.tracker.note_buffer_hit();
                    out.push((PageId(p), buf));
                }
                _ => missing.push(p),
            }
        }
        self.buffer_hits += out.len() as u64;
        // Coalesce misses into maximal contiguous runs and fetch each.
        let mut i = 0;
        while i < missing.len() {
            let run_start = missing[i];
            let mut run_len = 1u32;
            while i + (run_len as usize) < missing.len()
                && missing[i + run_len as usize] == run_start + run_len
            {
                run_len += 1;
            }
            // Fault-gate the whole run before charging it: a faulted
            // page fails the read with the disk-arm counters untouched.
            for p in run_start..run_start + run_len {
                self.storage.page_fault_check(file, p)?;
            }
            self.read_run(file, run_start, run_len);
            for p in run_start..run_start + run_len {
                let buf = heap.read_raw(PageId(p))?;
                self.held().pool.insert(file, p, Cached::Heap(buf.clone()));
                out.push((PageId(p), buf));
            }
            i += run_len as usize;
        }
        out.sort_unstable_by_key(|(p, _)| *p);
        Ok(out)
    }

    /// Touch a *virtual* page (a B+-tree node): pool residency decides
    /// whether the device is charged. Returns `true` on a pool hit.
    pub fn touch_index_page(&mut self, file: FileId, node: u32) -> bool {
        self.cpu_ns += self.cpu().hash_op_ns;
        let held = self.held();
        if held.pool.get(file, node).is_some() {
            held.tracker.note_buffer_hit();
            self.buffer_hits += 1;
            return true;
        }
        held.pool.insert(file, node, Cached::Virtual);
        self.read_run(file, node, 1);
        false
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.held = None;
        if self.cpu_ns > 0 {
            self.storage.clock().charge_cpu(self.cpu_ns);
        }
        tap_storage(self.pages_read, self.io_requests, self.buffer_hits);
    }
}
