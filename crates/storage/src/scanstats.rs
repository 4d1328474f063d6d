//! Per-query scan/flow statistics and the thread-local accounting tap.
//!
//! The global [`crate::DiskTracker`] counters answer "what did the
//! *engine* do" — under concurrent sessions they sum traffic from every
//! in-flight query. [`ScanStatistics`] answers "what did *this query*
//! do": tuples inspected vs. emitted by scan filters, pages/bytes pulled
//! through the buffer pool, request and hit counts. The design follows
//! TiKV's `CFStatistics`/`FlowStatistics` split: small mergeable counter
//! structs accumulated per worker and summed into the per-query total.
//!
//! Attribution is exact even under concurrency because all charged page
//! traffic happens on the claiming worker's thread inside the query's
//! source lock: a worker brackets each unit of work with [`tap_mark`] /
//! [`TapMark::delta`] on its own thread-local monotone counters, so
//! concurrent queries on other threads never leak into the delta.

use std::cell::Cell;

use smooth_types::PAGE_SIZE;

/// Per-query scan/flow counters, merged TiKV-style from per-worker
/// partials. All fields are plain sums; [`ScanStatistics::merge`] adds
/// them field-wise ([`ScanStatistics::rows_total`] is set once by the
/// planner from catalog cardinalities, after the partials merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStatistics {
    /// Tuples inspected by scan filters (TiKV's "total" flow: every
    /// tuple the scan looked at, qualifying or not).
    pub rows_scanned: u64,
    /// Tuples that qualified and were emitted by the scans (TiKV's
    /// "processed" flow).
    pub rows_processed: u64,
    /// Total rows of the scanned base tables (planner-filled from
    /// catalog cardinalities; `0` when the query bypassed the planner).
    pub rows_total: u64,
    /// Pages this query transferred from the device.
    pub pages_read: u64,
    /// Device read requests this query issued (a coalesced multi-page
    /// run counts once).
    pub io_requests: u64,
    /// Buffer-pool hits this query scored.
    pub buffer_hits: u64,
    /// Bytes this query transferred from the device.
    pub read_bytes: u64,
    /// Wall-clock nanoseconds workers spent waiting to acquire this
    /// query's source lock (measured, informational — not part of the
    /// deterministic virtual-clock model).
    pub lock_wait_ns: u64,
    /// Wall-clock nanoseconds workers held this query's source lock in
    /// their claims, from acquiring it to releasing it (measured,
    /// informational): the serial part of a parallel query.
    pub src_hold_ns: u64,
    /// Wall-clock nanoseconds workers spent processing this query's
    /// claimed morsels after releasing the source lock, from taking each
    /// up to handing it over (measured, informational).
    pub proc_ns: u64,
    /// Morsels processed for this query (0 under the serial driver,
    /// which runs no morsel loop).
    pub morsels: u64,
}

impl ScanStatistics {
    /// Fold another partial in (field-wise sum; `rows_total` adds too —
    /// partials carry `0` there, the planner stamps the final value).
    pub fn merge(&mut self, other: &ScanStatistics) {
        self.rows_scanned += other.rows_scanned;
        self.rows_processed += other.rows_processed;
        self.rows_total += other.rows_total;
        self.pages_read += other.pages_read;
        self.io_requests += other.io_requests;
        self.buffer_hits += other.buffer_hits;
        self.read_bytes += other.read_bytes;
        self.lock_wait_ns += other.lock_wait_ns;
        self.src_hold_ns += other.src_hold_ns;
        self.proc_ns += other.proc_ns;
        self.morsels += other.morsels;
    }

    /// Observed scan selectivity: emitted over inspected tuples
    /// (`1.0` when nothing was inspected).
    pub fn selectivity(&self) -> f64 {
        if self.rows_scanned == 0 {
            1.0
        } else {
            self.rows_processed as f64 / self.rows_scanned as f64
        }
    }

    /// Megabytes transferred from the device for this query.
    pub fn mb_read(&self) -> f64 {
        self.read_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// The thread-local monotone counters the storage layer ticks.
#[derive(Debug, Clone, Copy, Default)]
struct TapCounters {
    rows_scanned: u64,
    rows_processed: u64,
    pages_read: u64,
    io_requests: u64,
    buffer_hits: u64,
}

thread_local! {
    static TAP: Cell<TapCounters> = const { Cell::new(TapCounters {
        rows_scanned: 0,
        rows_processed: 0,
        pages_read: 0,
        io_requests: 0,
        buffer_hits: 0,
    }) };
}

/// A snapshot of this thread's tap counters; subtracting two snapshots
/// ([`TapMark::delta`]) yields the scan traffic of the work between
/// them. Marks nest: the counters are monotone, so an inner
/// mark/delta pair never disturbs an outer one.
#[derive(Debug, Clone, Copy)]
pub struct TapMark(TapCounters);

/// Snapshot this thread's tap counters.
pub fn tap_mark() -> TapMark {
    TapMark(TAP.get())
}

impl TapMark {
    /// The scan traffic this thread performed since the mark.
    pub fn delta(&self) -> ScanStatistics {
        let now = TAP.get();
        let pages = now.pages_read - self.0.pages_read;
        ScanStatistics {
            rows_scanned: now.rows_scanned - self.0.rows_scanned,
            rows_processed: now.rows_processed - self.0.rows_processed,
            rows_total: 0,
            pages_read: pages,
            io_requests: now.io_requests - self.0.io_requests,
            buffer_hits: now.buffer_hits - self.0.buffer_hits,
            read_bytes: pages * PAGE_SIZE as u64,
            lock_wait_ns: 0,
            src_hold_ns: 0,
            proc_ns: 0,
            morsels: 0,
        }
    }
}

/// Tick tuple-flow counters: `scanned` tuples inspected, of which
/// `processed` qualified. Called by the executor's scan filters.
pub fn tap_rows(scanned: u64, processed: u64) {
    let mut c = TAP.get();
    c.rows_scanned += scanned;
    c.rows_processed += processed;
    TAP.set(c);
}

/// Tick storage traffic: `pages` transferred in `requests` requests, and
/// `hits` buffer-pool hits.
pub(crate) fn tap_storage(pages: u64, requests: u64, hits: u64) {
    let mut c = TAP.get();
    c.pages_read += pages;
    c.io_requests += requests;
    c.buffer_hits += hits;
    TAP.set(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_nest_and_deltas_are_disjoint() {
        let outer = tap_mark();
        tap_rows(10, 4);
        let inner = tap_mark();
        tap_storage(3, 1, 2);
        let d_inner = inner.delta();
        assert_eq!(d_inner.rows_scanned, 0);
        assert_eq!(d_inner.pages_read, 3);
        assert_eq!(d_inner.io_requests, 1);
        assert_eq!(d_inner.buffer_hits, 2);
        assert_eq!(d_inner.read_bytes, 3 * PAGE_SIZE as u64);
        let d_outer = outer.delta();
        assert_eq!(d_outer.rows_scanned, 10);
        assert_eq!(d_outer.rows_processed, 4);
        assert_eq!(d_outer.pages_read, 3);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = ScanStatistics {
            rows_scanned: 5,
            rows_processed: 2,
            rows_total: 0,
            pages_read: 3,
            io_requests: 1,
            buffer_hits: 4,
            read_bytes: 3 * PAGE_SIZE as u64,
            lock_wait_ns: 7,
            src_hold_ns: 5,
            proc_ns: 3,
            morsels: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.rows_scanned, 10);
        assert_eq!(a.rows_processed, 4);
        assert_eq!(a.pages_read, 6);
        assert_eq!(a.io_requests, 2);
        assert_eq!(a.buffer_hits, 8);
        assert_eq!(a.lock_wait_ns, 14);
        assert_eq!((a.src_hold_ns, a.proc_ns), (10, 6));
        assert_eq!(a.morsels, 2);
    }

    #[test]
    fn selectivity_handles_empty_scans() {
        assert_eq!(ScanStatistics::default().selectivity(), 1.0);
        let s = ScanStatistics { rows_scanned: 8, rows_processed: 2, ..Default::default() };
        assert!((s.selectivity() - 0.25).abs() < 1e-12);
    }
}
