//! The traditional access path that reads no index: [`FullTableScan`]
//! (Section II) reads every heap page in physical order with readahead;
//! its cost is independent of selectivity (Eq. 10).
//!
//! The two index-driven ones are Smooth Scan configurations
//! (`smooth-core`): Index Scan (Eq. 11) is Mode 0 under a trigger that
//! never fires, and Sort Scan (PostgreSQL's Bitmap Heap Scan) walks the
//! range into a TID bitmap and then reads the marked pages in page order.
//! Index Scan and the index join fetch one heap page per TID and inspect
//! the fetched tuples through [`slot_tuples`]; every scan that reads whole
//! pages inspects them through [`fill_from`].
//!
//! A scan reads at its own I/O granularity but decodes one morsel ahead:
//! what it fetched waits, still encoded, in a [`PageQueue`].

use std::collections::VecDeque;
use std::sync::Arc;

use smooth_storage::{HeapFile, PageBuf, PageView, Session, Storage};
use smooth_types::{ColumnBatch, ColumnBuffer, PageId, Result, Row, Schema, SlotId};

use crate::expr::{Predicate, ScanFilter};
use crate::operator::Operator;

/// Fetched heap pages waiting, still encoded, to be inspected: a scan
/// queues whole I/O units and [`fill_from`] inspects them a page at a
/// time, only as far as the caller's morsel reaches.
pub type PageQueue = VecDeque<(PageId, PageBuf)>;

/// Inspect `queue`'s pages in order through `filter` into `out` until `max`
/// rows are pending or the queue is empty, charging `s` per tuple probed and
/// emitted plus the CPU `slots` returns for picking a page's tuples. A page
/// whose tuples could take the pending rows past `max` stays queued unless
/// none are pending — so `slots` must have no other effect, every call
/// inspects a page, and a morsel that fits leaves `out` by handover. Returns
/// the pages inspected and how many of them held a qualifier.
pub fn fill_from(
    queue: &mut PageQueue,
    s: &mut Session,
    max: usize,
    filter: &mut ScanFilter,
    out: &mut ColumnBuffer,
    mut slots: impl for<'p> FnMut(PageId, &PageView<'p>, &mut Vec<&'p [u8]>) -> Result<u64>,
) -> Result<(u64, u64)> {
    let (cpu, mut tuples, mut done) = (*s.cpu(), Vec::new(), (0, 0));
    for (pid, page) in queue.iter() {
        tuples.clear();
        let picked_ns = slots(*pid, &PageView::new(page)?, &mut tuples)?;
        let pending = out.pending();
        if pending >= max || pending > 0 && pending + tuples.len() > max {
            break;
        }
        let (inspected, emitted) = filter.fill(&tuples, out.fill())?;
        s.charge_cpu(picked_ns + cpu.inspect_tuple_ns * inspected + cpu.emit_tuple_ns * emitted);
        done = (done.0 + 1, done.1 + u64::from(emitted > 0));
    }
    queue.drain(..done.0 as usize);
    Ok(done)
}

/// Pages fetched per full-scan readahead request (256 KB, the order of
/// magnitude OS readahead gives PostgreSQL sequential scans).
pub const FULL_SCAN_READAHEAD: u32 = 32;

/// Sequential scan over the whole heap.
///
/// Reads one readahead run of pages at a time into a [`PageQueue`] and
/// probes them through the [`ScanFilter`] a morsel at a time, decoding the
/// qualifiers straight into a [`ColumnBuffer`] (no per-row `Vec<Value>`),
/// which `next_columns` and its one-row view drain in FIFO order.
pub struct FullTableScan {
    heap: Arc<HeapFile>,
    storage: Storage,
    filter: ScanFilter,
    readahead: u32,
    next_page: u32,
    queue: PageQueue,
    out: ColumnBuffer,
}

impl FullTableScan {
    /// Scan `heap`, emitting rows matching `predicate`.
    pub fn new(heap: Arc<HeapFile>, storage: Storage, predicate: Predicate) -> Self {
        let filter = ScanFilter::new(predicate, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        let (readahead, queue) = (FULL_SCAN_READAHEAD, PageQueue::default());
        FullTableScan { heap, storage, filter, readahead, next_page: 0, queue, out }
    }

    /// Builder: emit only the columns `cols` of the heap (strictly
    /// ascending ordinals; `None` = all). The predicate still reads
    /// whatever it names.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        self.out = self.filter.narrow(self.heap.schema(), cols)?;
        Ok(self)
    }

    /// Override the readahead window (ablation benches).
    pub fn with_readahead(mut self, pages: u32) -> Self {
        self.readahead = pages.max(1);
        self
    }

    /// Buffer up to `max` rows (see [`fill_from`]), reading the next
    /// readahead run whenever the queue runs dry.
    fn refill(&mut self, max: usize) -> Result<()> {
        let (total, s) = (self.heap.page_count(), &mut self.storage.session());
        while self.out.pending() < max {
            if self.queue.is_empty() {
                if self.next_page >= total {
                    break;
                }
                let len = self.readahead.min(total - self.next_page);
                self.queue.extend(s.read_heap_run(&self.heap, PageId(self.next_page), len)?);
                s.charge_cpu(s.cpu().hash_op_ns * len as u64); // the pool probes
                s.release();
                self.next_page += len;
            }
            let (queue, filter, out) = (&mut self.queue, &mut self.filter, &mut self.out);
            fill_from(queue, s, max, filter, out, |_, v, t| v.tuples_into(t).map(|()| 0))?;
            if !self.queue.is_empty() {
                break; // the next page starts the next morsel
            }
        }
        Ok(())
    }
}

impl Operator for FullTableScan {
    fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.next_page = 0;
        self.queue.clear();
        self.out.reset();
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        self.refill(max)?;
        Ok(self.out.pop_columns(max))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.refill(1)?;
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.queue.clear();
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!("FullTableScan({}){}", self.heap.name(), self.filter.columns_label())
    }
}

/// The tuples at the `(page, slot)`s of fetched pages, in order.
pub fn slot_tuples(fetched: &[(PageBuf, SlotId)]) -> Result<Vec<&[u8]>> {
    let mut tuples = Vec::with_capacity(fetched.len()); // one allocation per morsel
    for (page, slot) in fetched {
        tuples.push(PageView::new(page)?.get(*slot)?);
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema, Value};

    /// 3000-row table; c0 = row number, c1 = pseudo-random in [0, 1000).
    fn table() -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..3000i64 {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            l.push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(40))]))
                .unwrap();
        }
        Arc::new(l.finish().unwrap())
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 128,
        })
    }

    #[test]
    fn full_scan_io_is_selectivity_independent() {
        let heap = table();
        let s = storage();
        let mut narrow = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::int_eq(1, 3));
        crate::operator::collect_rows(&mut narrow).unwrap();
        let narrow_io = s.io_snapshot().pages_read;
        s.reset_metrics();
        s.flush_pool();
        let mut wide = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True);
        crate::operator::collect_rows(&mut wide).unwrap();
        let wide_io = s.io_snapshot().pages_read;
        assert_eq!(narrow_io, wide_io);
        assert_eq!(wide_io, heap.page_count() as u64);
    }

    #[test]
    fn full_scan_uses_few_requests() {
        let heap = table();
        let s = storage();
        let mut f = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True);
        crate::operator::collect_rows(&mut f).unwrap();
        let io = s.io_snapshot();
        let expected = (heap.page_count() as u64).div_ceil(FULL_SCAN_READAHEAD as u64);
        assert_eq!(io.io_requests, expected);
        assert!(io.seq_pages > io.rand_pages);
    }
}
