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
//! pages inspects them through [`fill_from`] — the parallel pipeline's heap
//! source included, which is a [`FullTableScan`] split in two halves: the
//! serial `FullTableScan::read_run` under the source lock, and
//! `FullTableScan::inspect_run` on the claiming worker.
//!
//! A scan reads at its own I/O granularity but decodes one morsel ahead:
//! what it fetched waits, still encoded, in a [`PageQueue`].

use std::collections::VecDeque;
use std::sync::Arc;

use smooth_storage::{FileId, HeapFile, PageBuf, PageView, Session, Storage};
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
    /// Rows of the last `inspect_run` morsel, which sizes the next one.
    last_rows: Option<usize>,
}

impl FullTableScan {
    /// Scan `heap`, emitting rows matching `predicate`.
    pub fn new(heap: Arc<HeapFile>, storage: Storage, predicate: Predicate) -> Self {
        let filter = ScanFilter::new(predicate, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        let (readahead, queue, last_rows) = (FULL_SCAN_READAHEAD, PageQueue::default(), None);
        FullTableScan { heap, storage, filter, readahead, next_page: 0, queue, out, last_rows }
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

    /// The fetch half, and the parallel heap source's serial section: read
    /// the next readahead run, charging its I/O and no CPU. `None` past the
    /// last page.
    pub(crate) fn read_run(&mut self) -> Result<Option<Vec<(PageId, PageBuf)>>> {
        let total = self.heap.page_count();
        if self.next_page >= total {
            return Ok(None);
        }
        let len = self.readahead.min(total - self.next_page);
        let run = self.storage.read_heap_run(&self.heap, PageId(self.next_page), len)?;
        self.next_page += len;
        Ok(Some(run))
    }

    /// Queue `run`, charging one pool probe per page, and inspect the queue
    /// until `max` rows are pending (see [`fill_from`]).
    fn inspect(&mut self, run: Vec<(PageId, PageBuf)>, max: usize) -> Result<()> {
        let s = &mut self.storage.session();
        s.charge_cpu(s.cpu().hash_op_ns * run.len() as u64); // the pool probes
        self.queue.extend(run);
        let (queue, filter, out) = (&mut self.queue, &mut self.filter, &mut self.out);
        fill_from(queue, s, max, filter, out, |_, v, t| v.tuples_into(t).map(|()| 0)).map(drop)
    }

    /// The inspect half, on a pipeline worker: every page of `run` (a
    /// [`FullTableScan::read_run`] of this scan or of the one it is a
    /// worker's copy of) inspected into one morsel, empty when nothing
    /// qualified.
    pub(crate) fn inspect_run(&mut self, run: Vec<(PageId, PageBuf)>) -> Result<ColumnBatch> {
        // Size the morsel once, not by doubling: the run's slot count bounds
        // it, and the last morsel's yield (plus slack) predicts it.
        let slots = run.iter().try_fold(0usize, |n, (_, page)| {
            PageView::new(page).map(|v| n + v.slot_count() as usize)
        })?;
        let rows = self.last_rows.map_or(slots, |n| (n + n / 8 + 16).min(slots));
        *self.out.fill() = ColumnBatch::with_capacity(self.filter.schema(), rows);
        self.inspect(run, usize::MAX)?;
        let morsel =
            std::mem::replace(self.out.fill(), ColumnBatch::for_schema(self.filter.schema()));
        self.last_rows = Some(morsel.physical_rows());
        Ok(morsel)
    }

    /// A copy of this scan for a worker to [`FullTableScan::inspect_run`]
    /// with: the same filter, an empty queue and output of its own.
    pub(crate) fn inspector(&self) -> FullTableScan {
        FullTableScan {
            heap: Arc::clone(&self.heap),
            storage: self.storage.clone(),
            filter: self.filter.clone(),
            readahead: self.readahead,
            next_page: 0,
            queue: PageQueue::default(),
            out: ColumnBuffer::for_schema(self.filter.schema()),
            last_rows: None,
        }
    }

    /// The heap file this scan reads.
    pub(crate) fn file_id(&self) -> FileId {
        self.heap.file_id()
    }

    /// Buffer up to `max` rows: inspect what is queued, reading the next
    /// readahead run whenever the queue runs dry.
    fn refill(&mut self, max: usize) -> Result<()> {
        while self.out.pending() < max {
            let run = if self.queue.is_empty() { self.read_run()? } else { Some(Vec::new()) };
            let Some(run) = run else { break };
            self.inspect(run, max)?;
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
