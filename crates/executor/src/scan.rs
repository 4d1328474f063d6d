//! The three traditional access paths of Section II.
//!
//! * [`FullTableScan`] — reads every heap page in physical order with
//!   readahead; cost is independent of selectivity (Eq. 10).
//! * [`IndexScan`] — walks the B+-tree range cursor and fetches one heap
//!   page per qualifying TID; preserves key order but pays a random access
//!   (and possibly a repeated page visit) per tuple (Eq. 11).
//! * [`SortScan`] — PostgreSQL's Bitmap Heap Scan: drains the index range,
//!   sorts TIDs in page order, then fetches each qualifying page once in a
//!   nearly sequential pattern. Blocking, and the index's key order is
//!   destroyed (Section II "Sort Scan").

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;

use smooth_index::{BTreeIndex, IndexCursor};
use smooth_storage::{HeapFile, PageBuf, PageView, Storage};
use smooth_types::{ColumnBatch, ColumnBuffer, PageId, Result, Row, Schema, SlotId};

use crate::expr::{Predicate, ScanFilter};
use crate::operator::{batch_size, Operator};

/// Probe-and-fill one page's listed slots through `filter` straight into
/// the columnar buffer `out`, charging the virtual clock in one bulk
/// increment (one inspect per slot probed, one emit per qualifier).
/// `tuples` is the caller's slice scratch, reused across the pages of one
/// fetched run.
pub(crate) fn fill_page_columns<'a>(
    storage: &Storage,
    filter: &mut ScanFilter,
    page: &'a PageBuf,
    slots: Option<&[u16]>,
    tuples: &mut Vec<&'a [u8]>,
    out: &mut ColumnBatch,
) -> Result<()> {
    let view = PageView::new(page)?;
    tuples.clear();
    tuples.reserve(slots.map_or(view.slot_count() as usize, <[u16]>::len));
    match slots {
        Some(slots) => slots.iter().try_for_each(|&s| view.get(s).map(|t| tuples.push(t)))?,
        None => view.iter().try_for_each(|t| t.map(|t| tuples.push(t)))?,
    }
    let (inspected, emitted) = filter.fill(tuples, out)?;
    let cpu = storage.cpu();
    storage.clock().charge_cpu(cpu.inspect_tuple_ns * inspected + cpu.emit_tuple_ns * emitted);
    Ok(())
}

/// Pages fetched per full-scan readahead request (256 KB, the order of
/// magnitude OS readahead gives PostgreSQL sequential scans).
pub const FULL_SCAN_READAHEAD: u32 = 32;

/// Maximum gap (in pages) bridged by the Sort Scan prefetcher: ascending
/// page requests closer than this are coalesced into one sequential run,
/// modeling the "nearly sequential pattern, easily detected by disk
/// prefetchers" of Section II.
pub const SORT_SCAN_PREFETCH_GAP: u32 = 16;

/// Sequential scan over the whole heap.
///
/// Every refill probes one readahead run of pages through the
/// [`ScanFilter`] and decodes the qualifiers straight into a
/// [`ColumnBuffer`] (no per-row `Vec<Value>`), which `next_columns` and
/// its one-row view drain in FIFO order.
pub struct FullTableScan {
    heap: Arc<HeapFile>,
    storage: Storage,
    filter: ScanFilter,
    readahead: u32,
    next_page: u32,
    out: ColumnBuffer,
}

impl FullTableScan {
    /// Scan `heap`, emitting rows matching `predicate`.
    pub fn new(heap: Arc<HeapFile>, storage: Storage, predicate: Predicate) -> Self {
        let filter = ScanFilter::new(predicate, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        FullTableScan { heap, storage, filter, readahead: FULL_SCAN_READAHEAD, next_page: 0, out }
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

    /// Once the output buffer is drained, refill it from the next
    /// readahead run(s) holding a qualifier; it stays drained only at heap
    /// exhaustion. CPU is charged per page in bulk, with totals identical
    /// to per-tuple accounting.
    fn refill(&mut self) -> Result<()> {
        let total = self.heap.page_count();
        while self.out.is_drained() && self.next_page < total {
            let len = self.readahead.min(total - self.next_page);
            let pages = self.storage.read_heap_run(&self.heap, PageId(self.next_page), len)?;
            self.storage.charge_page_probes(len as u64);
            self.next_page += len;
            let mut tuples = Vec::new();
            for (_, page) in &pages {
                fill_page_columns(
                    &self.storage,
                    &mut self.filter,
                    page,
                    None,
                    &mut tuples,
                    self.out.fill(),
                )?;
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
        self.out.reset();
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.refill()?;
        Ok(self.out.pop_columns(max.max(1)))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.refill()?;
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!("FullTableScan({}){}", self.heap.name(), self.filter.columns_label())
    }
}

/// Index scan: key-ordered, one heap fetch per qualifying entry.
///
/// The heap fetch per TID *is* the index scan's cost profile; what the
/// columnar fill removes is the per-tuple dispatch and the full decode of
/// residual-failing rows — qualifiers decode straight into the
/// [`ColumnBuffer`].
pub struct IndexScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    lo: Bound<i64>,
    hi: Bound<i64>,
    filter: ScanFilter,
    cursor: Option<IndexCursor>,
    out: ColumnBuffer,
}

impl IndexScan {
    /// Scan `index` over `[lo, hi]`; `residual` filters fetched rows
    /// (predicates on other columns).
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
    ) -> Self {
        let filter = ScanFilter::new(residual, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        IndexScan { heap, index, storage, lo, hi, filter, cursor: None, out }
    }

    /// Builder: emit only the columns `cols` of the heap (strictly
    /// ascending ordinals; `None` = all). The predicate still reads
    /// whatever it names.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        self.out = self.filter.narrow(self.heap.schema(), cols)?;
        Ok(self)
    }

    /// Run cursor probes until `want` rows are buffered or the range is
    /// exhausted. Each round walks at most `want − pending` TIDs (each
    /// yields at most one row, so never one a TID-at-a-time loop would not
    /// have read) and fetches their pages on one storage session, then
    /// fills them in one pass: one inspect per TID, one emit per qualifier.
    fn fill(&mut self, want: usize) -> Result<()> {
        let Some(cursor) = self.cursor.as_mut() else {
            return Err(smooth_types::Error::exec("IndexScan before open"));
        };
        while self.out.pending() < want {
            let (n, s) = (want - self.out.pending(), &mut self.storage.session());
            let mut fetched = Vec::with_capacity(n);
            while fetched.len() < n {
                let Some((_, tid)) = cursor.next_in(s) else { break };
                fetched.push((s.read_heap_page(&self.heap, tid.page)?, tid.slot));
            }
            s.release();
            let (inspected, emitted) =
                self.filter.fill(&slot_tuples(&fetched)?, self.out.fill())?;
            s.charge_cpu(s.cpu().inspect_tuple_ns * inspected + s.cpu().emit_tuple_ns * emitted);
            if fetched.len() < n {
                break; // the range is exhausted
            }
        }
        Ok(())
    }
}

/// The tuples at the `(page, slot)`s of fetched pages, in order.
pub(crate) fn slot_tuples(fetched: &[(PageBuf, SlotId)]) -> Result<Vec<&[u8]>> {
    let mut tuples = Vec::with_capacity(fetched.len()); // one allocation per morsel
    for (page, slot) in fetched {
        tuples.push(PageView::new(page)?.get(*slot)?);
    }
    Ok(tuples)
}

impl Operator for IndexScan {
    fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.cursor = Some(self.index.range(&self.storage, self.lo, self.hi));
        self.out.reset();
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        self.fill(max)?;
        Ok(self.out.pop_columns(max))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.out.is_drained() {
            self.fill(batch_size())?;
        }
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.cursor = None;
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        let cols = self.filter.columns_label();
        format!("IndexScan({} via {}){cols}", self.heap.name(), self.index.name())
    }
}

/// One coalesced fetch of the Sort Scan: a page run plus the qualifying
/// slots within it.
struct PrefetchRun {
    start: u32,
    len: u32,
    /// `(page, sorted slots)` pairs for pages in this run that hold results.
    page_slots: Vec<(u32, Vec<u16>)>,
}

/// Sort Scan (Bitmap Heap Scan): blocking TID sort, then page-ordered fetch.
///
/// Like [`FullTableScan`]'s, the refill probes encoded tuples — only the
/// slots the bitmap named — and decodes qualifiers straight into the
/// [`ColumnBuffer`].
pub struct SortScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    lo: Bound<i64>,
    hi: Bound<i64>,
    filter: ScanFilter,
    runs: VecDeque<PrefetchRun>,
    out: ColumnBuffer,
}

impl SortScan {
    /// Build a Sort Scan over `[lo, hi]` of `index`.
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
    ) -> Self {
        let filter = ScanFilter::new(residual, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        SortScan { heap, index, storage, lo, hi, filter, runs: VecDeque::new(), out }
    }

    /// Builder: emit only the columns `cols` of the heap (strictly
    /// ascending ordinals; `None` = all). The predicate still reads
    /// whatever it names.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        self.out = self.filter.narrow(self.heap.schema(), cols)?;
        Ok(self)
    }

    /// Once the output buffer is drained, refill it from the next
    /// coalesced prefetch run(s); it stays drained only once all runs are
    /// consumed.
    fn refill(&mut self) -> Result<()> {
        while self.out.is_drained() {
            let Some(run) = self.runs.pop_front() else { break };
            let pages = self.storage.read_heap_run(&self.heap, PageId(run.start), run.len)?;
            self.storage.charge_page_probes(run.len as u64);
            let mut tuples = Vec::new();
            for (page_no, slots) in &run.page_slots {
                let idx = (page_no - run.start) as usize;
                let (_, page) = &pages[idx];
                fill_page_columns(
                    &self.storage,
                    &mut self.filter,
                    page,
                    Some(slots),
                    &mut tuples,
                    self.out.fill(),
                )?;
            }
        }
        Ok(())
    }
}

impl Operator for SortScan {
    fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.runs.clear();
        self.out.reset();
        // Phase 1 (blocking): drain the index range on one session.
        let mut cursor = self.index.range(&self.storage, self.lo, self.hi);
        let (mut tids, s) = (Vec::new(), &mut self.storage.session());
        while let Some((_, tid)) = cursor.next_in(s) {
            tids.push(tid);
        }
        s.release();
        // Phase 2: sort TIDs in physical (page-major) order.
        let n = tids.len() as u64;
        if n > 1 {
            s.charge_cpu(s.cpu().sort_cmp_ns * n * n.ilog2() as u64);
        }
        tids.sort_unstable();
        // Phase 3: group by page, then coalesce ascending pages whose gaps
        // fit the prefetch window into single runs.
        let mut page_slots: Vec<(u32, Vec<u16>)> = Vec::new();
        for tid in tids {
            match page_slots.last_mut() {
                Some((p, slots)) if *p == tid.page.0 => slots.push(tid.slot),
                _ => page_slots.push((tid.page.0, vec![tid.slot])),
            }
        }
        let mut current: Option<PrefetchRun> = None;
        for (page, slots) in page_slots {
            match current.as_mut() {
                Some(run) if page - (run.start + run.len - 1) <= SORT_SCAN_PREFETCH_GAP => {
                    run.len = page - run.start + 1;
                    run.page_slots.push((page, slots));
                }
                _ => {
                    if let Some(done) = current.take() {
                        self.runs.push_back(done);
                    }
                    current =
                        Some(PrefetchRun { start: page, len: 1, page_slots: vec![(page, slots)] });
                }
            }
        }
        if let Some(done) = current.take() {
            self.runs.push_back(done);
        }
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.refill()?;
        Ok(self.out.pop_columns(max.max(1)))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.refill()?;
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.runs.clear();
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        let cols = self.filter.columns_label();
        format!("SortScan({} via {}){cols}", self.heap.name(), self.index.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema, Value};

    /// 3000-row table; c0 = row number, c1 = pseudo-random in [0, 1000).
    fn table() -> (Arc<HeapFile>, Arc<BTreeIndex>) {
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
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i_c1", &heap, 1).unwrap());
        (heap, index)
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 128,
        })
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|r| r.int(0).unwrap());
        rows
    }

    #[test]
    fn all_three_paths_agree_on_results() {
        let (heap, index) = table();
        let s = storage();
        let pred = Predicate::int_half_open(1, 0, 120);
        let mut full = FullTableScan::new(Arc::clone(&heap), s.clone(), pred.clone());
        let expected = sorted(crate::operator::collect_rows(&mut full).unwrap());
        assert!(!expected.is_empty());

        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(120),
            Predicate::True,
        );
        assert_eq!(sorted(crate::operator::collect_rows(&mut is).unwrap()), expected);

        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(120),
            Predicate::True,
        );
        assert_eq!(sorted(crate::operator::collect_rows(&mut ss).unwrap()), expected);
    }

    #[test]
    fn index_scan_emits_in_key_order() {
        let (heap, index) = table();
        let s = storage();
        let mut is = IndexScan::new(
            heap,
            index,
            s,
            Bound::Included(100),
            Bound::Excluded(300),
            Predicate::True,
        );
        let rows = crate::operator::collect_rows(&mut is).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(keys.iter().all(|&k| (100..300).contains(&k)));
    }

    #[test]
    fn sort_scan_emits_in_page_order() {
        let (heap, index) = table();
        let s = storage();
        let mut ss = SortScan::new(
            heap,
            index,
            s,
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        let rows = crate::operator::collect_rows(&mut ss).unwrap();
        // c0 is the load order == physical order.
        let c0: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        assert!(c0.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_scan_io_is_selectivity_independent() {
        let (heap, _) = table();
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
        let (heap, _) = table();
        let s = storage();
        let mut f = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True);
        crate::operator::collect_rows(&mut f).unwrap();
        let io = s.io_snapshot();
        let expected = (heap.page_count() as u64).div_ceil(FULL_SCAN_READAHEAD as u64);
        assert_eq!(io.io_requests, expected);
        assert!(io.seq_pages > io.rand_pages);
    }

    #[test]
    fn index_scan_costs_grow_with_selectivity_sort_scan_reads_pages_once() {
        let (heap, index) = table();
        // A pool far smaller than the heap, so the index scan's repeated
        // page visits actually hit the device (cold-cache regime).
        let s = Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 4,
        });
        // Index scan, 50% selectivity: many random accesses, repeats.
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        crate::operator::collect_rows(&mut is).unwrap();
        let is_io = s.io_snapshot();
        s.reset_metrics();
        s.flush_pool();
        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        crate::operator::collect_rows(&mut ss).unwrap();
        let ss_io = s.io_snapshot();
        // Sort scan never rereads a heap page; index scan (tiny pool) does.
        assert!(is_io.pages_read > ss_io.distinct_pages);
        assert!(ss_io.io_requests < is_io.io_requests);
    }

    #[test]
    fn residual_predicates_filter_fetched_rows() {
        let (heap, index) = table();
        let s = storage();
        let residual = Predicate::int_lt(0, 1500); // on c0, not the index key
        let mut is =
            IndexScan::new(heap, index, s, Bound::Included(0), Bound::Excluded(1000), residual);
        let rows = crate::operator::collect_rows(&mut is).unwrap();
        assert_eq!(rows.len(), 1500);
        assert!(rows.iter().all(|r| r.int(0).unwrap() < 1500));
    }

    #[test]
    fn empty_range_yields_nothing() {
        let (heap, index) = table();
        let s = storage();
        for op in [
            &mut IndexScan::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                s.clone(),
                Bound::Included(5000),
                Bound::Unbounded,
                Predicate::True,
            ) as &mut dyn Operator,
            &mut SortScan::new(
                heap,
                index,
                s.clone(),
                Bound::Included(5000),
                Bound::Unbounded,
                Predicate::True,
            ),
        ] {
            assert!(crate::operator::collect_rows(op).unwrap().is_empty());
        }
    }
}
