//! Switch Scan: mid-operator adaptivity with a binary decision
//! (Sections III and VI-F).
//!
//! Runs a traditional index scan while monitoring the produced cardinality;
//! the moment it exceeds the optimizer's estimate, it abandons the index
//! and restarts as a full table scan, using a Tuple-ID cache to suppress
//! the tuples already produced. The total time to produce tuple
//! `estimate + 1` is therefore the index time for `estimate` tuples *plus*
//! an entire full scan — the performance cliff of Fig. 11.

use std::ops::Bound;
use std::sync::Arc;

use smooth_executor::{batch_size, fill_from, Operator, PageQueue, Predicate, ScanFilter};
use smooth_index::{BTreeIndex, IndexCursor};
use smooth_storage::{HeapFile, PageView, Session, Storage};
use smooth_types::{ColumnBatch, ColumnBuffer, Error, PageId, Result, Row, Schema};

use crate::tuple_cache::{unproduced, TupleIdCache};

/// Pages per full-scan readahead request after the switch.
const READAHEAD: u32 = 32;

/// The binary-switching access path.
pub struct SwitchScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    key_col: usize,
    lo: Bound<i64>,
    hi: Bound<i64>,
    /// Compiled `key range AND residual` filter, probed on encoded tuples.
    filter: ScanFilter,
    /// The optimizer's cardinality estimate — the switch threshold.
    estimate: u64,
    cursor: Option<IndexCursor>,
    produced: Option<TupleIdCache>,
    produced_count: u64,
    switched: bool,
    next_page: u32,
    /// Full-scan runs fetched but not yet inspected.
    queue: PageQueue,
    /// Pending output of either phase: index probes and full-scan refills
    /// decode qualifiers straight into this columnar FIFO.
    out: ColumnBuffer,
}

impl SwitchScan {
    /// Build a Switch Scan with the given cardinality `estimate`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        key_col: usize,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
        estimate: u64,
    ) -> Self {
        let full_pred =
            Predicate::and(vec![Predicate::IntRange { col: key_col, lo, hi }, residual]);
        let filter = ScanFilter::new(full_pred, heap.schema());
        let out = ColumnBuffer::for_schema(heap.schema());
        SwitchScan {
            heap,
            index,
            storage,
            key_col,
            lo,
            hi,
            filter,
            estimate,
            cursor: None,
            produced: None,
            produced_count: 0,
            switched: false,
            next_page: 0,
            queue: PageQueue::default(),
            out,
        }
    }

    /// Builder: emit only the columns `cols` of the heap (strictly
    /// ascending ordinals; `None` = all), in both phases.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        self.out = self.filter.narrow(self.heap.schema(), cols)?;
        Ok(self)
    }

    /// Whether the cliff was taken.
    pub fn switched(&self) -> bool {
        self.switched
    }

    /// Tuples produced by the index phase.
    pub fn index_tuples(&self) -> u64 {
        self.produced_count
    }

    /// Key column ordinal (used by planners for EXPLAIN output).
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Phase 1: one index probe under cardinality monitoring — the cliff
    /// must fire at the exact tuple. A qualifier within the estimate
    /// decodes into the output buffer; the first one beyond it is thrown
    /// away (the full scan will re-find it) and the scan restarts as a
    /// full scan. Returns `false` at cursor exhaustion.
    fn probe_phase1(&mut self, s: &mut Session) -> Result<bool> {
        let Some((_, tid)) = self.cursor.as_mut().ok_or_else(not_open)?.next_in(s) else {
            return Ok(false);
        };
        let cpu = *s.cpu();
        let page = s.read_heap_page(&self.heap, tid.page)?;
        s.release();
        s.charge_cpu(cpu.inspect_tuple_ns);
        let tuple = [PageView::new(&page)?.get(tid.slot)?];
        if self.filter.select(&tuple)? == 0 {
            return Ok(true);
        }
        if self.produced_count >= self.estimate {
            self.switched = true;
            self.cursor = None;
            return Ok(true);
        }
        self.produced_count += 1;
        self.produced.as_mut().ok_or_else(not_open)?.insert(tid)?;
        s.charge_cpu(cpu.emit_tuple_ns);
        let out = self.out.fill();
        self.filter.gather_selected(&tuple, out.columns_mut())?;
        out.commit_rows(1);
        Ok(true)
    }

    /// Phase 2: queue the next readahead run. Returns `false` once the
    /// heap is exhausted.
    fn read_phase2(&mut self, s: &mut Session) -> Result<bool> {
        let total = self.heap.page_count();
        if self.next_page >= total {
            return Ok(false);
        }
        let len = READAHEAD.min(total - self.next_page);
        let pages = s.read_heap_run(&self.heap, PageId(self.next_page), len)?;
        s.charge_cpu(s.cpu().hash_op_ns * len as u64); // the pool probes
        s.release();
        self.next_page += len;
        self.queue.extend(pages);
        Ok(true)
    }

    /// Buffer output: index probes until `want` rows are pending or the
    /// cliff is taken, then full-scan runs, inspected a morsel at a time
    /// (see [`fill_from`]) and skipping tuples the index phase already
    /// produced; all on one storage session, released before every
    /// inspection. The clock is charged per page with totals identical to
    /// per-tuple accounting.
    fn fill(&mut self, want: usize) -> Result<()> {
        let storage = self.storage.clone();
        let s = &mut storage.session();
        while !self.switched && self.out.pending() < want && self.probe_phase1(s)? {}
        while self.switched && self.out.pending() < want {
            // A run is read once the rows before it have left: the index
            // phase's rows leave before the full scan starts.
            if self.queue.is_empty() && !(self.out.is_drained() && self.read_phase2(s)?) {
                break;
            }
            let (op_ns, produced) = (s.cpu().bitmap_op_ns, self.produced.as_ref());
            fill_from(&mut self.queue, s, want, &mut self.filter, &mut self.out, |p, v, t| {
                Ok(op_ns * unproduced(produced, p, v, t, |_| {})?)
            })?;
            if !self.queue.is_empty() {
                break; // the next page starts the next morsel
            }
        }
        Ok(())
    }
}

fn not_open() -> Error {
    Error::exec("SwitchScan before open")
}

impl Operator for SwitchScan {
    fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.cursor = Some(self.index.range(&self.storage, self.lo, self.hi));
        self.produced =
            Some(TupleIdCache::new(self.heap.page_count(), self.heap.max_slots_per_page()));
        self.produced_count = 0;
        self.switched = false;
        self.next_page = 0;
        self.queue.clear();
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
        self.queue.clear();
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!(
            "SwitchScan({} via {}, estimate={}){}",
            self.heap.name(),
            self.index.name(),
            self.estimate,
            self.filter.columns_label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::collect_rows;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema, Value};

    fn table(rows: i64) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            let c1 = ((i.wrapping_mul(2654435761)) % 1000 + 1000) % 1000;
            l.push(&Row::new(vec![Value::Int(i), Value::Int(c1)])).unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        (heap, index)
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 32,
        })
    }

    fn scan(
        heap: &Arc<HeapFile>,
        index: &Arc<BTreeIndex>,
        s: &Storage,
        hi: i64,
        estimate: u64,
    ) -> SwitchScan {
        SwitchScan::new(
            Arc::clone(heap),
            Arc::clone(index),
            s.clone(),
            1,
            Bound::Included(0),
            Bound::Excluded(hi),
            Predicate::True,
            estimate,
        )
    }

    #[test]
    fn below_estimate_behaves_like_index_scan() {
        let (heap, index) = table(3000);
        let s = storage();
        let mut sw = scan(&heap, &index, &s, 20, 1000);
        let rows = collect_rows(&mut sw).unwrap();
        assert!(!sw.switched());
        assert_eq!(rows.len() as u64, sw.index_tuples());
        // key-ordered output in the index phase
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn exceeding_estimate_switches_and_loses_no_tuples() {
        let (heap, index) = table(3000);
        let s = storage();
        let mut sw = scan(&heap, &index, &s, 500, 100);
        let rows = collect_rows(&mut sw).unwrap();
        assert!(sw.switched());
        assert_eq!(sw.index_tuples(), 100);
        // Exactly the true result set, no duplicates.
        let mut ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "no duplicates");
        let mut oracle = smooth_executor::FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::int_half_open(1, 0, 500),
        );
        assert_eq!(rows.len(), collect_rows(&mut oracle).unwrap().len());
    }

    #[test]
    fn switch_pays_index_cost_plus_full_scan_cost() {
        let (heap, index) = table(3000);
        // Cost of a pure full scan:
        let s_full = storage();
        let mut full = smooth_executor::FullTableScan::new(
            Arc::clone(&heap),
            s_full.clone(),
            Predicate::int_half_open(1, 0, 500),
        );
        collect_rows(&mut full).unwrap();
        let full_io = s_full.clock().snapshot().io_ns;
        // Switch Scan that tripped early:
        let s_sw = storage();
        let mut sw = scan(&heap, &index, &s_sw, 500, 50);
        collect_rows(&mut sw).unwrap();
        let sw_io = s_sw.clock().snapshot().io_ns;
        assert!(sw.switched());
        assert!(sw_io > full_io, "cliff: {sw_io} vs full {full_io}");
    }

    #[test]
    fn zero_estimate_switches_immediately() {
        let (heap, index) = table(1000);
        let s = storage();
        let mut sw = scan(&heap, &index, &s, 100, 0);
        let rows = collect_rows(&mut sw).unwrap();
        assert!(sw.switched());
        assert_eq!(sw.index_tuples(), 0);
        assert!(!rows.is_empty());
        // Full-scan phase emits in physical order.
        let ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_result_never_switches() {
        let (heap, index) = table(1000);
        let s = storage();
        let mut sw = scan(&heap, &index, &s, 0, 10);
        assert!(collect_rows(&mut sw).unwrap().is_empty());
        assert!(!sw.switched());
    }
}
