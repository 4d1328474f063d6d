//! The Smooth Scan operator (Sections III–IV).
//!
//! Smooth Scan is driven by the B+-tree range cursor, exactly like an index
//! scan — but instead of fetching one tuple per probe it *morphs*:
//!
//! * **Mode 0** (under every trigger but Eager): behave as a traditional
//!   index scan until the trigger cardinality is exceeded, recording
//!   produced tuples in the Tuple-ID cache when a later phase can revisit
//!   their pages. Under [`Trigger::Never`] Mode 0 covers the whole range:
//!   that is the engine's Index Scan.
//! * **Mode 1 — Entire Page Probe**: examine *all* records of each heap
//!   page fetched, trading CPU for I/O (never visit a page twice).
//! * **Mode 2(+) — Flattening Access**: fetch a growing region of adjacent
//!   pages per probe, replacing random with sequential I/O; the region
//!   size is owned by the [`MorphPolicy`].
//!
//! Under [`Trigger::Switch`] the scan is Section VI-F's Switch Scan: when
//! Mode 0's trigger fires it drops the cursor and, instead of morphing,
//! reads the whole heap from page 0 in full-scan readahead runs — the
//! performance cliff of Fig. 11.
//!
//! Already-visited pages are skipped via the Page-ID cache (the ✗ marks of
//! Fig. 3). With an interesting order to respect, qualifying tuples found
//! ahead of the cursor wait in the partitioned Result Cache; without one,
//! they are emitted the moment they are found (Section IV-B).

use std::ops::Bound;
use std::sync::Arc;

use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::{fill_from, slot_tuples, Operator, PageQueue, Predicate, ScanFilter};
use smooth_index::{BTreeIndex, IndexCursor};
use smooth_storage::{HeapFile, PageView, Session, Storage};
use smooth_types::{
    ColumnBatch, ColumnBuffer, Error, PageId, Result, Row, Schema, Tid, TupleLayout,
};

use crate::cost_model::{CostModel, TableGeometry};
use crate::page_cache::PageIdCache;
use crate::policy::{MorphPolicy, PolicyKind};
use crate::result_cache::{ResultCache, ResultCacheStats};
use crate::trigger::Trigger;
use crate::tuple_cache::{unproduced, TupleIdCache};

/// Configuration of one Smooth Scan instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothScanConfig {
    /// Morphing policy (ignored before the trigger fires).
    pub policy: PolicyKind,
    /// Morphing trigger strategy.
    pub trigger: Trigger,
    /// Respect the index key order (engage the Result Cache).
    pub ordered: bool,
    /// Region-size cap in pages (2048 = 16 MB, the paper's optimum).
    pub max_region_pages: u32,
    /// Result-Cache key-range partitions (Section IV-A).
    pub result_cache_partitions: usize,
}

impl Default for SmoothScanConfig {
    fn default() -> Self {
        SmoothScanConfig {
            policy: PolicyKind::Elastic,
            trigger: Trigger::Eager,
            ordered: false,
            max_region_pages: MorphPolicy::DEFAULT_MAX_REGION,
            result_cache_partitions: 16,
        }
    }
}

impl SmoothScanConfig {
    /// The paper's default: Eager + Elastic (Section VI).
    pub fn eager_elastic() -> Self {
        Self::default()
    }

    /// Cap morphing at Mode 1 (Fig. 6's "Entire Page Probe" ablation).
    pub fn mode1_only(mut self) -> Self {
        self.max_region_pages = 1;
        self
    }

    /// Builder: set the policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: set the trigger.
    pub fn with_trigger(mut self, trigger: Trigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Builder: respect key order.
    pub fn with_order(mut self, ordered: bool) -> Self {
        self.ordered = ordered;
        self
    }
}

/// Counters exposed after execution (Figs. 6–9 are plotted from these).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmoothScanMetrics {
    /// Rows returned to the parent operator.
    pub tuples_emitted: u64,
    /// Rows produced by the traditional phase (Mode 0).
    pub mode0_tuples: u64,
    /// Morphing regions processed.
    pub regions: u64,
    /// Pages processed in Mode 1 (single-page regions).
    pub mode1_pages: u64,
    /// Pages processed in Mode 2 (flattening regions).
    pub mode2_pages: u64,
    /// Pages fetched by morphing (`#P_seen`).
    pub pages_fetched: u64,
    /// Fetched pages holding at least one result (`#P_res`).
    pub pages_with_results: u64,
    /// Largest region used.
    pub max_region_pages: u32,
    /// Whether a non-Eager trigger fired.
    pub triggered: bool,
    /// Result-Cache counters (ordered mode only).
    pub cache: ResultCacheStats,
}

impl SmoothScanMetrics {
    /// Morphing accuracy (Fig. 9b): result pages over checked pages.
    pub fn morphing_accuracy(&self) -> Option<f64> {
        (self.pages_fetched > 0).then(|| self.pages_with_results as f64 / self.pages_fetched as f64)
    }

    /// Result-Cache hit rate (Fig. 9a): hits over tuple requests.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        (self.cache.requests > 0).then(|| self.cache.hits as f64 / self.cache.requests as f64)
    }
}

/// The morphing access path.
pub struct SmoothScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    key_col: usize,
    lo: Bound<i64>,
    hi: Bound<i64>,
    /// Compiled `key range AND residual` filter, probed on encoded tuples.
    filter: ScanFilter,
    /// Decoder for the tuples ordered mode emits one at a time: the
    /// driving tuple and Result-Cache hits.
    layout: TupleLayout,
    config: SmoothScanConfig,
    model: CostModel,
    /// Result-Cache memory budget in arena bytes (0 = unbudgeted).
    mem_bytes: usize,
    // run-time state
    cursor: Option<IndexCursor>,
    page_cache: PageIdCache,
    tuple_cache: Option<TupleIdCache>,
    result_cache: Option<ResultCache>,
    policy: MorphPolicy,
    traditional_until: Option<u64>,
    /// Under the Switch trigger, once it fired: the next heap page to read.
    heap_next: Option<u32>,
    /// An unordered region's fetched pages, not yet inspected.
    queue: PageQueue,
    /// The open region: its size, the pages inspected and those holding a
    /// result so far.
    region: (u32, u64, u64),
    /// Pending output, a columnar FIFO. Queued region pages decode their
    /// qualifiers straight into it a page at a time; Mode-0 tuples,
    /// Result-Cache hits and ordered driving tuples decode into it a
    /// tuple at a time.
    out: ColumnBuffer,
    metrics: SmoothScanMetrics,
}

impl SmoothScan {
    /// Build a Smooth Scan over `index` (on `key_col` of `heap`) for keys
    /// in `[lo, hi]`, with `residual` filtering the remaining columns.
    #[allow(clippy::too_many_arguments)] // mirrors the access-path ctor shape
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        key_col: usize,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
        config: SmoothScanConfig,
    ) -> Self {
        let full_pred =
            Predicate::and(vec![Predicate::IntRange { col: key_col, lo, hi }, residual]);
        let filter = ScanFilter::new(full_pred, heap.schema());
        let model = CostModel::new(
            TableGeometry::new(
                (heap.schema().estimated_tuple_width(16) as u64).max(1),
                heap.tuple_count(),
            ),
            storage.device(),
        );
        let pages = heap.page_count();
        let out = ColumnBuffer::for_schema(heap.schema());
        let layout = TupleLayout::all(heap.schema());
        SmoothScan {
            heap,
            index,
            storage,
            key_col,
            lo,
            hi,
            filter,
            layout,
            config,
            model,
            mem_bytes: 0,
            cursor: None,
            page_cache: PageIdCache::new(pages),
            tuple_cache: None,
            result_cache: None,
            policy: MorphPolicy::new(config.policy, config.max_region_pages),
            traditional_until: None,
            heap_next: None,
            queue: PageQueue::default(),
            region: (0, 0, 0),
            out,
            metrics: SmoothScanMetrics::default(),
        }
    }

    /// Builder: emit only the columns `cols` of the heap (strictly
    /// ascending ordinals; `None` = all). The filter still reads the key
    /// and whatever the residual names; every emission path — region
    /// fills, Mode 0, the ordered driving tuple and Result-Cache hits —
    /// decodes exactly `cols`.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        let table = self.heap.schema();
        self.out = self.filter.narrow(table, cols)?;
        self.layout = cols.map_or_else(|| TupleLayout::all(table), |c| TupleLayout::new(table, c));
        Ok(self)
    }

    /// Builder: the Result Cache's memory budget in bytes (0, the
    /// default, = unbudgeted). Beyond it, the cache spills the partitions
    /// furthest from the cursor (see [`ResultCache`]); rows never change.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Execution counters (valid during and after execution).
    pub fn metrics(&self) -> SmoothScanMetrics {
        let mut m = self.metrics;
        if let Some(rc) = &self.result_cache {
            m.cache = rc.stats();
        }
        m
    }

    /// The analytical model for this scan's table and device.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Fetch every unvisited page of the region `[start, start+len)` and
    /// mark it visited. Ordered mode inspects each run at once: the driving
    /// tuple (if it qualifies) is emitted, other finds go to the Result
    /// Cache, and the region closes. Unordered mode queues the runs for
    /// [`SmoothScan::fill`] to inspect a morsel at a time; the region
    /// closes when its last page is inspected, always before the cursor's
    /// next probe.
    ///
    /// Inspection is vectorized: each page's tuples are located and the
    /// predicate evaluated over them in one pass (only the key/residual
    /// columns are decoded for non-qualifiers), and the virtual clock is
    /// charged once per page rather than per tuple, with totals identical
    /// to the per-tuple accounting. In unordered mode the qualifiers decode
    /// *straight into column vectors*; in ordered mode they are not decoded
    /// at all — the Result Cache keeps their validated bytes until the
    /// cursor reaches them. No `Row` materializes either way. The session
    /// holds the storage lock for each run's read only, never across the
    /// inspection.
    fn process_region(&mut self, s: &mut Session, driving: Tid, len: u32) -> Result<()> {
        let end = (driving.page.0 + len).min(self.heap.page_count());
        let cpu = *s.cpu();
        self.region = (len, 0, 0);
        let mut p = driving.page.0;
        while p < end {
            s.charge_cpu(cpu.bitmap_op_ns);
            if self.page_cache.contains(PageId(p)) {
                p += 1;
                continue;
            }
            let run = self.page_cache.unvisited_run(PageId(p), end - p);
            let pages = s.read_heap_run(&self.heap, PageId(p), run)?;
            s.charge_cpu(cpu.hash_op_ns * run as u64); // the pool probes
            s.release();
            p += run.max(1);
            for (pid, _) in &pages {
                self.page_cache.insert(*pid);
            }
            if !self.config.ordered {
                self.queue.extend(pages);
                continue;
            }
            // The slots still to inspect on the current page and their
            // encoded tuples, reused across the run's pages.
            let (mut slots, mut tuples) = (Vec::new(), Vec::new());
            for (pid, buf) in &pages {
                slots.clear();
                tuples.clear();
                let (tc, view) = (self.tuple_cache.as_ref(), PageView::new(buf)?);
                let bitmap_ops = unproduced(tc, *pid, &view, &mut tuples, |s| slots.push(s))?;
                let emitted = self.filter.select(&tuples)? as u64;
                self.filter.check_selected_text(&tuples)?;
                smooth_storage::tap_rows(tuples.len() as u64, emitted);
                let keys = self
                    .filter
                    .probed_column(self.key_col)
                    .ok_or_else(|| Error::exec("smooth scan filter does not read its key"))?;
                for &i in self.filter.selected() {
                    let i = i as usize;
                    let tid = Tid { page: *pid, slot: slots[i] };
                    if tid == driving {
                        let out = self.out.fill();
                        self.layout.decode_into(tuples[i], out.columns_mut())?;
                        out.commit_rows(1);
                    } else {
                        let cache = self.result_cache.as_mut().ok_or_else(not_open)?;
                        cache.insert(s, keys.int(i)?, tid, tuples[i])?;
                    }
                }
                s.charge_cpu(
                    cpu.bitmap_op_ns * bitmap_ops
                        + cpu.inspect_tuple_ns * tuples.len() as u64
                        + cpu.emit_tuple_ns * emitted,
                );
                self.region.1 += 1;
                self.region.2 += u64::from(emitted > 0);
            }
        }
        if self.config.ordered {
            self.close_region();
        }
        Ok(())
    }

    /// Fold the region's outcome into the policy and the metrics (a region
    /// that processed no page leaves both alone).
    fn close_region(&mut self) {
        let (len, pages, with_results) = std::mem::take(&mut self.region);
        if pages == 0 {
            return;
        }
        self.metrics.regions += 1;
        self.metrics.pages_fetched += pages;
        self.metrics.pages_with_results += with_results;
        self.metrics.max_region_pages = self.metrics.max_region_pages.max(len);
        if len <= 1 {
            self.metrics.mode1_pages += pages;
        } else {
            self.metrics.mode2_pages += pages;
        }
        self.policy.observe_region(pages, with_results);
    }

    /// Buffer up to `max` rows: inspect queued region pages (see
    /// [`fill_from`]) while any wait, closing the region with its
    /// last one, and advance the cursor while none do.
    fn fill(&mut self, s: &mut Session, max: usize) -> Result<()> {
        while self.out.pending() < max {
            if self.queue.is_empty() {
                if !self.advance(s, max)? {
                    break;
                }
                continue;
            }
            let (op_ns, tc, out) = (s.cpu().bitmap_op_ns, self.tuple_cache.as_ref(), &mut self.out);
            let (pages, with_results) =
                fill_from(&mut self.queue, s, max, &mut self.filter, out, |p, v, t| {
                    Ok(op_ns * unproduced(tc, p, v, t, |_| {})?)
                })?;
            self.region.1 += pages;
            self.region.2 += with_results;
            if !self.queue.is_empty() {
                break; // the next page starts the next morsel
            }
            self.close_region();
        }
        Ok(())
    }

    /// Advance the driving cursor: in Mode 0 by one walk (see
    /// [`SmoothScan::mode0`]), afterwards by one probe. Any rows this
    /// produces — Mode-0 tuples, a Result-Cache hit or the ordered driving
    /// tuple — append to the columnar output buffer in emission order; an
    /// unordered region's pages join the page queue. Returns `false` at
    /// cursor exhaustion (after a switch, at the heap's end).
    fn advance(&mut self, s: &mut Session, max: usize) -> Result<bool> {
        if let Some(page) = self.heap_next {
            return self.heap_run(s, page);
        }
        let produced = self.metrics.mode0_tuples;
        if let Some(limit) = self.traditional_until.filter(|&limit| produced < limit) {
            let left = usize::try_from(limit - produced).unwrap_or(usize::MAX);
            let walk = (max - self.out.pending()).min(left);
            return self.mode0(s, walk);
        }
        let cursor = self.cursor.as_mut().ok_or_else(not_open)?;
        let Some((key, tid)) = cursor.next_in(s) else {
            return Ok(false);
        };
        if let Some(rc) = self.result_cache.as_mut() {
            // Record the cursor position; the eviction sweep runs once
            // per emitted batch (see `flush_cache_eviction`), not per key.
            rc.defer_advance(key);
        }
        // Mode 0 produced its limit: the trigger fires on this entry.
        if self.traditional_until.take().is_some() {
            self.metrics.triggered = true;
            if matches!(self.config.trigger, Trigger::Switch { .. }) {
                // Switch Scan abandons the index for the whole heap.
                self.cursor = None;
                return self.heap_run(s, 0);
            }
        }
        // Smooth phase.
        if self.config.ordered {
            let cache = self.result_cache.as_mut().ok_or_else(not_open)?;
            if let Some(tuple) = cache.probe(s, key, tid) {
                s.release();
                let out = self.out.fill();
                self.layout.decode_into(tuple, out.columns_mut())?;
                out.commit_rows(1);
                return Ok(true);
            }
        }
        s.charge_cpu(s.cpu().bitmap_op_ns);
        if self.page_cache.contains(tid.page) {
            // Page fully examined before: the tuple either did not
            // qualify or was already produced.
            return Ok(true);
        }
        let region = self.policy.region_pages();
        self.process_region(s, tid, region)?;
        Ok(true)
    }

    /// Switch Scan after the switch: queue the readahead run of the heap
    /// starting at `page` as a region. Returns `false` past the last page.
    fn heap_run(&mut self, s: &mut Session, page: u32) -> Result<bool> {
        let len = FULL_SCAN_READAHEAD.min(self.heap.page_count().saturating_sub(page));
        self.heap_next = Some(page + len);
        if len > 0 {
            self.process_region(s, Tid { page: PageId(page), slot: 0 }, len)?;
        }
        Ok(len > 0)
    }

    /// Batch-boundary Result-Cache sweep: applied once per call, so
    /// ordered-mode eviction bookkeeping amortizes over whole morsels.
    fn flush_cache_eviction(&mut self) {
        if let Some(rc) = self.result_cache.as_mut() {
            rc.flush_advance();
        }
    }

    /// Mode 0, the traditional index scan: walk at most `n` index entries
    /// — each yields at most one row, so with `n` capped at the trigger
    /// cardinality minus the tuples produced the walk never passes the
    /// trigger point — fetching their pages on one storage session, then
    /// inspect them in one pass: one inspect per entry, one emit per
    /// qualifier, whose TIDs the Tuple-ID cache records. Returns `false`
    /// once the range is exhausted.
    fn mode0(&mut self, s: &mut Session, n: usize) -> Result<bool> {
        let cursor = self.cursor.as_mut().ok_or_else(not_open)?;
        let (mut fetched, mut tids) = (Vec::with_capacity(n), Vec::with_capacity(n));
        while fetched.len() < n {
            let Some((key, tid)) = cursor.next_in(s) else { break };
            if let Some(rc) = self.result_cache.as_mut() {
                rc.defer_advance(key);
            }
            fetched.push((s.read_heap_page(&self.heap, tid.page)?, tid.slot));
            tids.push(tid);
        }
        s.release();
        let (inspected, emitted) = self.filter.fill(&slot_tuples(&fetched)?, self.out.fill())?;
        s.charge_cpu(s.cpu().inspect_tuple_ns * inspected + s.cpu().emit_tuple_ns * emitted);
        if let Some(produced) = self.tuple_cache.as_mut() {
            for &i in self.filter.selected() {
                produced.insert(tids[i as usize])?;
            }
        }
        self.metrics.mode0_tuples += emitted;
        Ok(fetched.len() == n)
    }
}

/// `open` builds the cursor and, in ordered mode, the Result Cache.
fn not_open() -> Error {
    Error::exec("SmoothScan before open")
}

impl Operator for SmoothScan {
    fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    fn open(&mut self) -> Result<()> {
        if self.config.ordered && matches!(self.config.trigger, Trigger::Switch { .. }) {
            return Err(Error::exec(
                "an ordered SmoothScan cannot switch: the Result Cache needs the cursor",
            ));
        }
        self.cursor = Some(self.index.range(&self.storage, self.lo, self.hi));
        self.page_cache = PageIdCache::new(self.heap.page_count());
        self.queue.clear();
        self.region = (0, 0, 0);
        self.out.reset();
        self.metrics = SmoothScanMetrics::default();
        self.traditional_until = self.config.trigger.trigger_cardinality(&self.model);
        self.heap_next = None;
        // A trigger that never fires leaves no later phase to revisit
        // Mode 0's pages, and emits in cursor order: no Tuple-ID cache and
        // no Result Cache.
        let fires = self.config.trigger != Trigger::Never;
        self.tuple_cache = (fires && self.traditional_until.is_some())
            .then(|| TupleIdCache::new(self.heap.page_count(), self.heap.max_slots_per_page()));
        self.policy = MorphPolicy::new(
            if self.traditional_until.is_some() {
                self.config.trigger.post_trigger_policy(self.config.policy)
            } else {
                self.config.policy
            },
            self.config.max_region_pages,
        );
        self.result_cache = (fires && self.config.ordered).then(|| {
            ResultCache::new(
                &self.index.root_separators(),
                self.config.result_cache_partitions,
                self.mem_bytes,
                self.storage.device(),
            )
        });
        Ok(())
    }

    /// Cursor probes run until a whole morsel is buffered, then it leaves
    /// in one call. A Mode-0 walk stops at the trigger cardinality and
    /// region growth advances per probe, so the batch boundary never
    /// coarsens the switch logic; it only amortizes emission and, on one
    /// storage session, the lock and clock traffic of the probes.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.flush_cache_eviction();
        let max = max.max(1);
        let storage = self.storage.clone();
        self.fill(&mut storage.session(), max)?;
        let batch = self.out.pop_columns(max);
        self.metrics.tuples_emitted += batch.as_ref().map_or(0, |b| b.len() as u64);
        Ok(batch)
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.flush_cache_eviction();
        let storage = self.storage.clone();
        self.fill(&mut storage.session(), 1)?;
        let row = self.out.pop_row();
        self.metrics.tuples_emitted += u64::from(row.is_some());
        Ok(row)
    }

    fn close(&mut self) -> Result<()> {
        if let Some(rc) = &self.result_cache {
            self.metrics.cache = rc.stats();
        }
        self.cursor = None;
        if let Some(rc) = self.result_cache.as_mut() {
            rc.clear();
        }
        self.queue.clear();
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        let (heap, index, cols) =
            (self.heap.name(), self.index.name(), self.filter.columns_label());
        match self.config.trigger {
            Trigger::Never => format!("IndexScan({heap} via {index}){cols}"),
            Trigger::Switch { estimated_cardinality } => {
                format!("SwitchScan({heap} via {index}, estimate={estimated_cardinality}){cols}")
            }
            trigger => format!(
                "SmoothScan({heap} via {index}, {:?}, {trigger:?}{}){cols}",
                self.config.policy,
                if self.config.ordered { ", ordered" } else { "" },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::collect_rows;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema, Value};

    /// A micro-benchmark-shaped table: c0 = row number, c1 pseudo-random
    /// in [0, 1000), pad to make tuples non-trivial.
    fn table(rows: i64) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            let c1 = (i.wrapping_mul(2654435761)) % 1000;
            let c1 = (c1 + 1000) % 1000;
            l.push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(40))]))
                .unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i_c1", &heap, 1).unwrap());
        (heap, index)
    }

    fn storage(pool: usize) -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: pool,
        })
    }

    fn smooth(
        heap: &Arc<HeapFile>,
        index: &Arc<BTreeIndex>,
        s: &Storage,
        hi: i64,
        config: SmoothScanConfig,
    ) -> SmoothScan {
        SmoothScan::new(
            Arc::clone(heap),
            Arc::clone(index),
            s.clone(),
            1,
            Bound::Included(0),
            Bound::Excluded(hi),
            Predicate::True,
            config,
        )
    }

    fn oracle(heap: &Arc<HeapFile>, s: &Storage, hi: i64) -> Vec<Row> {
        let mut full = smooth_executor::FullTableScan::new(
            Arc::clone(heap),
            s.clone(),
            Predicate::int_half_open(1, 0, hi),
        );
        let mut rows = collect_rows(&mut full).unwrap();
        rows.sort_by_key(|r| (r.int(1).unwrap(), r.int(0).unwrap()));
        rows
    }

    fn sorted_by_key(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|r| (r.int(1).unwrap(), r.int(0).unwrap()));
        rows
    }

    #[test]
    fn unordered_smooth_scan_matches_oracle() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 300);
        for policy in [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic] {
            let mut ss =
                smooth(&heap, &index, &s, 300, SmoothScanConfig::default().with_policy(policy));
            let rows = sorted_by_key(collect_rows(&mut ss).unwrap());
            assert_eq!(rows, expected, "policy {policy:?}");
        }
    }

    #[test]
    fn ordered_smooth_scan_preserves_key_order_and_results() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 400);
        let mut ss = smooth(&heap, &index, &s, 400, SmoothScanConfig::default().with_order(true));
        let rows = collect_rows(&mut ss).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "key order preserved");
        assert_eq!(sorted_by_key(rows), expected);
        let m = ss.metrics();
        assert!(m.cache.hits > 0, "result cache served tuples: {:?}", m.cache);
        assert!(m.cache.requests >= m.cache.hits);
    }

    #[test]
    fn no_duplicates_at_full_selectivity() {
        let (heap, index) = table(2000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(rows.len(), 2000);
        let mut ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000, "every tuple exactly once");
    }

    #[test]
    fn never_fetches_more_pages_than_the_heap() {
        let (heap, index) = table(5000);
        let s = storage(32);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(m.pages_fetched <= heap.page_count() as u64);
        assert_eq!(m.pages_fetched, heap.page_count() as u64, "100% sel reads all pages once");
    }

    #[test]
    fn residual_predicates_apply() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = SmoothScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            1,
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::int_lt(0, 1000),
            SmoothScanConfig::default(),
        );
        let rows = collect_rows(&mut ss).unwrap();
        assert!(rows.iter().all(|r| r.int(0).unwrap() < 1000 && r.int(1).unwrap() < 500));
        let mut full = smooth_executor::FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::And(vec![Predicate::int_half_open(1, 0, 500), Predicate::int_lt(0, 1000)]),
        );
        assert_eq!(rows.len(), collect_rows(&mut full).unwrap().len());
    }

    #[test]
    fn optimizer_trigger_runs_mode0_then_morphs_without_duplicates() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 600);
        let cfg = SmoothScanConfig::default().with_trigger(Trigger::OptimizerDriven {
            estimated_cardinality: 100,
            policy: PolicyKind::SelectivityIncrease,
        });
        let mut ss = smooth(&heap, &index, &s, 600, cfg);
        let rows = collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(m.triggered);
        assert_eq!(m.mode0_tuples, 100);
        assert_eq!(sorted_by_key(rows), expected, "no duplicates, no losses");
    }

    #[test]
    fn optimizer_trigger_not_reached_stays_traditional() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let cfg = SmoothScanConfig::default().with_trigger(Trigger::OptimizerDriven {
            estimated_cardinality: 1_000_000,
            policy: PolicyKind::Elastic,
        });
        let mut ss = smooth(&heap, &index, &s, 10, cfg);
        let rows = collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(!m.triggered);
        assert_eq!(m.pages_fetched, 0, "never morphed");
        assert_eq!(m.mode0_tuples as usize, rows.len());
    }

    fn never() -> SmoothScanConfig {
        SmoothScanConfig::default().with_trigger(Trigger::Never)
    }

    #[test]
    fn index_scan_emits_in_key_order() {
        let (heap, index) = table(3000);
        let s = storage(128);
        for ordered in [false, true] {
            let mut is = smooth(&heap, &index, &s, 300, never().with_order(ordered));
            let rows = collect_rows(&mut is).unwrap();
            let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(sorted_by_key(rows), oracle(&heap, &s, 300));
            // Mode 0 throughout: no trigger, no region, no Result Cache.
            let m = is.metrics();
            assert_eq!((m.triggered, m.pages_fetched, m.cache.requests), (false, 0, 0));
            assert_eq!(m.mode0_tuples, keys.len() as u64);
            assert!(is.label().starts_with("IndexScan(t via i_c1)"), "{}", is.label());
        }
    }

    #[test]
    fn index_scan_costs_grow_with_selectivity_sort_scan_reads_pages_once() {
        let (heap, index) = table(3000);
        // A pool far smaller than the heap, so the index scan's repeated
        // page visits actually hit the device (cold-cache regime).
        let s = storage(4);
        // Index scan, 50% selectivity: many random accesses, repeats.
        collect_rows(&mut smooth(&heap, &index, &s, 500, never())).unwrap();
        let is_io = s.io_snapshot();
        s.reset_metrics();
        s.flush_pool();
        let (lo, hi) = (Bound::Included(0), Bound::Excluded(500));
        let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
        let mut ss = smooth_executor::SortScan::new(h, i, s.clone(), lo, hi, Predicate::True);
        collect_rows(&mut ss).unwrap();
        let ss_io = s.io_snapshot();
        // Sort scan never rereads a heap page; index scan (tiny pool) does.
        assert!(is_io.pages_read > ss_io.distinct_pages);
        assert!(ss_io.io_requests < is_io.io_requests);
    }

    fn switch(estimate: u64) -> SmoothScanConfig {
        SmoothScanConfig::default()
            .with_trigger(Trigger::Switch { estimated_cardinality: estimate })
    }

    #[test]
    fn below_estimate_behaves_like_index_scan() {
        let (heap, index) = table(3000);
        let mut sw = smooth(&heap, &index, &storage(64), 20, switch(1000));
        let rows = collect_rows(&mut sw).unwrap();
        assert!(!sw.metrics().triggered);
        assert_eq!(rows.len() as u64, sw.metrics().mode0_tuples);
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "key order before the switch");
    }

    #[test]
    fn zero_estimate_switches_immediately() {
        let (heap, index) = table(5000);
        let s = storage(64);
        let mut sw = smooth(&heap, &index, &s, 100, switch(0));
        let rows = collect_rows(&mut sw).unwrap();
        let m = sw.metrics();
        assert!(m.triggered);
        assert_eq!((m.mode0_tuples, m.max_region_pages), (0, FULL_SCAN_READAHEAD));
        assert_eq!(m.regions, u64::from(heap.page_count().div_ceil(FULL_SCAN_READAHEAD)));
        let ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "heap order after the switch");
        assert_eq!(sorted_by_key(rows), oracle(&heap, &s, 100));
    }

    #[test]
    fn switch_pays_index_cost_plus_full_scan_cost() {
        let (heap, index) = table(3000);
        let s_full = storage(32);
        collect_rows(&mut smooth_executor::FullTableScan::new(
            Arc::clone(&heap),
            s_full.clone(),
            Predicate::int_half_open(1, 0, 500),
        ))
        .unwrap();
        let s_sw = storage(32);
        let mut sw = smooth(&heap, &index, &s_sw, 500, switch(50));
        collect_rows(&mut sw).unwrap();
        assert!(sw.metrics().triggered);
        let (sw_io, full_io) = (s_sw.clock().snapshot().io_ns, s_full.clock().snapshot().io_ns);
        assert!(sw_io > full_io, "cliff: {sw_io} vs full {full_io}");
    }

    #[test]
    fn sla_trigger_fires_from_cost_model() {
        let (heap, index) = table(5000);
        let s = storage(16);
        let model = CostModel::new(TableGeometry::new(64, 5000), DeviceProfile::custom("t", 1, 10));
        let bound = (2.0 * model.fs_cost_ns()) as u64;
        let mut ss = smooth(
            &heap,
            &index,
            &s,
            1000,
            SmoothScanConfig::default().with_trigger(Trigger::SlaDriven { bound_ns: bound }),
        );
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(rows.len(), 5000);
        assert!(ss.metrics().triggered, "100% selectivity must exceed any SLA trigger point");
    }

    #[test]
    fn mode1_only_never_flattens() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default().mode1_only());
        collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert_eq!(m.mode2_pages, 0);
        assert_eq!(m.max_region_pages, 1);
        assert_eq!(m.mode1_pages, heap.page_count() as u64);
    }

    #[test]
    fn greedy_converges_faster_than_elastic_on_uniform_low_selectivity() {
        let (heap, index) = table(6000);
        let s1 = storage(64);
        let mut greedy = smooth(
            &heap,
            &index,
            &s1,
            5,
            SmoothScanConfig::default().with_policy(PolicyKind::Greedy),
        );
        collect_rows(&mut greedy).unwrap();
        let greedy_pages = greedy.metrics().pages_fetched;
        let s2 = storage(64);
        let mut elastic = smooth(
            &heap,
            &index,
            &s2,
            5,
            SmoothScanConfig::default().with_policy(PolicyKind::Elastic),
        );
        collect_rows(&mut elastic).unwrap();
        let elastic_pages = elastic.metrics().pages_fetched;
        assert!(
            greedy_pages > elastic_pages,
            "greedy over-fetches at low selectivity: {greedy_pages} vs {elastic_pages}"
        );
    }

    #[test]
    fn smooth_scan_never_rereads_heap_pages() {
        let (heap, index) = table(4000);
        let s = storage(8); // tiny pool: rereads would hit the device
        let mut ss = smooth(&heap, &index, &s, 500, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        // distinct heap pages fetched == pages read from the heap file
        // (index touches add some, but heap pages are never re-read).
        assert_eq!(s.distinct_pages_for(heap.file_id()), ss.metrics().pages_fetched);
    }

    #[test]
    fn empty_range_and_empty_table() {
        let (heap, index) = table(1000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 0, SmoothScanConfig::default());
        assert!(collect_rows(&mut ss).unwrap().is_empty());
        let empty_schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
        ])
        .unwrap();
        let empty = Arc::new(HeapLoader::new_mem("e", empty_schema).finish().unwrap());
        let eidx = Arc::new(BTreeIndex::build_from_heap("ei", &empty, 1).unwrap());
        let mut ss = SmoothScan::new(
            empty,
            eidx,
            s,
            1,
            Bound::Unbounded,
            Bound::Unbounded,
            Predicate::True,
            SmoothScanConfig::default(),
        );
        assert!(collect_rows(&mut ss).unwrap().is_empty());
    }

    #[test]
    fn ordered_mode_with_spilling_still_correct() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 800);
        let cfg = SmoothScanConfig::default().with_order(true);
        // About fifty 59-byte tuples: heavy pressure.
        let mut ss = smooth(&heap, &index, &s, 800, cfg).with_mem_budget(3000);
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(sorted_by_key(rows.clone()), expected);
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(ss.metrics().cache.spilled > 0, "{:?}", ss.metrics().cache);
    }

    #[test]
    fn ordered_spill_charges_identically_across_protocols() {
        // PR 3 latent divergence, fixed by sweeping eviction before the
        // spill decision (`ResultCache::maybe_spill`): under a budget,
        // the columnar protocol defers the eviction sweep to morsel
        // boundaries, so the resident bytes could cross the budget
        // mid-batch and charge spill I/O the row-at-a-time protocol never
        // pays. Rows, clock totals and the Result Cache
        // counters must agree across both drivers, spilling or not — and
        // equal what the `Row`-holding cache this one replaced produced
        // on the same table (the pinned values below): only the storage
        // behind the map changed. The one counter that may differ by
        // driver is the `max_resident` high-water mark under spill: an
        // unspill counts its partition before the next sweep evicts the
        // ones behind the cursor, and the columnar driver sweeps later.
        let (heap, index) = table(3000);
        let pinned = |io_ns, max_resident, spilled| {
            let cache = ResultCacheStats {
                inserts: 2391,
                requests: 2400,
                hits: 2391,
                evicted: 2391,
                max_resident,
                resident: 0,
                spilled,
                unspilled: spilled,
            };
            (2400, 4195968035863205168u64, 1_070_130, io_ns, cache)
        };
        type Driver = fn(&mut dyn smooth_executor::Operator) -> smooth_types::Result<Vec<Row>>;
        let volcano: Driver = smooth_executor::collect_rows_volcano;
        // The budget is about fifty 59-byte tuples: heavy pressure.
        for (budget, driver, expected) in [
            (0, volcano, pinned(148, 2391, 0)),
            (0, collect_rows as Driver, pinned(148, 2391, 0)),
            (3000, volcano, pinned(23_122, 852, 4248)),
            (3000, collect_rows as Driver, pinned(23_122, 1278, 4248)),
        ] {
            let cfg = SmoothScanConfig::default().with_order(true);
            let s = storage(64);
            let mut ss = smooth(&heap, &index, &s, 800, cfg).with_mem_budget(budget);
            let rows = driver(&mut ss).unwrap();
            let (clock, cache) = (s.clock().snapshot(), ss.metrics().cache);
            let checksum = rows
                .iter()
                .fold(0u64, |h, r| h.wrapping_mul(31).wrapping_add(r.int(0).unwrap() as u64));
            assert_eq!(
                (rows.len(), checksum, clock.cpu_ns, clock.io_ns, cache),
                expected,
                "budget {budget}"
            );
            assert_eq!(s.io_snapshot().pages_read, 31);
            assert_eq!(cache.spilled > 0, budget > 0, "pressure must spill: {cache:?}");
        }
    }

    #[test]
    fn metrics_accuracy_reaches_one_at_high_selectivity() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        let acc = ss.metrics().morphing_accuracy().unwrap();
        assert!(acc > 0.99, "all pages contain results at 100% sel: {acc}");
    }
}
