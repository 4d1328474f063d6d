//! Smooth Scan as a *parameterized path*: the inner side of an
//! index-nested-loop join (Section IV-B).
//!
//! "If Smooth Scan serves as an inner input to an INLJ join, the results
//! per join key could be produced in an arbitrary order. Smooth Scan thus
//! performs morphing per key value which reduces the number of repeated
//! and random accesses for that particular key" — and, one step further,
//! "by performing caching of additional (qualifying) tuples from the inner
//! input found along the way, INLJ morphs into a variant of Hash Join over
//! time, with the index used only when a tuple is not found in the cache."
//!
//! [`SmoothInnerPath`] implements exactly that: every heap page fetched
//! for one probe is *harvested* — all residual-qualifying tuples on it are
//! cached under their join keys — so later probes whose matches live on
//! already-visited pages are served without touching the device. Once
//! every heap page has been visited, the structure has fully morphed into
//! a hash table and the B+-tree is no longer consulted.

use std::collections::HashMap;
use std::sync::Arc;

use smooth_executor::{batch_size, BoxedOperator, Operator, Predicate, ScanFilter};
use smooth_index::BTreeIndex;
use smooth_storage::{HeapFile, PageView, Session, Storage};
use smooth_types::{
    ColumnBatch, ColumnBuffer, ColumnValues, ColumnVector, Error, PageId, Result, Row, Schema, Tid,
};

use crate::page_cache::PageIdCache;

/// Counters for the inner path's morphing progress.
#[derive(Debug, Clone, Copy, Default)]
pub struct InnerPathMetrics {
    /// Probe calls received.
    pub probes: u64,
    /// Probes answered entirely from the harvest cache.
    pub cache_only_probes: u64,
    /// Heap pages fetched (each at most once).
    pub pages_fetched: u64,
    /// Rows harvested into the cache.
    pub rows_harvested: u64,
    /// Whether the path has fully morphed into a hash table.
    pub fully_morphed: bool,
}

/// A morphing inner access path: B+-tree look-ups that harvest whole pages
/// into a by-key cache.
pub struct SmoothInnerPath {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    key_col: usize,
    /// Position of `key_col` among the harvested columns.
    key_slot: usize,
    /// Compiled residual, probed on *encoded* tuples during the harvest —
    /// non-qualifiers are never fully decoded.
    filter: ScanFilter,
    visited: PageIdCache,
    /// The slot count of each visited page, by page number: a TID past
    /// it is corruption, not a miss.
    slot_counts: Vec<u16>,
    /// TIDs of the key being probed (reused across keys).
    tids: Vec<Tid>,
    /// Every residual-qualifying tuple of the visited pages, in harvest
    /// order, as typed columns.
    harvested: ColumnBatch,
    /// Rows of `harvested` per (non-NULL) join key, in harvest order.
    by_key: HashMap<i64, Vec<u32>>,
    metrics: InnerPathMetrics,
}

impl SmoothInnerPath {
    /// Build an inner path over `index` (on `key_col` of `heap`);
    /// `residual` filters harvested rows.
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        key_col: usize,
        residual: Predicate,
    ) -> Self {
        let pages = heap.page_count();
        let filter = ScanFilter::new(residual, heap.schema());
        let harvested = ColumnBatch::for_schema(heap.schema());
        SmoothInnerPath {
            heap,
            index,
            storage,
            key_col,
            key_slot: key_col,
            filter,
            visited: PageIdCache::new(pages),
            slot_counts: vec![0; pages as usize],
            tids: Vec::new(),
            harvested,
            by_key: HashMap::new(),
            metrics: InnerPathMetrics::default(),
        }
    }

    /// Builder: harvest — and emit from [`SmoothInnerPath::probe`] — only
    /// the columns `cols` of the heap (strictly ascending ordinals; `None`
    /// = all). The join key must be among them: the harvest is keyed on
    /// it.
    pub fn with_columns(mut self, cols: Option<&[usize]>) -> Result<Self> {
        let kept = cols.map_or(Some(self.key_col), |c| c.iter().position(|&c| c == self.key_col));
        self.key_slot = kept.ok_or_else(|| Error::plan("inner path must keep its join key"))?;
        self.filter.narrow(self.heap.schema(), cols)?;
        self.harvested = ColumnBatch::for_schema(self.filter.schema());
        Ok(self)
    }

    /// The schema of the inner rows [`SmoothInnerPath::probe`] emits.
    pub fn schema(&self) -> &Schema {
        self.filter.schema()
    }

    /// Morphing counters.
    pub fn metrics(&self) -> InnerPathMetrics {
        self.metrics
    }

    fn harvest_page(&mut self, s: &mut Session, page_id: PageId) -> Result<()> {
        let page = s.read_heap_page(&self.heap, page_id)?;
        s.release();
        self.visited.insert(page_id);
        self.metrics.pages_fetched += 1;
        let view = PageView::new(&page)?;
        self.slot_counts[page_id.0 as usize] = view.slot_count();
        let tuples = view.iter().collect::<Result<Vec<_>>>()?;
        let first = self.harvested.physical_rows();
        let (inspected, _) = self.filter.fill(&tuples, &mut self.harvested)?;
        let keys = self.harvested.column_checked(self.key_slot)?;
        let ColumnValues::Int(ints) = keys.values() else {
            return Err(Error::exec("join key must be integer"));
        };
        let mut hash_ops = 0u64;
        for (row, &key) in ints.iter().enumerate().skip(first) {
            if !keys.is_null(row) {
                hash_ops += 1;
                self.by_key.entry(key).or_default().push(row as u32);
            }
        }
        self.metrics.rows_harvested += hash_ops;
        // One bulk charge per page: one inspect per slot, one hash op per
        // harvested row.
        s.charge_cpu(s.cpu().inspect_tuple_ns * inspected + s.cpu().hash_op_ns * hash_ops);
        Ok(())
    }

    /// Append all inner rows matching `key`, in harvest order, to
    /// `inner_cols` (one vector per inner column) and return how many
    /// there are. Pages are fetched at most once across the whole join;
    /// index and heap accesses go through `s`, released before a harvest
    /// inspects a page.
    pub fn probe(
        &mut self,
        s: &mut Session,
        key: i64,
        inner_cols: &mut [ColumnVector],
    ) -> Result<usize> {
        self.metrics.probes += 1;
        let cpu = *s.cpu();
        s.charge_cpu(cpu.hash_op_ns);
        // Once fully morphed this is the pure hash-join regime: the index
        // is no longer consulted.
        let mut fetched_any = false;
        if !self.metrics.fully_morphed {
            let mut tids = std::mem::take(&mut self.tids);
            self.index.probe_into(s, key, &mut tids);
            for &tid in &tids {
                s.charge_cpu(cpu.bitmap_op_ns);
                if !self.visited.contains(tid.page) {
                    self.harvest_page(s, tid.page)?;
                    fetched_any = true;
                }
                let slots = self.slot_counts[tid.page.0 as usize];
                if tid.slot >= slots {
                    return Err(Error::corrupt(format!("TID {tid} past its page's {slots} slots")));
                }
            }
            self.tids = tids;
            self.metrics.fully_morphed = self.visited.len() == self.heap.page_count();
        }
        self.metrics.cache_only_probes += u64::from(!fetched_any);
        let rows = self.by_key.get(&key).map_or(&[][..], Vec::as_slice);
        for (dst, src) in inner_cols.iter_mut().zip(self.harvested.columns()) {
            dst.extend_gather(src, rows);
        }
        Ok(rows.len())
    }
}

/// Index-nested-loop join whose inner side is a [`SmoothInnerPath`] — the
/// Section IV-B "morphable join" sketch made concrete. Shaped like the
/// executor's `IndexNestedLoopJoin`: outer morsels probe to completion
/// into one output buffer, outer columns gathering once per morsel.
pub struct SmoothIndexNestedLoopJoin {
    outer: BoxedOperator,
    outer_col: usize,
    inner: SmoothInnerPath,
    schema: Schema,
    /// Outer physical row of each joined row of the morsel being probed.
    matched: Vec<u32>,
    out: ColumnBuffer,
}

impl SmoothIndexNestedLoopJoin {
    /// `outer.outer_col = inner.key_col` via the inner path's index.
    pub fn new(outer: BoxedOperator, outer_col: usize, inner: SmoothInnerPath) -> Self {
        let schema = outer.schema().join(inner.schema());
        let out = ColumnBuffer::for_schema(&schema);
        SmoothIndexNestedLoopJoin { outer, outer_col, inner, schema, matched: Vec::new(), out }
    }

    /// The inner path's morphing counters.
    pub fn inner_metrics(&self) -> InnerPathMetrics {
        self.inner.metrics()
    }

    /// Pull one outer morsel and probe the morphing inner path for each of
    /// its live rows, matches in harvest order. Returns `false` at outer
    /// exhaustion.
    fn advance(&mut self, max: usize) -> Result<bool> {
        let Some(outer) = self.outer.next_columns(max)? else { return Ok(false) };
        let key_col = outer.column_checked(self.outer_col)?;
        let out = self.out.fill();
        let (outer_cols, inner_cols) = out.columns_mut().split_at_mut(outer.width());
        self.matched.clear();
        let storage = self.inner.storage.clone();
        let s = &mut storage.session();
        for row in outer.live_rows().filter(|&row| !key_col.is_null(row)) {
            let joined = self.inner.probe(s, key_col.int(row)?, inner_cols)?;
            self.matched.extend(std::iter::repeat_n(row as u32, joined));
        }
        s.release();
        for (dst, src) in outer_cols.iter_mut().zip(outer.columns()) {
            dst.extend_gather(src, &self.matched);
        }
        out.commit_rows(self.matched.len());
        s.charge_cpu(s.cpu().emit_tuple_ns * self.matched.len() as u64);
        Ok(true)
    }
}

impl Operator for SmoothIndexNestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        self.out.reset();
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        while self.out.pending() < max && self.advance(max)? {}
        Ok(self.out.pop_columns(max))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        while self.out.is_drained() && self.advance(batch_size())? {}
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.out.reset();
        self.outer.close()
    }

    fn label(&self) -> String {
        format!(
            "SmoothIndexNestedLoopJoin [{} ⋈ {} via {}]",
            self.outer.label(),
            self.inner.heap.name(),
            self.inner.index.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::operator::ValuesOp;
    use smooth_executor::{collect_rows, IndexNestedLoopJoin, JoinType};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Value};

    /// Inner table: `fanout` rows per key, each stripe a scrambled
    /// permutation of the keys so one key's matches scatter across pages
    /// (7919 is coprime with all test key counts).
    fn inner_table(keys: i64, fanout: i64) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("v", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("inner", schema);
        for rep in 0..fanout {
            for j in 0..keys {
                let k = (j * 7919 + rep * 13) % keys;
                l.push(&Row::new(vec![Value::Int(k), Value::Int(rep), Value::str("x".repeat(60))]))
                    .unwrap();
            }
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("inner_k", &heap, 0).unwrap());
        (heap, index)
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 8,
        })
    }

    fn outer(keys: &[i64]) -> BoxedOperator {
        let schema = Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        Box::new(ValuesOp::new(
            schema,
            keys.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect(),
        ))
    }

    fn canonical(rows: Vec<Row>) -> Vec<(i64, i64, i64)> {
        let mut v: Vec<(i64, i64, i64)> = rows
            .iter()
            .map(|r| (r.int(0).unwrap(), r.int(1).unwrap(), r.int(2).unwrap()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn agrees_with_plain_inlj() {
        let (heap, index) = inner_table(50, 6);
        let keys: Vec<i64> = (0..120).map(|i| (i * 7) % 55).collect(); // some misses
        let s1 = storage();
        let mut plain = IndexNestedLoopJoin::new(
            outer(&keys),
            0,
            Arc::clone(&heap),
            Arc::clone(&index),
            Predicate::True,
            JoinType::Inner,
            s1,
        );
        let expected = canonical(collect_rows(&mut plain).unwrap());
        let s2 = storage();
        let inner = SmoothInnerPath::new(heap, index, s2, 0, Predicate::True);
        let mut smooth = SmoothIndexNestedLoopJoin::new(outer(&keys), 0, inner);
        let got = canonical(collect_rows(&mut smooth).unwrap());
        assert_eq!(got, expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn repeated_keys_hit_the_harvest_cache() {
        let (heap, index) = inner_table(40, 5);
        // Every key probed three times.
        let keys: Vec<i64> = (0..40).chain(0..40).chain(0..40).collect();
        let s = storage();
        let inner = SmoothInnerPath::new(heap, index, s.clone(), 0, Predicate::True);
        let mut join = SmoothIndexNestedLoopJoin::new(outer(&keys), 0, inner);
        collect_rows(&mut join).unwrap();
        let m = join.inner_metrics();
        assert_eq!(m.probes, 120);
        assert!(m.cache_only_probes >= 80, "repeat probes served from cache: {m:?}");
        // Pages fetched at most once each despite 120 probes.
        assert!(m.pages_fetched <= 40, "{m:?}");
    }

    #[test]
    fn morphs_fully_into_a_hash_join() {
        let (heap, index) = inner_table(30, 4);
        let all_keys: Vec<i64> = (0..30).collect();
        let s = storage();
        let inner = SmoothInnerPath::new(Arc::clone(&heap), index, s.clone(), 0, Predicate::True);
        let mut join = SmoothIndexNestedLoopJoin::new(outer(&all_keys), 0, inner);
        collect_rows(&mut join).unwrap();
        let m = join.inner_metrics();
        assert!(m.fully_morphed, "{m:?}");
        assert_eq!(m.pages_fetched, heap.page_count() as u64);
        // A second pass over every key must not touch the device at all.
        let io_before = s.io_snapshot().pages_read;
        let mut join2_inner = join.inner;
        let mut cols = ColumnBatch::for_schema(heap.schema());
        for k in 0..30 {
            assert_eq!(join2_inner.probe(&mut s.session(), k, cols.columns_mut()).unwrap(), 4);
        }
        assert_eq!(s.io_snapshot().pages_read, io_before, "pure hash-join regime");
    }

    #[test]
    fn fetches_fewer_pages_than_plain_inlj_under_fanout() {
        let (heap, index) = inner_table(600, 6);
        let keys: Vec<i64> = (0..600).collect();
        // Plain INLJ with a tiny pool re-reads pages per duplicate TID.
        let s1 = storage();
        let mut plain = IndexNestedLoopJoin::new(
            outer(&keys),
            0,
            Arc::clone(&heap),
            Arc::clone(&index),
            Predicate::True,
            JoinType::Inner,
            s1.clone(),
        );
        collect_rows(&mut plain).unwrap();
        let plain_reads = s1.io_snapshot().pages_read;
        let s2 = storage();
        let inner = SmoothInnerPath::new(heap, index, s2.clone(), 0, Predicate::True);
        let mut smooth = SmoothIndexNestedLoopJoin::new(outer(&keys), 0, inner);
        collect_rows(&mut smooth).unwrap();
        let smooth_reads = s2.io_snapshot().pages_read;
        assert!(
            smooth_reads < plain_reads,
            "harvesting must cut page traffic: {smooth_reads} vs {plain_reads}"
        );
    }

    #[test]
    fn narrowed_inner_path_harvests_only_its_columns() {
        let (heap, index) = inner_table(20, 4);
        let keys: Vec<i64> = (0..25).collect();
        let path = |cols: Option<&[usize]>| {
            SmoothInnerPath::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                storage(),
                0,
                Predicate::True,
            )
            .with_columns(cols)
        };
        let mut full = SmoothIndexNestedLoopJoin::new(outer(&keys), 0, path(None).unwrap());
        // `v` and the pad are neither read nor emitted: the harvest
        // holds `k` alone.
        let narrow = path(Some(&[0])).unwrap();
        assert_eq!(narrow.schema().len(), 1);
        let mut narrow = SmoothIndexNestedLoopJoin::new(outer(&keys), 0, narrow);
        let expected: Vec<Row> = collect_rows(&mut full)
            .unwrap()
            .iter()
            .map(|r| Row::new(vec![r.get(0).clone(), r.get(1).clone()]))
            .collect();
        assert_eq!(collect_rows(&mut narrow).unwrap(), expected);
        assert_eq!(expected.len(), 80);
        // The harvest is keyed on the join key: it cannot be dropped.
        assert!(path(Some(&[1, 2])).is_err());
    }

    #[test]
    fn residual_filters_harvested_rows() {
        let (heap, index) = inner_table(20, 4);
        let s = storage();
        let mut rows = ColumnBatch::for_schema(heap.schema());
        let mut inner = SmoothInnerPath::new(heap, index, s.clone(), 0, Predicate::int_lt(1, 2));
        let session = &mut s.session();
        let found = inner.probe(session, 5, rows.columns_mut()).unwrap();
        assert_eq!(found, 2, "only v < 2 qualifies");
        assert_eq!(inner.probe(session, 99, rows.columns_mut()).unwrap(), 0);
        rows.commit_rows(found);
        assert!(rows.into_rows().iter().all(|r| r.int(0).unwrap() == 5 && r.int(1).unwrap() < 2));
    }
}
