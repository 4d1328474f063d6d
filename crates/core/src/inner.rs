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

use smooth_executor::{BoxedOperator, Operator, Predicate, ScanFilter};
use smooth_index::BTreeIndex;
use smooth_storage::{HeapFile, PageView, Storage};
use smooth_types::{PageId, Result, Row, Schema, Value};

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
    /// Compiled residual, probed on *encoded* tuples during the harvest —
    /// non-qualifiers are never fully decoded (the PR 2 `ScanFilter`
    /// selection pushdown, applied to the morphing INLJ).
    filter: ScanFilter,
    visited: PageIdCache,
    harvested: HashMap<i64, Vec<Row>>,
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
        SmoothInnerPath {
            heap,
            index,
            storage,
            key_col,
            filter,
            visited: PageIdCache::new(pages),
            harvested: HashMap::new(),
            metrics: InnerPathMetrics::default(),
        }
    }

    /// Morphing counters.
    pub fn metrics(&self) -> InnerPathMetrics {
        self.metrics
    }

    fn harvest_page(&mut self, page_id: PageId) -> Result<()> {
        let page = self.storage.read_heap_page(&self.heap, page_id)?;
        self.visited.insert(page_id);
        self.metrics.pages_fetched += 1;
        let cpu = *self.storage.cpu();
        let view = PageView::new(&page)?;
        let slots = view.slot_count();
        let mut hash_ops = 0u64;
        for slot in 0..slots {
            let bytes = view.get(slot)?;
            let Some(row) = self.filter.filter_decode(self.heap.schema(), bytes)? else {
                continue;
            };
            if let Value::Int(k) = row.get(self.key_col) {
                let k = *k;
                hash_ops += 1;
                self.harvested.entry(k).or_default().push(row);
                self.metrics.rows_harvested += 1;
            }
        }
        // Bulk per-page charge, identical totals to the per-tuple path:
        // one inspect per slot, one hash op per harvested row.
        self.storage
            .clock()
            .charge_cpu(cpu.inspect_tuple_ns * slots as u64 + cpu.hash_op_ns * hash_ops);
        Ok(())
    }

    /// All inner rows matching `key`, in harvest order. Pages are fetched
    /// at most once across the whole join.
    pub fn probe(&mut self, key: i64) -> Result<Vec<Row>> {
        self.metrics.probes += 1;
        let cpu = *self.storage.cpu();
        self.storage.clock().charge_cpu(cpu.hash_op_ns);
        if self.metrics.fully_morphed {
            // Pure hash-join regime: the index is no longer consulted.
            self.metrics.cache_only_probes += 1;
            return Ok(self.harvested.get(&key).cloned().unwrap_or_default());
        }
        let tids = self.index.probe(&self.storage, key);
        let mut fetched_any = false;
        for tid in tids {
            self.storage.clock().charge_cpu(cpu.bitmap_op_ns);
            if !self.visited.contains(tid.page) {
                self.harvest_page(tid.page)?;
                fetched_any = true;
            }
        }
        if !fetched_any {
            self.metrics.cache_only_probes += 1;
        }
        if self.visited.len() == self.heap.page_count() {
            self.metrics.fully_morphed = true;
        }
        Ok(self.harvested.get(&key).cloned().unwrap_or_default())
    }
}

/// Index-nested-loop join whose inner side is a [`SmoothInnerPath`] — the
/// Section IV-B "morphable join" sketch made concrete.
pub struct SmoothIndexNestedLoopJoin {
    outer: BoxedOperator,
    outer_col: usize,
    inner: SmoothInnerPath,
    schema: Schema,
    pending: Vec<Row>,
}

impl SmoothIndexNestedLoopJoin {
    /// `outer.outer_col = inner.key_col` via the inner path's index.
    pub fn new(outer: BoxedOperator, outer_col: usize, inner: SmoothInnerPath) -> Self {
        let schema = outer.schema().join(inner.heap.schema());
        SmoothIndexNestedLoopJoin { outer, outer_col, inner, schema, pending: Vec::new() }
    }

    /// The inner path's morphing counters.
    pub fn inner_metrics(&self) -> InnerPathMetrics {
        self.inner.metrics()
    }

    /// Probe the morphing inner path for one outer row; matches queue in
    /// `pending` (reversed, so `pop()` preserves harvest order).
    fn probe_outer(&mut self, outer_row: Row) -> Result<()> {
        let key = match outer_row.get(self.outer_col) {
            Value::Int(k) => *k,
            Value::Null => return Ok(()),
            other => {
                return Err(smooth_types::Error::exec(format!(
                    "join key must be integer, got {other}"
                )))
            }
        };
        let matches = self.inner.probe(key)?;
        let cpu = *self.inner.storage.cpu();
        self.inner.storage.clock().charge_cpu(cpu.emit_tuple_ns * matches.len() as u64);
        debug_assert!(self.pending.is_empty(), "probe with undrained pending rows");
        for m in matches.iter().rev() {
            self.pending.push(outer_row.concat(m));
        }
        Ok(())
    }
}

impl Operator for SmoothIndexNestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        self.pending.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Ok(Some(row));
            }
            let Some(outer_row) = self.outer.next()? else { return Ok(None) };
            self.probe_outer(outer_row)?;
        }
    }

    fn close(&mut self) -> Result<()> {
        self.pending.clear();
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
    use smooth_types::{Column, DataType};

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
        for k in 0..30 {
            assert_eq!(join2_inner.probe(k).unwrap().len(), 4);
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
    fn residual_filters_harvested_rows() {
        let (heap, index) = inner_table(20, 4);
        let s = storage();
        let mut inner = SmoothInnerPath::new(heap, index, s, 0, Predicate::int_lt(1, 2));
        let rows = inner.probe(5).unwrap();
        assert_eq!(rows.len(), 2, "only v < 2 qualifies");
        assert!(rows.iter().all(|r| r.int(1).unwrap() < 2));
        assert!(inner.probe(99).unwrap().is_empty());
    }
}
