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
//! [`SmoothInnerPath`] implements exactly that, as an [`InnerPath`] of the
//! executor's one `IndexNestedLoopJoin`: every heap page fetched for one
//! probe is *harvested* — all residual-qualifying tuples on it are cached
//! under their join keys — so later probes whose matches live on
//! already-visited pages are served without touching the device. Once
//! every heap page has been visited, the structure has fully morphed into
//! a hash table and the B+-tree is no longer consulted.
//!
//! A memory budget bounds the harvest's encoded bytes. Past it no new page
//! is harvested: a key's tuples on unvisited pages are fetched, filtered
//! and emitted directly, after its cached rows — every qualifying row of
//! every visited page — so no row is lost or repeated, only reordered.

use std::collections::HashMap;
use std::sync::Arc;

use smooth_executor::{InnerPath, JoinType, Predicate, ScanFilter};
use smooth_index::BTreeIndex;
use smooth_storage::{HeapFile, PageView, Session};
use smooth_types::spill::batch_row_len;
use smooth_types::{ColumnBatch, ColumnValues, ColumnVector, Error, PageId, Result, Schema, Tid};

use crate::page_cache::PageIdCache;

/// Counters for the inner path's morphing progress.
#[derive(Debug, Clone, Copy, Default)]
pub struct InnerPathMetrics {
    /// Keys probed.
    pub probes: u64,
    /// Probes that fetched no heap page.
    pub cache_only_probes: u64,
    /// Heap pages harvested (each at most once).
    pub pages_fetched: u64,
    /// Rows harvested into the cache.
    pub rows_harvested: u64,
    /// Whether the path has fully morphed into a hash table.
    pub fully_morphed: bool,
}

/// A morphing inner access path: B+-tree look-ups that harvest whole pages
/// into a by-key cache. The planner takes it for an index join whose
/// inner scan's access is `AccessPathChoice::Smooth(_)`; the
/// `SmoothScanConfig` that choice carries — policy, trigger, order, Result
/// Cache — configures a scan and does not apply to an inner side.
pub struct SmoothInnerPath {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    /// The join key's table ordinal and its position among the harvested
    /// columns.
    key_col: usize,
    key_slot: usize,
    /// Positions of the appended columns among the harvested ones.
    emitted: Vec<usize>,
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
    /// order, and its rows per (non-NULL) join key.
    harvested: ColumnBatch,
    by_key: HashMap<i64, Vec<u32>>,
    /// Harvest budget in encoded bytes (0 = unlimited); what it holds.
    mem_bytes: usize,
    held_bytes: usize,
    /// The probed key's qualifiers on pages left unharvested.
    direct: ColumnBatch,
    metrics: InnerPathMetrics,
}

impl SmoothInnerPath {
    /// An unbudgeted inner path over `index` (on `key_col` of `heap`),
    /// harvesting every column; `residual` filters harvested rows.
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        key_col: usize,
        residual: Predicate,
    ) -> Self {
        let (pages, batch) = (heap.page_count(), ColumnBatch::for_schema(heap.schema()));
        SmoothInnerPath {
            key_slot: key_col,
            emitted: (0..heap.schema().len()).collect(),
            filter: ScanFilter::new(residual, heap.schema()),
            visited: PageIdCache::new(pages),
            slot_counts: vec![0; pages as usize],
            tids: Vec::new(),
            harvested: ColumnBatch::like(&batch),
            by_key: HashMap::new(),
            mem_bytes: 0,
            held_bytes: 0,
            direct: batch,
            metrics: InnerPathMetrics::default(),
            heap,
            index,
            key_col,
        }
    }

    /// Builder: bound the harvest to `bytes` of encoded rows (0 =
    /// unlimited); see the module docs.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
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
        let mut tuples = Vec::new();
        view.tuples_into(&mut tuples)?;
        let first = self.harvested.physical_rows();
        let (inspected, _) = self.filter.fill(&tuples, &mut self.harvested)?;
        let keys = self.harvested.column_checked(self.key_slot)?;
        let ColumnValues::Int(ints) = keys.values() else {
            return Err(Error::exec("join key must be integer"));
        };
        let mut hash_ops = 0u64;
        for (row, &key) in ints.iter().enumerate().skip(first) {
            self.held_bytes += batch_row_len(&self.harvested, row);
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

    /// Make every qualifying row of `key` reachable: harvest the unvisited
    /// pages its TIDs name — past the budget, fill `direct` from them
    /// instead — unless the cache alone answers (fully morphed, or a
    /// semi-join key that has harvested rows).
    fn lookup(&mut self, s: &mut Session, key: i64, semi: bool) -> Result<()> {
        self.metrics.probes += 1;
        let cpu = *s.cpu();
        s.charge_cpu(cpu.hash_op_ns);
        self.direct.clear();
        let mut fetched_any = false;
        if !(self.metrics.fully_morphed || semi && self.by_key.contains_key(&key)) {
            let mut tids = std::mem::take(&mut self.tids);
            self.index.probe_into(s, key, &mut tids);
            for &tid in &tids {
                s.charge_cpu(cpu.bitmap_op_ns);
                if !self.visited.contains(tid.page) {
                    fetched_any = true;
                    if self.mem_bytes > 0 && self.held_bytes >= self.mem_bytes {
                        let page = s.read_heap_page(&self.heap, tid.page)?;
                        s.release();
                        s.charge_cpu(cpu.inspect_tuple_ns);
                        let tuple = PageView::new(&page)?.get(tid.slot)?;
                        self.filter.fill(&[tuple], &mut self.direct)?;
                        continue;
                    }
                    self.harvest_page(s, tid.page)?;
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
        Ok(())
    }
}

impl InnerPath for SmoothInnerPath {
    fn table(&self) -> &Schema {
        self.heap.schema()
    }

    /// Harvests `decoded ∪ {key}` — the harvest is keyed on the join
    /// column — and appends only `decoded`.
    fn narrow(&mut self, decoded: &[usize]) -> Result<()> {
        let mut kept = decoded.to_vec();
        let slot = kept.binary_search(&self.key_col).unwrap_or_else(|at| at);
        let key_appended = kept.get(slot) == Some(&self.key_col);
        if !key_appended {
            kept.insert(slot, self.key_col);
        }
        self.filter.narrow(self.heap.schema(), Some(&kept))?;
        self.key_slot = slot;
        self.emitted = (0..kept.len()).filter(|&c| key_appended || c != slot).collect();
        self.harvested = ColumnBatch::for_schema(self.filter.schema());
        self.direct = ColumnBatch::like(&self.harvested);
        Ok(())
    }

    /// Key by key, the cached matches in harvest order, then any the
    /// budget left on unharvested pages; on `s`, released before a page
    /// is inspected.
    fn probe(
        &mut self,
        s: &mut Session,
        ty: JoinType,
        outer: &ColumnBatch,
        keys: &ColumnVector,
        inner_cols: &mut [ColumnVector],
        owners: &mut Vec<u32>,
    ) -> Result<()> {
        let first = owners.len();
        for row in outer.live_rows().filter(|&row| !keys.is_null(row)) {
            let key = keys.int(row)?;
            self.lookup(s, key, ty == JoinType::LeftSemi)?;
            let cached = self.by_key.get(&key).map_or(&[][..], Vec::as_slice);
            let direct: Vec<u32> = (0..self.direct.physical_rows() as u32).collect();
            let matches = cached.len() + direct.len();
            if ty == JoinType::LeftSemi {
                owners.extend((matches > 0).then_some(row as u32));
                continue;
            }
            for (dst, &c) in inner_cols.iter_mut().zip(&self.emitted) {
                dst.extend_gather(self.harvested.column(c), cached);
                dst.extend_gather(self.direct.column(c), &direct);
            }
            owners.extend(std::iter::repeat_n(row as u32, matches));
        }
        s.charge_cpu(s.cpu().emit_tuple_ns * (owners.len() - first) as u64);
        Ok(())
    }

    fn label(&self) -> String {
        format!("SmoothInnerPath({} via {})", self.heap.name(), self.index.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::operator::ValuesOp;
    use smooth_executor::{collect_rows, BoxedOperator, IndexNestedLoopJoin};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, Storage, StorageConfig};
    use smooth_types::{Column, DataType, Row, Value};

    const INNER: JoinType = JoinType::Inner;
    const SEMI: JoinType = JoinType::LeftSemi;

    /// Inner table `(k, v, pad)`: `fanout` rows per key, each stripe a
    /// scrambled permutation of the keys so one key's matches scatter
    /// across pages (7919 is coprime with all test key counts); `v` is
    /// the stripe.
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
        let (device, cpu) = (DeviceProfile::custom("t", 1, 10), CpuCosts::default());
        Storage::new(StorageConfig { device, cpu, pool_pages: 8 })
    }

    fn outer(keys: &[i64]) -> BoxedOperator {
        let schema = Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        Box::new(ValuesOp::new(
            schema,
            keys.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect(),
        ))
    }

    /// The one index join over `path`, its outer side probing `keys`:
    /// the rows in a canonical order.
    fn join(keys: &[i64], path: SmoothInnerPath, ty: JoinType, s: &Storage) -> Vec<Row> {
        let mut op = IndexNestedLoopJoin::with_inner(outer(keys), 0, Box::new(path), ty, s.clone());
        canonical(collect_rows(&mut op).unwrap())
    }

    fn canonical(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_cached_key(|r| format!("{r:?}"));
        rows
    }

    /// Probe `keys` through `path` as one outer morsel; the owners.
    fn probe(path: &mut SmoothInnerPath, s: &Storage, ty: JoinType, keys: &[i64]) -> Vec<u32> {
        let batch = outer(keys).next_columns(keys.len()).unwrap().unwrap();
        let (mut cols, mut owners) = (ColumnBatch::for_schema(path.table()), Vec::new());
        let session = &mut s.session();
        path.probe(session, ty, &batch, batch.column(0), cols.columns_mut(), &mut owners).unwrap();
        owners
    }

    #[test]
    fn agrees_with_plain_inlj() {
        let (heap, index) = inner_table(50, 6);
        let keys: Vec<i64> = (0..120).map(|i| (i * 7) % 55).collect(); // some misses
        let path =
            || SmoothInnerPath::new(Arc::clone(&heap), Arc::clone(&index), 0, Predicate::True);
        for ty in [INNER, SEMI] {
            let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
            let mut plain =
                IndexNestedLoopJoin::new(outer(&keys), 0, h, i, Predicate::True, ty, storage());
            let expected = canonical(collect_rows(&mut plain).unwrap());
            assert_eq!(join(&keys, path(), ty, &storage()), expected, "{ty:?}");
            assert!(!expected.is_empty());
        }
    }

    #[test]
    fn repeated_keys_hit_the_harvest_cache() {
        let (heap, index) = inner_table(40, 5);
        // Every key probed three times.
        let keys: Vec<i64> = (0..40).chain(0..40).chain(0..40).collect();
        let mut path = SmoothInnerPath::new(heap, index, 0, Predicate::True);
        assert_eq!(probe(&mut path, &storage(), INNER, &keys).len(), 600);
        let m = path.metrics();
        assert_eq!(m.probes, 120);
        assert!(m.cache_only_probes >= 80, "repeat probes served from cache: {m:?}");
        // Pages fetched at most once each despite 120 probes.
        assert!(m.pages_fetched <= 40, "{m:?}");
    }

    #[test]
    fn morphs_fully_into_a_hash_join() {
        let (heap, index) = inner_table(30, 4);
        let (all_keys, s): (Vec<i64>, _) = ((0..30).collect(), storage());
        let mut path = SmoothInnerPath::new(Arc::clone(&heap), index, 0, Predicate::True);
        probe(&mut path, &s, INNER, &all_keys);
        let m = path.metrics();
        assert!(m.fully_morphed, "{m:?}");
        assert_eq!(m.pages_fetched, heap.page_count() as u64);
        // A second pass over every key must not touch the device at all.
        let io_before = s.io_snapshot().pages_read;
        let owners = probe(&mut path, &s, INNER, &all_keys);
        assert_eq!(owners, (0..30).flat_map(|k| [k; 4]).collect::<Vec<u32>>());
        assert_eq!(s.io_snapshot().pages_read, io_before, "pure hash-join regime");
    }

    #[test]
    fn a_semi_key_with_harvested_rows_skips_the_index() {
        let (heap, index) = inner_table(40, 5);
        let s = storage();
        let mut path = SmoothInnerPath::new(heap, index, 0, Predicate::True);
        assert_eq!(probe(&mut path, &s, INNER, &[5]).len(), 5);
        let (clock, io) = (s.clock().snapshot(), s.io_snapshot());
        assert_eq!(probe(&mut path, &s, SEMI, &[5, 5]), vec![0, 1]);
        let (cpu, spent) = (CpuCosts::default(), s.clock().snapshot().since(&clock));
        assert_eq!((spent.cpu_ns, spent.io_ns), (2 * (cpu.hash_op_ns + cpu.emit_tuple_ns), 0));
        assert_eq!(s.io_snapshot().since(&io).io_requests, 0, "no index node touched");
    }

    #[test]
    fn fetches_fewer_pages_than_plain_inlj_under_fanout() {
        let (heap, index) = inner_table(600, 6);
        let keys: Vec<i64> = (0..600).collect();
        // Plain INLJ with a tiny pool re-reads pages per duplicate TID.
        let (s1, s2) = (storage(), storage());
        let (h, i) = (Arc::clone(&heap), Arc::clone(&index));
        let mut plain =
            IndexNestedLoopJoin::new(outer(&keys), 0, h, i, Predicate::True, INNER, s1.clone());
        collect_rows(&mut plain).unwrap();
        join(&keys, SmoothInnerPath::new(heap, index, 0, Predicate::True), INNER, &s2);
        let (plain_reads, smooth_reads) =
            (s1.io_snapshot().pages_read, s2.io_snapshot().pages_read);
        assert!(
            smooth_reads < plain_reads,
            "harvesting must cut page traffic: {smooth_reads} vs {plain_reads}"
        );
    }

    #[test]
    fn narrowed_inner_path_harvests_only_its_columns() {
        let (heap, index) = inner_table(20, 4);
        let mut path = SmoothInnerPath::new(heap, index, 0, Predicate::True);
        // `v` alone is appended; the harvest still holds `k`, its key.
        path.narrow(&[1]).unwrap();
        assert_eq!((path.harvested.width(), path.key_slot, &path.emitted[..]), (2, 0, &[1][..]));
        let join =
            IndexNestedLoopJoin::with_inner(outer(&[3, 30]), 0, Box::new(path), INNER, storage());
        let rows = collect_rows(&mut join.with_emit(None, Some(&[0, 2])).unwrap()).unwrap();
        let pairs: Vec<(i64, i64)> =
            rows.iter().map(|r| (r.int(0).unwrap(), r.int(1).unwrap())).collect();
        assert_eq!(pairs, [(3, 0), (3, 1), (3, 2), (3, 3)]);
    }

    #[test]
    fn residual_filters_harvested_rows() {
        let (heap, index) = inner_table(20, 4);
        let path = SmoothInnerPath::new(heap, index, 0, Predicate::int_lt(1, 2));
        let rows = join(&[5, 99], path, INNER, &storage());
        assert_eq!(rows.len(), 2, "only v < 2 qualifies");
        assert!(rows.iter().all(|r| r.int(0).unwrap() == 5 && r.int(2).unwrap() < 2));
    }

    #[test]
    fn a_one_page_budget_returns_the_unbudgeted_rows() {
        let (heap, index) = inner_table(60, 5);
        assert!(heap.page_count() > 2);
        let keys: Vec<i64> = (0..70).chain(0..70).collect();
        let path = || {
            SmoothInnerPath::new(Arc::clone(&heap), Arc::clone(&index), 0, Predicate::int_lt(1, 4))
        };
        // What the harvest of page 0 — key 0's first TID — holds.
        let mut one = path();
        one.harvest_page(&mut storage().session(), PageId(0)).unwrap();
        for ty in [INNER, SEMI] {
            let mut budgeted = path().with_mem_budget(one.held_bytes);
            let owners = probe(&mut budgeted, &storage(), ty, &keys);
            assert_eq!(budgeted.metrics().pages_fetched, 1, "{ty:?}");
            let free = join(&keys, path(), ty, &storage());
            assert_eq!(owners.len(), free.len(), "{ty:?}");
            assert_eq!(join(&keys, path().with_mem_budget(one.held_bytes), ty, &storage()), free);
        }
    }
}
