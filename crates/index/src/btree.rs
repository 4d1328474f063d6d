//! B+-tree structure and bulk build.
//!
//! Indexes are shared as `Arc<BTreeIndex>`: executor operators own both the
//! index handle and cursors over it without self-referential borrows.
//!
//! Built bottom-up from sorted `(key, tid)` entries (the way `CREATE INDEX`
//! bulk-builds). Geometry follows the paper's cost model:
//! Eq. (5) `fanout = PS / (1.2 × KS)` with `KS = 16` bytes per entry
//! (8-byte key + 6-byte TID + alignment), Eq. (6) `#leaves = #T / fanout`,
//! Eq. (7) `height = log_fanout(#leaves) + 1`.
//!
//! Virtual page-id layout per index file: leaves occupy `[0, #leaves)` in
//! key order — so a leaf walk looks sequential to the device model — and
//! internal levels follow, root last.

use std::ops::Bound;
use std::sync::Arc;

use smooth_storage::{FileId, HeapFile, Session, Storage};
use smooth_types::{Error, PageId, Result, Tid, Value, PAGE_SIZE};

use crate::cursor::IndexCursor;

/// Bytes charged per entry when deriving the fanout (Eq. 5: key size plus
/// 20% pointer overhead).
pub const KEY_SIZE: usize = 16;

/// One leaf node: a sorted run of `(key, tid)` entries.
#[derive(Debug)]
pub(crate) struct Leaf {
    pub(crate) entries: Vec<(i64, Tid)>,
    pub(crate) page_id: u32,
}

/// One internal node: separator keys and child indices into the level below.
#[derive(Debug)]
pub(crate) struct INode {
    /// `sep_keys[i]` is the smallest key reachable under `children[i]`.
    pub(crate) sep_keys: Vec<i64>,
    pub(crate) children: Vec<u32>,
    pub(crate) page_id: u32,
}

/// An immutable, bulk-built B+-tree mapping `i64` keys to heap TIDs.
#[derive(Debug)]
pub struct BTreeIndex {
    name: String,
    file_id: FileId,
    fanout: usize,
    pub(crate) leaves: Vec<Leaf>,
    /// Internal levels bottom-up; `internal_levels.last()` holds the root.
    pub(crate) internal_levels: Vec<Vec<INode>>,
    entry_count: u64,
}

impl BTreeIndex {
    /// Fanout per Eq. (5) for the engine's page size.
    pub fn model_fanout() -> usize {
        (PAGE_SIZE as f64 / (1.2 * KEY_SIZE as f64)).floor() as usize
    }

    /// Bulk-build from entries (sorted internally by `(key, tid)`).
    pub fn build(name: impl Into<String>, mut entries: Vec<(i64, Tid)>) -> Self {
        entries.sort_unstable();
        Self::build_presorted(name, entries, Self::model_fanout())
    }

    /// Bulk-build with an explicit fanout (tests, ablations).
    pub fn build_with_fanout(
        name: impl Into<String>,
        mut entries: Vec<(i64, Tid)>,
        fanout: usize,
    ) -> Self {
        entries.sort_unstable();
        Self::build_presorted(name, entries, fanout.max(2))
    }

    fn build_presorted(name: impl Into<String>, entries: Vec<(i64, Tid)>, fanout: usize) -> Self {
        let entry_count = entries.len() as u64;
        let mut leaves: Vec<Leaf> = Vec::with_capacity(entries.len() / fanout + 1);
        if entries.is_empty() {
            leaves.push(Leaf { entries: Vec::new(), page_id: 0 });
        } else {
            let mut it = entries.into_iter().peekable();
            let mut page_id = 0u32;
            while it.peek().is_some() {
                let chunk: Vec<(i64, Tid)> = it.by_ref().take(fanout).collect();
                leaves.push(Leaf { entries: chunk, page_id });
                page_id += 1;
            }
        }
        // Build internal levels bottom-up until a single root remains.
        let mut next_page_id = leaves.len() as u32;
        let mut internal_levels: Vec<Vec<INode>> = Vec::new();
        let mut level_keys: Vec<i64> =
            leaves.iter().map(|l| l.entries.first().map_or(i64::MIN, |e| e.0)).collect();
        let mut level_len = leaves.len();
        while level_len > 1 {
            let mut nodes = Vec::with_capacity(level_len / fanout + 1);
            let mut child = 0u32;
            let mut new_keys = Vec::with_capacity(level_len / fanout + 1);
            while (child as usize) < level_len {
                let end = (child as usize + fanout).min(level_len);
                let children: Vec<u32> = (child..end as u32).collect();
                let sep_keys: Vec<i64> = children.iter().map(|&c| level_keys[c as usize]).collect();
                new_keys.push(sep_keys[0]);
                nodes.push(INode { sep_keys, children, page_id: next_page_id });
                next_page_id += 1;
                child = end as u32;
            }
            level_len = nodes.len();
            level_keys = new_keys;
            internal_levels.push(nodes);
        }
        BTreeIndex {
            name: name.into(),
            file_id: FileId::fresh(),
            fanout,
            leaves,
            internal_levels,
            entry_count,
        }
    }

    /// Build over one heap column, which must hold integer-like values.
    /// NULLs are not indexed.
    pub fn build_from_heap(
        name: impl Into<String>,
        heap: &HeapFile,
        column: usize,
    ) -> Result<Self> {
        if column >= heap.schema().len() {
            return Err(Error::schema(format!("index column {column} out of range")));
        }
        if !heap.schema().column(column).ty.indexable() {
            return Err(Error::schema(format!(
                "column '{}' of type {} is not indexable",
                heap.schema().column(column).name,
                heap.schema().column(column).ty
            )));
        }
        let mut entries = Vec::with_capacity(heap.tuple_count() as usize);
        for p in 0..heap.page_count() {
            let page = heap.read_raw(PageId(p))?;
            let view = smooth_storage::PageView::new(&page)?;
            for slot in 0..view.slot_count() {
                let row = heap.decode_slot(&page, slot)?;
                match row.get(column) {
                    Value::Int(k) => entries.push((*k, Tid::new(p, slot))),
                    Value::Null => {}
                    other => {
                        return Err(Error::schema(format!(
                            "non-integer key {other} in index column"
                        )))
                    }
                }
            }
        }
        Ok(Self::build(name, entries))
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// File id used for buffer-pool residency of the index's virtual pages.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// Number of `(key, tid)` entries.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// `true` when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Entries per node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of leaf pages (`#leaves`, Eq. 6).
    pub fn leaf_count(&self) -> u32 {
        self.leaves.len() as u32
    }

    /// Tree height in node levels (`height`, Eq. 7): 1 for a leaf-only tree.
    pub fn height(&self) -> u32 {
        1 + self.internal_levels.len() as u32
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<i64> {
        self.leaves.first().and_then(|l| l.entries.first()).map(|e| e.0)
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<i64> {
        self.leaves.last().and_then(|l| l.entries.last()).map(|e| e.0)
    }

    /// The separator keys visible in the root page — the paper's source for
    /// Result-Cache key-range partitions ("the root page is a good
    /// indicator of the key value distributions", Section IV-A).
    pub fn root_separators(&self) -> Vec<i64> {
        match self.internal_levels.last() {
            Some(root_level) => root_level[0].sep_keys.clone(),
            None => self.leaves.iter().filter_map(|l| l.entries.first().map(|e| e.0)).collect(),
        }
    }

    /// Descend from the root to the leaf that may contain the first entry
    /// `>= (key, Tid::MIN)`, charging one virtual-page touch per node.
    /// Returns the leaf position.
    pub(crate) fn descend(&self, s: &mut Session, key: i64) -> usize {
        s.charge_cpu(s.cpu().index_node_search_ns * self.height() as u64);
        let mut child: u32 = 0;
        for level in self.internal_levels.iter().rev() {
            let node = &level[child as usize];
            s.touch_index_page(self.file_id, node.page_id);
            // Leftmost child that can contain the first entry with a key
            // >= `key`: separators are each child's minimum key, and a run
            // of duplicates may begin in the child *before* the first
            // separator equal to `key`.
            let pos = node.sep_keys.partition_point(|&sep| sep < key);
            let idx = pos.saturating_sub(1);
            child = node.children[idx];
        }
        let leaf = &self.leaves[child as usize];
        s.touch_index_page(self.file_id, leaf.page_id);
        child as usize
    }

    /// All TIDs for an exact key, in TID order (used by index-nested-loop
    /// joins). Charges the descent and any leaf walks.
    pub fn probe(&self, storage: &Storage, key: i64) -> Vec<Tid> {
        let mut out = Vec::new();
        self.probe_into(&mut storage.session(), key, &mut out);
        out
    }

    /// [`BTreeIndex::probe`] on a session, into a caller-owned buffer
    /// (cleared first), so a probe loop allocates nothing per key.
    pub fn probe_into(&self, s: &mut Session, key: i64, out: &mut Vec<Tid>) {
        out.clear();
        if self.is_empty() {
            return;
        }
        let mut leaf = self.descend(s, key);
        let mut pos = self.leaves[leaf].entries.partition_point(|&(k, _)| k < key);
        loop {
            if pos >= self.leaves[leaf].entries.len() {
                if leaf + 1 >= self.leaves.len() {
                    break;
                }
                leaf += 1;
                pos = 0;
                s.touch_index_page(self.file_id, self.leaves[leaf].page_id);
                continue;
            }
            let (k, tid) = self.leaves[leaf].entries[pos];
            if k != key {
                break;
            }
            s.charge_cpu(s.cpu().index_leaf_step_ns);
            out.push(tid);
            pos += 1;
        }
    }

    /// A `(key, tid)`-ordered cursor over `[lo, hi]` bounds. The descent to
    /// the start leaf is charged immediately; leaf crossings are charged as
    /// the cursor advances.
    pub fn range(
        self: &Arc<Self>,
        storage: &Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
    ) -> IndexCursor {
        IndexCursor::new(Arc::clone(self), storage, lo, hi)
    }

    /// A cursor over the whole index.
    pub fn scan_all(self: &Arc<Self>, storage: &Storage) -> IndexCursor {
        self.range(storage, Bound::Unbounded, Bound::Unbounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::{CpuCosts, DeviceProfile, StorageConfig};

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 4096,
        })
    }

    fn entries(n: i64) -> Vec<(i64, Tid)> {
        (0..n).map(|i| (i, Tid::new((i / 100) as u32, (i % 100) as u16))).collect()
    }

    #[test]
    fn geometry_matches_cost_model() {
        let idx = BTreeIndex::build("i", entries(10_000));
        let fanout = BTreeIndex::model_fanout();
        assert_eq!(fanout, 426); // floor(8192 / 19.2)
        assert_eq!(idx.fanout(), fanout);
        assert_eq!(idx.leaf_count() as usize, 10_000usize.div_ceil(fanout));
        assert_eq!(idx.height(), 2);
        assert_eq!(idx.len(), 10_000);
    }

    #[test]
    fn single_leaf_tree() {
        let idx = BTreeIndex::build("i", entries(10));
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.leaf_count(), 1);
        assert_eq!(idx.min_key(), Some(0));
        assert_eq!(idx.max_key(), Some(9));
    }

    #[test]
    fn empty_tree() {
        let idx = BTreeIndex::build("i", Vec::new());
        assert!(idx.is_empty());
        assert_eq!(idx.min_key(), None);
        let s = storage();
        assert!(idx.probe(&s, 5).is_empty());
    }

    #[test]
    fn duplicate_keys_are_tid_ordered() {
        let mut e = vec![
            (5, Tid::new(9, 0)),
            (5, Tid::new(2, 3)),
            (5, Tid::new(2, 1)),
            (3, Tid::new(0, 0)),
        ];
        e.reverse();
        let idx = BTreeIndex::build("i", e);
        let s = storage();
        let tids = idx.probe(&s, 5);
        assert_eq!(tids, vec![Tid::new(2, 1), Tid::new(2, 3), Tid::new(9, 0)]);
    }

    #[test]
    fn probe_finds_exact_matches_only() {
        let idx = BTreeIndex::build_with_fanout("i", entries(1000), 8);
        let s = storage();
        assert_eq!(idx.probe(&s, 123), vec![Tid::new(1, 23)]);
        assert!(idx.probe(&s, 5000).is_empty());
        assert!(idx.probe(&s, -1).is_empty());
    }

    #[test]
    fn deep_tree_descends_correctly() {
        let idx = BTreeIndex::build_with_fanout("i", entries(5000), 4);
        assert!(idx.height() >= 5);
        let s = storage();
        for k in [0i64, 1, 999, 2500, 4999] {
            assert_eq!(idx.probe(&s, k), vec![Tid::new((k / 100) as u32, (k % 100) as u16)]);
        }
    }

    #[test]
    fn root_separators_reflect_key_distribution() {
        let idx = BTreeIndex::build_with_fanout("i", entries(1000), 8);
        let seps = idx.root_separators();
        assert!(!seps.is_empty());
        assert!(seps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(seps[0], 0);
    }

    #[test]
    fn descent_charges_index_pages() {
        let idx = BTreeIndex::build_with_fanout("i", entries(5000), 4);
        let s = storage();
        s.reset_metrics();
        idx.probe(&s, 2500);
        let io = s.io_snapshot();
        // A cold probe touches height nodes (plus possibly one extra leaf).
        assert!(io.pages_read as u32 >= idx.height());
        // A second identical probe hits the pool everywhere.
        let before = s.io_snapshot().pages_read;
        idx.probe(&s, 2500);
        assert_eq!(s.io_snapshot().pages_read, before);
    }

    #[test]
    fn build_rejects_bad_columns() {
        use smooth_types::{Column, DataType, Row, Schema};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::new("f", DataType::Float64),
        ])
        .unwrap();
        let mut l = smooth_storage::HeapLoader::new_mem("t", schema);
        l.push(&Row::new(vec![Value::Int(1), Value::Float(1.0)])).unwrap();
        let heap = l.finish().unwrap();
        assert!(BTreeIndex::build_from_heap("i", &heap, 1).is_err());
        assert!(BTreeIndex::build_from_heap("i", &heap, 7).is_err());
        assert!(BTreeIndex::build_from_heap("i", &heap, 0).is_ok());
    }

    #[test]
    fn build_from_heap_skips_nulls() {
        use smooth_types::{Column, DataType, Row, Schema};
        let schema = Schema::new(vec![Column::nullable("a", DataType::Int64)]).unwrap();
        let mut l = smooth_storage::HeapLoader::new_mem("t", schema);
        l.push(&Row::new(vec![Value::Int(1)])).unwrap();
        l.push(&Row::new(vec![Value::Null])).unwrap();
        l.push(&Row::new(vec![Value::Int(2)])).unwrap();
        let heap = l.finish().unwrap();
        let idx = BTreeIndex::build_from_heap("i", &heap, 0).unwrap();
        assert_eq!(idx.len(), 2);
    }
}
