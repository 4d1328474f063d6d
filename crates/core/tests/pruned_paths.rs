//! Every reader built on `ScanFilter`, narrowed: the access paths (Full
//! Scan, and Smooth Scan unordered, ordered, through Mode 0 and under the
//! Never, Sort and Switch triggers — Index, Sort and Switch Scan), the
//! partitioned
//! heap source and both inner sides of the index join emit exactly the columns
//! asked for — and meet hostile bytes the way `docs/ARCHITECTURE.md`
//! ("The decode path") says: a tuple's *structure* is validated whatever
//! is wanted, so a bad length inside a column nobody reads is still
//! `Error::Corrupt` on every path, qualifier or not; text is validated
//! where a value is materialized, so non-UTF-8 bytes in a column that is
//! neither read nor emitted are not read and not an error. And a TID past
//! its page's slot count — the page header lying about an entry of the
//! engine's own index — is `Error::Corrupt` on every reader that
//! addresses tuples by TID, and an index entry past the heap is
//! `Error::Corrupt` on Sort Scan, whose TID bitmap has no bit for it.
//! Whatever one mutation of one page image does — a truncation, a
//! flipped bit in the slot array or in a text length prefix, a rewritten
//! slot count — every reader returns rows or `Error::Corrupt`, never a
//! panic or another error.

use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;

use smooth_core::{PolicyKind, SmoothInnerPath, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::operator::ValuesOp;
use smooth_executor::{
    collect_rows, run_pipeline, FullTableScan, IndexNestedLoopJoin, JoinType, Operator,
    ParallelPipeline, ParallelSource, PhaseSpec, Predicate, SinkSpec,
};
use smooth_index::BTreeIndex;
use smooth_storage::{Backend, HeapFile, HeapLoader, MemBackend, PageBuf, PageView, Storage};
use smooth_types::{Column, DataType, Error, PageId, Result, Row, Schema, Tid, Value, PAGE_SIZE};

/// A page store that rewrites every page on its way in — how a test
/// gets hostile bytes under a real heap: each occurrence of `from`
/// becomes `to` (same length, so the slot array still fits).
struct Mangled {
    pages: MemBackend,
    from: Vec<u8>,
    to: Vec<u8>,
}

impl Backend for Mangled {
    fn page_count(&self) -> u32 {
        self.pages.page_count()
    }

    fn read(&self, page: u32) -> Result<PageBuf> {
        self.pages.read(page)
    }

    fn append(&mut self, page: PageBuf) -> Result<u32> {
        let mut bytes = page.to_vec();
        for at in 0..bytes.len().saturating_sub(self.from.len()) {
            if bytes[at..].starts_with(&self.from) {
                bytes[at..at + self.to.len()].copy_from_slice(&self.to);
            }
        }
        self.pages.append(bytes.into())
    }
}

/// A page store whose page headers claim one slot fewer than the page
/// holds: the last tuple of every page is still there, but a TID naming
/// it is past the page's slot count.
struct ShortSlotted(MemBackend);

impl Backend for ShortSlotted {
    fn page_count(&self) -> u32 {
        self.0.page_count()
    }

    fn read(&self, page: u32) -> Result<PageBuf> {
        self.0.read(page)
    }

    fn append(&mut self, page: PageBuf) -> Result<u32> {
        let mut bytes = page.to_vec();
        let slots = u16::from_le_bytes([bytes[0], bytes[1]]) - 1;
        bytes[..2].copy_from_slice(&slots.to_le_bytes());
        self.0.append(bytes.into())
    }
}

/// One mutation of one page image.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// The image cut to this many bytes.
    Truncate(usize),
    /// A bit of the slot array flipped: bit `bit % 8` of byte `byte`,
    /// counted modulo the array's length.
    SlotBit { byte: usize, bit: usize },
    /// A bit of the text length prefixes (`s`'s, then `t`'s: 32 bits) of
    /// the tuple in slot `slot`, counted modulo the page's slot count.
    LengthBit { slot: usize, bit: usize },
    /// The header's slot count rewritten.
    SlotCount(u16),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0..PAGE_SIZE).prop_map(Mutation::Truncate),
        (any::<usize>(), 0..8usize).prop_map(|(byte, bit)| Mutation::SlotBit { byte, bit }),
        (any::<usize>(), 0..32usize).prop_map(|(slot, bit)| Mutation::LengthBit { slot, bit }),
        any::<u16>().prop_map(Mutation::SlotCount),
    ]
}

impl Mutation {
    fn apply(self, bytes: &mut Vec<u8>) {
        let slots = usize::from(u16::from_le_bytes([bytes[0], bytes[1]]));
        match self {
            Mutation::Truncate(len) => bytes.truncate(len),
            Mutation::SlotBit { byte, bit } => bytes[4 + byte % (4 * slots)] ^= 1 << (bit % 8),
            Mutation::LengthBit { slot, bit } => {
                let entry = 4 + 4 * (slot % slots);
                let tuple = usize::from(u16::from_le_bytes([bytes[entry], bytes[entry + 1]]));
                // Bitmap (1 byte), `k` and `a` (8 each): `s`'s prefix at
                // 17, its one byte at 19, `t`'s prefix at 20.
                bytes[tuple + [17, 18, 20, 21][bit / 8]] ^= 1 << (bit % 8);
            }
            Mutation::SlotCount(n) => bytes[..2].copy_from_slice(&n.to_le_bytes()),
        }
    }
}

/// A page store that applies `mutation` to page `page` on its way in.
struct Hostile {
    pages: MemBackend,
    page: u32,
    mutation: Mutation,
}

impl Backend for Hostile {
    fn page_count(&self) -> u32 {
        self.pages.page_count()
    }

    fn read(&self, page: u32) -> Result<PageBuf> {
        self.pages.read(page)
    }

    fn append(&mut self, page: PageBuf) -> Result<u32> {
        let mut bytes = page.to_vec();
        if self.pages.page_count() == self.page {
            self.mutation.apply(&mut bytes);
        }
        self.pages.append(bytes.into())
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("a", DataType::Int64),
        Column::new("s", DataType::Text),
        Column::new("t", DataType::Text),
    ])
    .unwrap()
}

/// 900 rows: `k` cycles through 0..50, `a` is the row number, `s` is the
/// residual's column, `t` is text nobody reads — `BAD…` on the rows with
/// `k = 7` that the residual rejects, `MARK…` everywhere else (both eight
/// bytes long, so every tuple has one length).
fn rows() -> Vec<Row> {
    (0..900i64)
        .map(|i| {
            let (k, s) = (i % 50, if i % 3 == 0 { "x" } else { "y" });
            let t = if k == 7 && s == "y" { format!("BAD{i:05}") } else { format!("MARK{i:04}") };
            Row::new(vec![Value::Int(k), Value::Int(i), Value::str(s), Value::str(t)])
        })
        .collect()
}

fn heap(from: &[u8], to: &[u8]) -> Arc<HeapFile> {
    let backend = Mangled { pages: MemBackend::new(), from: from.to_vec(), to: to.to_vec() };
    heap_on(Box::new(backend))
}

fn heap_on(backend: Box<dyn Backend>) -> Arc<HeapFile> {
    let mut loader = HeapLoader::with_backend("t", schema(), backend);
    for row in rows() {
        loader.push(&row).unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

/// `k` in `[0, 20)` and `s = "x"`.
const RANGE: (Bound<i64>, Bound<i64>) = (Bound::Included(0), Bound::Excluded(20));

fn residual() -> Predicate {
    Predicate::StrEq { col: 2, value: "x".into() }
}

/// Every reader over `heap` (indexed by `index`, built off the clean
/// heap: same tuples, same TIDs), emitting `cols`, drained to rows sorted
/// by `a`; the index join emits its outer key first, dropped here.
fn read_every_way(
    heap: &Arc<HeapFile>,
    index: &Arc<BTreeIndex>,
    cols: Option<&[usize]>,
) -> Vec<(&'static str, Result<Vec<Row>>)> {
    let s = Storage::default_hdd;
    let (lo, hi) = RANGE;
    let full = Predicate::and(vec![Predicate::IntRange { col: 0, lo, hi }, residual()]);
    let (h, i) = (|| Arc::clone(heap), || Arc::clone(index));
    let smooth = |ordered: bool, trigger: Trigger| {
        let config =
            SmoothScanConfig::default().with_policy(PolicyKind::Elastic).with_trigger(trigger);
        SmoothScan::new(h(), i(), s(), 0, lo, hi, residual(), config)
            .with_order(ordered)
            .with_columns(cols)
            .and_then(|mut op| collect_rows(&mut op))
    };
    let mode0 = Trigger::OptimizerDriven { estimated_cardinality: 40, policy: PolicyKind::Greedy };
    let width = cols.map_or(4, <[usize]>::len);
    let outer = || {
        let keys = (0..20).map(|k| Row::new(vec![Value::Int(k)])).collect();
        let key_schema = Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        Box::new(ValuesOp::new(key_schema, keys))
    };
    let morphing = Box::new(SmoothInnerPath::new(h(), i(), 0, residual()));
    let storage = s();
    let heap_source = FullTableScan::new(h(), storage.clone(), full.clone())
        .with_columns(cols)
        .and_then(|scan| {
            let phases = vec![PhaseSpec {
                source: ParallelSource::Heap(Box::new(scan)),
                stages: Vec::new(),
                sink: SinkSpec::Collect,
            }];
            run_pipeline(ParallelPipeline { phases, storage, morsel_rows: 1024, mem_bytes: 0 }, 2)
        });
    let mut read = vec![
        (
            "full scan",
            FullTableScan::new(h(), s(), full.clone())
                .with_columns(cols)
                .and_then(|mut op| collect_rows(&mut op)),
        ),
        ("index scan", smooth(false, Trigger::Never)),
        ("ordered index scan", smooth(true, Trigger::Never)),
        ("sort scan", smooth(false, Trigger::Sort)),
        ("switch scan", smooth(false, Trigger::Switch { estimated_cardinality: 60 })),
        ("smooth scan", smooth(false, Trigger::Eager)),
        ("ordered smooth scan", smooth(true, Trigger::Eager)),
        ("smooth scan through mode 0", smooth(false, mode0)),
        ("ordered smooth scan through mode 0", smooth(true, mode0)),
        ("heap source", heap_source),
        (
            "index join inner side",
            IndexNestedLoopJoin::new(outer(), 0, h(), i(), residual(), JoinType::Inner, s())
                .with_emit(cols, Some(&(1..=width).collect::<Vec<_>>()))
                .and_then(|mut op| collect_rows(&mut op)),
        ),
        (
            "morphing index join inner side",
            IndexNestedLoopJoin::with_inner(outer(), 0, morphing, JoinType::Inner, s())
                .with_emit(cols, Some(&(1..=width).collect::<Vec<_>>()))
                .and_then(|mut op| collect_rows(&mut op)),
        ),
    ];
    // Canonical order: `a`, when it is emitted, identifies the row.
    let a = cols.map_or(Some(1), |c| c.iter().position(|&c| c == 1));
    for (_, rows) in &mut read {
        if let (Ok(rows), Some(a)) = (rows, a) {
            rows.sort_by_key(|r| r.int(a).unwrap());
        }
    }
    read
}

#[test]
fn every_reader_emits_exactly_the_columns_asked_for() {
    let clean = heap(b"", b"");
    let index = Arc::new(BTreeIndex::build_from_heap("t_k", &clean, 0).unwrap());
    let qualifies = |r: &&Row| r.int(0).unwrap() < 20 && r.get(2) == &Value::str("x");
    let all = rows();
    for cols in [None, Some(&[0usize, 1][..]), Some(&[1]), Some(&[1, 3]), Some(&[1, 2, 3])] {
        let pick = |r: &Row| match cols {
            Some(cols) => Row::new(cols.iter().map(|&c| r.get(c).clone()).collect()),
            None => r.clone(),
        };
        let expected: Vec<Row> = all.iter().filter(qualifies).map(pick).collect();
        assert_eq!(expected.len(), 120);
        for (what, got) in read_every_way(&clean, &index, cols) {
            assert_eq!(got.unwrap(), expected, "{what} emitting {cols:?}");
        }
    }
}

#[test]
fn hostile_bytes_under_a_pruned_layout() {
    let clean = heap(b"", b"");
    let index = Arc::new(BTreeIndex::build_from_heap("t_k", &clean, 0).unwrap());
    let expected: Vec<Row> = read_every_way(&clean, &index, Some(&[0, 1]))
        .into_iter()
        .map(|(_, rows)| rows.unwrap())
        .next()
        .unwrap();
    // Non-UTF-8 in `t`, on every row: an error exactly when `t` is
    // emitted (nothing here reads it).
    let garbled = heap(b"MARK", &[0xff; 4]);
    for (what, got) in read_every_way(&garbled, &index, Some(&[0, 1])) {
        assert_eq!(got.unwrap(), expected, "{what}: unread text is not validated");
    }
    for cols in [None, Some(&[1usize, 3][..])] {
        for (what, got) in read_every_way(&garbled, &index, cols) {
            assert!(matches!(got, Err(Error::Corrupt(_))), "{what} emitting {cols:?}: {got:?}");
        }
    }
    // `t`'s length prefix (8, little-endian) overwritten on rows the
    // residual rejects: structure is validated for every tuple a reader
    // is handed, whatever it wants of it.
    let broken = heap(&[8, 0, b'B', b'A', b'D'], &[0xff, 0xff, b'B', b'A', b'D']);
    for cols in [None, Some(&[0usize, 1][..]), Some(&[][..])] {
        for (what, got) in read_every_way(&broken, &index, cols) {
            assert!(matches!(got, Err(Error::Corrupt(_))), "{what} emitting {cols:?}: {got:?}");
        }
    }
}

#[test]
fn a_tid_past_its_pages_slot_count_is_corrupt_on_every_tid_addressed_reader() {
    let clean = heap(b"", b"");
    let index = Arc::new(BTreeIndex::build_from_heap("t_k", &clean, 0).unwrap());
    let short = heap_on(Box::new(ShortSlotted(MemBackend::new())));
    let (h, i, s) = (|| Arc::clone(&short), || Arc::clone(&index), Storage::default_hdd);
    let (lo, hi, t) = (Bound::Unbounded, Bound::Unbounded, || Predicate::True);
    // Every key, so every page's last tuple is asked for by its TID, and
    // Smooth Scan's trigger never fires, so it stays in Mode 0 throughout.
    // The joins' outer side leads with the key of page 0's last tuple:
    // the morphing inner path consults the index only until it has
    // harvested every page.
    let page0 = clean.read_raw(PageId(0)).unwrap();
    let last_of_page0 = i64::from(PageView::new(&page0).unwrap().slot_count() - 1);
    let mode0 =
        Trigger::OptimizerDriven { estimated_cardinality: 10_000, policy: PolicyKind::Greedy };
    let smooth = |ordered: bool| {
        let config = SmoothScanConfig::default().with_trigger(mode0);
        collect_rows(
            &mut SmoothScan::new(h(), i(), s(), 0, lo, hi, t(), config).with_order(ordered),
        )
    };
    let config =
        SmoothScanConfig::default().with_trigger(Trigger::Switch { estimated_cardinality: 10_000 });
    let switch = SmoothScan::new(h(), i(), s(), 0, lo, hi, t(), config);
    let config = SmoothScanConfig::default().with_trigger(Trigger::Never);
    let index_scan = SmoothScan::new(h(), i(), s(), 0, lo, hi, t(), config);
    let config = SmoothScanConfig::default().with_trigger(Trigger::Sort);
    let sort_scan = SmoothScan::new(h(), i(), s(), 0, lo, hi, t(), config);
    let outer = || {
        let keys = std::iter::once(last_of_page0 % 50).chain(0..50);
        let keys = keys.map(|k| Row::new(vec![Value::Int(k)])).collect();
        Box::new(ValuesOp::new(
            Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap(),
            keys,
        ))
    };
    let join = |ty, residual| IndexNestedLoopJoin::new(outer(), 0, h(), i(), residual, ty, s());
    let morphing = |ty| {
        let inner = Box::new(SmoothInnerPath::new(h(), i(), 0, t()));
        IndexNestedLoopJoin::with_inner(outer(), 0, inner, ty, s())
    };
    let read: Vec<(&str, Box<dyn Operator>)> = vec![
        ("index scan", Box::new(index_scan)),
        ("sort scan", Box::new(sort_scan)),
        ("switch scan's index phase", Box::new(switch)),
        ("index join inner side", Box::new(join(JoinType::Inner, t()))),
        // Nothing passes the residual: no first match stops the fetches.
        ("index semi join", Box::new(join(JoinType::LeftSemi, Predicate::int_lt(1, 0)))),
        ("morphing index join", Box::new(morphing(JoinType::Inner))),
        ("morphing index semi join", Box::new(morphing(JoinType::LeftSemi))),
    ];
    let read = read.into_iter().map(|(what, mut op)| (what, collect_rows(op.as_mut())));
    let smooths =
        [("smooth scan through mode 0", smooth(false)), ("ordered, through mode 0", smooth(true))];
    for (what, got) in read.chain(smooths) {
        assert!(matches!(got, Err(Error::Corrupt(_))), "{what}: {got:?}");
    }
}

#[test]
fn sort_scan_rejects_an_index_entry_outside_the_heap() {
    // An index naming a page past the heap, a slot past the fullest page
    // (in the page's own last word, or just past its words: the next
    // page's first bit) or both: `Error::Corrupt` as the range is walked,
    // never a bit set out of bounds or on a neighbouring page.
    let heap = heap(b"", b"");
    let (pages, slots) = (heap.page_count(), heap.max_slots_per_page());
    let past_words = slots.div_ceil(64) * 64;
    let hostile =
        [(pages, 0), (0, slots), (0, past_words), (pages - 1, past_words), (u32::MAX, u16::MAX)];
    for (page, slot) in hostile {
        let entries = vec![(1, Tid::new(0, 0)), (2, Tid::new(page, slot))];
        let index = Arc::new(BTreeIndex::build("hostile", entries));
        let (all, s) = (Bound::Unbounded, Storage::default_hdd());
        let config = SmoothScanConfig::default().with_trigger(Trigger::Sort);
        let mut scan =
            SmoothScan::new(Arc::clone(&heap), index, s, 0, all, all, Predicate::True, config);
        let got = collect_rows(&mut scan);
        assert!(matches!(got, Err(Error::Corrupt(_))), "({page}, {slot}): {got:?}");
    }
}

proptest! {
    #[test]
    fn every_reader_survives_one_mutated_page(
        page in 0..4u32,
        mutation in arb_mutation(),
        cols in prop_oneof![
            Just(None),
            Just(Some(vec![0usize, 1])),
            Just(Some(vec![1, 3])),
            Just(Some(vec![])),
        ],
    ) {
        let clean = heap(b"", b"");
        let index = Arc::new(BTreeIndex::build_from_heap("t_k", &clean, 0).unwrap());
        let page = page % clean.page_count();
        let hostile = heap_on(Box::new(Hostile { pages: MemBackend::new(), page, mutation }));
        let read = catch_unwind(AssertUnwindSafe(|| {
            read_every_way(&hostile, &index, cols.as_deref())
        }));
        prop_assert!(read.is_ok(), "a reader panicked on page {page} under {mutation:?}");
        for (what, got) in read.unwrap_or_default() {
            prop_assert!(
                matches!(got, Ok(_) | Err(Error::Corrupt(_))),
                "{what} emitting {cols:?}, page {page} under {mutation:?}: {got:?}"
            );
        }
    }
}
