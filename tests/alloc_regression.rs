//! Allocation-count regression guards: the text-heavy scan path, the
//! hash-table kernel under hash aggregation and hash join, and the
//! columnar sort.
//!
//! A counting [`GlobalAlloc`] wrapper tallies heap allocations while
//! [`collect_batches`] drains a full scan over a pad-heavy (Text-column
//! dominated) table. Doubling the row count must **not** double the
//! allocation count: `TextColumn` stores text in one append-only arena
//! per column, so no value allocates — the marginal allocation cost of
//! extra rows is per-*page* and per-*batch* (buffer growth, offset
//! vectors). The bound below — fewer than one
//! allocation per 8 marginal rows — fails loudly if anyone
//! reintroduces a per-row allocation straggler (a `String` per decoded
//! value, a `Vec<Value>` per tuple) into decode, filter, or batch
//! handoff.
//!
//! The hash guards drain a grouped [`HashAggregate`] and a
//! [`HashJoin`] over pre-built batches at N and 2N input rows (groups
//! and build keys doubling too): keys live columnar in the kernel's
//! [`smooth_executor::KeyTable`] and accumulators / match chains are
//! flat vectors, so the marginal cost is buffer growth plus a few
//! allocations per *batch* — under one per 64 marginal input rows. A
//! boxed key per row, or a match list per distinct key, fails it.
//!
//! The sort guard drains a [`Sort`] over `(key, text)` batches,
//! unbudgeted and under a budget that cuts dozens of runs: rows live
//! in typed vectors and one text arena from ingest to emit, so the
//! marginal cost is a few allocations per run and per output morsel —
//! the same one-per-64-rows bound. A `Vec<Value>` or a `String` per
//! sorted row fails it.
//!
//! Three guards sit on the decode path itself: a full scan over a warm
//! pool allocates per 32-page *run* (the run, one slice scratch, one
//! handed-over morsel), never per page, also when every page carries
//! NULLs (the tuple layout's side table is reused, not regrown) and
//! under a two-column `AND` (its masks are reused scratch); an index
//! nested-loop join
//! allocates nothing per probed outer row (no `Row`, `Vec<Value>` or
//! `String` per inner match); and an aggregate that does not read the
//! pad allocates the same bytes whatever the pad's width (a pruned
//! column grows no arena).
//!
//! Three guards sit on memory rather than calls: the allocator also keeps
//! live bytes and their high-water mark. A 100 % Sort Scan or unordered
//! Smooth Scan drained a morsel at a time may hold only O(pages)
//! bookkeeping above the loaded table, at N and 2N rows alike; a sort
//! that spills holds its rows once, so its peak stays near the in-memory
//! sort's; and a sort whose run cut fails leaves nothing live once
//! dropped.
//!
//! Every `#[test]` here holds [`SERIAL`] for its whole body, so no
//! concurrent test pollutes the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use smooth_core::{SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::sort::SortKey;
use smooth_executor::{
    batch_size, collect_batches, AggFunc, ExternalSorter, FullTableScan, HashAggregate, HashJoin,
    IndexNestedLoopJoin, JoinType, Operator, Predicate, Sort,
};
use smooth_index::BTreeIndex;
use smooth_planner::{AccessPathChoice, Database, LogicalPlan, ScanSpec};
use smooth_storage::{
    CpuCosts, DeviceProfile, FaultConfig, HeapFile, HeapLoader, Storage, StorageConfig,
};
use smooth_types::{Column, ColumnBatch, DataType, Result, Row, Schema, Value};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for: every allocation's size, every reallocation's growth.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and their high-water mark since a
/// test last lowered it to [`LIVE`].
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes this thread allocated minus those it freed: [`LIVE`] without
    /// the test harness's own threads.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count `bytes` more live bytes.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    thread_live(bytes as i64);
}

/// Count `delta` more live bytes on this thread.
fn thread_live(delta: i64) {
    let _ = THREAD_LIVE.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        thread_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // Counted as the move it may be: both blocks live at once.
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        thread_live(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body: the counter is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pad_heavy_heap(rows: i64) -> Arc<HeapFile> {
    let schema =
        Schema::new(vec![Column::new("id", DataType::Int64), Column::new("pad", DataType::Text)])
            .unwrap();
    let mut loader = HeapLoader::new_mem("t", schema);
    for i in 0..rows {
        loader.push(&Row::new(vec![Value::Int(i), Value::str("x".repeat(64))])).unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 4096,
    })
}

/// Allocations spent draining `heap` through the columnar driver, and
/// the row count it produced.
fn allocs_for_scan(heap: &Arc<HeapFile>) -> (u64, usize) {
    let s = storage();
    let mut op = FullTableScan::new(Arc::clone(heap), s, Predicate::True);
    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = collect_batches(&mut op).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    let rows: usize = batches.iter().map(|b| b.len()).sum();
    drop(batches);
    (after - before, rows)
}

#[test]
fn text_scan_allocations_are_sublinear_in_rows() {
    let _serial = serial();
    const N: i64 = 4000;
    // Warm-up drains one-time lazy state (env latches, thread locals)
    // so it never lands in either measured window.
    allocs_for_scan(&pad_heavy_heap(64));

    let (small_allocs, small_rows) = allocs_for_scan(&pad_heavy_heap(N));
    let (large_allocs, large_rows) = allocs_for_scan(&pad_heavy_heap(2 * N));
    assert_eq!(small_rows, N as usize);
    assert_eq!(large_rows, 2 * N as usize);

    let marginal_rows = (large_rows - small_rows) as u64;
    let marginal_allocs = large_allocs.saturating_sub(small_allocs);
    assert!(
        marginal_allocs < marginal_rows / 8,
        "per-row allocation straggler: {marginal_allocs} extra allocations \
         for {marginal_rows} extra rows ({small_allocs} at N, {large_allocs} at 2N)"
    );
}

/// Like [`pad_heavy_heap`], with two nullable columns that are NULL in
/// every third row, so every page holds tuples with NULLs and without.
fn nullable_heap(rows: i64) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int64),
        Column::nullable("note", DataType::Text),
        Column::nullable("v", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut loader = HeapLoader::new_mem("t", schema);
    for i in 0..rows {
        let (note, v) = match i % 3 {
            0 => (Value::Null, Value::Null),
            _ => (Value::str("n"), Value::Int(i)),
        };
        loader.push(&Row::new(vec![Value::Int(i), note, v, Value::str("x".repeat(64))])).unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

#[test]
fn full_scan_allocations_per_page_are_an_amortized_constant() {
    let _serial = serial();
    full_scan_allocates_per_run(pad_heavy_heap, Predicate::True);
}

/// An `AND` folds its children's masks into reused scratch, so a scan
/// filtering on two columns allocates per run like one without a
/// predicate: no mask per page.
#[test]
fn full_scan_allocations_per_page_stay_constant_under_a_conjunction() {
    let _serial = serial();
    let pad = Predicate::StrEq { col: 1, value: "x".repeat(64) };
    full_scan_allocates_per_run(pad_heavy_heap, Predicate::and(vec![Predicate::int_ge(0, 0), pad]));
}

/// The tuple layout's side table for tuples with NULLs grows to a page's
/// worth once and is reused, so a table whose every page carries NULLs
/// allocates per run like one without.
#[test]
fn full_scan_allocations_per_page_stay_constant_when_every_page_has_nulls() {
    let _serial = serial();
    full_scan_allocates_per_run(nullable_heap, Predicate::True);
}

/// Drain a full scan under `predicate` (which every row passes) over
/// `heap_of(N)` and `heap_of(2N)` rows and assert the marginal
/// allocations are per 32-page run, never per page.
fn full_scan_allocates_per_run(heap_of: fn(i64) -> Arc<HeapFile>, predicate: Predicate) {
    const N: i64 = 8000;
    // Allocations of a scan over a warm pool (so the storage layer's own
    // miss handling stays out of the count) and the pages it read. Each
    // request covers a whole 32-page refill, so morsels leave by handover
    // and what is counted is the fill, not the copy into smaller morsels.
    let drain = |op: &mut FullTableScan| {
        op.open().unwrap();
        let mut rows = 0;
        while let Some(morsel) = op.next_columns(1 << 16).unwrap() {
            rows += morsel.len();
        }
        op.close().unwrap();
        rows
    };
    let scan = |rows: i64| {
        let heap = heap_of(rows);
        let mut op = FullTableScan::new(Arc::clone(&heap), storage(), predicate.clone());
        drain(&mut op);
        let before = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(drain(&mut op), rows as usize);
        (ALLOCS.load(Ordering::Relaxed) - before, heap.page_count() as u64)
    };
    scan(64); // warm-up
    let (small, large) = (scan(N), scan(2 * N));
    let (marginal_allocs, marginal_pages) = (large.0.saturating_sub(small.0), large.1 - small.1);
    // Per 32-page run: the run itself, one slice scratch, one handed-over
    // morsel — nothing per page, let alone per tuple.
    assert!(
        2 * marginal_allocs < marginal_pages,
        "per-page allocation straggler: {marginal_allocs} extra allocations for \
         {marginal_pages} extra pages ({} at N, {} at 2N)",
        small.0,
        large.0
    );
}

/// An aggregate that does not read the pad must not pay for it: the
/// planner prunes the column, so no text arena grows for it, and the
/// bytes allocated do not follow the pad's width (what differs between
/// a 40- and a 400-byte pad is the page count — a few hundred bytes of
/// run bookkeeping per 32 pages — where decoding the pad would copy all
/// of it). The calls are no more than the same aggregate over a
/// full-width scan makes, which is what every plan ran before pruning.
#[test]
fn an_aggregate_that_does_not_read_the_pad_allocates_nothing_for_it() {
    let _serial = serial();
    const ROWS: i64 = 4000;
    let aggs = || vec![AggFunc::CountStar, AggFunc::Sum(0)];
    // (calls, bytes) of one warm drain of `op`.
    let drain = |op: &mut dyn Operator| {
        collect_batches(op).unwrap();
        let before = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        let batches = collect_batches(op).unwrap();
        let after = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        assert_eq!(batches[0].row(0).int(0).unwrap(), ROWS);
        (after.0 - before.0, after.1 - before.1)
    };
    // The planner's (pruned) tree and the full-width tree, at one pad width.
    let measure = |pad: usize| {
        let mut db = Database::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 4096,
        });
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::new("pad", DataType::Text),
        ]);
        let rows = (0..ROWS).map(|i| Row::new(vec![Value::Int(i), Value::str("x".repeat(pad))]));
        db.load_table("t", schema.unwrap(), rows).unwrap();
        let scan = ScanSpec::new("t", Predicate::True).with_access(AccessPathChoice::ForceFull);
        let mut pruned = db.build(&LogicalPlan::scan(scan).aggregate(vec![], aggs())).unwrap();
        assert!(pruned.label().contains("FullTableScan(t)[id]"), "{}", pruned.label());
        let heap = Arc::clone(&db.table("t").unwrap().heap);
        let scan = FullTableScan::new(heap, db.storage().clone(), Predicate::True);
        let mut full =
            HashAggregate::new(Box::new(scan), vec![], aggs(), db.storage().clone()).unwrap();
        (drain(pruned.as_mut()), drain(&mut full))
    };
    measure(8); // warm-up
    let ((narrow_pruned, narrow_full), (wide_pruned, wide_full)) = (measure(40), measure(400));
    let pad_growth = ROWS as u64 * 360;
    assert!(
        wide_pruned.1.saturating_sub(narrow_pruned.1) < pad_growth / 64,
        "bytes follow the width of a column nobody reads: {narrow_pruned:?} at 40, \
         {wide_pruned:?} at 400"
    );
    // The harness sees the pad when it is decoded.
    assert!(wide_full.1 - narrow_full.1 >= pad_growth, "{narrow_full:?} vs {wide_full:?}");
    for (pruned, full) in [(narrow_pruned, narrow_full), (wide_pruned, wide_full)] {
        assert!(pruned.0 <= full.0, "pruning added allocations: {pruned:?} vs {full:?}");
    }
}

/// Decode-ahead is one morsel. A 100 % Sort Scan reads the whole heap as
/// one prefetch run, and a 100 % unordered Smooth Scan grows its regions to
/// hundreds of pages; drained a morsel at a time, each morsel dropped, what
/// either holds above the loaded table is O(pages) bookkeeping — the TID
/// bitmap or Page-ID cache, the fetched run's page handles — never the
/// run's or the region's decoded rows (≈ 6 KB a page of this table).
#[test]
fn scans_hold_one_morsel_of_decoded_rows_not_a_run_or_a_region() {
    let _serial = serial();
    const N: i64 = 40_000;
    // Peak live bytes of one drain above those live before it, and the
    // heap's page count.
    let peak = |rows: i64, smooth: bool| {
        let heap = pad_heavy_heap(rows);
        let index = Arc::new(BTreeIndex::build_from_heap("pk", &heap, 0).unwrap());
        let (h, i, s, all) = (Arc::clone(&heap), index, storage(), Bound::Unbounded);
        let trigger = if smooth { Trigger::Eager } else { Trigger::Sort };
        let config = SmoothScanConfig::default().with_trigger(trigger);
        let mut op = SmoothScan::new(h, i, s, 0, all, all, Predicate::True, config);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        op.open().unwrap();
        let mut drained = 0;
        while let Some(morsel) = op.next_columns(batch_size()).unwrap() {
            drained += morsel.len();
        }
        op.close().unwrap();
        assert_eq!(drained, rows as usize);
        (PEAK.load(Ordering::Relaxed) - before, u64::from(heap.page_count()))
    };
    for smooth in [false, true] {
        peak(1000, smooth); // warm-up
        let (small, large) = (peak(N, smooth), peak(2 * N, smooth));
        let (marginal_bytes, marginal_pages) = (large.0.saturating_sub(small.0), large.1 - small.1);
        assert!(
            marginal_bytes < 256 * marginal_pages,
            "{}: {marginal_bytes} more peak bytes for {marginal_pages} more pages \
             ({} at N, {} at 2N)",
            if smooth { "Smooth Scan" } else { "Sort Scan" },
            small.0,
            large.0
        );
    }
}

/// Rows per pre-built batch (the engine's default morsel size).
const BATCH_ROWS: usize = 1024;

fn int_schema(names: [&str; 2]) -> Schema {
    Schema::new(names.iter().map(|n| Column::new(*n, DataType::Int64)).collect()).unwrap()
}

/// A source handing out batches built before the measured window, so
/// it contributes no allocations of its own (columnar protocol only).
struct Prebuilt {
    schema: Schema,
    batches: std::vec::IntoIter<ColumnBatch>,
}

impl Prebuilt {
    /// `rows` rows of `(i % keys, i)`, in [`BATCH_ROWS`]-row batches.
    fn new(rows: usize, keys: usize) -> Box<Self> {
        Self::of(int_schema(["k", "v"]), rows, keys, |i| Value::Int(i as i64))
    }

    /// `rows` rows of `(i % keys, "pad-<i>")`.
    fn with_text(rows: usize, keys: usize) -> Box<Self> {
        let schema =
            Schema::new(vec![Column::new("k", DataType::Int64), Column::new("s", DataType::Text)])
                .unwrap();
        Self::of(schema, rows, keys, |i| Value::str(format!("pad-{i:08}")))
    }

    fn of(schema: Schema, rows: usize, keys: usize, v: impl Fn(usize) -> Value) -> Box<Self> {
        let all: Vec<Row> =
            (0..rows).map(|i| Row::new(vec![Value::Int((i % keys) as i64), v(i)])).collect();
        let batches: Vec<ColumnBatch> =
            all.chunks(BATCH_ROWS).map(|c| ColumnBatch::from_rows(&schema, c).unwrap()).collect();
        Box::new(Prebuilt { schema, batches: batches.into_iter() })
    }
}

impl Operator for Prebuilt {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_columns(&mut self, _max: usize) -> Result<Option<ColumnBatch>> {
        Ok(self.batches.next())
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn label(&self) -> String {
        "Prebuilt".into()
    }
}

/// Allocations spent draining `op`, and the rows it produced.
fn allocs_for(op: &mut dyn Operator) -> (u64, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = collect_batches(op).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, batches.iter().map(ColumnBatch::len).sum())
}

/// Fail unless doubling the input cost under one allocation per 64
/// marginal input rows.
fn assert_marginal(what: &str, small: (u64, usize), large: (u64, usize)) {
    let (marginal_allocs, marginal_rows) = (large.0.saturating_sub(small.0), large.1 - small.1);
    assert!(
        marginal_allocs < (marginal_rows / 64) as u64,
        "{what}: per-row allocation straggler: {marginal_allocs} extra allocations for \
         {marginal_rows} extra input rows ({} at N, {} at 2N)",
        small.0,
        large.0
    );
}

#[test]
fn grouped_aggregate_allocations_are_sublinear_in_rows_and_groups() {
    let _serial = serial();
    let run = |rows: usize, groups: usize| {
        let aggs = vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Min(1), AggFunc::Max(1)];
        let mut op =
            HashAggregate::new(Prebuilt::new(rows, groups), vec![0], aggs, storage()).unwrap();
        let (allocs, out) = allocs_for(&mut op);
        assert_eq!(out, groups);
        (allocs, rows)
    };
    run(BATCH_ROWS, 16); // warm-up: env latches, thread locals
    assert_marginal("grouped aggregate", run(100_000, 10_000), run(200_000, 20_000));
}

#[test]
fn hash_join_allocations_are_sublinear_in_build_and_probe_rows() {
    let _serial = serial();
    let run = |build: usize, probe: usize| {
        // Every probe row hits exactly one of the distinct build keys.
        let mut op = HashJoin::new(
            Prebuilt::new(probe, build),
            Prebuilt::new(build, build),
            0,
            0,
            JoinType::Inner,
            storage(),
        );
        let (allocs, out) = allocs_for(&mut op);
        assert_eq!(out, probe);
        (allocs, build + probe)
    };
    run(BATCH_ROWS, BATCH_ROWS); // warm-up
    assert_marginal("hash join", run(10_000, 90_000), run(20_000, 180_000));
}

#[test]
fn index_nested_loop_join_allocates_nothing_per_probed_row() {
    let _serial = serial();
    // Every outer row matches one pad-heavy inner tuple.
    let inner = pad_heavy_heap(2000);
    let index = Arc::new(BTreeIndex::build_from_heap("pk", &inner, 0).unwrap());
    let run = |outer_rows: usize| {
        let mut op = IndexNestedLoopJoin::new(
            Prebuilt::new(outer_rows, 2000),
            0,
            Arc::clone(&inner),
            Arc::clone(&index),
            Predicate::True,
            JoinType::Inner,
            storage(),
        );
        let (allocs, out) = allocs_for(&mut op);
        assert_eq!(out, outer_rows);
        (allocs, outer_rows)
    };
    run(BATCH_ROWS); // warm-up
    let (small, large) = (run(50_000), run(100_000));
    assert_marginal("index nested-loop join", small, large);
}

#[test]
fn sort_allocations_are_sublinear_in_rows() {
    let _serial = serial();
    let run = |rows: usize, budget: usize| {
        let child = Prebuilt::with_text(rows, rows / 7 + 1);
        let mut op = Sort::new(child, storage(), vec![SortKey::asc(0)]).with_mem_budget(budget);
        let (allocs, out) = allocs_for(&mut op);
        assert_eq!(out, rows);
        (allocs, rows)
    };
    run(BATCH_ROWS, 0); // warm-up
    assert_marginal("in-memory sort", run(100_000, 0), run(200_000, 0));
    // 27 encoded bytes a row: a run every ~2 400 rows, ~40 more at 2N.
    assert_marginal("external sort", run(100_000, 64 << 10), run(200_000, 64 << 10));
}

/// A spill is its charge: the external sort keeps each spilled run once,
/// in its run batch, and encodes no second copy into an overflow file.
/// So draining a [`Sort`] under a 64 KiB budget (dozens of runs) peaks
/// within [`SPILLED_SORT_PEAK_BOUND`] of the same drain unbudgeted (1.24×:
/// 5.36 against 4.33 MB; what the budget adds is the merge's order vector
/// and the run batch's growth). An encoded copy of every row (27 bytes a
/// row here) takes the budgeted peak past it: 7.96 MB, 1.84×.
#[test]
fn a_spilled_sort_holds_no_second_copy_of_its_rows() {
    let _serial = serial();
    const ROWS: usize = 100_000;
    // Peak live bytes of one drain above those live before it.
    let peak = |budget: usize| {
        let child = Prebuilt::with_text(ROWS, ROWS / 7 + 1);
        let mut op = Sort::new(child, storage(), vec![SortKey::asc(0)]).with_mem_budget(budget);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        op.open().unwrap();
        let mut drained = 0;
        while let Some(morsel) = op.next_columns(batch_size()).unwrap() {
            drained += morsel.len();
        }
        op.close().unwrap();
        assert_eq!(drained, ROWS);
        PEAK.load(Ordering::Relaxed) - before
    };
    peak(0); // warm-up
    let (free, spilled) = (peak(0), peak(64 << 10));
    assert!(
        spilled as f64 <= SPILLED_SORT_PEAK_BOUND * free as f64,
        "a spilled sort peaked at {spilled} live bytes, the in-memory sort at {free}"
    );
}

/// How far a spilled sort's peak live bytes may exceed the in-memory
/// sort's (see [`a_spilled_sort_holds_no_second_copy_of_its_rows`]).
const SPILLED_SORT_PEAK_BOUND: f64 = 1.4;

/// A run cut that fails (an injected spill-write fault) fails the sort
/// typed, and dropping the sorter frees everything it held: this
/// thread's live bytes return to where they were before it was built.
#[test]
fn run_cut_failing_mid_sort_leaks_no_spill_file() {
    let _serial = serial();
    let st = storage();
    let mut input = Prebuilt::with_text(4 * BATCH_ROWS, 100);
    let first = input.next_columns(BATCH_ROWS).unwrap().unwrap();
    let second = input.next_columns(BATCH_ROWS).unwrap().unwrap();
    let live = THREAD_LIVE.with(Cell::get);
    let mut sorter = ExternalSorter::new(st.clone(), vec![SortKey::asc(0)], 16 << 10);
    sorter.push_batch(&first).unwrap();
    assert!(sorter.run_count() > 0, "the first morsel cuts runs");
    st.set_faults(Some(FaultConfig::new(3).spill_err(1.0)));
    let err = sorter.push_batch(&second).unwrap_err();
    assert!(matches!(err, smooth_types::Error::Faulted { .. }), "{err}");
    st.set_faults(None);
    drop(sorter);
    assert_eq!(THREAD_LIVE.with(Cell::get), live, "the failed sorter left bytes live");
}
