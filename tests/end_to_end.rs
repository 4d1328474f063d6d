//! Cross-crate integration tests: every access path, policy and trigger
//! must agree on query results, across devices and workloads, end to end
//! through the `Database` facade.

use smoothscan::prelude::*;
use smoothscan::workload::{micro, skew, tpch};

fn micro_db(rows: u64) -> Database {
    let mut db = Database::new(StorageConfig::default());
    micro::install(&mut db, rows, 99).unwrap();
    db
}

fn sorted_ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn every_access_path_returns_identical_results_across_selectivities() {
    let db = micro_db(40_000);
    for sel in [0.0, 0.0005, 0.01, 0.25, 1.0] {
        let reference = db.run(&micro::query(sel, false, AccessPathChoice::ForceFull)).unwrap();
        let expected = sorted_ids(&reference.rows);
        for access in [
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Switch { estimate: 500 },
            AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()),
            AccessPathChoice::Smooth(
                SmoothScanConfig::eager_elastic().with_policy(PolicyKind::Greedy),
            ),
            AccessPathChoice::Smooth(
                SmoothScanConfig::eager_elastic().with_policy(PolicyKind::SelectivityIncrease),
            ),
            AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic().mode1_only()),
            AccessPathChoice::Auto,
        ] {
            let got = db.run(&micro::query(sel, false, access.clone())).unwrap();
            assert_eq!(sorted_ids(&got.rows), expected, "sel {sel}, access {access:?}");
        }
        // Ordered, Smooth Scan serves the same rows through its Result Cache.
        let ordered = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
        let got = db.run(&micro::query(sel, true, ordered)).unwrap();
        assert_eq!(sorted_ids(&got.rows), expected, "sel {sel}, ordered Smooth Scan");
    }
}

#[test]
fn ordered_queries_respect_key_order_on_every_path() {
    let db = micro_db(30_000);
    for access in [
        AccessPathChoice::ForceFull,
        AccessPathChoice::ForceIndex,
        AccessPathChoice::ForceSort,
        AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()),
    ] {
        let got = db.run(&micro::query(0.1, true, access.clone())).unwrap();
        let keys: Vec<i64> = got.rows.iter().map(|r| r.int(micro::C2).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{access:?} broke key order");
    }
}

/// The Result Cache is under the engine's memory budget: an `ordered:`
/// Smooth Scan run through `Database::run` under a small `mem_bytes`
/// returns the unbudgeted rows in the same order, at one worker and two,
/// and charges more I/O — its spilled partitions' overflow writes and
/// re-reads — on the I/O lane only.
#[test]
fn an_ordered_smooth_scan_spills_its_result_cache_under_mem_bytes() {
    let mut db = micro_db(30_000);
    let plan = micro::query(0.1, true, AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()));
    let mut run = |workers, mem_bytes| {
        db.set_workers(workers);
        db.set_mem_bytes(mem_bytes);
        db.storage().flush_pool();
        db.run(&plan).unwrap()
    };
    let free = run(1, 0);
    for workers in [1, 2] {
        let budgeted = run(workers, 16 << 10);
        assert!(budgeted.rows == free.rows, "the budget changed the rows at {workers} workers");
        let (clock, free_clock) = (budgeted.stats.clock, free.stats.clock);
        assert_eq!(clock.cpu_ns, free_clock.cpu_ns, "spill charges only the I/O lane");
        assert!(
            clock.io_ns > free_clock.io_ns,
            "the Result Cache did not spill at {workers} workers: {clock:?} vs {free_clock:?}"
        );
    }
}

#[test]
fn triggers_agree_with_eager_results() {
    let db = micro_db(30_000);
    let expected =
        sorted_ids(&db.run(&micro::query(0.05, false, AccessPathChoice::ForceFull)).unwrap().rows);
    let heap = &db.table(micro::TABLE).unwrap().heap;
    let model = CostModel::new(
        TableGeometry::new(heap.schema().estimated_tuple_width(16) as u64, heap.tuple_count()),
        DeviceProfile::hdd(),
    );
    for trigger in [
        Trigger::Eager,
        Trigger::OptimizerDriven {
            estimated_cardinality: 40,
            policy: PolicyKind::SelectivityIncrease,
        },
        Trigger::SlaDriven { bound_ns: (2.0 * model.fs_cost_ns()) as u64 },
    ] {
        let access =
            AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic().with_trigger(trigger));
        let got = db.run(&micro::query(0.05, false, access)).unwrap();
        assert_eq!(sorted_ids(&got.rows), expected, "{trigger:?}");
    }
}

#[test]
fn scan_statistics_count_every_row_on_every_path_and_trigger() {
    let db = micro_db(40_000);
    let optimizer = |estimated_cardinality| Trigger::OptimizerDriven {
        estimated_cardinality,
        policy: PolicyKind::SelectivityIncrease,
    };
    let smooth =
        |trigger| AccessPathChoice::Smooth(SmoothScanConfig::default().with_trigger(trigger));
    for access in [
        AccessPathChoice::ForceFull,
        AccessPathChoice::ForceIndex,
        AccessPathChoice::ForceSort,
        AccessPathChoice::Switch { estimate: 1_000_000 },
        AccessPathChoice::Switch { estimate: 100 },
        smooth(Trigger::Eager),
        smooth(optimizer(1_000_000)),
        smooth(optimizer(100)),
        smooth(Trigger::SlaDriven { bound_ns: 1 }),
    ] {
        for ordered in [false, true] {
            let got = db.run(&micro::query(0.01, ordered, access.clone())).unwrap();
            let (rows, scan) = (got.rows.len() as u64, got.scan);
            assert!(rows > 0, "{access:?}");
            assert_eq!(scan.rows_processed, rows, "{access:?}, ordered {ordered}");
            assert!(scan.rows_scanned >= rows, "{access:?}, ordered {ordered}: {scan:?}");
        }
    }
}

#[test]
fn smooth_scan_is_robust_where_index_scan_collapses() {
    let db = micro_db(60_000);
    // At 50% selectivity the index scan must be an order of magnitude
    // worse than both the full scan and Smooth Scan.
    let full = db.run(&micro::query(0.5, false, AccessPathChoice::ForceFull)).unwrap().stats;
    let index = db.run(&micro::query(0.5, false, AccessPathChoice::ForceIndex)).unwrap().stats;
    let smooth = db
        .run(&micro::query(0.5, false, AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())))
        .unwrap()
        .stats;
    assert!(index.clock.total_ns() > 10 * full.clock.total_ns());
    assert!(smooth.clock.total_ns() < index.clock.total_ns() / 5);
    // And at very low selectivity, Smooth stays close to the index scan.
    let full_low = db.run(&micro::query(0.0001, false, AccessPathChoice::ForceFull)).unwrap().stats;
    let smooth_low = db
        .run(&micro::query(
            0.0001,
            false,
            AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()),
        ))
        .unwrap()
        .stats;
    assert!(smooth_low.clock.total_ns() < full_low.clock.total_ns());
}

#[test]
fn ssd_narrows_the_random_penalty() {
    let mut hdd = Database::new(StorageConfig::default());
    micro::install(&mut hdd, 30_000, 5).unwrap();
    let ssd_cfg = StorageConfig { device: DeviceProfile::ssd(), ..StorageConfig::default() };
    let mut ssd = Database::new(ssd_cfg);
    micro::install(&mut ssd, 30_000, 5).unwrap();
    let ratio = |db: &Database| {
        let f = db.run(&micro::query(0.02, false, AccessPathChoice::ForceFull)).unwrap().stats;
        let i = db.run(&micro::query(0.02, false, AccessPathChoice::ForceIndex)).unwrap().stats;
        i.clock.total_ns() as f64 / f.clock.total_ns() as f64
    };
    assert!(ratio(&ssd) < ratio(&hdd), "index scans hurt relatively less on SSD");
}

#[test]
fn skew_workload_all_paths_agree() {
    let mut db = Database::new(StorageConfig::default());
    skew::install(&mut db, 60_000, 3).unwrap();
    let expected = sorted_ids(&db.run(&skew::query(AccessPathChoice::ForceFull)).unwrap().rows);
    assert!(!expected.is_empty());
    for access in [
        AccessPathChoice::ForceIndex,
        AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()),
        AccessPathChoice::Smooth(
            SmoothScanConfig::eager_elastic().with_policy(PolicyKind::SelectivityIncrease),
        ),
    ] {
        let got = db.run(&skew::query(access.clone())).unwrap();
        assert_eq!(sorted_ids(&got.rows), expected, "{access:?}");
    }
}

#[test]
fn tpch_pipeline_round_trips() {
    let mut db = Database::new(StorageConfig::default());
    tpch::install(&mut db, tpch::Scale::tiny()).unwrap();
    tpch::gen::create_tuning_indexes(&mut db).unwrap();
    // Smooth Scan inside multi-operator plans produces the same aggregates
    // as the forced-path plans.
    for q in tpch::queries::Fig4Query::all() {
        let a = db.run(&q.plan(q.psql_access())).unwrap();
        let b =
            db.run(&q.plan(AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic()))).unwrap();
        assert_eq!(a.rows.len(), b.rows.len(), "{}", q.label());
    }
}

/// An index join whose inner scan's access is Smooth Scan runs on the
/// morphing inner side (Section IV-B) through `Database::run`: `explain`
/// names it, it returns what the plain side returns — inner and semi —
/// and through a small pool it reads far fewer pages, since it harvests
/// each inner page at most once.
#[test]
fn a_smooth_inner_access_runs_the_morphing_index_join() {
    let config = StorageConfig { pool_pages: 16, ..StorageConfig::default() };
    let mut db = Database::new(config).with_mem_bytes(0);
    micro::install(&mut db, 20_000, 5).unwrap();
    let plan = |access, ty| {
        let inner = ScanSpec::new(micro::TABLE, Predicate::True).with_access(access);
        micro::query(1.0, false, AccessPathChoice::ForceFull)
            .join(LogicalPlan::scan(inner), micro::C2, micro::C2, ty, JoinStrategy::IndexNestedLoop)
            .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)])
    };
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::default());
    for ty in [JoinType::Inner, JoinType::LeftSemi] {
        let plain = db.run(&plan(AccessPathChoice::ForceIndex, ty)).unwrap();
        let morphing = db.run(&plan(smooth.clone(), ty)).unwrap();
        assert_eq!(morphing.rows, plain.rows, "{ty:?}");
        let label = db.explain(&plan(smooth.clone(), ty)).unwrap();
        assert!(label.contains("⋈ SmoothInnerPath(micro via micro_c2)]"), "{label}");
        let (morphed, probed) = (morphing.stats.io.pages_read, plain.stats.io.pages_read);
        assert!(4 * morphed < probed, "{ty:?}: {morphed} vs {probed} pages");
    }
}

#[test]
fn stats_damage_changes_plans_not_results() {
    let mut db = Database::new(StorageConfig::default());
    micro::install(&mut db, 30_000, 17).unwrap();
    let plan = micro::query(0.3, false, AccessPathChoice::Auto);
    let honest = db.run(&plan).unwrap();
    let honest_explain = db.explain(&plan).unwrap();
    db.set_stats_quality(micro::TABLE, StatsQuality::FixedCardinality(5)).unwrap();
    let fooled = db.run(&plan).unwrap();
    let fooled_explain = db.explain(&plan).unwrap();
    assert_ne!(honest_explain, fooled_explain, "the damaged stats must flip the plan");
    assert_eq!(sorted_ids(&honest.rows), sorted_ids(&fooled.rows));
    assert!(fooled.stats.clock.total_ns() > honest.stats.clock.total_ns());
}

#[test]
fn smooth_scan_metrics_tell_the_morphing_story() {
    let db = micro_db(40_000);
    let spec = ScanSpec::new(micro::TABLE, micro::predicate(0.8)).with_order();
    let mut scan = db.build_smooth_scan(&spec, SmoothScanConfig::eager_elastic()).unwrap();
    let result = db.run_operator(&mut scan).unwrap();
    let m = scan.metrics();
    assert_eq!(m.tuples_emitted, result.stats.rows);
    assert!(m.mode2_pages > m.mode1_pages, "high selectivity must flatten: {m:?}");
    assert!(m.max_region_pages > 1);
    assert!(m.cache.hits > 0);
    assert!(m.morphing_accuracy().unwrap() > 0.9);
}

/// The scheduler's wall-clock timers reach `Database::run`: a query that
/// claimed morsels held its source lock and processed morsels for some
/// time, and for no longer than its wall time on every worker. One heap
/// source (decoded outside the lock) and one shared operator (decoded
/// inside it).
#[test]
fn source_hold_and_processing_time_reach_the_query_statistics() {
    let (mut db, workers) = (micro_db(40_000), 2);
    db.set_workers(workers);
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    for access in [AccessPathChoice::ForceFull, smooth] {
        let started = std::time::Instant::now();
        let out = db.run(&micro::query(0.3, false, access.clone())).unwrap();
        let bound = started.elapsed().as_nanos() as u64 * workers as u64;
        assert!(out.scan.morsels > 4, "{access:?}: {:?}", out.scan);
        for ns in [out.scan.src_hold_ns, out.scan.proc_ns] {
            assert!(ns > 0 && ns <= bound, "{access:?}: {ns} ns, wall × workers {bound} ns");
        }
    }
}

/// The pool and the operator tree attribute the same scan statistics:
/// the tuples a query's scans inspect and emit, and the pages, requests,
/// hits and bytes it reads, whichever thread ran the scan and at every
/// pool width — for a heap source, a shared source, the phases of a
/// join and phases that read a sort's or an aggregate's output.
#[test]
fn the_pool_and_the_tree_attribute_the_same_scan_statistics() {
    let mut db = micro_db(40_000);
    let full = |sel| micro::query(sel, false, AccessPathChoice::ForceFull);
    let eager = AccessPathChoice::Smooth(SmoothScanConfig::default().with_trigger(Trigger::Eager));
    let plans = [
        ("full scan", full(0.1)),
        ("projected full scan", full(0.1).project(vec![0, 2])),
        ("hash join", full(0.01).join(full(0.05), 1, 1, JoinType::Inner, JoinStrategy::Hash)),
        ("grouped aggregate", full(0.1).aggregate(vec![1], vec![AggFunc::CountStar])),
        ("eager smooth scan", micro::query(0.05, false, eager)),
        (
            "sort under an aggregate",
            full(0.1).sort(vec![SortKey::desc(0)]).aggregate(vec![1], vec![AggFunc::CountStar]),
        ),
        (
            "aggregate on a join's probe side",
            full(0.1).aggregate(vec![1], vec![AggFunc::CountStar]).join(
                full(0.05),
                0,
                1,
                JoinType::Inner,
                JoinStrategy::Hash,
            ),
        ),
    ];
    let counted = |s: smoothscan::storage::ScanStatistics| {
        (s.rows_scanned, s.rows_processed, s.pages_read, s.io_requests, s.buffer_hits, s.read_bytes)
    };
    for (name, plan) in &plans {
        let mut tree = db.build(plan).unwrap();
        let expected = counted(db.run_operator_batches(&mut *tree).unwrap().scan);
        assert!(expected.0 > 0 && expected.1 > 0 && expected.2 > 0, "{name}: {expected:?}");
        for workers in [1, 2, 4] {
            db.set_workers(workers);
            let got = counted(db.run_batches(plan).unwrap().scan);
            assert_eq!(got, expected, "{name}, {workers} workers");
        }
    }
}

/// No result holds a page frame: with a query's `BatchResult` still held
/// and the pool emptied, every page of every table is referenced by its
/// heap file and by this test's handle alone. Text reaches the result as
/// arena bytes, never as a view of the frame it was read from, so what a
/// result costs in memory is what its batches hold.
#[test]
fn no_result_holds_a_page_frame() {
    use smoothscan::types::PageId;
    use std::sync::Arc;
    let mut db = micro_db(20_000);
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    let all = || LogicalPlan::scan(ScanSpec::new(micro::TABLE, Predicate::True));
    let few = LogicalPlan::scan(ScanSpec::new(micro::TABLE, Predicate::int_lt(0, 300)));
    let plans = [
        ("full scan, 100%", micro::query(1.0, false, AccessPathChoice::ForceFull)),
        ("index scan, 1%", micro::query(0.01, false, AccessPathChoice::ForceIndex)),
        ("smooth scan", micro::query(0.1, false, smooth.clone())),
        ("ordered smooth scan", micro::query(0.1, true, smooth)),
        // Both carry the inner side's `pad` text into the result.
        ("hash join", few.clone().join(all(), 0, 0, JoinType::Inner, JoinStrategy::Hash)),
        (
            "index nested-loop join",
            few.join(all(), micro::C2, micro::C2, JoinType::Inner, JoinStrategy::IndexNestedLoop),
        ),
        ("sort", micro::query(0.2, false, AccessPathChoice::ForceFull).sort(vec![SortKey::asc(2)])),
    ];
    for workers in [1, 4] {
        db.set_workers(workers);
        for (what, plan) in &plans {
            let held = db.run_batches(plan).unwrap();
            assert!(!held.is_empty(), "{what} returns rows");
            db.storage().flush_pool();
            for table in db.catalog().table_names() {
                let heap = &db.table(&table).unwrap().heap;
                for p in 0..heap.page_count() {
                    let page = heap.read_raw(PageId(p)).unwrap();
                    let holders = Arc::strong_count(&page);
                    assert_eq!(holders, 2, "{what} at {workers} workers holds {table} page {p}");
                }
            }
            drop(held);
        }
    }
}

/// Every `Database::run` is a scheduled query, so the lifecycle
/// guarantees — the virtual-clock timeout, panic containment at the
/// morsel fault site, FIFO admission — hold for a plan with nothing to
/// fan out (a bare adaptive scan, ≈ 10 virtual ms on the HDD profile)
/// and at a pool width of one exactly as they do for a parallel plan on
/// a wide pool.
#[test]
fn lifecycle_guarantees_hold_at_every_width_and_plan_shape() {
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    let plan = micro::query(0.05, false, smooth);
    let mut db = micro_db(30_000);
    db.set_faults(None);
    db.set_workers(1);
    let solo = db.run(&plan).unwrap();
    assert!(solo.rows.len() > 1000 && solo.stats.secs() > 0.005, "{:?}", solo.stats);
    for workers in [1, 2] {
        db.set_workers(workers);
        db.set_query_timeout_ms(1);
        let timed_out = db.run(&plan).map(|r| r.rows.len());
        assert!(matches!(timed_out, Err(Error::Cancelled)), "{workers} workers: {timed_out:?}");
        db.set_query_timeout_ms(0);
        db.set_faults(Some(FaultConfig::new(7).panic(1.0)));
        let panicked = db.run(&plan).map(|r| r.rows.len());
        assert!(
            matches!(&panicked, Err(Error::Exec(msg)) if msg.contains("panic (morsel key ")),
            "{workers} workers: {panicked:?}"
        );
        db.set_faults(None);
        assert_eq!(db.run(&plan).unwrap().rows, solo.rows, "{workers} workers survive a panic");
    }
    // One worker, one admission slot, two sessions: the second `run`
    // queues behind the first instead of driving itself on its caller.
    db.set_workers(1);
    db.set_max_queries(1);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| db.run(&plan));
        let b = s.spawn(|| db.run(&plan));
        (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
    });
    assert_eq!(a.rows, solo.rows);
    assert_eq!(b.rows, solo.rows);
}

/// A page store that serves one page with one tuple cut short by a byte
/// (its slot's length field shrunk), and every other page intact.
struct OneBadTuple {
    pages: smoothscan::storage::MemBackend,
    bad_page: u32,
}

impl smoothscan::storage::Backend for OneBadTuple {
    fn page_count(&self) -> u32 {
        self.pages.page_count()
    }

    fn read(&self, page: u32) -> smoothscan::types::Result<smoothscan::storage::PageBuf> {
        let image = self.pages.read(page)?;
        if page != self.bad_page {
            return Ok(image);
        }
        let mut bytes = image.to_vec();
        let len_at = 4 + 4 * 3 + 2; // header, three slot entries, slot 3's offset
        let len = u16::from_le_bytes([bytes[len_at], bytes[len_at + 1]]) - 1;
        bytes[len_at..len_at + 2].copy_from_slice(&len.to_le_bytes());
        Ok(bytes.into())
    }

    fn append(&mut self, page: smoothscan::storage::PageBuf) -> smoothscan::types::Result<u32> {
        self.pages.append(page)
    }
}

#[test]
fn a_corrupt_tuple_errors_under_every_access_path_and_both_protocols() {
    use smoothscan::executor::{collect_rows_volcano, FullTableScan, IndexNestedLoopJoin};
    use smoothscan::storage::{HeapLoader, MemBackend};
    use std::ops::Bound;
    use std::sync::Arc;
    let load = |backend: Box<dyn smoothscan::storage::Backend>| {
        let mut loader = HeapLoader::with_backend("t", micro::schema(), backend);
        micro::rows(2000, 7).for_each(|r| assert!(loader.push(&r).is_ok()));
        Arc::new(loader.finish().unwrap())
    };
    // The index is built over an intact twin (same rows, same TIDs).
    let intact = load(Box::new(MemBackend::new()));
    let heap = load(Box::new(OneBadTuple { pages: MemBackend::new(), bad_page: 5 }));
    let index = Arc::new(smoothscan::index::BTreeIndex::build_from_heap("c2", &intact, 1).unwrap());
    let storage = Storage::new(StorageConfig::default());
    // Every predicate below passes over the bad tuple without it
    // qualifying for anything a reader could skip: validation is per
    // inspected tuple.
    let (lo, hi) = (Bound::Included(0), Bound::Excluded(micro::KEY_DOMAIN));
    let smooth = |ordered: bool, trigger: Trigger| -> Box<dyn Operator> {
        Box::new(
            smoothscan::core::SmoothScan::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                storage.clone(),
                1,
                lo,
                hi,
                Predicate::int_lt(0, 0),
                SmoothScanConfig::default().with_trigger(trigger),
            )
            .with_order(ordered),
        )
    };
    // The join probes a few keys, the bad tuple's among them.
    let bad_page = intact.read_raw(smoothscan::types::PageId(5)).unwrap();
    let bad_key = intact.decode_slot(&bad_page, 3).unwrap().int(1).unwrap();
    let outer = || {
        let schema = Schema::new(vec![Column::new("fk", DataType::Int64)]).unwrap();
        let keys = [bad_key - 1, bad_key, bad_key + 1].map(|k| Row::new(vec![Value::Int(k)]));
        Box::new(smoothscan::executor::operator::ValuesOp::new(schema, keys.to_vec()))
    };
    let inlj = |ty: JoinType| -> Box<dyn Operator> {
        let (heap, index) = (Arc::clone(&heap), Arc::clone(&index));
        let residual = Predicate::int_lt(0, 0);
        Box::new(IndexNestedLoopJoin::new(outer(), 0, heap, index, residual, ty, storage.clone()))
    };
    let full = FullTableScan::new(Arc::clone(&heap), storage.clone(), micro::predicate(0.0));
    let paths: Vec<(&str, Box<dyn Operator>)> = vec![
        ("full", Box::new(full)),
        ("index", smooth(false, Trigger::Never)),
        ("sort", smooth(false, Trigger::Sort)),
        ("smooth", smooth(false, Trigger::Eager)),
        ("ordered smooth", smooth(true, Trigger::Eager)),
        ("inlj", inlj(JoinType::Inner)),
        ("semi inlj", inlj(JoinType::LeftSemi)),
    ];
    for (path, mut op) in paths {
        let by_row = collect_rows_volcano(op.as_mut());
        assert!(matches!(by_row, Err(Error::Corrupt(_))), "{path} next(): {by_row:?}");
        let by_morsel = collect_rows(op.as_mut());
        assert!(matches!(by_morsel, Err(Error::Corrupt(_))), "{path} next_columns: {by_morsel:?}");
    }
}
