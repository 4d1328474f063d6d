//! Per-layer kernels of the traced run. Layers are the engine's crates.
//!
//! Every kernel times calls into a layer's public functions from out
//! here, on pages, rows, batches and keys taken from the workload's own
//! micro table (every workload has one), so a layer's number is taken on
//! the data its end-to-end rounds ran on. `measure::kernel` applies the
//! measurement-trap guards. README.md maps each metric to the end-to-end
//! metric it should move.

use std::hint::black_box;
use std::ops::Bound;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use smooth_workload::{micro, tpch};
use smoothscan::core::SmoothScanMetrics;
use smoothscan::executor::{
    collect_batches, collect_rows_volcano, run_pipeline_traced, ExternalSorter, FullTableScan,
    HashAggregate, JoinBuildTable, ScanFilter, Sort,
};
use smoothscan::index::BTreeIndex;
use smoothscan::prelude::*;
use smoothscan::stats::TableStats;
use smoothscan::storage::{HeapFile, HeapLoader, PageBuf, PageView, VirtualClock};
use smoothscan::types::{spill as codec, PageId};

use crate::measure::{kernel, median, splitmix, timed, KernelSample, Metric};
use crate::workloads::{self, Class, SELECTIVITIES};

/// Heap pages a kernel fixture holds (≈ 23 k micro rows, ≈ 2 MB: larger
/// than L2, so per-row numbers include the cache misses a scan sees).
const FIXTURE_PAGES: u32 = 256;
/// Budget that makes the external-sort kernel cut about ten runs.
const EXTSORT_BUDGET: usize = 256 << 10;
/// Calls per pass of the clock-charge kernels.
const CLOCK_CALLS: u64 = 200_000;
/// Point lookups per pass of the index probe kernel.
const PROBE_KEYS: u64 = 1024;
/// Whole-query repetitions behind each wall median in this module.
const QUERY_REPS: usize = 3;

/// What the kernels report.
#[derive(Default)]
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// `(metric, sample)` for every kernel that went through the n / 2n
    /// guard — the result file keeps them as detail rows.
    pub samples: Vec<(String, KernelSample)>,
}

impl LayerReport {
    /// A kernel's time per unit: nanoseconds, or microseconds where the
    /// unit says so.
    fn timed(&mut self, name: &str, unit: &'static str, sample: KernelSample) {
        let scale = if unit.starts_with("us/") { 1e-3 } else { 1.0 };
        self.metrics.push(Metric::new(name, unit, sample.ns_per_unit * scale));
        self.samples.push((name.into(), sample));
    }

    fn count(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Kernels whose `time(2n) / time(n)` stayed outside the band.
    pub fn scaling_failures(&self) -> Vec<String> {
        self.samples
            .iter()
            .filter(|(_, s)| !s.scaling_ok)
            .map(|(name, s)| format!("{name}: time(2n)/time(n) = {:.2}", s.scaling))
            .collect()
    }
}

/// Columnar source over prepared batches: feeds the aggregate and sort
/// kernels without a scan underneath, so they time the fold, not the
/// decode. Cloning a prepared batch per call is the only cost it adds.
#[derive(Clone)]
struct BatchSource {
    schema: Schema,
    batches: Vec<ColumnBatch>,
    next: usize,
    row: usize,
}

impl Operator for BatchSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), Error> {
        (self.next, self.row) = (0, 0);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>, Error> {
        while let Some(batch) = self.batches.get(self.next) {
            if self.row < batch.len() {
                self.row += 1;
                return Ok(Some(batch.row(self.row - 1)));
            }
            (self.next, self.row) = (self.next + 1, 0);
        }
        Ok(None)
    }

    fn next_columns(&mut self, _max: usize) -> Result<Option<ColumnBatch>, Error> {
        let batch = self.batches.get(self.next).cloned();
        self.next += 1;
        Ok(batch)
    }

    fn close(&mut self) -> Result<(), Error> {
        Ok(())
    }

    fn label(&self) -> String {
        "BatchSource".into()
    }
}

/// Data every kernel shares, cut from the workload's micro table.
struct Fixture {
    schema: Schema,
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    pages: Vec<PageBuf>,
    rows: Vec<Row>,
    batch: ColumnBatch,
    /// `rows` re-loaded as a heap of their own (for whole-heap calls).
    small: Arc<HeapFile>,
    config: StorageConfig,
}

impl Fixture {
    fn new(db: &Database) -> Result<Self, Error> {
        let entry = db.table(micro::TABLE)?;
        let heap = Arc::clone(&entry.heap);
        let index = Arc::clone(
            &entry
                .index_on(micro::C2)
                .ok_or_else(|| Error::plan("micro table has no c2 index"))?
                .index,
        );
        let schema = heap.schema().clone();
        let n = FIXTURE_PAGES.min(heap.page_count());
        let pages = (0..n).map(|p| heap.read_raw(PageId(p))).collect::<Result<Vec<_>, _>>()?;
        let mut rows = Vec::new();
        for page in &pages {
            rows.extend(heap.decode_all(page)?);
        }
        let batch = ColumnBatch::from_rows(&schema, &rows)?;
        let mut loader = HeapLoader::new_mem("kernel_fixture", schema.clone());
        for row in &rows {
            loader.push(row)?;
        }
        let config = StorageConfig {
            device: db.storage().device(),
            cpu: *db.storage().cpu(),
            pool_pages: 2 * FIXTURE_PAGES as usize,
        };
        Ok(Fixture {
            schema,
            heap,
            index,
            pages,
            rows,
            batch,
            small: Arc::new(loader.finish()?),
            config,
        })
    }

    /// A private storage instance, so kernels never disturb the
    /// database's clock, counters or pool.
    fn storage(&self, pool_pages: usize) -> Storage {
        Storage::new(StorageConfig { pool_pages, ..self.config })
    }

    fn source(&self) -> BatchSource {
        let batches = self
            .rows
            .chunks(smoothscan::executor::batch_size())
            .map(|chunk| {
                ColumnBatch::from_rows(&self.schema, chunk).expect("fixture rows fit their schema")
            })
            .collect();
        BatchSource { schema: self.schema.clone(), batches, next: 0, row: 0 }
    }
}

/// Run two copies of `work` on two threads released together; the elapsed
/// time runs from the release to both having finished.
fn on_two_threads(work: impl Fn() + Sync) -> Duration {
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            barrier.wait();
            work();
        });
        barrier.wait();
        let t = Instant::now();
        work();
        peer.join().expect("kernel peer thread panicked");
        t.elapsed()
    })
}

fn types_layer(fx: &Fixture, out: &mut LayerReport) {
    let rows = fx.rows.len() as u64;
    out.timed(
        "types.row_decode_ns_per_row",
        "ns/row",
        kernel(|| {
            let (dt, n) = timed(|| {
                fx.pages
                    .iter()
                    .map(|p| fx.heap.decode_all(p).expect("fixture page decodes").len())
                    .sum::<usize>()
            });
            (dt, n as u64)
        }),
    );
    out.timed(
        "types.batch_into_rows_ns_per_row",
        "ns/row",
        kernel(|| {
            let batch = fx.batch.clone();
            let (dt, made) = timed(|| batch.into_rows());
            (dt, made.len() as u64)
        }),
    );
    out.timed(
        "types.batch_from_rows_ns_per_row",
        "ns/row",
        kernel(|| {
            let (dt, _) =
                timed(|| ColumnBatch::from_rows(&fx.schema, &fx.rows).expect("fixture rows fit"));
            (dt, rows)
        }),
    );
    let mut buf = Vec::new();
    out.timed(
        "types.spill_encode_ns_per_byte",
        "ns/byte",
        kernel(|| {
            buf.clear();
            let (dt, _) = timed(|| fx.rows.iter().for_each(|r| codec::encode_row(r, &mut buf)));
            (dt, black_box(&buf).len() as u64)
        }),
    );
    let width = fx.schema.len();
    out.timed(
        "types.spill_decode_ns_per_byte",
        "ns/byte",
        kernel(|| {
            let (dt, _) = timed(|| {
                let mut at = 0;
                while at < buf.len() {
                    let (row, used) =
                        codec::decode_row(&buf[at..], width).expect("own encoding decodes");
                    black_box(row);
                    at += used;
                }
            });
            (dt, buf.len() as u64)
        }),
    );
}

fn storage_layer(fx: &Fixture, out: &mut LayerReport) {
    let n = fx.pages.len() as u32;
    let read_all = |s: &Storage| {
        timed(|| {
            (0..n).for_each(|p| {
                drop(black_box(s.read_heap_page(&fx.heap, PageId(p)).expect("page reads")))
            })
        })
    };
    let resident = fx.storage(2 * n as usize);
    read_all(&resident);
    out.timed(
        "storage.pool_hit_ns_per_page",
        "ns/page",
        kernel(|| (read_all(&resident).0, n as u64)),
    );
    out.timed(
        "storage.pool_miss_ns_per_page",
        "ns/page",
        kernel(|| {
            resident.flush_pool();
            (read_all(&resident).0, n as u64)
        }),
    );
    // Cycling through 4× the pool's capacity: once warm, every read
    // misses and evicts.
    let small_pool = fx.storage((n / 4).max(1) as usize);
    out.timed(
        "storage.pool_evict_ns_per_page",
        "ns/page",
        kernel(|| (read_all(&small_pool).0, n as u64)),
    );
    out.timed(
        "storage.read_run_ns_per_page",
        "ns/page",
        kernel(|| {
            resident.flush_pool();
            let (dt, pages) = timed(|| {
                (0..n)
                    .step_by(32)
                    .map(|p| {
                        resident
                            .read_heap_run(&fx.heap, PageId(p), 32.min(n - p))
                            .expect("run reads")
                            .len()
                    })
                    .sum::<usize>()
            });
            (dt, pages as u64)
        }),
    );
    out.timed(
        "storage.load_ns_per_row",
        "ns/row",
        kernel(|| {
            let (dt, heap) = timed(|| {
                let mut loader = HeapLoader::new_mem("kernel_load", fx.schema.clone());
                for row in &fx.rows {
                    loader.push(row).expect("row loads");
                }
                loader.finish().expect("heap finishes")
            });
            (dt, heap.tuple_count())
        }),
    );
    let clock = VirtualClock::new();
    let charge = || (0..CLOCK_CALLS).for_each(|_| clock.charge_cpu(black_box(1)));
    out.timed(
        "storage.clock_charge_ns_per_call",
        "ns/call",
        kernel(|| (timed(charge).0, CLOCK_CALLS)),
    );
    out.timed(
        "storage.clock_charge_contended_ns_per_call",
        "ns/call",
        kernel(|| (on_two_threads(charge), CLOCK_CALLS)),
    );
    black_box(clock.snapshot());
}

fn index_layer(fx: &Fixture, seed: u64, out: &mut LayerReport) {
    out.timed(
        "index.build_ns_per_entry",
        "ns/entry",
        kernel(|| {
            let (dt, index) = timed(|| {
                BTreeIndex::build_from_heap("kernel_idx", &fx.small, micro::C2)
                    .expect("index builds")
            });
            (dt, index.len())
        }),
    );
    let storage = fx.storage(1 << 16);
    let keys: Vec<i64> =
        (0..PROBE_KEYS).map(|i| (splitmix(seed, i) % micro::KEY_DOMAIN as u64) as i64).collect();
    let probe_all = || keys.iter().map(|&k| fx.index.probe(&storage, k).len()).sum::<usize>();
    out.timed(
        "index.probe_ns_per_lookup",
        "ns/lookup",
        kernel(|| (timed(probe_all).0, PROBE_KEYS)),
    );
    out.timed(
        "index.range_ns_per_entry",
        "ns/entry",
        kernel(|| {
            let (dt, entries) = timed(|| {
                let mut cursor =
                    fx.index.range(&storage, Bound::Included(10_000), Bound::Excluded(12_000));
                let mut entries = 0u64;
                while let Some(entry) = cursor.next() {
                    black_box(entry);
                    entries += 1;
                }
                entries
            });
            (dt, entries)
        }),
    );
    // Nodes touched per point lookup, cached or not: descent plus leaf walk.
    let io0 = storage.io_snapshot();
    black_box(probe_all());
    let io = storage.io_snapshot().since(&io0);
    out.count(
        "index.pages_per_lookup",
        "pages",
        (io.pages_read + io.buffer_hits) as f64 / PROBE_KEYS as f64,
    );
}

fn stats_layer(fx: &Fixture, out: &mut LayerReport) {
    out.timed(
        "stats.analyze_ns_per_row",
        "ns/row",
        kernel(|| {
            let (dt, stats) =
                timed(|| TableStats::analyze(&fx.small).expect("fixture heap analyzes"));
            (dt, stats.row_count)
        }),
    );
}

fn executor_layer(fx: &Fixture, out: &mut LayerReport) {
    let rows = fx.rows.len() as u64;
    let storage = fx.storage(2 * FIXTURE_PAGES as usize);

    // Scan fill: the tuples of each fixture page, as the scans see them.
    let tuples: Vec<Vec<&[u8]>> = fx
        .pages
        .iter()
        .map(|p| {
            let view = PageView::new(p).expect("fixture page parses");
            view.iter().map(|t| t.expect("fixture slot reads")).collect()
        })
        .collect();
    let mut fill = |name: &str, sel: f64, views: bool| {
        let sample = kernel(|| {
            let mut filter = ScanFilter::new(micro::predicate(sel), &fx.schema);
            let mut batch = ColumnBatch::for_schema(&fx.schema);
            let (dt, inspected) = timed(|| {
                let mut inspected = 0;
                for (page, tuples) in fx.pages.iter().zip(&tuples) {
                    batch.clear();
                    let backing = views.then_some(page);
                    inspected += filter
                        .fill_columns(&fx.schema, tuples, backing, &mut batch)
                        .expect("fill")
                        .0;
                }
                inspected
            });
            (dt, inspected)
        });
        out.timed(name, "ns/row", sample);
    };
    fill("executor.fill_columns_views_ns_per_row.sel1", 0.01, true);
    fill("executor.fill_columns_views_ns_per_row.sel10", 0.1, true);
    fill("executor.fill_columns_views_ns_per_row.sel100", 1.0, true);
    fill("executor.fill_columns_owned_ns_per_row.sel10", 0.1, false);

    // Predicate kernels over a decoded batch: dense, and through a
    // selection vector naming every other row.
    let pred = micro::predicate(0.1);
    out.timed(
        "executor.filter_kernel_dense_ns_per_row",
        "ns/row",
        kernel(|| (timed(|| pred.filter_batch(&fx.batch).expect("filter")).0, rows)),
    );
    let mut sparse = fx.batch.clone();
    sparse.set_selection((0..rows as u32).step_by(2).collect());
    out.timed(
        "executor.filter_kernel_selvec_ns_per_row",
        "ns/row",
        kernel(|| (timed(|| pred.filter_batch(&sparse).expect("filter")).0, sparse.len() as u64)),
    );

    // Hash join: build on the 10 % qualifiers, probe with every row — the
    // shape of the `join_sel10` class.
    let mut build_side = fx.batch.clone();
    build_side.set_selection(pred.filter_batch(&fx.batch).expect("filter"));
    let build_rows = build_side.len() as u64;
    let build = |input: ColumnBatch| {
        let mut table = JoinBuildTable::new(&fx.schema, micro::C2);
        table.insert_batch(input).expect("build insert");
        table
    };
    out.timed(
        "executor.join_build_ns_per_row",
        "ns/row",
        kernel(|| {
            let input = build_side.clone();
            (timed(|| build(input)).0, build_rows)
        }),
    );
    let table = build(build_side.clone());
    let joined = fx.schema.join(&fx.schema);
    let probe = || {
        let mut matches = ColumnBatch::for_schema(&joined);
        table
            .probe_columns(&storage, &fx.batch, micro::C2, JoinType::Inner, &mut matches)
            .expect("probe");
        black_box(matches.len());
    };
    out.timed("executor.join_probe_ns_per_row", "ns/row", kernel(|| (timed(probe).0, rows)));
    out.timed(
        "executor.join_probe_w2_ns_per_row",
        "ns/row",
        kernel(|| (on_two_threads(probe), rows)),
    );

    // Aggregate fold and sort, fed by prepared batches.
    let source = fx.source();
    let mut fold = |name: &str, groups: Vec<usize>| {
        let aggs = vec![AggFunc::CountStar, AggFunc::Sum(3), AggFunc::Min(0), AggFunc::Max(0)];
        let sample = kernel(|| {
            let child = Box::new(source.clone());
            let (dt, _) = timed(|| {
                let mut op =
                    HashAggregate::new(child, groups.clone(), aggs.clone(), storage.clone())
                        .expect("agg");
                collect_batches(&mut op).expect("agg runs")
            });
            (dt, rows)
        });
        out.timed(name, "ns/row", sample);
    };
    fold("executor.agg_scalar_ns_per_row", vec![]);
    fold("executor.agg_grouped_ns_per_row", vec![2]);
    let keys = vec![SortKey::asc(micro::C2), SortKey::asc(0)];
    out.timed(
        "executor.sort_ns_per_row",
        "ns/row",
        kernel(|| {
            let child = Box::new(source.clone());
            let (dt, _) = timed(|| {
                let mut op = Sort::new(child, storage.clone(), keys.clone());
                collect_batches(&mut op).expect("sort runs")
            });
            (dt, rows)
        }),
    );
    let mut runs = 0;
    out.timed(
        "executor.extsort_ns_per_row",
        "ns/row",
        kernel(|| {
            let input = fx.rows.clone();
            let (dt, _) = timed(|| {
                let mut sorter = ExternalSorter::new(storage.clone(), keys.clone(), EXTSORT_BUDGET);
                input.into_iter().for_each(|r| sorter.push(r).expect("sorter push"));
                runs = sorter.run_count();
                sorter.finish().expect("sorter finishes")
            });
            (dt, rows)
        }),
    );
    out.count("executor.extsort_runs", "count", runs as f64);

    // The columnar spill path: encode a batch row by row off its typed
    // vectors, then hand the bytes over as one overflow file.
    out.timed(
        "executor.spill_write_ns_per_byte",
        "ns/byte",
        kernel(|| {
            let (dt, file) = timed(|| {
                let mut data = Vec::new();
                (0..fx.batch.physical_rows())
                    .for_each(|i| codec::encode_batch_row(&fx.batch, i, &mut data));
                smoothscan::executor::spill_write(&storage, data, rows).expect("spill write")
            });
            (dt, file.bytes_len())
        }),
    );

    // The two serial drivers over the same scan.
    let scan = || FullTableScan::new(Arc::clone(&fx.small), storage.clone(), micro::predicate(0.1));
    out.timed(
        "executor.driver_volcano_ns_per_row",
        "ns/row",
        kernel(|| {
            storage.flush_pool();
            let mut op = scan();
            (timed(|| collect_rows_volcano(&mut op).expect("volcano scan")).0, rows)
        }),
    );
    out.timed(
        "executor.driver_columnar_ns_per_row",
        "ns/row",
        kernel(|| {
            storage.flush_pool();
            let mut op = scan();
            (timed(|| collect_batches(&mut op).expect("columnar scan")).0, rows)
        }),
    );
}

/// Median wall seconds of `reps` cold runs of `plan` at `workers`.
fn wall_secs(db: &mut Database, plan: &LogicalPlan, workers: usize) -> Result<f64, Error> {
    db.set_workers(workers);
    db.run_batches(plan)?;
    let mut secs = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        let (dt, result) = timed(|| db.run_batches(plan).map(|r| r.len()));
        result?;
        secs.push(dt.as_secs_f64());
    }
    Ok(median(&secs))
}

/// Scheduler overhead and the scaling model's error, on whole queries.
fn scheduler_layer(db: &mut Database, out: &mut LayerReport) -> Result<(), Error> {
    // A 0 %-selectivity count(*) leaves the scheduler the least work per
    // morsel the engine can give it: claim, decode, reject, fold nothing.
    let empty = micro::query(0.0, false, AccessPathChoice::ForceFull)
        .aggregate(vec![], vec![AggFunc::CountStar]);
    let secs = wall_secs(db, &empty, 2)?;
    let morsels = db.run_batches(&empty)?.scan.morsels.max(1);
    out.count("executor.sched_ns_per_morsel", "ns/morsel", secs * 1e9 / morsels as f64);

    for (name, plan) in [
        ("agg_scalar_sel10", workloads::agg_scalar_sel10()),
        ("join_sel10", workloads::join_sel10()),
    ] {
        let pipeline = db
            .parallel_pipeline(&plan)?
            .ok_or_else(|| Error::plan("plan has no parallel pipeline"))?;
        db.storage().flush_pool();
        let (_, ledger) = run_pipeline_traced(pipeline)?;
        let measured = wall_secs(db, &plan, 1)? / wall_secs(db, &plan, 2)?;
        out.count(
            &format!("executor.model_error_w2.{name}"),
            "ratio",
            ledger.speedup(2) / measured,
        );
    }
    Ok(())
}

/// The paper's robustness claim on this table: Smooth Scan against the
/// best fixed access path at every selectivity, by wall and by model.
fn core_layer(db: &mut Database, out: &mut LayerReport) -> Result<(), Error> {
    db.set_workers(1);
    let (mut regret_wall, mut regret_virtual) = (0f64, 0f64);
    let mut total = SmoothScanMetrics::default();
    let mut add = |m: SmoothScanMetrics| {
        total.mode0_tuples += m.mode0_tuples;
        total.mode1_pages += m.mode1_pages;
        total.mode2_pages += m.mode2_pages;
        total.regions += m.regions;
        total.pages_fetched += m.pages_fetched;
        total.pages_with_results += m.pages_with_results;
        total.max_region_pages = total.max_region_pages.max(m.max_region_pages);
        total.cache.requests += m.cache.requests;
        total.cache.hits += m.cache.hits;
    };
    let config = SmoothScanConfig::eager_elastic();
    let smooth =
        |db: &Database, sel: f64, ordered: bool| -> Result<(f64, f64, SmoothScanMetrics), Error> {
            let plan = micro::query(sel, ordered, AccessPathChoice::Smooth(config));
            let LogicalPlan::Scan(spec) = &plan else { unreachable!("micro::query builds a scan") };
            let mut best = (f64::INFINITY, 0.0, SmoothScanMetrics::default());
            for _ in 0..2 {
                let mut op = db.build_smooth_scan(spec, config)?;
                let (dt, result) = timed(|| db.run_operator_batches(&mut op));
                let result = result?;
                if dt.as_secs_f64() < best.0 {
                    best = (dt.as_secs_f64(), result.stats.secs(), op.metrics());
                }
            }
            Ok(best)
        };
    for (sel, _) in SELECTIVITIES {
        let (mut best_wall, mut best_virtual) = (f64::INFINITY, f64::INFINITY);
        for access in
            [AccessPathChoice::ForceFull, AccessPathChoice::ForceIndex, AccessPathChoice::ForceSort]
        {
            if access == AccessPathChoice::ForceIndex && sel > 0.1 {
                continue;
            }
            let plan = micro::query(sel, false, access);
            for _ in 0..2 {
                let (dt, result) = timed(|| db.run_batches(&plan));
                best_wall = best_wall.min(dt.as_secs_f64());
                best_virtual = best_virtual.min(result?.stats.secs());
            }
        }
        let (wall, virt, metrics) = smooth(db, sel, false)?;
        regret_wall = regret_wall.max(wall / best_wall);
        regret_virtual = regret_virtual.max(virt / best_virtual);
        add(metrics);
    }
    for sel in [0.01, 0.1] {
        add(smooth(db, sel, true)?.2);
    }
    out.count("core.smooth_regret_wall_max", "ratio", regret_wall);
    out.count("core.smooth_regret_virtual_max", "ratio", regret_virtual);
    out.count("core.smooth_mode0_tuples", "count", total.mode0_tuples as f64);
    out.count("core.smooth_mode1_pages", "pages", total.mode1_pages as f64);
    out.count("core.smooth_mode2_pages", "pages", total.mode2_pages as f64);
    out.count("core.smooth_regions", "count", total.regions as f64);
    out.count("core.smooth_max_region_pages", "pages", total.max_region_pages as f64);
    out.count("core.morphing_accuracy", "ratio", total.morphing_accuracy().unwrap_or(0.0));
    out.count("core.result_cache_hit_ratio", "ratio", total.cache_hit_rate().unwrap_or(0.0));
    Ok(())
}

fn planner_layer(db: &Database, classes: &[Class], out: &mut LayerReport) {
    let plans = classes.len() as u64;
    out.timed(
        "planner.lower_serial_us_per_plan",
        "us/plan",
        kernel(|| {
            (
                timed(|| {
                    classes.iter().for_each(|c| drop(db.build(&c.plan).expect("plan lowers")))
                })
                .0,
                plans,
            )
        }),
    );
    out.timed(
        "planner.lower_parallel_us_per_plan",
        "us/plan",
        kernel(|| {
            let lower = || {
                classes
                    .iter()
                    .for_each(|c| drop(db.parallel_pipeline(&c.plan).expect("plan lowers")))
            };
            (timed(lower).0, plans)
        }),
    );
    out.timed(
        "planner.explain_us_per_plan",
        "us/plan",
        kernel(|| {
            (
                timed(|| {
                    classes.iter().for_each(|c| drop(db.explain(&c.plan).expect("plan explains")))
                })
                .0,
                plans,
            )
        }),
    );
}

fn workload_layer(seed: u64, out: &mut LayerReport) -> Result<(), Error> {
    const ROWS: u64 = 20_000;
    out.timed(
        "workload.gen_ns_per_row",
        "ns/row",
        kernel(|| (timed(|| micro::rows(ROWS, seed).map(black_box).count()).0, ROWS)),
    );
    // Generate-and-load of a fixed small TPC-H instance (the generator
    // only exists fused with the loader), same scale on every workload.
    let mut secs = Vec::new();
    for _ in 0..3 {
        let mut scratch = Database::new(StorageConfig::default());
        let (dt, installed) = timed(|| tpch::install(&mut scratch, tpch::Scale { sf: 0.01, seed }));
        installed?;
        secs.push(dt.as_secs_f64());
    }
    out.count("workload.tpch_gen_s", "s", median(&secs));
    Ok(())
}

/// Run every kernel. Leaves `db` at `workers` workers.
pub fn run(
    db: &mut Database,
    classes: &[Class],
    workers: usize,
    seed: u64,
) -> Result<LayerReport, Error> {
    let mut out = LayerReport::default();
    let fx = Fixture::new(db)?;
    types_layer(&fx, &mut out);
    storage_layer(&fx, &mut out);
    index_layer(&fx, seed, &mut out);
    stats_layer(&fx, &mut out);
    executor_layer(&fx, &mut out);
    drop(fx);
    scheduler_layer(db, &mut out)?;
    core_layer(db, &mut out)?;
    planner_layer(db, classes, &mut out);
    workload_layer(seed, &mut out)?;
    db.set_workers(workers);
    Ok(out)
}
