//! The `Database` facade: load tables, build indexes, run measured
//! queries.
//!
//! `run` follows the paper's cold-run methodology (Section VI-A): the
//! buffer pool is flushed before each query and the virtual clock / I/O
//! counters are snapshotted around execution, yielding per-query
//! [`RunStats`] — execution time split into CPU and I/O wait (Fig. 4),
//! I/O requests and bytes moved (Table II).
//!
//! There is one query lifecycle. Every `build` / `run` / `submit` first
//! narrows the plan to the columns it reads ([`crate::prune()`], always)
//! and then resolves it, once: every `Auto` access path and join
//! strategy is picked, and every `ordered:` scan whose access path does
//! not deliver key order (Full, Sort, Switch) becomes an explicit `Sort`
//! on its range key over the same scan, unordered — as every merge join
//! becomes a hash join under a `Sort` on its left key. The operator tree
//! and the pipeline both read only that resolved plan. `run` /
//! `run_batches` / `submit` lower it (a private, total `lower`: the
//! peeled pipeline — a list of phases, hash-join builds first, in the
//! order the operator tree opens them; the executor validates their
//! stage chains and types them — under one sink: an `Aggregate` root
//! folds at the aggregate sink, a `Sort` root at the sort sink, and
//! everything else collects; what does not peel runs whole as a shared
//! source) and hand it to the database's **persistent** worker pool
//! ([`smooth_executor::Scheduler`]) as a scheduled query. The worker
//! count (`SMOOTH_WORKERS` /
//! [`Database::with_workers`], default = available cores) selects the
//! pool's width, never a driver, so the per-query timeout,
//! cancellation, panic containment, FIFO admission and per-query
//! statistics hold for every plan at every width. Morsels are
//! [`smooth_types::ColumnBatch`]es of `smooth_executor::batch_size()`
//! rows and the result stays columnar — text sits in one byte arena
//! per column, and no result holds a page frame. `Row`s materialize
//! only when a caller crosses the user-facing boundary
//! ([`BatchResult::into_rows`], or the row-carrying [`Database::run`] /
//! [`QueryResult`] wrappers).
//!
//! The operator tree itself ([`Database::build`]) drained on the
//! calling thread by [`collect_batches`]
//! ([`Database::run_operator_batches`]) is the protocol reference: same
//! rows, byte for byte, and (when the query runs alone) the same
//! virtual clock/I-O totals as the pool at any width. The suites and
//! callers that must keep the operator for its metrics use it; `run`
//! does not.
//!
//! The pool is engine-global: concurrent callers of [`Database::run`] /
//! [`Database::submit`] share it, along with the buffer pool, disk-arm
//! tracker and virtual clock. At most
//! [`Database::max_queries`] queries run concurrently (default 4);
//! submissions beyond the cap queue FIFO. Every [`QueryResult`]
//! carries per-query [`ScanStatistics`] — tuple flow, pages/bytes read, buffer hits,
//! source-lock wait — attributed exactly to that query even under
//! concurrency (`RunStats`' clock/I-O *deltas*, by contrast, read the
//! shared engine counters and are only meaningful for a query run alone).

use std::ops::Bound;
use std::sync::{Arc, Mutex, OnceLock};

use smooth_core::{SmoothInnerPath, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    batch_size, collect_batches, BoxedOperator, Filter, FullTableScan, HashAggregate, HashJoin,
    IndexNestedLoopJoin, Operator, ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec,
    Predicate, Project, QueryHandle, Scheduler, SinkSpec, Sort, SortScan, StageSpec,
};
use smooth_stats::StatsQuality;
use smooth_storage::{
    tap_mark, ClockSnapshot, FaultConfig, HeapLoader, IoStatsDelta, ScanStatistics, Storage,
    StorageConfig,
};
use smooth_types::{env_knob, ColumnBatch, Error, Result, Row, Schema};

use crate::catalog::{Catalog, IndexEntry, TableEntry};
use crate::optimizer::{AccessPathKind, Optimizer};
use crate::plan::{AccessPathChoice, JoinSpec, JoinStrategy, LogicalPlan, ScanSpec};
use crate::prune::prune;

/// Per-query measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Rows returned.
    pub rows: u64,
    /// Virtual clock delta (CPU + I/O wait).
    pub clock: ClockSnapshot,
    /// I/O counter deltas.
    pub io: IoStatsDelta,
}

impl RunStats {
    /// Execution time in virtual seconds.
    pub fn secs(&self) -> f64 {
        self.clock.total_secs()
    }
}

/// A query's rows plus its measurements.
#[derive(Debug)]
pub struct QueryResult {
    /// The result rows.
    pub rows: Vec<Row>,
    /// Engine-counter deltas around the run (clock, I/O). Meaningful
    /// when the query ran alone; under concurrent queries they include
    /// whatever else the engine did in the window.
    pub stats: RunStats,
    /// Per-query scan statistics, attributed exactly to this query even
    /// under concurrent queries (`rows_total` is stamped from catalog
    /// cardinalities of the plan's base tables).
    pub scan: ScanStatistics,
}

/// A query's *columnar* result plus its measurements — the
/// late-materialization twin of [`QueryResult`]. Every plan's output —
/// scans, filters, projections, joins, aggregates and sorts alike —
/// arrives as [`ColumnBatch`]es in result order. Callers that want
/// `Row`s call [`BatchResult::into_rows`] (or use [`Database::run`],
/// which does it for them) — that conversion is the only place result
/// tuples materialize.
#[derive(Debug)]
pub struct BatchResult {
    /// Columnar result batches, in result order.
    pub batches: Vec<ColumnBatch>,
    /// Always empty: no sink produces rows any more. The field is still
    /// here because `benchmark/`, which may not change in the same PR as
    /// the engine, iterates it; it goes with that package's next PR.
    pub rows: Vec<Row>,
    /// Engine-counter deltas around the run (see [`QueryResult::stats`]).
    pub stats: RunStats,
    /// Per-query scan statistics (see [`QueryResult::scan`]).
    pub scan: ScanStatistics,
}

impl BatchResult {
    /// Total result rows.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every result tuple as a [`Row`] — the user-facing
    /// boundary where arena text becomes owned strings.
    pub fn into_rows(self) -> Vec<Row> {
        self.batches.into_iter().flat_map(ColumnBatch::into_rows).collect()
    }

    /// Materialize into the row-carrying [`QueryResult`].
    pub fn into_result(self) -> QueryResult {
        let (stats, scan) = (self.stats, self.scan);
        QueryResult { rows: self.into_rows(), stats, scan }
    }
}

/// Worker-pool width used by [`Database::run`] when none is set on the
/// instance: the `SMOOTH_WORKERS` environment variable (clamped to
/// `1..=1024`, read **once per process** and latched — [`smooth_types::env_knob`]: a
/// value that is not a whole number aborts), else the number of
/// available cores.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        env_knob("SMOOTH_WORKERS", parse_workers)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The widest pool the engine will spawn: `SMOOTH_WORKERS` and
/// [`Database::set_workers`] both clamp to `1..=MAX_WORKERS`.
const MAX_WORKERS: usize = 1024;

/// The `SMOOTH_WORKERS` syntax: a whole number, clamped to
/// `1..=`[`MAX_WORKERS`].
fn parse_workers(text: &str) -> std::result::Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("expected a worker count ({e})"))?;
    Ok(n.clamp(1, MAX_WORKERS))
}

/// Per-operator memory budget used when none is set on the instance:
/// the process-wide `SMOOTH_MEM_BYTES` knob
/// ([`smooth_executor::mem_budget_bytes`]); `0` = unlimited. Each
/// blocking operator instance (hash-join build, sort, an ordered Smooth
/// Scan's Result Cache) of an active query gets this budget and spills
/// to charged overflow files beyond it — see
/// `docs/larger_than_memory.md`.
pub fn default_mem_bytes() -> usize {
    smooth_executor::mem_budget_bytes()
}

/// What [`Predicate::split_index_range`] yields: `(col, lo, hi,
/// residual)`.
type RangeSplit = (usize, Bound<i64>, Bound<i64>, Predicate);

/// Concurrent-query admission cap used when none is set on the
/// instance.
const DEFAULT_MAX_QUERIES: usize = 4;

/// An engine instance: storage manager + catalog + (lazily) the
/// persistent worker pool concurrent queries share.
pub struct Database {
    storage: Storage,
    catalog: Catalog,
    workers: Option<usize>,
    max_queries: Option<usize>,
    mem_bytes: Option<usize>,
    timeout_ms: u64,
    /// The engine's worker pool, built on first run and keyed
    /// by the (workers, max_queries) knobs so knob changes rebuild it.
    scheduler: Mutex<Option<(usize, usize, Arc<Scheduler>)>>,
}

impl Database {
    /// A database over the given storage configuration.
    pub fn new(cfg: StorageConfig) -> Self {
        Database {
            storage: Storage::new(cfg),
            catalog: Catalog::new(),
            workers: None,
            max_queries: None,
            mem_bytes: None,
            timeout_ms: 0,
            scheduler: Mutex::new(None),
        }
    }

    /// Builder: fix the worker-pool width for [`Database::run`]
    /// (overrides `SMOOTH_WORKERS` / the core count; clamped to
    /// `1..=1024` like it). The width selects how many threads serve
    /// the engine's queries, never which driver runs them: `1` is a
    /// one-thread pool.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Fix the worker-pool width (see [`Database::with_workers`]).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Some(workers.clamp(1, MAX_WORKERS));
    }

    /// Worker-pool width `run` will use.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// Fix the concurrent-query admission cap (default 4). Submissions
    /// beyond the cap — blocking `run`s included — queue FIFO.
    pub fn set_max_queries(&mut self, max_queries: usize) {
        self.max_queries = Some(max_queries.max(1));
    }

    /// Concurrent queries the shared worker pool admits at once.
    pub fn max_queries(&self) -> usize {
        self.max_queries.unwrap_or(DEFAULT_MAX_QUERIES)
    }

    /// Builder: fix the per-operator memory budget in bytes (overrides
    /// `SMOOTH_MEM_BYTES`; 0 = unlimited). Each blocking operator of a
    /// query — hash-join build, sort, an ordered Smooth Scan's Result
    /// Cache — spills to charged overflow files beyond it.
    pub fn with_mem_bytes(mut self, mem_bytes: usize) -> Self {
        self.set_mem_bytes(mem_bytes);
        self
    }

    /// Fix the per-operator memory budget (see
    /// [`Database::with_mem_bytes`]).
    pub fn set_mem_bytes(&mut self, mem_bytes: usize) {
        self.mem_bytes = Some(mem_bytes);
    }

    /// Per-operator memory budget plans will run under (0 = unlimited).
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes.unwrap_or_else(default_mem_bytes)
    }

    /// Fix the per-query timeout in **virtual-clock** milliseconds (0,
    /// the default, disables). A query whose modeled CPU + I/O time
    /// crosses the deadline fails with [`Error::Cancelled`] at its next
    /// morsel boundary, releasing everything it held; other queries
    /// are untouched.
    pub fn set_query_timeout_ms(&mut self, ms: u64) {
        self.timeout_ms = ms;
    }

    /// Install (or, with `None`, remove) a deterministic
    /// fault-injection configuration on this database's storage
    /// (overrides `SMOOTH_FAULTS`; see `docs/fault_model.md`). Injected
    /// faults are a pure function of the seed and the I/O's
    /// coordinates, so runs replay exactly.
    pub fn set_faults(&self, cfg: Option<FaultConfig>) {
        self.storage.set_faults(cfg);
    }

    /// The persistent worker pool for the current knob settings,
    /// building (or rebuilding, after a knob change) it on demand. The
    /// query timeout is a live setting on the pool, re-applied each time
    /// the pool is handed out, so changing it never tears down the
    /// worker threads.
    fn scheduler(&self) -> Arc<Scheduler> {
        let workers = self.workers();
        let max_queries = self.max_queries();
        let mut slot = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
        let s = match slot.as_ref() {
            Some((w, m, s)) if *w == workers && *m == max_queries => Arc::clone(s),
            _ => {
                let s = Arc::new(Scheduler::new(workers, max_queries));
                *slot = Some((workers, max_queries, Arc::clone(&s)));
                s
            }
        };
        s.set_timeout_ms(self.timeout_ms);
        s
    }

    /// The shared storage handle.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The catalog (immutable).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Load a table from a row iterator (setup work, not charged).
    pub fn load_table(
        &mut self,
        name: &str,
        schema: Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<()> {
        let mut loader = HeapLoader::new_mem(name, schema);
        for row in rows {
            loader.push(&row)?;
        }
        self.catalog.register(Arc::new(loader.finish()?))
    }

    /// Build a secondary index.
    pub fn create_index(&mut self, table: &str, column: usize, name: &str) -> Result<()> {
        self.catalog.create_index(table, column, name)
    }

    /// Set the staleness model for a table's statistics.
    pub fn set_stats_quality(&mut self, table: &str, quality: StatsQuality) -> Result<()> {
        self.catalog.set_stats_quality(table, quality)
    }

    /// Look up a table entry.
    pub fn table(&self, name: &str) -> Result<&TableEntry> {
        self.catalog.get(name)
    }

    /// Build the physical operator tree for a plan — for the plan
    /// [`prune`] narrows it to and `resolve` settles: every scan decodes,
    /// and every join gathers, only the columns the plan reads.
    pub fn build(&self, plan: &LogicalPlan) -> Result<BoxedOperator> {
        self.build_node(&self.resolve(&prune(&self.catalog, plan))?)
    }

    /// The one place the plan's open choices are made: every `Auto`
    /// access path and join strategy picked by the [`Optimizer`], and
    /// every `ordered:` scan whose access path does not deliver key order
    /// (Full, Sort, Switch) rewritten as a `Sort` on its range key over
    /// the same scan, unordered; every merge join likewise becomes a hash
    /// join under a `Sort` on its left key. The inner scan of an
    /// index-nested-loop join is probed, not scanned: it stays as written.
    fn resolve(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let input = |input: &LogicalPlan| self.resolve(input).map(Box::new);
        Ok(match plan {
            LogicalPlan::Scan(spec) => {
                let entry = self.catalog.get(&spec.table)?;
                let (predicate, device) = (&spec.predicate, self.storage.device());
                let access = match &spec.access {
                    AccessPathChoice::Auto => {
                        match Optimizer::choose_access_path(entry, predicate, spec.ordered, device)
                        {
                            AccessPathKind::FullScan => AccessPathChoice::ForceFull,
                            AccessPathKind::IndexScan => AccessPathChoice::ForceIndex,
                            AccessPathKind::SortScan => AccessPathChoice::ForceSort,
                        }
                    }
                    other => other.clone(),
                };
                use AccessPathChoice::{ForceFull, ForceSort, Switch};
                let sorted =
                    spec.ordered && matches!(access, ForceFull | ForceSort | Switch { .. });
                let ordered = spec.ordered && !sorted;
                let scan = LogicalPlan::Scan(ScanSpec { access, ordered, ..spec.clone() });
                if sorted {
                    scan.sort(vec![Self::order_key(spec)?])
                } else {
                    scan
                }
            }
            LogicalPlan::Join(spec) => {
                let strategy = match spec.strategy {
                    JoinStrategy::Auto => Optimizer::choose_join_strategy(
                        &self.catalog,
                        &spec.left,
                        &spec.right,
                        spec.right_col,
                        self.storage.device(),
                    ),
                    other => other,
                };
                let left = self.resolve(&spec.left)?;
                let right = match strategy {
                    JoinStrategy::IndexNestedLoop => spec.right.clone(),
                    _ => self.resolve(&spec.right)?,
                };
                let join = JoinSpec { left, right, strategy, emit: spec.emit.clone(), ..**spec };
                match strategy {
                    JoinStrategy::Merge => Self::hash_under_sort(join),
                    _ => LogicalPlan::Join(Box::new(join)),
                }
            }
            LogicalPlan::Aggregate { input: i, group_cols, aggs } => {
                let (group_cols, aggs) = (group_cols.clone(), aggs.clone());
                LogicalPlan::Aggregate { input: input(i)?, group_cols, aggs }
            }
            LogicalPlan::Sort { input: i, keys } => {
                LogicalPlan::Sort { input: input(i)?, keys: keys.clone() }
            }
            LogicalPlan::Project { input: i, cols } => {
                LogicalPlan::Project { input: input(i)?, cols: cols.clone() }
            }
            LogicalPlan::Filter { input: i, predicate } => {
                LogicalPlan::Filter { input: input(i)?, predicate: predicate.clone() }
            }
        })
    }

    /// A merge join as the plan that runs it: the same join, hashed, under
    /// a stable sort on the left key. The probe emits each left row's
    /// matches in build order, so within a key the rows keep left-input
    /// order, each left row's matches in right-input order — the order a
    /// merge join over stably sorted inputs emits. A left key the emit
    /// list drops is emitted for the sort and projected away above it.
    fn hash_under_sort(mut join: JoinSpec) -> LogicalPlan {
        join.strategy = JoinStrategy::Hash;
        let col = join.left_col;
        let Some(emit) = &mut join.emit else {
            return LogicalPlan::Join(Box::new(join)).sort(vec![SortKey::asc(col)]);
        };
        let key = emit.partition_point(|&c| c < col);
        let dropped = emit.get(key) != Some(&col);
        if dropped {
            emit.insert(key, col);
        }
        let width = emit.len();
        let sorted = LogicalPlan::Join(Box::new(join)).sort(vec![SortKey::asc(key)]);
        match dropped {
            true => sorted.project((0..width).filter(|&c| c != key).collect()),
            false => sorted,
        }
    }

    /// The operator tree of a resolved plan.
    fn build_node(&self, plan: &LogicalPlan) -> Result<BoxedOperator> {
        match plan {
            LogicalPlan::Scan(spec) => self.build_scan(spec),
            LogicalPlan::Join(spec) => {
                let left = self.build_node(&spec.left)?;
                match spec.strategy {
                    JoinStrategy::IndexNestedLoop => {
                        let LogicalPlan::Scan(rspec) = &spec.right else {
                            return Err(Error::plan(
                                "index-nested-loop join needs a base-table inner",
                            ));
                        };
                        let entry = self.catalog.get(&rspec.table)?;
                        let key = rspec.table_col(spec.right_col);
                        let idx = key.and_then(|key| entry.index_on(key)).ok_or_else(|| {
                            Error::plan(format!(
                                "no index on {}.{} for INLJ",
                                rspec.table, spec.right_col
                            ))
                        })?;
                        let (heap, index) = (Arc::clone(&entry.heap), Arc::clone(&idx.index));
                        let (col, ty, pred) = (spec.left_col, spec.ty, rspec.predicate.clone());
                        let storage = self.storage.clone();
                        // A Smooth inner access morphs (Section IV-B).
                        let join = match rspec.access {
                            AccessPathChoice::Smooth(_) => {
                                let inner = SmoothInnerPath::new(heap, index, idx.column, pred);
                                let inner = Box::new(inner.with_mem_budget(self.mem_bytes()));
                                IndexNestedLoopJoin::with_inner(left, col, inner, ty, storage)
                            }
                            _ => {
                                IndexNestedLoopJoin::new(left, col, heap, index, pred, ty, storage)
                            }
                        };
                        Ok(Box::new(join.with_emit(rspec.cols.as_deref(), spec.emit.as_deref())?))
                    }
                    // `resolve` leaves index and hash joins only.
                    _ => {
                        let right = self.build_node(&spec.right)?;
                        Ok(Box::new(
                            HashJoin::new(
                                left,
                                right,
                                spec.left_col,
                                spec.right_col,
                                spec.ty,
                                self.storage.clone(),
                            )
                            .with_mem_budget(self.mem_bytes())
                            .with_emit(spec.emit.clone())?,
                        ))
                    }
                }
            }
            LogicalPlan::Aggregate { input, group_cols, aggs } => {
                let child = self.build_node(input)?;
                Ok(Box::new(HashAggregate::new(
                    child,
                    group_cols.clone(),
                    aggs.clone(),
                    self.storage.clone(),
                )?))
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.build_node(input)?;
                Ok(Box::new(
                    Sort::new(child, self.storage.clone(), keys.clone())
                        .with_mem_budget(self.mem_bytes()),
                ))
            }
            LogicalPlan::Project { input, cols } => {
                let child = self.build_node(input)?;
                Ok(Box::new(Project::new(child, cols.clone())?))
            }
            LogicalPlan::Filter { input, predicate } => {
                let child = self.build_node(input)?;
                Ok(Box::new(Filter::new(child, predicate.clone())))
            }
        }
    }

    /// The index on the range column of `spec`'s predicate, with the
    /// `(col, lo, hi, residual)` split that drives it — what every
    /// index-backed access path (`what`) needs.
    fn need_index<'e>(
        entry: &'e TableEntry,
        spec: &ScanSpec,
        what: &str,
    ) -> Result<(&'e IndexEntry, RangeSplit)> {
        spec.predicate
            .split_index_range()
            .and_then(|split| Some((entry.index_on(split.0)?, split)))
            .ok_or_else(|| {
                Error::plan(format!("{what} on '{}' needs an indexed range predicate", spec.table))
            })
    }

    /// The key an `ordered:` scan sorts its output on where its access
    /// path does not deliver the order itself: the range column of its
    /// predicate, as an ordinal of the scan's output.
    fn order_key(spec: &ScanSpec) -> Result<SortKey> {
        let (col, _, _, _) = spec
            .predicate
            .split_index_range()
            .ok_or_else(|| Error::plan("ordered scan without a range predicate column"))?;
        let key = spec.output_col(col);
        key.map(SortKey::asc)
            .ok_or_else(|| Error::plan("ordered scan does not emit its key column"))
    }

    fn build_scan(&self, spec: &ScanSpec) -> Result<BoxedOperator> {
        let entry = self.catalog.get(&spec.table)?;
        let heap = Arc::clone(&entry.heap);
        let cols = spec.cols.as_deref();
        let need_index = |what| Self::need_index(entry, spec, what);
        match &spec.access {
            AccessPathChoice::ForceFull => {
                let scan = FullTableScan::new(heap, self.storage.clone(), spec.predicate.clone());
                Ok(Box::new(scan.with_columns(cols)?))
            }
            AccessPathChoice::ForceIndex => {
                let config = SmoothScanConfig::default().with_trigger(Trigger::Never);
                Ok(Box::new(self.build_smooth_scan(spec, config)?))
            }
            AccessPathChoice::ForceSort => {
                let (idx, (_, lo, hi, residual)) = need_index("sort scan")?;
                let index = Arc::clone(&idx.index);
                let scan = SortScan::new(heap, index, self.storage.clone(), lo, hi, residual);
                Ok(Box::new(scan.with_columns(cols)?))
            }
            AccessPathChoice::Smooth(config) => {
                Ok(Box::new(self.build_smooth_scan(spec, *config)?))
            }
            AccessPathChoice::Switch { estimate } => {
                let trigger = Trigger::Switch { estimated_cardinality: *estimate };
                let config = SmoothScanConfig::default().with_trigger(trigger);
                Ok(Box::new(self.build_smooth_scan(spec, config)?))
            }
            AccessPathChoice::Auto => unreachable!("`resolve` picks every Auto access path"),
        }
    }

    /// Build a Smooth Scan directly (experiments that need
    /// [`smooth_core::SmoothScanMetrics`] after the run).
    pub fn build_smooth_scan(
        &self,
        spec: &ScanSpec,
        config: SmoothScanConfig,
    ) -> Result<SmoothScan> {
        let entry = self.catalog.get(&spec.table)?;
        let (idx, (col, lo, hi, residual)) = Self::need_index(entry, spec, "smooth scan")?;
        let scan = SmoothScan::new(
            Arc::clone(&entry.heap),
            Arc::clone(&idx.index),
            self.storage.clone(),
            col,
            lo,
            hi,
            residual,
            config.with_order(config.ordered || spec.ordered),
        );
        scan.with_mem_budget(self.mem_bytes()).with_columns(spec.cols.as_deref())
    }

    /// EXPLAIN: the physical operator tree the plan would run as.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        Ok(self.build(plan)?.label())
    }

    /// Decompose `plan` into a [`ParallelPipeline`] for the morsel-driven
    /// worker pool, or `None` when nothing in the plan would fan out:
    /// the whole operator tree is then one serial shared source, which
    /// `run` and `submit` still hand to the pool (so `None` says "one
    /// worker's worth of work", not "another driver").
    ///
    /// The decomposition takes the sink off the top — an `Aggregate`
    /// folds at the aggregate sink, a `Sort` at the sort sink — then
    /// peels parallel-safe nodes — `Filter` / `Project` / hash-strategy
    /// `Join` probes (per-worker stages, build sides built and drained
    /// serially) — until it reaches the morsel source. A full table scan
    /// becomes the *partitioned* heap source (workers decode page runs
    /// in parallel); any other subtree (Smooth / Switch / index / sort
    /// scans, non-hash joins, nested aggregates and sorts) runs
    /// unchanged as a serial shared source, which is exactly how the
    /// adaptive scans' morph decisions stay centralized while the stages
    /// above them still parallelize. Plan validation errors (missing
    /// tables, bad ordinals) surface here identically to [`Database::build`].
    pub fn parallel_pipeline(&self, plan: &LogicalPlan) -> Result<Option<ParallelPipeline>> {
        let pipeline = self.lower(plan)?;
        let serial_only = matches!(
            (&pipeline.phases[..], &pipeline.sink),
            ([PhaseSpec { source: ParallelSource::Shared { .. }, stages, .. }], SinkSpec::Collect)
                if stages.is_empty()
        );
        Ok((!serial_only).then_some(pipeline))
    }

    /// The one lowering every execution goes through, over the resolved
    /// plan — total: a plan with nothing to fan out comes back as its
    /// whole operator tree in a shared source under a collect sink,
    /// which the pool drains one morsel at a time, checking the cancel
    /// flag and the deadline at every boundary. This is also the one
    /// place the sink is chosen: an `Aggregate` root folds at the
    /// aggregate sink; a `Sort` root streams its input's morsels, in
    /// serial order, into the sort sink's sorter — the charges the tree's
    /// `Sort` makes over the same input, so rows *and* charges are
    /// byte-identical to it; everything else collects. Schemas are the
    /// executor's business: [`ParallelPipeline::staged_schemas`] fails
    /// where the operator constructors [`Database::build`] calls would.
    fn lower(&self, plan: &LogicalPlan) -> Result<ParallelPipeline> {
        let mut phases = Vec::new();
        let (last, sink) = match self.resolve(&prune(&self.catalog, plan))? {
            LogicalPlan::Aggregate { input, group_cols, aggs } => {
                (self.peel(&input, &mut phases)?, SinkSpec::Aggregate { group_cols, aggs })
            }
            LogicalPlan::Sort { input, keys } => (
                self.peel(&input, &mut phases)?,
                SinkSpec::Sort { keys, mem_bytes: self.mem_bytes() },
            ),
            other => (self.peel(&other, &mut phases)?, SinkSpec::Collect),
        };
        phases.push(last);
        let pipeline = ParallelPipeline {
            phases,
            sink,
            storage: self.storage.clone(),
            morsel_rows: batch_size(),
        };
        pipeline.staged_schemas()?;
        Ok(pipeline)
    }

    /// Pipeline peel of a probe side or a hash-join *build side* into
    /// one phase (`build` left `None`: the caller says what it feeds):
    /// filters and projections peel into stages; a hash join peels its
    /// build side **first** — nested builds land in `builds` ahead of
    /// it, then the build itself as a phase of its own (source +
    /// stages, so the partitioned parallel build fans its decode/insert
    /// CPU out too) — and only then its probe side, which keeps this
    /// subtree's source and probes the build through a
    /// [`StageSpec::Probe`] stage. That is [`HashJoin`]'s own open
    /// order, so `builds` accumulates in the order the operator tree
    /// opens and drains them — completion order *is* open order, for
    /// left-deep and bushy trees (hash joins on the build side of hash
    /// joins) alike. A full scan becomes the partitioned heap source;
    /// any other leaf (other scans, sorts, non-hash joins, nested
    /// aggregates) runs whole as a serial shared source.
    fn peel(&self, plan: &LogicalPlan, builds: &mut Vec<PhaseSpec>) -> Result<PhaseSpec> {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                let mut phase = self.peel(input, builds)?;
                phase.stages.push(StageSpec::Filter(predicate.clone()));
                Ok(phase)
            }
            LogicalPlan::Project { input, cols } => {
                let mut phase = self.peel(input, builds)?;
                phase.stages.push(StageSpec::Project(cols.clone()));
                Ok(phase)
            }
            LogicalPlan::Join(spec) if spec.strategy == JoinStrategy::Hash => {
                let mut build = self.peel(&spec.right, builds)?;
                build.build = Some(PhaseBuild {
                    right_col: spec.right_col,
                    left_col: spec.left_col,
                    ty: spec.ty,
                    mem_bytes: self.mem_bytes(),
                    emit: spec.emit.clone(),
                });
                let built = builds.len();
                builds.push(build);
                let mut probe = self.peel(&spec.left, builds)?;
                probe.stages.push(StageSpec::Probe(built));
                Ok(probe)
            }
            LogicalPlan::Scan(spec) if spec.access == AccessPathChoice::ForceFull => {
                let heap = Arc::clone(&self.catalog.get(&spec.table)?.heap);
                let (predicate, cols) = (spec.predicate.clone(), spec.cols.clone());
                let readahead = FULL_SCAN_READAHEAD;
                let source = ParallelSource::Heap { heap, predicate, readahead, cols };
                Ok(PhaseSpec { source, stages: Vec::new(), build: None })
            }
            other => {
                let source = ParallelSource::Shared { op: self.build_node(other)? };
                Ok(PhaseSpec { source, stages: Vec::new(), build: None })
            }
        }
    }

    /// Total catalog cardinality of the plan's base tables (the
    /// denominator behind "processed X of Y rows" progress reporting).
    /// Tables missing from the catalog count 0 — the run itself
    /// surfaces the error.
    fn plan_rows_total(&self, plan: &LogicalPlan) -> u64 {
        match plan {
            LogicalPlan::Scan(spec) => self
                .catalog
                .get(&spec.table)
                .map(|entry| entry.stats.honest().row_count)
                .unwrap_or(0),
            LogicalPlan::Join(spec) => {
                self.plan_rows_total(&spec.left) + self.plan_rows_total(&spec.right)
            }
            LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. } => self.plan_rows_total(input),
        }
    }

    /// Cold-run a plan: flush the buffer pool, execute to completion, and
    /// report rows plus clock/I-O deltas and per-query scan statistics.
    ///
    /// Every run is a scheduled query on the engine's persistent worker
    /// pool, whatever the plan's shape and whatever the pool's width
    /// (`SMOOTH_WORKERS` / [`Database::with_workers`]) — so the
    /// per-query timeout, cancellation, panic containment and FIFO
    /// admission hold for all of them. The rows are identical to the
    /// operator tree drained by [`collect_batches`], and so are the
    /// virtual clock/I-O totals when the query runs alone.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        Ok(self.run_batches(plan)?.into_result())
    }

    /// Cold-run a plan and keep the result *columnar*: the
    /// late-materialization entry point. Same measurement protocol as
    /// [`Database::run`] (which is a thin `into_result()` over this),
    /// but pipeline-shaped results stay as [`ColumnBatch`]es until the
    /// caller decides whether rows are needed at all.
    pub fn run_batches(&self, plan: &LogicalPlan) -> Result<BatchResult> {
        let mut result = self.run_parallel_batches(self.lower(plan)?)?;
        result.scan.rows_total = self.plan_rows_total(plan);
        Ok(result)
    }

    /// The cold-run measurement protocol around one execution: flush
    /// the buffer pool, snapshot the engine counters, `execute`, and
    /// report the deltas beside what it returned.
    fn measured(
        &self,
        execute: impl FnOnce() -> Result<(Vec<ColumnBatch>, ScanStatistics)>,
    ) -> Result<BatchResult> {
        self.storage.flush_pool();
        let clock0 = self.storage.clock().snapshot();
        let io0 = self.storage.io_snapshot();
        let (batches, scan) = execute()?;
        let stats = RunStats {
            rows: batches.iter().map(ColumnBatch::len).sum::<usize>() as u64,
            clock: self.storage.clock().snapshot().since(&clock0),
            io: self.storage.io_snapshot().since(&io0),
        };
        Ok(BatchResult { batches, rows: Vec::new(), stats, scan })
    }

    /// Cold-run an already-decomposed pipeline on the database's
    /// persistent worker pool (`scan.rows_total` stays 0 here — only
    /// [`Database::run`] sees the plan). Collect-sink output arrives as
    /// the scheduler's ordered batches, untouched.
    pub fn run_parallel_batches(&self, pipeline: ParallelPipeline) -> Result<BatchResult> {
        self.measured(|| {
            let out = self.scheduler().submit(pipeline)?.wait()?;
            Ok((out.batches, out.stats))
        })
    }

    /// Cold-run an already-built operator (used when the caller needs to
    /// keep the operator around for its metrics). Drives the columnar
    /// protocol end to end; scan statistics come from this thread's
    /// accounting tap bracketing the run.
    pub fn run_operator(&self, op: &mut dyn Operator) -> Result<QueryResult> {
        Ok(self.run_operator_batches(op)?.into_result())
    }

    /// Columnar twin of [`Database::run_operator`]: drains the tree on
    /// the calling thread via [`collect_batches`], outside the pool —
    /// no admission, no timeout. This is the protocol reference the
    /// suites hold the pool to, not a path `run` takes.
    pub fn run_operator_batches(&self, op: &mut dyn Operator) -> Result<BatchResult> {
        self.measured(|| {
            let mark = tap_mark();
            let batches = collect_batches(op)?;
            Ok((batches, mark.delta()))
        })
    }

    /// Submit a plan to the shared worker pool **without blocking**,
    /// returning a [`QueryHandle`] that can be waited on or cancelled
    /// ([`QueryHandle::cancel`]). The plan lowers exactly as it does
    /// under [`Database::run`]. Unlike `run` this neither flushes the
    /// buffer pool nor snapshots the engine counters: the handle's
    /// [`smooth_executor::QueryOutput`] carries per-query
    /// [`ScanStatistics`] instead (with `rows_total` left 0 — only
    /// `run` stamps it).
    pub fn submit(&self, plan: &LogicalPlan) -> Result<QueryHandle> {
        self.scheduler().submit(self.lower(plan)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::{AggFunc, JoinType};
    use smooth_storage::{CpuCosts, DeviceProfile};
    use smooth_types::{Column, DataType, Value};

    fn db(rows: i64) -> Database {
        let mut db = Database::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 64,
        });
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        db.load_table(
            "t",
            schema,
            (0..rows).map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(((i.wrapping_mul(2654435761)) % 1000 + 1000) % 1000),
                    Value::str("x".repeat(40)),
                ])
            }),
        )
        .unwrap();
        db.create_index("t", 1, "t_c1").unwrap();
        db
    }

    fn q(hi: i64, access: AccessPathChoice) -> LogicalPlan {
        LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, hi)).with_access(access),
        )
    }

    #[test]
    fn all_access_paths_agree() {
        let db = db(3000);
        let reference = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap();
        let mut expected: Vec<i64> = reference.rows.iter().map(|r| r.int(0).unwrap()).collect();
        expected.sort_unstable();
        for access in [
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Smooth(SmoothScanConfig::default()),
            AccessPathChoice::Switch { estimate: 100 },
            AccessPathChoice::Auto,
        ] {
            let got = db.run(&q(250, access.clone())).unwrap();
            let mut ids: Vec<i64> = got.rows.iter().map(|r| r.int(0).unwrap()).collect();
            ids.sort_unstable();
            assert_eq!(ids, expected, "{access:?}");
            assert!(got.stats.secs() > 0.0);
            assert!(got.stats.io.pages_read > 0);
        }
    }

    #[test]
    fn ordered_scans_sort_when_needed() {
        let db = db(2000);
        for access in [
            AccessPathChoice::ForceFull,
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Smooth(SmoothScanConfig::default()),
            AccessPathChoice::Switch { estimate: 0 },
            AccessPathChoice::Switch { estimate: 100 },
            AccessPathChoice::Auto,
        ] {
            let plan = LogicalPlan::scan(
                ScanSpec::new("t", Predicate::int_half_open(1, 0, 500))
                    .with_order()
                    .with_access(access.clone()),
            );
            let got = db.run(&plan).unwrap();
            let keys: Vec<i64> = got.rows.iter().map(|r| r.int(1).unwrap()).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{access:?}");
        }
    }

    #[test]
    fn aggregation_over_scan() {
        let db = db(2000);
        let plan = q(100, AccessPathChoice::Auto)
            .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Min(1), AggFunc::Max(1)]);
        let got = db.run(&plan).unwrap();
        assert_eq!(got.rows.len(), 1);
        let count = got.rows[0].int(0).unwrap();
        assert!(count > 0);
        assert!(got.rows[0].int(2).unwrap() < 100);
    }

    #[test]
    fn join_strategies_agree() {
        let db = db(2000);
        let outer = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 50)));
        let mk = |strategy| {
            outer.clone().join(
                LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
                1,
                1,
                smooth_executor::JoinType::Inner,
                strategy,
            )
        };
        let hash = db.run(&mk(JoinStrategy::Hash)).unwrap().rows.len();
        let inlj = db.run(&mk(JoinStrategy::IndexNestedLoop)).unwrap().rows.len();
        let merge = db.run(&mk(JoinStrategy::Merge)).unwrap().rows.len();
        let auto = db.run(&mk(JoinStrategy::Auto)).unwrap().rows.len();
        assert!(hash > 0);
        assert_eq!(hash, inlj);
        assert_eq!(hash, merge);
        assert_eq!(hash, auto);
    }

    /// `l ⋈ r` on their first columns, each table loaded from `(k, v)`
    /// pairs, under `ty` and `strategy`: the rows, as integers.
    fn join_pairs(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        ty: JoinType,
        strategy: JoinStrategy,
    ) -> Vec<Vec<i64>> {
        let mut db = Database::new(StorageConfig::default());
        for (name, rows) in [("l", l), ("r", r)] {
            let cols = ["k", "v"].map(|c| Column::new(format!("{name}.{c}"), DataType::Int64));
            let rows = rows.iter().map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]));
            db.load_table(name, Schema::new(cols.to_vec()).unwrap(), rows).unwrap();
        }
        let scan = |t: &str| LogicalPlan::scan(ScanSpec::new(t, Predicate::True));
        let rows = db.run(&scan("l").join(scan("r"), 0, 0, ty, strategy)).unwrap().rows;
        rows.iter().map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect()).collect()
    }

    /// A merge join runs as a hash join under a sort on the left key:
    /// duplicate keys on both sides join in key order, each left row's
    /// matches in right-input order, and an empty side joins nothing.
    #[test]
    fn merge_plans_join_duplicate_groups_in_key_order() {
        let l = [(1, 0), (2, 1), (2, 2), (5, 3)];
        let r = [(0, 9), (2, 10), (2, 11), (4, 12), (5, 13)];
        let merge = |l: &[_], r: &[_]| join_pairs(l, r, JoinType::Inner, JoinStrategy::Merge);
        let want = [[2, 1, 2, 10], [2, 1, 2, 11], [2, 2, 2, 10], [2, 2, 2, 11], [5, 3, 5, 13]];
        assert_eq!(merge(&l, &r), want);
        assert!(merge(&[], &r).is_empty() && merge(&l, &[]).is_empty());
    }

    /// A semi merge join emits each left row with a match once, in key
    /// order — not the inner join's concatenated pairs.
    #[test]
    fn merge_semi_joins_emit_each_matching_left_row_once() {
        let l: Vec<(i64, i64)> = (0..10).map(|i| (i % 3, i)).collect();
        let r: Vec<(i64, i64)> = (0..6).map(|i| (i % 2, i)).collect();
        let got = join_pairs(&l, &r, JoinType::LeftSemi, JoinStrategy::Merge);
        assert_eq!(got, [[0, 0], [0, 3], [0, 6], [0, 9], [1, 1], [1, 4], [1, 7]]);
    }

    #[test]
    fn explain_names_the_operators() {
        let db = db(500);
        let text =
            db.explain(&q(10, AccessPathChoice::Smooth(SmoothScanConfig::default()))).unwrap();
        assert!(text.contains("SmoothScan"), "{text}");
        let text = db.explain(&q(900, AccessPathChoice::Auto)).unwrap();
        assert!(text.contains("FullTableScan"), "{text}");
        // Smooth Scan under the Switch trigger is Switch Scan; ordered, it is sorted above.
        let spec = ScanSpec::new("t", Predicate::int_half_open(1, 0, 10))
            .with_access(AccessPathChoice::Switch { estimate: 7 });
        let label = |spec: ScanSpec| db.explain(&LogicalPlan::scan(spec)).unwrap();
        assert!(label(spec.clone()).starts_with("SwitchScan(t via t_c1, estimate=7)"));
        assert!(label(spec.with_order()).starts_with("Sort → SwitchScan(t via t_c1, estimate=7)"));
        // A merge join is a hash join under a sort on its left key.
        let merge = q(10, AccessPathChoice::ForceFull).join(
            q(10, AccessPathChoice::ForceFull),
            1,
            1,
            JoinType::Inner,
            JoinStrategy::Merge,
        );
        assert!(db.explain(&merge).unwrap().starts_with("Sort → HashJoin(Inner)"));
    }

    #[test]
    fn plan_errors_are_reported() {
        let db = db(500);
        assert!(db.run(&q(10, AccessPathChoice::ForceIndex)).is_ok());
        // Predicate on a non-indexed column cannot be forced to the index.
        let bad = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_eq(0, 1)).with_access(AccessPathChoice::ForceIndex),
        );
        assert!(db.run(&bad).is_err());
        let missing = LogicalPlan::scan(ScanSpec::new("nope", Predicate::True));
        assert!(db.run(&missing).is_err());
    }

    /// Serial reference for a plan on `db`: the operator tree, cold-run
    /// on this thread by `collect_batches` — outside the pool,
    /// whatever its width.
    fn serial_reference(db: &Database, plan: &LogicalPlan) -> QueryResult {
        let mut op = db.build(plan).unwrap();
        db.run_operator(op.as_mut()).unwrap()
    }

    /// The per-run I/O counters that must match exactly between drivers
    /// (`distinct_pages` is a monotone per-database set, so its *delta*
    /// differs between a first and a repeated run of the same query).
    fn io_key(io: &IoStatsDelta) -> (u64, u64, u64, u64, u64) {
        (io.io_requests, io.pages_read, io.seq_pages, io.rand_pages, io.buffer_hits)
    }

    #[test]
    fn parallel_run_matches_serial_for_every_access_path() {
        let mut db = db(3000);
        for access in [
            AccessPathChoice::ForceFull,
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Smooth(SmoothScanConfig::default()),
            AccessPathChoice::Switch { estimate: 100 },
            AccessPathChoice::Auto,
        ] {
            let plan = q(250, access.clone());
            let serial = serial_reference(&db, &plan);
            for workers in [1usize, 2, 4, 8] {
                db.set_workers(workers);
                let got = db.run(&plan).unwrap();
                assert_eq!(got.rows, serial.rows, "{access:?} rows at {workers} workers");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
                    "{access:?} clock at {workers} workers"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&serial.stats.io),
                    "{access:?} io at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial_for_joins_and_aggregates() {
        let mut db = db(2000);
        let outer = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 120)));
        let join = outer.clone().join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
            1,
            1,
            smooth_executor::JoinType::Inner,
            JoinStrategy::Hash,
        );
        let agg_over_join = join
            .clone()
            .aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)]);
        let filtered = q(400, AccessPathChoice::ForceFull).filter(Predicate::int_lt(0, 900));
        for plan in [join, agg_over_join, filtered] {
            let serial = serial_reference(&db, &plan);
            for workers in [1usize, 2, 4] {
                db.set_workers(workers);
                let got = db.run(&plan).unwrap();
                assert_eq!(got.rows, serial.rows, "rows at {workers} workers");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
                    "clock at {workers} workers"
                );
                assert_eq!(io_key(&got.stats.io), io_key(&serial.stats.io), "{workers} workers");
            }
        }
    }

    #[test]
    fn parallel_pipeline_decomposition_shapes() {
        let db = db(1000);
        // Unordered full scan → partitioned heap source.
        let p = db.parallel_pipeline(&q(100, AccessPathChoice::ForceFull)).unwrap().unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Heap { .. }));
        // A bare adaptive scan has no stages to fan out → `None`; what
        // runs is the whole tree as a shared source under a collect sink.
        let smooth = q(100, AccessPathChoice::Smooth(SmoothScanConfig::default()));
        assert!(db.parallel_pipeline(&smooth).unwrap().is_none());
        let p = db.lower(&smooth).unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Shared { .. }));
        assert!(matches!(p.sink, SinkSpec::Collect));
        assert!(p.phases.len() == 1 && p.phases[0].stages.is_empty());
        // An ordered full scan at the root sorts at the sink; under a
        // filter it is the Sort-over-scan tree as a shared source.
        let ordered = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, 100))
                .with_order()
                .with_access(AccessPathChoice::ForceFull),
        );
        let p = db.lower(&ordered).unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Heap { .. }));
        assert!(matches!(p.sink, SinkSpec::Sort { .. }));
        let p = db.lower(&ordered.filter(Predicate::int_lt(0, 900))).unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Shared { .. }));
        assert!(matches!(p.sink, SinkSpec::Collect));
        // Every root sort sorts at the sink, over the heap source and
        // the stages of a filtered full scan; under an aggregate it is
        // the Sort-over-scan tree as a shared source.
        let sorted = q(100, AccessPathChoice::ForceFull)
            .filter(Predicate::int_lt(0, 900))
            .sort(vec![SortKey::desc(0)]);
        let p = db.lower(&sorted).unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Heap { .. }));
        assert!(matches!(p.phases[0].stages[..], [StageSpec::Filter(_)]));
        assert!(matches!(p.sink, SinkSpec::Sort { .. }));
        let p = db.lower(&sorted.aggregate(vec![1], vec![AggFunc::CountStar])).unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Shared { .. }));
        assert!(matches!(p.sink, SinkSpec::Aggregate { .. }));
        // …but an aggregate above it parallelizes on the stages.
        let plan = q(100, AccessPathChoice::Smooth(SmoothScanConfig::default()))
            .aggregate(vec![], vec![AggFunc::CountStar]);
        let p = db.parallel_pipeline(&plan).unwrap().unwrap();
        assert!(matches!(p.phases[0].source, ParallelSource::Shared { .. }));
        assert!(matches!(p.sink, SinkSpec::Aggregate { .. }));
        // Builds come in `HashJoin`'s open order — a join's build side
        // before anything on its probe side: (t ⋈ a) ⋈ b lowers to
        // [b, a, t], t probing a (phase 1), then b (phase 0).
        let t = |hi| q(hi, AccessPathChoice::ForceFull);
        let semi = smooth_executor::JoinType::LeftSemi;
        let hash = |l: LogicalPlan, r| l.join(r, 1, 1, semi, JoinStrategy::Hash);
        let p = db.lower(&hash(hash(t(900), t(20)), t(30))).unwrap();
        let scans = p.phases.iter().map(|phase| match &phase.source {
            ParallelSource::Heap { predicate, .. } => predicate.clone(),
            ParallelSource::Shared { .. } => panic!("a full scan is a heap source"),
        });
        let expected = [30, 20, 900].map(|hi| Predicate::int_half_open(1, 0, hi));
        assert_eq!(scans.collect::<Vec<_>>(), expected);
        assert!(matches!(p.phases[2].stages[..], [StageSpec::Probe(1), StageSpec::Probe(0)]));
        // Plan errors surface from the decomposition exactly like build().
        let bad = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_eq(0, 1)).with_access(AccessPathChoice::ForceIndex),
        );
        assert!(db.parallel_pipeline(&bad).is_err());
        assert!(db.with_workers(4).run(&bad).is_err());
    }

    #[test]
    fn worker_knob_defaults_and_overrides() {
        let db = db(100);
        assert!(db.workers() >= 1);
        let db = db.with_workers(0);
        assert_eq!(db.workers(), 1, "worker count floors at 1");
        let db = db.with_workers(99_999);
        assert_eq!(db.workers(), 1024, "and caps at 1024, like SMOOTH_WORKERS");
        assert!(default_workers() >= 1);
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers("0"), Ok(1), "floors at 1");
        assert_eq!(parse_workers("99999"), Ok(1024), "caps at 1024");
        for bad in ["", "abc", "4x", "-2", "2.0"] {
            assert!(parse_workers(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn scan_statistics_attach_to_every_driver() {
        let mut db = db(3000);
        let plan = q(250, AccessPathChoice::ForceFull);
        for workers in [1usize, 4] {
            db.set_workers(workers);
            let got = db.run(&plan).unwrap();
            assert_eq!(
                got.scan.rows_processed,
                got.rows.len() as u64,
                "{workers} workers: processed = emitted"
            );
            assert_eq!(got.scan.rows_scanned, 3000, "{workers} workers: full scan inspects all");
            assert_eq!(got.scan.rows_total, 3000, "{workers} workers: catalog cardinality");
            assert_eq!(got.scan.pages_read, got.stats.io.pages_read, "{workers} workers: solo IO");
            assert!(got.scan.selectivity() < 1.0);
            assert!(got.scan.mb_read() > 0.0);
        }
        // Joins sum both sides' cardinalities into rows_total.
        db.set_workers(1);
        let join = q(50, AccessPathChoice::ForceFull).join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
            1,
            1,
            smooth_executor::JoinType::Inner,
            JoinStrategy::Hash,
        );
        assert_eq!(db.run(&join).unwrap().scan.rows_total, 6000);
    }

    #[test]
    fn cold_runs_are_reproducible() {
        let db = db(2000);
        let a = db.run(&q(100, AccessPathChoice::ForceIndex)).unwrap().stats;
        let b = db.run(&q(100, AccessPathChoice::ForceIndex)).unwrap().stats;
        assert_eq!(a.io.pages_read, b.io.pages_read, "cold runs see identical I/O");
        assert_eq!(a.clock.io_ns, b.clock.io_ns);
    }

    #[test]
    fn submit_returns_the_same_rows_as_run() {
        let db = db(2000).with_workers(2);
        // A plan that fans out and one that does not (bare adaptive
        // scan) lower the same way under `submit` and `run`.
        for plan in [
            q(250, AccessPathChoice::ForceFull),
            q(250, AccessPathChoice::Smooth(SmoothScanConfig::default())),
        ] {
            let expected = db.run(&plan).unwrap();
            let out = db.submit(&plan).unwrap().wait().unwrap();
            assert_eq!(out.into_rows(), expected.rows);
        }
        // Plan errors surface at submit, before anything runs.
        let missing = LogicalPlan::scan(ScanSpec::new("nope", Predicate::True));
        assert!(db.submit(&missing).is_err());
    }

    #[test]
    fn submitted_queries_are_cancellable() {
        let db = db(2000).with_workers(2);
        let handle = db.submit(&q(250, AccessPathChoice::ForceFull)).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(Error::Cancelled) => {}
            Ok(out) => {
                // Lost the race: the query finished first — it must
                // then be complete, never partial.
                let expected = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap();
                assert_eq!(out.into_rows(), expected.rows);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The engine still serves queries afterwards.
        assert!(!db.run(&q(250, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
    }

    #[test]
    fn query_timeout_knob_reaches_the_scheduler() {
        // An existing pool picks the knob up at its next query; a later
        // knob change that rebuilds the pool applies it too.
        let mut db = db(500).with_workers(2);
        db.run(&q(10, AccessPathChoice::ForceFull)).unwrap();
        db.set_query_timeout_ms(250_000);
        assert_eq!(db.scheduler().timeout_ms(), 250_000);
        db.set_workers(3);
        assert_eq!(db.scheduler().timeout_ms(), 250_000, "survives a pool rebuild");
        // Generous virtual budget: queries still complete.
        assert!(!db.run(&q(100, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
        db.set_query_timeout_ms(0);
        assert_eq!(db.scheduler().timeout_ms(), 0);
    }

    #[test]
    fn injected_faults_fail_queries_typed_through_the_facade() {
        let db = db(2000).with_workers(2);
        db.set_faults(Some(FaultConfig::new(21).io_err(1.0)));
        let err = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap_err();
        assert!(matches!(err, Error::Faulted { .. }), "{err}");
        // Removing the faults restores the engine.
        db.set_faults(None);
        assert!(!db.run(&q(250, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
    }
}
