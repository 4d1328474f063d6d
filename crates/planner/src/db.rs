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
//! peeled pipeline — a list of phases in the order the operator tree
//! finishes them, each ending in one sink: every hash-join build side,
//! `Sort` and `Aggregate`, wherever it sits, ends a phase, and the last
//! phase's sink is the result; the executor validates the stage chains
//! and types them; what does not peel — a Smooth Scan, an index join —
//! runs whole as a shared source) and hand it to the database's
//! **persistent** worker pool
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

use std::sync::{Arc, Mutex, OnceLock};

use smooth_core::{SmoothInnerPath, SmoothScan, SmoothScanConfig, Trigger};
use smooth_executor::sort::SortKey;
use smooth_executor::{
    batch_size, collect_batches, BoxedOperator, Filter, FullTableScan, HashAggregate, HashJoin,
    IndexNestedLoopJoin, Operator, ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec,
    Project, QueryHandle, Scheduler, SinkSpec, Sort, StageSpec,
};
use smooth_stats::StatsQuality;
use smooth_storage::{
    tap_mark, ClockSnapshot, FaultConfig, HeapLoader, IoStatsDelta, ScanStatistics, Storage,
    StorageConfig,
};
use smooth_types::{env_knob, ColumnBatch, Error, Result, Row, Schema};

use crate::catalog::{Catalog, TableEntry};
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
    /// access path and join strategy picked by the [`Optimizer`], every
    /// index-driven access path made the Smooth Scan configuration that
    /// runs it (Index Scan under `Trigger::Never`, Sort Scan under
    /// `Trigger::Sort`, Switch Scan under `Trigger::Switch`), and every
    /// `ordered:` scan whose access path does not deliver key order (Full,
    /// and Smooth under Sort or Switch) rewritten as a `Sort` on its range
    /// key over the same scan, unordered — `ScanSpec::ordered`, for which
    /// `prune` keeps the key, is the one flag that asks for key order.
    /// Every merge join likewise becomes a hash join under a `Sort` on
    /// its left key. The inner scan
    /// of an index-nested-loop join is probed, not scanned: it stays as
    /// written.
    fn resolve(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let input = |input: &LogicalPlan| self.resolve(input).map(Box::new);
        Ok(match plan {
            LogicalPlan::Scan(spec) => {
                let entry = self.catalog.get(&spec.table)?;
                let (predicate, device) = (&spec.predicate, self.storage.device());
                let smooth = |trigger| {
                    AccessPathChoice::Smooth(SmoothScanConfig::default().with_trigger(trigger))
                };
                let access = match &spec.access {
                    AccessPathChoice::Auto => {
                        match Optimizer::choose_access_path(entry, predicate, spec.ordered, device)
                        {
                            AccessPathKind::FullScan => AccessPathChoice::ForceFull,
                            AccessPathKind::IndexScan => smooth(Trigger::Never),
                            AccessPathKind::SortScan => smooth(Trigger::Sort),
                        }
                    }
                    AccessPathChoice::ForceIndex => smooth(Trigger::Never),
                    AccessPathChoice::ForceSort => smooth(Trigger::Sort),
                    AccessPathChoice::Switch { estimate } => {
                        smooth(Trigger::Switch { estimated_cardinality: *estimate })
                    }
                    other => other.clone(),
                };
                let sorted = spec.ordered
                    && match &access {
                        AccessPathChoice::Smooth(config) => {
                            matches!(config.trigger, Trigger::Switch { .. } | Trigger::Sort)
                        }
                        access => *access == AccessPathChoice::ForceFull,
                    };
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
        match &spec.access {
            AccessPathChoice::ForceFull => Ok(Box::new(self.full_scan(spec)?)),
            AccessPathChoice::Smooth(config) => {
                Ok(Box::new(self.build_smooth_scan(spec, *config)?))
            }
            _ => unreachable!("`resolve` leaves Full and Smooth access paths only"),
        }
    }

    /// The one full table scan both the operator tree and the pipeline's
    /// heap source run.
    fn full_scan(&self, spec: &ScanSpec) -> Result<FullTableScan> {
        let heap = Arc::clone(&self.catalog.get(&spec.table)?.heap);
        let scan = FullTableScan::new(heap, self.storage.clone(), spec.predicate.clone());
        scan.with_columns(spec.cols.as_deref())
    }

    /// Build a Smooth Scan directly (experiments that need
    /// [`smooth_core::SmoothScanMetrics`] after the run), in key order
    /// when `spec.ordered`.
    pub fn build_smooth_scan(
        &self,
        spec: &ScanSpec,
        config: SmoothScanConfig,
    ) -> Result<SmoothScan> {
        let entry = self.catalog.get(&spec.table)?;
        let (idx, (col, lo, hi, residual)) = spec
            .predicate
            .split_index_range()
            .and_then(|split| Some((entry.index_on(split.0)?, split)))
            .ok_or_else(|| {
                let table = &spec.table;
                Error::plan(format!("smooth scan on '{table}' needs an indexed range predicate"))
            })?;
        let scan = SmoothScan::new(
            Arc::clone(&entry.heap),
            Arc::clone(&idx.index),
            self.storage.clone(),
            col,
            lo,
            hi,
            residual,
            config,
        );
        scan.with_order(spec.ordered)
            .with_mem_budget(self.mem_bytes())
            .with_columns(spec.cols.as_deref())
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
    /// The decomposition is `peel`'s: `Filter` / `Project` / hash-join
    /// probes become per-worker stages, and every breaker — a hash
    /// join's build side, a `Sort`, an `Aggregate`, wherever it sits —
    /// ends a phase. A full table scan becomes the *partitioned* heap
    /// source (the scan reads its page runs under the source lock,
    /// workers inspect them in parallel); any other leaf (a Smooth Scan
    /// under any trigger — Index, Sort and Switch Scan are its
    /// configurations — or an index join with its outer side) runs
    /// unchanged as a serial shared source, which is exactly how the
    /// adaptive scans' morph decisions stay centralized while the stages
    /// above them still parallelize. Plan validation errors (missing
    /// tables, bad ordinals) surface here identically to
    /// [`Database::build`] — the lowering's, then
    /// [`ParallelPipeline::staged_schemas`]'.
    pub fn parallel_pipeline(&self, plan: &LogicalPlan) -> Result<Option<ParallelPipeline>> {
        let pipeline = self.lower(plan)?;
        pipeline.staged_schemas()?;
        let serial_only = matches!(
            &pipeline.phases[..],
            [PhaseSpec { source: ParallelSource::Shared { .. }, stages, sink: SinkSpec::Collect }]
                if stages.is_empty()
        );
        Ok((!serial_only).then_some(pipeline))
    }

    /// The one lowering every execution goes through, over the resolved
    /// plan — total: a plan with nothing to fan out comes back as its
    /// whole operator tree in a shared source under a collect sink,
    /// which the pool drains one morsel at a time, checking the cancel
    /// flag and the deadline at every boundary. It is `peel`'s phase
    /// list, less the empty trailing [`ParallelSource::Output`] phase a
    /// root `Sort` or `Aggregate` leaves: its phase is the last, and the
    /// result is what it finished into. Schemas are the executor's
    /// business: the scheduler types the chains once, before it queues
    /// the query, and [`ParallelPipeline::staged_schemas`] fails where
    /// the operator constructors [`Database::build`] calls would.
    fn lower(&self, plan: &LogicalPlan) -> Result<ParallelPipeline> {
        let mut phases = Vec::new();
        let last = self.peel(&self.resolve(&prune(&self.catalog, plan))?, &mut phases)?;
        if !(matches!(last.source, ParallelSource::Output) && last.stages.is_empty()) {
            phases.push(last);
        }
        let (storage, mem_bytes) = (self.storage.clone(), self.mem_bytes());
        Ok(ParallelPipeline { phases, storage, morsel_rows: batch_size(), mem_bytes })
    }

    /// Pipeline peel of `plan` into phases, in the order the operator
    /// tree finishes them: filters and projections peel into stages of
    /// the current phase; every breaker closes a phase with its sink and
    /// pushes it to `phases`. A hash join peels its build side **first**
    /// — nested phases land ahead of it — and closes it with a build,
    /// then peels its probe side, which keeps this subtree's source and
    /// probes the build through a [`StageSpec::Probe`] stage. That is
    /// [`HashJoin`]'s own open order. A `Sort` or an `Aggregate` closes
    /// its input's phase with a sort or aggregate sink and continues from
    /// an open phase that reads what it finished into
    /// ([`ParallelSource::Output`]) — what the tree's `Sort` /
    /// `HashAggregate` emit after their `open` drained the input; nothing
    /// is pushed before that phase closes, so it is the next one. A full
    /// scan becomes the partitioned heap source — the [`FullTableScan`] the operator tree would run, built
    /// by the same [`Database::full_scan`]; any other leaf (a Smooth Scan
    /// under any trigger, an index join) runs whole as a serial shared
    /// source. Returns the open phase, whose sink the caller decides.
    fn peel(&self, plan: &LogicalPlan, phases: &mut Vec<PhaseSpec>) -> Result<PhaseSpec> {
        let staged = |input, stage, phases: &mut _| {
            let mut phase = self.peel(input, phases)?;
            phase.stages.push(stage);
            Ok(phase)
        };
        // End `input`'s phase in `sink`; the open phase reads its output.
        let breaker = |input, sink, phases: &mut _| {
            Self::close(self.peel(input, phases)?, sink, phases);
            Ok(Self::source(ParallelSource::Output))
        };
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                staged(input, StageSpec::Filter(predicate.clone()), phases)
            }
            LogicalPlan::Project { input, cols } => {
                staged(input, StageSpec::Project(cols.clone()), phases)
            }
            LogicalPlan::Join(spec) if spec.strategy == JoinStrategy::Hash => {
                let (right_col, left_col, ty, emit) =
                    (spec.right_col, spec.left_col, spec.ty, spec.emit.clone());
                let sink = SinkSpec::Build(PhaseBuild { right_col, left_col, ty, emit });
                let built = Self::close(self.peel(&spec.right, phases)?, sink, phases);
                staged(&spec.left, StageSpec::Probe(built), phases)
            }
            LogicalPlan::Aggregate { input, group_cols, aggs } => {
                let (group_cols, aggs) = (group_cols.clone(), aggs.clone());
                breaker(input, SinkSpec::Aggregate { group_cols, aggs }, phases)
            }
            LogicalPlan::Sort { input, keys } => {
                breaker(input, SinkSpec::Sort { keys: keys.clone() }, phases)
            }
            LogicalPlan::Scan(spec) if spec.access == AccessPathChoice::ForceFull => {
                Ok(Self::source(ParallelSource::Heap(Box::new(self.full_scan(spec)?))))
            }
            other => Ok(Self::source(ParallelSource::Shared { op: self.build_node(other)? })),
        }
    }

    /// An open phase from `source`, no stages yet.
    fn source(source: ParallelSource) -> PhaseSpec {
        PhaseSpec { source, stages: Vec::new(), sink: SinkSpec::Collect }
    }

    /// End `phase` in `sink` and push it to `phases`: its index.
    fn close(mut phase: PhaseSpec, sink: SinkSpec, phases: &mut Vec<PhaseSpec>) -> usize {
        phase.sink = sink;
        phases.push(phase);
        phases.len() - 1
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
    /// under [`Database::run`] on this thread; admission, which opens
    /// the first phase's source (a shared source's `open` may walk an
    /// index range or drain a whole subtree), runs on a pool worker. Unlike `run` this neither flushes the
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
    use smooth_executor::{AggFunc, JoinType, Predicate};
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

    /// Every access path runs an ordered scan in key order, every one to
    /// the same keys: a Smooth access under a trigger that cannot keep the
    /// order (Switch, Sort) gets the `Sort` that `Switch` and `ForceSort`
    /// get.
    #[test]
    fn ordered_scans_sort_when_needed() {
        let db = db(2000);
        let smooth = |trigger| SmoothScanConfig::default().with_trigger(trigger);
        let switch = smooth(Trigger::Switch { estimated_cardinality: 5 });
        for hi in [300, 500] {
            let mut expected = None;
            for access in [
                AccessPathChoice::ForceFull,
                AccessPathChoice::ForceIndex,
                AccessPathChoice::ForceSort,
                AccessPathChoice::Smooth(SmoothScanConfig::default()),
                AccessPathChoice::Smooth(switch),
                AccessPathChoice::Smooth(smooth(Trigger::Sort)),
                AccessPathChoice::Switch { estimate: 0 },
                AccessPathChoice::Switch { estimate: 100 },
                AccessPathChoice::Auto,
            ] {
                let plan = LogicalPlan::scan(
                    ScanSpec::new("t", Predicate::int_half_open(1, 0, hi))
                        .with_order()
                        .with_access(access.clone()),
                );
                let got = db.run(&plan).unwrap();
                let keys: Vec<i64> = got.rows.iter().map(|r| r.int(1).unwrap()).collect();
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{access:?}");
                assert_eq!(&keys, expected.get_or_insert_with(|| keys.clone()), "{access:?}");
            }
        }
    }

    /// An ordered scan under a projection that drops its key runs: `prune`
    /// keeps the key for `ScanSpec::ordered`, the one flag `resolve` reads.
    #[test]
    fn ordered_scan_under_a_keyless_projection_runs() {
        let db = db(2000);
        let smooth = |t| AccessPathChoice::Smooth(SmoothScanConfig::default().with_trigger(t));
        let switch = smooth(Trigger::Switch { estimated_cardinality: 5 });
        let (full, sort, eager) =
            (AccessPathChoice::ForceFull, smooth(Trigger::Sort), smooth(Trigger::Eager));
        let ids = [full, switch, sort, eager].map(|access| {
            let spec = ScanSpec::new("t", Predicate::int_half_open(1, 0, 300));
            let plan =
                LogicalPlan::scan(spec.with_access(access.clone()).with_order()).project(vec![0]);
            let sorted = access != smooth(Trigger::Eager);
            assert_eq!(db.explain(&plan).unwrap().contains("Sort → "), sorted, "{access:?}");
            let rows = db.run(&plan).unwrap().rows;
            let mut ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
            ids.sort_unstable(); // a stable `Sort` may order key ties differently
            ids
        });
        assert!(!ids[0].is_empty() && ids.iter().all(|i| *i == ids[0]));
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
        // So is it when a Smooth access names the trigger.
        let switch = Trigger::Switch { estimated_cardinality: 7 };
        let config = SmoothScanConfig::default().with_trigger(switch);
        let spec = ScanSpec::new("t", Predicate::int_half_open(1, 0, 10))
            .with_access(AccessPathChoice::Smooth(config))
            .with_order();
        assert!(label(spec).starts_with("Sort → SwitchScan(t via t_c1, estimate=7)"));
        // Sort Scan is Smooth Scan under the Sort trigger, pruned like any scan.
        let spec = ScanSpec::new("t", Predicate::int_half_open(1, 0, 10))
            .with_access(AccessPathChoice::ForceSort);
        let pruned = LogicalPlan::scan(spec.clone()).project(vec![0]);
        assert_eq!(label(spec.clone()), "SortScan(t via t_c1)");
        assert!(label(spec.with_order()).starts_with("Sort → SortScan(t via t_c1)"));
        assert!(db.explain(&pruned).unwrap().ends_with("SortScan(t via t_c1)[c0]"));
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
        assert_eq!(shape(&db, &q(100, AccessPathChoice::ForceFull)), ["heap→collect"]);
        // A bare adaptive scan has no stages to fan out → `None`; what
        // runs is the whole tree as a shared source under a collect sink.
        let smooth = q(100, AccessPathChoice::Smooth(SmoothScanConfig::default()));
        assert!(db.parallel_pipeline(&smooth).unwrap().is_none());
        assert_eq!(shape(&db, &smooth), ["shared→collect"]);
        // An ordered full scan sorts at a sink: at the root that phase is
        // the last; under a filter an `Output` phase filters what it sorted.
        let ordered = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, 100))
                .with_order()
                .with_access(AccessPathChoice::ForceFull),
        );
        assert_eq!(shape(&db, &ordered), ["heap→sort"]);
        let filtered = ordered.filter(Predicate::int_lt(0, 900));
        assert_eq!(shape(&db, &filtered), ["heap→sort", "out·filter→collect"]);
        // A sort keeps the stages of a filtered full scan; an aggregate
        // over it reads its output.
        let sorted = q(100, AccessPathChoice::ForceFull)
            .filter(Predicate::int_lt(0, 900))
            .sort(vec![SortKey::desc(0)]);
        assert_eq!(shape(&db, &sorted), ["heap·filter→sort"]);
        let counted = sorted.aggregate(vec![1], vec![AggFunc::CountStar]);
        assert_eq!(shape(&db, &counted), ["heap·filter→sort", "out→agg"]);
        // An aggregate over an adaptive scan parallelizes on the stages.
        let plan = q(100, AccessPathChoice::Smooth(SmoothScanConfig::default()))
            .aggregate(vec![], vec![AggFunc::CountStar]);
        assert!(db.parallel_pipeline(&plan).unwrap().is_some());
        assert_eq!(shape(&db, &plan), ["shared→agg"]);
        // A sort on a hash join's build side is a phase of its own, and
        // the build reads its output.
        let t = |hi| q(hi, AccessPathChoice::ForceFull);
        let semi = smooth_executor::JoinType::LeftSemi;
        let hash = |l: LogicalPlan, r| l.join(r, 1, 1, semi, JoinStrategy::Hash);
        let sorted_build = hash(t(900), t(30).sort(vec![SortKey::desc(0)]));
        assert_eq!(shape(&db, &sorted_build), ["heap→sort", "out→build", "heap·probe1→collect"]);
        // Builds come in `HashJoin`'s open order — a join's build side
        // before anything on its probe side: (t ⋈ a) ⋈ b lowers to
        // [b, a, t], t probing a (phase 1), then b (phase 0).
        let bushy = hash(hash(t(900), t(20)), t(30));
        assert_eq!(shape(&db, &bushy), ["heap→build", "heap→build", "heap·probe1·probe0→collect"]);
        // The phases' scans, told apart by how many rows each passes.
        let rows = |op: &mut dyn Operator| -> usize {
            collect_batches(op).unwrap().iter().map(ColumnBatch::len).sum()
        };
        let scans = db.lower(&bushy).unwrap().phases.into_iter().map(|phase| match phase.source {
            ParallelSource::Heap(mut scan) => rows(&mut *scan),
            _ => panic!("a full scan is a heap source"),
        });
        let expected = [30, 20, 900].map(|hi| rows(&mut *db.build(&t(hi)).unwrap()));
        assert_eq!(scans.collect::<Vec<_>>(), expected);
        // Plan errors surface from the decomposition exactly like build(),
        // and from `submit` before a query is queued — a stage ordinal
        // `prune` leaves alone from the one `staged_schemas` walk too, and
        // a bad aggregate column under a join with `HashAggregate::new`'s
        // text: `agg::output_schema` is the one check.
        let bad = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_eq(0, 1)).with_access(AccessPathChoice::ForceIndex),
        );
        let bad_stage = t(100).filter(Predicate::int_lt(0, 900)).project(vec![9]);
        let bad_agg = hash(t(900), t(20).aggregate(vec![7], vec![AggFunc::CountStar]));
        let db = db.with_workers(4);
        for bad in [bad, bad_stage, bad_agg] {
            let built = db.build(&bad).err().map(|e| e.to_string());
            assert!(db.parallel_pipeline(&bad).is_err());
            assert_eq!(db.run(&bad).err().map(|e| e.to_string()), built);
            assert!(db.submit(&bad).is_err());
        }
    }

    /// Each phase of `plan`'s lowering as `source·stage…→sink`: `heap`,
    /// `shared` or `out` (the previous phase's `Output`); `filter`,
    /// `project` or `probe<b>`; `collect`, `agg`, `sort` or `build`.
    fn shape(db: &Database, plan: &LogicalPlan) -> Vec<String> {
        let shape = |p: &PhaseSpec| {
            let mut text = match p.source {
                ParallelSource::Heap(_) => "heap".to_string(),
                ParallelSource::Shared { .. } => "shared".to_string(),
                ParallelSource::Output => "out".to_string(),
            };
            for stage in &p.stages {
                text += &match stage {
                    StageSpec::Filter(_) => "·filter".to_string(),
                    StageSpec::Project(_) => "·project".to_string(),
                    StageSpec::Probe(b) => format!("·probe{b}"),
                };
            }
            let sink = match p.sink {
                SinkSpec::Collect => "collect",
                SinkSpec::Aggregate { .. } => "agg",
                SinkSpec::Sort { .. } => "sort",
                SinkSpec::Build(_) => "build",
            };
            format!("{text}→{sink}")
        };
        db.lower(plan).unwrap().phases.iter().map(shape).collect()
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
