//! Morsel-driven parallel pipeline execution (HyPer-style).
//!
//! A [`ParallelPipeline`] runs one query pipeline across a fixed worker
//! pool: workers pull columnar morsels from a shared source, push each
//! morsel through a per-worker chain of [`StageSpec`]s (filter, projection,
//! hash-join probe) with thread-local state, fold it into a per-worker
//! partial aggregate where that is exact, and hand everything else to an
//! *ordered* sink that merges morsels back into source order. The
//! result is **deterministic and byte-identical** to the single-threaded
//! columnar driver ([`crate::collect_rows`]), and the total virtual
//! CPU/IO clock charges are **exactly equal** to the single-threaded
//! run. Two structural decisions make that possible:
//!
//! * **Source sections are serialized in morsel order.** The disk model
//!   ([`smooth_storage::Storage`]) classifies a transfer as sequential
//!   or random by whether it physically continues the previous one, and
//!   buffer-pool residency depends on access order — so all charged I/O
//!   happens inside the source lock, in exactly the order the
//!   single-threaded driver would issue it. For a heap scan the lock
//!   covers only the page-run fetch (readahead-sized, cheap — a pool
//!   probe plus a memcpy per page); the expensive part, probing encoded
//!   tuples and decoding qualifiers into column vectors, runs on the
//!   claiming worker *outside* the lock with a thread-local
//!   [`ScanFilter`]. For any other operator (Smooth Scan under every
//!   trigger, index/sort scans, sorts) the whole operator *is* the serial
//!   section: adaptive morph decisions stay centralized in one operator
//!   instance, untouched by parallelism, exactly as the single-threaded
//!   driver runs them.
//! * **Worker-side charges are per-tuple, never per-batch-boundary.**
//!   Every stage charges the shared virtual clock (lock-free atomics —
//!   the contention-light accounting core) the same per-row amounts the
//!   serial operators charge, so totals are independent of how rows are
//!   grouped into morsels and of which worker processed them.
//!
//! Pipeline breakers merge deterministically. A pipeline is a list of
//! phases ([`PhaseSpec`]: a morsel source and its filter / projection /
//! nested-probe stages) run to completion one after another — the
//! hash-join builds, then the phase that feeds the sink — and a source
//! opens when its phase starts. That is the order [`crate::HashJoin`]
//! opens its inputs in (build first, then the probe side), so the
//! operator tree and the pipeline open, read and close the same leaves
//! in the same order, for left-deep and bushy trees alike. Workers claim
//! build morsels under the source lock (so build-input I/O happens in
//! the exact serial order) and fold them into per-slot partial builds
//! ([`crate::JoinBuildPartial`]: appended payload rows plus each row's
//! global build position — no hashing, no `Vec<Row>`), which the phase
//! finalizer links into one table in position order
//! ([`crate::JoinBuildTable::from_partials`]) — mirroring the
//! aggregate sink's first-seen-position rule, so the probe table is
//! byte-identical to the serial [`crate::HashJoin`] build no matter
//! which worker ingested which morsel. Grouped aggregates use
//! per-slot partial folds (the serial operator's own group table and
//! accumulators) merged by global first-seen `(seq, idx)` position
//! when the merge is exact ([`AggFunc::merge_exact`]), and
//! otherwise fold on the ordered sink in morsel order so float sums
//! stay byte-identical; plain row output is concatenated in morsel
//! order, and a root sort streams its morsels in morsel order into the
//! sort sink ([`SinkSpec::Sort`] — the serial `Sort` operator's exact
//! charges, stable over serial-order input, its final pass recorded as
//! the ledger's serial suffix).
//!
//! Execution lives in [`crate::schedule`], the one pipeline driver: the
//! worker pool belongs to a persistent [`crate::Scheduler`] serving
//! *queries* (each an independent phase state machine with its own
//! source lock and sink, claimed from one morsel at a time), not to a
//! single pipeline run. [`run_pipeline`] submits the pipeline as
//! the sole query of an ephemeral scheduler at every worker count, one
//! included; this module keeps the specs, the per-morsel machinery
//! (sources, stages, partial sinks) and the scaling model.
//!
//! [`run_pipeline_traced`] is the same run on one worker with the
//! query's trace on: the scheduler itself records a virtual-clock
//! ledger ([`ScalingLedger`]) — a serial prefix, one [`LedgerPhase`] of
//! summed source, worker and ordered-sink sections per build and one
//! for the probe phase, a serial suffix — from clock snapshots at its
//! own phase-install / claim / process / sort sites (see the "Trace
//! sites" paragraph in [`crate::schedule`]), so the model's input is
//! produced by the code it models. From the ledger a closed form
//! predicts the parallel makespan at any worker count: each phase,
//! behind its barrier, takes the longest of its serialized source, its
//! serialized sink and its work spread evenly over the pool. The
//! perf-smoke `parallel`, `join` and `serve` experiments gate on that
//! model because, unlike wall clock on a shared CI runner (or this
//! repo's build hosts), it is bit-stable across machines. See
//! `docs/scheduler_v2.md`.

use std::sync::Arc;

use smooth_storage::{HeapFile, PageBuf, PageView, Storage};
use smooth_types::{ColumnBatch, Error, PageId, Result, Row, Schema};

use crate::agg::GroupFold;
use crate::expr::{Predicate, ScanFilter};
use crate::join::{join_schema, JoinBuildPartial, JoinBuildTable};
use crate::operator::BoxedOperator;
use crate::{AggFunc, JoinType};

/// Where morsels come from.
pub enum ParallelSource {
    /// A partitioned heap scan: workers claim readahead-sized page runs
    /// (I/O under the source lock, in page order), then probe + decode
    /// on their own thread via a thread-local [`ScanFilter`]. This is
    /// the fully parallel source — the CPU-heavy decode fans out.
    Heap {
        /// The heap to scan.
        heap: Arc<HeapFile>,
        /// Scan predicate (pushed into the per-worker [`ScanFilter`]).
        predicate: Predicate,
        /// The heap columns morsels carry (strictly ascending; `None` =
        /// all) — the per-worker [`ScanFilter`]'s output set.
        cols: Option<Vec<usize>>,
        /// Pages fetched per morsel (use
        /// [`crate::scan::FULL_SCAN_READAHEAD`] to match the serial
        /// scan's request pattern).
        readahead: u32,
    },
    /// Any operator as a serial morsel source: workers take turns
    /// pulling `next_columns(morsel_rows)` under the source lock. The
    /// operator runs exactly as it would single-threaded — this is how
    /// Smooth Scan's morph accounting stays centralized — while
    /// the stages above it still fan out.
    Shared {
        /// The source operator (opened by the driver).
        op: BoxedOperator,
    },
}

impl ParallelSource {
    /// The schema of the morsels this source emits.
    pub(crate) fn schema(&self) -> Result<Schema> {
        match self {
            ParallelSource::Heap { heap, cols, .. } => heap.schema().narrow(cols.as_deref()),
            ParallelSource::Shared { op } => Ok(op.schema().clone()),
        }
    }
}

/// One phase of a query: a morsel source drained through a per-worker
/// stage chain, into a hash-join build table (`build`) or — the last
/// phase only — into the sink. The source opens when the phase starts
/// and closes when it ends, so at most one source of a query is open at
/// a time; its I/O serializes under the source lock in morsel order —
/// exactly the order the serial operator tree would issue it — while
/// decode, the stages and a build's payload append fan out across the
/// worker pool (per-slot [`JoinBuildPartial`]s for a build).
pub struct PhaseSpec {
    /// The phase's morsel source (a build's right input, or the probe
    /// side that feeds the sink).
    pub source: ParallelSource,
    /// Per-worker stages, source side first: [`StageSpec::Filter`] /
    /// [`StageSpec::Project`] plus [`StageSpec::Probe`] against builds
    /// of *earlier* phases — so a hash join sitting on the build side
    /// of another hash join runs as a fully parallel build phase of its
    /// own instead of collapsing into a serial `Shared` source.
    pub stages: Vec<StageSpec>,
    /// The table this phase builds; `None` for the last phase, which
    /// feeds the sink.
    pub build: Option<PhaseBuild>,
}

/// What a build phase's morsels fold into.
pub struct PhaseBuild {
    /// Key ordinal in the build rows.
    pub right_col: usize,
    /// Key ordinal in the probe rows.
    pub left_col: usize,
    /// Join semantics.
    pub ty: JoinType,
    /// Operator memory budget in bytes for the build table (0 =
    /// unlimited); enforced once the partials are linked, so every worker
    /// count charges identical spill I/O
    /// ([`crate::JoinBuildTable::apply_budget`]).
    pub mem_bytes: usize,
    /// The columns of `probe rows ++ build rows` a probe of this table
    /// emits (strictly ascending; `None` = all) —
    /// [`crate::JoinBuildTable::probe_emit`].
    pub emit: Option<Vec<usize>>,
}

/// A per-worker morsel transform, declared against the build list.
#[derive(Clone)]
pub enum StageSpec {
    /// Keep rows satisfying the predicate (selection refinement on
    /// columnar morsels — no row moves).
    Filter(Predicate),
    /// Keep the listed columns, in order (column pruning).
    Project(Vec<usize>),
    /// Probe the `i`-th build table; emits gathered columnar batches.
    Probe(usize),
}

/// What happens to the ordered morsel stream at the pipeline end.
pub enum SinkSpec {
    /// Concatenate rows in morsel order.
    Collect,
    /// Grouped / scalar aggregation.
    Aggregate {
        /// Group-by ordinals (empty = scalar).
        group_cols: Vec<usize>,
        /// Aggregates per group. When every one merges exactly over
        /// the sink's input ([`AggFunc::merge_exact`]), workers hold
        /// partial maps merged by first-seen position; otherwise the
        /// sink folds morsels in order, keeping float sums
        /// byte-identical to the serial fold.
        aggs: Vec<AggFunc>,
    },
    /// Root sort: the sink folds each morsel, in morsel order, into
    /// one [`crate::ExternalSorter`] — the identical charges the serial
    /// [`crate::Sort`] operator makes over the same input — whose final
    /// pass restores global key order as the query's serial suffix
    /// ([`ScalingLedger::suffix_ns`] in the model). This is what lets a
    /// sorted plan keep the stages and the fully parallel heap source
    /// under it instead of running whole as one shared source.
    Sort {
        /// Sort keys, over the last phase's staged output.
        keys: Vec<crate::sort::SortKey>,
        /// Memory budget for the final sort (0 = unlimited; beyond it
        /// the sort goes external, charging spill I/O exactly as the
        /// serial operator would).
        mem_bytes: usize,
    },
}

/// A decomposed pipeline ready for the worker pool.
pub struct ParallelPipeline {
    /// The hash-join builds in completion order — the order the serial
    /// operator tree opens and drains them: a join's build side, nested
    /// builds first, before anything on its probe side — then the phase
    /// that feeds the sink. Each runs to completion before the next
    /// starts.
    pub phases: Vec<PhaseSpec>,
    /// Terminal merge.
    pub sink: SinkSpec,
    /// Shared storage handle (clock + pool the whole pipeline charges).
    pub storage: Storage,
    /// Rows per morsel for [`ParallelSource::Shared`] pulls (the serial
    /// driver's `batch_size()` to match it exactly).
    pub morsel_rows: usize,
}

/// A shared, read-only hash-join probe table: the merged columnar build
/// plus the probe-side key ordinal, join semantics and emit list.
pub(crate) struct ProbeTable {
    pub(crate) table: JoinBuildTable,
    pub(crate) left_col: usize,
    pub(crate) ty: JoinType,
    pub(crate) emit: Option<Vec<usize>>,
}

/// A runtime stage (build references resolved; the probe stage carries
/// its output schema so gathered batches type correctly).
#[derive(Clone)]
pub(crate) enum Stage {
    Filter(Predicate),
    Project(Vec<usize>),
    Probe(Arc<ProbeTable>, Schema),
}

impl Stage {
    fn apply(&self, storage: &Storage, mut batch: ColumnBatch) -> Result<ColumnBatch> {
        match self {
            Stage::Filter(pred) => {
                let selection = pred.filter_batch(&batch)?;
                batch.set_selection(selection);
                Ok(batch)
            }
            Stage::Project(cols) => batch.project(cols),
            // The shared probe loop ([`JoinBuildTable::probe_columns`] —
            // the exact code the serial [`crate::HashJoin`] runs, so the
            // charge model lives in one place) gathers the emitted probe
            // and matched payload columns straight into a fresh batch.
            Stage::Probe(t, out_schema) => {
                let mut out = ColumnBatch::for_schema(out_schema);
                let emit = t.emit.as_deref();
                t.table.probe_emit(storage, &batch, t.left_col, t.ty, emit, &mut out)?;
                Ok(out)
            }
        }
    }
}

/// Global first-seen position of a group: (morsel seq, index within the
/// morsel). Minimizing over workers reproduces the serial first-seen
/// group order exactly.
type FirstPos = (u64, u64);

/// A (partial) grouped-aggregation state — per worker slot when the
/// merge is exact, on the ordered sink otherwise: the serial operator's
/// own [`GroupFold`] (so accumulator semantics and clock charges cannot
/// drift from [`crate::HashAggregate`]) plus each group's global
/// first-seen position.
pub(crate) struct PartialAgg {
    fold: GroupFold,
    /// First-seen position per group id.
    first: Vec<FirstPos>,
}

impl PartialAgg {
    /// A partial over morsels of `schema` (the sink's input schema).
    pub(crate) fn new(schema: &Schema, group_cols: &[usize], aggs: &[AggFunc]) -> Result<Self> {
        Ok(PartialAgg { fold: GroupFold::new(schema, group_cols, aggs)?, first: Vec::new() })
    }

    /// Fold morsel `seq` in (the fold charges the clock).
    pub(crate) fn update(
        &mut self,
        storage: &Storage,
        seq: u64,
        batch: &ColumnBatch,
    ) -> Result<()> {
        self.fold.update(storage, batch)?;
        // A partial is not fed in monotone seq order: the scheduler's
        // slot pool hands a partial to whichever worker frees up next,
        // so one slot can fold seq 3 before seq 2. Minimizing the
        // first-seen position on *every* row (not just on insert) keeps
        // the recorded position equal to the global first occurrence
        // regardless of fold order.
        self.first.resize(self.fold.groups(), (u64::MAX, u64::MAX));
        for (idx, &g) in self.fold.ids().iter().enumerate() {
            let pos = &mut self.first[g as usize];
            *pos = (*pos).min((seq, idx as u64));
        }
        Ok(())
    }

    /// Combine another worker's partial in (order-independent: the
    /// caller guarantees every aggregate merges exactly).
    pub(crate) fn merge(&mut self, other: PartialAgg) {
        let map = self.fold.absorb(&other.fold);
        self.first.resize(self.fold.groups(), (u64::MAX, u64::MAX));
        for (&g, pos) in map.iter().zip(other.first) {
            let cur = &mut self.first[g as usize];
            *cur = (*cur).min(pos);
        }
    }

    /// Emit the groups as one batch in global first-seen order (a
    /// scalar aggregate over empty input still yields one row, as in
    /// the serial operator).
    pub(crate) fn finish(self) -> Result<ColumnBatch> {
        let mut order: Vec<u32> = (0..self.fold.groups() as u32).collect();
        // A scalar aggregate's single group may never have seen a row.
        order.sort_by_key(|&g| self.first.get(g as usize).copied().unwrap_or_default());
        self.fold.finish(Some(&order))
    }
}

/// What the source hands a worker under the lock.
pub(crate) enum SourceItem {
    /// A page run still to be probed + decoded (worker-side CPU).
    Pages(Vec<(PageId, PageBuf)>),
    /// A ready columnar morsel pulled from a shared operator.
    Batch(ColumnBatch),
}

/// The serial section: pulled in morsel order under one lock, so all
/// charged I/O happens in exactly the single-threaded order.
pub(crate) enum SourceCore {
    Heap { heap: Arc<HeapFile>, next: u32, readahead: u32 },
    Shared { op: BoxedOperator, max: usize },
}

impl SourceCore {
    pub(crate) fn pull(&mut self, storage: &Storage) -> Result<Option<SourceItem>> {
        match self {
            SourceCore::Heap { heap, next, readahead } => {
                let total = heap.page_count();
                if *next >= total {
                    return Ok(None);
                }
                let len = (*readahead).min(total - *next);
                let pages = storage.read_heap_run(heap, PageId(*next), len)?;
                *next += len;
                Ok(Some(SourceItem::Pages(pages)))
            }
            SourceCore::Shared { op, max } => Ok(op.next_columns(*max)?.map(SourceItem::Batch)),
        }
    }

    pub(crate) fn close(self) -> Result<()> {
        match self {
            SourceCore::Heap { .. } => Ok(()),
            SourceCore::Shared { mut op, .. } => op.close(),
        }
    }

    /// The heap file this source reads, if any — the coordinate
    /// scoped fault injection keys morsel-panic draws on (shared
    /// operator sources have no file attribution).
    pub(crate) fn file_id(&self) -> Option<smooth_storage::FileId> {
        match self {
            SourceCore::Heap { heap, .. } => Some(heap.file_id()),
            SourceCore::Shared { .. } => None,
        }
    }
}

/// An opened source: the locked core plus (for heap sources) the
/// compiled filter each worker's thread-local decoder clones.
pub(crate) type OpenedSource = (SourceCore, Option<ScanFilter>);

/// Open a [`ParallelSource`] into its locked core plus (for heap
/// sources) the thread-local decoders' filter.
pub(crate) fn open_source(source: ParallelSource, morsel_rows: usize) -> Result<OpenedSource> {
    match source {
        ParallelSource::Heap { heap, predicate, readahead, cols } => {
            let filter = ScanFilter::with_output(predicate, heap.schema(), cols.as_deref())?;
            Ok((SourceCore::Heap { heap, next: 0, readahead: readahead.max(1) }, Some(filter)))
        }
        ParallelSource::Shared { mut op } => {
            op.open()?;
            Ok((SourceCore::Shared { op, max: morsel_rows.max(1) }, None))
        }
    }
}

/// Thread-local decode state for the partitioned heap source.
pub(crate) struct HeapDecoder {
    filter: ScanFilter,
    /// Rows the previous morsel produced: the next one is sized from it.
    last_rows: Option<usize>,
}

impl HeapDecoder {
    pub(crate) fn new(filter: ScanFilter) -> Self {
        HeapDecoder { filter, last_rows: None }
    }

    fn decode(&mut self, storage: &Storage, pages: &[(PageId, PageBuf)]) -> Result<ColumnBatch> {
        // The per-page buffer-pool probe CPU for this run is charged
        // here, on the decoding worker, not inside the source lock —
        // see [`Storage::charge_page_probes`]. Totals stay equal to the
        // serial scan (which charges beside its own `read_heap_run`
        // call) while the serialized source section holds only the
        // irreducible device I/O.
        storage.charge_page_probes(pages.len() as u64);
        // Size the morsel once instead of regrowing every vector by
        // doubling: the run's slot count bounds it, and the previous
        // morsel's yield (plus slack) predicts it under a filter.
        let slots = pages.iter().try_fold(0usize, |n, (_, page)| {
            PageView::new(page).map(|v| n + v.slot_count() as usize)
        })?;
        let rows = self.last_rows.map_or(slots, |n| (n + n / 8 + 16).min(slots));
        let mut out = ColumnBatch::with_capacity(self.filter.schema(), rows);
        let (s, mut tuples) = (&mut storage.session(), Vec::new());
        for (_, page) in pages {
            tuples.clear();
            PageView::new(page)?.tuples_into(&mut tuples)?;
            let (inspected, emitted) = self.filter.fill(&tuples, &mut out)?;
            s.charge_cpu(s.cpu().inspect_tuple_ns * inspected + s.cpu().emit_tuple_ns * emitted);
        }
        self.last_rows = Some(out.physical_rows());
        Ok(out)
    }
}

/// Run one source item through the worker's stage chain.
pub(crate) fn process_item(
    item: SourceItem,
    decoder: &mut Option<HeapDecoder>,
    stages: &[Stage],
    storage: &Storage,
) -> Result<ColumnBatch> {
    let mut batch = match item {
        SourceItem::Batch(batch) => batch,
        SourceItem::Pages(pages) => {
            let decoder = decoder
                .as_mut()
                .ok_or_else(|| Error::exec("heap source item reached a worker with no decoder"))?;
            decoder.decode(storage, &pages)?
        }
    };
    for stage in stages {
        batch = stage.apply(storage, batch)?;
    }
    Ok(batch)
}

/// One phase of a traced query — a hash-join build or the final probe
/// phase — as the scheduler ran it: its morsels' sections summed by
/// kind. All values are virtual nanoseconds off the shared clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct LedgerPhase {
    /// Source sections (I/O + in-lock CPU) — serialized on the source
    /// lock.
    pub src_ns: u64,
    /// Worker-side sections (decode, stages, the build's payload append
    /// or the exact partial aggregation) — these fan out across the
    /// pool.
    pub proc_ns: u64,
    /// Ordered-sink sections (the order-preserving aggregate fold when
    /// the merge is not exact, a root sort's spilled runs) — a second
    /// serialized resource. Zero for a phase with no sink: every build.
    pub sink_ns: u64,
}

impl LedgerPhase {
    /// The phase's makespan at `workers` workers: its longer serialized
    /// resource, or all of its work spread evenly over the pool.
    fn makespan_ns(&self, workers: usize) -> u64 {
        let all = self.src_ns + self.proc_ns + self.sink_ns;
        self.src_ns.max(self.sink_ns).max(all.div_ceil(workers.max(1) as u64))
    }
}

/// Summed makespan of `phases` at `workers` workers: each runs to
/// completion before the next starts.
fn phases_ns(phases: &[LedgerPhase], workers: usize) -> u64 {
    phases.iter().map(|p| p.makespan_ns(workers)).sum()
}

/// Virtual-clock ledger recorded by [`run_pipeline_traced`]: the
/// deterministic input to the scaling model, in the scheduler's own
/// shape — a serial prefix, the phases it ran to completion one after
/// another, a serial suffix.
#[derive(Debug, Default, Clone)]
pub struct ScalingLedger {
    /// Serial prefix: every source open (one per phase, as it starts).
    pub prefix_ns: u64,
    /// The build phases in build order, then the probe phase. The
    /// driver runs each to completion before the next starts, so the
    /// model barriers between them too.
    pub phases: Vec<LedgerPhase>,
    /// Serial suffix after the last morsel: the root sort sink's final
    /// pass ([`SinkSpec::Sort`]) — one thread, after every worker
    /// drained.
    pub suffix_ns: u64,
}

impl ScalingLedger {
    /// Total virtual time of the single-threaded run.
    pub fn total_ns(&self) -> u64 {
        let phases = self.phases.iter().map(|p| p.src_ns + p.proc_ns + p.sink_ns);
        self.prefix_ns + phases.sum::<u64>() + self.suffix_ns
    }

    /// Deterministic makespan of the pipeline at `workers` workers, in
    /// closed form: the serial prefix, then every phase behind its
    /// barrier — the longest of its serialized source, its serialized
    /// sink and its work spread evenly over the pool — then the serial
    /// suffix. At one worker it is [`ScalingLedger::total_ns`].
    pub fn makespan_ns(&self, workers: usize) -> u64 {
        self.prefix_ns + phases_ns(&self.phases, workers) + self.suffix_ns
    }

    /// Modeled speedup over the serial run.
    pub fn speedup(&self, workers: usize) -> f64 {
        self.total_ns() as f64 / self.makespan_ns(workers).max(1) as f64
    }

    /// Modeled speedup of the blocking build phases alone — what the
    /// partitioned parallel build buys over the serial build.
    pub fn build_speedup(&self, workers: usize) -> f64 {
        let builds = &self.phases[..self.phases.len().saturating_sub(1)];
        phases_ns(builds, 1) as f64 / phases_ns(builds, workers).max(1) as f64
    }
}

/// Deterministic makespan of several traced queries served concurrently
/// by one shared worker pool — the model behind the `serve`
/// experiment's cross-query scheduling gate: no query finishes before
/// its solo makespan, and the pool runs their summed work no faster
/// than spread evenly over every worker. One query's is its
/// [`ScalingLedger::makespan_ns`].
pub fn multi_query_makespan_ns(ledgers: &[ScalingLedger], workers: usize) -> u64 {
    let solo = ledgers.iter().map(|l| l.makespan_ns(workers)).max().unwrap_or(0);
    let total: u64 = ledgers.iter().map(ScalingLedger::total_ns).sum();
    solo.max(total.div_ceil(workers.max(1) as u64))
}

impl ParallelPipeline {
    /// The plan-time walk of every stage chain — build side and probe
    /// side alike: each phase's staged output schema (projections
    /// prune, probes splice in the probed build's payload schema), in
    /// phase order. Every plan error a pipeline can carry surfaces
    /// here, before anything is queued: a probe of a build that is not
    /// built yet (nested probes may only reference *earlier* phases), a
    /// bad projection, a build key or an aggregate column out of range,
    /// a phase list that is not builds-then-sink.
    pub fn staged_schemas(&self) -> Result<Vec<Schema>> {
        let mut schemas: Vec<Schema> = Vec::with_capacity(self.phases.len());
        for (i, phase) in self.phases.iter().enumerate() {
            let mut schema = phase.source.schema()?;
            for stage in &phase.stages {
                match stage {
                    StageSpec::Filter(_) => {}
                    StageSpec::Project(cols) => schema = schema.project(cols)?,
                    StageSpec::Probe(b) => {
                        let build = self.phases[..i].get(*b).and_then(|p| p.build.as_ref());
                        let build = build.ok_or_else(|| {
                            Error::plan(format!(
                                "probe stage references build {b} before it is built"
                            ))
                        })?;
                        schema = join_schema(&schema, &schemas[*b], build.ty)
                            .narrow(build.emit.as_deref())?;
                    }
                }
            }
            match &phase.build {
                Some(build) if build.right_col >= schema.len() => {
                    return Err(Error::plan(format!(
                        "hash-join build key column {} out of range",
                        build.right_col
                    )));
                }
                build if build.is_some() == (i + 1 == self.phases.len()) => {
                    return Err(Error::plan(
                        "every phase but the last builds a table; the last feeds the sink",
                    ));
                }
                _ => {}
            }
            schemas.push(schema);
        }
        match (&self.sink, schemas.last()) {
            (_, None) => Err(Error::plan("a pipeline needs the phase that feeds its sink")),
            // Validates exactly like `HashAggregate::new`.
            (SinkSpec::Aggregate { group_cols, aggs }, Some(input)) => {
                crate::agg::output_schema(input, group_cols, aggs).map(|_| schemas)
            }
            _ => Ok(schemas),
        }
    }
}

/// Resolve a stage-spec chain into runtime stages against the built
/// probe tables, tracking the running schema so each probe stage knows
/// its gathered output typing. Build-side chains pass the tables of
/// earlier builds; the main pipeline passes all of them.
pub(crate) fn resolve_stages(
    specs: &[StageSpec],
    mut schema: Schema,
    tables: &[Arc<ProbeTable>],
) -> Result<Vec<Stage>> {
    let mut resolved = Vec::with_capacity(specs.len());
    for spec in specs {
        match spec {
            StageSpec::Filter(p) => resolved.push(Stage::Filter(p.clone())),
            StageSpec::Project(cols) => {
                schema = schema.project(cols)?;
                resolved.push(Stage::Project(cols.clone()));
            }
            StageSpec::Probe(i) => {
                let table = tables.get(*i).ok_or_else(|| {
                    Error::plan(format!("probe stage references build {i} before it is built"))
                })?;
                schema = join_schema(&schema, table.table.schema(), table.ty)
                    .narrow(table.emit.as_deref())?;
                resolved.push(Stage::Probe(Arc::clone(table), schema.clone()));
            }
        }
    }
    Ok(resolved)
}

/// Execute the pipeline as the sole query of an ephemeral
/// `workers`-thread [`crate::Scheduler`]. Returns the result rows,
/// byte-identical to [`crate::collect_rows`] over the equivalent serial
/// operator tree.
pub fn run_pipeline(pipeline: ParallelPipeline, workers: usize) -> Result<Vec<Row>> {
    Ok(crate::schedule::run_solo(pipeline, workers, false)?.0.into_rows())
}

/// One-worker execution that also records the
/// [`ScalingLedger`] for the deterministic scaling model.
pub fn run_pipeline_traced(pipeline: ParallelPipeline) -> Result<(Vec<Row>, ScalingLedger)> {
    let (out, ledger) = crate::schedule::run_solo(pipeline, 1, true)?;
    Ok((out.into_rows(), ledger))
}

// Compile-time Send audit: everything a worker thread touches.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Stage>();
    assert_send::<Storage>();
    assert_send::<BoxedOperator>();
    assert_send::<JoinBuildPartial>();
    assert_send::<JoinBuildTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use crate::{batch_size, Filter, FullTableScan, HashAggregate, HashJoin, Project};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Value};

    fn table(rows: i64) -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
            Column::new("f", DataType::Float64),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            let pad = Value::str("x".repeat(30));
            loader
                .push(&Row::new(vec![
                    Value::Int(i),
                    Value::Int(c1),
                    pad,
                    Value::Float(i as f64 * 0.3),
                ]))
                .unwrap();
        }
        Arc::new(loader.finish().unwrap())
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 64,
        })
    }

    /// A shared-source build phase over `rows`, under the default budget.
    fn values_build(
        schema: &Schema,
        rows: &[Row],
        right_col: usize,
        left_col: usize,
        ty: JoinType,
    ) -> PhaseSpec {
        let mem_bytes = crate::spill::mem_budget_bytes();
        PhaseSpec {
            source: ParallelSource::Shared {
                op: Box::new(ValuesOp::new(schema.clone(), rows.to_vec())),
            },
            stages: Vec::new(),
            build: Some(PhaseBuild { right_col, left_col, ty, mem_bytes, emit: None }),
        }
    }

    fn heap_source(heap: &Arc<HeapFile>, predicate: Predicate) -> ParallelSource {
        let readahead = crate::scan::FULL_SCAN_READAHEAD;
        ParallelSource::Heap { heap: Arc::clone(heap), predicate, readahead, cols: None }
    }

    /// `builds`, then a heap scan of `heap` through `stages` into a
    /// collect sink.
    fn heap_pipeline(
        heap: &Arc<HeapFile>,
        s: &Storage,
        mut builds: Vec<PhaseSpec>,
        stages: Vec<StageSpec>,
    ) -> ParallelPipeline {
        builds.push(PhaseSpec { source: heap_source(heap, Predicate::True), stages, build: None });
        ParallelPipeline {
            phases: builds,
            sink: SinkSpec::Collect,
            storage: s.clone(),
            morsel_rows: batch_size(),
        }
    }

    /// A heap-source build phase on `c1` under a `mem_bytes` budget (0
    /// — unbudgeted — for the ledger tests: spill I/O is charged
    /// outside the per-morsel sections they reconcile to the clock).
    fn heap_build(
        heap: &Arc<HeapFile>,
        pred: Predicate,
        ty: JoinType,
        mem_bytes: usize,
    ) -> PhaseSpec {
        PhaseSpec {
            source: heap_source(heap, pred),
            stages: Vec::new(),
            build: Some(PhaseBuild { right_col: 1, left_col: 1, ty, mem_bytes, emit: None }),
        }
    }

    /// Trace `make`'s pipeline under a collect, an ordered-fold
    /// aggregate and a sort sink — between them every sink-side ledger
    /// field is exercised — and hand `check` each ledger once it
    /// reconciles with the clock of the run it traced: a trace site
    /// missing from the scheduler fails here.
    fn traced_under_each_sink(
        make: impl Fn(&Storage) -> ParallelPipeline,
        check: impl Fn(&ScalingLedger),
    ) {
        for sink in [
            SinkSpec::Collect,
            // A float sum never merges exactly: the ordered fold.
            SinkSpec::Aggregate {
                group_cols: vec![1],
                aggs: vec![AggFunc::CountStar, AggFunc::Sum(3)],
            },
            SinkSpec::Sort { keys: vec![crate::sort::SortKey::asc(1)], mem_bytes: 0 },
        ] {
            let folds = matches!(sink, SinkSpec::Aggregate { .. });
            let sorts = matches!(sink, SinkSpec::Sort { .. });
            let s = storage();
            let (rows, ledger) =
                run_pipeline_traced(ParallelPipeline { sink, ..make(&s) }).unwrap();
            assert!(!rows.is_empty());
            let probe = ledger.phases.last().expect("the probe phase is always recorded");
            assert!(probe.src_ns > 0);
            assert_eq!(ledger.total_ns(), s.clock().snapshot().total_ns(), "ledger vs clock");
            assert_eq!(probe.sink_ns > 0, folds, "ordered-sink sections");
            assert_eq!(ledger.suffix_ns > 0, sorts, "sort suffix");
            // One worker's makespan is exactly the serial total.
            assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
            check(&ledger);
        }
    }

    #[test]
    fn heap_source_matches_serial_scan_rows_and_clock() {
        let heap = table(3000);
        let pred = Predicate::int_half_open(1, 0, 300);
        let s_serial = storage();
        let mut op = Filter::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            pred.clone(),
        );
        let expected = collect_rows(&mut op).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            let pipeline =
                heap_pipeline(&heap, &s_par, Vec::new(), vec![StageSpec::Filter(pred.clone())]);
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(
                s_par.clock().snapshot(),
                s_serial.clock().snapshot(),
                "clock totals diverge at {workers} workers"
            );
            assert_eq!(s_par.io_snapshot(), s_serial.io_snapshot());
        }
    }

    #[test]
    fn shared_source_matches_serial_stack() {
        let heap = table(2500);
        let pred = Predicate::int_half_open(1, 100, 700);
        let s_serial = storage();
        let mut op = Project::new(
            Box::new(Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                pred.clone(),
            )),
            vec![1, 0],
        )
        .unwrap();
        let expected = collect_rows(&mut op).unwrap();
        for workers in [1usize, 3, 8] {
            let s_par = storage();
            let scan = FullTableScan::new(Arc::clone(&heap), s_par.clone(), Predicate::True);
            let pipeline = ParallelPipeline {
                phases: vec![PhaseSpec {
                    source: ParallelSource::Shared { op: Box::new(scan) },
                    stages: vec![StageSpec::Filter(pred.clone()), StageSpec::Project(vec![1, 0])],
                    build: None,
                }],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: batch_size(),
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn probe_stage_matches_serial_hash_join() {
        let heap = table(1200);
        let right_rows: Vec<Row> =
            (0..500).map(|i| Row::new(vec![Value::Int((i * 7) % 1000), Value::Int(i)])).collect();
        let right_schema = Schema::new(vec![
            Column::new("rk", DataType::Int64),
            Column::new("rv", DataType::Int64),
        ])
        .unwrap();
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let s_serial = storage();
            let mut hj = HashJoin::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
                1,
                0,
                ty,
                s_serial.clone(),
            );
            let expected = collect_rows(&mut hj).unwrap();
            for workers in [1usize, 2, 4] {
                let s_par = storage();
                let builds = vec![values_build(&right_schema, &right_rows, 0, 1, ty)];
                let pipeline = heap_pipeline(&heap, &s_par, builds, vec![StageSpec::Probe(0)]);
                let got = run_pipeline(pipeline, workers).unwrap();
                assert_eq!(got, expected, "{ty:?} rows diverge at {workers} workers");
                assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot(), "{ty:?}");
            }
        }
    }

    #[test]
    fn parallel_build_over_heap_source_matches_serial_hash_join() {
        // The build side is itself a pipeline: heap source + filter
        // stage, drained by the partitioned parallel build.
        let probe = table(800);
        let build = table(1500);
        let pred = Predicate::int_half_open(1, 0, 400);
        let s_serial = storage();
        let mut hj = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), pred.clone())),
            1,
            1,
            JoinType::Inner,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut hj).unwrap();
        assert!(!expected.is_empty());
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            // The serial `HashJoin` above runs under the default budget.
            let mem_bytes = crate::spill::mem_budget_bytes();
            let builds = vec![heap_build(&build, pred.clone(), JoinType::Inner, mem_bytes)];
            let pipeline = heap_pipeline(&probe, &s_par, builds, vec![StageSpec::Probe(0)]);
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
            assert_eq!(s_par.io_snapshot(), s_serial.io_snapshot());
        }
    }

    #[test]
    fn exact_partial_aggregate_matches_serial() {
        let heap = table(2000);
        let group_cols = vec![1usize];
        let aggs = vec![AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Min(0), AggFunc::Max(0)];
        let s_serial = storage();
        let mut agg = HashAggregate::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut agg).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            let mut pipeline = heap_pipeline(&heap, &s_par, Vec::new(), Vec::new());
            pipeline.sink =
                SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "groups diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn ordered_float_aggregate_matches_serial_fold() {
        // Float sums must fold in morsel order on the sink: assert the
        // parallel result is byte-identical to the serial driver.
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int64),
            Column::new("v", DataType::Float64),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("f", schema.clone());
        for i in 0..1500i64 {
            let v = (i as f64) * 0.3 + 0.1234567 * ((i % 7) as f64);
            loader.push(&Row::new(vec![Value::Int(i % 13), Value::Float(v)])).unwrap();
        }
        let heap = Arc::new(loader.finish().unwrap());
        let group_cols = vec![0usize];
        let aggs = vec![AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::CountStar];
        let s_serial = storage();
        let mut agg = HashAggregate::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut agg).unwrap();
        for workers in [1usize, 2, 4] {
            let s_par = storage();
            let mut pipeline = heap_pipeline(&heap, &s_par, Vec::new(), Vec::new());
            pipeline.sink =
                SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "float fold diverges at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let heap = table(500);
        let s = storage();
        // Probing a column past the schema errors (the serial columnar
        // HashJoin reports the same).
        let pipeline = heap_pipeline(
            &heap,
            &s,
            Vec::new(),
            vec![StageSpec::Filter(Predicate::StrEq { col: 1, value: "x".into() })],
        );
        assert!(run_pipeline(pipeline, 4).is_err());
        // One worker is the same driver, fault site and containment
        // included: a morsel panic injected on the probe heap — after
        // the build phase ran, and under a budget spilled — comes back
        // as a typed error.
        use smooth_storage::FaultConfig;
        let build = table(1500);
        let spent = [0usize, 1024].map(|mem_bytes| {
            let s = storage();
            s.set_faults(Some(FaultConfig::new(11).panic(1.0).scope_to_file(heap.file_id())));
            let builds = vec![heap_build(&build, Predicate::True, JoinType::Inner, mem_bytes)];
            let pipeline = heap_pipeline(&heap, &s, builds, vec![StageSpec::Probe(0)]);
            let err = run_pipeline(pipeline, 1).unwrap_err();
            assert!(matches!(&err, Error::Exec(m) if m.contains("injected worker panic")), "{err}");
            s.clock().snapshot().io_ns
        });
        assert!(spent[1] > spent[0], "the budgeted build spilled before the probe panicked");
    }

    #[test]
    fn build_side_errors_propagate() {
        let heap = table(400);
        let right_schema = Schema::new(vec![Column::new("rk", DataType::Int64)]).unwrap();
        for workers in [1usize, 4] {
            let s = storage();
            // Build key 9 is out of range: must surface as a plan error.
            let rows = [Row::new(vec![Value::Int(1)])];
            let builds = vec![values_build(&right_schema, &rows, 9, 1, JoinType::Inner)];
            let pipeline = heap_pipeline(&heap, &s, builds, vec![StageSpec::Probe(0)]);
            assert!(run_pipeline(pipeline, workers).is_err(), "{workers} workers");
        }
    }

    #[test]
    fn ledger_model_is_consistent() {
        let heap = table(3000);
        let filter = vec![StageSpec::Filter(Predicate::int_lt(1, 500))];
        traced_under_each_sink(
            |s| heap_pipeline(&heap, s, Vec::new(), filter.clone()),
            |ledger| {
                // More workers never slow the model down, and speedup is
                // bounded by the serialized source.
                let m2 = ledger.makespan_ns(2);
                let m4 = ledger.makespan_ns(4);
                assert!(m2 <= ledger.makespan_ns(1));
                assert!(m4 <= m2);
                assert_eq!(ledger.phases.len(), 1, "no builds: the probe phase alone");
                assert!(m4 >= ledger.phases[0].src_ns, "source sections serialize");
                assert!(ledger.speedup(4) >= 1.0);
            },
        );
    }

    #[test]
    fn multi_query_model_reduces_to_single_query_chains() {
        let heap = table(3000);
        let s = storage();
        let filter = vec![StageSpec::Filter(Predicate::int_lt(1, 500))];
        let pipeline = heap_pipeline(&heap, &s, Vec::new(), filter);
        let (_, ledger) = run_pipeline_traced(pipeline).unwrap();
        for workers in [1usize, 2, 4] {
            // One query: the multi-query schedule IS the single-query one.
            assert_eq!(
                multi_query_makespan_ns(std::slice::from_ref(&ledger), workers),
                ledger.makespan_ns(workers),
                "single-query equivalence at {workers} workers"
            );
        }
        // Serving two copies concurrently on 4 workers beats (or ties)
        // running them one at a time — cross-query scheduling fills the
        // source-lock stalls with the other query's work.
        let solo_chain = 2 * ledger.makespan_ns(4);
        let served = multi_query_makespan_ns(&[ledger.clone(), ledger.clone()], 4);
        assert!(served <= solo_chain, "served {served} > chained {solo_chain}");
        // And never beats the total-work lower bound on the serialized
        // per-query source chains.
        assert!(served >= ledger.phases[0].src_ns + ledger.prefix_ns);
    }

    #[test]
    fn traced_build_sections_feed_the_model() {
        let probe = table(1000);
        let build = table(2000);
        traced_under_each_sink(
            |s| {
                let builds = vec![heap_build(&build, Predicate::True, JoinType::Inner, 0)];
                heap_pipeline(&probe, s, builds, vec![StageSpec::Probe(0)])
            },
            |ledger| {
                let [build, probe] = &ledger.phases[..] else {
                    panic!("one build phase, then the probe phase: {ledger:?}");
                };
                assert!(build.src_ns > 0 && build.proc_ns > 0, "build morsels recorded");
                assert_eq!(build.sink_ns, 0, "a build has no ordered sink");
                assert!(probe.src_ns > 0 && probe.proc_ns > 0, "probe morsels recorded");
                assert!(ledger.build_speedup(1) == 1.0);
                assert!(ledger.build_speedup(4) >= 1.0);
                assert!(ledger.makespan_ns(4) <= ledger.makespan_ns(2));
            },
        );
    }

    #[test]
    fn multi_build_ledger_barriers_between_builds() {
        // Two chained probes: each build runs to completion before the
        // next starts, and the model must barrier the same way.
        let probe = table(800);
        let build_a = table(1200);
        let build_b = table(1200);
        let chained = |s: &Storage| {
            let pred = Predicate::int_half_open(1, 0, 40);
            let builds = [&build_a, &build_b]
                .map(|heap| heap_build(heap, pred.clone(), JoinType::LeftSemi, 0));
            heap_pipeline(&probe, s, builds.into(), vec![StageSpec::Probe(0), StageSpec::Probe(1)])
        };
        traced_under_each_sink(chained, |ledger| {
            let [a, b, probe] = &ledger.phases[..] else {
                panic!("one phase per build, then the probe phase: {ledger:?}");
            };
            assert!(a.src_ns > 0 && b.src_ns > 0, "both builds recorded");
            assert!(ledger.makespan_ns(4) >= merged_builds(ledger, *probe).makespan_ns(4));
        });
        // The parallel runs still match serial with chained builds.
        let serial_rows = run_pipeline(chained(&storage()), 1).unwrap();
        for workers in [2usize, 4] {
            let got = run_pipeline(chained(&storage()), workers).unwrap();
            assert_eq!(got, serial_rows, "chained builds diverge at {workers} workers");
        }
    }

    /// `ledger` with its first two phases (both builds) merged into one
    /// barrier-free phase ahead of `probe`.
    fn merged_builds(ledger: &ScalingLedger, probe: LedgerPhase) -> ScalingLedger {
        let [a, b, ..] = ledger.phases[..] else { panic!("two builds: {ledger:?}") };
        let merged = LedgerPhase {
            src_ns: a.src_ns + b.src_ns,
            proc_ns: a.proc_ns + b.proc_ns,
            sink_ns: a.sink_ns + b.sink_ns,
        };
        ScalingLedger { phases: vec![merged, probe], ..ledger.clone() }
    }

    #[test]
    fn hand_built_ledger_obeys_the_closed_form_laws() {
        // Two builds, then a probe phase whose ordered sink folds over
        // four morsels (4, 0, 4, 0 ns). Execution folds on the delivering
        // worker, so one worker's makespan is the serial total even then.
        let build = |src_ns, proc_ns| LedgerPhase { src_ns, proc_ns, sink_ns: 0 };
        let probe = LedgerPhase { src_ns: 2 * 4, proc_ns: 9 + 1 + 9 + 1, sink_ns: 4 + 4 };
        let ledger = ScalingLedger {
            prefix_ns: 7,
            phases: vec![build(3 * 5, 40 + 10 + 30), build(40 * 3, (1..=40).sum()), probe],
            suffix_ns: 11,
        };
        assert_eq!(ledger.total_ns(), 1089);
        assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
        let floor: u64 = ledger.phases.iter().map(|p| p.src_ns.max(p.sink_ns)).sum();
        for w in 1..=16 {
            let m = ledger.makespan_ns(w);
            assert!(ledger.makespan_ns(w + 1) <= m, "non-increasing at {w} workers");
            assert!(m >= ledger.prefix_ns + floor + ledger.suffix_ns, "serial floor at {w}");
            assert_eq!(multi_query_makespan_ns(std::slice::from_ref(&ledger), w), m);
            assert!(m >= merged_builds(&ledger, probe).makespan_ns(w), "barriers at {w}");
        }
        assert_eq!(ledger.build_speedup(1), 1.0);
        assert!(ledger.makespan_ns(4) < ledger.total_ns());
    }
}
