//! The engine-global multi-query morsel scheduler.
//!
//! Before the engine-global refactor the worker pool belonged to a
//! single pipeline run: threads were spawned per query and died with
//! it. Here the pool belongs to a persistent [`Scheduler`] — the
//! database engine's one worker pool — and *queries* come and go:
//! [`Scheduler::submit`] plans a [`ParallelPipeline`] into an
//! `ActiveQuery` (a self-contained phase state machine) and queues it;
//! admission — on a worker, never on the submitting thread — caps how
//! many run at once (FIFO beyond `max_queries`), and every worker pulls
//! morsels from whichever admitted query has work, round-robin offset
//! by worker index so no query starves.
//!
//! **What is shared and what is per-query.** The storage engine
//! (buffer pool, disk-arm tracker, virtual clock) is engine-global:
//! concurrent queries contend for pool frames and perturb each other's
//! seq/random classification exactly as concurrent backends do on one
//! disk. Everything that determines *results* is per-query: the morsel
//! source and its lock, the sequence numbers, the build tables, the
//! sink/merge state. That split keeps the core invariant intact —
//! result rows are byte-identical to the serial driver regardless of
//! worker count, interleaving, or what else is running — while clock
//! and I/O counters stay byte-identical to serial only when the query
//! runs alone (concurrent queries genuinely share the arm and the
//! pool, so their accounting legitimately interleaves).
//!
//! **Per-query attribution** rides on the thread-local tap
//! ([`smooth_storage::tap_mark`]): all charged page traffic happens on
//! the claiming worker's thread inside the query's source lock, so
//! bracketing each unit of work with a mark/delta pair attributes
//! pages, requests, hits and tuple flow to exactly one query even
//! under full concurrency. Workers also time waiting for and holding
//! each query's source lock and processing its morsels on the wall clock
//! ([`ScanStatistics`]' `lock_wait_ns`, `src_hold_ns` and `proc_ns` —
//! informational; the scaling model reads [`crate::ScalingLedger`]'s
//! virtual clock).
//!
//! **One morsel per claim.** A worker visiting a query (`try_work`)
//! takes the query's source lock, pulls one morsel — charging its pull
//! I/O in exact serial seq order — releases the lock and processes the
//! morsel itself (`claim`, then `process_pending`). A claimed morsel
//! counts in `inflight` until it is processed, so a phase cannot
//! finalize under it; a failed or cancelled query stops claiming at
//! its next claim and discards what was already claimed at process
//! time. See `docs/scheduler_v2.md`.
//!
//! **The `ActiveQuery` phase state machine.** A query is one list of
//! phases ([`PhaseSpec`]) in the order the operator tree finishes them,
//! and moves through it front to back, `0 → … → n → finalized`, tracked
//! by the `SrcState` under the source lock (which phase the current
//! source feeds, the claim seq, and the end-of-source latch). Every
//! phase is the same thing: a source, a stage chain and the one sink its
//! morsels fold into in seq order — a build's table, a sorter, an
//! aggregate fold or the result batches — reset when the phase is
//! installed. The phase's index is its identity everywhere — in claimed
//! morsels, in the ledger, in the morsel-panic key. **A source opens
//! when its phase is installed** (`install_phase`) and closes when the
//! phase finalizes, so a query has at most one source open at a time,
//! in phase order — the order the operator tree opens its leaves in:
//! [`crate::HashJoin`] builds before it opens its probe side, a `Sort`
//! or `HashAggregate` drains its input in `open`. Admission installs
//! phase 0; when the last in-flight morsel of phase `i` lands, the
//! finalizing worker closes its source and marks the phase finalized
//! under the source lock, then — outside it, so a worker reaching the
//! query meanwhile moves on to other queries — runs `end_phase`: the
//! tables the phase probed settled, then the table the sink filled — by
//! the serial build's own [`crate::JoinBuildTable::insert_batch`] calls,
//! in the same order — budgeted and set on its phase, where later probe
//! stages read it without a lock, or the fold's final pass run into
//! batches: what phase `i + 1`'s [`ParallelSource::Output`] hands out
//! once that phase is installed, or after the last phase the query's
//! result. A query that fails in phase `i` never opens a later source.
//! [`ParallelPipeline::staged_schemas`] validates and types every chain
//! and sink at plan time, so plan errors surface before the query is
//! queued, and the workers run the planner's [`StageSpec`]s with those
//! schemas. A plan with nothing to fan out is one phase whose source is
//! the whole tree ([`ParallelSource::Shared`]).
//!
//! **Trace sites.** [`crate::run_pipeline_traced`] runs a query solo
//! on a one-worker pool with its trace on, and the scheduler fills the
//! [`crate::ScalingLedger`] — the scaling model's input — from
//! virtual-clock snapshots at the sites every query passes through.
//! The ledger has the scheduler's shape — one
//! [`crate::LedgerPhase`] per phase, indexed like the query's own
//! list — and every site adds into its own phase by index:
//! `install_phase` (the phase's source opens: summed into
//! `prefix_ns`), each `pull` in `claim` (`src_ns`),
//! `ActiveQuery::process` (`proc_ns`, and `sink_ns` for the ordered
//! sink's fold) and each fold's final pass in `finish_fold` (summed into
//! `suffix_ns`). The clock is
//! engine-global, so a trace means something only on one worker with
//! nothing else running on the same storage; an untraced query pays one
//! `Option` test per site — no snapshot, no lock.
//!
//! **The slot pool and the `(seq, idx)` MIN rule.** An exact-merge
//! aggregate's partial folds live in a per-query *slot pool*, emptied
//! when its phase finishes: a worker
//! pops a slot, folds its morsel, and pushes the slot back — slots are
//! not pinned to threads, so one slot can fold seq 3 before seq 2. A
//! slot that outgrows a cache-sized table splits into hash partitions
//! and from then on routes each row by the top bits of its key hash, so
//! a group lives in the same partition of every split slot (the merge
//! splits the others first). The merge makes any slot↔morsel assignment byte-identical; for
//! grouped aggregates that rests on the `(seq, idx)` MIN rule: every
//! fold minimizes a group's first-seen position `(morsel seq, row idx)`
//! on *every* row, and the merge — each slot's partition `p` into the
//! first slot's partition `p`, in `finish_fold` on one thread —
//! minimizes across partials, so the recorded position equals the
//! global first occurrence. The groups are then placed in that order by
//! counting, not comparing: a deterministic group order regardless of
//! fold order, partition or worker count.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use smooth_storage::{tap_mark, ClockSnapshot, FileId, InjectedPanic, ScanStatistics, Storage};
use smooth_types::{ColumnBatch, ColumnBuffer, Error, Result, Row, Schema};

use crate::agg::GroupFold;
use crate::extsort::ExternalSorter;
use crate::join::JoinBuildTable;
use crate::parallel::{
    LedgerPhase, ParallelPipeline, ParallelSource, PartialAgg, PhaseSpec, ScalingLedger, SinkSpec,
    SourceItem, StageSpec,
};
use crate::FullTableScan;

/// A completed query: its result plus the per-query scan statistics
/// accumulated from the worker-side tap deltas.
///
/// Every sink stays *columnar* — the ordered morsels, the finished
/// groups or the sorted morsels land in `batches` and no `Row`
/// materializes inside the scheduler. Call [`QueryOutput::into_rows`]
/// to materialize at the user-facing boundary.
#[derive(Debug)]
pub struct QueryOutput {
    /// Columnar result batches (Collect sinks in serial morsel order;
    /// aggregate sinks in first-seen group order, cut into morsels; sort
    /// sinks in key order, byte-identical to the serial `Sort`'s).
    pub batches: Vec<ColumnBatch>,
    /// Per-query scan/flow counters (`rows_total` is stamped by the
    /// planner, which knows catalog cardinalities).
    pub stats: ScanStatistics,
}

impl QueryOutput {
    /// Total result rows without materializing anything.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    /// `true` when the query produced no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the result as rows — the row boundary for callers
    /// that want the classic `Vec<Row>`.
    pub fn into_rows(self) -> Vec<Row> {
        self.batches.into_iter().flat_map(ColumnBatch::into_rows).collect()
    }
}

/// The submitting session's end of a query: blocks until the worker
/// pool finishes it, and can cancel it.
pub struct QueryHandle {
    rx: Receiver<Result<QueryOutput>>,
    query: Arc<ActiveQuery>,
    core: Arc<SchedCore>,
}

impl QueryHandle {
    /// Wait for the query to finish (or fail).
    pub fn wait(self) -> Result<QueryOutput> {
        self.rx.recv().map_err(|_| Error::exec("scheduler shut down before the query completed"))?
    }

    /// Cancel the query: it fails with [`Error::Cancelled`] at its
    /// next morsel boundary (running queries) or immediately (queries
    /// still waiting for admission), releasing everything it holds
    /// through the same cleanup path as any other failure. Cancelling
    /// a completed query is a no-op; [`QueryHandle::wait`] still
    /// returns whatever the query produced first.
    pub fn cancel(&self) {
        self.query.cancelled.store(true, Ordering::Release);
        let was_waiting = {
            let mut st = lock(&self.core.state);
            let before = st.waiting.len();
            st.waiting.retain(|w| !Arc::ptr_eq(w, &self.query));
            st.epoch += 1;
            before != st.waiting.len()
        };
        // Wake sleeping workers so an idle pool notices the flag.
        self.core.cv.notify_all();
        if was_waiting {
            self.query.record_err(0, Error::Cancelled);
            complete_err(&self.query, &self.core);
        }
    }
}

/// The serialized heart of a query: its morsel source, pulled under
/// one lock in sequence order so all charged I/O happens in exactly
/// the serial order. One `SrcState` per *phase*; advancing a phase
/// installs a fresh one (seq restarts at 0, matching the serial
/// drivers' per-phase numbering).
#[derive(Default)]
struct SrcState {
    /// The phase's opened source, until the phase finalizes.
    source: Option<ParallelSource>,
    /// Idle inspectors of a heap source: a claim pops one (or copies a
    /// fresh one off the source) for its page run, and a clean inspection
    /// returns it.
    inspectors: Vec<FullTableScan>,
    /// What an [`ParallelSource::Output`] source hands out.
    output: std::vec::IntoIter<ColumnBatch>,
    seq: u64,
    done: bool,
    finalized: bool,
    /// Index into [`ActiveQuery::phases`] of the phase this source feeds.
    phase: usize,
}

/// One validated phase of a query: a morsel source drained through a
/// stage chain into its sink.
struct Phase {
    /// The unopened source, taken — and opened — when the phase starts.
    source: Mutex<Option<ParallelSource>>,
    /// The planner's stage chain, each stage beside the schema it emits
    /// (a probe gathers into it). A probe stage reads an earlier phase's
    /// `table` — validated at plan time.
    stages: Vec<(StageSpec, Schema)>,
    /// The staged output schema: what every morsel of this phase
    /// conforms to after its last stage — a build table's payload
    /// typing, the aggregate sink's input typing.
    schema: Schema,
    sink: SinkSpec,
    /// An aggregate sink that merges exactly over `schema`
    /// ([`crate::AggFunc::merge_exact`]): workers fold partial slots.
    merge_exact: bool,
    /// A build's finished table, set before any later phase starts.
    table: OnceLock<JoinBuildTable>,
}

/// The current phase's order-preserving sink: morsels buffer in a
/// seq-keyed map and fold in sequence order, exactly as the operator
/// tree emits them. [`install_phase`] resets it for each phase.
#[derive(Default)]
struct SinkState {
    pending: BTreeMap<u64, ColumnBatch>,
    next: u64,
    /// What the phase's morsels fold into ([`ActiveQuery::fold_for`]);
    /// `None` for an exact-merge aggregate and once the fold is taken.
    fold: Option<Fold>,
}

/// The one target an ordered sink folds each morsel into.
enum Fold {
    /// A build phase's table; `end_phase` takes it.
    Build(JoinBuildTable),
    /// A collect sink's result batches.
    Batches(Vec<ColumnBatch>),
    /// The in-order aggregation fold (non-exact merges only): the
    /// serial `HashAggregate`'s own, fed the same morsels in the same order.
    Aggregate(GroupFold),
    /// A sort's sorter; `finish_fold` finishes it.
    Sort(ExternalSorter),
}

/// One claimed-but-unprocessed morsel. Claiming charges the pull I/O in
/// serial seq order under the source lock; everything here is the
/// charge-free remainder (inspect and stage CPU), so whichever worker
/// claimed it processes it with byte-identical accounting.
struct Pending {
    phase: usize,
    seq: u64,
    item: SourceItem,
    /// Source file for the morsel-panic fault site.
    file: Option<FileId>,
}

/// One admitted query: a self-contained phase state machine the worker
/// pool drives. Everything result-bearing is per-query state here; the
/// only engine-global state a query touches is [`Storage`].
struct ActiveQuery {
    storage: Storage,
    morsel_rows: usize,
    /// Every build's and every sort's memory budget.
    mem_bytes: usize,
    /// The phases in order, the last feeding the result. The index is
    /// the phase's identity everywhere: in `SrcState`, in claimed
    /// morsels, in the ledger.
    phases: Vec<Phase>,
    src: Mutex<SrcState>,
    sink: Mutex<SinkState>,
    /// The exact-merge aggregate's slot pool (see module docs).
    agg_slots: Mutex<Vec<PartialAgg>>,
    /// Morsels claimed but not yet delivered in the current phase.
    inflight: AtomicUsize,
    failed: AtomicBool,
    /// Set by [`QueryHandle::cancel`]; noticed at morsel boundaries.
    cancelled: AtomicBool,
    /// Virtual-clock deadline in total-ns (0 = none), stamped at
    /// admission from the scheduler's query timeout.
    deadline_ns: AtomicU64,
    /// First error by morsel seq (the serial driver would have hit the
    /// lowest-seq failure first).
    err: Mutex<Option<(u64, Error)>>,
    stats: Mutex<ScanStatistics>,
    lock_wait_ns: AtomicU64,
    src_hold_ns: AtomicU64,
    proc_ns: AtomicU64,
    done_tx: Mutex<Option<Sender<Result<QueryOutput>>>>,
    /// The virtual-clock ledger, recorded only for
    /// [`run_solo`]'s traced run (see the module docs).
    trace: Option<Mutex<ScalingLedger>>,
}

impl ActiveQuery {
    /// Validate and decompose a pipeline. All plan errors surface here,
    /// before the query is ever queued.
    fn plan(
        pipeline: ParallelPipeline,
        tx: Sender<Result<QueryOutput>>,
        traced: bool,
    ) -> Result<ActiveQuery> {
        let schemas = pipeline.staged_schemas()?;
        let ParallelPipeline { phases, storage, morsel_rows, mem_bytes } = pipeline;
        let phases: Vec<Phase> = phases
            .into_iter()
            .zip(schemas)
            .map(|(PhaseSpec { source, stages, sink }, schemas)| {
                // The source's schema, then one per stage: the last is the output.
                let schema = schemas[stages.len()].clone();
                let stages: Vec<_> = stages.into_iter().zip(schemas.into_iter().skip(1)).collect();
                let merge_exact = matches!(&sink, SinkSpec::Aggregate { aggs, .. }
                    if aggs.iter().all(|a| a.merge_exact(&schema)));
                let (source, table) = (Mutex::new(Some(source)), OnceLock::new());
                Phase { source, stages, schema, sink, merge_exact, table }
            })
            .collect();
        let trace = traced.then(|| {
            let phases = vec![LedgerPhase::default(); phases.len()];
            Mutex::new(ScalingLedger { phases, ..ScalingLedger::default() })
        });
        Ok(ActiveQuery {
            storage,
            morsel_rows: morsel_rows.max(1),
            mem_bytes,
            phases,
            src: Mutex::default(),
            sink: Mutex::default(),
            agg_slots: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_ns: AtomicU64::new(0),
            err: Mutex::new(None),
            stats: Mutex::new(ScanStatistics::default()),
            lock_wait_ns: AtomicU64::new(0),
            src_hold_ns: AtomicU64::new(0),
            proc_ns: AtomicU64::new(0),
            done_tx: Mutex::new(Some(tx)),
            trace,
        })
    }

    /// What phase `i`'s ordered sink folds into: a build's empty table,
    /// a sorter, an aggregate fold or the collected batches — `None` for
    /// an exact-merge aggregate, whose workers fold slots instead.
    fn fold_for(&self, i: usize) -> Result<Option<Fold>> {
        let phase = &self.phases[i];
        Ok(Some(match &phase.sink {
            SinkSpec::Build(b) => Fold::Build(JoinBuildTable::new(&phase.schema, b.right_col)),
            SinkSpec::Aggregate { .. } if phase.merge_exact => return Ok(None),
            SinkSpec::Aggregate { group_cols, aggs } => {
                Fold::Aggregate(GroupFold::new(&phase.schema, group_cols, aggs)?)
            }
            SinkSpec::Sort { keys } => {
                Fold::Sort(ExternalSorter::new(self.storage.clone(), keys.clone(), self.mem_bytes))
            }
            SinkSpec::Collect => Fold::Batches(Vec::new()),
        }))
    }

    /// Trace site, opening half: the clock reading a traced query's
    /// next ledger section starts from (`None` — no snapshot — on every
    /// other query).
    fn trace_mark(&self) -> Option<ClockSnapshot> {
        self.trace.as_ref().map(|_| self.storage.clock().snapshot())
    }

    /// Trace site, closing half: hand the virtual time charged since
    /// `mark` to `record`.
    fn trace_since(
        &self,
        mark: Option<ClockSnapshot>,
        record: impl FnOnce(&mut ScalingLedger, u64),
    ) {
        if let (Some(trace), Some(mark)) = (&self.trace, mark) {
            let ns = self.storage.clock().snapshot().since(&mark).total_ns();
            record(&mut lock(trace), ns);
        }
    }

    /// Stable draw key for the morsel-panic fault site: phase-qualified
    /// sequence number (phase `i` before the last is `(i + 1) << 48 |
    /// seq`, the last phase plain `seq`), identical for a given query no
    /// matter the worker count or interleaving (seqs are claimed in
    /// serial source order).
    fn morsel_panic_key(&self, phase: usize, seq: u64) -> u64 {
        match phase + 1 < self.phases.len() {
            true => (phase as u64 + 1) << 48 | seq,
            false => seq,
        }
    }

    /// Process one claimed source item outside the source lock — inspect
    /// a page run, then run the phase's stage chain — and deliver it to
    /// an exact-merge aggregate slot or the phase's ordered sink.
    fn process(&self, idx: usize, seq: u64, item: SourceItem) -> Result<()> {
        let phase = &self.phases[idx];
        let mark = self.trace_mark();
        let mut batch = match item {
            SourceItem::Batch(batch) => batch,
            SourceItem::Pages(run, mut inspector) => {
                let batch = inspector.inspect_run(run)?;
                // An inspection that failed or unwound mid-page may leave
                // pages queued or rows pending: only a clean inspector goes
                // back to the pool. `inflight > 0` pins the phase, so this
                // is still the `SrcState` the run was claimed from.
                lock(&self.src).inspectors.push(*inspector);
                batch
            }
        };
        for (stage, schema) in &phase.stages {
            batch = match stage {
                StageSpec::Filter(pred) => {
                    let selection = pred.filter_batch(&batch)?;
                    batch.set_selection(selection);
                    batch
                }
                StageSpec::Project(cols) => batch.project(cols)?,
                // The serial `HashJoin`'s own probe loop (so the charge
                // model lives in one place) gathers the emitted probe and
                // matched payload columns straight into a fresh batch.
                StageSpec::Probe(b) => {
                    let probed = &self.phases[*b];
                    let (Some(table), SinkSpec::Build(build)) = (probed.table.get(), &probed.sink)
                    else {
                        return Err(Error::exec(format!("probe of build {b} before it finished")));
                    };
                    let mut out = ColumnBatch::for_schema(schema);
                    let (col, ty, emit) = (build.left_col, build.ty, build.emit.as_deref());
                    table.probe_emit(&self.storage, &batch, col, ty, emit, &mut out)?;
                    out
                }
            };
        }
        if let SinkSpec::Build(_) = phase.sink {
            // Hashing the build rows is the worker's CPU; the sink's
            // insert charges nothing, as `HashJoin::open`'s does not.
            self.storage.clock().charge_cpu(self.storage.cpu().hash_op_ns * batch.len() as u64);
        } else if let (SinkSpec::Aggregate { group_cols, aggs }, true) =
            (&phase.sink, phase.merge_exact)
        {
            let slot = lock(&self.agg_slots).pop();
            let mut slot = match slot {
                Some(slot) => slot,
                None => PartialAgg::new(&phase.schema, group_cols, aggs)?,
            };
            slot.update(&self.storage, seq, &batch)?;
            lock(&self.agg_slots).push(slot);
            // An exact-merge fold runs on the workers: it is part of
            // the morsel's worker section.
            self.trace_since(mark, |l, ns| l.phases[idx].proc_ns += ns);
            return Ok(());
        }
        self.trace_since(mark, |l, ns| l.phases[idx].proc_ns += ns);
        // The ordered sink is a serialized section of its own.
        let mark = self.trace_mark();
        let mut sink = lock(&self.sink);
        sink.pending.insert(seq, batch);
        let SinkState { pending, next, fold } = &mut *sink;
        let fold = fold.as_mut().ok_or_else(|| Error::exec("morsel reached a completed sink"))?;
        while let Some(m) = pending.remove(next) {
            match fold {
                Fold::Build(table) => table.insert_batch(m)?,
                Fold::Batches(batches) => batches.push(m),
                Fold::Aggregate(agg) => agg.update(&self.storage, &m)?,
                Fold::Sort(sorter) => sorter.push_batch(&m)?,
            }
            *next += 1;
        }
        self.trace_since(mark, |l, ns| l.phases[idx].sink_ns += ns);
        Ok(())
    }

    /// Morsel-boundary check, at claim and at process time alike:
    /// cancellation and the virtual-clock timeout surface as
    /// [`Error::Cancelled`] at morsel `seq` and drain through the same
    /// path as any other error. Returns whether the query has failed.
    fn failed_at(&self, seq: u64) -> bool {
        if !self.failed.load(Ordering::Acquire) {
            let deadline = self.deadline_ns.load(Ordering::Relaxed);
            if self.cancelled.load(Ordering::Acquire)
                || (deadline > 0 && self.storage.clock().snapshot().total_ns() >= deadline)
            {
                self.record_err(seq, Error::Cancelled);
            }
        }
        self.failed.load(Ordering::Acquire)
    }

    /// Record a failure, keeping the lowest-seq error (the one the
    /// serial driver would have surfaced).
    fn record_err(&self, seq: u64, e: Error) {
        self.failed.store(true, Ordering::Release);
        let mut slot = lock(&self.err);
        match slot.as_ref() {
            Some((s, _)) if *s <= seq => {}
            _ => *slot = Some((seq, e)),
        }
    }
}

/// Convert a caught panic payload to the query's typed error.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> Error {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        Error::exec(format!("injected worker panic (morsel key {})", injected.key))
    } else if let Some(msg) = payload.downcast_ref::<&str>() {
        Error::exec(format!("worker panicked: {msg}"))
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        Error::exec(format!("worker panicked: {msg}"))
    } else {
        Error::exec("worker panicked")
    }
}

/// Poison-free std mutex lock: a worker that panics inside morsel
/// processing is caught by `process_pending`'s `catch_unwind`, but a panic in
/// the narrow windows where scheduler locks are held must still not
/// wedge the pool — recovering the poisoned guard keeps every other
/// query running (the failing query's own error wins via `record_err`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Scheduler-wide shared state.
struct SchedState {
    running: Vec<Arc<ActiveQuery>>,
    waiting: VecDeque<Arc<ActiveQuery>>,
    /// Queries mid-admission (counted against `max_queries` so a burst
    /// of submits cannot over-admit).
    admitting: usize,
    /// Bumped on every state change workers might sleep on.
    epoch: u64,
    shutdown: bool,
}

struct SchedCore {
    state: Mutex<SchedState>,
    cv: Condvar,
    max_queries: usize,
    /// Per-query timeout in virtual-clock milliseconds (0 = none, the
    /// default); set by `set_timeout_ms`.
    timeout_ms: AtomicU64,
}

/// Route injected-panic payloads around the default "thread panicked"
/// stderr noise: deliberate chaos is caught and converted to a typed
/// error by the worker, so only *real* panics should stay loud.
/// Installed once per process, delegating to the previous hook.
fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The engine's persistent worker pool: serves every submitted query
/// until dropped. Dropping the scheduler drains queries already
/// admitted, then joins the workers; queries still waiting for
/// admission complete with an error on their handle.
pub struct Scheduler {
    core: Arc<SchedCore>,
    threads: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn a pool of `workers` threads admitting at most
    /// `max_queries` concurrent queries (both clamped to at least 1).
    pub fn new(workers: usize, max_queries: usize) -> Scheduler {
        install_panic_hook();
        let core = Arc::new(SchedCore {
            state: Mutex::new(SchedState {
                running: Vec::new(),
                waiting: VecDeque::new(),
                admitting: 0,
                epoch: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            max_queries: max_queries.max(1),
            timeout_ms: AtomicU64::new(0),
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core, i))
            })
            .collect();
        Scheduler { core, threads }
    }

    /// Plan and enqueue a query without blocking: plan errors return
    /// immediately, and admission — which opens the first phase's
    /// source, however long that takes — runs on a worker, FIFO beyond
    /// `max_queries`, so the handle can cancel a query still opening.
    pub fn submit(&self, pipeline: ParallelPipeline) -> Result<QueryHandle> {
        self.submit_query(pipeline, false)
    }

    fn submit_query(&self, pipeline: ParallelPipeline, traced: bool) -> Result<QueryHandle> {
        let (tx, rx) = mpsc::channel();
        let query = Arc::new(ActiveQuery::plan(pipeline, tx, traced)?);
        {
            let mut st = lock(&self.core.state);
            if st.shutdown {
                return Err(Error::exec("scheduler is shut down"));
            }
            st.waiting.push_back(Arc::clone(&query));
            st.epoch += 1;
        }
        self.core.cv.notify_all();
        Ok(QueryHandle { rx, query, core: Arc::clone(&self.core) })
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// The admission cap.
    pub fn max_queries(&self) -> usize {
        self.core.max_queries
    }

    /// Override the per-query timeout (virtual-clock milliseconds,
    /// 0 disables). Applies to queries admitted from now on.
    pub fn set_timeout_ms(&self, ms: u64) {
        self.core.timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// The current per-query timeout in virtual-clock milliseconds.
    pub fn timeout_ms(&self) -> u64 {
        self.core.timeout_ms.load(Ordering::Relaxed)
    }
}

/// Run `pipeline` as the sole query of an ephemeral `workers`-thread
/// pool — the one driver behind [`crate::run_pipeline`] and
/// [`crate::run_pipeline_traced`]. With `traced` the query records its
/// [`ScalingLedger`] (empty otherwise); the trace reads the
/// engine-global clock, so it is only meaningful on one worker with
/// nothing else charging the same [`Storage`].
pub(crate) fn run_solo(
    pipeline: ParallelPipeline,
    workers: usize,
    traced: bool,
) -> Result<(QueryOutput, ScalingLedger)> {
    let scheduler = Scheduler::new(workers, 1);
    let handle = scheduler.submit_query(pipeline, traced)?;
    let query = Arc::clone(&handle.query);
    let out = handle.wait()?;
    let ledger = query.trace.as_ref().map(|t| std::mem::take(&mut *lock(t))).unwrap_or_default();
    Ok((out, ledger))
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        let waiting = {
            let mut st = lock(&self.core.state);
            st.shutdown = true;
            st.epoch += 1;
            std::mem::take(&mut st.waiting)
        };
        self.core.cv.notify_all();
        for q in waiting {
            q.record_err(0, Error::exec("scheduler shut down before the query was admitted"));
            complete_err(&q, &self.core);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Admit waiting queries up to the cap, on the calling worker — never on
/// a submitting session's thread. The first phase's source opens outside
/// the state lock (it performs I/O, and a shared source's `open` may run
/// a whole subtree); `admitting` holds the slot.
fn pump(core: &SchedCore) {
    loop {
        let query = {
            let mut st = lock(&core.state);
            if st.running.len() + st.admitting >= core.max_queries {
                return;
            }
            let Some(q) = st.waiting.pop_front() else { return };
            st.admitting += 1;
            q
        };
        // Stamp the virtual-clock deadline before the first source
        // opens so admission I/O counts against the timeout too.
        let timeout_ms = core.timeout_ms.load(Ordering::Relaxed);
        if timeout_ms > 0 {
            let now = query.storage.clock().snapshot().total_ns();
            let deadline = now.saturating_add(timeout_ms.saturating_mul(1_000_000)).max(1);
            query.deadline_ns.store(deadline, Ordering::Relaxed);
        }
        let opened = if query.cancelled.load(Ordering::Acquire) {
            // Cancelled while queued (a racing `cancel` may have missed
            // it in `waiting`): fail it instead of admitting.
            Err(Error::Cancelled)
        } else {
            // Admission starts the first phase.
            install_phase(&query, 0, Vec::new()).map(|src| *lock(&query.src) = src)
        };
        {
            let mut st = lock(&core.state);
            st.admitting -= 1;
            if let Ok(()) = opened {
                st.running.push(Arc::clone(&query));
                st.epoch += 1;
            }
        }
        core.cv.notify_all();
        if let Err(e) = opened {
            query.record_err(0, e);
            complete_err(&query, core);
        }
    }
}

fn worker_loop(core: &SchedCore, index: usize) {
    loop {
        let (queries, epoch) = {
            let st = lock(&core.state);
            if st.shutdown && st.running.is_empty() {
                return;
            }
            (st.running.clone(), st.epoch)
        };
        // After the snapshot: a query submitted from here on, or admitted
        // by this pump, bumps `epoch`, so the wait below cannot miss it.
        pump(core);
        let mut worked = false;
        let n = queries.len();
        for i in 0..n {
            // Round-robin offset by worker index: workers spread over
            // queries instead of ganging up on the first one.
            if try_work(&queries[(index + i) % n], core) {
                worked = true;
            }
        }
        if !worked {
            let st = lock(&core.state);
            if st.shutdown && st.running.is_empty() {
                return;
            }
            if st.epoch == epoch {
                let _unused = core.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// Make one unit of progress on `q`: claim one morsel, then process
/// it. Returns whether a morsel was claimed.
fn try_work(q: &Arc<ActiveQuery>, core: &SchedCore) -> bool {
    claim(q, core).map(|p| process_pending(q, core, p)).is_some()
}

/// Claim the next morsel of `q`'s current phase under the source lock,
/// so all charged pull I/O stays in exact serial seq order. `None` when
/// there is nothing to hand out: the source is drained or failed, or the
/// query has failed — the claim that finds out marks the source done and
/// finalizes the phase if no morsel is still in flight.
fn claim(q: &Arc<ActiveQuery>, core: &SchedCore) -> Option<Pending> {
    let wait_start = Instant::now();
    let mut src = lock(&q.src);
    let held = Instant::now();
    q.lock_wait_ns.fetch_add((held - wait_start).as_nanos() as u64, Ordering::Relaxed);
    if src.finalized || src.done || src.source.is_none() {
        drop(src);
        q.src_hold_ns.fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
        return None;
    }
    let (phase, seq) = (src.phase, src.seq);
    let (mark, trace) = (tap_mark(), q.trace_mark());
    let SrcState { source, inspectors, output, .. } = &mut *src;
    // invariant: `src.source.is_none()` returned above, and the source
    // lock is held throughout the claim.
    let c = source.as_mut().expect("checked above");
    // A failed query pulls nothing more: its source ends here.
    let pulled =
        if q.failed_at(seq) { Ok(None) } else { c.pull(q.morsel_rows, inspectors, output) };
    let file = c.file_id();
    let claimed = match pulled {
        Ok(Some(item)) => {
            q.trace_since(trace, |l, ns| l.phases[phase].src_ns += ns);
            src.seq += 1;
            // A claimed morsel pins the phase until it is processed.
            q.inflight.fetch_add(1, Ordering::AcqRel);
            Some(Pending { phase, seq, item, file })
        }
        // Recorded before `done` is set, under the lock: a worker that
        // lands the last in-flight morsel and finalizes must see it.
        Err(e) => {
            q.record_err(seq, e);
            None
        }
        Ok(None) => None,
    };
    src.done = claimed.is_none();
    drop(src);
    q.src_hold_ns.fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
    // The pull I/O is this claim's attribution; `morsels` counts at
    // processing time.
    lock(&q.stats).merge(&mark.delta());
    if claimed.is_none() {
        maybe_finalize(q, core);
    }
    claimed
}

/// Process one claimed morsel outside the source lock, delivering it
/// to the phase's partial state.
fn process_pending(q: &Arc<ActiveQuery>, core: &SchedCore, p: Pending) {
    let entered = Instant::now();
    // A claimed morsel of a cancelled, timed-out, or failed query is
    // discarded — its result could never be delivered anyway.
    if !q.failed_at(p.seq) {
        process_morsel(q, p);
    }
    if q.inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
        maybe_finalize(q, core);
    }
    q.proc_ns.fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// [`process_pending`]'s work on a morsel of a live query.
fn process_morsel(q: &ActiveQuery, Pending { phase, seq, item, file }: Pending) {
    let mark = tap_mark();
    // Panic containment: injected chaos panics (the morsel fault site)
    // and *any* real panic in morsel processing unwind to here and
    // become a typed per-query error — the worker thread, the pool,
    // and every other query survive.
    let result = match catch_unwind(AssertUnwindSafe(|| {
        let key = q.morsel_panic_key(phase, seq);
        if q.storage.morsel_panics(file, key) {
            std::panic::panic_any(InjectedPanic { key });
        }
        q.process(phase, seq, item)
    })) {
        Ok(r) => r,
        Err(payload) => Err(panic_error(payload.as_ref())),
    };
    let mut delta = mark.delta();
    delta.morsels = 1;
    lock(&q.stats).merge(&delta);
    if let Err(e) = result {
        q.record_err(seq, e);
    }
}

/// If the current phase is fully drained (source exhausted, no morsel
/// in flight), close it out: finish its sink and open the next phase, or
/// complete the query. Only the close runs under the source lock; the
/// `finalized` flag it sets makes this idempotent and turns every claim
/// away until the next phase's `SrcState` is stored — so a long open of
/// that source stalls no worker visiting this query.
fn maybe_finalize(q: &Arc<ActiveQuery>, core: &SchedCore) {
    let (phase, end_seq) = {
        let mut src = lock(&q.src);
        if src.finalized || !src.done || q.inflight.load(Ordering::Acquire) != 0 {
            return;
        }
        src.finalized = true;
        if let Some(mut c) = src.source.take() {
            let mark = tap_mark();
            if let Err(e) = c.close() {
                q.record_err(src.seq, e);
            }
            lock(&q.stats).merge(&mark.delta());
        }
        (src.phase, src.seq)
    };
    if q.failed.load(Ordering::Acquire) {
        complete_err(q, core);
        return;
    }
    let next = match end_phase(q, phase) {
        Ok(batches) if phase + 1 == q.phases.len() => return complete_ok(q, core, batches),
        ended => ended.and_then(|batches| install_phase(q, phase + 1, batches)),
    };
    match next {
        Ok(next) => {
            *lock(&q.src) = next;
            lock(&core.state).epoch += 1;
            core.cv.notify_all();
        }
        Err(e) => {
            q.record_err(end_seq, e);
            complete_err(q, core);
        }
    }
}

/// Finish phase `i`: settle the tables its probe stages read, then set
/// its build table on it, or run its fold's final pass into the batches
/// it hands on — phase `i + 1`'s [`ParallelSource::Output`], or the
/// query's result after the last phase.
fn end_phase(q: &ActiveQuery, i: usize) -> Result<Vec<ColumnBatch>> {
    let phase = &q.phases[i];
    // Phase input exhausted: charge the deferred grace-join passes of the
    // tables this phase probed — exactly where the operator tree's probe
    // exhaustion charges them, before the sink finishes below, and in
    // sums that do not depend on how workers interleaved the probe
    // morsels. The spool is a spill write, so it can fail the query.
    let probed = phase.stages.iter().filter_map(|(stage, _)| match stage {
        StageSpec::Probe(b) => q.phases[*b].table.get(),
        _ => None,
    });
    for table in probed {
        table.finish_probe(&q.storage)?;
    }
    // Its own statement: the guard must drop before `finish_fold` locks
    // the sink again.
    let fold = lock(&q.sink).fold.take();
    match fold {
        Some(Fold::Build(mut table)) => {
            // The table is the serial build's, so the budget enforcement
            // — and its charged spill I/O — is too. A failed overflow-file
            // write (injected spill fault) fails the whole query here.
            table.apply_budget(&q.storage, q.mem_bytes)?;
            phase.table.set(table).map_err(|_| Error::exec(format!("build {i} finished twice")))?;
            Ok(Vec::new())
        }
        fold => finish_fold(q, i, fold),
    }
}

/// Start phase `i`: reset the sink to the phase's fold, open its source
/// — the previous phase's is closed, so a query has at most one open at
/// a time, in phase order, which is the operator tree's open order — and
/// return the `SrcState` that makes it the query's active phase; no
/// morsel of the phase is claimed before the caller stores it. An
/// `Output` source hands out `output`. Whatever the open charges is
/// attributed to the query and is serial time: it joins the traced prefix.
fn install_phase(q: &ActiveQuery, i: usize, output: Vec<ColumnBatch>) -> Result<SrcState> {
    *lock(&q.sink) = SinkState { fold: q.fold_for(i)?, ..SinkState::default() };
    let mut source = lock(&q.phases[i].source)
        .take()
        .ok_or_else(|| Error::exec(format!("phase {i} installed twice")))?;
    let (opens, mark) = (q.trace_mark(), tap_mark());
    let opened = source.open();
    lock(&q.stats).merge(&mark.delta());
    opened?;
    q.trace_since(opens, |l, ns| l.prefix_ns += ns);
    let (source, output) = (Some(source), output.into_iter());
    Ok(SrcState { source, output, phase: i, ..Default::default() })
}

/// The final pass of phase `i`'s fold — a sort's, an aggregate's: the
/// batches it hands on, in the order the serial operator emits them.
/// Its charges are serial time, summed into the traced suffix.
fn finish_fold(q: &ActiveQuery, i: usize, fold: Option<Fold>) -> Result<Vec<ColumnBatch>> {
    debug_assert!(lock(&q.sink).pending.is_empty(), "ordered sink drained every seq");
    let (suffix, mark) = (q.trace_mark(), tap_mark());
    // The groups in morsels, as `HashAggregate::next_columns` cuts them.
    let morsels = |groups: ColumnBatch| {
        let mut groups = ColumnBuffer::from(groups);
        Vec::from_iter(std::iter::from_fn(|| groups.pop_columns(q.morsel_rows)))
    };
    let batches = match (fold, &q.phases[i].sink) {
        (Some(Fold::Batches(batches)), _) => Ok(batches),
        (Some(Fold::Aggregate(agg)), _) => agg.finish(None).map(morsels),
        // Every morsel is in, in serial order: this is the serial
        // `Sort`'s final pass, charges included. It can spill under a
        // budget, so it can still fail the query.
        (Some(Fold::Sort(sorter)), _) => sorter.finish(),
        (None, SinkSpec::Aggregate { group_cols, aggs }) => {
            let slots = std::mem::take(&mut *lock(&q.agg_slots));
            match PartialAgg::merge(slots) {
                Some(merged) => Ok(merged),
                None => PartialAgg::new(&q.phases[i].schema, group_cols, aggs),
            }
            .and_then(|merged| merged.finish(q.morsel_rows))
        }
        _ => Err(Error::exec("sink fold taken before completion")),
    };
    lock(&q.stats).merge(&mark.delta());
    q.trace_since(suffix, |l, ns| l.suffix_ns += ns);
    batches
}

/// Finish a successful query with its result `batches`: stamp the
/// scheduler's wall-clock timers on its stats and hand both to its handle.
fn complete_ok(q: &Arc<ActiveQuery>, core: &SchedCore, batches: Vec<ColumnBatch>) {
    let mut stats = *lock(&q.stats);
    stats.lock_wait_ns = q.lock_wait_ns.load(Ordering::Relaxed);
    stats.src_hold_ns = q.src_hold_ns.load(Ordering::Relaxed);
    stats.proc_ns = q.proc_ns.load(Ordering::Relaxed);
    finish(q, core, Ok(QueryOutput { batches, stats }));
}

/// Finish a failed query with its first (lowest-seq) error, releasing
/// the worker-side partial slots and the sink buffer, no matter which
/// phase it died in. Its finished build tables live on their phases and
/// go when the query drops — once `finish` has taken it off the running
/// list and its handle's `wait` has returned; no table holds a file. No
/// source is left open either: the failing phase's was closed by
/// `maybe_finalize`, and no later phase's was ever opened.
fn complete_err(q: &Arc<ActiveQuery>, core: &SchedCore) {
    lock(&q.agg_slots).clear();
    *lock(&q.sink) = SinkState::default();
    let err = lock(&q.err)
        .take()
        .map(|(_, e)| e)
        .unwrap_or_else(|| Error::exec("query failed without a recorded error"));
    finish(q, core, Err(err));
}

fn finish(q: &Arc<ActiveQuery>, core: &SchedCore, result: Result<QueryOutput>) {
    if let Some(tx) = lock(&q.done_tx).take() {
        let _ = tx.send(result);
    }
    {
        let mut st = lock(&core.state);
        st.running.retain(|r| !Arc::ptr_eq(r, q));
        st.epoch += 1;
    }
    core.cv.notify_all();
}

// Compile-time Send/Sync audit: queries are shared across the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ActiveQuery>();
    assert_send_sync::<SchedCore>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_rows;
    use crate::{batch_size, Predicate, SinkSpec};
    use crate::{BoxedOperator, IndexNestedLoopJoin, JoinType};
    use smooth_index::BTreeIndex;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, DataType::Int64, Value};

    fn table(rows: i64, name: &str) -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c0", Int64),
            Column::new("c1", Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem(name, schema);
        for i in 0..rows {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            loader
                .push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("y".repeat(24))]))
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

    fn scan_pipeline(heap: &Arc<HeapFile>, s: &Storage, lo: i64, hi: i64) -> ParallelPipeline {
        // The predicate rides in the scan itself (the planner pushes it
        // there), so `rows_processed` reflects qualifying tuples.
        let scan =
            FullTableScan::new(Arc::clone(heap), s.clone(), Predicate::int_half_open(1, lo, hi));
        pipeline(ParallelSource::Heap(Box::new(scan)), s)
    }

    fn pipeline(source: ParallelSource, s: &Storage) -> ParallelPipeline {
        ParallelPipeline {
            phases: vec![PhaseSpec { source, stages: Vec::new(), sink: SinkSpec::Collect }],
            storage: s.clone(),
            morsel_rows: batch_size(),
            mem_bytes: 0,
        }
    }

    fn serial_rows(heap: &Arc<HeapFile>, lo: i64, hi: i64) -> Vec<Row> {
        let s = storage();
        let mut op = FullTableScan::new(Arc::clone(heap), s, Predicate::int_half_open(1, lo, hi));
        collect_rows(&mut op).unwrap()
    }

    #[test]
    fn concurrent_queries_on_one_scheduler_are_row_identical() {
        let heap = table(3000, "shared");
        let s = storage();
        let scheduler = Scheduler::new(4, 4);
        let ranges = [(0i64, 250i64), (250, 600), (600, 1000), (0, 1000)];
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| scheduler.submit(scan_pipeline(&heap, &s, lo, hi)).unwrap())
            .collect();
        for (handle, &(lo, hi)) in handles.into_iter().zip(&ranges) {
            let out = handle.wait().unwrap();
            assert!(out.stats.rows_scanned >= out.stats.rows_processed);
            assert_eq!(out.stats.rows_processed, out.len() as u64);
            assert!(out.stats.morsels > 0);
            assert_eq!(out.into_rows(), serial_rows(&heap, lo, hi), "range [{lo},{hi})");
        }
    }

    #[test]
    fn admission_caps_concurrency_and_queues_fifo() {
        // max_queries = 1: queries run strictly one at a time, yet all
        // queued submissions complete correctly.
        let heap = table(2000, "fifo");
        let s = storage();
        let scheduler = Scheduler::new(2, 1);
        let handles: Vec<_> = (0..5)
            .map(|i| {
                let hi = 100 * (i + 1) as i64;
                scheduler.submit(scan_pipeline(&heap, &s, 0, hi)).unwrap()
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let hi = 100 * (i + 1) as i64;
            assert_eq!(handle.wait().unwrap().into_rows(), serial_rows(&heap, 0, hi));
        }
    }

    #[test]
    fn per_query_stats_attribute_io_under_concurrency() {
        // Queries racing on one storage at two workers: full scans of two
        // heaps of their own — each query's pages are its heap's, nothing
        // leaks across queries — and, over a third heap, a whole full scan
        // and an index join as shared sources, whose storage sessions tap
        // their traffic as they drop. Per-query pages, hits and requests
        // sum to the engine's.
        let (a, b, c) = (table(2400, "heap_a"), table(1200, "heap_b"), table(1500, "heap_c"));
        let index = Arc::new(BTreeIndex::build_from_heap("c1", &c, 1).unwrap());
        let (h, i, t, s) =
            (|| Arc::clone(&c), || Arc::clone(&index), || Predicate::True, storage());
        s.reset_metrics();
        let full_scan = FullTableScan::new(h(), s.clone(), Predicate::int_half_open(1, 100, 400));
        let outer = Box::new(FullTableScan::new(h(), s.clone(), Predicate::int_lt(0, 600)));
        let inlj = IndexNestedLoopJoin::new(outer, 1, h(), i(), t(), JoinType::Inner, s.clone());
        let shared = |op: BoxedOperator| pipeline(ParallelSource::Shared { op }, &s);
        let queries = [scan_pipeline(&a, &s, 0, 1000), scan_pipeline(&b, &s, 0, 1000)];
        let queries =
            queries.into_iter().chain([shared(Box::new(full_scan)), shared(Box::new(inlj))]);
        let scheduler = Scheduler::new(2, 4);
        let handles: Vec<_> = queries.map(|q| scheduler.submit(q).unwrap()).collect();
        let stats: Vec<ScanStatistics> =
            handles.into_iter().map(|h| h.wait().unwrap().stats).collect();
        assert_eq!(stats[0].pages_read, u64::from(a.page_count()));
        assert_eq!(stats[1].pages_read, u64::from(b.page_count()));
        assert_eq!((stats[0].rows_scanned, stats[1].rows_scanned), (2400, 1200));
        // Whichever `heap_c` query runs second may find every page cached:
        // each touches pages, and together they read some.
        assert!(stats[2..].iter().all(|q| q.pages_read + q.buffer_hits > 0));
        assert!(stats[2].pages_read + stats[3].pages_read > 0);
        assert!(stats[2].io_requests + stats[3].io_requests > 0);
        let (engine, sum) =
            (s.io_snapshot(), |f: fn(&ScanStatistics) -> u64| stats.iter().map(f).sum());
        assert_eq!(engine.pages_read, sum(|q| q.pages_read));
        assert_eq!(engine.buffer_hits, sum(|q| q.buffer_hits));
        assert_eq!(engine.io_requests, sum(|q| q.io_requests));
    }

    #[test]
    fn cancelled_query_fails_typed_and_scheduler_survives() {
        let heap = table(3000, "cancel_me");
        let s = storage();
        let scheduler = Scheduler::new(2, 4);
        let handle = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap();
        handle.cancel();
        // Cancellation lands at a morsel boundary: the query must fail
        // with the typed variant (or, if it already finished the race,
        // return its complete result — never hang, never a partial).
        match handle.wait() {
            Err(Error::Cancelled) => {}
            Ok(out) => assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000)),
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The pool is untouched: a fresh query still runs to completion.
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 250)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 250));
    }

    #[test]
    fn cancelling_a_waiting_query_dequeues_it() {
        // max_queries = 1: the second submission waits for admission;
        // cancelling it must complete it immediately with Cancelled
        // without disturbing the running query.
        let heap = table(2000, "waitq");
        let s = storage();
        let scheduler = Scheduler::new(2, 1);
        let running = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap();
        let waiting = scheduler.submit(scan_pipeline(&heap, &s, 0, 500)).unwrap();
        waiting.cancel();
        assert!(matches!(waiting.wait(), Err(Error::Cancelled)));
        assert_eq!(running.wait().unwrap().into_rows(), serial_rows(&heap, 0, 1000));
    }

    #[test]
    fn virtual_clock_timeout_cancels_long_queries() {
        // The deadline is virtual: an HDD-modeled scan of a few dozen
        // pages charges millions of virtual nanoseconds, so a 1-virtual-
        // millisecond budget trips at an early morsel boundary.
        let heap = table(3000, "deadline");
        let s = Storage::default_hdd();
        let scheduler = Scheduler::new(2, 4);
        scheduler.set_timeout_ms(1);
        assert_eq!(scheduler.timeout_ms(), 1);
        let err = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        // Disabling the timeout restores normal completion.
        scheduler.set_timeout_ms(0);
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000));
    }

    #[test]
    fn injected_panic_is_contained_and_other_sessions_survive() {
        use smooth_storage::FaultConfig;
        let poisoned_heap = table(2000, "poisoned");
        let clean_heap = table(2000, "clean");
        let sp = storage();
        sp.set_faults(Some(FaultConfig::new(11).panic(1.0)));
        let sc = storage();
        let scheduler = Scheduler::new(4, 4);
        // Interleave: the poisoned query panics at its first morsel
        // while the clean one runs on the same pool.
        let hp = scheduler.submit(scan_pipeline(&poisoned_heap, &sp, 0, 1000)).unwrap();
        let hc = scheduler.submit(scan_pipeline(&clean_heap, &sc, 0, 1000)).unwrap();
        let err = hp.wait().unwrap_err();
        assert!(matches!(&err, Error::Exec(msg) if msg.contains("injected worker panic")), "{err}");
        assert_eq!(hc.wait().unwrap().into_rows(), serial_rows(&clean_heap, 0, 1000));
        // Containment left the workers alive: a fresh query still runs.
        let out =
            scheduler.submit(scan_pipeline(&clean_heap, &sc, 0, 250)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&clean_heap, 0, 250));
    }

    #[test]
    fn transient_io_faults_retry_to_success_with_backoff_on_the_clock() {
        use smooth_storage::faults::BACKOFF_BASE_NS;
        use smooth_storage::FaultConfig;
        let heap = table(2000, "flaky");
        let s = storage();
        // Low-probability transient faults: every page read that draws
        // a fault retries (deterministically) and succeeds, so the
        // query completes with exactly the fault-free rows while the
        // clock absorbs the backoff.
        s.set_faults(Some(FaultConfig::new(5).io_err(0.2)));
        let clock0 = s.clock().snapshot();
        let scheduler = Scheduler::new(4, 4);
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000));
        let spent = s.clock().snapshot().since(&clock0);
        // At p = 0.2 over dozens of page reads some fault draws are
        // certain; each charges at least one base backoff to I/O.
        assert!(spent.io_ns >= BACKOFF_BASE_NS, "no retry backoff observed");
    }

    #[test]
    fn permanent_faults_exhaust_retries_into_typed_error() {
        use smooth_storage::{faults::RETRY_LIMIT, FaultConfig};
        let heap = table(2000, "doomed");
        let s = storage();
        s.set_faults(Some(FaultConfig::new(9).io_err(1.0)));
        let scheduler = Scheduler::new(2, 4);
        let err = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap_err();
        assert!(matches!(err, Error::Faulted { attempts } if attempts == RETRY_LIMIT), "{err}");
    }
}
