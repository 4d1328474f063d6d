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
//!   single-threaded driver would issue it. For a full table scan the
//!   lock covers only [`FullTableScan`]'s fetch half, the readahead run's
//!   device I/O; its inspect half — the pool probes, probing encoded
//!   tuples and decoding qualifiers into column vectors — runs on the
//!   claiming worker *outside* the lock, on a worker-local copy of the
//!   scan. For any other operator (Smooth Scan under every trigger, which
//!   runs Index, Sort and Switch Scan too; the tree under a breaker the
//!   pipeline does not peel) the whole operator *is* the serial section:
//!   adaptive morph decisions stay centralized in one operator instance,
//!   untouched by parallelism, exactly as the single-threaded driver runs
//!   them.
//! * **Worker-side charges are per-tuple, never per-batch-boundary.**
//!   Every stage charges the shared virtual clock (lock-free atomics —
//!   the contention-light accounting core) the same per-row amounts the
//!   serial operators charge, so totals are independent of how rows are
//!   grouped into morsels and of which worker processed them.
//!
//! Pipeline breakers merge deterministically. A pipeline is a list of
//! phases ([`PhaseSpec`]: a morsel source, its filter / projection /
//! nested-probe stages and its one sink) run to completion one after
//! another, and a source opens when its phase starts. Every breaker —
//! a hash-join build, a sort, an aggregate — is a phase's sink, and what
//! a sort or an aggregate finished into is the next phase's source
//! ([`ParallelSource::Output`]): the order the operator tree opens and
//! drains its inputs in. Workers claim morsels under the source lock (so
//! source I/O happens in the exact serial order), run their stages, and
//! hand them to the phase's ordered sink: a build inserts them into its
//! table in morsel order ([`crate::JoinBuildTable::insert_batch`], the
//! call the serial [`crate::HashJoin`] makes), so the probe table is the
//! serial build's by construction. Grouped aggregates use
//! per-slot partial folds (the serial operator's own group table and
//! accumulators, split by key hash once they outgrow the cache), merged
//! partition by partition and ordered by global first-seen `(seq, idx)`
//! position when the
//! merge is exact ([`AggFunc::merge_exact`]) — the partitioned
//! pre-aggregation of morsel-driven engines — and
//! otherwise fold on the ordered sink in morsel order — the serial
//! operator's fold itself — so float sums stay byte-identical; plain
//! row output is concatenated in morsel order, and a sort streams its
//! morsels in morsel order into the sort sink ([`SinkSpec::Sort`] — the
//! serial `Sort` operator's exact charges, its one stable sort over
//! serial-order input recorded as the ledger's serial suffix).
//!
//! Execution lives in [`crate::schedule`], the one pipeline driver: the
//! worker pool belongs to a persistent [`crate::Scheduler`] serving
//! *queries* (each an independent phase state machine with its own
//! source lock and sink, claimed from one morsel at a time), not to a
//! single pipeline run. [`run_pipeline`] submits the pipeline as
//! the sole query of an ephemeral scheduler at every worker count, one
//! included; this module keeps the specs, the sources, the partial
//! aggregate, the one plan-time walk that types every stage
//! ([`ParallelPipeline::staged_schemas`]) and the scaling model. The
//! workers run the [`StageSpec`]s as written, with those schemas.
//!
//! [`run_pipeline_traced`] is the same run on one worker with the
//! query's trace on: the scheduler itself records a virtual-clock
//! ledger ([`ScalingLedger`]) — a serial prefix, one [`LedgerPhase`] of
//! summed source, worker and ordered-sink sections per phase, a serial
//! suffix — from clock snapshots at its own phase-install / claim /
//! process / fold-finish sites (see the "Trace
//! sites" paragraph in [`crate::schedule`]), so the model's input is
//! produced by the code it models. From the ledger a closed form
//! predicts the parallel makespan at any worker count: each phase,
//! behind its barrier, takes the longest of its serialized source, its
//! serialized sink and its work spread evenly over the pool. The
//! perf-smoke `parallel`, `join` and `serve` experiments gate on that
//! model because, unlike wall clock on a shared CI runner (or this
//! repo's build hosts), it is bit-stable across machines. See
//! `docs/scheduler_v2.md`.

use smooth_storage::{FileId, PageBuf, Storage};
use smooth_types::{ColumnBatch, ColumnVector, Error, PageId, Result, Row, Schema};

use crate::agg::GroupFold;
use crate::expr::Predicate;
use crate::join::{join_schema, JoinBuildTable};
use crate::operator::{BoxedOperator, Operator};
use crate::{AggFunc, FullTableScan, JoinType};

/// Where morsels come from. A phase's source opens when the phase starts
/// and is pulled under the query's source lock, one morsel per claim.
pub enum ParallelSource {
    /// A full table scan as the partitioned heap source: a claim is the
    /// scan's fetch half (`FullTableScan::read_run`: one readahead run,
    /// its I/O charged under the lock in page order), and the claiming
    /// worker runs the inspect half (`FullTableScan::inspect_run`) on its
    /// own copy of the scan. This is the fully parallel source — the
    /// CPU-heavy probe and decode fan out.
    Heap(Box<FullTableScan>),
    /// Any operator as a serial morsel source: workers take turns
    /// pulling `next_columns(morsel_rows)` under the source lock. The
    /// operator runs exactly as it would single-threaded — this is how
    /// Smooth Scan's morph accounting stays centralized — while
    /// the stages above it still fan out.
    Shared {
        /// The source operator (opened by the driver).
        op: BoxedOperator,
    },
    /// The finished output of the previous phase — a sort's sorted
    /// morsels, an aggregate's groups: handed out one batch per claim,
    /// charging nothing, which is what the tree's `Sort` /
    /// `HashAggregate` emit once `open` has drained their input.
    Output,
}

impl ParallelSource {
    fn op(&mut self) -> Option<&mut dyn Operator> {
        match self {
            ParallelSource::Heap(scan) => Some(&mut **scan),
            ParallelSource::Shared { op } => Some(&mut **op),
            ParallelSource::Output => None,
        }
    }

    /// Open the source as its phase starts.
    pub(crate) fn open(&mut self) -> Result<()> {
        self.op().map_or(Ok(()), |op| op.open())
    }

    /// The serial section of one claim: a heap source's next page run,
    /// with an idle inspector off `inspectors` (or a fresh copy of the
    /// scan) to inspect it on the worker; a shared operator's next morsel
    /// of up to `max` rows; an output source's next batch off `output`.
    pub(crate) fn pull(
        &mut self,
        max: usize,
        inspectors: &mut Vec<FullTableScan>,
        output: &mut std::vec::IntoIter<ColumnBatch>,
    ) -> Result<Option<SourceItem>> {
        match self {
            ParallelSource::Heap(scan) => Ok(scan.read_run()?.map(|run| {
                let inspector = inspectors.pop().unwrap_or_else(|| scan.inspector());
                SourceItem::Pages(run, Box::new(inspector))
            })),
            ParallelSource::Shared { op } => Ok(op.next_columns(max)?.map(SourceItem::Batch)),
            ParallelSource::Output => Ok(output.next().map(SourceItem::Batch)),
        }
    }

    /// Close the source as its phase ends.
    pub(crate) fn close(&mut self) -> Result<()> {
        self.op().map_or(Ok(()), |op| op.close())
    }

    /// The heap file this source reads, if any — the coordinate
    /// scoped fault injection keys morsel-panic draws on (shared
    /// operator and output sources have no file attribution).
    pub(crate) fn file_id(&self) -> Option<FileId> {
        match self {
            ParallelSource::Heap(scan) => Some(scan.file_id()),
            ParallelSource::Shared { .. } | ParallelSource::Output => None,
        }
    }
}

/// One phase of a query: a morsel source drained through a per-worker
/// stage chain into the phase's one sink. The source opens when the
/// phase starts and closes when it ends, so at most one source of a
/// query is open at a time; its I/O serializes under the source lock in
/// morsel order — exactly the order the serial operator tree would
/// issue it — while decode and the stages fan out across the worker
/// pool, and the sink takes the morsels in morsel order.
pub struct PhaseSpec {
    /// The phase's morsel source.
    pub source: ParallelSource,
    /// Per-worker stages, source side first: [`StageSpec::Filter`] /
    /// [`StageSpec::Project`] plus [`StageSpec::Probe`] against builds
    /// of *earlier* phases — so a hash join sitting on the build side
    /// of another hash join runs as a fully parallel build phase of its
    /// own instead of collapsing into a serial `Shared` source.
    pub stages: Vec<StageSpec>,
    /// What the phase's morsels end in: a hash-join build table, a
    /// sort or an aggregate the next phase reads through
    /// [`ParallelSource::Output`], or — the last phase — the result.
    pub sink: SinkSpec,
}

/// What a build phase's morsels fold into.
pub struct PhaseBuild {
    /// Key ordinal in the build rows.
    pub right_col: usize,
    /// Key ordinal in the probe rows.
    pub left_col: usize,
    /// Join semantics.
    pub ty: JoinType,
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
    /// Probe the table phase `i` built; emits gathered columnar batches.
    Probe(usize),
}

/// What a phase's ordered morsel stream ends in.
pub enum SinkSpec {
    /// Concatenate rows in morsel order.
    Collect,
    /// Grouped / scalar aggregation.
    Aggregate {
        /// Group-by ordinals (empty = scalar).
        group_cols: Vec<usize>,
        /// Aggregates per group. When every one merges exactly over
        /// the sink's input ([`AggFunc::merge_exact`]), workers fold
        /// morsels into pooled partials, which split into partitions by
        /// key hash once they outgrow the cache; the phase's final pass
        /// merges the partials partition by partition and orders the groups by first-seen
        /// `(seq, idx)` position in one linear pass (no comparison
        /// sort), then gathers them into morsels. Otherwise the sink
        /// folds morsels in order, keeping float sums byte-identical to
        /// the serial fold.
        aggs: Vec<AggFunc>,
    },
    /// Sort: the sink folds each morsel, in morsel order, into one
    /// [`crate::ExternalSorter`] under the pipeline's `mem_bytes` — the
    /// identical charges the serial [`crate::Sort`] operator makes over
    /// the same input — whose final pass (one sort on the first key's
    /// normalized prefix) restores global key order as serial time
    /// ([`ScalingLedger::suffix_ns`] in the model).
    Sort {
        /// Sort keys, over the phase's staged output.
        keys: Vec<crate::sort::SortKey>,
    },
    /// A hash-join build table, which later phases probe.
    Build(PhaseBuild),
}

/// A decomposed pipeline ready for the worker pool.
pub struct ParallelPipeline {
    /// The phases in the order the serial operator tree finishes them —
    /// a join's build side before its probe side, a breaker's input
    /// before what reads its output — the last feeding the result. Each
    /// runs to completion before the next starts.
    pub phases: Vec<PhaseSpec>,
    /// Shared storage handle (clock + pool the whole pipeline charges).
    pub storage: Storage,
    /// Rows per morsel for [`ParallelSource::Shared`] pulls (the serial
    /// driver's `batch_size()` to match it exactly).
    pub morsel_rows: usize,
    /// The memory budget (bytes, 0 = unlimited) of each build and each
    /// sort, as each operator of the tree has one.
    pub mem_bytes: usize,
}

/// Global first-seen position of a group: (morsel seq, index within the
/// morsel). Minimizing over workers reproduces the serial first-seen
/// group order exactly.
type FirstPos = (u64, u32);

/// The position of a group no row has reached yet.
const UNSEEN: FirstPos = (u64::MAX, u32::MAX);

/// Partitions of a grouped exact-merge partial that has split. A row
/// goes to the partition the top bits of its key hash name — the low
/// bits pick its slot in the partition's table — so each partition
/// holds about 1/16 of the groups and its merge stays in cache. More
/// partitions shrink the merge's tables further but cut a 1024-row
/// morsel into folds too small to pay their per-fold overhead: on a
/// 2-core host, grouping 500k rows into 99k groups, 8 and 16 beat 4, 32
/// and 64.
const PARTITIONS: usize = 16;

/// Groups past which a partial splits into [`PARTITIONS`]. A table this
/// small merges in cache as it is, so an aggregate with fewer groups
/// (TPC-H Q1's 4, Q4's 5, any scalar one) never pays for routing rows.
const SPLIT_GROUPS: usize = 4096;

/// The partition of a key hash: its top `log₂ PARTITIONS` bits.
fn partition(hash: u64) -> usize {
    (hash >> (u64::BITS - PARTITIONS.trailing_zeros())) as usize
}

/// One partition of a [`PartialAgg`] (or all of an unsplit one): a
/// [`GroupFold`] and each of its groups' first-seen position.
struct Part {
    fold: GroupFold,
    /// First-seen position per group id.
    first: Vec<FirstPos>,
}

impl Part {
    fn new(empty: &GroupFold) -> Part {
        Part { fold: empty.clone(), first: Vec::new() }
    }

    /// Fold the rows of morsel `seq` that `sel` names in (see
    /// [`GroupFold::fold_rows`]); the `j`-th is live row `live[j]` of the
    /// morsel, or live row `j` when `live` is `None`.
    fn fold(
        &mut self,
        seq: u64,
        batch: &ColumnBatch,
        cols: &[&ColumnVector],
        sel: Option<&[u32]>,
        hashes: Option<&[u64]>,
        live: Option<&[u32]>,
    ) -> Result<()> {
        self.fold.fold_rows(batch, cols, sel, hashes)?;
        self.first.resize(self.fold.groups(), UNSEEN);
        if self.fold.is_scalar() {
            // One group: there is no order to keep.
            return Ok(());
        }
        // A partial is not fed in monotone seq order: the scheduler's
        // slot pool hands a partial to whichever worker frees up next,
        // so one slot can fold seq 3 before seq 2. Minimizing the
        // first-seen position on *every* row (not just on insert) keeps
        // the recorded position equal to the global first occurrence
        // regardless of fold order.
        for (j, &g) in self.fold.ids().iter().enumerate() {
            let idx = live.map_or(j as u32, |live| live[j]);
            let pos = &mut self.first[g as usize];
            *pos = (*pos).min((seq, idx));
        }
        Ok(())
    }

    /// Combine groups `groups` of another part in.
    fn absorb(&mut self, other: &Part, groups: &[u32]) {
        let map = self.fold.absorb(&other.fold, groups);
        self.first.resize(self.fold.groups(), UNSEEN);
        for (&g, &j) in map.iter().zip(groups) {
            let cur = &mut self.first[g as usize];
            *cur = (*cur).min(other.first[j as usize]);
        }
    }
}

/// A partial grouped-aggregation state in one worker slot of an
/// exact-merge aggregate: the serial operator's own [`GroupFold`] (so
/// accumulator semantics cannot drift from [`crate::HashAggregate`])
/// with its groups' global first-seen positions, which the slots need
/// because they fold morsels out of order. Past [`SPLIT_GROUPS`] groups
/// the fold splits into [`PARTITIONS`] by key hash, and from then on a
/// row goes to the partition its key hash names; a partition's fold is
/// made on its first row. Each morsel charges the clock once,
/// `(hash + update·|aggs|)` per row, as the serial fold does. The
/// ordered sink folds the other aggregates in morsel order into a bare
/// [`GroupFold`], whose group ids are already first-seen.
pub(crate) struct PartialAgg {
    /// The fold a partition starts as; its key table hashes the rows
    /// that route them.
    empty: GroupFold,
    /// One part until the split, then [`PARTITIONS`].
    parts: Vec<Option<Part>>,
    /// Scratch for routing a morsel: each live row's key hash at its
    /// physical row, then the live rows in partition order — their
    /// physical rows and live indices.
    hashes: Vec<u64>,
    sel: Vec<u32>,
    live: Vec<u32>,
}

impl PartialAgg {
    /// A partial over morsels of `schema` (the sink's input schema).
    pub(crate) fn new(schema: &Schema, group_cols: &[usize], aggs: &[AggFunc]) -> Result<Self> {
        let (empty, parts) = (GroupFold::new(schema, group_cols, aggs)?, vec![None]);
        let (hashes, sel, live) = Default::default();
        Ok(PartialAgg { empty, parts, hashes, sel, live })
    }

    /// Fold morsel `seq` in, charging the clock once for all its rows.
    pub(crate) fn update(
        &mut self,
        storage: &Storage,
        seq: u64,
        batch: &ColumnBatch,
    ) -> Result<()> {
        self.empty.charge(storage, batch.len());
        let cols = self.empty.key_columns(batch)?;
        if let [part] = &mut self.parts[..] {
            let part = part.get_or_insert_with(|| Part::new(&self.empty));
            part.fold(seq, batch, &cols, batch.selection(), None, None)?;
            if part.fold.groups() > SPLIT_GROUPS {
                self.split();
            }
            return Ok(());
        }
        // Route the live rows by their key hash: count them per
        // partition, then place them in partition order.
        let PartialAgg { empty, parts, hashes, sel, live } = self;
        hashes.resize(batch.physical_rows(), 0);
        let mut start = [0usize; PARTITIONS + 1];
        for p in batch.live_rows() {
            hashes[p] = empty.hash(&cols, p);
            start[partition(hashes[p]) + 1] += 1;
        }
        for p in 0..PARTITIONS {
            start[p + 1] += start[p];
        }
        let mut at = start;
        sel.resize(batch.len(), 0);
        live.resize(batch.len(), 0);
        for (i, p) in batch.live_rows().enumerate() {
            let k = &mut at[partition(hashes[p])];
            (sel[*k], live[*k]) = (p as u32, i as u32);
            *k += 1;
        }
        for (p, part) in parts.iter_mut().enumerate() {
            let rows = start[p]..start[p + 1];
            if !rows.is_empty() {
                let part = part.get_or_insert_with(|| Part::new(empty));
                let (s, l) = (&sel[rows.clone()], &live[rows]);
                part.fold(seq, batch, &cols, Some(s), Some(hashes), Some(l))?;
            }
        }
        Ok(())
    }

    /// Split an unsplit partial into [`PARTITIONS`]: each group moves to
    /// the partition its stored key hash names.
    fn split(&mut self) {
        let Some(whole) = std::mem::take(&mut self.parts).into_iter().next().flatten() else {
            self.parts = (0..PARTITIONS).map(|_| None).collect();
            return;
        };
        let mut groups = vec![Vec::new(); PARTITIONS];
        for (g, &hash) in whole.fold.key_hashes().iter().enumerate() {
            groups[partition(hash)].push(g as u32);
        }
        let split = |groups: Vec<u32>| {
            (!groups.is_empty()).then(|| {
                let mut part = Part::new(&self.empty);
                part.absorb(&whole, &groups);
                part
            })
        };
        self.parts = groups.into_iter().map(split).collect();
    }

    /// Merge every slot's partial into the first slot's: unsplit
    /// partials as they are while none has split, else partition by
    /// partition — each slot's partition `p` into the first's partition
    /// `p`, so the table absorbing them stays in cache (order-independent:
    /// the caller guarantees every aggregate merges exactly). `None` when
    /// there is no slot.
    pub(crate) fn merge(mut slots: Vec<PartialAgg>) -> Option<PartialAgg> {
        if slots.iter().any(|slot| slot.parts.len() > 1) {
            slots.iter_mut().filter(|slot| slot.parts.len() == 1).for_each(PartialAgg::split);
        }
        let mut slots = slots.into_iter();
        let mut merged = slots.next()?;
        let mut rest: Vec<_> = slots.map(|slot| slot.parts).collect();
        for (p, mine) in merged.parts.iter_mut().enumerate() {
            for theirs in rest.iter_mut().filter_map(|parts| parts[p].take()) {
                match mine {
                    Some(mine) => {
                        mine.absorb(&theirs, &Vec::from_iter(0..theirs.first.len() as u32))
                    }
                    None => *mine = Some(theirs),
                }
            }
        }
        Some(merged)
    }

    /// Emit the groups in global first-seen order, cut into batches of
    /// `rows` (a scalar aggregate over empty input still yields one row,
    /// as in the serial operator): the partitions' groups ordered by
    /// `(seq, idx)` in linear passes, then one gather per column and
    /// batch.
    pub(crate) fn finish(self, rows: usize) -> Result<Vec<ColumnBatch>> {
        let mut parts: Vec<Part> = self.parts.into_iter().flatten().collect();
        if self.empty.is_scalar() {
            return Ok(vec![parts.pop().map_or(self.empty, |part| part.fold).finish(None)?]);
        }
        let order = first_seen_order(&parts)?;
        let mut groups = self.empty.finish(None)?;
        for part in parts {
            groups.append_dense(part.fold.finish(None)?);
        }
        let gather = |chunk: &[u32]| {
            let mut out = ColumnBatch::like(&groups);
            out.append_gather(&groups, chunk);
            out
        };
        Ok(order.chunks(rows.max(1)).map(gather).collect())
    }
}

/// The groups of `parts` listed one after another (group `g` of a
/// partition is its offset plus `g`), in `(seq, idx)` order without a
/// comparison sort, in three linear passes over them: one counts each
/// morsel `seq`'s widest `idx`, which lays the morsels out one after
/// another as a bitmap; one marks every group's position in it; one
/// places each group at the count of marks before its own. Every
/// position is seen (no group exists before a row reaches it), and no
/// two groups share one.
fn first_seen_order(parts: &[Part]) -> Result<Vec<u32>> {
    let firsts = || parts.iter().flat_map(|part| &part.first);
    let groups: usize = parts.iter().map(|part| part.first.len()).sum();
    if groups > u32::MAX as usize {
        return Err(Error::exec("aggregate exceeds u32::MAX groups"));
    }
    // `base[seq]`: the first bitmap word of morsel `seq`.
    let mut base = vec![0usize];
    for &(seq, idx) in firsts() {
        let seq = seq as usize + 1;
        if seq >= base.len() {
            base.resize(seq + 1, 0);
        }
        base[seq] = base[seq].max(idx as usize / 64 + 1);
    }
    for s in 1..base.len() {
        base[s] += base[s - 1];
    }
    let bit = |&(seq, idx): &FirstPos| base[seq as usize] * 64 + idx as usize;
    let mut bits = vec![0u64; base[base.len() - 1]];
    firsts().map(bit).for_each(|b| bits[b / 64] |= 1 << (b % 64));
    let below: Vec<u32> =
        bits.iter().scan(0, |n, word| Some(std::mem::replace(n, *n + word.count_ones()))).collect();
    let mut order = vec![0u32; groups];
    for (g, b) in firsts().map(bit).enumerate() {
        let place = below[b / 64] + (bits[b / 64] & ((1 << (b % 64)) - 1)).count_ones();
        order[place as usize] = g as u32;
    }
    Ok(order)
}

/// What the source hands a worker under the lock.
pub(crate) enum SourceItem {
    /// A page run still to be probed + decoded (worker-side CPU), and the
    /// heap source's inspector the claiming worker does that with.
    Pages(Vec<(PageId, PageBuf)>, Box<FullTableScan>),
    /// A ready columnar morsel pulled from a shared operator.
    Batch(ColumnBatch),
}

/// One phase of a traced query as the scheduler ran it: its morsels'
/// sections summed by kind. All values are virtual nanoseconds off the
/// shared clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct LedgerPhase {
    /// Source sections (I/O + in-lock CPU) — serialized on the source
    /// lock.
    pub src_ns: u64,
    /// Worker-side sections (decode, stages, a build's hashing charge
    /// or the exact partial aggregation) — these fan out across the
    /// pool.
    pub proc_ns: u64,
    /// Ordered-sink sections (the order-preserving aggregate fold when
    /// the merge is not exact, a sort's run cuts, which are charges
    /// only) — a second serialized resource. Zero for every build: its
    /// inserts charge nothing.
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
    /// The phases in the query's order. The driver runs each to
    /// completion before the next starts, so the model barriers between
    /// them too.
    pub phases: Vec<LedgerPhase>,
    /// Serial time after a phase's last morsel, summed over the phases:
    /// the final pass of each fold ([`SinkSpec::Sort`]'s sort, an
    /// aggregate's finish) — one thread, after every worker drained.
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

    /// Modeled speedup of the phases before the last alone — what the
    /// partitioned parallel builds (and breakers below the root) buy.
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
    /// The one walk of every stage chain, in phase order: each phase's
    /// schemas, its source's first, then the one each stage emits
    /// (projections prune, probes splice in the probed build's payload
    /// schema), so a phase's last is its staged output. The scheduler
    /// runs each chain with these schemas. Every plan error a pipeline
    /// can carry surfaces here, before anything is queued: an `Output`
    /// source that does not follow a phase which does not build, a probe
    /// that does not probe an earlier build, a build no later stage
    /// probes, a last phase that builds, a bad projection, a build key or
    /// an aggregate column out of range.
    pub fn staged_schemas(&self) -> Result<Vec<Vec<Schema>>> {
        let mut staged: Vec<Vec<Schema>> = Vec::with_capacity(self.phases.len());
        // What the previous phase hands an `Output` source (`None`: a build).
        let mut output: Option<Schema> = None;
        // Builds no stage has probed yet: the phase that probes a table
        // settles it as it ends, so every build needs one.
        let mut unprobed: Vec<usize> = Vec::new();
        for (i, phase) in self.phases.iter().enumerate() {
            let mut schema = match (&phase.source, output.take()) {
                (ParallelSource::Heap(scan), _) => scan.schema().clone(),
                (ParallelSource::Shared { op }, _) => op.schema().clone(),
                (ParallelSource::Output, Some(output)) => output,
                (ParallelSource::Output, None) => {
                    return Err(Error::plan(format!("no output for phase {i} to read")))
                }
            };
            let mut schemas = vec![schema.clone()];
            for stage in &phase.stages {
                match stage {
                    StageSpec::Filter(_) => {}
                    StageSpec::Project(cols) => schema = schema.project(cols)?,
                    StageSpec::Probe(b) => {
                        let (Some(SinkSpec::Build(build)), Some(payload)) = (
                            self.phases[..i].get(*b).map(|p| &p.sink),
                            staged.get(*b).and_then(|s| s.last()),
                        ) else {
                            return Err(Error::plan(format!(
                                "probe stage references phase {b}, not an earlier build"
                            )));
                        };
                        schema = join_schema(&schema, payload, build.ty)
                            .narrow(build.emit.as_deref())?;
                        unprobed.retain(|u| u != b);
                    }
                }
                schemas.push(schema.clone());
            }
            output = match &phase.sink {
                SinkSpec::Build(build) if build.right_col >= schema.len() => {
                    let col = build.right_col;
                    return Err(Error::plan(format!(
                        "hash-join build key column {col} out of range"
                    )));
                }
                SinkSpec::Build(_) if i + 1 == self.phases.len() => {
                    return Err(Error::plan("the last phase feeds the result; it cannot build"));
                }
                SinkSpec::Build(_) => {
                    unprobed.push(i);
                    None
                }
                // Validates exactly like `HashAggregate::new`.
                SinkSpec::Aggregate { group_cols, aggs } => {
                    Some(crate::agg::output_schema(&schema, group_cols, aggs)?)
                }
                SinkSpec::Collect | SinkSpec::Sort { .. } => Some(schema),
            };
            staged.push(schemas);
        }
        match (staged.is_empty(), unprobed.first()) {
            (true, _) => Err(Error::plan("a pipeline needs the phase that feeds its result")),
            (false, Some(b)) => Err(Error::plan(format!("build {b} is never probed"))),
            (false, None) => Ok(staged),
        }
    }
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
    assert_send::<StageSpec>();
    assert_send::<Storage>();
    assert_send::<BoxedOperator>();
    assert_send::<JoinBuildTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::operator::{collect_rows, ValuesOp};
    use crate::sort::SortKey;
    use crate::{batch_size, Filter, FullTableScan, HashAggregate, HashJoin, Project};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, StorageConfig};
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

    /// A shared-source build phase over `rows`.
    fn values_build(
        schema: &Schema,
        rows: &[Row],
        right_col: usize,
        left_col: usize,
        ty: JoinType,
    ) -> PhaseSpec {
        PhaseSpec {
            source: ParallelSource::Shared {
                op: Box::new(ValuesOp::new(schema.clone(), rows.to_vec())),
            },
            stages: Vec::new(),
            sink: SinkSpec::Build(PhaseBuild { right_col, left_col, ty, emit: None }),
        }
    }

    fn heap_source(heap: &Arc<HeapFile>, s: &Storage, predicate: Predicate) -> ParallelSource {
        ParallelSource::Heap(Box::new(FullTableScan::new(Arc::clone(heap), s.clone(), predicate)))
    }

    /// `phases`, then a heap scan of `heap` through `stages` into a
    /// collect sink, under the default budget (the serial operators').
    fn heap_pipeline(
        heap: &Arc<HeapFile>,
        s: &Storage,
        mut phases: Vec<PhaseSpec>,
        stages: Vec<StageSpec>,
    ) -> ParallelPipeline {
        let source = heap_source(heap, s, Predicate::True);
        phases.push(PhaseSpec { source, stages, sink: SinkSpec::Collect });
        let (storage, mem_bytes) = (s.clone(), crate::spill::mem_budget_bytes());
        ParallelPipeline { phases, storage, morsel_rows: batch_size(), mem_bytes }
    }

    /// `pipeline` with its last phase ending in `sink`.
    fn ending_in(mut pipeline: ParallelPipeline, sink: SinkSpec) -> ParallelPipeline {
        pipeline.phases.last_mut().expect("a phase").sink = sink;
        pipeline
    }

    /// A heap-source build phase on `c1`.
    fn heap_build(heap: &Arc<HeapFile>, s: &Storage, pred: Predicate, ty: JoinType) -> PhaseSpec {
        let build = PhaseBuild { right_col: 1, left_col: 1, ty, emit: None };
        PhaseSpec {
            source: heap_source(heap, s, pred),
            stages: Vec::new(),
            sink: SinkSpec::Build(build),
        }
    }

    /// Trace `make`'s pipeline under a collect, an ordered-fold
    /// aggregate and a sort sink — between them every sink-side ledger
    /// field is exercised — both as it is and sorted first, the sort's
    /// output read by a phase of its own that ends in that sink. Each
    /// runs unbudgeted (spill I/O is charged outside the per-morsel
    /// sections the ledger sums). Hand `check` each unsorted ledger once
    /// it reconciles with the clock of the run it traced: a trace site
    /// missing from the scheduler fails here.
    fn traced_under_each_sink(
        make: impl Fn(&Storage) -> ParallelPipeline,
        check: impl Fn(&ScalingLedger),
    ) {
        let sinks = || {
            [
                SinkSpec::Collect,
                // A float sum never merges exactly: the ordered fold.
                SinkSpec::Aggregate {
                    group_cols: vec![1],
                    aggs: vec![AggFunc::CountStar, AggFunc::Sum(3)],
                },
                SinkSpec::Sort { keys: vec![SortKey::asc(1)] },
            ]
        };
        for (nested, sink) in [false, true].into_iter().flat_map(|n| sinks().map(|s| (n, s))) {
            let (folds, sorts) =
                (matches!(sink, SinkSpec::Aggregate { .. }), matches!(sink, SinkSpec::Sort { .. }));
            let s = storage();
            let mut pipeline = ParallelPipeline { mem_bytes: 0, ..make(&s) };
            let scanned = pipeline.phases.len() - 1;
            if nested {
                pipeline.phases[scanned].sink = SinkSpec::Sort { keys: vec![SortKey::asc(0)] };
                let (source, stages) = (ParallelSource::Output, Vec::new());
                pipeline.phases.push(PhaseSpec { source, stages, sink: SinkSpec::Collect });
            }
            let (rows, ledger) = run_pipeline_traced(ending_in(pipeline, sink)).unwrap();
            assert!(!rows.is_empty());
            let last = ledger.phases.last().expect("the last phase is always recorded");
            assert!(ledger.phases[scanned].src_ns > 0, "the scan phase's source sections");
            assert_eq!(ledger.total_ns(), s.clock().snapshot().total_ns(), "ledger vs clock");
            assert_eq!(last.sink_ns > 0, folds, "ordered-sink sections");
            assert_eq!(ledger.suffix_ns > 0, sorts || nested, "sort suffix");
            // One worker's makespan is exactly the serial total.
            assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
            if !nested {
                check(&ledger);
            }
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
                    sink: SinkSpec::Collect,
                }],
                storage: s_par.clone(),
                morsel_rows: batch_size(),
                mem_bytes: 0,
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
            let builds = vec![heap_build(&build, &s_par, pred.clone(), JoinType::Inner)];
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
            let sink = SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() };
            let pipeline = ending_in(heap_pipeline(&heap, &s_par, Vec::new(), Vec::new()), sink);
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "groups diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    /// On [`crate::hashtable::KeyTable::degenerate`] every key hashes to
    /// 0, so every row lands in partition 0. Two slots fold the morsels
    /// interleaved and out of seq order, some under a reversed selection
    /// vector; one splits after its first morsel (as past
    /// [`SPLIT_GROUPS`]) and routes the rest, the other splits in the
    /// merge. The merged partial still emits the serial fold's groups,
    /// in first-seen order, for the same charges.
    #[test]
    fn degenerate_partial_routes_every_key_to_one_partition() {
        let schema =
            Schema::new(vec![Column::new("g", DataType::Int64), Column::new("v", DataType::Int64)])
                .unwrap();
        let morsels = Vec::from_iter((0..6i64).map(|m| {
            let rows = Vec::from_iter(
                (0..40).map(|i| Row::new(vec![Value::Int((m * 40 + i) * 7 % 50), Value::Int(i)])),
            );
            let mut batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
            if m % 3 == 1 {
                batch.set_selection(Vec::from_iter((0..40).rev().step_by(2)));
            }
            batch
        }));
        let (group_cols, aggs) = (vec![0], vec![AggFunc::CountStar, AggFunc::Sum(1)]);
        let degenerate = || {
            let mut partial = PartialAgg::new(&schema, &group_cols, &aggs).unwrap();
            partial.empty.degenerate_hash(&schema);
            partial
        };
        let (s_serial, s_par) = (storage(), storage());
        let mut serial = degenerate().empty;
        morsels.iter().for_each(|batch| serial.update(&s_serial, batch).unwrap());
        let expected = serial.finish(None).unwrap().into_rows();
        let (mut even, mut odd) = (degenerate(), degenerate());
        for (seq, batch) in morsels.iter().enumerate().rev() {
            let slot = if seq % 2 == 0 { &mut even } else { &mut odd };
            slot.update(&s_par, seq as u64, batch).unwrap();
            if seq == 4 {
                even.split();
            }
        }
        let used = Vec::from_iter(even.parts.iter().map(Option::is_some));
        assert_eq!(used, Vec::from_iter((0..PARTITIONS).map(|p| p == 0)));
        assert_eq!(odd.parts.len(), 1, "50 groups stay unsplit");
        let merged = PartialAgg::merge(vec![even, odd]).unwrap().finish(16).unwrap();
        assert!(merged.iter().all(|batch| batch.len() <= 16));
        assert_eq!(
            merged.into_iter().flat_map(ColumnBatch::into_rows).collect::<Vec<_>>(),
            expected
        );
        assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
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
            let sink = SinkSpec::Aggregate { group_cols: group_cols.clone(), aggs: aggs.clone() };
            let pipeline = ending_in(heap_pipeline(&heap, &s_par, Vec::new(), Vec::new()), sink);
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
            let builds = vec![heap_build(&build, &s, Predicate::True, JoinType::Inner)];
            let pipeline = heap_pipeline(&heap, &s, builds, vec![StageSpec::Probe(0)]);
            let err = run_pipeline(ParallelPipeline { mem_bytes, ..pipeline }, 1).unwrap_err();
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
                let builds = vec![heap_build(&build, s, Predicate::True, JoinType::Inner)];
                heap_pipeline(&probe, s, builds, vec![StageSpec::Probe(0)])
            },
            |ledger| {
                let [build, probe] = &ledger.phases[..] else {
                    panic!("one build phase, then the probe phase: {ledger:?}");
                };
                assert!(build.src_ns > 0 && build.proc_ns > 0, "build morsels recorded");
                assert_eq!(build.sink_ns, 0, "a build's inserts charge nothing");
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
                .map(|heap| heap_build(heap, s, pred.clone(), JoinType::LeftSemi));
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
