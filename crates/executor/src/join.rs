//! Join operators: Hash and Index-Nested-Loop.
//!
//! The paper's Fig. 4 queries use nested-loop joins with primary-key index
//! lookups (Q4, Q14) and hash joins (Q7). A merge join is a plan shape,
//! not an operator: the planner runs `JoinStrategy::Merge` as a hash join
//! under a stable sort on the left key, which emits the rows a merge join
//! over sorted inputs would, in its order.
//!
//! Both are columnar end to end: typed key vectors, column-wise
//! gathers into one [`ColumnBuffer`] that `next_columns` and its one-row
//! view drain (the index join's decode path is described at its
//! definition and in `docs/ARCHITECTURE.md`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use smooth_index::BTreeIndex;
use smooth_storage::{HeapFile, PageBuf, PageView, Session, Storage};
use smooth_types::{
    ColumnBatch, ColumnBuffer, ColumnValues, ColumnVector, Error, Result, Row, Schema, SlotId, Tid,
};

use crate::expr::{Predicate, ScanFilter};
use crate::hashtable::KeyTable;
use crate::operator::{batch_size, BoxedOperator, Operator};
use crate::scan::slot_tuples;
use crate::spill::{charge_spill_io, charge_spill_write};

/// Supported join semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit concatenated pairs for every match.
    Inner,
    /// Emit each left row once if at least one match exists (EXISTS).
    LeftSemi,
}

pub(crate) fn join_schema(left: &Schema, right: &Schema, ty: JoinType) -> Schema {
    match ty {
        JoinType::Inner => left.join(right),
        JoinType::LeftSemi => left.clone(),
    }
}

/// `, emit n of m` — how many of a join's `m` columns it emits — for its
/// `EXPLAIN` label; empty when it emits them all.
fn emit_label(emit: Option<&[usize]>, left: &Schema, right: &Schema, ty: JoinType) -> String {
    let joined = left.len() + if ty == JoinType::Inner { right.len() } else { 0 };
    emit.map_or_else(String::new, |e| format!(", emit {} of {joined}", e.len()))
}

/// Spill partitions per build table: the unit [`JoinBuildTable::
/// apply_budget`] sizes and spills, and what probe rows are routed by
/// once something has spilled. Fixed (rather than derived from the
/// worker count) so every driver spills the identical partitions;
/// [`JoinBuildTable::with_partitions`] exists for tests.
pub const BUILD_PARTITIONS: usize = 64;

/// Grace-join recursion fan-out: how many sub-partitions an overflowing
/// spilled partition re-partitions into, per level.
const GRACE_FANOUT: usize = 8;

/// Chain terminator / "no build row".
const NIL: u32 = u32::MAX;

#[inline]
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable spill-partition hash of the (non-null) join key in slot `idx`
/// of `key`, salted by grace-recursion `level`: level 0 is the
/// top-level build partitioning, level `n ≥ 1` re-partitions an
/// overflowing spilled partition's keys independently of every level
/// above it (same FNV walk over the key's type tag and bytes,
/// level-perturbed offset basis). Only spill accounting uses it — the
/// probe index is the [`KeyTable`].
#[inline]
fn key_partition_at(key: &ColumnVector, idx: usize, level: u32, parts: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    debug_assert!(!key.is_null(idx), "null keys never reach the build table");
    let offset = OFFSET ^ (level as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h = match key.values() {
        ColumnValues::Int(v) => fnv(fnv(offset, &[1]), &v[idx].to_le_bytes()),
        ColumnValues::Float(v) => fnv(fnv(offset, &[2]), &v[idx].to_bits().to_le_bytes()),
        ColumnValues::Str(v) => fnv(fnv(offset, &[3]), v.bytes_at(idx)),
    };
    (h % parts as u64) as usize
}

/// Grace-recursion tree node for one spilled partition: modeled
/// sub-partition sizes for the charged repartition passes, plus
/// order-independent probe-overflow tallies the probe loop accumulates
/// (atomic sums, so parallel workers race freely without perturbing the
/// final charge).
struct GraceNode {
    /// Recursion level (the spilled top-level partition is level 0).
    level: u32,
    /// Encoded build bytes in this node's key range.
    bytes: u64,
    /// Build tuples in this node's key range.
    tuples: u64,
    /// [`GRACE_FANOUT`] children when this node overflowed the
    /// budget and re-partitioned; empty for a leaf.
    children: Vec<GraceNode>,
    /// Probe rows routed through this node's key range (leaves only).
    probe_rows: AtomicU64,
    /// Encoded probe bytes routed through this node (leaves only).
    probe_bytes: AtomicU64,
}

/// Spill state of one over-budget [`JoinBuildTable`]: the grace trees
/// of the spilled top-level partitions.
struct GraceSpill {
    /// `trees[p]` is `Some` exactly when top-level partition `p`
    /// spilled.
    trees: Vec<Option<GraceNode>>,
    /// One-shot latch for [`JoinBuildTable::finish_probe`].
    finished: AtomicBool,
}

/// The columnar build side of a hash join: payload rows stored as typed
/// [`ColumnVector`]s in one dense [`ColumnBatch`] — no `Vec<Row>`
/// anywhere — indexed by a [`KeyTable`] over the key column. Each
/// distinct key is one table entry with the `head` and `tail` of a
/// chain through `next` (one link per build row), and rows join their
/// key's chain in **global build order**, so walking a chain yields a
/// key's matches exactly in the order a serial build ingested them.
///
/// Probing is two-phase ([`JoinBuildTable::probe_columns`]): one walk
/// over the probe key column collects `(probe row, build row)` index
/// vectors, then every output column gathers in one typed loop
/// ([`ColumnVector::extend_gather`]).
///
/// # Build lifecycle
///
/// 1. **Ingest** — [`JoinBuildTable::insert_batch`] (serial, in input
///    order) appends non-null-key payload rows and links them; under
///    the scheduler each worker slot only appends
///    ([`JoinBuildPartial::fold`]) and remembers every row's global
///    build position, and [`JoinBuildTable::from_partials`] links the
///    concatenated rows in position order. From here the table answers
///    probes identically no matter which driver built it.
/// 2. **Budget** — [`JoinBuildTable::apply_budget`] assigns every build
///    row to one of [`BUILD_PARTITIONS`] *spill partitions*
///    (`key_partition_at` level 0 — partitions exist only for spill
///    accounting, the probe index is not partitioned), sizes them under
///    the spill codec and, if the total exceeds the operator's memory
///    budget, spills whole partitions largest-first (ties to the lowest
///    index) until the retained set fits. A spilled partition is
///    charged one overflow-file write of its encoded bytes and becomes
///    a grace tree: while a (sub-)partition still
///    exceeds the budget it re-partitions into
///    `GRACE_FANOUT` (8) children under a level-salted
///    hash, and each repartition pass charges a re-read and re-write of
///    the bytes it moves.
/// 3. **Probe** — [`JoinBuildTable::probe_columns`] routes each probe
///    row whose key hashes to a spilled partition down that partition's
///    grace tree, tallying the probe-overflow bytes that must spool to
///    the partition's probe file (order-independent atomic sums).
/// 4. **Finalize** — [`JoinBuildTable::finish_probe`] (idempotent)
///    charges the deferred join passes: the probe overflow written,
///    re-partitioned alongside the build files, and each leaf pair
///    re-read to join.
///
/// Spilled partitions keep their rows where they are, in the one
/// payload batch — a spill is its charge, as for the external sort and
/// the Result Cache — so probe results stay byte-identical to the
/// unbudgeted run by construction while the virtual clock pays the full
/// grace-join I/O. See `docs/larger_than_memory.md`.
pub struct JoinBuildTable {
    /// Distinct keys; entry id indexes `head` / `tail`.
    keys: KeyTable,
    /// First build row of each key's chain.
    head: Vec<u32>,
    /// Last build row of each key's chain (where the next row links).
    tail: Vec<u32>,
    /// `next[r]` is the build row after `r` with the same key, or `NIL`.
    next: Vec<u32>,
    /// Payload columns, one slot per stored build row.
    payload: ColumnBatch,
    /// Build-side schema (column typing of the payload batch).
    schema: Schema,
    key_col: usize,
    /// Spill partition count.
    partitions: usize,
    /// Budget-overflow state, set by [`JoinBuildTable::apply_budget`].
    spill: Option<GraceSpill>,
}

impl JoinBuildTable {
    /// An empty build table keyed on `key_col` of `schema`, with the
    /// default [`BUILD_PARTITIONS`] spill partitions.
    pub fn new(schema: &Schema, key_col: usize) -> Self {
        Self::with_partitions(schema, key_col, BUILD_PARTITIONS)
    }

    /// An empty build table with an explicit spill-partition count
    /// (probe results are independent of it; the count only decides
    /// what a budget spills).
    pub fn with_partitions(schema: &Schema, key_col: usize, partitions: usize) -> Self {
        let key_type = schema.columns().get(key_col).map(|c| c.ty);
        Self::with_key_table(schema, key_col, partitions, KeyTable::new(key_type))
    }

    /// A build table on [`KeyTable::degenerate`] (collision-chain and
    /// growth torture for the kernel property tests; results must not
    /// change).
    #[doc(hidden)]
    pub fn with_degenerate_hash(schema: &Schema, key_col: usize) -> Self {
        let key_type = schema.columns().get(key_col).map(|c| c.ty);
        Self::with_key_table(schema, key_col, BUILD_PARTITIONS, KeyTable::degenerate(key_type))
    }

    fn with_key_table(schema: &Schema, key_col: usize, partitions: usize, keys: KeyTable) -> Self {
        JoinBuildTable {
            keys,
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            payload: ColumnBatch::for_schema(schema),
            schema: schema.clone(),
            key_col,
            partitions: partitions.max(1),
            spill: None,
        }
    }

    /// Link the partial builds of one parallel build phase into a
    /// table: payloads concatenate (whole-buffer handoff), then rows
    /// join their key chains in global build position order — so the
    /// table answers probes exactly like a serial build of the same
    /// input, no matter which slot folded which morsel or in what
    /// order. Charge-free, like the serial linking it reproduces.
    pub fn from_partials(
        schema: &Schema,
        key_col: usize,
        partitions: usize,
        partials: Vec<JoinBuildPartial>,
    ) -> Self {
        let mut table = Self::with_partitions(schema, key_col, partitions);
        let mut order: Vec<(u64, u32)> = Vec::new();
        for JoinBuildPartial { payload, positions, .. } in partials {
            let base = table.payload.physical_rows() as u32;
            order.extend(positions.into_iter().zip(base..));
            table.payload.append_dense(payload);
        }
        order.sort_unstable();
        table.link(order.into_iter().map(|(_, row)| row));
        table
    }

    /// The build-side schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Key ordinal in the build rows.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Spill partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// Total build rows stored (null-key rows are never stored).
    pub fn len(&self) -> usize {
        self.payload.physical_rows()
    }

    /// `true` when no build row is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all contents, keeping the schema and partition count.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.head.clear();
        self.tail.clear();
        self.next.clear();
        self.payload = ColumnBatch::for_schema(&self.schema);
        self.spill = None;
    }

    /// Ingest one morsel of build input (the serial build path): null-key
    /// rows are dropped, everything else appends to the payload columns —
    /// dense batches by whole-buffer handoff, selected batches by one
    /// gather per column — and links into its key's chain.
    pub fn insert_batch(&mut self, batch: ColumnBatch) -> Result<()> {
        if batch.width() != self.schema.len() {
            return Err(Error::exec(format!(
                "build batch of {} columns for a {}-column table",
                batch.width(),
                self.schema.len()
            )));
        }
        batch.column_checked(self.key_col)?;
        let base = self.payload.physical_rows() as u32;
        append_keyed_rows(&mut self.payload, batch, self.key_col, |_| ());
        self.link(base..self.payload.physical_rows() as u32);
        Ok(())
    }

    /// Append the (already stored) payload `rows` to their keys' chains,
    /// in the order given — which must be global build order.
    fn link(&mut self, rows: impl Iterator<Item = u32>) {
        let JoinBuildTable { keys, head, tail, next, payload, key_col, .. } = self;
        assert!(payload.physical_rows() < NIL as usize, "hash-join build row ids exhausted");
        if payload.physical_rows() == 0 {
            return;
        }
        next.resize(payload.physical_rows(), NIL);
        let key = [payload.column(*key_col)];
        for row in rows {
            let entry = keys.intern(&key, row as usize) as usize;
            if entry == head.len() {
                head.push(row);
                tail.push(row);
            } else {
                next[tail[entry] as usize] = row;
                tail[entry] = row;
            }
        }
    }

    /// [`JoinBuildTable::probe_emit`] emitting every column.
    pub fn probe_columns(
        &self,
        storage: &Storage,
        batch: &ColumnBatch,
        probe_col: usize,
        ty: JoinType,
        out: &mut ColumnBatch,
    ) -> Result<()> {
        self.probe_emit(storage, batch, probe_col, ty, None, out)
    }

    /// Probe one columnar morsel, gathering every match into `out`:
    /// matches in global build order, null probe keys never match. The
    /// join's columns are `probe columns ++ payload columns` for an
    /// inner join and the probe columns alone for a semi join; `out` is
    /// typed for the ones `emit` lists (strictly ascending ordinals of
    /// them — validated where the join's schema is, [`Schema::narrow`]),
    /// all of them when `None`, and no other column is gathered.
    /// Charges one hash op per live probe row and one emit per produced
    /// row, each as **one charge per morsel** — addition commutes, so
    /// totals equal the per-row charges they replace. Both the serial
    /// [`HashJoin`] and the parallel driver's probe stage call this —
    /// the probe charge model lives in exactly one place.
    pub fn probe_emit(
        &self,
        storage: &Storage,
        batch: &ColumnBatch,
        probe_col: usize,
        ty: JoinType,
        emit: Option<&[usize]>,
        out: &mut ColumnBatch,
    ) -> Result<()> {
        let cpu = *storage.cpu();
        let key = batch.column_checked(probe_col)?;
        storage.clock().charge_cpu(cpu.hash_op_ns * batch.len() as u64);
        // Phase 1: one walk over the key column collects the output as
        // index vectors.
        let mut probe_rows: Vec<u32> = Vec::with_capacity(batch.len());
        let mut build_rows: Vec<u32> =
            Vec::with_capacity(if ty == JoinType::Inner { batch.len() } else { 0 });
        for phys in batch.live_rows() {
            if key.is_null(phys) {
                continue;
            }
            if let Some(spill) = &self.spill {
                self.note_probe_row(spill, key, batch, phys);
            }
            let Some(entry) = self.keys.find(&[key], phys) else { continue };
            match ty {
                JoinType::Inner => {
                    let mut row = self.head[entry as usize];
                    while row != NIL {
                        probe_rows.push(phys as u32);
                        build_rows.push(row);
                        row = self.next[row as usize];
                    }
                }
                JoinType::LeftSemi => probe_rows.push(phys as u32),
            }
        }
        storage.clock().charge_cpu(cpu.emit_tuple_ns * probe_rows.len() as u64);
        // Phase 2: gather every emitted column in one typed loop — a
        // probe column off the morsel, a payload column off the table.
        let left_width = batch.width();
        let gather = |dst: &mut ColumnVector, c: usize| -> Result<()> {
            match c.checked_sub(left_width) {
                None => dst.extend_gather(batch.column_checked(c)?, &probe_rows),
                Some(c) => dst.extend_gather(self.payload.column_checked(c)?, &build_rows),
            }
            Ok(())
        };
        let cols = out.columns_mut().iter_mut();
        match emit {
            Some(emit) => cols.zip(emit).try_for_each(|(dst, &c)| gather(dst, c))?,
            None => cols.zip(0..).try_for_each(|(dst, c)| gather(dst, c))?,
        }
        out.commit_rows(probe_rows.len());
        Ok(())
    }

    /// Enforce the operator memory budget on the fully-built table:
    /// assign every build row to its spill partition, size the
    /// partitions under the spill codec and, while the retained total
    /// exceeds `budget_bytes`, spill whole partitions largest-first
    /// (ties to the lowest partition index), each charged as one
    /// overflow-file write, recursing on any partition that alone still
    /// exceeds the budget (see the type-level lifecycle docs).
    /// A zero budget means unlimited: the call is free and charges
    /// nothing. Must run at exactly one deterministic point per build —
    /// after the serial build loop, or after the parallel partials are
    /// linked — so every driver charges identical spill I/O.
    /// Fails only if a spilled partition's overflow-file write fails
    /// (injected `spill_err` faults that exhaust their retries); the
    /// table is left unspilled in that case.
    pub fn apply_budget(&mut self, storage: &Storage, budget_bytes: usize) -> Result<()> {
        self.spill = None;
        if budget_bytes == 0 || self.is_empty() {
            return Ok(());
        }
        let budget = budget_bytes as u64;
        let key = self.payload.column(self.key_col);
        // Build rows per partition, each list in payload order.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.partitions];
        let mut sizes = vec![0u64; self.partitions];
        for r in 0..self.len() {
            let p = key_partition_at(key, r, 0, self.partitions);
            rows[p].push(r as u32);
            sizes[p] += self.build_row_bytes(r as u32);
        }
        let total: u64 = sizes.iter().sum();
        if total <= budget {
            return Ok(());
        }
        // Spill order: largest partition first, ties to the lowest
        // index — deterministic, and frees the most memory per file.
        let mut order: Vec<usize> = (0..sizes.len()).filter(|&p| sizes[p] > 0).collect();
        order.sort_by_key(|&p| (std::cmp::Reverse(sizes[p]), p));
        let mut trees: Vec<Option<GraceNode>> = (0..sizes.len()).map(|_| None).collect();
        let device = storage.device();
        let mut retained = total;
        for p in order {
            if retained <= budget {
                break;
            }
            retained -= sizes[p];
            // The initial spill writes the whole partition once
            // (fault-gated: a failed write fails the build) …
            charge_spill_write(storage, &device, sizes[p], rows[p].len() as u64)?;
            // … and every overflowing (sub-)partition re-reads and
            // re-writes its bytes per recursion level (charged inside).
            trees[p] = Some(self.grace_node(storage, &rows[p], sizes[p], 0, budget));
        }
        self.spill = Some(GraceSpill { trees, finished: AtomicBool::new(false) });
        Ok(())
    }

    /// Encoded spill-codec bytes of build row `r`.
    #[inline]
    fn build_row_bytes(&self, r: u32) -> u64 {
        smooth_types::spill::batch_row_len(&self.payload, r as usize) as u64
    }

    /// Build (and charge) the grace tree over one spilled key range:
    /// an over-budget node re-partitions into [`GRACE_FANOUT`] children under
    /// the next level's salted hash, paying one re-read of its bytes
    /// plus the re-write of every non-empty child. Recursion stops when
    /// a node fits the budget, stops shrinking (one dominant key), or
    /// hits a depth backstop.
    fn grace_node(
        &self,
        storage: &Storage,
        rows: &[u32],
        bytes: u64,
        level: u32,
        budget: u64,
    ) -> GraceNode {
        const MAX_LEVELS: u32 = 12;
        let leaf = GraceNode {
            level,
            bytes,
            tuples: rows.len() as u64,
            children: Vec::new(),
            probe_rows: AtomicU64::new(0),
            probe_bytes: AtomicU64::new(0),
        };
        if bytes <= budget || rows.len() <= 1 || level >= MAX_LEVELS {
            return leaf;
        }
        let key = self.payload.column(self.key_col);
        let mut buckets: Vec<Vec<u32>> = (0..GRACE_FANOUT).map(|_| Vec::new()).collect();
        let mut bucket_bytes = [0u64; GRACE_FANOUT];
        for &r in rows {
            let b = key_partition_at(key, r as usize, level + 1, GRACE_FANOUT);
            buckets[b].push(r);
            bucket_bytes[b] += self.build_row_bytes(r);
        }
        if bucket_bytes.contains(&bytes) {
            // One key range dominates: re-partitioning cannot shrink it.
            return leaf;
        }
        // Repartition pass: re-read this node, re-write the children.
        charge_spill_io(storage, bytes);
        for &b in &bucket_bytes {
            charge_spill_io(storage, b);
        }
        let children = buckets
            .into_iter()
            .zip(bucket_bytes)
            .map(|(rows, b)| self.grace_node(storage, &rows, b, level + 1, budget))
            .collect();
        GraceNode { children, ..leaf }
    }

    /// Route the probe row `phys` of `batch` (non-null key in `key`)
    /// through the grace tree of its spill partition, if that partition
    /// spilled, tallying the probe-overflow bytes its partition's probe
    /// file must spool. Atomic sums: callers may race.
    #[inline]
    fn note_probe_row(
        &self,
        spill: &GraceSpill,
        key: &ColumnVector,
        batch: &ColumnBatch,
        phys: usize,
    ) {
        let Some(root) = &spill.trees[key_partition_at(key, phys, 0, self.partitions)] else {
            return;
        };
        let mut node = root;
        while !node.children.is_empty() {
            node = &node.children[key_partition_at(key, phys, node.level + 1, GRACE_FANOUT)];
        }
        let bytes = smooth_types::spill::batch_row_len(batch, phys) as u64;
        node.probe_rows.fetch_add(1, Ordering::Relaxed);
        node.probe_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Charge the deferred grace passes once the probe input is fully
    /// consumed: per spilled partition, the probe overflow is written,
    /// re-partitioned level by level alongside the build files, and
    /// every leaf pair (build bytes + probe bytes) is re-read for the
    /// final join pass. Idempotent — the first caller wins — and
    /// charge-free when nothing spilled, so every driver may call it
    /// defensively at probe completion.
    /// Fails only if spooling a partition's probe-overflow file fails
    /// (injected `spill_err` faults — the spool is a spill write).
    pub fn finish_probe(&self, storage: &Storage) -> Result<()> {
        let Some(spill) = &self.spill else { return Ok(()) };
        if spill.finished.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        for root in spill.trees.iter().flatten() {
            // Probe overflow spools to the partition's probe file once.
            let bytes = Self::probe_subtree_bytes(root);
            if bytes > 0 {
                let rows = Self::probe_subtree_rows(root);
                charge_spill_write(storage, &storage.device(), bytes, rows)?;
            }
            Self::finish_node(root, storage);
        }
        Ok(())
    }

    /// Total probe rows routed at or below `node`.
    fn probe_subtree_rows(node: &GraceNode) -> u64 {
        if node.children.is_empty() {
            node.probe_rows.load(Ordering::Relaxed)
        } else {
            node.children.iter().map(Self::probe_subtree_rows).sum()
        }
    }

    /// Total probe bytes routed at or below `node`.
    fn probe_subtree_bytes(node: &GraceNode) -> u64 {
        if node.children.is_empty() {
            node.probe_bytes.load(Ordering::Relaxed)
        } else {
            node.children.iter().map(Self::probe_subtree_bytes).sum()
        }
    }

    /// Deferred-pass charges below one spilled partition root: internal
    /// nodes re-read and re-write the probe bytes they re-partition
    /// (mirroring the build-side passes already charged at build time);
    /// leaves re-read their build and probe files to join.
    fn finish_node(node: &GraceNode, storage: &Storage) {
        if node.children.is_empty() {
            charge_spill_io(storage, node.bytes);
            charge_spill_io(storage, node.probe_bytes.load(Ordering::Relaxed));
            return;
        }
        charge_spill_io(storage, Self::probe_subtree_bytes(node));
        for c in &node.children {
            charge_spill_io(storage, Self::probe_subtree_bytes(c));
            Self::finish_node(c, storage);
        }
    }

    /// Number of top-level partitions currently spilled (0 when the
    /// table fits its budget).
    pub fn spilled_partition_count(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.trees.iter().flatten().count())
    }

    /// Encoded bytes written by the initial partition spills (recursion
    /// re-writes not included).
    pub fn spilled_build_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.trees.iter().flatten().map(|t| t.bytes).sum())
    }

    /// Build tuples living in spilled partitions (0 when the table fits
    /// its budget).
    pub fn spilled_build_rows(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.trees.iter().flatten().map(|t| t.tuples).sum())
    }
}

/// Append the live, non-null-key rows of `batch` to `payload` — dense
/// batches by whole-buffer handoff, anything else by one gather per
/// column — calling `kept(live)` with each appended row's index among
/// the batch's live rows, in order.
fn append_keyed_rows(
    payload: &mut ColumnBatch,
    batch: ColumnBatch,
    key_col: usize,
    mut kept: impl FnMut(usize),
) {
    let key = batch.column(key_col);
    if batch.selection().is_none() && !key.nulls().contains(&true) {
        (0..batch.physical_rows()).for_each(kept);
        payload.append_dense(batch);
    } else {
        let mut rows: Vec<u32> = Vec::with_capacity(batch.len());
        for (live, phys) in batch.live_rows().enumerate() {
            if !key.is_null(phys) {
                kept(live);
                rows.push(phys as u32);
            }
        }
        payload.append_gather(&batch, &rows);
    }
}

/// One worker slot's share of a parallel hash-join build: payload rows
/// in fold order plus each row's global build position
/// `(morsel seq << 32 | row-in-morsel)`. Folding only appends — the
/// rows are linked into key chains once, in position order, by
/// [`JoinBuildTable::from_partials`].
pub struct JoinBuildPartial {
    payload: ColumnBatch,
    /// Global build position of each payload row.
    positions: Vec<u64>,
    key_col: usize,
}

impl JoinBuildPartial {
    /// An empty partial for one worker slot.
    pub fn new(schema: &Schema, key_col: usize) -> Self {
        JoinBuildPartial {
            payload: ColumnBatch::for_schema(schema),
            positions: Vec::new(),
            key_col,
        }
    }

    /// Fold one claimed build morsel in; `seq` is the morsel's global
    /// source sequence number. Null-key rows drop.
    pub fn fold(&mut self, seq: u64, batch: ColumnBatch) -> Result<()> {
        batch.column_checked(self.key_col)?;
        let JoinBuildPartial { payload, positions, key_col } = self;
        append_keyed_rows(payload, batch, *key_col, |live| {
            positions.push((seq << 32) | live as u64)
        });
        Ok(())
    }
}

/// Hash join: blocking build over the right input, streaming probe from the
/// left input. Equi-join on one column per side.
///
/// Columnar-native end to end: the build side lives in a
/// [`JoinBuildTable`] (typed key map over payload column vectors — no
/// `Vec<Row>`), probes read keys vector-at-a-time off the probe batch's
/// key column, and matches gather left and right payload columns directly
/// into the output batch without ever concatenating `Row`s.
///
/// `open` is build-first: open the build child, drain it, close it,
/// enforce the budget — and only then open the probe child. So a tree of
/// hash joins opens its leaves in the order the morsel pipeline runs its
/// phases (nested builds, this build, the probe side —
/// [`crate::ParallelPipeline::phases`]): tree and pipeline share one
/// open order by construction, a tree of hash joins has at most one
/// leaf open at a time, and a build that fails never opens the probe
/// side.
pub struct HashJoin {
    left: BoxedOperator,
    right: BoxedOperator,
    left_col: usize,
    ty: JoinType,
    storage: Storage,
    schema: Schema,
    table: JoinBuildTable,
    /// Per-operator memory budget in bytes (0 = unlimited); the build
    /// table spills to overflow files beyond it.
    mem_bytes: usize,
    /// The columns of `left ++ right` this join emits (`None` = all).
    emit: Option<Vec<usize>>,
    /// Pending join output, filled by whole probe morsels.
    out: ColumnBuffer,
}

impl HashJoin {
    /// `left.left_col = right.right_col`; the right side is materialized
    /// into the hash table. The memory budget defaults to the
    /// process-wide [`crate::spill::mem_budget_bytes`] knob.
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        left_col: usize,
        right_col: usize,
        ty: JoinType,
        storage: Storage,
    ) -> Self {
        let schema = join_schema(left.schema(), right.schema(), ty);
        let table = JoinBuildTable::new(right.schema(), right_col);
        let out = ColumnBuffer::for_schema(&schema);
        let mem_bytes = crate::spill::mem_budget_bytes();
        HashJoin { left, right, left_col, ty, storage, schema, table, mem_bytes, emit: None, out }
    }

    /// Builder: emit only the columns `emit` of `left ++ right` (strictly
    /// ascending; `left` alone under a semi join) — no other column is
    /// gathered. The build table still stores every build column.
    pub fn with_emit(mut self, emit: Option<Vec<usize>>) -> Result<Self> {
        let joined = join_schema(self.left.schema(), self.right.schema(), self.ty);
        self.schema = joined.narrow(emit.as_deref())?;
        self.out = ColumnBuffer::for_schema(&self.schema);
        self.emit = emit;
        Ok(self)
    }

    /// Builder: override the operator memory budget (0 = unlimited).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Pull one probe morsel from the left child and run it through the
    /// shared probe loop ([`JoinBuildTable::probe_columns`] — the same
    /// code the parallel driver's probe stage runs), gathering matches
    /// into the output buffer. Returns `false` at probe-side exhaustion.
    fn advance(&mut self, max: usize) -> Result<bool> {
        match self.left.next_columns(max)? {
            Some(batch) => {
                self.table.probe_emit(
                    &self.storage,
                    &batch,
                    self.left_col,
                    self.ty,
                    self.emit.as_deref(),
                    self.out.fill(),
                )?;
                Ok(true)
            }
            None => {
                // Probe input fully consumed: charge the deferred grace
                // passes (idempotent; free when nothing spilled).
                self.table.finish_probe(&self.storage)?;
                Ok(false)
            }
        }
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.right.open()?;
        self.table.clear();
        self.out.reset();
        let cpu_hash = self.storage.cpu().hash_op_ns;
        // Blocking build, drained morsel-at-a-time with bulk clock
        // charges; payload columns ingest by buffer handoff.
        while let Some(batch) = self.right.next_columns(batch_size())? {
            self.storage.clock().charge_cpu(cpu_hash * batch.len() as u64);
            self.table.insert_batch(batch)?;
        }
        self.right.close()?;
        self.table.apply_budget(&self.storage, self.mem_bytes)?;
        // Only now the probe side: see the type's docs.
        self.left.open()
    }

    /// Keys are read vector-at-a-time off the left key column; on a hit
    /// the left columns and the matched payload columns gather straight
    /// into the output vectors, and misses cost one hash probe and
    /// nothing else.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        while self.out.pending() < max && self.advance(max)? {}
        Ok(self.out.pop_columns(max))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        while self.out.is_drained() && self.advance(batch_size())? {}
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.table.finish_probe(&self.storage)?;
        self.table.clear();
        self.out.reset();
        // The build child too: a failed `open` left it open mid-drain.
        self.right.close()?;
        self.left.close()
    }

    fn label(&self) -> String {
        let emit =
            emit_label(self.emit.as_deref(), self.left.schema(), self.right.schema(), self.ty);
        format!("HashJoin({:?}{emit}) [{} ⋈ {}]", self.ty, self.left.label(), self.right.label())
    }
}

/// The inner side of an [`IndexNestedLoopJoin`]: the plain side
/// ([`IndexNestedLoopJoin::new`]) fetches every match through the index;
/// `smooth_core::SmoothInnerPath` caches each page it fetches by key, so
/// the join morphs toward a hash join (Section IV-B).
pub trait InnerPath: Send {
    /// The inner table's schema.
    fn table(&self) -> &Schema;
    /// Decode — and append — only the table columns `decoded` (strictly
    /// ascending), before the first probe.
    fn narrow(&mut self, decoded: &[usize]) -> Result<()>;
    /// Probe the morsel's live, non-NULL `keys` in row order on `s`:
    /// append each match's columns to `inner_cols` and its outer row to
    /// `owners` (a semi join: each outer row at most once, no columns).
    fn probe(
        &mut self,
        s: &mut Session,
        ty: JoinType,
        outer: &ColumnBatch,
        keys: &ColumnVector,
        inner_cols: &mut [ColumnVector],
        owners: &mut Vec<u32>,
    ) -> Result<()>;
    /// What the join's `EXPLAIN` label names as its inner side.
    fn label(&self) -> String;
}

/// Index nested-loop join: for each outer row, probe the inner table's
/// B+-tree and fetch matching heap tuples ("a parameterized path",
/// Section IV-B). The inner fetches are random heap I/O — the pattern that
/// destroys Q12/Q19 in Fig. 1 when the outer cardinality is underestimated.
///
/// The join is columnar end to end: the outer key is read off the typed
/// key vector, its [`InnerPath`] appends the matches' inner columns a
/// morsel at a time, and the outer columns of a whole morsel's matches
/// gather in one pass per column.
pub struct IndexNestedLoopJoin {
    outer: BoxedOperator,
    outer_col: usize,
    /// The outer columns this join emits, ascending.
    outer_emit: Vec<usize>,
    /// `, emit n of m` when narrower than `outer ++ inner`.
    emit_label: String,
    inner: Box<dyn InnerPath>,
    ty: JoinType,
    storage: Storage,
    schema: Schema,
    /// Outer physical row of each joined row of the morsel being probed.
    matched: Vec<u32>,
    /// Pending join output; outer columns first, then (inner joins) the
    /// inner table's.
    out: ColumnBuffer,
}

/// The plain inner side and its per-morsel scratch.
struct IndexProbe {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    /// The inner residual, compiled over the inner table's tuples.
    filter: ScanFilter,
    /// TIDs of the key being probed (reused across keys).
    tids: Vec<Tid>,
    /// The morsel's fetched inner tuples (emptied after every morsel) and
    /// the outer row each was fetched for.
    fetched: Vec<(PageBuf, SlotId)>,
    fetched_for: Vec<u32>,
}

impl InnerPath for IndexProbe {
    fn table(&self) -> &Schema {
        self.heap.schema()
    }

    fn narrow(&mut self, decoded: &[usize]) -> Result<()> {
        self.filter.narrow(self.heap.schema(), Some(decoded)).map(drop)
    }

    /// Descent, leaf walk, TID-ordered heap fetches for every key, as a
    /// key-at-a-time loop issues them — then the residual over every
    /// fetched tuple at once. A semi join inspects as it fetches, so its
    /// first match ends the key's fetches. Feeds no scan statistics.
    fn probe(
        &mut self,
        s: &mut Session,
        ty: JoinType,
        outer: &ColumnBatch,
        keys: &ColumnVector,
        inner_cols: &mut [ColumnVector],
        owners: &mut Vec<u32>,
    ) -> Result<()> {
        let IndexProbe { heap, index, filter, tids, fetched, fetched_for } = self;
        let cpu = *s.cpu();
        fetched_for.clear();
        fetched.clear();
        for row in outer.live_rows().filter(|&row| !keys.is_null(row)) {
            index.probe_into(s, keys.int(row)?, tids);
            for tid in tids.iter() {
                let page = s.read_heap_page(heap, tid.page)?;
                if ty == JoinType::Inner {
                    fetched.push((page, tid.slot));
                    fetched_for.push(row as u32);
                    continue;
                }
                s.release();
                s.charge_cpu(cpu.inspect_tuple_ns);
                if filter.select(&[PageView::new(&page)?.get(tid.slot)?])? == 1 {
                    s.charge_cpu(cpu.emit_tuple_ns);
                    owners.push(row as u32);
                    break;
                }
            }
        }
        s.release();
        let tuples = slot_tuples(fetched)?;
        let emitted = filter.select(&tuples)? as u64;
        s.charge_cpu(cpu.inspect_tuple_ns * tuples.len() as u64 + cpu.emit_tuple_ns * emitted);
        owners.extend(filter.selected().iter().map(|&i| fetched_for[i as usize]));
        filter.gather_selected(&tuples, inner_cols)?;
        fetched.clear(); // hold no page frame between calls
        Ok(())
    }

    fn label(&self) -> String {
        format!("{} via {}", self.heap.name(), self.index.name())
    }
}

impl IndexNestedLoopJoin {
    /// `outer.outer_col = inner.indexed_col` via `inner_index`, on the
    /// plain inner side.
    pub fn new(
        outer: BoxedOperator,
        outer_col: usize,
        inner_heap: Arc<HeapFile>,
        inner_index: Arc<BTreeIndex>,
        inner_residual: Predicate,
        ty: JoinType,
        storage: Storage,
    ) -> Self {
        let (heap, index, tids, fetched, fetched_for) =
            (inner_heap, inner_index, vec![], vec![], vec![]);
        let filter = ScanFilter::new(inner_residual, heap.schema());
        let inner = IndexProbe { heap, index, filter, tids, fetched, fetched_for };
        Self::with_inner(outer, outer_col, Box::new(inner), ty, storage)
    }

    /// `outer.outer_col` joined to the key `inner` probes.
    pub fn with_inner(
        outer: BoxedOperator,
        outer_col: usize,
        inner: Box<dyn InnerPath>,
        ty: JoinType,
        storage: Storage,
    ) -> Self {
        let schema = join_schema(outer.schema(), inner.table(), ty);
        IndexNestedLoopJoin {
            outer_emit: (0..outer.schema().len()).collect(),
            outer,
            outer_col,
            emit_label: String::new(),
            inner,
            ty,
            storage,
            out: ColumnBuffer::for_schema(&schema),
            schema,
            matched: Vec::new(),
        }
    }

    /// Builder: the inner side is the table narrowed to `inner_cols`
    /// (strictly ascending; `None` = all), and of `outer ++ inner` only
    /// the columns `emit` (likewise) are emitted. No other outer column
    /// is gathered, and the inner side decodes exactly the inner columns
    /// that are emitted ([`InnerPath::narrow`]) — under a semi join, none.
    pub fn with_emit(
        mut self,
        inner_cols: Option<&[usize]>,
        emit: Option<&[usize]>,
    ) -> Result<Self> {
        let (outer, inner) = (self.outer.schema(), self.inner.table().narrow(inner_cols)?);
        self.schema = join_schema(outer, &inner, self.ty).narrow(emit)?;
        self.emit_label = emit_label(emit, outer, &inner, self.ty);
        let emitted = emit.map_or_else(|| (0..self.schema.len()).collect(), <[usize]>::to_vec);
        let (outer_emit, inner_emit) =
            emitted.split_at(emitted.partition_point(|&c| c < outer.len()));
        // `narrow(emit)` bounds every ordinal by `outer ++ inner`.
        let decoded: Vec<usize> = inner_emit
            .iter()
            .map(|&c| inner_cols.map_or(c - outer.len(), |cols| cols[c - outer.len()]))
            .collect();
        self.outer_emit = outer_emit.to_vec();
        self.inner.narrow(&decoded)?;
        self.out = ColumnBuffer::for_schema(&self.schema);
        Ok(self)
    }

    /// Pull one outer morsel (so an outer scan reads ahead by whole
    /// morsels) and probe it to completion on one storage session.
    /// Returns `false` at outer exhaustion.
    fn advance(&mut self, max: usize) -> Result<bool> {
        let Some(outer) = self.outer.next_columns(max)? else { return Ok(false) };
        let keys = outer.column_checked(self.outer_col)?;
        let out = self.out.fill();
        let (outer_cols, inner_cols) = out.columns_mut().split_at_mut(self.outer_emit.len());
        self.matched.clear();
        let s = &mut self.storage.session();
        self.inner.probe(s, self.ty, &outer, keys, inner_cols, &mut self.matched)?;
        for (dst, &c) in outer_cols.iter_mut().zip(&self.outer_emit) {
            dst.extend_gather(outer.column_checked(c)?, &self.matched);
        }
        out.commit_rows(self.matched.len());
        Ok(true)
    }
}

impl Operator for IndexNestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.outer.open()?;
        self.out.reset();
        Ok(())
    }

    /// Up to `max` joined rows leave per call.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        while self.out.pending() < max && self.advance(max)? {}
        Ok(self.out.pop_columns(max))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        while self.out.is_drained() && self.advance(batch_size())? {}
        Ok(self.out.pop_row())
    }

    fn close(&mut self) -> Result<()> {
        self.out.reset();
        self.outer.close()
    }

    fn label(&self) -> String {
        format!(
            "IndexNestedLoopJoin({:?}{}) [{} ⋈ {}]",
            self.ty,
            self.emit_label,
            self.outer.label(),
            self.inner.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use smooth_storage::HeapLoader;
    use smooth_types::{Column, DataType, Value};

    fn schema(names: &[&str]) -> Schema {
        Schema::new(names.iter().map(|n| Column::new(*n, DataType::Int64)).collect()).unwrap()
    }

    fn values(name_a: &str, name_b: &str, rows: Vec<(i64, i64)>) -> BoxedOperator {
        Box::new(ValuesOp::new(
            schema(&[name_a, name_b]),
            rows.into_iter().map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)])).collect(),
        ))
    }

    fn storage() -> Storage {
        Storage::default_hdd()
    }

    fn pairs(rows: &[Row]) -> Vec<Vec<i64>> {
        rows.iter().map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect()).collect()
    }

    /// Payload column `col` of `key`'s matches, in chain order (probes
    /// a one-row morsel).
    fn matches(table: &JoinBuildTable, key: Value, col: usize) -> Vec<Value> {
        let key_schema = Schema::new(vec![table.schema().column(table.key_col()).clone()]).unwrap();
        let probe = ColumnBatch::from_rows(&key_schema, &[Row::new(vec![key])]).unwrap();
        let mut out = ColumnBatch::for_schema(&key_schema.join(table.schema()));
        table.probe_columns(&storage(), &probe, 0, JoinType::Inner, &mut out).unwrap();
        out.into_rows().into_iter().map(|r| r.get(1 + col).clone()).collect()
    }

    #[test]
    fn hash_join_inner_matches() {
        let left = values("a", "k", vec![(1, 10), (2, 20), (3, 30), (4, 20)]);
        let right = values("k2", "b", vec![(20, 100), (20, 200), (30, 300)]);
        let mut j = HashJoin::new(left, right, 1, 0, JoinType::Inner, storage());
        let mut rows = pairs(&collect_rows(&mut j).unwrap());
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![2, 20, 20, 100],
                vec![2, 20, 20, 200],
                vec![3, 30, 30, 300],
                vec![4, 20, 20, 100],
                vec![4, 20, 20, 200],
            ]
        );
    }

    #[test]
    fn hash_join_semi_emits_left_once() {
        let left = values("a", "k", vec![(1, 10), (2, 20), (3, 30)]);
        let right = values("k2", "b", vec![(20, 1), (20, 2), (20, 3)]);
        let mut j = HashJoin::new(left, right, 1, 0, JoinType::LeftSemi, storage());
        let rows = collect_rows(&mut j).unwrap();
        assert_eq!(pairs(&rows), vec![vec![2, 20]]);
        assert_eq!(j.schema().len(), 2);
    }

    /// An index join probing `outer`'s second column against `(pk, pk·f)`
    /// for `pk` in `0..n`, indexed on `pk`.
    fn inlj(n: i64, f: i64, outer: Vec<(i64, i64)>, ty: JoinType) -> Vec<Vec<i64>> {
        let mut l = HeapLoader::new_mem("inner", schema(&["pk", "payload"]));
        for i in 0..n {
            l.push(&Row::new(vec![Value::Int(i), Value::Int(i * f)])).unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("pk_idx", &heap, 0).unwrap());
        let outer = values("a", "fk", outer);
        let mut j = IndexNestedLoopJoin::new(outer, 1, heap, index, Predicate::True, ty, storage());
        pairs(&collect_rows(&mut j).unwrap())
    }

    #[test]
    fn inlj_fetches_inner_rows_through_the_index() {
        let rows = inlj(500, 2, vec![(0, 3), (1, 499), (2, 1000)], JoinType::Inner);
        assert_eq!(rows, vec![vec![0, 3, 3, 6], vec![1, 499, 499, 998]]);
    }

    #[test]
    fn inlj_semi_join() {
        let rows = inlj(100, 0, vec![(7, 50), (8, 200)], JoinType::LeftSemi);
        assert_eq!(rows, vec![vec![7, 50]]);
    }

    #[test]
    fn build_table_drops_null_keys_and_keeps_duplicates_in_order() {
        let s =
            Schema::new(vec![Column::new("k", DataType::Int64), Column::new("v", DataType::Int64)])
                .unwrap();
        let rows = [
            Row::new(vec![Value::Int(7), Value::Int(0)]),
            Row::new(vec![Value::Null, Value::Int(1)]),
            Row::new(vec![Value::Int(7), Value::Int(2)]),
            Row::new(vec![Value::Int(3), Value::Int(3)]),
            Row::new(vec![Value::Int(7), Value::Int(4)]),
        ];
        let mut table = JoinBuildTable::new(&s, 0);
        // Two morsels, so match lists span ingest boundaries.
        table.insert_batch(ColumnBatch::from_rows(&s, &rows[..2]).unwrap()).unwrap();
        table.insert_batch(ColumnBatch::from_rows(&s, &rows[2..]).unwrap()).unwrap();
        assert_eq!(table.len(), 4, "null-key row is never stored");
        assert!(matches(&table, Value::Null, 1).is_empty());
        assert!(matches(&table, Value::Int(99), 1).is_empty());
        // Gather in build order: payload v column must read 0, 2, 4.
        let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        assert_eq!(matches(&table, Value::Int(7), 1), ints(&[0, 2, 4]));
        assert_eq!(matches(&table, Value::Int(3), 1), ints(&[3]));
    }

    #[test]
    fn empty_build_yields_no_matches_and_empty_join() {
        let left = values("a", "k", vec![(1, 10), (2, 20)]);
        let right = values("k2", "b", vec![]);
        let mut j = HashJoin::new(left, right, 1, 0, JoinType::Inner, storage());
        assert!(collect_rows(&mut j).unwrap().is_empty());
        let s = schema(&["k", "v"]);
        let table = JoinBuildTable::new(&s, 0);
        assert!(table.is_empty());
        assert!(matches(&table, Value::Int(0), 0).is_empty());
    }

    #[test]
    fn text_payloads_hand_off_without_clones_and_survive_probes() {
        // Dense ingest moves the Text buffers into the payload vectors
        // (the source batch is consumed); selected ingest moves row-wise.
        let s = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..4)
            .map(|i| Row::new(vec![Value::Int(i % 2), Value::str(format!("payload-{i}"))]))
            .collect();
        let mut table = JoinBuildTable::new(&s, 0);
        let mut dense = ColumnBatch::from_rows(&s, &rows).unwrap();
        let moved = dense.extract_range(0, 4); // dense batch, no selection
        table.insert_batch(moved).unwrap();
        let names = |vs: &[&str]| vs.iter().map(|&v| Value::str(v)).collect::<Vec<_>>();
        assert_eq!(matches(&table, Value::Int(0), 1), names(&["payload-0", "payload-2"]));
        // Selected ingest: only live rows land, strings still correct.
        let mut selected = ColumnBatch::from_rows(&s, &rows).unwrap();
        selected.set_selection(vec![3, 1]);
        let mut table2 = JoinBuildTable::new(&s, 0);
        table2.insert_batch(selected).unwrap();
        assert_eq!(table2.len(), 2);
        assert_eq!(
            matches(&table2, Value::Int(1), 1),
            names(&["payload-3", "payload-1"]),
            "selection order preserved"
        );
    }

    #[test]
    fn hash_join_gathers_text_columns_through_the_probe() {
        let s_left = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("ltxt", DataType::Text),
        ])
        .unwrap();
        let s_right = Schema::new(vec![
            Column::new("k2", DataType::Int64),
            Column::new("rtxt", DataType::Text),
        ])
        .unwrap();
        let left_rows: Vec<Row> = (0..6)
            .map(|i| Row::new(vec![Value::Int(i % 3), Value::str(format!("L{i}"))]))
            .collect();
        let right_rows: Vec<Row> =
            (0..4).map(|i| Row::new(vec![Value::Int(i), Value::str(format!("R{i}"))])).collect();
        let mut j = HashJoin::new(
            Box::new(ValuesOp::new(s_left, left_rows)),
            Box::new(ValuesOp::new(s_right, right_rows)),
            0,
            0,
            JoinType::Inner,
            storage(),
        );
        let rows = collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            let k = r.int(0).unwrap();
            assert_eq!(r.values()[3].as_str().unwrap(), format!("R{k}"));
            assert!(r.values()[1].as_str().unwrap().starts_with('L'));
        }
    }

    #[test]
    fn partitioned_partials_merge_to_the_serial_table() {
        // Two "workers" folding interleaved morsels — out of sequence,
        // with null keys and a selection vector in the mix — must link
        // into chains identical to a serial single-builder ingest.
        let s = Schema::new(vec![
            Column::nullable("k", DataType::Int64),
            Column::new("v", DataType::Int64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                let k = if i % 11 == 5 { Value::Null } else { Value::Int(i % 7) };
                Row::new(vec![k, Value::Int(i)])
            })
            .collect();
        let morsels = || {
            rows.chunks(10).enumerate().map(|(seq, chunk)| {
                let mut batch = ColumnBatch::from_rows(&s, chunk).unwrap();
                if seq == 2 {
                    batch.set_selection(vec![9, 0, 4, 5]);
                }
                batch
            })
        };
        for partitions in [1usize, 2, 5, BUILD_PARTITIONS] {
            let mut serial = JoinBuildTable::with_partitions(&s, 0, partitions);
            morsels().for_each(|batch| serial.insert_batch(batch).unwrap());
            // Slots receive alternating morsels, the later ones first
            // (the scheduler's slot pool gives no seq order).
            let mut w0 = JoinBuildPartial::new(&s, 0);
            let mut w1 = JoinBuildPartial::new(&s, 0);
            for (seq, batch) in morsels().enumerate().collect::<Vec<_>>().into_iter().rev() {
                let w = if seq % 2 == 0 { &mut w1 } else { &mut w0 };
                w.fold(seq as u64, batch).unwrap();
            }
            let merged = JoinBuildTable::from_partials(&s, 0, partitions, vec![w0, w1]);
            assert_eq!(merged.len(), serial.len());
            assert_eq!(merged.partition_count(), partitions);
            for k in 0..7i64 {
                let a = matches(&serial, Value::Int(k), 1);
                assert!(!a.is_empty());
                assert_eq!(a, matches(&merged, Value::Int(k), 1), "key {k}");
            }
        }
    }

    #[test]
    fn float_and_null_keys_join_bitwise() {
        // Float keys match by bit pattern: NaN joins NaN, 0.0 and -0.0
        // are different keys, NULL never matches (not even NULL).
        let s = Schema::new(vec![
            Column::nullable("k", DataType::Float64),
            Column::new("v", DataType::Int64),
        ])
        .unwrap();
        let keys = [Value::Float(f64::NAN), Value::Float(0.0), Value::Null, Value::Float(-0.0)];
        let rows: Vec<Row> =
            (0..8).map(|i| Row::new(vec![keys[i % 4].clone(), Value::Int(i as i64)])).collect();
        for mut table in [JoinBuildTable::new(&s, 0), JoinBuildTable::with_degenerate_hash(&s, 0)] {
            table.insert_batch(ColumnBatch::from_rows(&s, &rows).unwrap()).unwrap();
            assert_eq!(table.len(), 6, "null keys drop at build");
            let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
            assert_eq!(matches(&table, Value::Float(f64::NAN), 1), ints(&[0, 4]));
            assert_eq!(matches(&table, Value::Float(0.0), 1), ints(&[1, 5]));
            assert_eq!(matches(&table, Value::Float(-0.0), 1), ints(&[3, 7]));
            assert!(matches(&table, Value::Null, 1).is_empty());
        }
    }

    type Pairs = Vec<(i64, i64)>;

    /// Build/probe inputs big enough that a small budget must spill.
    fn spill_inputs() -> (Pairs, Pairs) {
        let left: Pairs = (0..600).map(|i| (i, i % 53)).collect();
        let right: Pairs = (0..400).map(|i| (i % 53, i)).collect();
        (left, right)
    }

    /// Drain a join *without* closing it, so the spill state stays
    /// inspectable (probe exhaustion already finalizes the charges).
    fn drain(j: &mut HashJoin) -> Vec<Row> {
        j.open().unwrap();
        let mut rows = Vec::new();
        while let Some(batch) = j.next_columns(crate::operator::batch_size()).unwrap() {
            rows.extend(batch.into_rows());
        }
        rows
    }

    fn run_budgeted(budget: usize) -> (Vec<Vec<i64>>, u64, u64, usize) {
        let (left, right) = spill_inputs();
        let st = storage();
        let mut j = HashJoin::new(
            values("a", "k", left),
            values("k2", "b", right),
            1,
            0,
            JoinType::Inner,
            st.clone(),
        )
        .with_mem_budget(budget);
        let rows = pairs(&drain(&mut j));
        let snap = st.clock().snapshot();
        let spilled = j.table.spilled_partition_count();
        j.close().unwrap();
        (rows, snap.cpu_ns, snap.io_ns, spilled)
    }

    #[test]
    fn budgeted_join_rows_identical_clock_larger() {
        let (rows_free, cpu_free, io_free, spilled_free) = run_budgeted(0);
        assert_eq!(spilled_free, 0, "unlimited budget must not spill");
        let (rows_tight, cpu_tight, io_tight, spilled_tight) = run_budgeted(2048);
        assert!(spilled_tight > 0, "2 KiB budget must spill partitions");
        assert_eq!(rows_tight, rows_free, "spilling must not change the rows");
        assert_eq!(cpu_tight, cpu_free, "modeled spill charges only the I/O lane");
        assert!(io_tight > io_free, "spilled run must charge overflow-file I/O");
    }

    #[test]
    fn huge_budget_is_byte_identical_to_unbudgeted() {
        let (rows_free, cpu_free, io_free, _) = run_budgeted(0);
        let (rows_big, cpu_big, io_big, spilled) = run_budgeted(1 << 30);
        assert_eq!(spilled, 0);
        assert_eq!(rows_big, rows_free);
        assert_eq!((cpu_big, io_big), (cpu_free, io_free));
    }

    #[test]
    fn finish_probe_charges_once() {
        let (left, right) = spill_inputs();
        let st = storage();
        let mut j = HashJoin::new(
            values("a", "k", left),
            values("k2", "b", right),
            1,
            0,
            JoinType::Inner,
            st.clone(),
        )
        .with_mem_budget(2048);
        let _ = drain(&mut j);
        let after_drain = st.clock().snapshot();
        j.close().unwrap();
        assert_eq!(st.clock().snapshot(), after_drain, "close must not re-charge finalize");
    }
}
