//! The columnar sorter: in memory under the budget, external beyond.
//!
//! Backs [`crate::Sort`] and the parallel [`crate::SinkSpec::Sort`]
//! sink. No `Row` exists in here: input morsels are gathered into one
//! accumulation [`ColumnBatch`], the sort is a stable sort of a `u32`
//! permutation compared straight off the typed key vectors
//! ([`ColumnVector::slot_cmp`], the order of `Value::total_cmp`), and the
//! output is that permutation gathered into morsel-sized batches.
//!
//! With a budget, the accumulation is cut into a *run* whenever its
//! spill-codec byte size ([`codec::batch_row_len`], equal to the row
//! codec's `row_len`) crosses the budget: the chunk is sorted (charged
//! `sort_cmp_ns · n·⌊log₂ n⌋`, exactly like the in-memory sort) and
//! appended in sorted order to the batch of spilled runs, and the run's
//! encoded byte count is charged as one fault-gated overflow-file write
//! ([`crate::spill::charge_spill_write`]). The rows are held once, in
//! that batch: a spill is its charge, like every spill in this engine.
//! When the input ends every run is re-read (one charged transfer of its
//! bytes each) and the k runs merge through a loser
//! tree keyed `(sort keys, run index)`: at most ⌈log₂ k⌉ comparisons
//! per output row, which is what the clock's `sort_cmp_ns · n·⌈log₂ k⌉`
//! merge charge has always assumed. Runs are consecutive input chunks,
//! each sorted stably, so the earliest-run tie-break reproduces the
//! in-memory stable order byte for byte — output order is independent
//! of the budget, and run and pass counts depend on the input's bytes
//! and the budget alone.
//!
//! An input that never crosses the budget never cuts a run: the sorter
//! degenerates to the in-memory sort with identical charges, which is
//! what keeps budgeted-but-fitting plans byte-identical to unbudgeted
//! ones on the virtual clock (the perf-smoke gate's zero-spill assert).

use std::cmp::Ordering;

use smooth_storage::Storage;
use smooth_types::{
    spill as codec, ColumnBatch, ColumnVector, DataType, Error, Result, Row, Value,
};

use crate::operator::batch_size;
use crate::sort::SortKey;
use crate::spill::{charge_spill_io, charge_spill_write};

/// Sort accumulator: [`ExternalSorter::push_batch`] morsels, then
/// [`ExternalSorter::finish`].
pub struct ExternalSorter {
    storage: Storage,
    keys: Vec<SortKey>,
    /// Budget in bytes; 0 = unlimited (no run is ever cut).
    budget: u64,
    /// Rows ingested since the last run cut. Zero columns wide until the
    /// first ingest gives it (and `spilled`) their typing.
    cur: ColumnBatch,
    /// Spill-codec size of `cur`; only a budgeted sorter keeps it.
    cur_bytes: u64,
    /// Every spilled run, back to back: run `r` is physical rows
    /// `[run_ends[r - 1], run_ends[r])`, each range stably sorted.
    spilled: ColumnBatch,
    run_ends: Vec<u32>,
    /// Encoded bytes of each run, for the merge pass's re-read charge.
    run_bytes: Vec<u64>,
    /// Scratch: the live-row indices of the morsel being ingested.
    live: Vec<u32>,
}

impl ExternalSorter {
    /// A sorter holding at most `budget_bytes` of encoded working set
    /// before cutting spilled runs (0 = unlimited).
    pub fn new(storage: Storage, keys: Vec<SortKey>, budget_bytes: usize) -> Self {
        ExternalSorter {
            storage,
            keys,
            budget: budget_bytes as u64,
            cur: ColumnBatch::default(),
            cur_bytes: 0,
            spilled: ColumnBatch::default(),
            run_ends: Vec::new(),
            run_bytes: Vec::new(),
            live: Vec::new(),
        }
    }

    /// The first ingest types the accumulation batches after `like`.
    fn adopt_typing(&mut self, like: &ColumnBatch) {
        if self.cur.width() == 0 {
            self.cur = ColumnBatch::like(like);
            self.spilled = ColumnBatch::like(like);
        }
    }

    /// Ingest the live rows of one morsel, cutting a run after each row
    /// that takes the working set over the budget. Fails only if a run's
    /// charged overflow-file write fails (injected `spill_err` faults that
    /// exhaust their retries).
    pub fn push_batch(&mut self, batch: &ColumnBatch) -> Result<()> {
        self.adopt_typing(batch);
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend(batch.live_rows().map(|i| i as u32));
        let done = self.ingest(batch, &live);
        self.live = live;
        done
    }

    fn ingest(&mut self, batch: &ColumnBatch, live: &[u32]) -> Result<()> {
        let mut from = 0;
        if self.budget > 0 {
            for (i, &phys) in live.iter().enumerate() {
                self.cur_bytes += codec::batch_row_len(batch, phys as usize) as u64;
                if self.cur_bytes > self.budget {
                    self.cur.append_gather(batch, &live[from..=i]);
                    from = i + 1;
                    self.cut_run()?;
                }
            }
        }
        self.cur.append_gather(batch, &live[from..]);
        Ok(())
    }

    /// Row-at-a-time ingest, kept for `benchmark/` (which may not be
    /// edited alongside the engine) until its next PR moves it to
    /// [`ExternalSorter::push_batch`]. With no schema at hand the first
    /// row types the columns by its values — a NULL there reads as an
    /// integer column, and a later non-integer value in it is an error.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if self.cur.width() == 0 {
            let typed = row.values().iter().map(|v| {
                ColumnVector::for_type(match v {
                    Value::Float(_) => DataType::Float64,
                    Value::Str(_) => DataType::Text,
                    Value::Int(_) | Value::Null => DataType::Int64,
                })
            });
            self.adopt_typing(&ColumnBatch::from_columns(typed.collect())?);
        }
        if self.budget > 0 {
            self.cur_bytes += codec::row_len(&row) as u64;
        }
        self.cur.push_owned_row(row)?;
        if self.cur_bytes > self.budget {
            self.cut_run()?;
        }
        Ok(())
    }

    /// The stable sort permutation of `batch` under the keys, with the
    /// closed-form `sort_cmp_ns · n·⌊log₂ n⌋` charge.
    fn sorted_perm(&self, batch: &ColumnBatch) -> Result<Vec<u32>> {
        let mut perm: Vec<u32> = (0..row_index(batch.physical_rows())?).collect();
        let n = perm.len() as u64;
        if n > 1 {
            self.storage.clock().charge_cpu(self.storage.cpu().sort_cmp_ns * n * n.ilog2() as u64);
            let keys = key_columns(batch, &self.keys)?;
            perm.sort_by(|&a, &b| compare_slots(&keys, a, b));
        }
        Ok(perm)
    }

    /// Sort the accumulated chunk (charged like the in-memory sort),
    /// charge its encoded bytes as one overflow-file write and append it
    /// in sorted order to the spilled runs.
    fn cut_run(&mut self) -> Result<()> {
        let perm = self.sorted_perm(&self.cur)?;
        let device = self.storage.device();
        charge_spill_write(&self.storage, &device, self.cur_bytes, perm.len() as u64)?;
        self.run_bytes.push(self.cur_bytes);
        self.spilled.append_gather(&self.cur, &perm);
        self.run_ends.push(row_index(self.spilled.physical_rows())?);
        self.cur.clear();
        self.cur_bytes = 0;
        Ok(())
    }

    /// Number of runs spilled so far.
    pub fn run_count(&self) -> usize {
        self.run_bytes.len()
    }

    /// Finish the sort: the fully-sorted output as morsel-sized batches,
    /// the same rows in the same order at every budget.
    pub fn finish(mut self) -> Result<Vec<ColumnBatch>> {
        let (sorted_from, order) = if self.run_bytes.is_empty() {
            // Never spilled: exactly the in-memory sort and its charge.
            (&self.cur, self.sorted_perm(&self.cur)?)
        } else {
            if self.cur.physical_rows() > 0 {
                // The final partial chunk merges like any other run.
                self.cut_run()?;
            }
            // Merge pass: re-read every run, then k-way select.
            for &bytes in &self.run_bytes {
                charge_spill_io(&self.storage, bytes);
            }
            let total = self.spilled.physical_rows() as u64;
            let merge_depth = self.run_bytes.len().next_power_of_two().trailing_zeros() as u64;
            if total > 0 && merge_depth > 0 {
                self.storage
                    .clock()
                    .charge_cpu(self.storage.cpu().sort_cmp_ns * total * merge_depth);
            }
            let keys = key_columns(&self.spilled, &self.keys)?;
            (&self.spilled, merge_order(&self.run_ends, |a, b| compare_slots(&keys, a, b)))
        };
        let gather = |chunk: &[u32]| {
            let mut out = ColumnBatch::like(sorted_from);
            out.append_gather(sorted_from, chunk);
            out
        };
        Ok(order.chunks(batch_size()).map(gather).collect())
    }
}

/// Row positions are `u32` here (permutations, run boundaries).
fn row_index(rows: usize) -> Result<u32> {
    u32::try_from(rows).map_err(|_| Error::exec("sort input exceeds u32::MAX rows"))
}

/// The key columns of `batch`, each with its direction (`true` =
/// ascending); a key ordinal outside the batch is a planning error.
fn key_columns<'a>(
    batch: &'a ColumnBatch,
    keys: &[SortKey],
) -> Result<Vec<(&'a ColumnVector, bool)>> {
    keys.iter().map(|k| Ok((batch.column_checked(k.column)?, k.ascending))).collect()
}

/// Lexicographic comparison of physical rows `a` and `b` of one batch
/// under its key columns — [`crate::sort::compare_rows`] without the
/// rows.
#[inline]
fn compare_slots(keys: &[(&ColumnVector, bool)], a: u32, b: u32) -> Ordering {
    for &(col, ascending) in keys {
        let ord = col.slot_cmp(a as usize, col, b as usize);
        if ord != Ordering::Equal {
            return if ascending { ord } else { ord.reverse() };
        }
    }
    Ordering::Equal
}

/// Merge `k` sorted runs laid back to back — run `r` spans positions
/// `[ends[r - 1], ends[r])` — into one order over all positions, ties
/// going to the earliest run. A loser tree: internal node `n` of a
/// complete binary tree over the runs (leaves `k..2k`) remembers the
/// run that lost the match played there, so replacing the winner's
/// head replays only its leaf-to-root path — at most ⌈log₂ k⌉ calls of
/// `cmp` per output position, after `k − 1` to seed the tree.
fn merge_order(ends: &[u32], mut cmp: impl FnMut(u32, u32) -> Ordering) -> Vec<u32> {
    let k = ends.len();
    let Some(&total) = ends.last() else { return Vec::new() };
    let mut heads: Vec<u32> = std::iter::once(0).chain(ends.iter().copied()).take(k).collect();
    // Run `a` beats run `b` when its head sorts first; an exhausted run
    // loses to any other, and equal heads go to the earlier run.
    let mut beats = |heads: &[u32], a: usize, b: usize| {
        if heads[b] == ends[b] || heads[a] == ends[a] {
            return heads[b] == ends[b];
        }
        cmp(heads[a], heads[b]).then(a.cmp(&b)) == Ordering::Less
    };
    let mut losers = vec![0usize; k];
    let mut winners: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
    for n in (1..k).rev() {
        let (a, b) = (winners[2 * n], winners[2 * n + 1]);
        (winners[n], losers[n]) = if beats(&heads, a, b) { (a, b) } else { (b, a) };
    }
    let mut winner = winners[1];
    let mut order = Vec::with_capacity(total as usize);
    for _ in 0..total {
        order.push(heads[winner]);
        heads[winner] += 1;
        let mut n = (k + winner) / 2;
        while n >= 1 {
            if beats(&heads, losers[n], winner) {
                std::mem::swap(&mut losers[n], &mut winner);
            }
            n /= 2;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::compare_rows;
    use smooth_types::{Column, Schema};

    fn storage() -> Storage {
        Storage::default_hdd()
    }

    fn rows(n: i64) -> Vec<Row> {
        // Deterministic shuffle with duplicate keys to exercise
        // stability: (key, original position).
        (0..n).map(|i| Row::new(vec![Value::Int((i * 37) % 10), Value::Int(i)])).collect()
    }

    fn batch(rows: &[Row]) -> ColumnBatch {
        let schema =
            Schema::new(vec![Column::new("k", DataType::Int64), Column::new("v", DataType::Int64)])
                .unwrap();
        ColumnBatch::from_rows(&schema, rows).unwrap()
    }

    fn reference_sort(mut input: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
        input.sort_by(|a, b| compare_rows(a, b, keys));
        input
    }

    fn sorted_rows(sorter: ExternalSorter) -> Vec<Row> {
        sorter.finish().unwrap().into_iter().flat_map(ColumnBatch::into_rows).collect()
    }

    #[test]
    fn spilled_sort_matches_in_memory_stable_order() {
        let keys = vec![SortKey::asc(0)];
        let input = rows(500);
        // 18 bytes/row encoded; a 256-byte budget forces many runs.
        let mut sorter = ExternalSorter::new(storage(), keys.clone(), 256);
        for chunk in input.chunks(64) {
            sorter.push_batch(&batch(chunk)).unwrap();
        }
        assert_eq!(sorter.run_count(), 500 / 15, "a run is cut by the 15th 18-byte row");
        assert_eq!(sorted_rows(sorter), reference_sort(input, &keys));
    }

    #[test]
    fn unspilled_sorter_charges_exactly_the_in_memory_sort() {
        let st = storage();
        let keys = vec![SortKey::asc(0)];
        let before = st.clock().snapshot();
        let mut sorter = ExternalSorter::new(st.clone(), keys, 1 << 30);
        sorter.push_batch(&batch(&rows(1024))).unwrap();
        let out = sorter.finish().unwrap();
        assert_eq!(out.iter().map(ColumnBatch::len).sum::<usize>(), 1024);
        let delta = st.clock().snapshot().since(&before);
        assert_eq!(delta.cpu_ns, st.cpu().sort_cmp_ns * 1024 * 10);
        assert_eq!(delta.io_ns, 0);
    }

    #[test]
    fn spilled_runs_charge_write_and_read_io() {
        let st = storage();
        let keys = vec![SortKey::desc(1)];
        let before = st.clock().snapshot();
        let mut sorter = ExternalSorter::new(st.clone(), keys, 1024);
        sorter.push_batch(&batch(&rows(400))).unwrap();
        let out = sorted_rows(sorter);
        assert_eq!(out.len(), 400);
        assert_eq!(out[0].int(1).unwrap(), 399);
        assert!(st.clock().snapshot().since(&before).io_ns > 0);
    }

    #[test]
    fn merge_stays_inside_the_tournament_comparison_bound() {
        for k in [2usize, 7, 64, 221] {
            // Run r holds the keys r, r + k, r + 2k, … with a tail of
            // duplicates, so heads interleave and ties cross runs.
            let per_run = 40;
            let mut keys = Vec::new();
            let mut ends = Vec::new();
            for r in 0..k {
                keys.extend((0..per_run).map(|i| ((r + i * k) % (per_run * k / 2)) as i64));
                let start = keys.len() - per_run;
                keys[start..].sort();
                ends.push(keys.len() as u32);
            }
            let mut calls = 0u64;
            let order = merge_order(&ends, |a, b| {
                calls += 1;
                keys[a as usize].cmp(&keys[b as usize])
            });
            let n = keys.len() as u64;
            let depth = k.next_power_of_two().trailing_zeros() as u64;
            assert!(calls <= n * (depth + 1), "k={k}: {calls} comparisons for {n} rows");
            // The reference: a stable sort of the concatenated runs.
            let mut expect: Vec<u32> = (0..n as u32).collect();
            expect.sort_by_key(|&i| keys[i as usize]);
            assert_eq!(order, expect, "k={k}");
        }
    }
}
