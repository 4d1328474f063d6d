//! The columnar sorter: in memory under the budget, external beyond.
//!
//! Backs [`crate::Sort`] and the parallel [`crate::SinkSpec::Sort`]
//! sink. No `Row` exists in here: input morsels are gathered into one
//! accumulation [`ColumnBatch`] in arrival order, the sort orders
//! `(prefix, row)` pairs, and the output is the rows in that order
//! gathered into morsel-sized batches. The prefix is the first key's
//! normalized image ([`ColumnVector::sort_prefix`], complemented when
//! descending: a "poor man's normalized key", Graefe 2006), an integer
//! whose order is the key's, so a stable radix sort orders the pairs
//! without comparing keys. Runs of equal prefixes are then sorted
//! stably on every key compared straight off the typed key vectors
//! ([`ColumnVector::slot_cmp`], the order of `Value::total_cmp`). Both
//! sorts are stable over rows in arrival order, so the result is
//! exactly the stable sort's order.
//!
//! With a budget, the rows since the last cut become a *run* whenever
//! their spill-codec byte size ([`codec::batch_row_len`], equal to the
//! row codec's `row_len`) crosses the budget. A run cut is only its
//! charges: sorting the run (`sort_cmp_ns · n·⌊log₂ n⌋`, exactly like
//! the in-memory sort) and writing its encoded bytes as one fault-gated
//! overflow-file write ([`crate::spill::charge_spill_write`]). When the
//! input ends every run is charged one re-read of its bytes and the
//! k-way merge its `sort_cmp_ns · n·⌈log₂ k⌉` comparisons; the rows
//! themselves stay where they are and get the one stable sort. Runs are
//! consecutive input chunks, so merging their stable sorts with ties to
//! the earliest run would give that same order: output order is
//! independent of the budget, and run and pass counts depend on the
//! input's bytes and the budget alone. A spill is its charge, like every
//! spill in this engine.
//!
//! An input that never crosses the budget never cuts a run: the sorter
//! is the in-memory sort with identical charges, which is what keeps
//! budgeted-but-fitting plans byte-identical to unbudgeted ones on the
//! virtual clock (the perf-smoke gate's zero-spill assert).

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
    /// Every row ingested, in arrival order. Zero columns wide until the
    /// first ingest gives it its typing.
    rows: ColumnBatch,
    /// Physical row of `rows` the run being accumulated starts at.
    run_start: usize,
    /// Spill-codec size of the rows from `run_start` on; only a budgeted
    /// sorter keeps it.
    cur_bytes: u64,
    /// Encoded bytes of each cut run, for the merge pass's re-read charge.
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
            rows: ColumnBatch::default(),
            run_start: 0,
            cur_bytes: 0,
            run_bytes: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Ingest the live rows of one morsel, cutting a run after each row
    /// that takes the working set over the budget. Fails only if a run's
    /// charged overflow-file write fails (injected `spill_err` faults that
    /// exhaust their retries).
    pub fn push_batch(&mut self, batch: &ColumnBatch) -> Result<()> {
        if self.rows.width() == 0 {
            self.rows = ColumnBatch::like(batch);
        }
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend(batch.live_rows().map(|i| i as u32));
        let done = self.ingest(batch, &live);
        self.live = live;
        done
    }

    fn ingest(&mut self, batch: &ColumnBatch, live: &[u32]) -> Result<()> {
        let base = self.rows.physical_rows();
        self.rows.append_gather(batch, live);
        if self.budget > 0 {
            for (i, &phys) in live.iter().enumerate() {
                self.cur_bytes += codec::batch_row_len(batch, phys as usize) as u64;
                if self.cur_bytes > self.budget {
                    self.cut_run(base + i + 1)?;
                }
            }
        }
        Ok(())
    }

    /// Row-at-a-time ingest, kept for `benchmark/` (which may not be
    /// edited alongside the engine) until its next PR moves it to
    /// [`ExternalSorter::push_batch`]. With no schema at hand the first
    /// row types the columns by its values — a NULL there reads as an
    /// integer column, and a later non-integer value in it is an error.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if self.rows.width() == 0 {
            let typed = row.values().iter().map(|v| {
                ColumnVector::for_type(match v {
                    Value::Float(_) => DataType::Float64,
                    Value::Str(_) => DataType::Text,
                    Value::Int(_) | Value::Null => DataType::Int64,
                })
            });
            self.rows = ColumnBatch::from_columns(typed.collect())?;
        }
        if self.budget > 0 {
            self.cur_bytes += codec::row_len(&row) as u64;
        }
        self.rows.push_owned_row(row)?;
        if self.cur_bytes > self.budget {
            self.cut_run(self.rows.physical_rows())?;
        }
        Ok(())
    }

    /// The closed-form charge of stably sorting `n` rows,
    /// `sort_cmp_ns · n·⌊log₂ n⌋`.
    fn charge_sort(&self, n: usize) {
        if n > 1 {
            let n = n as u64;
            self.storage.clock().charge_cpu(self.storage.cpu().sort_cmp_ns * n * n.ilog2() as u64);
        }
    }

    /// Cut the rows from `run_start` to `end` into a run: charge its sort
    /// like the in-memory sort's and its encoded bytes as one
    /// overflow-file write.
    fn cut_run(&mut self, end: usize) -> Result<()> {
        let n = end - self.run_start;
        self.charge_sort(n);
        let device = self.storage.device();
        charge_spill_write(&self.storage, &device, self.cur_bytes, n as u64)?;
        self.run_bytes.push(self.cur_bytes);
        self.run_start = end;
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
        let n = self.rows.physical_rows();
        if self.run_bytes.is_empty() {
            // Never spilled: exactly the in-memory sort and its charge.
            self.charge_sort(n);
        } else {
            if n > self.run_start {
                // The final partial chunk merges like any other run.
                self.cut_run(n)?;
            }
            // Merge pass: re-read every run, then k-way select.
            for &bytes in &self.run_bytes {
                charge_spill_io(&self.storage, bytes);
            }
            let depth = self.run_bytes.len().next_power_of_two().trailing_zeros() as u64;
            self.storage.clock().charge_cpu(self.storage.cpu().sort_cmp_ns * n as u64 * depth);
        }
        let order = match n {
            0 | 1 => (0..n as u32).collect(),
            _ => sort_order(&key_columns(&self.rows, &self.keys)?, row_index(n)?),
        };
        let gather = |chunk: &[u32]| {
            let mut out = ColumnBatch::like(&self.rows);
            out.append_gather(&self.rows, chunk);
            out
        };
        Ok(order.chunks(batch_size()).map(gather).collect())
    }
}

/// Row positions are `u32` here (the sort permutation).
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

/// The stable sort of rows `0..n` under `keys`: `(prefix, row)` pairs,
/// the prefix being the first key's [`ColumnVector::sort_prefix`]
/// (complemented when descending), go through a stable radix sort on
/// the prefix; each run of equal prefixes is then sorted stably on
/// every key. Rows start in index order and both sorts are stable, so
/// the order is exactly the stable one.
fn sort_order(keys: &[(&ColumnVector, bool)], n: u32) -> Vec<u32> {
    let Some(&(first, ascending)) = keys.first() else {
        return (0..n).collect();
    };
    let flip = if ascending { 0 } else { u64::MAX };
    let mut pairs: Vec<(u64, u32)> =
        (0..n).map(|row| (first.sort_prefix(row as usize) ^ flip, row)).collect();
    radix_sort(&mut pairs);
    for run in pairs.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
        run.sort_by(|a, b| compare_slots(keys, a.1, b.1));
    }
    pairs.into_iter().map(|(_, row)| row).collect()
}

/// Stable least-significant-byte radix sort of `pairs` by their `u64`
/// key: one counting pass per key byte, skipping a byte every key
/// shares (a small integer domain varies in its low bytes only).
fn radix_sort(pairs: &mut Vec<(u64, u32)>) {
    let mut counts = [[0usize; 256]; 8];
    for &(key, _) in pairs.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * byte)) as usize & 255] += 1;
        }
    }
    let mut out = vec![(0, 0); pairs.len()];
    for (byte, count) in counts.iter().enumerate() {
        if count.contains(&pairs.len()) {
            continue;
        }
        let mut at = [0usize; 256];
        for b in 1..256 {
            at[b] = at[b - 1] + count[b - 1];
        }
        for &pair in pairs.iter() {
            let slot = &mut at[(pair.0 >> (8 * byte)) as usize & 255];
            out[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut out);
    }
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
}
