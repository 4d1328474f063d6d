//! Blocking sort: in-memory under the operator budget, external beyond.
//!
//! Restores "interesting orders" (Section II): plans that need key order on
//! top of Full Scan or Sort Scan place this operator above the access path
//! — the posterior-sorting overhead that Smooth Scan avoids in Fig. 5a.
//!
//! The operator is columnar from ingest to emit: `open` feeds the child's
//! morsels to the [`ExternalSorter`] in [`crate::extsort`] — a permutation
//! sort over the typed key columns, with no budget or under one
//! ([`Sort::with_mem_budget`] / `SMOOTH_MEM_BYTES`), in which case the
//! runs cut at the budget boundary and their k-way merge are charged
//! as the external sort's overflow-file I/O and comparisons — and keeps
//! the sorted morsels it returns.
//! [`Operator::next_columns`] hands those morsels on; [`Operator::next`]
//! reads rows off the same morsels. The rows, their order and every
//! clock charge are the same at every budget.

use std::cmp::Ordering;

use smooth_types::{ColumnBatch, ColumnBuffer, Result, Row, Schema};

use crate::extsort::ExternalSorter;
use crate::operator::{batch_size, BoxedOperator, Operator};

/// One sort key: column ordinal and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column ordinal in the child schema.
    pub column: usize,
    /// Ascending when true.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key on `column`.
    pub fn asc(column: usize) -> Self {
        SortKey { column, ascending: true }
    }

    /// Descending key on `column`.
    pub fn desc(column: usize) -> Self {
        SortKey { column, ascending: false }
    }
}

/// Lexicographic row comparison under `keys` ([`Value::total_cmp`] per
/// column, descending keys reversed): the ordering the columnar sorter
/// must reproduce, kept as the reference its tests sort rows by.
///
/// [`Value::total_cmp`]: smooth_types::Value::total_cmp
pub fn compare_rows(a: &Row, b: &Row, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a.get(k.column).total_cmp(b.get(k.column));
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Blocking sort operator.
pub struct Sort {
    child: BoxedOperator,
    keys: Vec<SortKey>,
    storage: smooth_storage::Storage,
    /// Operator memory budget in bytes (0 = unlimited): beyond it the
    /// sort goes external ([`crate::extsort`]).
    mem_bytes: usize,
    /// Sorted morsels not yet handed to `out`.
    sorted: std::vec::IntoIter<ColumnBatch>,
    /// The morsel being emitted.
    out: ColumnBuffer,
}

impl Sort {
    /// Sort child output by `keys` (lexicographic). The memory budget
    /// defaults to the process-wide [`crate::spill::mem_budget_bytes`]
    /// knob.
    pub fn new(child: BoxedOperator, storage: smooth_storage::Storage, keys: Vec<SortKey>) -> Self {
        let mem_bytes = crate::spill::mem_budget_bytes();
        let out = ColumnBuffer::for_schema(child.schema());
        Sort { child, keys, storage, mem_bytes, sorted: Vec::new().into_iter(), out }
    }

    /// Builder: override the operator memory budget (0 = unlimited).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        // Morsels stream into the sorter, which under a budget cuts
        // (and charges) a spilled run whenever the working set crosses
        // it — the input never all materializes at once. When nothing
        // spills the charges are exactly the unbudgeted sort's.
        let mut sorter =
            ExternalSorter::new(self.storage.clone(), self.keys.clone(), self.mem_bytes);
        while let Some(batch) = self.child.next_columns(batch_size())? {
            sorter.push_batch(&batch)?;
        }
        self.child.close()?;
        self.sorted = sorter.finish()?.into_iter();
        self.out.reset();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.out.is_drained() {
            if let Some(morsel) = self.sorted.next() {
                *self.out.fill() = morsel;
            }
        }
        Ok(self.out.pop_row())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        if self.out.is_drained() {
            match self.sorted.next() {
                // A whole sorted morsel leaves as it is.
                Some(morsel) if morsel.len() <= max => return Ok(Some(morsel)),
                Some(morsel) => *self.out.fill() = morsel,
                None => return Ok(None),
            }
        }
        Ok(self.out.pop_columns(max.max(1)))
    }

    fn close(&mut self) -> Result<()> {
        self.sorted = Vec::new().into_iter();
        self.out.reset();
        // A failed `open` left the child open mid-drain.
        self.child.close()
    }

    fn label(&self) -> String {
        format!("Sort → {}", self.child.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use smooth_types::{Column, DataType, Value};

    fn storage() -> smooth_storage::Storage {
        smooth_storage::Storage::default_hdd()
    }

    fn input(rows: Vec<(i64, i64)>) -> BoxedOperator {
        let schema =
            Schema::new(vec![Column::new("a", DataType::Int64), Column::new("b", DataType::Int64)])
                .unwrap();
        Box::new(ValuesOp::new(
            schema,
            rows.into_iter().map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)])).collect(),
        ))
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let mut s =
            Sort::new(input(vec![(3, 0), (1, 1), (2, 2)]), storage(), vec![SortKey::asc(0)]);
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.iter().map(|r| r.int(0).unwrap()).collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut s =
            Sort::new(input(vec![(3, 0), (1, 1), (2, 2)]), storage(), vec![SortKey::desc(0)]);
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.iter().map(|r| r.int(0).unwrap()).collect::<Vec<_>>(), vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_lexicographic() {
        let mut s = Sort::new(
            input(vec![(1, 9), (0, 5), (1, 2), (0, 7)]),
            storage(),
            vec![SortKey::asc(0), SortKey::desc(1)],
        );
        let rows = collect_rows(&mut s).unwrap();
        let pairs: Vec<(i64, i64)> =
            rows.iter().map(|r| (r.int(0).unwrap(), r.int(1).unwrap())).collect();
        assert_eq!(pairs, vec![(0, 7), (0, 5), (1, 9), (1, 2)]);
    }

    #[test]
    fn charges_nlogn_cpu() {
        let st = storage();
        let before = st.clock().snapshot().cpu_ns;
        let mut s = Sort::new(
            input((0..1024).map(|i| (1023 - i, i)).collect()),
            st.clone(),
            vec![SortKey::asc(0)],
        )
        // The closed form below is the in-memory sort's.
        .with_mem_budget(0);
        collect_rows(&mut s).unwrap();
        let delta = st.clock().snapshot().cpu_ns - before;
        assert_eq!(delta, st.cpu().sort_cmp_ns * 1024 * 10);
    }

    #[test]
    fn empty_input() {
        let mut s = Sort::new(input(vec![]), storage(), vec![SortKey::asc(0)]);
        assert!(collect_rows(&mut s).unwrap().is_empty());
    }

    #[test]
    fn protocols_interleave_on_the_sorted_stream() {
        let rows: Vec<(i64, i64)> = (0..3000).map(|i| ((i * 7919) % 3000, i)).collect();
        let mut s = Sort::new(input(rows), storage(), vec![SortKey::asc(0)]);
        s.open().unwrap();
        let mut seen = vec![s.next().unwrap().unwrap()];
        seen.extend(s.next_columns(10).unwrap().unwrap().into_rows());
        seen.push(s.next().unwrap().unwrap());
        while let Some(b) = s.next_columns(batch_size()).unwrap() {
            assert!(!b.is_empty() && b.len() <= batch_size());
            seen.extend(b.into_rows());
        }
        s.close().unwrap();
        assert_eq!(
            seen.iter().map(|r| r.int(0).unwrap()).collect::<Vec<_>>(),
            (0..3000).collect::<Vec<i64>>()
        );
    }
}
