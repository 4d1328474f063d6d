//! Aggregation: hash-grouped and scalar.
//!
//! Covers the aggregate shapes of the TPC-H-style workload (Q1's grouped
//! sums/averages, Q6's scalar revenue sum, Q4's grouped counts).

use smooth_types::{
    Column, ColumnBatch, ColumnBuffer, ColumnVector, DataType, Error, Result, Row, Schema, Value,
};

use crate::hashtable::KeyTable;
use crate::operator::{batch_size, BoxedOperator, Operator};

/// Supported aggregate functions over one child column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(col)` — non-null values.
    Count(usize),
    /// `SUM(col)` as a float.
    Sum(usize),
    /// `SUM(a * b)` as a float (TPC-H revenue expressions like
    /// `l_extendedprice * l_discount`).
    SumProduct(usize, usize),
    /// `AVG(col)`.
    Avg(usize),
    /// `MIN(col)`.
    Min(usize),
    /// `MAX(col)`.
    Max(usize),
}

impl AggFunc {
    /// Whether per-worker partial accumulation followed by a merge is
    /// *exactly* equal to a single sequential fold over the input.
    ///
    /// Counts and MIN/MAX are order-independent. Sums (and averages)
    /// accumulate in `f64`, where addition only reorders exactly when
    /// every addend is integer-valued — so sums over integer-typed
    /// columns merge exactly (up to 2^53, far past the workloads here)
    /// while sums over `Float64` columns must instead fold in input
    /// order to stay byte-identical to the single-threaded driver.
    pub fn merge_exact(&self, child: &Schema) -> bool {
        let int_typed = |c: usize| {
            matches!(child.column(c).ty, DataType::Int32 | DataType::Int64 | DataType::Date)
        };
        match self {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::Min(_) | AggFunc::Max(_) => true,
            AggFunc::Sum(c) | AggFunc::Avg(c) => int_typed(*c),
            AggFunc::SumProduct(a, b) => int_typed(*a) && int_typed(*b),
        }
    }

    /// The same aggregate over renumbered input columns: every ordinal
    /// `c` it reads becomes `to(c)`; `None` if one has no new ordinal
    /// (column pruning's rewrite, like [`crate::Predicate::remap`]).
    /// `to` sees exactly the columns the aggregate reads, in order.
    pub fn remap(&self, to: &mut dyn FnMut(usize) -> Option<usize>) -> Option<AggFunc> {
        Some(match *self {
            AggFunc::CountStar => AggFunc::CountStar,
            AggFunc::Count(c) => AggFunc::Count(to(c)?),
            AggFunc::Sum(c) => AggFunc::Sum(to(c)?),
            AggFunc::SumProduct(a, b) => AggFunc::SumProduct(to(a)?, to(b)?),
            AggFunc::Avg(c) => AggFunc::Avg(to(c)?),
            AggFunc::Min(c) => AggFunc::Min(to(c)?),
            AggFunc::Max(c) => AggFunc::Max(to(c)?),
        })
    }

    fn output_column(&self, child: &Schema, ordinal: usize) -> Column {
        let name = |f: &str, c: usize| format!("{f}_{}", child.column(c).name);
        match self {
            AggFunc::CountStar => Column::new(format!("count_{ordinal}"), DataType::Int64),
            AggFunc::Count(c) => Column::new(name("count", *c), DataType::Int64),
            AggFunc::Sum(c) => Column::new(name("sum", *c), DataType::Float64),
            AggFunc::SumProduct(a, b) => Column::new(
                format!("sum_{}_x_{}", child.column(*a).name, child.column(*b).name),
                DataType::Float64,
            ),
            AggFunc::Avg(c) => Column::new(name("avg", *c), DataType::Float64),
            AggFunc::Min(c) => Column::nullable(name("min", *c), child.column(*c).ty),
            AggFunc::Max(c) => Column::nullable(name("max", *c), child.column(*c).ty),
        }
    }
}

/// The output schema of an aggregation over `child`: the group columns
/// followed by one column per aggregate. Shared by [`HashAggregate::new`]
/// and the planner's parallel-pipeline decomposition so both validate
/// (and fail) identically.
pub fn output_schema(child: &Schema, group_cols: &[usize], aggs: &[AggFunc]) -> Result<Schema> {
    let mut cols = Vec::with_capacity(group_cols.len() + aggs.len());
    for &g in group_cols {
        if g >= child.len() {
            return Err(Error::schema(format!("group column {g} out of range")));
        }
        cols.push(child.column(g).clone());
    }
    for (i, a) in aggs.iter().enumerate() {
        cols.push(a.output_column(child, i));
    }
    Schema::new(cols)
}

/// Call `f(i, phys)` for every row of `batch` that `sel` names (every
/// physical row when `None`), stopping at the first error: `i` counts
/// those rows in order, `phys` is the physical slot.
#[inline]
fn for_rows(
    batch: &ColumnBatch,
    sel: Option<&[u32]>,
    mut f: impl FnMut(usize, usize) -> Result<()>,
) -> Result<()> {
    match sel {
        Some(sel) => sel.iter().enumerate().try_for_each(|(i, &p)| f(i, p as usize)),
        None => (0..batch.physical_rows()).try_for_each(|p| f(p, p)),
    }
}

/// One aggregate's accumulators, columnar: slot `g` belongs to group
/// id `g`.
#[derive(Debug, Clone)]
enum AccVec {
    Count(Vec<u64>),
    Sum(Vec<f64>),
    Avg {
        sum: Vec<f64>,
        n: Vec<u64>,
    },
    /// MIN or MAX (the [`AggFunc`] says which); `None` until a non-null
    /// input arrives.
    Extreme(Vec<Option<Value>>),
}

impl AccVec {
    fn new(f: &AggFunc) -> AccVec {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => AccVec::Count(Vec::new()),
            AggFunc::Sum(_) | AggFunc::SumProduct(..) => AccVec::Sum(Vec::new()),
            AggFunc::Avg(_) => AccVec::Avg { sum: Vec::new(), n: Vec::new() },
            AggFunc::Min(_) | AggFunc::Max(_) => AccVec::Extreme(Vec::new()),
        }
    }

    /// Extend to `groups` slots of identity accumulators.
    fn grow(&mut self, groups: usize) {
        match self {
            AccVec::Count(n) => n.resize(groups, 0),
            AccVec::Sum(s) => s.resize(groups, 0.0),
            AccVec::Avg { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            AccVec::Extreme(m) => m.resize(groups, None),
        }
    }

    /// Fold the rows of `batch` that `sel` names in, the `i`-th into
    /// group `ids[i]`, in row order — so each group's `f64` additions
    /// happen in input order. NULL inputs are skipped; integers widen
    /// for sums.
    fn update(
        &mut self,
        f: &AggFunc,
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
        ids: &[u32],
    ) -> Result<()> {
        match (self, f) {
            (AccVec::Count(n), AggFunc::CountStar) => {
                ids.iter().for_each(|&g| n[g as usize] += 1);
                Ok(())
            }
            (AccVec::Count(n), AggFunc::Count(c)) => {
                let nulls = batch.column(*c).nulls();
                for_rows(batch, sel, |i, p| {
                    n[ids[i] as usize] += !nulls[p] as u64;
                    Ok(())
                })
            }
            (AccVec::Sum(s), AggFunc::Sum(c)) => {
                let col = batch.column(*c);
                for_rows(batch, sel, |i, p| {
                    if !col.is_null(p) {
                        s[ids[i] as usize] += col.float(p)?;
                    }
                    Ok(())
                })
            }
            (AccVec::Sum(s), AggFunc::SumProduct(a, b)) => {
                let (x, y) = (batch.column(*a), batch.column(*b));
                for_rows(batch, sel, |i, p| {
                    if !x.is_null(p) && !y.is_null(p) {
                        s[ids[i] as usize] += x.float(p)? * y.float(p)?;
                    }
                    Ok(())
                })
            }
            (AccVec::Avg { sum, n }, AggFunc::Avg(c)) => {
                let col = batch.column(*c);
                for_rows(batch, sel, |i, p| {
                    if !col.is_null(p) {
                        sum[ids[i] as usize] += col.float(p)?;
                        n[ids[i] as usize] += 1;
                    }
                    Ok(())
                })
            }
            (AccVec::Extreme(m), AggFunc::Min(c) | AggFunc::Max(c)) => {
                // A `Value` materializes only when an extremum improves.
                let col = batch.column(*c);
                let better = extreme_order(f);
                for_rows(batch, sel, |i, p| {
                    let slot = &mut m[ids[i] as usize];
                    if !col.is_null(p)
                        && slot.as_ref().is_none_or(|cur| col.cmp_value(p, cur) == better)
                    {
                        *slot = Some(col.value(p));
                    }
                    Ok(())
                })
            }
            _ => unreachable!("accumulator/function mismatch"),
        }
    }

    /// Combine a partial accumulator in, its slot `from[k]` into slot
    /// `to[k]`. Exact for counts and MIN/MAX; for sums exact precisely
    /// when [`AggFunc::merge_exact`] holds, which is the precondition for
    /// the parallel driver using per-worker partials at all.
    fn merge(&mut self, f: &AggFunc, other: &AccVec, from: &[u32], to: &[u32]) {
        let slots = from.iter().zip(to).map(|(&j, &g)| (j as usize, g as usize));
        match (self, other) {
            (AccVec::Count(n), AccVec::Count(m)) => slots.for_each(|(j, g)| n[g] += m[j]),
            (AccVec::Sum(s), AccVec::Sum(t)) => slots.for_each(|(j, g)| s[g] += t[j]),
            (AccVec::Avg { sum, n }, AccVec::Avg { sum: s2, n: n2 }) => slots.for_each(|(j, g)| {
                sum[g] += s2[j];
                n[g] += n2[j];
            }),
            (AccVec::Extreme(m), AccVec::Extreme(o)) => {
                let better = extreme_order(f);
                for (j, g) in slots {
                    if let Some(v) = &o[j] {
                        if m[g].as_ref().is_none_or(|cur| v.total_cmp(cur) == better) {
                            m[g] = Some(v.clone());
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched accumulators"),
        }
    }

    /// Finish into an output column of type `ty`, one slot per group.
    fn finish(self, ty: DataType) -> Result<ColumnVector> {
        let mut out = ColumnVector::for_type(ty);
        match self {
            AccVec::Count(n) => n.into_iter().try_for_each(|n| out.push_int(n as i64))?,
            AccVec::Sum(s) => s.into_iter().try_for_each(|s| out.push_float(s))?,
            AccVec::Avg { sum, n } => sum.into_iter().zip(n).try_for_each(|(sum, n)| {
                if n == 0 {
                    out.push_null();
                    Ok(())
                } else {
                    out.push_float(sum / n as f64)
                }
            })?,
            AccVec::Extreme(m) => {
                m.iter().try_for_each(|v| out.push_value(v.as_ref().unwrap_or(&Value::Null)))?
            }
        }
        Ok(out)
    }
}

/// The [`std::cmp::Ordering`] of a candidate against the incumbent
/// that makes it the new extremum.
fn extreme_order(f: &AggFunc) -> std::cmp::Ordering {
    match f {
        AggFunc::Min(_) => std::cmp::Ordering::Less,
        _ => std::cmp::Ordering::Greater,
    }
}

/// The shared grouped-aggregation fold behind [`HashAggregate`] and the
/// parallel driver's partial aggregates: a [`KeyTable`] turns each
/// batch into a **group-id vector** (id = first-seen order of the key),
/// then every aggregate updates its columnar accumulators from its
/// input column in one typed loop. No `Value` key, no per-row
/// allocation. A scalar aggregate (no group columns) is the one group
/// `0`, present even over empty input.
#[derive(Clone)]
pub(crate) struct GroupFold {
    group_cols: Vec<usize>,
    aggs: Vec<AggFunc>,
    /// Aggregated output schema (group columns, then aggregates).
    schema: Schema,
    table: KeyTable,
    accs: Vec<AccVec>,
    /// Group id per live row of the last folded batch.
    ids: Vec<u32>,
}

impl GroupFold {
    pub(crate) fn new(child: &Schema, group_cols: &[usize], aggs: &[AggFunc]) -> Result<Self> {
        let schema = output_schema(child, group_cols, aggs)?;
        let mut fold = GroupFold {
            group_cols: group_cols.to_vec(),
            aggs: aggs.to_vec(),
            table: KeyTable::new(group_cols.iter().map(|&g| child.column(g).ty)),
            accs: aggs.iter().map(AccVec::new).collect(),
            ids: Vec::new(),
            schema,
        };
        fold.grow();
        Ok(fold)
    }

    /// Whether this is a scalar aggregate (no group columns).
    pub(crate) fn is_scalar(&self) -> bool {
        self.group_cols.is_empty()
    }

    /// Groups seen so far.
    pub(crate) fn groups(&self) -> usize {
        if self.is_scalar() {
            1
        } else {
            self.table.len()
        }
    }

    /// Hash every key to one collision chain (tests only).
    pub(crate) fn degenerate_hash(&mut self, child: &Schema) {
        self.table = KeyTable::degenerate(self.group_cols.iter().map(|&g| child.column(g).ty));
    }

    fn grow(&mut self) {
        let groups = self.groups();
        self.accs.iter_mut().for_each(|a| a.grow(groups));
    }

    /// Group id of each live row of the last folded batch.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Charge folding `rows` rows, `(hash + update·|aggs|)` each, as one
    /// bulk charge — per-row underneath, so totals do not depend on
    /// where batch boundaries fall.
    pub(crate) fn charge(&self, storage: &smooth_storage::Storage, rows: usize) {
        let cpu = storage.cpu();
        storage.clock().charge_cpu(
            (cpu.hash_op_ns + cpu.agg_update_ns * self.aggs.len() as u64) * rows as u64,
        );
    }

    /// Fold one batch in, with its [`GroupFold::charge`].
    pub(crate) fn update(
        &mut self,
        storage: &smooth_storage::Storage,
        batch: &ColumnBatch,
    ) -> Result<()> {
        self.charge(storage, batch.len());
        let cols = self.key_columns(batch)?;
        self.fold_rows(batch, &cols, batch.selection(), None)
    }

    /// The group columns of `batch`.
    pub(crate) fn key_columns<'b>(&self, batch: &'b ColumnBatch) -> Result<Vec<&'b ColumnVector>> {
        self.group_cols.iter().map(|&g| batch.column_checked(g)).collect()
    }

    /// The [`KeyTable::hash`] of row `row`'s group key, for a caller
    /// that routes rows before folding them.
    pub(crate) fn hash(&self, cols: &[&ColumnVector], row: usize) -> u64 {
        self.table.hash(cols, row)
    }

    /// Fold the rows of `batch` that `sel` names (every physical row when
    /// `None`) in, charging nothing. `cols` are the batch's
    /// [`GroupFold::key_columns`]; `hashes`, when given, holds each of
    /// those rows' [`GroupFold::hash`] at its physical row.
    pub(crate) fn fold_rows(
        &mut self,
        batch: &ColumnBatch,
        cols: &[&ColumnVector],
        sel: Option<&[u32]>,
        hashes: Option<&[u64]>,
    ) -> Result<()> {
        self.ids.clear();
        if self.is_scalar() {
            self.ids.resize(sel.map_or(batch.physical_rows(), <[u32]>::len), 0);
        } else {
            let (table, ids) = (&mut self.table, &mut self.ids);
            ids.reserve(sel.map_or(batch.physical_rows(), <[u32]>::len));
            for_rows(batch, sel, |_, p| {
                let hash = hashes.map_or_else(|| table.hash(cols, p), |h| h[p]);
                ids.push(table.intern_hashed(hash, cols, p));
                Ok(())
            })?;
            self.grow();
        }
        for (acc, f) in self.accs.iter_mut().zip(&self.aggs) {
            acc.update(f, batch, sel, &self.ids)?;
        }
        Ok(())
    }

    /// Merge groups `groups` of another fold in (order-independent: the
    /// caller guarantees every aggregate merges exactly), reusing their
    /// stored key hashes. Returns this fold's group id for each.
    pub(crate) fn absorb(&mut self, other: &GroupFold, groups: &[u32]) -> Vec<u32> {
        let cols: Vec<&ColumnVector> = other.table.keys().iter().collect();
        let hashes = other.table.hashes();
        let map: Vec<u32> = groups
            .iter()
            .map(|&j| match cols.is_empty() {
                true => 0,
                false => self.table.intern_hashed(hashes[j as usize], &cols, j as usize),
            })
            .collect();
        self.grow();
        for ((acc, theirs), f) in self.accs.iter_mut().zip(&other.accs).zip(&self.aggs) {
            acc.merge(f, theirs, groups, &map);
        }
        map
    }

    /// Each group's key hash (its [`GroupFold::hash`]), by group id.
    pub(crate) fn key_hashes(&self) -> &[u64] {
        self.table.hashes()
    }

    /// Finish into one dense batch — key columns, then one column per
    /// aggregate — with groups in id (first-seen) order, or in `order`
    /// (a permutation of the group ids) when given.
    pub(crate) fn finish(self, order: Option<&[u32]>) -> Result<ColumnBatch> {
        let GroupFold { table, accs, schema, group_cols, .. } = self;
        let mut columns = table.into_keys();
        for (acc, col) in accs.into_iter().zip(&schema.columns()[group_cols.len()..]) {
            columns.push(acc.finish(col.ty)?);
        }
        let batch = ColumnBatch::from_columns(columns)?;
        Ok(match order {
            Some(order) => {
                let mut sorted = ColumnBatch::like(&batch);
                sorted.append_gather(&batch, order);
                sorted
            }
            None => batch,
        })
    }
}

/// Hash aggregation over optional group-by columns. With no group columns
/// it degenerates to a scalar aggregate producing exactly one row.
///
/// The input drains through the columnar protocol into a `GroupFold`;
/// the result is one [`ColumnBatch`] (groups in first-seen order);
/// `Row`s materialize only under `next()`.
pub struct HashAggregate {
    child: BoxedOperator,
    group_cols: Vec<usize>,
    aggs: Vec<AggFunc>,
    storage: smooth_storage::Storage,
    schema: Schema,
    degenerate_hash: bool,
    out: ColumnBuffer,
}

impl HashAggregate {
    /// Group child rows by `group_cols` and compute `aggs` per group.
    pub fn new(
        child: BoxedOperator,
        group_cols: Vec<usize>,
        aggs: Vec<AggFunc>,
        storage: smooth_storage::Storage,
    ) -> Result<Self> {
        let schema = output_schema(child.schema(), &group_cols, &aggs)?;
        let out = ColumnBuffer::for_schema(&schema);
        Ok(HashAggregate { child, group_cols, aggs, storage, schema, degenerate_hash: false, out })
    }

    /// Run the group table on [`KeyTable::degenerate`] (collision-chain
    /// and growth torture for the kernel property tests; results must
    /// not change).
    #[doc(hidden)]
    pub fn with_degenerate_hash(mut self) -> Self {
        self.degenerate_hash = true;
        self
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        self.out.reset();
        let mut fold = GroupFold::new(self.child.schema(), &self.group_cols, &self.aggs)?;
        if self.degenerate_hash {
            fold.degenerate_hash(self.child.schema());
        }
        // Drain the input through the columnar protocol: one virtual call
        // and one clock charge per batch rather than per tuple, group keys
        // and aggregate inputs read vector-at-a-time off the typed column
        // vectors (no row ever materializes on the way in).
        while let Some(batch) = self.child.next_columns(batch_size())? {
            fold.update(&self.storage, &batch)?;
        }
        self.child.close()?;
        *self.out.fill() = fold.finish(None)?;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.out.pop_row())
    }

    /// Emit the aggregated groups columnar, `max` at a time.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        Ok(self.out.pop_columns(max.max(1)))
    }

    fn close(&mut self) -> Result<()> {
        self.out.reset();
        // A failed `open` left the child open mid-drain.
        self.child.close()
    }

    fn label(&self) -> String {
        format!("HashAggregate(groups={:?}) → {}", self.group_cols, self.child.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};

    fn input(rows: Vec<(i64, i64)>) -> BoxedOperator {
        let schema =
            Schema::new(vec![Column::new("g", DataType::Int64), Column::new("v", DataType::Int64)])
                .unwrap();
        Box::new(ValuesOp::new(
            schema,
            rows.into_iter().map(|(g, v)| Row::new(vec![Value::Int(g), Value::Int(v)])).collect(),
        ))
    }

    fn storage() -> smooth_storage::Storage {
        smooth_storage::Storage::default_hdd()
    }

    #[test]
    fn grouped_aggregates() {
        let mut agg = HashAggregate::new(
            input(vec![(1, 10), (2, 5), (1, 20), (2, 7), (1, 30)]),
            vec![0],
            vec![
                AggFunc::CountStar,
                AggFunc::Sum(1),
                AggFunc::Avg(1),
                AggFunc::Min(1),
                AggFunc::Max(1),
            ],
            storage(),
        )
        .unwrap();
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows.len(), 2);
        let g1 = rows.iter().find(|r| r.int(0).unwrap() == 1).unwrap();
        assert_eq!(g1.int(1).unwrap(), 3);
        assert_eq!(g1.float(2).unwrap(), 60.0);
        assert_eq!(g1.float(3).unwrap(), 20.0);
        assert_eq!(g1.int(4).unwrap(), 10);
        assert_eq!(g1.int(5).unwrap(), 30);
        // first-seen group order is preserved
        assert_eq!(rows[0].int(0).unwrap(), 1);
        assert_eq!(rows[1].int(0).unwrap(), 2);
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let mut agg = HashAggregate::new(
            input(vec![]),
            vec![],
            vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::Min(1)],
            storage(),
        )
        .unwrap();
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].int(0).unwrap(), 0);
        assert_eq!(rows[0].float(1).unwrap(), 0.0);
        assert!(rows[0].get(2).is_null());
        assert!(rows[0].get(3).is_null());
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        let mut agg =
            HashAggregate::new(input(vec![]), vec![0], vec![AggFunc::CountStar], storage())
                .unwrap();
        assert!(collect_rows(&mut agg).unwrap().is_empty());
    }

    #[test]
    fn count_skips_nulls() {
        let schema = Schema::new(vec![Column::nullable("v", DataType::Int64)]).unwrap();
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Int(3)]),
        ];
        let child = Box::new(ValuesOp::new(schema, rows));
        let mut agg = HashAggregate::new(
            child,
            vec![],
            vec![AggFunc::CountStar, AggFunc::Count(0), AggFunc::Sum(0)],
            storage(),
        )
        .unwrap();
        let out = collect_rows(&mut agg).unwrap();
        assert_eq!(out[0].int(0).unwrap(), 3);
        assert_eq!(out[0].int(1).unwrap(), 2);
        assert_eq!(out[0].float(2).unwrap(), 4.0);
    }

    #[test]
    fn float_and_null_group_keys_group_bitwise() {
        // Every NaN lands in one group, 0.0 and -0.0 in two, NULL in its
        // own — deterministically, in first-seen order.
        let schema = Schema::new(vec![Column::nullable("g", DataType::Float64)]).unwrap();
        let keys = [Value::Float(f64::NAN), Value::Float(0.0), Value::Null, Value::Float(-0.0)];
        let rows: Vec<Row> = (0..12).map(|i| Row::new(vec![keys[i % 4].clone()])).collect();
        for degenerate in [false, true] {
            let child = Box::new(ValuesOp::new(schema.clone(), rows.clone()));
            let mut agg =
                HashAggregate::new(child, vec![0], vec![AggFunc::CountStar], storage()).unwrap();
            if degenerate {
                agg = agg.with_degenerate_hash();
            }
            let out = collect_rows(&mut agg).unwrap();
            assert_eq!(out.len(), 4);
            assert!(out[0].float(0).unwrap().is_nan());
            assert_eq!(out[1].float(0).unwrap().to_bits(), 0.0f64.to_bits());
            assert!(out[2].get(0).is_null());
            assert_eq!(out[3].float(0).unwrap().to_bits(), (-0.0f64).to_bits());
            assert!(out.iter().all(|r| r.int(1).unwrap() == 3));
        }
    }

    #[test]
    fn rejects_out_of_range_group_column() {
        assert!(HashAggregate::new(input(vec![]), vec![9], vec![], storage()).is_err());
    }

    #[test]
    fn output_schema_names_and_types() {
        let agg = HashAggregate::new(
            input(vec![]),
            vec![0],
            vec![AggFunc::Sum(1), AggFunc::CountStar],
            storage(),
        )
        .unwrap();
        let s = agg.schema();
        assert_eq!(s.column(0).name, "g");
        assert_eq!(s.column(1).name, "sum_v");
        assert_eq!(s.column(1).ty, DataType::Float64);
        assert_eq!(s.column(2).ty, DataType::Int64);
    }
}
