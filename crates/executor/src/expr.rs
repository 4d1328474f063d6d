//! Predicates evaluated over rows, and their compiled form over encoded
//! tuples.
//!
//! A small, concrete predicate language — range and equality tests
//! composable with AND/OR/NOT — rather than a general expression tree:
//! every query in the paper (micro-benchmark Q1, the skew query, and the
//! TPC-H-style workload) is a conjunction of column ranges and string
//! equalities. NULL comparisons evaluate to false, the practical
//! two-valued simplification of SQL's three-valued logic for filters.
//!
//! [`Predicate`] has two evaluators: branch-free mask kernels over typed
//! column vectors (`&`, not `&&`; no per-element bounds check; `AND` /
//! `OR` fold into reused masks), which every operator runs, and
//! [`Predicate::eval`] over one `Row`, the reference the kernels are
//! tested against. [`ScanFilter`] binds a predicate and output columns
//! to a table schema and a compiled [`TupleLayout`]: every columnar heap
//! read locates a page's tuples once, gathers the predicate's columns,
//! runs the kernel, compacts the mask branch-free into the qualifiers'
//! indices and gathers the output columns of those only.

use std::ops::{Bound, RangeBounds};

use smooth_storage::PageBuf;
use smooth_types::{
    ColumnBatch, ColumnBuffer, ColumnValues, ColumnVector, Result, Row, Schema, TupleLayout, Value,
};

/// The rows a vectorized kernel evaluates: every physical row of the
/// batch (dense, no index indirection — the auto-vectorizable shape) or
/// an explicit list of physical indices (a selection vector).
#[derive(Clone, Copy)]
enum RowSet<'a> {
    /// Rows `0..n`.
    Dense(usize),
    /// The listed physical rows, in order.
    Sparse(&'a [u32]),
}

impl RowSet<'_> {
    fn len(&self) -> usize {
        match self {
            RowSet::Dense(n) => *n,
            RowSet::Sparse(idx) => idx.len(),
        }
    }
}

/// Replace `out` with the `ids` whose `mask` entry is set, in order:
/// every id is written and the cursor moves by its mask bit, so a page
/// of mixed verdicts costs no mispredicted branch.
fn compact(mask: &[bool], ids: impl Iterator<Item = u32>, out: &mut Vec<u32>) {
    out.clear();
    out.resize(mask.len(), 0);
    let (slots, mut kept) = (out.as_mut_slice(), 0);
    for (&m, id) in mask.iter().zip(ids) {
        slots[kept] = id;
        kept += usize::from(m);
    }
    out.truncate(kept);
}

/// The row path's type error: `what`, then the value it met.
fn mistyped(what: &str, met: impl std::fmt::Display) -> smooth_types::Error {
    smooth_types::Error::exec(format!("{what} {met}"))
}

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan without filter).
    True,
    /// `lo <= col <= hi` with configurable open/closed ends, on an
    /// integer-like column.
    IntRange {
        /// Column ordinal.
        col: usize,
        /// Lower bound.
        lo: Bound<i64>,
        /// Upper bound.
        hi: Bound<i64>,
    },
    /// `col = value` on a text column.
    StrEq {
        /// Column ordinal.
        col: usize,
        /// Comparand.
        value: String,
    },
    /// `col IN (values)` on a text column.
    StrIn {
        /// Column ordinal.
        col: usize,
        /// Accepted values.
        values: Vec<String>,
    },
    /// `left < right` across two integer columns of the same row
    /// (TPC-H Q4/Q12: `l_commitdate < l_receiptdate`).
    IntColLt {
        /// Left column ordinal.
        left: usize,
        /// Right column ordinal.
        right: usize,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col = key` on an integer column.
    pub fn int_eq(col: usize, key: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(key), hi: Bound::Included(key) }
    }

    /// `lo <= col < hi` — the micro-benchmark's shape.
    pub fn int_half_open(col: usize, lo: i64, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(lo), hi: Bound::Excluded(hi) }
    }

    /// `col >= lo`.
    pub fn int_ge(col: usize, lo: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(lo), hi: Bound::Unbounded }
    }

    /// `col < hi`.
    pub fn int_lt(col: usize, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Unbounded, hi: Bound::Excluded(hi) }
    }

    /// `col <= hi`.
    pub fn int_le(col: usize, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Unbounded, hi: Bound::Included(hi) }
    }

    /// Conjunction that collapses trivial cases.
    pub fn and(preds: Vec<Predicate>) -> Self {
        let mut flat: Vec<Predicate> =
            preds.into_iter().filter(|p| !matches!(p, Predicate::True)).collect();
        match flat.pop() {
            None => Predicate::True,
            Some(only) if flat.is_empty() => only,
            Some(last) => {
                flat.push(last);
                Predicate::And(flat)
            }
        }
    }

    /// Evaluate against a row. Comparisons against NULL are false.
    pub fn eval(&self, row: &Row) -> Result<bool> {
        let values = row.values();
        Ok(match self {
            Predicate::True => true,
            Predicate::IntRange { col, lo, hi } => match &values[*col] {
                Value::Int(v) => (*lo, *hi).contains(v),
                Value::Null => false,
                other => return Err(mistyped("int predicate on non-int value", other)),
            },
            Predicate::StrEq { col, value } => match &values[*col] {
                Value::Str(s) => s == value,
                Value::Null => false,
                other => return Err(mistyped("string predicate on non-string value", other)),
            },
            Predicate::StrIn { col, values: accepted } => match &values[*col] {
                Value::Str(s) => accepted.iter().any(|v| v == s),
                Value::Null => false,
                other => return Err(mistyped("string predicate on non-string value", other)),
            },
            Predicate::IntColLt { left, right } => match (&values[*left], &values[*right]) {
                (Value::Int(a), Value::Int(b)) => a < b,
                (Value::Null, _) | (_, Value::Null) => false,
                (a, b) => {
                    return Err(mistyped("column comparison on non-ints:", format!("{a} vs {b}")))
                }
            },
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval(row)?,
        })
    }

    /// Vectorized evaluation: compute the boolean outcome for each row of
    /// `rows` into `out` (`out[k]` answers the `k`-th listed row), reading
    /// column vectors through `col`. Kernels are branch-free loops over
    /// typed vectors (`&` of the NULL test and the comparisons, not `&&`);
    /// the dense case cuts every vector to the row count first, so no
    /// index is bounds-checked — the auto-vectorizable shape the columnar
    /// layout exists for. `AND` / `OR` fold their children into a mask
    /// taken from `spare` and handed back, so a long-lived caller
    /// allocates none per call. NULL comparisons are false, as in the row
    /// path.
    ///
    /// Type errors surface per *column* here (a vector is uniformly
    /// typed), where the row path surfaces them per value; on well-typed
    /// plans the two agree exactly.
    fn eval_mask<'a, F>(
        &self,
        col: &F,
        rows: RowSet<'_>,
        out: &mut Vec<bool>,
        spare: &mut Vec<Vec<bool>>,
    ) -> Result<()>
    where
        F: Fn(usize) -> Result<&'a ColumnVector>,
    {
        out.clear();
        /// Expand one kernel body for both row-set shapes, binding each
        /// `$x` to row `$i`'s element of the slice `$xs`.
        macro_rules! fill {
            ($i:ident; $($x:ident = $xs:expr),+; $body:expr) => {
                match rows {
                    RowSet::Dense(n) => {
                        $(let $x = &$xs[..n];)+
                        out.extend((0..n).map(|$i| {
                            $(let $x = $x[$i];)+
                            $body
                        }))
                    }
                    RowSet::Sparse(idx) => out.extend(idx.iter().map(|&x| {
                        let $i = x as usize;
                        $(let $x = $xs[$i];)+
                        $body
                    })),
                }
            };
        }
        match self {
            Predicate::True => out.resize(rows.len(), true),
            Predicate::IntRange { col: c, lo, hi } => {
                let v = col(*c)?;
                let ColumnValues::Int(ints) = v.values() else {
                    return Err(smooth_types::Error::exec("int predicate on non-int column"));
                };
                // Normalize the bounds once; an overflowing exclusive
                // bound can match nothing.
                let lo_v = match lo {
                    Bound::Unbounded => Some(i64::MIN),
                    Bound::Included(l) => Some(*l),
                    Bound::Excluded(l) => l.checked_add(1),
                };
                let hi_v = match hi {
                    Bound::Unbounded => Some(i64::MAX),
                    Bound::Included(h) => Some(*h),
                    Bound::Excluded(h) => h.checked_sub(1),
                };
                let (Some(lo), Some(hi)) = (lo_v, hi_v) else {
                    out.resize(rows.len(), false);
                    return Ok(());
                };
                fill!(i; x = ints, null = v.nulls(); !null & (x >= lo) & (x <= hi));
            }
            Predicate::StrEq { col: c, value } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                fill!(i; null = v.nulls(); !null & (strs.bytes_at(i) == value.as_bytes()));
            }
            Predicate::StrIn { col: c, values } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                let hit = |s: &[u8]| values.iter().any(|a| a.as_bytes() == s);
                fill!(i; null = v.nulls(); !null & hit(strs.bytes_at(i)));
            }
            Predicate::IntColLt { left, right } => {
                let (l, r) = (col(*left)?, col(*right)?);
                let (ColumnValues::Int(lv), ColumnValues::Int(rv)) = (l.values(), r.values())
                else {
                    return Err(smooth_types::Error::exec("column comparison on non-ints"));
                };
                fill!(i; a = lv, b = rv, an = l.nulls(), bn = r.nulls(); !(an | bn) & (a < b));
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                let and = matches!(self, Predicate::And(_));
                out.resize(rows.len(), and);
                let mut tmp = spare.pop().unwrap_or_default();
                for p in ps {
                    p.eval_mask(col, rows, &mut tmp, spare)?;
                    for (o, &t) in out.iter_mut().zip(&tmp) {
                        *o = if and { *o & t } else { *o | t };
                    }
                }
                spare.push(tmp);
            }
            Predicate::Not(p) => {
                p.eval_mask(col, rows, out, spare)?;
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        Ok(())
    }

    /// Refine a batch's selection: evaluate the predicate over the live
    /// rows and return the surviving physical indices, in order. No row is
    /// materialized or moved — non-qualifiers simply drop out of the
    /// selection vector.
    pub fn filter_batch(&self, batch: &ColumnBatch) -> Result<Vec<u32>> {
        let col = |c: usize| batch.column_checked(c);
        let rows = batch.selection().map_or(RowSet::Dense(batch.physical_rows()), RowSet::Sparse);
        let (mut mask, mut kept) = (Vec::new(), Vec::new());
        self.eval_mask(&col, rows, &mut mask, &mut Vec::new())?;
        match rows {
            RowSet::Dense(_) => compact(&mask, 0.., &mut kept),
            RowSet::Sparse(sel) => compact(&mask, sel.iter().copied(), &mut kept),
        }
        Ok(kept)
    }

    /// Collect the column ordinals this predicate reads, ascending and
    /// deduplicated.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.remap(&mut |c| {
            cols.push(c);
            Some(c)
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The same predicate over renumbered columns: every ordinal `c` it
    /// reads becomes `to(c)`; `None` as soon as one has no new ordinal.
    /// Column pruning's rewrite — what a node's predicate reads after its
    /// input lost the columns nobody asked for.
    pub fn remap(&self, to: &mut dyn FnMut(usize) -> Option<usize>) -> Option<Predicate> {
        let mut all = |ps: &[Predicate]| ps.iter().map(|p| p.remap(to)).collect::<Option<Vec<_>>>();
        Some(match self {
            Predicate::True => Predicate::True,
            Predicate::IntRange { col, lo, hi } => {
                Predicate::IntRange { col: to(*col)?, lo: *lo, hi: *hi }
            }
            Predicate::StrEq { col, value } => {
                Predicate::StrEq { col: to(*col)?, value: value.clone() }
            }
            Predicate::StrIn { col, values } => {
                Predicate::StrIn { col: to(*col)?, values: values.clone() }
            }
            Predicate::IntColLt { left, right } => {
                Predicate::IntColLt { left: to(*left)?, right: to(*right)? }
            }
            Predicate::And(ps) => Predicate::And(all(ps)?),
            Predicate::Or(ps) => Predicate::Or(all(ps)?),
            Predicate::Not(p) => Predicate::Not(Box::new(p.remap(to)?)),
        })
    }

    /// If this predicate constrains exactly one integer column with a range
    /// usable to drive an index (possibly with residual work left over),
    /// return `(col, lo, hi, residual)`. Conjunctions pick the first
    /// matching conjunct; everything else becomes residual.
    pub fn split_index_range(&self) -> Option<(usize, Bound<i64>, Bound<i64>, Predicate)> {
        match self {
            Predicate::IntRange { col, lo, hi } => Some((*col, *lo, *hi, Predicate::True)),
            Predicate::And(ps) => ps.iter().enumerate().find_map(|(i, p)| {
                let Predicate::IntRange { col, lo, hi } = p else { return None };
                let mut rest = ps.clone();
                rest.remove(i);
                Some((*col, *lo, *hi, Predicate::and(rest)))
            }),
            _ => None,
        }
    }
}

/// A predicate and a set of output columns compiled against one table
/// schema: filters and decodes *encoded* tuples a page at a time through
/// one [`TupleLayout`] bound to *predicate columns ∪ output columns* —
/// the vectorized scan's selection pushdown and its column pruning.
/// [`ScanFilter::select`] locates the page's tuples (every tuple
/// structurally validated, qualifying or not — a corrupt page errors
/// exactly as under [`Row::decode`]), gathers the columns the predicate
/// reads and runs the mask kernel over them; [`ScanFilter::gather_selected`]
/// then decodes the output columns of the qualifiers only, from what the
/// same `locate` recorded. Nothing is parsed twice, and a column neither
/// read nor emitted is walked past, never materialized or UTF-8-checked.
#[derive(Clone)]
pub struct ScanFilter {
    predicate: Predicate,
    /// The output columns' schema: the table's, narrowed.
    schema: Schema,
    /// Columns of the table (a narrower output prints itself in labels).
    table_width: usize,
    /// Decoder for the predicate's and the output's columns.
    layout: TupleLayout,
    /// The layout slot of each output column, in output order.
    out_slots: Vec<usize>,
    /// Probe scratch, by table ordinal: the layout slot of, and a typed
    /// vector for, each column the predicate reads, holding one value per
    /// tuple of the last selected page (reused across pages — no
    /// steady-state allocation).
    probed: Vec<Option<(usize, ColumnVector)>>,
    /// Mask scratch for the columnar kernels, and spare masks for their
    /// `AND` / `OR` folds.
    mask: Vec<bool>,
    spare: Vec<Vec<bool>>,
    /// Indices of the last selected page's qualifiers, ascending.
    selected: Vec<u32>,
}

/// Up to this many qualifiers on a page decode row by row: a column pass
/// has a fixed cost per column that a handful of values cannot amortize
/// (an index scan's one tuple per page, a sort scan's sparse bitmap).
const ROW_MAJOR_MAX: usize = 4;

impl ScanFilter {
    /// Compile `predicate` for tuples of `schema`, emitting every column.
    pub fn new(predicate: Predicate, schema: &Schema) -> Self {
        Self::bind(predicate, schema, None, schema.clone())
    }

    /// Compile `predicate` for tuples of `table`, emitting the columns
    /// `cols` (strictly ascending table ordinals — [`Schema::narrow`];
    /// `None` = all of them).
    pub fn with_output(p: Predicate, table: &Schema, cols: Option<&[usize]>) -> Result<Self> {
        Ok(Self::bind(p, table, cols, table.narrow(cols)?))
    }

    fn bind(predicate: Predicate, table: &Schema, cols: Option<&[usize]>, schema: Schema) -> Self {
        let out: Vec<usize> = cols.map_or_else(|| (0..table.len()).collect(), <[usize]>::to_vec);
        let refs = predicate.referenced_columns();
        let mut wanted: Vec<usize> = out.iter().chain(&refs).copied().collect();
        wanted.sort_unstable();
        wanted.dedup();
        let slot = |c: usize| wanted.partition_point(|&w| w < c);
        let mut probed: Vec<Option<(usize, ColumnVector)>> = vec![None; table.len()];
        for c in refs {
            probed[c] = Some((slot(c), ColumnVector::for_type(table.column(c).ty)));
        }
        ScanFilter {
            predicate,
            schema,
            table_width: table.len(),
            layout: TupleLayout::new(table, &wanted),
            out_slots: out.iter().map(|&c| slot(c)).collect(),
            probed,
            mask: Vec::new(),
            spare: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// Re-compile for the output columns `cols` of `table` (see
    /// [`ScanFilter::with_output`]) and hand back the empty output
    /// buffer typed for them — the body of every scan's `with_columns`.
    pub fn narrow(&mut self, table: &Schema, cols: Option<&[usize]>) -> Result<ColumnBuffer> {
        *self = Self::with_output(self.predicate.clone(), table, cols)?;
        Ok(ColumnBuffer::for_schema(&self.schema))
    }

    /// The compiled predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The schema of the rows this filter emits.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `[a, b, c]` — the output columns by name — when the output is
    /// narrower than the table, else empty: what a scan appends to its
    /// `EXPLAIN` label.
    pub fn columns_label(&self) -> String {
        if self.schema.len() == self.table_width {
            return String::new();
        }
        let names: Vec<&str> = self.schema.columns().iter().map(|c| c.name.as_str()).collect();
        format!("[{}]", names.join(", "))
    }

    /// Validate `tuples` (one page's worth) and evaluate the predicate
    /// over them, returning how many qualify; [`ScanFilter::selected`]
    /// then names them. Feeds no scan statistics — scans that select
    /// without [`ScanFilter::fill`] tap their own counts.
    pub fn select(&mut self, tuples: &[&[u8]]) -> Result<usize> {
        self.layout.locate(tuples)?;
        self.selected.clear();
        if matches!(self.predicate, Predicate::True) {
            self.selected.extend(0..tuples.len() as u32);
            return Ok(tuples.len());
        }
        for (slot, v) in self.probed.iter_mut().flatten() {
            v.clear();
            self.layout.gather(*slot, tuples, None, v)?;
        }
        let probed = &self.probed;
        let lookup = |c: usize| -> Result<&ColumnVector> {
            probed
                .get(c)
                .and_then(Option::as_ref)
                .map(|(_, v)| v)
                .ok_or_else(|| smooth_types::Error::exec(format!("column {c} out of range")))
        };
        let rows = RowSet::Dense(tuples.len());
        self.predicate.eval_mask(&lookup, rows, &mut self.mask, &mut self.spare)?;
        compact(&self.mask, 0.., &mut self.selected);
        Ok(self.selected.len())
    }

    /// Indices (into the tuples last passed to [`ScanFilter::select`]) of
    /// the qualifiers, ascending.
    pub fn selected(&self) -> &[u32] {
        &self.selected
    }

    /// Column `col` (a table ordinal) of the last selected page as the
    /// predicate read it: one slot per tuple, qualifying or not. `None`
    /// unless the predicate references `col`.
    pub fn probed_column(&self, col: usize) -> Option<&ColumnVector> {
        self.probed.get(col).and_then(Option::as_ref).map(|(_, v)| v)
    }

    /// Append the output columns of the last selected qualifiers to `out`
    /// (one vector per output column), densely, in tuple order. `tuples`
    /// must be the slice [`ScanFilter::select`] saw.
    pub fn gather_selected(&self, tuples: &[&[u8]], out: &mut [ColumnVector]) -> Result<()> {
        if self.selected.len() <= ROW_MAJOR_MAX {
            let (layout, slots) = (&self.layout, &self.out_slots);
            let mut rows = self.selected.iter();
            return rows.try_for_each(|&t| layout.gather_row_of(tuples, t as usize, slots, out));
        }
        if out.len() != self.out_slots.len() {
            return Err(smooth_types::Error::exec("gather into a batch of another width"));
        }
        let rows = (self.selected.len() < tuples.len()).then_some(self.selected.as_slice());
        let mut cols = out.iter_mut().zip(&self.out_slots);
        cols.try_for_each(|(v, &k)| self.layout.gather(k, tuples, rows, v))
    }

    /// Check the text among the output columns of the last selected
    /// qualifiers as [`ScanFilter::gather_selected`] would, without
    /// decoding them (the text the predicate read was checked when it
    /// was probed) — for a consumer that keeps the encoded bytes and
    /// decodes the same columns later.
    pub fn check_selected_text(&self, tuples: &[&[u8]]) -> Result<()> {
        self.layout.check_text(tuples, &self.selected)
    }

    /// Columnar fill: append the qualifying tuples among `tuples` to
    /// `out` (typed for [`ScanFilter::schema`]), densely, in input order.
    /// Returns `(inspected, emitted)` for the caller's clock accounting —
    /// `inspected` is always `tuples.len()`, so a bulk per-page charge
    /// totals what per-tuple charges would.
    pub fn fill(&mut self, tuples: &[&[u8]], out: &mut ColumnBatch) -> Result<(u64, u64)> {
        let (inspected, emitted) = (tuples.len() as u64, self.select(tuples)? as u64);
        self.gather_selected(tuples, out.columns_mut())?;
        out.commit_rows(emitted as usize);
        smooth_storage::tap_rows(inspected, emitted);
        Ok((inspected, emitted))
    }

    /// [`ScanFilter::fill`] under the signature the wall-clock
    /// `benchmark/` package calls, which changes in PRs of its own:
    /// `_schema` and `_backing` are ignored (the filter knows its table,
    /// and text always copies into `out`'s arenas).
    pub fn fill_columns(
        &mut self,
        _schema: &Schema,
        tuples: &[&[u8]],
        _backing: Option<&PageBuf>,
        out: &mut ColumnBatch,
    ) -> Result<(u64, u64)> {
        self.fill(tuples, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(v), Value::str(s)])
    }

    #[test]
    fn ranges() {
        let p = Predicate::int_half_open(0, 10, 20);
        assert!(p.eval(&row(10, "")).unwrap());
        assert!(p.eval(&row(19, "")).unwrap());
        assert!(!p.eval(&row(20, "")).unwrap());
        assert!(!p.eval(&row(9, "")).unwrap());
        assert!(Predicate::int_eq(0, 5).eval(&row(5, "")).unwrap());
        assert!(Predicate::int_ge(0, 5).eval(&row(5, "")).unwrap());
        assert!(Predicate::int_lt(0, 5).eval(&row(4, "")).unwrap());
        assert!(Predicate::int_le(0, 5).eval(&row(5, "")).unwrap());
    }

    #[test]
    fn strings_and_composites() {
        let p = Predicate::And(vec![
            Predicate::int_ge(0, 0),
            Predicate::StrEq { col: 1, value: "ok".into() },
        ]);
        assert!(p.eval(&row(1, "ok")).unwrap());
        assert!(!p.eval(&row(1, "no")).unwrap());
        assert!(!p.eval(&row(-1, "ok")).unwrap());
        let q = Predicate::Or(vec![
            Predicate::StrIn { col: 1, values: vec!["a".into(), "b".into()] },
            Predicate::int_eq(0, 7),
        ]);
        assert!(q.eval(&row(0, "b")).unwrap());
        assert!(q.eval(&row(7, "z")).unwrap());
        assert!(!q.eval(&row(0, "z")).unwrap());
        let n = Predicate::Not(Box::new(Predicate::True));
        assert!(!n.eval(&row(0, "")).unwrap());
    }

    #[test]
    fn text_masks_compare_bytes_like_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![Column::nullable("s", DataType::Text)]).unwrap();
        let texts = ["", "ok", "o", "okay", "é", "日本", "日", "e\u{301}"];
        let mut rows: Vec<Row> = texts.iter().map(|t| Row::new(vec![Value::str(*t)])).collect();
        rows.insert(3, Row::new(vec![Value::Null]));
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        let accept = |values: &[&str]| values.iter().map(|v| v.to_string()).collect();
        let preds = [
            Predicate::StrEq { col: 0, value: "ok".into() },
            Predicate::StrEq { col: 0, value: String::new() },
            Predicate::StrEq { col: 0, value: "日本".into() },
            Predicate::StrIn { col: 0, values: accept(&["okay", "é", ""]) },
            Predicate::StrIn { col: 0, values: accept(&["日", "nothing"]) },
            Predicate::StrIn { col: 0, values: Vec::new() },
        ];
        // Dense, and through a selection vector naming the rows backwards.
        let mut reversed = batch.clone();
        reversed.set_selection((0..rows.len() as u32).rev().collect());
        for pred in &preds {
            let matches = |i: &u32| pred.eval(&rows[*i as usize]).unwrap();
            let expected: Vec<u32> = (0..rows.len() as u32).filter(matches).collect();
            assert_eq!(pred.filter_batch(&batch).unwrap(), expected, "{pred:?}");
            let expected: Vec<u32> = expected.into_iter().rev().collect();
            assert_eq!(pred.filter_batch(&reversed).unwrap(), expected, "{pred:?} (sparse)");
        }
    }

    #[test]
    fn nulls_never_match() {
        let r = Row::new(vec![Value::Null, Value::Null]);
        assert!(!Predicate::int_eq(0, 0).eval(&r).unwrap());
        assert!(!Predicate::StrEq { col: 1, value: String::new() }.eval(&r).unwrap());
        // but NOT(null-compare) is true under two-valued semantics
        assert!(Predicate::Not(Box::new(Predicate::int_eq(0, 0))).eval(&r).unwrap());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        assert!(Predicate::int_eq(1, 0).eval(&row(0, "x")).is_err());
        assert!(Predicate::StrEq { col: 0, value: "x".into() }.eval(&row(0, "x")).is_err());
    }

    #[test]
    fn column_comparison() {
        let p = Predicate::IntColLt { left: 0, right: 1 };
        let two_ints = Row::new(vec![Value::Int(3), Value::Int(5)]);
        assert!(p.eval(&two_ints).unwrap());
        let eq = Row::new(vec![Value::Int(5), Value::Int(5)]);
        assert!(!p.eval(&eq).unwrap());
        let with_null = Row::new(vec![Value::Null, Value::Int(5)]);
        assert!(!p.eval(&with_null).unwrap());
        assert!(p.eval(&row(0, "x")).is_err());
    }

    #[test]
    fn and_collapses() {
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        assert_eq!(Predicate::and(vec![Predicate::True]), Predicate::True);
        let p = Predicate::int_eq(0, 1);
        assert_eq!(Predicate::and(vec![Predicate::True, p.clone()]), p);
    }

    #[test]
    fn referenced_columns_are_sorted_and_deduped() {
        let p = Predicate::And(vec![
            Predicate::StrEq { col: 3, value: "x".into() },
            Predicate::Or(vec![Predicate::int_eq(1, 5), Predicate::IntColLt { left: 3, right: 0 }]),
        ]);
        assert_eq!(p.referenced_columns(), vec![0, 1, 3]);
        assert!(Predicate::True.referenced_columns().is_empty());
        assert_eq!(Predicate::Not(Box::new(Predicate::int_eq(2, 0))).referenced_columns(), vec![2]);
    }

    #[test]
    fn scan_filter_agrees_with_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows = [
            Row::new(vec![Value::Int(1), Value::Int(10), Value::str("x")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::str("y")]),
            Row::new(vec![Value::Int(3), Value::Int(-4), Value::str("x")]),
        ];
        let preds = [
            Predicate::True,
            Predicate::int_ge(1, 0),
            Predicate::And(vec![
                Predicate::int_lt(0, 3),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
            // references every column → full-decode fallback
            Predicate::And(vec![
                Predicate::int_ge(0, 0),
                Predicate::int_ge(1, -100),
                Predicate::StrIn { col: 2, values: vec!["x".into(), "y".into()] },
            ]),
        ];
        for pred in preds {
            let mut filter = ScanFilter::new(pred.clone(), &schema);
            for r in &rows {
                let bytes = r.encode(&schema).unwrap();
                let mut got = ColumnBatch::for_schema(&schema);
                let (_, emitted) = filter.fill_columns(&schema, &[&bytes], None, &mut got).unwrap();
                assert_eq!(emitted == 1, pred.eval(r).unwrap(), "{pred:?} on {r:?}");
                assert_eq!(got.into_rows(), vec![r.clone(); emitted as usize]);
            }
        }
    }

    #[test]
    fn columnar_kernels_agree_with_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::nullable("s", DataType::Text),
        ])
        .unwrap();
        let rows = [
            Row::new(vec![Value::Int(1), Value::Int(10), Value::str("x")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::str("y")]),
            Row::new(vec![Value::Int(3), Value::Int(-4), Value::Null]),
            Row::new(vec![Value::Int(4), Value::Int(2), Value::str("x")]),
        ];
        let preds = [
            Predicate::True,
            Predicate::int_half_open(0, 2, 4),
            Predicate::int_ge(1, 0),
            Predicate::IntRange { col: 0, lo: Bound::Excluded(i64::MAX), hi: Bound::Unbounded },
            Predicate::StrEq { col: 2, value: "x".into() },
            Predicate::StrIn { col: 2, values: vec!["y".into(), "z".into()] },
            Predicate::IntColLt { left: 0, right: 1 },
            Predicate::And(vec![
                Predicate::int_ge(0, 2),
                Predicate::Or(vec![
                    Predicate::StrEq { col: 2, value: "x".into() },
                    Predicate::int_lt(1, 0),
                ]),
            ]),
            Predicate::Not(Box::new(Predicate::int_eq(0, 2))),
        ];
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        for pred in &preds {
            let sel = pred.filter_batch(&batch).unwrap();
            let expected: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| pred.eval(r).unwrap())
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(sel, expected, "{pred:?}");
        }
        // refinement composes with an existing selection vector
        let mut narrowed = batch.clone();
        narrowed.set_selection(vec![3, 1, 0]);
        let sel = Predicate::int_ge(0, 2).filter_batch(&narrowed).unwrap();
        assert_eq!(sel, vec![3, 1], "selection order survives refinement");
    }

    #[test]
    fn fill_columns_matches_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 7 == 0 { Value::Null } else { Value::Int(i % 50) },
                    Value::str(if i % 3 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode(&schema).unwrap()).collect();
        let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let preds = [
            Predicate::True,
            Predicate::int_lt(1, 5), // a few qualifiers a page → row-major gather
            Predicate::int_ge(1, 0), // most of the page → column-major gather
            Predicate::And(vec![
                Predicate::int_ge(0, 100),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
        ];
        for pred in preds {
            let mut col_filter = ScanFilter::new(pred.clone(), &schema);
            let expected: Vec<Row> =
                rows.iter().filter(|r| pred.eval(r).unwrap()).cloned().collect();
            let mut out = ColumnBatch::for_schema(&schema);
            let mut emitted_total = 0;
            // feed in page-sized chunks, as a scan does
            for chunk in tuples.chunks(90) {
                let (inspected, emitted) =
                    col_filter.fill_columns(&schema, chunk, None, &mut out).unwrap();
                assert_eq!(inspected as usize, chunk.len());
                emitted_total += emitted as usize;
            }
            assert_eq!(emitted_total, expected.len(), "{pred:?}");
            assert_eq!(out.into_rows(), expected, "{pred:?}");
        }
    }

    #[test]
    fn split_extracts_index_range() {
        let p = Predicate::And(vec![
            Predicate::StrEq { col: 1, value: "x".into() },
            Predicate::int_half_open(0, 3, 9),
        ]);
        let (col, lo, hi, residual) = p.split_index_range().unwrap();
        assert_eq!(col, 0);
        assert_eq!(lo, Bound::Included(3));
        assert_eq!(hi, Bound::Excluded(9));
        assert_eq!(residual, Predicate::StrEq { col: 1, value: "x".into() });
        assert!(Predicate::True.split_index_range().is_none());
        let lone = Predicate::int_eq(2, 5);
        let (col, _, _, residual) = lone.split_index_range().unwrap();
        assert_eq!(col, 2);
        assert_eq!(residual, Predicate::True);
    }
}
