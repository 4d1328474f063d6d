//! Columnar batches: typed column vectors plus a selection vector.
//!
//! A [`ColumnBatch`] is the unit of the vectorized iterator protocol:
//! one dense, uniformly-typed vector per column (integers, floats or
//! strings, with a parallel null mask) and an optional *selection vector*
//! naming the live rows. The layout exists for the hot paths:
//!
//! * scans decode pages straight into column vectors, a column at a time
//!   through a compiled [`crate::layout::TupleLayout`], paying no per-row
//!   `Vec<Value>` allocation;
//! * predicates evaluate as tight loops over a single typed vector,
//!   producing a selection vector instead of moving any data;
//! * projection is column pruning, not per-row rebuilding.
//!
//! Adapters ([`ColumnBatch::from_rows`], [`ColumnBatch::into_rows`])
//! convert to and from rows at the edges (test inputs, results, the
//! one-row `next()` view); `String`s materialize only at that boundary.
//!
//! Typing follows the schema: `Int32`/`Int64`/`Date` columns widen into an
//! `i64` vector, `Float64` into `f64`, `Text` into a [`TextColumn`] — one
//! byte arena per column plus one end offset per slot, so text costs no
//! per-value allocation and every batch owns its bytes (no result holds a
//! page frame). NULL slots carry a default value in the typed vector and
//! `true` in the null mask.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Default number of rows per batch request. Large enough to amortize
/// per-call overhead, small enough to stay cache-resident and to keep
/// morphing decisions fine-grained (a heap page holds ~90 tuples, so this
/// is ~11 pages worth of output).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A `Text` column payload: every slot's UTF-8 bytes back to back in one
/// arena, and where each slot ends — no per-value `String`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextColumn {
    /// The slots' bytes, concatenated in slot order.
    bytes: Vec<u8>,
    /// `ends[i]`: where slot `i` stops in `bytes`; it starts where slot
    /// `i - 1` stops (at 0 for the first).
    ends: Vec<usize>,
}

impl TextColumn {
    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the column holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where slot `idx` starts in the arena (`idx == len()` is the end).
    #[inline]
    fn start(&self, idx: usize) -> usize {
        idx.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }

    /// The raw UTF-8 bytes at `idx` — what key hashing, equality and
    /// ordering read (no re-validation, unlike [`TextColumn::get`]).
    #[inline]
    pub fn bytes_at(&self, idx: usize) -> &[u8] {
        &self.bytes[self.start(idx)..self.ends[idx]]
    }

    /// The string at `idx` (panics when out of bounds, like indexing).
    #[inline]
    pub fn get(&self, idx: usize) -> &str {
        // invariant: every slot's bytes came from a `&str` or from
        // another column's slot.
        std::str::from_utf8(self.bytes_at(idx)).expect("text slots hold validated UTF-8")
    }

    /// Append a value: its bytes copy into the arena (amortized — no
    /// per-value allocation).
    #[inline]
    pub fn push_owned(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Append `bytes` (validated UTF-8 — a `&str`'s or another slot's) as
    /// one slot.
    #[inline]
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.ends.push(self.bytes.len());
    }

    /// Append slot `idx` of `src` — the gather primitive behind
    /// [`ColumnVector::push_from`] and friends.
    #[inline]
    pub fn push_from(&mut self, src: &TextColumn, idx: usize) {
        self.push_bytes(src.bytes_at(idx));
    }

    /// Make room for `n` more slots.
    #[inline]
    pub(crate) fn reserve(&mut self, n: usize) {
        self.ends.reserve(n);
    }

    /// Append slots `[a, b)` of `src`: one copy of their byte range, and
    /// their ends rebased onto this arena.
    fn append_range(&mut self, src: &TextColumn, a: usize, b: usize) {
        let (from, base) = (src.start(a), self.bytes.len());
        self.bytes.extend_from_slice(&src.bytes[from..src.start(b)]);
        self.ends.extend(src.ends[a..b].iter().map(|end| end - from + base));
    }

    /// Drop every slot (capacity is kept).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Drop the first `n` slots and their bytes, shifting the rest down.
    fn drop_prefix(&mut self, n: usize) {
        let cut = self.start(n);
        self.bytes.drain(..cut);
        self.ends.drain(..n);
        self.ends.iter_mut().for_each(|end| *end -= cut);
    }
}

/// The typed payload of one column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// Integer-like columns (`Int32`, `Int64`, `Date` widen to `i64`).
    Int(Vec<i64>),
    /// `Float64` columns.
    Float(Vec<f64>),
    /// `Text` columns (see [`TextColumn`]).
    Str(TextColumn),
}

impl ColumnValues {
    fn drop_prefix(&mut self, n: usize) {
        match self {
            ColumnValues::Int(v) => drop(v.drain(..n)),
            ColumnValues::Float(v) => drop(v.drain(..n)),
            ColumnValues::Str(v) => v.drop_prefix(n),
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnValues::Int(v) => v.clear(),
            ColumnValues::Float(v) => v.clear(),
            ColumnValues::Str(v) => v.clear(),
        }
    }
}

/// One column's worth of values: a typed vector plus a null mask.
///
/// Null slots hold a default payload (`0`, `0.0`, `""`) and `true` in the
/// mask; kernels must consult [`ColumnVector::nulls`] before the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVector {
    pub(crate) values: ColumnValues,
    pub(crate) nulls: Vec<bool>,
}

impl ColumnVector {
    /// An empty vector typed for `ty`.
    pub fn for_type(ty: DataType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// An empty vector typed for `ty` with room for `n` slots.
    fn with_capacity(ty: DataType, n: usize) -> Self {
        let values = match ty {
            DataType::Int32 | DataType::Int64 | DataType::Date => {
                ColumnValues::Int(Vec::with_capacity(n))
            }
            DataType::Float64 => ColumnValues::Float(Vec::with_capacity(n)),
            DataType::Text => {
                ColumnValues::Str(TextColumn { bytes: Vec::new(), ends: Vec::with_capacity(n) })
            }
        };
        ColumnVector { values, nulls: Vec::with_capacity(n) }
    }

    /// Number of slots (live or not — selection is batch-level).
    #[inline]
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// `true` when the vector holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nulls.is_empty()
    }

    /// The typed payload.
    #[inline]
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// The null mask, parallel to the payload.
    #[inline]
    pub fn nulls(&self) -> &[bool] {
        &self.nulls
    }

    /// Whether slot `idx` is NULL.
    #[inline]
    pub fn is_null(&self, idx: usize) -> bool {
        self.nulls[idx]
    }

    /// Drop all slots, keeping capacity.
    pub fn clear(&mut self) {
        self.values.clear();
        self.nulls.clear();
    }

    /// Append a NULL slot.
    #[inline]
    pub fn push_null(&mut self) {
        match &mut self.values {
            ColumnValues::Int(v) => v.push(0),
            ColumnValues::Float(v) => v.push(0.0),
            ColumnValues::Str(v) => v.push_owned(""),
        }
        self.nulls.push(true);
    }

    /// Append an integer (errors on non-integer vectors).
    #[inline]
    pub fn push_int(&mut self, x: i64) -> Result<()> {
        match &mut self.values {
            ColumnValues::Int(v) => {
                v.push(x);
                self.nulls.push(false);
                Ok(())
            }
            _ => Err(Error::exec("integer pushed into a non-integer column vector")),
        }
    }

    /// Append a float (errors on non-float vectors).
    #[inline]
    pub fn push_float(&mut self, x: f64) -> Result<()> {
        match &mut self.values {
            ColumnValues::Float(v) => {
                v.push(x);
                self.nulls.push(false);
                Ok(())
            }
            _ => Err(Error::exec("float pushed into a non-float column vector")),
        }
    }

    /// Append a string (errors on non-text vectors). Bytes copy into the
    /// column arena — no per-value allocation.
    #[inline]
    pub fn push_str(&mut self, s: impl AsRef<str>) -> Result<()> {
        match &mut self.values {
            ColumnValues::Str(v) => {
                v.push_owned(s.as_ref());
                self.nulls.push(false);
                Ok(())
            }
            _ => Err(Error::exec("string pushed into a non-text column vector")),
        }
    }

    /// Append a [`Value`], type-checked against the vector.
    pub fn push_value(&mut self, value: &Value) -> Result<()> {
        match value {
            Value::Null => {
                self.push_null();
                Ok(())
            }
            Value::Int(x) => self.push_int(*x),
            Value::Float(x) => self.push_float(*x),
            Value::Str(s) => self.push_str(s),
        }
    }

    /// The value at `idx` as a [`Value`] (string bytes copy out — this is
    /// the row-materialization boundary).
    pub fn value(&self, idx: usize) -> Value {
        if self.nulls[idx] {
            return Value::Null;
        }
        match &self.values {
            ColumnValues::Int(v) => Value::Int(v[idx]),
            ColumnValues::Float(v) => Value::Float(v[idx]),
            ColumnValues::Str(v) => Value::Str(v.get(idx).to_owned()),
        }
    }

    /// Integer at `idx` (NULL or wrong type errors).
    #[inline]
    pub fn int(&self, idx: usize) -> Result<i64> {
        if self.nulls[idx] {
            return Err(Error::exec("expected int, got NULL"));
        }
        match &self.values {
            ColumnValues::Int(v) => Ok(v[idx]),
            _ => Err(Error::exec("expected int column")),
        }
    }

    /// Float at `idx` (integers widen; NULL or text errors).
    #[inline]
    pub fn float(&self, idx: usize) -> Result<f64> {
        if self.nulls[idx] {
            return Err(Error::exec("expected float, got NULL"));
        }
        match &self.values {
            ColumnValues::Float(v) => Ok(v[idx]),
            ColumnValues::Int(v) => Ok(v[idx] as f64),
            ColumnValues::Str(_) => Err(Error::exec("expected float column")),
        }
    }

    /// String at `idx` (NULL or wrong type errors).
    #[inline]
    pub fn str(&self, idx: usize) -> Result<&str> {
        if self.nulls[idx] {
            return Err(Error::exec("expected text, got NULL"));
        }
        match &self.values {
            ColumnValues::Str(v) => Ok(v.get(idx)),
            _ => Err(Error::exec("expected text column")),
        }
    }

    /// Order `self[idx]` against a [`Value`] under [`Value::total_cmp`]
    /// semantics, without materializing a `Value`.
    pub fn cmp_value(&self, idx: usize, other: &Value) -> std::cmp::Ordering {
        // Cheap for Int/Float; Str compares bytes (`str`'s order is byte
        // order) with no re-validation.
        match (&self.values, other) {
            _ if self.nulls[idx] => Value::Null.total_cmp(other),
            (ColumnValues::Int(v), Value::Int(b)) => v[idx].cmp(b),
            (ColumnValues::Int(v), Value::Float(b)) => (v[idx] as f64).total_cmp(b),
            (ColumnValues::Float(v), Value::Float(b)) => v[idx].total_cmp(b),
            (ColumnValues::Float(v), Value::Int(b)) => v[idx].total_cmp(&(*b as f64)),
            (ColumnValues::Str(v), Value::Str(b)) => v.bytes_at(idx).cmp(b.as_bytes()),
            _ => self.value(idx).total_cmp(other),
        }
    }

    /// Append slot `idx` of `src` — the gather primitive of the columnar
    /// hash-join probe, where one build row can be emitted under many
    /// probe rows. Text copies its bytes — never a per-value allocation.
    /// Both vectors must share their typing (they come from batches of
    /// the same schema column).
    #[inline]
    pub fn push_from(&mut self, src: &ColumnVector, idx: usize) {
        if src.nulls[idx] {
            self.push_null();
            return;
        }
        self.nulls.push(false);
        match (&mut self.values, &src.values) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => dst.push(s[idx]),
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => dst.push(s[idx]),
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => dst.push_from(s, idx),
            _ => unreachable!("gather between column vectors of different typing"),
        }
    }

    /// Append the slots of `src` named by `idx`, in order — the bulk form
    /// of [`ColumnVector::push_from`]: one typed loop per column instead
    /// of one enum dispatch per value. NULL slots carry their default
    /// payload, so payload and mask gather independently. Typing must
    /// match.
    pub fn extend_gather(&mut self, src: &ColumnVector, idx: &[u32]) {
        self.nulls.extend(idx.iter().map(|&i| src.nulls[i as usize]));
        match (&mut self.values, &src.values) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => {
                dst.extend(idx.iter().map(|&i| s[i as usize]))
            }
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => {
                dst.extend(idx.iter().map(|&i| s[i as usize]))
            }
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => {
                dst.reserve(idx.len());
                dst.bytes.reserve(idx.iter().map(|&i| s.bytes_at(i as usize).len()).sum());
                idx.iter().for_each(|&i| dst.push_from(s, i as usize));
            }
            _ => unreachable!("gather between column vectors of different typing"),
        }
    }

    /// Order `self[i]` against `other[j]` exactly as [`Value::total_cmp`]
    /// orders the two slots' values — NULL first, `i64::cmp`,
    /// `f64::total_cmp`, text byte-wise — without materializing a
    /// `Value`. This is the sort comparator, read straight off the typed
    /// key vectors.
    #[inline]
    pub fn slot_cmp(&self, i: usize, other: &ColumnVector, j: usize) -> std::cmp::Ordering {
        if self.nulls[i] || other.nulls[j] {
            return other.nulls[j].cmp(&self.nulls[i]);
        }
        match (&self.values, &other.values) {
            (ColumnValues::Int(a), ColumnValues::Int(b)) => a[i].cmp(&b[j]),
            (ColumnValues::Float(a), ColumnValues::Float(b)) => a[i].total_cmp(&b[j]),
            (ColumnValues::Str(a), ColumnValues::Str(b)) => a.bytes_at(i).cmp(b.bytes_at(j)),
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }

    /// An order-preserving `u64` image of slot `idx` under
    /// [`ColumnVector::slot_cmp`] — the sort's normalized first key:
    /// `sort_prefix(i) < sort_prefix(j)` implies `slot_cmp(i, self, j)`
    /// is `Less`, and equal images decide nothing. Integers flip their
    /// sign bit, floats map `f64::total_cmp` order onto unsigned bits,
    /// text is its first 8 bytes big-endian, zero-padded, and NULL is 0
    /// (at or below every value). A descending key complements it.
    #[inline]
    pub fn sort_prefix(&self, idx: usize) -> u64 {
        if self.nulls[idx] {
            return 0;
        }
        match &self.values {
            ColumnValues::Int(v) => v[idx] as u64 ^ 1 << 63,
            ColumnValues::Float(v) => {
                let bits = v[idx].to_bits();
                if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | 1 << 63
                }
            }
            ColumnValues::Str(v) => {
                let bytes = v.bytes_at(idx);
                let mut word = [0u8; 8];
                let n = bytes.len().min(8);
                word[..n].copy_from_slice(&bytes[..n]);
                u64::from_be_bytes(word)
            }
        }
    }

    /// Type-tagged pre-hash of slot `idx` for hash-table keys: the raw
    /// integer, the float's IEEE bits, a mix over the text bytes, or a
    /// fixed tag for NULL. Consistent with [`ColumnVector::slot_eq`]
    /// (equal slots pre-hash equally); callers mix it further.
    #[inline]
    pub fn slot_hash(&self, idx: usize) -> u64 {
        if self.nulls[idx] {
            return 0x6e75_6c6c_6b65_795f;
        }
        match &self.values {
            ColumnValues::Int(v) => v[idx] as u64,
            ColumnValues::Float(v) => v[idx].to_bits(),
            ColumnValues::Str(v) => {
                let bytes = v.bytes_at(idx);
                let mut h = bytes.len() as u64;
                for chunk in bytes.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    h = (h.rotate_left(5) ^ u64::from_le_bytes(word))
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
                h
            }
        }
    }

    /// Hash-table key equality between `self[i]` and `other[j]`: NULL
    /// equals only NULL, integers by value, floats **by bit pattern**
    /// (`NaN == NaN`, `0.0 != -0.0` — an equivalence relation, unlike
    /// IEEE `==`, and consistent with [`ColumnVector::slot_hash`]), text
    /// by bytes; differently typed vectors never compare equal.
    #[inline]
    pub fn slot_eq(&self, i: usize, other: &ColumnVector, j: usize) -> bool {
        if self.nulls[i] || other.nulls[j] {
            return self.nulls[i] && other.nulls[j];
        }
        match (&self.values, &other.values) {
            (ColumnValues::Int(a), ColumnValues::Int(b)) => a[i] == b[j],
            (ColumnValues::Float(a), ColumnValues::Float(b)) => a[i].to_bits() == b[j].to_bits(),
            (ColumnValues::Str(a), ColumnValues::Str(b)) => a.bytes_at(i) == b.bytes_at(j),
            _ => false,
        }
    }

    /// Append slots `[a, b)` of `src`: one `memcpy` per payload (for
    /// text, of the slots' byte range).
    fn extend_range(&mut self, src: &ColumnVector, a: usize, b: usize) {
        self.nulls.extend_from_slice(&src.nulls[a..b]);
        match (&mut self.values, &src.values) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => dst.extend_from_slice(&s[a..b]),
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => dst.extend_from_slice(&s[a..b]),
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => dst.append_range(s, a, b),
            _ => unreachable!("column vectors of one batch share their typing"),
        }
    }
}

/// A column-major batch: one [`ColumnVector`] per output column, a
/// physical row count, and an optional selection vector naming the live
/// rows (in emission order). Without a selection vector every physical
/// row is live. The default batch has no columns (and so no rows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<ColumnVector>,
    rows: usize,
    selection: Option<Vec<u32>>,
}

impl ColumnBatch {
    /// An empty batch with one typed vector per column of `schema`.
    pub fn for_schema(schema: &Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// [`ColumnBatch::for_schema`] with room for `rows` rows in every
    /// vector, for a producer that knows its morsel's size up front.
    pub fn with_capacity(schema: &Schema, rows: usize) -> Self {
        let columns = schema.columns().iter().map(|c| ColumnVector::with_capacity(c.ty, rows));
        ColumnBatch { columns: columns.collect(), rows: 0, selection: None }
    }

    /// An empty batch with the same column typing as `other`.
    pub fn like(other: &ColumnBatch) -> Self {
        other.empty_like(false)
    }

    /// An empty batch typed like `self`; when `sized`, with room for as
    /// many rows (and arena bytes) as `self` holds — what a buffer that
    /// gave its batch away refills without regrowing.
    fn empty_like(&self, sized: bool) -> Self {
        let columns = self.columns.iter().map(|c| {
            let n = if sized { c.nulls.len() } else { 0 };
            let values = match &c.values {
                ColumnValues::Int(_) => ColumnValues::Int(Vec::with_capacity(n)),
                ColumnValues::Float(_) => ColumnValues::Float(Vec::with_capacity(n)),
                ColumnValues::Str(t) => ColumnValues::Str(TextColumn {
                    bytes: Vec::with_capacity(if sized { t.bytes.len() } else { 0 }),
                    ends: Vec::with_capacity(n),
                }),
            };
            ColumnVector { values, nulls: Vec::with_capacity(n) }
        });
        ColumnBatch { columns: columns.collect(), rows: 0, selection: None }
    }

    /// Assemble a dense batch from finished column vectors, which must
    /// all hold the same number of slots.
    pub fn from_columns(columns: Vec<ColumnVector>) -> Result<Self> {
        let rows = columns.first().map_or(0, ColumnVector::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(Error::exec("column vectors of unequal length in one batch"));
        }
        Ok(ColumnBatch { columns, rows, selection: None })
    }

    /// Convert a slice of rows (the row→column adapter). Values must
    /// conform to `schema`.
    pub fn from_rows(schema: &Schema, rows: &[crate::row::Row]) -> Result<Self> {
        let mut batch = ColumnBatch::for_schema(schema);
        for row in rows {
            batch.push_row(row)?;
        }
        Ok(batch)
    }

    /// Number of live rows (selection-aware).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    /// `true` when no rows are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical rows (ignoring the selection vector).
    #[inline]
    pub fn physical_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The selection vector, if any.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref()
    }

    /// Install a selection vector (physical row indices, in emission
    /// order; entries must not repeat if the batch will be consumed by
    /// [`ColumnBatch::into_rows`]). Replaces any previous selection.
    pub fn set_selection(&mut self, selection: Vec<u32>) {
        debug_assert!(selection.iter().all(|&i| (i as usize) < self.rows));
        self.selection = Some(selection);
    }

    /// Column vector by ordinal.
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnVector {
        &self.columns[idx]
    }

    /// Column vector by ordinal, with a bounds-checked error.
    pub fn column_checked(&self, idx: usize) -> Result<&ColumnVector> {
        self.columns
            .get(idx)
            .ok_or_else(|| Error::exec(format!("column {idx} out of range ({})", self.width())))
    }

    /// All column vectors.
    #[inline]
    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Mutable access to the column vectors, for gather-style writers that
    /// assemble output rows column-by-column from several sources (the
    /// columnar hash-join probe). Callers must append the same number of
    /// slots to every column and then declare them with
    /// [`ColumnBatch::commit_rows`]; selection must be unset.
    #[inline]
    pub fn columns_mut(&mut self) -> &mut [ColumnVector] {
        debug_assert!(self.selection.is_none(), "gather writes under a selection vector");
        &mut self.columns
    }

    /// Declare `n` rows appended through [`ColumnBatch::columns_mut`].
    #[inline]
    pub fn commit_rows(&mut self, n: usize) {
        self.rows += n;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.rows));
    }

    /// Iterate the live physical row indices in emission order.
    pub fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let sel = self.selection.as_deref();
        (0..match sel {
            Some(s) => s.len(),
            None => self.rows,
        })
            .map(move |i| match sel {
                Some(s) => s[i] as usize,
                None => i,
            })
    }

    /// Drop all rows (and the selection), keeping capacity.
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.rows = 0;
        self.selection = None;
    }

    /// Drop the first `n` physical rows, shifting the rest down
    /// (selection must be unset — this is the cursor-buffer compaction
    /// primitive).
    pub fn drop_prefix(&mut self, n: usize) {
        debug_assert!(self.selection.is_none(), "prefix drop under a selection vector");
        debug_assert!(n <= self.rows);
        for c in &mut self.columns {
            c.values.drop_prefix(n);
            drop(c.nulls.drain(..n));
        }
        self.rows -= n;
    }

    /// Append one row (selection must be unset).
    pub fn push_row(&mut self, row: &crate::row::Row) -> Result<()> {
        debug_assert!(self.selection.is_none(), "push under a selection vector");
        if row.len() != self.columns.len() {
            return Err(Error::exec(format!(
                "row of {} values pushed into a {}-column batch",
                row.len(),
                self.columns.len()
            )));
        }
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            c.push_value(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Append one owned row; string bytes copy into the column arena and
    /// the row's buffers are dropped (no fresh allocation either way).
    pub fn push_owned_row(&mut self, row: Row) -> Result<()> {
        debug_assert!(self.selection.is_none(), "push under a selection vector");
        if row.len() != self.columns.len() {
            return Err(Error::exec(format!(
                "row of {} values pushed into a {}-column batch",
                row.len(),
                self.columns.len()
            )));
        }
        for (c, v) in self.columns.iter_mut().zip(row.into_values()) {
            match v {
                Value::Null => c.push_null(),
                Value::Int(x) => c.push_int(x)?,
                Value::Float(x) => c.push_float(x)?,
                Value::Str(s) => c.push_str(s)?,
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Materialize the live row at `selection[live_idx]` (string bytes
    /// copy out).
    pub fn row(&self, live_idx: usize) -> crate::row::Row {
        let phys = match &self.selection {
            Some(sel) => sel[live_idx] as usize,
            None => live_idx,
        };
        crate::row::Row::new(self.columns.iter().map(|c| c.value(phys)).collect())
    }

    /// Materialize the *physical* row at `idx` for cursor-style
    /// consumption. String bytes copy out of the arena (the batch stays
    /// intact, but callers should treat the slot as consumed).
    pub fn take_row(&mut self, idx: usize) -> crate::row::Row {
        crate::row::Row::new(self.columns.iter().map(|c| c.value(idx)).collect())
    }

    /// Copy physical rows `[a, b)` into a new batch, one `memcpy` per
    /// column payload. The source keeps its physical rows — and,
    /// crucially, its vector capacity, so a fill buffer that extracts
    /// morsels and then clears never reallocates in steady state.
    /// Selection must be unset.
    pub fn extract_range(&mut self, a: usize, b: usize) -> ColumnBatch {
        debug_assert!(self.selection.is_none(), "range extract under a selection vector");
        debug_assert!(a <= b && b <= self.rows);
        let mut out = ColumnBatch::like(self);
        for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
            dst.extend_range(src, a, b);
        }
        out.rows = b - a;
        out
    }

    /// Append every physical row of `other` (which must be dense and
    /// share this batch's column typing), one `memcpy` per column
    /// payload — no per-row `String` clone. This is the bulk-ingest
    /// primitive of the columnar hash-join build side.
    pub fn append_dense(&mut self, other: ColumnBatch) {
        debug_assert!(self.selection.is_none(), "append under a selection vector");
        debug_assert!(other.selection.is_none(), "dense append of a selected batch");
        debug_assert_eq!(self.columns.len(), other.columns.len());
        let n = other.rows;
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.extend_range(src, 0, n);
        }
        self.rows += n;
    }

    /// Append the physical rows of `src` named by `idx`, in order
    /// (typing must match; see [`ColumnVector::extend_gather`]). The
    /// bulk companion of [`ColumnBatch::append_dense`] for batches that
    /// carry a selection vector or need null-key skips.
    pub fn append_gather(&mut self, src: &ColumnBatch, idx: &[u32]) {
        debug_assert!(self.selection.is_none(), "append under a selection vector");
        debug_assert_eq!(self.columns.len(), src.columns.len());
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.extend_gather(s, idx);
        }
        self.rows += idx.len();
    }

    /// Consume into rows (the column→row adapter), honoring the selection
    /// vector. This is the row-materialization boundary: string bytes
    /// copy out of the arena into owned `String`s.
    pub fn into_rows(mut self) -> Vec<crate::row::Row> {
        match self.selection.take() {
            None => (0..self.rows).map(|i| self.take_row(i)).collect(),
            Some(sel) => sel.into_iter().map(|i| self.take_row(i as usize)).collect(),
        }
    }

    /// Column pruning: keep `cols` (by ordinal, distinct), in that order.
    /// Columns move — no row is touched and the selection vector survives.
    pub fn project(self, cols: &[usize]) -> Result<ColumnBatch> {
        let mut slots: Vec<Option<ColumnVector>> = self.columns.into_iter().map(Some).collect();
        let mut columns = Vec::with_capacity(cols.len());
        for &c in cols {
            let taken = slots
                .get_mut(c)
                .ok_or_else(|| Error::exec(format!("project column {c} out of range")))?
                .take()
                .ok_or_else(|| Error::exec(format!("project column {c} duplicated")))?;
            columns.push(taken);
        }
        Ok(ColumnBatch { columns, rows: self.rows, selection: self.selection })
    }
}

/// A FIFO buffer over a dense [`ColumnBatch`]: operators fill it
/// column-natively and drain it a columnar morsel at a time
/// ([`ColumnBuffer::pop_columns`]) or, for the one-row view, a row at a
/// time ([`ColumnBuffer::pop_row`]). One buffer backs both, which is what
/// keeps the two calls interleavable on one operator: there is exactly
/// one pending-output order.
#[derive(Debug)]
pub struct ColumnBuffer {
    batch: ColumnBatch,
    pos: usize,
}

impl From<ColumnBatch> for ColumnBuffer {
    /// A buffer with every row of the dense `batch` pending.
    fn from(batch: ColumnBatch) -> Self {
        ColumnBuffer { batch, pos: 0 }
    }
}

impl ColumnBuffer {
    /// An empty buffer typed for `schema`.
    pub fn for_schema(schema: &Schema) -> Self {
        ColumnBuffer { batch: ColumnBatch::for_schema(schema), pos: 0 }
    }

    /// `true` when no rows are pending.
    #[inline]
    pub fn is_drained(&self) -> bool {
        self.pos >= self.batch.physical_rows()
    }

    /// Rows pending emission.
    #[inline]
    pub fn pending(&self) -> usize {
        self.batch.physical_rows() - self.pos
    }

    /// Drop everything (keeps capacity).
    pub fn reset(&mut self) {
        self.batch.clear();
        self.pos = 0;
    }

    /// The underlying batch, for appending fresh rows at the tail.
    ///
    /// Appending to a partially drained buffer first reclaims the
    /// consumed prefix once it dominates the pending rows (amortized
    /// O(1) per row), so a long-lived producer that refills before fully
    /// draining — Smooth Scan's morphing bursts — holds O(max pending)
    /// memory, not O(total emitted).
    #[inline]
    pub fn fill(&mut self) -> &mut ColumnBatch {
        const COMPACT_MIN: usize = 1024;
        if self.pos >= COMPACT_MIN && self.pos >= self.pending() {
            self.batch.drop_prefix(self.pos);
            self.pos = 0;
        }
        &mut self.batch
    }

    /// Reclaim capacity once fully drained.
    fn reset_if_drained(&mut self) {
        if self.is_drained() && self.batch.physical_rows() > 0 {
            self.reset();
        }
    }

    /// Emit one row (string bytes copy out).
    pub fn pop_row(&mut self) -> Option<Row> {
        if self.is_drained() {
            return None;
        }
        let row = self.batch.take_row(self.pos);
        self.pos += 1;
        self.reset_if_drained();
        Some(row)
    }

    /// Emit up to `max` rows as a columnar morsel. A request covering
    /// the whole undrained buffer hands the batch itself over (no copy),
    /// leaving an empty one of the same capacity behind; a partial one
    /// copies its range out and the buffer keeps its vectors (see
    /// [`ColumnBatch::extract_range`]).
    pub fn pop_columns(&mut self, max: usize) -> Option<ColumnBatch> {
        if self.is_drained() {
            return None;
        }
        if self.pos == 0 && max >= self.batch.physical_rows() {
            let fresh = self.batch.empty_like(true);
            return Some(std::mem::replace(&mut self.batch, fresh));
        }
        let end = self.pos.saturating_add(max).min(self.batch.physical_rows());
        let out = self.batch.extract_range(self.pos, end);
        self.pos = end;
        self.reset_if_drained();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TupleLayout;
    use crate::row::Row;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("s", DataType::Text),
            Column::nullable("f", DataType::Float64),
        ])
        .unwrap()
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Null]),
            Row::new(vec![Value::Int(3), Value::str("z"), Value::Float(-1.0)]),
        ]
    }

    #[test]
    fn row_column_roundtrip() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.width(), 3);
        assert_eq!(batch.column(0).int(0).unwrap(), 1);
        assert!(batch.column(1).is_null(1));
        assert_eq!(batch.column(2).float(2).unwrap(), -1.0);
        assert_eq!(batch.into_rows(), rows());
    }

    #[test]
    fn decode_into_decodes_without_rows() {
        let s = schema();
        let mut layout = TupleLayout::all(&s);
        let mut batch = ColumnBatch::for_schema(&s);
        for r in rows() {
            let bytes = r.encode(&s).unwrap();
            layout.decode_into(&bytes, batch.columns_mut()).unwrap();
            batch.commit_rows(1);
        }
        assert_eq!(batch.into_rows(), rows());
        // corrupt tuples error with Row::decode strictness
        let mut batch = ColumnBatch::for_schema(&s);
        let bytes = rows()[0].encode(&s).unwrap();
        assert!(layout.decode_into(&bytes[..bytes.len() - 1], batch.columns_mut()).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        let mut batch = ColumnBatch::for_schema(&s);
        assert!(layout.decode_into(&extra, batch.columns_mut()).is_err());
    }

    #[test]
    fn selection_vector_filters_emission() {
        let s = schema();
        let mut batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        batch.set_selection(vec![2, 0]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.live_rows().collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(batch.row(0), rows()[2]);
        let out = batch.into_rows();
        assert_eq!(out, vec![rows()[2].clone(), rows()[0].clone()]);
    }

    #[test]
    fn extract_range_moves_strings_and_keeps_source_shape() {
        let s = schema();
        let mut batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let front = batch.extract_range(0, 2);
        assert_eq!(front.len(), 2);
        assert_eq!(front.into_rows(), rows()[..2].to_vec());
        assert_eq!(batch.physical_rows(), 3, "source keeps its physical rows");
        let mut batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let all = batch.extract_range(0, 3);
        assert_eq!(all.len(), 3);
        assert_eq!(all.into_rows(), rows());
    }

    #[test]
    fn project_prunes_and_reorders_columns() {
        let s = schema();
        let mut batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        batch.set_selection(vec![0, 2]);
        let projected = batch.project(&[2, 0]).unwrap();
        assert_eq!(projected.width(), 2);
        let out = projected.into_rows();
        assert_eq!(out[0], Row::new(vec![Value::Float(0.5), Value::Int(1)]));
        assert_eq!(out[1], Row::new(vec![Value::Float(-1.0), Value::Int(3)]));
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        assert!(batch.clone().project(&[9]).is_err());
        assert!(batch.project(&[0, 0]).is_err());
    }

    #[test]
    fn typed_pushes_reject_mismatches() {
        let mut v = ColumnVector::for_type(DataType::Int64);
        assert!(v.push_int(1).is_ok());
        assert!(v.push_float(1.0).is_err());
        assert!(v.push_str("x").is_err());
        v.push_null();
        assert!(v.is_null(1));
        assert_eq!(v.value(1), Value::Null);
        assert_eq!(v.value(0), Value::Int(1));
        // float accessor widens ints
        assert_eq!(v.float(0).unwrap(), 1.0);
        assert!(v.int(1).is_err(), "NULL int access errors");
    }

    #[test]
    fn cmp_value_matches_total_cmp() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        for (col, idx, v) in [
            (0usize, 0usize, Value::Int(2)),
            (1, 0, Value::str("y")),
            (2, 0, Value::Float(0.25)),
            (1, 1, Value::str("")),
            (0, 2, Value::Float(2.5)),
        ] {
            assert_eq!(
                batch.column(col).cmp_value(idx, &v),
                batch.column(col).value(idx).total_cmp(&v),
                "col {col} idx {idx} vs {v}"
            );
        }
    }

    #[test]
    fn layout_probes_predicate_columns() {
        let s = schema();
        let mut layout = TupleLayout::new(&s, &[0, 2]);
        let encoded: Vec<Vec<u8>> = rows().iter().map(|r| r.encode(&s).unwrap()).collect();
        let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let mut probe =
            [ColumnVector::for_type(DataType::Int64), ColumnVector::for_type(DataType::Float64)];
        layout.locate(&tuples).unwrap();
        for (k, v) in probe.iter_mut().enumerate() {
            layout.gather(k, &tuples, None, v).unwrap();
        }
        assert_eq!(probe[0].int(1).unwrap(), 2);
        assert!(probe[1].is_null(1));
        assert_eq!(probe[1].float(2).unwrap(), -1.0);
        // a selection gathers just the named tuples, in order
        let mut picked = ColumnVector::for_type(DataType::Int64);
        layout.gather(0, &tuples, Some(&[2, 0]), &mut picked).unwrap();
        assert_eq!((picked.len(), picked.int(0).unwrap(), picked.int(1).unwrap()), (2, 3, 1));
        // corruption past the probed columns still errors (full validation)
        let mut layout = TupleLayout::new(&s, &[0]);
        let bytes = &encoded[0];
        assert!(layout.locate(&[&bytes[..bytes.len() - 1]]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(layout.locate(&[&extra]).is_err());
        // … and one bad tuple fails its whole page
        assert!(layout.locate(&[&encoded[1], &extra, &encoded[2]]).is_err());
    }

    #[test]
    fn column_buffer_drains_fifo_across_protocols() {
        let s = schema();
        let mut buf = ColumnBuffer::for_schema(&s);
        for r in &rows() {
            buf.fill().push_row(r).unwrap();
        }
        assert_eq!(buf.pending(), 3);
        assert_eq!(buf.pop_row().unwrap(), rows()[0]);
        let cols = buf.pop_columns(1).unwrap();
        assert_eq!(cols.into_rows(), vec![rows()[1].clone()]);
        assert_eq!(buf.pop_columns(10).unwrap().into_rows(), vec![rows()[2].clone()]);
        assert!(buf.is_drained());
        assert!(buf.pop_row().is_none());
        assert!(buf.pop_columns(4).is_none());
        // refill after drain reuses the buffer
        buf.fill().push_row(&rows()[0]).unwrap();
        assert_eq!(buf.pop_columns(8).unwrap().into_rows(), vec![rows()[0].clone()]);
    }

    #[test]
    fn pop_columns_hands_over_a_whole_buffer_and_stays_reusable() {
        let s = schema();
        let filled = || {
            let mut buf = ColumnBuffer::for_schema(&s);
            rows().iter().for_each(|r| buf.fill().push_row(r).unwrap());
            buf
        };
        // Fast path: the request covers the undrained buffer. Slow
        // path: the same rows leave as two range copies.
        let mut fast = filled();
        let whole = fast.pop_columns(3).unwrap();
        let mut slow = filled();
        let mut pieces = slow.pop_columns(2).unwrap();
        pieces.append_dense(slow.pop_columns(2).unwrap());
        assert_eq!(whole, pieces);
        assert_eq!(whole.into_rows(), rows());
        for buf in [&mut fast, &mut slow] {
            assert!(buf.is_drained() && buf.pop_columns(8).is_none());
            buf.fill().push_row(&rows()[2]).unwrap();
            assert_eq!(buf.pop_row().unwrap(), rows()[2]);
            buf.fill().push_row(&rows()[1]).unwrap();
            assert_eq!(buf.pop_columns(1).unwrap().into_rows(), vec![rows()[1].clone()]);
        }
    }

    #[test]
    fn slot_cmp_orders_like_total_cmp() {
        let s = Schema::new(vec![
            Column::nullable("i", DataType::Int64),
            Column::nullable("f", DataType::Float64),
            Column::nullable("t", DataType::Text),
        ])
        .unwrap();
        let ints = [Value::Null, Value::Int(i64::MIN), Value::Int(-1), Value::Int(7)];
        let floats = [f64::NAN, -f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let texts = ["", "a", "ab", "é", "z", "日本"];
        let rows: Vec<Row> = (0..12)
            .map(|i| {
                Row::new(vec![
                    ints[i % ints.len()].clone(),
                    if i % 5 == 4 { Value::Null } else { Value::Float(floats[i % floats.len()]) },
                    if i % 7 == 6 { Value::Null } else { Value::str(texts[i % texts.len()]) },
                ])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
        for c in 0..3 {
            let col = batch.column(c);
            for i in 0..rows.len() {
                for j in 0..rows.len() {
                    assert_eq!(
                        col.slot_cmp(i, col, j),
                        rows[i].get(c).total_cmp(rows[j].get(c)),
                        "column {c}: slot {i} vs {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_buffer_compacts_consumed_prefix_on_refill() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("s", DataType::Text),
        ])
        .unwrap();
        let mut buf = ColumnBuffer::for_schema(&s);
        for i in 0..2000i64 {
            buf.fill().push_row(&Row::new(vec![Value::Int(i), Value::str("x")])).unwrap();
        }
        // Drain most of the buffer, leaving a live tail.
        for _ in 0..1990 {
            buf.pop_row().unwrap();
        }
        assert_eq!(buf.pending(), 10);
        // A refill with a dominant consumed prefix compacts it away …
        buf.fill().push_row(&Row::new(vec![Value::Int(9999), Value::Null])).unwrap();
        assert_eq!(buf.fill().physical_rows(), 11, "dead prefix reclaimed");
        // … and the pending rows survive in order.
        let rows: Vec<i64> =
            std::iter::from_fn(|| buf.pop_row()).map(|r| r.int(0).unwrap_or(9999)).collect();
        assert_eq!(rows, (1990..2000).chain([9999]).collect::<Vec<i64>>());
    }

    #[test]
    fn gather_and_move_primitives() {
        let s = schema();
        let src = ColumnBatch::from_rows(&s, &rows()).unwrap();
        // push_from clones (the gather primitive): source stays intact.
        let mut out = ColumnBatch::for_schema(&s);
        {
            let cols = out.columns_mut();
            for (dst, sc) in cols.iter_mut().zip(src.columns()) {
                dst.push_from(sc, 2);
                dst.push_from(sc, 0);
            }
        }
        out.commit_rows(2);
        assert_eq!(out.row(0), rows()[2]);
        assert_eq!(out.row(1), rows()[0]);
        assert_eq!(src.column(1).str(2).unwrap(), "z", "gather never moves the source");
        // extend_gather / append_gather are the bulk forms: same slots,
        // same order, repeats allowed, source untouched.
        let mut gathered = ColumnBatch::for_schema(&s);
        gathered.append_gather(&src, &[2, 0, 2, 1]);
        assert_eq!(gathered.physical_rows(), 4);
        assert_eq!(gathered.row(0), rows()[2]);
        assert_eq!(gathered.row(1), rows()[0]);
        assert_eq!(gathered.row(2), rows()[2]);
        assert_eq!(gathered.row(3), rows()[1], "NULL slots gather as NULL");
        assert_eq!(src.clone().into_rows(), rows(), "gather never moves the source");
        let mut dense_dst = ColumnBatch::for_schema(&s);
        dense_dst.append_dense(ColumnBatch::from_rows(&s, &rows()).unwrap());
        dense_dst.append_dense(ColumnBatch::from_rows(&s, &rows()[..1]).unwrap());
        assert_eq!(dense_dst.physical_rows(), 4);
        assert_eq!(dense_dst.row(3), rows()[0]);
    }

    #[test]
    fn slot_hash_and_eq_are_bitwise_and_type_tagged() {
        let mut f = ColumnVector::for_type(DataType::Float64);
        for x in [0.0, -0.0, f64::NAN, f64::NAN, 1.5] {
            f.push_float(x).unwrap();
        }
        f.push_null();
        f.push_null();
        assert!(!f.slot_eq(0, &f, 1), "0.0 and -0.0 are distinct keys");
        assert!(f.slot_eq(2, &f, 3), "NaN equals NaN bitwise");
        assert_eq!(f.slot_hash(2), f.slot_hash(3));
        assert!(f.slot_eq(5, &f, 6) && !f.slot_eq(5, &f, 0), "NULL equals only NULL");
        assert_eq!(f.slot_hash(5), f.slot_hash(6));
        let mut i = ColumnVector::for_type(DataType::Int64);
        i.push_int(0).unwrap();
        assert!(!i.slot_eq(0, &f, 0), "differently typed vectors never match");
        // Text compares by bytes, wherever the slot sits in its arena.
        let mut t = ColumnVector::for_type(DataType::Text);
        for s in ["0123456789abc", "0123456789abd", "0123456789abc"] {
            t.push_str(s).unwrap();
        }
        assert!(t.slot_eq(0, &t, 2) && !t.slot_eq(0, &t, 1));
        assert_eq!(t.slot_hash(0), t.slot_hash(2));
        assert_ne!(t.slot_hash(0), t.slot_hash(1));
    }

    #[test]
    fn from_columns_checks_lengths() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let rebuilt = ColumnBatch::from_columns(batch.columns().to_vec()).unwrap();
        assert_eq!(rebuilt, batch);
        let mut ragged = batch.columns().to_vec();
        ragged[0].push_null();
        assert!(ragged[0].len() == 4 && ColumnBatch::from_columns(ragged).is_err());
    }

    #[test]
    fn text_drop_prefix_recompacts_and_releases() {
        let mut col = TextColumn::default();
        for s in ["aa", "", "kept", "é"] {
            col.push_owned(s);
        }
        col.drop_prefix(2);
        assert_eq!((col.len(), col.get(0), col.get(1)), (2, "kept", "é"));
        assert_eq!(col.bytes, "kepté".as_bytes(), "arena recompacts to the survivors");
        col.push_owned("more");
        assert_eq!(col.get(2), "more");
    }
}
