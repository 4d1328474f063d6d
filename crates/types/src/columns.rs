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
//! Zero-copy-ish adapters ([`ColumnBatch::from_rows`],
//! [`ColumnBatch::into_rows`]) bridge to the row-at-a-time protocol so
//! row-only operators keep working; `String`s materialize only at that
//! row boundary.
//!
//! Typing follows the schema: `Int32`/`Int64`/`Date` columns widen into an
//! `i64` vector, `Float64` into `f64`, `Text` into a [`TextColumn`] — a
//! view layout of `(buffer, offset, length)` spans over shared page-backed
//! byte buffers ([`SharedBytes`]) with an owned byte arena for values that
//! have no backing buffer. NULL slots carry a default value in the typed
//! vector and `true` in the null mask.
//!
//! # Text view rules
//!
//! * A span into a [`SharedBytes`] buffer **pins** that buffer (an `Arc`
//!   clone per distinct buffer, not per value) until the column is
//!   cleared, compacted or dropped — scans hand their pinned page buffers
//!   to the decode path ([`crate::layout::TupleLayout::gather`]) so
//!   decoded text borrows the page instead of allocating one `String` per
//!   qualifying value.
//! * Values with no backing buffer (row pushes, gathered copies of arena
//!   spans, decode with views disabled via `SMOOTH_TEXT_VIEWS=0`) append
//!   their bytes to the column-local arena: owned, but still amortized —
//!   no per-value allocation.
//! * Views degrade to owned bytes automatically whenever a slice does not
//!   lie inside its claimed backing buffer, and serialization
//!   ([`crate::spill`]) always **copies out**, so spill files and caches
//!   own their bytes and never pin pages.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::layout::TupleLayout;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Default number of rows per batch request. Large enough to amortize
/// per-call overhead, small enough to stay cache-resident and to keep
/// morphing decisions fine-grained (a heap page holds ~90 tuples, so this
/// is ~11 pages worth of output).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A shared, immutable byte buffer that text views can borrow from. The
/// storage layer's page buffers (`PageBuf`) are exactly this type, so a
/// scan can hand its pinned page run straight to the decoder.
pub type SharedBytes = Arc<[u8]>;

/// Latched `SMOOTH_TEXT_VIEWS` knob: `0` = unread, `1` = on, `2` = off.
static TEXT_VIEWS: AtomicU8 = AtomicU8::new(0);

/// Text values decoded into owned arena bytes (each one would have been
/// a `String` allocation under the pre-view layout). Monotone,
/// process-global; consumers diff around a region of interest.
pub(crate) static TEXT_DECODE_OWNED: AtomicU64 = AtomicU64::new(0);

/// Text values decoded as zero-copy views into a backing buffer.
pub(crate) static TEXT_DECODE_VIEWS: AtomicU64 = AtomicU64::new(0);

/// Whether scan decode emits zero-copy text views (the default). Set
/// `SMOOTH_TEXT_VIEWS=0` to degrade every decoded text value to owned
/// arena bytes — the escape hatch if view lifetimes are ever suspected
/// of misbehaving. Read once and latched ([`crate::env_knob`]: any
/// value but `0` / `1` aborts); [`force_text_views`] overrides it
/// in-process.
pub fn text_views_enabled() -> bool {
    match TEXT_VIEWS.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = crate::env_knob("SMOOTH_TEXT_VIEWS", parse_text_views).unwrap_or(true);
            TEXT_VIEWS.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// The `SMOOTH_TEXT_VIEWS` syntax: `1` (views, the default) or `0`.
fn parse_text_views(text: &str) -> std::result::Result<bool, String> {
    match text {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("expected 0 or 1".into()),
    }
}

/// Override the text-view latch in-process (benchmarks comparing the
/// view and owned decode paths; tests). Rows are byte-identical either
/// way — only allocation behavior changes.
pub fn force_text_views(on: bool) {
    TEXT_VIEWS.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Cumulative `(owned, views)` text decode counters: how many decoded
/// text values materialized owned arena bytes vs. zero-copy views.
/// Monotone and process-global — diff two readings around the region of
/// interest.
pub fn text_decode_counters() -> (u64, u64) {
    (TEXT_DECODE_OWNED.load(Ordering::Relaxed), TEXT_DECODE_VIEWS.load(Ordering::Relaxed))
}

/// Sentinel `buf` index marking a span that lives in the owned arena.
const ARENA_SPAN: u32 = u32::MAX;

/// One text value: a `(buffer, offset, length)` triple into either a
/// shared backing buffer (`buf < ARENA_SPAN`, indexing
/// [`TextColumn::bufs`]) or the column-local arena (`buf == ARENA_SPAN`).
#[derive(Debug, Clone, Copy)]
struct TextSpan {
    buf: u32,
    off: usize,
    len: usize,
}

/// A `Text` column payload: spans into shared page-backed buffers plus an
/// owned byte arena — no per-value `String`. See the module docs for the
/// view rules. Equality is logical (value by value), independent of which
/// representation each value uses.
#[derive(Debug, Clone, Default)]
pub struct TextColumn {
    /// Distinct backing buffers, deduplicated against the most recent
    /// entry (scans decode page by page, so consecutive views share one
    /// buffer). Each entry pins its buffer until `clear` or drop.
    bufs: Vec<SharedBytes>,
    /// Owned bytes for values without a backing buffer.
    arena: Vec<u8>,
    /// One span per slot, in slot order.
    spans: Vec<TextSpan>,
}

impl TextColumn {
    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the column holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The raw UTF-8 bytes at `idx` — what key hashing and equality read
    /// (no re-validation, unlike [`TextColumn::get`]).
    #[inline]
    pub fn bytes_at(&self, idx: usize) -> &[u8] {
        let sp = self.spans[idx];
        if sp.buf == ARENA_SPAN {
            &self.arena[sp.off..sp.off + sp.len]
        } else {
            &self.bufs[sp.buf as usize][sp.off..sp.off + sp.len]
        }
    }

    /// The string at `idx` (panics when out of bounds, like indexing).
    #[inline]
    pub fn get(&self, idx: usize) -> &str {
        // invariant: every push validates UTF-8 before recording a span
        // (views validate at decode; arena bytes come from `&str`s).
        std::str::from_utf8(self.bytes_at(idx)).expect("text spans hold validated UTF-8")
    }

    /// Append an owned value: bytes copy into the column arena
    /// (amortized — no per-value allocation).
    #[inline]
    pub fn push_owned(&mut self, s: &str) {
        self.push_arena(s.as_bytes());
    }

    /// Append `bytes` (validated UTF-8 — a `&str`'s or another span's)
    /// to the arena as one owned slot.
    #[inline]
    fn push_arena(&mut self, bytes: &[u8]) {
        let off = self.arena.len();
        self.arena.extend_from_slice(bytes);
        self.spans.push(TextSpan { buf: ARENA_SPAN, off, len: bytes.len() });
    }

    /// Append a zero-copy view of `s`, which must be a slice of
    /// `backing` — the backing buffer is pinned (one `Arc` clone per
    /// distinct buffer) until the column is cleared or dropped. Degrades
    /// to [`TextColumn::push_owned`] when the slice does not lie inside
    /// `backing`, so callers never need to pre-check containment.
    #[inline]
    pub fn push_view(&mut self, backing: &SharedBytes, s: &str) {
        let base = backing.as_ptr() as usize;
        let p = s.as_ptr() as usize;
        let Some(off) = p.checked_sub(base).filter(|&o| o + s.len() <= backing.len()) else {
            self.push_owned(s);
            return;
        };
        let buf = match self.bufs.last() {
            Some(last) if Arc::ptr_eq(last, backing) => self.bufs.len() - 1,
            _ => {
                self.bufs.push(Arc::clone(backing));
                self.bufs.len() - 1
            }
        };
        debug_assert!(buf < ARENA_SPAN as usize, "text column buffer index overflow");
        self.spans.push(TextSpan { buf: buf as u32, off, len: s.len() });
    }

    /// Append slot `idx` of `src`: view spans share the backing buffer
    /// (an `Arc` clone at most — zero bytes move); arena spans copy
    /// their bytes into this column's arena. Neither allocates per
    /// value. This is the gather/move primitive behind
    /// [`ColumnVector::push_from`] and friends.
    #[inline]
    pub fn push_from(&mut self, src: &TextColumn, idx: usize) {
        let sp = src.spans[idx];
        if sp.buf == ARENA_SPAN {
            self.push_arena(&src.arena[sp.off..sp.off + sp.len]);
        } else {
            let backing = &src.bufs[sp.buf as usize];
            let buf = match self.bufs.last() {
                Some(last) if Arc::ptr_eq(last, backing) => self.bufs.len() - 1,
                _ => {
                    self.bufs.push(Arc::clone(backing));
                    self.bufs.len() - 1
                }
            };
            self.spans.push(TextSpan { buf: buf as u32, ..sp });
        }
    }

    /// Make room for `n` more slots.
    #[inline]
    pub(crate) fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Append slots `[a, b)` of `src` (see [`TextColumn::push_from`]).
    fn append_range(&mut self, src: &TextColumn, a: usize, b: usize) {
        self.spans.reserve(b - a);
        for i in a..b {
            self.push_from(src, i);
        }
    }

    /// Drop every slot, releasing the arena and every pinned buffer
    /// (capacity is kept).
    pub fn clear(&mut self) {
        self.bufs.clear();
        self.arena.clear();
        self.spans.clear();
    }

    /// Drop the first `n` slots by rebuilding the column from the
    /// survivors — views keep sharing their buffers, arena bytes
    /// recompact — so dead prefixes release their pinned pages. Called
    /// by the cursor-buffer compaction only when the consumed prefix
    /// dominates, keeping the rebuild amortized O(1) per slot.
    fn drop_prefix(&mut self, n: usize) {
        let mut fresh = TextColumn::default();
        fresh.spans.reserve(self.spans.len() - n);
        fresh.append_range(self, n, self.spans.len());
        *self = fresh;
    }
}

impl PartialEq for TextColumn {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.bytes_at(i) == other.bytes_at(i))
    }
}

/// The typed payload of one column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// Integer-like columns (`Int32`, `Int64`, `Date` widen to `i64`).
    Int(Vec<i64>),
    /// `Float64` columns.
    Float(Vec<f64>),
    /// `Text` columns (view layout — see [`TextColumn`]).
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
            DataType::Text => ColumnValues::Str(TextColumn {
                spans: Vec::with_capacity(n),
                ..TextColumn::default()
            }),
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
        // Cheap for Int/Float; Str compares borrowed.
        match (&self.values, other) {
            _ if self.nulls[idx] => Value::Null.total_cmp(other),
            (ColumnValues::Int(v), Value::Int(b)) => v[idx].cmp(b),
            (ColumnValues::Int(v), Value::Float(b)) => (v[idx] as f64).total_cmp(b),
            (ColumnValues::Float(v), Value::Float(b)) => v[idx].total_cmp(b),
            (ColumnValues::Float(v), Value::Int(b)) => v[idx].total_cmp(&(*b as f64)),
            (ColumnValues::Str(v), Value::Str(b)) => v.get(idx).cmp(b.as_str()),
            _ => self.value(idx).total_cmp(other),
        }
    }

    /// Append slot `idx` of `src` — the gather primitive of the columnar
    /// hash-join probe, where one build row can be emitted under many
    /// probe rows. Text views share their backing buffer (an `Arc` clone
    /// at most); arena text copies bytes — never a per-value allocation.
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
        self.gather(src, idx, false);
    }

    /// [`ColumnVector::extend_gather`]; with `own_text`, every text
    /// value's bytes copy into this vector's arena — views included — so
    /// the destination pins none of `src`'s backing buffers.
    fn gather(&mut self, src: &ColumnVector, idx: &[u32], own_text: bool) {
        self.nulls.extend(idx.iter().map(|&i| src.nulls[i as usize]));
        match (&mut self.values, &src.values) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => {
                dst.extend(idx.iter().map(|&i| s[i as usize]))
            }
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => {
                dst.extend(idx.iter().map(|&i| s[i as usize]))
            }
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => {
                dst.spans.reserve(idx.len());
                let copied = |sp: &TextSpan| own_text || sp.buf == ARENA_SPAN;
                let spans = idx.iter().map(|&i| &s.spans[i as usize]);
                dst.arena.reserve(spans.filter(|sp| copied(sp)).map(|sp| sp.len).sum());
                for &i in idx {
                    if own_text {
                        dst.push_arena(s.bytes_at(i as usize));
                    } else {
                        dst.push_from(s, i as usize);
                    }
                }
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

    /// Append slots `[a, b)` of `src`. Fixed-width payloads copy with one
    /// `memcpy`; text spans share their backing buffers or copy arena
    /// bytes (the source range stays intact but should be treated as
    /// consumed).
    fn extend_taken_range(&mut self, src: &mut ColumnVector, a: usize, b: usize) {
        self.nulls.extend_from_slice(&src.nulls[a..b]);
        match (&mut self.values, &mut src.values) {
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
                    bufs: Vec::with_capacity(if sized { t.bufs.len() } else { 0 }),
                    arena: Vec::with_capacity(if sized { t.arena.len() } else { 0 }),
                    spans: Vec::with_capacity(n),
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

    /// Decode one encoded tuple of `schema` straight into the column
    /// vectors — no intermediate `Row` or `Vec<Value>` is materialized.
    /// Validation is as strict as [`crate::row::Row::decode`] (truncated
    /// or trailing bytes error); on error the batch state is unspecified
    /// and the query aborts. Text fields copy into the column arena; use
    /// [`ColumnBatch::push_tuple_backed`] for zero-copy views. This
    /// compiles a [`TupleLayout`] per call — a convenience for one-off
    /// decodes; operators hold a layout and decode pages through it.
    pub fn push_tuple(&mut self, schema: &Schema, bytes: &[u8]) -> Result<()> {
        self.push_tuple_backed(schema, bytes, None)
    }

    /// [`ColumnBatch::push_tuple`] with a backing buffer: when `backing`
    /// names the shared buffer `bytes` slices into (a pinned page run),
    /// text fields decode as zero-copy views pinning that buffer — see
    /// the module docs for the view rules.
    pub fn push_tuple_backed(
        &mut self,
        schema: &Schema,
        bytes: &[u8],
        backing: Option<&SharedBytes>,
    ) -> Result<()> {
        debug_assert!(self.selection.is_none(), "push under a selection vector");
        debug_assert_eq!(schema.len(), self.columns.len());
        TupleLayout::all(schema).decode_into(bytes, backing, &mut self.columns)?;
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
    /// consumption. String bytes copy out of their span (the batch stays
    /// intact, but callers should treat the slot as consumed).
    pub fn take_row(&mut self, idx: usize) -> crate::row::Row {
        crate::row::Row::new(self.columns.iter().map(|c| c.value(idx)).collect())
    }

    /// Split physical rows `[a, b)` into a new batch. Fixed-width
    /// payloads copy (one `memcpy` per column); text spans share their
    /// backing buffers or copy arena bytes — the source range stays
    /// intact but should be treated as consumed. The source keeps its
    /// physical rows — and, crucially, its vector capacity, so a fill
    /// buffer that extracts morsels and then clears never reallocates in
    /// steady state. Selection must be unset.
    pub fn extract_range(&mut self, a: usize, b: usize) -> ColumnBatch {
        debug_assert!(self.selection.is_none(), "range extract under a selection vector");
        debug_assert!(a <= b && b <= self.rows);
        let mut out = ColumnBatch::like(self);
        for (dst, src) in out.columns.iter_mut().zip(&mut self.columns) {
            dst.extend_taken_range(src, a, b);
        }
        out.rows = b - a;
        out
    }

    /// Move-append every physical row of `other` (which must be dense and
    /// share this batch's column typing). Fixed-width payloads copy with
    /// one `memcpy` per column; text views hand their backing buffers
    /// over — no per-row `String` clone. This is the bulk-ingest
    /// primitive of the columnar hash-join build side.
    pub fn append_dense(&mut self, mut other: ColumnBatch) {
        debug_assert!(self.selection.is_none(), "append under a selection vector");
        debug_assert!(other.selection.is_none(), "dense append of a selected batch");
        debug_assert_eq!(self.columns.len(), other.columns.len());
        let n = other.rows;
        for (dst, src) in self.columns.iter_mut().zip(&mut other.columns) {
            dst.extend_taken_range(src, 0, n);
        }
        self.rows += n;
    }

    /// Append the physical rows of `src` named by `idx`, in order
    /// (typing must match; text shares or copies — see
    /// [`ColumnVector::extend_gather`]). The bulk companion of
    /// [`ColumnBatch::append_dense`] for batches that carry a selection
    /// vector or need null-key skips.
    pub fn append_gather(&mut self, src: &ColumnBatch, idx: &[u32]) {
        self.gather(src, idx, false);
    }

    /// [`ColumnBatch::append_gather`], except that the appended rows own
    /// their text bytes — views copy into the arena too — so `src`'s
    /// page buffers can be released. Blocking operators that hold rows
    /// past the morsel (the sort) ingest this way.
    pub fn append_gather_owned(&mut self, src: &ColumnBatch, idx: &[u32]) {
        self.gather(src, idx, true);
    }

    fn gather(&mut self, src: &ColumnBatch, idx: &[u32], own_text: bool) {
        debug_assert!(self.selection.is_none(), "append under a selection vector");
        debug_assert_eq!(self.columns.len(), src.columns.len());
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.gather(s, idx, own_text);
        }
        self.rows += idx.len();
    }

    /// Consume into rows (the column→row adapter), honoring the selection
    /// vector. This is the row-materialization boundary: string bytes
    /// copy out of their spans into owned `String`s.
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
/// column-natively and drain it through whichever iterator protocol the
/// parent speaks — one row ([`ColumnBuffer::pop_row`]) or a columnar
/// morsel ([`ColumnBuffer::pop_columns`]). A single buffer backs both
/// protocols, which is what keeps them interleavable on one operator:
/// there is exactly one pending-output order.
#[derive(Debug)]
pub struct ColumnBuffer {
    batch: ColumnBatch,
    pos: usize,
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
        let end = (self.pos + max).min(self.batch.physical_rows());
        let out = self.batch.extract_range(self.pos, end);
        self.pos = end;
        self.reset_if_drained();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::Column;

    #[test]
    fn text_views_knob_takes_zero_or_one_only() {
        assert_eq!(parse_text_views("1"), Ok(true));
        assert_eq!(parse_text_views("0"), Ok(false));
        for bad in ["", "abc", "true", "2", " 1"] {
            assert!(parse_text_views(bad).is_err(), "{bad:?}");
        }
    }

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
    fn push_tuple_decodes_without_rows() {
        let s = schema();
        let mut batch = ColumnBatch::for_schema(&s);
        for r in rows() {
            let bytes = r.encode(&s).unwrap();
            batch.push_tuple(&s, &bytes).unwrap();
        }
        assert_eq!(batch.into_rows(), rows());
        // corrupt tuples error with Row::decode strictness
        let mut batch = ColumnBatch::for_schema(&s);
        let bytes = rows()[0].encode(&s).unwrap();
        assert!(batch.push_tuple(&s, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        let mut batch = ColumnBatch::for_schema(&s);
        assert!(batch.push_tuple(&s, &extra).is_err());
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
            layout.gather(k, &tuples, None, None, v).unwrap();
        }
        assert_eq!(probe[0].int(1).unwrap(), 2);
        assert!(probe[1].is_null(1));
        assert_eq!(probe[1].float(2).unwrap(), -1.0);
        // a selection gathers just the named tuples, in order
        let mut picked = ColumnVector::for_type(DataType::Int64);
        layout.gather(0, &tuples, Some(&[2, 0]), None, &mut picked).unwrap();
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
    fn owned_gather_pins_nothing() {
        let s = schema();
        force_text_views(true);
        let bytes = rows()[0].encode(&s).unwrap();
        let backing: SharedBytes = Arc::from(bytes.as_slice());
        let mut viewed = ColumnBatch::for_schema(&s);
        viewed.push_tuple_backed(&s, &backing, Some(&backing)).unwrap();
        assert_eq!(Arc::strong_count(&backing), 2, "the decoded batch views the buffer");
        let (mut shared, mut owned) = (ColumnBatch::for_schema(&s), ColumnBatch::for_schema(&s));
        shared.append_gather(&viewed, &[0, 0]);
        owned.append_gather_owned(&viewed, &[0, 0]);
        assert_eq!(shared, owned);
        assert_eq!(Arc::strong_count(&backing), 3, "only the sharing gather pins");
        drop((viewed, shared));
        assert_eq!(Arc::strong_count(&backing), 1);
        assert_eq!(owned.into_rows(), vec![rows()[0].clone(); 2]);
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
        // Text compares by bytes regardless of representation.
        let backing: SharedBytes = Arc::from(&b"0123456789abc"[..]);
        let mut viewed = TextColumn::default();
        viewed.push_view(&backing, std::str::from_utf8(&backing[..]).unwrap());
        let viewed = ColumnVector { values: ColumnValues::Str(viewed), nulls: vec![false] };
        let mut owned = ColumnVector::for_type(DataType::Text);
        owned.push_str("0123456789abc").unwrap();
        owned.push_str("0123456789abd").unwrap();
        assert!(viewed.slot_eq(0, &owned, 0) && !viewed.slot_eq(0, &owned, 1));
        assert_eq!(viewed.slot_hash(0), owned.slot_hash(0));
        assert_ne!(owned.slot_hash(0), owned.slot_hash(1));
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
    fn text_views_pin_backing_without_copying() {
        let mut col = TextColumn::default();
        let backing: SharedBytes = Arc::from(&b"hello world"[..]);
        let s = std::str::from_utf8(&backing[0..5]).unwrap();
        col.push_view(&backing, s);
        let tail = std::str::from_utf8(&backing[6..11]).unwrap();
        col.push_view(&backing, tail);
        assert_eq!(col.get(0), "hello");
        assert_eq!(col.get(1), "world");
        assert_eq!(col.bufs.len(), 1, "consecutive views dedup their buffer");
        assert!(col.arena.is_empty(), "views copy no bytes");
        assert_eq!(Arc::strong_count(&backing), 2, "column pins the buffer");
        col.clear();
        assert_eq!(Arc::strong_count(&backing), 1, "clear releases the pin");
    }

    #[test]
    fn text_view_degrades_to_owned_outside_backing() {
        let mut col = TextColumn::default();
        let backing: SharedBytes = Arc::from(&b"abc"[..]);
        col.push_view(&backing, "elsewhere");
        assert_eq!(col.get(0), "elsewhere");
        assert!(col.bufs.is_empty(), "foreign slice falls back to the arena");
        assert_eq!(col.arena, b"elsewhere");
    }

    #[test]
    fn text_equality_is_representation_independent() {
        let backing: SharedBytes = Arc::from(&b"xyz"[..]);
        let mut viewed = TextColumn::default();
        viewed.push_view(&backing, std::str::from_utf8(&backing[0..3]).unwrap());
        let mut owned = TextColumn::default();
        owned.push_owned("xyz");
        assert_eq!(viewed, owned);
        owned.push_owned("more");
        assert_ne!(viewed, owned);
    }

    #[test]
    fn text_drop_prefix_recompacts_and_releases() {
        let backing: SharedBytes = Arc::from(&b"aabb"[..]);
        let mut col = TextColumn::default();
        col.push_view(&backing, std::str::from_utf8(&backing[0..2]).unwrap());
        col.push_owned("kept");
        col.drop_prefix(1);
        assert_eq!(col.len(), 1);
        assert_eq!(col.get(0), "kept");
        assert!(col.bufs.is_empty(), "dropping the only view releases its pin");
        assert_eq!(col.arena, b"kept", "arena recompacts to the survivors");
    }

    #[test]
    fn push_tuple_backed_decodes_views_byte_identical() {
        let s = schema();
        force_text_views(true);
        let mut owned = ColumnBatch::for_schema(&s);
        let mut viewed = ColumnBatch::for_schema(&s);
        for r in rows() {
            let bytes = r.encode(&s).unwrap();
            let backing: SharedBytes = Arc::from(bytes.as_slice());
            owned.push_tuple(&s, &bytes).unwrap();
            viewed.push_tuple_backed(&s, &backing, Some(&backing)).unwrap();
        }
        assert_eq!(owned, viewed, "views are logically identical to owned decode");
        assert_eq!(viewed.into_rows(), rows());
    }
}
