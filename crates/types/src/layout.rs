//! Compiled tuple layouts: the one decoder under every columnar heap read.
//!
//! A [`TupleLayout`] is compiled **once** per (schema, wanted columns) and
//! then decodes whole pages in two steps:
//!
//! * [`TupleLayout::locate`] validates every tuple of the page exactly as
//!   strictly as [`Row::decode`](crate::row::Row::decode) validates its
//!   structure — a bitmap shorter than the schema, truncation inside any
//!   field and trailing bytes all surface as [`Error::Corrupt`], for every
//!   tuple handed in, wanted or not — and records one byte offset (or
//!   NULL) per wanted column into a reused offset table. Runs of
//!   fixed-width fields collapse to constant in-run offsets, so a
//!   NULL-free tuple (one all-zero bitmap test) walks only its
//!   variable-width fields; any other tuple takes a per-field walk into
//!   the same table.
//! * [`TupleLayout::gather`] turns one column of that table into typed
//!   values: one loop **per column per page** (reserve once,
//!   `from_le_bytes` off the recorded offsets, null mask beside it), text
//!   validated as UTF-8 and copied into the column's arena
//!   ([`crate::columns::TextColumn`]).
//!
//! UTF-8 is a property of a *value*, so it is checked where a value is
//! materialized (`gather`), not where the tuple is walked (`locate`): a
//! scan validates the text it reads, like the probe it replaced.

use crate::columns::{ColumnValues, ColumnVector};
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::DataType;

/// Offset-table entry of a NULL field. Tuples this long are rejected by
/// [`TupleLayout::locate`], so no real offset collides with it.
const NULL_AT: u32 = u32::MAX;

/// [`Field::slot`] of a column the layout does not record.
const UNWANTED: u32 = u32::MAX;

/// One schema field, as the per-field walk sees it.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Payload bytes of a non-NULL value; `None` for length-prefixed text.
    width: Option<usize>,
    /// Position in a tuple's row of the offset table, or [`UNWANTED`].
    slot: u32,
}

/// A maximal run of fixed-width fields and the text field (if any) that
/// ends it — the unit of the NULL-free walk.
#[derive(Debug, Clone)]
struct Segment {
    /// In-run byte offsets of the wanted fixed-width fields, in order.
    wanted_at: Vec<usize>,
    /// Total bytes of the run.
    fixed_width: usize,
    /// The text field closing the run (`Some(wanted)`), or `None` for the
    /// schema's tail run.
    text: Option<bool>,
}

/// A tuple decoder compiled for one schema and one set of wanted columns.
/// It owns the offset table [`TupleLayout::locate`] fills and
/// [`TupleLayout::gather`] reads, so a long-lived layout decodes page
/// after page without allocating.
#[derive(Debug, Clone)]
pub struct TupleLayout {
    bitmap_len: usize,
    /// Type of each wanted column, in offset-table order.
    types: Vec<DataType>,
    fields: Vec<Field>,
    segments: Vec<Segment>,
    /// `offs[k * located + t]`: where wanted column `k` of located tuple
    /// `t` starts (at its length prefix, for text), or [`NULL_AT`].
    /// Column-major, so a gather reads one contiguous run.
    offs: Vec<u32>,
    /// Tuples in the table.
    located: usize,
}

#[inline]
fn truncated() -> Error {
    Error::corrupt("tuple truncated")
}

/// The `N` bytes at `off`, if `bytes` holds them.
#[inline]
fn bytes_at<const N: usize>(bytes: &[u8], off: usize) -> Option<[u8; N]> {
    bytes.get(off..off + N)?.try_into().ok()
}

/// Skip the length-prefixed text field at `pos`, returning the position
/// just past it.
#[inline]
fn skip_text(bytes: &[u8], pos: usize) -> Result<usize> {
    let len = u16::from_le_bytes(bytes_at(bytes, pos).ok_or_else(truncated)?) as usize;
    let end = pos + 2 + len;
    if end > bytes.len() {
        return Err(truncated());
    }
    Ok(end)
}

impl TupleLayout {
    /// Compile a layout recording `wanted` (ascending, distinct ordinals)
    /// of `schema`'s tuples.
    pub fn new(schema: &Schema, wanted: &[usize]) -> Self {
        debug_assert!(wanted.windows(2).all(|w| w[0] < w[1]), "wanted must be ascending");
        debug_assert!(wanted.last().is_none_or(|&c| c < schema.len()));
        let mut fields = Vec::with_capacity(schema.len());
        let mut segments = Vec::new();
        let mut run = Segment { wanted_at: Vec::new(), fixed_width: 0, text: None };
        let mut next = wanted.iter().copied().enumerate().peekable();
        for (i, c) in schema.columns().iter().enumerate() {
            let slot = next.next_if(|&(_, col)| col == i).map(|(k, _)| k as u32);
            let width = c.ty.fixed_width();
            fields.push(Field { width, slot: slot.unwrap_or(UNWANTED) });
            match width {
                Some(w) => {
                    if slot.is_some() {
                        run.wanted_at.push(run.fixed_width);
                    }
                    run.fixed_width += w;
                }
                None => {
                    run.text = Some(slot.is_some());
                    let next_run = Segment { wanted_at: Vec::new(), fixed_width: 0, text: None };
                    segments.push(std::mem::replace(&mut run, next_run));
                }
            }
        }
        segments.push(run);
        TupleLayout {
            bitmap_len: schema.len().div_ceil(8),
            types: wanted.iter().map(|&c| schema.column(c).ty).collect(),
            fields,
            segments,
            offs: Vec::new(),
            located: 0,
        }
    }

    /// Compile a layout recording every column of `schema`.
    pub fn all(schema: &Schema) -> Self {
        Self::new(schema, &(0..schema.len()).collect::<Vec<_>>())
    }

    /// Number of wanted columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.types.len()
    }

    /// Validate `tuples` (one page's worth) and record where each wanted
    /// column of each tuple lives, replacing the previous page's table.
    /// Errors exactly where [`Row::decode`](crate::row::Row::decode)
    /// rejects a tuple's structure; text bytes are checked by
    /// [`TupleLayout::gather`].
    pub fn locate(&mut self, tuples: &[&[u8]]) -> Result<()> {
        let n = tuples.len();
        self.located = n;
        // Both walks write a tuple's slot in every column, so stale
        // entries need no clearing.
        let mut offs = std::mem::take(&mut self.offs);
        offs.resize(n * self.types.len(), NULL_AT);
        let located = (0..n).try_for_each(|t| self.locate_one(tuples[t], &mut offs, t, n));
        self.offs = offs;
        located
    }

    /// Walk tuple `t` of `n`, recording into its slot of each column of
    /// `offs`. Both walks keep `pos <= bytes.len()` and check a field's
    /// extent before recording its offset, so every recorded offset is in
    /// bounds and below [`NULL_AT`].
    #[inline]
    fn locate_one(&self, bytes: &[u8], offs: &mut [u32], t: usize, n: usize) -> Result<()> {
        let Some(bitmap) = bytes.get(..self.bitmap_len) else {
            return Err(Error::corrupt("tuple shorter than its null bitmap"));
        };
        if bytes.len() >= NULL_AT as usize {
            return Err(Error::corrupt("tuple longer than any page"));
        }
        let end = if bitmap.iter().all(|&b| b == 0) {
            self.walk_segments(bytes, offs, t, n)?
        } else {
            self.walk_fields(bytes, bitmap, offs, t, n)?
        };
        if end != bytes.len() {
            return Err(Error::corrupt("trailing bytes after tuple"));
        }
        Ok(())
    }

    /// NULL-free walk: constant offsets inside each fixed run, one length
    /// read per text field. Returns where the tuple ends.
    #[inline]
    fn walk_segments(&self, bytes: &[u8], offs: &mut [u32], t: usize, n: usize) -> Result<usize> {
        let mut pos = self.bitmap_len;
        // Column `k`'s slot for this tuple is `offs[k * n + t]`.
        let mut slot = t;
        for seg in &self.segments {
            if bytes.len() - pos < seg.fixed_width {
                return Err(truncated());
            }
            for at in &seg.wanted_at {
                offs[slot] = (pos + at) as u32;
                slot += n;
            }
            pos += seg.fixed_width;
            if let Some(wanted) = seg.text {
                if wanted {
                    offs[slot] = pos as u32;
                    slot += n;
                }
                pos = skip_text(bytes, pos)?;
            }
        }
        Ok(pos)
    }

    /// Per-field walk for tuples with NULLs (which occupy no payload
    /// bytes, so nothing after one sits at a constant offset).
    fn walk_fields(
        &self,
        bytes: &[u8],
        bitmap: &[u8],
        offs: &mut [u32],
        t: usize,
        n: usize,
    ) -> Result<usize> {
        let mut pos = self.bitmap_len;
        for (i, f) in self.fields.iter().enumerate() {
            let null = bitmap[i / 8] & (1 << (i % 8)) != 0;
            if f.slot != UNWANTED {
                offs[f.slot as usize * n + t] = if null { NULL_AT } else { pos as u32 };
            }
            if null {
                continue;
            }
            pos = match f.width {
                Some(w) if bytes.len() - pos < w => return Err(truncated()),
                Some(w) => pos + w,
                None => skip_text(bytes, pos)?,
            };
        }
        Ok(pos)
    }

    /// The located offsets of wanted column `k`, one per tuple.
    fn column(&self, k: usize, tuples: &[&[u8]]) -> Result<&[u32]> {
        let n = self.located;
        if tuples.len() != n || k >= self.types.len() {
            return Err(Error::exec("gather over tuples the layout did not locate"));
        }
        Ok(&self.offs[k * n..(k + 1) * n])
    }

    /// Append wanted column `k` of the located tuples named by `rows`
    /// (indices into the located page, in order; every tuple when `None`)
    /// to `out`. `tuples` must be the slice last passed to
    /// [`TupleLayout::locate`]. Text copies into `out`'s arena; non-UTF-8
    /// text is [`Error::Corrupt`]. Panics when `rows` names a tuple out
    /// of range, like indexing.
    pub fn gather(
        &self,
        k: usize,
        tuples: &[&[u8]],
        rows: Option<&[u32]>,
        out: &mut ColumnVector,
    ) -> Result<()> {
        let offs = self.column(k, tuples)?;
        let mut intact = true;
        // One typed loop: `extend` over an exact-size iterator reserves
        // once and writes without per-element capacity checks.
        macro_rules! fixed {
            ($variant:ident, $width:literal, $decode:expr) => {{
                let ColumnValues::$variant(dst) = &mut out.values else {
                    return Err(mistyped());
                };
                let mut value = |off: u32, bytes: &[u8]| {
                    if off == NULL_AT {
                        return Default::default();
                    }
                    match bytes_at::<$width>(bytes, off as usize) {
                        Some(b) => ($decode)(b),
                        None => {
                            intact = false;
                            Default::default()
                        }
                    }
                };
                match rows {
                    None => dst.extend(offs.iter().zip(tuples).map(|(&off, t)| value(off, t))),
                    Some(rows) => dst.extend(
                        rows.iter().map(|&t| t as usize).map(|t| value(offs[t], tuples[t])),
                    ),
                }
            }};
        }
        match self.types[k] {
            DataType::Int32 | DataType::Date => {
                fixed!(Int, 4, |b| i32::from_le_bytes(b) as i64)
            }
            DataType::Int64 => fixed!(Int, 8, i64::from_le_bytes),
            DataType::Float64 => fixed!(Float, 8, f64::from_le_bytes),
            DataType::Text => return self.gather_text(offs, tuples, rows, out),
        }
        match rows {
            None => out.nulls.extend(offs.iter().map(|&off| off == NULL_AT)),
            Some(rows) => out.nulls.extend(rows.iter().map(|&t| offs[t as usize] == NULL_AT)),
        }
        if intact {
            Ok(())
        } else {
            Err(moved())
        }
    }

    fn gather_text(
        &self,
        offs: &[u32],
        tuples: &[&[u8]],
        rows: Option<&[u32]>,
        out: &mut ColumnVector,
    ) -> Result<()> {
        let ColumnValues::Str(text) = &mut out.values else {
            return Err(mistyped());
        };
        let count = rows.map_or(offs.len(), <[u32]>::len);
        out.nulls.reserve(count);
        text.reserve(count);
        let mut push = |t: usize| -> Result<()> {
            let value = text_at(tuples[t], offs[t])?;
            out.nulls.push(value.is_none());
            text.push_owned(value.unwrap_or_default());
            Ok(())
        };
        match rows {
            None => (0..offs.len()).try_for_each(&mut push),
            Some(rows) => rows.iter().try_for_each(|&t| push(t as usize)),
        }
    }

    /// Append every wanted column of located tuple `t` to the parallel
    /// vectors `out` (one per wanted column): [`TupleLayout::gather`] a
    /// row at a time, which is cheaper than one pass per column when only
    /// a few tuples are wanted.
    pub fn gather_row(&self, tuples: &[&[u8]], t: usize, out: &mut [ColumnVector]) -> Result<()> {
        self.gather_row_slots(tuples, t, 0..self.types.len(), out)
    }

    /// [`TupleLayout::gather_row`] over the wanted columns `slots` only
    /// (positions in the wanted list), one vector of `out` each — for a
    /// consumer that located more columns than it emits (a scan's
    /// predicate-only columns).
    pub fn gather_row_of(
        &self,
        tuples: &[&[u8]],
        t: usize,
        slots: &[usize],
        out: &mut [ColumnVector],
    ) -> Result<()> {
        self.gather_row_slots(tuples, t, slots.iter().copied(), out)
    }

    fn gather_row_slots(
        &self,
        tuples: &[&[u8]],
        t: usize,
        slots: impl ExactSizeIterator<Item = usize> + Clone,
        out: &mut [ColumnVector],
    ) -> Result<()> {
        let n = self.located;
        let known = slots.clone().all(|k| k < self.types.len());
        if tuples.len() != n || out.len() != slots.len() || !known {
            return Err(Error::exec("gather over tuples the layout did not locate"));
        }
        let bytes = tuples[t];
        for (k, v) in slots.zip(out) {
            let (ty, off) = (self.types[k], self.offs[k * n + t]);
            let at = off as usize;
            v.nulls.push(off == NULL_AT);
            match (ty, &mut v.values) {
                (_, ColumnValues::Int(dst)) if off == NULL_AT => dst.push(0),
                (_, ColumnValues::Float(dst)) if off == NULL_AT => dst.push(0.0),
                (DataType::Int32 | DataType::Date, ColumnValues::Int(dst)) => {
                    dst.push(i32::from_le_bytes(bytes_at(bytes, at).ok_or_else(moved)?) as i64)
                }
                (DataType::Int64, ColumnValues::Int(dst)) => {
                    dst.push(i64::from_le_bytes(bytes_at(bytes, at).ok_or_else(moved)?))
                }
                (DataType::Float64, ColumnValues::Float(dst)) => {
                    dst.push(f64::from_le_bytes(bytes_at(bytes, at).ok_or_else(moved)?))
                }
                (DataType::Text, ColumnValues::Str(text)) => {
                    text.push_owned(text_at(bytes, off)?.unwrap_or_default())
                }
                _ => return Err(mistyped()),
            }
        }
        Ok(())
    }

    /// Check every wanted text column of the located tuples named by
    /// `rows` as [`TupleLayout::gather`] would — non-UTF-8 is
    /// [`Error::Corrupt`] — without materializing a value: for consumers
    /// that keep validated tuple bytes and decode them later.
    pub fn check_text(&self, tuples: &[&[u8]], rows: &[u32]) -> Result<()> {
        for (k, _) in self.types.iter().enumerate().filter(|(_, ty)| **ty == DataType::Text) {
            let offs = self.column(k, tuples)?;
            rows.iter()
                .try_for_each(|&t| text_at(tuples[t as usize], offs[t as usize]).map(drop))?;
        }
        Ok(())
    }

    /// Decode one tuple: [`TupleLayout::locate`] it, then gather its
    /// wanted columns into the parallel vectors `out`.
    pub fn decode_into(&mut self, bytes: &[u8], out: &mut [ColumnVector]) -> Result<()> {
        self.locate(&[bytes])?;
        self.gather_row(&[bytes], 0, out)
    }
}

fn mistyped() -> Error {
    Error::exec("tuple field gathered into a mistyped column vector")
}

/// A recorded offset no longer fits its tuple: `gather` was handed other
/// bytes than `locate` walked.
fn moved() -> Error {
    Error::corrupt("tuple changed between locate and gather")
}

/// The validated text value whose length prefix sits at `off` of `bytes`,
/// or `None` for NULL.
#[inline]
fn text_at(bytes: &[u8], off: u32) -> Result<Option<&str>> {
    if off == NULL_AT {
        return Ok(None);
    }
    let start = off as usize + 2;
    let value = bytes_at::<2>(bytes, off as usize)
        .and_then(|len| bytes.get(start..start + u16::from_le_bytes(len) as usize))
        .ok_or_else(moved)?;
    std::str::from_utf8(value).map(Some).map_err(|_| Error::corrupt("non-utf8 text field"))
}
