//! Compiled tuple layouts: the one decoder under every columnar heap read.
//!
//! A [`TupleLayout`] is compiled **once** per (schema, wanted columns)
//! into *runs* — a maximal stretch of fixed-width fields and the text
//! field (if any) that closes it — and then decodes whole pages in two
//! steps:
//!
//! * [`TupleLayout::locate`] validates every tuple of the page exactly as
//!   strictly as [`Row::decode`](crate::row::Row::decode) validates its
//!   structure — a bitmap shorter than the schema, truncation inside any
//!   field and trailing bytes all surface as [`Error::Corrupt`], for every
//!   tuple handed in, wanted or not — and records where its wanted values
//!   start. Inside a NULL-free tuple every field sits at a constant
//!   offset from the start of its run, and the first run starts right
//!   after the bitmap, so such a tuple records only where each later run
//!   holding a wanted column starts: one entry per text field in front of
//!   a wanted column, none at all for a schema whose only text comes
//!   last. NULL-free tuples go through one tight walk over the runs — an
//!   all-zero bitmap test, a width step per run, a read per text length,
//!   `end == len` — that counts the tuples passing instead of returning a
//!   `Result` per tuple, so a valid page is walked at about the speed of
//!   touching it. The tuple it stops at takes a per-field walk, which
//!   records a tuple with NULLs (NULLs occupy no payload bytes, so
//!   nothing behind one sits at a constant offset) as one offset (or
//!   NULL) per wanted column in a side table of the page, and re-runs the
//!   checks on a broken one to name its fault: every verdict is the one a
//!   per-tuple check gives.
//! * [`TupleLayout::gather`] turns one column of the page into typed
//!   values: one loop **per column per page** (reserve once, the value's
//!   offset is its run's start plus the column's compiled in-run offset
//!   — or its side-table entry — `from_le_bytes` off it, null mask beside
//!   it), text validated as UTF-8 and copied into the column's arena
//!   ([`crate::columns::TextColumn`]).
//!
//! UTF-8 is a property of a *value*, so it is checked where a value is
//! materialized (`gather`), not where the tuple is walked (`locate`): a
//! scan validates the text it reads, like the probe it replaced.

use crate::columns::{ColumnValues, ColumnVector};
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::DataType;

/// Offset of a NULL field. Tuples this long are rejected by
/// [`TupleLayout::locate`], so no real offset collides with it.
const NULL_AT: u32 = u32::MAX;

/// [`Field::slot`] of a column the layout does not record.
const UNWANTED: u32 = u32::MAX;

/// [`Wanted::run`] of a column in the first run, which starts right after
/// the null bitmap and so is never recorded.
const FIRST_RUN: u32 = u32::MAX;

/// A NULL-free tuple's entry in [`Located::side_of`].
const NO_SIDE: u32 = u32::MAX;

/// One schema field, as the per-field walk sees it.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Payload bytes of a non-NULL value; `None` for length-prefixed text.
    width: Option<usize>,
    /// Position in the wanted list, or [`UNWANTED`].
    slot: u32,
}

/// A run of fixed-width fields and the text field (if any) that closes
/// it — the unit of the NULL-free walk.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Total bytes of the fixed-width fields.
    fixed_width: usize,
    /// Closed by a text field (every run but the schema's tail).
    text: bool,
    /// A wanted column lives here, so a NULL-free tuple records where the
    /// run starts (never set on the first run).
    recorded: bool,
}

/// Where a wanted column sits in a NULL-free tuple.
#[derive(Debug, Clone, Copy)]
struct Wanted {
    ty: DataType,
    /// Index of its run's start among a tuple's recorded starts, or
    /// [`FIRST_RUN`].
    run: u32,
    /// Byte offset from the run's start (of the length prefix, for text).
    at: u32,
}

/// What [`TupleLayout::locate`] recorded about the last page.
#[derive(Debug, Clone, Default)]
struct Located {
    /// Tuples on the page.
    tuples: usize,
    /// `starts[t * stride + r]`: where recorded run `r` of NULL-free
    /// tuple `t` starts.
    starts: Vec<u32>,
    /// Per tuple up to the last one with NULLs, where its row of `side`
    /// begins, or [`NO_SIDE`]: empty while the page has no NULL.
    side_of: Vec<u32>,
    /// One row per tuple with NULLs: the offset of each wanted column, or
    /// [`NULL_AT`].
    side: Vec<u32>,
}

/// A tuple decoder compiled for one schema and one set of wanted columns.
/// It owns the run starts and side table [`TupleLayout::locate`] fills
/// and [`TupleLayout::gather`] reads, so a long-lived layout decodes page
/// after page without allocating once they have grown to a page's worth.
#[derive(Debug, Clone)]
pub struct TupleLayout {
    bitmap_len: usize,
    fields: Vec<Field>,
    runs: Vec<Run>,
    /// The wanted columns, in wanted-list order.
    wanted: Vec<Wanted>,
    /// Recorded run starts per NULL-free tuple.
    stride: usize,
    page: Located,
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
        let bitmap_len = schema.len().div_ceil(8);
        let mut fields = Vec::with_capacity(schema.len());
        let mut runs = vec![Run { fixed_width: 0, text: false, recorded: false }];
        let mut placed = Vec::with_capacity(wanted.len());
        let mut next = wanted.iter().copied().enumerate().peekable();
        for (i, c) in schema.columns().iter().enumerate() {
            let slot = next.next_if(|&(_, col)| col == i).map(|(k, _)| k as u32);
            let width = c.ty.fixed_width();
            fields.push(Field { width, slot: slot.unwrap_or(UNWANTED) });
            let r = runs.len() - 1;
            let run = &mut runs[r];
            if slot.is_some() {
                run.recorded = r > 0;
                placed.push((c.ty, r, run.fixed_width));
            }
            match width {
                Some(w) => run.fixed_width += w,
                None => {
                    run.text = true;
                    runs.push(Run { fixed_width: 0, text: false, recorded: false });
                }
            }
        }
        // A run's index among the recorded ones; the first run is never
        // recorded and starts right after the bitmap.
        let recorded_before = |r: usize| runs[..r].iter().filter(|r| r.recorded).count() as u32;
        let wanted = placed
            .into_iter()
            .map(|(ty, r, at)| match r {
                0 => Wanted { ty, run: FIRST_RUN, at: (bitmap_len + at) as u32 },
                r => Wanted { ty, run: recorded_before(r), at: at as u32 },
            })
            .collect();
        let stride = runs.iter().filter(|r| r.recorded).count();
        TupleLayout { bitmap_len, fields, runs, wanted, stride, page: Located::default() }
    }

    /// Compile a layout recording every column of `schema`.
    pub fn all(schema: &Schema) -> Self {
        Self::new(schema, &(0..schema.len()).collect::<Vec<_>>())
    }

    /// Number of wanted columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.wanted.len()
    }

    /// Validate `tuples` (one page's worth) and record where the wanted
    /// columns of each tuple live, replacing the previous page's record.
    /// Errors exactly where [`Row::decode`](crate::row::Row::decode)
    /// rejects a tuple's structure; text bytes are checked by
    /// [`TupleLayout::gather`].
    pub fn locate(&mut self, tuples: &[&[u8]]) -> Result<()> {
        let mut page = std::mem::take(&mut self.page);
        let located = self.record(tuples, &mut page);
        self.page = page;
        located
    }

    /// [`TupleLayout::locate`] into `page`, which counts no tuple unless
    /// every one of them is valid.
    fn record(&self, tuples: &[&[u8]], page: &mut Located) -> Result<()> {
        let (stride, width) = (self.stride, self.wanted.len());
        page.tuples = 0;
        page.side_of.clear();
        page.side.clear();
        // The NULL-free walk writes every start of its tuple, so stale
        // entries need no clearing.
        page.starts.resize(tuples.len() * stride, 0);
        let mut t = 0;
        while t < tuples.len() {
            t += self.walk_free(&tuples[t..], &mut page.starts[t * stride..]);
            let Some(&bytes) = tuples.get(t) else { break };
            // A tuple with NULLs, or a broken one: the per-field walk
            // records the first and names what is wrong with the second.
            let Some(bitmap) = bytes.get(..self.bitmap_len) else {
                return Err(Error::corrupt("tuple shorter than its null bitmap"));
            };
            if bytes.len() >= NULL_AT as usize {
                return Err(Error::corrupt("tuple longer than any page"));
            }
            page.side_of.resize(t, NO_SIDE);
            page.side_of.push(page.side.len() as u32);
            let row = page.side.len();
            page.side.resize(row + width, NULL_AT);
            if self.walk_fields(bytes, bitmap, &mut page.side[row..])? != bytes.len() {
                return Err(Error::corrupt("trailing bytes after tuple"));
            }
            t += 1;
        }
        page.tuples = tuples.len();
        Ok(())
    }

    /// The NULL-free walk: how many of `tuples`, from the first, are
    /// NULL-free tuples that end exactly where their last run does, with
    /// the starts of each one's recorded runs written to `starts`
    /// (`stride` entries per tuple). One width step per run and one
    /// length read per text field, and a count instead of an error per
    /// tuple, so a page of valid tuples runs at the speed of touching
    /// them; the tuple it stops at goes to the per-field walk, which
    /// tells a tuple with NULLs from a broken one. Every start it writes
    /// for a counted tuple lies within that tuple, below [`NULL_AT`].
    fn walk_free(&self, tuples: &[&[u8]], starts: &mut [u32]) -> usize {
        let walk = |bytes: &[u8], starts: &mut [u32]| {
            let Some(bitmap) = bytes.get(..self.bitmap_len) else { return false };
            let mut pos = self.bitmap_len;
            let mut recorded = starts.iter_mut();
            for run in &self.runs {
                if run.recorded {
                    if let Some(start) = recorded.next() {
                        *start = pos as u32;
                    }
                }
                pos += run.fixed_width;
                if run.text {
                    let Some(len) = bytes_at::<2>(bytes, pos) else { return false };
                    pos += 2 + u16::from_le_bytes(len) as usize;
                }
            }
            let nulls = bitmap.iter().fold(0, |any, &b| any | b);
            (nulls == 0) & (pos == bytes.len()) & (pos < NULL_AT as usize)
        };
        let stopped = match self.stride {
            0 => tuples.iter().position(|b| !walk(b, &mut [])),
            n => tuples.iter().zip(starts.chunks_exact_mut(n)).position(|(b, s)| !walk(b, s)),
        };
        stopped.unwrap_or(tuples.len())
    }

    /// Per-field walk for a tuple the NULL-free walk stopped at,
    /// recording each wanted column's offset (or [`NULL_AT`]) into its
    /// side-table row `side`. Checks a field's extent before moving past
    /// it, so every recorded offset is in bounds, and fails where
    /// [`Row::decode`](crate::row::Row::decode) does.
    fn walk_fields(&self, bytes: &[u8], bitmap: &[u8], side: &mut [u32]) -> Result<usize> {
        let mut pos = self.bitmap_len;
        for (i, f) in self.fields.iter().enumerate() {
            let null = bitmap[i / 8] & (1 << (i % 8)) != 0;
            if f.slot != UNWANTED {
                side[f.slot as usize] = if null { NULL_AT } else { pos as u32 };
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

    /// Reject a gather of wanted column `k` over other tuples than the
    /// last page located.
    fn check_located(&self, k: usize, tuples: &[&[u8]]) -> Result<()> {
        if tuples.len() != self.page.tuples || k >= self.wanted.len() {
            return Err(Error::exec("gather over tuples the layout did not locate"));
        }
        Ok(())
    }

    /// Where wanted column `k` of located tuple `t` starts (at its length
    /// prefix, for text), or [`NULL_AT`].
    #[inline]
    fn offset(&self, k: usize, t: usize) -> u32 {
        let page = &self.page;
        match page.side_of.get(t) {
            Some(&row) if row != NO_SIDE => page.side[row as usize + k],
            _ => {
                let Wanted { run, at, .. } = self.wanted[k];
                match run {
                    FIRST_RUN => at,
                    r => page.starts[t * self.stride + r as usize] + at,
                }
            }
        }
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
        self.check_located(k, tuples)?;
        // A column of the first run sits at one offset in every tuple of
        // a NULL-free page.
        let Wanted { ty, run, at } = self.wanted[k];
        let uniform = (run == FIRST_RUN && self.page.side_of.is_empty()).then_some(at);
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
                let at = |t: usize| self.offset(k, t);
                match (rows, uniform) {
                    (None, Some(off)) => dst.extend(tuples.iter().map(|b| value(off, b))),
                    (None, None) => {
                        dst.extend(tuples.iter().enumerate().map(|(t, b)| value(at(t), b)))
                    }
                    (Some(rows), _) => dst
                        .extend(rows.iter().map(|&t| t as usize).map(|t| value(at(t), tuples[t]))),
                }
            }};
        }
        match ty {
            DataType::Int32 | DataType::Date => {
                fixed!(Int, 4, |b| i32::from_le_bytes(b) as i64)
            }
            DataType::Int64 => fixed!(Int, 8, i64::from_le_bytes),
            DataType::Float64 => fixed!(Float, 8, f64::from_le_bytes),
            DataType::Text => return self.gather_text(k, uniform, tuples, rows, out),
        }
        let null = |t: usize| self.offset(k, t) == NULL_AT;
        match rows {
            None if self.page.side_of.is_empty() => {
                out.nulls.resize(out.nulls.len() + tuples.len(), false)
            }
            None => out.nulls.extend((0..tuples.len()).map(null)),
            Some(rows) => out.nulls.extend(rows.iter().map(|&t| null(t as usize))),
        }
        if intact {
            Ok(())
        } else {
            Err(moved())
        }
    }

    fn gather_text(
        &self,
        k: usize,
        uniform: Option<u32>,
        tuples: &[&[u8]],
        rows: Option<&[u32]>,
        out: &mut ColumnVector,
    ) -> Result<()> {
        let ColumnValues::Str(text) = &mut out.values else {
            return Err(mistyped());
        };
        let count = rows.map_or(tuples.len(), <[u32]>::len);
        out.nulls.reserve(count);
        text.reserve(count);
        let mut push = |t: usize| -> Result<()> {
            let value = text_at(tuples[t], uniform.unwrap_or_else(|| self.offset(k, t)))?;
            out.nulls.push(value.is_none());
            text.push_owned(value.unwrap_or_default());
            Ok(())
        };
        match rows {
            None => (0..tuples.len()).try_for_each(&mut push),
            Some(rows) => rows.iter().try_for_each(|&t| push(t as usize)),
        }
    }

    /// Append every wanted column of located tuple `t` to the parallel
    /// vectors `out` (one per wanted column): [`TupleLayout::gather`] a
    /// row at a time, which is cheaper than one pass per column when only
    /// a few tuples are wanted.
    pub fn gather_row(&self, tuples: &[&[u8]], t: usize, out: &mut [ColumnVector]) -> Result<()> {
        self.gather_row_slots(tuples, t, 0..self.wanted.len(), out)
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
        let known = slots.clone().all(|k| k < self.wanted.len());
        if tuples.len() != self.page.tuples || out.len() != slots.len() || !known {
            return Err(Error::exec("gather over tuples the layout did not locate"));
        }
        let bytes = tuples[t];
        for (k, v) in slots.zip(out) {
            let (ty, off) = (self.wanted[k].ty, self.offset(k, t));
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
        for (k, _) in self.wanted.iter().enumerate().filter(|(_, w)| w.ty == DataType::Text) {
            self.check_located(k, tuples)?;
            let t = |&t: &u32| t as usize;
            rows.iter().map(t).try_for_each(|t| text_at(tuples[t], self.offset(k, t)).map(drop))?;
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
