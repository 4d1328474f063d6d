//! Property tests for the compiled tuple layout, with `Row::decode` as
//! the reference decoder.
//!
//! Over generated schemas (all five types, nullable columns, text before,
//! between and after fixed-width runs, 1–40 columns so the null bitmap
//! spans bytes) and generated pages of rows with NULLs:
//!
//! * `locate` + `gather` of any wanted subset — dense, through a
//!   selection, a row at a time, a row at a time over some of the
//!   located columns — equals the same columns of `Row::decode`, floats
//!   compared bit for bit (a generated NaN equals itself);
//! * one layout reused over three pages of 1–100 rows — tuples with and
//!   without NULLs, then none with, then some again — decodes each page
//!   as `Row::decode` does, so nothing one page records leaks into the
//!   next;
//! * on hostile bytes — every truncation, appended bytes, every bitmap
//!   bit flipped (the unused high bits of the last byte included), text
//!   lengths overwritten, non-UTF-8 injected — the layout and
//!   `Row::decode` agree on `Ok` vs `Error::Corrupt`, and neither panics;
//! * the same hostile tuple first or last on a page of 64 valid NULL-free
//!   tuples — so the NULL-free walk meets it fresh or after a long valid
//!   prefix — fails the page exactly when `Row::decode` rejects its
//!   structure, with the same error text.
//!
//! UTF-8 is checked where a value is materialized, so a layout that does
//! not want a text column cannot see its bytes: for a wanted *subset* the
//! agreement is one-sided (the layout never accepts what `Row::decode`
//! rejects structurally, and never rejects what it accepts); with every
//! column wanted it is exact.

mod common;

use common::{arb_type, arb_value_for};
use proptest::prelude::*;
use smooth_types::{
    Column, ColumnVector, DataType, Error, Result, Row, Schema, TupleLayout, Value,
};

/// A generated case: the schema, a page of rows, a row without NULLs,
/// which columns are wanted, and a seed for the mutations' free choices.
#[derive(Debug, Clone)]
struct Case {
    schema: Schema,
    rows: Vec<Row>,
    free: Row,
    wanted: Vec<usize>,
    seed: u64,
}

/// A generated schema shape: each column's type and nullability, and
/// which columns are wanted.
fn arb_shape() -> impl Strategy<Value = (Vec<(DataType, bool)>, Vec<usize>)> {
    let columns = proptest::collection::vec((arb_type(), any::<bool>(), any::<bool>()), 1..41);
    (columns, any::<bool>(), any::<bool>()).prop_map(|(mut cols, text_first, text_last)| {
        // Pin the shapes the compiled walk special-cases: text opening
        // the tuple (an empty first run) and closing it (an empty tail
        // run); the random middle covers text between runs.
        if text_first {
            cols[0].0 = DataType::Text;
        }
        if text_last {
            cols.last_mut().expect("at least one column").0 = DataType::Text;
        }
        let wanted = cols.iter().enumerate().filter(|(_, c)| c.2).map(|(i, _)| i).collect();
        (cols.into_iter().map(|(ty, nullable, _)| (ty, nullable)).collect(), wanted)
    })
}

fn schema_of(cols: &[(DataType, bool)]) -> Schema {
    let columns = cols
        .iter()
        .enumerate()
        .map(|(i, &(ty, nullable))| Column { nullable, ..Column::new(format!("c{i}"), ty) });
    Schema::new(columns.collect()).expect("unique names")
}

/// A row of `cols`, with NULLs only where a column is nullable and
/// `nulls` is set.
fn arb_row(cols: &[(DataType, bool)], nulls: bool) -> impl Strategy<Value = Row> {
    let row = cols.iter().map(|&(ty, nullable)| arb_value_for(ty, nullable && nulls));
    row.collect::<Vec<_>>().prop_map(Row::new)
}

fn arb_case() -> impl Strategy<Value = Case> {
    (arb_shape(), 1usize..6, any::<u64>()).prop_flat_map(|((cols, wanted), n, seed)| {
        let schema = schema_of(&cols);
        let rows = proptest::collection::vec(arb_row(&cols, true), n..n + 1);
        (rows, arb_row(&cols, false)).prop_map(move |(rows, free)| Case {
            schema: schema.clone(),
            rows,
            free,
            wanted: wanted.clone(),
            seed,
        })
    })
}

/// A schema with a nullable column, the wanted columns, and three
/// consecutive pages of 1–100 rows: the first and the last mix tuples
/// with and without NULLs (at least one with), the middle one has none.
fn arb_pages() -> impl Strategy<Value = (Schema, Vec<usize>, Vec<Vec<Row>>)> {
    (arb_shape(), any::<usize>()).prop_flat_map(|((mut cols, wanted), pick)| {
        let nullable = pick % cols.len();
        cols[nullable].1 = true;
        let null_page = || {
            let mixed = prop_oneof![arb_row(&cols, false), arb_row(&cols, true)];
            (proptest::collection::vec(mixed, 1..101), any::<usize>()).prop_map(
                move |(mut rows, at)| {
                    let at = at % rows.len();
                    let mut values = rows[at].clone().into_values();
                    values[nullable] = Value::Null;
                    rows[at] = Row::new(values);
                    rows
                },
            )
        };
        let free_page = proptest::collection::vec(arb_row(&cols, false), 1..101);
        let (schema, wanted) = (schema_of(&cols), wanted.clone());
        (null_page(), free_page, null_page())
            .prop_map(move |(a, b, c)| (schema.clone(), wanted.clone(), vec![a, b, c]))
    })
}

/// Value equality with floats compared by bits (NaN equals itself).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Column vectors equal value for value, floats by bits.
fn same_columns(a: &[ColumnVector], b: &[ColumnVector]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && (0..x.len()).all(|i| same(&x.value(i), &y.value(i)))
        })
}

/// `cols` (one vector per column of `wanted`) hold the tuples `picked`
/// of `reference`, in order.
fn agrees(cols: &[ColumnVector], wanted: &[usize], reference: &[Row], picked: &[usize]) -> bool {
    cols.len() == wanted.len()
        && cols.iter().zip(wanted).all(|(v, &c)| {
            v.len() == picked.len()
                && picked.iter().enumerate().all(|(i, &t)| same(&v.value(i), reference[t].get(c)))
        })
}

fn vectors(schema: &Schema, wanted: &[usize]) -> Vec<ColumnVector> {
    wanted.iter().map(|&c| ColumnVector::for_type(schema.column(c).ty)).collect()
}

/// `locate` the page and `gather` every wanted column of every tuple.
fn decode_page(schema: &Schema, wanted: &[usize], tuples: &[&[u8]]) -> Result<Vec<ColumnVector>> {
    let mut layout = TupleLayout::new(schema, wanted);
    let mut out = vectors(schema, wanted);
    layout.locate(tuples)?;
    for (k, v) in out.iter_mut().enumerate() {
        layout.gather(k, tuples, None, v)?;
    }
    Ok(out)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where each non-NULL text field of `row`'s encoding keeps its length
/// prefix, and how long its payload is.
fn text_fields(schema: &Schema, row: &Row) -> Vec<(usize, usize)> {
    let mut pos = schema.len().div_ceil(8);
    let mut out = Vec::new();
    for (v, c) in row.values().iter().zip(schema.columns()) {
        match (v, c.ty.fixed_width()) {
            (Value::Null, _) => {}
            (_, Some(w)) => pos += w,
            (v, None) => {
                let len = v.as_str().expect("text value").len();
                out.push((pos, len));
                pos += 2 + len;
            }
        }
    }
    out
}

/// The hostile variants of one valid encoding.
fn mutations(schema: &Schema, row: &Row, bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = seed;
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for extra in [1usize, 2, 9] {
        let mut longer = bytes.to_vec();
        longer.extend((0..extra).map(|_| splitmix(&mut rng) as u8));
        out.push(longer);
    }
    for bit in 0..8 * schema.len().div_ceil(8) {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push(flipped);
    }
    for (at, len) in text_fields(schema, row) {
        let lens =
            [0, len.wrapping_sub(1), len + 1, bytes.len(), 0xffff, splitmix(&mut rng) as usize];
        for new_len in lens {
            let mut relen = bytes.to_vec();
            relen[at..at + 2].copy_from_slice(&(new_len as u16).to_le_bytes());
            out.push(relen);
        }
        if len > 0 {
            let mut invalid = bytes.to_vec();
            invalid[at + 2 + splitmix(&mut rng) as usize % len] = 0xff;
            out.push(invalid);
        }
    }
    out
}

fn is_corrupt<T>(r: &Result<T>) -> bool {
    matches!(r, Err(Error::Corrupt(_)))
}

/// `None` for `Ok`, else the error's text.
fn failure<T>(r: &Result<T>) -> Option<String> {
    r.as_ref().err().map(Error::to_string)
}

proptest! {
    #[test]
    fn layout_decodes_what_row_decode_decodes(case in arb_case()) {
        let Case { schema, rows, wanted, seed, .. } = case;
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode(&schema).unwrap()).collect();
        let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let reference: Vec<Row> =
            tuples.iter().map(|t| Row::decode(&schema, t).unwrap()).collect();
        let all: Vec<usize> = (0..rows.len()).collect();
        let dense = decode_page(&schema, &wanted, &tuples).unwrap();
        prop_assert!(agrees(&dense, &wanted, &reference, &all), "dense gather ≠ Row::decode");
        // Through a selection, and a row at a time.
        let mut rng = seed;
        let picked: Vec<usize> = all.iter().copied().filter(|_| splitmix(&mut rng) % 2 == 0).collect();
        let sel: Vec<u32> = picked.iter().map(|&t| t as u32).collect();
        let mut layout = TupleLayout::new(&schema, &wanted);
        layout.locate(&tuples).unwrap();
        let (mut by_sel, mut by_row) = (vectors(&schema, &wanted), vectors(&schema, &wanted));
        for (k, v) in by_sel.iter_mut().enumerate() {
            layout.gather(k, &tuples, Some(&sel), v).unwrap();
        }
        for &t in &picked {
            layout.gather_row(&tuples, t, &mut by_row).unwrap();
        }
        prop_assert!(agrees(&by_sel, &wanted, &reference, &picked), "selected gather ≠ Row::decode");
        prop_assert!(same_columns(&by_row, &by_sel), "row-major ≠ column-major");
        layout.check_text(&tuples, &sel).unwrap();
        // A row at a time over some of the located columns only (a scan
        // that locates its predicate's columns and emits others).
        let slots: Vec<usize> = (0..wanted.len()).filter(|_| splitmix(&mut rng) % 2 == 0).collect();
        let emitted: Vec<usize> = slots.iter().map(|&k| wanted[k]).collect();
        let mut some = vectors(&schema, &emitted);
        for &t in &picked {
            layout.gather_row_of(&tuples, t, &slots, &mut some).unwrap();
        }
        let expected: Vec<ColumnVector> = slots.iter().map(|&k| by_sel[k].clone()).collect();
        prop_assert!(same_columns(&some, &expected), "row-major over a slot subset ≠ column-major");
        let mut one = vec![ColumnVector::for_type(DataType::Int64)];
        let unknown = layout.gather_row_of(&tuples, 0, &[wanted.len()], &mut one);
        prop_assert!(unknown.is_err(), "a slot the layout does not record");
    }

    #[test]
    fn one_layout_decodes_page_after_page(pages in arb_pages()) {
        // NULL-bearing, NULL-free, NULL-bearing again: run starts and
        // side-table rows of one page must not leak into the next.
        let (schema, wanted, pages) = pages;
        let mut layout = TupleLayout::new(&schema, &wanted);
        for (p, rows) in pages.iter().enumerate() {
            let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode(&schema).unwrap()).collect();
            let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
            let reference: Vec<Row> =
                tuples.iter().map(|t| Row::decode(&schema, t).unwrap()).collect();
            layout.locate(&tuples).unwrap();
            let (mut dense, mut by_sel, mut by_row) =
                (vectors(&schema, &wanted), vectors(&schema, &wanted), vectors(&schema, &wanted));
            let all: Vec<usize> = (0..rows.len()).collect();
            let picked: Vec<usize> = all.iter().copied().filter(|t| (t + p) % 3 != 1).collect();
            let sel: Vec<u32> = picked.iter().map(|&t| t as u32).collect();
            for k in 0..wanted.len() {
                layout.gather(k, &tuples, None, &mut dense[k]).unwrap();
                layout.gather(k, &tuples, Some(&sel), &mut by_sel[k]).unwrap();
            }
            for &t in &picked {
                layout.gather_row(&tuples, t, &mut by_row).unwrap();
            }
            layout.check_text(&tuples, &sel).unwrap();
            prop_assert!(agrees(&dense, &wanted, &reference, &all), "page {p}: dense gather");
            prop_assert!(agrees(&by_sel, &wanted, &reference, &picked), "page {p}: selected");
            prop_assert!(agrees(&by_row, &wanted, &reference, &picked), "page {p}: row at a time");
        }
    }

    #[test]
    fn layout_and_row_decode_agree_on_hostile_bytes(case in arb_case()) {
        let Case { schema, rows, wanted, seed, .. } = case;
        let everything: Vec<usize> = (0..schema.len()).collect();
        let valid = rows[0].encode(&schema).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let bytes = row.encode(&schema).unwrap();
            for hostile in mutations(&schema, row, &bytes, seed ^ i as u64) {
                let reference = Row::decode(&schema, &hostile);
                let full = decode_page(&schema, &everything, &[&hostile]);
                prop_assert!(reference.is_ok() || is_corrupt(&reference), "{reference:?}");
                prop_assert!(full.is_ok() || is_corrupt(&full), "{full:?}");
                prop_assert!(full.is_ok() == reference.is_ok(), "{full:?} vs {reference:?}");
                let part = decode_page(&schema, &wanted, &[&hostile]);
                prop_assert!(part.is_ok() || is_corrupt(&part), "{part:?}");
                prop_assert!(part.is_ok() || reference.is_err(), "subset rejects a valid tuple");
                // What the subset cannot see is text it does not read.
                let unread = matches!(&reference, Err(Error::Corrupt(m)) if m.contains("utf8"));
                prop_assert!(part.is_err() || reference.is_ok() || unread, "{reference:?}");
                if let (Ok(cols), Ok(row)) = (&full, &reference) {
                    let same_row = cols.iter().zip(row.values()).all(|(v, x)| same(&v.value(0), x));
                    prop_assert!(same_row, "{cols:?} vs {row:?}");
                }
                // One bad tuple fails its page, wherever it sits.
                let mut layout = TupleLayout::new(&schema, &wanted);
                let located = layout.locate(&[&valid, &hostile, &valid]);
                prop_assert!(located.is_ok() || is_corrupt(&located), "{located:?}");
                prop_assert!(located.is_ok() || (reference.is_err() && part.is_err()));
                prop_assert!(located.is_err() || reference.is_ok() || unread);
            }
        }
    }

    #[test]
    fn a_hostile_tuple_fails_its_page_behind_a_long_valid_prefix(case in arb_case()) {
        let Case { schema, rows, free, wanted, seed } = case;
        let free = free.encode(&schema).unwrap();
        let everything: Vec<usize> = (0..schema.len()).collect();
        let mut layouts = [TupleLayout::new(&schema, &wanted), TupleLayout::new(&schema, &everything)];
        for (i, row) in rows.iter().enumerate() {
            let bytes = row.encode(&schema).unwrap();
            for hostile in mutations(&schema, row, &bytes, seed ^ i as u64) {
                let reference = Row::decode(&schema, &hostile);
                // `locate` does not read text, so where `Row::decode`
                // stops at non-UTF-8 the reference is the tuple alone.
                let unread = matches!(&reference, Err(Error::Corrupt(m)) if m.contains("utf8"));
                let expected = match unread {
                    true => failure(&layouts[1].locate(&[&hostile])),
                    false => failure(&reference),
                };
                for layout in &mut layouts {
                    for at in [0, 64] {
                        let mut page = vec![free.as_slice(); 64];
                        page.insert(at, &hostile);
                        let located = layout.locate(&page);
                        prop_assert!(located.is_ok() || is_corrupt(&located), "{located:?}");
                        let got = failure(&located);
                        prop_assert!(got == expected, "at {at}: {got:?} vs {expected:?}");
                    }
                }
            }
        }
    }
}
