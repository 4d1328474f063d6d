//! The spill codec: how tuples are serialized into overflow files.
//!
//! Larger-than-memory operators (the grace hash join and the external
//! merge sort in `smooth-executor`) charge for spilling tuples to
//! overflow files when their working set exceeds the memory budget — a
//! spill is its charge; the rows stay where they are. This module
//! defines the one on-disk tuple layout those charges are sized by, so
//! spill *sizes* — which drive the charged overflow-file I/O — are
//! computed identically everywhere, whether the tuples at hand are
//! materialized [`Row`]s or columns inside a [`ColumnBatch`].
//!
//! Layout, per value: a 1-byte tag, then a fixed or length-prefixed
//! payload —
//!
//! | tag | value               | payload                          |
//! |-----|---------------------|----------------------------------|
//! | 0   | `Value::Null`       | none                             |
//! | 1   | `Value::Int(v)`     | 8 bytes, `v` little-endian       |
//! | 2   | `Value::Float(v)`   | 8 bytes, IEEE bits little-endian |
//! | 3   | `Value::Str(s)`     | 4-byte LE length, then the bytes |
//!
//! A spilled row is its values encoded back to back; a spill file is
//! rows encoded back to back (the reader knows the row width from the
//! operator's schema). The format is self-describing enough to round-
//! trip without a schema and cheap enough to size without encoding:
//! [`batch_row_len`] reads lengths straight off the typed column
//! vectors.

use crate::columns::{ColumnBatch, ColumnValues};
use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

/// Encoded length of one value under the spill codec.
#[inline]
pub fn value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

/// Append one value's spill encoding to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode one value off the front of `bytes`; returns it plus the
/// number of bytes consumed.
pub fn decode_value(bytes: &[u8]) -> Result<(Value, usize)> {
    let (&tag, rest) = bytes.split_first().ok_or_else(|| Error::corrupt("empty spill value"))?;
    let fixed = |n: usize| -> Result<&[u8]> {
        rest.get(..n).ok_or_else(|| Error::corrupt("truncated spill value"))
    };
    // invariant: the `try_into().expect(..)` conversions below cannot
    // fail — `fixed(n)?` already returned exactly an `n`-byte slice, so
    // the array conversion is length-checked before it runs.
    match tag {
        0 => Ok((Value::Null, 1)),
        1 => Ok((Value::Int(i64::from_le_bytes(fixed(8)?.try_into().expect("8 bytes"))), 9)),
        2 => Ok((
            Value::Float(f64::from_bits(u64::from_le_bytes(
                fixed(8)?.try_into().expect("8 bytes"),
            ))),
            9,
        )),
        3 => {
            let len = u32::from_le_bytes(fixed(4)?.try_into().expect("4 bytes")) as usize;
            let s = rest.get(4..4 + len).ok_or_else(|| Error::corrupt("truncated spill string"))?;
            let s = std::str::from_utf8(s)
                .map_err(|_| Error::corrupt("non-utf8 spill string"))?
                .to_owned();
            Ok((Value::Str(s), 5 + len))
        }
        _ => Err(Error::corrupt("unknown spill value tag")),
    }
}

/// Encoded length of one row.
#[inline]
pub fn row_len(row: &Row) -> usize {
    row.values().iter().map(value_len).sum()
}

/// Append one row's spill encoding to `out`.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    for v in row.values() {
        encode_value(v, out);
    }
}

/// Decode one `width`-column row off the front of `bytes`; returns it
/// plus the number of bytes consumed.
pub fn decode_row(bytes: &[u8], width: usize) -> Result<(Row, usize)> {
    let mut values = Vec::with_capacity(width);
    let mut at = 0;
    for _ in 0..width {
        let (v, n) = decode_value(&bytes[at..])?;
        values.push(v);
        at += n;
    }
    Ok((Row::new(values), at))
}

/// Encoded length of physical row `phys` of a [`ColumnBatch`], read
/// straight off the typed vectors — no [`Value`] materializes.
#[inline]
pub fn batch_row_len(batch: &ColumnBatch, phys: usize) -> usize {
    let mut len = 0;
    for col in batch.columns() {
        len += if col.is_null(phys) {
            1
        } else {
            match col.values() {
                ColumnValues::Int(_) | ColumnValues::Float(_) => 9,
                ColumnValues::Str(v) => 5 + v.bytes_at(phys).len(),
            }
        };
    }
    len
}

/// Append physical row `phys` of a [`ColumnBatch`] to `out` under the
/// spill codec: string bytes are written straight from the column
/// arena, without materializing a [`Value`].
pub fn encode_batch_row(batch: &ColumnBatch, phys: usize, out: &mut Vec<u8>) {
    for col in batch.columns() {
        if col.is_null(phys) {
            out.push(0);
            continue;
        }
        match col.values() {
            ColumnValues::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v[phys].to_le_bytes());
            }
            ColumnValues::Float(v) => {
                out.push(2);
                out.extend_from_slice(&v[phys].to_bits().to_le_bytes());
            }
            ColumnValues::Str(v) => {
                let s = v.bytes_at(phys);
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn sample_rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(42), Value::Null, Value::str("hello")]),
            Row::new(vec![Value::Int(-7), Value::Float(1.5), Value::str("")]),
            Row::new(vec![Value::Int(i64::MAX), Value::Float(-0.0), Value::str("αβγ")]),
        ]
    }

    #[test]
    fn row_roundtrip_preserves_values_and_len() {
        for row in sample_rows() {
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            assert_eq!(buf.len(), row_len(&row));
            let (back, used) = decode_row(&buf, row.values().len()).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(back.values(), row.values());
        }
    }

    #[test]
    fn batch_row_len_matches_row_len() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Float64),
            Column::new("c", DataType::Text),
        ])
        .unwrap();
        let rows = sample_rows();
        // The nullable Float column is the only NULL in the sample.
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch_row_len(&batch, i), row_len(row));
            let mut from_batch = Vec::new();
            encode_batch_row(&batch, i, &mut from_batch);
            let mut from_row = Vec::new();
            encode_row(row, &mut from_row);
            assert_eq!(from_batch, from_row);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[9]).is_err());
        assert!(decode_value(&[1, 0, 0]).is_err());
        assert!(decode_value(&[3, 5, 0, 0, 0, b'x']).is_err());
    }
}
