//! In-memory rows and the on-page tuple codec.
//!
//! The wire format is a null bitmap followed by the field payloads in schema
//! order. Fixed-width fields (`Int32`, `Int64`, `Float64`, `Date`) serialize
//! little-endian; `Text` carries a 2-byte length prefix. NULL fields occupy
//! no payload bytes. The format is self-delimiting given the schema, which
//! is all a slotted heap page needs.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// One tuple's worth of values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Wrap a vector of values.
    #[inline]
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for the zero-column row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow all values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the underlying vector.
    #[inline]
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Value at position `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Integer at position `idx` (errors if not an int).
    #[inline]
    pub fn int(&self, idx: usize) -> Result<i64> {
        self.values[idx].as_int()
    }

    /// Float at position `idx` (ints widen).
    #[inline]
    pub fn float(&self, idx: usize) -> Result<f64> {
        self.values[idx].as_float()
    }

    /// String at position `idx` (errors if not text).
    #[inline]
    pub fn str(&self, idx: usize) -> Result<&str> {
        self.values[idx].as_str()
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, right: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Row { values }
    }

    /// Serialized size in bytes under `schema`, without encoding.
    pub fn encoded_len(&self, schema: &Schema) -> usize {
        let bitmap = schema.len().div_ceil(8);
        let payload: usize = self
            .values
            .iter()
            .zip(schema.columns())
            .map(|(v, c)| match (v, c.ty) {
                (Value::Null, _) => 0,
                (_, ty) => match ty.fixed_width() {
                    Some(w) => w,
                    None => 2 + v.as_str().map(str::len).unwrap_or(0),
                },
            })
            .sum();
        bitmap + payload
    }

    /// Encode this row under `schema`, appending to `out`.
    ///
    /// The row must validate against the schema; violations surface as
    /// [`Error::Schema`].
    pub fn encode_into(&self, schema: &Schema, out: &mut Vec<u8>) -> Result<()> {
        schema.validate(self)?;
        let bitmap_len = schema.len().div_ceil(8);
        let bitmap_start = out.len();
        out.resize(bitmap_start + bitmap_len, 0u8);
        for (i, (v, c)) in self.values.iter().zip(schema.columns()).enumerate() {
            match v {
                Value::Null => {
                    out[bitmap_start + i / 8] |= 1 << (i % 8);
                }
                Value::Int(x) => match c.ty {
                    DataType::Int32 | DataType::Date => {
                        out.extend_from_slice(&(*x as i32).to_le_bytes())
                    }
                    DataType::Int64 => out.extend_from_slice(&x.to_le_bytes()),
                    _ => unreachable!("validated"),
                },
                Value::Float(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::Str(s) => {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        Ok(())
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.encoded_len(schema));
        self.encode_into(schema, &mut out)?;
        Ok(out)
    }

    /// Decode a row of `schema` from `bytes`.
    pub fn decode(schema: &Schema, bytes: &[u8]) -> Result<Row> {
        let (bitmap, mut rest) = split_bitmap(schema, bytes)?;
        let mut values = Vec::with_capacity(schema.len());
        for (i, c) in schema.columns().iter().enumerate() {
            if is_null(bitmap, i) {
                values.push(Value::Null);
            } else {
                values.push(decode_field(&mut rest, c.ty)?);
            }
        }
        if !rest.is_empty() {
            return Err(Error::corrupt("trailing bytes after tuple"));
        }
        Ok(Row { values })
    }
}

/// Split `bytes` into the null bitmap and the payload under `schema`.
fn split_bitmap<'a>(schema: &Schema, bytes: &'a [u8]) -> Result<(&'a [u8], &'a [u8])> {
    let bitmap_len = schema.len().div_ceil(8);
    if bytes.len() < bitmap_len {
        return Err(Error::corrupt("tuple shorter than its null bitmap"));
    }
    Ok(bytes.split_at(bitmap_len))
}

#[inline]
fn is_null(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// Advance `rest` past `n` bytes, returning them as a borrowed slice.
#[inline]
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if rest.len() < n {
        return Err(Error::corrupt("tuple truncated"));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// Advance `rest` past `N` bytes, returning them as an array.
#[inline]
fn take_array<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N]> {
    let (head, tail) =
        rest.split_first_chunk::<N>().ok_or_else(|| Error::corrupt("tuple truncated"))?;
    *rest = tail;
    Ok(*head)
}

/// Decode one non-null field of type `ty` from the front of `rest`.
#[inline]
fn decode_field(rest: &mut &[u8], ty: DataType) -> Result<Value> {
    Ok(match ty {
        DataType::Int32 | DataType::Date => {
            Value::Int(i32::from_le_bytes(take_array(rest)?) as i64)
        }
        DataType::Int64 => Value::Int(i64::from_le_bytes(take_array(rest)?)),
        DataType::Float64 => Value::Float(f64::from_le_bytes(take_array(rest)?)),
        DataType::Text => {
            let len = u16::from_le_bytes(take_array(rest)?) as usize;
            let s = take(rest, len)?;
            Value::Str(
                std::str::from_utf8(s)
                    .map_err(|_| Error::corrupt("non-utf8 text field"))?
                    .to_owned(),
            )
        }
    })
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int64),
            Column::nullable("c", DataType::Text),
            Column::nullable("d", DataType::Float64),
            Column::new("e", DataType::Date),
        ])
        .unwrap()
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Int(-5),
            Value::Int(1 << 40),
            Value::str("hello"),
            Value::Float(2.5),
            Value::Int(19000),
        ])
    }

    #[test]
    fn roundtrip_plain() {
        let s = schema();
        let r = row();
        let bytes = r.encode(&s).unwrap();
        assert_eq!(bytes.len(), r.encoded_len(&s));
        assert_eq!(Row::decode(&s, &bytes).unwrap(), r);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let s = schema();
        let r =
            Row::new(vec![Value::Int(1), Value::Int(2), Value::Null, Value::Null, Value::Int(0)]);
        let bytes = r.encode(&s).unwrap();
        assert_eq!(Row::decode(&s, &bytes).unwrap(), r);
        // nulls cost zero payload bytes: bitmap(1) + 4 + 8 + 4
        assert_eq!(bytes.len(), 17);
    }

    #[test]
    fn encode_rejects_schema_violation() {
        let s = schema();
        let bad = Row::new(vec![
            Value::Int(i64::MAX), // does not fit Int32
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Int(0),
        ]);
        assert!(bad.encode(&s).is_err());
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let s = schema();
        let bytes = row().encode(&s).unwrap();
        assert!(Row::decode(&s, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Row::decode(&s, &extra).is_err());
        assert!(Row::decode(&s, &[]).is_err());
    }

    #[test]
    fn decode_columns_probes_without_full_decode() {
        use crate::columns::ColumnVector;
        use crate::layout::TupleLayout;
        let s = schema();
        // Columns `cols` of `bytes` through a compiled layout, as values.
        let probe = |bytes: &[u8], cols: &[usize]| -> Result<Vec<Value>> {
            let mut layout = TupleLayout::new(&s, cols);
            let mut out: Vec<ColumnVector> =
                cols.iter().map(|&c| ColumnVector::for_type(s.column(c).ty)).collect();
            layout.decode_into(bytes, &mut out)?;
            Ok(out.iter().map(|v| v.value(0)).collect())
        };
        let bytes = row().encode(&s).unwrap();
        assert_eq!(probe(&bytes, &[1, 3]).unwrap(), [Value::Int(1 << 40), Value::Float(2.5)]);
        // columns after a variable-width field decode correctly
        assert_eq!(probe(&bytes, &[4]).unwrap(), [Value::Int(19000)]);
        // nulls decode as Null
        let withnull =
            Row::new(vec![Value::Int(1), Value::Int(2), Value::Null, Value::Null, Value::Int(0)]);
        let nulled = withnull.encode(&s).unwrap();
        assert_eq!(probe(&nulled, &[2, 4]).unwrap(), [Value::Null, Value::Int(0)]);
        // truncation surfaces as an error
        assert!(probe(&nulled[..2], &[4]).is_err());
        // … even when the damage is past the last referenced column, and
        // trailing bytes are rejected — same strictness as Row::decode
        assert!(probe(&bytes[..bytes.len() - 1], &[0]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(probe(&extra, &[0]).is_err());
    }

    #[test]
    fn concat_joins_values() {
        let r = Row::new(vec![Value::Int(1)]).concat(&Row::new(vec![Value::Int(2)]));
        assert_eq!(r.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn accessors() {
        let r = row();
        assert_eq!(r.int(0).unwrap(), -5);
        assert_eq!(r.str(2).unwrap(), "hello");
        assert_eq!(r.float(3).unwrap(), 2.5);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }
}
