//! Property tests for the row codec: arbitrary well-typed rows round-trip
//! bit-exactly, and encoded length always matches the pre-computed size.
//! And for the spill codec on hostile bytes: every truncation and every
//! flipped bit of a spilled row — encoded from a `Row` and from a
//! `ColumnBatch` — decodes or fails with `Error::Corrupt`, never panics.

mod common;

use common::{arb_type, arb_value_for};
use proptest::prelude::*;
use smooth_types::{spill, Column, ColumnBatch, Error, Result, Row, Schema};

fn arb_schema_and_row() -> impl Strategy<Value = (Schema, Row)> {
    proptest::collection::vec((arb_type(), any::<bool>()), 1..12).prop_flat_map(|cols| {
        let schema = Schema::new(
            cols.iter()
                .enumerate()
                .map(|(i, (ty, nullable))| {
                    let name = format!("c{i}");
                    if *nullable {
                        Column::nullable(name, *ty)
                    } else {
                        Column::new(name, *ty)
                    }
                })
                .collect(),
        )
        .expect("unique names");
        let values: Vec<_> =
            cols.iter().map(|(ty, nullable)| arb_value_for(*ty, *nullable)).collect();
        values.prop_map(move |vs| (schema.clone(), Row::new(vs)))
    })
}

/// `decode_row`'s verdict is a row or `Error::Corrupt`.
fn decodes_or_corrupt(r: &Result<(Row, usize)>) -> bool {
    matches!(r, Ok(_) | Err(Error::Corrupt(_)))
}

proptest! {
    #[test]
    fn codec_roundtrips((schema, row) in arb_schema_and_row()) {
        let bytes = row.encode(&schema).unwrap();
        prop_assert_eq!(bytes.len(), row.encoded_len(&schema));
        let back = Row::decode(&schema, &bytes).unwrap();
        // NaN-safe comparison: compare through re-encoding.
        prop_assert_eq!(back.encode(&schema).unwrap(), bytes);
    }

    #[test]
    fn truncated_tuples_never_decode((schema, row) in arb_schema_and_row()) {
        let bytes = row.encode(&schema).unwrap();
        if !bytes.is_empty() {
            // Dropping the final byte must fail (never panic, never succeed
            // with the same tail structure).
            prop_assert!(Row::decode(&schema, &bytes[..bytes.len() - 1]).is_err());
        }
    }

    #[test]
    fn hostile_spill_bytes_decode_or_fail_corrupt((schema, row) in arb_schema_and_row()) {
        let (mut from_row, mut from_batch) = (Vec::new(), Vec::new());
        spill::encode_row(&row, &mut from_row);
        let batch = ColumnBatch::from_rows(&schema, std::slice::from_ref(&row)).unwrap();
        spill::encode_batch_row(&batch, 0, &mut from_batch);
        prop_assert_eq!(&from_row, &from_batch);
        let width = schema.len();
        let (back, used) = spill::decode_row(&from_row, width).unwrap();
        prop_assert_eq!(used, from_row.len());
        prop_assert_eq!(spill::row_len(&back), from_row.len());
        for n in 0..from_row.len() {
            let cut = spill::decode_row(&from_row[..n], width);
            prop_assert!(matches!(cut, Err(Error::Corrupt(_))), "cut at {n}: {cut:?}");
        }
        for bit in 0..8 * from_row.len() {
            let mut flipped = from_row.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let decoded = spill::decode_row(&flipped, width);
            prop_assert!(decodes_or_corrupt(&decoded), "bit {bit}: {decoded:?}");
        }
    }
}
