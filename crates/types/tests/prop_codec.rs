//! Property tests for the row codec: arbitrary well-typed rows round-trip
//! bit-exactly, and encoded length always matches the pre-computed size.

mod common;

use common::{arb_type, arb_value_for};
use proptest::prelude::*;
use smooth_types::{Column, Row, Schema};

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
}
