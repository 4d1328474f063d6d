//! Generators shared by the codec and layout property suites.

use proptest::prelude::*;
use smooth_types::{DataType, Value};

/// Any column type, text twice as likely (it is the one that moves
/// everything behind it).
pub fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int32),
        Just(DataType::Int64),
        Just(DataType::Float64),
        Just(DataType::Date),
        Just(DataType::Text),
        Just(DataType::Text),
    ]
}

/// A value storable under `ty` (multi-byte text included), NULL one time
/// in four when `nullable`.
pub fn arb_value_for(ty: DataType, nullable: bool) -> BoxedStrategy<Value> {
    let base: BoxedStrategy<Value> = match ty {
        DataType::Int32 | DataType::Date => {
            (i32::MIN..=i32::MAX).prop_map(|v| Value::Int(v as i64)).boxed()
        }
        DataType::Int64 => any::<i64>().prop_map(Value::Int).boxed(),
        DataType::Float64 => any::<f64>().prop_map(Value::Float).boxed(),
        DataType::Text => "[a-zA-Z0-9 é日]{0,40}".prop_map(Value::Str).boxed(),
    };
    if nullable {
        prop_oneof![3 => base, 1 => Just(Value::Null)].boxed()
    } else {
        base
    }
}
