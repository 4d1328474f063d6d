//! Table schemas: ordered, named, typed columns.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::DataType;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub name: String,
    /// Logical type.
    pub ty: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column { name: name.into(), ty, nullable: false }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        Column { name: name.into(), ty, nullable: true }
    }
}

/// An ordered collection of columns describing one table (or one operator's
/// output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, validating column-name uniqueness.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(Error::schema(format!("duplicate column name '{}'", c.name)));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the schema has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All columns in order.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at `idx`.
    #[inline]
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::schema(format!("no column named '{name}'")))
    }

    /// Validate a row against this schema (arity, types, nullability).
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::schema(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.values().iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(Error::schema(format!("NULL in non-nullable column '{}'", c.name)));
                }
            } else if !v.conforms_to(c.ty) {
                return Err(Error::schema(format!(
                    "value {v} does not fit column '{}' of type {}",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Keep the columns at `cols`, in that order (projection outputs).
    pub fn project(&self, cols: &[usize]) -> Result<Schema> {
        let kept = cols
            .iter()
            .map(|&c| {
                self.columns
                    .get(c)
                    .cloned()
                    .ok_or_else(|| Error::schema(format!("project column {c} out of range")))
            })
            .collect::<Result<Vec<_>>>()?;
        Schema::new(kept)
    }

    /// Column pruning: this schema (`None`), or its columns at `cols` —
    /// strictly ascending ordinals, so a narrowing can only drop columns,
    /// never reorder or repeat them (that is [`Schema::project`]'s job).
    /// What every scan output list and join emit list is validated by.
    /// Names are kept as they are: a join schema may legally hold a
    /// repeated `_r` name, and narrowing it must not start rejecting it.
    pub fn narrow(&self, cols: Option<&[usize]>) -> Result<Schema> {
        let Some(cols) = cols else { return Ok(self.clone()) };
        if !cols.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::plan(format!("column list {cols:?} is not strictly ascending")));
        }
        match cols.last() {
            Some(&c) if c >= self.columns.len() => {
                Err(Error::schema(format!("column {c} out of range ({})", self.columns.len())))
            }
            _ => Ok(Schema { columns: cols.iter().map(|&c| self.columns[c].clone()).collect() }),
        }
    }

    /// Concatenate two schemas (for join outputs). Duplicate names on the
    /// right side get a `_r` suffix, as a pragmatic disambiguation.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        for c in &right.columns {
            let name = if columns.iter().any(|l| l.name == c.name) {
                format!("{}_r", c.name)
            } else {
                c.name.clone()
            };
            columns.push(Column { name, ty: c.ty, nullable: c.nullable });
        }
        Schema { columns }
    }

    /// An upper bound on the encoded width of a tuple of this schema, used
    /// by cost estimation. Variable-width columns are assumed to use
    /// `avg_text` bytes of payload.
    pub fn estimated_tuple_width(&self, avg_text: usize) -> usize {
        let null_bitmap = self.columns.len().div_ceil(8);
        let fields: usize =
            self.columns.iter().map(|c| c.ty.fixed_width().unwrap_or(2 + avg_text)).sum();
        null_bitmap + fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn two_col() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::nullable("name", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_names() {
        let err =
            Schema::new(vec![Column::new("a", DataType::Int32), Column::new("a", DataType::Int64)])
                .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn index_of_finds_columns() {
        let s = two_col();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn validates_arity_types_nullability() {
        let s = two_col();
        assert!(s.validate(&Row::new(vec![Value::Int(1), Value::str("x")])).is_ok());
        assert!(s.validate(&Row::new(vec![Value::Int(1), Value::Null])).is_ok());
        assert!(s.validate(&Row::new(vec![Value::Null, Value::Null])).is_err());
        assert!(s.validate(&Row::new(vec![Value::Int(1)])).is_err());
        assert!(s.validate(&Row::new(vec![Value::str("x"), Value::Null])).is_err());
    }

    #[test]
    fn join_disambiguates_names() {
        let s = two_col().join(&two_col());
        assert_eq!(s.len(), 4);
        assert_eq!(s.column(2).name, "id_r");
        assert_eq!(s.column(3).name, "name_r");
    }

    #[test]
    fn project_reorders_and_rejects_bad_ordinals() {
        let s = two_col().project(&[1, 0]).unwrap();
        assert_eq!((s.column(0).name.as_str(), s.column(1).name.as_str()), ("name", "id"));
        let err = two_col().project(&[0, 2]).unwrap_err();
        assert!(err.to_string().contains("project column 2 out of range"), "{err}");
        // Projecting a column twice is a duplicate name, as in `new`.
        assert!(two_col().project(&[0, 0]).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn narrow_drops_columns_and_nothing_else() {
        let joined = two_col().join(&two_col()).join(&two_col());
        assert_eq!(joined.narrow(None).unwrap(), joined);
        // `id_r` twice: legal in a join schema, and it stays legal narrowed.
        let kept = joined.narrow(Some(&[1, 2, 4])).unwrap();
        let names: Vec<&str> = kept.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["name", "id_r", "id_r"]);
        assert_eq!(joined.narrow(Some(&[])).unwrap().len(), 0);
        for bad in [&[1, 0][..], &[2, 2], &[0, 6]] {
            assert!(joined.narrow(Some(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn width_estimate_counts_bitmap_and_fields() {
        let s = two_col();
        // 1 byte bitmap + 8 (int64) + 2+16 (text) = 27
        assert_eq!(s.estimated_tuple_width(16), 27);
    }
}
