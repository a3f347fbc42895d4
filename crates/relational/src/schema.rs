//! Table schemas: column definitions and primary keys.
//!
//! Primary keys are load-bearing for the whole system: Theorem 1 of the
//! paper makes a view trigger-specifiable exactly when every base table
//! operator has a canonical key, and the table operator's canonical key *is*
//! the relational primary key. [`Database::create_table`](crate::Database::create_table)
//! therefore requires a non-empty primary key.

use crate::table::Key;
use crate::value::{ColumnType, Row, Value};
use crate::Error;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Declared type; inserts are checked against it.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// Schema of a stored table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name, unique within the database.
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<ColumnDef>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Build a schema; `primary_key` lists column *names*.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: &[&str],
    ) -> Result<Self, Error> {
        let name = name.into();
        let mut pk = Vec::with_capacity(primary_key.len());
        for key_col in primary_key {
            let idx = columns
                .iter()
                .position(|c| c.name == *key_col)
                .ok_or_else(|| Error::UnknownColumn(name.clone(), key_col.to_string()))?;
            pk.push(idx);
        }
        if pk.is_empty() {
            return Err(Error::MissingPrimaryKey(name));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(Error::DuplicateColumn(name, c.name.clone()));
            }
        }
        Ok(TableSchema {
            name,
            columns,
            primary_key: pk,
        })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Result<usize, Error> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn(self.name.clone(), name.to_string()))
    }

    /// Extract the primary-key values of a row.
    pub fn key_of(&self, row: &[Value]) -> Key {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Check that `row` matches the schema (arity and column types; NULL is
    /// accepted for any type).
    pub fn check_row(&self, row: &[Value]) -> Result<(), Error> {
        if row.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            let ok = match (v, c.ty) {
                (Value::Null, _) => true,
                (Value::Bool(_), ColumnType::Bool) => true,
                (Value::Int(_), ColumnType::Int) => true,
                (Value::Double(_), ColumnType::Double) => true,
                (Value::Int(_), ColumnType::Double) => true, // widening
                (Value::Str(_), ColumnType::Str) => true,
                _ => false,
            };
            if !ok {
                return Err(Error::TypeMismatch {
                    table: self.name.clone(),
                    column: c.name.clone(),
                    value: format!("{v:?}"),
                });
            }
        }
        Ok(())
    }
}

/// Named transition-table row set handed to triggers (Δ = `inserted`,
/// ∇ = `deleted` in the paper's notation).
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    /// Rows in insertion order.
    pub rows: Vec<Row>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn schema() -> TableSchema {
        TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid", "pid"],
        )
        .unwrap()
    }

    #[test]
    fn composite_primary_key_resolves_names() {
        let s = schema();
        assert_eq!(s.primary_key, vec![0, 1]);
        let r = row([Value::str("Amazon"), Value::str("P1"), Value::Double(100.0)]);
        assert_eq!(&*s.key_of(&r), &[Value::str("Amazon"), Value::str("P1")]);
    }

    #[test]
    fn rejects_unknown_pk_column() {
        let err = TableSchema::new("t", vec![ColumnDef::new("a", ColumnType::Int)], &["b"]);
        assert!(matches!(err, Err(Error::UnknownColumn(_, _))));
    }

    #[test]
    fn rejects_empty_pk() {
        let err = TableSchema::new("t", vec![ColumnDef::new("a", ColumnType::Int)], &[]);
        assert!(matches!(err, Err(Error::MissingPrimaryKey(_))));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Str),
            ],
            &["a"],
        );
        assert!(matches!(err, Err(Error::DuplicateColumn(_, _))));
    }

    #[test]
    fn type_checking_allows_int_widening_and_null() {
        let s = schema();
        s.check_row(&[Value::str("v"), Value::str("p"), Value::Int(3)])
            .unwrap();
        s.check_row(&[Value::Null, Value::str("p"), Value::Null])
            .unwrap();
        let err = s.check_row(&[Value::Int(1), Value::str("p"), Value::Double(1.0)]);
        assert!(matches!(err, Err(Error::TypeMismatch { .. })));
        let err = s.check_row(&[Value::str("v"), Value::str("p")]);
        assert!(matches!(err, Err(Error::ArityMismatch { .. })));
    }
}
