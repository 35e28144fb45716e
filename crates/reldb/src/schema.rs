//! Relation schemas: ordered, named, typed columns.

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name. Resolution is case-sensitive.
    pub name: String,
    /// Static type every non-null value must conform to.
    pub dtype: DataType,
    /// Whether `Null` is admissible.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }
}

/// An immutable, cheaply clonable (Arc'd) ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Arc<Vec<ColumnDef>>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> DbResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(DbError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema {
            columns: Arc::new(columns),
        })
    }

    /// Builder-style shorthand: `Schema::of(&[("id", Int), ("name", Text)])`.
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Schema::new(
            cols.iter()
                .map(|(n, t)| ColumnDef::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("Schema::of called with duplicate column names")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> Option<&ColumnDef> {
        self.columns.get(idx)
    }

    /// Position of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of `name`, as an error if absent.
    pub fn resolve(&self, name: &str) -> DbResult<usize> {
        self.index_of(name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_owned()))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validates a row against this schema: arity, types, nullability.
    pub fn check_row(&self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.arity() {
            return Err(DbError::ArityMismatch {
                expected: self.arity(),
                found: row.len(),
            });
        }
        for (v, c) in row.iter().zip(self.columns.iter()) {
            if v.is_null() {
                if !c.nullable {
                    return Err(DbError::ConstraintViolation {
                        constraint: format!("not_null({})", c.name),
                        detail: format!("column `{}` may not be NULL", c.name),
                    });
                }
            } else if !v.conforms_to(c.dtype) {
                return Err(DbError::TypeMismatch {
                    expected: format!("{} for column `{}`", c.dtype, c.name),
                    found: v.type_name().into(),
                });
            }
        }
        Ok(())
    }

    /// Schema of `self ⋈ other` with `prefix_l`/`prefix_r` used to
    /// disambiguate clashing names (`prefix.name`).
    pub fn join(&self, other: &Schema, prefix_l: &str, prefix_r: &str) -> DbResult<Schema> {
        let mut cols = Vec::with_capacity(self.arity() + other.arity());
        for c in self.columns.iter() {
            let clash = other.index_of(&c.name).is_some();
            let mut cd = c.clone();
            if clash {
                cd.name = format!("{prefix_l}.{}", c.name);
            }
            cols.push(cd);
        }
        for c in other.columns.iter() {
            let clash = self.index_of(&c.name).is_some();
            let mut cd = c.clone();
            if clash {
                cd.name = format!("{prefix_r}.{}", c.name);
            }
            cols.push(cd);
        }
        Schema::new(cols)
    }

    /// Projection of this schema onto the given column positions.
    pub fn project(&self, indices: &[usize]) -> DbResult<Schema> {
        let mut cols = Vec::with_capacity(indices.len());
        for &i in indices {
            let c = self
                .column(i)
                .ok_or_else(|| DbError::InvalidExpression(format!("column index {i} out of range")))?;
            cols.push(c.clone());
        }
        Schema::new(cols)
    }

    /// Returns a copy with one column renamed.
    pub fn rename(&self, from: &str, to: &str) -> DbResult<Schema> {
        let idx = self.resolve(from)?;
        let mut cols: Vec<ColumnDef> = self.columns.as_ref().clone();
        cols[idx].name = to.to_owned();
        Schema::new(cols)
    }

    /// True when both schemas have identical names and types in order
    /// (union-compatibility for set operators).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.name == b.name && a.dtype == b.dtype)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name, c.dtype)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer() -> Schema {
        // The paper's Table 1 schema.
        Schema::of(&[
            ("co_name", DataType::Text),
            ("address", DataType::Text),
            ("employees", DataType::Int),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = customer();
        assert_eq!(s.index_of("address"), Some(1));
        assert_eq!(s.index_of("ADDRESS"), None); // case-sensitive
        assert!(s.resolve("nope").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn rejects_duplicate_columns() {
        let r = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("a", DataType::Text),
        ]);
        assert_eq!(r.unwrap_err(), DbError::DuplicateColumn("a".into()));
    }

    #[test]
    fn row_validation() {
        let s = customer();
        assert!(s
            .check_row(&[Value::text("Fruit Co"), Value::text("12 Jay St"), Value::Int(4004)])
            .is_ok());
        // wrong arity
        assert!(matches!(
            s.check_row(&[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        // wrong type
        assert!(matches!(
            s.check_row(&[Value::Int(1), Value::text("x"), Value::Int(2)]),
            Err(DbError::TypeMismatch { .. })
        ));
        // null ok in nullable column
        assert!(s
            .check_row(&[Value::Null, Value::Null, Value::Null])
            .is_ok());
    }

    #[test]
    fn not_null_enforced() {
        let s = Schema::new(vec![ColumnDef::not_null("id", DataType::Int)]).unwrap();
        assert!(matches!(
            s.check_row(&[Value::Null]),
            Err(DbError::ConstraintViolation { .. })
        ));
    }

    #[test]
    fn join_disambiguates() {
        let a = Schema::of(&[("id", DataType::Int), ("name", DataType::Text)]);
        let b = Schema::of(&[("id", DataType::Int), ("price", DataType::Float)]);
        let j = a.join(&b, "l", "r").unwrap();
        assert_eq!(j.names(), vec!["l.id", "name", "r.id", "price"]);
    }

    #[test]
    fn projection_and_rename() {
        let s = customer();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.names(), vec!["employees", "co_name"]);
        let r = s.rename("co_name", "company").unwrap();
        assert_eq!(r.names(), vec!["company", "address", "employees"]);
        assert!(s.rename("bogus", "x").is_err());
        assert!(s.project(&[9]).is_err());
    }

    #[test]
    fn union_compatibility() {
        let a = customer();
        let b = customer();
        assert!(a.union_compatible(&b));
        let c = Schema::of(&[("co_name", DataType::Text)]);
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn display_format() {
        let s = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
        ])
        .unwrap();
        assert_eq!(s.to_string(), "(id: Int NOT NULL, name: Text)");
    }
}
