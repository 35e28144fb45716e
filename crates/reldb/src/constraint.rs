//! Integrity constraints.
//!
//! The paper motivates these directly: "research has been conducted on how
//! to prevent data inconsistencies (integrity constraints and normalization
//! theory)" — and Step 3's `✓ inspection` indicator turns into "front-end
//! rules to enforce domain or update constraints". This module supplies
//! those front-end rules for the base engine; the `dq-admin` crate layers
//! inspection *procedures* on top.

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;

/// A declarative constraint attached to a table.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// Named primary key over a set of columns: unique and NOT NULL.
    PrimaryKey {
        /// Constraint name (for error messages / audit).
        name: String,
        /// Key column names.
        columns: Vec<String>,
    },
    /// Uniqueness over columns (NULLs exempt, SQL-style).
    Unique {
        /// Constraint name.
        name: String,
        /// Key column names.
        columns: Vec<String>,
    },
    /// Row-level boolean expression that must not evaluate to `false`.
    Check {
        /// Constraint name.
        name: String,
        /// Predicate; `NULL` results are treated as pass (SQL semantics).
        predicate: Expr,
    },
    /// Column value must be within an explicit domain (enumerated set) —
    /// e.g. the `collection_method` indicator limited to
    /// {"over the phone", "from an information service"}.
    Domain {
        /// Constraint name.
        name: String,
        /// Constrained column.
        column: String,
        /// Admissible values (NULL always admissible; nullability is
        /// governed separately).
        allowed: Vec<Value>,
    },
    /// Column value must lie in an inclusive range.
    Range {
        /// Constraint name.
        name: String,
        /// Constrained column.
        column: String,
        /// Lower bound (inclusive), if any.
        min: Option<Value>,
        /// Upper bound (inclusive), if any.
        max: Option<Value>,
    },
}

impl Constraint {
    /// The constraint's name.
    pub fn name(&self) -> &str {
        match self {
            Constraint::PrimaryKey { name, .. }
            | Constraint::Unique { name, .. }
            | Constraint::Check { name, .. }
            | Constraint::Domain { name, .. }
            | Constraint::Range { name, .. } => name,
        }
    }

    /// Validates the constraint definition against a schema
    /// (columns exist etc.).
    pub fn validate_against(&self, schema: &Schema) -> DbResult<()> {
        match self {
            Constraint::PrimaryKey { columns, .. } | Constraint::Unique { columns, .. } => {
                if columns.is_empty() {
                    return Err(DbError::InvalidExpression(format!(
                        "constraint `{}` has no columns",
                        self.name()
                    )));
                }
                for c in columns {
                    schema.resolve(c)?;
                }
                Ok(())
            }
            Constraint::Check { predicate, .. } => {
                for c in predicate.referenced_columns() {
                    schema.resolve(c)?;
                }
                Ok(())
            }
            Constraint::Domain { column, .. } | Constraint::Range { column, .. } => {
                schema.resolve(column)?;
                Ok(())
            }
        }
    }

    /// Checks a single row in isolation (Check/Domain/Range).
    /// Key constraints need table context; see [`Constraint::check_key_against`].
    pub fn check_row(&self, schema: &Schema, row: &Row) -> DbResult<()> {
        match self {
            Constraint::PrimaryKey { columns, .. } => {
                // NOT NULL half of PK; uniqueness is checked with context.
                for c in columns {
                    let i = schema.resolve(c)?;
                    if row[i].is_null() {
                        return Err(DbError::ConstraintViolation {
                            constraint: self.name().to_owned(),
                            detail: format!("primary-key column `{c}` is NULL"),
                        });
                    }
                }
                Ok(())
            }
            Constraint::Unique { .. } => Ok(()),
            Constraint::Check { predicate, name } => {
                match predicate.eval(schema, row)? {
                    Value::Bool(false) => Err(DbError::ConstraintViolation {
                        constraint: name.clone(),
                        detail: "check predicate evaluated to false".into(),
                    }),
                    // NULL or true passes; non-bool is a definition error.
                    Value::Bool(true) | Value::Null => Ok(()),
                    other => Err(DbError::InvalidExpression(format!(
                        "check `{name}` returned {}, expected Bool",
                        other.type_name()
                    ))),
                }
            }
            Constraint::Domain {
                name,
                column,
                allowed,
            } => {
                let i = schema.resolve(column)?;
                if row[i].is_null() || allowed.contains(&row[i]) {
                    Ok(())
                } else {
                    Err(DbError::ConstraintViolation {
                        constraint: name.clone(),
                        detail: format!("value `{}` not in domain of `{column}`", row[i]),
                    })
                }
            }
            Constraint::Range {
                name,
                column,
                min,
                max,
            } => {
                let i = schema.resolve(column)?;
                let v = &row[i];
                if v.is_null() {
                    return Ok(());
                }
                if let Some(lo) = min {
                    if v < lo {
                        return Err(DbError::ConstraintViolation {
                            constraint: name.clone(),
                            detail: format!("`{v}` below minimum `{lo}` for `{column}`"),
                        });
                    }
                }
                if let Some(hi) = max {
                    if v > hi {
                        return Err(DbError::ConstraintViolation {
                            constraint: name.clone(),
                            detail: format!("`{v}` above maximum `{hi}` for `{column}`"),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// For key constraints: checks the candidate row's key against the
    /// existing rows (excluding `skip`, used when updating a row in place).
    pub fn check_key_against(
        &self,
        schema: &Schema,
        row: &Row,
        existing: &[Row],
        skip: Option<usize>,
    ) -> DbResult<()> {
        let columns = match self {
            Constraint::PrimaryKey { columns, .. } => columns,
            Constraint::Unique { columns, .. } => columns,
            _ => return Ok(()),
        };
        let idx: Vec<usize> = columns
            .iter()
            .map(|c| schema.resolve(c))
            .collect::<DbResult<_>>()?;
        // SQL-style: UNIQUE ignores rows with any NULL key component.
        let any_null = idx.iter().any(|&i| row[i].is_null());
        if any_null {
            return if matches!(self, Constraint::PrimaryKey { .. }) {
                Err(DbError::ConstraintViolation {
                    constraint: self.name().to_owned(),
                    detail: "primary-key component is NULL".into(),
                })
            } else {
                Ok(())
            };
        }
        for (pos, other) in existing.iter().enumerate() {
            if Some(pos) == skip {
                continue;
            }
            if idx.iter().all(|&i| !other[i].is_null() && other[i] == row[i]) {
                return Err(DbError::ConstraintViolation {
                    constraint: self.name().to_owned(),
                    detail: format!(
                        "duplicate key ({})",
                        idx.iter()
                            .map(|&i| row[i].to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A foreign-key constraint referencing another table; enforced by the
/// catalog because it needs access to two tables.
#[derive(Debug, Clone)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// Referencing table.
    pub table: String,
    /// Referencing columns.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced columns (typically that table's PK).
    pub ref_columns: Vec<String>,
}

impl ForeignKey {
    /// Checks one referencing row against the referenced rows.
    /// Rows with any NULL FK component pass (SQL MATCH SIMPLE).
    pub fn check_row(
        &self,
        child_schema: &Schema,
        row: &Row,
        parent_schema: &Schema,
        parent_rows: &[Row],
    ) -> DbResult<()> {
        let ci: Vec<usize> = self
            .columns
            .iter()
            .map(|c| child_schema.resolve(c))
            .collect::<DbResult<_>>()?;
        let pi: Vec<usize> = self
            .ref_columns
            .iter()
            .map(|c| parent_schema.resolve(c))
            .collect::<DbResult<_>>()?;
        if ci.len() != pi.len() {
            return Err(DbError::InvalidExpression(format!(
                "foreign key `{}` column count mismatch",
                self.name
            )));
        }
        if ci.iter().any(|&i| row[i].is_null()) {
            return Ok(());
        }
        let key: Vec<&Value> = ci.iter().map(|&i| &row[i]).collect();
        let found = parent_rows
            .iter()
            .any(|p| pi.iter().zip(&key).all(|(&i, k)| &&p[i] == k));
        if found {
            Ok(())
        } else {
            Err(DbError::ConstraintViolation {
                constraint: self.name.clone(),
                detail: format!(
                    "no row in `{}` matches key ({})",
                    self.ref_table,
                    key.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
                ),
            })
        }
    }

    /// Returns positions in the parent that are referenced; used to block
    /// deletes that would orphan children (RESTRICT semantics).
    pub fn children_of(
        &self,
        child_schema: &Schema,
        child_rows: &[Row],
        parent_schema: &Schema,
        parent_row: &Row,
    ) -> DbResult<Vec<usize>> {
        let ci: Vec<usize> = self
            .columns
            .iter()
            .map(|c| child_schema.resolve(c))
            .collect::<DbResult<_>>()?;
        let pi: Vec<usize> = self
            .ref_columns
            .iter()
            .map(|c| parent_schema.resolve(c))
            .collect::<DbResult<_>>()?;
        let key: Vec<&Value> = pi.iter().map(|&i| &parent_row[i]).collect();
        let mut out = Vec::new();
        for (pos, ch) in child_rows.iter().enumerate() {
            let matches = ci
                .iter()
                .zip(&key)
                .all(|(&i, k)| !ch[i].is_null() && &&ch[i] == k);
            if matches {
                out.push(pos);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("employees", DataType::Int),
        ])
    }

    #[test]
    fn pk_rejects_null_and_duplicates() {
        let pk = Constraint::PrimaryKey {
            name: "pk".into(),
            columns: vec!["id".into()],
        };
        let s = schema();
        let existing = vec![vec![Value::Int(1), Value::text("a"), Value::Int(10)]];
        // NULL key
        let row = vec![Value::Null, Value::text("b"), Value::Int(5)];
        assert!(pk.check_row(&s, &row).is_err());
        assert!(pk.check_key_against(&s, &row, &existing, None).is_err());
        // duplicate
        let row = vec![Value::Int(1), Value::text("b"), Value::Int(5)];
        assert!(pk.check_key_against(&s, &row, &existing, None).is_err());
        // fresh key
        let row = vec![Value::Int(2), Value::text("b"), Value::Int(5)];
        assert!(pk.check_key_against(&s, &row, &existing, None).is_ok());
        // updating the row itself (skip) is fine
        let row = vec![Value::Int(1), Value::text("a'"), Value::Int(10)];
        assert!(pk.check_key_against(&s, &row, &existing, Some(0)).is_ok());
    }

    #[test]
    fn unique_allows_nulls() {
        let u = Constraint::Unique {
            name: "u".into(),
            columns: vec!["name".into()],
        };
        let s = schema();
        let existing = vec![vec![Value::Int(1), Value::Null, Value::Int(10)]];
        let row = vec![Value::Int(2), Value::Null, Value::Int(5)];
        assert!(u.check_key_against(&s, &row, &existing, None).is_ok());
    }

    #[test]
    fn check_constraint_three_valued() {
        let c = Constraint::Check {
            name: "positive".into(),
            predicate: Expr::col("employees").gt(Expr::lit(0i64)),
        };
        let s = schema();
        assert!(c
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Int(5)])
            .is_ok());
        assert!(c
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Int(-5)])
            .is_err());
        // NULL employees → unknown → passes (SQL semantics)
        assert!(c
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Null])
            .is_ok());
    }

    #[test]
    fn domain_constraint() {
        let d = Constraint::Domain {
            name: "method".into(),
            column: "name".into(),
            allowed: vec![Value::text("over the phone"), Value::text("info service")],
        };
        let s = schema();
        assert!(d
            .check_row(&s, &vec![Value::Int(1), Value::text("over the phone"), Value::Int(1)])
            .is_ok());
        assert!(d
            .check_row(&s, &vec![Value::Int(1), Value::text("telepathy"), Value::Int(1)])
            .is_err());
        assert!(d
            .check_row(&s, &vec![Value::Int(1), Value::Null, Value::Int(1)])
            .is_ok());
    }

    #[test]
    fn range_constraint() {
        let r = Constraint::Range {
            name: "emp_range".into(),
            column: "employees".into(),
            min: Some(Value::Int(0)),
            max: Some(Value::Int(1_000_000)),
        };
        let s = schema();
        assert!(r
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Int(700)])
            .is_ok());
        assert!(r
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Int(-1)])
            .is_err());
        assert!(r
            .check_row(&s, &vec![Value::Int(1), Value::text("a"), Value::Int(2_000_000)])
            .is_err());
    }

    #[test]
    fn validate_against_schema() {
        let s = schema();
        let ok = Constraint::Unique {
            name: "u".into(),
            columns: vec!["id".into()],
        };
        assert!(ok.validate_against(&s).is_ok());
        let bad = Constraint::Unique {
            name: "u".into(),
            columns: vec!["nope".into()],
        };
        assert!(bad.validate_against(&s).is_err());
        let empty = Constraint::PrimaryKey {
            name: "pk".into(),
            columns: vec![],
        };
        assert!(empty.validate_against(&s).is_err());
        let badcheck = Constraint::Check {
            name: "c".into(),
            predicate: Expr::col("ghost").gt(Expr::lit(1i64)),
        };
        assert!(badcheck.validate_against(&s).is_err());
    }

    #[test]
    fn foreign_key_matching() {
        let parent = Schema::of(&[("id", DataType::Int)]);
        let child = schema();
        let fk = ForeignKey {
            name: "fk".into(),
            table: "child".into(),
            columns: vec!["id".into()],
            ref_table: "parent".into(),
            ref_columns: vec!["id".into()],
        };
        let parents = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let ok = vec![Value::Int(2), Value::text("x"), Value::Int(1)];
        assert!(fk.check_row(&child, &ok, &parent, &parents).is_ok());
        let orphan = vec![Value::Int(9), Value::text("x"), Value::Int(1)];
        assert!(fk.check_row(&child, &orphan, &parent, &parents).is_err());
        // NULL FK passes
        let nullfk = vec![Value::Null, Value::text("x"), Value::Int(1)];
        assert!(fk.check_row(&child, &nullfk, &parent, &parents).is_ok());
        // children_of finds referencing rows
        let kids = vec![ok.clone(), orphan.clone()];
        let hits = fk
            .children_of(&child, &kids, &parent, &vec![Value::Int(2)])
            .unwrap();
        assert_eq!(hits, vec![0]);
    }
}
