//! A mutable table: rows plus constraints.

use crate::constraint::Constraint;
use crate::error::{DbError, DbResult};
use crate::relation::Row;
use crate::schema::Schema;

/// A table in the catalog.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    constraints: Vec<Constraint>,
}

impl Table {
    /// New empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Current rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Attached constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint after validating it against the schema and all
    /// existing rows (so a constraint can never be added in a violated
    /// state — "quality by design").
    pub fn add_constraint(&mut self, c: Constraint) -> DbResult<()> {
        c.validate_against(&self.schema)?;
        for (pos, row) in self.rows.iter().enumerate() {
            c.check_row(&self.schema, row)?;
            c.check_key_against(&self.schema, row, &self.rows, Some(pos))?;
        }
        self.constraints.push(c);
        Ok(())
    }

    /// Validates a row against schema and all row-local constraints
    /// without modifying the table.
    pub fn validate_insert(&self, row: &Row) -> DbResult<()> {
        self.schema.check_row(row)?;
        for c in &self.constraints {
            c.check_row(&self.schema, row)?;
            c.check_key_against(&self.schema, row, &self.rows, None)?;
        }
        Ok(())
    }

    /// Inserts a row, enforcing constraints. Returns the new row's
    /// position.
    pub fn insert(&mut self, row: Row) -> DbResult<usize> {
        self.validate_insert(&row)?;
        let pos = self.rows.len();
        self.rows.push(row);
        Ok(pos)
    }

    /// Replaces the row at `pos`, enforcing constraints.
    pub fn update(&mut self, pos: usize, row: Row) -> DbResult<Row> {
        if pos >= self.rows.len() {
            return Err(DbError::InvalidExpression(format!(
                "row position {pos} out of range in `{}`",
                self.name
            )));
        }
        self.schema.check_row(&row)?;
        for c in &self.constraints {
            c.check_row(&self.schema, &row)?;
            c.check_key_against(&self.schema, &row, &self.rows, Some(pos))?;
        }
        Ok(std::mem::replace(&mut self.rows[pos], row))
    }

    /// Deletes the row at `pos` (swap-remove: the last row moves into
    /// `pos`). Returns the removed row.
    pub fn delete(&mut self, pos: usize) -> DbResult<Row> {
        if pos >= self.rows.len() {
            return Err(DbError::InvalidExpression(format!(
                "row position {pos} out of range in `{}`",
                self.name
            )));
        }
        Ok(self.rows.swap_remove(pos))
    }

    /// Bulk-loads a batch of rows, validating each. On any validation
    /// failure the table is restored to its pre-call state and the error
    /// returned. Returns the number of rows loaded.
    pub fn bulk_load(&mut self, batch: Vec<Row>) -> DbResult<usize> {
        let baseline = self.rows.len();
        for row in batch {
            // validate_insert checks keys against rows already appended
            // this batch too, so intra-batch duplicates fail.
            if let Err(e) = self.validate_insert(&row) {
                self.rows.truncate(baseline);
                return Err(e);
            }
            self.rows.push(row);
        }
        Ok(self.rows.len() - baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::value::{DataType, Value};

    fn make_table() -> Table {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("employees", DataType::Int),
        ]);
        let mut t = Table::new("customer", schema);
        t.add_constraint(Constraint::PrimaryKey {
            name: "pk_customer".into(),
            columns: vec!["id".into()],
        })
        .unwrap();
        t.add_constraint(Constraint::Check {
            name: "emp_nonneg".into(),
            predicate: Expr::col("employees").ge(Expr::lit(0i64)),
        })
        .unwrap();
        t
    }

    #[test]
    fn insert_respects_constraints() {
        let mut t = make_table();
        t.insert(vec![Value::Int(1), Value::text("Fruit Co"), Value::Int(4004)])
            .unwrap();
        // duplicate PK
        let e = t
            .insert(vec![Value::Int(1), Value::text("Dup"), Value::Int(3)])
            .unwrap_err();
        assert!(matches!(e, DbError::ConstraintViolation { .. }));
        // check violation
        assert!(t
            .insert(vec![Value::Int(2), Value::text("Bad"), Value::Int(-1)])
            .is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_constraint_enforced() {
        let mut t = make_table();
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Int(1)])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::text("b"), Value::Int(2)])
            .unwrap();
        // updating row 1 to clash with row 0's PK fails
        assert!(t
            .update(1, vec![Value::Int(1), Value::text("b"), Value::Int(2)])
            .is_err());
        // updating a row to keep its own key succeeds
        assert!(t
            .update(1, vec![Value::Int(2), Value::text("b2"), Value::Int(2)])
            .is_ok());
    }

    #[test]
    fn add_constraint_checks_existing_rows() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Int(1)]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        // adding PK over duplicated data fails
        let e = t.add_constraint(Constraint::PrimaryKey {
            name: "pk".into(),
            columns: vec!["id".into()],
        });
        assert!(e.is_err());
        assert!(t.constraints().is_empty());
    }

    #[test]
    fn out_of_range_positions() {
        let mut t = make_table();
        assert!(t.update(0, vec![Value::Int(1), Value::Null, Value::Null]).is_err());
        assert!(t.delete(0).is_err());
    }

    #[test]
    fn bulk_load_rolls_back_on_bad_row() {
        let mut t = make_table();
        t.insert(vec![Value::Int(0), Value::text("seed"), Value::Int(1)])
            .unwrap();
        let batch = vec![
            vec![Value::Int(1), Value::text("ok"), Value::Int(1)],
            vec![Value::Int(0), Value::text("dup pk"), Value::Int(1)], // violates PK
        ];
        assert!(t.bulk_load(batch).is_err());
        assert_eq!(t.len(), 1); // batch fully rolled back
        assert_eq!(t.rows()[0][1], Value::text("seed"));
        // intra-batch duplicates also fail atomically
        let batch = vec![
            vec![Value::Int(2), Value::text("x"), Value::Int(1)],
            vec![Value::Int(2), Value::text("y"), Value::Int(1)],
        ];
        assert!(t.bulk_load(batch).is_err());
        assert_eq!(t.len(), 1);
    }
}
