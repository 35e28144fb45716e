//! Materialized relations: a schema plus a bag of rows.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A row is an ordered vector of values matching some schema.
pub type Row = Vec<Value>;

/// A materialized relation (bag semantics — duplicates allowed unless an
/// operator such as `distinct` removes them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Row>,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Builds a relation, validating every row against the schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> DbResult<Self> {
        for r in &rows {
            schema.check_row(r)?;
        }
        Ok(Relation { schema, rows })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row after validation.
    pub fn push(&mut self, row: Row) -> DbResult<()> {
        self.schema.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Consumes the relation, yielding its rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// The value at `(row, column-name)`.
    pub fn value_at(&self, row: usize, column: &str) -> DbResult<&Value> {
        let c = self.schema.resolve(column)?;
        self.rows
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| DbError::InvalidExpression(format!("row index {row} out of range")))
    }

    /// Iterator over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Renders the relation as an ASCII table (used by the paper-exhibit
    /// regenerator to print Table 1 exactly as the paper shows it).
    pub fn to_ascii_table(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii_table())
    }
}

impl IntoIterator for Relation {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn table1() -> Relation {
        // Exactly the paper's Table 1.
        let schema = Schema::of(&[
            ("co_name", DataType::Text),
            ("address", DataType::Text),
            ("employees", DataType::Int),
        ]);
        Relation::new(
            schema,
            vec![
                vec![Value::text("Fruit Co"), Value::text("12 Jay St"), Value::Int(4004)],
                vec![Value::text("Nut Co"), Value::text("62 Lois Av"), Value::Int(700)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Schema::of(&[("n", DataType::Int)]);
        assert!(Relation::new(schema.clone(), vec![vec![Value::text("x")]]).is_err());
        assert!(Relation::new(schema, vec![vec![Value::Int(1)]]).is_ok());
    }

    #[test]
    fn push_and_access() {
        let mut r = table1();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.value_at(1, "address").unwrap(),
            &Value::text("62 Lois Av")
        );
        r.push(vec![Value::text("Bolt Co"), Value::Null, Value::Int(12)])
            .unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.push(vec![Value::Int(9)]).is_err());
        assert!(r.value_at(0, "bogus").is_err());
        assert!(r.value_at(99, "address").is_err());
    }

    #[test]
    fn ascii_table_contains_all_cells() {
        let t = table1().to_ascii_table();
        for needle in ["co_name", "Fruit Co", "12 Jay St", "4004", "Nut Co", "700"] {
            assert!(t.contains(needle), "missing {needle} in\n{t}");
        }
    }

    #[test]
    fn iteration() {
        let r = table1();
        assert_eq!(r.iter().count(), 2);
        let owned: Vec<Row> = r.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        assert_eq!((&r).into_iter().count(), 2);
    }
}
