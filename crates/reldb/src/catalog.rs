//! The catalog: a named collection of tables with cross-table (foreign
//! key) integrity.

use crate::constraint::ForeignKey;
use crate::error::{DbError, DbResult};
use crate::relation::Row;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;

/// A database: tables + foreign keys.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    foreign_keys: Vec<ForeignKey>,
}

impl Database {
    /// New empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<&mut Table> {
        if self.tables.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_owned()));
        }
        self.tables
            .insert(name.to_owned(), Table::new(name, schema));
        Ok(self.tables.get_mut(name).expect("just inserted"))
    }

    /// Drops a table; fails if any foreign key references it.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        if !self.tables.contains_key(name) {
            return Err(DbError::UnknownTable(name.to_owned()));
        }
        if let Some(fk) = self
            .foreign_keys
            .iter()
            .find(|fk| fk.ref_table == name || fk.table == name)
        {
            return Err(DbError::ConstraintViolation {
                constraint: fk.name.clone(),
                detail: format!("table `{name}` participates in a foreign key"),
            });
        }
        self.tables.remove(name);
        Ok(())
    }

    /// Immutable table lookup.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Mutable table lookup. Bypasses FK enforcement — callers
    /// should prefer [`Database::insert`]/[`Database::update`]/
    /// [`Database::delete`] for data changes.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Registers a foreign key, validating it against existing data.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> DbResult<()> {
        let child = self.table(&fk.table)?;
        let parent = self.table(&fk.ref_table)?;
        for row in child.rows() {
            fk.check_row(child.schema(), row, parent.schema(), parent.rows())?;
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// Registered foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Checks every foreign key whose child is `table` against `row`.
    fn check_fks_for_insert(&self, table: &str, row: &Row) -> DbResult<()> {
        let child = self.table(table)?;
        for fk in self.foreign_keys.iter().filter(|fk| fk.table == table) {
            let parent = self.table(&fk.ref_table)?;
            fk.check_row(child.schema(), row, parent.schema(), parent.rows())?;
        }
        Ok(())
    }

    /// Inserts a row through full integrity enforcement. Returns position.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<usize> {
        self.check_fks_for_insert(table, &row)?;
        self.table_mut(table)?.insert(row)
    }

    /// Updates `table[pos]` through full integrity enforcement.
    pub fn update(&mut self, table: &str, pos: usize, row: Row) -> DbResult<()> {
        self.check_fks_for_insert(table, &row)?;
        // RESTRICT: if the old row is referenced and its key changes,
        // reject.
        let old = self
            .table(table)?
            .rows()
            .get(pos)
            .cloned()
            .ok_or_else(|| DbError::InvalidExpression(format!("row {pos} out of range")))?;
        self.check_no_orphans(table, &old, Some(&row))?;
        self.table_mut(table)?.update(pos, row)?;
        Ok(())
    }

    /// Deletes `table[pos]` with RESTRICT semantics on referencing rows.
    pub fn delete(&mut self, table: &str, pos: usize) -> DbResult<Row> {
        let old = self
            .table(table)?
            .rows()
            .get(pos)
            .cloned()
            .ok_or_else(|| DbError::InvalidExpression(format!("row {pos} out of range")))?;
        self.check_no_orphans(table, &old, None)?;
        self.table_mut(table)?.delete(pos)
    }

    /// Fails if removing/rekeying `old` in parent `table` would orphan
    /// child rows. `new` is the replacement row for updates.
    fn check_no_orphans(&self, table: &str, old: &Row, new: Option<&Row>) -> DbResult<()> {
        for fk in self.foreign_keys.iter().filter(|fk| fk.ref_table == table) {
            let parent = self.table(table)?;
            // If the referenced key columns are unchanged, updates are safe.
            if let Some(new_row) = new {
                let pi: Vec<usize> = fk
                    .ref_columns
                    .iter()
                    .map(|c| parent.schema().resolve(c))
                    .collect::<DbResult<_>>()?;
                if pi.iter().all(|&i| old[i] == new_row[i]) {
                    continue;
                }
            }
            let child = self.table(&fk.table)?;
            let kids = fk.children_of(child.schema(), child.rows(), parent.schema(), old)?;
            if !kids.is_empty() {
                return Err(DbError::ConstraintViolation {
                    constraint: fk.name.clone(),
                    detail: format!(
                        "{} row(s) in `{}` reference this key (RESTRICT)",
                        kids.len(),
                        fk.table
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        db.create_table(
            "company",
            Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
        )
        .unwrap();
        db.create_table(
            "trade",
            Schema::of(&[
                ("id", DataType::Int),
                ("ticker", DataType::Text),
                ("qty", DataType::Int),
            ]),
        )
        .unwrap();
        db.insert("company", vec![Value::text("FRT"), Value::Float(10.0)])
            .unwrap();
        db.insert("company", vec![Value::text("NUT"), Value::Float(20.0)])
            .unwrap();
        db.add_foreign_key(ForeignKey {
            name: "fk_trade_company".into(),
            table: "trade".into(),
            columns: vec!["ticker".into()],
            ref_table: "company".into(),
            ref_columns: vec!["ticker".into()],
        })
        .unwrap();
        db
    }

    #[test]
    fn create_and_drop() {
        let mut db = Database::new();
        db.create_table("t", Schema::of(&[("x", DataType::Int)]))
            .unwrap();
        assert!(db
            .create_table("t", Schema::of(&[("x", DataType::Int)]))
            .is_err());
        assert!(db.drop_table("t").is_ok());
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = setup();
        assert!(db
            .insert("trade", vec![Value::Int(1), Value::text("FRT"), Value::Int(10)])
            .is_ok());
        let e = db
            .insert("trade", vec![Value::Int(2), Value::text("ZZZ"), Value::Int(10)])
            .unwrap_err();
        assert!(matches!(e, DbError::ConstraintViolation { .. }));
        // NULL FK passes
        assert!(db
            .insert("trade", vec![Value::Int(3), Value::Null, Value::Int(10)])
            .is_ok());
    }

    #[test]
    fn fk_restricts_parent_delete_and_rekey() {
        let mut db = setup();
        db.insert("trade", vec![Value::Int(1), Value::text("FRT"), Value::Int(10)])
            .unwrap();
        // deleting referenced parent fails
        assert!(db.delete("company", 0).is_err());
        // rekeying referenced parent fails
        assert!(db
            .update("company", 0, vec![Value::text("FRT2"), Value::Float(11.0)])
            .is_err());
        // updating without key change is fine
        assert!(db
            .update("company", 0, vec![Value::text("FRT"), Value::Float(11.0)])
            .is_ok());
        // unreferenced parent can be deleted
        assert!(db.delete("company", 1).is_ok());
    }

    #[test]
    fn drop_table_blocked_by_fk() {
        let mut db = setup();
        assert!(db.drop_table("company").is_err());
        assert!(db.drop_table("trade").is_err());
    }

    #[test]
    fn add_fk_validates_existing_rows() {
        let mut db = Database::new();
        db.create_table("p", Schema::of(&[("id", DataType::Int)]))
            .unwrap();
        db.create_table("c", Schema::of(&[("pid", DataType::Int)]))
            .unwrap();
        db.insert("c", vec![Value::Int(7)]).unwrap();
        let e = db.add_foreign_key(ForeignKey {
            name: "fk".into(),
            table: "c".into(),
            columns: vec!["pid".into()],
            ref_table: "p".into(),
            ref_columns: vec!["id".into()],
        });
        assert!(e.is_err());
    }
}
