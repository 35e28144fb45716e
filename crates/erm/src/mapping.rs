//! ER → relational mapping (Teorey's methodology, the paper's ref \[23\]).
//!
//! * Each entity maps to a table whose primary key is its key attributes.
//! * A 1:N relationship adds a foreign key to the N-side table (plus any
//!   relationship attributes).
//! * An M:N relationship maps to a junction table whose key is the union
//!   of both participants' keys (plus relationship attributes) — the
//!   paper's `trade` becomes exactly such a table.
//! * 1:1 relationships put the foreign key on the second participant.
//! * A foreign-key column is `{role}_{key}`, or `{entity}_{key}` when the
//!   participant has no role.

use crate::model::{Cardinality, EntityType, ErSchema, Participant};
use relstore::index::key_of;
use relstore::{ColumnDef, DataType, DbError, DbResult, HashIndex, Relation, Row, Schema, Value};

/// One mapped table: its schema and primary-key columns.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedTable {
    /// Table name (the entity's or the relationship's).
    pub name: String,
    /// Columns; key columns are NOT NULL.
    pub schema: Schema,
    /// Primary-key columns, checked as constraint `pk_<name>`.
    pub primary_key: Vec<String>,
}

/// A foreign key: `table(columns)` references `ref_table(ref_columns)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// Referencing table.
    pub table: String,
    /// Referencing columns.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced columns (that table's primary key).
    pub ref_columns: Vec<String>,
}

/// What the mapping derives: tables in mapping order (entities, then one
/// junction table per M:N relationship) and foreign keys.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalSchema {
    /// The tables.
    pub tables: Vec<MappedTable>,
    /// The foreign keys, in relationship order.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelationalSchema {
    /// Checks `data`: one relation per mapped table, by name, with the
    /// mapped column names and types; then, table by table in mapping
    /// order, its primary key (no NULL component, no repeated key) and its
    /// foreign keys (MATCH SIMPLE: a key with a NULL component passes,
    /// any other must occur in the parent), each to its first bad row.
    pub fn check(&self, data: &[(&str, &Relation)]) -> DbResult<()> {
        let relation = |name: &str| match data.iter().find(|(n, _)| *n == name) {
            Some((_, r)) => Ok(*r),
            None => Err(DbError::UnknownTable(name.to_owned())),
        };
        let shape = |s: &Schema| -> Vec<(String, DataType)> {
            s.columns()
                .iter()
                .map(|c| (c.name.clone(), c.dtype))
                .collect()
        };
        for t in &self.tables {
            let found = shape(relation(&t.name)?.schema());
            if found != shape(&t.schema) {
                return Err(DbError::TypeMismatch {
                    expected: format!("columns {:?} for `{}`", shape(&t.schema), t.name),
                    found: format!("{found:?}"),
                });
            }
        }
        for t in &self.tables {
            let rel = relation(&t.name)?;
            check_primary_key(t, rel)?;
            for fk in self.foreign_keys.iter().filter(|fk| fk.table == t.name) {
                check_foreign_key(fk, rel, relation(&fk.ref_table)?)?;
            }
        }
        Ok(())
    }
}

fn ordinals(schema: &Schema, columns: &[String]) -> DbResult<Vec<usize>> {
    columns.iter().map(|c| schema.resolve(c)).collect()
}

fn violation(constraint: String, detail: &str, key: &Row) -> DbError {
    let key: Vec<String> = key.iter().map(Value::to_string).collect();
    let detail = format!("{detail} ({})", key.join(", "));
    DbError::ConstraintViolation { constraint, detail }
}

fn check_primary_key(t: &MappedTable, rel: &Relation) -> DbResult<()> {
    let cols = ordinals(rel.schema(), &t.primary_key)?;
    let mut seen = HashIndex::new(cols.clone());
    for (pos, row) in rel.iter().enumerate() {
        let key = key_of(row, &cols);
        if let Some(i) = key.iter().position(Value::is_null) {
            return Err(DbError::ConstraintViolation {
                constraint: format!("pk_{}", t.name),
                detail: format!("primary-key column `{}` is NULL", t.primary_key[i]),
            });
        }
        if !seen.get(&key).is_empty() {
            return Err(violation(format!("pk_{}", t.name), "duplicate key", &key));
        }
        seen.insert(row, pos);
    }
    Ok(())
}

fn check_foreign_key(fk: &ForeignKey, child: &Relation, parent: &Relation) -> DbResult<()> {
    let cols = ordinals(child.schema(), &fk.columns)?;
    let mut parent_keys = HashIndex::new(ordinals(parent.schema(), &fk.ref_columns)?);
    parent_keys.rebuild(parent.rows());
    for key in child.iter().map(|row| key_of(row, &cols)) {
        if !key.iter().any(Value::is_null) && parent_keys.get(&key).is_empty() {
            let detail = format!("no row in `{}` matches key", fk.ref_table);
            return Err(violation(fk.name.clone(), &detail, &key));
        }
    }
    Ok(())
}

/// The nullable columns by which `table` references participant `p`, one
/// per key of its entity, and that foreign key.
fn reference(table: &str, p: &Participant, ent: &EntityType) -> (Vec<ColumnDef>, ForeignKey) {
    let prefix = p.role.as_deref().unwrap_or(&ent.name);
    let keys = ent.key_names();
    let dtype = |k: &str| ent.attribute(k).expect("key attribute").dtype;
    let cols: Vec<ColumnDef> = keys
        .iter()
        .map(|k| ColumnDef::new(format!("{prefix}_{k}"), dtype(k)))
        .collect();
    let fk = ForeignKey {
        name: format!("fk_{table}_{prefix}"),
        table: table.to_owned(),
        columns: cols.iter().map(|c| c.name.clone()).collect(),
        ref_table: ent.name.clone(),
        ref_columns: keys.iter().map(|k| k.to_string()).collect(),
    };
    (cols, fk)
}

/// Maps an ER schema to its tables, keys and foreign keys.
pub fn to_relational(er: &ErSchema) -> DbResult<RelationalSchema> {
    er.validate()?;
    let entity = |p: &Participant| er.entity(&p.entity).expect("validated participant");
    let mut tables: Vec<MappedTable> = Vec::new();
    for e in &er.entities {
        let cols = e.attributes.iter().map(|a| ColumnDef {
            nullable: !a.is_key,
            ..ColumnDef::new(a.name.clone(), a.dtype)
        });
        tables.push(MappedTable {
            name: e.name.clone(),
            schema: Schema::new(cols.collect())?,
            primary_key: e.key_names().iter().map(|k| k.to_string()).collect(),
        });
    }
    let mut foreign_keys: Vec<ForeignKey> = Vec::new();
    for r in &er.relationships {
        let attributes = r
            .attributes
            .iter()
            .map(|a| ColumnDef::new(a.name.clone(), a.dtype));
        if r.is_many_to_many() {
            // Junction table: both participants' keys (NOT NULL), then the
            // relationship attributes. Its key adds the key attributes to
            // the participants' keys: a trade is who, what, and when.
            let mut cols: Vec<ColumnDef> = Vec::new();
            for p in &r.participants {
                let (fk_cols, fk) = reference(&r.name, p, entity(p));
                cols.extend(fk_cols.into_iter().map(|c| ColumnDef {
                    nullable: false,
                    ..c
                }));
                foreign_keys.push(fk);
            }
            let mut pk: Vec<String> = cols.iter().map(|c| c.name.clone()).collect();
            pk.extend(
                r.attributes
                    .iter()
                    .filter(|a| a.is_key)
                    .map(|a| a.name.clone()),
            );
            cols.extend(attributes);
            tables.push(MappedTable {
                name: r.name.clone(),
                schema: Schema::new(cols)?,
                primary_key: pk,
            });
        } else {
            // 1:N (or 1:1): the FK columns and the relationship attributes
            // are appended to the Many side (or the right for 1:1).
            let (one, many) = match &r.participants {
                [a, b] if a.cardinality == Cardinality::Many => (b, a),
                [a, b] => (a, b),
            };
            let (fk_cols, fk) = reference(&many.entity, one, entity(one));
            let table = tables
                .iter_mut()
                .find(|t| t.name == many.entity)
                .expect("entity table");
            let mut cols = table.schema.columns().to_vec();
            cols.extend(fk_cols.into_iter().chain(attributes));
            table.schema = Schema::new(cols)?;
            foreign_keys.push(fk);
        }
    }
    Ok(RelationalSchema {
        tables,
        foreign_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ErAttribute, RelationshipType};
    use proptest::prelude::*;
    use relstore::Date;

    fn figure3() -> ErSchema {
        ErSchema::new("trading")
            .with_entity(
                EntityType::new("client")
                    .with(ErAttribute::key("account_number", DataType::Int))
                    .with(ErAttribute::new("name", DataType::Text))
                    .with(ErAttribute::new("address", DataType::Text))
                    .with(ErAttribute::new("telephone", DataType::Text)),
            )
            .with_entity(
                EntityType::new("company_stock")
                    .with(ErAttribute::key("ticker_symbol", DataType::Text))
                    .with(ErAttribute::new("share_price", DataType::Float)),
            )
            .with_relationship(
                RelationshipType::binary(
                    "trade",
                    ("client", Cardinality::Many),
                    ("company_stock", Cardinality::Many),
                )
                .with(ErAttribute::key("date", DataType::Date))
                .with(ErAttribute::new("quantity", DataType::Int))
                .with(ErAttribute::new("trade_price", DataType::Float)),
            )
    }

    fn table<'a>(rs: &'a RelationalSchema, name: &str) -> &'a MappedTable {
        rs.tables
            .iter()
            .find(|t| t.name == name)
            .expect("mapped table")
    }

    fn relation(t: &MappedTable, rows: Vec<Row>) -> Relation {
        Relation::new(t.schema.clone(), rows).unwrap()
    }

    fn violation_of(e: DbError) -> (String, String) {
        match e {
            DbError::ConstraintViolation { constraint, detail } => (constraint, detail),
            other => panic!("expected a constraint violation, got {other:?}"),
        }
    }

    fn names(columns: &[String]) -> Vec<&str> {
        columns.iter().map(String::as_str).collect()
    }

    #[test]
    fn figure3_maps_to_three_tables() {
        let rs = to_relational(&figure3()).unwrap();
        let tables: Vec<&str> = rs.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(tables, vec!["client", "company_stock", "trade"]);
        let trade = table(&rs, "trade");
        assert_eq!(
            trade.schema.names(),
            vec![
                "client_account_number",
                "company_stock_ticker_symbol",
                "date",
                "quantity",
                "trade_price"
            ]
        );
        assert_eq!(
            names(&trade.primary_key),
            vec![
                "client_account_number",
                "company_stock_ticker_symbol",
                "date"
            ]
        );
        assert_eq!(
            names(&table(&rs, "client").primary_key),
            vec!["account_number"]
        );
        let fks: Vec<&str> = rs.foreign_keys.iter().map(|fk| fk.name.as_str()).collect();
        assert_eq!(fks, vec!["fk_trade_client", "fk_trade_company_stock"]);
    }

    #[test]
    fn junction_fks_enforced() {
        let rs = to_relational(&figure3()).unwrap();
        let client = relation(
            table(&rs, "client"),
            vec![vec![
                Value::Int(1),
                Value::text("Alice"),
                Value::text("1 Main St"),
                Value::text("555-0100"),
            ]],
        );
        let stock = relation(
            table(&rs, "company_stock"),
            vec![vec![Value::text("FRT"), Value::Float(10.0)]],
        );
        let trade_row = |account: i64, date: &str| {
            vec![
                Value::Int(account),
                Value::text("FRT"),
                Value::Date(Date::parse(date).unwrap()),
                Value::Int(100),
                Value::Float(10.5),
            ]
        };
        let trade_table = table(&rs, "trade");
        let valid = relation(trade_table, vec![trade_row(1, "10-24-91")]);
        rs.check(&[
            ("client", &client),
            ("company_stock", &stock),
            ("trade", &valid),
        ])
        .unwrap();
        // An orphan trade is a violation of the FK the mapping derived.
        let orphan = relation(
            trade_table,
            vec![trade_row(1, "10-24-91"), trade_row(99, "10-25-91")],
        );
        let e = rs
            .check(&[
                ("client", &client),
                ("company_stock", &stock),
                ("trade", &orphan),
            ])
            .unwrap_err();
        assert_eq!(
            violation_of(e),
            (
                "fk_trade_client".into(),
                "no row in `client` matches key (99)".into()
            )
        );
    }

    #[test]
    fn one_to_many_adds_fk_column() {
        let er = ErSchema::new("hr")
            .with_entity(
                EntityType::new("dept")
                    .with(ErAttribute::key("dept_id", DataType::Int))
                    .with(ErAttribute::new("dname", DataType::Text)),
            )
            .with_entity(
                EntityType::new("employee")
                    .with(ErAttribute::key("emp_id", DataType::Int))
                    .with(ErAttribute::new("ename", DataType::Text)),
            )
            .with_relationship(
                RelationshipType::binary(
                    "works_in",
                    ("dept", Cardinality::One),
                    ("employee", Cardinality::Many),
                )
                .with(ErAttribute::new("since", DataType::Date)),
            );
        let rs = to_relational(&er).unwrap();
        let emp = table(&rs, "employee");
        assert_eq!(
            emp.schema.names(),
            vec!["emp_id", "ename", "dept_dept_id", "since"]
        );
        assert_eq!(names(&emp.primary_key), vec!["emp_id"]);
        assert_eq!(rs.foreign_keys.len(), 1);
        assert_eq!(rs.foreign_keys[0].name, "fk_employee_dept");
        assert_eq!(rs.foreign_keys[0].ref_table, "dept");
    }

    #[test]
    fn one_to_many_fk_columns_take_the_role() {
        // Two 1:N relationships between the same entities map apart when
        // the one side carries a role.
        let mut departs = RelationshipType::binary(
            "departs",
            ("airport", Cardinality::One),
            ("flight", Cardinality::Many),
        );
        departs.participants[0].role = Some("origin".into());
        let mut arrives = RelationshipType::binary(
            "arrives",
            ("flight", Cardinality::Many),
            ("airport", Cardinality::One),
        );
        arrives.participants[1].role = Some("destination".into());
        let er = ErSchema::new("air")
            .with_entity(EntityType::new("airport").with(ErAttribute::key("code", DataType::Text)))
            .with_entity(EntityType::new("flight").with(ErAttribute::key("no", DataType::Int)))
            .with_relationship(departs)
            .with_relationship(arrives);
        let rs = to_relational(&er).unwrap();
        assert_eq!(
            table(&rs, "flight").schema.names(),
            vec!["no", "origin_code", "destination_code"]
        );
        let fks: Vec<(&str, &str, Vec<&str>)> = rs
            .foreign_keys
            .iter()
            .map(|fk| (fk.name.as_str(), fk.ref_table.as_str(), names(&fk.columns)))
            .collect();
        assert_eq!(
            fks,
            vec![
                ("fk_flight_origin", "airport", vec!["origin_code"]),
                ("fk_flight_destination", "airport", vec!["destination_code"]),
            ]
        );
        // Each FK is checked on its own column.
        let airport = relation(table(&rs, "airport"), vec![vec![Value::text("BOS")]]);
        let flight = relation(
            table(&rs, "flight"),
            vec![vec![Value::Int(1), Value::text("BOS"), Value::text("SFO")]],
        );
        let e = rs
            .check(&[("airport", &airport), ("flight", &flight)])
            .unwrap_err();
        assert_eq!(
            violation_of(e),
            (
                "fk_flight_destination".into(),
                "no row in `airport` matches key (SFO)".into()
            )
        );
    }

    #[test]
    fn entity_pk_enforced_after_mapping() {
        let rs = to_relational(&figure3()).unwrap();
        let stock = table(&rs, "company_stock");
        let client = Relation::empty(table(&rs, "client").schema.clone());
        let trade = Relation::empty(table(&rs, "trade").schema.clone());
        let check = |stocks: &Relation| {
            rs.check(&[
                ("client", &client),
                ("company_stock", stocks),
                ("trade", &trade),
            ])
        };
        let dup = relation(
            stock,
            vec![
                vec![Value::text("FRT"), Value::Float(10.0)],
                vec![Value::text("FRT"), Value::Float(11.0)],
            ],
        );
        assert_eq!(
            violation_of(check(&dup).unwrap_err()),
            ("pk_company_stock".into(), "duplicate key (FRT)".into())
        );
        // The mapped key column is NOT NULL, so a NULL key never forms a
        // relation of the mapped schema…
        let e = Relation::new(
            stock.schema.clone(),
            vec![vec![Value::Null, Value::Float(1.0)]],
        )
        .unwrap_err();
        assert_eq!(violation_of(e).0, "not_null(ticker_symbol)");
        // …and one built over a nullable schema of the same shape fails
        // the primary key.
        let nullable = Schema::of(&[
            ("ticker_symbol", DataType::Text),
            ("share_price", DataType::Float),
        ]);
        let null_key = Relation::new(nullable, vec![vec![Value::Null, Value::Float(1.0)]]).unwrap();
        assert_eq!(
            violation_of(check(&null_key).unwrap_err()),
            (
                "pk_company_stock".into(),
                "primary-key column `ticker_symbol` is NULL".into()
            )
        );
    }

    #[test]
    fn check_requires_every_table_in_its_mapped_shape() {
        let rs = to_relational(&figure3()).unwrap();
        let client = Relation::empty(table(&rs, "client").schema.clone());
        let stock = Relation::empty(table(&rs, "company_stock").schema.clone());
        assert_eq!(
            rs.check(&[("client", &client), ("company_stock", &stock)]),
            Err(DbError::UnknownTable("trade".into()))
        );
        let retyped = Relation::empty(Schema::of(&[
            ("ticker_symbol", DataType::Text),
            ("share_price", DataType::Int),
        ]));
        let trade = Relation::empty(table(&rs, "trade").schema.clone());
        let e = rs
            .check(&[
                ("client", &client),
                ("company_stock", &retyped),
                ("trade", &trade),
            ])
            .unwrap_err();
        assert!(matches!(e, DbError::TypeMismatch { .. }), "{e:?}");
        // A hand-built declaration naming a column its table lacks.
        let mut ghost = rs.clone();
        ghost.tables[1].primary_key = vec!["ghost".into()];
        assert_eq!(
            ghost.check(&[
                ("client", &client),
                ("company_stock", &stock),
                ("trade", &trade)
            ]),
            Err(DbError::UnknownColumn("ghost".into()))
        );
    }

    #[test]
    fn invalid_schema_rejected() {
        let bad = ErSchema::new("bad")
            .with_entity(EntityType::new("e").with(ErAttribute::new("x", DataType::Int)));
        assert!(to_relational(&bad).is_err());
    }

    /// [`RelationalSchema::check`] written out one row at a time, the way
    /// per-insert enforcement runs: each row's primary key against the
    /// rows before it, each child row's key against every parent row.
    fn longhand(rs: &RelationalSchema, data: &[(&str, &Relation)]) -> DbResult<()> {
        let find = |name: &str| data.iter().find(|(n, _)| *n == name).expect("supplied").1;
        for t in &rs.tables {
            let rel = find(&t.name);
            let at = |row: &Row, c: &str| row[rel.schema().resolve(c).unwrap()].clone();
            for (pos, row) in rel.rows().iter().enumerate() {
                for c in &t.primary_key {
                    if at(row, c).is_null() {
                        return Err(DbError::ConstraintViolation {
                            constraint: format!("pk_{}", t.name),
                            detail: format!("primary-key column `{c}` is NULL"),
                        });
                    }
                }
                for other in &rel.rows()[..pos] {
                    if t.primary_key
                        .iter()
                        .all(|c| !at(other, c).is_null() && at(other, c) == at(row, c))
                    {
                        let key: Vec<String> = t
                            .primary_key
                            .iter()
                            .map(|c| at(row, c).to_string())
                            .collect();
                        return Err(DbError::ConstraintViolation {
                            constraint: format!("pk_{}", t.name),
                            detail: format!("duplicate key ({})", key.join(", ")),
                        });
                    }
                }
            }
            for fk in rs.foreign_keys.iter().filter(|fk| fk.table == t.name) {
                let parent = find(&fk.ref_table);
                let parent_at =
                    |row: &Row, c: &str| row[parent.schema().resolve(c).unwrap()].clone();
                for row in rel.rows() {
                    let key: Vec<Value> = fk.columns.iter().map(|c| at(row, c)).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    let found = parent.rows().iter().any(|p| {
                        fk.ref_columns
                            .iter()
                            .zip(&key)
                            .all(|(c, k)| &parent_at(p, c) == k)
                    });
                    if !found {
                        let key: Vec<String> = key.iter().map(Value::to_string).collect();
                        return Err(DbError::ConstraintViolation {
                            constraint: fk.name.clone(),
                            detail: format!(
                                "no row in `{}` matches key ({})",
                                fk.ref_table,
                                key.join(", ")
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// A key component: NULL one time in four, else one of five values.
    fn component() -> impl Strategy<Value = Option<i64>> {
        prop_oneof![
            Just(None),
            (0i64..5).prop_map(Some),
            (0i64..5).prop_map(Some),
            (0i64..5).prop_map(Some),
        ]
    }

    proptest! {
        /// `check` reports exactly what the row-at-a-time loop reports
        /// first — constraint name and detail — over parent/child pairs
        /// with Int or Text keys of one or two columns, NULL components,
        /// repeated keys and orphans.
        #[test]
        fn integrity_check_matches_longhand(
            text_keys in prop::bool::ANY,
            two_columns in prop::bool::ANY,
            child_first in prop::bool::ANY,
            unique_parent in prop::bool::ANY,
            unique_child in prop::bool::ANY,
            parent_keys in prop::collection::vec((component(), component()), 0..31),
            child_rows in prop::collection::vec(
                (component(), 0u8..10, 0usize..30, (component(), component())),
                0..31,
            ),
        ) {
            let ty = if text_keys { DataType::Text } else { DataType::Int };
            let value = |c: Option<i64>| match c {
                None => Value::Null,
                Some(v) if text_keys => Value::text(format!("k{v}")),
                Some(v) => Value::Int(v),
            };
            let arity = if two_columns { 2 } else { 1 };
            let key_cols = |prefix: &str| -> Vec<String> {
                (0..arity).map(|i| format!("{prefix}{i}")).collect()
            };
            let columns = |keys: &[String], rest: &[(&str, DataType)]| {
                let mut cols: Vec<ColumnDef> =
                    keys.iter().map(|k| ColumnDef::new(k.clone(), ty)).collect();
                cols.extend(rest.iter().map(|(n, t)| ColumnDef::new(*n, *t)));
                Schema::new(cols).unwrap()
            };

            // parent(k0[, k1], label), key (k0[, k1]).
            let parent_schema = columns(&key_cols("k"), &[("label", DataType::Text)]);
            let mut parent_rows: Vec<Row> = Vec::new();
            for (a, b) in parent_keys {
                let mut row: Row = [a, b][..arity].iter().map(|c| value(*c)).collect();
                row.push(Value::text("p"));
                if unique_parent && (row.iter().any(Value::is_null) || parent_rows.contains(&row)) {
                    continue;
                }
                parent_rows.push(row);
            }

            // child(id, f0[, f1]), key id, f* → parent. A reference copies
            // a parent row's key, has a NULL component, or is drawn free
            // (an orphan when no parent row has it).
            let mut child_cols = vec![ColumnDef::new("id", DataType::Int)];
            child_cols.extend(key_cols("f").into_iter().map(|f| ColumnDef::new(f, ty)));
            let child_schema = Schema::new(child_cols).unwrap();
            let mut rows: Vec<Row> = Vec::new();
            for (pos, (id, pick, at, (a, b))) in child_rows.into_iter().enumerate() {
                let id = match id {
                    _ if unique_child => Value::Int(pos as i64),
                    Some(id) => Value::Int(id),
                    None => Value::Null,
                };
                let mut fk: Row = [a, b][..arity].iter().map(|c| value(*c)).collect();
                if pick < 6 && !parent_rows.is_empty() {
                    fk = parent_rows[at % parent_rows.len()][..arity].to_vec();
                }
                if pick == 9 {
                    fk[at % arity] = Value::Null;
                }
                let mut row = vec![id];
                row.extend(fk);
                rows.push(row);
            }

            let parent = Relation::new(parent_schema.clone(), parent_rows).unwrap();
            let child = Relation::new(child_schema.clone(), rows).unwrap();
            let table = |name: &str, schema: Schema, primary_key: Vec<String>| MappedTable {
                name: name.into(),
                schema,
                primary_key,
            };
            let mut tables = vec![
                table("parent", parent_schema, key_cols("k")),
                table("child", child_schema, vec!["id".into()]),
            ];
            if child_first {
                tables.reverse();
            }
            let rs = RelationalSchema {
                tables,
                foreign_keys: vec![ForeignKey {
                    name: "fk_child_parent".into(),
                    table: "child".into(),
                    columns: key_cols("f"),
                    ref_table: "parent".into(),
                    ref_columns: key_cols("k"),
                }],
            };
            let data = [("parent", &parent), ("child", &child)];
            prop_assert_eq!(rs.check(&data), longhand(&rs, &data));
        }
    }
}
