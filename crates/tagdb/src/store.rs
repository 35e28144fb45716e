//! The attribute-based model's *storage* form: quality keys and quality
//! relations.
//!
//! The model the paper cites (\[28\]) stores quality indicator values not
//! inline but in separate **quality relations**, linked to data cells by
//! **quality keys**; the same mechanism applied recursively stores
//! meta-quality (Premise 1.4) via a parent key. This module materializes
//! a [`TaggedRelation`] into that form — a plain data relation whose
//! cells are paired with quality-key columns, plus one flat quality
//! relation — and reconstructs it losslessly. Since both halves are
//! ordinary [`Relation`]s, tagged data can be exported through any plain
//! relational channel (CSV, another DBMS) without losing its tags.

use crate::cell::QualityCell;
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use crate::relation::TaggedRelation;
use relstore::{ColumnDef, DataType, Date, DbError, DbResult, Relation, Row, Schema, Value};

/// Suffix appended to each application column's quality-key column.
pub const QKEY_SUFFIX: &str = "#qk";

/// A tagged relation in storage form.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityStore {
    /// Application data plus one `column#qk` quality-key column per
    /// application column (NULL when the cell is untagged).
    pub data: Relation,
    /// The quality relation:
    /// `(qkey: Int, indicator: Text, value: Text, parent: Int)`.
    /// Rows with non-NULL `parent` are meta-quality of the tag keyed by
    /// `parent`.
    pub quality: Relation,
}

/// Schema of the quality relation.
pub fn quality_relation_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("qkey", DataType::Int),
        ColumnDef::not_null("indicator", DataType::Text),
        ColumnDef::not_null("value", DataType::Text),
        ColumnDef::new("parent", DataType::Int),
    ])
    .expect("static schema is valid")
}

/// Type-tagged text encoding of a [`Value`] (lossless, human-legible).
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n:".to_owned(),
        Value::Bool(b) => format!("b:{b}"),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{}", f.to_bits()),
        Value::Text(s) => format!("t:{s}"),
        Value::Date(d) => format!("d:{d}"),
    }
}

/// Inverse of [`encode_value`].
pub fn decode_value(s: &str) -> DbResult<Value> {
    let (tag, rest) = s
        .split_once(':')
        .ok_or_else(|| DbError::ParseError(format!("bad encoded value `{s}`")))?;
    match tag {
        "n" => Ok(Value::Null),
        "b" => rest
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| DbError::ParseError(format!("bad bool `{rest}`"))),
        "i" => rest
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::ParseError(format!("bad int `{rest}`"))),
        "f" => rest
            .parse::<u64>()
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|_| DbError::ParseError(format!("bad float bits `{rest}`"))),
        "t" => Ok(Value::Text(rest.to_owned())),
        "d" => Date::parse(rest).map(Value::Date),
        other => Err(DbError::ParseError(format!("unknown value tag `{other}`"))),
    }
}

fn emit_tag(
    tag: &IndicatorValue,
    owner_qkey: i64,
    parent: Option<i64>,
    next_key: &mut i64,
    out: &mut Vec<Row>,
) {
    // Each tag tuple gets its own key so meta tags can reference it.
    let my_key = *next_key;
    *next_key += 1;
    out.push(vec![
        Value::Int(owner_qkey),
        Value::text(tag.indicator.clone()),
        Value::text(encode_value(&tag.value)),
        match parent {
            Some(p) => Value::Int(p),
            None => Value::Null,
        },
    ]);
    for meta in &tag.meta {
        // meta tags are owned by the same cell key but parented to this
        // tag's tuple key
        emit_tag(meta, owner_qkey, Some(my_key), next_key, out);
    }
}

/// Materializes the storage form.
pub fn to_quality_store(rel: &TaggedRelation) -> DbResult<QualityStore> {
    // data schema: each app column followed by its qkey column
    let mut cols = Vec::with_capacity(rel.schema().arity() * 2);
    for c in rel.schema().columns() {
        cols.push(c.clone());
        cols.push(ColumnDef::new(format!("{}{QKEY_SUFFIX}", c.name), DataType::Int));
    }
    let data_schema = Schema::new(cols)?;

    let mut data_rows: Vec<Row> = Vec::with_capacity(rel.len());
    let mut q_rows: Vec<Row> = Vec::new();
    // qkey identifies a cell; tag tuples get their own key space for
    // parent references. Single counter keeps both unique.
    let mut next_key: i64 = 1;
    for row in rel.iter() {
        let mut out = Vec::with_capacity(row.len() * 2);
        for cell in row.iter() {
            out.push(cell.value.clone());
            if cell.tags().is_empty() {
                out.push(Value::Null);
            } else {
                let cell_key = next_key;
                next_key += 1;
                out.push(Value::Int(cell_key));
                for tag in cell.tags() {
                    emit_tag(tag, cell_key, None, &mut next_key, &mut q_rows);
                }
            }
        }
        data_rows.push(out);
    }
    Ok(QualityStore {
        data: Relation::new(data_schema, data_rows)?,
        quality: Relation::new(quality_relation_schema(), q_rows)?,
    })
}

/// Reconstructs the tagged relation from storage form.
pub fn from_quality_store(
    store: &QualityStore,
    dict: IndicatorDictionary,
) -> DbResult<TaggedRelation> {
    // recover the application schema: every even column is data, every
    // odd one a qkey column named `<data>#qk`
    let cols = store.data.schema().columns();
    if !cols.len().is_multiple_of(2) {
        return Err(DbError::InvalidExpression(
            "quality store data schema must pair columns with quality keys".into(),
        ));
    }
    let mut app_cols = Vec::with_capacity(cols.len() / 2);
    for pair in cols.chunks(2) {
        let expected = format!("{}{QKEY_SUFFIX}", pair[0].name);
        if pair[1].name != expected {
            return Err(DbError::InvalidExpression(format!(
                "expected quality-key column `{expected}`, found `{}`",
                pair[1].name
            )));
        }
        app_cols.push(pair[0].clone());
    }
    let app_schema = Schema::new(app_cols)?;

    // index the quality relation: tuples per owner qkey, in insertion
    // order so the parent (emitted before its meta tags) is always seen
    // first. We rebuild the tree via tuple order: a tuple's own key is
    // its 1-based position in the owner's emission order... which we did
    // not store. Instead, reconstruct by parent pointers: tuples with
    // NULL parent are direct tags; others attach to the tag whose
    // emission index equals the parent key. To make that resolvable we
    // re-derive each tuple's own key from the global emission order.
    let qs = store.quality.rows();
    // Recompute keys exactly as to_quality_store assigned them: walk the
    // data rows in order; for each tagged cell, its cell_key, then one key
    // per tag tuple in emission order. Tag tuples for a cell are
    // contiguous in the quality relation.
    let mut rel = TaggedRelation::empty(app_schema.clone(), dict);
    let arity = app_schema.arity();
    let mut q_pos = 0usize; // cursor into quality rows

    for drow in store.data.iter() {
        let mut row = Vec::with_capacity(arity);
        for a in 0..arity {
            let value = drow[a * 2].clone();
            let qkey = &drow[a * 2 + 1];
            let mut cell = QualityCell::bare(value);
            if let Value::Int(cell_key) = qkey {
                // consume the contiguous run of tuples owned by cell_key
                let mut tuples: Vec<(i64, String, Value, Option<i64>)> = Vec::new();
                let mut next_key = cell_key + 1;
                while q_pos < qs.len() {
                    let t = &qs[q_pos];
                    if t[0] != Value::Int(*cell_key) {
                        break;
                    }
                    let ind = t[1].as_text()?.to_owned();
                    let val = decode_value(t[2].as_text()?)?;
                    let parent = match &t[3] {
                        Value::Null => None,
                        Value::Int(p) => Some(*p),
                        other => {
                            return Err(DbError::TypeMismatch {
                                expected: "Int parent key".into(),
                                found: other.type_name().into(),
                            })
                        }
                    };
                    tuples.push((next_key, ind, val, parent));
                    next_key += 1;
                    q_pos += 1;
                }
                // build the tag forest
                fn build(
                    key: i64,
                    tuples: &[(i64, String, Value, Option<i64>)],
                ) -> IndicatorValue {
                    let (_, ind, val, _) =
                        tuples.iter().find(|t| t.0 == key).expect("key exists");
                    let mut iv = IndicatorValue::new(ind.clone(), val.clone());
                    for (k, _, _, parent) in tuples {
                        if *parent == Some(key) {
                            iv.meta.push(build(*k, tuples));
                        }
                    }
                    iv
                }
                for (k, _, _, parent) in &tuples {
                    if parent.is_none() {
                        cell.set_tag(build(*k, &tuples));
                    }
                }
            }
            row.push(cell);
        }
        rel.push(row)?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicator::IndicatorDef;

    fn dict() -> IndicatorDictionary {
        IndicatorDictionary::with_paper_defaults()
    }

    fn sample() -> TaggedRelation {
        let schema = Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]);
        let d = |s: &str| Value::Date(Date::parse(s).unwrap());
        TaggedRelation::new(
            schema,
            dict(),
            vec![
                vec![
                    QualityCell::bare("Fruit Co"),
                    QualityCell::bare(4004i64)
                        .with_tag(IndicatorValue::new("creation_time", d("10-3-91")))
                        .with_tag(
                            IndicatorValue::new("source", "Nexis").with_meta(
                                IndicatorValue::new("creation_time", d("10-4-91")).with_meta(
                                    IndicatorValue::new("source", "system clock"),
                                ),
                            ),
                        ),
                ],
                vec![QualityCell::bare("Nut Co"), QualityCell::bare(700i64)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn value_encoding_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::text("with:colon and spaces"),
            Value::Date(Date::parse("10-24-91").unwrap()),
        ] {
            let enc = encode_value(&v);
            let back = decode_value(&enc).unwrap();
            // NaN != NaN under ==; use total order via sort keys
            assert_eq!(back.cmp(&v), std::cmp::Ordering::Equal, "{enc}");
        }
        assert!(decode_value("garbage").is_err());
        assert!(decode_value("x:1").is_err());
        assert!(decode_value("i:notanint").is_err());
    }

    #[test]
    fn store_roundtrip_with_meta_tags() {
        let rel = sample();
        let store = to_quality_store(&rel).unwrap();
        // data relation pairs each column with a qkey column
        assert_eq!(
            store.data.schema().names(),
            vec!["name", "name#qk", "employees", "employees#qk"]
        );
        // untagged cells have NULL qkeys
        assert!(store.data.rows()[1][1].is_null());
        assert!(store.data.rows()[1][3].is_null());
        // quality relation holds 2 direct + 2 meta tuples
        assert_eq!(store.quality.len(), 4);
        let back = from_quality_store(&store, dict()).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn roundtrip_through_csv() {
        // the whole point of the storage form: it survives plain
        // relational channels
        let rel = sample();
        let store = to_quality_store(&rel).unwrap();
        let data_csv = relstore::csv::to_csv(&store.data);
        let q_csv = relstore::csv::to_csv(&store.quality);
        let store2 = QualityStore {
            data: relstore::csv::from_csv(store.data.schema(), &data_csv).unwrap(),
            quality: relstore::csv::from_csv(store.quality.schema(), &q_csv).unwrap(),
        };
        let back = from_quality_store(&store2, dict()).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_relation_roundtrips() {
        let rel = TaggedRelation::empty(
            Schema::of(&[("x", DataType::Int)]),
            dict(),
        );
        let store = to_quality_store(&rel).unwrap();
        assert!(store.quality.is_empty());
        let back = from_quality_store(&store, dict()).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn malformed_store_rejected() {
        let bad = QualityStore {
            data: Relation::new(
                Schema::of(&[("x", DataType::Int)]), // odd arity
                vec![],
            )
            .unwrap(),
            quality: Relation::empty(quality_relation_schema()),
        };
        assert!(from_quality_store(&bad, dict()).is_err());
        let bad = QualityStore {
            data: Relation::new(
                Schema::of(&[("x", DataType::Int), ("wrongname", DataType::Int)]),
                vec![],
            )
            .unwrap(),
            quality: Relation::empty(quality_relation_schema()),
        };
        assert!(from_quality_store(&bad, dict()).is_err());
    }

    #[test]
    fn deep_meta_recursion_roundtrips() {
        let mut dict = dict();
        dict.declare(IndicatorDef::new("depth", DataType::Int, "test"))
            .unwrap();
        // a 6-deep meta chain
        let mut tag = IndicatorValue::new("depth", 6i64);
        for i in (1..6i64).rev() {
            tag = IndicatorValue::new("depth", i).with_meta(tag);
        }
        assert_eq!(tag.depth(), 6);
        let rel = TaggedRelation::new(
            Schema::of(&[("x", DataType::Int)]),
            dict.clone(),
            vec![vec![QualityCell::bare(1i64).with_tag(tag)]],
        )
        .unwrap();
        let store = to_quality_store(&rel).unwrap();
        assert_eq!(store.quality.len(), 6);
        let back = from_quality_store(&store, dict).unwrap();
        assert_eq!(back, rel);
    }
}
