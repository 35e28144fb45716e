//! Integration: normalization theory in the quality workflow — a
//! denormalized schema is a consistency risk; FD analysis finds it, 3NF
//! synthesis remediates it, and the synthesized schema's keys are
//! declared and checked.

use er_model::normalize::{
    attrs, bcnf_violations, candidate_keys, closure, synthesize_3nf, Fd,
};
use er_model::{MappedTable, RelationalSchema};
use relstore::{DataType, DbError, Relation, Schema, Value};

/// The paper's customer table, denormalized with an added `zip → city`
/// dependency (the classic address smell).
fn customer_fds() -> (er_model::normalize::AttrSet, Vec<Fd>) {
    let all = attrs(&["co_name", "address", "zip", "city", "employees"]);
    let fds = vec![
        Fd::new(&["co_name"], &["address", "zip", "employees"]),
        Fd::new(&["zip"], &["city"]),
    ];
    (all, fds)
}

#[test]
fn denormalized_customer_schema_diagnosed_and_synthesized() {
    let (all, fds) = customer_fds();
    // diagnosis: zip → city violates BCNF (zip is not a key)
    let violations = bcnf_violations(&all, &fds);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].fd.lhs, attrs(&["zip"]));
    // the key is co_name alone (it reaches city through zip)
    assert_eq!(
        closure(&attrs(&["co_name"]), &fds),
        all
    );
    assert_eq!(candidate_keys(&all, &fds), vec![attrs(&["co_name"])]);
    // remediation: synthesis splits out the zip→city relation
    let rels = synthesize_3nf(&all, &fds).unwrap();
    let sets: Vec<_> = rels.iter().map(|r| r.attributes.clone()).collect();
    assert!(sets.contains(&attrs(&["zip", "city"])));
    assert!(sets.contains(&attrs(&["co_name", "address", "zip", "employees"])));
    assert_eq!(rels.len(), 2);
    // each synthesized relation is clean w.r.t. its own FDs
    for r in &rels {
        assert!(bcnf_violations(&r.attributes, &r.fds).is_empty());
    }
}

#[test]
fn synthesized_relations_map_to_enforcing_tables() {
    let (all, fds) = customer_fds();
    let rels = synthesize_3nf(&all, &fds).unwrap();
    // declare a table per synthesized relation, with its group's LHS as
    // the primary key
    let tables: Vec<MappedTable> = rels
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cols: Vec<(&str, DataType)> = r
                .attributes
                .iter()
                .map(|a| {
                    let ty = if a == "employees" {
                        DataType::Int
                    } else {
                        DataType::Text
                    };
                    (a.as_str(), ty)
                })
                .collect();
            MappedTable {
                name: format!("r{i}"),
                schema: Schema::of(&cols),
                // both relations here are FD groups (no key relation added)
                primary_key: r.fds[0].lhs.iter().cloned().collect(),
            }
        })
        .collect();
    let declared = RelationalSchema {
        tables,
        foreign_keys: vec![],
    };
    // the zip→city table now *enforces* the dependency the flat table
    // silently violated: the same zip cannot map to two cities
    let zip_table = declared
        .tables
        .iter()
        .find(|t| t.schema.index_of("zip").is_some() && t.schema.arity() == 2)
        .expect("zip/city relation exists");
    assert_eq!(zip_table.primary_key, vec!["zip".to_string()]);
    // attribute sets are sorted, so the schema order is (city, zip)
    let schema = zip_table.schema.clone();
    let row = |city: &str, zip: &str| -> Vec<Value> {
        let mut r = vec![Value::Null; 2];
        r[schema.index_of("city").unwrap()] = Value::text(city);
        r[schema.index_of("zip").unwrap()] = Value::text(zip);
        r
    };
    let check = |zip_rows: Vec<Vec<Value>>| {
        let relations: Vec<Relation> = declared
            .tables
            .iter()
            .map(|t| {
                let rows = if t.name == zip_table.name {
                    zip_rows.clone()
                } else {
                    vec![]
                };
                Relation::new(t.schema.clone(), rows).unwrap()
            })
            .collect();
        let data: Vec<(&str, &Relation)> = declared
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .zip(&relations)
            .collect();
        declared.check(&data)
    };
    check(vec![row("Cambridge", "02139")]).unwrap();
    let dup = check(vec![row("Cambridge", "02139"), row("Boston", "02139")]);
    assert_eq!(
        dup,
        Err(DbError::ConstraintViolation {
            constraint: format!("pk_{}", zip_table.name),
            detail: "duplicate key (02139)".into(),
        }),
        "FD now enforced as a key constraint"
    );
}

#[test]
fn consistency_defects_found_by_linkage_then_fixed_by_synthesis() {
    // A flat file stores city redundantly; two rows disagree on the city
    // for one zip — the inconsistency normalization would have prevented.
    let schema = Schema::of(&[
        ("co_name", DataType::Text),
        ("zip", DataType::Text),
        ("city", DataType::Text),
    ]);
    let flat = relstore::Relation::new(
        schema,
        vec![
            vec![Value::text("Fruit Co"), Value::text("02139"), Value::text("Cambridge")],
            vec![Value::text("Nut Co"), Value::text("02139"), Value::text("Cambrdige")], // typo'd duplicate fact
            vec![Value::text("Bolt Co"), Value::text("10001"), Value::text("New York")],
        ],
    )
    .unwrap();
    // detect: group by zip, cities must agree — use linkage on the
    // (zip, city) projection to spot the near-duplicate spelling
    let tagged = tagstore::TaggedRelation::from_relation(&flat, Default::default());
    let mut catalog = dq_query::QueryCatalog::new();
    catalog.register("addresses", tagged);
    let projected = dq_query::run(&catalog, "SELECT zip, city FROM addresses").unwrap();
    let pairs = projected.relation().strip();
    let model = dq_admin::FellegiSunter::new(
        vec![dq_admin::FieldSpec::new(
            "city",
            0.95,
            0.02,
            dq_admin::Comparator::JaroWinkler { threshold: 0.9 },
        )],
        0.0,
        3.0,
    )
    .unwrap()
    .blocked_on("zip");
    let dups = model.deduplicate(&pairs).unwrap();
    assert_eq!(dups.len(), 1, "the misspelled Cambridge pair");
    assert_eq!((dups[0].left, dups[0].right), (0, 1));
}
