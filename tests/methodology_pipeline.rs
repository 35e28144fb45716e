//! Integration: the full four-step methodology (Figure 2) across
//! `er-model`, `dq-core`, and `tagstore`, including multi-view
//! integration, derivability collapse, structural re-examination, and the
//! requirements-specification documents.

use dq_core::{
    default_rules, premises, promote_indicator_to_attribute, spec, step1_application_view,
    step4_integrate, CandidateCatalog, Step2, Step3, Target, INSPECTION,
};
use er_model::{Cardinality, Correspondences, EntityType, ErAttribute, ErSchema, RelationshipType};
use relstore::DataType;
use tagstore::IndicatorDef;

fn trading_er() -> ErSchema {
    ErSchema::new("trading")
        .with_entity(
            EntityType::new("client")
                .with(ErAttribute::key("account_number", DataType::Int))
                .with(ErAttribute::new("telephone", DataType::Text)),
        )
        .with_entity(
            EntityType::new("company_stock")
                .with(ErAttribute::key("ticker_symbol", DataType::Text))
                .with(ErAttribute::new("share_price", DataType::Float)),
        )
        .with_relationship(RelationshipType::binary(
            "trade",
            ("client", Cardinality::Many),
            ("company_stock", Cardinality::Many),
        ))
}

/// A second department's view of the same world, with a synonym entity
/// name and the *derivable* pair of timeliness indicators.
fn risk_view_er() -> ErSchema {
    ErSchema::new("risk")
        .with_entity(
            EntityType::new("security") // synonym of company_stock
                .with(ErAttribute::key("ticker_symbol", DataType::Text))
                .with(ErAttribute::new("share_price", DataType::Float))
                .with(ErAttribute::new("var_limit", DataType::Float)),
        )
}

#[test]
fn two_department_views_integrate_into_one_quality_schema() {
    // Trading desk: timeliness on share_price, operationalized as `age`.
    let app = step1_application_view(trading_er()).unwrap();
    let pv = Step2::new(app, CandidateCatalog::appendix_a())
        .parameter(
            Target::attr("company_stock", "share_price"),
            "timeliness",
            "desk needs fresh quotes",
        )
        .unwrap()
        .inspection(Target::Relationship("trade".into()), "verifiable trades")
        .unwrap()
        .finish();
    let trading_qv = Step3::new(pv)
        .operationalize(
            Target::attr("company_stock", "share_price"),
            "timeliness",
            IndicatorDef::new("age", DataType::Int, "days old"),
        )
        .unwrap()
        .operationalize_suggested(Target::Relationship("trade".into()), INSPECTION)
        .unwrap()
        .finish()
        .unwrap();

    // Risk department: same concern, named `security`, operationalized as
    // `creation_time`, plus an interpretability indicator that collides
    // with an application attribute elsewhere.
    let app = step1_application_view(risk_view_er()).unwrap();
    let pv = Step2::new(app, CandidateCatalog::appendix_a())
        .parameter(
            Target::attr("security", "share_price"),
            "timeliness",
            "risk models need dated inputs",
        )
        .unwrap()
        .parameter(
            Target::attr("security", "ticker_symbol"),
            "interpretability",
            "reports use full names",
        )
        .unwrap()
        .finish();
    let risk_qv = Step3::new(pv)
        .operationalize(
            Target::attr("security", "share_price"),
            "timeliness",
            IndicatorDef::new("creation_time", DataType::Date, "quote date"),
        )
        .unwrap()
        .operationalize(
            Target::attr("security", "ticker_symbol"),
            "interpretability",
            IndicatorDef::new("company_name", DataType::Text, "full name"),
        )
        .unwrap()
        .finish()
        .unwrap();

    // Step 4 with the synonym correspondence.
    let corr = Correspondences::new().synonym("security", "company_stock");
    let mut qs = step4_integrate(
        "global_quality",
        &[&trading_qv, &risk_qv],
        &corr,
        &default_rules(),
    )
    .unwrap();

    // Entities merged under the canonical name, attributes unioned.
    assert!(qs.er.entity("security").is_none());
    let cs = qs.er.entity("company_stock").unwrap();
    assert!(cs.attribute("var_limit").is_some());

    // Derivability: age dropped in favor of creation_time on the merged
    // target — exactly the paper's §3.4 example.
    let names = qs.indicator_names();
    assert!(names.contains(&"creation_time"));
    assert!(!names.contains(&"age"), "age should collapse: {names:?}");
    assert!(qs
        .notes
        .iter()
        .any(|n| n.category == "derivability" && n.detail.contains("age")));

    // Structural re-examination: promote company_name into the entity.
    promote_indicator_to_attribute(
        &mut qs,
        &Target::attr("company_stock", "ticker_symbol"),
        "company_name",
    )
    .unwrap();
    assert!(qs
        .er
        .entity("company_stock")
        .unwrap()
        .attribute("company_name")
        .is_some());

    // The schema still compiles to a consistent indicator dictionary that
    // tagstore accepts.
    let dict = qs.indicator_dictionary().unwrap();
    assert!(dict.get("creation_time").is_some());
    assert!(dict.get("inspection").is_some());

    // Documentation artifacts.
    let md = spec::quality_schema_markdown(&qs);
    assert!(md.contains("derivability"));
    assert!(md.contains("promotion"));
    let json = spec::quality_schema_json(&qs).unwrap();
    let back = spec::quality_schema_from_json(&json).unwrap();
    assert_eq!(back, qs);

    // Premise analyses run on the final schema; after the derivability
    // collapse and the promotion each remaining target carries exactly one
    // indicator, so the distribution is uniform and no heterogeneity
    // finding is expected — but coverage is still reported per target.
    let findings = premises::analyze(&qs, &CandidateCatalog::appendix_a());
    assert!(!findings
        .iter()
        .any(|f| f.premise == premises::Premise::RelatednessOfApplicationAndQuality));
    let dist = premises::indicator_distribution(&qs);
    assert_eq!(dist.len(), 2); // share_price + trade
    assert!(dist.iter().all(|(_, n)| *n == 1));
}

#[test]
fn er_schema_maps_to_enforcing_database() {
    // Step-1 output is a real database schema: map it and check relations
    // against the keys it declares.
    use relstore::{DbError, Relation, Value};
    let mapped = er_model::to_relational(&trading_er()).unwrap();
    let names: Vec<&str> = mapped.tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, vec!["client", "company_stock", "trade"]);
    let relation = |table: &str, rows: Vec<Vec<Value>>| {
        let t = mapped.tables.iter().find(|t| t.name == table).unwrap();
        Relation::new(t.schema.clone(), rows).unwrap()
    };
    let client = relation("client", vec![vec![Value::Int(1), Value::text("555-0100")]]);
    let stock = relation(
        "company_stock",
        vec![vec![Value::text("FRT"), Value::Float(10.0)]],
    );
    let trade = relation("trade", vec![vec![Value::Int(1), Value::text("FRT")]]);
    mapped
        .check(&[
            ("client", &client),
            ("company_stock", &stock),
            ("trade", &trade),
        ])
        .unwrap();
    // orphan trade rejected by the FK the mapping created
    let orphan = relation(
        "trade",
        vec![
            vec![Value::Int(1), Value::text("FRT")],
            vec![Value::Int(9), Value::text("FRT")],
        ],
    );
    assert_eq!(
        mapped.check(&[
            ("client", &client),
            ("company_stock", &stock),
            ("trade", &orphan)
        ]),
        Err(DbError::ConstraintViolation {
            constraint: "fk_trade_client".into(),
            detail: "no row in `client` matches key (9)".into(),
        })
    );
}

#[test]
fn figure2_artifacts_document_every_step() {
    let pv = dq_workloads::figure4_parameter_view();
    let qv = dq_workloads::figure5_quality_view();
    let pv_doc = spec::parameter_view_markdown(&pv);
    let qv_doc = spec::quality_view_markdown(&qv);
    // Figure 4's clouds
    for cloud in ["timeliness", "credibility", "cost", "✓ inspection"] {
        assert!(pv_doc.contains(cloud), "parameter view missing {cloud}");
    }
    // Figure 5's dotted rectangles
    for rect in ["age", "analyst", "media", "collection_method", "company_name"] {
        assert!(qv_doc.contains(rect), "quality view missing {rect}");
    }
    // quality view retains the parameter documentation (§3.3: both views
    // belong to the requirements specification)
    assert_eq!(qv.parameters.len(), pv.annotations.len());
}
