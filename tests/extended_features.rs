//! Integration tests for the extension features: the assess→impact→
//! allocate loop, process-based inspection triggers, the TAG statement,
//! the quality-key storage form over generated workloads, and the
//! polygen→tagstore bridge end to end.

use dq_admin::{
    allocate, analyze_impact, completeness, timeliness, to_projects, ImpactModel,
    InspectionSchedule, PeculiarDataDetector, QualityMonitor,
};
use dq_admin::assess::AssessmentReport;
use dq_query::{run, run_mut, QueryCatalog};
use dq_workloads::{
    generate_addresses, generate_trading, MailingGenConfig, TradingGenConfig,
};
use polygen::{to_tagged, PolyRelation, SourceId, SourceRegistry};
use relstore::{Date, Value};
use tagstore::{from_quality_store, to_quality_store};

#[test]
fn assess_impact_allocate_closes_the_loop() {
    // Measure a degraded address book, price the shortfalls, and let the
    // allocator pick remediations under budget.
    let cfg = MailingGenConfig {
        rows: 2000,
        untagged_fraction: 0.3,
        ..Default::default()
    };
    let rel = generate_addresses(&cfg).unwrap();

    let report = AssessmentReport {
        scores: vec![
            completeness(&rel.strip(), "address").unwrap(),
            timeliness(&rel, "address", cfg.today, 365.0, 1.0).unwrap(),
        ],
    };
    // untagged cells score 0 on timeliness → a real measured shortfall
    assert!(report.weakest().unwrap().score < 0.9);

    let model = ImpactModel::new()
        .rate("completeness", 0.2)
        .rate("timeliness", 1.0);
    let items = analyze_impact(&report, &model);
    assert_eq!(items[0].dimension, "timeliness"); // most costly first
    assert!(items[0].cost > 0.0);

    let projects = to_projects(&items, |i| (i.affected / 500).max(1) as u64, 0.8);
    let alloc = allocate(&projects, 4);
    assert!(!alloc.selected.is_empty());
    assert!(alloc.total_benefit > 0.0);
    assert!(alloc.total_cost <= 4);
}

#[test]
fn monitor_triggers_on_workload_anomalies() {
    let w = generate_trading(&TradingGenConfig {
        stocks: 60,
        ..Default::default()
    })
    .unwrap();
    // baseline from the generated prices (1.00..1000.00)
    let baseline: Vec<f64> = w
        .stocks
        .iter()
        .map(|r| r[1].value.as_float().unwrap())
        .collect();
    let mut monitor = QualityMonitor {
        schedule: InspectionSchedule::every(7),
        detector: PeculiarDataDetector::fit(&baseline, 6.0).unwrap(),
        column: "share_price".into(),
    };
    let today = Date::parse("10-24-91").unwrap();
    // in-control data: only the periodic prompt fires (first run)
    let prompts = monitor.check(&w.stocks, today).unwrap();
    assert_eq!(prompts.len(), 1);
    // inject a fat-finger price and re-check after the period
    let mut degraded = w.stocks.clone();
    degraded.cell_mut(0, "share_price").unwrap().value = Value::Float(1.0e7);
    let prompts = monitor.check(&degraded, today.plus_days(8)).unwrap();
    assert_eq!(prompts.len(), 2); // peculiar data + periodic
    match &prompts[0] {
        dq_admin::InspectionPrompt::PeculiarData { rows } => {
            assert_eq!(rows[0].row, 0);
            assert!(rows[0].z > 6.0);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn tag_statement_drives_quality_workflow_end_to_end() {
    let w = generate_trading(&TradingGenConfig {
        stocks: 30,
        trades: 0,
        clients: 0,
        ..Default::default()
    })
    .unwrap();
    let mut cat = QueryCatalog::new();
    cat.register("company_stock", w.stocks);

    // The administrator stamps certification on fresh NYSE-feed quotes…
    let stamped = run_mut(
        &mut cat,
        "TAG company_stock SET share_price@inspection = 'certified 1991-10-24' \
         WHERE share_price@age <= 7 AND share_price@source = 'NYSE feed'",
    )
    .unwrap();
    let n = match stamped.relation().cell(0, "cells_tagged").unwrap().value {
        Value::Int(n) => n,
        ref other => panic!("{other:?}"),
    };
    // …and only certified quotes flow to the strict consumer.
    let certified = run(
        &cat,
        "SELECT ticker_symbol FROM company_stock \
         WITH QUALITY (share_price@inspection LIKE 'certified%')",
    )
    .unwrap();
    assert_eq!(certified.relation().len() as i64, n);
    // the stamp coexists with the generator's original tags
    let both = run(
        &cat,
        "SELECT ticker_symbol FROM company_stock \
         WITH QUALITY (share_price@inspection IS NOT NULL, share_price@age <= 7)",
    )
    .unwrap();
    assert_eq!(both.relation().len() as i64, n);
}

#[test]
fn quality_store_roundtrips_generated_workload() {
    let w = generate_trading(&TradingGenConfig {
        stocks: 25,
        trades: 50,
        clients: 10,
        ..Default::default()
    })
    .unwrap();
    for rel in [&w.clients, &w.stocks, &w.trades] {
        let store = to_quality_store(rel).unwrap();
        // storage form really is plain relational data
        assert_eq!(store.data.len(), rel.len());
        let back = from_quality_store(&store, rel.dictionary().clone()).unwrap();
        assert_eq!(&back, rel);
    }
}

#[test]
fn polygen_bridge_into_quality_queries() {
    // Compose data from two registered sources in the polygen algebra,
    // bridge into the tagged store, and query by provenance + credibility.
    let mut reg = SourceRegistry::new();
    reg.register("NYSE", "exchange feed", 0.95);
    reg.register("SHEET", "spreadsheet", 0.40);

    let schema = relstore::Schema::of(&[
        ("ticker", relstore::DataType::Text),
        ("price", relstore::DataType::Float),
    ]);
    let nyse_rel = relstore::Relation::new(
        schema.clone(),
        vec![
            vec![Value::text("FRT"), Value::Float(10.0)],
            vec![Value::text("NUT"), Value::Float(20.0)],
        ],
    )
    .unwrap();
    let sheet_rel = relstore::Relation::new(
        schema,
        vec![
            vec![Value::text("NUT"), Value::Float(20.0)], // duplicate of NYSE row
            vec![Value::text("BLT"), Value::Float(30.0)],
        ],
    )
    .unwrap();
    let composed = PolyRelation::retrieve(&nyse_rel, SourceId::new("NYSE"))
        .union(&PolyRelation::retrieve(&sheet_rel, SourceId::new("SHEET")))
        .unwrap();
    let tagged = to_tagged(&composed, Some(&reg)).unwrap();

    let mut cat = QueryCatalog::new();
    cat.register("quotes", tagged);

    // high-credibility only: the SHEET-only row drops; the merged NUT row
    // has weakest-link credibility 0.40 and drops too.
    let r = run(
        &cat,
        "SELECT ticker, price@credibility AS cred FROM quotes \
         WITH QUALITY (price@credibility >= 0.9)",
    )
    .unwrap();
    assert_eq!(r.relation().len(), 1);
    assert_eq!(
        r.relation().cell(0, "ticker").unwrap().value,
        Value::text("FRT")
    );
    // provenance-text query over the merged row
    let r = run(
        &cat,
        "SELECT ticker FROM quotes WITH QUALITY (price@source = 'NYSE+SHEET')",
    )
    .unwrap();
    assert_eq!(r.relation().len(), 1);
    assert_eq!(
        r.relation().cell(0, "ticker").unwrap().value,
        Value::text("NUT")
    );
}
