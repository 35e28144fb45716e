//! Integration: administrator workflows over generated workloads —
//! inspection → SPC → certification → allocation, with the audit trail
//! threading through.

use dq_admin::{
    accuracy_vs_reference, allocate, AuditTrail, Certification, IndividualsChart, InspectionRule,
    Inspector, PChart, Project,
};
use dq_workloads::{
    default_profiles, generate_customers, inject_errors, CustomerGenConfig, MethodProfile,
};
use relstore::{Date, DbResult, Expr, Value};
use tagstore::{selection_columnar, ColumnarRelation, TaggedRelation, DEFAULT_BATCH_SIZE};

/// The rows of `rel` that meet `predicate`, by the engine's σ over its
/// columnar layout.
fn select(rel: &TaggedRelation, predicate: &Expr) -> DbResult<TaggedRelation> {
    let layout = ColumnarRelation::from_tagged(rel);
    let (kept, _) = selection_columnar(&layout, predicate, DEFAULT_BATCH_SIZE)?;
    Ok(layout.gather(&kept))
}

#[test]
fn per_method_error_rates_order_as_the_paper_says() {
    // §3.3: error rates differ from device to device. Inject per-method
    // errors and verify measured accuracy orders scanners > keyed > phone.
    let mk = |method: &str| {
        let mut cfg = CustomerGenConfig {
            rows: 3000,
            untagged_prob: 0.0,
            tags_per_cell: 3,
            seed: 11,
            ..Default::default()
        };
        cfg.sources = vec!["sales".into()];
        let mut rel = generate_customers(&cfg).unwrap();
        // force a single collection method
        rel.tag_column(
            "employees",
            tagstore::IndicatorValue::new("collection_method", method),
        )
        .unwrap();
        rel
    };
    let profiles = default_profiles();
    let mut measured = Vec::new();
    for method in ["bar code scanner", "keyed entry", "over the phone"] {
        let truth = mk(method);
        let mut noisy = truth.clone();
        inject_errors(&mut noisy, "employees", &profiles, 0.0, 77).unwrap();
        // accuracy vs the uncorrupted ground truth, keyed by name
        let acc = accuracy_vs_reference(
            &noisy.strip(),
            "co_name",
            "employees",
            &truth.strip(),
            "co_name",
            "employees",
        )
        .unwrap();
        measured.push((method, acc.score));
    }
    assert!(
        measured[0].1 > measured[1].1 && measured[1].1 > measured[2].1,
        "accuracy should fall with method unreliability: {measured:?}"
    );
}

#[test]
fn spc_catches_a_degraded_manufacturing_process() {
    // Batches of records are inspected; the violation count per batch is
    // charted. A degraded upstream source must raise a p-chart signal.
    let inspector = Inspector::new().with_rule(InspectionRule::RequiredTag {
        column: "address".into(),
        indicator: "source".into(),
    });
    let batch = |untagged: f64, seed: u64| -> usize {
        let rel = generate_customers(&CustomerGenConfig {
            rows: 400,
            untagged_prob: untagged,
            seed,
            ..Default::default()
        })
        .unwrap();
        inspector.inspect(&rel).unwrap().violations.len()
    };
    // baseline at 5% untagged
    let baseline: Vec<usize> = (0..10).map(|i| batch(0.05, 100 + i)).collect();
    let chart = PChart::fit(&baseline, 400).unwrap();
    // in-control batches stay quiet
    let ok: Vec<usize> = (0..5).map(|i| batch(0.05, 200 + i)).collect();
    assert!(chart.evaluate(&ok).is_empty(), "false alarms on {ok:?}");
    // the process degrades to 25% untagged → signal
    let bad = vec![batch(0.25, 300)];
    assert_eq!(chart.evaluate(&bad).len(), 1, "missed shift: {bad:?}");
}

#[test]
fn individuals_chart_on_quality_scores() {
    // Monitor a daily data-quality score; a sustained drop trips a rule.
    let healthy: Vec<f64> = (0..30).map(|i| 0.95 + 0.01 * ((i % 3) as f64 - 1.0)).collect();
    let chart = IndividualsChart::fit(&healthy).unwrap();
    assert!(chart.in_control(&healthy));
    let degraded: Vec<f64> = (0..10).map(|_| 0.80).collect();
    assert!(!chart.in_control(&degraded));
}

#[test]
fn certification_lifecycle_with_trail() {
    let today = Date::parse("10-24-91").unwrap();
    let rel = generate_customers(&CustomerGenConfig {
        rows: 300,
        untagged_prob: 0.3,
        tags_per_cell: 2,
        ..Default::default()
    })
    .unwrap();
    let inspector = Inspector::new().with_rule(InspectionRule::RequiredTag {
        column: "address".into(),
        indicator: "source".into(),
    });
    let mut trail = AuditTrail::new();

    // certification of the raw table fails (30% untagged)
    let mut cert = Certification::open("customer", "address");
    let report = cert
        .inspect(&inspector, &rel, &mut trail, today, "admin")
        .unwrap();
    assert!(!report.passed());

    // curate: keep only tagged rows, re-open, certify
    let curated_pred = Expr::IsNotNull(Box::new(Expr::col("address@source")));
    let mut curated = select(&rel, &curated_pred).unwrap();
    assert!(curated.len() < rel.len());
    let mut cert = Certification::open("customer", "address");
    let report = cert
        .inspect(&inspector, &curated, &mut trail, today, "admin")
        .unwrap();
    assert!(report.passed());
    cert.approve(&mut curated, &mut trail, today, "admin").unwrap();

    // the inspection tags are queryable like any other indicator
    let certified = select(
        &curated,
        &Expr::Like(
            Box::new(Expr::col("address@inspection")),
            "certified by admin%".into(),
        ),
    )
    .unwrap();
    assert_eq!(certified.len(), curated.len());

    // trail recorded both inspections and the approval
    assert_eq!(trail.len(), 3);
}

#[test]
fn enhancement_allocation_prefers_measured_weaknesses() {
    // Tie the allocator to assessment: benefits proportional to measured
    // quality gaps, then check the budget binds.
    let rel = generate_customers(&CustomerGenConfig {
        rows: 500,
        untagged_prob: 0.4,
        ..Default::default()
    })
    .unwrap();
    let tagged_share = rel
        .iter()
        .filter(|r| r[1].tag_count() > 0)
        .count() as f64
        / rel.len() as f64;
    let gap = 1.0 - tagged_share; // untagged fraction ≈ 0.4
    let projects = vec![
        Project {
            dataset: "address-tags".into(),
            description: "re-source untagged addresses".into(),
            cost: 8,
            benefit: 100.0 * gap,
        },
        Project {
            dataset: "gold-plating".into(),
            description: "re-verify already-tagged rows".into(),
            cost: 8,
            benefit: 100.0 * tagged_share * 0.05,
        },
        Project {
            dataset: "names".into(),
            description: "normalize names".into(),
            cost: 4,
            benefit: 10.0,
        },
    ];
    let alloc = allocate(&projects, 12);
    assert!(alloc.selected.contains(&0), "must fix the measured gap");
    assert!(alloc.total_cost <= 12);
    assert!(!alloc.selected.contains(&1), "no budget left for gold plating");
}

#[test]
fn custom_method_profiles_apply() {
    let mut rel = generate_customers(&CustomerGenConfig {
        rows: 1000,
        untagged_prob: 0.0,
        tags_per_cell: 3,
        ..Default::default()
    })
    .unwrap();
    rel.tag_column(
        "address",
        tagstore::IndicatorValue::new("collection_method", "telegraph"),
    )
    .unwrap();
    let profiles = vec![MethodProfile {
        method: "telegraph".into(),
        error_rate: 0.5,
        missing_rate: 0.0,
    }];
    let stats = inject_errors(&mut rel, "address", &profiles, 0.0, 9).unwrap();
    assert!(stats.corrupted > 350, "telegraph should corrupt ~half: {stats:?}");
    assert_eq!(stats.nulled, 0);
}

#[test]
fn audit_lineage_reconstructs_an_erred_transaction() {
    use dq_admin::AuditAction;
    let mut trail = AuditTrail::new();
    let key = vec![Value::Int(42)];
    let d = |s: &str| Date::parse(s).unwrap();
    trail.record(d("10-1-91"), "order desk", AuditAction::Create, "trade", key.clone(), None, "buy 100 FRT @ 10.25");
    trail.record(d("10-2-91"), "settlement", AuditAction::Transform, "trade", key.clone(), Some("quantity"), "lot split: 100 -> 2x50");
    trail.record(d("10-3-91"), "quality_admin", AuditAction::Inspect, "trade", key.clone(), None, "customer dispute opened");
    trail.record(d("10-4-91"), "order desk", AuditAction::Update, "trade", key.clone(), Some("quantity"), "corrected to 10 (keying error)");
    let lineage = trail.lineage("trade", &key);
    assert_eq!(lineage.len(), 4);
    // the trail pinpoints the step that introduced the bad value
    assert!(lineage[3].detail.contains("keying error"));
    let rendered = trail.render_lineage("trade", &key);
    assert!(rendered.contains("lot split"));
    assert!(rendered.contains("dispute"));
}
