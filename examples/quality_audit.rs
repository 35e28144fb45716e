//! The administrator's perspective (§4): inspection, statistical process
//! control over manufacturing error rates, the electronic trail for an
//! erred transaction, certification, and budgeted quality enhancement.
//!
//! ```sh
//! cargo run --example quality_audit
//! ```

use dq_admin::{
    allocate, allocate_greedy, AuditAction, AuditTrail, Certification, InspectionRule, Inspector,
    PChart, Project,
};
use dq_workloads::{default_profiles, generate_customers, inject_errors, CustomerGenConfig};
use relstore::{Date, Expr, Value};
use tagstore::{selection_columnar, ColumnarRelation, DEFAULT_BATCH_SIZE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let today = Date::parse("10-24-91")?;

    // --- Inspection ("✓ inspection" made operational) ---------------------
    let mut rel = generate_customers(&CustomerGenConfig {
        rows: 2000,
        untagged_prob: 0.08,
        tags_per_cell: 3,
        ..Default::default()
    })?;
    let inspector = Inspector::new()
        .with_rule(InspectionRule::RequiredTag {
            column: "address".into(),
            indicator: "source".into(),
        })
        .with_rule(InspectionRule::Freshness {
            column: "address".into(),
            max_age_days: 3 * 365,
            as_of: today,
        })
        .with_rule(InspectionRule::TagDomain {
            column: "address".into(),
            indicator: "collection_method".into(),
            allowed: vec![
                Value::text("over the phone"),
                Value::text("from an information service"),
                Value::text("bar code scanner"),
                Value::text("keyed entry"),
            ],
        });
    let report = inspector.inspect(&rel)?;
    println!(
        "inspection: {} rows, {} violations, violation rate {:.2}%\n",
        report.rows_inspected,
        report.violations.len(),
        100.0 * report.violation_rate()
    );

    // --- SPC over batch error rates ---------------------------------------
    // Baseline batches of 500 records with the historical ~3% keying error
    // rate; then the upstream process degrades.
    let baseline: Vec<usize> = vec![15, 14, 16, 15, 13, 17, 15, 14, 16, 15];
    let chart = PChart::fit(&baseline, 500).expect("baseline fits");
    let (lcl, ucl) = chart.limits();
    println!("p-chart fitted: limits [{lcl:.4}, {ucl:.4}]");
    let incoming = vec![16, 14, 15, 41, 38, 15]; // two bad batches
    let signals = chart.evaluate(&incoming);
    for s in &signals {
        println!("  OUT OF CONTROL at batch {}: {}", s.index, s.detail);
    }
    assert_eq!(signals.len(), 2);

    // --- Electronic trail for an erred transaction -------------------------
    let mut trail = AuditTrail::new();
    let key = vec![Value::text("Nut Co")];
    trail.record(
        Date::parse("10-9-91")?,
        "estimate",
        AuditAction::Create,
        "customer",
        key.clone(),
        Some("employees"),
        "recorded 700 (estimate)",
    );
    trail.record(
        Date::parse("10-20-91")?,
        "batch_import",
        AuditAction::Transform,
        "customer",
        key.clone(),
        Some("employees"),
        "normalized units",
    );
    trail.record(
        today,
        "quality_admin",
        AuditAction::Inspect,
        "customer",
        key.clone(),
        Some("employees"),
        "flagged: disagrees with annual report",
    );
    println!("\n{}", trail.render_lineage("customer", &key));

    // --- Certification -----------------------------------------------------
    // Certify the address column once inspection is clean: re-inspect a
    // curated subset (rows that pass all rules).
    // rows with a sourced address, created within the freshness horizon
    let clean_pred = Expr::col("address@source")
        .ne(Expr::lit(""))
        .and(Expr::col("address@creation_time").ge(Expr::lit(today.plus_days(-3 * 365))));
    let layout = ColumnarRelation::from_tagged(&rel);
    let (kept, _) = selection_columnar(&layout, &clean_pred, DEFAULT_BATCH_SIZE)?;
    let mut clean = layout.gather(&kept);
    let mut cert = Certification::open("customer", "address");
    let r = cert.inspect(&inspector, &clean, &mut trail, today, "quality_admin")?;
    println!("certification inspection: {} violations", r.violations.len());
    if r.passed() {
        cert.approve(&mut clean, &mut trail, today, "quality_admin")?;
        println!("address column certified; cells now carry `inspection` tags");
    }

    // --- Budgeted enhancement (Ballou & Tayi) ------------------------------
    let projects = vec![
        Project {
            dataset: "customer.address".into(),
            description: "re-verify purchased addresses by phone".into(),
            cost: 6,
            benefit: 30.0,
        },
        Project {
            dataset: "customer.employees".into(),
            description: "replace estimates with Nexis lookups".into(),
            cost: 5,
            benefit: 24.0,
        },
        Project {
            dataset: "customer.co_name".into(),
            description: "registry reconciliation".into(),
            cost: 5,
            benefit: 24.0,
        },
    ];
    let budget = 10;
    let optimal = allocate(&projects, budget);
    let greedy = allocate_greedy(&projects, budget);
    println!(
        "\nenhancement budget {budget}: optimal benefit {:.0} (projects {:?}), \
         greedy benefit {:.0}",
        optimal.total_benefit, optimal.selected, greedy.total_benefit
    );
    assert!(optimal.total_benefit >= greedy.total_benefit);

    // Error injection sanity: collection methods really differ.
    let stats = inject_errors(&mut rel, "employees", &default_profiles(), 0.02, 3)?;
    println!(
        "\nerror injection over employees: {} corrupted, {} nulled of {}",
        stats.corrupted, stats.nulled, stats.considered
    );
    Ok(())
}
