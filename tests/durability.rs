//! Restart-then-lineage: the administrator's "electronic trail" (§4)
//! must survive a crash. Events recorded through [`DurableDb::audit`]
//! ride the WAL alongside the data they describe, so after recovery the
//! trail answers the same lineage queries, byte for byte.

use dq_admin::AuditAction;
use dq_storage::{DurableDb, DurableOptions, MemFs};
use relstore::{DataType, Date, Schema, Value};
use std::sync::Arc;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, QualityIndex};

fn open(fs: &MemFs, group_commit: bool) -> (DurableDb, dq_storage::RecoveryReport) {
    DurableDb::open(
        Arc::new(fs.clone()),
        DurableOptions {
            group_commit,
            ..Default::default()
        },
    )
    .expect("open durable db")
}

fn d(s: &str) -> Date {
    Date::parse(s).unwrap()
}

/// The paper's running example: a stock row manufactured from a Nexis
/// feed, inspected, then corrected — each step on the trail.
fn manufacture(db: &mut DurableDb) {
    db.create_tagged(
        "stock",
        Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]),
        IndicatorDictionary::with_paper_defaults(),
    )
    .unwrap();
    db.push(
        "stock",
        vec![
            QualityCell::bare("Fruit Co"),
            QualityCell::bare(4004i64).with_tag(IndicatorValue::new("source", "Nexis")),
        ],
    )
    .unwrap();
    let key = vec![Value::text("Fruit Co")];
    db.audit(
        d("10-24-91"),
        "acct'g",
        AuditAction::Create,
        "stock",
        key.clone(),
        None,
        "row created from Nexis feed",
    )
    .unwrap();
    db.audit(
        d("10-25-91"),
        "quality_admin",
        AuditAction::Inspect,
        "stock",
        key.clone(),
        Some("employees"),
        "double-entry check passed",
    )
    .unwrap();
    db.tag_cell(
        "stock",
        0,
        "employees",
        IndicatorValue::new("inspection", "double-entry"),
    )
    .unwrap();
    db.audit(
        d("10-26-91"),
        "sales",
        AuditAction::Update,
        "stock",
        key,
        Some("employees"),
        "4004 -> 4010",
    )
    .unwrap();
}

#[test]
fn lineage_survives_restart() {
    let fs = MemFs::new();
    let (mut db, _) = open(&fs, false);
    manufacture(&mut db);
    let key = vec![Value::text("Fruit Co")];
    let before: Vec<_> = db
        .audit_trail()
        .lineage("stock", &key)
        .into_iter()
        .cloned()
        .collect();
    let report_before = db.audit_trail().render_lineage("stock", &key);
    drop(db);
    fs.crash();

    let (db, report) = open(&fs, false);
    assert!(report.replayed_records > 0, "restart must replay the trail");
    let after: Vec<_> = db
        .audit_trail()
        .lineage("stock", &key)
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(after, before, "lineage changed across restart");
    assert_eq!(
        db.audit_trail().render_lineage("stock", &key),
        report_before,
        "rendered trail changed across restart"
    );

    // cell-scoped lineage still separates the inspected column
    let cell = db.audit_trail().cell_lineage("stock", &key, "employees");
    assert_eq!(cell.len(), 3); // create (row-level) + inspect + update
    let other = db.audit_trail().cell_lineage("stock", &key, "name");
    assert_eq!(other.len(), 1); // only the row-level create

    // and the quality tags the events describe came back with the data
    let stock = db.tagged("stock").unwrap();
    let cell = stock.cell(0, "employees").unwrap();
    assert_eq!(cell.tag_value("source"), Value::text("Nexis"));
    assert_eq!(cell.tag_value("inspection"), Value::text("double-entry"));
}

#[test]
fn lineage_survives_checkpoint_plus_tail() {
    let fs = MemFs::new();
    let (mut db, _) = open(&fs, true);
    manufacture(&mut db);
    db.commit().unwrap();
    db.checkpoint().unwrap();

    // post-checkpoint events land in the WAL tail
    let key = vec![Value::text("Fruit Co")];
    db.audit(
        d("10-27-91"),
        "quality_admin",
        AuditAction::Certify,
        "stock",
        key.clone(),
        None,
        "certified after correction",
    )
    .unwrap();
    db.commit().unwrap();
    drop(db);
    fs.crash();

    let (db, report) = open(&fs, true);
    assert!(report.checkpoint.is_some());
    assert_eq!(report.replayed_records, 1, "only the certify rides the tail");
    let lineage = db.audit_trail().lineage("stock", &key);
    assert_eq!(lineage.len(), 4);
    assert_eq!(lineage[3].action, AuditAction::Certify);
    // sequence numbers are original, not renumbered during recovery
    let seqs: Vec<u64> = lineage.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);

    // new events continue the sequence after the replayed tail
    let mut db = db;
    let seq = db
        .audit(
            d("10-28-91"),
            "sales",
            AuditAction::Delete,
            "stock",
            key,
            None,
            "row retired",
        )
        .unwrap();
    assert_eq!(seq, 4);
}

/// After crash recovery, a tagged table's quality bitmap index is built
/// from the replayed rows by whoever reads them (the query catalog, on
/// the first indexed query); with enough rows that build runs chunked
/// across worker threads. Replay must yield the same rows whatever the
/// thread count, and the index built over them must be bit-for-bit
/// identical to a serial build of the same rows — the merge protocol
/// (per-posting bitset OR in chunk order) may not depend on scheduling.
#[test]
fn recovered_index_parallel_rebuild_matches_serial() {
    let fs = MemFs::new();
    let (mut db, _) = open(&fs, false);
    db.create_tagged(
        "stock",
        Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]),
        IndicatorDictionary::with_paper_defaults(),
    )
    .unwrap();
    let sources = ["Nexis", "manual entry", "NYSE feed"];
    for i in 0..533i64 {
        let mut cell = QualityCell::bare(i);
        if i % 4 != 3 {
            cell = cell.with_tag(IndicatorValue::new("source", sources[(i % 3) as usize]));
        }
        db.push(
            "stock",
            vec![QualityCell::bare(Value::text(format!("co-{i}"))), cell],
        )
        .unwrap();
    }
    drop(db);
    fs.crash();

    // replay the WAL once with 8 threads forced, once serially
    let (par_db, report) = relstore::par::with_thread_count(8, || open(&fs, false));
    assert!(report.replayed_records > 0, "restart must replay the rows");
    let (ser_db, _) = relstore::par::with_thread_count(1, || open(&fs, false));
    let par = par_db.tagged("stock").unwrap();
    let ser = ser_db.tagged("stock").unwrap();
    assert_eq!(par, ser, "rows diverged across replay");
    let parallel = relstore::par::with_thread_count(8, || QualityIndex::build(par));
    let serial = relstore::par::with_thread_count(1, || QualityIndex::build(ser));
    assert_eq!(parallel, serial, "parallel index rebuild diverged from serial");
}

#[test]
fn uncommitted_audit_events_die_with_the_crash() {
    let fs = MemFs::new();
    let (mut db, _) = open(&fs, true);
    manufacture(&mut db);
    db.commit().unwrap();
    db.audit(
        d("10-27-91"),
        "sales",
        AuditAction::Delete,
        "stock",
        vec![Value::text("Fruit Co")],
        None,
        "never committed",
    )
    .unwrap();
    drop(db);
    fs.crash();

    let (db, _) = open(&fs, true);
    let lineage = db
        .audit_trail()
        .lineage("stock", &[Value::text("Fruit Co")]);
    assert_eq!(lineage.len(), 3, "uncommitted event must not resurrect");
    assert!(lineage.iter().all(|e| e.detail != "never committed"));
}
