//! Durability smoke: write through the WAL, "crash" (drop the process
//! state without flushing the pending group commit), recover from disk,
//! and verify that committed work — including the audit trail's lineage
//! — survives while the uncommitted tail is gone. A second round does
//! the same through the paged heap under a minimum-size buffer pool, so
//! eviction write-back and the dirty-page checkpoint are on the path,
//! then gates on the `storage.*` pool counters.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```
//!
//! `scripts/ci.sh` runs this as a gate: the process exits nonzero if
//! recovery loses committed state, resurrects uncommitted state, or the
//! metrics registry snapshot is missing/invalid after the round trip.

use dq_admin::AuditAction;
use dq_storage::{DurableDb, DurableOptions, MIN_FRAMES};
use relstore::{DataType, Date, Schema, Value};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("dq_crash_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let opts = || DurableOptions {
        group_commit: true,
        ..Default::default()
    };

    // ---- phase 1: manufacture data, then crash mid-flight ----
    {
        let (mut db, _) = DurableDb::open_dir(dir, opts())?;
        db.create_tagged(
            "company",
            Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
            IndicatorDictionary::with_paper_defaults(),
        )?;
        db.push("company", vec![QualityCell::bare("FRT"), QualityCell::bare(10.5)])?;
        db.create_tagged(
            "stock",
            Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]),
            IndicatorDictionary::with_paper_defaults(),
        )?;
        db.push(
            "stock",
            vec![
                QualityCell::bare("Fruit Co"),
                QualityCell::bare(4004i64).with_tag(IndicatorValue::new("source", "Nexis")),
            ],
        )?;
        db.audit(
            Date::parse("10-24-91")?,
            "acct'g",
            AuditAction::Create,
            "stock",
            vec![Value::text("Fruit Co")],
            None,
            "row created from Nexis feed",
        )?;
        db.audit(
            Date::parse("10-25-91")?,
            "quality_admin",
            AuditAction::Inspect,
            "stock",
            vec![Value::text("Fruit Co")],
            Some("employees"),
            "double-entry check passed",
        )?;
        db.commit()?; // everything above is durable: one fsync

        // ... and a tail the crash must erase: never committed
        db.push("company", vec![QualityCell::bare("BLT"), QualityCell::bare(1.0)])?;
        db.audit(
            Date::parse("10-26-91")?,
            "sales",
            AuditAction::Update,
            "stock",
            vec![Value::text("Fruit Co")],
            Some("employees"),
            "4004 -> 4010 (uncommitted)",
        )?;
        println!("crash with {} records pending in the group-commit buffer", db.pending_records());
        drop(db); // the pending frames die with the process
    }

    // ---- phase 2: recover and audit the survivors ----
    let (mut db, report) = DurableDb::open_dir(dir, opts())?;
    println!(
        "recovered: checkpoint={:?} replayed={} truncated_bytes={}",
        report.checkpoint, report.replayed_records, report.truncated_bytes
    );
    assert_eq!(report.replayed_records, 6, "the committed group is 6 records");
    assert_eq!(db.tagged("company")?.len(), 1, "uncommitted push must be gone");
    let stock = db.tagged("stock")?;
    assert_eq!(
        stock.cell(0, "employees")?.tag_value("source"),
        Value::text("Nexis"),
        "cell tags survive recovery"
    );
    let lineage = db
        .audit_trail()
        .lineage("stock", &[Value::text("Fruit Co")]);
    assert_eq!(lineage.len(), 2, "committed trail survives, uncommitted event is gone");
    print!(
        "{}",
        db.audit_trail()
            .render_lineage("stock", &[Value::text("Fruit Co")])
    );

    // A checkpoint collapses the log; the next open replays nothing.
    let ckpt = db.checkpoint()?;
    drop(db);
    let (db, report) = DurableDb::open_dir(dir, opts())?;
    println!("reopened after checkpoint {ckpt}: replayed={}", report.replayed_records);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(db.audit_trail().len(), 2);
    drop(db);

    // ---- phase 3: paged relation under a tiny pinning pool ----
    // Small pages + a minimum-size pool force the buffer pool to evict
    // (and write back dirty pages through the WAL gate) during a plain
    // load, so the storage.* counters below measure real traffic.
    let paged_dir = dir.join("paged");
    let popts = || DurableOptions {
        group_commit: true,
        page_size: 512,
        pool_pages: MIN_FRAMES,
        ..Default::default()
    };
    let trade = |i: i64| -> Vec<QualityCell> {
        let mut sym = QualityCell::bare(format!("sym{}", i % 7));
        if i % 3 == 0 {
            sym.set_tag(IndicatorValue::new("source", "feed"));
        }
        vec![QualityCell::bare(i), sym]
    };
    {
        let (mut db, _) = DurableDb::open_dir(&paged_dir, popts())?;
        db.create_paged(
            "trades",
            Schema::of(&[("id", DataType::Int), ("sym", DataType::Text)]),
            IndicatorDictionary::with_paper_defaults(),
        )?;
        for i in 0..200 {
            db.paged_push("trades", trade(i))?;
        }
        db.commit()?;
        db.checkpoint()?; // dirty-page checkpoint: flushes only what changed
        db.paged_tag_cell("trades", 17, "sym", IndicatorValue::new("inspection", "audited"))?;
        db.commit()?;

        // ... and an uncommitted paged tail the crash must erase
        db.paged_push("trades", trade(200))?;
        println!(
            "paged crash with {} records pending, {} pages resident",
            db.pending_records(),
            db.pool_resident()
        );
        drop(db);
    }
    let (mut db, report) = DurableDb::open_dir(&paged_dir, popts())?;
    println!(
        "paged recovered: checkpoint={:?} replayed={}",
        report.checkpoint, report.replayed_records
    );
    assert_eq!(db.paged_len("trades")?, 200, "uncommitted paged push must be gone");
    for i in 0..200 {
        let mut want = trade(i);
        if i == 17 {
            want[1].set_tag(IndicatorValue::new("inspection", "audited"));
        }
        let got = db.paged_row("trades", i as u64)?;
        assert_eq!(
            got[..],
            want[..],
            "paged row {i} must survive crash byte-for-byte"
        );
    }
    assert_eq!(
        db.paged_row("trades", 17)?[1].tag_value("inspection"),
        Value::text("audited"),
        "committed paged tag survives recovery"
    );
    drop(db);

    // ---- metrics gate ----
    let snap = dq_obs::registry().snapshot();
    println!("\n== metrics registry ==");
    print!("{}", snap.render_text());
    if let Err(errs) = snap.validate() {
        eprintln!("metrics snapshot failed validation:");
        for e in &errs {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    for name in [
        "wal.append",
        "wal.fsync",
        "recovery.replay",
        "storage.pool.hits",
        "storage.pool.evictions",
        "storage.pool.dirty_flushes",
        "storage.checkpoint.pages_flushed",
    ] {
        if snap.counter(name) == 0 {
            eprintln!("expected metric `{name}` missing or zero after recovery");
            std::process::exit(1);
        }
    }
    let (hits, misses) = (snap.counter("storage.pool.hits"), snap.counter("storage.pool.misses"));
    println!(
        "pool traffic: {hits} hits / {misses} misses (hit rate {:.3}), {} evictions, {} dirty flushes",
        hits as f64 / (hits + misses).max(1) as f64,
        snap.counter("storage.pool.evictions"),
        snap.counter("storage.pool.dirty_flushes"),
    );
    println!("snapshot OK: durability metrics present, all values finite and non-negative");
    Ok(())
}
