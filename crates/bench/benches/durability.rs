//! B8 — durability: WAL append throughput and recovery time.
//!
//! Two series over an in-memory `Fs` (so disk hardware drops out and the
//! numbers isolate the logging protocol itself):
//!
//! * `B8/wal/append` — rows/s through `DurableDb::push` (bare cells), with
//!   group commit (one fsync per batch) vs. autocommit (one fsync per row).
//!   The gap between the two curves is the fsync amplification the group
//!   commit buffer removes.
//! * `B8/wal/recover` — `DurableDb::open` against a log of
//!   `DQ_BENCH_WAL_TIERS` committed records (default 1k/10k/50k), both
//!   as a pure tail replay and after a checkpoint collapsed the log.
//!   Both scale with the data, but the checkpointed open only pays
//!   snapshot decode — no per-record redo — so it should win by a
//!   constant factor that grows with op/row ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_storage::{DurableDb, DurableOptions, MemFs};
use relstore::{DataType, Schema};
use std::sync::Arc;
use tagstore::{IndicatorDictionary, QualityCell, TaggedRow};

/// Rows appended per measured batch.
const BATCH: usize = 256;

/// Log-length tiers for the recovery series (`DQ_BENCH_WAL_TIERS=1000`).
fn tiers() -> Vec<usize> {
    std::env::var("DQ_BENCH_WAL_TIERS")
        .unwrap_or_else(|_| "1000,10000,50000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn schema() -> Schema {
    Schema::of(&[("id", DataType::Int), ("v", DataType::Text)])
}

fn open_empty(group_commit: bool) -> DurableDb {
    let opts = DurableOptions {
        group_commit,
        ..Default::default()
    };
    let (mut db, _) = DurableDb::open(Arc::new(MemFs::new()), opts).expect("open empty fs");
    db.create_tagged("t", schema(), IndicatorDictionary::with_paper_defaults())
        .expect("create relation");
    db.commit().expect("commit ddl");
    db
}

fn row(i: usize) -> TaggedRow {
    TaggedRow::from([QualityCell::bare(i as i64), QualityCell::bare("payload-0123456789")])
}

/// A MemFs holding a clean log of `records` committed pushes,
/// checkpointed first when `checkpointed`.
fn logged_fs(records: usize, checkpointed: bool) -> Arc<MemFs> {
    let fs = Arc::new(MemFs::new());
    let (mut db, _) =
        DurableDb::open(fs.clone(), DurableOptions::default()).expect("open empty fs");
    db.create_tagged("t", schema(), IndicatorDictionary::with_paper_defaults())
        .expect("create relation");
    for i in 0..records {
        db.push("t", row(i)).expect("push");
    }
    db.commit().expect("commit");
    if checkpointed {
        db.checkpoint().expect("checkpoint");
    }
    fs
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("B8/wal/append");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BATCH as u64));
    for (label, group_commit) in [("group_commit", true), ("autocommit", false)] {
        let mut db = open_empty(group_commit);
        let mut next = 0usize;
        g.bench_function(BenchmarkId::new(label, BATCH), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    db.push("t", row(next)).expect("push");
                    next += 1;
                }
                db.commit().expect("commit");
            })
        });
    }
    g.finish();
}

fn bench_recover(c: &mut Criterion) {
    for records in tiers() {
        let mut g = c.benchmark_group(format!("B8/wal/recover/{records}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(records as u64));
        for (label, checkpointed) in [("replay", false), ("from_checkpoint", true)] {
            let fs = logged_fs(records, checkpointed);
            // sanity: recovery really does (or doesn't) replay the tail
            let (_, report) =
                DurableDb::open(fs.clone(), DurableOptions::default()).expect("recover");
            if checkpointed {
                assert_eq!(report.replayed_records, 0, "checkpoint should swallow the log");
            } else {
                // +1 for the create record
                assert_eq!(report.replayed_records, records as u64 + 1);
            }
            g.bench_function(BenchmarkId::new(label, records), |b| {
                b.iter(|| {
                    let (db, report) = DurableDb::open(fs.clone(), DurableOptions::default())
                        .expect("recover");
                    assert_eq!(db.tagged("t").expect("relation t").len(), records);
                    report
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_append, bench_recover);
criterion_main!(benches);
