//! Snapshot-isolation guarantees under concurrent TAG bursts, and the
//! epoch line surviving a durable-server restart.
//!
//! The live-prefix property: with one writer applying a random TAG
//! burst and readers probing concurrently, every response a reader
//! gets must render exactly some *committed prefix* of the burst —
//! never a torn in-between state — and each reader's view must move
//! monotonically forward through those prefixes.

use dq_query::{run, run_mut, QueryCatalog};
use dq_server::{render_result, start, start_durable, Client, ServerConfig, ServerHandle};
use dq_storage::{DurableDb, DurableOptions, MemFs};
use proptest::prelude::*;
use relstore::{DataType, Date, Schema, Value};
use std::sync::Arc;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

const TICKERS: [&str; 3] = ["FRT", "NUT", "BLT"];
const GRADES: [&str; 4] = ["A", "B", "C", "D"];

/// The probe renders the full Table-2 manufacturing view, so any two
/// distinct tag states render differently and a torn state renders
/// like neither neighbor.
const PROBE: &str = "INSPECT FROM stocks";

fn stocks() -> TaggedRelation {
    let schema = Schema::of(&[("ticker", DataType::Text), ("share_price", DataType::Float)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let d = |s: &str| Value::Date(Date::parse(s).unwrap());
    let mk = |t: &str, p: f64, ct: &str, src: &str| {
        vec![
            QualityCell::bare(t),
            QualityCell::bare(p)
                .with_tag(IndicatorValue::new("creation_time", d(ct)))
                .with_tag(IndicatorValue::new("source", src)),
        ]
    };
    TaggedRelation::new(
        schema,
        dict,
        vec![
            mk("FRT", 10.0, "10-20-91", "NYSE feed"),
            mk("NUT", 20.0, "10-1-91", "NYSE feed"),
            mk("BLT", 30.0, "9-1-91", "manual entry"),
        ],
    )
    .unwrap()
}

fn catalog() -> QueryCatalog {
    let mut c = QueryCatalog::new();
    c.register("stocks", stocks());
    c
}

fn tag_sql(ticker: &str, grade: &str) -> String {
    format!("TAG stocks SET share_price@inspection = '{grade}' WHERE ticker = '{ticker}'")
}

/// Serially replays the burst on a private catalog, collecting the
/// probe rendering after each committed prefix (index 0 = no ops).
fn committed_renderings(ops: &[String]) -> Vec<String> {
    let mut cat = catalog();
    let mut out = vec![render_result(&run(&cat, PROBE).unwrap())];
    for sql in ops {
        run_mut(&mut cat, sql).unwrap();
        out.push(render_result(&run(&cat, PROBE).unwrap()));
    }
    out
}

/// Runs the burst against a live server while `readers` concurrent
/// clients probe, asserting every observed rendering is a committed
/// prefix and each reader only moves forward.
fn assert_live_prefix(server: &ServerHandle, ops: &[String], readers: usize) {
    let committed = committed_renderings(ops);
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut probes = Vec::new();
        for _ in 0..readers {
            let done = Arc::clone(&done);
            let addr = server.addr();
            let committed = &committed;
            probes.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last = 0usize; // smallest prefix still admissible
                let mut seen = 0usize;
                loop {
                    let got = client.query(PROBE).unwrap();
                    let at = committed
                        .iter()
                        .enumerate()
                        .skip(last)
                        .find(|(_, r)| **r == got)
                        .map(|(i, _)| i);
                    match at {
                        Some(i) => last = i,
                        None => {
                            // Either a torn/uncommitted state, or a
                            // state this reader had already moved past.
                            let anywhere = committed.iter().position(|r| *r == got);
                            panic!(
                                "reader saw non-prefix state (matches index {anywhere:?}, \
                                 already at {last}):\n{got}"
                            );
                        }
                    }
                    seen += 1;
                    if done.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                }
                (last, seen)
            }));
        }

        let mut writer = Client::connect(server.addr()).unwrap();
        for sql in ops {
            writer.query(sql).unwrap();
        }
        // The writer session re-pins after its own write, so this is
        // read-your-writes: the final state must be visible to it.
        assert_eq!(
            writer.query(PROBE).unwrap(),
            *committed.last().unwrap(),
            "writer must see its own final write"
        );
        done.store(true, std::sync::atomic::Ordering::SeqCst);

        for p in probes {
            let (last, seen) = p.join().unwrap();
            assert!(seen > 0, "reader made no probes");
            assert!(last < committed.len());
        }
    });
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        stmt_cache_capacity: 32,
    }
}

proptest! {
    /// A concurrent reader during a random TAG burst always observes a
    /// committed epoch prefix, and only ever moves forward — at 1, 2,
    /// and 8 workers.
    #[test]
    fn readers_observe_only_committed_prefixes(
        burst in prop::collection::vec((0usize..3, 0usize..4), 1..8),
    ) {
        let ops: Vec<String> = burst
            .iter()
            .map(|&(t, g)| tag_sql(TICKERS[t], GRADES[g]))
            .collect();
        for workers in [1usize, 2, 8] {
            let server = start(config(workers), catalog()).unwrap();
            assert_live_prefix(&server, &ops, 2);
            server.shutdown();
        }
    }
}

/// A long-lived pin really is a snapshot: a catalog pinned before a
/// write keeps rendering the old state after the write publishes.
#[test]
fn pinned_snapshot_is_immutable_across_publishes() {
    let server = start(config(1), catalog()).unwrap();
    let before = server.catalog().pin();
    let before_render = render_result(&run(before.value(), PROBE).unwrap());

    let mut writer = Client::connect(server.addr()).unwrap();
    writer.query(&tag_sql("FRT", "A")).unwrap();

    assert!(server.catalog().published_epoch() > before.epoch());
    // the old pin still renders the pre-write state
    assert_eq!(
        render_result(&run(before.value(), PROBE).unwrap()),
        before_render
    );
    // while a fresh pin sees the tag
    let after = server.catalog().pin();
    assert_ne!(
        render_result(&run(after.value(), PROBE).unwrap()),
        before_render
    );
    server.shutdown();
}

/// Tags written through a durable server survive a restart, and the
/// published epoch resumes from (at least) where it left off.
#[test]
fn durable_server_restart_preserves_tags_and_epoch() {
    let fs: Arc<MemFs> = Arc::new(MemFs::default());

    // Seed the database (autocommit: every op durable immediately).
    {
        let (mut db, _) = DurableDb::open(fs.clone(), DurableOptions::default()).unwrap();
        let rel = stocks();
        db.create_tagged("stocks", rel.schema().clone(), rel.dictionary().clone())
            .unwrap();
        for row in rel.rows() {
            db.push("stocks", row.clone()).unwrap();
        }
    }

    let serving = DurableOptions {
        group_commit: true, // one fsync + one epoch per TAG statement
        ..DurableOptions::default()
    };
    let epoch_after_write;
    let tagged_render;
    {
        let (db, _) = DurableDb::open(fs.clone(), serving.clone()).unwrap();
        let server = start_durable(config(2), db).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.query(&tag_sql("NUT", "A")).unwrap();
        tagged_render = client.query(PROBE).unwrap();
        assert!(tagged_render.contains('A'), "probe: {tagged_render}");
        epoch_after_write = server.catalog().published_epoch();
        server.shutdown();
    }

    // Restart from the same filesystem: the tag is still there and the
    // epoch line continues rather than restarting from zero.
    let (db, report) = DurableDb::open(fs, serving).unwrap();
    assert!(
        report.epoch >= epoch_after_write,
        "recovered epoch {} must not regress below published {}",
        report.epoch,
        epoch_after_write
    );
    let server = start_durable(config(2), db).unwrap();
    assert!(server.catalog().published_epoch() >= epoch_after_write);
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.query(PROBE).unwrap(), tagged_render);
    server.shutdown();
}
