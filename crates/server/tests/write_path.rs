//! The counters the O(delta) `TAG` claim rests on, read where nothing
//! else moves them. The metrics registry is process-wide, so this file
//! holds a single test: a durable server over a directory takes 50 ×
//! (`TAG` one ticker, `SELECT` it, `SELECT` another) over the wire.
//! Every reply is byte-equal to the embedded rendering; after the
//! warm-up no statement rebuilds the bitmap index (each `TAG`'s
//! successor entry inherits it), every `SELECT` is a key-hash point
//! lookup, no write conflicts; and a restart from the directory finds
//! the last tag of every ticker.

use dq_query::{run, run_mut, QueryCatalog};
use dq_server::{render_result, start_durable, Client, ServerConfig};
use dq_storage::{DurableDb, DurableOptions};
use relstore::{DataType, Schema};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

const TICKERS: usize = 10;
const ROUNDS: usize = 50;

fn stocks() -> TaggedRelation {
    let schema = Schema::of(&[("ticker", DataType::Text), ("share_price", DataType::Float)]);
    let rows = (0..200usize).map(|i| {
        let source = if i % 13 == 11 {
            "manual entry"
        } else {
            "NYSE feed"
        };
        let price = QualityCell::bare(10.0 + i as f64)
            .with_tag(IndicatorValue::new("source", source))
            .with_tag(IndicatorValue::new("age", (i % 40) as i64));
        vec![QualityCell::bare(format!("T{i}")), price]
    });
    TaggedRelation::new(
        schema,
        IndicatorDictionary::with_paper_defaults(),
        rows.collect(),
    )
    .unwrap()
}

fn select(ticker: usize) -> String {
    format!(
        "SELECT * FROM stocks WHERE ticker = 'T{ticker}' \
         WITH QUALITY (share_price@source <> 'manual entry' AND share_price@age <= 40)"
    )
}

fn tag(ticker: usize, value: usize) -> String {
    format!("TAG stocks SET share_price@inspection = 'audit-{value}' WHERE ticker = 'T{ticker}'")
}

#[test]
fn tag_inherits_the_index_and_survives_a_restart() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("write_path_db");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        stmt_cache_capacity: 64,
    };
    let rel = stocks();
    {
        let group = DurableOptions {
            group_commit: true,
            ..Default::default()
        };
        let (mut db, _) = DurableDb::open_dir(&dir, group).unwrap();
        db.create_tagged("stocks", rel.schema().clone(), rel.dictionary().clone())
            .unwrap();
        for row in rel.rows() {
            db.push("stocks", row.clone()).unwrap();
        }
        db.commit().unwrap();
    }

    // The script, and what an embedded catalog answers to it — computed
    // before the counters are read, so only the server moves them.
    let mut script = vec![select(0), tag(0, 0), select(0)]; // warm-up
    let warm_up = script.len();
    for round in 0..ROUNDS {
        let ticker = round % TICKERS;
        script.extend([
            tag(ticker, round),
            select(ticker),
            select((ticker + 3) % TICKERS),
        ]);
    }
    let mut embedded = QueryCatalog::new();
    embedded.register("stocks", rel);
    let expected: Vec<String> = script
        .iter()
        .map(|sql| render_result(&run_mut(&mut embedded, sql).unwrap()))
        .collect();

    let (db, _) = DurableDb::open_dir(&dir, DurableOptions::default()).unwrap();
    let server = start_durable(config(), db).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let counter = |name: &str| dq_obs::registry().counter(name).get();
    let mut before = [0u64; 3];
    const COUNTERS: [&str; 3] = [
        "tagstore.index.rebuilds",
        "query.point_lookups",
        "mvcc.write_conflicts",
    ];
    for (i, (sql, expect)) in script.iter().zip(&expected).enumerate() {
        if i == warm_up {
            before = COUNTERS.map(counter);
        }
        assert_eq!(&client.query(sql).unwrap(), expect, "statement {i}: {sql}");
    }
    let moved: Vec<u64> = COUNTERS
        .iter()
        .zip(before)
        .map(|(name, b)| counter(name) - b)
        .collect();
    assert_eq!(moved, [0, 2 * ROUNDS as u64, 0], "{COUNTERS:?}");
    // the write path is timed where it runs: one sample a TAG
    let spans = dq_obs::registry().snapshot();
    for name in [
        "server.write.prepare_us",
        "server.write.commit_us",
        "server.write.repin_us",
    ] {
        assert_eq!(spans.histograms[name].count, 1 + ROUNDS as u64, "{name}");
    }
    server.shutdown();

    // Restart from the directory: the log holds every acknowledged TAG.
    let (db, _) = DurableDb::open_dir(&dir, DurableOptions::default()).unwrap();
    let server = start_durable(config(), db).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for ticker in 0..TICKERS {
        let last = (0..ROUNDS).rev().find(|r| r % TICKERS == ticker).unwrap();
        let reply = client.query(&select(ticker)).unwrap();
        assert!(
            reply.contains(&format!("audit-{last}")),
            "T{ticker}: {reply}"
        );
        assert_eq!(
            reply,
            render_result(&run(&embedded, &select(ticker)).unwrap())
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
