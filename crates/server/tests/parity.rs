//! Concurrent-session parity: N client threads issuing randomized
//! quality-filtered queries against the server must get byte-identical
//! results to the same queries run embedded and serially — at 1, 2, and
//! 8 server worker threads (more clients than workers exercises the
//! multiplexing pump; more workers than cores exercises timesharing).

use dq_query::{run, QueryCatalog};
use dq_server::{render_result, start, Client, ServerConfig};
use proptest::prelude::*;
use relstore::{DataType, Schema};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

fn arb_rel() -> impl Strategy<Value = TaggedRelation> {
    prop::collection::vec((0i64..15, 0i64..15, prop::option::of(0i64..40)), 0..25).prop_map(
        |rows| {
            let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            let dict = IndicatorDictionary::with_paper_defaults();
            let rows = rows
                .into_iter()
                .map(|(k, v, age)| {
                    let mut cell = QualityCell::bare(v);
                    if let Some(a) = age {
                        cell.set_tag(IndicatorValue::new("age", a));
                    }
                    vec![QualityCell::bare(k), cell]
                })
                .collect();
            TaggedRelation::new(schema, dict, rows).unwrap()
        },
    )
}

/// The randomized workload: a mix of scans, quality filters, value
/// filters, and inspections parameterized by `a`/`b`.
fn workload(a: i64, b: i64) -> Vec<String> {
    vec![
        "SELECT * FROM t".to_string(),
        format!("SELECT * FROM t WHERE k >= {a}"),
        format!("SELECT * FROM t WITH QUALITY (v@age <= {b})"),
        format!("SELECT * FROM t WHERE k >= {a} WITH QUALITY (v@age <= {b})"),
        format!("SELECT k FROM t WITH QUALITY (v@age >= {b}) ORDER BY k"),
        "INSPECT FROM t".to_string(),
    ]
}

fn assert_parity(rel: &TaggedRelation, a: i64, b: i64, workers: usize, clients: usize) {
    let mut catalog = QueryCatalog::new();
    catalog.register("t", rel.clone());
    // embedded, serial reference
    let queries = workload(a, b);
    let expected: Vec<String> = queries
        .iter()
        .map(|q| render_result(&run(&catalog, q).unwrap()))
        .collect();

    let server = start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            stmt_cache_capacity: 32,
        },
        catalog,
    )
    .unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // each client walks the workload at a different phase so
                // different statements are in flight simultaneously
                for i in 0..queries.len() * 2 {
                    let qi = (i + ci) % queries.len();
                    let got = client.query(&queries[qi]).unwrap();
                    assert_eq!(
                        got, expected[qi],
                        "client {ci} diverged on `{}` (workers={workers})",
                        queries[qi]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

proptest! {
    /// 4 concurrent clients, workers ∈ {1, 2, 8}: every response equals
    /// the embedded serial rendering byte-for-byte.
    #[test]
    fn concurrent_sessions_match_embedded_serial(
        rel in arb_rel(),
        a in 0i64..15,
        b in 0i64..40,
    ) {
        for workers in [1usize, 2, 8] {
            assert_parity(&rel, a, b, workers, 4);
        }
    }
}
