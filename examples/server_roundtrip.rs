//! Server round-trip smoke: boot a `dq-server` on an ephemeral port,
//! hit it with a 4-client burst of quality-filtered queries, and check
//! the whole concurrent path end to end.
//!
//! ```sh
//! cargo run --release --example server_roundtrip
//! ```
//!
//! `scripts/ci.sh` runs this as a gate. The process exits nonzero if
//!
//! * any response differs byte-for-byte from the same query run
//!   embedded and serially (the concurrent sessions must be invisible
//!   in the results), or
//! * the burst records zero prepared-statement cache hits (each client
//!   repeats its workload, so the second pass must hit), or
//! * a TAG written through one session is not visible to a fresh
//!   session afterwards (snapshot publication), or
//! * the `server.*` / `query.*` metrics snapshot fails validation
//!   (NaN, negative, or inconsistent values).

use dq_query::{run, QueryCatalog};
use dq_server::{render_result, start, Client, ServerConfig};
use relstore::{DataType, Schema};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

fn fail(msg: &str) -> ! {
    eprintln!("server smoke FAILED: {msg}");
    std::process::exit(1);
}

/// A small quotes table with per-cell `source` and `age` tags so the
/// quality predicates have something to chew on.
fn quotes() -> TaggedRelation {
    let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let data = (0..64)
        .map(|i| {
            let source = if i % 4 == 0 { "manual entry" } else { "NYSE feed" };
            vec![
                QualityCell::bare(format!("T{i:03}")),
                QualityCell::bare(i as f64)
                    .with_tag(IndicatorValue::new("source", source))
                    .with_tag(IndicatorValue::new("age", (i % 30) as i64)),
            ]
        })
        .collect();
    TaggedRelation::new(schema, dict, data).expect("fixture")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = QueryCatalog::new();
    catalog.register("quotes", quotes());

    let workload: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "SELECT * FROM quotes WHERE ticker = 'T{:03}' \
                 WITH QUALITY (price@source = 'NYSE feed' AND price@age <= 20)",
                (i * 13) % 64
            )
        })
        .collect();
    let expected: Vec<String> = workload
        .iter()
        .map(|q| render_result(&run(&catalog, q).expect("embedded run")))
        .collect();

    let server = start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            stmt_cache_capacity: 64,
        },
        catalog,
    )?;
    let addr = server.addr();
    println!("server smoke: listening on {addr}, 4-client burst x2 passes");

    // -- 4-client burst, two passes each (second pass must cache-hit) --
    let hits = dq_obs::counter!("server.stmt_cache.hits");
    let h0 = hits.get();
    let threads: Vec<_> = (0..4)
        .map(|ci| {
            let workload = workload.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for pass in 0..2 {
                    for i in 0..workload.len() {
                        let qi = (i + ci) % workload.len();
                        let got = client.query(&workload[qi]).expect("query");
                        assert_eq!(
                            got, expected[qi],
                            "client {ci} pass {pass} diverged on `{}`",
                            workload[qi]
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        if t.join().is_err() {
            fail("a burst client diverged from the embedded serial results");
        }
    }
    let burst_hits = hits.get() - h0;
    if burst_hits == 0 {
        fail("burst recorded zero stmt-cache hits; repeated statements must hit");
    }
    println!("server smoke: burst parity ok, {burst_hits} stmt-cache hits");

    // -- a write published through one session reaches a fresh one ----
    let mut writer = Client::connect(addr)?;
    writer.query("TAG quotes SET price@inspection = 'checked' WHERE ticker = 'T001'")?;
    let mut reader = Client::connect(addr)?;
    let seen =
        reader.query("SELECT ticker FROM quotes WITH QUALITY (price@inspection = 'checked')")?;
    if !seen.contains("T001") {
        fail("published TAG write is invisible to a fresh session");
    }
    println!("server smoke: TAG write visible across sessions");

    // -- metrics: the server counters moved and the snapshot is sane --
    let snap = dq_obs::registry().snapshot();
    if snap.counter("server.connections") < 6 {
        fail("server.connections undercounts the smoke's sessions");
    }
    if snap.counter("server.stmt_cache.misses") == 0 {
        fail("first executions must record stmt-cache misses");
    }
    if let Err(errs) = snap.validate() {
        eprintln!("metrics snapshot failed validation:");
        for e in &errs {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("server smoke: metrics snapshot OK");
    Ok(())
}
