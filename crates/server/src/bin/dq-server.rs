//! `dq-server` binary: serves a demo catalog (the paper's stocks
//! example) over TCP.
//!
//! ```text
//! dq-server [--addr HOST:PORT] [--workers N]
//! ```
//!
//! Prints the bound address on stdout (`listening on 127.0.0.1:4040`)
//! and serves until killed. Connect with `dq_server::Client`.

use dq_query::QueryCatalog;
use dq_server::{start, ServerConfig};
use relstore::{DataType, Date, Schema, Value};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

/// The paper's Table-1 stocks example, pre-tagged, so a fresh server is
/// immediately queryable.
fn demo_catalog() -> QueryCatalog {
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
    let stocks = TaggedRelation::new(
        schema,
        dict,
        vec![
            mk("FRT", 10.0, "10-20-91", "NYSE feed"),
            mk("NUT", 20.0, "10-1-91", "NYSE feed"),
            mk("BLT", 30.0, "9-1-91", "manual entry"),
        ],
    )
    .expect("demo relation");
    let mut catalog = QueryCatalog::new();
    catalog.register("stocks", stocks);
    catalog
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4040".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = args.next().unwrap_or_else(|| usage("--addr needs a value"))
            }
            "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a positive integer"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let server = match start(config, demo_catalog()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dq-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    println!("demo table: stocks (ticker, share_price) — try:");
    println!("  SELECT * FROM stocks WITH QUALITY (share_price@source = 'NYSE feed')");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("dq-server: {err}");
    }
    eprintln!("usage: dq-server [--addr HOST:PORT] [--workers N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
