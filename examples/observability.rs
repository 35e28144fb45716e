//! Observability smoke: EXPLAIN ANALYZE over the B7 query set and the
//! trading workload's quality-filtered join, then a validated dump of
//! the metrics registry.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! `scripts/ci.sh` runs this as a gate: the process exits nonzero if
//! the registry snapshot contains a NaN, negative, or inconsistent
//! metric after the sweep.

use dq_bench::{tagged_customers, today};
use dq_query::{explain_analyze, Planner, QueryCatalog};
use dq_workloads::{generate_trading, TradingGenConfig};
use tagstore::algebra::derive_age;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let planner = Planner::default();
    let mut catalog = QueryCatalog::new();

    // The B7 relation: tagged customers with a derived `age` indicator,
    // so the threshold dials selectivity from 0.1% to 90% (the bitmap
    // index wins the first three; the last stays a scan).
    let mut customers = tagged_customers(10_000, 4);
    derive_age(&mut customers, "employees", today())?;
    catalog.register("customer", customers);

    println!("== B7 query set: EXPLAIN ANALYZE at swept selectivity ==");
    for (label, max_age) in [("0.1%", 1i64), ("1%", 14), ("10%", 139), ("90%", 1253)] {
        let sql =
            format!("SELECT co_name FROM customer WITH QUALITY (employees@age <= {max_age})");
        println!("-- {label} ({sql})");
        print!("{}", explain_analyze(&catalog, &sql, &planner)?);
    }

    // The acceptance-criterion query: a quality-filtered join over the
    // trading workload (IndexScan feeding an IndexJoin).
    let w = generate_trading(&TradingGenConfig {
        clients: 30,
        stocks: 40,
        trades: 400,
        ..Default::default()
    })?;
    catalog.register("company_stock", w.stocks);
    catalog.register("trade", w.trades);
    let join = "SELECT l.ticker_symbol, quantity \
         FROM company_stock JOIN trade ON ticker_symbol = ticker_symbol \
         WITH QUALITY (share_price@source = 'manual entry')";
    println!("\n== trading workload: quality-filtered join ==");
    println!("-- {join}");
    print!("{}", explain_analyze(&catalog, join, &planner)?);

    // The served point query (the shape `dq-e2e`'s point workloads
    // send): `col = literal` is answered from the key-hash index, and
    // EXPLAIN ANALYZE — same walker as the server's lean path — says so.
    let ticker = &catalog.get("company_stock")?.cell(0, "ticker_symbol")?.value;
    let point = format!(
        "SELECT * FROM company_stock WHERE ticker_symbol = '{ticker}' \
         WITH QUALITY (share_price@source <> 'manual entry')"
    );
    println!("\n== trading workload: quality-filtered point query ==");
    println!("-- {point}");
    print!("{}", explain_analyze(&catalog, &point, &planner)?);

    // Dump and validate the registry: every counter and histogram the
    // sweep touched must be finite, non-negative, and self-consistent.
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
    println!("snapshot OK: all metrics finite and non-negative");
    Ok(())
}
