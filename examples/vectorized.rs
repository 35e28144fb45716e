//! Vectorized-execution smoke: row-at-a-time vs. batched operators over
//! the shared customer fixture, then a validated dump of the `vector.*`
//! metrics the batch pipeline emitted.
//!
//! ```sh
//! cargo run --release --example vectorized
//! ```
//!
//! `scripts/ci.sh` runs this as a gate. The process exits nonzero if
//!
//! * any vectorized operator disagrees with its row-at-a-time twin
//!   (rows *and* cell-level tags), or
//! * the metrics snapshot contains a NaN, negative, or inconsistent
//!   value, or
//! * the σ-pipeline invariant `batches × batch_size ≥ rows_out` fails.

use dq_bench::{tagged_customers, tagged_join_partner, today};
use dq_query::{explain_analyze, Planner, QueryCatalog};
use relstore::index::HashIndex;
use relstore::{par, Expr};
use tagstore::algebra as ta;
use tagstore::bitmap::QualityIndex;
use tagstore::{hash_join_probe_vectorized, select_vectorized, DEFAULT_BATCH_SIZE};

fn fail(msg: &str) -> ! {
    eprintln!("vectorized smoke FAILED: {msg}");
    std::process::exit(1);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 20_000;
    let mut rel = tagged_customers(rows, 4);
    ta::derive_age(&mut rel, "employees", today())?;
    let pred = Expr::col("employees@age")
        .le(Expr::lit(700i64))
        .and(Expr::col("employees@source").ne(Expr::lit("estimate")));

    // σ: scan path, at several batch widths and forced thread counts
    println!("== σ parity: select vs select_vectorized ({rows} rows) ==");
    let reference = ta::select(&rel, &pred)?;
    for threads in [1usize, 2, 8] {
        for batch in [1usize, 7, DEFAULT_BATCH_SIZE] {
            let (got, stats) =
                par::with_thread_count(threads, || select_vectorized(&rel, &pred, batch))?;
            if got != reference {
                fail(&format!("σ mismatch at threads={threads} batch={batch}"));
            }
            if stats.batches * stats.batch_size < stats.rows_out {
                fail(&format!(
                    "batch accounting: {} batches × {} < {} rows out",
                    stats.batches, stats.batch_size, stats.rows_out
                ));
            }
        }
    }
    println!("OK: {} of {rows} rows at 1/2/8 threads × batch 1/7/1024", reference.len());

    // ⋈: prebuilt-index probe
    println!("== join-probe parity ==");
    let right = tagged_join_partner(2_000);
    let ri = right.schema().resolve("co_name")?;
    let keys: Vec<relstore::Row> = right
        .rows()
        .iter()
        .map(|r| vec![r[ri].value.clone()])
        .collect();
    let mut idx = HashIndex::new(vec![0]);
    idx.rebuild(&keys);
    let probe_rows = ta::hash_join_probe(&rel, &right, "co_name", "co_name", &idx)?;
    let (probe_batched, _) =
        hash_join_probe_vectorized(&rel, &right, "co_name", "co_name", &idx, DEFAULT_BATCH_SIZE)?;
    if probe_rows != probe_batched {
        fail("join probe mismatch");
    }
    println!("OK: {} joined rows", probe_batched.len());

    // parallel index build: bit-for-bit merge protocol
    println!("== parallel index-build parity ==");
    let serial = par::with_thread_count(1, || QualityIndex::build(&rel));
    let chunked = par::with_thread_count(8, || QualityIndex::build(&rel));
    if serial != chunked {
        fail("parallel index build diverged from serial");
    }
    println!("OK: 8-thread build identical to serial");

    // end-to-end: the query executor's batched operators annotate
    // EXPLAIN ANALYZE with batch counts
    let mut catalog = QueryCatalog::new();
    catalog.register("customer", rel);
    println!("== EXPLAIN ANALYZE through the batched executor ==");
    let report = explain_analyze(
        &catalog,
        "SELECT co_name FROM customer WITH QUALITY (employees@age <= 139)",
        &Planner::default(),
    )?;
    print!("{report}");
    if !report.contains("batches=") {
        fail("EXPLAIN ANALYZE reported no batch counts");
    }

    // validate the registry and the vector.* invariants
    let snap = dq_obs::registry().snapshot();
    println!("\n== metrics registry (vector.*) ==");
    for line in snap.render_text().lines() {
        if line.contains("vector.") {
            println!("{line}");
        }
    }
    if let Err(errs) = snap.validate() {
        for e in &errs {
            eprintln!("  {e}");
        }
        fail("metrics snapshot failed validation");
    }
    let batches = snap.counter("vector.batches");
    let rows_in = snap.counter("vector.rows_in");
    let rows_out = snap.counter("vector.rows_out");
    if batches == 0 {
        fail("vector.batches never incremented");
    }
    if rows_out > rows_in {
        fail("vector.rows_out exceeds vector.rows_in");
    }
    // σ/π batches are capped at the batch width; join fan-out reports
    // separately under vector.join.* and is exempt
    let width = DEFAULT_BATCH_SIZE as u64;
    if batches * width < rows_out {
        fail(&format!(
            "σ invariant violated: {batches} batches × {width} < {rows_out} rows out"
        ));
    }
    println!("snapshot OK: vector.* metrics finite, consistent, and batch-bounded");
    Ok(())
}
