//! Columnar-layout smoke: row-at-a-time vs. columnar operators over the
//! shared customer fixture, then a validated dump of the `columnar.*`
//! metrics the batch pipeline emitted.
//!
//! ```sh
//! cargo run --release --example columnar
//! ```
//!
//! `scripts/ci.sh` runs this as a gate. The process exits nonzero if
//!
//! * the row↔columnar conversion is not an exact round-trip (values,
//!   null validity, per-cell tags, relation tags), or
//! * any columnar operator disagrees with its row-at-a-time twin at any
//!   tested thread count × batch width, or
//! * the columnar index build is not bit-for-bit identical to the
//!   row-at-a-time `QualityIndex::build`, or
//! * EXPLAIN ANALYZE stops annotating columnar operators with
//!   `layout=columnar`, or
//! * the metrics snapshot contains a NaN, negative, or inconsistent
//!   value, or the invariant `batches × batch_size ≥ rows_out` fails.

use dq_bench::{tagged_customers, tagged_join_partner, today};
use dq_query::{explain_analyze, Planner, QueryCatalog};
use relstore::index::HashIndex;
use relstore::{par, Expr};
use tagstore::algebra as ta;
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::ColumnarRelation;
use tagstore::{
    hash_join_probe_columnar, project_columnar, select_columnar, select_indexed_columnar,
    DEFAULT_BATCH_SIZE,
};

fn fail(msg: &str) -> ! {
    eprintln!("columnar smoke FAILED: {msg}");
    std::process::exit(1);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 20_000;
    let mut rel = tagged_customers(rows, 4);
    ta::derive_age(&mut rel, "employees", today())?;
    let pred = Expr::col("employees@age")
        .le(Expr::lit(700i64))
        .and(Expr::col("employees@source").ne(Expr::lit("estimate")));

    // round-trip: the columnar layout must be lossless
    println!("== row ↔ columnar round-trip ({rows} rows) ==");
    let crel = ColumnarRelation::from_tagged(&rel);
    if crel.to_tagged() != rel {
        fail("from_tagged → to_tagged is not the identity");
    }
    println!("OK: values, nulls, and tags survive the round-trip");

    // σ: scan path, at several batch widths and forced thread counts
    println!("== σ parity: select vs select_columnar ==");
    let reference = ta::select(&rel, &pred)?;
    for threads in [1usize, 2, 8] {
        for batch in [1usize, 7, DEFAULT_BATCH_SIZE] {
            let (got, stats) =
                par::with_thread_count(threads, || select_columnar(&crel, &pred, batch))?;
            if got.to_tagged() != reference {
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

    // σ: indexed path — candidate words feed per-batch selection vectors
    println!("== indexed σ parity: select_indexed vs columnar ==");
    let index = QualityIndex::build(&rel);
    let (via_rows, _) = ta::select_indexed(&rel, &index, &pred)?;
    let (via_cols, path, _) = select_indexed_columnar(&crel, &index, &pred, DEFAULT_BATCH_SIZE)?;
    if via_cols.to_tagged() != via_rows {
        fail("indexed σ mismatch");
    }
    println!("OK: {} rows via {path}", via_cols.len());

    // π: whole-column clones vs. per-row cell clones
    println!("== π parity: project vs project_columnar ==");
    let cols = ["co_name", "employees"];
    if project_columnar(&crel, &cols)?.to_tagged() != ta::project(&rel, &cols)? {
        fail("π mismatch");
    }
    println!("OK: π onto {cols:?} identical");

    // ⋈: prebuilt-index probe, gathering only via column slices
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
    let cright = ColumnarRelation::from_tagged(&right);
    let probe_rows = ta::hash_join_probe(&rel, &right, "co_name", "co_name", &idx)?;
    for threads in [1usize, 8] {
        let (probe_cols, _) = par::with_thread_count(threads, || {
            hash_join_probe_columnar(&crel, &cright, "co_name", "co_name", &idx, DEFAULT_BATCH_SIZE)
        })?;
        if probe_cols.to_tagged() != probe_rows {
            fail(&format!("join probe mismatch at threads={threads}"));
        }
    }
    println!("OK: {} joined rows at 1/8 threads", probe_rows.len());

    // index build: run-at-a-time columnar build, serial and forced-parallel
    println!("== index-build parity: row vs columnar, 1/8 threads ==");
    let row_idx = par::with_thread_count(1, || QualityIndex::build(&rel));
    for threads in [1usize, 8] {
        if par::with_thread_count(threads, || crel.build_index()) != row_idx {
            fail(&format!("columnar index build diverged at threads={threads}"));
        }
    }
    println!("OK: columnar build bit-for-bit identical to row build");

    // end-to-end: the executor picks columnar operators and says so
    let mut catalog = QueryCatalog::new();
    catalog.register("customer", rel);
    catalog.register("partner", right);
    println!("== EXPLAIN ANALYZE: layout=columnar annotations ==");
    let report = explain_analyze(
        &catalog,
        "SELECT co_name FROM customer WITH QUALITY (employees@age <= 139)",
        &Planner::default(),
    )?;
    print!("{report}");
    let Some(line) = report.lines().find(|l| l.contains("IndexScan")) else {
        fail(&format!("no IndexScan in plan:\n{report}"));
    };
    if !line.contains("layout=columnar") {
        fail("IndexScan ran without the columnar layout");
    }
    let report = explain_analyze(
        &catalog,
        "SELECT * FROM customer JOIN partner ON co_name = co_name",
        &Planner::default(),
    )?;
    print!("{report}");
    let Some(line) = report.lines().find(|l| l.contains("IndexJoin")) else {
        fail(&format!("no IndexJoin in plan:\n{report}"));
    };
    if !line.contains("layout=columnar") {
        fail("IndexJoin ran without the columnar layout");
    }

    // validate the registry and the columnar.* invariants
    let snap = dq_obs::registry().snapshot();
    println!("\n== metrics registry (columnar.*) ==");
    for line in snap.render_text().lines() {
        if line.contains("columnar.") {
            println!("{line}");
        }
    }
    if let Err(errs) = snap.validate() {
        for e in &errs {
            eprintln!("  {e}");
        }
        fail("metrics snapshot failed validation");
    }
    let batches = snap.counter("columnar.batches");
    let rows_in = snap.counter("columnar.rows_in");
    let rows_out = snap.counter("columnar.rows_out");
    if batches == 0 {
        fail("columnar.batches never incremented");
    }
    if snap.counter("columnar.conversions") == 0 {
        fail("columnar.conversions never incremented");
    }
    if rows_out > rows_in {
        fail("columnar.rows_out exceeds columnar.rows_in");
    }
    // σ batches are capped at the batch width; join fan-out reports
    // separately under columnar.join.* and is exempt
    let width = DEFAULT_BATCH_SIZE as u64;
    if batches * width < rows_out {
        fail(&format!(
            "σ invariant violated: {batches} batches × {width} < {rows_out} rows out"
        ));
    }
    println!("snapshot OK: columnar.* metrics finite, consistent, and batch-bounded");
    Ok(())
}
