//! B14 — indexed access paths over paged relations.
//!
//! Loads N rows into a paged relation on a real temp directory, with
//! `source` audit tags applied to *clustered* row runs covering ~0.1%,
//! ~1%, and ~10% of the data (audit batches land on contiguous rows, so
//! low selectivity means few distinct heap pages — the case bitmap page
//! skipping exists for). Then, per pool budget (5/25/100% of the
//! relation's pages) and with sorted readahead both on and off,
//! measures:
//!
//! * `scan_qps` — full paged σ (`paged_select`): every heap page
//!   visited once per query through the scan-resistant pool.
//! * `indexed_qps` — bitmap-driven σ (`paged_select_indexed`): quality
//!   index → candidate positions → sorted page fetch with coalesced
//!   readahead → residual re-check.
//! * `pages_read` / `match_pages` / `pool_hits` — the structural
//!   evidence: an indexed query must touch ≈ the pages that actually
//!   hold matches, not the whole heap. `match_pages` is the index's
//!   candidate page count, so `pages_read ≈ match_pages` is the
//!   page-skipping claim the gate script checks without trusting any
//!   clock.
//!
//! Correctness gate (fatal): before timing, every (budget, readahead,
//! selectivity) cell compares the indexed result byte-for-byte against
//! the full paged scan and against the columnar σ over an in-memory twin
//! of the relation; any divergence aborts the bench.
//!
//! Knobs: `DQ_BENCH_PAGED_INDEX_JSON` (output, default
//! BENCH_paged_index.json), `DQ_PIDX_ROWS` (default 200000),
//! `DQ_PIDX_BUDGETS` (pool percentages, default `5,25,100`),
//! `DQ_PIDX_MS` (measure window per cell, default 250).

use dq_storage::{DurableDb, DurableOptions, MIN_FRAMES};
use relstore::Expr;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
use tagstore::{selection_columnar, ColumnarRelation, DEFAULT_BATCH_SIZE};

const PAGE_SIZE: usize = 16 * 1024;
const RELATION: &str = "trades";
/// Rows per tagged cluster: audit batches span a handful of heap pages.
const RUN: usize = 400;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn env_list(name: &str, default: &str) -> Vec<usize> {
    std::env::var(name)
        .unwrap_or_else(|_| default.to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

struct Series {
    id: String,
    fields: Vec<(String, f64)>,
}

fn counter(name: &str) -> u64 {
    dq_obs::registry().counter(name).get()
}

fn opts(pool_pages: usize, readahead: bool) -> DurableOptions {
    DurableOptions {
        group_commit: true,
        page_size: PAGE_SIZE,
        pool_pages,
        readahead,
        ..Default::default()
    }
}

fn open(dir: &Path, pool_pages: usize, readahead: bool) -> DurableDb {
    DurableDb::open_dir(dir, opts(pool_pages, readahead))
        .expect("open paged db")
        .0
}

fn row_schema() -> relstore::Schema {
    relstore::Schema::of(&[
        ("id", relstore::DataType::Int),
        ("sym", relstore::DataType::Text),
        ("note", relstore::DataType::Text),
    ])
}

/// The per-mille target this row's cluster belongs to, most selective
/// first so overlapping cycles stay disjoint: `s1` ≈ 0.1%, `s10` ≈ 1%,
/// `s100` ≈ 10% of rows, each in contiguous runs of [`RUN`] rows.
fn cluster_tag(i: usize) -> Option<&'static str> {
    for (pm, tag) in [(1usize, "s1"), (10, "s10"), (100, "s100")] {
        if i % (RUN * 1000 / pm) < RUN {
            return Some(tag);
        }
    }
    None
}

fn gen_row(i: usize) -> Vec<QualityCell> {
    let mut sym = QualityCell::bare(format!("sym{}", i % 13));
    if let Some(tag) = cluster_tag(i) {
        sym.set_tag(IndicatorValue::new("source", tag));
    }
    vec![
        QualityCell::bare(i as i64),
        sym,
        QualityCell::bare(format!("trade ticket {i:>037}")),
    ]
}

fn main() {
    let out_path = std::env::var("DQ_BENCH_PAGED_INDEX_JSON")
        .unwrap_or_else(|_| "BENCH_paged_index.json".to_owned());
    let rows = env_usize("DQ_PIDX_ROWS", 200_000);
    let budgets = env_list("DQ_PIDX_BUDGETS", "5,25,100");
    let window_ms = env_usize("DQ_PIDX_MS", 250) as u128;
    let mut series: Vec<Series> = Vec::new();

    let dir = std::env::temp_dir().join(format!("dq-pidx-bench-{}-{rows}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");

    // ---- load, mirrored into an in-memory twin (the parity reference)
    let mut twin = TaggedRelation::empty(row_schema(), IndicatorDictionary::with_paper_defaults());
    let mut db = open(&dir, 4096, true);
    db.create_paged(RELATION, row_schema(), IndicatorDictionary::with_paper_defaults())
        .expect("create");
    let t0 = Instant::now();
    for i in 0..rows {
        let row = gen_row(i);
        db.paged_push(RELATION, row.clone()).expect("push");
        twin.push(row).expect("twin push");
        if i % 10_000 == 9_999 {
            db.commit().expect("commit");
        }
    }
    db.commit().expect("commit");
    db.checkpoint().expect("checkpoint");
    let load_s = t0.elapsed().as_secs_f64();
    let (heap_pages, dir_pages) = db.paged_pages(RELATION).expect("pages");
    let total_pages = (heap_pages + dir_pages) as usize;
    drop(db);
    println!(
        "paged_index_bench: loaded {rows} rows in {load_s:.2}s, \
         {total_pages} pages ({heap_pages} heap + {dir_pages} dir)"
    );

    let layout = ColumnarRelation::from_tagged(&twin);
    let sels: Vec<(usize, Expr, TaggedRelation)> = [(1usize, "s1"), (10, "s10"), (100, "s100")]
        .into_iter()
        .map(|(pm, tag)| {
            let pred = Expr::col("sym@source").eq(Expr::lit(tag));
            let (kept, _) = selection_columnar(&layout, &pred, DEFAULT_BATCH_SIZE).expect("twin σ");
            let reference = layout.gather(&kept);
            (pm, pred, reference)
        })
        .collect();

    for &pct in &budgets {
        let pool_pages = (total_pages * pct / 100).max(MIN_FRAMES);
        for readahead in [true, false] {
            for (pm, pred, reference) in &sels {
                // A fresh open per cell makes the first indexed query a
                // cold-pool run: its stats are the structural evidence
                // (pages_read ≈ the pages that hold matches, not the
                // heap size), untainted by earlier cells' residency.
                let mut db = open(&dir, pool_pages, readahead);
                let pf0 = counter("storage.pool.prefetches");
                let (indexed, cold) = db.paged_select_indexed(RELATION, pred).expect("indexed");
                let prefetches = (counter("storage.pool.prefetches") - pf0) as f64;
                let scanned = db.paged_select(RELATION, pred).expect("scan");
                // ---- parity gate before timing: indexed == scan == twin
                if &scanned != reference || &indexed != reference {
                    eprintln!(
                        "paged_index_bench: FAIL: sel {pm}pm budget {pct}% \
                         diverged from the in-memory twin"
                    );
                    std::process::exit(1);
                }
                let matched = reference.len();

                let t0 = Instant::now();
                let mut scans = 0u64;
                while t0.elapsed().as_millis() < window_ms {
                    let got = db.paged_select(RELATION, pred).expect("scan");
                    assert_eq!(got.len(), matched);
                    scans += 1;
                }
                let scan_qps = scans as f64 / t0.elapsed().as_secs_f64();

                let t0 = Instant::now();
                let mut queries = 0u64;
                while t0.elapsed().as_millis() < window_ms {
                    let (got, _) = db.paged_select_indexed(RELATION, pred).expect("indexed");
                    assert_eq!(got.len(), matched);
                    queries += 1;
                }
                let indexed_qps = queries as f64 / t0.elapsed().as_secs_f64();
                let speedup = indexed_qps / scan_qps.max(1e-9);
                println!(
                    "paged_index_bench: budget {pct}% ra {} sel {pm}pm: \
                     scan {scan_qps:.0} q/s, indexed {indexed_qps:.0} q/s ({speedup:.1}x), \
                     cold read {} of {heap_pages} heap pages for {matched} rows",
                    readahead as u8, cold.pages_read
                );
                series.push(Series {
                    id: format!(
                        "B14/paged_index/{rows}/budget{pct}/sel{pm}pm/ra{}",
                        readahead as u8
                    ),
                    fields: vec![
                        ("scan_qps".into(), scan_qps),
                        ("indexed_qps".into(), indexed_qps),
                        ("speedup".into(), speedup),
                        ("pages_read".into(), cold.pages_read as f64),
                        ("match_pages".into(), cold.candidate_pages as f64),
                        ("pool_hits".into(), cold.pool_hits as f64),
                        ("prefetches".into(), prefetches),
                        ("rows_matched".into(), matched as f64),
                        ("selectivity".into(), matched as f64 / rows.max(1) as f64),
                        ("pool_pages".into(), pool_pages as f64),
                        ("total_pages".into(), total_pages as f64),
                    ],
                });
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // ---- write JSON lines (one object per series, pool_bench idiom)
    let mut file = std::fs::File::create(&out_path).expect("open output");
    for s in &series {
        let mut line = format!("{{\"id\":\"{}\"", s.id);
        for (k, v) in &s.fields {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                line.push_str(&format!(",\"{k}\":{}", *v as i64));
            } else if v.abs() < 10.0 {
                line.push_str(&format!(",\"{k}\":{v:.4}"));
            } else {
                line.push_str(&format!(",\"{k}\":{v:.2}"));
            }
        }
        line.push('}');
        writeln!(file, "{line}").expect("write");
    }
    println!(
        "paged_index_bench: wrote {} records to {out_path}",
        series.len()
    );
}
