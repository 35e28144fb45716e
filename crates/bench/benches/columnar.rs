//! B10 — columnar tagged storage vs. the row layout.
//!
//! Three series over the shared customer fixture:
//!
//! * `B10/scan_sigma/{rows}` — unindexed σ at ~50% selectivity:
//!   `selection_columnar` + `gather` over contiguous column arrays
//!   (conversion outside the timed region, modeling the catalog's cached
//!   layout).
//! * `B10/index_build/{rows}` — serial row-at-a-time `QualityIndex::build`
//!   vs. the columnar run-at-a-time build (one posting probe +
//!   `set_range` per (run, tag) instead of per (row, tag)).
//! * `B10/convert/{rows}` — the conversion costs themselves
//!   (`from_tagged` / `to_tagged`), so the one-time price of entering
//!   the columnar world is visible next to the per-query wins.
//!
//! Parity (σ against the longhand oracle, `to_tagged()` equality,
//! bit-for-bit index equality) is asserted on the actual fixture before
//! timing anything.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dq_bench::{tagged_customers, today};
use relstore::{par, Expr};
use tagstore::algebra::derive_age;
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::ColumnarRelation;
use tagstore::{selection_columnar, DEFAULT_BATCH_SIZE};

/// Row-count tiers, overridable for smoke runs (`DQ_BENCH_TIERS=10000`).
fn tiers() -> Vec<usize> {
    std::env::var("DQ_BENCH_TIERS")
        .unwrap_or_else(|_| "10000,100000,1000000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn aged(rows: usize) -> tagstore::TaggedRelation {
    let mut rel = tagged_customers(rows, 4);
    derive_age(&mut rel, "employees", today()).unwrap();
    rel
}

/// ~50% selectivity mixed value+quality predicate (the B2/B9 headline
/// shape).
fn sigma_pred() -> Expr {
    Expr::col("employees@age")
        .le(Expr::lit(700i64))
        .and(Expr::col("employees@source").ne(Expr::lit("estimate")))
}

fn bench_scan_sigma(c: &mut Criterion) {
    for rows in tiers() {
        let rel = aged(rows);
        let crel = ColumnarRelation::from_tagged(&rel);
        let pred = sigma_pred();
        let reference = dq_oracle::filter(&rel, &pred).unwrap();
        let (sel, stats) = selection_columnar(&crel, &pred, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(reference, crel.gather(&sel), "σ parity at {rows} rows");
        assert!(stats.batches * stats.batch_size >= stats.rows_out);
        let mut g = c.benchmark_group(format!("B10/scan_sigma/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("columnar", |b| {
            b.iter(|| {
                let (sel, _) = selection_columnar(&crel, &pred, DEFAULT_BATCH_SIZE).unwrap();
                crel.gather(&sel)
            })
        });
        g.finish();
    }
}

fn bench_index_build(c: &mut Criterion) {
    for rows in tiers() {
        let rel = aged(rows);
        let crel = ColumnarRelation::from_tagged(&rel);
        let row_idx = par::with_thread_count(1, || QualityIndex::build(&rel));
        let col_idx = par::with_thread_count(1, || crel.build_index());
        assert_eq!(row_idx, col_idx, "index build parity at {rows} rows");
        let mut g = c.benchmark_group(format!("B10/index_build/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("row", |b| {
            b.iter(|| par::with_thread_count(1, || QualityIndex::build(&rel)))
        });
        g.bench_function("columnar", |b| {
            b.iter(|| par::with_thread_count(1, || crel.build_index()))
        });
        g.finish();
    }
}

fn bench_convert(c: &mut Criterion) {
    for rows in tiers() {
        let rel = aged(rows);
        let crel = ColumnarRelation::from_tagged(&rel);
        assert_eq!(crel.to_tagged(), rel, "round-trip parity at {rows} rows");
        let mut g = c.benchmark_group(format!("B10/convert/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("from_tagged", |b| {
            b.iter(|| ColumnarRelation::from_tagged(&rel))
        });
        g.bench_function("to_tagged", |b| b.iter(|| crel.to_tagged()));
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_scan_sigma,
    bench_index_build,
    bench_convert
);
criterion_main!(benches);
