//! B7 — bitmap-indexed quality selection vs. full scan.
//!
//! Sweeps data size (`DQ_BENCH_TIERS`, default 10k/100k/1M rows) ×
//! selectivity (0.1%, 1%, 10%, 90% via the age threshold) and measures
//! what the executor runs over a resident table's cached columnar
//! layout: the scan `selection_columnar` (a `Filter` over a `Scan`)
//! against the bitmap `selection_indexed_columnar` (an `IndexScan`),
//! each followed by the gather to tagged rows, plus the one-off index
//! build cost. The layout is converted outside the timed region, as the
//! catalog caches it.
//!
//! Expected shape: the scan is flat in selectivity (predicate evaluation
//! over every row dominates); the bitmap path scales with the *output*,
//! so it wins at low selectivity and converges to scan cost as
//! selectivity approaches 1. The planner's cutoff (`dq_query`) sits
//! where the curves cross.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_bench::{tagged_customers, today};
use relstore::Expr;
use tagstore::algebra::derive_age;
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::{ColumnarRelation, TagAccessPath};
use tagstore::{
    selection_columnar, selection_indexed_columnar, Bitset, TaggedRelation, DEFAULT_BATCH_SIZE,
};

/// Row-count tiers, overridable for smoke runs (`DQ_BENCH_TIERS=10000`).
fn tiers() -> Vec<usize> {
    std::env::var("DQ_BENCH_TIERS")
        .unwrap_or_else(|_| "10000,100000,1000000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn bench_index(c: &mut Criterion) {
    // creation dates span 1988-01-01..1991-10-24 (~1392 days), so the
    // age threshold dials in the matching fraction directly
    let points = [
        ("0p1pct", 1i64),
        ("1pct", 14),
        ("10pct", 139),
        ("90pct", 1253),
    ];
    for rows in tiers() {
        let mut rel = tagged_customers(rows, 4);
        derive_age(&mut rel, "employees", today()).unwrap();
        let index = QualityIndex::build(&rel);
        let crel = ColumnarRelation::from_tagged(&rel);
        let gathered = |sel: Bitset| -> TaggedRelation { crel.gather(&sel) };
        let scan = |p: &Expr| gathered(selection_columnar(&crel, p, DEFAULT_BATCH_SIZE).unwrap().0);
        let bitmap = |p: &Expr| {
            let (sel, path, _) =
                selection_indexed_columnar(&crel, &index, p, DEFAULT_BATCH_SIZE).unwrap();
            (gathered(sel), path)
        };
        let mut g = c.benchmark_group(format!("B7/index/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("build", |b| b.iter(|| QualityIndex::build(&rel)));
        for (label, max_age) in points {
            let pred = Expr::col("employees@age").le(Expr::lit(max_age));
            let reference = dq_oracle::filter(&rel, &pred).unwrap();
            let scanned = scan(&pred);
            let (via_index, path) = bitmap(&pred);
            assert_eq!(scanned, reference, "scan parity at {label}");
            assert_eq!(via_index, reference, "bitmap parity at {label}");
            assert!(
                matches!(path, TagAccessPath::Bitmap { .. }),
                "expected bitmap path at {label}, got {path:?}"
            );
            let hit = reference.len();
            g.bench_with_input(
                BenchmarkId::new(format!("scan_{label}"), hit),
                &pred,
                |b, p| b.iter(|| scan(p)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("bitmap_{label}"), hit),
                &pred,
                |b, p| b.iter(|| bitmap(p)),
            );
        }
        g.finish();
    }
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
