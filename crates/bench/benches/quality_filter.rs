//! B2 — quality-filter cost vs. selectivity and constraint count.
//!
//! The paper's headline operation: "at query time, data with undesirable
//! characteristics can be filtered out." We sweep the selectivity of an
//! age constraint (via the threshold) and the number of conjoined
//! indicator predicates (1–4), through the columnar σ over the cached
//! layout plus its gather; each predicate's rows are checked against the
//! longhand oracle before it is timed.
//!
//! Expected shape: the conjuncts cost a pass over typed tag columns each,
//! flat across selectivities; the gather grows with the output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_bench::{tagged_customers, today};
use relstore::{Expr, Value};
use tagstore::algebra::{derive_age, evaluate_mask};
use tagstore::{selection_columnar, ColumnarRelation, TaggedRelation, DEFAULT_BATCH_SIZE};

fn rel_with_ages() -> TaggedRelation {
    let mut rel = tagged_customers(10_000, 4);
    derive_age(&mut rel, "employees", today()).unwrap();
    derive_age(&mut rel, "address", today()).unwrap();
    rel
}

/// σ over `crel`, gathered.
fn sigma(crel: &ColumnarRelation, pred: &Expr) -> TaggedRelation {
    let (sel, _) = selection_columnar(crel, pred, DEFAULT_BATCH_SIZE).unwrap();
    crel.gather(&sel)
}

/// The oracle's σ over `rel`, which [`sigma`] must match.
fn checked(rel: &TaggedRelation, crel: &ColumnarRelation, pred: &Expr) -> usize {
    let want = dq_oracle::filter(rel, pred).unwrap();
    assert_eq!(sigma(crel, pred), want, "σ parity for {pred}");
    want.len()
}

fn bench_selectivity(c: &mut Criterion) {
    let rel = rel_with_ages();
    let crel = ColumnarRelation::from_tagged(&rel);
    // creation dates span 1988-01-01..1991-10-24 (~1392 days)
    let mut g = c.benchmark_group("B2/selectivity");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rel.len() as u64));
    for (label, max_age) in [("1pct", 14i64), ("10pct", 139), ("50pct", 696), ("100pct", 1400)] {
        let pred = Expr::col("employees@age").le(Expr::lit(max_age));
        // report actual selectivity once via the result length
        let hit = checked(&rel, &crel, &pred);
        g.bench_with_input(
            BenchmarkId::new(format!("{label}_rows{hit}"), max_age),
            &pred,
            |b, p| b.iter(|| sigma(&crel, p)),
        );
    }
    g.finish();
}

fn bench_constraint_count(c: &mut Criterion) {
    let rel = rel_with_ages();
    let crel = ColumnarRelation::from_tagged(&rel);
    let mut g = c.benchmark_group("B2/conjuncts");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rel.len() as u64));
    let conjuncts = [
        Expr::col("employees@age").le(Expr::lit(700i64)),
        Expr::col("employees@source").ne(Expr::lit("estimate")),
        Expr::col("address@age").le(Expr::lit(1200i64)),
        Expr::col("address@collection_method").ne(Expr::lit(Value::text("over the phone"))),
    ];
    for k in 1..=4usize {
        let pred = conjuncts[..k]
            .iter()
            .cloned()
            .reduce(|a, b| a.and(b))
            .expect("k >= 1");
        checked(&rel, &crel, &pred);
        g.bench_with_input(BenchmarkId::from_parameter(k), &pred, |b, p| {
            b.iter(|| sigma(&crel, p))
        });
    }
    g.finish();
}

/// Serial vs. parallel quality filtering over the same aged relation —
/// the columnar σ, and `TAG`'s row-at-a-time mask.
fn bench_parallel(c: &mut Criterion) {
    use relstore::par;
    let rel = rel_with_ages();
    let crel = ColumnarRelation::from_tagged(&rel);
    let pred = Expr::col("employees@age")
        .le(Expr::lit(700i64))
        .and(Expr::col("employees@source").ne(Expr::lit("estimate")));
    let mut g = c.benchmark_group("B2/parallel");
    g.sample_size(20);
    g.throughput(Throughput::Elements(rel.len() as u64));
    let hit = checked(&rel, &crel, &pred);
    let mask = evaluate_mask(&rel, &pred).unwrap();
    assert_eq!(mask.iter().filter(|&&m| m).count(), hit, "mask parity");
    g.bench_function("select_serial", |b| {
        b.iter(|| par::with_thread_count(1, || sigma(&crel, &pred)))
    });
    g.bench_function("select_parallel", |b| b.iter(|| sigma(&crel, &pred)));
    g.bench_function("mask_serial", |b| {
        b.iter(|| par::with_thread_count(1, || evaluate_mask(&rel, &pred).unwrap()))
    });
    g.bench_function("mask_parallel", |b| {
        b.iter(|| evaluate_mask(&rel, &pred).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_selectivity, bench_constraint_count, bench_parallel);
criterion_main!(benches);
