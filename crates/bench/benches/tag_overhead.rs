//! B1 — the cost of cell-level quality tagging.
//!
//! §4: "Cost-benefit tradeoffs in tagging and tracking data quality must
//! be considered." This bench measures the tagging side of that tradeoff
//! on the one engine: the columnar σ plus its gather, and the ⋈ pair
//! kernel (the right side's key index, the probe, the gather), over
//! tagged relations with 0 (`tagged_k0`, an untagged relation: every tag
//! set empty) to 4 indicators per cell vs. polygen relations. Layouts are
//! converted outside the timed region, as the catalog caches them. Each
//! fixture's answer is checked against the longhand oracle before
//! anything is timed.
//!
//! Expected shape: σ reads the same typed columns whatever the tags, so
//! a tagged operator's extra cost is its gather, a tag `Arc` bump per
//! surviving cell; polygen copies source sets instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_bench::{join_partner, plain_customers, tagged_customers, tagged_join_partner};
use polygen::{PolyRelation, SourceId};
use relstore::Expr;
use std::sync::Arc;
use tagstore::{selection_columnar, Bitset, ColumnarRelation, ColumnarView, JoinPairs, ViewSource};
use tagstore::{IndicatorDictionary, TaggedRelation, DEFAULT_BATCH_SIZE};

fn filter_pred() -> Expr {
    Expr::col("employees").gt(Expr::lit(25_000i64))
}

/// σ over `rel`'s layout, gathered; its rows checked against the
/// oracle's first.
fn sigma(rel: &TaggedRelation, pred: Expr) -> impl Fn() -> TaggedRelation {
    let crel = ColumnarRelation::from_tagged(rel);
    let want = dq_oracle::filter(rel, &pred).unwrap();
    let run = move || {
        let (sel, _) = selection_columnar(&crel, &pred, DEFAULT_BATCH_SIZE).unwrap();
        crel.gather(&sel)
    };
    assert_eq!(run(), want, "σ parity at {} rows", rel.len());
    run
}

/// ⋈ on `co_name` over the two layouts — the right side's key index,
/// the pair kernel, the gather — checked first, whole, against the
/// oracle's nested loops.
fn join(left: &TaggedRelation, right: &TaggedRelation) -> impl Fn() -> TaggedRelation {
    let want = dq_oracle::equi_join(left, right, "co_name", "co_name");
    let l = Arc::new(ColumnarRelation::from_tagged(left));
    let r = Arc::new(ColumnarRelation::from_tagged(right));
    let run = move || {
        let index = r.key_index("co_name", &Bitset::full(r.len())).unwrap();
        let all = Bitset::full(l.len());
        let (l, r) = (Arc::clone(&l), Arc::clone(&r));
        let probed = JoinPairs::probe(l, &all, "co_name", r, "co_name", &index, DEFAULT_BATCH_SIZE);
        probed.unwrap().0.gather()
    };
    let got = run();
    assert_eq!(got.rows(), &want[..], "⋈ parity at {} rows", left.len());
    run
}

fn bench_scan_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("B1/scan_filter");
    g.sample_size(20);
    for &rows in &[1_000usize, 10_000] {
        g.throughput(Throughput::Elements(rows as u64));
        let plain = plain_customers(rows);
        let bare = TaggedRelation::from_relation(&plain, IndicatorDictionary::with_paper_defaults());
        let run = sigma(&bare, filter_pred());
        g.bench_function(BenchmarkId::new("tagged_k0", rows), |b| b.iter(&run));
        let poly = PolyRelation::retrieve(&plain, SourceId::new("src"));
        g.bench_with_input(BenchmarkId::new("polygen", rows), &poly, |b, rel| {
            b.iter(|| rel.restrict(&filter_pred()).unwrap())
        });
        for k in [1usize, 2, 4] {
            let run = sigma(&tagged_customers(rows, k), filter_pred());
            g.bench_function(BenchmarkId::new(format!("tagged_k{k}"), rows), |b| b.iter(&run));
        }
    }
    g.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("B1/hash_join");
    g.sample_size(15);
    for &rows in &[1_000usize, 10_000] {
        g.throughput(Throughput::Elements(rows as u64));
        let plain = plain_customers(rows);
        let partner = join_partner(rows);
        let tagged_partner = tagged_join_partner(rows);
        let bare = TaggedRelation::from_relation(&plain, IndicatorDictionary::with_paper_defaults());
        let run = join(&bare, &tagged_partner);
        g.bench_function(BenchmarkId::new("tagged_k0", rows), |b| b.iter(&run));
        let poly_l = PolyRelation::retrieve(&plain, SourceId::new("L"));
        let poly_r = PolyRelation::retrieve(&partner, SourceId::new("R"));
        g.bench_function(BenchmarkId::new("polygen", rows), |b| {
            b.iter(|| poly_l.join(&poly_r, "co_name", "co_name").unwrap())
        });
        for k in [1usize, 2, 4] {
            let run = join(&tagged_customers(rows, k), &tagged_partner);
            g.bench_function(BenchmarkId::new(format!("tagged_k{k}"), rows), |b| b.iter(&run));
        }
    }
    g.finish();
}

/// Row counts for the tag-propagation series; `DQ_BENCH_ROWS` overrides
/// (comma-separated), e.g. `DQ_BENCH_ROWS=100000`.
fn tagprop_rows() -> Vec<usize> {
    std::env::var("DQ_BENCH_ROWS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000])
}

/// The pre-compilation σ pipeline, preserved here as the clone-based
/// baseline: expand pseudo-columns into an owned `Row` per tuple, then
/// tree-walk the predicate with name resolution against the expanded
/// schema for every row.
fn legacy_select(rel: &tagstore::TaggedRelation, predicate: &Expr) -> Vec<tagstore::TaggedRow> {
    use relstore::{ColumnDef, DataType, Schema};
    use tagstore::{TaggedRelation, TAG_SEP};
    let mut cols: Vec<ColumnDef> = rel.schema().columns().to_vec();
    let mut plan: Vec<(usize, Vec<String>)> = Vec::new();
    for name in predicate.referenced_columns() {
        if rel.schema().index_of(name).is_some() {
            continue;
        }
        let (col, ind_path) = TaggedRelation::split_pseudo(name).expect("pseudo-column");
        let ci = rel.schema().resolve(col).expect("known column");
        let path: Vec<String> = ind_path.split(TAG_SEP).map(str::to_owned).collect();
        let leaf = path.last().expect("non-empty path");
        let dtype = rel
            .dictionary()
            .get(leaf)
            .map(|d| d.dtype)
            .unwrap_or(DataType::Any);
        cols.push(ColumnDef::new(format!("{col}{TAG_SEP}{ind_path}"), dtype));
        plan.push((ci, path));
    }
    let schema = Schema::new(cols).expect("valid eval schema");
    let mut out = Vec::new();
    for row in rel.iter() {
        let mut vals: relstore::Row = row.iter().map(|c| c.value.clone()).collect();
        for (ci, path) in &plan {
            let segs: Vec<&str> = path.iter().map(String::as_str).collect();
            vals.push(row[*ci].tag_value_path(&segs));
        }
        if predicate.eval_predicate(&schema, &vals).unwrap() {
            out.push(row.clone());
        }
    }
    out
}

/// Same rows as `tagged_customers` but tagged via `tag_column`, so every
/// cell of a column shares one `Arc`'d tag vector.
fn shared_tag_customers(rows: usize) -> tagstore::TaggedRelation {
    use tagstore::{IndicatorDictionary, IndicatorValue, TaggedRelation};
    let mut rel = TaggedRelation::from_relation(
        &plain_customers(rows),
        IndicatorDictionary::with_paper_defaults(),
    );
    rel.tag_column("employees", IndicatorValue::new("source", "acct'g"))
        .unwrap();
    rel.tag_column("address", IndicatorValue::new("source", "acct'g"))
        .unwrap();
    rel
}

/// π onto `employees, co_name` over `rel`'s layout, gathered.
fn pi(rel: &TaggedRelation) -> impl Fn() -> TaggedRelation {
    let crel = Arc::new(ColumnarRelation::from_tagged(rel));
    let columns = ["employees", "co_name"].map(|c| (c.to_owned(), c.to_owned()));
    move || {
        let source = ViewSource::Selected(Arc::clone(&crel), Bitset::full(crel.len()));
        ColumnarView::project(source, &columns).unwrap().gather()
    }
}

/// The zero-copy / parallel series behind EXPERIMENTS.md's tag-propagation
/// row: the legacy materializing σ over rows vs. the columnar σ (serial
/// and parallel), π over per-cell-cloned vs. Arc-shared tags, and the ⋈
/// pair kernel serial and parallel.
fn bench_tagprop(c: &mut Criterion) {
    use relstore::par;
    let mut g = c.benchmark_group("B1/tagprop");
    g.sample_size(10);
    // mixed value + quality predicate: a typed value column and a tag
    // column
    let pred = filter_pred().and(Expr::col("employees@source").ne(Expr::lit("estimate")));
    for rows in tagprop_rows() {
        g.throughput(Throughput::Elements(rows as u64));
        let cloned = tagged_customers(rows, 2);
        let shared = shared_tag_customers(rows);
        let (sigma_cloned, sigma_shared) = (sigma(&cloned, pred.clone()), sigma(&shared, pred.clone()));
        g.bench_function(BenchmarkId::new("sigma_legacy", rows), |b| {
            b.iter(|| legacy_select(&cloned, &pred))
        });
        g.bench_function(BenchmarkId::new("sigma_columnar_serial", rows), |b| {
            b.iter(|| par::with_thread_count(1, &sigma_cloned))
        });
        g.bench_function(BenchmarkId::new("sigma_columnar_parallel", rows), |b| {
            b.iter(&sigma_cloned)
        });
        g.bench_function(BenchmarkId::new("sigma_legacy_shared", rows), |b| {
            b.iter(|| legacy_select(&shared, &pred))
        });
        g.bench_function(BenchmarkId::new("sigma_shared_parallel", rows), |b| {
            b.iter(&sigma_shared)
        });
        let (pi_cloned, pi_shared) = (pi(&cloned), pi(&shared));
        g.bench_function(BenchmarkId::new("pi_cloned", rows), |b| b.iter(&pi_cloned));
        g.bench_function(BenchmarkId::new("pi_shared", rows), |b| b.iter(&pi_shared));
        let joined = join(&cloned, &tagged_join_partner(rows));
        g.bench_function(BenchmarkId::new("join_serial", rows), |b| {
            b.iter(|| par::with_thread_count(1, &joined))
        });
        g.bench_function(BenchmarkId::new("join_parallel", rows), |b| b.iter(&joined));
    }
    g.finish();
}

criterion_group!(benches, bench_scan_filter, bench_hash_join, bench_tagprop);
criterion_main!(benches);
