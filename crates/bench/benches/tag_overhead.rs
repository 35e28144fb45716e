//! B1 — the cost of cell-level quality tagging.
//!
//! §4: "Cost-benefit tradeoffs in tagging and tracking data quality must
//! be considered." This bench measures the tagging side of that tradeoff
//! on the one engine: scan-filter and hash-join over tagged relations
//! with 0 (`tagged_k0`, an untagged relation: every tag set empty) to 4
//! indicators per cell vs. polygen relations.
//!
//! Expected shape: tagged operators cost a constant factor over
//! `tagged_k0` (cells are fatter, cloning dominates), growing roughly
//! linearly in tags-per-cell; polygen sits between the two ends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dq_bench::{join_partner, plain_customers, tagged_customers, tagged_join_partner};
use polygen::{PolyRelation, SourceId};
use relstore::Expr;
use tagstore::algebra as ta;
use tagstore::{IndicatorDictionary, TaggedRelation};

fn filter_pred() -> Expr {
    Expr::col("employees").gt(Expr::lit(25_000i64))
}

fn bench_scan_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("B1/scan_filter");
    g.sample_size(20);
    for &rows in &[1_000usize, 10_000] {
        g.throughput(Throughput::Elements(rows as u64));
        let plain = plain_customers(rows);
        let bare = TaggedRelation::from_relation(&plain, IndicatorDictionary::with_paper_defaults());
        g.bench_with_input(BenchmarkId::new("tagged_k0", rows), &bare, |b, rel| {
            b.iter(|| ta::select(rel, &filter_pred()).unwrap())
        });
        let poly = PolyRelation::retrieve(&plain, SourceId::new("src"));
        g.bench_with_input(BenchmarkId::new("polygen", rows), &poly, |b, rel| {
            b.iter(|| rel.restrict(&filter_pred()).unwrap())
        });
        for k in [1usize, 2, 4] {
            let tagged = tagged_customers(rows, k);
            g.bench_with_input(
                BenchmarkId::new(format!("tagged_k{k}"), rows),
                &tagged,
                |b, rel| b.iter(|| ta::select(rel, &filter_pred()).unwrap()),
            );
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
        g.bench_function(BenchmarkId::new("tagged_k0", rows), |b| {
            b.iter(|| ta::hash_join(&bare, &tagged_partner, "co_name", "co_name").unwrap())
        });
        let poly_l = PolyRelation::retrieve(&plain, SourceId::new("L"));
        let poly_r = PolyRelation::retrieve(&partner, SourceId::new("R"));
        g.bench_function(BenchmarkId::new("polygen", rows), |b| {
            b.iter(|| poly_l.join(&poly_r, "co_name", "co_name").unwrap())
        });
        for k in [1usize, 2, 4] {
            let tagged = tagged_customers(rows, k);
            g.bench_function(BenchmarkId::new(format!("tagged_k{k}"), rows), |b| {
                b.iter(|| ta::hash_join(&tagged, &tagged_partner, "co_name", "co_name").unwrap())
            });
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

/// The zero-copy / parallel series behind EXPERIMENTS.md's tag-propagation
/// row: legacy materializing σ vs. compiled σ (serial and parallel), and
/// π over per-cell-cloned vs. Arc-shared tags.
fn bench_tagprop(c: &mut Criterion) {
    use relstore::par;
    let mut g = c.benchmark_group("B1/tagprop");
    g.sample_size(10);
    // mixed value + quality predicate: exercises both the compiled
    // expression path and per-row tag access
    let pred = filter_pred().and(Expr::col("employees@source").ne(Expr::lit("estimate")));
    for rows in tagprop_rows() {
        g.throughput(Throughput::Elements(rows as u64));
        let cloned = tagged_customers(rows, 2);
        let shared = shared_tag_customers(rows);
        g.bench_function(BenchmarkId::new("sigma_legacy", rows), |b| {
            b.iter(|| legacy_select(&cloned, &pred))
        });
        g.bench_function(BenchmarkId::new("sigma_compiled_serial", rows), |b| {
            b.iter(|| par::with_thread_count(1, || ta::select(&cloned, &pred).unwrap()))
        });
        g.bench_function(BenchmarkId::new("sigma_compiled_parallel", rows), |b| {
            b.iter(|| ta::select(&cloned, &pred).unwrap())
        });
        g.bench_function(BenchmarkId::new("sigma_legacy_shared", rows), |b| {
            b.iter(|| legacy_select(&shared, &pred))
        });
        g.bench_function(BenchmarkId::new("sigma_shared_parallel", rows), |b| {
            b.iter(|| ta::select(&shared, &pred).unwrap())
        });
        g.bench_function(BenchmarkId::new("pi_cloned_serial", rows), |b| {
            b.iter(|| {
                par::with_thread_count(1, || {
                    ta::project(&cloned, &["employees", "co_name"]).unwrap()
                })
            })
        });
        g.bench_function(BenchmarkId::new("pi_cloned_parallel", rows), |b| {
            b.iter(|| ta::project(&cloned, &["employees", "co_name"]).unwrap())
        });
        g.bench_function(BenchmarkId::new("pi_shared_serial", rows), |b| {
            b.iter(|| {
                par::with_thread_count(1, || {
                    ta::project(&shared, &["employees", "co_name"]).unwrap()
                })
            })
        });
        g.bench_function(BenchmarkId::new("pi_shared_parallel", rows), |b| {
            b.iter(|| ta::project(&shared, &["employees", "co_name"]).unwrap())
        });
        let partner = tagged_join_partner(rows);
        g.bench_function(BenchmarkId::new("join_serial", rows), |b| {
            b.iter(|| {
                par::with_thread_count(1, || {
                    ta::hash_join(&cloned, &partner, "co_name", "co_name").unwrap()
                })
            })
        });
        g.bench_function(BenchmarkId::new("join_parallel", rows), |b| {
            b.iter(|| ta::hash_join(&cloned, &partner, "co_name", "co_name").unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan_filter, bench_hash_join, bench_tagprop);
criterion_main!(benches);
