//! B9 — parallel index build and the ⋈ probe.
//!
//! Two series over the shared customer fixture:
//!
//! * `B9/index_build/{rows}` — serial vs. forced-8-thread
//!   `QualityIndex::build` (word-aligned disjoint ranges, range-local
//!   row ids, `or_words_at` merge). `scripts/index_build_gate.sh` reads
//!   these records.
//! * `B9/join/{rows}` (tiers ≤ 100k) — the row hash join
//!   (`algebra::hash_join`, `hash_join_row`) vs. the pair kernel over
//!   cached columnar layouts plus the gather a parent that needs rows
//!   runs (`JoinPairs::probe` + `JoinPairs::gather`, `pairs_gather`;
//!   what both join operators run).
//!
//! Every series asserts parity on the actual fixture before timing
//! anything, so a parity break fails the bench run rather than silently
//! timing wrong answers. Thread counts are forced via
//! `with_thread_count` because CI containers may report a single core.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dq_bench::{tagged_customers, tagged_join_partner, today};
use relstore::index::HashIndex;
use relstore::par;
use tagstore::algebra as ta;
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::ColumnarRelation;
use std::sync::Arc;
use tagstore::{Bitset, JoinPairs, DEFAULT_BATCH_SIZE};

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
    ta::derive_age(&mut rel, "employees", today()).unwrap();
    rel
}

fn bench_index_build(c: &mut Criterion) {
    for rows in tiers() {
        let rel = aged(rows);
        let serial = par::with_thread_count(1, || QualityIndex::build(&rel));
        let chunked = par::with_thread_count(8, || QualityIndex::build(&rel));
        assert_eq!(serial, chunked, "parallel build parity at {rows} rows");
        let mut g = c.benchmark_group(format!("B9/index_build/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("serial", |b| {
            b.iter(|| par::with_thread_count(1, || QualityIndex::build(&rel)))
        });
        g.bench_function("threads8", |b| {
            b.iter(|| par::with_thread_count(8, || QualityIndex::build(&rel)))
        });
        g.finish();
    }
}

fn bench_join_probe(c: &mut Criterion) {
    // ⋈ output is quadratic-ish in key multiplicity, so cap at 100k rows.
    for rows in tiers().into_iter().filter(|&r| r <= 100_000) {
        let left = tagged_customers(rows, 2);
        let right = tagged_join_partner(rows);
        let ri = right.schema().resolve("co_name").unwrap();
        let keys: Vec<relstore::Row> = right
            .rows()
            .iter()
            .map(|r| vec![r[ri].value.clone()])
            .collect();
        let mut idx = HashIndex::new(vec![0]);
        idx.rebuild(&keys);
        let cl = Arc::new(ColumnarRelation::from_tagged(&left));
        let cr = Arc::new(ColumnarRelation::from_tagged(&right));
        let all = Bitset::full(cl.len());
        let pairs_gather = || {
            let (l, r) = (Arc::clone(&cl), Arc::clone(&cr));
            let (pairs, _) =
                JoinPairs::probe(l, &all, "co_name", r, "co_name", &idx, DEFAULT_BATCH_SIZE)
                    .unwrap();
            pairs.gather()
        };
        let reference = ta::hash_join(&left, &right, "co_name", "co_name").unwrap();
        assert_eq!(
            reference,
            pairs_gather(),
            "join parity at {rows} rows"
        );
        let mut g = c.benchmark_group(format!("B9/join/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("hash_join_row", |b| {
            b.iter(|| ta::hash_join(&left, &right, "co_name", "co_name").unwrap())
        });
        g.bench_function("pairs_gather", |b| b.iter(pairs_gather));
        g.finish();
    }
}

criterion_group!(benches, bench_index_build, bench_join_probe);
criterion_main!(benches);
