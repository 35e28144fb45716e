//! B9 — parallel index build and the ⋈ probe.
//!
//! Two series over the shared customer fixture:
//!
//! * `B9/index_build/{rows}` — serial vs. forced-8-thread
//!   `QualityIndex::build` (word-aligned disjoint ranges, range-local
//!   row ids, `or_words_at` merge). `scripts/index_build_gate.sh` reads
//!   these records.
//! * `B9/join/{rows}` (tiers ≤ 100k) — the pair kernel over cached
//!   columnar layouts through a prebuilt key index, plus the gather a
//!   parent that needs rows runs (`JoinPairs::probe` +
//!   `JoinPairs::gather`, `pairs_gather`; what both join operators run).
//!
//! Every series asserts parity on the actual fixture before timing
//! anything, so a parity break fails the bench run rather than silently
//! timing wrong answers: the parallel build against the serial one, and
//! the join against the longhand oracle's nested loops, whole up to
//! 10 000 rows and above that its first rows plus a longhand pair count.
//! Thread counts are forced via `with_thread_count` because CI
//! containers may report a single core.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dq_bench::{tagged_customers, tagged_join_partner, today};
use relstore::index::HashIndex;
use relstore::par;
use tagstore::algebra::derive_age;
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::ColumnarRelation;
use std::collections::HashMap;
use std::sync::Arc;
use tagstore::{Bitset, JoinPairs, TaggedRelation, DEFAULT_BATCH_SIZE};

/// Left rows up to which the join's whole answer is checked against the
/// oracle's nested loops; above it, these first rows and the pair count.
const FULL_PARITY_ROWS: usize = 10_000;

/// The pairs an equi-join on `key` makes, counted longhand: each
/// non-NULL left key meets every right row with an equal key.
fn pair_count(left: &TaggedRelation, right: &TaggedRelation, key: &str) -> usize {
    let (li, ri) = (left.schema().resolve(key).unwrap(), right.schema().resolve(key).unwrap());
    let mut counts: HashMap<&relstore::Value, usize> = HashMap::new();
    for row in right.rows() {
        *counts.entry(&row[ri].value).or_default() += 1;
    }
    let left_keys = left.rows().iter().map(|row| &row[li].value).filter(|v| !v.is_null());
    left_keys.map(|v| counts.get(v).copied().unwrap_or(0)).sum()
}

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
        let got = pairs_gather();
        if rows <= FULL_PARITY_ROWS {
            let reference = dq_oracle::equi_join(&left, &right, "co_name", "co_name");
            assert_eq!(got.rows(), &reference[..], "join parity at {rows} rows");
        } else {
            // pairs come in left-row order: the oracle's join of the left
            // side's first rows is the gather's first rows, and the
            // longhand pair count catches a pair missing or added later
            let head = left.rows()[..FULL_PARITY_ROWS].to_vec();
            let head = TaggedRelation::new(left.schema().clone(), left.dictionary().clone(), head);
            let reference = dq_oracle::equi_join(&head.unwrap(), &right, "co_name", "co_name");
            assert_eq!(&got.rows()[..reference.len()], &reference[..], "join parity at {rows} rows");
            assert_eq!(got.len(), pair_count(&left, &right, "co_name"), "join size at {rows} rows");
        }
        let mut g = c.benchmark_group(format!("B9/join/{rows}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function("pairs_gather", |b| b.iter(pairs_gather));
        g.finish();
    }
}

criterion_group!(benches, bench_index_build, bench_join_probe);
criterion_main!(benches);
