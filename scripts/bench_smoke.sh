#!/usr/bin/env bash
# Smoke-run the tag-propagation benchmark series (B1/tagprop, B2/parallel,
# B6/parallel, plus the baseline B1/B2/B6 groups) with a small per-bench
# time budget, and record one JSON line per benchmark in BENCH_tagprop.json.
# Then run the B7 scan-vs-bitmap index series into BENCH_index.json, the
# B8 WAL/recovery durability series into BENCH_wal.json, the B9
# index-build and join series into BENCH_vector.json, the B10
# columnar-vs-row series into BENCH_columnar.json, and the B12 MVCC
# reader-throughput burst into BENCH_mvcc.json.
# Finishes with the parallel index-build regression gate over the fresh
# B9 numbers.
#
# Knobs (all optional):
#   DQ_BENCH_JSON        output file for B1/B2/B6 (default BENCH_tagprop.json)
#   DQ_BENCH_INDEX_JSON  output file for B7       (default BENCH_index.json)
#   DQ_BENCH_WAL_JSON    output file for B8       (default BENCH_wal.json)
#   DQ_BENCH_VECTOR_JSON output file for B9       (default BENCH_vector.json)
#   DQ_BENCH_COLUMNAR_JSON output file for B10    (default BENCH_columnar.json)
#   DQ_BENCH_MVCC_JSON   output file for B12      (default BENCH_mvcc.json)
#   DQ_MVCC_MS           B12 measure window per tier, ms (default DQ_BENCH_MS)
#   DQ_BENCH_WAL_TIERS  log lengths for B8 recovery (default 1000,10000,50000)
#   DQ_BENCH_MS         measure budget per bench, ms   (default 200)
#   DQ_BENCH_WARMUP_MS  warmup per bench, ms           (default 50)
#   DQ_BENCH_ROWS       row counts for B1/tagprop      (default 100000)
#   DQ_BENCH_TIERS      row tiers for B7/B9       (default 10000,100000,1000000)
#   DQ_THREADS          worker threads for the parallel series
set -euo pipefail
cd "$(dirname "$0")/.."

export DQ_BENCH_JSON="${DQ_BENCH_JSON:-$PWD/BENCH_tagprop.json}"
export DQ_BENCH_MS="${DQ_BENCH_MS:-200}"
export DQ_BENCH_WARMUP_MS="${DQ_BENCH_WARMUP_MS:-50}"
export DQ_BENCH_ROWS="${DQ_BENCH_ROWS:-100000}"

: > "$DQ_BENCH_JSON"

for bench in tag_overhead quality_filter query_e2e; do
    cargo bench --offline -p dq-bench --bench "$bench"
done

echo "wrote $(wc -l < "$DQ_BENCH_JSON") records to $DQ_BENCH_JSON"

# B7: scan vs. bitmap index across size tiers × selectivities
DQ_BENCH_INDEX_JSON="${DQ_BENCH_INDEX_JSON:-$PWD/BENCH_index.json}"
export DQ_BENCH_TIERS="${DQ_BENCH_TIERS:-10000,100000,1000000}"
: > "$DQ_BENCH_INDEX_JSON"
DQ_BENCH_JSON="$DQ_BENCH_INDEX_JSON" cargo bench --offline -p dq-bench --bench index_scan

echo "wrote $(wc -l < "$DQ_BENCH_INDEX_JSON") records to $DQ_BENCH_INDEX_JSON"

# B8: WAL append throughput (group commit vs. autocommit) and
# recovery time vs. log length
DQ_BENCH_WAL_JSON="${DQ_BENCH_WAL_JSON:-$PWD/BENCH_wal.json}"
export DQ_BENCH_WAL_TIERS="${DQ_BENCH_WAL_TIERS:-1000,10000,50000}"
: > "$DQ_BENCH_WAL_JSON"
DQ_BENCH_JSON="$DQ_BENCH_WAL_JSON" cargo bench --offline -p dq-bench --bench durability

echo "wrote $(wc -l < "$DQ_BENCH_WAL_JSON") records to $DQ_BENCH_WAL_JSON"

# B9: serial vs. parallel index build, row hash join vs. the pair
# kernel plus its gather
DQ_BENCH_VECTOR_JSON="${DQ_BENCH_VECTOR_JSON:-$PWD/BENCH_vector.json}"
: > "$DQ_BENCH_VECTOR_JSON"
DQ_BENCH_JSON="$DQ_BENCH_VECTOR_JSON" cargo bench --offline -p dq-bench --bench vector

echo "wrote $(wc -l < "$DQ_BENCH_VECTOR_JSON") records to $DQ_BENCH_VECTOR_JSON"

# B10: columnar tagged storage vs. the row layout (σ, index build,
# conversion costs)
DQ_BENCH_COLUMNAR_JSON="${DQ_BENCH_COLUMNAR_JSON:-$PWD/BENCH_columnar.json}"
: > "$DQ_BENCH_COLUMNAR_JSON"
DQ_BENCH_JSON="$DQ_BENCH_COLUMNAR_JSON" cargo bench --offline -p dq-bench --bench columnar

echo "wrote $(wc -l < "$DQ_BENCH_COLUMNAR_JSON") records to $DQ_BENCH_COLUMNAR_JSON"

# B12: MVCC reader throughput under a sustained TAG-write burst — 1
# writer + 4/16 readers. The bench itself is the parity gate: reader
# queries are checked against embedded serial rendering before timing,
# and the quiesced post-burst state must be byte-identical to an
# embedded replay (both fatal). Compare against the previous run.
DQ_BENCH_MVCC_JSON="${DQ_BENCH_MVCC_JSON:-$PWD/BENCH_mvcc.json}"
DQ_BENCH_MVCC_JSON="$DQ_BENCH_MVCC_JSON" DQ_MVCC_MS="${DQ_MVCC_MS:-$DQ_BENCH_MS}" \
    cargo run -q --offline --release -p dq-bench --bin mvcc_burst

echo "wrote $(wc -l < "$DQ_BENCH_MVCC_JSON") records to $DQ_BENCH_MVCC_JSON"

# B13: paged storage under a budget-capped buffer pool — streamed load,
# point-read qps + hit rate at 5/25/100% pool budgets, and dirty-page
# checkpoint cost vs dirty fraction. Pass DQ_POOL_TIERS=1000000,10000000
# for the full larger-than-RAM ladder; the default 1M tier keeps the
# smoke run's disk and time budget modest.
DQ_BENCH_POOL_JSON="${DQ_BENCH_POOL_JSON:-$PWD/BENCH_pool.json}"
DQ_BENCH_POOL_JSON="$DQ_BENCH_POOL_JSON" DQ_POOL_MS="${DQ_POOL_MS:-$DQ_BENCH_MS}" \
    cargo run -q --offline --release -p dq-bench --bin pool_bench

echo "wrote $(wc -l < "$DQ_BENCH_POOL_JSON") records to $DQ_BENCH_POOL_JSON"

# B14: indexed access paths over paged relations — bitmap-driven σ vs
# full paged scan at ~0.1/1/10% selectivity × 5/25/100% pool budgets,
# sorted readahead on and off. The bench is its own parity gate: every
# cell's indexed result is compared byte-for-byte against the full scan
# and an in-memory twin before timing (fatal).
DQ_BENCH_PAGED_INDEX_JSON="${DQ_BENCH_PAGED_INDEX_JSON:-$PWD/BENCH_paged_index.json}"
DQ_BENCH_PAGED_INDEX_JSON="$DQ_BENCH_PAGED_INDEX_JSON" DQ_PIDX_MS="${DQ_PIDX_MS:-$DQ_BENCH_MS}" \
    cargo run -q --offline --release -p dq-bench --bin paged_index_bench

echo "wrote $(wc -l < "$DQ_BENCH_PAGED_INDEX_JSON") records to $DQ_BENCH_PAGED_INDEX_JSON"

# Regression gate: forced-8-thread index build must not be slower than
# serial at >=100k rows (fails the run; warn-only on single-CPU boxes;
# always fails if the bench json is missing or empty).
scripts/index_build_gate.sh "$DQ_BENCH_VECTOR_JSON"

# Regression gate: dirty-page checkpoints must stay bounded by the pool
# (O(dirty), not O(db)) and a full-budget pool must serve reads from
# memory (fails the run; always fails if the json is missing or empty).
scripts/pool_gate.sh "$DQ_BENCH_POOL_JSON"

# Regression gate: the paged bitmap path must skip pages (cold
# pages_read ≈ matching pages, structural) and must beat the full scan
# at ≤1% selectivity on the 5% pool budget (fails the run on
# multi-core; always fails if the json is missing or empty).
scripts/paged_index_gate.sh "$DQ_BENCH_PAGED_INDEX_JSON"
