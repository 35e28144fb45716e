#!/usr/bin/env bash
# Full local CI gate: release build, test suite, and lint-clean clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# `filtered <cargo test args…> <filter>` runs the filtered tests at a
# higher case count, and fails first when the filter selects no test:
# tests that move or are renamed must not leave a gate running nothing.
filtered() {
    local listed
    listed=$(cargo test -q --offline "$@" -- --list 2>/dev/null | grep -c ': test$' || true)
    if [ "$listed" -eq 0 ]; then
        echo "ci: \`cargo test $*\` selects no test" >&2
        exit 1
    fi
    PROPTEST_CASES=128 cargo test -q --offline "$@"
}

# Access-path parity: the bitmap-index property tests at a higher case
# count than the default test run (clone-then-retag copy-on-write
# parity among them).
filtered -p tagstore bitmap_
filtered -p dq-query index_planner

# Columnar-layout parity: row↔columnar round-trip (values, nulls,
# per-cell tags), columnar σ vs σ written longhand (one verdict per
# row), the pair kernel and its gather and fold vs a nested-loop join
# and γ written longhand over fixed fixtures, and the columnar index
# build vs the serial fold, at a higher case count.
filtered -p tagstore columnar

# Join parity: the pair kernel plus its gather equals a nested-loop join
# of the gathered inputs — NULL and duplicate keys, Text keys from two
# string pools, a hashed or prebuilt right side — at every batch size
# and at 1/2/8 threads, at a higher case count.
filtered -p tagstore join_pairs

# γ by group ids: the one γ kernel against γ written longhand over rows
# (keys of every type, NULL/-0.0/NaN keys, multi-column keys, two string
# pools through a join's pairs, every AggFunc and TagRule), and each tag
# column against the cells' tag values, at a higher case count.
filtered -p tagstore group_ids

# σ over tag columns: each conjunct on its typed tag or value column
# (one tag set per row, absent and NULL-valued tags, a meta-tag path,
# Date and Text ranges, an atom then a residual then a fault), indexed
# and unindexed, against `Predicate::matches` with its errors, at 1/2/8
# threads and every batch size, at a higher case count.
filtered -p tagstore tag_columns_match_the_row_verdict

# An answer as a view: a σ's and a ⋈'s view, whole and under π (aliases,
# pseudo-columns down a tag or meta-tag path, `l.`/`r.` names), over
# empty, sparse and full selections, renders the longhand table of its
# gathered rows (widths in bytes, padding in chars, multi-byte text), and
# those rows are the source rows projected longhand and pass
# `TaggedRelation::new`'s checks, at a higher case count.
filtered -p tagstore answer_renders_as_its_rows

# Shared rows: a relation's clone shares its rows, and tagging cells of
# the clone deep-copies only the rows it tags (the original unchanged,
# the clone equal to a longhand copy tagged cell by cell), at a higher
# case count.
filtered -p tagstore shared_rows_copy_on_write

# Declared integrity: the ER mapping's key and reference check against
# the same check written row at a time (Int/Text keys of one or two
# columns, NULL components, repeated keys, orphans), at a higher case
# count.
filtered -p er-model integrity

# Aggregation over a selection: the γ kernel, fed by columnar
# selections, bare scans, lifted keyed lookups and a join's position
# pairs, against the oracle's γ, at a higher case count.
PROPTEST_CASES=128 cargo test -q --offline --test aggregate_fold

# The longhand oracle against both planners over generated SELECTs
# (unspoiled, extreme Int arithmetic, guarded and leading faults): 40
# statements a case, 5 120 at this case count.
filtered --test plan_differential oracle

# The oracle (the dev-only `dq-oracle` crate) shares no kernel with the
# engine: it may not name the tagged algebra, the columnar layout, the
# bound predicate or the compiled expression.
if grep -rnE 'tagstore::algebra|columnar|Predicate|CompiledExpr' crates/oracle/src/; then
    echo "ci: crates/oracle/src/ names an engine kernel" >&2
    exit 1
fi

# B7 smoke at the 10k tier: asserts scan==bitmap parity inside the bench
# before timing anything.
DQ_BENCH_TIERS=10000 DQ_BENCH_MS=50 DQ_BENCH_WARMUP_MS=10 \
    DQ_BENCH_JSON=/tmp/ci_bench_index.json \
    cargo bench --offline -p dq-bench --bench index_scan >/dev/null

# B9 smoke at the 10k tier: asserts parity (the pair kernel plus its
# gather vs the oracle's nested loops over the left side's first rows,
# serial vs parallel index build) before timing.
DQ_BENCH_TIERS=10000 DQ_BENCH_MS=50 DQ_BENCH_WARMUP_MS=10 \
    DQ_BENCH_JSON=/tmp/ci_bench_vector.json \
    cargo bench --offline -p dq-bench --bench vector >/dev/null

# Parallel index-build regression check over the fresh 10k smoke
# numbers. Warn-only here: the tiny CI time budget makes mean_ns noisy
# and 10k rows sits below the par::plan_index crossover; the failing
# version of this gate runs in scripts/bench_smoke.sh at full tiers.
scripts/index_build_gate.sh --warn-only /tmp/ci_bench_vector.json

# B10 smoke at the 10k tier: asserts parity (σ vs the oracle, columnar
# vs row index build, round-trip) before timing.
DQ_BENCH_TIERS=10000 DQ_BENCH_MS=50 DQ_BENCH_WARMUP_MS=10 \
    DQ_BENCH_JSON=/tmp/ci_bench_columnar.json \
    cargo bench --offline -p dq-bench --bench columnar >/dev/null

# Observability smoke: EXPLAIN ANALYZE over the B7 query set plus the
# trading join; exits nonzero if the metrics registry snapshot contains
# a NaN, negative, or inconsistent value.
cargo run -q --offline --release --example observability >/dev/null

# Server gate: boot dq-server on an ephemeral port, 4-client burst with
# byte-identical parity vs embedded serial execution, at least one
# stmt-cache hit, TAG visibility across sessions, and a validating
# server.* metrics snapshot.
cargo run -q --offline --release --example server_roundtrip >/dev/null

# Concurrent-session parity at a higher case count: N phase-shifted
# clients vs the embedded serial rendering at 1/2/8 worker threads.
filtered -p dq-server concurrent_sessions

# MVCC live-prefix property at a higher case count: every read during a
# random TAG burst renders some committed epoch prefix (no torn tags),
# and each reader only moves forward, at 1/2/8 worker threads.
filtered -p dq-server readers_observe

# O(delta) TAG, by the counters, in a process of its own (the registry
# is process-wide): 50 durable TAG/SELECT/SELECT rounds over the wire
# rebuild no bitmap index, every SELECT is a point lookup, no write
# conflicts, and a restart from the directory finds every last tag.
cargo test -q --offline -p dq-server --test write_path

# B12 parity + quiesce gate at a tiny window: the bench asserts reader
# queries match the embedded serial rendering before timing and that
# the quiesced post-burst state is byte-identical to an embedded replay
# (both fatal).
DQ_MVCC_MS=100 DQ_MVCC_ROWS=64 DQ_MVCC_READERS=4 \
    DQ_BENCH_MVCC_JSON=/tmp/ci_bench_mvcc.json \
    cargo run -q --offline --release -p dq-bench --bin mvcc_burst >/dev/null

# B13 smoke at the 20k tier: paged load + parity read-back, pool hit
# rate vs budget, and dirty-page checkpoint bounds. The gate's
# structural checks (missing json, checkpoint flushing more than the
# pool holds) fail even in warn-only mode.
DQ_POOL_TIERS=20000 DQ_POOL_MS=50 \
    DQ_BENCH_POOL_JSON=/tmp/ci_bench_pool.json \
    cargo run -q --offline --release -p dq-bench --bin pool_bench >/dev/null
scripts/pool_gate.sh --warn-only /tmp/ci_bench_pool.json

# B14 smoke at the 20k tier: paged indexed σ vs full scan with the
# in-memory-twin parity check inside the bench (fatal before timing).
# The gate's structural page-skipping check (cold pages_read ≈ matching
# pages) fails even in warn-only mode; the qps comparison is warn-only
# here because the tiny window and shared CPU make it noisy.
DQ_PIDX_ROWS=20000 DQ_PIDX_MS=50 \
    DQ_BENCH_PAGED_INDEX_JSON=/tmp/ci_bench_paged_index.json \
    cargo run -q --offline --release -p dq-bench --bin paged_index_bench >/dev/null
scripts/paged_index_gate.sh --warn-only /tmp/ci_bench_paged_index.json

# Crash-recovery at a higher case count: random op sequences cut at
# every prefix must recover to exactly the committed state (including
# the paged-relation crash-prefix, torn dirty-page flush, and torn
# manifest-publish properties).
filtered -p dq-storage proptests

# Recovery gate: write through the WAL into a temp directory, crash with
# a pending group commit, recover, and check lineage + metrics survive.
cargo run -q --offline --release --example crash_recovery >/dev/null

# Every other example runs too (release, about 40 ms together): each
# exits nonzero when one of its own asserts fails, e.g.
# heterogeneous_sources' provenance sanity checks.
for path in examples/*.rs; do
    example=$(basename "$path" .rs)
    case "$example" in
        observability | server_roundtrip | crash_recovery) continue ;;
    esac
    cargo run -q --offline --release --example "$example" >/dev/null
done

# The benchmark package is a workspace of its own, so nothing above
# compiles it: build it and run its unit tests and 1-second smoke of
# every workload against the crates as they are now.
cargo test -q --offline --manifest-path e2e/Cargo.toml

echo "ci: build + test + clippy + index parity + columnar parity + oracle + observability + mvcc + recovery + examples + e2e all green"
