//! B6 — end-to-end quality queries: parse + plan + execute over the
//! trading workload, with predicate pushdown on vs. off.
//!
//! Expected shape: parsing and planning are microseconds and independent
//! of data size; execution dominates; pushdown wins on selective quality
//! predicates over the join because it shrinks the build/probe inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dq_query::{parse, run_with, Planner, QueryCatalog};
use dq_workloads::{generate_trading, TradingGenConfig};

fn catalog(trades: usize) -> QueryCatalog {
    let w = generate_trading(&TradingGenConfig {
        clients: 200,
        stocks: 100,
        trades,
        ..Default::default()
    })
    .expect("generator ok");
    let mut c = QueryCatalog::new();
    c.register("company_stock", w.stocks);
    c.register("trade", w.trades);
    c.register("client", w.clients);
    c
}

const JOIN_Q: &str = "SELECT l.ticker_symbol, SUM(quantity) AS net \
     FROM trade JOIN company_stock ON ticker_symbol = ticker_symbol \
     WHERE quantity > 0 \
     WITH QUALITY (share_price@age <= 3, share_price@source = 'NYSE feed') \
     GROUP BY l.ticker_symbol";

const SCAN_Q: &str = "SELECT ticker_symbol, share_price, share_price@age AS age \
     FROM company_stock WHERE share_price > 100 \
     WITH QUALITY (share_price@age <= 14) ORDER BY share_price DESC LIMIT 10";

fn bench_parse_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("B6/frontend");
    g.bench_function("parse_join_query", |b| b.iter(|| parse(JOIN_Q).unwrap()));
    let cat = catalog(1_000);
    let stmt = parse(JOIN_Q).unwrap();
    let planner = Planner::default();
    g.bench_function("plan_join_query", |b| {
        b.iter(|| planner.plan(&stmt, &cat).expect("plans"))
    });
    g.finish();
}

fn bench_execute(c: &mut Criterion) {
    let mut g = c.benchmark_group("B6/execute");
    g.sample_size(10);
    for &trades in &[1_000usize, 10_000] {
        let cat = catalog(trades);
        g.bench_with_input(
            BenchmarkId::new("join_pushdown", trades),
            &cat,
            |b, cat| {
                b.iter(|| {
                    run_with(
                        cat,
                        JOIN_Q,
                        &Planner {
                            pushdown: true,
                            ..Planner::default()
                        },
                    )
                    .unwrap()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("join_no_pushdown", trades),
            &cat,
            |b, cat| {
                b.iter(|| {
                    run_with(
                        cat,
                        JOIN_Q,
                        &Planner {
                            pushdown: false,
                            ..Planner::default()
                        },
                    )
                    .unwrap()
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("scan_top10", trades), &cat, |b, cat| {
            b.iter(|| run_with(cat, SCAN_Q, &Planner::default()).unwrap())
        });
    }
    g.finish();

    // shape check: both plans agree
    let cat = catalog(1_000);
    let a = run_with(
        &cat,
        JOIN_Q,
        &Planner {
            pushdown: true,
            ..Planner::default()
        },
    )
    .unwrap();
    let b = run_with(
        &cat,
        JOIN_Q,
        &Planner {
            pushdown: false,
            ..Planner::default()
        },
    )
    .unwrap();
    assert_eq!(a.relation().strip(), b.relation().strip());
}

/// Serial vs. parallel end-to-end execution of the quality join query —
/// the chunked operators seen from the query layer.
fn bench_parallel(c: &mut Criterion) {
    use relstore::par;
    let mut g = c.benchmark_group("B6/parallel");
    g.sample_size(10);
    let cat = catalog(10_000);
    g.bench_function("join_serial", |b| {
        b.iter(|| {
            par::with_thread_count(1, || {
                run_with(&cat, JOIN_Q, &Planner::default()).unwrap()
            })
        })
    });
    g.bench_function("join_parallel", |b| {
        b.iter(|| run_with(&cat, JOIN_Q, &Planner::default()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_parse_plan, bench_execute, bench_parallel);
criterion_main!(benches);
