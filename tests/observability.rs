//! Integration: the execution-observability layer end to end — EXPLAIN
//! ANALYZE over the generated trading workload, serial/parallel parity,
//! and a well-formed metrics registry snapshot.

use dq_query::{explain, explain_analyze, run, run_with, Planner, QueryCatalog, QueryResult};
use dq_workloads::{generate_trading, TradingGenConfig};
use std::sync::Mutex;

/// The metrics registry is process-wide: a test reading a counter's
/// delta must not overlap with tests that execute plans.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup() -> QueryCatalog {
    let w = generate_trading(&TradingGenConfig {
        clients: 30,
        stocks: 40,
        trades: 400,
        ..Default::default()
    })
    .unwrap();
    let mut catalog = QueryCatalog::new();
    catalog.register("company_stock", w.stocks);
    catalog.register("trade", w.trades);
    catalog
}

/// The acceptance query: a quality-filtered join. Pushdown turns the
/// quality predicate into an `IndexScan` on the stock side and the probe
/// into an `IndexJoin` against the trade table's key index.
const QUERY: &str = "SELECT l.ticker_symbol, quantity \
     FROM company_stock JOIN trade ON ticker_symbol = ticker_symbol \
     WITH QUALITY (share_price@source = 'manual entry')";

#[test]
fn explain_analyze_annotates_every_index_operator() {
    let _serial = serial();
    let catalog = setup();
    let report = explain_analyze(&catalog, QUERY, &Planner::default()).unwrap();

    let mut index_ops = 0;
    for line in report.lines() {
        let op = line.trim_start();
        assert!(line.contains(" | rows="), "missing row count: {line}");
        assert!(line.contains("elapsed="), "missing timing: {line}");
        if op.starts_with("IndexScan") || op.starts_with("IndexJoin") {
            index_ops += 1;
            assert!(line.contains("est_selectivity="), "missing estimate: {line}");
            assert!(line.contains("actual_selectivity="), "missing actual: {line}");
            assert!(line.contains("err="), "missing est-vs-actual error: {line}");
        }
    }
    assert!(report.contains("IndexScan"), "no IndexScan in:\n{report}");
    assert!(report.contains("IndexJoin"), "no IndexJoin in:\n{report}");
    assert!(index_ops >= 2, "expected both index operators:\n{report}");

    // the batched executor reports how it ran: batch counts, and the
    // columnar layout on the index scan and on an unfiltered join's probe
    let join = explain_analyze(
        &catalog,
        "SELECT * FROM company_stock JOIN trade ON ticker_symbol = ticker_symbol",
        &Planner::default(),
    )
    .unwrap();
    for (report, op) in [(&report, "IndexScan"), (&join, "IndexJoin")] {
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with(op))
            .unwrap_or_else(|| panic!("no {op} in:\n{report}"));
        assert!(line.contains("batches="), "{line}");
        assert!(line.contains("layout=columnar"), "{line}");
    }
}

#[test]
fn explain_analyze_statement_returns_rows_and_report() {
    let _serial = serial();
    let catalog = setup();
    let sql = format!("EXPLAIN ANALYZE {QUERY}");
    let result = run_with(&catalog, &sql, &Planner::default()).unwrap();
    let analyzed_rows = result.relation().len();
    let report = result.report().unwrap().to_owned();
    assert!(report.contains(&format!("rows={analyzed_rows}")), "{report}");

    // The plain query returns the same relation the analyzed run produced.
    let direct = run(&catalog, QUERY).unwrap();
    assert_eq!(direct.relation().len(), analyzed_rows);
    assert!(analyzed_rows > 0, "quality filter should keep some trades");

    // Plain EXPLAIN renders the same operators without executing.
    let plan_only = run_with(
        &catalog,
        &format!("EXPLAIN {QUERY}"),
        &Planner::default(),
    )
    .unwrap();
    match &plan_only {
        QueryResult::Explain { rows: None, report: plan } => {
            let ops = |s: &str| {
                s.lines()
                    .map(|l| l.split(" | ").next().unwrap().to_owned())
                    .collect::<Vec<_>>()
            };
            assert_eq!(ops(plan), ops(&report));
        }
        other => panic!("expected plan-only explain, got {other:?}"),
    }
}

#[test]
fn serial_and_parallel_runs_agree_and_snapshot_validates() {
    let _serial = serial();
    let catalog = setup();
    let rows_at = |threads: usize| {
        relstore::par::with_thread_count(threads, || {
            run(&catalog, QUERY).unwrap().relation().len()
        })
    };
    let serial = rows_at(1);
    let parallel = rows_at(8);
    assert_eq!(serial, parallel, "thread count changed the answer");

    let snap = dq_obs::registry().snapshot();
    assert!(snap.counter("query.ops") > 0, "executor left no metrics");
    snap.validate().unwrap_or_else(|errs| panic!("bad snapshot: {errs:?}"));
    assert!(snap.render_text().contains("query.ops"));
}

/// `analytic_scan`'s `filter_count` shape — a global COUNT over a bitmap
/// σ with a residual — folds the σ's selection where it lies: executing
/// it, traced or not, gathers no row (`columnar.gather_runs` stands
/// still), while the analyzed tree is still plain EXPLAIN's, line for
/// line, and its IndexScan still reports how it selected.
#[test]
fn aggregate_over_a_selection_gathers_nothing() {
    let _serial = serial();
    let catalog = setup();
    let from = "FROM trade WHERE trade_price > 500.0 \
                WITH QUALITY (quantity@inspection = 'double entry')";
    let sql = format!("SELECT COUNT(*) AS n {from}");
    run(&catalog, &sql).unwrap(); // builds the lazy layout and index
    let gather_runs = dq_obs::counter!("columnar.gather_runs");
    let before = gather_runs.get();
    let report = explain_analyze(&catalog, &sql, &Planner::default()).unwrap();
    let answer = run(&catalog, &sql).unwrap();
    assert_eq!(gather_runs.get(), before, "the aggregate gathered:\n{report}");

    let ops = |s: &str| {
        s.lines()
            .map(|l| l.split(" | ").next().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    let plain = explain(&catalog, &sql, &Planner::default()).unwrap();
    assert_eq!(ops(&report), ops(&plain));
    let scan = report
        .lines()
        .find(|l| l.trim_start().starts_with("IndexScan"))
        .unwrap_or_else(|| panic!("no IndexScan in:\n{report}"));
    for annotation in ["est_selectivity=", "actual_selectivity=", "batches="] {
        assert!(scan.contains(annotation), "{scan}");
    }
    // the count is the selection's size, which the scan line reports
    let n = answer.relation().cell(0, "n").unwrap().value.to_string();
    assert!(scan.contains(&format!("rows={n} ")), "{n} vs {scan}");

    // the same σ returning its rows does gather
    let rows = run(&catalog, &format!("SELECT * {from}")).unwrap();
    assert_eq!(rows.relation().len().to_string(), n);
    assert!(gather_runs.get() > before);
}

/// EXPLAIN ANALYZE's `Aggregate` line names what γ read — a bare scan's
/// cached layout or a σ's selection as it lies (`columnar`), a join's
/// position pairs (`pairs`), a keyed lookup's rows lifted once
/// (`lifted`) — and how many groups it made; plain EXPLAIN never shows
/// it.
#[test]
fn aggregate_reports_its_source_and_groups() {
    let _serial = serial();
    let catalog = setup();
    for (sql, source) in [
        (
            "SELECT ticker_symbol, COUNT(*) AS n FROM trade GROUP BY ticker_symbol",
            "columnar",
        ),
        (
            "SELECT COUNT(*) AS n FROM trade WHERE quantity > 0",
            "columnar",
        ),
        (
            "SELECT l.ticker_symbol, SUM(quantity) AS net FROM trade JOIN company_stock \
             ON ticker_symbol = ticker_symbol GROUP BY l.ticker_symbol",
            "pairs",
        ),
        (
            "SELECT COUNT(*) AS n FROM trade WHERE account_number = 3",
            "lifted",
        ),
    ] {
        let groups = run(&catalog, sql).unwrap().relation().len();
        let report = explain_analyze(&catalog, sql, &Planner::default()).unwrap();
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with("Aggregate"))
            .unwrap_or_else(|| panic!("no Aggregate in:\n{report}"));
        let annotation = format!(" source={source} groups={groups}");
        assert!(line.ends_with(&annotation), "{line}");
        let plain = explain(&catalog, sql, &Planner::default()).unwrap();
        assert!(!plain.contains("source="), "{plain}");
    }
}
