//! Plan differential: every statement a seeded generator can spell
//! answers the same through the optimizing planner and the naive one,
//! and `EXPLAIN ANALYZE` describes — and returns — exactly what the
//! plain statement runs: (a) `Planner::default()` renders byte-equal to
//! a planner with pushdown and index selection off; (b) the analyzed
//! run returns the plain statement's rows and its root line counts
//! them; (c) the analyzed tree, cut at `" | "`, is plain `EXPLAIN` line
//! for line. Then the pinned cases for the one-walker executor: the
//! traced run of a `col = literal` query takes (and reports) the
//! key-hash point lookup the lean run takes, and both tick the same
//! counters. Then the same generator with a misspelled indicator in
//! every `col@indicator` it writes: each such statement fails, through
//! either planner and under either `EXPLAIN`, with the error `TAG`
//! gives for that indicator. Last, the generator spoils each statement
//! with one bad conjunct: a comparison against a literal of another
//! type fails when it is bound, with one text everywhere and no rows;
//! Int arithmetic on extreme literals answers alike through both
//! planners, rows or error text.

use dq_query::{
    execute, execute_traced, parse, run_mut, run_with, Planner, QueryCatalog, QueryResult,
};
use dq_server::render_result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{DataType, Schema, Value};
use std::sync::Mutex;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

/// The `query.*` counters are process-wide; tests that read deltas must
/// not overlap with tests that execute plans.
static SERIAL: Mutex<()> = Mutex::new(());

const SECTORS: [&str; 3] = ["tech", "retail", "energy"];
const SOURCES: [&str; 2] = ["NYSE feed", "manual entry"];
const INSPECTIONS: [&str; 2] = ["double entry", "none"];

/// `stocks(ticker, price, sector)`: unique tickers T0..T7, one NULL
/// price, `price@source` / `price@age` on most rows.
/// `trades(tkr, qty, acct)`: repeated tickers (T8 matches no stock), one
/// NULL quantity, `qty@inspection` on most rows.
fn catalog() -> QueryCatalog {
    let null_at = |i: usize, at: usize, v: Value| if i == at { Value::Null } else { v };
    let stocks = (0..8usize).map(|i| {
        let mut price = QualityCell::bare(null_at(i, 5, Value::Float(5.0 + 4.5 * i as f64)));
        if i % 4 != 3 {
            price.set_tag(IndicatorValue::new("source", SOURCES[i % 2]));
        }
        if i % 3 != 2 {
            price.set_tag(IndicatorValue::new("age", (i * 7 % 30) as i64));
        }
        vec![QualityCell::bare(format!("T{i}")), price, QualityCell::bare(SECTORS[i % 3])]
    });
    let trades = (0..14usize).map(|i| {
        let mut qty = QualityCell::bare(null_at(i, 9, Value::Int((i * 37 % 100) as i64)));
        if i % 5 != 4 {
            qty.set_tag(IndicatorValue::new("inspection", INSPECTIONS[i % 2]));
        }
        let tkr = QualityCell::bare(format!("T{}", i * 5 % 9));
        vec![tkr, qty, QualityCell::bare((i % 4 + 1) as i64)]
    });
    let dict = IndicatorDictionary::with_paper_defaults;
    let (text, int) = (DataType::Text, DataType::Int);
    let stock_schema = Schema::of(&[("ticker", text), ("price", DataType::Float), ("sector", text)]);
    let trade_schema = Schema::of(&[("tkr", text), ("qty", int), ("acct", int)]);
    let mut c = QueryCatalog::new();
    c.register("stocks", TaggedRelation::new(stock_schema, dict(), stocks.collect()).unwrap());
    c.register("trades", TaggedRelation::new(trade_schema, dict(), trades.collect()).unwrap());
    c
}

/// Seeded generator of well-typed QQL over the two tables. With a
/// `typo`, every indicator path it writes is that path instead. With a
/// `spoil`, every statement carries one conjunct of that kind.
struct Gen {
    rng: StdRng,
    typo: Option<&'static str>,
    spoil: Option<Spoil>,
    /// The statement being generated has not placed its bad conjunct yet.
    pending: bool,
}

/// The one bad conjunct a spoiled statement carries.
#[derive(Clone, Copy, PartialEq)]
enum Spoil {
    /// `=`, `<>` or `<` against a literal of another type, on a base or
    /// pseudo-column, either way round, in WHERE or WITH QUALITY.
    IllTyped,
    /// Int arithmetic on `i64::MAX`, `i64::MIN`, `-1` or `0`, as the
    /// last conjunct (so the rows it reads do not depend on the plan).
    Extreme,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            typo: None,
            spoil: None,
            pending: false,
        }
    }

    fn spoiled(seed: u64, spoil: Spoil) -> Self {
        Gen {
            spoil: Some(spoil),
            ..Gen::new(seed)
        }
    }

    /// One conjunct of the statement's spoil kind over `tables`.
    fn bad_conjunct(&mut self, tables: &[&str]) -> String {
        let table = self.pick(tables);
        let stocks = table == "stocks";
        if self.spoil == Some(Spoil::IllTyped) {
            let op = self.pick(&["=", "<>", "<"]);
            let (col, lit) = match (stocks, self.below(4)) {
                (true, 0) => ("price", "'cheap'"),
                (true, 1) => ("ticker", "7"),
                (true, 2) => ("price@source", "3"),
                (true, _) => ("price@age", "'old'"),
                (false, 0) => ("qty", "'many'"),
                (false, 1) => ("tkr", "DATE '1991-10-24'"),
                (false, 2) => ("qty@inspection", "1.5"),
                (false, _) => ("acct", "'x'"),
            };
            return if self.chance(0.5) {
                format!("{col} {op} {lit}")
            } else {
                format!("{lit} {op} {col}")
            };
        }
        let col = if stocks { "price@age" } else { self.pick(&["qty", "acct"]) };
        let big = self.pick(&["9223372036854775807", "(0 - 9223372036854775807 - 1)"]);
        let divisor = self.pick(&["-1", "0", "(0 - 1)", "1"]);
        match self.below(5) {
            0 => format!("{col} + {big} < 0"),
            1 => format!("{col} - {big} > 0"),
            2 => format!("{col} * {big} >= {col}"),
            3 => format!("{big} / {divisor} = {col}"),
            _ => format!("{col} % {divisor} = 0"),
        }
    }

    /// `parts` with the statement's bad conjunct, if this clause is the
    /// one to take it: an ill-typed one lands anywhere in WHERE or in WITH
    /// QUALITY; an extreme one last in the last clause (`last`).
    fn spoil_clause(&mut self, mut parts: Vec<String>, tables: &[&str], last: bool) -> Vec<String> {
        let Some(spoil) = self.spoil else {
            return parts;
        };
        let here = match spoil {
            Spoil::IllTyped => last || self.chance(0.5),
            Spoil::Extreme => last,
        };
        if self.pending && here {
            self.pending = false;
            let bad = self.bad_conjunct(tables);
            let at = match spoil {
                Spoil::IllTyped => self.below(parts.len() + 1),
                Spoil::Extreme => parts.len(),
            };
            parts.insert(at, bad);
        }
        parts
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// `column@indicator`, or `column@<typo>` when misspelling.
    fn tag(&self, column: &str, indicator: &str) -> String {
        format!("{column}@{}", self.typo.unwrap_or(indicator))
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    /// One value conjunct over `table`'s columns.
    fn value_conjunct(&mut self, table: &str) -> String {
        let cmp = self.pick(&["<", "<=", ">", ">="]);
        let eq = self.pick(&["=", "<>"]);
        if table == "stocks" {
            match self.below(5) {
                // `col = literal`, either way round; T8/T9 match nothing
                0 => format!("ticker = 'T{}'", self.below(10)),
                1 => format!("'T{}' = ticker", self.below(10)),
                2 => format!("price {cmp} {}.5", self.below(40)),
                3 => format!("sector {eq} '{}'", self.pick(&SECTORS)),
                _ => format!("price IS {}NULL", self.pick(&["", "NOT "])),
            }
        } else {
            match self.below(5) {
                0 => format!("tkr = 'T{}'", self.below(10)),
                1 => format!("acct = {}", self.below(5) + 1),
                2 => format!("qty {cmp} {}", self.below(100)),
                3 => {
                    let lo = self.below(60);
                    format!("qty BETWEEN {lo} AND {}", lo + self.below(50))
                }
                _ => format!("qty IS {}NULL", self.pick(&["", "NOT "])),
            }
        }
    }

    /// One `col@indicator` conjunct over `table`'s tagged column.
    fn quality_conjunct(&mut self, table: &str) -> String {
        let eq = self.pick(&["=", "<>"]);
        if table == "stocks" {
            match self.below(3) {
                0 => format!(
                    "{} {eq} '{}'",
                    self.tag("price", "source"),
                    self.pick(&SOURCES)
                ),
                1 => format!("{} <= {}", self.tag("price", "age"), self.below(30)),
                _ => format!("{} > {}", self.tag("price", "age"), self.below(30)),
            }
        } else {
            let inspection = self.tag("qty", "inspection");
            format!("{inspection} {eq} '{}'", self.pick(&INSPECTIONS))
        }
    }

    /// A conjunct for the WHERE clause: value, quality, or an OR of two
    /// (which must not be mistaken for a point lookup or pushed apart).
    fn where_conjunct(&mut self, tables: &[&str]) -> String {
        let table = self.pick(tables);
        match self.below(6) {
            0 => self.quality_conjunct(table),
            1 => format!(
                "({} OR {})",
                self.value_conjunct(table),
                self.value_conjunct(table)
            ),
            _ => self.value_conjunct(table),
        }
    }

    fn where_parts(&mut self, tables: &[&str]) -> Vec<String> {
        (0..self.below(4))
            .map(|_| self.where_conjunct(tables))
            .collect()
    }

    fn where_clause(parts: Vec<String>) -> String {
        if parts.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", parts.join(" AND "))
        }
    }

    fn statement(&mut self) -> String {
        self.pending = self.spoil.is_some();
        let base = self.pick(&["stocks", "trades"]);
        if self.chance(0.15) {
            let parts = self.where_parts(&[base]);
            let parts = self.spoil_clause(parts, &[base], true);
            return format!("INSPECT FROM {base}{}", Self::where_clause(parts));
        }
        // an extreme conjunct reads no join's rows: pushed below it, it
        // would read rows the join drops
        let join = self.chance(0.35) && self.spoil != Some(Spoil::Extreme);
        let (tables, from) = match (join, base) {
            (false, _) => (vec![base], base),
            (true, "stocks") => (vec!["stocks", "trades"], "stocks JOIN trades ON ticker = tkr"),
            (true, _) => (vec!["trades", "stocks"], "trades JOIN stocks ON tkr = ticker"),
        };
        let has = |t: &str| tables.contains(&t);
        let mut columns: Vec<&str> = Vec::new();
        if has("stocks") {
            columns.extend(["ticker", "price", "sector"]);
        }
        if has("trades") {
            columns.extend(["tkr", "qty", "acct"]);
        }

        // select list as (item, output name); ORDER BY draws on the names
        let plain = |c: &str| (c.to_owned(), c.to_owned());
        let aliased = |e: String, name: &str| (format!("{e} AS {name}"), name.to_owned());
        let (mut distinct, mut star, mut tail) = ("", false, String::new());
        let list: Vec<(String, String)> = if self.chance(0.3) {
            let key = if has("stocks") { "sector" } else { self.pick(&["acct", "tkr"]) };
            let mut list = vec![plain(key), aliased("COUNT(*)".into(), "n")];
            if has("trades") && self.chance(0.6) {
                list.push(aliased(format!("{}(qty)", self.pick(&["SUM", "MAX", "MIN"])), "q"));
            }
            if has("stocks") && self.chance(0.6) {
                list.push(aliased(format!("{}(price)", self.pick(&["AVG", "MIN", "MAX"])), "p"));
            }
            tail = format!(" GROUP BY {key}");
            if self.chance(0.3) {
                tail.push_str(&format!(" HAVING n >= {}", self.below(3) + 1));
            }
            list
        } else if self.chance(0.4) {
            star = true;
            columns.iter().map(|c| plain(c)).collect()
        } else {
            if self.chance(0.3) {
                distinct = "DISTINCT ";
            }
            let mut list: Vec<_> = columns.iter().map(|c| plain(c)).collect();
            list.retain(|_| self.chance(0.5));
            if has("stocks") && self.chance(0.4) {
                list.push(aliased(self.tag("price", "age"), "age"));
            }
            if list.is_empty() {
                list.push(plain(columns[0]));
            }
            list
        };
        let items = if star {
            "*".to_owned()
        } else {
            list.iter().map(|(item, _)| item.as_str()).collect::<Vec<_>>().join(", ")
        };
        let outputs: Vec<&str> = list.iter().map(|(_, name)| name.as_str()).collect();

        let mut sql = format!("SELECT {distinct}{items} FROM {from}");
        let where_parts = self.where_parts(&tables);
        let quality: Vec<String> = (0..self.below(3))
            .map(|_| {
                let t = self.pick(&tables);
                self.quality_conjunct(t)
            })
            .collect();
        let where_parts = self.spoil_clause(where_parts, &tables, quality.is_empty());
        let quality = self.spoil_clause(quality, &tables, true);
        sql.push_str(&Self::where_clause(where_parts));
        if !quality.is_empty() {
            sql.push_str(&format!(" WITH QUALITY ({})", quality.join(", ")));
        }
        sql.push_str(&tail);
        if self.chance(0.5) {
            let keys: Vec<String> = (0..self.below(2) + 1)
                .map(|_| format!("{} {}", self.pick(&outputs), self.pick(&["ASC", "DESC"])))
                .collect();
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if self.chance(0.3) {
            sql.push_str(&format!(" LIMIT {}", self.below(7)));
        }
        sql
    }
}

/// Operator text of a plan or trace report: each line up to `" | "`.
fn operators(report: &str) -> Vec<&str> {
    report
        .lines()
        .map(|l| l.split(" | ").next().unwrap())
        .collect()
}

#[test]
fn generated_statements_agree_across_planners_and_explain() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let optimizing = Planner::default();
    let naive = Planner {
        pushdown: false,
        use_indexes: false,
    };
    let mut gen = Gen::new(16);
    let (mut point_lookups, mut joins, mut nonempty) = (0, 0, 0);
    for case in 0..400 {
        let sql = gen.statement();
        let ctx = format!("case {case}: {sql}");
        let plain = run_with(&catalog, &sql, &optimizing).unwrap_or_else(|e| panic!("{ctx}: {e}"));

        // (a) the optimizer is invisible
        let reference = run_with(&catalog, &sql, &naive).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(render_result(&plain), render_result(&reference), "{ctx}");

        // (b) EXPLAIN ANALYZE returns the statement's rows and counts them
        let analyzed = run_with(&catalog, &format!("EXPLAIN ANALYZE {sql}"), &optimizing)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(analyzed.relation(), plain.relation(), "{ctx}");
        let trace = analyzed.report().unwrap();
        let root = trace.lines().next().unwrap();
        let rows = format!(" | rows={} ", plain.relation().len());
        assert!(root.contains(&rows), "{ctx}: root line `{root}` lacks `{rows}`");

        // (c) the analyzed tree is the planned tree
        let planned = run_with(&catalog, &format!("EXPLAIN {sql}"), &optimizing)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(matches!(planned, QueryResult::Explain { rows: None, .. }), "{ctx}");
        assert_eq!(operators(trace), operators(planned.report().unwrap()), "{ctx}");

        point_lookups += trace.contains("point_lookup=") as usize;
        joins += trace.contains("Join") as usize;
        nonempty += !plain.relation().is_empty() as usize;
    }
    // the generator reaches the paths this test exists for
    assert!(point_lookups >= 20, "only {point_lookups} point lookups");
    assert!(joins >= 50, "only {joins} joins");
    assert!(nonempty >= 150, "only {nonempty} non-empty results");
}

#[test]
fn explain_analyze_takes_and_reports_the_point_lookup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let lookups = dq_obs::counter!("query.point_lookups");
    for sql in [
        // planned as Filter(Scan): no sargable quality atom
        "SELECT * FROM stocks WHERE ticker = 'T3'",
        // planned as IndexScan: the quality atom is index-answerable
        "SELECT * FROM stocks WHERE ticker = 'T2' WITH QUALITY (price@source = 'NYSE feed')",
    ] {
        let before = lookups.get();
        let plain = run_with(&catalog, sql, &Planner::default()).unwrap();
        assert_eq!(lookups.get() - before, 1, "SELECT takes the point lookup: {sql}");
        assert_eq!(plain.relation().len(), 1, "{sql}");

        let analyzed =
            run_with(&catalog, &format!("EXPLAIN ANALYZE {sql}"), &Planner::default()).unwrap();
        assert_eq!(lookups.get() - before, 2, "EXPLAIN ANALYZE takes it too: {sql}");
        assert_eq!(analyzed.relation(), plain.relation());
        let trace = analyzed.report().unwrap();
        let line = trace
            .lines()
            .find(|l| l.contains("predicate="))
            .unwrap_or_else(|| panic!("no σ line in:\n{trace}"));
        assert!(line.contains("point_lookup=ticker"), "{trace}");
        assert!(!line.contains("batches="), "no batch ran: {trace}");
        assert!(!trace.contains("layout=columnar"), "no columnar read: {trace}");
    }
    assert!(
        run_with(
            &catalog,
            "EXPLAIN ANALYZE SELECT * FROM stocks WHERE price > 1.5",
            &Planner::default()
        )
        .unwrap()
        .report()
        .unwrap()
        .contains("layout=columnar"),
        "a scan still reports the layout it read"
    );
}

#[test]
fn lean_and_traced_runs_tick_the_same_counters() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let planner = Planner::default();
    let ops = dq_obs::counter!("query.ops");
    let rows_out = dq_obs::counter!("query.rows_out");
    for sql in [
        "SELECT * FROM stocks WHERE ticker = 'T3'",
        "SELECT sector, COUNT(*) AS n, SUM(qty) AS q FROM trades JOIN stocks ON tkr = ticker \
         WHERE qty > 10 WITH QUALITY (price@source = 'NYSE feed') \
         GROUP BY sector ORDER BY n DESC LIMIT 2",
        "SELECT DISTINCT tkr FROM trades WITH QUALITY (qty@inspection = 'double entry')",
    ] {
        let stmt = parse(sql).unwrap();
        let plan = planner.optimize(planner.plan(&stmt, &catalog).unwrap(), &catalog);
        let (o0, r0) = (ops.get(), rows_out.get());
        let lean = execute(&catalog, &plan).unwrap();
        let (o1, r1) = (ops.get(), rows_out.get());
        let (traced, trace) = execute_traced(&catalog, &plan).unwrap();
        let (o2, r2) = (ops.get(), rows_out.get());
        assert_eq!(lean, traced, "{sql}");
        assert_eq!(trace.rows_out, lean.len(), "{sql}");
        assert_eq!(o1 - o0, o2 - o1, "query.ops per run: {sql}");
        assert_eq!(r1 - r0, r2 - r1, "query.rows_out per run: {sql}");
        assert!(o1 > o0, "{sql}");
    }
}

#[test]
fn undeclared_indicators_fail_like_tag() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let naive = Planner {
        pushdown: false,
        use_indexes: false,
    };
    let mut gen = Gen::new(24);
    let mut rejected = 0;
    // (path written, the indicator no dictionary declares)
    for (typo, undeclared) in [
        ("sorce", "sorce"),
        ("agee", "agee"),
        ("source@sorce", "sorce"),
    ] {
        let tag = format!("TAG stocks SET price@{undeclared} = 'x'");
        let expected = run_mut(&mut catalog.clone(), &tag).unwrap_err().to_string();
        assert!(expected.contains("undeclared indicator"), "{expected}");
        gen.typo = Some(typo);
        for case in 0..60 {
            let sql = gen.statement();
            let ctx = format!("{typo} case {case}: {sql}");
            if !sql.contains('@') {
                run_with(&catalog, &sql, &Planner::default())
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                continue;
            }
            for (stmt, planner) in [
                (sql.clone(), &Planner::default()),
                (sql.clone(), &naive),
                (format!("EXPLAIN {sql}"), &Planner::default()),
                (format!("EXPLAIN ANALYZE {sql}"), &Planner::default()),
            ] {
                let err = run_with(&catalog, &stmt, planner)
                    .err()
                    .unwrap_or_else(|| panic!("{ctx}: `{stmt}` ran"));
                assert_eq!(err.to_string(), expected, "{ctx}");
            }
            rejected += 1;
        }
    }
    assert!(
        rejected >= 90,
        "only {rejected} statements named an indicator"
    );
}

#[test]
fn ill_typed_comparisons_fail_when_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let naive = Planner {
        pushdown: false,
        use_indexes: false,
    };
    let mut gen = Gen::spoiled(32, Spoil::IllTyped);
    let (mut inspects, mut qualities, mut joins) = (0, 0, 0);
    for case in 0..200 {
        let sql = gen.statement();
        let ctx = format!("case {case}: {sql}");
        let mut texts: Vec<String> = [
            (sql.clone(), &Planner::default()),
            (sql.clone(), &naive),
            (format!("EXPLAIN {sql}"), &Planner::default()),
            (format!("EXPLAIN ANALYZE {sql}"), &Planner::default()),
        ]
        .iter()
        .map(|(stmt, planner)| match run_with(&catalog, stmt, planner) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{ctx}: `{stmt}` answered"),
        })
        .collect();
        texts.dedup();
        assert_eq!(texts.len(), 1, "{ctx}: {texts:?}");
        assert!(
            texts[0].starts_with("type mismatch: expected comparable values of the same type"),
            "{ctx}: {}",
            texts[0]
        );
        inspects += sql.starts_with("INSPECT") as usize;
        qualities += sql.contains("WITH QUALITY") as usize;
        joins += sql.contains("JOIN") as usize;
    }
    assert!(inspects >= 15 && qualities >= 60 && joins >= 40, "{inspects} {qualities} {joins}");
}

#[test]
fn extreme_int_arithmetic_agrees_across_planners() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = catalog();
    let naive = Planner {
        pushdown: false,
        use_indexes: false,
    };
    let outcome = |sql: &str, planner: &Planner| match run_with(&catalog, sql, planner) {
        Ok(r) => Ok(render_result(&r)),
        Err(e) => Err(e.to_string()),
    };
    let mut gen = Gen::spoiled(40, Spoil::Extreme);
    let (mut errors, mut answers) = (0, 0);
    for case in 0..300 {
        let sql = gen.statement();
        let ctx = format!("case {case}: {sql}");
        let plain = outcome(&sql, &Planner::default());
        assert_eq!(plain, outcome(&sql, &naive), "{ctx}");
        let analyzed = outcome(&format!("EXPLAIN ANALYZE {sql}"), &Planner::default());
        match (&plain, &analyzed) {
            (Err(e), Err(a)) => {
                assert_eq!(a, e, "{ctx}");
                assert!(e.starts_with("arithmetic error: "), "{ctx}: {e}");
                errors += 1;
            }
            (Ok(_), Ok(_)) => answers += 1,
            _ => panic!("{ctx}: {plain:?} vs EXPLAIN ANALYZE {analyzed:?}"),
        }
    }
    assert!(errors >= 60 && answers >= 60, "{errors} errors, {answers} answers");
}
