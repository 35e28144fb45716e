//! Aggregation over a selection, differentially. Every γ the executor
//! answers — folded from a resident table's columnar selection (no σ,
//! value σ, bitmap σ, bitmap σ + residual), from a keyed lookup's rows,
//! or from a join's position pairs (an index join over a filtered or
//! keyed left, a hash join of two σ selections; NULL keys on both sides,
//! a duplicated right key, Text keys from two string pools) — renders
//! byte-equal (`render_result`) and
//! carries the same cells, tags and all, as the longhand oracle's answer
//! to the same statement (`dq_oracle`: nested loops, γ deriving its
//! tags under `default_agg_policies`). Inputs are seeded tagged relations
//! with NULL keys and values, shared and per-cell tag `Arc`s and
//! meta-tags, and Int/Text/Date/Float keys; every statement runs at 1, 2
//! and 8 threads. The fold's tagstore entry points — over a selection
//! and over a join's pairs — are checked against the oracle's γ
//! directly, with every `AggFunc` (QQL cannot spell `COUNT(DISTINCT …)`)
//! and every `TagRule`.

use dq_oracle as oracle;
use dq_query::{explain_analyze, run, Planner, QueryCatalog, QueryResult};
use dq_server::render_result;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::algebra::{AggCall, AggFunc};
use relstore::{par, DataType, Date, DbResult, Expr, Schema, Value};
use tagstore::algebra::{TagPolicy, TagRule};
use relstore::index::HashIndex;
use std::sync::Arc;
use tagstore::{
    selection_columnar, selection_indexed_columnar, Bitset, ColumnarRelation,
    IndicatorDictionary, IndicatorValue, JoinPairs, QualityCell, QualityIndex, TaggedRelation,
    TaggedRow,
};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

const SOURCES: [&str; 3] = ["feed", "desk", "manual"];
const METHODS: [&str; 2] = ["phone", "scan"];

/// A value `make` draws, or NULL one time in ten.
fn null(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> Value) -> Value {
    let v = make(rng);
    if rng.gen_bool(0.1) {
        Value::Null
    } else {
        v
    }
}

fn day(rng: &mut StdRng, span: i64) -> Value {
    Value::Date(Date::from_days(8_000 + rng.gen_range(0..span)))
}

/// `t(ki, kt, kd, kf, v, w, m, s, big)`: four key columns of four types,
/// Int `v` with per-cell, shared (one `Arc` for many cells) and missing
/// tags (some with a meta-tag), Float `w` bulk-tagged, `Any`-typed `m`
/// mixing Int and Float (a SUM over it upgrades), Text `s`, and Int `big`,
/// near `i64::MAX` one time in five (a SUM over it may overflow); about
/// one value in ten NULL everywhere.
fn table(rng: &mut StdRng, rows: usize) -> TaggedRelation {
    use DataType::*;
    let schema = Schema::of(&[
        ("ki", Int),
        ("kt", Text),
        ("kd", Date),
        ("kf", Float),
        ("v", Int),
        ("w", Float),
        ("m", Any),
        ("s", Text),
        ("big", Int),
    ]);
    let shared = QualityCell::bare(0i64)
        .with_tag(IndicatorValue::new("source", "feed"))
        .with_tag(IndicatorValue::new("collection_method", "phone"));
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let ki = null(rng, |r| Value::Int(r.gen_range(0..6)));
        let kt = null(rng, |r| Value::Text(format!("t{}", r.gen_range(0..5))));
        let kd = null(rng, |r| day(r, 4));
        let kf = null(rng, |r| Value::Float(r.gen_range(0..4) as f64 * 0.5));
        let v = null(rng, |r| Value::Int(r.gen_range(-50..50)));
        let w = null(rng, |r| Value::Float(r.gen_range(-100..100) as f64 / 4.0));
        let m = null(rng, |r| {
            if r.gen_bool(0.5) {
                Value::Int(r.gen_range(-10..10))
            } else {
                Value::Float(r.gen_range(-10..10) as f64 + 0.5)
            }
        });
        let s = null(rng, |r| {
            Value::Text(["x", "y", "z"][r.gen_range(0..3)].to_owned())
        });
        let big = null(rng, |r| {
            Value::Int(if r.gen_bool(0.2) {
                i64::MAX - r.gen_range(0..4)
            } else {
                r.gen_range(-5..5)
            })
        });
        let mut ki = QualityCell::bare(ki);
        if rng.gen_bool(0.5) {
            ki.set_tag(IndicatorValue::new("source", SOURCES[rng.gen_range(0..2)]));
        }
        let mut kt = QualityCell::bare(kt);
        if rng.gen_bool(0.3) {
            kt.set_tag(IndicatorValue::new("source", "desk"));
        }
        let v = match rng.gen_range(0..4) {
            0 => {
                let mut cell = shared.clone();
                cell.value = v;
                cell
            }
            1 => {
                let mut source = IndicatorValue::new("source", SOURCES[rng.gen_range(0..3)]);
                if rng.gen_bool(0.3) {
                    source = source.with_meta(IndicatorValue::new("analyst", "ann"));
                }
                let mut cell = QualityCell::bare(v)
                    .with_tag(source)
                    .with_tag(IndicatorValue::new("creation_time", day(rng, 30)));
                if rng.gen_bool(0.6) {
                    cell.set_tag(IndicatorValue::new(
                        "collection_method",
                        METHODS[rng.gen_range(0..2)],
                    ));
                }
                cell
            }
            2 => QualityCell::bare(v).with_tag(IndicatorValue::new("creation_time", day(rng, 30))),
            _ => QualityCell::bare(v),
        };
        let bare = [kd, kf, w, m, s, big].map(QualityCell::bare);
        let [kd, kf, w, m, s, big] = bare;
        out.push(vec![ki, kt, kd, kf, v, w, m, s, big]);
    }
    let mut rel = TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), out)
        .expect("generated rows conform");
    rel.tag_column("kt", IndicatorValue::new("collection_method", "scan"))
        .unwrap();
    rel.tag_column("w", IndicatorValue::new("source", "feed"))
        .unwrap();
    rel
}

/// `u(kt, label)`: the join's other side, its own string pool — rows for
/// every `t` text key but `t4`, `t1` twice (tagged apart, key and label
/// alike), one no `t` row matches, and a NULL key.
fn dimension() -> TaggedRelation {
    let schema = Schema::of(&[("kt", DataType::Text), ("label", DataType::Text)]);
    let rows = [("t9", "desk"), ("t1", "feed"), ("t0", "desk"), ("t2", "desk"), ("t1", "desk"), ("t3", "desk")]
        .iter()
        .map(|(k, source)| {
            let tag = || IndicatorValue::new("source", *source);
            vec![
                QualityCell::bare(*k).with_tag(tag()),
                QualityCell::bare(format!("label {k}")).with_tag(tag()),
            ]
        })
        .chain([vec![QualityCell::bare(Value::Null), QualityCell::bare("label none")]])
        .collect();
    TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), rows).unwrap()
}

fn rows_for(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..8) {
        0 => rng.gen_range(0..3),
        1..=6 => rng.gen_range(3..80),
        // more than one executor batch
        _ => rng.gen_range(1_100..1_400),
    }
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

/// σ shapes over `t`, by the operator the aggregate folds.
const SHAPES: [(&str, &str); 6] = [
    ("scan", "FROM t"),
    ("value", "FROM t WHERE v > 0"),
    ("bitmap", "FROM t WITH QUALITY (v@source = 'feed')"),
    (
        "bitmap+residual",
        "FROM t WHERE w < 10.0 WITH QUALITY (v@collection_method = 'phone')",
    ),
    ("keyed", "FROM t WHERE ki = 2"),
    ("empty", "FROM t WHERE v > 1000"),
];

const JOIN: &str = "FROM t JOIN u ON kt = kt WHERE v <> 7";

/// ⋈ shapes, by what the join probes: a filtered left through `u`'s key
/// index, two columnar σ selections hashed, a keyed left.
const JOINS: [(&str, &str); 3] = [
    ("index join", JOIN),
    ("hash join", "FROM t JOIN u ON kt = kt WHERE v <> 7 AND label <> 'label t2'"),
    ("keyed join", "FROM t JOIN u ON kt = kt WHERE ki = 2"),
];

const GROUP_BYS: [&[&str]; 7] = [
    &[],
    &["ki"],
    &["kt"],
    &["kd"],
    &["kf"],
    &["kt", "ki"],
    &["kd", "kf"],
];

/// The calls every statement makes, as (func, column, alias); with
/// errors, `SUM(big)` may overflow and `SUM(s)` (Text) fails when it
/// meets a value, so one statement can fail in two calls and in several
/// groups: the answer is the first failing call of the first failing
/// group, as the oracle's.
fn calls(with_error: bool) -> Vec<(AggFunc, Option<&'static str>, &'static str)> {
    let mut calls = vec![
        (AggFunc::Count, None, "n"),
        (AggFunc::Count, Some("v"), "nv"),
        (AggFunc::Sum, Some("v"), "sv"),
        (AggFunc::Sum, Some("m"), "sm"),
        (AggFunc::Avg, Some("w"), "aw"),
        (AggFunc::Min, Some("s"), "lo"),
        (AggFunc::Max, Some("kd"), "hi"),
        (AggFunc::Min, Some("v"), "mv"),
    ];
    if with_error {
        calls.push((AggFunc::Sum, Some("big"), "sb"));
        calls.push((AggFunc::Sum, Some("s"), "bad"));
    }
    calls
}

fn sql_of(func: AggFunc, col: Option<&str>) -> String {
    let name = match func {
        AggFunc::Count => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Avg => "AVG",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
        AggFunc::CountDistinct => unreachable!("QQL has no COUNT(DISTINCT)"),
    };
    format!("{name}({})", col.unwrap_or("*"))
}

/// A rendering and its rows, or an error's text.
type Answer = Result<(String, Vec<TaggedRow>), String>;

/// The engine's answer.
fn answer(result: DbResult<TaggedRelation>) -> Answer {
    result
        .map(|rel| {
            (
                render_result(&QueryResult::Table(rel.clone().into())),
                rel.rows().to_vec(),
            )
        })
        .map_err(|e| e.to_string())
}

/// The oracle's answer.
fn oracle_answer(result: oracle::Answer<oracle::Rel>) -> Answer {
    result.map(|rel| (rel.render(), rel.rows))
}

/// `SELECT keys, calls <from> GROUP BY keys` through the executor, and
/// through the oracle.
fn check(catalog: &QueryCatalog, from: &str, keys: &[&str], with_error: bool, ctx: &str) {
    let calls = calls(with_error);
    let items: Vec<String> = keys
        .iter()
        .map(|k| k.to_string())
        .chain(
            calls
                .iter()
                .map(|(f, c, a)| format!("{} AS {a}", sql_of(*f, *c))),
        )
        .collect();
    let mut sql = format!("SELECT {} {from}", items.join(", "));
    if !keys.is_empty() {
        sql += &format!(" GROUP BY {}", keys.join(", "));
    }
    let want = oracle_answer(oracle::answer(catalog, &sql));
    for threads in [1, 2, 8] {
        par::with_thread_count(threads, || {
            let got = answer(run(catalog, &sql).map(|r| r.relation().clone()));
            assert_eq!(got, want, "{ctx}, {threads} threads: {sql}");
        });
    }
}

fn catalog(t: TaggedRelation) -> QueryCatalog {
    let mut c = QueryCatalog::new();
    c.register("t", t);
    c.register("u", dimension());
    c
}

fn statements_match_reference(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rows_for(&mut rng);
    let c = catalog(table(&mut rng, rows));
    for (shape, from) in SHAPES {
        let keys = GROUP_BYS[rng.gen_range(0..GROUP_BYS.len())];
        let ctx = format!("seed {seed}, {rows} rows, {shape}");
        check(&c, from, keys, rng.gen_bool(0.15), &ctx);
    }
    let keys: &[&str] = match rng.gen_range(0..3) {
        0 => &["l.kt"],
        1 => &["l.kt", "ki"],
        _ => &["label", "r.kt"],
    };
    for (shape, from) in JOINS {
        check(&c, from, keys, false, &format!("seed {seed}, {rows} rows, {shape}"));
    }
}

/// The fold's entry points against the oracle's γ with every `AggFunc`
/// and every `TagRule`: the columnar source over selections made at a
/// batch width that splits even small tables, and the gathered rows
/// lifted to a layout of their own.
fn entry_points_match_reference(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let rows = rows_for(&mut rng);
    let rel = table(&mut rng, rows);
    let crel = ColumnarRelation::from_tagged(&rel);
    let index = QualityIndex::build(&rel);
    let policies = [
        TagPolicy::new("creation_time", TagRule::Min),
        TagPolicy::new("creation_time", TagRule::Max),
        TagPolicy::new("source", TagRule::MergeText),
        TagPolicy::new("collection_method", TagRule::Unanimous),
        TagPolicy::new("source", TagRule::Unanimous),
    ];
    let aggs = [
        AggCall::count_star("n"),
        AggCall::on(AggFunc::Count, "s", "ns"),
        AggCall::on(AggFunc::Sum, "v", "sv"),
        AggCall::on(AggFunc::Sum, "m", "sm"),
        AggCall::on(AggFunc::Avg, "w", "aw"),
        AggCall::on(AggFunc::Min, "kt", "lo"),
        AggCall::on(AggFunc::Max, "m", "hi"),
        AggCall::on(AggFunc::CountDistinct, "s", "ds"),
        AggCall::on(AggFunc::CountDistinct, "m", "dm"),
    ];
    let predicates = [
        Expr::col("v@source").eq(Expr::lit("feed")),
        Expr::col("v").gt(Expr::lit(0i64)),
        Expr::col("kt@collection_method")
            .eq(Expr::lit("scan"))
            .and(Expr::col("w").lt(Expr::lit(0.0f64))),
    ];
    for (p, join_sql) in predicates.iter().zip([Some("v@source = 'feed'"), Some("v > 0"), None]) {
        // the selection is the only parallel step: equal at every width
        let selections: Vec<_> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                par::with_thread_count(threads, || {
                    let (bitmap, _, _) = selection_indexed_columnar(&crel, &index, p, 64).unwrap();
                    let (scan, _) = selection_columnar(&crel, p, 64).unwrap();
                    assert_eq!(
                        bitmap, scan,
                        "seed {seed}, {threads} threads: bitmap vs scan"
                    );
                    bitmap
                })
            })
            .collect();
        assert!(selections.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
        let sel = &selections[0];
        let gathered = crel.gather(sel);
        if let Some(sql) = join_sql {
            pairs_match_reference(seed, &rel, sel, sql, &aggs, &policies, &mut rng);
        }
        for _ in 0..3 {
            let keys = GROUP_BYS[rng.gen_range(0..GROUP_BYS.len())];
            let ctx = format!("seed {seed}, {p:?}, {keys:?}");
            let input = oracle::Rel::of(&gathered);
            let want = oracle_answer(oracle::aggregate(&input, keys, &aggs, &policies));
            let folded = answer(crel.aggregate(sel, keys, &aggs, &policies));
            assert_eq!(folded, want, "{ctx}: columnar source");
            let lifted = ColumnarRelation::from_tagged(&gathered);
            let all = Bitset::full(lifted.len());
            let rows = answer(lifted.aggregate(&all, keys, &aggs, &policies));
            assert_eq!(rows, want, "{ctx}: lifted source");
        }
    }
}

/// γ over a join's pairs — the selection `sel` over `t`'s columnar
/// layout (the oracle's `WHERE sql`) joined to `u` on `kt`, two string
/// pools — against the oracle's γ over its own nested-loop join. The
/// probe runs at 1, 2 and 8 threads and through both right sides: `u`
/// hashed, and `u`'s key index.
fn pairs_match_reference(
    seed: u64,
    t: &TaggedRelation,
    sel: &Bitset,
    sql: &str,
    aggs: &[AggCall],
    policies: &[TagPolicy],
    rng: &mut StdRng,
) {
    let (left, u) = (Arc::new(ColumnarRelation::from_tagged(t)), dimension());
    let right = Arc::new(ColumnarRelation::from_tagged(&u));
    let hashed = right.key_index("kt", &Bitset::full(right.len())).unwrap();
    let mut keyed = HashIndex::new(vec![0]);
    keyed.rebuild(&u.iter().map(|r| vec![r[0].value.clone()]).collect::<Vec<_>>());
    let probe = |index: &HashIndex, threads: usize| {
        par::with_thread_count(threads, || {
            let (l, r) = (Arc::clone(&left), Arc::clone(&right));
            JoinPairs::probe(l, sel, "kt", r, "kt", index, 64).unwrap().0
        })
    };
    let pairs = probe(&hashed, 1);
    let gathered = pairs.gather();
    for (index, threads) in [(&hashed, 2), (&hashed, 8), (&keyed, 1), (&keyed, 8)] {
        assert_eq!(probe(index, threads).gather(), gathered, "seed {seed}");
    }
    let mut c = catalog(t.clone());
    c.register("u", u);
    let joined = oracle::answer(&c, &format!("SELECT * FROM t JOIN u ON kt = kt WHERE {sql}"));
    let joined = joined.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(oracle::Rel::of(&gathered).rows, joined.rows, "seed {seed}, {sql}: join");
    // right columns, tagged per row, are read too: `label`, `r.kt`
    let mut aggs: Vec<AggCall> = aggs
        .iter()
        .map(|a| match a.column.as_deref() {
            Some("kt") => AggCall::on(a.func, "l.kt", &a.output),
            _ => a.clone(),
        })
        .collect();
    aggs.push(AggCall::on(AggFunc::Max, "label", "top"));
    for draw in 0..4 {
        let keys: Vec<&str> = match draw {
            3 => vec!["r.kt", "ki"],
            _ => GROUP_BYS[rng.gen_range(0..GROUP_BYS.len())]
                .iter()
                .map(|&k| if k == "kt" { "l.kt" } else { k })
                .collect(),
        };
        let want = oracle_answer(oracle::aggregate(&joined, &keys, &aggs, policies));
        let folded = answer(pairs.aggregate(&keys, &aggs, policies));
        assert_eq!(folded, want, "seed {seed}, {sql}, {keys:?}: join pairs");
    }
}

proptest! {
    #[test]
    fn executor_aggregates_match_the_three_pass_reference(seed in any::<u64>()) {
        statements_match_reference(seed);
    }

    #[test]
    fn fold_entry_points_match_the_three_pass_reference(seed in any::<u64>()) {
        entry_points_match_reference(seed);
    }
}

#[test]
fn empty_inputs_global_and_grouped() {
    let mut rng = StdRng::seed_from_u64(7);
    for c in [catalog(table(&mut rng, 0)), catalog(table(&mut rng, 40))] {
        for from in ["FROM t WHERE v > 1000", "FROM t WHERE ki = 99"] {
            for keys in [&[][..], &["kt"], &["kd", "kf"]] {
                check(&c, from, keys, true, "empty input");
            }
        }
        let global = run(
            &c,
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > 1000",
        )
        .unwrap();
        assert_eq!(
            global.relation().len(),
            1,
            "a global γ over no rows has one row"
        );
        let grouped = run(
            &c,
            "SELECT kt, COUNT(*) AS n FROM t WHERE v > 1000 GROUP BY kt",
        )
        .unwrap();
        assert!(
            grouped.relation().is_empty(),
            "a grouped γ over no rows has none"
        );
    }
}

/// The shapes reach the operators they are named for: the bitmap ones an
/// `IndexScan`, the value one a columnar `Filter`, the keyed one a point
/// lookup, the joins an `IndexJoin` or a `HashJoin` over the σ they name
/// — so the differential above covers every fold source.
#[test]
fn shapes_reach_their_operators() {
    let mut rng = StdRng::seed_from_u64(11);
    let c = catalog(table(&mut rng, 60));
    let report = |from: &str| {
        explain_analyze(
            &c,
            &format!("SELECT COUNT(*) AS n {from}"),
            &Planner::default(),
        )
        .unwrap()
    };
    for (shape, from) in SHAPES {
        let r = report(from);
        let want = match shape {
            "bitmap" | "bitmap+residual" => "IndexScan",
            "keyed" => "point_lookup=ki",
            "scan" => "TableScan",
            _ => "layout=columnar",
        };
        assert!(r.contains(want), "{shape}: no `{want}` in\n{r}");
    }
    for (shape, from) in JOINS {
        let r = report(from);
        let want: &[&str] = match shape {
            "index join" => &["IndexJoin", "layout=columnar"],
            "hash join" => &["HashJoin", "Filter predicate=(label"],
            _ => &["IndexJoin", "point_lookup=ki"],
        };
        for want in want {
            assert!(r.contains(want), "{shape}: no `{want}` in\n{r}");
        }
    }
}
