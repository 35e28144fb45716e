//! Integration: the two cell-tagging models (attribute-based tagging,
//! polygen source sets) agree on application values with the longhand
//! oracle (`dq_oracle`) under every shared operator, and the storage
//! layer round-trips through CSV.

use dq_oracle as oracle;
use dq_query::{run, QueryCatalog};
use polygen::{PolyRelation, SourceId};
use relstore::algebra::{AggCall, AggFunc};
use relstore::{csv, DataType, Expr, Relation, Row, Schema, Value};
use tagstore::algebra::distinct_merging;
use tagstore::{Bitset, ColumnarRelation, IndicatorDictionary, TaggedRelation};

fn base_relation(seed: u64, rows: usize) -> Relation {
    // small deterministic LCG — keeps this test free of rand
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 20) as i64
    };
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    Relation::new(
        schema,
        (0..rows).map(|_| vec![Value::Int(next()), Value::Int(next())]).collect(),
    )
    .unwrap()
}

/// `rel`'s values, rows in order.
fn values(rel: &oracle::Rel) -> Vec<Row> {
    rel.rows.iter().map(|r| r.iter().map(|c| c.value.clone()).collect()).collect()
}

/// Bare-celled `l` and `r` in a catalog, for the oracle.
fn catalog(l: &TaggedRelation, r: Option<&TaggedRelation>) -> QueryCatalog {
    let mut c = QueryCatalog::new();
    c.register("l", l.clone());
    if let Some(r) = r {
        c.register("r", r.clone());
    }
    c
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn three_models_agree_on_select_project_join() {
    let left = base_relation(1, 60);
    let right = base_relation(2, 40);
    let dict = IndicatorDictionary::with_paper_defaults();
    let t_left = TaggedRelation::from_relation(&left, dict.clone());
    let t_right = TaggedRelation::from_relation(&right, dict);
    let p_left = PolyRelation::retrieve(&left, SourceId::new("A"));
    let p_right = PolyRelation::retrieve(&right, SourceId::new("B"));
    let cat = catalog(&t_left, Some(&t_right));
    let oracle = |sql: &str| values(&oracle::answer(&cat, sql).unwrap());
    let engine = |sql: &str| run(&cat, sql).unwrap().relation().strip().into_rows();

    let pred = Expr::col("v").ge(Expr::lit(7i64));

    // select
    let r0 = oracle("SELECT * FROM l WHERE v >= 7");
    let r1 = engine("SELECT * FROM l WHERE v >= 7");
    let r2 = p_left.restrict(&pred).unwrap().strip().into_rows();
    assert_eq!(r0, r1);
    assert_eq!(r0, r2);

    // project
    let q0 = oracle("SELECT v FROM l");
    let q1 = engine("SELECT v FROM l");
    let q2 = p_left.project(&["v"]).unwrap().strip().into_rows();
    assert_eq!(q0, q1);
    assert_eq!(q0, q2);

    // join (sorted bags — join orders may differ)
    let j0 = sorted(oracle("SELECT * FROM l JOIN r ON k = k"));
    let j1 = sorted(engine("SELECT * FROM l JOIN r ON k = k"));
    let j2 = sorted(p_left.join(&p_right, "k", "k").unwrap().strip().into_rows());
    assert_eq!(j0, j1);
    assert_eq!(j0, j2);
}

#[test]
fn polygen_union_matches_value_distinct_union() {
    let a = base_relation(3, 30);
    let b = base_relation(4, 30);
    let pa = PolyRelation::retrieve(&a, SourceId::new("A"));
    let pb = PolyRelation::retrieve(&b, SourceId::new("B"));
    let pu = pa.union(&pb).unwrap().strip();
    let both = Relation::new(a.schema().clone(), [a.rows(), b.rows()].concat()).unwrap();
    let t = TaggedRelation::from_relation(&both, IndicatorDictionary::with_paper_defaults());
    let ru = oracle::answer(&catalog(&t, None), "SELECT DISTINCT k, v FROM l").unwrap();
    assert_eq!(sorted(pu.into_rows()), sorted(values(&ru)));
}

#[test]
fn tagged_distinct_matches_value_distinct() {
    let a = base_relation(5, 50);
    let dict = IndicatorDictionary::with_paper_defaults();
    let t = TaggedRelation::from_relation(&a, dict);
    let td = distinct_merging(&t).strip();
    let rd = oracle::answer(&catalog(&t, None), "SELECT DISTINCT k, v FROM l").unwrap();
    assert_eq!(td.into_rows(), values(&rd));
}

#[test]
fn aggregation_consistent_between_layers() {
    let a = base_relation(6, 80);
    let dict = IndicatorDictionary::with_paper_defaults();
    let t = TaggedRelation::from_relation(&a, dict);
    let aggs = [
        AggCall::count_star("n"),
        AggCall::on(AggFunc::Sum, "v", "s"),
        AggCall::on(AggFunc::Min, "v", "lo"),
    ];
    let sql = "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM l GROUP BY k";
    let plain = oracle::answer(&catalog(&t, None), sql).unwrap();
    let layout = ColumnarRelation::from_tagged(&t);
    let all = Bitset::full(layout.len());
    let tagged = layout.aggregate(&all, &["k"], &aggs, &[]).unwrap().strip();
    assert_eq!(values(&plain), tagged.into_rows());
}

#[test]
fn csv_roundtrip_of_workload_data() {
    let w = dq_workloads::generate_trading(&dq_workloads::TradingGenConfig {
        clients: 20,
        stocks: 10,
        trades: 100,
        ..Default::default()
    })
    .unwrap();
    for rel in [w.clients.strip(), w.stocks.strip(), w.trades.strip()] {
        let text = csv::to_csv(&rel);
        let back = csv::from_csv(rel.schema(), &text).unwrap();
        assert_eq!(back, rel);
    }
}

#[test]
fn er_mapping_accepts_generated_rows() {
    // map Figure 3 and check (stripped) generated rows against the keys
    // and references it declares.
    let er = dq_workloads::figure3_schema();
    let mapped = er_model::to_relational(&er).unwrap();
    let w = dq_workloads::generate_trading(&dq_workloads::TradingGenConfig {
        clients: 10,
        stocks: 5,
        trades: 0,
        ..Default::default()
    })
    .unwrap();
    let (clients, stocks) = (w.clients.strip(), w.stocks.strip());
    let trade = mapped.tables.iter().find(|t| t.name == "trade").unwrap();
    let trades = Relation::empty(trade.schema.clone());
    assert_eq!((clients.len(), stocks.len()), (10, 5));
    mapped
        .check(&[
            ("client", &clients),
            ("company_stock", &stocks),
            ("trade", &trades),
        ])
        .unwrap();
    // the first client appended again repeats its key
    let mut again = clients.clone();
    again.push(clients.rows()[0].clone()).unwrap();
    assert_eq!(
        mapped.check(&[
            ("client", &again),
            ("company_stock", &stocks),
            ("trade", &trades)
        ]),
        Err(relstore::DbError::ConstraintViolation {
            constraint: "pk_client".into(),
            detail: "duplicate key (0)".into(),
        })
    );
}
