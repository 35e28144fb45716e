//! A predicate is bound once per σ node, when its statement is prepared:
//! executing a cached plan binds nothing, whichever access path the σ
//! takes. A test binary of its own, because `tagstore.predicate.binds`
//! is process-wide.

use dq_query::{explain, explain_analyze, NoDefaults, PlanCache, Planner, QueryCatalog};
use relstore::{DataType, Schema};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

fn catalog() -> QueryCatalog {
    let rows = (0..200i64)
        .map(|k| {
            let mut v = QualityCell::bare(k * 3);
            if k % 2 == 0 {
                v.set_tag(IndicatorValue::new("age", k % 40));
            }
            vec![QualityCell::bare(k), v]
        })
        .collect();
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let dict = IndicatorDictionary::with_paper_defaults;
    let rel = TaggedRelation::new(schema, dict(), rows).unwrap();
    let keys = (0..20i64)
        .map(|k| vec![QualityCell::bare(k * 10)])
        .collect();
    let keys = TaggedRelation::new(Schema::of(&[("k2", DataType::Int)]), dict(), keys).unwrap();
    let mut c = QueryCatalog::new();
    c.register("t", rel);
    c.register("u", keys);
    c
}

#[test]
fn cached_statements_bind_nothing() {
    let c = catalog();
    let binds = dq_obs::counter!("tagstore.predicate.binds");
    let mut cache = PlanCache::new(8);
    for (sql, path) in [
        ("SELECT * FROM t WHERE k = 7", "point_lookup=k"),
        ("SELECT * FROM t WHERE v > 100", "layout=columnar"),
        ("SELECT * FROM t WITH QUALITY (v@age = 3)", "IndexScan"),
        (
            "SELECT k, COUNT(*) AS n FROM t JOIN u ON k = k2 WHERE v > 1 AND k2 < v + 500 \
             WITH QUALITY (v@age < 30) GROUP BY k HAVING n >= 1",
            "IndexJoin",
        ),
    ] {
        let analyzed = explain_analyze(&c, sql, &Planner::default()).unwrap();
        assert!(analyzed.contains(path), "{sql}:\n{analyzed}");
        let sigmas = explain(&c, sql, &Planner::default())
            .unwrap()
            .matches("predicate=")
            .count() as u64;
        let before = binds.get();
        cache.execute(&c, sql, &NoDefaults).unwrap(); // a miss: prepared here
        assert_eq!(binds.get() - before, sigmas, "one bind per σ node: {sql}");
        let before = binds.get();
        for _ in 0..100 {
            cache.execute(&c, sql, &NoDefaults).unwrap();
        }
        assert_eq!(binds.get(), before, "a cached plan binds nothing: {sql}");
    }
}
