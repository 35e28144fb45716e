//! `dq-query` — the quality-extended query language (QQL).
//!
//! The ICDE'93 paper's central promise is that, "given such tags, and the
//! ability to query over them, users can filter out data having
//! undesirable characteristics." QQL is that ability: SQL-shaped queries
//! over tagged relations with a `WITH QUALITY (...)` clause whose
//! predicates constrain `column@indicator` pseudo-columns, plus an
//! `INSPECT` statement that renders the paper's Table-2 view of a
//! relation's manufacturing history.
//!
//! ```
//! use dq_query::{run, QueryCatalog};
//! use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
//! use relstore::{Schema, DataType, Value};
//!
//! let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
//! let mut rel = TaggedRelation::empty(schema, IndicatorDictionary::with_paper_defaults());
//! rel.push(vec![
//!     QualityCell::bare("FRT"),
//!     QualityCell::bare(10.0).with_tag(IndicatorValue::new("source", "NYSE feed")),
//! ]).unwrap();
//! let mut cat = QueryCatalog::new();
//! cat.register("stocks", rel);
//!
//! let out = run(&cat, "SELECT ticker FROM stocks WITH QUALITY (price@source = 'NYSE feed')")
//!     .unwrap();
//! assert_eq!(out.relation().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::{JoinClause, OrderItem, SelectItem, SelectQuery, Statement};
pub use cache::{
    normalize, BoundStatement, NoDefaults, PlanCache, PreparedStatement, QualityDefaultsProvider,
};
pub use exec::{
    default_agg_policies, execute, execute_traced, explain, explain_analyze, prepare_write, run,
    run_mut, run_with, OpTrace, PagedProvider, PagedScanStats, QueryCatalog, QueryResult,
    TagWrite,
};
pub use parser::parse;
pub use plan::{AccessPathStats, Plan, Planner};

#[cfg(test)]
mod proptests {
    //! QQL ⇔ algebra equivalence on randomly generated data and
    //! predicates.
    use crate::{run, QueryCatalog};
    use proptest::prelude::*;
    use relstore::{DataType, Expr, Schema, Value};
    use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

    fn arb_rel() -> impl Strategy<Value = TaggedRelation> {
        prop::collection::vec((0i64..15, 0i64..15, prop::option::of(0i64..40)), 0..25).prop_map(
            |rows| {
                let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
                let dict = IndicatorDictionary::with_paper_defaults();
                let rows = rows
                    .into_iter()
                    .map(|(k, v, age)| {
                        let mut cell = QualityCell::bare(v);
                        if let Some(a) = age {
                            cell.set_tag(IndicatorValue::new("age", a));
                        }
                        vec![QualityCell::bare(k), cell]
                    })
                    .collect();
                TaggedRelation::new(schema, dict, rows).unwrap()
            },
        )
    }

    proptest! {
        /// Parsed SQL WHERE/WITH QUALITY equals the direct algebra call.
        #[test]
        fn sql_where_equals_algebra(rel in arb_rel(), a in 0i64..15, b in 0i64..40) {
            let mut cat = QueryCatalog::new();
            cat.register("t", rel.clone());
            let sql = format!(
                "SELECT * FROM t WHERE k >= {a} WITH QUALITY (v@age <= {b})"
            );
            let via_sql = run(&cat, &sql).unwrap();
            let pred = Expr::col("k")
                .ge(Expr::lit(a))
                .and(Expr::col("v@age").le(Expr::lit(b)));
            let direct = tagstore::algebra::select(&rel, &pred).unwrap();
            prop_assert_eq!(via_sql.relation(), &direct);
        }

        /// COUNT(*) via SQL equals the relation length after the same
        /// filter, and LIMIT truncates exactly.
        #[test]
        fn aggregates_and_limit_consistent(rel in arb_rel(), a in 0i64..15, n in 0usize..10) {
            let mut cat = QueryCatalog::new();
            cat.register("t", rel.clone());
            let filtered = run(&cat, &format!("SELECT * FROM t WHERE k < {a}")).unwrap();
            let counted = run(&cat, &format!("SELECT COUNT(*) AS n FROM t WHERE k < {a}"))
                .unwrap();
            let n_val = match counted.relation().cell(0, "n").unwrap().value {
                Value::Int(x) => x as usize,
                ref other => panic!("{other:?}"),
            };
            prop_assert_eq!(n_val, filtered.relation().len());
            let limited = run(&cat, &format!("SELECT * FROM t LIMIT {n}")).unwrap();
            prop_assert_eq!(limited.relation().len(), rel.len().min(n));
        }

        /// Access-path selection is invisible: any query runs to the same
        /// result with the index optimizer on and off, at thread counts
        /// 1, 2, and 8.
        #[test]
        fn index_planner_equals_scan_planner(
            rel in arb_rel(),
            a in 0i64..15,
            b in 0i64..40,
        ) {
            let mut cat = QueryCatalog::new();
            cat.register("t", rel);
            let on = crate::Planner::default();
            let off = crate::Planner { use_indexes: false, ..crate::Planner::default() };
            for sql in [
                format!("SELECT * FROM t WITH QUALITY (v@age <= {b})"),
                format!("SELECT * FROM t WHERE k >= {a} WITH QUALITY (v@age = {b})"),
                format!("SELECT k FROM t WITH QUALITY (v@age > {b}) ORDER BY k"),
            ] {
                let baseline = crate::run_with(&cat, &sql, &off).unwrap();
                for threads in [1usize, 2, 8] {
                    let indexed = relstore::par::with_thread_count(threads, || {
                        crate::run_with(&cat, &sql, &on).unwrap()
                    });
                    prop_assert_eq!(indexed.relation(), baseline.relation());
                }
            }
        }

        /// ORDER BY really sorts and DISTINCT really dedupes (on values).
        #[test]
        fn order_and_distinct(rel in arb_rel()) {
            let mut cat = QueryCatalog::new();
            cat.register("t", rel.clone());
            let sorted = run(&cat, "SELECT * FROM t ORDER BY k ASC, v DESC").unwrap();
            let rows = sorted.relation().rows();
            for w in rows.windows(2) {
                let (k0, k1) = (&w[0][0].value, &w[1][0].value);
                prop_assert!(k0 <= k1);
                if k0 == k1 {
                    prop_assert!(w[0][1].value >= w[1][1].value);
                }
            }
            let distinct = run(&cat, "SELECT DISTINCT k, v FROM t").unwrap();
            let plain = relstore::algebra::distinct(&rel.strip());
            prop_assert_eq!(distinct.relation().len(), plain.len());
        }
    }
}
