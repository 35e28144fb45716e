//! `relstore` — the in-memory relational engine substrate for the
//! ICDE'93 data-quality reproduction.
//!
//! The paper assumes a relational database over which quality tagging and
//! quality-constrained querying can be built; this crate is that database,
//! built from scratch:
//!
//! * typed [`value::Value`]s with a total order (including calendar
//!   [`date::Date`]s, the carrier of *creation time* / *age* indicators),
//! * [`schema::Schema`]-validated [`relation::Relation`]s,
//! * a scalar [`expr::Expr`] language with SQL three-valued logic,
//! * a relational [`algebra`] (σ, π, hash join, bag union, δ, γ),
//! * [`table::Table`]s with [`constraint::Constraint`]s, and a hash
//!   [`index`] for point lookups and join probes,
//! * a [`catalog::Database`] with foreign keys,
//! * [`csv`] import/export.
//!
//! The quality layers ([`tagstore`](https://crates.io), `polygen`) mirror
//! this algebra with tag/source propagation.

#![warn(missing_docs)]

pub mod algebra;
pub mod catalog;
pub mod constraint;
pub mod csv;
pub mod date;
pub mod error;
pub mod expr;
pub mod index;
pub mod par;
pub mod relation;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use date::Date;
pub use error::{DbError, DbResult};
pub use expr::{Expr, Func};
pub use index::HashIndex;
pub use relation::{Relation, Row};
pub use schema::{ColumnDef, Schema};
pub use table::Table;
pub use value::{DataType, Value};

#[cfg(test)]
mod proptests {
    //! Property-based tests over the core algebra.
    use crate::algebra::*;
    use crate::expr::Expr;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(|i| Value::Int(i % 1000)),
            any::<bool>().prop_map(Value::Bool),
            "[a-z]{0,6}".prop_map(Value::Text),
        ]
    }

    fn arb_int_relation() -> impl Strategy<Value = Relation> {
        prop::collection::vec((0i64..50, 0i64..50), 0..40).prop_map(|rows| {
            let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            Relation::new(
                schema,
                rows.into_iter()
                    .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
                    .collect(),
            )
            .unwrap()
        })
    }

    proptest! {
        /// Value ordering is a total order: antisymmetric & transitive via
        /// sort stability — sorting twice gives the same result.
        #[test]
        fn value_sort_is_stable_total(mut vals in prop::collection::vec(arb_value(), 0..50)) {
            vals.sort();
            let once = vals.clone();
            vals.sort();
            prop_assert_eq!(once, vals);
        }

        /// σ_p ∘ σ_p = σ_p (selection idempotence).
        #[test]
        fn selection_idempotent(rel in arb_int_relation(), c in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(c));
            let once = select(&rel, &p).unwrap();
            let twice = select(&once, &p).unwrap();
            prop_assert_eq!(once, twice);
        }

        /// Selections commute: σ_p(σ_q(R)) = σ_q(σ_p(R)).
        #[test]
        fn selections_commute(rel in arb_int_relation(), a in 0i64..50, b in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(a));
            let q = Expr::col("v").ge(Expr::lit(b));
            let pq = select(&select(&rel, &q).unwrap(), &p).unwrap();
            let qp = select(&select(&rel, &p).unwrap(), &q).unwrap();
            prop_assert_eq!(pq, qp);
        }

        /// |σ(R)| ≤ |R| and projection preserves cardinality.
        #[test]
        fn cardinality_laws(rel in arb_int_relation(), c in 0i64..50) {
            let p = Expr::col("k").eq(Expr::lit(c));
            prop_assert!(select(&rel, &p).unwrap().len() <= rel.len());
            prop_assert_eq!(project(&rel, &["v"]).unwrap().len(), rel.len());
        }

        /// distinct is idempotent and never grows the relation.
        #[test]
        fn distinct_laws(rel in arb_int_relation()) {
            let d = distinct(&rel);
            prop_assert!(d.len() <= rel.len());
            prop_assert_eq!(distinct(&d).len(), d.len());
        }

        /// Union cardinality: |A ∪all B| = |A| + |B|.
        #[test]
        fn set_op_laws(a in arb_int_relation(), b in arb_int_relation()) {
            prop_assert_eq!(union_all(&a, &b).unwrap().len(), a.len() + b.len());
        }

        /// SUM distributes over bag union.
        #[test]
        fn sum_distributes_over_union(a in arb_int_relation(), b in arb_int_relation()) {
            let sum = |r: &Relation| -> i64 {
                match aggregate(r, &[], &[AggCall::on(AggFunc::Sum, "v", "s")])
                    .unwrap().rows()[0][0] {
                    Value::Int(i) => i,
                    Value::Null => 0,
                    _ => unreachable!(),
                }
            };
            let u = union_all(&a, &b).unwrap();
            prop_assert_eq!(sum(&u), sum(&a) + sum(&b));
        }

        /// Calendar date round-trips: days → (y,m,d) → days is identity
        /// over ±300 years around the epoch, and ordering matches days.
        #[test]
        fn date_roundtrip(days in -110_000i64..110_000, delta in -1000i64..1000) {
            let d = crate::date::Date::from_days(days);
            let (y, m, day) = d.ymd();
            let back = crate::date::Date::new(y, m, day).unwrap();
            prop_assert_eq!(back.days(), days);
            let e = d.plus_days(delta);
            prop_assert_eq!(e.days_between(&d), delta);
            prop_assert_eq!(d < e, delta > 0);
        }

        /// CSV roundtrip is lossless for typed relations.
        #[test]
        fn csv_roundtrip(rel in arb_int_relation()) {
            let text = crate::csv::to_csv(&rel);
            let back = crate::csv::from_csv(rel.schema(), &text).unwrap();
            prop_assert_eq!(back, rel);
        }

        /// Parallel execution is invisible: σ, π, and ⋈ produce identical
        /// results — same rows, same order — at thread counts 1, 2, and 8
        /// (the override forces the chunked path even on small inputs).
        #[test]
        fn parallel_equals_serial(l in arb_int_relation(), r in arb_int_relation(), c in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(c));
            let sel = select(&l, &p).unwrap();
            let proj = project(&l, &["v", "k"]).unwrap();
            let join = hash_join(&l, &r, "k", "k", JoinType::Inner).unwrap();
            for threads in [1usize, 2, 8] {
                let (s, pj, j) = crate::par::with_thread_count(threads, || {
                    (
                        select(&l, &p).unwrap(),
                        project(&l, &["v", "k"]).unwrap(),
                        hash_join(&l, &r, "k", "k", JoinType::Inner).unwrap(),
                    )
                });
                prop_assert_eq!(&s, &sel);
                prop_assert_eq!(&pj, &proj);
                prop_assert_eq!(&j, &join);
            }
        }

        /// Errors are deterministic under parallelism: the first failing
        /// row (division by zero) produces the same error at any thread
        /// count as in serial execution.
        #[test]
        fn parallel_error_matches_serial(rel in arb_int_relation()) {
            // v % k errors on rows where k == 0, so relations exercise
            // no-failure, sparse-failure, and first-row-failure cases.
            let p = Expr::Bin(
                Box::new(Expr::col("v")),
                crate::expr::BinOp::Mod,
                Box::new(Expr::col("k")),
            )
            .eq(Expr::lit(0i64));
            let serial = select(&rel, &p).map_err(|e| e.to_string());
            for threads in [2usize, 8] {
                let par_out = crate::par::with_thread_count(threads, || select(&rel, &p))
                    .map_err(|e| e.to_string());
                prop_assert_eq!(&par_out, &serial);
            }
        }
    }
}
