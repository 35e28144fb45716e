//! `relstore` — the relational substrate of the ICDE'93 data-quality
//! reproduction: the types and scalar semantics the tagged engine is
//! built on.
//!
//! * typed [`value::Value`]s with a total order (including calendar
//!   [`date::Date`]s, the carrier of *creation time* / *age* indicators),
//! * [`schema::Schema`]-validated [`relation::Relation`]s (a NOT NULL
//!   column rejects a NULL when the row is built),
//! * a scalar [`expr::Expr`] language with SQL three-valued logic,
//! * the aggregate semantics every γ shares ([`algebra`]: the calls, their
//!   output schema and the per-group [`algebra::Acc`]),
//! * a hash [`index`] for point lookups, join probes and key checks,
//! * [`par`], chunked parallel execution on scoped threads,
//! * [`csv`] import/export.
//!
//! Queries run over tagged relations: the `tagstore` crate's σ, π, ⋈, δ
//! and γ evaluate this crate's expressions and aggregates over cells that
//! carry quality tags, and an untagged relation is a tagged one whose
//! tag sets are empty.

#![warn(missing_docs)]

pub mod algebra;
pub mod csv;
pub mod date;
pub mod error;
pub mod expr;
pub mod index;
pub mod par;
pub mod relation;
pub mod schema;
pub mod value;

pub use date::Date;
pub use error::{DbError, DbResult};
pub use expr::{Expr, Func};
pub use index::HashIndex;
pub use relation::{Relation, Row};
pub use schema::{ColumnDef, Schema};
pub use value::{DataType, Value};

#[cfg(test)]
mod proptests {
    //! Property-based tests over values, dates and CSV. The relational
    //! laws (σ idempotent and commuting, cardinality, parallel = serial)
    //! are checked over tagged relations in `tagstore`.
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
    }
}
