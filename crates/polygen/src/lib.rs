//! `polygen` — the source-tagging model for heterogeneous database systems
//! (Wang & Madnick, VLDB'90), the second formal substrate the ICDE'93
//! paper cites for cell-level quality tagging.
//!
//! Where `tagstore` attaches *arbitrary* quality indicators to cells, the
//! polygen model tracks exactly one dimension — *which local databases a
//! composed datum came from and which were consulted along the way* — and
//! defines how those source sets propagate through every relational
//! operator. See [`relation::PolyRelation`] for the operator table.
//!
//! ```
//! use polygen::{PolyRelation, SourceId, SourceRegistry};
//! use relstore::{Relation, Schema, DataType, Value, Expr};
//!
//! let schema = Schema::of(&[("ticker", DataType::Text)]);
//! let local = Relation::new(schema, vec![vec![Value::text("FRT")]]).unwrap();
//! let poly = PolyRelation::retrieve(&local, SourceId::new("NYSE"));
//! let filtered = poly.restrict(&Expr::col("ticker").eq(Expr::lit("FRT"))).unwrap();
//! assert!(filtered.cell(0, "ticker").unwrap().intermediate().contains(&SourceId::new("NYSE")));
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod cell;
pub mod relation;
pub mod source;

pub use bridge::{polygen_dictionary, to_tagged, INTERMEDIATE_INDICATOR};
pub use cell::{PolyCell, SourceSet};
pub use relation::{PolyRelation, PolyRow};
pub use source::{SourceId, SourceInfo, SourceRegistry};

#[cfg(test)]
mod proptests {
    use crate::{PolyRelation, SourceId};
    use proptest::prelude::*;
    use relstore::{DataType, Expr, Relation, Schema, Value};

    fn arb_poly(source: &'static str) -> impl Strategy<Value = PolyRelation> {
        prop::collection::vec((0i64..15, 0i64..15), 0..25).prop_map(move |rows| {
            let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            let rel = Relation::new(
                schema,
                rows.into_iter()
                    .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
                    .collect(),
            )
            .unwrap();
            PolyRelation::retrieve(&rel, SourceId::new(source))
        })
    }

    proptest! {
        /// Provenance is monotone: restrict never shrinks any surviving
        /// cell's source sets.
        #[test]
        fn restrict_monotone(rel in arb_poly("A"), c in 0i64..15) {
            let out = rel.restrict(&Expr::col("k").lt(Expr::lit(c))).unwrap();
            for row in out.iter() {
                for cell in row {
                    prop_assert!(cell.originating().contains(&SourceId::new("A")));
                }
            }
        }

        /// strip ∘ restrict is the longhand filter of strip.
        #[test]
        fn strip_commutes_with_restrict(rel in arb_poly("A"), c in 0i64..15) {
            let p = Expr::col("v").ge(Expr::lit(c));
            let lhs = rel.restrict(&p).unwrap().strip().into_rows();
            let rhs: Vec<_> =
                rel.strip().into_rows().into_iter().filter(|r| r[1] >= Value::Int(c)).collect();
            prop_assert_eq!(lhs, rhs);
        }

        /// Union is commutative on values and total sources.
        #[test]
        fn union_commutative(a in arb_poly("A"), b in arb_poly("B")) {
            let ab = a.union(&b).unwrap();
            let ba = b.union(&a).unwrap();
            prop_assert_eq!(ab.len(), ba.len());
            prop_assert_eq!(ab.all_sources(), ba.all_sources());
            let mut x = ab.strip().into_rows();
            let mut y = ba.strip().into_rows();
            x.sort(); y.sort();
            prop_assert_eq!(x, y);
        }

        /// Join result sources are bounded by the union of input sources,
        /// and every output tuple's cells consulted both key sources when
        /// both sides are single-source.
        #[test]
        fn join_source_bounds(a in arb_poly("A"), b in arb_poly("B")) {
            let j = a.join(&b, "k", "k").unwrap();
            let total = j.all_sources();
            prop_assert!(total.len() <= 2);
            for row in j.iter() {
                for cell in row {
                    if !j.is_empty() {
                        prop_assert!(cell.intermediate().contains(&SourceId::new("A")));
                        prop_assert!(cell.intermediate().contains(&SourceId::new("B")));
                    }
                }
            }
        }
    }
}
