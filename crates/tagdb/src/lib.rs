//! `tagstore` — the attribute-based data quality model: cell-level quality
//! indicator tagging with a tag-propagating relational algebra.
//!
//! This crate implements the formal substrate the ICDE'93 paper builds on
//! (its reference \[28\], "Toward Quality Data: An Attribute-based
//! Approach"): every stored cell may carry *quality indicator values*
//! describing its manufacture — source, creation time, collection method —
//! recursively (indicators may themselves be tagged, Premise 1.4). The
//! algebra propagates tags through σ/π/⋈/∪/γ so that query results retain
//! the production history of each datum, and quality predicates over
//! `column@indicator` pseudo-columns filter data by quality at query time.
//!
//! ```
//! use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
//! use tagstore::algebra::select;
//! use relstore::{Schema, DataType, Expr, Value};
//!
//! let schema = Schema::of(&[("address", DataType::Text)]);
//! let dict = IndicatorDictionary::with_paper_defaults();
//! let mut rel = TaggedRelation::empty(schema, dict);
//! rel.push(vec![QualityCell::bare("62 Lois Av")
//!     .with_tag(IndicatorValue::new("source", "acct'g"))]).unwrap();
//!
//! // Query-time quality filtering: only accounting-sourced addresses.
//! let trusted = select(&rel, &Expr::col("address@source").eq(Expr::lit("acct'g"))).unwrap();
//! assert_eq!(trusted.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod bitmap;
pub mod cell;
pub mod columnar;
pub mod epoch;
mod fold;
pub mod indicator;
pub mod predicate;
pub mod relation;
pub mod store;
pub mod symbol;
pub mod vector;

pub use bitmap::{Bitset, IndexedTaggedRelation, QualityAtom, QualityIndex};
pub use columnar::{
    hash_join_probe_columnar, project_columnar, select_columnar, select_indexed_columnar,
    selection_columnar, selection_indexed_columnar, ColumnarRelation,
};
pub use vector::{
    hash_join_probe_vectorized, select_vectorized, BatchStats, DEFAULT_BATCH_SIZE,
};
pub use cell::QualityCell;
pub use epoch::{EpochCell, Stamped};
pub use indicator::{IndicatorDef, IndicatorDictionary, IndicatorValue};
pub use predicate::{Predicate, ToPredicate};
pub use symbol::Symbol;
pub use relation::{TaggedRelation, TaggedRow, TAG_SEP};
pub use store::{from_quality_store, to_quality_store, QualityStore, QKEY_SUFFIX};

#[cfg(test)]
mod proptests {
    //! Algebra laws under tagging.
    use crate::algebra::*;
    use crate::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
    use proptest::prelude::*;
    use relstore::{DataType, Expr, Schema, Value};

    /// Arbitrary tagged relation over (k:Int, v:Int) with optional
    /// source/age tags on v.
    fn arb_tagged() -> impl Strategy<Value = TaggedRelation> {
        prop::collection::vec(
            (0i64..20, 0i64..20, prop::option::of("[a-c]"), prop::option::of(0i64..30)),
            0..30,
        )
        .prop_map(|rows| {
            let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            let dict = IndicatorDictionary::with_paper_defaults();
            let rows = rows
                .into_iter()
                .map(|(k, v, src, age)| {
                    let mut cell = QualityCell::bare(v);
                    if let Some(s) = src {
                        cell.set_tag(IndicatorValue::new("source", s));
                    }
                    if let Some(a) = age {
                        cell.set_tag(IndicatorValue::new("age", a));
                    }
                    vec![QualityCell::bare(k), cell]
                })
                .collect();
            TaggedRelation::new(schema, dict, rows).unwrap()
        })
    }

    /// Arbitrary tagged relation over (k:Int, v:Int, t:Text) where v and
    /// t are nullable (possibly all-NULL), v carries optional
    /// source/age tags, and the t column is sometimes bulk-tagged so the
    /// columnar layout sees both long shared runs and per-cell runs.
    /// Row count starts at 0 to keep the empty relation in scope.
    fn arb_nullable() -> impl Strategy<Value = TaggedRelation> {
        (
            prop::collection::vec(
                (
                    0i64..20,
                    prop::option::of(0i64..20),
                    prop::option::of("[a-c]"),
                    prop::option::of(0i64..30),
                    prop::option::of("[a-d]{1,2}"),
                ),
                0..30,
            ),
            prop::bool::ANY,
        )
            .prop_map(|(rows, bulk)| {
                let schema = Schema::of(&[
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("t", DataType::Text),
                ]);
                let dict = IndicatorDictionary::with_paper_defaults();
                let rows = rows
                    .into_iter()
                    .map(|(k, v, src, age, t)| {
                        let mut cell =
                            QualityCell::bare(v.map(Value::Int).unwrap_or(Value::Null));
                        if let Some(s) = src {
                            cell.set_tag(IndicatorValue::new("source", s));
                        }
                        if let Some(a) = age {
                            cell.set_tag(IndicatorValue::new("age", a));
                        }
                        let t = QualityCell::bare(
                            t.map(Value::Text).unwrap_or(Value::Null),
                        );
                        vec![QualityCell::bare(k), cell, t]
                    })
                    .collect();
                let mut rel = TaggedRelation::new(schema, dict, rows).unwrap();
                if bulk {
                    rel.tag_column("t", IndicatorValue::new("collection_method", "scan"))
                        .unwrap();
                }
                rel
            })
    }

    proptest! {
        /// Stripping commutes with selection on application values:
        /// strip(σ_p(R)) = σ_p(strip(R)).
        #[test]
        fn strip_commutes_with_value_select(rel in arb_tagged(), c in 0i64..20) {
            let p = Expr::col("v").lt(Expr::lit(c));
            let lhs = select(&rel, &p).unwrap().strip();
            let rhs = relstore::algebra::select(&rel.strip(), &p).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        /// Selection never invents or mutates tags: every output row
        /// appears identically in the input.
        #[test]
        fn select_preserves_rows_exactly(rel in arb_tagged(), c in 0i64..20) {
            let p = Expr::col("k").ge(Expr::lit(c));
            let out = select(&rel, &p).unwrap();
            for row in out.iter() {
                prop_assert!(rel.iter().any(|r| r == row));
            }
        }

        /// Quality selection is a restriction of value rows: filtering on
        /// `v@age` returns a sub-bag of the input.
        #[test]
        fn quality_select_is_restriction(rel in arb_tagged(), c in 0i64..30) {
            let p = Expr::col("v@age").le(Expr::lit(c));
            let out = select(&rel, &p).unwrap();
            prop_assert!(out.len() <= rel.len());
            // every surviving row really satisfies the constraint
            for row in out.iter() {
                match row[1].tag_value("age") {
                    Value::Int(a) => prop_assert!(a <= c),
                    other => prop_assert!(false, "untagged row survived: {other:?}"),
                }
            }
        }

        /// distinct_merging collapses to the distinct count of values and
        /// is idempotent.
        #[test]
        fn distinct_merging_laws(rel in arb_tagged()) {
            let d = distinct_merging(&rel);
            let value_distinct = relstore::algebra::distinct(&rel.strip());
            prop_assert_eq!(d.len(), value_distinct.len());
            let dd = distinct_merging(&d);
            prop_assert_eq!(d.len(), dd.len());
        }

        /// Join tag propagation: strip(R ⋈ S) = strip(R) ⋈ strip(S).
        #[test]
        fn strip_commutes_with_join(a in arb_tagged(), b in arb_tagged()) {
            let tagged = hash_join(&a, &b, "k", "k").unwrap().strip();
            let plain = relstore::algebra::hash_join(
                &a.strip(), &b.strip(), "k", "k",
                relstore::algebra::JoinType::Inner).unwrap();
            let mut x = tagged.into_rows();
            let mut y = plain.into_rows();
            x.sort(); y.sort();
            prop_assert_eq!(x, y);
        }

        /// The quality-key storage form is lossless for arbitrary tagged
        /// relations: to_quality_store ∘ from_quality_store = id.
        #[test]
        fn quality_store_roundtrip(rel in arb_tagged()) {
            let store = crate::store::to_quality_store(&rel).unwrap();
            let back = crate::store::from_quality_store(
                &store, rel.dictionary().clone()).unwrap();
            prop_assert_eq!(back, rel);
        }

        /// Parallel tag-propagating execution is invisible: σ (value and
        /// quality predicates), π, and ⋈ produce identical rows, order,
        /// and tags at thread counts 1, 2, and 8.
        #[test]
        fn parallel_equals_serial_with_tags(a in arb_tagged(), b in arb_tagged(), c in 0i64..30) {
            let vp = Expr::col("v").lt(Expr::lit(c));
            let qp = Expr::col("v@age").le(Expr::lit(c));
            let sel = select(&a, &vp).unwrap();
            let qsel = select(&a, &qp).unwrap();
            let proj = project(&a, &["v", "k"]).unwrap();
            let join = hash_join(&a, &b, "k", "k").unwrap();
            let mask = evaluate_mask(&a, &qp).unwrap();
            for threads in [1usize, 2, 8] {
                let (s, q, pj, j, m) = relstore::par::with_thread_count(threads, || {
                    (
                        select(&a, &vp).unwrap(),
                        select(&a, &qp).unwrap(),
                        project(&a, &["v", "k"]).unwrap(),
                        hash_join(&a, &b, "k", "k").unwrap(),
                        evaluate_mask(&a, &qp).unwrap(),
                    )
                });
                prop_assert_eq!(&s, &sel);
                prop_assert_eq!(&q, &qsel);
                prop_assert_eq!(&pj, &proj);
                prop_assert_eq!(&j, &join);
                prop_assert_eq!(&m, &mask);
            }
        }

        /// Vectorized batch execution is invisible: σ (value, quality,
        /// and mixed predicates) and the ⋈ probe produce rows, order,
        /// and cell-level tags identical to the row-at-a-time path at
        /// batch sizes 1, 7, and 1024 and at thread counts 1, 2, and 8.
        #[test]
        fn vectorized_equals_row_at_a_time(
            a in arb_tagged(),
            b in arb_tagged(),
            c in 0i64..30,
            s in "[a-c]",
        ) {
            let vp = Expr::col("v").lt(Expr::lit(c));
            let qp = Expr::col("v@age")
                .le(Expr::lit(c))
                .and(Expr::col("v@source").ne(Expr::lit(s)));
            let sel_v = select(&a, &vp).unwrap();
            let sel_q = select(&a, &qp).unwrap();
            let join = hash_join(&a, &b, "k", "k").unwrap();
            let ri = b.schema().resolve("k").unwrap();
            let mut hidx = relstore::index::HashIndex::new(vec![ri]);
            for (pos, row) in b.iter().enumerate() {
                hidx.insert(&vec![row[ri].value.clone()], pos);
            }
            for threads in [1usize, 2, 8] {
                for bs in [1usize, 7, 1024] {
                    let (v, q, j) = relstore::par::with_thread_count(threads, || {
                        (
                            crate::vector::select_vectorized(&a, &vp, bs).unwrap().0,
                            crate::vector::select_vectorized(&a, &qp, bs).unwrap().0,
                            crate::vector::hash_join_probe_vectorized(
                                &a, &b, "k", "k", &hidx, bs,
                            )
                            .unwrap()
                            .0,
                        )
                    });
                    prop_assert_eq!(&v, &sel_v);
                    prop_assert_eq!(&q, &sel_q);
                    prop_assert_eq!(&j, &join);
                }
            }
        }

        /// The parallel bulk index build is bit-for-bit identical to the
        /// serial fold at 1, 2, and 8 threads.
        #[test]
        fn parallel_index_build_equals_serial(rel in arb_tagged()) {
            let serial = relstore::par::with_thread_count(1, || {
                crate::bitmap::QualityIndex::build(&rel)
            });
            for threads in [2usize, 8] {
                let par = relstore::par::with_thread_count(threads, || {
                    crate::bitmap::QualityIndex::build(&rel)
                });
                prop_assert_eq!(&par, &serial);
            }
        }

        /// Bitmap-indexed selection ≡ full-scan selection — identical
        /// rows, order, and tags — across eq/ne/range/BETWEEN/mixed
        /// predicate shapes, at 1, 2, and 8 threads.
        #[test]
        fn bitmap_select_equals_scan(rel in arb_tagged(), c in 0i64..30, s in "[a-c]") {
            let idx = crate::bitmap::QualityIndex::build(&rel);
            let preds = vec![
                Expr::col("v@source").eq(Expr::lit(s.clone())),
                Expr::col("v@source").ne(Expr::lit(s)),
                Expr::col("v@age").le(Expr::lit(c)),
                Expr::col("v@age").gt(Expr::lit(c)),
                Expr::Between(
                    Box::new(Expr::col("v@age")),
                    Box::new(Expr::lit(c - 10)),
                    Box::new(Expr::lit(c)),
                ),
                Expr::col("v@age")
                    .ge(Expr::lit(c))
                    .and(Expr::col("k").lt(Expr::lit(10i64))),
            ];
            for p in &preds {
                let scan = select(&rel, p).unwrap();
                for threads in [1usize, 2, 8] {
                    let (fast, _path) = relstore::par::with_thread_count(threads, || {
                        select_indexed(&rel, &idx, p).unwrap()
                    });
                    prop_assert_eq!(&fast, &scan);
                }
            }
        }

        /// The incrementally-maintained index (per-row note_row on push)
        /// is structurally identical to a bulk rebuild.
        #[test]
        fn bitmap_incremental_equals_rebuild(rel in arb_tagged()) {
            let mut inc = crate::bitmap::QualityIndex::new();
            for row in rel.iter() {
                inc.note_row(row);
            }
            prop_assert_eq!(inc, crate::bitmap::QualityIndex::build(&rel));
        }

        /// After arbitrary retagging through IndexedTaggedRelation, the
        /// maintained index still answers selections identically to a
        /// scan of the mutated relation.
        #[test]
        fn bitmap_retag_stays_consistent(
            rel in arb_tagged(),
            row in 0usize..30,
            a in 0i64..30,
            c in 0i64..30,
        ) {
            let mut ir = crate::bitmap::IndexedTaggedRelation::from_relation(rel);
            if !ir.is_empty() {
                let row = row % ir.len();
                ir.tag_cell(row, "v", IndicatorValue::new("age", a)).unwrap();
            }
            let p = Expr::col("v@age").le(Expr::lit(c));
            let (fast, _) = ir.select(&p).unwrap();
            prop_assert_eq!(fast, select(ir.relation(), &p).unwrap());
        }

        /// Arc-shared tags are an invisible storage optimization: a
        /// bulk-tagged column (one shared allocation across all rows)
        /// round-trips losslessly through the quality-key storage form,
        /// and equals the same relation tagged cell-by-cell.
        #[test]
        fn shared_tags_store_roundtrip(rel in arb_tagged(), s in "[a-c]") {
            let mut shared = rel.clone();
            shared.tag_column("k", IndicatorValue::new("source", s.clone())).unwrap();
            let mut cloned = rel;
            for i in 0..cloned.len() {
                cloned.tag_cell(i, "k", IndicatorValue::new("source", s.clone())).unwrap();
            }
            prop_assert_eq!(&shared, &cloned);
            let store = crate::store::to_quality_store(&shared).unwrap();
            let back = crate::store::from_quality_store(
                &store, shared.dictionary().clone()).unwrap();
            prop_assert_eq!(back, shared);
        }

        /// Interleaved push / swap_remove / tag_cell mutation schedules
        /// keep the incrementally-maintained bitmap index
        /// answer-equivalent to a bulk rebuild and to a full scan, at 1,
        /// 2, and 8 threads, with selectivity estimates staying finite
        /// in [0, 1].
        #[test]
        fn bitmap_interleaved_mutation_parity(
            rel in arb_tagged(),
            ops in prop::collection::vec(
                (0u8..4, 0i64..20, 0i64..30, "[a-c]", 0usize..30),
                0..40,
            ),
            c in 0i64..30,
            s in "[a-c]",
        ) {
            let mut ir = crate::bitmap::IndexedTaggedRelation::from_relation(rel);
            for (op, k, a, src, at) in ops {
                match op {
                    0 => {
                        let mut cell = QualityCell::bare(k + a);
                        cell.set_tag(IndicatorValue::new("source", src));
                        cell.set_tag(IndicatorValue::new("age", a));
                        ir.push(vec![QualityCell::bare(k), cell]).unwrap();
                    }
                    1 if !ir.is_empty() => {
                        ir.swap_remove(at % ir.len()).unwrap();
                    }
                    2 if !ir.is_empty() => {
                        let at = at % ir.len();
                        ir.tag_cell(at, "v", IndicatorValue::new("age", a)).unwrap();
                    }
                    3 if !ir.is_empty() => {
                        let at = at % ir.len();
                        ir.tag_cell(at, "v", IndicatorValue::new("source", src)).unwrap();
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(ir.index().rows(), ir.len());
            let rebuilt = crate::bitmap::QualityIndex::build(ir.relation());
            let preds = vec![
                Expr::col("v@source").eq(Expr::lit(s.clone())),
                Expr::col("v@source").ne(Expr::lit(s)),
                Expr::col("v@age").le(Expr::lit(c)),
                Expr::col("v@age").gt(Expr::lit(c)),
                Expr::col("v@age")
                    .ge(Expr::lit(c))
                    .and(Expr::col("k").lt(Expr::lit(10i64))),
            ];
            for p in &preds {
                let scan = select(ir.relation(), p).unwrap();
                for threads in [1usize, 2, 8] {
                    let (inc, _) = relstore::par::with_thread_count(threads, || {
                        select_indexed(ir.relation(), ir.index(), p).unwrap()
                    });
                    let (reb, _) = relstore::par::with_thread_count(threads, || {
                        select_indexed(ir.relation(), &rebuilt, p).unwrap()
                    });
                    prop_assert_eq!(&inc, &scan);
                    prop_assert_eq!(&reb, &scan);
                }
                // Both indexes agree on estimates, which stay finite in
                // [0, 1] after arbitrary mutation.
                let bound = crate::Predicate::bind(
                    ir.relation().schema(), ir.relation().dictionary(), p).unwrap();
                let atoms = bound.atoms();
                if !atoms.is_empty() {
                    let ei = ir.index().estimate(atoms);
                    let er = rebuilt.estimate(atoms);
                    prop_assert_eq!(ei, er);
                    if let Some(e) = ei {
                        prop_assert!(e.is_finite() && (0.0..=1.0).contains(&e),
                            "estimate {} out of range", e);
                    }
                }
            }
        }

        /// Copy-on-write postings: retagging a `clone()` of an index
        /// never reaches the index it was cloned from (which stays `==`
        /// an independently built copy, so no shared posting leaked a
        /// write), and the retagged clone answers every atom like a
        /// fresh build over the mutated relation, at 1, 2, and 8
        /// threads. This is the step a `TAG`'s successor table entry
        /// takes while readers stay pinned on the predecessor.
        #[test]
        fn bitmap_clone_then_retag_leaves_original_intact(
            rel in arb_tagged(),
            ops in prop::collection::vec((any::<bool>(), 0i64..30, "[a-c]", 0usize..30), 0..40),
            c in 0i64..30,
            s in "[a-c]",
        ) {
            let pristine = crate::bitmap::QualityIndex::build(&rel);
            let original = crate::bitmap::QualityIndex::build(&rel);
            let mut successor = original.clone();
            let mut mutated = rel.clone();
            if !rel.is_empty() {
                for (age, a, src, at) in ops {
                    let at = at % rel.len();
                    let tag = if age {
                        IndicatorValue::new("age", a)
                    } else {
                        IndicatorValue::new("source", src)
                    };
                    let old = mutated.rows()[at][1].tag_sym(&tag.indicator).map(|t| t.value.clone());
                    successor.retag(at, 1, old.as_ref(), &tag.indicator, &tag.value);
                    mutated.tag_cell(at, "v", tag).unwrap();
                }
            }
            prop_assert_eq!(&original, &pristine);
            let preds = vec![
                Expr::col("v@source").eq(Expr::lit(s.clone())),
                Expr::col("v@source").ne(Expr::lit(s)),
                Expr::col("v@age").le(Expr::lit(c)),
                Expr::col("v@age").gt(Expr::lit(c)),
                Expr::Between(
                    Box::new(Expr::col("v@age")),
                    Box::new(Expr::lit(c - 10)),
                    Box::new(Expr::lit(c)),
                ),
            ];
            for threads in [1usize, 2, 8] {
                let fresh = relstore::par::with_thread_count(threads, || {
                    crate::bitmap::QualityIndex::build(&mutated)
                });
                for p in &preds {
                    let bound = crate::Predicate::bind(
                        mutated.schema(), mutated.dictionary(), p).unwrap();
                    let atoms = bound.atoms();
                    // same rows; a bitset's universe may end at a bit
                    // that has since been cleared
                    let ones = |idx: &crate::bitmap::QualityIndex| {
                        idx.candidates(atoms).map(|b| b.iter_ones().collect::<Vec<_>>())
                    };
                    prop_assert_eq!(ones(&successor), ones(&fresh));
                    prop_assert_eq!(successor.estimate(atoms), fresh.estimate(atoms));
                    // and the original still answers for the old relation
                    let (before, _) = relstore::par::with_thread_count(threads, || {
                        select_indexed(&rel, &original, p).unwrap()
                    });
                    prop_assert_eq!(&before, &select(&rel, p).unwrap());
                }
            }
        }

        /// Columnar conversion is lossless for arbitrary nullable tagged
        /// relations — values, NULL validity, relation tags, and
        /// cell-level tag `Arc` identity all survive
        /// from_tagged ∘ to_tagged, including the 0-row and all-NULL
        /// column edge cases.
        #[test]
        fn columnar_roundtrip(mut rel in arb_nullable(), s in "[a-c]") {
            rel.tag_relation(IndicatorValue::new("source", s)).unwrap();
            let c = crate::columnar::ColumnarRelation::from_tagged(&rel);
            let back = c.to_tagged();
            prop_assert_eq!(&back, &rel);
            prop_assert_eq!(back.relation_tags(), rel.relation_tags());
            for (orig, round) in rel.iter().zip(back.iter()) {
                for (a, b) in orig.iter().zip(round.iter()) {
                    if !a.tags().is_empty() {
                        prop_assert!(b.shares_tags_with(a),
                            "round trip must preserve tag Arc identity");
                    }
                }
            }
        }

        /// Columnar execution is invisible: σ (value, quality, and mixed
        /// predicates, indexed and unindexed), π, and the ⋈ probe over
        /// the columnar layout produce relations `to_tagged()`-equal to
        /// the row-at-a-time path at batch sizes 1, 7, and 1024 and at
        /// thread counts 1, 2, and 8 — over nullable columns.
        #[test]
        fn columnar_equals_row_at_a_time(
            a in arb_nullable(),
            b in arb_nullable(),
            c in 0i64..30,
            s in "[a-c]",
        ) {
            use crate::columnar::*;
            let vp = Expr::col("v").lt(Expr::lit(c));
            let qp = Expr::col("v@age")
                .le(Expr::lit(c))
                .and(Expr::col("v@source").ne(Expr::lit(s)));
            let tp = Expr::col("t").ge(Expr::lit("b"));
            let idx = crate::bitmap::QualityIndex::build(&a);
            let ca = ColumnarRelation::from_tagged(&a);
            let cb = ColumnarRelation::from_tagged(&b);
            let sel_v = select(&a, &vp).unwrap();
            let sel_q = select(&a, &qp).unwrap();
            let sel_t = select(&a, &tp).unwrap();
            let proj = project(&a, &["v", "k"]).unwrap();
            let join = hash_join(&a, &b, "k", "k").unwrap();
            let ri = b.schema().resolve("k").unwrap();
            let mut hidx = relstore::index::HashIndex::new(vec![ri]);
            for (pos, row) in b.iter().enumerate() {
                hidx.insert(&vec![row[ri].value.clone()], pos);
            }
            let pj = project_columnar(&ca, &["v", "k"]).unwrap();
            prop_assert_eq!(&pj.to_tagged(), &proj);
            for threads in [1usize, 2, 8] {
                for bs in [1usize, 7, 1024] {
                    let (v, q, qi, t, j) = relstore::par::with_thread_count(threads, || {
                        (
                            select_columnar(&ca, &vp, bs).unwrap().0,
                            select_columnar(&ca, &qp, bs).unwrap().0,
                            select_indexed_columnar(&ca, &idx, &qp, bs).unwrap().0,
                            select_columnar(&ca, &tp, bs).unwrap().0,
                            hash_join_probe_columnar(&ca, &cb, "k", "k", &hidx, bs)
                                .unwrap()
                                .0,
                        )
                    });
                    prop_assert_eq!(&v.to_tagged(), &sel_v);
                    prop_assert_eq!(&q.to_tagged(), &sel_q);
                    prop_assert_eq!(&qi.to_tagged(), &sel_q);
                    prop_assert_eq!(&t.to_tagged(), &sel_t);
                    prop_assert_eq!(&j.to_tagged(), &join);
                }
            }
        }

        /// The run-at-a-time columnar index build is bit-for-bit
        /// identical to the row-at-a-time build at 1, 2, and 8 threads.
        #[test]
        fn columnar_index_build_parity(rel in arb_nullable()) {
            let crel = crate::columnar::ColumnarRelation::from_tagged(&rel);
            let row_idx = relstore::par::with_thread_count(1, || {
                crate::bitmap::QualityIndex::build(&rel)
            });
            for threads in [1usize, 2, 8] {
                let col_idx = relstore::par::with_thread_count(threads, || crel.build_index());
                prop_assert_eq!(&col_idx, &row_idx);
            }
        }
    }
}
