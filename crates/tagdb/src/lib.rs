//! `tagstore` — the attribute-based data quality model: cell-level quality
//! indicator tagging, and the kernels that carry tags through queries.
//!
//! This crate implements the formal substrate the ICDE'93 paper builds on
//! (its reference \[28\], "Toward Quality Data: An Attribute-based
//! Approach"): every stored cell may carry *quality indicator values*
//! describing its manufacture — source, creation time, collection method —
//! recursively (indicators may themselves be tagged, Premise 1.4). σ, π
//! and ⋈ keep each cell's tags and γ derives its output's (a
//! [`TagPolicy`]), so query results retain the production history of
//! each datum; quality predicates over `column@indicator` pseudo-columns
//! filter data by quality at query time.
//!
//! ```
//! use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
//! use tagstore::{selection_columnar, ColumnarRelation, DEFAULT_BATCH_SIZE};
//! use relstore::{Schema, DataType, Expr, Value};
//!
//! let schema = Schema::of(&[("address", DataType::Text)]);
//! let dict = IndicatorDictionary::with_paper_defaults();
//! let mut rel = TaggedRelation::empty(schema, dict);
//! rel.push(vec![QualityCell::bare("62 Lois Av")
//!     .with_tag(IndicatorValue::new("source", "acct'g"))]).unwrap();
//!
//! // Query-time quality filtering: only accounting-sourced addresses.
//! let layout = ColumnarRelation::from_tagged(&rel);
//! let acctg = Expr::col("address@source").eq(Expr::lit("acct'g"));
//! let (kept, _) = selection_columnar(&layout, &acctg, DEFAULT_BATCH_SIZE).unwrap();
//! assert_eq!(layout.gather(&kept).len(), 1);
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
pub mod view;

pub use algebra::{TagPolicy, TagRule};
pub use bitmap::{Bitset, QualityAtom, QualityIndex};
pub use columnar::{
    selection_columnar, selection_indexed_columnar, selection_within_columnar, BatchStats,
    ColumnarRelation, JoinPairs, DEFAULT_BATCH_SIZE,
};
pub use cell::QualityCell;
pub use epoch::{EpochCell, Stamped};
pub use indicator::{IndicatorDef, IndicatorDictionary, IndicatorValue};
pub use predicate::{Predicate, ToPredicate};
pub use symbol::Symbol;
pub use view::{ColumnarView, ViewColumn, ViewSource};
pub use relation::{TaggedRelation, TaggedRow, TAG_SEP};
pub use store::{from_quality_store, to_quality_store, QualityStore, QKEY_SUFFIX};

#[cfg(test)]
mod proptests {
    //! Algebra laws of the engine's σ, π, ⋈ and γ, over tagged relations
    //! and over relations whose cells carry no tags; and the kernels
    //! against σ and ⋈ written longhand.
    use crate::algebra::tests::{filtered, gamma, join, nested_loop, pi, sigma};
    use crate::algebra::{distinct_merging, evaluate_mask};
    use crate::bitmap::tests::{index_scan, push, retag, swap_remove};
    use crate::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};
    use proptest::prelude::*;
    use relstore::algebra::{AggCall, AggFunc};
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

    /// Arbitrary relation over (k:Int, v:Int) whose cells carry no tags.
    fn arb_bare() -> impl Strategy<Value = TaggedRelation> {
        prop::collection::vec((0i64..50, 0i64..50), 0..40).prop_map(|rows| {
            let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            let rows = rows
                .into_iter()
                .map(|(k, v)| vec![QualityCell::bare(k), QualityCell::bare(v)])
                .collect();
            TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), rows).unwrap()
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


    /// Text literals for range predicates over `t` (`[a-d]{1,2}`) and
    /// `v@source` (`[a-c]`): below every pooled string, equal to one,
    /// between two, and above them all.
    const TEXT_LITS: [&str; 8] = ["", "a", "ab", "b", "bz", "c", "d", "e"];

    fn lit(i: usize) -> Expr {
        Expr::lit(TEXT_LITS[i % TEXT_LITS.len()])
    }

    fn between(e: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::Between(Box::new(e), Box::new(lo), Box::new(hi))
    }

    /// Arbitrary relation over (k:Int, v:Int, t:Text), v and t nullable,
    /// in the trading shape: every tagged cell of v has its own tag set
    /// (a `creation_time` Date tag, a `source` tag carrying an
    /// `inspection` meta-tag, an `age` tag), so no tag run spans two
    /// rows. Any tag may be absent; with `nulls`, every fourth row's
    /// `age` tag holds NULL, which makes `age`'s tag column `Mixed`.
    fn arb_tag_sets() -> impl Strategy<Value = TaggedRelation> {
        (
            prop::collection::vec(
                (
                    prop::option::of(0i64..20),
                    prop::option::of(0i64..40),
                    prop::option::of(("[a-c]", prop::option::of("[x-z]"))),
                    prop::option::of(0i64..30),
                    prop::option::of("[a-d]{1,2}"),
                ),
                0..30,
            ),
            prop::bool::ANY,
        )
            .prop_map(|(rows, nulls)| {
                let schema = Schema::of(&[
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("t", DataType::Text),
                ]);
                let rows = rows
                    .into_iter()
                    .enumerate()
                    .map(|(k, (v, day, src, age, t))| {
                        let mut cell = QualityCell::bare(v.map(Value::Int).unwrap_or(Value::Null));
                        if let Some(d) = day {
                            let day = relstore::Date::from_days(d);
                            cell.set_tag(IndicatorValue::new("creation_time", day));
                        }
                        if let Some((s, meta)) = src {
                            let mut tag = IndicatorValue::new("source", s);
                            if let Some(m) = meta {
                                tag = tag.with_meta(IndicatorValue::new("inspection", m));
                            }
                            cell.set_tag(tag);
                        }
                        match age {
                            _ if nulls && k % 4 == 0 => {
                                cell.set_tag(IndicatorValue::new("age", Value::Null))
                            }
                            Some(a) => cell.set_tag(IndicatorValue::new("age", a)),
                            None => {}
                        }
                        let t = QualityCell::bare(t.map(Value::Text).unwrap_or(Value::Null));
                        vec![QualityCell::bare(k as i64), cell, t]
                    })
                    .collect();
                TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), rows)
                    .unwrap()
            })
    }

    proptest! {
        /// Stripping commutes with selection on application values:
        /// strip(σ_p(R)) is the longhand filter of strip(R).
        #[test]
        fn strip_commutes_with_value_select(rel in arb_tagged(), c in 0i64..20) {
            let p = Expr::col("v").lt(Expr::lit(c));
            let lhs = sigma(&rel, &p).unwrap().strip().into_rows();
            let rhs: Vec<_> =
                rel.strip().into_rows().into_iter().filter(|r| r[1] < Value::Int(c)).collect();
            prop_assert_eq!(lhs, rhs);
        }

        /// Selection never invents or mutates tags: every output row
        /// appears identically in the input.
        #[test]
        fn select_preserves_rows_exactly(rel in arb_tagged(), c in 0i64..20) {
            let p = Expr::col("k").ge(Expr::lit(c));
            let out = sigma(&rel, &p).unwrap();
            for row in out.iter() {
                prop_assert!(rel.iter().any(|r| r == row));
            }
        }

        /// Quality selection is a restriction of value rows: filtering on
        /// `v@age` returns a sub-bag of the input.
        #[test]
        fn quality_select_is_restriction(rel in arb_tagged(), c in 0i64..30) {
            let p = Expr::col("v@age").le(Expr::lit(c));
            let out = sigma(&rel, &p).unwrap();
            prop_assert!(out.len() <= rel.len());
            // every surviving row really satisfies the constraint
            for row in out.iter() {
                match row[1].tag_value("age") {
                    Value::Int(a) => prop_assert!(a <= c),
                    other => prop_assert!(false, "untagged row survived: {other:?}"),
                }
            }
        }

        /// distinct_merging keeps the first of each run of equal values, in
        /// order (a longhand dedup of strip(R)), and is idempotent.
        #[test]
        fn distinct_merging_laws(rel in arb_tagged()) {
            let d = distinct_merging(&rel);
            let mut seen: Vec<Vec<Value>> = Vec::new();
            for row in rel.strip().into_rows() {
                if !seen.contains(&row) {
                    seen.push(row);
                }
            }
            prop_assert_eq!(d.strip().into_rows(), seen);
            prop_assert_eq!(distinct_merging(&d).len(), d.len());
        }

        /// Join tag propagation: strip(R ⋈ S) is the longhand nested-loop
        /// join of strip(R) and strip(S), row for row.
        #[test]
        fn strip_commutes_with_join(a in arb_tagged(), b in arb_tagged()) {
            let tagged = join(&a, &b, "k", "k").unwrap().strip().into_rows();
            let mut plain: Vec<Vec<Value>> = Vec::new();
            for l in a.strip().rows() {
                for r in b.strip().rows().iter().filter(|r| r[0] == l[0]) {
                    plain.push(l.iter().chain(r).cloned().collect());
                }
            }
            prop_assert_eq!(tagged, plain);
        }

        /// σ_p ∘ σ_p = σ_p (selection idempotence).
        #[test]
        fn selection_idempotent(rel in arb_bare(), c in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(c));
            let once = sigma(&rel, &p).unwrap();
            let twice = sigma(&once, &p).unwrap();
            prop_assert_eq!(once, twice);
        }

        /// Selections commute: σ_p(σ_q(R)) = σ_q(σ_p(R)).
        #[test]
        fn selections_commute(rel in arb_bare(), a in 0i64..50, b in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(a));
            let q = Expr::col("v").ge(Expr::lit(b));
            let pq = sigma(&sigma(&rel, &q).unwrap(), &p).unwrap();
            let qp = sigma(&sigma(&rel, &p).unwrap(), &q).unwrap();
            prop_assert_eq!(pq, qp);
        }

        /// |σ(R)| ≤ |R| and projection preserves cardinality.
        #[test]
        fn cardinality_laws(rel in arb_bare(), c in 0i64..50) {
            let p = Expr::col("k").eq(Expr::lit(c));
            prop_assert!(sigma(&rel, &p).unwrap().len() <= rel.len());
            prop_assert_eq!(pi(&rel, &["v"]).unwrap().len(), rel.len());
        }

        /// δ is idempotent and never grows the relation.
        #[test]
        fn distinct_laws(rel in arb_bare()) {
            let d = distinct_merging(&rel);
            prop_assert!(d.len() <= rel.len());
            prop_assert_eq!(distinct_merging(&d).len(), d.len());
        }

        /// SUM distributes over concatenation: SUM(A ++ B) = SUM(A) + SUM(B).
        #[test]
        fn sum_distributes_over_union(a in arb_bare(), b in arb_bare()) {
            let sum = |r: &TaggedRelation| -> i64 {
                let out = gamma(r, &[], &[AggCall::on(AggFunc::Sum, "v", "s")], &[]).unwrap();
                match out.rows()[0][0].value {
                    Value::Int(i) => i,
                    Value::Null => 0,
                    _ => unreachable!(),
                }
            };
            let mut both = a.clone();
            for row in b.rows() {
                both.push(row.clone()).unwrap();
            }
            prop_assert_eq!(sum(&both), sum(&a) + sum(&b));
        }

        /// Parallel execution is invisible: σ, π, and ⋈ produce identical
        /// results — same rows, same order — at thread counts 1, 2, and 8
        /// (the override forces the chunked path even on small inputs).
        #[test]
        fn parallel_equals_serial(l in arb_bare(), r in arb_bare(), c in 0i64..50) {
            let p = Expr::col("k").lt(Expr::lit(c));
            let run = || {
                (
                    sigma(&l, &p).unwrap(),
                    pi(&l, &["v", "k"]).unwrap(),
                    join(&l, &r, "k", "k").unwrap(),
                )
            };
            let serial = run();
            for threads in [1usize, 2, 8] {
                prop_assert_eq!(&relstore::par::with_thread_count(threads, run), &serial);
            }
        }

        /// Errors are deterministic under parallelism: the first failing
        /// row (modulo by zero) produces the same error at any thread
        /// count as in serial execution.
        #[test]
        fn parallel_error_matches_serial(rel in arb_bare()) {
            // v % k errors on rows where k == 0, so relations exercise
            // no-failure, sparse-failure, and first-row-failure cases.
            let p = Expr::Bin(
                Box::new(Expr::col("v")),
                relstore::expr::BinOp::Mod,
                Box::new(Expr::col("k")),
            )
            .eq(Expr::lit(0i64));
            let serial = sigma(&rel, &p).map_err(|e| e.to_string());
            for threads in [2usize, 8] {
                let par_out = relstore::par::with_thread_count(threads, || sigma(&rel, &p))
                    .map_err(|e| e.to_string());
                prop_assert_eq!(&par_out, &serial);
            }
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
            let sel = sigma(&a, &vp).unwrap();
            let qsel = sigma(&a, &qp).unwrap();
            let proj = pi(&a, &["v", "k"]).unwrap();
            let joined = join(&a, &b, "k", "k").unwrap();
            let mask = evaluate_mask(&a, &qp).unwrap();
            for threads in [1usize, 2, 8] {
                let (s, q, pj, j, m) = relstore::par::with_thread_count(threads, || {
                    (
                        sigma(&a, &vp).unwrap(),
                        sigma(&a, &qp).unwrap(),
                        pi(&a, &["v", "k"]).unwrap(),
                        join(&a, &b, "k", "k").unwrap(),
                        evaluate_mask(&a, &qp).unwrap(),
                    )
                });
                prop_assert_eq!(&s, &sel);
                prop_assert_eq!(&q, &qsel);
                prop_assert_eq!(&pj, &proj);
                prop_assert_eq!(&j, &joined);
                prop_assert_eq!(&m, &mask);
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

        /// Bitmap-indexed selection ≡ σ written longhand — identical
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
                let scan = filtered(&rel, p).unwrap();
                for threads in [1usize, 2, 8] {
                    let fast = relstore::par::with_thread_count(threads, || {
                        index_scan(&rel, &idx, p)
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

        /// After arbitrary retagging, with the index retagged beside the
        /// relation, the maintained index still answers selections
        /// identically to a scan of the mutated relation.
        #[test]
        fn bitmap_retag_stays_consistent(
            mut rel in arb_tagged(),
            row in 0usize..30,
            a in 0i64..30,
            c in 0i64..30,
        ) {
            let mut idx = crate::bitmap::QualityIndex::build(&rel);
            if !rel.is_empty() {
                let row = row % rel.len();
                retag(&mut rel, &mut idx, row, "v", IndicatorValue::new("age", a));
            }
            let p = Expr::col("v@age").le(Expr::lit(c));
            prop_assert_eq!(index_scan(&rel, &idx, &p), filtered(&rel, &p).unwrap());
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
            let mut rel = rel;
            let mut idx = crate::bitmap::QualityIndex::build(&rel);
            for (op, k, a, src, at) in ops {
                match op {
                    0 => {
                        let mut cell = QualityCell::bare(k + a);
                        cell.set_tag(IndicatorValue::new("source", src));
                        cell.set_tag(IndicatorValue::new("age", a));
                        push(&mut rel, &mut idx, vec![QualityCell::bare(k), cell]);
                    }
                    1 if !rel.is_empty() => {
                        let at = at % rel.len();
                        swap_remove(&mut rel, &mut idx, at).unwrap();
                    }
                    2 if !rel.is_empty() => {
                        let at = at % rel.len();
                        retag(&mut rel, &mut idx, at, "v", IndicatorValue::new("age", a));
                    }
                    3 if !rel.is_empty() => {
                        let at = at % rel.len();
                        retag(&mut rel, &mut idx, at, "v", IndicatorValue::new("source", src));
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(idx.rows(), rel.len());
            let rebuilt = crate::bitmap::QualityIndex::build(&rel);
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
                let scan = filtered(&rel, p).unwrap();
                for threads in [1usize, 2, 8] {
                    let inc = relstore::par::with_thread_count(threads, || {
                        index_scan(&rel, &idx, p)
                    });
                    let reb = relstore::par::with_thread_count(threads, || {
                        index_scan(&rel, &rebuilt, p)
                    });
                    prop_assert_eq!(&inc, &scan);
                    prop_assert_eq!(&reb, &scan);
                }
                // Both indexes agree on estimates, which stay finite in
                // [0, 1] after arbitrary mutation.
                let bound = crate::Predicate::bind(rel.schema(), rel.dictionary(), p).unwrap();
                let atoms = bound.atoms();
                if !atoms.is_empty() {
                    let ei = idx.estimate(atoms);
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
                    let before = relstore::par::with_thread_count(threads, || {
                        index_scan(&rel, &original, p)
                    });
                    prop_assert_eq!(&before, &filtered(&rel, p).unwrap());
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
        /// predicates, indexed and unindexed) over the columnar layout
        /// selects the rows σ written longhand keeps, row at a time, at
        /// batch sizes 1, 7, and 1024 and at thread counts 1, 2, and 8 —
        /// over nullable columns.
        #[test]
        fn columnar_equals_row_at_a_time(
            a in arb_nullable(),
            c in 0i64..30,
            s in "[a-c]",
            l in 0usize..8,
        ) {
            use crate::columnar::*;
            use crate::Bitset;
            let vp = Expr::col("v").lt(Expr::lit(c));
            let qp = Expr::col("v@age")
                .le(Expr::lit(c))
                .and(Expr::col("v@source").ne(Expr::lit(s)));
            let tp = Expr::col("t").ge(Expr::lit("b"));
            let idx = crate::bitmap::QualityIndex::build(&a);
            let ca = ColumnarRelation::from_tagged(&a);
            let sel_v = filtered(&a, &vp).unwrap();
            let sel_q = filtered(&a, &qp).unwrap();
            let sel_t = filtered(&a, &tp).unwrap();
            let gathered = |sel: Bitset| ca.gather(&sel);
            for threads in [1usize, 2, 8] {
                for bs in [1usize, 7, 1024] {
                    let (v, q, qi, t) = relstore::par::with_thread_count(threads, || {
                        (
                            selection_columnar(&ca, &vp, bs).unwrap().0,
                            selection_columnar(&ca, &qp, bs).unwrap().0,
                            selection_indexed_columnar(&ca, &idx, &qp, bs).unwrap().0,
                            selection_columnar(&ca, &tp, bs).unwrap().0,
                        )
                    });
                    prop_assert_eq!(&gathered(v), &sel_v);
                    prop_assert_eq!(&gathered(q), &sel_q);
                    prop_assert_eq!(&gathered(qi), &sel_q);
                    prop_assert_eq!(&gathered(t), &sel_t);
                }
            }
            // Text ranges on a column and on a tag, the literal below,
            // equal to, between or above the pooled strings
            let ranges = [
                Expr::col("t").lt(lit(l)),
                Expr::col("t").le(lit(l)),
                Expr::col("t").gt(lit(l)),
                between(Expr::col("t"), lit(l), lit(l + 3)),
                Expr::col("v@source").ge(lit(l)),
                Expr::col("v@source").lt(lit(l)),
                between(Expr::col("v@source"), lit(l), lit(l + 2)),
            ];
            for p in &ranges {
                let want = filtered(&a, p).unwrap();
                for threads in [1usize, 2, 8] {
                    for bs in [1usize, 7, 1024] {
                        let (scan, indexed) = relstore::par::with_thread_count(threads, || {
                            (
                                selection_columnar(&ca, p, bs).unwrap().0,
                                selection_indexed_columnar(&ca, &idx, p, bs).unwrap().0,
                            )
                        });
                        prop_assert_eq!(&gathered(scan), &want);
                        prop_assert_eq!(&gathered(indexed), &want);
                    }
                }
            }
        }

        /// σ over tag columns is the row verdict: on the trading shape
        /// (one tag set per row), with absent and NULL-valued tags, a
        /// meta-tag path, `BETWEEN` on a Date tag, Text ranges on a tag
        /// and on a column, and an atom, then a residual, then a faulting
        /// `v / 0 = 1` — the columnar σ indexed and unindexed selects the
        /// rows [`crate::Predicate::matches`] keeps, or fails with its
        /// error, at 1, 2, and 8 threads and batch sizes 1, 7, and 1024.
        #[test]
        fn tag_columns_match_the_row_verdict(
            a in arb_tag_sets(),
            c in 0i64..30,
            s in "[a-c]",
            m in "[x-z]",
            d in 0i64..40,
            l in 0usize..8,
        ) {
            use crate::columnar::*;
            use crate::Predicate;
            let date = |d: i64| Expr::Lit(Value::Date(relstore::Date::from_days(d)));
            let fault = Expr::Bin(
                Box::new(Expr::col("v")),
                relstore::expr::BinOp::Div,
                Box::new(Expr::lit(0i64)),
            )
            .eq(Expr::lit(1i64));
            let preds = [
                Expr::col("v@age").le(Expr::lit(c)),
                Expr::col("v@source@inspection").eq(Expr::lit(m.as_str())),
                Expr::col("v@source@inspection").ne(Expr::lit(m.as_str())),
                between(Expr::col("v@creation_time"), date(d), date(d + 10)),
                Expr::col("v@creation_time").gt(date(d)),
                Expr::col("v@source").ge(lit(l)),
                between(Expr::col("v@source"), lit(l), lit(l + 3)),
                Expr::col("t").lt(lit(l)),
                between(Expr::col("t"), lit(l), lit(l + 2)),
                Expr::col("v@age")
                    .le(Expr::lit(c))
                    .and(Expr::col("v@source@inspection").eq(Expr::lit(m.as_str())))
                    .and(fault.clone()),
                Expr::col("v@source")
                    .eq(Expr::lit(s.as_str()))
                    .and(Expr::col("t").ge(lit(l)))
                    .and(Expr::col("v@age").ge(Expr::lit(c)))
                    .and(Expr::col("v@creation_time").le(date(d))),
                fault.clone().and(Expr::col("v@age").le(Expr::lit(c))),
            ];
            let idx = crate::bitmap::QualityIndex::build(&a);
            let ca = ColumnarRelation::from_tagged(&a);
            for e in &preds {
                let p = Predicate::bind(a.schema(), a.dictionary(), e).unwrap();
                let verdict: Result<Vec<_>, String> = a
                    .iter()
                    .filter_map(|row| match p.matches(row) {
                        Ok(keep) => keep.then(|| Ok(row.clone())),
                        Err(err) => Some(Err(err.to_string())),
                    })
                    .collect();
                let gathered = |r: relstore::DbResult<crate::Bitset>| -> Result<Vec<_>, String> {
                    r.map(|sel| ca.gather(&sel).rows().to_vec())
                        .map_err(|err| err.to_string())
                };
                for threads in [1usize, 2, 8] {
                    for bs in [1usize, 7, 1024] {
                        let (scan, indexed) = relstore::par::with_thread_count(threads, || {
                            (
                                gathered(selection_columnar(&ca, &p, bs).map(|r| r.0)),
                                gathered(selection_indexed_columnar(&ca, &idx, &p, bs).map(|r| r.0)),
                            )
                        });
                        let at = format!("{e} at {threads} threads, batch {bs}");
                        prop_assert!(scan == verdict, "scan {scan:?} != {verdict:?}: {at}");
                        prop_assert!(indexed == verdict, "indexed {indexed:?} != {verdict:?}: {at}");
                    }
                }
            }
        }

        /// A clone shares every row with its original, and tagging cells
        /// of the clone deep-copies exactly the rows it tags: the original
        /// stays equal to a deep copy taken beforehand, the clone equals
        /// that copy tagged cell by cell, and only tagged rows stop being
        /// the same allocation. Rows are tagged twice and cells re-tagged.
        #[test]
        fn shared_rows_copy_on_write(
            rel in arb_tagged(),
            ops in prop::collection::vec(
                (0usize..64, any::<bool>(), prop::option::of("[a-c]"), 0i64..30),
                0..12,
            ),
        ) {
            let deep = |r: &TaggedRelation| -> Vec<Vec<QualityCell>> {
                r.iter().map(|row| row.to_vec()).collect()
            };
            let before = deep(&rel);
            let (mut clone, mut longhand) = (rel.clone(), before.clone());
            let mut tagged = std::collections::HashSet::new();
            for (at, on_k, src, age) in ops.into_iter().filter(|_| !rel.is_empty()) {
                let row = at % rel.len();
                let (column, ci) = if on_k { ("k", 0) } else { ("v", 1) };
                let tag = match src {
                    Some(s) => IndicatorValue::new("source", s),
                    None => IndicatorValue::new("age", age),
                };
                clone.tag_cell(row, column, tag.clone()).unwrap();
                longhand[row][ci].set_tag(tag);
                tagged.insert(row);
            }
            prop_assert_eq!(deep(&rel), before);
            prop_assert_eq!(deep(&clone), longhand);
            for (i, (a, b)) in rel.iter().zip(clone.iter()).enumerate() {
                prop_assert_eq!((i, std::sync::Arc::ptr_eq(a, b)), (i, !tagged.contains(&i)));
            }
        }

        /// The pair kernel plus its gather is the nested-loop join of the
        /// gathered inputs: on a nullable Int key with duplicates on both
        /// sides and on a nullable Text key whose two sides' string pools
        /// differ, each side whole or a σ's selection, the right side
        /// hashed from its selection or (whole) probed through a prebuilt
        /// index — at batch sizes 1, 7, and 1024 and 1, 2, and 8 threads.
        #[test]
        fn join_pairs_equal_hash_join(
            a in arb_nullable(),
            b in arb_nullable(),
            c in 0i64..30,
            narrow in prop::bool::ANY,
        ) {
            use crate::columnar::*;
            use crate::Bitset;
            use std::sync::Arc;
            let (ca, cb) = (
                Arc::new(ColumnarRelation::from_tagged(&a)),
                Arc::new(ColumnarRelation::from_tagged(&b)),
            );
            let (lsel, rsel) = if narrow {
                (
                    selection_columnar(&ca, &Expr::col("v@age").le(Expr::lit(c)), 7).unwrap().0,
                    selection_columnar(&cb, &Expr::col("k").ge(Expr::lit(c / 3)), 7).unwrap().0,
                )
            } else {
                (Bitset::full(ca.len()), Bitset::full(cb.len()))
            };
            let (l, r) = (ca.gather(&lsel), cb.gather(&rsel));
            for key in ["v", "t"] {
                let join = nested_loop(&l, &r, key, key).unwrap();
                let ri = b.schema().resolve(key).unwrap();
                let mut prebuilt = relstore::index::HashIndex::new(vec![0]);
                prebuilt.rebuild(&b.iter().map(|row| vec![row[ri].value.clone()]).collect::<Vec<_>>());
                let hashed = cb.key_index(key, &rsel).unwrap();
                let indexes = if narrow { vec![&hashed] } else { vec![&hashed, &prebuilt] };
                for (index, threads) in indexes.into_iter().flat_map(|i| [(i, 1usize), (i, 2), (i, 8)]) {
                    for bs in [1usize, 7, 1024] {
                        let (pairs, stats) = relstore::par::with_thread_count(threads, || {
                            JoinPairs::probe(
                                Arc::clone(&ca), &lsel, key, Arc::clone(&cb), key, index, bs,
                            )
                            .unwrap()
                        });
                        prop_assert_eq!(&pairs.gather(), &join);
                        prop_assert_eq!(stats.rows_out, join.len());
                    }
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
