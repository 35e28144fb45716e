//! The row operators over [`TaggedRelation`]s that remain, and the tag
//! rules γ derives with. σ, π, ⋈ and γ run the columnar kernels; four
//! row operators serve paths the columnar layout does not reach yet:
//!
//! * [`evaluate_mask`] and [`evaluate_at`] — `TAG`'s `WHERE` mask and
//!   `SET` values, until every conjunct runs typed (ROADMAP item 5);
//! * [`select_at`] — a keyed lookup's rows, until the resident table is
//!   its columnar layout (item 3);
//! * [`distinct_merging`] — δ, until Distinct hashes positions (item 4).
//!
//! γ's output cells get tags *derived* from the input group under a
//! [`TagPolicy`] (a SUM's `creation_time` is the *oldest* input creation
//! time — conservative staleness); [`derive_age`] derives `age`.

use crate::indicator::IndicatorValue;
use crate::predicate::ToPredicate;
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use relstore::{par, Date, DbError, DbResult, Row, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Evaluates an expression (which may reference `col@indicator` and
/// nested `col@ind@meta` pseudo-columns) on the rows at `ids`, returning
/// the results in `ids` order. This is the building block for
/// retro-tagging (`TAG ... SET`) and derived indicators: rows outside
/// `ids` are never looked at, so an expression that fails on a row the
/// statement's `WHERE` rejects does not fail the statement. Bound once
/// (an unknown column errors even for empty `ids`), evaluated in
/// parallel chunks of the id list on large inputs.
pub fn evaluate_at(
    rel: &TaggedRelation,
    ids: &[usize],
    expr: &impl ToPredicate,
) -> DbResult<Vec<Value>> {
    let bound = expr.to_predicate(rel.schema(), rel.dictionary())?;
    let eval_chunk = |chunk: &[usize]| -> DbResult<Vec<Value>> {
        chunk.iter().map(|&id| bound.eval(row_at(rel, id)?)).collect()
    };
    match par::plan(ids.len()) {
        Some(threads) => par::merge_results(par::run_chunked(ids, threads, |_, c| eval_chunk(c))),
        None => eval_chunk(ids),
    }
}

/// The row at `id`, as an error when a caller's id list is out of range.
fn row_at(rel: &TaggedRelation, id: usize) -> DbResult<&TaggedRow> {
    rel.rows()
        .get(id)
        .ok_or_else(|| DbError::InvalidExpression(format!("row index {id} out of range")))
}

/// Evaluates `predicate` once per row as a boolean mask in row order
/// (NULL counts as `false`, matching predicate semantics).
pub fn evaluate_mask(rel: &TaggedRelation, predicate: &impl ToPredicate) -> DbResult<Vec<bool>> {
    let bound = predicate.to_predicate(rel.schema(), rel.dictionary())?;
    let mask_chunk = |chunk: &[TaggedRow]| -> DbResult<Vec<bool>> {
        chunk.iter().map(|row| bound.matches(row)).collect()
    };
    match par::plan(rel.len()) {
        Some(threads) => {
            par::merge_results(par::run_chunked(rel.rows(), threads, |_, c| mask_chunk(c)))
        }
        None => mask_chunk(rel.rows()),
    }
}

/// σ over an explicit ascending row-id list: gathers the rows at `ids`,
/// e.g. those a keyed lookup kept. Chunks over the id list itself, so
/// the parallel win scales with the *surviving* rows, not the relation —
/// and chunk-order merging keeps the output byte-identical to a serial
/// gather.
pub fn select_at(rel: &TaggedRelation, ids: &[usize]) -> DbResult<TaggedRelation> {
    let gather_chunk = |chunk: &[usize]| -> DbResult<Vec<TaggedRow>> {
        chunk.iter().map(|&id| row_at(rel, id).cloned()).collect()
    };
    let rows = match par::plan(ids.len()) {
        Some(threads) => {
            par::merge_results(par::run_chunked(ids, threads, |_, c| gather_chunk(c)))?
        }
        None => gather_chunk(ids)?,
    };
    Ok(TaggedRelation::from_parts_unchecked(
        rel.schema().clone(),
        rel.dictionary().clone(),
        rows,
    ))
}

/// δ over application values: rows with equal *values* collapse to one row
/// whose cell tags are the merge of the duplicates' tags. A tag two
/// duplicates disagree on drops for good, whatever a later duplicate
/// carries: ambiguous provenance is not invented.
pub fn distinct_merging(rel: &TaggedRelation) -> TaggedRelation {
    let mut index: HashMap<Row, usize> = HashMap::new();
    let mut out: Vec<TaggedRow> = Vec::new();
    // (output row, column, indicator) some duplicates disagreed on
    let mut disputed: HashSet<(usize, usize, Symbol)> = HashSet::new();
    for row in rel.iter() {
        let key: Row = row.iter().map(|c| c.value.clone()).collect();
        match index.get(&key) {
            Some(&pos) => {
                let merged = Arc::make_mut(&mut out[pos]).iter_mut();
                for (c, (mine, theirs)) in merged.zip(row.iter()).enumerate() {
                    for t in theirs.tags() {
                        if mine.tag_sym(&t.indicator).is_some_and(|m| m != t) {
                            disputed.insert((pos, c, t.indicator.clone()));
                        }
                    }
                    mine.merge_tags_from(theirs);
                    for t in theirs.tags() {
                        if disputed.contains(&(pos, c, t.indicator.clone())) {
                            mine.remove_tag(&t.indicator);
                        }
                    }
                }
            }
            None => {
                index.insert(key, out.len());
                out.push(row.clone());
            }
        }
    }
    TaggedRelation::from_parts_unchecked(rel.schema().clone(), rel.dictionary().clone(), out)
}

/// How an aggregate output cell derives one indicator from its input group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagRule {
    /// Minimum input tag value — e.g. oldest `creation_time`, the
    /// conservative staleness of a derived datum.
    Min,
    /// Maximum input tag value — e.g. the most recent inspection.
    Max,
    /// Keep only if all inputs agree; drop otherwise.
    Unanimous,
    /// Distinct text values joined with `+` — e.g. `source=sales+Nexis`
    /// for a figure computed from two departments' data.
    MergeText,
}

/// One derivation: apply `rule` to indicator `indicator` of the input
/// cells feeding each aggregate.
#[derive(Debug, Clone)]
pub struct TagPolicy {
    /// The indicator to derive.
    pub indicator: Symbol,
    /// The derivation rule.
    pub rule: TagRule,
}

impl TagPolicy {
    /// Shorthand constructor.
    pub fn new(indicator: impl Into<Symbol>, rule: TagRule) -> Self {
        TagPolicy {
            indicator: indicator.into(),
            rule,
        }
    }
}

/// Derives the `age` indicator (in days) from `creation_time` for every
/// tagged cell of `column` — the paper's Step-4 example of indicator
/// derivability: "age can be computed given current time and creation
/// time".
pub fn derive_age(rel: &mut TaggedRelation, column: &str, now: Date) -> DbResult<usize> {
    let mut derived = 0;
    for row in 0..rel.len() {
        let created = rel.cell(row, column)?.tag_value("creation_time");
        if let Value::Date(d) = created {
            rel.tag_cell(
                row,
                column,
                IndicatorValue::new("age", Value::Int(now.days_between(&d))),
            )?;
            derived += 1;
        }
    }
    Ok(derived)
}

#[cfg(test)]
pub(crate) mod tests {
    //! σ, π, ⋈ and γ over tagged relations as the engine runs them (the
    //! columnar kernels, through [`sigma`], [`pi`], [`join`] and
    //! [`gamma`]), the row operators that remain, and the longhand σ and
    //! ⋈ ([`filtered`], [`nested_loop`]) this crate's tests compare the
    //! kernels against.
    use super::*;
    use crate::cell::QualityCell;
    use crate::columnar::{selection_columnar, ColumnarRelation, JoinPairs, DEFAULT_BATCH_SIZE};
    use crate::indicator::IndicatorDictionary;
    use crate::view::{ColumnarView, ViewSource};
    use crate::Bitset;
    use relstore::algebra::{AggCall, AggFunc};
    use relstore::{DataType, Expr, Schema};

    /// σ as a resident table runs it: the columnar kernels over its
    /// layout, then the gather.
    pub(crate) fn sigma(rel: &TaggedRelation, p: &Expr) -> DbResult<TaggedRelation> {
        let crel = ColumnarRelation::from_tagged(rel);
        let (sel, _) = selection_columnar(&crel, p, DEFAULT_BATCH_SIZE)?;
        Ok(crel.gather(&sel))
    }

    /// π as a resident table runs it: a view of `columns`, gathered.
    pub(crate) fn pi(rel: &TaggedRelation, columns: &[&str]) -> DbResult<TaggedRelation> {
        let crel = Arc::new(ColumnarRelation::from_tagged(rel));
        let all = Bitset::full(crel.len());
        let columns: Vec<(String, String)> =
            columns.iter().map(|c| (c.to_string(), c.to_string())).collect();
        Ok(ColumnarView::project(ViewSource::Selected(crel, all), &columns)?.gather())
    }

    /// ⋈ as the engine runs it: the pair kernel probing the right side's
    /// key index with the left side's keys, then the gather.
    pub(crate) fn join(
        left: &TaggedRelation,
        right: &TaggedRelation,
        left_key: &str,
        right_key: &str,
    ) -> DbResult<TaggedRelation> {
        let l = Arc::new(ColumnarRelation::from_tagged(left));
        let r = Arc::new(ColumnarRelation::from_tagged(right));
        let index = r.key_index(right_key, &Bitset::full(r.len()))?;
        let all = Bitset::full(l.len());
        let (pairs, _) =
            JoinPairs::probe(l, &all, left_key, r, right_key, &index, DEFAULT_BATCH_SIZE)?;
        Ok(pairs.gather())
    }

    /// γ as the engine runs it over rows it lifts: the γ kernel over the
    /// relation's layout.
    pub(crate) fn gamma(
        rel: &TaggedRelation,
        group_by: &[&str],
        aggs: &[AggCall],
        policies: &[TagPolicy],
    ) -> DbResult<TaggedRelation> {
        let crel = ColumnarRelation::from_tagged(rel);
        crel.aggregate(&Bitset::full(crel.len()), group_by, aggs, policies)
    }

    /// σ longhand: the rows [`crate::Predicate::matches`] keeps, in
    /// order, or the first row's error.
    pub(crate) fn filtered(
        rel: &TaggedRelation,
        p: &impl ToPredicate,
    ) -> DbResult<TaggedRelation> {
        let p = p.to_predicate(rel.schema(), rel.dictionary())?;
        let mut rows = Vec::new();
        for row in rel.iter() {
            if p.matches(row)? {
                rows.push(row.clone());
            }
        }
        let (schema, dict) = (rel.schema().clone(), rel.dictionary().clone());
        Ok(TaggedRelation::from_parts_unchecked(schema, dict, rows))
    }

    /// ⋈ longhand: each left row in turn meets every right row with an
    /// equal key; a NULL key meets none.
    pub(crate) fn nested_loop(
        left: &TaggedRelation,
        right: &TaggedRelation,
        left_key: &str,
        right_key: &str,
    ) -> DbResult<TaggedRelation> {
        let (li, ri) = (left.schema().resolve(left_key)?, right.schema().resolve(right_key)?);
        let schema = left.schema().join(right.schema(), "l", "r")?;
        let mut rows = Vec::new();
        for l in left.iter().filter(|l| !l[li].value.is_null()) {
            for r in right.iter().filter(|r| r[ri].value == l[li].value) {
                rows.push(l.iter().chain(r.iter()).cloned().collect());
            }
        }
        let dict = left.dictionary().clone();
        Ok(TaggedRelation::from_parts_unchecked(schema, dict, rows))
    }

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    /// Trading-style tagged relation: price cells tagged with
    /// creation_time + source.
    fn prices() -> TaggedRelation {
        let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mk = |t: &str, p: f64, ct: &str, src: &str| {
            vec![
                QualityCell::bare(t),
                QualityCell::bare(p)
                    .with_tag(IndicatorValue::new("creation_time", d(ct)))
                    .with_tag(IndicatorValue::new("source", src)),
            ]
        };
        TaggedRelation::new(
            schema,
            dict,
            vec![
                mk("FRT", 10.0, "10-1-91", "NYSE feed"),
                mk("NUT", 20.0, "10-20-91", "NYSE feed"),
                mk("BLT", 30.0, "9-1-91", "manual entry"),
            ],
        )
        .unwrap()
    }

    /// A relation of bare cells from plain rows.
    fn bare(cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> TaggedRelation {
        let row = |r: Vec<Value>| r.into_iter().map(QualityCell::bare).collect::<TaggedRow>();
        let rows = rows.into_iter().map(row);
        TaggedRelation::new(
            Schema::of(cols),
            IndicatorDictionary::with_paper_defaults(),
            rows.collect(),
        )
        .unwrap()
    }

    fn customers() -> TaggedRelation {
        let cols = [
            ("co_name", DataType::Text),
            ("address", DataType::Text),
            ("employees", DataType::Int),
        ];
        bare(
            &cols,
            vec![
                vec![Value::text("Fruit Co"), Value::text("12 Jay St"), Value::Int(4004)],
                vec![Value::text("Nut Co"), Value::text("62 Lois Av"), Value::Int(700)],
                vec![Value::text("Bolt Co"), Value::Null, Value::Int(120)],
            ],
        )
    }

    #[test]
    fn select_filters() {
        let r = sigma(&customers(), &Expr::col("employees").gt(Expr::lit(500i64))).unwrap();
        assert_eq!(r.len(), 2);
        // NULL address row: predicate on address drops it (3VL)
        let r = sigma(&customers(), &Expr::col("address").eq(Expr::lit("12 Jay St"))).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_empty_result() {
        let r = sigma(&customers(), &Expr::lit(false)).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.schema().arity(), 3);
    }

    #[test]
    fn project_reorders() {
        let r = pi(&customers(), &["employees", "co_name"]).unwrap();
        assert_eq!(r.schema().names(), vec!["employees", "co_name"]);
        assert_eq!(r.rows()[0][0].value, Value::Int(4004));
        assert!(pi(&customers(), &["bogus"]).is_err());
    }

    /// `trades(ticker, qty)` with a ticker no stock has and a NULL one.
    fn trades() -> TaggedRelation {
        let t = |s: &str| Value::text(s);
        bare(
            &[("ticker", DataType::Text), ("qty", DataType::Int)],
            vec![
                vec![t("FRT"), Value::Int(100)],
                vec![t("FRT"), Value::Int(50)],
                vec![t("NUT"), Value::Int(10)],
                vec![t("ZZZ"), Value::Int(1)],
                vec![Value::Null, Value::Int(7)],
            ],
        )
    }

    #[test]
    fn hash_join_basic() {
        let j = join(&trades(), &prices(), "ticker", "ticker").unwrap();
        assert_eq!(j.len(), 3); // FRT×2 + NUT×1; ZZZ and NULL drop
        assert_eq!(j.schema().names(), vec!["l.ticker", "qty", "r.ticker", "price"]);
    }

    #[test]
    fn null_keys_never_match() {
        let mut stocks = prices();
        stocks.push(vec![QualityCell::bare(Value::Null), QualityCell::bare(99.0)]).unwrap();
        let j = join(&stocks, &trades(), "ticker", "ticker").unwrap();
        assert_eq!(j.len(), 3);
        assert!(j.iter().all(|r| !r[0].value.is_null()));
    }

    #[test]
    fn unknown_key_errors() {
        assert!(join(&trades(), &prices(), "bogus", "ticker").is_err());
    }

    #[test]
    fn distinct_preserves_order() {
        let ns = [3, 1, 3, 2, 1].map(|n| vec![Value::Int(n)]);
        let d = distinct_merging(&bare(&[("n", DataType::Int)], ns.to_vec()));
        let got: Vec<&Value> = d.iter().map(|r| &r[0].value).collect();
        assert_eq!(got, [&Value::Int(3), &Value::Int(1), &Value::Int(2)]);
    }

    #[test]
    fn null_rows_participate() {
        let a = bare(&[("n", DataType::Int)], vec![vec![Value::Null], vec![Value::Null]]);
        // whole-row δ treats NULL = NULL (SQL DISTINCT-style grouping)
        assert_eq!(distinct_merging(&a).len(), 1);
    }

    #[test]
    fn select_on_values_preserves_tags() {
        let r = sigma(&prices(), &Expr::col("price").gt(Expr::lit(15.0))).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.cell(0, "price").unwrap().tag_value("source"),
            Value::text("NYSE feed")
        );
    }

    #[test]
    fn select_on_quality_pseudo_columns() {
        // the paper's headline capability: filter by tag at query time
        let p = Expr::col("price@source").eq(Expr::lit("NYSE feed"));
        let r = sigma(&prices(), &p).unwrap();
        assert_eq!(r.len(), 2);
        // freshness constraint
        let p = Expr::col("price@creation_time").ge(Expr::lit(d("10-10-91")));
        let r = sigma(&prices(), &p).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "ticker").unwrap().value, Value::text("NUT"));
    }

    #[test]
    fn untagged_cells_fail_quality_predicates() {
        let mut rel = prices();
        // add an untagged row
        rel.push(vec![QualityCell::bare("ZZZ"), QualityCell::bare(5.0)])
            .unwrap();
        let p = Expr::col("price@source").eq(Expr::lit("NYSE feed"));
        let r = sigma(&rel, &p).unwrap();
        assert_eq!(r.len(), 2); // untagged row dropped, not matched
                                // negated predicate also drops it (NULL ≠ true)
        let p = Expr::col("price@source").ne(Expr::lit("NYSE feed"));
        let r = sigma(&rel, &p).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn mixed_value_and_quality_predicate() {
        let p = Expr::col("price")
            .gt(Expr::lit(5.0))
            .and(Expr::col("price@source").ne(Expr::lit("manual entry")));
        let r = sigma(&prices(), &p).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_on_meta_tags_premise_1_4() {
        // tag the source tag itself with its own creation_time
        let rel = prices();
        let mut dict_rel = rel.clone();
        for row in 0..rel.len() {
            let src = rel.cell(row, "price").unwrap().tag("source").unwrap().clone();
            let stamped = src.with_meta(IndicatorValue::new(
                "creation_time",
                d(if row == 0 { "10-23-91" } else { "1-1-90" }),
            ));
            dict_rel.tag_cell(row, "price", stamped).unwrap();
        }
        // filter on the quality of the quality: sources recorded in 1991
        let p = Expr::col("price@source@creation_time").ge(Expr::lit(d("1-1-91")));
        let r = sigma(&dict_rel, &p).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "ticker").unwrap().value, Value::text("FRT"));
        // rows whose source tag lacks the meta tag never match
        let p = Expr::col("price@source@inspection").eq(Expr::lit("x"));
        assert!(sigma(&dict_rel, &p).unwrap().is_empty());
    }

    #[test]
    fn unknown_pseudo_column_errors() {
        let p = Expr::col("ghost@source").eq(Expr::lit("x"));
        assert!(sigma(&prices(), &p).is_err());
        let p = Expr::col("nosuchcolumn").eq(Expr::lit("x"));
        assert!(sigma(&prices(), &p).is_err());
    }

    #[test]
    fn project_carries_tags() {
        let r = pi(&prices(), &["price"]).unwrap();
        assert_eq!(r.schema().names(), vec!["price"]);
        assert_eq!(
            r.cell(2, "price").unwrap().tag_value("source"),
            Value::text("manual entry")
        );
    }

    #[test]
    fn join_propagates_tags_from_both_sides() {
        let schema = Schema::of(&[("ticker", DataType::Text), ("qty", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let trades = TaggedRelation::new(
            schema,
            dict,
            vec![vec![
                QualityCell::bare("FRT").with_tag(IndicatorValue::new("source", "order desk")),
                QualityCell::bare(100i64),
            ]],
        )
        .unwrap();
        let j = join(&trades, &prices(), "ticker", "ticker").unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(
            j.cell(0, "l.ticker").unwrap().tag_value("source"),
            Value::text("order desk")
        );
        assert_eq!(
            j.cell(0, "price").unwrap().tag_value("source"),
            Value::text("NYSE feed")
        );
    }

    #[test]
    fn select_at_gathers_and_filters() {
        let rel = prices();
        let r = select_at(&rel, &[0, 2]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(1, "ticker").unwrap().value, Value::text("BLT"));
        assert_eq!(r.rows(), [rel.rows()[0].clone(), rel.rows()[2].clone()]);
        assert!(select_at(&rel, &[]).unwrap().is_empty());
        assert!(select_at(&rel, &[99]).is_err());
    }

    #[test]
    fn distinct_merges_duplicate_rows() {
        let a = prices();
        let mut rows = a.rows().to_vec();
        rows.extend(prices().rows().iter().cloned());
        let u = TaggedRelation::new(a.schema().clone(), a.dictionary().clone(), rows).unwrap();
        assert_eq!(u.len(), 6);
        let dd = distinct_merging(&u);
        assert_eq!(dd.len(), 3);
        // identical tags merge losslessly
        assert_eq!(
            dd.cell(0, "price").unwrap().tag_value("source"),
            Value::text("NYSE feed")
        );
    }

    #[test]
    fn distinct_merging_drops_conflicts() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rel = TaggedRelation::new(
            schema,
            dict,
            vec![
                vec![QualityCell::bare(1i64).with_tag(IndicatorValue::new("source", "a"))],
                vec![QualityCell::bare(1i64).with_tag(IndicatorValue::new("source", "b"))],
                // a third duplicate siding with the first does not settle it
                vec![QualityCell::bare(1i64).with_tag(IndicatorValue::new("source", "a"))],
            ],
        )
        .unwrap();
        let dd = distinct_merging(&rel);
        assert_eq!(dd.len(), 1);
        assert_eq!(dd.cell(0, "x").unwrap().tag_value("source"), Value::Null);
    }

    #[test]
    fn aggregate_derives_tags() {
        let out = gamma(
            &prices(),
            &[],
            &[AggCall::on(AggFunc::Sum, "price", "total")],
            &[
                TagPolicy::new("creation_time", TagRule::Min),
                TagPolicy::new("source", TagRule::MergeText),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let cell = out.cell(0, "total").unwrap();
        assert_eq!(cell.value, Value::Float(60.0));
        // oldest input creation time
        assert_eq!(cell.tag_value("creation_time"), d("9-1-91"));
        // merged sources
        assert_eq!(
            cell.tag_value("source"),
            Value::text("NYSE feed+manual entry")
        );
    }

    #[test]
    fn aggregate_group_keys_intersect_tags() {
        let schema = Schema::of(&[("k", DataType::Text), ("v", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rel = TaggedRelation::new(
            schema,
            dict,
            vec![
                vec![
                    QualityCell::bare("a").with_tag(IndicatorValue::new("source", "s1")),
                    QualityCell::bare(1i64),
                ],
                vec![
                    QualityCell::bare("a").with_tag(IndicatorValue::new("source", "s1")),
                    QualityCell::bare(2i64),
                ],
                vec![
                    QualityCell::bare("b").with_tag(IndicatorValue::new("source", "s2")),
                    QualityCell::bare(3i64),
                ],
            ],
        )
        .unwrap();
        let out = gamma(
            &rel,
            &["k"],
            &[AggCall::on(AggFunc::Sum, "v", "s")],
            &[],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // group "a": both key cells agree on source=s1 → kept
        let a_row = out
            .iter()
            .position(|r| r[0].value == Value::text("a"))
            .unwrap();
        assert_eq!(
            out.rows()[a_row][0].tag_value("source"),
            Value::text("s1")
        );
    }

    #[test]
    fn unanimous_rule() {
        let p = [TagPolicy::new("source", TagRule::Unanimous)];
        let cell = |v: i64, src: Option<&str>| match src {
            Some(s) => QualityCell::bare(v).with_tag(IndicatorValue::new("source", s)),
            None => QualityCell::bare(v),
        };
        let derived = |cells: Vec<QualityCell>| -> Value {
            let schema = Schema::of(&[("v", DataType::Int)]);
            let rows = cells.into_iter().map(|c| vec![c]).collect();
            let rel =
                TaggedRelation::new(schema, IndicatorDictionary::with_paper_defaults(), rows).unwrap();
            let out = gamma(&rel, &[], &[AggCall::on(AggFunc::Sum, "v", "s")], &p).unwrap();
            out.cell(0, "s").unwrap().tag_value("source")
        };
        assert_eq!(derived(vec![cell(1, Some("s")), cell(2, Some("s"))]), Value::text("s"));
        assert_eq!(derived(vec![cell(1, Some("s")), cell(3, Some("t"))]), Value::Null);
        // a cell missing the tag also breaks unanimity
        assert_eq!(derived(vec![cell(1, Some("s")), cell(4, None)]), Value::Null);
        assert_eq!(derived(vec![]), Value::Null);
    }

    #[test]
    fn derive_age_from_creation_time() {
        let mut rel = prices();
        let n = derive_age(&mut rel, "price", Date::parse("10-24-91").unwrap()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(
            rel.cell(0, "price").unwrap().tag_value("age"),
            Value::Int(23)
        );
        assert_eq!(
            rel.cell(1, "price").unwrap().tag_value("age"),
            Value::Int(4)
        );
        // now filter by the derived indicator — the trader's ten-minute
        // analogue in days (Premise 2.2)
        let fresh = sigma(&rel, &Expr::col("price@age").le(Expr::lit(10i64))).unwrap();
        assert_eq!(fresh.len(), 1);
    }
}
