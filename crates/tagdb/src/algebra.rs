//! Tag-propagating relational algebra over [`TaggedRelation`]s.
//!
//! Each operator mirrors its `relstore::algebra` counterpart and defines
//! how quality tags travel:
//!
//! * σ / π / ρ / τ — tags ride along with their cells unchanged;
//! * ⋈ / × — each output cell keeps the tags of the input cell it came
//!   from (cells are never synthesized, so provenance is exact);
//! * γ — aggregate output cells get tags *derived* from the input group
//!   under an explicit [`TagPolicy`] (e.g. a SUM's `creation_time` is the
//!   *oldest* input creation time — conservative staleness);
//! * predicates may reference pseudo-columns `col@indicator`, which is the
//!   paper's query-time quality filtering.

use crate::bitmap::QualityIndex;
use crate::fold::Fold;
use crate::indicator::IndicatorValue;
use crate::predicate::{Predicate, ToPredicate};
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use relstore::algebra::AggCall;
use relstore::index::HashIndex;
use relstore::{par, Date, DbError, DbResult, Row, Value};
use std::collections::HashMap;
use std::fmt;

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

/// σ — keeps rows whose predicate holds. The predicate may mix application
/// columns and `col@indicator` pseudo-columns; rows whose referenced tag is
/// missing evaluate to NULL and are dropped, so *untagged data never
/// satisfies a quality constraint*.
///
/// The whole bound tree is evaluated row by row, never through the
/// conjunct kernels: this is the reference the batch, columnar, bitmap
/// and paged σ are tested against. Surviving rows are cloned — a
/// refcount bump per tagged cell, not a deep copy of its tags. Large
/// inputs filter in parallel chunks with input order preserved.
pub fn select(rel: &TaggedRelation, predicate: &impl ToPredicate) -> DbResult<TaggedRelation> {
    let bound = predicate.to_predicate(rel.schema(), rel.dictionary())?;
    let filter_chunk = |chunk: &[TaggedRow]| -> DbResult<Vec<TaggedRow>> {
        let mut out = Vec::new();
        for row in chunk {
            if bound.matches(row)? {
                out.push(row.clone());
            }
        }
        Ok(out)
    };
    let rows = match par::plan(rel.len()) {
        Some(threads) => {
            par::merge_results(par::run_chunked(rel.rows(), threads, |_, c| filter_chunk(c)))?
        }
        None => filter_chunk(rel.rows())?,
    };
    Ok(TaggedRelation::from_parts_unchecked(
        rel.schema().clone(),
        rel.dictionary().clone(),
        rows,
    ))
}

/// σ over an explicit ascending candidate row-id list: gathers the rows
/// at `ids`, optionally re-checking `predicate` on each (the residual
/// pass of index-assisted selection). Chunks over the id list itself, so
/// the parallel win scales with the *surviving* rows, not the relation —
/// and chunk-order merging keeps the output byte-identical to a serial
/// gather.
pub fn select_at(
    rel: &TaggedRelation,
    ids: &[usize],
    predicate: Option<&Predicate>,
) -> DbResult<TaggedRelation> {
    let gather_chunk = |chunk: &[usize]| -> DbResult<Vec<TaggedRow>> {
        let mut out = Vec::with_capacity(chunk.len());
        for &id in chunk {
            let row = row_at(rel, id)?;
            if predicate.map_or(Ok(true), |p| p.matches(row))? {
                out.push(row.clone());
            }
        }
        Ok(out)
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

/// How an index-aware σ actually ran — surfaced so tests (and EXPLAIN
/// output) can assert which path executed.
#[derive(Debug, Clone, PartialEq)]
pub enum TagAccessPath {
    /// Full scan: no index-answerable atoms, or an atom the index had to
    /// refuse (type-error parity), or a stale index.
    Scan,
    /// Bitmap-assisted: the atom conjunction resolved to a candidate
    /// bitset; `residual` says whether a per-row pass still ran.
    Bitmap {
        /// Rendered atoms the bitmaps answered.
        atoms: Vec<String>,
        /// Candidate rows surviving the bitmap intersection.
        candidates: usize,
        /// Whether non-atomic conjuncts forced a residual per-row pass.
        residual: bool,
    },
}

impl fmt::Display for TagAccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagAccessPath::Scan => write!(f, "scan"),
            TagAccessPath::Bitmap {
                atoms,
                candidates,
                residual,
            } => {
                write!(f, "bitmap[{}] candidates={candidates}", atoms.join(" AND "))?;
                if *residual {
                    write!(f, " +residual")?;
                }
                Ok(())
            }
        }
    }
}

/// Index-assisted σ: resolves the predicate's quality atoms against the
/// bitmap `index`, then gathers (and residual-filters) only the
/// surviving candidates via [`select_at`]. Falls back to the full
/// [`select`] scan whenever the index cannot answer *exactly* — so the
/// result (rows, order, and errors on answerable predicates) is
/// byte-identical to the scan, just cheaper.
pub fn select_indexed(
    rel: &TaggedRelation,
    index: &QualityIndex,
    predicate: &impl ToPredicate,
) -> DbResult<(TaggedRelation, TagAccessPath)> {
    let bound = predicate.to_predicate(rel.schema(), rel.dictionary())?;
    let _t = dq_obs::histogram!("tagstore.bitmap.select_us").start();
    let scan = || {
        dq_obs::counter!("tagstore.bitmap.scan_fallbacks").incr();
        Ok((select(rel, &*bound)?, TagAccessPath::Scan))
    };
    let atoms = bound.atoms();
    if index.rows() != rel.len() || atoms.is_empty() {
        return scan(); // stale index — never trust it — or nothing to ask
    }
    let Some(bs) = index.candidates(atoms) else {
        return scan();
    };
    let ids: Vec<usize> = bs.iter_ones().collect();
    dq_obs::counter!("tagstore.bitmap.intersections").add(atoms.len() as u64);
    dq_obs::counter!("tagstore.bitmap.candidate_rows").add(ids.len() as u64);
    let path = TagAccessPath::Bitmap {
        atoms: atoms.iter().map(|a| a.to_string()).collect(),
        candidates: ids.len(),
        residual: bound.has_residual(),
    };
    // Re-check the *full* predicate when any residual exists: correct
    // regardless of how it interleaves with atoms, and atom re-checks
    // are cheap.
    let filtered = select_at(rel, &ids, bound.has_residual().then_some(&*bound))?;
    dq_obs::counter!("tagstore.bitmap.gathered_rows").add(filtered.len() as u64);
    Ok((filtered, path))
}

/// π — projects onto named columns; tags travel with cells (shared, not
/// deep-copied). Parallel on large inputs, input order preserved.
pub fn project(rel: &TaggedRelation, columns: &[&str]) -> DbResult<TaggedRelation> {
    let indices: Vec<usize> = columns
        .iter()
        .map(|c| rel.schema().resolve(c))
        .collect::<DbResult<_>>()?;
    let schema = rel.schema().project(&indices)?;
    let project_chunk = |chunk: &[TaggedRow]| -> Vec<TaggedRow> {
        chunk
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect()
    };
    let rows = match par::plan(rel.len()) {
        Some(threads) => par::run_chunked(rel.rows(), threads, |_, c| project_chunk(c))
            .into_iter()
            .flatten()
            .collect(),
        None => project_chunk(rel.rows()),
    };
    Ok(TaggedRelation::from_parts_unchecked(
        schema,
        rel.dictionary().clone(),
        rows,
    ))
}

/// ⋈ — hash equi-join on application values. Output cells keep the tags of
/// the input cell they came from. Dictionaries must be merged by the
/// caller if they differ; we require the left dictionary to cover both.
pub fn hash_join(
    left: &TaggedRelation,
    right: &TaggedRelation,
    left_key: &str,
    right_key: &str,
) -> DbResult<TaggedRelation> {
    let li = left.schema().resolve(left_key)?;
    let ri = right.schema().resolve(right_key)?;
    let schema = left.schema().join(right.schema(), "l", "r")?;

    fn build_chunk(chunk: &[TaggedRow], ri: usize) -> HashMap<&Value, Vec<&TaggedRow>> {
        let mut t: HashMap<&Value, Vec<&TaggedRow>> = HashMap::with_capacity(chunk.len());
        for rr in chunk {
            if !rr[ri].value.is_null() {
                t.entry(&rr[ri].value).or_default().push(rr);
            }
        }
        t
    }
    // Parallel build merges per-chunk partial tables in chunk order, which
    // reproduces the serial per-key insertion order exactly.
    let table: HashMap<&Value, Vec<&TaggedRow>> = match par::plan(right.len()) {
        Some(threads) => {
            let mut merged: HashMap<&Value, Vec<&TaggedRow>> =
                HashMap::with_capacity(right.len());
            let partials = par::run_ranges(right.len(), threads, |_, r| {
                build_chunk(&right.rows()[r], ri)
            });
            for partial in partials {
                for (k, mut v) in partial {
                    merged.entry(k).or_default().append(&mut v);
                }
            }
            merged
        }
        None => build_chunk(right.rows(), ri),
    };

    let probe_chunk = |chunk: &[TaggedRow]| -> Vec<TaggedRow> {
        let mut out = Vec::new();
        for lr in chunk {
            if lr[li].value.is_null() {
                continue;
            }
            if let Some(matches) = table.get(&lr[li].value) {
                for rr in matches {
                    let mut combined = lr.clone();
                    combined.extend(rr.iter().cloned());
                    out.push(combined);
                }
            }
        }
        out
    };
    let rows: Vec<TaggedRow> = match par::plan(left.len()) {
        Some(threads) => par::run_chunked(left.rows(), threads, |_, c| probe_chunk(c))
            .into_iter()
            .flatten()
            .collect(),
        None => probe_chunk(left.rows()),
    };
    Ok(TaggedRelation::from_parts_unchecked(
        schema,
        left.dictionary().clone(),
        rows,
    ))
}

/// ⋈ via a prebuilt [`HashIndex`] over the right relation's key values
/// (`vec![value] → row positions`, positions in row order): probes the
/// index instead of building a hash table per join. Output is
/// byte-identical to [`hash_join`] on the same inputs — same schema, same
/// row order, same tag sharing. NULL keys never join: left NULLs are
/// skipped explicitly (NULL = NULL is *true* under the storage total
/// order, so the probe must not reach the index), and right NULL entries
/// are unreachable from non-NULL probes.
pub fn hash_join_probe(
    left: &TaggedRelation,
    right: &TaggedRelation,
    left_key: &str,
    right_key: &str,
    index: &HashIndex,
) -> DbResult<TaggedRelation> {
    let li = left.schema().resolve(left_key)?;
    right.schema().resolve(right_key)?;
    let schema = left.schema().join(right.schema(), "l", "r")?;
    let probe_chunk = |chunk: &[TaggedRow]| -> DbResult<Vec<TaggedRow>> {
        let mut out = Vec::new();
        for lr in chunk {
            if lr[li].value.is_null() {
                continue;
            }
            let key = vec![lr[li].value.clone()];
            for &pos in index.get(&key) {
                let rr = right.rows().get(pos).ok_or_else(|| {
                    DbError::InvalidExpression(format!("join index position {pos} out of range"))
                })?;
                let mut combined = lr.clone();
                combined.extend(rr.iter().cloned());
                out.push(combined);
            }
        }
        Ok(out)
    };
    let rows: Vec<TaggedRow> = match par::plan(left.len()) {
        Some(threads) => {
            par::merge_results(par::run_chunked(left.rows(), threads, |_, c| probe_chunk(c)))?
        }
        None => probe_chunk(left.rows())?,
    };
    Ok(TaggedRelation::from_parts_unchecked(
        schema,
        left.dictionary().clone(),
        rows,
    ))
}

/// δ over application values: rows with equal *values* collapse to one row
/// whose cell tags are the merge of the duplicates' tags (conflicting tags
/// drop — ambiguous provenance is not invented).
pub fn distinct_merging(rel: &TaggedRelation) -> TaggedRelation {
    let mut index: HashMap<Row, usize> = HashMap::new();
    let mut out: Vec<TaggedRow> = Vec::new();
    for row in rel.iter() {
        let key: Row = row.iter().map(|c| c.value.clone()).collect();
        match index.get(&key) {
            Some(&pos) => {
                for (mine, theirs) in out[pos].iter_mut().zip(row.iter()) {
                    mine.merge_tags_from(theirs);
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

/// γ — group by `group_by` application values and compute `aggs`, deriving
/// output-cell tags per `policies`. Group-key output cells keep the tags
/// every group member's key cell carries alike; aggregate output cells get
/// tags derived from the aggregated column's input cells. One pass over
/// the rows, no intermediate copy.
pub fn aggregate(
    rel: &TaggedRelation,
    group_by: &[&str],
    aggs: &[AggCall],
    policies: &[TagPolicy],
) -> DbResult<TaggedRelation> {
    aggregate_rows(rel, rel.iter(), group_by, aggs, policies)
}

/// [`aggregate`] over some of `rel`'s rows — e.g. the positions a keyed
/// lookup kept — without gathering them first.
pub fn aggregate_rows<'r>(
    rel: &TaggedRelation,
    rows: impl IntoIterator<Item = &'r TaggedRow>,
    group_by: &[&str],
    aggs: &[AggCall],
    policies: &[TagPolicy],
) -> DbResult<TaggedRelation> {
    let mut fold = Fold::new(rel.schema(), group_by, aggs, policies)?;
    for row in rows {
        fold.add(row.as_slice())?;
    }
    fold.finish(rel.schema(), rel.dictionary())
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

/// Convenience re-export of aggregate call constructors.
pub use relstore::algebra::{AggCall as Agg, AggFunc as AggF};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::QualityCell;
    use crate::indicator::IndicatorDictionary;
    use relstore::{DataType, Expr, Schema};

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

    #[test]
    fn select_on_values_preserves_tags() {
        let r = select(&prices(), &Expr::col("price").gt(Expr::lit(15.0))).unwrap();
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
        let r = select(&prices(), &p).unwrap();
        assert_eq!(r.len(), 2);
        // freshness constraint
        let p = Expr::col("price@creation_time").ge(Expr::lit(d("10-10-91")));
        let r = select(&prices(), &p).unwrap();
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
        let r = select(&rel, &p).unwrap();
        assert_eq!(r.len(), 2); // untagged row dropped, not matched
                                // negated predicate also drops it (NULL ≠ true)
        let p = Expr::col("price@source").ne(Expr::lit("NYSE feed"));
        let r = select(&rel, &p).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn mixed_value_and_quality_predicate() {
        let p = Expr::col("price")
            .gt(Expr::lit(5.0))
            .and(Expr::col("price@source").ne(Expr::lit("manual entry")));
        let r = select(&prices(), &p).unwrap();
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
        let r = select(&dict_rel, &p).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "ticker").unwrap().value, Value::text("FRT"));
        // rows whose source tag lacks the meta tag never match
        let p = Expr::col("price@source@inspection").eq(Expr::lit("x"));
        assert!(select(&dict_rel, &p).unwrap().is_empty());
    }

    #[test]
    fn unknown_pseudo_column_errors() {
        let p = Expr::col("ghost@source").eq(Expr::lit("x"));
        assert!(select(&prices(), &p).is_err());
        let p = Expr::col("nosuchcolumn").eq(Expr::lit("x"));
        assert!(select(&prices(), &p).is_err());
    }

    #[test]
    fn project_carries_tags() {
        let r = project(&prices(), &["price"]).unwrap();
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
        let j = hash_join(&trades, &prices(), "ticker", "ticker").unwrap();
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
    fn select_indexed_matches_scan_and_reports_path() {
        let rel = prices();
        let idx = QualityIndex::build(&rel);
        // pure quality atom → bitmap path, no residual
        let p = Expr::col("price@source").eq(Expr::lit("NYSE feed"));
        let (r, path) = select_indexed(&rel, &idx, &p).unwrap();
        assert_eq!(r, select(&rel, &p).unwrap());
        assert_eq!(
            path,
            TagAccessPath::Bitmap {
                atoms: vec!["price@source=NYSE feed".into()],
                candidates: 2,
                residual: false,
            }
        );
        assert_eq!(path.to_string(), "bitmap[price@source=NYSE feed] candidates=2");
        // mixed quality + value predicate → bitmap with residual
        let p = Expr::col("price@source")
            .ne(Expr::lit("manual entry"))
            .and(Expr::col("price").gt(Expr::lit(15.0)));
        let (r, path) = select_indexed(&rel, &idx, &p).unwrap();
        assert_eq!(r, select(&rel, &p).unwrap());
        assert!(matches!(path, TagAccessPath::Bitmap { residual: true, .. }));
        // value-only predicate → scan
        let p = Expr::col("price").gt(Expr::lit(15.0));
        let (r, path) = select_indexed(&rel, &idx, &p).unwrap();
        assert_eq!(r, select(&rel, &p).unwrap());
        assert_eq!(path, TagAccessPath::Scan);
        // stale index (built before a push) → scan, still correct
        let mut grown = rel.clone();
        grown
            .push(vec![QualityCell::bare("ZZZ"), QualityCell::bare(5.0)])
            .unwrap();
        let p = Expr::col("price@source").eq(Expr::lit("NYSE feed"));
        let (r, path) = select_indexed(&grown, &idx, &p).unwrap();
        assert_eq!(r, select(&grown, &p).unwrap());
        assert_eq!(path, TagAccessPath::Scan);
        // malformed predicate errors exactly like the scan would
        let bad = Expr::col("ghost@source").eq(Expr::lit("x"));
        assert!(select_indexed(&rel, &idx, &bad).is_err());
    }

    #[test]
    fn select_at_gathers_and_filters() {
        let rel = prices();
        let r = select_at(&rel, &[0, 2], None).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(1, "ticker").unwrap().value, Value::text("BLT"));
        let p = Expr::col("price").gt(Expr::lit(15.0));
        let p = Predicate::bind(rel.schema(), rel.dictionary(), &p).unwrap();
        let r = select_at(&rel, &[0, 2], Some(&p)).unwrap();
        assert_eq!(r.len(), 1);
        assert!(select_at(&rel, &[99], None).is_err());
    }

    #[test]
    fn hash_join_probe_matches_hash_join() {
        let schema = Schema::of(&[("ticker", DataType::Text), ("qty", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let trades = TaggedRelation::new(
            schema,
            dict,
            vec![
                vec![
                    QualityCell::bare("FRT")
                        .with_tag(IndicatorValue::new("source", "order desk")),
                    QualityCell::bare(100i64),
                ],
                vec![QualityCell::bare("NUT"), QualityCell::bare(7i64)],
                vec![QualityCell::bare(Value::Null), QualityCell::bare(1i64)],
            ],
        )
        .unwrap();
        let right = prices();
        let ri = right.schema().resolve("ticker").unwrap();
        let mut idx = HashIndex::new(vec![0]);
        for (pos, row) in right.iter().enumerate() {
            idx.insert(&vec![row[ri].value.clone()], pos);
        }
        let probed = hash_join_probe(&trades, &right, "ticker", "ticker", &idx).unwrap();
        let built = hash_join(&trades, &right, "ticker", "ticker").unwrap();
        assert_eq!(probed, built);
        assert_eq!(probed.len(), 2);
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
            ],
        )
        .unwrap();
        let dd = distinct_merging(&rel);
        assert_eq!(dd.len(), 1);
        assert_eq!(dd.cell(0, "x").unwrap().tag_value("source"), Value::Null);
    }

    #[test]
    fn aggregate_derives_tags() {
        let out = aggregate(
            &prices(),
            &[],
            &[Agg::on(AggF::Sum, "price", "total")],
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
        let out = aggregate(
            &rel,
            &["k"],
            &[Agg::on(AggF::Sum, "v", "s")],
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
            let out = aggregate(&rel, &[], &[Agg::on(AggF::Sum, "v", "s")], &p).unwrap();
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
        let fresh = select(&rel, &Expr::col("price@age").le(Expr::lit(10i64))).unwrap();
        assert_eq!(fresh.len(), 1);
    }
}
