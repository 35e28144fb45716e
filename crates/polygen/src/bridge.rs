//! Bridge between the paper's two cited tagging models: polygen source
//! sets ⇄ attribute-based quality indicator tags.
//!
//! The ICDE'93 paper treats both as substrates for the same quality
//! schema ("the attribute-based model \[28\] and the polygen source-tagging
//! model \[24\]\[25\] have been developed elsewhere"); this module lets data
//! composed in the polygen algebra flow into the tagged store (and its
//! quality query language) with its provenance intact:
//!
//! * `originating` sources become a `source` indicator tag (sorted,
//!   `+`-joined — the same convention the tagged aggregate's
//!   [`MergeText`](tagstore::algebra::TagRule) rule uses), and
//! * `intermediate` sources become an `intermediate_sources` tag.

use crate::cell::SourceSet;
use crate::relation::PolyRelation;
use crate::source::SourceRegistry;
use relstore::{DataType, DbResult, Value};
use tagstore::{IndicatorDef, IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

/// Indicator used for intermediate sources on bridged cells.
pub const INTERMEDIATE_INDICATOR: &str = "intermediate_sources";

/// An indicator dictionary covering everything bridging produces: the
/// paper defaults plus `intermediate_sources` and `credibility`.
pub fn polygen_dictionary() -> IndicatorDictionary {
    let mut d = IndicatorDictionary::with_paper_defaults();
    d.declare(IndicatorDef::new(
        INTERMEDIATE_INDICATOR,
        DataType::Text,
        "polygen intermediate source set (databases consulted)",
    ))
    .expect("fresh declaration");
    d.declare(IndicatorDef::new(
        "credibility",
        DataType::Float,
        "weakest-link credibility over the originating sources",
    ))
    .expect("fresh declaration");
    d
}

fn join_sources(set: &SourceSet) -> Option<Value> {
    if set.is_empty() {
        return None;
    }
    Some(Value::Text(
        set.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("+"),
    ))
}

/// Converts a polygen relation into a tagged relation. Each cell's
/// originating set becomes its `source` tag and its intermediate set its
/// `intermediate_sources` tag; when a registry is supplied, a
/// `credibility` tag carries the weakest-link score of the originating
/// sources — the §1.3 indicator→parameter mapping, precomputed.
pub fn to_tagged(
    poly: &PolyRelation,
    registry: Option<&SourceRegistry>,
) -> DbResult<TaggedRelation> {
    let dict = polygen_dictionary();
    let mut out = TaggedRelation::empty(poly.schema().clone(), dict);
    for row in poly.iter() {
        let mut tagged_row = Vec::with_capacity(row.len());
        for cell in row {
            let mut qc = QualityCell::bare(cell.value.clone());
            if let Some(src) = join_sources(cell.originating()) {
                qc.set_tag(IndicatorValue::new("source", src));
            }
            if let Some(mid) = join_sources(cell.intermediate()) {
                qc.set_tag(IndicatorValue::new(INTERMEDIATE_INDICATOR, mid));
            }
            if let Some(reg) = registry {
                if let Some(cred) = reg.min_credibility(cell.originating().iter()) {
                    qc.set_tag(IndicatorValue::new("credibility", Value::Float(cred)));
                }
            }
            tagged_row.push(qc);
        }
        out.push(tagged_row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceId;
    use relstore::{Expr, Relation, Schema};
    use tagstore::{selection_columnar, ColumnarRelation, DEFAULT_BATCH_SIZE};

    /// How many rows of `tagged` meet `p`, by the engine's σ.
    fn count(tagged: &TaggedRelation, p: &Expr) -> usize {
        let layout = ColumnarRelation::from_tagged(tagged);
        selection_columnar(&layout, p, DEFAULT_BATCH_SIZE).unwrap().0.count()
    }

    fn two_source_join() -> PolyRelation {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let a = Relation::new(
            schema.clone(),
            vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]],
        )
        .unwrap();
        let b = Relation::new(
            schema,
            vec![vec![Value::Int(1), Value::Int(100)]],
        )
        .unwrap();
        let pa = PolyRelation::retrieve(&a, SourceId::new("A"));
        let pb = PolyRelation::retrieve(&b, SourceId::new("B"));
        pa.join(&pb, "k", "k").unwrap()
    }

    #[test]
    fn bridging_preserves_values_and_sources() {
        let poly = two_source_join();
        let tagged = to_tagged(&poly, None).unwrap();
        assert_eq!(tagged.strip(), poly.strip());
        // left value cell: originates from A, consulted both keys
        let cell = tagged.cell(0, "l.v").unwrap();
        assert_eq!(cell.tag_value("source"), Value::text("A"));
        assert_eq!(
            cell.tag_value(INTERMEDIATE_INDICATOR),
            Value::text("A+B")
        );
    }

    #[test]
    fn bridged_data_is_quality_queryable() {
        let poly = two_source_join();
        let tagged = to_tagged(&poly, None).unwrap();
        // filter by provenance through the standard quality predicate path
        let p = Expr::col("l.v@source").eq(Expr::lit("A"));
        assert_eq!(count(&tagged, &p), 1);
        // intermediate sources are queryable too
        let p = Expr::Like(
            Box::new(Expr::col("l.v@intermediate_sources")),
            "%B%".into(),
        );
        assert_eq!(count(&tagged, &p), 1);
    }

    #[test]
    fn credibility_precomputed_from_registry() {
        let mut reg = SourceRegistry::new();
        reg.register("A", "", 0.9);
        reg.register("B", "", 0.4);
        let poly = two_source_join();
        let tagged = to_tagged(&poly, Some(&reg)).unwrap();
        // single-origin cell: its own credibility
        assert_eq!(
            tagged.cell(0, "l.v").unwrap().tag_value("credibility"),
            Value::Float(0.9)
        );
        // union-merged cells would take the min; simulate via union
        let u = {
            let schema = Schema::of(&[("x", DataType::Int)]);
            let r = Relation::new(schema, vec![vec![Value::Int(1)]]).unwrap();
            let pa = PolyRelation::retrieve(&r, SourceId::new("A"));
            let pb = PolyRelation::retrieve(&r.clone(), SourceId::new("B"));
            pa.union(&pb).unwrap()
        };
        let tagged = to_tagged(&u, Some(&reg)).unwrap();
        assert_eq!(
            tagged.cell(0, "x").unwrap().tag_value("credibility"),
            Value::Float(0.4) // weakest link of A+B
        );
        assert_eq!(
            tagged.cell(0, "x").unwrap().tag_value("source"),
            Value::text("A+B")
        );
    }

    #[test]
    fn bare_cells_stay_bare() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let poly = PolyRelation::new(
            schema,
            vec![vec![crate::PolyCell::bare(1i64)]],
        )
        .unwrap();
        let tagged = to_tagged(&poly, None).unwrap();
        assert_eq!(tagged.cell(0, "x").unwrap().tag_count(), 0);
    }
}
