//! Quality assessment: estimating the paper's "universally important"
//! dimensions — completeness, timeliness, accuracy, interpretability
//! (§4) — from stored data and its tags.

use relstore::{DataType, Date, DbResult, Relation, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tagstore::TaggedRelation;

/// Assessment of one dimension over one column (or relation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensionScore {
    /// Dimension name.
    pub dimension: String,
    /// Subject column (empty for relation-level scores).
    pub column: String,
    /// Score in `[0, 1]`.
    pub score: f64,
    /// How many items informed the score.
    pub support: usize,
}

/// Column completeness: fraction of non-null values.
pub fn completeness(rel: &Relation, column: &str) -> DbResult<DimensionScore> {
    let i = rel.schema().resolve(column)?;
    let non_null = rel.iter().filter(|r| !r[i].is_null()).count();
    Ok(DimensionScore {
        dimension: "completeness".into(),
        column: column.into(),
        score: if rel.is_empty() {
            1.0
        } else {
            non_null as f64 / rel.len() as f64
        },
        support: rel.len(),
    })
}

/// Mean Ballou–Pazer timeliness over a tagged column:
/// `mean(max(0, 1 − age/volatility)^sensitivity)`. Cells without a
/// `creation_time` (or `age`) tag score 0 — unknown manufacture date is
/// the worst case for a timeliness-sensitive user.
pub fn timeliness(
    rel: &TaggedRelation,
    column: &str,
    as_of: Date,
    volatility_days: f64,
    sensitivity: f64,
) -> DbResult<DimensionScore> {
    let i = rel.schema().resolve(column)?;
    let mut total = 0.0;
    for row in rel.iter() {
        let age = match row[i].tag_value("age") {
            Value::Int(a) => Some(a as f64),
            _ => match row[i].tag_value("creation_time") {
                Value::Date(d) => Some(as_of.days_between(&d) as f64),
                _ => None,
            },
        };
        if let Some(a) = age {
            if volatility_days > 0.0 {
                total += (1.0 - a / volatility_days).max(0.0).powf(sensitivity);
            }
        }
    }
    Ok(DimensionScore {
        dimension: "timeliness".into(),
        column: column.into(),
        score: if rel.is_empty() {
            1.0
        } else {
            total / rel.len() as f64
        },
        support: rel.len(),
    })
}

/// Accuracy against a trusted reference: fraction of keyed rows whose
/// value matches the reference value. Rows missing from the reference
/// are not counted either way.
pub fn accuracy_vs_reference(
    rel: &Relation,
    key: &str,
    column: &str,
    reference: &Relation,
    ref_key: &str,
    ref_column: &str,
) -> DbResult<DimensionScore> {
    let ki = rel.schema().resolve(key)?;
    let ci = rel.schema().resolve(column)?;
    let rki = reference.schema().resolve(ref_key)?;
    let rci = reference.schema().resolve(ref_column)?;
    let truth: HashMap<&Value, &Value> = reference
        .iter()
        .filter(|r| !r[rki].is_null())
        .map(|r| (&r[rki], &r[rci]))
        .collect();
    let mut checked = 0usize;
    let mut correct = 0usize;
    for row in rel.iter() {
        if let Some(expected) = truth.get(&row[ki]) {
            checked += 1;
            if &&row[ci] == expected {
                correct += 1;
            }
        }
    }
    Ok(DimensionScore {
        dimension: "accuracy".into(),
        column: column.into(),
        score: if checked == 0 {
            1.0
        } else {
            correct as f64 / checked as f64
        },
        support: checked,
    })
}

/// Interpretability proxy: fraction of cells in `column` whose value
/// conforms to the declared type *and* that carry the tags listed in
/// `required_context` (e.g. `media`, `language`, `unit of measure` — the
/// context a user needs to read the value correctly).
pub fn interpretability(
    rel: &TaggedRelation,
    column: &str,
    required_context: &[&str],
) -> DbResult<DimensionScore> {
    let i = rel.schema().resolve(column)?;
    let dtype = rel.schema().column(i).expect("resolved").dtype;
    let mut ok = 0usize;
    for row in rel.iter() {
        let typed = dtype == DataType::Any || row[i].value.conforms_to(dtype);
        let ctx = required_context
            .iter()
            .all(|ind| row[i].tag(ind).is_some());
        if typed && ctx && !row[i].value.is_null() {
            ok += 1;
        }
    }
    Ok(DimensionScore {
        dimension: "interpretability".into(),
        column: column.into(),
        score: if rel.is_empty() {
            1.0
        } else {
            ok as f64 / rel.len() as f64
        },
        support: rel.len(),
    })
}

/// A full assessment report over a tagged relation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AssessmentReport {
    /// Per-dimension, per-column scores.
    pub scores: Vec<DimensionScore>,
}

impl AssessmentReport {
    /// Weakest score in the report (the binding quality constraint).
    pub fn weakest(&self) -> Option<&DimensionScore> {
        self.scores
            .iter()
            .min_by(|a, b| a.score.total_cmp(&b.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Schema;
    use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell};

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    #[test]
    fn completeness_counts_nulls() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let r = Relation::new(
            schema.clone(),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)], vec![Value::Null]],
        )
        .unwrap();
        let s = completeness(&r, "x").unwrap();
        assert!((s.score - 0.5).abs() < 1e-9);
        assert_eq!(s.support, 4);
        // empty relation is vacuously complete
        let e = Relation::empty(schema);
        assert_eq!(completeness(&e, "x").unwrap().score, 1.0);
        assert!(completeness(&r, "ghost").is_err());
    }

    #[test]
    fn timeliness_from_tags() {
        let schema = Schema::of(&[("p", DataType::Float)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rel = TaggedRelation::new(
            schema,
            dict,
            vec![
                vec![QualityCell::bare(1.0)
                    .with_tag(IndicatorValue::new("creation_time", d("10-24-91")))],
                vec![QualityCell::bare(2.0)
                    .with_tag(IndicatorValue::new("creation_time", d("10-9-91")))],
                vec![QualityCell::bare(3.0)], // untagged: scores 0
            ],
        )
        .unwrap();
        let s = timeliness(&rel, "p", Date::parse("10-24-91").unwrap(), 30.0, 1.0).unwrap();
        // scores: 1.0, 0.5, 0.0 → mean 0.5
        assert!((s.score - 0.5).abs() < 1e-9);
    }

    #[test]
    fn timeliness_prefers_age_tag() {
        let schema = Schema::of(&[("p", DataType::Float)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rel = TaggedRelation::new(
            schema,
            dict,
            vec![vec![QualityCell::bare(1.0)
                .with_tag(IndicatorValue::new("age", 15i64))
                // stale creation_time would give a different answer — age wins
                .with_tag(IndicatorValue::new("creation_time", d("1-1-80")))]],
        )
        .unwrap();
        let s = timeliness(&rel, "p", Date::parse("10-24-91").unwrap(), 30.0, 1.0).unwrap();
        assert!((s.score - 0.5).abs() < 1e-9);
    }

    #[test]
    fn accuracy_against_truth() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Text)]);
        let data = Relation::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::text("right")],
                vec![Value::Int(2), Value::text("wrong")],
                vec![Value::Int(9), Value::text("unknowable")], // not in reference
            ],
        )
        .unwrap();
        let truth = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::text("right")],
                vec![Value::Int(2), Value::text("correct")],
            ],
        )
        .unwrap();
        let s = accuracy_vs_reference(&data, "k", "v", &truth, "k", "v").unwrap();
        assert!((s.score - 0.5).abs() < 1e-9);
        assert_eq!(s.support, 2); // only keyed rows counted
    }

    #[test]
    fn interpretability_requires_context_tags() {
        let schema = Schema::of(&[("doc", DataType::Text)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rel = TaggedRelation::new(
            schema,
            dict,
            vec![
                vec![QualityCell::bare("report A")
                    .with_tag(IndicatorValue::new("media", "ASCII"))],
                vec![QualityCell::bare("report B")], // no media tag
            ],
        )
        .unwrap();
        let s = interpretability(&rel, "doc", &["media"]).unwrap();
        assert!((s.score - 0.5).abs() < 1e-9);
        // no required context → both pass
        let s = interpretability(&rel, "doc", &[]).unwrap();
        assert_eq!(s.score, 1.0);
    }

    #[test]
    fn report_aggregation() {
        let report = AssessmentReport {
            scores: vec![
                DimensionScore {
                    dimension: "completeness".into(),
                    column: "a".into(),
                    score: 0.9,
                    support: 10,
                },
                DimensionScore {
                    dimension: "timeliness".into(),
                    column: "a".into(),
                    score: 0.3,
                    support: 10,
                },
            ],
        };
        assert_eq!(report.weakest().unwrap().dimension, "timeliness");
    }
}
