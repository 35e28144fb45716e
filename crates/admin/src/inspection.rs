//! The inspection-rule engine behind the "✓ inspection" quality parameter.
//!
//! §3.3: the indicators derived from "✓ inspection" "indicate the
//! inspection mechanism desired to maintain data reliability ... These
//! procedures might include double entry of important data, front-end
//! rules to enforce domain or update constraints, or manual processes for
//! performing certification on the data." This module implements those
//! procedures over tagged relations.

use relstore::{Date, DbResult, Expr, Value};
use serde::{Deserialize, Serialize};
use tagstore::{selection_columnar, ColumnarRelation, TaggedRelation, DEFAULT_BATCH_SIZE};

/// One inspection rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InspectionRule {
    /// Every cell of `column` must carry tag `indicator` — the quality
    /// schema said so, the data must comply.
    RequiredTag {
        /// Column to inspect.
        column: String,
        /// Indicator that must be present.
        indicator: String,
    },
    /// Cells of `column` must have been created within `max_age_days` of
    /// `as_of` (via their `creation_time` tag).
    Freshness {
        /// Column to inspect.
        column: String,
        /// Maximum tolerated age in days.
        max_age_days: i64,
        /// Inspection date.
        as_of: Date,
    },
    /// Tag `indicator` on `column` must take one of the allowed values —
    /// e.g. `collection_method ∈ {"over the phone", "from an information
    /// service"}`.
    TagDomain {
        /// Column to inspect.
        column: String,
        /// Constrained indicator.
        indicator: String,
        /// Admissible tag values.
        allowed: Vec<Value>,
    },
    /// A row-level predicate (front-end rule); may reference
    /// `col@indicator` pseudo-columns. Rows where it is *false or NULL*
    /// are violations.
    FrontEnd {
        /// Rule name for reports.
        name: String,
        /// Predicate each row must satisfy.
        predicate: Expr,
    },
    /// Double entry: `column` and `reentry_column` must agree row-wise.
    DoubleEntry {
        /// Primary entry column.
        column: String,
        /// Independent re-entry column.
        reentry_column: String,
    },
}

impl InspectionRule {
    /// Short rule label for reports.
    pub fn label(&self) -> String {
        match self {
            InspectionRule::RequiredTag { column, indicator } => {
                format!("required_tag({column}@{indicator})")
            }
            InspectionRule::Freshness {
                column,
                max_age_days,
                ..
            } => format!("freshness({column} <= {max_age_days}d)"),
            InspectionRule::TagDomain {
                column, indicator, ..
            } => format!("tag_domain({column}@{indicator})"),
            InspectionRule::FrontEnd { name, .. } => format!("front_end({name})"),
            InspectionRule::DoubleEntry {
                column,
                reentry_column,
            } => format!("double_entry({column} vs {reentry_column})"),
        }
    }
}

/// One violation found by the inspector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Row index in the inspected relation.
    pub row: usize,
    /// Which rule fired.
    pub rule: String,
    /// What was wrong.
    pub detail: String,
}

/// Result of an inspection run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InspectionReport {
    /// Rows inspected.
    pub rows_inspected: usize,
    /// Violations found.
    pub violations: Vec<Violation>,
}

impl InspectionReport {
    /// True iff the data passed every rule.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation rate in `[0, 1]` (violations may exceed rows when several
    /// rules fire on one row; capped at 1).
    pub fn violation_rate(&self) -> f64 {
        if self.rows_inspected == 0 {
            return 0.0;
        }
        let distinct_rows: std::collections::HashSet<usize> =
            self.violations.iter().map(|v| v.row).collect();
        distinct_rows.len() as f64 / self.rows_inspected as f64
    }
}

/// An inspector: a named bundle of rules (the operational content of the
/// quality schema's `inspection` indicator).
#[derive(Debug, Clone, Default)]
pub struct Inspector {
    rules: Vec<InspectionRule>,
}

impl Inspector {
    /// Empty inspector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: InspectionRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Runs every rule over the relation.
    pub fn inspect(&self, rel: &TaggedRelation) -> DbResult<InspectionReport> {
        let mut report = InspectionReport {
            rows_inspected: rel.len(),
            violations: Vec::new(),
        };
        for rule in &self.rules {
            self.apply(rule, rel, &mut report)?;
        }
        Ok(report)
    }

    fn apply(
        &self,
        rule: &InspectionRule,
        rel: &TaggedRelation,
        report: &mut InspectionReport,
    ) -> DbResult<()> {
        match rule {
            InspectionRule::RequiredTag { column, indicator } => {
                let ci = rel.schema().resolve(column)?;
                for (i, row) in rel.iter().enumerate() {
                    if row[ci].tag(indicator).is_none() {
                        report.violations.push(Violation {
                            row: i,
                            rule: rule.label(),
                            detail: format!("cell `{}` lacks tag `{indicator}`", row[ci].value),
                        });
                    }
                }
            }
            InspectionRule::Freshness {
                column,
                max_age_days,
                as_of,
            } => {
                let ci = rel.schema().resolve(column)?;
                for (i, row) in rel.iter().enumerate() {
                    match row[ci].tag_value("creation_time") {
                        Value::Date(d) => {
                            let age = as_of.days_between(&d);
                            if age > *max_age_days {
                                report.violations.push(Violation {
                                    row: i,
                                    rule: rule.label(),
                                    detail: format!("age {age}d exceeds {max_age_days}d"),
                                });
                            }
                        }
                        _ => report.violations.push(Violation {
                            row: i,
                            rule: rule.label(),
                            detail: "no creation_time tag — freshness unverifiable".into(),
                        }),
                    }
                }
            }
            InspectionRule::TagDomain {
                column,
                indicator,
                allowed,
            } => {
                let ci = rel.schema().resolve(column)?;
                for (i, row) in rel.iter().enumerate() {
                    let v = row[ci].tag_value(indicator);
                    if !v.is_null() && !allowed.contains(&v) {
                        report.violations.push(Violation {
                            row: i,
                            rule: rule.label(),
                            detail: format!("tag value `{v}` outside the allowed domain"),
                        });
                    }
                }
            }
            InspectionRule::FrontEnd { predicate, .. } => {
                // the columnar σ's verdict per row: the violations are
                // the rows it did not keep
                let layout = ColumnarRelation::from_tagged(rel);
                let (kept, _) = selection_columnar(&layout, predicate, DEFAULT_BATCH_SIZE)?;
                for i in (0..rel.len()).filter(|&i| !kept.contains(i)) {
                    report.violations.push(Violation {
                        row: i,
                        rule: rule.label(),
                        detail: "front-end predicate not satisfied".into(),
                    });
                }
            }
            InspectionRule::DoubleEntry {
                column,
                reentry_column,
            } => {
                let a = rel.schema().resolve(column)?;
                let b = rel.schema().resolve(reentry_column)?;
                for (i, row) in rel.iter().enumerate() {
                    if row[a].value != row[b].value {
                        report.violations.push(Violation {
                            row: i,
                            rule: rule.label(),
                            detail: format!(
                                "entries disagree: `{}` vs `{}`",
                                row[a].value, row[b].value
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, Schema};
    use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell};

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    fn rel() -> TaggedRelation {
        let schema = Schema::of(&[
            ("phone", DataType::Text),
            ("phone_reentry", DataType::Text),
        ]);
        TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![
                    QualityCell::bare("555-0100")
                        .with_tag(IndicatorValue::new("collection_method", "over the phone"))
                        .with_tag(IndicatorValue::new("creation_time", d("10-20-91"))),
                    QualityCell::bare("555-0100"),
                ],
                vec![
                    QualityCell::bare("555-0199")
                        .with_tag(IndicatorValue::new("collection_method", "carrier pigeon"))
                        .with_tag(IndicatorValue::new("creation_time", d("1-1-90"))),
                    QualityCell::bare("555-0198"), // double-entry mismatch
                ],
                vec![QualityCell::bare("555-0142"), QualityCell::bare("555-0142")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn required_tag_rule() {
        let insp = Inspector::new().with_rule(InspectionRule::RequiredTag {
            column: "phone".into(),
            indicator: "collection_method".into(),
        });
        let r = insp.inspect(&rel()).unwrap();
        assert_eq!(r.violations.len(), 1); // row 2 untagged
        assert_eq!(r.violations[0].row, 2);
        assert!(!r.passed());
    }

    #[test]
    fn freshness_rule() {
        let insp = Inspector::new().with_rule(InspectionRule::Freshness {
            column: "phone".into(),
            max_age_days: 30,
            as_of: Date::parse("10-24-91").unwrap(),
        });
        let r = insp.inspect(&rel()).unwrap();
        // row 1 is ~662 days old; row 2 has no creation_time
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn tag_domain_rule() {
        let insp = Inspector::new().with_rule(InspectionRule::TagDomain {
            column: "phone".into(),
            indicator: "collection_method".into(),
            allowed: vec![
                Value::text("over the phone"),
                Value::text("from an information service"),
            ],
        });
        let r = insp.inspect(&rel()).unwrap();
        assert_eq!(r.violations.len(), 1); // carrier pigeon
        assert!(r.violations[0].detail.contains("carrier pigeon"));
    }

    #[test]
    fn double_entry_rule() {
        let insp = Inspector::new().with_rule(InspectionRule::DoubleEntry {
            column: "phone".into(),
            reentry_column: "phone_reentry".into(),
        });
        let r = insp.inspect(&rel()).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].row, 1);
    }

    #[test]
    fn front_end_rule_with_quality_predicate() {
        let insp = Inspector::new().with_rule(InspectionRule::FrontEnd {
            name: "recent_or_bust".into(),
            predicate: Expr::col("phone@creation_time").ge(Expr::lit(d("1-1-91"))),
        });
        let r = insp.inspect(&rel()).unwrap();
        // row 1 too old, row 2 untagged (NULL → violation)
        assert_eq!(r.violations.len(), 2);
    }

    /// A front-end rule's violations are the rows the predicate's
    /// verdict drops, by position, duplicate rows included: equal rows
    /// side by side and apart, each reported where it stands.
    #[test]
    fn front_end_violations_are_the_rows_the_verdict_drops() {
        let base = rel();
        let order = [0, 1, 0, 2, 2, 1, 0, 1, 2];
        let rows = order.iter().map(|&i| base.rows()[i].clone()).collect();
        let dups =
            TaggedRelation::new(base.schema().clone(), base.dictionary().clone(), rows).unwrap();
        let predicate = Expr::col("phone@creation_time").ge(Expr::lit(d("1-1-91")));
        let bound = tagstore::Predicate::bind(dups.schema(), dups.dictionary(), &predicate).unwrap();
        let verdict: Vec<usize> = (0..dups.len())
            .filter(|&i| !bound.matches(&dups.rows()[i]).unwrap())
            .collect();
        let insp = Inspector::new().with_rule(InspectionRule::FrontEnd {
            name: "recent_or_bust".into(),
            predicate,
        });
        let report = insp.inspect(&dups).unwrap();
        let rows: Vec<usize> = report.violations.iter().map(|v| v.row).collect();
        assert_eq!(rows, verdict);
        assert_eq!(rows, [1, 3, 4, 5, 7, 8]);
    }

    #[test]
    fn combined_rules_and_rate() {
        let insp = Inspector::new()
            .with_rule(InspectionRule::RequiredTag {
                column: "phone".into(),
                indicator: "collection_method".into(),
            })
            .with_rule(InspectionRule::DoubleEntry {
                column: "phone".into(),
                reentry_column: "phone_reentry".into(),
            });
        let r = insp.inspect(&rel()).unwrap();
        assert_eq!(r.rows_inspected, 3);
        assert_eq!(r.violations.len(), 2);
        // two distinct violating rows out of three
        assert!((r.violation_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_relation_passes() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let empty = TaggedRelation::empty(schema, IndicatorDictionary::with_paper_defaults());
        let insp = Inspector::new().with_rule(InspectionRule::RequiredTag {
            column: "x".into(),
            indicator: "source".into(),
        });
        let r = insp.inspect(&empty).unwrap();
        assert!(r.passed());
        assert_eq!(r.violation_rate(), 0.0);
    }

    #[test]
    fn unknown_column_errors() {
        let insp = Inspector::new().with_rule(InspectionRule::RequiredTag {
            column: "ghost".into(),
            indicator: "source".into(),
        });
        assert!(insp.inspect(&rel()).is_err());
    }
}
