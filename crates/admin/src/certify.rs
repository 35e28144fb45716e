//! Certification workflow: "manual processes for performing certification
//! on the data" (§3.3), with outcomes recorded on the audit trail and as
//! `inspection` tags on the certified column.

use crate::audit::{AuditAction, AuditTrail};
use crate::inspection::{InspectionReport, Inspector};
use relstore::{Date, DbError, DbResult, Value};
use serde::{Deserialize, Serialize};
use tagstore::{IndicatorValue, TaggedRelation};

/// Lifecycle state of a certification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CertState {
    /// Created, inspection not yet run.
    Draft,
    /// Inspection ran; awaiting the administrator's decision.
    UnderReview {
        /// The inspection evidence.
        report: InspectionReport,
    },
    /// Approved.
    Certified {
        /// Approving administrator.
        by: String,
        /// Approval date.
        on: Date,
    },
}

/// A certification case for one `(table, column)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Certification {
    /// Certified table.
    pub table: String,
    /// Certified column.
    pub column: String,
    /// Current state.
    pub state: CertState,
}

impl Certification {
    /// Opens a draft certification.
    pub fn open(table: impl Into<String>, column: impl Into<String>) -> Self {
        Certification {
            table: table.into(),
            column: column.into(),
            state: CertState::Draft,
        }
    }

    /// Runs the inspection, moving Draft → UnderReview. Records an
    /// `Inspect` event.
    pub fn inspect(
        &mut self,
        inspector: &Inspector,
        rel: &TaggedRelation,
        trail: &mut AuditTrail,
        on: Date,
        actor: &str,
    ) -> DbResult<&InspectionReport> {
        if !matches!(self.state, CertState::Draft) {
            return Err(DbError::TransactionError(format!(
                "certification of {}.{} is not in Draft",
                self.table, self.column
            )));
        }
        let report = inspector.inspect(rel)?;
        trail.record(
            on,
            actor,
            AuditAction::Inspect,
            self.table.clone(),
            Vec::new(),
            Some(&self.column),
            format!(
                "inspection: {} rows, {} violations",
                report.rows_inspected,
                report.violations.len()
            ),
        );
        self.state = CertState::UnderReview { report };
        match &self.state {
            CertState::UnderReview { report } => Ok(report),
            _ => unreachable!(),
        }
    }

    /// Approves a clean inspection, moving UnderReview → Certified and
    /// stamping every cell of the column with an `inspection` tag.
    pub fn approve(
        &mut self,
        rel: &mut TaggedRelation,
        trail: &mut AuditTrail,
        on: Date,
        by: &str,
    ) -> DbResult<()> {
        match &self.state {
            CertState::UnderReview { report } if report.passed() => {
                rel.tag_column(
                    &self.column,
                    IndicatorValue::new(
                        "inspection",
                        Value::Text(format!("certified by {by} on {on}")),
                    ),
                )?;
                trail.record(
                    on,
                    by,
                    AuditAction::Certify,
                    self.table.clone(),
                    Vec::new(),
                    Some(&self.column),
                    "certification approved",
                );
                self.state = CertState::Certified {
                    by: by.to_owned(),
                    on,
                };
                Ok(())
            }
            CertState::UnderReview { report } => Err(DbError::ConstraintViolation {
                constraint: "certification".into(),
                detail: format!(
                    "cannot certify with {} open violations",
                    report.violations.len()
                ),
            }),
            _ => Err(DbError::TransactionError(
                "certification is not under review".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspection::InspectionRule;
    use relstore::{DataType, Schema};
    use tagstore::{IndicatorDictionary, QualityCell};

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn clean_rel() -> TaggedRelation {
        let schema = Schema::of(&[("v", DataType::Int)]);
        TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![QualityCell::bare(1i64)
                    .with_tag(IndicatorValue::new("source", "acct'g"))],
                vec![QualityCell::bare(2i64)
                    .with_tag(IndicatorValue::new("source", "acct'g"))],
            ],
        )
        .unwrap()
    }

    fn inspector() -> Inspector {
        Inspector::new().with_rule(InspectionRule::RequiredTag {
            column: "v".into(),
            indicator: "source".into(),
        })
    }

    #[test]
    fn happy_path_certifies_and_tags() {
        let mut rel = clean_rel();
        let mut trail = AuditTrail::new();
        let mut cert = Certification::open("t", "v");
        let report = cert
            .inspect(&inspector(), &rel, &mut trail, d("10-24-91"), "admin")
            .unwrap();
        assert!(report.passed());
        cert.approve(&mut rel, &mut trail, d("10-25-91"), "admin")
            .unwrap();
        assert!(matches!(cert.state, CertState::Certified { .. }));
        // inspection tags stamped
        for i in 0..rel.len() {
            let tag = rel.cell(i, "v").unwrap().tag_value("inspection");
            assert!(tag.to_string().contains("certified by admin"));
        }
        // trail has inspect + certify
        assert_eq!(trail.len(), 2);
    }

    #[test]
    fn dirty_data_cannot_be_certified() {
        let schema = Schema::of(&[("v", DataType::Int)]);
        let mut rel = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![vec![QualityCell::bare(1i64)]], // missing source tag
        )
        .unwrap();
        let mut trail = AuditTrail::new();
        let mut cert = Certification::open("t", "v");
        let report = cert
            .inspect(&inspector(), &rel, &mut trail, d("10-24-91"), "admin")
            .unwrap();
        assert!(!report.passed());
        let e = cert
            .approve(&mut rel, &mut trail, d("10-25-91"), "admin")
            .unwrap_err();
        assert!(matches!(e, DbError::ConstraintViolation { .. }));
    }

    #[test]
    fn state_machine_discipline() {
        let mut rel = clean_rel();
        let mut trail = AuditTrail::new();
        let mut cert = Certification::open("t", "v");
        // cannot approve from Draft
        assert!(cert
            .approve(&mut rel, &mut trail, d("10-25-91"), "admin")
            .is_err());
        cert.inspect(&inspector(), &rel, &mut trail, d("10-24-91"), "admin")
            .unwrap();
        // cannot inspect twice
        assert!(cert
            .inspect(&inspector(), &rel, &mut trail, d("10-24-91"), "admin")
            .is_err());
        cert.approve(&mut rel, &mut trail, d("10-25-91"), "admin")
            .unwrap();
    }
}
