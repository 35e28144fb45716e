//! User quality profiles: per-user, per-application acceptability
//! standards over quality indicators.
//!
//! Premise 2.1/2.2: different users have different quality attributes and
//! standards; §4: "Data quality profiles may be stored for different
//! applications" — a mass-mailing application queries with no quality
//! constraints, a fund-raising application constrains accuracy and
//! timeliness. A [`UserProfile`] is a named bundle of
//! [`QualityStandard`]s that compiles to a predicate over
//! `column@indicator` pseudo-columns and filters tagged relations.

use relstore::{DbResult, Expr, Value};
use serde::{Deserialize, Serialize};
use tagstore::{selection_columnar, ColumnarRelation, IndicatorDictionary, TaggedRelation};
use tagstore::{DEFAULT_BATCH_SIZE, TAG_SEP};

/// Comparison operator of a standard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StandardOp {
    /// Indicator value must equal the threshold.
    Eq,
    /// Must differ from the threshold.
    Ne,
    /// Must be strictly less.
    Lt,
    /// Must be at most.
    Le,
    /// Must be strictly greater.
    Gt,
    /// Must be at least.
    Ge,
    /// Must be one of the listed values.
    OneOf(Vec<Value>),
}

/// One acceptability constraint: `column@indicator ⟨op⟩ threshold`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityStandard {
    /// Application column the standard governs.
    pub column: String,
    /// Quality indicator constrained.
    pub indicator: String,
    /// Comparison.
    pub op: StandardOp,
    /// Threshold (ignored for `OneOf`).
    pub threshold: Value,
    /// Optional *instance scope* (Premise 3): the standard applies only to
    /// rows satisfying this application-value predicate — "an analyst may
    /// need higher quality information for certain companies than for
    /// others".
    pub scope: Option<Expr>,
}

impl QualityStandard {
    /// Unscoped standard.
    pub fn new(
        column: impl Into<String>,
        indicator: impl Into<String>,
        op: StandardOp,
        threshold: impl Into<Value>,
    ) -> Self {
        QualityStandard {
            column: column.into(),
            indicator: indicator.into(),
            op,
            threshold: threshold.into(),
            scope: None,
        }
    }

    /// Compiles to an expression over the tagged relation's pseudo-schema.
    /// A scoped standard becomes `NOT scope OR constraint` — rows outside
    /// the scope pass unconditionally.
    pub fn to_expr(&self) -> Expr {
        let pseudo = Expr::col(format!("{}@{}", self.column, self.indicator));
        let constraint = match &self.op {
            StandardOp::Eq => pseudo.eq(Expr::lit(self.threshold.clone())),
            StandardOp::Ne => pseudo.ne(Expr::lit(self.threshold.clone())),
            StandardOp::Lt => pseudo.lt(Expr::lit(self.threshold.clone())),
            StandardOp::Le => pseudo.le(Expr::lit(self.threshold.clone())),
            StandardOp::Gt => pseudo.gt(Expr::lit(self.threshold.clone())),
            StandardOp::Ge => pseudo.ge(Expr::lit(self.threshold.clone())),
            StandardOp::OneOf(vals) => Expr::InList(
                Box::new(pseudo),
                vals.iter().cloned().map(Expr::lit).collect(),
            ),
        };
        match &self.scope {
            None => constraint,
            Some(s) => s.clone().not().or(constraint),
        }
    }
}

/// A named user/application profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Who (or which application) this profile belongs to.
    pub user: String,
    /// Prose description of the usage context.
    pub description: String,
    /// Acceptability standards; all must hold (conjunction).
    pub standards: Vec<QualityStandard>,
}

impl UserProfile {
    /// New empty profile — "a query with no constraints over quality
    /// indicators" (the mass-mailing grade).
    pub fn new(user: impl Into<String>, description: impl Into<String>) -> Self {
        UserProfile {
            user: user.into(),
            description: description.into(),
            standards: Vec::new(),
        }
    }

    /// Adds a standard (builder style).
    pub fn with_standard(mut self, s: QualityStandard) -> Self {
        self.standards.push(s);
        self
    }

    /// The conjunction predicate, or `None` for the unconstrained profile.
    pub fn to_predicate(&self) -> Option<Expr> {
        let mut it = self.standards.iter().map(QualityStandard::to_expr);
        let first = it.next()?;
        Some(it.fold(first, |acc, e| acc.and(e)))
    }

    /// Filters a tagged relation to the rows meeting this profile's
    /// standards, by the columnar σ over its layout. The unconstrained
    /// profile passes everything.
    pub fn filter(&self, rel: &TaggedRelation) -> DbResult<TaggedRelation> {
        let Some(p) = self.to_predicate() else {
            return Ok(rel.clone());
        };
        let layout = ColumnarRelation::from_tagged(rel);
        let (kept, _) = selection_columnar(&layout, &p, DEFAULT_BATCH_SIZE)?;
        Ok(layout.gather(&kept))
    }

    /// The profile's default `WITH QUALITY` predicate *for one table*:
    /// the conjunction of standards whose column exists in `schema` and
    /// whose indicator `dictionary` declares. Other standards are
    /// skipped — a profile spans every table its user touches, and a
    /// session applying it to `stocks` must not fail because the profile
    /// also constrains `addresses.address`, or an indicator only
    /// `addresses` records. Returns `None` when no standard applies (the
    /// mass-mailing grade for this table).
    pub fn default_quality_for(
        &self,
        schema: &relstore::Schema,
        dictionary: &IndicatorDictionary,
    ) -> Option<Expr> {
        let applies = |s: &&QualityStandard| {
            schema.index_of(&s.column).is_some()
                && s.indicator.split(TAG_SEP).all(|ind| dictionary.get(ind).is_some())
        };
        let mut it = self
            .standards
            .iter()
            .filter(applies)
            .map(QualityStandard::to_expr);
        let first = it.next()?;
        Some(it.fold(first, |acc, e| acc.and(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, Date, Schema};
    use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell};

    fn addresses() -> TaggedRelation {
        let schema = Schema::of(&[("person", DataType::Text), ("address", DataType::Text)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let d = |s: &str| Value::Date(Date::parse(s).unwrap());
        let mk = |p: &str, a: &str, ct: &str, src: &str| {
            vec![
                QualityCell::bare(p),
                QualityCell::bare(a)
                    .with_tag(IndicatorValue::new("creation_time", d(ct)))
                    .with_tag(IndicatorValue::new("source", src)),
            ]
        };
        TaggedRelation::new(
            schema,
            dict,
            vec![
                mk("Ann", "1 Elm St", "10-20-91", "change-of-address form"),
                mk("Bob", "9 Oak Av", "1-2-88", "purchased list"),
                mk("Cyd", "3 Fir Rd", "10-1-91", "purchased list"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mass_mailing_profile_passes_everything() {
        // §4: "For a mass mailing application there may be no need to reach
        // the correct individual ... a query with no constraints over
        // quality indicators may be appropriate."
        let p = UserProfile::new("mass_mailing", "bulk flyers");
        assert!(p.to_predicate().is_none());
        assert_eq!(p.filter(&addresses()).unwrap().len(), 3);
    }

    #[test]
    fn fund_raising_profile_constrains_quality() {
        // §4: "For more sensitive applications, such as fund raising, the
        // user may query over and constrain quality indicator values."
        let p = UserProfile::new("fund_raising", "solicit major donors")
            .with_standard(QualityStandard::new(
                "address",
                "creation_time",
                StandardOp::Ge,
                Value::Date(Date::parse("1-1-91").unwrap()),
            ))
            .with_standard(QualityStandard::new(
                "address",
                "source",
                StandardOp::Ne,
                "purchased list",
            ));
        let out = p.filter(&addresses()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "person").unwrap().value, Value::text("Ann"));
    }

    #[test]
    fn different_users_different_standards() {
        // Premise 2.2: investor tolerates 10-day-old data, trader does not.
        let mut rel = addresses();
        tagstore::algebra::derive_age(&mut rel, "address", Date::parse("10-24-91").unwrap())
            .unwrap();
        let investor = UserProfile::new("investor", "loosely following")
            .with_standard(QualityStandard::new("address", "age", StandardOp::Le, 30i64));
        let trader = UserProfile::new("trader", "needs real time")
            .with_standard(QualityStandard::new("address", "age", StandardOp::Le, 5i64));
        assert_eq!(investor.filter(&rel).unwrap().len(), 2);
        assert_eq!(trader.filter(&rel).unwrap().len(), 1);
    }

    #[test]
    fn one_of_standard() {
        let p = UserProfile::new("u", "").with_standard(QualityStandard::new(
            "address",
            "source",
            StandardOp::OneOf(vec![
                Value::text("change-of-address form"),
                Value::text("registry"),
            ]),
            Value::Null,
        ));
        assert_eq!(p.filter(&addresses()).unwrap().len(), 1);
    }

    #[test]
    fn standards_conjoin() {
        let p = UserProfile::new("u", "")
            .with_standard(QualityStandard::new(
                "address",
                "source",
                StandardOp::Eq,
                "purchased list",
            ))
            .with_standard(QualityStandard::new(
                "address",
                "creation_time",
                StandardOp::Ge,
                Value::Date(Date::parse("1-1-91").unwrap()),
            ));
        let out = p.filter(&addresses()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "person").unwrap().value, Value::text("Cyd"));
    }

    /// A standard over an indicator the table's dictionary does not
    /// declare is skipped for that table, as a foreign column is: the
    /// query binds only what the table can carry.
    #[test]
    fn default_quality_skips_undeclared_indicators() {
        use tagstore::IndicatorDef;
        let p = UserProfile::new("auditor", "")
            .with_standard(QualityStandard::new("address", "age", StandardOp::Le, 5i64))
            .with_standard(QualityStandard::new("address", "audit_grade", StandardOp::Eq, "A"));
        let schema = Schema::of(&[("address", DataType::Text)]);
        let mut dict = IndicatorDictionary::with_paper_defaults();
        assert_eq!(
            p.default_quality_for(&schema, &dict),
            Some(Expr::col("address@age").le(Expr::lit(5i64)))
        );
        dict.declare(IndicatorDef::new("audit_grade", DataType::Text, "")).unwrap();
        let both = p.default_quality_for(&schema, &dict).unwrap();
        assert_eq!(both.referenced_columns(), vec!["address@age", "address@audit_grade"]);
        assert_eq!(p.default_quality_for(&schema, &IndicatorDictionary::new()), None);
    }

    #[test]
    fn default_quality_skips_foreign_columns() {
        let p = UserProfile::new("trader", "multi-table profile")
            .with_standard(QualityStandard::new("address", "age", StandardOp::Le, 5i64))
            .with_standard(QualityStandard::new(
                "share_price",
                "age",
                StandardOp::Le,
                1i64,
            ));
        let addr_schema =
            Schema::of(&[("person", DataType::Text), ("address", DataType::Text)]);
        let stock_schema =
            Schema::of(&[("ticker", DataType::Text), ("share_price", DataType::Float)]);
        let unrelated = Schema::of(&[("id", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        // only the standard over a column the table actually has applies
        assert_eq!(
            p.default_quality_for(&addr_schema, &dict),
            Some(Expr::col("address@age").le(Expr::lit(5i64)))
        );
        assert_eq!(
            p.default_quality_for(&stock_schema, &dict),
            Some(Expr::col("share_price@age").le(Expr::lit(1i64)))
        );
        assert_eq!(p.default_quality_for(&unrelated, &dict), None);
        assert_eq!(
            UserProfile::new("mass_mailing", "").default_quality_for(&addr_schema, &dict),
            None
        );
    }

    #[test]
    fn untagged_rows_fail_standards() {
        let mut rel = addresses();
        rel.push(vec![QualityCell::bare("Dee"), QualityCell::bare("7 Ash Ln")])
            .unwrap();
        let p = UserProfile::new("u", "").with_standard(QualityStandard::new(
            "address",
            "source",
            StandardOp::Ne,
            "nowhere",
        ));
        // Dee's address has no source tag → cannot satisfy any standard
        assert_eq!(p.filter(&rel).unwrap().len(), 3);
    }
}
