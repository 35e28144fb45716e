//! The four-step data quality requirements analysis methodology
//! (§3, Figure 2).
//!
//! ```text
//! Step 1  application requirements ──▶ application view
//! Step 2  + candidate quality attributes ──▶ parameter view (subjective)
//! Step 3  operationalize parameters ──▶ quality view (objective)
//! Step 4  quality view integration ──▶ quality schema
//! ```
//!
//! Each step consumes the previous step's output and produces an artifact
//! that becomes "part of the quality requirements specification
//! documentation" (emitted by [`crate::spec`]).

use crate::catalog::CandidateCatalog;
use crate::derive::{redundant_indicators, DerivabilityRule};
use crate::views::{
    ApplicationView, IndicatorAnnotation, IntegrationNote, ParameterAnnotation, ParameterView,
    QualitySchema, QualityView, Target, INSPECTION,
};
use er_model::{Correspondences, ErAttribute, ErSchema};
use relstore::{DataType, DbError, DbResult};
use tagstore::IndicatorDef;

/// **Step 1** — establish the application view. "This initial step embodies
/// the traditional data modeling process": we validate the ER schema the
/// design team produced.
pub fn step1_application_view(er: ErSchema) -> DbResult<ApplicationView> {
    er.validate()?;
    Ok(ApplicationView { er })
}

/// **Step 2** builder — determine (subjective) quality parameters.
///
/// For each component of the application view the design team records the
/// parameters needed to support data quality requirements, normally drawn
/// from the candidate catalog (Appendix A) but extensible beyond it.
pub struct Step2 {
    app: ApplicationView,
    catalog: CandidateCatalog,
    annotations: Vec<ParameterAnnotation>,
    allow_custom: bool,
}

impl Step2 {
    /// Starts Step 2 from a Step-1 application view and a candidate
    /// catalog.
    pub fn new(app: ApplicationView, catalog: CandidateCatalog) -> Self {
        Step2 {
            app,
            catalog,
            annotations: Vec::new(),
            allow_custom: false,
        }
    }

    /// Permits parameters not present in the catalog ("the design team may
    /// choose to consider additional parameters not listed").
    pub fn allow_custom_parameters(mut self) -> Self {
        self.allow_custom = true;
        self
    }

    /// Records a quality parameter on a target.
    pub fn parameter(
        mut self,
        target: Target,
        parameter: &str,
        rationale: &str,
    ) -> DbResult<Self> {
        target.validate_in(&self.app.er)?;
        if self.catalog.get(parameter).is_none() && !self.allow_custom {
            return Err(DbError::InvalidExpression(format!(
                "parameter `{parameter}` is not in the candidate catalog \
                 (call allow_custom_parameters() to accept it)"
            )));
        }
        self.annotations.push(ParameterAnnotation {
            target,
            parameter: parameter.to_owned(),
            rationale: rationale.to_owned(),
        });
        Ok(self)
    }

    /// Records the "✓ inspection" requirement on a target.
    pub fn inspection(self, target: Target, rationale: &str) -> DbResult<Self> {
        self.parameter(target, INSPECTION, rationale)
    }

    /// Finishes Step 2, yielding the parameter view.
    pub fn finish(self) -> ParameterView {
        ParameterView {
            app: self.app,
            annotations: self.annotations,
        }
    }
}

/// Default operationalization suggestions: which objective indicators
/// typically measure a given subjective parameter. The design team can
/// accept, amend, or ignore them — they encode the paper's own examples
/// (timeliness→age, credibility→analyst name, telephone→collection
/// method, report→media, inspection→inspection mechanism).
pub fn suggest_indicators(parameter: &str) -> Vec<IndicatorDef> {
    let mk = |n: &str, t: DataType, d: &str| IndicatorDef::new(n, t, d);
    match parameter {
        "timeliness" => vec![
            mk("age", DataType::Int, "days since the datum was created"),
            mk("creation_time", DataType::Date, "when the datum was created"),
        ],
        "credibility" | "source credibility" | "believability" => vec![
            mk("source", DataType::Text, "origin of the datum"),
            mk("analyst", DataType::Text, "author of the report"),
        ],
        "accuracy" => vec![
            mk(
                "collection_method",
                DataType::Text,
                "capture mechanism; each device has inherent accuracy implications",
            ),
            mk(
                "estimation_flag",
                DataType::Bool,
                "whether the value is an estimate",
            ),
        ],
        "cost" => vec![mk(
            "price_paid",
            DataType::Float,
            "monetary price paid for the datum",
        )],
        "interpretability" => vec![
            mk("media", DataType::Text, "storage format of the document"),
            mk("language", DataType::Text, "natural language of the datum"),
        ],
        "completeness" => vec![mk(
            "population_method",
            DataType::Text,
            "the means by which the table was populated indicates its completeness",
        )],
        INSPECTION => vec![mk(
            "inspection",
            DataType::Text,
            "inspection/certification mechanism applied",
        )],
        _ => Vec::new(),
    }
}

/// **Step 3** builder — determine (objective) quality indicators.
pub struct Step3 {
    pv: ParameterView,
    indicators: Vec<IndicatorAnnotation>,
}

impl Step3 {
    /// Starts Step 3 from a Step-2 parameter view.
    pub fn new(pv: ParameterView) -> Self {
        Step3 {
            pv,
            indicators: Vec::new(),
        }
    }

    /// Operationalizes `parameter` on `target` with an explicit indicator.
    pub fn operationalize(
        mut self,
        target: Target,
        parameter: &str,
        def: IndicatorDef,
    ) -> DbResult<Self> {
        target.validate_in(&self.pv.app.er)?;
        if !self
            .pv
            .annotations
            .iter()
            .any(|a| a.target == target && a.parameter == parameter)
        {
            return Err(DbError::InvalidExpression(format!(
                "no parameter `{parameter}` recorded on `{target}` in the parameter view"
            )));
        }
        self.indicators.push(IndicatorAnnotation {
            target,
            def,
            operationalizes: Some(parameter.to_owned()),
        });
        Ok(self)
    }

    /// Operationalizes using the default suggestions for the parameter.
    pub fn operationalize_suggested(mut self, target: Target, parameter: &str) -> DbResult<Self> {
        let suggestions = suggest_indicators(parameter);
        if suggestions.is_empty() {
            return Err(DbError::InvalidExpression(format!(
                "no default indicators known for parameter `{parameter}`; \
                 use operationalize() with an explicit definition"
            )));
        }
        for def in suggestions {
            self = self.operationalize(target.clone(), parameter, def)?;
        }
        Ok(self)
    }

    /// "If a quality parameter is deemed in this step to be sufficiently
    /// objective ... it can remain" — keeps the parameter itself as an
    /// indicator with the given value domain.
    pub fn retain_objective(
        mut self,
        target: Target,
        parameter: &str,
        dtype: DataType,
    ) -> DbResult<Self> {
        target.validate_in(&self.pv.app.er)?;
        let ann = self
            .pv
            .annotations
            .iter()
            .find(|a| a.target == target && a.parameter == parameter)
            .ok_or_else(|| {
                DbError::InvalidExpression(format!(
                    "no parameter `{parameter}` recorded on `{target}`"
                ))
            })?;
        self.indicators.push(IndicatorAnnotation {
            target,
            def: IndicatorDef::new(parameter, dtype, ann.rationale.clone()),
            operationalizes: Some(parameter.to_owned()),
        });
        Ok(self)
    }

    /// Adds an indicator with no corresponding parameter (the paper's
    /// quality view includes e.g. `company_name` purely "to enhance the
    /// interpretability of ticker symbol").
    #[cfg(test)]
    pub fn indicator(mut self, target: Target, def: IndicatorDef) -> DbResult<Self> {
        target.validate_in(&self.pv.app.er)?;
        self.indicators.push(IndicatorAnnotation {
            target,
            def,
            operationalizes: None,
        });
        Ok(self)
    }

    /// Finishes Step 3. Every recorded parameter must have been
    /// operationalized (or explicitly retained); otherwise the quality
    /// view would silently lose a documented requirement.
    pub fn finish(self) -> DbResult<QualityView> {
        for p in &self.pv.annotations {
            let covered = self.indicators.iter().any(|i| {
                i.target == p.target && i.operationalizes.as_deref() == Some(p.parameter.as_str())
            });
            if !covered {
                return Err(DbError::InvalidExpression(format!(
                    "parameter `{}` on `{}` was never operationalized in Step 3",
                    p.parameter, p.target
                )));
            }
        }
        Ok(QualityView {
            app: self.pv.app,
            parameters: self.pv.annotations,
            indicators: self.indicators,
        })
    }
}

/// **Step 4** — quality view integration. Merges multiple quality views
/// into one quality schema: ER schemas integrate (Batini-style, with
/// synonym correspondences), indicator annotations union with duplicate
/// elimination, and derivability rules collapse redundant indicators
/// (the paper's age-vs-creation-time example).
pub fn step4_integrate(
    name: &str,
    views: &[&QualityView],
    corr: &Correspondences,
    rules: &[DerivabilityRule],
) -> DbResult<QualitySchema> {
    if views.is_empty() {
        return Err(DbError::InvalidExpression(
            "step 4 requires at least one quality view".into(),
        ));
    }
    let mut notes: Vec<IntegrationNote> = Vec::new();

    // 1. Integrate the application schemas.
    let er_views: Vec<&ErSchema> = views.iter().map(|v| &v.app.er).collect();
    let integrated = er_model::integrate(name, &er_views, corr)?;
    for c in &integrated.conflicts {
        notes.push(IntegrationNote {
            category: "conflict".into(),
            detail: c.to_string(),
        });
    }

    // 2. Union indicator annotations (canonicalizing entity names),
    //    deduplicating identical ones and rejecting contradictory
    //    definitions of the same indicator name.
    let canon_target = |t: &Target| -> Target {
        match t {
            Target::Entity(e) => Target::Entity(corr.canonical(e).to_owned()),
            Target::Relationship(r) => Target::Relationship(r.clone()),
            Target::Attribute(o, a) => Target::Attribute(corr.canonical(o).to_owned(), a.clone()),
        }
    };
    let mut indicators: Vec<IndicatorAnnotation> = Vec::new();
    let mut parameters: Vec<ParameterAnnotation> = Vec::new();
    for v in views {
        for p in &v.parameters {
            let mut p = p.clone();
            p.target = canon_target(&p.target);
            if !parameters.contains(&p) {
                parameters.push(p);
            }
        }
        for i in &v.indicators {
            let mut i = i.clone();
            i.target = canon_target(&i.target);
            match indicators
                .iter()
                .find(|x| x.target == i.target && x.def.name == i.def.name)
            {
                None => indicators.push(i),
                Some(existing) if existing.def == i.def => {
                    notes.push(IntegrationNote {
                        category: "union".into(),
                        detail: format!(
                            "indicator `{}` on `{}` contributed by multiple views",
                            i.def.name, i.target
                        ),
                    });
                }
                Some(existing) => {
                    return Err(DbError::InvalidExpression(format!(
                        "indicator `{}` on `{}` declared with conflicting domains ({} vs {})",
                        i.def.name, i.target, existing.def.dtype, i.def.dtype
                    )))
                }
            }
        }
    }

    // 3. Derivability collapse, per target.
    let mut targets: Vec<Target> = indicators.iter().map(|i| i.target.clone()).collect();
    targets.sort();
    targets.dedup();
    for t in targets {
        let present: Vec<&str> = indicators
            .iter()
            .filter(|i| i.target == t)
            .map(|i| i.def.name.as_str())
            .collect();
        let redundant: Vec<(String, String)> = redundant_indicators(&present, rules)
            .into_iter()
            .map(|(n, r)| (n.to_owned(), r.how.clone()))
            .collect();
        for (victim, how) in redundant {
            indicators.retain(|i| !(i.target == t && i.def.name == victim));
            notes.push(IntegrationNote {
                category: "derivability".into(),
                detail: format!(
                    "dropped `{victim}` on `{t}`: derivable ({how})"
                ),
            });
        }
    }

    Ok(QualitySchema {
        name: name.to_owned(),
        er: integrated.schema,
        indicators,
        parameters,
        notes,
    })
}

/// Structural re-examination (Step 4 / Premise 1.1): promotes an indicator
/// into an application attribute of the entity it annotates — the paper's
/// example moves `company_name` from a quality indicator on
/// `ticker_symbol` to an entity attribute of `company_stock`.
pub fn promote_indicator_to_attribute(
    qs: &mut QualitySchema,
    target: &Target,
    indicator: &str,
) -> DbResult<()> {
    let pos = qs
        .indicators
        .iter()
        .position(|i| &i.target == target && i.def.name == indicator)
        .ok_or_else(|| {
            DbError::InvalidExpression(format!("no indicator `{indicator}` on `{target}`"))
        })?;
    let entity_name = match target {
        Target::Entity(e) => e.clone(),
        Target::Attribute(owner, _) => owner.clone(),
        Target::Relationship(_) => {
            return Err(DbError::InvalidExpression(
                "cannot promote a relationship-level indicator to an entity attribute".into(),
            ))
        }
    };
    let ann = qs.indicators.remove(pos);
    let entity = qs.er.entity_mut(&entity_name).ok_or_else(|| {
        DbError::UnknownTable(format!("entity `{entity_name}` not in quality schema"))
    })?;
    if entity.attribute(&ann.def.name).is_some() {
        return Err(DbError::DuplicateColumn(format!(
            "{entity_name}.{}",
            ann.def.name
        )));
    }
    entity
        .attributes
        .push(ErAttribute::new(ann.def.name.clone(), ann.def.dtype));
    qs.notes.push(IntegrationNote {
        category: "promotion".into(),
        detail: format!(
            "promoted indicator `{}` on `{target}` to application attribute `{entity_name}.{}` \
             (Premise 1.1: application and quality attributes are not always distinct)",
            ann.def.name, ann.def.name
        ),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Cardinality, EntityType, RelationshipType};

    fn er() -> ErSchema {
        ErSchema::new("trading")
            .with_entity(
                EntityType::new("company_stock")
                    .with(ErAttribute::key("ticker_symbol", DataType::Text))
                    .with(ErAttribute::new("share_price", DataType::Float))
                    .with(ErAttribute::new("research_report", DataType::Text)),
            )
            .with_entity(
                EntityType::new("client")
                    .with(ErAttribute::key("account_number", DataType::Int))
                    .with(ErAttribute::new("telephone", DataType::Text)),
            )
            .with_relationship(
                RelationshipType::binary(
                    "trade",
                    ("client", Cardinality::Many),
                    ("company_stock", Cardinality::Many),
                )
                .with(ErAttribute::new("quantity", DataType::Int)),
            )
    }

    fn paper_quality_view() -> QualityView {
        let app = step1_application_view(er()).unwrap();
        let pv = Step2::new(app, CandidateCatalog::appendix_a())
            .parameter(
                Target::attr("company_stock", "share_price"),
                "timeliness",
                "the user is concerned with how old the data is",
            )
            .unwrap()
            .parameter(
                Target::attr("company_stock", "research_report"),
                "credibility",
                "trader trusts named analysts",
            )
            .unwrap()
            .parameter(
                Target::attr("company_stock", "research_report"),
                "cost",
                "the user is concerned with the price of the data",
            )
            .unwrap()
            .inspection(
                Target::Relationship("trade".into()),
                "trades must be verifiable",
            )
            .unwrap()
            .parameter(
                Target::attr("client", "telephone"),
                "accuracy",
                "collection mechanism affects accuracy",
            )
            .unwrap()
            .finish();

        Step3::new(pv)
            .operationalize(
                Target::attr("company_stock", "share_price"),
                "timeliness",
                IndicatorDef::new("age", DataType::Int, "days old"),
            )
            .unwrap()
            .operationalize(
                Target::attr("company_stock", "research_report"),
                "credibility",
                IndicatorDef::new("analyst", DataType::Text, "report author"),
            )
            .unwrap()
            .retain_objective(
                Target::attr("company_stock", "research_report"),
                "cost",
                DataType::Float,
            )
            .unwrap()
            .operationalize(
                Target::attr("client", "telephone"),
                "accuracy",
                IndicatorDef::new(
                    "collection_method",
                    DataType::Text,
                    "over the phone / from an information service",
                ),
            )
            .unwrap()
            .operationalize_suggested(Target::Relationship("trade".into()), INSPECTION)
            .unwrap()
            .indicator(
                Target::attr("company_stock", "research_report"),
                IndicatorDef::new("media", DataType::Text, "ASCII / bitmap / postscript"),
            )
            .unwrap()
            .indicator(
                Target::attr("company_stock", "ticker_symbol"),
                IndicatorDef::new("company_name", DataType::Text, "enhances interpretability"),
            )
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn step1_validates() {
        assert!(step1_application_view(er()).is_ok());
        let bad = ErSchema::new("bad")
            .with_entity(EntityType::new("e").with(ErAttribute::new("x", DataType::Int)));
        assert!(step1_application_view(bad).is_err());
    }

    #[test]
    fn step2_rejects_unknown_targets_and_parameters() {
        let app = step1_application_view(er()).unwrap();
        let s2 = Step2::new(app.clone(), CandidateCatalog::appendix_a());
        assert!(s2
            .parameter(Target::Entity("ghost".into()), "timeliness", "")
            .is_err());
        let s2 = Step2::new(app.clone(), CandidateCatalog::appendix_a());
        assert!(s2
            .parameter(Target::Entity("client".into()), "sparkle", "")
            .is_err());
        // custom allowed when opted in
        let s2 = Step2::new(app, CandidateCatalog::appendix_a()).allow_custom_parameters();
        assert!(s2
            .parameter(Target::Entity("client".into()), "sparkle", "")
            .is_ok());
    }

    #[test]
    fn step3_requires_matching_parameter() {
        let app = step1_application_view(er()).unwrap();
        let pv = Step2::new(app, CandidateCatalog::appendix_a()).finish();
        let s3 = Step3::new(pv);
        assert!(s3
            .operationalize(
                Target::attr("company_stock", "share_price"),
                "timeliness",
                IndicatorDef::new("age", DataType::Int, ""),
            )
            .is_err());
    }

    #[test]
    fn step3_finish_requires_coverage() {
        let app = step1_application_view(er()).unwrap();
        let pv = Step2::new(app, CandidateCatalog::appendix_a())
            .parameter(
                Target::attr("company_stock", "share_price"),
                "timeliness",
                "",
            )
            .unwrap()
            .finish();
        // no operationalization → finish fails
        assert!(Step3::new(pv.clone()).finish().is_err());
        // operationalized → ok
        let qv = Step3::new(pv)
            .operationalize_suggested(Target::attr("company_stock", "share_price"), "timeliness")
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(qv.indicators.len(), 2); // age + creation_time suggested
    }

    #[test]
    fn full_paper_pipeline() {
        let qv = paper_quality_view();
        assert_eq!(qv.parameters.len(), 5);
        let report = Target::attr("company_stock", "research_report");
        assert!(qv
            .indicators
            .iter()
            .any(|i| i.target == report && i.def.name == "media"));

        let qs = step4_integrate(
            "trading_quality",
            &[&qv],
            &Correspondences::new(),
            &crate::derive::default_rules(),
        )
        .unwrap();
        assert!(qs.indicator_names().contains(&"age"));
        assert!(qs.indicator_names().contains(&"collection_method"));
        let dict = qs.indicator_dictionary().unwrap();
        assert!(dict.get("analyst").is_some());
    }

    #[test]
    fn step4_derivability_collapse() {
        // View A tags share_price with age; view B with creation_time.
        let app = step1_application_view(er()).unwrap();
        let mk_view = |ind: &str, dtype: DataType| {
            let pv = Step2::new(app.clone(), CandidateCatalog::appendix_a())
                .parameter(
                    Target::attr("company_stock", "share_price"),
                    "timeliness",
                    "",
                )
                .unwrap()
                .finish();
            Step3::new(pv)
                .operationalize(
                    Target::attr("company_stock", "share_price"),
                    "timeliness",
                    IndicatorDef::new(ind, dtype, ""),
                )
                .unwrap()
                .finish()
                .unwrap()
        };
        let va = mk_view("age", DataType::Int);
        let vb = mk_view("creation_time", DataType::Date);
        let qs = step4_integrate(
            "g",
            &[&va, &vb],
            &Correspondences::new(),
            &crate::derive::default_rules(),
        )
        .unwrap();
        // paper: keep creation_time, drop age
        assert_eq!(qs.indicator_names(), vec!["creation_time"]);
        assert!(qs
            .notes
            .iter()
            .any(|n| n.category == "derivability" && n.detail.contains("age")));
    }

    #[test]
    fn step4_conflicting_indicator_domains_fatal() {
        let app = step1_application_view(er()).unwrap();
        let mk_view = |dtype: DataType| {
            let pv = Step2::new(app.clone(), CandidateCatalog::appendix_a())
                .parameter(
                    Target::attr("company_stock", "share_price"),
                    "timeliness",
                    "",
                )
                .unwrap()
                .finish();
            Step3::new(pv)
                .operationalize(
                    Target::attr("company_stock", "share_price"),
                    "timeliness",
                    IndicatorDef::new("age", dtype, ""),
                )
                .unwrap()
                .finish()
                .unwrap()
        };
        let va = mk_view(DataType::Int);
        let vb = mk_view(DataType::Text);
        assert!(step4_integrate(
            "g",
            &[&va, &vb],
            &Correspondences::new(),
            &crate::derive::default_rules()
        )
        .is_err());
    }

    #[test]
    fn step4_single_view_identity_with_dedup_note() {
        let qv = paper_quality_view();
        let qs = step4_integrate("g", &[&qv, &qv], &Correspondences::new(), &[]).unwrap();
        // integrating a view with itself adds nothing
        let qs_single = step4_integrate("g", &[&qv], &Correspondences::new(), &[]).unwrap();
        assert_eq!(qs.indicators, qs_single.indicators);
        assert!(qs.notes.iter().any(|n| n.category == "union"));
    }

    #[test]
    fn promotion_moves_indicator_into_er() {
        let qv = paper_quality_view();
        let mut qs = step4_integrate("g", &[&qv], &Correspondences::new(), &[]).unwrap();
        let target = Target::attr("company_stock", "ticker_symbol");
        promote_indicator_to_attribute(&mut qs, &target, "company_name").unwrap();
        // the ER schema gained the attribute...
        assert!(qs
            .er
            .entity("company_stock")
            .unwrap()
            .attribute("company_name")
            .is_some());
        // ...and the indicator is gone
        assert!(!qs.indicator_names().contains(&"company_name"));
        assert!(qs.notes.iter().any(|n| n.category == "promotion"));
        // promoting twice fails
        assert!(promote_indicator_to_attribute(&mut qs, &target, "company_name").is_err());
    }

    #[test]
    fn step4_empty_views_rejected() {
        assert!(step4_integrate("g", &[], &Correspondences::new(), &[]).is_err());
    }

    #[test]
    fn suggestions_cover_paper_parameters() {
        for p in ["timeliness", "credibility", "accuracy", "cost", INSPECTION] {
            assert!(!suggest_indicators(p).is_empty(), "no suggestion for {p}");
        }
        assert!(suggest_indicators("sparkle").is_empty());
    }
}
