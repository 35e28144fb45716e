//! The methodology's intermediate artifacts: application view, parameter
//! view, quality view, and the integrated quality schema (Figure 2).

use er_model::ErSchema;
use relstore::{DbError, DbResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use tagstore::{IndicatorDef, IndicatorDictionary};

/// The special parameter spelled "✓ inspection" in Figures 4–5, signifying
/// inspection (data verification) requirements.
pub const INSPECTION: &str = "inspection";

/// An element of the application view a quality annotation can attach to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Target {
    /// A whole entity.
    Entity(String),
    /// One attribute of an entity or relationship: `(owner, attribute)`.
    Attribute(String, String),
    /// A whole relationship.
    Relationship(String),
}

impl Target {
    /// `owner.attribute` shorthand.
    pub fn attr(owner: impl Into<String>, attribute: impl Into<String>) -> Self {
        Target::Attribute(owner.into(), attribute.into())
    }

    /// Checks that the target exists in the given ER schema.
    pub fn validate_in(&self, er: &ErSchema) -> DbResult<()> {
        let ok = match self {
            Target::Entity(e) => er.entity(e).is_some(),
            Target::Relationship(r) => er.relationship(r).is_some(),
            Target::Attribute(owner, attr) => {
                er.entity(owner)
                    .map(|e| e.attribute(attr).is_some())
                    .unwrap_or(false)
                    || er
                        .relationship(owner)
                        .map(|r| r.attributes.iter().any(|a| &a.name == attr))
                        .unwrap_or(false)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(DbError::InvalidExpression(format!(
                "annotation target `{self}` not found in application view"
            )))
        }
    }

    /// The render-layer target string (`owner.attr`, or bare name).
    pub fn render_key(&self) -> String {
        match self {
            Target::Entity(e) => e.clone(),
            Target::Relationship(r) => r.clone(),
            Target::Attribute(o, a) => format!("{o}.{a}"),
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Entity(e) => write!(f, "entity {e}"),
            Target::Relationship(r) => write!(f, "relationship {r}"),
            Target::Attribute(o, a) => write!(f, "{o}.{a}"),
        }
    }
}

/// Step-1 output: the validated application view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationView {
    /// The underlying ER schema.
    pub er: ErSchema,
}

/// One subjective quality requirement attached to an application element
/// (a "cloud" in Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterAnnotation {
    /// Where the concern attaches.
    pub target: Target,
    /// The quality parameter (usually from the Appendix-A catalog).
    pub parameter: String,
    /// Why the design team recorded it — part of the requirements
    /// specification documentation.
    pub rationale: String,
}

/// Step-2 output: application view + subjective quality parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterView {
    /// The underlying application view.
    pub app: ApplicationView,
    /// Parameter annotations ("clouds").
    pub annotations: Vec<ParameterAnnotation>,
}

impl ParameterView {
    /// Annotations attached to a given target.
    pub fn parameters_on(&self, target: &Target) -> Vec<&ParameterAnnotation> {
        self.annotations
            .iter()
            .filter(|a| &a.target == target)
            .collect()
    }

    /// True iff an inspection requirement is recorded anywhere.
    pub fn has_inspection(&self) -> bool {
        self.annotations.iter().any(|a| a.parameter == INSPECTION)
    }
}

/// One objective indicator attached to an application element
/// (a dotted rectangle in Figure 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndicatorAnnotation {
    /// Where the indicator attaches.
    pub target: Target,
    /// The indicator's declaration (name, domain, meaning).
    pub def: IndicatorDef,
    /// Which subjective parameter this indicator operationalizes, if the
    /// annotation arose from Step 3 (an indicator that "remained" from an
    /// already-objective parameter operationalizes itself).
    pub operationalizes: Option<String>,
}

/// Step-3 output: application view + objective quality indicators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityView {
    /// The underlying application view.
    pub app: ApplicationView,
    /// The parameter view this quality view operationalized (retained
    /// because "the resulting quality view, together with the parameter
    /// view, should be included as part of the quality requirements
    /// specification documentation").
    pub parameters: Vec<ParameterAnnotation>,
    /// Indicator annotations.
    pub indicators: Vec<IndicatorAnnotation>,
}

/// A note recorded during Step-4 integration (derivability collapse,
/// structural re-examination, conflict resolution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrationNote {
    /// Short machine-readable category: `derivability`, `promotion`,
    /// `conflict`, `union`.
    pub category: String,
    /// Human-readable explanation.
    pub detail: String,
}

/// Step-4 output: the integrated quality schema — "documents both
/// application data requirements and data quality issues considered
/// important by the design team".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySchema {
    /// Schema name.
    pub name: String,
    /// Integrated application schema.
    pub er: ErSchema,
    /// Integrated indicator annotations.
    pub indicators: Vec<IndicatorAnnotation>,
    /// All parameter annotations from the component views (documentation).
    pub parameters: Vec<ParameterAnnotation>,
    /// What happened during integration.
    pub notes: Vec<IntegrationNote>,
}

impl QualitySchema {
    /// The indicator dictionary to configure `tagstore` with — this is how
    /// the quality schema "guides the design team as to which tags to
    /// incorporate into the database".
    pub fn indicator_dictionary(&self) -> DbResult<IndicatorDictionary> {
        let mut d = IndicatorDictionary::new();
        for ann in &self.indicators {
            d.declare(ann.def.clone())?;
        }
        Ok(d)
    }

    /// All distinct indicator names in the schema.
    pub fn indicator_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .indicators
            .iter()
            .map(|a| a.def.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Kind statistics: `(parameters documented, indicators integrated)`.
    pub fn census(&self) -> (usize, usize) {
        (self.parameters.len(), self.indicators.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Cardinality, EntityType, ErAttribute, RelationshipType};
    use relstore::DataType;

    fn er() -> ErSchema {
        ErSchema::new("trading")
            .with_entity(
                EntityType::new("company_stock")
                    .with(ErAttribute::key("ticker_symbol", DataType::Text))
                    .with(ErAttribute::new("share_price", DataType::Float)),
            )
            .with_entity(
                EntityType::new("client").with(ErAttribute::key("account_number", DataType::Int)),
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

    #[test]
    fn target_validation() {
        let s = er();
        Target::Entity("client".into()).validate_in(&s).unwrap();
        Target::Relationship("trade".into()).validate_in(&s).unwrap();
        Target::attr("company_stock", "share_price")
            .validate_in(&s)
            .unwrap();
        Target::attr("trade", "quantity").validate_in(&s).unwrap();
        assert!(Target::Entity("ghost".into()).validate_in(&s).is_err());
        assert!(Target::attr("client", "ghost").validate_in(&s).is_err());
        assert!(Target::attr("ghost", "x").validate_in(&s).is_err());
    }

    #[test]
    fn target_display_and_render_key() {
        let t = Target::attr("company_stock", "share_price");
        assert_eq!(t.to_string(), "company_stock.share_price");
        assert_eq!(t.render_key(), "company_stock.share_price");
        assert_eq!(Target::Entity("client".into()).render_key(), "client");
    }

    #[test]
    fn parameter_view_queries() {
        let pv = ParameterView {
            app: ApplicationView { er: er() },
            annotations: vec![
                ParameterAnnotation {
                    target: Target::attr("company_stock", "share_price"),
                    parameter: "timeliness".into(),
                    rationale: "trader needs fresh quotes".into(),
                },
                ParameterAnnotation {
                    target: Target::Relationship("trade".into()),
                    parameter: INSPECTION.into(),
                    rationale: "trades must be verifiable".into(),
                },
            ],
        };
        assert_eq!(
            pv.parameters_on(&Target::attr("company_stock", "share_price"))
                .len(),
            1
        );
        assert!(pv.has_inspection());
    }

    #[test]
    fn quality_schema_dictionary() {
        let qs = QualitySchema {
            name: "g".into(),
            er: er(),
            indicators: vec![
                IndicatorAnnotation {
                    target: Target::attr("company_stock", "share_price"),
                    def: IndicatorDef::new("age", DataType::Int, "days old"),
                    operationalizes: Some("timeliness".into()),
                },
                IndicatorAnnotation {
                    target: Target::attr("company_stock", "share_price"),
                    def: IndicatorDef::new("source", DataType::Text, "feed"),
                    operationalizes: Some("credibility".into()),
                },
            ],
            parameters: vec![],
            notes: vec![],
        };
        let d = qs.indicator_dictionary().unwrap();
        assert!(d.get("age").is_some());
        assert!(d.get("source").is_some());
        assert_eq!(qs.indicator_names(), vec!["age", "source"]);
        assert_eq!(qs.census(), (0, 2));
    }

    #[test]
    fn conflicting_indicator_defs_rejected() {
        let qs = QualitySchema {
            name: "g".into(),
            er: er(),
            indicators: vec![
                IndicatorAnnotation {
                    target: Target::attr("company_stock", "share_price"),
                    def: IndicatorDef::new("age", DataType::Int, "days"),
                    operationalizes: None,
                },
                IndicatorAnnotation {
                    target: Target::Entity("client".into()),
                    def: IndicatorDef::new("age", DataType::Text, "different"),
                    operationalizes: None,
                },
            ],
            parameters: vec![],
            notes: vec![],
        };
        assert!(qs.indicator_dictionary().is_err());
    }
}
