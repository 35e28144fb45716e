//! The paper's quality-attribute taxonomy (§1.3, Figure 1).
//!
//! Figure 1: *data quality attribute* is the collective term; a quality
//! **parameter** is its subjective specialization (how a user evaluates
//! quality — timeliness, credibility) and a quality **indicator** its
//! objective specialization (measured facts about the manufacturing
//! process — source, creation time, collection method).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The two specializations of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Subjective dimension by which a user evaluates data quality.
    Parameter,
    /// Objective, measurable information about the data's manufacture.
    Indicator,
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeKind::Parameter => f.write_str("parameter (subjective)"),
            AttributeKind::Indicator => f.write_str("indicator (objective)"),
        }
    }
}

/// Where a candidate attribute's concern actually lies. §4 observes that
/// some Appendix-A items "apply more to the information system ... the
/// information service ... or the information user ... than to the data
/// itself"; the boundary chosen determines which are in scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConcernScope {
    /// A property of the data values themselves (accuracy, age, ...).
    Data,
    /// A property of the information system (resolution of graphics,
    /// retrieval time, ...).
    System,
    /// A property of the information service (clear data responsibility,
    /// cost, ...).
    Service,
    /// A property of the information user (past experience, ...).
    User,
}

impl fmt::Display for ConcernScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConcernScope::Data => "data",
            ConcernScope::System => "system",
            ConcernScope::Service => "service",
            ConcernScope::User => "user",
        };
        f.write_str(s)
    }
}

/// One quality attribute: the collective node of Figure 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityAttribute {
    /// Attribute name, e.g. `timeliness`.
    pub name: String,
    /// Parameter vs indicator.
    pub kind: AttributeKind,
    /// Which boundary of "data quality" it belongs to.
    pub scope: ConcernScope,
    /// Prose meaning.
    pub description: String,
    /// Non-orthogonality links (Premise 1.2): names of related attributes
    /// — e.g. `timeliness` ↔ `volatility`.
    pub related: Vec<String>,
}

impl QualityAttribute {
    /// A subjective parameter.
    pub fn parameter(
        name: impl Into<String>,
        scope: ConcernScope,
        description: impl Into<String>,
    ) -> Self {
        QualityAttribute {
            name: name.into(),
            kind: AttributeKind::Parameter,
            scope,
            description: description.into(),
            related: Vec::new(),
        }
    }

    /// An objective indicator.
    pub fn indicator(
        name: impl Into<String>,
        scope: ConcernScope,
        description: impl Into<String>,
    ) -> Self {
        QualityAttribute {
            name: name.into(),
            kind: AttributeKind::Indicator,
            scope,
            description: description.into(),
            related: Vec::new(),
        }
    }

    /// Links a related attribute (builder style), recording Premise 1.2
    /// non-orthogonality.
    pub fn related_to(mut self, other: impl Into<String>) -> Self {
        self.related.push(other.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_partition() {
        let t = QualityAttribute::parameter("timeliness", ConcernScope::Data, "how current");
        let a = QualityAttribute::indicator("age", ConcernScope::Data, "days since creation");
        assert_eq!(t.kind.to_string(), "parameter (subjective)");
        assert_eq!(a.kind.to_string(), "indicator (objective)");
    }

    #[test]
    fn non_orthogonality_links() {
        // Premise 1.2's own example: timeliness and volatility are related.
        let t = QualityAttribute::parameter("timeliness", ConcernScope::Data, "")
            .related_to("volatility");
        assert_eq!(t.related, vec!["volatility"]);
    }

    #[test]
    fn scopes_display() {
        assert_eq!(ConcernScope::System.to_string(), "system");
        assert_eq!(ConcernScope::Data.to_string(), "data");
    }
}
