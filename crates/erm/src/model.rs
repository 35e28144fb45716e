//! Entity–relationship model types.
//!
//! Step 1 of the paper's methodology "embodies the traditional data
//! modeling process" — this module supplies that process: entities with
//! keyed attributes, binary relationships with cardinalities and their own
//! attributes (the paper's `trade` relationship carries `date`,
//! `quantity`, `trade price`), and whole-schema validation.

use relstore::{DataType, DbError, DbResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cardinality of one side of a relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cardinality {
    /// At most one.
    One,
    /// Unbounded.
    Many,
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinality::One => f.write_str("1"),
            Cardinality::Many => f.write_str("N"),
        }
    }
}

/// An attribute of an entity or relationship.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErAttribute {
    /// Attribute name.
    pub name: String,
    /// Value domain.
    pub dtype: DataType,
    /// Part of the entity's identifying key?
    pub is_key: bool,
}

impl ErAttribute {
    /// Non-key attribute.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ErAttribute {
            name: name.into(),
            dtype,
            is_key: false,
        }
    }

    /// Key attribute.
    pub fn key(name: impl Into<String>, dtype: DataType) -> Self {
        ErAttribute {
            name: name.into(),
            dtype,
            is_key: true,
        }
    }
}

/// An entity type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityType {
    /// Entity name (e.g. `client`, `company_stock`).
    pub name: String,
    /// Attributes, at least one of which must be a key.
    pub attributes: Vec<ErAttribute>,
}

impl EntityType {
    /// Builder: new entity with no attributes yet.
    pub fn new(name: impl Into<String>) -> Self {
        EntityType {
            name: name.into(),
            attributes: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with(mut self, attr: ErAttribute) -> Self {
        self.attributes.push(attr);
        self
    }

    /// Looks up an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&ErAttribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Names of key attributes.
    pub fn key_names(&self) -> Vec<&str> {
        self.attributes
            .iter()
            .filter(|a| a.is_key)
            .map(|a| a.name.as_str())
            .collect()
    }
}

/// One side of a relationship.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Participant {
    /// Entity name.
    pub entity: String,
    /// Cardinality of this side.
    pub cardinality: Cardinality,
    /// Optional role name (for self-relationships).
    pub role: Option<String>,
}

/// A binary relationship type, optionally with its own attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationshipType {
    /// Relationship name (e.g. `trade`).
    pub name: String,
    /// Exactly two participants.
    pub participants: [Participant; 2],
    /// Relationship attributes (e.g. `date`, `quantity`, `trade_price`).
    pub attributes: Vec<ErAttribute>,
}

impl RelationshipType {
    /// Builder for a relationship between two entities.
    pub fn binary(
        name: impl Into<String>,
        left: (&str, Cardinality),
        right: (&str, Cardinality),
    ) -> Self {
        RelationshipType {
            name: name.into(),
            participants: [
                Participant {
                    entity: left.0.to_owned(),
                    cardinality: left.1,
                    role: None,
                },
                Participant {
                    entity: right.0.to_owned(),
                    cardinality: right.1,
                    role: None,
                },
            ],
            attributes: Vec::new(),
        }
    }

    /// Adds a relationship attribute (builder style).
    pub fn with(mut self, attr: ErAttribute) -> Self {
        self.attributes.push(attr);
        self
    }

    /// True for many-to-many relationships.
    pub fn is_many_to_many(&self) -> bool {
        self.participants[0].cardinality == Cardinality::Many
            && self.participants[1].cardinality == Cardinality::Many
    }
}

/// A complete ER schema: the output of Step 1 (the *application view*).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErSchema {
    /// Schema name.
    pub name: String,
    /// Entity types.
    pub entities: Vec<EntityType>,
    /// Relationship types.
    pub relationships: Vec<RelationshipType>,
}

impl ErSchema {
    /// New empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        ErSchema {
            name: name.into(),
            entities: Vec::new(),
            relationships: Vec::new(),
        }
    }

    /// Adds an entity (builder style).
    pub fn with_entity(mut self, e: EntityType) -> Self {
        self.entities.push(e);
        self
    }

    /// Adds a relationship (builder style).
    pub fn with_relationship(mut self, r: RelationshipType) -> Self {
        self.relationships.push(r);
        self
    }

    /// Looks up an entity.
    pub fn entity(&self, name: &str) -> Option<&EntityType> {
        self.entities.iter().find(|e| e.name == name)
    }

    /// Mutable entity lookup.
    pub fn entity_mut(&mut self, name: &str) -> Option<&mut EntityType> {
        self.entities.iter_mut().find(|e| e.name == name)
    }

    /// Looks up a relationship.
    pub fn relationship(&self, name: &str) -> Option<&RelationshipType> {
        self.relationships.iter().find(|r| r.name == name)
    }

    /// Validates the schema:
    /// * entity and relationship names unique,
    /// * attribute names unique within each owner,
    /// * every entity has at least one key attribute,
    /// * relationship participants reference existing entities.
    pub fn validate(&self) -> DbResult<()> {
        for (i, e) in self.entities.iter().enumerate() {
            if self.entities[..i].iter().any(|p| p.name == e.name) {
                return Err(DbError::InvalidExpression(format!(
                    "duplicate entity `{}`",
                    e.name
                )));
            }
            for (j, a) in e.attributes.iter().enumerate() {
                if e.attributes[..j].iter().any(|p| p.name == a.name) {
                    return Err(DbError::DuplicateColumn(format!("{}.{}", e.name, a.name)));
                }
            }
            if e.key_names().is_empty() {
                return Err(DbError::InvalidExpression(format!(
                    "entity `{}` has no key attribute",
                    e.name
                )));
            }
        }
        for (i, r) in self.relationships.iter().enumerate() {
            if self.relationships[..i].iter().any(|p| p.name == r.name) {
                return Err(DbError::InvalidExpression(format!(
                    "duplicate relationship `{}`",
                    r.name
                )));
            }
            for p in &r.participants {
                if self.entity(&p.entity).is_none() {
                    return Err(DbError::InvalidExpression(format!(
                        "relationship `{}` references unknown entity `{}`",
                        r.name, p.entity
                    )));
                }
            }
            for (j, a) in r.attributes.iter().enumerate() {
                if r.attributes[..j].iter().any(|p| p.name == a.name) {
                    return Err(DbError::DuplicateColumn(format!("{}.{}", r.name, a.name)));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 application view.
    pub(crate) fn figure3() -> ErSchema {
        ErSchema::new("trading")
            .with_entity(
                EntityType::new("client")
                    .with(ErAttribute::key("account_number", DataType::Int))
                    .with(ErAttribute::new("name", DataType::Text))
                    .with(ErAttribute::new("address", DataType::Text))
                    .with(ErAttribute::new("telephone", DataType::Text)),
            )
            .with_entity(
                EntityType::new("company_stock")
                    .with(ErAttribute::key("ticker_symbol", DataType::Text))
                    .with(ErAttribute::new("share_price", DataType::Float))
                    .with(ErAttribute::new("research_report", DataType::Text)),
            )
            .with_relationship(
                RelationshipType::binary(
                    "trade",
                    ("client", Cardinality::Many),
                    ("company_stock", Cardinality::Many),
                )
                .with(ErAttribute::new("date", DataType::Date))
                .with(ErAttribute::new("quantity", DataType::Int))
                .with(ErAttribute::new("trade_price", DataType::Float)),
            )
    }

    #[test]
    fn figure3_validates() {
        figure3().validate().unwrap();
        assert_eq!(figure3().entities.len(), 2);
        assert!(figure3().relationship("trade").unwrap().is_many_to_many());
    }

    #[test]
    fn entity_lookup_and_keys() {
        let s = figure3();
        let c = s.entity("client").unwrap();
        assert_eq!(c.key_names(), vec!["account_number"]);
        assert!(c.attribute("telephone").is_some());
        assert!(s.entity("ghost").is_none());
    }

    #[test]
    fn validation_rejects_duplicates() {
        let s = ErSchema::new("bad")
            .with_entity(EntityType::new("e").with(ErAttribute::key("id", DataType::Int)))
            .with_entity(EntityType::new("e").with(ErAttribute::key("id", DataType::Int)));
        assert!(s.validate().is_err());

        let s = ErSchema::new("bad").with_entity(
            EntityType::new("e")
                .with(ErAttribute::key("id", DataType::Int))
                .with(ErAttribute::new("id", DataType::Text)),
        );
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_requires_key() {
        let s = ErSchema::new("bad")
            .with_entity(EntityType::new("e").with(ErAttribute::new("x", DataType::Int)));
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_checks_participants() {
        let s = ErSchema::new("bad")
            .with_entity(EntityType::new("a").with(ErAttribute::key("id", DataType::Int)))
            .with_relationship(RelationshipType::binary(
                "r",
                ("a", Cardinality::One),
                ("ghost", Cardinality::Many),
            ));
        assert!(s.validate().is_err());
    }
}
