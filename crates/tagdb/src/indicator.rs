//! Quality indicators and their values.
//!
//! A *quality indicator* is "a data dimension that provides objective
//! information about the data" (§1.3): source, creation time, collection
//! method, age, analyst name, media, inspection. An
//! [`IndicatorValue`] is "a measured characteristic of the stored data" —
//! e.g. indicator `source` with value `Wall Street Journal`.
//!
//! Premise 1.4 (recursive quality indicators — "what is the quality of the
//! quality indicator values?") is supported directly: every
//! [`IndicatorValue`] can itself carry meta-indicator values, to any depth,
//! using the same representation — exactly the design of the
//! attribute-based model \[28\] the paper defers to.

use crate::symbol::Symbol;
use relstore::{DataType, DbError, DbResult, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Declaration of an indicator: name, value domain, prose meaning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndicatorDef {
    /// Indicator name, e.g. `creation_time`, `source`, `collection_method`.
    pub name: String,
    /// Domain of the indicator's values (`Any` when open).
    pub dtype: DataType,
    /// What the indicator measures, for the requirements document.
    pub description: String,
}

impl IndicatorDef {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, dtype: DataType, description: impl Into<String>) -> Self {
        IndicatorDef {
            name: name.into(),
            dtype,
            description: description.into(),
        }
    }
}

/// Registry of indicator declarations shared by a database's tagged
/// relations. Tagging with an undeclared indicator, or with a value
/// outside the declared domain, is rejected — the dictionary *is* the
/// operational form of the paper's quality schema at the storage layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IndicatorDictionary {
    defs: BTreeMap<String, IndicatorDef>,
}

impl IndicatorDictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an indicator. Redeclaring with an identical definition is
    /// a no-op; conflicting redeclaration is an error.
    pub fn declare(&mut self, def: IndicatorDef) -> DbResult<()> {
        if let Some(existing) = self.defs.get(&def.name) {
            if existing != &def {
                return Err(DbError::InvalidExpression(format!(
                    "indicator `{}` redeclared with a different definition",
                    def.name
                )));
            }
            return Ok(());
        }
        self.defs.insert(def.name.clone(), def);
        Ok(())
    }

    /// Looks up an indicator definition.
    pub fn get(&self, name: &str) -> Option<&IndicatorDef> {
        self.defs.get(name)
    }

    /// All declared indicator names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.defs.keys().map(String::as_str).collect()
    }

    /// Validates one indicator value (and, recursively, its meta tags).
    pub fn check(&self, iv: &IndicatorValue) -> DbResult<()> {
        let def = self.get(&iv.indicator).ok_or_else(|| {
            DbError::InvalidExpression(format!("undeclared indicator `{}`", iv.indicator))
        })?;
        if !iv.value.conforms_to(def.dtype) {
            return Err(DbError::TypeMismatch {
                expected: format!("{} for indicator `{}`", def.dtype, def.name),
                found: iv.value.type_name().into(),
            });
        }
        for meta in &iv.meta {
            self.check(meta)?;
        }
        Ok(())
    }

    /// Convenience bulk declaration of the paper's standard indicators.
    pub fn with_paper_defaults() -> Self {
        let mut d = Self::new();
        for (name, ty, desc) in [
            ("creation_time", DataType::Date, "when the datum was manufactured"),
            ("source", DataType::Text, "origin of the datum (department, vendor, publication)"),
            (
                "collection_method",
                DataType::Text,
                "means by which the datum was captured (phone, scanner, info service, ...)",
            ),
            ("age", DataType::Int, "days since manufacture at query time"),
            ("analyst", DataType::Text, "author of the research report (credibility indicator)"),
            ("media", DataType::Text, "storage format of a document (ASCII, bitmap, postscript)"),
            (
                "inspection",
                DataType::Text,
                "inspection/certification procedure applied to the datum",
            ),
        ] {
            d.declare(IndicatorDef::new(name, ty, desc))
                .expect("defaults are consistent");
        }
        d
    }
}

/// One tag: an indicator name, its measured value, and optional
/// meta-indicator values (Premise 1.4).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndicatorValue {
    /// Which indicator this measures. Interned: clones are refcount
    /// bumps, comparisons are id compares.
    pub indicator: Symbol,
    /// The measured value.
    pub value: Value,
    /// Quality of the quality: meta-indicator values, recursively.
    pub meta: Vec<IndicatorValue>,
}

impl IndicatorValue {
    /// A leaf tag.
    pub fn new(indicator: impl Into<Symbol>, value: impl Into<Value>) -> Self {
        IndicatorValue {
            indicator: indicator.into(),
            value: value.into(),
            meta: Vec::new(),
        }
    }

    /// Adds a meta tag (builder style).
    pub fn with_meta(mut self, meta: IndicatorValue) -> Self {
        self.meta.push(meta);
        self
    }

    /// Depth of the meta-tag tree (a leaf tag has depth 1).
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        1 + self.meta.iter().map(IndicatorValue::depth).max().unwrap_or(0)
    }

    /// Finds a direct meta tag by indicator name.
    pub fn meta_tag(&self, indicator: &str) -> Option<&IndicatorValue> {
        self.meta.iter().find(|m| m.indicator == *indicator)
    }

    /// Finds a direct meta tag by interned symbol (id-compare, no byte
    /// comparison — the hot path for compiled quality predicates).
    pub fn meta_tag_sym(&self, indicator: &Symbol) -> Option<&IndicatorValue> {
        self.meta.iter().find(|m| &m.indicator == indicator)
    }
}

impl fmt::Display for IndicatorValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.indicator, self.value)?;
        if !self.meta.is_empty() {
            write!(f, " [")?;
            for (i, m) in self.meta.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{m}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Date;

    #[test]
    fn declare_and_lookup() {
        let mut d = IndicatorDictionary::new();
        d.declare(IndicatorDef::new("source", DataType::Text, "origin"))
            .unwrap();
        assert!(d.get("source").is_some());
        assert!(d.get("ghost").is_none());
        assert_eq!(d.defs.len(), 1);
        // idempotent redeclare
        d.declare(IndicatorDef::new("source", DataType::Text, "origin"))
            .unwrap();
        assert_eq!(d.defs.len(), 1);
        // conflicting redeclare
        assert!(d
            .declare(IndicatorDef::new("source", DataType::Int, "origin"))
            .is_err());
    }

    #[test]
    fn check_validates_type_and_declaration() {
        let d = IndicatorDictionary::with_paper_defaults();
        assert!(d
            .check(&IndicatorValue::new("source", "acct'g"))
            .is_ok());
        assert!(d
            .check(&IndicatorValue::new("source", 42i64))
            .is_err());
        assert!(d
            .check(&IndicatorValue::new("undeclared", "x"))
            .is_err());
        assert!(d
            .check(&IndicatorValue::new(
                "creation_time",
                Value::Date(Date::parse("10-24-91").unwrap())
            ))
            .is_ok());
    }

    #[test]
    fn recursive_meta_tags() {
        let d = IndicatorDictionary::with_paper_defaults();
        // source tag whose own creation time is tagged — Premise 1.4
        let tag = IndicatorValue::new("source", "Nexis").with_meta(
            IndicatorValue::new(
                "creation_time",
                Value::Date(Date::parse("10-3-91").unwrap()),
            )
            .with_meta(IndicatorValue::new("source", "system clock")),
        );
        assert_eq!(tag.depth(), 3);
        assert!(d.check(&tag).is_ok());
        assert_eq!(
            tag.meta_tag("creation_time").unwrap().value,
            Value::Date(Date::parse("10-3-91").unwrap())
        );
        // invalid meta tag detected recursively
        let bad = IndicatorValue::new("source", "Nexis")
            .with_meta(IndicatorValue::new("age", "not a number"));
        assert!(d.check(&bad).is_err());
    }

    #[test]
    fn display_nested() {
        let tag = IndicatorValue::new("source", "WSJ")
            .with_meta(IndicatorValue::new("inspection", "certified"));
        assert_eq!(tag.to_string(), "source=WSJ [inspection=certified]");
    }

    #[test]
    fn paper_defaults_present() {
        let d = IndicatorDictionary::with_paper_defaults();
        for n in [
            "creation_time",
            "source",
            "collection_method",
            "age",
            "analyst",
            "media",
            "inspection",
        ] {
            assert!(d.get(n).is_some(), "missing default indicator {n}");
        }
    }
}
