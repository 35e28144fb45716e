//! Parameter value derivation: mapping objective indicator values to
//! subjective parameter values.
//!
//! §1.3: "User-defined functions may be used to map quality indicator
//! values to quality parameter values. For example, because the source is
//! Wall Street Journal, an investor may conclude that data credibility is
//! high." A [`ParameterMapper`] is such a function; this module supplies
//! the three the paper's examples need (credibility-from-source,
//! timeliness-from-age, accuracy-from-collection-method) plus the ordinal
//! [`QualityLevel`] scale parameter values are reported on.

use relstore::{Date, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use tagstore::QualityCell;

/// Ordinal quality-parameter value scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QualityLevel {
    /// score < 0.2
    VeryLow,
    /// 0.2 ≤ score < 0.4
    Low,
    /// 0.4 ≤ score < 0.6
    Medium,
    /// 0.6 ≤ score < 0.8
    High,
    /// score ≥ 0.8
    VeryHigh,
}

impl QualityLevel {
    /// Quantizes a score in `[0, 1]` to the ordinal scale.
    pub fn from_score(score: f64) -> Self {
        let s = score.clamp(0.0, 1.0);
        if s < 0.2 {
            QualityLevel::VeryLow
        } else if s < 0.4 {
            QualityLevel::Low
        } else if s < 0.6 {
            QualityLevel::Medium
        } else if s < 0.8 {
            QualityLevel::High
        } else {
            QualityLevel::VeryHigh
        }
    }
}

impl fmt::Display for QualityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QualityLevel::VeryLow => "very low",
            QualityLevel::Low => "low",
            QualityLevel::Medium => "medium",
            QualityLevel::High => "high",
            QualityLevel::VeryHigh => "very high",
        };
        f.write_str(s)
    }
}

/// Ambient context for mapping functions (the current date, for
/// age-from-creation-time derivation).
#[derive(Debug, Clone, Copy)]
pub struct MappingContext {
    /// "Now" for age computations.
    pub today: Date,
}

/// A user-defined function from a cell's indicator values to a parameter
/// score in `[0, 1]`. Returns `None` when the required indicators are
/// missing — an unmapped cell has *unknown* (not zero) parameter value.
pub trait ParameterMapper {
    /// The subjective parameter this mapper evaluates.
    fn parameter(&self) -> &str;
    /// Evaluates the cell. `None` when the needed tags are absent.
    fn score(&self, cell: &QualityCell, ctx: &MappingContext) -> Option<f64>;

    /// Ordinal form of [`ParameterMapper::score`].
    fn level(&self, cell: &QualityCell, ctx: &MappingContext) -> Option<QualityLevel> {
        self.score(cell, ctx).map(QualityLevel::from_score)
    }
}

/// Credibility from the `source` indicator via a lookup table
/// ("because the source is Wall Street Journal ... credibility is high").
#[derive(Debug, Clone, Default)]
pub struct CredibilityFromSource {
    table: BTreeMap<String, f64>,
    /// Score for sources absent from the table; `None` → unknown.
    pub default: Option<f64>,
}

impl CredibilityFromSource {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rates a source (builder style).
    pub fn rate(mut self, source: impl Into<String>, score: f64) -> Self {
        self.table.insert(source.into(), score.clamp(0.0, 1.0));
        self
    }
}

impl ParameterMapper for CredibilityFromSource {
    fn parameter(&self) -> &str {
        "credibility"
    }

    fn score(&self, cell: &QualityCell, _ctx: &MappingContext) -> Option<f64> {
        match cell.tag_value("source") {
            Value::Text(s) => self.table.get(&s).copied().or(self.default),
            _ => None,
        }
    }
}

/// Timeliness from the `age` indicator (or `creation_time` + today),
/// using the Ballou–Pazer form
/// `timeliness = max(0, 1 − currency/volatility)^sensitivity`.
#[derive(Debug, Clone)]
pub struct TimelinessFromAge {
    /// Shelf life of the data in days (volatility).
    pub volatility_days: f64,
    /// Exponent controlling how sharply timeliness decays.
    pub sensitivity: f64,
}

impl ParameterMapper for TimelinessFromAge {
    fn parameter(&self) -> &str {
        "timeliness"
    }

    fn score(&self, cell: &QualityCell, ctx: &MappingContext) -> Option<f64> {
        let age_days: f64 = match cell.tag_value("age") {
            Value::Int(a) => a as f64,
            Value::Float(a) => a,
            _ => match cell.tag_value("creation_time") {
                Value::Date(d) => ctx.today.days_between(&d) as f64,
                _ => return None,
            },
        };
        if self.volatility_days <= 0.0 {
            return Some(0.0);
        }
        let base = (1.0 - age_days / self.volatility_days).max(0.0);
        Some(base.powf(self.sensitivity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagstore::IndicatorValue;

    fn ctx() -> MappingContext {
        MappingContext {
            today: Date::parse("10-24-91").unwrap(),
        }
    }

    #[test]
    fn quality_level_quantization() {
        assert_eq!(QualityLevel::from_score(0.0), QualityLevel::VeryLow);
        assert_eq!(QualityLevel::from_score(0.3), QualityLevel::Low);
        assert_eq!(QualityLevel::from_score(0.5), QualityLevel::Medium);
        assert_eq!(QualityLevel::from_score(0.7), QualityLevel::High);
        assert_eq!(QualityLevel::from_score(1.0), QualityLevel::VeryHigh);
        assert_eq!(QualityLevel::from_score(7.0), QualityLevel::VeryHigh); // clamped
        assert!(QualityLevel::Low < QualityLevel::High);
    }

    #[test]
    fn wsj_is_highly_credible() {
        // the paper's own example
        let m = CredibilityFromSource::new()
            .rate("Wall Street Journal", 0.95)
            .rate("estimate", 0.30);
        let cell = QualityCell::bare(700i64)
            .with_tag(IndicatorValue::new("source", "Wall Street Journal"));
        assert_eq!(m.level(&cell, &ctx()), Some(QualityLevel::VeryHigh));
        let cell =
            QualityCell::bare(700i64).with_tag(IndicatorValue::new("source", "estimate"));
        assert_eq!(m.level(&cell, &ctx()), Some(QualityLevel::Low));
        // unknown source without default → unknown
        let cell = QualityCell::bare(700i64).with_tag(IndicatorValue::new("source", "rumor"));
        assert_eq!(m.score(&cell, &ctx()), None);
        // with default
        let m = CredibilityFromSource {
            default: Some(0.1),
            ..m
        };
        assert_eq!(m.score(&cell, &ctx()), Some(0.1));
        // untagged cell → unknown
        assert_eq!(m.score(&QualityCell::bare(1i64), &ctx()), None);
    }

    #[test]
    fn timeliness_decays_with_age() {
        let m = TimelinessFromAge {
            volatility_days: 30.0,
            sensitivity: 1.0,
        };
        let fresh = QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", 0i64));
        let stale = QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", 15i64));
        let dead = QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", 60i64));
        assert_eq!(m.score(&fresh, &ctx()), Some(1.0));
        assert_eq!(m.score(&stale, &ctx()), Some(0.5));
        assert_eq!(m.score(&dead, &ctx()), Some(0.0));
    }

    #[test]
    fn timeliness_falls_back_to_creation_time() {
        let m = TimelinessFromAge {
            volatility_days: 42.0,
            sensitivity: 1.0,
        };
        let cell = QualityCell::bare(1i64).with_tag(IndicatorValue::new(
            "creation_time",
            Value::Date(Date::parse("10-3-91").unwrap()),
        ));
        // 21 days old on 10-24-91 → 1 - 21/42 = 0.5
        assert_eq!(m.score(&cell, &ctx()), Some(0.5));
        assert_eq!(m.score(&QualityCell::bare(1i64), &ctx()), None);
    }

    #[test]
    fn sensitivity_sharpens_decay() {
        let lo = TimelinessFromAge {
            volatility_days: 30.0,
            sensitivity: 1.0,
        };
        let hi = TimelinessFromAge {
            volatility_days: 30.0,
            sensitivity: 3.0,
        };
        let cell = QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", 15i64));
        assert!(hi.score(&cell, &ctx()).unwrap() < lo.score(&cell, &ctx()).unwrap());
    }
}
