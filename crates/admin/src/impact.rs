//! Organizational impact analysis — the bridge from *measuring* quality
//! to *improving* it.
//!
//! §4: "Organizational and managerial issues in data quality control
//! involve the measurement or assessment of data quality, analysis of
//! impacts on the organization, and improvement of data quality through
//! process and systems redesign." This module performs the middle step:
//! it prices each measured quality shortfall (via per-dimension
//! cost-of-poor-quality rates) and turns the priced shortfalls into
//! candidate enhancement [`Project`]s for the Ballou–Tayi allocator —
//! closing the loop assess → impact → allocate.

use crate::allocate::Project;
use crate::assess::{AssessmentReport, DimensionScore};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cost model: money lost per unit of shortfall per affected item, by
/// dimension. (A shortfall of 0.2 on completeness over 1000 rows with a
/// rate of 0.5 costs 0.2 × 1000 × 0.5 = 100.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImpactModel {
    rates: BTreeMap<String, f64>,
    /// Rate applied to dimensions not in the table.
    pub default_rate: f64,
}

impl ImpactModel {
    /// Empty model (default rate 0: unknown dimensions cost nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cost rate of one dimension (builder style).
    pub fn rate(mut self, dimension: impl Into<String>, cost_per_unit: f64) -> Self {
        self.rates.insert(dimension.into(), cost_per_unit.max(0.0));
        self
    }

    fn rate_of(&self, dimension: &str) -> f64 {
        self.rates.get(dimension).copied().unwrap_or(self.default_rate)
    }
}

/// One priced shortfall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpactItem {
    /// Dimension that fell short.
    pub dimension: String,
    /// Affected column.
    pub column: String,
    /// `1 − score`: how far below perfect.
    pub shortfall: f64,
    /// Items affected (the score's support).
    pub affected: usize,
    /// Estimated organizational cost of the shortfall.
    pub cost: f64,
}

/// Prices every score in an assessment report, sorted most-costly first.
pub fn analyze_impact(report: &AssessmentReport, model: &ImpactModel) -> Vec<ImpactItem> {
    let mut items: Vec<ImpactItem> = report
        .scores
        .iter()
        .map(|s: &DimensionScore| {
            let shortfall = (1.0 - s.score).max(0.0);
            ImpactItem {
                dimension: s.dimension.clone(),
                column: s.column.clone(),
                shortfall,
                affected: s.support,
                cost: shortfall * s.support as f64 * model.rate_of(&s.dimension),
            }
        })
        .collect();
    items.sort_by(|a, b| b.cost.total_cmp(&a.cost));
    items
}

/// Converts priced shortfalls into candidate enhancement projects.
/// `remediation_cost` estimates the cost of fixing one item of a given
/// dimension; the project's benefit is the eliminated impact, assuming
/// `effectiveness` ∈ (0, 1] of the shortfall is actually removed.
pub fn to_projects(
    items: &[ImpactItem],
    remediation_cost: impl Fn(&ImpactItem) -> u64,
    effectiveness: f64,
) -> Vec<Project> {
    let eff = effectiveness.clamp(0.0, 1.0);
    items
        .iter()
        .filter(|i| i.cost > 0.0)
        .map(|i| Project {
            dataset: format!("{}:{}", i.column, i.dimension),
            description: format!(
                "remediate {} on `{}` (shortfall {:.2}, {} items affected)",
                i.dimension, i.column, i.shortfall, i.affected
            ),
            cost: remediation_cost(i),
            benefit: i.cost * eff,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::allocate;

    fn report() -> AssessmentReport {
        AssessmentReport {
            scores: vec![
                DimensionScore {
                    dimension: "completeness".into(),
                    column: "address".into(),
                    score: 0.8, // 20% shortfall over 1000 rows
                    support: 1000,
                },
                DimensionScore {
                    dimension: "timeliness".into(),
                    column: "share_price".into(),
                    score: 0.5, // 50% shortfall over 200 rows
                    support: 200,
                },
                DimensionScore {
                    dimension: "accuracy".into(),
                    column: "telephone".into(),
                    score: 1.0, // perfect: no impact
                    support: 500,
                },
            ],
        }
    }

    #[test]
    fn impact_prices_shortfalls() {
        let model = ImpactModel::new()
            .rate("completeness", 0.5)
            .rate("timeliness", 2.0);
        let items = analyze_impact(&report(), &model);
        assert_eq!(items.len(), 3);
        // timeliness: 0.5 × 200 × 2.0 = 200; completeness: 0.2 × 1000 × 0.5 = 100
        assert_eq!(items[0].dimension, "timeliness");
        assert!((items[0].cost - 200.0).abs() < 1e-9);
        assert!((items[1].cost - 100.0).abs() < 1e-9);
        assert_eq!(items[2].cost, 0.0); // accuracy is perfect
    }

    #[test]
    fn default_rate_applies_to_unknown_dimensions() {
        let model = ImpactModel {
            default_rate: 1.0,
            ..ImpactModel::new()
        };
        let items = analyze_impact(&report(), &model);
        let c = items.iter().find(|i| i.dimension == "completeness").unwrap();
        assert!((c.cost - 200.0).abs() < 1e-9); // 0.2 × 1000 × 1.0
        // zero default prices everything at 0
        let model = ImpactModel::new();
        assert!(analyze_impact(&report(), &model)
            .iter()
            .all(|i| i.cost == 0.0));
    }

    #[test]
    fn projects_feed_the_allocator() {
        let model = ImpactModel::new()
            .rate("completeness", 0.5)
            .rate("timeliness", 2.0);
        let items = analyze_impact(&report(), &model);
        // fixing costs 1 budget unit per 100 affected items
        let projects = to_projects(&items, |i| (i.affected as u64 / 100).max(1), 0.9);
        assert_eq!(projects.len(), 2); // zero-impact accuracy excluded
        assert!(projects[0].benefit > projects[1].benefit);
        // constrained budget picks the higher-benefit project set
        let alloc = allocate(&projects, 2);
        assert!(!alloc.selected.is_empty());
        assert!(alloc.total_cost <= 2);
        // the timeliness remediation (cost 2, benefit 180) beats
        // completeness (cost 10, benefit 90) under this budget
        assert_eq!(projects[alloc.selected[0]].dataset, "share_price:timeliness");
    }

    #[test]
    fn effectiveness_scales_benefit() {
        let model = ImpactModel::new().rate("timeliness", 2.0);
        let items = analyze_impact(&report(), &model);
        let full = to_projects(&items, |_| 1, 1.0);
        let half = to_projects(&items, |_| 1, 0.5);
        assert!((full[0].benefit - 2.0 * half[0].benefit).abs() < 1e-9);
        // clamped
        let over = to_projects(&items, |_| 1, 7.0);
        assert!((over[0].benefit - full[0].benefit).abs() < 1e-9);
    }
}
