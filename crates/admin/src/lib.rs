//! `dq-admin` — the data quality administrator's toolkit.
//!
//! §1.3 defines the administrator as "a person (or system) whose
//! responsibility it is to ensure that data in the database conform to
//! the quality requirements"; §4 sketches the toolkit this crate builds:
//!
//! * [`audit`] — the "electronic trail" for tracking erred transactions
//!   through the data manufacturing process;
//! * [`inspection`] — the rule engine behind the "✓ inspection" quality
//!   parameter (required tags, freshness, tag domains, front-end rules,
//!   double entry);
//! * [`spc`] — statistical process control over data-manufacturing error
//!   rates (Shewhart individuals + Western Electric rules, p-chart);
//! * [`assess`] — estimators for completeness, timeliness, accuracy, and
//!   interpretability;
//! * [`certify`] — the certification workflow, stamping `inspection` tags
//!   and recording every transition on the audit trail;
//! * [`mod@allocate`] — Ballou–Tayi resource allocation for data quality
//!   enhancement (exact knapsack + greedy baseline);
//! * [`impact`] — pricing measured shortfalls ("analysis of impacts on
//!   the organization") and feeding the allocator;
//! * [`monitor`] — process-based inspection triggers: periodic schedules
//!   and the peculiar-data detector;
//! * [`linkage`] — Fellegi–Sunter record linkage / duplicate detection,
//!   the §1.1 record-linking lineage.

#![warn(missing_docs)]

pub mod allocate;
pub mod assess;
pub mod audit;
pub mod certify;
pub mod impact;
pub mod inspection;
pub mod linkage;
pub mod monitor;
pub mod spc;

pub use allocate::{allocate, allocate_greedy, Allocation, Project};
pub use assess::{
    accuracy_vs_reference, completeness, interpretability, timeliness, AssessmentReport,
    DimensionScore,
};
pub use audit::{AuditAction, AuditEvent, AuditTrail};
pub use certify::{CertState, Certification};
pub use impact::{analyze_impact, to_projects, ImpactItem, ImpactModel};
pub use inspection::{InspectionReport, InspectionRule, Inspector, Violation};
pub use linkage::{
    jaro, jaro_winkler, Comparator, FellegiSunter, FieldSpec, LinkClass, LinkedPair,
};
pub use monitor::{
    InspectionPrompt, InspectionSchedule, PeculiarDataDetector, PeculiarRow, QualityMonitor,
};
pub use spc::{IndividualsChart, PChart, Signal};
