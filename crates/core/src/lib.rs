//! `dq-core` — Data Quality Requirements Analysis and Modeling
//! (Wang, Kon & Madnick, ICDE 1993), as an executable methodology.
//!
//! The paper's contribution is a four-step requirements-analysis process
//! that turns an ER application view into an ER-based **quality schema**
//! whose quality indicators become cell-level tags in the database:
//!
//! 1. [`methodology::step1_application_view`] — traditional ER modeling;
//! 2. [`methodology::Step2`] — attach subjective *quality parameters*
//!    (from the Appendix-A [`catalog::CandidateCatalog`]) to entities,
//!    attributes, and relationships;
//! 3. [`methodology::Step3`] — operationalize parameters into objective
//!    *quality indicators* (with the paper's suggestion table in
//!    [`methodology::suggest_indicators`]);
//! 4. [`methodology::step4_integrate`] — integrate quality views into the
//!    global [`views::QualitySchema`], collapsing derivable indicators
//!    ([`mod@derive`]) and supporting structural re-examination
//!    ([`methodology::promote_indicator_to_attribute`]).
//!
//! Around the pipeline: [`taxonomy`] encodes Figure 1, [`mapping`] the
//! indicator→parameter value functions of §1.3, [`profiles`] the per-user
//! quality standards of Premises 2.1–3, [`premises`] the premise analyses,
//! and [`spec`] the required requirements-specification documentation.

#![warn(missing_docs)]

pub mod catalog;
pub mod derive;
pub mod mapping;
pub mod methodology;
pub mod premises;
pub mod profiles;
pub mod spec;
pub mod taxonomy;
pub mod views;

pub use catalog::CandidateCatalog;
pub use derive::{default_rules, DerivabilityRule};
pub use mapping::{
    CredibilityFromSource, MappingContext, ParameterMapper, QualityLevel, TimelinessFromAge,
};
pub use methodology::{
    promote_indicator_to_attribute, step1_application_view, step4_integrate, suggest_indicators,
    Step2, Step3,
};
pub use profiles::{QualityStandard, StandardOp, UserProfile};
pub use taxonomy::{AttributeKind, ConcernScope, QualityAttribute};
pub use views::{
    ApplicationView, IndicatorAnnotation, IntegrationNote, ParameterAnnotation, ParameterView,
    QualitySchema, QualityView, Target, INSPECTION,
};
