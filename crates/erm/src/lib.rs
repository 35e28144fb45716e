//! `er-model` — the entity–relationship modeling substrate for the
//! ICDE'93 data-quality methodology.
//!
//! Step 1 of the paper's methodology produces an ER *application view*;
//! Step 4 integrates multiple quality views. This crate supplies both
//! halves plus the rendering used to regenerate Figures 3–5:
//!
//! * [`model`] — entities, attributes, binary relationships with
//!   cardinalities, schema validation;
//! * [`mapping`] — ER → relational mapping (Teorey) to tables, primary
//!   and foreign keys as data, and a check of relations against them;
//! * [`mod@integrate`] — view/schema integration (Batini) with synonym
//!   correspondences and conflict detection;
//! * [`render`] — Graphviz DOT and ASCII output, including the paper's
//!   quality-parameter "clouds" and quality-indicator dotted rectangles.

#![warn(missing_docs)]

pub mod integrate;
pub mod mapping;
pub mod model;
pub mod normalize;
pub mod render;

pub use integrate::{integrate, Conflict, Correspondences, IntegrationResult};
pub use mapping::{to_relational, ForeignKey, MappedTable, RelationalSchema};
pub use normalize::{
    attrs, bcnf_violations, candidate_keys, closure, is_superkey, minimal_cover,
    synthesize_3nf, AttrSet, BcnfViolation, Fd, SynthesizedRelation,
};
pub use model::{Cardinality, EntityType, ErAttribute, ErSchema, Participant, RelationshipType};
pub use render::{to_ascii, to_dot, Annotation, AnnotationKind};
