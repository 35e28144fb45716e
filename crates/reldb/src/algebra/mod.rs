//! Aggregation semantics shared by every γ.
//!
//! The engine's relations are tagged (`tagstore`), and its one γ is the
//! tagged fold there. What SQL says COUNT, SUM, AVG, MIN, MAX and
//! COUNT(DISTINCT) compute lives here, on plain [`crate::Value`]s:
//! [`AggCall`] names a call, [`resolve_aggregate`] and
//! [`aggregate_schema`] resolve its columns and output schema, and
//! [`Acc`] folds one call over one group.

mod aggregate;

pub use aggregate::{aggregate_schema, resolve_aggregate, Acc, AggCall, AggFunc};
