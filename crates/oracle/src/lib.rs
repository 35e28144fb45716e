//! The reference evaluator: a `SELECT` as nested loops over the catalog's
//! rows, copied out as `Vec<Vec<QualityCell>>`. It shares only the parser,
//! `Value`'s total order and the renderer with the engine. σ runs a row's
//! top-level conjuncts in written order and drops it at the first that is
//! not true, reading both sides of every operator within one; 3VL and
//! checked Int arithmetic are written out. π copies cells, tags and all,
//! and reads `col@ind[@meta]` as a bare cell of that tag's value; ⋈ names
//! a column both sides have `l.`/`r.`; γ and DISTINCT tag as [`aggregate`]
//! and `merge` say. Anything else panics.
//!
//! A dev-dependency of the test suites and benches only: no library or
//! binary links it, and it names none of the engine's kernels.

#[rustfmt::skip] // hand-formatted to its line budget
mod reference;

pub use reference::*;
