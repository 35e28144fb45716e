//! Polygen cells: a value plus its originating and intermediate source sets.
//!
//! Following the polygen model (Wang & Madnick, VLDB'90), each datum in a
//! composed (heterogeneous) database carries
//!
//! * **originating sources** — the local databases the *value itself* came
//!   from, and
//! * **intermediate sources** — the local databases *consulted* in
//!   producing/selecting it (e.g. the side of a join predicate the value
//!   was matched against).
//!
//! Both sets only ever grow through the algebra — provenance is monotone.
//!
//! Source sets are stored behind `Arc`s with copy-on-write: in the common
//! case — every cell of a retrieved relation originates from the same
//! source, a whole join consults one key's sources — thousands of cells
//! share a handful of allocations, and σ/π/⋈ propagate provenance by
//! refcount bump.

use crate::source::SourceId;
use relstore::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A set of sources, ordered for deterministic display and comparison.
pub type SourceSet = BTreeSet<SourceId>;

fn empty_set() -> &'static Arc<SourceSet> {
    static EMPTY: OnceLock<Arc<SourceSet>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(SourceSet::new()))
}

/// A value with polygen provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolyCell {
    /// The application value.
    pub value: Value,
    originating: Arc<SourceSet>,
    intermediate: Arc<SourceSet>,
}

impl PolyCell {
    /// A cell originating from a single source.
    #[cfg(test)]
    pub fn originated(value: impl Into<Value>, source: SourceId) -> Self {
        let mut originating = SourceSet::new();
        originating.insert(source);
        PolyCell {
            value: value.into(),
            originating: Arc::new(originating),
            intermediate: Arc::clone(empty_set()),
        }
    }

    /// A cell whose originating set is an existing shared `Arc` — bulk
    /// retrieval points every cell of a relation at one allocation.
    pub fn originated_shared(value: impl Into<Value>, sources: Arc<SourceSet>) -> Self {
        PolyCell {
            value: value.into(),
            originating: sources,
            intermediate: Arc::clone(empty_set()),
        }
    }

    /// A cell with no provenance (e.g. a computed literal).
    #[cfg(test)]
    pub fn bare(value: impl Into<Value>) -> Self {
        PolyCell {
            value: value.into(),
            originating: Arc::clone(empty_set()),
            intermediate: Arc::clone(empty_set()),
        }
    }

    /// Where the value originated.
    pub fn originating(&self) -> &SourceSet {
        &self.originating
    }

    /// What was consulted to produce/select it.
    pub fn intermediate(&self) -> &SourceSet {
        &self.intermediate
    }

    /// Adds one intermediate source (un-shares first if needed).
    #[cfg(test)]
    pub fn add_intermediate(&mut self, source: SourceId) {
        if !self.intermediate.contains(&source) {
            Arc::make_mut(&mut self.intermediate).insert(source);
        }
    }

    /// Adds intermediate sources. No-op (and no un-share) when `sources`
    /// is already a subset of the current intermediate set.
    pub fn consult(&mut self, sources: &SourceSet) {
        if sources.is_empty() || sources.is_subset(&self.intermediate) {
            return;
        }
        Arc::make_mut(&mut self.intermediate).extend(sources.iter().cloned());
    }

    /// Like [`PolyCell::consult`] with a shared set: when the cell has no
    /// intermediate sources yet, it adopts the `Arc` itself — the whole
    /// relation ends up sharing one consulted-set allocation.
    pub fn consult_shared(&mut self, sources: &Arc<SourceSet>) {
        if sources.is_empty() {
            return;
        }
        if self.intermediate.is_empty() {
            self.intermediate = Arc::clone(sources);
        } else {
            self.consult(sources);
        }
    }

    /// Merges another cell's provenance into this one (used when duplicate
    /// tuples coalesce under union). Pointer-equal sets skip the merge.
    pub fn absorb(&mut self, other: &PolyCell) {
        if !Arc::ptr_eq(&self.originating, &other.originating)
            && !other.originating.is_subset(&self.originating)
        {
            Arc::make_mut(&mut self.originating).extend(other.originating.iter().cloned());
        }
        if !Arc::ptr_eq(&self.intermediate, &other.intermediate)
            && !other.intermediate.is_subset(&self.intermediate)
        {
            Arc::make_mut(&mut self.intermediate).extend(other.intermediate.iter().cloned());
        }
    }
}

impl fmt::Display for PolyCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)?;
        let fmt_set = |set: &SourceSet| -> String {
            set.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(",")
        };
        if !self.originating.is_empty() || !self.intermediate.is_empty() {
            write!(
                f,
                " <{}; {}>",
                fmt_set(&self.originating),
                fmt_set(&self.intermediate)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consult_grows_intermediate_only() {
        let mut c = PolyCell::originated("x", SourceId::new("a"));
        let mut consulted = SourceSet::new();
        consulted.insert(SourceId::new("b"));
        consulted.insert(SourceId::new("a")); // overlap fine
        c.consult(&consulted);
        assert_eq!(c.originating().len(), 1);
        assert_eq!(c.intermediate().len(), 2);
    }

    #[test]
    fn absorb_merges_both_sets() {
        let mut a = PolyCell::originated(1i64, SourceId::new("a"));
        let mut b = PolyCell::originated(1i64, SourceId::new("b"));
        b.add_intermediate(SourceId::new("c"));
        a.absorb(&b);
        assert_eq!(a.originating().len(), 2);
        assert_eq!(a.intermediate().len(), 1);
    }

    #[test]
    fn display_format() {
        let mut c = PolyCell::originated(7i64, SourceId::new("a"));
        c.add_intermediate(SourceId::new("b"));
        assert_eq!(c.to_string(), "7 <a; b>");
        assert_eq!(PolyCell::bare(7i64).to_string(), "7");
    }

    #[test]
    fn shared_origins_are_one_allocation() {
        let shared = Arc::new(SourceSet::from([SourceId::new("a")]));
        let x = PolyCell::originated_shared(1i64, Arc::clone(&shared));
        let y = PolyCell::originated_shared(2i64, Arc::clone(&shared));
        assert!(Arc::ptr_eq(&x.originating, &y.originating));
        // clones still share
        assert!(Arc::ptr_eq(&x.clone().originating, &y.originating));
    }

    #[test]
    fn consult_shared_adopts_arc() {
        let consulted = Arc::new(SourceSet::from([SourceId::new("a"), SourceId::new("b")]));
        let mut c = PolyCell::bare(1i64);
        c.consult_shared(&consulted);
        assert_eq!(c.intermediate().len(), 2);
        let mut d = PolyCell::bare(2i64);
        d.consult_shared(&consulted);
        assert!(Arc::ptr_eq(&c.intermediate, &d.intermediate));
        // subset consult is a no-op that keeps sharing
        c.consult(&SourceSet::from([SourceId::new("a")]));
        assert!(Arc::ptr_eq(&c.intermediate, &d.intermediate));
    }
}
