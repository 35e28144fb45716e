//! Data sources and the source registry.
//!
//! In a polygen ("multiple-origin") system, data is composed from many
//! autonomous databases. Each contributing database is a source ([`SourceId`]); the
//! registry records source metadata that quality-parameter mapping
//! functions consume (e.g. *source → credibility*: "because the source is
//! Wall Street Journal, an investor may conclude that data credibility is
//! high", §1.3).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a contributing database/source. Cheap to clone and
/// totally ordered so source sets are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SourceId(pub String);

impl SourceId {
    /// Constructor from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        SourceId(s.into())
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> Self {
        SourceId(s.to_owned())
    }
}

/// Metadata about one source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceInfo {
    /// The source's identifier.
    pub id: SourceId,
    /// Human-readable description (institution, feed, department).
    pub description: String,
    /// Credibility score in `[0, 1]` assigned by the quality administrator;
    /// consumed by parameter mapping functions.
    pub credibility: f64,
}

/// Registry of known sources.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SourceRegistry {
    sources: BTreeMap<SourceId, SourceInfo>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a source.
    pub fn register(
        &mut self,
        id: impl Into<SourceId>,
        description: impl Into<String>,
        credibility: f64,
    ) -> SourceId {
        let id = id.into();
        self.sources.insert(
            id.clone(),
            SourceInfo {
                id: id.clone(),
                description: description.into(),
                credibility: credibility.clamp(0.0, 1.0),
            },
        );
        id
    }

    /// Looks up a source.
    pub fn get(&self, id: &SourceId) -> Option<&SourceInfo> {
        self.sources.get(id)
    }

    /// Credibility of a source; unknown sources score 0 (untrusted until
    /// registered — conservative, matching the paper's administrator role).
    pub fn credibility(&self, id: &SourceId) -> f64 {
        self.get(id).map(|s| s.credibility).unwrap_or(0.0)
    }

    /// The minimum credibility across a set of sources — the weakest link
    /// determines the credibility of composed data.
    pub fn min_credibility<'a>(&self, ids: impl IntoIterator<Item = &'a SourceId>) -> Option<f64> {
        ids.into_iter()
            .map(|id| self.credibility(id))
            .fold(None, |acc, c| {
                Some(match acc {
                    None => c,
                    Some(a) => a.min(c),
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = SourceRegistry::new();
        let wsj = r.register("WSJ", "Wall Street Journal", 0.95);
        assert_eq!(r.get(&wsj).unwrap().description, "Wall Street Journal");
        assert_eq!(r.credibility(&wsj), 0.95);
        assert_eq!(r.sources.len(), 1);
    }

    #[test]
    fn credibility_clamped_and_conservative() {
        let mut r = SourceRegistry::new();
        let s = r.register("x", "", 7.0);
        assert_eq!(r.credibility(&s), 1.0);
        assert_eq!(r.credibility(&SourceId::new("unknown")), 0.0);
    }

    #[test]
    fn min_credibility_weakest_link() {
        let mut r = SourceRegistry::new();
        let a = r.register("a", "", 0.9);
        let b = r.register("b", "", 0.4);
        assert_eq!(r.min_credibility([&a, &b]), Some(0.4));
        assert_eq!(r.min_credibility([] as [&SourceId; 0]), None);
    }

    #[test]
    fn reregister_updates() {
        let mut r = SourceRegistry::new();
        let a = r.register("a", "old", 0.5);
        r.register("a", "new", 0.6);
        assert_eq!(r.get(&a).unwrap().description, "new");
        assert_eq!(r.sources.len(), 1);
    }

    #[test]
    fn ordering_deterministic() {
        let mut r = SourceRegistry::new();
        r.register("z", "", 0.1);
        r.register("a", "", 0.2);
        let ids: Vec<&str> = r.sources.values().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "z"]);
    }
}
