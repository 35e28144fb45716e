//! Quality cells: an application value plus its cell-level quality tags.
//!
//! This is the paper's Table 2 made concrete: `62 Lois Av (10-24-91,
//! acct'g)` is a [`QualityCell`] whose value is `"62 Lois Av"` and whose
//! tags are `creation_time=1991-10-24` and `source=acct'g`.

use crate::indicator::IndicatorValue;
use crate::symbol::Symbol;
use relstore::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An application value with attached quality indicator values.
///
/// Tags are stored behind an `Arc` with copy-on-write semantics: the
/// algebra's σ/π/⋈/τ operators propagate a cell's quality history by
/// bumping a refcount instead of deep-cloning the tag vector, and
/// [`QualityCell::set_tag`] transparently un-shares (`Arc::make_mut`)
/// before mutating. `None` and an empty shared vector are the same
/// logical state (no tags); constructors and mutators normalize empty
/// to `None` so derived equality stays semantic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityCell {
    /// The application datum.
    pub value: Value,
    /// Cell-level quality tags, kept sorted by indicator name so that
    /// logically equal cells compare equal. `None` ⇔ untagged.
    tags: Option<Arc<Vec<IndicatorValue>>>,
}

impl QualityCell {
    /// An untagged cell.
    pub fn bare(value: impl Into<Value>) -> Self {
        QualityCell {
            value: value.into(),
            tags: None,
        }
    }

    /// A cell with tags.
    pub fn tagged(value: impl Into<Value>, tags: Vec<IndicatorValue>) -> Self {
        let mut cell = QualityCell::bare(value);
        for t in tags {
            cell.set_tag(t);
        }
        cell
    }

    /// The cell's tags, sorted by indicator name.
    pub fn tags(&self) -> &[IndicatorValue] {
        self.tags.as_deref().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Adds or replaces the tag for its indicator. Un-shares the tag
    /// vector first if it is currently shared with other cells.
    pub fn set_tag(&mut self, tag: IndicatorValue) {
        let tags = Arc::make_mut(self.tags.get_or_insert_with(Default::default));
        match tags.binary_search_by(|t| t.indicator.cmp(&tag.indicator)) {
            Ok(i) => tags[i] = tag,
            Err(i) => tags.insert(i, tag),
        }
    }

    /// True iff `self` and `other` share one physical tag vector — the
    /// zero-copy propagation tests assert on this.
    #[cfg(test)]
    pub fn shares_tags_with(&self, other: &QualityCell) -> bool {
        match (&self.tags, &other.tags) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Installs an already-shared tag vector, replacing any existing tags.
    /// Used by bulk taggers to point many cells at one allocation.
    pub(crate) fn set_shared_tags(&mut self, tags: Arc<Vec<IndicatorValue>>) {
        self.tags = if tags.is_empty() { None } else { Some(tags) };
    }

    /// The shared tag vector itself (`None` ⇔ untagged) — the columnar
    /// converter reads this to preserve `Arc` identity run by run, so
    /// cells sharing one tag allocation collapse into one tag run.
    pub(crate) fn shared_tags(&self) -> Option<&Arc<Vec<IndicatorValue>>> {
        self.tags.as_ref()
    }

    /// Builder-style [`QualityCell::set_tag`].
    pub fn with_tag(mut self, tag: IndicatorValue) -> Self {
        self.set_tag(tag);
        self
    }

    /// The tag for `indicator`, if present.
    pub fn tag(&self, indicator: &str) -> Option<&IndicatorValue> {
        let tags = self.tags();
        tags.binary_search_by(|t| t.indicator.as_str().cmp(indicator))
            .ok()
            .map(|i| &tags[i])
    }

    /// The tag for an interned `indicator` symbol. Id-equality fast path;
    /// falls back to the same by-name binary search otherwise (the
    /// interner makes id equality iff name equality, so the fast path is
    /// purely an optimization).
    pub fn tag_sym(&self, indicator: &Symbol) -> Option<&IndicatorValue> {
        let tags = self.tags();
        tags.iter().find(|t| &t.indicator == indicator)
    }

    /// [`QualityCell::tag_path`] over interned symbols — the compiled
    /// quality-predicate extraction path.
    pub fn tag_path_syms(&self, path: &[Symbol]) -> Option<&IndicatorValue> {
        let (first, rest) = path.split_first()?;
        let mut node = self.tag_sym(first)?;
        for seg in rest {
            node = node.meta_tag_sym(seg)?;
        }
        Some(node)
    }

    /// The tag *value* for `indicator`; `Value::Null` when untagged.
    /// Quality predicates use this: an untagged cell never satisfies a
    /// quality constraint (3-valued logic drops NULL).
    pub fn tag_value(&self, indicator: &str) -> Value {
        self.tag(indicator)
            .map(|t| t.value.clone())
            .unwrap_or(Value::Null)
    }

    /// Follows a path of indicator names through the meta-tag tree
    /// (Premise 1.4): `["source"]` is the source tag itself,
    /// `["source", "credibility"]` is the credibility *of the source tag*.
    pub fn tag_path(&self, path: &[&str]) -> Option<&IndicatorValue> {
        let (first, rest) = path.split_first()?;
        let mut node = self.tag(first)?;
        for seg in rest {
            node = node.meta_tag(seg)?;
        }
        Some(node)
    }

    /// The value at a meta-tag path; `Value::Null` when any step is
    /// missing — so quality predicates over meta tags drop untagged rows
    /// exactly like first-level predicates do.
    pub fn tag_value_path(&self, path: &[&str]) -> Value {
        self.tag_path(path)
            .map(|t| t.value.clone())
            .unwrap_or(Value::Null)
    }

    /// Removes the tag for `indicator`, returning it.
    pub fn remove_tag(&mut self, indicator: &str) -> Option<IndicatorValue> {
        let arc = self.tags.as_mut()?;
        let i = arc
            .binary_search_by(|t| t.indicator.as_str().cmp(indicator))
            .ok()?;
        let removed = Arc::make_mut(arc).remove(i);
        if arc.is_empty() {
            self.tags = None;
        }
        Some(removed)
    }

    /// Number of tags.
    pub fn tag_count(&self) -> usize {
        self.tags().len()
    }

    /// Merges tags from `other` into this cell. On conflict (same
    /// indicator, different value) the tag is *dropped* — the merged datum's
    /// provenance is ambiguous, and fabricating a winner would violate the
    /// attribute-based model's faithfulness to the manufacturing history.
    pub fn merge_tags_from(&mut self, other: &QualityCell) {
        for t in other.tags() {
            match self.tag(&t.indicator) {
                None => self.set_tag(t.clone()),
                Some(mine) if mine == t => {}
                Some(_) => {
                    self.remove_tag(&t.indicator);
                }
            }
        }
    }

    /// Renders the cell in the paper's Table 2 style:
    /// `62 Lois Av (10-24-91, acct'g)` — tag values in indicator-name
    /// order, parenthesized after the value. Untagged cells render bare.
    pub fn to_paper_string(&self) -> String {
        let mut out = String::new();
        self.write_paper(&mut out);
        out
    }

    /// Appends [`QualityCell::to_paper_string`]'s text to `out`.
    pub(crate) fn write_paper(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(out, "{}", self.value);
        write_paper_tags(self.tags(), out);
    }
}

/// Appends a cell's tag values in the paper's style, ` (v, v)`; nothing
/// for an untagged cell.
pub(crate) fn write_paper_tags(tags: &[IndicatorValue], out: &mut String) {
    use fmt::Write;
    for (i, t) in tags.iter().enumerate() {
        let _ = write!(out, "{}{}", if i == 0 { " (" } else { ", " }, t.value);
    }
    if !tags.is_empty() {
        out.push(')');
    }
}

impl fmt::Display for QualityCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tag_count() == 0 {
            return write!(f, "{}", self.value);
        }
        write!(f, "{} (", self.value)?;
        for (i, t) in self.tags().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Value> for QualityCell {
    fn from(v: Value) -> Self {
        QualityCell::bare(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Date;

    fn addr_cell() -> QualityCell {
        QualityCell::bare("62 Lois Av")
            .with_tag(IndicatorValue::new(
                "creation_time",
                Value::Date(Date::parse("10-24-91").unwrap()),
            ))
            .with_tag(IndicatorValue::new("source", "acct'g"))
    }

    #[test]
    fn tags_sorted_and_looked_up() {
        let c = addr_cell();
        assert_eq!(c.tag_count(), 2);
        assert_eq!(c.tags()[0].indicator, "creation_time");
        assert_eq!(c.tag_value("source"), Value::text("acct'g"));
        assert_eq!(c.tag_value("missing"), Value::Null);
    }

    #[test]
    fn set_tag_replaces() {
        let mut c = addr_cell();
        c.set_tag(IndicatorValue::new("source", "sales"));
        assert_eq!(c.tag_count(), 2);
        assert_eq!(c.tag_value("source"), Value::text("sales"));
    }

    #[test]
    fn remove_tag() {
        let mut c = addr_cell();
        assert!(c.remove_tag("source").is_some());
        assert!(c.remove_tag("source").is_none());
        assert_eq!(c.tag_count(), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = QualityCell::bare("x")
            .with_tag(IndicatorValue::new("source", "s"))
            .with_tag(IndicatorValue::new("age", 3i64));
        let b = QualityCell::bare("x")
            .with_tag(IndicatorValue::new("age", 3i64))
            .with_tag(IndicatorValue::new("source", "s"));
        assert_eq!(a, b);
    }

    #[test]
    fn merge_agreeing_and_conflicting() {
        let mut a = QualityCell::bare("62 Lois Av")
            .with_tag(IndicatorValue::new("source", "acct'g"))
            .with_tag(IndicatorValue::new("media", "ASCII"));
        let b = QualityCell::bare("62 Lois Av")
            .with_tag(IndicatorValue::new("source", "sales")) // conflict
            .with_tag(IndicatorValue::new("media", "ASCII")) // agree
            .with_tag(IndicatorValue::new("collection_method", "phone")); // new
        a.merge_tags_from(&b);
        assert_eq!(a.tag_value("source"), Value::Null); // dropped on conflict
        assert_eq!(a.tag_value("media"), Value::text("ASCII"));
        assert_eq!(a.tag_value("collection_method"), Value::text("phone"));
    }

    #[test]
    fn paper_rendering() {
        // Exactly Table 2's cell format (dates render ISO in our engine).
        assert_eq!(addr_cell().to_paper_string(), "62 Lois Av (1991-10-24, acct'g)");
        assert_eq!(QualityCell::bare(700i64).to_paper_string(), "700");
    }

    #[test]
    fn display_with_indicator_names() {
        let s = addr_cell().to_string();
        assert!(s.contains("creation_time=1991-10-24"));
        assert!(s.contains("source=acct'g"));
    }
}
