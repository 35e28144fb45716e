//! γ over tagged data in one pass.
//!
//! One fold answers [`crate::algebra::aggregate`] — rows: join output,
//! paged tables, keyed lookups — and [`ColumnarRelation::aggregate`] — a
//! resident table's columnar layout plus a σ's selection, read from the
//! typed arrays and tag runs without gathering a row. Each input row
//! lands in a first-seen-order group state that holds `relstore`'s value
//! accumulators ([`Acc`]: the SQL semantics live there, once) beside
//! running tag folds:
//!
//! * a group-key cell keeps the tags that every member's key cell
//!   carries with the same value (the first member's tags, intersected);
//! * an aggregate cell derives each [`TagPolicy`] indicator from its
//!   input column's cells: `Min`/`Max` keep a running value, `Unanimous`
//!   the first value plus whether some member lacks the tag or disagrees,
//!   `MergeText` the distinct values, rendered once at the end.
//!
//! Every tag fold is idempotent, so a cell whose tag vector is the very
//! `Arc` its group folded last is skipped: a bulk-tagged column costs one
//! tag fold per group, not one per row.
//!
//! [`ColumnarRelation::aggregate`]: crate::columnar::ColumnarRelation::aggregate

use crate::algebra::{TagPolicy, TagRule};
use crate::cell::QualityCell;
use crate::columnar::SharedTags;
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use relstore::algebra::{aggregate_schema, resolve_aggregate, Acc, AggCall};
use relstore::{DbResult, Schema, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// One input row as the fold reads it: a cell's value and its shared tag
/// vector (`None` ⇔ untagged).
pub(crate) trait Cells {
    fn value(&self, col: usize) -> &Value;
    fn tags(&self, col: usize) -> Option<&SharedTags>;
}

impl Cells for [QualityCell] {
    fn value(&self, col: usize) -> &Value {
        &self[col].value
    }

    fn tags(&self, col: usize) -> Option<&SharedTags> {
        self[col].shared_tags()
    }
}

/// The tag for `indicator` in a cell's tag vector (sorted and unique by
/// indicator, so the one id match is what [`QualityCell::tag`] finds).
fn tag_of<'t>(tags: &'t [IndicatorValue], indicator: &Symbol) -> Option<&'t IndicatorValue> {
    tags.iter().find(|t| t.indicator == *indicator)
}

/// Identity of a tag vector: its `Arc` address, 0 when untagged.
fn tag_id(tags: Option<&SharedTags>) -> usize {
    tags.map_or(0, |t| Arc::as_ptr(t) as usize)
}

/// A "tag vector folded last" before any was: no `Arc` lives there.
const NONE_YET: usize = usize::MAX;

/// End of a hash bucket's group chain.
const NO_GROUP: usize = usize::MAX;

/// Hasher of maps whose keys already are hashes (the fold's own,
/// randomly keyed SipHash of a group key or tag value).
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Maps keyed by such a hash.
type ByHash<V> = HashMap<u64, V, BuildHasherDefault<Prehashed>>;

/// Equal and of one variant. `Int(1)` and `Float(1.0)` are equal values
/// that may render apart, and `MergeText` joins renderings: it keeps both
/// and lets the rendered strings dedup.
fn same_value(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

/// One policy's running derivation over a group's input cells.
enum RuleFold {
    Min(Option<Value>),
    Max(Option<Value>),
    Unanimous {
        first: Option<Value>,
        missing: bool,
        agree: bool,
    },
    /// Distinct tag values bucketed by hash, and the value folded last
    /// (a run of equal values skips the hash).
    MergeText(ByHash<Vec<Value>>, Option<Value>),
}

impl RuleFold {
    fn new(rule: TagRule) -> Self {
        match rule {
            TagRule::Min => RuleFold::Min(None),
            TagRule::Max => RuleFold::Max(None),
            TagRule::Unanimous => RuleFold::Unanimous {
                first: None,
                missing: false,
                agree: true,
            },
            TagRule::MergeText => RuleFold::MergeText(ByHash::default(), None),
        }
    }

    /// Folds in one member's tag for `indicator` from its tag vector.
    fn fold(&mut self, indicator: &Symbol, member: &[IndicatorValue], hasher: &RandomState) {
        if let RuleFold::Unanimous { missing: true, .. }
        | RuleFold::Unanimous { agree: false, .. } = self
        {
            return; // decided: no tag
        }
        let tag = tag_of(member, indicator).map(|t| &t.value);
        match self {
            RuleFold::Min(m) => {
                // the first of equal minima wins
                if let Some(v) = tag.filter(|v| m.as_ref().is_none_or(|cur| *v < cur)) {
                    *m = Some(v.clone());
                }
            }
            RuleFold::Max(m) => {
                // the last of equal maxima wins
                if let Some(v) = tag.filter(|v| m.as_ref().is_none_or(|cur| *v >= cur)) {
                    *m = Some(v.clone());
                }
            }
            RuleFold::Unanimous {
                first,
                missing,
                agree,
            } => match (tag, first.as_ref()) {
                (None, _) => *missing = true,
                (Some(v), None) => *first = Some(v.clone()),
                (Some(v), Some(f)) => *agree = v == f,
            },
            RuleFold::MergeText(seen, last) => {
                let Some(v) = tag else { return };
                if last.as_ref().is_some_and(|l| same_value(l, v)) {
                    return;
                }
                let bucket = seen.entry(hasher.hash_one(v)).or_default();
                if !bucket.iter().any(|s| same_value(s, v)) {
                    bucket.push(v.clone());
                }
                *last = Some(v.clone());
            }
        }
    }

    /// The derived value, `None` when the rule yields no tag.
    fn finish(self) -> Option<Value> {
        match self {
            RuleFold::Min(m) | RuleFold::Max(m) => m,
            RuleFold::Unanimous {
                first,
                missing,
                agree,
            } => first.filter(|_| !missing && agree),
            RuleFold::MergeText(seen, _) => {
                let mut texts: Vec<String> = seen
                    .into_values()
                    .flatten()
                    .map(|v| v.to_string())
                    .collect();
                if texts.is_empty() {
                    return None;
                }
                texts.sort();
                texts.dedup();
                Some(Value::Text(texts.join("+")))
            }
        }
    }
}

/// One group's state.
struct Group {
    key: Vec<Value>,
    /// The next group whose key hashes alike.
    next: usize,
    accs: Vec<Acc>,
    /// Per group column: the tags every member's key cell carries alike
    /// (`None` before the first member), and the tag vector folded last.
    key_tags: Vec<(Option<Vec<IndicatorValue>>, usize)>,
    /// Per tag source column: one fold per policy, and the tag vector
    /// folded last.
    derived: Vec<(Vec<RuleFold>, usize)>,
}

/// The one-pass tagged γ: [`Fold::add`] each input row, then
/// [`Fold::finish`].
pub(crate) struct Fold<'a> {
    aggs: &'a [AggCall],
    policies: &'a [TagPolicy],
    keys: Vec<usize>,
    inputs: Vec<Option<usize>>,
    /// The distinct input columns tags are derived from (none without
    /// policies), and per call the slot of its input among them.
    sources: Vec<usize>,
    source_of: Vec<Option<usize>>,
    hasher: RandomState,
    index: ByHash<usize>,
    groups: Vec<Group>,
}

impl<'a> Fold<'a> {
    /// Resolves the γ against the input `schema`; unknown columns and
    /// input-less non-COUNT calls error here, before any row.
    pub(crate) fn new(
        schema: &Schema,
        group_by: &[&str],
        aggs: &'a [AggCall],
        policies: &'a [TagPolicy],
    ) -> DbResult<Self> {
        let (keys, inputs) = resolve_aggregate(schema, group_by, aggs)?;
        let mut sources: Vec<usize> = Vec::new();
        let source_of = inputs
            .iter()
            .map(|input| {
                let col = input.filter(|_| !policies.is_empty())?;
                Some(sources.iter().position(|&c| c == col).unwrap_or_else(|| {
                    sources.push(col);
                    sources.len() - 1
                }))
            })
            .collect();
        Ok(Fold {
            aggs,
            policies,
            keys,
            inputs,
            sources,
            source_of,
            hasher: RandomState::new(),
            index: ByHash::default(),
            groups: Vec::new(),
        })
    }

    /// The input columns the fold reads, ascending.
    pub(crate) fn columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .keys
            .iter()
            .copied()
            .chain(self.inputs.iter().flatten().copied())
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn new_group(&self, key: Vec<Value>, next: usize) -> Group {
        Group {
            key,
            next,
            accs: self.aggs.iter().map(|a| Acc::new(a.func)).collect(),
            key_tags: vec![(None, NONE_YET); self.keys.len()],
            derived: self
                .sources
                .iter()
                .map(|_| {
                    (
                        self.policies
                            .iter()
                            .map(|p| RuleFold::new(p.rule))
                            .collect(),
                        NONE_YET,
                    )
                })
                .collect(),
        }
    }

    /// The group `row` belongs to, opened on first sight.
    fn group_of<C: Cells + ?Sized>(&mut self, row: &C) -> usize {
        if self.keys.is_empty() && !self.groups.is_empty() {
            return 0;
        }
        let mut h = self.hasher.build_hasher();
        for &c in &self.keys {
            row.value(c).hash(&mut h);
        }
        let h = h.finish();
        let head = self.index.get(&h).copied().unwrap_or(NO_GROUP);
        let mut g = head;
        while g != NO_GROUP {
            let group = &self.groups[g];
            if group
                .key
                .iter()
                .zip(&self.keys)
                .all(|(k, &c)| k == row.value(c))
            {
                return g;
            }
            g = group.next;
        }
        let key = self.keys.iter().map(|&c| row.value(c).clone()).collect();
        let group = self.new_group(key, head);
        self.groups.push(group);
        self.index.insert(h, self.groups.len() - 1);
        self.groups.len() - 1
    }

    /// Folds in one input row.
    pub(crate) fn add<C: Cells + ?Sized>(&mut self, row: &C) -> DbResult<()> {
        let g = self.group_of(row);
        let group = &mut self.groups[g];
        for (acc, input) in group.accs.iter_mut().zip(&self.inputs) {
            acc.update(input.map(|c| row.value(c)))?;
        }
        for ((common, last), &col) in group.key_tags.iter_mut().zip(&self.keys) {
            let tags = row.tags(col);
            if std::mem::replace(last, tag_id(tags)) == tag_id(tags) {
                continue;
            }
            let member = tags.map_or(&[][..], |t| t.as_slice());
            match common {
                None => *common = Some(member.to_vec()),
                Some(common) => common.retain(|t| tag_of(member, &t.indicator) == Some(t)),
            }
        }
        for ((rules, last), &col) in group.derived.iter_mut().zip(&self.sources) {
            let tags = row.tags(col);
            if std::mem::replace(last, tag_id(tags)) == tag_id(tags) {
                continue;
            }
            let member = tags.map_or(&[][..], |t| t.as_slice());
            for (rule, policy) in rules.iter_mut().zip(self.policies) {
                rule.fold(&policy.indicator, member, &self.hasher);
            }
        }
        Ok(())
    }

    /// The output relation: group columns (tags intersected) then one
    /// column per call (tags derived), groups in first-seen order. A
    /// global γ over no rows still yields its one row.
    pub(crate) fn finish(
        mut self,
        schema: &Schema,
        dict: &IndicatorDictionary,
    ) -> DbResult<TaggedRelation> {
        if self.keys.is_empty() && self.groups.is_empty() {
            let group = self.new_group(Vec::new(), NO_GROUP);
            self.groups.push(group);
        }
        let out_schema = aggregate_schema(schema, &self.keys, self.aggs)?;
        let policies = self.policies;
        let rows = self
            .groups
            .into_iter()
            .map(|g| {
                let mut row: TaggedRow = g
                    .key
                    .into_iter()
                    .zip(g.key_tags)
                    .map(|(v, (common, _))| QualityCell::tagged(v, common.unwrap_or_default()))
                    .collect();
                let derived: Vec<Vec<IndicatorValue>> = g
                    .derived
                    .into_iter()
                    .map(|(rules, _)| {
                        rules
                            .into_iter()
                            .zip(policies)
                            .filter_map(|(r, p)| {
                                r.finish()
                                    .map(|v| IndicatorValue::new(p.indicator.clone(), v))
                            })
                            .collect()
                    })
                    .collect();
                for (acc, slot) in g.accs.into_iter().zip(&self.source_of) {
                    let mut cell = QualityCell::bare(acc.finish());
                    for tag in slot.map_or(&[][..], |s| &derived[s]) {
                        cell.set_tag(tag.clone());
                    }
                    row.push(cell);
                }
                row
            })
            .collect();
        Ok(TaggedRelation::from_parts_unchecked(
            out_schema,
            dict.clone(),
            rows,
        ))
    }
}
