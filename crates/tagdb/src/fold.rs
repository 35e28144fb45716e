//! γ by group ids: the one tagged aggregate kernel.
//!
//! Every γ reaches this kernel as one or two columnar sources and, per
//! source, the rows of it the input reads, in input order: a resident
//! table's columnar selection ([`ColumnarRelation::aggregate`]), a join's
//! position pairs (left rows, right rows: [`JoinPairs::aggregate`]), or
//! anything else lifted into a layout once. It runs column by column in
//! three passes:
//!
//! 1. **Group ids.** Each input row gets a dense `u32` group id, numbered
//!    in the order groups are first seen. A Text key reads its pool id
//!    through a dense remap; an Int, Date, Bool or Float key hashes its
//!    raw 64 bits with a randomly keyed hasher (group keys are client
//!    data), Float by bits, which is `total_cmp` equality; only a `Mixed`
//!    key hashes `Value`s. Several keys refine the id one column at a
//!    time: (id so far, next column's id) → new id. Key `Value`s are
//!    built once per group, from its first row.
//! 2. **Accumulators**, one call at a time over (row, id): COUNT reads the
//!    validity bits, SUM and AVG the raw `i64`/`f64` arrays in row order
//!    (float totals and the row where SUM overflows are a row-at-a-time
//!    fold's), MIN and MAX compare typed values. [`Acc`] runs the rest:
//!    `Mixed` SUM/AVG, COUNT(DISTINCT), a SUM/AVG over non-numbers. A failing
//!    statement reports the first failing call of the first failing
//!    group, as the reference γ does, group by group and call by call.
//! 3. **Tags.** Each [`TagPolicy`] folds its indicator's tag column
//!    ([`ColumnarRelation::tag_column`], built once per layout) by group
//!    id: `Min` keeps the first of equal minima, `Max` the last of equal
//!    maxima, `Unanimous` the first value when every member carries an
//!    equal one, and `MergeText` the distinct values, deduplicated by
//!    (group, value) and rendered once. A group-key cell keeps the tags
//!    every member's key cell carries alike, read from the tag runs: a
//!    member whose tag vector is the `Arc` its group intersected last is
//!    skipped, so a bulk-tagged key costs one intersection per group.
//!
//! The kernel is serial, and holds one `u32` per input row (its group id)
//! besides per-group state: each pass reads the rows where they lie.
//!
//! [`ColumnarRelation::aggregate`]: crate::columnar::ColumnarRelation::aggregate
//! [`JoinPairs::aggregate`]: crate::columnar::JoinPairs::aggregate

use crate::algebra::{TagPolicy, TagRule};
use crate::bitmap::Bitset;
use crate::cell::QualityCell;
use crate::columnar::{Column, ColumnData, ColumnarRelation, SharedTags, TagRuns};
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use crate::relation::TaggedRelation;
use relstore::algebra::{aggregate_schema, resolve_aggregate, Acc, AggCall, AggFunc};
use relstore::{DbError, DbResult, Schema, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::Arc;

/// The rows of one source the γ's input reads, in input order.
pub(crate) trait Rows: Copy {
    fn rows(self) -> impl Iterator<Item = usize>;
}

/// A selection's rows, ascending.
impl Rows for &Bitset {
    fn rows(self) -> impl Iterator<Item = usize> {
        self.iter_ones()
    }
}

/// One side of a join's position pairs: the left rows, or (`true`) the
/// right rows.
impl Rows for (&[(u32, u32)], bool) {
    fn rows(self) -> impl Iterator<Item = usize> {
        let (pairs, right) = self;
        pairs
            .iter()
            .map(move |&(l, r)| if right { r } else { l } as usize)
    }
}

/// No group, or no row, yet.
const NONE: u32 = u32::MAX;

/// Input column `c`: its source's position, layout and rows, and its
/// column in that layout. Input columns are the sources' columns in
/// order.
fn input_column<'a, R: Rows>(
    sources: &[(&'a ColumnarRelation, R)],
    mut c: usize,
) -> (usize, &'a ColumnarRelation, R, usize) {
    for (s, &(crel, rows)) in sources.iter().enumerate() {
        if c < crel.columns().len() {
            return (s, crel, rows, c);
        }
        c -= crel.columns().len();
    }
    unreachable!("resolved column past the input")
}

/// γ over `sources` (whose joint schema is `schema`): group by
/// `group_by`, compute `aggs`, derive the aggregate cells' tags per
/// `policies`. Groups come out in first-seen order; a global γ over no
/// rows still yields its one row.
pub(crate) fn aggregate<R: Rows>(
    sources: &[(&ColumnarRelation, R)],
    schema: &Schema,
    dict: &IndicatorDictionary,
    group_by: &[&str],
    aggs: &[AggCall],
    policies: &[TagPolicy],
) -> DbResult<TaggedRelation> {
    let (keys, inputs) = resolve_aggregate(schema, group_by, aggs)?;
    let hasher = RandomState::new();
    let column = |c: usize| {
        let (_, crel, rows, ci) = input_column(sources, c);
        (&crel.columns()[ci], rows)
    };
    // pass 1: group ids, and each source's row of each group's first
    // member
    let mut gids = vec![0u32; sources[0].1.rows().count()];
    for (k, &c) in keys.iter().enumerate() {
        let (col, rows) = column(c);
        if k == 0 {
            column_ids(col, rows.rows(), &hasher, &mut gids);
        } else {
            let mut ids = vec![0u32; gids.len()];
            column_ids(col, rows.rows(), &hasher, &mut ids);
            let pairs = gids
                .iter()
                .zip(ids)
                .map(|(&g, c)| u64::from(g) << 32 | u64::from(c));
            let pairs: Vec<u64> = pairs.collect();
            hashed_ids(&mut gids, pairs.into_iter().map(Some), &hasher);
        }
    }
    let firsts: Vec<Vec<u32>> = sources
        .iter()
        .map(|&(_, rows)| {
            let mut first = Vec::new();
            for (r, &g) in rows.rows().zip(&gids) {
                if g as usize == first.len() {
                    first.push(r as u32);
                }
            }
            first
        })
        .collect();
    let groups = firsts[0].len().max(usize::from(keys.is_empty()));
    // pass 2: one call at a time
    let mut values = Vec::with_capacity(aggs.len());
    let mut failed: Option<(u32, DbError)> = None;
    for (call, input) in aggs.iter().zip(&inputs) {
        match fold_call(call.func, input.map(column), &gids, groups) {
            Ok(v) => values.push(v),
            Err((g, e)) if failed.as_ref().is_none_or(|(f, _)| g < *f) => failed = Some((g, e)),
            Err(_) => {}
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    let out_schema = aggregate_schema(schema, &keys, aggs)?;
    // pass 3: tags — the key cells', then each input column's derived ones
    let mut key_tags: Vec<Vec<Vec<IndicatorValue>>> = keys
        .iter()
        .map(|&c| {
            let (col, rows) = column(c);
            common_tags(&col.tags, rows.rows(), &gids, groups)
        })
        .collect();
    // per input column and group, a bare cell carrying the derived tags
    let mut derived: HashMap<usize, Vec<QualityCell>> = HashMap::new();
    for &c in inputs.iter().flatten().filter(|_| !policies.is_empty()) {
        derived.entry(c).or_insert_with(|| {
            let (_, crel, rows, ci) = input_column(sources, c);
            let mut carriers = vec![QualityCell::bare(Value::Null); groups];
            for p in policies {
                let column = crel.tag_column(ci, std::slice::from_ref(&p.indicator));
                let tags = derive(&column, p.rule, rows, &gids, groups);
                for (carrier, v) in carriers.iter_mut().zip(tags) {
                    if let Some(v) = v {
                        carrier.set_tag(IndicatorValue::new(p.indicator.clone(), v));
                    }
                }
            }
            carriers
        });
    }
    // one output row per group
    let rows = (0..groups)
        .map(|g| {
            let keys = keys.iter().zip(&mut key_tags).map(|(&c, tags)| {
                let (s, crel, _, ci) = input_column(sources, c);
                let value = crel.value_at(ci, firsts[s][g] as usize);
                QualityCell::tagged(value, std::mem::take(&mut tags[g]))
            });
            let calls = values.iter_mut().zip(&inputs).map(|(vals, input)| {
                let carrier = input.and_then(|c| derived.get(&c)).map(|d| d[g].clone());
                let mut cell = carrier.unwrap_or_else(|| QualityCell::bare(Value::Null));
                cell.value = std::mem::replace(&mut vals[g], Value::Null);
                cell
            });
            keys.chain(calls).collect()
        })
        .collect();
    let rel = TaggedRelation::from_parts_unchecked(out_schema, dict.clone(), rows);
    Ok(rel)
}

// ---------------------------------------------------------------------
// Pass 1: group ids
// ---------------------------------------------------------------------

/// First-seen ids into `out`, by each row's 64-bit key (`None`: NULL, a
/// value of its own) in a map hashed with the keyed `hasher`. A small
/// direct-mapped memo answers repeated keys before the map; keys that
/// collide in it only miss it, so the map's keyed hashing still bounds
/// the work on hostile keys.
fn hashed_ids(out: &mut [u32], keys: impl Iterator<Item = Option<u64>>, hasher: &RandomState) {
    let mut ids: HashMap<u64, u32, RandomState> = HashMap::with_hasher(hasher.clone());
    let mut memo = [(0u64, NONE); 256];
    let (mut null, mut next) = (NONE, 0);
    for (o, k) in out.iter_mut().zip(keys) {
        let Some(k) = k else {
            if null == NONE {
                (null, next) = (next, next + 1);
            }
            *o = null;
            continue;
        };
        let slot = &mut memo[(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize];
        if slot.1 == NONE || slot.0 != k {
            let id = *ids.entry(k).or_insert_with(|| {
                next += 1;
                next - 1
            });
            *slot = (k, id);
        }
        *o = slot.1;
    }
}

/// `col`'s raw 64-bit key at each of `rows`, `None` where NULL.
fn keys_at<'a>(
    col: &'a Column,
    rows: impl Iterator<Item = usize> + 'a,
    raw: impl Fn(usize) -> u64 + 'a,
) -> impl Iterator<Item = Option<u64>> + 'a {
    rows.map(move |r| col.validity.contains(r).then(|| raw(r)))
}

/// First-seen ids of `col`'s values at `rows`, into `out`.
fn column_ids(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    hasher: &RandomState,
    out: &mut [u32],
) {
    match &col.data {
        // a pool holds each string once: its ids need no hashing
        ColumnData::Text { ids, pool } => {
            let null = pool.len();
            let mut remap = vec![NONE; null + 1];
            let mut next = 0;
            for (o, r) in out.iter_mut().zip(rows) {
                let valid = col.validity.contains(r);
                let slot = &mut remap[if valid { ids[r] as usize } else { null }];
                if *slot == NONE {
                    *slot = next;
                    next += 1;
                }
                *o = *slot;
            }
        }
        ColumnData::Int(v) | ColumnData::Date(v) => {
            hashed_ids(out, keys_at(col, rows, |r| v[r] as u64), hasher)
        }
        ColumnData::Float(v) => hashed_ids(out, keys_at(col, rows, |r| v[r].to_bits()), hasher),
        ColumnData::Bool(v) => hashed_ids(out, keys_at(col, rows, |r| u64::from(v[r])), hasher),
        ColumnData::Mixed(v) => {
            let mut ids: HashMap<&Value, u32, RandomState> = HashMap::with_hasher(hasher.clone());
            for (o, r) in out.iter_mut().zip(rows) {
                let next = ids.len() as u32;
                *o = *ids.entry(&v[r]).or_insert(next);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass 2: accumulators
// ---------------------------------------------------------------------

/// `values`, or the error of the lowest-numbered group that failed
/// (`errs`: each group's first error, in its row order).
fn first_failure<T>(errs: Vec<Option<DbError>>, values: T) -> Result<T, (u32, DbError)> {
    match errs
        .into_iter()
        .enumerate()
        .find_map(|(g, e)| Some((g as u32, e?)))
    {
        Some(failed) => Err(failed),
        None => Ok(values),
    }
}

/// `col`'s values at rows `a` and `b`, both non-NULL, in `Value` order.
fn cmp_rows(col: &Column, a: usize, b: usize) -> Ordering {
    match &col.data {
        ColumnData::Int(v) | ColumnData::Date(v) => v[a].cmp(&v[b]),
        ColumnData::Float(v) => v[a].total_cmp(&v[b]),
        ColumnData::Bool(v) => v[a].cmp(&v[b]),
        ColumnData::Text { ids, pool } => pool.get(ids[a]).cmp(pool.get(ids[b])),
        ColumnData::Mixed(v) => v[a].cmp(&v[b]),
    }
}

/// Per group, the non-NULL value of `col` that `keep(cmp(value, best))`
/// prefers over every earlier one.
fn extreme(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    gids: &[u32],
    groups: usize,
    keep: fn(Ordering) -> bool,
) -> Vec<Option<Value>> {
    let mut best = vec![NONE; groups];
    for (r, &g) in rows.zip(gids) {
        let b = &mut best[g as usize];
        if col.validity.contains(r) && (*b == NONE || keep(cmp_rows(col, r, *b as usize))) {
            *b = r as u32;
        }
    }
    best.into_iter()
        .map(|b| (b != NONE).then(|| col.value(b as usize)))
        .collect()
}

/// Per group, `add` folded from `0.0` over its non-NULL rows of `col` in
/// row order, and how many there were.
fn sums(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    gids: &[u32],
    groups: usize,
    add: impl Fn(&mut f64, usize),
) -> Vec<(f64, i64)> {
    let mut sums = vec![(0.0, 0i64); groups];
    for (r, &g) in rows.zip(gids) {
        if col.validity.contains(r) {
            let (total, n) = &mut sums[g as usize];
            add(total, r);
            *n += 1;
        }
    }
    sums
}

/// One call's value per group, or its first failing group's error.
fn fold_call(
    func: AggFunc,
    input: Option<(&Column, impl Rows)>,
    gids: &[u32],
    groups: usize,
) -> Result<Vec<Value>, (u32, DbError)> {
    let Some((col, rows)) = input else {
        // COUNT(*)
        let mut counts = vec![0i64; groups];
        for &g in gids {
            counts[g as usize] += 1;
        }
        return Ok(counts.into_iter().map(Value::Int).collect());
    };
    let some = |n: i64, v: Value| if n == 0 { Value::Null } else { v };
    let avg = |(t, n): (f64, i64)| some(n, Value::Float(t / n as f64));
    match (func, &col.data) {
        (AggFunc::Count, _) => {
            let counts = sums(col, rows.rows(), gids, groups, |_, _| {});
            Ok(counts.into_iter().map(|(_, n)| Value::Int(n)).collect())
        }
        (AggFunc::Sum, ColumnData::Int(v)) => {
            let (mut sums, mut errs) = (vec![(0i64, 0i64); groups], vec![None; groups]);
            for (r, &g) in rows.rows().zip(gids) {
                let (g, overflow) = (g as usize, "integer overflow in SUM");
                if col.validity.contains(r) && errs[g].is_none() {
                    let (total, n) = &mut sums[g];
                    match total.checked_add(v[r]) {
                        Some(t) => (*total, *n) = (t, *n + 1),
                        None => errs[g] = Some(DbError::Arithmetic(overflow.into())),
                    }
                }
            }
            let values = sums.into_iter().map(|(t, n)| some(n, Value::Int(t)));
            first_failure(errs, values.collect())
        }
        (AggFunc::Sum, ColumnData::Float(v)) => {
            let sums = sums(col, rows.rows(), gids, groups, |t, r| *t += v[r]);
            Ok(sums
                .into_iter()
                .map(|(t, n)| some(n, Value::Float(t)))
                .collect())
        }
        (AggFunc::Avg, ColumnData::Int(v)) => {
            let sums = sums(col, rows.rows(), gids, groups, |t, r| *t += v[r] as f64);
            Ok(sums.into_iter().map(avg).collect())
        }
        (AggFunc::Avg, ColumnData::Float(v)) => {
            let sums = sums(col, rows.rows(), gids, groups, |t, r| *t += v[r]);
            Ok(sums.into_iter().map(avg).collect())
        }
        (AggFunc::Min | AggFunc::Max, _) => {
            let keep: fn(Ordering) -> bool = match func {
                AggFunc::Min => Ordering::is_lt,
                _ => Ordering::is_gt,
            };
            let best = extreme(col, rows.rows(), gids, groups, keep);
            Ok(best.into_iter().map(|v| v.unwrap_or(Value::Null)).collect())
        }
        _ => {
            let mut accs: Vec<Acc> = (0..groups).map(|_| Acc::new(func)).collect();
            let mut errs = vec![None; groups];
            for (r, &g) in rows.rows().zip(gids) {
                let g = g as usize;
                if errs[g].is_none() {
                    errs[g] = accs[g].update(Some(&col.value(r))).err();
                }
            }
            first_failure(errs, accs.into_iter().map(Acc::finish).collect())
        }
    }
}

// ---------------------------------------------------------------------
// Pass 3: tags
// ---------------------------------------------------------------------

/// Identity of a tag vector: its `Arc` address, 0 when untagged.
fn tag_id(tags: Option<&SharedTags>) -> usize {
    tags.map_or(0, |t| Arc::as_ptr(t) as usize)
}

/// Per group, the tags every member's key cell carries alike (`runs`:
/// the key column's tags).
fn common_tags(
    runs: &TagRuns,
    rows: impl Iterator<Item = usize>,
    gids: &[u32],
    groups: usize,
) -> Vec<Vec<IndicatorValue>> {
    let mut common: Vec<Option<Vec<IndicatorValue>>> = vec![None; groups];
    let mut last = vec![usize::MAX; groups];
    for ((_, tags), &g) in runs.along(rows).zip(gids) {
        let g = g as usize;
        if std::mem::replace(&mut last[g], tag_id(tags)) == tag_id(tags) {
            continue;
        }
        let member = tags.map_or(&[][..], |t| t.as_slice());
        match &mut common[g] {
            None => common[g] = Some(member.to_vec()),
            Some(c) => c.retain(|t| member.iter().any(|m| m == t)),
        }
    }
    common.into_iter().map(Option::unwrap_or_default).collect()
}

/// Per group, what `rule` derives from the tag column `col` (one
/// indicator's value per row, valid where the cell carries it).
fn derive(
    col: &Column,
    rule: TagRule,
    rows: impl Rows,
    gids: &[u32],
    groups: usize,
) -> Vec<Option<Value>> {
    if col.validity.none() {
        return vec![None; groups]; // no cell carries it
    }
    match rule {
        TagRule::Min => extreme(col, rows.rows(), gids, groups, Ordering::is_lt),
        TagRule::Max => extreme(col, rows.rows(), gids, groups, Ordering::is_ge),
        TagRule::Unanimous => {
            let (mut first, mut split) = (vec![NONE; groups], vec![false; groups]);
            for (r, &g) in rows.rows().zip(gids) {
                let g = g as usize;
                if split[g] {
                    continue;
                }
                if !col.validity.contains(r) {
                    split[g] = true;
                } else if first[g] == NONE {
                    first[g] = r as u32;
                } else {
                    split[g] = cmp_rows(col, r, first[g] as usize).is_ne();
                }
            }
            let value = |(f, s): (u32, bool)| (f != NONE && !s).then(|| col.value(f as usize));
            first.into_iter().zip(split).map(value).collect()
        }
        TagRule::MergeText => merge_text(col, rows.rows(), gids, groups),
    }
}

/// Per group, its distinct tag values rendered, sorted and joined by
/// `+`. Values are deduplicated by (group, value key), a run of one
/// group's equal keys skipping the push: a Text column's key is its pool
/// id, and a tag column's pool is sorted, so ascending ids render
/// ascending and distinct. Other values render and dedup as strings
/// (`Int 1` and `Float 1.0` both render `1`).
fn merge_text(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    gids: &[u32],
    groups: usize,
) -> Vec<Option<Value>> {
    let key = |r: usize| match &col.data {
        ColumnData::Int(v) | ColumnData::Date(v) => v[r] as u64,
        ColumnData::Float(v) => v[r].to_bits(),
        ColumnData::Bool(v) => u64::from(v[r]),
        ColumnData::Text { ids, .. } => u64::from(ids[r]),
        ColumnData::Mixed(_) => r as u64,
    };
    let mut last = vec![None; groups];
    let mut seen: Vec<(u32, u64, u32)> = Vec::new();
    for (r, &g) in rows.zip(gids) {
        if col.validity.contains(r) {
            let k = key(r);
            if last[g as usize].replace(k) != Some(k) {
                seen.push((g, k, r as u32));
            }
        }
    }
    seen.sort_unstable_by_key(|&(g, k, _)| (g, k));
    seen.dedup_by_key(|&mut (g, k, _)| (g, k));
    let mut out = vec![None; groups];
    for members in seen.chunk_by(|a, b| a.0 == b.0) {
        let texts: Vec<String> = match &col.data {
            ColumnData::Text { pool, .. } => members
                .iter()
                .map(|&(_, k, _)| pool.get(k as u32).to_owned())
                .collect(),
            _ => {
                let mut texts: Vec<String> = members
                    .iter()
                    .map(|&(.., r)| col.value(r as usize).to_string())
                    .collect();
                texts.sort();
                texts.dedup();
                texts
            }
        };
        out[members[0].0 as usize] = Some(Value::Text(texts.join("+")));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    //! The kernel against γ written longhand over rows.
    use super::*;
    use crate::bitmap::Bitset;
    use crate::columnar::JoinPairs;
    use crate::indicator::IndicatorDef;
    use crate::relation::TaggedRow;
    use crate::symbol::Symbol;
    use proptest::prelude::*;
    use relstore::{DataType, Date};

    /// γ longhand: rows grouped by `Value` equality in first-seen order;
    /// then group by group and call by call, an [`Acc`] over the members'
    /// values (the first error returns) and each policy's tag from their
    /// cells; a key cell keeps the tags every member's carries alike.
    pub(crate) fn longhand(
        rel: &TaggedRelation,
        group_by: &[&str],
        aggs: &[AggCall],
        policies: &[TagPolicy],
    ) -> DbResult<TaggedRelation> {
        let (keys, inputs) = resolve_aggregate(rel.schema(), group_by, aggs)?;
        let mut groups: Vec<Vec<&TaggedRow>> = Vec::new();
        for row in rel.iter() {
            match groups
                .iter_mut()
                .find(|g| keys.iter().all(|&k| g[0][k].value == row[k].value))
            {
                Some(g) => g.push(row),
                None => groups.push(vec![row]),
            }
        }
        if keys.is_empty() && groups.is_empty() {
            groups.push(Vec::new());
        }
        let mut out = Vec::new();
        for members in &groups {
            let mut row = Vec::new();
            for &k in &keys {
                let mut cell = QualityCell::bare(members[0][k].value.clone());
                for t in members[0][k].tags() {
                    if members
                        .iter()
                        .all(|m| m[k].tag_sym(&t.indicator) == Some(t))
                    {
                        cell.set_tag(t.clone());
                    }
                }
                row.push(cell);
            }
            for (call, input) in aggs.iter().zip(&inputs) {
                let mut acc = Acc::new(call.func);
                for m in members {
                    acc.update(input.map(|c| &m[c].value))?;
                }
                let mut cell = QualityCell::bare(acc.finish());
                for p in policies.iter().filter(|_| input.is_some()) {
                    let cells: Vec<&QualityCell> =
                        members.iter().map(|m| &m[input.unwrap()]).collect();
                    if let Some(v) = derive_longhand(p, &cells) {
                        cell.set_tag(IndicatorValue::new(p.indicator.clone(), v));
                    }
                }
                row.push(cell);
            }
            out.push(TaggedRow::from(row));
        }
        let schema = aggregate_schema(rel.schema(), &keys, aggs)?;
        Ok(TaggedRelation::from_parts_unchecked(
            schema,
            rel.dictionary().clone(),
            out,
        ))
    }

    /// A policy's tag from a group's input cells.
    fn derive_longhand(p: &TagPolicy, cells: &[&QualityCell]) -> Option<Value> {
        let vals: Vec<&Value> = cells
            .iter()
            .filter_map(|c| c.tag_sym(&p.indicator).map(|t| &t.value))
            .collect();
        let first = *vals.first()?;
        Some(match p.rule {
            // the first of equal minima, the last of equal maxima
            TagRule::Min => vals
                .iter()
                .fold(first, |b, &v| if v < b { v } else { b })
                .clone(),
            TagRule::Max => vals
                .iter()
                .fold(first, |b, &v| if v >= b { v } else { b })
                .clone(),
            TagRule::Unanimous if vals.len() < cells.len() || vals.iter().any(|v| *v != first) => {
                None?
            }
            TagRule::Unanimous => first.clone(),
            TagRule::MergeText => {
                let texts: std::collections::BTreeSet<String> =
                    vals.iter().map(|v| v.to_string()).collect();
                Value::Text(texts.into_iter().collect::<Vec<_>>().join("+"))
            }
        })
    }

    /// splitmix64 over a proptest-drawn seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize].clone()
        }

        /// `v`, or NULL one time in eight.
        fn nullable(&mut self, v: Value) -> Value {
            if self.below(8) == 0 {
                Value::Null
            } else {
                v
            }
        }
    }

    fn floats() -> [Value; 5] {
        let nan = Value::Float(f64::NAN);
        let other_nan = Value::Float(f64::from_bits(f64::NAN.to_bits() | 1));
        [
            Value::Float(-0.0),
            Value::Float(0.0),
            nan,
            other_nan,
            Value::Float(1.5),
        ]
    }

    fn dictionary() -> IndicatorDictionary {
        let mut dict = IndicatorDictionary::with_paper_defaults();
        dict.declare(IndicatorDef::new("score", DataType::Float, "a Float tag"))
            .unwrap();
        dict.declare(IndicatorDef::new(
            "note",
            DataType::Any,
            "a tag of any type",
        ))
        .unwrap();
        dict
    }

    /// Tags for one cell: source, creation_time, age (sometimes a NULL
    /// value), score and note, each present or not.
    fn tags(g: &mut Gen) -> Vec<IndicatorValue> {
        let mut tags = Vec::new();
        let mut maybe = |g: &mut Gen, name: &str, v: Value| {
            if g.below(3) != 0 {
                tags.push(IndicatorValue::new(name, v));
            }
        };
        let source = Value::text(g.pick(&["x", "y", "z"]));
        maybe(g, "source", source);
        let day = Value::Date(Date::from_days(g.below(3) as i64));
        maybe(g, "creation_time", day);
        let age = g.pick(&[Value::Int(1), Value::Int(2), Value::Null]);
        maybe(g, "age", age);
        let score = g.pick(&floats());
        maybe(g, "score", score);
        let note = g.pick(&[
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::text("1"),
        ]);
        maybe(g, "note", note);
        tags
    }

    /// `t`: a key column of each type (`km` is `Any`: Int, Float and Text
    /// alike) and Int/Float inputs, every cell nullable; the inputs' cells
    /// untagged, sharing one of two tag vectors, or tagged alone; `ki`
    /// tagged per cell and `kt` bulk-tagged.
    fn table(g: &mut Gen, rows: usize) -> TaggedRelation {
        use DataType::{Any, Bool, Float, Int, Text};
        let schema = Schema::of(&[
            ("ki", Int),
            ("kt", Text),
            ("kd", DataType::Date),
            ("kb", Bool),
            ("kf", Float),
            ("km", Any),
            ("v", Int),
            ("w", Float),
        ]);
        let shared = [tags(g), tags(g)].map(|t| QualityCell::tagged(Value::Null, t));
        let mut out = Vec::new();
        for _ in 0..rows {
            let cell = |g: &mut Gen, v: Value, tagged: bool| {
                let v = g.nullable(v);
                match (tagged, g.below(4)) {
                    (false, _) | (true, 0) => QualityCell::bare(v),
                    (true, 1 | 2) => {
                        let mut c = shared[g.below(2) as usize].clone();
                        c.value = v;
                        c
                    }
                    _ => QualityCell::tagged(v, tags(g)),
                }
            };
            let ki = Value::Int(g.below(3) as i64);
            let kt = Value::text(g.pick(&["a", "b", "c"]));
            let kd = Value::Date(Date::from_days(g.below(3) as i64));
            let kb = Value::Bool(g.below(2) == 0);
            let kf = g.pick(&floats());
            let km = g.pick(&[
                Value::Int(1),
                Value::Float(1.0),
                Value::text("1"),
                Value::Float(-0.0),
                Value::Int(0),
            ]);
            let v = match g.below(10) {
                0 => Value::Int(i64::MAX - g.below(3) as i64),
                _ => Value::Int(g.below(21) as i64 - 10),
            };
            let w = g.pick(&floats());
            out.push(vec![
                cell(g, ki, true),
                cell(g, kt, false),
                cell(g, kd, false),
                cell(g, kb, false),
                cell(g, kf, false),
                cell(g, km, true),
                cell(g, v, true),
                cell(g, w, true),
            ]);
        }
        let mut rel = TaggedRelation::new(schema, dictionary(), out).unwrap();
        if g.below(2) == 0 {
            rel.tag_column("kt", IndicatorValue::new("source", "bulk"))
                .unwrap();
        }
        rel
    }

    /// `u(kt, x)`: a join side with a pool of its own (interned in
    /// another order), duplicate and NULL keys, `x` tagged per row.
    fn dimension(g: &mut Gen) -> TaggedRelation {
        let schema = Schema::of(&[("kt", DataType::Text), ("x", DataType::Int)]);
        let keys = [
            Value::text("c"),
            Value::text("b"),
            Value::Null,
            Value::text("c"),
            Value::text("a"),
        ];
        let rows = keys
            .into_iter()
            .map(|k| {
                vec![
                    QualityCell::bare(k),
                    QualityCell::tagged(Value::Int(g.below(3) as i64), tags(g)),
                ]
            })
            .collect();
        TaggedRelation::new(schema, dictionary(), rows).unwrap()
    }

    fn calls(g: &mut Gen, columns: &[&str]) -> Vec<AggCall> {
        use AggFunc::*;
        let mut calls = vec![AggCall::count_star("n")];
        for i in 0..g.below(5) + 1 {
            let func = g.pick(&[Count, Sum, Avg, Min, Max, CountDistinct]);
            // `km` (`Int 1` ties `Float 1.0`) one time in four
            let column = if g.below(4) == 0 {
                "km"
            } else {
                g.pick(columns)
            };
            calls.push(AggCall::on(func, column, format!("c{i}")));
        }
        calls
    }

    /// Each rule at most once, over indicators leaning to the `Any`-typed
    /// `note` (where `Int 1` and `Float 1.0` tie) and the Float `score`.
    fn policies(g: &mut Gen) -> Vec<TagPolicy> {
        let indicators = [
            "source",
            "creation_time",
            "age",
            "score",
            "note",
            "note",
            "score",
            "analyst",
            "ghost",
        ];
        let rules = [
            TagRule::Min,
            TagRule::Max,
            TagRule::Unanimous,
            TagRule::MergeText,
        ];
        let mut policies = Vec::new();
        for rule in rules {
            if g.below(4) != 0 {
                policies.push(TagPolicy::new(g.pick(&indicators), rule));
            }
        }
        policies
    }

    fn keys<'a>(g: &mut Gen, columns: &[&'a str]) -> Vec<&'a str> {
        let mut keys = Vec::new();
        for _ in 0..g.below(4) {
            let k = g.pick(columns);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// Equal answers: the same error text, or relations equal and alike
    /// in every rendering (`Int 1` and `Float 1.0` are equal values).
    fn same(got: DbResult<TaggedRelation>, want: DbResult<TaggedRelation>) -> Result<(), String> {
        match (got, want) {
            (Ok(g), Ok(w)) if g == w && format!("{g:?}") == format!("{w:?}") => Ok(()),
            (Err(g), Err(w)) if g.to_string() == w.to_string() => Ok(()),
            (g, w) => Err(format!("kernel {g:?}\nlonghand {w:?}")),
        }
    }

    proptest! {
        /// The γ kernel equals γ written longhand — keys of every type
        /// (Float `-0.0`/`0.0`/NaN, a `Mixed` key holding `Int 1`, `Float
        /// 1.0` and `'1'`), single and multi-column, NULL keys, every
        /// `AggFunc` and `TagRule`, SUMs that overflow — over a selection
        /// and over a join's pairs whose two sides intern Text keys in
        /// different pools. Each tag column equals the cells' tag values,
        /// for every indicator present, absent or undeclared.
        #[test]
        fn group_ids_match_the_longhand_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&[0usize, 1, 5, 30, 90]);
            let t = table(&mut g, rows);
            let crel = ColumnarRelation::from_tagged(&t);
            for ind in ["source", "creation_time", "age", "score", "note", "analyst", "ghost"] {
                for c in 0..t.schema().columns().len() {
                    let column = crel.tag_column(c, &[Symbol::intern(ind)]);
                    for (r, row) in t.iter().enumerate() {
                        let want = row[c].tag(ind).map(|t| &t.value);
                        prop_assert_eq!(column.validity.contains(r), want.is_some());
                        prop_assert_eq!(format!("{:?}", column.value(r)), format!("{:?}", row[c].tag_value(ind)));
                    }
                }
            }
            let columns = ["ki", "kt", "kd", "kb", "kf", "km", "v", "w"];
            let mut sel = Bitset::new(rows);
            for r in 0..rows {
                if g.below(4) != 0 {
                    sel.set(r);
                }
            }
            let picked = crel.gather(&sel);
            for _ in 0..4 {
                let (keys, calls, policies) = (keys(&mut g, &columns), calls(&mut g, &columns), policies(&mut g));
                let got = crel.aggregate(&sel, &keys, &calls, &policies);
                let want = longhand(&picked, &keys, &calls, &policies);
                if let Err(e) = same(got, want) {
                    prop_assert!(false, "seed {seed}: {keys:?} {calls:?} {policies:?}: {e}");
                }
            }
            let (left, u) = (Arc::new(crel), dimension(&mut g));
            let right = Arc::new(ColumnarRelation::from_tagged(&u));
            let index = right.key_index("kt", &Bitset::full(right.len())).unwrap();
            let (pairs, _) = JoinPairs::probe(Arc::clone(&left), &sel, "kt", right, "kt", &index, 7).unwrap();
            let joined = pairs.gather();
            let columns = ["ki", "l.kt", "r.kt", "kf", "km", "v", "x"];
            for _ in 0..3 {
                let (keys, calls, policies) = (keys(&mut g, &columns), calls(&mut g, &columns), policies(&mut g));
                let got = pairs.aggregate(&keys, &calls, &policies);
                let want = longhand(&joined, &keys, &calls, &policies);
                if let Err(e) = same(got, want) {
                    prop_assert!(false, "seed {seed}: pairs {keys:?} {calls:?} {policies:?}: {e}");
                }
            }
        }
    }
}
