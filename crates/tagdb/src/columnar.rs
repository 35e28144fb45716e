//! Columnar tagged storage: per-column typed arrays + run-length-encoded
//! tag runs, so vectorized kernels read contiguous memory instead of
//! chasing `Vec<QualityCell>` row pointers.
//!
//! ## Layout
//!
//! A [`ColumnarRelation`] holds one [`Column`] per schema column:
//!
//! * **values** — a dense typed array ([`ColumnData`]): `Vec<i64>` for
//!   Int, `Vec<f64>` for Float, day-numbers for Date, interned `u32` ids
//!   into a shared [`StrPool`] for Text, plus a `Mixed(Vec<Value>)`
//!   escape hatch for `Any`-typed or heterogeneous columns. No per-cell
//!   `Value` enum on the hot path;
//! * **validity** — a [`Bitset`] with bit `i` set iff row `i` is
//!   non-NULL, so 3VL NULL-dropping is one word-AND per batch;
//! * **tags** — [`TagRuns`], a run-length encoding of the per-cell
//!   shared tag vectors: consecutive cells pointing at the *same*
//!   `Arc<Vec<IndicatorValue>>` (PR 1's bulk-tagging representation)
//!   collapse into one run, so tag propagation through σ/π/⋈ is a
//!   refcount bump per surviving run slice, and the columnar index build
//!   indexes whole runs at a time.
//!
//! ## Parity contract
//!
//! [`ColumnarRelation::from_tagged`] → [`ColumnarRelation::to_tagged`]
//! is an exact round trip: values, null validity, relation tags, and
//! per-cell tag sets — including `Arc` identity, so cells that shared a
//! tag allocation still share it after the round trip. Every columnar
//! operator (σ, indexed σ, π, ⋈ probe, index build) produces output
//! `to_tagged()`-equal to the row-at-a-time reference; the property
//! tests pin this at batch sizes 1/7/1024 and 1/2/8 threads. The kernels
//! are the bound [`Predicate`]'s conjuncts, as in `tagstore::vector`:
//! NULLs drop first, `=`/`≠` use the storage total order, a typed kernel
//! runs no type check per row (binding made its literal comparable), and
//! a generic conjunct — including one over an `Any`-typed, `Mixed`
//! column — is the scalar evaluator over materialized rows, with the
//! same batch-granular error-row caveat.

use crate::algebra::{TagAccessPath, TagPolicy};
use crate::bitmap::{Bitset, QualityIndex};
use crate::cell::QualityCell;
use crate::fold::{Cells, Fold};
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use crate::predicate::{Access, Kernel, Predicate, ToPredicate};
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use crate::vector::{for_each_run, retain, BatchStats};
use relstore::algebra::AggCall;
use relstore::expr::BinOp;
use relstore::index::HashIndex;
use relstore::{par, DataType, Date, DbError, DbResult, Schema, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A shared per-cell tag vector (PR 1's CoW representation).
pub type SharedTags = Arc<Vec<IndicatorValue>>;

/// Deduplicated string storage for one Text column: values are `u32`
/// ids into this pool, and gathers copy ids while sharing the pool
/// behind an `Arc`.
#[derive(Debug, Default, PartialEq)]
pub struct StrPool {
    strings: Vec<String>,
}

impl StrPool {
    /// The string behind `id`.
    ///
    /// # Panics
    /// When `id` was not produced by this pool's conversion pass.
    pub fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// The id of `s`, if pooled. Linear scan — callers resolve literals
    /// once per operator, not per row.
    pub fn id_of(&self, s: &str) -> Option<u32> {
        self.strings.iter().position(|p| p == s).map(|i| i as u32)
    }
}

/// Run-length-encoded per-cell tag sets for one column: consecutive
/// cells sharing one `Arc` (or consecutively untagged) form a run.
/// Merging is by `Arc` *identity*, never content — so runs preserve the
/// exact sharing structure of the row layout through a round trip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagRuns {
    /// `(start_row, tags)` per run; runs are contiguous and ascending,
    /// run `i` covers `runs[i].0 .. runs[i+1].0` (or `len` for the last).
    runs: Vec<(usize, Option<SharedTags>)>,
    len: usize,
}

fn same_tags(a: Option<&SharedTags>, b: Option<&SharedTags>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

impl TagRuns {
    /// Appends one cell's tag set (a refcount bump when a new run is
    /// opened, free when it extends the current run).
    pub fn push(&mut self, tags: Option<&SharedTags>) {
        self.extend_run(tags, 1);
    }

    /// Appends `n` cells all carrying `tags`.
    pub fn extend_run(&mut self, tags: Option<&SharedTags>, n: usize) {
        if n == 0 {
            return;
        }
        if let Some((_, last)) = self.runs.last() {
            if same_tags(last.as_ref(), tags) {
                self.len += n;
                return;
            }
        } else if self.len == 0 && tags.is_none() && self.runs.is_empty() {
            // Leading untagged cells still need an explicit run so
            // `get`/`window` stay total; fall through to push it.
        }
        self.runs.push((self.len, tags.cloned()));
        self.len += n;
    }

    /// Number of runs — the compression ratio signal (`len / runs`).
    #[cfg(test)]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The tag set of cell `i` (None ⇔ untagged). Binary search over
    /// run starts.
    ///
    /// # Panics
    /// When `i >= len`.
    pub fn get(&self, i: usize) -> Option<&SharedTags> {
        assert!(i < self.len, "TagRuns::get({i}) out of {}", self.len);
        let ri = self.runs.partition_point(|(s, _)| *s <= i) - 1;
        self.runs[ri].1.as_ref()
    }

    /// Iterates the run segments covering `start..start + len` as
    /// `(offset_within_window, segment_len, tags)`, in ascending order.
    pub fn window(&self, start: usize, len: usize) -> TagRunWindow<'_> {
        debug_assert!(start + len <= self.len);
        let ri = if len == 0 {
            self.runs.len()
        } else {
            self.runs.partition_point(|(s, _)| *s <= start) - 1
        };
        TagRunWindow {
            runs: &self.runs,
            total: self.len,
            ri,
            pos: start,
            win_start: start,
            end: start + len,
        }
    }

    /// Appends the segment `start..start + len` of `src` (run merging at
    /// the seam, `Arc` bumps only).
    pub fn append_range(&mut self, src: &TagRuns, start: usize, len: usize) {
        for (_, seg_len, tags) in src.window(start, len) {
            self.extend_run(tags, seg_len);
        }
    }
}

/// Iterator over the run segments intersecting a window — see
/// [`TagRuns::window`].
pub struct TagRunWindow<'a> {
    runs: &'a [(usize, Option<SharedTags>)],
    total: usize,
    ri: usize,
    pos: usize,
    win_start: usize,
    end: usize,
}

impl<'a> Iterator for TagRunWindow<'a> {
    type Item = (usize, usize, Option<&'a SharedTags>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.end {
            return None;
        }
        let (_, tags) = &self.runs[self.ri];
        let run_end = self
            .runs
            .get(self.ri + 1)
            .map(|(s, _)| *s)
            .unwrap_or(self.total);
        let seg_end = run_end.min(self.end);
        let item = (self.pos - self.win_start, seg_end - self.pos, tags.as_ref());
        self.pos = seg_end;
        if seg_end == run_end {
            self.ri += 1;
        }
        Some(item)
    }
}

/// The typed value array of one column. NULL rows hold an arbitrary
/// placeholder; consumers must consult the column's validity bitset
/// before reading (every kernel ANDs validity into its selection vector
/// first).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Dense `i64`s (declared `Int`).
    Int(Vec<i64>),
    /// Dense `f64`s (declared `Float`).
    Float(Vec<f64>),
    /// Dense `bool`s (declared `Bool`).
    Bool(Vec<bool>),
    /// Dense day numbers (declared `Date`; see [`Date::days`]).
    Date(Vec<i64>),
    /// Interned string ids into a pool shared across gathers.
    Text {
        /// Per-row pool ids.
        ids: Vec<u32>,
        /// The backing string pool (shared, never rewritten).
        pool: Arc<StrPool>,
    },
    /// Fallback for `Any`-typed or heterogeneous columns: owned values.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn empty_like(&self) -> ColumnData {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::new()),
            ColumnData::Float(_) => ColumnData::Float(Vec::new()),
            ColumnData::Bool(_) => ColumnData::Bool(Vec::new()),
            ColumnData::Date(_) => ColumnData::Date(Vec::new()),
            ColumnData::Text { pool, .. } => ColumnData::Text {
                ids: Vec::new(),
                pool: pool.clone(),
            },
            ColumnData::Mixed(_) => ColumnData::Mixed(Vec::new()),
        }
    }
}

/// One column: typed values + null validity + tag runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed value array.
    pub data: ColumnData,
    /// Bit `i` set ⇔ row `i` non-NULL.
    pub validity: Bitset,
    /// Run-length-encoded per-cell tag sets.
    pub tags: TagRuns,
}

/// A relation in columnar layout. Constructed from a [`TaggedRelation`]
/// via [`ColumnarRelation::from_tagged`] (or as columnar operator
/// output); converts back losslessly via
/// [`ColumnarRelation::to_tagged`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRelation {
    schema: Schema,
    dict: IndicatorDictionary,
    columns: Vec<Column>,
    len: usize,
    relation_tags: Vec<IndicatorValue>,
}

fn collect_typed(rows: &[TaggedRow], ci: usize, dtype: DataType) -> Option<ColumnData> {
    match dtype {
        DataType::Int => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                match &row[ci].value {
                    Value::Null => v.push(0),
                    Value::Int(x) => v.push(*x),
                    _ => return None,
                }
            }
            Some(ColumnData::Int(v))
        }
        DataType::Float => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                match &row[ci].value {
                    Value::Null => v.push(0.0),
                    Value::Float(x) => v.push(*x),
                    _ => return None,
                }
            }
            Some(ColumnData::Float(v))
        }
        DataType::Bool => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                match &row[ci].value {
                    Value::Null => v.push(false),
                    Value::Bool(x) => v.push(*x),
                    _ => return None,
                }
            }
            Some(ColumnData::Bool(v))
        }
        DataType::Date => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                match &row[ci].value {
                    Value::Null => v.push(0),
                    Value::Date(d) => v.push(d.days()),
                    _ => return None,
                }
            }
            Some(ColumnData::Date(v))
        }
        DataType::Text => {
            let mut ids = Vec::with_capacity(rows.len());
            let mut pool = StrPool::default();
            let mut map: HashMap<String, u32> = HashMap::new();
            for row in rows {
                match &row[ci].value {
                    Value::Null => ids.push(0),
                    Value::Text(s) => match map.get(s.as_str()) {
                        Some(&id) => ids.push(id),
                        None => {
                            let id = pool.strings.len() as u32;
                            pool.strings.push(s.clone());
                            map.insert(s.clone(), id);
                            ids.push(id);
                        }
                    },
                    _ => return None,
                }
            }
            Some(ColumnData::Text {
                ids,
                pool: Arc::new(pool),
            })
        }
        DataType::Any => None,
    }
}

fn collect_mixed(rows: &[TaggedRow], ci: usize) -> ColumnData {
    ColumnData::Mixed(rows.iter().map(|r| r[ci].value.clone()).collect())
}

impl ColumnarRelation {
    /// Converts a row-layout relation to columnar. Declared column types
    /// pick the dense layout; columns whose data disagrees with the
    /// declaration (possible only through unchecked operator outputs) and
    /// `Any` columns fall back to [`ColumnData::Mixed`]. Tag `Arc`s are
    /// shared, never cloned.
    pub fn from_tagged(rel: &TaggedRelation) -> Self {
        let _t = dq_obs::histogram!("columnar.convert_us").start();
        dq_obs::counter!("columnar.conversions").incr();
        let rows = rel.rows();
        let n = rows.len();
        let columns = rel
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(ci, cdef)| {
                let data = collect_typed(rows, ci, cdef.dtype)
                    .unwrap_or_else(|| collect_mixed(rows, ci));
                let mut validity = Bitset::new(n);
                let mut tags = TagRuns::default();
                for (i, row) in rows.iter().enumerate() {
                    if !row[ci].value.is_null() {
                        validity.set(i);
                    }
                    tags.push(row[ci].shared_tags());
                }
                Column {
                    data,
                    validity,
                    tags,
                }
            })
            .collect();
        ColumnarRelation {
            schema: rel.schema().clone(),
            dict: rel.dictionary().clone(),
            columns,
            len: n,
            relation_tags: rel.relation_tags().to_vec(),
        }
    }

    /// Converts back to the row layout — the exact inverse of
    /// [`ColumnarRelation::from_tagged`] (values, validity, relation
    /// tags, and per-cell tag `Arc` identity all round-trip).
    pub fn to_tagged(&self) -> TaggedRelation {
        let _t = dq_obs::histogram!("columnar.convert_us").start();
        let rows = (0..self.len).map(|i| self.materialize_row(i)).collect();
        let mut rel =
            TaggedRelation::from_parts_unchecked(self.schema.clone(), self.dict.clone(), rows);
        for t in &self.relation_tags {
            rel.tag_relation(t.clone())
                .expect("relation tag was validated at ingest");
        }
        rel
    }

    /// The columns, in schema order.
    #[cfg(test)]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `(row, col)` as an owned [`Value`] (NULL when the
    /// validity bit is clear). Text values allocate; hot paths read the
    /// typed arrays directly instead.
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        let c = &self.columns[col];
        if !c.validity.contains(row) {
            return Value::Null;
        }
        match &c.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Date(v) => Value::Date(Date::from_days(v[row])),
            ColumnData::Text { ids, pool } => Value::Text(pool.get(ids[row]).to_owned()),
            ColumnData::Mixed(v) => v[row].clone(),
        }
    }

    /// Materializes one row as [`QualityCell`]s (tag `Arc`s shared).
    pub fn materialize_row(&self, row: usize) -> TaggedRow {
        (0..self.columns.len())
            .map(|ci| {
                let mut cell = QualityCell::bare(self.value_at(ci, row));
                if let Some(tags) = self.columns[ci].tags.get(row) {
                    cell.set_shared_tags(tags.clone());
                }
                cell
            })
            .collect()
    }

    /// Builds the quality bitmap index with a per-column pass over the
    /// tag runs: one posting probe + one [`Bitset::set_range`] per
    /// (run, tag) instead of per (row, tag). Large relations build in
    /// parallel under the same disjoint-word protocol as
    /// [`QualityIndex::build`] ([`par::plan_index`] +
    /// [`par::word_aligned_ranges`]); the result is bit-for-bit equal to
    /// the row build at every thread count.
    pub fn build_index(&self) -> QualityIndex {
        dq_obs::counter!("tagstore.index.rebuilds").incr();
        let fill = |idx: &mut QualityIndex, range: std::ops::Range<usize>| {
            for (ci, col) in self.columns.iter().enumerate() {
                for (off, seg_len, tags) in col.tags.window(range.start, range.end - range.start)
                {
                    if let Some(tags) = tags {
                        idx.note_tags_range(ci, off, seg_len, tags);
                    }
                }
            }
        };
        match par::plan_index(self.len) {
            None => {
                let mut idx = QualityIndex::new();
                fill(&mut idx, 0..self.len);
                idx.finish_rows(self.len);
                idx
            }
            Some(threads) => {
                dq_obs::counter!("tagstore.index.par_builds").incr();
                let _t = dq_obs::histogram!("tagstore.index.par_build_us").start();
                let ranges = par::word_aligned_ranges(self.len, threads);
                let partials = par::run_chunked(&ranges, ranges.len(), |_, rs| {
                    let range = rs[0].clone();
                    let mut partial = QualityIndex::new();
                    fill(&mut partial, range.clone());
                    (range.start, partial)
                });
                QualityIndex::merge_word_aligned(self.len, partials)
            }
        }
    }
}

/// Incremental columnar output assembly: same layouts (and shared Text
/// pools) as the source relation(s), appended run by run.
struct ColumnarBuilder {
    columns: Vec<Column>,
    len: usize,
}

impl ColumnarBuilder {
    fn new(src: &ColumnarRelation) -> Self {
        ColumnarBuilder {
            columns: src
                .columns
                .iter()
                .map(|c| Column {
                    data: c.data.empty_like(),
                    validity: Bitset::new(0),
                    tags: TagRuns::default(),
                })
                .collect(),
            len: 0,
        }
    }

    /// Builder over `left`'s columns followed by `right`'s (join output).
    fn new_join(left: &ColumnarRelation, right: &ColumnarRelation) -> Self {
        ColumnarBuilder {
            columns: left
                .columns
                .iter()
                .chain(right.columns.iter())
                .map(|c| Column {
                    data: c.data.empty_like(),
                    validity: Bitset::new(0),
                    tags: TagRuns::default(),
                })
                .collect(),
            len: 0,
        }
    }

    /// Appends rows `start..start + len` of `src` to every column:
    /// `memcpy` for typed arrays, id copies for Text, `Arc` bumps per
    /// tag-run segment.
    fn append_range(&mut self, src: &ColumnarRelation, start: usize, len: usize) {
        let at = self.len;
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            match (&mut dst.data, &s.data) {
                (ColumnData::Int(d), ColumnData::Int(v)) => d.extend_from_slice(&v[start..start + len]),
                (ColumnData::Float(d), ColumnData::Float(v)) => d.extend_from_slice(&v[start..start + len]),
                (ColumnData::Bool(d), ColumnData::Bool(v)) => d.extend_from_slice(&v[start..start + len]),
                (ColumnData::Date(d), ColumnData::Date(v)) => d.extend_from_slice(&v[start..start + len]),
                (ColumnData::Text { ids: d, .. }, ColumnData::Text { ids: v, .. }) => {
                    d.extend_from_slice(&v[start..start + len])
                }
                (ColumnData::Mixed(d), ColumnData::Mixed(v)) => {
                    d.extend(v[start..start + len].iter().cloned())
                }
                _ => unreachable!("builder layout mismatch"),
            }
            let window = s.validity.extract_range(start, len);
            for i in window.iter_ones() {
                dst.validity.set(at + i);
            }
            dst.tags.append_range(&s.tags, start, len);
        }
        self.len += len;
    }

    /// Appends one row of `src` into columns `col_offset..` without
    /// advancing the row counter (the join gather pushes left then right
    /// then advances).
    fn push_row_from(&mut self, src: &ColumnarRelation, row: usize, col_offset: usize) {
        let at = self.len;
        for (dst, s) in self.columns[col_offset..].iter_mut().zip(&src.columns) {
            match (&mut dst.data, &s.data) {
                (ColumnData::Int(d), ColumnData::Int(v)) => d.push(v[row]),
                (ColumnData::Float(d), ColumnData::Float(v)) => d.push(v[row]),
                (ColumnData::Bool(d), ColumnData::Bool(v)) => d.push(v[row]),
                (ColumnData::Date(d), ColumnData::Date(v)) => d.push(v[row]),
                (ColumnData::Text { ids: d, .. }, ColumnData::Text { ids: v, .. }) => {
                    d.push(v[row])
                }
                (ColumnData::Mixed(d), ColumnData::Mixed(v)) => d.push(v[row].clone()),
                _ => unreachable!("builder layout mismatch"),
            }
            if s.validity.contains(row) {
                dst.validity.set(at);
            }
            dst.tags.push(s.tags.get(row));
        }
    }

    fn finish(
        mut self,
        schema: Schema,
        dict: IndicatorDictionary,
    ) -> ColumnarRelation {
        for c in &mut self.columns {
            c.validity.grow(self.len);
        }
        ColumnarRelation {
            schema,
            dict,
            columns: self.columns,
            len: self.len,
            // Operator outputs drop relation-level tags, matching the
            // row path's `from_parts_unchecked`.
            relation_tags: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Kernel evaluation over columns
// ---------------------------------------------------------------------

/// Word mask of bit positions `start..end` within word `wi`.
fn range_mask(wi: usize, start: usize, end: usize) -> u64 {
    let lo = start.max(wi * 64);
    let hi = end.min((wi + 1) * 64);
    if lo >= hi {
        return 0;
    }
    let lo_mask = !0u64 << (lo % 64);
    let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
    lo_mask & hi_mask
}

fn any_in_range(sel: &Bitset, start: usize, len: usize) -> bool {
    if len == 0 {
        return false;
    }
    let end = start + len;
    let words = sel.words();
    (start / 64..=(end - 1) / 64)
        .any(|wi| words.get(wi).copied().unwrap_or(0) & range_mask(wi, start, end) != 0)
}

fn clear_range(sel: &mut Bitset, start: usize, len: usize) {
    if len == 0 {
        return;
    }
    let end = start + len;
    let words = sel.words_mut();
    for wi in start / 64..=(end - 1) / 64 {
        if let Some(w) = words.get_mut(wi) {
            *w &= !range_mask(wi, start, end);
        }
    }
}

/// Clears selection bits whose row fails `op` against the per-row
/// [`Ordering`] produced by `ord` (indices are window-relative).
fn retain_by_ord(sel: &mut Bitset, op: BinOp, mut ord: impl FnMut(usize) -> Ordering) {
    for (wi, word) in sel.words_mut().iter_mut().enumerate() {
        let mut bits = *word;
        let mut keep = bits;
        while bits != 0 {
            let tz = bits.trailing_zeros();
            bits &= bits - 1;
            let o = ord(wi * 64 + tz as usize);
            let ok = match op {
                BinOp::Eq => o == Ordering::Equal,
                BinOp::Ne => o != Ordering::Equal,
                BinOp::Lt => o == Ordering::Less,
                BinOp::Le => o != Ordering::Greater,
                BinOp::Gt => o == Ordering::Greater,
                BinOp::Ge => o != Ordering::Less,
                _ => unreachable!("non-comparison op in Cmp kernel"),
            };
            keep &= !(u64::from(!ok) << tz);
        }
        *word = keep;
    }
}

/// One comparison against an application column already narrowed to
/// non-NULL rows, on its typed array. The fast paths reproduce
/// [`Value`]'s total order exactly (Int×Float via `as f64` +
/// `total_cmp`, Text via `str` order, Date via day numbers). Returns
/// false, leaving `sel` as it was, when the layout and the literal have
/// no such path: a `BETWEEN` bound of another class (the evaluator
/// compares it on the total order), or a column whose data disagreed
/// with its declared type and fell back to the `Mixed` layout.
fn retain_cmp(col: &Column, start: usize, sel: &mut Bitset, op: BinOp, lit: &Value) -> bool {
    match (&col.data, lit) {
        (ColumnData::Int(v), Value::Int(l)) => retain_by_ord(sel, op, |i| v[start + i].cmp(l)),
        (ColumnData::Int(v), Value::Float(f)) => {
            retain_by_ord(sel, op, |i| (v[start + i] as f64).total_cmp(f))
        }
        (ColumnData::Float(v), Value::Float(f)) => {
            retain_by_ord(sel, op, |i| v[start + i].total_cmp(f))
        }
        (ColumnData::Float(v), Value::Int(l)) => {
            retain_by_ord(sel, op, |i| v[start + i].total_cmp(&(*l as f64)))
        }
        (ColumnData::Bool(v), Value::Bool(b)) => retain_by_ord(sel, op, |i| v[start + i].cmp(b)),
        (ColumnData::Date(v), Value::Date(d)) => {
            let days = d.days();
            retain_by_ord(sel, op, |i| v[start + i].cmp(&days))
        }
        (ColumnData::Text { ids, pool }, Value::Text(s)) => match op {
            // Equality resolves the literal to a pool id once; rows then
            // compare by id, no string compare per row.
            BinOp::Eq | BinOp::Ne => {
                let lit_id = pool.id_of(s);
                retain_by_ord(sel, op, |i| match lit_id {
                    Some(id) => ids[start + i].cmp(&id).then(Ordering::Equal),
                    None => Ordering::Less, // never Equal
                })
            }
            _ => retain_by_ord(sel, op, |i| pool.get(ids[start + i]).cmp(s.as_str())),
        },
        _ => return false,
    }
    true
}

/// Missing tags evaluate to NULL, borrowed from this sentinel.
static NULL_SENTINEL: Value = Value::Null;

/// The tag value down `path`, from a run's shared tag vector.
fn tag_path_value<'a>(tags: Option<&'a SharedTags>, path: &[Symbol]) -> &'a Value {
    let Some(tags) = tags else {
        return &NULL_SENTINEL;
    };
    let Some((first, rest)) = path.split_first() else {
        return &NULL_SENTINEL;
    };
    let Some(mut node) = tags.iter().find(|t| t.indicator == *first) else {
        return &NULL_SENTINEL;
    };
    for seg in rest {
        match node.meta_tag_sym(seg) {
            Some(n) => node = n,
            None => return &NULL_SENTINEL,
        }
    }
    &node.value
}

/// Tag-access kernels evaluate **once per run segment**: every row of a
/// run shares one tag vector, so the verdict applies to the whole
/// segment (cleared word-at-a-time when it fails). This is where run
/// encoding beats both the row path and the row-gather vectorized path
/// on bulk-tagged columns.
fn apply_tag_kernel(
    col: &Column,
    path: &[Symbol],
    kernel: &Kernel,
    start: usize,
    sel: &mut Bitset,
) {
    let len = sel.len();
    for (off, seg_len, tags) in col.tags.window(start, len) {
        if any_in_range(sel, off, seg_len) && !kernel.test_value(tag_path_value(tags, path)) {
            clear_range(sel, off, seg_len);
        }
    }
}

/// Runs the bound predicate's conjuncts over one batch window.
fn filter_batch_columnar(
    crel: &ColumnarRelation,
    start: usize,
    sel: &mut Bitset,
    pred: &Predicate,
) -> DbResult<()> {
    for conjunct in pred.conjuncts() {
        let kernel = &conjunct.kernel;
        let typed = match kernel.access() {
            Some(Access::App(ci)) => {
                let col = &crel.columns[*ci];
                sel.and_assign(&col.validity.extract_range(start, sel.len()));
                match kernel {
                    Kernel::Cmp { op, lit, .. } => retain_cmp(col, start, sel, *op, lit),
                    Kernel::Between { lo, hi, .. } => {
                        retain_cmp(col, start, sel, BinOp::Ge, lo)
                            && retain_cmp(col, start, sel, BinOp::Le, hi)
                    }
                    Kernel::Generic => unreachable!("a generic conjunct has no access"),
                }
            }
            Some(Access::Tag(ci, path)) => {
                apply_tag_kernel(&crel.columns[*ci], path, kernel, start, sel);
                true
            }
            None => false,
        };
        if !typed {
            retain(sel, |i| pred.holds(conjunct, &crel.materialize_row(start + i)))?;
        }
        if sel.none() {
            break;
        }
    }
    Ok(())
}

fn publish_columnar(stats: &BatchStats) {
    dq_obs::counter!("columnar.batches").add(stats.batches as u64);
    dq_obs::counter!("columnar.rows_in").add(stats.rows_in as u64);
    dq_obs::counter!("columnar.rows_out").add(stats.rows_out as u64);
}

/// The shared columnar σ: batch windows filter to a selection —
/// parallel per [`par::plan`]; batches own disjoint rows, so the
/// workers' bitsets merge by OR. Which rows survive, not the rows:
/// [`ColumnarRelation::gather`] assembles them, an aggregate folds them
/// where they lie ([`ColumnarRelation::aggregate`]).
fn run_selection(
    crel: &ColumnarRelation,
    candidates: Option<&Bitset>,
    pred: Option<&Predicate>,
    batch_size: usize,
) -> DbResult<(Bitset, BatchStats)> {
    let len = crel.len;
    let batch_size = batch_size.max(1);
    let nbatches = len.div_ceil(batch_size);
    let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Bitset, BatchStats)> {
        let mut out = Bitset::new(len);
        let mut stats = BatchStats::new(batch_size);
        for b in brange {
            let start = b * batch_size;
            let blen = batch_size.min(len - start);
            let mut sel = match candidates {
                Some(bs) => bs.extract_range(start, blen),
                None => Bitset::full(blen),
            };
            let picked = sel.count();
            if picked == 0 {
                continue; // whole window dead — skip, don't count
            }
            let _t = dq_obs::histogram!("columnar.batch_us").start();
            stats.batches += 1;
            stats.rows_in += picked;
            if let Some(pred) = pred {
                filter_batch_columnar(crel, start, &mut sel, pred)?;
            }
            stats.rows_out += sel.count();
            if start.is_multiple_of(64) {
                out.or_words_at(start / 64, &sel);
            } else {
                for_each_run(&sel, |rs, rl| out.set_range(start + rs, rl));
            }
        }
        Ok((out, stats))
    };
    let (sel, stats) = match par::plan(len) {
        Some(threads) if nbatches > 1 => {
            let parts = par::run_ranges(nbatches, threads.min(nbatches), |_, r| run_range(r));
            let mut sel = Bitset::new(len);
            let mut stats = BatchStats::new(batch_size);
            for part in parts {
                let (s, st) = part?;
                sel.or_assign(&s);
                stats.absorb(st);
            }
            (sel, stats)
        }
        _ => run_range(0..nbatches)?,
    };
    publish_columnar(&stats);
    Ok((sel, stats))
}

/// Columnar σ's selection: the rows of `crel` that satisfy `predicate`,
/// as a bitset over its rows, not yet gathered.
pub fn selection_columnar(
    crel: &ColumnarRelation,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(Bitset, BatchStats)> {
    let pred = predicate.to_predicate(&crel.schema, &crel.dict)?;
    run_selection(crel, None, Some(&pred), batch_size)
}

/// Columnar σ — `to_tagged()`-identical to [`crate::algebra::select`]
/// and [`crate::select_vectorized`], reading contiguous column arrays.
pub fn select_columnar(
    crel: &ColumnarRelation,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(ColumnarRelation, BatchStats)> {
    let (sel, stats) = selection_columnar(crel, predicate, batch_size)?;
    Ok((crel.gather(&sel), stats))
}

/// [`select_indexed_columnar`]'s selection, not yet gathered: the bitmap
/// index's candidate words flow straight into per-batch selection
/// vectors, and only the residual (if any) is re-checked.
pub fn selection_indexed_columnar(
    crel: &ColumnarRelation,
    index: &QualityIndex,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(Bitset, TagAccessPath, BatchStats)> {
    let pred = predicate.to_predicate(&crel.schema, &crel.dict)?;
    let _t = dq_obs::histogram!("tagstore.bitmap.select_us").start();
    let scan = || -> DbResult<(Bitset, TagAccessPath, BatchStats)> {
        dq_obs::counter!("tagstore.bitmap.scan_fallbacks").incr();
        let (sel, stats) = run_selection(crel, None, Some(&pred), batch_size)?;
        Ok((sel, TagAccessPath::Scan, stats))
    };
    let atoms = pred.atoms();
    if index.rows() != crel.len || atoms.is_empty() {
        return scan(); // stale index — never trust it — or nothing to ask
    }
    let Some(bs) = index.candidates(atoms) else {
        return scan();
    };
    dq_obs::counter!("tagstore.bitmap.intersections").add(atoms.len() as u64);
    // Re-check the *full* predicate when any residual conjunct exists —
    // same policy as the row path.
    let recheck = pred.has_residual().then_some(&*pred);
    let (sel, stats) = run_selection(crel, Some(&bs), recheck, batch_size)?;
    dq_obs::counter!("tagstore.bitmap.candidate_rows").add(stats.rows_in as u64);
    dq_obs::counter!("tagstore.bitmap.gathered_rows").add(stats.rows_out as u64);
    let path = TagAccessPath::Bitmap {
        atoms: atoms.iter().map(|a| a.to_string()).collect(),
        candidates: stats.rows_in,
        residual: pred.has_residual(),
    };
    Ok((sel, path, stats))
}

/// Columnar index-assisted σ — identical rows, tags, and access-path
/// reporting to [`crate::algebra::select_indexed`], with only surviving
/// runs gathered into output columns.
pub fn select_indexed_columnar(
    crel: &ColumnarRelation,
    index: &QualityIndex,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(ColumnarRelation, TagAccessPath, BatchStats)> {
    let (sel, path, stats) = selection_indexed_columnar(crel, index, predicate, batch_size)?;
    Ok((crel.gather(&sel), path, stats))
}

/// Columnar π — whole-column clones (typed-array `memcpy` + tag-run
/// `Arc` bumps), no per-row work at all. `to_tagged()`-identical to
/// [`crate::algebra::project`].
pub fn project_columnar(crel: &ColumnarRelation, columns: &[&str]) -> DbResult<ColumnarRelation> {
    let indices: Vec<usize> = columns
        .iter()
        .map(|c| crel.schema.resolve(c))
        .collect::<DbResult<_>>()?;
    let schema = crel.schema.project(&indices)?;
    dq_obs::counter!("columnar.projections").incr();
    Ok(ColumnarRelation {
        schema,
        dict: crel.dict.clone(),
        columns: indices.iter().map(|&i| crel.columns[i].clone()).collect(),
        len: crel.len,
        relation_tags: Vec::new(),
    })
}

/// Columnar ⋈ probe — `to_tagged()`-identical to
/// [`crate::algebra::hash_join_probe`]. The probe phase runs over key
/// columns only (batched, parallel per [`par::plan`], Text keys memoized
/// by pool id so repeated keys never re-allocate); the gather phase then
/// assembles only the output columns from the match list.
pub fn hash_join_probe_columnar(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    left_key: &str,
    right_key: &str,
    index: &HashIndex,
    batch_size: usize,
) -> DbResult<(ColumnarRelation, BatchStats)> {
    let li = left.schema.resolve(left_key)?;
    right.schema.resolve(right_key)?;
    let schema = left.schema.join(&right.schema, "l", "r")?;
    let len = left.len;
    let batch_size = batch_size.max(1);
    let nbatches = len.div_ceil(batch_size);
    let key_col = &left.columns[li];
    type Matches = Vec<(usize, usize)>;
    let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Matches, BatchStats)> {
        let mut matches: Matches = Vec::new();
        let mut stats = BatchStats::new(batch_size);
        let mut key = vec![Value::Null];
        // Text keys: memoized positions per pool id — the pool is tiny
        // relative to the probe side, so each distinct key builds its
        // owned Value exactly once per worker.
        let mut memo: HashMap<u32, Vec<usize>> = HashMap::new();
        for b in brange {
            let start = b * batch_size;
            let blen = batch_size.min(len - start);
            let _t = dq_obs::histogram!("columnar.batch_us").start();
            stats.batches += 1;
            stats.rows_in += blen;
            // NULL keys never join: validity *is* the NULL-key filter.
            let sel = key_col.validity.extract_range(start, blen);
            for i in sel.iter_ones() {
                let row = start + i;
                let positions: &[usize] = match &key_col.data {
                    ColumnData::Text { ids, pool } => memo
                        .entry(ids[row])
                        .or_insert_with(|| {
                            key[0] = Value::Text(pool.get(ids[row]).to_owned());
                            index.get(&key).to_vec()
                        })
                        .as_slice(),
                    _ => {
                        key[0] = left.value_at(li, row);
                        index.get(&key)
                    }
                };
                for &pos in positions {
                    if pos >= right.len {
                        return Err(DbError::InvalidExpression(format!(
                            "join index position {pos} out of range"
                        )));
                    }
                    matches.push((row, pos));
                }
            }
            stats.rows_out = matches.len();
        }
        Ok((matches, stats))
    };
    let (matches, stats) = match par::plan(len) {
        Some(threads) if nbatches > 1 => {
            let parts = par::run_ranges(nbatches, threads.min(nbatches), |_, r| run_range(r));
            let mut matches: Matches = Vec::new();
            let mut stats = BatchStats::new(batch_size);
            for part in parts {
                let (mut ms, s) = part?;
                matches.append(&mut ms);
                stats.absorb(s);
            }
            (matches, stats)
        }
        _ => run_range(0..nbatches)?,
    };
    let mut builder = ColumnarBuilder::new_join(left, right);
    let left_arity = left.columns.len();
    for &(lrow, rpos) in &matches {
        builder.push_row_from(left, lrow, 0);
        builder.push_row_from(right, rpos, left_arity);
        builder.len += 1;
    }
    dq_obs::counter!("columnar.join.batches").add(stats.batches as u64);
    dq_obs::counter!("columnar.join.rows_in").add(stats.rows_in as u64);
    dq_obs::counter!("columnar.join.rows_out").add(stats.rows_out as u64);
    Ok((builder.finish(schema, left.dict.clone()), stats))
}

// ---------------------------------------------------------------------
// What a selection feeds: a gather, or the γ fold
// ---------------------------------------------------------------------

impl ColumnarRelation {
    /// The rows `sel` selects, assembled run by run (typed-array copies,
    /// tag-run `Arc` bumps) — a σ's output once its selection is known.
    pub fn gather(&self, sel: &Bitset) -> ColumnarRelation {
        let mut builder = ColumnarBuilder::new(self);
        let mut runs = 0u64;
        for_each_run(sel, |s, l| {
            builder.append_range(self, s, l);
            runs += 1;
        });
        dq_obs::counter!("columnar.gather_runs").add(runs);
        builder.finish(self.schema.clone(), self.dict.clone())
    }

    /// γ over the rows `sel` selects, folded straight from the typed
    /// arrays and tag runs: no row is gathered or materialized. Equal to
    /// [`crate::algebra::aggregate`] over `self.gather(sel).to_tagged()`.
    pub fn aggregate(
        &self,
        sel: &Bitset,
        group_by: &[&str],
        aggs: &[AggCall],
        policies: &[TagPolicy],
    ) -> DbResult<TaggedRelation> {
        let mut fold = Fold::new(&self.schema, group_by, aggs, policies)?;
        let mut row = FoldRow {
            cols: self.columns.iter().map(|_| None).collect(),
        };
        let read = fold.columns();
        for &c in &read {
            row.cols[c] = Some(FoldColumn::new(&self.columns[c], self.len));
        }
        for i in sel.iter_ones() {
            for &c in &read {
                if let Some(col) = &mut row.cols[c] {
                    col.load(i);
                }
            }
            fold.add(&row)?;
        }
        fold.finish(&self.schema, &self.dict)
    }
}

/// One column as the γ fold reads it, row by ascending row: the row's
/// value, and the tag run covering it (walked, not searched).
struct FoldColumn<'a> {
    col: &'a Column,
    runs: TagRunWindow<'a>,
    run_end: usize,
    tags: Option<&'a SharedTags>,
    row: usize,
    null: bool,
    /// The row's value, for the fixed-width layouts.
    value: Value,
    /// Text layout: each pool string as a [`Value`], built on first use.
    texts: Vec<Option<Value>>,
}

impl<'a> FoldColumn<'a> {
    fn new(col: &'a Column, len: usize) -> Self {
        FoldColumn {
            col,
            runs: col.tags.window(0, len),
            run_end: 0,
            tags: None,
            row: 0,
            null: true,
            value: Value::Null,
            texts: Vec::new(),
        }
    }

    /// Moves to `row` (rows ascend from call to call).
    fn load(&mut self, row: usize) {
        while row >= self.run_end {
            let Some((off, len, tags)) = self.runs.next() else {
                break;
            };
            self.run_end = off + len;
            self.tags = tags;
        }
        self.row = row;
        self.null = !self.col.validity.contains(row);
        if self.null {
            return;
        }
        match &self.col.data {
            ColumnData::Int(v) => self.value = Value::Int(v[row]),
            ColumnData::Float(v) => self.value = Value::Float(v[row]),
            ColumnData::Bool(v) => self.value = Value::Bool(v[row]),
            ColumnData::Date(v) => self.value = Value::Date(Date::from_days(v[row])),
            ColumnData::Text { ids, pool } => {
                let id = ids[row];
                if self.texts.is_empty() {
                    self.texts = vec![None; pool.strings.len()];
                }
                self.texts[id as usize].get_or_insert_with(|| Value::Text(pool.get(id).to_owned()));
            }
            ColumnData::Mixed(_) => {}
        }
    }

    fn value(&self) -> &Value {
        if self.null {
            return &NULL_SENTINEL;
        }
        match &self.col.data {
            ColumnData::Text { ids, .. } => self.texts[ids[self.row] as usize]
                .as_ref()
                .unwrap_or(&NULL_SENTINEL),
            ColumnData::Mixed(v) => &v[self.row],
            _ => &self.value,
        }
    }
}

/// The fold's view of the current selected row: a [`FoldColumn`] per
/// column the γ reads.
struct FoldRow<'a> {
    cols: Vec<Option<FoldColumn<'a>>>,
}

impl Cells for FoldRow<'_> {
    fn value(&self, col: usize) -> &Value {
        self.cols[col].as_ref().map_or(&NULL_SENTINEL, FoldColumn::value)
    }

    fn tags(&self, col: usize) -> Option<&SharedTags> {
        self.cols[col].as_ref().and_then(|c| c.tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::vector::{hash_join_probe_vectorized, select_vectorized};
    use relstore::{DataType, Expr, Schema};

    /// Mixed fixture: bulk-tagged column (shared Arcs → long runs),
    /// per-cell tags, untagged rows, NULL values.
    fn mixed(n: i64) -> TaggedRelation {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("name", DataType::Text),
            ("score", DataType::Float),
        ]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut r = TaggedRelation::empty(schema, dict);
        for k in 0..n {
            let mut cell = QualityCell::bare(if k % 7 == 6 {
                Value::Null
            } else {
                Value::Int(k * 2)
            });
            if k % 3 != 2 {
                cell.set_tag(IndicatorValue::new(
                    "source",
                    ["a", "b", "c"][(k % 3) as usize],
                ));
            }
            if k % 4 != 3 {
                cell.set_tag(IndicatorValue::new("age", k % 23));
            }
            let name = if k % 5 == 4 {
                QualityCell::bare(Value::Null)
            } else {
                QualityCell::bare(format!("n{}", k % 11))
            };
            let score = QualityCell::bare(k as f64 * 0.5);
            r.push(vec![QualityCell::bare(k), cell, name, score]).unwrap();
        }
        // a bulk-tagged column: every cell shares one Arc → one long run
        r.tag_column("name", IndicatorValue::new("collection_method", "scan"))
            .unwrap();
        r
    }

    fn predicates() -> Vec<Expr> {
        vec![
            Expr::col("v@source").eq(Expr::lit("a")),
            Expr::col("v@source").ne(Expr::lit("a")),
            Expr::col("v@age").le(Expr::lit(10i64)),
            Expr::col("v").gt(Expr::lit(20i64)),
            Expr::col("v").le(Expr::lit(100.5f64)),
            Expr::col("name").eq(Expr::lit("n3")),
            Expr::col("name").ge(Expr::lit("n5")),
            Expr::col("score").lt(Expr::lit(30.0f64)),
            Expr::col("score").lt(Expr::lit(30i64)),
            Expr::col("name@collection_method").eq(Expr::lit("scan")),
            Expr::col("v@age")
                .le(Expr::lit(15i64))
                .and(Expr::col("v@source").ne(Expr::lit("b")))
                .and(Expr::col("k").ge(Expr::lit(3i64))),
            Expr::Between(
                Box::new(Expr::col("v@age")),
                Box::new(Expr::lit(3i64)),
                Box::new(Expr::lit(12i64)),
            ),
            Expr::Between(
                Box::new(Expr::col("v")),
                Box::new(Expr::lit(10i64)),
                Box::new(Expr::lit(90i64)),
            ),
            // OR forces a Generic kernel
            Expr::col("v@source")
                .eq(Expr::lit("a"))
                .or(Expr::col("v@age").le(Expr::lit(2i64))),
            Expr::col("v@source").eq(Expr::lit("zzz")),
            Expr::col("k").ge(Expr::lit(0i64)),
            // BETWEEN is not type-checked: bounds of another class take
            // the evaluator, on the total order
            Expr::Between(
                Box::new(Expr::col("v")),
                Box::new(Expr::lit(10i64)),
                Box::new(Expr::lit("z")),
            ),
        ]
    }

    #[test]
    fn round_trip_is_exact_including_arc_identity() {
        for n in [0i64, 1, 5, 63, 64, 65, 150] {
            let mut rel = mixed(n);
            rel.tag_relation(IndicatorValue::new("source", "fixture")).unwrap();
            let c = ColumnarRelation::from_tagged(&rel);
            assert_eq!(c.len(), rel.len());
            let back = c.to_tagged();
            assert_eq!(back, rel, "n={n}");
            assert_eq!(back.relation_tags(), rel.relation_tags());
            for (orig, round) in rel.iter().zip(back.iter()) {
                for (a, b) in orig.iter().zip(round.iter()) {
                    if !a.tags().is_empty() {
                        // tagged cells must share the *same* allocation
                        assert!(b.shares_tags_with(a));
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_tagged_column_collapses_to_few_runs() {
        let rel = mixed(150);
        let c = ColumnarRelation::from_tagged(&rel);
        let name_col = &c.columns()[2];
        // tag_column pointed every cell at one Arc → a single run
        assert_eq!(name_col.tags.run_count(), 1, "bulk-tagged column should RLE to one run");
        // per-cell tags on `v` stay per-cell-ish (distinct Arcs)
        assert!(c.columns()[1].tags.run_count() > 10);
    }

    #[test]
    fn select_columnar_matches_row_and_vectorized() {
        for n in [0i64, 1, 5, 63, 64, 65, 150] {
            let rel = mixed(n);
            let crel = ColumnarRelation::from_tagged(&rel);
            for p in predicates() {
                let expect = algebra::select(&rel, &p).unwrap();
                for batch_size in [1usize, 7, 64, 1024] {
                    let (got, stats) = select_columnar(&crel, &p, batch_size).unwrap();
                    assert_eq!(got.to_tagged(), expect, "n={n} batch={batch_size} p={p:?}");
                    assert_eq!(stats.rows_out, expect.len());
                    let (gotv, _) = select_vectorized(&rel, &p, batch_size).unwrap();
                    assert_eq!(got.to_tagged(), gotv, "vs vectorized n={n} p={p:?}");
                }
            }
        }
    }

    #[test]
    fn select_columnar_matches_under_forced_threads() {
        let rel = mixed(200);
        let crel = ColumnarRelation::from_tagged(&rel);
        for p in predicates() {
            let expect = algebra::select(&rel, &p).unwrap();
            for threads in [1usize, 2, 8] {
                let (got, stats) =
                    par::with_thread_count(threads, || select_columnar(&crel, &p, 7).unwrap());
                assert_eq!(got.to_tagged(), expect, "threads={threads} p={p:?}");
                assert!(
                    stats.batches * stats.batch_size >= stats.rows_out,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn select_indexed_columnar_matches_and_reports_path() {
        let rel = mixed(120);
        let crel = ColumnarRelation::from_tagged(&rel);
        let idx = QualityIndex::build(&rel);
        for p in predicates() {
            let expect = algebra::select_indexed(&rel, &idx, &p);
            let got = select_indexed_columnar(&crel, &idx, &p, 64);
            match (expect, got) {
                (Ok((er, epath)), Ok((gr, gpath, _))) => {
                    assert_eq!(gr.to_tagged(), er, "p={p:?}");
                    assert_eq!(gpath, epath, "p={p:?}");
                }
                (Err(_), Err(_)) => {}
                (e, g) => panic!("path divergence p={p:?}: {e:?} vs {g:?}"),
            }
        }
        // stale index → scan fallback, still correct
        let short = QualityIndex::new();
        let p = Expr::col("v@source").eq(Expr::lit("a"));
        let (r, path, _) = select_indexed_columnar(&crel, &short, &p, 64).unwrap();
        assert_eq!(r.to_tagged(), algebra::select(&rel, &p).unwrap());
        assert_eq!(path, TagAccessPath::Scan);
    }

    #[test]
    fn project_columnar_matches() {
        for n in [0i64, 1, 150] {
            let rel = mixed(n);
            let crel = ColumnarRelation::from_tagged(&rel);
            let expect = algebra::project(&rel, &["v", "name"]).unwrap();
            let got = project_columnar(&crel, &["v", "name"]).unwrap();
            assert_eq!(got.to_tagged(), expect, "n={n}");
        }
        assert!(project_columnar(&ColumnarRelation::from_tagged(&mixed(3)), &["ghost"]).is_err());
    }

    #[test]
    fn join_probe_columnar_matches() {
        let left = mixed(50);
        let schema = Schema::of(&[("k", DataType::Int), ("label", DataType::Text)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut rows = Vec::new();
        for k in 0..10i64 {
            rows.push(vec![
                QualityCell::bare(k).with_tag(IndicatorValue::new("source", "dim")),
                QualityCell::bare(format!("label{k}")),
            ]);
        }
        rows.push(vec![
            QualityCell::bare(Value::Null),
            QualityCell::bare("nullkey"),
        ]);
        let right = TaggedRelation::new(schema, dict, rows).unwrap();
        let ri = right.schema().resolve("k").unwrap();
        let mut idx = HashIndex::new(vec![ri]);
        for (pos, row) in right.iter().enumerate() {
            idx.insert(&vec![row[ri].value.clone()], pos);
        }
        let expect = algebra::hash_join_probe(&left, &right, "k", "k", &idx).unwrap();
        let cl = ColumnarRelation::from_tagged(&left);
        let cr = ColumnarRelation::from_tagged(&right);
        for batch_size in [1usize, 7, 1024] {
            let (got, stats) =
                hash_join_probe_columnar(&cl, &cr, "k", "k", &idx, batch_size).unwrap();
            assert_eq!(got.to_tagged(), expect, "batch={batch_size}");
            assert_eq!(stats.rows_out, expect.len());
        }
        // Text-keyed probe exercises the pool-id memoization
        let lt = ColumnarRelation::from_tagged(&algebra::project(&left, &["name", "k"]).unwrap());
        let rt_rel = {
            let schema = Schema::of(&[("name", DataType::Text), ("extra", DataType::Int)]);
            let dict = IndicatorDictionary::with_paper_defaults();
            let mut rows = Vec::new();
            for k in 0..11i64 {
                rows.push(vec![
                    QualityCell::bare(format!("n{k}")),
                    QualityCell::bare(k),
                ]);
            }
            TaggedRelation::new(schema, dict, rows).unwrap()
        };
        let rti = rt_rel.schema().resolve("name").unwrap();
        let mut tidx = HashIndex::new(vec![rti]);
        for (pos, row) in rt_rel.iter().enumerate() {
            tidx.insert(&vec![row[rti].value.clone()], pos);
        }
        let lrow = algebra::project(&left, &["name", "k"]).unwrap();
        let expect = algebra::hash_join_probe(&lrow, &rt_rel, "name", "name", &tidx).unwrap();
        let crt = ColumnarRelation::from_tagged(&rt_rel);
        let (got, _) = hash_join_probe_columnar(&lt, &crt, "name", "name", &tidx, 16).unwrap();
        assert_eq!(got.to_tagged(), expect);
        // and matches the row-gather vectorized probe
        let (gotv, _) =
            hash_join_probe_vectorized(&lrow, &rt_rel, "name", "name", &tidx, 16).unwrap();
        assert_eq!(got.to_tagged(), gotv);
    }

    #[test]
    fn build_index_matches_row_build_bit_for_bit() {
        for n in [0i64, 1, 63, 64, 65, 150, 533] {
            let rel = mixed(n);
            let crel = ColumnarRelation::from_tagged(&rel);
            let row_idx = par::with_thread_count(1, || QualityIndex::build(&rel));
            for threads in [1usize, 2, 8] {
                let col_idx = par::with_thread_count(threads, || crel.build_index());
                assert_eq!(col_idx, row_idx, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn all_null_and_empty_columns_round_trip() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Text)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut rel = TaggedRelation::empty(schema.clone(), dict.clone());
        // 0-row relation
        let c = ColumnarRelation::from_tagged(&rel);
        assert!(c.is_empty());
        assert_eq!(c.to_tagged(), rel);
        assert_eq!(c.build_index(), QualityIndex::build(&rel));
        // all-NULL columns (Text pool stays empty; ids are placeholders)
        for _ in 0..70 {
            rel.push(vec![
                QualityCell::bare(Value::Null),
                QualityCell::bare(Value::Null).with_tag(IndicatorValue::new("source", "x")),
            ])
            .unwrap();
        }
        let c = ColumnarRelation::from_tagged(&rel);
        assert_eq!(c.to_tagged(), rel);
        let p = Expr::col("a").gt(Expr::lit(0i64));
        let (got, _) = select_columnar(&c, &p, 16).unwrap();
        assert!(got.is_empty(), "NULLs never satisfy predicates");
        let p = Expr::col("b@source").eq(Expr::lit("x"));
        let (got, _) = select_columnar(&c, &p, 16).unwrap();
        assert_eq!(got.to_tagged(), algebra::select(&rel, &p).unwrap());
    }

    #[test]
    fn type_errors_surface_on_both_paths() {
        let rel = mixed(20);
        let crel = ColumnarRelation::from_tagged(&rel);
        for p in [
            Expr::col("v@age").lt(Expr::lit("text")),
            Expr::col("v").lt(Expr::lit("text")),
            Expr::col("name").ge(Expr::lit(3i64)),
            Expr::col("k").add(Expr::lit(1i64)),
            // equality across classes fails like `<`, on every path
            Expr::col("v").eq(Expr::lit("nope")),
            Expr::col("v").ne(Expr::lit("nope")),
            Expr::col("v@source").eq(Expr::lit(3i64)),
        ] {
            assert!(algebra::select(&rel, &p).is_err(), "{p:?}");
            for batch_size in [1usize, 7, 1024] {
                assert!(select_columnar(&crel, &p, batch_size).is_err(), "{p:?}");
            }
        }
    }

    /// An `Any`-typed column keeps the `Mixed` layout and its conjuncts
    /// take the evaluator: `=` compares on the total order, and `<`
    /// against a value of another class is the evaluator's row error.
    #[test]
    fn any_typed_columns_take_the_evaluator() {
        let schema = Schema::of(&[("k", DataType::Int), ("x", DataType::Any)]);
        let xs = [Value::Int(3), Value::text("a"), Value::Null, Value::Float(3.0)];
        let rows = (0i64..)
            .zip(xs)
            .map(|(k, x)| vec![QualityCell::bare(k), QualityCell::bare(x)])
            .collect();
        let rel = TaggedRelation::new(schema, IndicatorDictionary::new(), rows).unwrap();
        let crel = ColumnarRelation::from_tagged(&rel);
        for (p, answers) in [
            (Expr::col("x").eq(Expr::lit(3i64)), true),
            (Expr::col("x").ne(Expr::lit("a")), true),
            (Expr::col("x").lt(Expr::lit(5i64)), false),
        ] {
            let want = algebra::select(&rel, &p).map_err(|e| e.to_string());
            assert_eq!(want.is_ok(), answers, "{p}");
            for batch_size in [1usize, 7, 1024] {
                let got = select_columnar(&crel, &p, batch_size).map(|(c, _)| c.to_tagged());
                assert_eq!(got.map_err(|e| e.to_string()), want, "{p}");
                let got = select_vectorized(&rel, &p, batch_size).map(|(r, _)| r);
                assert_eq!(got.map_err(|e| e.to_string()), want, "{p}");
            }
        }
    }

    #[test]
    fn tag_runs_window_and_get_agree() {
        let rel = mixed(97);
        let c = ColumnarRelation::from_tagged(&rel);
        for col in c.columns() {
            for (start, len) in [(0usize, 97usize), (3, 10), (63, 2), (96, 1), (50, 0)] {
                let mut seen = 0;
                for (off, seg_len, tags) in col.tags.window(start, len) {
                    assert_eq!(off, seen);
                    for i in 0..seg_len {
                        assert!(same_tags(col.tags.get(start + off + i), tags));
                    }
                    seen += seg_len;
                }
                assert_eq!(seen, len, "window covers exactly start={start} len={len}");
            }
        }
    }

    #[test]
    fn columnar_metrics_flow() {
        let before = dq_obs::registry().snapshot();
        let rel = mixed(300);
        let crel = ColumnarRelation::from_tagged(&rel);
        let p = Expr::col("v@age").le(Expr::lit(10i64));
        let (_, stats) = select_columnar(&crel, &p, 64).unwrap();
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("columnar.conversions") > before.counter("columnar.conversions"));
        assert!(after.counter("columnar.batches") >= before.counter("columnar.batches") + 5);
        assert!(after.counter("columnar.rows_out") >= before.counter("columnar.rows_out"));
        assert!(stats.batches * stats.batch_size >= stats.rows_out);
        assert!(after.validate().is_ok());
        // process-wide: σ batches are capped at the batch width (join
        // fan-out counts under columnar.join.*)
        let (batches, rows_out) = (
            after.counter("columnar.batches"),
            after.counter("columnar.rows_out"),
        );
        assert!(rows_out <= after.counter("columnar.rows_in"));
        assert!(batches * crate::DEFAULT_BATCH_SIZE as u64 >= rows_out);
    }

    #[test]
    fn aggregate_over_selection_matches_gathered_rows() {
        use crate::algebra::{TagPolicy, TagRule};
        use relstore::algebra::{AggCall, AggFunc};
        let policies = [
            TagPolicy::new("age", TagRule::Min),
            TagPolicy::new("age", TagRule::Max),
            TagPolicy::new("source", TagRule::MergeText),
            TagPolicy::new("source", TagRule::Unanimous),
            TagPolicy::new("collection_method", TagRule::Unanimous),
        ];
        let aggs = [
            AggCall::count_star("n"),
            AggCall::on(AggFunc::Count, "v", "nv"),
            AggCall::on(AggFunc::Sum, "v", "s"),
            AggCall::on(AggFunc::Avg, "score", "a"),
            AggCall::on(AggFunc::Min, "name", "lo"),
            AggCall::on(AggFunc::Max, "v", "hi"),
            AggCall::on(AggFunc::CountDistinct, "name", "d"),
        ];
        for n in [0i64, 1, 65, 150] {
            let crel = ColumnarRelation::from_tagged(&mixed(n));
            for p in predicates().iter().take(12) {
                let Ok((sel, _)) = selection_columnar(&crel, p, 7) else {
                    continue;
                };
                let rows = crel.gather(&sel).to_tagged();
                for group_by in [&[][..], &["name"], &["k", "name"]] {
                    for pol in [&policies[..], &[]] {
                        let expect = algebra::aggregate(&rows, group_by, &aggs, pol).unwrap();
                        let got = crel.aggregate(&sel, group_by, &aggs, pol).unwrap();
                        assert_eq!(got, expect, "n={n} p={p:?} group_by={group_by:?}");
                    }
                }
            }
        }
        // SUM over Text fails alike on both sources
        let crel = ColumnarRelation::from_tagged(&mixed(5));
        let sel = Bitset::full(crel.len());
        let sum_text = [AggCall::on(AggFunc::Sum, "name", "s")];
        let rows = crel.gather(&sel).to_tagged();
        assert_eq!(
            crel.aggregate(&sel, &[], &sum_text, &policies).unwrap_err().to_string(),
            algebra::aggregate(&rows, &[], &sum_text, &policies).unwrap_err().to_string(),
        );
    }
}
