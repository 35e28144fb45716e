//! Columnar tagged storage: per-column typed arrays + run-length-encoded
//! tag runs, so the batch kernels read contiguous memory instead of
//! chasing `Vec<QualityCell>` row pointers. This is the σ path over
//! resident base tables, every join's path ([`JoinPairs`]) and every
//! γ's: [`ColumnarRelation::aggregate`] and [`JoinPairs::aggregate`] run
//! the γ kernel (`fold.rs`) over a selection or a join's pairs, its tag
//! rules reading [`ColumnarRelation::tag_column`], one indicator's values
//! as a column built once per layout. σ's quality conjuncts read the same
//! tag columns, so the first σ on a snapshot builds the ones it names. σ
//! over an operator's output runs on the output's layout, within the
//! rows it kept ([`selection_within_columnar`]).
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
//!   indexes whole runs at a time. A quality predicate or a γ tag rule
//!   reads a tag column derived from the runs instead
//!   ([`ColumnarRelation::tag_column`]).
//!
//! ## Parity contract
//!
//! [`ColumnarRelation::from_tagged`] → [`ColumnarRelation::to_tagged`]
//! is an exact round trip: values, null validity, relation tags, and
//! per-cell tag sets — including `Arc` identity, so cells that shared a
//! tag allocation still share it after the round trip. Every columnar
//! operator (σ and indexed σ with [`ColumnarRelation::gather`], the ⋈
//! pair kernel with [`JoinPairs::gather`], index build) produces output
//! `to_tagged()`-equal to the operator written longhand; the property
//! tests pin this at batch sizes 1/7/1024 and 1/2/8 threads, and the
//! `group_ids` proptest pins γ against a γ written longhand. The σ
//! kernels are the bound [`Predicate`]'s conjuncts,
//! run in written order over a batch's selection vector, so each row
//! gets [`Predicate::matches`]'s verdict: NULLs (and absent tags) drop
//! first, `=`/`≠` use the storage total order, a typed kernel — over an
//! application column or a tag column alike — runs no type check per row
//! (binding made its literal comparable), and a generic conjunct —
//! including one over an `Any`-typed, `Mixed` column — is the scalar
//! evaluator over materialized rows. Given the bitmap index's candidates,
//! the atoms it answered are not re-run; the
//! `tag_columns_match_the_row_verdict` proptest pins both paths against
//! [`Predicate::matches`]. Conjuncts run batch-at-a-time, so
//! when two rows would raise different runtime errors, the one reported
//! may come from a different row than a row-at-a-time σ's.

use crate::algebra::TagPolicy;
use crate::bitmap::{Bitset, QualityIndex};
use crate::cell::{write_paper_tags, QualityCell};
use crate::fold;
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use crate::predicate::{Access, Conjunct, Kernel, Predicate, ToPredicate};
use crate::relation::{PaperCells, TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use crate::view::{ColumnarView, ViewSource};
use relstore::algebra::AggCall;
use relstore::expr::BinOp;
use relstore::index::HashIndex;
use relstore::{par, DataType, Date, DbError, DbResult, Schema, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A shared per-cell tag vector (PR 1's CoW representation).
pub type SharedTags = Arc<Vec<IndicatorValue>>;

/// Deduplicated, sorted string storage for one Text column: values are
/// `u32` ids into this pool (equal ids ⇔ equal strings, and ids order as
/// their strings do), and gathers copy ids while sharing the pool behind
/// an `Arc`.
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

    /// The id of `s`, if pooled (a binary search: the pool is sorted).
    pub fn id_of(&self, s: &str) -> Option<u32> {
        let at = self.strings.binary_search_by(|p| p.as_str().cmp(s));
        at.ok().map(|i| i as u32)
    }

    /// Number of pooled strings.
    pub(crate) fn len(&self) -> usize {
        self.strings.len()
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

    /// Each of cells `rows`, in that order, with its tag set: while rows
    /// ascend the cursor gallops forward from the run it is in, so a
    /// sparse selection over one run per row reads the runs near it, not
    /// a binary search over all of them; a row behind it is searched.
    pub(crate) fn along<'a>(
        &'a self,
        rows: impl Iterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (usize, Option<&'a SharedTags>)> + 'a {
        let end = |ri: usize| self.runs.get(ri + 1).map_or(self.len, |(s, _)| *s);
        let (mut ri, mut stop) = (0, end(0));
        rows.map(move |r| {
            if r < self.runs[ri].0 {
                ri = self.runs.partition_point(|(s, _)| *s <= r) - 1;
                stop = end(ri);
            } else if r >= stop {
                let mut step = 1;
                while self.runs.get(ri + step).is_some_and(|(s, _)| *s <= r) {
                    ri += step;
                    step *= 2;
                }
                let ahead = &self.runs[ri..self.runs.len().min(ri + step)];
                ri += ahead.partition_point(|(s, _)| *s <= r) - 1;
                stop = end(ri);
            }
            (r, self.runs[ri].1.as_ref())
        })
    }
}

/// Iterator over the run segments intersecting a window — see
/// [`TagRuns::window`].
#[derive(Clone)]
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

impl Column {
    /// The value at `row` as an owned [`Value`] (NULL when the validity
    /// bit is clear).
    pub fn value(&self, row: usize) -> Value {
        if !self.validity.contains(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Date(v) => Value::Date(Date::from_days(v[row])),
            ColumnData::Text { ids, pool } => Value::Text(pool.get(ids[row]).to_owned()),
            ColumnData::Mixed(v) => v[row].clone(),
        }
    }

    /// Writes the value at `row` as [`Value`]'s `Display` writes it,
    /// building no [`Value`].
    fn write_value(&self, row: usize, out: &mut String) {
        use std::fmt::Write;
        if !self.validity.contains(row) {
            return out.push_str("NULL");
        }
        let _ = match &self.data {
            ColumnData::Int(v) => write!(out, "{}", v[row]),
            ColumnData::Float(v) => write!(out, "{}", v[row]),
            ColumnData::Bool(v) => write!(out, "{}", v[row]),
            ColumnData::Date(v) => write!(out, "{}", Date::from_days(v[row])),
            ColumnData::Text { ids, pool } => out.write_str(pool.get(ids[row])),
            ColumnData::Mixed(v) => write!(out, "{}", v[row]),
        };
    }
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
    tag_columns: TagColumns,
}

/// `(run length, value)` runs spread over their rows in `dtype`'s dense
/// layout — a `None` value (NULL, or no tag) holds a placeholder — or
/// `None` when some value is not of that type. A Text pool is sorted, so
/// pool ids order as their strings do.
fn typed_layout<'v>(
    runs: impl Iterator<Item = (usize, Option<&'v Value>)>,
    rows: usize,
    dtype: DataType,
) -> Option<ColumnData> {
    fn fill<'v, T: Clone>(
        runs: impl Iterator<Item = (usize, Option<&'v Value>)>,
        rows: usize,
        zero: T,
        mut get: impl FnMut(&'v Value) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut out = Vec::with_capacity(rows);
        for (len, v) in runs {
            let x = match v {
                None => zero.clone(),
                Some(v) => get(v)?,
            };
            out.extend(std::iter::repeat_n(x, len));
        }
        Some(out)
    }
    Some(match dtype {
        DataType::Int => ColumnData::Int(fill(runs, rows, 0, |v| match v {
            Value::Int(x) => Some(*x),
            _ => None,
        })?),
        DataType::Float => ColumnData::Float(fill(runs, rows, 0.0, |v| match v {
            Value::Float(x) => Some(*x),
            _ => None,
        })?),
        DataType::Bool => ColumnData::Bool(fill(runs, rows, false, |v| match v {
            Value::Bool(x) => Some(*x),
            _ => None,
        })?),
        DataType::Date => ColumnData::Date(fill(runs, rows, 0, |v| match v {
            Value::Date(d) => Some(d.days()),
            _ => None,
        })?),
        DataType::Text => {
            // first-seen ids, then renumbered in string order
            let mut seen: HashMap<&str, u32> = HashMap::new();
            let mut last: Option<(&str, u32)> = None;
            let mut ids = fill(runs, rows, 0, |v| match v {
                Value::Text(s) => Some(match last {
                    Some((l, id)) if l == s => id,
                    _ => {
                        let next = seen.len() as u32;
                        let id = *seen.entry(s.as_str()).or_insert(next);
                        last = Some((s.as_str(), id));
                        id
                    }
                }),
                _ => None,
            })?;
            let mut strings: Vec<(&str, u32)> = seen.into_iter().collect();
            strings.sort_unstable();
            let mut rank = vec![0u32; strings.len()];
            for (at, &(_, id)) in strings.iter().enumerate() {
                rank[id as usize] = at as u32;
            }
            for id in &mut ids {
                *id = rank.get(*id as usize).copied().unwrap_or(0);
            }
            let strings = strings.into_iter().map(|(s, _)| s.to_owned()).collect();
            ColumnData::Text {
                ids,
                pool: Arc::new(StrPool { strings }),
            }
        }
        DataType::Any => return None,
    })
}

/// The tag value down indicator `path` in each cell of `runs`, as a
/// column of `dtype`'s layout (`Mixed` when undeclared or heterogeneous),
/// valid where the cell carries the tag; an empty `Mixed` when no cell
/// does. One pass over the runs reads each tag set and fills the typed
/// layout; only a `Mixed` column reads them again.
fn tag_column_of<'r>(runs: &'r TagRuns, path: &[Symbol], dtype: Option<DataType>) -> Column {
    let value = |tags: Option<&'r SharedTags>| tag_down(tags, path);
    let mut validity = Bitset::new(runs.len);
    let mut spread = runs.window(0, runs.len).map(|(at, len, tags)| {
        let v = value(tags);
        if v.is_some() {
            validity.set_range(at, len);
        }
        (len, v)
    });
    // the typed layout stops at the first value of another type; the
    // runs after it still mark validity
    let typed = dtype.and_then(|dtype| typed_layout(&mut spread, runs.len, dtype));
    spread.for_each(drop);
    let data = match typed {
        // no cell carries it: every read stops at the validity bit
        _ if validity.none() => ColumnData::Mixed(Vec::new()),
        Some(data) => data,
        None => ColumnData::Mixed(
            (runs.window(0, runs.len))
                .flat_map(|(_, len, tags)| {
                    std::iter::repeat_n(value(tags).cloned().unwrap_or(Value::Null), len)
                })
                .collect(),
        ),
    };
    let mut tags = TagRuns::default();
    tags.extend_run(None, runs.len);
    Column {
        data,
        validity,
        tags,
    }
}

/// The tag value down indicator `path` in a cell carrying `tags`.
fn tag_down<'t>(tags: Option<&'t SharedTags>, path: &[Symbol]) -> Option<&'t Value> {
    let (first, rest) = path.split_first()?;
    let tag = tags?.iter().find(|t| t.indicator == *first)?;
    rest.iter().try_fold(tag, |t, m| t.meta_tag_sym(m)).map(|t| &t.value)
}

/// `len` rows assembled from `columns`, each yielding its cells in row
/// order.
pub(crate) fn rows_of(
    len: usize,
    columns: impl ExactSizeIterator<Item = impl Iterator<Item = QualityCell>>,
) -> Vec<TaggedRow> {
    let mut rows: Vec<Vec<QualityCell>> =
        (0..len).map(|_| Vec::with_capacity(columns.len())).collect();
    for cells in columns {
        for (row, cell) in rows.iter_mut().zip(cells) {
            row.push(cell);
        }
    }
    rows.into_iter().map(Into::into).collect()
}

/// A layout's tag columns ([`ColumnarRelation::tag_column`]): a slot per
/// (column, declared indicator), each built on first use. They derive
/// from the tag runs, so they take no part in the layout's equality.
#[derive(Debug, Clone, Default)]
struct TagColumns(Vec<OnceLock<Column>>);

impl TagColumns {
    fn new(columns: usize, dict: &IndicatorDictionary) -> Self {
        let slots = columns * dict.names().len();
        TagColumns((0..slots).map(|_| OnceLock::new()).collect())
    }
}

impl PartialEq for TagColumns {
    fn eq(&self, _: &Self) -> bool {
        true
    }
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
                let values = rows
                    .iter()
                    .map(|r| (1, Some(&r[ci].value).filter(|v| !v.is_null())));
                let data = typed_layout(values, n, cdef.dtype).unwrap_or_else(|| {
                    ColumnData::Mixed(rows.iter().map(|r| r[ci].value.clone()).collect())
                });
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
            tag_columns: TagColumns::new(rel.schema().columns().len(), rel.dictionary()),
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
        let columns = (0..self.columns.len()).map(|c| self.cells(c, None, 0..self.len));
        let rows = rows_of(self.len, columns);
        let mut rel =
            TaggedRelation::from_parts_unchecked(self.schema.clone(), self.dict.clone(), rows);
        for t in &self.relation_tags {
            rel.tag_relation(t.clone())
                .expect("relation tag was validated at ingest");
        }
        rel
    }

    /// The columns, in schema order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The tag value down indicator `path` (one indicator, or a
    /// meta-tag path, Premise 1.4) at every row of column `col`, as a
    /// column typed by the path's last indicator's declared type, whose
    /// validity bit says the cell carries the tag; `Mixed` when that
    /// indicator is undeclared or its values are heterogeneous, and
    /// holding no values (every read stops at the validity bit) when no
    /// cell carries the tag. A declared indicator's is built from the tag
    /// runs on first use and kept with this layout, which a `TAG` never
    /// changes (it publishes a new one); a meta-tag path's is built per
    /// call.
    pub fn tag_column(&self, col: usize, path: &[Symbol]) -> Cow<'_, Column> {
        let runs = &self.columns[col].tags;
        let dtype = path.last().and_then(|i| self.dict.get(i)).map(|d| d.dtype);
        let names = self.dict.names();
        let slot = match path {
            [indicator] => names.iter().position(|n| *n == indicator.as_str()),
            _ => None,
        };
        match slot {
            Some(at) => Cow::Borrowed(
                self.tag_columns.0[col * names.len() + at]
                    .get_or_init(|| tag_column_of(runs, path, dtype)),
            ),
            None => Cow::Owned(tag_column_of(runs, path, dtype)),
        }
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
        self.columns[col].value(row)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The indicator dictionary the tags are declared in.
    pub fn dictionary(&self) -> &IndicatorDictionary {
        &self.dict
    }

    /// The cell at `(row, col)` (its tag `Arc` shared).
    pub fn cell(&self, col: usize, row: usize) -> QualityCell {
        self.cells(col, None, std::iter::once(row)).next().expect("one row, one cell")
    }

    /// Column `col`'s cells at `rows`, in that order, tag `Arc`s shared —
    /// or, given a tag `path`, the value down it as a bare cell (NULL
    /// where the cell lacks it), as π outputs a pseudo-column.
    pub(crate) fn cells<'a>(
        &'a self,
        col: usize,
        path: Option<&'a [Symbol]>,
        rows: impl Iterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = QualityCell> + 'a {
        let column = &self.columns[col];
        column.tags.along(rows).map(move |(row, tags)| match path {
            None => {
                let mut cell = QualityCell::bare(column.value(row));
                if let Some(tags) = tags {
                    cell.set_shared_tags(tags.clone());
                }
                cell
            }
            Some(path) => QualityCell::bare(tag_down(tags, path).cloned().unwrap_or(Value::Null)),
        })
    }

    /// Writes each cell [`ColumnarRelation::cells`] would yield as
    /// [`QualityCell::to_paper_string`] renders it, from the typed array
    /// and along the tag runs: no cell is built and no `Arc` is touched.
    pub(crate) fn write_paper_cells(
        &self,
        col: usize,
        path: Option<&[Symbol]>,
        rows: impl Iterator<Item = usize>,
        out: &mut PaperCells,
    ) {
        use std::fmt::Write;
        let column = &self.columns[col];
        for (row, tags) in column.tags.along(rows) {
            let text = &mut out.text;
            match path {
                None => {
                    column.write_value(row, text);
                    write_paper_tags(tags.map_or(&[], |t| t.as_slice()), text);
                }
                Some(path) => {
                    let _ = write!(text, "{}", tag_down(tags, path).unwrap_or(&Value::Null));
                }
            }
            out.end_cell();
        }
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

// ---------------------------------------------------------------------
// Kernel evaluation over columns
// ---------------------------------------------------------------------

/// Default rows per batch — large enough to amortize per-batch
/// bookkeeping, small enough that a batch's cells stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Per-operator batch accounting, surfaced through EXPLAIN ANALYZE and
/// the `columnar.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batches actually processed (all-dead windows are skipped).
    pub batches: usize,
    /// Configured rows per batch.
    pub batch_size: usize,
    /// Rows entering the operator (selected candidates, not the window).
    pub rows_in: usize,
    /// Rows surviving the operator.
    pub rows_out: usize,
}

impl BatchStats {
    fn new(batch_size: usize) -> Self {
        BatchStats {
            batches: 0,
            batch_size,
            rows_in: 0,
            rows_out: 0,
        }
    }

    fn absorb(&mut self, other: BatchStats) {
        self.batches += other.batches;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
    }
}

/// Clears the bit of every live row `test` rejects — word-at-a-time,
/// branch-free per bit, rows visited in ascending order so the first
/// error is the first failing row's.
fn retain(sel: &mut Bitset, mut test: impl FnMut(usize) -> DbResult<bool>) -> DbResult<()> {
    for (wi, word) in sel.words_mut().iter_mut().enumerate() {
        let mut bits = *word;
        let mut keep = bits;
        while bits != 0 {
            let tz = bits.trailing_zeros();
            bits &= bits - 1;
            let ok = test(wi * 64 + tz as usize)?;
            keep &= !(u64::from(!ok) << tz);
        }
        *word = keep;
    }
    Ok(())
}

/// Calls `f(run_start, run_len)` for each maximal run of consecutive set
/// bits — the "surviving batch slice" unit of tag propagation.
fn for_each_run(sel: &Bitset, mut f: impl FnMut(usize, usize)) {
    let mut run: Option<(usize, usize)> = None;
    for i in sel.iter_ones() {
        run = match run {
            Some((s, e)) if i == e => Some((s, e + 1)),
            Some((s, e)) => {
                f(s, e - s);
                Some((i, i + 1))
            }
            None => Some((i, i + 1)),
        };
    }
    if let Some((s, e)) = run {
        f(s, e - s);
    }
}

/// Counts `sel`'s runs of consecutive rows, what a gather of them reads,
/// as `columnar.gather_runs`.
pub(crate) fn count_gather_runs(sel: &Bitset) {
    let mut runs = 0;
    for_each_run(sel, |_, _| runs += 1);
    dq_obs::counter!("columnar.gather_runs").add(runs);
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
        (ColumnData::Text { ids, pool }, Value::Text(s)) => {
            // The sorted pool places the literal once: ids below `at` are
            // the strings before it, `at` is the literal itself when
            // pooled; rows then compare ids, no string compare per row.
            let at = pool.strings.partition_point(|p| p < s) as u32;
            let pooled = pool.strings.get(at as usize) == Some(s);
            retain_by_ord(sel, op, |i| match ids[start + i].cmp(&at) {
                Ordering::Equal if !pooled => Ordering::Greater,
                o => o,
            })
        }
        _ => return false,
    }
    true
}

/// A σ's conjuncts to run, in written order, each with the column its
/// typed kernel reads — an application column or a tag column, resolved
/// once per σ — or `None` for a generic conjunct.
type Steps<'a> = Vec<(&'a Conjunct, Option<Cow<'a, Column>>)>;

/// Runs a σ's steps over one batch window. A typed step ANDs in its
/// column's validity (a NULL value or an absent tag drops the row) and
/// compares on the typed array; a generic one, or one over an application
/// column that fell back to `Mixed`, runs the scalar evaluator on
/// `scratch`, a row of the σ's own where only what the conjunct reads is
/// filled in: a column's value, or a whole cell for its tags.
fn filter_batch_columnar(
    crel: &ColumnarRelation,
    start: usize,
    sel: &mut Bitset,
    pred: &Predicate,
    steps: &Steps<'_>,
    scratch: &mut [QualityCell],
) -> DbResult<()> {
    for (conjunct, col) in steps {
        let typed = match col {
            Some(col) => {
                sel.and_assign(&col.validity.extract_range(start, sel.len()));
                match (&conjunct.kernel, &col.data) {
                    // NULL-valued tags leave a tag column `Mixed`; its other
                    // values have the indicator's declared type, so the
                    // kernel's verdict on each value is the evaluator's
                    (kernel, ColumnData::Mixed(v))
                        if matches!(kernel.access(), Some(Access::Tag(..))) =>
                    {
                        retain(sel, |i| Ok(kernel.test_value(&v[start + i])))?;
                        true
                    }
                    (Kernel::Cmp { op, lit, .. }, _) => retain_cmp(col, start, sel, *op, lit),
                    (Kernel::Between { lo, hi, .. }, _) => {
                        retain_cmp(col, start, sel, BinOp::Ge, lo)
                            && retain_cmp(col, start, sel, BinOp::Le, hi)
                    }
                    (Kernel::Generic, _) => unreachable!("a generic conjunct has no access"),
                }
            }
            None => false,
        };
        if !typed {
            retain(sel, |i| {
                for read in &conjunct.reads {
                    match *read {
                        Access::App(ci) => scratch[ci].value = crel.value_at(ci, start + i),
                        Access::Tag(ci, _) => scratch[ci] = crel.cell(ci, start + i),
                    }
                }
                pred.holds(conjunct, scratch)
            })?;
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

/// The shared columnar σ: `conjuncts` of `pred` — every one, or those a
/// bitmap index did not answer — run in written order over batch
/// windows of the rows `within` selects (every row when `None`), each
/// only on rows every earlier one kept. Parallel per
/// [`par::plan_index`], the whole-layout scan's cost model; batches own
/// disjoint rows, so the workers' bitsets merge by OR. Which rows
/// survive, not the rows: [`ColumnarRelation::gather`] assembles them,
/// an aggregate folds them where they lie
/// ([`ColumnarRelation::aggregate`]).
fn run_selection<'p>(
    crel: &ColumnarRelation,
    within: Option<&Bitset>,
    conjuncts: impl Iterator<Item = &'p Conjunct>,
    pred: &Predicate,
    batch_size: usize,
) -> DbResult<(Bitset, BatchStats)> {
    let steps: Steps<'_> = conjuncts
        .map(|c| {
            let col = c.kernel.access().map(|access| match access {
                Access::App(ci) => Cow::Borrowed(&crel.columns[*ci]),
                Access::Tag(ci, path) => crel.tag_column(*ci, path),
            });
            (c, col)
        })
        .collect();
    let len = crel.len;
    let batch_size = batch_size.max(1);
    let nbatches = len.div_ceil(batch_size);
    let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Bitset, BatchStats)> {
        let mut out = Bitset::new(len);
        let mut stats = BatchStats::new(batch_size);
        let mut scratch = vec![QualityCell::bare(Value::Null); crel.columns.len()];
        for b in brange {
            let start = b * batch_size;
            let blen = batch_size.min(len - start);
            let mut sel = match within {
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
            filter_batch_columnar(crel, start, &mut sel, pred, &steps, &mut scratch)?;
            stats.rows_out += sel.count();
            if start.is_multiple_of(64) {
                out.or_words_at(start / 64, &sel);
            } else {
                for_each_run(&sel, |rs, rl| out.set_range(start + rs, rl));
            }
        }
        Ok((out, stats))
    };
    let (sel, stats) = match par::plan_index(len) {
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
/// as a bitset over its rows, not yet gathered. Each row gets
/// [`Predicate::matches`]'s verdict; gathered
/// ([`ColumnarRelation::gather`]), they are the rows it keeps, in order.
pub fn selection_columnar(
    crel: &ColumnarRelation,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(Bitset, BatchStats)> {
    let pred = predicate.to_predicate(&crel.schema, &crel.dict)?;
    run_selection(crel, None, pred.conjuncts().iter(), &pred, batch_size)
}

/// [`selection_columnar`] within a selection: the rows of `within` that
/// satisfy `predicate`; a conjunct faulting only on rows `within`
/// excludes never fails. σ over an operator's output (`HAVING`, a join
/// residual) runs this on the output's layout and the rows it kept.
pub fn selection_within_columnar(
    crel: &ColumnarRelation,
    within: &Bitset,
    predicate: &impl ToPredicate,
    batch_size: usize,
) -> DbResult<(Bitset, BatchStats)> {
    let pred = predicate.to_predicate(&crel.schema, &crel.dict)?;
    run_selection(crel, Some(within), pred.conjuncts().iter(), &pred, batch_size)
}

/// How an index-assisted σ actually ran — surfaced so tests (and
/// benchmarks) can assert which path executed.
#[derive(Debug, Clone, PartialEq)]
pub enum TagAccessPath {
    /// Full scan: no index-answerable atoms, or an atom the index had to
    /// refuse (type-error parity), or a stale index.
    Scan,
    /// Bitmap-assisted: the atom conjunction resolved to a candidate
    /// bitset; `residual` says whether a per-row pass still ran.
    Bitmap {
        /// Rendered atoms the bitmaps answered.
        atoms: Vec<String>,
        /// Candidate rows surviving the bitmap intersection.
        candidates: usize,
        /// Whether non-atomic conjuncts forced a residual per-row pass.
        residual: bool,
    },
}

/// Index-assisted columnar σ's selection, not yet gathered: the bitmap
/// index's candidate words flow straight into per-batch selection
/// vectors, and only the conjuncts that are not atoms run on them. Falls
/// back to [`selection_columnar`]'s scan whenever the index cannot answer
/// exactly (a stale index, no atoms, an atom refused for type-error
/// parity); the returned [`TagAccessPath`] says which ran.
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
        let (sel, stats) = run_selection(crel, None, pred.conjuncts().iter(), &pred, batch_size)?;
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
    // The candidates satisfy every atom, which all come before the first
    // conjunct that may fault: the residual conjuncts alone, in written
    // order, give each candidate its verdict.
    let residual = pred.conjuncts().iter().filter(|c| !c.atom);
    let (sel, stats) = run_selection(crel, Some(&bs), residual, &pred, batch_size)?;
    dq_obs::counter!("tagstore.bitmap.candidate_rows").add(stats.rows_in as u64);
    dq_obs::counter!("tagstore.bitmap.gathered_rows").add(stats.rows_out as u64);
    let path = TagAccessPath::Bitmap {
        atoms: atoms.iter().map(|a| a.to_string()).collect(),
        candidates: stats.rows_in,
        residual: pred.has_residual(),
    };
    Ok((sel, path, stats))
}

/// A ⋈'s answer before any row is built: its two columnar sources and
/// the `(left row, right row)` positions that matched (`u32`: resident
/// layouts hold fewer rows), in nested-loop order — left rows
/// ascending, each row's matches in right-row order.
/// [`JoinPairs::gather`] builds the rows, [`JoinPairs::aggregate`] folds
/// them where they lie.
#[derive(Debug, Clone)]
pub struct JoinPairs {
    pub(crate) left: Arc<ColumnarRelation>,
    pub(crate) right: Arc<ColumnarRelation>,
    schema: Schema,
    pub(crate) pairs: Vec<(u32, u32)>,
}

impl JoinPairs {
    /// The pair kernel, for every join: probes `index` (right key value →
    /// right rows, ascending) with the key of each row `left_sel` selects.
    /// The probe reads the key column only — batched, parallel per
    /// [`par::plan`] over the selected rows; Text keys are memoized in a
    /// table indexed by pool id, and look up as strings, so two sides'
    /// pools need not agree. Keys match by [`Value`] equality; NULL keys never join.
    pub fn probe(
        left: Arc<ColumnarRelation>,
        left_sel: &Bitset,
        left_key: &str,
        right: Arc<ColumnarRelation>,
        right_key: &str,
        index: &HashIndex,
        batch_size: usize,
    ) -> DbResult<(JoinPairs, BatchStats)> {
        let li = left.schema.resolve(left_key)?;
        right.schema.resolve(right_key)?;
        let schema = left.schema.join(&right.schema, "l", "r")?;
        let (len, batch_size) = (left.len, batch_size.max(1));
        let nbatches = len.div_ceil(batch_size);
        let key_col = &left.columns[li];
        type Pairs = Vec<(u32, u32)>;
        let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Pairs, BatchStats)> {
            let mut pairs: Pairs = Vec::new();
            let mut stats = BatchStats::new(batch_size);
            let mut key = vec![Value::Null];
            let mut memo: Vec<Option<&[usize]>> = match &key_col.data {
                ColumnData::Text { pool, .. } => vec![None; pool.len()],
                _ => Vec::new(),
            };
            for b in brange {
                let start = b * batch_size;
                let blen = batch_size.min(len - start);
                let mut sel = left_sel.extract_range(start, blen);
                let picked = sel.count();
                if picked == 0 {
                    continue;
                }
                let _t = dq_obs::histogram!("columnar.batch_us").start();
                stats.batches += 1;
                stats.rows_in += picked;
                // NULL keys never join: validity *is* the NULL-key filter.
                sel.and_assign(&key_col.validity.extract_range(start, blen));
                for row in sel.iter_ones().map(|i| start + i) {
                    let matches = match &key_col.data {
                        ColumnData::Text { ids, pool } => *memo[ids[row] as usize].get_or_insert_with(|| {
                            key[0] = Value::Text(pool.get(ids[row]).to_owned());
                            index.get(&key)
                        }),
                        _ => {
                            key[0] = left.value_at(li, row);
                            index.get(&key)
                        }
                    };
                    for &pos in matches {
                        if pos >= right.len {
                            return Err(DbError::InvalidExpression(format!(
                                "join index position {pos} out of range"
                            )));
                        }
                        pairs.push((row as u32, pos as u32));
                    }
                }
                stats.rows_out = pairs.len();
            }
            Ok((pairs, stats))
        };
        let (pairs, stats) = match par::plan(left_sel.count()) {
            Some(threads) if nbatches > 1 => {
                let parts = par::run_ranges(nbatches, threads.min(nbatches), |_, r| run_range(r));
                let mut pairs: Pairs = Vec::new();
                let mut stats = BatchStats::new(batch_size);
                for part in parts {
                    let (mut ps, s) = part?;
                    pairs.append(&mut ps);
                    stats.absorb(s);
                }
                (pairs, stats)
            }
            _ => run_range(0..nbatches)?,
        };
        dq_obs::counter!("columnar.join.batches").add(stats.batches as u64);
        dq_obs::counter!("columnar.join.rows_in").add(stats.rows_in as u64);
        dq_obs::counter!("columnar.join.rows_out").add(stats.rows_out as u64);
        Ok((JoinPairs { left, right, schema, pairs }, stats))
    }

    /// Number of joined rows.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff nothing joined.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The joined schema (`l.`/`r.` prefixes on shared names).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The left side's dictionary, the joined rows' one.
    pub fn dictionary(&self) -> &IndicatorDictionary {
        &self.left.dict
    }

    /// The joined rows, built once: equal to a nested-loop join of the
    /// two sides' selected rows.
    pub fn gather(&self) -> TaggedRelation {
        ColumnarView::whole(ViewSource::Paired(self.clone())).gather()
    }

    /// γ over the joined rows, run by the γ kernel over the two sources:
    /// a left column reads the pair's left row, a right column its right
    /// row. Equal to γ over `self.gather()`.
    pub fn aggregate(
        &self,
        group_by: &[&str],
        aggs: &[AggCall],
        policies: &[TagPolicy],
    ) -> DbResult<TaggedRelation> {
        let pairs = self.pairs.as_slice();
        let sources = [(&*self.left, (pairs, false)), (&*self.right, (pairs, true))];
        let (schema, dict) = (&self.schema, &self.left.dict);
        fold::aggregate(&sources, schema, dict, group_by, aggs, policies)
    }
}

// ---------------------------------------------------------------------
// What a selection feeds: a gather, a join's build side, or the γ fold
// ---------------------------------------------------------------------

impl ColumnarRelation {
    /// The rows `sel` selects, built column by column (tag `Arc`s
    /// shared) — a σ's output once its selection is known. Its runs of
    /// consecutive rows count as `columnar.gather_runs`.
    pub fn gather(&self, sel: &Bitset) -> TaggedRelation {
        count_gather_runs(sel);
        let columns = (0..self.columns.len()).map(|c| self.cells(c, None, sel.iter_ones()));
        let rows = rows_of(sel.count(), columns);
        TaggedRelation::from_parts_unchecked(self.schema.clone(), self.dict.clone(), rows)
    }

    /// A hash index over column `key`'s values at the rows `sel` selects
    /// (`vec![value] → rows`, ascending; NULLs left out) — a hash join's
    /// build side, in the layout [`JoinPairs::probe`] reads.
    pub fn key_index(&self, key: &str, sel: &Bitset) -> DbResult<HashIndex> {
        let ci = self.schema.resolve(key)?;
        let mut index = HashIndex::new(vec![0]);
        for row in sel.iter_ones() {
            if self.columns[ci].validity.contains(row) {
                index.insert(&vec![self.value_at(ci, row)], row);
            }
        }
        Ok(index)
    }

    /// γ over the rows `sel` selects, run by the γ kernel straight from
    /// the typed arrays, tag runs and tag columns: no row is gathered or
    /// materialized. Equal to γ over `self.gather(sel)`.
    pub fn aggregate(
        &self,
        sel: &Bitset,
        group_by: &[&str],
        aggs: &[AggCall],
        policies: &[TagPolicy],
    ) -> DbResult<TaggedRelation> {
        let (schema, dict) = (&self.schema, &self.dict);
        fold::aggregate(&[(self, sel)], schema, dict, group_by, aggs, policies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::evaluate_mask;
    use crate::algebra::tests::{filtered, nested_loop};
    use crate::fold::tests::longhand;
    use relstore::{DataType, Expr, Schema};

    /// The columnar σ as a base-table σ runs it: select, then gather.
    fn select(
        crel: &ColumnarRelation,
        p: &Expr,
        batch_size: usize,
    ) -> DbResult<(TaggedRelation, BatchStats)> {
        let (sel, stats) = selection_columnar(crel, p, batch_size)?;
        Ok((crel.gather(&sel), stats))
    }

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
    fn selection_columnar_matches_row_at_a_time() {
        for n in [0i64, 1, 5, 63, 64, 65, 150] {
            let rel = mixed(n);
            let crel = ColumnarRelation::from_tagged(&rel);
            for p in predicates() {
                let expect = filtered(&rel, &p).unwrap();
                for batch_size in [1usize, 7, 64, 1024] {
                    let (got, stats) = select(&crel, &p, batch_size).unwrap();
                    assert_eq!(got, expect, "n={n} batch={batch_size} p={p:?}");
                    assert_eq!(stats.rows_out, expect.len());
                }
            }
        }
    }

    #[test]
    fn select_columnar_matches_under_forced_threads() {
        let rel = mixed(200);
        let crel = ColumnarRelation::from_tagged(&rel);
        for p in predicates() {
            let expect = filtered(&rel, &p).unwrap();
            for threads in [1usize, 2, 8] {
                let (got, stats) =
                    par::with_thread_count(threads, || select(&crel, &p, 7).unwrap());
                assert_eq!(got, expect, "threads={threads} p={p:?}");
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
        let indexed = |idx: &QualityIndex, p: &Expr| {
            selection_indexed_columnar(&crel, idx, p, 64)
                .map(|(sel, path, _)| (crel.gather(&sel), path))
        };
        for p in predicates() {
            match (filtered(&rel, &p), indexed(&idx, &p)) {
                (Ok(want), Ok((got, _))) => assert_eq!(got, want, "p={p:?}"),
                (Err(w), Err(g)) => assert_eq!(g.to_string(), w.to_string(), "p={p:?}"),
                (w, g) => panic!("path divergence p={p:?}: {w:?} vs {g:?}"),
            }
        }
        // a pure quality atom: bitmap, no residual
        let atom = Expr::col("v@source").eq(Expr::lit("a"));
        let bitmap = |residual| TagAccessPath::Bitmap {
            atoms: vec!["v@source=a".into()],
            candidates: 40,
            residual,
        };
        assert_eq!(indexed(&idx, &atom).unwrap().1, bitmap(false));
        // atom + value conjunct: bitmap candidates, then a residual pass
        let mixed_p = atom.clone().and(Expr::col("k").ge(Expr::lit(3i64)));
        let (got, path) = indexed(&idx, &mixed_p).unwrap();
        assert_eq!(got, filtered(&rel, &mixed_p).unwrap());
        assert_eq!(path, bitmap(true));
        // value-only predicate → scan
        let value = Expr::col("k").ge(Expr::lit(3i64));
        assert_eq!(indexed(&idx, &value).unwrap().1, TagAccessPath::Scan);
        // stale index → scan fallback, still correct
        let (got, path) = indexed(&QualityIndex::new(), &atom).unwrap();
        assert_eq!(got, filtered(&rel, &atom).unwrap());
        assert_eq!(path, TagAccessPath::Scan);
        // a malformed predicate errors like the scan
        let bad = Expr::col("ghost@source").eq(Expr::lit("x"));
        assert!(indexed(&idx, &bad).is_err());
    }

    /// A faulting conjunct behind a typed or quality conjunct runs only
    /// on rows every earlier conjunct kept — in σ written longhand, the
    /// columnar σ, the indexed σ and `TAG`'s mask alike.
    #[test]
    fn guarded_faults_follow_the_one_verdict() {
        let rel = mixed(120);
        let crel = ColumnarRelation::from_tagged(&rel);
        let idx = QualityIndex::build(&rel);
        let fault = || {
            let quotient = Expr::Bin(
                Box::new(Expr::col("v")),
                BinOp::Div,
                Box::new(Expr::lit(0i64)),
            );
            quotient.eq(Expr::lit(1i64))
        };
        let guarded = [
            Expr::col("k").gt(Expr::lit(1000i64)).and(fault()),
            Expr::col("v@source").eq(Expr::lit("zzz")).and(fault()),
            Expr::col("k")
                .ge(Expr::lit(5i64))
                .and(Expr::col("k").le(Expr::lit(5i64)))
                .and(Expr::col("v").gt(Expr::lit(1000i64)))
                .and(fault()),
        ];
        let unguarded = Expr::col("v@source").eq(Expr::lit("a")).and(fault());
        for (p, faults) in guarded.iter().map(|p| (p, false)).chain([(&unguarded, true)]) {
            let want = filtered(&rel, p).map_err(|e| e.to_string());
            assert_eq!(want.is_err(), faults, "{p}");
            assert_eq!(want.as_ref().map(|r| r.len()).unwrap_or(0), 0, "{p}");
            let mask = evaluate_mask(&rel, p).map(|m| m.iter().filter(|b| **b).count());
            assert_eq!(mask.map_err(|e| e.to_string()), want.clone().map(|r| r.len()), "{p}");
            for batch_size in [1usize, 7, 1024] {
                let got = select(&crel, p, batch_size).map(|(r, _)| r);
                assert_eq!(got.map_err(|e| e.to_string()), want, "{p}");
                let got = selection_indexed_columnar(&crel, &idx, p, batch_size)
                    .map(|(sel, ..)| crel.gather(&sel));
                assert_eq!(got.map_err(|e| e.to_string()), want, "{p}");
            }
        }
    }

    /// σ within a selection never runs outside it: a conjunct that
    /// faults on every row the input selection excludes fails no σ, led
    /// by it or guarded, and each kept row gets [`Predicate::matches`]'s
    /// verdict — at 1, 2 and 8 threads and batch sizes 1, 7 and 1024.
    #[test]
    fn selection_within_never_runs_outside_it() {
        let rel = mixed(150);
        let crel = ColumnarRelation::from_tagged(&rel);
        let mut within = Bitset::new(rel.len());
        (0..rel.len()).filter(|k| k % 5 != 0).for_each(|k| within.set(k));
        // 100 / (k % 5) > 30: a division by zero on exactly the rows
        // `within` excludes
        let fault = || {
            let rem = Expr::Bin(Box::new(Expr::col("k")), BinOp::Mod, Box::new(Expr::lit(5i64)));
            Expr::Bin(Box::new(Expr::lit(100i64)), BinOp::Div, Box::new(rem)).gt(Expr::lit(30i64))
        };
        assert!(selection_columnar(&crel, &fault(), 7).is_err(), "the fault is real");
        let faulting = [
            fault(),
            Expr::col("v@source").eq(Expr::lit("a")).and(fault()),
            fault().and(Expr::col("v@age").le(Expr::lit(15i64))),
            Expr::col("name").ge(Expr::lit("n5")).and(fault()).and(Expr::col("v").gt(Expr::lit(20i64))),
        ];
        for e in faulting.into_iter().chain(predicates()) {
            let p = Predicate::bind(rel.schema(), rel.dictionary(), &e).unwrap();
            let verdict: Vec<usize> =
                within.iter_ones().filter(|&i| p.matches(&rel.rows()[i]).unwrap()).collect();
            for threads in [1usize, 2, 8] {
                for batch_size in [1usize, 7, 1024] {
                    let (sel, stats) = par::with_thread_count(threads, || {
                        selection_within_columnar(&crel, &within, &p, batch_size).unwrap()
                    });
                    let at = format!("{e} at {threads} threads, batch {batch_size}");
                    assert_eq!(sel.iter_ones().collect::<Vec<_>>(), verdict, "{at}");
                    assert_eq!((stats.rows_in, stats.rows_out), (within.count(), verdict.len()));
                }
            }
        }
    }

    /// The pair kernel and its gather equal the nested-loop join of the
    /// two sides' selected rows — Int keys with NULLs and duplicates on
    /// both sides, a right side hashed from its selection or probed
    /// through a prebuilt index, and Text keys whose pools differ — and
    /// γ over the pairs equals γ written longhand over the gathered join.
    #[test]
    fn join_probe_columnar_matches() {
        use relstore::algebra::AggFunc;
        let left = Arc::new(ColumnarRelation::from_tagged(&mixed(50)));
        let dict = IndicatorDictionary::with_paper_defaults();
        let schema = Schema::of(&[("v", DataType::Int), ("name", DataType::Text)]);
        let mut rows = Vec::new();
        // right cells tagged row by row, so a fold reading them out of
        // order would see the wrong tags
        for (i, k) in [0i64, 4, 4, 8, 30, 31, 60].into_iter().enumerate() {
            rows.push(vec![
                QualityCell::bare(k).with_tag(IndicatorValue::new("source", "dim")),
                QualityCell::bare(format!("n{}", k % 13))
                    .with_tag(IndicatorValue::new("source", ["x", "y", "z"][i % 3])),
            ]);
        }
        rows.push(vec![QualityCell::bare(Value::Null), QualityCell::bare("n3")]);
        let right = Arc::new(ColumnarRelation::from_tagged(
            &TaggedRelation::new(schema, dict, rows).unwrap(),
        ));
        let picks = |crel: &ColumnarRelation, p: Option<Expr>| match p {
            Some(p) => selection_columnar(crel, &p, 7).unwrap().0,
            None => Bitset::full(crel.len()),
        };
        let policies = [TagPolicy::new("source", crate::algebra::TagRule::MergeText)];
        let aggs = [
            AggCall::count_star("n"),
            AggCall::on(AggFunc::Sum, "k", "s"),
            AggCall::on(AggFunc::Max, "r.name", "top"),
        ];
        for (key, lp, rp) in [
            ("v", None, None),
            ("v", Some(Expr::col("v@source").ne(Expr::lit("b"))), Some(Expr::col("v").lt(Expr::lit(40i64)))),
            ("name", Some(Expr::col("k").ge(Expr::lit(9i64))), None),
        ] {
            let (lsel, rsel) = (picks(&left, lp), picks(&right, rp));
            let expect = nested_loop(
                &left.gather(&lsel),
                &right.gather(&rsel),
                key,
                key,
            )
            .unwrap();
            assert!(!expect.is_empty(), "{key}");
            let hashed = right.key_index(key, &rsel).unwrap();
            let prebuilt = right.key_index(key, &Bitset::full(right.len())).unwrap();
            let indexes = if rsel.count() == right.len() { vec![&hashed, &prebuilt] } else { vec![&hashed] };
            for index in indexes {
                for batch_size in [1usize, 7, 1024] {
                    let (pairs, stats) = JoinPairs::probe(
                        Arc::clone(&left), &lsel, key, Arc::clone(&right), key, index, batch_size,
                    )
                    .unwrap();
                    assert_eq!(pairs.gather(), expect, "{key} batch={batch_size}");
                    assert_eq!((stats.rows_in, stats.rows_out), (lsel.count(), expect.len()));
                    for group_by in [&[][..], &["r.name"], &["l.v", "k"]] {
                        let group_by = if key == "v" { group_by } else { &["r.name"] };
                        let want = longhand(&expect, group_by, &aggs, &policies);
                        assert_eq!(pairs.aggregate(group_by, &aggs, &policies).unwrap(), want.unwrap());
                    }
                }
            }
        }
        // an index position past the right side is an error, not a panic
        let mut stale = HashIndex::new(vec![0]);
        stale.insert(&vec![Value::Int(0)], 99);
        let all = Bitset::full(left.len());
        assert!(JoinPairs::probe(left, &all, "v", right, "v", &stale, 64).is_err());
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
        let (got, _) = select(&c, &p, 16).unwrap();
        assert!(got.is_empty(), "NULLs never satisfy predicates");
        let p = Expr::col("b@source").eq(Expr::lit("x"));
        let (got, _) = select(&c, &p, 16).unwrap();
        assert_eq!(got, filtered(&rel, &p).unwrap());
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
            assert!(filtered(&rel, &p).is_err(), "{p:?}");
            for batch_size in [1usize, 7, 1024] {
                assert!(select(&crel, &p, batch_size).is_err(), "{p:?}");
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
            let want = filtered(&rel, &p).map_err(|e| e.to_string());
            assert_eq!(want.is_ok(), answers, "{p}");
            for batch_size in [1usize, 7, 1024] {
                let got = select(&crel, &p, batch_size).map(|(r, _)| r);
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
        let (_, stats) = select(&crel, &p, 64).unwrap();
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
        assert!(batches * DEFAULT_BATCH_SIZE as u64 >= rows_out);
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
                let rows = crel.gather(&sel);
                for group_by in [&[][..], &["name"], &["k", "name"]] {
                    for pol in [&policies[..], &[]] {
                        let expect = longhand(&rows, group_by, &aggs, pol).unwrap();
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
        let rows = crel.gather(&sel);
        assert_eq!(
            crel.aggregate(&sel, &[], &sum_text, &policies).unwrap_err().to_string(),
            longhand(&rows, &[], &sum_text, &policies)
                .unwrap_err()
                .to_string(),
        );
    }
}
