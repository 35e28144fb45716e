//! A query's answer before its rows are built: the rows a σ selected
//! from one columnar layout, or a ⋈'s pairs over two, and the output
//! columns a π reads from them. [`ColumnarView::to_paper_table`] renders
//! it straight from the typed arrays and the tag runs through the one
//! paper-table writer [`TaggedRelation::to_paper_table`] uses, so the
//! bytes are those of its rows; [`ColumnarView::gather`] builds the rows
//! for a caller that asks for them.

use crate::bitmap::Bitset;
use crate::columnar::{count_gather_runs, rows_of, ColumnarRelation, JoinPairs};
use crate::indicator::IndicatorDictionary;
use crate::relation::{write_paper_table, TaggedRelation};
use crate::symbol::Symbol;
use relstore::{ColumnDef, DataType, DbResult, Schema};
use std::sync::Arc;

/// Where a view's rows lie.
#[derive(Debug, Clone)]
pub enum ViewSource {
    /// The rows of a layout a σ's selection keeps, ascending.
    Selected(Arc<ColumnarRelation>, Bitset),
    /// A ⋈'s matched pairs over its two inputs' layouts.
    Paired(JoinPairs),
}

impl ViewSource {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ViewSource::Selected(_, sel) => sel.count(),
            ViewSource::Paired(pairs) => pairs.len(),
        }
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source's schema (a ⋈'s joined one).
    pub fn schema(&self) -> &Schema {
        match self {
            ViewSource::Selected(crel, _) => crel.schema(),
            ViewSource::Paired(pairs) => pairs.schema(),
        }
    }

    /// The source's dictionary (a ⋈'s left side's).
    pub fn dictionary(&self) -> &IndicatorDictionary {
        match self {
            ViewSource::Selected(crel, _) => crel.dictionary(),
            ViewSource::Paired(pairs) => pairs.dictionary(),
        }
    }
}

/// One output column of a view: a column of its source's schema, and for
/// a pseudo-column (`price@age`, `price@source@credibility`) the tag path
/// whose value it shows, bare.
pub type ViewColumn = (usize, Option<Vec<Symbol>>);

/// π's output schema over an input's `schema` and `dict`, and where each
/// output column reads: a plain column keeps its definition under its
/// alias, a pseudo-column takes its last indicator's declared type.
pub fn projection(
    schema: &Schema,
    dict: &IndicatorDictionary,
    columns: &[(String, String)],
) -> DbResult<(Schema, Vec<ViewColumn>)> {
    let mut srcs = Vec::with_capacity(columns.len());
    let mut defs = Vec::with_capacity(columns.len());
    for (name, out_name) in columns {
        let (col, path) = match TaggedRelation::split_pseudo(name) {
            None => (name.as_str(), None),
            Some((col, path)) => (col, Some(path.split('@').map(Symbol::intern))),
        };
        let i = schema.resolve(col)?;
        let path: Option<Vec<_>> = path.map(Iterator::collect);
        defs.push(match &path {
            None => ColumnDef {
                name: out_name.clone(),
                ..schema.column(i).expect("resolved").clone()
            },
            Some(path) => {
                let leaf = dict.get(path.last().expect("non-empty path"));
                ColumnDef::new(out_name.clone(), leaf.map_or(DataType::Any, |d| d.dtype))
            }
        });
        srcs.push((i, path));
    }
    Ok((Schema::new(defs)?, srcs))
}

/// A layout's rows in a view's order.
type SourceRows<'a> = Box<dyn Iterator<Item = usize> + 'a>;

/// A σ, ⋈ or π answer over a [`ViewSource`], its rows not built.
#[derive(Debug, Clone)]
pub struct ColumnarView {
    source: ViewSource,
    schema: Schema,
    columns: Vec<ViewColumn>,
}

impl ColumnarView {
    /// π's answer over `source`: each `(name, alias)` of `columns` a
    /// column or a pseudo-column, as [`projection`] resolves them.
    pub fn project(source: ViewSource, columns: &[(String, String)]) -> DbResult<Self> {
        let (schema, columns) = projection(source.schema(), source.dictionary(), columns)?;
        Ok(ColumnarView {
            source,
            schema,
            columns,
        })
    }

    /// A σ's or ⋈'s own answer: every column of `source` as it is.
    pub fn whole(source: ViewSource) -> Self {
        let schema = source.schema().clone();
        let columns = (0..schema.arity()).map(|c| (c, None)).collect();
        ColumnarView {
            source,
            schema,
            columns,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Output column `c`: the layout it reads, the column there, its tag
    /// path, and that layout's rows in the view's order.
    fn column(&self, c: usize) -> (&ColumnarRelation, usize, Option<&[Symbol]>, SourceRows<'_>) {
        let (col, path) = &self.columns[c];
        let path = path.as_deref();
        match &self.source {
            ViewSource::Selected(crel, sel) => (crel, *col, path, Box::new(sel.iter_ones())),
            ViewSource::Paired(p) => match col.checked_sub(p.left.schema().arity()) {
                None => (
                    &p.left,
                    *col,
                    path,
                    Box::new(p.pairs.iter().map(|&(l, _)| l as usize)),
                ),
                Some(rc) => (
                    &p.right,
                    rc,
                    path,
                    Box::new(p.pairs.iter().map(|&(_, r)| r as usize)),
                ),
            },
        }
    }

    /// The paper's Table 2 layout of the rows [`ColumnarView::gather`]
    /// builds, byte for byte, written column by column from the layouts.
    pub fn to_paper_table(&self) -> String {
        let names = self.schema.names();
        write_paper_table(&names, self.len(), &[], |c, cells| {
            let (crel, col, path, rows) = self.column(c);
            crel.write_paper_cells(col, path, rows, cells);
        })
    }

    /// The rows, built column by column along the tag runs (tag `Arc`s
    /// shared) and not checked again: each value and tag was checked
    /// when its table was built.
    pub fn gather(&self) -> TaggedRelation {
        if let ViewSource::Selected(_, sel) = &self.source {
            count_gather_runs(sel);
        }
        let columns = (0..self.columns.len()).map(|c| {
            let (crel, col, path, rows) = self.column(c);
            crel.cells(col, path, rows)
        });
        let rows = rows_of(self.len(), columns);
        let dict = self.source.dictionary().clone();
        TaggedRelation::from_parts_unchecked(self.schema.clone(), dict, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndicatorValue, QualityCell, TaggedRow, DEFAULT_BATCH_SIZE};
    use proptest::prelude::*;
    use relstore::{Date, Value};

    /// One generated row: `v`, its tag mode, `t` (multi-byte), `d`
    /// (days) and the mode of the `Any` column `x`.
    type Gen = (Option<i64>, u8, Option<String>, Option<i64>, u8);

    /// Columns `k` Int, `v` Int, `t` Text, `d` Date, `x` Any. `v` is
    /// untagged, tagged per row (a multi-byte source with a meta tag, a
    /// creation time), or an empty tag vector; `t` shares one tag `Arc`
    /// across its untagged cells when `shared`; `x` mixes NULL, Int,
    /// Float and Text.
    fn relation(rows: Vec<Gen>, shared: bool) -> TaggedRelation {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("t", DataType::Text),
            ("d", DataType::Date),
            ("x", DataType::Any),
        ]);
        let text = |s: Option<String>| s.map_or(Value::Null, Value::Text);
        let rows: Vec<Vec<QualityCell>> = (rows.into_iter().enumerate())
            .map(|(k, (v, mode, t, d, x))| {
                let v = v.map_or(Value::Null, Value::Int);
                let v = match mode % 4 {
                    0 => QualityCell::bare(v),
                    1 => QualityCell::tagged(v, Vec::new()),
                    m => {
                        let mut tag = IndicatorValue::new("source", ["féed", "日本", "a"][k % 3]);
                        if m == 3 {
                            tag = tag.with_meta(IndicatorValue::new("inspection", "ß"));
                        }
                        let day = Date::from_days(k as i64);
                        QualityCell::tagged(v, vec![tag, IndicatorValue::new("creation_time", day)])
                    }
                };
                let mut t = QualityCell::bare(text(t));
                if k % 5 == 1 {
                    t.set_tag(IndicatorValue::new("collection_method", "scañ"));
                }
                let x = match x % 4 {
                    0 => Value::Null,
                    1 => Value::Int(k as i64 - 3),
                    2 => Value::Float(k as f64 / 4.0),
                    _ => Value::text("ü".repeat(k % 3)),
                };
                let d =
                    QualityCell::bare(d.map_or(Value::Null, |d| Value::Date(Date::from_days(d))));
                vec![QualityCell::bare(k as i64), v, t, d, QualityCell::bare(x)]
            })
            .collect();
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut rel = TaggedRelation::new(schema, dict, rows).unwrap();
        if shared {
            rel.tag_column("t", IndicatorValue::new("source", "bulk"))
                .unwrap();
        }
        rel
    }

    fn arb_rows() -> impl Strategy<Value = Vec<Gen>> {
        let row = (
            prop::option::of(0i64..4),
            0u8..4,
            prop::option::of("[aé日]{0,3}"),
            prop::option::of(0i64..40),
            0u8..4,
        );
        prop::collection::vec(row, 0..24)
    }

    /// The paper table written longhand: a column as wide as its widest
    /// cell or name in bytes, each cell padded by `format!`.
    fn longhand(rel: &TaggedRelation) -> String {
        let names = rel.schema().names();
        let cells: Vec<Vec<String>> = (rel.iter())
            .map(|r| r.iter().map(QualityCell::to_paper_string).collect())
            .collect();
        let widths: Vec<usize> = (names.iter().enumerate())
            .map(|(c, n)| cells.iter().map(|r| r[c].len()).fold(n.len(), usize::max))
            .collect();
        let line = |cells: Vec<&str>| -> String {
            let padded = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {c:<w$} |"));
            format!("|{}\n", padded.collect::<String>())
        };
        let sep = format!(
            "+{}\n",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2) + "+")
                .collect::<String>()
        );
        let mut out = format!("{sep}{}{sep}", line(names.clone()));
        for row in &cells {
            out += &line(row.iter().map(String::as_str).collect());
        }
        out + &sep
    }

    /// Output column `name` of one source row, longhand: the cell, or
    /// the value down a pseudo-column's tag path, bare.
    fn cell_of(schema: &Schema, row: &[QualityCell], name: &str) -> QualityCell {
        let (col, path) = name
            .split_once('@')
            .map_or((name, None), |(c, p)| (c, Some(p)));
        let cell = &row[schema.resolve(col).unwrap()];
        match path {
            None => cell.clone(),
            Some(path) => {
                let path: Vec<&str> = path.split('@').collect();
                QualityCell::bare(cell.tag_value_path(&path))
            }
        }
    }

    /// The menu's picks under aliases: the name itself, or a multi-byte
    /// alias.
    fn picks(menu: &[&str], mask: u32) -> Vec<(String, String)> {
        (menu.iter().enumerate())
            .filter(|(i, _)| (mask >> i) & 1 == 1)
            .map(|(i, n)| {
                (
                    n.to_string(),
                    if i % 2 == 0 {
                        n.to_string()
                    } else {
                        format!("é{i}")
                    },
                )
            })
            .collect()
    }

    /// The view renders what its rows render, longhand, and its rows are
    /// the source rows projected longhand, and pass the checks
    /// [`TaggedRelation::new`] runs.
    fn renders_as_rows(
        view: &ColumnarView,
        want: Vec<TaggedRow>,
    ) -> Result<(), proptest::TestCaseError> {
        let rows = view.gather();
        prop_assert_eq!(rows.rows(), &want[..]);
        let checked = TaggedRelation::new(rows.schema().clone(), rows.dictionary().clone(), want);
        prop_assert_eq!(checked.as_ref().ok(), Some(&rows));
        prop_assert_eq!(view.to_paper_table(), longhand(&rows));
        prop_assert_eq!(rows.to_paper_table(), longhand(&rows));
        Ok(())
    }

    proptest! {
        /// A σ's and a ⋈'s view, whole and under π — plain columns,
        /// aliases, pseudo-columns down one indicator or a meta-tag path,
        /// `l.`/`r.` names — over empty, sparse and full selections of
        /// relations with NULLs, untagged cells, empty tag vectors, per-row
        /// and shared tag `Arc`s, an `Any` column and multi-byte text:
        /// the rendered bytes are the longhand table of its gathered rows,
        /// and those are the source rows projected longhand.
        #[test]
        fn answer_renders_as_its_rows(
            a in arb_rows(),
            b in arb_rows(),
            shared in prop::bool::ANY,
            bits in any::<u64>(),
            fill in 0u8..3,
            mask in any::<u32>(),
        ) {
            let (a, b) = (relation(a, shared), relation(b, !shared));
            let pick = |rel: &TaggedRelation, salt: u64| {
                let mut sel = Bitset::new(rel.len());
                for i in 0..rel.len() {
                    if fill == 2 || (fill == 1 && ((bits ^ salt) >> (i % 64)) & 1 == 1) {
                        sel.set(i);
                    }
                }
                sel
            };
            let (asel, bsel) = (pick(&a, 0), pick(&b, bits.rotate_left(7)));
            let menu = ["k", "v", "t@source", "x", "v@source", "d", "v@source@inspection", "t",
                        "v@creation_time", "x@age"];
            let (ca, cb) = (Arc::new(ColumnarRelation::from_tagged(&a)), Arc::new(ColumnarRelation::from_tagged(&b)));

            let selected = || ViewSource::Selected(Arc::clone(&ca), asel.clone());
            let kept: Vec<&TaggedRow> = asel.iter_ones().map(|i| &a.rows()[i]).collect();
            renders_as_rows(&ColumnarView::whole(selected()), kept.iter().map(|&r| r.clone()).collect())?;
            let columns = picks(&menu, mask);
            let want = kept.iter()
                .map(|r| columns.iter().map(|(n, _)| cell_of(a.schema(), r, n)).collect())
                .collect();
            renders_as_rows(&ColumnarView::project(selected(), &columns).unwrap(), want)?;

            let index = cb.key_index("v", &bsel).unwrap();
            let (pairs, _) = JoinPairs::probe(
                Arc::clone(&ca), &asel, "v", Arc::clone(&cb), "v", &index, DEFAULT_BATCH_SIZE,
            ).unwrap();
            let joined: Vec<Vec<QualityCell>> = kept.iter()
                .filter(|l| !l[1].value.is_null())
                .flat_map(|l| bsel.iter_ones().map(|j| &b.rows()[j])
                    .filter(|r| r[1].value == l[1].value)
                    .map(|r| l.iter().chain(r.iter()).cloned().collect::<Vec<_>>())
                    .collect::<Vec<_>>())
                .collect();
            let paired = ViewSource::Paired(pairs);
            let schema = paired.schema().clone();
            renders_as_rows(&ColumnarView::whole(paired.clone()), joined.iter().map(|r| r[..].into()).collect())?;
            let menu = ["l.k", "r.v", "l.t", "r.x", "l.v@source", "r.v@source@inspection",
                        "r.t@source", "l.d", "r.v@creation_time", "l.x"];
            let columns = picks(&menu, mask.rotate_left(5));
            let want = joined.iter()
                .map(|r| columns.iter().map(|(n, _)| cell_of(&schema, r, n)).collect())
                .collect();
            renders_as_rows(&ColumnarView::project(paired, &columns).unwrap(), want)?;
        }
    }
}
