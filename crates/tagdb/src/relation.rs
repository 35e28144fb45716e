//! Tagged relations: relations whose cells carry quality indicator values.
//!
//! A [`TaggedRelation`] pairs an application [`Schema`] with rows of
//! [`QualityCell`]s and an [`IndicatorDictionary`] governing admissible
//! tags. The pseudo-column syntax `column@indicator` (see
//! [`TaggedRelation::expand`]) exposes tags to the ordinary expression
//! language, which is how "users can filter out data having undesirable
//! characteristics" at query time.

use crate::cell::QualityCell;
use crate::indicator::{IndicatorDictionary, IndicatorValue};
use relstore::{DbError, DbResult, Relation, Row, Schema};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Separator between column and indicator in a pseudo-column name.
pub const TAG_SEP: char = '@';

/// A row of quality cells, shared: a relation's clone copies one
/// pointer per row, and tagging a cell deep-copies its row only while
/// another relation still holds it ([`Arc::make_mut`]).
pub type TaggedRow = Arc<[QualityCell]>;

/// A relation whose cells are quality-tagged.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedRelation {
    schema: Schema,
    dict: IndicatorDictionary,
    rows: Vec<TaggedRow>,
    /// Relation-level quality tags — "tagging higher aggregations, such
    /// as the table or database level" (§1.2): e.g. `population_method`
    /// as an indication of the table's completeness.
    relation_tags: Vec<IndicatorValue>,
}

impl TaggedRelation {
    /// Empty tagged relation.
    pub fn empty(schema: Schema, dict: IndicatorDictionary) -> Self {
        TaggedRelation {
            schema,
            dict,
            rows: Vec::new(),
            relation_tags: Vec::new(),
        }
    }

    /// Builds from rows, validating values against the schema and tags
    /// against the dictionary.
    pub fn new(
        schema: Schema,
        dict: IndicatorDictionary,
        rows: Vec<impl Into<TaggedRow>>,
    ) -> DbResult<Self> {
        let mut rel = TaggedRelation::empty(schema, dict);
        for r in rows {
            rel.push(r)?;
        }
        Ok(rel)
    }

    /// Lifts an untagged relation (every cell bare).
    pub fn from_relation(rel: &Relation, dict: IndicatorDictionary) -> Self {
        let rows = rel
            .iter()
            .map(|r| r.iter().cloned().map(QualityCell::bare).collect())
            .collect();
        TaggedRelation {
            schema: rel.schema().clone(),
            dict,
            rows,
            relation_tags: Vec::new(),
        }
    }

    /// Internal unchecked constructor for operator results.
    pub(crate) fn from_parts_unchecked(
        schema: Schema,
        dict: IndicatorDictionary,
        rows: Vec<TaggedRow>,
    ) -> Self {
        TaggedRelation {
            schema,
            dict,
            rows,
            relation_tags: Vec::new(),
        }
    }

    /// Application schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Indicator dictionary in force.
    pub fn dictionary(&self) -> &IndicatorDictionary {
        &self.dict
    }

    /// Rows.
    pub fn rows(&self) -> &[TaggedRow] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterator over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, TaggedRow> {
        self.rows.iter()
    }

    /// The rows stably sorted by `cmp`, as an operator's output (rows not
    /// checked again, relation-level tags dropped).
    pub fn sorted_by(mut self, cmp: impl FnMut(&TaggedRow, &TaggedRow) -> Ordering) -> Self {
        self.rows.sort_by(cmp);
        self.relation_tags.clear();
        self
    }

    /// The first `n` rows, as an operator's output (as [`Self::sorted_by`]).
    pub fn truncated(mut self, n: usize) -> Self {
        self.rows.truncate(n);
        self.relation_tags.clear();
        self
    }

    /// Validates and appends a row.
    pub fn push(&mut self, row: impl Into<TaggedRow>) -> DbResult<()> {
        let row = row.into();
        let values: Row = row.iter().map(|c| c.value.clone()).collect();
        self.schema.check_row(&values)?;
        for cell in row.iter() {
            for tag in cell.tags() {
                self.dict.check(tag)?;
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Removes and returns row `row` in O(1) by swapping the last row
    /// into its place, so positional indexes fix themselves up by
    /// re-homing the moved last row.
    pub fn swap_remove(&mut self, row: usize) -> DbResult<TaggedRow> {
        if row >= self.rows.len() {
            return Err(DbError::IndexError(format!(
                "row {row} out of range ({} rows)",
                self.rows.len()
            )));
        }
        Ok(self.rows.swap_remove(row))
    }

    /// The cell at `(row, column-name)`.
    pub fn cell(&self, row: usize, column: &str) -> DbResult<&QualityCell> {
        let c = self.schema.resolve(column)?;
        self.rows
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| DbError::InvalidExpression(format!("row index {row} out of range")))
    }

    /// Mutable cell access (for tagging in place).
    pub fn cell_mut(&mut self, row: usize, column: &str) -> DbResult<&mut QualityCell> {
        let c = self.schema.resolve(column)?;
        self.rows
            .get_mut(row)
            .map(|r| &mut Arc::make_mut(r)[c])
            .ok_or_else(|| DbError::InvalidExpression(format!("row index {row} out of range")))
    }

    /// Relation-level quality tags, sorted by indicator name.
    pub fn relation_tags(&self) -> &[IndicatorValue] {
        &self.relation_tags
    }

    /// Attaches (or replaces) a relation-level tag — §1.2: "the means by
    /// which a database table was populated may give some indication of
    /// its completeness."
    pub fn tag_relation(&mut self, tag: IndicatorValue) -> DbResult<()> {
        self.dict.check(&tag)?;
        match self
            .relation_tags
            .binary_search_by(|t| t.indicator.cmp(&tag.indicator))
        {
            Ok(i) => self.relation_tags[i] = tag,
            Err(i) => self.relation_tags.insert(i, tag),
        }
        Ok(())
    }

    /// Tags one cell, validating against the dictionary.
    pub fn tag_cell(&mut self, row: usize, column: &str, tag: IndicatorValue) -> DbResult<()> {
        self.dict.check(&tag)?;
        self.cell_mut(row, column)?.set_tag(tag);
        Ok(())
    }

    /// Tags every cell of a column with the same indicator value — the
    /// common bulk case ("this whole column came from Nexis").
    ///
    /// Previously-untagged cells all point at **one** shared tag vector
    /// (a refcount bump per cell); cells that already carry tags merge
    /// the new tag into their own vector.
    pub fn tag_column(&mut self, column: &str, tag: IndicatorValue) -> DbResult<()> {
        self.dict.check(&tag)?;
        let c = self.schema.resolve(column)?;
        let shared = Arc::new(vec![tag.clone()]);
        for row in &mut self.rows {
            let cell = &mut Arc::make_mut(row)[c];
            if cell.tag_count() == 0 {
                cell.set_shared_tags(Arc::clone(&shared));
            } else {
                cell.set_tag(tag.clone());
            }
        }
        Ok(())
    }

    /// Strips all tags, yielding the plain application relation
    /// (the inverse of [`TaggedRelation::from_relation`]).
    pub fn strip(&self) -> Relation {
        let rows = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.value.clone()).collect())
            .collect();
        Relation::new(self.schema.clone(), rows).expect("tagged rows conform by construction")
    }

    /// Splits a pseudo-column name `col@indicator` into its parts.
    pub fn split_pseudo(name: &str) -> Option<(&str, &str)> {
        name.split_once(TAG_SEP)
    }

    /// Renders in the paper's Table 2 layout: each cell as
    /// `value (tag, tag)`.
    pub fn to_paper_table(&self) -> String {
        let names = self.schema.names();
        write_paper_table(&names, self.rows.len(), &self.relation_tags, |c, cells| {
            for row in &self.rows {
                row[c].write_paper(&mut cells.text);
                cells.end_cell();
            }
        })
    }
}

/// The cells [`write_paper_table`] collects, column after column: their
/// text in one buffer, where each ends, and the widest of the column
/// being written, in bytes.
pub(crate) struct PaperCells {
    /// The buffer the current cell's text is appended to.
    pub(crate) text: String,
    ends: Vec<usize>,
    width: usize,
}

impl PaperCells {
    /// Closes the cell written since the last call.
    pub(crate) fn end_cell(&mut self) {
        let start = self.ends.last().copied().unwrap_or(0);
        self.width = self.width.max(self.text.len() - start);
        self.ends.push(self.text.len());
    }
}

/// The paper's Table 2 layout of `rows` rows under `names`, one writer
/// for every answer: `fill(c, cells)` writes column `c`'s cells in row
/// order, each closed by [`PaperCells::end_cell`]. A column is as wide
/// as its widest cell or name in bytes, and a cell is padded to it in
/// chars, as `format!("{:<w$}")` pads.
pub(crate) fn write_paper_table(
    names: &[&str],
    rows: usize,
    relation_tags: &[IndicatorValue],
    mut fill: impl FnMut(usize, &mut PaperCells),
) -> String {
    let ends = Vec::with_capacity(rows * names.len());
    let mut cells = PaperCells { text: String::new(), ends, width: 0 };
    let widths: Vec<usize> = (names.iter().enumerate())
        .map(|(c, name)| {
            cells.width = name.len();
            fill(c, &mut cells);
            debug_assert_eq!(cells.ends.len(), (c + 1) * rows, "one cell a row");
            cells.width
        })
        .collect();
    let mut out = String::with_capacity(cells.text.len() + 4 * cells.ends.len());
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.extend(std::iter::repeat_n('-', w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    let pad = |out: &mut String, cell: &str, w: usize| {
        out.push(' ');
        out.push_str(cell);
        let fill = w.saturating_sub(cell.chars().count());
        out.extend(std::iter::repeat_n(' ', fill));
        out.push_str(" |");
    };
    sep(&mut out);
    out.push('|');
    for (n, w) in names.iter().zip(&widths) {
        pad(&mut out, n, *w);
    }
    out.push('\n');
    sep(&mut out);
    for r in 0..rows {
        out.push('|');
        for (c, w) in widths.iter().enumerate() {
            let at = c * rows + r;
            let start = if at == 0 { 0 } else { cells.ends[at - 1] };
            pad(&mut out, &cells.text[start..cells.ends[at]], *w);
        }
        out.push('\n');
    }
    sep(&mut out);
    if !relation_tags.is_empty() {
        let tags: Vec<String> = relation_tags.iter().map(ToString::to_string).collect();
        out.push_str(&format!("relation tags: {}\n", tags.join(", ")));
    }
    out
}

impl fmt::Display for TaggedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_paper_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, Date, Value};

    /// The paper's Table 2, verbatim.
    pub(crate) fn table2() -> TaggedRelation {
        let schema = Schema::of(&[
            ("co_name", DataType::Text),
            ("address", DataType::Text),
            ("employees", DataType::Int),
        ]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let d = |s: &str| Value::Date(Date::parse(s).unwrap());
        let rows = vec![
            vec![
                QualityCell::bare("Fruit Co"),
                QualityCell::bare("12 Jay St")
                    .with_tag(IndicatorValue::new("creation_time", d("1-2-91")))
                    .with_tag(IndicatorValue::new("source", "sales")),
                QualityCell::bare(4004i64)
                    .with_tag(IndicatorValue::new("creation_time", d("10-3-91")))
                    .with_tag(IndicatorValue::new("source", "Nexis")),
            ],
            vec![
                QualityCell::bare("Nut Co"),
                QualityCell::bare("62 Lois Av")
                    .with_tag(IndicatorValue::new("creation_time", d("10-24-91")))
                    .with_tag(IndicatorValue::new("source", "acct'g")),
                QualityCell::bare(700i64)
                    .with_tag(IndicatorValue::new("creation_time", d("10-9-91")))
                    .with_tag(IndicatorValue::new("source", "estimate")),
            ],
        ];
        TaggedRelation::new(schema, dict, rows).unwrap()
    }

    #[test]
    fn construction_validates_values_and_tags() {
        let schema = Schema::of(&[("n", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        // bad value type
        let bad = vec![vec![QualityCell::bare("text")]];
        assert!(TaggedRelation::new(schema.clone(), dict.clone(), bad).is_err());
        // undeclared indicator
        let bad = vec![vec![
            QualityCell::bare(1i64).with_tag(IndicatorValue::new("ghost", "x")),
        ]];
        assert!(TaggedRelation::new(schema.clone(), dict.clone(), bad).is_err());
        // mistyped tag value
        let bad = vec![vec![
            QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", "old")),
        ]];
        assert!(TaggedRelation::new(schema, dict, bad).is_err());
    }

    #[test]
    fn cell_access_and_tagging() {
        let mut t = table2();
        assert_eq!(
            t.cell(1, "address").unwrap().tag_value("source"),
            Value::text("acct'g")
        );
        t.tag_cell(0, "co_name", IndicatorValue::new("source", "registry"))
            .unwrap();
        assert_eq!(
            t.cell(0, "co_name").unwrap().tag_value("source"),
            Value::text("registry")
        );
        assert!(t
            .tag_cell(0, "co_name", IndicatorValue::new("ghost", "x"))
            .is_err());
        assert!(t.cell(9, "co_name").is_err());
    }

    #[test]
    fn tag_column_bulk() {
        let mut t = table2();
        t.tag_column("co_name", IndicatorValue::new("collection_method", "registry import"))
            .unwrap();
        for i in 0..t.len() {
            assert_eq!(
                t.cell(i, "co_name").unwrap().tag_value("collection_method"),
                Value::text("registry import")
            );
        }
    }

    #[test]
    fn strip_recovers_table1() {
        let t = table2();
        let plain = t.strip();
        assert_eq!(plain.len(), 2);
        assert_eq!(plain.value_at(0, "employees").unwrap(), &Value::Int(4004));
        // round-trip: lifting the stripped relation gives bare cells
        let lifted = TaggedRelation::from_relation(&plain, t.dictionary().clone());
        assert_eq!(lifted.strip(), plain);
        assert!(lifted.rows()[0].iter().all(|c| c.tag_count() == 0));
    }

    #[test]
    fn pseudo_name_splitting() {
        assert_eq!(
            TaggedRelation::split_pseudo("price@age"),
            Some(("price", "age"))
        );
        assert_eq!(TaggedRelation::split_pseudo("price"), None);
    }

    #[test]
    fn relation_level_tags() {
        let t = table2();
        assert!(t.relation_tags().is_empty());
        // declare the table-level indicator, then tag the relation
        let mut dict = t.dictionary().clone();
        dict.declare(tagstore_test_def()).unwrap();
        let mut t = TaggedRelation::new(t.schema().clone(), dict, t.rows().to_vec()).unwrap();
        t.tag_relation(IndicatorValue::new(
            "population_method",
            "bulk import from sales ledger",
        ))
        .unwrap();
        assert_eq!(
            t.relation_tags()[0].value,
            Value::text("bulk import from sales ledger")
        );
        // replace
        t.tag_relation(IndicatorValue::new("population_method", "manual entry"))
            .unwrap();
        assert_eq!(t.relation_tags().len(), 1);
        // undeclared indicator rejected
        assert!(t.tag_relation(IndicatorValue::new("sparkle", "x")).is_err());
        // rendered as a footer
        let s = t.to_paper_table();
        assert!(s.contains("relation tags: population_method=manual entry"));
    }

    fn tagstore_test_def() -> crate::indicator::IndicatorDef {
        crate::indicator::IndicatorDef::new(
            "population_method",
            DataType::Text,
            "the means by which the table was populated (completeness proxy)",
        )
    }

    #[test]
    fn paper_table_rendering_matches_table2() {
        let s = table2().to_paper_table();
        assert!(s.contains("4004 (1991-10-03, Nexis)"), "got\n{s}");
        assert!(s.contains("62 Lois Av (1991-10-24, acct'g)"), "got\n{s}");
        assert!(s.contains("700 (1991-10-09, estimate)"), "got\n{s}");
    }
}
