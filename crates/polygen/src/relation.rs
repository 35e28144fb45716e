//! Polygen relations and the source-propagating algebra.
//!
//! Propagation rules (reconstructed from the polygen model, Wang & Madnick
//! VLDB'90 — documented here because the exact operator table is the
//! model's core):
//!
//! | operator | originating | intermediate |
//! |---|---|---|
//! | retrieve | the local source | ∅ |
//! | project π | unchanged | unchanged |
//! | restrict σ | unchanged | + originating sources of the cells the predicate examined in that tuple |
//! | join ⋈ | unchanged | + originating sources of both join-key cells |
//! | union ∪ | duplicates coalesce, source sets merge | merged |

use crate::cell::{PolyCell, SourceSet};
use crate::source::SourceId;
use relstore::{DbError, DbResult, Expr, Relation, Row, Schema, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A row of polygen cells.
pub type PolyRow = Vec<PolyCell>;

/// A relation whose cells carry polygen provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolyRelation {
    schema: Schema,
    rows: Vec<PolyRow>,
}

impl PolyRelation {
    /// **retrieve** — lifts a local relation into the polygen algebra with
    /// every cell originating from `source`. All cells share **one**
    /// originating-set allocation.
    pub fn retrieve(rel: &Relation, source: SourceId) -> Self {
        let shared = std::sync::Arc::new(SourceSet::from([source]));
        let rows = rel
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| {
                        PolyCell::originated_shared(v.clone(), std::sync::Arc::clone(&shared))
                    })
                    .collect()
            })
            .collect();
        PolyRelation {
            schema: rel.schema().clone(),
            rows,
        }
    }

    /// Builds from parts, validating values against the schema.
    #[cfg(test)]
    pub fn new(schema: Schema, rows: Vec<PolyRow>) -> DbResult<Self> {
        for r in &rows {
            let values: Row = r.iter().map(|c| c.value.clone()).collect();
            schema.check_row(&values)?;
        }
        Ok(PolyRelation { schema, rows })
    }

    fn from_parts(schema: Schema, rows: Vec<PolyRow>) -> Self {
        PolyRelation { schema, rows }
    }

    /// Schema accessor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterator over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, PolyRow> {
        self.rows.iter()
    }

    /// Drops provenance, returning the plain relation.
    pub fn strip(&self) -> Relation {
        let rows = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.value.clone()).collect())
            .collect();
        Relation::new(self.schema.clone(), rows).expect("poly rows conform by construction")
    }

    /// The cell at `(row, column)`.
    pub fn cell(&self, row: usize, column: &str) -> DbResult<&PolyCell> {
        let c = self.schema.resolve(column)?;
        self.rows
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| DbError::InvalidExpression(format!("row index {row} out of range")))
    }

    /// Every source appearing anywhere in the relation's provenance.
    pub fn all_sources(&self) -> SourceSet {
        let mut out = SourceSet::new();
        for row in &self.rows {
            for cell in row {
                out.extend(cell.originating().iter().cloned());
                out.extend(cell.intermediate().iter().cloned());
            }
        }
        out
    }

    /// σ — restrict. Retained tuples' cells gain, as intermediate sources,
    /// the originating sources of the cells the predicate examined.
    pub fn restrict(&self, predicate: &Expr) -> DbResult<PolyRelation> {
        let examined: Vec<usize> = predicate
            .referenced_columns()
            .iter()
            .map(|c| self.schema.resolve(c))
            .collect::<DbResult<_>>()?;
        let mut rows = Vec::new();
        for row in &self.rows {
            let values: Row = row.iter().map(|c| c.value.clone()).collect();
            if predicate.eval_predicate(&self.schema, &values)? {
                let mut consulted = SourceSet::new();
                for &i in &examined {
                    consulted.extend(row[i].originating().iter().cloned());
                }
                // One shared consulted-set per tuple: cells with no prior
                // intermediate sources adopt the Arc instead of copying.
                let consulted = std::sync::Arc::new(consulted);
                let mut out = row.clone();
                for cell in &mut out {
                    cell.consult_shared(&consulted);
                }
                rows.push(out);
            }
        }
        Ok(PolyRelation::from_parts(self.schema.clone(), rows))
    }

    /// π — project.
    pub fn project(&self, columns: &[&str]) -> DbResult<PolyRelation> {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.resolve(c))
            .collect::<DbResult<_>>()?;
        let schema = self.schema.project(&indices)?;
        let rows = self
            .rows
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(PolyRelation::from_parts(schema, rows))
    }

    /// ρ — renames one column (provenance is untouched).
    pub fn rename(&self, from: &str, to: &str) -> DbResult<PolyRelation> {
        let schema = self.schema.rename(from, to)?;
        Ok(PolyRelation::from_parts(schema, self.rows.clone()))
    }

    /// ⋈ — equi-join. Every output cell gains the originating sources of
    /// both join-key cells as intermediate sources: the match *consulted*
    /// both sides' keys.
    pub fn join(
        &self,
        other: &PolyRelation,
        left_key: &str,
        right_key: &str,
    ) -> DbResult<PolyRelation> {
        let li = self.schema.resolve(left_key)?;
        let ri = other.schema.resolve(right_key)?;
        let schema = self.schema.join(&other.schema, "l", "r")?;
        let mut table: HashMap<&Value, Vec<&PolyRow>> = HashMap::with_capacity(other.len());
        for rr in &other.rows {
            if !rr[ri].value.is_null() {
                table.entry(&rr[ri].value).or_default().push(rr);
            }
        }
        let mut rows = Vec::new();
        for lr in &self.rows {
            if lr[li].value.is_null() {
                continue;
            }
            if let Some(matches) = table.get(&lr[li].value) {
                for rr in matches {
                    let mut consulted = SourceSet::new();
                    consulted.extend(lr[li].originating().iter().cloned());
                    consulted.extend(rr[ri].originating().iter().cloned());
                    let consulted = std::sync::Arc::new(consulted);
                    let mut row = lr.clone();
                    row.extend(rr.iter().cloned());
                    for cell in &mut row {
                        cell.consult_shared(&consulted);
                    }
                    rows.push(row);
                }
            }
        }
        Ok(PolyRelation::from_parts(schema, rows))
    }

    /// ∪ — union with duplicate coalescing: tuples equal on values merge
    /// into one tuple whose cells absorb both tuples' provenance.
    pub fn union(&self, other: &PolyRelation) -> DbResult<PolyRelation> {
        if !self.schema.union_compatible(&other.schema) {
            return Err(DbError::TypeMismatch {
                expected: format!("union-compatible schemas ({})", self.schema),
                found: other.schema.to_string(),
            });
        }
        let mut index: HashMap<Row, usize> = HashMap::new();
        let mut out: Vec<PolyRow> = Vec::new();
        for row in self.rows.iter().chain(other.rows.iter()) {
            let key: Row = row.iter().map(|c| c.value.clone()).collect();
            match index.get(&key) {
                Some(&pos) => {
                    for (mine, theirs) in out[pos].iter_mut().zip(row.iter()) {
                        mine.absorb(theirs);
                    }
                }
                None => {
                    index.insert(key, out.len());
                    out.push(row.clone());
                }
            }
        }
        Ok(PolyRelation::from_parts(self.schema.clone(), out))
    }

    /// Renders with provenance, `value <originating; intermediate>`.
    pub fn to_ascii_table(&self) -> String {
        let names = self.schema.names();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.to_string()).collect())
            .collect();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PolyRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::DataType;

    fn src(s: &str) -> SourceId {
        SourceId::new(s)
    }

    fn stocks() -> PolyRelation {
        let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::text("FRT"), Value::Float(10.0)],
                vec![Value::text("NUT"), Value::Float(20.0)],
            ],
        )
        .unwrap();
        PolyRelation::retrieve(&rel, src("NYSE"))
    }

    fn reports() -> PolyRelation {
        let schema = Schema::of(&[("ticker", DataType::Text), ("rating", DataType::Text)]);
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::text("FRT"), Value::text("buy")],
                vec![Value::text("ZZZ"), Value::text("sell")],
            ],
        )
        .unwrap();
        PolyRelation::retrieve(&rel, src("WSJ"))
    }

    #[test]
    fn retrieve_tags_every_cell() {
        let s = stocks();
        for row in s.iter() {
            for cell in row {
                assert!(cell.originating().contains(&src("NYSE")));
                assert!(cell.intermediate().is_empty());
            }
        }
    }

    #[test]
    fn restrict_adds_intermediate_sources() {
        let s = stocks();
        let r = s.restrict(&Expr::col("price").gt(Expr::lit(15.0))).unwrap();
        assert_eq!(r.len(), 1);
        // every retained cell consulted the price cell's source
        for cell in &r.rows[0] {
            assert!(cell.intermediate().contains(&src("NYSE")));
        }
    }

    #[test]
    fn project_preserves_provenance() {
        let p = stocks().project(&["price"]).unwrap();
        assert_eq!(p.schema().names(), vec!["price"]);
        assert!(p.rows[0][0].originating().contains(&src("NYSE")));
    }

    #[test]
    fn join_consults_both_key_sources() {
        let j = stocks().join(&reports(), "ticker", "ticker").unwrap();
        assert_eq!(j.len(), 1); // only FRT matches
        for cell in &j.rows[0] {
            assert!(cell.intermediate().contains(&src("NYSE")), "{cell}");
            assert!(cell.intermediate().contains(&src("WSJ")), "{cell}");
        }
        // originating sources stay with their side
        let rating = j.cell(0, "rating").unwrap();
        assert!(rating.originating().contains(&src("WSJ")));
        assert!(!rating.originating().contains(&src("NYSE")));
    }

    #[test]
    fn union_coalesces_duplicates_merging_sources() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rel = Relation::new(schema.clone(), vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        let a = PolyRelation::retrieve(&rel, src("A"));
        let rel2 = Relation::new(schema, vec![vec![Value::Int(1)]]).unwrap();
        let b = PolyRelation::retrieve(&rel2, src("B"));
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        let one = u
            .iter()
            .find(|r| r[0].value == Value::Int(1))
            .unwrap();
        assert!(one[0].originating().contains(&src("A")));
        assert!(one[0].originating().contains(&src("B")));
    }

    #[test]
    fn incompatible_set_ops_rejected() {
        assert!(stocks().union(&reports()).is_err());
    }

    #[test]
    fn all_sources_reports_lineage() {
        let j = stocks().join(&reports(), "ticker", "ticker").unwrap();
        let sources = j.all_sources();
        assert!(sources.contains(&src("NYSE")));
        assert!(sources.contains(&src("WSJ")));
    }

    #[test]
    fn strip_drops_provenance() {
        let plain = stocks().strip();
        assert_eq!(plain.len(), 2);
        assert_eq!(plain.value_at(0, "ticker").unwrap(), &Value::text("FRT"));
    }

    #[test]
    fn display_contains_provenance() {
        let s = stocks().to_ascii_table();
        assert!(s.contains("<NYSE; >"), "got\n{s}");
    }
}
