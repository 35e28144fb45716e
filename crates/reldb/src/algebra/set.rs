//! Set operators: bag union and duplicate elimination.

use crate::error::{DbError, DbResult};
use crate::relation::{Relation, Row};
use std::collections::HashSet;

fn check_compat(a: &Relation, b: &Relation) -> DbResult<()> {
    if !a.schema().union_compatible(b.schema()) {
        return Err(DbError::TypeMismatch {
            expected: format!("union-compatible schemas ({})", a.schema()),
            found: b.schema().to_string(),
        });
    }
    Ok(())
}

/// Bag union — concatenation of rows.
pub fn union_all(a: &Relation, b: &Relation) -> DbResult<Relation> {
    check_compat(a, b)?;
    let mut rows = a.rows().to_vec();
    rows.extend(b.rows().iter().cloned());
    Ok(Relation::from_parts_unchecked(a.schema().clone(), rows))
}

/// δ — removes duplicate rows, preserving first-occurrence order.
pub fn distinct(input: &Relation) -> Relation {
    let mut seen: HashSet<&Row> = HashSet::with_capacity(input.len());
    let mut keep = Vec::new();
    for row in input.iter() {
        if seen.insert(row) {
            keep.push(row.clone());
        }
    }
    Relation::from_parts_unchecked(input.schema().clone(), keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn rel(vals: &[i64]) -> Relation {
        let schema = Schema::of(&[("n", DataType::Int)]);
        Relation::new(schema, vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap()
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let u = union_all(&rel(&[1, 2, 2]), &rel(&[2, 3])).unwrap();
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn distinct_preserves_order() {
        let d = distinct(&rel(&[3, 1, 3, 2, 1]));
        let got: Vec<i64> = d.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![3, 1, 2]);
    }

    #[test]
    fn incompatible_schemas_rejected() {
        let a = rel(&[1]);
        let schema = Schema::of(&[("s", DataType::Text)]);
        let b = Relation::new(schema, vec![vec![Value::text("x")]]).unwrap();
        assert!(union_all(&a, &b).is_err());
    }

    #[test]
    fn empty_inputs() {
        let e = rel(&[]);
        assert_eq!(union_all(&e, &rel(&[1])).unwrap().len(), 1);
    }

    #[test]
    fn null_rows_participate() {
        let schema = Schema::of(&[("n", DataType::Int)]);
        let a = Relation::new(schema, vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        // Whole-row set ops treat NULL = NULL (SQL DISTINCT-style grouping).
        assert_eq!(distinct(&a).len(), 1);
    }
}
