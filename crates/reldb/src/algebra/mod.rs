//! Relational algebra over materialized [`Relation`]s.
//!
//! Operators are plain functions; each consumes references and produces a
//! new relation. The tagged ([`tagstore`](https://docs.rs)) and polygen
//! layers mirror these operators with tag/source propagation, so semantics
//! here are the baseline the paper's quality models extend.

mod aggregate;
mod join;
mod set;

pub use aggregate::{aggregate, aggregate_schema, resolve_aggregate, Acc, AggCall, AggFunc};
pub use join::{hash_join, JoinType};
pub use set::{distinct, union_all};

use crate::error::DbResult;
use crate::expr::Expr;
use crate::par;
use crate::relation::{Relation, Row};

/// σ — keeps rows whose predicate evaluates to `true`.
///
/// The predicate is compiled once; rows are filtered in parallel chunks
/// when the input is large (see [`crate::par`]). Output order is the
/// input order regardless of thread count.
pub fn select(input: &Relation, predicate: &Expr) -> DbResult<Relation> {
    let schema = input.schema().clone();
    let compiled = predicate.compile(&schema)?;
    let filter_chunk = |chunk: &[Row]| -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        for row in chunk {
            if compiled.eval_predicate(row.as_slice())? {
                out.push(row.clone());
            }
        }
        Ok(out)
    };
    let rows = match par::plan(input.len()) {
        Some(threads) => par::merge_results(par::run_chunked(input.rows(), threads, |_, c| {
            filter_chunk(c)
        }))?,
        None => filter_chunk(input.rows())?,
    };
    Ok(Relation::from_parts_unchecked(schema, rows))
}

/// π — projects onto the named columns (bag semantics, duplicates kept).
///
/// Runs in parallel chunks on large inputs; output order matches input.
pub fn project(input: &Relation, columns: &[&str]) -> DbResult<Relation> {
    let indices: Vec<usize> = columns
        .iter()
        .map(|c| input.schema().resolve(c))
        .collect::<DbResult<_>>()?;
    let schema = input.schema().project(&indices)?;
    let project_chunk = |chunk: &[Row]| -> Vec<Row> {
        chunk
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect()
    };
    let rows = match par::plan(input.len()) {
        Some(threads) => par::run_chunked(input.rows(), threads, |_, c| project_chunk(c))
            .into_iter()
            .flatten()
            .collect(),
        None => project_chunk(input.rows()),
    };
    Ok(Relation::from_parts_unchecked(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    pub(crate) fn customers() -> Relation {
        let schema = Schema::of(&[
            ("co_name", DataType::Text),
            ("address", DataType::Text),
            ("employees", DataType::Int),
        ]);
        Relation::new(
            schema,
            vec![
                vec![Value::text("Fruit Co"), Value::text("12 Jay St"), Value::Int(4004)],
                vec![Value::text("Nut Co"), Value::text("62 Lois Av"), Value::Int(700)],
                vec![Value::text("Bolt Co"), Value::Null, Value::Int(120)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_filters() {
        let r = select(&customers(), &Expr::col("employees").gt(Expr::lit(500i64))).unwrap();
        assert_eq!(r.len(), 2);
        // NULL address row: predicate on address drops it (3VL)
        let r = select(&customers(), &Expr::col("address").eq(Expr::lit("12 Jay St"))).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_empty_result() {
        let r = select(&customers(), &Expr::lit(false)).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.schema().arity(), 3);
    }

    #[test]
    fn project_reorders() {
        let r = project(&customers(), &["employees", "co_name"]).unwrap();
        assert_eq!(r.schema().names(), vec!["employees", "co_name"]);
        assert_eq!(r.rows()[0][0], Value::Int(4004));
        assert!(project(&customers(), &["bogus"]).is_err());
    }
}
