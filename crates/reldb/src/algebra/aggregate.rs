//! Aggregate calls and their per-group state. A γ groups rows by its key
//! columns and folds one [`Acc`] per call over each group; with no key
//! the whole input is one group (global aggregation), which yields one
//! row even for empty input (COUNT = 0, others NULL) — matching SQL.

use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, Schema};
use crate::value::{DataType, Value};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` when the input column is `None`).
    Count,
    /// Sum of non-null numerics.
    Sum,
    /// Mean of non-null numerics.
    Avg,
    /// Minimum non-null value.
    Min,
    /// Maximum non-null value.
    Max,
    /// Count of distinct non-null values.
    CountDistinct,
}

/// One aggregate call: function, optional input column, output name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCall {
    /// Which function to run.
    pub func: AggFunc,
    /// Input column; `None` only for `Count` (COUNT(*)).
    pub column: Option<String>,
    /// Name of the output column.
    pub output: String,
}

impl AggCall {
    /// `COUNT(*) AS output`.
    pub fn count_star(output: impl Into<String>) -> Self {
        AggCall {
            func: AggFunc::Count,
            column: None,
            output: output.into(),
        }
    }

    /// `func(column) AS output`.
    pub fn on(func: AggFunc, column: impl Into<String>, output: impl Into<String>) -> Self {
        AggCall {
            func,
            column: Some(column.into()),
            output: output.into(),
        }
    }
}

/// Running state of one aggregate call within one group — the one place
/// COUNT/SUM/AVG/MIN/MAX/COUNT(DISTINCT) semantics live. `tagstore`'s
/// one-pass tagged γ drives it over tagged rows and columnar selections,
/// so every path answers alike.
#[derive(Debug, Clone)]
pub struct Acc(State);

#[derive(Debug, Clone)]
enum State {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Avg(f64, i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Distinct(std::collections::HashSet<Value>),
}

impl Acc {
    /// The empty state of `func`.
    pub fn new(func: AggFunc) -> Acc {
        Acc(match func {
            AggFunc::Count => State::Count(0),
            // Sum starts as int and upgrades to float on first float input.
            AggFunc::Sum => State::SumInt(0, false),
            AggFunc::Avg => State::Avg(0.0, 0),
            AggFunc::Min => State::Min(None),
            AggFunc::Max => State::Max(None),
            AggFunc::CountDistinct => State::Distinct(std::collections::HashSet::new()),
        })
    }

    /// Folds in one row's input: `None` for `COUNT(*)`, else the input
    /// column's value. An integer `SUM` that leaves `i64` is an
    /// [`DbError::Arithmetic`] error, not a wrapped total.
    pub fn update(&mut self, v: Option<&Value>) -> DbResult<()> {
        match &mut self.0 {
            State::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) counts non-null values.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            State::SumInt(s, any) => {
                if let Some(val) = v {
                    match val {
                        Value::Null => {}
                        Value::Int(i) => {
                            *s = s.checked_add(*i).ok_or_else(|| {
                                DbError::Arithmetic("integer overflow in SUM".into())
                            })?;
                            *any = true;
                        }
                        Value::Float(f) => {
                            let cur = *s as f64 + f;
                            self.0 = State::SumFloat(cur, true);
                        }
                        other => {
                            return Err(DbError::TypeMismatch {
                                expected: "numeric for SUM".into(),
                                found: other.type_name().into(),
                            })
                        }
                    }
                }
            }
            State::SumFloat(s, any) => {
                if let Some(val) = v {
                    match val {
                        Value::Null => {}
                        _ => {
                            *s += val.as_float()?;
                            *any = true;
                        }
                    }
                }
            }
            State::Avg(s, n) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *s += val.as_float()?;
                        *n += 1;
                    }
                }
            }
            State::Min(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val < cur) {
                        *m = Some(val.clone());
                    }
                }
            }
            State::Max(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val > cur) {
                        *m = Some(val.clone());
                    }
                }
            }
            State::Distinct(set) => {
                if let Some(val) = v {
                    if !val.is_null() && !set.contains(val) {
                        set.insert(val.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// The aggregate's value: NULL for a SUM/AVG/MIN/MAX that saw no
    /// non-null input.
    pub fn finish(self) -> Value {
        match self.0 {
            State::Count(n) => Value::Int(n),
            State::SumInt(s, any) => {
                if any {
                    Value::Int(s)
                } else {
                    Value::Null
                }
            }
            State::SumFloat(s, any) => {
                if any {
                    Value::Float(s)
                } else {
                    Value::Null
                }
            }
            State::Avg(s, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(s / n as f64)
                }
            }
            State::Min(m) => m.unwrap_or(Value::Null),
            State::Max(m) => m.unwrap_or(Value::Null),
            State::Distinct(set) => Value::Int(set.len() as i64),
        }
    }
}

/// Resolves a γ's inputs against `schema`: the group-key column
/// positions, and per call its input column (`None` for `COUNT(*)`).
/// Unknown columns, and calls other than COUNT without an input column,
/// are errors.
pub fn resolve_aggregate(
    schema: &Schema,
    group_by: &[&str],
    aggs: &[AggCall],
) -> DbResult<(Vec<usize>, Vec<Option<usize>>)> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|c| schema.resolve(c))
        .collect::<DbResult<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.column {
            Some(c) => schema.resolve(c).map(Some),
            None => {
                if a.func == AggFunc::Count {
                    Ok(None)
                } else {
                    Err(DbError::InvalidExpression(format!(
                        "{:?} requires an input column",
                        a.func
                    )))
                }
            }
        })
        .collect::<DbResult<_>>()?;
    Ok((key_idx, agg_idx))
}

/// A γ's output schema: the group columns as declared in `schema`, then
/// one column per call.
pub fn aggregate_schema(schema: &Schema, key_idx: &[usize], aggs: &[AggCall]) -> DbResult<Schema> {
    let mut cols: Vec<ColumnDef> = key_idx
        .iter()
        .map(|&i| schema.column(i).unwrap().clone())
        .collect();
    for a in aggs {
        let dtype = match a.func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Avg => DataType::Float,
            _ => DataType::Any,
        };
        cols.push(ColumnDef::new(a.output.clone(), dtype));
    }
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, Row};
    use std::collections::HashMap;

    /// A γ over plain rows the way the tagged fold drives the pieces
    /// above: resolve, group in first-seen order, one [`Acc`] per call.
    fn aggregate(input: &Relation, group_by: &[&str], aggs: &[AggCall]) -> DbResult<Relation> {
        let (key_idx, agg_idx) = resolve_aggregate(input.schema(), group_by, aggs)?;
        let mut groups: HashMap<Row, Vec<Acc>> = HashMap::new();
        let mut order: Vec<Row> = Vec::new();
        for row in input.iter() {
            let key: Row = key_idx.iter().map(|&i| row[i].clone()).collect();
            let accs = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                aggs.iter().map(|a| Acc::new(a.func)).collect()
            });
            for (acc, idx) in accs.iter_mut().zip(&agg_idx) {
                acc.update(idx.map(|i| &row[i]))?;
            }
        }
        if group_by.is_empty() && order.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), aggs.iter().map(|a| Acc::new(a.func)).collect());
        }
        let rows = order.into_iter().map(|key| {
            let accs = groups.remove(&key).expect("group recorded in order");
            key.into_iter().chain(accs.into_iter().map(Acc::finish)).collect()
        });
        let schema = aggregate_schema(input.schema(), &key_idx, aggs)?;
        Relation::new(schema, rows.collect())
    }

    fn trades() -> Relation {
        let schema = Schema::of(&[
            ("ticker", DataType::Text),
            ("qty", DataType::Int),
            ("price", DataType::Float),
        ]);
        Relation::new(
            schema,
            vec![
                vec![Value::text("FRT"), Value::Int(100), Value::Float(10.0)],
                vec![Value::text("FRT"), Value::Int(50), Value::Float(11.0)],
                vec![Value::text("NUT"), Value::Int(10), Value::Float(20.0)],
                vec![Value::text("NUT"), Value::Null, Value::Float(21.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn group_by_with_count_and_sum() {
        let out = aggregate(
            &trades(),
            &["ticker"],
            &[
                AggCall::count_star("n"),
                AggCall::on(AggFunc::Sum, "qty", "total_qty"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["ticker", "n", "total_qty"]);
        // first-seen group order preserved
        assert_eq!(out.rows()[0][0], Value::text("FRT"));
        assert_eq!(out.rows()[0][1], Value::Int(2));
        assert_eq!(out.rows()[0][2], Value::Int(150));
        assert_eq!(out.rows()[1][2], Value::Int(10)); // NULL ignored by SUM
    }

    #[test]
    fn count_column_skips_nulls() {
        let out = aggregate(
            &trades(),
            &["ticker"],
            &[AggCall::on(AggFunc::Count, "qty", "n_qty")],
        )
        .unwrap();
        assert_eq!(out.rows()[1][1], Value::Int(1)); // NUT has one non-null qty
    }

    #[test]
    fn global_aggregation() {
        let out = aggregate(
            &trades(),
            &[],
            &[
                AggCall::count_star("n"),
                AggCall::on(AggFunc::Avg, "price", "avg_price"),
                AggCall::on(AggFunc::Min, "price", "lo"),
                AggCall::on(AggFunc::Max, "price", "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(4));
        assert_eq!(out.rows()[0][1], Value::Float(15.5));
        assert_eq!(out.rows()[0][2], Value::Float(10.0));
        assert_eq!(out.rows()[0][3], Value::Float(21.0));
    }

    #[test]
    fn empty_input_global_yields_one_row() {
        let empty = Relation::empty(trades().schema().clone());
        let out = aggregate(
            &empty,
            &[],
            &[
                AggCall::count_star("n"),
                AggCall::on(AggFunc::Sum, "qty", "s"),
                AggCall::on(AggFunc::Avg, "qty", "a"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert_eq!(out.rows()[0][1], Value::Null);
        assert_eq!(out.rows()[0][2], Value::Null);
    }

    #[test]
    fn empty_input_grouped_yields_no_rows() {
        let empty = Relation::empty(trades().schema().clone());
        let out = aggregate(&empty, &["ticker"], &[AggCall::count_star("n")]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn count_distinct() {
        let out = aggregate(
            &trades(),
            &[],
            &[AggCall::on(AggFunc::CountDistinct, "ticker", "k")],
        )
        .unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn sum_upgrades_to_float() {
        let schema = Schema::of(&[("x", DataType::Float)]);
        let r = Relation::new(
            schema,
            vec![vec![Value::Int(1)], vec![Value::Float(0.5)]],
        );
        // Int conforms? Int is not Float → constructor rejects. Build with
        // Any instead to test mixed input.
        assert!(r.is_err());
        let schema = Schema::of(&[("x", DataType::Any)]);
        let r = Relation::new(
            schema,
            vec![vec![Value::Int(1)], vec![Value::Float(0.5)]],
        )
        .unwrap();
        let out = aggregate(&r, &[], &[AggCall::on(AggFunc::Sum, "x", "s")]).unwrap();
        assert_eq!(out.rows()[0][0], Value::Float(1.5));
    }

    #[test]
    fn sum_over_text_errors() {
        let schema = Schema::of(&[("x", DataType::Text)]);
        let r = Relation::new(schema, vec![vec![Value::text("a")]]).unwrap();
        assert!(aggregate(&r, &[], &[AggCall::on(AggFunc::Sum, "x", "s")]).is_err());
    }

    #[test]
    fn group_key_may_be_null() {
        let schema = Schema::of(&[("k", DataType::Text), ("v", DataType::Int)]);
        let r = Relation::new(
            schema,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
                vec![Value::text("a"), Value::Int(3)],
            ],
        )
        .unwrap();
        let out = aggregate(&r, &["k"], &[AggCall::on(AggFunc::Sum, "v", "s")]).unwrap();
        assert_eq!(out.len(), 2); // NULLs group together, SQL-style
    }

    #[test]
    fn bad_calls_rejected() {
        assert!(aggregate(&trades(), &["bogus"], &[AggCall::count_star("n")]).is_err());
        assert!(aggregate(
            &trades(),
            &[],
            &[AggCall {
                func: AggFunc::Sum,
                column: None,
                output: "s".into()
            }]
        )
        .is_err());
    }

    #[test]
    fn integer_sum_overflow_is_an_error() {
        let schema = Schema::of(&[("v", DataType::Int)]);
        let r = Relation::new(schema, vec![vec![Value::Int(i64::MAX)], vec![Value::Int(1)]])
            .unwrap();
        match aggregate(&r, &[], &[AggCall::on(AggFunc::Sum, "v", "s")]) {
            Err(DbError::Arithmetic(m)) => assert_eq!(m, "integer overflow in SUM"),
            other => panic!("expected an overflow error, got {other:?}"),
        }
        // the same inputs in the other order overflow too, and the
        // largest exact total still fits
        let r = Relation::new(
            r.schema().clone(),
            vec![vec![Value::Int(i64::MIN)], vec![Value::Int(-1)]],
        )
        .unwrap();
        assert!(aggregate(&r, &[], &[AggCall::on(AggFunc::Sum, "v", "s")]).is_err());
        let r = Relation::new(
            r.schema().clone(),
            vec![vec![Value::Int(i64::MAX - 1)], vec![Value::Int(1)]],
        )
        .unwrap();
        let out = aggregate(&r, &[], &[AggCall::on(AggFunc::Sum, "v", "s")]).unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(i64::MAX));
    }
}
