//! Hash equi-join, inner or left outer.

use crate::error::DbResult;
use crate::par;
use crate::relation::{Relation, Row};
use crate::value::Value;
use std::collections::HashMap;

/// Inner vs. outer join variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching pairs.
    Inner,
    /// Keep all left rows; unmatched are padded with NULLs.
    LeftOuter,
}

/// Equi-join via a hash table built on the right input.
///
/// Both phases run in parallel chunks on large inputs (see
/// [`crate::par`]): the build merges per-chunk partial tables in chunk
/// order — reproducing the serial per-key insertion order exactly — and
/// the probe concatenates per-chunk outputs in chunk order, so the
/// result is identical to the serial join for every thread count.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_key: &str,
    right_key: &str,
    join_type: JoinType,
) -> DbResult<Relation> {
    let li = left.schema().resolve(left_key)?;
    let ri = right.schema().resolve(right_key)?;
    let schema = left.schema().join(right.schema(), "l", "r")?;

    fn build_chunk(chunk: &[Row], ri: usize) -> HashMap<&Value, Vec<&Row>> {
        let mut t: HashMap<&Value, Vec<&Row>> = HashMap::with_capacity(chunk.len());
        for rr in chunk {
            if !rr[ri].is_null() {
                t.entry(&rr[ri]).or_default().push(rr);
            }
        }
        t
    }
    let table: HashMap<&Value, Vec<&Row>> = match par::plan(right.len()) {
        Some(threads) => {
            let mut merged: HashMap<&Value, Vec<&Row>> = HashMap::with_capacity(right.len());
            let partials = par::run_ranges(right.len(), threads, |_, r| {
                build_chunk(&right.rows()[r], ri)
            });
            for partial in partials {
                for (k, mut v) in partial {
                    merged.entry(k).or_default().append(&mut v);
                }
            }
            merged
        }
        None => build_chunk(right.rows(), ri),
    };

    let probe_chunk = |chunk: &[Row]| {
        let mut out = Vec::new();
        for lr in chunk {
            let matches = if lr[li].is_null() {
                None
            } else {
                table.get(&lr[li])
            };
            match matches {
                Some(rs) => {
                    for rr in rs {
                        let mut combined = lr.clone();
                        combined.extend(rr.iter().cloned());
                        out.push(combined);
                    }
                }
                None => {
                    if join_type == JoinType::LeftOuter {
                        let mut combined = lr.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, right.schema().arity()));
                        out.push(combined);
                    }
                }
            }
        }
        out
    };
    let rows: Vec<Row> = match par::plan(left.len()) {
        Some(threads) => par::run_chunked(left.rows(), threads, |_, c| probe_chunk(c))
            .into_iter()
            .flatten()
            .collect(),
        None => probe_chunk(left.rows()),
    };
    Ok(Relation::from_parts_unchecked(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn stocks() -> Relation {
        let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
        Relation::new(
            schema,
            vec![
                vec![Value::text("FRT"), Value::Float(10.0)],
                vec![Value::text("NUT"), Value::Float(20.0)],
                vec![Value::text("BLT"), Value::Float(30.0)],
                vec![Value::Null, Value::Float(99.0)],
            ],
        )
        .unwrap()
    }

    fn trades() -> Relation {
        let schema = Schema::of(&[
            ("ticker", DataType::Text),
            ("qty", DataType::Int),
        ]);
        Relation::new(
            schema,
            vec![
                vec![Value::text("FRT"), Value::Int(100)],
                vec![Value::text("FRT"), Value::Int(50)],
                vec![Value::text("NUT"), Value::Int(10)],
                vec![Value::text("ZZZ"), Value::Int(1)],
                vec![Value::Null, Value::Int(7)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn hash_join_basic() {
        let j = hash_join(&trades(), &stocks(), "ticker", "ticker", JoinType::Inner).unwrap();
        assert_eq!(j.len(), 3); // FRT×2 + NUT×1; ZZZ and NULLs drop
        assert_eq!(j.schema().names(), vec!["l.ticker", "qty", "r.ticker", "price"]);
    }

    #[test]
    fn left_outer_pads_nulls() {
        let j = hash_join(&trades(), &stocks(), "ticker", "ticker", JoinType::LeftOuter).unwrap();
        assert_eq!(j.len(), 5); // 3 matches + ZZZ + NULL-key row padded
        let unmatched: Vec<_> = j
            .iter()
            .filter(|r| r[2].is_null() && r[3].is_null())
            .collect();
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn null_keys_never_match() {
        let j = hash_join(&stocks(), &trades(), "ticker", "ticker", JoinType::Inner).unwrap();
        assert!(j.iter().all(|r| !r[0].is_null()));
    }

    #[test]
    fn unknown_key_errors() {
        assert!(hash_join(&trades(), &stocks(), "bogus", "ticker", JoinType::Inner).is_err());
    }
}
