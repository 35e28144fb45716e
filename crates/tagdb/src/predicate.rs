//! The one bound predicate: a `WHERE`, `WITH QUALITY` or `TAG … SET`
//! expression bound once against a relation's schema and indicator
//! dictionary, then handed to every kernel that evaluates it.
//!
//! [`Predicate::bind`] resolves each column to its ordinal and each
//! `col@indicator[@meta…]` pseudo-column to (ordinal, interned indicator
//! path, declared type). It checks operand types against those
//! declarations ([`CompiledExpr::check_types`]), so over an Int column
//! `k = 'a'` fails like `k < 'a'`: once, with the evaluator's text, even
//! over no rows. It then classifies each top-level AND conjunct once:
//!
//! * **key equality**: the first `col = literal` on an application
//!   column, which a key hash index answers ([`Predicate::key`]);
//! * **bitmap atom**: `col@indicator OP literal` or `col@indicator
//!   BETWEEN lit AND lit`, which the quality bitmap index answers
//!   ([`Predicate::atoms`]);
//! * **typed kernel**: `col OP literal` or `col BETWEEN lit AND lit` over
//!   a column or tag of declared type, which the batch kernels
//!   (`tagstore::vector`, `tagstore::columnar`) test with no type check
//!   per row, since binding made the literal comparable;
//! * **generic**: anything else, including any operand of undeclared
//!   (`Any`) type, evaluated by the scalar evaluator with its per-row
//!   checks.
//!
//! A key or atom conjunct also carries its kernel form: a σ without the
//! index still runs it. The planner binds each σ it builds, so executing
//! a cached plan binds nothing. Functions that take a predicate accept a
//! [`Predicate`] or an [`Expr`] ([`ToPredicate`]); an `Expr` is bound on
//! the spot.

use crate::bitmap::{AtomOp, QualityAtom};
use crate::cell::QualityCell;
use crate::indicator::IndicatorDictionary;
use crate::relation::{TaggedRelation, TAG_SEP};
use crate::symbol::Symbol;
use relstore::expr::{BinOp, CompiledExpr, ValueSource};
use relstore::{DataType, DbError, DbResult, Expr, Schema, Value};
use std::borrow::Cow;
use std::fmt;
use std::ops::Bound;

/// Missing tags evaluate to NULL (3VL then drops the row), borrowed from
/// this sentinel so reads never allocate.
static NULL: Value = Value::Null;

/// A predicate bound to one input: see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// As written, for EXPLAIN and for storage calls that bind their own.
    source: Expr,
    /// The whole bound tree: what [`Predicate::matches`] evaluates.
    expr: CompiledExpr,
    /// Pseudo-column slots: position `base + i` reads the tag down path
    /// `tags[i].1` of cell `tags[i].0`.
    tags: Vec<(usize, Vec<Symbol>)>,
    base: usize,
    conjuncts: Vec<Conjunct>,
    key: Option<(usize, String, Value)>,
    atoms: Vec<QualityAtom>,
}

/// One top-level AND conjunct: its bound subtree and its batch form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Conjunct {
    pub(crate) expr: CompiledExpr,
    pub(crate) kernel: Kernel,
}

/// How a kernel reads its column: an application cell value or a tag
/// value down an interned indicator path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Access {
    App(usize),
    Tag(usize, Vec<Symbol>),
}

impl Access {
    #[inline]
    pub(crate) fn value<'a>(&self, row: &'a [QualityCell]) -> &'a Value {
        match self {
            Access::App(i) => &row[*i].value,
            Access::Tag(ci, path) => row[*ci].tag_path_syms(path).map_or(&NULL, |t| &t.value),
        }
    }
}

/// The batch form of a conjunct.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// `col OP literal` over a declared type.
    Cmp {
        access: Access,
        op: BinOp,
        lit: Value,
    },
    /// `col BETWEEN lo AND hi` over a declared type (the evaluator
    /// compares it on the total order, never type-checking).
    Between {
        access: Access,
        lo: Value,
        hi: Value,
    },
    /// The scalar evaluator over the conjunct's subtree.
    Generic,
}

impl Kernel {
    /// What the kernel reads, `None` for a generic conjunct.
    pub(crate) fn access(&self) -> Option<&Access> {
        match self {
            Kernel::Cmp { access, .. } | Kernel::Between { access, .. } => Some(access),
            Kernel::Generic => None,
        }
    }

    /// The verdict on one value already read through [`Kernel::access`]:
    /// NULL never holds, and no type check runs, because binding made
    /// the literal comparable with the declared type.
    #[inline]
    pub(crate) fn test_value(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            Kernel::Cmp { op, lit, .. } => match op {
                BinOp::Eq => v == lit,
                BinOp::Ne => v != lit,
                BinOp::Lt => v < lit,
                BinOp::Le => v <= lit,
                BinOp::Gt => v > lit,
                BinOp::Ge => v >= lit,
                _ => unreachable!("non-comparison op in a Cmp kernel"),
            },
            Kernel::Between { lo, hi, .. } => v >= lo && v <= hi,
            Kernel::Generic => unreachable!("a generic conjunct reads no single value"),
        }
    }
}

/// A conjunct a kernel or an index can answer: `col OP literal` (either
/// way round; `op` reads column first) or `col BETWEEN lit AND lit`, with
/// no NULL literal: a NULL comparison holds nowhere, which the evaluator
/// decides without a type check.
#[derive(Clone, Copy)]
enum Shape<'e> {
    Cmp(usize, BinOp, &'e Value),
    Between(usize, &'e Value, &'e Value),
}

impl<'e> Shape<'e> {
    fn of(c: &'e CompiledExpr) -> Option<Shape<'e>> {
        use CompiledExpr::{Col, Lit};
        match c {
            CompiledExpr::Bin(l, op, r)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                match (&**l, &**r) {
                    (Col(i), Lit(v)) if !v.is_null() => Some(Shape::Cmp(*i, *op, v)),
                    (Lit(v), Col(i)) if !v.is_null() => Some(Shape::Cmp(*i, flip(*op), v)),
                    _ => None,
                }
            }
            CompiledExpr::Between(e, lo, hi) => match (&**e, &**lo, &**hi) {
                (Col(i), Lit(a), Lit(b)) if !a.is_null() && !b.is_null() => {
                    Some(Shape::Between(*i, a, b))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn col(self) -> usize {
        match self {
            Shape::Cmp(i, ..) | Shape::Between(i, ..) => i,
        }
    }

    /// The bitmap form, given what the column reads as.
    fn atom_op(self) -> AtomOp {
        let v = |v: &Value| v.clone();
        match self {
            Shape::Cmp(_, BinOp::Eq, l) => AtomOp::Eq(v(l)),
            Shape::Cmp(_, BinOp::Ne, l) => AtomOp::Ne(v(l)),
            Shape::Cmp(_, op, l) => {
                let (lo, hi) = match op {
                    BinOp::Lt => (Bound::Unbounded, Bound::Excluded(v(l))),
                    BinOp::Le => (Bound::Unbounded, Bound::Included(v(l))),
                    BinOp::Gt => (Bound::Excluded(v(l)), Bound::Unbounded),
                    _ => (Bound::Included(v(l)), Bound::Unbounded),
                };
                AtomOp::Range {
                    lo,
                    hi,
                    strict: true,
                }
            }
            // BETWEEN compares on the raw total order: the evaluator
            // never type-checks it, so neither does the index.
            Shape::Between(_, a, b) => AtomOp::Range {
                lo: Bound::Included(v(a)),
                hi: Bound::Included(v(b)),
                strict: false,
            },
        }
    }
}

/// `lit OP col` as `col OP' lit`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn split_and<'e>(e: &'e CompiledExpr, out: &mut Vec<&'e CompiledExpr>) {
    if let CompiledExpr::Bin(l, BinOp::And, r) = e {
        split_and(l, out);
        split_and(r, out);
    } else {
        out.push(e);
    }
}

/// [`relstore::expr::ValueSource`] over one tagged row: positions
/// `0..base` are its application values, `base..` its tag values per
/// the predicate's slots.
struct Cells<'a> {
    row: &'a [QualityCell],
    pred: &'a Predicate,
}

impl ValueSource for Cells<'_> {
    fn value_at(&self, idx: usize) -> &Value {
        match idx.checked_sub(self.pred.base) {
            None => &self.row[idx].value,
            Some(slot) => {
                let (ci, path) = &self.pred.tags[slot];
                self.row[*ci]
                    .tag_path_syms(path)
                    .map_or(&NULL, |t| &t.value)
            }
        }
    }
}

impl Predicate {
    /// Binds `expr` against one relation's schema and dictionary.
    /// Unknown columns, undeclared indicators and ill-typed operands are
    /// errors here, once, not per row.
    pub fn bind(
        schema: &Schema,
        dictionary: &IndicatorDictionary,
        expr: &Expr,
    ) -> DbResult<Predicate> {
        Self::bind_with(schema, &|_| dictionary, expr)
    }

    /// Binds `expr` against a join's output `schema`: a pseudo-column's
    /// indicators are declared by `left` when its column is one of the
    /// first `left_arity`, else by `right`.
    pub fn bind_join(
        schema: &Schema,
        left_arity: usize,
        left: &IndicatorDictionary,
        right: &IndicatorDictionary,
        expr: &Expr,
    ) -> DbResult<Predicate> {
        Self::bind_with(
            schema,
            &|col| if col < left_arity { left } else { right },
            expr,
        )
    }

    fn bind_with<'d>(
        schema: &Schema,
        dictionary_of: &dyn Fn(usize) -> &'d IndicatorDictionary,
        expr: &Expr,
    ) -> DbResult<Predicate> {
        dq_obs::counter!("tagstore.predicate.binds").incr();
        let base = schema.arity();
        let mut types: Vec<DataType> = schema.columns().iter().map(|c| c.dtype).collect();
        let mut tags: Vec<(usize, Vec<Symbol>)> = Vec::new();
        let compiled = expr.compile_with(&mut |name| {
            if let Some(i) = schema.index_of(name) {
                return Ok(i);
            }
            let (col, path) = TaggedRelation::split_pseudo(name)
                .ok_or_else(|| DbError::UnknownColumn(name.to_owned()))?;
            let ci = schema.resolve(col)?;
            let dictionary = dictionary_of(ci);
            let mut leaf = DataType::Any;
            let path = path
                .split(TAG_SEP)
                .map(|ind| {
                    let def = dictionary.get(ind).ok_or_else(|| {
                        DbError::InvalidExpression(format!("undeclared indicator `{ind}`"))
                    })?;
                    leaf = def.dtype;
                    Ok(Symbol::intern(ind))
                })
                .collect::<DbResult<Vec<Symbol>>>()?;
            let slot = match tags.iter().position(|(c, p)| *c == ci && *p == path) {
                Some(slot) => slot,
                None => {
                    tags.push((ci, path));
                    types.push(leaf);
                    tags.len() - 1
                }
            };
            Ok(base + slot)
        })?;
        compiled.check_types(&|i| types.get(i).copied())?;

        let mut parts = Vec::new();
        split_and(&compiled, &mut parts);
        let access = |i: usize| match i.checked_sub(base) {
            None => Access::App(i),
            Some(slot) => Access::Tag(tags[slot].0, tags[slot].1.clone()),
        };
        let (mut key, mut atoms, mut conjuncts) = (None, Vec::new(), Vec::new());
        for part in parts {
            let shape = Shape::of(part);
            let kernel = match shape {
                Some(s) if types[s.col()] == DataType::Any => Kernel::Generic,
                Some(Shape::Cmp(i, op, lit)) => Kernel::Cmp {
                    access: access(i),
                    op,
                    lit: lit.clone(),
                },
                Some(Shape::Between(i, lo, hi)) => Kernel::Between {
                    access: access(i),
                    lo: lo.clone(),
                    hi: hi.clone(),
                },
                None => Kernel::Generic,
            };
            match shape {
                Some(Shape::Cmp(i, BinOp::Eq, lit)) if i < base && key.is_none() => {
                    key = Some((i, schema.columns()[i].name.clone(), lit.clone()));
                }
                Some(s) if s.col() >= base => {
                    // meta-tag paths are not indexed
                    let (ci, path) = &tags[s.col() - base];
                    if let [indicator] = &path[..] {
                        atoms.push(QualityAtom {
                            col: *ci,
                            indicator: indicator.clone(),
                            pseudo: format!("{}@{indicator}", schema.columns()[*ci].name),
                            op: s.atom_op(),
                        });
                    }
                }
                _ => {}
            }
            conjuncts.push(Conjunct {
                expr: part.clone(),
                kernel,
            });
        }
        Ok(Predicate {
            source: expr.clone(),
            expr: compiled,
            tags,
            base,
            conjuncts,
            key,
            atoms,
        })
    }

    /// The predicate as written.
    pub fn expr(&self) -> &Expr {
        &self.source
    }

    /// Evaluates the bound tree to an owned value against one row.
    pub fn eval(&self, row: &[QualityCell]) -> DbResult<Value> {
        self.expr.eval_value(&Cells { row, pred: self })
    }

    /// Predicate semantics over the whole bound tree: `true` keeps the
    /// row, `false`/NULL drops it. The row algebra's σ, the keyed
    /// lookup's re-check and `TAG`'s mask all come here.
    pub fn matches(&self, row: &[QualityCell]) -> DbResult<bool> {
        self.expr.eval_predicate(&Cells { row, pred: self })
    }

    /// The key-equality conjunct, as (column ordinal, column name,
    /// literal): candidate rows are those whose key equals the literal.
    pub fn key(&self) -> Option<(usize, &str, &Value)> {
        self.key.as_ref().map(|(i, name, v)| (*i, name.as_str(), v))
    }

    /// The bitmap atoms, in conjunct order.
    pub fn atoms(&self) -> &[QualityAtom] {
        &self.atoms
    }

    /// True when some conjunct is not a bitmap atom, so rows the index
    /// selects must be re-checked.
    pub fn has_residual(&self) -> bool {
        self.atoms.len() < self.conjuncts.len()
    }

    /// The top-level AND conjuncts, in order.
    pub(crate) fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// One conjunct's verdict on a row, by the scalar evaluator.
    pub(crate) fn holds(&self, conjunct: &Conjunct, row: &[QualityCell]) -> DbResult<bool> {
        conjunct.expr.eval_predicate(&Cells { row, pred: self })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.source.fmt(f)
    }
}

/// What a σ kernel takes: a [`Predicate`] bound by the caller, or an
/// [`Expr`] it binds against the relation it is given.
pub trait ToPredicate {
    /// The bound predicate for a relation with this schema and dictionary.
    fn to_predicate(
        &self,
        schema: &Schema,
        dictionary: &IndicatorDictionary,
    ) -> DbResult<Cow<'_, Predicate>>;
}

impl ToPredicate for Predicate {
    fn to_predicate(&self, _: &Schema, _: &IndicatorDictionary) -> DbResult<Cow<'_, Predicate>> {
        Ok(Cow::Borrowed(self))
    }
}

impl ToPredicate for Expr {
    fn to_predicate(
        &self,
        schema: &Schema,
        dictionary: &IndicatorDictionary,
    ) -> DbResult<Cow<'_, Predicate>> {
        Predicate::bind(schema, dictionary, self).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("x", DataType::Any),
        ])
    }

    fn bind(e: &Expr) -> DbResult<Predicate> {
        Predicate::bind(&schema(), &IndicatorDictionary::with_paper_defaults(), e)
    }

    fn kinds(p: &Predicate) -> Vec<&'static str> {
        p.conjuncts()
            .iter()
            .map(|c| match c.kernel {
                Kernel::Cmp { .. } => "cmp",
                Kernel::Between { .. } => "between",
                Kernel::Generic => "generic",
            })
            .collect()
    }

    #[test]
    fn classifies_each_conjunct_once() {
        let p = bind(
            &Expr::col("v@source")
                .eq(Expr::lit("a"))
                .and(Expr::lit(3i64).lt(Expr::col("k")))
                .and(Expr::col("k").eq(Expr::lit(7i64)))
                .and(Expr::col("x").eq(Expr::lit(1i64)))
                .and(Expr::col("v@source@inspection").eq(Expr::lit("y")))
                .and(Expr::col("v").add(Expr::lit(1i64)).gt(Expr::lit(2i64))),
        )
        .unwrap();
        assert_eq!(
            kinds(&p),
            ["cmp", "cmp", "cmp", "generic", "cmp", "generic"]
        );
        // the flipped literal reads column first
        assert!(matches!(
            &p.conjuncts()[1].kernel,
            Kernel::Cmp {
                access: Access::App(0),
                op: BinOp::Gt,
                ..
            }
        ));
        assert_eq!(p.key(), Some((0, "k", &Value::Int(7))));
        // one atom: the meta-tag path is residual
        assert_eq!(p.atoms().len(), 1);
        assert_eq!(p.atoms()[0].to_string(), "v@source=a");
        assert!(p.has_residual());
        // BETWEEN is an atom and a kernel; a NULL literal is neither
        let p = bind(&Expr::Between(
            Box::new(Expr::col("v@age")),
            Box::new(Expr::lit(1i64)),
            Box::new(Expr::lit(5i64)),
        ))
        .unwrap();
        assert_eq!(
            (kinds(&p), p.atoms().len(), p.has_residual()),
            (vec!["between"], 1, false)
        );
        let p = bind(&Expr::col("k").eq(Expr::Lit(Value::Null))).unwrap();
        assert_eq!(
            (kinds(&p), p.key(), p.atoms().len()),
            (vec!["generic"], None, 0)
        );
    }

    #[test]
    fn binding_rejects_what_no_row_could_answer() {
        let text = |e: Expr| bind(&e).unwrap_err().to_string();
        let ordered = text(Expr::col("k").lt(Expr::lit("a")));
        assert!(ordered.contains("comparable values"), "{ordered}");
        assert_eq!(text(Expr::col("k").eq(Expr::lit("a"))), ordered);
        assert_eq!(text(Expr::col("k").ne(Expr::lit("a"))), ordered);
        assert_eq!(text(Expr::col("v@age").eq(Expr::lit("a"))), ordered);
        assert_eq!(
            text(Expr::col("v@sorce").eq(Expr::lit("a"))),
            "invalid expression: undeclared indicator `sorce`"
        );
        assert!(text(Expr::col("ghost@age").eq(Expr::lit(1i64))).contains("ghost"));
        // undeclared types keep their per-row checks
        assert!(bind(&Expr::col("x").lt(Expr::lit("a"))).is_ok());
    }

    #[test]
    fn join_binding_reads_each_sides_dictionary() {
        let left = IndicatorDictionary::with_paper_defaults();
        let right = IndicatorDictionary::new();
        let joined = schema()
            .join(&Schema::of(&[("w", DataType::Int)]), "l", "r")
            .unwrap();
        let bind = |e: Expr| Predicate::bind_join(&joined, 3, &left, &right, &e);
        assert!(bind(Expr::col("v@age").le(Expr::lit(3i64))).is_ok());
        assert!(bind(Expr::col("w@age").le(Expr::lit(3i64))).is_err());
    }
}
