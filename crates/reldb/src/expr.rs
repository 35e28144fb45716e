//! Scalar expression AST and evaluator.
//!
//! Expressions are evaluated against a `(Schema, Row)` pair. Three-valued
//! logic is implemented for comparisons and boolean connectives: any
//! comparison with `NULL` yields `NULL`, `NULL AND false = false`,
//! `NULL OR true = true`, and a filter keeps a row only when its predicate
//! evaluates to `true` (not `NULL`).

use crate::error::{DbError, DbResult};
use crate::relation::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+` (Int, Float, Date+Int days)
    Add,
    /// `-` (Int, Float, Date-Int, Date-Date → days)
    Sub,
    /// `*`
    Mul,
    /// `/` (errors on division by zero)
    Div,
    /// `%` (integers only)
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical AND (3-valued).
    And,
    /// Logical OR (3-valued).
    Or,
    /// String concatenation.
    Concat,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical NOT (3-valued: NOT NULL = NULL).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Func {
    /// Absolute value of a number.
    Abs,
    /// Lower-case a string.
    Lower,
    /// Upper-case a string.
    Upper,
    /// Length of a string in chars.
    Length,
    /// First non-null argument.
    Coalesce,
    /// `substr(s, start, len)` — 1-based start.
    Substr,
    /// Minimum of the arguments (ignores NULLs; NULL if all NULL).
    Least,
    /// Maximum of the arguments (ignores NULLs; NULL if all NULL).
    Greatest,
}

impl Func {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Func> {
        match name.to_ascii_lowercase().as_str() {
            "abs" => Some(Func::Abs),
            "lower" => Some(Func::Lower),
            "upper" => Some(Func::Upper),
            "length" => Some(Func::Length),
            "coalesce" => Some(Func::Coalesce),
            "substr" => Some(Func::Substr),
            "least" => Some(Func::Least),
            "greatest" => Some(Func::Greatest),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    /// SQL-ish rendering for EXPLAIN output and diagnostics. Binary and
    /// compound forms parenthesize so precedence is unambiguous without
    /// re-implementing the parser's precedence table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Col(c) => f.write_str(c),
            Expr::Bin(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::Un(UnOp::Not, e) => write!(f, "(NOT {e})"),
            Expr::Un(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Expr::Between(x, lo, hi) => write!(f, "({x} BETWEEN {lo} AND {hi})"),
            Expr::InList(x, items) => {
                write!(f, "({x} IN (")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "))")
            }
            Expr::Like(x, pat) => write!(f, "({x} LIKE '{pat}')"),
            Expr::Call(func, args) => {
                write!(f, "{}(", format!("{func:?}").to_ascii_lowercase())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Case(whens, else_) => {
                write!(f, "(CASE")?;
                for (c, v) in whens {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END)")
            }
        }
    }
}

/// Scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// Reference to a column by name, resolved at evaluation time.
    Col(String),
    /// Binary operation.
    Bin(Box<Expr>, BinOp, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `expr IS NULL` — never returns NULL itself.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `expr BETWEEN low AND high` (inclusive).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Function call.
    Call(Func, Vec<Expr>),
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case(Vec<(Expr, Expr)>, Option<Box<Expr>>),
}

impl Expr {
    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Column-reference shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Eq, Box::new(other))
    }
    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Ne, Box::new(other))
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Lt, Box::new(other))
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Le, Box::new(other))
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Gt, Box::new(other))
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Ge, Box::new(other))
    }
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::And, Box::new(other))
    }
    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Or, Box::new(other))
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not operator overloading
    pub fn not(self) -> Expr {
        Expr::Un(UnOp::Not, Box::new(self))
    }
    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Add, Box::new(other))
    }
    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Bin(Box::new(self), BinOp::Sub, Box::new(other))
    }

    /// Set of column names referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Col(c) => out.push(c),
            Expr::Bin(l, _, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Un(_, e) | Expr::IsNull(e) | Expr::IsNotNull(e) | Expr::Like(e, _) => {
                e.collect_columns(out)
            }
            Expr::Between(e, lo, hi) => {
                e.collect_columns(out);
                lo.collect_columns(out);
                hi.collect_columns(out);
            }
            Expr::InList(e, list) => {
                e.collect_columns(out);
                for i in list {
                    i.collect_columns(out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            Expr::Case(arms, els) => {
                for (c, v) in arms {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = els {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Compiles against a schema, resolving every column reference to its
    /// position once. Operators call this once per relation and evaluate
    /// the result per row.
    pub fn compile(&self, schema: &Schema) -> DbResult<CompiledExpr> {
        self.compile_with(&mut |name| schema.resolve(name))
    }

    /// Like [`Expr::compile`] with a caller-supplied column resolver —
    /// the tagged layer uses this to map `col@indicator` pseudo-columns
    /// onto extraction-plan slots beyond the base schema.
    pub fn compile_with(
        &self,
        resolve: &mut dyn FnMut(&str) -> DbResult<usize>,
    ) -> DbResult<CompiledExpr> {
        Ok(match self {
            Expr::Lit(v) => CompiledExpr::Lit(v.clone()),
            Expr::Col(name) => CompiledExpr::Col(resolve(name)?),
            Expr::Bin(l, op, r) => CompiledExpr::Bin(
                Box::new(l.compile_with(resolve)?),
                *op,
                Box::new(r.compile_with(resolve)?),
            ),
            Expr::Un(op, e) => CompiledExpr::Un(*op, Box::new(e.compile_with(resolve)?)),
            Expr::IsNull(e) => CompiledExpr::IsNull(Box::new(e.compile_with(resolve)?)),
            Expr::IsNotNull(e) => CompiledExpr::IsNotNull(Box::new(e.compile_with(resolve)?)),
            Expr::Between(e, lo, hi) => CompiledExpr::Between(
                Box::new(e.compile_with(resolve)?),
                Box::new(lo.compile_with(resolve)?),
                Box::new(hi.compile_with(resolve)?),
            ),
            Expr::InList(e, list) => CompiledExpr::InList(
                Box::new(e.compile_with(resolve)?),
                list.iter()
                    .map(|i| i.compile_with(resolve))
                    .collect::<DbResult<_>>()?,
            ),
            Expr::Like(e, pattern) => {
                CompiledExpr::Like(Box::new(e.compile_with(resolve)?), pattern.clone())
            }
            Expr::Call(f, args) => CompiledExpr::Call(
                *f,
                args.iter()
                    .map(|a| a.compile_with(resolve))
                    .collect::<DbResult<_>>()?,
            ),
            Expr::Case(arms, els) => CompiledExpr::Case(
                arms.iter()
                    .map(|(c, v)| Ok((c.compile_with(resolve)?, v.compile_with(resolve)?)))
                    .collect::<DbResult<_>>()?,
                match els {
                    Some(e) => Some(Box::new(e.compile_with(resolve)?)),
                    None => None,
                },
            ),
        })
    }

    /// Evaluates against a row under a schema. One-shot convenience:
    /// compiles and evaluates. Loops should [`Expr::compile`] once and
    /// evaluate the [`CompiledExpr`] per row instead.
    pub fn eval(&self, schema: &Schema, row: &Row) -> DbResult<Value> {
        Ok(self.compile(schema)?.eval(row)?.into_owned())
    }

    /// Evaluates as a filter predicate: `true` keeps the row, `false`
    /// or `NULL` drops it, non-boolean results are errors.
    pub fn eval_predicate(&self, schema: &Schema, row: &Row) -> DbResult<bool> {
        self.compile(schema)?.eval_predicate(row)
    }
}

/// Positional access to the values an expression reads. `Row` evaluates
/// directly; the tagged layer implements this over `&[QualityCell]` so
/// quality predicates run without materializing an owned row per tuple.
pub trait ValueSource {
    /// The value at position `idx`. Positions are whatever the resolver
    /// passed to [`Expr::compile_with`] handed out.
    fn value_at(&self, idx: usize) -> &Value;
}

impl ValueSource for [Value] {
    #[inline]
    fn value_at(&self, idx: usize) -> &Value {
        &self[idx]
    }
}

impl ValueSource for Vec<Value> {
    #[inline]
    fn value_at(&self, idx: usize) -> &Value {
        &self[idx]
    }
}

/// An [`Expr`] with every column reference resolved to a position.
///
/// Evaluation borrows literals and source values (`Cow::Borrowed`) and
/// only allocates when an operator actually computes something, so a
/// predicate like `employees > 25000` evaluates a 100k-row scan without
/// a single per-row clone of the row's cells.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// A literal value.
    Lit(Value),
    /// Column reference, pre-resolved to a source position.
    Col(usize),
    /// Binary operation.
    Bin(Box<CompiledExpr>, BinOp, Box<CompiledExpr>),
    /// Unary operation.
    Un(UnOp, Box<CompiledExpr>),
    /// `expr IS NULL`.
    IsNull(Box<CompiledExpr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<CompiledExpr>),
    /// `expr BETWEEN low AND high` (inclusive).
    Between(Box<CompiledExpr>, Box<CompiledExpr>, Box<CompiledExpr>),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<CompiledExpr>, Vec<CompiledExpr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<CompiledExpr>, String),
    /// Function call.
    Call(Func, Vec<CompiledExpr>),
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case(Vec<(CompiledExpr, CompiledExpr)>, Option<Box<CompiledExpr>>),
}

impl CompiledExpr {
    /// Evaluates against a value source, borrowing wherever possible.
    pub fn eval<'a, S: ValueSource + ?Sized>(&'a self, src: &'a S) -> DbResult<Cow<'a, Value>> {
        match self {
            CompiledExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Col(idx) => Ok(Cow::Borrowed(src.value_at(*idx))),
            CompiledExpr::Bin(l, op, r) => {
                let lv = l.eval(src)?;
                // Short-circuit 3VL for AND/OR before evaluating rhs is not
                // done: rhs may still decide the result when lhs is NULL.
                let rv = r.eval(src)?;
                eval_binop(&lv, *op, &rv).map(Cow::Owned)
            }
            CompiledExpr::Un(op, e) => {
                let v = e.eval(src)?;
                let out = match op {
                    UnOp::Not => match v.as_ref() {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(DbError::TypeMismatch {
                                expected: "Bool".into(),
                                found: other.type_name().into(),
                            })
                        }
                    },
                    UnOp::Neg => match v.as_ref() {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(|| overflow("-"))?),
                        Value::Float(f) => Value::Float(-f),
                        other => {
                            return Err(DbError::TypeMismatch {
                                expected: "numeric".into(),
                                found: other.type_name().into(),
                            })
                        }
                    },
                };
                Ok(Cow::Owned(out))
            }
            CompiledExpr::IsNull(e) => Ok(Cow::Owned(Value::Bool(e.eval(src)?.is_null()))),
            CompiledExpr::IsNotNull(e) => Ok(Cow::Owned(Value::Bool(!e.eval(src)?.is_null()))),
            CompiledExpr::Between(e, lo, hi) => {
                let v = e.eval(src)?;
                let lov = lo.eval(src)?;
                let hiv = hi.eval(src)?;
                if v.is_null() || lov.is_null() || hiv.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                Ok(Cow::Owned(Value::Bool(
                    v.as_ref() >= lov.as_ref() && v.as_ref() <= hiv.as_ref(),
                )))
            }
            CompiledExpr::InList(e, list) => {
                let v = e.eval(src)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(src)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv.as_ref() == v.as_ref() {
                        return Ok(Cow::Owned(Value::Bool(true)));
                    }
                }
                Ok(Cow::Owned(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                }))
            }
            CompiledExpr::Like(e, pattern) => {
                let v = e.eval(src)?;
                match v.as_ref() {
                    Value::Null => Ok(Cow::Owned(Value::Null)),
                    Value::Text(s) => Ok(Cow::Owned(Value::Bool(like_match(s, pattern)))),
                    other => Err(DbError::TypeMismatch {
                        expected: "Text".into(),
                        found: other.type_name().into(),
                    }),
                }
            }
            CompiledExpr::Call(f, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(src).map(Cow::into_owned))
                    .collect::<DbResult<_>>()?;
                eval_func(*f, &vals).map(Cow::Owned)
            }
            CompiledExpr::Case(arms, els) => {
                for (cond, out) in arms {
                    if let Value::Bool(true) = cond.eval(src)?.as_ref() {
                        return out.eval(src);
                    }
                }
                match els {
                    Some(e) => e.eval(src),
                    None => Ok(Cow::Owned(Value::Null)),
                }
            }
        }
    }

    /// Evaluates to an owned value.
    pub fn eval_value<S: ValueSource + ?Sized>(&self, src: &S) -> DbResult<Value> {
        Ok(self.eval(src)?.into_owned())
    }

    /// Evaluates as a filter predicate: `true` keeps the row, `false`
    /// or `NULL` drops it, non-boolean results are errors.
    pub fn eval_predicate<S: ValueSource + ?Sized>(&self, src: &S) -> DbResult<bool> {
        match self.eval(src)?.as_ref() {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(DbError::TypeMismatch {
                expected: "Bool predicate".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// The type this expression evaluates to when each position has the
    /// type `declared` gives it (`None` or `Any`: undeclared), or the
    /// type error it raises on every row whose operands are not NULL.
    /// Each operator is tried once on a representative value of each
    /// declared operand type, so the error is the evaluator's own; an
    /// undeclared operand stands in as NULL and keeps its per-row checks.
    /// `=` and `<>` are checked like `<`: comparing unrelated types is a
    /// schema mistake either way, though the evaluator's total order
    /// would answer it. A function's or a `CASE`'s result is undeclared.
    pub fn check_types(
        &self,
        declared: &dyn Fn(usize) -> Option<DataType>,
    ) -> DbResult<Option<DataType>> {
        let check = |e: &CompiledExpr| e.check_types(declared);
        let probe_of = |t: Option<DataType>| Box::new(CompiledExpr::Lit(representative(t)));
        let run = |probe: CompiledExpr| -> DbResult<Option<DataType>> {
            let no_columns: &[Value] = &[];
            Ok(probe.eval(no_columns)?.data_type())
        };
        let only_checked = |children: &mut dyn Iterator<Item = &CompiledExpr>, t| {
            for c in children {
                check(c)?;
            }
            Ok(t)
        };
        match self {
            CompiledExpr::Lit(v) => Ok(v.data_type()),
            CompiledExpr::Col(i) => Ok(declared(*i).filter(|t| *t != DataType::Any)),
            CompiledExpr::Bin(l, op, r) => {
                let op = match op {
                    BinOp::Eq | BinOp::Ne => BinOp::Lt,
                    op => *op,
                };
                run(CompiledExpr::Bin(probe_of(check(l)?), op, probe_of(check(r)?)))
            }
            CompiledExpr::Un(op, e) => run(CompiledExpr::Un(*op, probe_of(check(e)?))),
            CompiledExpr::Like(e, pattern) => {
                run(CompiledExpr::Like(probe_of(check(e)?), pattern.clone()))
            }
            CompiledExpr::IsNull(e) | CompiledExpr::IsNotNull(e) => {
                only_checked(&mut std::iter::once(&**e), Some(DataType::Bool))
            }
            CompiledExpr::Between(e, lo, hi) => {
                only_checked(&mut [e, lo, hi].into_iter().map(|x| &**x), Some(DataType::Bool))
            }
            CompiledExpr::InList(e, list) => {
                only_checked(&mut std::iter::once(&**e).chain(list), Some(DataType::Bool))
            }
            CompiledExpr::Call(_, args) => only_checked(&mut args.iter(), None),
            CompiledExpr::Case(arms, els) => only_checked(
                &mut arms.iter().flat_map(|(c, v)| [c, v]).chain(els.as_deref()),
                None,
            ),
        }
    }
}

/// A value of type `t` that no operator [`CompiledExpr::check_types`]
/// probes with can fault on for a reason other than its type (no zero
/// divisor, no overflow); NULL for an undeclared type.
fn representative(t: Option<DataType>) -> Value {
    match t {
        Some(DataType::Bool) => Value::Bool(true),
        Some(DataType::Int) => Value::Int(1),
        Some(DataType::Float) => Value::Float(1.0),
        Some(DataType::Text) => Value::Text(String::new()),
        Some(DataType::Date) => Value::Date(crate::date::Date::from_days(0)),
        Some(DataType::Any) | None => Value::Null,
    }
}

/// The error of an `i64` result that does not fit.
fn overflow(op: &str) -> DbError {
    DbError::Arithmetic(format!("integer overflow in {op}"))
}

/// SQL LIKE matcher: `%` matches any run, `_` matches one char.
fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try consuming 0..=len chars.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

fn eval_binop(l: &Value, op: BinOp, r: &Value) -> DbResult<Value> {
    use BinOp::*;
    match op {
        And => return eval_and(l, r),
        Or => return eval_or(l, r),
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => cmp_check(l, r).map(|_| Value::Bool(l < r)),
        Le => cmp_check(l, r).map(|_| Value::Bool(l <= r)),
        Gt => cmp_check(l, r).map(|_| Value::Bool(l > r)),
        Ge => cmp_check(l, r).map(|_| Value::Bool(l >= r)),
        Add | Sub | Mul | Div | Mod => eval_arith(l, op, r),
        Concat => match (l, r) {
            (Value::Text(a), Value::Text(b)) => Ok(Value::Text(format!("{a}{b}"))),
            _ => Err(DbError::TypeMismatch {
                expected: "Text || Text".into(),
                found: format!("{} || {}", l.type_name(), r.type_name()),
            }),
        },
        And | Or => unreachable!("handled above"),
    }
}

/// Ordering comparisons across unrelated types are almost always schema
/// mistakes in quality predicates, so we reject them instead of using the
/// arbitrary cross-type total order. [`CompiledExpr::check_types`]
/// raises the same error for `=` and `<>` over declared types.
fn cmp_check(l: &Value, r: &Value) -> DbResult<()> {
    let ok = matches!(
        (l, r),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
            | (Value::Text(_), Value::Text(_))
            | (Value::Date(_), Value::Date(_))
            | (Value::Bool(_), Value::Bool(_))
    );
    if ok {
        Ok(())
    } else {
        Err(DbError::TypeMismatch {
            expected: "comparable values of the same type".into(),
            found: format!("{} vs {}", l.type_name(), r.type_name()),
        })
    }
}

fn eval_and(l: &Value, r: &Value) -> DbResult<Value> {
    let lb = tribool(l)?;
    let rb = tribool(r)?;
    Ok(match (lb, rb) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn eval_or(l: &Value, r: &Value) -> DbResult<Value> {
    let lb = tribool(l)?;
    let rb = tribool(r)?;
    Ok(match (lb, rb) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn tribool(v: &Value) -> DbResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(DbError::TypeMismatch {
            expected: "Bool".into(),
            found: other.type_name().into(),
        }),
    }
}

fn eval_arith(l: &Value, op: BinOp, r: &Value) -> DbResult<Value> {
    use BinOp::*;
    use Value::*;
    match (l, r) {
        (Int(_), Int(0)) if op == Div => Err(DbError::Arithmetic("division by zero".into())),
        (Int(_), Int(0)) if op == Mod => Err(DbError::Arithmetic("modulo by zero".into())),
        (Int(a), Int(b)) => match op {
            Add => a.checked_add(*b),
            Sub => a.checked_sub(*b),
            Mul => a.checked_mul(*b),
            Div => a.checked_div(*b),
            Mod => a.checked_rem(*b),
            _ => unreachable!(),
        }
        .map(Int)
        .ok_or_else(|| overflow(&op.to_string())),
        (Int(_) | Float(_), Int(_) | Float(_)) => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            match op {
                Add => Ok(Float(a + b)),
                Sub => Ok(Float(a - b)),
                Mul => Ok(Float(a * b)),
                Div => {
                    if b == 0.0 {
                        Err(DbError::Arithmetic("division by zero".into()))
                    } else {
                        Ok(Float(a / b))
                    }
                }
                Mod => Err(DbError::TypeMismatch {
                    expected: "Int % Int".into(),
                    found: "Float".into(),
                }),
                _ => unreachable!(),
            }
        }
        // Date arithmetic: Date ± days, Date - Date → days.
        (Date(d), Int(n)) if matches!(op, Add | Sub) => {
            let delta = if op == Add { Some(*n) } else { n.checked_neg() };
            delta
                .and_then(|n| d.days().checked_add(n))
                .map(|days| Date(crate::date::Date::from_days(days)))
                .ok_or_else(|| overflow(&op.to_string()))
        }
        (Date(a), Date(b)) if op == Sub => a
            .days()
            .checked_sub(b.days())
            .map(Int)
            .ok_or_else(|| overflow("-")),
        _ => Err(DbError::TypeMismatch {
            expected: "numeric (or date) operands".into(),
            found: format!("{} {op} {}", l.type_name(), r.type_name()),
        }),
    }
}

fn eval_func(f: Func, args: &[Value]) -> DbResult<Value> {
    let need = |n: usize| -> DbResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::InvalidExpression(format!(
                "{f:?} expects {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match f {
        Func::Abs => {
            need(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.checked_abs().ok_or_else(|| overflow("abs"))?)),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => Err(DbError::TypeMismatch {
                    expected: "numeric".into(),
                    found: other.type_name().into(),
                }),
            }
        }
        Func::Lower => {
            need(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.to_lowercase())),
                other => Err(DbError::TypeMismatch {
                    expected: "Text".into(),
                    found: other.type_name().into(),
                }),
            }
        }
        Func::Upper => {
            need(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.to_uppercase())),
                other => Err(DbError::TypeMismatch {
                    expected: "Text".into(),
                    found: other.type_name().into(),
                }),
            }
        }
        Func::Length => {
            need(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(DbError::TypeMismatch {
                    expected: "Text".into(),
                    found: other.type_name().into(),
                }),
            }
        }
        Func::Coalesce => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        Func::Substr => {
            need(3)?;
            match (&args[0], &args[1], &args[2]) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Text(s), Value::Int(start), Value::Int(len)) => {
                    let start = (*start).max(1) as usize - 1;
                    let len = (*len).max(0) as usize;
                    Ok(Value::Text(s.chars().skip(start).take(len).collect()))
                }
                _ => Err(DbError::TypeMismatch {
                    expected: "substr(Text, Int, Int)".into(),
                    found: "other".into(),
                }),
            }
        }
        Func::Least => Ok(args
            .iter()
            .filter(|v| !v.is_null())
            .min()
            .cloned()
            .unwrap_or(Value::Null)),
        Func::Greatest => Ok(args
            .iter()
            .filter(|v| !v.is_null())
            .max()
            .cloned()
            .unwrap_or(Value::Null)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;
    use crate::value::DataType;

    fn ctx() -> (Schema, Row) {
        let schema = Schema::of(&[
            ("name", DataType::Text),
            ("employees", DataType::Int),
            ("price", DataType::Float),
            ("created", DataType::Date),
            ("note", DataType::Text),
        ]);
        let row = vec![
            Value::text("Fruit Co"),
            Value::Int(4004),
            Value::Float(12.5),
            Value::Date(Date::parse("10-3-91").unwrap()),
            Value::Null,
        ];
        (schema, row)
    }

    fn eval(e: &Expr) -> Value {
        let (s, r) = ctx();
        e.eval(&s, &r).unwrap()
    }

    #[test]
    fn literals_and_columns() {
        assert_eq!(eval(&Expr::lit(5i64)), Value::Int(5));
        assert_eq!(eval(&Expr::col("employees")), Value::Int(4004));
        let (s, r) = ctx();
        assert!(Expr::col("bogus").eval(&s, &r).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval(&Expr::col("employees").gt(Expr::lit(1000i64))),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&Expr::col("name").eq(Expr::lit("Fruit Co"))),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&Expr::col("price").le(Expr::lit(12.5))),
            Value::Bool(true)
        );
    }

    #[test]
    fn three_valued_logic() {
        // NULL comparisons are NULL
        assert_eq!(eval(&Expr::col("note").eq(Expr::lit("x"))), Value::Null);
        // NULL AND false = false
        let e = Expr::col("note")
            .eq(Expr::lit("x"))
            .and(Expr::lit(false));
        assert_eq!(eval(&e), Value::Bool(false));
        // NULL OR true = true
        let e = Expr::col("note").eq(Expr::lit("x")).or(Expr::lit(true));
        assert_eq!(eval(&e), Value::Bool(true));
        // NOT NULL = NULL
        let e = Expr::col("note").eq(Expr::lit("x")).not();
        assert_eq!(eval(&e), Value::Null);
        // predicate drops NULL
        let (s, r) = ctx();
        assert!(!Expr::col("note")
            .eq(Expr::lit("x"))
            .eval_predicate(&s, &r)
            .unwrap());
    }

    #[test]
    fn is_null_family() {
        assert_eq!(eval(&Expr::IsNull(Box::new(Expr::col("note")))), Value::Bool(true));
        assert_eq!(
            eval(&Expr::IsNotNull(Box::new(Expr::col("name")))),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            eval(&Expr::col("employees").add(Expr::lit(1i64))),
            Value::Int(4005)
        );
        assert_eq!(
            eval(&Expr::lit(5i64).sub(Expr::lit(2.0))),
            Value::Float(3.0)
        );
        let (s, r) = ctx();
        let div0 = Expr::lit(1i64).eval(&s, &r).unwrap(); // warm-up
        assert_eq!(div0, Value::Int(1));
        assert!(matches!(
            Expr::Bin(Box::new(Expr::lit(1i64)), BinOp::Div, Box::new(Expr::lit(0i64)))
                .eval(&s, &r),
            Err(DbError::Arithmetic(_))
        ));
    }

    #[test]
    fn date_arithmetic() {
        // created + 6 days = 10-9-91
        let e = Expr::col("created").add(Expr::lit(6i64));
        assert_eq!(
            eval(&e),
            Value::Date(Date::parse("10-9-91").unwrap())
        );
        // date difference in days (the paper's `age` indicator is
        // `current_time - creation_time`)
        let now = Expr::lit(Value::Date(Date::parse("10-24-91").unwrap()));
        let e = now.sub(Expr::col("created"));
        assert_eq!(eval(&e), Value::Int(21));
    }

    #[test]
    fn between_and_in() {
        let e = Expr::Between(
            Box::new(Expr::col("employees")),
            Box::new(Expr::lit(1000i64)),
            Box::new(Expr::lit(5000i64)),
        );
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::InList(
            Box::new(Expr::col("name")),
            vec![Expr::lit("Nut Co"), Expr::lit("Fruit Co")],
        );
        assert_eq!(eval(&e), Value::Bool(true));
        // IN with only non-matching + NULL → NULL
        let e = Expr::InList(
            Box::new(Expr::col("name")),
            vec![Expr::lit("Nut Co"), Expr::lit(Value::Null)],
        );
        assert_eq!(eval(&e), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Fruit Co", "Fruit%"));
        assert!(like_match("Fruit Co", "%Co"));
        assert!(like_match("Fruit Co", "F_uit Co"));
        assert!(!like_match("Fruit Co", "Nut%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert_eq!(
            eval(&Expr::Like(Box::new(Expr::col("name")), "%Co".into())),
            Value::Bool(true)
        );
    }

    #[test]
    fn functions() {
        assert_eq!(
            eval(&Expr::Call(Func::Upper, vec![Expr::col("name")])),
            Value::text("FRUIT CO")
        );
        assert_eq!(
            eval(&Expr::Call(Func::Length, vec![Expr::col("name")])),
            Value::Int(8)
        );
        assert_eq!(
            eval(&Expr::Call(
                Func::Coalesce,
                vec![Expr::col("note"), Expr::lit("fallback")]
            )),
            Value::text("fallback")
        );
        assert_eq!(
            eval(&Expr::Call(
                Func::Substr,
                vec![Expr::col("name"), Expr::lit(1i64), Expr::lit(5i64)]
            )),
            Value::text("Fruit")
        );
        assert_eq!(
            eval(&Expr::Call(
                Func::Least,
                vec![Expr::lit(3i64), Expr::lit(Value::Null), Expr::lit(1i64)]
            )),
            Value::Int(1)
        );
        assert_eq!(
            eval(&Expr::Call(
                Func::Greatest,
                vec![Expr::lit(3i64), Expr::lit(7i64)]
            )),
            Value::Int(7)
        );
        assert_eq!(Func::from_name("COALESCE"), Some(Func::Coalesce));
        assert_eq!(Func::from_name("nope"), None);
    }

    #[test]
    fn case_expression() {
        // The paper's credibility mapping: source → credibility level.
        let e = Expr::Case(
            vec![
                (
                    Expr::col("name").eq(Expr::lit("Fruit Co")),
                    Expr::lit("high"),
                ),
                (Expr::col("name").eq(Expr::lit("Nut Co")), Expr::lit("low")),
            ],
            Some(Box::new(Expr::lit("unknown"))),
        );
        assert_eq!(eval(&e), Value::text("high"));
        let e = Expr::Case(vec![(Expr::lit(false), Expr::lit(1i64))], None);
        assert_eq!(eval(&e), Value::Null);
    }

    #[test]
    fn cross_type_ordering_is_rejected() {
        let (s, r) = ctx();
        let e = Expr::col("name").lt(Expr::lit(5i64));
        assert!(e.eval(&s, &r).is_err());
    }

    /// Int arithmetic that leaves `i64` is an error on every operator,
    /// never a wrap or a panic; so are negation, `abs` and date shifts.
    #[test]
    fn integer_overflow_is_an_error() {
        let (s, r) = ctx();
        let (min, max) = (Expr::lit(i64::MIN), Expr::lit(i64::MAX));
        let bin = |l: &Expr, op, r: i64| Expr::Bin(Box::new(l.clone()), op, Box::new(Expr::lit(r)));
        for e in [
            bin(&max, BinOp::Add, 1),
            bin(&min, BinOp::Sub, 1),
            bin(&max, BinOp::Mul, 2),
            bin(&min, BinOp::Div, -1),
            bin(&min, BinOp::Mod, -1),
            Expr::Un(UnOp::Neg, Box::new(min.clone())),
            Expr::Call(Func::Abs, vec![min.clone()]),
            Expr::col("created").add(max.clone()),
            Expr::col("created").sub(min.clone()),
            Expr::lit(Value::Date(Date::from_days(i64::MIN))).sub(Expr::col("created")),
        ] {
            match e.eval(&s, &r) {
                Err(DbError::Arithmetic(m)) => assert!(m.starts_with("integer overflow"), "{e}: {m}"),
                other => panic!("{e}: {other:?}"),
            }
        }
        // the edges themselves still compute
        assert_eq!(eval(&bin(&max, BinOp::Sub, 1)), Value::Int(i64::MAX - 1));
        assert_eq!(eval(&bin(&min, BinOp::Div, 1)), Value::Int(i64::MIN));
    }

    /// A declared operand type fails where the evaluator would fail on a
    /// row, with the evaluator's text; `=` fails like `<`; undeclared
    /// operands and NULL literals are left to the rows.
    #[test]
    fn check_types_reports_the_evaluators_error() {
        let (s, r) = ctx();
        let types = |e: &Expr| {
            let declared = |i: usize| s.column(i).map(|c| c.dtype);
            e.compile(&s).unwrap().check_types(&declared)
        };
        for (lt, eq) in [
            (Expr::col("employees").lt(Expr::lit("a")), Expr::col("employees").eq(Expr::lit("a"))),
            (Expr::lit("a").lt(Expr::col("employees")), Expr::lit("a").ne(Expr::col("employees"))),
        ] {
            let row_error = lt.eval(&s, &r).unwrap_err().to_string();
            assert_eq!(types(&lt).unwrap_err().to_string(), row_error, "{lt}");
            assert_eq!(types(&eq).unwrap_err().to_string(), row_error, "{eq}");
        }
        let add = Expr::col("name").add(Expr::lit(1i64));
        assert_eq!(types(&add).unwrap_err().to_string(), add.eval(&s, &r).unwrap_err().to_string());
        let and = Expr::col("employees").and(Expr::lit(true));
        assert_eq!(types(&and).unwrap_err().to_string(), and.eval(&s, &r).unwrap_err().to_string());
        assert_eq!(types(&Expr::col("created").sub(Expr::col("created"))).unwrap(), Some(DataType::Int));
        assert_eq!(types(&Expr::col("price").add(Expr::lit(1i64))).unwrap(), Some(DataType::Float));
        assert_eq!(types(&Expr::col("employees").eq(Expr::Lit(Value::Null))).unwrap(), None);
        let any = Schema::of(&[("x", DataType::Any)]);
        let compiled = Expr::col("x").lt(Expr::lit("a")).compile(&any).unwrap();
        assert_eq!(compiled.check_types(&|_| Some(DataType::Any)).unwrap(), None);
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::col("a")
            .gt(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::col("a")));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }

    #[test]
    fn concat() {
        let e = Expr::Bin(
            Box::new(Expr::col("name")),
            BinOp::Concat,
            Box::new(Expr::lit("!")),
        );
        assert_eq!(eval(&e), Value::text("Fruit Co!"));
    }
}
