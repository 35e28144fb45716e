use dq_query::{default_agg_policies, parse, QueryCatalog, QueryResult, SelectItem, Statement};
use dq_server::render_result;
use relstore::algebra::{AggCall, AggFunc};
use relstore::expr::{BinOp, UnOp};
use relstore::{ColumnDef, DataType, Expr, Schema, Value};
use std::cmp::Ordering;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TagPolicy, TagRule};
use tagstore::{TaggedRelation, TaggedRow};

/// A relation as the oracle holds it; `dict` only validates rendering.
#[derive(Debug, Clone)]
pub struct Rel {
    pub names: Vec<String>,
    pub rows: Vec<TaggedRow>,
    dict: IndicatorDictionary,
}

/// An answer, or the text of the error the statement fails with.
pub type Answer<T> = Result<T, String>;

impl Rel {
    pub fn of(t: &TaggedRelation) -> Rel {
        let names = t.schema().names().iter().map(|n| n.to_string()).collect();
        Rel { names, rows: t.rows().to_vec(), dict: t.dictionary().clone() }
    }

    /// The table a client reads, through the server's renderer.
    pub fn render(&self) -> String {
        let columns = self.names.iter().map(|n| ColumnDef::new(n.clone(), DataType::Any));
        let schema = Schema::new(columns.collect()).expect("distinct output names");
        let rel = TaggedRelation::new(schema, self.dict.clone(), self.rows.clone());
        render_result(&QueryResult::Table(rel.expect("declared tags").into()))
    }
}

fn col(names: &[String], name: &str) -> usize {
    names.iter().position(|n| n == name).unwrap_or_else(|| panic!("oracle: no `{name}` in {names:?}"))
}

/// The answer to `sql`, a `SELECT` over `catalog`'s tables.
pub fn answer(catalog: &QueryCatalog, sql: &str) -> Answer<Rel> {
    let Ok(Statement::Select(q)) = parse(sql) else { panic!("oracle: not a SELECT: {sql}") };
    let table = |name: &str| Rel::of(catalog.get(name).expect("a catalog table"));
    let mut rel = table(&q.table);
    rel = match &q.join { Some(j) => join(rel, table(&j.table), &j.left_key, &j.right_key), None => rel };
    rel = match q.combined_predicate() { Some(p) => select(rel, &p)?, None => rel };
    if q.is_aggregate() {
        let call = |item: &SelectItem| match item {
            SelectItem::Aggregate { func, column, alias: Some(output) } => {
                Some(AggCall { func: *func, column: column.clone(), output: output.clone() })
            }
            _ => None,
        };
        let calls: Vec<AggCall> = q.items.iter().filter_map(call).collect();
        let keys: Vec<&str> = q.group_by.iter().map(String::as_str).collect();
        rel = aggregate(&rel, &keys, &calls, &default_agg_policies())?;
        rel = match &q.having { Some(h) => select(rel, h)?, None => rel };
    } else if !matches!(q.items[..], [SelectItem::Wildcard]) {
        rel = project(rel, &q.items);
    }
    let every: Vec<usize> = (0..rel.names.len()).collect();
    if q.distinct {
        rel.rows = groups(&rel.rows, &every).iter().map(|g| merge(g, &every, false).into()).collect();
    }
    let keys: Vec<_> = q.order_by.iter().map(|o| (col(&rel.names, &o.column), o.ascending)).collect();
    rel.rows.sort_by(|a, b| {
        let by = |&(i, asc): &(usize, bool)| (a[i].value.cmp(&b[i].value), asc);
        let keyed = keys.iter().map(by).map(|(o, asc)| if asc { o } else { o.reverse() });
        keyed.fold(Ordering::Equal, Ordering::then)
    });
    rel.rows.truncate(q.limit.unwrap_or(usize::MAX));
    Ok(rel)
}

/// σ over one relation: the rows `predicate` keeps, in order.
pub fn filter(t: &TaggedRelation, predicate: &Expr) -> Answer<TaggedRelation> {
    let kept = select(Rel::of(t), predicate)?.rows;
    Ok(TaggedRelation::new(t.schema().clone(), t.dictionary().clone(), kept).expect("rows of `t`"))
}

/// ⋈ of two relations on one key each, in nested-loop order.
pub fn equi_join(left: &TaggedRelation, right: &TaggedRelation, left_key: &str, right_key: &str) -> Vec<TaggedRow> {
    join(Rel::of(left), Rel::of(right), left_key, right_key).rows
}

fn select(rel: Rel, predicate: &Expr) -> Answer<Rel> {
    let mut parts = vec![predicate];
    while let Some(i) = parts.iter().position(|e| matches!(e, Expr::Bin(_, BinOp::And, _))) {
        let Expr::Bin(l, _, r) = parts[i] else { unreachable!() };
        parts.splice(i..=i, [&**l, &**r]);
    }
    let mut rows = Vec::new();
    'rows: for row in rel.rows {
        for part in &parts {
            match eval(part, &rel.names, &row)? {
                Value::Bool(true) => {}
                Value::Bool(false) | Value::Null => continue 'rows,
                other => panic!("oracle: conjunct {part} is {other}"),
            }
        }
        rows.push(row);
    }
    Ok(Rel { rows, ..rel })
}

fn eval(e: &Expr, names: &[String], row: &[QualityCell]) -> Answer<Value> {
    let at = |e: &Expr| eval(e, names, row);
    let truth = |v: Value| (!v.is_null()).then(|| v == Value::Bool(true));
    Ok(match e {
        Expr::Lit(v) => v.clone(),
        Expr::Col(name) => read(names, row, name),
        Expr::Un(UnOp::Neg, x) => arithmetic(&Value::Int(0), BinOp::Sub, &at(x)?)?,
        Expr::IsNull(x) => Value::Bool(at(x)?.is_null()),
        Expr::IsNotNull(x) => Value::Bool(!at(x)?.is_null()),
        Expr::Between(x, lo, hi) => match (at(x)?, at(lo)?, at(hi)?) {
            (x, lo, hi) if x.is_null() || lo.is_null() || hi.is_null() => Value::Null,
            (x, lo, hi) => Value::Bool(lo <= x && x <= hi),
        },
        // OR is true where either side is, AND false where either side is
        Expr::Bin(l, op @ (BinOp::And | BinOp::Or), r) => match (truth(at(l)?), truth(at(r)?)) {
            (Some(x), _) | (_, Some(x)) if x == (*op == BinOp::Or) => Value::Bool(x),
            (Some(_), Some(_)) => Value::Bool(*op == BinOp::And),
            _ => Value::Null,
        },
        Expr::Bin(l, op, r) => match (at(l)?, op, at(r)?) {
            (a, _, b) if a.is_null() || b.is_null() => Value::Null,
            (a, BinOp::Eq, b) => Value::Bool(a == b),
            (a, BinOp::Ne, b) => Value::Bool(a != b),
            (a, BinOp::Lt, b) => Value::Bool(a < b),
            (a, BinOp::Le, b) => Value::Bool(a <= b),
            (a, BinOp::Gt, b) => Value::Bool(a > b),
            (a, BinOp::Ge, b) => Value::Bool(a >= b),
            (a, op, b) => arithmetic(&a, *op, &b)?,
        },
        other => panic!("oracle: {other} is outside the generators' grammar"),
    })
}

/// A column's value, or the value down a `col@ind[@meta]` tag path (NULL if it breaks).
fn read(names: &[String], row: &[QualityCell], name: &str) -> Value {
    let (column, path) = name.split_once('@').unwrap_or((name, ""));
    let cell = &row[col(names, column)];
    let (mut tags, mut value) = (cell.tags(), cell.value.clone());
    for indicator in path.split('@').filter(|i| !i.is_empty()) {
        let Some(tag) = tags.iter().find(|t| t.indicator == indicator) else { return Value::Null };
        (tags, value) = (&tag.meta, tag.value.clone());
    }
    value
}

/// Non-NULL `a op b`: Int with Int is checked; a Float is only divided.
fn arithmetic(a: &Value, op: BinOp, b: &Value) -> Answer<Value> {
    let fault = |what: &str| Err(format!("arithmetic error: {what}"));
    match (a, op, b) {
        (_, BinOp::Div, _) if float(b) == 0.0 => fault("division by zero"),
        (Value::Int(_), BinOp::Mod, Value::Int(0)) => fault("modulo by zero"),
        (Value::Int(x), _, Value::Int(y)) => match op {
            BinOp::Add => x.checked_add(*y),
            BinOp::Sub => x.checked_sub(*y),
            BinOp::Mul => x.checked_mul(*y),
            BinOp::Div => x.checked_div(*y),
            _ => x.checked_rem(*y),
        }
        .map_or_else(|| fault(&format!("integer overflow in {op}")), |v| Ok(Value::Int(v))),
        (_, BinOp::Div, _) => Ok(Value::Float(float(a) / float(b))),
        _ => panic!("oracle: {a} {op} {b}"),
    }
}

fn float(v: &Value) -> f64 {
    match v { Value::Int(i) => *i as f64, Value::Float(f) => *f, _ => panic!("oracle: {v} is no number") }
}

fn project(rel: Rel, items: &[SelectItem]) -> Rel {
    let column = |item: &SelectItem| match item {
        SelectItem::Column { name, alias } => (name.clone(), alias.clone().unwrap_or(name.clone())),
        other => panic!("oracle: {other:?} in a projection"),
    };
    let (sources, names): (Vec<String>, Vec<String>) = items.iter().map(column).unzip();
    let cell = |row: &TaggedRow, name: &String| match name.contains('@') {
        false => row[col(&rel.names, name)].clone(),
        true => QualityCell::bare(read(&rel.names, row, name)),
    };
    let rows = rel.rows.iter().map(|r| sources.iter().map(|s| cell(r, s)).collect()).collect();
    Rel { names, rows, dict: rel.dict.clone() }
}

/// Each left row in turn meets every right row with its key; NULL meets none.
fn join(left: Rel, right: Rel, left_key: &str, right_key: &str) -> Rel {
    let (li, ri) = (col(&left.names, left_key), col(&right.names, right_key));
    let named = |own: &Rel, other: &Rel, side: &str| -> Vec<String> {
        let name = |n: &String| if other.names.contains(n) { format!("{side}.{n}") } else { n.clone() };
        own.names.iter().map(name).collect()
    };
    let mut rows = Vec::new();
    for l in left.rows.iter().filter(|l| !l[li].value.is_null()) {
        for r in right.rows.iter().filter(|r| r[ri].value == l[li].value) {
            rows.push(l.iter().chain(r.iter()).cloned().collect());
        }
    }
    Rel { names: [named(&left, &right, "l"), named(&right, &left, "r")].concat(), rows, ..left }
}

/// `rows` grouped by their values at `cols`, in first-seen order.
fn groups<'r>(rows: &'r [TaggedRow], cols: &[usize]) -> Vec<Vec<&'r TaggedRow>> {
    let mut groups: Vec<Vec<&TaggedRow>> = Vec::new();
    for row in rows {
        match groups.iter_mut().find(|g| cols.iter().all(|&i| g[0][i].value == row[i].value)) {
            Some(group) => group.push(row),
            None => groups.push(vec![row]),
        }
    }
    groups
}

/// A group's first row at `cols`, each cell with the group's tags no two
/// members disagree on, or, when `alike`, that every member carries.
fn merge(group: &[&TaggedRow], cols: &[usize], alike: bool) -> Vec<QualityCell> {
    let cell = |&c: &usize| {
        let mut cell = QualityCell::bare(group[0][c].value.clone());
        for t in group.iter().flat_map(|m| m[c].tags()) {
            if group.iter().all(|m| m[c].tag(&t.indicator).map_or(!alike, |u| u == t)) {
                cell.set_tag(t.clone());
            }
        }
        cell
    };
    cols.iter().map(cell).collect()
}

/// γ; a global γ over no rows has one row. Key cells [`merge`] `alike`;
/// an aggregate cell takes each policy's tag derived from its inputs.
pub fn aggregate(rel: &Rel, keys: &[&str], calls: &[AggCall], policies: &[TagPolicy]) -> Answer<Rel> {
    let key_at: Vec<usize> = keys.iter().map(|k| col(&rel.names, k)).collect();
    let found = match groups(&rel.rows, &key_at) {
        none if none.is_empty() && keys.is_empty() => vec![Vec::new()],
        found => found,
    };
    let mut rows = Vec::new();
    for members in found {
        let mut out = if keys.is_empty() { Vec::new() } else { merge(&members, &key_at, true) };
        for call in calls {
            let (at, row) = (call.column.as_ref().map(|c| col(&rel.names, c)), QualityCell::bare(1));
            // COUNT(*) counts a bare non-NULL cell per row
            let inputs: Vec<&QualityCell> = members.iter().map(|m| at.map_or(&row, |i| &m[i])).collect();
            let tags = policies.iter().filter_map(|p| derive(p, &inputs)).collect();
            out.push(QualityCell::tagged(fold(call.func, &inputs)?, tags));
        }
        rows.push(out.into());
    }
    let names = keys.iter().map(|k| k.to_string()).chain(calls.iter().map(|c| c.output.clone()));
    Ok(Rel { names: names.collect(), rows, dict: rel.dict.clone() })
}

/// One aggregate over a group's non-NULL values (SUM, AVG, MIN, MAX over
/// none: NULL); the first of equal extremes wins.
fn fold(func: AggFunc, cells: &[&QualityCell]) -> Answer<Value> {
    let values: Vec<&Value> = cells.iter().map(|c| &c.value).filter(|v| !v.is_null()).collect();
    let first = |keep: fn(&Value, &Value) -> bool| {
        let best = values.iter().fold(None, |b: Option<&Value>, &v| b.filter(|b| keep(b, v)).or(Some(v)));
        best.cloned().unwrap_or(Value::Null)
    };
    let overflow = "arithmetic error: integer overflow in SUM";
    let add = |sum: Option<Value>, v: &&Value| -> Answer<Option<Value>> {
        Ok(Some(match (sum, *v) {
            (_, Value::Text(_)) => Err("type mismatch: expected numeric for SUM, found Text")?,
            (Some(Value::Int(a)), Value::Int(b)) => Value::Int(a.checked_add(*b).ok_or(overflow)?),
            (Some(a), v) => Value::Float(float(&a) + float(v)),
            (None, v) => v.clone(),
        }))
    };
    let new = |(i, v): &(usize, &&Value)| !values[..*i].contains(v);
    Ok(match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::CountDistinct => Value::Int(values.iter().enumerate().filter(new).count() as i64),
        AggFunc::Min => first(|best, v| best <= v),
        AggFunc::Max => first(|best, v| best >= v),
        AggFunc::Avg if values.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(values.iter().map(|v| float(v)).sum::<f64>() / values.len() as f64),
        AggFunc::Sum => values.iter().try_fold(None, add)?.unwrap_or(Value::Null),
    })
}

/// A policy's tag from an aggregate's inputs: the least or greatest value,
/// the one value every input carries, or distinct texts joined by `+`.
fn derive(p: &TagPolicy, inputs: &[&QualityCell]) -> Option<IndicatorValue> {
    let vals: Vec<&Value> = inputs.iter().filter_map(|c| Some(&c.tag(&p.indicator)?.value)).collect();
    let first = *vals.first()?;
    let value = match p.rule {
        TagRule::Min => vals.into_iter().min()?.clone(),
        TagRule::Max => vals.into_iter().max()?.clone(),
        TagRule::Unanimous if vals.len() < inputs.len() || vals.iter().any(|v| *v != first) => None?,
        TagRule::Unanimous => first.clone(),
        TagRule::MergeText => {
            let texts: std::collections::BTreeSet<String> = vals.iter().map(|v| v.to_string()).collect();
            Value::Text(texts.into_iter().collect::<Vec<_>>().join("+"))
        }
    };
    Some(IndicatorValue::new(p.indicator.clone(), value))
}
