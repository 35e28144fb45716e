//! Logical plans and the planner (with optional predicate pushdown).

use crate::ast::{SelectItem, SelectQuery, Statement};
use crate::exec::QueryCatalog;
use relstore::algebra::{aggregate_schema, resolve_aggregate, AggCall};
use relstore::{DbError, DbResult, Expr, Schema};
use std::borrow::Cow;
use std::fmt::Write as _;
use tagstore::{IndicatorDictionary, Predicate};

/// A logical query plan over tagged relations.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named tagged relation.
    Scan(String),
    /// Equi-join two plans.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join key on the left.
        left_key: String,
        /// Join key on the right.
        right_key: String,
    },
    /// σ with a (possibly quality-) predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate, bound against the input; may reference
        /// `col@indicator` pseudo-columns.
        predicate: Predicate,
    },
    /// Projection onto named columns/pseudo-columns with output names.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(source name, output name)` pairs; source may be a
        /// pseudo-column.
        columns: Vec<(String, String)>,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// Duplicate elimination (merging tags).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Multi-key sort.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum rows.
        n: usize,
    },
    /// Index-assisted σ over a base table: the sargable quality atoms are
    /// answered from a bitmap index, residual conjuncts re-checked per
    /// surviving row. Chosen by [`Planner::optimize`] when the estimated
    /// selectivity is low enough to beat a scan.
    IndexScan {
        /// Base table name.
        table: String,
        /// Full bound predicate (atoms + residual); execution asks the
        /// live index for its atoms, so a stale estimate can never
        /// change results.
        predicate: Predicate,
        /// Rendered sargable atoms (e.g. `price@source=NYSE feed`),
        /// for EXPLAIN output.
        atoms: Vec<String>,
        /// Estimated matching fraction in `[0, 1]` (bitmap popcount over
        /// row count at plan time).
        est_selectivity: f64,
    },
    /// Index-assisted σ over a **paged** base table: the bitmap index
    /// answer shrinks to the set of heap pages holding candidate rows,
    /// only those pages are fetched through the buffer pool (sorted,
    /// with readahead), and the residual predicate re-checks each
    /// fetched row. Chosen by the same selectivity cutoff as
    /// [`Plan::IndexScan`] when the table lives in paged storage.
    PagedIndexScan {
        /// Paged base table name.
        table: String,
        /// Full bound predicate (atoms + residual); the storage layer
        /// binds it again against its live relation.
        predicate: Predicate,
        /// Rendered sargable atoms, for EXPLAIN output.
        atoms: Vec<String>,
        /// Estimated matching fraction in `[0, 1]`.
        est_selectivity: f64,
    },
    /// Equi-join where the right side is a bare base table probed through
    /// a prebuilt hash index instead of building one per execution.
    IndexJoin {
        /// Left input plan.
        left: Box<Plan>,
        /// Right base table name (probed via its key index).
        right_table: String,
        /// Join key on the left.
        left_key: String,
        /// Join key on the right.
        right_key: String,
    },
}

impl Plan {
    /// Depth-first operator count (used in tests to verify pushdown
    /// changed the shape).
    #[cfg(test)]
    pub fn operator_count(&self) -> usize {
        match self {
            Plan::Scan(_) | Plan::IndexScan { .. } | Plan::PagedIndexScan { .. } => 1,
            Plan::Join { left, right, .. } => 1 + left.operator_count() + right.operator_count(),
            Plan::IndexJoin { left, .. } => 1 + left.operator_count(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => 1 + input.operator_count(),
        }
    }

    /// True if a `Filter` (or an `IndexScan`, which is a fused
    /// filter+scan) appears beneath a `Join`/`IndexJoin` (evidence of
    /// pushdown).
    #[cfg(test)]
    pub fn has_filter_below_join(&self) -> bool {
        fn contains_filter(p: &Plan) -> bool {
            match p {
                Plan::Filter { .. } | Plan::IndexScan { .. } | Plan::PagedIndexScan { .. } => true,
                Plan::Scan(_) => false,
                Plan::Join { left, right, .. } => contains_filter(left) || contains_filter(right),
                Plan::IndexJoin { left, .. } => contains_filter(left),
                Plan::Project { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Distinct { input }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. } => contains_filter(input),
            }
        }
        match self {
            Plan::Join { left, right, .. } => contains_filter(left) || contains_filter(right),
            Plan::IndexJoin { left, .. } => contains_filter(left),
            Plan::Scan(_) | Plan::IndexScan { .. } | Plan::PagedIndexScan { .. } => false,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.has_filter_below_join(),
        }
    }

    /// EXPLAIN-style rendering: one line per operator, children indented
    /// two spaces, access path and estimated selectivity shown where an
    /// index is in play.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{}", self.node_line());
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// The single EXPLAIN line for this operator (no indentation, no
    /// newline). Shared between [`Plan::explain`] and the EXPLAIN ANALYZE
    /// trace renderer so both surfaces print identical operator text.
    pub(crate) fn node_line(&self) -> String {
        match self {
            Plan::Scan(name) => format!("TableScan table={name} access=scan"),
            Plan::IndexScan {
                table,
                predicate,
                atoms,
                est_selectivity,
            } => format!(
                "IndexScan table={table} access=bitmap[{}] est_selectivity={est_selectivity:.4} predicate={predicate}",
                atoms.join(" AND ")
            ),
            Plan::PagedIndexScan {
                table,
                predicate,
                atoms,
                est_selectivity,
            } => format!(
                "PagedIndexScan table={table} access=bitmap[{}] est_selectivity={est_selectivity:.4} predicate={predicate}",
                atoms.join(" AND ")
            ),
            Plan::Filter { predicate, .. } => format!("Filter predicate={predicate}"),
            Plan::Join {
                left_key,
                right_key,
                ..
            } => format!("HashJoin on={left_key}={right_key} access=build"),
            Plan::IndexJoin {
                right_table,
                left_key,
                right_key,
                ..
            } => format!(
                "IndexJoin on={left_key}={right_key} right={right_table} access=index(probe)"
            ),
            Plan::Project { columns, .. } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|(src, dst)| {
                        if src == dst {
                            src.clone()
                        } else {
                            format!("{src} AS {dst}")
                        }
                    })
                    .collect();
                format!("Project columns=[{}]", cols.join(", "))
            }
            Plan::Aggregate { group_by, aggs, .. } => {
                let calls: Vec<&str> = aggs.iter().map(|a| a.output.as_str()).collect();
                format!(
                    "Aggregate group_by=[{}] aggs=[{}]",
                    group_by.join(", "),
                    calls.join(", ")
                )
            }
            Plan::Distinct { .. } => "Distinct".to_owned(),
            Plan::Sort { keys, .. } => {
                let rendered: Vec<String> = keys
                    .iter()
                    .map(|(c, asc)| format!("{c} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort keys=[{}]", rendered.join(", "))
            }
            Plan::Limit { n, .. } => format!("Limit n={n}"),
        }
    }

    /// Child operators in render order.
    pub(crate) fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan(_) | Plan::IndexScan { .. } | Plan::PagedIndexScan { .. } => vec![],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::IndexJoin { left, .. } => vec![left],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
        }
    }
}

/// Access-path statistics the optimizer consults when deciding whether a
/// filter over a base table should become an [`Plan::IndexScan`].
pub trait AccessPathStats {
    /// If the quality-sargable atoms of `predicate` can be answered from
    /// a bitmap index on `table`, returns the rendered atoms and the
    /// estimated matching fraction (bitmap popcount / row count).
    /// `None` means no usable index path — keep the scan.
    fn access_estimate(&self, table: &str, predicate: &Predicate) -> Option<(Vec<String>, f64)>;

    /// True when `table` lives in paged storage: an index-eligible
    /// filter over it becomes a [`Plan::PagedIndexScan`] (page-skipping
    /// fetch through the buffer pool) instead of an in-memory
    /// [`Plan::IndexScan`], and joins never probe it as an
    /// [`Plan::IndexJoin`] right side (there is no resident hash index
    /// to probe).
    fn is_paged(&self, _table: &str) -> bool {
        false
    }
}

/// At or above this estimated matching fraction an index scan stops
/// paying for itself and the planner keeps the scan.
///
/// Retuned from 0.5 after the batch kernels landed: the indexed path
/// feeds candidate words straight into the columnar batch loop (no
/// row-id materialization), so gather cost stays below scan cost until
/// almost all rows survive. B7 measurements show the bitmap path still
/// winning at 50% selectivity; only near-total matches (≥ 90%) pay more
/// for candidate bookkeeping than a straight scan.
const INDEX_SELECTIVITY_CUTOFF: f64 = 0.9;

/// The planner. `pushdown` controls whether single-side conjuncts of the
/// combined WHERE/quality predicate are evaluated below the join;
/// `use_indexes` controls whether [`Planner::optimize`] rewrites filters
/// and joins to their index-assisted forms.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Enable predicate pushdown through joins.
    pub pushdown: bool,
    /// Enable access-path selection (IndexScan / IndexJoin rewrites).
    pub use_indexes: bool,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            pushdown: true,
            use_indexes: true,
        }
    }
}

/// Splits a predicate into its top-level conjuncts.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(l, relstore::expr::BinOp::And, r) => {
            let mut out = conjuncts(l);
            out.extend(conjuncts(r));
            out
        }
        other => vec![other.clone()],
    }
}

/// Joins conjuncts back into one predicate.
fn conjoin(mut parts: Vec<Expr>) -> Option<Expr> {
    if parts.is_empty() {
        return None;
    }
    let first = parts.remove(0);
    Some(parts.into_iter().fold(first, |acc, e| acc.and(e)))
}

/// What a σ the planner builds binds against: its input's schema and
/// the dictionaries that declare its pseudo-columns' indicators — one
/// table's, or a join's two, split at the left table's arity.
struct Scope<'c> {
    schema: Schema,
    left: Cow<'c, IndicatorDictionary>,
    right: Option<(usize, Cow<'c, IndicatorDictionary>)>,
}

impl<'c> Scope<'c> {
    fn table(catalog: &'c QueryCatalog, name: &str) -> DbResult<Self> {
        let (schema, left) = catalog.schema_and_dictionary(name)?;
        Ok(Scope {
            schema,
            left,
            right: None,
        })
    }

    /// A join's output; a pseudo-column takes its types from the side
    /// its column came from, the `l.`/`r.` rule the name check applies.
    fn join(left: Scope<'c>, right: Scope<'c>) -> DbResult<Self> {
        Ok(Scope {
            schema: left.schema.join(&right.schema, "l", "r")?,
            right: Some((left.schema.arity(), right.left)),
            left: left.left,
        })
    }

    /// A γ's output, whose rows carry its input's (left) dictionary.
    fn aggregate(self, group_by: &[String], aggs: &[AggCall]) -> DbResult<Self> {
        let group_by: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let (keys, _) = resolve_aggregate(&self.schema, &group_by, aggs)?;
        Ok(Scope {
            schema: aggregate_schema(&self.schema, &keys, aggs)?,
            left: self.left,
            right: None,
        })
    }

    fn bind(&self, e: &Expr) -> DbResult<Predicate> {
        match &self.right {
            None => Predicate::bind(&self.schema, &self.left, e),
            Some((arity, right)) => {
                Predicate::bind_join(&self.schema, *arity, &self.left, right, e)
            }
        }
    }
}

/// Base column of a possibly-pseudo name (`price@age` → `price`).
fn base_col(name: &str) -> &str {
    name.split_once('@').map(|(c, _)| c).unwrap_or(name)
}

/// Classifies a conjunct for pushdown through a join whose inputs have the
/// given schemas. Returns `Some((side, rewritten))` when the conjunct can
/// be evaluated on one side alone (side: `false`=left, `true`=right).
fn classify(
    conjunct: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(bool, Expr)> {
    #[derive(PartialEq, Clone, Copy)]
    enum Side {
        Left,
        Right,
    }
    let mut side: Option<Side> = None;
    for col in conjunct.referenced_columns() {
        let (this, _stripped) = if let Some(rest) = col.strip_prefix("l.") {
            left.index_of(base_col(rest))?;
            (Side::Left, rest)
        } else if let Some(rest) = col.strip_prefix("r.") {
            right.index_of(base_col(rest))?;
            (Side::Right, rest)
        } else {
            let in_l = left.index_of(base_col(col)).is_some();
            let in_r = right.index_of(base_col(col)).is_some();
            match (in_l, in_r) {
                (true, false) => (Side::Left, col),
                (false, true) => (Side::Right, col),
                _ => return None, // ambiguous or unknown: keep above join
            }
        };
        match side {
            None => side = Some(this),
            Some(s) if s == this => {}
            Some(_) => return None, // references both sides
        }
    }
    let side = side?;
    // Rewrite: strip l./r. prefixes so the conjunct evaluates against the
    // un-joined input schema.
    let rewritten = rewrite_strip_prefix(conjunct, match side {
        Side::Left => "l.",
        Side::Right => "r.",
    });
    Some((side == Side::Right, rewritten))
}

fn rewrite_strip_prefix(e: &Expr, prefix: &str) -> Expr {
    match e {
        Expr::Col(c) => Expr::Col(c.strip_prefix(prefix).unwrap_or(c).to_owned()),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Bin(l, op, r) => Expr::Bin(
            Box::new(rewrite_strip_prefix(l, prefix)),
            *op,
            Box::new(rewrite_strip_prefix(r, prefix)),
        ),
        Expr::Un(op, x) => Expr::Un(*op, Box::new(rewrite_strip_prefix(x, prefix))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(rewrite_strip_prefix(x, prefix))),
        Expr::IsNotNull(x) => Expr::IsNotNull(Box::new(rewrite_strip_prefix(x, prefix))),
        Expr::Between(x, lo, hi) => Expr::Between(
            Box::new(rewrite_strip_prefix(x, prefix)),
            Box::new(rewrite_strip_prefix(lo, prefix)),
            Box::new(rewrite_strip_prefix(hi, prefix)),
        ),
        Expr::InList(x, list) => Expr::InList(
            Box::new(rewrite_strip_prefix(x, prefix)),
            list.iter().map(|i| rewrite_strip_prefix(i, prefix)).collect(),
        ),
        Expr::Like(x, p) => Expr::Like(Box::new(rewrite_strip_prefix(x, prefix)), p.clone()),
        Expr::Call(f, args) => Expr::Call(
            *f,
            args.iter().map(|a| rewrite_strip_prefix(a, prefix)).collect(),
        ),
        Expr::Case(arms, els) => Expr::Case(
            arms.iter()
                .map(|(c, v)| (rewrite_strip_prefix(c, prefix), rewrite_strip_prefix(v, prefix)))
                .collect(),
            els.as_ref()
                .map(|e| Box::new(rewrite_strip_prefix(e, prefix))),
        ),
    }
}

impl Planner {
    /// Plans a parsed statement, binding each σ it builds against that
    /// σ's input ([`Predicate::bind`]): unknown columns, undeclared
    /// indicators and ill-typed comparisons fail here. `Inspect`
    /// statements plan as a filtered scan; rendering happens at
    /// execution.
    pub fn plan(&self, stmt: &Statement, catalog: &QueryCatalog) -> DbResult<Plan> {
        match stmt {
            Statement::Inspect { table, filter } => {
                let scope = Scope::table(catalog, table)?;
                let scan = Plan::Scan(table.clone());
                Ok(match filter {
                    Some(f) => Plan::Filter {
                        input: Box::new(scan),
                        predicate: scope.bind(f)?,
                    },
                    None => scan,
                })
            }
            Statement::Select(q) => self.plan_select(q, catalog),
            // EXPLAIN plans its inner statement; rendering (and, for
            // ANALYZE, traced execution) happens at the execution layer.
            Statement::Explain { inner, .. } => self.plan(inner, catalog),
            Statement::Tag { .. } => Err(DbError::InvalidExpression(
                "TAG is a mutation statement; execute it with run_mut".into(),
            )),
        }
    }

    fn plan_select(&self, q: &SelectQuery, catalog: &QueryCatalog) -> DbResult<Plan> {
        let left_scope = Scope::table(catalog, &q.table)?;
        let mut plan;
        let predicate = q.combined_predicate();

        let scope = match &q.join {
            None => {
                plan = Plan::Scan(q.table.clone());
                if let Some(p) = predicate {
                    plan = Plan::Filter {
                        input: Box::new(plan),
                        predicate: left_scope.bind(&p)?,
                    };
                }
                left_scope
            }
            Some(j) => {
                let right_scope = Scope::table(catalog, &j.table)?;
                let mut left: Plan = Plan::Scan(q.table.clone());
                let mut right: Plan = Plan::Scan(j.table.clone());
                let mut residual: Vec<Expr> = Vec::new();
                if let Some(p) = predicate {
                    if self.pushdown {
                        let (mut lparts, mut rparts) = (Vec::new(), Vec::new());
                        for c in conjuncts(&p) {
                            match classify(&c, &left_scope.schema, &right_scope.schema) {
                                Some((false, e)) => lparts.push(e),
                                Some((true, e)) => rparts.push(e),
                                None => residual.push(c),
                            }
                        }
                        if let Some(lp) = conjoin(lparts) {
                            left = Plan::Filter {
                                input: Box::new(left),
                                predicate: left_scope.bind(&lp)?,
                            };
                        }
                        if let Some(rp) = conjoin(rparts) {
                            right = Plan::Filter {
                                input: Box::new(right),
                                predicate: right_scope.bind(&rp)?,
                            };
                        }
                    } else {
                        residual.push(p);
                    }
                }
                plan = Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_key: j.left_key.clone(),
                    right_key: j.right_key.clone(),
                };
                let joined = Scope::join(left_scope, right_scope)?;
                if let Some(res) = conjoin(residual) {
                    plan = Plan::Filter {
                        input: Box::new(plan),
                        predicate: joined.bind(&res)?,
                    };
                }
                joined
            }
        };

        // Aggregation or projection.
        if q.is_aggregate() {
            let mut aggs = Vec::new();
            for item in &q.items {
                match item {
                    SelectItem::Aggregate { func, column, alias } => {
                        let output = alias.clone().unwrap_or_else(|| match column {
                            Some(c) => format!("{}_{c}", agg_name(*func)),
                            None => "count".to_owned(),
                        });
                        aggs.push(AggCall {
                            func: *func,
                            column: column.clone(),
                            output,
                        });
                    }
                    SelectItem::Column { name, .. } => {
                        if !q.group_by.contains(name) {
                            return Err(DbError::InvalidExpression(format!(
                                "column `{name}` must appear in GROUP BY"
                            )));
                        }
                    }
                    SelectItem::Wildcard => {
                        return Err(DbError::InvalidExpression(
                            "SELECT * cannot be combined with aggregation".into(),
                        ))
                    }
                }
            }
            let having = match &q.having {
                Some(h) => Some(scope.aggregate(&q.group_by, &aggs)?.bind(h)?),
                None => None,
            };
            plan = Plan::Aggregate {
                input: Box::new(plan),
                group_by: q.group_by.clone(),
                aggs,
            };
            if let Some(predicate) = having {
                plan = Plan::Filter {
                    input: Box::new(plan),
                    predicate,
                };
            }
        } else if q.having.is_some() {
            return Err(DbError::InvalidExpression(
                "HAVING requires aggregation".into(),
            ));
        } else if !matches!(q.items.as_slice(), [SelectItem::Wildcard]) {
            let mut columns = Vec::new();
            for item in &q.items {
                if let SelectItem::Column { name, alias } = item {
                    columns.push((name.clone(), alias.clone().unwrap_or_else(|| name.clone())));
                }
            }
            plan = Plan::Project {
                input: Box::new(plan),
                columns,
            };
        }

        if q.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }
        if !q.order_by.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: q
                    .order_by
                    .iter()
                    .map(|o| (o.column.clone(), o.ascending))
                    .collect(),
            };
        }
        if let Some(n) = q.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Access-path selection: runs after pushdown, rewriting
    ///
    /// * `Filter(Scan(t))` → [`Plan::IndexScan`] when `stats` reports a
    ///   usable bitmap path with estimated selectivity strictly below the
    ///   cutoff (low-selectivity predicates win big from the index; only
    ///   near-total matches pay more for candidate bookkeeping than a
    ///   straight scan), and
    /// * `Join { right: Scan(t) }` → [`Plan::IndexJoin`] probing the base
    ///   table's prebuilt key index instead of hashing it per execution.
    ///
    /// The rewrite is purely an access-path change: the bound predicate
    /// moves into the new node as it is, execution asks the live index
    /// for its atoms and falls back to a scan when the index is stale, so
    /// results are identical either way.
    pub fn optimize(&self, plan: Plan, stats: &dyn AccessPathStats) -> Plan {
        if !self.use_indexes {
            return plan;
        }
        match plan {
            Plan::Filter { input, predicate } => {
                let input = self.optimize(*input, stats);
                if let Plan::Scan(table) = &input {
                    if let Some((atoms, est)) = stats.access_estimate(table, &predicate) {
                        // A degenerate stats source (e.g. popcount over a
                        // zero-row snapshot) can hand back NaN, which fails
                        // every comparison and silently disables the index
                        // path. An empty table is maximally selective:
                        // define its estimate as 0.0.
                        let est = if est.is_finite() { est } else { 0.0 };
                        if est < INDEX_SELECTIVITY_CUTOFF {
                            return if stats.is_paged(table) {
                                Plan::PagedIndexScan {
                                    table: table.clone(),
                                    predicate,
                                    atoms,
                                    est_selectivity: est,
                                }
                            } else {
                                Plan::IndexScan {
                                    table: table.clone(),
                                    predicate,
                                    atoms,
                                    est_selectivity: est,
                                }
                            };
                        }
                    }
                }
                Plan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let left = Box::new(self.optimize(*left, stats));
                let right = self.optimize(*right, stats);
                // A paged right side has no resident key index to probe;
                // the hash join builds from its scan instead.
                if let Plan::Scan(table) = right {
                    if stats.is_paged(&table) {
                        Plan::Join {
                            left,
                            right: Box::new(Plan::Scan(table)),
                            left_key,
                            right_key,
                        }
                    } else {
                        Plan::IndexJoin {
                            left,
                            right_table: table,
                            left_key,
                            right_key,
                        }
                    }
                } else {
                    Plan::Join {
                        left,
                        right: Box::new(right),
                        left_key,
                        right_key,
                    }
                }
            }
            Plan::Project { input, columns } => Plan::Project {
                input: Box::new(self.optimize(*input, stats)),
                columns,
            },
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => Plan::Aggregate {
                input: Box::new(self.optimize(*input, stats)),
                group_by,
                aggs,
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(self.optimize(*input, stats)),
            },
            Plan::Sort { input, keys } => Plan::Sort {
                input: Box::new(self.optimize(*input, stats)),
                keys,
            },
            Plan::Limit { input, n } => Plan::Limit {
                input: Box::new(self.optimize(*input, stats)),
                n,
            },
            leaf @ (Plan::Scan(_)
            | Plan::IndexScan { .. }
            | Plan::PagedIndexScan { .. }
            | Plan::IndexJoin { .. }) => leaf,
        }
    }
}

fn agg_name(f: relstore::algebra::AggFunc) -> &'static str {
    use relstore::algebra::AggFunc::*;
    match f {
        Count => "count",
        Sum => "sum",
        Avg => "avg",
        Min => "min",
        Max => "max",
        CountDistinct => "count_distinct",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use relstore::DataType;
    use tagstore::{IndicatorDictionary, TaggedRelation};

    fn catalog() -> QueryCatalog {
        let mut c = QueryCatalog::new();
        c.register(
            "stocks",
            TaggedRelation::empty(
                Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
                IndicatorDictionary::with_paper_defaults(),
            ),
        );
        c.register(
            "trades",
            TaggedRelation::empty(
                Schema::of(&[("tkr", DataType::Text), ("qty", DataType::Int)]),
                IndicatorDictionary::with_paper_defaults(),
            ),
        );
        c
    }

    fn plan_q(sql: &str, pushdown: bool) -> Plan {
        let stmt = parse(sql).unwrap();
        Planner {
            pushdown,
            ..Planner::default()
        }
        .plan(&stmt, &catalog())
        .unwrap()
    }

    #[test]
    fn simple_scan_filter() {
        let p = plan_q("SELECT * FROM stocks WHERE price > 1", true);
        match p {
            Plan::Filter { input, .. } => assert_eq!(*input, Plan::Scan("stocks".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pushdown_splits_conjuncts() {
        let sql = "SELECT * FROM stocks JOIN trades ON ticker = tkr \
                   WHERE price > 1 AND qty < 5 WITH QUALITY (price@age <= 3)";
        let with = plan_q(sql, true);
        assert!(with.has_filter_below_join());
        // all three conjuncts are single-side → no residual filter on top
        match &with {
            Plan::Join { left, right, .. } => {
                assert!(matches!(**left, Plan::Filter { .. }));
                assert!(matches!(**right, Plan::Filter { .. }));
            }
            other => panic!("expected join at top, got {other:?}"),
        }
        let without = plan_q(sql, false);
        assert!(!without.has_filter_below_join());
        match &without {
            Plan::Filter { input, .. } => assert!(matches!(**input, Plan::Join { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cross_side_conjunct_stays_above() {
        let sql = "SELECT * FROM stocks JOIN trades ON ticker = tkr WHERE price > qty";
        let p = plan_q(sql, true);
        match p {
            Plan::Filter { input, .. } => assert!(matches!(*input, Plan::Join { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prefixed_columns_push_correctly() {
        // l./r. prefixes resolve even for clashing names
        let sql = "SELECT * FROM stocks JOIN trades ON ticker = tkr WHERE l.price > 1";
        let p = plan_q(sql, true);
        match &p {
            Plan::Join { left, .. } => match &**left {
                Plan::Filter { predicate, .. } => {
                    assert_eq!(predicate.expr().referenced_columns(), vec!["price"]);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregate_plan() {
        let p = plan_q(
            "SELECT tkr, COUNT(*) AS n, SUM(qty) AS total FROM trades GROUP BY tkr",
            true,
        );
        match p {
            Plan::Aggregate { group_by, aggs, .. } => {
                assert_eq!(group_by, vec!["tkr"]);
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[0].output, "n");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregate_validation() {
        let stmt = parse("SELECT price, COUNT(*) FROM stocks GROUP BY ticker").unwrap();
        assert!(Planner::default().plan(&stmt, &catalog()).is_err());
        let stmt = parse("SELECT * FROM stocks GROUP BY ticker").unwrap();
        assert!(Planner::default().plan(&stmt, &catalog()).is_err());
    }

    #[test]
    fn order_limit_distinct_stack() {
        let p = plan_q(
            "SELECT DISTINCT ticker FROM stocks ORDER BY ticker DESC LIMIT 3",
            true,
        );
        match p {
            Plan::Limit { input, n } => {
                assert_eq!(n, 3);
                match *input {
                    Plan::Sort { input, keys } => {
                        assert_eq!(keys, vec![("ticker".to_owned(), false)]);
                        assert!(matches!(*input, Plan::Distinct { .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_table_rejected() {
        let stmt = parse("SELECT * FROM ghosts").unwrap();
        assert!(Planner::default().plan(&stmt, &catalog()).is_err());
    }

    #[test]
    fn operator_count_counts() {
        let p = plan_q("SELECT ticker FROM stocks WHERE price > 1 LIMIT 1", true);
        assert_eq!(p.operator_count(), 4); // scan, filter, project, limit
    }

    /// Catalog with actual tagged rows so access-path estimates are live.
    fn tagged_catalog() -> QueryCatalog {
        use tagstore::{IndicatorValue, QualityCell};
        let dict = IndicatorDictionary::with_paper_defaults();
        let mk = |t: &str, p: f64, src: &str| {
            vec![
                QualityCell::bare(t),
                QualityCell::bare(p).with_tag(IndicatorValue::new("source", src)),
            ]
        };
        let stocks = TaggedRelation::new(
            Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
            dict.clone(),
            vec![
                mk("FRT", 10.0, "NYSE feed"),
                mk("NUT", 20.0, "NYSE feed"),
                mk("BLT", 30.0, "manual entry"),
            ],
        )
        .unwrap();
        let trades = TaggedRelation::new(
            Schema::of(&[("tkr", DataType::Text), ("qty", DataType::Int)]),
            dict,
            vec![vec![QualityCell::bare("FRT"), QualityCell::bare(100i64)]],
        )
        .unwrap();
        let mut c = QueryCatalog::new();
        c.register("stocks", stocks);
        c.register("trades", trades);
        c
    }

    /// Stats source reporting a fixed estimate, for pinning the cutoff
    /// boundary without crafting an exact row distribution.
    struct FixedStats(f64);
    impl AccessPathStats for FixedStats {
        fn access_estimate(&self, _: &str, _: &Predicate) -> Option<(Vec<String>, f64)> {
            Some((vec!["price@source=NYSE feed".to_owned()], self.0))
        }
    }

    #[test]
    fn optimize_selects_index_scan_for_selective_quality_predicate() {
        let cat = tagged_catalog();
        let stmt =
            parse("SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')").unwrap();
        let planner = Planner::default();
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &cat);
        match &opt {
            Plan::IndexScan {
                table,
                atoms,
                est_selectivity,
                ..
            } => {
                assert_eq!(table, "stocks");
                assert_eq!(atoms, &vec!["price@source=manual entry".to_owned()]);
                assert!((est_selectivity - 1.0 / 3.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        let explain = opt.explain();
        assert!(
            explain.contains(
                "IndexScan table=stocks access=bitmap[price@source=manual entry] \
                 est_selectivity=0.3333"
            ),
            "{explain}"
        );
    }

    #[test]
    fn optimize_keeps_scan_when_unselective_or_disabled() {
        let cat = tagged_catalog();
        // 2 of 3 rows match → est 0.667, below the 0.9 cutoff → the
        // columnar indexed path still wins and the planner takes it.
        let stmt =
            parse("SELECT * FROM stocks WITH QUALITY (price@source = 'NYSE feed')").unwrap();
        let planner = Planner::default();
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &cat);
        assert!(matches!(opt, Plan::IndexScan { .. }), "{opt:?}");
        // every row matches → est 1.0 ≥ cutoff → the scan stays
        let stats = FixedStats(1.0);
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &stats);
        assert!(matches!(opt, Plan::Filter { .. }), "{opt:?}");
        // exactly at the cutoff the scan stays (strict comparison)
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &FixedStats(0.9));
        assert!(matches!(opt, Plan::Filter { .. }), "{opt:?}");
        // value-only predicate: no quality atoms → no index path
        let stmt = parse("SELECT * FROM stocks WHERE price > 5").unwrap();
        let vplan = planner.plan(&stmt, &cat).unwrap();
        assert_eq!(planner.optimize(vplan.clone(), &cat), vplan);
        // disabled planner is the identity
        let off = Planner {
            use_indexes: false,
            ..Planner::default()
        };
        let stmt =
            parse("SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')").unwrap();
        let p = off.plan(&stmt, &cat).unwrap();
        assert_eq!(off.optimize(p.clone(), &cat), p);
    }

    /// Pins the retuned access-path choice across the selectivity
    /// spectrum: 1% and 50% estimates take the bitmap path, 90% keeps
    /// the scan. Asserted through EXPLAIN so the test reads like what a
    /// user would see.
    #[test]
    fn explain_picks_path_by_selectivity_tier() {
        use tagstore::{IndicatorValue, QualityCell};
        let rows: Vec<Vec<QualityCell>> = (0..100i64)
            .map(|i| vec![QualityCell::bare(i).with_tag(IndicatorValue::new("age", i))])
            .collect();
        let rel = TaggedRelation::new(
            Schema::of(&[("v", DataType::Int)]),
            IndicatorDictionary::with_paper_defaults(),
            rows,
        )
        .unwrap();
        let mut cat = QueryCatalog::new();
        cat.register("t", rel);
        let planner = Planner::default();
        for (max_age, est, indexed) in [(0i64, 0.01, true), (49, 0.50, true), (89, 0.90, false)] {
            let stmt =
                parse(&format!("SELECT * FROM t WITH QUALITY (v@age <= {max_age})")).unwrap();
            let plan = planner.plan(&stmt, &cat).unwrap();
            let opt = planner.optimize(plan, &cat);
            let e = opt.explain();
            if indexed {
                assert!(
                    e.contains(&format!(
                        "IndexScan table=t access=bitmap[v@age<={max_age}] \
                         est_selectivity={est:.4}"
                    )),
                    "expected bitmap path at {est}:\n{e}"
                );
            } else {
                assert!(e.starts_with("Filter predicate="), "expected scan at {est}:\n{e}");
                assert!(e.contains("TableScan table=t access=scan"), "{e}");
            }
        }
    }

    #[test]
    fn optimize_probes_bare_right_scan_as_index_join() {
        let cat = tagged_catalog();
        let stmt = parse("SELECT * FROM stocks JOIN trades ON ticker = tkr").unwrap();
        let planner = Planner::default();
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &cat);
        match &opt {
            Plan::IndexJoin {
                left,
                right_table,
                left_key,
                right_key,
            } => {
                assert_eq!(**left, Plan::Scan("stocks".into()));
                assert_eq!(right_table, "trades");
                assert_eq!(left_key, "ticker");
                assert_eq!(right_key, "tkr");
            }
            other => panic!("{other:?}"),
        }
        assert!(opt
            .explain()
            .contains("IndexJoin on=ticker=tkr right=trades access=index(probe)"));
        assert_eq!(opt.operator_count(), 2); // index-join + left scan
    }

    /// Regression: planning a quality filter over a 0-row table must
    /// yield a *defined* estimate of 0.0 (an empty table is maximally
    /// selective) and take the index path — not an undefined estimate
    /// that fails the cutoff comparison and silently keeps the scan.
    /// Pins the full explain output.
    #[test]
    fn empty_table_explain_pins_zero_estimate() {
        let cat = catalog(); // both relations have zero rows
        let stmt =
            parse("SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')").unwrap();
        let planner = Planner::default();
        let plan = planner.plan(&stmt, &cat).unwrap();
        let opt = planner.optimize(plan, &cat);
        assert_eq!(
            opt.explain(),
            "IndexScan table=stocks access=bitmap[price@source=manual entry] \
             est_selectivity=0.0000 predicate=(price@source = 'manual entry')\n"
        );
    }

    /// A stats source that reports NaN (e.g. popcount / 0 rows computed
    /// outside the index's own guard) must not silently disable the
    /// index path: non-finite estimates clamp to 0.0.
    #[test]
    fn nan_estimate_clamps_to_zero() {
        struct NanStats;
        impl AccessPathStats for NanStats {
            fn access_estimate(&self, _: &str, _: &Predicate) -> Option<(Vec<String>, f64)> {
                Some((vec!["price@source=manual entry".to_owned()], f64::NAN))
            }
        }
        let stmt =
            parse("SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')").unwrap();
        let planner = Planner::default();
        let plan = planner.plan(&stmt, &catalog()).unwrap();
        match planner.optimize(plan, &NanStats) {
            Plan::IndexScan {
                est_selectivity, ..
            } => assert_eq!(est_selectivity, 0.0),
            other => panic!("NaN estimate kept the scan: {other:?}"),
        }
    }

    #[test]
    fn explain_renders_every_operator() {
        let p = plan_q(
            "SELECT DISTINCT ticker FROM stocks WHERE price > 1 ORDER BY ticker DESC LIMIT 3",
            true,
        );
        let e = p.explain();
        for needle in [
            "Limit n=3",
            "Sort keys=[ticker DESC]",
            "Distinct",
            "Project columns=[ticker]",
            "Filter predicate=(price > 1)",
            "TableScan table=stocks access=scan",
        ] {
            assert!(e.contains(needle), "missing {needle:?} in:\n{e}");
        }
        // one line per operator, children indented
        assert_eq!(e.lines().count(), p.operator_count());
        assert!(e.lines().last().unwrap().starts_with("          TableScan"));
    }
}
