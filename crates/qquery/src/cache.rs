//! Prepared-statement / plan cache: parse + plan once, re-execute many.
//!
//! This module is also *the* statement pipeline: every entry point —
//! a cache miss here, [`crate::run_with`], [`crate::explain`] — prepares
//! through `PreparedStatement::prepare` and runs through
//! [`PreparedStatement::execute`].
//!
//! The concurrent quality-query server receives the same small set of
//! query shapes from thousands of sessions; parsing and planning each
//! arrival from scratch wastes most of the per-request budget on point
//! queries. A [`PlanCache`] memoizes the *optimized* [`Plan`] keyed on
//! `(profile, normalized query text)` and stamped with the catalog
//! [`QueryCatalog::generation`] it was planned against. A hit skips the
//! lexer, parser, planner, and optimizer entirely; a registration
//! (and a `TAG`, which publishes a successor entry for the table it
//! wrote) advances the generation and lazily invalidates every cached
//! plan.
//!
//! Per-session `WITH QUALITY` defaults (from the session's `dq-core`
//! user profile) are injected **at prepare time** through a
//! [`QualityDefaultsProvider`], so the cached plan already embeds the
//! profile's constraints — which is why the profile name is part of the
//! cache key. A statement that spells its own `WITH QUALITY (...)`
//! clause opts out of injection: explicit wins over ambient.

use crate::ast::{SelectItem, Statement};
use crate::exec::{execute, execute_traced, QueryCatalog, QueryResult};
use crate::plan::{Plan, Planner};
use relstore::{DbError, DbResult, Expr};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use tagstore::{TaggedRelation, TAG_SEP};

/// Supplies ambient `WITH QUALITY` defaults for queries that do not
/// spell their own. The server binds each session's `dq-core`
/// `UserProfile` to this; embedded callers that want no defaults use
/// [`NoDefaults`].
pub trait QualityDefaultsProvider {
    /// The default quality predicate for `table`, or `None` when the
    /// profile places no constraint on any of its columns.
    fn default_quality(&self, catalog: &QueryCatalog, table: &str) -> Option<Expr>;

    /// Stable identity of this provider's constraint set, used as the
    /// cache-key component. Two providers with the same key **must**
    /// produce the same defaults.
    fn cache_key(&self) -> &str;
}

/// The no-defaults provider: every query runs exactly as written (the
/// paper's mass-mailing grade).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDefaults;

impl QualityDefaultsProvider for NoDefaults {
    fn default_quality(&self, _catalog: &QueryCatalog, _table: &str) -> Option<Expr> {
        None
    }
    fn cache_key(&self) -> &str {
        ""
    }
}

/// Collapses insignificant whitespace so textual variants of the same
/// statement share one cache entry: runs of whitespace outside
/// single-quoted strings become a single space, and the result is
/// trimmed. Quoted literals are preserved byte-for-byte (including `''`
/// escapes), and case is left alone — identifiers are case-sensitive,
/// and conflating `T` with `t` would let one table's plan answer for
/// another.
pub fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut in_string = false;
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if c == '\'' {
                // `''` escapes a quote inside the literal
                if chars.peek() == Some(&'\'') {
                    out.push(chars.next().unwrap());
                } else {
                    in_string = false;
                }
            }
            continue;
        }
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        out.push(c);
        if c == '\'' {
            in_string = true;
        }
    }
    out
}

/// What a prepared statement does when re-executed.
#[derive(Debug)]
enum PreparedShape {
    /// SELECT: run the cached plan, wrap as a table.
    Select(Plan),
    /// INSPECT: run the cached plan, render the paper-style report.
    Inspect(Plan),
    /// Plain EXPLAIN: the report was rendered at prepare time and is
    /// returned verbatim — a hit does no work at all.
    ExplainPlan(String),
    /// EXPLAIN ANALYZE: the cached plan re-executes (traced) per call;
    /// only parse + plan + optimize are amortized.
    ExplainAnalyze(Plan),
}

/// One parse+plan product, pinned to the catalog generation it was
/// planned against.
#[derive(Debug)]
pub struct PreparedStatement {
    shape: PreparedShape,
    /// [`QueryCatalog::generation`] at prepare time; a differing live
    /// generation means tables (and the index statistics the optimizer
    /// consulted) may have changed, so the plan must be rebuilt.
    pub generation: u64,
}

impl PreparedStatement {
    /// The one statement pipeline: indicator check → defaults injection
    /// → plan, binding each σ → optimize → shape. A statement-cache miss
    /// runs it with the default planner and the session's defaults;
    /// [`crate::run_with`], [`crate::explain`] and
    /// [`crate::explain_analyze`] run it with the caller's planner and
    /// [`NoDefaults`]. `TAG` statements are refused — they mutate
    /// the catalog and go through [`crate::run_mut`] or
    /// [`crate::prepare_write`].
    pub(crate) fn prepare(
        catalog: &QueryCatalog,
        mut stmt: Statement,
        defaults: &dyn QualityDefaultsProvider,
        planner: &Planner,
    ) -> DbResult<PreparedStatement> {
        check_indicators(&stmt, catalog)?;
        inject_defaults(&mut stmt, catalog, defaults);
        let optimized = || -> DbResult<Plan> {
            Ok(planner.optimize(planner.plan(&stmt, catalog)?, catalog))
        };
        let shape = match &stmt {
            Statement::Select(_) => PreparedShape::Select(optimized()?),
            Statement::Inspect { .. } => PreparedShape::Inspect(optimized()?),
            Statement::Explain { analyze: true, .. } => PreparedShape::ExplainAnalyze(optimized()?),
            Statement::Explain { analyze: false, .. } => {
                PreparedShape::ExplainPlan(optimized()?.explain())
            }
            Statement::Tag { .. } => {
                return Err(DbError::InvalidExpression(
                    "TAG mutates the catalog; use run_mut on the master copy".into(),
                ))
            }
        };
        Ok(PreparedStatement {
            shape,
            generation: catalog.generation(),
        })
    }

    /// Executes against `catalog` (normally the same snapshot family the
    /// statement was prepared on; the generation guard in
    /// [`PlanCache::prepare`] enforces that for cached entries).
    pub fn execute(&self, catalog: &QueryCatalog) -> DbResult<QueryResult> {
        match &self.shape {
            PreparedShape::Select(plan) => Ok(QueryResult::Table(execute(catalog, plan)?)),
            PreparedShape::Inspect(plan) => {
                let rel = execute(catalog, plan)?;
                Ok(QueryResult::Inspection {
                    report: rel.to_paper_table(),
                    rows: rel,
                })
            }
            PreparedShape::ExplainPlan(report) => Ok(QueryResult::Explain {
                report: report.clone(),
                rows: None,
            }),
            PreparedShape::ExplainAnalyze(plan) => {
                let (rel, trace) = execute_traced(catalog, plan)?;
                Ok(QueryResult::Explain {
                    report: trace.render(),
                    rows: Some(rel),
                })
            }
        }
    }
}

/// Rejects a statement naming a `col@indicator[@meta…]` whose indicators
/// the dictionary of the relation `col` belongs to does not declare —
/// with the error `TAG` gives for the same name — instead of letting the
/// read see an untagged (NULL) cell everywhere. Runs on the statement as
/// written, before profile defaults are injected; a column that resolves
/// to no table is left for the planner to report.
fn check_indicators(stmt: &Statement, catalog: &QueryCatalog) -> DbResult<()> {
    let (tables, names): (Vec<&str>, Vec<&str>) = match stmt {
        Statement::Select(q) => {
            let mut names: Vec<&str> = Vec::new();
            for item in &q.items {
                match item {
                    SelectItem::Column { name, .. } => names.push(name),
                    SelectItem::Aggregate {
                        column: Some(c), ..
                    } => names.push(c),
                    _ => {}
                }
            }
            let exprs = q.where_clause.iter().chain(&q.quality).chain(&q.having);
            names.extend(exprs.flat_map(Expr::referenced_columns));
            names.extend(q.group_by.iter().map(String::as_str));
            names.extend(q.order_by.iter().map(|o| o.column.as_str()));
            let mut tables = vec![q.table.as_str()];
            tables.extend(q.join.as_ref().map(|j| j.table.as_str()));
            (tables, names)
        }
        Statement::Inspect { table, filter } => (
            vec![table.as_str()],
            filter.iter().flat_map(Expr::referenced_columns).collect(),
        ),
        Statement::Explain { inner, .. } => return check_indicators(inner, catalog),
        Statement::Tag { .. } => return Ok(()),
    };
    let mut bound = Vec::with_capacity(tables.len());
    for name in names {
        let Some((column, path)) = TaggedRelation::split_pseudo(name) else {
            continue;
        };
        if bound.is_empty() {
            for t in &tables {
                bound.push(catalog.schema_and_dictionary(t)?);
            }
        }
        // a join prefixes clashing names `l.` / `r.`
        let owner = match (column.split_once('.'), bound.len()) {
            (Some(("l", c)), 2) => bound[..1].iter().find(|(s, _)| s.index_of(c).is_some()),
            (Some(("r", c)), 2) => bound[1..].iter().find(|(s, _)| s.index_of(c).is_some()),
            _ => {
                let mut sides = bound.iter().filter(|(s, _)| s.index_of(column).is_some());
                sides.next().filter(|_| sides.next().is_none())
            }
        };
        let Some((_, dict)) = owner else {
            continue;
        };
        if let Some(ind) = path.split(TAG_SEP).find(|ind| dict.get(ind).is_none()) {
            return Err(DbError::InvalidExpression(format!(
                "undeclared indicator `{ind}`"
            )));
        }
    }
    Ok(())
}

/// Injects the provider's default quality predicate into a statement
/// that has no explicit `WITH QUALITY` clause. Defaults apply to the
/// base table and (independently) the join table of a SELECT, and to
/// the SELECT inside an EXPLAIN; INSPECT and TAG are administrator
/// statements that must see the data as stored, so they are never
/// filtered by ambient defaults.
fn inject_defaults(
    stmt: &mut Statement,
    catalog: &QueryCatalog,
    defaults: &dyn QualityDefaultsProvider,
) {
    match stmt {
        Statement::Select(q) => {
            if !q.quality.is_empty() {
                return; // explicit WITH QUALITY wins
            }
            if let Some(d) = defaults.default_quality(catalog, &q.table) {
                q.quality.push(d);
            }
            if let Some(j) = &q.join {
                if let Some(d) = defaults.default_quality(catalog, &j.table) {
                    q.quality.push(d);
                }
            }
        }
        Statement::Explain { inner, .. } => inject_defaults(inner, catalog, defaults),
        Statement::Inspect { .. } | Statement::Tag { .. } => {}
    }
}

/// A prepared statement paired with the exact catalog snapshot its
/// generation was validated against.
///
/// [`PlanCache::prepare`] used to return the bare plan, leaving the
/// caller to execute it against whatever catalog it held — a TOCTOU: a
/// publish landing between the generation check and the execution let
/// a plan validated on generation N run against generation N+1.
/// Binding the snapshot (one `Arc` clone) makes the pair atomic:
/// [`BoundStatement::run`] always executes on the state that validated
/// the plan, no matter what publishes in between.
#[derive(Debug)]
pub struct BoundStatement {
    stmt: Arc<PreparedStatement>,
    snapshot: QueryCatalog,
}

impl BoundStatement {
    /// Executes against the bound snapshot.
    pub fn run(&self) -> DbResult<QueryResult> {
        self.stmt.execute(&self.snapshot)
    }
}

/// LRU-ish (FIFO-evicting) prepared-statement cache with generation
/// invalidation and `server.stmt_cache.*` metrics.
#[derive(Debug)]
pub struct PlanCache {
    entries: HashMap<(String, String), Arc<PreparedStatement>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<(String, String)>,
    capacity: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(256)
    }
}

impl PlanCache {
    /// Cache holding at most `capacity` prepared statements (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Drops every entry (e.g. after a bulk catalog reload).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Returns the prepared statement for `sql` under `defaults`,
    /// planning it if absent or stale, **bound to the snapshot it was
    /// validated against**. The generation check and the eventual
    /// execution are two separate moments; binding the snapshot into
    /// the returned [`BoundStatement`] closes the window where a
    /// republish lands in between and a plan validated against one
    /// catalog executes against another. `TAG` statements are refused —
    /// they mutate the catalog and must go through [`crate::run_mut`]
    /// (or the MVCC write path), never a cached plan.
    pub fn prepare(
        &mut self,
        catalog: &QueryCatalog,
        sql: &str,
        defaults: &dyn QualityDefaultsProvider,
    ) -> DbResult<BoundStatement> {
        let key = (defaults.cache_key().to_owned(), normalize(sql));
        if let Some(entry) = self.entries.get(&key) {
            if entry.generation == catalog.generation() {
                dq_obs::counter!("server.stmt_cache.hits").incr();
                return Ok(BoundStatement {
                    stmt: Arc::clone(entry),
                    snapshot: catalog.snapshot(),
                });
            }
            // Stale plan: the catalog changed under it. Rebuild below.
            dq_obs::counter!("server.stmt_cache.invalidations").incr();
            self.remove(&key);
        }
        dq_obs::counter!("server.stmt_cache.misses").incr();
        let stmt = crate::parser::parse(sql)?;
        let planner = Planner::default();
        let prepared = Arc::new(PreparedStatement::prepare(catalog, stmt, defaults, &planner)?);
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                dq_obs::counter!("server.stmt_cache.evictions").incr();
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, Arc::clone(&prepared));
        Ok(BoundStatement {
            stmt: prepared,
            snapshot: catalog.snapshot(),
        })
    }

    /// Prepare (cached) and execute in one step, against the snapshot
    /// the statement was validated on.
    pub fn execute(
        &mut self,
        catalog: &QueryCatalog,
        sql: &str,
        defaults: &dyn QualityDefaultsProvider,
    ) -> DbResult<QueryResult> {
        self.prepare(catalog, sql, defaults)?.run()
    }

    /// Drops the entry for `sql` under `defaults`, if cached — e.g. the
    /// plan of a statement whose execution panicked.
    pub fn evict(&mut self, sql: &str, defaults: &dyn QualityDefaultsProvider) {
        self.remove(&(defaults.cache_key().to_owned(), normalize(sql)));
    }

    fn remove(&mut self, key: &(String, String)) {
        self.entries.remove(key);
        self.order.retain(|k| k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use relstore::{DataType, Schema};
    use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

    /// Fixed per-table default predicates under one cache key.
    struct TableDefaults {
        key: String,
        by_table: HashMap<String, Expr>,
    }

    impl TableDefaults {
        fn new(key: &str) -> Self {
            TableDefaults {
                key: key.into(),
                by_table: HashMap::new(),
            }
        }

        fn with(mut self, table: &str, predicate: Expr) -> Self {
            self.by_table.insert(table.into(), predicate);
            self
        }
    }

    impl QualityDefaultsProvider for TableDefaults {
        fn default_quality(&self, _catalog: &QueryCatalog, table: &str) -> Option<Expr> {
            self.by_table.get(table).cloned()
        }
        fn cache_key(&self) -> &str {
            &self.key
        }
    }

    fn catalog() -> QueryCatalog {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let rows = (0..20)
            .map(|i| {
                let mut cell = QualityCell::bare(i * 10);
                if i % 2 == 0 {
                    cell.set_tag(IndicatorValue::new("age", i));
                }
                vec![QualityCell::bare(i), cell]
            })
            .collect();
        let rel = TaggedRelation::new(schema, dict, rows).unwrap();
        let mut c = QueryCatalog::new();
        c.register("t", rel);
        c
    }

    /// The `server.stmt_cache.*` counters are process-wide and several
    /// tests assert exact deltas, so every test that drives a
    /// [`PlanCache`] holds this for its duration.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn hits() -> u64 {
        dq_obs::counter!("server.stmt_cache.hits").get()
    }
    fn misses() -> u64 {
        dq_obs::counter!("server.stmt_cache.misses").get()
    }

    #[test]
    fn normalize_collapses_whitespace_outside_strings() {
        assert_eq!(
            normalize("  SELECT *\n\tFROM   t  "),
            "SELECT * FROM t"
        );
        // quoted literals keep their spacing; doubled quotes stay inside
        assert_eq!(
            normalize("SELECT * FROM t WHERE s =  'a  b''c  d'"),
            "SELECT * FROM t WHERE s = 'a  b''c  d'"
        );
        assert_eq!(normalize("a b"), normalize("a\n\n   b"));
        assert_ne!(normalize("a b"), normalize("A B"));
    }

    #[test]
    fn repeat_query_hits_cache_and_matches_uncached() {
        let _serial = serial();
        let c = catalog();
        let mut cache = PlanCache::new(8);
        let sql = "SELECT * FROM t WHERE k >= 5";
        let (h0, m0) = (hits(), misses());
        let first = cache.execute(&c, sql, &NoDefaults).unwrap();
        // textual variant of the same statement shares the entry
        let second = cache
            .execute(&c, "SELECT  *  FROM t\nWHERE k >= 5", &NoDefaults)
            .unwrap();
        assert_eq!(misses() - m0, 1);
        assert_eq!(hits() - h0, 1);
        assert_eq!(first, second);
        assert_eq!(first, run(&c, sql).unwrap());
    }

    #[test]
    fn registration_invalidates_cached_plans() {
        let _serial = serial();
        let mut c = catalog();
        let mut cache = PlanCache::new(8);
        let sql = "SELECT * FROM t";
        assert_eq!(cache.execute(&c, sql, &NoDefaults).unwrap().relation().len(), 20);
        // replace the table: the cached plan must be rebuilt, not reused
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rel = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![vec![QualityCell::bare(1i64), QualityCell::bare(2i64)]],
        )
        .unwrap();
        c.register("t", rel);
        let inv0 = dq_obs::counter!("server.stmt_cache.invalidations").get();
        assert_eq!(cache.execute(&c, sql, &NoDefaults).unwrap().relation().len(), 1);
        assert_eq!(
            dq_obs::counter!("server.stmt_cache.invalidations").get() - inv0,
            1
        );
    }

    #[test]
    fn defaults_injected_only_without_explicit_quality() {
        let _serial = serial();
        let c = catalog();
        let mut cache = PlanCache::new(8);
        let strict =
            TableDefaults::new("strict").with("t", Expr::col("v@age").le(Expr::lit(6i64)));
        // rows 0..=6 even have age tags 0,2,4,6 → 4 rows pass
        let with_defaults = cache
            .execute(&c, "SELECT * FROM t", &strict)
            .unwrap();
        assert_eq!(with_defaults.relation().len(), 4);
        // explicit WITH QUALITY suppresses the ambient default
        let explicit = cache
            .execute(
                &c,
                "SELECT * FROM t WITH QUALITY (v@age >= 0)",
                &strict,
            )
            .unwrap();
        assert_eq!(explicit.relation().len(), 10);
        // and the two profiles do not share cache entries
        let open = cache.execute(&c, "SELECT * FROM t", &NoDefaults).unwrap();
        assert_eq!(open.relation().len(), 20);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let _serial = serial();
        let c = catalog();
        let mut cache = PlanCache::new(2);
        cache.execute(&c, "SELECT * FROM t WHERE k = 1", &NoDefaults).unwrap();
        cache.execute(&c, "SELECT * FROM t WHERE k = 2", &NoDefaults).unwrap();
        cache.execute(&c, "SELECT * FROM t WHERE k = 3", &NoDefaults).unwrap();
        assert_eq!(cache.entries.len(), 2);
        let (h0, m0) = (hits(), misses());
        // oldest entry (k = 1) was evicted → miss; k = 3 still cached → hit
        cache.execute(&c, "SELECT * FROM t WHERE k = 1", &NoDefaults).unwrap();
        cache.execute(&c, "SELECT * FROM t WHERE k = 3", &NoDefaults).unwrap();
        assert_eq!(misses() - m0, 1);
        assert_eq!(hits() - h0, 1);
    }

    #[test]
    fn bound_statement_survives_republish_between_prepare_and_execute() {
        let _serial = serial();
        // the stmt-cache TOCTOU: validate on generation N, publish N+1,
        // then execute. The bound snapshot must pin generation N.
        let mut c = catalog();
        let mut cache = PlanCache::new(8);
        let sql = "SELECT * FROM t";
        cache.execute(&c, sql, &NoDefaults).unwrap(); // warm: next prepare hits
        let bound = cache.prepare(&c, sql, &NoDefaults).unwrap();
        // a publish lands between lookup and execution
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rel = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![vec![QualityCell::bare(1i64), QualityCell::bare(2i64)]],
        )
        .unwrap();
        c.register("t", rel);
        // the validated plan runs on the state that validated it
        assert_eq!(bound.snapshot.generation() + 1, c.generation());
        assert_eq!(bound.run().unwrap().relation().len(), 20);
        // a fresh execute re-validates and sees the new state
        assert_eq!(cache.execute(&c, sql, &NoDefaults).unwrap().relation().len(), 1);
    }

    #[test]
    fn tag_statements_are_refused() {
        let _serial = serial();
        let c = catalog();
        let mut cache = PlanCache::new(8);
        assert!(cache
            .prepare(&c, "TAG t SET v@age = 1", &NoDefaults)
            .is_err());
    }

    #[test]
    fn explain_and_inspect_shapes_cache() {
        let _serial = serial();
        let c = catalog();
        let mut cache = PlanCache::new(8);
        let plain = cache
            .execute(&c, "EXPLAIN SELECT * FROM t WHERE k = 1", &NoDefaults)
            .unwrap();
        assert!(plain.report().unwrap().contains("Scan"));
        let analyzed = cache
            .execute(&c, "EXPLAIN ANALYZE SELECT * FROM t WHERE k = 1", &NoDefaults)
            .unwrap();
        assert_eq!(analyzed.relation().len(), 1);
        let inspected = cache.execute(&c, "INSPECT FROM t", &NoDefaults).unwrap();
        assert_eq!(inspected.relation().len(), 20);
        assert_eq!(
            inspected,
            run(&c, "INSPECT FROM t").unwrap()
        );
    }
}
