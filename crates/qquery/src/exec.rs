//! Plan execution over a catalog of tagged relations.

use crate::ast::Statement;
use crate::cache::{NoDefaults, PreparedStatement};
use crate::plan::{AccessPathStats, Plan, Planner};
use relstore::algebra::AggCall;
use relstore::index::HashIndex;
use relstore::{DataType, DbError, DbResult, Expr, Schema, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock};
use tagstore::algebra::{self, TagPolicy, TagRule};
use tagstore::bitmap::QualityIndex;
use tagstore::columnar::ColumnarRelation;
use tagstore::{
    selection_columnar, selection_indexed_columnar, selection_within_columnar, BatchStats, Bitset,
    ColumnarView, IndicatorDictionary, JoinPairs, Predicate, QualityCell, TaggedRelation,
    TaggedRow, ViewSource, DEFAULT_BATCH_SIZE,
};

/// Page-level I/O counters a [`PagedProvider`] reports for one indexed
/// select: how many pages were fetched, how many of those were already
/// resident in the buffer pool, and how many heap pages held candidate
/// rows (the page-skipping denominator). Surfaces in `EXPLAIN ANALYZE`
/// as `pages_read=`/`pool_hits=` annotations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedScanStats {
    /// Pages fetched from disk or found resident during the select.
    pub pages_read: u64,
    /// Of those, pages served from the buffer pool without I/O.
    pub pool_hits: u64,
    /// Heap pages holding at least one candidate row.
    pub candidate_pages: u64,
}

/// A base table living in paged (larger-than-RAM) storage, served
/// through whatever owns the buffer pool — typically the `dq-server`
/// session layer wrapping a `DurableDb`. The executor never sees pages;
/// it asks for whole (small) results and page-level stats.
///
/// Registered via [`QueryCatalog::register_paged`]; the planner routes
/// index-eligible filters to [`Plan::PagedIndexScan`] and everything
/// else to streaming scans.
pub trait PagedProvider: Send + Sync + std::fmt::Debug {
    /// Application schema of the paged relation.
    fn schema(&self) -> DbResult<Schema>;
    /// The indicator dictionary the relation's tags are declared in.
    fn dictionary(&self) -> DbResult<IndicatorDictionary>;
    /// Current row count.
    fn row_count(&self) -> DbResult<u64>;
    /// Full materialization (streamed through the pool with
    /// scan-resistant admission).
    fn scan(&self) -> DbResult<TaggedRelation>;
    /// Streaming σ: every page visited once, rows filtered on the fly.
    fn select(&self, predicate: &Expr) -> DbResult<TaggedRelation>;
    /// Index-driven σ: bitmap candidates → sorted page fetch with
    /// readahead → residual re-check. Byte-identical to
    /// [`PagedProvider::select`].
    fn select_indexed(&self, predicate: &Expr) -> DbResult<(TaggedRelation, PagedScanStats)>;
    /// Planner estimate: rendered index-answerable atoms plus the
    /// estimated matching fraction, `None` when nothing is sargable.
    fn access_estimate(&self, predicate: &Expr) -> Option<(Vec<String>, f64)>;
}

/// One registered table and **all** of its physical access paths, bound
/// together so they can never go stale against each other: the columnar
/// layout, the quality bitmap index, and the per-key hash indexes are
/// built lazily *from this entry's own relation* and share its lifetime.
/// [`QueryCatalog::register`] replaces the whole entry in one `Arc`
/// swap — there is no window where a new relation pairs with a cached
/// index over the old one (or vice versa), which is the invariant the
/// concurrent-session snapshots rely on. A `TAG` replaces it with its
/// [`TableEntry::successor`], whose access paths are this entry's with
/// the write's delta applied.
#[derive(Debug)]
struct TableEntry {
    rel: TaggedRelation,
    columnar: OnceLock<Arc<ColumnarRelation>>,
    quality_index: OnceLock<Arc<QualityIndex>>,
    /// Shared along a lineage of tag-only successors: a key index maps
    /// one column's application values (by ordinal) to row positions,
    /// and a `TAG` changes neither.
    key_indexes: Arc<RwLock<HashMap<usize, Arc<HashIndex>>>>,
}

impl TableEntry {
    fn new(rel: TaggedRelation) -> Self {
        TableEntry {
            rel,
            columnar: OnceLock::new(),
            quality_index: OnceLock::new(),
            key_indexes: Arc::default(),
        }
    }

    /// The entry a tag-only write publishes in this one's place: `rel`
    /// is this entry's relation with `tags` applied — same application
    /// values, same row positions. The key hash indexes are shared as
    /// they are. The bitmap index, when this entry has built one, is
    /// carried as a shallow clone with each triple retagged (the old
    /// value read from this entry's relation); copy-on-write postings
    /// leave this entry's own index, and every reader pinned on it,
    /// untouched. The columnar layout stays lazy.
    fn successor(
        &self,
        rel: TaggedRelation,
        tags: &[(usize, String, tagstore::IndicatorValue)],
    ) -> DbResult<TableEntry> {
        let quality_index = match self.quality_index.get() {
            Some(built) => {
                let mut idx = QualityIndex::clone(built);
                for (row, column, tag) in tags {
                    let ci = self.rel.schema().resolve(column)?;
                    let old = self.rel.cell(*row, column)?.tag_sym(&tag.indicator);
                    idx.retag(*row, ci, old.map(|t| &t.value), &tag.indicator, &tag.value);
                }
                OnceLock::from(Arc::new(idx))
            }
            None => OnceLock::new(),
        };
        Ok(TableEntry {
            rel,
            columnar: OnceLock::new(),
            quality_index,
            key_indexes: Arc::clone(&self.key_indexes),
        })
    }

    /// Columnar layout, converted on first use and shared by every
    /// snapshot holding this entry. After initialization this is a
    /// single atomic load — no lock on the read hot path.
    fn columnar(&self) -> Arc<ColumnarRelation> {
        Arc::clone(
            self.columnar
                .get_or_init(|| Arc::new(ColumnarRelation::from_tagged(&self.rel))),
        )
    }

    /// Quality bitmap index, built on first use (same sharing and
    /// lock-freedom as [`TableEntry::columnar`]).
    fn quality_index(&self) -> Arc<QualityIndex> {
        Arc::clone(
            self.quality_index
                .get_or_init(|| Arc::new(QualityIndex::build(&self.rel))),
        )
    }

    /// Hash index over column `ci`'s application values, positions in
    /// row order: a keyed σ's lookup, and the index an `IndexJoin`'s
    /// [`JoinPairs::probe`] reads.
    fn key_index(&self, ci: usize) -> Arc<HashIndex> {
        if let Some(idx) = self.key_indexes.read().unwrap().get(&ci) {
            return Arc::clone(idx);
        }
        let keys: Vec<relstore::Row> = self
            .rel
            .rows()
            .iter()
            .map(|r| vec![r[ci].value.clone()])
            .collect();
        let mut idx = HashIndex::new(vec![0]);
        idx.rebuild(&keys);
        let idx = Arc::new(idx);
        self.key_indexes.write().unwrap().insert(ci, Arc::clone(&idx));
        idx
    }
}

/// A named collection of tagged relations queries run against.
///
/// The catalog also owns the physical access paths: per-table quality
/// bitmap indexes, columnar layouts, and per-(table, key) hash indexes,
/// built lazily on first use. Each table lives in one [`TableEntry`]
/// holding the relation *and* its caches, so
/// [`QueryCatalog::register`] invalidates all of them atomically — the
/// entry is replaced in a single `Arc` swap. A `TAG`
/// ([`TagWrite::apply`]) swaps in a successor entry that inherits them
/// with its delta applied instead.
///
/// ## Snapshots (clone-on-publish)
///
/// `Clone` is cheap (one `Arc` clone of the name → entry map) and
/// produces an immutable **read snapshot**: concurrent readers run
/// whole queries against their own clone without taking any lock, and
/// lazily-built access paths are shared across every snapshot holding
/// the same entry. `register` on one clone follows copy-on-write — it
/// rebuilds the (small) name map and bumps that clone's
/// [`QueryCatalog::generation`], leaving other clones untouched. The
/// `dq-server` session layer publishes the writer's clone to readers
/// and uses the generation to invalidate its prepared-statement cache.
#[derive(Debug, Clone, Default)]
pub struct QueryCatalog {
    tables: Arc<HashMap<String, Arc<TableEntry>>>,
    /// Paged (larger-than-RAM) tables, served through a
    /// [`PagedProvider`] instead of a resident [`TableEntry`]. Disjoint
    /// from `tables` by construction: registering a name in one map
    /// removes it from the other.
    paged: Arc<HashMap<String, Arc<dyn PagedProvider>>>,
    generation: u64,
}

impl QueryCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a relation. The table's entry — relation
    /// plus every cached access path over it — is replaced in one `Arc`
    /// swap, and the catalog generation advances so plan caches keyed on
    /// it know to re-plan. Existing clones (snapshots) are unaffected.
    pub fn register(&mut self, name: impl Into<String>, rel: TaggedRelation) {
        let name = name.into();
        if self.paged.contains_key(&name) {
            let mut paged: HashMap<String, Arc<dyn PagedProvider>> = (*self.paged).clone();
            paged.remove(&name);
            self.paged = Arc::new(paged);
        }
        self.install(name, TableEntry::new(rel));
    }

    /// Swaps `entry` in under `name` (copy-on-write of the name map) and
    /// advances the generation.
    fn install(&mut self, name: String, entry: TableEntry) {
        let mut tables: HashMap<String, Arc<TableEntry>> = (*self.tables).clone();
        tables.insert(name, Arc::new(entry));
        self.tables = Arc::new(tables);
        self.generation += 1;
    }

    /// Registers (or replaces) a **paged** table served through
    /// `provider`. Queries route through [`Plan::PagedIndexScan`] /
    /// streaming paged scans instead of the resident access paths; the
    /// generation advances just like [`QueryCatalog::register`] so plan
    /// caches re-plan against the new entry.
    pub fn register_paged(&mut self, name: impl Into<String>, provider: Arc<dyn PagedProvider>) {
        let name = name.into();
        if self.tables.contains_key(&name) {
            let mut tables: HashMap<String, Arc<TableEntry>> = (*self.tables).clone();
            tables.remove(&name);
            self.tables = Arc::new(tables);
        }
        let mut paged: HashMap<String, Arc<dyn PagedProvider>> = (*self.paged).clone();
        paged.insert(name, provider);
        self.paged = Arc::new(paged);
        self.generation += 1;
    }

    /// True iff `name` is registered as a paged table.
    pub fn is_paged_table(&self, name: &str) -> bool {
        self.paged.contains_key(name)
    }

    /// The provider behind a paged table.
    fn paged_provider(&self, name: &str) -> DbResult<&Arc<dyn PagedProvider>> {
        self.paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Monotone registration counter: bumped by every
    /// [`QueryCatalog::register`], compared by the prepared-statement
    /// cache to decide whether a cached plan is still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A cheap immutable read snapshot — alias for `clone`, named for
    /// call sites where the intent is "pin the catalog for this query".
    pub fn snapshot(&self) -> QueryCatalog {
        self.clone()
    }

    /// True iff `table` resolves to the *same* entry (`Arc` identity,
    /// not value equality) in both catalogs — i.e. neither side has
    /// replaced it (a registration, or a `TAG`'s successor entry) since
    /// the snapshots diverged. This is
    /// the conflict check MVCC writers use: a [`TagWrite`] prepared
    /// against `other` can be installed into `self` verbatim when the
    /// entries are identical, and must be re-applied otherwise.
    pub fn same_entry(&self, other: &QueryCatalog, table: &str) -> bool {
        match (self.tables.get(table), other.tables.get(table)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> DbResult<&TaggedRelation> {
        self.tables
            .get(name)
            .map(|e| &e.rel)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Registered names — resident and paged — sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .tables
            .keys()
            .chain(self.paged.keys())
            .map(String::as_str)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Schema and indicator dictionary of a resident or paged table —
    /// what a statement's `col@indicator` names are checked and bound
    /// against.
    pub fn schema_and_dictionary(
        &self,
        name: &str,
    ) -> DbResult<(Schema, Cow<'_, IndicatorDictionary>)> {
        if let Some(p) = self.paged.get(name) {
            return Ok((p.schema()?, Cow::Owned(p.dictionary()?)));
        }
        let rel = self.get(name)?;
        Ok((rel.schema().clone(), Cow::Borrowed(rel.dictionary())))
    }

    /// The resident table's entry: its relation plus the lazily built
    /// access paths (columnar layout, bitmap index, key hash indexes).
    fn entry(&self, table: &str) -> DbResult<&Arc<TableEntry>> {
        self.tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_owned()))
    }

}

impl AccessPathStats for QueryCatalog {
    fn access_estimate(&self, table: &str, predicate: &Predicate) -> Option<(Vec<String>, f64)> {
        if let Some(p) = self.paged.get(table) {
            return p.access_estimate(predicate.expr());
        }
        let entry = self.tables.get(table)?;
        let atoms = predicate.atoms();
        if atoms.is_empty() {
            return None;
        }
        let est = entry.quality_index().estimate(atoms)?;
        Some((atoms.iter().map(|a| a.to_string()).collect(), est))
    }

    fn is_paged(&self, table: &str) -> bool {
        self.paged.contains_key(table)
    }
}

/// A statement's tabular answer: rows, or — for a σ or ⋈ over resident
/// tables, and a π over either — a [`ColumnarView`] of the layouts they
/// read. [`Answer::to_paper_table`] renders a view from the layouts; its
/// rows are built once, when a caller first derefs the answer to a
/// [`TaggedRelation`].
#[derive(Debug, Clone)]
pub struct Answer {
    view: Option<ColumnarView>,
    rows: OnceLock<TaggedRelation>,
}

impl Answer {
    /// The answer's paper-table rendering (see
    /// [`TaggedRelation::to_paper_table`]), from the view when there is one.
    pub fn to_paper_table(&self) -> String {
        match &self.view {
            Some(view) => view.to_paper_table(),
            None => self.deref().to_paper_table(),
        }
    }
}

impl From<TaggedRelation> for Answer {
    fn from(rel: TaggedRelation) -> Self {
        Answer { view: None, rows: OnceLock::from(rel) }
    }
}

impl From<ColumnarView> for Answer {
    fn from(view: ColumnarView) -> Self {
        Answer { view: Some(view), rows: OnceLock::new() }
    }
}

impl Deref for Answer {
    type Target = TaggedRelation;

    fn deref(&self) -> &TaggedRelation {
        let gather = || self.view.as_ref().expect("an answer holds rows or a view").gather();
        self.rows.get_or_init(gather)
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A tagged relation (SELECT).
    Table(Answer),
    /// A rendered inspection report (INSPECT) plus the underlying rows.
    Inspection {
        /// Paper-style rendering with tags in parentheses.
        report: String,
        /// The inspected rows.
        rows: Answer,
    },
    /// EXPLAIN output: the rendered plan, or — for `EXPLAIN ANALYZE` —
    /// the execution trace annotated with actual rows, timings, and
    /// estimate error.
    Explain {
        /// Rendered plan (EXPLAIN) or annotated trace (EXPLAIN ANALYZE).
        report: String,
        /// Result rows; `Some` only for ANALYZE (the plan was executed).
        rows: Option<Answer>,
    },
}

impl QueryResult {
    /// The tabular content of the result.
    ///
    /// # Panics
    ///
    /// For a plain `EXPLAIN` (no ANALYZE) result, which carries no rows —
    /// use [`QueryResult::report`] for those.
    pub fn relation(&self) -> &TaggedRelation {
        match self {
            QueryResult::Table(t) => t,
            QueryResult::Inspection { rows, .. } => rows,
            QueryResult::Explain { rows: Some(r), .. } => r,
            QueryResult::Explain { rows: None, .. } => {
                panic!("EXPLAIN without ANALYZE produces no rows; read report() instead")
            }
        }
    }

    /// The rendered report, for INSPECT and EXPLAIN results.
    pub fn report(&self) -> Option<&str> {
        match self {
            QueryResult::Table(_) => None,
            QueryResult::Inspection { report, .. } | QueryResult::Explain { report, .. } => {
                Some(report)
            }
        }
    }
}

/// Per-operator execution trace produced by `EXPLAIN ANALYZE` (and by
/// [`execute_traced`] directly).
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// The operator's EXPLAIN line — identical text to [`Plan::explain`],
    /// so the analyzed tree reads like the plain plan plus annotations.
    pub label: String,
    /// Rows this operator produced.
    pub rows_out: usize,
    /// Wall-clock time spent in this operator, excluding children.
    pub elapsed: std::time::Duration,
    /// Planner-estimated matching fraction (index access paths only).
    pub est_selectivity: Option<f64>,
    /// Observed matching fraction `rows_out / rows_in` (filtering and
    /// joining operators; `0.0` when no rows entered).
    pub actual_selectivity: Option<f64>,
    /// Number of row batches this operator processed (columnar
    /// operators only; `None` for row-at-a-time operators).
    pub batches: Option<usize>,
    /// Batch width the columnar operator ran with (`None` when
    /// `batches` is `None`).
    pub batch_size: Option<usize>,
    /// Physical layout the operator executed over: `Some("columnar")`
    /// for operators that ran the columnar kernels (contiguous typed
    /// column arrays + tag runs), `Some("paged")` for paged tables,
    /// `None` for row-at-a-time operators.
    pub layout: Option<&'static str>,
    /// Pages fetched through the buffer pool (paged operators only;
    /// `None` for resident tables).
    pub pages_read: Option<u64>,
    /// Of `pages_read`, pages served without I/O (paged operators only).
    pub pool_hits: Option<u64>,
    /// The key column whose hash index answered this σ as a point
    /// lookup (`col = literal`) instead of a scan; `batches`/`layout`
    /// are `None` then — no batch ran and no columnar layout was read.
    pub point_lookup: Option<String>,
    /// What a γ read — a join's `pairs`, a `columnar` layout as it lies,
    /// or a `lifted` one built from rows — and how many groups it made.
    pub aggregate: Option<(&'static str, usize)>,
    /// Child traces in plan order.
    pub children: Vec<OpTrace>,
}

impl OpTrace {
    /// Renders the annotated operator tree, one line per operator,
    /// children indented two spaces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{} | rows={} elapsed={}µs",
            self.label,
            self.rows_out,
            self.elapsed.as_micros()
        );
        match (self.est_selectivity, self.actual_selectivity) {
            (Some(est), Some(actual)) => {
                let _ = write!(
                    out,
                    " est_selectivity={est:.4} actual_selectivity={actual:.4} err={:+.4}",
                    actual - est
                );
            }
            (None, Some(actual)) => {
                let _ = write!(out, " actual_selectivity={actual:.4}");
            }
            _ => {}
        }
        if let (Some(batches), Some(batch_size)) = (self.batches, self.batch_size) {
            let _ = write!(out, " batches={batches} batch_size={batch_size}");
        }
        if let Some(layout) = self.layout {
            let _ = write!(out, " layout={layout}");
        }
        if let Some(pages) = self.pages_read {
            let _ = write!(out, " pages_read={pages}");
        }
        if let Some(hits) = self.pool_hits {
            let _ = write!(out, " pool_hits={hits}");
        }
        if let Some(key) = &self.point_lookup {
            let _ = write!(out, " point_lookup={key}");
        }
        if let Some((source, groups)) = self.aggregate {
            let _ = write!(out, " source={source} groups={groups}");
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Default tag-derivation policies for aggregates produced by queries:
/// a derived figure is as *old* as its oldest input and carries the
/// merged set of sources.
pub fn default_agg_policies() -> Vec<TagPolicy> {
    vec![
        TagPolicy::new("creation_time", TagRule::Min),
        TagPolicy::new("source", TagRule::MergeText),
        TagPolicy::new("collection_method", TagRule::Unanimous),
    ]
}

/// Parses, plans (with pushdown), and executes one QQL statement.
pub fn run(catalog: &QueryCatalog, sql: &str) -> DbResult<QueryResult> {
    run_with(catalog, sql, &Planner::default())
}

/// Like [`run`], with an explicit planner configuration: the statement
/// goes through the one pipeline (`PreparedStatement::prepare`, the
/// same code a statement-cache miss runs) with no ambient defaults.
pub fn run_with(catalog: &QueryCatalog, sql: &str, planner: &Planner) -> DbResult<QueryResult> {
    PreparedStatement::prepare(catalog, crate::parser::parse(sql)?, &NoDefaults, planner)?
        .execute(catalog)
}

/// Renders the optimized physical plan of one statement EXPLAIN-style,
/// one line per operator with access paths and estimated selectivities.
pub fn explain(catalog: &QueryCatalog, sql: &str, planner: &Planner) -> DbResult<String> {
    explain_report(catalog, sql, planner, false)
}

/// Plans, *executes*, and renders one statement `EXPLAIN ANALYZE`-style:
/// the optimized operator tree annotated with actual row counts,
/// per-operator timings, and estimated-vs-actual selectivity.
pub fn explain_analyze(catalog: &QueryCatalog, sql: &str, planner: &Planner) -> DbResult<String> {
    explain_report(catalog, sql, planner, true)
}

/// Runs `sql` as an `EXPLAIN [ANALYZE]` statement — the statement may,
/// but need not, carry an `EXPLAIN` prefix of its own — and returns the
/// report.
fn explain_report(
    catalog: &QueryCatalog,
    sql: &str,
    planner: &Planner,
    analyze: bool,
) -> DbResult<String> {
    let inner = match crate::parser::parse(sql)? {
        Statement::Explain { inner, .. } => inner,
        other => Box::new(other),
    };
    let stmt = Statement::Explain { analyze, inner };
    let result =
        PreparedStatement::prepare(catalog, stmt, &NoDefaults, planner)?.execute(catalog)?;
    Ok(result.report().unwrap_or_default().to_owned())
}

/// Executes a statement that may mutate the catalog. `TAG <table> SET
/// <column>@<indicator> = <expr> [WHERE <expr>]` evaluates the expression
/// per matching row, attaches the result as a quality tag (rows where the
/// expression is NULL are skipped — a tag with unknown value is no tag),
/// and returns the number of cells tagged. SELECT/INSPECT statements fall
/// through to [`run`].
pub fn run_mut(catalog: &mut QueryCatalog, sql: &str) -> DbResult<QueryResult> {
    let stmt = crate::parser::parse(sql)?;
    match stmt {
        Statement::Tag { .. } => prepare_tag(catalog, stmt)?.apply(catalog),
        _ => run(catalog, sql),
    }
}

/// A TAG statement fully evaluated against a pinned snapshot but not
/// yet installed: the rebuilt relation, plus the individual cell tags
/// it applied (the write's *intention log*).
///
/// This split is what lets an MVCC writer do all the expensive work —
/// parse, mask evaluation, value evaluation, copy-on-write tagging —
/// outside any lock, against the session's pinned snapshot, and then
/// hold the publisher's mutex only for [`TagWrite::apply`]. When the
/// live catalog still holds the same table entry the snapshot saw
/// (checked by `Arc` identity via [`QueryCatalog::same_entry`]), the
/// prebuilt relation installs verbatim; when another writer got there
/// first, the recorded tags are re-applied onto the current relation —
/// snapshot-isolation semantics: the *mask* was evaluated at the
/// snapshot epoch, the tags land at commit epoch. Row positions are
/// stable under TAG-only workloads (tags never move rows); rows that
/// disappeared under an out-of-band re-registration are skipped.
#[derive(Debug)]
pub struct TagWrite {
    table: String,
    base: QueryCatalog,
    updated: TaggedRelation,
    tags: Vec<(usize, String, tagstore::IndicatorValue)>,
}

impl TagWrite {
    /// The table this write targets.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The individual cell tags the write applied at its snapshot:
    /// `(row, column, tag)` — what a durability layer should log.
    pub fn tags(&self) -> &[(usize, String, tagstore::IndicatorValue)] {
        &self.tags
    }

    /// Installs the write into `master`, returning the statement's
    /// `cells_tagged` result relation. Fast path (no intervening
    /// publish): the prebuilt relation is the one to publish. Conflict
    /// path: the recorded tags are re-applied onto a copy of `master`'s
    /// current relation (so an error leaves `master` untouched). Either
    /// way `master`'s current entry is replaced by its
    /// [`TableEntry::successor`] — the write costs the access paths only
    /// the cells it tagged.
    pub fn apply(mut self, master: &mut QueryCatalog) -> DbResult<QueryResult> {
        let current = Arc::clone(master.entry(&self.table)?);
        if !master.same_entry(&self.base, &self.table) {
            dq_obs::counter!("mvcc.write_conflicts").incr();
            let mut rel = current.rel.clone();
            self.tags.retain(|(row, ..)| *row < rel.len());
            for (row, column, tag) in &self.tags {
                rel.tag_cell(*row, column, tag.clone())?;
            }
            self.updated = rel;
        }
        let schema = relstore::Schema::of(&[("cells_tagged", DataType::Int)]);
        let result = TaggedRelation::new(
            schema,
            self.updated.dictionary().clone(),
            vec![vec![QualityCell::bare(self.tags.len() as i64)]],
        )?;
        let next = current.successor(self.updated, &self.tags)?;
        master.install(self.table, next);
        Ok(QueryResult::Table(result.into()))
    }
}

/// Evaluates a `TAG` statement against `catalog` (a pinned snapshot)
/// without mutating anything, returning the [`TagWrite`] to install
/// later. Errors on any statement that is not a TAG.
pub fn prepare_write(catalog: &QueryCatalog, sql: &str) -> DbResult<TagWrite> {
    let stmt = crate::parser::parse(sql)?;
    if !matches!(stmt, Statement::Tag { .. }) {
        return Err(DbError::InvalidExpression(
            "prepare_write only accepts TAG statements".into(),
        ));
    }
    prepare_tag(catalog, stmt)
}

fn prepare_tag(catalog: &QueryCatalog, stmt: Statement) -> DbResult<TagWrite> {
    let Statement::Tag {
        table,
        target,
        value,
        filter,
    } = stmt
    else {
        unreachable!("callers match TAG first")
    };
    let (column, indicator) = TaggedRelation::split_pseudo(&target).ok_or_else(|| {
        DbError::InvalidExpression(format!("TAG target `{target}` must be column@indicator"))
    })?;
    if indicator.contains('@') {
        return Err(DbError::InvalidExpression(
            "TAG cannot set meta tags directly; tag the indicator value instead".into(),
        ));
    }
    if catalog.is_paged_table(&table) {
        return Err(DbError::InvalidExpression(format!(
            "table `{table}` lives in paged storage; TAG it through the \
             durable writer (paged_tag_cell), not the query layer"
        )));
    }
    let entry = catalog.entry(&table)?;
    let bind = |e: &Expr| Predicate::bind(entry.rel.schema(), entry.rel.dictionary(), e);
    let filter = filter.as_ref().map(bind).transpose()?;
    let value = bind(&value)?;
    let rows = match &filter {
        Some(f) => match keyed_rows(entry, f)? {
            Some((_, rows)) => rows,
            None => {
                let mask = algebra::evaluate_mask(&entry.rel, f)?;
                (0..mask.len()).filter(|&row| mask[row]).collect()
            }
        },
        None => (0..entry.rel.len()).collect(),
    };
    // SET is evaluated on the rows WHERE keeps and on no other.
    let values = algebra::evaluate_at(&entry.rel, &rows, &value)?;
    let mut updated = entry.rel.clone();
    let mut tags = Vec::new();
    for (row, v) in rows.into_iter().zip(values) {
        if !v.is_null() {
            let tag = tagstore::IndicatorValue::new(indicator, v);
            updated.tag_cell(row, column, tag.clone())?;
            tags.push((row, column.to_owned(), tag));
        }
    }
    Ok(TagWrite {
        table,
        base: catalog.snapshot(),
        updated,
        tags,
    })
}

/// Executes a logical plan — the lean path, and the server's
/// execute-from-cached-plan hot path. Same walker as [`execute_traced`]
/// with the no-op tracer: no per-operator wall clocks, no rendered
/// operator labels, no trace allocations — a point query's real work is
/// a few microseconds and the scaffolding would cost more than the
/// query. `query.ops` / `query.rows_out` still tick per operator; the
/// `query.op_us` histogram only gets samples from traced runs.
pub fn execute(catalog: &QueryCatalog, plan: &Plan) -> DbResult<Answer> {
    walk::<NoTrace>(catalog, plan)?.0.into_answer()
}

/// Executes a logical plan through the same walker as [`execute`],
/// returning the result alongside the per-operator [`OpTrace`] that
/// `EXPLAIN ANALYZE` renders.
pub fn execute_traced(catalog: &QueryCatalog, plan: &Plan) -> DbResult<(Answer, OpTrace)> {
    let (out, trace) = walk::<TraceTree>(catalog, plan)?;
    Ok((out.into_answer()?, trace))
}

/// An operator's answer before its rows are built, where a parent reads
/// it as it lies: σ over a resident base table ([`select_base`]) or over
/// an operator's output, or a ⋈ of two inputs. A γ folds it, π reads
/// only its columns, a ⋈ or σ runs over it, the statement answers with
/// it; any other parent gathers it once.
enum Selection<'c> {
    /// Rows of a table's relation: every one (a bare scan), or the
    /// positions a keyed predicate kept.
    Rows(&'c TableEntry, Option<Vec<usize>>),
    /// The σ kernels' selection over a columnar layout (a table's, or
    /// an operator's output lifted once), or a ⋈'s matched position
    /// pairs over its two inputs' layouts.
    Columnar(ViewSource),
}

impl<'c> Selection<'c> {
    fn len(&self) -> usize {
        match self {
            Selection::Rows(entry, None) => entry.rel.len(),
            Selection::Rows(_, Some(at)) => at.len(),
            Selection::Columnar(source) => source.len(),
        }
    }

    fn gather(self) -> DbResult<TaggedRelation> {
        match self {
            Selection::Rows(entry, None) => Ok(entry.rel.clone()),
            Selection::Rows(entry, Some(at)) => algebra::select_at(&entry.rel, &at),
            Selection::Columnar(source) => Ok(ColumnarView::whole(source).gather()),
        }
    }
}

/// What an operator hands its parent: rows, a [`Selection`] as it
/// stands, or π's view of a columnar selection.
enum Output<'c> {
    Rows(TaggedRelation),
    Selected(Selection<'c>),
    View(ColumnarView),
}

impl<'c> Output<'c> {
    fn len(&self) -> usize {
        match self {
            Output::Rows(rel) => rel.len(),
            Output::Selected(sel) => sel.len(),
            Output::View(view) => view.len(),
        }
    }

    fn into_rows(self) -> DbResult<TaggedRelation> {
        match self {
            Output::Rows(rel) => Ok(rel),
            Output::Selected(sel) => sel.gather(),
            Output::View(view) => Ok(view.gather()),
        }
    }

    /// The statement's answer: a columnar selection, a join's pairs and
    /// π's view of either stay views; anything else is rows.
    fn into_answer(self) -> DbResult<Answer> {
        Ok(match self {
            Output::View(view) => view.into(),
            Output::Selected(Selection::Columnar(source)) => ColumnarView::whole(source).into(),
            rows => rows.into_rows()?.into(),
        })
    }

    /// The rows as a join, γ or σ reads them: a columnar layout, the
    /// rows of it selected, and whether the layout was lifted. A columnar
    /// σ is used where it lies, a bare resident scan reads its table's
    /// cached layout, and anything else (γ's rows, a join's pairs) is
    /// gathered and lifted once.
    fn columnar(self) -> DbResult<(Arc<ColumnarRelation>, Bitset, bool)> {
        let (crel, lifted) = match self {
            Output::Selected(Selection::Columnar(ViewSource::Selected(crel, sel))) => {
                return Ok((crel, sel, false))
            }
            Output::Selected(Selection::Rows(entry, None)) => (entry.columnar(), false),
            other => {
                let rel = other.into_rows()?;
                (Arc::new(ColumnarRelation::from_tagged(&rel)), true)
            }
        };
        let all = Bitset::full(crel.len());
        Ok((crel, all, lifted))
    }

    /// γ over the output, tags derived per [`default_agg_policies`], by
    /// the γ kernel over a join's pairs or over a layout and selection;
    /// also which of `pairs`, `columnar` or `lifted` it read.
    fn aggregate(
        self,
        group_by: &[&str],
        aggs: &[AggCall],
    ) -> DbResult<(TaggedRelation, &'static str)> {
        let policies = default_agg_policies();
        match self {
            Output::Selected(Selection::Columnar(ViewSource::Paired(pairs))) => {
                Ok((pairs.aggregate(group_by, aggs, &policies)?, "pairs"))
            }
            other => {
                let (crel, sel, lifted) = other.columnar()?;
                let rel = crel.aggregate(&sel, group_by, aggs, &policies)?;
                Ok((rel, if lifted { "lifted" } else { "columnar" }))
            }
        }
    }

    /// π over the output. Plain columns travel with their tags, and a
    /// pseudo-column (`price@age`, `price@source@credibility`) becomes
    /// the tag's value as a bare cell. A columnar selection or a join's
    /// pairs answer with a view of them; rows are projected as they are.
    fn project(self, columns: &[(String, String)]) -> DbResult<Output<'c>> {
        let (rel, at) = match self {
            Output::Selected(Selection::Columnar(source)) => {
                return Ok(Output::View(ColumnarView::project(source, columns)?));
            }
            Output::View(view) => (Cow::Owned(view.gather()), None),
            Output::Rows(rel) => (Cow::Owned(rel), None),
            Output::Selected(Selection::Rows(entry, at)) => (Cow::Borrowed(&entry.rel), at),
        };
        let (schema, srcs) = tagstore::view::projection(rel.schema(), rel.dictionary(), columns)?;
        // One output row from one input row.
        let row = |r: &TaggedRow| -> TaggedRow {
            srcs.iter()
                .map(|(i, path)| match path {
                    None => r[*i].clone(),
                    Some(path) => QualityCell::bare(
                        r[*i].tag_path_syms(path).map_or(Value::Null, |t| t.value.clone()),
                    ),
                })
                .collect()
        };
        let rows: Vec<TaggedRow> = match at {
            Some(at) => at.iter().map(|&i| row(&rel.rows()[i])).collect(),
            None => match relstore::par::plan(rel.len()) {
                Some(threads) => relstore::par::run_chunked(rel.rows(), threads, |_, chunk| {
                    chunk.iter().map(row).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect(),
                None => rel.iter().map(row).collect(),
            },
        };
        Ok(Output::Rows(TaggedRelation::new(schema, rel.dictionary().clone(), rows)?))
    }
}

/// What one operator run reports besides its output — values the
/// kernels hand back anyway. [`NoTrace`] drops it unread; [`TraceTree`]
/// copies it into an [`OpTrace`], whose fields these mirror.
#[derive(Default)]
struct NodeStats<'p> {
    /// What `rows_out` is a share of: the rows a σ read, the `|L| · |R|`
    /// pairs a ⋈ considered.
    rows_in: f64,
    est_selectivity: Option<f64>,
    /// Whether `rows_out / rows_in` is a meaningful selectivity (σ, ⋈).
    selective: bool,
    batch: Option<BatchStats>,
    layout: Option<&'static str>,
    io: Option<PagedScanStats>,
    point_lookup: Option<&'p str>,
    /// What a γ read (`pairs`, `columnar` or `lifted`) and its groups.
    aggregate: Option<(&'static str, usize)>,
    /// A base-table scan input this operator absorbed — it read the
    /// catalog's columnar layout, key index, or paged heap directly, so
    /// the scan never ran as an operator — and that table's row count.
    absorbed: Option<(&'p Plan, usize)>,
}

impl NodeStats<'_> {
    fn of(rows_in: usize) -> Self {
        NodeStats {
            rows_in: rows_in as f64,
            ..NodeStats::default()
        }
    }

    /// Stats of a filtering operator.
    fn selective(rows_in: usize) -> Self {
        NodeStats {
            selective: true,
            ..NodeStats::of(rows_in)
        }
    }

    /// Stats of a join of `left` rows with `right` rows: its selectivity
    /// is per pair, the share of `left · right` that matched.
    fn joined(left: usize, right: usize) -> Self {
        NodeStats {
            rows_in: left as f64 * right as f64,
            selective: true,
            ..NodeStats::default()
        }
    }
}

/// What [`walk`] is generic over: how an operator's run is recorded.
trait Tracer {
    /// Per-operator record handed to the parent.
    type Node;
    type Clock;
    /// Whether stats that cost something to obtain (a paged table's row
    /// count takes the database lock) are worth computing.
    const TRACING: bool;
    fn now() -> Self::Clock;
    fn node(
        plan: &Plan,
        since: Self::Clock,
        rows_out: usize,
        stats: NodeStats,
        children: Vec<Self::Node>,
    ) -> Self::Node;
}

/// Records nothing: `walk::<NoTrace>` monomorphizes to the bare kernels.
struct NoTrace;

impl Tracer for NoTrace {
    type Node = ();
    type Clock = ();
    const TRACING: bool = false;
    fn now() {}
    fn node(_: &Plan, _: (), _: usize, _: NodeStats, _: Vec<()>) {}
}

/// Builds the [`OpTrace`] tree: adds the clock, the label and the child
/// list to what the walker computes anyway.
struct TraceTree;

impl Tracer for TraceTree {
    type Node = OpTrace;
    type Clock = std::time::Instant;
    const TRACING: bool = true;

    fn now() -> Self::Clock {
        std::time::Instant::now()
    }

    fn node(
        plan: &Plan,
        since: Self::Clock,
        rows_out: usize,
        stats: NodeStats,
        mut children: Vec<OpTrace>,
    ) -> OpTrace {
        let elapsed = since.elapsed();
        dq_obs::histogram!("query.op_us").record_us(elapsed.as_micros() as u64);
        if let Some((scan, rows)) = stats.absorbed {
            // zero local time, under the absorbing operator's layout
            children.push(OpTrace {
                label: scan.node_line(),
                rows_out: rows,
                layout: stats.layout,
                ..OpTrace::default()
            });
        }
        // a zero-row input is defined as selectivity 0.0, not NaN
        let actual = match stats.rows_in {
            n if n > 0.0 => rows_out as f64 / n,
            _ => 0.0,
        };
        OpTrace {
            label: plan.node_line(),
            rows_out,
            elapsed,
            est_selectivity: stats.est_selectivity,
            actual_selectivity: stats.selective.then_some(actual),
            batches: stats.batch.map(|b| b.batches),
            batch_size: stats.batch.map(|b| b.batch_size),
            layout: stats.layout,
            pages_read: stats.io.map(|io| io.pages_read),
            pool_hits: stats.io.map(|io| io.pool_hits),
            point_lookup: stats.point_lookup.map(str::to_owned),
            aggregate: stats.aggregate,
            children,
        }
    }
}

/// The plan walker: the only place operators meet kernels. Each arm
/// runs its inputs, then its kernel, and reports what the kernel told
/// it; the tracer decides whether anyone listens. A σ over resident
/// data, a bare resident scan and a ⋈ hand back their [`Selection`]
/// ungathered: a parent that needs rows gathers it.
fn walk<'c, T: Tracer>(catalog: &'c QueryCatalog, plan: &Plan) -> DbResult<(Output<'c>, T::Node)> {
    let mut since = T::now();
    let mut children = Vec::new();
    // Runs an input subtree and files its record under this operator;
    // the operator's own clock restarts when its last input returns.
    let mut run = |p: &Plan| -> DbResult<Output<'c>> {
        let (out, node) = walk::<T>(catalog, p)?;
        children.push(node);
        since = T::now();
        Ok(out)
    };
    let mut run_input = |p: &Plan| run(p)?.into_rows();
    // A paged table's cardinality, for `rows_in`.
    let paged_rows = |p: &Arc<dyn PagedProvider>| -> DbResult<usize> {
        if T::TRACING {
            Ok(p.row_count()? as usize)
        } else {
            Ok(0)
        }
    };
    let (out, stats) = match plan {
        Plan::Scan(name) => match catalog.paged.get(name) {
            Some(p) => {
                let rel = p.scan()?;
                let stats = NodeStats {
                    layout: Some("paged"),
                    ..NodeStats::of(rel.len())
                };
                (Output::Rows(rel), stats)
            }
            None => {
                let entry = catalog.entry(name)?;
                let stats = NodeStats::of(entry.rel.len());
                (Output::Selected(Selection::Rows(entry, None)), stats)
            }
        },
        Plan::Filter { input, predicate } => match &**input {
            // σ over a base table absorbs the scan: paged tables stream
            // through their provider (pages never materialize as a
            // relation), resident ones take the base-table σ sequence.
            Plan::Scan(name) => {
                let (out, stats) = match catalog.paged.get(name) {
                    Some(p) => {
                        let n = paged_rows(p)?;
                        let stats = NodeStats {
                            layout: Some("paged"),
                            ..NodeStats::selective(n)
                        };
                        (Output::Rows(p.select(predicate.expr())?), stats)
                    }
                    None => {
                        let (sel, stats) = select_base(catalog, name, predicate, false)?;
                        (Output::Selected(sel), stats)
                    }
                };
                let stats = NodeStats {
                    absorbed: Some((&**input, stats.rows_in as usize)),
                    ..stats
                };
                (out, stats)
            }
            // σ over an operator's output (`HAVING`, a join residual):
            // the same kernels over the output's layout, within the rows
            // it kept, answering with a view like a base-table σ.
            _ => {
                let input = run(input)?;
                let rows_in = input.len();
                let (crel, kept, _) = input.columnar()?;
                let (sel, batch) =
                    selection_within_columnar(&crel, &kept, predicate, DEFAULT_BATCH_SIZE)?;
                let stats = NodeStats {
                    batch: Some(batch),
                    layout: Some("columnar"),
                    ..NodeStats::selective(rows_in)
                };
                (Output::Selected(Selection::Columnar(ViewSource::Selected(crel, sel))), stats)
            }
        },
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (l, lsel, _) = run(left)?.columnar()?;
            let (r, rsel, _) = run(right)?.columnar()?;
            let index = r.key_index(right_key, &rsel)?;
            let (pairs, batch) =
                JoinPairs::probe(l, &lsel, left_key, r, right_key, &index, DEFAULT_BATCH_SIZE)?;
            let stats = NodeStats {
                batch: Some(batch),
                layout: Some("columnar"),
                ..NodeStats::joined(lsel.count(), rsel.count())
            };
            (Output::Selected(Selection::Columnar(ViewSource::Paired(pairs))), stats)
        }
        Plan::Project { input, columns } => {
            // A selection input is read where it lies, never gathered.
            let input = run(input)?;
            let rows_in = input.len();
            (input.project(columns)?, NodeStats::of(rows_in))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // A selection input is read where it lies, anything else is
            // lifted once; a σ child still reports how it selected.
            let input = run(input)?;
            let rows_in = input.len();
            let gb: Vec<&str> = group_by.iter().map(String::as_str).collect();
            let (rel, source) = input.aggregate(&gb, aggs)?;
            let stats = NodeStats {
                aggregate: Some((source, rel.len())),
                ..NodeStats::of(rows_in)
            };
            (Output::Rows(rel), stats)
        }
        Plan::Distinct { input } => {
            let input_rel = run_input(input)?;
            let rel = algebra::distinct_merging(&input_rel);
            (Output::Rows(rel), NodeStats::of(input_rel.len()))
        }
        Plan::Sort { input, keys } => {
            let input_rel = run_input(input)?;
            let stats = NodeStats::of(input_rel.len());
            (Output::Rows(sort_multi(input_rel, keys)?), stats)
        }
        Plan::Limit { input, n } => {
            let input_rel = run_input(input)?;
            let stats = NodeStats::of(input_rel.len());
            (Output::Rows(input_rel.truncated(*n)), stats)
        }
        Plan::IndexScan {
            table,
            predicate,
            est_selectivity,
            ..
        } => {
            let (sel, stats) = select_base(catalog, table, predicate, true)?;
            let stats = NodeStats {
                est_selectivity: Some(*est_selectivity),
                ..stats
            };
            (Output::Selected(sel), stats)
        }
        Plan::PagedIndexScan {
            table,
            predicate,
            est_selectivity,
            ..
        } => {
            let p = catalog.paged_provider(table)?;
            let n = paged_rows(p)?;
            let (rel, io) = p.select_indexed(predicate.expr())?;
            let stats = NodeStats {
                est_selectivity: Some(*est_selectivity),
                layout: Some("paged"),
                io: Some(io),
                ..NodeStats::selective(n)
            };
            (Output::Rows(rel), stats)
        }
        Plan::IndexJoin {
            left,
            right_table,
            left_key,
            right_key,
        } => {
            // The planner takes IndexJoin unconditionally (probing a
            // prebuilt index never loses), so its implied estimate is
            // the uniform-key assumption: 1 / distinct probe keys.
            let right = catalog.entry(right_table)?;
            let index = right.key_index(right.rel.schema().resolve(right_key)?);
            let ((l, lsel, _), r) = (run(left)?.columnar()?, right.columnar());
            let (pairs, batch) =
                JoinPairs::probe(l, &lsel, left_key, r, right_key, &index, DEFAULT_BATCH_SIZE)?;
            let stats = NodeStats {
                est_selectivity: Some(match index.distinct_keys() {
                    0 => 0.0,
                    keys => 1.0 / keys as f64,
                }),
                batch: Some(batch),
                layout: Some("columnar"),
                ..NodeStats::joined(lsel.count(), right.rel.len())
            };
            (Output::Selected(Selection::Columnar(ViewSource::Paired(pairs))), stats)
        }
    };
    let rows_out = out.len();
    dq_obs::counter!("query.ops").incr();
    dq_obs::counter!("query.rows_out").add(rows_out as u64);
    let node = T::node(plan, since, rows_out, stats, children);
    Ok((out, node))
}

/// σ over a resident base table — the one access sequence behind both
/// `Filter(Scan)` and `IndexScan`, lean or traced. It selects; the
/// caller gathers the [`Selection`] or folds it.
///
/// When the predicate is keyed ([`keyed_rows`]), select exactly the rows
/// the key index and the re-check keep: a served point query touches a
/// handful of rows instead of the whole table, which is what lets the
/// prepared-statement cache's saving (parse + plan) show up at all.
///
/// Otherwise run the columnar kernels against the catalog's cached
/// layout — through the quality bitmap index when `use_index`.
fn select_base<'c, 'p>(
    catalog: &'c QueryCatalog,
    table: &str,
    predicate: &'p Predicate,
    use_index: bool,
) -> DbResult<(Selection<'c>, NodeStats<'p>)> {
    let entry = catalog.entry(table)?;
    let stats = NodeStats::selective(entry.rel.len());
    if let Some((col, rows)) = keyed_rows(entry, predicate)? {
        dq_obs::counter!("query.point_lookups").incr();
        let stats = NodeStats {
            point_lookup: Some(col),
            ..stats
        };
        return Ok((Selection::Rows(entry, Some(rows)), stats));
    }
    let crel = entry.columnar();
    let (sel, batch) = if use_index {
        let idx = entry.quality_index();
        let (sel, _path, batch) =
            selection_indexed_columnar(&crel, &idx, predicate, DEFAULT_BATCH_SIZE)?;
        (sel, batch)
    } else {
        selection_columnar(&crel, predicate, DEFAULT_BATCH_SIZE)?
    };
    let stats = NodeStats {
        batch: Some(batch),
        layout: Some("columnar"),
        ..stats
    };
    Ok((Selection::Columnar(ViewSource::Selected(crel, sel)), stats))
}

/// The rows of `entry` a keyed predicate keeps, in ascending order, and
/// the key column — `None` when the bound predicate has no key-equality
/// conjunct ([`Predicate::key`]: a `col = literal` on an application
/// column, reached through top-level ANDs only). The table's per-key
/// hash index gives the candidate positions and the predicate's verdict
/// ([`Predicate::matches`], the key conjunct included) re-runs over them
/// in ascending row order, so the kept rows — and their order — match a
/// scan exactly. `SELECT` gathers these rows, `TAG` tags them.
fn keyed_rows<'p>(
    entry: &TableEntry,
    predicate: &'p Predicate,
) -> DbResult<Option<(&'p str, Vec<usize>)>> {
    let Some((ci, col, key)) = predicate.key() else {
        return Ok(None);
    };
    let mut rows: Vec<usize> = entry.key_index(ci).get(&vec![key.clone()]).to_vec();
    rows.sort_unstable();
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        if predicate.matches(&entry.rel.rows()[row])? {
            kept.push(row);
        }
    }
    Ok(Some((col, kept)))
}

/// Stable multi-key sort on application values, in place.
fn sort_multi(rel: TaggedRelation, keys: &[(String, bool)]) -> DbResult<TaggedRelation> {
    let idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(c, asc)| rel.schema().resolve(c).map(|i| (i, *asc)))
        .collect::<DbResult<_>>()?;
    Ok(rel.sorted_by(|a, b| {
        for &(i, asc) in &idx {
            let c = a[i].value.cmp(&b[i].value);
            let c = if asc { c } else { c.reverse() };
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{Date, Value};
    use tagstore::{IndicatorDictionary, IndicatorValue};

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    fn catalog() -> QueryCatalog {
        let dict = IndicatorDictionary::with_paper_defaults();
        let stocks_schema = Schema::of(&[
            ("ticker", DataType::Text),
            ("price", DataType::Float),
        ]);
        let mk = |t: &str, p: f64, ct: &str, src: &str| {
            vec![
                QualityCell::bare(t),
                QualityCell::bare(p)
                    .with_tag(IndicatorValue::new("creation_time", d(ct)))
                    .with_tag(IndicatorValue::new("source", src)),
            ]
        };
        let mut stocks = TaggedRelation::new(
            stocks_schema,
            dict.clone(),
            vec![
                mk("FRT", 10.0, "10-20-91", "NYSE feed"),
                mk("NUT", 20.0, "10-1-91", "NYSE feed"),
                mk("BLT", 30.0, "9-1-91", "manual entry"),
            ],
        )
        .unwrap();
        tagstore::algebra::derive_age(&mut stocks, "price", Date::parse("10-24-91").unwrap())
            .unwrap();

        let trades_schema = Schema::of(&[("tkr", DataType::Text), ("qty", DataType::Int)]);
        let trades = TaggedRelation::new(
            trades_schema,
            dict,
            vec![
                vec![QualityCell::bare("FRT"), QualityCell::bare(100i64)],
                vec![QualityCell::bare("FRT"), QualityCell::bare(50i64)],
                vec![QualityCell::bare("NUT"), QualityCell::bare(10i64)],
            ],
        )
        .unwrap();

        let mut c = QueryCatalog::new();
        c.register("stocks", stocks);
        c.register("trades", trades);
        c
    }

    #[test]
    fn select_star_with_quality() {
        let r = run(
            &catalog(),
            "SELECT * FROM stocks WITH QUALITY (price@source = 'NYSE feed')",
        )
        .unwrap();
        assert_eq!(r.relation().len(), 2);
    }

    #[test]
    fn quality_and_value_predicates() {
        let r = run(
            &catalog(),
            "SELECT ticker FROM stocks WHERE price > 5 \
             WITH QUALITY (price@age <= 23, price@source <> 'manual entry')",
        )
        .unwrap();
        let rel = r.relation();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().names(), vec!["ticker"]);
    }

    #[test]
    fn projection_of_pseudo_columns() {
        let r = run(
            &catalog(),
            "SELECT ticker, price@age AS age, price@source AS src FROM stocks \
             ORDER BY ticker",
        )
        .unwrap();
        let rel = r.relation();
        assert_eq!(rel.schema().names(), vec!["ticker", "age", "src"]);
        // BLT first alphabetically, 53 days old on 10-24-91
        assert_eq!(rel.cell(0, "age").unwrap().value, Value::Int(53));
        assert_eq!(
            rel.cell(0, "src").unwrap().value,
            Value::text("manual entry")
        );
    }

    #[test]
    fn join_with_pushdown_matches_no_pushdown() {
        let sql = "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker \
                   WHERE qty > 20 WITH QUALITY (price@age < 30)";
        let with = run_with(
            &catalog(),
            sql,
            &Planner {
                pushdown: true,
                ..Planner::default()
            },
        )
        .unwrap();
        let without = run_with(
            &catalog(),
            sql,
            &Planner {
                pushdown: false,
                ..Planner::default()
            },
        )
        .unwrap();
        assert_eq!(with.relation().strip(), without.relation().strip());
        assert_eq!(with.relation().len(), 2); // FRT qty 100, 50 (age 4)
    }

    #[test]
    fn aggregation_with_tag_derivation() {
        let r = run(
            &catalog(),
            "SELECT COUNT(*) AS n, AVG(price) AS avg_price, MIN(price) AS lo FROM stocks",
        )
        .unwrap();
        let rel = r.relation();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.cell(0, "n").unwrap().value, Value::Int(3));
        assert_eq!(rel.cell(0, "avg_price").unwrap().value, Value::Float(20.0));
        // the aggregate inherits conservative provenance
        let avg = rel.cell(0, "avg_price").unwrap();
        assert_eq!(avg.tag_value("creation_time"), d("9-1-91")); // oldest
        assert_eq!(
            avg.tag_value("source"),
            Value::text("NYSE feed+manual entry")
        );
    }

    /// An integer SUM past `i64` is an arithmetic error on every source
    /// the aggregate folds — a bare scan, a columnar σ, a bitmap σ, a
    /// keyed lookup, join output — grouped or not.
    #[test]
    fn integer_sum_overflow_errors_on_every_source() {
        let schema = relstore::Schema::of(&[("k", DataType::Text), ("v", DataType::Int)]);
        let tagged = |v: i64| {
            QualityCell::bare(v).with_tag(IndicatorValue::new("source", "feed"))
        };
        let rows = vec![
            vec![QualityCell::bare("a"), tagged(i64::MAX)],
            vec![QualityCell::bare("a"), tagged(1)],
            vec![QualityCell::bare("b"), tagged(2)],
        ];
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut c = catalog();
        c.register("big", TaggedRelation::new(schema, dict, rows).unwrap());
        for (from, key, v) in [
            ("FROM big", "k", "v"),
            ("FROM big WHERE v > 0", "k", "v"),
            ("FROM big WITH QUALITY (v@source = 'feed')", "k", "v"),
            ("FROM big WHERE k = 'a'", "k", "v"),
            ("FROM big JOIN big ON k = k", "l.k", "l.v"),
        ] {
            for sql in [
                format!("SELECT SUM({v}) AS s {from}"),
                format!("SELECT {key}, SUM({v}) AS s {from} GROUP BY {key}"),
            ] {
                match run(&c, &sql) {
                    Err(DbError::Arithmetic(m)) => assert_eq!(m, "integer overflow in SUM", "{sql}"),
                    other => panic!("{sql}: expected an overflow error, got {other:?}"),
                }
            }
        }
        // below the edge the same statements answer
        let r = run(&c, "SELECT SUM(v) AS s FROM big WHERE k = 'b'").unwrap();
        assert_eq!(r.relation().cell(0, "s").unwrap().value, Value::Int(2));
    }

    #[test]
    fn group_by_executes() {
        let r = run(
            &catalog(),
            "SELECT tkr, SUM(qty) AS total FROM trades GROUP BY tkr ORDER BY tkr",
        )
        .unwrap();
        let rel = r.relation();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.cell(0, "total").unwrap().value, Value::Int(150));
    }

    #[test]
    fn distinct_and_limit() {
        let r = run(&catalog(), "SELECT DISTINCT tkr FROM trades").unwrap();
        assert_eq!(r.relation().len(), 2);
        let r = run(&catalog(), "SELECT * FROM trades LIMIT 1").unwrap();
        assert_eq!(r.relation().len(), 1);
        let r = run(&catalog(), "SELECT * FROM trades LIMIT 0").unwrap();
        assert!(r.relation().is_empty());
    }

    #[test]
    fn inspect_renders_tags() {
        let r = run(&catalog(), "INSPECT FROM stocks WHERE ticker = 'NUT'").unwrap();
        match r {
            QueryResult::Inspection { report, rows } => {
                assert_eq!(rows.len(), 1);
                assert!(report.contains("1991-10-01"), "report:\n{report}");
                assert!(report.contains("NYSE feed"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_key_sort() {
        let r = run(&catalog(), "SELECT * FROM trades ORDER BY tkr ASC, qty DESC").unwrap();
        let rel = r.relation();
        assert_eq!(rel.cell(0, "qty").unwrap().value, Value::Int(100));
        assert_eq!(rel.cell(1, "qty").unwrap().value, Value::Int(50));
    }

    #[test]
    fn errors_surface() {
        assert!(run(&catalog(), "SELECT * FROM ghosts").is_err());
        assert!(run(&catalog(), "SELECT ghost FROM stocks").is_err());
        assert!(run(&catalog(), "SELECT * FROM stocks WHERE").is_err());
        assert!(run(&catalog(), "SELECT * FROM stocks WITH QUALITY (ghost@age < 3)").is_err());
    }

    #[test]
    fn indexed_execution_matches_unindexed() {
        let c = catalog();
        let on = Planner::default();
        let off = Planner {
            use_indexes: false,
            ..Planner::default()
        };
        for sql in [
            "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')",
            "SELECT ticker FROM stocks WHERE price > 5 \
             WITH QUALITY (price@age <= 23, price@source <> 'manual entry')",
            "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker \
             WHERE qty > 20 WITH QUALITY (price@age < 30)",
            "SELECT tkr, SUM(qty) AS total FROM trades GROUP BY tkr ORDER BY tkr",
        ] {
            let a = run_with(&c, sql, &on).unwrap();
            let b = run_with(&c, sql, &off).unwrap();
            assert_eq!(a.relation(), b.relation(), "{sql}");
        }
    }

    #[test]
    fn explain_shows_bitmap_access_path() {
        let c = catalog();
        let e = explain(
            &c,
            "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')",
            &Planner::default(),
        )
        .unwrap();
        assert!(
            e.contains("IndexScan table=stocks access=bitmap[price@source=manual entry]"),
            "{e}"
        );
        assert!(e.contains("est_selectivity=0.3333"), "{e}");
        // joins against a bare base table probe its cached key index
        let e = explain(
            &c,
            "SELECT * FROM trades JOIN stocks ON tkr = ticker",
            &Planner::default(),
        )
        .unwrap();
        assert!(
            e.contains("IndexJoin on=tkr=ticker right=stocks access=index(probe)"),
            "{e}"
        );
        assert!(explain(&c, "SELECT * FROM ghosts", &Planner::default()).is_err());
    }

    #[test]
    fn explain_statement_renders_plan_without_rows() {
        let c = catalog();
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')";
        let r = run(&c, &format!("EXPLAIN {sql}")).unwrap();
        match &r {
            QueryResult::Explain { report, rows } => {
                assert!(rows.is_none());
                assert_eq!(report, &explain(&c, sql, &Planner::default()).unwrap());
            }
            other => panic!("{other:?}"),
        }
        // EXPLAIN cannot nest, and EXPLAIN TAG fails at plan time
        assert!(run(&c, "EXPLAIN EXPLAIN SELECT * FROM stocks").is_err());
        assert!(run(&c, "EXPLAIN TAG stocks SET price@source = 'x'").is_err());
    }

    #[test]
    #[should_panic(expected = "EXPLAIN without ANALYZE")]
    fn plain_explain_has_no_relation() {
        let r = run(&catalog(), "EXPLAIN SELECT * FROM stocks").unwrap();
        let _ = r.relation();
    }

    #[test]
    fn explain_analyze_executes_and_annotates() {
        let c = catalog();
        // selective quality predicate pushed to the join's right side →
        // the IndexScan node carries est/actual selectivity and error
        let sql = "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker \
                   WITH QUALITY (price@source = 'manual entry')";
        let r = run(&c, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
        // the analyzed run returns the same rows as the plain query
        assert_eq!(r.relation(), run(&c, sql).unwrap().relation());
        let report = r.report().unwrap();
        for needle in [
            "rows=",
            "elapsed=",
            "est_selectivity=0.3333 actual_selectivity=0.3333 err=+0.0000",
            "IndexScan table=stocks access=bitmap[price@source=manual entry]",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
        // the convenience entry point produces the same tree (timings
        // differ run to run, so compare the operator text only)
        let again = explain_analyze(&c, sql, &Planner::default()).unwrap();
        let ops = |s: &str| -> Vec<String> {
            s.lines()
                .map(|l| l.split(" | ").next().unwrap().to_owned())
                .collect()
        };
        assert_eq!(ops(report), ops(&again));
        // bare right side → IndexJoin node, annotated the same way
        let join_sql = "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker";
        let report = explain_analyze(&c, join_sql, &Planner::default()).unwrap();
        let idx_join = report
            .lines()
            .find(|l| l.contains("IndexJoin on=tkr=ticker right=stocks access=index(probe)"))
            .unwrap_or_else(|| panic!("no IndexJoin line in:\n{report}"));
        for needle in ["rows=3", "est_selectivity=", "actual_selectivity=", "err="] {
            assert!(idx_join.contains(needle), "missing {needle:?} in: {idx_join}");
        }
    }

    /// A join's actual selectivity is per pair: `rows_out / (|L| · |R|)`.
    /// `trades ⋈ stocks` on unique tickers matches each trade once, so
    /// the uniform-key estimate `1 / distinct keys` is exact.
    #[test]
    fn join_selectivity_is_per_pair() {
        let c = catalog();
        let report = explain_analyze(
            &c,
            "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker",
            &Planner::default(),
        )
        .unwrap();
        let line = report.lines().find(|l| l.contains("IndexJoin")).unwrap();
        assert!(
            line.contains("est_selectivity=0.3333 actual_selectivity=0.3333 err=+0.0000"),
            "{report}"
        );
        // the hash join reads the same share: 1 of 3 pairs (FRT ⋈ FRT)
        let report = explain_analyze(
            &c,
            "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker \
             WHERE qty > 60 WITH QUALITY (price@source = 'NYSE feed')",
            &Planner::default(),
        )
        .unwrap();
        let line = report.lines().find(|l| l.contains("HashJoin")).unwrap();
        assert!(line.contains("rows=1 "), "{report}");
        assert!(line.contains("actual_selectivity=0.5000"), "{report}");
        // an empty side reads 0, not NaN
        let report = explain_analyze(
            &c,
            "SELECT tkr FROM trades JOIN stocks ON tkr = ticker WHERE qty > 1000",
            &Planner::default(),
        )
        .unwrap();
        let line = report.lines().find(|l| l.contains("IndexJoin")).unwrap();
        assert!(line.contains("actual_selectivity=0.0000"), "{report}");
    }

    #[test]
    fn analyze_operator_lines_match_plain_explain() {
        let c = catalog();
        let sql = "SELECT DISTINCT ticker FROM stocks WHERE price > 5 ORDER BY ticker LIMIT 2";
        let plain = explain(&c, sql, &Planner::default()).unwrap();
        let analyzed = explain_analyze(&c, sql, &Planner::default()).unwrap();
        let plain_ops: Vec<&str> = plain.lines().collect();
        let analyzed_ops: Vec<&str> = analyzed
            .lines()
            .map(|l| l.split(" | ").next().unwrap())
            .collect();
        assert_eq!(plain_ops, analyzed_ops);
    }

    #[test]
    fn traced_execution_reports_actual_selectivity() {
        let c = catalog();
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')";
        let stmt = crate::parser::parse(sql).unwrap();
        let planner = Planner::default();
        let plan = planner.optimize(planner.plan(&stmt, &c).unwrap(), &c);
        let before = dq_obs::registry().snapshot();
        let (rel, trace) = execute_traced(&c, &plan).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(trace.rows_out, 1);
        // 1 of 3 rows matched; the planner estimated exactly that
        assert_eq!(trace.actual_selectivity, Some(1.0 / 3.0));
        assert_eq!(trace.est_selectivity, Some(1.0 / 3.0));
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("query.ops") > before.counter("query.ops"));
        assert!(after.validate().is_ok(), "{:?}", after.validate());
    }

    /// The batched operators surface their batch counts and physical
    /// layout both through EXPLAIN ANALYZE annotations and the
    /// `columnar.*` metrics: base-table σ, indexed σ, and the ⋈ probe
    /// all run the columnar kernels.
    #[test]
    fn vectorized_execution_reports_batches() {
        let c = catalog();
        let before = dq_obs::registry().snapshot();
        // plain σ over a base scan (indexes off) runs columnar
        let off = Planner {
            use_indexes: false,
            ..Planner::default()
        };
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')";
        let report = explain_analyze(&c, sql, &off).unwrap();
        let line = report
            .lines()
            .find(|l| l.starts_with("Filter"))
            .unwrap_or_else(|| panic!("no Filter line in:\n{report}"));
        assert!(line.contains("batches=1"), "{report}");
        assert!(
            line.contains(&format!("batch_size={DEFAULT_BATCH_SIZE}")),
            "{report}"
        );
        assert!(line.contains("layout=columnar"), "{report}");
        // the indexed σ and the index-join probe report batches too
        let report = explain_analyze(&c, sql, &Planner::default()).unwrap();
        let line = report.lines().find(|l| l.contains("IndexScan")).unwrap();
        assert!(line.contains("batches=1"), "{report}");
        assert!(line.contains("layout=columnar"), "{report}");
        let report = explain_analyze(
            &c,
            "SELECT * FROM trades JOIN stocks ON tkr = ticker",
            &Planner::default(),
        )
        .unwrap();
        let line = report.lines().find(|l| l.contains("IndexJoin")).unwrap();
        assert!(line.contains("batches=1"), "{report}");
        assert!(line.contains("layout=columnar"), "{report}");
        // and the batch pipeline fed the metrics registry
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("columnar.batches") > before.counter("columnar.batches"));
        assert!(
            after.counter("columnar.join.batches") > before.counter("columnar.join.batches")
        );
        assert!(after.counter("columnar.conversions") > before.counter("columnar.conversions"));
        assert!(after.validate().is_ok(), "{:?}", after.validate());
    }

    #[test]
    fn register_invalidates_cached_indexes() {
        let mut c = catalog();
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'late feed')";
        // first run caches the bitmap index; nothing matches yet
        assert_eq!(run(&c, sql).unwrap().relation().len(), 0);
        // retag one row and re-register: the stale index must be dropped
        let mut stocks = c.get("stocks").unwrap().clone();
        stocks
            .tag_cell(0, "price", IndicatorValue::new("source", "late feed"))
            .unwrap();
        c.register("stocks", stocks);
        assert_eq!(run(&c, sql).unwrap().relation().len(), 1);
    }

    /// Re-registration must never leave a window where a fresh relation
    /// pairs with a stale cached access path. Both the columnar dispatch
    /// (σ over base table) and the bitmap-index path (IndexScan) are
    /// warmed against the old version, then the table is swapped; every
    /// subsequent read must see the new version on every path.
    #[test]
    fn register_invalidates_columnar_and_bitmap_atomically() {
        let mut c = catalog();
        let idx_sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'late feed')";
        let col_sql = "SELECT * FROM stocks WHERE ticker = 'NEWCO'";
        // Warm the bitmap index and columnar caches against version 1.
        assert_eq!(run(&c, idx_sql).unwrap().relation().len(), 0);
        assert_eq!(run(&c, col_sql).unwrap().relation().len(), 0);
        let g0 = c.generation();
        // Version 2: extra row, retagged price.
        let mut stocks = c.get("stocks").unwrap().clone();
        stocks
            .push(vec![QualityCell::bare("NEWCO"), QualityCell::bare(9.0)])
            .unwrap();
        stocks
            .tag_cell(0, "price", IndicatorValue::new("source", "late feed"))
            .unwrap();
        c.register("stocks", stocks);
        assert!(c.generation() > g0, "register must advance the generation");
        // Both access paths must agree with the new version immediately.
        assert_eq!(run(&c, idx_sql).unwrap().relation().len(), 1);
        assert_eq!(run(&c, col_sql).unwrap().relation().len(), 1);
        // And the plain scan path, for good measure.
        assert_eq!(
            run(&c, "SELECT * FROM stocks").unwrap().relation().len(),
            4
        );
    }

    /// A prepared TAG write installs on the fast path (same entry, the
    /// prebuilt relation published as is) and matches `run_mut` exactly.
    #[test]
    fn prepared_write_fast_path_matches_run_mut() {
        let sql = "TAG stocks SET price@inspection = 'A' WHERE ticker = 'FRT'";
        let mut via_run_mut = catalog();
        let expect = run_mut(&mut via_run_mut, sql).unwrap();

        let mut master = catalog();
        let w = prepare_write(&master.snapshot(), sql).unwrap();
        assert_eq!(w.table(), "stocks");
        assert_eq!(w.tags().len(), 1);
        let got = w.apply(&mut master).unwrap();
        assert_eq!(got, expect);
        assert_eq!(
            master.get("stocks").unwrap(),
            via_run_mut.get("stocks").unwrap()
        );
    }

    /// Two writers prepared against the same snapshot: the second one
    /// conflicts and re-applies its recorded tags onto the first one's
    /// result — both writes survive.
    #[test]
    fn prepared_write_conflict_path_reapplies_tags() {
        let mut master = catalog();
        let snap = master.snapshot();
        let w1 = prepare_write(&snap, "TAG stocks SET price@inspection = 'A' WHERE ticker = 'FRT'")
            .unwrap();
        let w2 = prepare_write(&snap, "TAG stocks SET price@inspection = 'B' WHERE ticker = 'NUT'")
            .unwrap();
        let conflicts0 = dq_obs::counter!("mvcc.write_conflicts").get();
        w1.apply(&mut master).unwrap();
        let r2 = w2.apply(&mut master).unwrap();
        assert_eq!(
            dq_obs::counter!("mvcc.write_conflicts").get() - conflicts0,
            1
        );
        assert_eq!(r2.relation().cell(0, "cells_tagged").unwrap().value, relstore::Value::Int(1));
        let rel = master.get("stocks").unwrap();
        assert_eq!(
            rel.cell(0, "price").unwrap().tag_value("inspection"),
            relstore::Value::text("A")
        );
        assert_eq!(
            rel.cell(1, "price").unwrap().tag_value("inspection"),
            relstore::Value::text("B")
        );
    }

    /// A `TAG` publishes a successor entry: the key hash indexes are the
    /// predecessor's own, a built bitmap index arrives already built with
    /// the delta applied, and the predecessor — still pinned by a reader —
    /// keeps answering for the old tags.
    #[test]
    fn tag_successor_inherits_access_paths() {
        let mut master = catalog();
        let by_key = "SELECT * FROM stocks WHERE ticker = 'BLT' WITH QUALITY (price@source = 'audited')";
        let by_tag = "SELECT ticker FROM stocks WITH QUALITY (price@source = 'audited')";
        // nothing built yet: a TAG has nothing to carry
        run_mut(&mut master, "TAG stocks SET price@inspection = 'A' WHERE ticker = 'FRT'").unwrap();
        assert!(master.entry("stocks").unwrap().quality_index.get().is_none());
        // warm both paths, pin a reader, write
        assert_eq!(run(&master, by_key).unwrap().relation().len(), 0);
        let pinned = master.snapshot();
        let before = Arc::clone(pinned.entry("stocks").unwrap());
        run_mut(&mut master, "TAG stocks SET price@source = 'audited' WHERE ticker = 'BLT'").unwrap();
        let after = master.entry("stocks").unwrap();
        assert!(!Arc::ptr_eq(&before, after));
        assert!(Arc::ptr_eq(&before.key_indexes, &after.key_indexes));
        let carried = after.quality_index.get().expect("inherited, not rebuilt");
        assert!(!Arc::ptr_eq(carried, before.quality_index.get().unwrap()));
        assert!(after.columnar.get().is_none());
        // a first tag under a value no row carried, and the value it replaced
        let source = tagstore::Symbol::intern("source");
        let (old, new) = (
            before.quality_index().posting(1, &source).unwrap().distinct_values(),
            carried.posting(1, &source).unwrap().distinct_values(),
        );
        assert_eq!((old, new), (2, 2)); // 'manual entry' left with BLT, 'audited' came
        for sql in [by_key, by_tag] {
            assert_eq!(run(&master, sql).unwrap().relation().len(), 1, "{sql}");
            assert_eq!(run(&pinned, sql).unwrap().relation().len(), 0, "{sql}");
        }
    }

    /// A `TAG`'s successor shares every row it did not tag with its
    /// predecessor, whose rows stay as they were, on the fast path and on
    /// the conflict path alike.
    #[test]
    fn tag_successor_shares_untagged_rows() {
        let deep = |rel: &TaggedRelation| -> Vec<Vec<QualityCell>> {
            rel.iter().map(|r| r.to_vec()).collect()
        };
        let mut master = catalog();
        let snap = master.snapshot();
        let w1 = prepare_write(
            &snap,
            "TAG stocks SET price@inspection = 'A' WHERE ticker = 'FRT'",
        )
        .unwrap();
        let w2 = prepare_write(
            &snap,
            "TAG stocks SET price@inspection = 'B' WHERE price >= 20.0",
        )
        .unwrap();
        // w2 was prepared before w1 landed: it takes the conflict path
        for w in [w1, w2] {
            let pinned = master.snapshot();
            let old = pinned.get("stocks").unwrap();
            let copy = deep(old);
            let rows: Vec<usize> = w.tags().iter().map(|(row, ..)| *row).collect();
            w.apply(&mut master).unwrap();
            assert_eq!(deep(old), copy);
            let new = master.get("stocks").unwrap();
            for (i, (a, b)) in old.iter().zip(new.iter()).enumerate() {
                assert_eq!(Arc::ptr_eq(a, b), !rows.contains(&i), "row {i}");
            }
        }
    }

    #[test]
    fn prepare_write_refuses_reads() {
        assert!(prepare_write(&catalog(), "SELECT * FROM stocks").is_err());
    }

    /// A clone taken before a re-registration is a stable snapshot: it
    /// keeps answering from the old version (its caches included) while
    /// the writer's catalog serves the new one.
    #[test]
    fn snapshot_isolated_from_later_registration() {
        let mut c = catalog();
        let sql = "SELECT * FROM stocks WHERE ticker = 'NEWCO'";
        let snap = c.snapshot();
        let mut stocks = c.get("stocks").unwrap().clone();
        stocks
            .push(vec![QualityCell::bare("NEWCO"), QualityCell::bare(9.0)])
            .unwrap();
        c.register("stocks", stocks);
        assert_eq!(run(&c, sql).unwrap().relation().len(), 1);
        assert_eq!(run(&snap, sql).unwrap().relation().len(), 0);
        assert_eq!(snap.get("stocks").unwrap().len(), 3);
        assert_eq!(c.get("stocks").unwrap().len(), 4);
    }

    #[test]
    fn untagged_rows_excluded_by_quality_clause() {
        let mut c = catalog();
        let mut stocks = c.get("stocks").unwrap().clone();
        stocks
            .push(vec![QualityCell::bare("ZZZ"), QualityCell::bare(1.0)])
            .unwrap();
        c.register("stocks", stocks);
        let all = run(&c, "SELECT * FROM stocks").unwrap();
        assert_eq!(all.relation().len(), 4);
        let tagged_only = run(&c, "SELECT * FROM stocks WITH QUALITY (price@age >= 0)").unwrap();
        assert_eq!(tagged_only.relation().len(), 3);
    }
}

#[cfg(test)]
mod mutation_tests {
    use super::*;
    use relstore::{Date, Value};
    use tagstore::{IndicatorDictionary, IndicatorValue};

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    fn catalog() -> QueryCatalog {
        let schema = Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]);
        let rel = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![
                    QualityCell::bare("Fruit Co"),
                    QualityCell::bare(4004i64)
                        .with_tag(IndicatorValue::new("creation_time", d("10-3-91"))),
                ],
                vec![
                    QualityCell::bare("Nut Co"),
                    QualityCell::bare(700i64)
                        .with_tag(IndicatorValue::new("creation_time", d("10-9-91"))),
                ],
                vec![QualityCell::bare("Bolt Co"), QualityCell::bare(12i64)],
            ],
        )
        .unwrap();
        let mut c = QueryCatalog::new();
        c.register("customer", rel);
        c
    }

    #[test]
    fn tag_sets_literal_on_filtered_rows() {
        let mut c = catalog();
        let r = run_mut(
            &mut c,
            "TAG customer SET employees@source = 'Nexis' WHERE employees > 100",
        )
        .unwrap();
        assert_eq!(
            r.relation().cell(0, "cells_tagged").unwrap().value,
            Value::Int(2)
        );
        let rel = c.get("customer").unwrap();
        assert_eq!(rel.cell(0, "employees").unwrap().tag_value("source"), Value::text("Nexis"));
        assert_eq!(rel.cell(2, "employees").unwrap().tag_value("source"), Value::Null);
    }

    #[test]
    fn tag_computes_derived_indicator() {
        // the paper's age derivation, as a statement
        let mut c = catalog();
        run_mut(
            &mut c,
            "TAG customer SET employees@age = DATE '1991-10-24' - employees@creation_time",
        )
        .unwrap();
        let rel = c.get("customer").unwrap();
        assert_eq!(rel.cell(0, "employees").unwrap().tag_value("age"), Value::Int(21));
        assert_eq!(rel.cell(1, "employees").unwrap().tag_value("age"), Value::Int(15));
        // Bolt Co has no creation_time → expression NULL → not tagged
        assert_eq!(rel.cell(2, "employees").unwrap().tag_value("age"), Value::Null);
    }

    #[test]
    fn tag_statement_validation() {
        let mut c = catalog();
        // undeclared indicator rejected by the dictionary
        assert!(run_mut(&mut c, "TAG customer SET employees@sparkle = 1").is_err());
        // missing @ rejected at parse time
        assert!(run_mut(&mut c, "TAG customer SET employees = 1").is_err());
        // meta-tag targets rejected
        assert!(run_mut(&mut c, "TAG customer SET employees@source@inspection = 'x'").is_err());
        // unknown table
        assert!(run_mut(&mut c, "TAG ghosts SET x@source = 'x'").is_err());
        // read-only entry point refuses TAG
        assert!(run(&c, "TAG customer SET employees@source = 'x'").is_err());
        // run_mut passes reads through
        assert!(run_mut(&mut c, "SELECT * FROM customer").is_ok());
    }

    #[test]
    fn having_filters_groups() {
        let mut c = catalog();
        // add trades-like rows for grouping
        let schema = Schema::of(&[("k", DataType::Text), ("v", DataType::Int)]);
        let rel = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![QualityCell::bare("a"), QualityCell::bare(1i64)],
                vec![QualityCell::bare("a"), QualityCell::bare(2i64)],
                vec![QualityCell::bare("b"), QualityCell::bare(10i64)],
            ],
        )
        .unwrap();
        c.register("t", rel);
        let r = run(
            &c,
            "SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING s > 5 ORDER BY k",
        )
        .unwrap();
        let out = r.relation();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "k").unwrap().value, Value::text("b"));
        // HAVING without aggregation is rejected
        assert!(run(&c, "SELECT k FROM t HAVING k = 'a'").is_err());
        // HAVING over COUNT
        let r = run(&c, "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING n >= 2").unwrap();
        assert_eq!(r.relation().len(), 1);
    }

    #[test]
    fn tag_then_query_roundtrip() {
        let mut c = catalog();
        run_mut(
            &mut c,
            "TAG customer SET employees@age = DATE '1991-10-24' - employees@creation_time",
        )
        .unwrap();
        let fresh = run(
            &c,
            "SELECT name FROM customer WITH QUALITY (employees@age <= 18)",
        )
        .unwrap();
        assert_eq!(fresh.relation().len(), 1);
        assert_eq!(
            fresh.relation().cell(0, "name").unwrap().value,
            Value::text("Nut Co")
        );
    }

    /// `SET` runs on the rows `WHERE` keeps and on no other: Bolt Co's
    /// `employees - 12` is zero, and only a statement that tags Bolt Co
    /// divides by it.
    #[test]
    fn tag_evaluates_set_only_on_kept_rows() {
        let set = "TAG customer SET employees@age = 1000 / (employees - 12)";
        for (filter, tagged) in [
            (" WHERE employees > 12", 2),                     // unkeyed: mask over the relation
            (" WHERE name = 'Nut Co'", 1),                    // keyed: hash lookup
            (" WHERE name = 'Nut Co' AND employees > 12", 1), // keyed, with a residual
            (" WHERE name = 'Bolt Co' AND employees > 12", 0), // keyed, re-check drops the row
        ] {
            let mut c = catalog();
            let r = run_mut(&mut c, &format!("{set}{filter}")).unwrap();
            let cells = r.relation().cell(0, "cells_tagged").unwrap().value.clone();
            assert_eq!(cells, Value::Int(tagged), "{filter}");
            let rel = c.get("customer").unwrap();
            assert_eq!(rel.cell(1, "employees").unwrap().tag_value("age").is_null(), tagged == 0);
            assert!(rel.cell(2, "employees").unwrap().tag_value("age").is_null());
        }
        // no WHERE, or one that keeps Bolt Co: the error is the statement's
        for filter in ["", " WHERE name = 'Bolt Co'", " WHERE employees >= 12"] {
            let mut c = catalog();
            let before = c.get("customer").unwrap().clone();
            let e = run_mut(&mut c, &format!("{set}{filter}")).unwrap_err();
            assert!(e.to_string().contains("division by zero"), "{filter}: {e}");
            assert_eq!(c.get("customer").unwrap(), &before);
        }
        // an unknown column in SET is an error even when WHERE keeps nothing
        let mut c = catalog();
        assert!(run_mut(&mut c, "TAG customer SET employees@age = ghost WHERE name = 'x'").is_err());
    }

    #[test]
    fn expr_tag_expression_error_propagates() {
        let mut c = catalog();
        // type error inside the value expression surfaces
        assert!(run_mut(&mut c, "TAG customer SET employees@source = name + 1").is_err());
    }
}

#[cfg(test)]
mod paged_tests {
    use super::*;
    use relstore::{Date, Value};
    use tagstore::{IndicatorDictionary, IndicatorValue};

    /// In-memory stand-in for the server's DurableDb-backed provider:
    /// answers from a held relation and reports canned page stats, so
    /// the planner/executor/EXPLAIN wiring is testable without a disk.
    #[derive(Debug)]
    struct MemPaged {
        rel: TaggedRelation,
        stats: PagedScanStats,
    }

    impl PagedProvider for MemPaged {
        fn schema(&self) -> DbResult<Schema> {
            Ok(self.rel.schema().clone())
        }
        fn dictionary(&self) -> DbResult<IndicatorDictionary> {
            Ok(self.rel.dictionary().clone())
        }
        fn row_count(&self) -> DbResult<u64> {
            Ok(self.rel.len() as u64)
        }
        fn scan(&self) -> DbResult<TaggedRelation> {
            Ok(self.rel.clone())
        }
        fn select(&self, predicate: &Expr) -> DbResult<TaggedRelation> {
            let crel = ColumnarRelation::from_tagged(&self.rel);
            let (sel, _) = selection_columnar(&crel, predicate, DEFAULT_BATCH_SIZE)?;
            Ok(crel.gather(&sel))
        }
        fn select_indexed(&self, predicate: &Expr) -> DbResult<(TaggedRelation, PagedScanStats)> {
            Ok((self.select(predicate)?, self.stats))
        }
        fn access_estimate(&self, predicate: &Expr) -> Option<(Vec<String>, f64)> {
            let bound =
                Predicate::bind(self.rel.schema(), self.rel.dictionary(), predicate).ok()?;
            let atoms = bound.atoms();
            if atoms.is_empty() {
                return None;
            }
            let est = QualityIndex::build(&self.rel).estimate(atoms)?;
            Some((atoms.iter().map(|a| a.to_string()).collect(), est))
        }
    }

    fn stocks() -> TaggedRelation {
        let dict = IndicatorDictionary::with_paper_defaults();
        let mk = |t: &str, p: f64, src: &str| {
            vec![
                QualityCell::bare(t),
                QualityCell::bare(p)
                    .with_tag(IndicatorValue::new("creation_time", Value::Date(Date::parse("10-1-91").unwrap())))
                    .with_tag(IndicatorValue::new("source", src)),
            ]
        };
        TaggedRelation::new(
            Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
            dict,
            vec![
                mk("FRT", 10.0, "NYSE feed"),
                mk("NUT", 20.0, "NYSE feed"),
                mk("BLT", 30.0, "manual entry"),
            ],
        )
        .unwrap()
    }

    fn trades() -> TaggedRelation {
        TaggedRelation::new(
            Schema::of(&[("tkr", DataType::Text), ("qty", DataType::Int)]),
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![QualityCell::bare("FRT"), QualityCell::bare(100i64)],
                vec![QualityCell::bare("NUT"), QualityCell::bare(10i64)],
            ],
        )
        .unwrap()
    }

    fn paged_catalog(stats: PagedScanStats) -> QueryCatalog {
        let mut c = QueryCatalog::new();
        c.register_paged("stocks", Arc::new(MemPaged { rel: stocks(), stats }));
        c.register("trades", trades());
        c
    }

    #[test]
    fn paged_table_plans_paged_index_scan_and_matches_inmemory() {
        let paged = paged_catalog(PagedScanStats::default());
        let mut resident = QueryCatalog::new();
        resident.register("stocks", stocks());
        resident.register("trades", trades());
        for sql in [
            "SELECT * FROM stocks",
            "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')",
            "SELECT ticker FROM stocks WHERE price > 5 \
             WITH QUALITY (price@source <> 'manual entry')",
            "SELECT * FROM stocks WHERE price > 15",
            "SELECT tkr, price FROM trades JOIN stocks ON tkr = ticker",
        ] {
            let a = run(&paged, sql).unwrap();
            let b = run(&resident, sql).unwrap();
            assert_eq!(a.relation().strip(), b.relation().strip(), "{sql}");
        }
        // the selective quality σ takes the paged index path…
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')";
        let e = explain(&paged, sql, &Planner::default()).unwrap();
        assert!(
            e.contains("PagedIndexScan table=stocks access=bitmap[price@source=manual entry]"),
            "{e}"
        );
        assert!(e.contains("est_selectivity=0.3333"), "{e}");
        // …the same query over the resident copy takes the in-memory one
        let e = explain(&resident, sql, &Planner::default()).unwrap();
        assert!(e.contains("IndexScan table=stocks"), "{e}");
        // a value-only σ has no sargable atoms: streaming paged filter
        let e = explain(&paged, "SELECT * FROM stocks WHERE price > 15", &Planner::default())
            .unwrap();
        assert!(e.contains("Filter predicate="), "{e}");
        assert!(e.contains("TableScan table=stocks access=scan"), "{e}");
    }

    #[test]
    fn explain_analyze_annotates_paged_operators() {
        let c = paged_catalog(PagedScanStats {
            pages_read: 7,
            pool_hits: 3,
            candidate_pages: 5,
        });
        let sql = "SELECT * FROM stocks WITH QUALITY (price@source = 'manual entry')";
        let r = run(&c, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert_eq!(r.relation().len(), 1);
        let report = r.report().unwrap();
        let line = report
            .lines()
            .find(|l| l.contains("PagedIndexScan"))
            .unwrap_or_else(|| panic!("no PagedIndexScan line in:\n{report}"));
        for needle in [
            "rows=1",
            "est_selectivity=0.3333 actual_selectivity=0.3333 err=+0.0000",
            "layout=paged",
            "pages_read=7",
            "pool_hits=3",
        ] {
            assert!(line.contains(needle), "missing {needle:?} in: {line}");
        }
        // streaming σ over the paged heap: layout=paged, no page stats
        // (the provider visits every page; nothing was skipped)
        let report =
            explain_analyze(&c, "SELECT * FROM stocks WHERE price > 15", &Planner::default())
                .unwrap();
        let line = report.lines().find(|l| l.starts_with("Filter")).unwrap();
        assert!(line.contains("layout=paged"), "{report}");
        assert!(!line.contains("pages_read="), "{report}");
        // operator text still matches plain EXPLAIN, line for line
        let plain = explain(&c, sql, &Planner::default()).unwrap();
        let analyzed = explain_analyze(&c, sql, &Planner::default()).unwrap();
        let ops: Vec<&str> = analyzed
            .lines()
            .map(|l| l.split(" | ").next().unwrap())
            .collect();
        assert_eq!(plain.lines().collect::<Vec<_>>(), ops);
    }

    #[test]
    fn joins_never_probe_a_paged_right_side() {
        let c = paged_catalog(PagedScanStats::default());
        // stocks (paged) on the right: the IndexJoin rewrite must not
        // fire — there is no resident key index to probe
        let e = explain(
            &c,
            "SELECT * FROM trades JOIN stocks ON tkr = ticker",
            &Planner::default(),
        )
        .unwrap();
        assert!(e.contains("HashJoin on=tkr=ticker access=build"), "{e}");
        assert!(!e.contains("IndexJoin"), "{e}");
        // trades (resident) on the right still probes its index
        let e = explain(
            &c,
            "SELECT * FROM stocks JOIN trades ON ticker = tkr",
            &Planner::default(),
        )
        .unwrap();
        assert!(e.contains("IndexJoin on=ticker=tkr right=trades"), "{e}");
        // and the analyzed paged-left probe still executes correctly
        let r = run(
            &c,
            "EXPLAIN ANALYZE SELECT * FROM stocks JOIN trades ON ticker = tkr",
        )
        .unwrap();
        assert_eq!(r.relation().len(), 2);
    }

    /// A join with a paged side lifts that side's rows into a columnar
    /// layout once; every statement answers exactly as the all-resident
    /// twin does — tags, row order and rendering included.
    #[test]
    fn paged_side_joins_like_its_resident_twin() {
        let paged = paged_catalog(PagedScanStats::default());
        let mut resident = QueryCatalog::new();
        resident.register("stocks", stocks());
        resident.register("trades", trades());
        for sql in [
            "SELECT * FROM trades JOIN stocks ON tkr = ticker",
            "SELECT * FROM stocks JOIN trades ON ticker = tkr",
            "SELECT ticker, qty, price@source AS src FROM stocks JOIN trades ON ticker = tkr \
             WITH QUALITY (price@source = 'NYSE feed')",
            "SELECT tkr, COUNT(*) AS n, MIN(price) AS lo FROM trades JOIN stocks \
             ON tkr = ticker WHERE qty > 5 GROUP BY tkr ORDER BY tkr",
            "SELECT * FROM stocks JOIN trades ON ticker = tkr WHERE ticker = 'NUT'",
        ] {
            let (a, b) = (run(&paged, sql).unwrap(), run(&resident, sql).unwrap());
            assert_eq!(a.relation(), b.relation(), "{sql}");
            assert_eq!(a.relation().to_paper_table(), b.relation().to_paper_table(), "{sql}");
            assert!(!a.relation().is_empty(), "{sql}");
        }
    }

    #[test]
    fn paged_catalog_surface() {
        let mut c = paged_catalog(PagedScanStats::default());
        assert!(c.is_paged_table("stocks"));
        assert!(!c.is_paged_table("trades"));
        assert_eq!(c.names(), vec!["stocks", "trades"]);
        assert_eq!(
            c.schema_and_dictionary("stocks").unwrap().0.names(),
            vec!["ticker", "price"]
        );
        // TAG routes writers to the storage layer
        let err = run_mut(&mut c, "TAG stocks SET price@source = 'x'").unwrap_err();
        assert!(
            err.to_string().contains("paged storage"),
            "unhelpful error: {err}"
        );
        // re-registering as resident flips the table out of the paged map
        let g0 = c.generation();
        c.register("stocks", stocks());
        assert!(!c.is_paged_table("stocks"));
        assert!(c.generation() > g0);
        assert_eq!(c.names(), vec!["stocks", "trades"]);
        assert!(run_mut(&mut c, "TAG stocks SET price@source = 'x'").is_ok());
    }
}
