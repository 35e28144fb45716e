//! [`DurableDb`]: the durable facade over the whole quality stack.
//!
//! One database directory holds WAL segments plus checkpoints covering
//! two kinds of state: `tagstore` tagged relations (resident rows, or
//! pages behind the buffer pool) and the `dq-admin` audit trail. A
//! resident mutation is **applied first, logged second**: the in-memory
//! engine validates and performs the operation, and only a successful
//! operation is appended to the WAL — so every logged record is one that
//! once succeeded, and replaying the committed prefix through the same
//! code paths is deterministic redo. (Paged mutations validate, log, then
//! apply; see [`DurableDb::create_paged`].)
//!
//! ## Recovery
//!
//! [`DurableDb::open`] loads the newest intact checkpoint and replays the
//! WAL records beyond its LSN (the log's torn tail, if any, was already
//! truncated by the scan). No index is persisted or rebuilt here: a
//! resident relation's readers (the query catalog) build their own
//! access paths, and a paged relation's index is built on its first
//! indexed read.

use crate::buffer_pool::{BufferPool, LogGate, NoGate};
use crate::checkpoint::{self, CheckpointData, TaggedSnapshot};
use crate::fs::Fs;
use crate::paged::{PagedReadStats, PagedRelation};
use crate::record::WalRecord;
use crate::wal::{self, Wal, WalOptions};
use dq_admin::{AuditAction, AuditTrail};
use relstore::{Date, DbError, DbResult, Expr, Schema, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tagstore::{
    IndicatorDef, IndicatorDictionary, IndicatorValue, Predicate, QualityIndex, TaggedRelation,
    TaggedRow, ToPredicate,
};

/// Tuning knobs for a durable database.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// WAL segment sizing.
    pub wal: WalOptions,
    /// When true, mutations only buffer WAL frames; durability waits for
    /// an explicit [`DurableDb::commit`] (one fsync covers the whole
    /// group). When false, every mutation commits immediately.
    pub group_commit: bool,
    /// Page size for paged relations (bytes; max 65536).
    pub page_size: usize,
    /// Buffer-pool budget in frames (clamped up to
    /// [`crate::buffer_pool::MIN_FRAMES`]) — total paged memory is
    /// `pool_pages × page_size` regardless of how large the paged
    /// relations grow.
    pub pool_pages: usize,
    /// Whether indexed paged reads may coalesce physically-contiguous
    /// page runs into single reads (sorted readahead). On by default;
    /// the off position exists for benchmarking the coalescing win.
    pub readahead: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            wal: WalOptions::default(),
            group_commit: false,
            page_size: 16 * 1024,
            pool_pages: 256, // 4 MiB of paged memory by default
            readahead: true,
        }
    }
}

/// The write-ahead gate the buffer pool flushes behind: commits the WAL
/// (advancing the MVCC epoch exactly like [`DurableDb::commit`]) until
/// the page's LSN is durable. Borrows only the WAL and the epoch
/// counter, so paged relations and the pool stay independently
/// borrowable during an operation.
struct DbGate<'a> {
    wal: &'a mut Wal,
    epoch: &'a mut u64,
}

impl LogGate for DbGate<'_> {
    fn ensure_durable(&mut self, lsn: u64) -> DbResult<()> {
        if self.wal.durable_lsn() >= lsn {
            return Ok(());
        }
        let pending = self.wal.pending_records();
        self.wal.commit()?;
        if pending > 0 {
            // a forced early group commit still publishes its epoch —
            // same accounting as DurableDb::commit
            *self.epoch += 1;
            dq_obs::counter!("mvcc.epochs_published").incr();
        }
        if self.wal.durable_lsn() < lsn {
            return Err(DbError::Storage(format!(
                "write-ahead gate: lsn {lsn} still not durable after commit"
            )));
        }
        Ok(())
    }
}

/// What [`DurableDb::open`] did to get the database back.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Checkpoint file the state was loaded from, if any.
    pub checkpoint: Option<String>,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Bytes of torn WAL tail truncated during the scan.
    pub truncated_bytes: u64,
    /// MVCC epoch of the last committed record (checkpoint or WAL) —
    /// the epoch counter the recovered database resumes from.
    pub epoch: u64,
}

/// Derived access paths for one paged relation: the quality bitmap
/// index plus lazily-built per-column `col = literal` key hashes.
/// Never persisted — built on first indexed access (streaming the
/// relation once through the pool with scan admission) and maintained
/// incrementally by every subsequent mutation; recovery simply starts
/// with the cache empty and the WAL redo leaves the base relation to
/// rebuild from.
struct PagedIndexState {
    quality: QualityIndex,
    /// `column ordinal → (value → sorted row positions)`.
    keys: HashMap<usize, HashMap<Value, Vec<u64>>>,
}

/// A durable quality database: tagged relations (resident and paged) and
/// the audit trail, all recovered from one directory on [`DurableDb::open`].
pub struct DurableDb {
    fs: Arc<dyn Fs>,
    wal: Wal,
    group_commit: bool,
    /// Committed MVCC epoch: records buffered toward the next commit are
    /// stamped `epoch + 1`; a successful commit advances this.
    epoch: u64,
    tagged: BTreeMap<String, TaggedRelation>,
    audit: AuditTrail,
    pool: BufferPool,
    paged: BTreeMap<String, PagedRelation>,
    /// Derived indexes over `paged`, keyed by relation name.
    paged_index: BTreeMap<String, PagedIndexState>,
}

impl std::fmt::Debug for DurableDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableDb")
            .field("tagged", &self.tagged.keys().collect::<Vec<_>>())
            .field("paged", &self.paged.keys().collect::<Vec<_>>())
            .field("audit_events", &self.audit.len())
            .field("wal", &self.wal)
            .finish()
    }
}

fn flatten_dict(dict: &IndicatorDictionary) -> Vec<IndicatorDef> {
    dict.names()
        .iter()
        .map(|n| dict.get(n).expect("listed name resolves").clone())
        .collect()
}

fn build_dict(defs: &[IndicatorDef]) -> DbResult<IndicatorDictionary> {
    let mut dict = IndicatorDictionary::new();
    for d in defs {
        dict.declare(d.clone())?;
    }
    Ok(dict)
}

/// Removes `pos` from the key-hash posting list for `v`, pruning empty
/// lists so probes for vanished values stay `None`.
fn remove_key_pos(hash: &mut HashMap<Value, Vec<u64>>, v: &Value, pos: u64) {
    if let Some(list) = hash.get_mut(v) {
        if let Ok(at) = list.binary_search(&pos) {
            list.remove(at);
        }
        if list.is_empty() {
            hash.remove(v);
        }
    }
}

/// Mutable state recovery applies records onto.
struct Recovering {
    fs: Arc<dyn Fs>,
    tagged: BTreeMap<String, TaggedRelation>,
    audit: AuditTrail,
    pool: BufferPool,
    paged: BTreeMap<String, PagedRelation>,
}

impl Recovering {
    fn from_checkpoint(
        fs: Arc<dyn Fs>,
        opts: &DurableOptions,
        data: CheckpointData,
    ) -> DbResult<Self> {
        let mut tagged = BTreeMap::new();
        for snap in data.tagged {
            let TaggedSnapshot {
                name,
                schema,
                dict,
                relation_tags,
                rows,
            } = snap;
            let mut rel = TaggedRelation::new(schema, build_dict(&dict)?, rows)?;
            for tag in relation_tags {
                rel.tag_relation(tag)?;
            }
            tagged.insert(name, rel);
        }
        let mut pool = BufferPool::new(opts.page_size, opts.pool_pages);
        pool.set_readahead(opts.readahead);
        let mut paged = BTreeMap::new();
        for snap in &data.paged {
            let rel =
                PagedRelation::restore(&mut pool, Arc::clone(&fs), snap, build_dict(&snap.dict)?);
            paged.insert(snap.name.clone(), rel);
        }
        let mut audit = AuditTrail::new();
        for e in data.audit_events {
            audit.replay(e);
        }
        Ok(Recovering {
            fs,
            tagged,
            audit,
            pool,
            paged,
        })
    }

    fn tagged_mut(&mut self, name: &str) -> DbResult<&mut TaggedRelation> {
        self.tagged
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Redo of one committed record — the recovery twin of the logged
    /// mutation methods on [`DurableDb`]. Paged mutations reuse the
    /// record's original `lsn` for page stamps, so rebuilt pages carry
    /// the same recovery positions as the originals.
    fn apply(&mut self, lsn: u64, rec: WalRecord) -> DbResult<()> {
        match rec {
            WalRecord::CreateTagged { name, schema, dict } => {
                if self.tagged.contains_key(&name) {
                    return Err(DbError::DuplicateTable(name));
                }
                self.tagged
                    .insert(name, TaggedRelation::empty(schema, build_dict(&dict)?));
            }
            WalRecord::TagPush { name, row } => {
                self.tagged_mut(&name)?.push(row)?;
            }
            WalRecord::TagCell {
                name,
                row,
                column,
                tag,
            } => {
                self.tagged_mut(&name)?.tag_cell(row as usize, &column, tag)?;
            }
            WalRecord::TagRemove { name, row } => {
                self.tagged_mut(&name)?.swap_remove(row as usize)?;
            }
            WalRecord::Audit { event } => {
                self.audit.replay(event);
            }
            WalRecord::PagedCreate { name, schema, dict } => {
                if self.paged.contains_key(&name) {
                    return Err(DbError::DuplicateTable(name));
                }
                let rel = PagedRelation::create(
                    &mut self.pool,
                    Arc::clone(&self.fs),
                    &name,
                    schema,
                    build_dict(&dict)?,
                );
                self.paged.insert(name, rel);
            }
            WalRecord::PagedPush { name, row } => {
                let rel = self
                    .paged
                    .get_mut(&name)
                    .ok_or(DbError::UnknownTable(name))?;
                rel.push(&mut self.pool, &mut NoGate, lsn, &row)?;
            }
            WalRecord::PagedTagCell {
                name,
                row,
                column,
                tag,
            } => {
                let rel = self
                    .paged
                    .get_mut(&name)
                    .ok_or(DbError::UnknownTable(name))?;
                rel.tag_cell(&mut self.pool, &mut NoGate, lsn, row, &column, tag)?;
            }
            WalRecord::PagedRemove { name, row } => {
                let rel = self
                    .paged
                    .get_mut(&name)
                    .ok_or(DbError::UnknownTable(name))?;
                rel.swap_remove(&mut self.pool, &mut NoGate, lsn, row)?;
            }
        }
        Ok(())
    }
}

/// The WAL record of one cell tag.
fn tag_record(name: &str, row: usize, column: &str, tag: &IndicatorValue) -> WalRecord {
    WalRecord::TagCell {
        name: name.to_owned(),
        row: row as u64,
        column: column.to_owned(),
        tag: tag.clone(),
    }
}

impl DurableDb {
    /// Opens (recovering) the database stored under `fs`.
    ///
    /// Steps: load the newest intact checkpoint → scan the WAL (truncating
    /// a torn tail) → redo records beyond the checkpoint LSN. No index is
    /// built: a paged relation's is built on its first indexed read.
    pub fn open(fs: Arc<dyn Fs>, opts: DurableOptions) -> DbResult<(DurableDb, RecoveryReport)> {
        let _t = dq_obs::histogram!("recovery.duration_us").start();
        dq_obs::counter!("recovery.runs").incr();

        let (ckpt_name, ckpt) = match checkpoint::load_latest(fs.as_ref())? {
            Some((name, data)) => (Some(name), data),
            None => (None, CheckpointData::default()),
        };
        let checkpoint_lsn = ckpt.last_lsn;
        let checkpoint_epoch = ckpt.epoch;
        let mut state = Recovering::from_checkpoint(Arc::clone(&fs), &opts, ckpt)?;

        let scan = wal::replay(fs.as_ref())?;
        let mut replayed = 0u64;
        for (lsn, _epoch, rec) in scan.records {
            if lsn <= checkpoint_lsn {
                continue; // already inside the checkpoint
            }
            state.apply(lsn, rec).map_err(|e| {
                DbError::Storage(format!("recovery: redo of WAL record lsn={lsn} failed: {e}"))
            })?;
            replayed += 1;
        }
        dq_obs::counter!("recovery.replay").add(replayed);
        dq_obs::counter!("recovery.truncated_bytes").add(scan.truncated_bytes);

        let next_lsn = scan.next_lsn.max(checkpoint_lsn + 1);
        // the committed epoch is whichever authority saw it last: the
        // checkpoint (WAL pruned since) or the replayed log tail
        let epoch = checkpoint_epoch.max(scan.last_epoch);
        let wal = Wal::resume(Arc::clone(&fs), opts.wal.clone(), next_lsn, scan.tail);
        let report = RecoveryReport {
            checkpoint: ckpt_name,
            replayed_records: replayed,
            truncated_bytes: scan.truncated_bytes,
            epoch,
        };
        Ok((
            DurableDb {
                fs,
                wal,
                group_commit: opts.group_commit,
                epoch,
                tagged: state.tagged,
                audit: state.audit,
                pool: state.pool,
                paged: state.paged,
                // derived: rebuilt lazily on first indexed access
                paged_index: BTreeMap::new(),
            },
            report,
        ))
    }

    /// Opens a database directory on the real filesystem.
    pub fn open_dir(
        path: impl Into<std::path::PathBuf>,
        opts: DurableOptions,
    ) -> DbResult<(DurableDb, RecoveryReport)> {
        let fs = crate::fs::StdFs::open(path)?;
        DurableDb::open(Arc::new(fs), opts)
    }

    /// Appends to the WAL, stamped with the epoch the enclosing commit
    /// will publish (`epoch + 1`); under autocommit, also makes it
    /// durable (and advances the epoch).
    fn log(&mut self, rec: WalRecord) -> DbResult<()> {
        self.wal.append(&rec, self.epoch + 1);
        if !self.group_commit {
            self.commit()?;
        }
        Ok(())
    }

    /// Flushes buffered WAL frames with one fsync (the group commit)
    /// and advances the committed MVCC epoch if anything was pending.
    /// A no-op with nothing pending.
    pub fn commit(&mut self) -> DbResult<()> {
        let pending = self.wal.pending_records();
        self.wal.commit()?;
        if pending > 0 {
            self.epoch += 1;
            dq_obs::counter!("mvcc.epochs_published").incr();
        }
        Ok(())
    }

    // ---- tagged relations -----------------------------------------------

    /// Creates an empty tagged relation governed by `dict`.
    pub fn create_tagged(
        &mut self,
        name: &str,
        schema: Schema,
        dict: IndicatorDictionary,
    ) -> DbResult<()> {
        if self.tagged.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_owned()));
        }
        let defs = flatten_dict(&dict);
        let rel = TaggedRelation::empty(schema.clone(), dict);
        self.tagged.insert(name.to_owned(), rel);
        self.log(WalRecord::CreateTagged {
            name: name.to_owned(),
            schema,
            dict: defs,
        })
    }

    fn tagged_mut(&mut self, name: &str) -> DbResult<&mut TaggedRelation> {
        self.tagged
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Appends a tagged row (validated).
    pub fn push(&mut self, name: &str, row: impl Into<TaggedRow>) -> DbResult<()> {
        let row = row.into();
        self.tagged_mut(name)?.push(row.clone())?;
        self.log(WalRecord::TagPush {
            name: name.to_owned(),
            row,
        })
    }

    /// Tags one cell of a tagged relation: checked, logged, then applied,
    /// so an autocommit that fails leaves the relation as it was.
    pub fn tag_cell(
        &mut self,
        name: &str,
        row: usize,
        column: &str,
        tag: IndicatorValue,
    ) -> DbResult<()> {
        self.check_tag(name, row, column, &tag)?;
        self.log(tag_record(name, row, column, &tag))?;
        self.tagged_mut(name)?.tag_cell(row, column, tag)
    }

    /// Tags cells of a tagged relation as one commit: every tag is
    /// checked, logged and made durable before the relation changes, so
    /// a commit that fails leaves the relation as it was.
    pub fn tag_cells(
        &mut self,
        name: &str,
        tags: &[(usize, String, IndicatorValue)],
    ) -> DbResult<()> {
        for (row, column, tag) in tags {
            self.check_tag(name, *row, column, tag)?;
        }
        for (row, column, tag) in tags {
            self.wal.append(&tag_record(name, *row, column, tag), self.epoch + 1);
        }
        self.commit()?;
        let rel = self.tagged_mut(name)?;
        for (row, column, tag) in tags {
            rel.tag_cell(*row, column, tag.clone())?;
        }
        Ok(())
    }

    /// Whether `tag` may land on cell (`row`, `column`) of `name`.
    fn check_tag(&self, name: &str, row: usize, col: &str, tag: &IndicatorValue) -> DbResult<()> {
        let rel = self.tagged(name)?;
        rel.cell(row, col)?;
        rel.dictionary().check(tag)
    }

    /// Removes row `row` from a tagged relation (swap-remove).
    #[cfg(test)]
    pub fn swap_remove(&mut self, name: &str, row: usize) -> DbResult<TaggedRow> {
        let removed = self.tagged_mut(name)?.swap_remove(row)?;
        self.log(WalRecord::TagRemove {
            name: name.to_owned(),
            row: row as u64,
        })?;
        Ok(removed)
    }

    // ---- paged relations ------------------------------------------------
    //
    // Paged mutations are **log-then-apply** (the reverse of the in-memory
    // tables): validation runs first against the schema/dictionary, the
    // WAL record is appended, and only then is the page mutation applied,
    // stamped with the record's LSN. The order matters — applying first
    // could evict a dirty page stamped with an LSN the log does not hold
    // yet, and the write-ahead gate would deadlock on it.

    /// Creates an empty paged relation governed by `dict`. Rows live in
    /// slotted pages behind the buffer pool, so the relation can grow
    /// past the pool budget (and past RAM).
    pub fn create_paged(
        &mut self,
        name: &str,
        schema: Schema,
        dict: IndicatorDictionary,
    ) -> DbResult<()> {
        if self.paged.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_owned()));
        }
        let defs = flatten_dict(&dict);
        self.wal.append(
            &WalRecord::PagedCreate {
                name: name.to_owned(),
                schema: schema.clone(),
                dict: defs,
            },
            self.epoch + 1,
        );
        let rel = PagedRelation::create(&mut self.pool, Arc::clone(&self.fs), name, schema, dict);
        self.paged.insert(name.to_owned(), rel);
        self.autocommit()
    }

    fn paged_ref(&self, name: &str) -> DbResult<&PagedRelation> {
        self.paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Appends a row to a paged relation.
    pub fn paged_push(&mut self, name: &str, row: impl Into<TaggedRow>) -> DbResult<()> {
        let row = row.into();
        let rel = self
            .paged
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        rel.validate_push(&self.pool, &row)?;
        let lsn = self.wal.append(
            &WalRecord::PagedPush {
                name: name.to_owned(),
                row: row.clone(),
            },
            self.epoch + 1,
        );
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.push(&mut self.pool, &mut gate, lsn, &row)?;
        let pos = rel.len() - 1;
        if let Some(st) = self.paged_index.get_mut(name) {
            st.quality.note_row(&row);
            for (&ci, hash) in st.keys.iter_mut() {
                hash.entry(row[ci].value.clone()).or_default().push(pos);
            }
        }
        self.autocommit()
    }

    /// Tags one cell of a paged relation.
    pub fn paged_tag_cell(
        &mut self,
        name: &str,
        row: u64,
        column: &str,
        tag: IndicatorValue,
    ) -> DbResult<()> {
        let rel = self
            .paged
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        rel.validate_tag(row, column, &tag)?;
        // index upkeep needs the tag value being replaced (if any) — read
        // it before the mutation, only when an index exists to maintain
        let retag = if self.paged_index.contains_key(name) {
            let ci = rel.schema().resolve(column)?;
            let mut gate = DbGate {
                wal: &mut self.wal,
                epoch: &mut self.epoch,
            };
            let cur = rel.row(&mut self.pool, &mut gate, row)?;
            let old = cur[ci]
                .tags()
                .iter()
                .find(|t| t.indicator == tag.indicator)
                .map(|t| t.value.clone());
            Some((ci, old, tag.indicator.clone(), tag.value.clone()))
        } else {
            None
        };
        let lsn = self.wal.append(
            &WalRecord::PagedTagCell {
                name: name.to_owned(),
                row,
                column: column.to_owned(),
                tag: tag.clone(),
            },
            self.epoch + 1,
        );
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.tag_cell(&mut self.pool, &mut gate, lsn, row, column, tag)?;
        if let Some((ci, old, indicator, value)) = retag {
            let st = self.paged_index.get_mut(name).expect("checked above");
            st.quality.retag(row as usize, ci, old.as_ref(), &indicator, &value);
            // key hashes index base values only — tagging changes none
        }
        self.autocommit()
    }

    /// Removes row `row` from a paged relation (swap-remove), returning
    /// the removed row.
    pub fn paged_swap_remove(&mut self, name: &str, row: u64) -> DbResult<TaggedRow> {
        let rel = self
            .paged
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        rel.check_pos(row)?;
        let last = rel.len() - 1;
        // key-hash upkeep needs the values of the row that swaps into
        // `row`'s position — read them before the mutation
        let moved = if row != last
            && self.paged_index.get(name).is_some_and(|st| !st.keys.is_empty())
        {
            let mut gate = DbGate {
                wal: &mut self.wal,
                epoch: &mut self.epoch,
            };
            Some(rel.row(&mut self.pool, &mut gate, last)?)
        } else {
            None
        };
        let lsn = self.wal.append(
            &WalRecord::PagedRemove {
                name: name.to_owned(),
                row,
            },
            self.epoch + 1,
        );
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        let removed = rel.swap_remove(&mut self.pool, &mut gate, lsn, row)?;
        if let Some(st) = self.paged_index.get_mut(name) {
            st.quality.delete_row(row as usize);
            for (&ci, hash) in st.keys.iter_mut() {
                remove_key_pos(hash, &removed[ci].value, row);
                if let Some(moved) = &moved {
                    // the former last row now lives at `row`
                    remove_key_pos(hash, &moved[ci].value, last);
                    let list = hash.entry(moved[ci].value.clone()).or_default();
                    if let Err(at) = list.binary_search(&row) {
                        list.insert(at, row);
                    }
                }
            }
        }
        self.autocommit()?;
        Ok(removed)
    }

    /// Row count of a paged relation.
    pub fn paged_len(&self, name: &str) -> DbResult<u64> {
        Ok(self.paged_ref(name)?.len())
    }

    /// One row of a paged relation. Needs `&mut self`: the read may pull
    /// pages into the pool (and evict dirty ones through the WAL gate).
    pub fn paged_row(&mut self, name: &str, row: u64) -> DbResult<TaggedRow> {
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.row(&mut self.pool, &mut gate, row)
    }

    /// Quality-predicate selection over a paged relation, streamed
    /// through the pool; only matching rows are materialized.
    pub fn paged_select(
        &mut self,
        name: &str,
        expr: &impl ToPredicate,
    ) -> DbResult<TaggedRelation> {
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.select(&mut self.pool, &mut gate, expr)
    }

    /// `expr` bound against paged relation `name`.
    fn paged_bind(&self, name: &str, expr: &Expr) -> DbResult<Predicate> {
        let rel = self.paged_ref(name)?;
        Predicate::bind(rel.schema(), rel.dictionary(), expr)
    }

    /// Ensures the quality bitmap index for paged relation `name` exists,
    /// building it with one streaming pass (scan admission — the build
    /// cannot evict the hot set) if this is the first indexed access.
    fn ensure_paged_index(&mut self, name: &str) -> DbResult<()> {
        if self.paged_index.contains_key(name) {
            return Ok(());
        }
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        let _t = dq_obs::histogram!("storage.paged.index_build_us").start();
        dq_obs::counter!("storage.paged.index_builds").incr();
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        let mut quality = QualityIndex::new();
        rel.for_each_row(&mut self.pool, &mut gate, |_, row| {
            quality.note_row(&row);
            Ok(())
        })?;
        self.paged_index.insert(
            name.to_owned(),
            PagedIndexState {
                quality,
                keys: HashMap::new(),
            },
        );
        Ok(())
    }

    /// Ensures the `col = literal` key hash for column `ci` of paged
    /// relation `name` exists (requires the quality index to exist).
    fn ensure_paged_key_hash(&mut self, name: &str, ci: usize) -> DbResult<()> {
        if self
            .paged_index
            .get(name)
            .is_some_and(|st| st.keys.contains_key(&ci))
        {
            return Ok(());
        }
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        dq_obs::counter!("storage.paged.key_hash_builds").incr();
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        let mut hash: HashMap<Value, Vec<u64>> = HashMap::new();
        rel.for_each_row(&mut self.pool, &mut gate, |pos, row| {
            hash.entry(row[ci].value.clone()).or_default().push(pos);
            Ok(())
        })?;
        self.paged_index
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?
            .keys
            .insert(ci, hash);
        Ok(())
    }

    /// Planner statistics for a quality predicate over a paged relation:
    /// the index-answerable atoms (rendered) and the estimated
    /// selectivity of their conjunction. Builds the quality index on
    /// first use; `Ok(None)` when nothing in `expr` is index-answerable.
    pub fn paged_access_estimate(
        &mut self,
        name: &str,
        expr: &Expr,
    ) -> DbResult<Option<(Vec<String>, f64)>> {
        self.ensure_paged_index(name)?;
        let pred = self.paged_bind(name, expr)?;
        let atoms = pred.atoms();
        if atoms.is_empty() {
            return Ok(None);
        }
        let st = self.paged_index.get(name).expect("just built");
        let Some(est) = st.quality.estimate(atoms) else {
            return Ok(None);
        };
        Ok(Some((atoms.iter().map(ToString::to_string).collect(), est)))
    }

    /// Index-driven quality selection over a paged relation: bitmap
    /// candidates (and the `col = literal` key hash, when the predicate
    /// carries such a conjunct) shrink the read set to the heap pages
    /// the candidates live on; everything else is skipped. Falls back to
    /// the streaming full scan when nothing is index-answerable. The
    /// result is byte-identical to [`DurableDb::paged_select`].
    pub fn paged_select_indexed(
        &mut self,
        name: &str,
        expr: &Expr,
    ) -> DbResult<(TaggedRelation, PagedReadStats)> {
        self.ensure_paged_index(name)?;
        let pred = self.paged_bind(name, expr)?;
        if let Some((ci, ..)) = pred.key() {
            self.ensure_paged_key_hash(name, ci)?;
        }
        let st = self.paged_index.get(name).expect("just built");
        let atoms = pred.atoms();
        let bitmap = if atoms.is_empty() {
            None
        } else {
            st.quality.candidates(atoms)
        };
        let key: Option<Vec<u64>> = pred.key().map(|(ci, _, v)| {
            st.keys[&ci].get(v).cloned().unwrap_or_default() // absent value ⇒ no rows
        });
        let positions: Vec<u64> = match (bitmap, key) {
            (Some(bs), Some(kp)) => kp
                .into_iter()
                .filter(|&p| bs.contains(p as usize))
                .collect(),
            (Some(bs), None) => bs.iter_ones().map(|p| p as u64).collect(),
            (None, Some(kp)) => kp,
            (None, None) => {
                // nothing index-answerable: stream the full scan
                dq_obs::counter!("storage.paged.index_fallbacks").incr();
                let rel = self.paged_ref(name)?;
                let (heap_pages, _) = rel.pages(&self.pool);
                let candidate_rows = rel.len();
                let out = self.paged_select(name, &pred)?;
                let stats = PagedReadStats {
                    candidate_rows,
                    candidate_pages: heap_pages as u64,
                    rows_out: out.len() as u64,
                    ..Default::default()
                };
                return Ok((out, stats));
            }
        };
        dq_obs::counter!("storage.paged.index_scans").incr();
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.select_at(&mut self.pool, &mut gate, &positions, Some(&pred))
    }

    /// Schema of a paged relation.
    pub fn paged_schema(&self, name: &str) -> DbResult<&Schema> {
        Ok(self.paged_ref(name)?.schema())
    }

    /// A paged relation's indicator dictionary.
    pub fn paged_dictionary(&self, name: &str) -> DbResult<&IndicatorDictionary> {
        Ok(self.paged_ref(name)?.dictionary())
    }

    /// Materializes a whole paged relation in memory (parity checks and
    /// small relations — defeats the point at scale).
    pub fn paged_to_relation(&mut self, name: &str) -> DbResult<TaggedRelation> {
        let rel = self
            .paged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        let mut gate = DbGate {
            wal: &mut self.wal,
            epoch: &mut self.epoch,
        };
        rel.to_relation(&mut self.pool, &mut gate)
    }

    /// Names of all paged relations, sorted.
    pub fn paged_names(&self) -> Vec<&str> {
        self.paged.keys().map(String::as_str).collect()
    }

    /// Pages currently resident in the buffer pool (diagnostics).
    pub fn pool_resident(&self) -> usize {
        self.pool.resident().len()
    }

    /// `(heap, directory)` logical page counts of a paged relation —
    /// what a pool budget is sized against.
    pub fn paged_pages(&self, name: &str) -> DbResult<(u32, u32)> {
        Ok(self.paged_ref(name)?.pages(&self.pool))
    }

    fn autocommit(&mut self) -> DbResult<()> {
        if !self.group_commit {
            self.commit()?;
        }
        Ok(())
    }

    // ---- audit trail ----------------------------------------------------

    /// Records an audit event on the durable trail, returning its
    /// sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn audit(
        &mut self,
        date: Date,
        actor: impl Into<String>,
        action: AuditAction,
        table: impl Into<String>,
        row_key: Vec<Value>,
        column: Option<&str>,
        detail: impl Into<String>,
    ) -> DbResult<u64> {
        let seq = self
            .audit
            .record(date, actor, action, table, row_key, column, detail);
        let event = self
            .audit
            .events()
            .last()
            .expect("just recorded")
            .clone();
        self.log(WalRecord::Audit { event })?;
        Ok(seq)
    }

    // ---- checkpointing --------------------------------------------------

    /// Writes a checkpoint covering everything committed so far, prunes
    /// older checkpoints and fully-covered WAL segments, and returns the
    /// checkpoint file name. Pending group-commit frames are flushed
    /// first so the snapshot never claims an LSN it doesn't contain.
    ///
    /// Paged relations make this a **dirty-page checkpoint**: only pages
    /// dirtied since the last checkpoint are written (to shadow slots —
    /// never over a slot the previous manifest references), the files
    /// are fsynced, and the new manifest rides inside the checkpoint
    /// file. Cost is proportional to the dirty set, not the database.
    /// Only after the checkpoint is durable does [`BufferPool::publish`]
    /// commit the shadow slots and free the superseded ones.
    pub fn checkpoint(&mut self) -> DbResult<String> {
        let _t = dq_obs::histogram!("storage.checkpoint.duration_us").start();
        self.commit()?;
        let flushed = {
            let mut gate = DbGate {
                wal: &mut self.wal,
                epoch: &mut self.epoch,
            };
            self.pool.flush_all(&mut gate)?
        };
        self.pool.sync_files()?;
        dq_obs::counter!("storage.checkpoint.pages_flushed").add(flushed);
        let data = self.snapshot_data();
        let name = checkpoint::write(self.fs.as_ref(), &data)?;
        checkpoint::prune(self.fs.as_ref(), &name)?;
        self.wal.rotate()?;
        self.wal.prune_before_current()?;
        self.pool.publish();
        Ok(name)
    }

    fn snapshot_data(&self) -> CheckpointData {
        let tagged = self
            .tagged
            .iter()
            .map(|(name, rel)| {
                TaggedSnapshot {
                    name: name.clone(),
                    schema: rel.schema().clone(),
                    dict: flatten_dict(rel.dictionary()),
                    relation_tags: rel.relation_tags().to_vec(),
                    rows: rel.rows().to_vec(),
                }
            })
            .collect();
        let paged = self
            .paged
            .values()
            .map(|rel| rel.snapshot(&self.pool))
            .collect();
        CheckpointData {
            last_lsn: self.wal.last_lsn(),
            epoch: self.epoch,
            tagged,
            paged,
            audit_next_seq: self.audit.events().last().map_or(0, |e| e.seq + 1),
            audit_events: self.audit.events().to_vec(),
        }
    }

    // ---- accessors ------------------------------------------------------

    /// One tagged relation.
    pub fn tagged(&self, name: &str) -> DbResult<&TaggedRelation> {
        self.tagged
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Names of all tagged relations, sorted.
    pub fn tagged_names(&self) -> Vec<&str> {
        self.tagged.keys().map(String::as_str).collect()
    }

    /// The audit trail (lineage queries live here).
    pub fn audit_trail(&self) -> &AuditTrail {
        &self.audit
    }

    /// LSN of the last appended record.
    #[cfg(test)]
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// The committed MVCC epoch: records buffered toward the next
    /// commit will become visible at `epoch() + 1`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// WAL records buffered but not yet committed (group-commit mode).
    pub fn pending_records(&self) -> u64 {
        self.wal.pending_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use relstore::expr::BinOp;
    use relstore::DataType;
    use tagstore::QualityCell;

    fn open(fs: &MemFs, group_commit: bool) -> (DurableDb, RecoveryReport) {
        DurableDb::open(
            Arc::new(fs.clone()),
            DurableOptions {
                group_commit,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// A `company` row of bare cells.
    fn company(ticker: &str, price: f64) -> TaggedRow {
        TaggedRow::from([QualityCell::bare(ticker), QualityCell::bare(price)])
    }

    fn seed(db: &mut DurableDb) {
        db.create_tagged(
            "company",
            Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]),
            IndicatorDictionary::with_paper_defaults(),
        )
        .unwrap();
        db.push("company", company("FRT", 10.0)).unwrap();
        db.push("company", company("NUT", 20.0)).unwrap();
        db.create_tagged(
            "stock",
            Schema::of(&[("name", DataType::Text), ("employees", DataType::Int)]),
            IndicatorDictionary::with_paper_defaults(),
        )
        .unwrap();
        db.push(
            "stock",
            vec![
                QualityCell::bare("Fruit Co"),
                QualityCell::bare(4004i64).with_tag(IndicatorValue::new("source", "Nexis")),
            ],
        )
        .unwrap();
        db.audit(
            Date::parse("10-24-91").unwrap(),
            "acct'g",
            AuditAction::Create,
            "stock",
            vec![Value::text("Fruit Co")],
            None,
            "row created",
        )
        .unwrap();
    }

    #[test]
    fn state_survives_clean_restart() {
        let fs = MemFs::new();
        let (mut db, report) = open(&fs, false);
        assert_eq!(report.replayed_records, 0);
        seed(&mut db);
        drop(db);
        fs.crash(); // autocommit: everything was fsynced

        let (db, report) = open(&fs, false);
        assert_eq!(report.replayed_records, 6);
        // autocommit: one epoch per record, restored from the log
        assert_eq!(report.epoch, 6);
        assert_eq!(db.epoch(), 6);
        assert_eq!(db.tagged("company").unwrap().len(), 2);
        let stock = db.tagged("stock").unwrap();
        assert_eq!(stock.len(), 1);
        assert_eq!(
            stock.cell(0, "employees").unwrap().tag_value("source"),
            Value::text("Nexis")
        );
        assert_eq!(
            db.audit_trail()
                .lineage("stock", &[Value::text("Fruit Co")])
                .len(),
            1
        );
    }

    #[test]
    fn uncommitted_group_is_lost_committed_group_survives() {
        let fs = MemFs::new();
        let (mut db, _) = open(&fs, true);
        seed(&mut db);
        db.commit().unwrap();
        // one group commit covering the whole seed: one epoch
        assert_eq!(db.epoch(), 1);
        db.push("company", company("BLT", 1.0)).unwrap();
        assert_eq!(db.pending_records(), 1);
        // crash before commit: the last push must vanish
        drop(db);
        fs.crash();
        let (db, report) = open(&fs, true);
        assert_eq!(db.tagged("company").unwrap().len(), 2);
        assert_eq!(report.epoch, 1);
    }

    #[test]
    fn checkpoint_then_tail_replay() {
        let fs = MemFs::new();
        let (mut db, _) = open(&fs, false);
        seed(&mut db);
        db.checkpoint().unwrap();
        // post-checkpoint tail
        db.tag_cell("company", 0, "price", IndicatorValue::new("source", "NYSE"))
            .unwrap();
        db.swap_remove("company", 1).unwrap();
        db.tag_cell(
            "stock",
            0,
            "name",
            IndicatorValue::new("source", "registry"),
        )
        .unwrap();
        drop(db);
        fs.crash();

        let (db, report) = open(&fs, false);
        assert!(report.checkpoint.is_some());
        assert_eq!(report.replayed_records, 3);
        // 6 epochs inside the checkpoint + 3 replayed from the tail
        assert_eq!(report.epoch, 9);
        assert_eq!(db.epoch(), 9);
        let company = db.tagged("company").unwrap();
        assert_eq!(company.len(), 1);
        assert_eq!(company.cell(0, "price").unwrap().tag_value("source"), Value::text("NYSE"));
        assert_eq!(
            db.tagged("stock")
                .unwrap()
                .cell(0, "name")
                .unwrap()
                .tag_value("source"),
            Value::text("registry")
        );
    }

    #[test]
    fn checkpoint_prunes_wal_and_older_checkpoints() {
        let fs = MemFs::new();
        let (mut db, _) = open(&fs, false);
        seed(&mut db);
        db.checkpoint().unwrap();
        db.push("company", company("BLT", 1.0)).unwrap();
        db.checkpoint().unwrap();
        let checkpoint_lsn = db.last_lsn();
        let files = fs.list().unwrap();
        let ckpts = files.iter().filter(|n| n.starts_with("ckpt-")).count();
        let wals = files.iter().filter(|n| n.starts_with("wal-")).count();
        assert_eq!(ckpts, 1, "old checkpoints pruned: {files:?}");
        assert_eq!(wals, 0, "covered WAL segments pruned: {files:?}");
        // and the database still opens with zero replay
        let (db, report) = open(&fs, false);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(db.tagged("company").unwrap().len(), 3);
        // LSNs continue past the checkpoint after a pruned-log reopen
        assert_eq!(db.last_lsn(), checkpoint_lsn);
        // with the WAL pruned, the checkpoint is the epoch authority
        assert_eq!(db.epoch(), 7);
    }

    // ---- paged relations ------------------------------------------------

    use crate::buffer_pool::MIN_FRAMES;
    use relstore::Expr;

    /// Small pages + the minimum pool: every paged test runs under real
    /// eviction pressure.
    fn paged_opts(group_commit: bool) -> DurableOptions {
        DurableOptions {
            group_commit,
            page_size: 512,
            pool_pages: MIN_FRAMES,
            ..Default::default()
        }
    }

    fn trade_schema() -> Schema {
        Schema::of(&[("id", DataType::Int), ("sym", DataType::Text)])
    }

    fn trade_row(i: i64) -> TaggedRow {
        let mut cell = QualityCell::bare(format!("sym{}", i % 7));
        if i % 3 == 0 {
            cell.set_tag(IndicatorValue::new("source", "feed"));
        }
        TaggedRow::from([QualityCell::bare(i), cell])
    }

    fn open_paged(fs: &MemFs, group_commit: bool) -> DurableDb {
        let (mut db, _) = DurableDb::open(Arc::new(fs.clone()), paged_opts(group_commit)).unwrap();
        if !db.paged_names().contains(&"trades") {
            db.create_paged(
                "trades",
                trade_schema(),
                IndicatorDictionary::with_paper_defaults(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn paged_relation_survives_crash_under_pool_pressure() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        let mut twin =
            TaggedRelation::empty(trade_schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..200i64 {
            let row = trade_row(i);
            db.paged_push("trades", row.clone()).unwrap();
            twin.push(row).unwrap();
            if i % 5 == 4 {
                let pos = (i as u64 * 13) % db.paged_len("trades").unwrap();
                let tag = IndicatorValue::new("source", "audit");
                db.paged_tag_cell("trades", pos, "sym", tag.clone()).unwrap();
                twin.tag_cell(pos as usize, "sym", tag).unwrap();
            }
            if i % 11 == 10 {
                let pos = (i as u64 * 3) % db.paged_len("trades").unwrap();
                let got = db.paged_swap_remove("trades", pos).unwrap();
                let want = twin.swap_remove(pos as usize).unwrap();
                assert_eq!(got, want);
            }
        }
        assert!(db.pool_resident() <= MIN_FRAMES, "pool exceeded its budget");
        drop(db);
        fs.crash();

        let (mut db, report) =
            DurableDb::open(Arc::new(fs.clone()), paged_opts(false)).unwrap();
        assert!(report.replayed_records > 0);
        assert_eq!(db.paged_names(), vec!["trades"]);
        assert_eq!(db.paged_len("trades").unwrap() as usize, twin.len());
        assert_eq!(db.paged_to_relation("trades").unwrap(), twin);
        // quality-predicate selection parity after recovery
        let pred = Expr::col("sym@source").eq(Expr::lit("feed"));
        assert_eq!(
            db.paged_select("trades", &pred).unwrap(),
            dq_oracle::filter(&twin, &pred).unwrap()
        );
    }

    #[test]
    fn paged_checkpoint_then_tail_replay() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        let mut twin =
            TaggedRelation::empty(trade_schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..60i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        db.checkpoint().unwrap();
        let wals = fs
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .count();
        assert_eq!(wals, 0, "covered WAL segments pruned");

        // post-checkpoint tail
        for i in 60..70i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        let tag = IndicatorValue::new("source", "audit");
        db.paged_tag_cell("trades", 7, "sym", tag.clone()).unwrap();
        twin.tag_cell(7, "sym", tag).unwrap();
        db.paged_swap_remove("trades", 2).unwrap();
        twin.swap_remove(2).unwrap();
        drop(db);
        fs.crash();

        let (mut db, report) = DurableDb::open(Arc::new(fs.clone()), paged_opts(false)).unwrap();
        assert!(report.checkpoint.is_some());
        assert_eq!(report.replayed_records, 12);
        assert_eq!(db.paged_to_relation("trades").unwrap(), twin);
    }

    /// Counts page slots that differ between two images of a paged file.
    fn changed_slots(before: &[u8], after: &[u8], page: usize) -> usize {
        let slots = after.len().div_ceil(page);
        (0..slots)
            .filter(|&s| {
                let a = before.get(s * page..(s + 1) * page);
                let b = after.get(s * page..(s + 1) * page);
                a != b
            })
            .count()
    }

    #[test]
    fn checkpoint_cost_is_proportional_to_dirty_pages() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        for i in 0..300i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
        }
        db.checkpoint().unwrap();
        let heap_before = fs.read("pg-trades.heap").unwrap();
        let dir_before = fs.read("pg-trades.dirx").unwrap();
        assert!(
            heap_before.len() / 512 > 20,
            "need a many-page heap for this test to mean anything"
        );

        // one logical mutation → a handful of dirty pages, no more
        db.paged_tag_cell("trades", 5, "sym", IndicatorValue::new("source", "late"))
            .unwrap();
        db.checkpoint().unwrap();
        let heap_after = fs.read("pg-trades.heap").unwrap();
        let dir_after = fs.read("pg-trades.dirx").unwrap();
        // tag_cell dirties the old row's page, the tail page, and one
        // directory page; shadow flushes touch at most one fresh slot per
        // dirty page — far from the ~25+ pages a full rewrite would touch
        assert!(
            changed_slots(&heap_before, &heap_after, 512) <= 4,
            "heap checkpoint rewrote more than the dirty pages"
        );
        assert!(
            changed_slots(&dir_before, &dir_after, 512) <= 2,
            "directory checkpoint rewrote more than the dirty pages"
        );
    }

    #[test]
    fn torn_checkpoint_flush_never_corrupts() {
        // build a committed base once, then replay the same post-base
        // mutations against byte-budgeted checkpoints: whatever the cut
        // point (page flush, manifest write, rename), recovery must
        // restore exactly the committed operations
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        let mut twin =
            TaggedRelation::empty(trade_schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..80i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        drop(db);
        let tag = IndicatorValue::new("source", "late");
        let mut twin2 = twin.clone();
        for p in [3usize, 40, 77] {
            twin2.tag_cell(p, "sym", tag.clone()).unwrap();
        }

        for budget in [0usize, 1, 64, 511, 512, 513, 2000, 1 << 14] {
            let disk = fs.durable_snapshot();
            let (mut db, _) =
                DurableDb::open(Arc::new(disk.clone()), paged_opts(false)).unwrap();
            for p in [3u64, 40, 77] {
                db.paged_tag_cell("trades", p, "sym", tag.clone()).unwrap();
            }
            disk.set_write_budget(budget);
            let _ = db.checkpoint(); // may tear anywhere — that's the point
            disk.clear_write_budget();
            drop(db);
            disk.crash();

            let (mut db, _) =
                DurableDb::open(Arc::new(disk.clone()), paged_opts(false)).unwrap();
            assert_eq!(
                db.paged_to_relation("trades").unwrap(),
                twin2,
                "divergence after torn checkpoint (budget {budget})"
            );
        }
    }

    #[test]
    fn uncommitted_paged_group_is_lost_committed_survives() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, true);
        let mut twin =
            TaggedRelation::empty(trade_schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..5i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        db.commit().unwrap();
        // pending, never committed: must vanish at the crash
        for i in 5..8i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
        }
        drop(db);
        fs.crash();

        let (mut db, _) = DurableDb::open(Arc::new(fs.clone()), paged_opts(true)).unwrap();
        assert_eq!(db.paged_to_relation("trades").unwrap(), twin);
    }

    #[test]
    fn paged_validation_failures_do_not_log() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        db.paged_push("trades", trade_row(1)).unwrap();
        let lsn = db.last_lsn();
        // wrong arity, wrong type, ghost indicator, bad column, bad row
        assert!(db.paged_push("trades", vec![QualityCell::bare(1i64)]).is_err());
        assert!(db
            .paged_push("trades", vec![QualityCell::bare("x"), QualityCell::bare("y")])
            .is_err());
        assert!(db
            .paged_tag_cell("trades", 0, "sym", IndicatorValue::new("ghost", "x"))
            .is_err());
        assert!(db
            .paged_tag_cell("trades", 0, "nope", IndicatorValue::new("source", "x"))
            .is_err());
        assert!(db
            .paged_tag_cell("trades", 9, "sym", IndicatorValue::new("source", "x"))
            .is_err());
        assert!(db.paged_swap_remove("trades", 9).is_err());
        assert!(db.create_paged("trades", trade_schema(), IndicatorDictionary::new()).is_err());
        assert_eq!(db.last_lsn(), lsn, "rejected operation reached the WAL");
    }

    #[test]
    fn failed_mutation_is_not_logged() {
        let fs = MemFs::new();
        let (mut db, _) = open(&fs, false);
        seed(&mut db);
        let lsn = db.last_lsn();
        // type error: rejected by the engine, so nothing may hit the log
        let wrong = vec![QualityCell::bare(1i64), QualityCell::bare(1.0)];
        assert!(db.push("company", wrong).is_err());
        assert!(db.tag_cell("stock", 0, "name", IndicatorValue::new("ghost", "x")).is_err());
        assert_eq!(db.last_lsn(), lsn);
    }

    #[test]
    fn materialization_does_not_evict_the_hot_set() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        for i in 0..400i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
        }
        let (heap_pages, _) = db.paged_pages("trades").unwrap();
        assert!(
            heap_pages as usize > 2 * MIN_FRAMES,
            "need heap ({heap_pages} pages) well past the pool budget"
        );
        // warm a small hot set with targeted reads — promoted on the clock
        for pos in [0u64, 1, 2, 3] {
            db.paged_row("trades", pos).unwrap();
        }
        let heap = db.paged.get("trades").unwrap().heap_id();
        assert!(db.pool.is_resident(heap, 0), "warm read left no residue");
        // a full materialization streams every page through the pool;
        // scan admission must keep the one-touch pages from displacing
        // the hot frame
        let rel = db.paged_to_relation("trades").unwrap();
        assert_eq!(rel.len(), 400);
        assert!(
            db.pool.is_resident(heap, 0),
            "cold materialization evicted the hot heap page"
        );
    }

    #[test]
    fn paged_indexed_select_parity_maintenance_and_fallback() {
        let fs = MemFs::new();
        let mut db = open_paged(&fs, false);
        let mut twin =
            TaggedRelation::empty(trade_schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..240i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        fn check(db: &mut DurableDb, twin: &TaggedRelation, pred: &Expr) -> PagedReadStats {
            let want = dq_oracle::filter(twin, pred).unwrap();
            let (got, stats) = db.paged_select_indexed("trades", pred).unwrap();
            assert_eq!(got, want, "indexed path diverged for {pred}");
            assert_eq!(stats.rows_out, want.len() as u64);
            assert_eq!(db.paged_select("trades", pred).unwrap(), want);
            stats
        }

        // bitmap path + the planner estimate
        let feed = Expr::col("sym@source").eq(Expr::lit("feed"));
        let (atoms, est) = db.paged_access_estimate("trades", &feed).unwrap().unwrap();
        assert_eq!(atoms, vec!["sym@source=feed".to_owned()]);
        assert!((est - 1.0 / 3.0).abs() < 0.05, "selectivity estimate {est}");
        check(&mut db, &twin, &feed);

        // bitmap ∩ key hash; then key hash alone; then a vanished value
        let combo = feed.clone().and(Expr::col("sym").eq(Expr::lit("sym3")));
        check(&mut db, &twin, &combo);
        check(&mut db, &twin, &Expr::col("sym").eq(Expr::lit("sym2")));
        let (empty, _) = db
            .paged_select_indexed("trades", &Expr::col("sym").eq(Expr::lit("nope")))
            .unwrap();
        assert!(empty.is_empty());

        // nothing index-answerable → streaming fallback, full page count
        let range = Expr::Bin(
            Box::new(Expr::col("id")),
            BinOp::Ge,
            Box::new(Expr::lit(100i64)),
        );
        let stats = check(&mut db, &twin, &range);
        let (heap_pages, _) = db.paged_pages("trades").unwrap();
        assert_eq!(stats.candidate_pages, heap_pages as u64);
        assert_eq!(stats.candidate_rows, 240);

        // incremental maintenance: mutate AFTER the index and key hash
        // exist, then re-verify every access path
        for i in 240..300i64 {
            db.paged_push("trades", trade_row(i)).unwrap();
            twin.push(trade_row(i)).unwrap();
        }
        let audit = IndicatorValue::new("source", "audit");
        for pos in [5u64, 130, 297] {
            db.paged_tag_cell("trades", pos, "sym", audit.clone()).unwrap();
            twin.tag_cell(pos as usize, "sym", audit.clone()).unwrap();
        }
        for pos in [7u64, 160] {
            assert_eq!(
                db.paged_swap_remove("trades", pos).unwrap(),
                twin.swap_remove(pos as usize).unwrap()
            );
        }
        check(&mut db, &twin, &feed);
        check(&mut db, &twin, &combo);
        check(&mut db, &twin, &Expr::col("sym").eq(Expr::lit("sym2")));

        // page skipping is structural: three audit rows live on a
        // handful of pages, and the candidate set reflects that
        let rare = Expr::col("sym@source").eq(Expr::lit("audit"));
        let stats = check(&mut db, &twin, &rare);
        assert_eq!(stats.candidate_rows, 3);
        let (heap_pages, _) = db.paged_pages("trades").unwrap();
        assert!(
            stats.candidate_pages < heap_pages as u64 / 2,
            "{} candidate pages of {heap_pages} — no skipping",
            stats.candidate_pages
        );

        // crash: the derived index is gone; the first indexed access
        // after recovery rebuilds it from the replayed heap
        drop(db);
        fs.crash();
        let (mut db, report) =
            DurableDb::open(Arc::new(fs.clone()), paged_opts(false)).unwrap();
        assert!(report.replayed_records > 0);
        check(&mut db, &twin, &feed);
        check(&mut db, &twin, &combo);
        check(&mut db, &twin, &rare);
    }
}
