//! [`PagedRelation`]: a quality-tagged relation stored in slotted pages
//! behind the buffer pool, so it can grow past RAM.
//!
//! ## Layout
//!
//! Each relation owns two paged files:
//!
//! * the **heap** (`pg-<name>.heap`) — codec-encoded tagged rows in
//!   slotted pages, append-only with tombstones (an updated row is
//!   re-appended at the tail; the old slot is tombstoned, not reused),
//! * the **directory** (`pg-<name>.dirx`) — fixed 8-byte RIDs
//!   `[heap page u32][slot u16][reserved u16]`, a dense positional
//!   array: `dir[pos]` is where row `pos` lives, preserving the
//!   positional / swap-remove contract of `TaggedRelation`.
//!
//! ## Deterministic placement
//!
//! WAL records for paged relations carry only the *logical* operation
//! (push / tag / remove) — never page numbers or slots. That works
//! because placement is a pure function of the operation history: pushes
//! go to the last heap page (a new page exactly when the encoded record
//! does not fit), directory entries fill pages at a fixed
//! entries-per-page, and tombstones never reclaim space. Replaying the
//! same committed prefix therefore rebuilds byte-identical logical
//! state regardless of pool size, eviction order, or crash timing.

use crate::buffer_pool::{BufferPool, FileId, LogGate};
use crate::checkpoint::PagedSnapshot;
use crate::codec::{Decoder, Encoder};
use crate::fs::Fs;
use crate::page::{Page, PAGE_HEADER, PAGE_TRAILER, SLOT_SIZE};
use relstore::{DbError, DbResult, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;
use tagstore::{
    IndicatorDictionary, IndicatorValue, Predicate, TaggedRelation, TaggedRow, ToPredicate,
};

/// I/O and page-skipping accounting for one indexed paged read — the
/// numbers EXPLAIN ANALYZE surfaces as `pages_read=` / `pool_hits=` and
/// the structural evidence that an indexed σ skipped the pages its
/// candidates don't live on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedReadStats {
    /// Pages (heap + directory) read from disk during the operation.
    pub pages_read: u64,
    /// Pages served from already-resident pool frames.
    pub pool_hits: u64,
    /// Candidate rows proposed by the caller (before residual re-check).
    pub candidate_rows: u64,
    /// Distinct heap pages those candidates live on — everything else
    /// was skipped.
    pub candidate_pages: u64,
    /// Rows surviving the residual re-check.
    pub rows_out: u64,
}

/// Encoded size of one directory entry.
const RID_BYTES: usize = 8;

fn encode_rid(page: u32, slot: u16) -> [u8; RID_BYTES] {
    let mut b = [0u8; RID_BYTES];
    b[0..4].copy_from_slice(&page.to_le_bytes());
    b[4..6].copy_from_slice(&slot.to_le_bytes());
    b
}

fn decode_rid(b: &[u8]) -> DbResult<(u32, u16)> {
    if b.len() != RID_BYTES {
        return Err(DbError::Storage(format!("rid is {} bytes", b.len())));
    }
    Ok((
        u32::from_le_bytes(b[0..4].try_into().unwrap()),
        u16::from_le_bytes(b[4..6].try_into().unwrap()),
    ))
}

fn encode_row(row: &TaggedRow) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_tagged_row(row);
    enc.into_bytes()
}

fn decode_row(bytes: &[u8]) -> DbResult<TaggedRow> {
    let mut dec = Decoder::new(bytes);
    let row = dec.get_tagged_row()?;
    if !dec.is_exhausted() {
        return Err(DbError::Storage("heap record has trailing bytes".into()));
    }
    Ok(row)
}

/// A tagged relation living in paged storage. All page access goes
/// through the caller-supplied [`BufferPool`] and [`LogGate`]; the
/// struct itself holds only the identity, the schema/dictionary for
/// validation, and the row count.
#[derive(Debug)]
pub struct PagedRelation {
    name: String,
    schema: Schema,
    dict: IndicatorDictionary,
    heap: FileId,
    dir: FileId,
    rows: u64,
}

impl PagedRelation {
    /// Heap file name for relation `name`.
    pub fn heap_file(name: &str) -> String {
        format!("pg-{name}.heap")
    }

    /// Directory file name for relation `name`.
    pub fn dir_file(name: &str) -> String {
        format!("pg-{name}.dirx")
    }

    /// Creates an empty paged relation, registering its two files.
    pub fn create(
        pool: &mut BufferPool,
        fs: Arc<dyn Fs>,
        name: &str,
        schema: Schema,
        dict: IndicatorDictionary,
    ) -> PagedRelation {
        let heap = pool.register_file(Arc::clone(&fs), Self::heap_file(name));
        let dir = pool.register_file(fs, Self::dir_file(name));
        PagedRelation {
            name: name.to_owned(),
            schema,
            dict,
            heap,
            dir,
            rows: 0,
        }
    }

    /// Rebuilds a paged relation from its checkpoint manifest: the page
    /// maps resume exactly where the checkpoint froze them.
    pub fn restore(
        pool: &mut BufferPool,
        fs: Arc<dyn Fs>,
        snap: &PagedSnapshot,
        dict: IndicatorDictionary,
    ) -> PagedRelation {
        let heap = pool.restore_file(
            Arc::clone(&fs),
            Self::heap_file(&snap.name),
            snap.heap_map.clone(),
        );
        let dir = pool.restore_file(fs, Self::dir_file(&snap.name), snap.dir_map.clone());
        PagedRelation {
            name: snap.name.clone(),
            schema: snap.schema.clone(),
            dict,
            heap,
            dir,
            rows: snap.rows,
        }
    }

    /// Application schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The indicator dictionary rows are validated against.
    pub fn dictionary(&self) -> &IndicatorDictionary {
        &self.dict
    }

    /// Row count.
    pub fn len(&self) -> u64 {
        self.rows
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Pool file id of the heap — residency probes in tests.
    #[cfg(test)]
    pub fn heap_id(&self) -> FileId {
        self.heap
    }

    /// `(heap, directory)` logical page counts.
    pub fn pages(&self, pool: &BufferPool) -> (u32, u32) {
        (pool.logical_pages(self.heap), pool.logical_pages(self.dir))
    }

    /// The manifest entry a checkpoint records for this relation.
    pub fn snapshot(&self, pool: &BufferPool) -> PagedSnapshot {
        PagedSnapshot {
            name: self.name.clone(),
            schema: self.schema.clone(),
            dict: self
                .dict
                .names()
                .iter()
                .map(|n| self.dict.get(n).expect("listed name resolves").clone())
                .collect(),
            rows: self.rows,
            heap_map: pool.file_map(self.heap).to_vec(),
            dir_map: pool.file_map(self.dir).to_vec(),
        }
    }

    // ---- validation (runs BEFORE the caller logs the operation) ---------

    /// Full validation of a push — the same checks `TaggedRelation::push`
    /// performs. Callers run this before appending the WAL record, so a
    /// rejected row never reaches the log.
    pub fn validate_push(&self, pool: &BufferPool, row: &TaggedRow) -> DbResult<()> {
        let values: relstore::Row = row.iter().map(|c| c.value.clone()).collect();
        self.schema.check_row(&values)?;
        for cell in row.iter() {
            for tag in cell.tags() {
                self.dict.check(tag)?;
            }
        }
        let encoded = encode_row(row).len();
        let max = Page::max_record(pool.page_size());
        if encoded > max {
            return Err(DbError::Storage(format!(
                "row encodes to {encoded} bytes, page limit is {max}"
            )));
        }
        Ok(())
    }

    /// Full validation of a cell tag (dictionary, column, row bounds).
    pub fn validate_tag(&self, row: u64, column: &str, tag: &IndicatorValue) -> DbResult<()> {
        self.dict.check(tag)?;
        self.schema.resolve(column)?;
        self.check_pos(row)
    }

    /// Bounds check for positional operations.
    pub fn check_pos(&self, row: u64) -> DbResult<()> {
        if row >= self.rows {
            return Err(DbError::IndexError(format!(
                "row {row} out of range ({} rows)",
                self.rows
            )));
        }
        Ok(())
    }

    // ---- mutations (caller has validated AND logged; `lsn` is the WAL
    // ---- position of the record describing this operation) --------------

    /// Appends a validated row.
    pub fn push(
        &mut self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        row: &TaggedRow,
    ) -> DbResult<()> {
        let bytes = encode_row(row);
        let rid = self.append_heap(pool, gate, lsn, &bytes)?;
        self.append_dir(pool, gate, lsn, rid)?;
        self.rows += 1;
        Ok(())
    }

    /// Tags one cell. The updated row is re-appended at the heap tail;
    /// the old version's slot is tombstoned and the directory re-pointed.
    pub fn tag_cell(
        &mut self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        row: u64,
        column: &str,
        tag: IndicatorValue,
    ) -> DbResult<()> {
        self.check_pos(row)?;
        let ci = self.schema.resolve(column)?;
        let (hp, hs) = self.read_rid(pool, gate, row)?;
        let mut trow = self.read_record(pool, gate, hp, hs)?;
        Arc::make_mut(&mut trow)[ci].set_tag(tag);
        let bytes = encode_row(&trow);
        let max = Page::max_record(pool.page_size());
        if bytes.len() > max {
            return Err(DbError::Storage(format!(
                "tagged row encodes to {} bytes, page limit is {max}",
                bytes.len()
            )));
        }
        let rid = self.append_heap(pool, gate, lsn, &bytes)?;
        pool.with_page_mut(self.heap, hp, lsn, gate, |p| p.tombstone(hs))?;
        self.write_rid(pool, gate, lsn, row, rid)
    }

    /// Removes row `row` (swap-remove: the last row takes its position),
    /// returning the removed row.
    pub fn swap_remove(
        &mut self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        row: u64,
    ) -> DbResult<TaggedRow> {
        self.check_pos(row)?;
        let last = self.rows - 1;
        let (hp, hs) = self.read_rid(pool, gate, row)?;
        let removed = self.read_record(pool, gate, hp, hs)?;
        pool.with_page_mut(self.heap, hp, lsn, gate, |p| p.tombstone(hs))?;
        if row != last {
            let last_rid = self.read_rid(pool, gate, last)?;
            self.write_rid(pool, gate, lsn, row, last_rid)?;
        }
        let (dp, _) = self.dir_locate(pool, last);
        pool.with_page_mut(self.dir, dp, lsn, gate, |p| p.pop_last().map(|_| ()))?;
        self.rows -= 1;
        Ok(removed)
    }

    // ---- reads ----------------------------------------------------------

    /// The row at position `pos`.
    pub fn row(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        pos: u64,
    ) -> DbResult<TaggedRow> {
        self.check_pos(pos)?;
        let (hp, hs) = self.read_rid(pool, gate, pos)?;
        self.read_record(pool, gate, hp, hs)
    }

    /// Streams every row through `f` in positional order. Directory
    /// pages are walked sequentially, so a scan touches each dir page
    /// once; heap locality follows insertion order. All page loads use
    /// scan-resistant admission: a full pass cannot evict the pool's
    /// hot set, only recycle its own one-touch frames.
    pub fn for_each_row(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        mut f: impl FnMut(u64, TaggedRow) -> DbResult<()>,
    ) -> DbResult<()> {
        for pos in 0..self.rows {
            let row = {
                let (hp, hs) = self.read_rid_scan(pool, gate, pos)?;
                self.read_record_scan(pool, gate, hp, hs)?
            };
            f(pos, row)?;
        }
        Ok(())
    }

    /// Fetches the rows at `positions` (sorted ascending, deduplicated),
    /// optionally re-checking `expr` against each — the indexed access
    /// path. Directory pages are pinned once per run of candidate
    /// positions, candidate heap pages are visited as one sorted batch
    /// through [`BufferPool::fetch_pages`] (coalesced readahead +
    /// scan-resistant admission), every *other* heap page is skipped,
    /// and the result is restored to positional order (tag re-appends
    /// break pos ↔ heap-page monotonicity) so it is byte-identical to
    /// the full-scan σ over the same predicate.
    pub fn select_at(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        positions: &[u64],
        pred: Option<&Predicate>,
    ) -> DbResult<(TaggedRelation, PagedReadStats)> {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be sorted unique"
        );
        if let Some(&last) = positions.last() {
            self.check_pos(last)?; // sorted ⇒ bounds-checks every position
        }
        let mut stats = PagedReadStats {
            candidate_rows: positions.len() as u64,
            ..Default::default()
        };
        // phase 1: positions → RIDs, one dir-page pin per position run
        let per = Self::dir_entries_per_page(pool);
        let mut rids: Vec<(u64, u32, u16)> = Vec::with_capacity(positions.len());
        let mut i = 0;
        while i < positions.len() {
            let dp = (positions[i] / per) as u32;
            let end = i + positions[i..].partition_point(|&p| (p / per) as u32 == dp);
            if pool.is_resident(self.dir, dp) {
                stats.pool_hits += 1;
            } else {
                stats.pages_read += 1;
            }
            pool.with_page_scan(self.dir, dp, gate, |p| {
                for &pos in &positions[i..end] {
                    let e = p.get((pos % per) as u16)?.ok_or_else(|| {
                        DbError::Storage(format!("directory entry {pos} tombstoned"))
                    })?;
                    let (hp, hs) = decode_rid(e)?;
                    rids.push((pos, hp, hs));
                }
                Ok(())
            })?;
            i = end;
        }
        // phase 2: distinct candidate heap pages, ascending
        let mut by_page: BTreeMap<u32, Vec<(u64, u16)>> = BTreeMap::new();
        for &(pos, hp, hs) in &rids {
            by_page.entry(hp).or_default().push((pos, hs));
        }
        let pages: Vec<u32> = by_page.keys().copied().collect();
        stats.candidate_pages = pages.len() as u64;
        // phase 3: coalesced batch fetch + residual re-check
        let mut hits: Vec<(u64, TaggedRow)> = Vec::new();
        let fstats = pool.fetch_pages(self.heap, &pages, gate, |hp, p| {
            for &(pos, hs) in &by_page[&hp] {
                let bytes = p.get(hs)?.ok_or_else(|| {
                    DbError::Storage(format!("heap record {hp}/{hs} tombstoned"))
                })?;
                let row = decode_row(bytes)?;
                if pred.map_or(Ok(true), |p| p.matches(&row))? {
                    hits.push((pos, row));
                }
            }
            Ok(())
        })?;
        stats.pages_read += fstats.pages_read;
        stats.pool_hits += fstats.pool_hits;
        hits.sort_unstable_by_key(|&(pos, _)| pos);
        stats.rows_out = hits.len() as u64;
        let rows = hits.into_iter().map(|(_, r)| r).collect();
        let rel = TaggedRelation::new(self.schema.clone(), self.dict.clone(), rows)?;
        Ok((rel, stats))
    }

    /// Materializes the whole relation in memory (small relations,
    /// tests, and parity checks — defeats the point at scale).
    pub fn to_relation(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
    ) -> DbResult<TaggedRelation> {
        let mut rows = Vec::with_capacity(self.rows.min(1 << 20) as usize);
        self.for_each_row(pool, gate, |_, row| {
            rows.push(row);
            Ok(())
        })?;
        TaggedRelation::new(self.schema.clone(), self.dict.clone(), rows)
    }

    /// Quality-predicate selection (σ with tag terms), streaming the
    /// heap through the pool — rows are decoded page-resident and only
    /// matches are materialized.
    pub fn select(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        predicate: &impl ToPredicate,
    ) -> DbResult<TaggedRelation> {
        let pred = predicate.to_predicate(&self.schema, &self.dict)?;
        let mut hits = Vec::new();
        self.for_each_row(pool, gate, |_, row| {
            if pred.matches(&row)? {
                hits.push(row);
            }
            Ok(())
        })?;
        TaggedRelation::new(self.schema.clone(), self.dict.clone(), hits)
    }

    // ---- internals ------------------------------------------------------

    /// RIDs per directory page — fixed so `pos → (page, slot)` is pure
    /// arithmetic.
    fn dir_entries_per_page(pool: &BufferPool) -> u64 {
        ((pool.page_size() - PAGE_HEADER - PAGE_TRAILER) / (RID_BYTES + SLOT_SIZE)) as u64
    }

    fn dir_locate(&self, pool: &BufferPool, pos: u64) -> (u32, u16) {
        let per = Self::dir_entries_per_page(pool);
        ((pos / per) as u32, (pos % per) as u16)
    }

    fn read_rid(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        pos: u64,
    ) -> DbResult<(u32, u16)> {
        let (dp, ds) = self.dir_locate(pool, pos);
        pool.with_page(self.dir, dp, gate, |p| {
            let e = p.get(ds)?.ok_or_else(|| {
                DbError::Storage(format!("directory entry {pos} tombstoned"))
            })?;
            decode_rid(e)
        })
    }

    fn write_rid(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        pos: u64,
        (page, slot): (u32, u16),
    ) -> DbResult<()> {
        let (dp, ds) = self.dir_locate(pool, pos);
        pool.with_page_mut(self.dir, dp, lsn, gate, |p| {
            p.update_in_place(ds, &encode_rid(page, slot))
        })
    }

    fn read_record(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        page: u32,
        slot: u16,
    ) -> DbResult<TaggedRow> {
        pool.with_page(self.heap, page, gate, |p| {
            let bytes = p.get(slot)?.ok_or_else(|| {
                DbError::Storage(format!("heap record {page}/{slot} tombstoned"))
            })?;
            decode_row(bytes)
        })
    }

    /// [`PagedRelation::read_rid`] with scan-resistant admission — the
    /// bulk-read form.
    fn read_rid_scan(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        pos: u64,
    ) -> DbResult<(u32, u16)> {
        let (dp, ds) = self.dir_locate(pool, pos);
        pool.with_page_scan(self.dir, dp, gate, |p| {
            let e = p.get(ds)?.ok_or_else(|| {
                DbError::Storage(format!("directory entry {pos} tombstoned"))
            })?;
            decode_rid(e)
        })
    }

    /// [`PagedRelation::read_record`] with scan-resistant admission — the
    /// bulk-read form.
    fn read_record_scan(
        &self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        page: u32,
        slot: u16,
    ) -> DbResult<TaggedRow> {
        pool.with_page_scan(self.heap, page, gate, |p| {
            let bytes = p.get(slot)?.ok_or_else(|| {
                DbError::Storage(format!("heap record {page}/{slot} tombstoned"))
            })?;
            decode_row(bytes)
        })
    }

    /// Appends `bytes` to the heap tail page, opening a new page exactly
    /// when it does not fit — the placement rule redo must reproduce.
    fn append_heap(
        &mut self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        bytes: &[u8],
    ) -> DbResult<(u32, u16)> {
        let pages = pool.logical_pages(self.heap);
        if pages > 0 {
            let tail = pages - 1;
            let slot =
                pool.with_page_mut(self.heap, tail, lsn, gate, |p| Ok(p.insert(bytes)))?;
            if let Some(slot) = slot {
                return Ok((tail, slot));
            }
        }
        let fresh = pool.alloc_page(self.heap, gate)?;
        let slot = pool
            .with_page_mut(self.heap, fresh, lsn, gate, |p| Ok(p.insert(bytes)))?
            .ok_or_else(|| {
                DbError::Storage(format!("record of {} bytes exceeds page", bytes.len()))
            })?;
        Ok((fresh, slot))
    }

    /// Appends a directory entry for row `self.rows` (the row being
    /// pushed).
    fn append_dir(
        &mut self,
        pool: &mut BufferPool,
        gate: &mut dyn LogGate,
        lsn: u64,
        (page, slot): (u32, u16),
    ) -> DbResult<()> {
        let (dp, ds) = self.dir_locate(pool, self.rows);
        if dp as u64 >= pool.logical_pages(self.dir) as u64 {
            let fresh = pool.alloc_page(self.dir, gate)?;
            debug_assert_eq!(fresh, dp);
        }
        let got = pool.with_page_mut(self.dir, dp, lsn, gate, |p| {
            Ok(p.insert(&encode_rid(page, slot)))
        })?;
        match got {
            Some(s) if s == ds => Ok(()),
            got => Err(DbError::Storage(format!(
                "directory slot drift: expected {ds}, got {got:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_pool::{NoGate, MIN_FRAMES};
    use crate::fs::MemFs;
    use relstore::{DataType, Expr, Value};
    use tagstore::QualityCell;

    const PS: usize = 512; // small pages: force multi-page layouts fast

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Text)])
    }

    fn setup() -> (BufferPool, PagedRelation, MemFs) {
        let fs = MemFs::new();
        let mut pool = BufferPool::new(PS, MIN_FRAMES);
        let rel = PagedRelation::create(
            &mut pool,
            Arc::new(fs.clone()),
            "q",
            schema(),
            IndicatorDictionary::with_paper_defaults(),
        );
        (pool, rel, fs)
    }

    fn row(k: i64, v: &str, src: Option<&str>) -> TaggedRow {
        let mut cell = QualityCell::bare(v);
        if let Some(s) = src {
            cell.set_tag(IndicatorValue::new("source", s));
        }
        TaggedRow::from([QualityCell::bare(k), cell])
    }

    fn push(pool: &mut BufferPool, rel: &mut PagedRelation, r: TaggedRow) {
        rel.validate_push(pool, &r).unwrap();
        rel.push(pool, &mut NoGate, 1, &r).unwrap();
    }

    #[test]
    fn push_read_roundtrip_across_many_pages() {
        let (mut pool, mut rel, _fs) = setup();
        let n = 500u64; // hundreds of pages at 512-byte pages
        for i in 0..n {
            push(&mut pool, &mut rel, row(i as i64, &format!("val{i}"), None));
        }
        assert_eq!(rel.len(), n);
        assert!(pool.logical_pages(0) > MIN_FRAMES as u32, "must outgrow the pool");
        for i in (0..n).step_by(97) {
            let r = rel.row(&mut pool, &mut NoGate, i).unwrap();
            assert_eq!(r[0].value, Value::Int(i as i64));
            assert_eq!(r[1].value, Value::text(format!("val{i}")));
        }
    }

    #[test]
    fn matches_in_memory_twin_under_mixed_ops() {
        let (mut pool, mut rel, _fs) = setup();
        let mut twin = TaggedRelation::empty(schema(), IndicatorDictionary::with_paper_defaults());
        for i in 0..120i64 {
            let r = row(i, "x", if i % 3 == 0 { Some("feed") } else { None });
            push(&mut pool, &mut rel, r.clone());
            twin.push(r).unwrap();
            if i % 5 == 4 {
                let pos = (i as u64 * 7) % rel.len();
                let tag = IndicatorValue::new("source", "audit");
                rel.validate_tag(pos, "v", &tag).unwrap();
                rel.tag_cell(&mut pool, &mut NoGate, 1, pos, "v", tag.clone())
                    .unwrap();
                twin.tag_cell(pos as usize, "v", tag).unwrap();
            }
            if i % 7 == 6 {
                let pos = (i as u64 * 3) % rel.len();
                let got = rel.swap_remove(&mut pool, &mut NoGate, 1, pos).unwrap();
                let want = twin.swap_remove(pos as usize).unwrap();
                assert_eq!(got, want);
            }
        }
        assert_eq!(rel.len() as usize, twin.len());
        assert_eq!(rel.to_relation(&mut pool, &mut NoGate).unwrap(), twin);
    }

    #[test]
    fn select_streams_matches() {
        let (mut pool, mut rel, _fs) = setup();
        for i in 0..200i64 {
            push(
                &mut pool,
                &mut rel,
                row(i, "x", if i % 4 == 0 { Some("nexis") } else { Some("feed") }),
            );
        }
        let expr = Expr::col("v@source").eq(Expr::lit("nexis"));
        let pred = Predicate::bind(rel.schema(), rel.dictionary(), &expr).unwrap();
        let got = rel.select(&mut pool, &mut NoGate, &pred).unwrap();
        assert_eq!(got.len(), 50);
        // parity with the oracle over the materialized twin
        let twin = rel.to_relation(&mut pool, &mut NoGate).unwrap();
        let want = dq_oracle::filter(&twin, &expr).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn select_at_matches_full_scan_and_skips_pages() {
        let (mut pool, mut rel, _fs) = setup();
        for i in 0..400i64 {
            push(
                &mut pool,
                &mut rel,
                row(i, "x", if i % 40 == 0 { Some("nexis") } else { Some("feed") }),
            );
        }
        // retag a few rows so heap order no longer follows position order
        for pos in [3u64, 77, 200] {
            rel.tag_cell(
                &mut pool,
                &mut NoGate,
                2,
                pos,
                "v",
                IndicatorValue::new("source", "nexis"),
            )
            .unwrap();
        }
        let pred = Expr::col("v@source").eq(Expr::lit("nexis"));
        let pred = Predicate::bind(rel.schema(), rel.dictionary(), &pred).unwrap();
        let want = rel.select(&mut pool, &mut NoGate, &pred).unwrap();

        // exact candidate set (what the bitmap index would hand over)
        let mut exact: Vec<u64> = (0..400u64).filter(|p| p % 40 == 0).collect();
        exact.extend([3u64, 77, 200]);
        exact.sort_unstable();
        exact.dedup();
        let (got, stats) = rel
            .select_at(&mut pool, &mut NoGate, &exact, Some(&pred))
            .unwrap();
        assert_eq!(got, want, "indexed path must be byte-identical to the scan");
        assert_eq!(stats.rows_out, want.len() as u64);
        let (heap_pages, _) = rel.pages(&pool);
        assert!(
            stats.candidate_pages < heap_pages as u64 / 2,
            "sparse candidates must skip most heap pages \
             ({} candidate vs {heap_pages} total)",
            stats.candidate_pages
        );

        // a superset candidate list with residual re-check converges to
        // the same answer
        let all: Vec<u64> = (0..400u64).collect();
        let (got, stats) = rel
            .select_at(&mut pool, &mut NoGate, &all, Some(&pred))
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.candidate_rows, 400);

        // no predicate: positions fetch positionally
        let (got, _) = rel
            .select_at(&mut pool, &mut NoGate, &[0, 77, 399], None)
            .unwrap();
        let twin = rel.to_relation(&mut pool, &mut NoGate).unwrap();
        assert_eq!(got.rows()[0], twin.rows()[0]);
        assert_eq!(got.rows()[1], twin.rows()[77]);
        assert_eq!(got.rows()[2], twin.rows()[399]);
    }

    #[test]
    fn validation_rejects_before_any_mutation() {
        let (mut pool, mut rel, _fs) = setup();
        push(&mut pool, &mut rel, row(1, "ok", None));
        // wrong arity
        assert!(rel
            .validate_push(&pool, &TaggedRow::from([QualityCell::bare(1i64)]))
            .is_err());
        // wrong type
        assert!(rel
            .validate_push(
                &pool,
                &TaggedRow::from([QualityCell::bare("str"), QualityCell::bare("v")])
            )
            .is_err());
        // undeclared indicator
        assert!(rel
            .validate_tag(0, "v", &IndicatorValue::new("ghost", "x"))
            .is_err());
        // bad column / bad row
        assert!(rel
            .validate_tag(0, "nope", &IndicatorValue::new("source", "x"))
            .is_err());
        assert!(rel
            .validate_tag(9, "v", &IndicatorValue::new("source", "x"))
            .is_err());
        // oversized record
        let big = "z".repeat(PS);
        assert!(rel.validate_push(&pool, &row(1, &big, None)).is_err());
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (mut pool, mut rel, fs) = setup();
        for i in 0..80i64 {
            push(&mut pool, &mut rel, row(i, "x", Some("feed")));
        }
        rel.swap_remove(&mut pool, &mut NoGate, 1, 5).unwrap();
        let want = rel.to_relation(&mut pool, &mut NoGate).unwrap();
        // checkpoint: flush + sync + manifest
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        let snap = rel.snapshot(&pool);
        pool.publish();

        // "restart": fresh pool, relation restored from the manifest
        let mut pool2 = BufferPool::new(PS, MIN_FRAMES);
        let rel2 = PagedRelation::restore(
            &mut pool2,
            Arc::new(fs),
            &snap,
            IndicatorDictionary::with_paper_defaults(),
        );
        assert_eq!(rel2.len(), rel.len());
        assert_eq!(rel2.to_relation(&mut pool2, &mut NoGate).unwrap(), want);
    }
}
