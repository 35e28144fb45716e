//! The pinning buffer pool: a fixed budget of in-memory page frames
//! shared by every paged file, with clock eviction and WAL-gated
//! write-back.
//!
//! ## Pinning and eviction
//!
//! Every page access goes through [`BufferPool::pin`]: a hit bumps the
//! frame's pin count, a miss loads the page into a free frame — evicting
//! a victim if the pool is full. The clock hand skips pinned frames
//! unconditionally (a pinned page is **never** evicted) and gives
//! recently-referenced frames a second chance. If every frame is pinned
//! the pool reports exhaustion rather than growing; callers hold pins
//! only across single-page operations, so a handful of frames is always
//! enough.
//!
//! ## Write-ahead rule
//!
//! A dirty page carries the LSN of the last logical record applied to
//! it. Before the pool writes such a page out (eviction or checkpoint
//! flush) it calls [`LogGate::ensure_durable`] with that LSN — the gate
//! commits the WAL as needed, so no page image ever reaches disk ahead
//! of the log that explains it.
//!
//! ## Shadow slots
//!
//! Write-back never overwrites a physical slot referenced by the last
//! published checkpoint manifest: the first flush of a page after a
//! checkpoint goes to a *fresh* slot (reusing slots freed by earlier
//! manifests), and the logical→physical map is what the next manifest
//! publishes. A torn page write can therefore only tear a slot no
//! manifest references — the previous checkpoint's image stays intact
//! byte for byte, which is what makes crash recovery exact without
//! per-page redo tracking.
//!
//! ## Scan resistance
//!
//! Bulk reads (full materializations, index-driven page fetches) admit
//! pages through [`BufferPool::pin_scan`] / [`BufferPool::fetch_pages`]
//! instead of [`BufferPool::pin`]. Scan-admitted frames are tagged
//! *evict-soon*: they enter an eviction FIFO and are recycled before the
//! clock ever considers the hot set, so a cold σ streaming the whole
//! relation cannot flush the working set a point-read workload built up.
//! A later targeted [`BufferPool::pin`] of the same page promotes the
//! frame to the normal second-chance regime. [`BufferPool::fetch_pages`]
//! additionally coalesces physically-contiguous runs of a sorted page
//! list into single reads (sorted readahead), counted by
//! `storage.pool.{prefetches,readahead_pages,scan_evictions}`.

use crate::fs::Fs;
use crate::page::Page;
use relstore::{DbError, DbResult};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Map value for a logical page that has never been flushed (it exists
/// only in the pool; no physical slot holds it yet).
pub const NO_PHYS: u32 = u32::MAX;

/// Fewest frames a pool will run with — enough for the deepest
/// single-operation pin chain with room for the clock to turn.
pub const MIN_FRAMES: usize = 8;

/// Longest physically-contiguous run one coalesced [`BufferPool::fetch_pages`]
/// read pulls in (further capped at half the pool so a single readahead
/// can never dominate the frame budget).
pub const MAX_READAHEAD_RUN: usize = 64;

/// Per-call I/O accounting returned by [`BufferPool::fetch_pages`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Pages read from disk by this call (readahead pages included).
    pub pages_read: u64,
    /// Pages served from frames that were already resident.
    pub pool_hits: u64,
    /// Coalesced multi-page reads issued (each covers ≥ 2 pages).
    pub prefetches: u64,
}

/// The write-ahead gate: called by the pool before a dirty page is
/// written out, with the page's LSN. Implementations commit the WAL up
/// to (at least) that LSN or fail the flush.
pub trait LogGate {
    /// Makes every log record with LSN ≤ `lsn` durable.
    fn ensure_durable(&mut self, lsn: u64) -> DbResult<()>;
}

/// A gate for contexts with no log to wait on: recovery redo (the log
/// already is durable) and standalone tests.
pub struct NoGate;

impl LogGate for NoGate {
    fn ensure_durable(&mut self, _lsn: u64) -> DbResult<()> {
        Ok(())
    }
}

/// One paged file: a logical→physical page map over an [`Fs`] file,
/// with the shadow-slot bookkeeping.
struct PagedFile {
    fs: Arc<dyn Fs>,
    name: String,
    /// `map[logical] = physical slot` ([`NO_PHYS`] if never flushed).
    map: Vec<u32>,
    /// Physical slots referenced by the last published manifest — never
    /// overwritten until the next [`BufferPool::publish`].
    committed: HashSet<u32>,
    /// Reusable slots (allocated once, dropped by a later manifest).
    free: Vec<u32>,
    /// Next never-allocated slot (the file grows here).
    next_phys: u32,
    /// True once anything was written since the last [`Fs::sync`].
    unsynced: bool,
}

impl PagedFile {
    fn slot_for_flush(&mut self, logical: u32) -> u32 {
        let cur = self.map[logical as usize];
        if cur != NO_PHYS && !self.committed.contains(&cur) {
            // already shadowed since the last checkpoint: overwrite in
            // place — a tear here hits a slot no manifest references
            return cur;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.next_phys;
            self.next_phys += 1;
            s
        });
        self.map[logical as usize] = slot;
        slot
    }

    fn rebuild_free(&mut self) {
        let live: HashSet<u32> = self.map.iter().copied().filter(|&p| p != NO_PHYS).collect();
        self.committed = live.clone();
        self.free = (0..self.next_phys).filter(|p| !live.contains(p)).collect();
        // pop from the end ⇒ lowest slots are reused last; order only
        // affects layout, not correctness
        self.free.sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// Handle to a file registered with the pool.
pub type FileId = u32;

struct Frame {
    key: (FileId, u32),
    page: Page,
    dirty: bool,
    pins: u32,
    referenced: bool,
    /// Scan-admitted (evict-soon) frame: preferred eviction victim until
    /// a targeted pin promotes it into the clock's second-chance regime.
    scan: bool,
}

/// The pool: frames + frame table + the paged files they cache.
pub struct BufferPool {
    page_size: usize,
    capacity: usize,
    files: Vec<PagedFile>,
    frames: Vec<Frame>,
    /// `(file, logical page) → frame index`.
    table: HashMap<(FileId, u32), usize>,
    clock: usize,
    /// FIFO of scan-admitted frame indices — the evict-soon queue.
    /// Entries go stale when a frame is promoted or re-used; eviction
    /// revalidates against the frame's current `scan` tag.
    scan_queue: VecDeque<usize>,
    /// Whether [`BufferPool::fetch_pages`] may coalesce contiguous runs.
    readahead: bool,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("page_size", &self.page_size)
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("files", &self.files.len())
            .finish()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames of `page_size` bytes each (clamped up
    /// to [`MIN_FRAMES`]).
    pub fn new(page_size: usize, capacity: usize) -> BufferPool {
        BufferPool {
            page_size,
            capacity: capacity.max(MIN_FRAMES),
            files: Vec::new(),
            frames: Vec::new(),
            table: HashMap::new(),
            clock: 0,
            scan_queue: VecDeque::new(),
            readahead: true,
        }
    }

    /// Page size every frame (and file) uses.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Enables or disables readahead coalescing in
    /// [`BufferPool::fetch_pages`] (on by default; the off position is a
    /// bench/CI knob for isolating the coalescing win).
    pub fn set_readahead(&mut self, on: bool) {
        self.readahead = on;
    }

    /// Registers a brand-new (empty) paged file.
    pub fn register_file(&mut self, fs: Arc<dyn Fs>, name: impl Into<String>) -> FileId {
        let id = self.files.len() as FileId;
        self.files.push(PagedFile {
            fs,
            name: name.into(),
            map: Vec::new(),
            committed: HashSet::new(),
            free: Vec::new(),
            next_phys: 0,
            unsynced: false,
        });
        id
    }

    /// Re-registers a file from a checkpoint manifest's page map; the
    /// mapped slots become the committed (shadow-protected) set.
    pub fn restore_file(
        &mut self,
        fs: Arc<dyn Fs>,
        name: impl Into<String>,
        map: Vec<u32>,
    ) -> FileId {
        let id = self.register_file(fs, name);
        let f = &mut self.files[id as usize];
        f.next_phys = map.iter().copied().filter(|&p| p != NO_PHYS).max().map_or(0, |m| m + 1);
        f.map = map;
        f.rebuild_free();
        id
    }

    /// The current logical→physical map of `file` (what a checkpoint
    /// manifest records).
    pub fn file_map(&self, file: FileId) -> &[u32] {
        &self.files[file as usize].map
    }

    /// Number of logical pages in `file`.
    pub fn logical_pages(&self, file: FileId) -> u32 {
        self.files[file as usize].map.len() as u32
    }

    /// Appends a fresh logical page to `file`, resident (unpinned) and
    /// dirty. Returns its logical page number. If the new page is
    /// evicted before first use it is flushed like any dirty page, so
    /// allocation never loses an empty page.
    pub fn alloc_page(&mut self, file: FileId, gate: &mut dyn LogGate) -> DbResult<u32> {
        let logical = {
            let f = &mut self.files[file as usize];
            f.map.push(NO_PHYS);
            (f.map.len() - 1) as u32
        };
        let frame = self.free_frame(gate)?;
        let page = Page::new(self.page_size);
        self.install(frame, (file, logical), page, true, false);
        self.frames[frame].pins = 0;
        Ok(logical)
    }

    /// Pins `(file, logical)` into a frame, loading it from disk on a
    /// miss. The caller must [`BufferPool::unpin`] the returned frame.
    pub fn pin(&mut self, file: FileId, logical: u32, gate: &mut dyn LogGate) -> DbResult<usize> {
        self.pin_with(file, logical, gate, false)
    }

    /// [`BufferPool::pin`] with scan-resistant (evict-soon) admission:
    /// a miss installs the page tagged for preferred eviction, and a hit
    /// on a hot frame leaves its clock state untouched — one-touch bulk
    /// reads neither displace nor artificially refresh the hot set.
    pub fn pin_scan(
        &mut self,
        file: FileId,
        logical: u32,
        gate: &mut dyn LogGate,
    ) -> DbResult<usize> {
        self.pin_with(file, logical, gate, true)
    }

    fn pin_with(
        &mut self,
        file: FileId,
        logical: u32,
        gate: &mut dyn LogGate,
        scan: bool,
    ) -> DbResult<usize> {
        if let Some(&idx) = self.table.get(&(file, logical)) {
            dq_obs::counter!("storage.pool.hits").incr();
            let fr = &mut self.frames[idx];
            fr.pins += 1;
            if !scan {
                // a targeted re-reference promotes scan frames to hot
                fr.referenced = true;
                fr.scan = false;
            }
            return Ok(idx);
        }
        dq_obs::counter!("storage.pool.misses").incr();
        let page = {
            let f = &self.files[file as usize];
            let phys = self.phys_of(file, logical)?;
            let bytes =
                f.fs.read_at(&f.name, phys as u64 * self.page_size as u64, self.page_size)?;
            dq_obs::counter!("storage.pool.page_reads").incr();
            Page::from_bytes(bytes, self.page_size)
                .map_err(|e| DbError::Storage(format!("`{}` page {logical}: {e}", f.name)))?
        };
        let frame = self.free_frame(gate)?;
        self.install(frame, (file, logical), page, false, scan);
        Ok(frame)
    }

    /// Visits every page in `pages` (sorted ascending, deduplicated) in
    /// order, loading misses with scan-resistant admission and coalescing
    /// physically-contiguous miss runs into single reads (sorted
    /// readahead) when [`BufferPool::readahead`] is on. Resident pages
    /// are served from their frames without demoting them. This is the
    /// batch fetch behind index-driven page-skipping scans.
    pub fn fetch_pages(
        &mut self,
        file: FileId,
        pages: &[u32],
        gate: &mut dyn LogGate,
        mut visit: impl FnMut(u32, &Page) -> DbResult<()>,
    ) -> DbResult<FetchStats> {
        debug_assert!(pages.windows(2).all(|w| w[0] < w[1]), "pages must be sorted unique");
        let mut stats = FetchStats::default();
        let run_cap = if self.readahead {
            MAX_READAHEAD_RUN.min((self.capacity / 2).max(1))
        } else {
            1
        };
        let mut i = 0;
        while i < pages.len() {
            let lp = pages[i];
            if self.table.contains_key(&(file, lp)) {
                stats.pool_hits += 1;
                let frame = self.pin_scan(file, lp, gate)?;
                let out = visit(lp, self.page(frame));
                self.unpin(frame);
                out?;
                i += 1;
                continue;
            }
            // extend a miss run while the *logical* successors in the
            // request sit on physically consecutive slots and aren't
            // already resident (re-reading a resident page would waste
            // the I/O and shadow the fresher frame)
            let phys0 = self.phys_of(file, lp)?;
            let mut run = 1usize;
            while i + run < pages.len() && run < run_cap {
                let next = pages[i + run];
                if self.table.contains_key(&(file, next)) {
                    break;
                }
                match self.phys_of(file, next) {
                    Ok(p) if p == phys0 + run as u32 => run += 1,
                    // non-contiguous or unmapped: let its own iteration
                    // handle (or report) it
                    _ => break,
                }
            }
            let bytes = {
                let f = &self.files[file as usize];
                f.fs.read_at(
                    &f.name,
                    phys0 as u64 * self.page_size as u64,
                    run * self.page_size,
                )?
            };
            if bytes.len() < run * self.page_size {
                return Err(DbError::Storage(format!(
                    "short readahead: {} of {} bytes",
                    bytes.len(),
                    run * self.page_size
                )));
            }
            if run > 1 {
                dq_obs::counter!("storage.pool.prefetches").incr();
                dq_obs::counter!("storage.pool.readahead_pages").add(run as u64 - 1);
                stats.prefetches += 1;
            }
            for k in 0..run {
                let lp_k = pages[i + k];
                dq_obs::counter!("storage.pool.misses").incr();
                dq_obs::counter!("storage.pool.page_reads").incr();
                let page = Page::from_bytes(
                    bytes[k * self.page_size..(k + 1) * self.page_size].to_vec(),
                    self.page_size,
                )
                .map_err(|e| {
                    let name = &self.files[file as usize].name;
                    DbError::Storage(format!("`{name}` page {lp_k}: {e}"))
                })?;
                let frame = self.free_frame(gate)?;
                self.install(frame, (file, lp_k), page, false, true);
                let out = visit(lp_k, self.page(frame));
                self.unpin(frame);
                out?;
                stats.pages_read += 1;
            }
            i += run;
        }
        Ok(stats)
    }

    /// Releases one pin on `frame`.
    pub fn unpin(&mut self, frame: usize) {
        let fr = &mut self.frames[frame];
        debug_assert!(fr.pins > 0, "unpin without pin");
        fr.pins = fr.pins.saturating_sub(1);
    }

    /// Read access to a pinned frame's page.
    pub fn page(&self, frame: usize) -> &Page {
        &self.frames[frame].page
    }

    /// Write access to a pinned frame's page; marks it dirty and stamps
    /// `lsn` (the WAL position of the mutation being applied).
    pub fn page_mut(&mut self, frame: usize, lsn: u64) -> &mut Page {
        let fr = &mut self.frames[frame];
        fr.dirty = true;
        fr.page.stamp_lsn(lsn);
        &mut fr.page
    }

    /// Pin → read → unpin in one call.
    pub fn with_page<R>(
        &mut self,
        file: FileId,
        logical: u32,
        gate: &mut dyn LogGate,
        f: impl FnOnce(&Page) -> DbResult<R>,
    ) -> DbResult<R> {
        let frame = self.pin(file, logical, gate)?;
        let out = f(self.page(frame));
        self.unpin(frame);
        out
    }

    /// Pin (scan admission) → read → unpin in one call — the streaming
    /// form bulk scans use so one-touch pages stay evict-soon.
    pub fn with_page_scan<R>(
        &mut self,
        file: FileId,
        logical: u32,
        gate: &mut dyn LogGate,
        f: impl FnOnce(&Page) -> DbResult<R>,
    ) -> DbResult<R> {
        let frame = self.pin_scan(file, logical, gate)?;
        let out = f(self.page(frame));
        self.unpin(frame);
        out
    }

    /// Pin → mutate (dirty + LSN stamp) → unpin in one call.
    pub fn with_page_mut<R>(
        &mut self,
        file: FileId,
        logical: u32,
        lsn: u64,
        gate: &mut dyn LogGate,
        f: impl FnOnce(&mut Page) -> DbResult<R>,
    ) -> DbResult<R> {
        let frame = self.pin(file, logical, gate)?;
        let out = f(self.page_mut(frame, lsn));
        self.unpin(frame);
        out
    }

    /// Writes out every dirty resident page (each behind the WAL gate)
    /// without evicting anything — the checkpoint's flush pass.
    /// Returns how many pages were written.
    pub fn flush_all(&mut self, gate: &mut dyn LogGate) -> DbResult<u64> {
        let mut flushed = 0;
        for idx in 0..self.frames.len() {
            if self.frames[idx].dirty {
                Self::flush_frame(&mut self.files, &mut self.frames[idx], self.page_size, gate)?;
                flushed += 1;
            }
        }
        Ok(flushed)
    }

    /// Fsyncs every file with unflushed writes (checkpoint manifests
    /// must only reference durable slots).
    pub fn sync_files(&mut self) -> DbResult<()> {
        for f in &mut self.files {
            if f.unsynced {
                f.fs.sync(&f.name)?;
                f.unsynced = false;
            }
        }
        Ok(())
    }

    /// Marks the current page maps as published: the slots they
    /// reference become shadow-protected, and slots only older manifests
    /// referenced become reusable. Call right after the checkpoint that
    /// recorded the maps is durably on disk.
    pub fn publish(&mut self) {
        for f in &mut self.files {
            f.rebuild_free();
        }
    }

    /// True iff `(file, logical)` currently occupies a frame.
    pub fn is_resident(&self, file: FileId, logical: u32) -> bool {
        self.table.contains_key(&(file, logical))
    }

    /// Number of currently pinned frames (test/debug aid).
    #[cfg(test)]
    pub fn pinned_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.pins > 0).count()
    }

    /// The keys of all resident pages (test/debug aid).
    pub fn resident(&self) -> Vec<(FileId, u32)> {
        let mut v: Vec<_> = self.frames.iter().map(|f| f.key).collect();
        v.sort_unstable();
        v
    }

    // ---- internals ------------------------------------------------------

    fn phys_of(&self, file: FileId, logical: u32) -> DbResult<u32> {
        let f = &self.files[file as usize];
        let phys = *f.map.get(logical as usize).ok_or_else(|| {
            DbError::Storage(format!(
                "page {logical} out of range in `{}` ({} pages)",
                f.name,
                f.map.len()
            ))
        })?;
        if phys == NO_PHYS {
            return Err(DbError::Storage(format!(
                "page {logical} of `{}` was never flushed and is not resident",
                f.name
            )));
        }
        Ok(phys)
    }

    fn install(&mut self, frame: usize, key: (FileId, u32), page: Page, dirty: bool, scan: bool) {
        let fr = Frame {
            key,
            page,
            dirty,
            pins: 1,
            referenced: !scan,
            scan,
        };
        if frame == self.frames.len() {
            self.frames.push(fr);
        } else {
            self.frames[frame] = fr;
        }
        if scan {
            self.scan_queue.push_back(frame);
        }
        self.table.insert(key, frame);
    }

    /// Index of a frame ready to be overwritten: a never-used slot while
    /// the pool is below capacity, then the oldest still-unpromoted
    /// scan-admitted frame (evict-soon FIFO), otherwise a clock victim
    /// (flushed first if dirty, and never a pinned frame).
    fn free_frame(&mut self, gate: &mut dyn LogGate) -> DbResult<usize> {
        if self.frames.len() < self.capacity {
            return Ok(self.frames.len());
        }
        // evict-soon pass: one-touch scan pages go first, in admission
        // order, so a bulk read recycles its own frames instead of
        // clocking out the hot set
        for _ in 0..self.scan_queue.len() {
            let Some(idx) = self.scan_queue.pop_front() else {
                break;
            };
            let fr = &mut self.frames[idx];
            if !fr.scan {
                continue; // promoted to hot (or frame re-used): stale entry
            }
            if fr.pins > 0 {
                self.scan_queue.push_back(idx);
                continue;
            }
            if fr.dirty {
                Self::flush_frame(&mut self.files, fr, self.page_size, gate)?;
            }
            self.table.remove(&fr.key);
            dq_obs::counter!("storage.pool.evictions").incr();
            dq_obs::counter!("storage.pool.scan_evictions").incr();
            return Ok(idx);
        }
        // clock sweep: first pass clears reference bits, so within two
        // laps every unpinned frame has been offered up
        for _ in 0..self.frames.len() * 2 {
            let idx = self.clock;
            self.clock = (self.clock + 1) % self.frames.len();
            let fr = &mut self.frames[idx];
            if fr.pins > 0 {
                continue; // pinned pages are never evicted
            }
            if fr.referenced {
                fr.referenced = false;
                continue;
            }
            if fr.dirty {
                Self::flush_frame(&mut self.files, fr, self.page_size, gate)?;
            }
            self.table.remove(&fr.key);
            dq_obs::counter!("storage.pool.evictions").incr();
            if fr.scan {
                // scan frame whose FIFO entry went stale — still a scan
                // eviction for accounting purposes
                dq_obs::counter!("storage.pool.scan_evictions").incr();
            }
            return Ok(idx);
        }
        Err(DbError::Storage(format!(
            "buffer pool exhausted: all {} frames pinned",
            self.frames.len()
        )))
    }

    fn flush_frame(
        files: &mut [PagedFile],
        fr: &mut Frame,
        page_size: usize,
        gate: &mut dyn LogGate,
    ) -> DbResult<()> {
        // write-ahead rule: the log explaining this page goes first
        gate.ensure_durable(fr.page.lsn())?;
        let (file, logical) = fr.key;
        let f = &mut files[file as usize];
        let slot = f.slot_for_flush(logical);
        let bytes = fr.page.sealed_bytes();
        let n = f.fs.write_at(&f.name, slot as u64 * page_size as u64, bytes)?;
        if n < bytes.len() {
            return Err(DbError::Storage(format!(
                "short page write: {n} of {} bytes",
                bytes.len()
            )));
        }
        f.unsynced = true;
        fr.dirty = false;
        dq_obs::counter!("storage.pool.dirty_flushes").incr();
        dq_obs::counter!("storage.pool.page_writes").incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    const PS: usize = 256;

    fn pool_with_file(cap: usize) -> (BufferPool, FileId, MemFs) {
        let fs = MemFs::new();
        let mut pool = BufferPool::new(PS, cap);
        let fid = pool.register_file(Arc::new(fs.clone()), "heap.pg");
        (pool, fid, fs)
    }

    fn fill_page(pool: &mut BufferPool, fid: FileId, logical: u32, tag: u8) {
        pool.with_page_mut(fid, logical, 1, &mut NoGate, |p| {
            p.insert(&[tag; 16]).unwrap();
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn alloc_write_evict_reload() {
        let (mut pool, fid, _fs) = pool_with_file(MIN_FRAMES);
        // allocate more pages than frames so early ones get evicted
        let n = MIN_FRAMES as u32 + 4;
        for i in 0..n {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            assert_eq!(lp, i);
            fill_page(&mut pool, fid, lp, i as u8);
        }
        assert!(pool.resident().len() <= MIN_FRAMES);
        // every page reads back its record, resident or not
        for i in 0..n {
            pool.with_page(fid, i, &mut NoGate, |p| {
                assert_eq!(p.get(0)?, Some(&[i as u8; 16][..]));
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn pinned_pages_survive_pool_pressure() {
        let (mut pool, fid, _fs) = pool_with_file(MIN_FRAMES);
        // pin three pages and hold the pins
        let mut held = Vec::new();
        for _ in 0..3 {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            let frame = pool.pin(fid, lp, &mut NoGate).unwrap();
            held.push((lp, frame));
        }
        assert_eq!(pool.pinned_frames(), 3);
        // hammer enough other pages to evict everything evictable many
        // times over
        for _ in 0..4 * MIN_FRAMES as u32 {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            fill_page(&mut pool, fid, lp, 9);
        }
        // the pinned pages never left their frames
        for &(lp, frame) in &held {
            assert_eq!(pool.frames[frame].key, (fid, lp), "pinned page evicted");
            assert!(pool.table.contains_key(&(fid, lp)));
        }
        for &(_, frame) in &held {
            pool.unpin(frame);
        }
    }

    #[test]
    fn exhaustion_when_everything_is_pinned() {
        let (mut pool, fid, _fs) = pool_with_file(MIN_FRAMES);
        let mut held = Vec::new();
        for _ in 0..MIN_FRAMES {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            held.push(pool.pin(fid, lp, &mut NoGate).unwrap());
        }
        let err = pool.alloc_page(fid, &mut NoGate).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        // releasing one pin unblocks the pool
        pool.unpin(held.pop().unwrap());
        assert!(pool.alloc_page(fid, &mut NoGate).is_ok());
    }

    #[test]
    fn pins_balance_and_budget_holds_under_load() {
        let (mut pool, fid, _fs) = pool_with_file(MIN_FRAMES);
        for i in 0..6 * MIN_FRAMES as u32 {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            fill_page(&mut pool, fid, lp, (i % 251) as u8);
            // revisit an older page so hits, misses, and evictions all mix
            pool.with_page(fid, lp / 2, &mut NoGate, |_| Ok(())).unwrap();
            assert_eq!(pool.pinned_frames(), 0, "pins must balance after every op");
            assert!(
                pool.resident().len() <= MIN_FRAMES,
                "pool exceeded its frame budget"
            );
        }
    }

    #[test]
    fn flush_gate_sees_page_lsn() {
        struct Recording {
            calls: Vec<u64>,
        }
        impl LogGate for Recording {
            fn ensure_durable(&mut self, lsn: u64) -> DbResult<()> {
                self.calls.push(lsn);
                Ok(())
            }
        }
        let (mut pool, fid, _fs) = pool_with_file(MIN_FRAMES);
        let mut gate = Recording { calls: Vec::new() };
        let lp = pool.alloc_page(fid, &mut gate).unwrap();
        pool.with_page_mut(fid, lp, 77, &mut gate, |p| {
            p.insert(b"x").unwrap();
            Ok(())
        })
        .unwrap();
        pool.flush_all(&mut gate).unwrap();
        assert_eq!(gate.calls, vec![77], "flush must gate on the page LSN");
    }

    #[test]
    fn shadow_slots_protect_committed_images() {
        let (mut pool, fid, fs) = pool_with_file(MIN_FRAMES);
        let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
        fill_page(&mut pool, fid, lp, 1);
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        pool.publish();
        let committed_slot = pool.file_map(fid)[0];
        let committed_bytes = fs
            .read_at("heap.pg", committed_slot as u64 * PS as u64, PS)
            .unwrap();

        // dirty the page again: the next flush must go elsewhere
        fill_page(&mut pool, fid, lp, 2);
        pool.flush_all(&mut NoGate).unwrap();
        let shadow_slot = pool.file_map(fid)[0];
        assert_ne!(shadow_slot, committed_slot, "committed slot overwritten");
        // and the committed image is untouched
        assert_eq!(
            fs.read_at("heap.pg", committed_slot as u64 * PS as u64, PS).unwrap(),
            committed_bytes
        );
        // a third flush before publish may reuse the shadow slot
        fill_page(&mut pool, fid, lp, 3);
        pool.flush_all(&mut NoGate).unwrap();
        assert_eq!(pool.file_map(fid)[0], shadow_slot);

        // after publish the old committed slot becomes reusable
        pool.publish();
        let lp2 = pool.alloc_page(fid, &mut NoGate).unwrap();
        fill_page(&mut pool, fid, lp2, 4);
        pool.flush_all(&mut NoGate).unwrap();
        assert_eq!(pool.file_map(fid)[1], committed_slot, "freed slot reused");
    }

    #[test]
    fn restore_file_resumes_the_manifest_map() {
        let (mut pool, fid, fs) = pool_with_file(MIN_FRAMES);
        for i in 0..3 {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            fill_page(&mut pool, fid, lp, i as u8 + 1);
        }
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        let map = pool.file_map(fid).to_vec();

        // "recovery": a fresh pool over the same file + manifest map
        let mut pool2 = BufferPool::new(PS, MIN_FRAMES);
        let fid2 = pool2.restore_file(Arc::new(fs), "heap.pg", map);
        for i in 0..3u32 {
            pool2
                .with_page(fid2, i, &mut NoGate, |p| {
                    assert_eq!(p.get(0)?, Some(&[i as u8 + 1; 16][..]));
                    Ok(())
                })
                .unwrap();
        }
        // restored slots are shadow-protected
        pool2
            .with_page_mut(fid2, 0, 1, &mut NoGate, |p| {
                p.insert(b"new").unwrap();
                Ok(())
            })
            .unwrap();
        let before = pool2.file_map(fid2)[0];
        pool2.flush_all(&mut NoGate).unwrap();
        assert_ne!(pool2.file_map(fid2)[0], before);
    }

    /// Builds an N-page file with a sequential physical layout and hands
    /// back a cold pool of `cap` frames restored over it (page `i`'s
    /// record is `[i as u8 + 1; 16]`).
    fn cold_pool(pages: u32, cap: usize) -> (BufferPool, FileId) {
        let fs = MemFs::new();
        let mut pool = BufferPool::new(PS, pages as usize + MIN_FRAMES);
        let fid = pool.register_file(Arc::new(fs.clone()), "heap.pg");
        for i in 0..pages {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            fill_page(&mut pool, fid, lp, i as u8 + 1);
        }
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        let map = pool.file_map(fid).to_vec();
        let mut cold = BufferPool::new(PS, cap);
        let fid = cold.restore_file(Arc::new(fs), "heap.pg", map);
        (cold, fid)
    }

    #[test]
    fn scan_reads_do_not_evict_the_hot_set() {
        let (mut pool, fid) = cold_pool(4 * MIN_FRAMES as u32 + 4, MIN_FRAMES);
        // build a hot set of 4 pages with targeted pins
        let hot = [0u32, 1, 2, 3];
        for &lp in &hot {
            pool.with_page(fid, lp, &mut NoGate, |_| Ok(())).unwrap();
        }
        let scan_ev0 = dq_obs::registry().counter("storage.pool.scan_evictions").get();
        // a cold sweep several times the pool size, via scan admission
        for lp in 4..4 + 4 * MIN_FRAMES as u32 {
            pool.with_page_scan(fid, lp, &mut NoGate, |p| {
                assert_eq!(p.get(0)?, Some(&[lp as u8 + 1; 16][..]));
                Ok(())
            })
            .unwrap();
        }
        // the sweep recycled its own frames...
        assert!(
            dq_obs::registry().counter("storage.pool.scan_evictions").get() > scan_ev0,
            "scan sweep should evict scan-admitted frames"
        );
        // ...and every hot page is still resident
        for &lp in &hot {
            assert!(
                pool.table.contains_key(&(fid, lp)),
                "hot page {lp} evicted by a one-touch scan"
            );
        }
    }

    #[test]
    fn targeted_pin_promotes_a_scan_frame() {
        let (mut pool, fid) = cold_pool(2 * MIN_FRAMES as u32, MIN_FRAMES);
        // admit page 0 as scan, then promote it with a targeted pin
        pool.with_page_scan(fid, 0, &mut NoGate, |_| Ok(())).unwrap();
        pool.with_page(fid, 0, &mut NoGate, |_| Ok(())).unwrap();
        let idx = pool.table[&(fid, 0)];
        assert!(!pool.frames[idx].scan, "targeted pin must clear the scan tag");
        // a subsequent sweep must not treat it as evict-soon
        for lp in 1..2 * MIN_FRAMES as u32 {
            pool.with_page_scan(fid, lp, &mut NoGate, |_| Ok(())).unwrap();
        }
        assert!(pool.table.contains_key(&(fid, 0)), "promoted frame evicted as scan");
    }

    #[test]
    fn fetch_pages_coalesces_sorted_runs() {
        // big pool first, so flush order (= physical layout) is logical
        let fs = MemFs::new();
        let mut pool = BufferPool::new(PS, 32);
        let fid = pool.register_file(Arc::new(fs.clone()), "heap.pg");
        for i in 0..12u32 {
            let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
            fill_page(&mut pool, fid, lp, i as u8 + 1);
        }
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        let map = pool.file_map(fid).to_vec();
        assert_eq!(map, (0..12).collect::<Vec<u32>>(), "layout must be sequential");

        // fresh pool: nothing resident, fetch a page set with two runs
        // and one isolated page
        let mut pool2 = BufferPool::new(PS, MIN_FRAMES);
        let fid2 = pool2.restore_file(Arc::new(fs.clone()), "heap.pg", map.clone());
        let want = [0u32, 1, 2, 3, 7, 9, 10, 11];
        let mut seen = Vec::new();
        let stats = pool2
            .fetch_pages(fid2, &want, &mut NoGate, |lp, p| {
                assert_eq!(p.get(0)?, Some(&[lp as u8 + 1; 16][..]));
                seen.push(lp);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, want, "visit order must follow the request");
        assert_eq!(stats.pages_read, 8);
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.prefetches, 2, "runs 0..=3 and 9..=11 must coalesce");

        // second fetch of a resident subset is all pool hits
        let stats = pool2
            .fetch_pages(fid2, &[9, 10, 11], &mut NoGate, |_, _| Ok(()))
            .unwrap();
        assert_eq!(stats.pool_hits, 3);
        assert_eq!(stats.pages_read, 0);

        // readahead off: same pages, no coalescing
        let mut pool3 = BufferPool::new(PS, MIN_FRAMES);
        pool3.set_readahead(false);
        let fid3 = pool3.restore_file(Arc::new(fs), "heap.pg", map);
        let stats = pool3
            .fetch_pages(fid3, &want, &mut NoGate, |_, _| Ok(()))
            .unwrap();
        assert_eq!(stats.pages_read, 8);
        assert_eq!(stats.prefetches, 0, "readahead disabled must not coalesce");
    }

    #[test]
    fn torn_page_write_never_reaches_a_committed_slot() {
        // end-to-end shadow-paging property under fault injection: tear
        // a post-publish flush, crash, and verify the committed image
        // still loads cleanly
        let (mut pool, fid, fs) = pool_with_file(MIN_FRAMES);
        let lp = pool.alloc_page(fid, &mut NoGate).unwrap();
        fill_page(&mut pool, fid, lp, 1);
        pool.flush_all(&mut NoGate).unwrap();
        pool.sync_files().unwrap();
        pool.publish();
        let committed_slot = pool.file_map(fid)[0];

        fill_page(&mut pool, fid, lp, 2);
        fs.set_write_budget(PS / 2); // the shadow write tears halfway
        assert!(pool.flush_all(&mut NoGate).is_err());
        fs.clear_write_budget();
        fs.crash();

        let bytes = fs
            .read_at("heap.pg", committed_slot as u64 * PS as u64, PS)
            .unwrap();
        let p = Page::from_bytes(bytes, PS).expect("committed image intact");
        assert_eq!(p.get(0).unwrap(), Some(&[1u8; 16][..]));
    }
}
