//! Filesystem abstraction with fault injection.
//!
//! The WAL, checkpoint, and page writers talk to storage only through
//! [`Fs`], so recovery behaviour can be tested against *simulated* media
//! faults — short writes, torn tails, dropped fsyncs — without touching
//! a real disk. [`StdFs`] is the production implementation over a
//! directory; [`MemFs`] is the in-memory fault-injection implementation
//! whose [`MemFs::crash`] discards everything not yet fsynced, modelling
//! process (or power) death.
//!
//! Durability model: `append` and `write_at` may be buffered by the OS;
//! only `sync` makes written bytes crash-durable. `write_file` +
//! `rename` + `sync_dir` is the atomic-publish path used for
//! checkpoints.
//!
//! Directory entries have their own durability: fsyncing a *file* makes
//! its bytes — and, as a modelling simplification, its directory entry
//! under the name it was synced as — durable, but a bare `rename` is
//! **not** durable until [`Fs::sync_dir`] persists the directory. A
//! crash between `rename` and `sync_dir` may therefore resurface the
//! file under its old (pre-rename) name, which is exactly the torn
//! checkpoint-publish state recovery has to tolerate. `remove` is
//! likewise volatile: a deleted file whose entry was durable
//! *resurrects* on a crash unless a [`Fs::sync_dir`] persisted the
//! unlink — which is why the WAL and checkpoint pruning paths fsync the
//! directory after unlinking, and why recovery must tolerate stale
//! segments and checkpoints reappearing.

use relstore::{DbError, DbResult};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn io_err(ctx: &str, e: impl std::fmt::Display) -> DbError {
    DbError::Storage(format!("{ctx}: {e}"))
}

/// Storage operations the durability layer needs. Paths are plain file
/// names relative to one database directory.
pub trait Fs: Send + Sync {
    /// Appends bytes to `name` (creating it if absent), returning how
    /// many bytes were actually written — a fault-injecting
    /// implementation may write fewer (a *short write*).
    fn append(&self, name: &str, bytes: &[u8]) -> DbResult<usize>;

    /// Writes `bytes` at absolute `offset` in `name` (creating it if
    /// absent, zero-extending past the current end), returning how many
    /// bytes were actually written — the page write-back path. Like
    /// [`Fs::append`], nothing is crash-durable until [`Fs::sync`].
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> DbResult<usize>;

    /// Reads exactly `len` bytes at absolute `offset` of `name` — the
    /// page read path. An error if the range is past the end.
    fn read_at(&self, name: &str, offset: u64, len: usize) -> DbResult<Vec<u8>>;

    /// Current length of `name` in bytes (0 when absent).
    fn file_len(&self, name: &str) -> u64;

    /// Forces previously written bytes of `name` to durable storage.
    fn sync(&self, name: &str) -> DbResult<()>;

    /// Creates or replaces `name` with exactly `bytes`, synced.
    fn write_file(&self, name: &str, bytes: &[u8]) -> DbResult<()>;

    /// Atomically renames `from` to `to` (replacing `to` if it exists).
    /// The new name is not crash-durable until [`Fs::sync_dir`].
    fn rename(&self, from: &str, to: &str) -> DbResult<()>;

    /// Forces the directory itself (the name → file mapping, including
    /// renames and removals) to durable storage.
    fn sync_dir(&self) -> DbResult<()>;

    /// Reads the entire contents of `name`.
    fn read(&self, name: &str) -> DbResult<Vec<u8>>;

    /// Deletes `name` (an error if absent). The unlink is not
    /// crash-durable until [`Fs::sync_dir`].
    fn remove(&self, name: &str) -> DbResult<()>;

    /// Truncates `name` to `len` bytes (recovery chops torn tails).
    fn truncate(&self, name: &str, len: u64) -> DbResult<()>;

    /// All file names in the directory, sorted.
    fn list(&self) -> DbResult<Vec<String>>;

    /// True iff `name` exists.
    fn exists(&self, name: &str) -> bool;
}

/// Production [`Fs`] over one real directory (created on construction).
#[derive(Debug)]
pub struct StdFs {
    root: PathBuf,
}

impl StdFs {
    /// Opens (creating if needed) the database directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> DbResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err("create_dir_all", e))?;
        Ok(StdFs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Fs for StdFs {
    fn append(&self, name: &str, bytes: &[u8]) -> DbResult<usize> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for append", e))?;
        f.write_all(bytes).map_err(|e| io_err("append", e))?;
        Ok(bytes.len())
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> DbResult<usize> {
        use std::os::unix::fs::FileExt as _;
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false) // positional write into an existing image
            .write(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for write_at", e))?;
        f.write_all_at(bytes, offset)
            .map_err(|e| io_err("write_at", e))?;
        Ok(bytes.len())
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        use std::os::unix::fs::FileExt as _;
        let f = std::fs::File::open(self.path(name)).map_err(|e| io_err("open for read_at", e))?;
        let mut buf = vec![0u8; len];
        f.read_exact_at(&mut buf, offset)
            .map_err(|e| io_err("read_at", e))?;
        Ok(buf)
    }

    fn file_len(&self, name: &str) -> u64 {
        std::fs::metadata(self.path(name)).map_or(0, |m| m.len())
    }

    fn sync(&self, name: &str) -> DbResult<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for sync", e))?;
        f.sync_all().map_err(|e| io_err("fsync", e))
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> DbResult<()> {
        let path = self.path(name);
        let mut f = std::fs::File::create(&path).map_err(|e| io_err("create", e))?;
        f.write_all(bytes).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("fsync", e))
    }

    fn rename(&self, from: &str, to: &str) -> DbResult<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| io_err("rename", e))
    }

    fn sync_dir(&self) -> DbResult<()> {
        let d = std::fs::File::open(&self.root).map_err(|e| io_err("open dir for sync", e))?;
        d.sync_all().map_err(|e| io_err("fsync dir", e))
    }

    fn read(&self, name: &str) -> DbResult<Vec<u8>> {
        std::fs::read(self.path(name)).map_err(|e| io_err("read", e))
    }

    fn remove(&self, name: &str) -> DbResult<()> {
        std::fs::remove_file(self.path(name)).map_err(|e| io_err("remove", e))
    }

    fn truncate(&self, name: &str, len: u64) -> DbResult<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| io_err("open for truncate", e))?;
        f.set_len(len).map_err(|e| io_err("truncate", e))
    }

    fn list(&self) -> DbResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(|e| io_err("read_dir", e))? {
            let entry = entry.map_err(|e| io_err("read_dir entry", e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }
}

/// One in-memory file: its full (possibly OS-buffered) byte content, the
/// durable image a crash reverts to, and the name under which its
/// *directory entry* is durable (`None` until the first successful file
/// fsync or a `sync_dir`; left at the old name across a `rename` until
/// the next directory sync).
#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    durable: Vec<u8>,
    durable_name: Option<String>,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<String, MemFile>,
    /// Unlinked files whose directory entry was durable and whose
    /// removal has not been persisted by a `sync_dir` yet — they
    /// resurrect on a crash, keyed by their durable name.
    unlinked: BTreeMap<String, MemFile>,
    /// Remaining write budget in bytes; when it runs out, writes become
    /// short and then fail — the torn-write injector.
    write_budget: Option<usize>,
    /// When set, `sync` silently does nothing — the dropped-fsync
    /// injector (a disk that lies about flushing its cache).
    drop_syncs: bool,
    fsyncs: u64,
    dir_fsyncs: u64,
}

impl MemState {
    /// Consumes up to `want` bytes of the write budget, returning how
    /// many may actually be written (`Err` once the budget is gone).
    fn take_budget(&mut self, want: usize) -> DbResult<usize> {
        let n = match self.write_budget {
            None => want,
            Some(0) => {
                return Err(DbError::Storage(
                    "injected write failure (budget exhausted)".into(),
                ))
            }
            Some(budget) => want.min(budget),
        };
        if let Some(b) = self.write_budget.as_mut() {
            *b -= n;
        }
        Ok(n)
    }
}

/// In-memory [`Fs`] with fault injection. Cloning shares the underlying
/// state, so a "restarted process" is modelled by cloning the handle,
/// calling [`MemFs::crash`], and re-opening the database over the clone.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    state: Arc<Mutex<MemState>>,
}

impl MemFs {
    /// Empty in-memory directory with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().expect("memfs poisoned")
    }

    /// Arms the torn-write injector: after `bytes` more written bytes,
    /// writes are cut short and subsequent writes fail.
    pub fn set_write_budget(&self, bytes: usize) {
        self.lock().write_budget = Some(bytes);
    }

    /// Disarms the torn-write injector.
    pub fn clear_write_budget(&self) {
        self.lock().write_budget = None;
    }

    /// Arms/disarms the dropped-fsync injector.
    pub fn set_drop_syncs(&self, drop: bool) {
        self.lock().drop_syncs = drop;
    }

    /// Simulates process/power death: file content reverts to its last
    /// fsynced image, files whose directory entry was never made durable
    /// disappear entirely, files renamed without a subsequent
    /// [`Fs::sync_dir`] reappear under the name their entry is durable
    /// as (usually the pre-rename name), and files unlinked without a
    /// subsequent [`Fs::sync_dir`] resurrect.
    pub fn crash(&self) {
        let mut st = self.lock();
        let mut survivors: BTreeMap<String, MemFile> = std::mem::take(&mut st.files)
            .into_values()
            .filter_map(|mut f| {
                let name = f.durable_name.clone()?;
                f.data = f.durable.clone();
                Some((name, f))
            })
            .collect();
        // unlinks that never hit the directory: the entry is still on
        // disk, so the file comes back with its durable content — unless
        // a survivor has since claimed the same name
        for (name, mut f) in std::mem::take(&mut st.unlinked) {
            f.data = f.durable.clone();
            survivors.entry(name).or_insert(f);
        }
        st.files = survivors;
    }

    /// Number of fsyncs observed (group-commit tests assert on this).
    pub fn fsync_count(&self) -> u64 {
        self.lock().fsyncs
    }

    /// Number of directory fsyncs observed (checkpoint publish asserts
    /// on this).
    pub fn dir_fsync_count(&self) -> u64 {
        self.lock().dir_fsyncs
    }

    /// A deep snapshot of the current *durable* state, as a fresh
    /// independent [`MemFs`] — "what a crashed machine's disk holds".
    pub fn durable_snapshot(&self) -> MemFs {
        let st = self.lock();
        let mut files: BTreeMap<String, MemFile> = st
            .files
            .values()
            .filter_map(|f| {
                let name = f.durable_name.clone()?;
                Some((
                    name.clone(),
                    MemFile {
                        data: f.durable.clone(),
                        durable: f.durable.clone(),
                        durable_name: Some(name),
                    },
                ))
            })
            .collect();
        for (name, f) in &st.unlinked {
            files.entry(name.clone()).or_insert_with(|| MemFile {
                data: f.durable.clone(),
                durable: f.durable.clone(),
                durable_name: Some(name.clone()),
            });
        }
        MemFs {
            state: Arc::new(Mutex::new(MemState {
                files,
                ..Default::default()
            })),
        }
    }
}

impl Fs for MemFs {
    fn append(&self, name: &str, bytes: &[u8]) -> DbResult<usize> {
        let mut st = self.lock();
        let n = st.take_budget(bytes.len())?;
        let file = st.files.entry(name.to_owned()).or_default();
        file.data.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> DbResult<usize> {
        let mut st = self.lock();
        let n = st.take_budget(bytes.len())?;
        let file = st.files.entry(name.to_owned()).or_default();
        let offset = offset as usize;
        let end = offset + n;
        if file.data.len() < end {
            file.data.resize(end, 0);
        }
        file.data[offset..end].copy_from_slice(&bytes[..n]);
        if n < bytes.len() {
            return Err(DbError::Storage(format!(
                "injected short write_at: {n} of {} bytes",
                bytes.len()
            )));
        }
        Ok(n)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        let st = self.lock();
        let f = st
            .files
            .get(name)
            .ok_or_else(|| DbError::Storage(format!("read_at: no such file `{name}`")))?;
        let offset = offset as usize;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= f.data.len())
            .ok_or_else(|| {
                DbError::Storage(format!(
                    "read_at: range {offset}+{len} past end of `{name}` ({} bytes)",
                    f.data.len()
                ))
            })?;
        Ok(f.data[offset..end].to_vec())
    }

    fn file_len(&self, name: &str) -> u64 {
        self.lock().files.get(name).map_or(0, |f| f.data.len() as u64)
    }

    fn sync(&self, name: &str) -> DbResult<()> {
        let mut st = self.lock();
        st.fsyncs += 1;
        if st.drop_syncs {
            return Ok(()); // the lying disk: reports success, flushes nothing
        }
        match st.files.get_mut(name) {
            Some(f) => {
                f.durable = f.data.clone();
                // file fsync also persists the entry under this name
                f.durable_name = Some(name.to_owned());
                Ok(())
            }
            None => Err(DbError::Storage(format!("sync: no such file `{name}`"))),
        }
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> DbResult<()> {
        let mut st = self.lock();
        if let Some(budget) = st.write_budget {
            if budget < bytes.len() {
                // a partial checkpoint write that never completes
                let keep = bytes[..budget].to_vec();
                st.write_budget = Some(0);
                st.files.insert(
                    name.to_owned(),
                    MemFile {
                        data: keep.clone(),
                        durable: keep,
                        // the write failed before the fsync: neither the
                        // bytes nor the entry ever became durable
                        durable_name: None,
                    },
                );
                return Err(DbError::Storage("injected short checkpoint write".into()));
            }
            st.write_budget = Some(budget - bytes.len());
        }
        st.files.insert(
            name.to_owned(),
            MemFile {
                data: bytes.to_vec(),
                durable: bytes.to_vec(),
                durable_name: Some(name.to_owned()),
            },
        );
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> DbResult<()> {
        let mut st = self.lock();
        // durable_name deliberately NOT updated: the rename lives only in
        // the in-memory directory until `sync_dir`
        let f = st
            .files
            .remove(from)
            .ok_or_else(|| DbError::Storage(format!("rename: no such file `{from}`")))?;
        st.files.insert(to.to_owned(), f);
        Ok(())
    }

    fn sync_dir(&self) -> DbResult<()> {
        let mut st = self.lock();
        st.dir_fsyncs += 1;
        if st.drop_syncs {
            return Ok(()); // the lying disk drops directory syncs too
        }
        // unlinks become durable: resurrection candidates are gone
        st.unlinked.clear();
        let names: Vec<String> = st.files.keys().cloned().collect();
        for name in names {
            let f = st.files.get_mut(&name).expect("just listed");
            // entries of files that had some durable presence become
            // durable under their *current* name; never-synced files
            // stay volatile (their data blocks were never flushed)
            if f.durable_name.is_some() {
                f.durable_name = Some(name);
            }
        }
        Ok(())
    }

    fn read(&self, name: &str) -> DbResult<Vec<u8>> {
        self.lock()
            .files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| DbError::Storage(format!("read: no such file `{name}`")))
    }

    fn remove(&self, name: &str) -> DbResult<()> {
        let mut st = self.lock();
        let f = st
            .files
            .remove(name)
            .ok_or_else(|| DbError::Storage(format!("remove: no such file `{name}`")))?;
        // if the entry was durable somewhere, the unlink itself is not
        // durable until the next sync_dir: park it for resurrection
        if let Some(durable_as) = f.durable_name.clone() {
            st.unlinked.insert(durable_as, f);
        }
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> DbResult<()> {
        let mut st = self.lock();
        let f = st
            .files
            .get_mut(name)
            .ok_or_else(|| DbError::Storage(format!("truncate: no such file `{name}`")))?;
        f.data.truncate(len as usize);
        let keep = f.durable.len().min(f.data.len());
        f.durable.truncate(keep);
        Ok(())
    }

    fn list(&self) -> DbResult<Vec<String>> {
        Ok(self.lock().files.keys().cloned().collect())
    }

    fn exists(&self, name: &str) -> bool {
        self.lock().files.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_append_read_roundtrip() {
        let fs = MemFs::new();
        assert_eq!(fs.append("a.log", b"hello ").unwrap(), 6);
        assert_eq!(fs.append("a.log", b"world").unwrap(), 5);
        assert_eq!(fs.read("a.log").unwrap(), b"hello world");
        assert!(fs.exists("a.log"));
        assert!(!fs.exists("b.log"));
        assert_eq!(fs.list().unwrap(), vec!["a.log".to_string()]);
    }

    #[test]
    fn crash_discards_unsynced_tail() {
        let fs = MemFs::new();
        fs.append("w.log", b"durable").unwrap();
        fs.sync("w.log").unwrap();
        fs.append("w.log", b" volatile").unwrap();
        fs.crash();
        assert_eq!(fs.read("w.log").unwrap(), b"durable");
        // a never-synced file disappears entirely
        fs.append("tmp", b"x").unwrap();
        fs.crash();
        assert!(!fs.exists("tmp"));
    }

    #[test]
    fn write_budget_injects_short_writes() {
        let fs = MemFs::new();
        fs.set_write_budget(4);
        assert_eq!(fs.append("w.log", b"123456").unwrap(), 4);
        assert!(fs.append("w.log", b"more").is_err());
        assert_eq!(fs.read("w.log").unwrap(), b"1234");
        fs.clear_write_budget();
        assert_eq!(fs.append("w.log", b"ok").unwrap(), 2);
    }

    #[test]
    fn dropped_fsyncs_lose_data_on_crash() {
        let fs = MemFs::new();
        fs.set_drop_syncs(true);
        fs.append("w.log", b"data").unwrap();
        fs.sync("w.log").unwrap(); // lies
        fs.crash();
        assert!(!fs.exists("w.log"));
    }

    #[test]
    fn durable_snapshot_is_independent() {
        let fs = MemFs::new();
        fs.append("w.log", b"abc").unwrap();
        fs.sync("w.log").unwrap();
        fs.append("w.log", b"xyz").unwrap();
        let snap = fs.durable_snapshot();
        assert_eq!(snap.read("w.log").unwrap(), b"abc");
        fs.append("w.log", b"!!!").unwrap();
        assert_eq!(snap.read("w.log").unwrap(), b"abc"); // unaffected
    }

    #[test]
    fn write_at_overwrites_and_extends() {
        let fs = MemFs::new();
        fs.append("p.dat", b"0123456789").unwrap();
        assert_eq!(fs.write_at("p.dat", 2, b"AB").unwrap(), 2);
        assert_eq!(fs.read("p.dat").unwrap(), b"01AB456789");
        // writing past the end zero-extends the gap
        assert_eq!(fs.write_at("p.dat", 12, b"XY").unwrap(), 2);
        assert_eq!(fs.read("p.dat").unwrap(), b"01AB456789\0\0XY");
        assert_eq!(fs.file_len("p.dat"), 14);
        assert_eq!(fs.read_at("p.dat", 2, 2).unwrap(), b"AB");
        assert!(fs.read_at("p.dat", 13, 2).is_err()); // past the end
    }

    #[test]
    fn unsynced_write_at_reverts_on_crash() {
        let fs = MemFs::new();
        fs.append("p.dat", b"0123456789").unwrap();
        fs.sync("p.dat").unwrap();
        fs.write_at("p.dat", 4, b"TORN").unwrap();
        fs.crash();
        assert_eq!(fs.read("p.dat").unwrap(), b"0123456789");
    }

    #[test]
    fn short_write_at_leaves_a_torn_page() {
        let fs = MemFs::new();
        fs.append("p.dat", b"0000000000").unwrap();
        fs.sync("p.dat").unwrap();
        fs.set_write_budget(3);
        assert!(fs.write_at("p.dat", 0, b"FULLPAGE").is_err());
        fs.clear_write_budget();
        assert_eq!(fs.read("p.dat").unwrap(), b"FUL0000000");
    }

    #[test]
    fn rename_without_dir_sync_resurfaces_the_old_name_on_crash() {
        let fs = MemFs::new();
        fs.write_file("c.tmp", b"ckpt").unwrap(); // synced under "c.tmp"
        fs.rename("c.tmp", "c.snap").unwrap();
        assert!(fs.exists("c.snap") && !fs.exists("c.tmp"));
        fs.crash();
        // the rename was never made durable: the entry comes back tmp
        assert!(fs.exists("c.tmp") && !fs.exists("c.snap"));
        assert_eq!(fs.read("c.tmp").unwrap(), b"ckpt");
    }

    #[test]
    fn rename_plus_dir_sync_survives_crash() {
        let fs = MemFs::new();
        fs.write_file("c.tmp", b"ckpt").unwrap();
        fs.rename("c.tmp", "c.snap").unwrap();
        fs.sync_dir().unwrap();
        assert_eq!(fs.dir_fsync_count(), 1);
        fs.crash();
        assert!(fs.exists("c.snap") && !fs.exists("c.tmp"));
        assert_eq!(fs.read("c.snap").unwrap(), b"ckpt");
    }

    #[test]
    fn dir_sync_does_not_rescue_unsynced_data() {
        let fs = MemFs::new();
        fs.append("w.log", b"volatile").unwrap();
        fs.sync_dir().unwrap();
        fs.crash();
        // the entry was volatile too: its data blocks were never synced
        assert!(!fs.exists("w.log"));
    }

    #[test]
    fn lying_disk_drops_dir_syncs_too() {
        let fs = MemFs::new();
        fs.write_file("c.tmp", b"ckpt").unwrap();
        fs.set_drop_syncs(true);
        fs.rename("c.tmp", "c.snap").unwrap();
        fs.sync_dir().unwrap(); // lies
        fs.crash();
        assert!(fs.exists("c.tmp") && !fs.exists("c.snap"));
    }

    #[test]
    fn remove_without_dir_sync_resurrects_on_crash() {
        let fs = MemFs::new();
        fs.write_file("wal-1.log", b"records").unwrap();
        fs.remove("wal-1.log").unwrap();
        assert!(!fs.exists("wal-1.log"));
        fs.crash();
        // the unlink never hit the directory: the segment is back
        assert!(fs.exists("wal-1.log"));
        assert_eq!(fs.read("wal-1.log").unwrap(), b"records");
    }

    #[test]
    fn remove_plus_dir_sync_is_final() {
        let fs = MemFs::new();
        fs.write_file("wal-1.log", b"records").unwrap();
        fs.remove("wal-1.log").unwrap();
        fs.sync_dir().unwrap();
        fs.crash();
        assert!(!fs.exists("wal-1.log"));
    }

    #[test]
    fn recreated_file_wins_over_resurrected_unlink() {
        let fs = MemFs::new();
        fs.write_file("seg", b"old").unwrap();
        fs.remove("seg").unwrap();
        fs.write_file("seg", b"new").unwrap(); // same name, fully synced
        fs.crash();
        assert_eq!(fs.read("seg").unwrap(), b"new");
    }

    #[test]
    fn never_durable_remove_leaves_nothing() {
        let fs = MemFs::new();
        fs.append("tmp", b"x").unwrap(); // entry never durable
        fs.remove("tmp").unwrap();
        fs.crash();
        assert!(!fs.exists("tmp"));
    }

    #[test]
    fn stdfs_roundtrip_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("dq_storage_fs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs::open(&dir).unwrap();
        fs.append("w.log", b"hello").unwrap();
        fs.sync("w.log").unwrap();
        assert_eq!(fs.read("w.log").unwrap(), b"hello");
        fs.truncate("w.log", 2).unwrap();
        assert_eq!(fs.read("w.log").unwrap(), b"he");
        fs.write_file("c.tmp", b"ckpt").unwrap();
        fs.rename("c.tmp", "c.snap").unwrap();
        fs.sync_dir().unwrap();
        assert!(fs.exists("c.snap") && !fs.exists("c.tmp"));
        assert_eq!(fs.list().unwrap(), vec!["c.snap".to_string(), "w.log".to_string()]);
        fs.remove("c.snap").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stdfs_write_at_read_at() {
        let dir = std::env::temp_dir().join(format!("dq_storage_fs_at_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs::open(&dir).unwrap();
        fs.write_at("p.dat", 4, b"PAGE").unwrap();
        assert_eq!(fs.file_len("p.dat"), 8);
        assert_eq!(fs.read_at("p.dat", 4, 4).unwrap(), b"PAGE");
        assert_eq!(fs.read_at("p.dat", 0, 4).unwrap(), vec![0u8; 4]);
        fs.write_at("p.dat", 0, b"head").unwrap();
        assert_eq!(fs.read("p.dat").unwrap(), b"headPAGE");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
