//! Checkpoints: snapshots of the durable state, written atomically.
//!
//! A checkpoint serializes everything the WAL's records mutate — resident
//! `tagstore` tagged relations (schema, indicator dictionary,
//! relation-level tags, rows with cell tags), paged relations' page
//! manifests, and the `dq-admin` audit trail — plus the LSN of the last
//! record it covers. Recovery loads the newest intact checkpoint and
//! replays only WAL records beyond its LSN.
//!
//! ## Atomicity
//!
//! The snapshot is written to a `.tmp` file (fully fsynced), renamed
//! into place, and then the *directory* is fsynced — without that last
//! step the rename itself may not survive a crash (the published name
//! could revert to the `.tmp` name), which matters because callers
//! prune the WAL immediately after publishing. A crash mid-checkpoint
//! leaves at worst a stale `.tmp` plus the previous checkpoint. The
//! file carries a magic header and a trailing CRC32 over everything
//! before it; [`load_latest`] falls back to the next-older checkpoint
//! when the newest is torn or corrupt. An intact checkpoint of another
//! format (an older build's `DQCKPT1`–`3`) is an error instead: no older
//! file may stand in for it, since the log it covers is already pruned.

use crate::codec::{Decoder, Encoder};
use crate::crc::crc32;
use crate::fs::Fs;
use dq_admin::AuditEvent;
use relstore::{DbError, DbResult, Schema};
use tagstore::{IndicatorDef, IndicatorValue, TaggedRow};

/// First bytes of every checkpoint file (version-bearing; v2 added the
/// MVCC epoch counter, v3 the paged-relation manifests, v4 dropped the
/// untagged tables).
pub const MAGIC: &[u8; 8] = b"DQCKPT4\n";
/// File-name prefix of published checkpoints.
pub const CKPT_PREFIX: &str = "ckpt-";
/// File-name suffix of published checkpoints.
pub const CKPT_SUFFIX: &str = ".snap";

/// Snapshot of one tagged relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedSnapshot {
    /// Relation name.
    pub name: String,
    /// Application schema.
    pub schema: Schema,
    /// Declared indicators (the dictionary, flattened in sorted order).
    pub dict: Vec<IndicatorDef>,
    /// Relation-level quality tags.
    pub relation_tags: Vec<IndicatorValue>,
    /// Rows with their cell tags.
    pub rows: Vec<TaggedRow>,
}

/// Manifest of one *paged* relation: identity plus the logical→physical
/// page maps of its heap and directory files. Unlike [`TaggedSnapshot`]
/// this holds no row data — the rows live in the paged files, whose
/// manifest-referenced slots are shadow-protected (never overwritten
/// until the next checkpoint publishes), so the manifest alone pins an
/// exact byte-level image of the relation at checkpoint time. Its size
/// is proportional to the page count (4 bytes per page), which is what
/// makes checkpoints O(dirty) instead of O(db).
#[derive(Debug, Clone, PartialEq)]
pub struct PagedSnapshot {
    /// Relation name.
    pub name: String,
    /// Application schema.
    pub schema: Schema,
    /// Declared indicators (the dictionary, flattened in sorted order).
    pub dict: Vec<IndicatorDef>,
    /// Row count at checkpoint time.
    pub rows: u64,
    /// Heap file logical→physical page map.
    pub heap_map: Vec<u32>,
    /// Directory file logical→physical page map.
    pub dir_map: Vec<u32>,
}

/// Everything a checkpoint captures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointData {
    /// LSN of the last WAL record reflected in this snapshot.
    pub last_lsn: u64,
    /// MVCC epoch of the last commit reflected in this snapshot;
    /// recovery resumes the epoch counter from here.
    pub epoch: u64,
    /// Tagged relations, sorted by name.
    pub tagged: Vec<TaggedSnapshot>,
    /// Paged relations (manifests only — no row data), sorted by name.
    pub paged: Vec<PagedSnapshot>,
    /// The audit trail's next sequence number.
    pub audit_next_seq: u64,
    /// The audit trail's events, in order.
    pub audit_events: Vec<AuditEvent>,
}

fn file_name(last_lsn: u64) -> String {
    format!("{CKPT_PREFIX}{last_lsn:020}{CKPT_SUFFIX}")
}

fn is_checkpoint(name: &str) -> bool {
    name.starts_with(CKPT_PREFIX) && name.ends_with(CKPT_SUFFIX)
}

fn encode(data: &CheckpointData) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(data.last_lsn);
    enc.put_u64(data.epoch);
    enc.put_u32(data.tagged.len() as u32);
    for t in &data.tagged {
        enc.put_str(&t.name);
        enc.put_schema(&t.schema);
        enc.put_u32(t.dict.len() as u32);
        for d in &t.dict {
            enc.put_indicator_def(d);
        }
        enc.put_u32(t.relation_tags.len() as u32);
        for tag in &t.relation_tags {
            enc.put_tag(tag);
        }
        enc.put_u32(t.rows.len() as u32);
        for r in &t.rows {
            enc.put_tagged_row(r);
        }
    }
    enc.put_u32(data.paged.len() as u32);
    for p in &data.paged {
        enc.put_str(&p.name);
        enc.put_schema(&p.schema);
        enc.put_u32(p.dict.len() as u32);
        for d in &p.dict {
            enc.put_indicator_def(d);
        }
        enc.put_u64(p.rows);
        enc.put_u32(p.heap_map.len() as u32);
        for &m in &p.heap_map {
            enc.put_u32(m);
        }
        enc.put_u32(p.dir_map.len() as u32);
        for &m in &p.dir_map {
            enc.put_u32(m);
        }
    }
    enc.put_u64(data.audit_next_seq);
    enc.put_u32(data.audit_events.len() as u32);
    for e in &data.audit_events {
        enc.put_audit_event(e);
    }
    enc.into_bytes()
}

fn decode(payload: &[u8]) -> DbResult<CheckpointData> {
    let mut dec = Decoder::new(payload);
    let last_lsn = dec.get_u64()?;
    let epoch = dec.get_u64()?;
    let ntagged = dec.get_u32()? as usize;
    let mut tagged = Vec::with_capacity(ntagged.min(1024));
    for _ in 0..ntagged {
        let name = dec.get_str()?;
        let schema = dec.get_schema()?;
        let ndict = dec.get_u32()? as usize;
        let mut dict = Vec::with_capacity(ndict.min(1024));
        for _ in 0..ndict {
            dict.push(dec.get_indicator_def()?);
        }
        let ntags = dec.get_u32()? as usize;
        let mut relation_tags = Vec::with_capacity(ntags.min(1024));
        for _ in 0..ntags {
            relation_tags.push(dec.get_tag()?);
        }
        let nrows = dec.get_u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1024));
        for _ in 0..nrows {
            rows.push(dec.get_tagged_row()?);
        }
        tagged.push(TaggedSnapshot {
            name,
            schema,
            dict,
            relation_tags,
            rows,
        });
    }
    let npaged = dec.get_u32()? as usize;
    let mut paged = Vec::with_capacity(npaged.min(1024));
    for _ in 0..npaged {
        let name = dec.get_str()?;
        let schema = dec.get_schema()?;
        let ndict = dec.get_u32()? as usize;
        let mut dict = Vec::with_capacity(ndict.min(1024));
        for _ in 0..ndict {
            dict.push(dec.get_indicator_def()?);
        }
        let rows = dec.get_u64()?;
        let nheap = dec.get_u32()? as usize;
        let mut heap_map = Vec::with_capacity(nheap.min(1 << 20));
        for _ in 0..nheap {
            heap_map.push(dec.get_u32()?);
        }
        let ndir = dec.get_u32()? as usize;
        let mut dir_map = Vec::with_capacity(ndir.min(1 << 20));
        for _ in 0..ndir {
            dir_map.push(dec.get_u32()?);
        }
        paged.push(PagedSnapshot {
            name,
            schema,
            dict,
            rows,
            heap_map,
            dir_map,
        });
    }
    let audit_next_seq = dec.get_u64()?;
    let nevents = dec.get_u32()? as usize;
    let mut audit_events = Vec::with_capacity(nevents.min(1024));
    for _ in 0..nevents {
        audit_events.push(dec.get_audit_event()?);
    }
    if !dec.is_exhausted() {
        return Err(DbError::Storage("checkpoint has trailing bytes".into()));
    }
    Ok(CheckpointData {
        last_lsn,
        epoch,
        tagged,
        paged,
        audit_next_seq,
        audit_events,
    })
}

/// Writes a checkpoint atomically (tmp + fsync + rename + directory
/// fsync). Returns the published file name.
pub fn write(fs: &dyn Fs, data: &CheckpointData) -> DbResult<String> {
    let _t = dq_obs::histogram!("checkpoint.write_us").start();
    let payload = encode(data);
    let mut bytes = Vec::with_capacity(MAGIC.len() + payload.len() + 4);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let name = file_name(data.last_lsn);
    let tmp = format!("{name}.tmp");
    fs.write_file(&tmp, &bytes)?;
    fs.rename(&tmp, &name)?;
    // the rename is not durable until the directory is: without this, a
    // crash after the caller prunes the WAL could leave neither the
    // checkpoint (dirent reverted to .tmp) nor the log
    fs.sync_dir()?;
    dq_obs::counter!("checkpoint.write").incr();
    dq_obs::counter!("checkpoint.bytes").add(bytes.len() as u64);
    Ok(name)
}

/// Reads one checkpoint: `Ok(None)` when it is torn or corrupt (an older
/// one may stand in), an error when it is intact but of another format.
fn read_one(fs: &dyn Fs, name: &str) -> DbResult<Option<CheckpointData>> {
    let Ok(bytes) = fs.read(name) else {
        return Ok(None);
    };
    if bytes.len() < MAGIC.len() + 4 {
        return Ok(None);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Ok(None);
    }
    let magic = &body[..MAGIC.len()];
    if magic != MAGIC {
        let found = String::from_utf8_lossy(magic.strip_suffix(b"\n").unwrap_or(magic));
        return Err(DbError::Storage(format!(
            "checkpoint `{name}` has format {found}; this build reads only {}",
            String::from_utf8_lossy(&MAGIC[..MAGIC.len() - 1])
        )));
    }
    Ok(decode(&body[MAGIC.len()..]).ok())
}

/// Sorted list of published checkpoint file names (oldest first).
pub fn list(fs: &dyn Fs) -> DbResult<Vec<String>> {
    let mut names: Vec<String> = fs
        .list()?
        .into_iter()
        .filter(|n| is_checkpoint(n))
        .collect();
    names.sort_unstable(); // zero-padded LSN ⇒ lexicographic == numeric
    Ok(names)
}

/// Loads the newest intact checkpoint, falling back to older ones when
/// the newest is corrupt (a crash can never corrupt a *published*
/// checkpoint, but a dishonest disk can). Returns the file name too so
/// callers can prune older files. `Ok(None)` on a fresh directory; an
/// error when the newest intact checkpoint is of another format.
pub fn load_latest(fs: &dyn Fs) -> DbResult<Option<(String, CheckpointData)>> {
    for name in list(fs)?.into_iter().rev() {
        match read_one(fs, &name)? {
            Some(data) => return Ok(Some((name, data))),
            None => dq_obs::counter!("checkpoint.corrupt").incr(),
        }
    }
    Ok(None)
}

/// Deletes published checkpoints older than `keep`, plus any orphaned
/// `.tmp` files from interrupted checkpoint writes, then fsyncs the
/// directory so the unlinks stick — a crash must not resurrect a stale
/// checkpoint a future recovery could mistake for live state.
pub fn prune(fs: &dyn Fs, keep: &str) -> DbResult<()> {
    let mut removed = false;
    for name in fs.list()? {
        let stale_ckpt = is_checkpoint(&name) && name.as_str() < keep;
        let orphan_tmp = name.starts_with(CKPT_PREFIX) && name.ends_with(".tmp");
        if stale_ckpt || orphan_tmp {
            fs.remove(&name)?;
            removed = true;
        }
    }
    if removed {
        fs.sync_dir()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use dq_admin::AuditAction;
    use relstore::{DataType, Date, Value};
    use tagstore::QualityCell;

    fn sample() -> CheckpointData {
        CheckpointData {
            last_lsn: 42,
            epoch: 7,
            tagged: vec![TaggedSnapshot {
                name: "stock".into(),
                schema: Schema::of(&[("name", DataType::Text)]),
                dict: vec![IndicatorDef::new("source", DataType::Text, "origin")],
                relation_tags: vec![IndicatorValue::new("source", "bulk import")],
                rows: vec![TaggedRow::from([
                    QualityCell::bare("Fruit Co").with_tag(IndicatorValue::new("source", "Nexis")),
                ])],
            }],
            paged: vec![PagedSnapshot {
                name: "trades".into(),
                schema: Schema::of(&[("qty", DataType::Int)]),
                dict: vec![IndicatorDef::new("source", DataType::Text, "origin")],
                rows: 12345,
                heap_map: vec![0, 2, 5, u32::MAX],
                dir_map: vec![1],
            }],
            audit_next_seq: 2,
            audit_events: vec![AuditEvent {
                seq: 1,
                date: Date::parse("10-24-91").unwrap(),
                actor: "acct'g".into(),
                action: AuditAction::Create,
                table: "company".into(),
                row_key: vec![Value::text("FRT")],
                column: None,
                detail: "row created".into(),
            }],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let fs = MemFs::new();
        let data = sample();
        let name = write(&fs, &data).unwrap();
        assert!(fs.exists(&name) && !fs.exists(&format!("{name}.tmp")));
        let (loaded_name, loaded) = load_latest(&fs).unwrap().unwrap();
        assert_eq!(loaded_name, name);
        assert_eq!(loaded, data);
    }

    #[test]
    fn published_checkpoint_survives_crash() {
        // write() must dir-fsync after the rename — otherwise the crash
        // reverts the dirent to `.tmp` and the checkpoint is invisible
        let fs = MemFs::new();
        let data = sample();
        let name = write(&fs, &data).unwrap();
        assert_eq!(fs.dir_fsync_count(), 1);
        fs.crash();
        let (loaded_name, loaded) = load_latest(&fs).unwrap().unwrap();
        assert_eq!(loaded_name, name);
        assert_eq!(loaded, data);
    }

    #[test]
    fn empty_dir_loads_none() {
        assert!(load_latest(&MemFs::new()).unwrap().is_none());
    }

    #[test]
    fn newest_wins_and_corrupt_falls_back() {
        let fs = MemFs::new();
        let mut old = sample();
        old.last_lsn = 10;
        write(&fs, &old).unwrap();
        let new = sample();
        write(&fs, &new).unwrap();
        assert_eq!(load_latest(&fs).unwrap().unwrap().1.last_lsn, 42);
        // corrupt the newest: loader falls back to the older one
        let newest = list(&fs).unwrap().pop().unwrap();
        let mut bytes = fs.read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs.write_file(&newest, &bytes).unwrap();
        let (name, data) = load_latest(&fs).unwrap().unwrap();
        assert_eq!(data.last_lsn, 10);
        assert!(name < newest);
    }

    #[test]
    fn interrupted_write_leaves_previous_checkpoint() {
        let fs = MemFs::new();
        let mut old = sample();
        old.last_lsn = 10;
        write(&fs, &old).unwrap();
        // the next checkpoint write dies partway into the tmp file
        fs.set_write_budget(20);
        let mut new = sample();
        new.last_lsn = 99;
        assert!(write(&fs, &new).is_err());
        fs.clear_write_budget();
        assert_eq!(load_latest(&fs).unwrap().unwrap().1.last_lsn, 10);
        // prune clears the orphaned tmp
        prune(&fs, &file_name(10)).unwrap();
        assert!(fs.list().unwrap().iter().all(|n| !n.ends_with(".tmp")));
    }

    #[test]
    fn prune_keeps_only_newest() {
        let fs = MemFs::new();
        for lsn in [5, 10, 15] {
            let mut d = sample();
            d.last_lsn = lsn;
            write(&fs, &d).unwrap();
        }
        prune(&fs, &file_name(15)).unwrap();
        assert_eq!(list(&fs).unwrap(), vec![file_name(15)]);
    }

    #[test]
    fn pruned_checkpoints_stay_gone_after_crash() {
        // prune must fsync the directory: the unlink of a stale
        // checkpoint is volatile until then, and a resurrected old
        // checkpoint is exactly the kind of zombie load_latest's
        // newest-wins ordering papers over only until it's also corrupt
        let fs = MemFs::new();
        for lsn in [5, 15] {
            let mut d = sample();
            d.last_lsn = lsn;
            write(&fs, &d).unwrap();
        }
        let before = fs.dir_fsync_count();
        prune(&fs, &file_name(15)).unwrap();
        assert!(fs.dir_fsync_count() > before, "prune must sync_dir");
        fs.crash();
        assert_eq!(list(&fs).unwrap(), vec![file_name(15)]);
        assert_eq!(load_latest(&fs).unwrap().unwrap().1.last_lsn, 15);
    }

    #[test]
    fn retired_format_is_an_error_not_a_fallback() {
        let fs = MemFs::new();
        let mut old = sample();
        old.last_lsn = 10;
        write(&fs, &old).unwrap();
        // a newer file in DQCKPT3, the format that still held untagged
        // tables: intact, so its CRC is re-sealed over the old magic
        let name = write(&fs, &sample()).unwrap();
        let mut bytes = fs.read(&name).unwrap();
        bytes.truncate(bytes.len() - 4);
        bytes[..MAGIC.len()].copy_from_slice(b"DQCKPT3\n");
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        fs.write_file(&name, &bytes).unwrap();
        match load_latest(&fs) {
            Err(DbError::Storage(m)) => {
                assert!(m.contains("has format DQCKPT3") && m.contains("DQCKPT4"), "{m}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
        // and opening the directory fails with it rather than starting
        // from the older checkpoint
        let opened = crate::DurableDb::open(std::sync::Arc::new(fs), Default::default());
        assert!(matches!(opened, Err(DbError::Storage(_))));
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let fs = MemFs::new();
        let name = write(&fs, &sample()).unwrap();
        let bytes = fs.read(&name).unwrap();
        fs.write_file(&name, &bytes[..bytes.len() - 10]).unwrap();
        assert!(load_latest(&fs).unwrap().is_none());
    }
}
