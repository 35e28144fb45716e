//! The append-only, CRC32-framed write-ahead log.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [lsn: u64 LE] [epoch: u64 LE] [WalRecord bytes]
//! ```
//!
//! The *epoch* is the MVCC visibility stamp: every record carries the
//! epoch at which its enclosing commit becomes visible, so recovery can
//! restore not just the data but the epoch counter readers pin against.
//! Epochs are non-decreasing along the log (several records in one
//! group commit share a stamp); a decreasing stamp is treated as a torn
//! tail, exactly like a non-monotone LSN.
//!
//! Frames are written strictly append-only into numbered *segments*
//! (`wal-0000000001.log`, ...). A segment never splits a frame; rotation
//! happens between commits once a segment exceeds its size budget.
//!
//! ## Group commit
//!
//! [`Wal::append`] only buffers the encoded frame. [`Wal::commit`]
//! writes the whole buffer with one `append` syscall and one fsync —
//! so N appends + 1 commit cost one fsync, the group-commit win the B8
//! bench measures. Callers that want per-op durability commit after
//! every append.
//!
//! ## Torn tails
//!
//! [`replay`] scans segments in order and stops at the first frame that
//! is incomplete, has an impossible length, fails its CRC, or carries a
//! non-monotone LSN — all of which a mid-write crash can leave behind.
//! The torn tail is truncated and later segments (necessarily written
//! after the tear) are deleted, so the log ends exactly at the last
//! durable committed record.

use crate::codec::{Decoder, Encoder};
use crate::crc::crc32;
use crate::fs::Fs;
use crate::record::WalRecord;
use relstore::{DbError, DbResult};
use std::sync::Arc;

/// Frame header size: length + CRC.
const FRAME_HEADER: usize = 8;
/// Hard upper bound on a single frame payload — anything larger in a
/// length field is treated as corruption, not an allocation request.
const MAX_FRAME: u32 = 1 << 30;

/// File-name prefix of WAL segments.
pub const SEGMENT_PREFIX: &str = "wal-";
/// File-name suffix of WAL segments.
pub const SEGMENT_SUFFIX: &str = ".log";

/// Tuning knobs for the log.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes (checked at commit boundaries).
    pub segment_bytes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20, // 1 MiB
        }
    }
}

fn segment_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:010}{SEGMENT_SUFFIX}")
}

fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted list of WAL segment file names currently in the directory.
pub fn list_segments(fs: &dyn Fs) -> DbResult<Vec<String>> {
    let mut segs: Vec<String> = fs
        .list()?
        .into_iter()
        .filter(|n| segment_seq(n).is_some())
        .collect();
    segs.sort_unstable(); // zero-padded ⇒ lexicographic == numeric
    Ok(segs)
}

/// What a [`replay`] scan found.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Every intact committed record, `(lsn, epoch, record)`, in log
    /// order.
    pub records: Vec<(u64, u64, WalRecord)>,
    /// Bytes chopped off a torn tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// The LSN the next append should carry.
    pub next_lsn: u64,
    /// The highest epoch stamp seen (0 on an empty log) — the committed
    /// epoch the recovered catalog must resume publishing from.
    pub last_epoch: u64,
    /// Segment to resume appending into: `(name, durable length)`.
    pub tail: Option<(String, usize)>,
}

/// Scans every segment, truncating the first torn frame found and
/// deleting any segments after it. Read-only apart from that repair.
pub fn replay(fs: &dyn Fs) -> DbResult<ReplayOutcome> {
    let segments = list_segments(fs)?;
    let mut records: Vec<(u64, u64, WalRecord)> = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut next_lsn = 1u64;
    let mut last_epoch = 0u64;
    let mut tail = None;
    let mut torn_at: Option<usize> = None; // index into `segments`

    'segments: for (si, seg) in segments.iter().enumerate() {
        let bytes = fs.read(seg)?;
        let mut off = 0usize;
        loop {
            let remaining = bytes.len() - off;
            if remaining == 0 {
                break; // clean segment end
            }
            let valid_upto = off;
            let tear = |why: &str| -> DbResult<u64> {
                dq_obs::counter!("wal.torn_tails").incr();
                let chopped = (bytes.len() - valid_upto) as u64;
                log_tear(fs, seg, valid_upto, why)?;
                Ok(chopped)
            };
            if remaining < FRAME_HEADER {
                truncated_bytes += tear("incomplete frame header")?;
                torn_at = Some(si);
                break 'segments;
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            if len > MAX_FRAME || (len as usize) > remaining - FRAME_HEADER {
                truncated_bytes += tear("frame length past end of segment")?;
                torn_at = Some(si);
                break 'segments;
            }
            let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len as usize];
            if crc32(payload) != crc {
                truncated_bytes += tear("frame CRC mismatch")?;
                torn_at = Some(si);
                break 'segments;
            }
            let mut dec = Decoder::new(payload);
            let (lsn, epoch, record) = match dec.get_u64().and_then(|lsn| {
                let epoch = dec.get_u64()?;
                WalRecord::decode(&mut dec).map(|r| (lsn, epoch, r))
            }) {
                Ok(ok)
                    if (ok.0 == next_lsn || records.is_empty()) && ok.1 >= last_epoch =>
                {
                    ok
                }
                // decodable but out-of-order LSN/epoch, or undecodable
                // payload under a valid CRC (format drift): stop
                // trusting the log
                Ok(_) | Err(_) => {
                    truncated_bytes += tear("undecodable or non-monotone record")?;
                    torn_at = Some(si);
                    break 'segments;
                }
            };
            next_lsn = lsn + 1;
            last_epoch = epoch;
            records.push((lsn, epoch, record));
            off += FRAME_HEADER + len as usize;
        }
        tail = Some((seg.clone(), fs.read(seg)?.len()));
    }

    if let Some(si) = torn_at {
        // everything after the tear was written later; drop it
        for seg in &segments[si + 1..] {
            fs.remove(seg)?;
        }
        if si + 1 < segments.len() {
            // make the unlinks durable — a later crash must not
            // resurrect segments the repair already discarded
            fs.sync_dir()?;
        }
        tail = Some((segments[si].clone(), fs.read(&segments[si])?.len()));
    }
    Ok(ReplayOutcome {
        records,
        truncated_bytes,
        next_lsn,
        last_epoch,
        tail,
    })
}

fn log_tear(fs: &dyn Fs, seg: &str, keep: usize, _why: &str) -> DbResult<()> {
    fs.truncate(seg, keep as u64)
}

/// The writable log: an append buffer over the current tail segment.
pub struct Wal {
    fs: Arc<dyn Fs>,
    opts: WalOptions,
    current: String,
    current_len: usize,
    /// False right after a rotation: the fresh segment's directory entry
    /// still needs a `sync_dir` once its first commit lands.
    current_entry_synced: bool,
    next_lsn: u64,
    /// Highest LSN known durable (committed to a synced segment). The
    /// buffer pool's flush gate compares page LSNs against this.
    durable_lsn: u64,
    pending: Vec<u8>,
    pending_records: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("current", &self.current)
            .field("current_len", &self.current_len)
            .field("next_lsn", &self.next_lsn)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

impl Wal {
    /// Opens the log for writing, resuming at the tail [`replay`] found
    /// (or starting segment 1 of a fresh log).
    pub fn resume(
        fs: Arc<dyn Fs>,
        opts: WalOptions,
        next_lsn: u64,
        tail: Option<(String, usize)>,
    ) -> Self {
        let (current, current_len) = tail.unwrap_or_else(|| (segment_name(1), 0));
        Wal {
            fs,
            opts,
            current,
            // a resumed tail already has a durable entry; a fresh
            // segment 1 gets its dir fsync on the first commit
            current_entry_synced: current_len > 0,
            current_len,
            next_lsn,
            durable_lsn: next_lsn - 1,
            pending: Vec::new(),
            pending_records: 0,
        }
    }

    /// The LSN of the last appended record (0 if none yet).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Number of records buffered but not yet committed.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Highest LSN known durable on disk. Records at or below this LSN
    /// survived their commit fsync; the buffer pool must not flush a
    /// page stamped with a higher LSN.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Encodes and buffers one record, assigning its LSN and stamping
    /// it with `epoch` — the MVCC epoch at which the enclosing commit
    /// becomes visible. Nothing is durable until [`Wal::commit`].
    pub fn append(&mut self, record: &WalRecord, epoch: u64) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut enc = Encoder::new();
        enc.put_u64(lsn);
        enc.put_u64(epoch);
        record.encode(&mut enc);
        let payload = enc.into_bytes();
        self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.pending_records += 1;
        dq_obs::counter!("wal.append").incr();
        dq_obs::counter!("wal.append.bytes").add((payload.len() + FRAME_HEADER) as u64);
        lsn
    }

    /// Writes the buffered frames with one append + one fsync (the
    /// group commit), rotating afterwards if the segment is full.
    /// A short write leaves a torn tail for recovery to truncate and
    /// reports the commit as failed.
    pub fn commit(&mut self) -> DbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        let batch_records = std::mem::take(&mut self.pending_records);
        let written = self.fs.append(&self.current, &batch)?;
        self.current_len += written;
        if written < batch.len() {
            // torn tail is now on disk; make whatever landed durable so
            // recovery sees a deterministic prefix, then fail loudly
            let _ = self.fs.sync(&self.current);
            return Err(DbError::Storage(format!(
                "short WAL write: {written} of {} bytes",
                batch.len()
            )));
        }
        {
            let _t = dq_obs::histogram!("wal.fsync_us").start();
            self.fs.sync(&self.current)?;
        }
        if !self.current_entry_synced {
            // first commit after a rotation: the segment's bytes are
            // durable but its directory entry may not be — persist it so
            // a crash cannot lose a whole fsynced segment
            self.fs.sync_dir()?;
            self.current_entry_synced = true;
        }
        dq_obs::counter!("wal.fsync").incr();
        dq_obs::counter!("wal.commit.records").add(batch_records);
        self.durable_lsn = self.next_lsn - 1;
        if self.current_len >= self.opts.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Starts a fresh segment; subsequent commits land there.
    pub fn rotate(&mut self) -> DbResult<()> {
        let seq = segment_seq(&self.current).unwrap_or(0) + 1;
        self.current = segment_name(seq);
        self.current_len = 0;
        self.current_entry_synced = false;
        dq_obs::counter!("wal.rotate").incr();
        Ok(())
    }

    /// Deletes every segment except the current one, then fsyncs the
    /// directory — without that, a crash could resurrect pruned segments
    /// whose records recovery would replay on top of a newer checkpoint.
    /// Callers invoke this after a checkpoint has captured all records
    /// up to the rotation point, making the old segments redundant.
    pub fn prune_before_current(&self) -> DbResult<()> {
        let mut removed = false;
        for seg in list_segments(self.fs.as_ref())? {
            if seg != self.current {
                self.fs.remove(&seg)?;
                dq_obs::counter!("wal.segments_pruned").incr();
                removed = true;
            }
        }
        if removed {
            self.fs.sync_dir()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use tagstore::QualityCell;

    fn rec(i: i64) -> WalRecord {
        WalRecord::TagPush {
            name: "t".into(),
            row: vec![QualityCell::bare(i)].into(),
        }
    }

    fn open(fs: &MemFs) -> Wal {
        let out = replay(fs).unwrap();
        Wal::resume(Arc::new(fs.clone()), WalOptions::default(), out.next_lsn, out.tail)
    }

    #[test]
    fn append_commit_replay_roundtrip() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        for i in 0..5 {
            wal.append(&rec(i), (i + 1) as u64);
        }
        wal.commit().unwrap();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 5);
        assert_eq!(out.truncated_bytes, 0);
        assert_eq!(out.next_lsn, 6);
        assert_eq!(out.last_epoch, 5);
        assert_eq!(
            out.records.iter().map(|(l, _, _)| *l).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(
            out.records.iter().map(|(_, e, _)| *e).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(out.records[3].2, rec(3));
    }

    #[test]
    fn group_commit_is_one_fsync() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        for i in 0..100 {
            wal.append(&rec(i), 1);
        }
        assert_eq!(wal.pending_records(), 100);
        wal.commit().unwrap();
        assert_eq!(fs.fsync_count(), 1);
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 100);
        // one group commit: every record shares the epoch stamp
        assert!(out.records.iter().all(|(_, e, _)| *e == 1));
        assert_eq!(out.last_epoch, 1);
    }

    #[test]
    fn uncommitted_appends_die_in_a_crash() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 1);
        wal.commit().unwrap();
        wal.append(&rec(2), 2); // never committed
        fs.crash();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn torn_tail_truncated_at_every_cut() {
        // build a clean 3-record log, then re-crash it at every possible
        // byte boundary: replay must always yield an exact record prefix
        let fs = MemFs::new();
        let mut wal = open(&fs);
        for i in 0..3 {
            wal.append(&rec(i), i as u64 + 1);
            wal.commit().unwrap();
        }
        let full = fs.read(&segment_name(1)).unwrap();
        let mut prefix_lens = Vec::new();
        {
            // frame boundaries: offsets after each complete frame
            let mut off = 0;
            while off < full.len() {
                let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
                off += FRAME_HEADER + len;
                prefix_lens.push(off);
            }
        }
        for cut in 0..=full.len() {
            let crashed = MemFs::new();
            crashed.write_file(&segment_name(1), &full[..cut]).unwrap();
            let out = replay(&crashed).unwrap();
            let expect = prefix_lens.iter().filter(|&&b| b <= cut).count();
            assert_eq!(out.records.len(), expect, "cut at byte {cut}");
            // the repair is sticky: a second replay sees a clean log
            let again = replay(&crashed).unwrap();
            assert_eq!(again.records.len(), expect);
            assert_eq!(again.truncated_bytes, 0);
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_there() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        for i in 0..4 {
            wal.append(&rec(i), 1);
        }
        wal.commit().unwrap();
        let mut bytes = fs.read(&segment_name(1)).unwrap();
        // flip a byte inside the third frame's payload
        let mut off = 0;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += FRAME_HEADER + len;
        }
        bytes[off + FRAME_HEADER + 2] ^= 0xFF;
        fs.write_file(&segment_name(1), &bytes).unwrap();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out.truncated_bytes > 0);
    }

    #[test]
    fn rotation_and_pruning() {
        let fs = MemFs::new();
        let out = replay(&fs).unwrap();
        let mut wal = Wal::resume(
            Arc::new(fs.clone()),
            WalOptions { segment_bytes: 64 },
            out.next_lsn,
            out.tail,
        );
        for i in 0..20 {
            wal.append(&rec(i), i as u64 + 1);
            wal.commit().unwrap();
        }
        let segs = list_segments(&fs).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {segs:?}");
        // replay crosses segment boundaries in order
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 20);
        assert_eq!(out.records.last().unwrap().2, rec(19));
        assert_eq!(out.last_epoch, 20);
        // prune keeps only the current segment
        wal.rotate().unwrap();
        wal.append(&rec(99), 21);
        wal.commit().unwrap();
        wal.prune_before_current().unwrap();
        assert_eq!(list_segments(&fs).unwrap().len(), 1);
        assert_eq!(replay(&fs).unwrap().records.len(), 1);
    }

    #[test]
    fn pruned_segments_stay_gone_after_crash() {
        // prune_before_current must fsync the directory — otherwise the
        // crash resurrects old segments whose records replay on top of
        // whatever checkpoint made them redundant
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 1);
        wal.commit().unwrap();
        wal.rotate().unwrap();
        wal.append(&rec(2), 2);
        wal.commit().unwrap();
        assert_eq!(list_segments(&fs).unwrap().len(), 2);
        wal.prune_before_current().unwrap();
        fs.crash();
        assert_eq!(list_segments(&fs).unwrap(), vec![segment_name(2)]);
        assert_eq!(replay(&fs).unwrap().records.len(), 1);
    }

    #[test]
    fn fresh_segment_entry_survives_crash_after_first_commit() {
        // rotation creates a new file; its first commit must sync_dir so
        // the fsynced segment's directory entry cannot vanish
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 1);
        wal.commit().unwrap();
        let before = fs.dir_fsync_count();
        wal.rotate().unwrap();
        wal.append(&rec(2), 2);
        wal.commit().unwrap();
        assert!(fs.dir_fsync_count() > before, "first commit after rotate must sync_dir");
        fs.crash();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn torn_tail_repair_unlinks_survive_crash() {
        // when replay deletes segments written after a tear, a crash
        // must not bring them back (their records are past the tear and
        // would replay as garbage or non-monotone LSNs)
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 1);
        wal.commit().unwrap();
        wal.rotate().unwrap();
        wal.append(&rec(2), 2);
        wal.commit().unwrap();
        // corrupt segment 1 so replay tears there and removes segment 2
        let mut bytes = fs.read(&segment_name(1)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs.write_file(&segment_name(1), &bytes).unwrap();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 0);
        fs.crash();
        assert_eq!(list_segments(&fs).unwrap(), vec![segment_name(1)]);
        assert_eq!(replay(&fs).unwrap().records.len(), 0);
    }

    #[test]
    fn durable_lsn_tracks_commits() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        assert_eq!(wal.durable_lsn(), 0);
        wal.append(&rec(1), 1);
        wal.append(&rec(2), 1);
        assert_eq!(wal.durable_lsn(), 0); // buffered, not durable
        wal.commit().unwrap();
        assert_eq!(wal.durable_lsn(), 2);
    }

    #[test]
    fn decreasing_epoch_stamp_is_a_tear() {
        // a record stamped with a *lower* epoch than its predecessor can
        // only come from corruption or format drift; replay must stop
        // trusting the log there, exactly like a non-monotone LSN
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 5);
        wal.append(&rec(2), 3); // epoch went backwards
        wal.commit().unwrap();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.last_epoch, 5);
        assert!(out.truncated_bytes > 0);
    }

    #[test]
    fn short_write_reports_error_and_recovery_repairs() {
        let fs = MemFs::new();
        let mut wal = open(&fs);
        wal.append(&rec(1), 1);
        wal.commit().unwrap();
        let durable = fs.read(&segment_name(1)).unwrap().len();
        fs.set_write_budget(5); // next commit tears mid-frame
        wal.append(&rec(2), 2);
        assert!(wal.commit().is_err());
        fs.clear_write_budget();
        let out = replay(&fs).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.truncated_bytes, 5);
        assert_eq!(fs.read(&segment_name(1)).unwrap().len(), durable);
    }
}
