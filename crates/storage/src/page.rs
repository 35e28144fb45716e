//! Fixed-size slotted pages — the unit the buffer pool caches and the
//! paged heap stores records in.
//!
//! ## On-disk layout (`page_size` bytes)
//!
//! ```text
//! header (16 bytes): [magic u32 LE] [lsn u64 LE] [slot_count u16 LE] [free_end u16 LE]
//! slot array:        slot_count × 4 bytes, growing up from the header:
//!                    [offset u16 LE] [len u16 LE]
//! free space
//! record data:       grows down from free_end toward the slot array
//! trailer (4 bytes): [crc32 over everything before it, u32 LE]
//! ```
//!
//! The `lsn` is the WAL position of the last record that dirtied the
//! page; the buffer pool refuses to flush a page whose `lsn` is not yet
//! durable in the log (write-ahead rule). The CRC is computed by
//! [`Page::sealed_bytes`] at flush time and verified by
//! [`Page::from_bytes`] at load time, so a torn or bit-rotted page is an
//! error instead of silent corruption.
//!
//! Records are addressed by slot index. A slot whose offset is
//! [`TOMBSTONE`] marks a deleted record; its space is *not* reclaimed
//! (the paged heap is append-mostly, and keeping fullness a pure
//! function of the insert history is what makes WAL redo's page
//! placement deterministic). Offsets are `u16`, so `page_size` is capped
//! at 65536; the default used by the pool is 16 KiB.

use crate::crc::crc32;
use relstore::{DbError, DbResult};

/// First 4 bytes of every page ("DQPG").
pub const PAGE_MAGIC: u32 = 0x4447_5150;
/// Header size in bytes.
pub const PAGE_HEADER: usize = 16;
/// Trailer (CRC) size in bytes.
pub const PAGE_TRAILER: usize = 4;
/// Per-slot bookkeeping in the slot array.
pub const SLOT_SIZE: usize = 4;
/// Slot-offset value marking a deleted record.
pub const TOMBSTONE: u16 = u16::MAX;

/// One in-memory page image. Mutations only touch the byte buffer; the
/// CRC trailer is (re)computed when the page is sealed for flushing.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    bytes: Vec<u8>,
}

impl Page {
    /// A fresh empty page. `page_size` must fit `u16` offsets and leave
    /// room for header + trailer.
    pub fn new(page_size: usize) -> Page {
        assert!(
            (PAGE_HEADER + PAGE_TRAILER + SLOT_SIZE..=65536).contains(&page_size),
            "bad page size {page_size}"
        );
        let mut p = Page {
            bytes: vec![0u8; page_size],
        };
        p.bytes[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        p.set_free_end((page_size - PAGE_TRAILER) as u16);
        p
    }

    /// Validates a page image read back from disk: exact size, magic,
    /// CRC, and internally consistent header fields.
    pub fn from_bytes(bytes: Vec<u8>, page_size: usize) -> DbResult<Page> {
        if bytes.len() != page_size {
            return Err(DbError::Storage(format!(
                "page is {} bytes, expected {page_size}",
                bytes.len()
            )));
        }
        let body = &bytes[..page_size - PAGE_TRAILER];
        let stored = u32::from_le_bytes(bytes[page_size - PAGE_TRAILER..].try_into().unwrap());
        if crc32(body) != stored {
            return Err(DbError::Storage("page CRC mismatch".into()));
        }
        if u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != PAGE_MAGIC {
            return Err(DbError::Storage("page bad magic".into()));
        }
        let p = Page { bytes };
        let (count, free_end) = (p.slot_count() as usize, p.free_end() as usize);
        if free_end > page_size - PAGE_TRAILER || PAGE_HEADER + count * SLOT_SIZE > free_end {
            return Err(DbError::Storage("page header out of bounds".into()));
        }
        Ok(p)
    }

    /// WAL position of the last record that dirtied this page.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.bytes[4..12].try_into().unwrap())
    }

    /// Stamps the page with the LSN of a mutation just applied to it
    /// (monotone: never moves the stamp backwards).
    pub fn stamp_lsn(&mut self, lsn: u64) {
        if lsn > self.lsn() {
            self.bytes[4..12].copy_from_slice(&lsn.to_le_bytes());
        }
    }

    /// Number of slots (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.bytes[12..14].try_into().unwrap())
    }

    fn set_slot_count(&mut self, n: u16) {
        self.bytes[12..14].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.bytes[14..16].try_into().unwrap())
    }

    fn set_free_end(&mut self, v: u16) {
        self.bytes[14..16].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let at = PAGE_HEADER + i as usize * SLOT_SIZE;
        (
            u16::from_le_bytes(self.bytes[at..at + 2].try_into().unwrap()),
            u16::from_le_bytes(self.bytes[at + 2..at + 4].try_into().unwrap()),
        )
    }

    fn set_slot(&mut self, i: u16, offset: u16, len: u16) {
        let at = PAGE_HEADER + i as usize * SLOT_SIZE;
        self.bytes[at..at + 2].copy_from_slice(&offset.to_le_bytes());
        self.bytes[at + 2..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Contiguous free bytes between the slot array and the record data.
    pub fn free_space(&self) -> usize {
        self.free_end() as usize - (PAGE_HEADER + self.slot_count() as usize * SLOT_SIZE)
    }

    /// True iff a record of `len` bytes (plus its slot) fits.
    pub fn can_fit(&self, len: usize) -> bool {
        len < TOMBSTONE as usize && len + SLOT_SIZE <= self.free_space()
    }

    /// Largest record a fresh page of `page_size` can hold — the upper
    /// bound callers validate encoded records against.
    pub fn max_record(page_size: usize) -> usize {
        page_size - PAGE_HEADER - PAGE_TRAILER - SLOT_SIZE
    }

    /// Appends a record, returning its slot index (`None` if it does not
    /// fit — the caller opens a fresh page).
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if !self.can_fit(record.len()) {
            return None;
        }
        let slot = self.slot_count();
        let off = self.free_end() - record.len() as u16;
        self.bytes[off as usize..off as usize + record.len()].copy_from_slice(record);
        self.set_free_end(off);
        self.set_slot_count(slot + 1);
        self.set_slot(slot, off, record.len() as u16);
        Some(slot)
    }

    /// The record in `slot`; `None` if the slot is tombstoned.
    pub fn get(&self, slot: u16) -> DbResult<Option<&[u8]>> {
        if slot >= self.slot_count() {
            return Err(DbError::Storage(format!(
                "slot {slot} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return Ok(None);
        }
        Ok(Some(&self.bytes[off as usize..off as usize + len as usize]))
    }

    /// Marks `slot` deleted. The record bytes stay where they are —
    /// fullness must remain a function of the insert history alone.
    pub fn tombstone(&mut self, slot: u16) -> DbResult<()> {
        if slot >= self.slot_count() {
            return Err(DbError::Storage(format!(
                "tombstone: slot {slot} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let (_, len) = self.slot(slot);
        self.set_slot(slot, TOMBSTONE, len);
        Ok(())
    }

    /// Overwrites `slot` with a same-length record (directory entries
    /// are fixed-size, so positional updates never move).
    pub fn update_in_place(&mut self, slot: u16, record: &[u8]) -> DbResult<()> {
        if slot >= self.slot_count() {
            return Err(DbError::Storage(format!(
                "update: slot {slot} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE || len as usize != record.len() {
            return Err(DbError::Storage(format!(
                "update: slot {slot} holds {len} bytes, got {}",
                record.len()
            )));
        }
        self.bytes[off as usize..off as usize + record.len()].copy_from_slice(record);
        Ok(())
    }

    /// Removes the most recently inserted slot, reclaiming its space
    /// (the directory's pop when a swap-remove shrinks the relation).
    /// The last slot must be live and must be the last record inserted.
    pub fn pop_last(&mut self) -> DbResult<Vec<u8>> {
        let count = self.slot_count();
        if count == 0 {
            return Err(DbError::Storage("pop_last on empty page".into()));
        }
        let (off, len) = self.slot(count - 1);
        if off == TOMBSTONE || off != self.free_end() {
            return Err(DbError::Storage("pop_last: last slot not poppable".into()));
        }
        let rec = self.bytes[off as usize..(off + len) as usize].to_vec();
        // zero the vacated region so page images stay deterministic
        self.bytes[off as usize..(off + len) as usize].fill(0);
        self.set_free_end(off + len);
        self.set_slot_count(count - 1);
        self.set_slot(count - 1, 0, 0);
        Ok(rec)
    }

    /// Recomputes the CRC trailer and returns the full image, ready for
    /// `write_at`.
    pub fn sealed_bytes(&mut self) -> &[u8] {
        let body_len = self.bytes.len() - PAGE_TRAILER;
        let crc = crc32(&self.bytes[..body_len]);
        self.bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 256;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new(PS);
        assert_eq!(p.slot_count(), 0);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.get(0).unwrap(), Some(&b"alpha"[..]));
        assert_eq!(p.get(1).unwrap(), Some(&b"beta"[..]));
        assert!(p.get(2).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new(PS);
        let rec = [7u8; 32];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        assert!(n > 0);
        assert!(!p.can_fit(32));
        assert!(p.can_fit(p.free_space() - SLOT_SIZE));
        // everything inserted still reads back
        for i in 0..n {
            assert_eq!(p.get(i as u16).unwrap(), Some(&rec[..]));
        }
    }

    #[test]
    fn tombstone_hides_but_keeps_space() {
        let mut p = Page::new(PS);
        p.insert(b"dead").unwrap();
        p.insert(b"live").unwrap();
        let free = p.free_space();
        p.tombstone(0).unwrap();
        assert_eq!(p.get(0).unwrap(), None);
        assert_eq!(p.get(1).unwrap(), Some(&b"live"[..]));
        assert_eq!(p.free_space(), free, "tombstoning must not reclaim");
    }

    #[test]
    fn update_in_place_same_len_only() {
        let mut p = Page::new(PS);
        p.insert(b"12345678").unwrap();
        p.update_in_place(0, b"abcdefgh").unwrap();
        assert_eq!(p.get(0).unwrap(), Some(&b"abcdefgh"[..]));
        assert!(p.update_in_place(0, b"short").is_err());
        p.tombstone(0).unwrap();
        assert!(p.update_in_place(0, b"abcdefgh").is_err());
    }

    #[test]
    fn pop_last_reclaims() {
        let mut p = Page::new(PS);
        p.insert(b"keep").unwrap();
        p.insert(b"pop!").unwrap();
        let free = p.free_space();
        assert_eq!(p.pop_last().unwrap(), b"pop!");
        assert_eq!(p.slot_count(), 1);
        assert_eq!(p.free_space(), free + 4 + SLOT_SIZE);
        assert_eq!(p.get(0).unwrap(), Some(&b"keep"[..]));
        // push-pop-push produces the identical image (redo determinism)
        let mut q = Page::new(PS);
        q.insert(b"keep").unwrap();
        let mut with_pop = q.clone();
        with_pop.insert(b"pop!").unwrap();
        with_pop.pop_last().unwrap();
        assert_eq!(q.sealed_bytes(), with_pop.sealed_bytes());
    }

    #[test]
    fn seal_load_roundtrip() {
        let mut p = Page::new(PS);
        p.insert(b"persist me").unwrap();
        p.stamp_lsn(42);
        let bytes = p.sealed_bytes().to_vec();
        let q = Page::from_bytes(bytes, PS).unwrap();
        assert_eq!(q.lsn(), 42);
        assert_eq!(q.get(0).unwrap(), Some(&b"persist me"[..]));
        assert_eq!(p, q);
    }

    #[test]
    fn lsn_stamp_is_monotone() {
        let mut p = Page::new(PS);
        p.stamp_lsn(10);
        p.stamp_lsn(5); // older mutation must not move the stamp back
        assert_eq!(p.lsn(), 10);
    }

    #[test]
    fn corruption_detected_on_load() {
        let mut p = Page::new(PS);
        p.insert(b"record").unwrap();
        let good = p.sealed_bytes().to_vec();

        let mut flipped = good.clone();
        flipped[PS / 2] ^= 0xFF;
        assert!(Page::from_bytes(flipped, PS).is_err(), "CRC must catch bit rot");

        assert!(Page::from_bytes(good[..PS - 1].to_vec(), PS).is_err(), "short page");

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Page::from_bytes(bad_magic, PS).is_err());

        assert!(Page::from_bytes(good, PS).is_ok());
    }

    #[test]
    fn torn_half_old_half_new_fails_crc() {
        // the shadow-paging rationale: a torn write mixing two sealed
        // images must never verify
        let mut a = Page::new(PS);
        a.insert(b"version one").unwrap();
        let old = a.sealed_bytes().to_vec();
        let mut b = Page::new(PS);
        b.insert(b"version one").unwrap();
        b.insert(b"version two").unwrap();
        let new = b.sealed_bytes().to_vec();
        for cut in [1, PS / 4, PS / 2, PS - 5] {
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(&old[cut..]);
            if torn != old && torn != new {
                assert!(Page::from_bytes(torn, PS).is_err(), "cut {cut}");
            }
        }
    }
}
