//! `dq-storage` — durable storage for the quality database: write-ahead
//! log, checkpoints, and crash recovery.
//!
//! The ICDE'93 paper's quality database is only useful if the quality
//! indicators survive as long as the data they describe: a cell tag or
//! an audit ("electronic trail") event that vanishes on restart cannot
//! certify anything. This crate adds the durability layer beneath the
//! in-memory engine:
//!
//! * [`wal`] — an append-only, CRC32-framed log with segment rotation
//!   and group commit; every mutation of a tagged relation (its creation,
//!   a pushed row, a cell tag, a removed row) and every audit event
//!   becomes one logical redo record,
//! * [`checkpoint`] — atomic snapshots (tmp + fsync + rename; resident
//!   rows in full, paged relations as page manifests) so recovery replays
//!   a bounded tail instead of the whole history,
//! * [`db`] — [`DurableDb`], the facade that applies a mutation in
//!   memory first and logs it second, and recovers on open: it loads the
//!   newest intact checkpoint, truncates a torn final record and replays
//!   the WAL tail. It builds no index; a paged relation's is built on its
//!   first indexed read,
//! * [`buffer_pool`], [`page`] and [`paged`] — slotted pages behind a
//!   pinning buffer pool, for relations larger than memory,
//! * [`fs`] — the filesystem abstraction, with a fault-injecting
//!   in-memory implementation ([`MemFs`]: short writes, torn tails,
//!   dropped fsyncs) driving the recovery tests,
//! * [`crc`] / [`codec`] — CRC-32 and the binary serialization, both
//!   implemented in-crate (this build is offline).
//!
//! The durability contract is **prefix durability**: after a crash at an
//! arbitrary WAL position, recovery restores exactly the committed
//! prefix of operations — rows, cell tags, audit events — and nothing
//! else. The property tests below check that contract against random
//! operation sequences cut at every kind of byte boundary.
//!
//! ```
//! use dq_storage::{DurableDb, DurableOptions, MemFs};
//! use relstore::{DataType, Schema};
//! use std::sync::Arc;
//! use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell};
//!
//! let disk = MemFs::new();
//! let (mut db, _) = DurableDb::open(Arc::new(disk.clone()), DurableOptions::default()).unwrap();
//! let schema = Schema::of(&[("ticker", DataType::Text)]);
//! db.create_tagged("company", schema, IndicatorDictionary::with_paper_defaults()).unwrap();
//! db.push("company", vec![QualityCell::bare("FRT")]).unwrap();
//! db.tag_cell("company", 0, "ticker", IndicatorValue::new("source", "NYSE")).unwrap();
//!
//! disk.crash(); // power failure
//! let (db, report) = DurableDb::open(Arc::new(disk), DurableOptions::default()).unwrap();
//! assert_eq!(report.replayed_records, 3);
//! let company = db.tagged("company").unwrap();
//! assert_eq!(company.cell(0, "ticker").unwrap().tag_value("source"), "NYSE".into());
//! ```

#![warn(missing_docs)]

pub mod buffer_pool;
pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod db;
pub mod fs;
pub mod page;
pub mod paged;
pub mod record;
pub mod wal;

pub use buffer_pool::{BufferPool, FileId, LogGate, NoGate, MIN_FRAMES, NO_PHYS};
pub use checkpoint::{CheckpointData, PagedSnapshot, TaggedSnapshot};
pub use crc::crc32;
pub use db::{DurableDb, DurableOptions, RecoveryReport};
pub use fs::{Fs, MemFs, StdFs};
pub use page::Page;
pub use paged::PagedRelation;
pub use record::WalRecord;
pub use wal::{Wal, WalOptions};

#[cfg(test)]
mod proptests {
    //! The crash-prefix property: cut the durable WAL bytes anywhere,
    //! recover, and the database equals an in-memory replay of exactly
    //! the operations whose records survived the cut.

    use crate::db::{DurableDb, DurableOptions};
    use crate::fs::{Fs, MemFs};
    use crate::wal::WalOptions;
    use dq_admin::{AuditAction, AuditEvent, AuditTrail};
    use proptest::prelude::*;
    use relstore::{DataType, Date, Expr, Schema, Value};
    use std::sync::Arc;
    use tagstore::{
        ColumnarRelation, IndicatorDictionary, IndicatorValue, QualityCell, QualityIndex,
        TaggedRelation,
    };

    /// The resident indexed σ, as an `IndexScan` runs it: `rel`'s
    /// columnar layout behind `index`, selected, then gathered.
    fn indexed_select(rel: &TaggedRelation, index: &QualityIndex, pred: &Expr) -> TaggedRelation {
        let crel = ColumnarRelation::from_tagged(rel);
        let (sel, ..) = tagstore::selection_indexed_columnar(&crel, index, pred, 1024).unwrap();
        crel.gather(&sel)
    }

    /// One generated operation over the bare relation `t` (the first
    /// three) or the tagged relation `q`. Parameters are interpreted mod
    /// the current state so every op always succeeds (the log only ever
    /// holds operations that succeeded).
    #[derive(Debug, Clone)]
    enum Op {
        Insert(i64, String),
        Retag(usize, String),
        Delete(usize),
        Push(i64, Option<String>),
        TagCell(usize, String),
        SwapRemove(usize),
        Audit(String, i64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0i64..100, "[a-d]{1,3}").prop_map(|(a, s)| Op::Insert(a, s)),
            (0usize..16, "[a-d]{1,3}").prop_map(|(p, s)| Op::Retag(p, s)),
            (0usize..16).prop_map(Op::Delete),
            (0i64..100, prop::option::of("[a-c]")).prop_map(|(v, s)| Op::Push(v, s)),
            (0usize..16, "[a-c]").prop_map(|(p, s)| Op::TagCell(p, s)),
            (0usize..16).prop_map(Op::SwapRemove),
            ("[a-c]", 0i64..100).prop_map(|(w, k)| Op::Audit(w, k)),
        ]
    }

    /// In-memory reference state, snapshotted after every WAL record.
    #[derive(Debug, Clone, PartialEq)]
    struct Shadow {
        t: TaggedRelation,
        q: TaggedRelation,
        audit: Vec<AuditEvent>,
    }

    fn table_schema() -> Schema {
        Schema::of(&[("id", DataType::Int), ("name", DataType::Text)])
    }

    fn tagged_schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])
    }

    /// Applies `ops` through a fresh autocommit [`DurableDb`] over a
    /// [`MemFs`], mirroring every operation onto a pure in-memory
    /// shadow. Returns the disk plus `snapshots[i]` = shadow state after
    /// the first `i` WAL records.
    fn run(ops: &[Op], segment_bytes: usize) -> (MemFs, Vec<Shadow>) {
        let fs = MemFs::new();
        let opts = DurableOptions {
            wal: WalOptions { segment_bytes },
            group_commit: false,
            ..Default::default()
        };
        let (mut db, _) = DurableDb::open(Arc::new(fs.clone()), opts).unwrap();
        let dict = IndicatorDictionary::with_paper_defaults;
        let mut shadow = Shadow {
            t: TaggedRelation::empty(table_schema(), dict()),
            q: TaggedRelation::empty(tagged_schema(), dict()),
            audit: Vec::new(),
        };
        let mut snapshots = vec![shadow.clone()];

        // two DDL records seed the log
        db.create_tagged("t", table_schema(), dict()).unwrap();
        snapshots.push(shadow.clone());
        db.create_tagged(
            "q",
            tagged_schema(),
            IndicatorDictionary::with_paper_defaults(),
        )
        .unwrap();
        snapshots.push(shadow.clone());

        let mut audit_seq = 0u64;
        let mut k_counter = 0i64;
        for op in ops {
            match op.clone() {
                Op::Insert(a, s) => {
                    let row = vec![QualityCell::bare(a), QualityCell::bare(s)];
                    db.push("t", row.clone()).unwrap();
                    shadow.t.push(row).unwrap();
                }
                Op::Retag(p, s) => {
                    if shadow.t.is_empty() {
                        continue;
                    }
                    let p = p % shadow.t.len();
                    let tag = IndicatorValue::new("source", s);
                    db.tag_cell("t", p, "name", tag.clone()).unwrap();
                    shadow.t.tag_cell(p, "name", tag).unwrap();
                }
                Op::Delete(p) => {
                    if shadow.t.is_empty() {
                        continue;
                    }
                    let p = p % shadow.t.len();
                    db.swap_remove("t", p).unwrap();
                    shadow.t.swap_remove(p).unwrap();
                }
                Op::Push(v, src) => {
                    k_counter += 1;
                    let mut cell = QualityCell::bare(v);
                    if let Some(s) = src {
                        cell.set_tag(IndicatorValue::new("source", s));
                    }
                    let row = vec![QualityCell::bare(k_counter), cell];
                    db.push("q", row.clone()).unwrap();
                    shadow.q.push(row).unwrap();
                }
                Op::TagCell(p, s) => {
                    if shadow.q.is_empty() {
                        continue;
                    }
                    let p = p % shadow.q.len();
                    let tag = IndicatorValue::new("source", s);
                    db.tag_cell("q", p, "v", tag.clone()).unwrap();
                    shadow.q.tag_cell(p, "v", tag).unwrap();
                }
                Op::SwapRemove(p) => {
                    if shadow.q.is_empty() {
                        continue;
                    }
                    let p = p % shadow.q.len();
                    db.swap_remove("q", p).unwrap();
                    shadow.q.swap_remove(p).unwrap();
                }
                Op::Audit(who, k) => {
                    let date = Date::parse("10-24-91").unwrap();
                    db.audit(
                        date,
                        who.clone(),
                        AuditAction::Update,
                        "t",
                        vec![Value::Int(k)],
                        None,
                        "touched",
                    )
                    .unwrap();
                    let mut trail = AuditTrail::new();
                    for e in &shadow.audit {
                        trail.replay(e.clone());
                    }
                    trail.record(
                        date,
                        who,
                        AuditAction::Update,
                        "t",
                        vec![Value::Int(k)],
                        None,
                        "touched",
                    );
                    assert_eq!(trail.events().last().unwrap().seq, audit_seq);
                    shadow.audit = trail.events().to_vec();
                    audit_seq += 1;
                }
            }
            snapshots.push(shadow.clone());
        }
        (fs, snapshots)
    }

    /// Counts intact frames in a WAL byte prefix of length `cut`.
    fn frames_within(bytes: &[u8], cut: usize) -> usize {
        let mut off = 0usize;
        let mut n = 0usize;
        while off + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            if off + 8 + len > cut {
                break;
            }
            off += 8 + len;
            n += 1;
        }
        n
    }

    fn reopen(fs: &MemFs) -> (DurableDb, crate::db::RecoveryReport) {
        DurableDb::open(Arc::new(fs.clone()), DurableOptions::default()).unwrap()
    }

    proptest! {
        /// Crash anywhere: cut the single WAL segment at an arbitrary
        /// byte, recover, and the state equals the shadow replay of
        /// exactly the surviving record prefix — rows, cell tags, and
        /// audit events included.
        #[test]
        fn recovery_restores_exactly_the_committed_prefix(
            ops in prop::collection::vec(arb_op(), 1..24),
            cut_frac in 0u64..=1000,
        ) {
            let (fs, snapshots) = run(&ops, 1 << 20); // one segment
            let wal_bytes = fs.read("wal-0000000001.log").unwrap();
            let cut = (wal_bytes.len() as u64 * cut_frac / 1000) as usize;

            let crashed = MemFs::new();
            crashed.write_file("wal-0000000001.log", &wal_bytes[..cut]).unwrap();
            let (db, report) = reopen(&crashed);

            let k = frames_within(&wal_bytes, cut);
            prop_assert_eq!(report.replayed_records, k as u64);
            // autocommit stamps one epoch per record: the recovered
            // epoch counter equals the surviving record count
            prop_assert_eq!(report.epoch, k as u64);
            prop_assert_eq!(db.epoch(), k as u64);
            let expect = &snapshots[k];
            if k >= 1 {
                prop_assert_eq!(db.tagged("t").unwrap(), &expect.t);
            }
            if k >= 2 {
                prop_assert_eq!(db.tagged("q").unwrap(), &expect.q);
            }
            prop_assert_eq!(db.audit_trail().events(), &expect.audit[..]);
        }

        /// With autocommit, a [`MemFs::crash`] (drop everything not yet
        /// fsynced) loses nothing: recovery equals the full replay. The
        /// columnar layout rebuilt from the recovered relation must
        /// round-trip losslessly, build a bitmap index bit-for-bit
        /// identical to the row build (serial and forced-parallel), and
        /// answer indexed quality selections identically to the oracle
        /// at 1, 2, and 8 threads.
        #[test]
        fn crash_after_commit_loses_nothing_and_indexes_agree(
            ops in prop::collection::vec(arb_op(), 1..24),
        ) {
            let (fs, snapshots) = run(&ops, 256); // small segments: force rotation
            fs.crash();
            let (db, _) = reopen(&fs);
            let expect = snapshots.last().unwrap();
            prop_assert_eq!(db.tagged("t").unwrap(), &expect.t);
            prop_assert_eq!(db.audit_trail().events(), &expect.audit[..]);

            let recovered = db.tagged("q").unwrap();
            prop_assert_eq!(recovered, &expect.q);
            let crel = ColumnarRelation::from_tagged(recovered);
            prop_assert_eq!(&crel.to_tagged(), recovered);
            let index = QualityIndex::build(recovered);
            for threads in [1usize, 8] {
                let built = relstore::par::with_thread_count(threads, || crel.build_index());
                prop_assert!(built == index, "columnar index build diverged at {threads} threads");
            }
            let pred = Expr::col("v@source").eq(Expr::lit("a"));
            let reference = dq_oracle::filter(&expect.q, &pred).unwrap();
            for threads in [1usize, 2, 8] {
                let got = relstore::par::with_thread_count(threads, || {
                    indexed_select(recovered, &index, &pred)
                });
                prop_assert!(got == reference, "select mismatch at {threads} threads");
            }
        }
    }

    // ---- paged relations ------------------------------------------------

    /// One generated paged operation; parameters are interpreted mod the
    /// current row count so every op succeeds.
    #[derive(Debug, Clone)]
    enum POp {
        Push(i64, Option<String>),
        Tag(usize, String),
        Remove(usize),
    }

    fn arb_pop() -> impl Strategy<Value = POp> {
        prop_oneof![
            (0i64..100, prop::option::of("[a-c]{1,8}")).prop_map(|(v, s)| POp::Push(v, s)),
            (0i64..100, prop::option::of("[a-c]{1,8}")).prop_map(|(v, s)| POp::Push(v, s)),
            (0usize..32, "[a-c]{1,4}").prop_map(|(p, s)| POp::Tag(p, s)),
            (0usize..32).prop_map(POp::Remove),
        ]
    }

    /// Tiny pages + the minimum pool: generated workloads overflow the
    /// pool after a few dozen rows, so eviction, reload, and the WAL
    /// gate are all on the replayed path.
    fn paged_prop_opts(segment_bytes: usize) -> DurableOptions {
        DurableOptions {
            wal: WalOptions { segment_bytes },
            group_commit: false,
            page_size: 256,
            pool_pages: crate::buffer_pool::MIN_FRAMES,
            readahead: true,
        }
    }

    fn paged_schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Text)])
    }

    fn paged_twin() -> TaggedRelation {
        TaggedRelation::empty(paged_schema(), IndicatorDictionary::with_paper_defaults())
    }

    fn apply_pop(db: &mut DurableDb, twin: &mut TaggedRelation, op: &POp) -> bool {
        match op.clone() {
            POp::Push(v, src) => {
                let mut cell = QualityCell::bare(format!("v{v}"));
                if let Some(s) = src {
                    cell.set_tag(IndicatorValue::new("source", s));
                }
                let row = vec![QualityCell::bare(v), cell];
                db.paged_push("q", row.clone()).unwrap();
                twin.push(row).unwrap();
            }
            POp::Tag(p, s) => {
                if twin.is_empty() {
                    return false;
                }
                let p = p % twin.len();
                let tag = IndicatorValue::new("source", s);
                db.paged_tag_cell("q", p as u64, "v", tag.clone()).unwrap();
                twin.tag_cell(p, "v", tag).unwrap();
            }
            POp::Remove(p) => {
                if twin.is_empty() {
                    return false;
                }
                let p = p % twin.len();
                let got = db.paged_swap_remove("q", p as u64).unwrap();
                let want = twin.swap_remove(p).unwrap();
                assert_eq!(got, want);
            }
        }
        true
    }

    /// Runs `ops` through an autocommit paged relation, returning the
    /// disk and `snapshots[i]` = twin state after the first `i` WAL
    /// records (record 1 is the create).
    fn run_paged(ops: &[POp], segment_bytes: usize) -> (MemFs, Vec<TaggedRelation>) {
        let fs = MemFs::new();
        let (mut db, _) =
            DurableDb::open(Arc::new(fs.clone()), paged_prop_opts(segment_bytes)).unwrap();
        let mut twin = paged_twin();
        let mut snapshots = vec![twin.clone()];
        db.create_paged("q", paged_schema(), IndicatorDictionary::with_paper_defaults())
            .unwrap();
        snapshots.push(twin.clone());
        for op in ops {
            if apply_pop(&mut db, &mut twin, op) {
                snapshots.push(twin.clone());
            }
        }
        (fs, snapshots)
    }

    proptest! {
        /// Crash anywhere in the paged WAL: cut the single segment at an
        /// arbitrary byte, recover (pages rebuilt by deterministic-
        /// placement redo through the same pool), and the relation equals
        /// the twin replay of exactly the surviving record prefix.
        #[test]
        fn paged_recovery_restores_exactly_the_committed_prefix(
            ops in prop::collection::vec(arb_pop(), 1..32),
            cut_frac in 0u64..=1000,
        ) {
            let (fs, snapshots) = run_paged(&ops, 1 << 20); // one segment
            let wal_bytes = fs.read("wal-0000000001.log").unwrap();
            let cut = (wal_bytes.len() as u64 * cut_frac / 1000) as usize;

            let crashed = MemFs::new();
            crashed.write_file("wal-0000000001.log", &wal_bytes[..cut]).unwrap();
            // heap/dir files don't exist on the crashed disk — that's
            // correct: nothing referenced them durably (no checkpoint),
            // so redo must rebuild every page from the log alone
            let (mut db, report) =
                DurableDb::open(Arc::new(crashed.clone()), paged_prop_opts(1 << 20)).unwrap();

            let k = frames_within(&wal_bytes, cut);
            prop_assert_eq!(report.replayed_records, k as u64);
            let expect = &snapshots[k];
            if k >= 1 {
                prop_assert_eq!(db.paged_len("q").unwrap() as usize, expect.len());
                prop_assert_eq!(&db.paged_to_relation("q").unwrap(), expect);
            }
        }

        /// Mid-sequence dirty-page checkpoint + crash: recovery restores
        /// the checkpoint manifest, replays only the tail, and the
        /// relation (materialized and indexed) answers quality selections
        /// identically to the in-memory twin at 1, 2, and 8 threads.
        #[test]
        fn paged_checkpoint_and_crash_lose_nothing(
            ops in prop::collection::vec(arb_pop(), 1..32),
            ckpt_at in 0usize..32,
        ) {
            let fs = MemFs::new();
            let (mut db, _) =
                DurableDb::open(Arc::new(fs.clone()), paged_prop_opts(256)).unwrap();
            let mut twin = paged_twin();
            db.create_paged("q", paged_schema(), IndicatorDictionary::with_paper_defaults())
                .unwrap();
            for (i, op) in ops.iter().enumerate() {
                if i == ckpt_at % ops.len() {
                    db.checkpoint().unwrap();
                }
                apply_pop(&mut db, &mut twin, op);
            }
            drop(db);
            fs.crash();

            let (mut db, _) =
                DurableDb::open(Arc::new(fs.clone()), paged_prop_opts(256)).unwrap();
            let recovered = db.paged_to_relation("q").unwrap();
            prop_assert_eq!(&recovered, &twin);

            let pred = Expr::col("v@source").eq(Expr::lit("a"));
            let reference = dq_oracle::filter(&twin, &pred).unwrap();
            prop_assert_eq!(&db.paged_select("q", &pred).unwrap(), &reference);
            let index = QualityIndex::build(&recovered);
            for threads in [1usize, 2, 8] {
                let got = relstore::par::with_thread_count(threads, || {
                    indexed_select(&recovered, &index, &pred)
                });
                prop_assert!(got == reference, "select mismatch at {threads} threads");
            }
        }

        /// The paged indexed-scan path is invisible: for every generated
        /// history and every predicate shape (tag atom, tag ∧ value
        /// residual, key-hash equality, unindexable value equality) the
        /// bitmap-driven `paged_select_indexed` returns byte-identical
        /// rows to the full paged scan and to the in-memory indexed
        /// path — across pool budgets {MIN_FRAMES, 5%, 100%}, with the
        /// eviction order perturbed by a strided warm-up, readahead both
        /// on and off, at 1, 2, and 8 threads. A crash-prefix cut then
        /// recovers and the lazily rebuilt paged index still agrees with
        /// the surviving twin snapshot.
        #[test]
        fn paged_indexed_scan_matches_scan_and_memory_index_everywhere(
            ops in prop::collection::vec(arb_pop(), 1..32),
            cut_frac in 0u64..=1000,
            stride in 1u64..7,
        ) {
            let (fs, snapshots) = run_paged(&ops, 1 << 20); // one segment
            let full = snapshots.last().unwrap();
            let preds = [
                Expr::col("v@source").eq(Expr::lit("a")),
                Expr::col("v@source")
                    .eq(Expr::lit("a"))
                    .and(Expr::col("k").gt(Expr::lit(50))),
                Expr::col("k").eq(Expr::lit(7)),
                Expr::col("v").eq(Expr::lit("v3")),
            ];
            let references: Vec<TaggedRelation> = preds
                .iter()
                .map(|p| dq_oracle::filter(full, p).unwrap())
                .collect();
            let memory = QualityIndex::build(full);

            let total_pages = {
                let (mut db, _) = DurableDb::open(
                    Arc::new(fs.clone()),
                    paged_prop_opts(1 << 20),
                ).unwrap();
                let (heap, dir) = db.paged_pages("q").unwrap();
                let _ = &mut db;
                (heap + dir) as usize
            };
            let budgets = [
                crate::buffer_pool::MIN_FRAMES,
                (total_pages / 20).max(crate::buffer_pool::MIN_FRAMES),
                total_pages.max(crate::buffer_pool::MIN_FRAMES),
            ];
            for (bi, &pool_pages) in budgets.iter().enumerate() {
                let opts = DurableOptions {
                    pool_pages,
                    readahead: bi != 1, // exercise both prefetch modes
                    ..paged_prop_opts(1 << 20)
                };
                let (mut db, _) = DurableDb::open(Arc::new(fs.clone()), opts).unwrap();
                // Perturb the eviction order: a strided warm-up leaves a
                // different resident set in each budget before the scans.
                let n = db.paged_len("q").unwrap();
                for i in 0..n.min(16) {
                    let _ = db.paged_row("q", (i * stride) % n).unwrap();
                }
                for (pred, reference) in preds.iter().zip(&references) {
                    prop_assert_eq!(&db.paged_select("q", pred).unwrap(), reference);
                    prop_assert_eq!(&indexed_select(full, &memory, pred), reference);
                    for threads in [1usize, 2, 8] {
                        let got = relstore::par::with_thread_count(threads, || {
                            db.paged_select_indexed("q", pred).unwrap().0
                        });
                        prop_assert!(
                            &got == reference,
                            "indexed scan mismatch: budget {pool_pages}, {threads} threads"
                        );
                    }
                }
            }

            // Crash-prefix cut: the paged index is derived state and must
            // rebuild from whatever record prefix survived.
            let wal_bytes = fs.read("wal-0000000001.log").unwrap();
            let cut = (wal_bytes.len() as u64 * cut_frac / 1000) as usize;
            let crashed = MemFs::new();
            crashed.write_file("wal-0000000001.log", &wal_bytes[..cut]).unwrap();
            let (mut db, _) =
                DurableDb::open(Arc::new(crashed.clone()), paged_prop_opts(1 << 20)).unwrap();
            let k = frames_within(&wal_bytes, cut);
            if k >= 1 {
                let expect = &snapshots[k];
                for pred in &preds {
                    let reference = dq_oracle::filter(expect, pred).unwrap();
                    prop_assert_eq!(&db.paged_select_indexed("q", pred).unwrap().0, &reference);
                    prop_assert_eq!(&db.paged_select("q", pred).unwrap(), &reference);
                }
            }
        }

        /// A byte-budgeted checkpoint can die during the dirty-page
        /// flush, the file fsyncs, the manifest write, or the rename —
        /// wherever the budget lands. None of those cuts may corrupt:
        /// recovery always restores exactly the committed operations.
        #[test]
        fn paged_torn_checkpoint_recovers_exactly(
            ops in prop::collection::vec(arb_pop(), 1..24),
            budget in 0usize..4096,
        ) {
            let fs = MemFs::new();
            let (mut db, _) =
                DurableDb::open(Arc::new(fs.clone()), paged_prop_opts(1 << 20)).unwrap();
            let mut twin = paged_twin();
            db.create_paged("q", paged_schema(), IndicatorDictionary::with_paper_defaults())
                .unwrap();
            let half = ops.len() / 2;
            for op in &ops[..half] {
                apply_pop(&mut db, &mut twin, op);
            }
            db.checkpoint().unwrap(); // a committed manifest to protect
            for op in &ops[half..] {
                apply_pop(&mut db, &mut twin, op);
            }
            fs.set_write_budget(budget);
            let _ = db.checkpoint(); // may tear at any byte
            fs.clear_write_budget();
            drop(db);
            fs.crash();

            let (mut db, _) =
                DurableDb::open(Arc::new(fs.clone()), paged_prop_opts(1 << 20)).unwrap();
            prop_assert_eq!(&db.paged_to_relation("q").unwrap(), &twin);
        }
    }
}
