//! The accept loop, worker pool, and MVCC catalog publication.
//!
//! Topology: one accept thread hands fresh connections round-robin to
//! `workers` session threads over channels; each worker multiplexes all
//! of its sessions with a nonblocking pump (read → frame → execute →
//! write), sleeping briefly only when every one of its sessions is
//! idle. This serves many more connections than threads — 64 simulated
//! clients run fine on a 2-worker pool — without an async runtime,
//! which the offline build cannot pull in.
//!
//! Concurrency model (see DESIGN.md §14): the catalog lives in an
//! epoch-stamped [`EpochCell`]. Readers pin the published snapshot at
//! statement start — one lock-free atomic load to detect staleness,
//! one short read-lock `Arc` clone to re-pin — and never observe a
//! torn write. Writers prepare the whole statement against their own
//! pinned snapshot *outside* any lock, then serialize only the
//! apply+publish tail through [`SharedCatalog::commit_write`]. When
//! the server fronts a [`DurableDb`], the WAL commit happens inside
//! that same tail and the WAL's epoch counter is the floor for the
//! published epoch, so a restart resumes the same epoch line.

use crate::session::Session;
use dq_query::{PagedProvider, PagedScanStats, QueryCatalog, QueryResult, TagWrite};
use dq_storage::DurableDb;
use relstore::{DbError, DbResult, Expr, Schema};
use tagstore::TaggedRelation;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tagstore::{EpochCell, IndicatorDictionary, Stamped};

/// How long an idle worker / accept thread sleeps before re-polling.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads multiplexing sessions.
    pub workers: usize,
    /// Per-session prepared-statement cache capacity.
    pub stmt_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            stmt_cache_capacity: 256,
        }
    }
}

/// `m`'s guard, or an error when a panic poisoned it: a request on a
/// poisoned lock fails, it does not take its worker down too.
fn lock<T>(m: &Mutex<T>) -> DbResult<MutexGuard<'_, T>> {
    m.lock()
        .map_err(|_| DbError::Storage("lock poisoned by an earlier panic".into()))
}

/// The single mutable state writers serialize on: the master catalog
/// copy and, for durable servers, the WAL-backed database it mirrors.
///
/// The database sits behind its own mutex (shared with every
/// registered [`PagedTable`] provider) so paged reads need only the
/// db lock, never the master lock. Writers take master → db in that
/// order; providers take db alone, so the ordering is acyclic.
#[derive(Debug)]
struct WriterState {
    catalog: QueryCatalog,
    db: Option<Arc<Mutex<DurableDb>>>,
}

/// A paged relation served straight off the durable database's buffer
/// pool. Registered into the catalog by [`SharedCatalog::with_db`] for
/// every `db.paged_names()` entry; each call locks the shared database
/// for exactly one storage operation, so sessions on other workers
/// interleave page-at-a-time rather than query-at-a-time.
#[derive(Debug)]
struct PagedTable {
    name: String,
    db: Arc<Mutex<DurableDb>>,
}

impl PagedProvider for PagedTable {
    fn schema(&self) -> DbResult<Schema> {
        Ok(lock(&self.db)?.paged_schema(&self.name)?.clone())
    }

    fn dictionary(&self) -> DbResult<IndicatorDictionary> {
        Ok(lock(&self.db)?.paged_dictionary(&self.name)?.clone())
    }

    fn row_count(&self) -> DbResult<u64> {
        lock(&self.db)?.paged_len(&self.name)
    }

    fn scan(&self) -> DbResult<TaggedRelation> {
        lock(&self.db)?.paged_to_relation(&self.name)
    }

    fn select(&self, predicate: &Expr) -> DbResult<TaggedRelation> {
        lock(&self.db)?.paged_select(&self.name, predicate)
    }

    fn select_indexed(&self, predicate: &Expr) -> DbResult<(TaggedRelation, PagedScanStats)> {
        let (rel, stats) = lock(&self.db)?.paged_select_indexed(&self.name, predicate)?;
        Ok((
            rel,
            PagedScanStats {
                pages_read: stats.pages_read,
                pool_hits: stats.pool_hits,
                candidate_pages: stats.candidate_pages,
            },
        ))
    }

    fn access_estimate(&self, predicate: &Expr) -> Option<(Vec<String>, f64)> {
        lock(&self.db)
            .ok()?
            .paged_access_estimate(&self.name, predicate)
            .ok()
            .flatten()
    }
}

/// The master catalog plus its published epoch snapshot.
///
/// `master` is the single mutable copy writers update; `published` is
/// the immutable epoch-stamped snapshot every reader pins. The read
/// hot path touches one lock-free atomic ([`published_epoch`]) per
/// request to decide whether to re-pin; re-pinning is one `Arc` clone
/// under a short read lock.
///
/// [`published_epoch`]: SharedCatalog::published_epoch
#[derive(Debug)]
pub struct SharedCatalog {
    master: Mutex<WriterState>,
    published: EpochCell<QueryCatalog>,
}

impl SharedCatalog {
    /// Wraps an in-memory catalog for serving.
    pub fn new(catalog: QueryCatalog) -> Self {
        let published = EpochCell::new(catalog.snapshot());
        SharedCatalog {
            master: Mutex::new(WriterState { catalog, db: None }),
            published,
        }
    }

    /// Wraps a recovered durable database: the served catalog is built
    /// from every tagged relation in `db`, and the published epoch
    /// starts at the WAL's recovered epoch so the snapshot line
    /// continues across restarts.
    pub fn with_db(db: DurableDb) -> DbResult<Self> {
        let mut catalog = QueryCatalog::new();
        let names: Vec<String> = db.tagged_names().iter().map(|n| n.to_string()).collect();
        for name in names {
            let rel = db.tagged(&name)?.clone();
            catalog.register(name, rel);
        }
        let epoch = db.epoch();
        let db = Arc::new(Mutex::new(db));
        // Paged relations stay on disk: the catalog gets a provider
        // that routes each access through the shared buffer pool.
        let paged: Vec<String> = lock(&db)?
            .paged_names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        for name in paged {
            let provider = PagedTable {
                name: name.clone(),
                db: Arc::clone(&db),
            };
            catalog.register_paged(name, Arc::new(provider));
        }
        let published = EpochCell::with_epoch(epoch, catalog.snapshot());
        Ok(SharedCatalog {
            master: Mutex::new(WriterState {
                catalog,
                db: Some(db),
            }),
            published,
        })
    }

    /// The epoch of the most recently published snapshot (lock-free).
    pub fn published_epoch(&self) -> u64 {
        self.published.published_epoch()
    }

    /// Pins the published snapshot: the returned `Arc` keeps that
    /// epoch's catalog alive for as long as the caller holds it,
    /// regardless of how many writers publish after.
    pub fn pin(&self) -> Arc<Stamped<QueryCatalog>> {
        self.published.pin()
    }

    /// A read snapshot of the published catalog (cheap: `Arc` clones).
    pub fn snapshot(&self) -> QueryCatalog {
        self.pin().value().snapshot()
    }

    /// Runs a mutation against the master copy and publishes a new
    /// epoch. This is the out-of-band registration door (`publish(|c|
    /// c.register(..))`); `TAG` statements go through [`commit_write`]
    /// instead.
    ///
    /// Mutations here reach only the in-memory catalog, not the WAL.
    ///
    /// [`commit_write`]: SharedCatalog::commit_write
    pub fn publish<R>(&self, mutate: impl FnOnce(&mut QueryCatalog) -> R) -> DbResult<R> {
        let wait = Instant::now();
        let mut ws = lock(&self.master)?;
        dq_obs::histogram!("mvcc.writer_wait_us").record(wait.elapsed());
        let out = mutate(&mut ws.catalog);
        self.publish_locked(&ws)?;
        Ok(out)
    }

    /// Applies a prepared [`TagWrite`] and publishes the result — the
    /// narrow MVCC writer tail. Everything expensive (parse, mask
    /// evaluation, tag-column copy-on-write) already happened in
    /// [`dq_query::prepare_write`] against the writer's pinned
    /// snapshot; this holds the master lock only for apply + WAL
    /// commit + publish.
    pub fn commit_write(&self, write: TagWrite) -> DbResult<QueryResult> {
        let wait = Instant::now();
        let mut ws = lock(&self.master)?;
        dq_obs::histogram!("mvcc.writer_wait_us").record(wait.elapsed());
        let result = match ws.db.clone() {
            Some(db) => {
                // Durable path: stage the catalog apply on a scratch
                // copy first, then log and commit the same cell tags
                // before the database's relation takes them, so a WAL
                // error publishes nothing and changes nothing.
                let table = write.table().to_owned();
                let mut tags: Vec<_> = write.tags().to_vec();
                let mut next = ws.catalog.clone();
                let staged = write.apply(&mut next);
                let logged = staged.and_then(|res| {
                    let mut db = lock(&db)?;
                    // Rows past the end were skipped by the catalog-side
                    // conflict re-apply too.
                    let len = db.tagged(&table)?.len();
                    tags.retain(|(row, ..)| *row < len);
                    db.tag_cells(&table, &tags)?;
                    Ok(res)
                });
                if logged.is_ok() {
                    ws.catalog = next;
                }
                logged
            }
            None => write.apply(&mut ws.catalog),
        };
        if result.is_ok() {
            self.publish_locked(&ws)?;
        }
        result
    }

    /// Publishes the master catalog as a new epoch snapshot. The WAL
    /// epoch (when present) floors the published epoch so the two
    /// counters stay on one line across restarts.
    fn publish_locked(&self, ws: &WriterState) -> DbResult<()> {
        let floor = match &ws.db {
            Some(db) => lock(db)?.epoch(),
            None => 0,
        };
        self.published.publish_at(ws.catalog.snapshot(), floor);
        Ok(())
    }
}

/// A running server; dropping it shuts the server down and joins every
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<SharedCatalog>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared catalog, e.g. for out-of-band registration:
    /// `handle.catalog().publish(|c| c.register("t", rel))`.
    pub fn catalog(&self) -> &SharedCatalog {
        &self.shared
    }

    /// Signals shutdown and joins the accept + worker threads. Open
    /// connections are dropped.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds and serves `catalog` until the handle is shut down.
pub fn start(config: ServerConfig, catalog: QueryCatalog) -> std::io::Result<ServerHandle> {
    start_shared(config, Arc::new(SharedCatalog::new(catalog)))
}

/// Binds and serves a recovered durable database: `TAG` statements
/// reach the WAL (group-committed per statement) and the published
/// epoch resumes from the recovered one.
pub fn start_durable(config: ServerConfig, db: DurableDb) -> std::io::Result<ServerHandle> {
    let shared = SharedCatalog::with_db(db)
        .map_err(|e| std::io::Error::other(format!("durable catalog: {e}")))?;
    start_shared(config, Arc::new(shared))
}

fn start_shared(config: ServerConfig, shared: Arc<SharedCatalog>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = config.workers.max(1);
    let mut threads = Vec::with_capacity(workers + 1);
    let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(workers);

    for i in 0..workers {
        let (tx, rx) = channel::<TcpStream>();
        senders.push(tx);
        let shared = Arc::clone(&shared);
        let shutdown = Arc::clone(&shutdown);
        let capacity = config.stmt_cache_capacity;
        threads.push(
            std::thread::Builder::new()
                .name(format!("dq-server-worker-{i}"))
                .spawn(move || worker_loop(rx, shared, shutdown, capacity))?,
        );
    }

    {
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name("dq-server-accept".into())
                .spawn(move || accept_loop(listener, senders, shutdown))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        shutdown,
        threads,
    })
}

fn accept_loop(
    listener: TcpListener,
    mut senders: Vec<Sender<TcpStream>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) && !senders.is_empty() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Round-robin: each worker multiplexes its share. A worker
                // that has exited leaves the rotation, counted; the rest
                // keep serving.
                while !senders.is_empty() {
                    let i = next % senders.len();
                    match senders[i].send(stream) {
                        Ok(()) => {
                            next = next.wrapping_add(1);
                            break;
                        }
                        Err(SendError(back)) => {
                            dq_obs::counter!("server.worker_exits").incr();
                            senders.remove(i);
                            stream = back;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_SLEEP);
            }
            Err(_) => std::thread::sleep(IDLE_SLEEP),
        }
    }
}

fn worker_loop(
    incoming: Receiver<TcpStream>,
    shared: Arc<SharedCatalog>,
    shutdown: Arc<AtomicBool>,
    stmt_cache_capacity: usize,
) {
    let mut sessions: Vec<Session> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        while let Ok(stream) = incoming.try_recv() {
            match Session::new(stream, &shared, stmt_cache_capacity) {
                Ok(s) => sessions.push(s),
                Err(_) => dq_obs::counter!("server.accept_errors").incr(),
            }
        }
        let mut progress = false;
        sessions.retain_mut(|s| {
            progress |= s.pump(&shared);
            !s.closed
        });
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientError};

    /// A paged table whose every read panics.
    #[derive(Debug)]
    struct Boom;

    impl PagedProvider for Boom {
        fn schema(&self) -> DbResult<Schema> {
            Ok(Schema::of(&[("x", relstore::DataType::Int)]))
        }
        fn dictionary(&self) -> DbResult<IndicatorDictionary> {
            Ok(IndicatorDictionary::new())
        }
        fn row_count(&self) -> DbResult<u64> {
            Ok(0)
        }
        fn scan(&self) -> DbResult<TaggedRelation> {
            panic!("boom")
        }
        fn select(&self, _: &Expr) -> DbResult<TaggedRelation> {
            panic!("boom")
        }
        fn select_indexed(&self, _: &Expr) -> DbResult<(TaggedRelation, PagedScanStats)> {
            panic!("boom")
        }
        fn access_estimate(&self, _: &Expr) -> Option<(Vec<String>, f64)> {
            None
        }
    }

    /// A durable `TAG` whose WAL commit fails changes nothing: right
    /// after the failure the database's relation equals the served one,
    /// and a later good `TAG`, a checkpoint and a crash leave the failed
    /// cell untagged and the good one tagged.
    #[test]
    fn a_failed_durable_tag_stays_undone() {
        use dq_query::prepare_write;
        use dq_storage::{DurableOptions, MemFs};
        use relstore::{DataType, Value};
        use tagstore::QualityCell;
        let fs = MemFs::new();
        let opts = DurableOptions {
            group_commit: true,
            ..DurableOptions::default()
        };
        let (mut db, _) = DurableDb::open(Arc::new(fs.clone()), opts.clone()).unwrap();
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        db.create_tagged("t", schema, IndicatorDictionary::with_paper_defaults()).unwrap();
        for k in 0..4i64 {
            db.push("t", vec![QualityCell::bare(k), QualityCell::bare(k * 10)]).unwrap();
        }
        db.commit().unwrap();
        let shared = SharedCatalog::with_db(db).unwrap();
        let tag = |sql: &str| shared.commit_write(prepare_write(&shared.snapshot(), sql).unwrap());
        let durable = || {
            let ws = lock(&shared.master).unwrap();
            let db = lock(ws.db.as_ref().unwrap()).unwrap();
            db.tagged("t").unwrap().clone()
        };

        fs.set_write_budget(0);
        assert!(tag("TAG t SET v@source = 'lost' WHERE k = 1").is_err());
        fs.clear_write_budget();
        assert_eq!(durable(), *shared.snapshot().get("t").unwrap());
        tag("TAG t SET v@source = 'kept' WHERE k = 2").unwrap();
        assert_eq!(durable(), *shared.snapshot().get("t").unwrap());
        {
            let ws = lock(&shared.master).unwrap();
            lock(ws.db.as_ref().unwrap()).unwrap().checkpoint().unwrap();
        }
        drop(shared);
        fs.crash();

        let (db, _) = DurableDb::open(Arc::new(fs), opts).unwrap();
        let t = db.tagged("t").unwrap();
        assert_eq!(t.cell(1, "v").unwrap().tag_value("source"), Value::Null);
        assert_eq!(t.cell(2, "v").unwrap().tag_value("source"), Value::text("kept"));
    }

    /// A request that panics is answered with an error and counted; the
    /// only worker answers the same session's next frames, and the
    /// accept loop still hands it new connections.
    #[test]
    fn a_panicking_request_leaves_its_worker_serving() {
        let mut catalog = QueryCatalog::new();
        catalog.register_paged("boom", Arc::new(Boom));
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = start(config, catalog).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let panics = dq_obs::counter!("server.request_panics");
        let before = panics.get();
        for sql in ["SELECT * FROM boom", "SELECT * FROM boom WHERE x > 1"] {
            match client.query(sql) {
                Err(ClientError::Server(msg)) => assert_eq!(msg, "internal error: boom", "{sql}"),
                other => panic!("{sql}: expected an internal error, got {other:?}"),
            }
            client.ping().unwrap();
        }
        assert_eq!(panics.get() - before, 2);
        match client.query("SELECT * FROM ghost") {
            Err(ClientError::Server(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected an engine error, got {other:?}"),
        }
        Client::connect(server.addr()).unwrap().ping().unwrap();
    }
}
