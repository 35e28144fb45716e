//! Per-connection session state and the nonblocking request pump.
//!
//! Each session *pins* an epoch-stamped catalog snapshot (an `Arc`
//! into the [`EpochCell`][tagstore::EpochCell]), owns its own
//! prepared-statement cache, and holds the quality profile bound by
//! the client's `Hello`. The hot path for a request is: pop frame →
//! cache-hit plan → execute against the pinned snapshot — no lock is
//! taken anywhere; the only shared access is one lock-free atomic
//! load of the published epoch to decide whether the pin is current.
//! Sessions re-pin (one `Arc` clone under a short read lock) only
//! when a writer has published a new epoch, recording how many epochs
//! behind they were as `mvcc.snapshot_lag`.

use crate::protocol::{self, Request, Response};
use crate::server::SharedCatalog;
use dq_core::profiles::UserProfile;
use dq_query::{PlanCache, QualityDefaultsProvider, QueryCatalog, QueryResult};
use relstore::{DbResult, Expr};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use tagstore::Stamped;

/// Renders a [`QueryResult`] to the string the protocol ships — the
/// same deterministic rendering an embedded caller gets from
/// `to_paper_table()`, which is what makes byte-identical
/// client/embedded parity testable.
pub fn render_result(result: &QueryResult) -> String {
    match result {
        QueryResult::Table(rel) => rel.to_paper_table(),
        QueryResult::Inspection { report, .. } => report.clone(),
        QueryResult::Explain { report, rows: None } => report.clone(),
        QueryResult::Explain {
            report,
            rows: Some(rel),
        } => format!("{report}\n{}", rel.to_paper_table()),
    }
}

/// True when the statement must run on the master catalog copy (it
/// mutates): currently only `TAG`. Decided by the lexer's first token,
/// the same thing the parser dispatches on, so any spelling `run_mut`
/// accepts as a `TAG` (`"tag\n…"`, `"TAG\t…"`, a leading comment) is
/// routed as one.
pub fn is_write_statement(sql: &str) -> bool {
    matches!(
        dq_query::token::first_token(sql),
        Some(dq_query::token::Token::Ident(kw)) if kw.eq_ignore_ascii_case("TAG")
    )
}

/// The session's [`QualityDefaultsProvider`]: resolves the bound
/// profile's standards against each table's schema and dictionary at
/// prepare time (standards over columns the table lacks, or indicators
/// its dictionary does not declare, are skipped).
#[derive(Debug, Default)]
struct SessionDefaults {
    profile: Option<UserProfile>,
}

impl QualityDefaultsProvider for SessionDefaults {
    fn default_quality(&self, catalog: &QueryCatalog, table: &str) -> Option<Expr> {
        let profile = self.profile.as_ref()?;
        let (schema, dictionary) = catalog.schema_and_dictionary(table).ok()?;
        profile.default_quality_for(&schema, &dictionary)
    }

    fn cache_key(&self) -> &str {
        self.profile.as_ref().map(|p| p.user.as_str()).unwrap_or("")
    }
}

/// One client connection multiplexed on a worker thread.
pub(crate) struct Session {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already flushed to the socket.
    written: usize,
    /// The pinned epoch snapshot this session reads from.
    pin: Arc<Stamped<QueryCatalog>>,
    cache: PlanCache,
    defaults: SessionDefaults,
    /// Set on EOF or protocol error; the worker drops the session.
    pub(crate) closed: bool,
}

impl Session {
    pub(crate) fn new(
        stream: TcpStream,
        shared: &SharedCatalog,
        stmt_cache_capacity: usize,
    ) -> std::io::Result<Session> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        dq_obs::counter!("server.connections").incr();
        Ok(Session {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pin: shared.pin(),
            cache: PlanCache::new(stmt_cache_capacity),
            defaults: SessionDefaults::default(),
            closed: false,
        })
    }

    /// Re-pins the published snapshot when a writer has moved the
    /// epoch since this session last looked (one lock-free atomic
    /// load on the already-current path).
    fn refresh_pin(&mut self, shared: &SharedCatalog) {
        let published = shared.published_epoch();
        if self.pin.epoch() != published {
            let fresh = shared.pin();
            dq_obs::histogram!("mvcc.snapshot_lag")
                .record_us(fresh.epoch().saturating_sub(self.pin.epoch()));
            self.pin = fresh;
        }
    }

    /// One multiplexing step: flush pending output, read what's
    /// available, answer every complete frame. Returns `true` when any
    /// byte moved (the worker sleeps only when every session is idle).
    pub(crate) fn pump(&mut self, shared: &SharedCatalog) -> bool {
        let mut progress = self.flush();
        progress |= self.fill();
        loop {
            match protocol::try_unframe(&mut self.read_buf) {
                Ok(Some(payload)) => {
                    progress = true;
                    let response = self.handle_payload(&payload, shared);
                    self.write_buf
                        .extend_from_slice(&protocol::frame(&response.encode()));
                }
                Ok(None) => break,
                Err(err) => {
                    // Framing is unrecoverable on a byte stream: report
                    // once (best effort) and drop the connection.
                    dq_obs::counter!("server.protocol_errors").incr();
                    let resp = Response::Err {
                        message: format!("protocol error: {err}"),
                    };
                    self.write_buf
                        .extend_from_slice(&protocol::frame(&resp.encode()));
                    self.flush();
                    self.closed = true;
                    return true;
                }
            }
        }
        progress |= self.flush();
        progress
    }

    /// Decode a request, refresh the snapshot if a writer published a
    /// newer catalog, execute, and render.
    fn handle_payload(&mut self, payload: &[u8], shared: &SharedCatalog) -> Response {
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                return Response::Err {
                    message: format!("bad request: {e}"),
                }
            }
        };
        dq_obs::counter!("server.requests").incr();
        match request {
            Request::Ping => Response::Pong,
            Request::Hello { profile_json } => {
                if profile_json.is_empty() {
                    self.defaults = SessionDefaults::default();
                    // a rebind changes the ambient defaults → cached
                    // plans keyed on the old profile no longer apply
                    self.cache.clear();
                    return Response::Pong;
                }
                match serde_json::from_str::<UserProfile>(&profile_json) {
                    Ok(profile) => {
                        self.defaults = SessionDefaults {
                            profile: Some(profile),
                        };
                        self.cache.clear();
                        Response::Pong
                    }
                    Err(e) => Response::Err {
                        message: format!("bad profile: {e}"),
                    },
                }
            }
            Request::Query { sql } => {
                let span = dq_obs::histogram!("server.request_us").start();
                let resp = self.run_query(&sql, shared);
                drop(span);
                if matches!(resp, Response::Err { .. }) {
                    dq_obs::counter!("server.errors").incr();
                }
                resp
            }
        }
    }

    /// Answers one statement. A panic anywhere in prepare, execute or
    /// render is this request's error, not the worker's: it is answered
    /// as `internal error: …`, counted as `server.request_panics`, and
    /// the statement's cached plan is evicted. The session stays open —
    /// its pin is an immutable snapshot the panic cannot have torn.
    fn run_query(&mut self, sql: &str, shared: &SharedCatalog) -> Response {
        match panic::catch_unwind(AssertUnwindSafe(|| self.answer(sql, shared))) {
            Ok(Ok(body)) => Response::Ok { body },
            Ok(Err(e)) => Response::Err {
                message: e.to_string(),
            },
            Err(payload) => {
                dq_obs::counter!("server.request_panics").incr();
                self.cache.evict(sql, &self.defaults);
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("panic");
                Response::Err {
                    message: format!("internal error: {what}"),
                }
            }
        }
    }

    fn answer(&mut self, sql: &str, shared: &SharedCatalog) -> DbResult<String> {
        // One atomic load; re-pin only when a writer moved the epoch
        // since this session last looked.
        self.refresh_pin(shared);
        let result = if is_write_statement(sql) {
            // Prepare (parse, mask evaluation, copy-on-write tag
            // columns) against this session's pin outside any lock;
            // only apply+WAL+publish serialize.
            let prepared = {
                let _t = dq_obs::histogram!("server.write.prepare_us").start();
                dq_query::prepare_write(self.pin.value(), sql)
            };
            let written = prepared.and_then(|w| {
                let _t = dq_obs::histogram!("server.write.commit_us").start();
                shared.commit_write(w)
            });
            // Read-your-writes: pick up the epoch just published. This
            // releases the superseded pin, and the last session to let
            // go of a snapshot pays for dropping its relation.
            let _t = dq_obs::histogram!("server.write.repin_us").start();
            self.refresh_pin(shared);
            written
        } else {
            // Zero-lock hot path: cached plan, pinned snapshot.
            self.cache.execute(self.pin.value(), sql, &self.defaults)
        };
        result.map(|res| render_result(&res))
    }

    /// Nonblocking write of buffered output.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        progress
    }

    /// Nonblocking read of whatever the socket has.
    fn fill(&mut self) -> bool {
        let mut progress = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        progress
    }
}
