//! The traced run: spans recorded from outside the program.
//!
//! After every k-th reply the generator replays that statement
//! in-process, against the server's own published snapshot, through
//! each layer's public functions, and records one span per stage under
//! the wire round trip's span. What the stages do not cover is that
//! request's residual: the server's wake-up, pump and socket path. So
//! stage spans plus residual equal the wire span for every traced
//! request by construction. Stage spans are replays, taken right after
//! the reply: their durations are the measurement, their timestamps lie
//! after the wire span's.
//!
//! Counters are read at the same boundaries: a replay's own counter
//! movement is subtracted, so every count is of wire requests only.

use crate::loadgen::{query_frame, Class, Done};
use crate::metrics::{median, Metrics};
use crate::workload::{expect_of, Stmt};
use dq_obs::Counter;
use dq_query::{
    execute, normalize, parse, prepare_write, NoDefaults, PlanCache, Planner, QueryResult,
};
use dq_server::protocol::{frame, try_unframe, Request, Response};
use dq_server::{render_result, SharedCatalog};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span of the trace file. `parent` 0 marks a wire span. Times are
/// signed because a residual span can end before it starts: the replay
/// took longer than the server did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: i64,
    pub end_ns: i64,
}

pub const WIRE: &str = "wire";
pub const RESIDUAL: &str = "server.wire_residual";

/// The `dq-obs` counters a traced run reads.
const COUNTERS: &[&str] = &[
    "server.requests",
    "server.errors",
    "server.protocol_errors",
    "server.stmt_cache.hits",
    "server.stmt_cache.misses",
    "server.stmt_cache.invalidations",
    "query.rows_out",
    "tagstore.index.rebuilds",
    "tagstore.bitmap.candidate_rows",
    "tagstore.bitmap.gathered_rows",
    "par.threads_spawned",
    "storage.pool.hits",
    "storage.pool.misses",
    "storage.pool.page_reads",
    "storage.pool.evictions",
    "storage.pool.readahead_pages",
    "wal.append.bytes",
    "wal.fsync",
];

fn read_all(counters: &[Arc<Counter>]) -> Vec<u64> {
    counters.iter().map(|c| c.get()).collect()
}

/// Spans and stage samples.
#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The request being replayed: its id, its wire span, and how much
    /// of that span the stages recorded so far cover.
    request_id: u64,
    wire: u64,
    covered_ns: i64,
}

impl Recorder {
    fn ns(&self, t: Instant) -> i64 {
        t.duration_since(self.origin.expect("started")).as_nanos() as i64
    }

    fn span(&mut self, name: &'static str, parent: u64, start: i64, end: i64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request_id: self.request_id,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Opens the wire span of a traced request.
    fn request(&mut self, request_id: u64, sent: Instant, received: Instant) {
        self.request_id = request_id;
        self.covered_ns = 0;
        let (start, end) = (self.ns(sent), self.ns(received));
        self.wire = self.span(WIRE, 0, start, end);
    }

    /// Times `f` as stage `name` and keeps the sample. A stage that is
    /// `part` of the request also gets a span under the wire span.
    fn stage<T>(&mut self, name: &'static str, part: bool, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let us = end.duration_since(start).as_secs_f64() * 1e6;
        self.samples.entry(name).or_default().push(us);
        if part {
            let (s, e) = (self.ns(start), self.ns(end));
            self.span(name, self.wire, s, e);
            self.covered_ns += e - s;
        }
        (out, us)
    }
}

/// Encode, frame, unframe and decode one request, as client and server
/// do between them.
fn request_round_trip(sql: &str) -> Request {
    let mut buf = query_frame(sql);
    let payload = try_unframe(&mut buf).expect("own frame").expect("complete");
    Request::decode(&payload).expect("own payload")
}

fn response_round_trip(body: String) -> Response {
    let mut buf = frame(&Response::Ok { body }.encode());
    let payload = try_unframe(&mut buf).expect("own frame").expect("complete");
    Response::decode(&payload).expect("own payload")
}

pub struct Tracer {
    every: u64,
    rec: Recorder,
    cache: PlanCache,
    planner: Planner,
    counters: Vec<Arc<Counter>>,
    at_start: Vec<u64>,
    /// Counter movement caused by replays.
    excluded: Vec<u64>,
    totals: Vec<u64>,
    /// `server.stmt_cache.misses`, read at every reply.
    misses: Arc<Counter>,
    misses_seen: u64,
    /// Time spent replaying, which the phase's wire time leaves out.
    pub replaying: Duration,
    residual_us: Vec<f64>,
    residual_share: Vec<f64>,
    by_label: BTreeMap<&'static str, Vec<f64>>,
    resp_bytes: u64,
    pub traced: u64,
    /// Replays whose answer differed from the wire's expected one.
    pub replay_mismatches: u64,
}

impl Tracer {
    pub fn new(every: u64) -> Tracer {
        let counters: Vec<Arc<Counter>> = COUNTERS
            .iter()
            .map(|n| dq_obs::registry().counter(n))
            .collect();
        Tracer {
            every,
            rec: Recorder::default(),
            cache: PlanCache::new(1024),
            planner: Planner::default(),
            excluded: vec![0; counters.len()],
            at_start: Vec::new(),
            totals: vec![0; counters.len()],
            counters,
            misses: dq_obs::registry().counter("server.stmt_cache.misses"),
            misses_seen: 0,
            replaying: Duration::ZERO,
            residual_us: Vec::new(),
            residual_share: Vec::new(),
            by_label: BTreeMap::new(),
            resp_bytes: 0,
            traced: 0,
            replay_mismatches: 0,
        }
    }

    fn counter_index(name: &str) -> usize {
        COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("counter `{name}` is not read"))
    }

    /// Marks the start of the traced phase.
    pub fn start(&mut self) {
        self.rec.origin = Some(Instant::now());
        self.at_start = read_all(&self.counters);
        self.misses_seen = self.misses.get();
    }

    /// Marks its end: totals are wire-only from here on.
    pub fn finish(&mut self) {
        let now = read_all(&self.counters);
        for (i, total) in self.totals.iter_mut().enumerate() {
            *total = now[i] - self.at_start[i] - self.excluded[i];
        }
    }

    /// Wire-only movement of a counter over the traced phase.
    pub fn count(&self, name: &str) -> u64 {
        self.totals[Self::counter_index(name)]
    }

    /// The per-reply hook of the traced phase.
    pub fn on_reply(
        &mut self,
        done: Done<'_>,
        stmts: &[Stmt],
        catalog: &SharedCatalog,
        shadow: Option<&SharedCatalog>,
    ) {
        let now = self.misses.get();
        let server_missed = now > self.misses_seen;
        self.misses_seen = now;
        if !done.seq.is_multiple_of(self.every) {
            return;
        }
        let began = Instant::now();
        let before = read_all(&self.counters);

        let stmt = &stmts[done.step.stmt as usize];
        self.rec.request(done.seq + 1, done.sent, done.received);
        self.resp_bytes += done.reply.payload.len() as u64 + 8;
        self.rec.stage("server.protocol.req_frame", true, || {
            request_round_trip(&stmt.sql)
        });
        let body = if done.step.class == Class::Write {
            self.replay_write(&stmt.sql, shadow.expect("a write workload has a shadow"))
        } else {
            self.replay_read(stmt, catalog, server_missed)
        };
        if expect_of(&body) != done.step.expect {
            self.replay_mismatches += 1;
        }
        self.rec.stage("server.protocol.resp_frame", true, || {
            response_round_trip(body)
        });

        // What the stages do not cover is this request's residual.
        let wire = self.rec.spans[self.rec.wire as usize - 1].clone();
        let wire_ns = wire.end_ns - wire.start_ns;
        let residual_ns = wire_ns - self.rec.covered_ns;
        self.rec.span(
            RESIDUAL,
            wire.id,
            wire.start_ns,
            wire.start_ns + residual_ns,
        );
        self.residual_us.push(residual_ns as f64 / 1e3);
        self.residual_share
            .push(residual_ns as f64 / wire_ns.max(1) as f64);
        self.traced += 1;

        let after = read_all(&self.counters);
        for (i, x) in self.excluded.iter_mut().enumerate() {
            *x += after[i] - before[i];
        }
        self.misses_seen = self.misses.get();
        self.replaying += began.elapsed();
    }

    /// Replays a `SELECT`: the stages of a hit when the server hit its
    /// statement cache, those of a miss when it missed. The stages of
    /// the other path are still timed, as samples without a span.
    fn replay_read(&mut self, stmt: &Stmt, catalog: &SharedCatalog, missed: bool) -> String {
        let sql = stmt.sql.as_str();
        let snapshot = catalog.snapshot();
        // One untimed prepare makes the entry warm whatever the
        // generation, so the timed one is a hit. A hit normalizes the
        // text itself; a miss does too, before it parses.
        self.cache
            .prepare(&snapshot, sql, &NoDefaults)
            .expect("a statement the gate passed");
        let (hit, _) = self.rec.stage("qquery.cache.hit", !missed, || {
            self.cache.prepare(&snapshot, sql, &NoDefaults)
        });
        hit.expect("a statement the gate passed");
        self.rec
            .stage("qquery.cache.normalize", missed, || normalize(sql));
        let (parsed, _) = self.rec.stage("qquery.parser.parse", missed, || parse(sql));
        let parsed = parsed.expect("a statement the gate passed");
        let (plan, _) = self.rec.stage("qquery.plan.plan", missed, || {
            self.planner.plan(&parsed, &snapshot)
        });
        let plan = plan.expect("a statement the gate passed");
        let (plan, _) = self.rec.stage("qquery.plan.optimize", missed, || {
            self.planner.optimize(plan, &snapshot)
        });
        let (rel, us) = self
            .rec
            .stage("qquery.exec.execute", true, || execute(&snapshot, &plan));
        if let Some(label) = stmt.label {
            self.by_label.entry(label).or_default().push(us);
        }
        let result = QueryResult::Table(rel.expect("a statement the gate passed"));
        self.rec
            .stage("server.session.render", true, || render_result(&result))
            .0
    }

    /// Replays a `TAG` on the shadow catalog: prepared against the
    /// shadow's own snapshot, so that the apply takes the same
    /// no-conflict path the server's session takes.
    fn replay_write(&mut self, sql: &str, shadow: &SharedCatalog) -> String {
        let snapshot = shadow.snapshot();
        let (write, _) = self.rec.stage("qquery.exec.prepare_write", true, || {
            prepare_write(&snapshot, sql)
        });
        let write = write.expect("a statement the gate passed");
        let (result, _) = self.rec.stage("server.catalog.commit_write", true, || {
            shadow.commit_write(write)
        });
        let result = result.expect("the shadow accepts what the server accepted");
        self.rec
            .stage("server.session.render", true, || render_result(&result))
            .0
    }

    /// p50 of every stage, the residual, and the counter ratios of the
    /// traced phase. `selects` and `writes` are the statements the phase
    /// completed.
    pub fn metrics(&mut self, out: &mut Metrics, writes: u64) {
        for (name, samples) in self.rec.samples.iter_mut() {
            let metric = format!("{name}_us");
            out.set(&metric, median(samples), samples.len());
        }
        for (label, samples) in self.by_label.iter_mut() {
            let metric = format!("qquery.exec.execute_us.{label}");
            out.set(&metric, median(samples), samples.len());
        }
        let n = self.residual_us.len();
        out.set("server.wire_residual_us", median(&mut self.residual_us), n);
        out.set(
            "server.wire_residual_share",
            median(&mut self.residual_share),
            n,
        );
        let per = |num: u64, den: u64| crate::metrics::ratio(num, den);
        let requests = self.count("server.requests");
        let reads = requests.saturating_sub(writes);
        out.set(
            "server.protocol.resp_bytes",
            per(self.resp_bytes, self.traced),
            self.traced as usize,
        );
        let (hits, misses) = (
            self.count("server.stmt_cache.hits"),
            self.count("server.stmt_cache.misses"),
        );
        out.set("server.stmt_cache.hit_rate", per(hits, hits + misses), 0);
        out.set(
            "server.stmt_cache.invalidations_per_write",
            per(self.count("server.stmt_cache.invalidations"), writes),
            0,
        );
        out.set(
            "server.errors",
            (self.count("server.errors") + self.count("server.protocol_errors")) as f64,
            0,
        );
        out.set(
            "qquery.exec.rows_out_per_query",
            per(self.count("query.rows_out"), reads),
            0,
        );
        out.set(
            "tagdb.index.rebuilds_per_write",
            per(self.count("tagstore.index.rebuilds"), writes),
            0,
        );
        out.set(
            "tagdb.bitmap.candidate_rows_per_row_out",
            per(
                self.count("tagstore.bitmap.candidate_rows"),
                self.count("tagstore.bitmap.gathered_rows"),
            ),
            0,
        );
        out.set(
            "reldb.par.threads_spawned_per_query",
            per(self.count("par.threads_spawned"), reads),
            0,
        );
        let (pool_hits, pool_misses) = (
            self.count("storage.pool.hits"),
            self.count("storage.pool.misses"),
        );
        out.set(
            "storage.pool.hit_rate",
            per(pool_hits, pool_hits + pool_misses),
            0,
        );
        for (metric, counter) in [
            (
                "storage.pool.page_reads_per_query",
                "storage.pool.page_reads",
            ),
            ("storage.pool.evictions_per_query", "storage.pool.evictions"),
            (
                "storage.pool.readahead_pages_per_query",
                "storage.pool.readahead_pages",
            ),
        ] {
            out.set(metric, per(self.count(counter), reads), 0);
        }
        out.set(
            "storage.wal.bytes_per_write",
            per(self.count("wal.append.bytes"), writes),
            0,
        );
        out.set(
            "storage.wal.fsyncs_per_write",
            per(self.count("wal.fsync"), writes),
            0,
        );
    }

    /// The p50 budget of the workload, one line: the wire span, and the
    /// parts of it.
    pub fn budget_line(&self, workload: &str) -> String {
        let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.rec.spans {
            let us = (s.end_ns - s.start_ns) as f64 / 1e3;
            parts.entry(s.name).or_default().push(us);
        }
        let mut wire = parts.remove(WIRE).unwrap_or_default();
        let mut line = format!(
            "budget {workload} (p50 us, {} traced requests): wire {:.1} =",
            wire.len(),
            median(&mut wire)
        );
        for (i, (name, samples)) in parts.iter_mut().enumerate() {
            let sep = if i == 0 { "" } else { " +" };
            line.push_str(&format!(
                "{sep} {name} {:.1} (n={})",
                median(samples),
                samples.len()
            ));
        }
        line
    }

    pub fn spans(&self) -> &[Span] {
        &self.rec.spans
    }

    /// Writes the spans, one JSON object per line.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.rec.spans {
            assert!(crate::metrics::valid_name(s.name), "span name `{}`", s.name);
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
