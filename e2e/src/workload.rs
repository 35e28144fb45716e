//! The five workloads: data from `dq_workloads` (the paper's
//! stock-trading example), the statements, the expected answers, and a
//! running server with the gate already passed.
//!
//! Everything random comes from `--seed`; the server only ever sees the
//! generated statements.

use crate::loadgen::{query_frame, Class, Conn, Expect, Step};
use dq_query::{run, run_mut, QueryCatalog};
use dq_server::protocol::{crc32, Response};
use dq_server::{render_result, start, start_durable, ServerConfig, ServerHandle, SharedCatalog};
use dq_storage::{DurableDb, DurableOptions};
use dq_workloads::{
    generate_trading, trade_schema, trade_stream, trading_dictionary, TradingGenConfig,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRtt,
    PointPipelined,
    AnalyticScan,
    PagedLookup,
    TagWriteMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointRtt,
        Workload::PointPipelined,
        Workload::AnalyticScan,
        Workload::PagedLookup,
        Workload::TagWriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRtt => "point_rtt",
            Workload::PointPipelined => "point_pipelined",
            Workload::AnalyticScan => "analytic_scan",
            Workload::PagedLookup => "paged_lookup",
            Workload::TagWriteMix => "tag_write_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight on the one connection.
    pub fn depth(self) -> usize {
        match self {
            Workload::PointPipelined => 16,
            _ => 1,
        }
    }

    /// Whether the client polls for replies (see `loadgen`).
    pub fn polling(self) -> bool {
        self != Workload::AnalyticScan
    }

    pub fn durable(self) -> bool {
        matches!(self, Workload::PagedLookup | Workload::TagWriteMix)
    }

    /// Statements per second the traced phase is sized for. The phase is
    /// a statement count, not a window, so that every counter it reads
    /// is a function of the seed; these are this box's round numbers.
    pub fn nominal_ops_per_s(self) -> u64 {
        match self {
            Workload::PointRtt => 3_000,
            Workload::PointPipelined => 30_000,
            Workload::AnalyticScan => 100,
            Workload::PagedLookup => 1_200,
            Workload::TagWriteMix => 1_000,
        }
    }

    /// Every k-th reply is traced: at least 500 of a 5-second phase,
    /// and k shares no factor with the 10-statement write cycle.
    pub fn trace_every(self) -> u64 {
        match self {
            Workload::PointRtt => 25,
            Workload::PointPipelined => 250,
            Workload::AnalyticScan => 1,
            Workload::PagedLookup => 11,
            Workload::TagWriteMix => 7,
        }
    }
}

/// Data sizes: the declared ones, and small ones for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `company_stock` rows of the point and write workloads.
    pub stock_rows: usize,
    /// `trade` rows of `analytic_scan`.
    pub trade_rows: usize,
    /// `trade_hist` rows and accounts of `paged_lookup`.
    pub hist_rows: usize,
    pub hist_accounts: usize,
    /// Length of the `paged_lookup` statement stream before it repeats.
    pub hist_stream: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        stock_rows: 2_000,
        trade_rows: 20_000,
        hist_rows: 200_000,
        hist_accounts: 20_000,
        hist_stream: 4_096,
    };
    pub const SMOKE: Sizes = Sizes {
        stock_rows: 300,
        trade_rows: 2_000,
        hist_rows: 20_000,
        hist_accounts: 2_000,
        hist_stream: 512,
    };
}

pub const PAGE_SIZE: usize = 16 * 1024;
pub const HIST: &str = "trade_hist";
pub const STOCK: &str = "company_stock";
const HOT_POINTS: usize = 64;
const HOT_ACCOUNTS: usize = 8;
const HOT_WRITES: usize = 8;
/// Distinct tag values a ticker cycles through; the stream repeats
/// after `HOT_WRITES * TAG_VALUES` writes.
const TAG_VALUES: usize = 4;
const READS_PER_WRITE: usize = 9;

const POINT_QUALITY: &str = "share_price@source <> 'manual entry' AND share_price@age <= 40";

/// The four `analytic_scan` statements, by the suffix of their
/// per-statement execute metric.
pub const ANALYTIC: [(&str, &str); 4] = [
    (
        "join_agg",
        "SELECT l.ticker_symbol, COUNT(*) AS n, SUM(quantity) AS net \
         FROM trade JOIN company_stock ON ticker_symbol = ticker_symbol \
         WHERE quantity > 0 \
         WITH QUALITY (share_price@source <> 'manual entry') \
         GROUP BY l.ticker_symbol ORDER BY l.ticker_symbol LIMIT 20",
    ),
    (
        "group_agg",
        "SELECT account_number, COUNT(*) AS n, SUM(quantity) AS net FROM trade \
         WITH QUALITY (quantity@inspection = 'double entry') \
         GROUP BY account_number ORDER BY account_number",
    ),
    (
        "filter_count",
        "SELECT COUNT(*) AS n FROM trade WHERE trade_price > 500.0 \
         WITH QUALITY (quantity@inspection = 'double entry')",
    ),
    (
        "filter_project",
        "SELECT account_number, ticker_symbol, quantity FROM trade WHERE quantity > 900 \
         WITH QUALITY (quantity@inspection = 'double entry')",
    ),
];

/// splitmix64: the statement order's only source of randomness.
struct Rng(u64);

impl Rng {
    fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }

    /// `k` distinct picks from `0..n`, in pick order.
    fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(n) {
            let i = self.below(n);
            if seen.insert(i) {
                out.push(i);
            }
        }
        out
    }
}

/// One distinct statement.
#[derive(Debug)]
pub struct Stmt {
    pub sql: String,
    pub write: bool,
    /// `analytic_scan`'s per-statement label.
    pub label: Option<&'static str>,
}

/// The statement stream of a workload.
#[derive(Debug, Default)]
pub struct Script {
    pub stmts: Vec<Stmt>,
    /// `stmts[i]`, encoded and framed.
    pub frames: Vec<Vec<u8>>,
    /// Sent once before the window: every distinct statement (for the
    /// write mix, one whole period, which brings every tag to the value
    /// the period starts from).
    pub warmup: Vec<u32>,
    /// Repeats until the run stops.
    pub period: Vec<Step>,
}

impl Script {
    fn push(&mut self, sql: String, write: bool, label: Option<&'static str>) -> u32 {
        self.frames.push(query_frame(&sql));
        self.stmts.push(Stmt { sql, write, label });
        (self.stmts.len() - 1) as u32
    }
}

/// A workload set up and warmed: the server is up, the connection is
/// open, the gate has passed.
pub struct Live {
    pub workload: Workload,
    // Field order is drop order: the connection closes before the
    // server joins its threads.
    pub conn: Conn,
    pub server: ServerHandle,
    pub script: Script,
    /// Position in `script.period` of the next statement to send.
    pub pos: usize,
    /// The embedded reference the expected answers came from.
    pub reference: QueryCatalog,
    /// Database directory of a durable workload.
    pub dir: Option<PathBuf>,
    /// A second durable catalog of the same data, where a traced run
    /// replays writes (`tag_write_mix`, traced runs only).
    pub shadow: Option<SharedCatalog>,
    pub rows: u64,
    pub pool_pages: usize,
    /// Time spent inside `dq_workloads` generators.
    pub generate: Duration,
}

fn point_select(ticker: &str) -> String {
    format!("SELECT * FROM {STOCK} WHERE ticker_symbol = '{ticker}' WITH QUALITY ({POINT_QUALITY})")
}

fn hist_select(account: usize) -> String {
    format!(
        "SELECT ticker_symbol, quantity, trade_price FROM {HIST} WHERE account_number = {account} \
         WITH QUALITY (quantity@inspection = 'double entry')"
    )
}

pub fn tag_statement(ticker: &str, value: &str) -> String {
    format!("TAG {STOCK} SET share_price@inspection = '{value}' WHERE ticker_symbol = '{ticker}'")
}

/// Tickers whose row passes the point statements' quality filter, so
/// that every point `SELECT` answers exactly one row whatever the seed.
fn passing_tickers(reference: &QueryCatalog) -> Res<Vec<String>> {
    let sql = format!("SELECT ticker_symbol FROM {STOCK} WITH QUALITY ({POINT_QUALITY})");
    let out = run(reference, &sql).map_err(err)?;
    out.relation()
        .iter()
        .map(|row| row[0].value.as_text().map(str::to_owned).map_err(err))
        .collect()
}

/// Runs `ids` in order on the embedded reference and hands each
/// statement's rendered answer to `sink`. A `SELECT`'s answer is reused
/// until the next write.
fn simulate(
    reference: &mut QueryCatalog,
    stmts: &[Stmt],
    ids: impl IntoIterator<Item = u32>,
    mut sink: impl FnMut(u32, &str),
) -> Res<()> {
    let mut memo: HashMap<u32, String> = HashMap::new();
    for id in ids {
        let stmt = &stmts[id as usize];
        if stmt.write {
            memo.clear();
            let body = render_result(&run_mut(reference, &stmt.sql).map_err(err)?);
            sink(id, &body);
        } else {
            let body = match memo.entry(id) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    e.insert(render_result(&run(reference, &stmt.sql).map_err(err)?))
                }
            };
            sink(id, body);
        }
    }
    Ok(())
}

pub fn expect_of(body: &str) -> Expect {
    let payload = Response::Ok {
        body: body.to_owned(),
    }
    .encode();
    Expect {
        len: payload.len() as u32,
        crc: crc32(&payload),
    }
}

/// The correctness gate and the warm-up in one pass: sends every
/// warm-up statement and requires the wire body to equal the embedded
/// rendering byte for byte. Then fills in what each period step must
/// answer.
fn gate_and_expect(
    conn: &mut Conn,
    script: &mut Script,
    reference: &mut QueryCatalog,
    period_ids: &[(u32, Class)],
) -> Res<()> {
    let mut wanted = Vec::with_capacity(script.warmup.len());
    simulate(
        reference,
        &script.stmts,
        script.warmup.iter().copied(),
        |id, body| wanted.push((id, body.to_owned())),
    )?;
    for (id, want) in &wanted {
        let sql = &script.stmts[*id as usize].sql;
        conn.send(&script.frames[*id as usize]).map_err(err)?;
        let reply = conn.recv().map_err(err)?;
        match Response::decode(&reply.payload).map_err(err)? {
            Response::Ok { body } if &body == want => {}
            Response::Ok { body } => {
                return Err(format!(
                    "gate: wire answer differs from the embedded one on `{sql}`\nwire:\n{body}\nembedded:\n{want}"
                ))
            }
            other => return Err(format!("gate: `{sql}` answered {other:?}")),
        }
    }
    let mut at = 0;
    let period = &mut script.period;
    simulate(
        reference,
        &script.stmts,
        period_ids.iter().map(|&(id, _)| id),
        |id, body| {
            period.push(Step {
                stmt: id,
                expect: expect_of(body),
                class: period_ids[at].1,
            });
            at += 1;
        },
    )?;
    Ok(())
}

/// The catalog the server gets: the reference's relations, copied, so
/// that the two share no lazily built index and the server pays for
/// its own.
fn served_copy(reference: &QueryCatalog) -> Res<QueryCatalog> {
    let mut served = QueryCatalog::new();
    for name in reference.names() {
        served.register(name, reference.get(name).map_err(err)?.clone());
    }
    Ok(served)
}

/// A reference catalog holding a generated `company_stock` of `rows`
/// rows, and the time the generator took.
pub fn stock_reference(rows: usize, seed: u64) -> Res<(QueryCatalog, Duration)> {
    let t = Instant::now();
    let stocks = generate_trading(&TradingGenConfig {
        clients: 1,
        stocks: rows,
        trades: 0,
        seed,
        ..Default::default()
    })
    .map_err(err)?
    .stocks;
    let spent = t.elapsed();
    let mut reference = QueryCatalog::new();
    reference.register(STOCK, stocks);
    Ok((reference, spent))
}

/// Loads the reference's `company_stock` into `db` and checkpoints.
pub fn load_stock(db: &mut DurableDb, reference: &QueryCatalog) -> Res<()> {
    let rel = reference.get(STOCK).map_err(err)?;
    db.create_tagged(STOCK, rel.schema().clone(), rel.dictionary().clone())
        .map_err(err)?;
    for row in rel.rows() {
        db.push(STOCK, row.clone()).map_err(err)?;
    }
    db.commit().map_err(err)?;
    db.checkpoint().map_err(err)?;
    Ok(())
}

fn fresh_dir(dir: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(err)
}

pub fn hist_options(pool_pages: usize) -> DurableOptions {
    DurableOptions {
        group_commit: true,
        page_size: PAGE_SIZE,
        pool_pages,
        ..Default::default()
    }
}

/// What a set-up builds before the server starts.
#[derive(Default)]
struct Build {
    script: Script,
    reference: QueryCatalog,
    /// The period, before the reference has said what each step answers.
    period: Vec<(u32, Class)>,
    dir: Option<PathBuf>,
    shadow: Option<SharedCatalog>,
    rows: u64,
    pool_pages: usize,
    generate: Duration,
}

impl Build {
    /// Resident `company_stock` and point statements on tickers that
    /// pass the quality filter: 64 hot `SELECT`s, or the write cycle
    /// over a durable copy.
    fn stock(
        &mut self,
        workload: Workload,
        sizes: Sizes,
        seed: u64,
        data: &Path,
        traced: bool,
    ) -> Res<ServerHandle> {
        let mut rng = Rng(seed);
        (self.reference, self.generate) = stock_reference(sizes.stock_rows, seed)?;
        self.rows = self.reference.get(STOCK).map_err(err)?.len() as u64;
        let tickers = passing_tickers(&self.reference)?;
        if workload != Workload::TagWriteMix {
            let hot: Vec<u32> = rng
                .distinct(tickers.len(), HOT_POINTS)
                .into_iter()
                .map(|i| self.script.push(point_select(&tickers[i]), false, None))
                .collect();
            self.script.warmup = hot.clone();
            for _ in 0..hot.len() * 16 {
                self.period.push((hot[rng.below(hot.len())], Class::Read));
            }
            return start(ServerConfig::default(), served_copy(&self.reference)?).map_err(err);
        }

        let hot: Vec<&String> = rng
            .distinct(tickers.len(), HOT_WRITES)
            .into_iter()
            .map(|i| &tickers[i])
            .collect();
        let selects: Vec<u32> = hot
            .iter()
            .map(|t| self.script.push(point_select(t), false, None))
            .collect();
        for k in 0..hot.len() * TAG_VALUES {
            let j = k % hot.len();
            let tag = self.script.push(
                tag_statement(hot[j], &format!("audit-{}", k / hot.len())),
                true,
                None,
            );
            self.period.push((tag, Class::Write));
            self.period.push((selects[j], Class::ReadAfterWrite));
            for _ in 1..READS_PER_WRITE {
                self.period
                    .push((selects[rng.below(selects.len())], Class::Read));
            }
        }
        self.script.warmup = self.period.iter().map(|&(id, _)| id).collect();

        // Loaded with one group commit and checkpointed, so the served
        // database starts from a checkpoint and an empty log; served
        // with the default options, one WAL commit per `TAG`.
        let load = |dir: &Path| -> Res<DurableDb> {
            fresh_dir(dir)?;
            let group = DurableOptions {
                group_commit: true,
                ..Default::default()
            };
            let (mut db, _) = DurableDb::open_dir(dir, group).map_err(err)?;
            load_stock(&mut db, &self.reference)?;
            drop(db);
            Ok(DurableDb::open_dir(dir, DurableOptions::default())
                .map_err(err)?
                .0)
        };
        if traced {
            let db = load(&data.join("shadow"))?;
            self.shadow = Some(SharedCatalog::with_db(db).map_err(err)?);
        }
        let dir = data.join("db");
        let db = load(&dir)?;
        self.dir = Some(dir);
        start_durable(ServerConfig::default(), db).map_err(err)
    }

    /// Resident `trade` and `company_stock`, and the analytic round.
    fn analytic(&mut self, sizes: Sizes, seed: u64) -> Res<ServerHandle> {
        let t = Instant::now();
        let w = generate_trading(&TradingGenConfig {
            clients: 200,
            stocks: 500,
            trades: sizes.trade_rows,
            seed,
            ..Default::default()
        })
        .map_err(err)?;
        self.generate = t.elapsed();
        self.rows = w.trades.len() as u64;
        self.reference.register(STOCK, w.stocks);
        self.reference.register("trade", w.trades);
        for (label, sql) in ANALYTIC {
            let id = self.script.push(sql.to_owned(), false, Some(label));
            self.script.warmup.push(id);
            self.period.push((id, Class::Read));
        }
        // `filter_count`, the mid-cost statement, runs twice a round.
        // With four statements at a quarter each the median would sit on
        // the border between two of them and jump from run to run; now
        // it lies well inside `filter_count`'s own distribution.
        let filter_count = self.script.warmup[2];
        self.period.push((filter_count, Class::Read));
        start(ServerConfig::default(), served_copy(&self.reference)?).map_err(err)
    }

    /// Durable paged `trade_hist`, ten times its pool, and the lookup
    /// stream.
    fn paged(&mut self, sizes: Sizes, seed: u64, data: &Path) -> Res<ServerHandle> {
        let mut rng = Rng(seed);
        let cfg = TradingGenConfig {
            clients: sizes.hist_accounts,
            stocks: 500,
            trades: sizes.hist_rows,
            seed,
            ..Default::default()
        };
        // The stream first: 80 % of lookups go to the hot accounts, 20 %
        // anywhere. Hot accounts have exactly the mean number of trades,
        // so the work of a hot lookup does not change with the seed.
        let mut trades_of = vec![0usize; sizes.hist_accounts];
        let counting = Instant::now();
        for row in trade_stream(&cfg) {
            trades_of[row[0].value.as_int().map_err(err)? as usize] += 1;
        }
        self.generate = counting.elapsed();
        let mean = sizes.hist_rows / sizes.hist_accounts;
        let typical: Vec<usize> = (0..sizes.hist_accounts)
            .filter(|&a| trades_of[a] == mean)
            .collect();
        let hot: Vec<usize> = rng
            .distinct(typical.len(), HOT_ACCOUNTS)
            .into_iter()
            .map(|i| typical[i])
            .collect();
        let mut ids: HashMap<usize, u32> = HashMap::new();
        for _ in 0..sizes.hist_stream {
            let account = if rng.below(5) < 4 {
                hot[rng.below(hot.len())]
            } else {
                rng.below(sizes.hist_accounts)
            };
            let id = *ids.entry(account).or_insert_with(|| {
                let id = self.script.push(hist_select(account), false, None);
                self.script.warmup.push(id);
                id
            });
            self.period.push((id, Class::Read));
        }

        // Load through a pool that holds everything, then reopen with
        // the budget the workload is about. The reference keeps only the
        // accounts the stream asks for, so it stays small while the
        // served relation is ten times the pool.
        let dir = data.join("db");
        fresh_dir(&dir)?;
        let (mut db, _) = DurableDb::open_dir(&dir, hist_options(8_192)).map_err(err)?;
        db.create_paged(HIST, trade_schema(), trading_dictionary())
            .map_err(err)?;
        let mut twin = generate_trading(&TradingGenConfig {
            trades: 0,
            ..cfg.clone()
        })
        .map_err(err)?
        .trades;
        let mut stream = trade_stream(&cfg);
        loop {
            let t = Instant::now();
            let next = stream.next();
            self.generate += t.elapsed();
            let Some(row) = next else { break };
            self.rows += 1;
            let account = row[0].value.as_int().map_err(err)? as usize;
            if ids.contains_key(&account) {
                twin.push(row.clone()).map_err(err)?;
            }
            db.paged_push(HIST, row).map_err(err)?;
            if self.rows.is_multiple_of(10_000) {
                db.commit().map_err(err)?;
            }
        }
        db.commit().map_err(err)?;
        db.checkpoint().map_err(err)?;
        let (heap, directory) = db.paged_pages(HIST).map_err(err)?;
        drop(db);
        self.reference.register(HIST, twin);
        self.pool_pages = (heap + directory) as usize / 10;
        let (db, _) = DurableDb::open_dir(&dir, hist_options(self.pool_pages)).map_err(err)?;
        self.dir = Some(dir);
        start_durable(ServerConfig::default(), db).map_err(err)
    }
}

/// Sets a workload up: generate, load, start the server, connect, pass
/// the gate and warm up. `data` is where a durable workload keeps its
/// directory; `traced` adds what only a traced run needs.
pub fn setup(workload: Workload, sizes: Sizes, seed: u64, data: &Path, traced: bool) -> Res<Live> {
    let mut b = Build::default();
    let server = match workload {
        Workload::AnalyticScan => b.analytic(sizes, seed)?,
        Workload::PagedLookup => b.paged(sizes, seed, data)?,
        _ => b.stock(workload, sizes, seed, data, traced)?,
    };
    let mut conn = Conn::connect(server.addr(), workload.polling()).map_err(err)?;
    gate_and_expect(&mut conn, &mut b.script, &mut b.reference, &b.period)?;
    Ok(Live {
        workload,
        conn,
        server,
        script: b.script,
        pos: 0,
        reference: b.reference,
        dir: b.dir,
        shadow: b.shadow,
        rows: b.rows,
        pool_pages: b.pool_pages,
        generate: b.generate,
    })
}
