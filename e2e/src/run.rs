//! One run of one workload: set up, drive, measure, and, on a traced
//! run, take the per-layer numbers.

use crate::loadgen::{drive, query_frame, Class, Conn, Samples, Stop};
use crate::metrics::{median, quantile, ratio, Metrics, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::{
    err, hist_options, load_stock, setup, stock_reference, tag_statement, Live, Res, Sizes,
    Workload, HIST, STOCK,
};
use dq_query::{execute, parse, prepare_write, run, run_mut, Planner, QueryCatalog, Statement};
use dq_server::protocol::Response;
use dq_server::{render_result, start_durable, ServerConfig};
use dq_storage::{DurableDb, DurableOptions, MemFs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Stretches an untraced window is cut into; each timing metric is the
/// median over them.
const STRETCHES: usize = 5;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    /// Where durable workloads and trace files go; removed afterwards
    /// except for the trace file.
    pub data: PathBuf,
}

#[derive(Debug)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines (the budget of a traced run).
    pub notes: Vec<String>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn window(
    live: &mut Live,
    stop: Stop,
    on_reply: &mut dyn FnMut(crate::loadgen::Done<'_>),
) -> Samples {
    drive(
        &mut live.conn,
        &live.script.frames,
        &live.script.period,
        &mut live.pos,
        live.workload.depth(),
        stop,
        on_reply,
    )
}

pub fn run_workload(cfg: &RunConfig) -> Res<RunResult> {
    let scratch = cfg
        .data
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let gate = if cfg.workload == Workload::TagWriteMix {
        durability_gate(cfg)
    } else {
        Ok(())
    };
    let result = gate.and_then(|()| {
        if cfg.traced {
            run_traced(cfg, &scratch)
        } else {
            run_untraced(cfg, &scratch)
        }
    });
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_untraced(cfg: &RunConfig, scratch: &Path) -> Res<RunResult> {
    let timed_setup = || -> Res<(Live, f64)> {
        let t = Instant::now();
        let live = setup(cfg.workload, cfg.sizes, cfg.seed, scratch, false)?;
        Ok((live, t.elapsed().as_secs_f64()))
    };
    let (mut live, first) = timed_setup()?;
    let mut setup_s = vec![first];
    let s = window(
        &mut live,
        Stop::After(Duration::from_secs_f64(cfg.seconds)),
        &mut |_| {},
    );
    drop(live);
    // One set-up and one window: what loading and serving the workload
    // takes. The set-ups that follow only steady `setup_s`.
    let peak = peak_rss_mb();
    while setup_s.len() < SETUPS {
        setup_s.push(timed_setup()?.1);
    }

    let mut ops = Vec::new();
    let mut p50 = Vec::new();
    for stretch in s.stretches(STRETCHES) {
        let mut reads: Vec<f64> = stretch
            .iter()
            .filter(|s| s.class == Class::Read)
            .map(|s| s.us)
            .collect();
        ops.push(stretch.len() as f64 / (s.elapsed.as_secs_f64() / STRETCHES as f64));
        p50.push(quantile(&mut reads, 0.5));
    }
    let reads = s.all.iter().filter(|s| s.class == Class::Read).count();
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&mut setup_s), SETUPS);
    m.set("ops_per_s", median(&mut ops), s.all.len());
    m.set("query_p50_us", median(&mut p50), reads);
    m.set("peak_rss_mb", peak, 0);
    Ok(RunResult {
        metrics: m.complete(),
        attempted: s.attempted,
        failed: s.failed,
        notes: Vec::new(),
    })
}

fn run_traced(cfg: &RunConfig, scratch: &Path) -> Res<RunResult> {
    let w = cfg.workload;
    let mut live = setup(w, cfg.sizes, cfg.seed, scratch, true)?;
    let mut m = Metrics::new(PER_LAYER);
    m.set("workloads.generate_s", live.generate.as_secs_f64(), 0);

    // Traced phase first, and a statement count: from a fresh set-up
    // every counter is then a function of the seed.
    let statements =
        ((w.nominal_ops_per_s() as f64 * cfg.seconds / 2.0) as u64).max(w.trace_every());
    let mut tracer = Tracer::new(w.trace_every());
    tracer.start();
    let traced = {
        let Live {
            conn,
            server,
            script,
            pos,
            shadow,
            ..
        } = &mut live;
        drive(
            conn,
            &script.frames,
            &script.period,
            pos,
            w.depth(),
            Stop::Statements(statements),
            &mut |done| tracer.on_reply(done, &script.stmts, server.catalog(), shadow.as_ref()),
        )
    };
    tracer.finish();
    let writes = |s: &Samples| s.all.iter().filter(|s| s.class == Class::Write).count();
    tracer.metrics(&mut m, writes(&traced) as u64);

    // The same workload untraced, for the overhead and for what the
    // client of this workload sees beyond the common metrics.
    let plain = window(
        &mut live,
        Stop::After(Duration::from_secs_f64(cfg.seconds / 2.0)),
        &mut |_| {},
    );
    let wire_s = (traced.elapsed.saturating_sub(tracer.replaying)).as_secs_f64();
    let traced_ops = traced.all.len() as f64 / wire_s.max(1e-9);
    m.set(
        "obs.trace_overhead_share",
        1.0 - traced_ops / plain.ops_per_s(),
        0,
    );
    let mut read_us = plain.us(|c| c == Class::Read);
    let n = read_us.len();
    m.set("query_p95_us", quantile(&mut read_us, 0.95), n);
    m.set("query_p99_us", quantile(&mut read_us, 0.99), n);
    let mut write_us = plain.us(|c| c == Class::Write);
    if !write_us.is_empty() {
        let n = write_us.len();
        m.set("write_p50_us", quantile(&mut write_us, 0.5), n);
        m.set("write_p99_us", quantile(&mut write_us, 0.99), n);
        let mut after = plain.us(|c| c == Class::ReadAfterWrite);
        let n = after.len();
        m.set("read_after_write_p50_us", median(&mut after), n);
    }

    let mut notes = vec![tracer.budget_line(w.name())];
    std::fs::create_dir_all(&cfg.data).map_err(err)?;
    let trace_file = cfg.data.join(format!("trace-{}.jsonl", w.name()));
    tracer.write_file(&trace_file).map_err(err)?;
    notes.push(format!(
        "trace: {} spans in {}",
        tracer.spans().len(),
        trace_file.display()
    ));

    let attempted = traced.attempted + plain.attempted;
    let mut failed = traced.failed + plain.failed + tracer.replay_mismatches;

    if w != Workload::PagedLookup {
        lazy_build(&mut m, &live)?;
    }
    if w.durable() {
        failed += after_the_server(&mut m, live)?;
    }
    Ok(RunResult {
        metrics: m.complete(),
        attempted,
        failed,
        notes,
    })
}

/// What re-registering a relation costs the next statement: the lazily
/// built indexes. First execute after a re-`register` minus a warm one.
fn lazy_build(m: &mut Metrics, live: &Live) -> Res<()> {
    let reference = &live.reference;
    let first_read = live
        .script
        .stmts
        .iter()
        .find(|s| !s.write)
        .expect("every workload reads");
    let planner = Planner::default();
    let stmt = parse(&first_read.sql).map_err(err)?;
    let plan = planner.optimize(planner.plan(&stmt, reference).map_err(err)?, reference);
    let time = |catalog: &QueryCatalog| -> Res<f64> {
        let t = Instant::now();
        std::hint::black_box(execute(catalog, &plan).map_err(err)?);
        Ok(us(t.elapsed()))
    };
    time(reference)?;
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for _ in 0..5 {
        warm.push(time(reference)?);
        let mut fresh = reference.snapshot();
        let names: Vec<String> = fresh.names().into_iter().map(str::to_owned).collect();
        for name in names {
            let rel = fresh.get(&name).map_err(err)?.clone();
            fresh.register(name, rel);
        }
        cold.push(time(&fresh)?);
    }
    let built = (median(&mut cold) - median(&mut warm)).max(0.0);
    m.set("tagdb.index.lazy_build_us", built, cold.len());
    Ok(())
}

/// The durable workloads, once the window is over: recovery as a client
/// sees it, then the storage layer's own calls on the directory.
/// Returns the failures it saw.
fn after_the_server(m: &mut Metrics, live: Live) -> Res<u64> {
    let w = live.workload;
    let dir = live
        .dir
        .clone()
        .expect("a durable workload has a directory");
    let opts = if w == Workload::PagedLookup {
        hist_options(live.pool_pages)
    } else {
        DurableOptions::default()
    };
    // The next statement of the stream, and what it must answer.
    let step = live.script.period[live.pos % live.script.period.len()];
    let polling = w.polling();
    let Live {
        conn,
        server,
        script,
        reference,
        rows,
        ..
    } = live;
    drop(conn);
    drop(server);

    let mut failed = 0;
    let t = Instant::now();
    let (db, report) = DurableDb::open_dir(&dir, opts.clone()).map_err(err)?;
    let open = t.elapsed();
    let server = start_durable(ServerConfig::default(), db).map_err(err)?;
    let mut conn = Conn::connect(server.addr(), polling).map_err(err)?;
    conn.send(&script.frames[step.stmt as usize]).map_err(err)?;
    if !conn.recv().map_err(err)?.matches(step.expect) {
        failed += 1;
    }
    m.set("recovery_s", t.elapsed().as_secs_f64(), 0);
    m.set("storage.db.open_us", us(open), 0);
    m.set(
        "storage.db.replayed_records",
        report.replayed_records as f64,
        0,
    );
    drop(conn);
    drop(server);

    let (mut db, _) = DurableDb::open_dir(&dir, opts).map_err(err)?;
    if w == Workload::PagedLookup {
        // Indexed selection straight on the storage layer, over the
        // stream's first statements. The first call builds the paged
        // index; the rest run on it.
        let mut warm = Vec::new();
        let mut cold = 0.0;
        let (mut candidates, mut rows_out) = (0u64, 0u64);
        for (i, step) in script.period.iter().take(200).enumerate() {
            let Statement::Select(q) = parse(&script.stmts[step.stmt as usize].sql).map_err(err)?
            else {
                return Err("paged_lookup only reads".into());
            };
            let predicate = q
                .quality
                .into_iter()
                .fold(q.where_clause.expect("a lookup has a key"), |p, c| p.and(c));
            let t = Instant::now();
            let (_, stats) = db.paged_select_indexed(HIST, &predicate).map_err(err)?;
            let spent = us(t.elapsed());
            if i == 0 {
                cold = spent;
            } else {
                warm.push(spent);
                candidates += stats.candidate_rows;
                rows_out += stats.rows_out;
            }
        }
        let n = warm.len();
        let warm = median(&mut warm);
        m.set("storage.db.select_indexed_us", warm, n);
        m.set(
            "storage.db.candidate_rows_per_row_out",
            ratio(candidates, rows_out),
            0,
        );
        m.set("tagdb.index.lazy_build_us", (cold - warm).max(0.0), 1);
    } else {
        // The log's own cost of one write: one cell tag, one commit.
        let mut commits = Vec::new();
        for stmt in script.stmts.iter().filter(|s| s.write).cycle().take(200) {
            let write = prepare_write(&reference, &stmt.sql).map_err(err)?;
            let t = Instant::now();
            for (row, column, tag) in write.tags() {
                db.tag_cell(write.table(), *row, column, tag.clone())
                    .map_err(err)?;
            }
            db.commit().map_err(err)?;
            commits.push(us(t.elapsed()));
        }
        let n = commits.len();
        m.set("storage.wal.commit_us", quantile(&mut commits, 0.5), n);
        m.set("storage.wal.commit_p99_us", quantile(&mut commits, 0.99), n);
    }
    let flushed = dq_obs::registry().counter("storage.checkpoint.pages_flushed");
    let before = flushed.get();
    let t = Instant::now();
    db.checkpoint().map_err(err)?;
    m.set("storage.checkpoint.checkpoint_us", us(t.elapsed()), 0);
    m.set(
        "storage.checkpoint.pages_flushed",
        (flushed.get() - before) as f64,
        0,
    );
    drop(db);
    m.set("disk_bytes_per_row", ratio(dir_bytes(&dir), rows), 0);
    Ok(failed)
}

/// The durability gate: acknowledged `TAG`s must survive a crash that
/// keeps only synced bytes. Killing the process would leave the
/// operating system's cache intact and prove nothing, so the server
/// runs over a `MemFs` and the gate calls its `crash()`.
fn durability_gate(cfg: &RunConfig) -> Res<()> {
    let (mut reference, _) = stock_reference(cfg.sizes.stock_rows, cfg.seed)?;

    let fs = Arc::new(MemFs::new());
    let group = DurableOptions {
        group_commit: true,
        ..Default::default()
    };
    let (mut db, _) = DurableDb::open(fs.clone(), group).map_err(err)?;
    load_stock(&mut db, &reference)?;
    drop(db);

    let serve = |fs: &Arc<MemFs>| -> Res<(dq_server::ServerHandle, Conn)> {
        let (db, _) = DurableDb::open(fs.clone(), DurableOptions::default()).map_err(err)?;
        let server = start_durable(ServerConfig::default(), db).map_err(err)?;
        let conn = Conn::connect(server.addr(), true).map_err(err)?;
        Ok((server, conn))
    };
    let ask = |conn: &mut Conn, sql: &str| -> Res<String> {
        conn.send(&query_frame(sql)).map_err(err)?;
        match Response::decode(&conn.recv().map_err(err)?.payload).map_err(err)? {
            Response::Ok { body } => Ok(body),
            other => Err(format!("durability gate: `{sql}` answered {other:?}")),
        }
    };

    let tickers: Vec<String> = reference
        .get(STOCK)
        .map_err(err)?
        .iter()
        .take(200)
        .map(|row| row[0].value.as_text().map(str::to_owned).map_err(err))
        .collect::<Res<_>>()?;
    let (server, mut conn) = serve(&fs)?;
    for (k, t) in tickers.iter().enumerate() {
        let sql = tag_statement(t, &format!("gate-{k}"));
        let want = render_result(&run_mut(&mut reference, &sql).map_err(err)?);
        if ask(&mut conn, &sql)? != want {
            return Err(format!(
                "durability gate: `{sql}` was not acknowledged as applied"
            ));
        }
    }
    drop(conn);
    drop(server);
    fs.crash();

    let (server, mut conn) = serve(&fs)?;
    for t in &tickers {
        let sql = format!("SELECT * FROM {STOCK} WHERE ticker_symbol = '{t}'");
        let want = render_result(&run(&reference, &sql).map_err(err)?);
        if ask(&mut conn, &sql)? != want {
            return Err(format!(
                "durability gate: the tag acknowledged on {t} did not survive the crash"
            ));
        }
    }
    drop(conn);
    drop(server);
    Ok(())
}
