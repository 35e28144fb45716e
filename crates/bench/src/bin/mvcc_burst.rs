//! B12 — MVCC reader throughput under a writer burst.
//!
//! One writer loops full-table `TAG` statements (the heaviest write
//! the engine has: every row's tag column copies on write) while N
//! readers hammer quality-filtered point queries. One series per
//! reader tier:
//!
//! * `B12/reader_qps/mvcc/readersN` — the writer prepares against its
//!   pinned snapshot outside any lock and serializes only
//!   apply+publish; readers pin epochs lock-free.
//!
//! Compare a run against the previous run of this harness
//! (EXPERIMENTS.md B12).
//!
//! Correctness gates (both fatal): a pre-timing parity check of every
//! reader query against the embedded serial rendering, and a
//! post-burst quiesce check that the server's final state is
//! byte-identical to an embedded replay of the writer's last
//! full-table TAG (full-table overwrites make the final state a
//! function of the last statement alone).
//!
//! Knobs: `DQ_BENCH_MVCC_JSON` (output path), `DQ_MVCC_MS` (per-tier
//! measure window, default 1000), `DQ_MVCC_ROWS` (table size, default
//! 256), `DQ_MVCC_READERS` (default `4,16`).

use dq_query::{run, run_mut, QueryCatalog};
use dq_server::{render_result, start, Client, ServerConfig};
use relstore::{DataType, Schema};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn env_list(name: &str, default: &str) -> Vec<usize> {
    std::env::var(name)
        .unwrap_or_else(|_| default.to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn quotes(rows: usize) -> TaggedRelation {
    let schema = Schema::of(&[("ticker", DataType::Text), ("price", DataType::Float)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let data = (0..rows)
        .map(|i| {
            let source = if i % 5 == 0 { "manual entry" } else { "NYSE feed" };
            vec![
                QualityCell::bare(format!("T{i:05}")),
                QualityCell::bare(i as f64)
                    .with_tag(IndicatorValue::new("source", source))
                    .with_tag(IndicatorValue::new("age", (i % 30) as i64)),
            ]
        })
        .collect();
    TaggedRelation::new(schema, dict, data).expect("fixture")
}

fn catalog(rows: usize) -> QueryCatalog {
    let mut c = QueryCatalog::new();
    c.register("quotes", quotes(rows));
    c
}

/// The reader workload: quality-filtered point queries.
fn reads(rows: usize) -> Vec<String> {
    (0..16)
        .map(|i| {
            let t = (i * 37) % rows.max(1);
            format!(
                "SELECT * FROM quotes WHERE ticker = 'T{t:05}' \
                 WITH QUALITY (price@source = 'NYSE feed' AND price@age <= 20)"
            )
        })
        .collect()
}

/// The writer statement for burst iteration `k`: tag every row's
/// price with a generation grade. Each iteration overwrites the last,
/// so the final table state depends only on the final statement.
fn burst_sql(k: u64) -> String {
    format!("TAG quotes SET price@inspection = 'G{}'", k % 10)
}

/// The quiesce probes: must render byte-identically on the server and
/// on an embedded catalog that replayed only the last TAG.
fn probes(last: u64) -> Vec<String> {
    vec![
        format!(
            "SELECT COUNT(*) AS n FROM quotes WITH QUALITY (price@inspection = 'G{}')",
            last % 10
        ),
        "INSPECT FROM quotes WHERE ticker = 'T00000'".to_string(),
    ]
}

struct TierResult {
    qps: f64,
    reads: u64,
    writes: u64,
    writer_wait_us_mean: f64,
}

/// One reader tier: fresh server, 1 writer looping TAG, N readers
/// looping point queries, then the quiesced state check.
fn run_tier(readers: usize, rows: usize, workers: usize, window: Duration) -> TierResult {
    let server = start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            stmt_cache_capacity: 64,
        },
        catalog(rows),
    )
    .expect("bind");
    let addr = server.addr();
    let queries = reads(rows);
    let stop = Arc::new(AtomicBool::new(false));
    let wait = dq_obs::histogram!("mvcc.writer_wait_us");
    let (w_sum0, w_cnt0) = (wait.sum_us(), wait.count());

    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut k = 0u64;
            // at least one write lands even if the window is tiny
            loop {
                client.query(&burst_sql(k)).expect("tag");
                k += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            k
        })
    };
    let reader_threads: Vec<_> = (0..readers)
        .map(|ci| {
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                for q in &queries {
                    client.query(q).expect("warmup");
                }
                let mut n = 0u64;
                let mut i = ci;
                while !stop.load(Ordering::Relaxed) {
                    client.query(&queries[i % queries.len()]).expect("read");
                    n += 1;
                    i += 1;
                }
                n
            })
        })
        .collect();

    std::thread::sleep(window);
    let t0 = Instant::now();
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("writer");
    let total_reads: u64 = reader_threads.into_iter().map(|t| t.join().expect("reader")).sum();
    let elapsed = window + t0.elapsed();

    // ---- quiesced state gate (fatal): server ≡ embedded replay ------
    let last = writes - 1;
    let mut replay = catalog(rows);
    run_mut(&mut replay, &burst_sql(last)).expect("embedded replay");
    let mut probe = Client::connect(addr).expect("probe connect");
    for q in probes(last) {
        let want = render_result(&run(&replay, &q).expect("embedded probe"));
        let got = probe.query(&q).expect("server probe");
        assert_eq!(
            got, want,
            "quiesced server diverged from embedded replay on `{q}` \
             (readers={readers})"
        );
    }
    server.shutdown();

    let (dw_sum, dw_cnt) = (wait.sum_us() - w_sum0, wait.count() - w_cnt0);
    TierResult {
        qps: total_reads as f64 / elapsed.as_secs_f64(),
        reads: total_reads,
        writes,
        writer_wait_us_mean: if dw_cnt == 0 { 0.0 } else { dw_sum as f64 / dw_cnt as f64 },
    }
}

fn main() {
    let out_path =
        std::env::var("DQ_BENCH_MVCC_JSON").unwrap_or_else(|_| "BENCH_mvcc.json".to_owned());
    let window = Duration::from_millis(env_usize("DQ_MVCC_MS", 1000) as u64);
    let reader_tiers = env_list("DQ_MVCC_READERS", "4,16");
    let rows = env_usize("DQ_MVCC_ROWS", 256);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = cores.min(8);

    // ---- parity gate: every reader query, server vs embedded --------
    let cat = catalog(rows);
    let queries = reads(rows);
    let expected: Vec<String> = queries
        .iter()
        .map(|q| render_result(&run(&cat, q).expect("embedded run")))
        .collect();
    let server = start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            stmt_cache_capacity: 64,
        },
        cat,
    )
    .expect("bind");
    {
        let mut probe = Client::connect(server.addr()).expect("connect");
        for (q, want) in queries.iter().zip(&expected) {
            let got = probe.query(q).expect("probe query");
            assert_eq!(&got, want, "server/embedded divergence on `{q}`");
        }
    }
    server.shutdown();
    println!(
        "mvcc_burst: parity ok ({} queries), table={rows} rows, workers={workers}, window={}ms",
        queries.len(),
        window.as_millis()
    );

    // one JSON line per reader tier
    let mut file = std::fs::File::create(&out_path).expect("open output");
    for &readers in &reader_tiers {
        let r = run_tier(readers, rows, workers, window);
        println!(
            "mvcc_burst: readers={readers:<3} {:>9.0} qps  (writes={}, writer_wait mean={:.0}us)",
            r.qps, r.writes, r.writer_wait_us_mean,
        );
        writeln!(
            file,
            "{{\"id\":\"B12/reader_qps/mvcc/readers{readers}\",\"qps\":{:.2},\"reads\":{},\
             \"writes\":{},\"writer_wait_us_mean\":{:.4},\"workers\":{workers},\"rows\":{rows}}}",
            r.qps, r.reads, r.writes, r.writer_wait_us_mean,
        )
        .expect("write");
    }
    println!("mvcc_burst: wrote {} records to {out_path}", reader_tiers.len());
}
