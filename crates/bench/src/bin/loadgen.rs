//! B11 — server-throughput load generator.
//!
//! Simulates up to 64 concurrent clients hammering a `dq-server` with
//! quality-filtered point queries and writes one JSON line per series
//! to `BENCH_server.json` (same line shape as the criterion shim, so
//! the bench scripts treat it uniformly):
//!
//! * `B11/qps/clients{N}` — sustained queries/sec at N ∈ {1,4,16,64}
//!   simulated clients over real sockets, with the stmt-cache hit rate
//!   observed during the window.
//! * `B11/stmt_cache/cold_parse_plan` vs `B11/stmt_cache/hit` —
//!   per-query latency of the full parse→plan→optimize path against
//!   the cached-plan path, measured **in-process** (network RTT would
//!   mask exactly the cost the cache removes).
//!
//! Every response is parity-checked against the embedded serial
//! rendering before any timing starts. Like the index-build gate, the
//! multi-core throughput target is reported honestly: on a single-core
//! box the tool prints a warning instead of pretending.
//!
//! Knobs: `DQ_BENCH_SERVER_JSON` (output path), `DQ_LOADGEN_MS`
//! (per-tier measure window, default 1000), `DQ_LOADGEN_CLIENTS`
//! (default `1,4,16,64`), `DQ_LOADGEN_ROWS` (table size, default 256),
//! `DQ_LOADGEN_WORKERS` (server workers, default = available cores,
//! capped at 8).

use dq_query::{run, NoDefaults, PlanCache, QueryCatalog};
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

/// A quotes table sized for point serving: `rows` tickers, everything
/// tagged, so quality-filtered point queries have work to do.
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

/// The point-query workload: each client cycles through these; all are
/// quality-filtered.
fn workload(rows: usize) -> Vec<String> {
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

struct Series {
    id: String,
    fields: Vec<(String, f64)>,
}

fn main() {
    let out_path = std::env::var("DQ_BENCH_SERVER_JSON")
        .unwrap_or_else(|_| "BENCH_server.json".to_owned());
    let window = Duration::from_millis(env_usize("DQ_LOADGEN_MS", 1000) as u64);
    let client_tiers = env_list("DQ_LOADGEN_CLIENTS", "1,4,16,64");
    let rows = env_usize("DQ_LOADGEN_ROWS", 256);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = env_usize("DQ_LOADGEN_WORKERS", cores.min(8));

    let mut catalog = QueryCatalog::new();
    catalog.register("quotes", quotes(rows));
    let queries = workload(rows);

    // ---- parity gate: every workload query, server vs embedded -------
    let expected: Vec<String> = queries
        .iter()
        .map(|q| render_result(&run(&catalog, q).expect("embedded run")))
        .collect();
    let server = start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            stmt_cache_capacity: 256,
        },
        catalog.clone(),
    )
    .expect("bind");
    {
        let mut probe = Client::connect(server.addr()).expect("connect");
        for (q, want) in queries.iter().zip(&expected) {
            let got = probe.query(q).expect("probe query");
            assert_eq!(&got, want, "server/embedded divergence on `{q}`");
        }
    }
    println!(
        "loadgen: parity ok ({} queries), table={rows} rows, workers={workers}, window={}ms",
        queries.len(),
        window.as_millis()
    );

    let mut series: Vec<Series> = Vec::new();

    // ---- qps vs client count over real sockets -----------------------
    let hits = dq_obs::counter!("server.stmt_cache.hits");
    let misses = dq_obs::counter!("server.stmt_cache.misses");
    for &clients in &client_tiers {
        let stop = Arc::new(AtomicBool::new(false));
        let (h0, m0) = (hits.get(), misses.get());
        let addr = server.addr();
        let threads: Vec<_> = (0..clients)
            .map(|ci| {
                let stop = Arc::clone(&stop);
                let queries = queries.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // warm the session's stmt cache before the window
                    for q in &queries {
                        client.query(q).expect("warmup");
                    }
                    let mut n = 0u64;
                    let mut i = ci; // desynchronize the cycles
                    while !stop.load(Ordering::Relaxed) {
                        client.query(&queries[i % queries.len()]).expect("query");
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
        let total: u64 = threads.into_iter().map(|t| t.join().expect("client")).sum();
        // window + however long the last in-flight queries took to drain
        let elapsed = window + t0.elapsed();
        let qps = total as f64 / elapsed.as_secs_f64();
        let (dh, dm) = (hits.get() - h0, misses.get() - m0);
        let hit_rate = if dh + dm == 0 { 0.0 } else { dh as f64 / (dh + dm) as f64 };
        println!(
            "loadgen: clients={clients:<3} qps={qps:>10.0}  requests={total}  stmt_cache_hit_rate={hit_rate:.4}"
        );
        series.push(Series {
            id: format!("B11/qps/clients{clients}"),
            fields: vec![
                ("qps".into(), qps),
                ("requests".into(), total as f64),
                ("elapsed_ms".into(), elapsed.as_millis() as f64),
                ("stmt_cache_hit_rate".into(), hit_rate),
                ("workers".into(), workers as f64),
                ("rows".into(), rows as f64),
            ],
        });
    }
    drop(server);

    // ---- cold parse+plan vs cache-hit latency, in-process ------------
    // Network RTT would dominate both numbers; the cache's work saving
    // is parse+plan+optimize, so measure exactly that boundary.
    let sql = &queries[0];
    let iters = 2000usize;
    let mut cache = PlanCache::new(64);
    cache.execute(&catalog, sql, &NoDefaults).expect("seed");
    let t0 = Instant::now();
    for _ in 0..iters {
        cache.clear(); // force the full parse→plan→optimize path
        cache.execute(&catalog, sql, &NoDefaults).expect("cold");
    }
    let cold_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        cache.execute(&catalog, sql, &NoDefaults).expect("hit");
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let ratio = cold_ns / hit_ns;
    println!(
        "loadgen: stmt_cache cold={cold_ns:.0}ns hit={hit_ns:.0}ns cold/hit={ratio:.2}x"
    );
    if ratio < 2.0 {
        println!("loadgen: WARNING: cold/hit ratio {ratio:.2} below the 2x acceptance bar");
    }
    series.push(Series {
        id: "B11/stmt_cache/cold_parse_plan".into(),
        fields: vec![("mean_ns".into(), cold_ns), ("iters".into(), iters as f64)],
    });
    series.push(Series {
        id: "B11/stmt_cache/hit".into(),
        fields: vec![("mean_ns".into(), hit_ns), ("iters".into(), iters as f64)],
    });
    series.push(Series {
        id: "B11/stmt_cache/cold_over_hit".into(),
        fields: vec![("ratio".into(), ratio)],
    });

    if cores < 2 {
        println!(
            "loadgen: WARNING: only {cores} CPU visible; the ≥100k qps target is a \
             multi-core target — clients, workers, and the engine timeshare one core here, \
             so these numbers are a single-core floor, not the capability of the code"
        );
    }

    // ---- write JSON lines -------------------------------------------
    let mut file = std::fs::File::create(&out_path).expect("open output");
    for s in &series {
        let mut line = format!("{{\"id\":\"{}\"", s.id);
        for (k, v) in &s.fields {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                line.push_str(&format!(",\"{k}\":{}", *v as i64));
            } else if v.abs() < 10.0 {
                // hit rates and ratios: 2 decimals would round 0.9984
                // up to a fictitious 1.00
                line.push_str(&format!(",\"{k}\":{v:.4}"));
            } else {
                line.push_str(&format!(",\"{k}\":{v:.2}"));
            }
        }
        line.push('}');
        writeln!(file, "{line}").expect("write");
    }
    println!("loadgen: wrote {} records to {out_path}", series.len());
}
