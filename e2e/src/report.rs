//! What a run prints and writes: the contract's result line, a table of
//! every metric by name and unit, and a result record that carries its
//! context.

use crate::json::quote;
use crate::metrics::Metrics;
use crate::run::{RunConfig, RunResult};
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount `dir` is on, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The machine and build a result was measured on, as a JSON object.
pub fn context_json(cfg: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = dq_server::ServerConfig::default().workers;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    std::fs::create_dir_all(&cfg.data).ok();
    format!(
        "{{\"nproc\":{nproc},\"rev\":{},\"rustc\":{},\"profile\":\"{profile}\",\"seed\":{},\"seconds\":{},\
         \"data_fs\":{},\"topology\":{}}}",
        quote(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        quote(&command_line("rustc", &["-V"])),
        cfg.seed,
        cfg.seconds,
        quote(&filesystem_of(&cfg.data)),
        quote(&format!(
            "loopback, in-process server, workers={workers}, one generator thread, one connection"
        )),
    )
}

fn metrics_json(metrics: &Metrics, with_n: bool) -> String {
    let fields: Vec<String> = metrics
        .values
        .iter()
        .map(|m| {
            let n = if with_n {
                format!(",\"n\":{}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{n}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last line of standard output, as the benchmark contract has it.
pub fn contract_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics, false)
    )
}

/// One line of a result file: the run, its metrics with their sample
/// counts, and its context.
pub fn record_line(cfg: &RunConfig, r: &RunResult) -> String {
    format!(
        "{{\"workload\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_share\":{},\
         \"metrics\":{},\"context\":{}}}",
        quote(cfg.workload.name()),
        cfg.traced as u8,
        r.failed == 0,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        metrics_json(&r.metrics, true),
        context_json(cfg)
    )
}

/// Every metric by name, with its unit.
pub fn table(cfg: &RunConfig, r: &RunResult) -> String {
    let mut out = format!(
        "== {} ({}, seed {}, {} s) attempted {} failed {}\n",
        cfg.workload.name(),
        if cfg.traced { "traced" } else { "untraced" },
        cfg.seed,
        cfg.seconds,
        r.attempted,
        r.failed
    );
    for m in &r.metrics.values {
        let n = if m.n > 0 {
            format!("  (n={})", m.n)
        } else {
            String::new()
        };
        out.push_str(&format!("{:<46} {:>16.4} {}{n}\n", m.name, m.value, m.unit));
    }
    for note in &r.notes {
        out.push_str(note);
        out.push('\n');
    }
    out
}
