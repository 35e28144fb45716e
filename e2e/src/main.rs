//! `dq-e2e` — see `README.md`.
//!
//! ```text
//! dq-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--data DIR] [--smoke]
//! dq-e2e all [--seed N] [--seconds S] [--out FILE]
//! dq-e2e compare <a> <b> [--benchmark BENCHMARK.json]
//! ```

use dq_e2e::compare::compare;
use dq_e2e::report::{contract_line, record_line, table};
use dq_e2e::run::{run_workload, RunConfig};
use dq_e2e::workload::{Sizes, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  dq-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--data DIR] [--smoke]
  dq-e2e all [--seed N] [--seconds S] [--out FILE]
  dq-e2e compare <a> <b> [--benchmark BENCHMARK.json]
workloads: point_rtt point_pipelined analytic_scan paged_lookup tag_write_mix";

/// `--name value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
    smoke: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            words: Vec::new(),
            smoke: false,
        };
        let mut args = args;
        while let Some(a) = args.next() {
            if a == "--smoke" {
                out.smoke = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                out.flags.push((name.to_owned(), value));
            } else {
                out.words.push(a);
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
            None => Ok(default),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Where durable workloads keep their directories and traces go: the
/// build's target directory, which is inside the checkout and ignored.
fn data_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("dq-e2e-data")
}

fn append(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn one(args: &Args) -> Result<ExitCode, String> {
    let name = args.text("workload").ok_or(USAGE)?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let seconds: f64 = args.get("seconds", 20.0)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cfg = RunConfig {
        workload,
        seed: args.get("seed", 7)?,
        seconds,
        traced: match args.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace: bad value `{other}`")),
        },
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        data: args.text("data").map_or_else(data_dir, PathBuf::from),
    };
    let result = run_workload(&cfg)?;
    print!("{}", table(&cfg, &result));
    if let Some(path) = args.text("out") {
        append(path, &record_line(&cfg, &result))?;
    }
    println!("{}", contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Every workload untraced, then every workload traced, each in its own
/// process so that counters and `peak_rss_mb` start clean.
fn all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name(), "--trace", trace]);
            for (name, value) in &args.flags {
                child.args([format!("--{name}"), value.clone()]);
            }
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let benchmark = args.text("benchmark").unwrap_or("BENCHMARK.json");
    let (report, ok) = compare(&read(a)?, &read(b)?, &read(benchmark)?)?;
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("all") => all(&args),
            Some("compare") => compare_files(&args),
            Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
            None => one(&args),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dq-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
