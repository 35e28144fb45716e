//! A 1-second smoke of each workload at small sizes: both gates pass,
//! every declared metric is reported, a traced request's parts sum to
//! its whole, and a seed fixes the statement stream and the counts.
//!
//! Workloads run as child processes, as they do for real: the `dq-obs`
//! registry is process-wide, and tests of one binary share a process.

use dq_e2e::json::{parse, Json};
use dq_e2e::metrics::{END_TO_END, PER_LAYER};
use dq_e2e::workload::{setup, Sizes, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn data_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Runs one workload and returns the result line.
fn run(workload: Workload, trace: &str, seed: &str, data: &PathBuf) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dq-e2e"))
        .args(["--workload", workload.name(), "--seconds", "1", "--smoke"])
        .args(["--trace", trace, "--seed", seed])
        .arg("--data")
        .arg(data)
        .output()
        .expect("spawn dq-e2e");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric `{metric}`"))
}

fn assert_reports(result: &Json, table: &[(&str, &str)]) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), table.len());
    for (name, unit) in table {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("no metric `{name}`"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
}

/// Every traced request: the spans under its wire span, residual
/// included, cover exactly the wire span.
fn assert_parts_sum_to_whole(trace: &str) {
    let mut wire: BTreeMap<u64, (i64, i64)> = BTreeMap::new(); // wire span id -> (duration, parts)
    for line in trace.lines() {
        let s = parse(line).expect("a span is JSON");
        let field = |k: &str| {
            s.get(k)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("span without {k}")) as i64
        };
        let duration = field("end_ns") - field("start_ns");
        if field("parent") == 0 {
            assert_eq!(s.get("name").and_then(Json::as_str), Some("wire"));
            wire.insert(field("id") as u64, (duration, 0));
        } else if let Some(w) = wire.get_mut(&(field("parent") as u64)) {
            w.1 += duration;
        }
    }
    assert!(!wire.is_empty(), "no traced request");
    for (id, (whole, parts)) in wire {
        assert_eq!(whole, parts, "request under span {id}");
    }
}

#[test]
fn every_workload_passes_its_gates_and_reports_every_metric() {
    let data = data_dir("smoke");
    for w in Workload::ALL {
        let untraced = run(w, "0", "7", &data);
        assert_reports(&untraced, END_TO_END);
        for (name, _) in END_TO_END {
            assert!(value(&untraced, name) > 0.0, "{}: {name} is 0", w.name());
        }
        let traced = run(w, "1", "7", &data);
        assert_reports(&traced, PER_LAYER);
        let trace = std::fs::read_to_string(data.join(format!("trace-{}.jsonl", w.name())))
            .expect("trace file");
        assert_parts_sum_to_whole(&trace);
    }
}

#[test]
fn a_seed_fixes_the_counts() {
    let data = data_dir("counts");
    for (w, metric) in [
        (Workload::PagedLookup, "storage.pool.page_reads_per_query"),
        (Workload::AnalyticScan, "qquery.exec.rows_out_per_query"),
    ] {
        let (a, b) = (run(w, "1", "11", &data), run(w, "1", "11", &data));
        assert!(value(&a, metric) > 0.0, "{metric} is 0");
        assert_eq!(value(&a, metric), value(&b, metric), "{metric}");
    }
}

#[test]
fn a_seed_fixes_the_statement_stream() {
    let data = data_dir("stream");
    let stream = |w: Workload, seed: u64| -> Vec<String> {
        let live = setup(w, Sizes::SMOKE, seed, &data.join(w.name()), false).expect("set-up");
        let sql = |id: u32| live.script.stmts[id as usize].sql.clone();
        live.script.period.iter().map(|s| sql(s.stmt)).collect()
    };
    for w in [Workload::PointRtt, Workload::TagWriteMix] {
        let a = stream(w, 5);
        assert_eq!(a, stream(w, 5), "{}", w.name());
        assert_ne!(a, stream(w, 6), "{}", w.name());
    }
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, declared);
}
