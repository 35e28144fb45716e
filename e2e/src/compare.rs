//! `dq-e2e compare <a> <b>`: two result files, side by side, against
//! the bounds `BENCHMARK.json` fixes. This is how "two sets of runs
//! agree" is checked, and how parent-versus-change is read: `a` is the
//! baseline, and a pair fails when `b` is worse by more than the bound.

use crate::json::{parse, Json};
use crate::metrics::median;
use std::collections::BTreeMap;

/// `(workload, metric) -> values` of a result file's untraced records.
fn end_to_end_values(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Compares `a` (baseline) with `b`; several records of one workload
/// count by their median. Returns the report and whether every pair is
/// within its bound.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<(String, bool), String> {
    let bench = parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (a, b) = (end_to_end_values(a)?, end_to_end_values(b)?);
    let mut report = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    let mut ok = true;
    for workload in bench.get("workloads").map_or(&[][..], Json::as_array) {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        for metric in bench.get("end_to_end").map_or(&[][..], Json::as_array) {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let key = (workload.to_owned(), name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                report.push_str(&format!(
                    "{workload:<16} {name:<14} missing from one side\n"
                ));
                ok = false;
                continue;
            };
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let change = (mb - ma) / ma;
            let worse = if higher { -change } else { change };
            let verdict = if worse > bound {
                ok = false;
                "WORSE, outside the bound"
            } else if -worse > bound {
                "better by more than the bound"
            } else {
                "within the bound"
            };
            report.push_str(&format!(
                "{workload:<16} {name:<14} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}%  {verdict}\n",
                change * 100.0,
                bound * 100.0
            ));
        }
    }
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"workloads":[{"name":"w","why":""}],
        "end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
                      {"name":"lat_us","unit":"us","better":"lower","bound":0.1}]}"#;

    fn file(ops: f64, lat: f64) -> String {
        format!(
            "{{\"workload\":\"w\",\"trace\":0,\"metrics\":{{\"ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\"}},\
             \"lat_us\":{{\"value\":{lat},\"unit\":\"us\"}}}}}}\n\
             {{\"workload\":\"w\",\"trace\":1,\"metrics\":{{\"ops_per_s\":{{\"value\":1,\"unit\":\"1/s\"}}}}}}\n"
        )
    }

    #[test]
    fn flags_only_what_got_worse_by_more_than_the_bound() {
        let (_, ok) = compare(&file(100.0, 50.0), &file(95.0, 54.0), BENCH).unwrap();
        assert!(ok);
        let (report, ok) = compare(&file(100.0, 50.0), &file(85.0, 50.0), BENCH).unwrap();
        assert!(!ok, "{report}");
        let (report, ok) = compare(&file(100.0, 50.0), &file(100.0, 56.0), BENCH).unwrap();
        assert!(!ok, "{report}");
        // better is never a failure, and the traced record is ignored
        let (_, ok) = compare(&file(100.0, 50.0), &file(150.0, 20.0), BENCH).unwrap();
        assert!(ok);
        assert!(compare("", "", BENCH).is_ok_and(|(_, ok)| !ok));
    }
}
