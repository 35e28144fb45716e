//! The names every later issue uses: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` declares the
//! same lists (a test keeps the two in step) and adds, per metric, the
//! direction and the bound.

/// `(name, unit)` of each end-to-end metric, reported by every workload
/// on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of each per-layer metric, reported on a traced run.
/// A metric whose layer a workload does not exercise reads 0 there.
///
/// The first seven are what a client sees. They sit here and not in
/// [`END_TO_END`] because an end-to-end metric must be non-zero on
/// every workload and repeat within its bound on every workload: the
/// write, recovery and disk metrics belong to one or two workloads, and
/// the read tail does not repeat (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_p95_us", "us"),
    ("query_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_after_write_p50_us", "us"),
    ("recovery_s", "s"),
    ("disk_bytes_per_row", "B"),
    ("server.protocol.req_frame_us", "us"),
    ("server.protocol.resp_frame_us", "us"),
    ("server.protocol.resp_bytes", "B"),
    ("server.session.render_us", "us"),
    ("server.stmt_cache.hit_rate", "ratio"),
    ("server.stmt_cache.invalidations_per_write", "count"),
    ("server.errors", "count"),
    ("server.wire_residual_us", "us"),
    ("server.wire_residual_share", "ratio"),
    ("server.catalog.commit_write_us", "us"),
    ("qquery.cache.normalize_us", "us"),
    ("qquery.cache.hit_us", "us"),
    ("qquery.parser.parse_us", "us"),
    ("qquery.plan.plan_us", "us"),
    ("qquery.plan.optimize_us", "us"),
    ("qquery.exec.execute_us", "us"),
    ("qquery.exec.execute_us.join_agg", "us"),
    ("qquery.exec.execute_us.group_agg", "us"),
    ("qquery.exec.execute_us.filter_count", "us"),
    ("qquery.exec.execute_us.filter_project", "us"),
    ("qquery.exec.rows_out_per_query", "count"),
    ("qquery.exec.prepare_write_us", "us"),
    ("tagdb.index.lazy_build_us", "us"),
    ("tagdb.index.rebuilds_per_write", "count"),
    ("tagdb.bitmap.candidate_rows_per_row_out", "ratio"),
    ("reldb.par.threads_spawned_per_query", "count"),
    ("storage.pool.hit_rate", "ratio"),
    ("storage.pool.page_reads_per_query", "count"),
    ("storage.pool.evictions_per_query", "count"),
    ("storage.pool.readahead_pages_per_query", "count"),
    ("storage.db.select_indexed_us", "us"),
    ("storage.db.candidate_rows_per_row_out", "ratio"),
    ("storage.wal.commit_us", "us"),
    ("storage.wal.commit_p99_us", "us"),
    ("storage.wal.bytes_per_write", "B"),
    ("storage.wal.fsyncs_per_write", "count"),
    ("storage.checkpoint.checkpoint_us", "us"),
    ("storage.checkpoint.pages_flushed", "count"),
    ("storage.db.open_us", "us"),
    ("storage.db.replayed_records", "count"),
    ("obs.trace_overhead_share", "ratio"),
    ("workloads.generate_s", "s"),
];

/// One reported number. `n` is the sample count behind a timing
/// quantile, 0 for a count, a ratio or a single measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

type Table = &'static [(&'static str, &'static str)];

/// The metrics of one run, all from one of the two tables.
#[derive(Debug)]
pub struct Metrics {
    table: Table,
    pub values: Vec<Metric>,
}

impl Metrics {
    pub fn new(table: Table) -> Metrics {
        Metrics {
            table,
            values: Vec::new(),
        }
    }

    /// Records `name`, which the table must declare.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(valid_name(name), "metric name `{name}`");
        self.values.push(Metric {
            name,
            unit,
            value,
            n,
        });
    }

    /// Every metric of the table, in its order; an unrecorded one reads 0.
    pub fn complete(mut self) -> Metrics {
        self.values = self
            .table
            .iter()
            .map(|&(name, unit)| {
                let at = self.values.iter().position(|m| m.name == name);
                at.map(|i| self.values.swap_remove(i)).unwrap_or(Metric {
                    name,
                    unit,
                    value: 0.0,
                    n: 0,
                })
            })
            .collect();
        self
    }
}

/// Names are `[A-Za-z0-9_.-]+`, as the result files and the trace
/// files assume.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Nearest-rank quantile of raw samples (sorted in place); 0 when there
/// are none.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
