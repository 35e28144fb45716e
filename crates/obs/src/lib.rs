//! `dq-obs` — workspace-wide execution observability.
//!
//! The paper's §4 administrator toolkit presupposes an "electronic
//! trail": the data quality administrator must be able to see *how*
//! quality-filtered data was produced, not just the result. This crate
//! is the runtime half of that trail — a dependency-free metrics layer
//! every execution crate threads its decisions through:
//!
//! * [`Counter`] — a monotone atomic event counter (rows gathered,
//!   chunks executed, index maintenance events, SPC samples);
//! * [`Histogram`] — fixed-boundary latency distribution in
//!   microseconds (per-chunk timings, per-operator elapsed time);
//! * [`Span`] — a drop-guard timer recording into a histogram;
//! * [`MetricsRegistry`] — a named, process-global home for both, with
//!   [`MetricsRegistry::snapshot`] / [`Snapshot::render_text`] for
//!   dumps and [`Snapshot::validate`] as the CI gate that no metric is
//!   ever NaN or negative.
//!
//! Everything is `std`-only (no external crates, usable from shims) and
//! lock-free on the hot path: instrumented call sites resolve their
//! instrument once through [`counter!`]/[`histogram!`] and then touch
//! only atomics.
//!
//! ```
//! use dq_obs::registry;
//!
//! dq_obs::counter!("demo.events").incr();
//! let timings = registry().histogram("demo.us");
//! {
//!     let _t = timings.start();
//!     // ... timed work ...
//! }
//! let snap = registry().snapshot();
//! assert!(snap.validate().is_ok());
//! assert!(snap.counter("demo.events") >= 1);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A monotone event counter. All operations are relaxed atomics — the
/// counter observes execution, it never synchronizes it.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bucket boundaries in microseconds (each bucket counts samples
/// `<=` its boundary; one implicit overflow bucket catches the rest).
/// Roughly log-spaced from 1µs to 1s — operator kernels here live in the
/// µs-to-ms range.
pub const BUCKET_BOUNDS_US: [u64; 13] = [
    1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// Fixed-boundary histogram of microsecond durations.
#[derive(Debug)]
pub struct Histogram {
    /// `BUCKET_BOUNDS_US.len() + 1` buckets; the last is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..=BUCKET_BOUNDS_US.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration in microseconds.
    pub fn record_us(&self, us: u64) {
        let i = BUCKET_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records an elapsed [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Starts a [`Span`] that records into this histogram when dropped.
    pub fn start(&self) -> Span<'_> {
        Span {
            hist: self,
            begin: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// A span timer: measures from creation to drop and records the elapsed
/// time into its histogram.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    begin: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.begin.elapsed());
    }
}

/// Named home for counters and histograms. Instruments are created on
/// first use and live for the registry's lifetime; handles are `Arc`s,
/// so call sites can cache them and bypass the name lookup.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, h)| {
                let buckets = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum_us: h.sum_us(),
                        buckets,
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples in microseconds.
    pub sum_us: u64,
    /// Per-bucket sample counts ([`BUCKET_BOUNDS_US`] plus overflow).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample in microseconds (0.0 when empty — defined, not NaN).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`) to bucket resolution: the
    /// upper bound in microseconds of the bucket holding the `q`-th
    /// sample. 0 when empty; `u64::MAX` when that sample sits in the
    /// overflow bucket, which has no upper bound.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// A point-in-time copy of the registry, render- and validate-able.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Value of a counter (0 when it was never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Plain-text dump, one metric per line, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        // quantiles are bucket upper bounds, hence `<=`
        let bound = |us: u64| match us {
            u64::MAX => "inf".to_owned(),
            us => us.to_string(),
        };
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name} count={} sum_us={} mean_us={:.1} p50_us<={} p99_us<={}",
                h.count,
                h.sum_us,
                h.mean_us(),
                bound(h.quantile_us(0.5)),
                bound(h.quantile_us(0.99))
            );
        }
        out
    }

    /// The CI gate: every derived value must be finite and non-negative,
    /// and every histogram's bucket counts must sum to its sample count.
    /// Returns the list of violations (empty ⇒ `Ok`).
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for (name, h) in &self.histograms {
            let mean = h.mean_us();
            if !mean.is_finite() || mean < 0.0 {
                problems.push(format!("{name}: mean_us is {mean}"));
            }
            let bucket_total: u64 = h.buckets.iter().sum();
            if bucket_total != h.count {
                problems.push(format!(
                    "{name}: bucket sum {bucket_total} != count {}",
                    h.count
                ));
            }
            if h.buckets.len() != BUCKET_BOUNDS_US.len() + 1 {
                problems.push(format!("{name}: {} buckets", h.buckets.len()));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// The process-global registry every instrumented crate records into.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// Resolves a global [`Counter`] once per call site and caches the
/// handle in a static, so repeated hits cost one atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves a global [`Histogram`] once per call site (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let r = MetricsRegistry::default();
        let c = r.counter("a");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name → same instrument
        assert_eq!(r.counter("a").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new();
        h.record_us(0); // below first bound
        h.record_us(1);
        h.record_us(7);
        h.record_us(2_000_000); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 2_000_008);
        let r = MetricsRegistry::default();
        let hh = r.histogram("h");
        hh.record_us(3);
        let snap = r.snapshot();
        let hs = &snap.histograms["h"];
        assert_eq!(hs.count, 1);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 1);
        assert!((hs.mean_us() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let r = MetricsRegistry::default();
        let h = r.histogram("q.us");
        assert_eq!(r.snapshot().histograms["q.us"].quantile_us(0.5), 0);
        for _ in 0..98 {
            h.record_us(7); // bucket <= 10
        }
        h.record_us(300); // bucket <= 500
        h.record_us(2_000_000); // overflow
        let snap = r.snapshot();
        let hs = &snap.histograms["q.us"];
        assert_eq!(hs.quantile_us(0.0), 10);
        assert_eq!(hs.quantile_us(0.5), 10);
        assert_eq!(hs.quantile_us(0.98), 10);
        assert_eq!(hs.quantile_us(0.99), 500);
        assert_eq!(hs.quantile_us(1.0), u64::MAX);
        let text = snap.render_text();
        assert!(text.contains("p50_us<=10 p99_us<=500"), "{text}");
        h.record_us(2_000_000);
        h.record_us(2_000_000);
        assert!(r.snapshot().render_text().contains("p99_us<=inf"));
    }

    #[test]
    fn span_records_on_drop() {
        let r = MetricsRegistry::default();
        let h = r.histogram("span.us");
        {
            let _s = h.start();
        }
        assert_eq!(r.snapshot().histograms["span.us"].count, 1);
    }

    #[test]
    fn snapshot_renders_and_validates() {
        let r = MetricsRegistry::default();
        r.counter("x.events").add(3);
        r.histogram("x.us").record_us(10);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("x.events 3"), "{text}");
        assert!(text.contains("x.us count=1"), "{text}");
        assert!(snap.validate().is_ok());
        assert_eq!(snap.counter("x.events"), 3);
        assert_eq!(snap.counter("missing"), 0);
        // empty histogram has a defined (0.0) mean, not NaN
        r.histogram("empty.us");
        let snap = r.snapshot();
        assert_eq!(snap.histograms["empty.us"].mean_us(), 0.0);
        assert!(snap.validate().is_ok());
    }

    #[test]
    fn validate_catches_corruption() {
        let mut snap = Snapshot::default();
        snap.histograms.insert(
            "bad".into(),
            HistogramSnapshot {
                count: 2,
                sum_us: 5,
                buckets: vec![1; BUCKET_BOUNDS_US.len() + 1],
            },
        );
        let problems = snap.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("bucket sum")), "{problems:?}");
    }

    #[test]
    fn global_macros_share_instruments() {
        counter!("macro.events").incr();
        counter!("macro.events").incr();
        assert!(registry().snapshot().counter("macro.events") >= 2);
        let _ = histogram!("macro.us");
    }

    #[test]
    fn atomics_are_thread_safe() {
        let r = MetricsRegistry::default();
        let c = r.counter("t");
        let h = r.histogram("t.us");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                        h.record_us(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!(r.snapshot().validate().is_ok());
    }
}
