//! Statistical process control for data manufacturing.
//!
//! §4: inspection specifications "may be included such as those for
//! statistical process control" — the quality-control lineage the paper
//! inherits from Shewhart \[20\] and Deming \[8\]. Implemented here:
//!
//! * [`IndividualsChart`] — Shewhart individuals chart with the four
//!   classic Western Electric run rules,
//! * [`PChart`] — proportion-nonconforming chart for error rates
//!   (e.g. the per-batch violation rate from the inspection engine).

use serde::{Deserialize, Serialize};

/// A point judged by a chart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signal {
    /// Index of the offending point in the monitored series.
    pub index: usize,
    /// Which rule fired.
    pub rule: String,
    /// Explanation.
    pub detail: String,
}

/// Feeds one chart evaluation into the global metrics registry: how many
/// sample points were judged and how many signals fired.
fn record_evaluation(samples: usize, signals: usize) {
    dq_obs::counter!("admin.spc.samples").add(samples as u64);
    dq_obs::counter!("admin.spc.signals").add(signals as u64);
}

/// Shewhart individuals chart with Western Electric rules.
#[derive(Debug, Clone)]
pub struct IndividualsChart {
    mean: f64,
    sigma: f64,
}

impl IndividualsChart {
    /// Fits center line and sigma from a baseline sample using the moving
    /// range (MR̄ / 1.128), the standard individuals-chart estimator.
    pub fn fit(baseline: &[f64]) -> Option<Self> {
        if baseline.len() < 2 {
            return None;
        }
        let mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
        let mr: f64 = baseline
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .sum::<f64>()
            / (baseline.len() - 1) as f64;
        Some(IndividualsChart {
            mean,
            sigma: mr / 1.128,
        })
    }

    /// Explicit parameters.
    pub fn with_params(mean: f64, sigma: f64) -> Self {
        IndividualsChart { mean, sigma }
    }

    /// Applies Western Electric rules 1–4 to a monitored series:
    /// 1. one point beyond 3σ;
    /// 2. two of three consecutive beyond 2σ (same side);
    /// 3. four of five consecutive beyond 1σ (same side);
    /// 4. eight consecutive on one side of the center line.
    pub fn evaluate(&self, series: &[f64]) -> Vec<Signal> {
        let mut signals = Vec::new();
        if self.sigma <= 0.0 {
            // a zero-variance baseline: any deviation is rule 1
            for (i, &x) in series.iter().enumerate() {
                if x != self.mean {
                    signals.push(Signal {
                        index: i,
                        rule: "WE1".into(),
                        detail: format!("{x} deviates from a zero-variance baseline"),
                    });
                }
            }
            record_evaluation(series.len(), signals.len());
            return signals;
        }
        let z: Vec<f64> = series.iter().map(|x| (x - self.mean) / self.sigma).collect();
        for (i, &zi) in z.iter().enumerate() {
            if zi.abs() > 3.0 {
                signals.push(Signal {
                    index: i,
                    rule: "WE1".into(),
                    detail: format!("point at {:.2}σ beyond the 3σ limit", zi),
                });
            }
            if i >= 2 {
                let w = &z[i - 2..=i];
                for sign in [1.0, -1.0] {
                    if w.iter().filter(|&&v| v * sign > 2.0).count() >= 2 {
                        signals.push(Signal {
                            index: i,
                            rule: "WE2".into(),
                            detail: "two of three consecutive points beyond 2σ".into(),
                        });
                        break;
                    }
                }
            }
            if i >= 4 {
                let w = &z[i - 4..=i];
                for sign in [1.0, -1.0] {
                    if w.iter().filter(|&&v| v * sign > 1.0).count() >= 4 {
                        signals.push(Signal {
                            index: i,
                            rule: "WE3".into(),
                            detail: "four of five consecutive points beyond 1σ".into(),
                        });
                        break;
                    }
                }
            }
            if i >= 7 {
                let w = &z[i - 7..=i];
                if w.iter().all(|&v| v > 0.0) || w.iter().all(|&v| v < 0.0) {
                    signals.push(Signal {
                        index: i,
                        rule: "WE4".into(),
                        detail: "eight consecutive points on one side of center".into(),
                    });
                }
            }
        }
        record_evaluation(series.len(), signals.len());
        signals
    }

    /// True iff the series raises no signal.
    pub fn in_control(&self, series: &[f64]) -> bool {
        self.evaluate(series).is_empty()
    }
}

/// p-chart: proportion of nonconforming items per batch.
#[derive(Debug, Clone)]
pub struct PChart {
    p_bar: f64,
    batch_size: usize,
}

impl PChart {
    /// Fits from baseline `(nonconforming, batch_size)` counts with a
    /// common batch size.
    pub fn fit(nonconforming: &[usize], batch_size: usize) -> Option<Self> {
        if batch_size == 0 || nonconforming.is_empty() {
            return None;
        }
        let total: usize = nonconforming.iter().sum();
        let p_bar = total as f64 / (batch_size * nonconforming.len()) as f64;
        Some(PChart { p_bar, batch_size })
    }

    /// Explicit parameters.
    pub fn with_params(p_bar: f64, batch_size: usize) -> Self {
        PChart { p_bar, batch_size }
    }

    /// Control limits `(lcl, ucl)` (LCL floored at 0, UCL capped at 1).
    pub fn limits(&self) -> (f64, f64) {
        let s = (self.p_bar * (1.0 - self.p_bar) / self.batch_size as f64).sqrt();
        ((self.p_bar - 3.0 * s).max(0.0), (self.p_bar + 3.0 * s).min(1.0))
    }

    /// Evaluates batches of nonconforming counts.
    pub fn evaluate(&self, nonconforming: &[usize]) -> Vec<Signal> {
        let (lcl, ucl) = self.limits();
        let signals: Vec<Signal> = nonconforming
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| {
                let p = x as f64 / self.batch_size as f64;
                (p < lcl || p > ucl).then(|| Signal {
                    index: i,
                    rule: "p".into(),
                    detail: format!("error rate {p:.4} outside [{lcl:.4}, {ucl:.4}]"),
                })
            })
            .collect();
        record_evaluation(nonconforming.len(), signals.len());
        signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_ticks_spc_counters() {
        let c = IndividualsChart::with_params(10.0, 0.2);
        let before = dq_obs::registry().snapshot();
        let signals = c.evaluate(&[10.1, 9.9, 13.0, 10.0]);
        assert!(!signals.is_empty());
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("admin.spc.samples") >= before.counter("admin.spc.samples") + 4);
        assert!(after.counter("admin.spc.signals") > before.counter("admin.spc.signals"));
    }

    #[test]
    fn individuals_fit() {
        let baseline = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9];
        let c = IndividualsChart::fit(&baseline).unwrap();
        assert!((c.mean - 10.0).abs() < 0.1);
        assert!(c.sigma > 0.0);
        assert!(IndividualsChart::fit(&[1.0]).is_none());
    }

    #[test]
    fn we1_spike_detected() {
        let c = IndividualsChart::with_params(10.0, 0.2);
        let series = [10.1, 9.9, 13.0, 10.0];
        let sig = c.evaluate(&series);
        assert!(sig.iter().any(|s| s.rule == "WE1" && s.index == 2));
        assert!(!c.in_control(&series));
        assert!(c.in_control(&[10.0, 10.1, 9.9]));
    }

    #[test]
    fn we2_two_of_three_beyond_two_sigma() {
        let c = IndividualsChart::with_params(0.0, 1.0);
        let series = [2.5, 0.0, 2.6];
        let sig = c.evaluate(&series);
        assert!(sig.iter().any(|s| s.rule == "WE2"));
        // opposite sides do not trigger
        let sig = c.evaluate(&[2.5, 0.0, -2.6]);
        assert!(!sig.iter().any(|s| s.rule == "WE2"));
    }

    #[test]
    fn we3_four_of_five_beyond_one_sigma() {
        let c = IndividualsChart::with_params(0.0, 1.0);
        let series = [1.5, 1.4, 0.0, 1.2, 1.3];
        let sig = c.evaluate(&series);
        assert!(sig.iter().any(|s| s.rule == "WE3"));
    }

    #[test]
    fn we4_run_of_eight() {
        let c = IndividualsChart::with_params(0.0, 1.0);
        let series = [0.3, 0.2, 0.4, 0.1, 0.5, 0.2, 0.3, 0.4];
        let sig = c.evaluate(&series);
        assert!(sig.iter().any(|s| s.rule == "WE4" && s.index == 7));
        // mixed signs break the run
        let series = [0.3, 0.2, -0.4, 0.1, 0.5, 0.2, 0.3, 0.4];
        assert!(!c.evaluate(&series).iter().any(|s| s.rule == "WE4"));
    }

    #[test]
    fn zero_variance_baseline() {
        let c = IndividualsChart::with_params(5.0, 0.0);
        assert!(c.in_control(&[5.0, 5.0]));
        assert!(!c.in_control(&[5.0, 5.1]));
    }

    #[test]
    fn p_chart_error_rates() {
        // baseline: ~2% error rate in batches of 500
        let baseline = [10, 9, 11, 10, 12, 8, 10, 10];
        let c = PChart::fit(&baseline, 500).unwrap();
        let (lcl, ucl) = c.limits();
        assert!(lcl >= 0.0 && ucl <= 1.0 && ucl > 0.02);
        assert!(c.evaluate(&[10, 11, 9]).is_empty());
        // a defective batch (8% errors) signals
        let sig = c.evaluate(&[40]);
        assert_eq!(sig.len(), 1);
        assert!(PChart::fit(&[], 500).is_none());
        assert!(PChart::fit(&[1], 0).is_none());
    }
}
