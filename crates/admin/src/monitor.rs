//! Process-based inspection triggers.
//!
//! §4: inspection specifications may "include process-based mechanisms
//! such as prompting for data inspection on a periodic basis or in the
//! event of peculiar data." Two triggers implement that sentence:
//!
//! * [`InspectionSchedule`] — the periodic prompt;
//! * [`PeculiarDataDetector`] — a robust z-score outlier detector that
//!   flags rows whose values are statistically peculiar relative to a
//!   baseline, prompting targeted inspection.

use relstore::{Date, DbResult, Value};
use serde::{Deserialize, Serialize};
use tagstore::TaggedRelation;

/// Periodic inspection schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InspectionSchedule {
    /// Inspect every this-many days.
    pub every_days: i64,
    /// When the last inspection ran (None → never).
    pub last_run: Option<Date>,
}

impl InspectionSchedule {
    /// New schedule that has never run.
    pub fn every(days: i64) -> Self {
        InspectionSchedule {
            every_days: days.max(1),
            last_run: None,
        }
    }

    /// True iff an inspection is due on `today`.
    ///
    /// A `last_run` in the *future* of `today` (clock skew, a corrected
    /// system date, or a restored backup) makes the elapsed day count
    /// negative; that is treated as immediately due rather than pushing
    /// the next inspection past its period indefinitely.
    pub fn due(&self, today: Date) -> bool {
        match self.last_run {
            None => true,
            Some(last) => {
                let elapsed = today.days_between(&last);
                elapsed < 0 || elapsed >= self.every_days
            }
        }
    }

    /// Records that an inspection ran on `today`.
    pub fn mark_run(&mut self, today: Date) {
        self.last_run = Some(today);
    }
}

/// A row flagged as peculiar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeculiarRow {
    /// Row index in the monitored relation.
    pub row: usize,
    /// The peculiar value.
    pub value: Value,
    /// Its robust z-score.
    pub z: f64,
}

/// Flags numeric values far from the baseline median (robust z-score via
/// the median absolute deviation, so a burst of bad data cannot mask
/// itself by inflating the mean).
#[derive(Debug, Clone)]
pub struct PeculiarDataDetector {
    median: f64,
    /// MAD scaled to be sigma-comparable (×1.4826).
    scale: f64,
    /// Flag |z| above this.
    pub z_threshold: f64,
}

fn median_of(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

impl PeculiarDataDetector {
    /// Fits on a numeric baseline; returns `None` for an empty baseline.
    pub fn fit(baseline: &[f64], z_threshold: f64) -> Option<Self> {
        let median = median_of(baseline.to_vec())?;
        let deviations: Vec<f64> = baseline.iter().map(|x| (x - median).abs()).collect();
        let mad = median_of(deviations)?;
        Some(PeculiarDataDetector {
            median,
            scale: mad * 1.4826,
            z_threshold,
        })
    }

    /// Robust z-score of one value. With zero spread, any deviation is
    /// infinitely peculiar.
    pub fn z(&self, x: f64) -> f64 {
        if self.scale == 0.0 {
            if x == self.median {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (x - self.median) / self.scale
        }
    }

    /// Scans a numeric column of a tagged relation; NULL and non-numeric
    /// values are skipped (missingness is the completeness dimension's
    /// business, not peculiarity's).
    pub fn scan(&self, rel: &TaggedRelation, column: &str) -> DbResult<Vec<PeculiarRow>> {
        let ci = rel.schema().resolve(column)?;
        let mut out = Vec::new();
        for (i, row) in rel.iter().enumerate() {
            let x = match &row[ci].value {
                Value::Int(v) => *v as f64,
                Value::Float(v) => *v,
                _ => continue,
            };
            let z = self.z(x);
            if z.abs() > self.z_threshold {
                out.push(PeculiarRow {
                    row: i,
                    value: row[ci].value.clone(),
                    z,
                });
            }
        }
        Ok(out)
    }
}

/// Why the monitor prompted for inspection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InspectionPrompt {
    /// The periodic schedule came due.
    Periodic,
    /// Peculiar data appeared.
    PeculiarData {
        /// The flagged rows.
        rows: Vec<PeculiarRow>,
    },
}

/// Combines the two §4 triggers over one monitored column.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    /// Periodic trigger.
    pub schedule: InspectionSchedule,
    /// Peculiarity trigger.
    pub detector: PeculiarDataDetector,
    /// Monitored column.
    pub column: String,
}

impl QualityMonitor {
    /// Evaluates both triggers; prompts are returned in priority order
    /// (peculiar data first — it is actionable immediately).
    pub fn check(&mut self, rel: &TaggedRelation, today: Date) -> DbResult<Vec<InspectionPrompt>> {
        dq_obs::counter!("admin.monitor.checks").incr();
        let mut prompts = Vec::new();
        let peculiar = self.detector.scan(rel, &self.column)?;
        if !peculiar.is_empty() {
            dq_obs::counter!("admin.monitor.peculiar_rows").add(peculiar.len() as u64);
            prompts.push(InspectionPrompt::PeculiarData { rows: peculiar });
        }
        if self.schedule.due(today) {
            prompts.push(InspectionPrompt::Periodic);
            self.schedule.mark_run(today);
        }
        dq_obs::counter!("admin.monitor.prompts").add(prompts.len() as u64);
        Ok(prompts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, Schema};
    use tagstore::{IndicatorDictionary, QualityCell};

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn rel(values: &[i64]) -> TaggedRelation {
        let schema = Schema::of(&[("v", DataType::Int)]);
        TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            values.iter().map(|&v| vec![QualityCell::bare(v)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn schedule_periodicity() {
        let mut s = InspectionSchedule::every(7);
        assert!(s.due(d("10-1-91"))); // never ran
        s.mark_run(d("10-1-91"));
        assert!(!s.due(d("10-5-91")));
        assert!(s.due(d("10-8-91")));
        assert!(s.due(d("11-1-91")));
    }

    #[test]
    fn schedule_clamps_zero_period() {
        let s = InspectionSchedule::every(0);
        assert_eq!(s.every_days, 1);
    }

    /// Regression: a `last_run` in the future of `today` (clock skew, a
    /// corrected system date) used to make `due` never fire — the
    /// negative elapsed count stayed below `every_days` until the wall
    /// clock caught up. It now clamps: skewed schedules are due now.
    #[test]
    fn schedule_survives_future_dated_last_run() {
        let mut s = InspectionSchedule::every(7);
        s.mark_run(d("11-15-91"));
        let today = d("10-1-91"); // 45 days before last_run
        assert!(s.due(today));
        // re-running today repairs the schedule
        s.mark_run(today);
        assert!(!s.due(d("10-2-91")));
    }

    #[test]
    fn detector_flags_outliers_robustly() {
        let baseline: Vec<f64> = (0..100).map(|i| 100.0 + (i % 7) as f64).collect();
        let det = PeculiarDataDetector::fit(&baseline, 3.5).unwrap();
        let data = rel(&[101, 103, 4004, 99, 105, -50]);
        let flagged = det.scan(&data, "v").unwrap();
        let rows: Vec<usize> = flagged.iter().map(|p| p.row).collect();
        assert_eq!(rows, vec![2, 5]);
        assert!(flagged[0].z > 0.0 && flagged[1].z < 0.0);
    }

    #[test]
    fn detector_zero_spread() {
        let det = PeculiarDataDetector::fit(&[5.0, 5.0, 5.0], 3.0).unwrap();
        assert_eq!(det.z(5.0), 0.0);
        assert!(det.z(5.1).is_infinite());
        let flagged = det.scan(&rel(&[5, 5, 6]), "v").unwrap();
        assert_eq!(flagged.len(), 1);
    }

    #[test]
    fn detector_ignores_nulls_and_text() {
        let schema = Schema::of(&[("v", DataType::Any)]);
        let data = TaggedRelation::new(
            schema,
            IndicatorDictionary::with_paper_defaults(),
            vec![
                vec![QualityCell::bare(Value::Null)],
                vec![QualityCell::bare("text")],
                vec![QualityCell::bare(1_000_000i64)],
            ],
        )
        .unwrap();
        let det = PeculiarDataDetector::fit(&[1.0, 2.0, 3.0, 2.0], 3.5).unwrap();
        let flagged = det.scan(&data, "v").unwrap();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].row, 2);
    }

    #[test]
    fn detector_empty_baseline() {
        assert!(PeculiarDataDetector::fit(&[], 3.0).is_none());
    }

    #[test]
    fn monitor_combines_triggers() {
        let baseline: Vec<f64> = (0..50).map(|i| 700.0 + (i % 5) as f64).collect();
        let mut mon = QualityMonitor {
            schedule: InspectionSchedule::every(30),
            detector: PeculiarDataDetector::fit(&baseline, 3.5).unwrap(),
            column: "v".into(),
        };
        // first check: periodic due (never ran) + one peculiar row
        let prompts = mon.check(&rel(&[701, 702, 9999]), d("10-1-91")).unwrap();
        assert_eq!(prompts.len(), 2);
        assert!(matches!(prompts[0], InspectionPrompt::PeculiarData { .. }));
        assert!(matches!(prompts[1], InspectionPrompt::Periodic));
        // clean data soon after: nothing fires
        let prompts = mon.check(&rel(&[700, 703]), d("10-5-91")).unwrap();
        assert!(prompts.is_empty());
        // period elapses: periodic fires again
        let prompts = mon.check(&rel(&[700]), d("11-5-91")).unwrap();
        assert_eq!(prompts.len(), 1);
        assert!(matches!(prompts[0], InspectionPrompt::Periodic));
    }

    #[test]
    fn unknown_column_errors() {
        let det = PeculiarDataDetector::fit(&[1.0, 2.0], 3.0).unwrap();
        assert!(det.scan(&rel(&[1]), "ghost").is_err());
    }
}
