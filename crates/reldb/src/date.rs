//! A minimal proleptic-Gregorian calendar date, sufficient for quality
//! indicators such as *creation time* and *age* from the paper.
//!
//! The paper's running examples use dates like `10-24-91` ("on October 24,
//! 1991 the accounting department recorded ..."); [`Date::parse`] accepts
//! both that U.S. two-digit style and ISO `YYYY-MM-DD`.

use crate::error::{DbError, DbResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A calendar date stored as days since the civil epoch 1970-01-01.
///
/// Ordering and equality follow the timeline, so dates can be compared
/// directly in quality predicates such as `creation_time >= 1991-10-01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    days: i64,
}

/// Days-from-civil algorithm (Howard Hinnant's `days_from_civil`),
/// valid for the full proleptic Gregorian calendar.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`] (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// True iff `y` is a Gregorian leap year.
fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Number of days in month `m` of year `y`.
fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Date {
    /// Builds a date from year/month/day, validating the calendar.
    pub fn new(year: i64, month: u32, day: u32) -> DbResult<Self> {
        if !(1..=12).contains(&month) {
            return Err(DbError::ParseError(format!("month {month} out of range")));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(DbError::ParseError(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        Ok(Date {
            days: days_from_civil(year, month, day),
        })
    }

    /// Builds a date directly from days since 1970-01-01.
    pub fn from_days(days: i64) -> Self {
        Date { days }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    pub fn days(&self) -> i64 {
        self.days
    }

    /// Decomposes into `(year, month, day)`.
    pub fn ymd(&self) -> (i64, u32, u32) {
        civil_from_days(self.days)
    }

    /// Date shifted by a signed number of days.
    pub fn plus_days(&self, delta: i64) -> Self {
        Date {
            days: self.days + delta,
        }
    }

    /// Signed distance `self - other` in days: positive when `self` is later.
    pub fn days_between(&self, other: &Date) -> i64 {
        self.days - other.days
    }

    /// Parses `YYYY-MM-DD`, `MM-DD-YY` (paper style, 19xx assumed for
    /// two-digit years ≥ 70, 20xx otherwise), or `MM-DD-YYYY`.
    /// `/` is accepted in place of `-`.
    pub fn parse(s: &str) -> DbResult<Self> {
        let norm = s.replace('/', "-");
        let parts: Vec<&str> = norm.split('-').collect();
        if parts.len() != 3 {
            return Err(DbError::ParseError(format!("bad date `{s}`")));
        }
        let nums: Vec<i64> = parts
            .iter()
            .map(|p| {
                p.trim()
                    .parse::<i64>()
                    .map_err(|_| DbError::ParseError(format!("bad date component `{p}` in `{s}`")))
            })
            .collect::<DbResult<_>>()?;
        let (y, m, d) = if parts[0].len() == 4 {
            // ISO: YYYY-MM-DD
            (nums[0], nums[1], nums[2])
        } else if parts[2].len() == 4 {
            // US long: MM-DD-YYYY
            (nums[2], nums[0], nums[1])
        } else {
            // US short as in the paper: MM-DD-YY
            let yy = nums[2];
            let year = if yy >= 70 { 1900 + yy } else { 2000 + yy };
            (year, nums[0], nums[1])
        };
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(DbError::ParseError(format!("bad date `{s}`")));
        }
        Date::new(y, m as u32, d as u32)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.days(), 0);
        assert_eq!(d.to_string(), "1970-01-01");
    }

    #[test]
    fn roundtrip_ymd() {
        for &(y, m, d) in &[
            (1991i64, 10u32, 24u32),
            (2000, 2, 29),
            (1900, 12, 31),
            (2026, 7, 6),
            (1969, 12, 31),
        ] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(1991, 2, 29).is_err()); // 1991 not a leap year
        assert!(Date::new(1991, 13, 1).is_err());
        assert!(Date::new(1991, 4, 31).is_err());
        assert!(Date::new(1991, 0, 1).is_err());
        assert!(Date::new(1991, 1, 0).is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(Date::new(2000, 2, 29).is_ok()); // divisible by 400
        assert!(Date::new(1900, 2, 29).is_err()); // divisible by 100 only
        assert!(Date::new(1992, 2, 29).is_ok()); // divisible by 4
    }

    #[test]
    fn parses_paper_style() {
        // Table 2 of the paper: (10-24-91, acct'g)
        let d = Date::parse("10-24-91").unwrap();
        assert_eq!(d.ymd(), (1991, 10, 24));
        let d = Date::parse("1-2-91").unwrap();
        assert_eq!(d.ymd(), (1991, 1, 2));
    }

    #[test]
    fn parses_iso_and_us_long() {
        assert_eq!(Date::parse("1991-10-24").unwrap().ymd(), (1991, 10, 24));
        assert_eq!(Date::parse("10/24/1991").unwrap().ymd(), (1991, 10, 24));
        assert_eq!(Date::parse("10-24-2026").unwrap().ymd(), (2026, 10, 24));
    }

    #[test]
    fn two_digit_year_pivot() {
        assert_eq!(Date::parse("1-1-70").unwrap().ymd().0, 1970);
        assert_eq!(Date::parse("1-1-69").unwrap().ymd().0, 2069);
        assert_eq!(Date::parse("1-1-05").unwrap().ymd().0, 2005);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Date::parse("not-a-date").is_err());
        assert!(Date::parse("1991-10").is_err());
        assert!(Date::parse("").is_err());
        assert!(Date::parse("99-99-99").is_err());
    }

    #[test]
    fn ordering_follows_timeline() {
        let a = Date::parse("10-3-91").unwrap();
        let b = Date::parse("10-9-91").unwrap();
        assert!(a < b);
        assert_eq!(b.days_between(&a), 6);
        assert_eq!(a.plus_days(6), b);
    }

    #[test]
    fn arithmetic_crosses_boundaries() {
        let d = Date::new(1991, 12, 31).unwrap();
        assert_eq!(d.plus_days(1).ymd(), (1992, 1, 1));
        let d = Date::new(1992, 3, 1).unwrap();
        assert_eq!(d.plus_days(-1).ymd(), (1992, 2, 29));
    }
}
