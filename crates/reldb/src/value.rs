//! Runtime values and their static types.
//!
//! [`Value`] is the single dynamic value representation used throughout the
//! suite — plain relations, tagged cells, quality indicator values and
//! quality parameter values all carry `Value`s. It deliberately implements
//! a *total* order (`Ord`) so values can key B-tree indexes; `Null` sorts
//! first and floats use an IEEE total order.

use crate::date::Date;
use crate::error::{DbError, DbResult};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean truth value.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Calendar date (see [`Date`]).
    Date,
    /// Absence-of-constraint: any value is admissible. Used for quality
    /// indicator dictionaries where an indicator's domain is open.
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "Bool",
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Text => "Text",
            DataType::Date => "Date",
            DataType::Any => "Any",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style null / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor from `&str`.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// The value's runtime type, or `None` for `Null` (null is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks that this value may inhabit a column of type `ty`
    /// (`Null` inhabits every type; `Any` admits every value).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (_, DataType::Any) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// Extracts an `i64`, accepting exact floats too.
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(DbError::TypeMismatch {
                expected: "Int".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Extracts an `f64`, widening integers.
    pub fn as_float(&self) -> DbResult<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(DbError::TypeMismatch {
                expected: "Float".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Extracts a string slice.
    pub fn as_text(&self) -> DbResult<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(DbError::TypeMismatch {
                expected: "Text".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Short name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Text(_) => "Text",
            Value::Date(_) => "Date",
        }
    }

    /// Attempts to coerce this value to `ty`. Numeric widening/narrowing
    /// (when lossless) and text→date/number parsing are supported; this is
    /// how CSV import and user input enter the typed engine.
    pub fn coerce_to(&self, ty: DataType) -> DbResult<Value> {
        if self.conforms_to(ty) {
            return Ok(self.clone());
        }
        let err = || DbError::TypeMismatch {
            expected: ty.to_string(),
            found: self.type_name().into(),
        };
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Ok(Value::Int(*f as i64)),
            (Value::Text(s), DataType::Int) => s
                .trim()
                .replace(',', "")
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err()),
            (Value::Text(s), DataType::Float) => s
                .trim()
                .replace(',', "")
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err()),
            (Value::Text(s), DataType::Date) => Date::parse(s).map(Value::Date),
            (Value::Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "no" | "0" => Ok(Value::Bool(false)),
                _ => Err(err()),
            },
            _ => Err(err()),
        }
    }

    /// Rank used to order values of *different* types in the total order:
    /// Null < Bool < numeric < Text < Date.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash identically when numerically equal with
            // integral float, to stay consistent with Eq across the
            // Int/Float comparison above. Integral floats hash as ints.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_and_types() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::text("x").type_name(), "Text");
    }

    #[test]
    fn null_conforms_to_everything() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Date,
            DataType::Any,
        ] {
            assert!(Value::Null.conforms_to(ty));
        }
    }

    #[test]
    fn any_admits_everything() {
        assert!(Value::Int(3).conforms_to(DataType::Any));
        assert!(Value::text("x").conforms_to(DataType::Any));
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = [Value::text("b"),
            Value::Null,
            Value::Int(1),
            Value::Bool(true),
            Value::Date(Date::from_days(10)),
            Value::Float(0.5)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(0.5));
        assert_eq!(vals[3], Value::Int(1));
        assert_eq!(vals[4], Value::text("b"));
        assert_eq!(vals[5], Value::Date(Date::from_days(10)));
    }

    #[test]
    fn nan_has_a_place_in_the_order() {
        // total_cmp puts NaN above +inf; what matters is sort doesn't panic.
        let mut vals = [Value::Float(f64::NAN), Value::Float(1.0), Value::Float(-1.0)];
        vals.sort();
        assert_eq!(vals[0], Value::Float(-1.0));
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn extraction_errors() {
        assert!(Value::text("x").as_int().is_err());
        assert!(Value::Int(1).as_text().is_err());
        assert_eq!(Value::Float(3.0).as_int().unwrap(), 3);
        assert!(Value::Float(3.5).as_int().is_err());
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::text("4,004").coerce_to(DataType::Int).unwrap(),
            Value::Int(4004)
        );
        assert_eq!(
            Value::text("10-24-91").coerce_to(DataType::Date).unwrap(),
            Value::Date(Date::new(1991, 10, 24).unwrap())
        );
        assert_eq!(
            Value::Int(2).coerce_to(DataType::Float).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            Value::text("yes").coerce_to(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::text("abc").coerce_to(DataType::Int).is_err());
        assert!(Value::Bool(true).coerce_to(DataType::Date).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::text("Fruit Co").to_string(), "Fruit Co");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from("s"), Value::text("s"));
    }
}
