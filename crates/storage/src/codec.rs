//! In-crate binary serialization for everything the WAL and checkpoints
//! persist: values, rows, schemas, quality cells with recursive meta
//! tags, indicator dictionaries, and audit events.
//!
//! The format is a plain little-endian TLV scheme — no crates.io
//! serializers exist in this build. Readers are strict: every length is
//! bounds-checked and every tag byte must be known, so a corrupt or
//! truncated buffer decodes to an error, never to garbage state.

use dq_admin::{AuditAction, AuditEvent};
use relstore::{ColumnDef, DataType, Date, DbError, DbResult, Row, Schema, Value};
use tagstore::{IndicatorDef, IndicatorValue, QualityCell, TaggedRow};

/// Byte-stream writer. All `put_*` are infallible appends.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A [`Value`]: one type byte plus payload.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_u8(*b as u8);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(3);
                self.put_u64(f.to_bits());
            }
            Value::Text(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Value::Date(d) => {
                self.put_u8(5);
                self.put_i64(d.days());
            }
        }
    }

    /// A row of values.
    pub fn put_row(&mut self, row: &Row) {
        self.put_u32(row.len() as u32);
        for v in row {
            self.put_value(v);
        }
    }

    /// A [`DataType`] as one byte.
    pub fn put_dtype(&mut self, t: DataType) {
        self.put_u8(match t {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
            DataType::Date => 4,
            DataType::Any => 5,
        });
    }

    /// A [`Schema`]: column count, then (name, dtype, nullable) triples.
    pub fn put_schema(&mut self, s: &Schema) {
        self.put_u32(s.arity() as u32);
        for c in s.columns() {
            self.put_str(&c.name);
            self.put_dtype(c.dtype);
            self.put_u8(c.nullable as u8);
        }
    }

    /// An [`IndicatorValue`] with its meta-tag tree, recursively.
    pub fn put_tag(&mut self, t: &IndicatorValue) {
        self.put_str(t.indicator.as_str());
        self.put_value(&t.value);
        self.put_u32(t.meta.len() as u32);
        for m in &t.meta {
            self.put_tag(m);
        }
    }

    /// A [`QualityCell`]: value plus its (sorted) tag vector.
    pub fn put_cell(&mut self, c: &QualityCell) {
        self.put_value(&c.value);
        let tags = c.tags();
        self.put_u32(tags.len() as u32);
        for t in tags {
            self.put_tag(t);
        }
    }

    /// A tagged row.
    pub fn put_tagged_row(&mut self, row: &TaggedRow) {
        self.put_u32(row.len() as u32);
        for c in row.iter() {
            self.put_cell(c);
        }
    }

    /// An [`IndicatorDef`].
    pub fn put_indicator_def(&mut self, d: &IndicatorDef) {
        self.put_str(&d.name);
        self.put_dtype(d.dtype);
        self.put_str(&d.description);
    }

    /// An [`AuditEvent`], sequence number included (replay must
    /// reproduce the exact trail, not renumber it).
    pub fn put_audit_event(&mut self, e: &AuditEvent) {
        self.put_u64(e.seq);
        self.put_i64(e.date.days());
        self.put_str(&e.actor);
        self.put_u8(match e.action {
            AuditAction::Create => 0,
            AuditAction::Update => 1,
            AuditAction::Transform => 2,
            AuditAction::Inspect => 3,
            AuditAction::Certify => 4,
            AuditAction::Delete => 5,
        });
        self.put_str(&e.table);
        self.put_row(&e.row_key);
        match &e.column {
            None => self.put_u8(0),
            Some(c) => {
                self.put_u8(1);
                self.put_str(c);
            }
        }
        self.put_str(&e.detail);
    }
}

fn corrupt(what: &str) -> DbError {
    DbError::Storage(format!("corrupt record: {what}"))
}

/// Bounds-checked reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reader over `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// True iff every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("unexpected end of buffer"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn get_u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian u64.
    pub fn get_u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian i64.
    pub fn get_i64(&mut self) -> DbResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DbResult<String> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8"))
    }

    /// A [`Value`].
    pub fn get_value(&mut self) -> DbResult<Value> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.get_u8()? != 0),
            2 => Value::Int(self.get_i64()?),
            3 => Value::Float(f64::from_bits(self.get_u64()?)),
            4 => Value::Text(self.get_str()?),
            5 => Value::Date(Date::from_days(self.get_i64()?)),
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        })
    }

    /// A row of values.
    pub fn get_row(&mut self) -> DbResult<Row> {
        let n = self.get_u32()? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.get_value()?);
        }
        Ok(row)
    }

    /// A [`DataType`].
    pub fn get_dtype(&mut self) -> DbResult<DataType> {
        Ok(match self.get_u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Text,
            4 => DataType::Date,
            5 => DataType::Any,
            t => return Err(corrupt(&format!("unknown dtype tag {t}"))),
        })
    }

    /// A [`Schema`].
    pub fn get_schema(&mut self) -> DbResult<Schema> {
        let n = self.get_u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = self.get_str()?;
            let dtype = self.get_dtype()?;
            let nullable = self.get_u8()? != 0;
            cols.push(ColumnDef {
                name,
                dtype,
                nullable,
            });
        }
        Schema::new(cols)
    }

    /// An [`IndicatorValue`] tree.
    pub fn get_tag(&mut self) -> DbResult<IndicatorValue> {
        let indicator = self.get_str()?;
        let value = self.get_value()?;
        let n = self.get_u32()? as usize;
        let mut tag = IndicatorValue::new(indicator, value);
        for _ in 0..n {
            tag.meta.push(self.get_tag()?);
        }
        Ok(tag)
    }

    /// A [`QualityCell`].
    pub fn get_cell(&mut self) -> DbResult<QualityCell> {
        let value = self.get_value()?;
        let n = self.get_u32()? as usize;
        let mut cell = QualityCell::bare(value);
        for _ in 0..n {
            cell.set_tag(self.get_tag()?);
        }
        Ok(cell)
    }

    /// A tagged row.
    pub fn get_tagged_row(&mut self) -> DbResult<TaggedRow> {
        let n = self.get_u32()? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.get_cell()?);
        }
        Ok(row.into())
    }

    /// An [`IndicatorDef`].
    pub fn get_indicator_def(&mut self) -> DbResult<IndicatorDef> {
        let name = self.get_str()?;
        let dtype = self.get_dtype()?;
        let description = self.get_str()?;
        Ok(IndicatorDef {
            name,
            dtype,
            description,
        })
    }

    /// An [`AuditEvent`].
    pub fn get_audit_event(&mut self) -> DbResult<AuditEvent> {
        let seq = self.get_u64()?;
        let date = Date::from_days(self.get_i64()?);
        let actor = self.get_str()?;
        let action = match self.get_u8()? {
            0 => AuditAction::Create,
            1 => AuditAction::Update,
            2 => AuditAction::Transform,
            3 => AuditAction::Inspect,
            4 => AuditAction::Certify,
            5 => AuditAction::Delete,
            t => return Err(corrupt(&format!("unknown audit action {t}"))),
        };
        let table = self.get_str()?;
        let row_key = self.get_row()?;
        let column = match self.get_u8()? {
            0 => None,
            1 => Some(self.get_str()?),
            t => return Err(corrupt(&format!("bad option tag {t}"))),
        };
        let detail = self.get_str()?;
        Ok(AuditEvent {
            seq,
            date,
            actor,
            action,
            table,
            row_key,
            column,
            detail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(123456);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_str("héllo, wörld");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 123456);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_str().unwrap(), "héllo, wörld");
        assert!(d.is_exhausted());
    }

    #[test]
    fn values_roundtrip() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::text("with \"quotes\", commas,\nand newlines"),
            Value::Date(Date::parse("10-24-91").unwrap()),
        ];
        let mut e = Encoder::new();
        e.put_row(&values);
        let bytes = e.into_bytes();
        let back = Decoder::new(&bytes).get_row().unwrap();
        // NaN breaks PartialEq; compare on the total order
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("open", DataType::Any),
        ])
        .unwrap();
        let mut e = Encoder::new();
        e.put_schema(&s);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).get_schema().unwrap(), s);
    }

    #[test]
    fn tagged_cell_with_meta_roundtrips() {
        let cell = QualityCell::bare("62 Lois Av")
            .with_tag(
                IndicatorValue::new("source", "Nexis").with_meta(
                    IndicatorValue::new("creation_time", Value::Date(Date::parse("10-3-91").unwrap()))
                        .with_meta(IndicatorValue::new("source", "system clock")),
                ),
            )
            .with_tag(IndicatorValue::new("age", 14i64));
        let mut e = Encoder::new();
        e.put_cell(&cell);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).get_cell().unwrap(), cell);
    }

    #[test]
    fn audit_event_roundtrips() {
        let ev = AuditEvent {
            seq: 9,
            date: Date::parse("10-26-91").unwrap(),
            actor: "quality_admin".into(),
            action: AuditAction::Certify,
            table: "customer".into(),
            row_key: vec![Value::text("Nut Co"), Value::Int(3)],
            column: Some("address".into()),
            detail: "certified after double entry".into(),
        };
        let mut e = Encoder::new();
        e.put_audit_event(&ev);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).get_audit_event().unwrap(), ev);
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        let mut e = Encoder::new();
        e.put_str("hello");
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes[..bytes.len() - 1]).get_str().is_err());
        assert!(Decoder::new(&[9]).get_value().is_err());
        assert!(Decoder::new(&[]).get_u32().is_err());
        // declared length longer than buffer
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).get_str().is_err());
    }
}
