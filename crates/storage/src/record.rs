//! Logical WAL records: one per durable mutation of the paper-level
//! state — a tagged relation's DDL, row pushes, cell tags and removals
//! (resident or paged), and audit-trail ("electronic trail") events.
//!
//! Records are *logical* redo records: replaying the committed prefix
//! through the same code paths that produced it reconstructs the exact
//! in-memory state (the engine's mutations are deterministic). Record
//! tags 0–4 belonged to the retired untagged tables and no longer decode.

use crate::codec::{Decoder, Encoder};
use dq_admin::AuditEvent;
use relstore::{DbError, DbResult, Schema};
use tagstore::{IndicatorDef, IndicatorValue, TaggedRow};

/// One logical operation in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `tagstore` DDL: a new tagged relation with its indicator
    /// dictionary.
    CreateTagged {
        /// Relation name.
        name: String,
        /// Application schema.
        schema: Schema,
        /// Declared indicators (the dictionary, flattened).
        dict: Vec<IndicatorDef>,
    },
    /// `tagstore` push of one tagged row.
    TagPush {
        /// Target tagged relation.
        name: String,
        /// The pushed row (cells with their tags).
        row: TaggedRow,
    },
    /// `tagstore` cell tagging.
    TagCell {
        /// Target tagged relation.
        name: String,
        /// Row position.
        row: u64,
        /// Column name.
        column: String,
        /// The tag set on the cell.
        tag: IndicatorValue,
    },
    /// `tagstore` positional swap-remove of a tagged row.
    TagRemove {
        /// Target tagged relation.
        name: String,
        /// Row position removed.
        row: u64,
    },
    /// One `dq_admin::audit` event (sequence number included).
    Audit {
        /// The event, exactly as recorded on the trail.
        event: AuditEvent,
    },
    /// Paged-relation DDL: a new relation in paged storage. Like every
    /// paged record, this carries only the logical operation — page
    /// placement is deterministic, so redo re-derives it.
    PagedCreate {
        /// Relation name.
        name: String,
        /// Application schema.
        schema: Schema,
        /// Declared indicators (the dictionary, flattened).
        dict: Vec<IndicatorDef>,
    },
    /// Push of one tagged row into a paged relation.
    PagedPush {
        /// Target paged relation.
        name: String,
        /// The pushed row (cells with their tags).
        row: TaggedRow,
    },
    /// Cell tagging in a paged relation.
    PagedTagCell {
        /// Target paged relation.
        name: String,
        /// Row position.
        row: u64,
        /// Column name.
        column: String,
        /// The tag set on the cell.
        tag: IndicatorValue,
    },
    /// Positional swap-remove of a row from a paged relation.
    PagedRemove {
        /// Target paged relation.
        name: String,
        /// Row position removed.
        row: u64,
    },
}

impl WalRecord {
    /// Encodes this record (without framing) into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            WalRecord::CreateTagged { name, schema, dict } => {
                enc.put_u8(5);
                enc.put_str(name);
                enc.put_schema(schema);
                enc.put_u32(dict.len() as u32);
                for d in dict {
                    enc.put_indicator_def(d);
                }
            }
            WalRecord::TagPush { name, row } => {
                enc.put_u8(6);
                enc.put_str(name);
                enc.put_tagged_row(row);
            }
            WalRecord::TagCell {
                name,
                row,
                column,
                tag,
            } => {
                enc.put_u8(7);
                enc.put_str(name);
                enc.put_u64(*row);
                enc.put_str(column);
                enc.put_tag(tag);
            }
            WalRecord::TagRemove { name, row } => {
                enc.put_u8(8);
                enc.put_str(name);
                enc.put_u64(*row);
            }
            WalRecord::Audit { event } => {
                enc.put_u8(9);
                enc.put_audit_event(event);
            }
            WalRecord::PagedCreate { name, schema, dict } => {
                enc.put_u8(10);
                enc.put_str(name);
                enc.put_schema(schema);
                enc.put_u32(dict.len() as u32);
                for d in dict {
                    enc.put_indicator_def(d);
                }
            }
            WalRecord::PagedPush { name, row } => {
                enc.put_u8(11);
                enc.put_str(name);
                enc.put_tagged_row(row);
            }
            WalRecord::PagedTagCell {
                name,
                row,
                column,
                tag,
            } => {
                enc.put_u8(12);
                enc.put_str(name);
                enc.put_u64(*row);
                enc.put_str(column);
                enc.put_tag(tag);
            }
            WalRecord::PagedRemove { name, row } => {
                enc.put_u8(13);
                enc.put_str(name);
                enc.put_u64(*row);
            }
        }
    }

    /// Decodes one record from `dec`.
    pub fn decode(dec: &mut Decoder<'_>) -> DbResult<WalRecord> {
        Ok(match dec.get_u8()? {
            5 => {
                let name = dec.get_str()?;
                let schema = dec.get_schema()?;
                let n = dec.get_u32()? as usize;
                let mut dict = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    dict.push(dec.get_indicator_def()?);
                }
                WalRecord::CreateTagged { name, schema, dict }
            }
            6 => WalRecord::TagPush {
                name: dec.get_str()?,
                row: dec.get_tagged_row()?,
            },
            7 => WalRecord::TagCell {
                name: dec.get_str()?,
                row: dec.get_u64()?,
                column: dec.get_str()?,
                tag: dec.get_tag()?,
            },
            8 => WalRecord::TagRemove {
                name: dec.get_str()?,
                row: dec.get_u64()?,
            },
            9 => WalRecord::Audit {
                event: dec.get_audit_event()?,
            },
            10 => {
                let name = dec.get_str()?;
                let schema = dec.get_schema()?;
                let n = dec.get_u32()? as usize;
                let mut dict = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    dict.push(dec.get_indicator_def()?);
                }
                WalRecord::PagedCreate { name, schema, dict }
            }
            11 => WalRecord::PagedPush {
                name: dec.get_str()?,
                row: dec.get_tagged_row()?,
            },
            12 => WalRecord::PagedTagCell {
                name: dec.get_str()?,
                row: dec.get_u64()?,
                column: dec.get_str()?,
                tag: dec.get_tag()?,
            },
            13 => WalRecord::PagedRemove {
                name: dec.get_str()?,
                row: dec.get_u64()?,
            },
            t => return Err(DbError::Storage(format!("unknown WAL record tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_admin::AuditAction;
    use relstore::{DataType, Date, Value};
    use tagstore::QualityCell;

    fn roundtrip(r: WalRecord) {
        let mut e = Encoder::new();
        r.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(WalRecord::decode(&mut d).unwrap(), r);
        assert!(d.is_exhausted(), "{r:?} left trailing bytes");
    }

    #[test]
    fn every_variant_roundtrips() {
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Text)]);
        roundtrip(WalRecord::CreateTagged {
            name: "stock".into(),
            schema,
            dict: vec![IndicatorDef::new("source", DataType::Text, "origin")],
        });
        roundtrip(WalRecord::TagPush {
            name: "stock".into(),
            row: TaggedRow::from([
                QualityCell::bare(9i64),
                QualityCell::bare("NYSE").with_tag(IndicatorValue::new("source", "feed")),
            ]),
        });
        roundtrip(WalRecord::TagCell {
            name: "stock".into(),
            row: 4,
            column: "name".into(),
            tag: IndicatorValue::new("source", "Nexis")
                .with_meta(IndicatorValue::new("source", "system clock")),
        });
        roundtrip(WalRecord::TagRemove {
            name: "stock".into(),
            row: 1,
        });
        roundtrip(WalRecord::Audit {
            event: AuditEvent {
                seq: 7,
                date: Date::parse("10-24-91").unwrap(),
                actor: "acct'g".into(),
                action: AuditAction::Create,
                table: "customer".into(),
                row_key: vec![Value::text("Nut Co")],
                column: Some("address".into()),
                detail: "recorded 62 Lois Av".into(),
            },
        });
        roundtrip(WalRecord::PagedCreate {
            name: "trades".into(),
            schema: Schema::of(&[("qty", DataType::Int)]),
            dict: vec![IndicatorDef::new("source", DataType::Text, "origin")],
        });
        roundtrip(WalRecord::PagedPush {
            name: "trades".into(),
            row: TaggedRow::from([
                QualityCell::bare(500i64).with_tag(IndicatorValue::new("source", "feed")),
            ]),
        });
        roundtrip(WalRecord::PagedTagCell {
            name: "trades".into(),
            row: 99,
            column: "qty".into(),
            tag: IndicatorValue::new("source", "audit"),
        });
        roundtrip(WalRecord::PagedRemove {
            name: "trades".into(),
            row: 3,
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        // 0–4 are the retired untagged-table records
        for tag in [[0], [1], [2], [3], [4], [42]] {
            let mut d = Decoder::new(&tag);
            assert!(WalRecord::decode(&mut d).is_err(), "tag {tag:?}");
        }
    }
}
