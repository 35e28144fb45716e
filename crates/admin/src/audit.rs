//! The "electronic trail" (§4): an append-only log of data-manufacturing
//! events supporting the administrator's exception handling — "in handling
//! an exceptional situation, such as tracking an erred transaction, the
//! administrator may want to track aspects of the data manufacturing
//! process, such as the time of entry or intermediate processing steps."

use relstore::{Date, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happened to the datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditAction {
    /// Initial manufacture.
    Create,
    /// Value replaced.
    Update,
    /// Derived from other data (intermediate processing step).
    Transform,
    /// Inspected by a person or rule.
    Inspect,
    /// Certified by the quality administrator.
    Certify,
    /// Removed.
    Delete,
}

impl fmt::Display for AuditAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditAction::Create => "create",
            AuditAction::Update => "update",
            AuditAction::Transform => "transform",
            AuditAction::Inspect => "inspect",
            AuditAction::Certify => "certify",
            AuditAction::Delete => "delete",
        };
        f.write_str(s)
    }
}

/// One event on the trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEvent {
    /// Monotone sequence number (assigned by the trail).
    pub seq: u64,
    /// Business date of the event.
    pub date: Date,
    /// Who performed it (person, department, or system).
    pub actor: String,
    /// What happened.
    pub action: AuditAction,
    /// Affected table.
    pub table: String,
    /// Key of the affected row (application key values).
    pub row_key: Vec<Value>,
    /// Affected column, when cell-scoped.
    pub column: Option<String>,
    /// Free-form detail (old/new values, rule name, ...).
    pub detail: String,
}

/// Append-only audit trail with lineage queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AuditTrail {
    events: Vec<AuditEvent>,
    next_seq: u64,
}

impl AuditTrail {
    /// Empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, assigning its sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        date: Date,
        actor: impl Into<String>,
        action: AuditAction,
        table: impl Into<String>,
        row_key: Vec<Value>,
        column: Option<&str>,
        detail: impl Into<String>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(AuditEvent {
            seq,
            date,
            actor: actor.into(),
            action,
            table: table.into(),
            row_key,
            column: column.map(str::to_owned),
            detail: detail.into(),
        });
        seq
    }

    /// Re-appends an event recovered from durable storage, keeping its
    /// original sequence number (the trail must come back byte-identical
    /// after a restart, not renumbered). Future [`AuditTrail::record`]
    /// calls continue after the highest replayed sequence.
    pub fn replay(&mut self, event: AuditEvent) {
        self.next_seq = self.next_seq.max(event.seq + 1);
        self.events.push(event);
    }

    /// All events, in order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff no events recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Lineage of one row: every event whose `(table, row_key)` matches,
    /// in occurrence order — the paper's "paper trail" for a transaction.
    pub fn lineage(&self, table: &str, row_key: &[Value]) -> Vec<&AuditEvent> {
        self.events
            .iter()
            .filter(|e| e.table == table && e.row_key == row_key)
            .collect()
    }

    /// Cell-scoped lineage.
    pub fn cell_lineage(&self, table: &str, row_key: &[Value], column: &str) -> Vec<&AuditEvent> {
        self.lineage(table, row_key)
            .into_iter()
            .filter(|e| e.column.as_deref() == Some(column) || e.column.is_none())
            .collect()
    }

    /// Renders a row's trail as text (the administrator's report).
    pub fn render_lineage(&self, table: &str, row_key: &[Value]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "electronic trail for {table} [{}]\n",
            row_key
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for e in self.lineage(table, row_key) {
            out.push_str(&format!(
                "  #{:<4} {} {:<9} by {:<12} {}{}\n",
                e.seq,
                e.date,
                e.action.to_string(),
                e.actor,
                e.column
                    .as_deref()
                    .map(|c| format!("[{c}] "))
                    .unwrap_or_default(),
                e.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn sample() -> AuditTrail {
        let mut t = AuditTrail::new();
        let key = vec![Value::text("Nut Co")];
        t.record(
            d("10-24-91"),
            "acct'g",
            AuditAction::Create,
            "customer",
            key.clone(),
            Some("address"),
            "recorded 62 Lois Av",
        );
        t.record(
            d("10-25-91"),
            "quality_admin",
            AuditAction::Inspect,
            "customer",
            key.clone(),
            Some("address"),
            "double-entry check passed",
        );
        t.record(
            d("10-26-91"),
            "sales",
            AuditAction::Update,
            "customer",
            key,
            Some("employees"),
            "700 -> 710",
        );
        t.record(
            d("10-26-91"),
            "sales",
            AuditAction::Create,
            "customer",
            vec![Value::text("Fruit Co")],
            None,
            "row created",
        );
        t
    }

    #[test]
    fn sequence_numbers_monotone() {
        let t = sample();
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lineage_filters_by_row() {
        let t = sample();
        let l = t.lineage("customer", &[Value::text("Nut Co")]);
        assert_eq!(l.len(), 3);
        assert!(t.lineage("customer", &[Value::text("Ghost Co")]).is_empty());
        assert!(t.lineage("orders", &[Value::text("Nut Co")]).is_empty());
    }

    #[test]
    fn cell_lineage_includes_row_level_events() {
        let t = sample();
        let l = t.cell_lineage("customer", &[Value::text("Nut Co")], "address");
        assert_eq!(l.len(), 2); // create + inspect on address; update was employees
        let l = t.cell_lineage("customer", &[Value::text("Fruit Co")], "address");
        assert_eq!(l.len(), 1); // row-level create applies to every cell
    }

    #[test]
    fn replay_preserves_sequence_numbers() {
        let src = sample();
        let mut back = AuditTrail::new();
        for e in src.events() {
            back.replay(e.clone());
        }
        assert_eq!(back.events(), src.events());
        // recording continues after the replayed tail
        let seq = back.record(
            d("10-27-91"),
            "quality_admin",
            AuditAction::Inspect,
            "customer",
            vec![Value::text("Nut Co")],
            None,
            "post-recovery check",
        );
        assert_eq!(seq, 4);
    }

    #[test]
    fn rendering_contains_all_steps() {
        let t = sample();
        let r = t.render_lineage("customer", &[Value::text("Nut Co")]);
        assert!(r.contains("recorded 62 Lois Av"));
        assert!(r.contains("inspect"));
        assert!(r.contains("700 -> 710"));
        assert!(r.contains("[address]"));
    }
}
