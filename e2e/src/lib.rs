//! `dq-e2e` — the repository's benchmark: five workloads over the wire
//! against the real server, every answer checked, end-to-end metrics
//! from an untraced run and a per-layer budget from a traced one.
//! See `README.md` for the tables and how to run it.

pub mod compare;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
