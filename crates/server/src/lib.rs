//! `dq-server` — the concurrent quality-query server.
//!
//! Puts `dq-query` behind a TCP socket for the paper's "quality
//! indicators travel with the data to the application interface"
//! premise at serving scale: many consumers, each with their own
//! quality requirements (Premise 2.1/2.2 — per-session `dq-core` user
//! profiles supply `WITH QUALITY` defaults), all reading shared
//! snapshots of the same tagged relations.
//!
//! Architecture (see DESIGN.md §13):
//!
//! * **Protocol** — length-prefixed CRC-framed request/response
//!   messages, the WAL codec's framing applied to a socket.
//! * **Sessions** — per-connection state (catalog snapshot, bound
//!   profile, prepared-statement cache) multiplexed nonblockingly on a
//!   fixed worker pool.
//! * **Prepared-statement cache** — parse + plan once per (profile,
//!   normalized text), re-execute the cached plan; invalidated by the
//!   catalog generation that every registration bumps.
//! * **MVCC epoch snapshots** — the catalog is published as immutable
//!   epoch-stamped snapshots (DESIGN.md §14); readers pin an epoch at
//!   statement start and take zero locks, writers prepare outside the
//!   master lock and serialize only apply + WAL commit + publish.
//!   [`start_durable`] fronts a `dq-storage` WAL so tags survive
//!   restarts and the epoch line continues across them.
//!
//! ```no_run
//! use dq_query::QueryCatalog;
//! use dq_server::{start, Client, ServerConfig};
//!
//! let catalog = QueryCatalog::new(); // register tables first
//! let server = start(ServerConfig::default(), catalog).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let rendered = client.query("SELECT * FROM stocks").unwrap();
//! println!("{rendered}");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod session;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response};
pub use server::{start, start_durable, ServerConfig, ServerHandle, SharedCatalog};
pub use session::{is_write_statement, render_result};
