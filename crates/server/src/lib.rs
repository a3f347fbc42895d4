//! Network front door for the trigger engine: a pipelined, CRC-framed
//! wire protocol served over plain TCP by a bounded worker pool on top of
//! [`SessionPool`](quark_core::SessionPool).
//!
//! The engine underneath already supports many concurrent in-process
//! sessions (footprint-latched writers, lock-free snapshot reads); this
//! crate puts that surface on a socket so sessions no longer have to live
//! in the server's address space. Deliberately std-only — no async
//! runtime: a fixed pool of worker threads, blocking sockets with poll
//! timeouts, and explicit backpressure bounds memory without one.
//!
//! # Frame layout
//!
//! ```text
//! +-------------+-------------+---------------------+
//! | len: u32 LE | crc: u32 LE | payload (len bytes) |
//! +-------------+-------------+---------------------+
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload, the same checksum the WAL
//! uses. Requests carry statement text; responses carry typed
//! [`StatementResult`](quark_core::StatementResult) encodings or an error
//! frame whose kind says whether the statement provably never executed
//! (see [`protocol`]).
//!
//! # Pipelining and backpressure
//!
//! Clients may stream frames without waiting. The server takes the
//! complete frames already buffered on a connection, up to a configured
//! window, and reads the socket again only once they have executed — TCP
//! flow control pushes back on the client rather than the server
//! buffering without bound. Each window is one
//! [`Session::execute_batch`](quark_core::Session::execute_batch) call, so
//! consecutive `INSERT`s into the same table coalesce into one batched
//! statement (one transition table, one trigger cascade) exactly as they
//! do in process, which is where the wire path recovers the in-process
//! batched-ingest speedup.
//!
//! # Quick start
//!
//! ```no_run
//! use quark_core::{relational::Database, system::Mode, SessionPool};
//! use quark_server::{Client, Server, ServerConfig};
//!
//! let pool = SessionPool::new(quark_xquery::session(Database::new(), Mode::Grouped));
//! let server = Server::start(pool, "127.0.0.1:0", ServerConfig::default())?;
//!
//! let mut client = Client::connect(server.addr())?;
//! client.execute("CREATE TABLE t (a INT)")?;
//! let results = client.execute_pipelined(
//!     ["INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"],
//! )?;
//! assert_eq!(results.len(), 2);
//!
//! server.shutdown(); // drain, join, checkpoint
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod protocol;
pub mod quark_client;
mod server;

pub use protocol::{WireError, WireErrorKind, WireResult};
pub use quark_client::{Client, ClientError, RetryPolicy};
pub use server::{Server, ServerConfig, ServerHandle};
