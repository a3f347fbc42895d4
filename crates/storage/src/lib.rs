//! `quark-storage`: the durable storage subsystem of the `quark-xtrig`
//! reproduction of *"Triggers over XML Views of Relational Data"*
//! (ICDE 2005).
//!
//! The paper's system (Quark) runs inside a commercial RDBMS and inherits
//! its durability; this crate supplies the equivalent from scratch, with
//! no dependencies beyond [`quark_relational`] and the standard library:
//!
//! * a [**write-ahead log**](wal) of statement-granular redo records —
//!   one [frame](frame) per latched statement and its whole trigger
//!   cascade, fsync policy selectable per database,
//! * **table images** — one immutable, CRC-framed file per non-empty
//!   table per checkpoint (`tables/<id>.img`), loaded one at a time at
//!   open and replaced, never modified, when the table changes,
//! * a [**catalog**](catalog) replaced atomically at each checkpoint,
//!   carrying table schemas, secondary-index columns, image ids, and an
//!   opaque blob in which the engine layers persist views, triggers and
//!   trigger groups,
//! * an [**engine**](engine) combining them: redo-only ARIES-style
//!   recovery that streams the log frame by frame into the rebuilt
//!   database (a statement is logged whole or not at all, so there is
//!   nothing to undo) and shadow-root checkpoints that truncate the log.
//!
//! Everything trigger- and XML-specific stays in the layers above: this
//! crate moves bytes, not semantics. The `quark-core` crate decides what
//! goes in the core blob and how its views and triggers are re-armed.

#![warn(missing_docs)]

pub mod catalog;
pub mod crc;
pub mod engine;
pub mod frame;
mod framed;
pub mod wal;

pub use engine::StorageEngine;
pub use wal::SyncMode;
