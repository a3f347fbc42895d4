//! Error type shared across the engine.

use std::fmt;

/// Errors produced by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Table does not exist.
    UnknownTable(String),
    /// Table already exists.
    TableExists(String),
    /// `(table, column)` pair does not exist.
    UnknownColumn(String, String),
    /// Duplicate column name at table creation: `(table, column)`.
    DuplicateColumn(String, String),
    /// Tables must declare a primary key (Theorem 1 of the paper).
    MissingPrimaryKey(String),
    /// Primary-key violation on insert.
    DuplicateKey {
        /// Target table.
        table: String,
        /// Rendered key values.
        key: String,
    },
    /// Row arity does not match the schema.
    ArityMismatch {
        /// Target table.
        table: String,
        /// Schema arity.
        expected: usize,
        /// Provided row arity.
        got: usize,
    },
    /// Value incompatible with declared column type.
    TypeMismatch {
        /// Target table.
        table: String,
        /// Offending column.
        column: String,
        /// Rendered value.
        value: String,
    },
    /// Trigger with this name already registered.
    TriggerExists(String),
    /// Action function with this name already registered.
    ActionExists(String),
    /// Unknown trigger name.
    UnknownTrigger(String),
    /// Statement-trigger cascade exceeded the nesting limit (16, as in DB2).
    TriggerDepthExceeded,
    /// A plan referenced a transition table but none is in scope.
    NoTransitionContext,
    /// Expression evaluation error (e.g. arithmetic on non-numeric values).
    Eval(String),
    /// Malformed plan (e.g. index join without a usable index).
    Plan(String),
    /// Durable-storage failure: I/O error, corrupt file, or a value that
    /// cannot be serialized.
    Storage(String),
    /// A statement touched a table outside the footprint it latched: an
    /// action broke its declared write set, or the footprint analysis
    /// has a hole. The access was refused and the statement undone.
    OutsideFootprint {
        /// The table refused.
        table: String,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Error::TableExists(t) => write!(f, "table `{t}` already exists"),
            Error::UnknownColumn(t, c) => write!(f, "unknown column `{c}` in table `{t}`"),
            Error::DuplicateColumn(t, c) => write!(f, "duplicate column `{c}` in table `{t}`"),
            Error::MissingPrimaryKey(t) => {
                write!(
                    f,
                    "table `{t}` must declare a primary key (trigger-specifiability)"
                )
            }
            Error::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in table `{table}`")
            }
            Error::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "table `{table}` expects {expected} columns, got {got}")
            }
            Error::TypeMismatch {
                table,
                column,
                value,
            } => {
                write!(f, "value {value} does not fit column `{table}.{column}`")
            }
            Error::TriggerExists(n) => write!(f, "trigger `{n}` already exists"),
            Error::ActionExists(n) => write!(f, "action function `{n}` already registered"),
            Error::UnknownTrigger(n) => write!(f, "unknown trigger `{n}`"),
            Error::TriggerDepthExceeded => write!(f, "trigger cascade exceeded nesting limit"),
            Error::NoTransitionContext => {
                write!(f, "plan reads a transition table outside a trigger firing")
            }
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::OutsideFootprint { table, write } => write!(
                f,
                "table `{table}` {} outside the statement's latched footprint",
                if *write { "written" } else { "read" }
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;
