//! `quark-xqgm`: the XML Query Graph Model layer of the `quark-xtrig`
//! reproduction of *"Triggers over XML Views of Relational Data"*
//! (ICDE 2005).
//!
//! This crate provides:
//!
//! * the XQGM operator graph (§2.1, Table 1): [`graph::Graph`] with the
//!   seven operators (Table, Select, Project, Join, GroupBy, Union,
//!   Unnest) and XML-manipulating functions embedded in expressions;
//! * canonical keys (Definition 1, Appendix A): [`Graph::key`] derives
//!   each operator's key, and [`keys::normalize`] rebuilds a graph so
//!   derivable key columns are materialized, refusing the `Unnest` that
//!   Theorem 1 rules out;
//! * compilation to physical plans: [`compile::compile`] for full
//!   evaluation, and [`compile::compile_restricted`] for evaluation
//!   semi-joined with a small *affected-keys* driver, pushed down to index
//!   probes (the §5.2 pushdown);
//! * convenience evaluation ([`eval`]) and the paper's running-example
//!   fixtures ([`fixtures`], Figures 2–5 and 21).

#![warn(missing_docs)]

pub mod compile;
pub mod eval;
pub mod fixtures;
pub mod graph;
pub mod keys;
pub mod wire;

pub use compile::{compile, compile_restricted, AggCompensation, Compiler, Driver};
pub use graph::{Graph, JoinKind, OpId, OpKind, Operator, TableSource};
pub use keys::normalize;

#[cfg(test)]
mod tests;

#[cfg(test)]
mod proptests;
