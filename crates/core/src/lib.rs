//! `quark-core`: the primary contribution of *"Triggers over XML Views of
//! Relational Data"* (Shao, Novak, Shanmugasundaram — ICDE 2005),
//! reimplemented as a Rust library.
//!
//! Users place triggers (`CREATE TRIGGER … AFTER Event ON view('v')/path
//! WHERE Condition DO action(…)`) on **unmaterialized** XML views of
//! relational data; this crate translates them into statement-level SQL
//! triggers on the base tables, computing `(OLD_NODE, NEW_NODE)` pairs
//! without materializing the view and without an XML database.
//!
//! Module map (mirroring the paper's architecture, Figure 6):
//!
//! | module | paper section |
//! |---|---|
//! | [`spec`] | §2.2 trigger language, §3.3 path composition |
//! | [`condition`] | §2.2 conditions, §5.1 constants extraction |
//! | [`events`] | §3.3 + Appendix C event pushdown (Table 4) |
//! | [`akgraph`] | §4.2.1 `CreateAKGraph` (Fig. 8) |
//! | [`angraph`] | §4.2.2 `CreateANGraph` (Fig. 12) + Appendix F |
//! | [`inject`] | Appendix F injectivity & skeleton pruning |
//! | [`system`] | §3.2 architecture: registry, trigger lifecycle, footprints |
//! | `system::translate` (private) | §5.1–5.2 grouping & trigger pushdown (Figs. 12, 14–16) |
//! | [`session`] | the statement front door (`Session::execute`) |
//! | [`oracle`] | §1's materialization strawman (reference semantics) |

#![warn(missing_docs)]

pub mod akgraph;
pub mod angraph;
pub mod condition;
pub mod events;
pub mod inject;
pub mod oracle;
pub mod session;
pub mod spec;
pub mod system;

pub use angraph::{Needs, SideNeeds};
pub use condition::{CondValue, Condition, NodePath, NodeRef, Step};
pub use session::{
    ObjectKind, Session, SessionPool, Span, StatementError, StatementFrontend, StatementResult,
};
pub use spec::{Action, ActionParam, PathGraph, TriggerSpec, XmlEvent, XmlView};
pub use system::analysis::{
    AnalysisReport, Cycle, Finding, GroupFacts, PairReport, Severity, TriggerAnalysis,
};
pub use system::{ActionCall, ActionFn, Footprint, Mode, Quark};

// Re-export the layers below for one-stop consumption by examples/benches.
pub use quark_relational as relational;
pub use quark_storage as storage;
pub use quark_xml as xml;
pub use quark_xqgm as xqgm;
