//! XML trigger specifications and monitored path graphs.
//!
//! Triggers follow the Bonifati-et-al. language the paper adopts (§2.2):
//!
//! ```text
//! CREATE TRIGGER Name AFTER Event ON Path WHERE Condition DO Action
//! ```
//!
//! `Path` composes with the view definition to yield a [`PathGraph`]: an
//! XQGM graph whose top operator produces one row per monitored XML node,
//! carrying the node value plus its canonical key. The `OLD_NODE` /
//! `NEW_NODE` variables of the Condition/Action bind to the node value
//! before and after the firing statement.

use std::collections::HashMap;

use quark_relational::{Database, Result};
use quark_xqgm::{Graph, OpId};

use crate::condition::Condition;

/// XML-level trigger events (mirrors relational events, but on view nodes
/// per Definitions 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XmlEvent {
    /// A node with a fresh canonical key appears in the view.
    Insert,
    /// A node keeps its canonical key but changes value (including changes
    /// anywhere in its descendants).
    Update,
    /// A node's canonical key disappears from the view.
    Delete,
}

impl std::fmt::Display for XmlEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlEvent::Insert => f.write_str("INSERT"),
            XmlEvent::Update => f.write_str("UPDATE"),
            XmlEvent::Delete => f.write_str("DELETE"),
        }
    }
}

/// A parameter to the trigger's action function.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionParam {
    /// The monitored node's pre-statement value (NULL for INSERT events).
    OldNode,
    /// The monitored node's post-statement value (NULL for DELETE events).
    NewNode,
    /// A literal value.
    Const(quark_relational::Value),
}

/// The trigger action: an external function invocation with XQuery-expression
/// parameters (restricted to node references and constants, §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Registered action-function name (e.g. `notifySmith`).
    pub function: String,
    /// Parameters passed at firing time.
    pub params: Vec<ActionParam>,
}

/// A parsed XML trigger specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerSpec {
    /// Unique trigger name.
    pub name: String,
    /// Monitored event.
    pub event: XmlEvent,
    /// View the path targets.
    pub view: String,
    /// Anchor within the view (element type the path selects, e.g.
    /// `product` for `view('catalog')/product`).
    pub anchor: String,
    /// Firing condition over `OLD_NODE`/`NEW_NODE` (use
    /// [`Condition::True`] for unconditional triggers).
    pub condition: Condition,
    /// Action to perform.
    pub action: Action,
}

/// The composed Path graph for one monitored element type: the result of
/// applying view-composition rules to `view('v')/…/anchor` (§3.3), e.g. the
/// graph of Figure 5A.
///
/// Each output row is one monitored node; `node_col` holds the constructed
/// XML value; [`PathGraph::key`] names the canonical key columns
/// (Definition 1), which a graph built by [`quark_xqgm::normalize`] holds.
#[derive(Debug, Clone)]
pub struct PathGraph {
    /// Normalized graph arena (grows during trigger translation).
    pub graph: Graph,
    /// Top operator of the path graph.
    pub root: OpId,
    /// Output column carrying the monitored node's XML value.
    pub node_col: usize,
    /// Scalar shortcuts: attribute name of the monitored element → output
    /// column holding that attribute's value. Lets conditions like
    /// `OLD_NODE/@name = 'CRT 15'` compile to relational column accesses
    /// without constructing the node (used by the skeleton/old-side
    /// optimization of §5.2).
    pub attr_cols: HashMap<String, usize>,
}

impl PathGraph {
    /// Canonical key columns of the monitored nodes.
    pub fn key(&self, db: &Database) -> Result<&[usize]> {
        self.graph.key(self.root, db)
    }
}

/// A registered XML view: named path anchors that triggers can monitor.
///
/// The frontend (`quark-xquery`) lowers an XQuery view definition into one
/// `PathGraph` per element type; hand-built views register anchors
/// directly.
#[derive(Debug, Clone, Default)]
pub struct XmlView {
    /// View name (as used in `view('name')`).
    pub name: String,
    /// Monitorable anchors: element name → path-graph template.
    pub anchors: HashMap<String, PathGraph>,
}

impl XmlView {
    /// Create a view with no anchors.
    pub fn new(name: impl Into<String>) -> Self {
        XmlView {
            name: name.into(),
            anchors: HashMap::new(),
        }
    }

    /// Register an anchor.
    pub fn with_anchor(mut self, element: impl Into<String>, path: PathGraph) -> Self {
        self.anchors.insert(element.into(), path);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_events() {
        assert_eq!(XmlEvent::Insert.to_string(), "INSERT");
        assert_eq!(XmlEvent::Update.to_string(), "UPDATE");
        assert_eq!(XmlEvent::Delete.to_string(), "DELETE");
    }

    #[test]
    fn view_registers_anchors() {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let mut g = quark_xqgm::Graph::new();
        let (top, _) = quark_xqgm::fixtures::catalog_path_graph(&mut g);
        let (graph, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
        let pg = PathGraph {
            graph,
            root,
            node_col: 1,
            attr_cols: HashMap::from([("name".to_string(), 0)]),
        };
        let view = XmlView::new("catalog").with_anchor("product", pg);
        assert!(view.anchors.contains_key("product"));
        assert_eq!(view.anchors["product"].key(&db).unwrap(), &[0]);
    }
}
