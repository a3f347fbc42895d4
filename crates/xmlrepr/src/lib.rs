//! XML data model for the `quark-xtrig` system.
//!
//! XML views of relational data are *virtual*: the relational engine and the
//! trigger-translation layer mostly manipulate relational rows, and only the
//! XML-constructing plan functions build actual XML trees. This
//! crate provides that tree representation together with:
//!
//! * [`XmlNode`] — an immutable element/text tree, shared via [`std::sync::Arc`]
//!   so that `(OLD_NODE, NEW_NODE)` pairs can be passed around cheaply,
//! * serialization with correct escaping ([`XmlNode::to_xml`],
//!   [`XmlNode::to_pretty_xml`]),
//! * a small non-validating parser ([`parse`]), used only by this crate's
//!   round-trip tests,
//! * child/descendant/attribute navigation ([`XmlNode::children_named`],
//!   [`XmlNode::descendants_named`], [`XmlNode::attr`]) matching the XPath
//!   axes the paper supports (child, descendant, attribute, self — §3.2).
//!
//! Node *equality* is structural ([`PartialEq`]); the paper's fallback check
//! `OLD_NODE != NEW_NODE` (Appendix E.1) is a deep comparison, which this
//! representation makes cheap relative to serializing both sides.

mod node;
mod parse;
mod serialize;

pub use node::{element, text, Serialized, XmlNode, XmlNodeRef};
pub use parse::{parse, ParseError};

#[cfg(test)]
mod proptests;
