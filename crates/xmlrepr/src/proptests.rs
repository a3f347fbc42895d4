//! Property-based tests: serialization round-trips through the parser for
//! arbitrary trees, deep equality is consistent with serialized equality,
//! and a tree whose subtrees are shared serializes exactly as a writer
//! without caches does.

use std::sync::Arc;

use proptest::prelude::*;

use crate::{element, parse, text, XmlNode, XmlNodeRef};

/// Text fragments restricted to printable ASCII (the parser is byte-based;
/// the engine only ever emits ASCII-safe relational data through it).
fn arb_text() -> impl Strategy<Value = String> {
    // Exclude pure-whitespace strings: the parser folds whitespace-only runs
    // between elements, which is the one intentional non-identity.
    "[ -~]{1,12}".prop_filter("not all whitespace", |s| {
        !s.chars().all(char::is_whitespace)
    })
}

/// Text rich in the characters the serializer escapes, or any printable
/// ASCII.
fn arb_escapable() -> impl Strategy<Value = String> {
    prop_oneof![arb_text(), "[ab<>&\"]{1,8}".prop_map(String::from)]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}"
}

fn arb_node() -> impl Strategy<Value = XmlNodeRef> {
    let leaf = prop_oneof![
        arb_text().prop_map(text),
        (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3)
        )
            .prop_map(|(n, attrs)| element(n, attrs, vec![])),
    ];
    let tree = leaf.prop_recursive(4, 24, 4, |inner| {
        (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, children)| {
                // Adjacent text children merge on parse; wrap every text
                // child in an element to keep the tree canonical.
                let children = children
                    .into_iter()
                    .map(|c| {
                        if c.is_element() {
                            c
                        } else {
                            element("t", vec![], vec![c])
                        }
                    })
                    .collect();
                element(n, attrs, children)
            })
    });
    // Documents must be rooted at an element; wrap bare text leaves.
    tree.prop_map(|c| {
        if c.is_element() {
            c
        } else {
            element("root", vec![], vec![c])
        }
    })
}

/// Trees in which some children are one `Arc` held twice by their parent,
/// as a constructor's reuse slot and a NEW node hold a leaf: those children
/// are serialized through their own caches.
fn arb_shared_tree() -> impl Strategy<Value = XmlNodeRef> {
    let attrs = || proptest::collection::vec((arb_name(), arb_escapable()), 0..3);
    let leaf = (arb_name(), attrs(), arb_escapable())
        .prop_map(|(n, attrs, t)| element(n, attrs, vec![text(t)]))
        .boxed();
    leaf.prop_recursive(4, 32, 4, move |inner| {
        (
            arb_name(),
            attrs(),
            proptest::collection::vec((inner, any::<bool>()), 0..4),
        )
            .prop_map(|(n, attrs, kids)| {
                let mut children = Vec::new();
                for (child, twice) in kids {
                    if twice {
                        children.push(Arc::clone(&child));
                    }
                    children.push(child);
                }
                element(n, attrs, children)
            })
    })
}

/// The compact serialization, written without caches and escaped
/// character by character: what `to_xml` must equal.
fn reference_xml(node: &XmlNode, buf: &mut String) {
    fn escape(s: &str, quot: bool, buf: &mut String) {
        for ch in s.chars() {
            match ch {
                '<' => buf.push_str("&lt;"),
                '>' => buf.push_str("&gt;"),
                '&' => buf.push_str("&amp;"),
                '"' if quot => buf.push_str("&quot;"),
                _ => buf.push(ch),
            }
        }
    }
    match node {
        XmlNode::Text(t) => escape(t, false, buf),
        XmlNode::Element {
            name,
            attrs,
            children,
            ..
        } => {
            buf.push('<');
            buf.push_str(name);
            for (k, v) in attrs {
                buf.push(' ');
                buf.push_str(k);
                buf.push_str("=\"");
                escape(v, true, buf);
                buf.push('"');
            }
            if children.is_empty() {
                buf.push_str("/>");
                return;
            }
            buf.push('>');
            for child in children {
                reference_xml(child, buf);
            }
            buf.push_str("</");
            buf.push_str(name);
            buf.push('>');
        }
    }
}

fn reference(node: &XmlNode) -> String {
    let mut buf = String::new();
    reference_xml(node, &mut buf);
    buf
}

proptest! {
    // Pinned seed + case count: CI runs (no env overrides set) are
    // deterministic; PROPTEST_SEED still overrides for manual fuzz sweeps.
    #![proptest_config(ProptestConfig {
        cases: 256,
        rng_seed: Some(0x1cde_2005_0001),
        ..ProptestConfig::default()
    })]

    #[test]
    fn compact_serialization_round_trips(node in arb_node()) {
        let reparsed = parse(&node.to_xml()).unwrap();
        prop_assert_eq!(reparsed, node);
    }

    #[test]
    fn pretty_serialization_round_trips(node in arb_node()) {
        let reparsed = parse(&node.to_pretty_xml()).unwrap();
        prop_assert_eq!(reparsed, node);
    }

    #[test]
    fn equal_nodes_serialize_equally(node in arb_node()) {
        let copy = parse(&node.to_xml()).unwrap();
        prop_assert_eq!(copy.to_xml(), node.to_xml());
    }

    /// Shared subtrees are copied from their caches: the first and the
    /// cached serialization equal the reference writer's, parse back to
    /// the tree, and a new parent holding the tree twice (its caches now
    /// warm) serializes like the reference too.
    #[test]
    fn shared_subtrees_serialize_like_the_reference(node in arb_shared_tree()) {
        let expected = reference(&node);
        prop_assert_eq!(node.to_xml(), expected.clone());
        prop_assert_eq!(node.to_xml(), expected.clone());
        prop_assert_eq!(parse(&expected).unwrap(), Arc::clone(&node));
        let twice = element("w", vec![], vec![Arc::clone(&node), node]);
        prop_assert_eq!(twice.to_xml(), reference(&twice));
    }
}
