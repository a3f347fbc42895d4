use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Shared handle to an immutable XML node.
///
/// Trees are built bottom-up and never mutated afterwards, so structural
/// sharing via `Arc` is safe and keeps `(OLD_NODE, NEW_NODE)` hand-off cheap.
pub type XmlNodeRef = Arc<XmlNode>;

/// An XML node: either an element (with attributes and children) or a text
/// node.
///
/// This deliberately omits namespaces, processing instructions and comments:
/// XML views of relational data (XPERANTO-style default views plus
/// user-defined XQuery views) only ever produce elements, attributes and
/// text — see §2.1 of the paper.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum XmlNode {
    /// `<name a1="v1" ...>children</name>`
    Element {
        /// Tag name.
        name: String,
        /// Attributes in document order. Attribute values are stored
        /// unescaped; escaping happens at serialization time.
        attrs: Vec<(String, String)>,
        /// Child nodes in document order.
        children: Vec<XmlNodeRef>,
        /// This element's compact serialization, filled by its first
        /// [`XmlNode::to_xml`] and reused after; start it empty
        /// (`Serialized::default()`).
        serialized: Serialized,
    },
    /// Character data (stored unescaped).
    Text(String),
}

/// The once-filled compact serialization of an element node.
///
/// A firing hands the same `NEW_NODE` `Arc` to every action it activates,
/// and each action serializes it; nodes are never mutated after
/// construction, so the first [`XmlNode::to_xml`] can keep its string for
/// all the others. The cache is invisible to the node's value: every
/// `Serialized` equals every other and hashes to nothing (so `XmlNode`
/// keeps its derived equality and hashing), and a clone starts empty.
///
/// Writing a parent fills the cache of each child element that another
/// owner holds too (`Arc::strong_count > 1`, such as a constructor's reuse
/// slot in the executor) and copies the child's string from it, so a
/// subtree that recurs in many trees is written once. A child only its
/// parent holds is written inline and its cache stays empty.
///
/// Memory: 24 bytes per node (`XmlNode` grows from 72 to 96 bytes, so text
/// nodes pay it too), plus the string of a node that was serialized itself
/// or as a shared child.
#[derive(Default)]
pub struct Serialized(OnceLock<Box<str>>);

impl Clone for Serialized {
    fn clone(&self) -> Self {
        Serialized::default()
    }
}

impl PartialEq for Serialized {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Serialized {}

impl Hash for Serialized {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// Convenience constructor for an element node.
pub fn element(
    name: impl Into<String>,
    attrs: Vec<(String, String)>,
    children: Vec<XmlNodeRef>,
) -> XmlNodeRef {
    Arc::new(XmlNode::Element {
        name: name.into(),
        attrs,
        children,
        serialized: Serialized::default(),
    })
}

/// Convenience constructor for a text node.
pub fn text(content: impl Into<String>) -> XmlNodeRef {
    Arc::new(XmlNode::Text(content.into()))
}

impl XmlNode {
    /// Tag name for elements, `None` for text nodes.
    pub fn name(&self) -> Option<&str> {
        match self {
            XmlNode::Element { name, .. } => Some(name),
            XmlNode::Text(_) => None,
        }
    }

    /// `true` if this is an element node.
    pub fn is_element(&self) -> bool {
        matches!(self, XmlNode::Element { .. })
    }

    /// Attribute value by name (elements only).
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            XmlNode::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str()),
            XmlNode::Text(_) => None,
        }
    }

    /// All child nodes (empty for text nodes).
    pub fn children(&self) -> &[XmlNodeRef] {
        match self {
            XmlNode::Element { children, .. } => children,
            XmlNode::Text(_) => &[],
        }
    }

    /// Child *elements* with the given tag name, in document order.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNodeRef> {
        self.children()
            .iter()
            .filter(move |c| c.name() == Some(name))
    }

    /// All descendant elements (self excluded) with the given tag name, in
    /// document order — the `descendant::` axis.
    pub fn descendants_named<'a>(&'a self, name: &'a str) -> Vec<&'a XmlNodeRef> {
        let mut out = Vec::new();
        fn walk<'a>(node: &'a XmlNode, name: &str, out: &mut Vec<&'a XmlNodeRef>) {
            for child in node.children() {
                if child.name() == Some(name) {
                    out.push(child);
                }
                walk(child, name, out);
            }
        }
        walk(self, name, &mut out);
        out
    }

    /// Concatenated text content of this node and all descendants — the
    /// XPath `string()` value, used when comparing an element against an
    /// atomic value.
    pub fn text_content(&self) -> String {
        let mut buf = String::new();
        fn walk(node: &XmlNode, buf: &mut String) {
            match node {
                XmlNode::Text(t) => buf.push_str(t),
                XmlNode::Element { children, .. } => {
                    for c in children {
                        walk(c, buf);
                    }
                }
            }
        }
        walk(self, &mut buf);
        buf
    }

    /// Number of element nodes in the subtree rooted here (self included if
    /// it is an element). Used by size-sensitive benchmarks.
    pub fn element_count(&self) -> usize {
        let mut n = usize::from(self.is_element());
        for c in self.children() {
            n += c.element_count();
        }
        n
    }

    /// Serialize to a compact single-line XML string. An element is written
    /// once; later calls copy its cached string ([`Serialized`]).
    pub fn to_xml(&self) -> String {
        match self.compact_cached() {
            Some(xml) => xml.to_string(),
            None => self.write_compact(),
        }
    }

    /// An element's compact serialization from its [`Serialized`] cache,
    /// written on first use; `None` for a text node.
    pub(crate) fn compact_cached(&self) -> Option<&str> {
        match self {
            XmlNode::Element { serialized, .. } => {
                Some(serialized.0.get_or_init(|| self.write_compact().into()))
            }
            XmlNode::Text(_) => None,
        }
    }

    fn write_compact(&self) -> String {
        let mut buf = String::new();
        crate::serialize::write_node(self, &mut buf, None, 0);
        buf
    }

    /// Serialize with 2-space indentation, for human consumption.
    pub fn to_pretty_xml(&self) -> String {
        let mut buf = String::new();
        crate::serialize::write_node(self, &mut buf, Some(2), 0);
        buf
    }
}

impl fmt::Debug for XmlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

impl fmt::Display for XmlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XmlNodeRef {
        element(
            "product",
            vec![("name".into(), "CRT 15".into())],
            vec![
                element(
                    "vendor",
                    vec![],
                    vec![element("vid", vec![], vec![text("Amazon")])],
                ),
                element(
                    "vendor",
                    vec![],
                    vec![element("vid", vec![], vec![text("Bestbuy")])],
                ),
            ],
        )
    }

    #[test]
    fn attr_lookup() {
        let p = sample();
        assert_eq!(p.attr("name"), Some("CRT 15"));
        assert_eq!(p.attr("missing"), None);
        assert_eq!(text("x").attr("name"), None);
    }

    #[test]
    fn children_named_filters_by_tag() {
        let p = sample();
        assert_eq!(p.children_named("vendor").count(), 2);
        assert_eq!(p.children_named("vid").count(), 0);
    }

    #[test]
    fn descendants_cross_levels() {
        let p = sample();
        let vids = p.descendants_named("vid");
        assert_eq!(vids.len(), 2);
        assert_eq!(vids[0].text_content(), "Amazon");
    }

    #[test]
    fn text_content_concatenates() {
        let p = sample();
        assert_eq!(p.text_content(), "AmazonBestbuy");
    }

    #[test]
    fn structural_equality_is_deep() {
        assert_eq!(sample(), sample());
        let other = element("product", vec![("name".into(), "LCD 19".into())], vec![]);
        assert_ne!(sample(), other);
    }

    #[test]
    fn element_count_counts_elements_only() {
        // product + 2 vendor + 2 vid = 5; text nodes excluded.
        assert_eq!(sample().element_count(), 5);
    }

    const SAMPLE_XML: &str = "<product name=\"CRT 15\"><vendor><vid>Amazon</vid></vendor>\
                              <vendor><vid>Bestbuy</vid></vendor></product>";

    fn hash_of(node: &XmlNode) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        node.hash(&mut h);
        h.finish()
    }

    #[test]
    fn serialization_cache_is_invisible_to_equality_and_hashing() {
        let serialized = sample();
        assert_eq!(serialized.to_xml(), SAMPLE_XML);
        let clone = (*serialized).clone();
        let fresh = sample();
        for other in [&clone, &*fresh] {
            assert_eq!(*serialized, *other);
            assert_eq!(hash_of(&serialized), hash_of(other));
        }
        let set: std::collections::HashSet<XmlNodeRef> =
            [serialized, Arc::new(clone), fresh].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn to_xml_is_written_once_and_identical_on_every_call() {
        let node = sample();
        let first = node.to_xml();
        assert_eq!(first, SAMPLE_XML);
        assert_eq!(node.to_xml(), first);
        // A cold node serialized by 8 threads at once: one string for all.
        let cold = sample();
        let outs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| cold.to_xml())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outs.iter().all(|o| *o == first));
    }

    #[test]
    fn pretty_debug_and_display_are_unchanged_by_the_cache() {
        let node = sample();
        let pretty = "<product name=\"CRT 15\">\n  <vendor>\n    <vid>Amazon</vid>\n  \
                      </vendor>\n  <vendor>\n    <vid>Bestbuy</vid>\n  </vendor>\n</product>\n";
        for _ in 0..2 {
            // Before the first `to_xml` and after it.
            assert_eq!(node.to_pretty_xml(), pretty);
            assert_eq!(format!("{node:?}"), SAMPLE_XML);
            assert_eq!(format!("{node}"), SAMPLE_XML);
            node.to_xml();
        }
        assert_eq!(text("a<b").to_xml(), "a&lt;b");
    }

    fn is_cached(node: &XmlNode) -> bool {
        match node {
            XmlNode::Element { serialized, .. } => serialized.0.get().is_some(),
            XmlNode::Text(_) => false,
        }
    }

    /// A top element over one leaf another owner holds too (`kept`, as a
    /// reuse slot holds it) and one leaf only the top holds.
    fn top_with_a_shared_leaf() -> (XmlNodeRef, XmlNodeRef) {
        let kept = element(
            "e2",
            vec![("id".into(), "1".into())],
            vec![element("v", vec![], vec![text("a&b")])],
        );
        let fresh = element("e2", vec![("id".into(), "2".into())], vec![text("c")]);
        let top = element("e0", vec![], vec![Arc::clone(&kept), fresh]);
        (top, kept)
    }

    /// The first `to_xml` of a tree fills the cache of each child element
    /// another owner holds, and of no other node below the root.
    #[test]
    fn first_to_xml_fills_the_caches_of_shared_children_only() {
        let (top, kept) = top_with_a_shared_leaf();
        assert!(!is_cached(&top) && !is_cached(&kept));
        let xml = top.to_xml();
        assert_eq!(
            xml,
            r#"<e0><e2 id="1"><v>a&amp;b</v></e2><e2 id="2">c</e2></e0>"#
        );
        assert!(is_cached(&top) && is_cached(&kept));
        assert!(!is_cached(&top.children()[1]), "held by its parent only");
        assert!(!is_cached(&kept.children()[0]), "held by its parent only");
        assert_eq!(kept.to_xml(), r#"<e2 id="1"><v>a&amp;b</v></e2>"#);
        // A second tree over the same leaf copies its string.
        let other = element("e0", vec![], vec![kept]);
        assert_eq!(other.to_xml(), r#"<e0><e2 id="1"><v>a&amp;b</v></e2></e0>"#);
    }

    /// Pretty output never reads the caches: it is the same before and
    /// after the compact serialization filled them.
    #[test]
    fn pretty_output_of_shared_children_is_unchanged() {
        let (top, _kept) = top_with_a_shared_leaf();
        let pretty = "<e0>\n  <e2 id=\"1\">\n    <v>a&amp;b</v>\n  </e2>\n  \
                      <e2 id=\"2\">c</e2>\n</e0>\n";
        assert_eq!(top.to_pretty_xml(), pretty);
        top.to_xml();
        assert_eq!(top.to_pretty_xml(), pretty);
    }
}
