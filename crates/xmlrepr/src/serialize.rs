//! XML serialization with correct escaping.
//!
//! Everything is written against one plain `&mut String`, so a parent
//! appends its children's text into its own buffer.

use std::sync::Arc;

use crate::node::XmlNode;

/// Append `text` to `buf`, escaping the five predefined XML entities as
/// needed for character data (`<`, `>`, `&`).
fn escape_text(text: &str, buf: &mut String) {
    escape(text, false, buf);
}

/// Append `value` to `buf`, escaped for a double-quoted attribute value.
fn escape_attr(value: &str, buf: &mut String) {
    escape(value, true, buf);
}

/// Append `s` to `buf` with `<`, `>`, `&` (and `"` if `quot`) replaced by
/// their entities. The runs between them are pushed whole, so a value with
/// nothing to escape is one copy. The escaped characters are ASCII, so
/// every split falls on a character boundary.
fn escape(s: &str, quot: bool, buf: &mut String) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' if quot => "&quot;",
            _ => continue,
        };
        buf.push_str(&s[start..i]);
        buf.push_str(entity);
        start = i + 1;
    }
    buf.push_str(&s[start..]);
}

/// Write `node` into `buf`. `indent = Some(width)` produces pretty output;
/// `None` produces a compact single line, in which a child element that
/// another owner holds too (`Arc::strong_count > 1`: a constructor's reuse
/// slot, another tree) is copied from its own cached serialization,
/// written on first use ([`crate::Serialized`]). A child only its parent
/// holds is written inline and keeps no string.
pub(crate) fn write_node(node: &XmlNode, buf: &mut String, indent: Option<usize>, depth: usize) {
    match node {
        XmlNode::Text(t) => {
            pad(buf, indent, depth);
            escape_text(t, buf);
            newline(buf, indent);
        }
        XmlNode::Element {
            name,
            attrs,
            children,
            ..
        } => {
            pad(buf, indent, depth);
            buf.push('<');
            buf.push_str(name);
            for (k, v) in attrs {
                buf.push(' ');
                buf.push_str(k);
                buf.push_str("=\"");
                escape_attr(v, buf);
                buf.push('"');
            }
            if children.is_empty() {
                buf.push_str("/>");
                newline(buf, indent);
                return;
            }
            // A single text child stays inline even in pretty mode, so that
            // `<vid>Amazon</vid>` round-trips without whitespace pollution.
            let inline_text = children.len() == 1 && !children[0].is_element();
            buf.push('>');
            if inline_text {
                if let XmlNode::Text(t) = &*children[0] {
                    escape_text(t, buf);
                }
            } else {
                newline(buf, indent);
                for child in children {
                    let cached = if indent.is_none() && Arc::strong_count(child) > 1 {
                        child.compact_cached()
                    } else {
                        None
                    };
                    match cached {
                        Some(xml) => buf.push_str(xml),
                        None => write_node(child, buf, indent, depth + 1),
                    }
                }
                pad(buf, indent, depth);
            }
            buf.push_str("</");
            buf.push_str(name);
            buf.push('>');
            newline(buf, indent);
        }
    }
}

fn pad(buf: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        for _ in 0..depth * width {
            buf.push(' ');
        }
    }
}

fn newline(buf: &mut String, indent: Option<usize>) {
    if indent.is_some() {
        buf.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use crate::{element, text};

    #[test]
    fn escapes_text_and_attrs() {
        let n = element(
            "p",
            vec![("q".into(), "a\"<b>&".into())],
            vec![text("x < y & z > w")],
        );
        assert_eq!(
            n.to_xml(),
            "<p q=\"a&quot;&lt;b&gt;&amp;\">x &lt; y &amp; z &gt; w</p>"
        );
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(element("e", vec![], vec![]).to_xml(), "<e/>");
    }

    #[test]
    fn pretty_print_indents_nested_elements() {
        let n = element("a", vec![], vec![element("b", vec![], vec![text("t")])]);
        assert_eq!(n.to_pretty_xml(), "<a>\n  <b>t</b>\n</a>\n");
    }

    #[test]
    fn compact_is_single_line() {
        let n = element("a", vec![], vec![element("b", vec![], vec![]), text("x")]);
        assert_eq!(n.to_xml(), "<a><b/>x</a>");
    }
}
