//! XML serialization with correct escaping.
//!
//! The constant-space tagger in `quark-core` appends to an output `String`
//! through these helpers as it streams over sorted-outer-union rows, so they
//! are written against a plain `&mut String` rather than `io::Write`.

use crate::node::XmlNode;

/// Append `text` to `buf`, escaping the five predefined XML entities as
/// needed for character data (`<`, `>`, `&`).
pub(crate) fn escape_text(text: &str, buf: &mut String) {
    for ch in text.chars() {
        match ch {
            '<' => buf.push_str("&lt;"),
            '>' => buf.push_str("&gt;"),
            '&' => buf.push_str("&amp;"),
            _ => buf.push(ch),
        }
    }
}

/// Append `value` to `buf`, escaped for a double-quoted attribute value.
pub(crate) fn escape_attr(value: &str, buf: &mut String) {
    for ch in value.chars() {
        match ch {
            '<' => buf.push_str("&lt;"),
            '>' => buf.push_str("&gt;"),
            '&' => buf.push_str("&amp;"),
            '"' => buf.push_str("&quot;"),
            _ => buf.push(ch),
        }
    }
}

/// Write `node` into `buf`. `indent = Some(width)` produces pretty output;
/// `None` produces a compact single line.
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
                    write_node(child, buf, indent, depth + 1);
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
