//! A small, non-validating XML parser.
//!
//! Used only by this crate's tests (round-trip properties against the
//! serializer). It supports exactly the output language of the serializer:
//! elements, attributes, character data, and the five predefined entities.
//! Doctypes, comments, PIs and namespaces are not accepted — XML views
//! never produce them.

use std::fmt;
use std::sync::Arc;

use crate::node::{element, XmlNode, XmlNodeRef};

/// Error raised by [`parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single XML element (leading/trailing whitespace allowed).
pub fn parse(input: &str) -> Result<XmlNodeRef, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let node = p.parse_element()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(node)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        // `&` already consumed.
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let name = &self.input[start..self.pos];
                self.pos += 1;
                return match name {
                    b"lt" => Ok('<'),
                    b"gt" => Ok('>'),
                    b"amp" => Ok('&'),
                    b"quot" => Ok('"'),
                    b"apos" => Ok('\''),
                    _ => Err(self.err("unknown entity")),
                };
            }
            self.pos += 1;
        }
        Err(self.err("unterminated entity"))
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b'"') => return Ok(out),
                Some(b'&') => out.push(self.parse_entity()?),
                Some(b'<') => return Err(self.err("`<` in attribute value")),
                Some(b) => out.push(b as char),
            }
        }
    }

    fn parse_element(&mut self) -> Result<XmlNodeRef, ParseError> {
        self.eat(b'<')?;
        let name = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.eat(b'>')?;
                    return Ok(element(name, attrs, vec![]));
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.eat(b'=')?;
                    let value = self.parse_attr_value()?;
                    attrs.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        let children = self.parse_content(&name)?;
        Ok(element(name, attrs, children))
    }

    /// Parse children until the matching close tag of `open_name` (consumed).
    fn parse_content(&mut self, open_name: &str) -> Result<Vec<XmlNodeRef>, ParseError> {
        let mut children: Vec<XmlNodeRef> = Vec::new();
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("missing </{open_name}>"))),
                Some(b'<') => {
                    // Whitespace-only runs between elements are formatting,
                    // not data: drop them so pretty output round-trips.
                    if !text.is_empty() {
                        if !text.chars().all(char::is_whitespace) {
                            children.push(Arc::new(XmlNode::Text(std::mem::take(&mut text))));
                        } else {
                            text.clear();
                        }
                    }
                    if self.input.get(self.pos + 1) == Some(&b'/') {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != open_name {
                            return Err(self.err(format!(
                                "mismatched close tag: expected </{open_name}>, got </{close}>"
                            )));
                        }
                        self.skip_ws();
                        self.eat(b'>')?;
                        return Ok(children);
                    }
                    children.push(self.parse_element()?);
                }
                Some(b'&') => {
                    self.pos += 1;
                    text.push(self.parse_entity()?);
                }
                Some(b) => {
                    self.pos += 1;
                    text.push(b as char);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{element, text};

    #[test]
    fn parses_nested_elements_with_attrs() {
        let doc = r#"<product name="CRT 15"><vendor><vid>Amazon</vid></vendor></product>"#;
        let node = parse(doc).unwrap();
        assert_eq!(node.attr("name"), Some("CRT 15"));
        assert_eq!(node.descendants_named("vid")[0].text_content(), "Amazon");
    }

    #[test]
    fn round_trips_compact_serialization() {
        let n = element(
            "a",
            vec![("k".into(), "v<&>\"".into())],
            vec![element("b", vec![], vec![]), text("hi & bye")],
        );
        assert_eq!(parse(&n.to_xml()).unwrap(), n);
    }

    #[test]
    fn round_trips_pretty_serialization() {
        let n = element(
            "catalog",
            vec![],
            vec![element(
                "product",
                vec![("name".into(), "x".into())],
                vec![text("17")],
            )],
        );
        assert_eq!(parse(&n.to_pretty_xml()).unwrap(), n);
    }

    #[test]
    fn rejects_mismatched_close_tag() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/>extra").is_err());
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn self_closing_and_empty_equivalent() {
        assert_eq!(parse("<a></a>").unwrap(), parse("<a/>").unwrap());
    }
}
