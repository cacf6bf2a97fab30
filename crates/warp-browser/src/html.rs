//! A small, lenient HTML parser.
//!
//! The parser handles what the evaluation applications emit: nested
//! elements, attributes (quoted or bare), void elements, comments, raw-text
//! `script` elements (so injected attack code survives parsing verbatim),
//! and HTML entities in text.

use crate::dom::{Document, DomNode};
use std::collections::BTreeMap;

/// Elements that never have children.
const VOID_ELEMENTS: &[&str] = &[
    "input", "br", "hr", "img", "meta", "link", "area", "base", "col", "embed", "source", "wbr",
];

/// Parses HTML text into a [`Document`]. Unclosed tags are closed implicitly
/// at the end of input; stray close tags are ignored.
pub fn parse_html(input: &str) -> Document {
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    // Stack of open elements; index 0 is a virtual root.
    let mut stack: Vec<DomNode> = vec![DomNode::element("#root")];
    while i < chars.len() {
        if chars[i] == '<' {
            // Comment.
            if starts_with(&chars, i, "<!--") {
                match find_sub(&chars, i + 4, "-->") {
                    Some(end) => {
                        i = end + 3;
                        continue;
                    }
                    None => break,
                }
            }
            // Close tag.
            if i + 1 < chars.len() && chars[i + 1] == '/' {
                let end = find_char(&chars, i, '>').unwrap_or(chars.len());
                let name: String = chars[i + 2..end]
                    .iter()
                    .collect::<String>()
                    .trim()
                    .to_ascii_lowercase();
                close_element(&mut stack, &name);
                i = end + 1;
                continue;
            }
            // Open tag.
            if i + 1 < chars.len() && (chars[i + 1].is_ascii_alphabetic() || chars[i + 1] == '!') {
                let end = find_char(&chars, i, '>').unwrap_or(chars.len());
                let inside: String = chars[i + 1..end].iter().collect();
                i = end + 1;
                if inside.starts_with('!') {
                    // DOCTYPE and friends: skip.
                    continue;
                }
                let self_closing = inside.trim_end().ends_with('/');
                let inside = inside.trim_end().trim_end_matches('/');
                let (tag, attrs) = parse_tag(inside);
                let node = DomNode::Element {
                    tag: tag.clone(),
                    attrs,
                    children: Vec::new(),
                };
                if self_closing || VOID_ELEMENTS.contains(&tag.as_str()) {
                    append_to_top(&mut stack, node);
                } else if tag == "script" || tag == "style" {
                    // Raw-text elements: take everything up to the close tag.
                    let close = format!("</{tag}");
                    let content_end = find_sub_ci(&chars, i, &close).unwrap_or(chars.len());
                    let raw: String = chars[i..content_end].iter().collect();
                    let mut node = node;
                    node.append_child(DomNode::Text(raw));
                    append_to_top(&mut stack, node);
                    let after = find_char(&chars, content_end, '>')
                        .map(|e| e + 1)
                        .unwrap_or(chars.len());
                    i = after;
                } else {
                    stack.push(node);
                }
                continue;
            }
        }
        // Text run. A `<` that opened no tag above is text itself, so the
        // search for the next tag starts after it (and always advances).
        let next_tag = find_char(&chars, i + 1, '<').unwrap_or(chars.len());
        let text: String = chars[i..next_tag].iter().collect();
        if !text.trim().is_empty() {
            append_to_top(&mut stack, DomNode::Text(decode_entities(&text)));
        }
        i = next_tag;
    }
    // Close any remaining open elements.
    while stack.len() > 1 {
        let node = stack.pop().expect("stack non-empty");
        append_to_top(&mut stack, node);
    }
    let root = stack.pop().expect("virtual root");
    match root {
        DomNode::Element { children, .. } => Document { roots: children },
        DomNode::Text(_) => Document::default(),
    }
}

/// Decodes the HTML entities produced by `htmlspecialchars`.
pub fn decode_entities(text: &str) -> String {
    text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&#039;", "'")
        .replace("&amp;", "&")
}

fn parse_tag(inside: &str) -> (String, BTreeMap<String, String>) {
    let mut chars = inside.chars().peekable();
    let mut tag = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            break;
        }
        tag.push(c);
        chars.next();
    }
    let mut attrs = BTreeMap::new();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() || c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if name.is_empty() {
            chars.next();
            continue;
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let mut value = String::new();
        if chars.peek() == Some(&'=') {
            chars.next();
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
            match chars.peek() {
                Some(&q) if q == '"' || q == '\'' => {
                    chars.next();
                    while let Some(&c) = chars.peek() {
                        chars.next();
                        if c == q {
                            break;
                        }
                        value.push(c);
                    }
                }
                _ => {
                    while let Some(&c) = chars.peek() {
                        if c.is_whitespace() {
                            break;
                        }
                        value.push(c);
                        chars.next();
                    }
                }
            }
        }
        attrs.insert(name.to_ascii_lowercase(), decode_entities(&value));
    }
    (tag.to_ascii_lowercase(), attrs)
}

fn append_to_top(stack: &mut [DomNode], node: DomNode) {
    if let Some(top) = stack.last_mut() {
        top.append_child(node);
    }
}

fn close_element(stack: &mut Vec<DomNode>, name: &str) {
    // Find the matching open element (if any); implicitly close everything
    // above it.
    let pos = stack.iter().rposition(|n| n.tag() == Some(name));
    if let Some(pos) = pos {
        if pos == 0 {
            return;
        }
        while stack.len() > pos {
            let node = stack.pop().expect("non-empty");
            if let Some(top) = stack.last_mut() {
                top.append_child(node);
            }
        }
    }
}

fn starts_with(chars: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, c)| chars.get(at + k) == Some(&c))
}

fn find_char(chars: &[char], from: usize, needle: char) -> Option<usize> {
    (from..chars.len()).find(|&k| chars[k] == needle)
}

fn find_sub(chars: &[char], from: usize, pat: &str) -> Option<usize> {
    (from..chars.len()).find(|&k| starts_with(chars, k, pat))
}

fn find_sub_ci(chars: &[char], from: usize, pat: &str) -> Option<usize> {
    let lower: String = pat.to_ascii_lowercase();
    (from..chars.len()).find(|&k| {
        lower
            .chars()
            .enumerate()
            .all(|(j, c)| chars.get(k + j).map(|x| x.to_ascii_lowercase()) == Some(c))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure_and_attributes() {
        let doc = parse_html(
            "<html><body class=\"main\"><div id='content'><p>Hello <b>world</b></p></div></body></html>",
        );
        let div = doc.find("#content").unwrap();
        assert_eq!(div.tag(), Some("div"));
        assert_eq!(div.text_content(), "Hello world");
        assert_eq!(doc.find("<body>").unwrap().attr("class"), Some("main"));
    }

    #[test]
    fn void_and_self_closing_elements_do_not_swallow_siblings() {
        let doc = parse_html(
            "<form><input name=\"a\" value=\"1\"/><input name=b value=2><p>after</p></form>",
        );
        let forms = doc.forms();
        assert_eq!(forms[0].fields.len(), 2);
        assert_eq!(forms[0].fields.get("b"), Some(&"2".to_string()));
        assert!(doc.text_content().contains("after"));
    }

    #[test]
    fn script_content_is_preserved_verbatim() {
        let doc = parse_html(
            "<body><script>if (1 < 2) { attack(\"<b>\"); }</script><p>visible</p></body>",
        );
        let scripts = doc.elements_by_tag("script");
        assert_eq!(scripts.len(), 1);
        assert!(scripts[0].text_content().contains("1 < 2"));
        assert!(scripts[0].text_content().contains("<b>"));
        assert!(doc.text_content().contains("visible"));
    }

    #[test]
    fn comments_and_doctype_are_skipped() {
        let doc = parse_html("<!DOCTYPE html><!-- hidden --><p>shown</p>");
        assert_eq!(doc.text_content().trim(), "shown");
    }

    #[test]
    fn unclosed_and_stray_tags_are_tolerated() {
        let doc = parse_html("<div><p>one<p>two</div></span>");
        assert!(doc.text_content().contains("one"));
        assert!(doc.text_content().contains("two"));
    }

    #[test]
    fn a_stray_less_than_is_text_not_an_endless_tag() {
        let doc = parse_html("<div><<\"a < b<</div><");
        assert_eq!(doc.text_content(), "<<\"a < b<<");
    }

    #[test]
    fn entities_are_decoded_in_text_and_attributes() {
        let doc = parse_html("<p title=\"a &amp; b\">&lt;script&gt;</p>");
        assert_eq!(doc.find("<p>").unwrap().attr("title"), Some("a & b"));
        assert_eq!(doc.text_content(), "<script>");
    }

    #[test]
    fn textarea_content_is_available_as_field_value() {
        let doc = parse_html(
            "<form action=\"/e\"><textarea name=\"body\">line1\nline2</textarea></form>",
        );
        assert_eq!(doc.field_value("body"), Some("line1\nline2".to_string()));
    }
}
