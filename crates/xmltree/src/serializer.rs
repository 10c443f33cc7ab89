//! XML serialization: compact and pretty-printed writers with escaping.

use crate::tree::{Attribute, Document, NodeId, NodeKind};

/// Serializes a document compactly (no inserted whitespace).
///
/// `parse ∘ to_string` is the identity on documents (checked by the
/// round-trip property tests).
pub fn to_string(doc: &Document) -> String {
    let mut out = String::new();
    write_node(&mut out, doc, doc.root());
    out
}

/// Serializes a document with an XML declaration and 2-space indentation.
///
/// Text-bearing elements are kept on one line so that significant text is
/// not padded with extra whitespace.
pub fn to_string_pretty(doc: &Document) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_node_pretty(&mut out, doc, doc.root());
    out.push('\n');
    out
}

/// Iterative writer (documents can be arbitrarily deep).
fn write_node(out: &mut String, doc: &Document, node: NodeId) {
    enum Item {
        Node(NodeId),
        CloseTag(NodeId),
    }
    let mut stack = vec![Item::Node(node)];
    while let Some(item) = stack.pop() {
        match item {
            Item::CloseTag(n) => write_close_tag(out, doc, n),
            Item::Node(n) => match doc.kind(n) {
                NodeKind::Text(t) => escape_text(out, t),
                NodeKind::Element { name, attributes } => {
                    write_open_tag(out, name, attributes);
                    let children = doc.children(n);
                    if children.is_empty() {
                        out.push_str("/>");
                    } else {
                        out.push('>');
                        stack.push(Item::CloseTag(n));
                        for &c in children.iter().rev() {
                            stack.push(Item::Node(c));
                        }
                    }
                }
            },
        }
    }
}

/// Iterative pretty writer for the element `node`: each element of
/// element-only content goes on its own line, indented two spaces per
/// level; an element with any text child is written compactly on one
/// line so its text is reproduced exactly.
fn write_node_pretty(out: &mut String, doc: &Document, node: NodeId) {
    enum Item {
        /// An element at an indent level.
        Element(NodeId, usize),
        /// The close tag of an element-only element, on its own line.
        CloseTag(NodeId, usize),
    }
    let mut stack = vec![Item::Element(node, 0)];
    while let Some(item) = stack.pop() {
        match item {
            Item::CloseTag(n, indent) => {
                out.push('\n');
                push_indent(out, indent);
                write_close_tag(out, doc, n);
            }
            Item::Element(n, indent) => {
                let NodeKind::Element { name, attributes } = doc.kind(n) else {
                    unreachable!("only elements are pretty-printed on their own line");
                };
                // Every element below the root starts a line of its own.
                if indent > 0 {
                    out.push('\n');
                }
                push_indent(out, indent);
                write_open_tag(out, name, attributes);
                let children = doc.children(n);
                if children.is_empty() {
                    out.push_str("/>");
                    continue;
                }
                out.push('>');
                if children.iter().any(|&c| doc.text(c).is_some()) {
                    for &c in children {
                        write_node(out, doc, c);
                    }
                    write_close_tag(out, doc, n);
                } else {
                    stack.push(Item::CloseTag(n, indent));
                    for &c in children.iter().rev() {
                        stack.push(Item::Element(c, indent + 1));
                    }
                }
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// `<name a="v" …` — the start tag up to, not including, `>` or `/>`.
fn write_open_tag(out: &mut String, name: &str, attributes: &[Attribute]) {
    out.push('<');
    out.push_str(name);
    for a in attributes {
        out.push(' ');
        out.push_str(&a.name);
        out.push_str("=\"");
        escape_attr(out, &a.value);
        out.push('"');
    }
}

fn write_close_tag(out: &mut String, doc: &Document, n: NodeId) {
    out.push_str("</");
    out.push_str(doc.name(n).expect("close tags are elements"));
    out.push('>');
}

fn escape_text(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            '\t' => out.push_str("&#9;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn roundtrip_compact() {
        let src = r#"<a x="1&amp;2"><b/><c>t &lt; u</c></a>"#;
        let d = parse_document(src).unwrap();
        assert_eq!(to_string(&d), src);
    }

    #[test]
    fn escaping() {
        let mut d = Document::new("a");
        d.set_attribute(d.root(), "q", "say \"hi\" & <go>");
        d.add_text(d.root(), "1 < 2 & 3 > 2");
        let s = to_string(&d);
        assert_eq!(
            s,
            "<a q=\"say &quot;hi&quot; &amp; &lt;go&gt;\">1 &lt; 2 &amp; 3 &gt; 2</a>"
        );
        // and it reparses to the same values
        let d2 = parse_document(&s).unwrap();
        assert_eq!(d2.attribute(d2.root(), "q"), Some("say \"hi\" & <go>"));
    }

    #[test]
    fn pretty_print_structure() {
        let d = parse_document("<a><b><c/></b><d>text</d></a>").unwrap();
        let s = to_string_pretty(&d);
        assert!(s.starts_with("<?xml"));
        assert!(s.contains("\n  <b>\n    <c/>\n  </b>"));
        assert!(s.contains("<d>text</d>"));
    }

    #[test]
    fn pretty_print_exact_layout() {
        let d =
            parse_document("<a x=\"1\"><b><c/><d y=\"&lt;\"/></b><e>t<f>u</f>v</e><g><h/></g></a>")
                .unwrap();
        assert_eq!(
            to_string_pretty(&d),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <a x=\"1\">\n  <b>\n    <c/>\n    <d y=\"&lt;\"/>\n  </b>\n  \
             <e>t<f>u</f>v</e>\n  <g>\n    <h/>\n  </g>\n</a>\n"
        );
    }

    #[test]
    fn pretty_print_of_a_deep_chain_needs_no_deep_stack() {
        // Reproducer: the writer used to recurse once per level and
        // overflowed a small thread stack on this chain.
        let mut d = Document::new("a");
        let mut n = d.root();
        for _ in 0..2000 {
            n = d.add_element(n, "a");
        }
        let reparsed = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(move || parse_document(&to_string_pretty(&d)).map(|p| p.element_count()))
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(reparsed.unwrap(), 2001);
    }

    #[test]
    fn pretty_print_reparses_equal_modulo_whitespace() {
        let d = parse_document("<a><b x=\"1\"/><c>hi</c></a>").unwrap();
        let d2 = parse_document(&to_string_pretty(&d)).unwrap();
        assert_eq!(d2.ch_str(d2.root()), vec!["b", "c"]);
        let c = d2.element_children(d2.root()).nth(1).unwrap();
        assert_eq!(d2.text(d2.children(c)[0]), Some("hi"));
    }
}
