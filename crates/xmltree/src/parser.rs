//! The tree-building XML parser: a sink of the streaming reader's fused
//! drive loop.
//!
//! All lexing, entity expansion, and well-formedness checking lives in
//! [`crate::stream`]; this module only materializes the events that
//! [`XmlReader::drive`] pushes as a [`Document`]. The streaming
//! validators are sinks of the same loop, so they see *exactly* the
//! trees this parser builds — node ids included, since nodes are
//! allocated in event order — which is what makes streamed and
//! tree-based validation reports byte-identical.
//!
//! Covers the language the paper's artifacts need — and then some: prolog,
//! processing instructions, comments, `DOCTYPE` with an internal subset
//! (handed to [`crate::dtd`] for declaration parsing; general entities
//! declared there are resolved in content, recursively), CDATA sections,
//! character and predefined entity references, attributes, and
//! self-closing tags. Errors carry line/column positions.

use crate::error::ParseError;
use crate::stream::{AttrList, ByteSrc, EventSink, NameId, TextChunk, TextInterest, XmlReader};
use crate::tree::{Document, NodeId};

/// The result of parsing an XML file.
#[derive(Clone, Debug)]
pub struct ParsedXml {
    /// The document tree.
    pub document: Document,
    /// The name declared in `<!DOCTYPE name …>`, if present.
    pub doctype_name: Option<String>,
    /// The raw internal DTD subset (between `[` and `]`), if present.
    pub internal_subset: Option<String>,
}

/// Parses an XML document from a string.
pub fn parse(input: &str) -> Result<ParsedXml, ParseError> {
    parse_from_reader(XmlReader::from_str(input))
}

/// Builds the tree from an already-constructed reader.
///
/// [`parse`] is just this applied to [`XmlReader::from_str`]. Exposed so
/// callers that need a non-default reader — a forced lexer engine
/// ([`XmlReader::set_engine`]), an incremental
/// [`io::Read`](std::io::Read) source — can still reuse the exact same
/// materialization.
pub fn parse_from_reader<S: ByteSrc>(mut reader: XmlReader<S>) -> Result<ParsedXml, ParseError> {
    let mut sink = TreeSink {
        doctype_name: None,
        internal_subset: None,
        document: None,
        // Pre-sized to a typical document depth so steady-state parsing
        // never reallocates it.
        stack: Vec::with_capacity(16),
    };
    reader.drive(&mut sink)?;
    Ok(ParsedXml {
        document: sink.document.expect("a completed drive saw a root element"),
        doctype_name: sink.doctype_name,
        internal_subset: sink.internal_subset,
    })
}

/// The [`EventSink`] that builds a [`Document`]: it collects every text
/// run and allocates nodes in event order.
struct TreeSink {
    doctype_name: Option<String>,
    internal_subset: Option<String>,
    /// Created at the root's start tag.
    document: Option<Document>,
    /// Open elements, innermost last.
    stack: Vec<NodeId>,
}

impl EventSink for TreeSink {
    fn doctype(&mut self, name: &str, internal_subset: Option<&str>) {
        self.doctype_name = Some(name.to_owned());
        if let Some(s) = internal_subset {
            self.internal_subset = Some(s.to_owned());
        }
    }

    fn start_element(
        &mut self,
        name: &str,
        name_id: NameId,
        attributes: &AttrList<'_>,
        _self_closing: bool,
    ) -> TextInterest {
        let (doc, node) = match (&mut self.document, self.stack.last()) {
            (Some(doc), Some(&parent)) => {
                // The reader's dense first-occurrence ids coincide with
                // the document's name interner by construction, so the
                // hinted path skips hashing entirely.
                let node = doc.add_element_hinted(parent, name, name_id.index());
                (doc, node)
            }
            (document, _) => {
                let doc = document.insert(Document::new(name));
                let root = doc.root();
                (doc, root)
            }
        };
        for a in attributes.iter() {
            doc.set_attribute(node, a.name, a.value);
        }
        self.stack.push(node);
        TextInterest::Collect
    }

    fn end_element(&mut self, _name: &str, _name_id: NameId) {
        self.stack.pop();
    }

    fn text(&mut self, chunk: TextChunk<'_>) {
        if let (TextChunk::Collect(text), Some(doc), Some(&parent)) =
            (chunk, &mut self.document, self.stack.last())
        {
            doc.add_text(parent, text);
        }
    }
}

/// Parses an XML document, returning only the tree.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    parse(input).map(|p| p.document)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let d = parse_document("<root/>").unwrap();
        assert_eq!(d.name(d.root()), Some("root"));
        assert!(d.children(d.root()).is_empty());
    }

    #[test]
    fn parses_nested_elements_and_attributes() {
        let d = parse_document(r#"<a x="1"><b y='2'/><c>text</c></a>"#).unwrap();
        assert_eq!(d.attribute(d.root(), "x"), Some("1"));
        assert_eq!(d.ch_str(d.root()), vec!["b", "c"]);
        let c = d.children(d.root())[1];
        assert_eq!(d.text(d.children(c)[0]), Some("text"));
    }

    #[test]
    fn resolves_predefined_entities() {
        let d = parse_document("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>").unwrap();
        let t = d.children(d.root())[0];
        assert_eq!(d.text(t), Some("<&>\"'AB"));
    }

    #[test]
    fn entities_in_attributes() {
        let d = parse_document(r#"<a t="a&amp;b&#33;"/>"#).unwrap();
        assert_eq!(d.attribute(d.root(), "t"), Some("a&b!"));
    }

    #[test]
    fn parses_cdata() {
        let d = parse_document("<a><![CDATA[<not-a-tag> & stuff]]></a>").unwrap();
        let t = d.children(d.root())[0];
        assert_eq!(d.text(t), Some("<not-a-tag> & stuff"));
    }

    #[test]
    fn skips_comments_and_pis() {
        let d = parse_document("<?xml version=\"1.0\"?><!-- hi --><a><?pi data?><!--x--><b/></a>")
            .unwrap();
        assert_eq!(d.ch_str(d.root()), vec!["b"]);
    }

    #[test]
    fn doctype_with_internal_subset_and_entities() {
        let input = r#"<!DOCTYPE a [
            <!ELEMENT a (#PCDATA)>
            <!ENTITY greeting "hello world">
        ]>
        <a>&greeting;!</a>"#;
        let p = parse(input).unwrap();
        assert_eq!(p.doctype_name.as_deref(), Some("a"));
        assert!(p.internal_subset.is_some());
        let d = &p.document;
        assert_eq!(d.text(d.children(d.root())[0]), Some("hello world!"));
    }

    #[test]
    fn nested_entity_references_expand_recursively() {
        // Regression: the seed parser returned replacement text verbatim,
        // so &outer; kept the literal string "&inner;".
        let input = r#"<!DOCTYPE a [
            <!ENTITY inner "deep">
            <!ENTITY outer "so &inner; here">
            <!ENTITY outest "&outer;&outer;">
        ]><a>&outest;</a>"#;
        let d = parse_document(input).unwrap();
        assert_eq!(
            d.text(d.children(d.root())[0]),
            Some("so deep hereso deep here")
        );
    }

    #[test]
    fn recursive_and_oversized_entities_are_parse_errors() {
        let recursive = r#"<!DOCTYPE a [<!ENTITY x "&x;">]><a>&x;</a>"#;
        let e = parse_document(recursive).unwrap_err();
        assert!(e.message.contains("recursive"), "{e}");

        let mut subset = String::from("<!ENTITY l0 \"aaaaaaaaaaaaaaaaaaaa\">");
        for i in 1..10 {
            let p = i - 1;
            let tenfold = format!("&l{p};").repeat(10);
            subset.push_str(&format!("<!ENTITY l{i} \"{tenfold}\">"));
        }
        let bomb = format!("<!DOCTYPE a [{subset}]><a>&l9;</a>");
        let e = parse_document(&bomb).unwrap_err();
        assert!(e.message.contains("expands to more than"), "{e}");
    }

    #[test]
    fn malformed_internal_subset_surfaces_the_dtd_error() {
        // Regression: the seed parser swallowed DTD errors, silently
        // dropping all entity declarations and misreporting `&ok;` below
        // as an undeclared entity.
        let input = "<!DOCTYPE a [\n<!ENTITY ok \"fine\">\n<!ENTITY broken \"oops>\n]><a>&ok;</a>";
        let e = parse_document(input).unwrap_err();
        assert!(e.message.contains("in DTD internal subset"), "{e}");
        assert!(
            e.position.line >= 2,
            "position {:?} must be inside the subset",
            e.position
        );
    }

    #[test]
    fn forbidden_character_references_rejected() {
        // Regression: the seed parser accepted any char::from_u32 value,
        // including NUL and other XML-1.0-forbidden control characters.
        for bad in ["<a>&#0;</a>", "<a>&#x1F;</a>", "<a t=\"&#xFFFF;\"/>"] {
            let e = parse_document(bad).unwrap_err();
            assert!(e.message.contains("XML character"), "{bad}: {e}");
        }
        let d = parse_document("<a>&#9;&#xD;&#x10FFFF;</a>").unwrap();
        assert_eq!(d.text(d.children(d.root())[0]), Some("\t\r\u{10FFFF}"));
    }

    #[test]
    fn mismatched_tags_error_with_position() {
        let e = parse_document("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.position.line, 2);
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_document("").is_err());
        assert!(parse_document("plain text").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b/>").is_err());
        assert!(parse_document("<a x=1/>").is_err());
        assert!(parse_document("<a>&undefined;</a>").is_err());
        assert!(parse_document("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn whitespace_only_text_is_kept_as_nodes() {
        let d = parse_document("<a>\n  <b/>\n</a>").unwrap();
        // text, element, text
        assert_eq!(d.children(d.root()).len(), 3);
        assert!(!d.has_significant_text(d.root()));
    }

    #[test]
    fn unicode_content() {
        let d = parse_document("<a title=\"naïve\">héllo — wörld</a>").unwrap();
        let t = d.children(d.root())[0];
        assert_eq!(d.text(t), Some("héllo — wörld"));
    }

    #[test]
    fn doctype_system_id() {
        let p = parse("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>").unwrap();
        assert_eq!(p.doctype_name.as_deref(), Some("a"));
        assert!(p.internal_subset.is_none());
    }
}
