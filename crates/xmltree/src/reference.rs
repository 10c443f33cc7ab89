//! The previous byte-at-a-time streaming reader, kept as a behavioral
//! reference for the zero-copy lexer in [`crate::stream`].
//!
//! This is the reader that shipped before the zero-copy front end: it
//! materializes an owned [`XmlEvent`] per pull, bumping one byte at a
//! time. It is not used by the parser or validators — its sole job is to
//! pin the new lexer's semantics: a differential proptest
//! (`tests/reader_differential.rs`) demands the new reader's token
//! stream, after materialization via [`crate::XmlToken::to_event`],
//! be byte-identical (payloads *and* positions) to this one over random
//! documents on both byte sources.
//!
//! Hidden from docs; not part of the crate's supported API.

use std::collections::BTreeMap;

use crate::error::{ParseError, Position};
use crate::stream::{
    decode_char_ref, expand_rec, is_name_char, is_name_start, predefined_entity, ByteSrc, IoSrc,
    SliceSrc, XmlEvent,
};
use crate::tree::Attribute;
use std::io::Read;

/// Where the reader is in the document grammar.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Prolog,
    Content,
    Epilog,
    Done,
}

/// The pre-zero-copy pull parser; see the module docs.
pub struct XmlReader<S> {
    src: S,
    offset: usize,
    line: u32,
    line_start: usize,
    entities: BTreeMap<String, String>,
    expanded: BTreeMap<String, String>,
    open: Vec<String>,
    stage: Stage,
    pending_end: Option<(String, Position)>,
}

impl<'a> XmlReader<SliceSrc<'a>> {
    /// Streams over an in-memory document.
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(input: &'a str) -> Self {
        XmlReader::with_source(SliceSrc::new(input.as_bytes()))
    }
}

impl<R: Read> XmlReader<IoSrc<R>> {
    /// Streams over any [`Read`] with a rolling window.
    pub fn from_reader(src: R) -> Self {
        XmlReader::with_source(IoSrc::new(src))
    }
}

impl<S: ByteSrc> XmlReader<S> {
    /// Wraps an arbitrary byte source.
    pub fn with_source(src: S) -> Self {
        XmlReader {
            src,
            offset: 0,
            line: 1,
            line_start: 0,
            entities: BTreeMap::new(),
            expanded: BTreeMap::new(),
            open: Vec::new(),
            stage: Stage::Prolog,
            pending_end: None,
        }
    }

    /// The current cursor position.
    pub fn position(&self) -> Position {
        Position {
            line: self.line,
            column: (self.offset - self.line_start) as u32 + 1,
            offset: self.offset,
        }
    }

    /// Current element nesting depth (0 outside the root element).
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.pending_end.is_some())
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.position(), msg)
    }

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.src.window(1).first().copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.src.advance(1);
        self.offset += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.offset;
        }
        Some(c)
    }

    fn starts_with(&mut self, s: &str) -> bool {
        self.src.window(s.len()).starts_with(s.as_bytes())
    }

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Pulls the next event. After [`XmlEvent::EndDocument`], returns
    /// `EndDocument` forever.
    pub fn next_event(&mut self) -> Result<XmlEvent, ParseError> {
        match self.stage {
            Stage::Prolog => self.next_prolog(),
            Stage::Content => self.next_content(),
            Stage::Epilog => self.next_epilog(),
            Stage::Done => Ok(XmlEvent::EndDocument),
        }
    }

    fn next_prolog(&mut self) -> Result<XmlEvent, ParseError> {
        // One leading byte-order mark is allowed (XML 1.0 §4.3.3).
        if self.offset == 0 && self.starts_with("\u{FEFF}") {
            for _ in 0..3 {
                self.bump();
            }
        }
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                let (name, internal_subset) = self.parse_doctype()?;
                return Ok(XmlEvent::Doctype {
                    name,
                    internal_subset,
                });
            } else if self.peek() == Some(b'<') {
                self.stage = Stage::Content;
                return self.read_start_tag();
            } else {
                return Err(self.err("expected root element"));
            }
        }
    }

    fn next_content(&mut self) -> Result<XmlEvent, ParseError> {
        if let Some((name, position)) = self.pending_end.take() {
            if self.open.is_empty() {
                self.stage = Stage::Epilog;
            }
            return Ok(XmlEvent::EndElement { name, position });
        }
        let mut text = String::new();
        let mut text_pos = self.position();
        loop {
            match self.peek() {
                None => {
                    let name = self.open.last().cloned().unwrap_or_default();
                    return Err(self.err(format!("unexpected end of input in <{name}>")));
                }
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        if text.is_empty() {
                            text_pos = self.position();
                        }
                        self.read_cdata(&mut text)?;
                    } else if self.starts_with("<?") {
                        self.skip_pi()?;
                    } else if !text.is_empty() {
                        // A real tag follows: flush the coalesced run
                        // first, leaving the cursor on the `<`.
                        return Ok(XmlEvent::Text {
                            text,
                            position: text_pos,
                        });
                    } else if self.starts_with("</") {
                        return self.read_end_tag();
                    } else {
                        return self.read_start_tag();
                    }
                }
                Some(b'&') => {
                    if text.is_empty() {
                        text_pos = self.position();
                    }
                    let resolved = self.parse_entity_ref()?;
                    text.push_str(&resolved);
                }
                Some(_) => {
                    if text.is_empty() {
                        text_pos = self.position();
                    }
                    self.read_char_into(&mut text)?;
                }
            }
        }
    }

    fn next_epilog(&mut self) -> Result<XmlEvent, ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.peek().is_some() {
                return Err(self.err("unexpected content after root element"));
            } else {
                self.stage = Stage::Done;
                return Ok(XmlEvent::EndDocument);
            }
        }
    }

    /// Consumes one character of content (multi-byte sequences are
    /// re-validated as UTF-8) into `out`.
    fn read_char_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.bump().expect("peeked");
        if c < 0x80 {
            out.push(c as char);
            return Ok(());
        }
        // Collect the continuation bytes of this sequence (at most 3).
        let mut seq = [c, 0, 0, 0];
        let mut len = 1;
        while len < 4 {
            match self.peek() {
                Some(b) if b & 0xC0 == 0x80 => {
                    seq[len] = b;
                    len += 1;
                    self.bump();
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&seq[..len]).map_err(|_| self.err("invalid UTF-8 sequence"))?;
        out.push_str(s);
        Ok(())
    }

    fn read_start_tag(&mut self) -> Result<XmlEvent, ParseError> {
        let position = self.position();
        self.expect_str("<")?;
        let name = self.parse_name()?;
        let mut attributes: Vec<Attribute> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => break,
                _ => {}
            }
            let attr_name = self.parse_name()?;
            self.skip_ws();
            self.expect_str("=")?;
            self.skip_ws();
            let value = self.parse_attr_value()?;
            if attributes.iter().any(|a| a.name == attr_name) {
                return Err(self.err(format!("duplicate attribute {attr_name:?}")));
            }
            attributes.push(Attribute {
                name: attr_name,
                value,
            });
        }
        self.skip_ws();
        let self_closing = if self.starts_with("/>") {
            self.expect_str("/>")?;
            true
        } else {
            self.expect_str(">")?;
            false
        };
        if self_closing {
            self.pending_end = Some((name.clone(), self.position()));
        } else {
            self.open.push(name.clone());
        }
        Ok(XmlEvent::StartElement {
            name,
            attributes,
            self_closing,
            position,
        })
    }

    fn read_end_tag(&mut self) -> Result<XmlEvent, ParseError> {
        let position = self.position();
        self.expect_str("</")?;
        let close = self.parse_name()?;
        let expected = self.open.last().expect("content stage has an open element");
        if close != *expected {
            return Err(self.err(format!(
                "mismatched close tag: expected </{expected}>, found </{close}>"
            )));
        }
        self.skip_ws();
        self.expect_str(">")?;
        self.open.pop();
        if self.open.is_empty() {
            self.stage = Stage::Epilog;
        }
        Ok(XmlEvent::EndElement {
            name: close,
            position,
        })
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    let resolved = self.parse_entity_ref()?;
                    value.push_str(&resolved);
                }
                Some(_) => self.read_char_into(&mut value)?,
            }
        }
    }

    /// Resolves `&…;` at the cursor: a character reference (validated
    /// against the XML `Char` production) or a general entity (expanded
    /// recursively with depth/size guards).
    fn parse_entity_ref(&mut self) -> Result<String, ParseError> {
        let pos = self.position();
        self.expect_str("&")?;
        if self.peek() == Some(b'#') {
            self.bump();
            let (radix, digits_ok): (u32, fn(u8) -> bool) = if self.peek() == Some(b'x') {
                self.bump();
                (16, |c: u8| c.is_ascii_hexdigit())
            } else {
                (10, |c: u8| c.is_ascii_digit())
            };
            let mut digits = String::new();
            while matches!(self.peek(), Some(c) if digits_ok(c)) {
                digits.push(self.bump().expect("peeked") as char);
            }
            if digits.is_empty() {
                return Err(self.err("empty character reference"));
            }
            self.expect_str(";")?;
            let ch = decode_char_ref(&digits, radix).map_err(|msg| ParseError::new(pos, msg))?;
            return Ok(ch.to_string());
        }
        let name = self.parse_name()?;
        self.expect_str(";")?;
        if let Some(predef) = predefined_entity(&name) {
            return Ok(predef.to_owned());
        }
        self.expand_entity(&name, pos)
    }

    /// Fully expands general entity `name`, resolving nested references
    /// in its replacement text. Memoized per entity.
    fn expand_entity(&mut self, name: &str, pos: Position) -> Result<String, ParseError> {
        if let Some(v) = self.expanded.get(name) {
            return Ok(v.clone());
        }
        if !self.entities.contains_key(name) {
            return Err(ParseError::new(pos, format!("undeclared entity &{name};")));
        }
        let mut active: Vec<&str> = Vec::new();
        let mut produced = 0usize;
        let out = expand_rec(&self.entities, name, &mut active, &mut produced, pos)?;
        self.expanded.insert(name.to_owned(), out.clone());
        Ok(out)
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let mut raw = Vec::new();
        match self.peek() {
            Some(c) if is_name_start(c) => {
                raw.push(c);
                self.bump();
            }
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            raw.push(self.bump().expect("peeked"));
        }
        String::from_utf8(raw).map_err(|_| self.err("invalid UTF-8 in name"))
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.expect_str("<!--")?;
        loop {
            if self.starts_with("-->") {
                return self.expect_str("-->");
            }
            if self.bump().is_none() {
                return Err(self.err("unterminated comment"));
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.expect_str("<?")?;
        loop {
            if self.starts_with("?>") {
                return self.expect_str("?>");
            }
            if self.bump().is_none() {
                return Err(self.err("unterminated processing instruction"));
            }
        }
    }

    fn read_cdata(&mut self, text: &mut String) -> Result<(), ParseError> {
        self.expect_str("<![CDATA[")?;
        let mut raw = Vec::new();
        loop {
            if self.starts_with("]]>") {
                let content =
                    std::str::from_utf8(&raw).map_err(|_| self.err("invalid UTF-8 in CDATA"))?;
                text.push_str(content);
                return self.expect_str("]]>");
            }
            match self.bump() {
                Some(b) => raw.push(b),
                None => return Err(self.err("unterminated CDATA section")),
            }
        }
    }

    fn parse_doctype(&mut self) -> Result<(String, Option<String>), ParseError> {
        self.expect_str("<!DOCTYPE")?;
        self.skip_ws();
        let name = self.parse_name()?;
        self.skip_ws();
        // Optional external ID (SYSTEM/PUBLIC) — recorded but not fetched.
        if self.starts_with("SYSTEM") {
            self.expect_str("SYSTEM")?;
            self.skip_ws();
            self.parse_attr_value()?;
            self.skip_ws();
        } else if self.starts_with("PUBLIC") {
            self.expect_str("PUBLIC")?;
            self.skip_ws();
            self.parse_attr_value()?;
            self.skip_ws();
            self.parse_attr_value()?;
            self.skip_ws();
        }
        let mut subset = None;
        if self.peek() == Some(b'[') {
            self.bump();
            let subset_pos = self.position();
            let mut raw = Vec::new();
            let mut depth = 0usize;
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated DOCTYPE internal subset")),
                    Some(b'<') => {
                        depth += 1;
                        raw.push(b'<');
                        self.bump();
                    }
                    Some(b'>') => {
                        depth = depth.saturating_sub(1);
                        raw.push(b'>');
                        self.bump();
                    }
                    Some(b']') if depth == 0 => {
                        self.bump();
                        break;
                    }
                    Some(c) => {
                        raw.push(c);
                        self.bump();
                    }
                }
            }
            let text = String::from_utf8(raw).map_err(|_| self.err("invalid UTF-8 in DTD"))?;
            self.load_entities(&text, subset_pos)?;
            subset = Some(text);
            self.skip_ws();
        }
        self.expect_str(">")?;
        Ok((name, subset))
    }

    /// Extracts general-entity declarations from the internal subset.
    fn load_entities(&mut self, subset: &str, subset_pos: Position) -> Result<(), ParseError> {
        match crate::dtd::parser::parse_dtd(subset) {
            Ok(dtd) => {
                for (name, value) in dtd.general_entities {
                    self.entities.insert(name, value);
                }
                Ok(())
            }
            Err(e) => {
                // Translate the subset-relative position to the document.
                let position = Position {
                    line: subset_pos.line + e.position.line - 1,
                    column: if e.position.line == 1 {
                        subset_pos.column + e.position.column - 1
                    } else {
                        e.position.column
                    },
                    offset: subset_pos.offset + e.position.offset,
                };
                Err(ParseError::new(
                    position,
                    format!("in DTD internal subset: {}", e.message),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reader_still_parses() {
        let mut r = XmlReader::from_str("<a x=\"1\"><b>h&amp;i</b><c/></a>");
        let mut n = 0;
        loop {
            match r.next_event().expect("valid") {
                XmlEvent::EndDocument => break,
                _ => n += 1,
            }
        }
        assert_eq!(n, 7);
    }
}
