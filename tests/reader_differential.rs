//! Differential test for the zero-copy XML reader: the borrowed-token
//! lexer (`xmltree::stream::XmlReader`) must produce *exactly* the event
//! stream of the byte-at-a-time reference reader it replaced
//! (`xmltree::reference::XmlReader`) — same events, same decoded text,
//! same positions — over randomly generated documents exercising entity
//! declarations and references, character references, CDATA sections,
//! comments, processing instructions, and both quote styles; and the
//! same *errors* on randomly damaged inputs. Both byte sources are
//! checked: the in-memory slice source and the rolling-buffer I/O source
//! fed through a reader that dribbles 1–7 bytes per `read` call, so
//! every token shape gets split across refill boundaries somewhere in
//! the run.
//!
//! Every case additionally runs under **both stage-1 kernels** — the
//! detected SIMD engine and the forced-scalar table kernel, which build
//! the same structural index — and must produce identical events and
//! identical rendered errors; dedicated cases pin the window-boundary
//! invariants (structural characters straddling compaction shifts,
//! multi-byte UTF-8 split across refills, invalid UTF-8 blamed at the
//! same byte).
//!
//! The fused push loop (`XmlReader::drive`, which the tree parser and
//! the streaming validators run on) is pinned the same way: a recording
//! sink that collects every text run must see the reference's events
//! with positions stripped, or fail with the reference's exact error.

use std::fmt::Write as _;
use std::io::Read;

use proptest::prelude::*;

use bonxai::xmltree::reference;
use bonxai::xmltree::stream::{
    AttrList, ByteSrc, EventSink, IoSrc, NameId, TextChunk, TextInterest, XmlEvent, XmlReader,
};
use bonxai::xmltree::tree::Attribute;
use bonxai::xmltree::{Engine, Position};

// ---------------------------------------------------------------- generator

/// A content fragment of the generated source text.
#[derive(Debug, Clone)]
enum Frag {
    Plain(String),
    /// A character reference; the bool selects `&#xH;` vs `&#D;`.
    CharRef(u32, bool),
    /// One of the five predefined entities, by name.
    Predef(&'static str),
    /// `&eN;` — declared iff the document declares more than N entities.
    Entity(usize),
    Cdata(String),
    Comment(String),
    Pi(String),
}

fn plain() -> impl Strategy<Value = String> {
    "[a-z0-9 .,;:()!*+-]{1,12}"
}

/// Fragments legal in attribute values and entity replacement text
/// (no CDATA/comments/PIs). `n_refs` bounds which entities may be
/// referenced, so generated entity declarations never recurse.
fn value_frag(n_refs: usize) -> BoxedStrategy<Frag> {
    let refs = if n_refs == 0 {
        plain().prop_map(Frag::Plain).boxed()
    } else {
        (0..n_refs).prop_map(Frag::Entity).boxed()
    };
    prop_oneof![
        4 => plain().prop_map(Frag::Plain),
        1 => (char_ref_code(), any::<bool>()).prop_map(|(c, hex)| Frag::CharRef(c, hex)),
        1 => prop::sample::select(&["lt", "gt", "amp", "quot", "apos"]).prop_map(Frag::Predef),
        1 => refs,
    ]
    .boxed()
}

fn char_ref_code() -> BoxedStrategy<u32> {
    prop::sample::select(&[0x41u32, 0x7A, 0x3B, 0xE9, 0x20AC, 0x10348, 0x9, 0xA])
}

fn content_frag() -> BoxedStrategy<Frag> {
    prop_oneof![
        5 => value_frag(3),
        1 => "[a-z <>&;!?-]{0,10}".prop_map(Frag::Cdata),
        1 => "[a-z 0-9<>&]{0,8}".prop_map(Frag::Comment),
        1 => "[a-z 0-9]{0,8}".prop_map(Frag::Pi),
    ]
    .boxed()
}

#[derive(Debug, Clone)]
struct Elem {
    name: String,
    /// (name, double-quoted?, value fragments)
    attrs: Vec<(String, bool, Vec<Frag>)>,
    children: Vec<Item>,
    /// Written `<name/>` when childless.
    self_close: bool,
}

#[derive(Debug, Clone)]
enum Item {
    F(Frag),
    E(Elem),
}

fn name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,5}"
}

fn attrs() -> BoxedStrategy<Vec<(String, bool, Vec<Frag>)>> {
    prop::collection::vec(
        (
            name(),
            any::<bool>(),
            prop::collection::vec(value_frag(3), 0..3),
        ),
        0..3,
    )
    .prop_map(|mut attrs| {
        attrs.sort_by(|a, b| a.0.cmp(&b.0));
        attrs.dedup_by(|a, b| a.0 == b.0);
        attrs
    })
    .boxed()
}

fn arb_elem() -> BoxedStrategy<Elem> {
    let leaf = (name(), attrs(), any::<bool>()).prop_map(|(name, attrs, self_close)| Elem {
        name,
        attrs,
        children: Vec::new(),
        self_close,
    });
    leaf.prop_recursive(3, 20, 4, |inner| {
        (
            (name(), attrs(), any::<bool>()),
            prop::collection::vec(
                prop_oneof![content_frag().prop_map(Item::F), inner.prop_map(Item::E),],
                0..4,
            ),
        )
            .prop_map(|((name, attrs, self_close), children)| Elem {
                name,
                attrs,
                children,
                self_close,
            })
    })
    .boxed()
}

/// The whole document: misc before/after the root, an optional DOCTYPE
/// declaring the first `n_entities` of three generated entity values,
/// and the root element tree.
#[derive(Debug, Clone)]
struct Doc {
    xml_decl: bool,
    n_entities: usize,
    entity_values: [Vec<Frag>; 3],
    root: Elem,
    trailing_comment: bool,
}

fn arb_doc() -> BoxedStrategy<Doc> {
    (
        (any::<bool>(), 0usize..4, any::<bool>()),
        (
            prop::collection::vec(value_frag(0), 0..3),
            prop::collection::vec(value_frag(1), 0..3),
            prop::collection::vec(value_frag(2), 0..3),
        ),
        arb_elem(),
    )
        .prop_map(
            |((xml_decl, n_entities, trailing_comment), (e0, e1, e2), root)| Doc {
                xml_decl,
                n_entities,
                entity_values: [e0, e1, e2],
                root,
                trailing_comment,
            },
        )
        .boxed()
}

// ------------------------------------------------------------------ render

fn render_frag(f: &Frag, out: &mut String) {
    match f {
        Frag::Plain(s) => out.push_str(s),
        Frag::CharRef(c, true) => write!(out, "&#x{c:X};").expect("write to String"),
        Frag::CharRef(c, false) => write!(out, "&#{c};").expect("write to String"),
        Frag::Predef(n) => write!(out, "&{n};").expect("write to String"),
        Frag::Entity(i) => write!(out, "&e{i};").expect("write to String"),
        Frag::Cdata(s) => write!(out, "<![CDATA[{s}]]>").expect("write to String"),
        Frag::Comment(s) => write!(out, "<!--{s}-->").expect("write to String"),
        Frag::Pi(s) => write!(out, "<?pi {s}?>").expect("write to String"),
    }
}

fn render_elem(e: &Elem, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (n, dq, v) in &e.attrs {
        let q = if *dq { '"' } else { '\'' };
        out.push(' ');
        out.push_str(n);
        out.push('=');
        out.push(q);
        for f in v {
            render_frag(f, out);
        }
        out.push(q);
    }
    if e.children.is_empty() && e.self_close {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &e.children {
        match c {
            Item::F(f) => render_frag(f, out),
            Item::E(child) => render_elem(child, out),
        }
    }
    write!(out, "</{}>", e.name).expect("write to String");
}

fn render_doc(d: &Doc) -> String {
    let mut out = String::new();
    if d.xml_decl {
        out.push_str("<?xml version=\"1.0\"?>\n");
    }
    if d.n_entities > 0 {
        out.push_str("<!DOCTYPE ");
        out.push_str(&d.root.name);
        out.push_str(" [\n");
        for (i, v) in d.entity_values.iter().take(d.n_entities).enumerate() {
            write!(out, "  <!ENTITY e{i} \"").expect("write to String");
            for f in v {
                render_frag(f, &mut out);
            }
            out.push_str("\">\n");
        }
        out.push_str("]>\n");
    }
    render_elem(&d.root, &mut out);
    if d.trailing_comment {
        out.push_str("<!-- end -->");
    }
    out
}

// ----------------------------------------------------------------- drivers

const EVENT_CAP: usize = 100_000;

fn collect_new<S: ByteSrc>(mut r: XmlReader<S>) -> Result<Vec<XmlEvent>, String> {
    let mut out = Vec::new();
    loop {
        match r.next_event() {
            Ok(tok) => {
                let ev = tok.to_event();
                let end = matches!(ev, XmlEvent::EndDocument);
                out.push(ev);
                if end {
                    return Ok(out);
                }
                assert!(out.len() < EVENT_CAP, "runaway event stream");
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Records the events [`XmlReader::drive`] pushes, as position-free
/// [`XmlEvent`]s, asking for every text run in full.
#[derive(Default)]
struct Recorder(Vec<XmlEvent>);

impl EventSink for Recorder {
    fn doctype(&mut self, name: &str, internal_subset: Option<&str>) {
        self.0.push(XmlEvent::Doctype {
            name: name.to_owned(),
            internal_subset: internal_subset.map(str::to_owned),
        });
    }

    fn start_element(
        &mut self,
        name: &str,
        _name_id: NameId,
        attributes: &AttrList<'_>,
        self_closing: bool,
    ) -> TextInterest {
        self.0.push(XmlEvent::StartElement {
            name: name.to_owned(),
            attributes: attributes
                .iter()
                .map(|a| Attribute {
                    name: a.name.to_owned(),
                    value: a.value.to_owned(),
                })
                .collect(),
            self_closing,
            position: Position::default(),
        });
        TextInterest::Collect
    }

    fn end_element(&mut self, name: &str, _name_id: NameId) {
        self.0.push(XmlEvent::EndElement {
            name: name.to_owned(),
            position: Position::default(),
        });
    }

    fn text(&mut self, chunk: TextChunk<'_>) {
        let TextChunk::Collect(text) = chunk else {
            panic!("every element asked for its text, got {chunk:?}");
        };
        self.0.push(XmlEvent::Text {
            text: text.to_owned(),
            position: Position::default(),
        });
    }
}

fn collect_driven<S: ByteSrc>(mut r: XmlReader<S>) -> Result<Vec<XmlEvent>, String> {
    let mut sink = Recorder::default();
    r.drive(&mut sink).map_err(|e| e.to_string())?;
    sink.0.push(XmlEvent::EndDocument);
    Ok(sink.0)
}

/// `events` with every position zeroed, as [`Recorder`] records them.
fn without_positions(events: &[XmlEvent]) -> Vec<XmlEvent> {
    events
        .iter()
        .cloned()
        .map(|mut e| {
            if let XmlEvent::StartElement { position, .. }
            | XmlEvent::EndElement { position, .. }
            | XmlEvent::Text { position, .. } = &mut e
            {
                *position = Position::default();
            }
            e
        })
        .collect()
}

fn collect_reference(input: &str) -> Result<Vec<XmlEvent>, String> {
    let mut r = reference::XmlReader::from_str(input);
    let mut out = Vec::new();
    loop {
        match r.next_event() {
            Ok(ev) => {
                let end = matches!(ev, XmlEvent::EndDocument);
                out.push(ev);
                if end {
                    return Ok(out);
                }
                assert!(out.len() < EVENT_CAP, "runaway event stream");
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// An `io::Read` that returns 1–7 bytes per call, cycling the chunk
/// size, so the rolling buffer refills mid-token in every shape.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.step = self.step % 7 + 1;
        Ok(n)
    }
}

fn dribble(input: &str) -> XmlReader<IoSrc<Dribble<'_>>> {
    XmlReader::from_reader(Dribble {
        data: input.as_bytes(),
        pos: 0,
        step: 1,
    })
}

fn with_engine<S: ByteSrc>(mut r: XmlReader<S>, engine: Engine) -> XmlReader<S> {
    r.set_engine(engine);
    r
}

/// All readers over the same text — slice and dribbled-io sources, under
/// the detected SIMD engine and the forced-scalar kernel, pulled and
/// driven, against the byte-at-a-time reference: identical events
/// (positions included when pulled, stripped when driven) when all
/// succeed, identical rendered errors when all fail, and never one
/// succeeding where another fails.
fn assert_agreement(input: &str) {
    let reference = collect_reference(input);
    let reference_driven = reference
        .as_deref()
        .map(without_positions)
        .map_err(String::clone);
    for engine in [Engine::detect(), Engine::Scalar] {
        for (source, driven) in [
            (
                "slice",
                collect_driven(with_engine(XmlReader::from_str(input), engine)),
            ),
            ("io", collect_driven(with_engine(dribble(input), engine))),
        ] {
            assert_eq!(
                driven,
                reference_driven,
                "drive ({source} source, {} engine) disagrees with the reference on {input:?}",
                engine.name()
            );
        }
        let new_slice = collect_new(with_engine(XmlReader::from_str(input), engine));
        let new_io = collect_new(with_engine(dribble(input), engine));
        assert_eq!(
            new_slice,
            new_io,
            "slice and io sources disagree ({} engine) on {input:?}",
            engine.name()
        );
        assert_eq!(
            new_slice,
            reference,
            "readers disagree ({} engine) on {input:?}",
            engine.name()
        );
    }
}

// ------------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_documents_agree(d in arb_doc()) {
        assert_agreement(&render_doc(&d));
    }

    #[test]
    fn truncated_documents_agree(d in arb_doc(), cut in 0usize..400) {
        let mut text = render_doc(&d);
        let pos = cut.min(text.len());
        let pos = (0..=pos).rev().find(|&p| text.is_char_boundary(p)).expect("0 is a boundary");
        text.truncate(pos);
        assert_agreement(&text);
    }

    #[test]
    fn spliced_documents_agree(
        d in arb_doc(),
        at in 0usize..400,
        junk in prop::sample::select(&["<", ">", "&", ";", "]]>", "--", "/", "=", "\"", "x"]),
    ) {
        let mut text = render_doc(&d);
        let pos = at.min(text.len());
        let pos = (0..=pos).rev().find(|&p| text.is_char_boundary(p)).expect("0 is a boundary");
        text.insert_str(pos, junk);
        assert_agreement(&text);
    }

    #[test]
    fn arbitrary_ascii_agrees(input in "[<>a-z&;/\"'= !\\[\\]?#x0-9-]{0,60}") {
        assert_agreement(&input);
    }
}

/// Structural characters straddling [`IoSrc`] compaction shifts: the
/// document spans several 64 KiB refill windows, and the varying text
/// lengths keep tags sliding against the refill grid, so compaction
/// lands mid-tag in many shapes. Index positions are absolute and must
/// survive every shift.
#[test]
fn window_compaction_straddles_structural_chars() {
    let mut input = String::from("<r>");
    for i in 0..4000 {
        write!(input, "<i a=\"v{i}\">{:x>width$}</i>", "", width = i % 37)
            .expect("write to String");
    }
    input.push_str("</r>");
    assert!(input.len() > 100_000, "must span multiple refill windows");
    assert_agreement(&input);
}

/// Multi-byte UTF-8 split across window refills: dribbled 1–7 bytes per
/// `read`, every 2-, 3-, and 4-byte character lands on a refill boundary
/// somewhere in the run, in text, CDATA, and attribute values. The
/// chunked watermark validation must treat a partial character at the
/// index frontier as "not yet validated", never as an error.
#[test]
fn multibyte_utf8_split_across_windows() {
    let run = "aé€𐍈".repeat(800);
    let input = format!("<r t=\"{run}\">{run}<c><![CDATA[{run}]]></c></r>");
    assert_agreement(&input);
}

/// Diagnostics raised long after the rolling window first compacted:
/// the defect sits past 100 KiB of sliding-width elements (and
/// thousands of newlines), so its position is computed from index
/// bookkeeping that survived many compaction shifts — not from any
/// per-event position threading. Every source × engine combination
/// must render the identical line/column.
#[test]
fn diagnostics_after_window_compaction() {
    let mut ok = String::from("<r>\n");
    for i in 0..4000 {
        writeln!(ok, "<i b=\"w{i}\">{:y>width$}</i>", "", width = i % 29).expect("write to String");
    }
    assert!(ok.len() > 100_000, "must span multiple refill windows");
    let cases = [
        format!("{ok}<i>&nope;</i></r>"),    // undeclared entity
        format!("{ok}</x>"),                 // mismatched close tag
        format!("{ok}<i a='v' a='w'/></r>"), // duplicate attribute
        format!("{ok}<i>text"),              // end of input mid-content
    ];
    for input in &cases {
        assert_agreement(input);
    }
}

/// CDATA↔text adjacency in every coalescing shape: runs that join
/// across CDATA open/close boundaries, comments, PIs, and references
/// must come out as the same single text events — including the
/// whitespace-only / non-whitespace distinction — and malformed
/// boundaries must error identically.
#[test]
fn cdata_text_adjacency_coalesces_identically() {
    let shapes: &[&str] = &[
        "<r>ab<![CDATA[cd]]>ef</r>",
        "<r><![CDATA[cd]]>tail</r>",
        "<r>head<![CDATA[cd]]></r>",
        "<r><![CDATA[a]]><![CDATA[b]]></r>",
        "<r>  <![CDATA[  ]]>  </r>",
        "<r> <![CDATA[x]]> </r>",
        "<r>a<!-- c -->b<![CDATA[c]]>d<?p q?>e</r>",
        "<r>&amp;<![CDATA[&amp;]]>&amp;</r>",
        "<r><![CDATA[]]></r>",
        "<r>x<![CDATA[]]y</r>",
        "<r>x<![CDATA[a]b]]c]]>y</r>",
    ];
    for s in shapes {
        assert_agreement(s);
    }
}

/// Entity references sliding against the refill grid: padding of every
/// length 0..64 pushes `&…;` across a dribbled refill boundary at each
/// of its byte positions, in both text content and attribute values.
/// Decoded output and positions must be unaffected by where the split
/// lands.
#[test]
fn entities_straddle_chunk_edges() {
    let mut input = String::from("<!DOCTYPE r [ <!ENTITY w \"wide value\"> ]>\n<r>");
    for pad in 0..64 {
        write!(
            input,
            "<i a=\"{:->pad$}&w;&#x20AC;\">{:->pad$}&amp;&w;tail</i>",
            "", ""
        )
        .expect("write to String");
    }
    input.push_str("</r>");
    assert_agreement(&input);
}

/// Invalid UTF-8 arriving over io (a `&str` can't carry it): both
/// engines must blame the same byte with the same message — in text, in
/// an attribute value, in CDATA, in a tag name, and as a character
/// truncated by end of input.
#[test]
fn invalid_utf8_error_parity_across_engines() {
    let cases: &[&[u8]] = &[
        b"<r>ab\xFFcd</r>",
        b"<r a=\"x\xC3\x28y\">t</r>",
        b"<r><![CDATA[ab\xE2\x82z]]></r>",
        b"<r>caf\xC3",
        b"<r t\xFF=\"v\"/>",
        b"<r>one<!--\xFF-->two</r>",
    ];
    for case in cases {
        let detected = collect_new(with_engine(XmlReader::from_reader(*case), Engine::detect()));
        let scalar = collect_new(with_engine(XmlReader::from_reader(*case), Engine::Scalar));
        assert_eq!(
            detected,
            scalar,
            "engines disagree on {:?}",
            String::from_utf8_lossy(case)
        );
    }
}

/// A leading UTF-8 byte-order mark is skipped (XML 1.0 §4.3.3) by every
/// reader alike, positions still counting its three bytes. The dribbled
/// io source's first `read` returns one byte, so there the mark arrives
/// split across refills. Only one mark, and only at offset 0: a second
/// one, or one after leading whitespace, is "expected root element".
#[test]
fn leading_byte_order_mark_is_skipped() {
    let accepted = [
        "\u{FEFF}<a/>",
        "\u{FEFF}<?xml version=\"1.0\"?>\n<a x='1'>t&amp;u</a>",
        "\u{FEFF}<!DOCTYPE a [<!ENTITY e \"v\">]><a>&e;</a>",
        "\u{FEFF}\n<a>\n<b/></a>",
        "<a>\u{FEFF}</a>",
    ];
    for input in accepted {
        assert!(collect_reference(input).is_ok(), "{input:?} must parse");
        assert_agreement(input);
    }
    let rejected = [
        "\u{FEFF}\u{FEFF}<a/>",
        " \u{FEFF}<a/>",
        "<a/>\u{FEFF}",
        "\u{FEFF}",
        "\u{FEFF}<a>",
        "\u{FEFF}<a></b>",
    ];
    for input in rejected {
        assert!(
            collect_reference(input).is_err(),
            "{input:?} must not parse"
        );
        assert_agreement(input);
    }
    let err = collect_reference("\u{FEFF}\u{FEFF}<a/>").unwrap_err();
    assert_eq!(err, "1:4: expected root element");
    // A truncated mark (not valid UTF-8, so no `&str` can carry it) is
    // not a mark: every reader expects the root at its first byte.
    let truncated: &[u8] = b"\xEF\xBB<a/>";
    let expected = "1:1: expected root element";
    let mut r = reference::XmlReader::from_reader(truncated);
    assert_eq!(r.next_event().unwrap_err().to_string(), expected);
    for engine in [Engine::detect(), Engine::Scalar] {
        let pulled = collect_new(with_engine(XmlReader::from_reader(truncated), engine));
        let driven = collect_driven(with_engine(XmlReader::from_reader(truncated), engine));
        assert_eq!(pulled.unwrap_err(), expected);
        assert_eq!(driven.unwrap_err(), expected);
    }
}
