//! Pull-based streaming XML reader with zero-copy tokens.
//!
//! [`XmlReader`] lexes a document into a flat sequence of [`XmlToken`]s —
//! start/end tags, coalesced character data, the DOCTYPE — without ever
//! building a tree, and (new in this revision) without materializing
//! owned `String`s on the hot path:
//!
//! * token payloads are `&str` slices **borrowed from the reader** — from
//!   the source window when the bytes appear verbatim in the input (the
//!   overwhelmingly common case), or from an internal scratch buffer when
//!   decoding was required (entity references, CDATA splicing). Either
//!   way the consumer sees fully decoded text with no per-event
//!   allocation; slices stay valid until the next [`XmlReader::next_event`]
//!   call (consumption of the underlying bytes is deferred until then);
//! * lexing is **two-stage** (simdjson-style): stage 1
//!   ([`crate::simd`]) scans each buffer chunk once with SIMD compare
//!   lanes (SSE2/NEON, runtime-dispatched) and records a compact
//!   `StructIdx` of structural positions (`<`, `>`, `"`, `'`, `&`,
//!   `]`), newline offsets, and a batched UTF-8 validity watermark;
//!   stage 2 (this module's token layer) walks the index — a text run
//!   ends at the next `<`/`&` mark, a tag extent is the next unquoted
//!   `>` mark with quote marks hopped pairwise, and a complete tag is
//!   parsed out of the materialized slice in one pass. Positions in the
//!   index are **absolute**, so they survive [`IoSrc`] window
//!   compaction unchanged. On anything unusual (entity references in
//!   attribute values, malformed tags, spans reaching past the UTF-8
//!   watermark, oversized tokens, end of input) the token layer falls
//!   back to the scalar scan of the same bytes, which keeps errors and
//!   positions byte-identical by construction;
//! * the scalar fallback — also selected by [`Engine::Scalar`] via
//!   [`XmlReader::set_engine`] or the `BONXAI_NO_SIMD` environment
//!   variable — skips the index entirely: delimiter searches use SWAR
//!   word-at-a-time scanning ([`mod@self`]-internal `memchr`-style
//!   helpers), exactly the pre-index code path;
//! * UTF-8 is validated in bulk per indexed chunk (SIMD engines) or
//!   once per slice at token boundaries (scalar engine), never per
//!   character; spans proven valid are materialized without a second
//!   validation pass;
//! * element names are interned into a dense per-reader pool on first
//!   occurrence: every start/end token carries a [`NameId`], so a
//!   streaming validator can map names to schema symbols with one array
//!   load per element and never touch string data on the match path.
//!
//! The reader is generic over a [`ByteSrc`]:
//!
//! * [`SliceSrc`] — a borrowed in-memory buffer (zero copies, used by
//!   [`crate::parse`]);
//! * [`IoSrc`] — any [`std::io::Read`] behind a small rolling window, so
//!   arbitrarily large documents arriving from a file or socket are
//!   consumed in O(window + depth) memory. The window compacts its
//!   consumed prefix only past a threshold (not on every refill), and the
//!   reader bounds any single token to `XmlReader::max_token` bytes so
//!   the window cannot grow without limit on adversarial input.
//!
//! Character data is coalesced exactly as the tree parser merges text
//! nodes: one [`XmlToken::Text`] per maximal run of character data, CDATA
//! sections, and entity expansions, with comments and processing
//! instructions spliced out. Whitespace-only runs are preserved.
//!
//! General entities declared in the internal DTD subset are expanded
//! recursively (nested `&ref;` inside an entity value is resolved), with a
//! depth bound ([`MAX_ENTITY_DEPTH`]) and a total-output bound
//! ([`MAX_ENTITY_EXPANSION`]) so recursive or billion-laughs-style inputs
//! fail with a positioned [`ParseError`] instead of diverging.
//!
//! The previous owned-event reader is preserved verbatim as
//! [`crate::reference`] and pinned event-identical to this one by a
//! differential proptest (`tests/reader_differential.rs`).

use std::collections::BTreeMap;
use std::io::Read;

use crate::error::{ParseError, Position};
use crate::simd::{self, Engine};
use crate::tree::Attribute;

/// Maximum nesting depth of entity references inside entity values.
pub const MAX_ENTITY_DEPTH: usize = 16;

/// Maximum total bytes one content-level entity reference may expand to
/// (the billion-laughs guard).
pub const MAX_ENTITY_EXPANSION: usize = 1 << 20;

/// Default cap on the byte length of a single token (tag, text run,
/// comment, CDATA section); see [`XmlReader::set_max_token`].
pub const DEFAULT_MAX_TOKEN: usize = 16 * 1024 * 1024;

/// Size of the rolling window an [`IoSrc`] reads ahead.
const IO_CHUNK: usize = 64 * 1024;

/// Consumed-prefix length below which an [`IoSrc`] refill grows the
/// buffer in place instead of sliding the live tail down. Compacting on
/// every refill (the previous behavior) copies the whole unconsumed tail
/// each time the window is extended mid-token.
const COMPACT_THRESHOLD: usize = 4 * 1024;

/// Granularity of the stage-1 structural-index pass: each extension of
/// the index classifies at least this many bytes (when available), so
/// the SIMD kernel amortizes its setup over whole chunks instead of
/// being re-entered per token.
const IDX_CHUNK: usize = 4 * 1024;

/// An owned streaming XML event — [`XmlToken`] with the borrows
/// materialized (see [`XmlToken::to_event`]). Kept for consumers that
/// outlive the reader's buffer and for test fixtures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<!DOCTYPE name …>`, with the raw internal subset if present.
    /// Entity declarations from the subset take effect on later events.
    Doctype {
        /// The declared document-type name.
        name: String,
        /// The raw text between `[` and `]`, if a subset was present.
        internal_subset: Option<String>,
    },
    /// An element start tag (or the opening half of a self-closing tag).
    StartElement {
        /// Element name as written.
        name: String,
        /// Attributes in document order, entity references resolved.
        attributes: Vec<Attribute>,
        /// Whether the tag was written `<name …/>`. A matching
        /// [`XmlEvent::EndElement`] is synthesized either way.
        self_closing: bool,
        /// Position of the `<`.
        position: Position,
    },
    /// An element end tag (synthesized for self-closing tags).
    EndElement {
        /// Element name.
        name: String,
        /// Position of the `</` (or of the end of a self-closing tag).
        position: Position,
    },
    /// A maximal run of character data (text, CDATA, entity expansions).
    /// Never empty; whitespace-only runs are emitted.
    Text {
        /// The decoded character data.
        text: String,
        /// Position where the run began.
        position: Position,
    },
    /// End of the document (after the root element and trailing misc).
    EndDocument,
}

/// Dense id of a distinct element name within one [`XmlReader`].
///
/// Ids are assigned in first-occurrence order of element names in
/// document order — exactly the order [`crate::tree::Document`] interns
/// names when the tree parser folds over the same events — so a
/// streaming consumer can maintain a per-id side table (e.g. resolved
/// schema symbols) as a plain dense vector.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NameId(u32);

impl NameId {
    /// The dense index of this name (0-based, first occurrence order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A borrowed streaming XML token. Payload slices live until the next
/// [`XmlReader::next_event`] call.
#[derive(Debug)]
pub enum XmlToken<'a> {
    /// `<!DOCTYPE name …>`, with the raw internal subset if present.
    Doctype {
        /// The declared document-type name.
        name: &'a str,
        /// The raw text between `[` and `]`, if a subset was present.
        internal_subset: Option<&'a str>,
    },
    /// An element start tag (or the opening half of a self-closing tag).
    StartElement {
        /// Element name as written.
        name: &'a str,
        /// Dense id of the name within this reader.
        name_id: NameId,
        /// Attributes in document order, decoded on demand.
        attributes: AttrList<'a>,
        /// Whether the tag was written `<name …/>`. A matching
        /// [`XmlToken::EndElement`] is synthesized either way.
        self_closing: bool,
        /// Position of the `<`.
        position: Position,
    },
    /// An element end tag (synthesized for self-closing tags).
    EndElement {
        /// Element name, resolved lazily from the reader's name pool —
        /// consumers that dispatch on `name_id` alone (the tree parser,
        /// the streaming validator) never pay the pool load.
        name: LazyName<'a>,
        /// Dense id of the name within this reader.
        name_id: NameId,
        /// Position of the `</` (or of the end of a self-closing tag).
        position: Position,
    },
    /// A maximal run of character data (text, CDATA, entity expansions).
    /// Never empty; whitespace-only runs are emitted.
    Text {
        /// The decoded character data.
        text: &'a str,
        /// Position where the run began.
        position: Position,
    },
    /// End of the document (after the root element and trailing misc).
    EndDocument,
}

/// A deferred element-name lookup: the [`NameId`] plus the pool it
/// resolves in. End tags always close the innermost open element, whose
/// name the reader already knows by id — materializing the `&str` on
/// every end token was pure overhead for consumers that only match on
/// the id, so the token carries this handle instead and [`Self::as_str`]
/// does the (single array-load) resolution on demand.
#[derive(Clone, Copy)]
pub struct LazyName<'a> {
    pool: &'a NamePool,
    id: NameId,
}

impl<'a> LazyName<'a> {
    /// The dense id of this name.
    #[inline]
    pub fn id(&self) -> NameId {
        self.id
    }

    /// Resolves the name string (one array load).
    #[inline]
    pub fn as_str(&self) -> &'a str {
        self.pool.get(self.id)
    }
}

impl std::fmt::Debug for LazyName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for LazyName<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl XmlToken<'_> {
    /// Whether this is [`XmlToken::EndDocument`].
    #[inline]
    pub fn is_end_document(&self) -> bool {
        matches!(self, XmlToken::EndDocument)
    }

    /// Materializes the borrows into an owned [`XmlEvent`].
    pub fn to_event(&self) -> XmlEvent {
        match self {
            XmlToken::Doctype {
                name,
                internal_subset,
            } => XmlEvent::Doctype {
                name: (*name).to_owned(),
                internal_subset: internal_subset.map(str::to_owned),
            },
            XmlToken::StartElement {
                name,
                attributes,
                self_closing,
                position,
                ..
            } => XmlEvent::StartElement {
                name: (*name).to_owned(),
                attributes: attributes
                    .iter()
                    .map(|a| Attribute {
                        name: a.name.to_owned(),
                        value: a.value.to_owned(),
                    })
                    .collect(),
                self_closing: *self_closing,
                position: *position,
            },
            XmlToken::EndElement { name, position, .. } => XmlEvent::EndElement {
                name: name.as_str().to_owned(),
                position: *position,
            },
            XmlToken::Text { text, position } => XmlEvent::Text {
                text: (*text).to_owned(),
                position: *position,
            },
            XmlToken::EndDocument => XmlEvent::EndDocument,
        }
    }
}

/// One decoded attribute of a start tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name as written.
    pub name: &'a str,
    /// Attribute value, entity references resolved.
    pub value: &'a str,
}

/// Byte spans of one attribute within the current tag / scratch buffer.
#[derive(Clone, Copy, Debug)]
struct AttrSpan {
    name_start: u32,
    name_end: u32,
    val_start: u32,
    val_end: u32,
    /// Whether the value spans the entity scratch (decoded) instead of
    /// the raw tag bytes.
    val_in_scratch: bool,
}

/// The attributes of a start tag, decoded lazily from byte spans — no
/// per-event allocation happens for attributes the consumer never reads.
#[derive(Clone, Copy)]
pub struct AttrList<'a> {
    spans: &'a [AttrSpan],
    /// The raw bytes of the whole tag (`<` through `>`).
    tag: &'a [u8],
    /// Decoded attribute values that contained entity references.
    scratch: &'a str,
}

impl<'a> AttrList<'a> {
    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the tag had no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th attribute in document order.
    pub fn get(&self, i: usize) -> Attr<'a> {
        let sp = &self.spans[i];
        let name = str_from_checked(&self.tag[sp.name_start as usize..sp.name_end as usize]);
        let value = if sp.val_in_scratch {
            &self.scratch[sp.val_start as usize..sp.val_end as usize]
        } else {
            str_from_checked(&self.tag[sp.val_start as usize..sp.val_end as usize])
        };
        Attr { name, value }
    }

    /// Iterates over the attributes in document order.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter { list: *self, i: 0 }
    }
}

impl std::fmt::Debug for AttrList<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over an [`AttrList`].
#[derive(Clone)]
pub struct AttrIter<'a> {
    list: AttrList<'a>,
    i: usize,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = Attr<'a>;

    fn next(&mut self) -> Option<Attr<'a>> {
        if self.i < self.list.len() {
            let a = self.list.get(self.i);
            self.i += 1;
            Some(a)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.list.len() - self.i;
        (n, Some(n))
    }
}

impl<'a> IntoIterator for AttrList<'a> {
    type Item = Attr<'a>;
    type IntoIter = AttrIter<'a>;

    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

/// What an [`EventSink`] wants from character data inside an element,
/// declared once per element at its start tag. The fused drive loop
/// ([`XmlReader::drive`]) uses the declaration to skip materializing
/// text the sink would only throw away: under [`TextInterest::Ignore`]
/// a text run costs one mark lookup, under
/// [`TextInterest::NonWhitespace`] one vectorized whitespace scan, and
/// only [`TextInterest::Collect`] delivers the decoded bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TextInterest {
    /// Count the text node; its contents are irrelevant.
    Ignore,
    /// Report only whether the run contains a non-whitespace character
    /// (the element-only-content check of a streaming validator).
    NonWhitespace,
    /// Deliver the decoded text (simple-content accumulation).
    Collect,
}

/// One text node as delivered to [`EventSink::text`], shaped by the
/// enclosing element's [`TextInterest`].
#[derive(Debug)]
pub enum TextChunk<'a> {
    /// The enclosing interest was [`TextInterest::Ignore`].
    Skipped,
    /// Whether the run contains any non-whitespace character — exactly
    /// `!text.chars().all(is_xml_whitespace)` over the decoded run.
    NonWs(bool),
    /// The decoded run (never empty).
    Collect(&'a str),
}

/// A push-mode consumer for [`XmlReader::drive`]: the reader walks the
/// whole document and calls these methods in event order. Compared to
/// pulling [`XmlToken`]s, the sink seam lets the reader skip work the
/// consumer declares it does not need — end-tag tokens, `Position`
/// values, and text payloads are never materialized on the fused path —
/// while the event *sequence* (including per-event node counting) is
/// identical to the token stream by construction.
///
/// Sink methods are infallible; all errors during a drive are the
/// reader's own [`ParseError`]s. For every start tag there is exactly
/// one matching [`EventSink::end_element`] call (self-closing tags
/// included), and [`EventSink::text`] is called once per coalesced text
/// node, so sinks can count nodes exactly as a tree builder allocates
/// them.
pub trait EventSink {
    /// `<!DOCTYPE name …>` with the raw internal subset, if present.
    fn doctype(&mut self, _name: &str, _internal_subset: Option<&str>) {}

    /// An element start tag. The return value declares the sink's
    /// interest in character data directly inside this element.
    fn start_element(
        &mut self,
        name: &str,
        name_id: NameId,
        attributes: &AttrList<'_>,
        self_closing: bool,
    ) -> TextInterest;

    /// An element end tag (also synthesized for self-closing tags).
    /// Well-nested by construction: `name` and `name_id` always
    /// identify the innermost open element, so sinks need no name side
    /// table of their own.
    fn end_element(&mut self, name: &str, name_id: NameId);

    /// One coalesced text node, shaped by the enclosing element's
    /// [`TextInterest`].
    fn text(&mut self, chunk: TextChunk<'_>);
}

/// A source of bytes for the reader: a cursor with bounded lookahead.
pub trait ByteSrc {
    /// The bytes visible at the cursor, refilled to at least `n` bytes
    /// unless the input ends first. May return more than `n`. When no
    /// refill is needed (`n` bytes are already visible), the returned
    /// slice must be the same bytes at the same location as the last
    /// call — the reader materializes borrowed tokens from it.
    fn window(&mut self, n: usize) -> &[u8];
    /// Consumes `n` bytes (no more than the last window's length).
    fn advance(&mut self, n: usize);
}

/// An in-memory byte source borrowing the whole input.
pub struct SliceSrc<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSrc<'a> {
    /// Wraps a borrowed buffer.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSrc { data, pos: 0 }
    }
}

impl ByteSrc for SliceSrc<'_> {
    #[inline]
    fn window(&mut self, _n: usize) -> &[u8] {
        &self.data[self.pos..]
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        self.pos += n;
    }
}

/// A byte source over any [`Read`], keeping only a small rolling window
/// in memory — this is what makes end-to-end streaming validation
/// O(depth) in document size.
pub struct IoSrc<R: Read> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
}

impl<R: Read> IoSrc<R> {
    /// Wraps a reader. No buffering layer is needed underneath; the
    /// source reads in `IO_CHUNK`-sized chunks.
    pub fn new(src: R) -> Self {
        IoSrc {
            src,
            buf: Vec::with_capacity(IO_CHUNK),
            pos: 0,
            eof: false,
        }
    }
}

impl<R: Read> ByteSrc for IoSrc<R> {
    fn window(&mut self, n: usize) -> &[u8] {
        while self.buf.len() - self.pos < n && !self.eof {
            // Drop the consumed prefix before growing the window — but
            // only once it dominates the buffer. Compacting on every
            // refill would copy the live tail each time a long token
            // forces the window to extend.
            if self.pos >= COMPACT_THRESHOLD && self.pos >= self.buf.len() / 2 {
                self.buf.copy_within(self.pos.., 0);
                self.buf.truncate(self.buf.len() - self.pos);
                self.pos = 0;
            }
            let old = self.buf.len();
            self.buf.resize(old + IO_CHUNK, 0);
            match self.src.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    self.eof = true;
                }
                Ok(k) => self.buf.truncate(old + k),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.buf.truncate(old);
                }
                Err(_) => {
                    // Surfaced as "unexpected end of input" by the lexer;
                    // positioned errors beat a panic mid-stream.
                    self.buf.truncate(old);
                    self.eof = true;
                }
            }
        }
        &self.buf[self.pos..]
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Where the reader is in the document grammar.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Before the root element: XML declaration, misc, DOCTYPE.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element: trailing misc only.
    Epilog,
    /// [`XmlToken::EndDocument`] has been emitted.
    Done,
}

/// Result of a forward scan from the cursor: the relative offset of the
/// first matching byte, or the relative offset of end-of-input.
enum Scan {
    Hit(usize),
    Eof(usize),
}

/// Stage-1 output: the structural index built ahead of the cursor by the
/// SIMD classification pass ([`crate::simd`]).
///
/// All positions are **absolute** document offsets — [`IoSrc`] window
/// compaction shifts buffer contents but never the reader's coordinate
/// system, so index entries survive refills untouched. Invariants:
///
/// * `marks` is sorted; every entry is `(abs_pos << 3) | class` for a
///   structural byte in `[0, indexed_to)`; entries before `head` are
///   behind the cursor (kept until a batched drain);
/// * `nls` is the sorted newline positions of the same range, consumed
///   destructively (`nl_head`) as the cursor passes them;
/// * bytes in `[0, utf8_valid_to)` are proven valid UTF-8, except that
///   when `utf8_bad = Some(b)`, validation is frozen: `b` starts an
///   invalid sequence and `utf8_valid_to == b`. The watermark resumes
///   only after the cursor passes `b` through a construct that is never
///   UTF-8-checked (comments, PIs, DOCTYPE) — token paths that *do*
///   check report `b` first.
struct StructIdx {
    engine: Engine,
    /// Packed structural marks: `(abs_pos << 3) | class`, sorted.
    marks: Vec<u64>,
    /// First mark not yet known to be behind the cursor.
    head: usize,
    /// Absolute newline positions, sorted.
    nls: Vec<u64>,
    /// First newline the cursor has not passed.
    nl_head: usize,
    /// Absolute offset up to which the input has been classified.
    indexed_to: usize,
    /// Absolute offset up to which the input is proven valid UTF-8.
    utf8_valid_to: usize,
    /// First byte of an invalid UTF-8 sequence, if one froze the
    /// watermark.
    utf8_bad: Option<usize>,
}

impl StructIdx {
    fn new(engine: Engine) -> Self {
        StructIdx {
            engine,
            // Pre-sized so steady-state indexing (prune keeps both lists
            // near one window's worth of entries) never reallocates.
            marks: Vec::with_capacity(2048),
            head: 0,
            nls: Vec::with_capacity(256),
            nl_head: 0,
            indexed_to: 0,
            utf8_valid_to: 0,
            utf8_bad: None,
        }
    }

    /// First mark at `pos >= from_abs` with `pos < end_abs` whose class
    /// bit is set in `mask`.
    #[inline]
    fn find_in(&self, from_abs: usize, end_abs: usize, mask: u8) -> Option<(usize, u8)> {
        // `prune` keeps `head` at the cursor, so the first in-range mark
        // is almost always within a few entries: probe linearly, and
        // binary-search only on a long skip.
        let mut lo = self.head;
        let mut steps = 0;
        while let Some(&m) = self.marks.get(lo) {
            if (m >> 3) >= from_abs as u64 {
                break;
            }
            lo += 1;
            steps += 1;
            if steps == 8 {
                lo = self.head
                    + self.marks[self.head..].partition_point(|&m| (m >> 3) < from_abs as u64);
                break;
            }
        }
        for &m in &self.marks[lo..] {
            let pos = (m >> 3) as usize;
            if pos >= end_abs {
                return None;
            }
            let class = (m & 7) as u8;
            if mask & (1 << class) != 0 {
                return Some((pos, class));
            }
        }
        None
    }

    /// Retires index state behind the cursor: advances `head`, drains
    /// the retired prefixes once they dominate their vectors (keeping
    /// memory O(window)), and unfreezes the UTF-8 watermark when the
    /// cursor has passed a frozen bad byte (only unchecked constructs —
    /// comments, PIs, DOCTYPE — can step over one).
    fn prune(&mut self, cursor: usize) {
        while self
            .marks
            .get(self.head)
            .is_some_and(|&m| (m >> 3) < cursor as u64)
        {
            self.head += 1;
        }
        if self.head > 1024 && self.head * 2 >= self.marks.len() {
            self.marks.drain(..self.head);
            self.head = 0;
        }
        if self.nl_head > 1024 && self.nl_head * 2 >= self.nls.len() {
            self.nls.drain(..self.nl_head);
            self.nl_head = 0;
        }
        if self.utf8_bad.is_some_and(|b| b < cursor) {
            self.utf8_bad = None;
            self.utf8_valid_to = self.utf8_valid_to.max(cursor);
        }
    }
}

/// Dense interner of element names: open addressing over FNV-1a,
/// `slots[h] = id + 1`, 0 = empty, kept at most half full. One hash +
/// one probe chain per intern; misses insert into the slot the probe
/// already found. A most-recently-interned memo short-circuits the
/// hash entirely for runs of same-named siblings — the dominant shape
/// of real documents.
#[derive(Default)]
struct NamePool {
    names: Vec<String>,
    slots: Vec<u32>,
    last: u32,
}

impl NamePool {
    /// Interns raw name bytes, validating UTF-8 only on first
    /// occurrence. `None` means the bytes are not valid UTF-8.
    fn intern(&mut self, bytes: &[u8]) -> Option<NameId> {
        if let Some(n) = self.names.get(self.last as usize) {
            if n.as_bytes() == bytes {
                return Some(NameId(self.last));
            }
        }
        let mut idx = 0usize;
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            idx = fnv1a(bytes) as usize & mask;
            loop {
                match self.slots[idx] {
                    0 => break,
                    s => {
                        if self.names[(s - 1) as usize].as_bytes() == bytes {
                            self.last = s - 1;
                            return Some(NameId(s - 1));
                        }
                    }
                }
                idx = (idx + 1) & mask;
            }
        }
        let name = std::str::from_utf8(bytes).ok()?;
        let id = u32::try_from(self.names.len()).expect("name-pool overflow");
        self.last = id;
        self.names.push(name.to_owned());
        if (self.names.len() + 1) * 2 > self.slots.len() {
            self.rebuild();
        } else {
            self.slots[idx] = id + 1;
        }
        Some(NameId(id))
    }

    fn rebuild(&mut self) {
        let cap = (self.names.len() * 4).next_power_of_two().max(8);
        self.slots = vec![0; cap];
        let mask = cap - 1;
        for (i, n) in self.names.iter().enumerate() {
            let mut idx = fnv1a(n.as_bytes()) as usize & mask;
            while self.slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = i as u32 + 1;
        }
    }

    #[inline]
    fn get(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }
}

/// Materializes a byte span that an earlier UTF-8 check has already
/// proven valid — `check_utf8` (scalar engine), the chunked window
/// watermark (`StructIdx::utf8_valid_to`, SIMD engines), or name-pool
/// interning — without paying a second validation pass.
#[allow(unsafe_code)]
#[inline]
fn str_from_checked(bytes: &[u8]) -> &str {
    debug_assert!(std::str::from_utf8(bytes).is_ok(), "span was checked");
    // SAFETY: every call site runs strictly after a successful UTF-8
    // validation of this exact span (see the doc comment); the span is
    // immutable in between.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

/// Whether `s` contains any character outside [`is_xml_whitespace`] —
/// the predicate the tree applies (`Document::has_significant_text`),
/// answered by one SIMD sweep.
#[inline]
fn has_non_ws(s: &str) -> bool {
    simd::first_non_xml_ws(s.as_bytes()) < s.len()
}

/// Whether an extent-resolved end tag (`tag` starts `</`, ends with its
/// own `>`) closes exactly `expected`: `</expected␣*>` with the name
/// ending at a non-name byte. Anything else goes back through the
/// scalar scan for its exact error.
fn parse_end_tag_slice(tag: &[u8], expected: &[u8]) -> bool {
    let n = tag.len();
    let ne = 2 + expected.len();
    if n < ne + 1 || &tag[2..ne] != expected || is_name_char(tag[ne]) {
        return false;
    }
    tag[ne..n - 1]
        .iter()
        .all(|&c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// SWAR delimiter scanning (no external memchr: the workspace is
// dependency-free). The has-zero-byte trick: a byte of x is zero iff
// `(x - 0x01…01) & !x & 0x80…80` has that byte's high bit set.
// ---------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn swar_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

#[inline]
fn swar_has_zero(x: u64) -> bool {
    (x.wrapping_sub(SWAR_LO) & !x & SWAR_HI) != 0
}

/// First occurrence of `a` in `hay`.
#[inline]
pub(crate) fn memchr(a: u8, hay: &[u8]) -> Option<usize> {
    let pa = SWAR_LO.wrapping_mul(u64::from(a));
    let mut i = 0;
    while i + 8 <= hay.len() {
        if swar_has_zero(swar_word(&hay[i..i + 8]) ^ pa) {
            break;
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == a).map(|k| i + k)
}

/// First occurrence of `a` or `b` in `hay`.
#[inline]
pub(crate) fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    let pa = SWAR_LO.wrapping_mul(u64::from(a));
    let pb = SWAR_LO.wrapping_mul(u64::from(b));
    let mut i = 0;
    while i + 8 <= hay.len() {
        let x = swar_word(&hay[i..i + 8]);
        if swar_has_zero(x ^ pa) || swar_has_zero(x ^ pb) {
            break;
        }
        i += 8;
    }
    hay[i..]
        .iter()
        .position(|&c| c == a || c == b)
        .map(|k| i + k)
}

/// First occurrence of `a`, `b`, or `c` in `hay`.
#[inline]
pub(crate) fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
    let pa = SWAR_LO.wrapping_mul(u64::from(a));
    let pb = SWAR_LO.wrapping_mul(u64::from(b));
    let pc = SWAR_LO.wrapping_mul(u64::from(c));
    let mut i = 0;
    while i + 8 <= hay.len() {
        let x = swar_word(&hay[i..i + 8]);
        if swar_has_zero(x ^ pa) || swar_has_zero(x ^ pb) || swar_has_zero(x ^ pc) {
            break;
        }
        i += 8;
    }
    hay[i..]
        .iter()
        .position(|&d| d == a || d == b || d == c)
        .map(|k| i + k)
}

/// Decoded output of one entity reference (cold path).
enum Expanded {
    Ch(char),
    Pre(&'static str),
    Owned(String),
}

/// Capacity of one [`CachedTag`]; longer tags bypass the cache.
const TAG_CACHE_BYTES: usize = 24;

/// One entry of the start-tag cache: the raw bytes of a recently
/// scanned attribute-free start tag and the scan's result. Tag scanning
/// is a pure function of the tag bytes (given the monotone name pool),
/// so byte equality proves the cached result — documents repeat the
/// same short tags thousands of times, and a hit replaces the per-byte
/// name walk, whitespace walk, and intern with one compare.
#[derive(Clone, Copy)]
struct CachedTag {
    /// Tag length in bytes including `<`/`>`; 0 = empty slot.
    len: u8,
    self_closing: bool,
    name_id: NameId,
    bytes: [u8; TAG_CACHE_BYTES],
}

impl CachedTag {
    const EMPTY: CachedTag = CachedTag {
        len: 0,
        self_closing: false,
        name_id: NameId(0),
        bytes: [0; TAG_CACHE_BYTES],
    };
}

/// Cache slot for a tag: mixes the first name byte with the length so
/// sibling runs that alternate between a few short tags spread out.
#[inline]
fn tag_cache_slot(first: u8, len: usize) -> usize {
    (first as usize ^ (len << 1)) & 7
}

/// A pull-based streaming XML parser; see the module docs.
pub struct XmlReader<S> {
    src: S,
    /// Absolute byte offset of the cursor.
    offset: usize,
    line: u32,
    /// Absolute offset where the current line starts.
    line_start: usize,
    /// Bytes of the last-returned borrowed token, consumed from `src` on
    /// the next pull. Deferring consumption is what keeps the returned
    /// slices valid while the caller holds the token.
    pending: usize,
    /// Cap on the byte length of a single token; bounds rolling-window
    /// growth on adversarial input.
    max_token: usize,
    /// General entities from the internal subset (beyond the predefined 5),
    /// raw (unexpanded) as declared.
    entities: BTreeMap<String, String>,
    /// Fully-expanded entity values, memoized on first reference.
    expanded: BTreeMap<String, String>,
    /// Distinct element names in first-occurrence order.
    names: NamePool,
    /// Open element names, innermost last.
    open: Vec<NameId>,
    stage: Stage,
    /// End event owed for a just-emitted self-closing start tag.
    pending_end: Option<(NameId, Position)>,
    /// Attribute spans of the tag being returned.
    attr_spans: Vec<AttrSpan>,
    /// Decoded attribute values that contained entity references.
    attr_scratch: String,
    /// Decoded character data when a text run needed splicing (entities,
    /// CDATA, embedded comments/PIs).
    text_scratch: String,
    /// DOCTYPE payload backing the borrowed [`XmlToken::Doctype`].
    doctype_name: String,
    doctype_subset: Option<String>,
    /// The stage-1 structural index; `None` ⇔ [`Engine::Scalar`] (the
    /// SWAR fallback paths run instead).
    idx: Option<StructIdx>,
    /// Direct-mapped cache of recently scanned attribute-free start
    /// tags, probed by the indexed scan (see [`CachedTag`]).
    tag_cache: [CachedTag; 8],
}

/// A reader over a borrowed in-memory document.
pub type StrReader<'a> = XmlReader<SliceSrc<'a>>;

impl<'a> XmlReader<SliceSrc<'a>> {
    /// Streams over an in-memory document.
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(input: &'a str) -> Self {
        XmlReader::with_source(SliceSrc::new(input.as_bytes()))
    }
}

impl<R: Read> XmlReader<IoSrc<R>> {
    /// Streams over any [`Read`] (file, socket, stdin) with a rolling
    /// window — the whole document is never resident.
    pub fn from_reader(src: R) -> Self {
        XmlReader::with_source(IoSrc::new(src))
    }
}

impl<S: ByteSrc> XmlReader<S> {
    /// Wraps an arbitrary byte source.
    pub fn with_source(src: S) -> Self {
        let engine = Engine::detect();
        XmlReader {
            src,
            offset: 0,
            line: 1,
            line_start: 0,
            pending: 0,
            max_token: DEFAULT_MAX_TOKEN,
            entities: BTreeMap::new(),
            expanded: BTreeMap::new(),
            names: NamePool::default(),
            open: Vec::new(),
            stage: Stage::Prolog,
            pending_end: None,
            attr_spans: Vec::new(),
            attr_scratch: String::new(),
            text_scratch: String::new(),
            doctype_name: String::new(),
            doctype_subset: None,
            idx: (engine != Engine::Scalar).then(|| StructIdx::new(engine)),
            tag_cache: [CachedTag::EMPTY; 8],
        }
    }

    /// Selects the lexing engine. [`Engine::Scalar`] disables the
    /// structural index entirely (the forced-scalar escape hatch, also
    /// reachable via the `BONXAI_NO_SIMD` environment variable);
    /// requesting an engine this machine lacks falls back to scalar.
    /// May be called mid-stream: index state is rebuilt from the cursor
    /// and results never change — only throughput does.
    pub fn set_engine(&mut self, engine: Engine) {
        let engine = if engine.is_available() {
            engine
        } else {
            Engine::Scalar
        };
        self.idx = (engine != Engine::Scalar).then(|| StructIdx::new(engine));
    }

    /// The lexing engine in use (see [`Engine::detect`]).
    pub fn engine(&self) -> Engine {
        self.idx.as_ref().map_or(Engine::Scalar, |i| i.engine)
    }

    /// Sets the cap on the byte length of a single token (tag, text
    /// run, comment, CDATA section). Exceeding it yields a positioned
    /// "token too large" [`ParseError`] instead of unbounded buffer
    /// growth. Defaults to [`DEFAULT_MAX_TOKEN`].
    pub fn set_max_token(&mut self, max: usize) {
        self.max_token = max.max(16);
    }

    /// The current cursor position (for error reporting by consumers).
    pub fn position(&self) -> Position {
        Position {
            line: self.line,
            column: (self.offset - self.line_start) as u32 + 1,
            offset: self.offset,
        }
    }

    /// Current element nesting depth (0 outside the root element). A
    /// self-closing element counts until its synthesized end event.
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.pending_end.is_some())
    }

    /// Number of distinct element names seen so far. [`NameId`]s are
    /// dense: `name_id.index() < name_count()` on every returned token.
    pub fn name_count(&self) -> usize {
        self.names.names.len()
    }

    // -- consumption & positions ------------------------------------

    /// Consumes the bytes of the previously returned borrowed token.
    #[inline]
    fn commit(&mut self) {
        if self.pending > 0 {
            self.src.advance(self.pending);
            self.pending = 0;
        }
    }

    /// Advances line/offset accounting over the next `n` visible bytes
    /// (which must already be buffered).
    fn register(&mut self, n: usize) {
        if self.idx.is_some() {
            self.register_indexed(n);
            return;
        }
        let w = self.src.window(n);
        let w = &w[..n.min(w.len())];
        let mut from = 0;
        while let Some(k) = memchr(b'\n', &w[from..]) {
            self.line += 1;
            self.line_start = self.offset + from + k + 1;
            from += k + 1;
        }
        self.offset += n;
    }

    /// Indexed [`Self::register`]: instead of re-scanning the consumed
    /// bytes for newlines, walks the newline positions stage 1 already
    /// recorded (amortized O(#newlines), not O(bytes)).
    fn register_indexed(&mut self, n: usize) {
        let end = self.offset + n;
        self.index_to_abs(end);
        let idx = self.idx.as_mut().expect("register_indexed needs the index");
        while let Some(&p) = idx.nls.get(idx.nl_head) {
            let p = p as usize;
            if p >= end {
                break;
            }
            idx.nl_head += 1;
            // Entries behind the cursor were already counted by the
            // byte-at-a-time DOCTYPE path; skip them silently.
            if p >= self.offset {
                self.line += 1;
                self.line_start = p + 1;
            }
        }
        self.offset = end;
        idx.prune(end);
    }

    /// Extends the structural index (and the batched UTF-8 watermark) to
    /// cover the input up to absolute offset `target`, or to end of
    /// input, whichever comes first. The hot case — already covered —
    /// is a single comparison; [`Self::index_fill`] does the work.
    #[inline]
    fn index_to_abs(&mut self, target: usize) {
        match &self.idx {
            Some(i) if i.indexed_to >= target => {}
            Some(_) => self.index_fill(target),
            None => {}
        }
    }

    /// Classifies chunks until the index covers `target` or end of
    /// input. Each step takes at least [`IDX_CHUNK`] bytes when
    /// available.
    #[cold]
    fn index_fill(&mut self, target: usize) {
        let offset = self.offset;
        let XmlReader { src, idx, .. } = self;
        let Some(idx) = idx.as_mut() else { return };
        if idx.indexed_to < offset {
            // A cold path (DOCTYPE subset) advanced the cursor byte-wise
            // past the indexed region; restart cleanly at the cursor.
            idx.indexed_to = offset;
            idx.utf8_valid_to = idx.utf8_valid_to.max(offset);
            if idx.utf8_bad.is_some_and(|b| b < offset) {
                idx.utf8_bad = None;
            }
        }
        while idx.indexed_to < target {
            let base_rel = idx.indexed_to - offset;
            let want_rel = (target - offset).max(base_rel + IDX_CHUNK);
            let w = src.window(want_rel);
            if w.len() <= base_rel {
                return; // end of input
            }
            let take = (w.len() - base_rel).min((target - idx.indexed_to).max(IDX_CHUNK));
            let all_ascii = simd::classify(
                idx.engine,
                &w[base_rel..base_rel + take],
                idx.indexed_to,
                &mut idx.marks,
                &mut idx.nls,
            );
            let new_end = idx.indexed_to + take;
            if idx.utf8_bad.is_none() {
                if all_ascii && idx.utf8_valid_to == idx.indexed_to {
                    idx.utf8_valid_to = new_end;
                } else {
                    // Resume from the watermark, clamped to the cursor:
                    // after a frozen bad byte is pruned away (it sat in
                    // a construct that is never UTF-8-checked) the
                    // watermark trails the cursor, and the cursor —
                    // always just past an ASCII delimiter — is a safe
                    // char boundary to restart validation from.
                    let v_rel = idx.utf8_valid_to.saturating_sub(offset);
                    match std::str::from_utf8(&w[v_rel..base_rel + take]) {
                        Ok(_) => idx.utf8_valid_to = new_end,
                        Err(e) => {
                            idx.utf8_valid_to = offset + v_rel + e.valid_up_to();
                            if e.error_len().is_some() {
                                idx.utf8_bad = Some(idx.utf8_valid_to);
                            }
                            // else: a truncated char at end of input —
                            // the watermark just stops short of it.
                        }
                    }
                }
            }
            idx.indexed_to = new_end;
        }
    }

    /// Ensures the index covers at least `min_rel` bytes past the cursor
    /// (or end of input) and returns how many bytes it does cover.
    fn index_cover(&mut self, min_rel: usize) -> usize {
        self.index_to_abs(self.offset + min_rel);
        let offset = self.offset;
        self.idx.as_ref().map_or(0, |i| i.indexed_to - offset)
    }

    /// Consumes `n` bytes immediately (for data not borrowed by the
    /// returned token: comments, PIs, scratch-decoded runs, DOCTYPE).
    fn consume_now(&mut self, n: usize) {
        self.register(n);
        self.src.advance(n);
    }

    /// Accounts for `n` bytes but defers the source advance until the
    /// next pull, keeping the token's slices valid meanwhile.
    fn defer_consume(&mut self, n: usize) {
        debug_assert_eq!(self.pending, 0, "one borrowed token at a time");
        self.register(n);
        self.pending = n;
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.position(), msg)
    }

    /// Position of the byte at relative offset `i` from the cursor
    /// (clamped to end of input).
    fn position_at(&mut self, i: usize) -> Position {
        if self.idx.is_some() {
            // Non-consuming walk of the recorded newline positions.
            let covered = self.index_cover(i);
            let upto = i.min(covered);
            let end = self.offset + upto;
            let idx = self.idx.as_ref().expect("position_at needs the index");
            let mut line = self.line;
            let mut line_start = self.line_start;
            for &p in &idx.nls[idx.nl_head..] {
                let p = p as usize;
                if p >= end {
                    break;
                }
                if p >= self.offset {
                    line += 1;
                    line_start = p + 1;
                }
            }
            return Position {
                line,
                column: (end - line_start) as u32 + 1,
                offset: end,
            };
        }
        let w = self.src.window(i);
        let upto = i.min(w.len());
        let mut line = self.line;
        let mut line_start = self.line_start;
        let mut from = 0;
        while let Some(k) = memchr(b'\n', &w[from..upto]) {
            line += 1;
            line_start = self.offset + from + k + 1;
            from += k + 1;
        }
        Position {
            line,
            column: (self.offset + upto - line_start) as u32 + 1,
            offset: self.offset + upto,
        }
    }

    fn err_at(&mut self, i: usize, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.position_at(i), msg)
    }

    fn err_too_large(&mut self) -> ParseError {
        let max = self.max_token;
        self.err(format!("token too large: exceeds {max} bytes"))
    }

    // -- non-consuming scanning -------------------------------------

    /// Byte at relative offset `i`, if the input is long enough.
    #[inline]
    fn at(&mut self, i: usize) -> Option<u8> {
        self.src.window(i + 1).get(i).copied()
    }

    /// Whether the bytes at relative offset `i` start with `s`.
    fn starts_with_at(&mut self, i: usize, s: &str) -> bool {
        let end = i + s.len();
        let w = self.src.window(end);
        w.len() >= end && &w[i..end] == s.as_bytes()
    }

    /// Scans forward from relative offset `from` for the first byte
    /// `find` locates, growing the window as needed up to `max_token`.
    fn scan_for(
        &mut self,
        from: usize,
        find: impl Fn(&[u8]) -> Option<usize>,
    ) -> Result<Scan, ParseError> {
        let mut i = from;
        loop {
            let w = self.src.window(i + 1);
            if w.len() <= i {
                return Ok(Scan::Eof(w.len()));
            }
            if let Some(k) = find(&w[i..]) {
                if i + k > self.max_token {
                    return Err(self.err_too_large());
                }
                return Ok(Scan::Hit(i + k));
            }
            i = w.len();
            if i > self.max_token {
                return Err(self.err_too_large());
            }
        }
    }

    fn find_byte(&mut self, from: usize, a: u8) -> Result<Scan, ParseError> {
        if self.idx.is_some() {
            if let Some(m) = simd::struct_mask(a) {
                return self.idx_find(from, m);
            }
        }
        self.scan_for(from, |h| memchr(a, h))
    }

    fn find2(&mut self, from: usize, a: u8, b: u8) -> Result<Scan, ParseError> {
        if self.idx.is_some() {
            if let (Some(ma), Some(mb)) = (simd::struct_mask(a), simd::struct_mask(b)) {
                return self.idx_find(from, ma | mb);
            }
        }
        self.scan_for(from, |h| memchr2(a, b, h))
    }

    fn find3(&mut self, from: usize, a: u8, b: u8, c: u8) -> Result<Scan, ParseError> {
        if self.idx.is_some() {
            if let (Some(ma), Some(mb), Some(mc)) = (
                simd::struct_mask(a),
                simd::struct_mask(b),
                simd::struct_mask(c),
            ) {
                return self.idx_find(from, ma | mb | mc);
            }
        }
        self.scan_for(from, |h| memchr3(a, b, c, h))
    }

    /// Index-walking twin of [`Self::scan_for`] for structural-byte
    /// searches, with identical end-of-input and `max_token` semantics
    /// (and therefore identical errors).
    fn idx_find(&mut self, from: usize, mask: u8) -> Result<Scan, ParseError> {
        let mut probe = from;
        loop {
            let covered = self.index_cover(probe + 1);
            if covered <= probe {
                return Ok(Scan::Eof(covered));
            }
            let offset = self.offset;
            let idx = self.idx.as_ref().expect("idx_find needs the index");
            if let Some((pos, _)) = idx.find_in(offset + probe, offset + covered, mask) {
                let k = pos - offset;
                if k > self.max_token {
                    return Err(self.err_too_large());
                }
                return Ok(Scan::Hit(k));
            }
            if covered > self.max_token {
                return Err(self.err_too_large());
            }
            probe = covered;
        }
    }

    /// Next structural mark at relative offset ≥ `from` whose class bit
    /// is set in `mask`, extending the index as needed. `None` on end of
    /// input or once the walk leaves `max_token` — callers fall back to
    /// the scalar scan, which reproduces the corresponding error.
    fn next_mark(&mut self, from: usize, mask: u8) -> Option<(usize, u8)> {
        let mut probe = from;
        loop {
            let covered = self.index_cover(probe + 1);
            if covered <= probe {
                return None;
            }
            let offset = self.offset;
            let idx = self.idx.as_ref().expect("next_mark needs the index");
            if let Some((pos, class)) = idx.find_in(offset + probe, offset + covered, mask) {
                let rel = pos - offset;
                return (rel <= self.max_token).then_some((rel, class));
            }
            if covered > self.max_token {
                return None;
            }
            probe = covered;
        }
    }

    /// Relative offset of the unquoted `>` closing the tag at the
    /// cursor, hopping quoted spans mark-to-mark. `None` sends the tag
    /// to the scalar scan (end of input, an `&` or stray `<` before the
    /// close, an unterminated quote, or an oversized tag).
    fn tag_extent(&mut self, from: usize) -> Option<usize> {
        const WALK: u8 =
            simd::MASK_LT | simd::MASK_GT | simd::MASK_DQ | simd::MASK_SQ | simd::MASK_AMP;
        let mut i = from;
        loop {
            let (rel, class) = self.next_mark(i, WALK)?;
            match class {
                simd::CLASS_GT => return Some(rel),
                simd::CLASS_DQ | simd::CLASS_SQ => {
                    let (close, _) = self.next_mark(rel + 1, 1 << class)?;
                    i = close + 1;
                }
                _ => return None,
            }
        }
    }

    /// Relative offset of the first byte not satisfying `pred` (or end
    /// of input), growing the window as needed up to `max_token`.
    fn scan_while(&mut self, from: usize, pred: impl Fn(u8) -> bool) -> Result<usize, ParseError> {
        let mut i = from;
        loop {
            let w = self.src.window(i + 1);
            if w.len() <= i {
                return Ok(i);
            }
            if let Some(k) = w[i..].iter().position(|&b| !pred(b)) {
                if i + k > self.max_token {
                    return Err(self.err_too_large());
                }
                return Ok(i + k);
            }
            i = w.len();
            if i > self.max_token {
                return Err(self.err_too_large());
            }
        }
    }

    /// Validates that the visible bytes `[a, b)` are UTF-8. In indexed
    /// mode the common case is a watermark comparison — the bytes were
    /// validated in bulk when their chunk was classified.
    fn check_utf8(&mut self, a: usize, b: usize, what: &str) -> Result<(), ParseError> {
        if self.idx.is_some() {
            self.index_to_abs(self.offset + b);
            let idx = self.idx.as_ref().expect("check_utf8 needs the index");
            if self.offset + b <= idx.utf8_valid_to {
                return Ok(());
            }
            let frozen = idx
                .utf8_bad
                .filter(|bad| (self.offset + a..self.offset + b).contains(bad));
            if let Some(bad) = frozen {
                // Same byte the scalar scan would blame: valid_up_to of
                // a scan starting at `a` is exactly `bad - offset - a`.
                let at = bad - self.offset;
                return Err(self.err_at(at, what.to_owned()));
            }
            // Rare: the span reaches past the watermark (truncated char
            // at end of input) — fall through to the direct check.
        }
        let bad = {
            let w = self.src.window(b);
            match std::str::from_utf8(&w[a..b]) {
                Ok(_) => None,
                Err(e) => Some(a + e.valid_up_to()),
            }
        };
        match bad {
            None => Ok(()),
            Some(at) => Err(self.err_at(at, what.to_owned())),
        }
    }

    /// Validates and appends the visible bytes `[a, b)` to the text
    /// scratch.
    fn push_text_scratch(&mut self, a: usize, b: usize, what: &str) -> Result<(), ParseError> {
        self.check_utf8(a, b, what)?;
        let w = self.src.window(b);
        let s = str_from_checked(&w[a..b]);
        self.text_scratch.push_str(s);
        Ok(())
    }

    /// Validates and appends the visible bytes `[a, b)` to the
    /// attribute scratch.
    fn push_attr_scratch(&mut self, a: usize, b: usize) -> Result<(), ParseError> {
        self.check_utf8(a, b, "invalid UTF-8 sequence")?;
        let w = self.src.window(b);
        let s = str_from_checked(&w[a..b]);
        self.attr_scratch.push_str(s);
        Ok(())
    }

    // -- the pull loop ----------------------------------------------

    /// Pulls the next token. After [`XmlToken::EndDocument`], returns
    /// `EndDocument` forever. Pulling invalidates the previous token's
    /// borrows (enforced by the borrow checker).
    pub fn next_event(&mut self) -> Result<XmlToken<'_>, ParseError> {
        self.commit();
        match self.stage {
            Stage::Prolog => self.next_prolog(),
            Stage::Content => self.next_content(),
            Stage::Epilog => self.next_epilog(),
            Stage::Done => Ok(XmlToken::EndDocument),
        }
    }

    // -- the push loop (fused drive) ---------------------------------

    /// Pushes the entire document into `sink` and returns at end of
    /// document — the flattened counterpart of pulling [`Self::next_event`]
    /// in a loop.
    ///
    /// With the structural index active, the common content-stage cycle
    /// (start tag / end tag / plain text / comment / PI) is stepped
    /// directly off the `StructIdx` marks: no [`XmlToken`] is built, no
    /// `Position` is computed, end-tag names stay as [`NameId`]s, and
    /// text is materialized only to the degree the sink's
    /// [`TextInterest`] requires. Anything irregular — entities, CDATA
    /// (which coalesces with neighboring text), prolog/epilog tokens,
    /// oversized or malformed constructs, end of input — falls back to
    /// the token pull for exactly one event, which reproduces the
    /// scalar-visible behavior (and every error, at its exact position)
    /// by construction. Under [`Engine::Scalar`] the fused path is
    /// disabled and the drive is a plain token loop, so the differential
    /// suites pin both shapes.
    pub fn drive<K: EventSink>(&mut self, sink: &mut K) -> Result<(), ParseError> {
        // The sink's declared text interest per open element. The fused
        // and token paths push/pop it identically, so a mid-document
        // fallback sees a consistent stack.
        let mut interests: Vec<TextInterest> = Vec::with_capacity(16);
        loop {
            self.commit();
            // Fused fast path; on `false` (irregular construct at the
            // cursor) nothing was consumed and exactly one token is
            // pulled below instead.
            if self.stage == Stage::Content
                && self.pending_end.is_none()
                && self.idx.is_some()
                && self.drive_content(sink, &mut interests)?
            {
                continue;
            }
            let tok = match self.stage {
                Stage::Prolog => self.next_prolog()?,
                Stage::Content => self.next_content()?,
                Stage::Epilog => self.next_epilog()?,
                Stage::Done => XmlToken::EndDocument,
            };
            match tok {
                XmlToken::Doctype {
                    name,
                    internal_subset,
                } => sink.doctype(name, internal_subset),
                XmlToken::StartElement {
                    name,
                    name_id,
                    attributes,
                    self_closing,
                    ..
                } => {
                    // A self-closing tag still pushes an interest: its
                    // synthesized EndElement arrives as the very next
                    // token and pops it.
                    interests.push(sink.start_element(name, name_id, &attributes, self_closing));
                }
                XmlToken::EndElement { name, name_id, .. } => {
                    interests.pop();
                    sink.end_element(name.as_str(), name_id);
                }
                XmlToken::Text { text, .. } => {
                    let chunk = match interests.last() {
                        Some(TextInterest::NonWhitespace) => TextChunk::NonWs(has_non_ws(text)),
                        Some(TextInterest::Collect) => TextChunk::Collect(text),
                        _ => TextChunk::Skipped,
                    };
                    sink.text(chunk);
                }
                XmlToken::EndDocument => return Ok(()),
            }
        }
    }

    /// A run of fused steps at the content-stage cursor, dispatching on
    /// the raw bytes exactly as [`Self::next_content`] does. Runs until
    /// the cursor hits a construct the token path must handle, or the
    /// root closes. `Ok(false)` = the very first step bailed with
    /// nothing consumed, so the token path replays the same bytes;
    /// `Ok(true)` = progress was made (the caller re-enters and any
    /// leftover irregularity bails on its first step).
    fn drive_content<K: EventSink>(
        &mut self,
        sink: &mut K,
        interests: &mut Vec<TextInterest>,
    ) -> Result<bool, ParseError> {
        let mut any = false;
        loop {
            // One window grab covers both dispatch bytes.
            let w = self.src.window(2);
            let (b0, b1) = (w.first().copied(), w.get(1).copied());
            let stepped = match b0 {
                Some(b'<') => match b1 {
                    Some(b'/') => self.drive_end_tag(sink, interests),
                    Some(b'!') => {
                        if self.starts_with_at(0, "<!--") {
                            self.skip_comment()?;
                            true
                        } else {
                            // CDATA (coalesces with adjacent text) or
                            // junk like `<!DOCTYPE` here: token path.
                            false
                        }
                    }
                    Some(b'?') => {
                        self.skip_pi()?;
                        true
                    }
                    // A name start (fast case) or garbage/EOF — the
                    // indexed scan returns None on the latter and the
                    // token path reports the scalar error.
                    _ => self.drive_start_tag(sink, interests),
                },
                // `&` starts a spliced run; EOF errors. Both via tokens.
                Some(b'&') | None => false,
                Some(_) => self.drive_text(sink, interests)?,
            };
            if !stepped {
                return Ok(any);
            }
            any = true;
            // The fused paths consume immediately (`pending` stays 0)
            // and never set `pending_end`, so the only loop condition to
            // re-check is the stage: a root-closing end tag moves it to
            // Epilog.
            if self.stage != Stage::Content {
                return Ok(true);
            }
        }
    }

    /// Fused start tag: the indexed scan resolves the whole tag, the
    /// sink is called on the borrowed attribute list, and only then are
    /// the bytes consumed (no deferred-pending state, no `Position`).
    fn drive_start_tag<K: EventSink>(
        &mut self,
        sink: &mut K,
        interests: &mut Vec<TextInterest>,
    ) -> bool {
        let Some((tag_len, name_id, self_closing)) = self.scan_start_tag_indexed() else {
            return false;
        };
        {
            let XmlReader {
                src,
                names,
                attr_spans,
                attr_scratch,
                ..
            } = self;
            let w = src.window(tag_len);
            let attributes = AttrList {
                spans: attr_spans.as_slice(),
                tag: &w[..tag_len],
                scratch: attr_scratch.as_str(),
            };
            interests.push(sink.start_element(
                names.get(name_id),
                name_id,
                &attributes,
                self_closing,
            ));
        }
        // The sink holds no borrows past the call, so the bytes are
        // consumed immediately (consuming first could compact an IoSrc
        // window out from under the attribute slices).
        self.consume_now(tag_len);
        if self_closing {
            // No pending_end bookkeeping: the matching end event is
            // delivered right here.
            interests.pop();
            sink.end_element(self.names.get(name_id), name_id);
        } else {
            self.open.push(name_id);
        }
        true
    }

    /// Fused end tag: the indexed scan byte-compares the tag against the
    /// innermost open name; on a match the event is one `NameId` — no
    /// token, no position, no name-string resolution.
    fn drive_end_tag<K: EventSink>(
        &mut self,
        sink: &mut K,
        interests: &mut Vec<TextInterest>,
    ) -> bool {
        let expected = *self.open.last().expect("content stage has an open element");
        let Some(tag_len) = self.scan_end_tag_indexed(expected) else {
            return false;
        };
        self.consume_now(tag_len);
        self.open.pop();
        if self.open.is_empty() {
            self.stage = Stage::Epilog;
        }
        interests.pop();
        sink.end_element(self.names.get(expected), expected);
        true
    }

    /// Fused text run: one mark lookup finds the run's end; the payload
    /// is materialized only to the enclosing element's [`TextInterest`].
    /// Runs that splice (an `&` inside, or a comment/PI/CDATA boundary
    /// that coalesces with what follows) go through the token path —
    /// same checks, in the same order, as [`Self::read_text`].
    fn drive_text<K: EventSink>(
        &mut self,
        sink: &mut K,
        interests: &mut [TextInterest],
    ) -> Result<bool, ParseError> {
        let Some((k, class)) = self.next_mark(0, simd::MASK_LT | simd::MASK_AMP) else {
            return Ok(false); // EOF or oversized run: scalar error
        };
        if class != simd::CLASS_LT {
            return Ok(false); // `&`: splice via the scratch path
        }
        debug_assert!(k > 0, "cursor byte dispatches elsewhere");
        // The run coalesces across a following comment/CDATA/PI — the
        // token path's scratch accumulator handles those. One byte
        // distinguishes the common case (a tag) from the candidates.
        match self.at(k + 1) {
            Some(b'?') => return Ok(false),
            Some(b'!') if self.starts_with_at(k, "<!--") || self.starts_with_at(k, "<![CDATA[") => {
                return Ok(false);
            }
            _ => {}
        }
        self.check_utf8(0, k, "invalid UTF-8 sequence")?;
        let chunk = {
            let w = self.src.window(k);
            match interests.last() {
                Some(TextInterest::NonWhitespace) => {
                    TextChunk::NonWs(has_non_ws(str_from_checked(&w[..k])))
                }
                Some(TextInterest::Collect) => TextChunk::Collect(str_from_checked(&w[..k])),
                _ => TextChunk::Skipped,
            }
        };
        sink.text(chunk);
        self.consume_now(k);
        Ok(true)
    }

    fn next_prolog(&mut self) -> Result<XmlToken<'_>, ParseError> {
        loop {
            self.skip_ws()?;
            if self.starts_with_at(0, "<?") {
                self.skip_pi()?;
            } else if self.starts_with_at(0, "<!--") {
                self.skip_comment()?;
            } else if self.starts_with_at(0, "<!DOCTYPE") {
                let (name, subset) = self.parse_doctype()?;
                self.doctype_name = name;
                self.doctype_subset = subset;
                return Ok(XmlToken::Doctype {
                    name: &self.doctype_name,
                    internal_subset: self.doctype_subset.as_deref(),
                });
            } else if self.at(0) == Some(b'<') {
                self.stage = Stage::Content;
                return self.read_start_tag();
            } else {
                return Err(self.err("expected root element"));
            }
        }
    }

    fn next_content(&mut self) -> Result<XmlToken<'_>, ParseError> {
        if let Some((id, position)) = self.pending_end.take() {
            if self.open.is_empty() {
                self.stage = Stage::Epilog;
            }
            return Ok(XmlToken::EndElement {
                name: LazyName {
                    pool: &self.names,
                    id,
                },
                name_id: id,
                position,
            });
        }
        loop {
            match self.at(0) {
                None => return Err(self.err_eof_in_content(0)),
                Some(b'<') => match self.at(1) {
                    Some(b'/') => return self.read_end_tag(),
                    Some(b'!') => {
                        if self.starts_with_at(0, "<!--") {
                            self.skip_comment()?;
                        } else if self.starts_with_at(0, "<![CDATA[") {
                            let position = self.position();
                            return self.read_text_slow(0, position);
                        } else {
                            // e.g. `<!DOCTYPE` in content: read_start_tag
                            // reports "expected name", as before.
                            return self.read_start_tag();
                        }
                    }
                    Some(b'?') => self.skip_pi()?,
                    _ => return self.read_start_tag(),
                },
                Some(b'&') => {
                    let position = self.position();
                    return self.read_text_slow(0, position);
                }
                Some(_) => return self.read_text(),
            }
        }
    }

    fn next_epilog(&mut self) -> Result<XmlToken<'_>, ParseError> {
        loop {
            self.skip_ws()?;
            if self.starts_with_at(0, "<?") {
                self.skip_pi()?;
            } else if self.starts_with_at(0, "<!--") {
                self.skip_comment()?;
            } else if self.at(0).is_some() {
                return Err(self.err("unexpected content after root element"));
            } else {
                self.stage = Stage::Done;
                return Ok(XmlToken::EndDocument);
            }
        }
    }

    /// "unexpected end of input in <…>" positioned at relative offset
    /// `i` (the old byte-at-a-time reader erred at the cursor, which by
    /// then sat at end of input).
    fn err_eof_in_content(&mut self, i: usize) -> ParseError {
        let name = self
            .open
            .last()
            .map(|&id| self.names.get(id).to_owned())
            .unwrap_or_default();
        self.err_at(i, format!("unexpected end of input in <{name}>"))
    }

    fn skip_ws(&mut self) -> Result<(), ParseError> {
        let k = self.scan_while(0, |c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))?;
        if k > 0 {
            self.consume_now(k);
        }
        Ok(())
    }

    // -- text --------------------------------------------------------

    /// Fast path for a character-data run: one SWAR scan to the next
    /// `<`/`&`; if the run ends at a real tag, the token borrows the
    /// source window directly — zero copies, one UTF-8 validation.
    fn read_text(&mut self) -> Result<XmlToken<'_>, ParseError> {
        let position = self.position();
        match self.find2(0, b'<', b'&')? {
            Scan::Eof(e) => Err(self.err_eof_in_content(e)),
            Scan::Hit(k) => {
                debug_assert!(k > 0, "caller dispatches '<'/'&' elsewhere");
                if self.at(k) == Some(b'&')
                    || self.starts_with_at(k, "<!--")
                    || self.starts_with_at(k, "<![CDATA[")
                    || self.starts_with_at(k, "<?")
                {
                    // Splicing or decoding needed: fall back to the
                    // scratch accumulator, seeded with this prefix.
                    return self.read_text_slow(k, position);
                }
                self.check_utf8(0, k, "invalid UTF-8 sequence")?;
                self.defer_consume(k);
                let w = self.src.window(k);
                let text = str_from_checked(&w[..k]);
                Ok(XmlToken::Text { text, position })
            }
        }
    }

    /// Slow path: accumulates a coalesced run (entity expansions, CDATA
    /// sections, comment/PI splicing) into the scratch buffer. `prefix`
    /// bytes of plain text at the cursor are consumed into the run
    /// first; `position` is where that prefix began. While the run is
    /// still empty, the position re-anchors at each contributing
    /// construct — exactly how the old reader tracked `text_pos` (an
    /// empty CDATA section or empty entity expansion does not pin the
    /// run's position).
    fn read_text_slow(
        &mut self,
        prefix: usize,
        mut position: Position,
    ) -> Result<XmlToken<'_>, ParseError> {
        self.text_scratch.clear();
        if prefix > 0 {
            self.push_text_scratch(0, prefix, "invalid UTF-8 sequence")?;
            self.consume_now(prefix);
        }
        loop {
            match self.at(0) {
                None => return Err(self.err_eof_in_content(0)),
                Some(b'<') => {
                    if self.starts_with_at(0, "<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with_at(0, "<![CDATA[") {
                        if self.text_scratch.is_empty() {
                            position = self.position();
                        }
                        self.read_cdata()?;
                    } else if self.starts_with_at(0, "<?") {
                        self.skip_pi()?;
                    } else if !self.text_scratch.is_empty() {
                        // A real tag follows: flush the coalesced run,
                        // leaving the cursor on the `<`.
                        break;
                    } else if self.starts_with_at(0, "</") {
                        // Empty run (e.g. only an empty CDATA section):
                        // no text token, read the tag directly.
                        return self.read_end_tag();
                    } else {
                        return self.read_start_tag();
                    }
                }
                Some(b'&') => {
                    if self.text_scratch.is_empty() {
                        position = self.position();
                    }
                    let (next, exp) = self.scan_entity(0)?;
                    self.consume_now(next);
                    match exp {
                        Expanded::Ch(c) => self.text_scratch.push(c),
                        Expanded::Pre(s) => self.text_scratch.push_str(s),
                        Expanded::Owned(s) => self.text_scratch.push_str(&s),
                    }
                }
                Some(_) => {
                    if self.text_scratch.is_empty() {
                        position = self.position();
                    }
                    let end = match self.find2(0, b'<', b'&')? {
                        Scan::Hit(k) => k,
                        Scan::Eof(e) => e,
                    };
                    self.push_text_scratch(0, end, "invalid UTF-8 sequence")?;
                    self.consume_now(end);
                }
            }
        }
        Ok(XmlToken::Text {
            text: &self.text_scratch,
            position,
        })
    }

    /// Consumes a `<![CDATA[…]]>` section into the text scratch.
    fn read_cdata(&mut self) -> Result<(), ParseError> {
        let mut i = 9; // past "<![CDATA["
        loop {
            match self.find_byte(i, b']')? {
                Scan::Eof(e) => return Err(self.err_at(e, "unterminated CDATA section")),
                Scan::Hit(k) => {
                    if self.starts_with_at(k, "]]>") {
                        self.push_text_scratch(9, k, "invalid UTF-8 in CDATA")?;
                        self.consume_now(k + 3);
                        return Ok(());
                    }
                    i = k + 1;
                }
            }
        }
    }

    /// Relative offset one past the `>` terminating a construct that
    /// ends in `suffix` + `>` (comments: `--`, PIs: `?`), hopping the
    /// index's `>` marks instead of scanning every body byte. The first
    /// `>` mark preceded by the suffix is the first occurrence of the
    /// terminator, so this finds exactly what the scalar loop finds.
    /// `None` (no index, end of input, or an oversized construct) sends
    /// the caller back to the scalar loop, which reproduces the exact
    /// scalar error at its exact position.
    fn find_gt_ending(&mut self, min_start: usize, suffix: &[u8]) -> Option<usize> {
        self.idx.as_ref()?;
        let mut i = min_start + suffix.len();
        loop {
            let (k, _) = self.next_mark(i, simd::MASK_GT)?;
            let w = self.src.window(k + 1);
            if &w[k - suffix.len()..k] == suffix {
                return Some(k + 1);
            }
            i = k + 1;
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        if let Some(end) = self.find_gt_ending(4, b"--") {
            self.consume_now(end);
            return Ok(());
        }
        let mut i = 4; // past "<!--"
        loop {
            match self.find_byte(i, b'-')? {
                Scan::Eof(e) => return Err(self.err_at(e, "unterminated comment")),
                Scan::Hit(k) => {
                    if self.starts_with_at(k, "-->") {
                        self.consume_now(k + 3);
                        return Ok(());
                    }
                    i = k + 1;
                }
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        if let Some(end) = self.find_gt_ending(2, b"?") {
            self.consume_now(end);
            return Ok(());
        }
        let mut i = 2; // past "<?"
        loop {
            match self.find_byte(i, b'?')? {
                Scan::Eof(e) => return Err(self.err_at(e, "unterminated processing instruction")),
                Scan::Hit(k) => {
                    if self.starts_with_at(k, "?>") {
                        self.consume_now(k + 2);
                        return Ok(());
                    }
                    i = k + 1;
                }
            }
        }
    }

    // -- tags --------------------------------------------------------

    /// Lexes `<name attr="v" …>` / `<name …/>` at the cursor into a
    /// borrowed token. The whole tag is scanned without consuming, the
    /// attribute name/value spans recorded, and only then is the tag
    /// length deferred-consumed so the returned slices stay put.
    ///
    /// Indexed mode first tries [`Self::scan_start_tag_indexed`]: resolve
    /// the tag extent from the structural marks, then parse the complete
    /// materialized slice in one tight pass. Any irregularity bails to
    /// the scalar scan of the same bytes, which reproduces the exact
    /// scalar error.
    fn read_start_tag(&mut self) -> Result<XmlToken<'_>, ParseError> {
        let position = self.position();
        debug_assert_eq!(self.at(0), Some(b'<'));
        let fast = if self.idx.is_some() {
            self.scan_start_tag_indexed()
        } else {
            None
        };
        let (tag_len, name_id, self_closing) = match fast {
            Some(t) => t,
            None => self.scan_start_tag_scalar()?,
        };
        self.defer_consume(tag_len);
        if self_closing {
            self.pending_end = Some((name_id, self.position()));
        } else {
            self.open.push(name_id);
        }
        let w = self.src.window(tag_len);
        Ok(XmlToken::StartElement {
            name: self.names.get(name_id),
            name_id,
            attributes: AttrList {
                spans: &self.attr_spans,
                tag: &w[..tag_len],
                scratch: &self.attr_scratch,
            },
            self_closing,
            position,
        })
    }

    /// The scalar start-tag scan: cursor-relative probing with window
    /// refills, entity expansion in attribute values, and positioned
    /// errors. Returns `(tag_len, name_id, self_closing)`.
    fn scan_start_tag_scalar(&mut self) -> Result<(usize, NameId, bool), ParseError> {
        match self.at(1) {
            Some(c) if is_name_start(c) => {}
            _ => return Err(self.err_at(1, "expected name")),
        }
        let name_end = self.scan_while(2, is_name_char)?;
        let name_id = {
            let w = self.src.window(name_end);
            self.names.intern(&w[1..name_end])
        };
        let Some(name_id) = name_id else {
            return Err(self.err_at(1, "invalid UTF-8 in name"));
        };
        self.attr_spans.clear();
        self.attr_scratch.clear();
        let mut i = name_end;
        loop {
            i = self.scan_while(i, |c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))?;
            match self.at(i) {
                Some(b'>') => return Ok((i + 1, name_id, false)),
                Some(b'/') if self.at(i + 1) == Some(b'>') => return Ok((i + 2, name_id, true)),
                Some(b'/') | None => return Err(self.err_at(i, "expected \">\"")),
                Some(c) if is_name_start(c) => i = self.scan_attribute(i)?,
                Some(_) => return Err(self.err_at(i, "expected name")),
            }
        }
    }

    /// The indexed start-tag scan: one walk over the structural marks,
    /// parsing the byte runs between them (names, whitespace, `=`) in
    /// place and recording attribute spans as each closing quote mark is
    /// reached — the attribute values themselves are never re-scanned.
    /// `None` = use the scalar scan instead: end of input or oversized
    /// tag (no unquoted `>` mark in range), an entity reference or stray
    /// `<` in a value, any malformation, a duplicate attribute, or a tag
    /// reaching past the UTF-8 watermark. Indexed scans construct no
    /// errors — re-scanning the same bytes scalar-side is deterministic,
    /// so the error behavior of the two engines is identical by
    /// construction.
    fn scan_start_tag_indexed(&mut self) -> Option<(usize, NameId, bool)> {
        const WALK: u8 =
            simd::MASK_LT | simd::MASK_GT | simd::MASK_DQ | simd::MASK_SQ | simd::MASK_AMP;
        const WS: [u8; 4] = [b' ', b'\t', b'\r', b'\n'];
        let (mut rel, mut class) = self.next_mark(1, WALK)?;
        // Attribute-free tags (first mark = the closing `>`): probe the
        // tag cache before scanning. A hit is exact — byte-identical
        // tags scan to byte-identical results (the name pool only
        // grows, so the interned id is stable), and a cached tag
        // already proved its bytes scan cleanly, so the scalar path
        // would accept them too.
        if class == simd::CLASS_GT && rel < TAG_CACHE_BYTES {
            let tag_len = rel + 1;
            let w = self.src.window(tag_len);
            let e = &self.tag_cache[tag_cache_slot(w[1], tag_len)];
            if e.len as usize == tag_len && e.bytes[..tag_len] == w[..tag_len] {
                let (name_id, self_closing) = (e.name_id, e.self_closing);
                self.attr_spans.clear();
                self.attr_scratch.clear();
                return Some((tag_len, name_id, self_closing));
            }
        }
        self.attr_spans.clear();
        self.attr_scratch.clear();
        // Element name: no structural mark can sit inside a name, so the
        // bytes up to the first mark cover it. The window reaches the
        // mark because the index only records visible bytes.
        let name_end = {
            let w = self.src.window(rel + 1);
            if !is_name_start(w[1]) {
                return None;
            }
            let mut i = 2;
            while i < rel && is_name_char(w[i]) {
                i += 1;
            }
            i
        };
        let mut cursor = name_end;
        loop {
            match class {
                simd::CLASS_GT => {
                    // `[ws] >` or `[ws] />` closes the tag.
                    let tag_len = rel + 1;
                    let self_closing = {
                        let w = self.src.window(tag_len);
                        let mut i = cursor;
                        while i < rel && WS.contains(&w[i]) {
                            i += 1;
                        }
                        match rel - i {
                            0 => false,
                            1 if w[i] == b'/' => true,
                            _ => return None,
                        }
                    };
                    if self.offset + tag_len > self.idx.as_ref()?.utf8_valid_to {
                        return None;
                    }
                    let XmlReader {
                        src,
                        names,
                        tag_cache,
                        attr_spans,
                        ..
                    } = self;
                    let w = src.window(tag_len);
                    let name_id = names
                        .intern(&w[1..name_end])
                        .expect("tag bytes are inside the validated UTF-8 watermark");
                    if attr_spans.is_empty() && tag_len <= TAG_CACHE_BYTES {
                        let e = &mut tag_cache[tag_cache_slot(w[1], tag_len)];
                        e.len = tag_len as u8;
                        e.self_closing = self_closing;
                        e.name_id = name_id;
                        e.bytes[..tag_len].copy_from_slice(&w[..tag_len]);
                    }
                    return Some((tag_len, name_id, self_closing));
                }
                simd::CLASS_DQ | simd::CLASS_SQ => {
                    // `[ws] name [ws] = [ws]` must fill the gap up to
                    // this opening quote.
                    let (a_start, a_end) = {
                        let w = self.src.window(rel + 1);
                        let mut i = cursor;
                        while i < rel && WS.contains(&w[i]) {
                            i += 1;
                        }
                        if i >= rel || !is_name_start(w[i]) {
                            return None;
                        }
                        let a_start = i;
                        i += 1;
                        while i < rel && is_name_char(w[i]) {
                            i += 1;
                        }
                        let a_end = i;
                        while i < rel && WS.contains(&w[i]) {
                            i += 1;
                        }
                        if i >= rel || w[i] != b'=' {
                            return None;
                        }
                        i += 1;
                        while i < rel && WS.contains(&w[i]) {
                            i += 1;
                        }
                        if i != rel {
                            return None;
                        }
                        (a_start, a_end)
                    };
                    // The value runs to the next same-class quote mark.
                    // An `&` (entity to splice) or `<` (error) mark
                    // first routes to the scalar scan; `>` and the other
                    // quote are legal value bytes and excluded from the
                    // stop mask, so they are hopped for free.
                    let stop = (1 << class) | simd::MASK_LT | simd::MASK_AMP;
                    let (close, cclass) = self.next_mark(rel + 1, stop)?;
                    if cclass != class {
                        return None;
                    }
                    let XmlReader {
                        src, attr_spans, ..
                    } = self;
                    let w = src.window(close + 1);
                    let name = &w[a_start..a_end];
                    if attr_spans
                        .iter()
                        .any(|sp| &w[sp.name_start as usize..sp.name_end as usize] == name)
                    {
                        return None;
                    }
                    attr_spans.push(AttrSpan {
                        name_start: a_start as u32,
                        name_end: a_end as u32,
                        val_start: (rel + 1) as u32,
                        val_end: close as u32,
                        val_in_scratch: false,
                    });
                    cursor = close + 1;
                    (rel, class) = self.next_mark(cursor, WALK)?;
                }
                // `&` or a stray `<` inside the tag: scalar errors.
                _ => return None,
            }
        }
    }

    /// Scans one `name = "value"` at relative offset `start`, recording
    /// its spans; returns the offset just past the closing quote.
    fn scan_attribute(&mut self, start: usize) -> Result<usize, ParseError> {
        let name_end = self.scan_while(start + 1, is_name_char)?;
        self.check_utf8(start, name_end, "invalid UTF-8 in name")?;
        let mut i = self.scan_while(name_end, |c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))?;
        if self.at(i) != Some(b'=') {
            return Err(self.err_at(i, "expected \"=\""));
        }
        i = self.scan_while(i + 1, |c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))?;
        let quote = match self.at(i) {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err_at(i, "expected quoted attribute value")),
        };
        i += 1;
        let val_start = i;
        // Fast case: the value contains no entity reference and is used
        // as a raw tag span; `&` switches to decoding into the scratch.
        let mut scratch_from: Option<u32> = None;
        let mut seg_start = i;
        let (val, end) = loop {
            match self.find3(i, quote, b'&', b'<')? {
                Scan::Eof(e) => return Err(self.err_at(e, "unterminated attribute value")),
                Scan::Hit(k) => {
                    let found = self.at(k).expect("hit is in bounds");
                    if found == b'<' {
                        return Err(self.err_at(k, "'<' not allowed in attribute value"));
                    }
                    if found == quote {
                        match scratch_from {
                            None => {
                                self.check_utf8(val_start, k, "invalid UTF-8 sequence")?;
                                break ((val_start as u32, k as u32, false), k + 1);
                            }
                            Some(from) => {
                                self.push_attr_scratch(seg_start, k)?;
                                break ((from, self.attr_scratch.len() as u32, true), k + 1);
                            }
                        }
                    }
                    // `&`: flush the raw segment, splice the expansion.
                    if scratch_from.is_none() {
                        scratch_from = Some(self.attr_scratch.len() as u32);
                    }
                    self.push_attr_scratch(seg_start, k)?;
                    let (next, exp) = self.scan_entity(k)?;
                    match exp {
                        Expanded::Ch(c) => self.attr_scratch.push(c),
                        Expanded::Pre(s) => self.attr_scratch.push_str(s),
                        Expanded::Owned(s) => self.attr_scratch.push_str(&s),
                    }
                    seg_start = next;
                    i = next;
                }
            }
        };
        // Duplicate check against earlier attribute names (byte-wise;
        // names live in the raw tag span).
        let duplicate = {
            let w = self.src.window(name_end);
            let name = &w[start..name_end];
            self.attr_spans
                .iter()
                .any(|sp| &w[sp.name_start as usize..sp.name_end as usize] == name)
        };
        if duplicate {
            let name = {
                let w = self.src.window(name_end);
                String::from_utf8_lossy(&w[start..name_end]).into_owned()
            };
            return Err(self.err_at(end, format!("duplicate attribute {name:?}")));
        }
        let (val_start, val_end, val_in_scratch) = val;
        self.attr_spans.push(AttrSpan {
            name_start: start as u32,
            name_end: name_end as u32,
            val_start,
            val_end,
            val_in_scratch,
        });
        Ok(end)
    }

    fn read_end_tag(&mut self) -> Result<XmlToken<'_>, ParseError> {
        let position = self.position();
        debug_assert!(self.starts_with_at(0, "</"));
        let expected = *self.open.last().expect("content stage has an open element");
        let fast = if self.idx.is_some() {
            self.scan_end_tag_indexed(expected)
        } else {
            None
        };
        let tag_len = match fast {
            Some(len) => len,
            None => self.scan_end_tag_scalar(expected)?,
        };
        self.defer_consume(tag_len);
        self.open.pop();
        if self.open.is_empty() {
            self.stage = Stage::Epilog;
        }
        Ok(XmlToken::EndElement {
            name: LazyName {
                pool: &self.names,
                id: expected,
            },
            name_id: expected,
            position,
        })
    }

    /// The scalar end-tag scan; returns the tag length on a match with
    /// `expected` (anything else is a positioned error).
    fn scan_end_tag_scalar(&mut self, expected: NameId) -> Result<usize, ParseError> {
        match self.at(2) {
            Some(c) if is_name_start(c) => {}
            _ => return Err(self.err_at(2, "expected name")),
        }
        let name_end = self.scan_while(3, is_name_char)?;
        let id = {
            let w = self.src.window(name_end);
            self.names.intern(&w[2..name_end])
        };
        let Some(id) = id else {
            return Err(self.err_at(2, "invalid UTF-8 in name"));
        };
        if id != expected {
            let close = self.names.get(id).to_owned();
            let exp = self.names.get(expected).to_owned();
            return Err(self.err_at(
                name_end,
                format!("mismatched close tag: expected </{exp}>, found </{close}>"),
            ));
        }
        let i = self.scan_while(name_end, |c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))?;
        if self.at(i) != Some(b'>') {
            return Err(self.err_at(i, "expected \">\""));
        }
        Ok(i + 1)
    }

    /// The indexed end-tag scan: byte-compares the materialized tag
    /// against `</expected␣*>` without interning. `None` (mismatch of
    /// any kind, or the tag is out of index range) goes back through the
    /// scalar scan for its exact error; a genuine mismatched close tag
    /// always errors there, so skipping the intern is unobservable.
    fn scan_end_tag_indexed(&mut self, expected: NameId) -> Option<usize> {
        let extent = self.tag_extent(2)?;
        let tag_len = extent + 1;
        if self.offset + tag_len > self.idx.as_ref()?.utf8_valid_to {
            return None;
        }
        let XmlReader { src, names, .. } = self;
        let w = src.window(tag_len);
        parse_end_tag_slice(&w[..tag_len], names.get(expected).as_bytes()).then_some(tag_len)
    }

    // -- entities (cold path) ---------------------------------------

    /// Resolves `&…;` at relative offset `i0` without consuming: returns
    /// the offset just past the `;` and the decoded expansion. Character
    /// references are validated against the XML `Char` production;
    /// general entities are expanded recursively with depth/size guards.
    fn scan_entity(&mut self, i0: usize) -> Result<(usize, Expanded), ParseError> {
        debug_assert_eq!(self.at(i0), Some(b'&'));
        let mut i = i0 + 1;
        if self.at(i) == Some(b'#') {
            i += 1;
            let (radix, digit): (u32, fn(u8) -> bool) = if self.at(i) == Some(b'x') {
                i += 1;
                (16, |c: u8| c.is_ascii_hexdigit())
            } else {
                (10, |c: u8| c.is_ascii_digit())
            };
            let digits_start = i;
            i = self.scan_while(i, digit)?;
            if i == digits_start {
                return Err(self.err_at(i, "empty character reference"));
            }
            if self.at(i) != Some(b';') {
                return Err(self.err_at(i, "expected \";\""));
            }
            let pos = self.position_at(i0);
            let decoded = {
                let w = self.src.window(i);
                let digits = std::str::from_utf8(&w[digits_start..i]).expect("ASCII digits");
                decode_char_ref(digits, radix)
            };
            let ch = decoded.map_err(|msg| ParseError::new(pos, msg))?;
            return Ok((i + 1, Expanded::Ch(ch)));
        }
        match self.at(i) {
            Some(c) if is_name_start(c) => {}
            _ => return Err(self.err_at(i, "expected name")),
        }
        let name_end = self.scan_while(i + 1, is_name_char)?;
        if self.at(name_end) != Some(b';') {
            return Err(self.err_at(name_end, "expected \";\""));
        }
        let name = {
            let w = self.src.window(name_end);
            match std::str::from_utf8(&w[i..name_end]) {
                Ok(s) => s.to_owned(),
                Err(_) => return Err(self.err_at(i, "invalid UTF-8 in name")),
            }
        };
        if let Some(predef) = predefined_entity(&name) {
            return Ok((name_end + 1, Expanded::Pre(predef)));
        }
        let pos = self.position_at(i0);
        let out = self.expand_entity(&name, pos)?;
        Ok((name_end + 1, Expanded::Owned(out)))
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

    // -- DOCTYPE (cold path, byte-at-a-time like the old reader) -----

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.at(0)
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

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with_at(0, s) {
            self.consume_now(s.len());
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn parse_name_owned(&mut self) -> Result<String, ParseError> {
        match self.at(0) {
            Some(c) if is_name_start(c) => {}
            _ => return Err(self.err("expected name")),
        }
        let end = self.scan_while(1, is_name_char)?;
        let name = {
            let w = self.src.window(end);
            match std::str::from_utf8(&w[..end]) {
                Ok(s) => Ok(s.to_owned()),
                Err(_) => Err(()),
            }
        };
        match name {
            Ok(s) => {
                self.consume_now(end);
                Ok(s)
            }
            Err(()) => Err(self.err("invalid UTF-8 in name")),
        }
    }

    /// Parses a quoted literal (DOCTYPE external ids), consuming it.
    fn parse_quoted_owned(&mut self) -> Result<String, ParseError> {
        let quote = match self.at(0) {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.consume_now(1);
        let mut out = String::new();
        loop {
            match self.at(0) {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.consume_now(1);
                    return Ok(out);
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    let (next, exp) = self.scan_entity(0)?;
                    self.consume_now(next);
                    match exp {
                        Expanded::Ch(c) => out.push(c),
                        Expanded::Pre(s) => out.push_str(s),
                        Expanded::Owned(s) => out.push_str(&s),
                    }
                }
                Some(_) => {
                    let end = match self.find3(0, quote, b'&', b'<')? {
                        Scan::Hit(k) => k,
                        Scan::Eof(e) => e,
                    };
                    let seg = {
                        let w = self.src.window(end);
                        match std::str::from_utf8(&w[..end]) {
                            Ok(s) => Ok(s.to_owned()),
                            Err(_) => Err(()),
                        }
                    };
                    match seg {
                        Ok(s) => {
                            out.push_str(&s);
                            self.consume_now(end);
                        }
                        Err(()) => return Err(self.err("invalid UTF-8 sequence")),
                    }
                }
            }
        }
    }

    fn parse_doctype(&mut self) -> Result<(String, Option<String>), ParseError> {
        self.expect_str("<!DOCTYPE")?;
        self.skip_ws()?;
        let name = self.parse_name_owned()?;
        self.skip_ws()?;
        // Optional external ID (SYSTEM/PUBLIC) — recorded but not fetched.
        if self.starts_with_at(0, "SYSTEM") {
            self.expect_str("SYSTEM")?;
            self.skip_ws()?;
            self.parse_quoted_owned()?;
            self.skip_ws()?;
        } else if self.starts_with_at(0, "PUBLIC") {
            self.expect_str("PUBLIC")?;
            self.skip_ws()?;
            self.parse_quoted_owned()?;
            self.skip_ws()?;
            self.parse_quoted_owned()?;
            self.skip_ws()?;
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
            self.skip_ws()?;
        }
        self.expect_str(">")?;
        Ok((name, subset))
    }

    /// Extracts general-entity declarations from the internal subset. A
    /// malformed subset is a parse error of the document — reported with
    /// its position inside the subset — not a silent loss of all
    /// declarations.
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

/// Expands entity `name` from `entities`, resolving nested general-entity
/// and character references in replacement text. `active` detects cycles,
/// `produced` bounds total output across the whole expansion.
pub(crate) fn expand_rec<'e>(
    entities: &'e BTreeMap<String, String>,
    name: &'e str,
    active: &mut Vec<&'e str>,
    produced: &mut usize,
    pos: Position,
) -> Result<String, ParseError> {
    if active.contains(&name) {
        return Err(ParseError::new(
            pos,
            format!("recursive reference to entity &{name};"),
        ));
    }
    if active.len() >= MAX_ENTITY_DEPTH {
        return Err(ParseError::new(
            pos,
            format!("entity references nested more than {MAX_ENTITY_DEPTH} levels deep"),
        ));
    }
    let Some(raw) = entities.get(name) else {
        return Err(ParseError::new(pos, format!("undeclared entity &{name};")));
    };
    active.push(name);
    let mut out = String::new();
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the run up to the next reference verbatim.
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&raw[start..i]);
            *produced += i - start;
        } else {
            let Some(semi) = raw[i..].find(';').map(|k| i + k) else {
                return Err(ParseError::new(
                    pos,
                    format!("malformed reference in entity &{name}; value"),
                ));
            };
            let inner = &raw[i + 1..semi];
            if let Some(digits) = inner.strip_prefix('#') {
                let (digits, radix) = match digits.strip_prefix('x') {
                    Some(hex) => (hex, 16),
                    None => (digits, 10),
                };
                let ch = decode_char_ref(digits, radix).map_err(|msg| ParseError::new(pos, msg))?;
                out.push(ch);
                *produced += ch.len_utf8();
            } else if let Some(predef) = predefined_entity(inner) {
                out.push_str(predef);
                *produced += predef.len();
            } else {
                // Nested expansions account for their own bytes.
                let nested = expand_rec(entities, inner, active, produced, pos)?;
                out.push_str(&nested);
            }
            i = semi + 1;
        }
        if *produced > MAX_ENTITY_EXPANSION {
            return Err(ParseError::new(
                pos,
                format!("entity &{name}; expands to more than {MAX_ENTITY_EXPANSION} bytes"),
            ));
        }
    }
    active.pop();
    Ok(out)
}

/// The five predefined entities.
pub(crate) fn predefined_entity(name: &str) -> Option<&'static str> {
    match name {
        "amp" => Some("&"),
        "lt" => Some("<"),
        "gt" => Some(">"),
        "apos" => Some("'"),
        "quot" => Some("\""),
        _ => None,
    }
}

/// Decodes a character reference, enforcing the XML 1.0 `Char`
/// production: `&#0;`, other forbidden control characters, surrogates,
/// and `#xFFFE`/`#xFFFF` are rejected.
pub(crate) fn decode_char_ref(digits: &str, radix: u32) -> Result<char, String> {
    if digits.is_empty() {
        return Err("empty character reference".to_owned());
    }
    let code = u32::from_str_radix(digits, radix)
        .map_err(|_| "character reference out of range".to_owned())?;
    let ch =
        char::from_u32(code).ok_or_else(|| format!("invalid character reference &#{code};"))?;
    if !is_xml_char(ch) {
        return Err(format!(
            "character reference &#x{code:X}; is not a legal XML character"
        ));
    }
    Ok(ch)
}

/// The XML 1.0 `S` production (#x20 | #x9 | #xD | #xA): the only
/// characters XML and XSD treat as whitespace — in element-only content
/// (Element Locally Valid (Complex Type) 2.3) and in the `whiteSpace`
/// facet alike. Unlike `char::is_whitespace`, Unicode spaces such as
/// U+00A0 are ordinary text.
pub fn is_xml_whitespace(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// The XML 1.0 `Char` production.
pub(crate) fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

pub(crate) fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80
}

pub(crate) fn is_name_char(c: u8) -> bool {
    is_name_start(c) || c.is_ascii_digit() || matches!(c, b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<XmlEvent> {
        let mut r = XmlReader::from_str(input);
        let mut out = Vec::new();
        loop {
            let e = r.next_event().expect("valid input").to_event();
            let done = e == XmlEvent::EndDocument;
            out.push(e);
            if done {
                return out;
            }
        }
    }

    fn names(input: &str) -> Vec<String> {
        events(input)
            .into_iter()
            .map(|e| match e {
                XmlEvent::Doctype { name, .. } => format!("doctype:{name}"),
                XmlEvent::StartElement { name, .. } => format!("+{name}"),
                XmlEvent::EndElement { name, .. } => format!("-{name}"),
                XmlEvent::Text { text, .. } => format!("t:{text}"),
                XmlEvent::EndDocument => "$".to_owned(),
            })
            .collect()
    }

    fn first_error(input: &str) -> ParseError {
        let mut r = XmlReader::from_str(input);
        loop {
            match r.next_event() {
                Ok(XmlToken::EndDocument) => panic!("{input:?} must not parse"),
                Ok(_) => continue,
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn event_sequence_for_nested_document() {
        assert_eq!(
            names("<a><b>hi</b><c/></a>"),
            vec!["+a", "+b", "t:hi", "-b", "+c", "-c", "-a", "$"]
        );
    }

    #[test]
    fn text_coalesced_across_comments_and_cdata() {
        assert_eq!(
            names("<a>one<!--x-->two<![CDATA[<3>]]>three</a>"),
            vec!["+a", "t:onetwo<3>three", "-a", "$"]
        );
    }

    #[test]
    fn whitespace_only_text_is_emitted() {
        assert_eq!(
            names("<a>\n  <b/>\n</a>"),
            vec!["+a", "t:\n  ", "+b", "-b", "t:\n", "-a", "$"]
        );
    }

    #[test]
    fn self_closing_synthesizes_end() {
        let evs = events("<a/>");
        assert!(matches!(
            &evs[0],
            XmlEvent::StartElement {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&evs[1], XmlEvent::EndElement { name, .. } if name == "a"));
        assert_eq!(evs[2], XmlEvent::EndDocument);
    }

    #[test]
    fn io_source_matches_slice_source() {
        let input = "<a x=\"1\"><b>h&amp;llo</b><!--c--><c/>tail</a>";
        let from_slice = events(input);
        let mut r = XmlReader::from_reader(input.as_bytes());
        let mut from_io = Vec::new();
        loop {
            let e = r.next_event().unwrap().to_event();
            let done = e == XmlEvent::EndDocument;
            from_io.push(e);
            if done {
                break;
            }
        }
        assert_eq!(from_slice, from_io);
    }

    #[test]
    fn positions_reported_on_events() {
        let evs = events("<a>\n<b/></a>");
        let XmlEvent::StartElement { position, .. } = &evs[2] else {
            panic!("expected <b> start, got {:?}", evs[2]);
        };
        assert_eq!(position.line, 2);
        assert_eq!(position.column, 1);
    }

    #[test]
    fn name_ids_dense_in_first_occurrence_order() {
        let mut r = XmlReader::from_str("<a><b x=\"1\"/><a><b/></a></a>");
        let mut ids = Vec::new();
        loop {
            match r.next_event().unwrap() {
                XmlToken::StartElement { name, name_id, .. } => {
                    ids.push((name.to_owned(), name_id.index()));
                }
                XmlToken::EndDocument => break,
                _ => {}
            }
        }
        assert_eq!(
            ids,
            vec![
                ("a".to_owned(), 0),
                ("b".to_owned(), 1),
                ("a".to_owned(), 0),
                ("b".to_owned(), 1)
            ]
        );
        assert_eq!(r.name_count(), 2);
    }

    #[test]
    fn attributes_decoded_lazily() {
        let mut r = XmlReader::from_str("<a one=\"1\" two='2&amp;2' three=\"&#65;\"/>");
        let XmlToken::StartElement { attributes, .. } = r.next_event().unwrap() else {
            panic!("expected start tag");
        };
        let attrs: Vec<(String, String)> = attributes
            .iter()
            .map(|a| (a.name.to_owned(), a.value.to_owned()))
            .collect();
        assert_eq!(
            attrs,
            vec![
                ("one".to_owned(), "1".to_owned()),
                ("two".to_owned(), "2&2".to_owned()),
                ("three".to_owned(), "A".to_owned())
            ]
        );
    }

    #[test]
    fn nested_entity_references_expand() {
        let input = r#"<!DOCTYPE a [
            <!ENTITY inner "world">
            <!ENTITY outer "hello &inner;!">
        ]><a>&outer;</a>"#;
        let evs = events(input);
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::Text { text, .. } if text == "hello world!")));
    }

    #[test]
    fn recursive_entities_rejected() {
        let input = r#"<!DOCTYPE a [
            <!ENTITY x "&y;">
            <!ENTITY y "&x;">
        ]><a>&x;</a>"#;
        let err = first_error(input);
        assert!(err.message.contains("recursive"), "{err}");
    }

    #[test]
    fn billion_laughs_fails_cleanly() {
        let mut subset = String::from("<!ENTITY lol0 \"lolololololololololol\">");
        for i in 1..10 {
            let p = i - 1;
            subset.push_str(&format!(
                "<!ENTITY lol{i} \"&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};&lol{p};\">"
            ));
        }
        let input = format!("<!DOCTYPE a [{subset}]><a>&lol9;</a>");
        let err = first_error(&input);
        assert!(err.message.contains("expands to more than"), "{err}");
    }

    #[test]
    fn forbidden_character_references_rejected() {
        for bad in [
            "<a>&#0;</a>",
            "<a>&#x8;</a>",
            "<a>&#xFFFE;</a>",
            "<a>&#31;</a>",
        ] {
            let err = first_error(bad);
            assert!(err.message.contains("XML character"), "{bad}: {err}");
        }
        // Tab, LF, CR, and plane-1 chars stay legal.
        for good in ["<a>&#9;</a>", "<a>&#xA;</a>", "<a>&#x1F600;</a>"] {
            assert!(events(good).len() >= 3, "{good} must parse");
        }
    }

    #[test]
    fn malformed_internal_subset_is_an_error() {
        let input = "<!DOCTYPE a [<!ENTITY e \"oops>]><a>&e;</a>";
        let mut r = XmlReader::from_str(input);
        let err = r.next_event().unwrap_err();
        assert!(err.message.contains("in DTD internal subset"), "{err}");
    }

    #[test]
    fn mismatched_close_tag_positioned() {
        let err = first_error("<a>\n  <b></c>\n</a>");
        assert_eq!(err.position.line, 2);
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut r = XmlReader::from_str("<a><b><c/></b></a>");
        let mut max = 0;
        loop {
            if let XmlToken::EndDocument = r.next_event().unwrap() {
                break;
            }
            max = max.max(r.depth());
        }
        assert_eq!(max, 3);
    }

    #[test]
    fn oversized_token_rejected_with_position() {
        // A text run larger than the cap, behind an io source (so the
        // rolling window would otherwise grow without bound).
        let big = format!("<a>{}</a>", "x".repeat(4096));
        let mut r = XmlReader::from_reader(big.as_bytes());
        r.set_max_token(1024);
        let err = loop {
            match r.next_event() {
                Ok(XmlToken::EndDocument) => panic!("must not parse"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("token too large"), "{err}");
        // The cap applies per token, not per document: many small
        // tokens under the same cap stream through fine.
        let many = format!("<a>{}</a>", "<b>xy</b>".repeat(2000));
        let mut r = XmlReader::from_reader(many.as_bytes());
        r.set_max_token(1024);
        let mut n = 0usize;
        loop {
            match r.next_event().expect("small tokens pass") {
                XmlToken::EndDocument => break,
                _ => n += 1,
            }
        }
        assert!(n > 4000);
    }

    #[test]
    fn swar_memchr_matches_naive() {
        let hay = b"abcdefghijklmnop<qrstuvwx&yz-0123]456789?";
        for &needle in b"<&-]?za\n" {
            assert_eq!(
                memchr(needle, hay),
                hay.iter().position(|&b| b == needle),
                "memchr({})",
                needle as char
            );
        }
        assert_eq!(
            memchr2(b'&', b'<', hay),
            hay.iter().position(|&b| b == b'&' || b == b'<')
        );
        assert_eq!(
            memchr3(b'"', b'&', b'<', hay),
            hay.iter()
                .position(|&b| b == b'"' || b == b'&' || b == b'<')
        );
        assert_eq!(memchr(b'!', hay), None);
        assert_eq!(memchr2(b'!', b'@', hay), None);
        assert_eq!(memchr3(b'!', b'@', b'#', hay), None);
        // All offsets within the SWAR word and in the tail.
        for i in 0..24 {
            let mut v = vec![b'.'; 24];
            v[i] = b'<';
            assert_eq!(memchr(b'<', &v), Some(i), "offset {i}");
            assert_eq!(memchr2(b'<', b'&', &v), Some(i));
            assert_eq!(memchr3(b'<', b'&', b'"', &v), Some(i));
        }
    }

    #[test]
    fn engine_selection_and_forced_scalar_agree() {
        let input = "<a x=\"1\" y='2'>text &amp; more<![CDATA[»]]><b/></a>";
        let mut fast = XmlReader::from_str(input);
        assert_eq!(fast.engine(), Engine::detect());
        let mut slow = XmlReader::from_str(input);
        slow.set_engine(Engine::Scalar);
        assert_eq!(slow.engine(), Engine::Scalar);
        loop {
            let a = fast.next_event().unwrap().to_event();
            let b = slow.next_event().unwrap().to_event();
            assert_eq!(a, b);
            if a == XmlEvent::EndDocument {
                break;
            }
        }
        // Switching mid-stream is allowed and changes nothing observable.
        let mut mixed = XmlReader::from_str(input);
        mixed.next_event().unwrap();
        mixed.set_engine(Engine::Scalar);
        mixed.next_event().unwrap();
        mixed.set_engine(Engine::detect());
        while !mixed.next_event().unwrap().is_end_document() {}
    }

    #[test]
    fn text_token_borrows_source_when_plain() {
        // Plain text comes back as a slice of the input itself.
        let input = "<a>plain text run</a>";
        let mut r = XmlReader::from_str(input);
        r.next_event().unwrap(); // <a>
        let XmlToken::Text { text, .. } = r.next_event().unwrap() else {
            panic!("expected text");
        };
        let inner = &input[3..3 + text.len()];
        assert_eq!(text, inner);
        assert!(std::ptr::eq(text.as_ptr(), inner.as_ptr()), "zero-copy");
    }
}
