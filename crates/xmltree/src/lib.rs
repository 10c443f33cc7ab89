//! # xmltree — the XML substrate of the BonXai implementation
//!
//! XML documents as finite, rooted, ordered, labeled, unranked trees
//! (Section 4.1 of the BonXai paper), plus everything needed to get them
//! in and out of text form, all built from scratch:
//!
//! * [`tree::Document`] — arena tree with `anc-str`/`ch-str` accessors;
//! * [`stream`] — a pull-based event reader (the single lexing front end;
//!   works over in-memory buffers or any `io::Read` in O(window) memory);
//! * [`parser`] — an XML 1.0 parser (prolog, DOCTYPE with internal subset,
//!   CDATA, entities) with positioned errors, built as a fold over
//!   [`stream`];
//! * [`serializer`] — compact and pretty writers;
//! * [`builder`] — programmatic document construction;
//! * [`dtd`] — Document Type Definitions: model, parser, validator (the
//!   paper's baseline schema language, cf. Figure 2).
//!
//! ```
//! use xmltree::{parse_document, dtd::parse_dtd, dtd::is_valid};
//! let doc = parse_document("<doc><title>hi</title></doc>").unwrap();
//! let dtd = parse_dtd("<!ELEMENT doc (title)> <!ELEMENT title (#PCDATA)>").unwrap();
//! assert!(is_valid(&dtd, &doc));
//! assert_eq!(doc.ch_str(doc.root()), vec!["title"]);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the SIMD structural-index kernels ([`simd`]) and
// the proven-UTF-8 slice materialization in [`stream`] carry the only
// `#[allow(unsafe_code)]` exemptions, each with a SAFETY argument.
#![deny(unsafe_code)]

pub mod builder;
pub mod dtd;
pub mod error;
pub mod parser;
#[doc(hidden)]
pub mod reference;
pub mod serializer;
pub mod simd;
pub mod stream;
pub mod tree;

pub use error::{ParseError, Position};
pub use parser::{parse, parse_document, parse_from_reader, ParsedXml};
pub use serializer::{to_string, to_string_pretty};
pub use simd::Engine;
pub use stream::{
    is_xml_whitespace, Attr, AttrList, EventSink, LazyName, NameId, TextChunk, TextInterest,
    XmlEvent, XmlReader, XmlToken,
};
pub use tree::{Attribute, Document, Edit, EditLog, ElementsIter, NodeId, NodeKind};
