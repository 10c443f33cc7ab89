//! # xsd — a from-scratch core XML Schema implementation
//!
//! The substrate the BonXai translations target: the paper's formal XSD
//! model and its practical XML syntax.
//!
//! * [`model::Xsd`] — Definition 2: types, ρ, T0 with the **EDC** and
//!   **UPA** constraints (EDC holds by construction in the factored
//!   representation; UPA is checked on assembly);
//! * [`dfa_xsd::DfaXsd`] — Definition 3: DFA-based XSDs, the intermediate
//!   representation of all four translation algorithms;
//! * [`validate`](mod@validate) — top-down unique typing of documents;
//! * [`minimize`] — type minimization (adaptation of Martens & Niehren);
//! * [`ksuffix`] — Definition 10: is a schema k-suffix?
//! * [`syntax`] — reading and writing actual `<xs:schema>` XML;
//! * [`simple_types`] / [`content`] — datatypes and content models shared
//!   with the BonXai side.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod content;
pub mod dfa_xsd;
pub mod ksuffix;
pub mod minimize;
pub mod model;
pub mod simple_types;
pub mod syntax;
pub mod validate;
pub mod violation;

pub use compare::{check_schemas_equivalent, erase_datatypes, Divergence, DivergenceReason};
pub use content::{AttributeUse, ContentModel};
pub use dfa_xsd::{DfaXsd, DfaXsdBuilder, DfaXsdError};
pub use ksuffix::{is_k_suffix, minimal_k, KSuffixOutcome};
pub use minimize::minimize_types;
pub use model::{TypeDef, TypeId, Xsd, XsdBuilder, XsdError};
pub use simple_types::{admits, canonical_value, value_space_witness, Facets, SimpleType};
pub use syntax::{emit_xsd, parse_xsd, parse_xsd_doc, parse_xsd_unchecked};
pub use validate::{is_valid, validate, CompiledXsd, TypingResult};
pub use violation::{Violation, ViolationKind};
