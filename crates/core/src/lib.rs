//! # bonxai-core — the BonXai schema language
//!
//! A faithful implementation of *BonXai: Combining the simplicity of DTD
//! with the expressiveness of XML Schema* (Martens, Neven, Niewerth,
//! Schwentick — PODS 2015):
//!
//! * [`bxsd`] — the formal core (Definition 1): ordered rules
//!   `ancestor-regex → deterministic content model` with priority
//!   semantics;
//! * [`validate`](mod@validate) — document validation with matched-rule reporting;
//! * [`oracle`] — the deliberately-slow reference interpreter the fast
//!   paths are differentially tested against;
//! * [`conformance`] — the differential driver that runs one input
//!   through every validation path × lexer engine and reports any
//!   disagreement with the oracle as a bug;
//! * [`batch`] — parallel multi-document validation (in-memory trees
//!   or streamed files) on one claim-next-job map, deterministic in
//!   input order;
//! * [`incremental`] — persistent [`incremental::ValidationState`] +
//!   [`CompiledBxsd::revalidate`]: replay an edit log instead of
//!   revalidating the whole document;
//! * [`semantics`] — the universal/existential alternatives (Section 3.2)
//!   for comparison;
//! * [`translate`] — Algorithms 1–4 and the k-suffix fast paths
//!   (Theorems 12/13), composed into end-to-end pipelines;
//! * [`lang`] — the practical language of Section 3 (the compact syntax
//!   of Figures 4/5): lexer, parser, printer, lowering, lifting;
//! * [`schema`] — [`BonxaiSchema`], the user-facing schema object;
//! * [`constraints`] — `unique`/`key`/`keyref` integrity constraints;
//! * [`dtd_import`] — DTD → BonXai conversion (Figure 2 → Figure 4);
//! * [`pipeline`] — BonXai text ⇄ XSD text, end to end;
//! * [`lint`] — static analysis: dead/unreachable rules, UPA witnesses,
//!   vacuous content, fragment/blow-up advisories (`bonxai lint`);
//! * [`analysis`] — whole-schema decision procedures: satisfiability and
//!   inclusion/equivalence with verified witness documents
//!   (`bonxai diff`, `bonxai sat`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod batch;
pub mod bxsd;
pub mod conformance;
pub mod constraints;
pub mod dtd_import;
pub mod incremental;
pub mod lang;
pub mod lint;
pub mod oracle;
pub mod pipeline;
pub mod schema;
pub mod semantics;
pub mod translate;
pub mod validate;

pub use analysis::{
    analyze_sat, diff_bxsd, AnalysisError, AnalysisOptions, DiffReport, DiffStats, Direction,
    Evolution, SatReport, UnsatRule, Witness, WitnessKind,
};
pub use batch::{clamp_jobs, default_jobs, map_indexed, FileReport};
pub use bxsd::{Bxsd, BxsdBuilder, BxsdError, Rule};
pub use incremental::ValidationState;
pub use pipeline::{
    bonxai_to_xsd_text, xsd_to_bonxai_text, PipelineError, SchemaCompiler, Translated,
};
pub use schema::{BonxaiSchema, ValidationReport};
pub use semantics::{conforms, Semantics};
pub use validate::{
    is_valid, stream_frame_sizes, validate, validate_with, BxsdReport, CompiledBxsd, NodeMatch,
    ValidateOptions, DEFAULT_PRODUCT_BUDGET,
};
