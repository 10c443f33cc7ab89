//! Semantic lint: static analysis of BonXai and XSD schemas.
//!
//! A schema can be perfectly well-formed and still be *wrong*: a rule can
//! be shadowed by a later one (the priority semantics of Definition 1
//! make rule order load-bearing), a pattern can be unreachable from any
//! realizable document, a content model can admit no value at all, or a
//! schema can sit just outside the k-suffix fragment and blow up under
//! XSD translation (Theorem 9). None of these are parse errors — they
//! are language-level properties, and the [`relang`] decision procedures
//! (emptiness, inclusion with witnesses, one-unambiguity) decide them
//! exactly.
//!
//! This module packages those procedures as a diagnostic pass:
//!
//! | code  | name                  | severity | meaning |
//! |-------|-----------------------|----------|---------|
//! | BX001 | dead-rule             | warning  | every matching ancestor path is claimed by a later rule |
//! | BX002 | unreachable-rule      | warning  | no realizable ancestor path matches the rule |
//! | BX003 | upa-violation         | error    | content model is not one-unambiguous (with witness word) |
//! | BX004 | vacuous-content       | warning  | content model admits no child sequence / no text value |
//! | BX005 | undefined-reference   | error    | unknown group, cyclic group, malformed attribute rule, missing child type |
//! | BX006 | unconstrained-element | warning  | an element name is used but no rule ever applies to it |
//! | BX007 | fragment-advisory     | note     | k-suffix fragment membership and translation cost outlook |
//! | BX008 | product-blowup        | warning  | relevance product exceeds its state budget |
//! | BX009 | analysis-budget       | note     | a lint analysis hit its budget and was skipped |
//! | BX010 | unsatisfiable-rule    | warning  | rule applies at a realizable context but no finite conforming subtree exists there |
//!
//! Diagnostics carry the source [`Span`] of the offending rule when the
//! schema came from BonXai surface text, and witness words (ancestor
//! paths, ambiguous child sequences) rendered with real element names.
//! Entry points: [`lint_source`] / [`lint_ast`] for BonXai,
//! [`lint_xsd`] for loaded XSDs; [`render::render_text`] and
//! [`render::render_json`] produce the CLI output formats.

pub mod checks;
pub mod render;

pub use checks::{lint_ast, lint_ast_with, lint_xsd, xsd_fragment, MAX_FRAGMENT_K};
pub use render::{render_json, render_text};

use crate::lang::ast::Span;
use crate::lang::lexer::LangError;
use crate::lang::parser::parse_schema;

/// How bad a diagnostic is. Ordered: `Note < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (hidden unless requested).
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// The schema is broken.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::str::FromStr for Severity {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "note" => Ok(Severity::Note),
            "warning" | "warn" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity {other:?} (note|warning|error)")),
        }
    }
}

/// Stable diagnostic codes. The numbering is part of the tool's public
/// interface: scripts match on `BX001`…`BX010`, never on message text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// BX001: rule shadowed by later rules.
    DeadRule,
    /// BX002: rule matches no realizable ancestor path.
    UnreachableRule,
    /// BX003: content model violates UPA (one-unambiguity).
    UpaViolation,
    /// BX004: content model admits nothing.
    VacuousContent,
    /// BX005: unknown / cyclic / malformed reference.
    UndefinedReference,
    /// BX006: element name used but never constrained by any rule.
    UnconstrainedElement,
    /// BX007: k-suffix fragment membership advisory.
    FragmentAdvisory,
    /// BX008: relevance product exceeds its budget.
    ProductBlowup,
    /// BX009: an analysis hit its budget and was skipped.
    BudgetExceeded,
    /// BX010: rule is relevant at a realizable context but admits no
    /// finite conforming subtree there.
    UnsatisfiableRule,
}

impl Code {
    /// The stable `BXnnn` code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DeadRule => "BX001",
            Code::UnreachableRule => "BX002",
            Code::UpaViolation => "BX003",
            Code::VacuousContent => "BX004",
            Code::UndefinedReference => "BX005",
            Code::UnconstrainedElement => "BX006",
            Code::FragmentAdvisory => "BX007",
            Code::ProductBlowup => "BX008",
            Code::BudgetExceeded => "BX009",
            Code::UnsatisfiableRule => "BX010",
        }
    }

    /// The human-readable check name.
    pub fn name(self) -> &'static str {
        match self {
            Code::DeadRule => "dead-rule",
            Code::UnreachableRule => "unreachable-rule",
            Code::UpaViolation => "upa-violation",
            Code::VacuousContent => "vacuous-content",
            Code::UndefinedReference => "undefined-reference",
            Code::UnconstrainedElement => "unconstrained-element",
            Code::FragmentAdvisory => "fragment-advisory",
            Code::ProductBlowup => "product-blowup",
            Code::BudgetExceeded => "analysis-budget",
            Code::UnsatisfiableRule => "unsatisfiable-rule",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::UpaViolation | Code::UndefinedReference => Severity::Error,
            Code::DeadRule
            | Code::UnreachableRule
            | Code::VacuousContent
            | Code::UnconstrainedElement
            | Code::ProductBlowup
            | Code::UnsatisfiableRule => Severity::Warning,
            Code::FragmentAdvisory | Code::BudgetExceeded => Severity::Note,
        }
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Source span of the offending construct ([`Span::default`] when
    /// the schema has no surface source, e.g. loaded XSDs).
    pub span: Span,
    /// What the diagnostic is about: the rule's LHS source text, an XSD
    /// type name, or an element name.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
    /// Witness word (ancestor path or child sequence), when the check
    /// produces one.
    pub witness: Option<String>,
}

impl Diagnostic {
    /// The severity implied by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

/// Tuning knobs for the lint pass.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Include `note`-level diagnostics (advisories) in the report.
    pub include_notes: bool,
    /// Run only the cheap per-rule checks (BX003 UPA, BX004 vacuous
    /// content, BX005 undefined references) and skip every whole-schema
    /// language analysis (no automata products). This is what
    /// `bonxai check` uses.
    pub structural_only: bool,
    /// State budget for the reachability analysis (tuples of per-rule
    /// ancestor-DFA states). Exceeding it yields a BX009 note and skips
    /// the unreachable-rule check.
    pub reach_budget: usize,
    /// State budget for the relevance-product probe (BX008); mirrors
    /// [`crate::validate::DEFAULT_PRODUCT_BUDGET`].
    pub product_budget: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            include_notes: false,
            structural_only: false,
            reach_budget: 1 << 16,
            product_budget: crate::validate::DEFAULT_PRODUCT_BUDGET,
        }
    }
}

/// The outcome of linting one schema.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, in source order (then by code).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The worst severity present, if any finding survived filtering.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(Diagnostic::severity).max()
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Sorts findings into the canonical order (source position, then
    /// code, then subject) and applies the note filter. Called by the
    /// check drivers before returning.
    fn finish(mut self, opts: &LintOptions) -> LintReport {
        if !opts.include_notes {
            self.diagnostics.retain(|d| d.severity() > Severity::Note);
        }
        self.diagnostics
            .sort_by_key(|d| (d.span.offset, d.span.line, d.code, d.subject.clone()));
        self
    }
}

/// Lints BonXai source text. Parse errors are hard errors (there is no
/// schema to analyze); everything past the parser becomes diagnostics.
pub fn lint_source(source: &str, opts: &LintOptions) -> Result<LintReport, LangError> {
    let ast = parse_schema(source)?;
    Ok(lint_ast(&ast, opts))
}

/// [`lint_source`] with a caller-owned [`relang::AutomataCache`], so the
/// semantic checks share per-rule DFAs (and a corpus driver can reuse
/// the cache across schemas that repeat ancestor patterns).
pub fn lint_source_with(
    source: &str,
    opts: &LintOptions,
    cache: &mut relang::AutomataCache,
) -> Result<LintReport, LangError> {
    let ast = parse_schema(source)?;
    Ok(lint_ast_with(&ast, opts, cache))
}
