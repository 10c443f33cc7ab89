//! End-to-end pipelines: BonXai text ⇄ XSD text.
//!
//! This is BonXai's headline feature — "a practical front-end for XML
//! Schema": schemas written in the compact syntax are compiled to real
//! `<xs:schema>` documents and back, via the formal translations of
//! Section 4.2 (taking the k-suffix fast paths of Section 4.4 whenever
//! they apply).
//!
//! For workloads that compile *evolving* schemas repeatedly — a watch
//! loop, the registry's hot reload, the schema-diff explorer —
//! [`SchemaCompiler`] keeps one structural-hash [`AutomataCache`]
//! across compiles, so recompiling an edited schema rebuilds only the
//! rules the edit touched and reports per-stage reuse counters.

use std::fmt;

use relang::cache::{AutomataCache, CacheStats};
use xsd::Xsd;

use crate::bxsd::Bxsd;
use crate::schema::BonxaiSchema;
use crate::translate::{self, Path, TranslateOptions};
use crate::validate::{CompiledBxsd, DEFAULT_PRODUCT_BUDGET};

/// An error anywhere along a pipeline.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// BonXai syntax or lowering error.
    Bonxai(crate::lang::LangError),
    /// XSD syntax or model error.
    Xsd(xsd::syntax::SyntaxError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Bonxai(e) => write!(f, "BonXai: {e}"),
            PipelineError::Xsd(e) => write!(f, "XSD: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<crate::lang::LangError> for PipelineError {
    fn from(e: crate::lang::LangError) -> Self {
        PipelineError::Bonxai(e)
    }
}

impl From<xsd::syntax::SyntaxError> for PipelineError {
    fn from(e: xsd::syntax::SyntaxError) -> Self {
        PipelineError::Xsd(e)
    }
}

/// The result of an end-to-end translation, with provenance.
#[derive(Clone, Debug)]
pub struct Translated<T> {
    /// The produced schema / text.
    pub output: T,
    /// Which algorithm path was taken.
    pub path: Path,
}

/// Compiles a BonXai schema (compact syntax) to XSD XML text.
pub fn bonxai_to_xsd_text(
    source: &str,
    opts: &TranslateOptions,
) -> Result<Translated<String>, PipelineError> {
    let schema = BonxaiSchema::parse(source)?;
    let (xsd, path) = bonxai_to_xsd(&schema, opts);
    let text = xsd::emit_xsd(&xsd, schema.ast.target_namespace.as_deref())?;
    Ok(Translated { output: text, path })
}

/// Compiles a BonXai schema object to a core XSD.
pub fn bonxai_to_xsd(schema: &BonxaiSchema, opts: &TranslateOptions) -> (Xsd, Path) {
    translate::bxsd_to_xsd(&schema.bxsd, opts)
}

/// Translates XSD XML text into BonXai compact syntax.
pub fn xsd_to_bonxai_text(
    source: &str,
    opts: &TranslateOptions,
) -> Result<Translated<String>, PipelineError> {
    let xsd = xsd::parse_xsd(source)?;
    let (schema, path) = xsd_to_bonxai(&xsd, opts);
    Ok(Translated {
        output: schema.to_source(),
        path,
    })
}

/// Translates a core XSD into a BonXai schema object.
pub fn xsd_to_bonxai(xsd: &Xsd, opts: &TranslateOptions) -> (BonxaiSchema, Path) {
    let (bxsd, path) = translate::xsd_to_bxsd(xsd, opts);
    (BonxaiSchema::from_bxsd(bxsd), path)
}

/// A compile session that survives schema versions: every compile runs
/// through one shared [`AutomataCache`], so ancestor DFAs, relevance
/// products, and compiled content matchers of *unchanged* rules are
/// reused when an edited schema is recompiled, and the per-stage
/// [`CacheStats`] deltas make the reuse measurable.
///
/// ```
/// use bonxai_core::pipeline::SchemaCompiler;
/// use bonxai_core::BonxaiSchema;
/// let v1 = BonxaiSchema::parse("global { a } grammar { a = { } }").unwrap();
/// let v2 = BonxaiSchema::parse("global { a } grammar { a = mixed { } }").unwrap();
/// let mut session = SchemaCompiler::new();
/// let _ = session.compile(&v1.bxsd);
/// let _ = session.compile(&v2.bxsd); // ancestor machinery is reused
/// assert!(session.last_stats().hits() > 0);
/// ```
#[derive(Debug, Default)]
pub struct SchemaCompiler {
    cache: AutomataCache,
    budget: usize,
    last: CacheStats,
}

impl SchemaCompiler {
    /// A fresh session with the default relevance-product budget.
    pub fn new() -> SchemaCompiler {
        Self::with_budget(DEFAULT_PRODUCT_BUDGET)
    }

    /// A fresh session with an explicit relevance-product budget
    /// (0 = always lock-step), see [`CompiledBxsd::with_budget`].
    pub fn with_budget(budget: usize) -> SchemaCompiler {
        SchemaCompiler {
            cache: AutomataCache::new(),
            budget,
            last: CacheStats::default(),
        }
    }

    /// Compiles `bxsd` through the session cache. The validator is
    /// identical to [`CompiledBxsd::new`]'s; only construction work is
    /// shared across versions.
    pub fn compile<'a>(&mut self, bxsd: &'a Bxsd) -> CompiledBxsd<'a> {
        let compiled = CompiledBxsd::with_cache(bxsd, self.budget, &mut self.cache);
        self.last = compiled.cache_stats();
        compiled
    }

    /// Per-stage hit/miss counters of the most recent
    /// [`Self::compile`] only (hits = constructions reused from an
    /// earlier version) — its [`CompiledBxsd::cache_stats`].
    pub fn last_stats(&self) -> CacheStats {
        self.last
    }

    /// Cumulative per-stage counters across the whole session.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The underlying cache, for callers composing with other memoized
    /// passes (lint, diff).
    pub fn cache_mut(&mut self) -> &mut AutomataCache {
        &mut self.cache
    }
}

/// Translates a BXSD into a BonXai schema and back to a BXSD through the
/// surface syntax (used by round-trip tests; exposed for tools).
pub fn bxsd_surface_roundtrip(bxsd: &Bxsd) -> Result<Bxsd, PipelineError> {
    let schema = BonxaiSchema::from_bxsd(bxsd.clone());
    let source = schema.to_source();
    Ok(BonxaiSchema::parse(&source)?.bxsd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::parse_document;

    const BONXAI: &str = r#"
        target namespace http://example.org/doc
        global { document }
        grammar {
          document = { element template, element content }
          template = { (element section)? }
          content = { (element section)* }
          section = mixed { attribute title, (element section)* }
          template/section = { (element section)? }
          @title = { type xs:string }
        }
    "#;

    fn docs() -> Vec<xmltree::Document> {
        [
            r#"<document><template><section/></template>
               <content><section title="A">x<section title="B"/></section></content></document>"#,
            r#"<document><template><section title="no"/></template><content/></document>"#,
            r#"<document><content/><template/></document>"#,
            r#"<document><template/><content><section/></content></document>"#,
        ]
        .iter()
        .map(|s| parse_document(s).unwrap())
        .collect()
    }

    #[test]
    fn bonxai_to_xsd_and_back_preserves_language() {
        let opts = TranslateOptions::default();
        let schema = BonxaiSchema::parse(BONXAI).unwrap();
        let xsd_text = bonxai_to_xsd_text(BONXAI, &opts).unwrap();
        assert!(xsd_text.output.contains("xs:schema"));
        assert!(xsd_text
            .output
            .contains("targetNamespace=\"http://example.org/doc\""));

        let xsd = xsd::parse_xsd(&xsd_text.output).unwrap();
        let back = xsd_to_bonxai_text(&xsd_text.output, &opts).unwrap();
        let back_schema = BonxaiSchema::parse(&back.output).unwrap();

        for doc in &docs() {
            let expected = schema.is_valid(doc);
            assert_eq!(
                xsd::is_valid(&xsd, doc),
                expected,
                "{}",
                xmltree::to_string(doc)
            );
            assert_eq!(
                back_schema.is_valid(doc),
                expected,
                "{}",
                xmltree::to_string(doc)
            );
        }
    }

    #[test]
    fn fast_path_is_taken_for_suffix_schemas() {
        let opts = TranslateOptions::default();
        let t = bonxai_to_xsd_text(BONXAI, &opts).unwrap();
        assert!(matches!(t.path, Path::Fast(k) if k <= 2), "{:?}", t.path);
    }

    #[test]
    fn recompile_of_identical_schema_is_all_hits() {
        let schema = BonxaiSchema::parse(BONXAI).unwrap();
        let mut session = SchemaCompiler::new();
        let _ = session.compile(&schema.bxsd);
        let cold = session.last_stats();
        assert!(cold.misses() > 0, "cold compile built something");
        let _ = session.compile(&schema.bxsd);
        let again = session.last_stats();
        assert_eq!(
            again.misses(),
            0,
            "warm compile rebuilt something: {again:?}"
        );
        assert!(again.hits() > 0);
        assert_eq!(again.content.misses, 0);
        assert_eq!(again.product.misses, 0);
    }

    #[test]
    fn recompile_of_edited_schema_reuses_untouched_rules() {
        let v1 = BonxaiSchema::parse(BONXAI).unwrap();
        // Same schema with one content model edited (template now needs
        // at least one section): only that rule's machinery rebuilds.
        let v2 = BonxaiSchema::parse(&BONXAI.replace(
            "template = { (element section)? }",
            "template = { (element section)+ }",
        ))
        .unwrap();
        let mut session = SchemaCompiler::new();
        let _ = session.compile(&v1.bxsd);
        let cold = session.last_stats();
        let _ = session.compile(&v2.bxsd);
        let warm = session.last_stats();
        assert!(
            warm.hits() > warm.misses(),
            "edited recompile should mostly reuse: {warm:?} after {cold:?}"
        );
        // The one edited content model (and the changed ancestor set's
        // product) is rebuilt, nothing more at the content level.
        assert_eq!(warm.content.misses, 1, "{warm:?}");
        let compiled = session.compile(&v2.bxsd);
        assert_eq!(session.last_stats().misses(), 0);
        // The session-compiled validator behaves like a fresh one.
        for doc in &docs() {
            assert_eq!(
                compiled.validate(doc).is_valid(),
                crate::validate::is_valid(&v2.bxsd, doc)
            );
        }
    }

    #[test]
    fn schema_cache_stats_are_those_of_a_session_compile() {
        let figure5 = include_str!("../../../data/figure5.bonxai");
        let schema = BonxaiSchema::parse(figure5).unwrap();
        let mut session = SchemaCompiler::new();
        let _ = session.compile(&schema.bxsd);
        let want = session.last_stats();
        assert_eq!(want.misses(), 14 + 1 + 9, "{want:?}");
        assert_eq!(schema.compiled().cache_stats(), want);
        assert_eq!(schema.compiled().cache_stats(), want);
        let clone = schema.clone();
        assert_eq!(clone.compiled().cache_stats(), want);
        // A clone taken before the first compile builds its own automata,
        // with the same counters.
        let cold = BonxaiSchema::parse(figure5).unwrap();
        let cold_clone = cold.clone();
        assert_eq!(cold.compiled().cache_stats(), want);
        assert_eq!(cold_clone.compiled().cache_stats(), want);
    }

    #[test]
    fn surface_roundtrip_preserves_language() {
        let schema = BonxaiSchema::parse(BONXAI).unwrap();
        let back = bxsd_surface_roundtrip(&schema.bxsd).unwrap();
        for doc in &docs() {
            assert_eq!(
                crate::validate::is_valid(&schema.bxsd, doc),
                crate::validate::is_valid(&back, doc)
            );
        }
    }
}
