//! [`BonxaiSchema`]: the user-facing schema object tying together the
//! surface syntax, the formal core, and integrity constraints.

use std::sync::{Arc, OnceLock};

use xmltree::Document;
use xsd::violation::Violation;

use crate::bxsd::Bxsd;
use crate::constraints::ConstraintViolation;
use crate::lang::{self, LangError, SchemaAst};
use crate::validate::{Automata, BxsdReport, CompiledBxsd, ValidateOptions};

/// A complete BonXai schema: parsed surface form plus its lowered core.
///
/// The schema is compiled on first use: the first [`Self::validate`],
/// [`Self::validate_with`], [`Self::is_valid`] or [`Self::compiled`] call
/// builds the automata (ancestor DFAs, content matchers, and the
/// relevance product under [`crate::DEFAULT_PRODUCT_BUDGET`]), and every
/// later call, from any thread, reuses them. Constructing a schema
/// compiles nothing. `Clone` shares the automata.
///
/// The fields are public for reading; treat them as read-only after
/// construction, since the cached automata were built from them.
///
/// ```
/// use bonxai_core::BonxaiSchema;
/// let schema = BonxaiSchema::parse(r#"
///     global { note }
///     grammar {
///       note = { element to, element body }
///       to   = { type xs:string }
///       body = mixed { }
///     }
/// "#).unwrap();
/// let doc = xmltree::parse_document("<note><to>Ada</to><body>hi</body></note>").unwrap();
/// assert!(schema.validate(&doc).is_valid());
/// ```
#[derive(Clone, Debug)]
pub struct BonxaiSchema {
    /// The surface AST (groups, namespaces, constraints, rule order).
    pub ast: SchemaAst,
    /// The lowered formal core.
    pub bxsd: Bxsd,
    /// For each BXSD rule, the source rule index in `ast.rules`.
    pub rule_source: Vec<usize>,
    /// The automata of `bxsd`, built by the first [`Self::compiled`].
    automata: OnceLock<Arc<Automata>>,
}

/// A full validation report: structural violations plus constraint
/// violations.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// The structural (rule-based) report, with matched-rule info.
    pub structure: BxsdReport,
    /// Integrity-constraint violations.
    pub constraints: Vec<ConstraintViolation>,
}

impl ValidationReport {
    /// Whether the document conforms (structure and constraints).
    pub fn is_valid(&self) -> bool {
        self.structure.is_valid() && self.constraints.is_empty()
    }

    /// All structural violations.
    pub fn violations(&self) -> &[Violation] {
        &self.structure.violations
    }
}

impl BonxaiSchema {
    /// Parses and lowers a schema from BonXai compact syntax.
    pub fn parse(source: &str) -> Result<BonxaiSchema, LangError> {
        let ast = lang::parse_schema(source)?;
        Self::from_ast(ast)
    }

    /// Builds a schema from an already-parsed AST.
    pub fn from_ast(ast: SchemaAst) -> Result<BonxaiSchema, LangError> {
        let lowered = lang::lower(&ast)?;
        Ok(BonxaiSchema {
            ast,
            bxsd: lowered.bxsd,
            rule_source: lowered.rule_source,
            automata: OnceLock::new(),
        })
    }

    /// Builds a schema object from a formal BXSD (lifting it to surface
    /// syntax for display).
    pub fn from_bxsd(bxsd: Bxsd) -> BonxaiSchema {
        let ast = lang::lift(&bxsd);
        let rule_source = (0..bxsd.n_rules()).collect();
        BonxaiSchema {
            ast,
            bxsd,
            rule_source,
            automata: OnceLock::new(),
        }
    }

    /// The compiled schema, with the default product budget and the same
    /// transparent lock-step fallback as [`CompiledBxsd::new`]. The
    /// automata are built on the first call and shared by every later
    /// one; each call costs one `Arc` clone.
    pub fn compiled(&self) -> CompiledBxsd<'_> {
        let automata = self
            .automata
            .get_or_init(|| CompiledBxsd::new(&self.bxsd).automata);
        debug_assert_eq!(
            automata.content_matchers.len(),
            self.bxsd.n_rules(),
            "BonxaiSchema::bxsd changed after its automata were built"
        );
        CompiledBxsd {
            bxsd: &self.bxsd,
            automata: Arc::clone(automata),
        }
    }

    /// Validates a document: rule structure + integrity constraints.
    pub fn validate(&self, doc: &Document) -> ValidationReport {
        self.validate_with(doc, ValidateOptions::default())
    }

    /// Validates a document with explicit [`ValidateOptions`] (e.g. to
    /// record per-node rule matches for highlighting).
    pub fn validate_with(&self, doc: &Document, opts: ValidateOptions) -> ValidationReport {
        let structure = self.compiled().validate_with(doc, opts);
        let constraints =
            crate::constraints::check_constraints(&self.ast.constraints, &self.bxsd.ename, doc);
        ValidationReport {
            structure,
            constraints,
        }
    }

    /// Whether `doc` conforms to the schema.
    pub fn is_valid(&self, doc: &Document) -> bool {
        self.validate(doc).is_valid()
    }

    /// Renders the schema in BonXai compact syntax.
    pub fn to_source(&self) -> String {
        let names: Vec<String> = self
            .bxsd
            .ename
            .entries()
            .map(|(_, n)| n.to_owned())
            .collect();
        lang::print_schema(&self.ast, &names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::parse_document;

    const SCHEMA: &str = r#"
        global { library }
        grammar {
          library = { (element book)* }
          book = { attribute id, element title, (element author)+ }
          title = mixed { }
          author = mixed { }
          @id = { type xs:NMTOKEN }
        }
        constraints {
          key bookKey = //book { @id }
        }
    "#;

    #[test]
    fn parse_validate_roundtrip() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let good = parse_document(
            r#"<library>
                 <book id="b1"><title>T</title><author>A</author></book>
                 <book id="b2"><title>U</title><author>B</author><author>C</author></book>
               </library>"#,
        )
        .unwrap();
        let r = schema.validate(&good);
        assert!(
            r.is_valid(),
            "{:?} {:?}",
            r.structure.violations,
            r.constraints
        );
    }

    #[test]
    fn constraint_violations_reported() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let dup = parse_document(
            r#"<library>
                 <book id="b1"><title>T</title><author>A</author></book>
                 <book id="b1"><title>U</title><author>B</author></book>
               </library>"#,
        )
        .unwrap();
        let r = schema.validate(&dup);
        assert!(r.structure.is_valid());
        assert!(!r.is_valid());
        assert_eq!(r.constraints.len(), 1);
    }

    #[test]
    fn to_source_reparses() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let printed = schema.to_source();
        let again = BonxaiSchema::parse(&printed).unwrap();
        let doc = parse_document(
            r#"<library><book id="x"><title>T</title><author>A</author></book></library>"#,
        )
        .unwrap();
        assert_eq!(schema.is_valid(&doc), again.is_valid(&doc));
    }

    // The compiled schema is shared across threads.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<BonxaiSchema>();
        send_sync::<CompiledBxsd<'static>>();
    };

    const ALL_OPTS: [ValidateOptions; 4] = [
        ValidateOptions {
            record_matches: false,
            force_lockstep: false,
        },
        ValidateOptions {
            record_matches: true,
            force_lockstep: false,
        },
        ValidateOptions {
            record_matches: false,
            force_lockstep: true,
        },
        ValidateOptions {
            record_matches: true,
            force_lockstep: true,
        },
    ];

    /// The report of a fresh compile and constraint pass, bypassing the
    /// schema's cached automata.
    fn fresh(schema: &BonxaiSchema, doc: &Document, opts: ValidateOptions) -> ValidationReport {
        ValidationReport {
            structure: CompiledBxsd::new(&schema.bxsd).validate_with(doc, opts),
            constraints: crate::constraints::check_constraints(
                &schema.ast.constraints,
                &schema.bxsd.ename,
                doc,
            ),
        }
    }

    fn assert_same(got: &ValidationReport, want: &ValidationReport) {
        assert_eq!(got.structure.violations, want.structure.violations);
        assert_eq!(got.structure.matches, want.structure.matches);
        assert_eq!(got.constraints, want.constraints);
    }

    /// The facade's report under `opts` equals a fresh run's.
    fn assert_fresh(schema: &BonxaiSchema, doc: &Document, opts: ValidateOptions) {
        assert_same(&schema.validate_with(doc, opts), &fresh(schema, doc, opts));
    }

    /// Structurally and constraint-invalid at once.
    fn broken_library() -> Document {
        parse_document(
            r#"<library>
                 <book id="b1"><title>T</title><author>A</author></book>
                 <book id="b1"><title>U</title></book>
                 <book id="b2"><title>V</title><author>B</author></book>
               </library>"#,
        )
        .unwrap()
    }

    #[test]
    fn first_use_race_compiles_once_and_matches_fresh_runs() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let doc = broken_library();
        let start = std::sync::Barrier::new(2);
        let compiled = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let compiled = schema.compiled();
                        let report = schema.validate(&doc);
                        (compiled.automata, report)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(Arc::ptr_eq(&compiled[0].0, &compiled[1].0));
        let want = fresh(&schema, &doc, ValidateOptions::default());
        assert!(!want.structure.is_valid());
        assert_eq!(want.constraints.len(), 1);
        for (_, report) in &compiled {
            assert_same(report, &want);
        }
    }

    #[test]
    fn options_vary_per_call_over_one_build() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let doc = broken_library();
        let first = schema.compiled().automata;
        for opts in ALL_OPTS.iter().chain(ALL_OPTS.iter().rev()) {
            assert_fresh(&schema, &doc, *opts);
            assert!(!schema.is_valid(&doc));
        }
        assert!(Arc::ptr_eq(&first, &schema.compiled().automata));
    }

    #[test]
    fn clones_share_the_build_and_validate_identically() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let doc = broken_library();
        let cold = schema.clone();
        let _ = schema.validate(&doc);
        let warm = schema.clone();
        assert!(Arc::ptr_eq(
            &schema.compiled().automata,
            &warm.compiled().automata
        ));
        assert!(!Arc::ptr_eq(
            &schema.compiled().automata,
            &cold.compiled().automata
        ));
        for opts in ALL_OPTS {
            assert_fresh(&warm, &doc, opts);
            assert_fresh(&cold, &doc, opts);
        }
    }

    /// Rule `k` governs elements whose `k`-th-last ancestor is `a`, so the
    /// relevance product tracks the last 15 ancestors' names: 2^15 states,
    /// past the default budget.
    fn over_budget_schema() -> BonxaiSchema {
        use relang::Regex;
        use xsd::ContentModel;
        let mut b = crate::bxsd::BxsdBuilder::new();
        b.start("a");
        let (a, bb) = (b.ename.intern("a"), b.ename.intern("b"));
        let any = Regex::sym_set([a, bb]);
        for k in 0..15 {
            let mut parts = vec![b.any_chain(), Regex::sym(a)];
            parts.extend((0..k).map(|_| any.clone()));
            let content = if k % 2 == 0 {
                Regex::star(any.clone())
            } else {
                Regex::star(Regex::sym(a))
            };
            b.rule(Regex::concat(parts), ContentModel::new(content));
        }
        BonxaiSchema::from_bxsd(b.build().unwrap())
    }

    #[test]
    fn over_budget_schema_falls_back_to_lockstep() {
        let schema = over_budget_schema();
        assert_eq!(schema.compiled().product_states(), None);
        // A pseudo-random a/b tree, 18 levels deep.
        let mut xml = String::new();
        let mut seed = 7u32;
        fn grow(xml: &mut String, seed: &mut u32, depth: u32) {
            *seed = seed.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let name = if depth == 0 || *seed >> 16 & 3 != 0 {
                "a"
            } else {
                "b"
            };
            xml.push_str(&format!("<{name}>"));
            let kids = if depth < 18 { 1 + (*seed >> 20 & 1) } else { 0 };
            for _ in 0..kids {
                grow(xml, seed, depth + 1);
            }
            xml.push_str(&format!("</{name}>"));
        }
        grow(&mut xml, &mut seed, 0);
        let doc = parse_document(&xml).unwrap();
        assert!(!schema.is_valid(&doc));
        for opts in ALL_OPTS {
            assert_fresh(&schema, &doc, opts);
        }
    }

    #[test]
    fn structural_error_beats_constraints() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let bad = parse_document(r#"<library><book id="b"/></library>"#).unwrap();
        let r = schema.validate(&bad);
        assert!(!r.structure.is_valid());
    }
}
