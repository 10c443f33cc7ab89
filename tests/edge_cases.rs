//! Edge cases across the stack: counted ancestor patterns, wildcard and
//! anchored rules, XSD emission corner cases, deep documents, and
//! diagnostics quality.

use bonxai::core::translate::TranslateOptions;
use bonxai::core::{pipeline, BonxaiSchema, CompiledBxsd, ValidateOptions};
use bonxai::xmltree::{builder::elem, parse_document, XmlReader};

/// Section 3.1's counted ancestor pattern `(/a/a)*(@c|@d)` in spirit:
/// counters and anchoring in rule LHS.
#[test]
fn counted_and_anchored_ancestor_patterns() {
    let schema = BonxaiSchema::parse(
        r#"
        global { a }
        grammar {
          a = { (element a)? }
          /a/a/a = { }
        }
    "#,
    )
    .expect("parses");
    // chains of a's; depth exactly 3 must be a leaf
    let chain = |n: usize| {
        let mut b = elem("a");
        for _ in 1..n {
            b = elem("a").child(b);
        }
        // build outermost-in: reconstruct properly
        let mut builder = elem("a");
        let mut inner: Option<bonxai::xmltree::builder::ElementBuilder> = None;
        for _ in 1..n {
            inner = Some(match inner {
                None => elem("a"),
                Some(i) => elem("a").child(i),
            });
        }
        if let Some(i) = inner {
            builder = builder.child(i);
        }
        let _ = b;
        builder.build()
    };
    assert!(schema.is_valid(&chain(1)));
    assert!(schema.is_valid(&chain(2)));
    assert!(schema.is_valid(&chain(3))); // depth-3 leaf: the /a/a/a rule (ε)
    assert!(!schema.is_valid(&chain(4))); // depth-3 node has a child now
}

#[test]
fn repeat_operator_in_ancestor_pattern() {
    // sections at even depth (2 or 4) under pairs: (/s/s){1,2} anchored
    let schema = BonxaiSchema::parse(
        r#"
        global { s }
        grammar {
          s = { (element s)? }
          (/s/s){1,2} = { attribute even }
        }
    "#,
    )
    .expect("parses");
    let d1 = elem("s").build();
    let d2 = elem("s").child(elem("s").attr("even", "y")).build();
    let d2_missing = elem("s").child(elem("s")).build();
    assert!(schema.is_valid(&d1));
    assert!(
        schema.is_valid(&d2),
        "{:?}",
        schema.validate(&d2).structure.violations
    );
    assert!(!schema.is_valid(&d2_missing)); // depth-2 requires @even
}

#[test]
fn xsd_emission_rejects_empty_language_models() {
    use bonxai::core::bxsd::BxsdBuilder;
    use bonxai::xsd::ContentModel;
    use relang::Regex;
    let mut b = BxsdBuilder::new();
    b.start("a");
    b.suffix_rule(&["a"], ContentModel::new(Regex::Empty));
    let bxsd = b.build().expect("builds");
    let (x, _) = bonxai::core::translate::bxsd_to_xsd(
        &bxsd,
        &TranslateOptions {
            minimize: false,
            ..TranslateOptions::default()
        },
    );
    assert!(bonxai::xsd::emit_xsd(&x, None).is_err());
}

#[test]
fn deep_documents_validate_without_overflow() {
    let schema =
        BonxaiSchema::parse("global { a } grammar { a = { (element a)? } }").expect("parses");
    let mut doc = bonxai::xmltree::Document::new("a");
    let mut cur = doc.root();
    for _ in 0..5_000 {
        cur = doc.add_element(cur, "a");
    }
    assert!(schema.is_valid(&doc));
    // and through the pipeline
    let (x, _) = pipeline::bonxai_to_xsd(&schema, &TranslateOptions::default());
    assert!(bonxai::xsd::is_valid(&x, &doc));

    // The validator walk itself, 200k deep, through every entry point: the
    // arena replay under both engines, with and without match
    // recording, the stream, the incremental memo, and the facade (this
    // schema declares no identity constraints, which are still quadratic
    // in depth).
    let depth = 200_000;
    let text = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let mut deep = parse_document(&text).expect("deep chain parses");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let want = compiled.validate(&deep);
    assert!(want.is_valid(), "{:?}", want.violations);
    assert!(schema.is_valid(&deep));
    for force_lockstep in [false, true] {
        for record_matches in [false, true] {
            let opts = ValidateOptions {
                record_matches,
                force_lockstep,
            };
            let got = compiled.validate_with(&deep, opts);
            assert_eq!(got.violations, want.violations, "{opts:?}");
            assert_eq!(got.matches.len(), if record_matches { depth } else { 0 });
        }
    }
    let streamed = compiled
        .validate_stream_with(&mut XmlReader::from_str(&text), ValidateOptions::default())
        .expect("well-formed");
    assert_eq!(streamed.violations, want.violations);

    deep.enable_edit_log();
    let mut state = compiled.validate_persistent(&deep);
    assert_eq!(state.report().violations, want.violations);
    let leaf = deep.iter_elements().last().expect("non-empty");
    let from = state.generation();
    deep.add_element(leaf, "b");
    let edits = deep.edit_log().expect("enabled").since(from).to_vec();
    let got = compiled.revalidate(&deep, &mut state, &edits);
    let fresh = compiled.validate(&deep);
    assert!(!fresh.is_valid());
    assert_eq!(got.violations, fresh.violations);
    assert_eq!(state.last_passes(), 2, "the leaf and its new child");
}

#[test]
fn deep_document_parses_and_serializes() {
    let depth = 2_000;
    let mut text = String::new();
    for _ in 0..depth {
        text.push_str("<a>");
    }
    for _ in 0..depth {
        text.push_str("</a>");
    }
    let doc = parse_document(&text).expect("deep document parses");
    assert_eq!(doc.element_count(), depth);
    // serialize → reparse is the identity (the innermost element prints
    // self-closed, so lengths differ by design)
    let back = parse_document(&bonxai::xmltree::to_string(&doc)).expect("reparses");
    assert_eq!(back.element_count(), depth);
    assert_eq!(back.depth(), depth);
}

#[test]
fn diagnostics_name_the_failing_rule_context() {
    let schema = BonxaiSchema::parse(
        r#"
        global { r }
        grammar {
          r = { element x }
          x = { type xs:integer }
        }
    "#,
    )
    .expect("parses");
    let doc = parse_document("<r><x>not-a-number</x></r>").expect("parses");
    let report = schema.validate(&doc);
    let messages: Vec<String> = report
        .violations()
        .iter()
        .map(|v| v.kind.to_string())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("xs:integer")),
        "{messages:?}"
    );
}

#[test]
fn priority_within_equal_lhs_last_wins() {
    // two rules with identical LHS: the later one is relevant
    let schema = BonxaiSchema::parse(
        r#"
        global { a }
        grammar {
          a = { element b }
          a = { element c }
          b = { }
          c = { }
        }
    "#,
    )
    .expect("parses");
    assert!(!schema.is_valid(&elem("a").child(elem("b")).build()));
    assert!(schema.is_valid(&elem("a").child(elem("c")).build()));
}

#[test]
fn global_block_with_multiple_roots() {
    let schema = BonxaiSchema::parse(
        r#"
        global { memo, note }
        grammar {
          memo = mixed { }
          note = mixed { }
        }
    "#,
    )
    .expect("parses");
    assert!(schema.is_valid(&elem("memo").text("x").build()));
    assert!(schema.is_valid(&elem("note").text("y").build()));
    assert!(!schema.is_valid(&elem("letter").build()));
}

#[test]
fn xsd_counting_round_trips_through_min_max_occurs() {
    let schema = BonxaiSchema::parse(
        r#"
        global { r }
        grammar {
          r = { element item{2,5} }
          item = { }
        }
    "#,
    )
    .expect("parses");
    let (x, _) = pipeline::bonxai_to_xsd(&schema, &TranslateOptions::default());
    let text = bonxai::xsd::emit_xsd(&x, None).expect("emits");
    assert!(text.contains("minOccurs=\"2\""), "{text}");
    assert!(text.contains("maxOccurs=\"5\""), "{text}");
    let back = bonxai::xsd::parse_xsd(&text).expect("reparses");
    let mk = |n: usize| {
        let mut b = elem("r");
        for _ in 0..n {
            b = b.child(elem("item"));
        }
        b.build()
    };
    for n in 0..8 {
        let expected = (2..=5).contains(&n);
        assert_eq!(schema.is_valid(&mk(n)), expected, "n={n}");
        assert_eq!(bonxai::xsd::is_valid(&back, &mk(n)), expected, "n={n}");
    }
}

#[test]
fn interleave_round_trips_through_xs_all() {
    let schema = BonxaiSchema::parse(
        r#"
        global { r }
        grammar {
          r = { element a & element b? & element c }
          (a|b|c) = { }
        }
    "#,
    )
    .expect("parses");
    let (x, _) = pipeline::bonxai_to_xsd(&schema, &TranslateOptions::default());
    let text = bonxai::xsd::emit_xsd(&x, None).expect("emits");
    assert!(text.contains("xs:all"), "{text}");
    let back = bonxai::xsd::parse_xsd(&text).expect("reparses");
    for (children, ok) in [
        (vec!["a", "c"], true),
        (vec!["c", "a"], true),
        (vec!["b", "c", "a"], true),
        (vec!["a"], false),
        (vec!["a", "b", "b", "c"], false),
    ] {
        let mut b = elem("r");
        for c in &children {
            b = b.child(elem(c));
        }
        let d = b.build();
        assert_eq!(schema.is_valid(&d), ok, "{children:?}");
        assert_eq!(bonxai::xsd::is_valid(&back, &d), ok, "{children:?}");
    }
}

#[test]
fn doctype_public_id_and_multiple_comments() {
    let src = r#"<?xml version="1.0"?>
        <!-- one -->
        <!DOCTYPE r PUBLIC "-//X//DTD Y//EN" "http://x/y.dtd">
        <!-- two -->
        <r/>
        <!-- three -->"#;
    let parsed = bonxai::xmltree::parse(src).expect("parses");
    assert_eq!(parsed.doctype_name.as_deref(), Some("r"));
    assert!(parsed.internal_subset.is_none());
}

#[test]
fn attribute_value_escaping_round_trips_tabs_and_newlines() {
    let mut doc = bonxai::xmltree::Document::new("a");
    doc.set_attribute(doc.root(), "v", "line1\nline2\tend");
    let text = bonxai::xmltree::to_string(&doc);
    assert!(text.contains("&#10;"), "{text}");
    let back = parse_document(&text).expect("parses");
    assert_eq!(back.attribute(back.root(), "v"), Some("line1\nline2\tend"));
}
