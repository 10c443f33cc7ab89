//! Minimized reproducers for the bugs the fuzz/differential harness
//! found, checked in as regression tests. Each case names the failure
//! it used to trigger; if one regresses, the assertion message points
//! straight at the reintroduced bug.

use bonxai::core::{conformance, BonxaiSchema};
use bonxai::xmltree::dtd::parse_dtd;

/// A self-referential parameter entity used to recurse until the stack
/// overflowed — an abort, not even a catchable panic. It must come back
/// as a positioned parse error naming the cycle.
#[test]
fn dtd_recursive_parameter_entity_is_an_error() {
    let err = parse_dtd("<!ENTITY % a \"%a;\"> %a;").expect_err("must not hang or crash");
    assert!(
        err.to_string().contains("recursively"),
        "want a recursion diagnostic, got: {err}"
    );
}

/// The two-entity cycle caught the same way (the cycle check must track
/// the whole expansion stack, not just the immediate name).
#[test]
fn dtd_mutually_recursive_parameter_entities_are_an_error() {
    let err = parse_dtd("<!ENTITY % a \"%b;\"> <!ENTITY % b \"%a;\"> %a;")
        .expect_err("must not hang or crash");
    assert!(
        err.to_string().contains("recursively"),
        "want a recursion diagnostic, got: {err}"
    );
}

/// Non-cyclic but absurdly deep entity chains are cut off by a depth
/// cap rather than by the process stack.
#[test]
fn dtd_deep_parameter_entity_chain_is_bounded() {
    let mut dtd = String::new();
    dtd.push_str("<!ENTITY % e0 \"<!ELEMENT x EMPTY>\">");
    for i in 1..=40 {
        dtd.push_str(&format!("<!ENTITY % e{i} \"%e{};\">", i - 1));
    }
    dtd.push_str("%e40;");
    let err = parse_dtd(&dtd).expect_err("must hit the depth cap");
    assert!(
        err.to_string().contains("nested more than"),
        "want a depth diagnostic, got: {err}"
    );
}

/// Deeply nested parentheses in a content model recursed once per `(`
/// and overflowed the stack. Both the group and choice forms.
#[test]
fn dtd_deeply_nested_content_model_is_an_error() {
    for open in ["(", "(b|"] {
        let input = format!(
            "<!ELEMENT a {}b{}>",
            open.repeat(100_000),
            ")".repeat(100_000)
        );
        let err = parse_dtd(&input).expect_err("must not overflow the stack");
        assert!(
            err.to_string().contains("parentheses"),
            "want a nesting diagnostic, got: {err}"
        );
    }
    // Well under the cap still parses.
    let fine = format!("<!ELEMENT a {}b{}>", "(".repeat(100), ")".repeat(100));
    parse_dtd(&fine).expect("shallow nesting is fine");
}

/// `xs:pattern` (and any other unsupported facet) inside a
/// simpleContent restriction was silently dropped: the schema was
/// accepted but enforced strictly less than it declared. It must be
/// rejected, exactly as the same facet already was in `xs:simpleType`.
#[test]
fn unsupported_facet_in_simple_content_is_rejected() {
    let xsd = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:simpleContent>
      <xs:restriction base="xs:string">
        <xs:pattern value="[a-z]+"/>
      </xs:restriction>
    </xs:simpleContent>
  </xs:complexType>
</xs:schema>"#;
    let err = bonxai::xsd::parse_xsd(xsd).expect_err("pattern must not be silently dropped");
    assert!(
        err.to_string().contains("pattern"),
        "want the facet named, got: {err}"
    );
}

/// `str::parse::<f64>` accepts Rust float spellings (`inf`, `Infinity`,
/// `nan`) that are not in the `xs:double` lexical space; documents
/// carrying them validated as correct. Checked end to end across every
/// path so the fix can never drift between oracle and fast validators.
#[test]
fn double_rust_spellings_are_invalid_everywhere() {
    let schema = BonxaiSchema::parse("global { m } grammar { m = { type xs:double } }").unwrap();
    for (value, expect_valid) in [
        ("INF", true),
        ("-INF", true),
        ("NaN", true),
        ("1.5e10", true),
        (" 2.5 ", true),
        ("inf", false),
        ("Infinity", false),
        ("-Infinity", false),
        ("nan", false),
        ("+INF", false),
    ] {
        let outcome = conformance::check(&schema.bxsd, &format!("<m>{value}</m>"), true);
        assert!(outcome.divergences.is_empty(), "{value}: paths disagree");
        assert_eq!(
            outcome.verdict(),
            Some(expect_valid),
            "<m>{value}</m> should be {}",
            if expect_valid { "valid" } else { "invalid" }
        );
    }
}

/// Booleans (whiteSpace=collapse) rejected padded values the XML
/// ecosystem routinely produces; dates and times had the same gap.
#[test]
fn collapsed_whitespace_is_accepted_everywhere() {
    let schema = BonxaiSchema::parse(
        "global { r } grammar {
           r = { attribute on, element when }
           when = { type xs:dateTime }
           @on = { type xs:boolean }
         }",
    )
    .unwrap();
    for (doc, expect_valid) in [
        (
            "<r on=\" true \"><when> 2026-08-08T12:30:00 </when></r>",
            true,
        ),
        ("<r on=\"false\"><when>2026-08-08T12:30:00</when></r>", true),
        (
            "<r on=\" tru e \"><when>2026-08-08T12:30:00</when></r>",
            false,
        ),
        (
            "<r on=\"true\"><when>2026-08-08T 12:30:00</when></r>",
            false,
        ),
    ] {
        let outcome = conformance::check(&schema.bxsd, doc, true);
        assert!(outcome.divergences.is_empty(), "{doc}: paths disagree");
        assert_eq!(outcome.verdict(), Some(expect_valid), "{doc}");
    }
}

/// Non-XML whitespace counted as whitespace: a no-break space between
/// the children of element-only content, or padding an integer, was
/// skipped like a blank, so both documents validated. XSD only treats
/// XML's `S` characters (#x20 #x9 #xD #xA) as whitespace, both for
/// Element Locally Valid (Complex Type) 2.3 and for the whiteSpace
/// facet. Checked on every path (oracle, tree and stream, both
/// engines, every lexer engine); the second document is also a
/// conformance case (`data/conformance/whitespace/`).
#[test]
fn non_xml_whitespace_is_text_everywhere() {
    let schema = BonxaiSchema::parse(
        "global { note } grammar { note = { element to } to = { type xs:integer } }",
    )
    .unwrap();
    for (doc, kind) in [
        ("<note>&#xA0;<to>5</to></note>", "UnexpectedText"),
        ("<note><to>&#xA0;5</to></note>", "InvalidTextValue"),
        ("<note>\u{2003}<to>5</to></note>", "UnexpectedText"),
        ("<note> \t\r\n<to>\n 5\t</to>\n</note>", ""),
    ] {
        let outcome = conformance::check(&schema.bxsd, doc, true);
        assert!(outcome.divergences.is_empty(), "{doc}: paths disagree");
        let report = outcome.oracle.expect("well-formed");
        let kinds: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("{:?}", v.kind))
            .collect();
        match kind {
            "" => assert!(kinds.is_empty(), "{doc}: {kinds:?}"),
            k => assert!(
                kinds.len() == 1 && kinds[0].starts_with(k),
                "{doc}: want one {k}, got {kinds:?}"
            ),
        }
    }
}

/// Bounded fuzz smoke: a fixed-seed slice of the full fuzz campaign
/// runs on every test invocation, so the harness itself (generators,
/// mutation, shrinking, panic capture) stays exercised and a freshly
/// introduced panic or divergence in the stack is caught in CI, not
/// just by whoever next runs `bonxai conform --fuzz`.
#[test]
fn fuzz_smoke_finds_nothing() {
    let validation = bonxai::gen::fuzz_validation(0xB0, 60);
    assert!(
        validation.findings.is_empty(),
        "validation fuzz found bugs: {:#?}",
        validation.findings
    );
    assert!(validation.iterations > 0);
    let dtd = bonxai::gen::fuzz_dtd(0xB0, 60);
    assert!(
        dtd.findings.is_empty(),
        "dtd fuzz found bugs: {:#?}",
        dtd.findings
    );
}
