//! Self-tests of the benchmark's inputs: generation is a function of the
//! seed, and every answer the benchmark checks against agrees with the
//! reference interpreter (`core::oracle`) on a scaled-down instance.

use std::collections::BTreeMap;

use bonxai_core::constraints::ConstraintViolation;
use bonxai_core::{oracle, BonxaiSchema};
use bonxai_perfbench::codec::{self, apply, resolve, Effect, Expected};
use bonxai_perfbench::gen::{self, reference_tree, Scale, FIGURE5, WORKLOADS};
use xmltree::{Document, NodeId};

fn inputs(workload: &str, seed: u64) -> gen::Inputs {
    gen::generate(workload, seed, &Scale::tiny()).expect("known workload")
}

fn expected(files: &gen::Inputs) -> Vec<Expected> {
    codec::decode_expected(&files["expected.txt"]).expect("expected.txt parses")
}

#[test]
fn same_seed_gives_identical_inputs() {
    for w in WORKLOADS {
        assert_eq!(inputs(w, 7), inputs(w, 7), "{w}");
        assert_ne!(inputs(w, 7), inputs(w, 8), "{w}: the seed must matter");
    }
}

#[test]
fn file_formats_round_trip() {
    for w in WORKLOADS {
        let files = inputs(w, 3);
        assert_eq!(
            codec::encode_expected(&expected(&files)),
            files["expected.txt"]
        );
    }
    let files = inputs("edit_session", 3);
    let script = codec::decode_script(&files["edits.txt"]).expect("edits.txt parses");
    assert_eq!(codec::encode_script(&script), files["edits.txt"]);
}

/// The oracle's structural report on the reference lexer's tree.
fn oracle_report(schema: &BonxaiSchema, text: &str) -> (Document, Vec<xsd::violation::Violation>) {
    let doc = reference_tree(text).expect("well-formed");
    let report = oracle::validate(&schema.bxsd, &doc);
    (doc, report.violations)
}

#[test]
fn small_docs_answers_match_the_oracle() {
    let files = inputs("small_docs", 5);
    let schema = BonxaiSchema::parse(&files["schema.bonxai"]).expect("schema");
    let exp = expected(&files);
    assert!(exp.iter().any(|e| !e.violations.is_empty()));
    for e in &exp {
        let (doc, violations) = oracle_report(&schema, &files[&e.file]);
        assert_eq!(e.violations, violations, "{}", e.file);
        assert_eq!(e.elements, doc.element_count(), "{}", e.file);
        assert!(e.constraints.is_empty());
    }
}

/// `key styleKey = //userstyles/style { @name }` and
/// `keyref //content//style { @name } references styleKey`, evaluated
/// naively over the tree.
fn naive_style_constraints(doc: &Document) -> Vec<String> {
    let has_ancestor = |mut n: NodeId, name: &str| {
        while let Some(p) = doc.parent(n) {
            if doc.name(p) == Some(name) {
                return true;
            }
            n = p;
        }
        false
    };
    let styles: Vec<NodeId> = doc
        .iter_elements()
        .filter(|&n| doc.name(n) == Some("style"))
        .collect();
    let mut keys: BTreeMap<String, NodeId> = BTreeMap::new();
    let mut out = Vec::new();
    for &s in &styles {
        let parent = doc.parent(s).and_then(|p| doc.name(p));
        if parent != Some("userstyles") {
            continue;
        }
        let name = doc
            .attribute(s, "name")
            .expect("user styles are named")
            .to_owned();
        if let Some(&first) = keys.get(&name) {
            out.push(ConstraintViolation::Duplicate {
                constraint: "styleKey".into(),
                tuple: vec![name],
                nodes: (first, s),
            });
        } else {
            keys.insert(name, s);
        }
    }
    for &s in &styles {
        match doc.attribute(s, "name") {
            Some(name) if has_ancestor(s, "content") && !keys.contains_key(name) => {
                out.push(ConstraintViolation::DanglingRef {
                    constraint: "constraint #1".into(),
                    tuple: vec![name.to_owned()],
                    node: s,
                })
            }
            _ => {}
        }
    }
    let mut keys: Vec<String> = out.iter().map(codec::encode_constraint).collect();
    keys.sort();
    keys
}

#[test]
fn large_document_answers_match_the_oracle() {
    let tree = inputs("large_tree", 11);
    let stream = inputs("large_stream", 11);
    assert_eq!(
        tree["doc.xml"], stream["doc.xml"],
        "one document, two paths"
    );
    assert_eq!(stream["schema.bonxai"], FIGURE5);

    let schema = BonxaiSchema::parse(&tree["schema.bonxai"]).expect("keyed schema");
    assert_eq!(schema.ast.constraints.len(), 2);
    let (doc, violations) = oracle_report(&schema, &tree["doc.xml"]);
    let [keyed] = expected(&tree).try_into().expect("one document");
    let [plain] = expected(&stream).try_into().expect("one document");
    assert_eq!(keyed.violations.len(), Scale::tiny().large.planted);
    assert_eq!(keyed.violations, violations);
    assert_eq!(plain.violations, violations);
    assert_eq!(keyed.elements, doc.element_count());
    assert!(plain.constraints.is_empty());

    let mut want: Vec<String> = keyed
        .constraints
        .iter()
        .map(codec::encode_constraint)
        .collect();
    want.sort();
    let cfg = Scale::tiny().large;
    assert_eq!(want.len(), cfg.dup_keys + cfg.dangling);
    assert_eq!(want, naive_style_constraints(&doc));
}

#[test]
fn edit_script_effects_match_the_oracle() {
    let files = inputs("edit_session", 13);
    let schema = BonxaiSchema::parse(&files["schema.bonxai"]).expect("schema");
    let [exp] = expected(&files).try_into().expect("one document");
    let (mut doc, violations) = oracle_report(&schema, &files["doc.xml"]);
    assert_eq!(exp.violations, violations);
    let mut open: BTreeMap<NodeId, _> = violations.into_iter().map(|v| (v.node, v.kind)).collect();

    let script = codec::decode_script(&files["edits.txt"]).expect("edits.txt parses");
    let mut handles = Vec::new();
    let (mut opened, mut closed) = (0, 0);
    // Two cycles: the script must return the document to a state from
    // which it replays.
    for edit in script.iter().chain(&script) {
        apply(&mut doc, &mut handles, &edit.op);
        match &edit.effect {
            Effect::Same => {}
            Effect::Open(t, kind) => {
                opened += 1;
                open.insert(resolve(*t, &handles), kind.clone());
            }
            Effect::Close(t) => {
                closed += 1;
                open.remove(&resolve(*t, &handles));
            }
        }
        let got: Vec<_> = oracle::validate(&schema.bxsd, &doc)
            .violations
            .into_iter()
            .map(|v| (v.node, v.kind))
            .collect();
        let want: Vec<_> = open.iter().map(|(n, k)| (*n, k.clone())).collect();
        assert_eq!(got, want, "after {:?}", edit.op);
    }
    assert_eq!(opened, closed, "every flip is repaired");
    assert_eq!(open.len(), exp.violations.len());
}
