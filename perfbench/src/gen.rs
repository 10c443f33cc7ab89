//! Seeded workload inputs: the files the measured process loads, and the
//! answers a correct validator must give on them.
//!
//! Answers come from outside the code under test. `sample_document`
//! only samples conforming documents, so those are valid by
//! construction; the corrupted ones are checked by `core::oracle` on a
//! tree folded from the reference lexer (`xmltree::reference`). The
//! large documents are written by an id-tracking writer that plants
//! violations at known nodes, so their report is known by construction.
//! The self-tests confirm every by-construction answer with the oracle
//! on a scaled-down instance.

use std::collections::{BTreeMap, BTreeSet};

use bonxai_core::constraints::ConstraintViolation;
use bonxai_core::translate::bxsd_to_dfa_xsd;
use bonxai_core::BonxaiSchema;
use bonxai_gen::{mutate_document, sample_document, DocConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmltree::{Document, NodeId, XmlEvent};
use xsd::violation::{Violation, ViolationKind};

use crate::codec::{encode_expected, encode_script, EditOp, Effect, Expected, ScriptEdit, Target};

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["small_docs", "large_tree", "large_stream", "edit_session"];

/// The schema of the paper's Figure 5.
pub const FIGURE5: &str = include_str!("../schemas/figure5.bonxai");

/// Identity constraints added to Figure 5 for `large_tree`.
pub const STYLE_CONSTRAINTS: &str = "constraints {\n\
    \x20 key styleKey = //userstyles/style { @name }\n\
    \x20 keyref //content//style { @name } references styleKey\n\
    }\n";

/// Label `check_constraints` gives the unnamed keyref (its index).
const KEYREF_LABEL: &str = "constraint #1";

/// Shape of a generated large document.
#[derive(Clone, Copy, Debug)]
pub struct LargeCfg {
    /// Top-level `content/section` subtrees (5–6 elements each).
    pub chunks: usize,
    /// Deep `section` chains under `content`.
    pub chains: usize,
    /// Depth of each chain.
    pub chain_depth: usize,
    /// `userstyles/style` elements, each a distinct `styleKey`.
    pub keys: usize,
    /// `content//style` elements naming a key.
    pub refs: usize,
    /// Of `refs`, how many name no key.
    pub dangling: usize,
    /// Extra `userstyles/style` elements repeating an earlier name.
    pub dup_keys: usize,
    /// Chunks carrying one planted structural violation.
    pub planted: usize,
    /// Give each `userstyles/style` a whitespace text child (targets for
    /// text edits that flip validity).
    pub ws_styles: bool,
}

/// Input sizes for all workloads.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Documents in the `small_docs` corpus.
    pub small_docs: usize,
    /// The `large_tree` / `large_stream` document.
    pub large: LargeCfg,
    /// The `edit_session` document.
    pub edit: LargeCfg,
    /// Edits per cycle of the `edit_session` script.
    pub script_len: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            small_docs: 352,
            large: LargeCfg {
                chunks: 117_000,
                chains: 4,
                chain_depth: 2_500,
                keys: 1_000,
                refs: 1_000,
                dangling: 24,
                dup_keys: 16,
                planted: 64,
                ws_styles: false,
            },
            edit: LargeCfg {
                chunks: 20_000,
                chains: 0,
                chain_depth: 0,
                keys: 400,
                refs: 0,
                dangling: 0,
                dup_keys: 0,
                planted: 300,
                ws_styles: true,
            },
            script_len: 4_000,
        }
    }

    /// A scaled-down instance for the self-tests (small enough for the
    /// recursive oracle and a naive constraint check).
    pub fn tiny() -> Scale {
        Scale {
            small_docs: 24,
            large: LargeCfg {
                chunks: 300,
                chains: 2,
                chain_depth: 40,
                keys: 30,
                refs: 40,
                dangling: 5,
                dup_keys: 4,
                planted: 24,
                ws_styles: false,
            },
            edit: LargeCfg {
                chunks: 40,
                chains: 0,
                chain_depth: 0,
                keys: 20,
                refs: 0,
                dangling: 0,
                dup_keys: 0,
                planted: 12,
                ws_styles: true,
            },
            script_len: 150,
        }
    }
}

/// The generated files of one workload, by file name.
pub type Inputs = BTreeMap<String, String>;

/// Generates the input files of `workload` for `seed`. The same
/// arguments always give byte-identical files.
pub fn generate(workload: &str, seed: u64, scale: &Scale) -> Result<Inputs, String> {
    let mut files = Inputs::new();
    match workload {
        "small_docs" => {
            files.insert("schema.bonxai".into(), FIGURE5.into());
            let mut expected = Vec::new();
            for (i, (text, exp)) in small_docs(seed, scale.small_docs).into_iter().enumerate() {
                let file = format!("doc_{i:04}.xml");
                expected.push(Expected {
                    file: file.clone(),
                    ..exp
                });
                files.insert(file, text);
            }
            files.insert("expected.txt".into(), encode_expected(&expected));
        }
        "large_tree" | "large_stream" => {
            let doc = large_doc(&scale.large, &mut StdRng::seed_from_u64(seed));
            let keyed = workload == "large_tree";
            let schema = if keyed {
                format!("{FIGURE5}{STYLE_CONSTRAINTS}")
            } else {
                FIGURE5.to_owned()
            };
            let expected = Expected {
                file: "doc.xml".into(),
                elements: doc.elements,
                violations: doc.violations,
                constraints: if keyed { doc.constraints } else { Vec::new() },
            };
            files.insert("schema.bonxai".into(), schema);
            files.insert("doc.xml".into(), doc.xml);
            files.insert("expected.txt".into(), encode_expected(&[expected]));
        }
        "edit_session" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ed17);
            let doc = large_doc(&scale.edit, &mut rng);
            let script = edit_script(&doc, scale.script_len, &mut rng);
            let expected = Expected {
                file: "doc.xml".into(),
                elements: doc.elements,
                violations: doc.violations,
                constraints: Vec::new(),
            };
            files.insert("schema.bonxai".into(), FIGURE5.into());
            files.insert("doc.xml".into(), doc.xml);
            files.insert("expected.txt".into(), encode_expected(&[expected]));
            files.insert("edits.txt".into(), encode_script(&script));
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(files)
}

/// Builds a tree from the reference lexer's events, independently of
/// the production parser. Node ids follow event order, as the
/// production parser assigns them.
pub fn reference_tree(text: &str) -> Result<Document, String> {
    let mut reader = xmltree::reference::XmlReader::from_str(text);
    let mut doc: Option<Document> = None;
    let mut open: Vec<NodeId> = Vec::new();
    loop {
        match reader.next_event().map_err(|e| e.to_string())? {
            XmlEvent::StartElement {
                name, attributes, ..
            } => {
                let node = match (&mut doc, open.last()) {
                    (Some(d), Some(&parent)) => d.add_element(parent, &name),
                    (None, None) => {
                        doc = Some(Document::new(&name));
                        NodeId(0)
                    }
                    _ => return Err("element outside the root".into()),
                };
                let d = doc.as_mut().expect("set above");
                for a in &attributes {
                    d.set_attribute(node, &a.name, &a.value);
                }
                open.push(node);
            }
            XmlEvent::EndElement { .. } => {
                open.pop();
            }
            XmlEvent::Text { text, .. } => {
                let parent = *open.last().ok_or("text outside the root")?;
                doc.as_mut()
                    .expect("inside the root")
                    .add_text(parent, &text);
            }
            XmlEvent::EndDocument => break,
            XmlEvent::Doctype { .. } => {}
        }
    }
    doc.ok_or_else(|| "no root element".into())
}

/// Element-count ranges of the small documents, cycled in this order.
/// Sampled sizes are bimodal (half under 15 elements, a tenth at the
/// 500 cap); drawing each document from a fixed class keeps the mix, and
/// so the per-node cost, the same for every seed.
const SMALL_CLASSES: [(usize, usize); 8] = [
    (1, 20),
    (20, 300),
    (1, 20),
    (300, usize::MAX),
    (1, 20),
    (20, 300),
    (1, 20),
    (20, 300),
];

/// `count` Figure-5 documents (~40k elements for 352); one in 8 is
/// corrupted by `mutate_document` and gets its oracle report, the others
/// are valid by construction.
fn small_docs(seed: u64, count: usize) -> Vec<(String, Expected)> {
    let schema = BonxaiSchema::parse(FIGURE5).expect("figure 5 parses");
    let dfa = bxsd_to_dfa_xsd(&schema.bxsd);
    let cfg = DocConfig {
        max_nodes: 500,
        ..DocConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for i in 0..count {
        let (lo, hi) = SMALL_CLASSES[i % SMALL_CLASSES.len()];
        let sampled = loop {
            let doc = sample_document(&dfa, &cfg, &mut rng).expect("figure 5 is satisfiable");
            if (lo..hi).contains(&doc.element_count()) {
                break doc;
            }
        };
        // The corrupted slot rotates through the classes.
        let (text, elements, violations) = if i % 8 == (i / 8) % 8 {
            let text = xmltree::to_string(&mutate_document(&sampled, &mut rng));
            let tree = reference_tree(&text).expect("serialized documents are well-formed");
            let report = bonxai_core::oracle::validate(&schema.bxsd, &tree);
            (text, tree.element_count(), report.violations)
        } else {
            (
                xmltree::to_string(&sampled),
                sampled.element_count(),
                Vec::new(),
            )
        };
        out.push((
            text,
            Expected {
                file: String::new(),
                elements,
                violations,
                constraints: Vec::new(),
            },
        ));
    }
    out
}

/// An XML writer that numbers nodes the way the parser will: one id per
/// element and per text node, in document order. Adjacent text runs
/// would merge into one node on parsing, so they are refused.
struct Writer {
    xml: String,
    next: usize,
    elements: usize,
    open: Vec<&'static str>,
    after_text: bool,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            xml: String::new(),
            next: 0,
            elements: 0,
            open: Vec::new(),
            after_text: false,
        }
    }

    fn tag(&mut self, name: &'static str, attrs: &[(&str, &str)], close: bool) -> usize {
        self.xml.push('<');
        self.xml.push_str(name);
        for (k, v) in attrs {
            self.xml.push_str(&format!(" {k}=\"{v}\""));
        }
        self.xml.push_str(if close { "/>" } else { ">" });
        if !close {
            self.open.push(name);
        }
        self.after_text = false;
        self.elements += 1;
        self.next += 1;
        self.next - 1
    }

    fn start(&mut self, name: &'static str, attrs: &[(&str, &str)]) -> usize {
        self.tag(name, attrs, false)
    }

    fn empty(&mut self, name: &'static str, attrs: &[(&str, &str)]) -> usize {
        self.tag(name, attrs, true)
    }

    fn end(&mut self) {
        let name = self.open.pop().expect("balanced writer calls");
        self.xml.push_str("</");
        self.xml.push_str(name);
        self.xml.push('>');
        self.after_text = false;
    }

    fn text(&mut self, s: &str) -> usize {
        assert!(
            !self.after_text && !s.is_empty(),
            "text runs must be separated"
        );
        self.xml.push_str(s);
        self.after_text = true;
        self.next += 1;
        self.next - 1
    }
}

/// A generated large document with its report known by construction.
pub struct LargeDoc {
    /// The serialized document.
    pub xml: String,
    /// Element count.
    pub elements: usize,
    /// Planted structural violations, in node order.
    pub violations: Vec<Violation>,
    /// Planted `styleKey` duplicates and dangling keyrefs.
    pub constraints: Vec<ConstraintViolation>,
    /// Top-level content sections that carry no planted violation (edit
    /// targets).
    pub clean_sections: Vec<usize>,
    /// The leading text node of each clean section (mixed content).
    pub mixed_texts: Vec<usize>,
    /// Whitespace text nodes under `userstyles/style`, with that style.
    pub ws_texts: Vec<(usize, usize)>,
}

const WORDS: [&str; 8] = [
    "lorem", "ipsum", "dolor", "sit", "amet", "schema", "rule", "path",
];

fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// `k` distinct indices below `n`, chosen by `rng`.
fn pick(rng: &mut StdRng, n: usize, k: usize) -> BTreeSet<usize> {
    assert!(k <= n, "cannot pick {k} of {n}");
    let mut set = BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(0..n));
    }
    set
}

/// Writes a wide Figure-5 document: a template, `keys` user styles,
/// then `chunks` content sections with deep chains interleaved. Planted
/// violations rotate over a missing `title`, an undeclared `lang`, and
/// a non-integer font `size`.
pub fn large_doc(cfg: &LargeCfg, rng: &mut StdRng) -> LargeDoc {
    let mut w = Writer::new();
    let mut violations = Vec::new();
    let mut constraints = Vec::new();
    let mut ws_texts = Vec::new();

    w.start("document", &[]);
    w.start("template", &[]);
    w.start("section", &[]);
    w.empty("titlefont", &[("size", "12")]);
    w.start("style", &[]);
    w.empty("font", &[("name", "serif"), ("size", "10")]);
    w.end();
    w.end();
    w.end();

    w.start("userstyles", &[]);
    let dups = pick(rng, cfg.keys, cfg.dup_keys);
    for j in 0..cfg.keys {
        let name = format!("k{j}");
        let first = style_key(&mut w, &name, cfg.ws_styles, &mut ws_texts, rng);
        if dups.contains(&j) {
            let second = style_key(&mut w, &name, cfg.ws_styles, &mut ws_texts, rng);
            constraints.push(ConstraintViolation::Duplicate {
                constraint: "styleKey".into(),
                tuple: vec![name],
                nodes: (NodeId(first), NodeId(second)),
            });
        }
    }
    w.end();

    w.start("content", &[]);
    let chains = pick(rng, cfg.chunks, cfg.chains);
    let planted = pick(rng, cfg.chunks, cfg.planted);
    let refs = pick(rng, cfg.chunks, cfg.refs);
    let dangling: BTreeSet<usize> = refs.iter().copied().take(cfg.dangling).collect();
    let mut clean_sections = Vec::new();
    let mut mixed_texts = Vec::new();
    for i in 0..cfg.chunks {
        if chains.contains(&i) {
            for _ in 0..cfg.chain_depth {
                w.start("section", &[("title", "d")]);
            }
            w.text("deep");
            for _ in 0..cfg.chain_depth {
                w.end();
            }
        }
        let plant = planted.contains(&i).then(|| planted.range(..i).count() % 3);
        let title = format!("c{i}");
        let top = match plant {
            Some(0) => w.start("section", &[]),
            Some(1) => w.start("section", &[("title", &title), ("lang", "en")]),
            _ => w.start("section", &[("title", &title)]),
        };
        match plant {
            Some(0) => violations.push(Violation {
                node: NodeId(top),
                kind: ViolationKind::MissingAttribute("title".into()),
            }),
            Some(1) => violations.push(Violation {
                node: NodeId(top),
                kind: ViolationKind::UndeclaredAttribute("lang".into()),
            }),
            _ => {}
        }
        let intro = w.text(&format!("{} {i} ", words(rng, 3)));
        if plant.is_none() {
            clean_sections.push(top);
            mixed_texts.push(intro);
        }
        let markup = if rng.gen_bool(0.5) { "bold" } else { "italic" };
        w.start(markup, &[]);
        w.text(&words(rng, 2));
        w.end();
        if refs.contains(&i) {
            let name = if dangling.contains(&i) {
                format!("gone{i}")
            } else {
                format!("k{}", rng.gen_range(0..cfg.keys))
            };
            let r = w.start("style", &[("name", &name)]);
            w.text("see");
            w.end();
            if dangling.contains(&i) {
                constraints.push(ConstraintViolation::DanglingRef {
                    constraint: KEYREF_LABEL.into(),
                    tuple: vec![name],
                    node: NodeId(r),
                });
            }
        }
        w.start("section", &[("title", "p")]);
        w.text(&words(rng, 6));
        let size = if plant == Some(2) {
            "big".to_owned()
        } else {
            rng.gen_range(8u32..24).to_string()
        };
        let font = w.start("font", &[("size", &size)]);
        if plant == Some(2) {
            violations.push(Violation {
                node: NodeId(font),
                kind: ViolationKind::InvalidAttributeValue {
                    attribute: "size".into(),
                    value: "big".into(),
                    expected: "xs:integer".into(),
                },
            });
        }
        w.text(&words(rng, 1));
        w.end();
        w.start("color", &[("color", "red")]);
        w.text(&words(rng, 1));
        w.end();
        w.end();
        w.text(" tail\n");
        w.end();
    }
    w.end();
    w.end();
    LargeDoc {
        xml: w.xml,
        elements: w.elements,
        violations,
        constraints,
        clean_sections,
        mixed_texts,
        ws_texts,
    }
}

fn style_key(
    w: &mut Writer,
    name: &str,
    ws: bool,
    ws_texts: &mut Vec<(usize, usize)>,
    rng: &mut StdRng,
) -> usize {
    let style = w.start("style", &[("name", name)]);
    if ws {
        ws_texts.push((w.text(" "), style));
    }
    if rng.gen_bool(0.5) {
        let size = rng.gen_range(8u32..24).to_string();
        w.empty("font", &[("size", &size)]);
    }
    w.end();
    style
}

/// Edit targets per kind, and the most inserted subtrees kept at once.
const FLIP_POOL: usize = 48;

/// State of an edit target.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Clean,
    NoTitle,
    Lang,
}

/// A seeded edit script over `doc`: attribute toggles, text edits and
/// subtree inserts/removes, some of which open a violation that a later
/// edit repairs. The script ends with every flip repaired and every
/// insert removed, so it can be replayed cyclically; each line carries
/// its effect on the report.
pub fn edit_script(doc: &LargeDoc, len: usize, rng: &mut StdRng) -> Vec<ScriptEdit> {
    // Small target pools keep the flips few and short-lived, so the open
    // violations stay near the planted standing set.
    let n = doc.clean_sections.len();
    let targets: Vec<usize> = pick(rng, n, FLIP_POOL.min(n))
        .into_iter()
        .map(|i| doc.clean_sections[i])
        .collect();
    let ws_texts: Vec<(usize, usize)> =
        pick(rng, doc.ws_texts.len(), FLIP_POOL.min(doc.ws_texts.len()))
            .into_iter()
            .map(|i| doc.ws_texts[i])
            .collect();
    let targets = &targets;
    let mut marks = vec![Mark::Clean; targets.len()];
    let mut ws_dirty = vec![false; ws_texts.len()];
    let mut inserted: Vec<(usize, bool)> = Vec::new();
    let mut next_handle = 0;
    let mut script = Vec::with_capacity(len + targets.len());

    let toggle = |t: usize, mark: Mark, want: Mark| -> (ScriptEdit, Mark) {
        let node = targets[t];
        let (op, effect, next) = match (mark, want) {
            (Mark::NoTitle, _) => (
                EditOp::SetAttr {
                    node,
                    name: "title".into(),
                    value: format!("r{node}"),
                },
                Effect::Close(Target::Node(node)),
                Mark::Clean,
            ),
            (Mark::Lang, _) => (
                EditOp::RemoveAttr {
                    node,
                    name: "lang".into(),
                },
                Effect::Close(Target::Node(node)),
                Mark::Clean,
            ),
            (Mark::Clean, Mark::NoTitle) => (
                EditOp::RemoveAttr {
                    node,
                    name: "title".into(),
                },
                Effect::Open(
                    Target::Node(node),
                    ViolationKind::MissingAttribute("title".into()),
                ),
                Mark::NoTitle,
            ),
            (Mark::Clean, _) => (
                EditOp::SetAttr {
                    node,
                    name: "lang".into(),
                    value: "en".into(),
                },
                Effect::Open(
                    Target::Node(node),
                    ViolationKind::UndeclaredAttribute("lang".into()),
                ),
                Mark::Lang,
            ),
        };
        (ScriptEdit { op, effect }, next)
    };
    let ws_flip = |x: usize, dirty: bool| -> ScriptEdit {
        let (node, style) = ws_texts[x];
        if dirty {
            ScriptEdit {
                op: EditOp::SetText {
                    node,
                    text: " ".into(),
                },
                effect: Effect::Close(Target::Node(style)),
            }
        } else {
            ScriptEdit {
                op: EditOp::SetText {
                    node,
                    text: "oops".into(),
                },
                effect: Effect::Open(
                    Target::Node(style),
                    ViolationKind::UnexpectedText("style".into()),
                ),
            }
        }
    };
    let remove = |(handle, valid): (usize, bool)| ScriptEdit {
        op: EditOp::Remove { handle },
        effect: if valid {
            Effect::Same
        } else {
            Effect::Close(Target::Handle(handle))
        },
    };

    for _ in 0..len {
        let roll = rng.gen_range(0..100);
        if roll < 45 {
            let t = rng.gen_range(0..targets.len());
            let want = if roll < 30 { Mark::NoTitle } else { Mark::Lang };
            let (edit, next) = toggle(t, marks[t], want);
            marks[t] = next;
            script.push(edit);
        } else if roll < 60 && !ws_texts.is_empty() {
            let x = rng.gen_range(0..ws_texts.len());
            script.push(ws_flip(x, ws_dirty[x]));
            ws_dirty[x] = !ws_dirty[x];
        } else if roll < 70 {
            let x = rng.gen_range(0..doc.mixed_texts.len());
            script.push(ScriptEdit {
                op: EditOp::SetText {
                    node: doc.mixed_texts[x],
                    text: format!("{} ", words(rng, 4)),
                },
                effect: Effect::Same,
            });
        } else if (roll < 85 || inserted.is_empty()) && inserted.len() < FLIP_POOL {
            let handle = next_handle;
            next_handle += 1;
            let valid = rng.gen_bool(0.5);
            script.push(ScriptEdit {
                op: EditOp::Insert {
                    handle,
                    parent: targets[rng.gen_range(0..targets.len())],
                    index: 0,
                    title: valid.then(|| format!("i{handle}")),
                },
                effect: if valid {
                    Effect::Same
                } else {
                    Effect::Open(
                        Target::Handle(handle),
                        ViolationKind::MissingAttribute("title".into()),
                    )
                },
            });
            inserted.push((handle, valid));
        } else {
            let k = rng.gen_range(0..inserted.len());
            script.push(remove(inserted.swap_remove(k)));
        }
    }
    // Repair everything, so the next cycle starts from the parsed state.
    for (t, &mark) in marks.iter().enumerate() {
        if mark != Mark::Clean {
            script.push(toggle(t, mark, Mark::Clean).0);
        }
    }
    for (x, &dirty) in ws_dirty.iter().enumerate() {
        if dirty {
            script.push(ws_flip(x, true));
        }
    }
    for ins in inserted.drain(..) {
        script.push(remove(ins));
    }
    script
}
