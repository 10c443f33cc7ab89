//! Line formats of the generated `expected.txt` and `edits.txt` files.
//!
//! Every record is one line of tab-separated fields. Free-text fields
//! are escaped (`\\`, `\t`, `\n`), so a field never contains a tab or a
//! newline.

use bonxai_core::constraints::ConstraintViolation;
use xmltree::{Document, NodeId};
use xsd::violation::{Violation, ViolationKind};

/// The answer known for one input document: its element count and the
/// exact report a correct validator gives for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// File name inside the input directory.
    pub file: String,
    /// Element nodes in the document.
    pub elements: usize,
    /// Structural violations, in canonical (document) order.
    pub violations: Vec<Violation>,
    /// Identity-constraint violations (compared as a multiset).
    pub constraints: Vec<ConstraintViolation>,
}

/// A node an edit or an effect refers to: a node of the parsed input,
/// or the element inserted by an earlier `Insert` with this handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Node id in the parsed document.
    Node(usize),
    /// Handle of an earlier [`EditOp::Insert`].
    Handle(usize),
}

/// One edit of an edit script, performed through the
/// `xmltree::Document` mutation API by [`apply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// `remove_attribute(node, name)`.
    RemoveAttr { node: usize, name: String },
    /// `set_attribute(node, name, value)`.
    SetAttr {
        node: usize,
        name: String,
        value: String,
    },
    /// `set_text(node, text)` on a text node.
    SetText { node: usize, text: String },
    /// Inserts a `section` subtree (with `title` if given, a text child
    /// and a `bold` child) as child `index` of `parent`.
    Insert {
        handle: usize,
        parent: usize,
        index: usize,
        title: Option<String>,
    },
    /// Detaches the subtree inserted under `handle`.
    Remove { handle: usize },
}

/// What an edit does to the open violations, known by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// No violation opens or closes.
    Same,
    /// The target gains this violation.
    Open(Target, ViolationKind),
    /// The target's violation is repaired.
    Close(Target),
}

/// One line of an edit script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptEdit {
    /// The mutation.
    pub op: EditOp,
    /// Its effect on the report.
    pub effect: Effect,
}

/// Performs `op` on `doc`. `handles` maps insert handles to the
/// inserted elements.
pub fn apply(doc: &mut Document, handles: &mut Vec<NodeId>, op: &EditOp) {
    match op {
        EditOp::RemoveAttr { node, name } => doc.remove_attribute(NodeId(*node), name),
        EditOp::SetAttr { node, name, value } => doc.set_attribute(NodeId(*node), name, value),
        EditOp::SetText { node, text } => doc.set_text(NodeId(*node), text),
        EditOp::Insert {
            handle,
            parent,
            index,
            title,
        } => {
            let section = doc.insert_child(NodeId(*parent), *index, "section");
            if let Some(t) = title {
                doc.set_attribute(section, "title", t);
            }
            doc.add_text(section, "inserted ");
            let bold = doc.add_element(section, "bold");
            doc.add_text(bold, "text");
            if handles.len() <= *handle {
                handles.resize(handle + 1, NodeId(usize::MAX));
            }
            handles[*handle] = section;
        }
        EditOp::Remove { handle } => {
            let node = handles[*handle];
            let parent = doc.parent(node).expect("a removed subtree is attached");
            doc.remove_child(parent, node);
        }
    }
}

/// The node `target` denotes.
pub fn resolve(target: Target, handles: &[NodeId]) -> NodeId {
    match target {
        Target::Node(n) => NodeId(n),
        Target::Handle(h) => handles[h],
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

fn num(field: Option<&&str>) -> Result<usize, String> {
    let f = field.ok_or("missing number field")?;
    f.parse().map_err(|_| format!("bad number {f:?}"))
}

fn text(field: Option<&&str>) -> Result<String, String> {
    field
        .map(|f| unesc(f))
        .ok_or_else(|| "missing field".into())
}

fn encode_kind(k: &ViolationKind) -> String {
    match k {
        ViolationKind::RootNotAllowed(n) => format!("root\t{}", esc(n)),
        ViolationKind::ContentModel { element, at } => format!("content\t{}\t{at}", esc(element)),
        ViolationKind::UnexpectedText(n) => format!("text\t{}", esc(n)),
        ViolationKind::MissingAttribute(a) => format!("missing\t{}", esc(a)),
        ViolationKind::UndeclaredAttribute(a) => format!("undeclared\t{}", esc(a)),
        ViolationKind::InvalidAttributeValue {
            attribute,
            value,
            expected,
        } => format!(
            "attrvalue\t{}\t{}\t{}",
            esc(attribute),
            esc(value),
            esc(expected)
        ),
        ViolationKind::InvalidTextValue {
            element,
            value,
            expected,
        } => format!(
            "textvalue\t{}\t{}\t{}",
            esc(element),
            esc(value),
            esc(expected)
        ),
        ViolationKind::NoGoverningDefinition(n) => format!("nogov\t{}", esc(n)),
    }
}

fn decode_kind(f: &[&str]) -> Result<ViolationKind, String> {
    let mut it = f.iter();
    let tag = it.next().ok_or("missing violation kind")?;
    Ok(match *tag {
        "root" => ViolationKind::RootNotAllowed(text(it.next())?),
        "content" => ViolationKind::ContentModel {
            element: text(it.next())?,
            at: num(it.next())?,
        },
        "text" => ViolationKind::UnexpectedText(text(it.next())?),
        "missing" => ViolationKind::MissingAttribute(text(it.next())?),
        "undeclared" => ViolationKind::UndeclaredAttribute(text(it.next())?),
        "attrvalue" => ViolationKind::InvalidAttributeValue {
            attribute: text(it.next())?,
            value: text(it.next())?,
            expected: text(it.next())?,
        },
        "textvalue" => ViolationKind::InvalidTextValue {
            element: text(it.next())?,
            value: text(it.next())?,
            expected: text(it.next())?,
        },
        "nogov" => ViolationKind::NoGoverningDefinition(text(it.next())?),
        other => return Err(format!("unknown violation kind {other:?}")),
    })
}

fn tuple(t: &[String]) -> String {
    t.iter().map(|s| format!("\t{}", esc(s))).collect()
}

/// One constraint violation as a line body; also the sort key that
/// makes constraint lists comparable as multisets.
pub fn encode_constraint(c: &ConstraintViolation) -> String {
    match c {
        ConstraintViolation::Duplicate {
            constraint,
            tuple: t,
            nodes: (a, b),
        } => format!("dup\t{}\t{}\t{}{}", esc(constraint), a.0, b.0, tuple(t)),
        ConstraintViolation::MissingField {
            constraint,
            field,
            node,
        } => format!(
            "missingfield\t{}\t{}\t{}",
            esc(constraint),
            esc(field),
            node.0
        ),
        ConstraintViolation::DanglingRef {
            constraint,
            tuple: t,
            node,
        } => format!("dangling\t{}\t{}{}", esc(constraint), node.0, tuple(t)),
        ConstraintViolation::UnknownKey { refer } => format!("unknown\t{}", esc(refer)),
    }
}

fn decode_constraint(f: &[&str]) -> Result<ConstraintViolation, String> {
    let mut it = f.iter();
    let tag = it.next().ok_or("missing constraint kind")?;
    Ok(match *tag {
        "dup" => ConstraintViolation::Duplicate {
            constraint: text(it.next())?,
            nodes: (NodeId(num(it.next())?), NodeId(num(it.next())?)),
            tuple: it.map(|s| unesc(s)).collect(),
        },
        "missingfield" => ConstraintViolation::MissingField {
            constraint: text(it.next())?,
            field: text(it.next())?,
            node: NodeId(num(it.next())?),
        },
        "dangling" => ConstraintViolation::DanglingRef {
            constraint: text(it.next())?,
            node: NodeId(num(it.next())?),
            tuple: it.map(|s| unesc(s)).collect(),
        },
        "unknown" => ConstraintViolation::UnknownKey {
            refer: text(it.next())?,
        },
        other => return Err(format!("unknown constraint kind {other:?}")),
    })
}

/// Renders `expected.txt`.
pub fn encode_expected(docs: &[Expected]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&format!("doc\t{}\t{}\n", esc(&d.file), d.elements));
        for v in &d.violations {
            out.push_str(&format!("v\t{}\t{}\n", v.node.0, encode_kind(&v.kind)));
        }
        for c in &d.constraints {
            out.push_str(&format!("c\t{}\n", encode_constraint(c)));
        }
    }
    out
}

/// Parses `expected.txt`.
pub fn decode_expected(src: &str) -> Result<Vec<Expected>, String> {
    let mut docs: Vec<Expected> = Vec::new();
    for line in src.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f[0] {
            "doc" => docs.push(Expected {
                file: text(f.get(1))?,
                elements: num(f.get(2))?,
                violations: Vec::new(),
                constraints: Vec::new(),
            }),
            "v" => {
                let d = docs.last_mut().ok_or("violation before doc line")?;
                d.violations.push(Violation {
                    node: NodeId(num(f.get(1))?),
                    kind: decode_kind(&f[2..])?,
                });
            }
            "c" => {
                let d = docs.last_mut().ok_or("constraint before doc line")?;
                d.constraints.push(decode_constraint(&f[1..])?);
            }
            other => return Err(format!("unknown expected record {other:?}")),
        }
    }
    Ok(docs)
}

fn encode_target(t: Target) -> String {
    match t {
        Target::Node(n) => format!("n{n}"),
        Target::Handle(h) => format!("h{h}"),
    }
}

fn decode_target(f: Option<&&str>) -> Result<Target, String> {
    let f = f.ok_or("missing target")?;
    let (kind, n) = f.split_at(1.min(f.len()));
    let n = n.parse().map_err(|_| format!("bad target {f:?}"))?;
    match kind {
        "n" => Ok(Target::Node(n)),
        "h" => Ok(Target::Handle(n)),
        _ => Err(format!("bad target {f:?}")),
    }
}

/// Renders `edits.txt`: one edit per line, `op fields => effect fields`.
pub fn encode_script(script: &[ScriptEdit]) -> String {
    let mut out = String::new();
    for e in script {
        let op = match &e.op {
            EditOp::RemoveAttr { node, name } => format!("rmattr\t{node}\t{}", esc(name)),
            EditOp::SetAttr { node, name, value } => {
                format!("setattr\t{node}\t{}\t{}", esc(name), esc(value))
            }
            EditOp::SetText { node, text } => format!("settext\t{node}\t{}", esc(text)),
            EditOp::Insert {
                handle,
                parent,
                index,
                title,
            } => match title {
                Some(t) => format!("insert\t{handle}\t{parent}\t{index}\t{}", esc(t)),
                None => format!("insert\t{handle}\t{parent}\t{index}"),
            },
            EditOp::Remove { handle } => format!("remove\t{handle}"),
        };
        let effect = match &e.effect {
            Effect::Same => "same".to_owned(),
            Effect::Open(t, k) => format!("open\t{}\t{}", encode_target(*t), encode_kind(k)),
            Effect::Close(t) => format!("close\t{}", encode_target(*t)),
        };
        out.push_str(&format!("{op}\t=>\t{effect}\n"));
    }
    out
}

/// Parses `edits.txt`.
pub fn decode_script(src: &str) -> Result<Vec<ScriptEdit>, String> {
    let mut script = Vec::new();
    for line in src.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let arrow = f
            .iter()
            .position(|&x| x == "=>")
            .ok_or("edit line without =>")?;
        let (o, e) = (&f[..arrow], &f[arrow + 1..]);
        let op = match o[0] {
            "rmattr" => EditOp::RemoveAttr {
                node: num(o.get(1))?,
                name: text(o.get(2))?,
            },
            "setattr" => EditOp::SetAttr {
                node: num(o.get(1))?,
                name: text(o.get(2))?,
                value: text(o.get(3))?,
            },
            "settext" => EditOp::SetText {
                node: num(o.get(1))?,
                text: text(o.get(2))?,
            },
            "insert" => EditOp::Insert {
                handle: num(o.get(1))?,
                parent: num(o.get(2))?,
                index: num(o.get(3))?,
                title: o.get(4).map(|t| unesc(t)),
            },
            "remove" => EditOp::Remove {
                handle: num(o.get(1))?,
            },
            other => return Err(format!("unknown edit {other:?}")),
        };
        let effect = match e.first().copied() {
            Some("same") => Effect::Same,
            Some("open") => Effect::Open(decode_target(e.get(1))?, decode_kind(&e[2..])?),
            Some("close") => Effect::Close(decode_target(e.get(1))?),
            other => return Err(format!("unknown effect {other:?}")),
        };
        script.push(ScriptEdit { op, effect });
    }
    Ok(script)
}
