//! Integrity constraints: `unique`, `key`, and `keyref` (Section 3.1).
//!
//! "BonXai allows to express the same integrity constraints as XML Schema
//! (i.e., unique, key, and keyref)." A constraint has a *selector* — an
//! ancestor pattern choosing the constrained nodes — and a list of
//! *fields* — attribute or child-element values forming the tuple.
//!
//! The concrete syntax accepted in the `constraints { … }` block:
//!
//! ```text
//! constraints {
//!   unique //style { @name }
//!   key styleKey = //userstyles/style { @name }
//!   keyref //content//style { @name } references styleKey
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;

use relang::{Alphabet, CompiledDre, Sym};
use xmltree::{Document, NodeId};

use crate::lang::ast::PathExpr;

/// The three constraint kinds of XML Schema / BonXai.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Tuples must be pairwise distinct where fully present.
    Unique,
    /// Tuples must be present and pairwise distinct.
    Key,
    /// Tuples must occur among the tuples of the referenced key.
    KeyRef {
        /// Name of the referenced key.
        refer: String,
    },
}

/// A field of a constraint tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// `@name` — an attribute of the selected element.
    Attribute(String),
    /// `name` — the text content of the first child element so named.
    ChildText(String),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Attribute(n) => write!(f, "@{n}"),
            Field::ChildText(n) => write!(f, "{n}"),
        }
    }
}

/// One integrity constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Optional name (required for keys so keyrefs can reference them).
    pub name: Option<String>,
    /// The kind.
    pub kind: ConstraintKind,
    /// Selector: an ancestor pattern over element names.
    pub selector: PathExpr,
    /// The tuple fields.
    pub fields: Vec<Field>,
}

/// A constraint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// Two selected nodes share a tuple under `unique`/`key`.
    Duplicate {
        /// Constraint name or index description.
        constraint: String,
        /// The duplicated tuple.
        tuple: Vec<String>,
        /// The two offending nodes.
        nodes: (NodeId, NodeId),
    },
    /// A `key` field is absent on a selected node.
    MissingField {
        /// Constraint name or index description.
        constraint: String,
        /// The missing field.
        field: String,
        /// The offending node.
        node: NodeId,
    },
    /// A `keyref` tuple has no matching key tuple.
    DanglingRef {
        /// Constraint name or index description.
        constraint: String,
        /// The dangling tuple.
        tuple: Vec<String>,
        /// The offending node.
        node: NodeId,
    },
    /// A `keyref` references an unknown key name.
    UnknownKey {
        /// The missing key name.
        refer: String,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::Duplicate {
                constraint, tuple, ..
            } => {
                write!(f, "{constraint}: duplicate tuple {tuple:?}")
            }
            ConstraintViolation::MissingField {
                constraint, field, ..
            } => {
                write!(f, "{constraint}: key field {field} missing")
            }
            ConstraintViolation::DanglingRef {
                constraint, tuple, ..
            } => {
                write!(f, "{constraint}: tuple {tuple:?} matches no key")
            }
            ConstraintViolation::UnknownKey { refer } => {
                write!(f, "keyref references unknown key {refer:?}")
            }
        }
    }
}

/// Checks `constraints` against `doc`. `alphabet` is the schema's element
/// alphabet (selector patterns are interpreted over it).
pub fn check_constraints(
    constraints: &[Constraint],
    alphabet: &Alphabet,
    doc: &Document,
) -> Vec<ConstraintViolation> {
    if constraints.is_empty() {
        return Vec::new();
    }
    let mut violations = Vec::new();
    // Tuples per key name, collected first so keyrefs can look them up
    // regardless of declaration order.
    let mut key_tuples: BTreeMap<&str, Vec<Vec<String>>> = BTreeMap::new();

    let compiled: Vec<CompiledDre> = constraints
        .iter()
        .map(|c| {
            let regex = crate::lang::lower::path_to_regex_resolved(&c.selector, alphabet);
            CompiledDre::compile(&regex, alphabet.len())
        })
        .collect();

    // Precompute symbolic ancestor strings once.
    let paths: Vec<(NodeId, Option<Vec<Sym>>)> = doc
        .iter_elements()
        .map(|n| {
            let path: Option<Vec<Sym>> = doc
                .anc_str(n)
                .iter()
                .map(|name| alphabet.lookup(name))
                .collect();
            (n, path)
        })
        .collect();

    // Collects the complete tuples of constraint `idx`, reporting missing
    // key fields along the way.
    let collect = |idx: usize, violations: &mut Vec<ConstraintViolation>| {
        let constraint = &constraints[idx];
        let label = constraint
            .name
            .clone()
            .unwrap_or_else(|| format!("constraint #{idx}"));
        let mut out: Vec<(NodeId, Vec<String>)> = Vec::new();
        for (node, path) in &paths {
            let Some(path) = path else { continue };
            if !compiled[idx].matches(path) {
                continue;
            }
            let mut tuple = Vec::with_capacity(constraint.fields.len());
            let mut missing = None;
            for field in &constraint.fields {
                match field_value(doc, *node, field) {
                    Some(v) => tuple.push(v),
                    None => {
                        missing = Some(field);
                        break;
                    }
                }
            }
            match missing {
                Some(field) => {
                    if constraint.kind == ConstraintKind::Key {
                        violations.push(ConstraintViolation::MissingField {
                            constraint: label.clone(),
                            field: field.to_string(),
                            node: *node,
                        });
                    }
                    // partial tuples do not participate
                }
                None => out.push((*node, tuple)),
            }
        }
        (label, out)
    };

    // Pass 1: unique and key constraints (collect key tuple sets).
    for (idx, constraint) in constraints.iter().enumerate() {
        if matches!(constraint.kind, ConstraintKind::KeyRef { .. }) {
            continue;
        }
        let (label, tuples) = collect(idx, &mut violations);
        let mut seen: BTreeMap<Vec<String>, NodeId> = BTreeMap::new();
        for (node, tuple) in &tuples {
            if let Some(&first) = seen.get(tuple) {
                violations.push(ConstraintViolation::Duplicate {
                    constraint: label.clone(),
                    tuple: tuple.clone(),
                    nodes: (first, *node),
                });
            } else {
                seen.insert(tuple.clone(), *node);
            }
        }
        if constraint.kind == ConstraintKind::Key {
            if let Some(name) = &constraint.name {
                key_tuples.insert(name, tuples.into_iter().map(|(_, t)| t).collect());
            }
        }
    }

    // Pass 2: keyrefs, now that all keys are known.
    for (idx, constraint) in constraints.iter().enumerate() {
        let ConstraintKind::KeyRef { refer } = &constraint.kind else {
            continue;
        };
        let Some(key) = key_tuples.get(refer.as_str()) else {
            violations.push(ConstraintViolation::UnknownKey {
                refer: refer.clone(),
            });
            continue;
        };
        let (label, tuples) = collect(idx, &mut violations);
        for (node, tuple) in tuples {
            if !key.contains(&tuple) {
                violations.push(ConstraintViolation::DanglingRef {
                    constraint: label.clone(),
                    tuple,
                    node,
                });
            }
        }
    }
    violations
}

fn field_value(doc: &Document, node: NodeId, field: &Field) -> Option<String> {
    match field {
        Field::Attribute(name) => doc.attribute(node, name).map(str::to_owned),
        Field::ChildText(name) => {
            let child = doc
                .element_children(node)
                .find(|&c| doc.name(c) == Some(name.as_str()))?;
            let text: String = doc
                .children(child)
                .iter()
                .filter_map(|&c| doc.text(c))
                .collect();
            Some(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::builder::elem;

    fn alphabet() -> Alphabet {
        Alphabet::from_names(["doc", "userstyles", "style", "content", "item"])
    }

    fn selector(names: &[&str]) -> PathExpr {
        // //n1/n2/…
        let mut parts = vec![PathExpr::AnyChain];
        parts.extend(names.iter().map(|n| PathExpr::Name((*n).to_owned())));
        PathExpr::Seq(parts)
    }

    fn doc_with_styles(names: &[&str], refs: &[&str]) -> Document {
        let mut root = elem("doc");
        let mut us = elem("userstyles");
        for n in names {
            us = us.child(elem("style").attr("name", n));
        }
        let mut content = elem("content");
        for r in refs {
            content = content.child(elem("style").attr("name", r));
        }
        root = root.child(us).child(content);
        root.build()
    }

    #[test]
    fn unique_detects_duplicates() {
        let c = Constraint {
            name: None,
            kind: ConstraintKind::Unique,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a", "b"], &[]);
        assert!(check_constraints(std::slice::from_ref(&c), &alphabet(), &ok).is_empty());
        let dup = doc_with_styles(&["a", "a"], &[]);
        let v = check_constraints(&[c], &alphabet(), &dup);
        assert!(matches!(v[0], ConstraintViolation::Duplicate { .. }));
    }

    #[test]
    fn key_requires_presence() {
        let c = Constraint {
            name: Some("styleKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let mut doc = doc_with_styles(&["a"], &[]);
        // add a style without a name
        let us = doc.element_children(doc.root()).next().unwrap();
        doc.add_element(us, "style");
        let v = check_constraints(&[c], &alphabet(), &doc);
        assert!(matches!(v[0], ConstraintViolation::MissingField { .. }));
    }

    #[test]
    fn keyref_resolves_against_key() {
        let key = Constraint {
            name: Some("styleKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "styleKey".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a", "b"], &["a", "b", "a"]);
        assert!(check_constraints(&[key.clone(), kref.clone()], &alphabet(), &ok).is_empty());
        let bad = doc_with_styles(&["a"], &["ghost"]);
        let v = check_constraints(&[key, kref], &alphabet(), &bad);
        assert!(matches!(v[0], ConstraintViolation::DanglingRef { .. }));
    }

    #[test]
    fn keyref_declared_before_key_still_resolves() {
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "k".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let key = Constraint {
            name: Some("k".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a"], &["a"]);
        assert!(check_constraints(&[kref, key], &alphabet(), &ok).is_empty());
    }

    #[test]
    fn unknown_key_reported_once() {
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "nope".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let doc = doc_with_styles(&[], &["a", "b"]);
        let v = check_constraints(&[kref], &alphabet(), &doc);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], ConstraintViolation::UnknownKey { .. }));
    }

    #[test]
    fn child_text_fields() {
        let c = Constraint {
            name: Some("itemKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["item"]),
            fields: vec![Field::ChildText("style".to_owned())],
        };
        let doc = elem("doc")
            .child(elem("item").child(elem("style").text("x")))
            .child(elem("item").child(elem("style").text("x")))
            .build();
        let v = check_constraints(&[c], &alphabet(), &doc);
        assert!(matches!(v[0], ConstraintViolation::Duplicate { .. }));
    }
}
