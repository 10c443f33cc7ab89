//! Validation violations shared by the XSD validators (and reused, with
//! rule information added, by the BonXai validator in `bonxai-core`).

use xmltree::NodeId;

/// A schema violation at a document node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending node.
    pub node: NodeId,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// Kinds of schema violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The root element's name is not among the allowed start elements.
    RootNotAllowed(String),
    /// The child string fails the content model at the given child index
    /// (index == number of children means content is incomplete).
    ContentModel {
        /// Name of the element whose content failed.
        element: String,
        /// Index of the first offending element child.
        at: usize,
    },
    /// Significant text under a non-mixed content model.
    UnexpectedText(String),
    /// A required attribute is missing.
    MissingAttribute(String),
    /// An attribute not declared by the governing content model.
    UndeclaredAttribute(String),
    /// An attribute value fails its simple type.
    InvalidAttributeValue {
        /// Attribute name.
        attribute: String,
        /// Offending value.
        value: String,
        /// Expected simple type (canonical `xs:` name).
        expected: String,
    },
    /// Element text fails its simple content type.
    InvalidTextValue {
        /// Element name.
        element: String,
        /// Offending text.
        value: String,
        /// Expected simple type (canonical `xs:` name).
        expected: String,
    },
    /// No rule/type governs this node (BonXai: no rule matches the
    /// ancestor string; DFA-based XSD: undefined transition).
    NoGoverningDefinition(String),
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::RootNotAllowed(n) => {
                write!(f, "root element <{n}> is not a declared start element")
            }
            ViolationKind::ContentModel { element, at } => {
                write!(
                    f,
                    "content of <{element}> fails its content model at child {at}"
                )
            }
            ViolationKind::UnexpectedText(n) => {
                write!(f, "<{n}> contains text but its content model is not mixed")
            }
            ViolationKind::MissingAttribute(a) => {
                write!(f, "required attribute {a:?} is missing")
            }
            ViolationKind::UndeclaredAttribute(a) => {
                write!(f, "attribute {a:?} is not declared")
            }
            ViolationKind::InvalidAttributeValue {
                attribute,
                value,
                expected,
            } => write!(
                f,
                "value {value:?} of attribute {attribute:?} is not a valid {expected}"
            ),
            ViolationKind::InvalidTextValue {
                element,
                value,
                expected,
            } => write!(f, "text {value:?} of <{element}> is not a valid {expected}"),
            ViolationKind::NoGoverningDefinition(n) => {
                write!(f, "no declaration governs element <{n}>")
            }
        }
    }
}

/// Checks an element's text against a content model's mixedness / simple
/// content declaration, appending violations.
/// (Shared with `bonxai-core`.)
pub fn check_text(
    doc: &xmltree::Document,
    node: NodeId,
    model: &crate::content::ContentModel,
    out: &mut Vec<Violation>,
) {
    let name = doc.name(node).expect("element");
    match model.simple_content {
        Some(_) => {
            let text: String = doc
                .children(node)
                .iter()
                .filter_map(|&c| doc.text(c))
                .collect();
            check_simple_text(node, name, model, &text, out);
        }
        None => {
            if !model.mixed && !model.open && doc.has_significant_text(node) {
                out.push(Violation {
                    node,
                    kind: ViolationKind::UnexpectedText(name.to_owned()),
                });
            }
        }
    }
}

/// The document-free core of [`check_text`] for a simple-content model:
/// validates the element's concatenated text (untrimmed, as the value
/// reported; trimmed for type checking). Used by the streaming validator,
/// which accumulates text per open element instead of walking a tree.
pub fn check_simple_text(
    node: NodeId,
    name: &str,
    model: &crate::content::ContentModel,
    text: &str,
    out: &mut Vec<Violation>,
) {
    let Some(st) = model.simple_content else {
        return;
    };
    let value = text.trim_matches(xmltree::is_xml_whitespace);
    if !st.validates(value) || !model.simple_facets.validates(st, value) {
        let expected = if model.simple_facets.is_empty() {
            st.qname().to_owned()
        } else {
            format!("{} {}", st.qname(), model.simple_facets.display())
        };
        out.push(Violation {
            node,
            kind: ViolationKind::InvalidTextValue {
                element: name.to_owned(),
                value: text.to_owned(),
                expected,
            },
        });
    }
}

/// Checks an element's attributes against a content model's declarations,
/// appending violations. Namespace declarations (`xmlns…`) are exempt.
/// (Shared with `bonxai-core`.)
pub fn check_attributes(
    doc: &xmltree::Document,
    node: NodeId,
    model: &crate::content::ContentModel,
    out: &mut Vec<Violation>,
) {
    check_attribute_list(node, doc.attributes(node), model, out);
}

/// The document-free core of [`check_attributes`], over an attribute
/// slice directly.
pub fn check_attribute_list(
    node: NodeId,
    attrs: &[xmltree::Attribute],
    model: &crate::content::ContentModel,
    out: &mut Vec<Violation>,
) {
    check_attribute_pairs(
        node,
        attrs.iter().map(|a| (a.name.as_str(), a.value.as_str())),
        model,
        out,
    );
}

/// [`check_attribute_list`] over borrowed `(name, value)` pairs, so the
/// streaming validator can check a start tag's attributes straight off
/// the reader's zero-copy token — nothing is materialized unless a
/// violation is actually reported.
pub fn check_attribute_pairs<'a, I>(
    node: NodeId,
    attrs: I,
    model: &crate::content::ContentModel,
    out: &mut Vec<Violation>,
) where
    I: Iterator<Item = (&'a str, &'a str)> + Clone,
{
    if model.open {
        return;
    }
    // One pass over the written attributes, tracking which declarations
    // were seen so the required check below needs no second scan of the
    // attribute list (this runs for every element on the validation hot
    // path). Falls back to the scan for >64 declarations.
    let mut seen: u64 = 0;
    for (name, value) in attrs.clone() {
        if name.starts_with("xmlns") {
            continue;
        }
        match model.attributes.iter().position(|a| a.name == name) {
            None => out.push(Violation {
                node,
                kind: ViolationKind::UndeclaredAttribute(name.to_owned()),
            }),
            Some(i) => {
                if i < 64 {
                    seen |= 1 << i;
                }
                let decl = &model.attributes[i];
                if !decl.validates(value) {
                    out.push(Violation {
                        node,
                        kind: ViolationKind::InvalidAttributeValue {
                            attribute: name.to_owned(),
                            value: value.to_owned(),
                            expected: decl.type_display(),
                        },
                    });
                }
            }
        }
    }
    for (i, decl) in model.attributes.iter().enumerate() {
        if !decl.required {
            continue;
        }
        let present = if i < 64 {
            seen & (1 << i) != 0
        } else {
            attrs.clone().any(|(name, _)| name == decl.name)
        };
        if !present {
            out.push(Violation {
                node,
                kind: ViolationKind::MissingAttribute(decl.name.clone()),
            });
        }
    }
}
