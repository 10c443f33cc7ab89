//! The conformance **oracle**: a deliberately slow, obviously correct
//! reference interpreter for the priority semantics of Definition 1.
//!
//! Everything here is written for auditability, not speed, and shares
//! only the *AST* (`Bxsd`, `Regex`, `ContentModel`) with the production
//! validators in [`crate::validate`]:
//!
//! * regex matching is a **direct Glushkov NFA simulation** — positions,
//!   `first`/`last`/`follow` computed by the textbook structural
//!   recursion, the position set advanced symbol by symbol. No DFA, no
//!   determinization, no relevance product, no memoization; the automaton
//!   is rebuilt from the AST on every call;
//! * counting and interleaving are naively unrolled into core operators
//!   (or, beyond the unroll budget, decided by a from-the-definitions
//!   Brzozowski derivative written out here rather than imported), so no
//!   matcher machinery is shared with the fast paths either;
//! * the document is walked by naive recursion, recomputing each node's
//!   ancestor state from scratch — there is no per-node automaton state
//!   to get wrong.
//!
//! The payoff is differential testing: `tests/conformance_differential.rs`
//! and `bonxai conform` validate every corpus document through the tree,
//! streaming, lock-step, and relevance-product paths *and* this oracle,
//! and any divergence — verdict or error position — is a bug by
//! definition. The reports produced here are byte-identical to
//! [`crate::validate::CompiledBxsd::validate_with`] on conforming *and*
//! non-conforming documents (same violations, same canonical node order).

use relang::{Regex, Sym, UpperBound};
use xmltree::{Document, NodeId};
use xsd::violation::{Violation, ViolationKind};
use xsd::ContentModel;

use crate::bxsd::Bxsd;
use crate::validate::{BxsdReport, NodeMatch};

/// Node budget for unrolling counters/interleaves into core operators.
/// Generous on purpose — the oracle is allowed to be slow — but bounded,
/// so `a{5000,50000}` falls through to the derivative decision procedure
/// instead of materializing a fifty-thousand-position automaton.
const UNROLL_BUDGET: usize = 50_000;

/// The XML `S` production (#x20 | #x9 | #xD | #xA), written out here
/// rather than imported: the only characters element-only content and
/// the `whiteSpace` facet treat as whitespace.
fn is_s(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// Validates `doc` against `bxsd` with the reference interpreter.
/// Produces the same report as [`crate::validate::validate`].
pub fn validate(bxsd: &Bxsd, doc: &Document) -> BxsdReport {
    validate_with(bxsd, doc, false)
}

/// [`validate`] with optional per-node match recording (the analogue of
/// [`crate::validate::ValidateOptions::record_matches`]).
pub fn validate_with(bxsd: &Bxsd, doc: &Document, record_matches: bool) -> BxsdReport {
    let mut report = BxsdReport {
        violations: Vec::new(),
        matches: std::collections::BTreeMap::new(),
    };
    let root = doc.root();
    let root_name = doc.name(root).expect("root is an element");
    let root_ok = doc
        .name(root)
        .and_then(|n| bxsd.ename.lookup(n))
        .is_some_and(|s| bxsd.start.contains(&s));
    if !root_ok {
        report.violations.push(Violation {
            node: root,
            kind: ViolationKind::RootNotAllowed(root_name.to_owned()),
        });
        return report;
    }
    let mut walker = Walker {
        bxsd,
        doc,
        record_matches,
        report: &mut report,
    };
    let mut anc = Vec::new();
    walker.walk(root, &mut anc, true);
    report.violations.sort_by_key(|v| v.node);
    report
}

/// The recursive tree walk. `anc` is the symbol form of the ancestor
/// string of the node currently being visited (grown and shrunk around
/// each recursive call); `alive` is false below any unknown-named
/// element or any sibling that followed one.
struct Walker<'a> {
    bxsd: &'a Bxsd,
    doc: &'a Document,
    record_matches: bool,
    report: &'a mut BxsdReport,
}

impl Walker<'_> {
    fn walk(&mut self, node: NodeId, anc: &mut Vec<Sym>, alive: bool) {
        let sym = self
            .doc
            .name(node)
            .and_then(|n| self.bxsd.ename.lookup(n))
            .filter(|_| alive);
        let relevant;
        if let Some(sym) = sym {
            anc.push(sym);
            // The relevant rule is the *last* rule whose ancestor
            // expression matches anc-str(v) (Definition 1), each match
            // decided independently by a fresh Glushkov simulation.
            let matching: Vec<usize> = self
                .bxsd
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| accepts(&r.ancestor, anc))
                .map(|(i, _)| i)
                .collect();
            relevant = matching.last().copied();
            if self.record_matches {
                self.report
                    .matches
                    .insert(node, NodeMatch { matching, relevant });
            }
        } else {
            relevant = None;
            if self.record_matches {
                self.report.matches.insert(
                    node,
                    NodeMatch {
                        matching: Vec::new(),
                        relevant: None,
                    },
                );
            }
        }

        // One pass over the children: collect the known-child word up to
        // the first unknown-named child (which is itself a violation and
        // caps the word — children after it are unconstrained), and note
        // significant text.
        let mut word: Vec<Sym> = Vec::new();
        let mut unknown_at = None;
        let mut has_text = false;
        for &child in self.doc.children(node) {
            match self.doc.name(child) {
                None => {
                    has_text =
                        has_text || self.doc.text(child).is_some_and(|t| !t.chars().all(is_s));
                }
                Some(child_name) => {
                    if unknown_at.is_some() {
                        continue;
                    }
                    match self.bxsd.ename.lookup(child_name) {
                        Some(s) => word.push(s),
                        None => {
                            self.report.violations.push(Violation {
                                node: child,
                                kind: ViolationKind::NoGoverningDefinition(child_name.to_owned()),
                            });
                            unknown_at = Some(word.len());
                        }
                    }
                }
            }
        }

        self.check_node(node, relevant, &word, unknown_at, has_text);

        // Recurse. A child is alive only if this node is alive with a
        // known name and no earlier sibling had an unknown name.
        let mut seen_unknown = false;
        for &child in self.doc.children(node) {
            let Some(child_name) = self.doc.name(child) else {
                continue;
            };
            let child_known = self.bxsd.ename.lookup(child_name).is_some();
            let child_alive = sym.is_some() && !seen_unknown && child_known;
            self.walk(child, anc, child_alive);
            seen_unknown = seen_unknown || !child_known;
        }
        if sym.is_some() {
            anc.pop();
        }
    }

    /// The per-node checks of Definition 1, in the exact order the
    /// production paths report them: text, attributes, content model.
    fn check_node(
        &mut self,
        node: NodeId,
        relevant: Option<usize>,
        word: &[Sym],
        unknown_at: Option<usize>,
        has_text: bool,
    ) {
        let Some(i) = relevant else {
            return;
        };
        let model = &self.bxsd.rules[i].content;
        let name = self.doc.name(node).expect("element");
        if model.simple_content.is_some() {
            self.check_simple_text(node, name, model);
        } else if !model.mixed && !model.open && has_text {
            self.report.violations.push(Violation {
                node,
                kind: ViolationKind::UnexpectedText(name.to_owned()),
            });
        }
        self.check_attributes(node, model);
        let failed_at = unknown_at.or_else(|| {
            if model.simple_content.is_some() {
                // Simple content admits no element children at all.
                (!word.is_empty()).then_some(0)
            } else {
                first_error(&model.regex, word)
            }
        });
        if let Some(at) = failed_at {
            self.report.violations.push(Violation {
                node,
                kind: ViolationKind::ContentModel {
                    element: name.to_owned(),
                    at,
                },
            });
        }
    }

    /// Simple-content text check: the concatenated direct text children,
    /// trimmed for the type check, reported untrimmed.
    fn check_simple_text(&mut self, node: NodeId, name: &str, model: &ContentModel) {
        let Some(st) = model.simple_content else {
            return;
        };
        let text: String = self
            .doc
            .children(node)
            .iter()
            .filter_map(|&c| self.doc.text(c))
            .collect();
        let value = text.trim_matches(is_s);
        if !st.validates(value) || !model.simple_facets.validates(st, value) {
            let expected = if model.simple_facets.is_empty() {
                st.qname().to_owned()
            } else {
                format!("{} {}", st.qname(), model.simple_facets.display())
            };
            self.report.violations.push(Violation {
                node,
                kind: ViolationKind::InvalidTextValue {
                    element: name.to_owned(),
                    value: text,
                    expected,
                },
            });
        }
    }

    /// Attribute check, straight from the definition: every written
    /// attribute must be declared and typed, every required declaration
    /// must be written. `xmlns…` declarations are exempt; an `open`
    /// model admits anything.
    fn check_attributes(&mut self, node: NodeId, model: &ContentModel) {
        if model.open {
            return;
        }
        let attrs = self.doc.attributes(node);
        for a in attrs {
            if a.name.starts_with("xmlns") {
                continue;
            }
            match model.attributes.iter().find(|d| d.name == a.name) {
                None => self.report.violations.push(Violation {
                    node,
                    kind: ViolationKind::UndeclaredAttribute(a.name.clone()),
                }),
                Some(decl) => {
                    if !decl.validates(&a.value) {
                        self.report.violations.push(Violation {
                            node,
                            kind: ViolationKind::InvalidAttributeValue {
                                attribute: a.name.clone(),
                                value: a.value.clone(),
                                expected: decl.type_display(),
                            },
                        });
                    }
                }
            }
        }
        for decl in &model.attributes {
            if decl.required && !attrs.iter().any(|a| a.name == decl.name) {
                self.report.violations.push(Violation {
                    node,
                    kind: ViolationKind::MissingAttribute(decl.name.clone()),
                });
            }
        }
    }
}

/// Whole-word membership via the Glushkov simulation.
pub fn accepts(r: &Regex, word: &[Sym]) -> bool {
    first_error(r, word).is_none()
}

/// Where matching fails: index of the first position at which the word
/// leaves every viable prefix (`word.len()` = proper prefix of a longer
/// match), `None` if the word matches. Mirrors the contract of the fast
/// paths' `CompiledDre::first_error`, derived independently.
pub fn first_error(r: &Regex, word: &[Sym]) -> Option<usize> {
    match r.desugar(UNROLL_BUDGET) {
        Some(core) => Glushkov::build(&core).first_error(word),
        None => deriv_first_error(r, word),
    }
}

/// The Glushkov position automaton of a *core* expression, built fresh
/// per call. State = a set of positions (plus the implicit start);
/// `first`, `last`, `follow` come from the standard structural
/// recursion (Glushkov 1961).
struct Glushkov {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<bool>,
    follow: Vec<Vec<usize>>,
    sym: Vec<Sym>,
}

/// Per-subexpression summary used while building [`Glushkov`].
struct Frag {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Glushkov {
    fn build(r: &Regex) -> Glushkov {
        let mut g = Glushkov {
            nullable: false,
            first: Vec::new(),
            last: Vec::new(),
            follow: Vec::new(),
            sym: Vec::new(),
        };
        let frag = g.visit(r);
        g.nullable = frag.nullable;
        g.first = frag.first;
        let mut last = vec![false; g.sym.len()];
        for p in frag.last {
            last[p] = true;
        }
        g.last = last;
        g
    }

    fn visit(&mut self, r: &Regex) -> Frag {
        match r {
            Regex::Empty => Frag {
                nullable: false,
                first: Vec::new(),
                last: Vec::new(),
            },
            Regex::Epsilon => Frag {
                nullable: true,
                first: Vec::new(),
                last: Vec::new(),
            },
            Regex::Sym(s) => {
                let p = self.sym.len();
                self.sym.push(*s);
                self.follow.push(Vec::new());
                Frag {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                }
            }
            Regex::Concat(parts) => {
                let mut nullable = true;
                let mut first = Vec::new();
                // Positions whose next symbol may begin the next part:
                // the lasts of the suffix of already-visited parts that
                // ends in a (possibly empty) run of nullable parts.
                let mut pending: Vec<usize> = Vec::new();
                let mut last = Vec::new();
                for part in parts {
                    let f = self.visit(part);
                    for &p in &pending {
                        self.follow[p].extend(f.first.iter().copied());
                    }
                    if nullable {
                        first.extend(f.first.iter().copied());
                    }
                    if f.nullable {
                        pending.extend(f.last.iter().copied());
                        last.extend(f.last.iter().copied());
                    } else {
                        pending = f.last.clone();
                        last = f.last;
                    }
                    nullable &= f.nullable;
                }
                Frag {
                    nullable,
                    first,
                    last,
                }
            }
            Regex::Alt(parts) => {
                let mut nullable = false;
                let mut first = Vec::new();
                let mut last = Vec::new();
                for part in parts {
                    let f = self.visit(part);
                    nullable |= f.nullable;
                    first.extend(f.first);
                    last.extend(f.last);
                }
                Frag {
                    nullable,
                    first,
                    last,
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) => {
                let f = self.visit(inner);
                for &p in &f.last {
                    self.follow[p].extend(f.first.iter().copied());
                }
                Frag {
                    nullable: matches!(r, Regex::Star(_)) || f.nullable,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Opt(inner) => {
                let f = self.visit(inner);
                Frag {
                    nullable: true,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Repeat(..) | Regex::Interleave(..) => {
                unreachable!("caller desugars extended operators")
            }
        }
    }

    fn first_error(&self, word: &[Sym]) -> Option<usize> {
        let mut active = vec![false; self.sym.len()];
        let mut any = false;
        for (i, &a) in word.iter().enumerate() {
            let mut next = vec![false; self.sym.len()];
            let mut nonempty = false;
            let sources: Box<dyn Iterator<Item = usize>> = if i == 0 {
                Box::new(self.first.iter().copied())
            } else {
                Box::new(
                    (0..active.len())
                        .filter(|&p| active[p])
                        .flat_map(|p| self.follow[p].iter().copied()),
                )
            };
            for p in sources {
                if self.sym[p] == a {
                    next[p] = true;
                    nonempty = true;
                }
            }
            if !nonempty {
                return Some(i);
            }
            active = next;
            any = true;
        }
        let accepted = if any {
            (0..active.len()).any(|p| active[p] && self.last[p])
        } else {
            self.nullable
        };
        if accepted {
            None
        } else {
            Some(word.len())
        }
    }
}

// ---------------------------------------------------------------------
// Brzozowski derivatives, from the definitions (Brzozowski 1964). Used
// only when unrolling is infeasible (huge counters, rich interleaves):
// exact for every operator, reimplemented here so the oracle shares no
// matcher code with the fast paths' own derivative fallback.
// ---------------------------------------------------------------------

fn deriv_first_error(r: &Regex, word: &[Sym]) -> Option<usize> {
    let mut cur = r.clone();
    for (i, &a) in word.iter().enumerate() {
        cur = deriv(&cur, a);
        if is_empty_lang(&cur) {
            return Some(i);
        }
    }
    if nullable(&cur) {
        None
    } else {
        Some(word.len())
    }
}

/// `ε ∈ L(r)`?
fn nullable(r: &Regex) -> bool {
    match r {
        Regex::Empty | Regex::Sym(_) => false,
        Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
        Regex::Concat(parts) | Regex::Interleave(parts) => parts.iter().all(nullable),
        Regex::Alt(parts) => parts.iter().any(nullable),
        Regex::Plus(inner) => nullable(inner),
        Regex::Repeat(inner, lo, _) => *lo == 0 || nullable(inner),
    }
}

/// `L(r) = ∅`?
fn is_empty_lang(r: &Regex) -> bool {
    match r {
        Regex::Empty => true,
        Regex::Epsilon | Regex::Sym(_) | Regex::Star(_) | Regex::Opt(_) => false,
        Regex::Concat(parts) | Regex::Interleave(parts) => parts.iter().any(is_empty_lang),
        Regex::Alt(parts) => parts.iter().all(is_empty_lang),
        Regex::Plus(inner) => is_empty_lang(inner),
        Regex::Repeat(inner, lo, _) => *lo > 0 && is_empty_lang(inner),
    }
}

/// `a⁻¹L(r)`, kept small by the AST's normalizing constructors plus
/// sort+dedup of alternations (ACI), which bounds growth over a word.
fn deriv(r: &Regex, a: Sym) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Sym(s) => {
            if *s == a {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(parts) => {
            // d(r1 r2 … rk) = d(r1) r2…rk + [r1 nullable] d(r2…rk)
            let mut alts = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                let mut seq = vec![deriv(part, a)];
                seq.extend(parts[i + 1..].iter().cloned());
                alts.push(Regex::concat(seq));
                if !nullable(part) {
                    break;
                }
            }
            aci_alt(alts)
        }
        Regex::Alt(parts) => aci_alt(parts.iter().map(|p| deriv(p, a)).collect()),
        Regex::Star(inner) | Regex::Plus(inner) => {
            Regex::concat(vec![deriv(inner, a), Regex::star((**inner).clone())])
        }
        Regex::Opt(inner) => deriv(inner, a),
        Regex::Repeat(inner, lo, hi) => {
            let rest_hi = match hi {
                UpperBound::Unbounded => UpperBound::Unbounded,
                UpperBound::Finite(0) => return Regex::Empty,
                UpperBound::Finite(m) => UpperBound::Finite(m - 1),
            };
            Regex::concat(vec![
                deriv(inner, a),
                Regex::repeat((**inner).clone(), lo.saturating_sub(1), rest_hi),
            ])
        }
        Regex::Interleave(parts) => {
            // d(r1 & … & rk) = Σi r1 & … & d(ri) & … & rk
            let mut alts = Vec::new();
            for i in 0..parts.len() {
                let mut ps = parts.clone();
                ps[i] = deriv(&parts[i], a);
                alts.push(Regex::interleave(ps));
            }
            aci_alt(alts)
        }
    }
}

/// Alternation normalized up to associativity/commutativity/idempotence.
fn aci_alt(parts: Vec<Regex>) -> Regex {
    match Regex::alt(parts) {
        Regex::Alt(mut inner) => {
            inner.sort();
            inner.dedup();
            if inner.len() == 1 {
                return inner.pop().expect("len checked");
            }
            Regex::Alt(inner)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }
    fn w(items: &[u32]) -> Vec<Sym> {
        items.iter().map(|&i| Sym(i)).collect()
    }

    #[test]
    fn glushkov_core_matching() {
        // a (b + c)* b
        let r = Regex::concat(vec![s(0), Regex::star(Regex::alt(vec![s(1), s(2)])), s(1)]);
        assert!(accepts(&r, &w(&[0, 1])));
        assert!(accepts(&r, &w(&[0, 2, 1, 1])));
        assert!(!accepts(&r, &w(&[0])));
        assert!(!accepts(&r, &w(&[1])));
        assert!(!accepts(&r, &w(&[])));
    }

    #[test]
    fn glushkov_first_error_positions() {
        let r = Regex::concat(vec![s(0), s(1), s(2)]);
        assert_eq!(first_error(&r, &w(&[0, 1, 2])), None);
        assert_eq!(first_error(&r, &w(&[0, 2])), Some(1));
        assert_eq!(first_error(&r, &w(&[0, 1])), Some(2));
        assert_eq!(first_error(&r, &w(&[1])), Some(0));
    }

    #[test]
    fn glushkov_empty_word() {
        assert_eq!(first_error(&Regex::star(s(0)), &[]), None);
        assert_eq!(first_error(&s(0), &[]), Some(0));
        assert_eq!(first_error(&Regex::Empty, &[]), Some(0));
    }

    #[test]
    fn counting_unrolls() {
        let r = Regex::repeat(s(0), 2, UpperBound::Finite(4));
        assert!(!accepts(&r, &w(&[0])));
        assert!(accepts(&r, &w(&[0, 0])));
        assert!(accepts(&r, &w(&[0, 0, 0, 0])));
        assert!(!accepts(&r, &w(&[0, 0, 0, 0, 0])));
    }

    #[test]
    fn huge_counter_uses_derivatives() {
        let r = Regex::repeat(s(0), 5_000, UpperBound::Finite(50_000));
        assert!(r.desugar(UNROLL_BUDGET).is_none(), "must exercise fallback");
        assert!(!accepts(&r, &w(&[0; 10])));
        assert!(accepts(&r, &vec![Sym(0); 5_000]));
        assert_eq!(first_error(&r, &w(&[0; 10])), Some(10));
    }

    #[test]
    fn interleave_matching() {
        // a & b? & c — xs:all style
        let r = Regex::Interleave(vec![s(0), Regex::opt(s(1)), s(2)]);
        assert!(accepts(&r, &w(&[0, 2])));
        assert!(accepts(&r, &w(&[2, 1, 0])));
        assert!(!accepts(&r, &w(&[0])));
        assert!(!accepts(&r, &w(&[0, 2, 2])));
    }

    #[test]
    fn rich_interleave_uses_derivatives() {
        // a+ & b — not expressible by the permutation unroll
        let r = Regex::Interleave(vec![Regex::plus(s(0)), s(1)]);
        assert!(r.desugar(UNROLL_BUDGET).is_none(), "must exercise fallback");
        assert!(accepts(&r, &w(&[0, 1, 0])));
        assert!(accepts(&r, &w(&[1, 0])));
        assert!(!accepts(&r, &w(&[0, 0])));
        assert_eq!(first_error(&r, &w(&[1, 1])), Some(1));
    }
}
