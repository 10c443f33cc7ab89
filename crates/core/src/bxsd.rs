//! BonXai Schema Definitions — Definition 1 of the paper.
//!
//! > A BonXai Schema Definition (BXSD) is a pair B = (EName, S, R) where
//! > S ⊆ EName is a set of start elements and R is an ordered list
//! > r1 → s1, …, rn → sn of rules, where all ri are regular expressions
//! > over EName and all si are deterministic regular expressions.
//! >
//! > A rule ri → si is **relevant** for a node u if i is the largest index
//! > such that anc-str(u) ∈ L(ri). A document conforms to B if the label
//! > of its root is in S and, for each node u, if ri → si is relevant for
//! > u, then ch-str(u) ∈ L(si).
//!
//! Later rules override earlier ones — the priority system of Section 3.2,
//! introduced because neither the universal nor the existential semantics
//! of pattern-based schemas is compatible with UPA (deterministic regular
//! expressions are not closed under union or intersection).

use std::collections::BTreeSet;
use std::fmt;

use relang::regex::determinism::NonDeterminism;
use relang::{Alphabet, Regex, Sym};
use xsd::ContentModel;

/// One BonXai rule: ancestor expression → content model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The ancestor expression `ri` (matched against `anc-str(u)`; need
    /// not be deterministic).
    pub ancestor: Regex,
    /// The content model `si` (must be a deterministic expression).
    pub content: ContentModel,
}

impl Rule {
    /// Creates a rule from its two sides.
    pub fn new(ancestor: Regex, content: impl Into<ContentModel>) -> Rule {
        Rule {
            ancestor,
            content: content.into(),
        }
    }
}

/// A BonXai Schema Definition (the formal core of BonXai).
#[derive(Clone, Debug)]
pub struct Bxsd {
    /// The element-name alphabet `EName`.
    pub ename: Alphabet,
    /// The start elements S (allowed root names).
    pub start: BTreeSet<Sym>,
    /// The ordered rule list R; **later rules have higher priority**.
    pub rules: Vec<Rule>,
}

/// Errors detected when assembling a BXSD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BxsdError {
    /// A rule's content model violates the determinism (UPA) requirement.
    NotDeterministic {
        /// Index of the offending rule.
        rule: usize,
        /// The checker's witness.
        witness: NonDeterminism,
    },
}

impl fmt::Display for BxsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BxsdError::NotDeterministic { rule, witness } => {
                write!(f, "content model of rule {rule} violates UPA: {witness}")
            }
        }
    }
}

impl std::error::Error for BxsdError {}

impl Bxsd {
    /// Assembles a BXSD, checking that every right-hand side is a
    /// deterministic expression (the UPA requirement of Definition 1).
    pub fn new(ename: Alphabet, start: BTreeSet<Sym>, rules: Vec<Rule>) -> Result<Bxsd, BxsdError> {
        for (i, rule) in rules.iter().enumerate() {
            rule.content
                .check_deterministic()
                .map_err(|witness| BxsdError::NotDeterministic { rule: i, witness })?;
        }
        Ok(Bxsd {
            ename,
            start,
            rules,
        })
    }

    /// Assembles a BXSD **without** the UPA check — for analysis tooling
    /// (the lint pass) that reports determinism violations itself rather
    /// than refusing to build. Validators accept such schemas but their
    /// verdicts on ambiguous content models are unspecified; check with
    /// [`xsd::ContentModel::check_deterministic`] before trusting them.
    pub fn new_unchecked(ename: Alphabet, start: BTreeSet<Sym>, rules: Vec<Rule>) -> Bxsd {
        Bxsd {
            ename,
            start,
            rules,
        }
    }

    /// Number of rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// The paper's size measure: total symbol occurrences over all
    /// left- and right-hand sides.
    pub fn size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.ancestor.size() + r.content.size())
            .sum()
    }

    /// The index of the relevant rule for an ancestor string, i.e. the
    /// largest `i` with `anc_str ∈ L(ri)` — `None` if no rule matches.
    ///
    /// This is the reference implementation (derivative-based matching per
    /// rule); the compiled validator in [`crate::validate`](mod@crate::validate) is the fast
    /// path.
    pub fn relevant_rule(&self, anc_str: &[Sym]) -> Option<usize> {
        self.rules
            .iter()
            .enumerate()
            .rev()
            .find(|(_, r)| relang::regex::derivative::matches(&r.ancestor, anc_str))
            .map(|(i, _)| i)
    }

    /// Renders the schema in the formal `ri → si` notation (one rule per
    /// line) for diagnostics and the experiment harnesses.
    pub fn display(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let roots: Vec<&str> = self.start.iter().map(|&s| self.ename.name(s)).collect();
        let _ = writeln!(out, "start: {{{}}}", roots.join(", "));
        for (i, rule) in self.rules.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:3}: {} -> {}{}",
                i,
                relang::regex::display_regex(&rule.ancestor, &self.ename),
                if rule.content.mixed { "mixed " } else { "" },
                relang::regex::display_regex(&rule.content.regex, &self.ename),
            );
        }
        out
    }
}

/// Convenience builder mirroring the compact way the paper writes BXSDs.
#[derive(Clone, Debug, Default)]
pub struct BxsdBuilder {
    /// Accumulating alphabet.
    pub ename: Alphabet,
    start: BTreeSet<Sym>,
    rules: Vec<Rule>,
}

impl BxsdBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a start element by name.
    pub fn start(&mut self, name: &str) -> &mut Self {
        let sym = self.ename.intern(name);
        self.start.insert(sym);
        self
    }

    /// Appends a rule (later rules take priority).
    pub fn rule(&mut self, ancestor: Regex, content: impl Into<ContentModel>) -> &mut Self {
        self.rules.push(Rule::new(ancestor, content));
        self
    }

    /// A placeholder for `EName*` (the paper's `//`), resolved against
    /// the complete alphabet when [`BxsdBuilder::build`] runs. Use it to
    /// assemble rule LHS regexes that mix `//`-gaps with other operators.
    pub fn any_chain(&self) -> Regex {
        any_star_marker()
    }

    /// Appends a rule whose LHS is `EName* · w` (the paper's `//w`) for a
    /// word of names, interning as needed.
    pub fn suffix_rule(&mut self, word: &[&str], content: impl Into<ContentModel>) -> &mut Self {
        // `EName*` must be over the *final* alphabet, so a placeholder is
        // pushed here and resolved in build().
        let mut parts = vec![any_star_marker()];
        for name in word {
            parts.push(Regex::sym(self.ename.intern(name)));
        }
        self.rules.push(Rule::new(Regex::concat(parts), content));
        self
    }

    /// Finalizes the schema, resolving `//` markers against the complete
    /// alphabet and checking determinism of all content models.
    pub fn build(self) -> Result<Bxsd, BxsdError> {
        let any = Regex::star(Regex::sym_set(self.ename.symbols()));
        let rules = self
            .rules
            .into_iter()
            .map(|r| Rule {
                ancestor: substitute_marker(&r.ancestor, &any),
                content: r.content,
            })
            .collect();
        Bxsd::new(self.ename, self.start, rules)
    }
}

/// A marker regex standing for `EName*` before the alphabet is complete.
/// Uses an impossible symbol index that real alphabets never reach.
pub(crate) fn any_star_marker() -> Regex {
    Regex::Star(Box::new(Regex::Sym(Sym(u32::MAX))))
}

pub(crate) fn substitute_marker(r: &Regex, any: &Regex) -> Regex {
    if *r == any_star_marker() {
        return any.clone();
    }
    match r {
        Regex::Concat(parts) => {
            Regex::Concat(parts.iter().map(|p| substitute_marker(p, any)).collect())
        }
        Regex::Alt(parts) => Regex::Alt(parts.iter().map(|p| substitute_marker(p, any)).collect()),
        Regex::Interleave(parts) => {
            Regex::Interleave(parts.iter().map(|p| substitute_marker(p, any)).collect())
        }
        Regex::Star(inner) => Regex::Star(Box::new(substitute_marker(inner, any))),
        Regex::Plus(inner) => Regex::Plus(Box::new(substitute_marker(inner, any))),
        Regex::Opt(inner) => Regex::Opt(Box::new(substitute_marker(inner, any))),
        Regex::Repeat(inner, lo, hi) => {
            Regex::Repeat(Box::new(substitute_marker(inner, any)), *lo, *hi)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 5's section rules in miniature: a general rule for section
    /// and a higher-priority rule for sections below template.
    fn example() -> Bxsd {
        let mut b = BxsdBuilder::new();
        b.start("document");
        let document = b.ename.intern("document");
        let template = b.ename.intern("template");
        let content = b.ename.intern("content");
        let section = b.ename.intern("section");
        let _ = (document, template, content);
        b.suffix_rule(
            &["document"],
            ContentModel::new(Regex::concat(vec![
                Regex::sym(template),
                Regex::sym(content),
            ])),
        );
        b.suffix_rule(
            &["template"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.suffix_rule(
            &["content"],
            ContentModel::new(Regex::star(Regex::sym(section))),
        );
        // general rule first, special case later (higher priority)
        b.suffix_rule(
            &["section"],
            ContentModel::new(Regex::star(Regex::sym(section))).with_mixed(true),
        );
        b.suffix_rule(
            &["template", "section"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.build().unwrap()
    }

    fn syms(b: &Bxsd, names: &[&str]) -> Vec<Sym> {
        names.iter().map(|n| b.ename.lookup(n).unwrap()).collect()
    }

    #[test]
    fn relevant_rule_respects_priority() {
        let x = example();
        // content section: only the general section rule (index 3) matches
        let p = syms(&x, &["document", "content", "section"]);
        assert_eq!(x.relevant_rule(&p), Some(3));
        // template section: rules 3 and 4 match; 4 wins
        let p = syms(&x, &["document", "template", "section"]);
        assert_eq!(x.relevant_rule(&p), Some(4));
        // deeper template section: still rule 4 (suffix //template section
        // requires section directly below template) — nested sections are
        // NOT below template directly, so rule 3 applies again
        let p = syms(&x, &["document", "template", "section", "section"]);
        assert_eq!(x.relevant_rule(&p), Some(3));
        // no rule matches the root path of an unknown name? all names are
        // known here; a path ending in template matches rule 1
        let p = syms(&x, &["document", "template"]);
        assert_eq!(x.relevant_rule(&p), Some(1));
    }

    #[test]
    fn upa_checked_on_build() {
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        let bb = b.ename.intern("b");
        b.rule(
            Regex::sym(a),
            ContentModel::new(Regex::concat(vec![
                Regex::star(Regex::alt(vec![Regex::sym(a), Regex::sym(bb)])),
                Regex::sym(a),
            ])),
        );
        assert!(matches!(
            b.build(),
            Err(BxsdError::NotDeterministic { rule: 0, .. })
        ));
    }

    #[test]
    fn size_counts_both_sides() {
        let x = example();
        assert!(x.size() > 0);
        // suffix rules contribute |EName| for the EName* part plus the word
        let single_rule = {
            let mut b = BxsdBuilder::new();
            b.start("a");
            let a = b.ename.intern("a");
            b.suffix_rule(&["a"], ContentModel::new(Regex::sym(a)));
            b.build().unwrap()
        };
        // EName* (1 symbol) + a (1) on the left, a (1) on the right
        assert_eq!(single_rule.size(), 3);
    }

    #[test]
    fn display_is_readable() {
        let x = example();
        let s = x.display();
        assert!(s.contains("start: {document}"));
        assert!(s.contains("-> mixed"));
    }

    #[test]
    fn no_relevant_rule_is_none() {
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        b.rule(Regex::word(&[a, a]), ContentModel::empty());
        let x = b.build().unwrap();
        assert_eq!(x.relevant_rule(&[a]), None);
        assert_eq!(x.relevant_rule(&[a, a]), Some(0));
    }
}
