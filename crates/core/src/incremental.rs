//! Incremental revalidation: cost proportional to the edit, not the
//! document.
//!
//! Validation ([`crate::validate`]) is a deterministic top-down walk
//! over the tree. Each element's *pass* — its frame push and pop in the
//! validator's sink, with the parent steps of its children in between —
//! derives the relevant rule from the element's ancestor product state,
//! steps the content DFA over its children's names (poisoning every
//! sibling after the first unknown name to the dead state), checks its
//! text and attributes, computes each child's ancestor state, and emits
//! the element's violations. A full run therefore leaves behind exactly
//! the memo needed to replay only what an edit touched. This module
//! keeps that memo as a [`ValidationState`] — SoA arrays indexed by arena
//! [`NodeId`]: each element's ancestor product state and the violations
//! its pass emitted — fills it through the sink's memo hook, and replays
//! [`xmltree::Edit`]s against it with [`CompiledBxsd::revalidate`].
//!
//! ## The dirty-propagation rule
//!
//! A pass reads nothing outside its element and the *names* of its
//! children, so its output can only change if
//!
//! 1. its own ancestor product state changed, or
//! 2. its attributes, text children, or child list changed — exactly
//!    what the mutation API logs as [`xmltree::Edit::Dirty`].
//!
//! Revalidation therefore replays every logged dirty node from its
//! stored ancestor state, and the memo hook lets the replay descend only
//! into children whose recomputed ancestor product state differs from
//! the stored one: a child whose state is unchanged has an unchanged
//! subtree report.
//!
//! ## Why no ancestor walk-up is needed
//!
//! An ancestor's pass depends on its own ancestor state and its
//! children's *names*. Element names are immutable in place — the only
//! way to change the name at a tree position is `replace_subtree`,
//! which logs `Dirty(parent)` — and every mutation already logs the
//! element whose child list or content it touches. So the logged dirty
//! set is upward-closed by construction: no edit can change the pass
//! of a strict ancestor of its logged node.
//!
//! ## Report identity
//!
//! Violations are stored per *generating pass*. Any two violations with
//! the same `node` come from the same pass (a pass emits at most one
//! `NoGoverningDefinition` for a child, and a child that triggered one
//! is dead — relevant rule `None` — so its own pass emits nothing for
//! itself), so concatenating the per-pass vectors in ascending
//! generating-node order and stable-sorting by node reproduces the
//! fresh run's canonically ordered report byte for byte.
//! `tests/incremental_equivalence.rs` pins this against both the fresh
//! validator and the oracle.
//!
//! Schemas whose relevance product exceeded its budget (Theorem 9
//! fallback) have no product states to memoize; for them `revalidate`
//! transparently degrades to a full fresh run — correct, just not
//! incremental — and [`ValidationState::is_incremental`] reports it.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use relang::ops::ProductState;
use xmltree::{Document, Edit, NodeId};
use xsd::violation::Violation;

use crate::validate::{BxsdReport, CompiledBxsd, Memo, ProductEngine, StreamSink};

/// Sentinel for "no ancestor product state stored" (text node, detached
/// node, or never visited). Real product states are bounded by the
/// compile budget, far below this.
const NOT_COMPUTED: u32 = u32::MAX;

/// Persistent per-document validation memo, produced by
/// [`CompiledBxsd::validate_persistent`] and updated in place by
/// [`CompiledBxsd::revalidate`]. All arrays are indexed by arena
/// [`NodeId`], so they survive edits (the arena never reuses ids).
#[derive(Clone, Debug, Default)]
pub struct ValidationState {
    /// Document generation this state is current for.
    generation: u64,
    /// Per node: ancestor product state, or [`NOT_COMPUTED`].
    anc: Vec<u32>,
    /// Per node: the violations its *pass* emitted (for the node itself
    /// and `NoGoverningDefinition` for an unknown-named child).
    viols: Vec<Vec<Violation>>,
    /// Nodes whose pass emitted at least one violation, in id order —
    /// makes report assembly O(violations), not O(document).
    has_viols: BTreeSet<NodeId>,
    /// The root element's name is not a start symbol: the report is the
    /// single `RootNotAllowed` violation and no passes run (matching
    /// the fresh validator's early return).
    root_rejected: bool,
    /// Set when the schema has no relevance product (lock-step
    /// fallback): the full fresh report, recomputed on every
    /// revalidation.
    fallback: Option<BxsdReport>,
    /// Elements whose pass ran during the last
    /// `validate_persistent`/`revalidate` call (the work measure the
    /// incremental engine is accountable to).
    passes: usize,
}

impl ValidationState {
    /// The document generation this state reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether revalidation is actually incremental (`false`: the
    /// schema runs lock-step, so every revalidation is a full run).
    pub fn is_incremental(&self) -> bool {
        self.fallback.is_none()
    }

    /// Elements whose pass was (re)executed by the last
    /// [`CompiledBxsd::validate_persistent`] or
    /// [`CompiledBxsd::revalidate`] call.
    pub fn last_passes(&self) -> usize {
        self.passes
    }

    /// Assembles the current report — byte-identical to
    /// [`CompiledBxsd::validate`] on the same document.
    pub fn report(&self) -> BxsdReport {
        if let Some(r) = &self.fallback {
            return r.clone();
        }
        let mut violations = Vec::new();
        for &n in &self.has_viols {
            violations.extend_from_slice(&self.viols[n.0]);
        }
        // Stable, exactly like the fresh run's canonical ordering; any
        // two equal-node violations come from one pass (module docs).
        violations.sort_by_key(|v| v.node);
        BxsdReport {
            violations,
            matches: BTreeMap::new(),
        }
    }

    /// Grows the SoA arrays to cover nodes the edits appended.
    fn cover(&mut self, n: usize) {
        if self.anc.len() < n {
            self.anc.resize(n, NOT_COMPUTED);
            self.viols.resize(n, Vec::new());
        }
    }

    /// Forgets everything about `node`'s subtree (it was detached).
    fn purge(&mut self, doc: &Document, node: NodeId) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            self.anc[n.0] = NOT_COMPUTED;
            self.viols[n.0].clear();
            self.has_viols.remove(&n);
            stack.extend_from_slice(doc.children(n));
        }
    }
}

/// The validator sink's memo hook for one `validate_persistent` or
/// `revalidate` call: it stores each element's ancestor state as the
/// walk reaches it, prunes the walk at children whose stored state is
/// unchanged, and files violations under their generating pass.
struct PassMemo<'s> {
    state: &'s mut ValidationState,
    /// Elements whose pass ran in this call, so a dirty node inside an
    /// already replayed subtree is not replayed twice.
    visited: HashSet<NodeId>,
}

impl<'s> PassMemo<'s> {
    fn new(state: &'s mut ValidationState) -> Self {
        PassMemo {
            state,
            visited: HashSet::new(),
        }
    }
}

impl Memo<ProductState> for PassMemo<'_> {
    fn descend(&mut self, node: NodeId, q: &ProductState) -> bool {
        std::mem::replace(&mut self.state.anc[node.0], *q) != *q
    }

    fn begin(&mut self, node: NodeId) {
        self.visited.insert(node);
        self.state.passes += 1;
        self.state.viols[node.0].clear();
        self.state.has_viols.remove(&node);
    }

    fn out<'a>(&'a mut self, pass: NodeId, _: &'a mut Vec<Violation>) -> &'a mut Vec<Violation> {
        self.state.has_viols.insert(pass);
        &mut self.state.viols[pass.0]
    }
}

impl CompiledBxsd<'_> {
    /// The opt-in full run: validates `doc` (default options) and
    /// returns the per-node memo that [`Self::revalidate`] replays
    /// edits against. `state.report()` is the validation report.
    pub fn validate_persistent(&self, doc: &Document) -> ValidationState {
        let mut state = ValidationState::default();
        self.full_run(doc, &mut state);
        state
    }

    /// Replays `edits` (an [`xmltree::EditLog`] suffix,
    /// `log.since(state.generation())`) against `state`, re-running
    /// only the passes the edits can have changed, and returns the
    /// updated report — byte-identical to a fresh [`Self::validate`]
    /// of the edited document.
    pub fn revalidate(
        &self,
        doc: &Document,
        state: &mut ValidationState,
        edits: &[(u64, Edit)],
    ) -> BxsdReport {
        state.passes = 0;
        if state.generation == doc.generation() && edits.is_empty() {
            return state.report();
        }
        // Lock-step fallback, a replaced root, or an edit trail that
        // does not reach the document's current generation (the caller
        // cleared the log too early): full fresh run.
        let covered = edits.last().is_some_and(|&(g, _)| g == doc.generation());
        if state.fallback.is_some()
            || !covered
            || edits.iter().any(|&(_, e)| e == Edit::RootReplaced)
        {
            self.full_run(doc, &mut *state);
            return state.report();
        }
        state.cover(doc.len());
        if state.root_rejected {
            // Names are immutable in place, so only RootReplaced (full
            // rerun above) can un-reject the root; the report stays the
            // single RootNotAllowed violation whatever else was edited.
            state.generation = doc.generation();
            return state.report();
        }
        let p = self
            .automata
            .relevance
            .as_deref()
            .expect("incremental state implies a relevance product");

        // Detached subtrees first: their memo is stale, and a Dirty
        // entry pointing into one must be recognized as unreachable.
        for &(_, edit) in edits {
            if let Edit::Detached(n) = edit {
                state.purge(doc, n);
            }
        }
        // Dirty passes, ancestors first (parent ids precede child ids
        // in the arena, for parsed and edited documents alike), so a
        // nested dirty node re-runs with its up-to-date ancestor state.
        let dirty: BTreeSet<NodeId> = edits
            .iter()
            .filter_map(|&(_, e)| match e {
                Edit::Dirty(n) => Some(n),
                _ => None,
            })
            .collect();
        let eng = ProductEngine(p);
        let mut unused = BxsdReport::empty();
        let mut sink = StreamSink::new(self, &eng, false, &mut unused, PassMemo::new(state));
        sink.resolve_names(doc);
        for &n in &dirty {
            if sink.memo.visited.contains(&n) || !is_attached(doc, n) {
                continue;
            }
            let q = sink.memo.state.anc[n.0];
            debug_assert_ne!(q, NOT_COMPUTED, "attached ⇒ memoized");
            sink.replay(doc, n, q);
        }
        state.generation = doc.generation();
        state.report()
    }

    /// Full traversal from the root, rebuilding `state` from scratch.
    fn full_run(&self, doc: &Document, state: &mut ValidationState) {
        state.anc.clear();
        state.viols.clear();
        state.has_viols.clear();
        state.root_rejected = false;
        state.fallback = None;
        state.generation = doc.generation();
        state.passes = 0;
        let Some(p) = self.automata.relevance.as_deref() else {
            // No product ⇒ nothing to memoize; degrade to a stored
            // fresh report (recomputed on every revalidation).
            state.passes = doc.element_count();
            state.fallback = Some(self.validate(doc));
            return;
        };
        assert!(
            (p.n_states() as u64) < u64::from(NOT_COMPUTED),
            "product states collide with the NOT_COMPUTED sentinel"
        );
        state.cover(doc.len());
        let eng = ProductEngine(p);
        let mut unused = BxsdReport::empty();
        let mut sink = StreamSink::new(self, &eng, false, &mut unused, PassMemo::new(state));
        sink.replay_document(doc);
        sink.memo.state.root_rejected = sink.root_rejected;
    }
}

/// Whether `node` is still reachable from the document root (a logged
/// dirty node may since have been carried away by a detach).
fn is_attached(doc: &Document, node: NodeId) -> bool {
    let mut n = node;
    while let Some(parent) = doc.parent(n) {
        n = parent;
    }
    n == doc.root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use relang::Regex;
    use xmltree::builder::elem;
    use xsd::violation::ViolationKind;
    use xsd::{AttributeUse, ContentModel};

    /// The Figure-5-style schema of the validate tests.
    fn example() -> crate::bxsd::Bxsd {
        let mut b = BxsdBuilder::new();
        b.start("document");
        let template = b.ename.intern("template");
        let content = b.ename.intern("content");
        let section = b.ename.intern("section");
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
        b.suffix_rule(
            &["section"],
            ContentModel::new(Regex::star(Regex::sym(section)))
                .with_mixed(true)
                .with_attributes([AttributeUse::required("title")]),
        );
        b.build().unwrap()
    }

    fn doc() -> Document {
        elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("section").attr("title", "Intro")))
            .build()
    }

    /// Drives one edit closure through the incremental engine and
    /// asserts report identity against a fresh validation.
    fn check(schema: &crate::bxsd::Bxsd, doc: &mut Document, edit: impl FnOnce(&mut Document)) {
        let c = CompiledBxsd::new(schema);
        doc.enable_edit_log();
        let mut state = c.validate_persistent(doc);
        assert_eq!(state.report().violations, c.validate(doc).violations);
        let g = state.generation();
        edit(doc);
        let edits = doc.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(doc, &mut state, &edits);
        let want = c.validate(doc);
        assert_eq!(got.violations, want.violations);
        assert_eq!(state.report().violations, want.violations);
    }

    #[test]
    fn attribute_edit_flips_validity_both_ways() {
        let x = example();
        let mut d = doc();
        let section = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("section"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_attribute(section, "title"));
        assert!(!CompiledBxsd::new(&x).validate(&d).is_valid());
        check(&x, &mut d, |d| d.set_attribute(section, "title", "Back"));
        assert!(CompiledBxsd::new(&x).validate(&d).is_valid());
    }

    #[test]
    fn small_edit_reruns_few_passes() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        // Widen the document so a full run is visibly larger.
        for _ in 0..50 {
            let s = d.add_element(content, "section");
            d.set_attribute(s, "title", "t");
        }
        let c = CompiledBxsd::new(&x);
        d.enable_edit_log();
        let mut state = c.validate_persistent(&d);
        let full_passes = state.last_passes();
        let g = state.generation();
        let s = d.iter_elements().last().unwrap();
        d.set_attribute(s, "title", "still fine");
        let edits = d.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(&d, &mut state, &edits);
        assert!(got.is_valid());
        assert_eq!(state.last_passes(), 1, "one dirty leaf, one pass");
        assert!(full_passes > 50);
    }

    #[test]
    fn structural_edits_match_fresh() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        check(&x, &mut d, |d| {
            d.insert_child(content, 0, "zzz");
        });
        let zzz = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("zzz"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_child(content, zzz));
        check(&x, &mut d, |d| {
            let t = d.add_element(content, "section");
            d.add_text(t, "mixed is fine");
        });
    }

    #[test]
    fn root_replacement_falls_back_to_full_run() {
        let x = example();
        let mut d = doc();
        check(&x, &mut d, |d| {
            let src = Document::new("section");
            d.replace_subtree(d.root(), &src, src.root());
        });
        assert!(matches!(
            CompiledBxsd::new(&x).validate(&d).violations[0].kind,
            ViolationKind::RootNotAllowed(_)
        ));
    }

    #[test]
    fn rejected_root_stays_rejected_under_edits() {
        let x = example();
        let mut d = elem("zzz").child(elem("template")).build();
        let template = d.iter_elements().nth(1).unwrap();
        check(&x, &mut d, |d| {
            d.add_element(template, "section");
        });
    }

    #[test]
    fn lockstep_schema_degrades_to_full_runs() {
        let x = example();
        let c = CompiledBxsd::with_budget(&x, 0);
        let mut d = doc();
        d.enable_edit_log();
        let mut state = c.validate_persistent(&d);
        assert!(!state.is_incremental());
        assert_eq!(state.report().violations, c.validate(&d).violations);
        let g = state.generation();
        let section = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("section"))
            .unwrap();
        d.remove_attribute(section, "title");
        let edits = d.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(&d, &mut state, &edits);
        assert_eq!(got.violations, c.validate(&d).violations);
        assert!(!got.is_valid());
    }

    #[test]
    fn stale_dirty_entry_on_detached_subtree_is_skipped() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        let section = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("section"))
            .unwrap();
        check(&x, &mut d, |d| {
            // Dirty the section, then detach it: the Dirty entry must
            // not be replayed against the removed subtree.
            d.remove_attribute(section, "title");
            d.remove_child(content, section);
        });
        assert!(CompiledBxsd::new(&x).validate(&d).is_valid());
    }

    #[test]
    fn unknown_name_poisoning_is_replayed() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        // Unknown first child dead-ends its following siblings; both
        // inserting and removing it must reproduce the fresh report.
        check(&x, &mut d, |d| {
            d.insert_child(content, 0, "mystery");
        });
        let mystery = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("mystery"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_child(content, mystery));
    }
}
