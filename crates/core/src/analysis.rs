//! Whole-schema decision procedures: satisfiability, inclusion, and
//! equivalence — with witness *documents*.
//!
//! The lint pass (BX001/BX002) decides properties of single rules; this
//! module decides properties of whole schemas:
//!
//! * [`analyze_sat`] — does *any* document conform to a schema? Which
//!   rules are reachable but admit no finite conforming subtree in any
//!   context ("unsatisfiable in context", surfaced as lint BX010)?
//! * [`diff_bxsd`] — do two schemas accept the same document set? If
//!   not, in which direction do they differ, and on which documents?
//!
//! Both questions reduce to a search over **ancestor contexts**: tuples
//! of per-rule ancestor-DFA states, explored exactly the way a document
//! grows (the child alphabet at each context is what the relevant rule's
//! content model allows — Definition 1's priority semantics). On top of
//! that context space sits a *completability* fixpoint in the style of a
//! least-fixed-point emptiness test for tree automata: a context is
//! completable when its rule's local constraints (text, required
//! attributes) are satisfiable and its content model accepts some word
//! over completable child contexts. The fixpoint round of each context
//! bounds the height of its minimal conforming subtree, which makes
//! witness synthesis terminating and canonical.
//!
//! For the two-schema diff, both schemas are remapped onto one shared
//! alphabet and the *joint* context space (pairs of per-schema contexts)
//! is explored along symbols both schemas can realize. At every joint
//! context the two selected content models are compared on three
//! channels — child sequences ([`difference_witness_dfa`], restricted to
//! subtrees the first schema can complete), text value spaces
//! ([`value_space_witness`] probes), and attribute declarations — and
//! every difference found is *lifted* into a complete minimal XML
//! document, synthesized top-down through the ancestor DFAs, that is
//! then **verified** to validate against exactly one of the two input
//! schemas before it is reported. Structural channels are exact;
//! value-space channels are probe-based (a deterministic candidate
//! family covering enumerations, numeric/lexicographic bounds and their
//! off-by-one boundaries, and length facets), so a `different` verdict
//! is always sound while an `equivalent` verdict is exact up to those
//! probes.
//!
//! All automata constructions go through the caller's
//! [`AutomataCache`], and the per-context comparisons run on
//! [`map_indexed`] with deterministic, path-ordered output: reports are
//! byte-identical for every worker count.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use relang::cache::AutomataCache;
use relang::ops::language::{difference_witness_dfa, regex_to_dfa};
use relang::ops::product::product2;
use relang::ops::subset::SubsetInterner;
use relang::{Alphabet, Dfa, Regex, Sym};
use xmltree::Document;
use xsd::simple_types::{admits, canonical_value, value_space_witness, Facets};
use xsd::{AttributeUse, ContentModel, SimpleType};

use crate::batch::map_indexed;
use crate::bxsd::{Bxsd, Rule};
use crate::validate::{CompiledBxsd, ValidateOptions, DEFAULT_PRODUCT_BUDGET};

/// Sentinel for "no context": a child symbol the exploration never took.
const NO_CTX: u32 = u32::MAX;

/// Tuning knobs for the whole-schema analyses.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// State budget for each schema's ancestor-context space (tuples of
    /// per-rule ancestor-DFA states). Mirrors the lint reachability
    /// budget.
    pub ctx_budget: usize,
    /// State budget for the joint (pairs-of-contexts) exploration of
    /// [`diff_bxsd`].
    pub pair_budget: usize,
    /// Worker count for the per-context comparisons (`<= 1` runs inline
    /// on the calling thread). Output is identical for every value.
    pub jobs: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            ctx_budget: 1 << 16,
            pair_budget: 1 << 16,
            jobs: 1,
        }
    }
}

/// An analysis that could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// A state budget was exceeded; the result would not be trustworthy.
    Budget {
        /// Which exploration blew up (`"context"` or `"pair"`).
        what: &'static str,
        /// The budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Budget { what, budget } => write!(
                f,
                "analysis exceeded its {what}-space budget of {budget} states"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Which input schema a witness document is valid against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Valid against the first schema, invalid against the second.
    OnlyInA,
    /// Valid against the second schema, invalid against the first.
    OnlyInB,
}

impl Direction {
    /// Stable label used by both CLI renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::OnlyInA => "only-in-a",
            Direction::OnlyInB => "only-in-b",
        }
    }
}

/// The difference channel a witness came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// A root element name allowed by one schema only.
    Root,
    /// A child sequence accepted by one content model only.
    Children,
    /// A text value accepted by one content model only.
    Text,
    /// An attribute requirement / declaration / value-space difference.
    Attribute,
}

impl WitnessKind {
    /// Stable label used by both CLI renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            WitnessKind::Root => "root",
            WitnessKind::Children => "children",
            WitnessKind::Text => "text",
            WitnessKind::Attribute => "attribute",
        }
    }
}

/// One verified difference between two schemas: a complete document
/// that validates against exactly one of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Which schema accepts [`Witness::document`].
    pub direction: Direction,
    /// Ancestor path (element names, root first) of the node where the
    /// difference manifests.
    pub path: Vec<String>,
    /// The difference channel.
    pub kind: WitnessKind,
    /// Human-readable explanation of the difference.
    pub message: String,
    /// The serialized witness document.
    pub document: String,
}

impl Witness {
    /// The ancestor path rendered as `/a/b/c`.
    pub fn path_display(&self) -> String {
        format!("/{}", self.path.join("/"))
    }
}

/// Evolution classification of a schema change from A (old) to B (new).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evolution {
    /// Both schemas accept exactly the same documents.
    Equivalent,
    /// Every A-valid document is still B-valid (B only widens): `A ⊆ B`.
    BackwardCompatible,
    /// Every B-valid document was already A-valid (B only narrows):
    /// `B ⊆ A`.
    ForwardCompatible,
    /// Each schema accepts documents the other rejects.
    Incomparable,
}

impl Evolution {
    /// Stable label used by both CLI renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Evolution::Equivalent => "equivalent",
            Evolution::BackwardCompatible => "backward_compatible",
            Evolution::ForwardCompatible => "forward_compatible",
            Evolution::Incomparable => "incomparable",
        }
    }
}

/// Size and cache counters for one [`diff_bxsd`] run. The `*_us` stage
/// timings are wall-clock and excluded from the CLI report formats,
/// which must stay byte-stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Ancestor contexts explored for the first schema.
    pub contexts_a: usize,
    /// Ancestor contexts explored for the second schema.
    pub contexts_b: usize,
    /// Joint context pairs compared (both directions).
    pub pairs: usize,
    /// Witness candidates that failed cross-validation and were dropped
    /// (probe artifacts); nonzero values are surfaced, never hidden.
    pub dropped: usize,
    /// Automata-cache hits during this run.
    pub cache_hits: u64,
    /// Automata-cache misses during this run.
    pub cache_misses: u64,
    /// Wall-clock µs building the two context spaces (bench only).
    pub build_us: u64,
    /// Wall-clock µs exploring the joint pair spaces (bench only).
    pub explore_us: u64,
    /// Wall-clock µs comparing pairs and lifting witnesses (bench only).
    pub compare_us: u64,
}

/// The outcome of comparing two schemas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffReport {
    /// Evolution classification (first schema = old, second = new).
    pub evolution: Evolution,
    /// Number of verified witnesses valid only in the first schema.
    pub a_only: usize,
    /// Number of verified witnesses valid only in the second schema.
    pub b_only: usize,
    /// All verified witnesses: first-schema-only ones first, each
    /// direction in canonical (shortest path, then channel) order.
    pub witnesses: Vec<Witness>,
    /// Size and timing counters.
    pub stats: DiffStats,
}

impl DiffReport {
    /// Whether the two schemas were found equivalent.
    pub fn equivalent(&self) -> bool {
        self.evolution == Evolution::Equivalent
    }
}

/// A rule that is reachable but admits no finite conforming subtree at
/// some realizable context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatRule {
    /// Rule index in the BXSD's ordered rule list.
    pub rule: usize,
    /// The shortest ancestor path (element names, root first) of a
    /// context where the rule is relevant but uncompletable.
    pub path: Vec<String>,
}

/// The outcome of a satisfiability analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatReport {
    /// Whether any document conforms to the schema.
    pub satisfiable: bool,
    /// A minimal conforming document, when one exists.
    pub witness: Option<String>,
    /// Rules that are reachable but vacuous in context (lint BX010).
    pub unsat_rules: Vec<UnsatRule>,
    /// Ancestor contexts explored.
    pub contexts: usize,
}

// ---------------------------------------------------------------------
// Node semantics: what a rule's content model means for one node
// ---------------------------------------------------------------------

/// The text constraint a relevant rule places on a node, mirroring the
/// validator exactly (the sink's frame pop / `check_simple_text`).
#[derive(Clone, Debug)]
enum TextSpec {
    /// Any text (mixed or open content, or an unconstrained node).
    Any,
    /// No significant text (element-only content).
    Forbidden,
    /// The trimmed concatenated text must inhabit this value space.
    Typed(SimpleType, Facets),
}

/// The attribute constraint: open models skip attribute checking
/// entirely, closed models enforce their (name-sorted) declarations.
#[derive(Clone, Debug)]
enum AttrSpec {
    Open,
    Closed(Vec<AttributeUse>),
}

/// Per-rule analysis data: children language, node-local constraints,
/// and the child alphabet to explore.
struct RuleInfo {
    /// Complete DFA of the children language over the shared alphabet.
    children: Arc<Dfa>,
    /// Sorted child symbols the exploration follows from this rule.
    child_syms: Vec<Sym>,
    text: TextSpec,
    attrs: AttrSpec,
    /// Whether text + required attributes are locally satisfiable.
    local_ok: bool,
}

fn text_spec(content: &ContentModel) -> TextSpec {
    if let Some(st) = content.simple_content {
        TextSpec::Typed(st, content.simple_facets.clone())
    } else if content.mixed || content.open {
        TextSpec::Any
    } else {
        TextSpec::Forbidden
    }
}

fn rule_info(rule: &Rule, n_syms: usize, cache: &mut AutomataCache) -> RuleInfo {
    let content = &rule.content;
    let children = if content.simple_content.is_some() {
        // Simple content admits no element children at all.
        Arc::new(complete_clone(&regex_to_dfa(&Regex::Epsilon, n_syms)))
    } else {
        Arc::new(complete_clone(&cache.raw_dfa(&content.regex, n_syms)))
    };
    let child_syms: Vec<Sym> = if content.simple_content.is_some() {
        Vec::new()
    } else {
        let set: BTreeSet<Sym> = content.regex.symbols().into_iter().collect();
        set.into_iter().collect()
    };
    let text = text_spec(content);
    let attrs = if content.open {
        AttrSpec::Open
    } else {
        AttrSpec::Closed(content.attributes.clone())
    };
    let local_ok = local_ok(&text, &attrs);
    RuleInfo {
        children,
        child_syms,
        text,
        attrs,
        local_ok,
    }
}

/// Whether a node can satisfy the rule's text and required-attribute
/// constraints at all.
fn local_ok(text: &TextSpec, attrs: &AttrSpec) -> bool {
    let text_ok = match text {
        TextSpec::Typed(st, f) => canonical_value(*st, f).is_some(),
        _ => true,
    };
    let attrs_ok = match attrs {
        AttrSpec::Open => true,
        AttrSpec::Closed(list) => list
            .iter()
            .filter(|a| a.required)
            .all(|a| canonical_value(a.simple_type, &a.facets).is_some()),
    };
    text_ok && attrs_ok
}

fn complete_clone(d: &Dfa) -> Dfa {
    let mut c = d.clone();
    c.complete();
    c
}

/// The complete DFA of `allowed*` over `n_syms` symbols: one accepting
/// state looping on every allowed symbol, a sink for the rest.
fn star_dfa(n_syms: usize, allowed: &[Sym]) -> Dfa {
    let mut d = Dfa::new(n_syms, 2, 0);
    for a in 0..n_syms {
        d.set_transition(0, Sym(a as u32), Some(1));
        d.set_transition(1, Sym(a as u32), Some(1));
    }
    for &s in allowed {
        d.set_transition(0, s, Some(0));
    }
    d.set_final(0, true);
    d
}

// ---------------------------------------------------------------------
// The context space of one schema
// ---------------------------------------------------------------------

/// One ancestor context: a tuple of per-rule ancestor-DFA states,
/// reached by some optimistically-realizable path.
struct Ctx {
    /// The relevant rule at this context (`None` = unconstrained node).
    rule: Option<usize>,
    /// Successor context per shared symbol ([`NO_CTX`] = not explored:
    /// the relevant rule's content model never emits that child).
    succ: Vec<u32>,
    /// Predecessor context + the symbol taken — ([`NO_CTX`], root
    /// symbol) for root contexts. First discovery wins, so the implied
    /// path is the length-lexicographically least.
    pred: (u32, Sym),
    /// Whether a finite conforming subtree exists at this context.
    comp: bool,
    /// Fixpoint round at which completability was established (bounds
    /// the minimal subtree height; `u32::MAX` when uncompletable).
    round: u32,
}

/// The explored ancestor-context space of one schema over a (possibly
/// shared) alphabet, with completability annotations.
pub(crate) struct SchemaSpace {
    n_syms: usize,
    /// `(root symbol, context after it)`, in ascending symbol order.
    roots: Vec<(Sym, u32)>,
    rules: Vec<RuleInfo>,
    /// Pseudo-rule for unconstrained nodes: children `(own alphabet)*`,
    /// any text, any attributes.
    unconstrained: RuleInfo,
    ctxs: Vec<Ctx>,
}

impl SchemaSpace {
    /// Explores the schema's ancestor contexts exactly the way a
    /// document grows and runs the completability fixpoint. `own_syms`
    /// is the subset of the alphabet the schema itself declares (its
    /// effective child universe — foreign names have no governing
    /// definition); `budget` bounds the context count.
    fn build(
        bxsd: &Bxsd,
        n_syms: usize,
        own_syms: Vec<Sym>,
        budget: usize,
        cache: &mut AutomataCache,
    ) -> Result<SchemaSpace, AnalysisError> {
        let n_rules = bxsd.rules.len();
        let anc: Vec<Arc<Dfa>> = bxsd
            .rules
            .iter()
            .map(|r| cache.min_dfa(&r.ancestor, n_syms))
            .collect();
        let mut rules: Vec<RuleInfo> = bxsd
            .rules
            .iter()
            .map(|r| rule_info(r, n_syms, cache))
            .collect();
        // Open models explore every own symbol, whatever their regex
        // (the validator accepts only own names even under `open`).
        for (info, rule) in rules.iter_mut().zip(&bxsd.rules) {
            if rule.content.open {
                info.child_syms = own_syms.clone();
            }
        }
        let unconstrained = RuleInfo {
            children: Arc::new(star_dfa(n_syms, &own_syms)),
            child_syms: own_syms.clone(),
            text: TextSpec::Any,
            attrs: AttrSpec::Open,
            local_ok: true,
        };

        let mut interner = SubsetInterner::with_capacity(64);
        let mut ctxs: Vec<Ctx> = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut roots: Vec<(Sym, u32)> = Vec::new();
        let root_tuple: Vec<u32> = anc.iter().map(|d| d.initial() as u32).collect();
        let step = |from: &[u32], sym: Sym, into: &mut Vec<u32>| {
            into.clear();
            for (&q, d) in from.iter().zip(&anc) {
                let t = d
                    .transition(q as usize, sym)
                    .expect("minimal ancestor DFA is total");
                into.push(t as u32);
            }
        };
        let mut succ_tuple: Vec<u32> = Vec::with_capacity(n_rules);
        for &s in &bxsd.start {
            step(&root_tuple, s, &mut succ_tuple);
            let before = interner.len();
            let id = interner.intern(&succ_tuple);
            if id as usize == before {
                ctxs.push(Ctx {
                    rule: None,
                    succ: Vec::new(),
                    pred: (NO_CTX, s),
                    comp: false,
                    round: u32::MAX,
                });
                queue.push_back(id);
            }
            roots.push((s, id));
        }
        let mut cur: Vec<u32> = Vec::with_capacity(n_rules);
        while let Some(id) = queue.pop_front() {
            if interner.len() > budget {
                return Err(AnalysisError::Budget {
                    what: "context",
                    budget,
                });
            }
            cur.clear();
            cur.extend_from_slice(interner.get(id as usize));
            // Largest matching rule index = the relevant rule.
            let relevant = (0..n_rules)
                .rev()
                .find(|&i| anc[i].is_final(cur[i] as usize));
            let child_syms = match relevant {
                Some(i) => &rules[i].child_syms,
                None => &unconstrained.child_syms,
            };
            let mut succ = vec![NO_CTX; n_syms];
            for &s in child_syms {
                step(&cur, s, &mut succ_tuple);
                let before = interner.len();
                let next = interner.intern(&succ_tuple);
                if next as usize == before {
                    ctxs.push(Ctx {
                        rule: None,
                        succ: Vec::new(),
                        pred: (id, s),
                        comp: false,
                        round: u32::MAX,
                    });
                    queue.push_back(next);
                }
                succ[s.index()] = next;
            }
            ctxs[id as usize].rule = relevant;
            ctxs[id as usize].succ = succ;
        }

        let mut space = SchemaSpace {
            n_syms,
            roots,
            rules,
            unconstrained,
            ctxs,
        };
        space.completability();
        Ok(space)
    }

    fn info(&self, rule: Option<usize>) -> &RuleInfo {
        match rule {
            Some(i) => &self.rules[i],
            None => &self.unconstrained,
        }
    }

    /// The least-fixed-point completability pass. Round `R` establishes
    /// contexts whose children word can be drawn entirely from contexts
    /// established in rounds `< R`, so rounds bound subtree height.
    fn completability(&mut self) {
        let mut round: u32 = 0;
        loop {
            let mut changed = false;
            for id in 0..self.ctxs.len() {
                if self.ctxs[id].comp {
                    continue;
                }
                let info = self.info(self.ctxs[id].rule);
                if !info.local_ok {
                    continue;
                }
                let dfa = Arc::clone(&info.children);
                let ok = accepts_restricted(&dfa, |s| {
                    let next = self.ctxs[id].succ.get(s.index()).copied().unwrap_or(NO_CTX);
                    next != NO_CTX
                        && self.ctxs[next as usize].comp
                        && self.ctxs[next as usize].round < round
                });
                if ok {
                    self.ctxs[id].comp = true;
                    self.ctxs[id].round = round;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            round += 1;
        }
    }

    /// The ancestor path (length-lexicographically least) of a context.
    fn path_syms(&self, mut id: u32) -> Vec<Sym> {
        let mut rev = Vec::new();
        loop {
            let (pred, sym) = self.ctxs[id as usize].pred;
            rev.push(sym);
            if pred == NO_CTX {
                break;
            }
            id = pred;
        }
        rev.reverse();
        rev
    }

    /// The children DFA at a context, with transitions on symbols whose
    /// child context is uncompletable (or unexplored) removed — the
    /// language of child sequences this schema can actually realize.
    fn restricted_children(&self, id: u32) -> Dfa {
        let ctx = &self.ctxs[id as usize];
        let mut d = (*self.info(ctx.rule).children).clone();
        for a in 0..self.n_syms {
            let next = ctx.succ.get(a).copied().unwrap_or(NO_CTX);
            let viable = next != NO_CTX && self.ctxs[next as usize].comp;
            if !viable {
                for q in 0..d.n_states() {
                    d.set_transition(q, Sym(a as u32), None);
                }
            }
        }
        d
    }

    /// The canonical minimal children word at a completable context:
    /// shortest (ties lexicographic by symbol) over child contexts
    /// established at strictly earlier fixpoint rounds, so recursive
    /// synthesis terminates.
    fn min_word(&self, id: u32) -> Vec<Sym> {
        let ctx = &self.ctxs[id as usize];
        debug_assert!(ctx.comp, "min_word on uncompletable context");
        let dfa = &self.info(ctx.rule).children;
        shortest_word_restricted(dfa, |s| {
            let next = ctx.succ.get(s.index()).copied().unwrap_or(NO_CTX);
            next != NO_CTX
                && self.ctxs[next as usize].comp
                && self.ctxs[next as usize].round < ctx.round
        })
        .expect("completable context has a minimal children word")
    }

    /// Builds the minimal conforming subtree rooted at `node`, whose
    /// context is `id`: required attributes and typed text take their
    /// canonical values, children the canonical minimal word.
    fn fill_node(&self, doc: &mut Document, node: xmltree::NodeId, id: u32, names: &Alphabet) {
        let info = self.info(self.ctxs[id as usize].rule);
        apply_local(doc, node, info, None);
        for s in self.min_word(id) {
            let child = doc.add_element(node, names.name(s));
            let next = self.ctxs[id as usize].succ[s.index()];
            self.fill_node(doc, child, next, names);
        }
    }

    /// The minimal conforming document rooted at `root_sym` (whose root
    /// context is `root_ctx`).
    fn synth_doc(&self, root_sym: Sym, root_ctx: u32, names: &Alphabet) -> Document {
        let mut doc = Document::new(names.name(root_sym));
        let root = doc.root();
        self.fill_node(&mut doc, root, root_ctx, names);
        doc
    }
}

/// Sets a node's required attributes and typed text to their canonical
/// values. `text_override` replaces the canonical text (channel
/// witnesses); an empty value means "no text node".
fn apply_local(
    doc: &mut Document,
    node: xmltree::NodeId,
    info: &RuleInfo,
    text_override: Option<&str>,
) {
    if let AttrSpec::Closed(attrs) = &info.attrs {
        for a in attrs.iter().filter(|a| a.required) {
            let v = canonical_value(a.simple_type, &a.facets)
                .expect("locally satisfiable rule has canonical attribute values");
            doc.set_attribute(node, &a.name, &v);
        }
    }
    let text = match text_override {
        Some(v) => Some(v.to_string()),
        None => match &info.text {
            TextSpec::Typed(st, f) => {
                Some(canonical_value(*st, f).expect("locally satisfiable rule has canonical text"))
            }
            _ => None,
        },
    };
    if let Some(v) = text {
        if !v.is_empty() {
            doc.add_text(node, &v);
        }
    }
}

// ---------------------------------------------------------------------
// Restricted-DFA word search
// ---------------------------------------------------------------------

/// Whether the DFA accepts any word using only `allowed` symbols.
fn accepts_restricted(d: &Dfa, allowed: impl Fn(Sym) -> bool) -> bool {
    shortest_word_restricted(d, allowed).is_some()
}

/// The canonical (shortest, ties lexicographic by symbol id) word the
/// DFA accepts using only `allowed` symbols.
fn shortest_word_restricted(d: &Dfa, allowed: impl Fn(Sym) -> bool) -> Option<Vec<Sym>> {
    let n = d.n_states();
    let mut pred: Vec<Option<(usize, Sym)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[d.initial()] = true;
    queue.push_back(d.initial());
    let reconstruct = |mut q: usize, pred: &[Option<(usize, Sym)>]| {
        let mut word = Vec::new();
        while let Some((p, s)) = pred[q] {
            word.push(s);
            q = p;
        }
        word.reverse();
        word
    };
    if d.is_final(d.initial()) {
        return Some(Vec::new());
    }
    while let Some(q) = queue.pop_front() {
        for a in 0..d.n_syms() {
            let s = Sym(a as u32);
            if !allowed(s) {
                continue;
            }
            let Some(t) = d.transition(q, s) else {
                continue;
            };
            if seen[t] {
                continue;
            }
            seen[t] = true;
            pred[t] = Some((q, s));
            if d.is_final(t) {
                return Some(reconstruct(t, &pred));
            }
            queue.push_back(t);
        }
    }
    None
}

/// The canonical shortest accepted word that contains `through` at
/// least once: BFS over (state, seen-flag) pairs, symbols ascending.
fn shortest_word_through(d: &Dfa, through: Sym) -> Option<Vec<Sym>> {
    let n = d.n_states();
    let idx = |q: usize, seen_sym: bool| q * 2 + usize::from(seen_sym);
    let mut pred: Vec<Option<(usize, Sym)>> = vec![None; n * 2];
    let mut seen = vec![false; n * 2];
    let mut queue = VecDeque::new();
    let start = idx(d.initial(), false);
    seen[start] = true;
    queue.push_back(start);
    while let Some(cur) = queue.pop_front() {
        let (q, s_seen) = (cur / 2, cur % 2 == 1);
        for a in 0..d.n_syms() {
            let s = Sym(a as u32);
            let Some(t) = d.transition(q, s) else {
                continue;
            };
            let next = idx(t, s_seen || s == through);
            if seen[next] {
                continue;
            }
            seen[next] = true;
            pred[next] = Some((cur, s));
            if d.is_final(t) && (s_seen || s == through) {
                let mut word = Vec::new();
                let mut at = next;
                while let Some((p, sym)) = pred[at] {
                    word.push(sym);
                    at = p;
                }
                word.reverse();
                return Some(word);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Per-symbol liveness in a DFA: `true` when some transition on the
/// symbol links a reachable state to a state that can still reach a
/// final state — i.e. the symbol occurs in some accepted word.
fn live_syms(d: &Dfa) -> Vec<bool> {
    let n = d.n_states();
    let mut reach = vec![false; n];
    for q in d.reachable() {
        reach[q] = true;
    }
    // Co-reachability by reverse BFS from the final states.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for q in 0..n {
        for a in 0..d.n_syms() {
            if let Some(t) = d.transition(q, Sym(a as u32)) {
                rev[t].push(q);
            }
        }
    }
    let mut co = vec![false; n];
    let mut queue: VecDeque<usize> = (0..n).filter(|&q| d.is_final(q)).collect();
    for &q in &queue {
        co[q] = true;
    }
    while let Some(q) = queue.pop_front() {
        for &p in &rev[q] {
            if !co[p] {
                co[p] = true;
                queue.push_back(p);
            }
        }
    }
    let mut live = vec![false; d.n_syms()];
    for q in (0..n).filter(|&q| reach[q]) {
        for (a, l) in live.iter_mut().enumerate() {
            if !*l {
                if let Some(t) = d.transition(q, Sym(a as u32)) {
                    *l = co[t];
                }
            }
        }
    }
    live
}

// ---------------------------------------------------------------------
// Shared-alphabet remapping
// ---------------------------------------------------------------------

/// Remaps a schema onto the shared alphabet (which must already contain
/// every name of `src`), returning the remapped BXSD and its own
/// symbols in the shared numbering.
fn remap_bxsd(src: &Bxsd, shared: &Alphabet) -> (Bxsd, Vec<Sym>) {
    let map: Vec<Sym> = src
        .ename
        .symbols()
        .map(|s| {
            shared
                .lookup(src.ename.name(s))
                .expect("shared alphabet contains every schema name")
        })
        .collect();
    let mut f = |s: Sym| map[s.index()];
    let rules = src
        .rules
        .iter()
        .map(|r| Rule {
            ancestor: r.ancestor.map_symbols(&mut f),
            content: ContentModel {
                regex: r.content.regex.map_symbols(&mut f),
                ..r.content.clone()
            },
        })
        .collect();
    let start = src.start.iter().map(|&s| map[s.index()]).collect();
    let mut own: Vec<Sym> = map.clone();
    own.sort_unstable();
    own.dedup();
    (Bxsd::new_unchecked(shared.clone(), start, rules), own)
}

// ---------------------------------------------------------------------
// Channel comparisons
// ---------------------------------------------------------------------

/// A text value accepted on the `a` side but rejected on the `b` side,
/// with an explanation. Probe-based for [`TextSpec::Typed`] pairs.
fn text_witness(a: &TextSpec, b: &TextSpec) -> Option<(String, String)> {
    let any = Facets::default();
    let empty_only = Facets {
        enumeration: vec![String::new()],
        ..Facets::default()
    };
    match (a, b) {
        (_, TextSpec::Any) => None,
        (TextSpec::Forbidden, TextSpec::Forbidden) => None,
        (TextSpec::Any, TextSpec::Forbidden) => Some((
            "x".to_string(),
            "text content is allowed here but the other schema forbids it".to_string(),
        )),
        (TextSpec::Typed(sa, fa), TextSpec::Forbidden) => {
            // Any nonempty value of A's space is significant text B bans.
            let v = value_space_witness((*sa, fa), (SimpleType::String, &empty_only))?;
            Some((
                v.clone(),
                format!("text value {v:?} is accepted here but the other schema forbids text"),
            ))
        }
        (TextSpec::Any, TextSpec::Typed(sb, fb)) => {
            if !admits(*sb, fb, "") {
                return Some((
                    String::new(),
                    format!(
                        "empty text is accepted here but the other schema requires a valid {}",
                        sb.qname()
                    ),
                ));
            }
            let v = value_space_witness((SimpleType::String, &any), (*sb, fb))?;
            Some((
                v.clone(),
                format!(
                    "text value {v:?} is accepted here but is not a valid {} for the other schema",
                    sb.qname()
                ),
            ))
        }
        (TextSpec::Forbidden, TextSpec::Typed(sb, fb)) => (!admits(*sb, fb, "")).then(|| {
            (
                String::new(),
                format!(
                    "element-only content is accepted here but the other schema requires a \
                     valid {}",
                    sb.qname()
                ),
            )
        }),
        (TextSpec::Typed(sa, fa), TextSpec::Typed(sb, fb)) => {
            if admits(*sa, fa, "") && !admits(*sb, fb, "") {
                return Some((
                    String::new(),
                    format!(
                        "empty text is a valid {} here but not a valid {} for the other schema",
                        sa.qname(),
                        sb.qname()
                    ),
                ));
            }
            let v = value_space_witness((*sa, fa), (*sb, fb))?;
            Some((
                v.clone(),
                format!(
                    "text value {v:?} is a valid {} here but not a valid {} for the other schema",
                    sa.qname(),
                    sb.qname()
                ),
            ))
        }
    }
}

/// One attribute-channel difference: how to decorate the leaf node and
/// what to say about it.
struct AttrDiff {
    /// Attributes to set on top of the canonical required ones.
    set: Vec<(String, String)>,
    message: String,
}

/// Attribute differences the `a` side can realize against the `b`
/// side's declarations.
fn attr_witnesses(a: &AttrSpec, b: &AttrSpec) -> Vec<AttrDiff> {
    let AttrSpec::Closed(battrs) = b else {
        return Vec::new(); // open side accepts anything
    };
    let mut out = Vec::new();
    let a_forces = |name: &str| match a {
        AttrSpec::Open => false,
        AttrSpec::Closed(aattrs) => aattrs.iter().any(|x| x.name == name && x.required),
    };
    // 1. Attributes the other schema requires but this side does not:
    //    the minimal node here simply omits them.
    let missing: Vec<&str> = battrs
        .iter()
        .filter(|x| x.required && !a_forces(&x.name))
        .map(|x| x.name.as_str())
        .collect();
    if !missing.is_empty() {
        out.push(AttrDiff {
            set: Vec::new(),
            message: format!(
                "the other schema requires attribute(s) {} that are optional or undeclared here",
                missing
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        });
    }
    // 2. An attribute this side may carry that the other schema does
    //    not declare at all.
    let declared_in_b = |name: &str| battrs.iter().any(|x| x.name == name);
    let undeclared = match a {
        AttrSpec::Closed(aattrs) => aattrs
            .iter()
            .filter(|x| !declared_in_b(&x.name))
            .find_map(|x| canonical_value(x.simple_type, &x.facets).map(|v| (x.name.clone(), v))),
        AttrSpec::Open => {
            // Open content: invent a fresh name the other side rejects.
            (0..)
                .map(|i| {
                    if i == 0 {
                        "x".to_string()
                    } else {
                        format!("x{i}")
                    }
                })
                .find(|n| !declared_in_b(n))
                .map(|n| (n, "x".to_string()))
        }
    };
    if let Some((name, value)) = undeclared {
        out.push(AttrDiff {
            set: vec![(name.clone(), value)],
            message: format!(
                "attribute \"{name}\" is allowed here but undeclared in the other schema"
            ),
        });
    }
    // 3. A declared-on-both attribute whose value space is wider here.
    for battr in battrs {
        let (sa, fa_owned);
        let fa: &Facets = match a {
            AttrSpec::Open => {
                sa = SimpleType::String;
                fa_owned = Facets::default();
                &fa_owned
            }
            AttrSpec::Closed(aattrs) => match aattrs.iter().find(|x| x.name == battr.name) {
                Some(x) => {
                    sa = x.simple_type;
                    &x.facets
                }
                None => continue, // this side cannot carry it at all
            },
        };
        if let Some(v) = value_space_witness((sa, fa), (battr.simple_type, &battr.facets)) {
            out.push(AttrDiff {
                set: vec![(battr.name.clone(), v.clone())],
                message: format!(
                    "attribute \"{}\" value {v:?} is accepted here but not a valid {} for the \
                     other schema",
                    battr.name,
                    battr.simple_type.qname()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// The joint (pair) exploration and witness lifting
// ---------------------------------------------------------------------

/// One joint context of the two schemas, plus the discovery edge that
/// makes its canonical path reconstructible.
struct PairNode {
    /// Context id in the positive (witness-accepting) schema's space.
    ta: u32,
    /// Context id in the negative schema's space.
    tb: u32,
    /// Discovery predecessor (pair index; [`NO_CTX`] for roots).
    pred: u32,
    /// The symbol taken from the predecessor (the root name for roots).
    sym: Sym,
}

/// One direction of the diff: everything needed to compare pairs and
/// lift witnesses, shared read-only across workers.
struct DirectionPass<'x> {
    pos: &'x SchemaSpace,
    neg: &'x SchemaSpace,
    names: &'x Alphabet,
    pos_compiled: &'x CompiledBxsd<'x>,
    neg_compiled: &'x CompiledBxsd<'x>,
    direction: Direction,
}

impl DirectionPass<'_> {
    /// Reconstructs a pair's canonical ancestor path.
    fn pair_path(&self, pairs: &[PairNode], mut idx: usize) -> Vec<Sym> {
        let mut rev = Vec::new();
        loop {
            rev.push(pairs[idx].sym);
            if pairs[idx].pred == NO_CTX {
                break;
            }
            idx = pairs[idx].pred as usize;
        }
        rev.reverse();
        rev
    }

    /// The joint children automaton at a pair: the positive side's
    /// realizable child sequences intersected with the negative side's
    /// accepted ones. Symbols live in it are safe to descend through.
    fn joint_children(&self, p: &PairNode) -> Dfa {
        let ra = self.pos.restricted_children(p.ta);
        let rb = &self.neg.info(self.neg.ctxs[p.tb as usize].rule).children;
        product2(&ra, rb, |x, y| x && y)
    }

    /// Lifts a leaf difference into a complete document: spine nodes
    /// take minimal jointly-valid children words so the difference
    /// manifests exactly at the leaf, off-spine subtrees are minimal
    /// positive-schema synthesis.
    fn lift(
        &self,
        pairs: &[PairNode],
        leaf: usize,
        leaf_children: &[Sym],
        leaf_text: Option<&str>,
        leaf_attrs: &[(String, String)],
    ) -> Option<Document> {
        let mut chain = Vec::new();
        let mut at = leaf;
        loop {
            chain.push(at);
            if pairs[at].pred == NO_CTX {
                break;
            }
            at = pairs[at].pred as usize;
        }
        chain.reverse();
        let mut doc = Document::new(self.names.name(pairs[chain[0]].sym));
        let mut node = doc.root();
        for (k, &pi) in chain.iter().enumerate() {
            let p = &pairs[pi];
            let a_ctx = &self.pos.ctxs[p.ta as usize];
            let info = self.pos.info(a_ctx.rule);
            if k + 1 < chain.len() {
                apply_local(&mut doc, node, info, None);
                let next_sym = pairs[chain[k + 1]].sym;
                let word = shortest_word_through(&self.joint_children(p), next_sym)?;
                let mut spine_child = None;
                for s in word {
                    let child = doc.add_element(node, self.names.name(s));
                    if spine_child.is_none() && s == next_sym {
                        spine_child = Some(child);
                    } else {
                        let next = a_ctx.succ[s.index()];
                        self.pos.fill_node(&mut doc, child, next, self.names);
                    }
                }
                node = spine_child?;
            } else {
                apply_local(&mut doc, node, info, leaf_text);
                for (name, value) in leaf_attrs {
                    doc.set_attribute(node, name, value);
                }
                for &s in leaf_children {
                    let child = doc.add_element(node, self.names.name(s));
                    let next = a_ctx.succ[s.index()];
                    self.pos.fill_node(&mut doc, child, next, self.names);
                }
            }
        }
        Some(doc)
    }

    /// Validates a candidate against both original schemas; only
    /// documents valid in exactly the positive one become witnesses.
    fn verify(&self, doc: &Document) -> bool {
        let opts = ValidateOptions::default();
        self.pos_compiled.validate_with(doc, opts).is_valid()
            && !self.neg_compiled.validate_with(doc, opts).is_valid()
    }

    /// Compares one joint context on all channels and lifts + verifies
    /// every difference found. Returns `(witnesses, dropped)`.
    fn compare_pair(&self, pairs: &[PairNode], idx: usize) -> (Vec<Witness>, usize) {
        let p = &pairs[idx];
        let a_info = self.pos.info(self.pos.ctxs[p.ta as usize].rule);
        let b_info = self.neg.info(self.neg.ctxs[p.tb as usize].rule);
        let path: Vec<String> = self
            .pair_path(pairs, idx)
            .iter()
            .map(|&s| self.names.name(s).to_string())
            .collect();
        let mut out = Vec::new();
        let mut dropped = 0usize;
        let emit = |kind: WitnessKind,
                    message: String,
                    doc: Option<Document>,
                    out: &mut Vec<Witness>,
                    dropped: &mut usize| {
            match doc {
                Some(d) if self.verify(&d) => out.push(Witness {
                    direction: self.direction,
                    path: path.clone(),
                    kind,
                    message,
                    document: xmltree::to_string(&d),
                }),
                _ => *dropped += 1,
            }
        };

        // Channel 1: child sequences. The positive side's realizable
        // children language minus the negative side's accepted one —
        // exact, with the canonical witness word.
        let restricted = self.pos.restricted_children(p.ta);
        if let Some(word) = difference_witness_dfa(&restricted, &b_info.children) {
            let msg = format!(
                "child sequence \"{}\" is accepted here but rejected by the other schema",
                render_children(&word, self.names)
            );
            let doc = self.lift(pairs, idx, &word, None, &[]);
            emit(WitnessKind::Children, msg, doc, &mut out, &mut dropped);
        }

        // Channel 2: text value spaces.
        if let Some((value, msg)) = text_witness(&a_info.text, &b_info.text) {
            let min = self.pos.min_word(p.ta);
            let doc = self.lift(pairs, idx, &min, Some(&value), &[]);
            emit(WitnessKind::Text, msg, doc, &mut out, &mut dropped);
        }

        // Channel 3: attribute declarations and value spaces.
        for diff in attr_witnesses(&a_info.attrs, &b_info.attrs) {
            let min = self.pos.min_word(p.ta);
            let doc = self.lift(pairs, idx, &min, None, &diff.set);
            emit(
                WitnessKind::Attribute,
                diff.message,
                doc,
                &mut out,
                &mut dropped,
            );
        }

        (out, dropped)
    }

    /// Runs the full direction: root-name differences, the joint BFS,
    /// then per-pair comparisons on the worker pool (input-order
    /// deterministic). Returns witnesses, pair count, and drop count.
    fn run(&self, opts: &AnalysisOptions) -> Result<(Vec<Witness>, usize, usize), AnalysisError> {
        let mut witnesses = Vec::new();
        let mut dropped = 0usize;
        let mut pairs: Vec<PairNode> = Vec::new();
        let mut interner = SubsetInterner::with_capacity(64);
        let mut queue: VecDeque<u32> = VecDeque::new();
        for &(s, ctx) in &self.pos.roots {
            if !self.pos.ctxs[ctx as usize].comp {
                continue; // this side cannot realize the root at all
            }
            if let Some(&(_, neg_ctx)) = self.neg.roots.iter().find(|&&(t, _)| t == s) {
                let before = interner.len();
                let id = interner.intern(&[ctx, neg_ctx]);
                if id as usize == before {
                    pairs.push(PairNode {
                        ta: ctx,
                        tb: neg_ctx,
                        pred: NO_CTX,
                        sym: s,
                    });
                    queue.push_back(id);
                }
            } else {
                let doc = self.pos.synth_doc(s, ctx, self.names);
                if self.verify(&doc) {
                    witnesses.push(Witness {
                        direction: self.direction,
                        path: vec![self.names.name(s).to_string()],
                        kind: WitnessKind::Root,
                        message: format!(
                            "root element \"{}\" is allowed here but not by the other schema",
                            self.names.name(s)
                        ),
                        document: xmltree::to_string(&doc),
                    });
                } else {
                    dropped += 1;
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            if pairs.len() > opts.pair_budget {
                return Err(AnalysisError::Budget {
                    what: "pair",
                    budget: opts.pair_budget,
                });
            }
            let (ta, tb) = (pairs[id as usize].ta, pairs[id as usize].tb);
            let live = live_syms(&self.joint_children(&pairs[id as usize]));
            for a in (0..self.pos.n_syms).filter(|&a| live[a]) {
                let s = Sym(a as u32);
                let na = self.pos.ctxs[ta as usize].succ[a];
                let nb = self.neg.ctxs[tb as usize].succ[a];
                debug_assert!(na != NO_CTX && nb != NO_CTX, "live symbol was explored");
                if na == NO_CTX || nb == NO_CTX || !self.pos.ctxs[na as usize].comp {
                    continue;
                }
                let before = interner.len();
                let next = interner.intern(&[na, nb]);
                if next as usize == before {
                    pairs.push(PairNode {
                        ta: na,
                        tb: nb,
                        pred: id,
                        sym: s,
                    });
                    queue.push_back(next);
                }
            }
        }
        let n_pairs = pairs.len();
        let results = map_indexed((0..n_pairs).collect(), opts.jobs, |i| {
            self.compare_pair(&pairs, i)
        });
        for (ws, d) in results {
            witnesses.extend(ws);
            dropped += d;
        }
        Ok((witnesses, n_pairs, dropped))
    }
}

/// Renders a child sequence with element names, space-separated.
fn render_children(word: &[Sym], names: &Alphabet) -> String {
    if word.is_empty() {
        return "ε".to_string();
    }
    word.iter()
        .map(|&s| names.name(s))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Decides inclusion/equivalence of two BXSDs, lifting every difference
/// found into a verified witness document. The first schema plays the
/// "old" role for [`Evolution`] classification.
pub fn diff_bxsd(
    a: &Bxsd,
    b: &Bxsd,
    opts: &AnalysisOptions,
    cache: &mut AutomataCache,
) -> Result<DiffReport, AnalysisError> {
    let stats_before = cache.stats();
    let t0 = Instant::now();

    // One shared alphabet: the first schema's names, then the second's.
    let mut shared = Alphabet::new();
    for (_, name) in a.ename.entries() {
        shared.intern(name);
    }
    for (_, name) in b.ename.entries() {
        shared.intern(name);
    }
    let n = shared.len();
    let (ra, own_a) = remap_bxsd(a, &shared);
    let (rb, own_b) = remap_bxsd(b, &shared);
    let space_a = SchemaSpace::build(&ra, n, own_a, opts.ctx_budget, cache)?;
    let space_b = SchemaSpace::build(&rb, n, own_b, opts.ctx_budget, cache)?;
    let build_us = t0.elapsed().as_micros() as u64;

    // Witness verification runs against the *original* schemas — the
    // remapped ones share an alphabet and would not flag foreign names.
    let compiled_a = CompiledBxsd::with_cache(a, DEFAULT_PRODUCT_BUDGET, cache);
    let compiled_b = CompiledBxsd::with_cache(b, DEFAULT_PRODUCT_BUDGET, cache);

    let t1 = Instant::now();
    let ab = DirectionPass {
        pos: &space_a,
        neg: &space_b,
        names: &shared,
        pos_compiled: &compiled_a,
        neg_compiled: &compiled_b,
        direction: Direction::OnlyInA,
    };
    let ba = DirectionPass {
        pos: &space_b,
        neg: &space_a,
        names: &shared,
        pos_compiled: &compiled_b,
        neg_compiled: &compiled_a,
        direction: Direction::OnlyInB,
    };
    let (wit_a, pairs_a, drop_a) = ab.run(opts)?;
    let (wit_b, pairs_b, drop_b) = ba.run(opts)?;
    let compare_us = t1.elapsed().as_micros() as u64;

    let (a_only, b_only) = (wit_a.len(), wit_b.len());
    let evolution = match (a_only > 0, b_only > 0) {
        (false, false) => Evolution::Equivalent,
        (false, true) => Evolution::BackwardCompatible,
        (true, false) => Evolution::ForwardCompatible,
        (true, true) => Evolution::Incomparable,
    };
    let mut witnesses = wit_a;
    witnesses.extend(wit_b);
    let cache_stats = cache.stats().since(stats_before);
    Ok(DiffReport {
        evolution,
        a_only,
        b_only,
        witnesses,
        stats: DiffStats {
            contexts_a: space_a.ctxs.len(),
            contexts_b: space_b.ctxs.len(),
            pairs: pairs_a + pairs_b,
            dropped: drop_a + drop_b,
            cache_hits: cache_stats.hits(),
            cache_misses: cache_stats.misses(),
            build_us,
            explore_us: 0, // folded into compare (the BFS feeds it directly)
            compare_us,
        },
    })
}

/// Decides satisfiability of a schema: whether any document conforms,
/// with a minimal witness document, plus the rules that are reachable
/// but admit no completable subtree (lint BX010's engine).
pub fn analyze_sat(
    bxsd: &Bxsd,
    opts: &AnalysisOptions,
    cache: &mut AutomataCache,
) -> Result<SatReport, AnalysisError> {
    let n = bxsd.ename.len();
    let own: Vec<Sym> = bxsd.ename.symbols().collect();
    let space = SchemaSpace::build(bxsd, n, own, opts.ctx_budget, cache)?;
    let witness = space
        .roots
        .iter()
        .find(|&&(_, ctx)| space.ctxs[ctx as usize].comp)
        .map(|&(s, ctx)| xmltree::to_string(&space.synth_doc(s, ctx, &bxsd.ename)));
    let unsat_rules = unsat_rules(&space, &bxsd.ename);
    Ok(SatReport {
        satisfiable: witness.is_some(),
        witness,
        unsat_rules,
        contexts: space.ctxs.len(),
    })
}

/// Rules relevant at some reachable context that admits no completable
/// subtree, each with the shortest such ancestor path.
fn unsat_rules(space: &SchemaSpace, names: &Alphabet) -> Vec<UnsatRule> {
    let mut first_path: Vec<Option<Vec<Sym>>> = vec![None; space.rules.len()];
    for (id, ctx) in space.ctxs.iter().enumerate() {
        if ctx.comp {
            continue;
        }
        if let Some(i) = ctx.rule {
            if first_path[i].is_none() {
                first_path[i] = Some(space.path_syms(id as u32));
            }
        }
    }
    first_path
        .into_iter()
        .enumerate()
        .filter_map(|(rule, p)| {
            p.map(|syms| UnsatRule {
                rule,
                path: syms.iter().map(|&s| names.name(s).to_string()).collect(),
            })
        })
        .collect()
}

/// Lint-facing entry: rules that are reachable but unsatisfiable in
/// context, with witness paths. `Err` means the context budget blew.
pub(crate) fn unsatisfiable_rule_contexts(
    bxsd: &Bxsd,
    budget: usize,
    cache: &mut AutomataCache,
) -> Result<Vec<UnsatRule>, AnalysisError> {
    let opts = AnalysisOptions {
        ctx_budget: budget,
        ..AnalysisOptions::default()
    };
    analyze_sat(bxsd, &opts, cache).map(|r| r.unsat_rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use crate::validate::is_valid;

    fn parse(src: &str) -> Bxsd {
        let ast = crate::lang::parser::parse_schema(src).expect("schema parses");
        crate::lang::lower::lower(&ast).expect("schema lowers").bxsd
    }

    fn diff(a: &Bxsd, b: &Bxsd) -> DiffReport {
        diff_bxsd(a, b, &AnalysisOptions::default(), &mut AutomataCache::new()).unwrap()
    }

    fn sat(bxsd: &Bxsd) -> SatReport {
        analyze_sat(bxsd, &AnalysisOptions::default(), &mut AutomataCache::new()).unwrap()
    }

    #[test]
    fn identical_schemas_are_equivalent() {
        let a = parse("global { doc } grammar { doc = { element a, element b? } a = { } b = { } }");
        let b = a.clone();
        let r = diff(&a, &b);
        assert!(r.equivalent(), "{r:?}");
        assert!(r.witnesses.is_empty());
        assert_eq!(r.stats.dropped, 0);
    }

    #[test]
    fn widened_children_is_detected_with_verified_witness() {
        let a = parse("global { doc } grammar { doc = { element a, element b? } a = { } b = { } }");
        let b = parse("global { doc } grammar { doc = { element a } a = { } }");
        let r = diff(&a, &b);
        assert_eq!(r.evolution, Evolution::ForwardCompatible, "{r:?}");
        assert!(r.a_only > 0 && r.b_only == 0);
        let w = &r.witnesses[0];
        assert_eq!(w.kind, WitnessKind::Children);
        let doc = xmltree::parse_document(&w.document).unwrap();
        assert!(is_valid(&a, &doc));
        assert!(!is_valid(&b, &doc));
        // And the reverse direction flips the classification.
        let rev = diff(&b, &a);
        assert_eq!(rev.evolution, Evolution::BackwardCompatible);
        assert_eq!(rev.b_only, r.a_only);
    }

    #[test]
    fn root_name_difference() {
        let a = parse("global { doc, alt } grammar { doc = { } alt = { } }");
        let b = parse("global { doc } grammar { doc = { } }");
        let r = diff(&a, &b);
        assert!(r.a_only > 0);
        assert!(r
            .witnesses
            .iter()
            .any(|w| w.kind == WitnessKind::Root && w.path == ["alt"]));
    }

    #[test]
    fn text_type_difference() {
        let a = parse("global { doc } grammar { doc = { type xs:string } }");
        let b = parse("global { doc } grammar { doc = { type xs:integer } }");
        let r = diff(&a, &b);
        assert_eq!(r.evolution, Evolution::ForwardCompatible, "{r:?}");
        let w = r
            .witnesses
            .iter()
            .find(|w| w.kind == WitnessKind::Text)
            .expect("text witness");
        let doc = xmltree::parse_document(&w.document).unwrap();
        assert!(is_valid(&a, &doc) && !is_valid(&b, &doc));
    }

    #[test]
    fn attribute_requirement_difference() {
        let a = parse("global { doc } grammar { doc = { attribute id? } }");
        let b = parse("global { doc } grammar { doc = { attribute id } }");
        let r = diff(&a, &b);
        assert_eq!(r.evolution, Evolution::ForwardCompatible, "{r:?}");
        assert!(r.witnesses.iter().any(|w| w.kind == WitnessKind::Attribute));
    }

    #[test]
    fn sat_detects_unsatisfiable_recursion() {
        // Every `a` needs another `a` below it: no finite document.
        let mut bld = BxsdBuilder::new();
        bld.start("a");
        let a = bld.ename.intern("a");
        bld.suffix_rule(&["a"], ContentModel::new(Regex::sym(a)));
        let bxsd = bld.build().unwrap();
        let r = sat(&bxsd);
        assert!(!r.satisfiable);
        assert!(r.witness.is_none());
        assert_eq!(r.unsat_rules.len(), 1);
        assert_eq!(r.unsat_rules[0].path, vec!["a".to_string()]);
    }

    #[test]
    fn sat_produces_minimal_valid_witness() {
        let bxsd =
            parse("global { doc } grammar { doc = { element item+ } item = { type xs:integer } }");
        let r = sat(&bxsd);
        assert!(r.satisfiable);
        let doc = xmltree::parse_document(r.witness.as_ref().unwrap()).unwrap();
        assert!(is_valid(&bxsd, &doc), "{:?}", r.witness);
        assert!(r.unsat_rules.is_empty());
    }

    #[test]
    fn unsat_rule_in_context_found_with_path() {
        // `b` under doc is fine; `b` under c must contain an infinite
        // chain of c's — unsatisfiable only in that context.
        let src = "global { doc } grammar { \
                   doc = { element b?, element c? } \
                   b = { } \
                   c = { element b } \
                   c/b = { element c } }";
        let bxsd = parse(src);
        let r = sat(&bxsd);
        assert!(r.satisfiable);
        assert!(
            r.unsat_rules.iter().any(|u| u.path == ["doc", "c"]),
            "{:?}",
            r.unsat_rules
        );
    }

    #[test]
    fn diff_reports_are_identical_for_any_job_count() {
        let a = parse(
            "global { doc } grammar { doc = { element a*, element b } a = { element b? } b = { } }",
        );
        let b = parse(
            "global { doc } grammar { doc = { element a*, element b? } a = { element b? } b = { } }",
        );
        let base = diff(&a, &b);
        for jobs in [2, 4, 16] {
            let opts = AnalysisOptions {
                jobs,
                ..AnalysisOptions::default()
            };
            let r = diff_bxsd(&a, &b, &opts, &mut AutomataCache::new()).unwrap();
            assert_eq!(r.witnesses, base.witnesses, "jobs={jobs}");
            assert_eq!(r.evolution, base.evolution);
        }
    }

    #[test]
    fn warm_cache_diff_matches_fresh_cache() {
        let a = parse("global { doc } grammar { doc = { element a* } a = { type xs:date } }");
        let b = parse("global { doc } grammar { doc = { element a+ } a = { type xs:date } }");
        let opts = AnalysisOptions::default();
        let fresh = diff_bxsd(&a, &b, &opts, &mut AutomataCache::new()).unwrap();
        // A warm cache: one that already served an earlier diff.
        let mut warm = AutomataCache::new();
        diff_bxsd(&b, &a, &opts, &mut warm).unwrap();
        let again = diff_bxsd(&a, &b, &opts, &mut warm).unwrap();
        assert_eq!(fresh.witnesses, again.witnesses);
        assert_eq!(fresh.evolution, again.evolution);
        assert_eq!((fresh.a_only, fresh.b_only), (again.a_only, again.b_only));
        assert!(again.stats.cache_hits > 0, "{:?}", again.stats);
    }
}
