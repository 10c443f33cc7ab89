//! Validation of documents against BXSDs under the priority semantics,
//! with matched-rule reporting (the tool feature from \[19\]: "validate XML
//! against them and highlights matching rules").
//!
//! ## One walk
//!
//! Definition 1 needs one top-down pass over ancestor strings: per
//! element, the rules whose ancestor pattern matches `anc-str(v)` and the
//! last ("relevant") one, which then constrains the element's children,
//! text, and attributes. `StreamSink` is the only code that does this. It
//! keeps one frame per *open* element and takes four steps: a parent step
//! (the child's ancestor state and the parent's content-model step), a
//! frame push (the child's attributes), text, and a frame pop (the
//! element's violations). Three walks feed it:
//!
//! * [`CompiledBxsd::validate_stream`]: [`XmlReader::drive`] pushes the
//!   reader's events, numbering nodes in event order — the order in which
//!   the tree parser allocates arena nodes — in O(depth) memory;
//! * [`CompiledBxsd::validate_with`]: an iterative replay of the arena,
//!   numbering nodes by their arena [`NodeId`]s, which an edited arena
//!   does not keep in document order;
//! * incremental revalidation ([`crate::incremental`]): the same replay
//!   with a memo hook that stores each element's ancestor state, prunes
//!   the walk, and files violations under the pass that produced them.
//!
//! Every walk ends with a stable sort of violations by node, and
//! within a node the sink always reports text, attributes, then content,
//! so the reports agree byte for byte (`tests/stream_equivalence.rs`,
//! `tests/incremental_equivalence.rs`).
//!
//! ## Ancestor engines
//!
//! The sink is generic over the ancestor-state engine:
//!
//! * **Product** (the default): a [`RelevanceProduct`] — the reachable
//!   synchronized product of all N ancestor DFAs, each state annotated
//!   with its matching set and relevant rule. Per element this costs a
//!   *single* transition lookup instead of N; Lemma 7 is the paper-side
//!   justification (relevance is readable off product states).
//! * **Lock-step** (the fallback): all N DFAs advanced side by side,
//!   `None` = dead. The product is worst-case exponential (Theorem 9), so
//!   [`CompiledBxsd::with_budget`] bounds its size and validation falls
//!   back to lock-step transparently when the bound is exceeded.
//!
//! Both engines produce byte-identical reports — the equivalence proptest
//! in `tests/validate_equivalence.rs` pins that down, and `core::oracle`
//! checks every walk and engine independently (`bonxai conform`).
//! Per-node [`NodeMatch`] recording is opt-in via
//! [`ValidateOptions::record_matches`]; validation itself never needs it.

use std::collections::BTreeMap;
use std::sync::Arc;

use relang::cache::{AutomataCache, CacheStats};
use relang::ops::{ProductState, RelevanceProduct};
use relang::{CompiledDre, Dfa, Regex, StateId, Sym};
use xmltree::stream::{AttrList, ByteSrc, EventSink, TextChunk, TextInterest, XmlReader};
use xmltree::{is_xml_whitespace, Document, NameId, NodeId};
use xsd::violation::{Violation, ViolationKind};

use crate::bxsd::Bxsd;

/// Default cap on relevance-product states; beyond this the validator
/// silently falls back to lock-step evaluation (Theorem 9 makes a cap
/// mandatory — the product can be exponential in the rule count).
pub const DEFAULT_PRODUCT_BUDGET: usize = 1 << 14;

/// Per-node rule-match information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMatch {
    /// All rule indices whose ancestor expression matches this node's
    /// ancestor string, in schema order.
    pub matching: Vec<usize>,
    /// The relevant (highest-priority) rule, if any. Nodes with no
    /// matching rule are unconstrained under Definition 1.
    pub relevant: Option<usize>,
}

/// Options controlling a validation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidateOptions {
    /// Record a [`NodeMatch`] for every element (needed for rule
    /// highlighting; costs an allocation per node, so off by default).
    pub record_matches: bool,
    /// Use the lock-step reference evaluator even when the relevance
    /// product is available (ablations, differential testing).
    pub force_lockstep: bool,
}

/// The result of validating a document against a BXSD.
#[derive(Clone, Debug)]
pub struct BxsdReport {
    /// All violations (empty = the document conforms), canonically
    /// ordered: stable-sorted by node id, i.e. document order. The
    /// canonical order is what makes reports from the tree paths and the
    /// streaming path (which discover violations in different traversal
    /// orders) directly comparable with `==`.
    pub violations: Vec<Violation>,
    /// Rule matches per element node (populated only when
    /// [`ValidateOptions::record_matches`] is set).
    pub matches: BTreeMap<NodeId, NodeMatch>,
}

impl BxsdReport {
    /// Whether the document conforms.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn empty() -> Self {
        BxsdReport {
            violations: Vec::new(),
            matches: BTreeMap::new(),
        }
    }
}

/// A BXSD compiled for repeated validation: the borrowed schema plus its
/// shared, owned automata. [`crate::BonxaiSchema::compiled`] builds the
/// automata once per schema and hands out views at the cost of one `Arc`
/// clone; the constructors here always build, through the caller's
/// [`AutomataCache`] or a fresh one.
pub struct CompiledBxsd<'a> {
    pub(crate) bxsd: &'a Bxsd,
    pub(crate) automata: Arc<Automata>,
}

/// The automata of a compiled BXSD: one DFA per ancestor expression, one
/// matcher per content model, and (budget permitting) the relevance
/// product over the ancestor DFAs. Owned and immutable, so one build is
/// shared by every view and every thread.
#[derive(Debug)]
pub(crate) struct Automata {
    ancestor_dfas: Vec<Arc<Dfa>>,
    pub(crate) content_matchers: Vec<Arc<CompiledDre>>,
    pub(crate) relevance: Option<Arc<RelevanceProduct>>,
    cache_stats: CacheStats,
}

impl<'a> CompiledBxsd<'a> {
    /// Compiles all rule expressions of `bxsd` with the default product
    /// budget ([`DEFAULT_PRODUCT_BUDGET`]).
    pub fn new(bxsd: &'a Bxsd) -> Self {
        Self::with_budget(bxsd, DEFAULT_PRODUCT_BUDGET)
    }

    /// Compiles `bxsd`, allowing at most `budget` relevance-product
    /// states. A budget of 0 disables the product entirely; validation
    /// then always runs lock-step.
    pub fn with_budget(bxsd: &'a Bxsd, budget: usize) -> Self {
        Self::with_cache(bxsd, budget, &mut AutomataCache::new())
    }

    /// [`Self::with_budget`] through a shared [`AutomataCache`]: ancestor
    /// DFAs, content matchers and the relevance product are memoized by
    /// regex structure, so recompiling a schema (or compiling one the
    /// lint pass already probed) reuses the constructions. The validator
    /// does not depend on what the cache already held.
    pub fn with_cache(bxsd: &'a Bxsd, budget: usize, cache: &mut AutomataCache) -> Self {
        let before = cache.stats();
        let n = bxsd.ename.len();
        let ancestors: Vec<&Regex> = bxsd.rules.iter().map(|r| &r.ancestor).collect();
        let ancestor_dfas = ancestors.iter().map(|r| cache.raw_dfa(r, n)).collect();
        let content_matchers = bxsd
            .rules
            .iter()
            .map(|r| cache.compiled_dre(&r.content.regex, n))
            .collect();
        let relevance = if budget == 0 {
            None
        } else {
            cache.relevance_product(n, &ancestors, budget)
        };
        CompiledBxsd {
            bxsd,
            automata: Arc::new(Automata {
                ancestor_dfas,
                content_matchers,
                relevance,
                cache_stats: cache.stats().since(before),
            }),
        }
    }

    /// The underlying schema.
    pub fn bxsd(&self) -> &Bxsd {
        self.bxsd
    }

    /// Number of relevance-product states, or `None` when the product
    /// exceeded its budget (validation falls back to lock-step).
    pub fn product_states(&self) -> Option<usize> {
        self.automata.relevance.as_ref().map(|p| p.n_states())
    }

    /// The [`AutomataCache`] hit/miss counters of the compile that built
    /// these automata (misses = constructions actually run). Views that
    /// share the automata report the same counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.automata.cache_stats
    }

    /// Validates `doc` under the priority semantics (default options:
    /// fastest available path, no per-node match recording).
    pub fn validate(&self, doc: &Document) -> BxsdReport {
        self.validate_with(doc, ValidateOptions::default())
    }

    /// Validates `doc` with explicit [`ValidateOptions`]: the arena is
    /// replayed into the same sink the streaming path drives, under the
    /// relevance product when available and not overridden.
    pub fn validate_with(&self, doc: &Document, opts: ValidateOptions) -> BxsdReport {
        let mut report = BxsdReport::empty();
        let record = opts.record_matches;
        match (&self.automata.relevance, opts.force_lockstep) {
            (Some(p), false) => {
                StreamSink::new(self, &ProductEngine(p), record, &mut report, NoMemo)
                    .replay_document(doc)
            }
            _ => StreamSink::new(self, &self.lockstep(), record, &mut report, NoMemo)
                .replay_document(doc),
        }
        report.violations.sort_by_key(|v| v.node);
        report
    }

    /// Validates the document streamed by `reader` without building a
    /// tree, holding one frame per *open* element (O(depth) memory).
    /// Default options; see [`Self::validate_stream_with`].
    pub fn validate_stream<S: ByteSrc>(
        &self,
        reader: &mut XmlReader<S>,
    ) -> Result<BxsdReport, xmltree::ParseError> {
        self.validate_stream_with(reader, ValidateOptions::default())
    }

    /// Streaming validation with explicit [`ValidateOptions`].
    ///
    /// The report is byte-identical to parsing the same bytes and calling
    /// [`Self::validate_with`]: node ids are assigned by counting
    /// `StartElement`/`Text` events, which is exactly the order in which
    /// the tree parser (itself a fold over the same events) allocates
    /// arena nodes. Uses the relevance product when available and not
    /// overridden, with the same transparent lock-step fallback as the
    /// tree path. Returns `Err` on malformed XML — the analogue of
    /// failing to parse before tree validation — in which case no report
    /// exists.
    pub fn validate_stream_with<S: ByteSrc>(
        &self,
        reader: &mut XmlReader<S>,
        opts: ValidateOptions,
    ) -> Result<BxsdReport, xmltree::ParseError> {
        let mut report = BxsdReport::empty();
        let record = opts.record_matches;
        match (&self.automata.relevance, opts.force_lockstep) {
            (Some(p), false) => reader.drive(&mut StreamSink::new(
                self,
                &ProductEngine(p),
                record,
                &mut report,
                NoMemo,
            ))?,
            _ => reader.drive(&mut StreamSink::new(
                self,
                &self.lockstep(),
                record,
                &mut report,
                NoMemo,
            ))?,
        }
        report.violations.sort_by_key(|v| v.node);
        Ok(report)
    }

    fn lockstep(&self) -> LockstepEngine<'_> {
        LockstepEngine {
            dfas: &self.automata.ancestor_dfas,
        }
    }
}

/// Ancestor-state evaluation strategy, expressed per transition so one
/// frame-stack sink serves both the product and the lock-step fallback.
pub(crate) trait AncEngine {
    /// The per-element ancestor state (a single product state, or one
    /// `Option<StateId>` per ancestor DFA in lock-step).
    type State;
    /// State of the root element (its ancestor string is `root_sym`).
    fn start(&self, root_sym: Sym) -> Self::State;
    /// The relevant (last matching) rule in `q`, per Definition 1.
    fn relevant(&self, q: &Self::State) -> Option<usize>;
    /// All matching rules in `q`, in schema order.
    fn matching(&self, q: &Self::State) -> Vec<usize>;
    /// State of a child reached by `sym` from `parent`, drawing storage
    /// from `pool` where the state type allocates.
    fn child_with(
        &self,
        parent: &Self::State,
        sym: Sym,
        pool: &mut Vec<Self::State>,
    ) -> Self::State;
    /// The absorbing dead state (below unknown-named elements), drawing
    /// storage from `pool`.
    fn dead_with(&self, pool: &mut Vec<Self::State>) -> Self::State;

    /// Returns a finished state's storage to `pool` for reuse. No-op for
    /// POD states.
    #[inline]
    fn retire(&self, _state: Self::State, _pool: &mut Vec<Self::State>) {}
}

/// Relevance-product engine: one table lookup per transition (Lemma 7).
pub(crate) struct ProductEngine<'a>(pub(crate) &'a RelevanceProduct);

impl AncEngine for ProductEngine<'_> {
    type State = ProductState;

    fn start(&self, root_sym: Sym) -> ProductState {
        self.0.step(self.0.initial(), root_sym)
    }

    fn relevant(&self, q: &ProductState) -> Option<usize> {
        self.0.relevant(*q).map(|i| i as usize)
    }

    fn matching(&self, q: &ProductState) -> Vec<usize> {
        self.0.matching(*q).iter().map(|&i| i as usize).collect()
    }

    #[inline]
    fn child_with(
        &self,
        parent: &ProductState,
        sym: Sym,
        _: &mut Vec<ProductState>,
    ) -> ProductState {
        self.0.step(*parent, sym)
    }

    #[inline]
    fn dead_with(&self, _: &mut Vec<ProductState>) -> ProductState {
        self.0.dead()
    }
}

/// Lock-step engine: all N ancestor DFAs advanced side by side
/// (`None` = dead), used when the product exceeded its budget.
struct LockstepEngine<'a> {
    dfas: &'a [Arc<Dfa>],
}

impl AncEngine for LockstepEngine<'_> {
    type State = Vec<Option<StateId>>;

    fn start(&self, root_sym: Sym) -> Self::State {
        self.dfas
            .iter()
            .map(|d| d.transition(d.initial(), root_sym))
            .collect()
    }

    fn relevant(&self, q: &Self::State) -> Option<usize> {
        q.iter()
            .enumerate()
            .rev()
            .find_map(|(i, s)| s.is_some_and(|q| self.dfas[i].is_final(q)).then_some(i))
    }

    fn matching(&self, q: &Self::State) -> Vec<usize> {
        q.iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_some_and(|q| self.dfas[i].is_final(q)).then_some(i))
            .collect()
    }

    fn child_with(
        &self,
        parent: &Self::State,
        sym: Sym,
        pool: &mut Vec<Self::State>,
    ) -> Self::State {
        let mut v = pool.pop().unwrap_or_default();
        v.clear();
        v.extend(
            parent
                .iter()
                .zip(self.dfas)
                .map(|(s, d)| s.and_then(|q| d.transition(q, sym))),
        );
        v
    }

    fn dead_with(&self, pool: &mut Vec<Self::State>) -> Self::State {
        let mut v = pool.pop().unwrap_or_default();
        v.clear();
        v.resize(self.dfas.len(), None);
        v
    }

    fn retire(&self, state: Self::State, pool: &mut Vec<Self::State>) {
        pool.push(state);
    }
}

/// The per-element hook of the walk, a type parameter of [`StreamSink`]:
/// incremental revalidation's memo (`crate::incremental`). The defaults
/// are the plain run — descend everywhere, file every violation in the
/// report — and compile away.
pub(crate) trait Memo<St> {
    /// Whether the arena replay enters `node`, reached in state `q`.
    #[inline]
    fn descend(&mut self, _node: NodeId, _q: &St) -> bool {
        true
    }
    /// `node`'s pass begins: its frame is pushed.
    #[inline]
    fn begin(&mut self, _node: NodeId) {}
    /// Where the pass of element `pass` files its violations; asked
    /// only when it has some to file.
    #[inline]
    fn out<'a>(
        &'a mut self,
        _pass: NodeId,
        report: &'a mut Vec<Violation>,
    ) -> &'a mut Vec<Violation> {
        report
    }
}

/// The plain run's hook: no memo.
pub(crate) struct NoMemo;

impl<St> Memo<St> for NoMemo {}

// Flag bits of [`HotFrame::flags`]. Together with `relevant`, `dfa`,
// and `q` they encode the element's in-progress content evaluation in
// one byte.
/// Non-whitespace text was seen among the children (only reported for
/// element-only content, whose frames ask for it).
const F_HAS_TEXT: u8 = 1 << 0;
/// Simple content: any element child fails at position 0; child text
/// accumulates in the `texts` side table for the type check.
const F_SIMPLE: u8 = 1 << 1;
/// Buffered content fallback: the child word accumulates in the `words`
/// side table, resolved via `CompiledDre::first_error` at the end tag.
const F_BUFFERED: u8 = 1 << 2;
/// The content DFA died; `fail_pos` holds the position.
const F_FAILED_DFA: u8 = 1 << 3;
/// An unknown-named child was seen; `fail_pos` holds its position
/// (overwriting any earlier DFA failure — unknown children win).
const F_FAILED_UNKNOWN: u8 = 1 << 4;
/// This frame parked a non-empty attribute-violation vector on the
/// sink's `attr_stack`.
const F_ATTR_VIOL: u8 = 1 << 5;

/// `relevant` value for "no matching rule" (Definition 1: unconstrained).
const NO_RULE: u32 = u32::MAX;

/// The hot per-open-element state of the validator — the part that is
/// pushed, mutated, and popped on every element. Cold storage
/// (violation vectors, child words, accumulated text) lives in
/// depth-indexed side tables on [`StreamSink`], so what remains stays in
/// cache (a compile-time assertion below pins the size for both
/// engines).
struct HotFrame<'c, St> {
    node: NodeId,
    /// Content DFA of the relevant rule, stepped inline via `q`
    /// (`None`: no rule, simple content, or the buffered fallback).
    dfa: Option<&'c Dfa>,
    /// Ancestor state; children derive theirs from it via the engine.
    state: St,
    /// Relevant rule index, or [`NO_RULE`].
    relevant: u32,
    /// Known element children consumed so far (saturating; a document
    /// would need > 4 billion children of one node to hit the cap).
    count: u32,
    /// Current content-DFA state (meaningful only when `dfa` is set).
    q: u32,
    /// Position of the first content failure; which kind won is in
    /// `flags` ([`F_FAILED_UNKNOWN`] beats [`F_FAILED_DFA`]).
    fail_pos: u32,
    /// [`F_HAS_TEXT`] … [`F_ATTR_VIOL`].
    flags: u8,
}

// The layout guard the frame diet is accountable to: both engines' hot
// frames fit a single cache line. `frames_bytes` in the validation
// bench JSON reports the same numbers, so regressions show up in
// BENCH_validation.json too.
const _: () = assert!(std::mem::size_of::<HotFrame<'static, ProductState>>() <= 64);
const _: () = assert!(std::mem::size_of::<HotFrame<'static, Vec<Option<StateId>>>>() <= 64);

/// Hot-frame sizes in bytes, `(product engine, lock-step engine)` —
/// exported so the bench harness records frame-layout regressions.
pub fn stream_frame_sizes() -> (usize, usize) {
    (
        std::mem::size_of::<HotFrame<'static, ProductState>>(),
        std::mem::size_of::<HotFrame<'static, Vec<Option<StateId>>>>(),
    )
}

/// Per-rule frame-setup decisions, precomputed once per run so the
/// frame push reads one row instead of chasing the rule's content model
/// and matcher.
struct RuleMeta<'c> {
    /// Content DFA to step inline, from `initial()` = `q0`.
    dfa: Option<&'c Dfa>,
    q0: u32,
    /// Initial frame flags: [`F_SIMPLE`] / [`F_BUFFERED`] as the rule's
    /// content model dictates.
    flags: u8,
    /// [`TextInterest::NonWhitespace`] for element-only content (text
    /// there is a violation), [`TextInterest::Collect`] for simple
    /// content, [`TextInterest::Ignore`] otherwise.
    interest: TextInterest,
    /// The rule has a required attribute, so the (possibly empty)
    /// attribute list must be checked.
    check_attrs: bool,
}

/// The validator: the per-element rule, content, text, and attribute
/// logic of Definition 1 over a stack of open-element frames, fed by
/// [`XmlReader::drive`] (as an [`EventSink`]) or by an arena replay.
/// Holds the hot frame stack plus the cold side tables the frames index
/// by depth; `M` is the incremental memo hook ([`NoMemo`] otherwise).
pub(crate) struct StreamSink<'v, 'c, E: AncEngine, M> {
    cx: &'c CompiledBxsd<'c>,
    /// One row per rule; see [`RuleMeta`].
    meta: Vec<RuleMeta<'c>>,
    eng: &'c E,
    record: bool,
    report: &'v mut BxsdReport,
    pub(crate) memo: M,
    stack: Vec<HotFrame<'c, E::State>>,
    /// Child word per depth, used only by [`F_BUFFERED`] frames.
    words: Vec<Vec<Sym>>,
    /// Accumulated child text per depth, used only by [`F_SIMPLE`] frames.
    texts: Vec<String>,
    /// Parked attribute violations of [`F_ATTR_VIOL`] frames, LIFO.
    /// Almost always empty: valid attribute lists park nothing.
    attr_stack: Vec<Vec<Violation>>,
    /// The working vector of the attribute check and the frame pop —
    /// empty between events, so the clean (no-violation) path touches
    /// no pool at all; an attribute verdict is moved onto `attr_stack`
    /// only when non-empty.
    viol_scratch: Vec<Violation>,
    /// Recycled violation vectors backing `viol_scratch` refills.
    spare_viol: Vec<Vec<Violation>>,
    /// Recycled ancestor-state storage (lock-step `Vec`s; unused by the
    /// POD product states).
    state_pool: Vec<E::State>,
    /// Next node id, counting element and text nodes in event order —
    /// the arena allocation order of the tree parser (streaming only).
    next_node: usize,
    /// The start-symbol check rejected the root: there are no further
    /// violations or matches. The stream still drains the rest of the
    /// document, since malformed XML must still error.
    pub(crate) root_rejected: bool,
    /// Schema symbol per element name id (`None`: not in the schema).
    /// The replay resolves the document's names up front; the stream
    /// fills the table as the reader's dense first-occurrence ids
    /// arrive, so after a name's first occurrence the match is one
    /// array load — no hashing, no string compare.
    syms: Vec<Option<Sym>>,
}

impl<'v, 'c, E: AncEngine, M: Memo<E::State>> StreamSink<'v, 'c, E, M> {
    pub(crate) fn new(
        cx: &'c CompiledBxsd<'c>,
        eng: &'c E,
        record: bool,
        report: &'v mut BxsdReport,
        memo: M,
    ) -> Self {
        let meta = cx
            .bxsd
            .rules
            .iter()
            .zip(&cx.automata.content_matchers)
            .map(|(r, m)| {
                let c = &r.content;
                let check_attrs = c.attributes.iter().any(|a| a.required);
                if c.simple_content.is_some() {
                    return RuleMeta {
                        dfa: None,
                        q0: 0,
                        flags: F_SIMPLE,
                        interest: TextInterest::Collect,
                        check_attrs,
                    };
                }
                let dfa = m.as_dfa();
                RuleMeta {
                    dfa,
                    q0: dfa.map_or(0, |d| d.initial() as u32),
                    flags: if dfa.is_none() { F_BUFFERED } else { 0 },
                    interest: if c.mixed || c.open {
                        TextInterest::Ignore
                    } else {
                        TextInterest::NonWhitespace
                    },
                    check_attrs,
                }
            })
            .collect();
        StreamSink {
            cx,
            meta,
            eng,
            record,
            report,
            memo,
            stack: Vec::with_capacity(16),
            words: Vec::new(),
            texts: Vec::new(),
            attr_stack: Vec::new(),
            viol_scratch: Vec::new(),
            spare_viol: Vec::new(),
            state_pool: Vec::new(),
            next_node: 0,
            root_rejected: false,
            syms: Vec::new(),
        }
    }

    /// The parent step for element `node` (named `name`, schema symbol
    /// `sym`): its ancestor state, derived from the innermost open frame,
    /// with that parent's content-model step, the `NoGoverningDefinition`
    /// check, and dead poisoning of every later sibling. With no open
    /// frame, `node` is the root and gets the start-symbol check instead;
    /// `None` means it rejected the root.
    fn step(&mut self, node: NodeId, name: &str, sym: Option<Sym>) -> Option<E::State> {
        let depth = self.stack.len();
        let Some(parent) = self.stack.last_mut() else {
            if let Some(sym) = sym.filter(|s| self.cx.bxsd.start.contains(s)) {
                return Some(self.eng.start(sym));
            }
            self.memo
                .out(node, &mut self.report.violations)
                .push(Violation {
                    node,
                    kind: ViolationKind::RootNotAllowed(name.to_owned()),
                });
            self.root_rejected = true;
            return None;
        };
        if parent.flags & F_FAILED_UNKNOWN != 0 {
            return Some(self.eng.dead_with(&mut self.state_pool));
        }
        let Some(sym) = sym else {
            self.memo
                .out(parent.node, &mut self.report.violations)
                .push(Violation {
                    node,
                    kind: ViolationKind::NoGoverningDefinition(name.to_owned()),
                });
            parent.flags |= F_FAILED_UNKNOWN;
            parent.fail_pos = parent.count;
            return Some(self.eng.dead_with(&mut self.state_pool));
        };
        if let Some(dfa) = parent.dfa {
            if parent.flags & F_FAILED_DFA == 0 {
                match dfa.transition(parent.q as StateId, sym) {
                    Some(t) => parent.q = t as u32,
                    None => {
                        parent.flags |= F_FAILED_DFA;
                        parent.fail_pos = parent.count;
                    }
                }
            }
        } else if parent.flags & F_BUFFERED != 0 {
            self.words[depth - 1].push(sym);
        }
        parent.count = parent.count.saturating_add(1);
        Some(
            self.eng
                .child_with(&parent.state, sym, &mut self.state_pool),
        )
    }

    /// Pushes the frame of element `node` in ancestor state `state`:
    /// records its matches, sets up its content-model evaluation, and
    /// checks its `(name, value)` attribute pairs. Returns what the
    /// element's relevant rule needs of its text.
    fn push<'a, A>(&mut self, node: NodeId, state: E::State, attributes: A) -> TextInterest
    where
        A: Iterator<Item = (&'a str, &'a str)> + Clone,
    {
        self.memo.begin(node);
        let depth = self.stack.len();
        let relevant = self.eng.relevant(&state);
        if self.record {
            self.report.matches.insert(
                node,
                NodeMatch {
                    matching: self.eng.matching(&state),
                    relevant,
                },
            );
        }
        if self.words.len() <= depth {
            self.words.push(Vec::new());
            self.texts.push(String::new());
        }
        let mut flags = 0u8;
        let mut dfa = None;
        let mut q = 0u32;
        let mut interest = TextInterest::Ignore;
        if let Some(i) = relevant {
            let m = &self.meta[i];
            flags = m.flags;
            dfa = m.dfa;
            q = m.q0;
            interest = m.interest;
            if flags & F_SIMPLE != 0 {
                // Text is only accumulated where it will be checked
                // (simple content), so arbitrary amounts of ignored
                // text cannot grow the side tables.
                self.texts[depth].clear();
            } else if flags & F_BUFFERED != 0 {
                self.words[depth].clear();
            }
            // Attributes are checked right here — off the reader's
            // borrowed token when streaming, so nothing is copied out of
            // its buffer. The (almost always empty) verdict is parked on
            // the side stack and emitted when the frame pops, so the
            // within-node violation order is text, attributes, content.
            if m.check_attrs || attributes.clone().next().is_some() {
                xsd::violation::check_attribute_pairs(
                    node,
                    attributes,
                    &self.cx.bxsd.rules[i].content,
                    &mut self.viol_scratch,
                );
                if !self.viol_scratch.is_empty() {
                    flags |= F_ATTR_VIOL;
                    let refill = self.spare_viol.pop().unwrap_or_default();
                    self.attr_stack
                        .push(std::mem::replace(&mut self.viol_scratch, refill));
                }
            }
        }
        self.stack.push(HotFrame {
            node,
            dfa,
            state,
            relevant: relevant.map_or(NO_RULE, |i| i as u32),
            count: 0,
            q,
            fail_pos: 0,
            flags,
        });
        interest
    }

    /// One text node directly inside the innermost open element, shaped
    /// by the interest its frame push declared.
    fn text_chunk(&mut self, chunk: TextChunk<'_>) {
        let depth = self.stack.len();
        let frame = self
            .stack
            .last_mut()
            .expect("text only occurs inside the root");
        match chunk {
            TextChunk::NonWs(true) => frame.flags |= F_HAS_TEXT,
            TextChunk::NonWs(false) | TextChunk::Skipped => {}
            TextChunk::Collect(t) => self.texts[depth - 1].push_str(t),
        }
    }

    /// Pops the innermost frame (element `name`) and files its pass's
    /// violations in the order the oracle reports them: text,
    /// attributes, content model.
    fn pop(&mut self, name: &str) {
        let frame = self.stack.pop().expect("events are well nested");
        let depth = self.stack.len(); // the popped frame's own depth
        if frame.relevant != NO_RULE {
            let i = frame.relevant as usize;
            let node = frame.node;
            let failed_at = if frame.flags & (F_FAILED_UNKNOWN | F_FAILED_DFA) != 0 {
                Some(frame.fail_pos as usize)
            } else if frame.flags & F_SIMPLE != 0 {
                (frame.count > 0).then_some(0)
            } else if let Some(dfa) = frame.dfa {
                (!dfa.is_final(frame.q as StateId)).then_some(frame.count as usize)
            } else if frame.flags & F_BUFFERED != 0 {
                self.cx.automata.content_matchers[i].first_error(&self.words[depth])
            } else {
                None
            };
            // Collected apart (the scratch vector is empty between
            // events), so the memo hook sees only passes that emit.
            let found = &mut self.viol_scratch;
            let model = &self.cx.bxsd.rules[i].content;
            if frame.flags & F_SIMPLE != 0 {
                xsd::violation::check_simple_text(node, name, model, &self.texts[depth], found);
            } else if frame.flags & F_HAS_TEXT != 0 {
                found.push(Violation {
                    node,
                    kind: ViolationKind::UnexpectedText(name.to_owned()),
                });
            }
            if frame.flags & F_ATTR_VIOL != 0 {
                let mut parked = self.attr_stack.pop().expect("flagged frame parked its vec");
                found.append(&mut parked);
                self.spare_viol.push(parked);
            }
            if let Some(at) = failed_at {
                found.push(Violation {
                    node,
                    kind: ViolationKind::ContentModel {
                        element: name.to_owned(),
                        at,
                    },
                });
            }
            if !found.is_empty() {
                self.memo
                    .out(node, &mut self.report.violations)
                    .append(found);
            }
        }
        self.eng.retire(frame.state, &mut self.state_pool);
    }

    /// Resolves `doc`'s distinct element names against the schema
    /// alphabet once, for [`Self::replay`].
    pub(crate) fn resolve_names(&mut self, doc: &Document) {
        let ename = &self.cx.bxsd.ename;
        self.syms = doc
            .distinct_names()
            .iter()
            .map(|n| ename.lookup(n))
            .collect();
    }

    /// Validates the whole arena from its root.
    pub(crate) fn replay_document(&mut self, doc: &Document) {
        self.resolve_names(doc);
        let root = doc.root();
        let sym = self.syms[doc.name_id(root).expect("root is an element") as usize];
        let Some(q) = self.step(root, doc.name(root).expect("element"), sym) else {
            return;
        };
        if self.memo.descend(root, &q) {
            self.replay(doc, root, q);
        }
    }

    /// Replays the arena subtree at `start`, in ancestor state `state`,
    /// into the sink the way [`XmlReader::drive`] would stream it.
    /// Element names resolve through [`Self::resolve_names`], because
    /// an edited arena's name ids are not in document order. Iterative,
    /// with one `(node, unvisited children, text interest)` entry per
    /// open element, so depth never reaches the call stack.
    pub(crate) fn replay(&mut self, doc: &Document, start: NodeId, state: E::State) {
        let name = |n: NodeId| doc.name(n).expect("element");
        let attrs = |n: NodeId| {
            doc.attributes(n)
                .iter()
                .map(|a| (a.name.as_str(), a.value.as_str()))
        };
        let interest = self.push(start, state, attrs(start));
        let mut open = vec![(start, doc.children(start), interest)];
        while let Some((node, children, interest)) = open.last_mut() {
            let unvisited: &[NodeId] = children;
            let Some((&child, rest)) = unvisited.split_first() else {
                let node = *node;
                open.pop();
                self.pop(name(node));
                continue;
            };
            *children = rest;
            let interest = *interest;
            let Some(nid) = doc.name_id(child) else {
                let text = doc.text(child).unwrap_or_default();
                match interest {
                    TextInterest::Ignore => {}
                    TextInterest::NonWhitespace => {
                        self.text_chunk(TextChunk::NonWs(!text.chars().all(is_xml_whitespace)))
                    }
                    TextInterest::Collect => self.text_chunk(TextChunk::Collect(text)),
                }
                continue;
            };
            let q = self
                .step(child, name(child), self.syms[nid as usize])
                .expect("only the root can be rejected");
            if self.memo.descend(child, &q) {
                let interest = self.push(child, q, attrs(child));
                open.push((child, doc.children(child), interest));
            } else {
                self.eng.retire(q, &mut self.state_pool);
            }
        }
    }
}

impl<E: AncEngine, M: Memo<E::State>> EventSink for StreamSink<'_, '_, E, M> {
    fn start_element(
        &mut self,
        name: &str,
        name_id: NameId,
        attributes: &AttrList<'_>,
        _self_closing: bool,
    ) -> TextInterest {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        if self.root_rejected {
            return TextInterest::Ignore;
        }
        let idx = name_id.index();
        if idx >= self.syms.len() {
            // New ids are handed out densely, one per first
            // occurrence — which is always a start tag.
            debug_assert_eq!(idx, self.syms.len());
            self.syms.push(self.cx.bxsd.ename.lookup(name));
        }
        match self.step(node, name, self.syms[idx]) {
            Some(state) => self.push(node, state, attributes.iter().map(|a| (a.name, a.value))),
            None => TextInterest::Ignore,
        }
    }

    fn end_element(&mut self, name: &str, _name_id: NameId) {
        if !self.root_rejected {
            self.pop(name);
        }
    }

    fn text(&mut self, chunk: TextChunk<'_>) {
        // Text nodes occupy arena slots in the tree build.
        self.next_node += 1;
        if !self.root_rejected {
            self.text_chunk(chunk);
        }
    }
}

/// One-shot validation under the priority semantics (default options).
pub fn validate(bxsd: &Bxsd, doc: &Document) -> BxsdReport {
    CompiledBxsd::new(bxsd).validate(doc)
}

/// One-shot validation with explicit [`ValidateOptions`].
pub fn validate_with(bxsd: &Bxsd, doc: &Document, opts: ValidateOptions) -> BxsdReport {
    CompiledBxsd::new(bxsd).validate_with(doc, opts)
}

/// Whether `doc` conforms to `bxsd` (priority semantics).
pub fn is_valid(bxsd: &Bxsd, doc: &Document) -> bool {
    validate(bxsd, doc).is_valid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use relang::{Regex, Sym};
    use xmltree::builder::elem;
    use xsd::{AttributeUse, ContentModel};

    fn recording() -> ValidateOptions {
        ValidateOptions {
            record_matches: true,
            ..ValidateOptions::default()
        }
    }

    /// The Figure-5-style schema from the bxsd module tests, with a
    /// required title on content sections.
    fn example() -> Bxsd {
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
        b.suffix_rule(
            &["template", "section"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.build().unwrap()
    }

    #[test]
    fn accepts_valid_document() {
        let x = example();
        let doc = elem("document")
            .child(elem("template").child(elem("section")))
            .child(elem("content").child(elem("section").attr("title", "Intro").text("hi")))
            .build();
        let r = validate(&x, &doc);
        assert!(r.is_valid(), "{:?}", r.violations);
    }

    #[test]
    fn example_schema_uses_the_product_path() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        assert!(
            c.product_states().is_some(),
            "Figure-5-style schema must fit the default budget"
        );
    }

    #[test]
    fn matches_recorded_only_on_request() {
        let x = example();
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content"))
            .build();
        let c = CompiledBxsd::new(&x);
        assert!(c.validate(&doc).matches.is_empty());
        assert_eq!(c.validate_with(&doc, recording()).matches.len(), 3);
    }

    #[test]
    fn priority_overrides_general_rule() {
        let x = example();
        // A template section must NOT need a title (rule 4 wins over 3).
        let doc = elem("document")
            .child(elem("template").child(elem("section")))
            .child(elem("content"))
            .build();
        let r = validate_with(&x, &doc, recording());
        assert!(r.is_valid(), "{:?}", r.violations);
        // the template section matched rules [3, 4], relevant = 4
        let tsec = doc
            .elements()
            .into_iter()
            .find(|&n| doc.name(n) == Some("section"))
            .unwrap();
        let m = &r.matches[&tsec];
        assert_eq!(m.matching, vec![3, 4]);
        assert_eq!(m.relevant, Some(4));
    }

    #[test]
    fn general_rule_applies_where_special_does_not() {
        let x = example();
        // content section without title: rule 3 is relevant → violation
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("section")))
            .build();
        let r = validate(&x, &doc);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::MissingAttribute(a) if a == "title")));
    }

    #[test]
    fn nodes_without_matching_rule_are_unconstrained() {
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        let bb = b.ename.intern("b");
        // only rule: a's children must be b
        b.rule(Regex::word(&[a]), ContentModel::new(Regex::sym(bb)));
        let x = b.build().unwrap();
        // b itself has no rule: anything under it is fine (Definition 1)
        let doc = elem("a")
            .child(elem("b").child(elem("b")).child(elem("b")).text("text"))
            .build();
        let r = validate_with(&x, &doc, recording());
        assert!(r.is_valid(), "{:?}", r.violations);
        let bnode = doc.element_children(doc.root()).next().unwrap();
        assert_eq!(r.matches[&bnode].relevant, None);
    }

    #[test]
    fn wrong_root_rejected() {
        let x = example();
        let doc = elem("section").build();
        let r = validate(&x, &doc);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::RootNotAllowed(_)
        ));
    }

    #[test]
    fn unknown_child_fails_constrained_parent() {
        let x = example();
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("zzz")))
            .build();
        let r = validate(&x, &doc);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::ContentModel { element, at: 0 } if element == "content")));
    }

    #[test]
    fn compiled_validator_agrees_with_reference_relevance() {
        let x = example();
        let doc = elem("document")
            .child(elem("template").child(elem("section").child(elem("section"))))
            .child(
                elem("content").child(
                    elem("section")
                        .attr("title", "t")
                        .child(elem("section").attr("title", "u")),
                ),
            )
            .build();
        let r = validate_with(&x, &doc, recording());
        for (&node, m) in &r.matches {
            let path: Vec<Sym> = doc
                .anc_str(node)
                .iter()
                .map(|n| x.ename.lookup(n).unwrap())
                .collect();
            assert_eq!(m.relevant, x.relevant_rule(&path), "node {node:?}");
        }
    }

    /// Documents exercising every violation class against `example()`.
    fn test_documents() -> Vec<xmltree::Document> {
        vec![
            elem("document")
                .child(elem("template").child(elem("section")))
                .child(elem("content").child(elem("section").attr("title", "Intro").text("hi")))
                .build(),
            elem("document")
                .child(elem("template"))
                .child(elem("content").child(elem("section")))
                .build(),
            elem("document")
                .child(elem("template"))
                .child(elem("content").child(elem("zzz")).child(elem("section")))
                .build(),
            elem("section").build(),
            elem("document")
                .child(elem("content"))
                .child(elem("template"))
                .build(),
        ]
    }

    #[test]
    fn product_and_lockstep_agree() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        assert!(c.product_states().is_some());
        for doc in test_documents() {
            let fast = c.validate_with(&doc, recording());
            let slow = c.validate_with(
                &doc,
                ValidateOptions {
                    record_matches: true,
                    force_lockstep: true,
                },
            );
            assert_eq!(fast.violations, slow.violations);
            assert_eq!(fast.matches, slow.matches);
        }
    }

    #[test]
    fn budget_overflow_falls_back_to_lockstep() {
        let x = example();
        let tiny = CompiledBxsd::with_budget(&x, 1);
        assert_eq!(tiny.product_states(), None);
        let full = CompiledBxsd::new(&x);
        for doc in test_documents() {
            let a = tiny.validate_with(&doc, recording());
            let b = full.validate_with(&doc, recording());
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.matches, b.matches);
        }
    }

    /// Streams `input` and tree-validates the parse of the same bytes;
    /// asserts byte-identical reports under all four strategy/recording
    /// combinations. Returns the (sorted) violations for further checks.
    fn assert_stream_equivalence(c: &CompiledBxsd<'_>, input: &str) -> Vec<Violation> {
        let doc = xmltree::parse_document(input).expect("test inputs are well-formed");
        let mut out = Vec::new();
        for force_lockstep in [false, true] {
            for record_matches in [false, true] {
                let opts = ValidateOptions {
                    record_matches,
                    force_lockstep,
                };
                let tree = c.validate_with(&doc, opts);
                let mut reader = XmlReader::from_str(input);
                let streamed = c.validate_stream_with(&mut reader, opts).unwrap();
                assert_eq!(streamed.violations, tree.violations, "{opts:?} on {input}");
                assert_eq!(streamed.matches, tree.matches, "{opts:?} on {input}");
                out = streamed.violations;
            }
        }
        out
    }

    #[test]
    fn stream_matches_tree_on_example_documents() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        for doc in test_documents() {
            let input = xmltree::to_string(&doc);
            assert_stream_equivalence(&c, &input);
        }
    }

    #[test]
    fn stream_matches_tree_without_product() {
        let x = example();
        let c = CompiledBxsd::with_budget(&x, 0);
        assert_eq!(c.product_states(), None);
        for doc in test_documents() {
            let input = xmltree::to_string(&doc);
            assert_stream_equivalence(&c, &input);
        }
    }

    #[test]
    fn stream_rejects_malformed_xml() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let mut reader = XmlReader::from_str("<document><template></document>");
        assert!(c.validate_stream(&mut reader).is_err());
        // Root rejection still surfaces later parse errors (the tree
        // path would fail at parse time, before validation).
        let mut reader = XmlReader::from_str("<zzz><a></b></zzz>");
        assert!(c.validate_stream(&mut reader).is_err());
    }

    #[test]
    fn stream_works_from_io_reader() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let input =
            "<document><template/><content><section title=\"t\">hi</section></content></document>";
        let mut reader = XmlReader::from_reader(input.as_bytes());
        let r = c.validate_stream(&mut reader).unwrap();
        assert!(r.is_valid(), "{:?}", r.violations);
    }

    #[test]
    fn whitespace_only_text_in_element_only_content_is_fine() {
        // Pretty-printed documents put whitespace text between children
        // of element-only models; that must not be UnexpectedText — in
        // either validator.
        let x = example();
        let c = CompiledBxsd::new(&x);
        let input = "<document>\n  <template/>\n  <content>\n    <section title=\"t\"/>\n  </content>\n</document>";
        let violations = assert_stream_equivalence(&c, input);
        assert!(violations.is_empty(), "{violations:?}");
        // …while real text there still is a violation, at the right node.
        let bad = "<document>\n  <template/>stray\n  <content/>\n</document>";
        let violations = assert_stream_equivalence(&c, bad);
        assert_eq!(violations.len(), 1);
        assert!(
            matches!(&violations[0].kind, ViolationKind::UnexpectedText(e) if e == "document"),
            "{violations:?}"
        );
        // Only XML's S characters are whitespace: a no-break space (or a
        // next-line character) is text.
        for space in ["\u{a0}", "\u{85}"] {
            let nbsp = format!("<document><template/>{space}<content/></document>");
            let violations = assert_stream_equivalence(&c, &nbsp);
            assert!(
                matches!(&violations[..], [v] if matches!(&v.kind, ViolationKind::UnexpectedText(e) if e == "document")),
                "{violations:?}"
            );
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let docs = test_documents();
        let batch = c.validate_batch(&docs, recording());
        assert_eq!(batch.len(), docs.len());
        for (doc, got) in docs.iter().zip(&batch) {
            let want = c.validate_with(doc, recording());
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.matches, want.matches);
        }
    }

    /// The arena replay on an *edited* arena, where node ids are not in
    /// pre-order and name ids are not in document order — a case the
    /// stream tests never see, because they reparse.
    #[test]
    fn edited_arena_matches_oracle() {
        let x = example();
        let mut d = elem("document")
            .child(elem("template").text(" "))
            .child(elem("content").text("intro").child(elem("template")))
            .build();
        let find = |d: &Document, name: &str| {
            d.iter_elements()
                .find(|&n| d.name(n) == Some(name))
                .unwrap()
        };
        let template = find(&d, "template");
        let content = find(&d, "content");
        let old = d.element_children(content).next().unwrap();
        // New names ahead of older siblings: one the schema knows, one
        // it does not.
        let section = d.insert_child(content, 0, "section");
        d.add_text(section, "mixed");
        let nested = d.add_element(section, "section");
        d.set_attribute(nested, "title", "t");
        let unknown = d.insert_child(template, 0, "zzz");
        d.add_element(content, "section");
        d.remove_child(content, old);
        // Document order: document, template, zzz, content, section, …
        assert!(unknown.0 > content.0 && section.0 > content.0);
        assert!(d.name_id(unknown) > d.name_id(section));
        assert!(d.name_id(section) > d.name_id(content));

        let c = CompiledBxsd::new(&x);
        let want = crate::oracle::validate_with(&x, &d, true);
        assert!(want.violations.len() >= 4, "{:?}", want.violations);
        for force_lockstep in [false, true] {
            let got = c.validate_with(
                &d,
                ValidateOptions {
                    record_matches: true,
                    force_lockstep,
                },
            );
            assert_eq!(
                got.violations, want.violations,
                "lock-step: {force_lockstep}"
            );
            assert_eq!(got.matches, want.matches, "lock-step: {force_lockstep}");
        }
    }
}
