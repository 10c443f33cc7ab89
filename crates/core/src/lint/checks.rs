//! The individual lint checks, driven by [`lint_ast`] (BonXai) and
//! [`lint_xsd`] (loaded XSDs).
//!
//! Every check is a decision procedure on regular languages, so each
//! diagnostic is *proved*, not guessed: dead rules come with the shortest
//! shadowed path, UPA violations with the shortest ambiguous child
//! sequence, and the reachability analysis explores only ancestor paths
//! that some document can actually realize under the priority semantics.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use relang::cache::AutomataCache;
use relang::ops::language::difference_witness_dfa;
use relang::ops::minimize;
use relang::ops::product::product2;
use relang::ops::subset::SubsetInterner;
use relang::regex::determinism::{check_deterministic_witness, NonDeterminism, UpaWitness};
use relang::regex::props::is_empty_language;
use relang::{Alphabet, Dfa, Regex, Sym};
use xsd::{ContentModel, Xsd};

use crate::bxsd::Bxsd;
use crate::lang::ast::{SchemaAst, Span};
use crate::lang::lower::lower_lenient;
use crate::lint::{Code, Diagnostic, LintOptions, LintReport};
use crate::translate::classify_bxsd;

/// Lints a parsed BonXai schema: lowers it leniently and runs every
/// check, attaching the source span of each offending rule.
pub fn lint_ast(ast: &SchemaAst, opts: &LintOptions) -> LintReport {
    lint_ast_with(ast, opts, &mut AutomataCache::new())
}

/// [`lint_ast`] through a caller-owned [`AutomataCache`] shared with
/// other compile stages (and other schemas). The report does not depend
/// on what the cache already holds: every memoized construction is
/// deterministic and keyed by its full input.
pub fn lint_ast_with(ast: &SchemaAst, opts: &LintOptions, cache: &mut AutomataCache) -> LintReport {
    let mut report = LintReport::default();
    let lowered = lower_lenient(ast);
    let bxsd = &lowered.bxsd;
    let n = bxsd.ename.len();

    // BX005: structural problems collected by the lenient lowering.
    for issue in &lowered.issues {
        let rule = &ast.rules[issue.rule];
        let message = if issue.attribute_rule {
            format!("attribute rule {}", issue.message)
        } else {
            issue.message.clone()
        };
        report.diagnostics.push(Diagnostic {
            code: Code::UndefinedReference,
            span: rule.span,
            subject: rule.pattern.source.clone(),
            message,
            witness: None,
        });
    }

    // Per-rule provenance: BXSD rule index → source span / LHS text.
    let src = |i: usize| &ast.rules[lowered.rule_source[i]];

    // BX003: UPA with a shortest ambiguous child sequence.
    for (i, rule) in bxsd.rules.iter().enumerate() {
        if let Err(w) = check_deterministic_witness(&rule.content.regex) {
            report.diagnostics.push(upa_diagnostic(
                &w,
                &bxsd.ename,
                src(i).span,
                src(i).pattern.source.clone(),
            ));
        }
    }

    // BX004: content models that admit nothing.
    for (i, rule) in bxsd.rules.iter().enumerate() {
        if let Some(reason) = vacuous_reason(&rule.content) {
            report.diagnostics.push(Diagnostic {
                code: Code::VacuousContent,
                span: src(i).span,
                subject: src(i).pattern.source.clone(),
                message: format!("rule can never be satisfied: {reason}"),
                witness: None,
            });
        }
    }

    if opts.structural_only {
        return report.finish(opts);
    }

    // BX002: reachability under the priority semantics (budgeted), then
    // BX001 (dead rules) for the rules that *are* reachable — a rule
    // gets one of the two diagnoses, with unreachability the stronger.
    let reach = reachable_rules(bxsd, opts.reach_budget, cache);
    let mut unreachable = vec![false; bxsd.rules.len()];
    match reach {
        Some(reached) => {
            for (i, rule) in bxsd.rules.iter().enumerate() {
                if reached[i] {
                    continue;
                }
                unreachable[i] = true;
                let message = if is_empty_language(&rule.ancestor) {
                    "rule is unreachable: its pattern matches no ancestor path at all".to_string()
                } else {
                    "rule is unreachable: no document can realize an ancestor path \
                     matching its pattern"
                        .to_string()
                };
                report.diagnostics.push(Diagnostic {
                    code: Code::UnreachableRule,
                    span: src(i).span,
                    subject: src(i).pattern.source.clone(),
                    message,
                    witness: None,
                });
            }
        }
        None => {
            // Budget blown: still report the trivial cases (empty
            // pattern language needs no reachability analysis).
            for (i, rule) in bxsd.rules.iter().enumerate() {
                if is_empty_language(&rule.ancestor) {
                    unreachable[i] = true;
                    report.diagnostics.push(Diagnostic {
                        code: Code::UnreachableRule,
                        span: src(i).span,
                        subject: src(i).pattern.source.clone(),
                        message: "rule is unreachable: its pattern matches no ancestor \
                                  path at all"
                            .to_string(),
                        witness: None,
                    });
                }
            }
            report.diagnostics.push(Diagnostic {
                code: Code::BudgetExceeded,
                span: Span::default(),
                subject: "reachability".to_string(),
                message: format!(
                    "reachability analysis exceeded its budget of {} states; \
                     the unreachable-rule check was skipped",
                    opts.reach_budget
                ),
                witness: None,
            });
        }
    }

    // BX001: dead rules (language-level shadowing by later rules). A
    // rule is dead iff L(ancestor_i) ⊆ L(ancestor_{i+1}) ∪ … — instead
    // of determinizing the (growing) alternation of later patterns per
    // rule, fold one minimal suffix-union DFA right to left: U_i is the
    // minimal DFA of the union of all patterns after rule i, built by
    // one binary product + minimization per rule.
    let n_rules = bxsd.rules.len();
    let suffix_unions: Vec<Dfa> = {
        // The minimal complete DFA of ∅: one non-accepting sink.
        let mut empty = Dfa::new(n, 1, 0);
        for a in 0..n {
            empty.set_transition(0, Sym(a as u32), Some(0));
        }
        let mut unions = vec![empty; n_rules];
        for i in (0..n_rules.saturating_sub(1)).rev() {
            let next_min = cache.min_dfa(&bxsd.rules[i + 1].ancestor, n);
            unions[i] = minimize(&product2(&next_min, &unions[i + 1], |x, y| x || y));
        }
        unions
    };
    for (i, rule) in bxsd.rules.iter().enumerate() {
        if unreachable[i] || is_empty_language(&rule.ancestor) {
            continue;
        }
        let anc = cache.min_dfa(&rule.ancestor, n);
        if difference_witness_dfa(&anc, &suffix_unions[i]).is_some() {
            continue;
        }
        let word = cache
            .raw_dfa(&rule.ancestor, n)
            .shortest_accepted_word()
            .unwrap_or_default();
        let winner = bxsd.relevant_rule(&word);
        let witness = winner.map(|j| {
            format!(
                "{} is claimed by rule {} `{}`",
                render_path(&word, &bxsd.ename),
                j + 1,
                src(j).pattern.source
            )
        });
        report.diagnostics.push(Diagnostic {
            code: Code::DeadRule,
            span: src(i).span,
            subject: src(i).pattern.source.clone(),
            message: "rule is dead: every ancestor path it matches is also matched \
                      by a later rule, which takes priority"
                .to_string(),
            witness,
        });
    }

    // BX010: rules that are relevant at some realizable context but
    // admit no finite conforming subtree there — the whole-schema
    // satisfiability engine, reporting the shortest witness context.
    match crate::analysis::unsatisfiable_rule_contexts(bxsd, opts.reach_budget, cache) {
        Ok(unsat) => {
            for u in unsat {
                if unreachable[u.rule] || vacuous_reason(&bxsd.rules[u.rule].content).is_some() {
                    continue; // already diagnosed as BX002 / BX004
                }
                report.diagnostics.push(Diagnostic {
                    code: Code::UnsatisfiableRule,
                    span: src(u.rule).span,
                    subject: src(u.rule).pattern.source.clone(),
                    message: "rule is unsatisfiable in context: no finite conforming \
                              subtree exists where it applies"
                        .to_string(),
                    witness: Some(format!("at /{}", u.path.join("/"))),
                });
            }
        }
        Err(err) => {
            report.diagnostics.push(Diagnostic {
                code: Code::BudgetExceeded,
                span: Span::default(),
                subject: "satisfiability".to_string(),
                message: format!("{err}; the unsatisfiable-rule check was skipped"),
                witness: None,
            });
        }
    }

    // BX006: element names that occur in content models (or as roots)
    // but are never the last step of any rule pattern — nodes with such
    // names are always unconstrained (no relevant rule).
    let mut used: BTreeSet<Sym> = bxsd.start.iter().copied().collect();
    let mut anything_open = false;
    for rule in &bxsd.rules {
        if rule.content.open {
            anything_open = true;
        }
        used.extend(rule.content.regex.symbols());
    }
    if anything_open {
        used.extend(bxsd.ename.symbols());
    }
    // A name is constrained iff some word of some L(ancestor) ends with
    // it. In a minimal DFA every state is reachable, so "some accepted
    // word ends with a" ⟺ "some state has an a-transition into a final
    // state" — one scan of each rule's minimal ancestor DFA replaces a
    // DFA product per (name, rule) pair.
    let mut ends_with_sym = vec![false; n];
    for rule in &bxsd.rules {
        let d = cache.min_dfa(&rule.ancestor, n);
        for q in 0..d.n_states() {
            for (a, seen) in ends_with_sym.iter_mut().enumerate() {
                if !*seen
                    && d.transition(q, Sym(a as u32))
                        .is_some_and(|t| d.is_final(t))
                {
                    *seen = true;
                }
            }
        }
    }
    for &sym in &used {
        if !ends_with_sym[sym.index()] {
            report.diagnostics.push(Diagnostic {
                code: Code::UnconstrainedElement,
                span: Span::default(),
                subject: bxsd.ename.name(sym).to_string(),
                message: format!(
                    "no rule ever applies to element \"{}\": its nodes are \
                     unconstrained (any children, attributes, and text allowed)",
                    bxsd.ename.name(sym)
                ),
                witness: None,
            });
        }
    }

    // BX007: k-suffix fragment advisory (Theorems 9/12/13).
    let fragment = match classify_bxsd(bxsd) {
        Some((_, k)) => Diagnostic {
            code: Code::FragmentAdvisory,
            span: Span::default(),
            subject: "fragment".to_string(),
            message: format!(
                "schema lies in the k-suffix fragment (k = {k}): the linear-size \
                 DTD-style translation to XSD applies (Theorem 13)"
            ),
            witness: None,
        },
        None => Diagnostic {
            code: Code::FragmentAdvisory,
            span: Span::default(),
            subject: "fragment".to_string(),
            message: "schema is outside the k-suffix fragment: translation to XSD \
                      goes through an automaton construction and may grow \
                      exponentially (Theorem 9)"
                .to_string(),
            witness: None,
        },
    };
    report.diagnostics.push(fragment);

    // BX008: relevance-product blow-up probe (same budget as the
    // validator's default — with a shared cache, a later
    // `CompiledBxsd` build of this schema reuses the probe's product).
    let ancestors: Vec<&Regex> = bxsd.rules.iter().map(|r| &r.ancestor).collect();
    if cache
        .relevance_product(n, &ancestors, opts.product_budget)
        .is_none()
    {
        report.diagnostics.push(Diagnostic {
            code: Code::ProductBlowup,
            span: Span::default(),
            subject: "relevance-product".to_string(),
            message: format!(
                "relevance product over the rule patterns exceeds {} states: \
                 validation falls back to per-node rule matching and the XSD \
                 translation may be very large",
                opts.product_budget
            ),
            witness: None,
        });
    }

    report.finish(opts)
}

/// Lints a loaded XSD: mirrors the UPA (BX003), vacuous-content (BX004),
/// and referential-integrity (BX005) checks on each complex type. The
/// schema is expected to come from
/// [`xsd::syntax::parse_xsd_unchecked`]; a fully checked [`Xsd`] lints
/// clean by construction.
pub fn lint_xsd(xsd: &Xsd, opts: &LintOptions) -> LintReport {
    let mut report = LintReport::default();
    let n = xsd.n_types();

    // BX005: duplicate type names survive only in unchecked schemas.
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for t in xsd.type_ids() {
        let name = xsd.type_name(t);
        if !seen.insert(name) {
            report.diagnostics.push(Diagnostic {
                code: Code::UndefinedReference,
                span: Span::default(),
                subject: name.to_string(),
                message: format!("duplicate type name {name:?}"),
                witness: None,
            });
        }
    }

    for t in xsd.type_ids() {
        let name = xsd.type_name(t).to_string();
        let content = xsd.content(t);

        // BX003: UPA per content model, with witness.
        if let Err(w) = check_deterministic_witness(&content.regex) {
            report.diagnostics.push(upa_diagnostic(
                &w,
                &xsd.ename,
                Span::default(),
                name.clone(),
            ));
        }

        // BX004: vacuous content models.
        if let Some(reason) = vacuous_reason(content) {
            report.diagnostics.push(Diagnostic {
                code: Code::VacuousContent,
                span: Span::default(),
                subject: name.clone(),
                message: format!("type can never be satisfied: {reason}"),
                witness: None,
            });
        }

        // BX005: every child element must have a typing (EDC gives
        // uniqueness by construction; existence can still fail).
        let syms: BTreeSet<Sym> = content.regex.symbols().into_iter().collect();
        for sym in syms {
            match xsd.child_type(t, sym) {
                None => report.diagnostics.push(Diagnostic {
                    code: Code::UndefinedReference,
                    span: Span::default(),
                    subject: name.clone(),
                    message: format!(
                        "type {name:?} gives no type to its child element \"{}\"",
                        &xsd.ename.name(sym)
                    ),
                    witness: None,
                }),
                Some(id) if id.index() >= n => report.diagnostics.push(Diagnostic {
                    code: Code::UndefinedReference,
                    span: Span::default(),
                    subject: name.clone(),
                    message: format!(
                        "type {name:?} types its child element \"{}\" with a \
                         dangling type id",
                        &xsd.ename.name(sym)
                    ),
                    witness: None,
                }),
                Some(_) => {}
            }
        }
    }

    for (sym, t) in xsd.start_elements() {
        if t.index() >= n {
            report.diagnostics.push(Diagnostic {
                code: Code::UndefinedReference,
                span: Span::default(),
                subject: xsd.ename.name(*sym).to_string(),
                message: format!(
                    "root element \"{}\" references a dangling type id",
                    &xsd.ename.name(*sym)
                ),
                witness: None,
            });
        }
    }

    // BX007: k-suffix fragment advisory, mirroring the BonXai arm. The
    // classifier needs a well-formed schema (its automaton construction
    // assumes UPA and resolved references), so skip it when any
    // error-level finding was already reported.
    let structurally_sound = !report
        .diagnostics
        .iter()
        .any(|d| d.severity() == crate::lint::Severity::Error);
    if !opts.structural_only && structurally_sound {
        let advisory = match xsd_fragment(xsd) {
            Some(k) => format!(
                "schema lies in the k-suffix fragment (k = {k}): the polynomial \
                 XSD → BonXai translation applies (Theorem 12)"
            ),
            None => format!(
                "schema is outside the k-suffix fragment (k ≤ {MAX_FRAGMENT_K}): \
                 the BonXai translation goes through the general algorithm and \
                 may produce large ancestor patterns (Theorem 8)"
            ),
        };
        report.diagnostics.push(Diagnostic {
            code: Code::FragmentAdvisory,
            span: Span::default(),
            subject: "fragment".to_string(),
            message: advisory,
            witness: None,
        });
    }

    report.finish(opts)
}

/// The largest k the fragment classifier tries before giving up.
pub const MAX_FRAGMENT_K: usize = 5;

/// State budget for the k-suffix decision procedure on XSDs.
const FRAGMENT_BUDGET: usize = 2_000_000;

/// The minimal k for which a loaded XSD lies in the k-suffix fragment
/// (checked up to [`MAX_FRAGMENT_K`]), or `None` when it does not.
/// Shared by the BX007 advisory and `bonxai analyze`.
pub fn xsd_fragment(xsd: &Xsd) -> Option<usize> {
    xsd::minimal_k(
        &crate::translate::xsd_to_dfa_xsd(xsd),
        MAX_FRAGMENT_K,
        FRAGMENT_BUDGET,
    )
}

/// Builds the BX003 diagnostic from a UPA witness, rendering positions
/// and words with real element names.
fn upa_diagnostic(w: &UpaWitness, names: &Alphabet, span: Span, subject: String) -> Diagnostic {
    let (message, witness) = match (&w.violation, w.sym) {
        (NonDeterminism::AmbiguousFirst { .. }, Some(sym)) => (
            format!(
                "content model violates UPA: at the start of the content, element \
                 \"{}\" matches two competing occurrences",
                names.name(sym)
            ),
            Some(render_children(&w.word(), names)),
        ),
        (NonDeterminism::AmbiguousFollow { .. }, Some(sym)) => (
            format!(
                "content model violates UPA: after reading \"{}\", element \"{}\" \
                 matches two competing occurrences",
                render_children(&w.prefix, names),
                names.name(sym)
            ),
            Some(render_children(&w.word(), names)),
        ),
        (NonDeterminism::DuplicateAllOperand { sym }, _) => (
            format!(
                "content model violates UPA: interleaving declares element \"{}\" twice",
                names.name(*sym)
            ),
            None,
        ),
        (violation, _) => (format!("content model violates UPA: {violation}"), None),
    };
    Diagnostic {
        code: Code::UpaViolation,
        span,
        subject,
        message,
        witness,
    }
}

/// Why a content model admits no node at all, if it doesn't.
fn vacuous_reason(content: &ContentModel) -> Option<String> {
    if content.open {
        return None;
    }
    if let Some(st) = content.simple_content {
        let f = &content.simple_facets;
        if !f.enumeration.is_empty()
            && !f
                .enumeration
                .iter()
                .any(|v| st.validates(v) && f.validates(st, v))
        {
            return Some(format!(
                "no enumeration value is a valid {st:?}, so no text content is accepted"
            ));
        }
        return None;
    }
    if is_empty_language(&content.regex) {
        return Some("the content model matches no child sequence, not even the empty one".into());
    }
    None
}

/// Which rules are matched by at least one *realizable* ancestor path:
/// a breadth-first search over tuples of per-rule ancestor-DFA states,
/// extending each path only by element names the relevant rule's content
/// model actually allows (all names when a node is unconstrained or its
/// content is open). Returns `None` when more than `budget` tuples were
/// generated.
fn reachable_rules(bxsd: &Bxsd, budget: usize, cache: &mut AutomataCache) -> Option<Vec<bool>> {
    let n = bxsd.ename.len();
    let n_rules = bxsd.rules.len();
    let all_syms: Vec<Sym> = bxsd.ename.symbols().collect();

    // Completed + minimized ancestor DFAs keep the tuple space small and
    // make every transition total.
    let dfas: Vec<Arc<Dfa>> = bxsd
        .rules
        .iter()
        .map(|r| cache.min_dfa(&r.ancestor, n))
        .collect();

    // Element names each rule's content allows as children.
    let child_syms: Vec<Vec<Sym>> = bxsd
        .rules
        .iter()
        .map(|r| {
            if r.content.open {
                all_syms.clone()
            } else if r.content.simple_content.is_some() {
                Vec::new()
            } else {
                let set: BTreeSet<Sym> = r.content.regex.symbols().into_iter().collect();
                set.into_iter().collect()
            }
        })
        .collect();

    // The tuple space lives in an interner (arena slices + Fx index);
    // the visited count is the interner's length.
    let mut interner = SubsetInterner::with_capacity(64);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut reached = vec![false; n_rules];
    let mut cur: Vec<u32> = Vec::with_capacity(n_rules);
    let mut succ: Vec<u32> = Vec::with_capacity(n_rules);
    let root: Vec<u32> = dfas.iter().map(|d| d.initial() as u32).collect();
    let step = |from: &[u32], sym: Sym, into: &mut Vec<u32>, dfas: &[Arc<Dfa>]| {
        into.clear();
        for (&q, d) in from.iter().zip(dfas) {
            let t = d
                .transition(q as usize, sym)
                .expect("completed DFA is total");
            into.push(t as u32);
        }
    };
    for &s in &bxsd.start {
        step(&root, s, &mut succ, &dfas);
        let before = interner.len();
        let id = interner.intern(&succ);
        if id as usize == before {
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        if interner.len() > budget {
            return None;
        }
        cur.clear();
        cur.extend_from_slice(interner.get(id as usize));
        // Largest matching rule index = the relevant rule (Definition 1).
        let mut relevant = None;
        for i in (0..n_rules).rev() {
            if dfas[i].is_final(cur[i] as usize) {
                reached[i] = true;
                relevant.get_or_insert(i);
            }
        }
        let next_syms = match relevant {
            Some(i) => &child_syms[i],
            None => &all_syms, // unconstrained node: any children
        };
        for &s in next_syms {
            step(&cur, s, &mut succ, &dfas);
            let before = interner.len();
            let id = interner.intern(&succ);
            if id as usize == before {
                queue.push_back(id);
            }
        }
    }
    Some(reached)
}

/// Renders an ancestor path with element names, `/`-separated.
fn render_path(word: &[Sym], names: &Alphabet) -> String {
    if word.is_empty() {
        return "ε".to_string();
    }
    word.iter()
        .map(|&s| names.name(s))
        .collect::<Vec<_>>()
        .join("/")
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
