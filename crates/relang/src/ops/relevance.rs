//! Synchronized product of rule automata with relevance annotations.
//!
//! BonXai's semantics (Definition 1) makes the *last* rule whose ancestor
//! pattern matches a node's ancestor string the node's relevant rule.
//! Validating a node therefore means knowing, for its ancestor string
//! `anc-str(v)`, which of the N rule languages contain it. The naive
//! evaluation runs all N ancestor DFAs in lock-step — N table lookups per
//! node. This module builds the reachable part of the synchronized
//! product of those DFAs once, annotating every product state with its
//! matching-rule set and relevant rule, so validation needs **one**
//! transition lookup per node (the idea behind the paper's Lemma 7:
//! the product exposes per-state relevance directly).
//!
//! The product is worst-case exponential in the number of rules
//! (Theorem 9's lower bound applies to exactly this construction), so
//! [`RelevanceProduct::build`] enforces a state budget and reports
//! failure instead of blowing up; callers fall back to lock-step
//! evaluation. In practice ancestor patterns are overwhelmingly k-suffix
//! (Section 4.4) and the reachable product stays tiny.
//!
//! Unlike [`super::product`], the construction here works directly on
//! *partial* component DFAs: each component carries an implicit dead
//! state (sentinel `DEAD_COMPONENT`) and the all-dead tuple is interned
//! unconditionally so callers can park unmatchable subtrees on it.

use crate::alphabet::Sym;
use crate::dfa::Dfa;
use crate::ops::subset::SubsetInterner;

/// Per-component sentinel for "this rule automaton has rejected".
const DEAD_COMPONENT: u32 = u32::MAX;

/// Sentinel in the `relevant` table for "no rule matches".
const NO_RULE: u32 = u32::MAX;

/// A compact product-state identifier.
pub type ProductState = u32;

/// The reachable synchronized product of N partial DFAs, annotated per
/// state with the set of components in an accepting state ("matching")
/// and the largest such index ("relevant", Definition 1's priority).
///
/// The transition function is **total**: unmatched symbols and the
/// explicit [`RelevanceProduct::dead`] state self-loop into dead.
#[derive(Clone, Debug)]
pub struct RelevanceProduct {
    n_syms: usize,
    n_components: usize,
    initial: ProductState,
    dead: ProductState,
    /// Row-major `n_states × n_syms` total transition table.
    table: Vec<ProductState>,
    /// Per state: largest matching component index, or `NO_RULE`.
    relevant: Vec<u32>,
    /// Per state: offset range into `match_data` (CSR layout).
    match_off: Vec<u32>,
    /// Concatenated matching-component sets, each sorted ascending.
    match_data: Vec<u32>,
}

impl RelevanceProduct {
    /// Builds the reachable product of `components` over an alphabet of
    /// `n_syms` symbols, exploring at most `budget` product states.
    ///
    /// Returns `None` when the reachable product exceeds the budget
    /// (Theorem 9 says this can genuinely happen) — callers should fall
    /// back to lock-step evaluation.
    ///
    /// Every component must be over the same `n_syms`-symbol alphabet.
    pub fn build(n_syms: usize, components: &[Dfa], budget: usize) -> Option<RelevanceProduct> {
        let refs: Vec<&Dfa> = components.iter().collect();
        RelevanceProduct::build_refs(n_syms, &refs, budget)
    }

    /// [`RelevanceProduct::build`] over borrowed components — lets
    /// callers holding shared (`Arc`ed) DFAs build the product without
    /// cloning every component table.
    pub fn build_refs(
        n_syms: usize,
        components: &[&Dfa],
        budget: usize,
    ) -> Option<RelevanceProduct> {
        for &d in components {
            assert_eq!(d.n_syms(), n_syms, "component alphabet mismatch");
            assert!(
                (d.n_states() as u64) < DEAD_COMPONENT as u64,
                "component too large"
            );
        }
        let n = components.len();

        // Tuples are interned as `u32` slices in a shared arena with
        // Fx-hashed open addressing — the same kernel the subset
        // construction uses. Ids come out in first-insertion order, so
        // the state numbering is identical to the previous
        // `HashMap<Box<[u32]>, _>` memo, without a heap allocation and
        // a SipHash pass per successor tuple (the product stage spends
        // almost all its time interning already-seen tuples).
        let mut tuples = SubsetInterner::with_capacity(budget.clamp(16, 1 << 12));

        // Seed with the initial tuple and the all-dead tuple. A component
        // with no states at all is dead from the start.
        let mut scratch: Vec<u32> = Vec::with_capacity(n);
        scratch.extend(components.iter().map(|d| {
            if d.n_states() == 0 {
                DEAD_COMPONENT
            } else {
                d.initial() as u32
            }
        }));
        let initial = tuples.intern(&scratch);
        scratch.clear();
        scratch.resize(n, DEAD_COMPONENT);
        let dead = tuples.intern(&scratch);

        // BFS over the reachable product, building total rows as we go.
        // `cur` snapshots the tuple being expanded (the arena cannot be
        // borrowed across `intern`).
        let mut table: Vec<ProductState> = Vec::new();
        let mut cur: Vec<u32> = Vec::new();
        let mut next = 0usize;
        while next < tuples.len() {
            if tuples.len() > budget {
                return None;
            }
            cur.clear();
            cur.extend_from_slice(tuples.get(next));
            for a in 0..n_syms {
                scratch.clear();
                scratch.extend(cur.iter().zip(components).map(|(&q, d)| {
                    if q == DEAD_COMPONENT {
                        DEAD_COMPONENT
                    } else {
                        d.transition(q as usize, Sym(a as u32))
                            .map_or(DEAD_COMPONENT, |t| t as u32)
                    }
                }));
                table.push(tuples.intern(&scratch));
            }
            next += 1;
        }
        if tuples.len() > budget {
            return None;
        }

        // Annotate each state with its matching set and relevant rule.
        let mut relevant = Vec::with_capacity(tuples.len());
        let mut match_off = Vec::with_capacity(tuples.len() + 1);
        let mut match_data = Vec::new();
        match_off.push(0u32);
        for s in 0..tuples.len() {
            let tuple = tuples.get(s);
            for (i, (&q, d)) in tuple.iter().zip(components).enumerate() {
                if q != DEAD_COMPONENT && d.is_final(q as usize) {
                    match_data.push(i as u32);
                }
            }
            match_off.push(match_data.len() as u32);
            let lo = match_off[match_off.len() - 2] as usize;
            relevant.push(match_data[lo..].last().copied().unwrap_or(NO_RULE));
        }

        Some(RelevanceProduct {
            n_syms,
            n_components: n,
            initial,
            dead,
            table,
            relevant,
            match_off,
            match_data,
        })
    }

    /// Alphabet size.
    pub fn n_syms(&self) -> usize {
        self.n_syms
    }

    /// Number of component automata (rules).
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Number of product states actually constructed.
    pub fn n_states(&self) -> usize {
        self.relevant.len()
    }

    /// The product state for the empty ancestor string.
    #[inline]
    pub fn initial(&self) -> ProductState {
        self.initial
    }

    /// The all-dead state: no extension of the string read so far is in
    /// any rule language. Self-loops on every symbol.
    #[inline]
    pub fn dead(&self) -> ProductState {
        self.dead
    }

    /// Whether `q` is the all-dead state.
    #[inline]
    pub fn is_dead(&self, q: ProductState) -> bool {
        q == self.dead
    }

    /// `δ(q, a)` — total, a single table lookup.
    #[inline]
    pub fn step(&self, q: ProductState, a: Sym) -> ProductState {
        self.table[q as usize * self.n_syms + a.index()]
    }

    /// The components in an accepting state at `q` (ascending indices).
    #[inline]
    pub fn matching(&self, q: ProductState) -> &[u32] {
        let lo = self.match_off[q as usize] as usize;
        let hi = self.match_off[q as usize + 1] as usize;
        &self.match_data[lo..hi]
    }

    /// The largest matching component index at `q` — BonXai's relevant
    /// rule for the ancestor string that reached `q`.
    #[inline]
    pub fn relevant(&self, q: ProductState) -> Option<u32> {
        let r = self.relevant[q as usize];
        (r != NO_RULE).then_some(r)
    }

    /// Approximate heap footprint in bytes (for budget diagnostics).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.table.len() + self.relevant.len() + self.match_off.len() + self.match_data.len())
            * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::language::regex_to_dfa;
    use crate::regex::ast::Regex;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }

    /// Runs the lock-step reference over `word` and returns
    /// (matching set, relevant).
    fn lockstep(components: &[Dfa], word: &[Sym]) -> (Vec<u32>, Option<u32>) {
        let mut matching = Vec::new();
        for (i, d) in components.iter().enumerate() {
            if d.run(word).is_some_and(|q| d.is_final(q)) {
                matching.push(i as u32);
            }
        }
        let relevant = matching.last().copied();
        (matching, relevant)
    }

    fn product_of(n_syms: usize, exprs: &[Regex]) -> (Vec<Dfa>, RelevanceProduct) {
        let dfas: Vec<Dfa> = exprs.iter().map(|r| regex_to_dfa(r, n_syms)).collect();
        let p = RelevanceProduct::build(n_syms, &dfas, 10_000).expect("within budget");
        (dfas, p)
    }

    #[test]
    fn agrees_with_lockstep_on_all_short_words() {
        // Rules over {a=0, b=1, c=2}: Σ* a, Σ* b, a Σ*, (ab)*
        let sigma_star = Regex::star(Regex::alt(vec![s(0), s(1), s(2)]));
        let exprs = vec![
            Regex::concat(vec![sigma_star.clone(), s(0)]),
            Regex::concat(vec![sigma_star.clone(), s(1)]),
            Regex::concat(vec![s(0), sigma_star.clone()]),
            Regex::star(Regex::concat(vec![s(0), s(1)])),
        ];
        let (dfas, p) = product_of(3, &exprs);

        // Enumerate all words up to length 5.
        let mut words: Vec<Vec<Sym>> = vec![vec![]];
        let mut frontier = words.clone();
        for _ in 0..5 {
            let mut next = Vec::new();
            for w in &frontier {
                for a in 0..3u32 {
                    let mut w2 = w.clone();
                    w2.push(Sym(a));
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        for w in &words {
            let mut q = p.initial();
            for &a in w {
                q = p.step(q, a);
            }
            let (m, r) = lockstep(&dfas, w);
            assert_eq!(p.matching(q), m.as_slice(), "word {w:?}");
            assert_eq!(p.relevant(q), r, "word {w:?}");
        }
    }

    #[test]
    fn dead_state_self_loops_and_matches_nothing() {
        // Single rule: exactly "a".
        let (_, p) = product_of(2, &[s(0)]);
        let d = p.dead();
        assert!(p.is_dead(d));
        assert_eq!(p.step(d, Sym(0)), d);
        assert_eq!(p.step(d, Sym(1)), d);
        assert!(p.matching(d).is_empty());
        assert_eq!(p.relevant(d), None);
        // "b" leads straight to dead; "a" then anything leads to dead.
        let q = p.step(p.initial(), Sym(1));
        assert!(p.is_dead(q));
        let q = p.step(p.step(p.initial(), Sym(0)), Sym(0));
        assert!(p.is_dead(q));
    }

    #[test]
    fn relevance_is_last_matching_rule() {
        // Rule 0 matches a+; rule 1 matches aa. After "aa" both match and
        // rule 1 (later) must win; after "a" or "aaa" only rule 0.
        let exprs = vec![Regex::plus(s(0)), Regex::concat(vec![s(0), s(0)])];
        let (_, p) = product_of(1, &exprs);
        let q1 = p.step(p.initial(), Sym(0));
        let q2 = p.step(q1, Sym(0));
        let q3 = p.step(q2, Sym(0));
        assert_eq!(p.relevant(q1), Some(0));
        assert_eq!(p.matching(q2), &[0, 1]);
        assert_eq!(p.relevant(q2), Some(1));
        assert_eq!(p.relevant(q3), Some(0));
    }

    #[test]
    fn budget_overflow_returns_none() {
        // (Σ* a Σ^k) needs ≥ 2^k product states when paired for several k
        // — classic Theorem 9 shape. With a budget of 4 this must bail.
        let sigma_star = Regex::star(Regex::alt(vec![s(0), s(1)]));
        let tail = |k: usize| {
            let mut parts = vec![sigma_star.clone(), s(0)];
            parts.extend(std::iter::repeat_n(Regex::alt(vec![s(0), s(1)]), k));
            Regex::concat(parts)
        };
        let exprs: Vec<Regex> = (1..6).map(tail).collect();
        let dfas: Vec<Dfa> = exprs.iter().map(|r| regex_to_dfa(r, 2)).collect();
        assert!(RelevanceProduct::build(2, &dfas, 4).is_none());
        // A generous budget succeeds and agrees with lock-step.
        let p = RelevanceProduct::build(2, &dfas, 1_000_000).expect("fits");
        let word: Vec<Sym> = [0, 1, 0, 0, 1, 0, 1, 1].iter().map(|&i| Sym(i)).collect();
        let mut q = p.initial();
        for &a in &word {
            q = p.step(q, a);
        }
        assert_eq!(p.relevant(q), lockstep(&dfas, &word).1);
    }

    #[test]
    fn zero_components_is_trivially_total() {
        let p = RelevanceProduct::build(3, &[], 16).expect("trivial");
        assert_eq!(p.n_states(), 1); // initial == dead (empty tuple)
        let q = p.step(p.initial(), Sym(2));
        assert!(p.matching(q).is_empty());
        assert_eq!(p.relevant(q), None);
    }

    #[test]
    fn empty_component_is_dead_from_the_start() {
        let empty = Dfa::new(2, 0, 0);
        let one = regex_to_dfa(&s(0), 2);
        let p = RelevanceProduct::build(2, &[empty, one], 100).expect("fits");
        assert_eq!(p.matching(p.initial()), &[] as &[u32]);
        let q = p.step(p.initial(), Sym(0));
        assert_eq!(p.matching(q), &[1]);
        assert_eq!(p.relevant(q), Some(1));
    }
}
