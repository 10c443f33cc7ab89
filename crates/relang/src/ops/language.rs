//! Decision procedures on regular languages: emptiness, membership,
//! inclusion, equivalence, and witness extraction.
//!
//! These are used throughout the test suite to *verify* that the paper's
//! translations preserve languages, and by the schema tools to report
//! differences between schemas with an explicit witness word.

use crate::alphabet::Sym;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::ops::product::product2;
use crate::ops::subset::determinize;
use crate::regex::ast::Regex;

/// Default desugaring budget for building automata out of extended regexes.
const BUDGET: usize = 100_000;

/// Builds a (partial) DFA for `r` over `n_syms` symbols.
///
/// Uses the Glushkov route (after desugaring, if needed); falls back to the
/// derivative construction for expressions whose desugaring would exceed
/// the budget. Panics only if both routes fail, which cannot happen for the
/// expression sizes this library produces.
pub fn regex_to_dfa(r: &Regex, n_syms: usize) -> Dfa {
    if let Some(nfa) = Nfa::from_regex(r, n_syms, BUDGET) {
        determinize(&nfa)
    } else {
        crate::regex::derivative::derivative_dfa(r, n_syms, 1 << 22)
            .expect("derivative DFA construction exceeded state bound")
    }
}

/// Whether `L(r)` = ∅.
pub fn is_empty(r: &Regex) -> bool {
    crate::regex::props::is_empty_language(r)
}

/// A word in `L(r1) \ L(r2)`, if any. `None` means `L(r1) ⊆ L(r2)`.
pub fn difference_witness(r1: &Regex, r2: &Regex, n_syms: usize) -> Option<Vec<Sym>> {
    difference_witness_dfa(&regex_to_dfa(r1, n_syms), &regex_to_dfa(r2, n_syms))
}

/// The canonical witness accepted by `d1` but not `d2`, if any: the
/// shortest such word, ties broken lexicographically by symbol id (see
/// [`Dfa::shortest_accepted_word`]). `None` means `L(d1) ⊆ L(d2)`.
pub fn difference_witness_dfa(d1: &Dfa, d2: &Dfa) -> Option<Vec<Sym>> {
    let diff = product2(d1, d2, |x, y| x && !y);
    diff.shortest_accepted_word()
}

/// Whether `L(r1) ⊆ L(r2)`.
pub fn is_subset(r1: &Regex, r2: &Regex, n_syms: usize) -> bool {
    difference_witness(r1, r2, n_syms).is_none()
}

/// Whether `L(r1) = L(r2)`; on inequality returns the canonical
/// (shortest, then lexicographically least) witness word in the
/// symmetric difference.
pub fn check_equivalent(r1: &Regex, r2: &Regex, n_syms: usize) -> Result<(), Vec<Sym>> {
    check_equivalent_dfa(&regex_to_dfa(r1, n_syms), &regex_to_dfa(r2, n_syms))
}

/// Whether two DFAs accept the same language; on inequality returns the
/// canonical witness (see [`difference_witness_dfa`]).
pub fn check_equivalent_dfa(d1: &Dfa, d2: &Dfa) -> Result<(), Vec<Sym>> {
    let sym_diff = product2(d1, d2, |x, y| x != y);
    match sym_diff.shortest_accepted_word() {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Whether `L(r1) = L(r2)`.
pub fn is_equivalent(r1: &Regex, r2: &Regex, n_syms: usize) -> bool {
    check_equivalent(r1, r2, n_syms).is_ok()
}

/// Whether `L(r1) ∩ L(r2)` is nonempty; returns the canonical (shortest,
/// then lexicographically least) common word.
pub fn intersection_witness(r1: &Regex, r2: &Regex, n_syms: usize) -> Option<Vec<Sym>> {
    let (d1, d2) = (regex_to_dfa(r1, n_syms), regex_to_dfa(r2, n_syms));
    product2(&d1, &d2, |x, y| x && y).shortest_accepted_word()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }

    #[test]
    fn equivalence_of_different_syntaxes() {
        // (a+b)* a  ≡  b* a (b* a)*  — classic determinizable pair
        let r1 = Regex::concat(vec![Regex::star(Regex::alt(vec![s(0), s(1)])), s(0)]);
        let ba = Regex::concat(vec![Regex::star(s(1)), s(0)]);
        let r2 = Regex::concat(vec![ba.clone(), Regex::star(ba)]);
        assert!(is_equivalent(&r1, &r2, 2));
    }

    #[test]
    fn inequivalence_yields_shortest_witness() {
        let r1 = Regex::star(s(0));
        let r2 = Regex::plus(s(0));
        // symmetric difference = {ε}
        assert_eq!(check_equivalent(&r1, &r2, 1), Err(vec![]));
    }

    #[test]
    fn subset_checks() {
        let r1 = Regex::plus(s(0));
        let r2 = Regex::star(s(0));
        assert!(is_subset(&r1, &r2, 1));
        assert!(!is_subset(&r2, &r1, 1));
        assert_eq!(difference_witness(&r2, &r1, 1), Some(vec![]));
    }

    #[test]
    fn intersection_witness_found() {
        // a* b ∩ (aa)* b: shortest common word is "b"
        let r1 = Regex::concat(vec![Regex::star(s(0)), s(1)]);
        let r2 = Regex::concat(vec![Regex::star(Regex::concat(vec![s(0), s(0)])), s(1)]);
        assert_eq!(intersection_witness(&r1, &r2, 2), Some(vec![Sym(1)]));
    }

    #[test]
    fn disjoint_languages() {
        let r1 = Regex::word(&[Sym(0)]);
        let r2 = Regex::word(&[Sym(1)]);
        assert_eq!(intersection_witness(&r1, &r2, 2), None);
    }

    #[test]
    fn equivalence_with_extended_operators() {
        // a{2,3} ≡ a a a?
        let r1 = Regex::repeat(s(0), 2, crate::regex::ast::UpperBound::Finite(3));
        let r2 = Regex::concat(vec![s(0), s(0), Regex::opt(s(0))]);
        assert!(is_equivalent(&r1, &r2, 1));
        // a & b ≡ ab + ba
        let r1 = Regex::Interleave(vec![s(0), s(1)]);
        let r2 = Regex::alt(vec![
            Regex::concat(vec![s(0), s(1)]),
            Regex::concat(vec![s(1), s(0)]),
        ]);
        assert!(is_equivalent(&r1, &r2, 2));
    }

    #[test]
    fn witness_words_are_canonical() {
        // L(r1) \ L(r2) contains "ab", "ba", "bb" at length 2 and nothing
        // shorter; the canonical witness is the lexicographic least "ab".
        let any2 = Regex::concat(vec![
            Regex::alt(vec![s(0), s(1)]),
            Regex::alt(vec![s(0), s(1)]),
        ]);
        let aa = Regex::concat(vec![s(0), s(0)]);
        assert_eq!(
            difference_witness(&any2, &aa, 2),
            Some(vec![Sym(0), Sym(1)])
        );
        assert_eq!(check_equivalent(&any2, &aa, 2), Err(vec![Sym(0), Sym(1)]));
    }

    #[test]
    fn emptiness() {
        assert!(is_empty(&Regex::Empty));
        assert!(is_empty(&Regex::concat(vec![s(0), Regex::Empty])));
        assert!(!is_empty(&Regex::Epsilon));
    }
}
