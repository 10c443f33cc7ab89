//! Algorithm 3: translating a BXSD into an equivalent DFA-based XSD
//! (Lemma 6 — at most exponential in |B|).
//!
//! ```text
//! 1: for each rule i:  Ai := minimal complete DFA for L(ri)
//! 2: A := A1 × … × An
//! 3: for each product state (q1, …, qn):
//! 4:   if some qi is accepting:
//! 5:     i := the largest such index; λ((q1,…,qn)) := si     (priority!)
//! 6:   else: λ((q1,…,qn)) := (EName)*
//! ```
//!
//! As the paper notes, "it is straightforward to change it such that it
//! only computes reachable states … a transition δ(p, a), for which the
//! label a does not occur in λ(p), can never be taken in a conforming
//! document" — [`bxsd_to_dfa_xsd`] implements that pruned, lazy variant;
//! [`bxsd_to_dfa_xsd_strict`] materializes the full product for
//! differential testing on small inputs.

use std::collections::BTreeSet;
use std::sync::Arc;

use relang::cache::AutomataCache;
use relang::ops::{full_product, lazy_product_pruned, Product};
use relang::{Dfa, Sym};
use xsd::{ContentModel, DfaXsd};

use crate::bxsd::Bxsd;

/// Translates a BXSD into an equivalent DFA-based XSD, materializing only
/// reachable, λ-pruned product states.
pub fn bxsd_to_dfa_xsd(bxsd: &Bxsd) -> DfaXsd {
    build(bxsd, true, &mut AutomataCache::new())
}

/// [`bxsd_to_dfa_xsd`] with a shared [`AutomataCache`]: line 1's minimal
/// rule DFAs come from the memo (canonical minimization makes the cached
/// and fresh components — and hence the whole translation — identical).
pub fn bxsd_to_dfa_xsd_with_cache(bxsd: &Bxsd, cache: &mut AutomataCache) -> DfaXsd {
    build(bxsd, true, cache)
}

/// Reference implementation with the full (unpruned) product of all rule
/// automata — exponential in the number of rules; small inputs only.
pub fn bxsd_to_dfa_xsd_strict(bxsd: &Bxsd) -> DfaXsd {
    build(bxsd, false, &mut AutomataCache::new())
}

fn build(bxsd: &Bxsd, lazy: bool, cache: &mut AutomataCache) -> DfaXsd {
    let n = bxsd.ename.len();
    // Line 1: minimal complete DFAs for the rule languages.
    let components: Vec<Arc<Dfa>> = bxsd
        .rules
        .iter()
        .map(|r| cache.min_dfa(&r.ancestor, n))
        .collect();
    let refs: Vec<&Dfa> = components.iter().map(Arc::as_ref).collect();

    // Lines 4–6, as a function of a product tuple.
    let relevant = |tuple: &[usize]| -> Option<usize> {
        (0..components.len())
            .rev()
            .find(|&i| components[i].is_final(tuple[i]))
    };
    // Symbols each rule's content model mentions (for the λ-pruning).
    let rule_syms: Vec<BTreeSet<Sym>> = bxsd
        .rules
        .iter()
        .map(|r| r.content.regex.symbols().into_iter().collect())
        .collect();
    let start_tuple: Vec<usize> = components.iter().map(|c| c.initial()).collect();
    let roots: BTreeSet<Sym> = bxsd.start.iter().copied().collect();

    // Line 2: the product.
    let product: Product = if components.is_empty() {
        // No rules: a single unconstrained state.
        let mut dfa = Dfa::new(n, 1, 0);
        for a in 0..n {
            dfa.set_transition(0, Sym(a as u32), Some(0));
        }
        Product {
            dfa,
            tuples: vec![vec![]],
        }
    } else if lazy {
        lazy_product_pruned(&refs, |tuple, a| {
            let by_lambda = match relevant(tuple) {
                Some(i) => rule_syms[i].contains(&a),
                None => true, // filler state: (EName)* allows everything
            };
            by_lambda || (tuple == start_tuple.as_slice() && roots.contains(&a))
        })
    } else {
        full_product(&refs)
    };

    // Assemble the DFA-based XSD with a fresh initial state (the product
    // start state may have incoming transitions; Definition 3 forbids
    // that for q0). Product state p becomes state 1 + p.
    let k = product.dfa.n_states();
    let mut dfa = Dfa::new(n, k + 1, 0);
    for p in 0..k {
        for a in 0..n {
            if let Some(t) = product.dfa.transition(p, Sym(a as u32)) {
                dfa.set_transition(1 + p, Sym(a as u32), Some(1 + t));
            }
        }
    }
    let start_state = product.dfa.initial();
    for &a in &roots {
        let t = product
            .dfa
            .transition(start_state, a)
            .expect("root transitions are kept by the pruning");
        dfa.set_transition(0, a, Some(1 + t));
    }

    let mut lambda: Vec<Option<ContentModel>> = vec![None; k + 1];
    for (p, tuple) in product.tuples.iter().enumerate() {
        lambda[1 + p] = Some(match relevant(tuple) {
            Some(i) => bxsd.rules[i].content.clone(),
            None => ContentModel::any_content(&bxsd.ename),
        });
    }

    DfaXsd::new(bxsd.ename.clone(), dfa, roots, lambda)
        .expect("Algorithm 3 output satisfies the Definition 3 invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use crate::validate::is_valid as bxsd_valid;
    use relang::Regex;
    use xmltree::builder::elem;
    use xmltree::Document;

    fn figure5_style() -> Bxsd {
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
            ContentModel::new(Regex::star(Regex::sym(section))).with_mixed(true),
        );
        b.suffix_rule(
            &["template", "section"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.build().unwrap()
    }

    fn sample_docs() -> Vec<Document> {
        vec![
            elem("document")
                .child(elem("template").child(elem("section").child(elem("section"))))
                .child(elem("content").child(elem("section").text("t")))
                .build(),
            elem("document")
                .child(
                    elem("template")
                        .child(elem("section"))
                        .child(elem("section")),
                )
                .child(elem("content"))
                .build(),
            elem("document")
                .child(elem("template").child(elem("section").text("no text allowed")))
                .child(elem("content"))
                .build(),
            elem("document")
                .child(elem("content"))
                .child(elem("template"))
                .build(),
            elem("section").build(),
            elem("document")
                .child(elem("template"))
                .child(
                    elem("content")
                        .child(elem("section").text("a"))
                        .child(elem("section").child(elem("section"))),
                )
                .build(),
        ]
    }

    #[test]
    fn translation_preserves_validation() {
        let b = figure5_style();
        let d = bxsd_to_dfa_xsd(&b);
        for doc in &sample_docs() {
            assert_eq!(
                bxsd_valid(&b, doc),
                d.is_valid(doc),
                "{}",
                xmltree::to_string(doc)
            );
        }
    }

    #[test]
    fn lazy_and_strict_agree() {
        let b = figure5_style();
        let lazy = bxsd_to_dfa_xsd(&b);
        let strict = bxsd_to_dfa_xsd_strict(&b);
        assert!(lazy.n_states() <= strict.n_states());
        for doc in &sample_docs() {
            assert_eq!(lazy.is_valid(doc), strict.is_valid(doc));
        }
    }

    #[test]
    fn priorities_resolve_overlaps() {
        // //b → c  overridden by  //a b → d  for b directly under a.
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let c = builder.ename.intern("c");
        let d = builder.ename.intern("d");
        let bb = builder.ename.intern("b");
        builder.suffix_rule(&["a"], ContentModel::new(Regex::star(Regex::sym(bb))));
        builder.suffix_rule(&["b"], ContentModel::new(Regex::sym(c)));
        builder.suffix_rule(&["a", "b"], ContentModel::new(Regex::sym(d)));
        // leaves unconstrained:
        builder.suffix_rule(&["c"], ContentModel::empty());
        builder.suffix_rule(&["d"], ContentModel::empty());
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        let direct = elem("a").child(elem("b").child(elem("d"))).build();
        let direct_bad = elem("a").child(elem("b").child(elem("c"))).build();
        for doc in [&direct, &direct_bad] {
            assert_eq!(bxsd_valid(&b, doc), schema.is_valid(doc));
        }
        assert!(schema.is_valid(&direct));
        assert!(!schema.is_valid(&direct_bad));
    }

    #[test]
    fn unmatched_paths_get_filler() {
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let bb = builder.ename.intern("b");
        builder.rule(
            Regex::word(&[builder.ename.lookup("a").unwrap()]),
            ContentModel::new(Regex::star(Regex::sym(bb))),
        );
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        // b nodes are unconstrained: arbitrary subtrees below them
        let doc = elem("a")
            .child(elem("b").child(elem("a")).child(elem("b")).text("t"))
            .build();
        assert!(bxsd_valid(&b, &doc));
        assert!(schema.is_valid(&doc), "{:?}", schema.validate(&doc));
    }

    #[test]
    fn empty_rule_set() {
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        let doc = elem("a").child(elem("a").text("anything")).build();
        assert!(schema.is_valid(&doc));
        let bad_root_doc = {
            let mut d = Document::new("zzz");
            d.add_text(d.root(), "x");
            d
        };
        assert!(!schema.is_valid(&bad_root_doc));
    }
}
