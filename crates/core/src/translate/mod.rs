//! The paper's translation algorithms (Section 4.2) and the k-suffix
//! fast paths (Section 4.4).
//!
//! | Paper | Module | Direction | Cost |
//! |---|---|---|---|
//! | Algorithm 1 (Lemma 4) | [`xsd_to_dfa`] | XSD → DFA-based XSD | linear |
//! | Algorithm 2 (Lemma 5) | [`dfa_to_bxsd`] | DFA-based XSD → BXSD | exp. regexes (Thm 8) |
//! | Algorithm 3 (Lemma 6) | [`bxsd_to_dfa`] | BXSD → DFA-based XSD | exp. states (Thm 9) |
//! | Algorithm 4 (Lemma 7) | [`dfa_to_xsd`] | DFA-based XSD → XSD | linear |
//! | Theorem 12 | [`ksuffix`] | suffix BXSD → DFA-based XSD | poly, linear size |
//! | Theorem 13 | [`ksuffix`] | k-suffix DFA-based XSD → BXSD | poly for fixed k |
//!
//! None of these constructions ever takes a union, intersection, or
//! complement of a content model — the expressions are *moved*, which is
//! what keeps UPA intact across translations (Section 4.1).

pub mod bxsd_to_dfa;
pub mod dfa_to_bxsd;
pub mod dfa_to_xsd;
pub mod ksuffix;
pub mod xsd_to_dfa;

pub use bxsd_to_dfa::{bxsd_to_dfa_xsd, bxsd_to_dfa_xsd_strict, bxsd_to_dfa_xsd_with_cache};
pub use dfa_to_bxsd::dfa_xsd_to_bxsd;
pub use dfa_to_xsd::dfa_xsd_to_xsd;
pub use ksuffix::{
    classify_bxsd, classify_suffix, k_suffix_dfa_to_bxsd, suffix_bxsd_to_dfa_xsd, KSuffixError,
    SuffixLang,
};
pub use xsd_to_dfa::xsd_to_dfa_xsd;

use crate::bxsd::Bxsd;
use relang::cache::AutomataCache;
use xsd::{DfaXsd, Xsd};

/// Options for the end-to-end translations.
#[derive(Clone, Copy, Debug)]
pub struct TranslateOptions {
    /// Try the k-suffix fast path for k up to this bound before falling
    /// back to the general algorithms (Section 4.4: 98% of real schemas
    /// have k ≤ 3).
    pub max_fast_k: usize,
    /// State budget for k-suffix exploration.
    pub ksuffix_budget: usize,
    /// Minimize the type set of produced XSDs ([`xsd::minimize_types`]).
    pub minimize: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            max_fast_k: 3,
            ksuffix_budget: 1_000_000,
            minimize: true,
        }
    }
}

/// Which path an end-to-end translation took (reported for experiments).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    /// The k-suffix fast path, with the k that succeeded.
    Fast(usize),
    /// The general (worst-case exponential) algorithm.
    General,
}

/// XSD → BXSD: Algorithm 1, then Theorem 13 for small k when possible,
/// otherwise Algorithm 2.
pub fn xsd_to_bxsd(xsd: &Xsd, opts: &TranslateOptions) -> (Bxsd, Path) {
    let d = xsd_to_dfa_xsd(xsd);
    dfa_xsd_to_bxsd_auto(&d, opts)
}

/// DFA-based XSD → BXSD with automatic fast-path selection.
pub fn dfa_xsd_to_bxsd_auto(d: &DfaXsd, opts: &TranslateOptions) -> (Bxsd, Path) {
    for k in 0..=opts.max_fast_k {
        if let Ok(b) = k_suffix_dfa_to_bxsd(d, k, opts.ksuffix_budget) {
            return (b, Path::Fast(k));
        }
    }
    (dfa_xsd_to_bxsd(d), Path::General)
}

/// BXSD → XSD: Theorem 12 when the schema is suffix-based, otherwise
/// Algorithm 3; then Algorithm 4 (and optional minimization).
pub fn bxsd_to_xsd(bxsd: &Bxsd, opts: &TranslateOptions) -> (Xsd, Path) {
    bxsd_to_xsd_with_cache(bxsd, opts, &mut AutomataCache::new())
}

/// [`bxsd_to_xsd`] with a shared [`AutomataCache`]. The Theorem 12 fast
/// path is purely syntactic (an Aho–Corasick construction — no DFAs to
/// memoize); the cache pays off when the schema falls back to
/// Algorithm 3, whose per-rule minimal DFAs the lint pass has typically
/// already built.
pub fn bxsd_to_xsd_with_cache(
    bxsd: &Bxsd,
    opts: &TranslateOptions,
    cache: &mut AutomataCache,
) -> (Xsd, Path) {
    let (d, path) = match suffix_bxsd_to_dfa_xsd(bxsd) {
        Ok(d) => {
            let k = classify_bxsd(bxsd).map(|(_, k)| k).unwrap_or(0);
            (d, Path::Fast(k))
        }
        Err(_) => (bxsd_to_dfa_xsd_with_cache(bxsd, cache), Path::General),
    };
    let x = dfa_xsd_to_xsd(&d);
    let x = if opts.minimize {
        xsd::minimize_types(&x)
    } else {
        x
    };
    (x, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use crate::validate::is_valid as bxsd_valid;
    use relang::Regex;
    use xmltree::builder::elem;
    use xsd::ContentModel;

    #[test]
    fn end_to_end_roundtrip_preserves_language() {
        let mut b = BxsdBuilder::new();
        b.start("doc");
        let item = b.ename.intern("item");
        let name = b.ename.intern("name");
        b.suffix_rule(&["doc"], ContentModel::new(Regex::star(Regex::sym(item))));
        b.suffix_rule(
            &["item"],
            ContentModel::new(Regex::concat(vec![
                Regex::sym(name),
                Regex::star(Regex::sym(item)),
            ])),
        );
        b.suffix_rule(&["name"], ContentModel::empty().with_mixed(true));
        let bxsd = b.build().unwrap();

        let opts = TranslateOptions::default();
        let (x, path) = bxsd_to_xsd(&bxsd, &opts);
        assert_eq!(path, Path::Fast(1));
        let (back, _) = xsd_to_bxsd(&x, &opts);

        let docs = [
            elem("doc")
                .child(elem("item").child(elem("name").text("n")))
                .child(
                    elem("item")
                        .child(elem("name"))
                        .child(elem("item").child(elem("name"))),
                )
                .build(),
            elem("doc").child(elem("item")).build(), // missing name
            elem("doc").child(elem("name")).build(),
        ];
        for doc in &docs {
            let expected = bxsd_valid(&bxsd, doc);
            assert_eq!(
                xsd::is_valid(&x, doc),
                expected,
                "{}",
                xmltree::to_string(doc)
            );
            assert_eq!(
                bxsd_valid(&back, doc),
                expected,
                "{}",
                xmltree::to_string(doc)
            );
        }
    }

    #[test]
    fn general_path_taken_for_non_suffix_schemas() {
        // LHS (a + b a) is not a suffix language.
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        let bb = b.ename.intern("b");
        b.rule(
            Regex::concat(vec![
                Regex::star(Regex::sym_set([a, bb])),
                Regex::alt(vec![
                    Regex::sym(a),
                    Regex::concat(vec![Regex::sym(bb), Regex::sym(a)]),
                ]),
            ]),
            ContentModel::new(Regex::opt(Regex::sym(bb))),
        );
        let bxsd = b.build().unwrap();
        let (_, path) = bxsd_to_xsd(&bxsd, &TranslateOptions::default());
        assert_eq!(path, Path::General);
    }
}
