//! Memoized automata construction keyed by regex structure.
//!
//! Every compile-time consumer — `CompiledBxsd` assembly, the lint
//! checks, the schema-diff and satisfiability engine, Algorithm 3
//! translation — starts from the same primitive: "the (minimal) DFA of
//! this regex over this alphabet". [`AutomataCache`] is the one way
//! those consumers build automata: each takes a `&mut AutomataCache`,
//! and a one-shot entry point without a cache argument runs on a fresh
//! [`AutomataCache::new`]. A fresh cache costs next to nothing (empty
//! maps do not allocate) and already pays within one compile, where
//! the lint-style checks ask for the same rule's DFA several times. It
//! memoizes four levels:
//!
//! * **raw DFAs** — the untouched subset-construction output of
//!   [`regex_to_dfa`] (partial, unminimized). Budget-sensitive callers
//!   (the relevance-product probe) need exactly this automaton, state
//!   numbering included;
//! * **minimal DFAs** — [`minimize`] applied to the raw DFA. Since
//!   minimization is canonical (BFS-numbered output), the memoized
//!   automaton is byte-identical to a fresh computation;
//! * **relevance products** — [`RelevanceProduct::build`] over a rule
//!   list, keyed by the component regexes + budget, so the lint
//!   blow-up probe and a subsequent validation compile of the same
//!   schema share one construction (including a memoized `None` for
//!   budget overflow);
//! * **compiled content matchers** — [`CompiledDre::compile`] output
//!   (content DFA, `xs:all` counter, or derivative fallback), so
//!   recompiling an edited schema rebuilds only the rules whose content
//!   model changed.
//!
//! ## Why structural hashing is sound
//!
//! Keys are regex ASTs compared by **full structural equality**
//! (`Regex: Eq`); the Fx hash is only a bucket index, so a collision
//! costs a comparison, never a wrong answer. Structurally equal
//! regexes over the same alphabet size denote the same language and
//! drive `regex_to_dfa` through the identical deterministic code path,
//! so the memoized automaton is exactly what recomputation would
//! return. The alphabet enters the key as its size: symbols are dense
//! indices, so `n_syms` plus the symbol ids embedded in the AST *is*
//! the alphabet fingerprint.
//!
//! Values are shared via [`Arc`], so a hit costs one reference-count
//! bump. Keys are cloned once: the raw level owns each regex, and the
//! minimal and product levels share its copy, which keeps a one-shot
//! compile on a fresh cache close to the cost of building directly.
//! Entries are never invalidated: a `Regex` is immutable and the key
//! captures every input of the construction, so an entry can go stale
//! only if the construction algorithms themselves change — within one
//! process lifetime the cache is append-only.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::dfa::Dfa;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::matcher::CompiledDre;
use crate::ops::language::regex_to_dfa;
use crate::ops::minimize::minimize;
use crate::ops::relevance::RelevanceProduct;
use crate::regex::ast::Regex;

/// Bucket of DFA entries sharing a structural hash (almost always one).
/// The raw level owns the key; the levels above share it.
type DfaBucket = Vec<(Arc<Regex>, usize, Arc<Dfa>)>;

/// Bucket of product entries: (components, n_syms, budget, result).
type ProductBucket = Vec<(Vec<Arc<Regex>>, usize, usize, Option<Arc<RelevanceProduct>>)>;

/// Bucket of compiled-content-matcher entries.
type DreBucket = Vec<(Regex, usize, Arc<CompiledDre>)>;

/// Hit/miss counters for one memo level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the underlying construction.
    pub misses: u64,
}

impl StageStats {
    fn delta(self, before: StageStats) -> StageStats {
        StageStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
        }
    }
}

/// Per-stage hit/miss counters for one [`AutomataCache`] (every lookup
/// counts once at its own level; a miss that internally consults
/// another level also counts that inner lookup).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`AutomataCache::raw_dfa`] lookups.
    pub raw: StageStats,
    /// [`AutomataCache::min_dfa`] lookups.
    pub min: StageStats,
    /// [`AutomataCache::relevance_product`] lookups.
    pub product: StageStats,
    /// [`AutomataCache::compiled_dre`] lookups.
    pub content: StageStats,
}

impl CacheStats {
    /// Total lookups answered from the memo, across all levels.
    pub fn hits(&self) -> u64 {
        self.raw.hits + self.min.hits + self.product.hits + self.content.hits
    }

    /// Total lookups that ran a construction, across all levels.
    pub fn misses(&self) -> u64 {
        self.raw.misses + self.min.misses + self.product.misses + self.content.misses
    }

    /// Accumulates `other` into `self` — for aggregating counters
    /// across many independent caches (per-schema, per-worker).
    pub fn add(&mut self, other: CacheStats) {
        self.raw.hits += other.raw.hits;
        self.raw.misses += other.raw.misses;
        self.min.hits += other.min.hits;
        self.min.misses += other.min.misses;
        self.product.hits += other.product.hits;
        self.product.misses += other.product.misses;
        self.content.hits += other.content.hits;
        self.content.misses += other.content.misses;
    }

    /// Counter increments between `before` (an earlier [`Self`]
    /// snapshot of the same cache) and this one.
    pub fn since(&self, before: CacheStats) -> CacheStats {
        CacheStats {
            raw: self.raw.delta(before.raw),
            min: self.min.delta(before.min),
            product: self.product.delta(before.product),
            content: self.content.delta(before.content),
        }
    }
}

/// A structural-hash-keyed memo for automata construction.
///
/// Not thread-safe by design: compile pipelines are per-schema, and the
/// parallel analysis paths give each worker its own cache (values are
/// `Arc`, so results can still be shared outward cheaply).
#[derive(Debug, Default)]
pub struct AutomataCache {
    raw: FxHashMap<u64, DfaBucket>,
    min: FxHashMap<u64, DfaBucket>,
    product: FxHashMap<u64, ProductBucket>,
    content: FxHashMap<u64, DreBucket>,
    stats: CacheStats,
}

/// Structural hash of a (regex, alphabet-size) key.
fn dfa_key_hash(r: &Regex, n_syms: usize) -> u64 {
    let mut h = FxHasher::default();
    r.hash(&mut h);
    h.write_usize(n_syms);
    h.finish()
}

impl AutomataCache {
    /// An empty cache.
    pub fn new() -> AutomataCache {
        AutomataCache::default()
    }

    /// The raw (partial, unminimized) DFA of `r` over `n_syms` symbols —
    /// memoized [`regex_to_dfa`], state numbering and all.
    pub fn raw_dfa(&mut self, r: &Regex, n_syms: usize) -> Arc<Dfa> {
        self.raw_entry(r, n_syms).1
    }

    /// [`Self::raw_dfa`] plus the memo's copy of `r`, which the minimal
    /// and product levels key on instead of cloning `r` again.
    fn raw_entry(&mut self, r: &Regex, n_syms: usize) -> (Arc<Regex>, Arc<Dfa>) {
        let key = dfa_key_hash(r, n_syms);
        if let Some(bucket) = self.raw.get(&key) {
            for (k, n, d) in bucket {
                if *n == n_syms && **k == *r {
                    self.stats.raw.hits += 1;
                    return (Arc::clone(k), Arc::clone(d));
                }
            }
        }
        self.stats.raw.misses += 1;
        let (k, d) = (Arc::new(r.clone()), Arc::new(regex_to_dfa(r, n_syms)));
        self.raw
            .entry(key)
            .or_default()
            .push((Arc::clone(&k), n_syms, Arc::clone(&d)));
        (k, d)
    }

    /// The minimal complete DFA of `r` over `n_syms` symbols — memoized
    /// [`minimize`] over [`Self::raw_dfa`]. Canonical minimization makes
    /// this byte-identical to an uncached computation.
    pub fn min_dfa(&mut self, r: &Regex, n_syms: usize) -> Arc<Dfa> {
        let key = dfa_key_hash(r, n_syms);
        if let Some(bucket) = self.min.get(&key) {
            for (k, n, d) in bucket {
                if *n == n_syms && **k == *r {
                    self.stats.min.hits += 1;
                    return Arc::clone(d);
                }
            }
        }
        self.stats.min.misses += 1;
        let (k, raw) = self.raw_entry(r, n_syms);
        let d = Arc::new(minimize(&raw));
        self.min
            .entry(key)
            .or_default()
            .push((k, n_syms, Arc::clone(&d)));
        d
    }

    /// The relevance product over the raw DFAs of `ancestors`, memoized
    /// by (component list, alphabet size, budget). Budget overflow
    /// (`None`) is memoized too — reprobing a blown-up rule set is as
    /// cheap as a hit.
    pub fn relevance_product(
        &mut self,
        n_syms: usize,
        ancestors: &[&Regex],
        budget: usize,
    ) -> Option<Arc<RelevanceProduct>> {
        let key = {
            let mut h = FxHasher::default();
            ancestors.hash(&mut h);
            h.write_usize(n_syms);
            h.write_usize(budget);
            h.finish()
        };
        if let Some(bucket) = self.product.get(&key) {
            for (ks, n, b, p) in bucket {
                if *n == n_syms
                    && *b == budget
                    && ks.iter().map(|k| &**k).eq(ancestors.iter().copied())
                {
                    self.stats.product.hits += 1;
                    return p.clone();
                }
            }
        }
        self.stats.product.misses += 1;
        let (keys, dfas): (Vec<Arc<Regex>>, Vec<Arc<Dfa>>) =
            ancestors.iter().map(|r| self.raw_entry(r, n_syms)).unzip();
        let refs: Vec<&Dfa> = dfas.iter().map(Arc::as_ref).collect();
        let p = RelevanceProduct::build_refs(n_syms, &refs, budget).map(Arc::new);
        self.product
            .entry(key)
            .or_default()
            .push((keys, n_syms, budget, p.clone()));
        p
    }

    /// The compiled content matcher of `r` over `n_syms` symbols —
    /// memoized [`CompiledDre::compile`]. Compilation is deterministic
    /// in `(r, n_syms)`, so the memoized matcher behaves identically to
    /// a fresh one; recompiling an edited schema through the same cache
    /// rebuilds only the rules whose content model actually changed.
    pub fn compiled_dre(&mut self, r: &Regex, n_syms: usize) -> Arc<CompiledDre> {
        let key = dfa_key_hash(r, n_syms);
        if let Some(bucket) = self.content.get(&key) {
            for (k, n, m) in bucket {
                if *n == n_syms && k == r {
                    self.stats.content.hits += 1;
                    return Arc::clone(m);
                }
            }
        }
        self.stats.content.misses += 1;
        let m = Arc::new(CompiledDre::compile(r, n_syms));
        self.content
            .entry(key)
            .or_default()
            .push((r.clone(), n_syms, Arc::clone(&m)));
        m
    }

    /// Per-stage hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Sym;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }

    #[test]
    fn raw_hits_return_the_same_automaton() {
        let mut c = AutomataCache::new();
        let r = Regex::concat(vec![Regex::star(Regex::alt(vec![s(0), s(1)])), s(0)]);
        let d1 = c.raw_dfa(&r, 2);
        let d2 = c.raw_dfa(&r, 2);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(c.stats().raw, StageStats { hits: 1, misses: 1 });
        // Same regex over a different alphabet size is a distinct key.
        let d3 = c.raw_dfa(&r, 3);
        assert!(!Arc::ptr_eq(&d1, &d3));
        assert_eq!(d3.n_syms(), 3);
    }

    #[test]
    fn min_dfa_matches_uncached_minimize() {
        let mut c = AutomataCache::new();
        let r = Regex::star(Regex::alt(vec![
            Regex::concat(vec![s(0), s(1)]),
            Regex::concat(vec![s(0), s(1), s(0)]),
        ]));
        let cached = c.min_dfa(&r, 2);
        let fresh = minimize(&regex_to_dfa(&r, 2));
        assert_eq!(*cached, fresh);
        assert!(Arc::ptr_eq(&cached, &c.min_dfa(&r, 2)));
    }

    #[test]
    fn product_memoizes_including_overflow() {
        let mut c = AutomataCache::new();
        let (r0, r1) = (Regex::plus(s(0)), Regex::concat(vec![s(0), s(0)]));
        let rules = [&r0, &r1];
        let p1 = c.relevance_product(1, &rules, 1 << 10).expect("fits");
        let p2 = c.relevance_product(1, &rules, 1 << 10).expect("fits");
        assert!(Arc::ptr_eq(&p1, &p2));
        // Overflow (budget 0 is never enough for the 2-state seed) is
        // remembered under its own budget key.
        assert!(c.relevance_product(1, &rules, 1).is_none());
        let before = c.stats();
        assert!(c.relevance_product(1, &rules, 1).is_none());
        assert_eq!(c.stats().since(before).product.hits, 1);
    }

    #[test]
    fn compiled_dre_memoizes() {
        let mut c = AutomataCache::new();
        let r = Regex::star(Regex::concat(vec![s(0), s(1)]));
        let m1 = c.compiled_dre(&r, 2);
        let m2 = c.compiled_dre(&r, 2);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(c.stats().content, StageStats { hits: 1, misses: 1 });
        assert_eq!(m1.first_error(&[Sym(0), Sym(1)]), None);
        assert_eq!(m1.first_error(&[Sym(1)]), Some(0));
    }
}
