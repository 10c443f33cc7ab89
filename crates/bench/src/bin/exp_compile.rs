//! Experiment E16 — schema-compile latency per stage.
//!
//! Validation is fast (E12/E14); the remaining cost for a schema service
//! is *compile-time*: building per-rule ancestor DFAs (subset
//! construction), minimizing them, assembling the relevance product
//! (Lemma 7 / Theorem 9 budget), the end-to-end `CompiledBxsd` build,
//! translation to XSD (Algorithm 3 + the k-suffix fast path of
//! Theorems 12/13), and the lint pass. This harness times each stage
//! separately over the 225-schema `web_corpus`, aggregated per k-class,
//! so kernel rewrites and the memo cache can be attributed per stage.
//!
//! Flags: `--json` for machine-readable output, `--smoke` to run a small
//! prefix of the corpus as a CI liveness check.

use bonxai_bench::{print_table, timed};
use bonxai_core::lang::lift;
use bonxai_core::lint::{lint_ast_with, LintOptions};
use bonxai_core::translate::{bxsd_to_xsd, TranslateOptions};
use bonxai_core::validate::{CompiledBxsd, DEFAULT_PRODUCT_BUDGET};
use bonxai_gen::web_corpus;
use relang::cache::{AutomataCache, CacheStats};
use relang::ops::{minimize, regex_to_dfa, RelevanceProduct};

/// Per-schema stage timings in ms.
#[derive(Default, Clone, Copy)]
struct Stages {
    subset: f64,
    minimize: f64,
    product: f64,
    compile: f64,
    translate: f64,
    lint: f64,
}

impl Stages {
    fn add(&mut self, o: &Stages) {
        self.subset += o.subset;
        self.minimize += o.minimize;
        self.product += o.product;
        self.compile += o.compile;
        self.translate += o.translate;
        self.lint += o.lint;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");

    let mut corpus = web_corpus(2015);
    if smoke {
        corpus.truncate(20);
    }

    let lint_opts = LintOptions {
        include_notes: true,
        ..LintOptions::default()
    };
    let topts = TranslateOptions::default();

    // (k-class, stage timings) per schema.
    let mut rows: Vec<(Option<usize>, Stages)> = Vec::new();
    // Aggregated per-stage cache counters across all schema compiles.
    let mut cache_total = CacheStats::default();
    for entry in &corpus {
        let bxsd = &entry.bxsd;
        let n = bxsd.ename.len();
        let mut st = Stages::default();

        // A fresh per-schema cache, exactly as the compile pipeline uses
        // it.
        let mut cache = AutomataCache::new();

        // Stage 1: subset construction (raw per-rule ancestor DFAs).
        let (raw, ms) = timed(|| {
            bxsd.rules
                .iter()
                .map(|r| regex_to_dfa(&r.ancestor, n))
                .collect::<Vec<_>>()
        });
        st.subset = ms;

        // Stage 2: Hopcroft minimization of each.
        let (_min, ms) = timed(|| raw.iter().map(minimize).collect::<Vec<_>>());
        st.minimize = ms;

        // Stage 3: the relevance product over the raw DFAs.
        let (_p, ms) = timed(|| RelevanceProduct::build(n, &raw, DEFAULT_PRODUCT_BUDGET));
        st.product = ms;

        // Stage 4: end-to-end compile (what `bonxai validate` pays).
        let (_c, ms) = timed(|| CompiledBxsd::with_cache(bxsd, DEFAULT_PRODUCT_BUDGET, &mut cache));
        st.compile = ms;

        // Stage 5: translation to XSD (fast path or Algorithm 3).
        let (_x, ms) = timed(|| bxsd_to_xsd(bxsd, &topts));
        st.translate = ms;

        // Stage 6: the full lint pass.
        let ast = lift(bxsd);
        let (_r, ms) = timed(|| lint_ast_with(&ast, &lint_opts, &mut cache));
        st.lint = ms;

        cache_total.add(cache.stats());
        rows.push((entry.k, st));
    }

    // Aggregate per k-class.
    let classes = [Some(1), Some(2), Some(3), None];
    let mut agg: Vec<(Option<usize>, usize, Stages)> = Vec::new();
    for class in classes {
        let in_class: Vec<_> = rows.iter().filter(|r| r.0 == class).collect();
        if in_class.is_empty() {
            continue;
        }
        let mut total = Stages::default();
        for r in &in_class {
            total.add(&r.1);
        }
        agg.push((class, in_class.len(), total));
    }
    let mut grand = Stages::default();
    for r in &rows {
        grand.add(&r.1);
    }

    if json {
        println!("{{");
        println!("  \"experiment\": \"compile_stages\",");
        println!("  \"schemas\": {},", rows.len());
        println!(
            "  \"total_ms\": {{ \"subset\": {:.2}, \"minimize\": {:.2}, \"product\": {:.2}, \
             \"compile\": {:.2}, \"translate\": {:.2}, \"lint\": {:.2} }},",
            grand.subset, grand.minimize, grand.product, grand.compile, grand.translate, grand.lint
        );
        println!(
            "  \"cache_stats\": {{ \"raw\": {{ \"hits\": {}, \"misses\": {} }}, \
             \"min\": {{ \"hits\": {}, \"misses\": {} }}, \
             \"product\": {{ \"hits\": {}, \"misses\": {} }}, \
             \"content\": {{ \"hits\": {}, \"misses\": {} }} }},",
            cache_total.raw.hits,
            cache_total.raw.misses,
            cache_total.min.hits,
            cache_total.min.misses,
            cache_total.product.hits,
            cache_total.product.misses,
            cache_total.content.hits,
            cache_total.content.misses,
        );
        println!("  \"classes\": [");
        for (i, (class, n, t)) in agg.iter().enumerate() {
            let k = class.map_or("null".to_string(), |k| k.to_string());
            println!(
                "    {{ \"k\": {k}, \"schemas\": {n}, \"subset_ms\": {:.2}, \
                 \"minimize_ms\": {:.2}, \"product_ms\": {:.2}, \"compile_ms\": {:.2}, \
                 \"translate_ms\": {:.2}, \"lint_ms\": {:.2} }}{}",
                t.subset,
                t.minimize,
                t.product,
                t.compile,
                t.translate,
                t.lint,
                if i + 1 < agg.len() { "," } else { "" }
            );
        }
        println!("  ]");
        println!("}}");
        return;
    }

    let table: Vec<Vec<String>> = agg
        .iter()
        .map(|(class, n, t)| {
            vec![
                class.map_or("general".to_string(), |k| format!("{k}-suffix")),
                n.to_string(),
                format!("{:.2}", t.subset),
                format!("{:.2}", t.minimize),
                format!("{:.2}", t.product),
                format!("{:.2}", t.compile),
                format!("{:.2}", t.translate),
                format!("{:.2}", t.lint),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E16 — compile stages over web_corpus(2015){}",
            if smoke { " [smoke]" } else { "" }
        ),
        &[
            "class",
            "schemas",
            "subset",
            "minimize",
            "product",
            "compile",
            "translate",
            "lint",
        ],
        &table,
    );
    println!(
        "\ntotals (ms): subset {:.1}  minimize {:.1}  product {:.1}  compile {:.1}  \
         translate {:.1}  lint {:.1}",
        grand.subset, grand.minimize, grand.product, grand.compile, grand.translate, grand.lint
    );
    println!(
        "cache hits/misses: raw {}/{}  min {}/{}  product {}/{}  content {}/{}",
        cache_total.raw.hits,
        cache_total.raw.misses,
        cache_total.min.hits,
        cache_total.min.misses,
        cache_total.product.hits,
        cache_total.product.misses,
        cache_total.content.hits,
        cache_total.content.misses,
    );
}
