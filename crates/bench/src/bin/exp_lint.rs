//! Experiment E15 — lint throughput over the generated corpus.
//!
//! The lint pass runs decision procedures (DFA difference/emptiness for
//! dead rules, the tuple-space reachability search, Glushkov determinism
//! with witnesses, the k-suffix classifier, the relevance-product probe)
//! over every rule of every schema, so its cost is the practical face of
//! Theorems 8/9/12/13: polynomial on the k-suffix fragment that covers
//! ~98% of the corpus, with the budgeted analyses catching the
//! exponential tail. This harness lints the 225-schema `web_corpus` and
//! reports per-class timing plus the diagnostic mix.
//!
//! Run with `--json` for machine-readable output, `--jobs N` to set the
//! worker count (default: one per core, clamped to the core count).
//!
//! Schemas are linted in parallel through `core::batch::map_indexed`,
//! whose workers each claim the next unlinted schema; every result
//! carries its input index and the aggregation below
//! walks results in corpus order, so the report — timings aside — is
//! byte-identical for any `--jobs` value. Each job owns a private
//! [`AutomataCache`] (per-rule DFAs are shared across the checks of one
//! schema; the cache is deliberately not `Sync`).

use bonxai_bench::{print_table, timed};
use bonxai_core::lang::lift;
use bonxai_core::lint::{lint_ast_with, Code, LintOptions, LintReport};
use bonxai_core::{clamp_jobs, map_indexed};
use bonxai_gen::web_corpus;
use relang::AutomataCache;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let jobs = clamp_jobs(
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0),
    );
    let corpus = web_corpus(2015);
    let opts = LintOptions {
        include_notes: true,
        ..LintOptions::default()
    };

    // (k-class, schema size, lint ms, report), in corpus order.
    let linted: Vec<(Option<usize>, usize, f64, LintReport)> =
        map_indexed(corpus.iter().collect(), jobs, |entry| {
            let ast = lift(&entry.bxsd);
            let mut cache = AutomataCache::new();
            let (report, ms) = timed(|| lint_ast_with(&ast, &opts, &mut cache));
            (entry.k, entry.bxsd.size(), ms, report)
        });

    // (k-class, schema size, lint ms, diagnostics excluding notes)
    let mut rows: Vec<(Option<usize>, usize, f64, usize)> = Vec::new();
    let mut code_counts: Vec<(Code, usize)> = Vec::new();
    for (k, size, ms, report) in &linted {
        let findings = report
            .diagnostics
            .iter()
            .filter(|d| d.severity() > bonxai_core::lint::Severity::Note)
            .count();
        for d in &report.diagnostics {
            match code_counts.iter_mut().find(|(c, _)| *c == d.code) {
                Some((_, n)) => *n += 1,
                None => code_counts.push((d.code, 1)),
            }
        }
        rows.push((*k, *size, *ms, findings));
    }
    code_counts.sort_by_key(|(c, _)| *c);

    // Aggregate per k-class.
    let classes = [Some(1), Some(2), Some(3), None];
    let mut agg = Vec::new();
    for class in classes {
        let in_class: Vec<_> = rows.iter().filter(|r| r.0 == class).collect();
        if in_class.is_empty() {
            continue;
        }
        let n = in_class.len();
        let total_ms: f64 = in_class.iter().map(|r| r.2).sum();
        let max_ms = in_class.iter().map(|r| r.2).fold(0.0f64, f64::max);
        let size: usize = in_class.iter().map(|r| r.1).sum();
        let findings: usize = in_class.iter().map(|r| r.3).sum();
        agg.push((class, n, size, total_ms, max_ms, findings));
    }
    let total_ms: f64 = rows.iter().map(|r| r.2).sum();

    if json {
        println!("{{");
        println!("  \"experiment\": \"lint_corpus\",");
        println!("  \"schemas\": {},", rows.len());
        println!("  \"total_ms\": {total_ms:.2},");
        println!("  \"classes\": [");
        for (i, (class, n, size, ms, max_ms, findings)) in agg.iter().enumerate() {
            let k = class.map_or("null".to_string(), |k| k.to_string());
            println!(
                "    {{ \"k\": {k}, \"schemas\": {n}, \"total_size\": {size}, \
                 \"total_ms\": {ms:.2}, \"max_ms\": {max_ms:.2}, \"findings\": {findings} }}{}",
                if i + 1 < agg.len() { "," } else { "" }
            );
        }
        println!("  ],");
        println!("  \"codes\": {{");
        for (i, (code, n)) in code_counts.iter().enumerate() {
            println!(
                "    \"{}\": {n}{}",
                code.as_str(),
                if i + 1 < code_counts.len() { "," } else { "" }
            );
        }
        println!("  }}");
        println!("}}");
        return;
    }

    let table: Vec<Vec<String>> = agg
        .iter()
        .map(|(class, n, size, ms, max_ms, findings)| {
            vec![
                class.map_or("general".to_string(), |k| format!("{k}-suffix")),
                n.to_string(),
                size.to_string(),
                format!("{ms:.2}"),
                format!("{:.3}", ms / *n as f64),
                format!("{max_ms:.2}"),
                findings.to_string(),
            ]
        })
        .collect();
    print_table(
        "E15 — lint over web_corpus(2015)",
        &[
            "class", "schemas", "Σ size", "total ms", "avg ms", "max ms", "findings",
        ],
        &table,
    );
    println!("\ntotal: {total_ms:.1} ms for {} schemas", rows.len());
    println!("diagnostic mix (notes included):");
    for (code, n) in &code_counts {
        println!("  {} {:<22} {n}", code.as_str(), code.name());
    }
}
