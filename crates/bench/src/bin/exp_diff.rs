//! Experiment E20 — schema diff / satisfiability throughput.
//!
//! The diff engine runs the joint ancestor-context construction over a
//! corpus of schema *pairs*: each pair is compared in both directions,
//! every realizable joint context's content models are checked on the
//! children / text / attribute channels, and every difference found is
//! lifted into a complete witness document that must validate against
//! exactly one schema. This harness times that end to end over
//! [`diff_pair_corpus`] — alternating identical pairs (the equivalence
//! fast path) and perturbed ones — and reports per-stage timings
//! (space build vs pair comparison), verdict mix, and witness counts.
//!
//! Run with `--json` for machine-readable output, `--smoke` for a small
//! CI-sized corpus, and `--jobs N` for the per-pair comparison worker
//! count. Every pair runs through one shared [`AutomataCache`].
//!
//! Pairs run sequentially (each diff parallelizes internally via
//! `core::batch`); the report — timings aside — is byte-identical for
//! any `--jobs` value.

use bonxai_bench::{print_table, timed};
use bonxai_core::{clamp_jobs, diff_bxsd, AnalysisOptions, Evolution};
use bonxai_gen::diff_pair_corpus;
use relang::AutomataCache;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = clamp_jobs(
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0),
    );
    let n_pairs = if smoke { 12 } else { 60 };
    let corpus = diff_pair_corpus(2015, n_pairs);
    let opts = AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };

    let mut cache = AutomataCache::new();
    // (perturbed, ms, evolution, witnesses, pairs, build_us, compare_us,
    //  hits, misses), in corpus order.
    let mut rows = Vec::new();
    for pair in &corpus {
        let (report, ms) =
            timed(|| diff_bxsd(&pair.a, &pair.b, &opts, &mut cache).expect("diff within budget"));
        assert!(
            pair.perturbed || report.evolution == Evolution::Equivalent,
            "identical pair {} must diff equivalent",
            pair.id
        );
        rows.push((
            pair.perturbed,
            ms,
            report.evolution,
            report.witnesses.len(),
            report.stats.pairs,
            report.stats.build_us,
            report.stats.compare_us,
            report.stats.cache_hits,
            report.stats.cache_misses,
        ));
    }

    let total_ms: f64 = rows.iter().map(|r| r.1).sum();
    let build_ms: f64 = rows.iter().map(|r| r.5 as f64 / 1000.0).sum();
    let compare_ms: f64 = rows.iter().map(|r| r.6 as f64 / 1000.0).sum();
    let witnesses: usize = rows.iter().map(|r| r.3).sum();
    let joint_pairs: usize = rows.iter().map(|r| r.4).sum();
    let hits: u64 = rows.iter().map(|r| r.7).sum();
    let misses: u64 = rows.iter().map(|r| r.8).sum();
    let verdicts = [
        Evolution::Equivalent,
        Evolution::BackwardCompatible,
        Evolution::ForwardCompatible,
        Evolution::Incomparable,
    ];
    let verdict_counts: Vec<(Evolution, usize)> = verdicts
        .iter()
        .map(|&v| (v, rows.iter().filter(|r| r.2 == v).count()))
        .collect();

    if json {
        println!("{{");
        println!("  \"experiment\": \"diff_pairs\",");
        println!("  \"pairs\": {},", rows.len());
        println!("  \"jobs\": {jobs},");
        println!("  \"total_ms\": {total_ms:.2},");
        println!("  \"build_ms\": {build_ms:.2},");
        println!("  \"compare_ms\": {compare_ms:.2},");
        println!("  \"joint_contexts\": {joint_pairs},");
        println!("  \"witnesses\": {witnesses},");
        println!("  \"cache_hits\": {hits},");
        println!("  \"cache_misses\": {misses},");
        println!("  \"verdicts\": {{");
        for (i, (v, n)) in verdict_counts.iter().enumerate() {
            println!(
                "    \"{}\": {n}{}",
                v.as_str(),
                if i + 1 < verdict_counts.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        println!("  }}");
        println!("}}");
        return;
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(id, r)| {
            vec![
                id.to_string(),
                if r.0 { "perturbed" } else { "identical" }.to_string(),
                r.2.as_str().to_string(),
                r.3.to_string(),
                r.4.to_string(),
                format!("{:.2}", r.1),
            ]
        })
        .collect();
    print_table(
        "E20 — schema diff over diff_pair_corpus(2015)",
        &["pair", "kind", "evolution", "witnesses", "contexts", "ms"],
        &table,
    );
    println!(
        "\ntotal: {total_ms:.1} ms for {} pairs (build {build_ms:.1} ms, compare {compare_ms:.1} ms)",
        rows.len()
    );
    println!("witnesses: {witnesses} verified, joint contexts: {joint_pairs}");
    println!("automata cache: {hits} hits / {misses} misses");
    for (v, n) in &verdict_counts {
        println!("  {:<22} {n}", v.as_str());
    }
}
