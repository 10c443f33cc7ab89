//! Determinism of the parallel multi-schema lint path: rendering the
//! reports of a schema corpus through `map_indexed` (the engine behind
//! `bonxai lint <dir> --jobs N` and `exp_lint --jobs N`) must be
//! byte-identical to the sequential baseline for every worker count —
//! the workers may interleave schemas arbitrarily, but every
//! job carries its input index and results come back in input order.
//! Shuffling the submission order must permute the output the same way
//! and change nothing else.

use bonxai::core::lint::{lint_source_with, render_json, render_text, LintOptions};
use bonxai::core::map_indexed;
use bonxai::relang::AutomataCache;

/// A small corpus exercising every semantic check: dead rules (BX001),
/// unreachable rules (BX002), UPA (BX003), vacuous content (BX004),
/// unconstrained elements (BX006), and clean schemas of varying size so
/// workers finish out of order.
fn corpus() -> Vec<(String, String)> {
    let mut schemas = vec![
        (
            "dead.bonxai".to_owned(),
            "global { doc } grammar { \
               doc = { element a } \
               doc/a = { } \
               a = { } }"
                .to_owned(),
        ),
        (
            "unreachable.bonxai".to_owned(),
            "global { doc } grammar { \
               doc = { element b } \
               b = { element c } \
               c/c = { } \
               c = { } }"
                .to_owned(),
        ),
        (
            "upa.bonxai".to_owned(),
            "global { doc } grammar { \
               doc = { (element a, element b)? | (element a, element c)? } \
               a = { } b = { } c = { } }"
                .to_owned(),
        ),
        (
            "clean.bonxai".to_owned(),
            "global { doc } grammar { \
               doc = { (element item | element note)* } \
               item = mixed { } note = mixed { } }"
                .to_owned(),
        ),
    ];
    // Larger generated schemas: a chain of n elements each nesting the
    // next, so per-schema lint cost varies widely across the corpus.
    for n in [3usize, 7, 12] {
        let mut g = String::from("global { e0 } grammar { ");
        for i in 0..n {
            if i + 1 < n {
                g.push_str(&format!("e{i} = {{ element e{} }} ", i + 1));
            } else {
                g.push_str(&format!("e{i} = {{ }} "));
            }
        }
        g.push('}');
        schemas.push((format!("chain{n}.bonxai"), g));
    }
    schemas
}

/// Renders the whole corpus with `jobs` workers, exactly like the CLI
/// directory mode: parallel analysis, sequential in-order rendering.
fn render_all(corpus: &[(String, String)], jobs: usize, json: bool) -> String {
    let opts = LintOptions {
        include_notes: true,
        ..LintOptions::default()
    };
    let reports = map_indexed(corpus.to_vec(), jobs, |(name, text)| {
        let mut cache = AutomataCache::new();
        let report = lint_source_with(&text, &opts, Some(&mut cache)).expect("corpus parses");
        (name, report)
    });
    reports
        .iter()
        .map(|(name, r)| {
            if json {
                render_json(r, name)
            } else {
                render_text(r, name)
            }
        })
        .collect()
}

#[test]
fn parallel_lint_is_byte_identical_for_every_worker_count() {
    let corpus = corpus();
    let baseline_text = render_all(&corpus, 1, false);
    let baseline_json = render_all(&corpus, 1, true);
    assert!(
        baseline_text.contains("BX001"),
        "corpus exercises dead rules"
    );
    assert!(
        baseline_text.contains("BX002"),
        "corpus exercises unreachable rules"
    );
    assert!(baseline_text.contains("BX003"), "corpus exercises UPA");
    for jobs in [2usize, 8] {
        assert_eq!(
            render_all(&corpus, jobs, false),
            baseline_text,
            "text output differs at jobs={jobs}"
        );
        assert_eq!(
            render_all(&corpus, jobs, true),
            baseline_json,
            "json output differs at jobs={jobs}"
        );
    }
}

#[test]
fn shuffled_submission_order_only_permutes_the_output() {
    let corpus = corpus();
    let n = corpus.len();
    // A fixed derangement-ish shuffle: reverse, then swap neighbors.
    let mut order: Vec<usize> = (0..n).rev().collect();
    for pair in order.chunks_mut(2) {
        if pair.len() == 2 {
            pair.swap(0, 1);
        }
    }
    let shuffled: Vec<(String, String)> = order.iter().map(|&i| corpus[i].clone()).collect();
    for jobs in [1usize, 2, 8] {
        let straight = render_all(&corpus, jobs, false);
        let permuted = render_all(&shuffled, jobs, false);
        // Same multiset of per-schema renderings, in the shuffled order.
        let blocks: Vec<String> = corpus
            .iter()
            .map(|item| render_all(std::slice::from_ref(item), 1, false))
            .collect();
        let expect: String = order.iter().map(|&i| blocks[i].clone()).collect();
        assert_eq!(permuted, expect, "jobs={jobs}");
        assert_eq!(
            straight,
            blocks.concat(),
            "in-order output is the block concatenation (jobs={jobs})"
        );
    }
}
