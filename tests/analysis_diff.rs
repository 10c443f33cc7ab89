//! Self-checking tests for the whole-schema analysis engine
//! (`core::analysis`): every witness document a diff emits must validate
//! against exactly one of the two input schemas — by tree AND stream
//! validation — reports must be byte-identical for any worker count,
//! `diff A A` is always equivalent, direction counts are symmetric, and
//! claimed inclusions are cross-checked against independently sampled
//! conforming documents.

use bonxai::core::analysis::{analyze_sat, diff_bxsd, AnalysisOptions, Direction};
use bonxai::core::{Bxsd, CompiledBxsd, ValidateOptions};
use bonxai::gen::{diff_pair_corpus, random_suffix_bxsd, SchemaConfig};
use bonxai::relang::AutomataCache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xmltree::XmlReader;

/// Validates `input` against `bxsd` by tree and stream, demanding the
/// two paths agree, and returns the shared verdict.
fn is_valid_both_ways(bxsd: &Bxsd, input: &str) -> bool {
    let compiled = CompiledBxsd::new(bxsd);
    let doc = xmltree::parse_document(input).expect("witness documents are well-formed XML");
    let opts = ValidateOptions::default();
    let tree = compiled.validate_with(&doc, opts);
    let mut reader = XmlReader::from_str(input);
    let streamed = compiled
        .validate_stream_with(&mut reader, opts)
        .expect("witness documents stream cleanly");
    assert_eq!(
        tree.is_valid(),
        streamed.is_valid(),
        "tree and stream validation disagree on witness {input}"
    );
    tree.is_valid()
}

#[test]
fn witnesses_validate_against_exactly_one_schema() {
    let corpus = diff_pair_corpus(41, 24);
    let opts = AnalysisOptions::default();
    let mut checked = 0;
    for pair in &corpus {
        let report = diff_bxsd(&pair.a, &pair.b, &opts, &mut AutomataCache::new())
            .expect("diff within budget");
        assert_eq!(
            report.stats.dropped, 0,
            "pair {}: dropped candidates",
            pair.id
        );
        for w in &report.witnesses {
            let (pos, neg) = match w.direction {
                Direction::OnlyInA => (&pair.a, &pair.b),
                Direction::OnlyInB => (&pair.b, &pair.a),
            };
            assert!(
                is_valid_both_ways(pos, &w.document),
                "pair {}: witness not valid in its positive schema: {}",
                pair.id,
                w.document
            );
            assert!(
                !is_valid_both_ways(neg, &w.document),
                "pair {}: witness also valid in its negative schema: {}",
                pair.id,
                w.document
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "corpus produced no witnesses to check");
}

#[test]
fn diff_of_a_schema_with_itself_is_equivalent() {
    let mut rng = StdRng::seed_from_u64(7);
    let opts = AnalysisOptions::default();
    for _ in 0..12 {
        let a = random_suffix_bxsd(&SchemaConfig::default(), &mut rng);
        let report =
            diff_bxsd(&a, &a, &opts, &mut AutomataCache::new()).expect("diff within budget");
        assert!(report.equivalent(), "A vs A must be equivalent: {report:?}");
        assert!(report.witnesses.is_empty());
    }
}

#[test]
fn diff_is_symmetric_up_to_direction() {
    let corpus = diff_pair_corpus(43, 12);
    let opts = AnalysisOptions::default();
    for pair in &corpus {
        let ab = diff_bxsd(&pair.a, &pair.b, &opts, &mut AutomataCache::new())
            .expect("diff within budget");
        let ba = diff_bxsd(&pair.b, &pair.a, &opts, &mut AutomataCache::new())
            .expect("diff within budget");
        assert_eq!(ab.a_only, ba.b_only, "pair {}", pair.id);
        assert_eq!(ab.b_only, ba.a_only, "pair {}", pair.id);
        let docs = |r: &bonxai::core::analysis::DiffReport, d: Direction| -> Vec<String> {
            r.witnesses
                .iter()
                .filter(|w| w.direction == d)
                .map(|w| w.document.clone())
                .collect()
        };
        assert_eq!(
            docs(&ab, Direction::OnlyInA),
            docs(&ba, Direction::OnlyInB),
            "pair {}: A-only witnesses must match under swap",
            pair.id
        );
        assert_eq!(
            docs(&ab, Direction::OnlyInB),
            docs(&ba, Direction::OnlyInA),
            "pair {}: B-only witnesses must match under swap",
            pair.id
        );
    }
}

#[test]
fn reports_are_identical_for_any_job_count() {
    let corpus = diff_pair_corpus(47, 8);
    for pair in &corpus {
        let base = diff_bxsd(
            &pair.a,
            &pair.b,
            &AnalysisOptions::default(),
            &mut AutomataCache::new(),
        )
        .expect("diff within budget");
        for jobs in [2, 5, 16] {
            let opts = AnalysisOptions {
                jobs,
                ..AnalysisOptions::default()
            };
            let r = diff_bxsd(&pair.a, &pair.b, &opts, &mut AutomataCache::new())
                .expect("diff within budget");
            assert_eq!(r.witnesses, base.witnesses, "pair {} jobs {jobs}", pair.id);
            assert_eq!(r.evolution, base.evolution, "pair {} jobs {jobs}", pair.id);
        }
    }
}

/// Cross-checks the diff's *inclusion* claims against an independent
/// oracle: documents sampled from each schema's own generator. If the
/// diff claims `A ⊆ B` (no A-only witnesses), then every sampled
/// A-conforming document must be B-valid, and vice versa.
#[test]
fn claimed_inclusions_hold_on_sampled_documents() {
    use bonxai::core::translate::bxsd_to_dfa_xsd;
    use bonxai::gen::{sample_document, DocConfig};

    let corpus = diff_pair_corpus(53, 16);
    let opts = AnalysisOptions::default();
    let mut rng = StdRng::seed_from_u64(99);
    let mut cross_checked = 0;
    for pair in &corpus {
        let report = diff_bxsd(&pair.a, &pair.b, &opts, &mut AutomataCache::new())
            .expect("diff within budget");
        let sides = [
            (&pair.a, &pair.b, report.a_only == 0), // claim: A ⊆ B
            (&pair.b, &pair.a, report.b_only == 0), // claim: B ⊆ A
        ];
        for (sub, sup, claimed) in sides {
            if !claimed {
                continue;
            }
            let dfa = bxsd_to_dfa_xsd(sub);
            for _ in 0..8 {
                let Some(doc) = sample_document(&dfa, &DocConfig::default(), &mut rng) else {
                    break; // schema admits no documents: inclusion is vacuous
                };
                let text = xmltree::to_string(&doc);
                if !is_valid_both_ways(sub, &text) {
                    continue; // sampler works at datatype granularity; skip near-misses
                }
                assert!(
                    is_valid_both_ways(sup, &text),
                    "pair {}: diff claimed inclusion but sampled document escapes: {text}",
                    pair.id
                );
                cross_checked += 1;
            }
        }
    }
    assert!(
        cross_checked > 50,
        "oracle exercised too rarely: {cross_checked}"
    );
}

#[test]
fn sat_witnesses_validate() {
    let mut rng = StdRng::seed_from_u64(11);
    let opts = AnalysisOptions::default();
    let mut satisfiable = 0;
    for _ in 0..20 {
        let bxsd = random_suffix_bxsd(&SchemaConfig::default(), &mut rng);
        let report =
            analyze_sat(&bxsd, &opts, &mut AutomataCache::new()).expect("sat within budget");
        if let Some(w) = &report.witness {
            assert!(
                is_valid_both_ways(&bxsd, w),
                "sat witness does not validate: {w}"
            );
            satisfiable += 1;
        }
    }
    assert!(satisfiable > 10, "suffix corpus mostly satisfiable");
}
