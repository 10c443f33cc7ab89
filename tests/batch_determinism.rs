//! Determinism of the parallel batch engine: the per-file reports
//! of `validate_paths` (the engine behind `bonxai validate --jobs N
//! <file>...`) must be byte-identical for every worker count and must
//! not depend on submission order — scheduling may interleave workers
//! arbitrarily, but each job carries its input index and results are
//! sorted back, so the observable output is a pure function of the
//! inputs. The corpus deliberately mixes valid, invalid, malformed, and
//! missing files of very different sizes so workers finish out of order.

use std::fs;
use std::path::PathBuf;

use bonxai::core::{BonxaiSchema, CompiledBxsd, ValidateOptions};
use bonxai::xsd::violation::Violation;

const SCHEMA: &str = r#"
    global { doc }
    grammar {
      doc  = { (element item | element note)* }
      item = mixed { attribute id? }
      note = mixed { }
      @id  = { type xs:integer }
    }
"#;

/// A comparable rendering of one file's outcome.
fn key(report: &Result<bonxai::core::BxsdReport, String>) -> Result<Vec<Violation>, String> {
    match report {
        Ok(r) => Ok(r.violations.clone()),
        Err(e) => Err(e.clone()),
    }
}

fn write_corpus(dir: &std::path::Path) -> Vec<PathBuf> {
    fs::create_dir_all(dir).expect("temp dir");
    let mut paths = Vec::new();
    for i in 0..14usize {
        let path = dir.join(format!("doc{i}.xml"));
        let body = match i % 5 {
            // valid, with wildly varying size so chunked scheduling
            // would have produced uneven worker loads
            0 => format!(
                "<doc>{}</doc>",
                "<item id=\"7\">x</item>".repeat(1 + i * 40)
            ),
            1 => "<doc><note>fine</note></doc>".to_owned(),
            // invalid: undeclared child element
            2 => "<doc><bogus/></doc>".to_owned(),
            // invalid: facet violation in an attribute
            3 => "<doc><item id=\"seven\"/></doc>".to_owned(),
            // malformed XML: parse error, no report
            _ => "<doc><item>".to_owned(),
        };
        fs::write(&path, body).expect("write corpus file");
        paths.push(path);
    }
    // A path that does not exist: errors must stay in place too.
    paths.push(dir.join("missing.xml"));
    paths
}

#[test]
fn reports_identical_across_worker_counts_and_input_order() {
    let schema = BonxaiSchema::parse(SCHEMA).expect("schema parses");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let opts = ValidateOptions::default();
    let dir = std::env::temp_dir().join("bonxai-batch-determinism");
    let paths = write_corpus(&dir);

    let baseline = compiled.validate_paths(&paths, opts, 1);
    assert_eq!(baseline.len(), paths.len());
    assert!(baseline.iter().any(|f| f.is_valid()));
    assert!(baseline
        .iter()
        .any(|f| matches!(&f.report, Ok(r) if !r.is_valid())));
    assert!(baseline.iter().any(|f| f.report.is_err()));

    for jobs in [2, 3, 8, 32] {
        let run = compiled.validate_paths(&paths, opts, jobs);
        assert_eq!(run.len(), baseline.len(), "jobs={jobs}");
        for (a, b) in run.iter().zip(&baseline) {
            assert_eq!(a.path, b.path, "jobs={jobs}: input order not preserved");
            assert_eq!(key(&a.report), key(&b.report), "jobs={jobs}: {}", a.path);
        }
    }

    // Shuffle the submission order (deterministically); every file must
    // get the same report it got before, now at its new position.
    let mut shuffled: Vec<PathBuf> = Vec::new();
    let (evens, odds): (Vec<_>, Vec<_>) = paths.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    shuffled.extend(odds.into_iter().rev().map(|(_, p)| p.clone()));
    shuffled.extend(evens.into_iter().map(|(_, p)| p.clone()));
    assert_ne!(shuffled, paths);

    let by_path: std::collections::BTreeMap<&str, _> = baseline
        .iter()
        .map(|f| (f.path.as_str(), key(&f.report)))
        .collect();
    let run = compiled.validate_paths(&shuffled, opts, 8);
    assert_eq!(run.len(), shuffled.len());
    for (fr, submitted) in run.iter().zip(&shuffled) {
        assert_eq!(fr.path, submitted.display().to_string());
        assert_eq!(key(&fr.report), by_path[fr.path.as_str()], "{}", fr.path);
    }
}

#[test]
fn in_memory_batches_match_sequential_validation() {
    let schema = BonxaiSchema::parse(SCHEMA).expect("schema parses");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let opts = ValidateOptions::default();
    let docs: Vec<_> = (0..17usize)
        .map(|i| {
            let body = if i % 4 == 0 {
                "<doc><bogus/></doc>".to_owned()
            } else {
                format!("<doc>{}</doc>", "<note>n</note>".repeat(i + 1))
            };
            bonxai::xmltree::parse_document(&body).expect("doc parses")
        })
        .collect();
    let sequential: Vec<_> = docs
        .iter()
        .map(|d| compiled.validate_with(d, opts))
        .collect();
    for jobs in [1, 2, 8] {
        let batch = compiled.validate_batch_with_jobs(&docs, opts, jobs);
        assert_eq!(batch.len(), sequential.len());
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.violations, s.violations, "jobs={jobs}");
        }
    }
}
