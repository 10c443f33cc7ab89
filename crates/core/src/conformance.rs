//! The differential conformance harness: one input, every validation
//! path, one verdict.
//!
//! The repo's fast validators ([`crate::validate`](mod@crate::validate)) share automata
//! machinery — Glushkov construction, DFA determinization, the
//! relevance product, per-schema caches. A bug in that machinery can
//! make *all* of them agree on a wrong answer. The [`crate::oracle`]
//! module exists to break that failure mode: it re-derives the paper's
//! priority semantics from the AST with none of the shared machinery.
//! This module is the driver that pits them against each other.
//!
//! [`check`] runs a single `(schema, document-bytes)` pair through
//!
//! * the **oracle** (naive tree walk, independent matching engines),
//! * **tree-product** and **tree-lockstep** validation,
//! * **stream-product** and **stream-lockstep** validation,
//!
//! each parse/stream under every lexer engine available on this machine
//! (the detected SIMD kernel and the scalar fallback) plus the
//! buffered-`io::Read` source. Every run must produce a report
//! byte-identical to the oracle's — same violations at the same node
//! ids in the same order, same per-node match sets. Anything else is
//! returned as a [`Divergence`], and **a divergence is always a bug**:
//! either in a fast path, in the shared automata layer, or in the
//! oracle itself. It is never "acceptable disagreement"; the policy is
//! that the divergence is diagnosed and fixed, and the offending input
//! is checked into the corpus under `data/conformance/`.
//!
//! Malformed inputs short-circuit: every parsing path must *reject*
//! the bytes, and a path that instead accepts them (or reports a
//! different error) is a divergence of its own. This is what the fuzz
//! harness leans on — mutated bytes rarely stay well-formed, and the
//! lexer engines must still agree byte-for-byte.

use crate::bxsd::Bxsd;
use crate::oracle;
use crate::validate::{BxsdReport, CompiledBxsd, ValidateOptions};
use xmltree::simd::Engine;
use xmltree::{parse_from_reader, Document, XmlReader};

/// One validation run that disagreed with the reference answer.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which path diverged: `oracle`, `tree-product`, `tree-lockstep`,
    /// `stream-product`, `stream-lockstep`, or `parse`.
    pub path: &'static str,
    /// Lexer engine and byte source the run used, e.g. `sse2/str`.
    pub config: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} {}] {}", self.path, self.config, self.detail)
    }
}

/// The outcome of running one input through every path.
#[derive(Debug)]
pub struct Outcome {
    /// The oracle's report, when the input parsed at all.
    pub oracle: Option<BxsdReport>,
    /// Every disagreement between paths. Empty means full agreement.
    pub divergences: Vec<Divergence>,
}

impl Outcome {
    /// The agreed verdict: `Some(true)` if everything agreed the
    /// document is valid, `Some(false)` if everything agreed it is
    /// invalid, `None` if the input was (unanimously) malformed.
    /// Meaningless when [`Self::divergences`] is non-empty.
    pub fn verdict(&self) -> Option<bool> {
        self.oracle.as_ref().map(BxsdReport::is_valid)
    }
}

/// The lexer engines to cross-check: whatever [`Engine::detect`] picked
/// plus the scalar fallback (deduplicated when they coincide).
fn engines() -> Vec<(&'static str, Engine)> {
    let detected = Engine::detect();
    let name = match detected {
        Engine::Sse2 => "sse2",
        Engine::Neon => "neon",
        Engine::Scalar => "scalar",
    };
    let mut out = vec![(name, detected)];
    if detected != Engine::Scalar {
        out.push(("scalar", Engine::Scalar));
    }
    out
}

fn parse_with(input: &str, engine: Engine) -> Result<Document, xmltree::ParseError> {
    let mut reader = XmlReader::from_str(input);
    reader.set_engine(engine);
    parse_from_reader(reader).map(|p| p.document)
}

fn parse_with_io(input: &str, engine: Engine) -> Result<Document, xmltree::ParseError> {
    let mut reader = XmlReader::from_reader(input.as_bytes());
    reader.set_engine(engine);
    parse_from_reader(reader).map(|p| p.document)
}

fn diff_reports(got: &BxsdReport, want: &BxsdReport) -> Option<String> {
    if got.violations != want.violations {
        return Some(format!(
            "violations diverge: got {:?}, oracle has {:?}",
            got.violations, want.violations
        ));
    }
    if got.matches != want.matches {
        return Some(format!(
            "rule matches diverge: got {:?}, oracle has {:?}",
            got.matches, want.matches
        ));
    }
    None
}

/// Runs `input` against `bxsd` through every validation path and lexer
/// engine, comparing all of them to the oracle. `record_matches`
/// additionally demands agreement on the per-node matching-rule sets
/// (the `--rules` data), not just violations.
pub fn check(bxsd: &Bxsd, input: &str, record_matches: bool) -> Outcome {
    let mut divergences = Vec::new();
    let engines = engines();

    // Reference parse: detected engine, in-memory source. All other
    // engine/source combinations must agree with it — on the tree when
    // it parses (checked implicitly by validating each parse below),
    // and on the rejection when it does not.
    let reference = parse_with(input, engines[0].1);
    let doc = match reference {
        Err(ref err) => {
            let want = err.to_string();
            for &(name, engine) in &engines {
                for (src, parsed) in [
                    ("str", parse_with(input, engine)),
                    ("io", parse_with_io(input, engine)),
                ] {
                    match parsed {
                        Ok(_) => divergences.push(Divergence {
                            path: "parse",
                            config: format!("{name}/{src}"),
                            detail: format!("accepted input the reference parse rejects ({want})"),
                        }),
                        Err(e) if e.to_string() != want => divergences.push(Divergence {
                            path: "parse",
                            config: format!("{name}/{src}"),
                            detail: format!(
                                "error {:?} differs from reference {want:?}",
                                e.to_string()
                            ),
                        }),
                        Err(_) => {}
                    }
                }
            }
            return Outcome {
                oracle: None,
                divergences,
            };
        }
        Ok(doc) => doc,
    };

    let want = oracle::validate_with(bxsd, &doc, record_matches);
    let compiled = CompiledBxsd::new(bxsd);
    let product = ValidateOptions {
        record_matches,
        force_lockstep: false,
    };
    let lockstep = ValidateOptions {
        record_matches,
        force_lockstep: true,
    };

    for &(name, engine) in &engines {
        for (src, parsed) in [
            ("str", parse_with(input, engine)),
            ("io", parse_with_io(input, engine)),
        ] {
            // Tree paths, on this engine's own parse of the bytes.
            match parsed {
                Err(e) => divergences.push(Divergence {
                    path: "parse",
                    config: format!("{name}/{src}"),
                    detail: format!("rejected input the reference parse accepts: {e}"),
                }),
                Ok(doc) => {
                    for (path, opts) in [("tree-product", product), ("tree-lockstep", lockstep)] {
                        if let Some(d) = diff_reports(&compiled.validate_with(&doc, opts), &want) {
                            divergences.push(Divergence {
                                path,
                                config: format!("{name}/{src}"),
                                detail: d,
                            });
                        }
                    }
                }
            }
            // Streaming paths, re-lexing the bytes under the same config.
            for (path, opts) in [("stream-product", product), ("stream-lockstep", lockstep)] {
                let got = if src == "str" {
                    let mut reader = XmlReader::from_str(input);
                    reader.set_engine(engine);
                    compiled.validate_stream_with(&mut reader, opts)
                } else {
                    let mut reader = XmlReader::from_reader(input.as_bytes());
                    reader.set_engine(engine);
                    compiled.validate_stream_with(&mut reader, opts)
                };
                match got {
                    Err(e) => divergences.push(Divergence {
                        path,
                        config: format!("{name}/{src}"),
                        detail: format!("stream rejected input the reference parse accepts: {e}"),
                    }),
                    Ok(got) => {
                        if let Some(d) = diff_reports(&got, &want) {
                            divergences.push(Divergence {
                                path,
                                config: format!("{name}/{src}"),
                                detail: d,
                            });
                        }
                    }
                }
            }
        }
    }

    Outcome {
        oracle: Some(want),
        divergences,
    }
}
