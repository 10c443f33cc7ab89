//! Validation-throughput scaling and the product-vs-lock-step ablation.
//!
//! Part 1 (scaling): the same (Figure-3-shaped) language validated as
//! DTD, XSD (typed), BonXai (product and lock-step), and DFA-based XSD
//! (single automaton), over documents from ~100 to ~100k element nodes.
//! Every validator is linear-time, so each column should be flat; the
//! interesting column is the constant.
//!
//! Part 2 (ablation): three evaluations of the same BXSD semantics on
//! the Figure 4 and Figure 5 schemas:
//!
//! * **seed lock-step** — the pre-product evaluator, reproduced verbatim
//!   below: one DFA step per rule per node, two passes over each node's
//!   children, per-node allocations, unconditional match recording;
//! * **fallback lock-step** — the current Theorem-9 fallback: still one
//!   DFA step per rule per node, but with the fused single child pass,
//!   pooled state vectors, interned-name resolution, and opt-in match
//!   recording this change introduced;
//! * **product** — the relevance product (Lemma 7): exactly one
//!   transition lookup per node.
//!
//! Part 2b (front end): the same corpora lexed only (zero-copy token
//! scan, no tree, no validation) and parsed to trees only, isolating
//! what the event front end costs out of the end-to-end numbers. Every
//! front-end and streamed number is measured under **both** lexer
//! engines — the detected SIMD structural-index engine and the forced
//! scalar fallback ([`XmlReader::set_engine`]) — interleaved within the
//! same timing loop, so the SIMD-vs-scalar delta is immune to the
//! cross-process noise that plagues absolute numbers on shared hosts.
//! `--parse-only` runs just this part and exits (the `check.sh`
//! microbench).
//!
//! Part 2c (batch): `validate_batch_with_jobs` over the figure-5 corpus
//! at 1/2/4/8 requested jobs, reporting wall time and speedup vs one
//! job. Each row also records the workers that actually ran,
//! `clamp_jobs(jobs)`: requests beyond the host's core count are
//! clamped, so those rows measure the same worker count again.
//!
//! Part 3 (streaming): end-to-end (parse + validate) throughput of the
//! streaming validator vs the tree pipeline on the same serialized
//! corpora, plus a peak-RSS measurement on a large generated document:
//! each mode runs in a fresh subprocess (`--mem-probe`, a hidden flag)
//! so `VmHWM` isolates that mode's high-water mark. The streamed RSS
//! should be flat in document size (O(depth) frames), the tree RSS
//! proportional to it. `--mem-mb N` sizes the document (default 100).
//!
//! `--json <path>` writes the numbers as `BENCH_validation.json`.

use std::collections::BTreeMap;
use std::io::Write;

use bonxai_bench::{print_table, timed};
use bonxai_core::translate::bxsd_to_dfa_xsd;
use bonxai_core::{BonxaiSchema, Bxsd, CompiledBxsd, ValidateOptions};
use bonxai_gen::{sample_document, DocConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relang::{CompiledDre, Dfa, StateId};
use xmltree::{
    AttrList, Document, Engine, EventSink, NameId, NodeId, TextChunk, TextInterest, XmlReader,
};
use xsd::violation::{Violation, ViolationKind};
use xsd::CompiledXsd;

const LOCKSTEP: ValidateOptions = ValidateOptions {
    record_matches: false,
    force_lockstep: true,
};

fn data(name: &str) -> String {
    for base in [".", "..", "../.."] {
        if let Ok(text) = std::fs::read_to_string(format!("{base}/data/{name}")) {
            return text;
        }
    }
    panic!("data file {name} not found (run from the workspace root)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--mem-probe") {
        // Hidden subprocess mode for the peak-RSS measurement.
        let [mode, schema, doc] = &args[i + 1..i + 4] else {
            panic!("--mem-probe <tree|stream> <schema> <document>");
        };
        mem_probe(mode, schema, doc);
        return;
    }
    // Repetition floor: every interleaved timing loop runs its fixed
    // iteration count AND at least this many seconds, so a noisy host
    // can be answered with a longer measurement instead of a lucky one.
    let min_secs: f64 = args
        .iter()
        .position(|a| a == "--min-secs")
        .map(|i| {
            args.get(i + 1)
                .expect("--min-secs <seconds>")
                .parse()
                .expect("seconds")
        })
        .unwrap_or(0.0);
    if args.iter().any(|a| a == "--parse-only") {
        parse_only_bench(min_secs);
        return;
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).cloned().expect("--json <path>"));
    let mem_mb: usize = args
        .iter()
        .position(|a| a == "--mem-mb")
        .map(|i| args.get(i + 1).expect("--mem-mb <N>").parse().expect("N"))
        .unwrap_or(100);

    // The ablation runs first: its corpora are timed on a fresh heap,
    // before the scaling table's 100k-node documents fragment it.
    let results = ablation(min_secs);
    let batch = batch_scaling();
    let mem = streaming_memory(mem_mb);
    scaling_table();
    if let Some(path) = json_path {
        let json = render_json(&results, &batch, &mem);
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}

fn scaling_table() {
    let fig2 = xmltree::dtd::parse_dtd(&data("figure2.dtd")).expect("figure 2");
    let fig3 = xsd::parse_xsd(&data("figure3.xsd")).expect("figure 3");
    let fig5 = BonxaiSchema::parse(&data("figure5.bonxai")).expect("figure 5");

    let dfa_schema = bxsd_to_dfa_xsd(&fig5.bxsd);
    let compiled_dtd = fig2.compile();
    let compiled_xsd = CompiledXsd::new(&fig3);
    let compiled_bxsd = CompiledBxsd::new(&fig5.bxsd);
    let compiled_dfa = dfa_schema.compile();
    assert!(
        compiled_bxsd.product_states().is_some(),
        "figure 5 fits the product budget"
    );

    let gen_schema = bonxai_core::translate::xsd_to_dfa_xsd(&fig3);
    let mut rng = StdRng::seed_from_u64(2015);
    let mut rows = Vec::new();
    for target in [100usize, 1_000, 10_000, 100_000] {
        // Build one big document of roughly `target` element nodes by
        // concatenating samples under a shared root.
        let mut doc = Document::new("document");
        let root = doc.root();
        // the Figure-2 DTD requires exactly one section below template
        let template = doc.add_element(root, "template");
        doc.add_element(template, "section");
        doc.add_element(root, "userstyles");
        let content = doc.add_element(root, "content");
        while doc.element_count() < target {
            let sample = sample_document(
                &gen_schema,
                &DocConfig {
                    max_nodes: 400,
                    ..DocConfig::default()
                },
                &mut rng,
            )
            .expect("figure 3 has roots");
            // graft the sample's content sections under our content node
            let sc = sample
                .iter_elements()
                .find(|&n| sample.name(n) == Some("content"))
                .expect("content");
            for child in sample.element_children(sc) {
                graft(&sample, child, &mut doc, content);
            }
        }
        let nodes = doc.element_count();

        let (_, dtd_ms) = timed(|| {
            assert!(xmltree::dtd::validator::validate_compiled(&compiled_dtd, &doc).is_empty())
        });
        let (_, xsd_ms) = timed(|| assert!(compiled_xsd.validate(&doc).is_valid()));
        let (_, product_ms) = timed(|| assert!(compiled_bxsd.validate(&doc).is_valid()));
        let (_, lockstep_ms) =
            timed(|| assert!(compiled_bxsd.validate_with(&doc, LOCKSTEP).is_valid()));
        let (_, dfa_ms) = timed(|| assert!(compiled_dfa.validate(&doc).is_empty()));

        let per = |ms: f64| format!("{:.0}", ms * 1e6 / nodes as f64);
        rows.push(vec![
            nodes.to_string(),
            per(dtd_ms),
            per(xsd_ms),
            per(product_ms),
            per(lockstep_ms),
            per(dfa_ms),
        ]);
    }
    print_table(
        "Validation cost per element node (ns/node)",
        &[
            "nodes",
            "DTD",
            "XSD (typed)",
            "BonXai (product)",
            "BonXai (lock-step)",
            "DFA-based XSD",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: every column flat (linear-time validators); the \
         lock-step constant is ~#rules DFA steps per node, product and \
         DFA-based XSD ~1."
    );
}

/// The pre-product BXSD evaluator, reproduced from the growth seed as the
/// ablation baseline. Lock-step over the per-rule ancestor DFAs; two
/// passes over each node's children (child word, then child queueing); a
/// fresh word vector and fresh state vectors per node; match recording
/// always on. This is exactly what `CompiledBxsd::validate` did before
/// the relevance product landed.
struct SeedValidator<'a> {
    bxsd: &'a Bxsd,
    ancestor_dfas: Vec<Dfa>,
    content_matchers: Vec<CompiledDre>,
}

// Built (and paid for) per node like the seed did, but never read here —
// the ablation only measures the recording cost.
#[allow(dead_code)]
struct SeedMatch {
    matching: Vec<usize>,
    relevant: Option<usize>,
}

impl<'a> SeedValidator<'a> {
    fn new(bxsd: &'a Bxsd) -> Self {
        let n = bxsd.ename.len();
        SeedValidator {
            bxsd,
            ancestor_dfas: bxsd
                .rules
                .iter()
                .map(|r| relang::ops::regex_to_dfa(&r.ancestor, n))
                .collect(),
            content_matchers: bxsd
                .rules
                .iter()
                .map(|r| CompiledDre::compile(&r.content.regex, n))
                .collect(),
        }
    }

    fn validate(&self, doc: &Document) -> (Vec<Violation>, BTreeMap<NodeId, SeedMatch>) {
        let mut violations = Vec::new();
        let mut matches = BTreeMap::new();
        let root = doc.root();
        let root_name = doc.name(root).expect("root is an element");
        let root_sym = self.bxsd.ename.lookup(root_name);
        if !root_sym.is_some_and(|s| self.bxsd.start.contains(&s)) {
            violations.push(Violation {
                node: root,
                kind: ViolationKind::RootNotAllowed(root_name.to_owned()),
            });
            return (violations, matches);
        }
        let init: Vec<Option<StateId>> = self
            .ancestor_dfas
            .iter()
            .map(|d| d.transition(d.initial(), root_sym.expect("checked")))
            .collect();
        let mut stack = vec![(root, init)];
        while let Some((node, states)) = stack.pop() {
            let matching: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(i, s)| s.is_some_and(|q| self.ancestor_dfas[*i].is_final(q)))
                .map(|(i, _)| i)
                .collect();
            let relevant = matching.last().copied();
            matches.insert(
                node,
                SeedMatch {
                    matching: matching.clone(),
                    relevant,
                },
            );

            // First pass: child word.
            let mut word = Vec::new();
            let mut unknown_at = None;
            for (i, child) in doc.element_children(node).enumerate() {
                match self.bxsd.ename.lookup(doc.name(child).expect("element")) {
                    Some(sym) => word.push(sym),
                    None => {
                        violations.push(Violation {
                            node: child,
                            kind: ViolationKind::NoGoverningDefinition(
                                doc.name(child).expect("element").to_owned(),
                            ),
                        });
                        unknown_at = Some(i);
                        break;
                    }
                }
            }

            if let Some(i) = relevant {
                let model = &self.bxsd.rules[i].content;
                let name = doc.name(node).expect("element");
                xsd::violation::check_text(doc, node, model, &mut violations);
                xsd::violation::check_attributes(doc, node, model, &mut violations);
                let failed_at = unknown_at.or_else(|| {
                    if model.simple_content.is_some() {
                        (!word.is_empty()).then_some(0)
                    } else {
                        self.content_matchers[i].first_error(&word)
                    }
                });
                if let Some(at) = failed_at {
                    violations.push(Violation {
                        node,
                        kind: ViolationKind::ContentModel {
                            element: name.to_owned(),
                            at,
                        },
                    });
                }
            }

            // Second pass: queue the children with advanced rule states.
            for (i, child) in doc.element_children(node).enumerate() {
                let next: Vec<Option<StateId>> = match word.get(i) {
                    Some(&sym) => states
                        .iter()
                        .zip(&self.ancestor_dfas)
                        .map(|(s, d)| s.and_then(|q| d.transition(q, sym)))
                        .collect(),
                    None => vec![None; states.len()],
                };
                stack.push((child, next));
            }
        }
        (violations, matches)
    }
}

/// One schema's ablation numbers.
struct Ablation {
    schema: &'static str,
    rules: usize,
    product_states: usize,
    nodes: usize,
    /// Seed lock-step evaluator (the pre-product hot path).
    lockstep_ns_per_node: f64,
    /// This change's lock-step fallback (Theorem 9 path).
    fallback_ns_per_node: f64,
    product_ns_per_node: f64,
    /// End-to-end tree pipeline: parse to a tree, then validate.
    tree_e2e_ns_per_node: f64,
    /// End-to-end streaming validation of the same bytes (no tree).
    stream_ns_per_node: f64,
    /// Zero-copy token scan of the same bytes: no tree, no validation.
    lex_ns_per_node: f64,
    /// The fused drive loop into a counting sink: event delivery without
    /// token materialization and without validation. `stream − dispatch`
    /// is what the automaton stepping itself costs; `dispatch − lex` is
    /// (negative) what skipping token construction saves.
    dispatch_ns_per_node: f64,
    /// Parse to a tree only (no validation).
    parse_ns_per_node: f64,
    /// Lexer engine behind the three numbers above (`sse2`/`neon`, or
    /// `scalar` when forced via `BONXAI_NO_SIMD`).
    simd: &'static str,
    /// The same, re-measured with the engine forced to scalar —
    /// interleaved with the rows above so the ratio is noise-immune.
    stream_scalar_ns_per_node: f64,
    lex_scalar_ns_per_node: f64,
    dispatch_scalar_ns_per_node: f64,
    parse_scalar_ns_per_node: f64,
}

impl Ablation {
    fn lockstep_nodes_per_sec(&self) -> f64 {
        1e9 / self.lockstep_ns_per_node
    }
    fn product_nodes_per_sec(&self) -> f64 {
        1e9 / self.product_ns_per_node
    }
    /// Product vs the pre-product hot path.
    fn speedup(&self) -> f64 {
        self.lockstep_ns_per_node / self.product_ns_per_node
    }
    /// Product vs the equally-optimized lock-step fallback.
    fn fallback_speedup(&self) -> f64 {
        self.fallback_ns_per_node / self.product_ns_per_node
    }
}

fn ablation(min_secs: f64) -> Vec<Ablation> {
    let mut results = Vec::new();
    for name in ["figure4.bonxai", "figure5.bonxai"] {
        let schema = BonxaiSchema::parse(&data(name)).expect("schema parses");
        let compiled = CompiledBxsd::new(&schema.bxsd);
        let product_states = compiled
            .product_states()
            .expect("figure schemas fit the product budget");

        // Sample a conforming corpus from the schema's own language.
        let dfa_schema = bxsd_to_dfa_xsd(&schema.bxsd);
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = DocConfig {
            max_nodes: 500,
            ..DocConfig::default()
        };
        let mut docs = Vec::new();
        let mut nodes = 0usize;
        while nodes < 40_000 {
            let doc = sample_document(&dfa_schema, &cfg, &mut rng).expect("satisfiable");
            nodes += doc.element_count();
            docs.push(doc);
        }

        // Interleaved timed passes (seed, fallback, product, repeatedly),
        // keeping each strategy's fastest pass: noise bursts hit all
        // strategies instead of biasing one measurement block.
        let seed = SeedValidator::new(&schema.bxsd);
        let one = |opts: ValidateOptions| {
            let (violations, ms) = timed(|| {
                docs.iter()
                    .map(|d| compiled.validate_with(d, opts).violations.len())
                    .sum::<usize>()
            });
            assert_eq!(violations, 0, "{name}: sampled docs must conform");
            ms * 1e6 / nodes as f64
        };
        let mut lockstep_ns = f64::INFINITY;
        let mut fallback_ns = f64::INFINITY;
        let mut product_ns = f64::INFINITY;
        let started = std::time::Instant::now();
        let mut iters = 0usize;
        while iters < 15 || started.elapsed().as_secs_f64() < min_secs {
            let (violations, ms) =
                timed(|| docs.iter().map(|d| seed.validate(d).0.len()).sum::<usize>());
            assert_eq!(violations, 0, "{name}: sampled docs must conform");
            lockstep_ns = lockstep_ns.min(ms * 1e6 / nodes as f64);
            fallback_ns = fallback_ns.min(one(LOCKSTEP));
            product_ns = product_ns.min(one(ValidateOptions::default()));
            iters += 1;
        }

        // Streamed vs tree, end to end over the same bytes: the tree
        // pipeline parses and then validates; the streaming validator
        // does both in one pass without materializing nodes. The
        // streamed number is taken under both lexer engines (detected
        // SIMD and forced scalar), interleaved in the same loop.
        let texts: Vec<String> = docs.iter().map(xmltree::to_string).collect();
        let stream_one = |engine: Engine| {
            let (violations, ms) = timed(|| {
                texts
                    .iter()
                    .map(|t| {
                        let mut reader = XmlReader::from_str(t);
                        reader.set_engine(engine);
                        compiled
                            .validate_stream(&mut reader)
                            .expect("round-trip")
                            .violations
                            .len()
                    })
                    .sum::<usize>()
            });
            assert_eq!(violations, 0, "{name}: corpus must conform (stream)");
            ms * 1e6 / nodes as f64
        };
        let mut tree_e2e_ns = f64::INFINITY;
        let mut stream_ns = f64::INFINITY;
        let mut stream_scalar_ns = f64::INFINITY;
        let started = std::time::Instant::now();
        let mut iters = 0usize;
        while iters < 10 || started.elapsed().as_secs_f64() < min_secs {
            let (violations, ms) = timed(|| {
                texts
                    .iter()
                    .map(|t| {
                        let doc = xmltree::parse_document(t).expect("round-trip");
                        compiled.validate(&doc).violations.len()
                    })
                    .sum::<usize>()
            });
            assert_eq!(violations, 0, "{name}: corpus must conform (tree)");
            tree_e2e_ns = tree_e2e_ns.min(ms * 1e6 / nodes as f64);
            stream_ns = stream_ns.min(stream_one(Engine::detect()));
            stream_scalar_ns = stream_scalar_ns.min(stream_one(Engine::Scalar));
            iters += 1;
        }
        let fe = front_end_ns(&texts, nodes, min_secs);

        results.push(Ablation {
            schema: name,
            rules: schema.bxsd.n_rules(),
            product_states,
            nodes,
            lockstep_ns_per_node: lockstep_ns,
            fallback_ns_per_node: fallback_ns,
            product_ns_per_node: product_ns,
            tree_e2e_ns_per_node: tree_e2e_ns,
            stream_ns_per_node: stream_ns,
            lex_ns_per_node: fe.lex,
            dispatch_ns_per_node: fe.dispatch,
            parse_ns_per_node: fe.parse,
            simd: Engine::detect().name(),
            stream_scalar_ns_per_node: stream_scalar_ns,
            lex_scalar_ns_per_node: fe.lex_scalar,
            dispatch_scalar_ns_per_node: fe.dispatch_scalar,
            parse_scalar_ns_per_node: fe.parse_scalar,
        });
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.schema.to_owned(),
                r.rules.to_string(),
                r.product_states.to_string(),
                r.nodes.to_string(),
                format!("{:.0}", r.lockstep_ns_per_node),
                format!("{:.0}", r.fallback_ns_per_node),
                format!("{:.0}", r.product_ns_per_node),
                format!("{:.2}x", r.speedup()),
                format!("{:.2}x", r.fallback_speedup()),
                format!("{:.0}", r.tree_e2e_ns_per_node),
                format!("{:.0}", r.stream_ns_per_node),
                format!("{:.0}", r.lex_ns_per_node),
                format!("{:.0}", r.parse_ns_per_node),
                r.simd.to_owned(),
            ]
        })
        .collect();
    print_table(
        "Ablation: lock-step vs relevance product (conforming corpora)",
        &[
            "schema",
            "rules",
            "prod states",
            "nodes",
            "seed lock-step",
            "fallback",
            "product",
            "vs seed",
            "vs fallback",
            "tree e2e",
            "streamed",
            "lex only",
            "parse only",
            "simd",
        ],
        &rows,
    );
    println!(
        "\nns/node; seed lock-step = the pre-product evaluator (two child \
         passes, always records matches); fallback = this change's \
         Theorem-9 lock-step path; product = one lookup per node. \
         tree e2e / streamed are end-to-end over serialized bytes: parse + \
         validate a tree vs one streaming pass with no tree; lex only is \
         the zero-copy token scan of the same bytes, parse only builds \
         the tree without validating — streamed minus lex only is what \
         validation itself costs on the streaming path. `simd` is the \
         lexer engine behind those columns."
    );

    let scalar_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.schema.to_owned(),
                format!("{:.0}", r.stream_scalar_ns_per_node),
                format!("{:.0}", r.lex_scalar_ns_per_node),
                format!("{:.0}", r.parse_scalar_ns_per_node),
                format!("{:.2}x", r.stream_scalar_ns_per_node / r.stream_ns_per_node),
                format!("{:.2}x", r.lex_scalar_ns_per_node / r.lex_ns_per_node),
                format!("{:.2}x", r.parse_scalar_ns_per_node / r.parse_ns_per_node),
            ]
        })
        .collect();
    print_table(
        "Forced-scalar lexer (same corpora, interleaved measurement)",
        &[
            "schema",
            "streamed",
            "lex only",
            "parse only",
            "stream gain",
            "lex gain",
            "parse gain",
        ],
        &scalar_rows,
    );
    println!(
        "\nns/node with the lexer engine forced to the portable scalar \
         path; `gain` columns are scalar/simd ratios. Scalar and SIMD \
         passes alternate inside one timing loop, so the ratios survive \
         host noise that distorts the absolute numbers."
    );

    let stage_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.schema.to_owned(),
                format!("{:.0}", r.lex_ns_per_node),
                format!("{:.0}", r.dispatch_ns_per_node),
                format!("{:.0}", r.stream_ns_per_node - r.dispatch_ns_per_node),
                format!("{:.0}", r.stream_ns_per_node),
                format!("{:.0}", r.dispatch_scalar_ns_per_node),
                format!("{:.0}", r.stream_scalar_ns_per_node),
            ]
        })
        .collect();
    print_table(
        "Streamed stage breakdown (ns/node)",
        &[
            "schema",
            "lex (tokens)",
            "dispatch (drive)",
            "validate (=streamed-dispatch)",
            "streamed e2e",
            "dispatch scalar",
            "streamed scalar",
        ],
        &stage_rows,
    );
    println!(
        "\n`lex` pulls tokens; `dispatch` pushes events through the fused \
         drive loop into a counting sink (no tokens, no validation); the \
         difference to `streamed e2e` is the automaton stepping itself. \
         All stages come from the same interleaved loops as the tables \
         above."
    );
    results
}

/// Front-end timings for one corpus under both lexer engines.
struct FrontEnd {
    lex: f64,
    dispatch: f64,
    parse: f64,
    lex_scalar: f64,
    dispatch_scalar: f64,
    parse_scalar: f64,
}

/// An [`EventSink`] that only counts events: what the fused drive loop
/// costs with validation stubbed out. Asks for `NonWhitespace` text so
/// the drive pays the same per-text-run whitespace answer it pays under
/// element-only content rules.
struct CountSink {
    events: usize,
}

impl EventSink for CountSink {
    fn start_element(
        &mut self,
        _name: &str,
        _name_id: NameId,
        _attributes: &AttrList<'_>,
        _self_closing: bool,
    ) -> TextInterest {
        self.events += 1;
        TextInterest::NonWhitespace
    }

    fn end_element(&mut self, _name: &str, _name_id: NameId) {
        self.events += 1;
    }

    fn text(&mut self, _chunk: TextChunk<'_>) {
        self.events += 1;
    }
}

/// Times the front end alone over serialized corpora: the zero-copy
/// token scan (no tree, no validation), the fused drive loop into a
/// counting sink (no tokens either), and the tree parse (no
/// validation), each under the detected engine and the forced scalar
/// fallback. All measurements alternate within one loop so a
/// noise burst on a shared host hits them equally; the scalar/SIMD
/// ratio is therefore trustworthy even when absolutes wobble.
fn front_end_ns(texts: &[String], nodes: usize, min_secs: f64) -> FrontEnd {
    let lex_one = |engine: Engine| {
        let (events, ms) = timed(|| {
            texts
                .iter()
                .map(|t| {
                    let mut reader = XmlReader::from_str(t);
                    reader.set_engine(engine);
                    let mut n = 0usize;
                    loop {
                        let tok = reader.next_event().expect("well-formed");
                        if tok.is_end_document() {
                            break;
                        }
                        n += 1;
                    }
                    n
                })
                .sum::<usize>()
        });
        assert!(events >= nodes, "every element node yields an event");
        ms * 1e6 / nodes as f64
    };
    let dispatch_one = |engine: Engine| {
        let (events, ms) = timed(|| {
            texts
                .iter()
                .map(|t| {
                    let mut reader = XmlReader::from_str(t);
                    reader.set_engine(engine);
                    let mut sink = CountSink { events: 0 };
                    reader.drive(&mut sink).expect("well-formed");
                    sink.events
                })
                .sum::<usize>()
        });
        assert!(events >= nodes, "every element node yields events");
        ms * 1e6 / nodes as f64
    };
    let parse_one = |engine: Engine| {
        let (parsed, ms) = timed(|| {
            texts
                .iter()
                .map(|t| {
                    let mut reader = XmlReader::from_str(t);
                    reader.set_engine(engine);
                    xmltree::parse_from_reader(reader)
                        .expect("round-trip")
                        .document
                        .element_count()
                })
                .sum::<usize>()
        });
        assert_eq!(parsed, nodes, "tree parse sees the same corpus");
        ms * 1e6 / nodes as f64
    };
    let mut fe = FrontEnd {
        lex: f64::INFINITY,
        dispatch: f64::INFINITY,
        parse: f64::INFINITY,
        lex_scalar: f64::INFINITY,
        dispatch_scalar: f64::INFINITY,
        parse_scalar: f64::INFINITY,
    };
    let started = std::time::Instant::now();
    let mut iters = 0usize;
    while iters < 10 || started.elapsed().as_secs_f64() < min_secs {
        fe.lex = fe.lex.min(lex_one(Engine::detect()));
        fe.lex_scalar = fe.lex_scalar.min(lex_one(Engine::Scalar));
        fe.dispatch = fe.dispatch.min(dispatch_one(Engine::detect()));
        fe.dispatch_scalar = fe.dispatch_scalar.min(dispatch_one(Engine::Scalar));
        fe.parse = fe.parse.min(parse_one(Engine::detect()));
        fe.parse_scalar = fe.parse_scalar.min(parse_one(Engine::Scalar));
        iters += 1;
    }
    fe
}

/// `--parse-only`: the front-end microbench alone — fast enough for
/// `scripts/check.sh` to run on every gate pass.
fn parse_only_bench(min_secs: f64) {
    let schema = BonxaiSchema::parse(&data("figure5.bonxai")).expect("schema parses");
    let dfa_schema = bxsd_to_dfa_xsd(&schema.bxsd);
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = DocConfig {
        max_nodes: 500,
        ..DocConfig::default()
    };
    let mut nodes = 0usize;
    let mut texts = Vec::new();
    while nodes < 40_000 {
        let doc = sample_document(&dfa_schema, &cfg, &mut rng).expect("satisfiable");
        nodes += doc.element_count();
        texts.push(xmltree::to_string(&doc));
    }
    let fe = front_end_ns(&texts, nodes, min_secs);
    print_table(
        "Parse-only front end (figure5 corpus)",
        &[
            "engine",
            "nodes",
            "lex only (ns/node)",
            "dispatch (ns/node)",
            "tree parse (ns/node)",
        ],
        &[
            vec![
                Engine::detect().name().to_owned(),
                nodes.to_string(),
                format!("{:.0}", fe.lex),
                format!("{:.0}", fe.dispatch),
                format!("{:.0}", fe.parse),
            ],
            vec![
                "scalar (forced)".into(),
                nodes.to_string(),
                format!("{:.0}", fe.lex_scalar),
                format!("{:.0}", fe.dispatch_scalar),
                format!("{:.0}", fe.parse_scalar),
            ],
        ],
    );
    println!(
        "\nlex gain {:.2}x, dispatch gain {:.2}x, parse gain {:.2}x \
         (scalar/simd, interleaved)",
        fe.lex_scalar / fe.lex,
        fe.dispatch_scalar / fe.dispatch,
        fe.parse_scalar / fe.parse
    );
}

/// One run of the batch engine at a fixed requested job count.
struct BatchRun {
    jobs: usize,
    /// Workers that actually ran: `jobs` clamped to the cores.
    workers: usize,
    ms: f64,
    speedup: f64,
}

/// Batch validation scaling over the figure-5 corpus.
struct BatchScaling {
    cores: usize,
    docs: usize,
    nodes: usize,
    runs: Vec<BatchRun>,
}

fn batch_scaling() -> BatchScaling {
    let schema = BonxaiSchema::parse(&data("figure5.bonxai")).expect("schema parses");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let dfa_schema = bxsd_to_dfa_xsd(&schema.bxsd);
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = DocConfig {
        max_nodes: 500,
        ..DocConfig::default()
    };
    let mut docs = Vec::new();
    let mut nodes = 0usize;
    while nodes < 120_000 {
        let doc = sample_document(&dfa_schema, &cfg, &mut rng).expect("satisfiable");
        nodes += doc.element_count();
        docs.push(doc);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut runs = Vec::new();
    let mut base_ms = 0.0;
    for jobs in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let (violations, ms) = timed(|| {
                compiled
                    .validate_batch_with_jobs(&docs, ValidateOptions::default(), jobs)
                    .iter()
                    .map(|r| r.violations.len())
                    .sum::<usize>()
            });
            assert_eq!(violations, 0, "sampled corpus conforms");
            best = best.min(ms);
        }
        if jobs == 1 {
            base_ms = best;
        }
        runs.push(BatchRun {
            jobs,
            workers: bonxai_core::clamp_jobs(jobs),
            ms: best,
            speedup: base_ms / best,
        });
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.jobs.to_string(),
                r.workers.to_string(),
                format!("{:.1}", r.ms),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Batch validation scaling ({} docs, {} nodes, {} core(s) available)",
            docs.len(),
            nodes,
            cores
        ),
        &["jobs", "workers", "wall ms", "speedup"],
        &rows,
    );
    println!(
        "\nSpeedup is bounded by the available cores: on a {cores}-core \
         host the curve flattens at {cores} worker(s); larger requests are \
         clamped to {cores} worker(s), so those rows re-measure that count."
    );
    BatchScaling {
        cores,
        docs: docs.len(),
        nodes,
        runs,
    }
}

/// One mode's run of the `--mem-probe` subprocess.
struct ProbeResult {
    violations: usize,
    ms: f64,
    peak_rss_mb: f64,
}

/// The streaming-memory measurement: both pipelines over one large
/// on-disk document, each in a fresh subprocess.
struct StreamMemory {
    doc_mb: f64,
    depth: usize,
    tree: ProbeResult,
    stream: ProbeResult,
}

/// Process peak resident set (`VmHWM`) in KiB; 0 where /proc is absent.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Subprocess body for one (mode, schema, document) measurement. Prints
/// a single machine-readable line; the process's `VmHWM` then reflects
/// only this mode's allocations.
fn mem_probe(mode: &str, schema_path: &str, doc_path: &str) {
    let src = std::fs::read_to_string(schema_path).expect("schema file");
    let schema = BonxaiSchema::parse(&src).expect("schema parses");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let baseline_kb = peak_rss_kb();
    let start = std::time::Instant::now();
    let violations = match mode {
        "tree" => {
            let text = std::fs::read_to_string(doc_path).expect("document file");
            let doc = xmltree::parse_document(&text).expect("well-formed");
            compiled.validate(&doc).violations.len()
        }
        "stream" => {
            let file = std::fs::File::open(doc_path).expect("document file");
            let mut reader = XmlReader::from_reader(file);
            compiled
                .validate_stream(&mut reader)
                .expect("well-formed")
                .violations
                .len()
        }
        other => panic!("unknown probe mode {other:?}"),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "RESULT violations={violations} ms={ms:.1} peak_rss_kb={} baseline_kb={baseline_kb}",
        peak_rss_kb()
    );
}

/// Generates a ~`mb` MiB figure5-conforming document on disk and runs
/// the tree and streaming pipelines over it in fresh subprocesses,
/// comparing wall time and peak RSS.
fn streaming_memory(mb: usize) -> StreamMemory {
    let dir = std::env::temp_dir();
    let schema_path = dir.join("bonxai_bench_figure5.bonxai");
    std::fs::write(&schema_path, data("figure5.bonxai")).expect("write schema");
    let doc_path = dir.join("bonxai_bench_big.xml");

    // Content sections nest three deep per chunk, so the document is
    // wide (bytes scale with chunk count) but of constant depth 5 —
    // the streaming frame stack never exceeds 5 entries.
    const CHUNK: &str = "<section title=\"Chapter\">intro <bold>text</bold>\
        <section title=\"Part\">body body body body body body body\
        <section title=\"Detail\">deep deep deep deep deep deep</section>\
        </section></section>\n";
    let depth = 5;
    let target = mb * (1 << 20);
    {
        let file = std::fs::File::create(&doc_path).expect("create big doc");
        let mut w = std::io::BufWriter::new(file);
        w.write_all(b"<document><template/><userstyles/><content>\n")
            .expect("write");
        let mut written = 0usize;
        while written < target {
            w.write_all(CHUNK.as_bytes()).expect("write");
            written += CHUNK.len();
        }
        w.write_all(b"</content></document>\n").expect("write");
    }
    let doc_mb = std::fs::metadata(&doc_path).expect("big doc").len() as f64 / (1 << 20) as f64;

    let probe = |mode: &str| -> ProbeResult {
        let out = std::process::Command::new(std::env::current_exe().expect("self"))
            .args(["--mem-probe", mode])
            .arg(&schema_path)
            .arg(&doc_path)
            .output()
            .expect("probe subprocess runs");
        assert!(
            out.status.success(),
            "probe {mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("RESULT "))
            .expect("probe output");
        let field = |key: &str| -> f64 {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                .expect("probe field")
                .parse()
                .expect("probe number")
        };
        ProbeResult {
            violations: field("violations") as usize,
            ms: field("ms"),
            peak_rss_mb: field("peak_rss_kb") / 1024.0,
        }
    };
    let tree = probe("tree");
    let stream = probe("stream");
    assert_eq!(
        tree.violations, stream.violations,
        "streamed and tree verdicts must agree on the big document"
    );
    let _ = std::fs::remove_file(&doc_path);

    print_table(
        &format!(
            "Peak RSS: streaming vs tree on a {doc_mb:.0} MiB document (figure5, depth {depth})"
        ),
        &["mode", "wall ms", "peak RSS (MiB)"],
        &[
            vec![
                "tree (parse+validate)".into(),
                format!("{:.0}", tree.ms),
                format!("{:.1}", tree.peak_rss_mb),
            ],
            vec![
                "streamed".into(),
                format!("{:.0}", stream.ms),
                format!("{:.1}", stream.peak_rss_mb),
            ],
        ],
    );
    println!(
        "\nExpected shape: the streamed peak is flat in document size \
         (O(depth) frames + a 64 KiB read window), the tree peak grows \
         with it (node arena + strings)."
    );
    StreamMemory {
        doc_mb,
        depth,
        tree,
        stream,
    }
}

fn render_json(results: &[Ablation], batch: &BatchScaling, mem: &StreamMemory) -> String {
    let mut out = String::from("{\n  \"experiment\": \"validation_product_vs_lockstep\",\n");
    out.push_str(
        "  \"lockstep_baseline\": \"pre-product evaluator (two child passes, \
         per-node allocations, unconditional match recording)\",\n",
    );
    out.push_str("  \"schemas\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"schema\": \"{}\", \"rules\": {}, \"product_states\": {}, \
             \"nodes\": {}, \"lockstep_ns_per_node\": {:.2}, \
             \"fallback_ns_per_node\": {:.2}, \
             \"product_ns_per_node\": {:.2}, \"lockstep_nodes_per_sec\": {:.0}, \
             \"product_nodes_per_sec\": {:.0}, \"speedup\": {:.3}, \
             \"fallback_speedup\": {:.3}, \"tree_e2e_ns_per_node\": {:.2}, \
             \"stream_ns_per_node\": {:.2}, \"lex_ns_per_node\": {:.2}, \
             \"dispatch_ns_per_node\": {:.2}, \
             \"parse_ns_per_node\": {:.2}, \"simd\": \"{}\", \
             \"stream_scalar_ns_per_node\": {:.2}, \
             \"lex_scalar_ns_per_node\": {:.2}, \
             \"dispatch_scalar_ns_per_node\": {:.2}, \
             \"parse_scalar_ns_per_node\": {:.2}}}{}\n",
            r.schema,
            r.rules,
            r.product_states,
            r.nodes,
            r.lockstep_ns_per_node,
            r.fallback_ns_per_node,
            r.product_ns_per_node,
            r.lockstep_nodes_per_sec(),
            r.product_nodes_per_sec(),
            r.speedup(),
            r.fallback_speedup(),
            r.tree_e2e_ns_per_node,
            r.stream_ns_per_node,
            r.lex_ns_per_node,
            r.dispatch_ns_per_node,
            r.parse_ns_per_node,
            r.simd,
            r.stream_scalar_ns_per_node,
            r.lex_scalar_ns_per_node,
            r.dispatch_scalar_ns_per_node,
            r.parse_scalar_ns_per_node,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    // The hot-frame layout guard's runtime twin: the compile-time
    // assertion caps these at 64, the JSON records the exact sizes so
    // frame-diet regressions show up in the benchmark diff.
    let (frame_product, frame_lockstep) = bonxai_core::stream_frame_sizes();
    out.push_str(&format!(
        "  \"frames_bytes\": {{\"product\": {frame_product}, \"lockstep\": {frame_lockstep}}},\n",
    ));
    out.push_str(&format!(
        "  \"batch_scaling\": {{\"cores\": {}, \"docs\": {}, \"nodes\": {}, \"runs\": [",
        batch.cores, batch.docs, batch.nodes
    ));
    for (i, r) in batch.runs.iter().enumerate() {
        out.push_str(&format!(
            "{}{{\"jobs\": {}, \"workers\": {}, \"ms\": {:.1}, \"speedup\": {:.3}}}",
            if i == 0 { "" } else { ", " },
            r.jobs,
            r.workers,
            r.ms,
            r.speedup,
        ));
    }
    out.push_str("]},\n");
    out.push_str(&format!(
        "  \"streaming_memory\": {{\"schema\": \"figure5.bonxai\", \
         \"doc_mb\": {:.1}, \"depth\": {}, \
         \"tree_ms\": {:.1}, \"tree_peak_rss_mb\": {:.1}, \
         \"stream_ms\": {:.1}, \"stream_peak_rss_mb\": {:.1}}}\n",
        mem.doc_mb,
        mem.depth,
        mem.tree.ms,
        mem.tree.peak_rss_mb,
        mem.stream.ms,
        mem.stream.peak_rss_mb,
    ));
    out.push_str("}\n");
    out
}

/// Copies the subtree rooted at `src_node` under `dst_parent`.
fn graft(
    src: &Document,
    src_node: xmltree::NodeId,
    dst: &mut Document,
    dst_parent: xmltree::NodeId,
) {
    match src.kind(src_node) {
        xmltree::NodeKind::Text(t) => {
            dst.add_text(dst_parent, t);
        }
        xmltree::NodeKind::Element { name, attributes } => {
            let id = dst.add_element(dst_parent, name);
            for a in attributes {
                dst.set_attribute(id, &a.name, &a.value);
            }
            for &c in src.children(src_node) {
                graft(src, c, dst, id);
            }
        }
    }
}
