//! Implementations of the CLI subcommands.

use std::fs;
use std::process::ExitCode;

use bonxai_core::translate::{Path as TranslatePath, TranslateOptions};
use bonxai_core::{dtd_import, pipeline, BonxaiSchema, ValidateOptions};
use xmltree::Document;

/// A loaded schema in any of the three formalisms.
enum AnySchema {
    Bonxai(BonxaiSchema),
    Xsd(xsd::Xsd),
    Dtd(xmltree::dtd::Dtd),
}

/// Detects the schema formalism from the file extension or, failing
/// that, the content.
fn detect_kind(path: &str, text: &str) -> &'static str {
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".bonxai") {
        "bonxai"
    } else if lower.ends_with(".xsd") {
        "xsd"
    } else if lower.ends_with(".dtd") {
        "dtd"
    } else {
        let head = text.trim_start();
        if head.starts_with("<!") {
            "dtd"
        } else if head.starts_with('<') {
            "xsd"
        } else {
            "bonxai"
        }
    }
}

/// Loads a schema file, detecting the formalism from the extension or,
/// failing that, the content.
fn load_schema(path: &str) -> Result<AnySchema, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match detect_kind(path, &text) {
        "bonxai" => BonxaiSchema::parse(&text)
            .map(AnySchema::Bonxai)
            .map_err(|e| format!("{path}: {e}")),
        "xsd" => xsd::parse_xsd(&text)
            .map(AnySchema::Xsd)
            .map_err(|e| format!("{path}: {e}")),
        _ => xmltree::dtd::parse_dtd(&text)
            .map(AnySchema::Dtd)
            .map_err(|e| format!("{path}: {e}")),
    }
}

fn load_document(path: &str) -> Result<Document, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    xmltree::parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes to `-o <file>` if present in args, else stdout.
fn emit_output(args: &[String], content: &str) -> Result<(), String> {
    match flag_value(args, "-o") {
        Some(path) => fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a == "-o"
            || a == "--root"
            || a == "--seed"
            || a == "--count"
            || a == "--jobs"
            || a == "--format"
            || a == "--deny"
            || a == "--fuzz"
            || a == "--limit"
        {
            skip = true;
            continue;
        }
        // A lone "-" is a positional operand (stdin), not a flag.
        if a.starts_with('-') && a != "-" {
            continue;
        }
        let _ = i;
        out.push(a);
    }
    out
}

/// `--jobs N` (a positive integer) through [`bonxai_core::clamp_jobs`];
/// without the flag, one worker per core.
fn jobs_flag(args: &[String]) -> Result<usize, String> {
    let requested = match flag_value(args, "--jobs") {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--jobs expects a positive integer")?,
        None => 0,
    };
    Ok(bonxai_core::clamp_jobs(requested))
}

/// `--fast` demands the product path that `--lockstep` turns off.
fn check_fast_lockstep(args: &[String], opts: ValidateOptions) -> Result<(), String> {
    if has_flag(args, "--fast") && opts.force_lockstep {
        return Err("--fast and --lockstep are mutually exclusive".into());
    }
    Ok(())
}

/// `--fast` demands the one-lookup-per-node product path; refuse to
/// run if the product exceeded its state budget. The probe compiles
/// the schema; validation reuses it.
fn check_fast_budget(args: &[String], s: &BonxaiSchema) -> Result<(), String> {
    if has_flag(args, "--fast") && s.compiled().product_states().is_none() {
        return Err("--fast: the relevance product exceeds the state budget \
             for this schema (Theorem 9); rerun without --fast"
            .into());
    }
    Ok(())
}

pub fn validate(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let batch = pos.len() > 2 || has_flag(args, "--jobs");
    let (schema_path, doc_paths) = match pos.split_first() {
        Some((schema, docs)) if batch || docs.len() == 1 => (schema, docs),
        None if batch => {
            return Err(
                "usage: bonxai validate <schema> <document.xml>... [--jobs N] [--lockstep]".into(),
            )
        }
        _ => {
            return Err("usage: bonxai validate <schema> <document.xml>... \
                 [--jobs N] [--rules] [--matches] [--fast] [--lockstep] [--stats]"
                .into())
        }
    };
    if doc_paths.is_empty() {
        return Err("batch validation needs at least one document".into());
    }
    let schema = load_schema(schema_path)?;
    if has_flag(args, "--stats") {
        // One compile through a session cache; the per-stage counters
        // show what the structural-hash memo shared within the compile
        // (misses = constructions actually run).
        if let AnySchema::Bonxai(s) = &schema {
            let mut session = pipeline::SchemaCompiler::new();
            let _ = session.compile(&s.bxsd);
            let st = session.last_stats();
            println!(
                "cache stats (hits/misses): raw {}/{}  min {}/{}  product {}/{}  content {}/{}",
                st.raw.hits,
                st.raw.misses,
                st.min.hits,
                st.min.misses,
                st.product.hits,
                st.product.misses,
                st.content.hits,
                st.content.misses,
            );
        } else {
            println!("cache stats: (BonXai schemas only)");
        }
    }
    if batch {
        return validate_many(args, schema, doc_paths);
    }
    let doc_path = &doc_paths[0];
    let show_rules = has_flag(args, "--rules");
    let show_matches = has_flag(args, "--matches");
    let opts = ValidateOptions {
        record_matches: show_rules || show_matches,
        force_lockstep: has_flag(args, "--lockstep"),
    };
    check_fast_lockstep(args, opts)?;
    if has_flag(args, "--stream") {
        return validate_stream(args, &schema, doc_path, opts);
    }
    let doc = load_document(doc_path)?;

    let valid = match &schema {
        AnySchema::Bonxai(s) => {
            check_fast_budget(args, s)?;
            let report = s.validate_with(&doc, opts);
            for v in report.violations() {
                println!("violation: {}", v.kind);
            }
            for v in &report.constraints {
                println!("constraint violation: {v}");
            }
            if show_rules {
                println!("--- relevant rules ---");
                for node in doc.iter_elements() {
                    let m = &report.structure.matches[&node];
                    let rule = m
                        .relevant
                        .map(|i| s.ast.rules[s.rule_source[i]].pattern.source.clone())
                        .unwrap_or_else(|| "(unconstrained)".to_owned());
                    println!("  /{} ← {}", doc.anc_str(node).join("/"), rule);
                }
            }
            if show_matches {
                println!("--- matching rules ---");
                for node in doc.iter_elements() {
                    let m = &report.structure.matches[&node];
                    let list = m
                        .matching
                        .iter()
                        .map(|&i| s.ast.rules[s.rule_source[i]].pattern.source.clone())
                        .collect::<Vec<_>>()
                        .join(", ");
                    println!("  /{} ← [{}]", doc.anc_str(node).join("/"), list);
                }
            }
            report.is_valid()
        }
        AnySchema::Xsd(x) => {
            let report = xsd::validate(x, &doc);
            for v in &report.violations {
                println!("violation: {}", v.kind);
            }
            report.is_valid()
        }
        AnySchema::Dtd(d) => {
            let violations = xmltree::dtd::validate(d, &doc);
            for v in &violations {
                println!("violation: {}", v.kind);
            }
            violations.is_empty()
        }
    };
    if valid {
        println!("valid");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("INVALID");
        Ok(ExitCode::FAILURE)
    }
}

/// `validate --stream`: validates the document in O(depth) memory by
/// driving the relevance product over XML events, never building a tree.
/// The document operand may be `-` for stdin. Produces the exact report
/// tree validation would (same node order, same violations).
fn validate_stream(
    args: &[String],
    schema: &AnySchema,
    doc_path: &str,
    opts: ValidateOptions,
) -> Result<ExitCode, String> {
    let AnySchema::Bonxai(s) = schema else {
        return Err("--stream supports BonXai schemas only".into());
    };
    if opts.record_matches {
        return Err(
            "--stream cannot print per-element rules (they need the document tree); \
             drop --rules/--matches"
                .into(),
        );
    }
    if !s.ast.constraints.is_empty() {
        return Err(
            "--stream cannot check key/unique constraints (they need the document tree); \
             validate without --stream"
                .into(),
        );
    }
    check_fast_budget(args, s)?;
    let compiled = s.compiled();
    let report = if doc_path == "-" {
        let stdin = std::io::stdin();
        let mut reader = xmltree::XmlReader::from_reader(stdin.lock());
        compiled.validate_stream_with(&mut reader, opts)
    } else {
        let file = fs::File::open(doc_path).map_err(|e| format!("cannot read {doc_path}: {e}"))?;
        let mut reader = xmltree::XmlReader::from_reader(file);
        compiled.validate_stream_with(&mut reader, opts)
    }
    .map_err(|e| format!("{doc_path}: {e}"))?;
    for v in &report.violations {
        println!("violation: {}", v.kind);
    }
    if report.is_valid() {
        println!("valid");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("INVALID");
        Ok(ExitCode::FAILURE)
    }
}

/// `validate <schema> <doc.xml>... [--jobs N]`: multi-file batch mode.
/// Every file is validated in one streaming pass, `--jobs` files at a
/// time; per-file results are printed in input order (identical
/// output for every `--jobs` value) followed by a summary line. Exit
/// status is FAILURE if any file is invalid, unreadable, or malformed.
fn validate_many(
    args: &[String],
    schema: AnySchema,
    doc_paths: &[&String],
) -> Result<ExitCode, String> {
    let AnySchema::Bonxai(s) = schema else {
        return Err("batch validation supports BonXai schemas only".into());
    };
    if has_flag(args, "--rules") || has_flag(args, "--matches") {
        return Err(
            "batch validation cannot print per-element rules (they need the document \
             tree); drop --rules/--matches"
                .into(),
        );
    }
    if has_flag(args, "--stream") {
        return Err("batch validation always streams; drop --stream".into());
    }
    if !s.ast.constraints.is_empty() {
        return Err(
            "batch validation cannot check key/unique constraints (they need the \
             document tree); validate files one at a time"
                .into(),
        );
    }
    let opts = ValidateOptions {
        record_matches: false,
        force_lockstep: has_flag(args, "--lockstep"),
    };
    check_fast_lockstep(args, opts)?;
    check_fast_budget(args, &s)?;
    let jobs = jobs_flag(args)?;
    let paths: Vec<&str> = doc_paths.iter().map(|p| p.as_str()).collect();
    let reports = s.compiled().validate_paths(&paths, opts, jobs);
    let (mut n_valid, mut n_invalid, mut n_errors) = (0usize, 0usize, 0usize);
    for fr in &reports {
        match &fr.report {
            Ok(report) => {
                for v in &report.violations {
                    println!("{}: violation: {}", fr.path, v.kind);
                }
                if report.is_valid() {
                    n_valid += 1;
                    println!("{}: valid", fr.path);
                } else {
                    n_invalid += 1;
                    println!("{}: INVALID", fr.path);
                }
            }
            Err(msg) => {
                n_errors += 1;
                println!("{}: error: {msg}", fr.path);
            }
        }
    }
    println!(
        "{} files: {n_valid} valid, {n_invalid} invalid, {n_errors} errors",
        reports.len()
    );
    if n_invalid == 0 && n_errors == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

pub fn to_xsd(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai to-xsd <schema.bonxai> [-o out.xsd]".into());
    };
    let AnySchema::Bonxai(schema) = load_schema(schema_path)? else {
        return Err("to-xsd expects a BonXai schema".into());
    };
    let opts = TranslateOptions::default();
    let (x, path) = pipeline::bonxai_to_xsd(&schema, &opts);
    let text =
        xsd::emit_xsd(&x, schema.ast.target_namespace.as_deref()).map_err(|e| e.to_string())?;
    eprintln!("translated via {} ({} types)", path_name(path), x.n_types());
    emit_output(args, &text)?;
    Ok(ExitCode::SUCCESS)
}

pub fn from_xsd(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai from-xsd <schema.xsd> [-o out.bonxai]".into());
    };
    let AnySchema::Xsd(x) = load_schema(schema_path)? else {
        return Err("from-xsd expects an XML Schema".into());
    };
    let opts = TranslateOptions::default();
    let (schema, path) = pipeline::xsd_to_bonxai(&x, &opts);
    eprintln!(
        "translated via {} ({} rules)",
        path_name(path),
        schema.bxsd.n_rules()
    );
    emit_output(args, &schema.to_source())?;
    Ok(ExitCode::SUCCESS)
}

pub fn from_dtd(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai from-dtd <schema.dtd> --root <name> [-o out.bonxai]".into());
    };
    let root = flag_value(args, "--root")
        .ok_or("from-dtd requires --root <name> (DTDs do not declare roots)")?;
    let AnySchema::Dtd(dtd) = load_schema(schema_path)? else {
        return Err("from-dtd expects a DTD".into());
    };
    let schema = dtd_import::dtd_to_bonxai(&dtd, &[root.as_str()]).map_err(|e| e.to_string())?;
    emit_output(args, &schema.to_source())?;
    Ok(ExitCode::SUCCESS)
}

pub fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai analyze <schema>".into());
    };
    let opts = TranslateOptions::default();
    let dfa_schema = match load_schema(schema_path)? {
        AnySchema::Bonxai(s) => {
            println!("formalism:       BonXai");
            println!("rules:           {}", s.bxsd.n_rules());
            println!("size:            {}", s.bxsd.size());
            println!("element names:   {}", s.bxsd.ename.len());
            println!("constraints:     {}", s.ast.constraints.len());
            match bonxai_core::translate::classify_bxsd(&s.bxsd) {
                Some((_, k)) => println!("fragment:        suffix-based (k = {k})"),
                None => println!("fragment:        general (not suffix-based)"),
            }
            bonxai_core::translate::bxsd_to_dfa_xsd(&s.bxsd)
        }
        AnySchema::Xsd(x) => {
            println!("formalism:       XML Schema");
            println!("types:           {}", x.n_types());
            println!("size:            {}", x.size());
            println!("element names:   {}", x.ename.len());
            let minimized = xsd::minimize_types(&x);
            println!("minimal types:   {}", minimized.n_types());
            match bonxai_core::lint::xsd_fragment(&x) {
                Some(k) => println!("fragment:        suffix-based (k = {k})"),
                None => println!("fragment:        general (not suffix-based)"),
            }
            bonxai_core::translate::xsd_to_dfa_xsd(&x)
        }
        AnySchema::Dtd(d) => {
            println!("formalism:       DTD");
            println!("elements:        {}", d.elements.len());
            println!("size:            {}", d.size());
            println!("fragment:        1-suffix (DTDs are context-insensitive)");
            return Ok(ExitCode::SUCCESS);
        }
    };
    match xsd::minimal_k(&dfa_schema, 5, 2_000_000) {
        Some(k) => println!("k-suffix:        yes, minimal k = {k}"),
        None => println!("k-suffix:        no (for k ≤ 5)"),
    }
    println!("type automaton:  {} states", dfa_schema.n_states());
    let _ = opts;
    Ok(ExitCode::SUCCESS)
}

pub fn sample(args: &[String]) -> Result<ExitCode, String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai sample <schema> [--seed N] [--count N]".into());
    };
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(0);
    let count: usize = flag_value(args, "--count")
        .map(|s| s.parse().map_err(|_| "bad --count"))
        .transpose()?
        .unwrap_or(1);
    let dtd_root = flag_value(args, "--root");
    let dfa_schema = to_dfa_schema(load_schema(schema_path)?, dtd_root.as_deref())?;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..count {
        match bonxai_gen::sample_document(&dfa_schema, &bonxai_gen::DocConfig::default(), &mut rng)
        {
            Some(doc) => print!("{}", xmltree::to_string_pretty(&doc)),
            None => return Err("the schema admits no finite conforming document".into()),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Converts any loaded schema to its DFA-based XSD form for comparison.
/// For DTDs (which declare no roots), `dtd_root` names the root; by
/// default every declared element may be a root.
fn to_dfa_schema(schema: AnySchema, dtd_root: Option<&str>) -> Result<xsd::DfaXsd, String> {
    Ok(match schema {
        AnySchema::Bonxai(s) => bonxai_core::translate::bxsd_to_dfa_xsd(&s.bxsd),
        AnySchema::Xsd(x) => bonxai_core::translate::xsd_to_dfa_xsd(&x),
        AnySchema::Dtd(d) => {
            let roots: Vec<String> = match dtd_root {
                Some(r) => vec![r.to_owned()],
                None => d.elements.keys().cloned().collect(),
            };
            let roots: Vec<&str> = roots.iter().map(String::as_str).collect();
            let s = dtd_import::dtd_to_bonxai(&d, &roots).map_err(|e| e.to_string())?;
            bonxai_core::translate::bxsd_to_dfa_xsd(&s.bxsd)
        }
    })
}

/// Converts any loaded schema to its BXSD core for semantic analysis.
/// XSDs go through the paper's XSD→BonXai translation; DTDs through the
/// Figure 2 import (with `dtd_root`, or every declared element, as root).
fn to_bxsd(schema: AnySchema, dtd_root: Option<&str>) -> Result<bonxai_core::Bxsd, String> {
    Ok(match schema {
        AnySchema::Bonxai(s) => s.bxsd,
        AnySchema::Xsd(x) => {
            pipeline::xsd_to_bonxai(&x, &TranslateOptions::default())
                .0
                .bxsd
        }
        AnySchema::Dtd(d) => {
            let roots: Vec<String> = match dtd_root {
                Some(r) => vec![r.to_owned()],
                None => d.elements.keys().cloned().collect(),
            };
            let roots: Vec<&str> = roots.iter().map(String::as_str).collect();
            dtd_import::dtd_to_bonxai(&d, &roots)
                .map_err(|e| e.to_string())?
                .bxsd
        }
    })
}

/// JSON string literal with the escapes RFC 8259 requires.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The deterministic (timing-free) part of a diff report as JSON —
/// byte-identical for any `--jobs` value, diffable in CI.
fn render_diff_json(a: &str, b: &str, report: &bonxai_core::DiffReport, limit: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"a\": {},\n", json_string(a)));
    out.push_str(&format!("  \"b\": {},\n", json_string(b)));
    out.push_str(&format!(
        "  \"evolution\": {},\n",
        json_string(report.evolution.as_str())
    ));
    out.push_str(&format!("  \"a_only\": {},\n", report.a_only));
    out.push_str(&format!("  \"b_only\": {},\n", report.b_only));
    out.push_str(&format!(
        "  \"stats\": {{ \"contexts_a\": {}, \"contexts_b\": {}, \"pairs\": {}, \"dropped\": {} }},\n",
        report.stats.contexts_a, report.stats.contexts_b, report.stats.pairs, report.stats.dropped
    ));
    let shown = &report.witnesses[..report.witnesses.len().min(limit)];
    if shown.is_empty() {
        out.push_str("  \"witnesses\": []\n");
    } else {
        out.push_str("  \"witnesses\": [\n");
        for (i, w) in shown.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"direction\": {},\n",
                json_string(w.direction.as_str())
            ));
            out.push_str(&format!(
                "      \"path\": {},\n",
                json_string(&w.path_display())
            ));
            out.push_str(&format!(
                "      \"kind\": {},\n",
                json_string(w.kind.as_str())
            ));
            out.push_str(&format!(
                "      \"message\": {},\n",
                json_string(&w.message)
            ));
            out.push_str(&format!(
                "      \"document\": {}\n",
                json_string(&w.document)
            ));
            out.push_str(if i + 1 < shown.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

/// The human-readable diff report.
fn render_diff_text(a: &str, b: &str, report: &bonxai_core::DiffReport, limit: usize) -> String {
    let mut out = String::new();
    match report.evolution {
        bonxai_core::Evolution::Equivalent => {
            out.push_str("equivalent: the schemas accept the same documents\n");
        }
        ev => {
            out.push_str(&format!(
                "NOT equivalent ({}): {} document(s) only in {a}, {} only in {b}\n",
                ev.as_str(),
                report.a_only,
                report.b_only
            ));
        }
    }
    let shown = &report.witnesses[..report.witnesses.len().min(limit)];
    for w in shown {
        let schema = match w.direction {
            bonxai_core::Direction::OnlyInA => a,
            bonxai_core::Direction::OnlyInB => b,
        };
        out.push_str(&format!(
            "\n[{}] at {} ({}): {}\n  valid only against {schema}:\n  {}\n",
            w.direction.as_str(),
            w.path_display(),
            w.kind.as_str(),
            w.message,
            w.document
        ));
    }
    if report.witnesses.len() > shown.len() {
        out.push_str(&format!(
            "\n({} further witness(es) suppressed; raise --limit to see them)\n",
            report.witnesses.len() - shown.len()
        ));
    }
    if report.stats.dropped > 0 {
        out.push_str(&format!(
            "note: {} unverified candidate(s) dropped\n",
            report.stats.dropped
        ));
    }
    out
}

/// `diff <schema1> <schema2>`: decide inclusion/equivalence of the two
/// schemas' document sets via the joint ancestor-context construction,
/// printing verified witness documents that validate against exactly one
/// of them. Exit status: 0 = equivalent, 1 = the schemas differ,
/// 2 = error.
pub fn diff(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [a_path, b_path] = pos.as_slice() else {
        return Err(
            "usage: bonxai diff <schema1> <schema2> [--format text|json] [--limit N] \
             [--jobs N] [--no-cache] [--root <name>]"
                .into(),
        );
    };
    let dtd_root = flag_value(args, "--root");
    let a = to_bxsd(load_schema(a_path)?, dtd_root.as_deref())?;
    let b = to_bxsd(load_schema(b_path)?, dtd_root.as_deref())?;
    let format = flag_value(args, "--format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (text|json)"));
    }
    let limit = match flag_value(args, "--limit") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| "--limit expects a non-negative integer")?,
        None => 10,
    };
    let jobs = jobs_flag(args)?;
    let opts = bonxai_core::AnalysisOptions {
        jobs,
        ..bonxai_core::AnalysisOptions::default()
    };
    let mut cache = relang::AutomataCache::new();
    let cache = (!has_flag(args, "--no-cache")).then_some(&mut cache);
    let report = bonxai_core::diff_bxsd(&a, &b, &opts, cache).map_err(|e| e.to_string())?;
    let rendered = if format == "json" {
        render_diff_json(a_path, b_path, &report, limit)
    } else {
        render_diff_text(a_path, b_path, &report, limit)
    };
    print!("{rendered}");
    if report.equivalent() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// `sat <schema>`: whole-schema satisfiability — does any document
/// conform? Prints a minimal conforming document when one exists and
/// every reachable-but-unsatisfiable rule context. Exit status:
/// 0 = satisfiable, 1 = unsatisfiable, 2 = error.
pub fn sat(args: &[String]) -> Result<ExitCode, String> {
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai sat <schema> [--root <name>]".into());
    };
    let dtd_root = flag_value(args, "--root");
    let bxsd = to_bxsd(load_schema(schema_path)?, dtd_root.as_deref())?;
    let mut cache = relang::AutomataCache::new();
    let report = bonxai_core::analyze_sat(
        &bxsd,
        &bonxai_core::AnalysisOptions::default(),
        Some(&mut cache),
    )
    .map_err(|e| e.to_string())?;
    for u in &report.unsat_rules {
        println!(
            "unsatisfiable in context: rule {} at /{}",
            u.rule + 1,
            u.path.join("/")
        );
    }
    match &report.witness {
        Some(doc) => {
            println!("satisfiable; minimal conforming document:");
            print!("{doc}");
            if !doc.ends_with('\n') {
                println!();
            }
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("UNSATISFIABLE: no document conforms to {schema_path}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `check <schema>`: parse, then run the cheap structural lints
/// (undefined references, UPA, vacuous content models) and report every
/// problem with its source span. Exit status is nonzero on any
/// error-level finding — not just the first, as a plain parse would be.
pub fn check(args: &[String]) -> Result<ExitCode, String> {
    use bonxai_core::lint::{self, LintOptions, Severity};
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err("usage: bonxai check <schema>".into());
    };
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let opts = LintOptions {
        structural_only: true,
        ..LintOptions::default()
    };
    let (report, ok_line) = match detect_kind(schema_path, &text) {
        "bonxai" => {
            let report =
                lint::lint_source(&text, &opts).map_err(|e| format!("{schema_path}: {e}"))?;
            let ast = bonxai_core::lang::parse_schema(&text).expect("parsed above");
            (
                report,
                format!("OK: BonXai schema, {} rules", ast.rules.len()),
            )
        }
        "xsd" => {
            let x = xsd::parse_xsd_unchecked(&text).map_err(|e| format!("{schema_path}: {e}"))?;
            let report = lint::lint_xsd(&x, &opts);
            (report, format!("OK: XML Schema, {} types", x.n_types()))
        }
        _ => {
            let d = xmltree::dtd::parse_dtd(&text).map_err(|e| format!("{schema_path}: {e}"))?;
            (
                bonxai_core::lint::LintReport::default(),
                format!("OK: DTD, {} elements", d.elements.len()),
            )
        }
    };
    if report.diagnostics.is_empty() {
        println!("{ok_line}");
        return Ok(ExitCode::SUCCESS);
    }
    print!("{}", lint::render_text(&report, schema_path));
    if report.max_severity() >= Some(Severity::Error) {
        Ok(ExitCode::FAILURE)
    } else {
        println!("{ok_line}");
        Ok(ExitCode::SUCCESS)
    }
}

/// Lints one schema file, sharing `cache` across the semantic checks.
fn lint_one(
    schema_path: &str,
    opts: &bonxai_core::lint::LintOptions,
    cache: &mut relang::AutomataCache,
) -> Result<bonxai_core::lint::LintReport, String> {
    use bonxai_core::lint;
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    match detect_kind(schema_path, &text) {
        "bonxai" => lint::lint_source_with(&text, opts, Some(cache))
            .map_err(|e| format!("{schema_path}: {e}")),
        "xsd" => {
            let x = xsd::parse_xsd_unchecked(&text).map_err(|e| format!("{schema_path}: {e}"))?;
            Ok(lint::lint_xsd(&x, opts))
        }
        _ => {
            // DTDs have no ancestor patterns of their own: convert with
            // every declared element as a root, then lint the result.
            let d = xmltree::dtd::parse_dtd(&text).map_err(|e| format!("{schema_path}: {e}"))?;
            let roots: Vec<&str> = d.elements.keys().map(String::as_str).collect();
            let s = dtd_import::dtd_to_bonxai(&d, &roots).map_err(|e| e.to_string())?;
            Ok(lint::lint_ast_with(&s.ast, opts, Some(cache)))
        }
    }
}

/// `lint <schema>`: the full static-analysis pass — dead and unreachable
/// rules, UPA violations with witnesses, vacuous content, unconstrained
/// elements, and (with --notes) fragment/blow-up advisories. Exit status
/// is nonzero when a finding reaches the --deny level (default: error).
///
/// `lint <dir>` lints every `.bonxai` / `.xsd` / `.dtd` file under the
/// directory (sorted, non-recursive), `--jobs` schemas at a time;
/// output is concatenated in path order and byte-identical for every
/// `--jobs` value.
pub fn lint(args: &[String]) -> Result<ExitCode, String> {
    use bonxai_core::lint::{self, LintOptions, Severity};
    let pos = positional(args);
    let [schema_path] = pos.as_slice() else {
        return Err(
            "usage: bonxai lint <schema|dir> [--format text|json] [--deny note|warning|error] \
             [--notes] [--jobs N]"
                .into(),
        );
    };
    let format = flag_value(args, "--format").unwrap_or_else(|| "text".to_string());
    if format != "text" && format != "json" {
        return Err(format!("--format expects text or json, got {format:?}"));
    }
    let deny: Severity = match flag_value(args, "--deny") {
        Some(s) => s.parse()?,
        None => Severity::Error,
    };
    let opts = LintOptions {
        include_notes: has_flag(args, "--notes") || deny == Severity::Note,
        ..LintOptions::default()
    };
    if fs::metadata(schema_path)
        .map(|m| m.is_dir())
        .unwrap_or(false)
    {
        return lint_dir(schema_path, &format, deny, &opts, args);
    }
    let mut cache = relang::AutomataCache::new();
    let report = lint_one(schema_path, &opts, &mut cache)?;
    match format.as_str() {
        "json" => print!("{}", lint::render_json(&report, schema_path)),
        _ => print!("{}", lint::render_text(&report, schema_path)),
    }
    if report.max_severity() >= Some(deny) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Multi-schema lint: every schema in `dir`, analyzed in parallel on the
/// batch pool. Each worker job owns its own [`relang::AutomataCache`]
/// (shared DFAs within a schema; the cache is not `Sync` by design), and
/// rendering happens on the calling thread in path order, so the bytes
/// printed are independent of worker count and scheduling.
fn lint_dir(
    dir: &str,
    format: &str,
    deny: bonxai_core::lint::Severity,
    opts: &bonxai_core::lint::LintOptions,
    args: &[String],
) -> Result<ExitCode, String> {
    use bonxai_core::lint;
    let jobs = jobs_flag(args)?;
    let mut files: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let ext = path.extension()?.to_str()?.to_ascii_lowercase();
            if path.is_file() && matches!(ext.as_str(), "bonxai" | "xsd" | "dtd") {
                Some(path.display().to_string())
            } else {
                None
            }
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .bonxai/.xsd/.dtd schemas in {dir}"));
    }
    let results: Vec<(String, Result<lint::LintReport, String>)> =
        bonxai_core::map_indexed(files, jobs, |path| {
            let mut cache = relang::AutomataCache::new();
            let report = lint_one(&path, opts, &mut cache);
            (path, report)
        });
    let mut failed = false;
    let mut rendered = Vec::with_capacity(results.len());
    for (path, result) in &results {
        match result {
            Err(e) => {
                failed = true;
                eprintln!("{e}");
            }
            Ok(report) => {
                if report.max_severity() >= Some(deny) {
                    failed = true;
                }
                rendered.push(match format {
                    "json" => lint::render_json(report, path),
                    _ => lint::render_text(report, path),
                });
            }
        }
    }
    if format == "json" {
        // A JSON array of the per-file report objects, each reindented
        // two spaces so the stream stays one valid document.
        let mut out = String::from("[\n");
        for (i, r) in rendered.iter().enumerate() {
            for line in r.trim_end().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            if i + 1 < rendered.len() {
                out.truncate(out.trim_end().len());
                out.push_str(",\n");
            }
        }
        out.push_str("]\n");
        print!("{out}");
    } else {
        for r in &rendered {
            print!("{r}");
        }
    }
    if failed {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn path_name(p: TranslatePath) -> String {
    match p {
        TranslatePath::Fast(k) => format!("the k-suffix fast path (k = {k})"),
        TranslatePath::General => "the general algorithm".to_owned(),
    }
}

/// `conform <dir>`: the differential conformance driver. Every
/// `valid_*.xml` / `invalid_*.xml` under `dir` (one corpus directory
/// with a `schema.bonxai`, or a directory of such directories) runs
/// through the oracle and all four fast validation paths under every
/// lexer engine and byte source; any disagreement, or a verdict that
/// contradicts the filename, fails the run. With `--fuzz N` it then
/// fuzzes the stack for `N` iterations (`--seed S`, default 0),
/// treating any panic or divergence as a failure and printing the
/// shrunk reproducer.
pub fn conform(args: &[String]) -> Result<ExitCode, String> {
    use bonxai_core::conformance;
    let pos = positional(args);
    let [dir] = pos.as_slice() else {
        return Err("usage: bonxai conform <dir> [--fuzz N] [--seed S]".into());
    };
    let mut suites: Vec<std::path::PathBuf> = Vec::new();
    let root = std::path::Path::new(dir.as_str());
    if root.join("schema.bonxai").exists() {
        suites.push(root.to_path_buf());
    } else {
        let mut subdirs: Vec<_> = fs::read_dir(root)
            .map_err(|e| format!("cannot read {dir}: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join("schema.bonxai").exists())
            .collect();
        subdirs.sort();
        suites.extend(subdirs);
    }
    if suites.is_empty() {
        return Err(format!(
            "{dir}: no schema.bonxai found (directly or in subdirectories)"
        ));
    }
    let mut cases = 0usize;
    let mut failures = 0usize;
    for suite in &suites {
        let schema_path = suite.join("schema.bonxai");
        let text = fs::read_to_string(&schema_path)
            .map_err(|e| format!("cannot read {}: {e}", schema_path.display()))?;
        let schema = bonxai_core::BonxaiSchema::parse(&text)
            .map_err(|e| format!("{}: {e}", schema_path.display()))?;
        let mut docs: Vec<_> = fs::read_dir(suite)
            .map_err(|e| format!("cannot read {}: {e}", suite.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        docs.sort();
        for doc in docs {
            let name = doc
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let expect = if name.starts_with("valid_") {
                Some(true)
            } else if name.starts_with("invalid_") {
                Some(false)
            } else {
                None
            };
            let input = fs::read_to_string(&doc)
                .map_err(|e| format!("cannot read {}: {e}", doc.display()))?;
            let outcome = conformance::check(&schema.bxsd, &input, true);
            cases += 1;
            let verdict = outcome.verdict();
            let mut bad = Vec::new();
            for d in &outcome.divergences {
                bad.push(format!("divergence {d}"));
            }
            match (expect, verdict) {
                (Some(want), Some(got)) if want != got => bad.push(format!(
                    "all paths agree on {} but the filename expects {}",
                    if got { "valid" } else { "invalid" },
                    if want { "valid" } else { "invalid" },
                )),
                (_, None) => bad.push("document is malformed, not a conformance verdict".into()),
                _ => {}
            }
            if bad.is_empty() {
                println!(
                    "ok   {} [{}]",
                    doc.display(),
                    if verdict == Some(true) {
                        "valid"
                    } else {
                        "invalid"
                    },
                );
            } else {
                failures += 1;
                println!("FAIL {}", doc.display());
                for b in &bad {
                    println!("     {b}");
                }
            }
        }
    }
    let fuzz_n: usize = match flag_value(args, "--fuzz") {
        Some(s) => s.parse().map_err(|_| "--fuzz expects an iteration count")?,
        None => 0,
    };
    if fuzz_n > 0 {
        let seed: u64 = match flag_value(args, "--seed") {
            Some(s) => s.parse().map_err(|_| "--seed expects an integer")?,
            None => 0,
        };
        // Panics are a fuzz signal, caught and reported by the harness;
        // silence the default hook's backtrace spam while it runs.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let vreport = bonxai_gen::fuzz_validation(seed, fuzz_n);
        let dreport = bonxai_gen::fuzz_dtd(seed, fuzz_n);
        let ereport = bonxai_gen::fuzz_edits(seed, fuzz_n);
        std::panic::set_hook(hook);
        for (target, report) in [
            ("validation", &vreport),
            ("dtd", &dreport),
            ("edit-replay", &ereport),
        ] {
            println!(
                "fuzz {target}: {} iterations (seed {seed}): {} malformed, {} valid, {} invalid, {} finding(s)",
                report.iterations, report.rejected, report.valid, report.invalid,
                report.findings.len(),
            );
            for f in &report.findings {
                failures += 1;
                println!("FAIL fuzz {target} iteration {}", f.iteration);
                if let Some(p) = &f.panic {
                    println!("     panic: {p}");
                }
                for d in &f.divergences {
                    println!("     divergence {d}");
                }
                println!("     reproducer: {:?}", f.shrunk);
            }
        }
    }
    println!(
        "{cases} corpus case(s), {failures} failure(s){}",
        if fuzz_n > 0 {
            " (including fuzz findings)"
        } else {
            ""
        },
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
