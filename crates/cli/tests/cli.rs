//! End-to-end tests of the `bonxai` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn data(name: &str) -> String {
    let root: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", ".."].iter().collect();
    root.join("data").join(name).to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonxai"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn validate_accepts_figure1_under_all_schemas() {
    for schema in [
        "figure2.dtd",
        "figure3.xsd",
        "figure4.bonxai",
        "figure5.bonxai",
    ] {
        let out = run(&["validate", &data(schema), &data("figure1_document.xml")]);
        assert!(out.status.success(), "{schema}: {}", stdout(&out));
        assert!(stdout(&out).contains("valid"));
    }
}

#[test]
fn validate_rejects_and_reports() {
    let tmp = std::env::temp_dir().join("bonxai_cli_bad.xml");
    std::fs::write(&tmp, "<document><content/></document>").expect("writes");
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        tmp.to_str().expect("utf8"),
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("INVALID"), "{text}");
    assert!(text.contains("violation"), "{text}");
}

#[test]
fn validate_batch_reports_every_file_in_input_order() {
    let dir = std::env::temp_dir().join("bonxai_cli_batch");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let malformed = dir.join("malformed.xml");
    std::fs::write(&malformed, "<document><content>").expect("writes");
    let missing = dir.join("missing.xml");
    let _ = std::fs::remove_file(&missing);
    let (valid, malformed, missing) = (
        data("figure1_document.xml"),
        malformed.to_str().expect("utf8").to_owned(),
        missing.to_str().expect("utf8").to_owned(),
    );
    let schema = data("figure5.bonxai");
    let batch = |extra: &[&str]| {
        let mut args = vec!["validate", &schema, &missing, &valid, &malformed, &valid];
        args.extend_from_slice(extra);
        run(&args)
    };
    let one = batch(&["--jobs", "1"]);
    assert_eq!(one.status.code(), Some(1), "{}", stdout(&one));
    let text = stdout(&one);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "{text}");
    assert!(
        lines[0].starts_with(&format!("{missing}: error: cannot read {missing}")),
        "{text}"
    );
    assert_eq!(lines[1], format!("{valid}: valid"));
    assert!(
        lines[2].starts_with(&format!("{malformed}: error: ")),
        "{text}"
    );
    assert_eq!(lines[3], format!("{valid}: valid"));
    assert_eq!(lines[4], "4 files: 2 valid, 0 invalid, 2 errors");

    let two = batch(&["--jobs", "2"]);
    assert_eq!(two.status.code(), Some(1));
    assert_eq!(stdout(&two), text);

    let stats = batch(&["--stats"]);
    assert_eq!(stats.status.code(), Some(1));
    let stats_text = stdout(&stats);
    let (first, rest) = stats_text.split_once('\n').expect("several lines");
    assert!(
        first.starts_with("cache stats (hits/misses): "),
        "{stats_text}"
    );
    assert_eq!(rest, text);
}

#[test]
fn validate_rules_mode_prints_relevant_rules() {
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--rules",
    ]);
    let text = stdout(&out);
    assert!(text.contains("relevant rules"), "{text}");
    assert!(text.contains("template//section"), "{text}");
}

#[test]
fn validate_fast_and_lockstep_agree() {
    for extra in [&["--fast"][..], &["--lockstep"][..]] {
        let mut args = vec!["validate"];
        let schema = data("figure5.bonxai");
        let doc = data("figure1_document.xml");
        args.push(&schema);
        args.push(&doc);
        args.extend_from_slice(extra);
        let out = run(&args);
        assert!(out.status.success(), "{extra:?}: {}", stdout(&out));
        assert!(stdout(&out).contains("valid"), "{extra:?}");
    }
    // mutually exclusive
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--fast",
        "--lockstep",
    ]);
    assert!(!out.status.success());
}

#[test]
fn validate_matches_mode_prints_all_matching_rules() {
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--matches",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("matching rules"), "{text}");
    // every element line shows its matching-rule set
    assert!(
        text.lines()
            .any(|l| l.contains("/document/template/section ") && l.contains("← [")),
        "{text}"
    );
}

#[test]
fn validate_stream_agrees_with_tree_validation() {
    // valid document: same verdict from file and from stdin
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--stream",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("valid"));

    let xml = std::fs::read(data("figure1_document.xml")).expect("reads");
    let out = {
        use std::io::Write;
        use std::process::Stdio;
        let mut child = Command::new(env!("CARGO_BIN_EXE_bonxai"))
            .args(["validate", &data("figure5.bonxai"), "-", "--stream"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .expect("piped")
            .write_all(&xml)
            .expect("writes");
        child.wait_with_output().expect("binary exits")
    };
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("valid"));

    // invalid document: identical violation lines, streamed and not
    let tmp = std::env::temp_dir().join("bonxai_cli_stream_bad.xml");
    std::fs::write(&tmp, "<document><content><zzz/>text</content></document>").expect("writes");
    let tmp = tmp.to_str().expect("utf8");
    let tree = run(&["validate", &data("figure5.bonxai"), tmp]);
    let streamed = run(&["validate", &data("figure5.bonxai"), tmp, "--stream"]);
    assert!(!streamed.status.success());
    assert_eq!(stdout(&streamed), stdout(&tree));
}

#[test]
fn validate_stream_flag_conflicts_are_errors() {
    let args_base = [
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--stream",
    ];
    for extra in ["--rules", "--matches"] {
        let mut args: Vec<&str> = args_base.to_vec();
        args.push(extra);
        let out = run(&args);
        assert!(!out.status.success(), "{extra}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--stream"),
            "{extra}"
        );
    }
    // non-BonXai schemas have no streaming path
    let out = run(&[
        "validate",
        &data("figure3.xsd"),
        &data("figure1_document.xml"),
        "--stream",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("BonXai"));
}

#[test]
fn to_xsd_from_xsd_roundtrip() {
    let tmp = std::env::temp_dir().join("bonxai_cli_out.xsd");
    let out = run(&[
        "to-xsd",
        &data("figure4.bonxai"),
        "-o",
        tmp.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "validate",
        tmp.to_str().expect("utf8"),
        &data("figure1_document.xml"),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));

    let out = run(&["from-xsd", tmp.to_str().expect("utf8")]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("grammar {"));
}

#[test]
fn from_dtd_requires_root() {
    let out = run(&["from-dtd", &data("figure2.dtd")]);
    assert!(!out.status.success());
    let out = run(&["from-dtd", &data("figure2.dtd"), "--root", "document"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("global { document }"));
}

#[test]
fn analyze_reports_fragment() {
    let out = run(&["analyze", &data("figure4.bonxai")]);
    let text = stdout(&out);
    assert!(text.contains("suffix-based (k = 1)"), "{text}");
    let out = run(&["analyze", &data("figure3.xsd")]);
    let text = stdout(&out);
    assert!(text.contains("k-suffix:        no"), "{text}");
}

#[test]
fn sample_produces_valid_documents() {
    let out = run(&[
        "sample",
        &data("figure5.bonxai"),
        "--seed",
        "1",
        "--count",
        "1",
    ]);
    assert!(out.status.success());
    let doc_text = stdout(&out);
    // the sampled document validates
    let tmp = std::env::temp_dir().join("bonxai_cli_sample.xml");
    std::fs::write(&tmp, &doc_text).expect("writes");
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        tmp.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "sample:\n{doc_text}\n{}",
        stdout(&out)
    );
}

#[test]
fn check_reports_formalism() {
    let out = run(&["check", &data("figure4.bonxai")]);
    assert!(stdout(&out).contains("BonXai schema"));
    let out = run(&["check", &data("figure3.xsd")]);
    assert!(stdout(&out).contains("XML Schema"));
    let out = run(&["check", &data("figure2.dtd")]);
    assert!(stdout(&out).contains("DTD"));
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn diff_decides_equivalence() {
    // Figure 3 (XSD) and Figure 5 (BonXai) are equivalent
    let out = run(&["diff", &data("figure3.xsd"), &data("figure5.bonxai")]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("equivalent"));
    // Figure 4 and Figure 5 are not, with a witness
    let out = run(&["diff", &data("figure4.bonxai"), &data("figure5.bonxai")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("NOT equivalent"), "{text}");
    assert!(text.contains("at /document"), "{text}");
    // The DTD and Figure 4 agree on structure, but DTD CDATA attributes
    // admit values Figure 4's xs:integer facets reject — the value-space
    // probes must surface that as a DTD-only witness document.
    let out = run(&[
        "diff",
        &data("figure2.dtd"),
        &data("figure4.bonxai"),
        "--root",
        "document",
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("forward_compatible"), "{text}");
    assert!(text.contains("xs:integer"), "{text}");
}
