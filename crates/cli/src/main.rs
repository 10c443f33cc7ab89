//! `bonxai` — the command-line front end, mirroring the tool described in
//! the paper's reference \[19\]: parse BonXai schemas, validate XML against
//! them (highlighting matching rules), and translate back and forth
//! between BonXai, XML Schema, and DTD.

use std::process::ExitCode;

mod commands;

const USAGE: &str = "\
bonxai — the BonXai schema language tool

USAGE:
    bonxai <COMMAND> [ARGS]

COMMANDS:
    validate <schema> <document.xml>... [--jobs N]
        Validate XML documents. The schema may be .bonxai, .xsd, or
        .dtd (detected by extension or content). Prints violations, or
        with --rules the relevant BonXai rule for every element.
        --fast requires the product-automaton path (fails on schemas
        whose relevance product exceeds the state budget); --lockstep
        forces the reference evaluator. With --stream (BonXai schemas)
        the document — a file, or `-` for stdin — is validated in one
        streaming pass using O(depth) memory, never building a tree;
        the report is identical to tree validation. With several
        documents (or --jobs), a BonXai schema validates all of them
        on N workers (default and maximum: one per core), each taking
        the next unvalidated file and streaming it; per-file reports print in input order with
        a summary line, and the exit status is nonzero if any file is
        invalid, unreadable, or malformed.

    to-xsd <schema.bonxai> [-o out.xsd]
        Compile a BonXai schema to XML Schema.

    from-xsd <schema.xsd> [-o out.bonxai]
        Translate an XML Schema to BonXai.

    from-dtd <schema.dtd> --root <name> [-o out.bonxai]
        Convert a DTD to BonXai (roots must be named; DTDs do not
        declare them).

    diff <schema1> <schema2> [--format text|json] [--limit N] [--jobs N]
         [--root <name>]
        Decide whether two schemas (any mix of .bonxai/.xsd/.dtd) accept
        the same documents. Differences are reported as complete witness
        documents, each verified to validate against exactly one of the
        two schemas, found by comparing the selected content models at
        every realizable ancestor context (child sequences, text value
        spaces, attributes). JSON output includes the evolution
        classification (equivalent / backward_compatible /
        forward_compatible / incomparable, schema1 playing the old
        role). Exit status: 0 = equivalent, 1 = the schemas differ,
        2 = error.

    sat <schema> [--root <name>]
        Whole-schema satisfiability: does any document conform? Prints a
        minimal conforming document when one exists, and every rule that
        is reachable but admits no finite conforming subtree in context.
        Exit status: 0 = satisfiable, 1 = unsatisfiable, 2 = error.

    analyze <schema>
        Report schema statistics: rules/types, alphabet, whether the
        schema is k-suffix (and the minimal k up to 5), and which
        translation path conversions would take.

    sample <schema> [--seed N] [--count N]
        Generate random documents conforming to the schema.

    check <schema>
        Parse a schema and run the cheap structural lints (undefined
        references, UPA, vacuous content models), reporting every
        problem with its source span. Nonzero exit on any error.

    conform <dir> [--fuzz N] [--seed S]
        Differential conformance: every valid_*.xml / invalid_*.xml in
        <dir> (a corpus directory holding a schema.bonxai, or a
        directory of such directories, e.g. data/conformance) is
        validated by the reference oracle and all four fast paths
        (tree/stream × product/lock-step) under every lexer engine and
        byte source. Any disagreement between paths — verdict,
        violation list, error position, or rule matches — fails the
        run, as does a verdict contradicting the filename. With
        --fuzz N, additionally runs N iterations of structure-aware
        byte fuzzing (deterministic in --seed, default 0) over the
        validation stack and the DTD parser; panics and divergences
        are reported with shrunk reproducers.

    lint <schema|dir> [--format text|json] [--deny <level>] [--notes]
         [--jobs N]
        Full static analysis: dead rules (shadowed by later rules, with
        a witness path), unreachable rules, UPA violations with a
        shortest ambiguous word, vacuous content models, unconstrained
        element names, and — with --notes — fragment / blow-up
        advisories (BX007/BX008). Stable diagnostic codes BX001…BX010.
        Given a directory, lints every .bonxai/.xsd/.dtd file in it in
        parallel (--jobs workers, clamped to the core count) with
        byte-identical, path-ordered output for any worker count.
        Exit status is nonzero when a finding reaches the --deny level
        (note|warning|error; default error).

OPTIONS:
    -o <file>    write output to a file instead of stdout
    --rules      (validate) print the relevant rule per element
    --matches    (validate) print all matching rules per element
    --fast       (validate) require the product-automaton fast path
    --lockstep   (validate) force the lock-step reference evaluator
    --stream     (validate) stream the document in O(depth) memory
    --jobs N     (validate, lint) worker count, clamped to core count
    --seed N     (sample) RNG seed (default 0)
    --count N    (sample) number of documents (default 1)
    --format F   (lint, diff) output format: text (default) or json
    --deny L     (lint) fail at this severity: note, warning, error
    --notes      (lint) include note-level advisories
    --limit N    (diff) show at most N witnesses (default 10)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "validate" => commands::validate(rest),
        "to-xsd" => commands::to_xsd(rest),
        "from-xsd" => commands::from_xsd(rest),
        "from-dtd" => commands::from_dtd(rest),
        "analyze" => commands::analyze(rest),
        "diff" => commands::diff(rest),
        "sat" => commands::sat(rest),
        "sample" => commands::sample(rest),
        "check" => commands::check(rest),
        "lint" => commands::lint(rest),
        "conform" => commands::conform(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}; try `bonxai help`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
