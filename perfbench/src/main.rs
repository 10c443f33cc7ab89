//! `bonxai-perfbench`: the measured half of the end-to-end benchmark.
//!
//! * `gen --workload W --seed S --dir D` writes the workload's inputs
//!   and expected answers into `D`.
//! * `run --workload W --dir D --seconds N --trace 0|1` loads them and
//!   repeats the workload's operation through the public entry points
//!   for about N seconds, checking every result. `--trace 0` reports
//!   the end-to-end metrics. `--trace 1` alternates each untraced
//!   operation with a replay that times every layer's public function
//!   separately, and reports the per-layer metrics.
//!
//! The last stdout line is one JSON object. The exit code is 1 when any
//! result differed from the expected answer or the trace did not add up.

mod heap;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bonxai_core::constraints::{check_constraints, ConstraintViolation};
use bonxai_core::pipeline::SchemaCompiler;
use bonxai_core::{
    BonxaiSchema, BxsdReport, CompiledBxsd, ValidateOptions, ValidationReport, ValidationState,
};
use bonxai_perfbench::codec::{self, apply, resolve, Effect, Expected, ScriptEdit};
use bonxai_perfbench::gen;
use xmltree::stream::{AttrList, EventSink, NameId, TextChunk, TextInterest};
use xmltree::{Document, Engine, NodeId, XmlReader, XmlToken};
use xsd::violation::{Violation, ViolationKind};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Set-up and calibration samples are taken at most this often
/// (seconds) during an untraced run.
const SETUP_EVERY_S: f64 = 0.5;
/// Set-ups (and calibration loops) per sampling point.
const SETUP_REPS: usize = 3;
/// Buffer slots of the calibration loop (1 MiB of keys).
const CAL_SLOTS: usize = 131_072;
/// The calibration loop's median time on the reference host (Intel
/// Xeon, 2 vCPU, 2.1 GHz) when quiet; end-to-end times are scaled to it.
const CAL_REF_NS: f64 = 5.0e6;
/// Edits per run of the edit-layer probe on workloads that do not edit.
const PROBE_EDITS: usize = 64;
/// Script cycles an edit session runs before it restarts.
const RESET_CYCLES: usize = 8;
/// Edits per round of `edit_session` (about 0.15 s).
const EDITS_PER_ROUND: usize = 4096;
/// Probes of a workload's single large input, reported as medians.
const PROBE_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bonxai-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run_cli(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload")?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    match args.first().map(String::as_str) {
        Some("gen") => {
            let seed = flag(args, "--seed")?
                .parse()
                .map_err(|_| "--seed takes an integer")?;
            let files = gen::generate(workload, seed, &gen::Scale::full())?;
            fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            for (name, content) in &files {
                let path = dir.join(name);
                fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(true)
        }
        Some("run") => {
            let seconds: f64 = flag(args, "--seconds")?
                .parse()
                .map_err(|_| "--seconds takes a number")?;
            let trace = flag(args, "--trace")? == "1";
            let bench = Bench::load(workload, &dir)?;
            let outcome = match (workload, trace) {
                ("small_docs" | "large_tree", false) => tree_run(&bench, seconds),
                ("small_docs" | "large_tree", true) => tree_traced(&bench, seconds),
                ("large_stream", false) => stream_run(&bench, seconds),
                ("large_stream", true) => stream_traced(&bench, seconds),
                ("edit_session", false) => edit_run(&bench, seconds),
                ("edit_session", true) => edit_traced(&bench, seconds),
                _ => return Err(format!("unknown workload {workload:?}")),
            };
            println!("{}", outcome.json(&bench));
            Ok(outcome.failed == 0 && outcome.trace_ok)
        }
        _ => Err("usage: bonxai-perfbench gen|run --workload W --dir D ...".into()),
    }
}

/// One input document with its expected answer.
struct Input {
    path: PathBuf,
    bytes: usize,
    exp: Expected,
    /// Expected constraint violations, encoded and sorted (multiset).
    constraint_keys: Vec<String>,
}

/// A loaded workload.
struct Bench {
    schema_text: String,
    inputs: Vec<Input>,
    script: Vec<ScriptEdit>,
}

impl Bench {
    fn load(workload: &str, dir: &Path) -> Result<Bench, String> {
        let read =
            |name: &str| fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        let mut inputs = Vec::new();
        for exp in codec::decode_expected(&read("expected.txt")?)? {
            let path = dir.join(&exp.file);
            let bytes = fs::metadata(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len() as usize;
            let constraint_keys = sorted_keys(&exp.constraints);
            inputs.push(Input {
                path,
                bytes,
                exp,
                constraint_keys,
            });
        }
        // Largest first: the probes that run on one document use it.
        inputs.sort_by_key(|i| std::cmp::Reverse(i.exp.elements));
        let script = if workload == "edit_session" {
            codec::decode_script(&read("edits.txt")?)?
        } else {
            Vec::new()
        };
        Ok(Bench {
            schema_text: read("schema.bonxai")?,
            inputs,
            script,
        })
    }

    fn schema(&self) -> BonxaiSchema {
        BonxaiSchema::parse(&self.schema_text).expect("generated schema parses")
    }
}

fn sorted_keys(cs: &[ConstraintViolation]) -> Vec<String> {
    let mut keys: Vec<String> = cs.iter().map(codec::encode_constraint).collect();
    keys.sort();
    keys
}

/// Renders a report the way `bonxai validate` prints it.
fn render(violations: &[Violation], constraints: &[ConstraintViolation], out: &mut String) {
    out.clear();
    for v in violations {
        let _ = writeln!(out, "violation: {}", v.kind);
    }
    for c in constraints {
        let _ = writeln!(out, "constraint violation: {c}");
    }
    let valid = violations.is_empty() && constraints.is_empty();
    out.push_str(if valid { "valid\n" } else { "INVALID\n" });
}

/// Whether a report and its rendering match the expected answer.
fn matches(
    inp: &Input,
    violations: &[Violation],
    constraints: &[ConstraintViolation],
    rendered: &str,
) -> bool {
    violations == inp.exp.violations.as_slice()
        && sorted_keys(constraints) == inp.constraint_keys
        && rendered.lines().count() == violations.len() + constraints.len() + 1
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ns_since(t))
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Wall time of the set-up a user pays before the first operation:
/// schema text to compiled schema, plus the persistent validation an
/// edit session starts from.
fn setup_once(bench: &Bench, doc: Option<&Document>) -> f64 {
    timed(|| {
        let schema = bench.schema();
        let compiled = CompiledBxsd::new(&schema.bxsd);
        if let Some(d) = doc {
            black_box(compiled.validate_persistent(d));
        }
        black_box(compiled.product_states());
    })
    .1 / 1e9
}

// ----------------------------------------------------------- outcomes

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Layer self times as shares of the traced operation's wall time.
    attribution: Vec<(&'static str, f64)>,
    /// Compiled-schema facts for the stamp.
    product_states: Option<usize>,
    /// 99th-percentile operation latency of an untraced run (unscaled).
    p99_us: Option<f64>,
    /// The calibration factor applied to the end-to-end times.
    scale: Option<f64>,
    /// The layers explained at least 90% of the untraced wall time.
    coverage_ok: bool,
    trace_ok: bool,
}

impl Outcome {
    fn new(schema: &BonxaiSchema) -> Outcome {
        Outcome {
            product_states: CompiledBxsd::new(&schema.bxsd).product_states(),
            trace_ok: true,
            coverage_ok: true,
            ..Outcome::default()
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The end-to-end metrics of an untraced run from its set-up and
    /// calibration samples and its items: per input document (or edit
    /// script position), every timing of it and the elements it covers.
    ///
    /// The host is shared. Other tenants' load comes in bursts and in
    /// regimes that slow the whole machine for minutes, so each item's
    /// time is its median over the run, and all times are scaled by
    /// [`CAL_REF_NS`] over the median calibration loop of the same run.
    /// The unscaled figures are printed too.
    fn end_to_end(&mut self, samples: &Samples, items: &[(Vec<f64>, usize)]) {
        let scale = CAL_REF_NS / median(&samples.calibration);
        let typical: Vec<f64> = items.iter().map(|(t, _)| median(t)).collect();
        let nodes: usize = items.iter().map(|(_, n)| n).sum();
        self.metric("setup_s", median(&samples.setup) * scale, "s");
        self.metric(
            "ns_per_node",
            typical.iter().sum::<f64>() / nodes as f64 * scale,
            "ns",
        );
        self.metric("latency_p50_us", median(&typical) * scale / 1e3, "us");
        self.scale = Some(scale);
        let lat_ns: Vec<f64> = items.iter().flat_map(|r| r.0.iter().copied()).collect();
        // Printed, but not a bounded metric: too few operations on the
        // large workloads, and too bursty a host elsewhere, to be steady.
        self.p99_us = Some(percentile(&lat_ns, 0.99) / 1e3);
    }

    fn json(&self, bench: &Bench) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.trace_ok,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        let path = match self.product_states {
            Some(n) => format!("product ({n} states)"),
            None => "lock-step".to_owned(),
        };
        let _ = write!(
            s,
            "}}, \"info\": {{\"engine\": \"{}\", \"path\": \"{path}\", \"inputs\": {}, \
             \"elements\": {}, \"bytes\": {}, \"trace_ok\": {}, \"coverage_ok\": {}, \
             \"latency_p99_us\": {}, \"scale\": {}}}, \
             \"attribution\": {{",
            Engine::detect().name(),
            bench.inputs.len(),
            bench.inputs.iter().map(|i| i.exp.elements).sum::<usize>(),
            bench.inputs.iter().map(|i| i.bytes).sum::<usize>(),
            self.trace_ok,
            self.coverage_ok,
            self.p99_us.map_or("null".to_owned(), |v| format!("{v:e}")),
            self.scale.map_or("null".to_owned(), |v| format!("{v:e}")),
        );
        for (i, (layer, share)) in self.attribution.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{layer}\": {share:.6}");
        }
        s.push_str("}}");
        s
    }
}

// ------------------------------------------------------- the operations

/// `bonxai validate schema doc.xml`: read, parse, facade validate,
/// render.
fn tree_op(schema: &BonxaiSchema, path: &Path, out: &mut String) -> ValidationReport {
    let text = fs::read_to_string(path).expect("generated input is readable");
    let doc = xmltree::parse_document(&text).expect("generated input is well-formed");
    let report = schema.validate_with(&doc, ValidateOptions::default());
    render(report.violations(), &report.constraints, out);
    report
}

/// `bonxai validate --stream schema doc.xml`: compile, stream the file
/// through the validator, render.
fn stream_op(schema: &BonxaiSchema, path: &Path, out: &mut String) -> BxsdReport {
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let file = File::open(path).expect("generated input is readable");
    let mut reader = XmlReader::from_reader(file);
    let report = compiled
        .validate_stream_with(&mut reader, ValidateOptions::default())
        .expect("generated input is well-formed");
    render(&report.violations, &[], out);
    report
}

/// One edit through the mutation API, then `revalidate` over the log
/// suffix the state has not seen.
fn edit_op(
    compiled: &CompiledBxsd<'_>,
    doc: &mut Document,
    state: &mut ValidationState,
    handles: &mut Vec<NodeId>,
    edit: &ScriptEdit,
) -> BxsdReport {
    apply(doc, handles, &edit.op);
    let edits = doc
        .edit_log()
        .expect("edit log enabled")
        .since(state.generation());
    compiled.revalidate(doc, state, edits)
}

/// A fixed piece of benchmark-owned work (no program code) that
/// allocates nothing, so the allocator and page-fault state the
/// workload leaves behind do not affect it: fill a buffer from an
/// xorshift generator, sort it, and chase a pointer cycle through it.
struct Calibration {
    keys: Vec<u64>,
    next: Vec<u32>,
}

impl Calibration {
    fn new() -> Calibration {
        // A single cycle through all slots (stride coprime to the size).
        let next = (0..CAL_SLOTS)
            .map(|i| ((i + 40_503) % CAL_SLOTS) as u32)
            .collect();
        Calibration {
            keys: vec![0; CAL_SLOTS],
            next,
        }
    }

    /// One loop's wall time in nanoseconds.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..CAL_SLOTS {
            at = self.next[(at + (self.keys[at] & 7) as usize) % CAL_SLOTS] as usize;
            acc = acc.wrapping_add(self.keys[at]);
        }
        black_box(acc);
        ns_since(t)
    }
}

/// Set-up and calibration samples of an untraced run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    calibration: Vec<f64>,
}

/// [`rounds`] that also samples the set-up and the calibration loop,
/// `reps` times each before the first round and again between rounds
/// at most every [`SETUP_EVERY_S`].
fn rounds_with_setup(
    seconds: f64,
    reps: usize,
    mut setup: impl FnMut() -> f64,
    mut round: impl FnMut(),
) -> Samples {
    let start = Instant::now();
    let mut samples = Samples::default();
    let mut calibration = Calibration::new();
    let mut last = f64::NEG_INFINITY;
    rounds(seconds, || {
        let now = start.elapsed().as_secs_f64();
        if now - last >= SETUP_EVERY_S {
            for _ in 0..reps {
                samples.setup.push(setup());
                samples.calibration.push(calibration.run());
            }
            last = now;
        }
        round();
    });
    samples
}

/// Passes full rounds over the inputs until `seconds` have elapsed, so
/// every run sees whole rounds of the same mix.
fn rounds(seconds: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        round();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn tree_run(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let mut out = String::new();
    let mut items: Vec<_> = bench
        .inputs
        .iter()
        .map(|i| (Vec::new(), i.exp.elements))
        .collect();
    let setup = rounds_with_setup(
        seconds,
        SETUP_REPS,
        || setup_once(bench, None),
        || {
            for (inp, item) in bench.inputs.iter().zip(&mut items) {
                let (report, ns) = timed(|| tree_op(&schema, &inp.path, &mut out));
                item.0.push(ns);
                o.check(matches(inp, report.violations(), &report.constraints, &out));
            }
        },
    );
    o.end_to_end(&setup, &items);
    o
}

fn stream_run(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let mut out = String::new();
    let mut items: Vec<_> = bench
        .inputs
        .iter()
        .map(|i| (Vec::new(), i.exp.elements))
        .collect();
    let setup = rounds_with_setup(
        seconds,
        SETUP_REPS,
        || setup_once(bench, None),
        || {
            for (inp, item) in bench.inputs.iter().zip(&mut items) {
                let (report, ns) = timed(|| stream_op(&schema, &inp.path, &mut out));
                item.0.push(ns);
                o.check(matches(inp, &report.violations, &[], &out));
            }
        },
    );
    o.end_to_end(&setup, &items);
    o
}

/// The edit session's document, its open violations and the script
/// position, shared by the untraced and traced runs.
struct Session<'s> {
    compiled: CompiledBxsd<'s>,
    doc: Document,
    state: ValidationState,
    handles: Vec<NodeId>,
    open: BTreeMap<NodeId, ViolationKind>,
    next: usize,
}

impl<'s> Session<'s> {
    /// A session on the input document; also whether its first report
    /// matches the expected standing violations.
    fn start(schema: &'s BonxaiSchema, bench: &Bench) -> (Session<'s>, bool) {
        let mut session = Session {
            compiled: CompiledBxsd::new(&schema.bxsd),
            doc: Document::new("document"),
            state: ValidationState::default(),
            handles: Vec::new(),
            open: BTreeMap::new(),
            next: 0,
        };
        session.reset(bench);
        let ok = session.state.report().violations == bench.inputs[0].exp.violations;
        (session, ok)
    }

    /// Restarts from the input file at the start of the script. The
    /// arena never reuses ids, so without restarts it would grow with
    /// the number of edits a run manages, and peak RSS with the host's
    /// speed.
    fn reset(&mut self, bench: &Bench) {
        // Free the edited tree and its memo before loading replacements.
        self.state = ValidationState::default();
        self.doc = Document::new("document");
        self.doc = load_doc(&bench.inputs[0]);
        self.state = self.compiled.validate_persistent(&self.doc);
        self.handles.clear();
        let standing = &bench.inputs[0].exp.violations;
        self.open = standing.iter().map(|v| (v.node, v.kind.clone())).collect();
        self.next = 0;
    }

    /// The next script edit, cycling; the session restarts (untimed)
    /// every [`RESET_CYCLES`] cycles.
    fn edit<'b>(&mut self, bench: &'b Bench) -> &'b ScriptEdit {
        if self.next == RESET_CYCLES * bench.script.len() {
            self.reset(bench);
        }
        let e = &bench.script[self.next % bench.script.len()];
        self.next += 1;
        e
    }

    fn op(&mut self, edit: &ScriptEdit) -> BxsdReport {
        edit_op(
            &self.compiled,
            &mut self.doc,
            &mut self.state,
            &mut self.handles,
            edit,
        )
    }

    /// Applies the edit's known effect and compares the report with it.
    fn check(&mut self, edit: &ScriptEdit, got: &[Violation]) -> bool {
        match &edit.effect {
            Effect::Same => {}
            Effect::Open(t, kind) => {
                self.open.insert(resolve(*t, &self.handles), kind.clone());
            }
            Effect::Close(t) => {
                self.open.remove(&resolve(*t, &self.handles));
            }
        }
        got.len() == self.open.len()
            && got
                .iter()
                .zip(&self.open)
                .all(|(v, (n, k))| v.node == *n && v.kind == *k)
    }
}

fn load_doc(inp: &Input) -> Document {
    let text = fs::read_to_string(&inp.path).expect("generated input is readable");
    let mut doc = xmltree::parse_document(&text).expect("generated input is well-formed");
    doc.enable_edit_log();
    doc
}

fn edit_run(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let (s, ok) = Session::start(&schema, bench);
    o.check(ok);
    // Set-up samples validate the document between rounds of edits.
    let s = RefCell::new(s);
    // One item per script position. Each edit keeps the whole
    // document's report current, so it covers all its elements.
    let nodes = bench.inputs[0].exp.elements;
    let mut items = vec![(Vec::new(), nodes); bench.script.len()];
    let setup_doc = || setup_once(bench, Some(&s.borrow().doc));
    let setup = rounds_with_setup(seconds, 1, setup_doc, || {
        let mut s = s.borrow_mut();
        for _ in 0..EDITS_PER_ROUND {
            let at = s.next % bench.script.len();
            let edit = s.edit(bench);
            let (report, ns) = timed(|| s.op(edit));
            items[at].0.push(ns);
            let ok = s.check(edit, &report.violations);
            o.check(ok);
        }
    });
    o.end_to_end(&setup, &items);
    o
}

// ------------------------------------------------------------- tracing

/// Layers, named after the modules whose public functions they time.
const LAYERS: [&str; 12] = [
    "read",
    "lex",
    "tree",
    "compile",
    "validate",
    "constraints",
    "drive",
    "stream",
    "render",
    "edit",
    "revalidate",
    "report",
];

fn layer(name: &str) -> usize {
    LAYERS.iter().position(|l| *l == name).expect("known layer")
}

/// Self time per layer across traced operations, the traced and the
/// untraced wall time of the same operations.
#[derive(Default)]
struct Attribution {
    self_ns: [f64; LAYERS.len()],
    traced_ns: f64,
    untraced_ns: f64,
}

impl Attribution {
    fn add(&mut self, name: &str, ns: f64) {
        self.self_ns[layer(name)] += ns;
    }

    /// Adds the attribution metrics and checks them. Layer self times
    /// must add up to the traced wall time: the spans tile each traced
    /// operation, and every replayed nested span is subtracted from
    /// exactly one parent. `gate`: the layers must also explain at
    /// least 90% of the untraced operation's wall time; on a loaded host
    /// noise can break that, so it is reported, not enforced.
    fn finish(&self, o: &mut Outcome, gate: bool) {
        let attributed: f64 = self.self_ns.iter().sum();
        o.trace_ok &= (attributed - self.traced_ns).abs() <= 1e-9 * self.traced_ns;
        let unattributed = 1.0 - attributed / self.untraced_ns;
        o.coverage_ok = !gate || unattributed <= 0.10;
        for (l, ns) in LAYERS.iter().zip(self.self_ns) {
            if ns != 0.0 {
                o.attribution.push((l, ns / self.traced_ns));
            }
        }
        o.metric("facade.unattributed_share", unattributed, "ratio");
        o.metric(
            "trace.overhead_share",
            self.traced_ns / self.untraced_ns - 1.0,
            "ratio",
        );
    }
}

/// Counts start tags; declares no interest in text.
#[derive(Default)]
struct CountSink {
    elements: usize,
}

impl EventSink for CountSink {
    fn start_element(&mut self, _: &str, _: NameId, _: &AttrList<'_>, _: bool) -> TextInterest {
        self.elements += 1;
        TextInterest::Ignore
    }

    fn end_element(&mut self, _: &str, _: NameId) {}

    fn text(&mut self, _: TextChunk<'_>) {}
}

/// Elements seen by pulling `next_event` to the end.
fn lex_count(text: &str, engine: Engine) -> usize {
    let mut reader = XmlReader::from_str(text);
    reader.set_engine(engine);
    let mut n = 0;
    loop {
        match reader.next_event().expect("generated input is well-formed") {
            XmlToken::StartElement { .. } => n += 1,
            XmlToken::EndDocument => return n,
            _ => {}
        }
    }
}

/// Elements seen by driving the file into a [`CountSink`].
fn drive_count(path: &Path, engine: Engine) -> usize {
    let mut reader = XmlReader::from_reader(File::open(path).expect("readable"));
    reader.set_engine(engine);
    let mut sink = CountSink::default();
    reader
        .drive(&mut sink)
        .expect("generated input is well-formed");
    sink.elements
}

/// Every layer's public function timed once on one input document.
#[derive(Default, Clone, Copy)]
struct Probe {
    read: f64,
    lex: f64,
    lex_scalar: f64,
    drive: f64,
    drive_scalar: f64,
    parse: f64,
    heap_bytes: usize,
    compile: f64,
    validate: f64,
    constraints: f64,
    constraint_viols: usize,
    stream: f64,
    render: f64,
    violations: usize,
    /// Every element count the layers saw agreed with the expected one.
    counts_ok: bool,
}

impl Probe {
    /// Field-wise median of repeated probes of one input.
    fn median(runs: &[Probe]) -> Probe {
        let m = |f: fn(&Probe) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        Probe {
            read: m(|p| p.read),
            lex: m(|p| p.lex),
            lex_scalar: m(|p| p.lex_scalar),
            drive: m(|p| p.drive),
            drive_scalar: m(|p| p.drive_scalar),
            parse: m(|p| p.parse),
            compile: m(|p| p.compile),
            validate: m(|p| p.validate),
            constraints: m(|p| p.constraints),
            stream: m(|p| p.stream),
            render: m(|p| p.render),
            counts_ok: runs.iter().all(|p| p.counts_ok),
            ..runs[0]
        }
    }
}

fn probe(schema: &BonxaiSchema, inp: &Input) -> Probe {
    let (text, read) = timed(|| fs::read_to_string(&inp.path).expect("readable"));
    let detected = Engine::detect();
    let (n_lex, lex) = timed(|| lex_count(&text, detected));
    let (n_lex_s, lex_scalar) = timed(|| lex_count(&text, Engine::Scalar));
    let (n_drive, drive) = timed(|| drive_count(&inp.path, detected));
    let (n_drive_s, drive_scalar) = timed(|| drive_count(&inp.path, Engine::Scalar));
    let (doc, parse) = timed(|| xmltree::parse_document(&text).expect("well-formed"));
    let (_, heap_bytes) = heap::measure(|| xmltree::parse_document(&text).expect("well-formed"));
    let (compiled, compile) = timed(|| CompiledBxsd::new(&schema.bxsd));
    let (report, validate) = timed(|| compiled.validate(&doc));
    let (cons, constraints) =
        timed(|| check_constraints(&schema.ast.constraints, &schema.bxsd.ename, &doc));
    let (_, stream) = timed(|| {
        let mut reader = XmlReader::from_reader(File::open(&inp.path).expect("readable"));
        compiled.validate_stream(&mut reader).expect("well-formed")
    });
    let mut out = String::new();
    let (_, render) = timed(|| render(&report.violations, &cons, &mut out));
    let n = inp.exp.elements;
    Probe {
        read,
        lex,
        lex_scalar,
        drive,
        drive_scalar,
        parse,
        heap_bytes,
        compile,
        validate,
        constraints,
        constraint_viols: cons.len(),
        stream,
        render,
        violations: report.violations.len() + cons.len(),
        counts_ok: [n_lex, n_lex_s, n_drive, n_drive_s, doc.element_count()]
            .iter()
            .all(|&c| c == n),
    }
}

/// Per-layer totals: `(ns or count, units)` by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, f64)>);

impl Layers {
    fn add(&mut self, name: &'static str, amount: f64, units: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += amount;
        e.1 += units;
    }

    fn ratio(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(a, u)| a / u.max(1.0))
    }
}

/// Runs [`probe`] on every input (once per traced run) and records each
/// layer's unit cost, then the compile facts and the edit-layer probe.
fn probe_all(schema: &BonxaiSchema, bench: &Bench, l: &mut Layers, o: &mut Outcome) {
    let mut heap_peak = 0usize;
    // A single large input is probed several times, many small ones once.
    let reps = if bench.inputs.len() == 1 {
        PROBE_REPS
    } else {
        1
    };
    for inp in &bench.inputs {
        let runs: Vec<Probe> = (0..reps).map(|_| probe(schema, inp)).collect();
        let p = Probe::median(&runs);
        let n = inp.exp.elements as f64;
        o.trace_ok &= p.counts_ok;
        heap_peak = heap_peak.max(p.heap_bytes);
        l.add("read", p.read, inp.bytes as f64);
        l.add("lex", p.lex, n);
        l.add("lex.scalar", p.lex_scalar, n);
        l.add("drive", p.drive - p.read, n);
        l.add("drive.scalar", p.drive_scalar - p.read, n);
        l.add("tree", p.parse - p.lex, n);
        l.add("compile", p.compile, 1.0);
        l.add("validate", p.validate, n);
        l.add("stream", p.stream - p.drive, n);
        l.add("constraints", p.constraints, n);
        l.add("constraints.violations", p.constraint_viols as f64, 1.0);
        l.add("render", p.render, p.violations as f64);
        l.add("render.violations", p.violations as f64, 1.0);
    }
    l.add("tree.heap", heap_peak as f64, 1.0);
    let parses: Vec<f64> = (0..5).map(|_| timed(|| bench.schema()).1).collect();
    l.add("lang", median(&parses), 1.0);
    let mut session = SchemaCompiler::new();
    let _ = session.compile(&schema.bxsd);
    l.add("compile.misses", session.last_stats().misses() as f64, 1.0);
}

/// Times [`PROBE_EDITS`] attribute toggles on the root of the largest
/// input, for workloads whose operation does not edit.
fn probe_edits(schema: &BonxaiSchema, bench: &Bench, l: &mut Layers) {
    let mut doc = load_doc(&bench.inputs[0]);
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let mut state = compiled.validate_persistent(&doc);
    let root = doc.root();
    for k in 0..PROBE_EDITS {
        let t = Instant::now();
        if k % 2 == 0 {
            doc.set_attribute(root, "lang", "en");
        } else {
            doc.remove_attribute(root, "lang");
        }
        let edits = doc.edit_log().expect("enabled").since(state.generation());
        let edit = ns_since(t);
        let (_, reval) = timed(|| compiled.revalidate(&doc, &mut state, edits));
        let (report, rep) = timed(|| state.report());
        record_edit(
            l,
            edit,
            reval,
            rep,
            state.last_passes(),
            report.violations.len(),
        );
    }
}

fn record_edit(l: &mut Layers, edit: f64, reval: f64, report: f64, passes: usize, open: usize) {
    l.add("edit", edit, 1.0);
    l.add("revalidate", reval - report, 1.0);
    l.add("report", report, 1.0);
    l.add("revalidate.passes", passes as f64, 1.0);
    l.add("report.open", open as f64, 1.0);
}

/// The per-layer metrics, from `ops` for the layers the workload's
/// operation runs and from `probes` for the others.
fn layer_metrics(o: &mut Outcome, ops: &Layers, probes: &Layers, calls_per_op: f64) {
    let pick = |name: &str| {
        if ops.0.contains_key(name) {
            ops.ratio(name)
        } else {
            probes.ratio(name)
        }
    };
    o.metric("read.ns_per_byte", pick("read"), "ns");
    o.metric("lang.parse_ms", probes.ratio("lang") / 1e6, "ms");
    o.metric("compile.ms_per_call", pick("compile") / 1e6, "ms");
    o.metric("compile.calls_per_op", calls_per_op, "count");
    o.metric(
        "compile.product_states",
        o.product_states.unwrap_or(0) as f64,
        "count",
    );
    o.metric(
        "compile.cache_misses",
        probes.ratio("compile.misses"),
        "count",
    );
    o.metric("lex.ns_per_node", pick("lex"), "ns");
    o.metric("lex.scalar_ns_per_node", pick("lex.scalar"), "ns");
    o.metric("drive.ns_per_node", pick("drive"), "ns");
    o.metric("drive.scalar_ns_per_node", pick("drive.scalar"), "ns");
    o.metric("tree.ns_per_node", pick("tree"), "ns");
    o.metric(
        "tree.peak_heap_mb",
        probes.ratio("tree.heap") / 1048576.0,
        "MiB",
    );
    o.metric("validate.ns_per_node", pick("validate"), "ns");
    o.metric("stream.ns_per_node", pick("stream"), "ns");
    o.metric("constraints.ns_per_node", pick("constraints"), "ns");
    o.metric(
        "constraints.violations",
        pick("constraints.violations"),
        "count",
    );
    o.metric("render.ns_per_violation", pick("render"), "ns");
    o.metric(
        "render.violations_per_op",
        pick("render.violations"),
        "count",
    );
    o.metric("revalidate.us_per_edit", pick("revalidate") / 1e3, "us");
    o.metric(
        "revalidate.passes_per_edit",
        pick("revalidate.passes"),
        "count",
    );
    o.metric("report.us_per_edit", pick("report") / 1e3, "us");
    o.metric("report.open_violations", pick("report.open"), "count");
    o.metric("edit.ns_per_edit", pick("edit"), "ns");
}

fn tree_traced(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let (mut probes, mut ops, mut at) =
        (Layers::default(), Layers::default(), Attribution::default());
    probe_all(&schema, bench, &mut probes, &mut o);
    probe_edits(&schema, bench, &mut probes);
    let mut out = String::new();
    let mut flip = false;
    rounds(seconds, || {
        for inp in &bench.inputs {
            let untraced_op = |o: &mut Outcome, out: &mut String| {
                let (report, ns) = timed(|| tree_op(&schema, &inp.path, out));
                o.check(matches(inp, report.violations(), &report.constraints, out));
                ns
            };
            // Alternate which of the pair runs first.
            flip = !flip;
            let mut untraced = if flip {
                untraced_op(&mut o, &mut out)
            } else {
                0.0
            };

            // The same operation, one public call per layer.
            let t0 = Instant::now();
            let text = fs::read_to_string(&inp.path).expect("readable");
            let t1 = Instant::now();
            let doc = xmltree::parse_document(&text).expect("well-formed");
            let t2 = Instant::now();
            let compiled = CompiledBxsd::new(&schema.bxsd);
            let t3 = Instant::now();
            let structure = compiled.validate_with(&doc, ValidateOptions::default());
            let t4 = Instant::now();
            drop(compiled);
            let t5 = Instant::now();
            let cons = check_constraints(&schema.ast.constraints, &schema.bxsd.ename, &doc);
            let t6 = Instant::now();
            render(&structure.violations, &cons, &mut out);
            let t7 = Instant::now();
            drop(doc);
            let t8 = Instant::now();
            let wall = (t8 - t0).as_nanos() as f64;
            o.check(matches(inp, &structure.violations, &cons, &out));
            if !flip {
                untraced = untraced_op(&mut o, &mut out);
            }

            // Lexing runs inside `parse_document`; a replay of the same
            // bytes splits its span into lex and tree-building time.
            let (_, lex) = timed(|| lex_count(&text, Engine::detect()));
            let d = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
            let n = inp.exp.elements as f64;
            let tree = d(t1, t2) + d(t7, t8) - lex;
            let compile = d(t2, t3) + d(t4, t5);
            at.add("read", d(t0, t1));
            at.add("lex", lex);
            at.add("tree", tree);
            at.add("compile", compile);
            at.add("validate", d(t3, t4));
            at.add("constraints", d(t5, t6));
            at.add("render", d(t6, t7));
            at.traced_ns += wall;
            at.untraced_ns += untraced;
            ops.add("read", d(t0, t1), inp.bytes as f64);
            ops.add("lex", lex, n);
            ops.add("tree", tree, n);
            ops.add("compile", compile, 1.0);
            ops.add("validate", d(t3, t4), n);
            ops.add("constraints", d(t5, t6), n);
            ops.add("constraints.violations", cons.len() as f64, 1.0);
            let viols = (structure.violations.len() + cons.len()) as f64;
            ops.add("render", d(t6, t7), viols);
            ops.add("render.violations", viols, 1.0);
        }
    });
    layer_metrics(&mut o, &ops, &probes, 1.0);
    at.finish(&mut o, true);
    o
}

fn stream_traced(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let (mut probes, mut ops, mut at) =
        (Layers::default(), Layers::default(), Attribution::default());
    probe_all(&schema, bench, &mut probes, &mut o);
    probe_edits(&schema, bench, &mut probes);
    let mut out = String::new();
    let mut flip = false;
    rounds(seconds, || {
        for inp in &bench.inputs {
            let untraced_op = |o: &mut Outcome, out: &mut String| {
                let (report, ns) = timed(|| stream_op(&schema, &inp.path, out));
                o.check(matches(inp, &report.violations, &[], out));
                ns
            };
            flip = !flip;
            let mut untraced = if flip {
                untraced_op(&mut o, &mut out)
            } else {
                0.0
            };

            let t0 = Instant::now();
            let compiled = CompiledBxsd::new(&schema.bxsd);
            let t1 = Instant::now();
            let mut reader = XmlReader::from_reader(File::open(&inp.path).expect("readable"));
            let report = compiled
                .validate_stream_with(&mut reader, ValidateOptions::default())
                .expect("well-formed");
            let t2 = Instant::now();
            render(&report.violations, &[], &mut out);
            let t3 = Instant::now();
            drop(reader);
            drop(compiled);
            let t4 = Instant::now();
            let wall = (t4 - t0).as_nanos() as f64;
            o.check(matches(inp, &report.violations, &[], &out));
            if !flip {
                untraced = untraced_op(&mut o, &mut out);
            }

            // The stream span nests the drive loop, which nests the file
            // reads; replays of each split the span.
            let (_, read) = timed(|| fs::read(&inp.path).expect("readable"));
            let (_, drive) = timed(|| drive_count(&inp.path, Engine::detect()));
            let d = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
            let n = inp.exp.elements as f64;
            let compile = d(t0, t1) + d(t3, t4);
            at.add("compile", compile);
            at.add("read", read);
            at.add("drive", drive - read);
            at.add("stream", d(t1, t2) - drive);
            at.add("render", d(t2, t3));
            at.traced_ns += wall;
            at.untraced_ns += untraced;
            ops.add("compile", compile, 1.0);
            ops.add("read", read, inp.bytes as f64);
            ops.add("drive", drive - read, n);
            ops.add("stream", d(t1, t2) - drive, n);
            let viols = report.violations.len() as f64;
            ops.add("render", d(t2, t3), viols);
            ops.add("render.violations", viols, 1.0);
        }
    });
    layer_metrics(&mut o, &ops, &probes, 1.0);
    at.finish(&mut o, false);
    o
}

fn edit_traced(bench: &Bench, seconds: f64) -> Outcome {
    let schema = bench.schema();
    let mut o = Outcome::new(&schema);
    let (mut probes, mut ops, mut at) =
        (Layers::default(), Layers::default(), Attribution::default());
    probe_all(&schema, bench, &mut probes, &mut o);
    let (mut s, ok) = Session::start(&schema, bench);
    o.check(ok);
    rounds(seconds, || {
        for k in 0..256 {
            let untraced_op = |o: &mut Outcome, s: &mut Session<'_>| {
                let edit = s.edit(bench);
                let (report, ns) = timed(|| s.op(edit));
                let ok = s.check(edit, &report.violations);
                o.check(ok);
                ns
            };
            // Alternate which of the pair runs first.
            let mut untraced = if k % 2 == 0 {
                untraced_op(&mut o, &mut s)
            } else {
                0.0
            };

            let edit = s.edit(bench);
            let t0 = Instant::now();
            apply(&mut s.doc, &mut s.handles, &edit.op);
            let edits = s
                .doc
                .edit_log()
                .expect("enabled")
                .since(s.state.generation());
            let t1 = Instant::now();
            let report = s.compiled.revalidate(&s.doc, &mut s.state, edits);
            let t2 = Instant::now();
            let ok = s.check(edit, &report.violations);
            o.check(ok);
            if k % 2 == 1 {
                untraced = untraced_op(&mut o, &mut s);
            }

            // `revalidate` ends by assembling the report; a replay of
            // that call splits its span.
            let (_, rep) = timed(|| s.state.report());
            let d = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
            at.add("edit", d(t0, t1));
            at.add("revalidate", d(t1, t2) - rep);
            at.add("report", rep);
            at.traced_ns += d(t0, t2);
            at.untraced_ns += untraced;
            record_edit(
                &mut ops,
                d(t0, t1),
                d(t1, t2),
                rep,
                s.state.last_passes(),
                report.violations.len(),
            );
        }
    });
    layer_metrics(&mut o, &ops, &probes, 0.0);
    at.finish(&mut o, false);
    o
}
