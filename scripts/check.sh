#!/usr/bin/env bash
# The tier-1 gate: release build, the test suites of every workspace
# crate plus the perfbench harness's own tests, a warning-free
# clippy pass over every target in the workspace (vendor stand-ins
# included), canonical formatting, warning-free rustdoc, the reader
# differential suite under both stage-1 lexer kernels (detected SIMD
# and forced scalar), a parse-only
# front-end microbench as a smoke check that the zero-copy reader
# still runs under both kernels, every example program, and the
# lint-corpus and diff-corpus golden checks (every seeded-defect
# fixture and schema pair must produce exactly its checked-in JSON
# report — codes, spans, witnesses, verdicts).
# CI and pre-commit both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo test --release --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Rustdoc: every intra-doc link must resolve (and none may point at a
# private item), so docs naming deleted code cannot land.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Reader differential suite twice: once with the detected SIMD kernel
# building the structural index, once with the portable scalar kernel
# building it, so the kernel that platforms without SSE2/NEON run stays
# exercised on hardware where SIMD is available.
cargo test -q -p bonxai --test reader_differential
BONXAI_NO_SIMD=1 cargo test -q -p bonxai --test reader_differential
cargo run --release -p bonxai-bench --bin exp_validation -- --parse-only
# Examples: every documented entry point (README's quickstart first)
# must run to completion, so none can silently panic.
for ex in examples/*.rs; do
  cargo run -q --release --example "$(basename "$ex" .rs)" > /dev/null \
    || { echo "example failed: $ex" >&2; exit 1; }
done

# Differential conformance: the checked-in corpus through the oracle
# and all four fast paths under every lexer engine and byte source,
# then a bounded fixed-seed fuzz smoke over the validation stack and
# the DTD parser. Any divergence or panic fails the gate. Run twice:
# once with the detected kernel and once with the scalar kernel forced
# (same index, same stage 2), so a classification bug cannot hide
# behind a kernel the CI host happens to lack (and vice versa).
target/release/bonxai conform data/conformance --fuzz 1000 --seed 0 > /dev/null \
  || { echo "conformance/fuzz divergence — run: bonxai conform data/conformance --fuzz 1000 --seed 0" >&2; exit 1; }
BONXAI_NO_SIMD=1 target/release/bonxai conform data/conformance > /dev/null \
  || { echo "conformance divergence (scalar engine) — run: BONXAI_NO_SIMD=1 bonxai conform data/conformance" >&2; exit 1; }
# Rule listings: `validate --rules` and `--matches` over every
# conformance document. Exit 1 just means the document is invalid (most
# are); anything worse (a panic is 101) is a bug.
for suite in data/conformance/*/; do
  for doc in "$suite"*.xml; do
    for flag in --rules --matches; do
      status=0
      target/release/bonxai validate "$suite/schema.bonxai" "$doc" "$flag" > /dev/null || status=$?
      if [ "$status" -gt 1 ]; then
        echo "validate $flag crashed on $doc (exit $status)" >&2
        exit 1
      fi
    done
  done
done
# Compile-path smoke: 20-schema subset through every stage, so the
# automata kernels + AutomataCache stay runnable.
cargo run --release -p bonxai-bench --bin exp_compile -- --smoke > /dev/null

# Incremental engine: the revalidate-vs-fresh-vs-oracle equivalence
# proptest under both lexer engines (it serializes and reparses each
# edited tree), then the E21 smoke, which asserts the delta-speedup
# and recompile-reuse acceptance gates internally.
cargo test -q -p bonxai --test incremental_equivalence
BONXAI_NO_SIMD=1 cargo test -q -p bonxai --test incremental_equivalence
cargo run --release -p bonxai-bench --bin exp_incremental -- --smoke > /dev/null

# Lint corpus: `bonxai lint --format json` over examples/lint/ diffed
# against the golden reports. Exit 1 from the linter just means the
# fixture has error-level findings (it should); anything worse is a bug.
BONXAI=target/release/bonxai
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for f in examples/lint/*.bonxai examples/lint/*.xsd; do
  base=$(basename "$f")
  status=0
  "$BONXAI" lint "$f" --format json --notes > "$tmp" || status=$?
  if [ "$status" -gt 1 ]; then
    echo "lint crashed on $f (exit $status)" >&2
    exit 1
  fi
  diff -u "examples/lint/golden/$base.json" "$tmp" \
    || { echo "lint golden mismatch: $f" >&2; exit 1; }
done
echo "lint corpus: $(ls examples/lint/golden | wc -l) golden reports match"

# Diff corpus: `bonxai diff --format json` over the schema pairs in
# examples/diff/ (known-equivalent, known-divergent, and a cross-
# formalism BonXai×XSD pair) diffed against the golden reports. Exit 1
# just means the pair differs (the divergent ones should); anything
# worse is a bug. Then the diff benchmark smoke, which also asserts
# every identical pair diffs equivalent.
for a in examples/diff/*.a.bonxai; do
  base=$(basename "$a" .a.bonxai)
  b=$(ls "examples/diff/$base".b.* | head -1)
  status=0
  "$BONXAI" diff "$a" "$b" --format json > "$tmp" || status=$?
  if [ "$status" -gt 1 ]; then
    echo "diff crashed on $base (exit $status)" >&2
    exit 1
  fi
  diff -u "examples/diff/golden/$base.json" "$tmp" \
    || { echo "diff golden mismatch: $base" >&2; exit 1; }
done
echo "diff corpus: $(ls examples/diff/golden | wc -l) golden reports match"
cargo run --release -p bonxai-bench --bin exp_diff -- --smoke > /dev/null
