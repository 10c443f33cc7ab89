#!/usr/bin/env python3
"""End-to-end validation benchmark: build, generate, measure, report.

Run from the repository root:

    python3 perfbench/run.py --workload small_docs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The script builds the `perfbench` package (into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload's inputs from the seed
into a work directory under it, and runs the measured process on
them in a child process, whose peak RSS is the `peak_rss_mb` metric: the
child only loads the generated files and runs the operations. It prints
a host/build stamp, every metric by name and unit, and as its last line
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when any result was wrong, 2 on a build or usage
error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["small_docs", "large_tree", "large_stream", "edit_session"]
BUILD_TIMEOUT_S = 850
STEP_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(argv, stdout_path, timeout_s):
    """Runs argv to completion; returns (exit status, rusage)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out)
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            fail(f"{argv[1]} timed out after {timeout_s} s")
        time.sleep(0.02)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file()
                        and p.suffix in (".rs", ".toml", ".lock", ".py", ".bonxai"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def host_stamp(root, info):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    git = "none (not a git checkout)"
    if (root / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        git = rev.stdout.strip() or git
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "engine": info["engine"],
        "rustc": rustc.stdout.strip(),
        "git_rev": git,
        "source_sha256": source_digest(root),
        "schema_path": info["path"],
    }


def run_workload(exe, work_root, workload, seed, seconds, trace):
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        status, _ = run_child([str(exe), "gen", "--workload", workload, "--seed",
                               str(seed), "--dir", str(work / "in")],
                              work / "gen.out", STEP_TIMEOUT_S)
        if status != 0:
            fail(f"generating {workload} failed (exit {status})")
        status, rusage = run_child([str(exe), "run", "--workload", workload, "--dir",
                                    str(work / "in"), "--seconds", str(seconds),
                                    "--trace", str(trace)],
                                   work / "run.out", STEP_TIMEOUT_S)
        lines = (work / "run.out").read_text().splitlines()
        if not lines:
            fail(f"{workload}: the measured process printed nothing (exit {status})")
        result = json.loads(lines[-1])
        if status not in (0, 1):
            fail(f"{workload}: the measured process failed (exit {status})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        # ru_maxrss is in KiB on Linux: the measured child's peak RSS.
        result["metrics"]["peak_rss_mb"] = {"value": rusage.ru_maxrss / 1024, "unit": "MiB"}
    return result


def report(workload, seed, seconds, trace, r):
    info = r["info"]
    print(f"{workload} (seed {seed}, {seconds} s, trace {trace}): {info['inputs']} "
          f"document(s), {info['elements']} elements, {info['bytes']} bytes, "
          f"{r['attempted']} operations checked")
    scale = info["scale"]
    for name, m in r["metrics"].items():
        raw = ""
        if scale is not None and name != "peak_rss_mb":
            raw = f"  (unscaled {m['value'] / scale:.6g})"
        print(f"  {name:28s} {m['value']:16.6g} {m['unit']}{raw}")
    if scale is not None:
        print(f"  {'calibration scale':28s} {scale:16.6g}")
    print(f"  {'fail_ratio':28s} {r['failed'] / r['attempted']:16.6g} ratio")
    if info["latency_p99_us"] is not None:
        print(f"  {'latency_p99_us':28s} {info['latency_p99_us']:16.6g} us "
              f"(of {r['attempted']} operations; not a bounded metric)")
    if trace:
        shares = "  ".join(f"{k} {v:.1%}" for k, v in r["attribution"].items())
        print(f"  self time by layer: {shares}")
        if not info["trace_ok"]:
            print("  ATTRIBUTION CHECK FAILED: layer self times do not add up "
                  "to the traced wall time")
        if not info["coverage_ok"]:
            print("  WARNING: the layers explain less than 90% of the untraced "
                  "wall time (facade.unattributed_share > 0.10)")
    if r["failed"]:
        print(f"  MISMATCH: {r['failed']} of {r['attempted']} operations differed "
              "from the expected answer")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not ((root / "Cargo.toml").is_file() and (root / "crates").is_dir()
            and (root / "perfbench" / "Cargo.toml").is_file()):
        fail("run from the root of a bonxai checkout (crates/ and Cargo.toml missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    exe = target / "release" / "bonxai-perfbench"

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seconds = f"{args.seconds:g}"
    results = {}
    for w in workloads:
        results[w] = run_workload(exe, target / "perfbench-work", w, args.seed,
                                  seconds, args.trace)
    stamp = host_stamp(root, next(iter(results.values()))["info"])
    print("host " + json.dumps(stamp))
    for w, r in results.items():
        report(w, args.seed, seconds, args.trace, r)

    if len(results) == 1:
        r = results[workloads[0]]
        metrics = r["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
