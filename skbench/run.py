#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of a checkout:

    python3 skbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 skbench/run.py --self-check

The first form builds `skbench/` (a Cargo package of its own, path-
depending on the repository's crates) and runs one workload. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; reports and span traces are
written under `skbench/out/`. The exit code is the benchmark's: 0 on
success, 1 on a wrong result, 2 on bad arguments, 3 for an
oversubscribed run (whose report is kept but never compared).

`--self-check` runs every workload named in `BENCHMARK.json` briefly,
untraced and traced, and fails if a workload or metric listed there is
missing from the output or carries another unit, if the traced run
emits no per-layer metrics, or if any output is wrong.
"""

import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT_DIR = os.path.join(HERE, "out")

# The seed the benchmark is tuned and checked on, and a second seed no
# change is tuned on, so that a claimed gain can be re-checked on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def build():
    """Builds the benchmark; returns the executable's path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "skbench":
            exe = msg.get("executable") or exe
    return exe


def capture(cmd):
    """Output of `cmd` run at the checkout root, or None if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_hash():
    """The checkout's commit, `+dirty` when tracked files changed;
    `unknown` outside a git work tree of its own."""
    top = capture(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    head = capture(["git", "rev-parse", "--short=12", "HEAD"]) or "unknown"
    clean = capture(["git", "diff", "--quiet", "HEAD"]) is not None
    return head if clean else head + "+dirty"


def run(exe, args, timeout, stdout=None):
    """Runs the benchmark binary; kills it if it outlives `timeout` or
    this process is interrupted. Returns (exit code, captured stdout)."""
    cmd = [exe, *args, "--out-dir", OUT_DIR, "--git", git_hash(),
           "--rustc", capture(["rustc", "--version"]) or "unknown"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"skbench: run exceeded {timeout} s and was stopped", file=sys.stderr)
        return 1, None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def seconds_arg(args):
    try:
        return int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        return 10


def self_check(exe):
    """Runs each workload briefly and validates its output against
    BENCHMARK.json; returns the list of problems found."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = ["--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "2", "--trace", trace]
            code, out = run(exe, args, timeout=170, stdout=subprocess.PIPE)
            where = f"{name} --trace {trace}"
            lines = (out or "").strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}, no result")
                continue
            try:
                result = json.loads(lines[-1])
            except ValueError:
                problems.append(f"{where}: last line is not JSON")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            if trace == "1" and not metrics:
                problems.append(f"{where}: the traced run emitted no per-layer metrics")
            for m in listed:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif not got.get("unit"):
                    problems.append(f"{where}: metric {m['name']} has no unit")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} in {got['unit']}, listed in {m['unit']}")
                elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{where}: metric {m['name']} value {got.get('value')!r}")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{where}: metrics not listed in BENCHMARK.json: {sorted(extra)}")
            print(f"self-check {where}: {len(metrics)} metrics", file=sys.stderr)
    return problems


def main():
    # A terminated runner stops its benchmark child too (see `run`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        print("skbench: build failed", file=sys.stderr)
        return 1
    if args == ["--self-check"]:
        problems = self_check(exe)
        for p in problems:
            print(f"self-check: {p}", file=sys.stderr)
        print("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
        return 0 if not problems else 1
    # Set-up and reference computation come on top of the measured
    # seconds; the benchmark must end well within three minutes.
    code, _ = run(exe, args, timeout=min(170, 90 + 2 * seconds_arg(args)))
    return code


if __name__ == "__main__":
    sys.exit(main())
