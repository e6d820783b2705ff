#!/usr/bin/env python3
"""Benchmark of the MSPastry simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. It builds the `perfbench` crate next to
this file (into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload
in a child process, checks the program's outputs and prints every metric by
name and unit. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0 is the untraced timed run: the end-to-end metrics.
--trace 1 is the traced run: the per-layer metrics, from a traced copy of
the run loop that must reproduce `harness::run` exactly. Span totals and
sampled span trees are written to
$CARGO_TARGET_DIR/perfbench-spans/<workload>.seed<N>.jsonl.

--workload all runs every workload in turn (one process each).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

WORKLOADS = ["gnutella_ref", "lookup_heavy", "lossy_gatech5050", "sweep_fig6"]
# Workloads without network loss, where §3.1 promises no incorrect delivery.
LOSSLESS = {"gnutella_ref", "lookup_heavy"}
# The reference event count of gnutella_ref at seed index 0.
GNUTELLA_REF_EVENTS = 12_373_863
MIN_COVERAGE = 0.95
# A child measurement is stopped after this many seconds.
CHILD_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    for need in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found next to perfbench/: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        die("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def measure(binary, mode, workload, seed, seconds):
    cmd = [binary, mode, workload, "--seed", str(seed)]
    if mode == "timed":
        cmd += ["--seconds", str(seconds)]
    else:
        spans = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}.seed{seed}.jsonl")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if res.returncode != 0:
        die(f"{workload}: measurement failed (exit {res.returncode})")
    return json.loads(res.stdout.strip().splitlines()[-1])


def repeat_check(binary, workload, seed, outcome):
    """The first run of a seed records its simulated-time outcome; every
    later run of the same binary and seed, timed or traced, must repeat it
    exactly. Returns the failure, if any."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(target_dir(), "perfbench-outcomes", build_id,
                        f"{workload}.seed{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        if first != outcome:
            return f"outcome differs from an earlier run of seed index {seed}: {first} vs {outcome}"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(outcome, f)
    return None


def check(workload, seed, out):
    """The output checks; returns the list of failures."""
    o = out["outcome"]
    bad = []
    if workload in LOSSLESS and o["incorrect"] != 0:
        bad.append(f"incorrect_rate {o['incorrect_rate']} != 0 without network loss")
    if workload == "gnutella_ref" and seed == 0 and o["sim_events"] != GNUTELLA_REF_EVENTS:
        bad.append(f"sim_events {o['sim_events']} != {GNUTELLA_REF_EVENTS} at seed index 0")
    if o["measured_lookups"] == 0:
        bad.append("no measured lookups")
    if out["mode"] == "timed":
        if not out["deterministic"]:
            bad.append("repeated executions of one seed differ")
        for name, m in out["metrics"].items():
            if not (math.isfinite(m["value"]) and m["value"] > 0):
                bad.append(f"{name} = {m['value']} is not a positive number")
    else:
        if not out["gate"]:
            bad.append(f"traced run does not reproduce harness::run: {out['gate_error']}")
        cov = out["metrics"]["harness.coverage"]["value"]
        if cov < MIN_COVERAGE:
            bad.append(f"harness.coverage {cov:.4f} < {MIN_COVERAGE}")
    return bad


def report(workload, seed, out, bad):
    o = out["outcome"]
    print(f"== {workload} (seed index {seed}, {out['mode']})")
    for name, m in out["metrics"].items():
        print(f"  {name:44} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'sim_events':44} {o['sim_events']:>16d} count")
    print(f"  {'lookup_fail_ratio':44} {o['lookup_fail_ratio']:>16.6g} "
          f"({o['lost']} lost + {o['incorrect']} incorrect of {o['measured_lookups']} lookups)")
    print(f"  {'incorrect_rate':44} {o['incorrect_rate']:>16.6g} ratio")
    print(f"  {'lookup_p50_ms / lookup_p99_ms':44} {o['lookup_p50_ms']:>7.6g} / {o['lookup_p99_ms']:<7.6g}"
          f" sim_ms (histogram buckets, {o['latency_samples']} samples)")
    if out["mode"] == "timed":
        print(f"  executions: {out['executions']}, wall each (s): "
              + ", ".join(f"{w:.3f}" for w in out["wall_each_s"]))
    for b in bad:
        print(f"  CHECK FAILED: {b}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    binary = build()
    mode = "traced" if args.trace else "timed"
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        out = measure(binary, mode, w, args.seed, args.seconds)
        bad = check(w, args.seed, out)
        repeat = repeat_check(binary, w, args.seed, out["outcome"])
        if repeat:
            bad.append(repeat)
        report(w, args.seed, out, bad)
        runs = out["runs"]
        attempted += runs
        if bad:
            correct = False
            failed += runs
        prefix = "" if len(names) == 1 else f"{w}."
        for name, m in out["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
