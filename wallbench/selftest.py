#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark at tiny input sizes.

    python3 wallbench/selftest.py

Run from the repository root (it builds the benchmark like run.py does).
For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric, and nothing else;
  * the result line has exactly the keys correct/attempted/failed/metrics,
    every correctness check passed and the exit status is 0;
  * end-to-end values are positive;
  * a different seed changes the inputs (their digest, printed on stderr)
    but not the set of metric names.
Exits 0 when all checks pass.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                        proc.stderr[-3000:]))
    result = json.loads(lines[-1])
    digest = re.search(r"inputs_digest=([0-9a-f]+)", proc.stderr)
    return result, digest.group(1) if digest else None


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for w in [w["name"] for w in bench["workloads"]]:
        try:
            digests = []
            for seed in (1, 2):
                result, digest = run(w, seed, 0)
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      "%s: result keys %s" % (w, sorted(result)))
                check(result["correct"] is True and result["failed"] == 0,
                      "%s: correctness checks failed" % w)
                check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                      "%s: attempted must be a positive integer" % w)
                metrics = result["metrics"]
                check(set(metrics) == set(e2e), "%s: end-to-end names %s" % (w, sorted(metrics)))
                for name, m in metrics.items():
                    check(m["unit"] == e2e[name], "%s: %s has unit %s" % (w, name, m["unit"]))
                    check(m["value"] > 0, "%s: %s is not positive" % (w, name))
                check(digest is not None, "%s: no inputs digest" % w)
                digests.append(digest)
            check(digests[0] != digests[1], "%s: seeds 1 and 2 gave the same inputs" % w)
            result, _ = run(w, 1, 1)
            check(result["correct"] is True, "%s: traced run failed its checks" % w)
            metrics = result["metrics"]
            check(set(metrics) == set(layers), "%s: per-layer names %s" % (w, sorted(metrics)))
            for name, m in metrics.items():
                check(m["unit"] == layers[name], "%s: %s has unit %s" % (w, name, m["unit"]))
            print("ok   %s" % w)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (w, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
