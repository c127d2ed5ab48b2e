#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly through perfbench/run.py:
twice with --trace 0 and the same seed, once with --trace 1. Each run must
exit 0, report correct with zero failed operations, print every metric that
BENCHMARK.json names for its mode with the declared unit, and print the
same simulated digest as every other run of that workload and seed.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d:\n%s\n%s" %
                             (workload, trace, p.returncode, p.stdout[-2000:], p.stderr[-2000:]))
    digest = re.search(r"^# digest (\w+)", p.stdout, re.M)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def check_metrics(result, declared, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in want if n in got and got[n]["unit"] != want[n])
    if missing or extra or wrong_unit:
        raise AssertionError("%s: missing %s, unexpected %s, wrong unit %s" %
                             (what, missing, extra, wrong_unit))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("%s: correct=%s attempted=%d failed=%d" %
                             (what, result["correct"], result["attempted"], result["failed"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        try:
            digests = set()
            for trace, declared in ((0, bench["end_to_end"]), (0, bench["end_to_end"]),
                                    (1, bench["per_layer"])):
                result, digest = run(name, trace)
                check_metrics(result, declared, "%s trace=%d" % (name, trace))
                digests.add(digest)
            if len(digests) != 1 or None in digests:
                raise AssertionError("%s: simulated digest not stable: %s" % (name, digests))
            print("ok   %s (digest %s)" % (name, digests.pop()))
        except AssertionError as e:
            failures += 1
            print("FAIL %s" % e)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
