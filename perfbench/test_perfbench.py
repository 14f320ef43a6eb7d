#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root. Runs every workload in --smoke mode (tiny
grids, a one-second window), untraced and traced, and checks that each
prints every metric BENCHMARK.json names, with its unit, and nothing else;
that a deliberately corrupted baseline reference turns into failed
operations and a nonzero exit; and that run.py refuses to run, without a
result line, when the repository sources are missing. Takes a few minutes:
every run compiles its programs cold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run(workload, trace, *extra):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p


def expect_metrics(workload, trace):
    rc, result, p = run(workload, trace)
    label = "%s --trace %d" % (workload, trace)
    check(rc == 0 and result is not None,
          label + " exits 0 with a result line" +
          ("" if rc == 0 else "\n" + p.stdout[-2000:] + p.stderr[-2000:]))
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + " result has exactly the four keys")
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, label + " is correct with no failures")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          label + " prints exactly the named metrics; missing %s, extra %s" %
          (sorted({m["name"] for m in wanted} - set(got)),
           sorted(set(got) - {m["name"] for m in wanted})))
    for m in wanted:
        if m["name"] in got:
            check(got[m["name"]]["unit"] == m["unit"] and
                  isinstance(got[m["name"]]["value"], (int, float)),
                  "%s: %s in %s" % (label, m["name"], m["unit"]))


def expect_corrupt_reference_fails():
    rc, result, _ = run("particles", 0, "--corrupt-reference")
    check(rc != 0 and result is not None and result["correct"] is False and
          result["failed"] >= 1,
          "a corrupted reference fails operations and the run")


def expect_refusal_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-bare-") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path))
        p = subprocess.run(SPEC["command"] + ["--workload", "render", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=d,
                           capture_output=True, text=True, timeout=180)
        check(p.returncode != 0 and "{" not in p.stdout,
              "without the repository sources the command fails, printing "
              "no result")


def main():
    expect_refusal_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            expect_metrics(w["name"], trace)
    expect_corrupt_reference_fails()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
