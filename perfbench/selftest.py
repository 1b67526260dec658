#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny corpora (plan scale 0.02).

For every workload of run.py (those in BENCHMARK.json and deco-cc) it runs
the untraced and the traced benchmark twice and checks that
  - each run prints a well-formed result line with correct = true;
  - every end-to-end (untraced) and per-layer (traced) metric named in
    BENCHMARK.json is emitted with its unit, and nothing else is;
  - every count metric repeats exactly across the two runs.

Usage, from the repository root: python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        failures.append("BENCHMARK.json names a workload run.py does not know")
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            results = [run(w, trace) for _ in range(2)]
            for r in results:
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    failures.append(f"{w} trace={trace}: incorrect result {r}")
                if got != want:
                    failures.append(f"{w} trace={trace}: metrics/units {sorted(set(got.items()) ^ set(want.items()))}")
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in results]
            if counts[0] != counts[1]:
                failures.append(f"{w} trace={trace}: counts differ between runs")
            print(f"{w} trace={trace}: {len(want)} metrics checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
